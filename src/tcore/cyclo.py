"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are stored in the power basis 1, x, ..., x^(phi(m)-1) with x the
primitive m-th root of unity, reduced modulo the m-th cyclotomic polynomial.
Reduction keeps representations canonical, so equality is coefficient-wise.
There is one reduction, from_powers: a product or a Galois image adds its
coefficients at exponents mod m, and each power x^e, e < m, is one integer
row of a table.  The inverse is the product of the other Galois conjugates
over the norm, which is rational.

The conductor is carried on every element; mixing conductors is an error by
design (the callers always know which field they work in, and silent
promotion would hide bugs in branch bookkeeping).
"""

from __future__ import annotations

from functools import cache
from math import gcd

from ._rat import QQ, RAT_ONE, RAT_ZERO, Scalar, is_rational, rat_str


@cache
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, ascending degree, monic."""
    if m < 1:
        raise ValueError("conductor must be positive")
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _exact_polydiv(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _exact_polydiv(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Divide integer polynomials (den monic, division known exact)."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        out[i - dd] = c
        if c:
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    if any(num[:dd]):
        raise ArithmeticError("polynomial division was not exact")
    return out


@cache
def _power_table(m: int) -> tuple[tuple[int, ...], ...]:
    """x^e reduced mod Phi_m, for e = 0 .. m - 1, as integer rows."""
    phi = cyclotomic_polynomial(m)
    row = (1,) + (0,) * (len(phi) - 2)
    rows = [row]
    for _ in range(m - 1):
        # x * row, less its top coefficient times the monic Phi_m
        lead = row[-1]
        row = tuple(a - lead * p for a, p in zip((0, *row[:-1]), phi))
        rows.append(row)
    return tuple(rows)


def euler_phi(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


class Cyclo(Scalar):
    """An element of Q(zeta_m), canonical in the power basis mod Phi_m."""

    __slots__ = ("m", "coeffs")
    _KIND = "conductor"

    def __init__(self, m: int, coeffs):
        deg = euler_phi(m)
        cs = [QQ(c) for c in coeffs]
        if len(cs) > deg:
            raise ValueError(f"got {len(cs)} coefficients, field degree is {deg}")
        cs.extend([RAT_ZERO] * (deg - len(cs)))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "Cyclo":
        return cls(m, ())

    @classmethod
    def one(cls, m: int) -> "Cyclo":
        return cls(m, (RAT_ONE,))

    @classmethod
    def from_rat(cls, m: int, x) -> "Cyclo":
        return cls(m, (QQ(x),))

    @classmethod
    def root(cls, m: int, k: int = 1) -> "Cyclo":
        """zeta_m^k, for any integer k."""
        k %= m
        return cls(m, _power_table(m)[k])

    @classmethod
    def from_powers(cls, m: int, weights) -> "Cyclo":
        """sum_e weights[e] * zeta_m^e, for e = 0 .. len(weights) - 1 < m: the
        one reduction mod Phi_m."""
        table = _power_table(m)
        cs = [0] * euler_phi(m)
        for e, w in enumerate(weights):
            if w:
                for j, x in enumerate(table[e]):
                    if x:
                        cs[j] += w * x
        return cls(m, cs)

    # -- ring structure ----------------------------------------------------

    @property
    def _home(self):
        return self.m

    def _lift(self, x):
        return Cyclo.from_rat(self.m, x) if is_rational(x) else None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclo(self.m, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    def __neg__(self):
        return Cyclo(self.m, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if is_rational(other):
            x = QQ(other)
            return Cyclo(self.m, tuple(a * x for a in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        for a, b in ((self, o), (o, self)):
            if not any(b.coeffs[1:]):
                # a rational-valued factor scales, as a plain rational does
                x = b.coeffs[0]
                return Cyclo(self.m, tuple(c * x for c in a.coeffs))
        m = self.m
        raw = [0] * m  # the coefficient of each power zeta_m^e, e < m
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        raw[(i + j) % m] += a * b
        return Cyclo.from_powers(m, raw)

    def inverse(self) -> "Cyclo":
        """Multiplicative inverse: the product of the Galois conjugates other
        than self, over the norm (the product of all of them), a rational."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        if self.is_rational():
            return Cyclo.from_rat(self.m, RAT_ONE / self.coeffs[0])
        others = Cyclo.one(self.m)
        for k in range(2, self.m):
            if gcd(k, self.m) == 1:
                others = others * self.galois(k)
        return others * (RAT_ONE / (self * others).rational_value())

    # -- structure queries -------------------------------------------------

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Cyclo):
            return self.m == other.m and self.coeffs == other.coeffs
        if is_rational(other):
            return self == Cyclo.from_rat(self.m, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.m, self.coeffs))

    def is_rational(self) -> bool:
        return all(not c for c in self.coeffs[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def conjugate(self) -> "Cyclo":
        """Complex conjugation, i.e. zeta -> zeta^(-1)."""
        return self.galois(-1)

    def galois(self, k: int) -> "Cyclo":
        """The automorphism zeta -> zeta^k (k coprime to m)."""
        if gcd(k, self.m) != 1:
            raise ValueError(f"{k} is not coprime to conductor {self.m}")
        weights = [0] * self.m
        for j, c in enumerate(self.coeffs):
            weights[j * k % self.m] = c
        return Cyclo.from_powers(self.m, weights)

    def is_real(self) -> bool:
        return self.conjugate() == self

    def embed(self):
        """Numeric image at zeta_m = exp(2*pi*i/m), mpmath complex."""
        import mpmath

        zeta = mpmath.exp(2j * mpmath.pi / self.m)
        acc = mpmath.mpc(0)
        for c in reversed(self.coeffs):
            acc = acc * zeta + mpmath.mpf(int(c.numerator)) / int(c.denominator)
        return acc

    # -- presentation ------------------------------------------------------

    def __repr__(self):
        if not self:
            return f"Cyclo({self.m}, 0)"
        bits = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                bits.append(rat_str(c))
            else:
                mono = f"zeta{self.m}" if j == 1 else f"zeta{self.m}^{j}"
                bits.append(mono if c == 1 else f"{rat_str(c)}*{mono}")
        return " + ".join(bits).replace("+ -", "- ")
