"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are stored in the power basis 1, x, ..., x^(phi(m)-1) with x the
primitive m-th root of unity, reduced modulo the m-th cyclotomic polynomial.
Reduction keeps representations canonical, so equality is coefficient-wise.

The conductor is carried on every element; mixing conductors is an error by
design (the callers always know which field they work in, and silent
promotion would hide bugs in branch bookkeeping).
"""

from __future__ import annotations

from functools import cache
from math import gcd

from ._rat import QQ, RAT_ONE, RAT_ZERO, is_rational, power, rat_str


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
def _power_table(m: int) -> tuple[tuple, ...]:
    """x^e reduced mod Phi_m, for e = 0 .. max(2*deg-2, m-1), as QQ tuples."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    top = max(2 * deg - 2, m - 1, deg)
    rows = []
    cur = [RAT_ZERO] * deg
    if deg > 0:
        cur[0] = RAT_ONE
    rows.append(tuple(cur))
    for _ in range(top):
        nxt = [RAT_ZERO] + cur[: deg - 1]
        lead = cur[deg - 1] if deg > 0 else RAT_ZERO
        if lead:
            for j in range(deg):
                nxt[j] -= lead * phi[j]
        rows.append(tuple(nxt))
        cur = nxt
    return tuple(rows)


def euler_phi(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


class Cyclo:
    """An element of Q(zeta_m), canonical in the power basis mod Phi_m."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs):
        deg = euler_phi(m)
        cs = [QQ(c) for c in coeffs]
        if len(cs) > deg:
            raise ValueError(f"got {len(cs)} coefficients, field degree is {deg}")
        cs.extend([RAT_ZERO] * (deg - len(cs)))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Cyclo elements are immutable")

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
        """sum_e weights[e] * zeta_m^e, for e = 0 .. len(weights) - 1 < m."""
        table = _power_table(m)
        cs = [RAT_ZERO] * euler_phi(m)
        for e, w in enumerate(weights):
            if w:
                for j, x in enumerate(table[e]):
                    if x:
                        cs[j] += w * x
        return cls(m, cs)

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclo):
            if other.m != self.m:
                raise ValueError(f"conductor mismatch: {self.m} vs {other.m}")
            return other
        if is_rational(other):
            return Cyclo.from_rat(self.m, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclo(self.m, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.m, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclo(self.m, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

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
        deg = len(self.coeffs)
        raw = [RAT_ZERO] * (2 * deg - 1) if deg else []
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    raw[i + j] += a * b
        table = _power_table(self.m)
        out = list(raw[:deg])
        for e in range(deg, len(raw)):
            c = raw[e]
            if c:
                row = table[e]
                for j in range(deg):
                    if row[j]:
                        out[j] += c * row[j]
        return Cyclo(self.m, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        """Multiplicative inverse, by solving (self * x = 1) over QQ."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        deg = len(self.coeffs)
        if all(not c for c in self.coeffs[1:]):
            return Cyclo.from_rat(self.m, RAT_ONE / self.coeffs[0])
        # columns: self * x^j in the power basis
        cols = []
        table = _power_table(self.m)
        for j in range(deg):
            prod = self * Cyclo(self.m, table[j])
            cols.append(prod.coeffs)
        # Gaussian elimination on the transposed system
        a = [[cols[j][i] for j in range(deg)] for i in range(deg)]
        rhs = [RAT_ONE if i == 0 else RAT_ZERO for i in range(deg)]
        for col in range(deg):
            piv = next((r for r in range(col, deg) if a[r][col]), None)
            if piv is None:
                raise ZeroDivisionError("singular multiplication matrix")
            a[col], a[piv] = a[piv], a[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
            inv = RAT_ONE / a[col][col]
            a[col] = [v * inv for v in a[col]]
            rhs[col] *= inv
            for r in range(deg):
                if r != col and a[r][col]:
                    f = a[r][col]
                    a[r] = [v - f * w for v, w in zip(a[r], a[col])]
                    rhs[r] -= f * rhs[col]
        return Cyclo(self.m, tuple(rhs))

    def __truediv__(self, other):
        if is_rational(other):
            x = QQ(other)
            return Cyclo(self.m, tuple(a / x for a in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        return power(self if e >= 0 else self.inverse(), abs(e), Cyclo.one(self.m))

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
        out = Cyclo.zero(self.m)
        for j, c in enumerate(self.coeffs):
            if c:
                out = out + Cyclo.root(self.m, j * k) * c
        return out

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
