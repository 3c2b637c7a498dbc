"""Truncated exact series arithmetic.

Three containers live here:

* QSeries  - univariate series in Q with half-integer exponents,
* BiSeries - bivariate series in (Q, Q1) truncated by total degree,
* TaylorZ  - truncated Taylor polynomials in a formal z.

Exponent convention: every Q-exponent is stored DOUBLED as a plain int
("exp2"), so Q^(3/2) lives at key 3 and Q^2 at key 4.  Half-integer powers
are pervasive here (theta sums carry Q^(a^2/2), the n-point weights carry
s^(1/2)), and doubling keeps the bookkeeping in integers.  Public entry
points take the exponent itself: an int, or a Fraction whose denominator is
1 or 2, such as QQ(3, 2) for Q^(3/2); internal code passes doubled ints.
Reprs print an exponent as its rat_str, "3/2" or "2".

QSeries and BiSeries share one base, _Series, which holds the ring
plumbing (sums, negation, scaling, powers, truncation, equality and
hashing) and reads the degree of a key through the subclass: the key
itself for a QSeries, the total a + b for a BiSeries.

One loop multiplies and one recurrence divides, for every container and
coefficient domain.  _product walks the terms of one factor by degree, so
that no pair above the window is multiplied; QSeries, BiSeries and TaylorZ
products all call it, with the coefficients as they are.  Exp, every
quotient and Newton's identities (tcore.symfunc) are one graded recurrence
over the pieces of one degree each (_graded): qexp solves
d E_d = sum_k k L_k E_(d-k), and a quotient A/B with B_0 invertible is
O_d = (A_d - sum_(k>=1) B_k O_(d-k)) / B_0, found one degree at a time
(_divided).  qdiv first moves both series by the lowest key of the divisor,
and qlog and TaylorZ.log divide the degree-weighted series by the series,
each term then divided by its degree.  Over the rationals the recurrence is
fraction-free: the right-hand side and the steps are cleared of their
denominators once, each piece is carried as integer numerators over one
denominator and reduced by one gcd per degree, and each output coefficient
becomes one rational at the end.  Other coefficients, the Scalars of
tcore._rat (Cyclo, SqrtExt, TaylorZ), run through the same loop over the
denominator 1, added, multiplied and divided as they are.

Truncation bookkeeping is honest: multiplying series known through exponents
Ta and Tb with lowest terms la and lb yields a series known through
min(Ta + lb, Tb + la), never beyond.
"""

from __future__ import annotations

import math
import operator

from ._rat import QQ, RAT_ONE, RAT_ZERO, Scalar, is_rational, power, rat_str
from .cyclo import Cyclo
from .quadext import SqrtExt


def _as_exp2(order) -> int:
    """Doubled exponent from an int, or a Fraction whose denominator is 1 or 2."""
    if isinstance(order, int):
        return 2 * order
    if isinstance(order, QQ) and order.denominator <= 2:
        return int(2 * order)
    raise TypeError(f"expected an int or a half-integer Fraction, got {order!r}")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def check_int(name: str, x) -> None:
    """Reject a parameter of a public route that is not an int (nor a bool)."""
    if not _is_int(x):
        raise ValueError(f"{name} must be an int, not {type(x).__name__}")


def check_order(order) -> None:
    """Reject a truncation order that is not a nonnegative int, where a public
    route takes a whole power of Q."""
    check_int("order", order)
    if order < 0:
        raise ValueError("order must be nonnegative")


def check_half_order(order) -> int:
    """The doubled truncation order of a route that also takes a half-integer
    Fraction.

    Anything but a nonnegative int or a Fraction with denominator 1 or 2 is
    refused, as in check_order.
    """
    if not (_is_int(order) or isinstance(order, QQ) and order.denominator <= 2):
        raise ValueError(
            f"order must be an int or a half-integer Fraction, not {type(order).__name__}"
        )
    if order < 0:
        raise ValueError("order must be nonnegative")
    return _as_exp2(order)


def check_t(t) -> None:
    """Reject a core parameter t that is not an int of at least 2."""
    check_int("t", t)
    if t < 2:
        raise ValueError("t must be at least 2")


# the most steps a route takes, refused up front with its count: a step is
# one integer product or sum, of any height
_MAX_STEPS = 10**6


def _refusal(route: str, steps: int | str, detail: str) -> ValueError:
    return ValueError(
        f"{route} would take {steps} steps, more than the {_MAX_STEPS} it supports: {detail}"
    )


# ---------------------------------------------------------------------------
# coefficient domains


class _Domain:
    """A coefficient domain: ``name`` identifies it, ``zero`` and ``one`` are
    its constants, ``coerce`` brings a scalar into it and ``root(m, e)`` is
    zeta_m^e in it, for the m it holds the roots of.

    The coefficients of every domain but Q are Scalars (tcore._rat), and
    ``coerce`` is the coercion of the domain's own ``one``: a scalar of the
    same home passes, a foreign home is a ValueError and anything else the
    scalar cannot lift is a TypeError.
    """

    def coerce(self, x):
        c = self.one._coerce(x)
        if c is None:
            raise TypeError(f"cannot coerce {x!r} into {self.name}")
        return c

    def __eq__(self, other):
        return getattr(other, "name", None) == self.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name


class RationalDomain(_Domain):
    name = "Q"
    zero = RAT_ZERO
    one = RAT_ONE

    def coerce(self, x):
        """x as a rational; a field element with an irrational part is a ValueError."""
        if is_rational(x):
            return QQ(x)
        if isinstance(x, (Cyclo, SqrtExt)):
            return x.rational_value()
        raise TypeError(f"cannot coerce {x!r} into Q")

    def root(self, m: int, e: int):
        """zeta_m^e for m = 1 or 2, the roots of unity in Q."""
        if 2 % m:
            raise ValueError(f"zeta{m} is not rational")
        return RAT_ONE if (e * (2 // m)) % 2 == 0 else -RAT_ONE


QQ_DOMAIN = RationalDomain()


class CycloDomain(_Domain):
    def __init__(self, m: int):
        self.m = m
        self.name = f"Q(zeta{m})"
        self.zero = Cyclo.zero(m)
        self.one = Cyclo.one(m)

    def root(self, m: int, e: int) -> Cyclo:
        """zeta_m^e, for m dividing the conductor."""
        if self.m % m:
            raise ValueError(f"zeta{m} does not lie in {self.name}")
        return Cyclo.root(self.m, e * (self.m // m))


class TaylorDomain(_Domain):
    """Truncated polynomials in z over an inner scalar domain."""

    def __init__(self, inner, z_order: int):
        self.inner = inner
        self.z_order = z_order
        self.name = f"Taylor(z^{z_order};{inner.name})"
        self.zero = TaylorZ(self, (inner.zero,) * (z_order + 1))
        self.one = TaylorZ(self, (inner.one,) + (inner.zero,) * z_order)

    def __reduce__(self):  # its zero and one hold it: rebuilt, not copied
        return TaylorDomain, (self.inner, self.z_order)

    def root(self, m: int, e: int) -> "TaylorZ":
        return self.coerce(self.inner.root(m, e))


class TaylorZ(Scalar):
    """A polynomial in z truncated at z^z_order, dense coefficient tuple."""

    __slots__ = ("dom", "cs")
    _KIND = "Taylor domain"

    def __init__(self, dom: TaylorDomain, cs):
        cs = tuple(cs)
        if len(cs) != dom.z_order + 1:
            raise ValueError(f"need {dom.z_order + 1} coefficients, got {len(cs)}")
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cs", cs)

    @classmethod
    def exp_of(cls, dom: TaylorDomain, c) -> "TaylorZ":
        """exp(c*z) truncated, for a rational rate c."""
        c = QQ(c)
        cs, acc = [], RAT_ONE
        for k in range(dom.z_order + 1):
            cs.append(dom.inner.coerce(acc))
            acc = acc * c / (k + 1)
        return cls(dom, cs)

    @classmethod
    def variable(cls, dom: TaylorDomain) -> "TaylorZ":
        cs = [dom.inner.zero] * (dom.z_order + 1)
        if dom.z_order >= 1:
            cs[1] = dom.inner.one
        return cls(dom, cs)

    def coeff(self, k: int):
        return self.cs[k]

    @property
    def _home(self):
        return self.dom

    def _lift(self, x):
        """x constant in z, or None if the inner domain refuses it."""
        inner = self.dom.inner
        try:
            c = inner.coerce(x)
        except (TypeError, ValueError):
            return None
        return TaylorZ(self.dom, (c,) + (inner.zero,) * self.dom.z_order)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TaylorZ(self.dom, tuple(a + b for a, b in zip(self.cs, o.cs)))

    def __neg__(self):
        return self.map_coeffs(lambda a: -a)

    def __mul__(self, other):
        if is_rational(other):
            return self._times_constant(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        for a, b in ((self, o), (o, self)):
            if not any(b.cs[1:]):
                return a._times_constant(b.cs[0])
        # a power of z is its own degree, like an exponent of a QSeries
        terms = _product(
            self._terms(), o._terms(), self.dom.z_order, QSeries._degree, operator.add
        )
        return self._of(terms)

    def _times_constant(self, c) -> "TaylorZ":
        """self times a factor constant in z: one product per nonzero coefficient."""
        return self.map_coeffs(lambda a: a * c if a else a)

    def inverse(self) -> "TaylorZ":
        if not self.cs[0]:
            raise ZeroDivisionError("TaylorZ inverse needs a nonzero constant term")
        return self._of(self._under({0: {0: self.dom.inner.one}}, self.dom.z_order))

    def _terms(self) -> dict:
        """The nonzero coefficients, keyed by their power of z."""
        return {k: c for k, c in enumerate(self.cs) if c}

    def _of(self, terms: dict) -> "TaylorZ":
        """The element of this domain with the given coefficients by power of z."""
        zero = self.dom.inner.zero
        return TaylorZ(self.dom, [terms.get(k, zero) for k in range(self.dom.z_order + 1)])

    def log(self) -> "TaylorZ":
        """log of a series with constant term exactly 1, as the integral of f'/f."""
        if self.cs[0] != self.dom.inner.one:
            raise ValueError("TaylorZ log needs constant term 1")
        slope = {k - 1: {k - 1: c * k} for k, c in self._terms().items() if k}
        ratio = self._under(slope, self.dom.z_order - 1)
        return self._of({k + 1: c * QQ(1, k + 1) for k, c in ratio.items()})

    def _under(self, rhs: dict, t2: int) -> dict:
        """The terms through z^t2 of the series with the pieces rhs (one term
        each, keyed by its power of z) over self (_divided)."""
        pieces = {k: {k: c} for k, c in self._terms().items()}
        return _divided(rhs, pieces, t2, operator.add)

    def map_coeffs(self, f) -> "TaylorZ":
        return TaylorZ(self.dom, tuple(f(c) for c in self.cs))

    def __bool__(self):
        return any(self.cs)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.cs == o.cs

    def __hash__(self):
        return hash((self.dom.name, self.cs))

    def __repr__(self):
        bits = []
        for k, c in enumerate(self.cs):
            if not c:
                continue
            mono = "" if k == 0 else ("z" if k == 1 else f"z^{k}")
            bits.append(f"{c!r}{'*' if mono and k else ''}{mono}" if k else repr(c))
        return " + ".join(bits) if bits else "0"


# ---------------------------------------------------------------------------
# truncated series: the plumbing QSeries and BiSeries share


class _Series:
    """Exact coefficients on sparse keys, hard-truncated by degree.

    ``terms`` maps a key to a nonzero coefficient, and every key has degree
    at most ``trunc2`` (doubled, like every exponent here).  A subclass says
    how to read the degree of a key (``_degree``) and which key is the
    constant term (``_ORIGIN``); the ring plumbing here needs nothing else.
    Instances are immutable; operations return fresh objects.
    """

    __slots__ = ("dom", "trunc2", "terms")

    def __init__(self, dom, trunc2: int, terms: dict):
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "trunc2", int(trunc2))
        object.__setattr__(self, "terms", {k: c for k, c in terms.items() if c})
        if self.terms and max(map(self._degree, self.terms)) > self.trunc2:
            raise ValueError(self._OUTSIDE)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), (self.dom, self.trunc2, self.terms)

    @classmethod
    def zero(cls, dom, order):
        return cls(dom, _as_exp2(order), {})

    @classmethod
    def one(cls, dom, order):
        return cls(dom, _as_exp2(order), {cls._ORIGIN: dom.one})

    def _like(self, terms: dict, trunc2: int | None = None):
        """A series of the same kind and domain, by default on the same window."""
        return type(self)(self.dom, self.trunc2 if trunc2 is None else trunc2, terms)

    def _unit(self):
        """The series 1 on the window of self."""
        return self._like({self._ORIGIN: self.dom.one})

    def _low(self) -> int:
        """The lowest degree present, or trunc2 + 1 for the zero series."""
        return min(map(self._degree, self.terms), default=self.trunc2 + 1)

    def _window(self, other) -> int:
        """The degree through which the product with other is known.

        ``_times(other, t2)`` forms that product through any t2 at most
        this, and takes no pair product above t2.
        """
        return min(self.trunc2 + other._low(), other.trunc2 + self._low())

    def _times(self, other, t2: int):
        """The product with other through degree t2 (_product)."""
        return self._like(_product(self.terms, other.terms, t2, self._degree, self._shift), t2)

    def _over(self, other):
        """The quotient by other, whose constant term must be invertible, known
        through min(Ta, Tb + the lowest degree of self) (_divided)."""
        self._check_dom(other)
        if not other.terms.get(self._ORIGIN):
            raise ZeroDivisionError(
                f"{type(self).__name__} division needs an invertible constant term"
            )
        t2 = min(self.trunc2, other.trunc2 + self._low())
        pieces = _pieces(self.terms, self._degree), _pieces(other.terms, other._degree)
        terms = _divided(*pieces, t2, self._shift)
        return self._like(terms, t2)

    def __bool__(self):
        return bool(self.terms)

    def _check_dom(self, other):
        if self.dom != other.dom:
            raise ValueError(f"domain mismatch: {self.dom.name} vs {other.dom.name}")

    def _scalar(self, other):
        """other as a coefficient of the domain, or None if it is not one."""
        try:
            return self.dom.coerce(other)
        except (TypeError, ValueError):
            return None

    def _scaled(self, other, op):
        """Each coefficient v replaced by op(v, c) for the scalar c = other."""
        c = self._scalar(other)
        if c is None:
            return NotImplemented
        return self.map_coeffs(lambda v: op(v, c))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, type(self)):
            self._check_dom(other)
            t2 = min(self.trunc2, other.trunc2)
            deg = self._degree
            out = {k: c for k, c in self.terms.items() if deg(k) <= t2}
            for k, c in other.terms.items():
                if deg(k) <= t2:
                    out[k] = out.get(k, self.dom.zero) + c
            return self._like(out, t2)
        c = self._scalar(other)
        if c is None:
            return NotImplemented
        out = dict(self.terms)
        out[self._ORIGIN] = out.get(self._ORIGIN, self.dom.zero) + c
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self.map_coeffs(lambda c: -c)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return power(self, n, self._unit())

    # -- reshaping ---------------------------------------------------------

    def truncated(self, order):
        """The series cut to degree at most order (an int or a half-integer Fraction)."""
        return self._cut(_as_exp2(order))

    def _cut(self, t2: int):
        if t2 > self.trunc2:
            raise ValueError("cannot extend a truncated series")
        deg = self._degree
        return self._like({k: c for k, c in self.terms.items() if deg(k) <= t2}, t2)

    def map_coeffs(self, f, dom=None):
        return type(self)(dom or self.dom, self.trunc2, {k: f(c) for k, c in self.terms.items()})

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.dom == other.dom and self.trunc2 == other.trunc2 and self.terms == other.terms

    def __hash__(self):
        return hash((self.dom.name, self.trunc2, tuple(sorted(self.terms.items()))))


def _pieces(terms: dict, degree) -> dict:
    """Terms by degree, lowest first: {degree: {key: coefficient}}."""
    out: dict = {}
    for k in sorted(terms, key=degree):
        out.setdefault(degree(k), {})[k] = terms[k]
    return out


def _cleared(pieces: dict):
    """Pieces with rational coefficients as integer numerators over one
    denominator, (numerators, den); None if a coefficient is not rational."""
    dens = set()
    for piece in pieces.values():
        for c in piece.values():
            if isinstance(c, QQ):
                dens.add(c.denominator)
            elif not isinstance(c, int):
                return None
    den = math.lcm(*dens)
    return {
        d: {k: c.numerator * (den // c.denominator) for k, c in piece.items()}
        for d, piece in pieces.items()
    }, den


def _graded(rhs: dict, steps: dict, t2: int, shift, lead=1, by_degree=False, sigma=None) -> dict:
    """The pieces through degree t2 of the X whose piece of each degree d is
    X_d = (R_d + sum_(k>=1) S_k X_(d-k)) / (lead w_d), from the lowest degree
    of R, with w_d = d if by_degree (and d > 0), else 1: {d: (piece, den)}.

    rhs and steps hold the pieces of R and S by degree (_pieces), those of S
    in increasing degree from 1; shift adds two keys.  Given sigma, the loop
    is fraction-free: R is integer numerators, S integer numerators over
    sigma and lead an int, and X_d comes back as integer numerators over a
    positive den.  Its terms are summed over sigma times the lcm of the dens
    they read, and the piece is reduced by one gcd over its den and all its
    numerators, which keeps the heights those of the values.  Without sigma
    the coefficients are scalars of a domain, each piece is multiplied by
    1/(lead w_d) as it is, and every den is 1.
    """
    exact = sigma is not None
    inverse = None if exact or lead == 1 else 1 / lead
    low = min(rhs, default=t2 + 1)
    out: dict = {}
    for d in range(low, t2 + 1):
        used = []
        for k, step in steps.items():
            if k > d - low:
                break
            used.append((step, out[d - k]))
        acc = dict(rhs.get(d, ()))
        span = math.lcm(*[den for _, (_, den) in used]) if exact else 1
        base = sigma * span if exact else 1
        if base != 1:
            for key in acc:
                acc[key] *= base
        for step, (prev, den) in used:
            f = span // den
            for k1, c1 in step.items():
                if f != 1:
                    c1 *= f
                for k2, c2 in prev.items():
                    key = shift(k1, k2)
                    if key in acc:
                        acc[key] += c1 * c2
                    else:
                        acc[key] = c1 * c2
        w = d if by_degree and d else 1
        if exact:
            den = base * lead * w
            g = math.gcd(den, *acc.values())
            g = -g if den < 0 else g
            out[d] = ({key: c // g for key, c in acc.items() if c}, den // g)
            continue
        factor = inverse
        if w != 1:
            factor = QQ(1, w) if factor is None else factor * QQ(1, w)
        if factor is not None:
            acc = {key: c * factor for key, c in acc.items()}
        out[d] = ({key: c for key, c in acc.items() if c}, 1)
    return out


def _rationals(pieces: dict, top: int = 1, bottom: int = 1) -> dict:
    """The terms of the pieces of _graded: each integer numerator times top
    over its den times bottom, one rational per coefficient, or the scalar
    itself off the rationals."""
    out = {}
    for piece, den in pieces.values():
        for key, c in piece.items():
            out[key] = QQ(c * top, den * bottom) if isinstance(c, int) else c
    return out


def _product(a: dict, b: dict, t2: int, degree, shift) -> dict:
    """The terms of degree at most t2 of the product of two term dicts, with
    keys graded by degree and added by shift.

    The terms of b are walked by degree, so that no pair above t2 is
    multiplied.
    """
    right = sorted(((degree(k), k, w) for k, w in b.items()), key=operator.itemgetter(0))
    out: dict = {}
    for k1, v in a.items():
        room = t2 - degree(k1)
        for d, k2, w in right:
            if d > room:
                break
            key, c = shift(k1, k2), v * w
            out[key] = out[key] + c if key in out else c
    return out


def _divided(rhs: dict, den: dict, t2: int, shift) -> dict:
    """The terms through degree t2 of R/D, from the pieces of R and D by
    degree (_pieces), for D with an invertible constant piece {origin: c}:
    O_d = (R_d - sum_(k>=1) D_k O_(d-k)) / c, one degree at a time (_graded).

    Rational pieces are cleared once, R = r/rho and D = delta/sigma, so that
    the recurrence runs on the integers r and delta, its lead delta_0, and
    each coefficient becomes one rational, times sigma over rho.
    """
    cleared = _cleared(rhs), _cleared(den)
    exact = None not in cleared
    if exact:
        (rhs, rho), (den, sigma) = cleared
    (c0,) = den[0].values()
    steps = {k: {key: -c for key, c in piece.items()} for k, piece in den.items() if k}
    if not exact:
        return _rationals(_graded(rhs, steps, t2, shift, c0))
    return _rationals(_graded(rhs, steps, t2, shift, c0, sigma=1), sigma, rho)


def _check_positive(pieces: dict) -> None:
    if min(pieces, default=1) < 1:
        raise ValueError("the series needs a positive lowest degree beside its constant term")


# ---------------------------------------------------------------------------
# univariate Q-series


class QSeries(_Series):
    """Series in Q, exponents doubled, exact coefficients, hard truncation.

    A key is a doubled exponent and is its own degree; keys may be negative,
    as in a quotient by a series that starts above Q^0.
    """

    __slots__ = ()
    _ORIGIN = 0
    _OUTSIDE = "term exponent beyond the truncation order"

    _shift = staticmethod(operator.add)

    @staticmethod
    def _degree(e: int) -> int:
        return e

    @classmethod
    def monomial(cls, dom, coeff, exp, order) -> "QSeries":
        return cls(dom, _as_exp2(order), {_as_exp2(exp): dom.coerce(coeff)})

    # -- inspection --------------------------------------------------------

    def low2(self):
        """Lowest stored doubled exponent, or None for the zero series."""
        return min(self.terms) if self.terms else None

    def coeff(self, exp):
        """Coefficient of Q^exp (an int or a half-integer Fraction)."""
        return self.terms.get(_as_exp2(exp), self.dom.zero)

    def coeff2(self, exp2: int):
        return self.terms.get(exp2, self.dom.zero)

    # -- products ----------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return self._scaled(other, operator.mul)
        self._check_dom(other)
        return self._times(other, self._window(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QSeries):
            return qdiv(self, other)
        return self._scaled(other, operator.truediv)

    # -- reshaping ---------------------------------------------------------

    def shifted(self, exp) -> "QSeries":
        """Multiply by Q^exp (exact, shifts the truncation window too)."""
        d2 = _as_exp2(exp)
        return QSeries(self.dom, self.trunc2 + d2, {e + d2: c for e, c in self.terms.items()})

    # -- comparison and presentation ----------------------------------------

    def agrees_with(self, other: "QSeries", order=None) -> bool:
        """Equality of coefficients through the given order (or the shared one)."""
        t2 = min(self.trunc2, other.trunc2) if order is None else _as_exp2(order)
        if self.trunc2 < t2 or other.trunc2 < t2:
            raise ValueError("comparison order exceeds a truncation order")
        for e in set(self.terms) | set(other.terms):
            if e <= t2 and self.coeff2(e) != other.coeff2(e):
                return False
        return True

    def __repr__(self):
        bits = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mono = "" if e == 0 else ("Q" if e == 2 else f"Q^{rat_str(QQ(e, 2))}")
            cs = rat_str(c) if isinstance(c, QQ) else repr(c)
            bits.append(cs if not mono else f"({cs})*{mono}")
        body = " + ".join(bits) if bits else "0"
        return f"{body} + O(Q^{rat_str(QQ(self.trunc2 + 1, 2))})"


def qdiv(a: QSeries, b: QSeries) -> QSeries:
    """Series division a/b; the lowest term of b must be invertible.

    Both series are first moved by Q^(-v), v the lowest exponent of b, so
    that the divisor starts with its constant term.
    """
    a._check_dom(b)
    vb = b.low2()
    if vb is None:
        raise ZeroDivisionError("division by a series that is zero to its truncation order")
    move = QQ(-vb, 2)
    return a.shifted(move)._over(b.shifted(move))


def qlog(a):
    """log of a QSeries or BiSeries with constant term exactly 1.

    With D the degree operator (D Q^e = e Q^e on doubled exponents), D log f
    = D f / f, so the log is the quotient of the degree-weighted series by
    the series, with each term divided by its degree.
    """
    if a.terms.get(a._ORIGIN) != a.dom.one:
        raise ValueError("qlog needs constant term 1")
    deg = a._degree
    _check_positive({deg(k) for k in a.terms if k != a._ORIGIN})
    slope = a._like({k: c * deg(k) for k, c in a.terms.items()})
    ratio = slope / a
    return ratio._like({k: c / deg(k) for k, c in ratio.terms.items()})


def qexp(a):
    """exp of a QSeries or BiSeries with zero constant term.

    E = exp(L) solves D E = (D L) E for the degree operator D, so the piece
    of E of degree d is E_d = (1/d) sum_(k=1..d) k L_k E_(d-k), with E_0 = 1;
    each step multiplies pieces of one degree, through the window of a
    (_graded).  A rational L is cleared of its denominators once and the
    recurrence runs on integers, one rational per coefficient at the end.
    """
    if a.terms.get(a._ORIGIN):
        raise ValueError("qexp needs zero constant term")
    logs = _pieces(a.terms, a._degree)
    _check_positive(logs)
    logs, sigma = _cleared(logs) or (logs, None)
    slope = {k: {key: c * k for key, c in piece.items()} for k, piece in logs.items()}
    unit = {0: {a._ORIGIN: a.dom.one if sigma is None else 1}}
    pieces = _graded(unit, slope, a.trunc2, a._shift, by_degree=True, sigma=sigma)
    return a._like(_rationals(pieces))


# ---------------------------------------------------------------------------
# bivariate (Q, Q1) series, total-degree truncation


class BiSeries(_Series):
    """Series in (Q, Q1) with doubled exponents and a shared total cutoff.

    Keys are pairs (eQ2, eQ12) of nonnegative doubled exponents, and the
    degree of a key is eQ2 + eQ12.  The two variables mix through products
    like Q1*Q, which is why the grading is by total degree.
    """

    __slots__ = ()
    _ORIGIN = (0, 0)
    _OUTSIDE = "bivariate term outside the truncation simplex"

    @staticmethod
    def _degree(key) -> int:
        a, b = key
        # a negative exponent lies outside every truncation simplex
        return a + b if a >= 0 and b >= 0 else math.inf

    @staticmethod
    def _shift(k1, k2):
        return (k1[0] + k2[0], k1[1] + k2[1])

    @classmethod
    def monomial(cls, dom, coeff, expQ, expQ1, order) -> "BiSeries":
        key = (_as_exp2(expQ), _as_exp2(expQ1))
        return cls(dom, _as_exp2(order), {key: dom.coerce(coeff)})

    def coeff(self, expQ, expQ1):
        return self.terms.get((_as_exp2(expQ), _as_exp2(expQ1)), self.dom.zero)

    def __mul__(self, other):
        if not isinstance(other, BiSeries):
            return self._scaled(other, operator.mul)
        self._check_dom(other)
        return self._times(other, self._window(other))

    __rmul__ = __mul__

    def inverse(self) -> "BiSeries":
        return self._unit() / self

    def __truediv__(self, other):
        """The quotient one total degree at a time (_Series._over)."""
        if not isinstance(other, BiSeries):
            return self._scaled(other, operator.truediv)
        return self._over(other)

    def __repr__(self):
        bits = []
        for eq, e1 in sorted(self.terms):
            c = self.terms[(eq, e1)]
            mono = []
            if eq:
                mono.append("Q" if eq == 2 else f"Q^{rat_str(QQ(eq, 2))}")
            if e1:
                mono.append("Q1" if e1 == 2 else f"Q1^{rat_str(QQ(e1, 2))}")
            cs = rat_str(c) if is_rational(c) else repr(c)
            bits.append("*".join([f"({cs})"] + mono) if mono else cs)
        body = " + ".join(bits) if bits else "0"
        return f"{body} + O(total {rat_str(QQ(self.trunc2 + 1, 2))})"
