"""Truncated exact series arithmetic.

Three containers live here:

* QSeries  - univariate series in Q with half-integer exponents,
* BiSeries - bivariate series in (Q, Q1) truncated by total degree,
* TaylorZ  - truncated Taylor polynomials in a formal z.

Exponent convention: every Q-exponent is stored DOUBLED as a plain int
("exp2"), so Q^(3/2) lives at key 3 and Q^2 at key 4.  Half-integer powers
are pervasive here (theta sums carry Q^(a^2/2), the n-point weights carry
s^(1/2)), and doubling keeps the bookkeeping in integers.  Public entry
points accept either a plain int meaning a whole power of Q, or a HalfExp;
internal code passes doubled ints.

QSeries and BiSeries share one base, _Series, which holds the ring
plumbing (sums, negation, scaling, powers, truncation, equality and
hashing) and reads the degree of a key through the subclass: the key
itself for a QSeries, the total a + b for a BiSeries.

Two loops do the arithmetic of one variable for every coefficient domain:
_product, the truncated product of two term dicts, and _quotient, their
truncated quotient by schoolbook long division.  QSeries products, qdiv,
and the products, inverses and logarithms of TaylorZ all call them; only
BiSeries, whose keys are pairs, keeps its own product loop.  The loops add,
multiply and divide the coefficients as they are: plain rationals or the
Scalars of tcore._rat (Cyclo, SqrtExt, TaylorZ, Residue).

Exp and the division of a BiSeries are one graded recurrence over the
pieces of one degree each (_graded): qexp solves d E_d = sum_k k L_k E_(d-k),
and a BiSeries quotient is found one total degree at a time.  qlog is the
quotient of the degree-weighted series by the series, each term divided by
its degree.

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


class HalfExp:
    """An exponent n/2 stored as the integer n (twice the value)."""

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        object.__setattr__(self, "twice", int(twice))

    def __setattr__(self, name, value):
        raise AttributeError("HalfExp is immutable")

    def __add__(self, other):
        return HalfExp(self.twice + _as_exp2(other))

    __radd__ = __add__

    def __sub__(self, other):
        return HalfExp(self.twice - _as_exp2(other))

    def __neg__(self):
        return HalfExp(-self.twice)

    def __eq__(self, other):
        try:
            return self.twice == _as_exp2(other)
        except TypeError:
            return NotImplemented

    def __lt__(self, other):
        return self.twice < _as_exp2(other)

    def __le__(self, other):
        return self.twice <= _as_exp2(other)

    def __gt__(self, other):
        return self.twice > _as_exp2(other)

    def __ge__(self, other):
        return self.twice >= _as_exp2(other)

    def __hash__(self):
        return hash(("HalfExp", self.twice))

    def __repr__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def half(twice: int) -> HalfExp:
    """The exponent twice/2; half(3) is the exponent 3/2."""
    return HalfExp(twice)


def _as_exp2(order) -> int:
    """Doubled exponent from an int (whole power) or a HalfExp."""
    if isinstance(order, HalfExp):
        return order.twice
    if isinstance(order, int):
        return 2 * order
    raise TypeError(f"expected int or HalfExp, got {type(order).__name__}")


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
    """The doubled truncation order of a route that also takes a HalfExp.

    Anything but a nonnegative int or HalfExp is refused, as in check_order.
    """
    if not (_is_int(order) or isinstance(order, HalfExp)):
        raise ValueError(f"order must be an int or a HalfExp, not {type(order).__name__}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    return _as_exp2(order)


def check_t(t) -> None:
    """Reject a core parameter t that is not an int of at least 2."""
    check_int("t", t)
    if t < 2:
        raise ValueError("t must be at least 2")


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

    def root(self, m: int, e: int) -> "TaylorZ":
        return self.coerce(self.inner.root(m, e))


# ---------------------------------------------------------------------------
# the two series loops


def _product(dom, a: dict, b: dict, t2: int) -> dict:
    """The terms through key t2 of the product of two term dicts over dom.

    Each key from the lowest possible one, min(a) + min(b), through t2 gets
    one sum.  The terms of b are walked in key order, so that no pair above
    t2 is multiplied.
    """
    if not a or not b:
        return {}
    la, lb = min(a), min(b)
    base = la + lb
    size = t2 - base + 1
    if size <= 0:
        return {}
    sums = [dom.zero] * size
    right = sorted((k - lb, w) for k, w in b.items())
    for e, v in a.items():
        i = e - la
        for k, w in right:
            j = i + k
            if j >= size:
                break
            sums[j] += v * w
    return dict(zip(range(base, t2 + 1), sums))


def _quotient(dom, a: dict, b: dict, t2: int) -> dict:
    """The terms through key t2 of a/b for two term dicts over dom, b nonzero.

    Schoolbook long division from the lowest key of b, whose coefficient is
    inverted once: each quotient coefficient adds its product with the other
    terms of b, negated, to the remainders above it.
    """
    vb = min(b)
    inverse = dom.one / b[vb]
    if not a:
        return {}
    va = min(a)
    base = va - vb
    size = t2 - base + 1
    if size <= 0:
        return {}
    rem = [dom.zero] * size
    for e, v in a.items():
        if e - va < size:
            rem[e - va] = v
    # the other terms of b, negated, keyed by their distance from vb
    rest = sorted((k - vb, -w) for k, w in b.items() if k != vb)
    out = {}
    for i in range(size):
        if rem[i]:
            q = rem[i] * inverse
            out[base + i] = q
            for k, w in rest:
                j = i + k
                if j >= size:
                    break
                rem[j] += q * w
    return out


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
        """x constant in z, if the inner domain takes it."""
        inner = self.dom.inner
        try:
            c = inner.coerce(x)
        except TypeError:
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
        return self._of(_product(self.dom.inner, self._terms(), o._terms(), self.dom.z_order))

    def _times_constant(self, c) -> "TaylorZ":
        """self times a factor constant in z: one product per nonzero coefficient."""
        return self.map_coeffs(lambda a: a * c if a else a)

    def inverse(self) -> "TaylorZ":
        if not self.cs[0]:
            raise ZeroDivisionError("TaylorZ inverse needs a nonzero constant term")
        inner = self.dom.inner
        return self._of(_quotient(inner, {0: inner.one}, self._terms(), self.dom.z_order))

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
        slope = {k - 1: c * k for k, c in self._terms().items() if k}
        ratio = _quotient(self.dom.inner, slope, self._terms(), self.dom.z_order - 1)
        return self._of({k + 1: c * QQ(1, k + 1) for k, c in ratio.items()})

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
        """The series cut to degree at most order (an int or a HalfExp)."""
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


def _pieces(a) -> dict:
    """The terms of a series by degree, lowest first: {degree: {key: coefficient}}."""
    out: dict = {}
    for k in sorted(a.terms, key=a._degree):
        out.setdefault(a._degree(k), {})[k] = a.terms[k]
    return out


def _graded(rhs: dict, steps: dict, t2: int, shift, scale) -> dict:
    """The terms through degree t2 of the X whose piece of each degree d is
    X_d = scale(d) (R_d + sum_(k>=1) S_k X_(d-k)), from the lowest degree of R.

    rhs and steps hold the pieces of R and S by degree (_pieces), those of S
    in increasing degree from 1; shift adds two keys.
    """
    low = min(rhs, default=t2 + 1)
    out: dict = {}
    for d in range(low, t2 + 1):
        acc = dict(rhs.get(d, ()))
        for k, step in steps.items():
            if k > d - low:
                break
            for k1, c1 in step.items():
                for k2, c2 in out[d - k].items():
                    key, c = shift(k1, k2), c1 * c2
                    acc[key] = acc[key] + c if key in acc else c
        factor = scale(d)
        out[d] = {key: c * factor for key, c in acc.items() if c}
    return {k: c for piece in out.values() for k, c in piece.items()}


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
        """Coefficient of Q^exp (int or HalfExp)."""
        return self.terms.get(_as_exp2(exp), self.dom.zero)

    def coeff2(self, exp2: int):
        return self.terms.get(exp2, self.dom.zero)

    # -- products ----------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return self._scaled(other, operator.mul)
        self._check_dom(other)
        return self._times(other, self._window(other))

    def _times(self, other: "QSeries", t2: int) -> "QSeries":
        return QSeries(self.dom, t2, _product(self.dom, self.terms, other.terms, t2))

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

    def substituted_power(self, d: int) -> "QSeries":
        """Replace Q by Q^d (d >= 1)."""
        return QSeries(self.dom, self.trunc2 * d, {e * d: c for e, c in self.terms.items()})

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
            mono = "" if e == 0 else ("Q" if e == 2 else f"Q^{HalfExp(e)!r}")
            cs = rat_str(c) if isinstance(c, QQ) else repr(c)
            bits.append(cs if not mono else f"({cs})*{mono}")
        body = " + ".join(bits) if bits else "0"
        return f"{body} + O(Q^{HalfExp(self.trunc2 + 1)!r})"


def qdiv(a: QSeries, b: QSeries) -> QSeries:
    """Series division a/b; the lowest term of b must be invertible."""
    a._check_dom(b)
    vb = b.low2()
    if vb is None:
        raise ZeroDivisionError("division by a series that is zero to its truncation order")
    t2 = min(a.trunc2 - vb, b.trunc2 - 2 * vb + a._low())
    return QSeries(a.dom, t2, _quotient(a.dom, a.terms, b.terms, t2))


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
    each step multiplies pieces of one degree, through the window of a.
    """
    if a.terms.get(a._ORIGIN):
        raise ValueError("qexp needs zero constant term")
    logs = _pieces(a)
    _check_positive(logs)
    steps = {k: {key: c * k for key, c in piece.items()} for k, piece in logs.items()}
    unit = {0: {a._ORIGIN: a.dom.one}}
    return a._like(_graded(unit, steps, a.trunc2, a._shift, lambda d: QQ(1, d) if d else 1))


def lift_series(a: QSeries, dom) -> QSeries:
    """Re-home a series into a larger coefficient domain."""
    return a.map_coeffs(dom.coerce, dom)


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

    def _times(self, other: "BiSeries", t2: int) -> "BiSeries":
        out = {}
        zero = self.dom.zero
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                ta, tb = a1 + a2, b1 + b2
                if ta + tb <= t2:
                    key = (ta, tb)
                    out[key] = out.get(key, zero) + c1 * c2
        return BiSeries(self.dom, t2, out)

    __rmul__ = __mul__

    def inverse(self) -> "BiSeries":
        return self._unit() / self

    def __truediv__(self, other):
        """The quotient one total degree at a time: O_d = (A_d - sum_(k>=1)
        B_k O_(d-k)) / B_0, known through min(Ta, Tb + the lowest degree of A)."""
        if not isinstance(other, BiSeries):
            return self._scaled(other, operator.truediv)
        self._check_dom(other)
        c0 = other.terms.get(self._ORIGIN)
        if not c0:
            raise ZeroDivisionError("BiSeries division needs an invertible constant term")
        inverse = self.dom.one / c0
        t2 = min(self.trunc2, other.trunc2 + self._low())
        steps = {k: {key: -c for key, c in p.items()} for k, p in _pieces(other).items() if k}
        terms = _graded(_pieces(self), steps, t2, self._shift, lambda d: inverse)
        return BiSeries(self.dom, t2, terms)

    def __repr__(self):
        bits = []
        for eq, e1 in sorted(self.terms):
            c = self.terms[(eq, e1)]
            mono = []
            if eq:
                mono.append("Q" if eq == 2 else f"Q^{HalfExp(eq)!r}")
            if e1:
                mono.append("Q1" if e1 == 2 else f"Q1^{HalfExp(e1)!r}")
            cs = rat_str(c) if is_rational(c) else repr(c)
            bits.append("*".join([f"({cs})"] + mono) if mono else cs)
        body = " + ".join(bits) if bits else "0"
        return f"{body} + O(total {HalfExp(self.trunc2 + 1)!r})"
