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
itself for a QSeries, the total a + b for a BiSeries.  Each keeps its own
product loop.  One helper, _compose, sums c_m u^m for a u without a
constant term; it serves qlog, qexp, TaylorZ.log and BiSeries.inverse.

Truncation bookkeeping is honest: multiplying series known through exponents
Ta and Tb with lowest terms la and lb yields a series known through
min(Ta + lb, Tb + la), never beyond.
"""

from __future__ import annotations

import math
import operator

from ._rat import QQ, RAT_ONE, RAT_ZERO, is_rational, power, rat_str
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

    A domain may also carry its own series kernels: ``mul_terms(a, b, t2)``
    and ``div_terms(a, b, vb, t2)`` return the terms of the truncated product
    and quotient of two term dicts, as the generic loops of QSeries and qdiv
    would, and QSeries then hands those loops to them.
    """

    mul_terms = None
    div_terms = None

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

    def coerce(self, x):
        if isinstance(x, Cyclo):
            if x.m != self.m:
                raise ValueError(f"conductor mismatch: {x.m} vs {self.m}")
            return x
        if is_rational(x):
            return Cyclo.from_rat(self.m, x)
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

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

    def coerce(self, x):
        if isinstance(x, TaylorZ):
            if x.dom != self:
                raise ValueError(f"Taylor domain mismatch: {x.dom.name} vs {self.name}")
            return x
        c = self.inner.coerce(x)
        return TaylorZ(self, (c,) + (self.inner.zero,) * self.z_order)

    def root(self, m: int, e: int) -> "TaylorZ":
        return self.coerce(self.inner.root(m, e))


class TaylorZ:
    """A polynomial in z truncated at z^z_order, dense coefficient tuple."""

    __slots__ = ("dom", "cs")

    def __init__(self, dom: TaylorDomain, cs):
        cs = tuple(cs)
        if len(cs) != dom.z_order + 1:
            raise ValueError(f"need {dom.z_order + 1} coefficients, got {len(cs)}")
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("TaylorZ is immutable")

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

    def _coerce(self, other):
        if isinstance(other, TaylorZ):
            if other.dom != self.dom:
                raise ValueError("Taylor domain mismatch")
            return other
        try:
            return self.dom.coerce(other)
        except TypeError:
            return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TaylorZ(self.dom, tuple(a + b for a, b in zip(self.cs, o.cs)))

    __radd__ = __add__

    def __neg__(self):
        return self.map_coeffs(lambda a: -a)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TaylorZ(self.dom, tuple(a - b for a, b in zip(self.cs, o.cs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if is_rational(other):
            return self._times_constant(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        for a, b in ((self, o), (o, self)):
            if not any(b.cs[1:]):
                return a._times_constant(b.cs[0])
        n = self.dom.z_order
        zero = self.dom.inner.zero
        out = [zero] * (n + 1)
        for i, a in enumerate(self.cs):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = o.cs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return TaylorZ(self.dom, out)

    __rmul__ = __mul__

    def _times_constant(self, c) -> "TaylorZ":
        """self times a factor constant in z: one product per nonzero coefficient."""
        return self.map_coeffs(lambda a: a * c if a else a)

    def inverse(self) -> "TaylorZ":
        c0 = self.cs[0]
        if not c0:
            raise ZeroDivisionError("TaylorZ inverse needs a nonzero constant term")
        n = self.dom.z_order
        inv0 = self.dom.inner.one / c0
        out = [inv0]
        for k in range(1, n + 1):
            acc = self.dom.inner.zero
            for j in range(1, k + 1):
                if self.cs[j]:
                    acc = acc + self.cs[j] * out[k - j]
            out.append(-acc * inv0)
        return TaylorZ(self.dom, out)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def log(self) -> "TaylorZ":
        """log of a series with constant term exactly 1 (finite sum in z)."""
        if self.cs[0] != self.dom.inner.one:
            raise ValueError("TaylorZ log needs constant term 1")
        return _compose(self - self.dom.one, _log_coeff, self.dom.zero)

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


def _compose(u, coeff, acc):
    """acc + sum_{m >= 1} coeff(m) * u^m, for u without a constant term.

    u is a _Series of lowest degree L >= 1 or a TaylorZ.  Each power is
    formed only through the window T of u, so no pair product above T is
    taken.  At most T // L powers are nonzero (z_order of them for a
    TaylorZ, whose products stop at z^z_order), the last of them is never
    multiplied again, and the sum ends early at an empty power.
    """
    if not u:
        return acc
    if isinstance(u, TaylorZ):
        window, top = None, u.dom.z_order
    else:
        window, low = u.trunc2, u._low()
        if low < 1:
            raise ValueError("the inner series needs a positive lowest degree")
        top = window // low
    p = u
    for m in range(1, top + 1):
        c = coeff(m)
        acc = acc + p.map_coeffs(lambda v: v * c)
        if m == top:
            break
        p = p * u if window is None else p._times(u, window)
        if not p:
            break
    return acc


def _log_coeff(m: int):
    """(-1)^(m+1)/m, the coefficient of u^m in log(1 + u)."""
    return QQ((-1) ** (m + 1), m)


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
        kernel = self.dom.mul_terms
        if kernel is not None:
            return QSeries(self.dom, t2, kernel(self.terms, other.terms, t2))
        out = {}
        zero = self.dom.zero
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                if e <= t2:
                    out[e] = out.get(e, zero) + c1 * c2
        return QSeries(self.dom, t2, out)

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
            cs = repr(c) if not isinstance(c, type(RAT_ZERO)) else rat_str(c)
            bits.append(cs if not mono else f"({cs})*{mono}")
        body = " + ".join(bits) if bits else "0"
        return f"{body} + O(Q^{HalfExp(self.trunc2 + 1)!r})"


def qdiv(a: QSeries, b: QSeries) -> QSeries:
    """Series division a/b; the lowest term of b must be invertible."""
    a._check_dom(b)
    vb = b.low2()
    if vb is None:
        raise ZeroDivisionError("division by a series that is zero to its truncation order")
    va = a._low()
    t2 = min(a.trunc2 - vb, b.trunc2 - 2 * vb + va)
    kernel = a.dom.div_terms
    if kernel is not None:
        return QSeries(a.dom, t2, kernel(a.terms, b.terms, vb, t2))
    cinv = a.dom.one / b.terms[vb]
    if not a.terms:
        return QSeries(a.dom, t2, {})
    rem = dict(a.terms)
    out = {}
    zero = a.dom.zero
    for e in range(va - vb, t2 + 1):
        ce = rem.get(e + vb, zero)
        if ce:
            q = ce * cinv
            out[e] = q
            for k, v in b.terms.items():
                if k == vb:
                    continue
                kk = e + k
                if kk <= t2 + vb:
                    rem[kk] = rem.get(kk, zero) - q * v
    return QSeries(a.dom, t2, out)


def qlog(a):
    """log of a QSeries or BiSeries with constant term exactly 1."""
    if a.terms.get(a._ORIGIN) != a.dom.one:
        raise ValueError("qlog needs constant term 1")
    return _compose(a - a.dom.one, _log_coeff, a._like({}))


def qexp(a):
    """exp of a QSeries or BiSeries with zero constant term."""
    if a.terms.get(a._ORIGIN):
        raise ValueError("qexp needs zero constant term")
    return _compose(a, lambda m: QQ(1, math.factorial(m)), a._unit())


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
        c0 = self.terms.get((0, 0), self.dom.zero)
        if not c0:
            raise ZeroDivisionError("BiSeries inverse needs an invertible constant term")
        c0inv = self.dom.one / c0
        # 1/(1 + u) = sum_m (-u)^m
        u = self * c0inv - self.dom.one
        return _compose(u, lambda m: (-1) ** m, self._unit()) * c0inv

    def __truediv__(self, other):
        if isinstance(other, BiSeries):
            return self * other.inverse()
        return self._scaled(other, operator.truediv)

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
