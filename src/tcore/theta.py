"""Truncated Q-expansions of the classical theta-like series.

The series here take their z-argument in an exact field: a rational, a
cyclotomic number, or a truncated exponential e^z with such coefficients.
A ThetaArg carries the argument together with an explicit square root, so
the odd half-power prefactor of vartheta is a choice the caller makes once
instead of a hidden branch cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from tcore._rat import QQ, is_rational, rat, rat_pow, rational_sqrt
from tcore.cyclo import Cyclo
from tcore.qseries import (
    QQ_DOMAIN,
    BiSeries,
    CycloDomain,
    HalfExp,
    QSeries,
    SqrtExtDomain,
    TaylorDomain,
    TaylorZ,
    _as_exp2,
    half,
    lift_series,
    qdiv,
    qlog,
)
from tcore.quadext import SqrtExt


@lru_cache(maxsize=None)
def bernoulli(n: int):
    """The n-th Bernoulli number (B_1 = -1/2), exact."""
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if n == 0:
        return QQ(1)
    acc = QQ(0)
    for j in range(n):
        acc = acc + QQ(math.comb(n + 1, j)) * bernoulli(j)
    return -acc / (n + 1)


def divisor_power_sum(n: int, k: int):
    """sigma_k(n): the sum of d^k over positive divisors d of n."""
    if n < 1:
        raise ValueError("divisor sums need a positive argument")
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            total += d**k
            e = n // d
            if e != d:
                total += e**k
    return QQ(total)


def _infer_domain(value):
    if isinstance(value, Cyclo):
        return CycloDomain(value.m)
    if isinstance(value, SqrtExt):
        return SqrtExtDomain(value.d)
    if isinstance(value, TaylorZ):
        return value.dom
    if is_rational(value):
        return QQ_DOMAIN
    raise TypeError(f"no coefficient domain for {value!r}")


@dataclass(frozen=True)
class ThetaArg:
    """An argument z (optionally times an integer power of Q) with a branch.

    ``sqrt_value`` squares to ``value`` exactly and may be omitted for the
    series that never look at it.  ``q_shift`` k means the argument is
    value * Q^k, which the sum-form evaluations absorb into exponents.
    """

    value: object
    sqrt_value: object = None
    q_shift: int = 0
    dom: object = None

    def __post_init__(self):
        if self.dom is None:
            object.__setattr__(self, "dom", _infer_domain(self.value))
        object.__setattr__(self, "value", self.dom.coerce(self.value))
        if not self.value:
            raise ValueError("theta arguments must be nonzero")
        if self.sqrt_value is not None:
            sq = self.dom.coerce(self.sqrt_value)
            object.__setattr__(self, "sqrt_value", sq)
            if sq * sq != self.value:
                raise ValueError("sqrt_value does not square to value")

    @classmethod
    def scaled_root(cls, scale, t: int = 1, e: int = 0, conductor: int | None = None):
        """scale * xi_t^e with its square root, in an explicit cyclotomic home.

        |scale| must be a perfect square of a rational; the root of a
        negative scale picks up a quarter turn, which forces 4 | conductor.
        Conductor 2 or below collapses to plain rationals.
        """
        scale = QQ(scale)
        if scale == 0:
            raise ValueError("theta arguments must be nonzero")
        sigma = rational_sqrt(abs(scale))
        if sigma is None:
            raise ValueError(f"|scale| = {abs(scale)} is not a perfect square")
        needed = 2 * t if scale > 0 else math.lcm(2 * t, 4)
        m = conductor if conductor is not None else needed
        if m % needed:
            raise ValueError(f"conductor {m} cannot hold xi_{t} roots of this sign")
        exp = (m // t) * e + (m // 2 if scale < 0 else 0)
        if m <= 2:
            # conductor 2 is the rationals; the root of xi_2^(2e) is (-1)^e
            sqrt_sign = QQ(1) if (exp // 2) % 2 == 0 else QQ(-1)
            return cls(scale, sigma * sqrt_sign)
        value = Cyclo.root(m, exp) * sigma * sigma
        sqrt_value = Cyclo.root(m, exp // 2) * sigma
        return cls(value, sqrt_value)

    def inverse_arg(self) -> "ThetaArg":
        """The argument 1/z with the branch 1/sqrt(z); Q-shift negated."""
        inv = self.dom.one / self.value
        sq = None if self.sqrt_value is None else self.dom.one / self.sqrt_value
        return ThetaArg(inv, sq, -self.q_shift, self.dom)


def _linear_factor(dom, coeff, exp2: int, order2: int, sign: int = -1) -> QSeries:
    """1 + sign * coeff * Q^(exp2/2), collapsing to 1 past the window."""
    one = QSeries.one(dom, HalfExp(order2))
    if exp2 > order2:
        return one
    mono = QSeries.monomial(dom, coeff, HalfExp(exp2), HalfExp(order2))
    return one + mono if sign > 0 else one - mono


def _euler_cube(dom, order2: int) -> QSeries:
    """prod_{b>=1} (1 - Q^b)^3 by Jacobi's sum of (-1)^n (2n+1) Q^(n(n+1)/2)."""
    terms = {}
    n = 0
    while n * (n + 1) <= order2:
        terms[n * (n + 1)] = dom.coerce((-1) ** n * (2 * n + 1))
        n += 1
    return QSeries(dom, order2, terms)


def vartheta(arg: ThetaArg, order) -> QSeries:
    """The odd theta series for the given argument and branch.

    With w = z Q^k the argument, this is the triple-product quotient
    -w^(-1/2) j(w) / prod_{b>=1} (1-Q^b)^3: the minus sign is what d/dz of
    the (1-z) factor of j leaves behind, and the Q^(-k/2) of w^(-1/2) shifts
    the result.  Both j and Jacobi's series for the cube are sparse.  At
    k = 0 the quotient equals (sqrt_z - 1/sqrt_z) times
    prod_{b>=1} (1-zQ^b)(1-z^{-1}Q^b)/(1-Q^b)^2.
    """
    if arg.sqrt_value is None:
        raise ValueError("vartheta needs the square-root branch of its argument")
    dom = arg.dom
    order2 = _as_exp2(order)
    k = arg.q_shift
    j = _j_sum(dom, arg.value, order2 + max(k, 0), k)
    # a negative lowest exponent of j eats into the window of the quotient
    cube = _euler_cube(dom, j.trunc2 - min(j._low_eff(), 0))
    pref = -(dom.one / arg.sqrt_value)
    series = qdiv(j, cube).map_coeffs(lambda c: c * pref)
    return series.shifted(half(-k)).truncated(order)


def _power_sum(dom, z, order2: int, exp2) -> QSeries:
    """sum over all integers a of z^a Q^(exp2(a)/2), exp2 a convex quadratic.

    Walks a = 0, 1, ... and a = -1, -2, ... until the exponent has passed
    its minimum and left the window; the powers of z come one product per
    term from z and a single inverse.
    """
    terms: dict[int, object] = {}
    inv = dom.one / z
    for a, step, power in ((0, z, dom.one), (-1, inv, inv)):
        da = 1 if a == 0 else -1
        prev = None
        while True:
            e2 = exp2(a)
            if e2 <= order2:
                terms[e2] = terms.get(e2, dom.zero) + power
            elif prev is not None and e2 > prev:
                break
            prev = e2
            power = power * step
            a += da
    return QSeries(dom, order2, terms)


def _j_sum(dom, z, order2: int, q_shift: int) -> QSeries:
    """sum_a (-z)^a Q^((a^2-a)/2 + a*q_shift), doubled-order truncation."""
    return _power_sum(dom, -z, order2, lambda a: a * (a - 1) + 2 * a * q_shift)


def jfunc(arg: ThetaArg, order, form: str = "sum") -> QSeries:
    """The Jacobi triple-product series, by sum or by product.

    The sum runs over the integers a with (-z)^a Q^((a^2-a)/2); the product
    form is prod (1-Q^b)(1-zQ^(b-1))(1-z^{-1}Q^b).  Both are implemented so
    the classical identity between them stays a checkable fact.
    """
    dom = arg.dom
    order2 = _as_exp2(order)
    if form == "sum":
        return _j_sum(dom, arg.value, order2, arg.q_shift)
    if form != "product":
        raise ValueError("form must be 'sum' or 'product'")
    if arg.q_shift != 0:
        raise ValueError("the product form is implemented for unshifted arguments")
    z = arg.value
    zi = dom.one / z
    bmax = order2 // 2 + 1
    out = QSeries.one(dom, HalfExp(order2))
    for b in range(1, bmax + 1):
        out = out * _linear_factor(dom, dom.one, 2 * b, order2)
        out = out * _linear_factor(dom, z, 2 * (b - 1), order2)
        out = out * _linear_factor(dom, zi, 2 * b, order2)
    return out


def theta3(arg: ThetaArg, order, form: str = "sum") -> QSeries:
    """The symmetric theta series sum_a z^a Q^(a^2/2).

    Branch-free: only integer powers of z appear, so the argument needs no
    square root.  The product form (an oracle, via the triple product) is
    prod (1-Q^b)(1+zQ^(b-1/2))(1+z^{-1}Q^(b-1/2)).
    """
    dom = arg.dom
    order2 = _as_exp2(order)
    if form == "sum":
        k = arg.q_shift
        return _power_sum(dom, arg.value, order2, lambda a: a * a + 2 * a * k)
    if form != "product":
        raise ValueError("form must be 'sum' or 'product'")
    if arg.q_shift != 0:
        raise ValueError("the product form is implemented for unshifted arguments")
    z = arg.value
    zi = dom.one / z
    bmax = order2 // 2 + 1
    out = QSeries.one(dom, HalfExp(order2))
    for b in range(1, bmax + 1):
        out = out * _linear_factor(dom, dom.one, 2 * b, order2)
        out = out * _linear_factor(dom, z, 2 * b - 1, order2, sign=1)
        out = out * _linear_factor(dom, zi, 2 * b - 1, order2, sign=1)
    return out


def _biexp(a: BiSeries) -> BiSeries:
    """exp of a bivariate series with zero constant term."""
    if a.coeff(0, 0):
        raise ValueError("exponentials need a vanishing constant term")
    low = min((k[0] + k[1] for k in a.terms), default=a.trunc2 + 1)
    out = BiSeries.one(a.dom, HalfExp(a.trunc2))
    term = BiSeries.one(a.dom, HalfExp(a.trunc2))
    kmax = a.trunc2 // max(low, 1) + 1
    for k in range(1, kmax + 1):
        term = term * a
        term = BiSeries(
            term.dom,
            min(term.trunc2, a.trunc2),
            {key: c for key, c in term.terms.items() if key[0] + key[1] <= a.trunc2},
        )
        out = out + term * rat(1, math.factorial(k))
        if not term:
            break
    return out


def macmahon(z, q, weight, order) -> BiSeries:
    """prod_{j>=1} (1 - z q^(-j) X)^j as a bivariate series.

    X = Q^weight[0] * Q1^weight[1] is the formal monomial the scalar z
    rides on; its positive total degree makes the truncation finite.  The
    product is evaluated through its logarithm, which collapses each power
    of X to the closed rational q^(-m)/(1-q^(-m))^2.
    """
    q = QQ(q)
    if abs(q) <= 1:
        raise ValueError("the base must satisfy |q| > 1")
    z = QQ(z)
    order2 = _as_exp2(order)
    wq2, wq12 = _as_exp2(weight[0]), _as_exp2(weight[1])
    d2 = wq2 + wq12
    if d2 <= 0:
        raise ValueError("the carried monomial must have positive total degree")
    log_m = BiSeries.zero(QQ_DOMAIN, HalfExp(order2))
    m = 1
    while m * d2 <= order2:
        qm = rat_pow(q, -m)
        coeff = -rat_pow(z, m) * qm / ((1 - qm) ** 2 * m)
        log_m = log_m + BiSeries.monomial(
            QQ_DOMAIN, coeff, HalfExp(m * wq2), HalfExp(m * wq12), HalfExp(order2)
        )
        m += 1
    return _biexp(log_m)


def macmahon_brute(z, q, weight, order, jmax: int) -> BiSeries:
    """Direct truncated product over j <= jmax, for truncation-stability tests."""
    q = QQ(q)
    z = QQ(z)
    order2 = _as_exp2(order)
    wq, wq1 = weight
    out = BiSeries.one(QQ_DOMAIN, HalfExp(order2))
    for j in range(1, jmax + 1):
        factor = BiSeries.one(QQ_DOMAIN, HalfExp(order2)) - BiSeries.monomial(
            QQ_DOMAIN, z * rat_pow(q, -j), wq, wq1, HalfExp(order2)
        )
        out = out * factor**j
        out = BiSeries(out.dom, min(out.trunc2, order2), {
            k: c for k, c in out.terms.items() if k[0] + k[1] <= order2
        })
    return out


def eisenstein(k: int, order: int) -> QSeries:
    """The weight-2k Eisenstein series, constant term -B_2k/(4k)."""
    if k < 1:
        raise ValueError("the weight parameter must be at least 1")
    terms = {0: -bernoulli(2 * k) / (4 * k)}
    for n in range(1, order + 1):
        terms[2 * n] = divisor_power_sum(n, 2 * k - 1)
    return QSeries(QQ_DOMAIN, 2 * order, terms)


@lru_cache(maxsize=None)
def _log_theta_ratio(t: int, r: int, z_order: int, order: int) -> QSeries:
    """log of vartheta(xi_t^r e^z) / vartheta(xi_t^r) as a (Q; z) series.

    Returned over Taylor(z; Q(zeta_2t)) with the Q-constant part carrying
    the z-expansion of the prefactor ratio.  The split works because the
    ratio is 1 + O(z, Q) after factoring out its Q-constant term, whose own
    constant term is exactly 1.
    """
    if r % t == 0:
        raise ValueError("the root must be a primitive direction: r not divisible by t")
    m = 2 * t
    dom_c = CycloDomain(m)
    tdom = TaylorDomain(dom_c, z_order)
    ez = TaylorZ.exp_of(tdom, 1)
    ez_half = TaylorZ.exp_of(tdom, rat(1, 2))
    xi = Cyclo.root(m, 2 * r)
    xi_h = Cyclo.root(m, r)
    arg_moving = ThetaArg(xi * ez, xi_h * ez_half, dom=tdom)
    arg_fixed = ThetaArg(xi, xi_h, dom=dom_c)
    num = vartheta(arg_moving, order)
    den = lift_series(vartheta(arg_fixed, order), tdom)
    ratio = qdiv(num, den)
    head = ratio.coeff(0)
    unipotent = ratio.map_coeffs(lambda c: c * head.inverse())
    return qlog(unipotent) + QSeries.monomial(tdom, head.log(), 0, HalfExp(ratio.trunc2))


def level_series(t: int, r: int, l: int, order: int) -> QSeries:
    """The weight-l series at level t and direction r, over Q(zeta_2t).

    Defined through log(vartheta(xi_t^r e^z)/vartheta(xi_t^r)) as l! times
    its z^l coefficient.
    """
    if l < 1:
        raise ValueError("the weight index must be at least 1")
    logratio = _log_theta_ratio(t, r, l, order)
    dom_c = CycloDomain(2 * t)
    fact = math.factorial(l)
    return logratio.map_coeffs(lambda tz: tz.coeff(l) * fact, dom_c)
