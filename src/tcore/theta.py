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
    QSeries,
    TaylorDomain,
    TaylorZ,
    _as_exp2,
    check_order,
    lift_series,
    qdiv,
    qexp,
    qlog,
)


# Fixed cache bounds.  bernoulli(n) stores n + 1 entries, and every weight
# in use stays far below the bound; one _log_theta_ratio entry serves one
# (t, r, l, order) of level_series.
_BERNOULLI_CACHE = 256
_LOG_RATIO_CACHE = 64


@lru_cache(maxsize=_BERNOULLI_CACHE)
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
    if isinstance(value, TaylorZ):
        return value.dom
    if is_rational(value):
        return QQ_DOMAIN
    raise TypeError(f"no coefficient domain for {value!r}")


@dataclass(frozen=True)
class ThetaArg:
    """An argument z with a branch of its square root.

    ``sqrt_value`` squares to ``value`` exactly and may be omitted for the
    series that never look at it.
    """

    value: object
    sqrt_value: object = None
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
    def scaled_root(cls, scale, t: int = 1, e: int = 0):
        """scale * xi_t^e with its square root, in the least cyclotomic home.

        |scale| must be a perfect square of a rational; the root of a
        negative scale picks up a quarter turn, which forces 4 | conductor.
        Conductor 2 collapses to plain rationals.
        """
        scale = QQ(scale)
        if scale == 0:
            raise ValueError("theta arguments must be nonzero")
        sigma = rational_sqrt(abs(scale))
        if sigma is None:
            raise ValueError(f"|scale| = {abs(scale)} is not a perfect square")
        m = 2 * t if scale > 0 else math.lcm(2 * t, 4)
        exp = (m // t) * e + (m // 2 if scale < 0 else 0)
        if m == 2:
            # conductor 2 is the rationals; the root of xi_2^(2e) is (-1)^e
            sqrt_sign = QQ(1) if (exp // 2) % 2 == 0 else QQ(-1)
            return cls(scale, sigma * sqrt_sign)
        value = Cyclo.root(m, exp) * sigma * sigma
        sqrt_value = Cyclo.root(m, exp // 2) * sigma
        return cls(value, sqrt_value)


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

    This is the triple-product quotient -z^(-1/2) j(z) / prod_{b>=1} (1-Q^b)^3:
    the minus sign is what d/dz of the (1-z) factor of j leaves behind.
    Both j and Jacobi's series for the cube are sparse.  The quotient equals
    (sqrt_z - 1/sqrt_z) prod_{b>=1} (1-zQ^b)(1-z^{-1}Q^b)/(1-Q^b)^2.
    """
    if arg.sqrt_value is None:
        raise ValueError("vartheta needs the square-root branch of its argument")
    check_order(order)
    dom = arg.dom
    order2 = _as_exp2(order)
    pref = -(dom.one / arg.sqrt_value)
    quotient = qdiv(_j_sum(dom, arg.value, order2), _euler_cube(dom, order2))
    return quotient.map_coeffs(lambda c: c * pref)


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


def _j_sum(dom, z, order2: int) -> QSeries:
    """sum_a (-z)^a Q^((a^2-a)/2), doubled-order truncation."""
    return _power_sum(dom, -z, order2, lambda a: a * (a - 1))


def jfunc(arg: ThetaArg, order) -> QSeries:
    """The Jacobi triple-product series sum_a (-z)^a Q^((a^2-a)/2).

    The sum equals the product prod (1-Q^b)(1-zQ^(b-1))(1-z^{-1}Q^b); the
    tests keep that product as an oracle.
    """
    check_order(order)
    return _j_sum(arg.dom, arg.value, _as_exp2(order))


def theta3(arg: ThetaArg, order) -> QSeries:
    """The symmetric theta series sum_a z^a Q^(a^2/2).

    Branch-free: only integer powers of z appear, so the argument needs no
    square root.  The sum equals the triple product
    prod (1-Q^b)(1+zQ^(b-1/2))(1+z^{-1}Q^(b-1/2)), which the tests keep as
    an oracle.
    """
    check_order(order)
    return _power_sum(arg.dom, arg.value, _as_exp2(order), lambda a: a * a)


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
    check_order(order)
    z = QQ(z)
    order2 = _as_exp2(order)
    wq2, wq12 = _as_exp2(weight[0]), _as_exp2(weight[1])
    d2 = wq2 + wq12
    if d2 <= 0:
        raise ValueError("the carried monomial must have positive total degree")
    log_terms = {}
    for m in range(1, order2 // d2 + 1):
        qm = rat_pow(q, -m)
        log_terms[(m * wq2, m * wq12)] = -rat_pow(z, m) * qm / ((1 - qm) ** 2 * m)
    return qexp(BiSeries(QQ_DOMAIN, order2, log_terms))


def eisenstein(k: int, order: int) -> QSeries:
    """The weight-2k Eisenstein series, constant term -B_2k/(4k)."""
    if k < 1:
        raise ValueError("the weight parameter must be at least 1")
    check_order(order)
    terms = {0: -bernoulli(2 * k) / (4 * k)}
    for n in range(1, order + 1):
        terms[2 * n] = divisor_power_sum(n, 2 * k - 1)
    return QSeries(QQ_DOMAIN, 2 * order, terms)


@lru_cache(maxsize=_LOG_RATIO_CACHE)
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
    return qlog(unipotent) + QSeries(tdom, ratio.trunc2, {0: head.log()})


def level_series(t: int, r: int, l: int, order: int) -> QSeries:
    """The weight-l series at level t and direction r, over Q(zeta_2t).

    Defined through log(vartheta(xi_t^r e^z)/vartheta(xi_t^r)) as l! times
    its z^l coefficient.
    """
    if l < 1:
        raise ValueError("the weight index must be at least 1")
    check_order(order)
    logratio = _log_theta_ratio(t, r, l, order)
    dom_c = CycloDomain(2 * t)
    fact = math.factorial(l)
    return logratio.map_coeffs(lambda tz: tz.coeff(l) * fact, dom_c)
