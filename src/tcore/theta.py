"""Truncated Q-expansions of the classical theta-like series.

The series here take their z-argument in an exact field: a rational, a
cyclotomic number, or a truncated exponential e^z with such coefficients.
A ThetaArg carries the argument together with an explicit square root, so
the odd half-power prefactor of vartheta is a choice the caller makes once
instead of a hidden branch cut.
"""

from __future__ import annotations

import math

from tcore._rat import QQ, Record, is_rational, rat, rat_pow, rational_sqrt
from tcore.cyclo import Cyclo
from tcore.qseries import (
    QQ_DOMAIN,
    BiSeries,
    CycloDomain,
    QSeries,
    TaylorZ,
    _as_exp2,
    check_half_order,
    check_int,
    check_order,
    check_t,
    qdiv,
    qexp,
)


def bernoulli_numbers(top: int) -> list:
    """B_0 .. B_top (B_1 = -1/2), exact, in about top^2/8 integer steps.

    The odd numbers past B_1 vanish, and B_2k = (-1)^(k-1) 2k T_k /
    (4^k (4^k - 1)), with T_k the tangent numbers, the integers of
    tan x = sum_k T_k x^(2k-1) / (2k - 1)!.  They are built in place by
    Brent and Harvey's recurrence (Fast computation of Bernoulli, tangent
    and secant numbers, 2011, Algorithm TangentNumbers).
    """
    if top < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    half = top // 2
    tangent = [0, 1] + [0] * (half - 1)
    for k in range(2, half + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    out = [QQ(1), QQ(-1, 2)][:top + 1] + [QQ(0)] * (top - 1)
    for k in range(1, half + 1):
        four = 4**k
        out[2 * k] = QQ((-1) ** (k - 1) * 2 * k * tangent[k], four * (four - 1))
    return out


def bernoulli(n: int):
    """The n-th Bernoulli number (B_1 = -1/2), exact (bernoulli_numbers)."""
    return bernoulli_numbers(n)[n]


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


class ThetaArg(Record):
    """An argument z with a branch of its square root.

    ``sqrt_value`` squares to ``value`` exactly and may be omitted for the
    series that never look at it.
    """

    __slots__ = ("value", "sqrt_value", "dom")

    def __init__(self, value: object, sqrt_value: object = None, dom: object = None):
        if dom is None:
            dom = _infer_domain(value)
        value = dom.coerce(value)
        if not value:
            raise ValueError("theta arguments must be nonzero")
        if sqrt_value is not None:
            sqrt_value = dom.coerce(sqrt_value)
            if sqrt_value * sqrt_value != value:
                raise ValueError("sqrt_value does not square to value")
        self._set(value, sqrt_value, dom)

    @classmethod
    def scaled_root(cls, scale, t: int = 1, e: int = 0, dom=None):
        """scale * xi_t^e with its square root, in the least cyclotomic home.

        |scale| must be a perfect square of a rational; the root of a
        negative scale picks up a quarter turn, which forces 4 | conductor.
        Conductor 2 collapses to plain rationals.  A given ``dom`` takes the
        roots of unity from its ``root`` hook instead.
        """
        scale = QQ(scale)
        if scale == 0:
            raise ValueError("theta arguments must be nonzero")
        sigma = rational_sqrt(abs(scale))
        if sigma is None:
            raise ValueError(f"|scale| = {abs(scale)} is not a perfect square")
        m = 2 * t if scale > 0 else math.lcm(2 * t, 4)
        exp = (m // t) * e + (m // 2 if scale < 0 else 0)
        if dom is None:
            dom = QQ_DOMAIN if m == 2 else CycloDomain(m)
        return cls(dom.root(m, exp) * abs(scale), dom.root(m, exp // 2) * sigma, dom=dom)


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
    order2 = check_half_order(order)
    dom = arg.dom
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
    """The Jacobi triple-product series sum_a (-z)^a Q^((a^2-a)/2), through the
    doubled order order2.

    The sum equals the product prod (1-Q^b)(1-zQ^(b-1))(1-z^{-1}Q^b); the
    tests keep that product as an oracle.
    """
    return _power_sum(dom, -z, order2, lambda a: a * (a - 1))


def theta3(arg: ThetaArg, order) -> QSeries:
    """The symmetric theta series sum_a z^a Q^(a^2/2).

    Branch-free: only integer powers of z appear, so the argument needs no
    square root.  The sum equals the triple product
    prod (1-Q^b)(1+zQ^(b-1/2))(1+z^{-1}Q^(b-1/2)), which the tests keep as
    an oracle.
    """
    return _power_sum(arg.dom, arg.value, check_half_order(order), lambda a: a * a)


def macmahon(z, q, weight, order) -> BiSeries:
    """prod_{j>=1} (1 - z q^(-j) X)^j as a bivariate series.

    X = Q^weight[0] * Q1^weight[1] is the formal monomial the scalar z
    rides on; its positive total degree makes the truncation finite.  The
    product is the exp of its logarithm (_macmahon_log).
    """
    q = QQ(q)
    if abs(q) <= 1:
        raise ValueError("the base must satisfy |q| > 1")
    order2 = check_half_order(order)
    wq2, wq12 = _as_exp2(weight[0]), _as_exp2(weight[1])
    if wq2 + wq12 <= 0:
        raise ValueError("the carried monomial must have positive total degree")
    return qexp(BiSeries(QQ_DOMAIN, order2, _macmahon_log(QQ(z), q, wq2, wq12, order2)))


def _macmahon_log(z, q, wq2: int, wq12: int, order2: int) -> dict:
    """The log of prod_(j>=1) (1 - z q^(-j) X)^j through total degree order2,
    for X = Q^(wq2/2) Q1^(wq12/2) (doubled exponents, wq2 + wq12 > 0): the
    sum over j collapses the coefficient of X^m to -z^m q^(-m)/((1-q^(-m))^2 m).
    """
    out = {}
    for m in range(1, order2 // (wq2 + wq12) + 1):
        qm = rat_pow(q, -m)
        out[(m * wq2, m * wq12)] = -rat_pow(z, m) * qm / ((1 - qm) ** 2 * m)
    return out


def eisenstein(k: int, order: int) -> QSeries:
    """The weight-2k Eisenstein series, constant term -B_2k/(4k)."""
    if k < 1:
        raise ValueError("the weight parameter must be at least 1")
    check_order(order)
    terms = {0: -bernoulli(2 * k) / (4 * k)}
    for n in range(1, order + 1):
        terms[2 * n] = divisor_power_sum(n, 2 * k - 1)
    return QSeries(QQ_DOMAIN, 2 * order, terms)


def level_series(t: int, r: int, l: int, order: int) -> QSeries:
    """The weight-l series at level t and direction r, over Q(zeta_2t).

    l! times the z^l coefficient of log(vartheta(xi e^z)/vartheta(xi)), with
    xi = xi_t^r.  By the triple product, at x = xi e^z that logarithm is

        log((x^(1/2) - x^(-1/2)) / (xi^(1/2) - xi^(-1/2)))
            - sum_{b, k >= 1} (x^k - xi^k + x^(-k) - xi^(-k)) Q^(bk) / k,

    so the Q^N coefficient, N >= 1, is the divisor sum
    -sum_{k | N} k^(l-1) (xi^k + (-1)^l xi^(-k)), and the Q^0 term is l! times
    the z^l coefficient of the first logarithm.
    """
    check_t(t)
    check_int("r", r)
    check_int("l", l)
    if l < 1:
        raise ValueError("the weight index must be at least 1")
    check_order(order)
    if r % t == 0:
        raise ValueError("the root must be a primitive direction: r not divisible by t")
    m = 2 * t
    dom = CycloDomain(m)
    # the weight of each power zeta_2t^e in each coefficient Q^N
    weights = [[0] * m for _ in range(order + 1)]
    sign = (-1) ** l
    for k in range(1, order + 1):
        w = k ** (l - 1)
        up = 2 * r * k % m
        for n in range(k, order + 1, k):
            weights[n][up] -= w
            weights[n][-up % m] -= sign * w
    terms = {2 * n: Cyclo.from_powers(m, weights[n]) for n in range(1, order + 1)}
    terms[0] = _prefactor_term(t, r, l)
    return QSeries(dom, 2 * order, terms)


def _prefactor_term(t: int, r: int, l: int) -> Cyclo:
    """l! times the z^l coefficient of log((x^(1/2) - x^(-1/2)) / (xi^(1/2) - xi^(-1/2))),
    x = xi e^z, xi = xi_t^r (either branch gives the same ratio).

    The z-derivative of that logarithm is 1/2 + 1/(x - 1).  For xi of order
    n, 1/(x - 1) = sum_(j<n) xi^j e^(jz) / (e^(nz) - 1), and the generating
    function of the Bernoulli polynomials, w e^(yw) / (e^w - 1) =
    sum_k B_k(y) w^k / k!, at w = nz makes the term

        [l = 1]/2 + (n^(l-1)/l) sum_(j<n) B_l(j/n) xi^j,

    with B_l(y) = sum_k C(l, k) B_k y^(l-k).  The pole of each e^(jz)/(e^(nz) - 1)
    cancels from the sum, since the powers of xi != 1 sum to zero.
    """
    m = 2 * t
    n = t // math.gcd(r, t)  # the order of xi_t^r
    scale = rat(n ** (l - 1), l)
    coeffs = [scale * math.comb(l, k) * b for k, b in enumerate(bernoulli_numbers(l))]
    weights = [rat(1, 2) if l == 1 else 0] + [0] * (m - 1)
    for j in range(n):
        y = rat(j, n)
        weights[2 * r * j % m] += sum(c * y ** (l - k) for k, c in enumerate(coeffs))
    return Cyclo.from_powers(m, weights)
