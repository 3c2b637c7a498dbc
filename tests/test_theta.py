"""Theta-like series: product vs sum forms, transformations, Eisenstein."""

import math
import subprocess
import sys
from pathlib import Path

import pytest

from tcore import theta
from tcore._rat import QQ, rat, rat_pow
from tcore.cyclo import Cyclo
from tcore.qseries import (
    QQ_DOMAIN,
    BiSeries,
    CycloDomain,
    QSeries,
    TaylorDomain,
    TaylorZ,
    qdiv,
    qlog,
)
from tcore.theta import (
    ThetaArg,
    _euler_cube,
    bernoulli,
    divisor_power_sum,
    eisenstein,
    level_series,
    macmahon,
    theta3,
    vartheta,
)

from series_oracle import lift_series, substituted_power

SRC = Path(__file__).resolve().parent.parent / "src"
RZ4 = ThetaArg(QQ(4), QQ(2))


def vartheta_product(arg, order):
    """The product-form oracle for vartheta at an unshifted argument.

    (sqrt_z - 1/sqrt_z) prod_{b<=order} (1-zQ^b)(1-z^{-1}Q^b)/(1-Q^b)^2,
    exact to the requested order because the b-th factor only touches
    exponents >= b.
    """
    dom = arg.dom
    one = QSeries.one(dom, order)
    zi = dom.one / arg.value
    num, den = one, one
    for b in range(1, one.trunc2 // 2 + 1):
        num = num * (one - QSeries.monomial(dom, arg.value, b, order))
        num = num * (one - QSeries.monomial(dom, zi, b, order))
        euler = one - QSeries.monomial(dom, dom.one, b, order)
        den = den * euler * euler
    pref = arg.sqrt_value - dom.one / arg.sqrt_value
    return qdiv(num, den).map_coeffs(lambda c: c * pref)


def _linear_factor(dom, coeff, exp2: int, order2: int, sign: int = -1) -> QSeries:
    """1 + sign * coeff * Q^(exp2/2), collapsing to 1 past the window."""
    one = QSeries.one(dom, QQ(order2, 2))
    if exp2 > order2:
        return one
    mono = QSeries.monomial(dom, coeff, QQ(exp2, 2), QQ(order2, 2))
    return one + mono if sign > 0 else one - mono


def jfunc_product(arg, order):
    """The product-form oracle prod (1-Q^b)(1-zQ^(b-1))(1-z^{-1}Q^b) of the
    Jacobi triple-product sum theta._j_sum."""
    dom, z = arg.dom, arg.value
    order2 = 2 * order
    out = QSeries.one(dom, order)
    for b in range(1, order + 2):
        out = out * _linear_factor(dom, dom.one, 2 * b, order2)
        out = out * _linear_factor(dom, z, 2 * (b - 1), order2)
        out = out * _linear_factor(dom, dom.one / z, 2 * b, order2)
    return out


def theta3_product(arg, order):
    """The product-form oracle prod (1-Q^b)(1+zQ^(b-1/2))(1+z^{-1}Q^(b-1/2))."""
    dom, z = arg.dom, arg.value
    order2 = 2 * order
    out = QSeries.one(dom, order)
    for b in range(1, order + 2):
        out = out * _linear_factor(dom, dom.one, 2 * b, order2)
        out = out * _linear_factor(dom, z, 2 * b - 1, order2, sign=1)
        out = out * _linear_factor(dom, dom.one / z, 2 * b - 1, order2, sign=1)
    return out


def macmahon_brute(z, q, weight, order, jmax: int) -> BiSeries:
    """The direct product over j <= jmax, the truncation oracle for macmahon."""
    q = QQ(q)
    z = QQ(z)
    order2 = 2 * order
    wq, wq1 = weight
    out = BiSeries.one(QQ_DOMAIN, order)
    for j in range(1, jmax + 1):
        factor = BiSeries.one(QQ_DOMAIN, order) - BiSeries.monomial(
            QQ_DOMAIN, z * rat_pow(q, -j), wq, wq1, order
        )
        out = out * factor**j
        out = BiSeries(out.dom, min(out.trunc2, order2), {
            k: c for k, c in out.terms.items() if k[0] + k[1] <= order2
        })
    return out


def _oracle_args():
    tdom = TaylorDomain(CycloDomain(6), 2)
    xi, xi_h = Cyclo.root(6, 2), Cyclo.root(6, 1)
    moving = ThetaArg(
        xi * TaylorZ.exp_of(tdom, 1), xi_h * TaylorZ.exp_of(tdom, rat(1, 2)), dom=tdom
    )
    args = [RZ4, ThetaArg(rat(9, 4), rat(-3, 2)), ThetaArg(rat(4, 25), rat(2, 5)),
            ThetaArg.scaled_root(-4), moving]
    for t in range(2, 6):
        args += [ThetaArg.scaled_root(QQ(1), t=t, e=e) for e in range(1, t)]
        args.append(ThetaArg.scaled_root(rat(25, 16), t=t, e=1))
    return args


def test_bernoulli_frozen():
    assert bernoulli(0) == 1
    assert bernoulli(1) == rat(-1, 2)
    assert bernoulli(2) == rat(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == rat(-1, 30)
    assert bernoulli(12) == rat(-691, 2730)


def test_divisor_power_sum_frozen():
    assert divisor_power_sum(1, 3) == 1
    assert divisor_power_sum(2, 3) == 9
    assert divisor_power_sum(6, 1) == 12


def test_theta_arg_validation():
    with pytest.raises(ValueError):
        ThetaArg(QQ(4), QQ(3))
    with pytest.raises(ValueError):
        ThetaArg(QQ(0), QQ(0))
    with pytest.raises(ValueError):
        ThetaArg.scaled_root(rat(3, 2))


def test_scaled_root_constructions():
    pos = ThetaArg.scaled_root(rat(9, 4))
    assert pos.value == rat(9, 4) and pos.sqrt_value == rat(3, 2)
    neg = ThetaArg.scaled_root(-4)
    assert neg.dom == CycloDomain(4)
    assert neg.value == Cyclo.from_rat(4, -4)
    assert neg.sqrt_value == Cyclo.root(4, 1) * 2
    rooted = ThetaArg.scaled_root(4, t=3, e=1)
    assert rooted.dom == CycloDomain(6)
    assert rooted.value == Cyclo.root(6, 2) * 4
    assert rooted.sqrt_value * rooted.sqrt_value == rooted.value


def test_vartheta_at_one_vanishes():
    arg = ThetaArg(QQ(1), QQ(1))
    assert not vartheta(arg, 6)
    # the other branch of sqrt(1) vanishes as well
    assert not vartheta(ThetaArg(QQ(1), QQ(-1)), 6)


def test_vartheta_first_order():
    # (sqrt_z - 1/sqrt_z)(1 + (2 - z - 1/z)Q + ...)
    s = vartheta(RZ4, 1)
    pref = rat(3, 2)
    assert s.coeff(0) == pref
    assert s.coeff(1) == pref * (2 - 4 - rat(1, 4))


def test_vartheta_product_matches_sum_route():
    # every order from 0 to 12 in steps of 1/2, so a result that is not
    # honest about its own truncation shows as well
    for arg in _oracle_args():
        oracle = vartheta_product(arg, 12)
        for order2 in range(25):
            assert vartheta(arg, QQ(order2, 2)) == oracle.truncated(QQ(order2, 2)), (arg, order2)


def test_euler_cube_is_jacobi_series():
    one = QSeries.one(QQ_DOMAIN, 30)
    prod = one
    for b in range(1, 31):
        prod = prod * (one - QSeries.monomial(QQ_DOMAIN, 1, b, 30)) ** 3
    for order2 in (0, 1, 12, 60):
        assert _euler_cube(QQ_DOMAIN, order2) == prod.truncated(QQ(order2, 2))


def test_theta3_half_order():
    arg = ThetaArg(QQ(3))
    s = theta3(arg, QQ(1, 2))
    assert s.coeff(0) == 1
    assert s.coeff2(1) == 3 + rat(1, 3)


def test_theta3_sum_equals_product():
    z = Cyclo.root(6, 2) * rat(3, 2)
    arg = ThetaArg(z)
    assert theta3(arg, 8) == theta3_product(arg, 8)


def test_theta3_frozen_support():
    # only square half-exponents a^2/2 appear, with coefficient z^a + z^(-a)
    s = theta3(ThetaArg(QQ(5)), 5)
    assert s.coeff2(0) == 1
    assert s.coeff2(1) == 5 + rat(1, 5)
    assert s.coeff2(4) == 25 + rat(1, 25)
    assert s.coeff2(9) == 125 + rat(1, 125)
    assert all(e in (0, 1, 4, 9) for e in s.terms)


def test_jacobi_triple_product():
    for z in (QQ(2), rat(-3, 2)):
        arg = ThetaArg(z)
        assert theta._j_sum(arg.dom, z, 20) == jfunc_product(arg, 10), z
    zc = Cyclo.root(3, 1)
    arg = ThetaArg(zc)
    assert theta._j_sum(arg.dom, zc, 20) == jfunc_product(arg, 10)


def test_vartheta_derivative_at_one():
    # d/dz of vartheta(e^z) at z = 0 has Q-expansion exactly 1
    tdom = TaylorDomain(QQ_DOMAIN, 1)
    ez = TaylorZ.exp_of(tdom, 1)
    ez_half = TaylorZ.exp_of(tdom, rat(1, 2))
    s = vartheta(ThetaArg(ez, ez_half, dom=tdom), 8)
    deriv = s.map_coeffs(lambda tz: tz.coeff(1), QQ_DOMAIN)
    assert deriv == QSeries.one(QQ_DOMAIN, 8)


def test_vartheta_inverse_argument_is_odd():
    arg = RZ4
    flipped = ThetaArg(arg.dom.one / arg.value, arg.dom.one / arg.sqrt_value, dom=arg.dom)
    a = vartheta(arg, 6)
    b = vartheta(flipped, 6)
    assert b == a.map_coeffs(lambda c: -c)


def test_eisenstein_frozen():
    e2 = eisenstein(1, 10)
    assert e2.coeff(0) == rat(-1, 24)
    assert e2.coeff(1) == 1
    assert e2.coeff(2) == 3
    e4 = eisenstein(2, 10)
    assert e4.coeff(0) == rat(1, 240)
    assert e4.coeff(2) == 9


def test_macmahon_closed_form_first_order():
    m = macmahon(1, 2, (0, 1), 3)
    assert m.coeff(0, 0) == 1
    # coefficient of z^1: -q^(-1)/(1-q^(-1))^2 at q=2 is -2
    assert m.coeff(0, 1) == -2


def test_macmahon_matches_brute_product():
    # the truncated product converges to the closed form as jmax grows;
    # at q = 2, jmax = 120 the tail is far below 10^-30
    tol = rat(1, 10**30)
    for weight in ((0, 1), (1, 1)):
        closed = macmahon(1, 2, weight, 3)
        brute = macmahon_brute(1, 2, weight, 3, 120)
        for eq in range(4):
            for eq1 in range(4):
                if eq + eq1 <= 3:
                    gap = closed.coeff(eq, eq1) - brute.coeff(eq, eq1)
                    assert abs(gap) < tol, (weight, eq, eq1)


def test_bernoulli_300_takes_under_a_second_in_a_fresh_process():
    # nothing is cached: the numbers are built from nothing at each call
    probe = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
        "from tcore.theta import bernoulli; start = time.perf_counter(); "
        "bernoulli(300); print(time.perf_counter() - start)"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert float(out.stdout) < 1


def primes_through(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def test_bernoulli_denominators_are_von_staudt_clausens():
    # the denominator of B_2k is the product of the primes p with (p - 1) | 2k
    numbers = theta.bernoulli_numbers(300)
    primes = primes_through(301)
    for two_k in range(2, 301, 2):
        want = math.prod(p for p in primes if two_k % (p - 1) == 0)
        assert numbers[two_k].denominator == want, two_k
        assert numbers[two_k] != 0 and (numbers[two_k] > 0) == (two_k % 4 == 2), two_k


def test_bernoulli_odd_numbers_past_one_vanish_and_the_recurrence_holds():
    numbers = theta.bernoulli_numbers(301)
    assert all(numbers[n] == 0 for n in range(3, 302, 2))
    # sum_(j<=n) C(n + 1, j) B_j = 0 for n >= 1, the recurrence that defines them
    for n in range(1, 80):
        assert sum(math.comb(n + 1, j) * numbers[j] for j in range(n + 1)) == 0, n
    assert [bernoulli(n) for n in range(40)] == numbers[:40]
    assert theta.bernoulli_numbers(0) == [1] and theta.bernoulli_numbers(1) == [1, rat(-1, 2)]


def log_theta_ratio(t, r, z_order, order):
    """The oracle for level_series: log(vartheta(xi_t^r e^z) / vartheta(xi_t^r)).

    Returned as a (Q; z) series over Taylor(z; Q(zeta_2t)).  The ratio is
    divided by its Q-constant term, whose own constant term is exactly 1, so
    both parts have a logarithm.
    """
    m = 2 * t
    dom_c = CycloDomain(m)
    tdom = TaylorDomain(dom_c, z_order)
    ez = TaylorZ.exp_of(tdom, 1)
    ez_half = TaylorZ.exp_of(tdom, rat(1, 2))
    xi = dom_c.root(m, 2 * r)
    xi_h = dom_c.root(m, r)
    num = vartheta(ThetaArg(xi * ez, xi_h * ez_half, dom=tdom), order)
    den = lift_series(vartheta(ThetaArg(xi, xi_h, dom=dom_c), order), tdom)
    ratio = qdiv(num, den)
    head = ratio.coeff(0)
    unipotent = ratio.map_coeffs(lambda c: c * head.inverse())
    return qlog(unipotent) + QSeries(tdom, ratio.trunc2, {0: head.log()})


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6, 7])
def test_level_series_matches_the_log_ratio(t):
    # every direction, r not coprime to t included, and a negative one
    # beyond -t; one oracle at z^6 serves every weight l <= 6, and at
    # t = 2, 3, 7 one at z^9 takes the closed constant term past l = 6
    # (at t = 7 through Q^4 only, which keeps the oracle under 0.3 s)
    top = 9 if t in (2, 3, 7) else 6
    order = 4 if t == 7 else 12
    for r in [*range(1, t), -(t + 1)]:
        oracle = log_theta_ratio(t, r, top, order)
        for l in range(1, top + 1):
            fact = math.factorial(l)
            expected = oracle.map_coeffs(lambda tz: tz.coeff(l) * fact, CycloDomain(2 * t))
            assert level_series(t, r, l, order) == expected, (t, r, l)


def prefactor_by_horner(t, r, l):
    """The oracle for the Q^0 term of level_series, by the derivatives of g.

    The z-derivative of the logarithm is 1/2 + g with g = 1/(xi e^z - 1), and
    g' = -(g + g^2), so the term is P_(l-1)(g(0)), plus 1/2 when l = 1, where
    P_0 = X and P_(k+1) = -(X + X^2) P_k'.  For xi = xi_t^r of order n,
    g(0) = 1/(xi - 1) is (1/n) sum_(j<n) j xi^j.
    """
    poly = (0, 1)
    for _ in range(l - 1):
        deriv = [i * c for i, c in enumerate(poly)][1:]
        poly = tuple(-a - b for a, b in zip([0] + deriv + [0], [0, 0] + deriv))
    m, n = 2 * t, t // math.gcd(r, t)
    g = sum((Cyclo.root(m, 2 * r * j) * rat(j, n) for j in range(1, n)), Cyclo.zero(m))
    value = Cyclo.zero(m)
    for c in reversed(poly):
        value = value * g + c
    return value + rat(1, 2) if l == 1 else value


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6, 7])
def test_level_series_constant_is_the_horner_form(t):
    # the Bernoulli-polynomial closed form against P_(l-1)(g(0)), in every
    # direction r < 2t off the multiples of t
    for r in range(1, 2 * t):
        if r % t:
            for l in range(1, 10):
                assert level_series(t, r, l, 0).coeff(0) == prefactor_by_horner(t, r, l), (r, l)


@pytest.mark.parametrize("t,r,l", [(2, 1, 2), (3, 2, 1), (4, 2, 3), (5, 3, 4), (6, -1, 6)])
def test_level_series_is_honest_about_truncation(t, r, l):
    full = level_series(t, r, l, 9)
    assert full.trunc2 == 18
    for order in range(9):
        assert level_series(t, r, l, order) == full.truncated(order), order


@pytest.mark.parametrize("args", [
    (3, 1.5, 2, 4), (3, 1, 2.0, 4), (3, True, 2, 4), (3, 1, True, 4), (3, "1", 2, 4),
])
def test_level_series_refuses_a_direction_or_weight_that_is_not_an_int(args):
    with pytest.raises(ValueError, match="must be an int"):
        level_series(*args)


def test_level_series_t2_matches_classical_combination():
    dom = CycloDomain(4)
    for k in (1, 2):
        expected = eisenstein(k, 10) - substituted_power(eisenstein(k, 10), 2).truncated(
            10
        ).map_coeffs(lambda c: c * 4**k)
        expected = lift_series(expected.map_coeffs(lambda c: 2 * c), dom)
        got = level_series(2, 1, 2 * k, 10)
        assert got == expected, k


def test_level_series_odd_weight_vanishes_at_t2():
    assert not level_series(2, 1, 1, 8)
    assert not level_series(2, 1, 3, 8)


def test_level_series_rejects_trivial_direction():
    with pytest.raises(ValueError):
        level_series(3, 3, 2, 5)


def test_level_series_t3_dual_route():
    # log-expansion route vs direct series division, compared numerically
    import mpmath

    got = level_series(3, 1, 1, 5)
    with mpmath.workprec(200):
        q_val = mpmath.mpf(1) / 50
        num_got = sum(
            complex(c.embed()) * float(mpmath.mpf(1) / 50) ** (e2 // 2)
            for e2, c in got.terms.items()
        )
        # numeric derivative of log vartheta(xi_3 e^h) at h=0 via central difference
        def theta_num(z):
            prod = (mpmath.sqrt(z) - 1 / mpmath.sqrt(z))
            for b in range(1, 200):
                prod *= (1 - z * q_val**b) * (1 - q_val**b / z) / (1 - q_val**b) ** 2
            return prod

        xi = mpmath.exp(2j * mpmath.pi / 3)
        h = mpmath.mpf(1) / 10**12
        numeric = (
            mpmath.log(theta_num(xi * mpmath.exp(h)))
            - mpmath.log(theta_num(xi * mpmath.exp(-h)))
        ) / (2 * h)
        assert abs(complex(numeric) - num_got) < 1e-8
