"""Theta-like series: product vs sum forms, transformations, Eisenstein."""

import pytest

from tcore._rat import QQ, rat
from tcore.cyclo import Cyclo
from tcore.qseries import (
    QQ_DOMAIN,
    CycloDomain,
    HalfExp,
    QSeries,
    TaylorDomain,
    TaylorZ,
    half,
    lift_series,
    qdiv,
)
from tcore.theta import (
    ThetaArg,
    _euler_cube,
    bernoulli,
    divisor_power_sum,
    eisenstein,
    jfunc,
    level_series,
    macmahon,
    macmahon_brute,
    theta3,
    vartheta,
)

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
            assert vartheta(arg, half(order2)) == oracle.truncated(half(order2)), (arg, order2)
    # a Q-shifted argument: undo vartheta(Qz) = -Q^(-1/2) z^(-1) vartheta(z)
    for arg in (RZ4, ThetaArg.scaled_root(-4), ThetaArg.scaled_root(rat(9, 4), t=3, e=2)):
        up = vartheta(ThetaArg(arg.value, arg.sqrt_value, 1, arg.dom), 8)
        recovered = up.map_coeffs(lambda c: -c * arg.value).shifted(half(1))
        assert vartheta_product(arg, 6).agrees_with(recovered, 6), arg


def test_euler_cube_is_jacobi_series():
    one = QSeries.one(QQ_DOMAIN, 30)
    prod = one
    for b in range(1, 31):
        prod = prod * (one - QSeries.monomial(QQ_DOMAIN, 1, b, 30)) ** 3
    for order2 in (0, 1, 12, 60):
        assert _euler_cube(QQ_DOMAIN, order2) == prod.truncated(half(order2))


def test_vartheta_lattice_translation_frozen_base():
    lhs = vartheta(ThetaArg(QQ(4), QQ(2), q_shift=1), 6)
    rhs = vartheta(RZ4, 8).map_coeffs(lambda c: -c / 4).shifted(half(-1))
    assert lhs.agrees_with(rhs, 6)


def test_theta3_half_order():
    arg = ThetaArg(QQ(3))
    s = theta3(arg, half(1))
    assert s.coeff(0) == 1
    assert s.coeff2(1) == 3 + rat(1, 3)


def test_theta3_sum_equals_product():
    z = Cyclo.root(6, 2) * rat(3, 2)
    arg = ThetaArg(z)
    assert theta3(arg, 8) == theta3(arg, 8, form="product")


def test_theta3_lattice_translation():
    arg = ThetaArg(QQ(9))
    lhs = theta3(ThetaArg(QQ(9), q_shift=1), 6)
    rhs = theta3(arg, 8).map_coeffs(lambda c: c / 9).shifted(half(-1))
    assert lhs.agrees_with(rhs, 6)


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
        assert jfunc(arg, 10) == jfunc(arg, 10, form="product"), z
    zc = Cyclo.root(3, 1)
    arg = ThetaArg(zc)
    assert jfunc(arg, 10) == jfunc(arg, 10, form="product")


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
    flipped = arg.inverse_arg()
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


def test_level_series_t2_matches_classical_combination():
    dom = CycloDomain(4)
    for k in (1, 2):
        expected = eisenstein(k, 10) - eisenstein(k, 10).substituted_power(2).truncated(
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
