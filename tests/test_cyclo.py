"""Exact scalar layer: rationals, cyclotomic fields, quadratic extensions."""

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcore._rat import QQ, parse_rat, rat_str, rational_sqrt
from tcore.cyclo import Cyclo, cyclotomic_polynomial, euler_phi
from tcore.quadext import SqrtExt, sqrt_field

CONDUCTORS = [3, 4, 5, 6, 8, 12]


def test_rat_str_round_trip():
    for x in [QQ(0), QQ(5), QQ(-7, 3), QQ(22, 4)]:
        assert parse_rat(rat_str(x)) == x


def test_rational_sqrt():
    assert rational_sqrt(QQ(9, 4)) == QQ(3, 2)
    assert rational_sqrt(QQ(2)) is None
    assert rational_sqrt(QQ(0)) == 0


def test_cyclotomic_polynomials_frozen():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_satisfies_cyclotomic_polynomial():
    for m in CONDUCTORS:
        xi = Cyclo.root(m)
        phi = cyclotomic_polynomial(m)
        val = Cyclo.zero(m)
        for j, c in enumerate(phi):
            val = val + Cyclo.root(m, j) * c
        assert not val, f"Phi_{m} does not kill zeta_{m}"


def test_product_examples():
    xi4 = Cyclo.root(4)
    assert xi4 * xi4 == -1

    xi3 = Cyclo.root(3)
    assert (1 + xi3) * (-xi3) == 1

    xi6 = Cyclo.root(6)
    assert xi6 * xi6 * xi6 == -1


@pytest.mark.parametrize("m", [6, 8])
def test_rational_valued_factor_scales(m):
    a = Cyclo(m, [QQ(j + 2, 3 - 2 * j) for j in range(euler_phi(m))])
    x = QQ(-7, 5)
    r = Cyclo.from_rat(m, x)
    zeta = Cyclo.root(m)
    # (r + zeta) is not rational-valued, so both products take the full path
    full = a * (r + zeta) - a * zeta
    assert a * r == r * a == a * x == full


def test_inverse_examples():
    xi3 = Cyclo.root(3)
    assert (1 + xi3).inverse() == -xi3

    two = Cyclo.from_rat(4, 2)
    assert two.inverse() == QQ(1, 2)

    xi5 = Cyclo.root(5)
    assert xi5.inverse() == xi5**4


def test_root_exponent_wraps():
    for m in CONDUCTORS:
        assert Cyclo.root(m, m) == 1
        assert Cyclo.root(m, m + 3) == Cyclo.root(m, 3)
        assert Cyclo.root(m, -1) == Cyclo.root(m, m - 1)


def test_conductor_mismatch_rejected():
    with pytest.raises(ValueError, match="conductor mismatch"):
        Cyclo.root(3) * Cyclo.root(4)


def test_zero_inverse_rejected():
    with pytest.raises(ZeroDivisionError):
        Cyclo.zero(5).inverse()


def test_conjugation_and_reality():
    for m in CONDUCTORS:
        xi = Cyclo.root(m)
        assert xi.conjugate() * xi == 1
        assert (xi + xi.inverse()).is_real()
        if m > 2:
            assert not xi.is_real()


def _random_element(draw, m):
    deg = euler_phi(m)
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=6),
            min_size=deg,
            max_size=deg,
        )
    )
    return Cyclo(m, [QQ(c.numerator, c.denominator) for c in coeffs])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_field_axioms(data):
    m = data.draw(st.sampled_from(CONDUCTORS))
    a = _random_element(data.draw, m)
    b = _random_element(data.draw, m)
    c = _random_element(data.draw, m)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * a.inverse() == 1
        assert (a * b) / a == b


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_complex_embedding_is_homomorphism(data):
    m = data.draw(st.sampled_from(CONDUCTORS))
    a = _random_element(data.draw, m)
    b = _random_element(data.draw, m)
    with mpmath.workprec(256):
        lhs = (a * b).embed()
        rhs = a.embed() * b.embed()
        scale = max(1, abs(a.embed()) * abs(b.embed()))
        assert abs(lhs - rhs) / scale < mpmath.mpf(2) ** (-200)


def test_embedding_value():
    with mpmath.workprec(128):
        got = Cyclo.root(4).embed()
        assert abs(got - mpmath.mpc(0, 1)) < mpmath.mpf(2) ** (-100)


# ---------------------------------------------------------------------------
# quadratic extension


def test_sqrtext_basics():
    r2 = SqrtExt.sqrt_of_base(2)
    assert r2 * r2 == 2
    assert (1 + r2) * (1 + r2) == 3 + 2 * r2
    assert (1 + r2).inverse() == -1 + r2
    assert (1 + r2) ** -2 == (3 - 2 * r2)  # inverse squared
    assert (3 + 2 * r2).norm() == 1


def test_sqrt_field_dispatch():
    root, lift = sqrt_field(QQ(9, 4))
    assert root == QQ(3, 2)
    assert lift(QQ(5)) == QQ(5)

    root, lift = sqrt_field(QQ(3, 2))
    assert isinstance(root, SqrtExt)
    assert root * root == lift(QQ(3, 2))


@settings(max_examples=40, deadline=None)
@given(
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
)
def test_sqrtext_field_axioms(a1, b1, a2, b2):
    x = SqrtExt(2, QQ(a1.numerator, a1.denominator), QQ(b1.numerator, b1.denominator))
    y = SqrtExt(2, QQ(a2.numerator, a2.denominator), QQ(b2.numerator, b2.denominator))
    assert x * y == y * x
    assert (x + y) * (x - y) == x * x - y * y
    if x:
        assert x * x.inverse() == 1
