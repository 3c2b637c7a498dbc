"""Truncated series layer: QSeries, TaylorZ, BiSeries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcore._rat import QQ
from tcore.cyclo import Cyclo
from tcore.npoint import NPointResult, SValue, rational_series
from tcore.qseries import (
    BiSeries,
    CycloDomain,
    HalfExp,
    QQ_DOMAIN,
    QSeries,
    TaylorDomain,
    TaylorZ,
    half,
    qdiv,
    qexp,
    qlog,
)
from tcore.quadext import SqrtExt
from tcore.theta import macmahon


def geometric(order):
    one_minus_q = QSeries(QQ_DOMAIN, 2 * order, {0: QQ(1), 2: QQ(-1)})
    return QSeries.one(QQ_DOMAIN, order) / one_minus_q


def test_halfexp_arithmetic():
    assert half(3) + half(1) == HalfExp(4)
    assert half(3) + 1 == half(5)
    assert -half(1) == half(-1)
    assert repr(half(3)) == "3/2"
    assert repr(half(4)) == "2"
    assert half(1) < 1 < half(3)


def test_geometric_series():
    g = geometric(6)
    assert all(g.coeff(k) == 1 for k in range(7))


def test_telescoping_division():
    num = QSeries(QQ_DOMAIN, 12, {0: QQ(1), 4: QQ(-1)})  # 1 - Q^2
    den = QSeries(QQ_DOMAIN, 12, {0: QQ(1), 2: QQ(-1)})  # 1 - Q
    q = num / den
    assert q.coeff(0) == 1 and q.coeff(1) == 1
    assert all(q.coeff2(e) == 0 for e in range(3, q.trunc2 + 1))


def test_division_by_zero_series_rejected():
    a = QSeries.one(QQ_DOMAIN, 5)
    with pytest.raises(ZeroDivisionError):
        qdiv(a, QSeries.zero(QQ_DOMAIN, 5))


def test_division_with_shifted_lowest_term():
    # (Q + Q^2) / Q = 1 + Q, with the truncation window shrinking honestly
    num = QSeries(QQ_DOMAIN, 10, {2: QQ(1), 4: QQ(1)})
    den = QSeries(QQ_DOMAIN, 10, {2: QQ(1)})
    q = num / den
    assert q.coeff(0) == 1 and q.coeff(1) == 1
    assert q.trunc2 == 8


def test_log_mercator():
    a = QSeries(QQ_DOMAIN, 10, {0: QQ(1), 2: QQ(1)})  # 1 + Q
    la = qlog(a)
    for k in range(1, 6):
        assert la.coeff(k) == QQ((-1) ** (k + 1), k)


def test_exp_of_zero_and_round_trip():
    z = QSeries.zero(QQ_DOMAIN, 8)
    assert qexp(z) == QSeries.one(QQ_DOMAIN, 8)
    a = QSeries(QQ_DOMAIN, 16, {0: QQ(1), 2: QQ(2), 3: QQ(-1, 3), 6: QQ(5)})
    assert qexp(qlog(a)) == a


def test_half_exponent_terms():
    s = QSeries.monomial(QQ_DOMAIN, 1, half(1), half(9))  # Q^(1/2)
    sq = s * s
    assert sq.coeff(1) == 1
    assert s.shifted(half(3)).coeff(2) == 1


def test_substituted_power():
    a = QSeries(QQ_DOMAIN, 8, {0: QQ(1), 2: QQ(3)})
    b = a.substituted_power(2)
    assert b.coeff(2) == 3 and b.trunc2 == 16


def test_pow_matches_repeated_mul():
    a = QSeries(QQ_DOMAIN, 12, {0: QQ(1), 2: QQ(1), 4: QQ(2)})
    assert a**3 == a * a * a
    assert a**0 == QSeries.one(QQ_DOMAIN, 6)
    b = BiSeries.one(QQ_DOMAIN, 4) + BiSeries.monomial(QQ_DOMAIN, 2, half(1), 1, 4)
    assert b**5 == b * b * b * b * b
    assert b**0 == BiSeries.one(QQ_DOMAIN, 4)


def _random_series(draw, order, unit=False):
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        e = draw(st.integers(1 if unit else 0, 2 * order))
        c = draw(st.fractions(min_value=-5, max_value=5, max_denominator=4))
        if c:
            terms[e] = QQ(c.numerator, c.denominator)
    if unit:
        terms[0] = QQ(1)
    return QSeries(QQ_DOMAIN, 2 * order, terms)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ring_axioms(data):
    a = _random_series(data.draw, 6)
    b = _random_series(data.draw, 6)
    c = _random_series(data.draw, 6)
    assert (a * b) * c == a * (b * c)
    # a cancellation in b + c raises its lowest degree, so the left side may
    # be known further than the right; on the right's window they are equal
    rhs = a * b + a * c
    assert (a * (b + c)).truncated(HalfExp(rhs.trunc2)) == rhs
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_log_of_product_is_sum_of_logs(data):
    a = _random_series(data.draw, 6, unit=True)
    b = _random_series(data.draw, 6, unit=True)
    assert qlog(a * b) == qlog(a) + qlog(b)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_division_inverts_multiplication(data):
    a = _random_series(data.draw, 6)
    b = _random_series(data.draw, 6, unit=True)
    q = a / b
    assert (q * b).agrees_with(a, HalfExp(q.trunc2))


def test_rationality_projection():
    dom = CycloDomain(4)
    xi = Cyclo.root(4)
    ok = QSeries(dom, 4, {0: xi * xi + 2})  # = 1
    assert rational_series(ok).coeff(0) == 1
    bad = QSeries(dom, 4, {2: xi})
    with pytest.raises(ValueError):
        rational_series(bad)
    # Q(sqrt d) projects the same way: only an element without radical part
    assert QQ_DOMAIN.coerce(SqrtExt(2, QQ(3, 4))) == QQ(3, 4)
    with pytest.raises(ValueError):
        QQ_DOMAIN.coerce(SqrtExt(2, 1, 1))
    with pytest.raises(ValueError):
        rational_series(QSeries(QQ_DOMAIN, 4, {2: SqrtExt(3, 0, 2)}))
    # the JSON payload goes through the same projection
    svals = (SValue.of(4),)
    assert NPointResult("closed", 2, 1, svals, ok, 4).as_payload()["series"] == {"0": "1"}
    bi = BiSeries(QQ_DOMAIN, 4, {(0, 2): SqrtExt(2, 5)})
    assert NPointResult("deformed", None, 0, (), bi, 4).as_payload()["series"] == {"0,2": "5"}
    for value in (bad, BiSeries(QQ_DOMAIN, 4, {(2, 0): SqrtExt(2, 0, 1)})):
        with pytest.raises(ValueError):
            NPointResult("closed", 2, 1, svals, value, 4).as_payload()


# ---------------------------------------------------------------------------
# TaylorZ


def test_taylor_exp_inverse_pair():
    dom = TaylorDomain(QQ_DOMAIN, 6)
    up = TaylorZ.exp_of(dom, QQ(1, 2))
    down = TaylorZ.exp_of(dom, QQ(-1, 2))
    assert up * down == dom.one
    assert up.coeff(1) == QQ(1, 2)
    assert up.coeff(2) == QQ(1, 8)


def test_taylor_log():
    dom = TaylorDomain(QQ_DOMAIN, 5)
    one_plus_z = dom.one + TaylorZ.variable(dom)
    lg = one_plus_z.log()
    for k in range(1, 6):
        assert lg.coeff(k) == QQ((-1) ** (k + 1), k)


def test_taylor_inverse_and_shift():
    dom = TaylorDomain(QQ_DOMAIN, 4)
    a = dom.one + TaylorZ.variable(dom)
    inv = a.inverse()
    for k in range(5):
        assert inv.coeff(k) == QQ((-1) ** k)
    z2 = TaylorZ.variable(dom) * TaylorZ.variable(dom)
    assert z2.coeff(2) == 1 and not z2.coeff(1)


# ---------------------------------------------------------------------------
# BiSeries


def test_biseries_product_and_inverse():
    one = BiSeries.one(QQ_DOMAIN, 4)
    q = BiSeries.monomial(QQ_DOMAIN, 1, 1, 0, 4)
    q1 = BiSeries.monomial(QQ_DOMAIN, 1, 0, 1, 4)
    a = one + q * 2 + q1 * q * 3
    b = a * a.inverse()
    assert b == BiSeries.one(QQ_DOMAIN, HalfExp(b.trunc2))
    assert (q * q1).coeff(1, 1) == 1


def test_biseries_total_degree_cutoff():
    # (1 + Q) * (1 + Q1) with both factors known only through total degree 1:
    # the cross term QQ1 sits above the honest bound and must vanish
    a = BiSeries.one(QQ_DOMAIN, 1) + BiSeries.monomial(QQ_DOMAIN, 1, 1, 0, 1)
    b = BiSeries.one(QQ_DOMAIN, 1) + BiSeries.monomial(QQ_DOMAIN, 1, 0, 1, 1)
    prod = a * b
    assert prod.trunc2 == 2
    assert prod.coeff(1, 0) == 1 and prod.coeff(0, 1) == 1
    assert (1, 1) not in {(k[0] // 2, k[1] // 2) for k in prod.terms}


def test_terms_outside_the_window_are_rejected():
    with pytest.raises(ValueError):
        QSeries(QQ_DOMAIN, 4, {5: QQ(1)})
    for key in ((4, 1), (-2, 2), (2, -2)):
        with pytest.raises(ValueError):
            BiSeries(QQ_DOMAIN, 4, {key: QQ(1)})


def test_biseries_monomial_product_extends_knowledge():
    # exact monomials known through total degree 2 multiply to something
    # known through total degree 4, so the degree-3 cross term survives
    q = BiSeries.monomial(QQ_DOMAIN, 1, 1, 0, 2)
    q1 = BiSeries.monomial(QQ_DOMAIN, 1, 0, 1, 2)
    prod = q * q * q1
    assert prod.coeff(2, 1) == 1
    assert prod.trunc2 == 8


def _random_biseries(draw, order, unit=False):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        a = draw(st.integers(0, 2 * order))
        b = draw(st.integers(0, 2 * order - a))
        if unit and a + b == 0:
            continue
        c = draw(st.fractions(min_value=-5, max_value=5, max_denominator=4))
        terms[(a, b)] = QQ(c.numerator, c.denominator)
    if unit:
        terms[(0, 0)] = QQ(1)
    return BiSeries(QQ_DOMAIN, 2 * order, terms)


def test_composition_needs_a_positive_lowest_degree():
    # a term below Q^0 makes every power of u reach the window
    with pytest.raises(ValueError):
        qlog(QSeries(QQ_DOMAIN, 6, {-1: QQ(1), 0: QQ(1)}))
    with pytest.raises(ValueError):
        qexp(QSeries(QQ_DOMAIN, 6, {-2: QQ(3)}))


# truncation honesty of every caller of the composition helper: a result at
# order N equals the result at order N + 2 truncated to N


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(0, 5))
def test_qlog_and_qexp_are_honest_about_truncation(data, order):
    a = _random_series(data.draw, order + 2, unit=True)
    assert qlog(a.truncated(order)) == qlog(a).truncated(order)
    u = a - 1
    assert qexp(u.truncated(order)) == qexp(u).truncated(order)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(0, 5))
def test_taylor_log_is_honest_about_truncation(data, z_order):
    wide, narrow = TaylorDomain(QQ_DOMAIN, z_order + 2), TaylorDomain(QQ_DOMAIN, z_order)
    fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    cs = [QQ(1)] + [QQ(data.draw(fractions)) for _ in range(z_order + 2)]
    assert TaylorZ(narrow, cs[: z_order + 1]).log().cs == TaylorZ(wide, cs).log().cs[: z_order + 1]


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(0, 4))
def test_biseries_division_log_and_exp_are_honest_about_truncation(data, order):
    a = _random_biseries(data.draw, order + 2)
    b = _random_biseries(data.draw, order + 2, unit=True)
    assert a.truncated(order) / b.truncated(order) == (a / b).truncated(order)
    assert qlog(b.truncated(order)) == qlog(b).truncated(order)
    u = b - 1
    assert qexp(u.truncated(order)) == qexp(u).truncated(order)
    assert qexp(qlog(b)) == b
    prod = b * b.inverse()
    assert prod == BiSeries.one(QQ_DOMAIN, HalfExp(prod.trunc2))


@pytest.mark.parametrize("weight", [(0, 1), (1, 0), (1, 1), (2, 1), (half(1), half(1))])
def test_macmahon_is_honest_about_truncation(weight):
    for z, q in ((1, 2), (QQ(-2, 3), QQ(3, 2))):
        for order in (0, 1, 3, 4):
            assert macmahon(z, q, weight, order) == macmahon(z, q, weight, order + 2).truncated(
                order
            ), (z, q, order)
