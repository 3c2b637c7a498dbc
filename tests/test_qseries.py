"""Truncated series layer: QSeries, TaylorZ, BiSeries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcore._rat import QQ
from tcore.cyclo import Cyclo
from tcore.npoint import rational_series
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
    assert a * (b + c) == a * b + a * c
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


def test_biseries_monomial_product_extends_knowledge():
    # exact monomials known through total degree 2 multiply to something
    # known through total degree 4, so the degree-3 cross term survives
    q = BiSeries.monomial(QQ_DOMAIN, 1, 1, 0, 2)
    q1 = BiSeries.monomial(QQ_DOMAIN, 1, 0, 1, 2)
    prod = q * q * q1
    assert prod.coeff(2, 1) == 1
    assert prod.trunc2 == 8
