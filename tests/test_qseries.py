"""Truncated series layer: QSeries, TaylorZ, BiSeries."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcore._rat import QQ
from tcore.cyclo import Cyclo
from tcore.modular import Modulus, prime_pool
from tcore.npoint import NPointResult, SValue, rational_series
from tcore.qseries import (
    BiSeries,
    CycloDomain,
    QQ_DOMAIN,
    QSeries,
    TaylorDomain,
    TaylorZ,
    _as_exp2,
    _product,
    qdiv,
    qexp,
    qlog,
)
from tcore.quadext import SqrtExt
from tcore.theta import macmahon

import series_oracle
from residue_ring import ResidueRing


def geometric(order):
    one_minus_q = QSeries(QQ_DOMAIN, 2 * order, {0: QQ(1), 2: QQ(-1)})
    return QSeries.one(QQ_DOMAIN, order) / one_minus_q


def test_halfexp_arithmetic():
    # a half-integer exponent is a Fraction with denominator 2, and its key is
    # twice its value; exponent arithmetic is Fraction arithmetic
    assert _as_exp2(QQ(3, 2)) == 3 and _as_exp2(QQ(-1, 2)) == -1
    assert _as_exp2(QQ(4, 2)) == _as_exp2(2) == 4
    s = QSeries.monomial(QQ_DOMAIN, 5, QQ(3, 2), QQ(5, 2))
    assert s.terms == {3: 5} and s.trunc2 == 5
    assert s.coeff(QQ(1, 2) + 1) == 5 and s.shifted(-QQ(1, 2)).coeff(1) == 5
    for bad in (QQ(1, 3), 1.5, "3/2"):
        with pytest.raises(TypeError, match="half-integer Fraction"):
            s.coeff(bad)


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
    s = QSeries.monomial(QQ_DOMAIN, 1, QQ(1, 2), QQ(9, 2))  # Q^(1/2)
    sq = s * s
    assert sq.coeff(1) == 1
    assert s.shifted(QQ(3, 2)).coeff(2) == 1


# the benchmark digests read these texts, so removing or renaming an exponent
# type must not change a single character of them
REPRS = [
    (
        QSeries(QQ_DOMAIN, 5, {-1: QQ(1, 2), 0: QQ(3), 1: QQ(-1), 2: QQ(2), 3: QQ(-5, 3), 4: QQ(7)}),
        "(1/2)*Q^-1/2 + 3 + (-1)*Q^1/2 + (2)*Q + (-5/3)*Q^3/2 + (7)*Q^2 + O(Q^3)",
    ),
    (
        QSeries(QQ_DOMAIN, 2, {-4: QQ(1, 2), -3: QQ(3), -2: QQ(-1), -1: QQ(2), 0: QQ(-5, 3), 1: QQ(7)}),
        "(1/2)*Q^-2 + (3)*Q^-3/2 + (-1)*Q^-1 + (2)*Q^-1/2 + -5/3 + (7)*Q^1/2 + O(Q^3/2)",
    ),
    (QSeries(QQ_DOMAIN, 4, {}), "0 + O(Q^5/2)"),
    (
        BiSeries(QQ_DOMAIN, 5, {
            (0, 0): QQ(1), (1, 0): QQ(1), (0, 3): QQ(1, 2), (2, 1): QQ(-2),
            (1, 1): QQ(3), (0, 2): QQ(4), (3, 2): QQ(-1, 7), (4, 0): QQ(5),
        }),
        "1 + (4)*Q1 + (1/2)*Q1^3/2 + (1)*Q^1/2 + (3)*Q^1/2*Q1^1/2 + (-2)*Q*Q1^1/2"
        " + (-1/7)*Q^3/2*Q1 + (5)*Q^2 + O(total 3)",
    ),
    (BiSeries(QQ_DOMAIN, 6, {(5, 1): QQ(2)}), "(2)*Q^5/2*Q1^1/2 + O(total 7/2)"),
]


@pytest.mark.parametrize("series,text", REPRS, ids=range(len(REPRS)))
def test_reprs_print_half_integer_exponents_as_fractions(series, text):
    assert repr(series) == text


def test_substituted_power():
    a = QSeries(QQ_DOMAIN, 8, {0: QQ(1), 2: QQ(3)})
    b = series_oracle.substituted_power(a, 2)
    assert b.coeff(2) == 3 and b.trunc2 == 16


def test_pow_matches_repeated_mul():
    a = QSeries(QQ_DOMAIN, 12, {0: QQ(1), 2: QQ(1), 4: QQ(2)})
    assert a**3 == a * a * a
    assert a**0 == QSeries.one(QQ_DOMAIN, 6)
    b = BiSeries.one(QQ_DOMAIN, 4) + BiSeries.monomial(QQ_DOMAIN, 2, QQ(1, 2), 1, 4)
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
    assert (a * (b + c)).truncated(QQ(rhs.trunc2, 2)) == rhs
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
    assert (q * b).agrees_with(a, QQ(q.trunc2, 2))


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
# the product loop and the quotient recurrence against a plain double sum and
# long division


def double_sum(a: dict, b: dict, t2: int, zero) -> dict:
    """The terms through key t2 of the product, one pair at a time."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            if e1 + e2 <= t2:
                out[e1 + e2] = out.get(e1 + e2, zero) + c1 * c2
    return out


def long_division(a: dict, b: dict, t2: int, zero, one) -> dict:
    """The terms through key t2 of a/b: each quotient term times b is
    subtracted from the remainder."""
    vb = min(b)
    inverse = one / b[vb]
    rem, out = dict(a), {}
    for e in range(min(a, default=t2 + vb + 1) - vb, t2 + 1):
        q = rem.get(e + vb, zero) * inverse
        if q:
            out[e] = q
            for k, c in b.items():
                rem[e + k] = rem.get(e + k, zero) - q * c
    return out


def _small(rng):
    return QQ(rng.randint(-9, 9), rng.randint(1, 9))


ZN = ResidueRing(Modulus(6, prime_pool(6, 3)))
TAYLOR_Q = TaylorDomain(QQ_DOMAIN, 3)

# each domain with a random element and a random unit; Z/N mixes residues
# that fill every bit of N with small ones that cancel
LOOP_DOMAINS = {
    "Q": (QQ_DOMAIN, _small, lambda rng: _small(rng) or QQ(1)),
    "Q(zeta8)": (
        CycloDomain(8),
        lambda rng: Cyclo.from_powers(8, [_small(rng) for _ in range(rng.randint(1, 8))]),
        lambda rng: Cyclo.root(8, rng.randint(0, 7)) * (_small(rng) or 1),
    ),
    "Z/N": (
        ZN,
        lambda rng: ZN.coerce(rng.choice([rng.randrange(ZN.n), rng.randint(-3, 3)])),
        lambda rng: ZN.coerce(rng.randrange(1, ZN.n)),
    ),
    "Taylor(z)": (
        TAYLOR_Q,
        lambda rng: TaylorZ(TAYLOR_Q, [rng.choice([0, _small(rng)]) for _ in range(4)]),
        lambda rng: TaylorZ(TAYLOR_Q, [_small(rng) or QQ(1)] + [_small(rng) for _ in range(3)]),
    ),
}


def _random_terms(rng, element, unit) -> dict:
    """Terms on negative, odd and gapped keys, the lowest of them a unit."""
    keys = sorted(rng.sample(range(-6, 15), rng.randint(1, 7)))
    terms = {k: element(rng) for k in keys}
    terms[keys[0]] = unit(rng)
    return terms


@pytest.mark.parametrize("name", LOOP_DOMAINS)
def test_the_series_loops_equal_a_double_sum_and_long_division(name):
    dom, element, unit = LOOP_DOMAINS[name]
    rng = random.Random(f"series loops {name}")
    for _ in range(60):
        terms = [_random_terms(rng, element, unit) for _ in range(2)]
        a, b = (QSeries(dom, max(t) + rng.randint(0, 4), t) for t in terms)
        if rng.random() < 0.2:
            a = QSeries.zero(dom, a.trunc2)
        window = a._window(b)
        for t2 in (window, window - rng.randint(1, 3)):
            want = QSeries(dom, t2, double_sum(a.terms, b.terms, t2, dom.zero))
            assert a._times(b, t2) == want
            swapped = _product(b.terms, a.terms, t2, QSeries._degree, QSeries._shift)
            assert QSeries(dom, t2, swapped) == want
        assert a * b == a._times(b, window)
        q = qdiv(a, b)
        for t2 in (q.trunc2, q.trunc2 - rng.randint(1, 3)):
            want = QSeries(dom, t2, long_division(a.terms, b.terms, t2, dom.zero, dom.one))
            assert q._cut(t2) == want


# ---------------------------------------------------------------------------
# the scalar plumbing Cyclo, SqrtExt, TaylorZ and Residue share

# each kind of scalar: two units of one home, an element of another home of
# the same kind, and the domain of the first home (SqrtExt has none) with a
# scalar it cannot take
SCALARS = {
    "Cyclo": (
        Cyclo.from_powers(8, [1, 2, 0, QQ(-1, 3)]),
        Cyclo.root(8, 3) + QQ(1, 2),
        Cyclo.root(12, 1),
        CycloDomain(8),
        ZN.one,
    ),
    "SqrtExt": (SqrtExt(2, 3, QQ(1, 2)), SqrtExt(2, -1, 2), SqrtExt(3, 0, 1), None, None),
    "TaylorZ": (
        TaylorZ(TAYLOR_Q, [2, 1, 0, QQ(1, 3)]),
        TaylorZ(TAYLOR_Q, [-1, 0, 3, 1]),
        TaylorZ.exp_of(TaylorDomain(QQ_DOMAIN, 2), 1),
        TAYLOR_Q,
        ZN.one,
    ),
    "Residue": (
        ZN.coerce(QQ(5, 7)),
        ZN.coerce(-11),
        ResidueRing(Modulus(6, prime_pool(6, 2))).coerce(3),
        ZN,
        Cyclo.root(6, 1),
    ),
}


@pytest.mark.parametrize("kind", SCALARS)
def test_the_scalars_share_their_ring_plumbing(kind):
    a, b, other_home, dom, foreign = SCALARS[kind]
    assert a - b == a + (-b)
    assert 2 - a == (-a) + 2 and a - 2 == a + (-2)
    assert 1 + a == a + 1 and 3 * a == a * 3
    assert a / b == a * b.inverse()
    assert 1 / a == a.inverse() and a / 3 == a * QQ(1, 3)
    assert a ** -2 == a.inverse() * a.inverse()
    assert a**3 == a * a * a and a**0 == 1
    with pytest.raises(ValueError, match=f"^{a._KIND} mismatch"):
        a + other_home
    with pytest.raises(ValueError, match=f"^{a._KIND} mismatch"):
        a / other_home
    with pytest.raises(AttributeError, match="immutable"):
        setattr(a, type(a).__slots__[0], b)
    if dom is not None:
        assert dom.coerce(a) is a and dom.coerce(QQ(2, 3)) == QQ(2, 3)
        with pytest.raises(TypeError, match="cannot coerce"):
            dom.coerce(foreign)


def test_a_domain_refuses_a_foreign_scalar_with_a_type_error():
    # a Taylor domain refuses whatever its inner domain refuses, such as an
    # irrational field element over Q
    for dom, x in (
        (TaylorDomain(QQ_DOMAIN, 2), SqrtExt(2, 1, 1)),
        (TaylorDomain(QQ_DOMAIN, 2), Cyclo.root(8, 1)),
        (CycloDomain(8), SqrtExt(2, 1, 1)),
    ):
        with pytest.raises(TypeError, match="cannot coerce"):
            dom.coerce(x)
    # a field element with a rational value still comes down to Q
    assert TaylorDomain(QQ_DOMAIN, 2).coerce(Cyclo.root(8, 4)) == -1


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


def dense(dom: TaylorDomain, terms: dict) -> TaylorZ:
    return TaylorZ(dom, [terms.get(k, dom.inner.zero) for k in range(dom.z_order + 1)])


def taylor_double_loop(a: TaylorZ, b: TaylorZ) -> TaylorZ:
    """The full truncated product, pair by pair: the oracle of TaylorZ.__mul__."""
    terms = double_sum(dict(enumerate(a.cs)), dict(enumerate(b.cs)), a.dom.z_order, a.dom.inner.zero)
    return dense(a.dom, terms)


small_rationals = st.builds(QQ, st.integers(-9, 9), st.integers(1, 9))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(small_rationals, min_size=4, max_size=4),
    st.lists(st.lists(small_rationals, min_size=2, max_size=2), min_size=4, max_size=4),
    small_rationals,
)
def test_taylor_product_by_a_z_constant_factor_matches_the_double_loop(rats, cyclos, c):
    for dom in (TaylorDomain(QQ_DOMAIN, 3), TaylorDomain(CycloDomain(6), 3)):
        inner = dom.inner
        if inner == QQ_DOMAIN:
            a = TaylorZ(dom, rats)
        else:
            a = TaylorZ(dom, [Cyclo(6, pair) for pair in cyclos])
        for const in (c, inner.coerce(c), a.cs[1] if inner != QQ_DOMAIN else c):
            b = dom.coerce(const)
            want = taylor_double_loop(a, b)
            assert a * b == want and b * a == want
            assert a * const == want and const * a == want
        assert a * a == taylor_double_loop(a, a)


@pytest.mark.parametrize("inner", [QQ_DOMAIN, ZN], ids=["Q", "Z/N"])
def test_taylor_products_and_inverses_equal_a_double_sum_and_long_division(inner):
    dom = TaylorDomain(inner, 5)
    rng = random.Random(f"taylor loops {inner.name}")

    def element():
        return TaylorZ(dom, [inner.coerce(rng.choice([0, 1, _small(rng)])) for _ in range(6)])

    for _ in range(60):
        x, y = element(), element()
        assert x * y == taylor_double_loop(x, y)
        if y.cs[0]:
            want = long_division({0: inner.one}, dict(enumerate(y.cs)), 5, inner.zero, inner.one)
            assert y.inverse() == dense(dom, want)


# ---------------------------------------------------------------------------
# BiSeries


def test_biseries_product_and_inverse():
    one = BiSeries.one(QQ_DOMAIN, 4)
    q = BiSeries.monomial(QQ_DOMAIN, 1, 1, 0, 4)
    q1 = BiSeries.monomial(QQ_DOMAIN, 1, 0, 1, 4)
    a = one + q * 2 + q1 * q * 3
    b = a * a.inverse()
    assert b == BiSeries.one(QQ_DOMAIN, QQ(b.trunc2, 2))
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
    assert prod == BiSeries.one(QQ_DOMAIN, QQ(prod.trunc2, 2))


@pytest.mark.parametrize("weight", [(0, 1), (1, 0), (1, 1), (2, 1), (QQ(1, 2), QQ(1, 2))])
def test_macmahon_is_honest_about_truncation(weight):
    for z, q in ((1, 2), (QQ(-2, 3), QQ(3, 2))):
        for order in (0, 1, 3, 4):
            assert macmahon(z, q, weight, order) == macmahon(z, q, weight, order + 2).truncated(
                order
            ), (z, q, order)


# ---------------------------------------------------------------------------
# the graded recurrences against sums of powers (series_oracle)

GRADED_DOMAINS = {
    "Q": (QQ_DOMAIN, _small),
    "Q(zeta8)": (
        CycloDomain(8),
        lambda rng: Cyclo.from_powers(8, [_small(rng) for _ in range(rng.randint(1, 8))]),
    ),
}


def _graded_qseries(rng, element, dom, t2: int, constant=None) -> QSeries:
    """Terms on odd (half-integer) and gapped keys in 1..t2, plus a constant."""
    terms = {k: element(rng) for k in rng.sample(range(1, t2 + 1), rng.randint(0, min(t2, 5)))}
    if constant is not None:
        terms[0] = constant
    return QSeries(dom, t2, terms)


def _graded_biseries(rng, element, dom, t2: int, constant=None) -> BiSeries:
    terms = {}
    for _ in range(rng.randint(0, 6)):
        a = rng.randint(0, t2)
        b = rng.randint(0, t2 - a)
        if a + b:
            terms[(a, b)] = element(rng)
    if constant is not None:
        terms[(0, 0)] = constant
    return BiSeries(dom, t2, terms)


@pytest.mark.parametrize("name", GRADED_DOMAINS)
def test_graded_exp_and_log_equal_the_sums_of_powers(name):
    dom, element = GRADED_DOMAINS[name]
    rng = random.Random(f"graded exp log {name}")
    for _ in range(25):
        t2 = rng.randint(0, 9)
        for build in (_graded_qseries, _graded_biseries):
            u = build(rng, element, dom, t2)
            assert qexp(u) == series_oracle.qexp(u)
            f = build(rng, element, dom, t2, constant=dom.one)
            assert qlog(f) == series_oracle.qlog(f)
            assert qexp(qlog(f)) == f


@pytest.mark.parametrize("name", GRADED_DOMAINS)
def test_biseries_division_equals_the_product_by_the_power_sum_inverse(name):
    dom, element = GRADED_DOMAINS[name]
    rng = random.Random(f"graded division {name}")
    for _ in range(40):
        ta, tb = rng.randint(0, 9), rng.randint(0, 9)
        a = _graded_biseries(rng, element, dom, ta, constant=rng.choice([None, element(rng)]))
        unit = element(rng) or dom.one
        b = _graded_biseries(rng, element, dom, tb, constant=unit)
        quotient = a / b
        assert quotient == series_oracle.bi_divide(a, b)
        assert quotient.trunc2 == min(ta, tb + a._low())
        assert b.inverse() == series_oracle.bi_inverse(b)
        # honest about truncation: a narrower divisor or dividend gives the cut quotient
        cut = rng.randint(0, min(ta, tb))
        assert a._cut(cut) / b._cut(cut) == quotient._cut(min(cut, quotient.trunc2))


# ---------------------------------------------------------------------------
# the fraction-free graded recurrence


def test_rational_quotients_and_exps_run_on_reduced_integers(graded_runs):
    rng = random.Random("fraction-free kernel")
    for _ in range(30):
        t2 = rng.randint(0, 9)
        a = _graded_biseries(rng, _small, QQ_DOMAIN, t2, constant=rng.choice([None, _small(rng)]))
        b = _graded_biseries(rng, _small, QQ_DOMAIN, t2, constant=_small(rng) or QQ(-3, 7))
        assert a / b == series_oracle.bi_divide(a, b)
        u = _graded_qseries(rng, _small, QQ_DOMAIN, t2)
        assert qexp(u) == series_oracle.qexp(u)
        x = TaylorZ(TAYLOR_Q, [_small(rng) or QQ(2, 3)] + [_small(rng) for _ in range(3)])
        assert x.inverse() * x == TAYLOR_Q.one
    assert len(graded_runs) == 90
    for sigma, pieces in graded_runs:
        assert sigma is not None
        series_oracle.assert_reduced(pieces)


@pytest.mark.parametrize("name", ["Q(zeta8)", "Z/N"])
def test_other_domains_divide_through_the_same_loop_over_one(name, graded_runs):
    dom, element, unit = LOOP_DOMAINS[name]
    rng = random.Random(f"one loop {name}")
    for _ in range(10):
        a = QSeries(dom, 8, {k: element(rng) for k in range(0, 9, 2)})
        b = QSeries(dom, 8, {0: unit(rng), 3: element(rng), 4: element(rng)})
        want = QSeries(dom, 8, long_division(a.terms, b.terms, 8, dom.zero, dom.one))
        assert a / b == want
    assert len(graded_runs) == 10
    for sigma, pieces in graded_runs:
        assert sigma is None
        assert all(den == 1 for _, den in pieces.values())


def test_a_deep_exp_carries_the_heights_of_its_values(graded_runs):
    # exp(Q / (1 - 2Q/3)) through Q^20: without the gcd of each degree the
    # denominator of degree d would carry d! 3^d and more
    log = QSeries(QQ_DOMAIN, 40, {2 * k: QQ(2, 3) ** (k - 1) for k in range(1, 21)})
    assert qexp(log) == series_oracle.qexp(log)
    ((_, pieces),) = graded_runs
    series_oracle.assert_reduced(pieces)


def test_biseries_division_needs_an_invertible_constant_term():
    a = BiSeries.one(QQ_DOMAIN, 3)
    with pytest.raises(ZeroDivisionError):
        a / BiSeries.monomial(QQ_DOMAIN, 1, 1, 0, 3)


@pytest.mark.parametrize("inner", [QQ_DOMAIN, CycloDomain(8)], ids=["Q", "Q(zeta8)"])
def test_taylor_log_is_the_power_sum_log(inner):
    rng = random.Random(f"taylor log {inner.name}")
    element = GRADED_DOMAINS["Q" if inner == QQ_DOMAIN else "Q(zeta8)"][1]
    for z_order in range(6):
        dom = TaylorDomain(inner, z_order)
        for _ in range(8):
            tail = [rng.choice([inner.zero, element(rng)]) for _ in range(z_order)]
            x = TaylorZ(dom, [inner.one] + tail)
            assert x.log() == series_oracle.taylor_log(x)
