"""Tests for the n-point functions and their mutually checking routes."""

from __future__ import annotations

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcore._rat import QQ, is_rational, rat_pow
from tcore.npoint import (
    NPointResult,
    SetPartition,
    SValue,
    bloch_okounkov_F,
    brute_force_Ft,
    closed_Ft,
    closed_Ft_r,
    correlation_expansion,
    is_real_series,
    partition_moment,
    qdeformed_Z_product,
    qdeformed_Z_sum,
    qdeformed_Zn_sum,
    rational_series,
    s_vector,
    set_partitions,
)
from tcore.partitions import (
    conjugate,
    enumerate_t_cores,
    hook_lengths,
    partitions_of,
    t_core_product_series,
    t_core_size_series,
)
from tcore.qseries import QQ_DOMAIN, QSeries, qdiv
from tcore.symfunc import SpecPoint, skew_schur
from tcore.theta import ThetaArg, eisenstein, jfunc, level_series, macmahon, theta3, vartheta

S4 = QQ(4)
S94 = QQ(9, 4)
S2516 = QQ(25, 16)


def as_rational(x):
    if is_rational(x):
        return QQ(x)
    assert x.is_rational(), x
    return x.rational_value()


# -- s-values and row moments -------------------------------------------------


def test_svalue_construction():
    sv = SValue.of(S94)
    assert sv.s == S94 and sv.sqrt_s == QQ(3, 2)
    with pytest.raises(ValueError):
        SValue.of(QQ(2))  # not a perfect square
    with pytest.raises(ValueError):
        SValue.of(QQ(1))  # the boundary point is excluded
    with pytest.raises(ValueError):
        SValue.of(QQ(1, 4))  # below 1
    with pytest.raises(ValueError):
        SValue(QQ(4), QQ(3))


def test_partition_moment_hand_values():
    sv = SValue.of(S4)
    # empty partition: the pure tail sqrt(s)/(s-1)
    assert partition_moment(sv, ()) == QQ(2, 3)
    # one box: 4^0 * 2 plus the tail 2/(4*3)
    assert partition_moment(sv, (1,)) == QQ(2) + QQ(1, 6)


@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=5),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=3),
)
def test_partition_moment_ignores_zero_padding(parts, root, pad):
    nu = tuple(sorted(parts, reverse=True))
    sv = SValue.of(QQ(root * root))
    padded = nu + (0,) * pad
    assert partition_moment(sv, nu) == partition_moment(sv, padded)


def test_s_vector_screen_passes_disjoint_values():
    vec = s_vector((S4, S94, S2516))
    assert [v.s for v in vec] == [S4, S94, S2516]


# -- set partitions -------------------------------------------------------------


def test_set_partition_counts_are_bell_numbers():
    assert [len(set_partitions(n)) for n in range(1, 6)] == [1, 2, 5, 15, 52]


def test_set_partitions_of_three():
    got = {sp.blocks for sp in set_partitions(3)}
    assert got == {
        ((1, 2, 3),),
        ((1, 2), (3,)),
        ((1, 3), (2,)),
        ((1,), (2, 3)),
        ((1,), (2,), (3,)),
    }


def test_set_partition_validation():
    with pytest.raises(ValueError):
        SetPartition(((1, 2), (2, 3)))  # overlap
    with pytest.raises(ValueError):
        SetPartition(((1,), (3,)))  # gap
    with pytest.raises(ValueError):
        SetPartition(((2,), (1, 3)))  # not ordered by least element
    with pytest.raises(ValueError):
        SetPartition(((1,), ()))


@given(st.integers(min_value=1, max_value=6))
@settings(max_examples=12, deadline=None)
def test_set_partitions_cover_and_are_distinct(n):
    sps = set_partitions(n)
    assert len({sp.blocks for sp in sps}) == len(sps)
    for sp in sps:
        flat = sorted(x for b in sp.blocks for x in b)
        assert flat == list(range(1, n + 1))
        assert sp.n == n


# -- the enumeration route ------------------------------------------------------


def test_brute_force_t2_published_coefficients():
    series = brute_force_Ft(2, (S4,), 6)
    expected = [
        QQ(2, 3),
        QQ(3, 2),
        QQ(-3, 2),
        QQ(75, 8),
        QQ(-87, 8),
        QQ(99, 8),
        QQ(375, 32),
    ]
    assert [series.coeff(k) for k in range(7)] == expected


def test_brute_force_empty_product_is_one():
    series = brute_force_Ft(3, (), 5)
    assert series.agrees_with(QSeries.one(QQ_DOMAIN, 5), 5)


@pytest.mark.parametrize("route", [
    lambda: brute_force_Ft(2, (S4,), -1),
    lambda: bloch_okounkov_F((S4,), -1),
    lambda: closed_Ft(2, (S4,), 1, -1),
    lambda: closed_Ft_r(2, (S4, S94), 1, -1),
    lambda: correlation_expansion(3, 0, (), -1),
    lambda: qdeformed_Z_sum(2, -1),
    lambda: qdeformed_Zn_sum(2, (S4,), -1),
    lambda: qdeformed_Z_product(2, -1),
    lambda: level_series(3, 1, 1, -1),
    lambda: eisenstein(1, -1),
    lambda: vartheta(ThetaArg(S4, QQ(2)), -1),
    lambda: theta3(ThetaArg(S4), -1),
    lambda: jfunc(ThetaArg(S4), -1),
    lambda: macmahon(1, 2, (0, 1), -1),
    lambda: t_core_product_series(3, -1),
    lambda: t_core_size_series(3, -1),
])
def test_negative_order_is_rejected_at_the_boundary(route):
    with pytest.raises(ValueError, match="order must be nonnegative"):
        route()


def test_brute_force_rejects_bad_inputs():
    with pytest.raises(ValueError):
        brute_force_Ft(1, (S4,), 3)
    with pytest.raises(ValueError):
        brute_force_Ft(2, (QQ(3),), 3)


# -- the closed theta-determinant route ------------------------------------------


def test_closed_route_needs_nonzero_q2():
    with pytest.raises(ValueError):
        closed_Ft(2, (S4,), 0, 4)


def test_closed_route_matches_enumeration_n1():
    brute = brute_force_Ft(2, (S4,), 6)
    closed = closed_Ft(2, (S4,), 1, 6)
    assert is_real_series(closed)
    assert rational_series(closed).agrees_with(brute, 6)


def test_closed_route_is_independent_of_q2():
    reference = rational_series(closed_Ft(3, (S4, S94), 1, 6))
    for q2 in (QQ(2), QQ(5, 3), QQ(-1)):
        other = rational_series(closed_Ft(3, (S4, S94), q2, 6))
        assert other.agrees_with(reference, 6)


def test_closed_route_matches_enumeration_n2():
    for t in (2, 3):
        brute = brute_force_Ft(t, (S4, S94), 6)
        closed = rational_series(closed_Ft(t, (S4, S94), QQ(5, 3), 6))
        assert closed.agrees_with(brute, 6)


def test_closed_route_matches_enumeration_n3():
    svec = (S4, S94, S2516)
    for t in (2, 4):
        brute = brute_force_Ft(t, svec, 5)
        closed = rational_series(closed_Ft(t, svec, 1, 5))
        assert closed.agrees_with(brute, 5)


def test_degenerate_column_labels_contribute_nothing():
    kwargs = dict(t=3, s_values=(S4, S94), Q2=QQ(2), order=5)
    skipped = rational_series(closed_Ft(**kwargs))
    full = rational_series(closed_Ft(**kwargs, all_tuples=True))
    assert full.agrees_with(skipped, 5)


def test_all_tuples_agree_with_translation_weights():
    # at t = 4 a label tuple with least label 1 stands for up to four
    # translates, so the weights of the grouped sum differ from 1
    svec = (S4, S94, S2516)
    brute = brute_force_Ft(4, svec, 4)
    for route in (
        lambda **kw: closed_Ft(4, svec, QQ(2), 4, **kw),
        lambda **kw: closed_Ft_r(4, svec, 2, 4, **kw),
    ):
        skipped = route()
        assert route(all_tuples=True) == skipped
        assert rational_series(skipped).agrees_with(brute, 4)


@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_closed_routes_are_honest_about_truncation(t, n):
    svec = (S4, S94, S2516)[:n]
    order = 4
    for route in (
        lambda N: closed_Ft(t, svec, QQ(5, 3), N),
        lambda N: closed_Ft_r(t, svec, 1, N),
    ):
        assert route(order + 2).truncated(order) == route(order)


def test_single_point_theta_quotient_form():
    # t / (s^(t/2) - s^(-t/2)) * theta(s xi_2) / theta(xi_2) is what the
    # determinant sum collapses to at n = 1, t = 2; build it directly
    order = 6
    num = vartheta(ThetaArg.scaled_root(S4, t=2, e=1), order)
    den = vartheta(ThetaArg.scaled_root(QQ(1), t=2, e=1), order)
    quotient = qdiv(num, den)
    dom = quotient.dom
    scale = dom.coerce(QQ(2) / (S4 - QQ(1, 4)))
    series = quotient.map_coeffs(lambda c: c * scale)
    brute = brute_force_Ft(2, (S4,), order)
    assert rational_series(series).agrees_with(brute, order)


# -- the route with the marked index subset ---------------------------------------


def test_marked_subset_route_matches_enumeration():
    for t in (2, 3):
        brute = brute_force_Ft(t, (S4, S94), 6)
        marked = rational_series(closed_Ft_r(t, (S4, S94), 1, 6))
        assert marked.agrees_with(brute, 6)


def test_marked_subset_route_deeper_window():
    brute = brute_force_Ft(2, (S4, S94), 8)
    marked = rational_series(closed_Ft_r(2, (S4, S94), 1, 8))
    assert marked.agrees_with(brute, 8)


def test_marked_subset_route_n3_both_r():
    svec = (S4, S94, S2516)
    brute = brute_force_Ft(3, svec, 5)
    for r in (1, 2):
        marked = rational_series(closed_Ft_r(3, svec, r, 5))
        assert marked.agrees_with(brute, 5)


def test_marked_subset_route_rejects_bad_r():
    with pytest.raises(ValueError):
        closed_Ft_r(2, (S4, S94), 2, 4)
    with pytest.raises(ValueError):
        closed_Ft_r(2, (S4,), 1, 4)


# -- the three routes against each other ------------------------------------------


@pytest.mark.parametrize("t", [2, 3, 4])
def test_three_routes_agree_n2(t):
    svec = (S4, S94)
    order = 6
    brute = brute_force_Ft(t, svec, order)
    closed = rational_series(closed_Ft(t, svec, QQ(2), order))
    marked = rational_series(closed_Ft_r(t, svec, 1, order))
    assert closed.agrees_with(brute, order)
    assert marked.agrees_with(brute, order)


# -- q-deformed partition function -------------------------------------------------


def test_qdeformed_sum_low_coefficients():
    z = qdeformed_Z_sum(QQ(2), 4)
    assert z.coeff(0, 0) == 1
    # the pure Q1 direction starts with -q/(q-1)^2
    assert z.coeff(0, 1) == QQ(-2)
    z32 = qdeformed_Z_sum(QQ(3, 2), 4)
    assert z32.coeff(0, 1) == QQ(-6)


def test_qdeformed_product_at_odd_orders():
    # the band (1 - Q^b Q1^b) with 2b > N lies outside the window and is 1
    total = qdeformed_Z_sum(QQ(2), 8)
    for order in (1, 3, 5, 7):
        window = {k: c for k, c in total.terms.items() if sum(k) <= 2 * order}
        product = qdeformed_Z_product(QQ(2), order)
        assert product.trunc2 == 2 * order
        assert product.terms == window, order


@pytest.mark.parametrize("route", [
    lambda q: qdeformed_Z_sum(q, 3),
    lambda q: qdeformed_Zn_sum(q, (S4,), 3),
    lambda q: qdeformed_Z_product(q, 3),
])
@pytest.mark.parametrize("q", [QQ(-2), QQ(1), QQ(1, 2)])
def test_qdeformed_routes_reject_base_at_most_one(route, q):
    with pytest.raises(ValueError, match="q > 1"):
        route(q)


def test_qdeformed_sum_matches_product():
    for q in (QQ(2), QQ(3, 2)):
        total = qdeformed_Z_sum(q, 6)
        product = qdeformed_Z_product(q, 6)
        keys = {k for k in set(total.terms) | set(product.terms) if sum(k) <= 12}
        for key in keys:
            assert total.terms.get(key, QQ(0)) == product.terms.get(key, QQ(0)), key


def test_qdeformed_sum_matches_hook_expansion():
    # dividing out the plane-partition factor leaves a sum over partitions
    # of (Q Q1)^|nu| times hook-length products, expanded here directly
    q = QQ(2)
    order = 4
    lhs = qdeformed_Z_sum(q, order) / macmahon(1, q, (0, 1), order)
    rhs: dict[tuple[int, int], QQ] = {}
    for size in range(order + 1):
        for nu in partitions_of(size):
            hooks = list(hook_lengths(nu).values())
            denom = QQ(1)
            poly = {0: QQ(1)}  # Q1 exponent relative to |nu|
            for h in hooks:
                qh = rat_pow(q, h)
                denom = denom * (qh - 1) * (qh - 1)
                new: dict[int, QQ] = {}
                for e, c in poly.items():
                    for de, dc in ((0, 1 + qh * qh), (1, -qh), (-1, -qh)):
                        new[e + de] = new.get(e + de, QQ(0)) + c * dc
                poly = new
            for e, c in poly.items():
                key = (2 * size, 2 * (size + e))
                if key[0] + key[1] <= 2 * order:
                    rhs[key] = rhs.get(key, QQ(0)) + c / denom
    for key in {k for k in set(rhs) | set(lhs.terms) if sum(k) <= 2 * order}:
        assert lhs.terms.get(key, QQ(0)) == rhs.get(key, QQ(0)), key


def test_qdeformed_average_normalizes_to_one_at_n0():
    zn = qdeformed_Zn_sum(QQ(2), (), 4)
    assert zn.coeff(0, 0) == 1
    assert all(c == 0 for k, c in zn.terms.items() if k != (0, 0))


def test_qdeformed_average_constant_term():
    zn = qdeformed_Zn_sum(QQ(2), (S4,), 4)
    assert zn.coeff(0, 0) == QQ(2, 3)


def test_qdeformed_average_pure_q_row_matches_schur_route():
    # at Q1 = 0 only the empty mu survives and the vertex weights reduce
    # to products of principally specialized Schur functions
    q = QQ(2)
    order = 4
    zn = qdeformed_Zn_sum(q, (S4,), order)
    spec = SpecPoint(q)
    sv = SValue.of(S4)
    num: dict[int, QQ] = {}
    den: dict[int, QQ] = {}
    for size in range(order + 1):
        for nu in partitions_of(size):
            weight = skew_schur(nu, (), spec) * skew_schur(conjugate(nu), (), spec)
            w = as_rational(weight)
            sign = -1 if size % 2 else 1
            num[2 * size] = num.get(2 * size, QQ(0)) + sign * w * partition_moment(sv, nu)
            den[2 * size] = den.get(2 * size, QQ(0)) + sign * w
    reference = qdiv(
        QSeries(QQ_DOMAIN, 2 * order, num), QSeries(QQ_DOMAIN, 2 * order, den)
    )
    for k in range(order + 1):
        assert zn.coeff(k, 0) == reference.coeff(k), k


# -- the average over all partitions ------------------------------------------------


def test_unrestricted_average_first_coefficients():
    sv = SValue.of(S4)
    series = bloch_okounkov_F((S4,), 6)
    t_empty = partition_moment(sv, ())
    t_one = partition_moment(sv, (1,))
    assert series.coeff(0) == t_empty
    # (t_empty + Q t_one) / (1 + Q) puts t_one - t_empty at Q^1
    assert series.coeff(1) == t_one - t_empty


def test_unrestricted_average_n0_is_one():
    series = bloch_okounkov_F((), 5)
    assert series.agrees_with(QSeries.one(QQ_DOMAIN, 5), 5)


# -- correlation coefficients ---------------------------------------------------------


def test_correlation_table_keys_and_f0():
    table = correlation_expansion(2, 1, (2,), 6)
    assert sorted(table) == [(0,), (1,), (2,)]
    assert table[(0,)].agrees_with(QSeries.one(QQ_DOMAIN, 6), 6)


def test_correlation_f1_vanishes_at_t2():
    # the 2-core average is symmetric under s -> 1/s, so odd weights die
    table = correlation_expansion(2, 1, (1,), 8)
    assert not table[(1,)].terms


def test_correlation_f1f1_vanishes_at_t2():
    table = correlation_expansion(2, 2, (1, 1), 6)
    assert not table[(1, 1)].terms


def test_correlation_f2_frozen_t3():
    table = correlation_expansion(3, 1, (2,), 7)
    got = [table[(2,)].coeff(k) for k in range(8)]
    assert got == [
        QQ(-1, 24),
        QQ(1),
        QQ(3),
        QQ(-5),
        QQ(7),
        QQ(6),
        QQ(-15),
        QQ(8),
    ]


@pytest.mark.parametrize("t", [2, 3])
def test_correlation_f2_is_an_eisenstein_combination(t):
    # <f_2> - (E_2(Q) - t^2 E_2(Q^t)) must be constant, pinning every
    # positive Q-power against an independent divisor-sum computation
    order = 10
    table = correlation_expansion(t, 1, (2,), order)
    e2 = eisenstein(1, order)
    e2t = eisenstein(1, order // t).substituted_power(t)
    reference = e2 - e2t.map_coeffs(lambda c: c * QQ(t * t))
    difference = table[(2,)] - reference
    nonconstant = {e: c for e, c in difference.terms.items() if e != 0}
    assert not nonconstant


def test_correlation_f2_matches_laurent_fit_of_enumeration():
    # evaluate the defining average numerically at s = exp(z) for small z,
    # fit the Laurent expansion in z, and compare the z^1 slot against the
    # exact table; this ties the Taylor bookkeeping to the raw definition
    t, q_order = 3, 3
    table = correlation_expansion(t, 1, (2,), q_order)
    mpmath.mp.dps = 60
    cores = enumerate_t_cores(t, q_order)

    def moment(s, nu):
        total = mpmath.mpf(0)
        for i, part in enumerate(nu, start=1):
            total += s ** (part - i + mpmath.mpf(1) / 2)
        return total + s ** (mpmath.mpf(1) / 2 - len(nu)) / (s - 1)

    zs = [mpmath.mpf(j) / 1000 for j in range(1, 8)]
    rows = []
    rhs_by_order = {k: [] for k in range(q_order + 1)}
    for z in zs:
        s = mpmath.e**z
        num = [mpmath.mpf(0)] * (q_order + 1)
        den = [mpmath.mpf(0)] * (q_order + 1)
        for size, group in cores.items():
            for nu in group:
                num[size] += moment(s, nu)
                den[size] += 1
        coeffs = []
        for k in range(q_order + 1):
            value = num[k] - sum(coeffs[i] * den[k - i] for i in range(k))
            coeffs.append(value / den[0])
        rows.append([z**e for e in range(-1, 6)])
        for k in range(q_order + 1):
            rhs_by_order[k].append(coeffs[k])
    matrix = mpmath.matrix(rows)
    for k in range(q_order + 1):
        solution = mpmath.lu_solve(matrix, mpmath.matrix(rhs_by_order[k]))
        fitted = solution[2]  # the z^1 slot carries the weight-2 coefficient
        c = table[(2,)].coeff(k)
        exact = mpmath.mpf(int(c.numerator)) / mpmath.mpf(int(c.denominator))
        assert abs(fitted - exact) < mpmath.mpf("1e-8"), k


def test_correlation_rejects_mismatched_orders():
    with pytest.raises(ValueError):
        correlation_expansion(2, 2, (1,), 4)


# -- result payloads --------------------------------------------------------------------


def test_npoint_result_payload():
    series = brute_force_Ft(2, (S4,), 3)
    result = NPointResult(
        method="enumeration",
        t=2,
        n=1,
        s=(SValue.of(S4),),
        value=series,
        order2=series.trunc2,
        elapsed_ms=1.25,
    )
    payload = result.as_payload()
    assert payload["method"] == "enumeration"
    assert payload["s"] == ["4"]
    assert payload["series"]["0"] == "2/3"
    assert payload["series"]["2"] == "3/2"
