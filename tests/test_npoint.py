"""Tests for the n-point functions and their mutually checking routes."""

from __future__ import annotations

import math
import time
from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations, product
from operator import add

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcore import npoint, symfunc
from tcore._rat import QQ, is_rational, rat_pow
from tcore.npoint import (
    NPointResult,
    SValue,
    _MAX_STEPS,
    _MomentTable,
    _clearing_exponents,
    _closed_layout,
    _core_estimate,
    _count_factors,
    _divide_by_counts,
    _row_walk,
    _size_clearing_exponents,
    _through_factors,
    bloch_okounkov_F,
    brute_force_Ft,
    closed_Ft,
    closed_Ft_r,
    closed_term_count,
    correlation_expansion,
    is_real_series,
    partition_moment,
    qdeformed_Z_product,
    qdeformed_Z_sum,
    qdeformed_Zn_sum,
    rational_series,
    s_vector,
)
from tcore.partitions import (
    _balanced_options,
    _charge_vectors,
    _charge_walk,
    _track_cost2,
    _track_options,
    conjugate,
    enumerate_t_cores,
    hook_lengths,
    partitions_of,
    t_core_from_charges,
)
from tcore.contour import QuadratureConfig, extract_cor42
from tcore.qseries import (
    QQ_DOMAIN,
    BiSeries,
    QSeries,
    TaylorDomain,
    TaylorZ,
    qdiv,
    qexp,
)
from tcore.symfunc import SpecPoint, skew_schur, topological_vertex
from tcore.theta import (
    ThetaArg,
    bernoulli,
    bernoulli_numbers,
    eisenstein,
    level_series,
    macmahon,
    theta3,
    vartheta,
)

import average_oracle
import determinant_oracle
from determinant_oracle import set_partitions
from partition_oracle import (
    euler_product_series,
    filtered_t_cores,
    is_t_core,
    t_core_product_series,
    t_core_size_series,
)
from schur_oracle import schur_pair_sum_series
import series_oracle
from series_oracle import substituted_power

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


def test_partition_moment_takes_a_plain_s_value():
    assert partition_moment(4, (2, 1)) == partition_moment(SValue.of(S4), (2, 1))
    assert partition_moment(QQ(9, 4), ()) == partition_moment(SValue.of(S94), ())
    for bad in (3, QQ(1, 4), None, "four"):
        with pytest.raises(ValueError):
            partition_moment(bad, (1,))


@pytest.mark.parametrize("nu", [(1, 2), (2, 0, 1), (1, -1), (-1,)])
def test_partition_moment_refuses_a_non_partition(nu):
    with pytest.raises(ValueError, match="nu must be weakly decreasing and nonnegative"):
        partition_moment(SValue.of(S4), nu)


@pytest.mark.parametrize("nu", [(2.5,), (2, "1"), (True,), (None,)])
def test_partition_moment_refuses_a_part_that_is_not_an_int(nu):
    with pytest.raises(ValueError, match="each part of nu must be an int"):
        partition_moment(SValue.of(S4), nu)


# each route that takes s-values, as a function of them
S_ROUTES = [
    lambda s: brute_force_Ft(3, s, 5),
    lambda s: bloch_okounkov_F(s, 5),
    lambda s: closed_Ft(3, s, QQ(2), 5),
    lambda s: closed_Ft_r(3, s, 1, 5),
    lambda s: qdeformed_Zn_sum(2, s, 3),
]


@pytest.mark.parametrize("route", S_ROUTES, ids=range(len(S_ROUTES)))
def test_s_values_that_are_not_numbers_are_refused_by_name(route):
    with pytest.raises(ValueError, match="an s-value must be a rational number, got None"):
        route((S4, None))
    with pytest.raises(ValueError, match="an s-value must be a rational number, got 'four'"):
        route((S4, "four"))
    with pytest.raises(ValueError, match="s_values must be an iterable of s-values, got 4"):
        route(4)
    # a string would be read a character at a time, '49' as s = 4 and 9
    for text, kind in (("49", "str"), (b"49", "bytes")):
        with pytest.raises(ValueError, match=f"s_values must be an iterable of s-values, not {kind}"):
            route(text)


@pytest.mark.parametrize("q2", [None, "two", float("nan"), (1, 2)],
                         ids=["None", "str", "nan", "tuple"])
def test_a_q2_that_is_not_a_number_is_refused_by_name(q2):
    with pytest.raises(ValueError, match="Q2 must be a nonzero rational number, got"):
        closed_Ft(3, (S4,), q2, 5)


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


def moment_by_rows(sv, nu):
    """The row moment as one Fraction step per row: the oracle for the
    integer kernel behind partition_moment."""
    total = QQ(0)
    for i, part in enumerate(nu, start=1):
        total += rat_pow(sv.s, part - i) * sv.sqrt_s
    return total + rat_pow(sv.s, -len(nu)) * sv.sqrt_s / (sv.s - 1)


partitions_with_padding = st.tuples(
    st.lists(st.integers(min_value=1, max_value=40), min_size=0, max_size=12),
    st.integers(min_value=0, max_value=4),
).map(lambda pair: tuple(sorted(pair[0], reverse=True)) + (0,) * pair[1])

large_roots = st.tuples(
    st.integers(min_value=1, max_value=10**12), st.integers(min_value=1, max_value=10**12)
).filter(lambda pq: pq[0] != pq[1]).map(lambda pq: QQ(max(pq), min(pq)))


def moment_product(svals, nu, lo=None, hi=None):
    """The row-moment product over several s-values as one rational, from a
    table over the clearing exponents (lo, hi), by default those of nu."""
    if lo is None:
        lo, hi = _clearing_exponents(nu)
    table = _MomentTable(svals, lo, hi)
    return QQ(table.numerator(nu), table.den)


@settings(max_examples=150, deadline=None)
@given(partitions_with_padding, st.lists(large_roots, min_size=1, max_size=3))
def test_partition_moment_matches_fraction_loop(nu, roots):
    svals = [SValue.of(root * root) for root in roots]
    oracles = [moment_by_rows(sv, nu) for sv in svals]
    assert partition_moment(svals[0], nu) == oracles[0]
    assert moment_product(svals, nu) == math.prod(oracles, start=QQ(1))
    # a wider table gives the same moments, and the table of an average,
    # cut by size alone, is wide enough for every partition of that size
    lo, hi = _clearing_exponents(nu)
    assert moment_product(svals, nu, lo + 2, hi + 5) == math.prod(oracles, start=QQ(1))
    core = tuple(part for part in nu if part)
    size_lo, size_hi = _size_clearing_exponents(sum(core))
    core_lo, core_hi = _clearing_exponents(core)
    assert core_lo <= size_lo and core_hi <= size_hi


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_charge_moment_is_the_row_moment_of_the_core(t):
    # sqrt(s) sum_r s^(r + t c_r) / (s^t - 1), the moment brute_force_Ft
    # reads off the charges, against the rows of the core they stand for
    sv = SValue.of(QQ(53, 37) ** 2)
    cores = 0
    for charges, size in _charge_vectors(t, 30):
        nu = t_core_from_charges(t, charges)
        assert sum(nu) == size
        charge_form = sv.sqrt_s * sum(
            (rat_pow(sv.s, r + t * c) for r, c in enumerate(charges)), QQ(0)
        ) / (rat_pow(sv.s, t) - 1)
        assert charge_form == partition_moment(sv, nu)
        cores += 1
    assert cores == {2: 8, 3: 38, 4: 129, 5: 355}[t]


def test_s_vector_screen_passes_disjoint_values():
    vec = s_vector((S4, S94, S2516))
    assert [v.s for v in vec] == [S4, S94, S2516]


# -- set partitions -------------------------------------------------------------


def test_set_partition_counts_are_bell_numbers():
    assert [len(set_partitions(n)) for n in range(1, 6)] == [1, 2, 5, 15, 52]


def test_set_partitions_of_three():
    got = set(set_partitions(3))
    assert got == {
        ((1, 2, 3),),
        ((1, 2), (3,)),
        ((1, 3), (2,)),
        ((1,), (2, 3)),
        ((1,), (2,), (3,)),
    }


@pytest.mark.parametrize("n", range(1, 7))
def test_set_partitions_come_in_restricted_growth_string_order(n):
    # every string a with a_1 = 0 and a_i at most 1 + max(a_1..a_(i-1)), in
    # lexicographic order, found by filtering all of {0..n-1}^n
    strings = [
        a
        for a in product(range(n), repeat=n)
        if all(a[i] <= 1 + max(a[:i], default=-1) for i in range(n))
    ]
    expected = [
        tuple(tuple(i + 1 for i in range(n) if a[i] == b) for b in range(max(a) + 1))
        for a in strings
    ]
    assert set_partitions(n) == expected


@given(st.integers(min_value=1, max_value=6))
@settings(max_examples=12, deadline=None)
def test_set_partitions_cover_and_are_distinct(n):
    sps = set_partitions(n)
    assert len(set(sps)) == len(sps)
    for sp in sps:
        flat = sorted(x for b in sp for x in b)
        assert flat == list(range(1, n + 1))
        assert [b[0] for b in sp] == sorted(b[0] for b in sp)


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


def test_closed_Ft_of_no_s_values_is_one_over_Q():
    assert closed_Ft(3, (), QQ(2), 5) == QSeries.one(QQ_DOMAIN, 5)


# every public route that takes a truncation order, as a function of it,
# and the oracles that keep the checks they had as public routes: the t-core
# counts and the z-truncated Schur pair sums; the indices 10..12 are the
# theta series, which also take a half-integer Fraction
ORDER_ROUTES = [
    lambda N: brute_force_Ft(2, (S4,), N),
    lambda N: bloch_okounkov_F((S4,), N),
    lambda N: closed_Ft(2, (S4,), 1, N),
    lambda N: closed_Ft_r(2, (S4, S94), 1, N),
    lambda N: correlation_expansion(3, 0, (), N),
    lambda N: qdeformed_Z_sum(2, N),
    lambda N: qdeformed_Zn_sum(2, (S4,), N),
    lambda N: qdeformed_Z_product(2, N),
    lambda N: level_series(3, 1, 1, N),
    lambda N: eisenstein(1, N),
    lambda N: vartheta(ThetaArg(S4, QQ(2)), N),
    lambda N: theta3(ThetaArg(S4), N),
    lambda N: macmahon(1, 2, (0, 1), N),
    lambda N: t_core_product_series(3, N),
    lambda N: t_core_size_series(3, N),
    lambda N: schur_pair_sum_series((), (1,), 2, N),
]
HALF_ORDER_ROUTES = ORDER_ROUTES[10:13]


@pytest.mark.parametrize("route", ORDER_ROUTES)
def test_negative_order_is_rejected_at_the_boundary(route):
    with pytest.raises(ValueError, match="order must be nonnegative"):
        route(-1)


@pytest.mark.parametrize("route", ORDER_ROUTES, ids=range(len(ORDER_ROUTES)))
# the id "HalfExp" names the half-integer exponent 5/2
@pytest.mark.parametrize("bad", [2.0, 2.5, QQ(3), "3", True, QQ(5, 2), QQ(7, 3)],
                         ids=["float", "float-half", "Fraction", "str", "bool", "HalfExp",
                              "Fraction-third"])
def test_an_order_of_the_wrong_type_is_rejected_at_the_boundary(route, bad):
    if route in HALF_ORDER_ROUTES and isinstance(bad, QQ) and bad.denominator <= 2:
        assert route(bad).trunc2 == 2 * bad
        return
    with pytest.raises(ValueError, match=f"order must be an int.*not {type(bad).__name__}$"):
        route(bad)


# every public route that takes the core parameter t, as a function of it,
# and the t-core oracles, which keep the checks they had as routes
T_ROUTES = [
    lambda t: brute_force_Ft(t, (S4,), 3),
    lambda t: closed_Ft(t, (S4,), 1, 3),
    lambda t: closed_Ft_r(t, (S4, S94), 1, 3),
    lambda t: correlation_expansion(t, 1, (1,), 3),
    lambda t: level_series(t, 1, 2, 3),
    lambda t: enumerate_t_cores(t, 3),
    lambda t: is_t_core((2, 1), t),
    lambda t: t_core_size_series(t, 3),
    lambda t: t_core_product_series(t, 3),
    lambda t: extract_cor42(t, (S4,), QuadratureConfig.for_region((S4,), QQ(1, 100), M=4)),
]


@pytest.mark.parametrize("route", T_ROUTES, ids=range(len(T_ROUTES)))
@pytest.mark.parametrize("bad", [3.0, QQ(3), "3", True], ids=["float", "Fraction", "str", "bool"])
def test_a_t_of_the_wrong_type_is_rejected_at_the_boundary(route, bad):
    with pytest.raises(ValueError, match=f"t must be an int, not {type(bad).__name__}$"):
        route(bad)
    with pytest.raises(ValueError, match="t must be at least 2"):
        route(1)


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
    # on the literal determinant formula, where Q2 appears in every entry;
    # the product form that closed_Ft sums has no Q2 left in it
    reference = determinant_oracle.lifted(3, (S4, S94), 6, Q2=QQ(1))
    for q2 in (QQ(2), QQ(5, 3), QQ(-1)):
        other = determinant_oracle.lifted(3, (S4, S94), 6, Q2=q2)
        assert other.agrees_with(reference, 6)
    assert closed_Ft(3, (S4, S94), QQ(2), 6) == reference


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
    # a repeated label gives two equal determinant columns; the product form
    # has the factor vartheta(1) = 0 there and forms no such term
    kwargs = dict(t=3, s_values=(S4, S94), Q2=QQ(2), order=5)
    skipped = determinant_oracle.lifted(**kwargs)
    full = determinant_oracle.lifted(**kwargs, all_tuples=True)
    assert full.agrees_with(skipped, 5)
    assert closed_Ft(**kwargs) == skipped


def test_all_tuples_agree_with_translation_weights():
    # at t = 4 a label tuple with least label 1 stands for up to four
    # translates, so the weights of the grouped sum differ from 1
    svec = (S4, S94, S2516)
    brute = brute_force_Ft(4, svec, 4)
    for kwargs in (dict(Q2=QQ(2)), dict(r=2)):
        skipped = determinant_oracle.lifted(4, svec, 4, **kwargs)
        assert determinant_oracle.lifted(4, svec, 4, all_tuples=True, **kwargs) == skipped
        assert skipped.agrees_with(brute, 4)
    assert closed_Ft(4, svec, QQ(2), 4) == skipped


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


def truncated_to(value, order):
    """A QSeries, BiSeries or correlation table cut down to total order."""
    if isinstance(value, dict):
        return {key: truncated_to(series, order) for key, series in value.items()}
    if isinstance(value, BiSeries):
        order2 = 2 * order
        return BiSeries(
            value.dom, order2, {k: c for k, c in value.terms.items() if sum(k) <= order2}
        )
    return value.truncated(order)


@pytest.mark.parametrize("route", [
    lambda N: brute_force_Ft(3, (S4, S94), N),
    lambda N: bloch_okounkov_F((S4, S94), N),
    lambda N: correlation_expansion(3, 2, (2, 1), N),
    lambda N: qdeformed_Z_sum(QQ(3, 2), N),
    lambda N: qdeformed_Zn_sum(QQ(2), (S4,), N),
    lambda N: qdeformed_Z_product(QQ(2), N),
], ids=["brute_force_Ft", "bloch_okounkov_F", "correlation_expansion", "qdeformed_Z_sum",
        "qdeformed_Zn_sum", "qdeformed_Z_product"])
@pytest.mark.parametrize("order", [3, 4, 8])
def test_enumeration_and_deformed_routes_are_honest_about_truncation(route, order):
    for extra in (1, 2):
        assert truncated_to(route(order + extra), order) == route(order), extra


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


SIX_POINTS = (S4, S94, S2516, QQ(49, 36), QQ(121, 100), QQ(169, 144))


# (6, 6): 6^5 = 7776 labellings, within the 10000 terms the closed routes take;
# (9, 2): conductor 9 does not divide 105 2^32, so its primes come from a
# searched pool
@pytest.mark.parametrize("t,n,order", [(3, 3, 20), (5, 2, 12), (5, 3, 12), (6, 4, 8), (6, 6, 2),
                                       (9, 2, 6)])
def test_closed_route_matches_enumeration_deep(t, n, order):
    svec = SIX_POINTS[:n]
    closed = rational_series(closed_Ft(t, svec, QQ(5, 3), order))
    assert closed.agrees_with(brute_force_Ft(t, svec, order), order)


@pytest.mark.parametrize("route", [
    lambda s: closed_Ft(3, s, QQ(2), 3),
    lambda s: closed_Ft_r(3, s, 1, 3),
], ids=["closed_Ft", "closed_Ft_r"])
def test_closed_routes_refuse_nine_points_past_order_2(route, monkeypatch):
    # nine points at t = 3 take 925101 steps at order 2, within the budget,
    # and 3^8 terms of 190 steps each at order 3
    def no_lift(*args):
        raise AssertionError("the sum started")

    monkeypatch.setattr(npoint, "rational_lift", no_lift)
    assert closed_term_count(3, 9) * npoint._term_steps(9, 2) == 925_101 <= _MAX_STEPS
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"would take 1246590 steps.* 3\^8 terms of 190 steps"):
        route((S4,) * 9)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("route", [
    lambda s: closed_Ft(3, s, QQ(2), 2),
    lambda s: closed_Ft_r(3, s, 1, 2),
], ids=["closed_Ft", "closed_Ft_r"])
def test_closed_routes_refuse_many_points_at_once(route):
    # the term count is named, not expanded: 3^9999 has 4771 digits
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"3\^9999 \* 150015006 steps.* n = 10000, order 2"):
        route((S4,) * 10_000)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("t,n,terms", [(2, 2, 2), (3, 5, 81), (6, 5, 1296), (6, 6, 7776),
                                       (3, 9, 6561), (3, 0, 0)])
def test_closed_term_count(t, n, terms):
    assert closed_term_count(t, n) == terms and type(closed_term_count(t, n)) is int


@pytest.mark.parametrize("t", range(2, 8))
def test_closed_term_count_is_the_set_partition_sum_up_to_rotation(t):
    # sum_k S(n, k) (t - 1)!/(t - k)!: the set partitions into k blocks with
    # their tuples of k distinct labels in Z/t, block 1 labelled 0
    for n in range(1, 9):
        stirling = Counter(len(sp) for sp in set_partitions(n))
        assert sum(s * math.perm(t - 1, k - 1) for k, s in stirling.items()) == t ** (n - 1), n
        assert closed_term_count(t, n) == t ** (n - 1)


@pytest.mark.parametrize("t,n", [(2, 1), (3, 3), (4, 4), (5, 3)])
def test_closed_term_count_counts_the_terms(t, n):
    assert len(_closed_layout(t, n)) == closed_term_count(t, n)


@pytest.mark.parametrize("t", range(2, 7))
def test_closed_layout_is_the_set_partitions_into_at_most_t_blocks(t):
    for n in range(1, 9):
        if closed_term_count(t, n) > 10_000:  # the layouts stay small
            break
        layout = _closed_layout(t, n)
        fibres = Counter(masks for masks, _ in layout)
        # a k-block partition comes once per tuple of k distinct labels that
        # puts block 1 at 0
        assert fibres == {
            tuple(sum(1 << (x - 1) for x in block) for block in sp):
                math.perm(t - 1, len(sp) - 1)
            for sp in set_partitions(n)
            if len(sp) <= t
        }, n
        # and its steps are the differences of those labels
        steps: dict = {}
        for masks, step in layout:
            steps.setdefault(masks, []).append(step)
        for masks, got in steps.items():
            want = [
                tuple((lj - li) % t for li, lj in combinations((0, *rest), 2))
                for rest in permutations(range(1, t), len(masks) - 1)
            ]
            assert sorted(got) == sorted(want), (n, masks)


@pytest.mark.parametrize("route", [
    lambda s: closed_Ft(7, s, QQ(2), 2),
    lambda s: closed_Ft_r(7, s, 1, 2),
], ids=["closed_Ft", "closed_Ft_r"])
def test_closed_routes_refuse_too_many_terms_before_any_work(route, monkeypatch):
    def no_lift(*args):
        raise AssertionError("the sum started")

    monkeypatch.setattr(npoint, "rational_lift", no_lift)
    start = time.perf_counter()
    with pytest.raises(
        ValueError,
        match=r"would take 1159683 steps, more than the 1000000 it supports: at t = 7, n = 6, "
        r"order 2, 7\^5 terms of 69 steps each",
    ):
        route(SIX_POINTS)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("route", [
    lambda: closed_Ft(7, (4, QQ(9, 4)), 1, 10**4),
    lambda: closed_Ft_r(7, (4, QQ(9, 4)), 1, 10**4),
], ids=["closed_Ft", "closed_Ft_r"])
def test_closed_routes_refuse_a_deep_order_before_any_work(route, monkeypatch):
    # two points, but order 10^4: each of the 7 terms takes 50045004 steps
    def no_lift(*args):
        raise AssertionError("the sum started")

    monkeypatch.setattr(npoint, "rational_lift", no_lift)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"would take 350315028 steps.* 7\^1 terms of 50045004"):
        route()
    assert time.perf_counter() - start < 0.5


def test_the_closed_step_budget_admits_the_measured_calls():
    # t^(n - 1) terms of (order + 1)(order + 2 + n(n + 1))/2 steps each
    def steps(t, n, order):
        return closed_term_count(t, n) * npoint._term_steps(n, order)

    for (t, n, order), count in {
        (6, 6, 4): 933_120, (3, 9, 2): 925_101, (3, 3, 450): 941_688, (2, 2, 900): 818_108,
    }.items():
        assert steps(t, n, order) == count <= _MAX_STEPS
    for t, n, order in ((7, 6, 2), (6, 6, 5), (3, 9, 3), (3, 3, 500), (2, 2, 1000)):
        assert steps(t, n, order) > _MAX_STEPS


@pytest.mark.parametrize("t, n, order", [(2, 3, 6), (3, 2, 9), (3, 3, 4), (4, 3, 5)])
def test_the_term_steps_count_the_exp_products_and_the_factor_lists(t, n, order, monkeypatch):
    # every exp of the closed sum takes (order + 1)(order + 2)/2 products,
    # counted by an int subclass, and a term sums at most n(n + 1)/2 lists
    exp_mod = npoint._exp_mod
    counts = []

    def counted_exp(s, inv, modulus):
        taken = 0

        class Counted(int):
            def __mul__(self, other):
                nonlocal taken
                taken += 1
                return int(self) * int(other)

            def __rmul__(self, other):
                nonlocal taken
                taken += 1
                return Counted(int(other) * int(self))

        out = exp_mod([Counted(v) for v in s], inv, modulus)
        counts.append(taken)
        return out

    monkeypatch.setattr(npoint, "_exp_mod", counted_exp)
    closed_Ft(t, SIX_POINTS[:n], 1, order)
    assert counts and len(counts) % closed_term_count(t, n) == 0
    assert set(counts) == {(order + 1) * (order + 2) // 2}
    lists = max(len(masks) + len(steps) for masks, steps in _closed_layout(t, n))
    assert lists <= n * (n + 1) // 2
    assert counts[0] + lists * (order + 1) <= npoint._term_steps(n, order)


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


@pytest.mark.parametrize("r", [1.0, True, "1"])
def test_marked_subset_route_refuses_an_r_that_is_not_an_int(r):
    with pytest.raises(ValueError, match="r must be an int"):
        closed_Ft_r(3, (4, 9), r, 4)


# -- the three routes against each other ------------------------------------------


@pytest.mark.parametrize("t", [2, 3, 4])
def test_three_routes_agree_n2(t):
    # closed_Ft and closed_Ft_r sum the same product form, so it is their
    # agreement with the enumeration that checks the closed formula
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


@pytest.mark.parametrize("route", [
    lambda q: qdeformed_Z_sum(q, 3),
    lambda q: qdeformed_Zn_sum(q, (S4,), 3),
    lambda q: qdeformed_Z_product(q, 3),
])
@pytest.mark.parametrize("q", [float("inf"), float("-inf"), float("nan"), "two"], ids=repr)
def test_qdeformed_routes_reject_a_non_finite_base_by_name(route, q):
    with pytest.raises(ValueError, match="deformation base must be a finite rational number"):
        route(q)


def test_qdeformed_sum_refuses_oversized_orders_up_front(monkeypatch):
    def no_rows(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(npoint, "_schur_pair_sums", no_rows)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"at order 1000000, .* of size at most 0$"):
        qdeformed_Z_sum(2, 10**6)
    with pytest.raises(
        ValueError, match=r"qdeformed_Z_sum would take 1010295 steps.* of size at most 31$"
    ):
        qdeformed_Z_sum(2, 32)
    assert time.perf_counter() - start < 0.5
    # order 31, at 801374 Newton products, is the largest order under the budget
    assert npoint._vertex_steps(31) == (801_374, 31)


@pytest.mark.parametrize("q", [QQ(2), QQ(3, 2)])
def test_the_vertex_steps_bound_the_newton_products(q, monkeypatch):
    # every product a power sum takes in the Newton recurrences of the rows,
    # its rescalings to a common denominator included, counted by an int
    # subclass; the estimate charges every nu, though a row is computed once
    # per conjugate pair
    graded = symfunc._graded
    taken = 0

    class Counted(int):
        def __mul__(self, other):
            nonlocal taken
            taken += 1
            return Counted(int(self) * int(other))

        __rmul__ = __mul__

    def counted(rhs, steps, *args, **kwargs):
        steps = {k: {key: Counted(c) for key, c in step.items()} for k, step in steps.items()}
        return graded(rhs, steps, *args, **kwargs)

    monkeypatch.setattr(symfunc, "_graded", counted)
    for order in (8, 12, 16):
        taken = 0
        qdeformed_Z_sum(q, order)
        steps, _ = npoint._vertex_steps(order)
        assert taken <= steps < 1.6 * taken, order


@pytest.mark.parametrize("q", [QQ(2), QQ(3, 2)])
def test_qdeformed_product_is_the_factor_by_factor_product_and_the_sum(q):
    # one exp of the summed logarithm against the MacMahon factors multiplied
    # and divided one at a time, and against the vertex sum, odd orders included
    total = qdeformed_Z_sum(q, 8)
    for order in range(9):
        product = qdeformed_Z_product(q, order)
        assert product == average_oracle.qdeformed_Z_product(q, order), order
        assert product == truncated_to(total, order), order


@pytest.mark.parametrize("q", [QQ(2), QQ(3, 2)])
def test_qdeformed_sum_equals_the_product_at_order_12(q):
    # the sum admits order 31 (_vertex_steps), but takes seconds there
    assert qdeformed_Z_sum(q, 12) == qdeformed_Z_product(q, 12)


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
    order = 6
    for q in (QQ(2), QQ(3, 2)):
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
            assert lhs.terms.get(key, QQ(0)) == rhs.get(key, QQ(0)), (q, key)


@lru_cache(maxsize=None)
def vertex_terms(q, order_total):
    """Every signed vertex product of the deformed partition function with
    |mu| + |nu| <= order_total, as (nu, key, coefficient)."""
    out = []
    for d_nu in range(order_total + 1):
        for nu in partitions_of(d_nu):
            for d_mu in range(order_total - d_nu + 1):
                for mu in partitions_of(d_mu):
                    value = topological_vertex((), conjugate(mu), nu, q)
                    value = as_rational(value * topological_vertex((), mu, conjugate(nu), q))
                    sign = -1 if (d_mu + d_nu) % 2 else 1
                    out.append((nu, (2 * d_nu, 2 * d_mu), sign * value))
    return tuple(out)


@pytest.mark.parametrize("q", [QQ(2), QQ(3, 2), QQ(9, 4)])
def test_qdeformed_sum_is_the_signed_sum_of_vertex_products(q):
    # the integer pair sums against one topological_vertex call per factor
    order = 6
    terms: dict[tuple[int, int], QQ] = {}
    for _, key, coeff in vertex_terms(q, order):
        terms[key] = terms.get(key, QQ(0)) + coeff
    total = qdeformed_Z_sum(q, order)
    assert total == BiSeries(QQ_DOMAIN, 2 * order, terms)
    assert list(total.terms.items()) == list(terms.items())


def vertex_sum_average(q, s_values, order_total):
    """The deformed average as the ratio of two vertex sums, one weighted by
    the row-moment product: the oracle for the hook form of qdeformed_Zn_sum."""
    svals = s_vector(s_values)
    plain: dict[tuple[int, int], QQ] = {}
    weighted: dict[tuple[int, int], QQ] = {}
    for nu, key, coeff in vertex_terms(q, order_total):
        moment = math.prod((moment_by_rows(sv, nu) for sv in svals), start=QQ(1))
        plain[key] = plain.get(key, QQ(0)) + coeff
        weighted[key] = weighted.get(key, QQ(0)) + coeff * moment
    order2 = 2 * order_total
    return BiSeries(QQ_DOMAIN, order2, weighted) / BiSeries(QQ_DOMAIN, order2, plain)


@pytest.mark.parametrize("q", [QQ(2), QQ(3, 2), QQ(9, 4)])
@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("order", [5, 7])
def test_qdeformed_average_hook_form_matches_vertex_sums(q, n, order):
    # 9/4 is a perfect square, where the vertex values stay rational
    s_values = (S4, S94)[:n]
    assert qdeformed_Zn_sum(q, s_values, order) == vertex_sum_average(q, s_values, order)


def hook_sum_average(q, s_values, order_total):
    """The deformed average as the hook sums with and without the row-moment
    product, in Fractions, divided by the sum of the powers of the plain sum
    (series_oracle.bi_divide)."""
    svals = s_vector(s_values)
    plain: dict[tuple[int, int], QQ] = {}
    weighted: dict[tuple[int, int], QQ] = {}
    for size in range(order_total + 1):
        for nu in partitions_of(size):
            poly = [QQ(1)]  # by the power of Q1 beyond Q1^|nu| / Q1^|nu|
            for h in hook_lengths(nu).values():
                qh = rat_pow(q, h)
                factor = [-qh, 1 + qh * qh, -qh]  # (1 - qh Q1)(Q1 - qh)
                poly = [sum(poly[i] * factor[j - i] for i in range(len(poly)) if 0 <= j - i <= 2)
                        / (1 - qh) ** 2 for j in range(len(poly) + 2)]
            moment = math.prod((partition_moment(sv, nu) for sv in svals), start=QQ(1))
            for e1, c in enumerate(poly[:order_total - size + 1]):
                key = (2 * size, 2 * e1)
                plain[key] = plain.get(key, QQ(0)) + c
                weighted[key] = weighted.get(key, QQ(0)) + c * moment
    order2 = 2 * order_total
    return series_oracle.bi_divide(
        BiSeries(QQ_DOMAIN, order2, weighted), BiSeries(QQ_DOMAIN, order2, plain)
    )


def test_the_deformed_quotient_and_exp_equal_the_sums_of_powers_where_heights_grow(
    graded_runs, monkeypatch
):
    logs = []
    monkeypatch.setattr(npoint, "qexp", lambda log: logs.append(log) or qexp(log))
    product = qdeformed_Z_product(QQ(3, 2), 16)
    (log,) = logs
    assert product == series_oracle.qexp(log)
    assert product == average_oracle.qdeformed_Z_product(QQ(3, 2), 16)
    s_values = (S4, S94)
    assert qdeformed_Zn_sum(QQ(2), s_values, 9) == hook_sum_average(QQ(2), s_values, 9)
    # one exp and one division, each on integers at the heights of its values
    assert len(graded_runs) == 2
    for sigma, pieces in graded_runs:
        assert sigma is not None
        series_oracle.assert_reduced(pieces)


@pytest.mark.parametrize("s_values", [(S4,), (S4, S94)])
def test_qdeformed_average_at_q1_one_is_bloch_okounkov(s_values):
    # at Q1 = 1 every hook weight is 1 and the deformed average becomes the
    # average over all partitions in Q Q1; the Q^a coefficient is a
    # polynomial in Q1 of degree at most 2a, complete when 3a <= order
    order = 6
    zn = qdeformed_Zn_sum(QQ(2), s_values, order)
    average = bloch_okounkov_F(s_values, 2)
    for a in range(3):
        at_one = sum((zn.coeff(a, b) for b in range(2 * a + 1)), QQ(0))
        assert at_one == average.coeff(a), a


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


def theta_product(x, step: int, order: int) -> list:
    """prod_{b>=1} (1 - x Q^(b step))(1 - Q^(b step)/x) / (1 - Q^(b step))^2,
    its coefficients through Q^order."""
    c = [QQ(1)] + [QQ(0)] * order
    for k in range(step, order + 1, step):
        for z in (x, 1 / x):
            for i in range(order, k - 1, -1):
                c[i] -= z * c[i - k]
        for _ in range(2):
            for i in range(k, order + 1):
                c[i] += c[i - k]
    return c


@pytest.mark.parametrize("t, order", [(2, 100), (3, 100), (5, 80), (None, 24)],
                         ids=["t=2", "t=3", "t=5", "all partitions"])
def test_one_point_average_is_a_theta_quotient_deep(t, order):
    # F (s^(1/2) - s^(-1/2)) P(s; Q) = P(s^t; Q^t) for the t-core average, and
    # = 1 for the average over all partitions (Bloch-Okounkov), at an s of
    # the benchmark's height
    root = QQ(53, 37)
    s = root * root
    f = brute_force_Ft(t, (s,), order) if t else bloch_okounkov_F((s,), order)
    f = [f.coeff(k) for k in range(order + 1)]
    p = theta_product(s, 1, order)
    gap = root - 1 / root
    lhs = [gap * sum(f[i] * p[k - i] for i in range(k + 1)) for k in range(order + 1)]
    rhs = theta_product(s**t, t, order) if t else [QQ(1)] + [QQ(0)] * order
    assert lhs == rhs


# -- the integer averaging kernel ------------------------------------------------------


def numerators(order: int):
    """order + 1 rational numerators."""
    return st.lists(
        st.builds(QQ, st.integers(-10**12, 10**12), st.integers(1, 10**6)),
        min_size=order + 1, max_size=order + 1,
    )


def factors_and_numerators(order_max: int = 40):
    """An order, up to three sparse factors 1 + sum c Q^k with small integer
    coefficients, each multiplied or divided, and rational numerators."""
    def build(order):
        terms = st.dictionaries(
            st.integers(1, max(order, 1)), st.integers(-50, 50).filter(bool), max_size=6
        ).map(lambda found: sorted(found.items()))
        factors = st.lists(st.tuples(terms, st.booleans()), max_size=3)
        return st.tuples(st.just(order), factors, numerators(order))

    return st.integers(0, order_max).flatmap(build)


def as_series(coeffs, order):
    return QSeries(QQ_DOMAIN, 2 * order, {2 * e: QQ(c) for e, c in enumerate(coeffs)})


def divide_by_counts(nums, factors, order):
    den = math.lcm(*(QQ(c).denominator for c in nums))
    ints = [QQ(c).numerator * (den // QQ(c).denominator) for c in nums]
    return _divide_by_counts(ints, factors, den, order)


@lru_cache(maxsize=None)
def count_series(t, order: int = 300) -> QSeries:
    """The count series of the t-cores (t = None: of all partitions), from
    their products over Q; truncated from order 300, which is honest."""
    if order < 300:
        return count_series(t, 300).truncated(order)
    return t_core_product_series(t, order) if t else euler_product_series(order)


@settings(max_examples=60, deadline=None)
@given(factors_and_numerators())
def test_sparse_factors_match_series_products_and_quotients(case):
    # the kernel against QSeries products and qdiv, one factor at a time
    order, factors, nums = case
    reference = as_series(nums, order)
    for terms, divide in factors:
        terms = {2 * k: QQ(c) for k, c in terms if k <= order}
        factor = QSeries(QQ_DOMAIN, 2 * order, {0: QQ(1), **terms})
        reference = qdiv(reference, factor) if divide else reference * factor
    assert divide_by_counts(nums, factors, order) == reference


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([None, 2, 3, 4, 5, 6, 7]), st.integers(0, 40).flatmap(
    lambda order: st.tuples(st.just(order), numerators(order))))
def test_division_by_counts_matches_series_division(t, case):
    order, nums = case
    reference = qdiv(as_series(nums, order), count_series(t, order))
    assert divide_by_counts(nums, _count_factors(t, order), order) == reference


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6, 7, None])
def test_division_by_sparse_core_counts_matches_series_division(t):
    # each product form against series division by the count series, up to
    # the order of the deepest benchmark call; at t = 2 the only cores are
    # the staircases, so the counts are runs of zeros between single ones
    for order in (0, 1, 40, 300):
        nums = [QQ(k * k - 7, 12) for k in range(order + 1)]
        reference = qdiv(as_series(nums, order), count_series(t, order))
        assert divide_by_counts(nums, _count_factors(t, order), order) == reference


def test_average_reads_generator_groups_like_lists():
    # the per-partition oracle reads its groups either way, and the row walk
    # of bloch_okounkov_F gives the same average
    svals = s_vector((S4, S94))
    order = 9
    generators = {size: partitions_of(size) for size in range(order + 1)}
    lists = {size: list(partitions_of(size)) for size in range(order + 1)}
    reference = average_oracle.average(generators, svals, order)
    assert reference == average_oracle.average(lists, svals, order)
    assert bloch_okounkov_F(svals, order) == reference


# -- the walks against the per-object loops ------------------------------------------


def walked(walk):
    """The (size, column sums) of every charge vector of a charge walk."""
    return sorted(
        ((spent2 + cost2) // 2, tuple(map(add, head, end)))
        for spent2, head, ends in walk for cost2, end in ends
    )


# at t = 2 no track is left ahead of the last two, which are the whole walk
@pytest.mark.parametrize("order, t", [
    *((order, t) for t in range(2, 7) for order in (0, 1, 9)), (60, 2), (9, 7),
])
def test_charge_walk_sums_the_columns_of_every_charge_vector(t, order):
    def column(r, c):
        return (r + t * c, (2 * r + 1 + 2 * t * c) ** 3, 1)

    # every vector of a box that holds all affordable charges, sum 0 and
    # size <= order, with its columns summed directly
    reach = max(abs(c) for r in range(t) for _, c in _track_options(t, r, 2 * order))
    reference = []
    for head in product(range(-reach, reach + 1), repeat=t - 1):
        charges = head + (-sum(head),)
        size2 = sum(_track_cost2(t, r, c) for r, c in enumerate(charges))
        if size2 <= 2 * order:
            sums = tuple(map(sum, zip(*(column(r, c) for r, c in enumerate(charges)))))
            reference.append((size2 // 2, sums, charges))
    reference.sort()
    assert walked(_charge_walk(t, order, column)) == [(size, sums) for size, sums, _ in reference]
    assert walked(_charge_walk(t, order, lambda r, c: ())) == [(n, ()) for n, _, _ in reference]
    assert sorted(_charge_vectors(t, order)) == sorted((c, size) for size, _, c in reference)
    # every end a head reads completes it within the budget
    for spent2, _, ends in _charge_walk(t, order, column):
        assert ends and all(spent2 + cost2 <= 2 * order for cost2, _ in ends)


@pytest.mark.parametrize("order", [0, 1, 2, 7])
def test_row_walk_sums_the_columns_of_every_partition(order):
    def column(i, part):
        return (part, i * part, part**i)

    start = (5, 0, -1)
    reference = [0] * (order + 1)
    for size in range(order + 1):
        for nu in partitions_of(size):
            sums = list(start)
            for i, part in enumerate(nu, start=1):
                sums = [a + b for a, b in zip(sums, column(i, part))]
            reference[size] += math.prod(sums)
    assert _row_walk(order, column, start) == reference


@pytest.mark.parametrize("t", range(2, 7))
@pytest.mark.parametrize("n", range(4))
def test_walk_routes_equal_the_per_object_oracles(t, n):
    svals = (QQ(53, 37) ** 2, S94, S2516)[:n]
    for order in (0, 1, 6):
        assert brute_force_Ft(t, svals, order) == average_oracle.brute_force(t, svals, order)
    if t == 2:
        for order in (0, 1, 8):
            assert bloch_okounkov_F(svals, order) == average_oracle.bloch_okounkov(svals, order)


# the s-values of the benchmark's partition sums at its seeds 7 and 11
BENCH_S = {
    7: (QQ(61, 47) ** 2, QQ(53, 43) ** 2, QQ(59, 37) ** 2),
    11: (QQ(53, 47) ** 2, QQ(61, 43) ** 2, QQ(59, 37) ** 2),
}


@pytest.mark.parametrize("seed", sorted(BENCH_S))
@pytest.mark.parametrize("n, order", [(1, 20), (3, 16), (2, 16), (1, 40)])
def test_the_partition_walk_equals_the_core_walk_past_the_order(seed, n, order):
    # every partition of size at most N is an (N + 1)-core, so the row walk
    # of bloch_okounkov_F and the charge walk of brute_force_Ft average the
    # same partitions
    svals = BENCH_S[seed][:n]
    assert bloch_okounkov_F(svals, order) == brute_force_Ft(order + 1, svals, order)


@pytest.mark.parametrize("t", range(2, 7))
@pytest.mark.parametrize("order", [0, 1, 9, 60])
def test_balanced_options_are_the_charges_of_the_cores(t, order):
    # brute_force_Ft tabulates s^e over [t min c, t max c + t - 1] for the
    # charges its tracks keep: exactly those of the cores, track by track
    vectors = [c for c, _ in _charge_vectors(t, order)]
    options = _balanced_options(t, 2 * order)
    for r in range(t):
        assert sorted(c for _, c in options[r]) == sorted({v[r] for v in vectors}), r
    charges = [c for opts in options for _, c in opts]
    assert (min(charges), max(charges)) == (min(map(min, vectors)), max(map(max, vectors)))
    svals = s_vector((QQ(53, 37) ** 2, S94))
    assert brute_force_Ft(t, svals, order) == average_oracle.brute_force(t, svals, order)


def test_brute_force_at_the_benchmark_orders_equals_the_oracle():
    # the oracle takes its table range from the cores it walks
    svals = s_vector((QQ(53, 37) ** 2, QQ(59, 41) ** 2))
    assert brute_force_Ft(3, svals[:1], 120) == average_oracle.brute_force(3, svals[:1], 120)
    assert brute_force_Ft(4, svals, 40) == average_oracle.brute_force(4, svals, 40)


# -- refusals of oversized enumerations ----------------------------------------------


@pytest.mark.parametrize("call, count", [
    (lambda: bloch_okounkov_F((4,), 10_000), r"size at most 49 and 1078839 steps of the division"),
    (lambda: brute_force_Ft(2, (4,), 10**6), r"1414 charge vectors and 941810658 steps"),
    (lambda: qdeformed_Zn_sum(2, (4,), 60), r"635376 steps of the division"),
    (lambda: qdeformed_Z_product(2, 98), r"1023728 steps.* at order 98, an estimate of the products"),
    (lambda: qdeformed_Z_product(2, 10**9), r"166666667166666667000000000 steps"),
    (lambda: correlation_expansion(3, 1, (2,), 10**5), r"about \d+ charge vectors"),
    (lambda: correlation_expansion(6, 2, (100, 100), 400),
     r"5389731478 steps to weigh 5151 multisets of indices and fill 10201 slots"),
], ids=["bloch_okounkov_F", "brute_force_Ft", "qdeformed_Zn_sum", "qdeformed_Z_product",
        "qdeformed_Z_product_huge", "correlation_expansion", "correlation_slots"])
def test_oversized_enumerations_are_refused_up_front_with_a_count(call, count):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=count):
        call()
    assert time.perf_counter() - start < 0.5


def test_the_product_step_estimate_bounds_the_exp_and_admits_order_97():
    # the estimate is an upper bound on the products the exp of the log
    # takes, exact while the pieces of the exp are dense
    for order, products in ((2, 9), (3, 25), (8, 370), (12, 1229)):
        assert products <= npoint._product_steps(order) < 1.1 * products + 25
    assert npoint._product_steps(97) <= _MAX_STEPS < npoint._product_steps(98)
    for order in range(50):
        assert math.comb(order + 2, 3) <= npoint._product_steps(order)


def test_the_step_bound_admits_the_largest_calls_in_use():
    # the benchmark's t-core calls, the deep one-point test, the correlation
    # table of nine slots at t = 7 that the roadmap times, and the tables of
    # correlation_expansion(3, 1, (12,), 300) and (3, 2, (6, 6), 300)
    for t, order, slots in (
        (3, 300, 1), (4, 120, 1), (5, 80, 1), (3, 100, 6), (7, 60, 9), (3, 300, 13), (3, 300, 28),
    ):
        assert npoint._core_steps(t, order, slots)[0] <= _MAX_STEPS
    assert npoint._partitions_through(24, _MAX_STEPS)[0] + 25 * 24 < _MAX_STEPS
    # 363 estimated charge vectors and 7931 steps of the division, per sum
    assert npoint._core_estimate(3, 300) + npoint._division_steps(3, 300) == 8294


def kernel_steps(t, order: int) -> int:
    """The sums and differences _through_factors takes on the factors of
    _count_factors(t, order), counted by an int subclass."""
    taken = 0

    class Counted(int):
        def __add__(self, other):
            nonlocal taken
            taken += 1
            return Counted(int(self) + int(other))

        def __sub__(self, other):
            nonlocal taken
            taken += 1
            return Counted(int(self) - int(other))

        def __rmul__(self, other):
            return Counted(int(other) * int(self))

    _through_factors([Counted(e + 1) for e in range(order + 1)], _count_factors(t, order), order)
    return taken


def euler_power_coeffs(t: int, degree: int) -> list[int]:
    """The coefficients of prod (1 - x^n)^t through x^degree, factor by factor."""
    coeffs = [1] + [0] * degree
    for n in range(1, degree + 1):
        for _ in range(t):
            for e in range(degree, n - 1, -1):
                coeffs[e] -= coeffs[e - n]
    return coeffs


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6, 7, None])
def test_division_steps_count_the_kernels_steps(t):
    # exact for Gauss's series, Euler's and Jacobi's; E(Q^t)^t for t >= 4 is
    # charged at every power of Q^t, so also at its zero coefficients
    for order in range(0, 201, 7):
        charged = npoint._division_steps(t, order)
        zeros = 0
        if t and t >= 4:
            coeffs = euler_power_coeffs(t, order // t)
            zeros = sum(order - t * j + 1 for j, c in enumerate(coeffs) if j and not c)
        assert charged == kernel_steps(t, order) + zeros, order


@pytest.mark.parametrize("t, dense", [(2, 4624), (3, 24620)])
def test_count_division_takes_no_more_steps_than_the_dense_counts(t, dense):
    # dividing by the count series itself takes a step at each Q^e for each
    # size 1 <= k <= e that has a core; the factor forms take no more
    counts = [t_core_product_series(t, 300).coeff(k) for k in range(301)]
    assert counts[:25] == [t_core_size_series(t, 24).coeff(k) for k in range(25)]
    for order in (0, 1, 7, 50, 300):
        steps = sum(1 for e in range(order + 1) for k in range(1, e + 1) if counts[k])
        assert kernel_steps(t, order) <= steps
    assert steps == dense
    assert kernel_steps(t, 300) == {2: 4624, 3: 7931}[t]


def test_core_estimate_is_exact_at_t_2():
    # the 2-cores are the staircases, one of each triangular size
    for order in range(400):
        assert _core_estimate(2, order) == sum(1 for _ in _charge_vectors(2, order)), order
    assert _core_estimate(2, 10**6) == 1414


@pytest.mark.parametrize("t, order", [
    (2, 40), (3, 60), (4, 30), (5, 24), (6, 16), (9, 8), (12, 12), (40, 9),
])
def test_core_estimate_is_near_the_count(t, order):
    count = sum(1 for _ in _charge_vectors(t, order))
    assert abs(_core_estimate(t, order) - count) <= max(3, count // 4)


@pytest.mark.parametrize("t, order, cores", [
    pytest.param(2, 30, enumerate_t_cores, id="2-30"),
    pytest.param(3, 24, enumerate_t_cores, id="3-24"),
    pytest.param(4, 16, enumerate_t_cores, id="4-16"),
    # the cores found by the hook predicate over all partitions, apart from
    # the charge vectors brute_force_Ft walks
    pytest.param(2, 24, filtered_t_cores, id="2-24-filter"),
    pytest.param(3, 20, filtered_t_cores, id="3-20-filter"),
    pytest.param(4, 16, filtered_t_cores, id="4-16-filter"),
    pytest.param(5, 14, filtered_t_cores, id="5-14-filter"),
])
def test_average_matches_the_rational_series_quotient(t, order, cores):
    # the sum of the rational moment products divided as series over Q
    svals = s_vector((QQ(53, 37) ** 2, S94))
    groups = cores(t, order)
    num = {2 * size: sum((moment_product(svals, nu) for nu in group), QQ(0))
           for size, group in groups.items()}
    den = {2 * size: QQ(len(group)) for size, group in groups.items()}
    reference = qdiv(QSeries(QQ_DOMAIN, 2 * order, num), QSeries(QQ_DOMAIN, 2 * order, den))
    assert brute_force_Ft(t, svals, order) == reference


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
    e2t = substituted_power(eisenstein(1, order // t), t)
    reference = e2 - e2t.map_coeffs(lambda c: c * QQ(t * t))
    difference = table[(2,)] - reference
    nonconstant = {e: c for e, c in difference.terms.items() if e != 0}
    assert not nonconstant


@pytest.mark.parametrize("t", range(2, 8))
def test_correlation_slots_at_one_point_are_eisenstein_exponentials(t):
    # z F_t(e^z) = [z / (e^(z/2) - e^(-z/2))] exp(sum_(l even >= 2) c_l z^l), with
    # c_l = (2/l!) (G_l(Q) - t^l G_l(Q^t)) less its constant and G_l the
    # Eisenstein series of weight l: every slot through z^12 and Q^30 is a
    # polynomial in the G_l(Q) and G_l(Q^t), the quasimodularity at n = 1
    order, top = 30, 12
    table = correlation_expansion(t, 1, (top,), order)
    zero = QSeries.zero(QQ_DOMAIN, order)
    logs = [zero] * (top + 1)
    for l in range(2, top + 1, 2):
        g = eisenstein(l // 2, order)
        g_t = substituted_power(g, t).truncated(order)
        c = g - g_t.map_coeffs(lambda v: v * t**l)
        c = QSeries(QQ_DOMAIN, 2 * order, {e: v for e, v in c.terms.items() if e})
        logs[l] = c.map_coeffs(lambda v: v * QQ(2, math.factorial(l)))
    # exp of sum_l logs[l] z^l, one z-degree at a time: k E_k = sum_j j C_j E_(k-j)
    exps = [QSeries.one(QQ_DOMAIN, order)]
    for k in range(1, top + 1):
        acc = sum((logs[j] * exps[k - j] * j for j in range(2, k + 1, 2)), zero)
        exps.append(acc.map_coeffs(lambda v: v / k))
    # z / (e^(z/2) - e^(-z/2)), the inverse of sum_(k even) z^k / (2^k (k+1)!)
    tdom = TaylorDomain(QQ_DOMAIN, top)
    sinh = TaylorZ(tdom, [QQ(1 - k % 2, 2**k * math.factorial(k + 1)) for k in range(top + 1)])
    scale = sinh.inverse()
    for l in range(top + 1):
        want = sum((exps[l - m] * scale.coeff(m) for m in range(l + 1)), zero)
        assert table[(l,)] == want, l


def test_correlation_f2_matches_laurent_fit_of_enumeration():
    # evaluate the defining average numerically at s = exp(z) for small z,
    # fit the Laurent expansion in z, and compare the z^1 slot against the
    # exact table; this ties the Taylor bookkeeping to the raw definition
    t, q_order = 3, 3
    table = correlation_expansion(t, 1, (2,), q_order)
    with mpmath.workdps(60):
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


@pytest.mark.parametrize("n, l_orders, name, kind", [
    (2, (2.5, 2), "each l-order", "float"),
    (2, ("2", 2), "each l-order", "str"),
    (1, (None,), "each l-order", "NoneType"),
    (2, (2, True), "each l-order", "bool"),
    (2.0, (2, 2), "n", "float"),
    (True, (2,), "n", "bool"),
])
def test_correlation_refuses_an_n_or_l_order_that_is_not_an_int(n, l_orders, name, kind):
    with pytest.raises(ValueError, match=f"^{name} must be an int, not {kind}$"):
        correlation_expansion(3, n, l_orders, 6)


def test_correlation_refuses_l_orders_that_are_not_iterable_by_name():
    with pytest.raises(ValueError, match="^the l-orders must be an iterable of ints, got 2$"):
        correlation_expansion(3, 1, 2, 6)


def correlation_by_rows(t, l_orders, q_order):
    """The correlation table from the rows of every enumerated core: one
    Taylor series G(z) = z * moment at s = e^z per core, the product of its
    coefficients summed per slot, and the sums divided as series over Q."""
    l_max = max(l_orders)
    tdom = TaylorDomain(QQ_DOMAIN, l_max)
    exp_ratio = TaylorZ(tdom, [QQ(1, math.factorial(k + 1)) for k in range(l_max + 1)])
    tail_core = exp_ratio.inverse()  # z / (e^z - 1)
    zvar = TaylorZ.variable(tdom)
    keys = list(product(*(range(l + 1) for l in l_orders)))
    groups = enumerate_t_cores(t, q_order)
    sums = {key: {} for key in keys}
    for size, group in groups.items():
        for nu in group:
            taylor = TaylorZ(tdom, [QQ(0)] * (l_max + 1))
            for i, part in enumerate(nu, start=1):
                taylor = taylor + zvar * TaylorZ.exp_of(tdom, QQ(2 * (part - i) + 1, 2))
            taylor = taylor + TaylorZ.exp_of(tdom, QQ(1 - 2 * len(nu), 2)) * tail_core
            g = [taylor.coeff(k) for k in range(l_max + 1)]
            for key in keys:
                weight = math.prod((g[l] for l in key), start=QQ(1))
                sums[key][2 * size] = sums[key].get(2 * size, QQ(0)) + weight
    counts = QSeries(QQ_DOMAIN, 2 * q_order,
                     {2 * size: QQ(len(group)) for size, group in groups.items()})
    return {key: qdiv(QSeries(QQ_DOMAIN, 2 * q_order, row), counts) for key, row in sums.items()}


@pytest.mark.parametrize("t", [2, 3, 4, 5])
@pytest.mark.parametrize("l_orders", [(0,), (4,), (3, 1), (0, 4), (2, 1, 3)],
                         ids=lambda l: "l=" + ",".join(map(str, l)))
def test_correlation_matches_the_row_taylor_form(t, l_orders):
    # every slot, the odd ones and l = 0 included, against the per-row Taylor
    # series of the enumerated cores
    q_order = 12 if len(l_orders) < 3 else 8
    table = correlation_expansion(t, len(l_orders), l_orders, q_order)
    reference = correlation_by_rows(t, l_orders, q_order)
    assert list(table) == list(reference)
    assert table == reference


def correlation_by_cores(t, l_orders, q_order):
    """The correlation table one charge vector at a time: each core's Taylor
    coefficients g_l from its power sums P_k, the product of the g_l of
    each slot summed per size, and the sums divided as series by the cores
    counted."""
    l_max = max(l_orders)
    beta = [bernoulli(m) * rat_pow(t, m - 1) / math.factorial(m) for m in range(l_max + 1)]
    keys = list(product(*(range(l + 1) for l in l_orders)))
    sums = {key: [QQ(0)] * (q_order + 1) for key in keys}
    counts = [0] * (q_order + 1)
    for charges, size in _charge_vectors(t, q_order):
        a = [2 * r + 1 + 2 * t * c for r, c in enumerate(charges)]
        power = [sum(x**k for x in a) for k in range(l_max + 1)]
        g = [sum(beta[l - k] * QQ(power[k], 2**k * math.factorial(k)) for k in range(l + 1))
             for l in range(l_max + 1)]
        for key in keys:
            sums[key][size] += math.prod((g[l] for l in key), start=QQ(1))
        counts[size] += 1
    return {key: qdiv(as_series(row, q_order), as_series(counts, q_order))
            for key, row in sums.items()}


@pytest.mark.parametrize("t, l_orders, q_order", [(7, (4, 4), 40), (5, (2, 2, 2), 30)])
def test_correlation_products_by_parent_multiset_match_the_cores(t, l_orders, q_order):
    # the route builds each multiset's product of power sums from its
    # parent's; here each core's slot products are formed from nothing
    table = correlation_expansion(t, len(l_orders), l_orders, q_order)
    assert table == correlation_by_cores(t, l_orders, q_order)


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_enumeration_routes_at_order_zero(t):
    # only the empty core: its moment products, and the empty table at n = 0
    svals = s_vector((S4, S94))
    empty = math.prod((partition_moment(sv, ()) for sv in svals), start=QQ(1))
    assert brute_force_Ft(t, svals, 0) == QSeries(QQ_DOMAIN, 0, {0: empty})
    assert correlation_expansion(t, 2, (2, 3), 0) == correlation_by_rows(t, (2, 3), 0)
    assert correlation_expansion(t, 0, (), 0) == {(): QSeries.one(QQ_DOMAIN, 0)}
    assert brute_force_Ft(t, (), 0) == QSeries.one(QQ_DOMAIN, 0)


def test_correlation_slots_past_l_256_hold_the_empty_core():
    # at Q^0 only the empty core is averaged, and its G(z) is z/(2 sinh(z/2))
    # = sum_l (2^(1 - l) - 1) B_l z^l / l! at every t; the Bernoulli numbers
    # behind the weights once thrashed a 256-entry cache here
    start = time.perf_counter()
    table = correlation_expansion(3, 1, (400,), 0)
    assert time.perf_counter() - start < 2
    numbers = bernoulli_numbers(400)
    for l in (0, 1, 2, 12, 257, 258, 400):
        want = (QQ(2) ** (1 - l) - 1) * numbers[l] / math.factorial(l)
        assert table[(l,)] == QSeries(QQ_DOMAIN, 0, {0: want} if want else {}), l


def test_correlation_refuses_oversized_tables_up_front(monkeypatch):
    # (2^17 - 1)(30 + 1) steps to weigh the 17 multisets of sixteen indices
    # k_j <= 1, each as 2^(number of ones) weights, and 2^16 table entries
    # exceed the budget; the refusal names them and comes before any average
    # is divided out
    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(npoint, "_divide_by_counts", no_table)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=(
        r"would take 4128741 steps.* to weigh 17 multisets of indices and fill 65536 slots"
    )):
        correlation_expansion(3, 16, (1,) * 16, 30)
    with pytest.raises(ValueError, match=(
        r"would take 6631952 steps.* to weigh 2080 multisets of indices and fill 4096 slots"
    )):
        correlation_expansion(3, 2, (63, 63), 2)
    assert time.perf_counter() - start < 0.5


def test_correlation_weighs_each_multiset_once_and_admits_thirteen_points():
    # the 14 multisets of (1,) * 13 at order 30 take (2^14 - 1)(30 + 1)
    # steps of weights, one per multiset and not one per slot, and 2^13 table
    # entries.  The index-0 factor g_0 is 1, so a slot with one index 1 is
    # the one-point slot (1,)
    steps, detail = npoint._correlation_steps(3, (1,) * 13, 30)
    assert steps == 14 * (37 + 222) + (2**14 - 1) * 31 + 2**13 + 4 == 519_695 <= _MAX_STEPS
    assert "for each of 14 sums" in detail
    start = time.perf_counter()
    table = correlation_expansion(3, 13, (1,) * 13, 30)
    assert time.perf_counter() - start < 0.5
    assert len(table) == 2**13
    one_point = correlation_expansion(3, 1, (1,), 30)[(1,)]
    for i in (0, 6, 12):
        key = tuple(int(j == i) for j in range(13))
        assert table[key] == one_point


def test_the_correlation_step_budget_admits_the_tables_in_use():
    # the 28 sums of (6, 6) at order 300, each over about 363 charge vectors
    # and 7931 steps of the division, 462 (300 + 1) weights of the 28
    # multisets k_1 <= k_2 <= 6, 49 table entries and 49 Bernoulli weights
    steps, detail = npoint._correlation_steps(3, (6, 6), 300)
    assert steps == 28 * (363 + 7931) + 462 * 301 + 49 + 49 == 371_392
    assert "for each of 28 sums" in detail
    for t, l_orders, q_order in ((7, (4, 4), 100), (3, (12,), 300), (3, (5, 5, 5), 60)):
        assert npoint._correlation_steps(t, l_orders, q_order)[0] <= _MAX_STEPS


@pytest.mark.parametrize("l_orders", [(0,), (5,), (3, 1), (0, 4, 0), (2, 2, 2), (1, 3, 2, 4)])
def test_multiset_count_counts_the_sorted_index_tuples(l_orders):
    keys = product(*(range(l + 1) for l in l_orders))
    kinds = {tuple(sorted(ks)) for ks in keys}
    assert npoint._multiset_sum(l_orders, lambda k: 1) == len(kinds)
    weights = sum(math.prod(k + 1 for k in ks) for ks in kinds)
    assert npoint._multiset_sum(l_orders, lambda k: k + 1) == weights


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
    assert "terms" not in payload
