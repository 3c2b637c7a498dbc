"""Schur evaluations: power sums, Jacobi-Trudi vs hooks, vertex symmetry."""

import math
import random
from functools import lru_cache

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcore import symfunc
from tcore._rat import QQ, rat, rat_pow
from tcore.npoint import qdeformed_Z_sum
from tcore.partitions import conjugate, contains, hook_lengths, kappa, n_weight, partitions_of
from tcore.quadext import sqrt_field
from tcore.symfunc import SpecPoint, skew_schur, topological_vertex

import schur_oracle
from schur_oracle import hook_pair_product_series, schur_hook_eval, schur_pair_sum_series

# -- oracles: power sums and h at the point, and a determinant over a field ----


def power_sum(spec, k):
    """p_k at the point: the shifted head plus the geometric tail."""
    return symfunc._lift(spec.q, k, symfunc._power_sum_y(spec, k))


@lru_cache(maxsize=None)
def homogeneous_y(spec, r):
    """h_r at y by Newton's identities over Fractions, one value at a time."""
    if r == 0:
        return QQ(1)
    acc = sum((symfunc._power_sum_y(spec, k) * homogeneous_y(spec, r - k)
               for k in range(1, r + 1)), QQ(0))
    return acc / r


def complete_homogeneous(spec, r):
    """h_r at the point; h_0 is 1."""
    return symfunc._lift(spec.q, r, homogeneous_y(spec, r))


def field_det(rows, zero, one):
    """Determinant by Gaussian elimination over an exact field."""
    n = len(rows)
    work = [list(r) for r in rows]
    det = one
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return zero
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        pv = work[col][col]
        det = det * pv
        inv = one / pv
        for r in range(col + 1, n):
            factor = work[r][col] * inv
            if factor:
                for c in range(col, n):
                    work[r][c] = work[r][c] - factor * work[col][c]
    return det


partitions_strategy = st.lists(st.integers(1, 6), max_size=5).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_spec_point_validation():
    with pytest.raises(ValueError):
        SpecPoint(rat(1, 2))
    with pytest.raises(ValueError):
        SpecPoint(4, (1, 2))


@pytest.mark.parametrize("call", [
    lambda q: SpecPoint(q),
    lambda q: schur_hook_eval((1,), q),
    lambda q: topological_vertex((), (1,), (), q),
    lambda q: schur_pair_sum_series((), (1,), q, 3),
    lambda q: hook_pair_product_series((), (1,), q, 3),
])
def test_base_below_minus_one_is_rejected_up_front(call):
    # |q| > 1 admits q = -2, which has no square root in Q(sqrt(q))
    with pytest.raises(ValueError, match="q > 1"):
        call(-2)


@pytest.mark.parametrize("series", [schur_pair_sum_series, hook_pair_product_series])
def test_pair_series_reject_negative_order(series):
    with pytest.raises(ValueError, match="order must be nonnegative"):
        series((), (1,), QQ(2), -1)


def test_power_sum_empty_shift_closed_form():
    # 1/(q^{k/2} - q^{-k/2}) with q = 4
    spec = SpecPoint(4)
    assert power_sum(spec, 1) == rat(2, 3)
    assert power_sum(spec, 2) == rat(4, 15)
    assert power_sum(spec, 3) == rat(8, 63)


def test_power_sum_shifted_frozen():
    assert power_sum(SpecPoint(4, (1,)), 1) == rat(13, 6)


def test_power_sum_against_truncated_numeric_sum():
    spec = SpecPoint(9)
    with mpmath.workdps(60):
        for k in (1, 2, 3):
            exact = mpmath.mpf(power_sum(spec, k).numerator) / mpmath.mpf(
                power_sum(spec, k).denominator
            )
            numeric = mpmath.fsum(
                mpmath.mpf(9) ** (k * (mpmath.mpf(1) / 2 - i)) for i in range(1, 201)
            )
            assert abs(exact - numeric) < mpmath.mpf("1e-30")


def test_complete_homogeneous_frozen():
    spec = SpecPoint(4)
    assert complete_homogeneous(spec, 0) == 1
    assert complete_homogeneous(spec, 1) == power_sum(spec, 1)
    # (p1^2 + p2)/2 = (4/9 + 4/15)/2
    assert complete_homogeneous(spec, 2) == rat(16, 45)


def test_skew_schur_trivial_cases():
    spec = SpecPoint(4, (2, 1))
    for lam in ((), (1,), (3, 1, 1)):
        assert skew_schur(lam, lam, spec) == 1
    assert skew_schur((1,), (2,), spec) == 0
    assert skew_schur((2, 2), (1, 1, 1), spec) == 0


def test_single_box_schur_value():
    # q^{-1/2}/(1 - q^{-1}) at q = 4
    assert skew_schur((1,), (), SpecPoint(4)) == rat(2, 3)
    assert schur_hook_eval((1,), 4) == rat(2, 3)


def test_hook_formula_matches_determinant():
    for q in (QQ(2), rat(3, 2)):
        spec = SpecPoint(q)
        for n in range(7):
            for lam in partitions_of(n):
                assert schur_hook_eval(lam, q) == skew_schur(lam, (), spec), (lam, q)


@settings(max_examples=40, deadline=None)
@given(partitions_strategy, partitions_strategy)
def test_schur_values_positive_at_positive_points(lam, shift):
    # every variable in the point is a positive rational at q = 4
    value = skew_schur(lam, (), SpecPoint(4, shift))
    assert value > 0


def test_vertex_frozen_values():
    assert topological_vertex((), (), (), 4) == 1
    assert topological_vertex((), (), (1,), 4) == rat(2, 3)
    assert topological_vertex((), (), (1,), 2) == schur_hook_eval((1,), 2)


def test_vertex_cyclic_symmetry_small():
    shapes = [(), (1,), (2,), (1, 1)]
    for lam in shapes:
        for mu in shapes:
            for nu in shapes:
                a = topological_vertex(lam, mu, nu, 4)
                b = topological_vertex(mu, nu, lam, 4)
                c = topological_vertex(nu, lam, mu, 4)
                assert a == b == c, (lam, mu, nu)


def test_vertex_cyclic_symmetry_irrational_base():
    lam, mu, nu = (2,), (1, 1), (1,)
    a = topological_vertex(lam, mu, nu, 2)
    b = topological_vertex(mu, nu, lam, 2)
    assert a == b


def test_pair_sum_matches_row_product():
    pairs = [
        ((), ()),
        ((1,), ()),
        ((), (2,)),
        ((2, 1), (3, 1)),
        ((2, 2), (1, 1, 1)),
        ((1, 1), (2,)),
    ]
    for nu1, nu2 in pairs:
        lhs = schur_pair_sum_series(nu1, nu2, QQ(2), 6)
        rhs = hook_pair_product_series(nu1, nu2, QQ(2), 6)
        assert lhs == rhs, (nu1, nu2)


# -- the Q(sqrt q) evaluation: the oracle for the rational evaluator ------------


def sqrt_power_sum(spec, k):
    sq, lift = sqrt_field(spec.q)
    total = lift(0)
    for i, part in enumerate(spec.shift, start=1):
        total = total + sq ** (k * (2 * part - 2 * i + 1))
    tail_scale = lift(1 - rat_pow(spec.q, -k))
    return total + sq ** (-k * (2 * len(spec.shift) + 1)) / tail_scale


@lru_cache(maxsize=None)
def sqrt_complete_homogeneous(spec, r):
    _, lift = sqrt_field(spec.q)
    if r == 0:
        return lift(1)
    acc = lift(0)
    for k in range(1, r + 1):
        acc = acc + sqrt_power_sum(spec, k) * sqrt_complete_homogeneous(spec, r - k)
    return acc / lift(r)


def sqrt_skew_schur(lam, eta, spec):
    _, lift = sqrt_field(spec.q)
    if not contains(lam, eta):
        return lift(0)
    n = len(lam)
    if n == 0:
        return lift(1)
    eta_pad = eta + (0,) * (n - len(eta))
    rows = [
        [sqrt_complete_homogeneous(spec, lam[i] - eta_pad[j] - i + j)
         if lam[i] - eta_pad[j] - i + j >= 0 else lift(0) for j in range(n)]
        for i in range(n)
    ]
    return field_det(rows, lift(0), lift(1))


def sqrt_schur_hook_eval(lam, q):
    sq, lift = sqrt_field(q)
    out = sq ** (-(2 * n_weight(lam) + sum(lam)))
    for h in hook_lengths(lam).values():
        out = out / lift(1 - rat_pow(q, -h))
    return out


def sqrt_topological_vertex(lam, mu, nu, q):
    _, lift = sqrt_field(q)
    lam_t, nu_t = conjugate(lam), conjugate(nu)
    spec_nu, spec_nut = SpecPoint(q, nu), SpecPoint(q, nu_t)
    total = lift(0)
    for size in range(min(sum(lam), sum(mu)) + 1):
        for eta in partitions_of(size):
            term = sqrt_skew_schur(lam_t, eta, spec_nu) * sqrt_skew_schur(mu, eta, spec_nut)
            total = total + term
    half_kappa = (kappa(lam) + kappa(nu)) // 2
    return lift(rat_pow(q, half_kappa)) * sqrt_schur_hook_eval(nu_t, q) * total


SHIFTS = [(), (1,), (2, 1), (3, 1, 1), (2, 2)]
NON_SQUARE_BASES = [QQ(2), QQ(3, 2)]


@pytest.mark.parametrize("q", NON_SQUARE_BASES)
def test_power_sums_and_h_match_the_sqrt_field_evaluation(q):
    for shift in SHIFTS:
        spec = SpecPoint(q, shift)
        for k in range(1, 7):
            assert power_sum(spec, k) == sqrt_power_sum(spec, k), (shift, k)
        for r in range(7):
            assert complete_homogeneous(spec, r) == sqrt_complete_homogeneous(spec, r), (shift, r)


@pytest.mark.parametrize("q", NON_SQUARE_BASES)
def test_schur_values_match_the_sqrt_field_evaluation(q):
    for shift in SHIFTS:
        spec = SpecPoint(q, shift)
        for size in range(6):
            for lam in partitions_of(size):
                for eta_size in range(size + 1):
                    for eta in partitions_of(eta_size):
                        got = skew_schur(lam, eta, spec)
                        assert got == sqrt_skew_schur(lam, eta, spec), (shift, lam, eta)
    for size in range(8):
        for lam in partitions_of(size):
            assert schur_hook_eval(lam, q) == sqrt_schur_hook_eval(lam, q), lam


@pytest.mark.parametrize("q", NON_SQUARE_BASES)
def test_vertex_matches_the_sqrt_field_evaluation(q):
    shapes = [lam for size in range(4) for lam in partitions_of(size)]
    for lam in shapes:
        for mu in shapes:
            for nu in shapes:
                got = topological_vertex(lam, mu, nu, q)
                assert got == sqrt_topological_vertex(lam, mu, nu, q), (lam, mu, nu)


def test_deformed_sum_builds_no_determinant_or_h_table(monkeypatch):
    # the pair sums are one Newton recurrence per shift nu, so the deformed
    # sum neither fills the h-table cache nor runs an integer determinant
    calls = []
    bareiss = symfunc._bareiss_det
    monkeypatch.setattr(symfunc, "_bareiss_det", lambda rows: calls.append(rows) or bareiss(rows))
    symfunc._h_table.cache_clear()
    qdeformed_Z_sum(QQ(2), 8)
    assert calls == []
    assert symfunc._h_table.cache_info().currsize == 0


def test_value_caches_are_bounded_and_hold_one_vertex_sweep():
    caches = (symfunc._h_table, symfunc._sqrt_q)
    for cache in caches:
        cache.cache_clear()
    shapes = [lam for size in range(5) for lam in partitions_of(size)]
    for lam in shapes:
        for mu in shapes:
            for nu in shapes:
                topological_vertex(lam, mu, nu, QQ(2))
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize is not None
        # every miss stored one entry, so nothing was evicted
        assert 0 < info.misses <= info.maxsize, info
        assert info.currsize == info.misses, info


# -- the integer h-table and the fraction-free determinant ----------------------


@pytest.mark.parametrize("q", [QQ(2), QQ(3, 2), QQ(9, 4)])
def test_h_table_matches_newton_over_fractions(q):
    for shift in SHIFTS:
        spec = SpecPoint(q, shift)
        for top in range(9):
            hs, den = symfunc._h_table(spec, top)
            assert len(hs) == top + 1
            expected = [homogeneous_y(spec, r) for r in range(top + 1)]
            assert [QQ(h, den) for h in hs] == expected, (shift, top)
            # the denominator is the lcm of the values', not a multiple of it
            assert den == math.lcm(*(x.denominator for x in expected)), (shift, top)


def random_int_matrix(rng, n):
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]


def test_bareiss_det_matches_the_field_elimination():
    rng = random.Random(20260419)
    cases = [[], [[0]], [[5]], [[0, 1], [1, 0]], [[0, 2, 1], [0, 3, 4], [5, 6, 7]]]
    for _ in range(150):
        n = rng.randint(1, 7)
        m = random_int_matrix(rng, n)
        cases.append(m)
        # a zero leading pivot, forcing a row swap
        zero_lead = [list(r) for r in m]
        zero_lead[0][0] = 0
        cases.append(zero_lead)
        if n >= 2:
            # singular: a row repeats a combination of two others
            singular = [list(r) for r in m]
            singular[-1] = [2 * a - b for a, b in zip(m[0], m[1])]
            cases.append(singular)
            # a zero pivot later on, once the first column is cleared
            late = [list(r) for r in m]
            late[1] = [late[0][0] * k for k in range(n)]
            late[1][0] = late[0][0]
            cases.append(late)
    for m in cases:
        assert symfunc._bareiss_det(m) == field_det([[QQ(x) for x in r] for r in m], QQ(0), QQ(1)), m
    assert symfunc._bareiss_det([[1, 2], [2, 4]]) == 0
    assert symfunc._bareiss_det([[0, 0], [0, 1]]) == 0


def test_bareiss_det_on_big_entries():
    rng = random.Random(7)
    for n in range(1, 6):
        m = [[rng.randint(-(2**200), 2**200) for _ in range(n)] for _ in range(n)]
        assert symfunc._bareiss_det(m) == field_det([[QQ(x) for x in r] for r in m], QQ(0), QQ(1))


def test_schur_pair_sums_match_single_schur_values():
    q = QQ(3, 2)
    spec1, spec2 = SpecPoint(q, (2, 1)), SpecPoint(q, (3,))
    sums, scales = symfunc._schur_pair_sums(spec1, spec2, 6)
    assert len(sums) == len(scales) == 7
    for m, (total, scale) in enumerate(zip(sums, scales)):
        expected = sum(
            (symfunc._skew_schur_y(lam, (), spec1) * symfunc._skew_schur_y(conjugate(lam), (), spec2)
             for lam in partitions_of(m)),
            QQ(0),
        )
        assert QQ(total, scale) == expected, m


@pytest.mark.parametrize("q", [QQ(2), QQ(3, 2), QQ(9, 4)])
@pytest.mark.parametrize("nu1, nu2", [
    ((), ()), ((1,), ()), ((2, 1), (3,)), ((2, 2), (1, 1, 1)),
])
def test_schur_pair_sums_equal_the_determinant_products(q, nu1, nu2):
    # conjugate shifts, as the deformed sum pairs them, and the given pair
    for spec1, spec2 in [
        (SpecPoint(q, nu1), SpecPoint(q, conjugate(nu1))),
        (SpecPoint(q, nu1), SpecPoint(q, nu2)),
    ]:
        for top in range(9):
            sums, scales = symfunc._schur_pair_sums(spec1, spec2, top)
            got = [QQ(s, scale) for s, scale in zip(sums, scales)]
            assert got == schur_oracle.schur_pair_sums(spec1, spec2, top), (spec1, spec2, top)


# -- boundary checks --------------------------------------------------------------

NON_FINITE_BASES = [float("inf"), float("-inf"), float("nan"), "two"]


@pytest.mark.parametrize("call", [
    lambda q: SpecPoint(q),
    lambda q: symfunc.deformation_base(q),
    lambda q: schur_hook_eval((1,), q),
    lambda q: topological_vertex((), (1,), (), q),
    lambda q: schur_pair_sum_series((), (1,), q, 3),
    lambda q: hook_pair_product_series((), (1,), q, 3),
])
@pytest.mark.parametrize("q", NON_FINITE_BASES, ids=repr)
def test_non_finite_base_is_rejected_by_name(call, q):
    with pytest.raises(ValueError, match="deformation base must be a finite rational number") as exc:
        call(q)
    assert repr(q) in str(exc.value)
