"""Schur evaluations: power sums, Jacobi-Trudi vs hooks, vertex symmetry."""

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcore._rat import QQ, rat
from tcore.partitions import conjugate, partitions_of
from tcore.symfunc import (
    SpecPoint,
    complete_homogeneous,
    hook_pair_product_series,
    power_sum,
    schur_hook_eval,
    schur_pair_sum_series,
    skew_schur,
    topological_vertex,
)

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
