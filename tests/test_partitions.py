"""Partition combinatorics: hooks, Maya sequences, t-core machinery."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcore.partitions import (
    _charge_vectors,
    _partition_counts,
    _track_cost2,
    _track_options,
    check_partition,
    conjugate,
    enumerate_t_cores,
    hook_lengths,
    kappa,
    n_weight,
    partitions_of,
    t_core_from_charges,
)

import partition_oracle
from partition_oracle import (
    MayaWindow,
    euler_product_series,
    filtered_t_cores,
    is_t_core,
    maya,
    maya_hook_multiset,
    partition_count_series,
    partition_from_maya,
    t_core_product_series,
    t_core_size_series,
)

partitions_strategy = st.lists(st.integers(1, 10), max_size=7).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def partitions_by_recursion(n, max_part=None):
    """All partitions of n, largest part first, by recursion on the first part."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(max_part, n)
    for first in range(top, 0, -1):
        for rest in partitions_by_recursion(n - first, first):
            yield (first,) + rest


def test_partitions_of_matches_the_recursion():
    # the same partitions in the same order
    for n in range(16):
        assert list(partitions_of(n)) == list(partitions_by_recursion(n))
    assert list(partitions_of(-1)) == []


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))


@pytest.mark.parametrize("parts, kind", [
    ((2.5,), "float"), ((2.0, 1), "float"), ((2, "1"), "str"), ((True,), "bool"), ((None,), "NoneType"),
])
def test_check_partition_refuses_a_part_that_is_not_an_int(parts, kind):
    # a float part was truncated: (2.5,) read as (2,)
    with pytest.raises(ValueError, match=f"^each part must be an int, not {kind}$"):
        check_partition(parts)


@pytest.mark.parametrize("parts, message", [
    ((1, 2, 2.0), "each part must be an int, not float"),
    ((1, -2, 3), "parts must be positive: (1, -2, 3)"),
    ((3, 0, 1), "parts must be positive: (3, 0, 1)"),
    ((2, 3), "parts must be weakly decreasing: (2, 3)"),
])
def test_check_partition_names_a_bad_type_before_a_bad_sign_before_a_bad_order(parts, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_partition(parts)


class _Part(int):
    pass


def test_check_partition_returns_the_parts_as_a_tuple():
    assert check_partition([3, 3, 1]) == (3, 3, 1)
    assert check_partition(iter(())) == ()
    # an int subclass other than bool is an int
    assert check_partition((_Part(2), 1)) == (2, 1)


def test_conjugate_frozen():
    assert conjugate((6, 4, 4, 2, 1)) == (5, 4, 3, 3, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((5,)) == (1, 1, 1, 1, 1)


@settings(max_examples=80, deadline=None)
@given(partitions_strategy)
def test_conjugate_is_an_involution(lam):
    assert conjugate(conjugate(lam)) == lam


def test_hooks_frozen():
    assert hook_lengths((1,)) == {(1, 1): 1}
    assert hook_lengths((2, 1)) == {(1, 1): 3, (1, 2): 1, (2, 1): 1}


def test_hook_sum_statistic_example():
    # sum of hooks of (3,2) against n(lam) + n(lam') + |lam|
    lam = (3, 2)
    assert n_weight(lam) == 2
    assert n_weight(conjugate(lam)) == 4
    assert sum(hook_lengths(lam).values()) == 2 + 4 + 5


def test_hook_sum_statistic_everywhere():
    for n in range(13):
        for lam in partitions_of(n):
            hooks = hook_lengths(lam)
            assert sum(hooks.values()) == n_weight(lam) + n_weight(conjugate(lam)) + n


def test_kappa_frozen():
    assert kappa(()) == 0
    assert kappa((2,)) == 2
    assert kappa((2, 1)) == 0


@settings(max_examples=80, deadline=None)
@given(partitions_strategy)
def test_kappa_antisymmetric_under_conjugation(lam):
    assert kappa(conjugate(lam)) == -kappa(lam)


def test_maya_frozen_string():
    win = maya((6, 4, 4, 2, 1), -7, 7)
    assert str(win) == "0010101|10011011"
    assert win.guaranteed


def test_maya_vacuum():
    win = maya((), -3, 2)
    assert str(win) == "000|111"
    assert win.guaranteed


def test_maya_window_not_covering_is_unguaranteed():
    win = maya((6, 4, 4, 2, 1), -3, 3)
    assert not win.guaranteed


def test_maya_charge_balance_enforced():
    with pytest.raises(ValueError, match="charge mismatch"):
        MayaWindow(-2, 1, (0, 0, 0, 0), True)


@settings(max_examples=100, deadline=None)
@given(partitions_strategy)
def test_maya_round_trip(lam):
    ell = len(lam)
    top = (lam[0] if lam else 0) + 2
    win = maya(lam, -ell - 2, top)
    assert partition_from_maya(win) == lam
    # and the rebuilt window matches bit for bit
    again = maya(partition_from_maya(win), win.lo, win.hi)
    assert again == win


def test_maya_hooks_match_diagram_hooks():
    for n in range(13):
        for lam in partitions_of(n):
            assert maya_hook_multiset(lam) == sorted(hook_lengths(lam).values())


def test_is_t_core_frozen():
    assert not is_t_core((2,), 2)
    for k in range(1, 9):
        staircase = tuple(range(k, 0, -1))
        assert is_t_core(staircase, 2)
    assert is_t_core((), 2) and is_t_core((), 7)


def test_t_core_methods_agree():
    for t in (2, 3, 4, 5):
        for n in range(19):
            for lam in partitions_of(n):
                a = partition_oracle.is_t_core(lam, t, "all-hooks")
                b = partition_oracle.is_t_core(lam, t, "hook-equals-t")
                c = partition_oracle.is_t_core(lam, t, "maya-pairs")
                assert a == b == c, (lam, t)


def test_enumerate_2_cores_are_staircases():
    grouped = enumerate_t_cores(2, 10)
    staircase_sizes = {0, 1, 3, 6, 10}
    for n, cores in grouped.items():
        if n in staircase_sizes:
            assert len(cores) == 1
        else:
            assert cores == []


def test_enumeration_routes_agree():
    for t in (2, 3, 4, 5):
        direct = enumerate_t_cores(t, 20)
        filtered = filtered_t_cores(t, 20)
        for n in range(21):
            assert sorted(direct[n]) == sorted(filtered[n]), (t, n)


def core_through_maya_window(t, charges):
    """The t-core of a charge vector read off a guaranteed 0/1 window."""
    reach = max(abs(c) for c in charges) + 1
    lo, hi = -t * reach, t * reach
    bits = tuple(0 if (i - i % t) // t < charges[i % t] else 1 for i in range(lo, hi + 1))
    return partition_from_maya(MayaWindow(lo, hi, bits, True))


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_cores_from_bead_positions_match_the_maya_window(t):
    for charges, size in _charge_vectors(t, 40):
        core = t_core_from_charges(t, charges)
        assert core == core_through_maya_window(t, charges), charges
        assert sum(core) == size, charges


@pytest.mark.parametrize("charges", [(1, 0), (1, -1, 1), (1, -1, 0, 0), ()])
def test_bad_charge_vectors_are_rejected(charges):
    with pytest.raises(ValueError, match="need t charges summing to zero"):
        t_core_from_charges(3, charges)


def test_enumerate_size_zero():
    for t in (2, 3, 5):
        assert enumerate_t_cores(t, 0)[0] == [()]


@pytest.mark.parametrize("bad", [1.5, 3.0, "3", True, None])
def test_enumerate_refuses_a_max_size_that_is_not_an_int(bad):
    kind = type(bad).__name__
    with pytest.raises(ValueError, match=f"max_size must be an int, not {kind}$"):
        enumerate_t_cores(3, bad)
    with pytest.raises(ValueError, match="max_size must be nonnegative"):
        enumerate_t_cores(3, -1)


def test_partition_generating_function():
    order = 40
    series = partition_count_series(order)
    assert series == euler_product_series(order)
    counts = _partition_counts()
    assert [next(counts) for _ in range(order + 1)] == [series.coeff(n) for n in range(order + 1)]


def test_t_core_generating_function_small():
    got = t_core_size_series(2, 15)
    want = t_core_product_series(2, 15)
    assert got == want


def test_t_core_counts_all_partitions_below_t():
    # every partition of size < t is trivially a t-core (hooks are too short)
    for lam in partitions_of(4):
        assert is_t_core(lam, 5)


def test_pentagonal_counts_are_the_enumerated_counts():
    counts = _partition_counts()
    assert [next(counts) for _ in range(36)] == [
        sum(1 for _ in partitions_of(n)) for n in range(36)
    ]
    counts = _partition_counts()
    assert [next(counts) for _ in range(201)][200] == 3972999029388


@pytest.mark.parametrize("t", [2, 3, 5])
def test_track_options_are_every_affordable_charge_cheapest_first(t):
    for r in range(t):
        for budget2 in (0, 7, 40):
            options = _track_options(t, r, budget2)
            assert options == sorted(options)
            want = {c for c in range(-budget2 - 1, budget2 + 2) if _track_cost2(t, r, c) <= budget2}
            assert {c for _, c in options} == want
            assert all(cost2 == _track_cost2(t, r, c) for cost2, c in options)


def test_cores_of_a_t_above_the_size_are_all_partitions():
    # no hook exceeds the size, so every t above it gives every partition,
    # and t is clamped to the size plus one: a million tracks are never built
    for size in range(7):
        want = {n: sorted(partitions_of(n), reverse=True) for n in range(size + 1)}
        for t in (size + 1, size + 2, 1000, 10**6):
            if t >= 2:
                assert enumerate_t_cores(t, size) == want
