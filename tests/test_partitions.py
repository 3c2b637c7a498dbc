"""Partition combinatorics: hooks, Maya sequences, t-core machinery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcore.partitions import (
    MayaWindow,
    check_partition,
    conjugate,
    enumerate_t_cores,
    euler_product_series,
    hook_lengths,
    is_t_core,
    kappa,
    maya,
    maya_hook_multiset,
    n_weight,
    partition_count_series,
    partition_from_maya,
    partitions_of,
    t_core_product_series,
    t_core_size_series,
)

partitions_strategy = st.lists(st.integers(1, 10), max_size=7).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))


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
                a = is_t_core(lam, t, "all-hooks")
                b = is_t_core(lam, t, "hook-equals-t")
                c = is_t_core(lam, t, "maya-pairs")
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
        direct = enumerate_t_cores(t, 20, "direct")
        filtered = enumerate_t_cores(t, 20, "filter")
        for n in range(21):
            assert sorted(direct[n]) == sorted(filtered[n]), (t, n)


def test_enumerate_size_zero():
    for t in (2, 3, 5):
        assert enumerate_t_cores(t, 0)[0] == [()]


def test_partition_generating_function():
    order = 40
    assert partition_count_series(order) == euler_product_series(order)


def test_t_core_generating_function_small():
    got = t_core_size_series(2, 15)
    want = t_core_product_series(2, 15)
    assert got == want


def test_t_core_counts_all_partitions_below_t():
    # every partition of size < t is trivially a t-core (hooks are too short)
    for lam in partitions_of(4):
        assert is_t_core(lam, 5)
