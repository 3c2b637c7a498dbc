"""Integer partitions: enumeration, hooks, counts and t-cores.

Partitions are plain tuples of weakly decreasing positive ints; the empty
partition is ().  A t-core is a partition with no hook length divisible by
t; the t-cores are enumerated directly through the t residue tracks of the
0/1 (Maya) sequence, each of which must look like a shifted vacuum (a
charge vector).  The hook predicate and the count series of the t-cores
are oracles of that walk, kept with the tests.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import add, itemgetter
from typing import Iterator

from .qseries import check_int, check_t


def check_partition(parts) -> tuple[int, ...]:
    """Validate and freeze a weakly decreasing tuple of positive ints."""
    lam = tuple(int(p) for p in parts)
    if any(p <= 0 for p in lam):
        raise ValueError(f"parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {lam}")
    return lam


def conjugate(lam) -> tuple[int, ...]:
    """Transpose of the Young diagram: result_k = #{j : lambda_j >= k}."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= k) for k in range(1, lam[0] + 1))


def hook_lengths(lam) -> dict[tuple[int, int], int]:
    """Hook length of every box (row j, column k), 1-indexed."""
    lamt = conjugate(lam)
    return {
        (j, k): lam[j - 1] + lamt[k - 1] - j - k + 1
        for j in range(1, len(lam) + 1)
        for k in range(1, lam[j - 1] + 1)
    }


def n_weight(lam) -> int:
    """The statistic n(lambda) = sum (i-1)*lambda_i."""
    return sum((i - 1) * p for i, p in enumerate(lam, 1))


def kappa(lam) -> int:
    """Twice the sum of the contents k - j over all boxes (j, k)."""
    return 2 * sum(k - j for j in range(1, len(lam) + 1) for k in range(1, lam[j - 1] + 1))


def contains(lam, eta) -> bool:
    """Diagram containment eta inside lam."""
    return len(eta) <= len(lam) and all(e <= l for e, l in zip(eta, lam))


def partitions_of(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n, largest part first, lexicographically descending.

    One list is changed in place: each step lowers the last part above 1 by
    one and refills the rest with parts as large as the lowered one.
    """
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(max_part, n)
    if top <= 0:
        return
    parts: list[int] = []
    free, size = n, top
    while True:
        count, rest = divmod(free, size)
        parts += [size] * count
        if rest:
            parts.append(rest)
        yield tuple(parts)
        free = 0
        while parts and parts[-1] == 1:
            parts.pop()
            free += 1
        if not parts:
            return
        size = parts.pop()
        free += size
        size -= 1


# ---------------------------------------------------------------------------
# t-cores


def _track_cost2(t: int, r: int, c: int) -> int:
    """Twice the size contribution of residue track r carrying charge c.

    A charge c > 0 pushes c beads from below the bar up to positions
    r, r+t, ..., r+(c-1)t; each bead at position i costs i + 1/2.  A charge
    c < 0 digs |c| holes below the bar at r-t, ..., r+ct; a hole at i costs
    -i - 1/2.  Everything is doubled to stay integral per track.
    """
    if c >= 0:
        return t * c * (c - 1) + c * (2 * r + 1)
    cp = -c
    return t * cp * (cp + 1) - cp * (2 * r + 1)


def _track_options(t: int, r: int, budget2: int) -> list[tuple[int, int]]:
    """The charges c of residue track r with _track_cost2(t, r, c) <= budget2,
    as (cost, c) pairs, cheapest first."""
    out = []
    for c, step in ((0, 1), (-1, -1)):
        while (cost2 := _track_cost2(t, r, c)) <= budget2:
            out.append((cost2, c))
            c += step
    return sorted(out)


def _balanced_options(t: int, budget2: int) -> list[list[tuple[int, int]]]:
    """_track_options of every track r, less each charge c that the other
    tracks cannot balance within the budget, so that no charge vector holds it.

    The unit steps of the tracks away from charge 0 cost the odd numbers
    2j + 1, once each: up on track j mod t, down on track t - 1 - (j mod t)
    (see _track_cost2).  So the others carry -c most cheaply by the |c| least
    of them that are not track r's own steps that way.  Those are the j < J
    off track r's own residue, for the J that leaves |c| of them (t - 1 in
    every block of t): the odd numbers below 2J sum to J^2, less the own
    steps 2(own + kt) + 1 below it.
    """
    def balanced(r: int, cost2: int, c: int) -> bool:
        own = t - 1 - r if c > 0 else r
        blocks, rest = divmod(abs(c), t - 1)
        top = blocks * t + rest + (rest > own)
        skipped = (top - own + t - 1) // t
        cheapest = top * top - skipped * (2 * own + 1) - t * skipped * (skipped - 1)
        return cost2 + cheapest <= budget2

    return [
        [(cost2, c) for cost2, c in _track_options(t, r, budget2) if balanced(r, cost2, c)]
        for r in range(t)
    ]


def _euler_terms(order: int) -> list[tuple[int, int]]:
    """The nonzero terms (k, c), 1 <= k <= order, of E(x) = prod_(n>=1) (1 - x^n):
    c = (-1)^j at the pentagonal numbers k = j(3j -+ 1)/2, j >= 1 (Euler)."""
    terms, j = [], 1
    while (k := j * (3 * j - 1) // 2) <= order:
        terms.append((k, (-1) ** j))
        if k + j <= order:
            terms.append((k + j, (-1) ** j))
        j += 1
    return terms


def _partition_counts() -> Iterator[int]:
    """p(0), p(1), p(2), ... by Euler's pentagonal number theorem: the
    partition counts times E(x) are 1, so p(n) = -sum c p(n - k) over the
    terms (k, c) of E(x) at k <= n."""
    p: list[int] = []
    while True:
        n = len(p)
        p.append((n == 0) - sum(c * p[n - k] for k, c in _euler_terms(n)))
        yield p[-1]


def _charge_walk(t: int, order: int, column):
    """Every charge vector of size at most order (see _track_cost2), grouped
    by its head, the charges of its first t - 2 tracks: yields
    (spent2, sums, ends) once per head that some end completes, with
    sums[j] = sum_(r < t - 2) column(r, c_r)[j] and ends the (cost2, col)
    of every completing end, cheapest first.  An end is a pair of charges of
    the last two tracks; the vector it completes has size
    (spent2 + cost2) // 2 and column sums sums[j] + col[j].

    Each track holds its (cost, charge, column) options that the other
    tracks can balance (_balanced_options), cheapest first, so its loop
    stops at the first option past the budget, and the sums are carried
    down the walk.  The zero sum fixes the charge sum S of the end.  The
    ends of each S, with their two costs and columns added, are listed on
    the first head that needs them, cheapest first; a head reads the prefix
    within its budget, so every end it reads is a charge vector.  Listing
    them on first use keeps t = 2, whose one head reads S = 0 only, linear
    in the options.
    """
    budget2 = 2 * order
    tracks = [
        [(cost2, c, column(r, c)) for cost2, c in opts]
        for r, opts in enumerate(_balanced_options(t, budget2))
    ]
    last = {c: (cost2, col) for cost2, c, col in tracks.pop()}
    penult = tracks.pop()
    by_sum: dict[int, list[tuple[int, tuple]]] = {}

    def pairs_of(total: int) -> list[tuple[int, tuple]]:
        found = []
        for cost2, c, col in penult:
            if total - c in last:
                end2, end = last[total - c]
                if cost2 + end2 <= budget2:
                    found.append((cost2 + end2, tuple(map(add, col, end))))
        found.sort(key=itemgetter(0))
        return found

    stack = [(0, 0, 0, tuple(0 for _ in last[0][1]))]  # track, cost, charge sum, sums
    while stack:
        r, spent2, csum, sums = stack.pop()
        if r == len(tracks):
            if (found := by_sum.get(-csum)) is None:
                found = by_sum[-csum] = pairs_of(-csum)
            within = bisect_right(found, budget2 - spent2, key=itemgetter(0))
            if within:
                yield spent2, sums, found[:within]
            continue
        for cost2, c, col in tracks[r]:
            cost2 += spent2
            if cost2 > budget2:
                break
            stack.append((r + 1, cost2, csum + c, tuple(map(add, sums, col))))


def _charge_vectors(t: int, max_size: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """All charge vectors (c_0..c_{t-1}) with sum 0 and size <= max_size."""
    def unit(r: int, c: int) -> tuple[int, ...]:
        return (0,) * r + (c,) + (0,) * (t - 1 - r)

    for spent2, head, ends in _charge_walk(t, max_size, unit):
        for cost2, end in ends:
            yield tuple(map(add, head, end)), (spent2 + cost2) // 2


def t_core_from_charges(t: int, charges) -> tuple[int, ...]:
    """The t-core whose residue track r transitions at charge c_r.

    Track r holds beads at r + k*t for every k < c_r.  Below t * min(c) every
    position holds a bead, and those beads are the vacuum's parts of size 0
    (the charges sum to zero), so the beads r + k*t with min(c) <= k < c_r,
    in descending order b_1 > b_2 > ..., give the parts b_j + j while those
    are positive.
    """
    charges = tuple(charges)
    if len(charges) != t or sum(charges) != 0:
        raise ValueError("need t charges summing to zero")
    low = min(charges, default=0)
    beads = sorted(
        (r + k * t for r, c in enumerate(charges) for k in range(low, c)), reverse=True
    )
    parts = []
    for j, b in enumerate(beads, start=1):
        if b + j <= 0:
            break
        parts.append(b + j)
    return tuple(parts)


def enumerate_t_cores(t: int, max_size: int) -> dict[int, list[tuple[int, ...]]]:
    """t-cores grouped by size, 0..max_size, from the charge vectors of the t
    residue tracks."""
    check_t(t)
    check_int("max_size", max_size)
    if max_size < 0:
        raise ValueError("max_size must be nonnegative")
    out: dict[int, list[tuple[int, ...]]] = {n: [] for n in range(max_size + 1)}
    for charges, size in _charge_vectors(t, max_size):
        out[size].append(t_core_from_charges(t, charges))
    for n in out:
        out[n].sort(reverse=True)
    return out
