"""Integer partitions: enumeration, hooks, 0/1 (Maya) sequences, t-cores.

Partitions are plain tuples of weakly decreasing positive ints; the empty
partition is ().  The 0/1 sequence convention: bit i is 0 exactly when
i belongs to {lambda_j - j : j >= 1} (with lambda_j = 0 past the length), so
the vacuum reads ...000|111... and the bar sits between indices -1 and 0.
A box (j, k) of the diagram corresponds to an index pair j1 < j2 with
bit(j1) = 1 and bit(j2) = 0, and its hook length equals j2 - j1.

t-cores are recognized three independent ways (full hook table, hook == t
only, Maya pair scan) and enumerated two independent ways (filtering all
partitions, and directly through the t residue tracks of the 0/1 sequence,
each of which must look like a shifted vacuum).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ._rat import QQ
from .qseries import QQ_DOMAIN, QSeries, check_order


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
    """All partitions of n, largest part first, lexicographically descending."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(max_part, n)
    for first in range(top, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def partition_count_series(order: int) -> QSeries:
    """Generating function sum Q^|lambda| by direct enumeration."""
    terms = {2 * n: QQ(sum(1 for _ in partitions_of(n))) for n in range(order + 1)}
    return QSeries(QQ_DOMAIN, 2 * order, terms)


def euler_product_series(order: int) -> QSeries:
    """prod 1/(1 - Q^n) truncated at Q^order."""
    out = QSeries.one(QQ_DOMAIN, order)
    for n in range(1, order + 1):
        factor = QSeries(QQ_DOMAIN, 2 * order, {0: QQ(1), 2 * n: QQ(-1)})
        out = out / factor
    return out


# ---------------------------------------------------------------------------
# Maya / 0-1 sequences


@dataclass(frozen=True)
class MayaWindow:
    """A finite window of the 0/1 sequence.

    bits[i - lo] is the bit at index i for lo <= i <= hi.  When guaranteed
    is True, every bit below lo is 0 (occupied) and every bit above hi is 1,
    i.e. the window shows all deviations from the vacuum pattern and the
    sequence outside it is fully determined.
    """

    lo: int
    hi: int
    bits: tuple[int, ...]
    guaranteed: bool

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("window bounds out of order")
        if len(self.bits) != self.hi - self.lo + 1:
            raise ValueError("bit count does not match the window size")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")
        if self.guaranteed:
            ones_below = sum(1 for i in range(self.lo, min(0, self.hi + 1)) if self.bit(i))
            zeros_at_or_above = sum(
                1 for i in range(max(0, self.lo), self.hi + 1) if not self.bit(i)
            )
            if ones_below != zeros_at_or_above:
                raise ValueError(
                    f"charge mismatch: {ones_below} ones below the bar vs "
                    f"{zeros_at_or_above} zeros at or above it"
                )

    def bit(self, i: int) -> int:
        if i < self.lo:
            if not self.guaranteed:
                raise IndexError(f"index {i} below the window with no outside guarantee")
            return 0
        if i > self.hi:
            if not self.guaranteed:
                raise IndexError(f"index {i} above the window with no outside guarantee")
            return 1
        return self.bits[i - self.lo]

    def __str__(self):
        lhs = "".join(str(self.bit(i)) for i in range(self.lo, min(0, self.hi + 1)))
        rhs = "".join(str(self.bit(i)) for i in range(max(self.lo, 0), self.hi + 1))
        if self.lo >= 0:
            return rhs
        if self.hi < 0:
            return lhs
        return f"{lhs}|{rhs}"


def maya(lam, lo: int, hi: int) -> MayaWindow:
    """The 0/1 sequence of lam on the window lo..hi."""
    lam = check_partition(lam)
    if lo > hi:
        raise ValueError("window requires lo <= hi")
    ell = len(lam)
    occupied = {lam[j - 1] - j for j in range(1, ell + 1)}
    bits = []
    for i in range(lo, hi + 1):
        occ = i in occupied or (i < -ell)
        bits.append(0 if occ else 1)
    top = lam[0] - 1 if lam else -1
    guaranteed = lo <= -ell and hi >= top
    return MayaWindow(lo, hi, tuple(bits), guaranteed)


def partition_from_maya(win: MayaWindow) -> tuple[int, ...]:
    """Rebuild the partition from a guaranteed window (maya round trip)."""
    if not win.guaranteed:
        raise ValueError("reconstruction needs the outside-window guarantee")
    beads = [i for i in range(win.hi, win.lo - 1, -1) if win.bits[i - win.lo] == 0]
    parts = []
    j = 0
    for i in beads:
        j += 1
        p = i + j
        if p <= 0:
            return tuple(parts)
        parts.append(p)
    i = win.lo - 1
    while True:
        j += 1
        p = i + j
        if p <= 0:
            return tuple(parts)
        parts.append(p)
        i -= 1


def maya_hook_multiset(lam) -> list[int]:
    """Hook lengths read off the 0/1 sequence: all j2 - j1 with bit(j1)=1,
    bit(j2)=0, j1 < j2."""
    lam = check_partition(lam)
    ell = len(lam)
    win = maya(lam, -ell - 1, (lam[0] if lam else 0) + 1)
    idx = range(win.lo, win.hi + 1)
    ones = [i for i in idx if win.bit(i) == 1 and i >= -ell]
    zeros = [i for i in idx if win.bit(i) == 0]
    return sorted(j2 - j1 for j1 in ones for j2 in zeros if j1 < j2)


# ---------------------------------------------------------------------------
# t-cores


def is_t_core(lam, t: int, method: str = "all-hooks") -> bool:
    """No hook length divisible by t; the three methods must agree."""
    lam = check_partition(lam)
    if t < 2:
        raise ValueError("t must be at least 2")
    if method == "all-hooks":
        return all(h % t != 0 for h in hook_lengths(lam).values())
    if method == "hook-equals-t":
        return all(h != t for h in hook_lengths(lam).values())
    if method == "maya-pairs":
        ell = len(lam)
        lo = -ell - t - 1
        hi = (lam[0] if lam else 0) + t + 1
        win = maya(lam, lo, hi)
        return not any(
            win.bit(i) == 1 and win.bit(i + t) == 0 for i in range(lo, hi - t + 1)
        )
    raise ValueError(f"unknown method {method!r}")


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


def _charge_vectors(t: int, max_size: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """All charge vectors (c_0..c_{t-1}) with sum 0 and size <= max_size."""
    budget2 = 2 * max_size

    def rec(r: int, acc: tuple[int, ...], spent2: int, csum: int):
        if r == t - 1:
            c = -csum
            cost2 = _track_cost2(t, r, c)
            if spent2 + cost2 <= budget2:
                yield acc + (c,), (spent2 + cost2) // 2
            return
        c = 0
        while _track_cost2(t, r, c) + spent2 <= budget2:
            yield from rec(r + 1, acc + (c,), spent2 + _track_cost2(t, r, c), csum + c)
            c += 1
        c = -1
        while _track_cost2(t, r, c) + spent2 <= budget2:
            yield from rec(r + 1, acc + (c,), spent2 + _track_cost2(t, r, c), csum + c)
            c -= 1

    yield from rec(0, (), 0, 0)


def t_core_from_charges(t: int, charges) -> tuple[int, ...]:
    """The t-core whose residue track r transitions at charge c_r."""
    charges = tuple(charges)
    if len(charges) != t or sum(charges) != 0:
        raise ValueError("need t charges summing to zero")
    reach = max((abs(c) for c in charges), default=0) + 1
    lo, hi = -t * reach, t * reach
    bits = []
    for i in range(lo, hi + 1):
        r = i % t
        k = (i - r) // t
        bits.append(0 if k < charges[r] else 1)
    return partition_from_maya(MayaWindow(lo, hi, tuple(bits), True))


def enumerate_t_cores(t: int, max_size: int, method: str = "direct") -> dict[int, list[tuple[int, ...]]]:
    """t-cores grouped by size, 0..max_size.

    method "filter" runs the brute-force predicate over all partitions of
    each size; "direct" walks charge vectors of the t residue tracks.  The
    two must agree (a standing invariant of the test suite).
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    if max_size < 0:
        raise ValueError("max_size must be nonnegative")
    out: dict[int, list[tuple[int, ...]]] = {n: [] for n in range(max_size + 1)}
    if method == "filter":
        for n in range(max_size + 1):
            out[n] = [lam for lam in partitions_of(n) if is_t_core(lam, t)]
    elif method == "direct":
        for charges, size in _charge_vectors(t, max_size):
            out[size].append(t_core_from_charges(t, charges))
        for n in out:
            out[n].sort(reverse=True)
    else:
        raise ValueError(f"unknown method {method!r}")
    return out


def t_core_size_series(t: int, order: int, method: str = "direct") -> QSeries:
    """Generating function sum Q^|core| over t-cores, by enumeration."""
    check_order(order)
    grouped = enumerate_t_cores(t, order, method)
    terms = {2 * n: QQ(len(grouped[n])) for n in grouped}
    return QSeries(QQ_DOMAIN, 2 * order, terms)


def t_core_product_series(t: int, order: int) -> QSeries:
    """prod (1 - Q^(nt))^t / (1 - Q^n), the closed form that enumeration checks."""
    check_order(order)
    out = QSeries.one(QQ_DOMAIN, order)
    for n in range(1, order + 1):
        denom = QSeries(QQ_DOMAIN, 2 * order, {0: QQ(1), 2 * n: QQ(-1)})
        out = out / denom
        if n * t <= order:
            num = QSeries(QQ_DOMAIN, 2 * order, {0: QQ(1), 2 * n * t: QQ(-1)})
            out = out * num**t
    return out.truncated(order)
