"""Partition oracles: counts by enumeration and by Euler's product, the 0/1
(Maya) sequence of a partition, and t-core predicates read off it.

The 0/1 sequence convention: bit i is 0 exactly when i belongs to
{lambda_j - j : j >= 1} (with lambda_j = 0 past the length), so the vacuum
reads ...000|111... and the bar sits between indices -1 and 0.  A box (j, k)
of the diagram corresponds to an index pair j1 < j2 with bit(j1) = 1 and
bit(j2) = 0, and its hook length equals j2 - j1.
"""

from dataclasses import dataclass

from tcore._rat import QQ
from tcore import partitions
from tcore.partitions import check_partition, hook_lengths, partitions_of
from tcore.qseries import QQ_DOMAIN, QSeries


def partition_count_series(order: int) -> QSeries:
    """Generating function sum Q^|lambda| by direct enumeration."""
    terms = {2 * n: QQ(sum(1 for _ in partitions_of(n))) for n in range(order + 1)}
    return QSeries(QQ_DOMAIN, 2 * order, terms)


def filtered_t_cores(t: int, max_size: int) -> dict[int, list[tuple[int, ...]]]:
    """t-cores grouped by size, 0..max_size, by the hook predicate over all
    partitions of each size."""
    return {
        n: [lam for lam in partitions_of(n) if partitions.is_t_core(lam, t)]
        for n in range(max_size + 1)
    }


def euler_product_series(order: int) -> QSeries:
    """prod 1/(1 - Q^n) truncated at Q^order, one upward pass
    c[m] += c[m - n] per factor over a dense integer list."""
    c = [1] + [0] * order
    for n in range(1, order + 1):
        for m in range(n, order + 1):
            c[m] += c[m - n]
    return QSeries(QQ_DOMAIN, 2 * order, {2 * m: QQ(v) for m, v in enumerate(c)})


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


def is_t_core(lam, t: int, method: str) -> bool:
    """No hook length divisible by t, by one of three methods that must agree:
    the full hook table, the hooks equal to t only, or a scan of the 0/1
    sequence for a bead t places below a gap."""
    lam = check_partition(lam)
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
