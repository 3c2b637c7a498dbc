"""Inputs and call lists of the three workloads.

Each workload is a fixed list of public ``tcore`` calls.  The seed chooses
the s-values and the Q2 values; the grid of (t, n, order) never changes, so
every pass of every run does the same amount of work up to the heights of
the numbers involved.

The s-values are squares of p/q with the numerators 53, 59 and 61 (each used
once, in a seed-chosen order) over three distinct denominators drawn from
37, 41, 43 and 47.  Every s-value therefore has the same bit height to within
a bit, which keeps the cost of exact arithmetic steady across seeds, and
every ratio lies in (1.12, 1.65), so any product of two s-values is at most
7.4 and sits well inside the quadrature annulus 1 < |w| < 1/Q at Q = 1/100.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks

NUMERATORS = (53, 59, 61)
DENOMINATORS = (37, 41, 43, 47)
Q2_POOL = tuple(Fraction(a, b) for a in (7, 11, 13) for b in (7, 11, 13) if a != b)

# q of the deformed partition function: not a perfect square, so the vertex
# values go through Q(sqrt(q)) and the SqrtExt layer
DEFORM_Q = 2

# 80 bits (24 digits) leave room for the 12 + 5 digits on which two grids
# must agree; with these s-values the grid doubles once, from 64 to 128
QUAD_NOME = Fraction(1, 100)
QUAD_BITS = 80
QUAD_DIGITS = 12
QUAD_M0 = 64

WORKLOADS = ("closed_theta", "partition_sums", "quadrature")


@dataclass(frozen=True)
class Inputs:
    s: tuple  # three distinct s-values
    q2: tuple  # three distinct nonzero Q2 values


def make_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    nums = list(NUMERATORS)
    rng.shuffle(nums)
    dens = rng.sample(DENOMINATORS, 3)
    s = tuple(Fraction(p, q) ** 2 for p, q in zip(nums, dens))
    q2 = tuple(rng.sample(Q2_POOL, 3))
    return Inputs(s, q2)


@dataclass(frozen=True)
class Call:
    """One timed call, and the untimed check of its output (see checks.py)."""

    label: str
    fn: Callable
    args: tuple
    check: Callable

    def __call__(self):
        return self.fn(*self.args)


def _closed_theta(tc, inp: Inputs) -> list[Call]:
    s1, s2, s3 = inp.s
    a, b, c = inp.q2

    def closed(t, s, q2, order):
        return Call(f"closed_Ft t={t} n={len(s)} order={order}", tc.closed_Ft,
                    (t, s, q2, order), checks.closed_matches_brute_force(tc, t, s, order))

    def closed_r(t, s, r, order):
        return Call(f"closed_Ft_r t={t} n={len(s)} r={r} order={order}", tc.closed_Ft_r,
                    (t, s, r, order), checks.closed_matches_brute_force(tc, t, s, order))

    def level(t, r, l, order):
        return Call(f"level_series t={t} r={r} l={l} order={order}", tc.level_series,
                    (t, r, l, order), checks.level_identity(t, r, l, order))

    return [
        closed(2, (s1, s2), a, 16),
        closed(3, (s1, s2, s3), b, 8),
        closed(4, (s2, s3), c, 8),
        closed_r(2, (s1, s2, s3), 1, 10),
        closed_r(3, (s1, s3), 1, 10),
        level(3, 1, 4, 8),
        level(4, 1, 3, 6),
    ]


def _partition_sums(tc, inp: Inputs) -> list[Call]:
    s1, s2, s3 = inp.s
    q = DEFORM_Q

    def brute(t, s, order):
        check = (checks.one_point_identity(t, s[0], order) if len(s) == 1
                 else checks.swapped_at_half_order(tc.brute_force_Ft, (t,), s, order))
        return Call(f"brute_force_Ft t={t} n={len(s)} order={order}", tc.brute_force_Ft,
                    (t, s, order), check)

    def bloch_okounkov(s, order):
        check = (checks.one_point_identity(None, s[0], order) if len(s) == 1
                 else checks.swapped_at_half_order(tc.bloch_okounkov_F, (), s, order))
        return Call(f"bloch_okounkov_F n={len(s)} order={order}", tc.bloch_okounkov_F,
                    (s, order), check)

    z_sum = f"qdeformed_Z_sum q={q} order=8"
    return [
        brute(3, (s1,), 300),
        brute(4, (s1, s2), 120),
        brute(5, (s1, s2, s3), 60),
        bloch_okounkov((s2,), 20),
        bloch_okounkov((s1, s2, s3), 16),
        Call("correlation_expansion t=3 n=2 l=(2,2) order=100", tc.correlation_expansion,
             (3, 2, (2, 2), 100), checks.correlation_identities(3, 100)),
        # Z_sum before Zn_sum: the second reuses the power sums cached in symfunc
        Call(z_sum, tc.qdeformed_Z_sum, (q, 8), checks.deformed_row(q, 8)),
        Call(f"qdeformed_Zn_sum q={q} n=1 order=7", tc.qdeformed_Zn_sum, (q, (s3,), 7),
             checks.deformed_row(q, 7, (s3,))),
        Call(f"qdeformed_Z_product q={q} order=8", tc.qdeformed_Z_product, (q, 8),
             checks.equals_truncated(z_sum, 8)),
        # fails at every odd order: the band b = (N+1)//2 builds a monomial of
        # total degree N+1; counted as failed until that is mended
        Call(f"qdeformed_Z_product q={q} order=7", tc.qdeformed_Z_product, (q, 7),
             checks.equals_truncated(z_sum, 7)),
    ]


def _quadrature(tc, inp: Inputs) -> list[Call]:
    from tcore import contour

    s1, s2, s3 = inp.s
    q2 = inp.q2[0]

    def extraction(label, s, extract_at, exact):
        cfg = contour.QuadratureConfig.for_region(
            s, QUAD_NOME, M=QUAD_M0, precision_bits=QUAD_BITS
        )
        return Call(label, contour.extract_with_doubling, (extract_at, cfg, QUAD_DIGITS),
                    checks.extraction_matches(exact, QUAD_DIGITS, QUAD_NOME))

    # The lambdas look the extractors up at call time, so traced runs see the
    # wrapped module attributes.  At order 40 the t-core series is exact far
    # below 1e-12 at Q = 1/100; the all-partitions series at order 16 leaves
    # a gap of about 1e-18, which the check bounds explicitly.
    return [
        extraction("extract_cor42 t=2 n=2", (s1, s2),
                   lambda cfg: contour.extract_cor42(2, (s1, s2), cfg),
                   lambda: tc.brute_force_Ft(2, (s1, s2), 40)),
        extraction("extract_cor42 t=3 n=1", (s2,),
                   lambda cfg: contour.extract_cor42(3, (s2,), cfg),
                   lambda: tc.brute_force_Ft(3, (s2,), 40)),
        extraction("extract_cor43 t=3 n=2", (s1, s3),
                   lambda cfg: contour.extract_cor43(3, (s1, s3), q2, cfg),
                   lambda: tc.brute_force_Ft(3, (s1, s3), 40)),
        extraction("extract_bo_determinant n=2", (s3, s1),
                   lambda cfg: contour.extract_bo_determinant((s3, s1), q2, cfg),
                   lambda: tc.bloch_okounkov_F((s3, s1), 16)),
    ]


BUILDERS = {
    "closed_theta": _closed_theta,
    "partition_sums": _partition_sums,
    "quadrature": _quadrature,
}


def make_calls(workload: str, tc, inp: Inputs) -> list[Call]:
    """The call list of a workload, bound to the imported ``tcore`` package."""
    return BUILDERS[workload](tc, inp)
