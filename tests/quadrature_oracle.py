"""Quadrature oracles: the generic grid sweep over any callable, and the
integrands of tcore.contour at single points, for the sweep to average.
"""

import itertools

import mpmath as mp

from tcore import contour


def pairwise_sum(values):
    """Sum in a fixed balanced order, independent of how values were produced."""
    k = len(values)
    if k == 0:
        return mp.mpf(0)
    if k == 1:
        return values[0]
    mid = k // 2
    return pairwise_sum(values[:mid]) + pairwise_sum(values[mid:])


def torus_extract(f, cfg):
    """Average ``f`` over the grid w_j = c_j exp(2 pi i k_j / M).

    The points are exact GaussianRationals: the radii times the entries of
    the phase table, so ``f`` sees the grid points the tables are built on.

    For f analytic on a neighbourhood of the torus this converges to the
    constant Laurent coefficient exponentially in M, and it is exact whenever
    f is a Laurent polynomial of degree below M in each variable.  Grid
    evaluations are independent of one another; the reduction is a pairwise
    sum in grid order, so results are reproducible no matter how the
    evaluations are scheduled.  This is the generic sweep for any callable;
    the extractors of tcore.contour average their integrands from tables instead.
    """
    with mp.workprec(cfg.precision_bits):
        bits = cfg.precision_bits + contour._GUARD_BITS
        phases = [contour._to_exact(x, -bits) for x in contour._phases(cfg.M, bits)]
        radii = [contour.GaussianRational(c) for c in cfg.radii]
        block: list = []
        block_sums: list = []
        for ks in itertools.product(range(cfg.M), repeat=cfg.n):
            w = tuple(c * phases[k] for c, k in zip(radii, ks))
            try:
                value = mp.mpc(mp.mpmathify(f(w)))
            except ZeroDivisionError as exc:
                raise ValueError(
                    f"integrand denominator vanished at grid index {ks}; "
                    "the radii sit on a zero locus"
                ) from exc
            if not mp.isfinite(value):
                raise ValueError(f"integrand not finite at grid index {ks}")
            block.append(value)
            if len(block) == 4096:
                block_sums.append(pairwise_sum(block))
                block = []
        if block:
            block_sums.append(pairwise_sum(block))
        return pairwise_sum(block_sums) / mp.mpf(cfg.M) ** cfg.n


def at_point(t, s, Q, w):
    """The integrand that the extraction of ``t`` (None for all partitions)
    averages, at the exact point w: its one-point grid, at mpmath's working
    precision."""
    if len(w) != len(s):
        raise ValueError("one grid coordinate per s value is required")
    grid = contour._Grid(1, [contour._gaussian(wj, "w") for wj in w], mp.mp.prec)
    s = [contour._gaussian(sj, "s") for sj in s]
    return contour._grid_mean(contour._integrand(t, s, contour._gaussian(Q, "Q"), grid), grid)


def eval_cor42(t: int, s, Q, w):
    """Product-form integrand for the t-core n-point function.

    Includes the constant prefactor prod_j s_j^(-t/2)/theta(s_j), so the
    torus average of this function is the final value.
    """
    return at_point(t, s, Q, w)


def eval_cor43(t: int, s, Q, Q2, w):
    """Determinant-form integrand for the t-core n-point function.

    By Frobenius's elliptic Cauchy determinant it is the product-form
    integrand of eval_cor42, in which Q2 cancels: Q2 is checked (any nonzero
    number), as extract_cor43 checks it, and changes nothing.
    """
    contour._check_q2(Q2)
    return eval_cor42(t, s, Q, w)


def eval_bo_determinant(s, Q, Q2, w):
    """Determinant integrand for the n-point function of all partitions.

    It is the product integrand without the t-core axes; Q2 is checked, as
    extract_bo_determinant checks it, and cancels.
    """
    contour._check_q2(Q2)
    return at_point(None, s, Q, w)
