"""Quadrature oracles: the generic grid sweep over any callable, and the
integrands of tcore.contour at single points, for the sweep to average.
"""

import itertools

import mpmath as mp

from tcore import contour
from tcore.partitions import enumerate_t_cores, partitions_of


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


def grid_table(series, r, m: int, bits: int) -> list:
    """[series(r x^k) for k < m], x = exp(2 pi i / m), each entry the direct
    sum of the terms a_n r^n against phases[n k mod m], rounded as
    ``_Grid.table`` rounds: to the nearest unit of the table's exponent,
    halves up, except that with real terms the imaginary part of an entry
    past m / 2 is the negated rounding of its conjugate's."""
    phases = contour._phases(m, bits)
    _, terms = series.terms(r)
    real = not any(b for _, _, b in terms)
    half = 1 << (bits - 1)
    values = []
    for k in range(m):
        re = im = 0
        for n, a, b in terms:
            c, s = phases[n * k % m]
            re += a * c - b * s
            im += a * s + b * c
        if real and 2 * k > m:
            values.append(((re + half) >> bits, -((half - im) >> bits)))
        else:
            values.append(((re + half) >> bits, (im + half) >> bits))
    return values


def average_at(t, s, Q, order: int):
    """The average the extractions compute, summed at the numeric nome Q and
    s-values s, complex ones too: over the t-cores (t None: all partitions)
    of size at most ``order``, the mean of prod_j sum_i s_j^(lambda_i - i + 1/2)
    weighted by Q^|lambda|.  Each row sum takes its tail past the last row
    in closed form, s^(1/2 - l) / (s - 1), with the principal s^(1/2)."""
    if t is None:
        groups = {size: partitions_of(size) for size in range(order + 1)}
    else:
        groups = enumerate_t_cores(t, order)
    q = mp.mpmathify(contour._gaussian(Q, "Q"))
    s = [mp.mpmathify(contour._gaussian(sj, "s")) for sj in s]
    num = den = mp.mpf(0)
    for size, parts in groups.items():
        weight = q**size
        for lam in parts:
            moments = mp.mpf(1)
            for sj in s:
                rows = mp.fsum(sj ** (part - i) for i, part in enumerate(lam, 1))
                moments *= mp.sqrt(sj) * (rows + sj ** -len(lam) / (sj - 1))
            num += weight * moments
            den += weight
    return num / den


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
