"""Torus quadrature against the exact series evaluated at the same nome.

The kernels of the quadrature are also checked against their unoptimised
forms, which live here as oracles.
"""

import random

import mpmath as mp
import pytest

from tcore import bloch_okounkov_F, brute_force_Ft, contour
from tcore._rat import QQ

NOME = QQ(1, 100)
S4, S94 = QQ(4), QQ(9, 4)

# At Q = 1/100 the exact series truncated at order 16 differ from their
# limits by far less than the tolerance.  extract_with_doubling asks two
# successive grids to agree to 10^-13 (the 8 target digits plus 5), which
# leaves the quadrature error below the tolerance as well.
ORDER = 16
TOLERANCE = mp.mpf("1e-8")

CASES = {
    # one circle: the generic grid sweep of torus_extract
    "cor42 t=3 n=1": (
        (S4,),
        lambda cfg: contour.extract_cor42(3, (S4,), cfg),
        lambda: brute_force_Ft(3, (S4,), ORDER),
    ),
    "cor43 t=2 n=1": (
        (S94,),
        lambda cfg: contour.extract_cor43(2, (S94,), QQ(2), cfg),
        lambda: brute_force_Ft(2, (S94,), ORDER),
    ),
    # two circles: the tabulated circular-correlation path
    "cor42 t=2 n=2": (
        (S4, S94),
        lambda cfg: contour.extract_cor42(2, (S4, S94), cfg),
        lambda: brute_force_Ft(2, (S4, S94), ORDER),
    ),
    "cor43 t=3 n=2": (
        (S4, S94),
        lambda cfg: contour.extract_cor43(3, (S4, S94), QQ(2), cfg),
        lambda: brute_force_Ft(3, (S4, S94), ORDER),
    ),
    "bo_determinant n=2": (
        (S4, S94),
        lambda cfg: contour.extract_bo_determinant((S4, S94), QQ(5, 3), cfg),
        lambda: bloch_okounkov_F((S4, S94), ORDER),
    ),
}


def at_nome(series):
    """The exact series summed at Q = NOME, as a rational."""
    return sum(c * NOME ** (e2 // 2) for e2, c in series.terms.items())


@pytest.mark.parametrize("case", CASES)
def test_quadrature_matches_exact_series(case):
    s, extract_at, exact = CASES[case]
    cfg = contour.QuadratureConfig.for_region(s, NOME, M=32, precision_bits=64)
    result = contour.extract_with_doubling(extract_at, cfg, 8)
    assert result.converged, result
    value = at_nome(exact())
    assert abs(result.value - mp.mpf(value.numerator) / value.denominator) < TOLERANCE


# -- 20 digits at 120 bits, against the exact series with a proven tail bound --

S2516 = QQ(25, 16)

DEEP_CASES = {
    # name: (s, t or None for all partitions, order, extractor)
    "cor42 t=3 n=1": ((S4,), 3, 24, lambda cfg: contour.extract_cor42(3, (S4,), cfg)),
    "cor43 t=2 n=1": (
        (S94,), 2, 20, lambda cfg: contour.extract_cor43(2, (S94,), QQ(2), cfg)
    ),
    "cor42 t=2 n=2": (
        (S94, S2516), 2, 24, lambda cfg: contour.extract_cor42(2, (S94, S2516), cfg)
    ),
    "cor43 t=3 n=2": (
        (S94, S2516),
        3,
        24,
        lambda cfg: contour.extract_cor43(3, (S94, S2516), QQ(2), cfg),
    ),
    "bo_determinant n=2": (
        (S94, S2516),
        None,
        20,
        lambda cfg: contour.extract_bo_determinant((S94, S2516), QQ(5, 3), cfg),
    ),
}


def tail_bound(s, t, order):
    """Upper bound on |F(Q) - F_order(Q)| at Q = NOME, F the average over t-cores.

    F = N / D with N = sum_lambda Q^|lambda| prod_j m_j(lambda) and D the plain
    count; ``t`` None means all partitions.  The row exponents lambda_i - i are
    distinct and below |lambda|, so m_j(lambda) <= s_j^(|lambda| + 1/2) / (s_j - 1),
    and at most p(k) partitions have size k.  On |Q| = r with S r < 1, S the
    product of the s_j, this gives |N| <= C / (S r; S r)_inf with C the product
    of the s_j^(1/2) / (s_j - 1).  D is (Q^t; Q^t)^t_inf / (Q; Q)_inf, or
    1 / (Q; Q)_inf, so |1/D| <= (-r; r)_inf / (r^t; r^t)^t_inf, or (-r; r)_inf.
    By Cauchy's estimate each coefficient past ``order`` is at most
    max|F| / r^k, and the tail at NOME sums to max|F| x^(order+1) / (1 - x)
    with x = NOME / r.  The bound is the least over a grid of radii r.
    """
    with mp.workprec(64):
        q = mp.mpf(NOME.numerator) / NOME.denominator
        s_f = [mp.mpf(x.numerator) / x.denominator for x in s]
        S = mp.fprod(s_f)
        C = mp.fprod(mp.sqrt(x) / (x - 1) for x in s_f)
        best = mp.inf
        for i in range(1, 100):
            r = q + (1 / S - q) * i / 100
            inv_d = mp.qp(-r, r) if t is None else mp.qp(-r, r) / mp.qp(r**t) ** t
            x = q / r
            best = min(best, C / mp.qp(S * r) * inv_d * x ** (order + 1) / (1 - x))
        return best


@pytest.mark.parametrize("case", DEEP_CASES)
def test_quadrature_matches_exact_series_to_20_digits(case):
    s, t, order, extract_at = DEEP_CASES[case]
    tolerance = mp.mpf("1e-20")
    tail = tail_bound(s, t, order)
    assert tail < tolerance / 10
    exact = brute_force_Ft(t, s, order) if t else bloch_okounkov_F(s, order)
    value = at_nome(exact)
    cfg = contour.QuadratureConfig.for_region(s, NOME, M=32, precision_bits=120)
    result = contour.extract_with_doubling(extract_at, cfg, 20)
    assert result.converged, result
    with mp.workprec(120):
        reference = mp.mpf(value.numerator) / value.denominator
        assert abs(result.value - reference) < tolerance + tail


# -- the kernels against their unoptimised forms ---------------------------------


def vartheta_even_unpaired(z, ctx):
    """(1 - 1/z) prod_b (1 - z Q^b)(1 - Q^b / z) / (1 - Q^b)^2, factor by factor."""
    zinv = 1 / z
    acc = (1 - zinv) * ctx.vt_norm
    scale = max(abs(z), abs(zinv))
    b, m = 1, scale * ctx.abs_Q
    while m >= ctx.tol:
        qb = ctx.Q**b
        acc *= (1 - z * qb) * (1 - zinv * qb)
        b += 1
        m *= ctx.abs_Q
    return acc


def theta3_unpaired(z, ctx):
    """prod_b (1 - Q^b)(1 + z Q^(b-1/2))(1 + Q^(b-1/2) / z), factor by factor."""
    zinv = 1 / z
    acc = ctx.euler
    scale = max(abs(z), abs(zinv), mp.mpf(1))
    b, m = 1, scale * abs(ctx.sqrt_Q)
    while m >= ctx.tol:
        qh = ctx.sqrt_Q * ctx.Q ** (b - 1)
        acc *= (1 + z * qh) * (1 + zinv * qh)
        b += 1
        m *= ctx.abs_Q
    return acc


def axis_by_roots(s, w, t, ctx):
    """prod_a theta_even(-s w xi^a) / theta_even(-w xi^a) at nome Q, root by root."""
    acc = mp.mpf(1)
    for a in range(t):
        z = -w * mp.expjpi(mp.mpf(2 * a) / t)
        acc *= vartheta_even_unpaired(s * z, ctx) / vartheta_even_unpaired(z, ctx)
    return acc


def circle_points(s):
    """Points on both circles of the two-variable region for ``s``."""
    cfg = contour.QuadratureConfig.for_region(s, NOME, M=32, precision_bits=120)
    angles = [mp.mpf(k) / 7 for k in range(7)]
    return [mp.mpf(c) * mp.expjpi(2 * a) for c in cfg.radii for a in angles]


def assert_close(a, b, rel):
    assert abs(a - b) <= rel * max(abs(a), abs(b)), (a, b)


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_axis_factor_collapses_the_roots_of_unity(t):
    with mp.workprec(120):
        ctx = contour._nome_context(mp.mpf(1) / 100)
        ctx_t = contour._nome_context(ctx.Q**t)
        for sj in (mp.mpf(4), mp.mpf(9) / 4):
            for w in circle_points((S4, S94)):
                collapsed = contour._axis_factor(sj**t, (-w) ** t, ctx_t)
                assert_close(collapsed, axis_by_roots(sj, w, t, ctx), mp.mpf(2) ** -100)


def test_paired_theta_factors_match_the_unpaired_products():
    with mp.workprec(120):
        ctx = contour._nome_context(mp.mpf(1) / 100)
        rel = mp.mpf(2) ** -110
        points = circle_points((S4, S94)) + [mp.mpf(4), mp.mpf(-2) / 9, mp.mpc(3, -5) / 7]
        for z in points:
            assert_close(contour._vartheta_even(z, ctx), vartheta_even_unpaired(z, ctx), rel)
            assert_close(contour._theta3(z, ctx), theta3_unpaired(z, ctx), rel)


@pytest.mark.parametrize("M", [2, 4, 8, 16, 32, 64])
def test_pair_average_matches_the_double_sum(M):
    rng = random.Random(M)
    with mp.workprec(80):

        def table():
            return [mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(M)]

        a1, a2, g = table(), table(), table()
        direct = mp.fsum(
            a1[k1] * a2[k2] * g[(k2 - k1) % M] for k1 in range(M) for k2 in range(M)
        ) / M**2
        fast = contour._pair_average(a1, a2, g, contour._phases(M))
        assert abs(fast - direct) < mp.mpf(2) ** -70
