"""Torus quadrature against the exact series evaluated at the same nome.

The kernels of the quadrature are also checked against their unoptimised
forms, which live here as oracles.
"""

import functools
import itertools
import random
from math import ldexp

import mpmath as mp
import pytest

from tcore import bloch_okounkov_F, brute_force_Ft, contour
from tcore._rat import QQ

import quadrature_oracle

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


def at_nome(series, nome=NOME):
    """The exact series summed at Q = ``nome``, as a rational."""
    return sum(c * nome ** (e2 // 2) for e2, c in series.terms.items())


@pytest.mark.parametrize("case", CASES)
def test_quadrature_matches_exact_series(case):
    s, extract_at, exact = CASES[case]
    cfg = contour.QuadratureConfig.for_region(s, NOME, M=32, precision_bits=64)
    result = contour.extract_with_doubling(extract_at, cfg, 8)
    assert result.converged, result
    value = at_nome(exact())
    assert abs(result.value - mp.mpf(value.numerator) / value.denominator) < TOLERANCE


def test_extraction_at_the_least_precision():
    # 53 bits, the floor QuadratureConfig accepts: the guard bits of the
    # integer tables keep the 8 target digits and 5 for the doubling check
    s, extract_at, exact = CASES["cor43 t=3 n=2"]
    cfg = contour.QuadratureConfig.for_region(s, NOME, M=32, precision_bits=53)
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


# -- three circles and a negative nome -------------------------------------------

# Small s-values leave wide log-gaps between the circles, so M = 32 suffices.
# Measured at 64 bits: 5.8e-12 (cor42), 2.6e-12 (cor43) and 2.6e-12 (bo)
# from the exact series; at M = 16 the misses are about 1e-5.
S3 = (QQ(25, 16), QQ(49, 36), QQ(81, 64))
THREE_CIRCLE_CASES = {
    "cor42 t=2 n=3": (
        lambda cfg: contour.extract_cor42(2, S3, cfg),
        lambda: brute_force_Ft(2, S3, ORDER),
    ),
    "cor43 t=3 n=3": (
        lambda cfg: contour.extract_cor43(3, S3, QQ(2), cfg),
        lambda: brute_force_Ft(3, S3, ORDER),
    ),
    "bo_determinant n=3": (
        lambda cfg: contour.extract_bo_determinant(S3, QQ(5, 3), cfg),
        lambda: bloch_okounkov_F(S3, ORDER),
    ),
}


@pytest.mark.parametrize("case", THREE_CIRCLE_CASES)
def test_three_circles_match_exact_series(case):
    extract_at, exact = THREE_CIRCLE_CASES[case]
    cfg = contour.QuadratureConfig.for_region(S3, NOME, M=32, precision_bits=64)
    value = at_nome(exact())
    assert abs(extract_at(cfg) - mp.mpf(value.numerator) / value.denominator) < mp.mpf("1e-11")


# At Q = -1/100 the Laurent coefficients (-1)^n Q^(n(n+1)/2) change sign with
# n(n+1)/2 as well as with n, and the axes of odd t sum at the negative nome
# Q^t.  Measured at 64 bits: within 1e-16 of the exact series.
NEGATIVE_NOME = QQ(-1, 100)
NEGATIVE_NOME_CASES = {
    "cor42 t=3 n=1": CASES["cor42 t=3 n=1"],
    "cor43 t=2 n=2": (
        (S4, S94),
        lambda cfg: contour.extract_cor43(2, (S4, S94), QQ(2), cfg),
        lambda: brute_force_Ft(2, (S4, S94), ORDER),
    ),
    "bo_determinant n=2": CASES["bo_determinant n=2"],
}


@pytest.mark.parametrize("case", NEGATIVE_NOME_CASES)
def test_negative_nome_matches_exact_series(case):
    s, extract_at, exact = NEGATIVE_NOME_CASES[case]
    cfg = contour.QuadratureConfig.for_region(s, NEGATIVE_NOME, M=32, precision_bits=64)
    result = contour.extract_with_doubling(extract_at, cfg, 8)
    assert result.converged, result
    value = at_nome(exact(), NEGATIVE_NOME)
    assert abs(result.value - mp.mpf(value.numerator) / value.denominator) < mp.mpf("1e-14")


# Q^(1/2) at Q = 1/100.  Theta_3(-Q2), a factor of the normaliser of cor43's
# determinant, vanishes at Q2 = 1/10, and Theta_3(Q2), a factor of the
# all-partitions one, at Q2 = -1/10; the extractions must not see either
THETA3_ZERO = QQ(1, 10)


def test_extract_cor43_does_not_depend_on_q2():
    s = (S4, S94)
    cfg = contour.QuadratureConfig.for_region(s, NOME, M=64, precision_bits=64)
    q2s = (QQ(2), QQ(5, 3), QQ(-7, 2), THETA3_ZERO)
    values = [contour.extract_cor43(3, s, q2, cfg) for q2 in q2s]
    assert all(abs(v - values[0]) < mp.mpf("1e-16") for v in values[1:]), values


def test_extract_bo_determinant_does_not_depend_on_q2():
    s = (S4, S94)
    cfg = contour.QuadratureConfig.for_region(s, NOME, M=64, precision_bits=64)
    values = [contour.extract_bo_determinant(s, q2, cfg) for q2 in (QQ(5, 3), -THETA3_ZERO)]
    assert abs(values[1] - values[0]) < mp.mpf("1e-16"), values


@pytest.mark.parametrize(
    "extract_at",
    [
        lambda q2, cfg: contour.extract_cor43(3, (S4, S94), q2, cfg),
        lambda q2, cfg: contour.extract_bo_determinant((S4, S94), q2, cfg),
    ],
    ids=["cor43", "bo_determinant"],
)
def test_q2_zero_is_refused(extract_at):
    cfg = contour.QuadratureConfig.for_region((S4, S94), NOME, M=8, precision_bits=64)
    with pytest.raises(ValueError, match="Q2 must be nonzero"):
        extract_at(0, cfg)


@pytest.mark.parametrize(
    "extract_at",
    [
        lambda q2, cfg: contour.extract_cor43(3, (S4, S94), q2, cfg),
        lambda q2, cfg: contour.extract_bo_determinant((S4, S94), q2, cfg),
    ],
    ids=["cor43", "bo_determinant"],
)
@pytest.mark.parametrize("q2", [None, "two", (1, 2)], ids=["None", "str", "tuple"])
def test_a_q2_that_is_not_a_number_is_refused_by_name(extract_at, q2):
    cfg = contour.QuadratureConfig.for_region((S4, S94), NOME, M=8, precision_bits=64)
    with pytest.raises(ValueError, match="Q2 must be a nonzero number, got"):
        extract_at(q2, cfg)


# -- inputs at the boundary --------------------------------------------------------

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("s", [(NAN,), ("x",), (S4, INF)], ids=["nan", "str", "inf"])
def test_an_s_value_that_is_not_a_finite_number_is_refused_by_name(s):
    with pytest.raises(ValueError, match="s must be a finite number, got"):
        contour.QuadratureConfig.for_region(s, NOME)
    cfg = contour.QuadratureConfig.for_region((S4, S94)[: len(s)], NOME, M=8, precision_bits=64)
    with pytest.raises(ValueError, match="s must be a finite number, got"):
        contour.extract_cor42(2, s, cfg)


@pytest.mark.parametrize("Q", ["q", None, INF, NAN], ids=["str", "None", "inf", "nan"])
def test_a_nome_that_is_not_a_finite_number_is_refused_by_name(Q):
    with pytest.raises(ValueError, match="Q must be a finite number, got"):
        contour.QuadratureConfig.for_region((S4,), Q)
    with pytest.raises(ValueError, match="Q must be a finite number, got"):
        contour.QuadratureConfig(M=8, precision_bits=64, radii=(2,), Q=Q)


@pytest.mark.parametrize(
    ("radii", "message"),
    [((NAN,), "radii must be a finite number"), ((3, "2"), "radii must be a finite number"),
     ((2j,), "radii must be real")],
    ids=["nan", "str", "complex"],
)
def test_a_radius_that_is_not_a_finite_real_number_is_refused_by_name(radii, message):
    with pytest.raises(ValueError, match=message):
        contour.QuadratureConfig(M=8, precision_bits=64, radii=radii, Q=NOME)


def config(M=8, precision_bits=64, radii=(2,), Q=NOME):
    return contour.QuadratureConfig(M=M, precision_bits=precision_bits, radii=radii, Q=Q)


REFUSALS = {
    "M=6": (lambda: config(M=6), "M must be a power of two, at least 2"),
    "M=1": (lambda: config(M=1), "M must be a power of two, at least 2"),
    "52 bits": (lambda: config(precision_bits=52), "precision_bits must be at least 53"),
    "no radii": (lambda: config(radii=()), "between 1 and 3 circles supported"),
    "4 radii": (lambda: config(radii=(5, 4, 3, 2)), "between 1 and 3 circles supported"),
    "radii rising": (lambda: config(radii=(2, 3)), "radii must be strictly decreasing"),
    "radii equal": (lambda: config(radii=(3, 3)), "radii must be strictly decreasing"),
    "innermost 1": (lambda: config(radii=(3, 1)), "the innermost radius must exceed 1"),
    "|Q| = 1": (lambda: config(Q=-1), "the nome must satisfy \\|Q\\| < 1"),
    "|Q| > 1": (lambda: config(Q=1 + 1j), "the nome must satisfy \\|Q\\| < 1"),
    "too few s": (
        lambda: config(radii=(3, 2)).validate_region((S4,)),
        "one radius per s value is required",
    ),
    "too many s to extract": (
        lambda: contour.extract_cor42(2, (S4, S94), config()),
        "one radius per s value is required",
    ),
    "4 s in a region": (
        lambda: contour.QuadratureConfig.for_region((S4,) * 4, NOME),
        "between 1 and 3 s values supported",
    ),
    "no s in a region": (
        lambda: contour.QuadratureConfig.for_region((), NOME),
        "between 1 and 3 s values supported",
    ),
    "no annuli": (
        lambda: config(Q=QQ(1, 10)).validate_region((20,)),
        "no annuli fit between 1 and 1/\\|Q\\| for these s",
    ),
    "no annuli in a region": (
        lambda: contour.QuadratureConfig.for_region((S4, S4), QQ(1, 10)),
        "no annuli fit between 1 and 1/\\|Q\\| for these s",
    ),
    "margin": (
        lambda: config(radii=(QQ(101, 100),)).validate_region((S4,)),
        "smallest log-gap 0.00995 is under the safety margin 0.161; respace the radii",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_quadrature_refuses_a_config_or_region_that_cannot_work(case):
    refused, message = REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        refused()


def test_at_q_zero_the_extraction_is_the_constant_term():
    # Q = 0 leaves only the empty t-core: the region spaces the radii by
    # log 4 instead of against 1/|Q|, and the extraction converges to
    # brute_force_Ft at order 0
    s = (S94, QQ(16, 9))
    exact = brute_force_Ft(2, s, 0)
    assert exact.terms == {0: QQ(72, 35)}
    cfg = contour.QuadratureConfig.for_region(s, 0, M=16, precision_bits=64)
    outer, inner = cfg.radii
    assert abs(inner - 4) < 1e-12 and abs(outer - 4 * QQ(16, 9) * 4) < 1e-12
    result = contour.extract_with_doubling(lambda c: contour.extract_cor42(2, s, c), cfg, 12)
    assert result.converged, result
    assert abs(result.value - contour.GaussianRational(QQ(72, 35))) < 1e-17


@pytest.mark.parametrize("bits", [69, 96, 200])
def test_phase_tables_are_the_roots_of_unity_and_nest(bits, monkeypatch):
    # every entry within 2 units of exp(2 pi i k / M) 2^bits at M = 4096, and
    # each M-point table the even entries of the 2M-point one, whichever is
    # built first
    monkeypatch.setattr(contour, "_phase_tables", {})
    with mp.workprec(bits + 40):
        scale = mp.mpf(2) ** bits
        for k, (x, y) in enumerate(contour._phases(4096, bits)):
            z = mp.expjpi(mp.mpf(k) / 2048) * scale
            assert abs(z.real - x) <= 2 and abs(z.imag - y) <= 2, k
    for M in (1, 2, 4, 8, 64, 512, 2048):
        contour._phase_tables.clear()
        small_first = contour._phases(M, bits)
        doubled = contour._phases(2 * M, bits)
        contour._phase_tables.clear()
        assert contour._phases(2 * M, bits) == doubled
        assert contour._phases(M, bits) == small_first == doubled[::2]
        assert len(small_first) == M


def test_float_and_complex_inputs_are_the_rationals_they_hold():
    cfg = contour.QuadratureConfig.for_region((S4,), NOME, M=8, precision_bits=64)
    values = [contour.extract_cor42(3, (s,), cfg) for s in (S4, 4, 4.0, 4 + 0j)]
    assert all(value == values[0] for value in values[1:])
    assert all(isinstance(c, QQ) for c in cfg.radii)


def test_a_converged_payload_holds_the_value_as_floats():
    s, extract_at, _ = CASES["cor42 t=3 n=1"]
    cfg = contour.QuadratureConfig.for_region(s, NOME, M=32, precision_bits=64)
    result = contour.extract_with_doubling(extract_at, cfg, 8)
    assert result.converged
    assert isinstance(result.est_error, float)
    assert result.as_payload() == {
        "value_re": complex(result.value).real,
        "value_im": complex(result.value).imag,
        "M": result.M,
        "precision_bits": 64,
        "converged": True,
        "est_error": result.est_error,
    }


def test_a_payload_withholds_the_value_when_the_doublings_run_out():
    # from M = 2, three doublings reach M = 16, whose extraction is about
    # 1e-17 from the one at M = 8: far from the 10^-19 that 14 digits ask
    s, extract_at, _ = CASES["cor42 t=3 n=1"]
    cfg = contour.QuadratureConfig.for_region(s, NOME, M=2, precision_bits=64)
    result = contour.extract_with_doubling(extract_at, cfg, 14)
    assert not result.converged
    assert result.M == 16
    assert result.est_error > 1e-19
    payload = result.as_payload()
    assert payload["value_re"] is None and payload["value_im"] is None
    assert payload["converged"] is False
    assert payload["est_error"] == result.est_error


# -- the kernels against their unoptimised forms ---------------------------------


def truncation(z, first):
    """Factor pairs b = 1, 2, ... with scale * first * |Q|^(b-1) >= 2^-(prec + 16)."""
    return max(abs(z), abs(1 / z), 1) * abs(first), mp.mpf(2) ** -(mp.mp.prec + 16)


@functools.lru_cache(maxsize=8)
def euler(Q, prec):
    """(Q; Q)_inf at ``prec`` bits."""
    with mp.workprec(prec):
        return mp.qp(Q)


def vartheta_even_unpaired(z, Q):
    """(1 - 1/z) prod_b (1 - z Q^b)(1 - Q^b / z) / (1 - Q^b)^2, factor by factor."""
    acc = (1 - 1 / z) / euler(Q, mp.mp.prec) ** 2
    m, tol = truncation(z, Q)
    b = 1
    while m >= tol:
        qb = Q**b
        acc *= (1 - z * qb) * (1 - qb / z)
        b += 1
        m *= abs(Q)
    return acc


def theta3_unpaired(z, Q):
    """prod_b (1 - Q^b)(1 + z Q^(b-1/2))(1 + Q^(b-1/2) / z), factor by factor."""
    acc = euler(Q, mp.mp.prec)
    sqrt_q = mp.sqrt(Q)
    m, tol = truncation(z, sqrt_q)
    b = 1
    while m >= tol:
        qh = sqrt_q * Q ** (b - 1)
        acc *= (1 + z * qh) * (1 + qh / z)
        b += 1
        m *= abs(Q)
    return acc


def axis_by_roots(s, w, t, Q):
    """prod_a theta_even(-s w xi^a) / theta_even(-w xi^a) at nome Q, root by root."""
    acc = mp.mpf(1)
    for a in range(t):
        z = -w * mp.expjpi(mp.mpf(2 * a) / t)
        acc *= vartheta_even_unpaired(s * z, Q) / vartheta_even_unpaired(z, Q)
    return acc


def cross_by_factors(si, sk, u, Q):
    """The theta cross-ratio of cor42 in u = w_k / w_i."""
    v = vartheta_even_unpaired
    return v(u * sk / si, Q) * v(u, Q) / (v(u / si, Q) * v(u * sk, Q))


def cor42_by_factors(t, s, Q, w):
    """The cor42 integrand at w, assembled from the unpaired products."""
    acc = mp.mpf(1)
    for sj, wj in zip(s, w):
        acc *= axis_by_roots(sj, wj, t, Q) / (mp.sqrt(sj) * vartheta_even_unpaired(sj, Q))
    for i, k in itertools.combinations(range(len(s)), 2):
        acc *= cross_by_factors(s[i], s[k], w[k] / w[i], Q)
    return acc


def det_by_factors(s, Q, q2, sign, w):
    """The determinant integrand at w, assembled from the unpaired products."""
    n = len(s)
    rows = [
        [
            theta3_unpaired(sign * q2 / v, Q) / vartheta_even_unpaired(v, Q)
            for v in (s[i] * w[i] / w[j] for j in range(n))
        ]
        for i in range(n)
    ]
    const = theta3_unpaired(sign * q2, Q) ** (n - 1) * theta3_unpaired(sign * q2 / mp.fprod(s), Q)
    return mp.det(mp.matrix(rows)) / (const * mp.sqrt(mp.fprod(s)))


def exact(x):
    """A rational or complex number as the exact GaussianRational the code takes."""
    return contour._gaussian(x, "x")


# Pythagorean points (a + b i) / c of the unit circle, spread around it: on a
# circle of rational radius they are exact, so the code and the mpmath oracle
# evaluate the same point, up to mpmath's rounding of it
UNIT_POINTS = [
    (3, 4, 5), (-4, 3, 5), (5, -12, 13), (-12, -5, 13), (8, 15, 17), (-15, 8, 17), (7, -24, 25),
]


def unit_point(a, b, c):
    return contour.GaussianRational(QQ(a, c), QQ(b, c))


def circle_points(s):
    """Points on both circles of the two-variable region for ``s``."""
    cfg = contour.QuadratureConfig.for_region(s, NOME, M=32, precision_bits=120)
    return [exact(c) * unit_point(*p) for c in cfg.radii for p in UNIT_POINTS]


def block_values(block):
    """The entries of a block floating-point table as mpmath numbers."""
    return [mp.mpmathify(contour._to_exact(value, block.exp)) for value in block]


def point_value(series, z):
    """A theta sum at the exact point z, as an mpmath number."""
    (value,) = block_values(series.point(z))
    return value


def assert_close(a, b, rel):
    a, b = mp.mpmathify(a), mp.mpmathify(b)
    assert abs(a - b) <= rel * max(abs(a), abs(b)), (a, b)


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_axis_factor_collapses_the_roots_of_unity(t):
    # the axis tables, built at nome Q^t on M / gcd(t, M) points and read at
    # (t / g) k, against the t thetas at nome Q at every grid point; the
    # points of the coarser grids are every (64 / M)-th point of the finest
    with mp.workprec(120):
        Q, sj = mp.mpf(1) / 100, mp.mpf(9) / 4
        (radius,) = contour.QuadratureConfig.for_region((S94,), NOME).radii
        c = mp.mpmathify(exact(radius))
        by_roots = [axis_by_roots(sj, c * mp.expjpi(mp.mpf(2 * k) / 64), t, Q) for k in range(64)]
        for M in (8, 16, 32, 64):
            grid = contour._Grid(M, [exact(radius)], 120)
            (axis,) = contour._t_core_axes(t, [exact(S94)], exact(NOME), grid)
            assert len(axis) == M
            for k, value in enumerate(block_values(axis)):
                assert_close(value, by_roots[k * 64 // M], mp.mpf(2) ** -100)


def test_paired_theta_factors_match_the_unpaired_products():
    # the Laurent sums at single points against the factor-by-factor products
    with mp.workprec(120):
        rel = mp.mpf(2) ** -110
        points = circle_points((S4, S94)) + [exact(4), exact(QQ(-2, 9)), exact(3 - 5j) / exact(7)]
        for Q in (NOME, -NOME):
            vt = contour._theta_sum(exact(Q), 120)
            for z in points:
                by_factors = vartheta_even_unpaired(mp.mpmathify(z), mp.mpmathify(exact(Q)))
                assert_close(point_value(vt, z), by_factors, rel)


# radii on both sides of vartheta's zero circle |z| = 1, radii ten times
# larger and smaller, and negative radii
TABLE_RADII = ("0.9", "1.1", "-1.1", "9", "11", "-11", "-0.09")


def check_grid_tables(M, prec, rel):
    # each entry against the point sum at its grid point r x^k, which is
    # exact: the radius times the phase-table entry
    with mp.workprec(prec):
        grid = contour._Grid(M, [], prec)
        for Q in (NOME, -NOME):
            series = contour._theta_sum(exact(Q), prec)
            for r in (exact(QQ(x)) for x in TABLE_RADII):
                table = grid.table(series, r)
                assert len(table) == M
                for k, value in enumerate(block_values(table)):
                    point = r * contour._to_exact(grid.phases[k], -grid.bits)
                    assert_close(value, point_value(series, point), rel)


@pytest.mark.parametrize("M", [1, 2, 8, 64])
def test_grid_tables_equal_the_point_sums(M):
    check_grid_tables(M, 120, mp.mpf(2) ** -110)


@pytest.mark.parametrize("M", [1, 2, 8, 64, 128])
def test_grid_tables_equal_the_point_sums_at_80_bits(M):
    # the precision and the largest grid of the benchmark's extractions
    check_grid_tables(M, 80, mp.mpf(2) ** -70)


def torus_point(cfg, rng):
    """An exact point of the torus of ``cfg``: on each circle a random
    Pythagorean point (p^2 - q^2 + 2 p q i) / (p^2 + q^2), turned by i^k."""
    w = []
    for c in cfg.radii:
        p, q = rng.randrange(1, 30), rng.randrange(1, 30)
        turn = exact(1j) ** rng.randrange(4)
        w.append(exact(c) * turn * unit_point(p * p - q * q, 2 * p * q, p * p + q * q))
    return w


@pytest.mark.parametrize("s", [(S4,), (S4, S94), S3], ids=["n=1", "n=2", "n=3"])
def test_point_evaluators_match_the_unpaired_integrands(s):
    rng = random.Random(len(s))
    rel = mp.mpf(2) ** -100
    with mp.workprec(120):
        cfg = contour.QuadratureConfig.for_region(s, NOME, M=16, precision_bits=120)
        Q = mp.mpf(1) / 100
        s_m = [mp.mpf(x.numerator) / x.denominator for x in s]
        for _ in range(3):
            w = torus_point(cfg, rng)
            w_m = [mp.mpmathify(wj) for wj in w]
            for t in (2, 3):
                by_factors = cor42_by_factors(t, s_m, Q, w_m)
                assert_close(quadrature_oracle.eval_cor42(t, s, NOME, w), by_factors, rel)
            # the determinant forms, by mp.det, against the product integrand
            # they equal, for Q2 of either sign
            for q2 in (QQ(5, 3), QQ(-7, 2)):
                q2_m = mp.mpf(q2.numerator) / q2.denominator
                for t in (2, 3):
                    by_factors = det_by_factors(s_m, Q, q2_m, -1, w_m)
                    for sj, wj in zip(s_m, w_m):
                        by_factors *= axis_by_roots(sj, wj, t, Q)
                    value = quadrature_oracle.eval_cor43(t, s, NOME, q2, w)
                    assert_close(value, by_factors, rel)
                by_factors = det_by_factors(s_m, Q, q2_m, 1, w_m)
                value = quadrature_oracle.eval_bo_determinant(s, NOME, q2, w)
                assert_close(value, by_factors, rel)


@pytest.mark.parametrize(("s", "M"), [((S4, S94), 8), (S3, 4)], ids=["n=2", "n=3"])
def test_torus_extract_of_the_point_evaluators_matches_the_tables(s, M):
    # the generic sweep over eval_* against the table path, on one grid
    cfg = contour.QuadratureConfig.for_region(s, NOME, M=M, precision_bits=64)
    pairs = [
        (lambda w: quadrature_oracle.eval_cor42(2, s, NOME, w), contour.extract_cor42(2, s, cfg)),
        (
            lambda w: quadrature_oracle.eval_cor43(3, s, NOME, QQ(2), w),
            contour.extract_cor43(3, s, QQ(2), cfg),
        ),
    ]
    for integrand, tabled in pairs:
        swept = quadrature_oracle.torus_extract(integrand, cfg)
        assert abs(swept - tabled) <= mp.mpf(2) ** -54 * abs(tabled), (swept, tabled)


@pytest.mark.parametrize("case", CASES)
def test_nested_extraction_equals_a_cold_one(case, monkeypatch):
    s, extract_at, _ = CASES[case]
    coarse = contour.QuadratureConfig.for_region(s, NOME, M=16, precision_bits=64)
    fine = contour.QuadratureConfig(32, coarse.precision_bits, coarse.radii, coarse.Q)
    monkeypatch.setattr(contour, "_last_tables", {})
    cold = extract_at(fine)
    cold_keys = set(contour._last_tables)
    monkeypatch.setattr(contour, "_last_tables", {})
    extract_at(coarse)
    coarse_tables = contour._last_tables
    warm = extract_at(fine)
    assert warm == cold
    # every table of the fine grid took its even entries from the coarse one
    assert set(contour._last_tables) == set(coarse_tables) == cold_keys
    for key, table in coarse_tables.items():
        assert all(a is b for a, b in zip(contour._last_tables[key][::2], table)), key


def test_the_table_cache_holds_one_extraction_at_most(monkeypatch):
    first, second = CASES["cor43 t=3 n=2"], CASES["bo_determinant n=2"]
    monkeypatch.setattr(contour, "_last_tables", {})
    cfg = contour.QuadratureConfig.for_region(second[0], NOME, M=16, precision_bits=64)
    second[1](cfg)
    alone = set(contour._last_tables)
    first[1](contour.QuadratureConfig.for_region(first[0], NOME, M=32, precision_bits=64))
    second[1](cfg)
    assert set(contour._last_tables) == alone
    assert all(len(table) <= cfg.M for table in contour._last_tables.values())


def random_block(rng, M, bits):
    """M random entries in the unit square, as a block at 2^-bits and as mpc.

    The entries are doubles, so both forms hold the same numbers exactly.
    """
    values = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(M)]
    block = contour._Block(-bits, [(int(ldexp(x, bits)), int(ldexp(y, bits))) for x, y in values])
    return block, [mp.mpc(x, y) for x, y in values]


@pytest.mark.parametrize("M", [2, 4, 8, 16, 32, 64])
def test_pair_average_matches_the_double_sum(M):
    rng = random.Random(M)
    bits = 80 + contour._GUARD_BITS
    with mp.workprec(80):
        (a1, m1), (a2, m2), (g, mg) = (random_block(rng, M, bits) for _ in range(3))
        direct = mp.fsum(
            m1[k1] * m2[k2] * mg[(k2 - k1) % M] for k1 in range(M) for k2 in range(M)
        ) / M**2
        phases = contour._phases(M, bits)
        a2_hat = contour._Block(a2.exp, contour._dft(a2, phases, bits))
        fast = contour._pair_average(a1, a2_hat, g, phases, bits)
        (fast,) = block_values(fast)
        assert abs(fast - direct) < mp.mpf(2) ** -70


@pytest.mark.parametrize("M", [4, 8])
def test_three_circle_fold_matches_the_triple_sum(M):
    # the fold of _grid_mean against the direct M^3 sum of
    # const * A0(k0) A1(k1) A2(k2) g(k1 - k0, k2 - k0)
    rng = random.Random(M)
    bits = 80 + contour._GUARD_BITS
    with mp.workprec(80):
        axes, axes_mp = zip(*(random_block(rng, M, bits) for _ in range(3)))
        g, g_mp = random_block(rng, M * M, bits)
        const_block, (const,) = random_block(rng, 1, bits)

        f = (const_block, list(axes), g)
        fast = contour._grid_mean(f, contour._Grid(M, [exact(1)] * 3, 80))
        a0, a1, a2 = axes_mp
        direct = const * mp.fsum(
            a0[k0] * a1[k1] * a2[k2] * g_mp[(k1 - k0) % M * M + (k2 - k0) % M]
            for k0, k1, k2 in itertools.product(range(M), repeat=3)
        ) / M**3
        assert abs(fast - direct) < mp.mpf(2) ** -70
