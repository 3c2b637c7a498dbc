"""Torus quadrature against the exact series evaluated at the same nome."""

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
