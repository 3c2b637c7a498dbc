"""The shifted dual Cauchy pair sums as sums of determinant products: the
oracle of the elementary symmetric form in tcore.symfunc.

Every partition of a size contributes the product of its Jacobi-Trudi
determinant at one point and its conjugate's at the other, each one integer
determinant over the point's h-table, the way the pair sums were computed
before they became one Newton recurrence.
"""

from tcore._rat import QQ
from tcore.partitions import conjugate, partitions_of
from tcore.symfunc import _h_table, _jacobi_trudi


def schur_pair_sums(spec1, spec2, top: int) -> list:
    """sum over lam |- m of s_lam(y; spec1) s_conj(lam)(y; spec2), m = 0..top,
    as rationals."""
    hs1, d1 = _h_table(spec1, top)
    hs2, d2 = _h_table(spec2, top)
    sums = []
    for m in range(top + 1):
        acc = 0
        for lam in partitions_of(m):
            lam_t = conjugate(lam)
            acc += (
                _jacobi_trudi(lam, (), hs1) * d1 ** (m - len(lam))
                * _jacobi_trudi(lam_t, (), hs2) * d2 ** (m - len(lam_t))
            )
        sums.append(QQ(acc, (d1 * d2) ** m))
    return sums
