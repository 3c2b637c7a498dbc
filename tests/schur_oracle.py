"""Schur oracles: the shifted dual Cauchy pair sums as sums of determinant
products and as a product form, and Schur values from the hook product.

Every partition of a size contributes the product of its Jacobi-Trudi
determinant at one point and its conjugate's at the other, each one integer
determinant over the point's h-table, the way the pair sums were computed
before they became one Newton recurrence.  The same sums, truncated in a
formal z, are also a vacuum double product corrected box by box; and a
Schur value at the unshifted point is a hook product, independent of the
determinant route.
"""

import math

from tcore._rat import QQ, rat_pow
from tcore.partitions import check_partition, conjugate, partitions_of
from tcore.qseries import QQ_DOMAIN, TaylorDomain, TaylorZ, check_order
from tcore.symfunc import (
    SpecPoint,
    _h_table,
    _hook_product_y,
    _jacobi_trudi,
    _lift,
    _newton,
    _schur_pair_sums,
    deformation_base,
)


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


def schur_hook_eval(lam, q):
    """Schur value at the unshifted point from the hook-product form.

    Independent of the determinant route: q^(-n(lam)-|lam|/2) times the
    product of 1/(1 - q^(-h)) over all hooks h.
    """
    lam = check_partition(lam)
    q = deformation_base(q)
    return _lift(q, -sum(lam), _hook_product_y(lam, q))


def schur_pair_sum_series(nu1, nu2, q, z_order: int) -> TaylorZ:
    """Sum of z^|lam| s_lam(point nu1) s_conj(lam)(point conj(nu2)) .

    Truncation of the shifted dual Cauchy sum, one elementary symmetric value
    per power of z (_schur_pair_sums).  Both factors have degree |lam|, so
    the pair is q^|lam| times its rational value at y and each z coefficient
    is a plain rational.
    """
    nu1, nu2 = tuple(nu1), tuple(nu2)
    check_order(z_order)
    spec1 = SpecPoint(q, nu1)
    spec2 = SpecPoint(q, conjugate(nu2))
    sums, scales = _schur_pair_sums(spec1, spec2, z_order)
    a, b = spec1.q.numerator, spec1.q.denominator
    cs = [QQ(s * a**n, scale * b**n) for n, (s, scale) in enumerate(zip(sums, scales))]
    return TaylorZ(TaylorDomain(QQ_DOMAIN, z_order), cs)


def _vacuum_pair_product(q, dom: TaylorDomain) -> TaylorZ:
    """The doubly indexed product of (1 + z q^(-j-k+1)) over j, k >= 1.

    Collecting the exponent m = j + k - 1 gives the multiset {q^(-m) with
    multiplicity m}, whose power sums are q^(-m)/(1-q^(-m))^2, and the
    product is the elementary symmetric generating series of that multiset.
    """
    p = [rat_pow(q, -k) / (1 - rat_pow(q, -k)) ** 2 for k in range(1, dom.z_order + 1)]
    pairs = [(x.numerator, x.denominator) for x in p]
    return TaylorZ(dom, [dom.inner.coerce(QQ(g, s)) for g, s in zip(*_newton(pairs, -1))])


def newton_by_falling_factorials(p, sign: int) -> tuple[list[int], list[int]]:
    """Newton's identities r x_r = sum_k sign^(k-1) p_k x_(r-k) in integers,
    unreduced, the way symfunc ran them before they became the graded
    recurrence of exp: with p_k = P_k/E over one denominator E, the numbers
    g_r = r! E^r x_r obey g_r = sum_k sign^(k-1) P_k E^(k-1) ((r-1)!/(r-k)!) g_(r-k),
    and x_r = g[r] / scales[r]."""
    e = math.lcm(*(x.denominator for x in p))
    c = [None] + [sign**k * x.numerator * (e // x.denominator) * e**k for k, x in enumerate(p)]
    g, scales = [1], [1]
    for r in range(1, len(p) + 1):
        acc, falling = 0, 1  # falling = (r-1)!/(r-k)!
        for k in range(1, r + 1):
            acc += c[k] * falling * g[r - k]
            falling *= r - k
        g.append(acc)
        scales.append(scales[-1] * r * e)
    return g, scales


def _part(p, i: int) -> int:
    return p[i - 1] if 1 <= i <= len(p) else 0


def _boxes(p):
    for j, row in enumerate(p, start=1):
        for k in range(1, row + 1):
            yield j, k


def hook_pair_product_series(nu1, nu2, q, z_order: int) -> TaylorZ:
    """Product form of the shifted dual Cauchy sum, z-truncated.

    The vacuum double product is corrected by one factor per box of nu1 and
    one per box of nu2.  The nu2-indexed factor pairs the box (j, k) with
    the j-th row length of nu2; only the row pairing matches the brute sum.
    """
    nu1, nu2 = tuple(nu1), tuple(nu2)
    check_order(z_order)
    q = deformation_base(q)
    dom = TaylorDomain(QQ_DOMAIN, z_order)
    nu1t = conjugate(nu1)
    nu2t = conjugate(nu2)
    z = TaylorZ.variable(dom)
    out = _vacuum_pair_product(q, dom)
    for j, k in _boxes(nu1):
        out = out * (1 + z * rat_pow(q, nu1[j - 1] + _part(nu2t, k) - j - k + 1))
    for j, k in _boxes(nu2):
        out = out * (1 + z * rat_pow(q, -_part(nu1t, k) - nu2[j - 1] + j + k - 1))
    return out
