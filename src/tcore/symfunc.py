"""Exact Schur function evaluation at geometric points, plus the vertex.

Everything here is evaluated at points of the form x_i = q^(a_i - i + 1/2)
for a fixed rational q > 1 and a partition shift a.  Each x_i is sqrt(q)
times the rational y_i = q^(a_i - i), so a symmetric function of degree m
equals (sqrt q)^m times its value at y.  Power sums at y are a finite head
plus one geometric tail, and Newton's identities turn them into a table of
h_0 .. h_R over one common denominator D.  Every Jacobi-Trudi determinant is
then one fraction-free integer determinant over D^rows.  The shifted dual
Cauchy sums behind the deformed partition function take no determinant: at
each size they are one elementary symmetric value of the pairwise products,
again by Newton's identities in integers.  Hook products and the vertex's
eta-sum run over plain rationals.  Each public value is that rational number
lifted once into Q(sqrt(q)); it is itself a plain rational whenever q is a
perfect square of a rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from tcore._rat import QQ, rat_pow, rat_str
from tcore.partitions import (
    check_partition,
    conjugate,
    contains,
    hook_lengths,
    kappa,
    n_weight,
)
from tcore.qseries import QQ_DOMAIN, TaylorDomain, TaylorZ, check_order
from tcore.quadext import sqrt_field


def deformation_base(q) -> QQ:
    """The base q of the vertex and its callers as a rational; only q > 1 is supported."""
    try:
        q = QQ(q)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(
            f"the deformation base must be a finite rational number, got {q!r}"
        ) from None
    if q <= 1:
        raise ValueError(f"the deformation base must satisfy q > 1, got {rat_str(q)}")
    return q


@dataclass(frozen=True)
class SpecPoint:
    """The evaluation point x_i = q^(shift_i - i + 1/2) for i = 1, 2, ...

    ``shift`` is a partition, taken as 0 past its length, so the point is
    eventually the plain geometric sequence q^(-i+1/2).
    """

    q: object
    shift: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "q", deformation_base(self.q))
        object.__setattr__(self, "shift", tuple(int(p) for p in self.shift))
        check_partition(self.shift)


# Fixed cache bounds.  The h-tables serve skew_schur and topological_vertex:
# every vertex with all three shapes of size at most 4 stores 48 of them, so
# that sweep evicts no entry.
_SQRT_CACHE = 32
_VALUE_CACHE = 1024


@lru_cache(maxsize=_SQRT_CACHE)
def _sqrt_q(q):
    return sqrt_field(q)


def _lift(q: QQ, m: int, x):
    """(sqrt q)^m * x for a rational x, in the exact home of sqrt(q)."""
    root, lift = _sqrt_q(q)
    half = x * rat_pow(q, m // 2)
    return root * half if m % 2 else lift(half)


def _power_sum_y(spec: SpecPoint, k: int) -> QQ:
    """p_k at y: the shifted head plus the geometric tail q^(-k l)/(q^k - 1).

    With q^k = A/B and e_i = shift_i - i, which lies in [-l, top] for
    top = max(0, e_1), this is one integer fraction over A^l B^top (A - B).
    """
    big, small = spec.q.numerator**k, spec.q.denominator**k
    exps = [part - i for i, part in enumerate(spec.shift, start=1)]
    ell, top = len(exps), max(exps + [0])
    head = sum(big ** (e + ell) * small ** (top - e) for e in exps)
    num = (big - small) * head + small ** (ell + 1 + top)
    return QQ(num, big**ell * small**top * (big - small))


def _newton(p, sign: int) -> tuple[list[int], list[int]]:
    """Newton's identities r x_r = sum_k sign^(k-1) p_k x_(r-k) in integers.

    Given the power sums p_1 .. p_top this is h (sign 1) or e (sign -1),
    returned unreduced as (g, scales), x_r = g[r] / scales[r]: with
    p_k = P_k/E over one denominator E, the numbers g_r = r! E^r x_r obey
    g_r = sum_k sign^(k-1) P_k E^(k-1) ((r-1)!/(r-k)!) g_(r-k).
    """
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


@lru_cache(maxsize=_VALUE_CACHE)
def _h_table(spec: SpecPoint, top: int) -> tuple[tuple[int, ...], int]:
    """h_0 .. h_top at y as integers over one denominator: (hs, D), h_r = hs[r]/D.

    The h_r come from Newton's identities (_newton), each reduced to lowest
    terms, and D is the lcm of their denominators.
    """
    g, scales = _newton([_power_sum_y(spec, k) for k in range(1, top + 1)], 1)
    hs = [QQ(x, scale) for x, scale in zip(g, scales)]
    den = math.lcm(*(h.denominator for h in hs))
    return tuple(h.numerator * (den // h.denominator) for h in hs), den


def _bareiss_det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free elimination.

    Bareiss (Math. Comp. 22, 1968): after step k every entry is a (k+1)-minor,
    so each division by the previous pivot is exact.  A zero pivot is swapped
    for a nonzero one below it; if there is none the matrix is singular.
    """
    work = [list(r) for r in rows]
    n = len(work)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if not work[k][k]:
            swap = next((i for i in range(k + 1, n) if work[i][k]), None)
            if swap is None:
                return 0
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        pivot_row = work[k]
        pivot = pivot_row[k]
        for row in work[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f * pivot_row[j]) // prev
        prev = pivot
    return sign * work[-1][-1]


def _jacobi_trudi(lam, eta, hs) -> int:
    """det(hs[lam_i - eta_j - i + j]) for an integer h-table, 0 below index 0.

    With h_r = hs[r]/D this is the skew Schur value times D^len(lam); the
    table must reach lam_1 + len(lam) - 1.
    """
    n = len(lam)
    eta_pad = eta + (0,) * (n - len(eta))
    return _bareiss_det(
        [[hs[k] if k >= 0 else 0 for k in (lam[i] - eta_pad[j] - i + j for j in range(n))]
         for i in range(n)]
    )


def _skew_schur_y(lam, eta, spec: SpecPoint) -> QQ:
    """The Jacobi-Trudi determinant det(h_(lam_i - eta_j - i + j)) at y."""
    if not contains(lam, eta):
        return QQ(0)
    n = len(lam)
    if n == 0:
        return QQ(1)
    hs, den = _h_table(spec, lam[0] + n - 1)
    return QQ(_jacobi_trudi(lam, eta, hs), den**n)


def _schur_pair_sums(spec1: SpecPoint, spec2: SpecPoint, top: int):
    """sum over lam |- m of s_lam(y; spec1) s_conj(lam)(y; spec2), m = 0..top.

    By the dual Cauchy identity (Macdonald, Symmetric Functions, I (4.3'))
    the m-th sum is e_m of the products y_i y'_j of the two points, whose
    power sums are p_k(y; spec1) p_k(y; spec2).  Returns (g, scales) in
    integers, the m-th sum being g[m] / scales[m] (see _newton).
    """
    return _newton(
        [_power_sum_y(spec1, k) * _power_sum_y(spec2, k) for k in range(1, top + 1)], -1
    )


def _hook_product_y(lam, q: QQ) -> QQ:
    """q^(-n(lam)) times the product of 1/(1 - q^(-h)) over all hooks h.

    With q = a/b this is b^n(lam) a^(sum h - n(lam)) / prod (a^h - b^h), one
    integer fraction.
    """
    a, b = q.numerator, q.denominator
    hooks = hook_lengths(lam).values()
    n = n_weight(lam)
    den = math.prod(a**h - b**h for h in hooks)
    return QQ(b**n * a ** (sum(hooks) - n), den)


def skew_schur(lam, eta, spec: SpecPoint):
    """Skew Schur value det(h_(lam_i - eta_j - i + j)) at the point.

    Returns 0 when eta is not contained in lam; with eta empty this is the
    straight Schur value.
    """
    lam, eta = check_partition(lam), check_partition(eta)
    return _lift(spec.q, sum(lam) - sum(eta), _skew_schur_y(lam, eta, spec))


def schur_hook_eval(lam, q):
    """Schur value at the unshifted point from the hook-product form.

    Independent of the determinant route: q^(-n(lam)-|lam|/2) times the
    product of 1/(1 - q^(-h)) over all hooks h.
    """
    lam = check_partition(lam)
    q = deformation_base(q)
    return _lift(q, -sum(lam), _hook_product_y(lam, q))


def _meet(a, b):
    """Part-wise minimum of two partitions (their diagram intersection)."""
    return tuple(min(x, y) for x, y in zip(a, b))


def _subpartitions(cap):
    """All partitions fitting part-wise under cap (cap weakly decreasing)."""

    def rec(i, prev):
        yield ()
        if i == len(cap):
            return
        for part in range(1, min(prev, cap[i]) + 1):
            for rest in rec(i + 1, part):
                yield (part,) + rest

    return rec(0, cap[0] if cap else 0)


def topological_vertex(lam, mu, nu, q):
    """The vertex C(lam, mu, nu) at rational q, as a finite exact sum.

    The inner sum runs over the partitions eta contained in both conj(lam)
    and mu; terms outside that intersection vanish, so the sum is exact.
    The eta-term has degree |lam| + |mu| - 2|eta| and the hook factor degree
    -|nu|, so the sum runs at y with q^(-|eta|) per term and is lifted by
    (sqrt q)^(|lam| + |mu| - |nu|) at the end.
    """
    lam, mu, nu = check_partition(lam), check_partition(mu), check_partition(nu)
    q = deformation_base(q)
    lam_t = conjugate(lam)
    nu_t = conjugate(nu)
    spec_nu = SpecPoint(q, nu)
    spec_nut = SpecPoint(q, nu_t)
    total = QQ(0)
    for eta in _subpartitions(_meet(lam_t, mu)):
        size = sum(eta)
        term = _skew_schur_y(lam_t, eta, spec_nu) * _skew_schur_y(mu, eta, spec_nut)
        total += term * rat_pow(q, -size)
    half_kappa = (kappa(lam) + kappa(nu)) // 2
    value = rat_pow(q, half_kappa) * _hook_product_y(nu_t, q) * total
    return _lift(q, sum(lam) + sum(mu) - sum(nu), value)


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
    return TaylorZ(dom, [dom.inner.coerce(QQ(g, s)) for g, s in zip(*_newton(p, -1))])


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
