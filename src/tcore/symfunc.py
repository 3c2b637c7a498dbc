"""Exact Schur function evaluation at geometric points, plus the vertex.

Everything here is evaluated at points of the form x_i = q^(a_i - i + 1/2)
for a fixed rational q > 1 and a partition shift a.  Each x_i is sqrt(q)
times the rational y_i = q^(a_i - i), so a symmetric function of degree m
equals (sqrt q)^m times its value at y.  Power sums at y are a finite head
plus one geometric tail, and Newton's identities, run in integers as the
graded recurrence of tcore.qseries, turn them into a table of h_0 .. h_R
over one common denominator D.  Every Jacobi-Trudi determinant is then one
fraction-free integer determinant over D^rows.  The shifted dual Cauchy
sums behind the deformed partition function take no determinant: at each
size they are one elementary symmetric value of the pairwise products,
again by Newton's identities.  Hook products and the vertex's
eta-sum run over plain rationals.  Each public value is that rational number
lifted once into Q(sqrt(q)); it is itself a plain rational whenever q is a
perfect square of a rational.  The oracles of these values, a Schur value
as a hook product and the pair sums as a z-series and as its product form,
are kept with the tests.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from tcore._rat import QQ, Record, rat_pow, rat_str
from tcore.partitions import (
    check_partition,
    conjugate,
    contains,
    hook_lengths,
    kappa,
    n_weight,
    partitions_of,
)
from tcore.qseries import _graded
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


class SpecPoint(Record):
    """The evaluation point x_i = q^(shift_i - i + 1/2) for i = 1, 2, ...

    ``shift`` is a partition, taken as 0 past its length, so the point is
    eventually the plain geometric sequence q^(-i+1/2).
    """

    __slots__ = ("q", "shift")

    def __init__(self, q: object, shift: tuple = ()):
        # a Fraction is in lowest terms with a positive denominator, so q > 1
        # reads off its terms; anything else is converted and checked
        if not (type(q) is QQ and q.numerator > q.denominator):
            q = deformation_base(q)
        self._set(q, check_partition(shift))


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


def _power_sum_y(spec: SpecPoint, k: int) -> tuple[int, int]:
    """p_k at y: the shifted head plus the geometric tail q^(-k l)/(q^k - 1).

    With q^k = A/B and e_i = shift_i - i, which lies in [-l, top] for
    top = max(0, e_1), this is one integer fraction over A^l B^top (A - B),
    returned unreduced as (numerator, denominator) for _newton to clear.
    """
    big, small = spec.q.numerator**k, spec.q.denominator**k
    exps = [part - i for i, part in enumerate(spec.shift, start=1)]
    ell, top = len(exps), max(exps + [0])
    head = sum(big ** (e + ell) * small ** (top - e) for e in exps)
    num = (big - small) * head + small ** (ell + 1 + top)
    return num, big**ell * small**top * (big - small)


def _newton(p, sign: int) -> tuple[list[int], list[int]]:
    """Newton's identities r x_r = sum_k sign^(k-1) p_k x_(r-k), x_0 = 1.

    Given the power sums p_1 .. p_top as integer fractions (numerator,
    denominator), not necessarily reduced, this is h (sign 1) or e (sign -1),
    returned as (g, scales), x_r = g[r] / scales[r] in lowest terms.  It is
    the graded recurrence of exp (qseries._graded), x = exp(sum_k
    sign^(k-1) p_k u^k / k), run fraction-free on the power sums over one
    denominator E, the lcm of theirs.
    """
    e = math.lcm(*(den for _, den in p))
    slope = {
        k: {k: sign ** (k - 1) * num * (e // den)}
        for k, (num, den) in enumerate(p, start=1) if num
    }
    pieces = _graded({0: {0: 1}}, slope, len(p), operator.add, by_degree=True, sigma=e)
    tops = range(len(p) + 1)
    return [pieces[r][0].get(r, 0) for r in tops], [pieces[r][1] for r in tops]


@lru_cache(maxsize=_VALUE_CACHE)
def _h_table(spec: SpecPoint, top: int) -> tuple[tuple[int, ...], int]:
    """h_0 .. h_top at y as integers over one denominator: (hs, D), h_r = hs[r]/D.

    The h_r come from Newton's identities (_newton) in lowest terms, and D is
    the lcm of their denominators.
    """
    g, scales = _newton([_power_sum_y(spec, k) for k in range(1, top + 1)], 1)
    den = math.lcm(*scales)
    return tuple(x * (den // scale) for x, scale in zip(g, scales)), den


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
    power sums are p_k(y; spec1) p_k(y; spec2), multiplied as integer
    fractions.  Returns (g, scales) in integers, the m-th sum being
    g[m] / scales[m] (see _newton).
    """
    pairs = (_power_sum_y(spec1, k) + _power_sum_y(spec2, k) for k in range(1, top + 1))
    return _newton([(n1 * n2, d1 * d2) for n1, d1, n2, d2 in pairs], -1)


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
    for size in range(min(sum(lam), sum(mu)) + 1):
        for eta in partitions_of(size):
            if contains(lam_t, eta) and contains(mu, eta):
                term = _skew_schur_y(lam_t, eta, spec_nu) * _skew_schur_y(mu, eta, spec_nut)
                total += term * rat_pow(q, -size)
    half_kappa = (kappa(lam) + kappa(nu)) // 2
    value = rat_pow(q, half_kappa) * _hook_product_y(nu_t, q) * total
    return _lift(q, sum(lam) + sum(mu) - sum(nu), value)
