"""Exact Schur function evaluation at geometric points, plus the vertex.

Everything here is evaluated at points of the form x_i = q^(a_i - i + 1/2)
for a fixed rational q > 1 and a partition shift a.  Power sums at
such a point are a finite head plus one geometric tail, so Newton's
identities and Jacobi-Trudi determinants keep every value inside Q(sqrt(q)).
Values are plain rationals whenever q is a perfect square of a rational.
"""

from __future__ import annotations

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
    partitions_of,
)
from tcore.qseries import QQ_DOMAIN, TaylorDomain, TaylorZ, check_order
from tcore.quadext import sqrt_field


def deformation_base(q) -> QQ:
    """The base q of the vertex and its callers as a rational; only q > 1 is supported."""
    q = QQ(q)
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


@lru_cache(maxsize=None)
def _sqrt_q(q):
    return sqrt_field(q)


@lru_cache(maxsize=None)
def power_sum(spec: SpecPoint, k: int):
    """p_k at the point: the shifted head plus the geometric tail."""
    if k < 1:
        raise ValueError("power sum index must be positive")
    sq, lift = _sqrt_q(spec.q)
    ell = len(spec.shift)
    total = lift(0)
    for i, part in enumerate(spec.shift, start=1):
        total = total + sq ** (k * (2 * part - 2 * i + 1))
    tail_scale = lift(1 - rat_pow(spec.q, -k))
    return total + sq ** (-k * (2 * ell + 1)) / tail_scale


@lru_cache(maxsize=None)
def complete_homogeneous(spec: SpecPoint, r: int):
    """h_r at the point via Newton's identities; h_0 is 1."""
    if r < 0:
        raise ValueError("complete symmetric index must be nonnegative")
    _, lift = _sqrt_q(spec.q)
    if r == 0:
        return lift(1)
    acc = lift(0)
    for k in range(1, r + 1):
        acc = acc + power_sum(spec, k) * complete_homogeneous(spec, r - k)
    return acc / lift(r)


def _det(rows, zero, one):
    """Determinant by Gaussian elimination over an exact field."""
    n = len(rows)
    work = [list(r) for r in rows]
    det = one
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return zero
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        pv = work[col][col]
        det = det * pv
        inv = one / pv
        for r in range(col + 1, n):
            factor = work[r][col] * inv
            if factor:
                for c in range(col, n):
                    work[r][c] = work[r][c] - factor * work[col][c]
    return det


def skew_schur(lam, eta, spec: SpecPoint):
    """Skew Schur value det(h_(lam_i - eta_j - i + j)) at the point.

    Returns 0 when eta is not contained in lam; with eta empty this is the
    straight Schur value.
    """
    lam, eta = tuple(lam), tuple(eta)
    check_partition(lam)
    check_partition(eta)
    _, lift = _sqrt_q(QQ(spec.q))
    if not contains(lam, eta):
        return lift(0)
    n = len(lam)
    if n == 0:
        return lift(1)
    zero, one = lift(0), lift(1)
    eta_pad = eta + (0,) * (n - len(eta))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            idx = lam[i] - eta_pad[j] - i + j
            row.append(complete_homogeneous(spec, idx) if idx >= 0 else zero)
        rows.append(row)
    return _det(rows, zero, one)


def schur_hook_eval(lam, q):
    """Schur value at the unshifted point from the hook-product form.

    Independent of the determinant route: q^(-n(lam)-|lam|/2) times the
    product of 1/(1 - q^(-h)) over all hooks h.
    """
    lam = tuple(lam)
    check_partition(lam)
    q = deformation_base(q)
    sq, lift = _sqrt_q(q)
    out = sq ** (-(2 * n_weight(lam) + sum(lam)))
    for h in hook_lengths(lam).values():
        out = out / lift(1 - rat_pow(q, -h))
    return out


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


def topological_vertex(lam, mu, nu, q, eta_bound: int | None = None):
    """The vertex C(lam, mu, nu) at rational q, as a finite exact sum.

    The inner sum runs over partitions eta contained in both conj(lam) and
    mu; terms outside that intersection vanish, so the sum is exact once
    eta_bound reaches min(|lam|, |mu|), which is the default.
    """
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    for p in (lam, mu, nu):
        check_partition(p)
    q = deformation_base(q)
    _, lift = _sqrt_q(q)
    lam_t = conjugate(lam)
    nu_t = conjugate(nu)
    if eta_bound is None:
        eta_bound = min(sum(lam), sum(mu))
    spec_nu = SpecPoint(q, nu)
    spec_nut = SpecPoint(q, nu_t)
    total = lift(0)
    for eta in _subpartitions(_meet(lam_t, mu)):
        if sum(eta) > eta_bound:
            continue
        total = total + skew_schur(lam_t, eta, spec_nu) * skew_schur(mu, eta, spec_nut)
    half_kappa = (kappa(lam) + kappa(nu)) // 2
    return lift(rat_pow(q, half_kappa)) * schur_hook_eval(nu_t, q) * total


def schur_pair_sum_series(nu1, nu2, q, z_order: int) -> TaylorZ:
    """Sum of z^|lam| s_lam(point nu1) s_conj(lam)(point conj(nu2)) .

    Brute truncation of the shifted dual Cauchy sum: every partition with
    |lam| <= z_order contributes one exact product of Schur values.  The two
    factors carry opposite half-powers of q, so each z coefficient is a
    plain rational and the result lives over the rational domain.
    """
    nu1, nu2 = tuple(nu1), tuple(nu2)
    check_order(z_order)
    q = QQ(q)
    spec1 = SpecPoint(q, nu1)
    spec2 = SpecPoint(q, conjugate(nu2))
    _, lift = _sqrt_q(q)
    cs = []
    for n in range(z_order + 1):
        acc = lift(0)
        for lam in partitions_of(n):
            acc = acc + skew_schur(lam, (), spec1) * skew_schur(conjugate(lam), (), spec2)
        cs.append(QQ_DOMAIN.coerce(acc))
    return TaylorZ(TaylorDomain(QQ_DOMAIN, z_order), cs)


def _one_plus_z_times(dom: TaylorDomain, scale) -> TaylorZ:
    cs = [dom.inner.zero] * (dom.z_order + 1)
    cs[0] = dom.inner.one
    if dom.z_order >= 1:
        cs[1] = dom.inner.coerce(scale)
    return TaylorZ(dom, cs)


def _vacuum_pair_product(q, dom: TaylorDomain) -> TaylorZ:
    """The doubly indexed product of (1 + z q^(-j-k+1)) over j, k >= 1.

    Collecting the exponent m = j + k - 1 gives the multiset {q^(-m) with
    multiplicity m}, whose power sums are q^(-m)/(1-q^(-m))^2, and the
    product is the elementary symmetric generating series of that multiset.
    """
    order = dom.z_order
    p = [None] + [
        rat_pow(q, -k) / (1 - rat_pow(q, -k)) ** 2 for k in range(1, order + 1)
    ]
    e = [QQ(1)]
    for m in range(1, order + 1):
        acc = QQ(0)
        for k in range(1, m + 1):
            term = p[k] * e[m - k]
            acc = acc + (term if k % 2 == 1 else -term)
        e.append(acc / m)
    return TaylorZ(dom, [dom.inner.coerce(c) for c in e])


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
    out = _vacuum_pair_product(q, dom)
    for j, k in _boxes(nu1):
        e = nu1[j - 1] + _part(nu2t, k) - j - k + 1
        out = out * _one_plus_z_times(dom, rat_pow(q, e))
    for j, k in _boxes(nu2):
        e = -_part(nu1t, k) - nu2[j - 1] + j + k - 1
        out = out * _one_plus_z_times(dom, rat_pow(q, e))
    return out
