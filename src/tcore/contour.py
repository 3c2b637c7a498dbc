"""Torus quadrature for constant-mode extraction at numeric Q.

The exact routes in :mod:`tcore.npoint` produce Q-series.  This module
approaches the same quantities analytically: each generating function is the
w_1^0...w_n^0 coefficient of an explicit integrand on a product of circles,
and averaging the integrand over an M-point grid per circle recovers that
coefficient with error decaying exponentially in M.  Everything runs in
mpmath arbitrary-precision arithmetic, so the extracted numbers serve as a
floating-point cross-check of the exact series at a fixed numeric nome.

A note on branches.  The odd theta function carries a factor z^(1/2), so a
single theta value is only defined up to sign.  In every integrand used here
the half-powers occur in reciprocal pairs: numerator against denominator
within each grid axis, row against column inside the determinants.  The
evaluators therefore never take a square root of a grid variable.  Each theta
value is split as z^(1/2) * (1 - 1/z) * (even product), the paired z^(1/2)
factors are cancelled by hand before any evaluation happens, and what remains
is a single-valued function of the grid point.  Square roots are taken only
of positive reals and of the nome itself.

On the grid axes of the t-core integrands the pairing goes one step
further.  The t thetas at the arguments -w xi^a, xi^a running over the t-th
roots of unity, multiply to a single theta at nome Q^t and argument (-w)^t,
up to a constant that cancels between numerator and denominator.  So each
axis costs two products at the faster-converging nome Q^t instead of 2t at
nome Q, and its half-powers reduce to s^(t/2), which cancels against the
integrand's constant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import exp, log

import mpmath as mp

from tcore._rat import is_rational
from tcore.qseries import check_t

__all__ = [
    "ExtractionResult",
    "QuadratureConfig",
    "eval_bo_determinant",
    "eval_cor42",
    "eval_cor43",
    "extract_bo_determinant",
    "extract_cor42",
    "extract_cor43",
    "extract_with_doubling",
    "torus_extract",
]

_GUARD_BITS = 16
_MAX_VARS = 3


def _as_mp(x):
    """Convert a rational/float/complex input to an mpmath number."""
    if is_rational(x):
        return mp.mpf(int(x.numerator)) / int(x.denominator)
    return mp.mpmathify(x)


def _abs_float(x) -> float:
    """Crude magnitude of a numeric input, for feasibility checks."""
    if is_rational(x):
        return abs(int(x.numerator)) / int(x.denominator)
    return abs(complex(x))


# -- numeric theta building blocks -----------------------------------------


class _NomeContext:
    """Per-(Q, precision) state shared by the theta product evaluators.

    Holds the nome powers, paired with the constant part of each factor pair,
    and the z-independent normalizing products, so that evaluating a theta
    function at a new argument only costs the argument-dependent factors.
    Products are truncated once a factor differs from 1 by less than
    2^-(prec + guard); the guard keeps the discarded tail below the rounding
    floor of the requested precision.
    """

    __slots__ = (
        "Q", "abs_Q", "sqrt_Q", "tol", "euler", "vt_norm", "_pairs", "_half_pairs"
    )

    def __init__(self, Q):
        self.Q = Q
        self.abs_Q = abs(Q)
        if self.abs_Q >= 1:
            raise ValueError("the nome must satisfy |Q| < 1")
        self.sqrt_Q = mp.sqrt(Q)
        self.tol = mp.mpf(2) ** (-(mp.mp.prec + _GUARD_BITS))
        self._pairs = [None]
        self._half_pairs = [None]
        euler = mp.mpf(1)
        b, m = 1, self.abs_Q
        while m >= self.tol:
            euler *= 1 - self.pair(b)[0]
            b += 1
            m *= self.abs_Q
        self.euler = euler
        self.vt_norm = 1 / (euler * euler)

    def pair(self, b: int):
        """(Q^b, 1 + Q^(2b)), as (1 - z Q^b)(1 - Q^b/z) = 1 + Q^(2b) - Q^b (z + 1/z)."""
        pairs = self._pairs
        while len(pairs) <= b:
            qb = self.Q if len(pairs) == 1 else pairs[-1][0] * self.Q
            pairs.append((qb, 1 + qb * qb))
        return pairs[b]

    def half_pair(self, b: int):
        """(Q^(b-1/2), 1 + Q^(2b-1)), with the principal square root of Q."""
        pairs = self._half_pairs
        while len(pairs) <= b:
            qh = self.sqrt_Q if len(pairs) == 1 else pairs[-1][0] * self.Q
            pairs.append((qh, 1 + qh * qh))
        return pairs[b]


_nome_cache: dict = {}


def _nome_context(Q) -> _NomeContext:
    key = (mp.mp.prec, Q)
    ctx = _nome_cache.get(key)
    if ctx is None:
        if len(_nome_cache) >= 16:
            _nome_cache.clear()
        ctx = _NomeContext(Q)
        _nome_cache[key] = ctx
    return ctx


def _vartheta_even(z, ctx: _NomeContext):
    """The odd theta function with its z^(1/2) stripped off.

    Returns (1 - 1/z) * prod_b (1 - z Q^b)(1 - Q^b/z) / (1 - Q^b)^2, so that
    the true theta value is z^(1/2) times this.  Single-valued in z.  Each
    factor pair is taken as 1 + Q^(2b) - Q^b (z + 1/z): one complex product
    per b instead of two.
    """
    zinv = 1 / z
    z_sym = z + zinv
    acc = (1 - zinv) * ctx.vt_norm
    scale = max(abs(z), abs(zinv))
    b, m = 1, scale * ctx.abs_Q
    while m >= ctx.tol:
        qb, cb = ctx.pair(b)
        acc *= cb - qb * z_sym
        b += 1
        m *= ctx.abs_Q
    return acc


def _vartheta_pos(x, ctx: _NomeContext):
    """Full odd theta value at a positive real argument."""
    return mp.sqrt(x) * _vartheta_even(x, ctx)


def _theta3(z, ctx: _NomeContext):
    """Even theta value: prod_b (1 - Q^b)(1 + z Q^(b-1/2))(1 + Q^(b-1/2)/z).

    Paired like ``_vartheta_even``: 1 + Q^(2b-1) + Q^(b-1/2) (z + 1/z).
    """
    zinv = 1 / z
    z_sym = z + zinv
    acc = ctx.euler
    scale = max(abs(z), abs(zinv), mp.mpf(1))
    b, m = 1, scale * abs(ctx.sqrt_Q)
    while m >= ctx.tol:
        qh, ch = ctx.half_pair(b)
        acc *= ch + qh * z_sym
        b += 1
        m *= ctx.abs_Q
    return acc


# -- grid geometry -----------------------------------------------------------


@dataclass(frozen=True)
class QuadratureConfig:
    """Grid geometry and working precision for a torus extraction.

    M points per circle (a power of two, so that doubled grids nest), one
    radius per auxiliary variable, and the numeric nome.  The radii must
    place each circle inside the annulus where the integrand's Laurent
    expansion converges; ``validate_region`` checks that chain against a
    concrete s-vector.
    """

    M: int
    precision_bits: int
    radii: tuple
    Q: object
    guard_bits: int = _GUARD_BITS

    def __post_init__(self):
        if self.M < 2 or self.M & (self.M - 1):
            raise ValueError("M must be a power of two, at least 2")
        if self.precision_bits < 53:
            raise ValueError("precision_bits must be at least 53")
        radii = tuple(float(c) for c in self.radii)
        object.__setattr__(self, "radii", radii)
        if not 1 <= len(radii) <= _MAX_VARS:
            raise ValueError(
                f"between 1 and {_MAX_VARS} circles supported "
                f"(cost grows like M^n), got {len(radii)}"
            )
        if any(c2 >= c1 for c1, c2 in zip(radii, radii[1:])):
            raise ValueError("radii must be strictly decreasing")
        if radii[-1] <= 1:
            raise ValueError("the innermost radius must exceed 1")
        if not 0 <= _abs_float(self.Q) < 1:
            raise ValueError("the nome must satisfy |Q| < 1")

    @property
    def n(self) -> int:
        return len(self.radii)

    def validate_region(self, s, margin: float = 0.1) -> None:
        """Check 1 < c_n < s_n c_n < ... < c_1 < s_1 c_1 < 1/|Q| with headroom.

        The margin rejects configurations whose smallest gap falls below the
        given fraction of the equal-split gap, since a circle hugging one of
        the theta zero loci ruins the exponential convergence in M.
        """
        if len(s) != self.n:
            raise ValueError("one radius per s value is required")
        s_logs = [log(_abs_float(sj)) for sj in s]
        chain = [0.0]
        for c, g in zip(reversed(self.radii), reversed(s_logs)):
            chain.append(log(c))
            chain.append(log(c) + g)
        abs_q = _abs_float(self.Q)
        slack = None
        if abs_q:
            chain.append(log(1 / abs_q))
            slack = chain[-1] - sum(s_logs)
            if slack <= 0:
                raise ValueError("no annuli fit between 1 and 1/|Q| for these s")
        gaps = [b - a for a, b in zip(chain, chain[1:])]
        free_gaps = gaps[::2]
        floor = 0.0 if slack is None else margin * slack / (self.n + 1)
        for g in gaps[1::2]:
            if g <= 0:
                raise ValueError("every s value must exceed 1 in magnitude")
        if min(free_gaps) <= floor:
            raise ValueError(
                f"smallest log-gap {min(free_gaps):.3g} is under the safety "
                f"margin {floor:.3g}; respace the radii"
            )

    @classmethod
    def for_region(cls, s, Q, M: int | None = None, precision_bits: int = 256):
        """Solve the region inequalities for radii with equal log-gaps.

        Equal spacing maximizes the smallest gap, which is what controls the
        quadrature error, so this is the maximin placement rather than any
        assumed closed form.
        """
        n = len(s)
        if not 1 <= n <= _MAX_VARS:
            raise ValueError(f"between 1 and {_MAX_VARS} s values supported")
        s_logs = [log(_abs_float(sj)) for sj in s]
        if any(g <= 0 for g in s_logs):
            raise ValueError("every s value must exceed 1 in magnitude")
        abs_q = _abs_float(Q)
        if abs_q:
            total = log(1 / abs_q)
        else:
            # Q = 0 kills the outer constraint; any comfortable spacing works.
            total = sum(s_logs) + (n + 1) * log(4.0)
        slack = total - sum(s_logs)
        if slack <= 0:
            raise ValueError("no annuli fit between 1 and 1/|Q| for these s")
        gap = slack / (n + 1)
        radii = []
        pos = 0.0
        for j in range(n - 1, -1, -1):
            pos += gap
            radii.append(exp(pos))
            pos += s_logs[j]
        radii.reverse()
        if M is None:
            M = {1: 512, 2: 1024, 3: 32}[n]
        cfg = cls(M=M, precision_bits=precision_bits, radii=tuple(radii), Q=Q)
        cfg.validate_region(s)
        return cfg


def _pairwise_sum(values):
    """Sum in a fixed balanced order, independent of how values were produced."""
    k = len(values)
    if k == 0:
        return mp.mpf(0)
    if k == 1:
        return values[0]
    mid = k // 2
    return _pairwise_sum(values[:mid]) + _pairwise_sum(values[mid:])


def _phases(M: int) -> list:
    return [mp.expjpi(mp.mpf(2 * k) / M) for k in range(M)]


def torus_extract(f, cfg: QuadratureConfig):
    """Average ``f`` over the grid w_j = c_j exp(2 pi i k_j / M).

    For f analytic on a neighbourhood of the torus this converges to the
    constant Laurent coefficient exponentially in M, and it is exact whenever
    f is a Laurent polynomial of degree below M in each variable.  Grid
    evaluations are independent of one another; the reduction is a pairwise
    sum in grid order, so results are reproducible no matter how the
    evaluations are scheduled.
    """
    with mp.workprec(cfg.precision_bits):
        phases = _phases(cfg.M)
        radii = [mp.mpf(c) for c in cfg.radii]
        block: list = []
        block_sums: list = []
        for ks in itertools.product(range(cfg.M), repeat=cfg.n):
            w = tuple(c * phases[k] for c, k in zip(radii, ks))
            try:
                value = mp.mpc(f(w))
            except ZeroDivisionError as exc:
                raise ValueError(
                    f"integrand denominator vanished at grid index {ks}; "
                    "the radii sit on a zero locus"
                ) from exc
            if not mp.isfinite(value):
                raise ValueError(f"integrand not finite at grid index {ks}")
            block.append(value)
            if len(block) == 4096:
                block_sums.append(_pairwise_sum(block))
                block = []
        if block:
            block_sums.append(_pairwise_sum(block))
        return _pairwise_sum(block_sums) / mp.mpf(cfg.M) ** cfg.n


# -- integrands --------------------------------------------------------------


def _check_point(s, w):
    if len(w) != len(s):
        raise ValueError("one grid coordinate per s value is required")


def _axis_factor(s_t, z_t, ctx_t: _NomeContext):
    """s^(-t/2) prod_a theta(-s w xi^a) / theta(-w xi^a), xi = exp(2 pi i/t).

    Over the t-th roots of unity prod_a (1 - z xi^a Q^b) = 1 - z^t Q^(tb), so
    the t stripped thetas at nome Q collapse to one at nome Q^t, up to a
    constant that cancels between numerator and denominator.  Hence the value
    is theta_even(s^t z_t; Q^t) / theta_even(z_t; Q^t) with z_t = (-w)^t and
    ``s_t`` = s^t.  The half-powers of each factor pair leave s^(t/2), which
    cancels against the s^(-t/2) of the integrand's constant.
    """
    return _vartheta_even(s_t * z_t, ctx_t) / _vartheta_even(z_t, ctx_t)


def _cross_factor(si, sk, u, ctx):
    """theta cross-ratio in u = w_i^(-1) w_k; the four roots of u cancel."""
    return (
        _vartheta_even(u * sk / si, ctx)
        * _vartheta_even(u, ctx)
        / (_vartheta_even(u / si, ctx) * _vartheta_even(u * sk, ctx))
    )


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    if len(rows) == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


class _Integrand:
    """const * prod_j axis(j, w_j) * coupling(w), its w-free parts built once.

    ``axis`` is None when the integrand has no per-circle factors.  The
    coupling depends on the grid point only through the ratios w_i / w_k,
    which is what lets the two-circle path tabulate it over one angle.
    """

    __slots__ = ("const", "axis", "coupling")

    def __init__(self, const, axis, coupling):
        self.const = const
        self.axis = axis
        self.coupling = coupling

    def __call__(self, w):
        acc = self.const * self.coupling(w)
        if self.axis is not None:
            for j, wj in enumerate(w):
                acc *= self.axis(j, wj)
        return acc


def _setup(s, Q):
    """The s-values as mpmath numbers and the nome context, at working precision."""
    if not 1 <= len(s) <= _MAX_VARS:
        raise ValueError(f"between 1 and {_MAX_VARS} s values supported")
    return [_as_mp(sj) for sj in s], _nome_context(_as_mp(Q))


def _t_core_axes(t: int, s_m, ctx):
    """The axis factors of the t-core integrands, at nome Q^t."""
    check_t(t)
    ctx_t = _nome_context(ctx.Q**t)
    s_t = [sj**t for sj in s_m]
    return lambda j, wj: _axis_factor(s_t[j], (-wj) ** t, ctx_t)


def _det_integrand(s_m, ctx, Q2, sign, axis):
    """det Theta_3(sign Q2 / v_ij) / theta(v_ij), v_ij = s_i w_i / w_j, normalised.

    Matrix entries are computed without the (w_i/w_j)^(1/2) factors: those
    multiply to 1 along every permutation, so stripping them changes no
    determinant, while the leftover s_i^(1/2) per row joins the constant.  The
    diagonal entries do not depend on w and are computed once.
    """
    q2 = _as_mp(Q2)
    if not q2:
        raise ValueError("Q2 must be nonzero")
    n = len(s_m)
    s_all = mp.mpf(1)
    for sj in s_m:
        s_all *= sj
    const = 1 / (_theta3(sign * q2, ctx) ** (n - 1) * _theta3(sign * q2 / s_all, ctx))
    for sj in s_m:
        const /= mp.sqrt(sj)

    def entry(v):
        return _theta3(sign * q2 / v, ctx) / _vartheta_even(v, ctx)

    diag = [entry(sj) for sj in s_m]

    def coupling(w):
        return _det(
            [
                [diag[i] if i == j else entry(s_m[i] * w[i] / w[j]) for j in range(n)]
                for i in range(n)
            ]
        )

    return _Integrand(const, axis, coupling)


def _cor42(t: int, s, Q) -> _Integrand:
    s_m, ctx = _setup(s, Q)
    axis = _t_core_axes(t, s_m, ctx)
    const = mp.mpf(1)
    for sj in s_m:
        const /= _vartheta_pos(sj, ctx)
    pairs = list(itertools.combinations(range(len(s_m)), 2))

    def coupling(w):
        acc = mp.mpf(1)
        for i, k in pairs:
            acc *= _cross_factor(s_m[i], s_m[k], w[k] / w[i], ctx)
        return acc

    return _Integrand(const, axis, coupling)


def _cor43(t: int, s, Q, Q2) -> _Integrand:
    s_m, ctx = _setup(s, Q)
    return _det_integrand(s_m, ctx, Q2, -1, _t_core_axes(t, s_m, ctx))


def _bo_determinant(s, Q, Q2) -> _Integrand:
    s_m, ctx = _setup(s, Q)
    return _det_integrand(s_m, ctx, Q2, 1, None)


def eval_cor42(t: int, s, Q, w):
    """Product-form integrand for the t-core n-point function.

    Includes the constant prefactor prod_j s_j^(-t/2)/theta(s_j), so the
    torus average of this function is the final value.
    """
    integrand = _cor42(t, s, Q)
    _check_point(s, w)
    return integrand(w)


def eval_cor43(t: int, s, Q, Q2, w):
    """Determinant-form integrand for the t-core n-point function.

    The free parameter Q2 may be any nonzero number; the extracted constant
    mode does not depend on it.
    """
    integrand = _cor43(t, s, Q, Q2)
    _check_point(s, w)
    return integrand(w)


def eval_bo_determinant(s, Q, Q2, w):
    """Determinant integrand for the n-point function of all partitions."""
    integrand = _bo_determinant(s, Q, Q2)
    _check_point(s, w)
    return integrand(w)


# -- extraction ----------------------------------------------------------------


def _dft(values, phases):
    """sum_k values[k] phases[j k mod M] for every j, by radix-2 splitting.

    ``phases`` holds the M-th roots of unity in order; every other one of them
    serves the half-length transforms.
    """
    M = len(values)
    if M == 1:
        return list(values)
    roots = phases[::2]
    even = _dft(values[::2], roots)
    odd = _dft(values[1::2], roots)
    half = M // 2
    out = [None] * M
    for j in range(half):
        twiddled = phases[j] * odd[j]
        out[j] = even[j] + twiddled
        out[j + half] = even[j] - twiddled
    return out


def _pair_average(axis1, axis2, g_table, phases):
    """Average A1(k1) A2(k2) g(k2 - k1 mod M) over the M^2 grid.

    The integrands only couple the two circles through the ratio w_1^(-1)w_2,
    so the double sum is a circular correlation.  With X^(j) the DFT of a
    table over ``phases``, it equals (1/M) sum_j g^(j) A1^(j) A2^(-j): three
    O(M log M) transforms and M products, reduced in a fixed order.
    """
    M = len(phases)
    g_hat = _dft(g_table, phases)
    a1_hat = _dft(axis1, phases)
    a2_hat = _dft(axis2, phases)
    terms = [g_hat[j] * a1_hat[j] * a2_hat[-j % M] for j in range(M)]
    return _pairwise_sum(terms) / mp.mpf(M) ** 3


def _extract(build, s, cfg: QuadratureConfig):
    """Grid average of the integrand ``build()`` makes at the working precision.

    One circle or three: the generic sweep.  Two circles: the axis factors are
    tabulated per circle and the coupling over the ratio angle, so the M^2
    grid costs O(M) integrand parts.
    """
    cfg.validate_region(s)
    with mp.workprec(cfg.precision_bits):
        f = build()
        if cfg.n != 2:
            return torus_extract(f, cfg)
        phases = _phases(cfg.M)
        c1, c2 = (mp.mpf(c) for c in cfg.radii)
        # at k_2 - k_1 = d the ratio w_2 / w_1 is (c2 / c1) phases[d]
        g_table = [f.coupling((c1, c2 * ph)) for ph in phases]
        if f.axis is None:
            return f.const * _pairwise_sum(g_table) / cfg.M
        axis1 = [f.axis(0, c1 * ph) for ph in phases]
        axis2 = [f.axis(1, c2 * ph) for ph in phases]
        return f.const * _pair_average(axis1, axis2, g_table, phases)


def extract_cor42(t: int, s, cfg: QuadratureConfig):
    """Torus extraction of the product-form integrand."""
    return _extract(lambda: _cor42(t, s, cfg.Q), s, cfg)


def extract_cor43(t: int, s, Q2, cfg: QuadratureConfig):
    """Torus extraction of the determinant-form integrand."""
    return _extract(lambda: _cor43(t, s, cfg.Q, Q2), s, cfg)


def extract_bo_determinant(s, Q2, cfg: QuadratureConfig):
    """Torus extraction of the all-partitions determinant integrand."""
    return _extract(lambda: _bo_determinant(s, cfg.Q, Q2), s, cfg)


# -- convergence driver --------------------------------------------------------


@dataclass(frozen=True)
class ExtractionResult:
    """Outcome of an M-doubling run: the value and how much to trust it."""

    value: object
    M: int
    precision_bits: int
    converged: bool
    est_error: object

    def as_payload(self) -> dict:
        """JSON-ready summary; withholds the value when not converged."""
        ok = self.converged
        return {
            "value_re": float(mp.re(self.value)) if ok else None,
            "value_im": float(mp.im(self.value)) if ok else None,
            "M": self.M,
            "precision_bits": self.precision_bits,
            "converged": ok,
            "est_error": None if self.est_error is None else float(self.est_error),
        }


def extract_with_doubling(
    extract_at, cfg: QuadratureConfig, target_digits: int, max_doublings: int = 3
) -> ExtractionResult:
    """Double M until two consecutive extractions agree.

    ``extract_at`` maps a config to a complex value.  Agreement is demanded
    five digits beyond the target, so an accepted value has its quadrature
    error well under the comparison tolerances built on top of it.  When the
    budget runs out the result reports non-convergence instead of a value.
    """
    threshold = mp.mpf(10) ** (-(target_digits + 5))
    value = extract_at(cfg)
    est = None
    for _ in range(max_doublings):
        cfg = replace(cfg, M=2 * cfg.M)
        refined = extract_at(cfg)
        # The difference is formed at the extraction precision; re-wrapping
        # the value itself at ambient precision would throw digits away.
        with mp.workprec(cfg.precision_bits):
            est = abs(refined - value)
        value = refined
        if est < threshold:
            return ExtractionResult(value, cfg.M, cfg.precision_bits, True, est)
    return ExtractionResult(value, cfg.M, cfg.precision_bits, False, est)
