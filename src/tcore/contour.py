"""Torus quadrature for constant-mode extraction at numeric Q.

The exact routes in :mod:`tcore.npoint` produce Q-series.  This module
approaches the same quantities analytically: each generating function is the
w_1^0...w_n^0 coefficient of an explicit integrand on a product of circles,
and averaging the integrand over an M-point grid per circle recovers that
coefficient with error decaying exponentially in M.  The extracted numbers
serve as a floating-point cross-check of the exact series at a fixed numeric
nome.

A note on branches.  The odd theta function carries a factor z^(1/2), so a
single theta value is only defined up to sign.  In every integrand used here
the half-powers occur in reciprocal pairs: numerator against denominator
within each grid axis and within each cross ratio.  The evaluators therefore
never take a square root of a grid variable.  Each theta value is split as
z^(1/2) * (1 - 1/z) * (even product), the paired z^(1/2) factors are
cancelled by hand before any evaluation happens, and what remains is a
single-valued function of the grid point.  The only square roots taken are
those of the s-values in the constant.

On the grid axes of the t-core integrands the pairing goes one step
further.  The t thetas at the arguments -w xi^a, xi^a running over the t-th
roots of unity, multiply to a single theta at nome Q^t and argument (-w)^t,
up to a constant that cancels between numerator and denominator.  So each
axis costs two thetas at the faster-converging nome Q^t instead of 2t at
nome Q, and its half-powers reduce to s^(t/2), which cancels against the
integrand's constant.

Every theta the integrands need on the grid sits on a geometric grid
r x^k, x = exp(2 pi i / M), with one radius r per factor: (-c_j)^t and
s_j^t (-c_j)^t on the axes, and in the cross ratios c_k / c_i times 1, an
s-value or a ratio of s-values.  Each such factor is tabulated once, as its
triple-product Laurent sum, and the grid average reads products of table
entries:

- Every table on the grid is block floating point, a ``_Block``: a list of
  Gaussian-integer mantissas (re, im) that share one binary exponent.  A
  theta table takes its exponent from its Laurent terms, with prec + 16
  fraction bits below the largest term, and sums the integer terms against
  an integer table of roots of unity.  The axis ratios, the cross ratios and
  the transforms of the grid average are integer products and quotients of
  such tables; only the mean becomes an mpmath number, at the working
  precision.  Integer sums are exact, so no summation order needs fixing.
- The phase table holds the M-th roots of unity times 2^(prec + 16), rounded
  to Gaussian integers.  It is built once per precision, at the largest M
  asked for so far, and every extraction at that precision reads its
  m-point table as every (M / m)-th entry.
- Axis tables are indexed by k_j, coupling tables by k_k - k_i.  (-w)^t
  repeats with period M / gcd(t, M), so an axis table is built at that many
  points and read at index (t / g) k.
- The M-point grid is the even half of the 2M-point grid, and a theta
  table's exponent depends on its terms alone, so the tables nest bit for
  bit: an extraction at 2M takes the even entries of every theta table from
  the extraction at M before it and computes only the odd ones.  Only the
  last extraction's tables are kept.
- The integrand constants are ``_ThetaSum.at``; a single point is the
  same sum, the mean over a one-point grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import exp, gcd, log
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import fzero, to_fixed

from tcore._rat import is_rational
from tcore.qseries import check_t

__all__ = [
    "ExtractionResult",
    "QuadratureConfig",
    "extract_bo_determinant",
    "extract_cor42",
    "extract_cor43",
    "extract_with_doubling",
]

_GUARD_BITS = 16
_MAX_VARS = 3
# validate_region's floor on a free log-gap, as a fraction of the equal split
_REGION_MARGIN = 0.1
# extract_with_doubling's budget of doublings of M
_MAX_DOUBLINGS = 3
_LN2 = log(2)


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


# -- block floating point ----------------------------------------------------


class _Block(list):
    """Gaussian-integer mantissas (re, im); entry k stands for (re + i im) 2^exp."""

    __slots__ = ("exp",)

    def __init__(self, exp: int, values=()):
        super().__init__(values)
        self.exp = exp


def _parts(x) -> tuple:
    """The raw (real, imaginary) mpf tuples of an mpmath number."""
    return x._mpc_ if isinstance(x, mp.mpc) else (x._mpf_, fzero)


def _to_mp(value, exp: int):
    """(re + i im) 2^exp as an mpmath number at the working precision."""
    re, im = value
    return mp.mpc(mp.mpf((re, exp)), mp.mpf((im, exp)))


def _products(a: _Block, b: _Block) -> _Block:
    return _Block(a.exp + b.exp, [(x * u - y * v, x * v + y * u) for (x, y), (u, v) in zip(a, b)])


def _quotients(num: _Block, den: _Block, bits: int) -> _Block:
    """num_k / den_k, with about ``bits`` fraction bits below the largest quotient.

    Each quotient is num conj(den) / |den|^2, scaled by one power of two for
    the whole table.  A zero denominator raises ZeroDivisionError.
    """
    cross = [(x * u + y * v, y * u - x * v, u * u + v * v) for (x, y), (u, v) in zip(num, den)]
    top = max((abs(re) | abs(im)).bit_length() - norm.bit_length() for re, im, norm in cross)
    shift = bits + 1 - top
    if shift >= 0:
        values = [((re << shift) // norm, (im << shift) // norm) for re, im, norm in cross]
    else:
        values = [(re // (norm << -shift), im // (norm << -shift)) for re, im, norm in cross]
    return _Block(num.exp - den.exp - shift, values)


def _normalized(block: _Block, bits: int) -> _Block:
    """``block`` rounded to at most ``bits`` + 1 bits in its largest part."""
    top = max((abs(x) | abs(y)).bit_length() for x, y in block)
    shift = top - bits - 1
    if shift <= 0:
        return block
    half = 1 << (shift - 1)
    values = [((x + half) >> shift, (y + half) >> shift) for x, y in block]
    return _Block(block.exp + shift, values)


def _total(block: _Block) -> tuple:
    return sum(x for x, _ in block), sum(y for _, y in block)


# bits -> the phase table at those fraction bits, for the largest M asked for
_phase_tables: dict = {}


def _phases(M: int, bits: int) -> list:
    """[exp(2 pi i k / M) 2^bits, rounded down to (re, im)] for k < M.

    M is a power of two.  The table of the largest M asked for at ``bits``
    is kept, and a smaller M reads every (size / M)-th entry of it.  The
    entries of the M-point and the 2M-point table agree bit for bit, so the
    reading does not depend on which M came first.
    """
    table = _phase_tables.get(bits)
    if table is None or len(table) < M:
        size = max(M, 4)
        with mp.workprec(bits + 10):
            parts = [_parts(mp.expjpi(mp.mpf(2 * k) / size)) for k in range(size // 4)]
        quarter = [(to_fixed(re, bits), to_fixed(im, bits)) for re, im in parts]
        # the other quarters are the first times i, -1 and -i
        table = quarter + [(-y, x) for x, y in quarter]
        table += [(-x, -y) for x, y in table]
        if len(_phase_tables) >= 16:
            _phase_tables.clear()
        _phase_tables[bits] = table
    return table[:: len(table) // M]


# -- theta functions as Laurent sums -------------------------------------------


class _ThetaSum:
    """The odd theta function at one nome, as its Laurent series sum_n a_n z^n.

    With its z^(1/2) stripped off it is
    (1 - 1/z) prod_b (1 - z Q^b)(1 - Q^b/z) / (1 - Q^b)^2, which by the
    Jacobi triple product is sum_n (-1)^n Q^(n(n+1)/2) z^n / (Q; Q)^3.  The
    paper's determinant forms also hold Theta_3 values in a free parameter
    Q2; by Frobenius's elliptic Cauchy determinant (J. reine angew. Math. 93,
    1882) they cancel, as in closed_Ft, so no other theta is tabulated.

    |a_n| is a constant times |Q|^((n^2 + n)/2), so at |z| = r the terms
    fall off on both sides of the largest one.  ``terms`` keeps those within
    2^-bits of it, ``bits`` = prec + guard; the guard keeps the discarded
    tail and the rounding of the integer sums below the rounding floor of the
    working precision.  At Q = 1/100 and 80 bits that is about 13 terms.
    """

    __slots__ = ("key", "bits", "_q", "_norm", "_log_q", "_terms")

    def __init__(self, Q):
        if abs(Q) >= 1:
            raise ValueError("the nome must satisfy |Q| < 1")
        self.key = (mp.mp.prec, Q)
        self.bits = mp.mp.prec + _GUARD_BITS
        self._q = Q
        self._log_q = log(float(abs(Q))) if Q else float("-inf")
        self._terms: dict = {}
        with mp.workprec(self.bits):
            euler, qb = mp.mpf(1), Q
            tol = mp.mpf(2) ** -self.bits
            while abs(qb) >= tol:
                euler *= 1 - qb
                qb *= Q
            self._norm = 1 / euler**3

    def _log_size(self, n: int, log_r: float) -> float:
        e2 = n * n + n
        return n * log_r + (e2 * self._log_q / 2 if e2 else 0.0)

    def terms(self, r) -> tuple:
        """(exp, [(n, re, im)]): the terms a_n r^n as mantissas at one exponent.

        The exponent puts ``bits`` fraction bits below the largest term, and
        the terms kept are those that reach 2^-bits of it.  The terms of the
        last few dozen radii are kept, for the doubled grid and the constants
        of the next extraction.
        """
        known = self._terms.get(r)
        if known is not None:
            return known
        log_r = float(mp.log(abs(r)))
        peak = round(-log_r / self._log_q - 0.5)
        cutoff = self._log_size(peak, log_r) - self.bits * _LN2
        lo = hi = peak
        while self._log_size(lo - 1, log_r) >= cutoff:
            lo -= 1
        while self._log_size(hi + 1, log_r) >= cutoff:
            hi += 1
        q, raw = self._q, []
        with mp.workprec(self.bits):
            # a_(n+1) r^(n+1) = a_n r^n * (-Q^(n+1) r): no power past the first term
            term = (-1) ** lo * q ** (lo * (lo + 1) // 2) * self._norm * r**lo
            ratio = -(q ** (lo + 1)) * r
            for n in range(lo, hi + 1):
                raw.append((n, _parts(term)))
                term *= ratio
                ratio *= q
        top = max(part[2] + part[3] for _, parts in raw for part in parts if part[1])
        exp = top - self.bits
        if len(self._terms) >= 64:
            self._terms.clear()
        known = [(n, to_fixed(re, -exp), to_fixed(im, -exp)) for n, (re, im) in raw]
        self._terms[r] = exp, known
        return exp, known

    def point(self, z) -> _Block:
        """The sum at one point, as a one-entry table."""
        exp, terms = self.terms(z)
        return _Block(exp, [(sum(t[1] for t in terms), sum(t[2] for t in terms))])

    def at(self, z):
        """The sum at one point, as an mpmath number."""
        value = self.point(z)
        return _to_mp(value[0], value.exp)


_sum_cache: dict = {}


def _theta_sum(Q) -> _ThetaSum:
    key = (mp.mp.prec, Q)
    series = _sum_cache.get(key)
    if series is None:
        if len(_sum_cache) >= 16:
            _sum_cache.clear()
        series = _sum_cache[key] = _ThetaSum(Q)
    return series


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

    def validate_region(self, s) -> None:
        """Check 1 < c_n < s_n c_n < ... < c_1 < s_1 c_1 < 1/|Q| with headroom.

        The margin rejects configurations whose smallest gap falls below the
        fraction _REGION_MARGIN of the equal-split gap, since a circle hugging
        one of the theta zero loci ruins the exponential convergence in M.
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
        floor = 0.0 if slack is None else _REGION_MARGIN * slack / (self.n + 1)
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


# -- grid tables -----------------------------------------------------------------


class _Grid:
    """The M-point grid of one evaluation, and the theta tables built on it.

    ``points`` holds one number per circle: its radius c_j for an extraction,
    or the point w_j itself on the one-point grid of a single evaluation.
    ``bits`` is the number of fraction bits of the phase table, prec + guard.
    ``tables`` maps (series key, r) to the tables built here; ``previous``
    is an earlier grid's map, whose entries are reused where the grids nest.
    """

    __slots__ = ("M", "points", "bits", "phases", "tables", "previous")

    def __init__(self, M: int, points, previous=None):
        self.M = M
        self.points = points
        self.bits = mp.mp.prec + _GUARD_BITS
        self.phases = _phases(M, self.bits)
        self.tables: dict = {}
        self.previous = {} if previous is None else previous

    def table(self, series: _ThetaSum, r, m: int | None = None) -> _Block:
        """[series(r x^k) for k < m], x = exp(2 pi i / m); m divides M, default M.

        Every table size is a power of two, so a table built before at
        another size either holds this one as every (size / m)-th entry or
        holds its entries at every (m / size)-th index; only the rest is
        summed.  The exponent and the integer terms depend on (series, r)
        alone and the m-point phases are every (M / m)-th entry of the
        M-point ones, so a reused entry is the one a cold build would make.
        When the terms are real, the upper half of the table is the
        conjugate of the lower half; that rule, too, is the same at m and 2m.
        """
        m = self.M if m is None else m
        key = (series.key, r)
        old = self.tables.get(key, self.previous.get(key))
        if old is not None and len(old) >= m:
            values = _Block(old.exp, old[:: len(old) // m])
        else:
            step = 0 if old is None else m // len(old)
            phases = self.phases[:: self.M // m]
            exp, terms = series.terms(r)
            real = not any(b for _, _, b in terms)
            bits = self.bits
            half = 1 << (bits - 1)
            values = _Block(exp)
            for k in range(m):
                if step and k % step == 0:
                    values.append(old[k // step])
                    continue
                if real and 2 * k > m:
                    # real terms take conjugate values at conjugate points
                    re, im = values[m - k]
                    values.append((re, -im))
                    continue
                re = im = 0
                for n, a, b in terms:
                    c, s = phases[n * k % m]
                    re += a * c - b * s
                    im += a * s + b * c
                values.append(((re + half) >> bits, (im + half) >> bits))
        self.tables[key] = values
        return values


# -- integrands --------------------------------------------------------------


class _Integrand(NamedTuple):
    """const * coupling[d] * prod_j axes[j][k_j] at the grid point of indices k.

    ``axes`` holds one M-entry ``_Block`` per circle, or is None when the
    integrand has no per-circle factors.  ``coupling`` is a ``_Block`` over
    the offsets d = (k_2 - k_1, ..., k_n - k_1) mod M, in lexicographic
    order; that the circles couple through these differences alone is what
    lets the grid average fold them into one another.  ``const`` is an
    mpmath number.
    """

    const: object
    axes: list | None
    coupling: _Block


def _setup(s, Q):
    """The s-values and the nome as mpmath numbers, at working precision."""
    if not 1 <= len(s) <= _MAX_VARS:
        raise ValueError(f"between 1 and {_MAX_VARS} s values supported")
    return [_as_mp(sj) for sj in s], _as_mp(Q)


def _check_q2(Q2) -> None:
    """Refuse a Q2 that is 0 or not a number; any other Q2 cancels from the
    integrand (see _ThetaSum)."""
    try:
        value = _as_mp(Q2)
    except (TypeError, ValueError):
        raise ValueError(f"Q2 must be a nonzero number, got {Q2!r}") from None
    if value == 0:
        raise ValueError("Q2 must be nonzero")


def _t_core_axes(t: int, s_m, Q, grid: _Grid) -> list:
    """theta_even(s^t z; Q^t) / theta_even(z; Q^t), z = (-w)^t, on each circle.

    Over the t-th roots of unity xi^a, prod_a (1 - z xi^a Q^b) = 1 - z^t Q^(tb),
    so the t stripped thetas at -s w xi^a (resp. -w xi^a) and nome Q collapse
    to one at nome Q^t, up to a constant that cancels between numerator and
    denominator.  The half-powers leave s^(t/2), which cancels against the
    s^(-t/2) of the integrand's constant.  (-c x^k)^t = (-c)^t y^((t/g) k)
    with y = exp(2 pi i g / M), g = gcd(t, M), so each table has M / g
    entries.
    """
    check_t(t)
    vt = _theta_sum(Q**t)
    M = grid.M
    g = gcd(t, M)
    m, step = M // g, t // g
    axes = []
    for sj, c in zip(s_m, grid.points):
        z = (-c) ** t
        ratio = _quotients(grid.table(vt, sj**t * z, m), grid.table(vt, z, m), grid.bits)
        axes.append(_Block(ratio.exp, [ratio[step * k % m] for k in range(M)]))
    return axes


def _integrand(s_m, Q, axes, grid: _Grid) -> _Integrand:
    """prod_j 1 / (s_j^(1/2) vartheta(s_j)) times the theta cross ratio of each
    pair of circles, times ``axes`` (None for all partitions).

    The cross ratio of circles i < k is a table over k_k - k_i; the coupling
    multiplies them at every offset, in exact integer products.
    """
    vt = _theta_sum(Q)
    const = mp.mpf(1)
    for sj in s_m:
        const /= mp.sqrt(sj) * vt.at(sj)
    M, c, n = grid.M, grid.points, len(s_m)
    cross = {}
    for i, k in itertools.combinations(range(n), 2):
        # the theta cross-ratio in u = w_k / w_i = rho x^(k_k - k_i); the four
        # roots of u cancel
        rho, si, sk = c[k] / c[i], s_m[i], s_m[k]
        a, b, x, y = (grid.table(vt, r) for r in (rho * sk / si, rho, rho / si, rho * sk))
        cross[i, k] = _quotients(_products(a, b), _products(x, y), grid.bits)
    values = []
    for d in itertools.product(range(M), repeat=n - 1):
        kk = (0, *d)
        re, im = 1, 0
        for (i, k), table in cross.items():
            u, v = table[(kk[k] - kk[i]) % M]
            re, im = re * u - im * v, re * v + im * u
        values.append((re, im))
    coupling = _Block(sum(table.exp for table in cross.values()), values)
    return _Integrand(const, axes, _normalized(coupling, grid.bits))


def _cor42(t: int, s, Q, grid: _Grid) -> _Integrand:
    s_m, Q = _setup(s, Q)
    return _integrand(s_m, Q, _t_core_axes(t, s_m, Q, grid), grid)


def _bo_determinant(s, Q, grid: _Grid) -> _Integrand:
    s_m, Q = _setup(s, Q)
    return _integrand(s_m, Q, None, grid)


# -- extraction ----------------------------------------------------------------


def _dft(values, phases, bits: int) -> list:
    """sum_k values[k] phases[j k mod M] 2^-bits for every j, by radix-2 splitting.

    ``phases`` holds the M-th roots of unity in order, as Gaussian integers
    with ``bits`` fraction bits; every other one of them serves the
    half-length transforms.  The values keep their exponent.
    """
    M = len(values)
    if M == 1:
        return list(values)
    roots = phases[::2]
    even = _dft(values[::2], roots, bits)
    odd = _dft(values[1::2], roots, bits)
    half = M // 2
    rnd = 1 << (bits - 1)
    out = [None] * M
    for j in range(half):
        c, s = phases[j]
        x, y = odd[j]
        u, v = even[j]
        x, y = (x * c - y * s + rnd) >> bits, (x * s + y * c + rnd) >> bits
        out[j] = (u + x, v + y)
        out[j + half] = (u - x, v - y)
    return out


def _pair_average(axis1: _Block, axis2: _Block, g_table: _Block, phases, bits: int) -> _Block:
    """Average A1(k1) A2(k2) g(k2 - k1 mod M) over the M^2 grid, as a one-entry block.

    The integrands only couple the two circles through the ratio w_1^(-1)w_2,
    so the double sum is a circular correlation.  With X^(j) the DFT of a
    table over ``phases``, it equals (1/M) sum_j g^(j) A1^(j) A2^(-j): three
    O(M log M) transforms and M products, summed exactly.
    """
    M = len(phases)
    g_hat = _dft(g_table, phases, bits)
    a1_hat = _dft(axis1, phases, bits)
    a2_hat = _dft(axis2, phases, bits)
    re = im = 0
    for j in range(M):
        x, y = g_hat[j]
        u, v = a1_hat[j]
        x, y = x * u - y * v, x * v + y * u
        u, v = a2_hat[-j]
        re += x * u - y * v
        im += x * v + y * u
    log_m = M.bit_length() - 1
    return _Block(g_table.exp + axis1.exp + axis2.exp - 3 * log_m, [(re, im)])


def _grid_mean(f: _Integrand, grid: _Grid):
    """The mean of ``f`` over the M^n grid, read off its tables.

    One circle: the mean of the axis table.  Two: a circular correlation,
    ``_pair_average``.  Three: at each offset d = k_2 - k_1 the second axis
    folds into the first, which leaves a two-circle correlation per d; the
    folds share one exponent, so their averages add exactly.  Without axes,
    the mean of the coupling over the index differences.  The sum stays in
    integers up to the one conversion at the end.
    """
    M, n, axes, g, bits = grid.M, len(grid.points), f.axes, f.coupling, grid.bits
    log_m = M.bit_length() - 1
    if axes is None:
        (re, im), exp = _total(g), g.exp - (n - 1) * log_m
    elif n == 1:
        (x, y), (u, v) = g[0], _total(axes[0])
        re, im = x * u - y * v, x * v + y * u
        exp = g.exp + axes[0].exp - log_m
    elif n == 2:
        mean = _pair_average(axes[0], axes[1], g, grid.phases, bits)
        (re, im), exp = mean[0], mean.exp
    else:
        a0, a1, a2 = axes
        rnd = 1 << (bits - 1)
        re = im = 0
        for d in range(M):
            folded = _Block(
                a0.exp + a1.exp + bits,
                [
                    ((x * u - y * v + rnd) >> bits, (x * v + y * u + rnd) >> bits)
                    for (x, y), (u, v) in zip(a0, a1[d:] + a1[:d])
                ],
            )
            row = _Block(g.exp, g[d * M : (d + 1) * M])
            mean = _pair_average(folded, a2, row, grid.phases, bits)
            re += mean[0][0]
            im += mean[0][1]
        exp = mean.exp - log_m
    return f.const * _to_mp((re, im), exp)


# the tables of the last extraction, (series key, r) -> _Block
_last_tables: dict = {}


def _extract(build, s, cfg: QuadratureConfig):
    """Mean of the integrand ``build`` makes over the M^n grid of ``cfg``.

    The grid has M^n points, which the traced ``contour.grid_points`` counter
    counts per call.  Their values are read off O(M) table entries per theta
    factor; no theta is evaluated per grid point.  The tables of the previous
    extraction seed this one's, and this one's replace them once it is done.
    """
    global _last_tables
    cfg.validate_region(s)
    with mp.workprec(cfg.precision_bits):
        grid = _Grid(cfg.M, [mp.mpf(c) for c in cfg.radii], _last_tables)
        try:
            value = _grid_mean(build(grid), grid)
        except ZeroDivisionError as exc:
            raise ValueError(
                "integrand denominator vanished on the grid; the radii sit on a zero locus"
            ) from exc
    _last_tables = grid.tables
    return value


def extract_cor42(t: int, s, cfg: QuadratureConfig):
    """Torus extraction of the product-form integrand."""
    return _extract(lambda grid: _cor42(t, s, cfg.Q, grid), s, cfg)


def extract_cor43(t: int, s, Q2, cfg: QuadratureConfig):
    """Torus extraction of the determinant-form integrand, with its free parameter Q2.

    By Frobenius's elliptic Cauchy determinant (J. reine angew. Math. 93,
    1882) the determinant, with its normaliser, is the product integrand of
    extract_cor42, in which Q2 cancels; so Q2 is checked (any nonzero
    number) but does not change the result, as in closed_Ft.
    """
    _check_q2(Q2)
    return _extract(lambda grid: _cor42(t, s, cfg.Q, grid), s, cfg)


def extract_bo_determinant(s, Q2, cfg: QuadratureConfig):
    """Torus extraction of the all-partitions determinant integrand.

    By Frobenius's elliptic Cauchy determinant, as in extract_cor43, it is
    the product integrand without the t-core axes; Q2 is checked (any
    nonzero number) but cancels.
    """
    _check_q2(Q2)
    return _extract(lambda grid: _bo_determinant(s, cfg.Q, grid), s, cfg)


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
    extract_at, cfg: QuadratureConfig, target_digits: int
) -> ExtractionResult:
    """Double M, at most _MAX_DOUBLINGS times, until two consecutive
    extractions agree.

    ``extract_at`` maps a config to a complex value.  Agreement is demanded
    five digits beyond the target, so an accepted value has its quadrature
    error well under the comparison tolerances built on top of it.  When the
    budget runs out the result reports non-convergence instead of a value.
    """
    threshold = mp.mpf(10) ** (-(target_digits + 5))
    value = extract_at(cfg)
    est = None
    for _ in range(_MAX_DOUBLINGS):
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
