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
those of the s-values in the constant, on the principal branch.

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
entries.  The route runs on integers alone:

- The inputs (s-values, the nome, the radii, a single evaluation point)
  become exact ``GaussianRational`` numbers: rationals as they are, floats
  and complex numbers as the dyadic rationals they hold.  Every radius r
  above is an exact product of them.
- Every table on the grid is block floating point, a ``_Block``: a list of
  Gaussian-integer mantissas (re, im) that share one binary exponent.  A
  theta table takes its exponent from its Laurent terms, with prec + 16
  fraction bits below the largest term, and sums the integer terms against
  an integer table of roots of unity.  The terms are exact Gaussian
  rationals times the norm 1 / (Q; Q)^3, which is rounded once.  The axis
  ratios, the cross ratios and the transforms of the grid average are
  integer products and quotients of such tables.  Integer sums are exact,
  so no summation order needs fixing.
- The phase table holds the M-th roots of unity times 2^(prec + 16), rounded
  down to Gaussian integers.  Its first quarter is built by halving angles
  from i with integer square roots, which leaves the entries of the
  M-point table in place as the even entries of the 2M-point one.  It is
  built once per precision, at the largest M asked for so far, and every
  extraction at that precision reads its m-point table as every
  (M / m)-th entry.
- Axis tables are indexed by k_j, coupling tables by k_k - k_i.  (-w)^t
  repeats with period M / gcd(t, M), so an axis table is built at that many
  points and read at index (t / g) k.
- Two exact identities of the phase table halve the work twice.  Its
  second half is the negation of its first, so a theta table sums its even
  and its odd terms apart, and one pair of sums gives entries k and
  k + m/2.  And its entry m - k is the conjugate of entry k, so a table of
  real terms (a real nome and a real radius) is conjugate-symmetric; it is
  marked ``sym`` and sums k <= m/4 alone.  Products and quotients of
  symmetric tables compute the entries k <= m/2 and copy the conjugates of
  the rest, and the two-circle mean of symmetric tables packs A1 + i g
  into one transform.  A complex nome makes every table complex, and a
  complex s-value some of them: these inputs, and no others, take the
  general path, which computes every product and quotient and takes three
  transforms for the two-circle mean.
- The M-point grid is the even half of the 2M-point grid, and a theta
  table's exponent depends on its terms alone, so the tables nest bit for
  bit: an extraction at 2M takes the even entries of every theta table from
  the extraction at M before it and computes only the odd ones.  Only the
  last extraction's tables are kept.
- The precision is an explicit argument throughout: ``QuadratureConfig``
  carries it, and each grid and each theta sum is built for one precision.
  The integrand constant and the mean are one-entry blocks, and the result
  is their product rounded to prec + 1 bits: an exact Gaussian dyadic.  A
  single point is the same sum, the mean over a one-point grid.
"""

from __future__ import annotations

import itertools
import numbers
from fractions import Fraction
from math import exp, gcd, hypot, isfinite, isqrt, lcm, log

from tcore._rat import Record, power
from tcore.qseries import check_t

__all__ = [
    "ExtractionResult",
    "GaussianRational",
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


# -- exact numbers ---------------------------------------------------------------


class GaussianRational(Record):
    """real + i imag with ``Fraction`` parts.

    The exact form of the route's inputs and radii, and of its results: an
    extraction's value is a Gaussian dyadic, a GaussianRational whose
    denominators are powers of two.  ``abs`` and ``complex`` give floats;
    mpmath reads the number through ``_mpmath_``, so mpmath arithmetic on
    one side of an operator takes it exactly, rounded to mpmath's precision.
    """

    __slots__ = ("real", "imag")

    def __init__(self, real: Fraction, imag: Fraction = Fraction(0)):
        # set directly, not through _set: the arithmetic builds many
        object.__setattr__(self, "real", real)
        object.__setattr__(self, "imag", imag)

    def __neg__(self) -> GaussianRational:
        return GaussianRational(-self.real, -self.imag)

    def __sub__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return GaussianRational(self.real - other.real, self.imag - other.imag)

    # real operands, the usual case, take one Fraction operation

    def __mul__(self, other: GaussianRational) -> GaussianRational:
        a, b, c, d = self.real, self.imag, other.real, other.imag
        if not (b or d):
            return GaussianRational(a * c)
        return GaussianRational(a * c - b * d, a * d + b * c)

    def __truediv__(self, other: GaussianRational) -> GaussianRational:
        a, b, c, d = self.real, self.imag, other.real, other.imag
        if not (b or d):
            return GaussianRational(a / c)
        norm = c * c + d * d
        return GaussianRational((a * c + b * d) / norm, (b * c - a * d) / norm)

    def __pow__(self, n: int) -> GaussianRational:
        return power(self, n, _ONE)

    # the table keys of the quadrature: equality spelled out is cheaper than
    # the fields through Record's getter, and the hash than Fraction's hash
    # (equal Fractions have equal terms)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.real, self.imag) == (other.real, other.imag)
        return NotImplemented

    def __hash__(self) -> int:
        a, b = self.real, self.imag
        return hash((a.numerator, a.denominator, b.numerator, b.denominator))

    def __abs__(self) -> float:
        return hypot(self.real, self.imag)

    def __complex__(self) -> complex:
        return complex(float(self.real), float(self.imag))

    def _mpmath_(self, prec: int, rounding: str):
        """mpmath's conversion hook: this number rounded to ``prec`` bits.

        mpmath is imported here, by a caller that already uses it; the route
        itself never loads it.
        """
        from mpmath import make_mpc
        from mpmath.libmp import from_rational

        parts = (self.real, self.imag)
        return make_mpc(
            tuple(from_rational(x.numerator, x.denominator, prec, rounding) for x in parts)
        )


_ONE = GaussianRational(Fraction(1))


def _gaussian(x, name: str) -> GaussianRational:
    """``x`` as an exact GaussianRational, or a ValueError that names the argument.

    Rationals are taken as they are, and finite floats and complex numbers
    as the dyadic rationals they hold.
    """
    if isinstance(x, GaussianRational) and all(
        isinstance(part, numbers.Rational) for part in (x.real, x.imag)
    ):
        return x
    if isinstance(x, numbers.Rational):
        return GaussianRational(Fraction(x))
    if isinstance(x, (float, complex)) and isfinite(x.real) and isfinite(x.imag):
        return GaussianRational(Fraction(x.real), Fraction(x.imag))
    raise ValueError(f"{name} must be a finite number, got {x!r}")


def _integral(z: GaussianRational) -> tuple:
    """(re, im, den): z as a Gaussian integer over a positive integer."""
    a, b = z.real, z.imag
    den = lcm(a.denominator, b.denominator)
    return a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), den


def _log_abs(z: GaussianRational) -> float:
    """log |z| for z != 0, from integer logarithms, so no part over- or underflows."""
    re, im, den = _integral(z)
    return log(re * re + im * im) / 2 - log(den)


def _norm2(z: GaussianRational) -> Fraction:
    return z.real * z.real + z.imag * z.imag


def _floor_scaled(x: int, den: int, shift: int) -> int:
    """floor(x 2^shift / den) for den > 0."""
    return (x << shift) // den if shift >= 0 else x // (den << -shift)


# -- block floating point ----------------------------------------------------


class _Block(list):
    """Gaussian-integer mantissas (re, im); entry k stands for (re + i im) 2^exp.

    ``sym`` marks a block that is exactly conjugate-symmetric: entry m - k is
    the conjugate of entry k, m its length.  The theta tables of real terms
    are, and so are products and quotients of such blocks; their entries
    past m / 2 are copied as conjugates, not computed.
    """

    __slots__ = ("exp", "sym")

    def __init__(self, exp: int, values=(), sym: bool = False):
        super().__init__(values)
        self.exp = exp
        self.sym = sym


_UNIT = _Block(0, [(1, 0)])


def _lead(m: int, sym: bool) -> int:
    """How many leading entries determine an m-entry block: all of them, or
    the entries k <= m / 2 of a symmetric one."""
    return m // 2 + 1 if sym else m


def _completed(exp: int, values: list, m: int, sym: bool) -> _Block:
    """The m-entry block whose leading ``_lead(m, sym)`` entries are ``values``;
    the conjugates of entries m - k complete a symmetric one."""
    if sym:
        values += [(x, -y) for x, y in values[m - len(values) : 0 : -1]]
    return _Block(exp, values, sym)


def _to_exact(value, exp: int) -> GaussianRational:
    """(re + i im) 2^exp as a GaussianRational."""
    scale = Fraction(2) ** exp
    re, im = value
    return GaussianRational(re * scale, im * scale)


def _rounded(re: int, im: int, den: int, bits: int) -> _Block:
    """(re + i im) / den as a one-entry block, rounded down to about ``bits``
    bits in its larger part (``bits`` or ``bits`` + 1)."""
    shift = bits + den.bit_length() - (abs(re) | abs(im)).bit_length()
    return _Block(-shift, [(_floor_scaled(re, den, shift), _floor_scaled(im, den, shift))])


def _products(a: _Block, b: _Block) -> _Block:
    m, sym = len(a), a.sym and b.sym
    n = _lead(m, sym)
    values = [(x * u - y * v, x * v + y * u) for (x, y), (u, v) in zip(a[:n], b[:n])]
    return _completed(a.exp + b.exp, values, m, sym)


def _quotients(num: _Block, den: _Block, bits: int) -> _Block:
    """num_k / den_k, with about ``bits`` fraction bits below the largest quotient.

    Each quotient is num conj(den) / |den|^2, scaled by one power of two for
    the whole table.  A zero denominator raises ZeroDivisionError.  Of two
    symmetric blocks, the quotients past m / 2 are the conjugates of the
    rounded ones before, so the quotients are symmetric too.
    """
    m, sym = len(num), num.sym and den.sym
    n = _lead(m, sym)
    cross = [
        (x * u + y * v, y * u - x * v, u * u + v * v) for (x, y), (u, v) in zip(num[:n], den[:n])
    ]
    top = max((abs(re) | abs(im)).bit_length() - norm.bit_length() for re, im, norm in cross)
    shift = bits + 1 - top
    values = [
        (_floor_scaled(re, norm, shift), _floor_scaled(im, norm, shift)) for re, im, norm in cross
    ]
    return _completed(num.exp - den.exp - shift, values, m, sym)


def _normalized(block: _Block, bits: int) -> _Block:
    """``block`` rounded to at most ``bits`` + 1 bits in its largest part."""
    m, sym = len(block), block.sym
    lead = block[: _lead(m, sym)]
    top = max((abs(x) | abs(y)).bit_length() for x, y in lead)
    shift = top - bits - 1
    if shift <= 0:
        return block
    half = 1 << (shift - 1)
    values = [((x + half) >> shift, (y + half) >> shift) for x, y in lead]
    return _completed(block.exp + shift, values, m, sym)


def _total(block: _Block) -> tuple:
    return sum(x for x, _ in block), sum(y for _, y in block)


def _sqrt(z: GaussianRational, bits: int) -> _Block:
    """The principal square root of z, rounded down to ``bits`` fraction bits.

    The root is taken of z 2^(2 bits) rounded down to a Gaussian integer, by
    integer square roots; for a rational square it is the exact root rounded
    down, since floor(sqrt(floor(x))) = floor(sqrt(x)).
    """
    x, y = (_floor_scaled(p.numerator, p.denominator, 2 * bits) for p in (z.real, z.imag))
    norm = isqrt(x * x + y * y)
    im = isqrt((norm - x) // 2)
    return _Block(-bits, [(isqrt((norm + x) // 2), -im if y < 0 else im)])


# bits -> the phase table at those fraction bits, for the largest M asked for
_phase_tables: dict = {}


def _phases(M: int, bits: int) -> list:
    """[exp(2 pi i k / M) 2^bits as Gaussian integers (re, im)] for k < M: the
    first quarter rounded down, the others its turns by i, -1 and -i.

    M is a power of two.  The table of the largest M asked for at ``bits``
    is kept, and a smaller M reads every (size / M)-th entry of it.  The
    quarter is built at bits + 32 by halving angles from i: each new root
    (c, s) is (sqrt((1 + c) / 2), s / (2 c)) of the one before, and the
    quarter of twice the size puts each entry times the new root after that
    entry.  Doubling leaves the entries already there as they are, so the
    entries of the M-point table are the even entries of the 2M-point
    table bit for bit, and the reading does not depend on which M came first.
    """
    table = _phase_tables.get(bits)
    if table is None or len(table) < M:
        work = bits + 32
        one = 1 << work
        quarter, c, s = [(one, 0)], 0, one
        while 4 * len(quarter) < M:
            c = isqrt((one + c) << (work - 1))
            s = (s << (work - 1)) // c
            quarter = [
                entry
                for x, y in quarter
                for entry in ((x, y), ((x * c - y * s) >> work, (x * s + y * c) >> work))
            ]
        quarter = [(x >> 32, y >> 32) for x, y in quarter]
        table = quarter + [(-y, x) for x, y in quarter]
        table += [(-x, -y) for x, y in table]
        if len(_phase_tables) >= 16:
            _phase_tables.clear()
        _phase_tables[bits] = table
    return table[:: len(table) // M]


# -- theta functions as Laurent sums -------------------------------------------


def _power_walk(q: tuple, z: tuple, count: int) -> list:
    """[(-1)^m Q^(m(m+1)/2) z^m for m < count] as (re, im, den) over the integers.

    ``q`` and ``z`` are Gaussian rationals in the form of ``_integral``.  Each
    term is the one before times -Q^m z; no fraction is reduced.
    """
    qr, qi, qd = q
    zr, zi, zd = z
    xr, xi, xd = 1, 0, 1  # Q^m
    out = [(1, 0, 1)]
    while len(out) < count:
        tr, ti, td = out[-1]
        xr, xi, xd = xr * qr - xi * qi, xr * qi + xi * qr, xd * qd
        ur, ui = xi * zi - xr * zr, -(xr * zi + xi * zr)
        out.append((tr * ur - ti * ui, tr * ui + ti * ur, td * xd * zd))
    return out


class _ThetaSum:
    """The odd theta function at one nome, as its Laurent series sum_n a_n z^n.

    With its z^(1/2) stripped off it is
    (1 - 1/z) prod_b (1 - z Q^b)(1 - Q^b/z) / (1 - Q^b)^2, which by the
    Jacobi triple product is sum_n (-1)^n Q^(n(n+1)/2) z^n / (Q; Q)^3.  The
    paper's determinant forms also hold Theta_3 values in a free parameter
    Q2; by Frobenius's elliptic Cauchy determinant (J. reine angew. Math. 93,
    1882) they cancel, as in closed_Ft, so no other theta is tabulated.

    The nome is an exact GaussianRational, and a sum is built for one
    precision ``prec``; ``bits`` = prec + guard.  The norm 1 / (Q; Q)^3 is
    the exact product over the factors with |Q^b| >= 2^-bits, rounded once
    to bits + guard bits.  At a radius r, a_n r^n is the exact Gaussian
    rational (-1)^n Q^(n(n+1)/2) r^n times that norm, rounded down to the
    table's exponent.

    |a_n| is a constant times |Q|^((n^2 + n)/2), so at |z| = r the terms
    fall off on both sides of the largest one.  ``terms`` keeps those within
    2^-bits of it; the guard keeps the discarded tail and the rounding of
    the integer sums below the rounding floor of the working precision.  At
    Q = 1/100 and 80 bits that is about 13 terms.
    """

    __slots__ = ("key", "bits", "_q", "_norm", "_log_q", "_terms")

    def __init__(self, Q: GaussianRational, prec: int):
        if _norm2(Q) >= 1:
            raise ValueError("the nome must satisfy |Q| < 1")
        self.key = (prec, Q)
        self.bits = bits = prec + _GUARD_BITS
        self._q = qr, qi, qd = _integral(Q)
        self._log_q = _log_abs(Q) if qr or qi else float("-inf")
        self._terms: dict = {}
        # (Q; Q) = (er + i ei) / ed, exactly, over the factors that count
        er, ei, ed = 1, 0, 1
        xr, xi, xd = qr, qi, qd  # Q^b
        b = 1
        while b * self._log_q >= -bits * _LN2:
            er, ei, ed = er * (xd - xr) + ei * xi, ei * (xd - xr) - er * xi, ed * xd
            xr, xi, xd = xr * qr - xi * qi, xr * qi + xi * qr, xd * qd
            b += 1
        cr, ci = er * er - ei * ei, 2 * er * ei
        cr, ci = cr * er - ci * ei, cr * ei + ci * er
        ed3 = ed**3
        self._norm = _rounded(ed3 * cr, -ed3 * ci, cr * cr + ci * ci, bits + _GUARD_BITS)

    def _log_size(self, n: int, log_r: float) -> float:
        e2 = n * n + n
        return n * log_r + (e2 * self._log_q / 2 if e2 else 0.0)

    def terms(self, r: GaussianRational) -> tuple:
        """(exp, [(n, re, im)]): the terms a_n r^n as mantissas at one exponent.

        The exponent puts ``bits`` or ``bits`` + 1 fraction bits below the
        largest term, and the terms kept are those that reach 2^-bits of it.
        The terms of the last few dozen radii are kept, for the doubled grid
        and the constants of the next extraction.
        """
        known = self._terms.get(r)
        if known is not None:
            return known
        log_r = _log_abs(r)
        peak = round(-log_r / self._log_q - 0.5)
        cutoff = self._log_size(peak, log_r) - self.bits * _LN2
        lo = hi = peak
        while self._log_size(lo - 1, log_r) >= cutoff:
            lo -= 1
        while self._log_size(hi + 1, log_r) >= cutoff:
            hi += 1
        # a_n r^n / norm, exactly: for n >= 0 the walk at r, and for n < 0 the
        # walk at 1/r times -1/r, as a_(-1-m) r^(-1-m) = -r^-1 a_m r^-m / norm
        zr, zi, zd = z = _integral(r)
        zn = zr * zr + zi * zi
        exact = []
        if lo < 0:
            walk = _power_walk(self._q, (zd * zr, -zd * zi, zn), -lo)
            for n in range(lo, min(hi, -1) + 1):
                tr, ti, td = walk[-1 - n]
                exact.append((n, -zd * (zr * tr + zi * ti), zd * (zi * tr - zr * ti), td * zn))
        if hi >= 0:
            walk = _power_walk(self._q, z, hi + 1)
            exact += [(n, *walk[n]) for n in range(max(lo, 0), hi + 1)]
        (nr, ni), = self._norm
        scaled = [(n, tr * nr - ti * ni, tr * ni + ti * nr, td) for n, tr, ti, td in exact]
        top = max((abs(x) | abs(y)).bit_length() - d.bit_length() for _, x, y, d in scaled)
        exp = top + self._norm.exp - self.bits
        shift = self._norm.exp - exp
        known = [
            (n, _floor_scaled(x, d, shift), _floor_scaled(y, d, shift)) for n, x, y, d in scaled
        ]
        if len(self._terms) >= 64:
            self._terms.clear()
        self._terms[r] = exp, known
        return exp, known

    def point(self, z: GaussianRational) -> _Block:
        """The sum at one point, as a one-entry table."""
        exp, terms = self.terms(z)
        return _Block(exp, [(sum(t[1] for t in terms), sum(t[2] for t in terms))])


_sum_cache: dict = {}


def _theta_sum(Q: GaussianRational, prec: int) -> _ThetaSum:
    key = (prec, Q)
    series = _sum_cache.get(key)
    if series is None:
        if len(_sum_cache) >= 16:
            _sum_cache.clear()
        series = _sum_cache[key] = _ThetaSum(Q, prec)
    return series


# -- grid geometry -----------------------------------------------------------


def _s_logs(s) -> list:
    """log |s_j| for each s-value, which must be a number outside the unit circle."""
    values = [_gaussian(sj, "s") for sj in s]
    if any(_norm2(sj) <= 1 for sj in values):
        raise ValueError("every s value must exceed 1 in magnitude")
    return [_log_abs(sj) for sj in values]


class QuadratureConfig(Record):
    """Grid geometry and working precision for a torus extraction.

    M points per circle (a power of two, so that doubled grids nest), one
    radius per auxiliary variable, and the numeric nome.  The radii must
    place each circle inside the annulus where the integrand's Laurent
    expansion converges; ``validate_region`` checks that chain against a
    concrete s-vector.  The radii are kept as exact Fractions (a float radius
    is the dyadic rational it holds); Q is any rational, float or complex
    number, kept as given.
    """

    __slots__ = ("M", "precision_bits", "radii", "Q")

    def __init__(self, M: int, precision_bits: int, radii: tuple, Q: object):
        if M < 2 or M & (M - 1):
            raise ValueError("M must be a power of two, at least 2")
        if precision_bits < 53:
            raise ValueError("precision_bits must be at least 53")
        exact = tuple(_gaussian(c, "radii") for c in radii)
        if any(c.imag for c in exact):
            raise ValueError(f"radii must be real, got {radii!r}")
        radii = tuple(c.real for c in exact)
        if not 1 <= len(radii) <= _MAX_VARS:
            raise ValueError(
                f"between 1 and {_MAX_VARS} circles supported "
                f"(cost grows like M^n), got {len(radii)}"
            )
        if any(c2 >= c1 for c1, c2 in zip(radii, radii[1:])):
            raise ValueError("radii must be strictly decreasing")
        if radii[-1] <= 1:
            raise ValueError("the innermost radius must exceed 1")
        if _norm2(_gaussian(Q, "Q")) >= 1:
            raise ValueError("the nome must satisfy |Q| < 1")
        self._set(M, precision_bits, radii, Q)

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
        s_logs = _s_logs(s)
        chain = [0.0]
        for c, g in zip(reversed(self.radii), reversed(s_logs)):
            chain.append(log(c))
            chain.append(log(c) + g)
        Q = _gaussian(self.Q, "Q")
        slack = None
        if Q.real or Q.imag:
            chain.append(-_log_abs(Q))
            slack = chain[-1] - sum(s_logs)
            if slack <= 0:
                raise ValueError("no annuli fit between 1 and 1/|Q| for these s")
        free_gaps = [b - a for a, b in zip(chain[::2], chain[1::2])]
        floor = 0.0 if slack is None else _REGION_MARGIN * slack / (self.n + 1)
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
        s_logs = _s_logs(s)
        nome = _gaussian(Q, "Q")
        if nome.real or nome.imag:
            total = -_log_abs(nome)
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
    """The M-point grid of one evaluation at ``prec`` bits, and the theta
    tables built on it.

    ``points`` holds one GaussianRational per circle: its radius c_j for an
    extraction, or the point w_j itself on the one-point grid of a single
    evaluation.  ``bits`` is the number of fraction bits of the phase table,
    prec + guard.  ``tables`` maps (series key, r) to the tables built here;
    ``previous`` is an earlier grid's map, whose entries are reused where
    the grids nest.
    """

    __slots__ = ("M", "points", "prec", "bits", "phases", "tables", "previous")

    def __init__(self, M: int, points, prec: int, previous=None):
        self.M = M
        self.points = points
        self.prec = prec
        self.bits = prec + _GUARD_BITS
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

        Two exact symmetries of the phase table halve the sums, and neither
        depends on m.  Its second half is the negation of its first, so with
        E and O the sums of the even and the odd terms at point k, entry
        k + m/2 is E - O where entry k is E + O.  And phases[m - j] is the
        conjugate of phases[j], so when the terms are real, entry m - k is
        the conjugate of entry k: the upper half of the table is the
        conjugate of the lower half, and the table is symmetric.  Entry
        m/2 - k, the conjugate of E - O, then comes with entry k, and the
        sums run over k <= m/4 alone; for complex terms they run over
        k < m/2.
        """
        m = self.M if m is None else m
        key = (series.key, r)
        old = self.tables.get(key, self.previous.get(key))
        if old is not None and len(old) >= m:
            values = _Block(old.exp, old[:: len(old) // m], old.sym)
        else:
            phases = self.phases[:: self.M // m]
            exp, terms = series.terms(r)
            real = not any(b for _, _, b in terms)
            values = _Block(exp, [None] * m, real)
            if old is not None:
                values[:: m // len(old)] = old
            even = [term for term in terms if term[0] % 2 == 0]
            odd = [term for term in terms if term[0] % 2]
            bits = self.bits
            half = 1 << (bits - 1)
            h = m // 2
            for k in range(h // 2 + 1 if real else max(h, 1)):
                # entry k, and the entry that E - O gives with it
                other = h - k if real else h + k
                if values[k] is not None and values[other] is not None:
                    continue
                sums = []
                for part in (even, odd):
                    re = im = 0
                    if real:
                        for n, a, _ in part:
                            c, s = phases[n * k % m]
                            re += a * c
                            im += a * s
                    else:
                        for n, a, b in part:
                            c, s = phases[n * k % m]
                            re += a * c - b * s
                            im += a * s + b * c
                    sums += (re, im)
                e_re, e_im, o_re, o_im = sums
                if values[k] is None:
                    values[k] = ((e_re + o_re + half) >> bits, (e_im + o_im + half) >> bits)
                if h and values[other] is None:
                    im = o_im - e_im if real else e_im - o_im
                    values[other] = ((e_re - o_re + half) >> bits, (im + half) >> bits)
            for k in range(h + 1, m):
                if values[k] is None:
                    re, im = values[m - k]
                    values[k] = (re, -im)
        self.tables[key] = values
        return values


# -- integrands --------------------------------------------------------------


def _check_q2(Q2) -> None:
    """Refuse a Q2 that is 0 or not a number; any other Q2 cancels from the
    integrand (see _ThetaSum)."""
    try:
        value = _gaussian(Q2, "Q2")
    except ValueError:
        raise ValueError(f"Q2 must be a nonzero number, got {Q2!r}") from None
    if not (value.real or value.imag):
        raise ValueError("Q2 must be nonzero")


def _t_core_axes(t: int, s, Q: GaussianRational, grid: _Grid) -> list:
    """theta_even(s^t z; Q^t) / theta_even(z; Q^t), z = (-w)^t, on each circle.

    Over the t-th roots of unity xi^a, prod_a (1 - z xi^a Q^b) = 1 - z^t Q^(tb),
    so the t stripped thetas at -s w xi^a (resp. -w xi^a) and nome Q collapse
    to one at nome Q^t, up to a constant that cancels between numerator and
    denominator.  The half-powers leave s^(t/2), which cancels against the
    s^(-t/2) of the integrand's constant.  (-c x^k)^t = (-c)^t y^((t/g) k)
    with y = exp(2 pi i g / M), g = gcd(t, M), so each table has M / g
    entries.  The reading keeps a symmetric ratio symmetric, since the
    index it reads at -k, -(t / g) k mod M / g, holds the conjugate of the
    entry it reads at k.
    """
    check_t(t)
    vt = _theta_sum(Q**t, grid.prec)
    M = grid.M
    g = gcd(t, M)
    m, step = M // g, t // g
    axes = []
    for sj, c in zip(s, grid.points):
        z = (-c) ** t
        ratio = _quotients(grid.table(vt, sj**t * z, m), grid.table(vt, z, m), grid.bits)
        axes.append(_Block(ratio.exp, [ratio[step * k % m] for k in range(M)], ratio.sym))
    return axes


def _integrand(t, s, Q: GaussianRational, grid: _Grid) -> tuple:
    """(const, axes, coupling): the integrand is const * coupling[d] *
    prod_j axes[j][k_j] at the grid point of indices k.

    ``const`` is prod_j 1 / (s_j^(1/2) vartheta(s_j)), a one-entry ``_Block``.
    ``axes`` holds the t-core axis table of each circle, or is None for all
    partitions (t None).  ``coupling`` is a ``_Block`` over the offsets
    d = (k_2 - k_1, ..., k_n - k_1) mod M, in lexicographic order: at each
    offset, the exact integer product of the theta cross ratios of the
    pairs of circles i < k, each a table over k_k - k_i.  That the circles
    couple through these differences alone is what lets the grid average
    fold them into one another.
    """
    axes = None if t is None else _t_core_axes(t, s, Q, grid)
    vt = _theta_sum(Q, grid.prec)
    den = _UNIT
    for sj in s:
        den = _products(den, _products(_sqrt(sj, grid.bits), vt.point(sj)))
    const = _quotients(_UNIT, den, grid.bits)
    M, c, n = grid.M, grid.points, len(s)
    cross = {}
    for i, k in itertools.combinations(range(n), 2):
        # the theta cross-ratio in u = w_k / w_i = rho x^(k_k - k_i); the four
        # roots of u cancel
        rho, si, sk = c[k] / c[i], s[i], s[k]
        a, b, x, y = (grid.table(vt, r) for r in (rho * sk / si, rho, rho / si, rho * sk))
        cross[i, k] = _quotients(_products(a, b), _products(x, y), grid.bits)
    if n == 2:
        # one pair: the coupling is its cross table
        return const, axes, _normalized(cross[0, 1], grid.bits)
    values = []
    for d in itertools.product(range(M), repeat=n - 1):
        kk = (0, *d)
        re, im = 1, 0
        for (i, k), table in cross.items():
            u, v = table[(kk[k] - kk[i]) % M]
            re, im = re * u - im * v, re * v + im * u
        values.append((re, im))
    coupling = _Block(sum(table.exp for table in cross.values()), values)
    return const, axes, _normalized(coupling, grid.bits)


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


def _pair_average(axis1: _Block, axis2_hat: _Block, g_table: _Block, phases, bits: int) -> _Block:
    """Average A1(k1) A2(k2) g(k2 - k1 mod M) over the M^2 grid, as a one-entry block.

    The integrands only couple the two circles through the ratio w_1^(-1)w_2,
    so the double sum is a circular correlation.  With X^(j) the DFT of a
    table over ``phases``, it equals (1/M) sum_j g^(j) A1^(j) A2^(-j): two
    more O(M log M) transforms and M products, summed exactly.  ``axis2_hat``
    is A2^, at A2's exponent, so that a caller can share it between averages.
    """
    M = len(phases)
    g_hat = _dft(g_table, phases, bits)
    a1_hat = _dft(axis1, phases, bits)
    re = im = 0
    for j in range(M):
        x, y = g_hat[j]
        u, v = a1_hat[j]
        x, y = x * u - y * v, x * v + y * u
        u, v = axis2_hat[-j]
        re += x * u - y * v
        im += x * v + y * u
    log_m = M.bit_length() - 1
    return _Block(g_table.exp + axis1.exp + axis2_hat.exp - 3 * log_m, [(re, im)])


def _symmetric_pair_average(
    axis1: _Block, axis2: _Block, g_table: _Block, phases, bits: int
) -> _Block:
    """``_pair_average`` of symmetric A1, A2 and g, by two transforms, not three.

    The transform of a symmetric table is real.  So A1 and g, shifted to
    one exponent, are packed as A1 + i g into one transform, whose real part
    is A1^ and whose imaginary part is g^ (the two real transforms for the
    price of one of Press et al., Numerical Recipes, sec. 12.3), and the
    sum over j is of real products.
    """
    M = len(phases)
    exp = min(axis1.exp, g_table.exp)
    s1, sg = axis1.exp - exp, g_table.exp - exp
    packed = [
        ((x << s1) - (v << sg), (y << s1) + (u << sg)) for (x, y), (u, v) in zip(axis1, g_table)
    ]
    packed_hat = _dft(packed, phases, bits)
    axis2_hat = _dft(axis2, phases, bits)
    total = sum(x * y * axis2_hat[-j][0] for j, (x, y) in enumerate(packed_hat))
    log_m = M.bit_length() - 1
    return _Block(2 * exp + axis2.exp - 3 * log_m, [(total, 0)])


def _grid_mean(f: tuple, grid: _Grid) -> GaussianRational:
    """The mean over the M^n grid of the integrand f = (const, axes, coupling)
    of ``_integrand``, read off its tables.

    One circle: the mean of the axis table.  Two: a circular correlation,
    ``_pair_average``, or ``_symmetric_pair_average`` with one transform
    fewer when its three tables are symmetric.  Three: at each offset
    d = k_2 - k_1 the second axis folds into the first, which leaves a
    two-circle correlation per d, all against one transform of the last
    axis; the folds share one exponent, so their averages add exactly.
    Without axes, the mean of the coupling over the index differences.  The
    sum stays in integers; the mean times the constant, rounded to prec + 1
    bits, is the exact Gaussian dyadic returned.
    """
    const, axes, g = f
    M, n, phases, bits = grid.M, len(grid.points), grid.phases, grid.bits
    log_m = M.bit_length() - 1
    if axes is None:
        (re, im), exp = _total(g), g.exp - (n - 1) * log_m
    elif n == 1:
        (x, y), (u, v) = g[0], _total(axes[0])
        re, im = x * u - y * v, x * v + y * u
        exp = g.exp + axes[0].exp - log_m
    elif n == 2:
        a0, a1 = axes
        if a0.sym and a1.sym and g.sym:
            mean = _symmetric_pair_average(a0, a1, g, phases, bits)
        else:
            mean = _pair_average(a0, _Block(a1.exp, _dft(a1, phases, bits)), g, phases, bits)
        (re, im), exp = mean[0], mean.exp
    else:
        last_hat = _Block(axes[-1].exp, _dft(axes[-1], phases, bits))
        a0, a1 = axes[:2]
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
            mean = _pair_average(folded, last_hat, row, phases, bits)
            re += mean[0][0]
            im += mean[0][1]
        exp = mean.exp - log_m
    value = _normalized(_products(const, _Block(exp, [(re, im)])), grid.prec)
    return _to_exact(value[0], value.exp)


# the tables of the last extraction, (series key, r) -> _Block
_last_tables: dict = {}


def _extract(t, s, cfg: QuadratureConfig) -> GaussianRational:
    """Mean of ``_integrand(t, s, Q, grid)`` over the M^n grid of ``cfg``.

    The grid has M^n points, which the traced ``contour.grid_points`` counter
    counts per call.  Their values are read off O(M) table entries per theta
    factor; no theta is evaluated per grid point.  The tables of the previous
    extraction seed this one's, and this one's replace them once it is done.
    """
    global _last_tables
    cfg.validate_region(s)
    s = [_gaussian(sj, "s") for sj in s]
    points = [GaussianRational(c) for c in cfg.radii]
    grid = _Grid(cfg.M, points, cfg.precision_bits, _last_tables)
    try:
        value = _grid_mean(_integrand(t, s, _gaussian(cfg.Q, "Q"), grid), grid)
    except ZeroDivisionError as exc:
        raise ValueError(
            "integrand denominator vanished on the grid; the radii sit on a zero locus"
        ) from exc
    _last_tables = grid.tables
    return value


def extract_cor42(t: int, s, cfg: QuadratureConfig) -> GaussianRational:
    """Torus extraction of the product-form integrand."""
    return _extract(t, s, cfg)


def extract_cor43(t: int, s, Q2, cfg: QuadratureConfig) -> GaussianRational:
    """Torus extraction of the determinant-form integrand, with its free parameter Q2.

    By Frobenius's elliptic Cauchy determinant (J. reine angew. Math. 93,
    1882) the determinant, with its normaliser, is the product integrand of
    extract_cor42, in which Q2 cancels; so Q2 is checked (any nonzero
    number) but does not change the result, as in closed_Ft.
    """
    _check_q2(Q2)
    return _extract(t, s, cfg)


def extract_bo_determinant(s, Q2, cfg: QuadratureConfig) -> GaussianRational:
    """Torus extraction of the all-partitions determinant integrand.

    By Frobenius's elliptic Cauchy determinant, as in extract_cor43, it is
    the product integrand without the t-core axes; Q2 is checked (any
    nonzero number) but cancels.
    """
    _check_q2(Q2)
    return _extract(None, s, cfg)


# -- convergence driver --------------------------------------------------------


class ExtractionResult(Record):
    """Outcome of an M-doubling run: the value and how much to trust it.

    ``value`` is the last extraction, an exact Gaussian dyadic at the
    config's precision; ``est_error`` is the distance between the last two
    extractions, as a float.
    """

    __slots__ = ("value", "M", "precision_bits", "converged", "est_error")

    def __init__(
        self, value: GaussianRational, M: int, precision_bits: int, converged: bool, est_error: float
    ):
        self._set(value, M, precision_bits, converged, est_error)

    def as_payload(self) -> dict:
        """JSON-ready summary; withholds the value when not converged."""
        ok = self.converged
        value = complex(self.value)
        return {
            "value_re": value.real if ok else None,
            "value_im": value.imag if ok else None,
            "M": self.M,
            "precision_bits": self.precision_bits,
            "converged": ok,
            "est_error": self.est_error,
        }


def extract_with_doubling(
    extract_at, cfg: QuadratureConfig, target_digits: int
) -> ExtractionResult:
    """Double M, at most _MAX_DOUBLINGS times, until two consecutive
    extractions agree.

    ``extract_at`` maps a config to a GaussianRational, by one of this
    module's extractions.  Agreement is demanded five digits beyond the
    target, so an accepted value has its quadrature error well under the
    comparison tolerances built on top of it.  A t-core axis sees w only
    through (-w)^t, so a circle of M points has only M / gcd(t, M) distinct
    axis points, the length of its axis tables.  Two grids of one or two
    such points can agree to every digit far from the limit, so agreement
    counts only once the coarser grid has at least four on every circle;
    until then M doubles on.  When the budget runs out the result reports
    non-convergence instead of a value.
    """
    # compared exactly, squared: a float threshold underflows past about 320 digits
    threshold = Fraction(1, 10 ** (target_digits + 5)) ** 2
    value = extract_at(cfg)
    for _ in range(_MAX_DOUBLINGS):
        # the fewest distinct points on a circle of the grid just extracted
        points = min(map(len, _last_tables.values()), default=cfg.M)
        cfg = QuadratureConfig(2 * cfg.M, cfg.precision_bits, cfg.radii, cfg.Q)
        refined = extract_at(cfg)
        diff = refined - value
        value = refined
        if points >= 4 and _norm2(diff) < threshold:
            return ExtractionResult(value, cfg.M, cfg.precision_bits, True, abs(diff))
    return ExtractionResult(value, cfg.M, cfg.precision_bits, False, abs(diff))
