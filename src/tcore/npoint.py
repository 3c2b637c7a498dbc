"""n-point functions of t-core partitions, exact to a chosen Q-order.

Three independent routes produce the same series: the defining average
over enumerated t-cores, a theta-determinant sum over set partitions with
a free parameter Q2, and the specialization of that sum which eliminates
Q2 in favor of a marked index subset.  The module also carries the
q-deformed partition function behind those formulas (as a defining
vertex sum and as a MacMahon-type product), its deformed average in hook
form, and the correlation-function extraction with s_j = e^(z_j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from tcore._rat import QQ, rat_pow, rat_str, rational_sqrt
from tcore.modular import rational_lift
from tcore.partitions import _charge_vectors, conjugate, hook_lengths, partitions_of
from tcore.qseries import (
    QQ_DOMAIN,
    BiSeries,
    CycloDomain,
    QSeries,
    check_int,
    check_order,
    check_t,
    qdiv,
)
from tcore.symfunc import deformation_base, topological_vertex
from tcore.theta import ThetaArg, bernoulli, macmahon, theta3, vartheta


@dataclass(frozen=True)
class SValue:
    """An evaluation point s > 1 carrying its exact square root."""

    s: QQ
    sqrt_s: QQ

    def __post_init__(self):
        object.__setattr__(self, "s", QQ(self.s))
        object.__setattr__(self, "sqrt_s", QQ(self.sqrt_s))
        if self.sqrt_s * self.sqrt_s != self.s:
            raise ValueError("sqrt_s does not square to s")
        if self.s <= 1:
            raise ValueError("s must exceed 1")

    @classmethod
    def of(cls, value) -> "SValue":
        if isinstance(value, SValue):
            return value
        value = QQ(value)
        root = rational_sqrt(value)
        if root is None:
            raise ValueError(f"{rat_str(value)} is not a perfect square of a rational")
        return cls(value, root)


def s_vector(values) -> tuple[SValue, ...]:
    """The s-values of every route, each a rational square greater than 1.

    The theta-determinant routes need no nonempty sub-product of s-values to
    equal 1 or a root of unity; a product of rationals greater than 1 is
    neither, so the SValue gate is the whole screen.
    """
    return tuple(SValue.of(v) for v in values)


def _clearing_exponents(nu) -> tuple[int, int]:
    """The powers A of p and B of q that clear the moment's lowest and highest
    exponent of p/q (see _MomentTable)."""
    return max(0, 2 * len(nu) - 1), (max(0, 2 * nu[0] - 1) if nu else 1)


def _size_clearing_exponents(order: int) -> tuple[int, int]:
    """Clearing exponents that serve every partition of size at most order:
    its length and first part are at most order."""
    return max(0, 2 * order - 1), max(1, 2 * order - 1)


class _MomentTable:
    """Row-moment products of partitions as integers over one denominator.

    With sqrt(s) = p/q the moment sum_i (p/q)^e_i + (p/q)^(1 - 2l) q^2/(p^2 - q^2),
    e_i = 2 nu_i - 2i + 1, is an integer over p^lo q^hi (p^2 - q^2) for every
    nu whose clearing exponents are at most (lo, hi).  The powers
    p^(e + lo) q^(hi - e), -lo <= e <= hi, are tabulated once per s-value.
    """

    def __init__(self, svals, lo: int, hi: int):
        self.lo = lo
        self.den = 1
        self.per_s = []
        for sv in svals:
            p, q = sv.sqrt_s.numerator, sv.sqrt_s.denominator
            gap = p * p - q * q
            powers = [p**k * q ** (lo + hi - k) for k in range(lo + hi + 1)]
            self.per_s.append((gap, q * q, powers))
            self.den *= p**lo * q**hi * gap

    def numerator(self, nu) -> int:
        """The moment product of nu times den."""
        lo = self.lo
        idx = [2 * part - 2 * i + 1 + lo for i, part in enumerate(nu, start=1)]
        tail = 1 - 2 * len(nu) + lo
        num = 1
        for gap, q2, powers in self.per_s:
            num *= gap * sum(powers[k] for k in idx) + q2 * powers[tail]
        return num


def partition_moment(sv: SValue, nu) -> QQ:
    """Sum of s^(nu_i - i + 1/2) over all rows i >= 1, tail in closed form.

    Past the last row the summand is the geometric s^(1/2 - i), giving the
    exact tail s^(1/2 - l) / (s - 1); this is the definition of the sum for
    s > 1, where the series converges.  The sum is built in integers and
    becomes one rational at the end (see _MomentTable).
    """
    table = _MomentTable((sv,), *_clearing_exponents(nu))
    return QQ(table.numerator(nu), table.den)


def _divide_by_counts(num, counts, den: int, order: int) -> QSeries:
    """(sum_e num[e] Q^e / den) / (sum_k counts[k] Q^k), through Q^order.

    num and counts are integer lists indexed by the power of Q.  Because
    counts[0] == 1 (the empty partition is the only one of size 0) the
    quotient's numerators over den stay integers:
    out[e] = num[e] - sum_{k>=1} counts[k] out[e-k].  Each coefficient
    becomes one rational at the end.
    """
    if counts[0] != 1:
        raise ValueError("the count series must start with 1")
    steps = [(k, c) for k, c in enumerate(counts[1:order + 1], start=1) if c]
    out: list[int] = []
    for e in range(order + 1):
        acc = num[e]
        for k, c in steps:
            if k > e:
                break
            acc -= c * out[e - k]
        out.append(acc)
    return QSeries(QQ_DOMAIN, 2 * order, {2 * e: QQ(c, den) for e, c in enumerate(out) if c})


def _average(groups, svals, order: int) -> QSeries:
    """The average of the row-moment product over partitions grouped by size.

    ``groups`` maps each size 0..order to its partitions, as lists or as
    generators; each is read once and counted while it is summed.  Every
    moment product is an integer over the one denominator of a
    _MomentTable whose clearing exponents serve all sizes through order, so
    the sum at each size is one integer and the division by the count
    series runs in integers (see _divide_by_counts).
    """
    table = _MomentTable(svals, *_size_clearing_exponents(order))
    sums, counts = [], []
    for size in range(order + 1):
        total = count = 0
        for nu in groups[size]:
            total += table.numerator(nu)
            count += 1
        sums.append(total)
        counts.append(count)
    return _divide_by_counts(sums, counts, table.den, order)


def brute_force_Ft(t: int, s_values, order: int) -> QSeries:
    """The defining average over t-cores, coefficient by coefficient.

    A t-core is a charge vector c in Z^t with sum 0: track r holds the beads
    r + k t, k < c_r, so the row moment is s^(1/2) M_s(c) / (s^t - 1) with
    M_s(c) = sum_r s^(r + t c_r), and no partition is built.  The factor
    s^(1/2) / (s^t - 1), with sqrt(s) = p/q equal to
    (p/q) q^(2t) / (p^(2t) - q^(2t)), is the same for every core: it leaves
    the average and is applied once at the end.  Over the exponent range
    [lo, hi] = [t min c, t max c + t - 1] of all cores, s^e is the integer
    p^(2(e - lo)) q^(2(hi - e)) over p^(-2 lo) q^(2 hi), read from one table
    per s-value.  The products prod_s M_s(c) are summed in integers at each
    size and divided once by the t-core count series (see _divide_by_counts).
    """
    check_t(t)
    check_order(order)
    svals = s_vector(s_values)
    cores = list(_charge_vectors(t, order))
    lo = t * min(min(c) for c, _ in cores)
    hi = t * max(max(c) for c, _ in cores) + t - 1
    tables = []
    den, factor = 1, QQ(1)
    for sv in svals:
        p2, q2 = sv.s.numerator, sv.s.denominator
        tables.append([p2 ** (e - lo) * q2 ** (hi - e) for e in range(lo, hi + 1)])
        den *= p2**-lo * q2**hi
        factor *= sv.sqrt_s / (rat_pow(sv.s, t) - 1)
    sums = [0] * (order + 1)
    counts = [0] * (order + 1)
    for charges, size in cores:
        idx = [r + t * c - lo for r, c in enumerate(charges)]
        weight = 1
        for powers in tables:
            weight *= sum(powers[k] for k in idx)
        sums[size] += weight
        counts[size] += 1
    average = _divide_by_counts(sums, counts, den, order)
    return average.map_coeffs(lambda c: c * factor)


def bloch_okounkov_F(s_values, order: int) -> QSeries:
    """The same average taken over all partitions instead of t-cores."""
    check_order(order)
    groups = {size: partitions_of(size) for size in range(order + 1)}
    return _average(groups, s_vector(s_values), order)


@dataclass(frozen=True)
class SetPartition:
    """Disjoint nonempty blocks covering {1..n}, ordered by least element."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(sorted(b)) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        seen: set[int] = set()
        for b in blocks:
            if not b:
                raise ValueError("blocks must be nonempty")
            if seen & set(b):
                raise ValueError("blocks must be disjoint")
            seen.update(b)
        n = len(seen)
        if seen != set(range(1, n + 1)):
            raise ValueError("blocks must cover {1..n} exactly")
        if list(blocks) != sorted(blocks, key=lambda b: b[0]):
            raise ValueError("blocks must be ordered by least element")

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)


# the most points set_partitions enumerates, and so the closed routes take
_MAX_POINTS = 8


def set_partitions(n: int) -> list[SetPartition]:
    """All set partitions of {1..n} via restricted growth strings."""
    if not 1 <= n <= _MAX_POINTS:
        raise ValueError(f"n must be between 1 and {_MAX_POINTS}")
    out: list[SetPartition] = []
    assignment = [0] * n

    def rec(i: int, used: int):
        if i == n:
            blocks: list[list[int]] = [[] for _ in range(used)]
            for idx, b in enumerate(assignment, start=1):
                blocks[b].append(idx)
            out.append(SetPartition(tuple(tuple(b) for b in blocks)))
            return
        for b in range(used + 1):
            assignment[i] = b
            rec(i + 1, used + (1 if b == used else 0))

    rec(0, 0)
    return out


def _block_product(svals, block) -> SValue:
    s = math.prod((svals[x - 1].s for x in block), start=QQ(1))
    root = math.prod((svals[x - 1].sqrt_s for x in block), start=QQ(1))
    return SValue(s, root)


# Square-root branch inside the determinant entries: the argument xi_t^e
# keeps its literal column difference e = l_i - l_j, so its root is
# xi_2t^e with e reduced mod 2t only.  Reducing e mod t instead flips the
# sign of every entry with a negative difference, and those signs do not
# factor out of the determinant; the agreement with the enumeration route
# singles out the literal convention (see tests/test_npoint.py).
_DET_BRANCH_PERIOD = 2  # in units of t


class _ThetaTable:
    """Memoized constant-argument theta series over a domain holding xi_2t.

    The square-root branch of x*xi_t^e is sqrt(x)*xi_2t^e after reducing
    e mod the requested period (t or 2t); the block products are branch
    independent, the determinant entries are not.
    """

    def __init__(self, t: int, order: int, dom):
        self.t = t
        self.m = 2 * t
        self.order = order
        self.dom = dom
        self._odd: dict = {}
        self._sym: dict = {}

    def root_scaled(self, scale: QQ, e: int):
        """scale * xi_t^e in the domain (any sign of scale)."""
        e = e % self.t
        exp = 2 * e + (self.t if scale < 0 else 0)
        return self.dom.root(self.m, exp) * abs(QQ(scale))

    def odd(self, sv: SValue, e: int, period: int | None = None) -> QSeries:
        """vartheta at sv.s * xi_t^e, branch sqrt(s)*xi_2t^(e mod period)."""
        if period is None:
            period = self.t
        key = (sv.s, e % period)
        if key not in self._odd:
            arg = ThetaArg.scaled_root(sv.s, t=self.t, e=e % period, dom=self.dom)
            self._odd[key] = vartheta(arg, self.order)
        return self._odd[key]

    def sym(self, scale: QQ, e: int) -> QSeries:
        """Theta3 at scale * xi_t^e; no square root is involved."""
        key = (QQ(scale), e % self.t)
        if key not in self._sym:
            arg = ThetaArg(self.root_scaled(scale, e), dom=self.dom)
            self._sym[key] = theta3(arg, self.order)
        return self._sym[key]


def _column_labels(t: int, k: int, all_tuples: bool):
    """Column-label tuples in {1..t}^k with least label 1, with the number of
    tuples each stands for.

    An entry sees only the literal difference l_i - l_j, so the translates
    of a tuple by 0 .. t - max(l) share its determinant.  Tuples with a
    repeated label give a vanishing determinant and are left out unless
    ``all_tuples`` asks for them.
    """
    for labels in product(range(1, t + 1), repeat=k):
        if 1 in labels and (all_tuples or len(set(labels)) == k):
            yield labels, t - max(labels) + 1


def _cofactor_det(rows, entry, cache: dict) -> QSeries:
    """Determinant of the matrix of entry(*key) over a square tuple of keys.

    Cofactor expansion along the first row.  A minor is cached under the
    keys of its entries, so the minors shared by different label tuples and
    set partitions are computed once.
    """
    if rows not in cache:
        if len(rows) == 1:
            cache[rows] = entry(*rows[0][0])
        else:
            total = None
            for j, key in enumerate(rows[0]):
                minor = tuple(row[:j] + row[j + 1:] for row in rows[1:])
                term = entry(*key) * _cofactor_det(minor, entry, cache)
                total = term if total is None else (total - term if j % 2 else total + term)
            cache[rows] = total
    return cache[rows]


def _determinant_sum(
    table: _ThetaTable, svals, numerator, normaliser: QSeries, divisor: QSeries,
    all_tuples: bool,
) -> QSeries:
    """The theta-determinant sum over set partitions shared by the closed routes.

    A block with product s and column labels l_i, l_j has the entry
    numerator(s, l_i - l_j) / vartheta(s * xi_t^(l_j - l_i)).  Each set
    partition into k blocks weighs its determinants by the block factors and
    normaliser^(k-1); the total is divided by ``divisor`` and by
    prod_j (s_j^(t/2) - s_j^(-t/2)).
    """
    t, dom, order = table.t, table.dom, table.order

    # product of vartheta(xi_t^e) over e = 1..t-1, shared by every block
    root_den = QSeries.one(dom, order)
    for e in range(1, t):
        root_den = root_den * vartheta(ThetaArg.scaled_root(QQ(1), t=t, e=e, dom=dom), order)

    block_cache: dict = {}

    def block_factor(sv: SValue) -> QSeries:
        # with exponents reduced mod t, the product over a full residue
        # cycle does not depend on the column label l_m
        if sv.s not in block_cache:
            num = QSeries.one(dom, order)
            for e in range(t):
                num = num * table.odd(sv, e)
            block_cache[sv.s] = qdiv(num, root_den)
        return block_cache[sv.s]

    period = _DET_BRANCH_PERIOD * t
    entry_cache: dict = {}

    def det_entry(sv: SValue, diff: int) -> QSeries:
        key = (sv.s, diff % period)
        if key not in entry_cache:
            denom = table.odd(sv, -diff, period)
            if not denom.coeff(0):
                raise ValueError(
                    f"vartheta({rat_str(sv.s)}*xi_{t}^{-diff % t}) "
                    "is singular in a determinant denominator"
                )
            entry_cache[key] = qdiv(numerator(sv, diff), denom)
        return entry_cache[key]

    det_cache: dict = {}

    acc = QSeries.zero(dom, order)
    for sp in set_partitions(len(svals)):
        k = len(sp.blocks)
        if not all_tuples and k > t:
            continue
        blocks = [_block_product(svals, b) for b in sp.blocks]
        dets = QSeries.zero(dom, order)
        for labels, weight in _column_labels(t, k, all_tuples):
            rows = tuple(
                tuple((bv, (li - lj) % period) for lj in labels) for bv, li in zip(blocks, labels)
            )
            d = _cofactor_det(rows, det_entry, det_cache)
            dets = dets + (d if weight == 1 else d.map_coeffs(lambda c: c * weight))
        for bv in blocks:
            dets = dets * block_factor(bv)
        for _ in range(k - 1):
            dets = dets * normaliser
        acc = acc + dets

    pref = math.prod((rat_pow(sv.sqrt_s, t) - rat_pow(sv.sqrt_s, -t) for sv in svals), start=QQ(1))
    scale = dom.coerce(1 / pref)
    return qdiv(acc, divisor).map_coeffs(lambda c: c * scale)


def _check_points(t: int, n: int) -> None:
    """Refuse more points than the set-partition sum is built for, with its cost."""
    if n > _MAX_POINTS:
        dets = _bell(n) * sum(math.perm(t, k) for k in range(1, min(n, t) + 1))
        raise ValueError(
            f"n = {n} exceeds the {_MAX_POINTS} points the closed routes support: "
            f"the sum would evaluate about Bell({n}) * sum_k {t}!/({t}-k)! = {dets} determinants"
        )


def _bell(n: int) -> int:
    """The number of set partitions of n points, by the Bell triangle."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def _closed_series(dom, t: int, svals, order: int, all_tuples: bool, Q2=None, r=None) -> QSeries:
    """The determinant sum of closed_Ft (given Q2) or closed_Ft_r (given r), over dom.

    dom is any coefficient domain whose ``root`` hook holds xi_2t: the
    routes pass the residue domains of ``rational_lift``, and the exact
    CycloDomain(2t) gives the same series in Q(xi_2t).
    """
    table = _ThetaTable(t, order, dom)
    n = len(svals)
    if r is None:
        s_all = _block_product(svals, tuple(range(1, n + 1)))
        return _determinant_sum(
            table,
            svals,
            lambda sv, diff: table.sym(-Q2 / sv.s, diff),
            qdiv(QSeries.one(dom, order), table.sym(-Q2, 0)),
            table.sym(-Q2 / s_all.s, 0),
            all_tuples,
        )
    s_marked = _block_product(svals, tuple(range(1, r + 1)))
    s_rest = _block_product(svals, tuple(range(r + 1, n + 1)))
    theta_rest_inv = vartheta(ThetaArg(1 / s_rest.s, 1 / s_rest.sqrt_s, dom=dom), order)
    if not theta_rest_inv.coeff(0):
        raise ValueError("vartheta of the unmarked product inverse is singular")
    period = _DET_BRANCH_PERIOD * t

    def numerator(sv: SValue, diff: int) -> QSeries:
        arg = ThetaArg.scaled_root(s_marked.s / sv.s, t=t, e=diff % period, dom=dom)
        return vartheta(arg, order)

    return _determinant_sum(
        table,
        svals,
        numerator,
        qdiv(QSeries.one(dom, order), table.odd(s_marked, 0)),
        theta_rest_inv,
        all_tuples,
    )


def closed_Ft(
    t: int,
    s_values,
    Q2,
    order: int,
    all_tuples: bool = False,
) -> QSeries:
    """The theta-determinant sum with free parameter Q2.

    The result does not depend on Q2 (any nonzero rational), which the
    tests exploit as an invariant.  Tuples with a repeated column label
    contribute a vanishing determinant, so they are skipped unless
    ``all_tuples`` asks for the full sum.  At most eight s-values.

    The sum runs over Z/N, for N a product of about 61-bit primes
    p = 1 (mod 2t), with xi_2t mapped to a primitive 2t-th root of unity
    mod N.  Each coefficient is rebuilt from its residue by rational
    reconstruction and confirmed at a check prime that the reconstruction
    does not see, so a wrong coefficient would pass with probability about
    2^-61 (see tcore.modular).  The coefficients come back over Q(zeta_2t)
    as Cyclo.from_rat elements, as the exact sum in Q(zeta_2t) gives them.
    """
    check_t(t)
    check_order(order)
    Q2 = QQ(Q2)
    if Q2 == 0:
        raise ValueError("Q2 must be nonzero")
    svals = s_vector(s_values)
    n = len(svals)
    _check_points(t, n)
    if n == 0:
        return QSeries.one(CycloDomain(2 * t), order)
    return rational_lift(
        lambda dom: _closed_series(dom, t, svals, order, all_tuples, Q2=Q2), 2 * t
    )


def closed_Ft_r(
    t: int,
    s_values,
    r: int,
    order: int,
    all_tuples: bool = False,
) -> QSeries:
    """The Q2-free specialization marking the index subset {1..r}, r < n.

    At most eight s-values.  Computed like closed_Ft: over Z/N for a
    product N of about 61-bit primes p = 1 (mod 2t), with each coefficient
    rebuilt by rational reconstruction and confirmed at a check prime, so a
    wrong coefficient would pass with probability about 2^-61.
    """
    check_t(t)
    check_order(order)
    svals = s_vector(s_values)
    n = len(svals)
    if n < 2:
        raise ValueError("this route needs at least two s-values")
    check_int("r", r)
    if not 1 <= r < n:
        raise ValueError("r must satisfy 1 <= r < n")
    _check_points(t, n)
    return rational_lift(
        lambda dom: _closed_series(dom, t, svals, order, all_tuples, r=r), 2 * t
    )


def qdeformed_Z_sum(q, order_total: int) -> BiSeries:
    """The defining vertex sum of the deformed partition function.

    Terms are graded by |nu| in Q and |mu| in Q1; every pair with
    |mu| + |nu| <= order_total contributes the exact rational value of
    the vertex product (the half-powers of q cancel pairwise).  Each vertex
    value C((), mu, nu) is computed once per call and kept in Q(sqrt q),
    since a single value is irrational when q is not a square.
    """
    q = deformation_base(q)
    check_order(order_total)
    vertex: dict = {}  # (mu, nu) -> C((), mu, nu) in Q(sqrt q)

    def vertex_value(mu, nu):
        if (mu, nu) not in vertex:
            vertex[mu, nu] = topological_vertex((), mu, nu, q)
        return vertex[mu, nu]

    terms: dict[tuple[int, int], QQ] = {}
    for d_nu in range(order_total + 1):
        for nu in partitions_of(d_nu):
            nu_t = conjugate(nu)
            for d_mu in range(order_total - d_nu + 1):
                for mu in partitions_of(d_mu):
                    value = vertex_value(conjugate(mu), nu) * vertex_value(mu, nu_t)
                    coeff = QQ_DOMAIN.coerce(value)
                    if (d_mu + d_nu) % 2:
                        coeff = -coeff
                    key = (2 * d_nu, 2 * d_mu)
                    terms[key] = terms.get(key, QQ(0)) + coeff
    return BiSeries(QQ_DOMAIN, 2 * order_total, terms)


def qdeformed_Z_product(q, order_total: int) -> BiSeries:
    """The same function as a MacMahon-type product, truncated honestly.

    The b-th band contributes factors whose lowest total degree is 2b - 1,
    so bands beyond (order_total + 1) // 2 collapse to 1; its factor
    1 - Q^b Q1^b has degree 2b and collapses once 2b > order_total.  Every
    factor has constant term 1 on that window, so the product keeps it.
    """
    q = deformation_base(q)
    check_order(order_total)
    out = macmahon(1, q, (0, 1), order_total)
    for b in range(1, (order_total + 1) // 2 + 1):
        out = out * macmahon(1, q, (b, b + 1), order_total)
        out = out * macmahon(1, q, (b, b - 1), order_total)
        if 2 * b <= order_total:
            band = BiSeries.one(QQ_DOMAIN, order_total) - BiSeries.monomial(
                QQ_DOMAIN, 1, b, b, order_total
            )
            out = out / band
        square = macmahon(1, q, (b, b), order_total)
        out = out / (square * square)
    return out


def qdeformed_Zn_sum(q, s_values, order_total: int) -> BiSeries:
    """The deformed average of the row-moment product, normalized.

    At fixed nu the vertex sum over mu is MacMahon(Q1) times the hook weight
    (Q Q1)^|nu| prod_h (1 - q^h Q1)(1 - q^h/Q1)/(1 - q^h)^2 (Nekrasov-Okounkov
    2006; Han 2010).  The MacMahon factor cancels from the average, which is
    the ratio of the hook sums over nu with and without the row-moment
    product, both truncated at total degree order_total.  With q = a/b, and
    one Q1 of (Q Q1)^|nu| given to each of the |nu| hooks, a hook contributes
    (b^h - a^h Q1)(b^h Q1 - a^h)/(b^h - a^h)^2, so every coefficient of a
    hook weight is one integer fraction.
    """
    q = deformation_base(q)
    svals = s_vector(s_values)
    check_order(order_total)
    a, b = q.numerator, q.denominator
    moments = _MomentTable(svals, *_size_clearing_exponents(order_total))
    plain: dict[tuple[int, int], QQ] = {}
    weighted: dict[tuple[int, int], QQ] = {}
    for size in range(order_total + 1):
        top = order_total - size  # highest power of Q1 kept beside Q^size
        for nu in partitions_of(size):
            poly, den = [1], 1
            for h in hook_lengths(nu).values():
                ah, bh = a**h, b**h
                poly = _times_quadratic(poly, -ah * bh, ah * ah + bh * bh, top)
                den *= (bh - ah) ** 2
            m_num = moments.numerator(nu)
            for e1, c in enumerate(poly):
                if c:
                    key = (2 * size, 2 * e1)
                    plain[key] = plain.get(key, QQ(0)) + QQ(c, den)
                    weighted[key] = weighted.get(key, QQ(0)) + QQ(c * m_num, den * moments.den)
    order2 = 2 * order_total
    return BiSeries(QQ_DOMAIN, order2, weighted) / BiSeries(QQ_DOMAIN, order2, plain)


def _times_quadratic(poly: list[int], outer: int, middle: int, top: int) -> list[int]:
    """poly * (outer + middle*x + outer*x^2), dropping powers of x above top."""
    out = [0] * min(len(poly) + 2, top + 1)
    for k, c in enumerate(poly):
        for j, f in ((0, outer), (1, middle), (2, outer)):
            if k + j <= top:
                out[k + j] += c * f
    return out


# the most slots prod_j (l_j + 1) that correlation_expansion tabulates
_MAX_SLOTS = 4096


def _check_slots(t: int, l_orders, q_order: int) -> None:
    """Refuse a correlation table with more slots than _MAX_SLOTS, with its cost."""
    slots = math.prod(l + 1 for l in l_orders)
    if slots > _MAX_SLOTS:
        vectors = sum(1 for _ in _charge_vectors(t, q_order))
        raise ValueError(
            f"l-orders {l_orders} ask for {slots} slots, more than the {_MAX_SLOTS} "
            f"correlation_expansion supports: each would average over {vectors} "
            f"charge vectors of size <= {q_order}"
        )


def correlation_expansion(
    t: int, n: int, l_orders, q_order: int
) -> dict[tuple[int, ...], QSeries]:
    """Correlation coefficients of the t-core average at s_j = e^(z_j).

    The returned table maps (l_1..l_n) to the exact q-series multiplying
    z_1^(l_1 - 1) ... z_n^(l_n - 1).  A t-core with charge vector c has the
    row moment s^(1/2) sum_r s^(r + t c_r) / (s^t - 1), so at s = e^z

        z * moment = [z / (e^(tz) - 1)] * sum_r e^(z a_r / 2),
        a_r = 2r + 1 + 2t c_r,

    an honest Taylor series G(z) = sum_l g_l z^l with
    g_l = sum_{m + k = l} beta_m P_k(c) / (2^k k!), where
    z / (e^(tz) - 1) = sum_m beta_m z^m, beta_m = B_m t^(m - 1) / m!, and
    P_k(c) = sum_r a_r^k.  The Bernoulli factor is the same for every core,
    so per core only the integer power sums P_k, k <= max l, are kept, and
    the sums of prod_j P_(k_j) are accumulated for every multi-index
    k <= l_orders; a product depends only on the multiset of k, and so does
    a slot on the multiset of its indices.  Each slot is a finite rational
    combination of those sums; at each size it is an integer over one
    denominator, divided by the t-core count series in integers (see
    _divide_by_counts).  Tables of more than _MAX_SLOTS slots are refused up
    front.
    """
    check_t(t)
    check_order(q_order)
    l_orders = tuple(int(l) for l in l_orders)
    if len(l_orders) != n:
        raise ValueError("need one l-order per point")
    if any(l < 0 for l in l_orders):
        raise ValueError("l-orders must be nonnegative")
    if n == 0:
        return {(): QSeries.one(QQ_DOMAIN, q_order)}
    _check_slots(t, l_orders, q_order)
    l_max = max(l_orders)
    keys = list(product(*(range(l + 1) for l in l_orders)))

    def multiset(ks) -> tuple[int, ...]:
        """The multiplicity of each index 0..l_max in ks."""
        return tuple(ks.count(k) for k in range(l_max + 1))

    # prod_j P_(k_j), summed per size, by the multiset of k
    moments = {multiset(ks): [0] * (q_order + 1) for ks in keys}
    counts = [0] * (q_order + 1)
    for charges, size in _charge_vectors(t, q_order):
        rates = [2 * r + 1 + 2 * t * c for r, c in enumerate(charges)]
        power_sums = [t]  # P_0 .. P_(l_max)
        powers = rates
        for _ in range(l_max):
            power_sums.append(sum(powers))
            powers = [x * a for x, a in zip(powers, rates)]
        for mult, row in moments.items():
            weight = 1
            for p_k, m in zip(power_sums, mult):
                if m:
                    weight *= p_k**m
            row[size] += weight
        counts[size] += 1

    # coef[m][k] = beta_m / (2^k k!), the weight of P_k in g_(m + k)
    coef = [
        [bernoulli(m) * rat_pow(t, m - 1) / (math.factorial(m) * 2**k * math.factorial(k))
         for k in range(l_max + 1)]
        for m in range(l_max + 1)
    ]

    def slot(key) -> QSeries:
        # prod_j g_(b_j) as a combination of the moments, one index at a time
        weights = {multiset(()): QQ(1)}
        for b in key:
            step: dict = {}
            for mult, w in weights.items():
                for k in range(b + 1):
                    if coef[b - k][k]:
                        m = mult[:k] + (mult[k] + 1,) + mult[k + 1:]
                        step[m] = step.get(m, 0) + w * coef[b - k][k]
            weights = step
        terms = [(w, moments[m]) for m, w in weights.items() if w]
        den = math.lcm(*(w.denominator for w, _ in terms))
        scaled = [(w.numerator * (den // w.denominator), row) for w, row in terms]
        num = [sum(c * row[size] for c, row in scaled) for size in range(q_order + 1)]
        return _divide_by_counts(num, counts, den, q_order)

    # a slot depends only on the multiset of its indices
    by_multiset: dict = {}
    table = {}
    for key in keys:
        mult = multiset(key)
        if mult not in by_multiset:
            by_multiset[mult] = slot(key)
        table[key] = by_multiset[mult]
    return table


def is_real_series(series: QSeries) -> bool:
    """True when every coefficient equals its own complex conjugate."""
    for c in series.terms.values():
        if hasattr(c, "is_real"):
            if not c.is_real():
                return False
        elif hasattr(c, "conjugate") and c.conjugate() != c:
            return False
    return True


def rational_series(series: QSeries) -> QSeries:
    """Push a series with rational-valued coefficients down to the rationals."""
    return series.map_coeffs(QQ_DOMAIN.coerce, QQ_DOMAIN)


@dataclass(frozen=True)
class NPointResult:
    """A computed n-point series plus the metadata that identifies the run."""

    method: str
    t: int | None
    n: int
    s: tuple[SValue, ...]
    value: object
    order2: int
    q2: object = None
    r: int | None = None
    elapsed_ms: float | None = None

    def as_payload(self) -> dict:
        series = self.value
        if isinstance(series, QSeries):
            body = {
                str(e2): rat_str(QQ_DOMAIN.coerce(c)) for e2, c in sorted(series.terms.items())
            }
        elif isinstance(series, BiSeries):
            body = {
                f"{k[0]},{k[1]}": rat_str(QQ_DOMAIN.coerce(c))
                for k, c in sorted(series.terms.items())
            }
        else:
            body = {"value": str(series)}
        payload = {
            "method": self.method,
            "t": self.t,
            "n": self.n,
            "s": [rat_str(sv.s) for sv in self.s],
            "order2": self.order2,
            "series": body,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.q2 is not None:
            payload["q2"] = rat_str(QQ(self.q2))
        if self.r is not None:
            payload["r"] = self.r
        return payload
