"""The literal theta-determinant sum of the closed routes, kept as an oracle.

``closed_series`` evaluates the paper's formula as written: for each set
partition and column-label tuple, a determinant whose entries are quotients
of theta series, weighted by block factors and a normaliser, and divided by
a theta divisor.  ``closed_Ft`` passes a free parameter Q2 (theta3 entries),
``closed_Ft_r`` a marked index subset {1..r} (vartheta entries).  The
library routes sum Frobenius's product form of the same terms instead, in
which neither Q2 nor r appears; this module is what they are tested against.
"""

from __future__ import annotations

import math
from itertools import product

from tcore._rat import QQ, rat_pow, rat_str
from tcore.modular import rational_lift
from tcore.npoint import SValue, s_vector, set_partitions
from tcore.qseries import QSeries, qdiv
from tcore.theta import ThetaArg, theta3, vartheta


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
    e mod ``period``, that is 2t.  The block products ask only for
    e = 0 .. t-1, for which this is e mod t, and are branch independent;
    the determinant entries are not.
    """

    def __init__(self, t: int, order: int, dom):
        self.t = t
        self.m = 2 * t
        self.period = _DET_BRANCH_PERIOD * t
        self.order = order
        self.dom = dom
        self._odd: dict = {}
        self._sym: dict = {}

    def root_scaled(self, scale: QQ, e: int):
        """scale * xi_t^e in the domain (any sign of scale)."""
        e = e % self.t
        exp = 2 * e + (self.t if scale < 0 else 0)
        return self.dom.root(self.m, exp) * abs(QQ(scale))

    def odd(self, sv: SValue, e: int) -> QSeries:
        """vartheta at sv.s * xi_t^e, branch sqrt(s)*xi_2t^(e mod period)."""
        key = (sv.s, e % self.period)
        if key not in self._odd:
            arg = ThetaArg.scaled_root(sv.s, t=self.t, e=key[1], dom=self.dom)
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
        # the product over a full residue cycle mod t does not depend on
        # the column label l_m
        if sv.s not in block_cache:
            num = QSeries.one(dom, order)
            for e in range(t):
                num = num * table.odd(sv, e)
            block_cache[sv.s] = qdiv(num, root_den)
        return block_cache[sv.s]

    period = table.period
    entry_cache: dict = {}

    def det_entry(sv: SValue, diff: int) -> QSeries:
        key = (sv.s, diff % period)
        if key not in entry_cache:
            denom = table.odd(sv, -diff)
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


def closed_series(dom, t: int, svals, order: int, all_tuples: bool, Q2=None, r=None) -> QSeries:
    """The determinant sum of closed_Ft (given Q2) or closed_Ft_r (given r), over dom.

    dom is any coefficient domain whose ``root`` hook holds xi_2t: the
    residue domains of ``rational_lift``, or the exact CycloDomain(2t),
    which gives the same series in Q(xi_2t), with rational values.
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

    def numerator(sv: SValue, diff: int) -> QSeries:
        arg = ThetaArg.scaled_root(s_marked.s / sv.s, t=t, e=diff % table.period, dom=dom)
        return vartheta(arg, order)

    return _determinant_sum(
        table,
        svals,
        numerator,
        qdiv(QSeries.one(dom, order), table.odd(s_marked, 0)),
        theta_rest_inv,
        all_tuples,
    )


def lifted(t: int, s_values, order: int, all_tuples: bool = False, Q2=None, r=None) -> QSeries:
    """closed_series over Q, computed modulo primes as the library routes are."""
    svals = s_vector(s_values)
    Q2 = None if Q2 is None else QQ(Q2)
    return rational_lift(
        lambda dom: closed_series(dom, t, svals, order, all_tuples, Q2=Q2, r=r), 2 * t
    )
