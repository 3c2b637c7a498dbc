"""Per-object averages and the factor-by-factor deformed product: the oracles
of the walks in tcore.npoint and of its one-exponential product.

Each average here builds every object's moment from nothing, the way the
routes did before they carried running sums down one walk per lattice, and
divides by the counts it enumerated, as series over Q, where the routes
divide through the counts' sparse product forms.
"""

import math

from tcore._rat import QQ, rat_pow
from tcore.npoint import _MomentTable, _size_clearing_exponents, s_vector
from tcore.partitions import _charge_vectors, partitions_of
from tcore.qseries import QQ_DOMAIN, BiSeries, QSeries, check_order, check_t, qdiv
from tcore.symfunc import deformation_base
from tcore.theta import _macmahon_log

import series_oracle


def divide_by_counts(sums, counts, den: int, order: int) -> QSeries:
    """(sum_e sums[e] Q^e / den) / (sum_k counts[k] Q^k), by series division over Q."""
    num = QSeries(QQ_DOMAIN, 2 * order, {2 * e: QQ(c, den) for e, c in enumerate(sums)})
    return qdiv(num, QSeries(QQ_DOMAIN, 2 * order, {2 * k: QQ(c) for k, c in enumerate(counts)}))


def average(groups, svals, order: int):
    """The average of the row-moment product over partitions grouped by size.

    ``groups`` maps each size 0..order to its partitions, as lists or as
    generators; each is read once and counted while it is summed.
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
    return divide_by_counts(sums, counts, table.den, order)


def bloch_okounkov(s_values, order: int):
    groups = {size: partitions_of(size) for size in range(order + 1)}
    return average(groups, s_vector(s_values), order)


def brute_force(t: int, s_values, order: int):
    """The t-core average from the list of charge vectors, one moment per core.

    Over the exponent range [lo, hi] of the cores, s^e is read from one
    integer table per s-value; the factor s^(1/2)/(s^t - 1) is applied to
    the averaged series at the end.
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
        sums[size] += math.prod(sum(powers[k] for k in idx) for powers in tables)
        counts[size] += 1
    average = divide_by_counts(sums, counts, den, order)
    return average.map_coeffs(lambda c: c * factor)


def macmahon(q, weight, order_total: int) -> BiSeries:
    """prod_(j>=1) (1 - q^(-j) X)^j, X = Q^weight[0] Q1^weight[1], as the sum
    of the powers of its logarithm."""
    order2 = 2 * order_total
    logs = _macmahon_log(QQ(1), q, 2 * weight[0], 2 * weight[1], order2)
    return series_oracle.qexp(BiSeries(QQ_DOMAIN, order2, logs))


def qdeformed_Z_product(q, order_total: int) -> BiSeries:
    """The deformed partition function as its MacMahon factors, multiplied and
    divided one at a time; bands whose factors lie above the window are 1."""
    q = deformation_base(q)
    out = macmahon(q, (0, 1), order_total)
    for b in range(1, (order_total + 1) // 2 + 1):
        out = out * macmahon(q, (b, b + 1), order_total)
        out = out * macmahon(q, (b, b - 1), order_total)
        if 2 * b <= order_total:
            band = BiSeries.one(QQ_DOMAIN, order_total) - BiSeries.monomial(
                QQ_DOMAIN, 1, b, b, order_total
            )
            out = series_oracle.bi_divide(out, band)
        square = macmahon(q, (b, b), order_total)
        out = series_oracle.bi_divide(out, square * square)
    return out
