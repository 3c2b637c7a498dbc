"""n-point functions of t-core partitions, exact to a chosen Q-order.

Two of the three independent routes to the same series live here: the
defining average over enumerated t-cores (brute_force_Ft) and the paper's
closed theta formula (closed_Ft, with a free parameter Q2, and closed_Ft_r,
with a marked index subset instead); the third is torus quadrature
(tcore.contour).  The closed formula is a sum over set partitions, with
tuples of distinct labels, of theta determinants.  Frobenius's elliptic
Cauchy determinant (J. reine angew. Math. 93, 1882) makes each determinant
a product of theta values in which Q2 and the marked subset cancel, so both
closed routes sum that one product form, through theta logarithms modulo
primes, over the labellings of the points by Z/t (_closed_sum); Q2 and r
are validated but no longer change the result.  The module also carries the
q-deformed partition function behind those formulas (as a defining
vertex sum and as a MacMahon-type product), its deformed average in hook
form, and the correlation-function extraction with s_j = e^(z_j).
"""

from __future__ import annotations

import math
from itertools import accumulate, combinations, product
from operator import add, mul, sub

from tcore._rat import QQ, Record, rat_str, rational_sqrt
from tcore.modular import rational_lift
from tcore.partitions import (
    _balanced_options,
    _charge_walk,
    _euler_terms,
    _partition_counts,
    conjugate,
    hook_lengths,
    partitions_of,
)
from tcore.qseries import (
    QQ_DOMAIN,
    BiSeries,
    QSeries,
    check_int,
    check_order,
    check_t,
    qexp,
)
from tcore.symfunc import SpecPoint, _schur_pair_sums, deformation_base
from tcore.theta import _macmahon_log, bernoulli_numbers


class SValue(Record):
    """An evaluation point s > 1 carrying its exact square root."""

    __slots__ = ("s", "sqrt_s")

    def __init__(self, s: QQ, sqrt_s: QQ):
        s, sqrt_s = QQ(s), QQ(sqrt_s)
        if sqrt_s * sqrt_s != s:
            raise ValueError("sqrt_s does not square to s")
        if s <= 1:
            raise ValueError("s must exceed 1")
        self._set(s, sqrt_s)

    @classmethod
    def of(cls, value) -> "SValue":
        if isinstance(value, SValue):
            return value
        try:
            value = QQ(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"an s-value must be a rational number, got {value!r}") from None
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
    return tuple(SValue.of(v) for v in _s_values(values))


def _s_values(values) -> tuple:
    """The s-values of a route as a tuple, unchecked; anything but an
    iterable, and a string, which would be read a character at a time, is a
    ValueError."""
    if isinstance(values, (str, bytes)):
        raise ValueError(f"s_values must be an iterable of s-values, not {type(values).__name__}")
    try:
        return tuple(values)
    except TypeError:
        raise ValueError(f"s_values must be an iterable of s-values, got {values!r}") from None


def _clearing_exponents(nu) -> tuple[int, int]:
    """The powers A of p and B of q that clear the moment's lowest and highest
    exponent of p/q (see _MomentTable)."""
    return max(0, 2 * len(nu) - 1), max(1, 2 * max(nu, default=0) - 1)


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

    def empty(self) -> tuple[int, ...]:
        """The moment of the empty partition, sqrt(s)/(s - 1), times den, per s-value."""
        return tuple(q2 * powers[1 + self.lo] for _, q2, powers in self.per_s)

    def row(self, i: int, part: int) -> tuple[int, ...]:
        """What a row i of the given length adds to the moment times den, per
        s-value: s^(part - i + 1/2) - s^(1/2 - i), the term it replaces."""
        a, b = 2 * part - 2 * i + 1 + self.lo, 1 - 2 * i + self.lo
        return tuple(gap * (powers[a] - powers[b]) for gap, _, powers in self.per_s)

    def numerator(self, nu) -> int:
        """The moment product of nu times den."""
        sums = self.empty()
        for i, part in enumerate(nu, start=1):
            sums = tuple(map(add, sums, self.row(i, part)))
        return math.prod(sums)


def partition_moment(sv, nu) -> QQ:
    """Sum of s^(nu_i - i + 1/2) over all rows i >= 1, tail in closed form.

    Past the last row the summand is the geometric s^(1/2 - i), giving the
    exact tail s^(1/2 - l) / (s - 1); this is the definition of the sum for
    s > 1, where the series converges.  The sum is built in integers and
    becomes one rational at the end (see _MomentTable).  sv is an SValue or
    a rational square greater than 1, and nu a weakly decreasing tuple of
    nonnegative ints, whose zero parts change nothing.
    """
    sv = SValue.of(sv)
    nu = tuple(nu)
    for part in nu:
        check_int("each part of nu", part)
    if nu and nu[-1] < 0 or any(a < b for a, b in zip(nu, nu[1:])):
        raise ValueError(f"nu must be weakly decreasing and nonnegative, got {nu}")
    table = _MomentTable((sv,), *_clearing_exponents(nu))
    return QQ(table.numerator(nu), table.den)


def _through_factors(num, factors, order: int) -> list[int]:
    """The integers num[0..order] times or over each factor, through Q^order.

    factors holds (terms, divide) pairs, each the series 1 + sum c Q^k over
    its nonzero terms (k, c), k >= 1 in increasing order.  A product adds
    c times the shifted input for each term, one slice at a time; a quotient
    runs out[e] = out[e] - sum c out[e - k] upwards, each e over the terms at
    or below it.  Either takes one step for each term (k, c) at each
    exponent e >= k.
    """
    out = list(num[:order + 1])
    for terms, divide in factors:
        terms = [(k, c) for k, c in terms if k <= order]
        if not divide:
            old = out[:]
            for k, c in terms:
                head = old[:order + 1 - k]
                if c == -1:
                    out[k:] = map(sub, out[k:], head)
                else:
                    out[k:] = map(add, out[k:], head if c == 1 else map(c.__mul__, head))
            continue
        ends = [k for k, _ in terms[1:]] + [order + 1]
        for i, (k, _) in enumerate(terms):
            below = terms[:i + 1]  # the terms of every e in [k, ends[i])
            for e in range(k, ends[i]):
                acc = out[e]
                for j, c in below:
                    acc -= c * out[e - j]
                out[e] = acc
    return out


def _euler_power(t: int, degree: int) -> list[tuple[int, int]]:
    """The nonzero terms (j, c), 1 <= j <= degree, of E(x)^t, with
    E(x) = prod_(n>=1) (1 - x^n) (_euler_terms).  At t = 3 they are Jacobi's
    E(x)^3 = sum_(m>=0) (-1)^m (2m + 1) x^(m(m+1)/2), at the triangular numbers."""
    power = _through_factors([1] + [0] * degree, [(_euler_terms(degree), False)] * t, degree)
    return [(j, c) for j, c in enumerate(power) if j and c]


def _count_factors(t: int | None, order: int) -> list[tuple[list[tuple[int, int]], bool]]:
    """The factors (see _through_factors) that divide a series by the count
    series of the t-cores by size (t = None: of all partitions), through
    Q^order, as sparse product forms:

    - all partitions: 1 / sum p(n) Q^n is E(Q), a product with nothing to divide;
    - t = 2: the 2-cores are the staircases, one of each triangular size, so
      the count series is Gauss's sum_(k>=0) Q^(k(k+1)/2) itself;
    - t >= 3: sum_(t-cores) Q^|core| = E(Q^t)^t / E(Q) (Garvan, Kim and
      Stanton, Invent. Math. 101, 1990), so times E(Q), over E(Q^t)^t, which
      is Jacobi's sparse cube at t = 3 and 1 through Q^order when t > order.
    """
    if t == 2:
        gauss, k = [], 1
        while (size := k * (k + 1) // 2) <= order:
            gauss.append((size, 1))
            k += 1
        return [(gauss, True)]
    factors = [(_euler_terms(order), False)]
    if t is not None and t <= order:
        factors.append(([(t * j, c) for j, c in _euler_power(t, order // t)], True))
    return factors


def _divide_by_counts(num, factors, den: int, order: int, top: int = 1) -> QSeries:
    """(sum_e num[e] Q^e top / den) / C(Q), through Q^order, with C the count
    series of the walked objects by size given by its sparse factors
    (_count_factors).

    num is an integer list indexed by the power of Q.  Every factor has
    constant term 1 and integer coefficients, so the quotient's numerators
    over den stay integers (_through_factors), and each coefficient becomes
    one rational at the end, top out[e] / den.
    """
    out = _through_factors(num, factors, order)
    return QSeries(QQ_DOMAIN, 2 * order, {2 * e: QQ(c * top, den) for e, c in enumerate(out) if c})


def _row_walk(order: int, column, start) -> list[int]:
    """The sums, over the partitions of each size 0..order, of the product
    of their column sums: sum_nu prod_j (start[j] + sum_i column(i, nu_i)[j]).

    A partition grows one row at a time, each row no longer than the one
    above.  column(i, part) is computed once for every row i and part with
    i part <= order, and the sums are carried down the walk; each product
    is summed where its partition is reached.  A row that fills the size up
    to order ends the walk, so its partition is summed without a visit.
    """
    cols = {(i, p): column(i, p) for i in range(1, order + 1) for p in range(1, order // i + 1)}
    totals = [0] * (order + 1)
    stack = [(0, order, 0, tuple(start))]  # rows, longest next row, size, sums
    while stack:
        rows, longest, size, sums = stack.pop()
        totals[size] += math.prod(sums)
        room, row = order - size, rows + 1
        for part in range(1, min(longest, room - 1) + 1):
            stack.append((row, part, size + part, tuple(map(add, sums, cols[row, part]))))
        if 0 < room <= longest:
            totals[order] += math.prod(map(add, sums, cols[row, room]))
    return totals


# the most steps a route takes, refused up front with its count: a step is
# one integer product or sum, of any height
_MAX_STEPS = 10**6


def _refusal(route: str, steps: int | str, detail: str) -> ValueError:
    return ValueError(
        f"{route} would take {steps} steps, more than the {_MAX_STEPS} it supports: {detail}"
    )


def _core_estimate(t: int, order: int) -> int:
    """About how many charge vectors have size at most order, without a walk.

    The size of c is (t/2)|c + b/t|^2 - |b|^2/(2t) with b_r = r - (t - 1)/2,
    so the vectors are the points of the lattice {c in Z^t : sum c = 0}, of
    covolume sqrt(t), in a (t - 1)-ball of squared radius
    (2 order + (t^2 - 1)/12)/t.  A t-core is a partition, so the count of the
    partitions of size at most order, once it passes the ball, caps it.  At
    t = 2 the cores are the staircases k(k + 1)/2 <= order, counted exactly.
    """
    if t == 2:
        return (math.isqrt(8 * order + 1) + 1) // 2
    k = t - 1
    r2 = (2 * order + (t * t - 1) / 12) / t
    log_ball = k / 2 * math.log(math.pi * r2) - math.lgamma(k / 2 + 1) - math.log(t) / 2
    ball = round(math.exp(min(log_ball, 60)))
    partitions, _ = _partitions_through(order, ball)
    return min(ball, partitions)


def _division_steps(t: int | None, order: int) -> int:
    """The steps of a division by the t-core counts through order (t = None:
    by the partition counts), as _through_factors takes them on the factors
    of _count_factors: a nonzero term at Q^k costs order - k + 1.

    The exponents are in closed form: the triangular numbers k(k + 1)/2 of
    Gauss's series, the pentagonal numbers j(3j -+ 1)/2 of E(Q), and t times
    the triangular numbers for Jacobi's cube E(Q^3)^3.  E(Q^t)^t for t >= 4
    is charged at every power of Q^t, a bound over its zero coefficients.
    """
    def charge(count: int, exponents: int) -> int:
        return count * (order + 1) - exponents

    if t == 2:
        m = (math.isqrt(8 * order + 1) - 1) // 2
        return charge(m, m * (m + 1) * (m + 2) // 6)
    root = math.isqrt(24 * order + 1)
    a, b = (root + 1) // 6, (root - 1) // 6  # the j with j(3j - 1)/2 and j(3j + 1)/2 <= order
    steps = charge(a + b, a * a * (a + 1) // 2 + b * (b + 1) ** 2 // 2)
    if t is None or t > order:
        return steps
    d = order // t
    if t == 3:
        m = (math.isqrt(8 * d + 1) - 1) // 2
        return steps + charge(m, t * m * (m + 1) * (m + 2) // 6)
    return steps + charge(d, t * d * (d + 1) // 2)


def _core_steps(t: int, order: int, sums: int, shared: int = 0) -> tuple[int, str]:
    """The steps of sums t-core averages through order, and what they count:
    each sum takes a step per charge vector and divides by the count series,
    and each charge vector takes shared more steps that serve every sum."""
    cores, division = _core_estimate(t, order), _division_steps(t, order)
    return sums * (cores + division) + shared * cores, (
        f"at t = {t}, order {order}, about {cores} charge vectors and {division} steps "
        f"of the division by their counts, for each of {sums} sums"
        + (f", and {shared} shared products per charge vector" if shared else "")
    )


def _partitions_through(order: int, cap) -> tuple[int, int]:
    """The number of partitions of size at most n and n: n = order, or the
    first n at which that number exceeds cap."""
    total = 0
    for n, p in zip(range(order + 1), _partition_counts()):
        total += p
        if total > cap:
            break
    return total, n


def brute_force_Ft(t: int, s_values, order: int) -> QSeries:
    """The defining average over t-cores, coefficient by coefficient.

    A t-core is a charge vector c in Z^t with sum 0: track r holds the beads
    r + k t, k < c_r, so the row moment is s^(1/2) M_s(c) / (s^t - 1) with
    M_s(c) = sum_r s^(r + t c_r), and no partition is built.  The factor
    s^(1/2) / (s^t - 1), with sqrt(s) = p/q equal to
    p q^(2t - 1) / (p^(2t) - q^(2t)), is the same for every core: it leaves
    the average and joins the one rational of each coefficient.  Over the
    exponent range [lo, hi] = [t min c, t max c + t - 1] of the cores'
    charges (_balanced_options), s^e is the integer
    p^(2(e - lo)) q^(2(hi - e)) over p^(-2 lo) q^(2 hi), read from one table
    per s-value.  One walk (_charge_walk) carries M_s(c) for every s down
    the heads of the cores, and each end adds its tracks' share; the
    products are summed in integers at each size and divided once by the
    t-core count series, through its sparse product form, so the cores are
    not counted (see _divide_by_counts).  No hook exceeds the size, so t is
    clamped to order + 1.  Averages of more than _MAX_STEPS steps are
    refused up front.
    """
    check_t(t)
    check_order(order)
    t = min(t, max(order + 1, 2))
    svals = s_vector(s_values)
    steps, detail = _core_steps(t, order, 1)
    if steps > _MAX_STEPS:
        raise _refusal("brute_force_Ft", steps, detail)
    charges = [c for opts in _balanced_options(t, 2 * order) for _, c in opts]
    lo, hi = t * min(charges), t * max(charges) + t - 1
    tables = []
    den = top = 1
    for sv in svals:
        p2, q2 = sv.s.numerator, sv.s.denominator
        tables.append([p2 ** (e - lo) * q2 ** (hi - e) for e in range(lo, hi + 1)])
        den *= p2**-lo * q2**hi * (p2**t - q2**t)
        top *= sv.sqrt_s.numerator * sv.sqrt_s.denominator ** (2 * t - 1)
    totals = [0] * (order + 1)
    walk = _charge_walk(t, order, lambda r, c: tuple(table[r + t * c - lo] for table in tables))
    for spent2, head, ends in walk:
        for cost2, end in ends:
            totals[(spent2 + cost2) >> 1] += math.prod(map(add, head, end))
    return _divide_by_counts(totals, _count_factors(t, order), den, order, top)


def bloch_okounkov_F(s_values, order: int) -> QSeries:
    """The same average taken over all partitions instead of t-cores.

    One walk over the partitions (_row_walk) carries each s-value's moment
    as an integer over the one denominator of a _MomentTable that serves
    every size through order, and sums their products by size in place.
    Dividing by the partition counts is multiplying by Euler's product
    prod (1 - Q^n), a sparse pentagonal series (see _divide_by_counts).
    Averages of more than _MAX_STEPS steps are refused up front.
    """
    check_order(order)
    svals = s_vector(s_values)
    division = _division_steps(None, order)
    walked, n = _partitions_through(order, _MAX_STEPS)
    if walked + division > _MAX_STEPS:
        raise _refusal(
            "bloch_okounkov_F", walked + division,
            f"at order {order}, {walked} partitions of size at most {n} and "
            f"{division} steps of the division by their counts",
        )
    table = _MomentTable(svals, *_size_clearing_exponents(order))
    totals = _row_walk(order, table.row, table.empty())
    return _divide_by_counts(totals, _count_factors(None, order), table.den, order)


def closed_term_count(t: int, n: int) -> int:
    """The number of terms of the closed sum at t and n points: one per
    labelling of the points 2..n by Z/t, so t^(n - 1) of them, and none at
    n = 0.

    They are the paper's set partitions into k blocks with their tuples of
    k distinct labels, sum_k S(n, k) t!/(t - k)! = t^n terms, up to the
    rotation of every label by one element of Z/t, which no term sees.
    """
    return t ** (n - 1) if n else 0


def _term_steps(n: int, order: int) -> int:
    """The steps of one term of the closed sum at n points: the
    (order + 1)(order + 2)/2 products of its exp (_exp_mod) and the sums of
    its at most n + n(n - 1)/2 factor lists, each of order + 1 entries."""
    return (order + 1) * (order + 2 + n * (n + 1)) // 2


def _check_closed_steps(route: str, t: int, n: int, order: int) -> None:
    """Refuse a closed sum of more than _MAX_STEPS steps: closed_term_count
    terms of _term_steps each.  A term count t^(n - 1) past the cap on its
    own, by a bit more than float rounding could blur, is named, not
    expanded, so that many points are refused at once."""
    per_term = _term_steps(n, order)
    if (n - 1) * math.log2(t) > math.log2(_MAX_STEPS) + 1:
        steps = f"{t}^{n - 1} * {per_term}"
    else:
        steps = closed_term_count(t, n) * per_term
        if steps <= _MAX_STEPS:
            return
    raise _refusal(
        route, steps,
        f"at t = {t}, n = {n}, order {order}, {t}^{n - 1} terms of {per_term} steps each",
    )


def _closed_layout(t: int, n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The terms of the closed sum, one per labelling of the points by Z/t
    that puts point 1 at 0: the bitmasks of its fibres, ordered by least
    element, and the steps (l_j - l_i) mod t over the pairs of fibres i < j.
    """
    layout = []
    for rest in product(range(t), repeat=n - 1):
        fibres: dict[int, int] = {}
        for i, label in enumerate((0, *rest)):
            fibres[label] = fibres.get(label, 0) | 1 << i
        steps = tuple((lj - li) % t for li, lj in combinations(fibres, 2))
        layout.append((tuple(fibres.values()), steps))
    return layout


def _exp_mod(s: list[int], inv: list[int], n: int) -> list[int]:
    """exp of the series sum_k s[k] Q^k, s[0] = 0, modulo n, by the recurrence
    m e_m = sum_(k=1..m) k s_k e_(m-k); inv[m] is 1/m mod n."""
    ks = [k * v for k, v in enumerate(s)]
    e = [1]
    for m in range(1, len(s)):
        e.append(sum(ks[k] * e[m - k] for k in range(1, m + 1)) % n * inv[m] % n)
    return e


def _closed_sum(mod, t: int, svals, order: int, layout) -> tuple[int, dict]:
    """The closed sum modulo one Modulus of conductor t, in Frobenius's
    product form, as rational_lift reads a run: (trunc2, {exp2: int mod N}).

    The paper sums over the set partitions of {1..n}, with block products
    b_1..b_k, and over the tuples l of k distinct labels in Z/t.  With
    x_i = b_i xi_t^(-l_i), y_j = xi_t^(l_j) and the literal branches
    sqrt(x_i) = sqrt(b_i) xi_2t^(-l_i), sqrt(y_j) = xi_2t^(l_j), the
    determinant of its formula, weighed by its normaliser and divisor, is
    Frobenius's elliptic Cauchy determinant (J. reine angew. Math. 93, 1882)

        prod_(i<j) vartheta(x_j/x_i) vartheta(y_j/y_i) / prod_(i,j) vartheta(x_i y_j),

    in which Q2 and the marked subset cancel.  The diagonal factors
    vartheta(x_i y_i) = vartheta(b_i) cancel the e = 0 factor of the block
    factor prod_(e<t) vartheta(b_i xi_t^e) / prod_(0<e<t) vartheta(xi_t^e).
    The sum of the terms is divided by prod_j (s_j^(t/2) - s_j^(-t/2)).

    A set partition with its label tuple is one labelling of the points by
    Z/t, whose fibres are the blocks.  A term reads the labels only through
    their steps l_j - l_i, so rotating every label leaves it unchanged, and
    the sum is t times the sum over the labellings that put point 1 at 0
    (_closed_layout).

    Each vartheta(x) is (x^(1/2) - x^(-1/2)) exp(L(x)), where the Q^N
    coefficient of L(x) is -sum_(k|N) (x^k + x^(-k) - 2)/k (the triple
    product), so a term is a constant times exp of a sum of divisor-sum
    lists.  Grouped per block and per pair i < j of blocks ordered by least
    element, with d = l_j - l_i:

    * a block gives the rational constant (sqrt(b)^t - sqrt(b)^-t) /
      (t (sqrt(b) - 1/sqrt(b))) and the coefficients
      -sum_(k|N) (t [t | k] - 1)(b^k + b^-k - 2)/k, since the sum of xi_t^(ek)
      over e < t is t [t | k];
    * a pair gives, with w = xi_t^d, the constant
      (b_j - b_i w)(w - 1) / ((b_i w - 1)(b_j - w)), in which the branches
      xi_2t have cancelled, and the coefficients
      -sum_(k|N) (w^k (1 - b_i^k)(1 - b_j^-k) + w^-k (1 - b_j^k)(1 - b_i^-k))/k.

    So the sum runs in Q(xi_t), with xi_t^e = mod.roots[e] modulo primes
    p = 1 (mod t).  The constants and lists are cached per block bitmask and
    per (pair, d), every inverse comes from two batched inversions, and a
    term costs one sum of lists and one exp (_exp_mod).
    """
    N = mod.n
    n = len(svals)
    full = (1 << n) - 1
    pq = [x for sv in svals for x in (sv.sqrt_s.numerator, sv.sqrt_s.denominator)]
    inv = mod.inverses(pq + list(range(1, order + 1)) + [t])
    inv_k = [0] + inv[2 * n:2 * n + order]
    inv_t = inv[-1]

    # sqrt(b), 1/sqrt(b), b and 1/b of every block bitmask
    root, root_inv = [1] * (full + 1), [1] * (full + 1)
    for mask in range(1, full + 1):
        a = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        root[mask] = root[rest] * pq[2 * a] % N * inv[2 * a + 1] % N
        root_inv[mask] = root_inv[rest] * pq[2 * a + 1] % N * inv[2 * a] % N
    b = [r * r % N for r in root]
    b_inv = [r * r % N for r in root_inv]
    xi = mod.roots  # xi_t^e for e < t

    # 1/(b xi^e - 1) for the masks of blocks beside others, and 1/(s_j^t - 1)
    proper = range(1, full)
    dens = [b[mask] * xi[e] - 1 for mask in proper for e in range(1, t)]
    points = [pow(b[1 << j], t, N) - 1 for j in range(n)]
    inv2 = mod.inverses(dens + points)
    inv_d = {mask: [0] + inv2[i * (t - 1):(i + 1) * (t - 1)] for i, mask in enumerate(proper)}

    powers: dict = {}

    def power_lists(mask):
        # b^k and b^-k for k = 0..order
        if mask not in powers:
            up, down = [1], [1]
            for _ in range(order):
                up.append(up[-1] * b[mask] % N)
                down.append(down[-1] * b_inv[mask] % N)
            powers[mask] = up, down
        return powers[mask]

    def divisor_sums(c):
        # -sum_(k|N) c[k] for N = 0..order, c[0] unused
        out = [0] * (order + 1)
        for k in range(1, order + 1):
            if c[k]:
                for m in range(k, order + 1, k):
                    out[m] -= c[k]
        return [v % N for v in out]

    blocks: dict = {}

    def block(mask):
        if mask not in blocks:
            geometric = 0  # sum_(j<t) b^j
            for _ in range(t):
                geometric = (geometric * b[mask] + 1) % N
            const = pow(root_inv[mask], t - 1, N) * geometric % N * inv_t % N
            up, down = power_lists(mask)
            c = [0] + [
                (t - 1 if k % t == 0 else -1) * (up[k] + down[k] - 2) * inv_k[k]
                for k in range(1, order + 1)
            ]
            blocks[mask] = const, divisor_sums(c)
        return blocks[mask]

    pair_bases: dict = {}
    pairs: dict = {}

    def pair(mi, mj, d):
        key = (mi, mj, d)
        if key not in pairs:
            if (mi, mj) not in pair_bases:
                up_i, down_i = power_lists(mi)
                up_j, down_j = power_lists(mj)
                pair_bases[mi, mj] = [
                    ((1 - up_i[k]) * (1 - down_j[k]) % N * inv_k[k] % N,
                     (1 - up_j[k]) * (1 - down_i[k]) % N * inv_k[k] % N)
                    for k in range(order + 1)
                ]
            base = pair_bases[mi, mj]
            w, w_inv = xi[d], xi[-d % t]
            const = (
                (b[mj] - b[mi] * w) * (w - 1) % N * w_inv * inv_d[mi][d] % N * inv_d[mj][t - d] % N
            )
            c = [0] + [
                xi[d * k % t] * base[k][0] + xi[-d * k % t] * base[k][1]
                for k in range(1, order + 1)
            ]
            pairs[key] = const, divisor_sums(c)
        return pairs[key]

    acc = [0] * (order + 1)
    for masks, steps in layout:
        factors = [block(mask) for mask in masks]
        factors += [pair(mi, mj, d) for (mi, mj), d in zip(combinations(masks, 2), steps)]
        const = 1
        for c, _ in factors:
            const = const * c % N
        e = _exp_mod([sum(col) % N for col in zip(*(log for _, log in factors))], inv_k, N)
        for m in range(order + 1):
            acc[m] += const * e[m]

    scale = t  # the rotations of the labels
    for j in range(n):
        scale = scale * pow(root[1 << j], t, N) % N * inv2[len(dens) + j] % N
    return 2 * order, {2 * m: v * scale % N for m, v in enumerate(acc)}


def _closed_lift(t: int, svals, order: int) -> QSeries:
    """The closed sum over Q: _closed_sum modulo primes, through rational_lift."""
    layout = _closed_layout(t, len(svals))
    return rational_lift(lambda mod: _closed_sum(mod, t, svals, order, layout), t)


def closed_Ft(t: int, s_values, Q2, order: int) -> QSeries:
    """The paper's closed theta formula with its free parameter Q2.

    The formula is a sum over set partitions with tuples of distinct labels
    of theta determinants with entries in Q2.  By Frobenius's elliptic
    Cauchy determinant (J. reine angew. Math. 93, 1882) each determinant is
    a product of theta values in which Q2 cancels, so Q2 is checked (any
    nonzero rational) but does not change the result; the sum is that of
    closed_Ft_r, term by term.  It is summed as t times a sum over the
    labellings of the points by Z/t that put point 1 at 0 (see
    _closed_sum).  Sums of more than _MAX_STEPS steps are refused up front
    (_check_closed_steps): t^(n - 1) terms, each an exp of (order + 1)(order + 2)/2
    products and the sum of its factor lists.

    The sum runs over Z/N, for N a product of about 61-bit primes
    p = 1 (mod t), with xi_t mapped to a primitive t-th root of unity
    mod N.  Each coefficient is rebuilt from its residue by rational
    reconstruction and confirmed at a check prime that the reconstruction
    does not see, so a wrong coefficient would pass with probability about
    2^-61 (see tcore.modular).  The result is a series over Q (QQ_DOMAIN).
    """
    check_t(t)
    check_order(order)
    try:
        Q2 = QQ(Q2)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"Q2 must be a nonzero rational number, got {Q2!r}") from None
    if Q2 == 0:
        raise ValueError("Q2 must be nonzero")
    values = _s_values(s_values)
    _check_closed_steps("closed_Ft", t, len(values), order)
    if not values:
        return QSeries.one(QQ_DOMAIN, order)
    return _closed_lift(t, s_vector(values), order)


def closed_Ft_r(t: int, s_values, r: int, order: int) -> QSeries:
    """The paper's closed formula that marks the index subset {1..r}, r < n.

    The marked subset replaces Q2 in the determinant entries; in
    Frobenius's product form (J. reine angew. Math. 93, 1882) it cancels as
    Q2 does, so r is checked (an int with 1 <= r < n) but does not change
    the result, which is that of closed_Ft, term by term.  Computed like
    closed_Ft: over the labellings of the points by Z/t, modulo primes
    p = 1 (mod t), with each coefficient rebuilt by rational reconstruction
    and confirmed at a check prime.  Sums of more than _MAX_STEPS steps are
    refused up front, as in closed_Ft.  The result is a series over Q
    (QQ_DOMAIN).
    """
    check_t(t)
    check_order(order)
    values = _s_values(s_values)
    n = len(values)
    if n < 2:
        raise ValueError("this route needs at least two s-values")
    check_int("r", r)
    if not 1 <= r < n:
        raise ValueError("r must satisfy 1 <= r < n")
    _check_closed_steps("closed_Ft_r", t, n, order)
    return _closed_lift(t, s_vector(values), order)


def _vertex_steps(order_total: int) -> tuple[int, int]:
    """The products of the Newton recurrences of qdeformed_Z_sum at order N,
    sum_(d<=N) p(d) C(N - d + 2, 2): the row of each nu of size d takes its
    e_m, m <= N - d, from N - d products of power sums and m products at
    each m (symfunc._schur_pair_sums).  Summed one size at a time, it stops
    at the first size d that takes it past _MAX_STEPS: (steps, d).
    """
    steps = 0
    for d, p in zip(range(order_total + 1), _partition_counts()):
        steps += p * math.comb(order_total - d + 2, 2)
        if steps > _MAX_STEPS:
            break
    return steps, d


def qdeformed_Z_sum(q, order_total: int) -> BiSeries:
    """The defining vertex sum of the deformed partition function.

    Terms are graded by |nu| in Q and |mu| in Q1; every pair with
    |mu| + |nu| <= order_total contributes the vertex product
    C((), conj(mu), nu) C((), mu, conj(nu)).  Since kappa(nu) + kappa(conj nu)
    = 0 and the half-powers of q cancel, that product is the rational
    H(nu) H(conj nu) q^(|mu| - |nu|) s_conj(mu)(y; conj nu) s_mu(y; nu), with
    H the hook product at y.  Since conj(nu) has the hooks h of nu,
    H(nu) H(conj nu) q^(-|nu|) = prod_h q^h / (q^h - 1)^2.  At each nu the
    Schur pairs of one |mu| are summed as one elementary symmetric value
    (symfunc._schur_pair_sums), so each (nu, |mu|) makes one integer
    fraction.  Swapping mu for conj(mu) shows that conj(nu) has the same row
    of coefficients as nu, so each row is computed once per conjugate pair.
    Each coefficient sums its rows' fractions as integers over the lcm of
    their denominators and becomes one rational.
    Sums of more than _MAX_STEPS products are refused up front (_vertex_steps).
    """
    q = deformation_base(q)
    check_order(order_total)
    steps, d = _vertex_steps(order_total)
    if steps > _MAX_STEPS:
        raise _refusal(
            "qdeformed_Z_sum", steps,
            f"at order {order_total}, the Newton products of the rows of the partitions "
            f"of size at most {d}",
        )
    a, b = q.numerator, q.denominator
    conjugate_rows: dict = {}  # conj(nu) -> the row of nu, until conj(nu) is reached
    parts: dict = {}  # (|nu|, |mu|) -> the (numerator, denominator) of each of its rows
    for d_nu in range(order_total + 1):
        for nu in partitions_of(d_nu):
            row = conjugate_rows.pop(nu, None)
            if row is None:
                nu_t = conjugate(nu)
                sums, scales = _schur_pair_sums(
                    SpecPoint(q, nu), SpecPoint(q, nu_t), order_total - d_nu
                )
                hooks = hook_lengths(nu).values()
                num0 = (-1) ** d_nu * (a * b) ** sum(hooks)
                den0 = math.prod(a**h - b**h for h in hooks) ** 2
                row = [
                    ((-1) ** d_mu * s * num0 * a**d_mu, den0 * scale * b**d_mu)
                    for d_mu, (s, scale) in enumerate(zip(sums, scales))
                ]
                if nu_t != nu:
                    conjugate_rows[nu_t] = row
            for d_mu, pair in enumerate(row):
                parts.setdefault((2 * d_nu, 2 * d_mu), []).append(pair)
    terms = {}
    for key, pairs in parts.items():
        den = math.lcm(*(d for _, d in pairs))
        terms[key] = QQ(sum(n * (den // d) for n, d in pairs), den)
    return BiSeries(QQ_DOMAIN, 2 * order_total, terms)


def qdeformed_Z_product(q, order_total: int) -> BiSeries:
    """The same function as a MacMahon-type product, through one exponential.

    With M(w) = macmahon(1, q, w, order_total) the product is
    M(0, 1) prod_(b>=1) M(b, b+1) M(b, b-1) / ((1 - Q^b Q1^b) M(b, b)^2).
    Its log is the sum of the MacMahon logs (_macmahon_log) with the weights
    +1 and -2, plus sum_m (Q^b Q1^b)^m / m for each band; in the ring
    truncated at total degree order_total the exp of that sum is the
    product, exactly.  A band whose monomials all lie above the window adds
    nothing.  An exp of more than _MAX_STEPS products is refused up front
    (_product_steps).
    """
    q = deformation_base(q)
    check_order(order_total)
    steps = math.comb(order_total + 2, 3)  # every c_k >= 1: a bound below _product_steps
    if steps <= _MAX_STEPS:
        steps = _product_steps(order_total)
    if steps > _MAX_STEPS:
        raise _refusal(
            "qdeformed_Z_product", steps,
            f"at order {order_total}, an estimate of the products in the bivariate exp of its log",
        )
    order2 = 2 * order_total
    logs: dict = {}

    def add_log(terms: dict, weight: int) -> None:
        for key, c in terms.items():
            logs[key] = logs.get(key, 0) + weight * c

    add_log(_macmahon_log(1, q, 0, 2, order2), 1)
    for b in range(1, (order_total + 1) // 2 + 1):
        add_log(_macmahon_log(1, q, 2 * b, 2 * b + 2, order2), 1)
        add_log(_macmahon_log(1, q, 2 * b, 2 * b - 2, order2), 1)
        add_log(_macmahon_log(1, q, 2 * b, 2 * b, order2), -2)
        add_log({(2 * b * m, 2 * b * m): QQ(1, m) for m in range(1, order_total // (2 * b) + 1)}, 1)
    return qexp(BiSeries(QQ_DOMAIN, order2, logs))


def _product_steps(order_total: int) -> int:
    """A bound on the products the exp of qdeformed_Z_product takes at order N.

    Its log has c_k terms at total degree k: one at Q1^k, one for each odd
    e | k from each of the bands (b, b + 1) and (b, b - 1), e = 2b -+ 1, and
    one for each even e | k from the band (b, b), e = 2b.  The piece of the
    exp at total degree j has at most j + 1 terms, so the recurrence takes at
    most sum_k c_k (N - k + 1)(N - k + 2)/2 products.
    """
    counts = [1] * (order_total + 1)
    for e in range(1, order_total + 1):
        bands = 2 if e % 2 and e > 1 else 1
        for k in range(e, order_total + 1, e):
            counts[k] += bands
    n = order_total
    return sum(counts[k] * (n - k + 1) * (n - k + 2) // 2 for k in range(1, n + 1))


def qdeformed_Zn_sum(q, s_values, order_total: int) -> BiSeries:
    """The deformed average of the row-moment product, normalized.

    At fixed nu the vertex sum over mu is MacMahon(Q1) times the hook weight
    (Q Q1)^|nu| prod_h (1 - q^h Q1)(1 - q^h/Q1)/(1 - q^h)^2 (Nekrasov-Okounkov
    2006; Han 2010).  The MacMahon factor cancels from the average, which is
    the ratio of the hook sums over nu with and without the row-moment
    product, both truncated at total degree order_total.  With q = a/b, and
    one Q1 of (Q Q1)^|nu| given to each of the |nu| hooks, a hook contributes
    (b^h - a^h Q1)(b^h Q1 - a^h)/(b^h - a^h)^2, so every coefficient of a
    hook weight is one integer fraction.  Both sums are accumulated as
    integers over the lcm of those denominators, the weighted one with the
    moment numerators (_MomentTable).  The empty partition makes that lcm the
    constant term of the plain sum, so the BiSeries division runs on integers
    with it as lead, and the quotient is scaled by the moments' denominator
    at the end.  Sums of more than _MAX_STEPS steps
    are refused up front: a partition of size n takes n (N - n + 1) of them
    and the bivariate division about C(N + 4, 4), at order N.
    """
    q = deformation_base(q)
    svals = s_vector(s_values)
    check_order(order_total)
    steps = division = math.comb(order_total + 4, 4)
    for n, p in zip(range(order_total + 1), _partition_counts()):
        steps += p * (1 + n * (order_total - n + 1))
        if steps > _MAX_STEPS:
            raise _refusal(
                "qdeformed_Zn_sum", steps,
                f"at order {order_total}, {division} steps of the division and the "
                f"hook weights of the partitions of size at most {n}",
            )
    a, b = q.numerator, q.denominator
    moments = _MomentTable(svals, *_size_clearing_exponents(order_total))
    rows = []  # (|nu|, hook weight numerators by power of Q1, their denominator, moment)
    for size in range(order_total + 1):
        top = order_total - size  # highest power of Q1 kept beside Q^size
        for nu in partitions_of(size):
            poly, den = [1], 1
            for h in hook_lengths(nu).values():
                ah, bh = a**h, b**h
                poly = _times_quadratic(poly, -ah * bh, ah * ah + bh * bh, top)
                den *= (bh - ah) ** 2
            rows.append((size, poly, den, moments.numerator(nu)))
    common = math.lcm(*(den for _, _, den, _ in rows))
    plain: dict = {}
    weighted: dict = {}
    for size, poly, den, m_num in rows:
        scale = common // den
        for e1, c in enumerate(poly):
            if c:
                key = (2 * size, 2 * e1)
                c *= scale
                plain[key] = plain.get(key, 0) + c
                weighted[key] = weighted.get(key, 0) + c * m_num
    order2 = 2 * order_total
    quotient = BiSeries(QQ_DOMAIN, order2, weighted) / BiSeries(QQ_DOMAIN, order2, plain)
    return quotient * QQ(1, moments.den)


def _times_quadratic(poly: list[int], outer: int, middle: int, top: int) -> list[int]:
    """poly * (outer + middle*x + outer*x^2), dropping powers of x above top."""
    out = [0] * min(len(poly) + 2, top + 1)
    for k, c in enumerate(poly):
        for j, f in ((0, outer), (1, middle), (2, outer)):
            if k + j <= top:
                out[k + j] += c * f
    return out


def _multiset_counts(l_orders) -> list[int]:
    """The number of multisets of indices k_j <= l_j, one of each of the i
    least l-orders, i = 1..n, the prefixes of i indices of the kinds of
    correlation_expansion: sorted, they are the sequences k_1 <= .. <= k_i
    under the l-orders sorted, counted by their last index."""
    counts, out = [1], []
    for l in sorted(l_orders):
        counts = list(accumulate(counts)) + [sum(counts)] * (l + 1 - len(counts))
        out.append(sum(counts))
    return out


def _correlation_steps(t: int, l_orders, q_order: int) -> tuple[int, str]:
    """The steps of correlation_expansion, and what they count: the
    (l_max + 1)(l_max + 2)/2 products of each column of weights, of which
    there are at most t (2 isqrt(2 q_order // t) + 3), since a charge c has
    t c(c - 1) <= 2 q_order or the same in -c (_track_cost2); a table entry
    per slot, (l_max + 1)^2 for the weights, and a t-core average
    (_core_steps) per kind, each charge vector sharing a product per proper
    prefix of two or more indices.  The averages are counted only when the
    rest stays within _MAX_STEPS.
    """
    l_max = max(l_orders)
    slots = math.prod(l + 1 for l in l_orders)
    columns = t * (2 * math.isqrt(2 * q_order // t) + 3)
    steps = columns * (l_max + 1) * (l_max + 2) // 2 + slots + (l_max + 1) ** 2
    detail = (
        f"{steps} steps to build at most {columns} columns of weights and fill {slots} slots "
        f"at order {q_order}"
    )
    if steps <= _MAX_STEPS:
        *prefixes, kinds = _multiset_counts(l_orders)
        averages, core_detail = _core_steps(t, q_order, kinds, sum(prefixes[1:]))
        steps += averages
        detail = f"{core_detail}, and {detail}"
    return steps, detail


def correlation_expansion(
    t: int, n: int, l_orders, q_order: int
) -> dict[tuple[int, ...], QSeries]:
    """Correlation coefficients of the t-core average at s_j = e^(z_j).

    The returned table maps (l_1..l_n) to the exact q-series multiplying
    z_1^(l_1 - 1) ... z_n^(l_n - 1).  A t-core with charge vector c has the
    row moment s^(1/2) sum_r s^(r + t c_r) / (s^t - 1), so at s = e^z

        z * moment = sum_r z e^(z a_r / 2) / (e^(tz) - 1),
        a_r = 2r + 1 + 2t c_r,

    an honest Taylor series G(z) = sum_b g_b z^b.  A track's term is
    x e^(xu) / (e^x - 1) = sum_b B_b(u) x^b / b!, the Bernoulli polynomials
    at x = tz and u = a_r / (2t), the variable of Bloch and Okounkov's
    expansion of the all-partitions function (Adv. Math. 149, 2000).  So
    g_b b! 2^b t L = sum_r w_b(a_r), with L the lcm of the denominators of
    B_0 .. B_(max l) and the integer column entries

        w_b(a) = L (2t)^b B_b(a / (2t)) = sum_k C(b, k) (2t)^(b - k) L B_(b - k) a^k.

    The walk (_charge_walk) hands over each core's column sums as a head
    and an end.  A slot depends only on the multiset of its indices, its
    kind; each kind's product of column sums is its parent prefix's times
    one sum, and the products are summed per size.  Each slot is its kind's
    sums over prod_j b_j! 2^(b_j) t L, divided by the t-core count series in
    integers through its sparse product form (see _divide_by_counts).  No
    hook of a partition of size n exceeds n, so t is clamped to
    q_order + 1.  Tables of more than _MAX_STEPS steps are refused up front
    (_correlation_steps).
    """
    check_t(t)
    check_order(q_order)
    check_int("n", n)
    try:
        l_orders = tuple(l_orders)
    except TypeError:
        raise ValueError(f"the l-orders must be an iterable of ints, got {l_orders!r}") from None
    for l in l_orders:
        check_int("each l-order", l)
    if len(l_orders) != n:
        raise ValueError("need one l-order per point")
    if any(l < 0 for l in l_orders):
        raise ValueError("l-orders must be nonnegative")
    if n == 0:
        return {(): QSeries.one(QQ_DOMAIN, q_order)}
    t = min(t, max(q_order + 1, 2))
    steps, detail = _correlation_steps(t, l_orders, q_order)
    if steps > _MAX_STEPS:
        raise _refusal("correlation_expansion", steps, detail)
    l_max = max(l_orders)
    # a kind holds the indices of its slots in increasing order
    kind_of = {key: tuple(sorted(key)) for key in product(*(range(l + 1) for l in l_orders))}
    kinds = list(dict.fromkeys(kind_of.values()))
    # the product of a prefix (b,) is the column sum b, so a core takes one
    # multiplication per prefix of two or more indices
    prefixes = {(b,): b for b in range(l_max + 1)}
    chain = []  # (parent prefix, b) of every longer prefix, parents first
    for ks in kinds:
        for i in range(2, len(ks) + 1):
            if ks[:i] not in prefixes:
                prefixes[ks[:i]] = len(prefixes)
                chain.append((prefixes[ks[:i - 1]], ks[i - 1]))
    full = [prefixes[ks] for ks in kinds]
    by_size = [[0] * len(kinds) for _ in range(q_order + 1)]

    # weights[b][k] = C(b, k) (2t)^m L B_m, m = b - k, an integer
    bern = bernoulli_numbers(l_max)
    lcm = math.lcm(*(x.denominator for x in bern))
    scaled = [(2 * t) ** m * int(lcm * x) for m, x in enumerate(bern)]
    weights = []
    binomials = [1]  # C(b, k), k = 0..b, one row of Pascal's triangle
    for b in range(l_max + 1):
        weights.append([c * scaled[b - k] for k, c in enumerate(binomials)])
        binomials = [1, *map(add, binomials, binomials[1:]), 1]

    def column(r, c):
        # w_b(a), b = 0..l_max, for a = 2r + 1 + 2t c
        powers = list(accumulate([1] + [2 * r + 1 + 2 * t * c] * l_max, mul))
        return tuple(sum(map(mul, row, powers)) for row in weights)

    for spent2, head, ends in _charge_walk(t, q_order, column):
        for cost2, end in ends:
            products = [*map(add, head, end)]  # g_b b! 2^b t L, b = 0..l_max
            for parent, b in chain:
                products.append(products[parent] * products[b])
            row = by_size[(spent2 + cost2) >> 1]
            row[:] = map(add, row, map(products.__getitem__, full))
    factors = _count_factors(t, q_order)
    slots = {}
    for i, ks in enumerate(kinds):
        den = math.prod(math.factorial(b) * 2**b * t * lcm for b in ks)
        slots[ks] = _divide_by_counts([row[i] for row in by_size], factors, den, q_order)
    return {key: slots[ks] for key, ks in kind_of.items()}


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


class NPointResult(Record):
    """A computed n-point series plus the metadata that identifies the run.

    ``terms`` is the number of labellings a closed sum runs over
    (closed_term_count).
    """

    __slots__ = ("method", "t", "n", "s", "value", "order2", "q2", "r", "elapsed_ms", "terms")

    def __init__(
        self,
        method: str,
        t: int | None,
        n: int,
        s: tuple[SValue, ...],
        value: object,
        order2: int,
        q2: object = None,
        r: int | None = None,
        elapsed_ms: float | None = None,
        terms: int | None = None,
    ):
        self._set(method, t, n, s, value, order2, q2, r, elapsed_ms, terms)

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
        if self.terms is not None:
            payload["terms"] = self.terms
        return payload
