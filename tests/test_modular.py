"""The residue layer behind the closed routes: Z/N domains, rational
reconstruction, the check prime and the lift of a whole computation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcore._rat import QQ
from tcore.cyclo import Cyclo
from tcore.modular import (
    PRIME_BITS,
    _START_PRIMES,
    ModDomain,
    NotInvertible,
    Residue,
    _Pool,
    _run_over,
    prime_pool,
    rational_lift,
    rational_reconstruct,
)
from tcore.npoint import _closed_series, closed_Ft, closed_Ft_r, s_vector
from tcore.qseries import QQ_DOMAIN, CycloDomain, QSeries, TaylorDomain, qdiv
from tcore.theta import ThetaArg, vartheta

S4 = QQ(4)
S94 = QQ(9, 4)
S2516 = QQ(25, 16)


def modulus_above(bits: int, m: int = 4) -> int:
    """The product of the fewest pool primes whose product exceeds 2^bits."""
    count = bits // (PRIME_BITS - 1) + 1
    return math.prod(prime_pool(m, count))


# -- the prime pool and the domain ------------------------------------------------


@pytest.mark.parametrize("m", [4, 6, 8, 10])
def test_pool_primes_are_one_mod_m_and_distinct(m):
    pool = prime_pool(m, 12)
    assert len(set(pool)) == 12
    for p in pool:
        assert p % m == 1 and p.bit_length() == PRIME_BITS
        assert all(pow(a, p - 1, p) == 1 for a in (2, 3, 5, 7))


@pytest.mark.parametrize("m", [4, 6, 8, 10])
@pytest.mark.parametrize("k", [1, -1])
def test_domain_root_is_a_primitive_root_of_unity(m, k):
    dom = ModDomain(m, prime_pool(m, 3), k % m)
    w = dom.root(m, 1)
    assert _power(w, m) == dom.one
    for p in dom.primes:
        # primitive modulo every prime of N, not only modulo N
        assert all(_power(w, m // q).v % p != 1 for q in range(2, m + 1) if m % q == 0)
    # the hook reads zeta_d for every divisor d of the conductor
    assert dom.root(2, 1) == -dom.one
    assert dom.root(m, m // 2) == -dom.one


def _power(x, e: int):
    out = x.dom.one
    for _ in range(e):
        out = out * x
    return out


def test_every_domain_has_the_root_hook():
    assert CycloDomain(8).root(8, 3) == Cyclo.root(8, 3)
    assert CycloDomain(8).root(4, 1) == Cyclo.root(8, 2)
    assert QQ_DOMAIN.root(2, 3) == -1 and QQ_DOMAIN.root(1, 5) == 1
    tdom = TaylorDomain(CycloDomain(6), 2)
    assert tdom.root(6, 1) == tdom.coerce(Cyclo.root(6, 1))
    for dom in (CycloDomain(6), QQ_DOMAIN, ModDomain(6, prime_pool(6, 2))):
        with pytest.raises(ValueError):
            dom.root(4, 1)


rationals = st.builds(
    QQ,
    st.integers(min_value=-(2**80), max_value=2**80),
    st.integers(min_value=1, max_value=2**80),
)


@settings(max_examples=60, deadline=None)
@given(rationals, rationals)
def test_reduction_is_a_ring_homomorphism(a, b):
    dom = ModDomain(6, prime_pool(6, 4))
    ra, rb = dom.coerce(a), dom.coerce(b)
    assert ra + rb == dom.coerce(a + b)
    assert ra - rb == dom.coerce(a - b)
    assert ra * rb == dom.coerce(a * b)
    assert -ra == dom.coerce(-a)
    assert ra * 3 == dom.coerce(3 * a) and 2 - ra == dom.coerce(2 - a)
    if b:
        assert ra / rb == dom.coerce(a / b)
        assert 1 / rb == dom.coerce(1 / b)


def test_a_residue_vanishing_at_some_primes_names_them():
    primes = prime_pool(4, 3)
    dom = ModDomain(4, primes)
    bad = Residue(primes[0] * primes[2] * 5 % dom.n, dom)
    with pytest.raises(NotInvertible) as err:
        dom.one / bad
    assert err.value.factor == primes[0] * primes[2]
    with pytest.raises(NotInvertible):
        dom.coerce(QQ(1, primes[1]))
    with pytest.raises(ZeroDivisionError):
        dom.one / dom.zero


def test_domains_of_different_moduli_do_not_mix():
    a = ModDomain(4, prime_pool(4, 2))
    b = ModDomain(4, prime_pool(4, 3))
    assert a != b
    with pytest.raises(ValueError):
        a.one + b.one


def test_invert_by_pow_agrees_with_the_walk_over_the_primes():
    dom = ModDomain(6, prime_pool(6, 4))
    for v in (1, 2, dom.n - 1, 3**400 % dom.n, dom.primes[0] + 1, dom.n // 7 + 5):
        assert dom.invert(v) == dom._invert_by_primes(v)
        assert dom.invert(v) * v % dom.n == 1
    bad = dom.primes[1] * dom.primes[3] * 11
    for invert in (dom.invert, dom._invert_by_primes):
        with pytest.raises(NotInvertible) as err:
            invert(bad)
        assert err.value.factor == dom.primes[1] * dom.primes[3]
        with pytest.raises(ZeroDivisionError):
            invert(2 * dom.n)


def test_a_reduction_is_kept_only_when_it_succeeds():
    primes = prime_pool(4, 3)
    dom = ModDomain(4, primes)
    x = QQ(-5, 21)
    assert dom.reduce(x) == dom.reduce(x) == -5 * pow(21, -1, dom.n) % dom.n
    for _ in range(2):
        with pytest.raises(NotInvertible):
            dom.reduce(QQ(1, primes[2]))


# -- the series kernels of a residue domain ------------------------------------------


KERNEL_DOM = ModDomain(6, prime_pool(6, 3))


def generic(dom: ModDomain) -> ModDomain:
    """The same ring without its series kernels: QSeries runs its generic loops."""
    plain = ModDomain(dom.m, dom.primes)
    plain.mul_terms = plain.div_terms = None
    return plain


GENERIC_DOM = generic(KERNEL_DOM)

# small values cancel one another, large ones fill every bit of N; the
# multiples of a prime of N vanish there only
residue_values = st.one_of(
    st.sampled_from([1, -1, 2, -2, 3]),
    st.integers(min_value=0, max_value=KERNEL_DOM.n - 1),
    st.integers(min_value=1, max_value=50).map(lambda k: k * KERNEL_DOM.primes[1]),
)


@st.composite
def residue_series(draw, low=-6, high=14):
    """Terms on negative and odd (half-integer) keys, a window at or above them."""
    values = draw(st.dictionaries(st.integers(low, high), residue_values, max_size=9))
    top = max(values, default=low)
    trunc2 = draw(st.integers(top, top + 6))
    return values, trunc2


def on(dom, series):
    values, trunc2 = series
    return QSeries(dom, trunc2, {e: dom.coerce(v) for e, v in values.items()})


def outcome(op, *args):
    """op(*args), or the error it raised with the primes it named."""
    try:
        return op(*args)
    except NotInvertible as err:
        return ("NotInvertible", err.factor)
    except ZeroDivisionError:
        return ("ZeroDivisionError",)


@settings(max_examples=150, deadline=None)
@given(residue_series(), residue_series())
def test_kernels_equal_the_generic_residue_loops(a, b):
    ka, kb = on(KERNEL_DOM, a), on(KERNEL_DOM, b)
    ga, gb = on(GENERIC_DOM, a), on(GENERIC_DOM, b)
    assert ka * kb == ga * gb
    assert ka * ka == ga * ga
    assert outcome(qdiv, ka, kb) == outcome(qdiv, ga, gb)
    if kb:
        # the same divisor with its lowest coefficient a unit
        unit = {**b[0], min(kb.terms): 1}, b[1]
        assert qdiv(ka, on(KERNEL_DOM, unit)) == qdiv(ga, on(GENERIC_DOM, unit))


def test_a_divisor_vanishing_at_some_primes_names_exactly_them():
    dom = KERNEL_DOM
    p, q = dom.primes[0], dom.primes[2]
    num = QSeries(dom, 8, {0: dom.one, 3: dom.coerce(5)})
    den = QSeries(dom, 8, {-1: dom.coerce(7 * p * q), 2: dom.one})
    with pytest.raises(NotInvertible) as err:
        qdiv(num, den)
    assert err.value.factor == p * q
    # vanishing at every prime of N, the coefficient is a zero residue
    with pytest.raises(ZeroDivisionError):
        qdiv(num, QSeries(dom, 8, {-1: dom.coerce(3 * dom.n)}))
    with pytest.raises(ZeroDivisionError):
        dom.div_terms(num.terms, {0: dom.zero, 2: dom.one}, 0, 4)


def test_a_bad_prime_of_a_divisor_is_swapped_out():
    m = 4
    first = prime_pool(m, 1)[0]

    def run(dom):
        return qdiv(QSeries.one(dom, 3), QSeries(dom, 3, {0: dom.coerce(first), 2: dom.one}))

    pool = _Pool(m)
    primes = pool.take(3)
    series = _run_over(run, m, primes, pool)
    assert first not in primes and series == run(ModDomain(m, primes))
    assert rational_lift(run, m) == run(CycloDomain(m))


# -- rational reconstruction -------------------------------------------------------


big_rationals = st.builds(
    QQ,
    st.integers(min_value=-(2**1000), max_value=2**1000),
    st.integers(min_value=1, max_value=2**1000),
)


@settings(max_examples=80, deadline=None)
@given(big_rationals)
def test_reconstruction_round_trips(x):
    height = max(abs(x.numerator), x.denominator).bit_length()
    n = modulus_above(2 * height + 1)
    r = x.numerator * pow(x.denominator, -1, n) % n
    assert rational_reconstruct(r, n) == x


tall_rationals = st.builds(
    lambda num, negative, den: QQ(-num if negative else num, den),
    st.integers(min_value=2**(2 * PRIME_BITS), max_value=2**1000),
    st.booleans(),
    st.integers(min_value=1, max_value=2**1000),
)


@settings(max_examples=80, deadline=None)
@given(tall_rationals)
def test_reconstruction_misses_when_the_modulus_is_too_small(x):
    height = max(abs(x.numerator), x.denominator)
    # the largest product of pool primes that is still below 2 * height^2
    n = 1
    for p in prime_pool(4, 40):
        if n * p >= 2 * height * height:
            break
        n *= p
    r = x.numerator * pow(x.denominator, -1, n) % n
    assert rational_reconstruct(r, n) != x


def test_lift_grows_the_modulus_until_the_check_prime_agrees():
    # a coefficient of 1000-bit height needs about 33 primes; the first
    # attempt has 10, so the check prime must reject it and N must grow
    x = QQ(-(3**630) + 7, 5**430)
    runs = []

    def run(dom):
        runs.append(len(dom.primes))
        return QSeries(dom, 4, {0: dom.coerce(x), 2: dom.one})

    lifted = rational_lift(run, 4)
    assert lifted == QSeries(CycloDomain(4), 4, {0: Cyclo.from_rat(4, x), 2: Cyclo.one(4)})
    # the first N with its check prime, the check prime under zeta -> w^3,
    # then N grown twice
    assert runs == [_START_PRIMES + 1, 1, _START_PRIMES, 2 * _START_PRIMES]


# -- bad primes and irrational outputs ------------------------------------------------


def test_a_bad_prime_is_swapped_out():
    m = 4
    first = prime_pool(m, 1)[0]

    def run(dom):
        return QSeries(dom, 0, {0: dom.coerce(QQ(1, first))})

    pool = _Pool(m)
    primes = pool.take(3)
    series = _run_over(run, m, primes, pool)
    assert first not in primes and len(primes) == 3
    assert series.dom.primes == tuple(primes)


def test_a_denominator_divisible_by_every_prime_of_n_is_not_a_zero():
    # 1/D with D the product of the first 11 pool primes: the first run
    # finds every prime bad, and the lift carries on with new ones
    d = math.prod(prime_pool(4, 11))

    def run(dom):
        return QSeries(dom, 0, {0: dom.coerce(QQ(1, d))})

    assert rational_lift(run, 4) == QSeries(CycloDomain(4), 0, {0: Cyclo.from_rat(4, QQ(1, d))})


def test_s_value_with_a_pool_prime_denominator_matches_the_exact_engine():
    # the first pool prime divides a denominator, so the first run drops it
    t = 2
    p = prime_pool(2 * t, 1)[0]
    s_values = (QQ(p + 1, p) ** 2, S4)
    svals = s_vector(s_values)
    for got, kwargs in (
        (closed_Ft(t, s_values, QQ(5, 3), 3), dict(Q2=QQ(5, 3))),
        (closed_Ft_r(t, s_values, 1, 3), dict(r=1)),
    ):
        exact = _closed_series(CycloDomain(2 * t), t, svals, 3, False, **kwargs)
        assert got == exact and repr(got) == repr(exact)


def test_lift_of_an_irrational_series_raises_after_one_embedding_sweep():
    # vartheta at xi_8 has coefficients in Q(zeta_8), not in Q
    runs = []

    def run(dom):
        runs.append(dom)
        return vartheta(ThetaArg.scaled_root(QQ(1), t=4, e=1, dom=dom), 6)

    with pytest.raises(ValueError, match="not rational"):
        rational_lift(run, 8)
    assert len(runs) <= 4  # the first run and at most one per embedding k = 3, 5, 7


def test_lift_of_a_real_irrational_constant_raises():
    # zeta_8 + zeta_8^-1 = sqrt(2) is fixed by conjugation, not by zeta -> zeta^3
    def run(dom):
        return QSeries(dom, 2, {0: dom.root(8, 1) + dom.root(8, 7)})

    with pytest.raises(ValueError, match="not rational"):
        rational_lift(run, 8)


def test_a_true_zero_denominator_stays_a_zero_division():
    def run(dom):
        return QSeries(dom, 0, {0: dom.one / (dom.root(4, 1) * dom.root(4, 1) + dom.one)})

    with pytest.raises(ZeroDivisionError):
        rational_lift(run, 4)


# -- the closed routes against the exact engine ------------------------------------------


CASES = [
    (t, n, route, all_tuples)
    for t in (2, 3, 4)
    for n in (1, 2, 3)
    for route in ("closed_Ft", "closed_Ft_r")
    for all_tuples in (False, True)
    if route == "closed_Ft" or n >= 2
]


@pytest.mark.parametrize(
    "t,n,route,all_tuples", CASES,
    ids=[f"{r} t={t} n={n}{' all' if a else ''}" for t, n, r, a in CASES],
)
def test_closed_routes_equal_the_exact_engine(t, n, route, all_tuples):
    s_values = (S4, S94, S2516)[:n]
    order = 3
    if route == "closed_Ft":
        kwargs = dict(Q2=QQ(5, 3))
        got = closed_Ft(t, s_values, QQ(5, 3), order, all_tuples)
    else:
        kwargs = dict(r=1)
        got = closed_Ft_r(t, s_values, 1, order, all_tuples)
    exact = _closed_series(CycloDomain(2 * t), t, s_vector(s_values), order, all_tuples, **kwargs)
    assert got == exact
    assert repr(got) == repr(exact)
