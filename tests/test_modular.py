"""The residue layer behind the closed routes: moduli and their residue
rings, rational reconstruction, the check prime and the lift of a whole
computation."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tcore import modular
from tcore._rat import QQ
from tcore.cyclo import Cyclo
from tcore.modular import (
    _SHARED_POOL,
    _SHARED_STEP,
    PRIME_BITS,
    _QUOTIENT_BITS,
    _RUN_PRIMES,
    _START_PRIMES,
    Modulus,
    NotInvertible,
    _odd_prime_factors,
    _Pool,
    _Progression,
    _reconstruct,
    _root_of_unity,
    _run_over,
    _witness,
    prime_pool,
    rational_lift,
    rational_reconstruct,
)
from tcore.npoint import (
    _largest_first_hook,
    _largest_part,
    closed_Ft,
    closed_Ft_r,
    rational_series,
    s_vector,
)
from tcore.partitions import enumerate_t_cores
from tcore.qseries import QQ_DOMAIN, CycloDomain, QSeries, TaylorDomain, qdiv
from tcore.theta import ThetaArg, vartheta

import determinant_oracle
from residue_ring import Residue, ResidueRing, int_run

S4 = QQ(4)
S94 = QQ(9, 4)
S2516 = QQ(25, 16)


def modulus_above(bits: int, m: int = 4) -> int:
    """The product of the fewest pool primes whose product exceeds 2^bits."""
    count = bits // (PRIME_BITS - 1) + 1
    return math.prod(prime_pool(m, count))


# -- the prime pool and the domain ------------------------------------------------


def is_prime_on_13_bases(n):
    """Miller-Rabin on the first 13 primes, deterministic below 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    if n in bases:
        return True
    if any(n % p == 0 for p in bases):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@pytest.mark.parametrize("m", [4, 6, 8, 10, 14, 24, 18, 22])
def test_pool_primes_are_proven_primes_with_primitive_roots(m):
    pool = prime_pool(m, 64)
    for p in pool:
        assert is_prime_on_13_bases(p), p
        assert p % m == 1 and p.bit_length() == PRIME_BITS
        w = _root_of_unity(m, p)
        assert pow(w, m, p) == 1
        primes_of_m = [q for q in range(2, m + 1) if m % q == 0 and is_prime_on_13_bases(q)]
        assert all(pow(w, m // q, p) != 1 for q in primes_of_m)
    # the pool is the largest primes of its progression p = 1 (mod S), with
    # S = 105 2^32 if m divides it, else S = m 2^e >= 2^32
    if (105 << 32) % m == 0:
        step = 105 << 32
    else:
        step = next(m << e for e in range(33) if m << e >= 2**32)
    walk, p = [], (2**PRIME_BITS - 2) // step * step + 1
    while len(walk) < 64:
        if is_prime_on_13_bases(p):
            walk.append(p)
        p -= step
    assert tuple(walk) == pool


def test_conductors_with_one_odd_part_share_a_pool():
    # every conductor that divides 105 2^32, such as 4, 6, 8, 10, 14 and 24,
    # has one odd part as far as the pools go: they share one; 18 and 22 do
    # not divide it, and each shares a pool with its own odd part only
    shared = prime_pool(4, 64)
    for m in (6, 8, 10, 14, 24):
        assert prime_pool(m, 64) == shared
    for m in (18, 22):
        assert not set(prime_pool(m, 20)) & set(shared)
        assert prime_pool(m, 20) == prime_pool(2 * m, 20)
    assert prime_pool(4, 5) == shared[:5]


def test_an_unseeded_search_re_derives_the_shared_table(monkeypatch):
    table = _SHARED_POOL
    assert len(table) >= 41
    seeded = prime_pool(4, len(table) + 3)
    monkeypatch.setattr(modular, "_SHARED_POOL", ())
    search = _Progression(_SHARED_STEP)
    search.extend(4, len(table) + 3)
    assert tuple((p, search.witness[p]) for p in search.primes[:len(table)]) == table
    # past the table, the seeded pool walks on as the search does
    assert tuple(search.primes) == seeded
    # each stored base proves its prime alone
    odd = _odd_prime_factors(_SHARED_STEP)
    assert odd == (3, 5, 7)
    for p, a in table:
        assert _witness(p, (a,), odd) == a


def test_the_pools_of_2t_walk_no_candidate(monkeypatch):
    monkeypatch.setattr(modular, "_PROGRESSIONS", {})
    bases = []

    def witness(p, tried, odd):
        bases.append(tried)
        return _witness(p, tried, odd)

    monkeypatch.setattr(modular, "_witness", witness)
    k = len(_SHARED_POOL)
    for t in range(2, 9):
        assert prime_pool(2 * t, k) == tuple(p for p, _ in _SHARED_POOL)
    # one proof per tabulated prime, by its one stored base
    assert bases == [(a,) for _, a in _SHARED_POOL]


def test_a_wrong_stored_base_is_refused(monkeypatch):
    (p, a), *rest = _SHARED_POOL
    monkeypatch.setattr(modular, "_SHARED_POOL", ((p, 13 if a != 13 else 11), *rest))
    monkeypatch.setattr(modular, "_PROGRESSIONS", {})
    with pytest.raises(ArithmeticError, match=str(p)):
        prime_pool(4, 1)


def test_a_progression_with_too_few_primes_is_refused_at_once():
    # S = 2^58 + 2 has four 61-bit candidates 1 + kS, so eleven primes cannot exist
    with pytest.raises(ValueError, match=str(2**58 + 2)):
        prime_pool(2**58 + 2, 11)
    # S = 2^57 - 2 has eight candidates and three of them are prime
    assert len(prime_pool(2**57 - 2, 3)) == 3
    with pytest.raises(ValueError, match=str(2**57 - 2)):
        prime_pool(2**57 - 2, 4)
    with pytest.raises(ValueError):
        prime_pool(0, 1)


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
    dom = ResidueRing(Modulus(m, prime_pool(m, 3), k % m))
    w = dom.root(m, 1)
    assert _power(w, m) == dom.one
    for p in dom.mod.primes:
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
    for dom in (CycloDomain(6), QQ_DOMAIN, ResidueRing(Modulus(6, prime_pool(6, 2)))):
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
    dom = ResidueRing(Modulus(6, prime_pool(6, 4)))
    # hypothesis draws the pool primes from the source; a rational whose
    # denominator one divides has no residue (see the NotInvertible tests)
    assume(math.gcd(a.denominator * b.denominator * (b.numerator or 1), dom.n) == 1)
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
    dom = ResidueRing(Modulus(4, primes))
    bad = Residue(primes[0] * primes[2] * 5 % dom.n, dom)
    with pytest.raises(NotInvertible) as err:
        dom.one / bad
    assert err.value.factor == primes[0] * primes[2]
    with pytest.raises(NotInvertible):
        dom.coerce(QQ(1, primes[1]))
    with pytest.raises(ZeroDivisionError):
        dom.one / dom.zero


def test_domains_of_different_moduli_do_not_mix():
    a = ResidueRing(Modulus(4, prime_pool(4, 2)))
    b = ResidueRing(Modulus(4, prime_pool(4, 3)))
    assert a != b
    with pytest.raises(ValueError):
        a.one + b.one


def test_invert_by_pow_agrees_with_the_walk_over_the_primes():
    mod = Modulus(6, prime_pool(6, 4))
    for v in (1, 2, mod.n - 1, 3**400 % mod.n, mod.primes[0] + 1, mod.n // 7 + 5):
        by_primes = modular.crt([pow(v, -1, p) for p in mod.primes], mod.primes)
        assert mod.invert(v) == by_primes
        assert mod.invert(v) * v % mod.n == 1
    bad = mod.primes[1] * mod.primes[3] * 11
    with pytest.raises(NotInvertible) as err:
        mod.invert(bad)
    assert err.value.factor == mod.primes[1] * mod.primes[3]
    # a square of a prime of N names that prime once
    with pytest.raises(NotInvertible) as err:
        mod.invert(mod.primes[2] ** 2)
    assert err.value.factor == mod.primes[2]
    for zero in (0, 2 * mod.n, -mod.n):
        with pytest.raises(ZeroDivisionError):
            mod.invert(zero)


def test_a_reduction_is_kept_only_when_it_succeeds():
    primes = prime_pool(4, 3)
    dom = ResidueRing(Modulus(4, primes))
    x = QQ(-5, 21)
    assert dom.reduce(x) == dom.reduce(x) == -5 * pow(21, -1, dom.n) % dom.n
    for _ in range(2):
        with pytest.raises(NotInvertible):
            dom.reduce(QQ(1, primes[2]))


# -- series over a residue domain ---------------------------------------------------


def test_a_divisor_vanishing_at_some_primes_names_exactly_them():
    dom = ResidueRing(Modulus(6, prime_pool(6, 3)))
    p, q = dom.mod.primes[0], dom.mod.primes[2]
    num = QSeries(dom, 8, {0: dom.one, 3: dom.coerce(5)})
    den = QSeries(dom, 8, {-1: dom.coerce(7 * p * q), 2: dom.one})
    with pytest.raises(NotInvertible) as err:
        qdiv(num, den)
    assert err.value.factor == p * q
    # vanishing at every prime of N, the coefficient is a zero residue
    with pytest.raises(ZeroDivisionError):
        qdiv(num, QSeries(dom, 8, {-1: dom.coerce(3 * dom.n)}))
    with pytest.raises(ZeroDivisionError):
        dom.one / dom.zero


def test_a_bad_prime_of_a_divisor_is_swapped_out():
    m = 4
    first = prime_pool(m, 1)[0]

    def run(dom):
        return qdiv(QSeries.one(dom, 3), QSeries(dom, 3, {0: dom.coerce(first), 2: dom.one}))

    pool = _Pool(m)
    primes = pool.take(3)
    got = _run_over(int_run(run), m, primes, pool)
    assert first not in primes and got == int_run(run)(Modulus(m, primes))
    assert rational_lift(int_run(run), m) == rational_series(run(CycloDomain(m)))


# -- rational reconstruction -------------------------------------------------------


def wang_reconstruct(r: int, n: int, den_bound: int | None = None):
    """The rational a/b with a = b*r (mod n), 0 < b <= B and |a| <= n/(2B),
    or None: Wang's reconstruction (1981), the oracle of the library's.

    B is ``den_bound``; by default both bounds are sqrt(n/2).  Such an a/b is
    unique when it exists, and the half-extended Euclidean algorithm on
    (n, r), stopped at the first remainder within the numerator bound, finds
    it.
    """
    if den_bound is None:
        den_bound = num_bound = math.isqrt(n // 2)
    else:
        num_bound = n // (2 * den_bound)
    r0, r1 = n, r % n
    s0, s1 = 0, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > den_bound or math.gcd(r1, s1) != 1:
        return None
    return QQ(r1, s1)


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
    # hypothesis draws the pool primes from the source; a denominator that one
    # divides has no residue mod n (the lift drops such primes instead)
    assume(math.gcd(x.denominator, n) == 1)
    r = x.numerator * pow(x.denominator, -1, n) % n
    assert wang_reconstruct(r, n) == x


@settings(max_examples=80, deadline=None)
@given(big_rationals)
def test_quotient_reconstruction_round_trips(x):
    # the first large quotient names x once N exceeds 2^33 |a| b, however
    # unbalanced a and b are
    need = abs(x.numerator) * x.denominator << (_QUOTIENT_BITS + 1)
    n = modulus_above(need.bit_length())
    assume(math.gcd(x.denominator, n) == 1)
    r = x.numerator * pow(x.denominator, -1, n) % n
    assert rational_reconstruct(r, n) == x


def test_quotient_reconstruction_of_a_short_numerator_needs_no_balanced_modulus():
    # 1/b with a 400-bit b: Wang's bounds need 801 bits, the quotient 434
    x = QQ(1, 3**252)
    n = modulus_above(440)
    r = pow(x.denominator, -1, n)
    assert wang_reconstruct(r, n) != x
    assert rational_reconstruct(r, n) == x


def test_quotient_reconstruction_of_the_smallest_residues():
    # 0 takes no step; 1 and -1 stop at the first quotient, about N
    n = math.prod(prime_pool(4, 2))
    assert rational_reconstruct(0, n) == 0
    assert rational_reconstruct(1, n) == 1
    assert rational_reconstruct(n - 1, n) == -1


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=2**100),
       st.data())
def test_bounded_reconstruction_round_trips(count, bound, data):
    n = math.prod(prime_pool(4, count))
    b = data.draw(st.integers(min_value=1, max_value=bound))
    a = data.draw(st.integers(min_value=-(n // (2 * bound)), max_value=n // (2 * bound)))
    assume(math.gcd(b, n) == 1)
    r = a * pow(b, -1, n) % n
    assert wang_reconstruct(r, n, bound) == QQ(a, b)


def test_a_bounded_reconstruction_misses_a_taller_denominator():
    n = math.prod(prime_pool(4, 10))
    x = QQ(1, 2**64 + 13)
    r = pow(x.denominator, -1, n)
    assert wang_reconstruct(r, n, 2**64) is None
    assert wang_reconstruct(r, n) == x


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
    assume(math.gcd(x.denominator, n) == 1)
    r = x.numerator * pow(x.denominator, -1, n) % n
    assert wang_reconstruct(r, n) != x


def test_lift_grows_the_modulus_until_the_check_prime_agrees():
    # a coefficient of 1000-bit height needs about 33 primes; the first
    # attempt has 10, so the check prime must reject it and N must grow
    x = QQ(-(3**630) + 7, 5**430)
    runs = []

    def run(dom):
        runs.append(len(dom.mod.primes))
        return QSeries(dom, 4, {0: dom.coerce(x), 2: dom.one})

    lifted = rational_lift(int_run(run), 4)
    assert lifted == QSeries(QQ_DOMAIN, 4, {0: x, 2: QQ(1)})
    # the first N with its check prime, the check prime under zeta -> w^3,
    # then N grown twice, the second time in two runs of ten primes
    assert runs == [_START_PRIMES + 1, 1, _START_PRIMES, _START_PRIMES, _START_PRIMES]


def test_a_run_over_many_primes_is_split_and_joined_by_crt():
    runs = []

    def run(dom):
        runs.append(len(dom.mod.primes))
        return QSeries(dom, 4, {0: dom.coerce(QQ(-(3**200), 7)), 2: dom.one, 4: dom.zero})

    pool = _Pool(4)
    primes = pool.take(2 * _RUN_PRIMES + 1)
    got = _run_over(int_run(run), 4, primes, pool)
    # three runs of nine primes
    assert len(runs) == 3 and sum(runs) == len(primes) and max(runs) - min(runs) <= 2
    assert got == int_run(run)(Modulus(4, primes))


@pytest.mark.parametrize(
    ("bits", "first"), [(None, _START_PRIMES), (1, 1), (61, 1), (62, 2), (700, 12), (800, 14)]
)
def test_the_first_modulus_packs_the_bits_the_caller_names(bits, first):
    runs = []

    def run(dom):
        runs.append(len(dom.mod.primes))
        return QSeries(dom, 2, {0: dom.coerce(QQ(-7, 3)), 2: dom.one})

    assert rational_lift(int_run(run), 4, bits) == QSeries(QQ_DOMAIN, 2, {0: QQ(-7, 3), 2: QQ(1)})
    assert sum(runs) == first + 1 and max(runs) <= _RUN_PRIMES  # and the check prime
    # up to _RUN_PRIMES primes with the check prime are one run: split, a
    # small sum would pay its own work twice
    assert len(runs) == -(-(first + 1) // _RUN_PRIMES)


def _residues_and_check(series, primes: int):
    """The coefficients of an exact series mod the product of the first
    ``primes`` pool primes of conductor 4, and mod the next one."""
    pool = prime_pool(4, primes + 1)
    n, check = math.prod(pool[:-1]), pool[-1]
    reduce = lambda x, q: x.numerator * pow(x.denominator, -1, q) % q  # noqa: E731
    residues = {e: reduce(x, n) for e, x in series.terms.items()}
    return residues, n, {e: reduce(x, check) for e, x in series.terms.items()}, check


def _count_fallbacks(monkeypatch) -> list:
    """Record each reconstruction of _reconstruct: a coefficient takes one,
    of its carried residue, and one more, of its plain residue, only when the
    first fails, so the calls past one per coefficient are the fallbacks."""
    calls = []

    def counted(r, n):
        calls.append(r)
        return rational_reconstruct(r, n)

    monkeypatch.setattr(modular, "rational_reconstruct", counted)
    return calls


@pytest.mark.parametrize("t", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("order", [8, 16])
def test_carried_reconstruction_equals_wang_on_closed_outputs(monkeypatch, t, n, order):
    exact = closed_Ft(t, (S4, S94, S2516)[:n], QQ(5, 3), order)
    residues, n_mod, at_check, check = _residues_and_check(exact, _START_PRIMES)
    wang = {e: wang_reconstruct(r, n_mod) for e, r in residues.items()}
    assert wang == exact.terms
    calls = _count_fallbacks(monkeypatch)
    assert _reconstruct(residues, n_mod, at_check, check) == wang
    # the carried denominator serves all but a few coefficients
    assert len(residues) <= len(calls) <= len(residues) + 2


def test_unrelated_denominators_take_the_fallback_and_stay_exact(monkeypatch):
    # 1/p for distinct primes p > 2^300: the carried value p'/p needs more
    # than the 610 bits of N, 1/p alone fits, so a carried p never helps
    primes, p = [], 2**300
    while len(primes) < 12:
        p += 1
        if is_prime_on_13_bases(p):
            primes.append(p)
    series = QSeries(QQ_DOMAIN, 24, {2 * e: QQ(1, p) for e, p in enumerate(primes)})
    residues, n_mod, at_check, check = _residues_and_check(series, _START_PRIMES)
    calls = _count_fallbacks(monkeypatch)
    assert _reconstruct(residues, n_mod, at_check, check) == series.terms
    # the first coefficient, with nothing carried, has no fallback to take
    assert len(calls) - len(residues) == len(primes) - 1


def test_a_coefficient_with_a_smaller_denominator_keeps_the_carried_one():
    # the middle coefficient's denominator 1 does not replace p^20, so
    # (p + 1)^3 / p^22, whose plain residue needs 533 bits of N, is found
    # at 488 as (p + 1)^3 / p^2 over the carried p^20
    p = 2**20 + 7
    series = QSeries(QQ_DOMAIN, 4, {0: QQ(1, p**20), 2: QQ(1), 4: QQ((p + 1) ** 3, p**22)})
    residues, n_mod, at_check, check = _residues_and_check(series, 8)
    assert rational_reconstruct(residues[4], n_mod) != series.terms[4]
    assert _reconstruct(residues, n_mod, at_check, check) == series.terms


# -- the first modulus of the closed routes ------------------------------------------


def _needed_bits(series) -> int:
    """The bits of N past which _reconstruct rebuilds every coefficient of
    an exact series: 2^33 |a| b < N for the carried value a/b = D x, D the
    largest denominator before x, or for x = a/b itself."""
    need, carried = 0, 1
    for _, x in sorted(series.terms.items()):
        held = [x * carried, x]
        need = max(need, min(abs(y.numerator).bit_length() + y.denominator.bit_length()
                             for y in held) + _QUOTIENT_BITS + 1)
        carried = max(carried, x.denominator)
    return need


SIZED_HEIGHTS = {
    "low": (S4, S94, S2516),
    "bench": (QQ(53, 37) ** 2, QQ(59, 41) ** 2, QQ(61, 43) ** 2),
    "high": (QQ(307, 293) ** 2, QQ(311, 283) ** 2, QQ(313, 277) ** 2),
    # each numerator a later denominator: the shared primes cancel
    "shared": (QQ(7, 5) ** 2, QQ(11, 7) ** 2, QQ(13, 11) ** 2),
}
SIZED_CALLS = [
    (t, n, order)
    for n in (1, 2, 3)
    for t, order in [(t, order) for t in range(2, 8) for order in (2, 10, 25, 40)]
    + [(order + 1, order) for order in (3, 8, 14)]
]


@pytest.mark.parametrize("height", SIZED_HEIGHTS)
def test_the_first_modulus_of_a_closed_call_fits_its_output(monkeypatch, height):
    # one run per call, modulo no more primes than 1.5 times the bits the
    # output needs would fill
    runs = []

    def counted(run, m, primes, pool):
        runs.append(len(primes) - 1)  # less the check prime
        return _run_over(run, m, primes, pool)

    monkeypatch.setattr(modular, "_run_over", counted)
    for t, n, order in SIZED_CALLS:
        runs.clear()
        exact = closed_Ft(t, SIZED_HEIGHTS[height][:n], QQ(5, 3), order)
        need = _needed_bits(exact)
        assert len(runs) == 1, (t, n, order, runs)
        assert runs[0] <= math.ceil(1.5 * need / PRIME_BITS), (t, n, order, runs, need)


@pytest.mark.parametrize("t", range(2, 9))
def test_the_largest_part_and_first_hook_of_the_cores(t):
    for order in range(16):
        cores = [lam for lams in enumerate_t_cores(t, order).values() for lam in lams if lam]
        assert _largest_part(t, order) == max((lam[0] for lam in cores), default=0)
        hooks = [lam[0] + len(lam) - 1 for lam in cores]
        assert _largest_first_hook(t, order) == max(hooks, default=0), order


def test_the_tall_closed_call_that_needed_two_runs_takes_one(monkeypatch):
    # its coefficients reach 537 bits, so a first N of ten primes fell short
    runs = []

    def counted(run, m, primes, pool):
        runs.append(len(primes))
        return _run_over(run, m, primes, pool)

    monkeypatch.setattr(modular, "_run_over", counted)
    closed_Ft(3, SIZED_HEIGHTS["bench"], QQ(5, 3), 20)
    assert len(runs) == 1


# -- bad primes and irrational outputs ------------------------------------------------


def test_batched_inverses_are_the_inverses():
    mod = Modulus(4, prime_pool(4, 3))
    values = [1, 2, 3, mod.n - 1, 10**40 + 7, -5]
    assert mod.inverses(values) == [pow(v, -1, mod.n) for v in values]
    assert mod.inverses([]) == []


def test_batched_inverses_name_a_bad_prime():
    p, q, r = prime_pool(4, 3)
    mod = Modulus(4, (p, q, r))
    with pytest.raises(NotInvertible) as bad:
        mod.inverses([3, 7 * q, 11])
    assert bad.value.factor == q
    with pytest.raises(ZeroDivisionError):
        mod.inverses([3, mod.n])


def test_a_bad_prime_is_swapped_out():
    m = 4
    first = prime_pool(m, 1)[0]

    rings = []

    def run(dom):
        rings.append(dom)
        return QSeries(dom, 0, {0: dom.coerce(QQ(1, first))})

    pool = _Pool(m)
    primes = pool.take(3)
    _run_over(int_run(run), m, primes, pool)
    assert first not in primes and len(primes) == 3
    assert rings[-1].mod.primes == tuple(primes)


def test_a_denominator_divisible_by_every_prime_of_n_is_not_a_zero():
    # 1/D with D the product of the first 11 pool primes: the first run
    # finds every prime bad, and the lift carries on with new ones
    d = math.prod(prime_pool(4, 11))

    def run(dom):
        return QSeries(dom, 0, {0: dom.coerce(QQ(1, d))})

    assert rational_lift(int_run(run), 4) == QSeries(QQ_DOMAIN, 0, {0: QQ(1, d)})


def test_s_value_with_a_pool_prime_denominator_matches_the_exact_engine():
    # the first pool prime divides a denominator, so the first run drops it
    t = 2
    p = prime_pool(2 * t, 1)[0]
    s_values = (QQ(p + 1, p) ** 2, S4)
    svals = s_vector(s_values)
    exact = determinant_oracle.closed_series(CycloDomain(2 * t), t, svals, 3, False, Q2=QQ(5, 3))
    exact = rational_series(exact)
    for got in (closed_Ft(t, s_values, QQ(5, 3), 3), closed_Ft_r(t, s_values, 1, 3)):
        assert got == exact and repr(got) == repr(exact)


def test_lift_of_an_irrational_series_raises_after_one_embedding_sweep():
    # vartheta at xi_8 has coefficients in Q(zeta_8), not in Q
    runs = []

    def run(dom):
        runs.append(dom)
        return vartheta(ThetaArg.scaled_root(QQ(1), t=4, e=1, dom=dom), 6)

    with pytest.raises(ValueError, match="not rational"):
        rational_lift(int_run(run), 8)
    assert len(runs) <= 4  # the first run and at most one per embedding k = 3, 5, 7


@pytest.mark.parametrize(("m", "generators"), [(81, [2]), (24, [5, 7, 13]), (8, [3, 5])])
def test_the_rational_check_runs_one_embedding_per_generator(monkeypatch, m, generators):
    # 3^700 + 2 needs more than the first _START_PRIMES primes, so the lift
    # checks the embeddings once: a least-first generating set of (Z/m)^x,
    # not all phi(m) - 1 units other than 1
    x = QQ(1, 3**700 + 2)
    embeddings = []

    class Counted(Modulus):
        def __init__(self, m, primes, k=1):
            super().__init__(m, primes, k)
            if k != 1:
                embeddings.append(k)

    def run(dom):
        return QSeries(dom, 2, {0: dom.coerce(x), 2: dom.one})

    monkeypatch.setattr(modular, "Modulus", Counted)
    assert rational_lift(int_run(run), m) == QSeries(QQ_DOMAIN, 2, {0: x, 2: QQ(1)})
    assert embeddings == generators


def test_a_value_fixed_by_the_first_generator_is_refused_by_the_second():
    # zeta_8 + zeta_8^3 = i sqrt(2) is fixed by zeta -> zeta^3, not by zeta^5
    def run(dom):
        return QSeries(dom, 2, {0: dom.root(8, 1) + dom.root(8, 3)})

    with pytest.raises(ValueError, match="zeta8 -> w and zeta8 -> w\\^5 disagree"):
        rational_lift(int_run(run), 8)


def test_lift_of_a_real_irrational_constant_raises():
    # zeta_8 + zeta_8^-1 = sqrt(2) is fixed by conjugation, not by zeta -> zeta^3
    def run(dom):
        return QSeries(dom, 2, {0: dom.root(8, 1) + dom.root(8, 7)})

    with pytest.raises(ValueError, match="not rational"):
        rational_lift(int_run(run), 8)


@pytest.mark.parametrize("exp2,text", [(3, "3/2"), (-1, "-1/2"), (4, "2")])
def test_the_not_rational_error_prints_its_exponent_as_a_fraction(exp2, text):
    def run(dom):
        return QSeries(dom, 4, {exp2: dom.root(8, 1) + dom.root(8, 7)})

    with pytest.raises(ValueError) as err:
        rational_lift(int_run(run), 8)
    assert str(err.value) == (
        f"the coefficient of Q^{text} is not rational: the embeddings "
        "zeta8 -> w and zeta8 -> w^3 disagree at the check prime"
    )


def test_a_true_zero_denominator_stays_a_zero_division():
    def run(dom):
        return QSeries(dom, 0, {0: dom.one / (dom.root(4, 1) * dom.root(4, 1) + dom.one)})

    with pytest.raises(ZeroDivisionError):
        rational_lift(int_run(run), 4)


# -- the closed routes against the exact engine ------------------------------------------
#
# closed_Ft and closed_Ft_r evaluate one product sum, so they agree by
# construction, and a test that compares them checks nothing.  These tests
# compare both with the literal determinant formula of tests/determinant_oracle.py,
# whose parameter Q2 or marked subset r the product form no longer sees; the
# independent checks of the closed formula itself are brute_force_Ft (in
# test_npoint.py) and the quadrature of tcore.contour.


CASES = [
    (t, n, route, param, all_tuples)
    for t in (2, 3, 4)
    for n in (1, 2, 3)
    for route, params in (
        ("closed_Ft", (QQ(5, 3), QQ(7, 2), QQ(-2, 9))),
        ("closed_Ft_r", (1, 2)),
    )
    for param in params
    for all_tuples in (False, True)
    if route == "closed_Ft" or param < n
]


def case_id(t, n, route, param, all_tuples):
    # the first parameter of each route, Q2 = 5/3 or r = 1, goes unnamed
    named = "" if param in (QQ(5, 3), 1) else f" {'Q2' if route == 'closed_Ft' else 'r'}={param}"
    return f"{route} t={t} n={n}{named}{' all' if all_tuples else ''}"


@pytest.mark.parametrize(
    "t,n,route,param,all_tuples", CASES,
    ids=[case_id(*case) for case in CASES],
)
def test_closed_routes_equal_the_exact_engine(t, n, route, param, all_tuples):
    s_values = (S4, S94, S2516)[:n]
    order = 3
    if route == "closed_Ft":
        kwargs = dict(Q2=param)
        got = closed_Ft(t, s_values, param, order)
    else:
        kwargs = dict(r=param)
        got = closed_Ft_r(t, s_values, param, order)
    exact = determinant_oracle.closed_series(
        CycloDomain(2 * t), t, s_vector(s_values), order, all_tuples, **kwargs
    )
    exact = rational_series(exact)
    assert got == exact
    assert repr(got) == repr(exact)


def test_closed_routes_equal_the_lifted_engine_at_four_points():
    s_values = (S4, S94, S2516, QQ(49, 36))
    exact = determinant_oracle.lifted(5, s_values, 4, Q2=QQ(5, 3))
    assert closed_Ft(5, s_values, QQ(5, 3), 4) == exact
    assert closed_Ft_r(5, s_values, 2, 4) == exact
