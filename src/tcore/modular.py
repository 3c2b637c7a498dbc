"""Rational outputs of cyclotomic computations, rebuilt from residues mod primes.

Every coefficient the closed routes produce is rational, although their
theta sum runs in Q(zeta_m).  A prime p = 1 (mod m) has a primitive
m-th root of unity w_p, and zeta_m -> w_p maps that arithmetic into Z/p.
``rational_lift`` runs a computation once over Z/N, where N is the product
of 61-bit primes p = 1 (mod m) and of one check prime p', with zeta_m
mapped to the root w that the Chinese remainder theorem builds from the w_p.

The primes come from a pool per step S: the largest primes p = 1 (mod S)
below 2^61, walked downwards and found as they are asked for.  Every
conductor m that divides U = 105 2^32, which holds for the conductor m = t
of the closed routes with t <= 8, for 2t and for 24, shares the pool of
step U; any other m takes the pool of step
S = m 2^e >= 2^32, shared by the conductors with m's odd part.  Since
S > sqrt(p), Pocklington's theorem proves each pool prime with a small
base a (Brillhart, Lehmer and Selfridge, Math. Comp. 29, 1975), and the
same a gives w_p = a^((p-1)/m) with one more pow.  The first primes of U's
pool are tabulated with their bases, so a process proves them with four
pows each and walks no candidate.

A product of residues is one integer product and remainder, where the same
product in Q(zeta_m) multiplies polynomials with ``Fraction`` coefficients.
A run works on plain ints: a Modulus holds N, the powers of w and the
inverses mod N, and the run reduces each sum mod N once and returns its
coefficients as ints (tcore.npoint._closed_sum).  The tests wrap a Modulus
as a coefficient domain (tests/residue_ring.py), so that their series code
runs modulo N as well.

Each coefficient is then rebuilt from its residue mod N by rational
reconstruction (Wang 1981): the unique a/b with |a|, b <= sqrt(N/2) and
a = b * residue (mod N), if there is one.  Neighbouring coefficients share
most of their denominators, so each is first tried as residue * D with D
the denominator of the coefficient before it: the a/b with b <= 2^64 takes
a few Euclid steps, and a/(bD) is kept if it passes the check below; only
otherwise does the balanced reconstruction run.  The result is checked at
p', which the reconstruction never saw: a wrongly rebuilt coefficient
passes with probability about 1/p', that is 2^-61 per coefficient.  A
failed check has one of two causes:

* N is too small for the heights of the coefficients.  N then grows by new
  primes, and the residues already known are kept and combined by CRT.
* The output is not rational.  An irrational value is moved by some
  generator of (Z/m)^x, so the computation is rerun at p' under zeta_m -> w^k
  for each k of a least-first generating set; a disagreement is a ValueError.

A prime that divides a number the computation must invert (the denominator
of an input, or a value that vanishes at that prime only) shows up as a
residue that is not invertible mod N.  An inverse is one pow(v, -1, N); when
that fails, gcd(v, N) names the primes where v vanishes, and each is
dropped for the next prime of the pool before the computation reruns.
A computed residue that vanishes modulo all of N is taken for a true zero
and behaves as zero does in the exact field; the denominator of an input,
which is never zero, makes every prime of N bad instead.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._rat import QQ, rat_str
from .qseries import QQ_DOMAIN, QSeries

PRIME_BITS = 61

# The first attempt packs this many primes into N.  A coefficient whose
# numerator and denominator have at most h bits needs N > 2^(2h + 1), so ten
# primes (610 bits) cover h <= 304: the closed routes through order 16 at
# s-values of two-digit height stay below 270 bits.  With the series kernels
# the products of residues, not the interpreter, set the cost of a run: over
# the benchmark's five closed calls (Python 3.11, one Xeon core), a run modulo
# these ten primes and the check prime takes 2 to 2.5 times a run modulo one
# prime, over 21 primes about 4.5 times and over 41 about 13 times.  A first
# attempt that is too small therefore costs more than its own run.  Finding
# the primes does not weigh in: the first primes of the shared pool are
# tabulated (_SHARED_POOL) and proved with four pow calls each, about 0.05 ms
# a prime, so the run alone sizes the first attempt.
_START_PRIMES = 10

# A pool steps by S >= 2^_STEP_BITS, which exceeds sqrt(p) for every
# PRIME_BITS-bit p, as Pocklington's theorem needs: S = _SHARED_STEP for every
# conductor that divides it, S = m 2^e for any other conductor m.
_STEP_BITS = 32
_SHARED_STEP = 105 * 2**32

# The largest primes p = 1 (mod _SHARED_STEP) below 2^PRIME_BITS, largest
# first, each with the base that proves it: what the search of _Progression
# finds, stored so that no process walks candidates for them.  Each is still
# proved in process before use.  tests/test_modular.py re-derives the table.
_SHARED_POOL = (
    (2305841969831608321, 17), (2305837460115947521, 19), (2305836107201249281, 11),
    (2305830244570890241, 11), (2305829342627758081, 11), (2305823479997399041, 23),
    (2305818519310172161, 19), (2305816715423907841, 23), (2305816264452341761, 17),
    (2305815813480775681, 11), (2305812656679813121, 29), (2305811303765114881, 59),
    (2305808597935718401, 13), (2305803637248491521, 19), (2305798676561264641, 59),
    (2305797323646566401, 19), (2305786951300546561, 17), (2305779735755489281, 13),
    (2305770265352601601, 13), (2305767108551639041, 17), (2305761696892846081, 11),
    (2305760343978147841, 13), (2305752226489958401, 17), (2305748618717429761, 17),
    (2305745912888033281, 11), (2305734187627315201, 29), (2305733285684183041, 13),
    (2305726521110691841, 11), (2305726070139125761, 11), (2305720658480332801, 97),
    (2305720207508766721, 47), (2305717952650936321, 29), (2305711639049011201, 11),
    (2305707129333350401, 11), (2305703070589255681, 13), (2305701717674557441, 13),
    (2305699462816727041, 79), (2305696306015764481, 11), (2305693600186368001, 17),
    (2305692698243235841, 17), (2305684129783480321, 19), (2305679620067819521, 13),
    (2305678718124687361, 17), (2305657071489515521, 13), (2305656620517949441, 17),
    (2305648954001326081, 13), (2305646248171929601, 43), (2305639032626872321, 13),
    (2305632268053381121, 23), (2305629111252418561, 43), (2305627307366154241, 31),
    (2305626856394588161, 11), (2305622797650493441, 37), (2305619189877964801, 53),
    (2305616484048568321, 13), (2305611974332907521, 11), (2305611523361341441, 19),
    (2305594386441830401, 13), (2305582661181112321, 29), (2305578602437017601, 19),
    (2305574543692922881, 13), (2305570484948828161, 23), (2305565073290035201, 59),
    (2305564622318469121, 41),
)


def _primes_below(bound: int) -> list[int]:
    """The primes below ``bound``, by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (bound - 2)
    for q in range(2, math.isqrt(bound - 1) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, bound, q)))
    return [q for q in range(bound) if sieve[q]]


# Candidates with a prime factor below 256 are dropped by one gcd each; the
# rest are tested with the prime bases below 100 in turn.
_SIEVE = math.prod(_primes_below(256))
_BASES = tuple(_primes_below(100))


@lru_cache(maxsize=64)
def _odd_prime_factors(m: int) -> tuple[int, ...]:
    """The odd primes dividing m, by trial division."""
    out, q = [], 3
    while m % 2 == 0:
        m //= 2
    while q * q <= m:
        if m % q == 0:
            out.append(q)
            while m % q == 0:
                m //= q
        q += 2
    return tuple(out + [m] if m > 1 else out)


def _witness(p: int, bases, odd: tuple[int, ...]):
    """A base a that proves p prime, or None if p is composite or no base of
    ``bases`` decides.

    p - 1 is a multiple of the pool's step S > sqrt(p), whose odd primes are
    ``odd``.  By Pocklington's theorem (in the form of Brillhart, Lehmer
    and Selfridge, Math. Comp. 29, 1975), p is prime if a^((p-1)/2) = -1 and
    a^((p-1)/q) - 1 is prime to p for each q in ``odd``.  The same a has order
    divisible by every prime power of S, so a^((p-1)/m) is a primitive m-th
    root of unity for each m | S.  For a prime p, a^((p-1)/2) is +-1 (Euler),
    so any other value proves p composite, and +1 or a^((p-1)/q) = 1 only
    sends the search to the next base.
    """
    for a in bases:
        x = pow(a, (p - 1) // 2, p)
        if x == 1:
            continue
        if x != p - 1:
            return None
        for q in odd:
            y = pow(a, (p - 1) // q, p)
            if y == 1:
                break
            if math.gcd(y - 1, p) != 1:
                return None
        else:
            return a
    return None


class _Progression:
    """The pool of one step S: the primes p = 1 (mod S) with PRIME_BITS bits,
    largest first, each with its witness, found as they are asked for."""

    def __init__(self, step: int):
        self.step = step
        # once 8 | S, which holds for every m < 2^29, quadratic reciprocity
        # makes a prime a | S a square mod every p = 1 (mod S): never a witness
        self.bases = tuple(a for a in _BASES if step % a)
        self.known = _SHARED_POOL if step == _SHARED_STEP else ()
        self.primes: list[int] = []
        self.witness: dict[int, int] = {}
        self._next = (2**PRIME_BITS - 2) // step * step + 1

    def extend(self, m: int, count: int) -> None:
        """Walk on until the pool holds ``count`` primes; m names the pool.

        The known primes come first, each proved again by its stored base;
        the walk goes on below the last of them.
        """
        low, step = 1 << (PRIME_BITS - 1), self.step
        odd = _odd_prime_factors(step)
        while len(self.primes) < count:
            if len(self.primes) < len(self.known):
                p, a = self.known[len(self.primes)]
                if _witness(p, (a,), odd) != a:
                    raise ArithmeticError(f"the stored base {a} does not prove {p} prime")
            else:
                p = self._next
                # even if every candidate left were prime, there would be too few
                if len(self.primes) + (p - low) // step + 1 < count:
                    raise ValueError(
                        f"the pool of conductor {m} holds fewer than {count} primes: "
                        f"they must be 1 mod {step} and have {PRIME_BITS} bits"
                    )
                a = _witness(p, self.bases, odd) if math.gcd(p, _SIEVE) == 1 else None
            self._next = p - step
            if a is not None:
                self.primes.append(p)
                self.witness[p] = a


_PROGRESSIONS: dict[int, _Progression] = {}


def _progression(m: int) -> _Progression:
    """The pool of conductor m: that of _SHARED_STEP if m divides it, else
    the one that m shares with every conductor of its odd part."""
    if m < 1:
        raise ValueError(f"the conductor must be a positive integer, got {m}")
    step = m
    if _SHARED_STEP % m == 0:
        step = _SHARED_STEP
    while step < 1 << _STEP_BITS:
        step *= 2
    if step not in _PROGRESSIONS:
        _PROGRESSIONS[step] = _Progression(step)
    return _PROGRESSIONS[step]


def prime_pool(m: int, count: int) -> tuple[int, ...]:
    """The ``count`` largest proven primes p = 1 (mod S) below 2^PRIME_BITS,
    largest first, for the step S of m's pool (see _progression): 105 2^32
    if m divides it, else m 2^e >= 2^32.  The first len(_SHARED_POOL) primes of
    the shared pool are read from the table and proved, not searched for.

    ValueError, naming m, if the progression holds fewer than ``count``
    primes of PRIME_BITS bits.
    """
    pool = _progression(m)
    pool.extend(m, count)
    return tuple(pool.primes[:count])


def _root_of_unity(m: int, p: int) -> int:
    """The primitive m-th root of unity a^((p-1)/m) modulo a pool prime p of
    m, from the witness a that proved p prime."""
    a = _progression(m).witness.get(p)
    if a is None:
        raise ValueError(f"{p} is not a prime of the pool of conductor {m}")
    return pow(a, (p - 1) // m, p)


@lru_cache(maxsize=64)
def _root_powers(m: int, primes: tuple[int, ...], k: int) -> tuple[int, ...]:
    """w^e mod N for e < m, where N is the product of ``primes`` and w is the
    root of unity whose residue mod each p is _root_of_unity(m, p)^k."""
    n = math.prod(primes)
    omega = crt([pow(_root_of_unity(m, p), k, p) for p in primes], primes)
    powers = [1 % n]
    for _ in range(m - 1):
        powers.append(powers[-1] * omega % n)
    return tuple(powers)


def crt(residues, moduli) -> int:
    """The x mod prod(moduli) with x = r (mod q) for each pair; moduli coprime."""
    x, n = 0, 1
    for r, q in zip(residues, moduli):
        x += n * ((r - x) * pow(n, -1, q) % q)
        n *= q
    return x


class NotInvertible(ArithmeticError):
    """A residue vanishes modulo the primes whose product is ``factor``, not all."""

    def __init__(self, factor: int):
        super().__init__("residue not invertible: it vanishes modulo some of the primes")
        self.factor = factor


class Modulus:
    """N, the product of ``primes``, each = 1 (mod m), with zeta_m -> w^k.

    w is the primitive m-th root of unity mod N whose residue mod each prime p
    is the root _root_of_unity(m, p); k must be coprime to m.  ``roots[e]`` is
    w^e mod N for e < m.
    """

    def __init__(self, m: int, primes, k: int = 1):
        if math.gcd(k, m) != 1:
            raise ValueError(f"{k} is not coprime to {m}")
        self.m = m
        self.primes = tuple(primes)
        self.n = math.prod(self.primes)
        self.roots = _root_powers(m, self.primes, k)

    def invert(self, v: int) -> int:
        """1/v mod N.

        N is squarefree, so gcd(v, N) is the product of the primes at which v
        vanishes: NotInvertible names it, unless it is N, which is a
        ZeroDivisionError.
        """
        try:
            return pow(v, -1, self.n)
        except ValueError:
            bad = math.gcd(v, self.n)
            if bad == self.n:
                raise ZeroDivisionError("inverse of a zero residue") from None
            raise NotInvertible(bad) from None

    def inverses(self, values) -> list[int]:
        """1/v mod N for each int v, by one inverse of their product.

        Prefix products and one pow give every inverse with three products
        each (Montgomery's trick).  A product that is not invertible is
        inverted value by value, so that ``invert`` names the primes where a
        value vanishes.
        """
        n = self.n
        values = [v % n for v in values]
        prefix = [1]
        for v in values:
            prefix.append(prefix[-1] * v % n)
        try:
            inverse = pow(prefix[-1], -1, n)
        except ValueError:
            return [self.invert(v) for v in values]
        out = [0] * len(values)
        for i in range(len(values) - 1, -1, -1):
            out[i] = inverse * prefix[i] % n
            inverse = inverse * values[i] % n
        return out


def rational_reconstruct(r: int, n: int, den_bound: int | None = None):
    """The rational a/b with a = b*r (mod n), 0 < b <= B and |a| <= n/(2B),
    or None.

    B is ``den_bound``; by default both bounds are sqrt(n/2).  Such an a/b is
    unique when it exists, and the half-extended Euclidean algorithm on
    (n, r), stopped at the first remainder within the numerator bound, finds
    it (Wang 1981).  A small B stops it after a few steps.
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


class _Pool:
    """Hands out the primes of prime_pool(m, .) in order, each once."""

    def __init__(self, m: int):
        self.m = m
        self.used = 0

    def take(self, count: int) -> list[int]:
        out = list(prime_pool(self.m, self.used + count)[self.used:])
        self.used += count
        return out


def _run_over(run, m: int, primes: list[int], pool: _Pool) -> tuple[int, dict]:
    """run(Modulus(m, primes)), with the primes found bad swapped out.

    ``primes`` is updated in place, so that it names the primes of the result.
    """
    while True:
        try:
            return run(Modulus(m, primes))
        except NotInvertible as bad:
            kept = [p for p in primes if bad.factor % p]
            primes[:] = kept + pool.take(len(primes) - len(kept))


def _residues(terms: dict, n: int) -> dict[int, int]:
    """The coefficients of a run, reduced mod n | N."""
    return {e: v % n for e, v in terms.items()}


def _image(x, p: int):
    """A rational as a residue mod the prime p, or None if p divides its denominator."""
    if x.denominator % p == 0:
        return None
    return x.numerator * pow(x.denominator, -1, p) % p


# the denominator bound of the carried try in _reconstruct: its Euclidean
# algorithm stops once the remainders have lost about 65 bits of N, where the
# balanced reconstruction goes through half of N's bits
_CARRIED_BOUND = 2**64


def _reconstruct(residues: dict, modulus: int, at_check: dict, check: int):
    """Each coefficient rebuilt from its residue mod ``modulus`` and confirmed
    at the prime ``check``, or None if one of them fails.

    The coefficients go by increasing exponent, carrying the last nonzero
    one's denominator D: a/b = D * residue with b <= _CARRIED_BOUND, and
    a/(bD) is kept if the check prime agrees.  Else the balanced
    reconstruction decides.
    """
    out, carried = {}, 1
    for e in sorted(residues.keys() | at_check.keys()):
        r, seen = residues.get(e, 0), at_check.get(e, 0)
        value = rational_reconstruct(r * carried % modulus, modulus, _CARRIED_BOUND)
        if value is not None:
            value /= carried
        if value is None or _image(value, check) != seen:
            value = rational_reconstruct(r, modulus)
            if value is None or _image(value, check) != seen:
                return None
        if value:
            carried = value.denominator
        out[e] = value
    return out


def rational_lift(run, m: int) -> QSeries:
    """The rational series that ``run`` computes in Q(zeta_m), over Q.

    ``run(mod)`` evaluates one computation modulo a Modulus, with zeta_m
    mapped to the root w of ``mod.roots``, and returns ``(trunc2, terms)``:
    the doubled truncation order and a dict from doubled exponents to the
    coefficients as ints mod N.  Every coefficient of the exact result must
    be rational, else ValueError; the result is a series over QQ_DOMAIN,
    equal to the same computation over CycloDomain(m) pushed down to Q.
    A wrong coefficient passes the check prime with probability about 2^-61.
    """
    pool = _Pool(m)
    primes = pool.take(_START_PRIMES + 1)
    trunc2, terms = _run_over(run, m, primes, pool)
    check = primes.pop()
    at_check = _residues(terms, check)
    modulus = math.prod(primes)
    residues = _residues(terms, modulus)
    rational = False
    while True:
        lifted = _reconstruct(residues, modulus, at_check, check)
        if lifted is not None:
            return QSeries(QQ_DOMAIN, trunc2, lifted)
        if not rational:
            _check_rational(run, m, check, at_check)
            rational = True
        # N is too small: run modulo as many new primes again and combine
        more = pool.take(len(primes))
        extra_trunc2, extra = _run_over(run, m, more, pool)
        if extra_trunc2 != trunc2:
            raise ArithmeticError("the truncation order differs between moduli")
        extra_mod = math.prod(more)
        extra_res = _residues(extra, extra_mod)
        residues = {
            e: crt((residues.get(e, 0), extra_res.get(e, 0)), (modulus, extra_mod))
            for e in residues.keys() | extra_res.keys()
        }
        primes += more
        modulus *= extra_mod


def _check_rational(run, m: int, check: int, at_check: dict) -> None:
    """ValueError unless every embedding zeta_m -> w^k agrees at the check prime.

    A rational coefficient is fixed by every automorphism zeta_m -> zeta_m^k;
    one that is not rational is moved by some generator of (Z/m)^x, and so
    differs from that conjugate mod the check prime, except with probability
    about 1/check.  So the embeddings checked are a generating set, taken
    least first: each unit k that the units checked so far do not generate.
    """
    generated = {1}
    for k in range(2, m):
        if k in generated or math.gcd(k, m) != 1:
            continue
        try:
            other = _residues(run(Modulus(m, [check], k))[1], check)
        except (ZeroDivisionError, NotInvertible):
            continue  # a value of this embedding vanishes at the check prime
        for e in other.keys() | at_check.keys():
            if other.get(e, 0) != at_check.get(e, 0):
                raise ValueError(
                    f"the coefficient of Q^{rat_str(QQ(e, 2))} is not rational: the embeddings "
                    f"zeta{m} -> w and zeta{m} -> w^{k} disagree at the check prime"
                )
        # the group that generated and k generate: its cosets by the powers of k
        generated = {g * pow(k, i, m) % m for g in generated for i in range(m)}
