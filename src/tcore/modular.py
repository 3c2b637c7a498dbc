"""Rational outputs of cyclotomic computations, rebuilt from residues mod primes.

Every coefficient the closed routes produce is rational, although their
theta sum runs in Q(zeta_m).  A prime p = 1 (mod m) has a primitive
m-th root of unity w_p, and zeta_m -> w_p maps that arithmetic into Z/p.
``rational_lift`` runs a computation once over Z/N, where N is the product
of 61-bit primes p = 1 (mod m) and of one check prime p', with zeta_m
mapped to the root w that the Chinese remainder theorem builds from the w_p.

The primes come from a pool per step S = m 2^e >= 2^32: the largest primes
p = 1 (mod S) below 2^61, walked downwards and found as they are asked for.
Since S > sqrt(p), Pocklington's theorem proves each one prime with a
small base a (Brillhart, Lehmer and Selfridge, Math. Comp. 29, 1975), and
the same a gives w_p = a^((p-1)/m) with one more pow.  Conductors with the
same odd part, such as 4 and 8, share one pool.

A product of residues is one integer product and remainder, where the same
product in Q(zeta_m) multiplies polynomials with ``Fraction`` coefficients.
A run works on plain ints: a Modulus holds N, the powers of w and the
inverses mod N, and the run reduces each sum mod N once and returns its
coefficients as ints (tcore.npoint._closed_sum).  The tests wrap a Modulus
as a coefficient domain (tests/residue_ring.py), so that their series code
runs modulo N as well.

Each coefficient is then rebuilt from its residue mod N by rational
reconstruction (Wang 1981): the unique a/b with |a|, b <= sqrt(N/2) and
a = b * residue (mod N), if there is one.  The result is checked at p',
which the reconstruction never saw: a wrongly rebuilt coefficient passes
with probability about 1/p', that is 2^-61 per coefficient.  A failed check
has one of two causes:

* N is too small for the heights of the coefficients.  N then grows by new
  primes, and the residues already known are kept and combined by CRT.
* The output is not rational.  A rational value is the same under every
  embedding zeta_m -> w^k, k coprime to m, so the computation is rerun at p'
  under each of them; a disagreement is a ValueError.

A prime that divides a number the computation must invert (the denominator
of an input, or a value that vanishes at that prime only) shows up as a
residue that is not invertible mod N.  An inverse is one pow(v, -1, N); when
that fails, a walk over the primes of N names those where v vanishes, and
each is dropped for the next prime of the pool before the computation reruns.
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
# the primes does not weigh in: the pool proves each with a few pow calls
# (_witness), about 0.15 ms a prime, so the run alone sizes the first attempt.
_START_PRIMES = 10

# A pool steps by S = m 2^e >= 2^_STEP_BITS, which exceeds sqrt(p) for every
# PRIME_BITS-bit p, as Pocklington's theorem needs.
_STEP_BITS = 32


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
        self.primes: list[int] = []
        self.witness: dict[int, int] = {}
        self._next = (2**PRIME_BITS - 2) // step * step + 1

    def extend(self, m: int, count: int) -> None:
        """Walk on until the pool holds ``count`` primes; m names the pool."""
        low, step = 1 << (PRIME_BITS - 1), self.step
        while len(self.primes) < count:
            p = self._next
            # even if every candidate left were prime, there would be too few
            if len(self.primes) + (p - low) // step + 1 < count:
                raise ValueError(
                    f"the pool of conductor {m} holds fewer than {count} primes: "
                    f"they must be 1 mod {step} and have {PRIME_BITS} bits"
                )
            self._next = p - step
            if math.gcd(p, _SIEVE) == 1:
                a = _witness(p, self.bases, _odd_prime_factors(step))
                if a is not None:
                    self.primes.append(p)
                    self.witness[p] = a


_PROGRESSIONS: dict[int, _Progression] = {}


def _progression(m: int) -> _Progression:
    """The pool of conductor m, shared by every conductor with m's odd part."""
    if m < 1:
        raise ValueError(f"the conductor must be a positive integer, got {m}")
    step = m
    while step < 1 << _STEP_BITS:
        step *= 2
    if step not in _PROGRESSIONS:
        _PROGRESSIONS[step] = _Progression(step)
    return _PROGRESSIONS[step]


def prime_pool(m: int, count: int) -> tuple[int, ...]:
    """The ``count`` largest proven primes p = 1 (mod S) below 2^PRIME_BITS,
    largest first, for the step S = m 2^e of m's pool (see _progression).

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

        NotInvertible names the primes at which v vanishes, unless v
        vanishes at all of them, which is a ZeroDivisionError.
        """
        try:
            return pow(v, -1, self.n)
        except ValueError:
            return self._invert_by_primes(v)

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

    def _invert_by_primes(self, v: int) -> int:
        """1/v mod N, one prime at a time, which names the primes where v vanishes."""
        inverses, bad = [], 1
        for p in self.primes:
            w = v % p
            if w:
                inverses.append(pow(w, -1, p))
            else:
                inverses.append(0)
                bad *= p
        if bad == 1:
            return crt(inverses, self.primes)
        if bad == self.n:
            raise ZeroDivisionError("inverse of a zero residue")
        raise NotInvertible(bad)


def rational_reconstruct(r: int, n: int):
    """The rational a/b with a = b*r (mod n) and |a|, b <= sqrt(n/2), or None.

    Such an a/b is unique when it exists; the half-extended Euclidean
    algorithm on (n, r) finds it (Wang 1981).
    """
    bound = math.isqrt(n // 2)
    r0, r1 = n, r % n
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
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


def _reconstruct(residues: dict, modulus: int, at_check: dict, check: int):
    """Each coefficient rebuilt from its residue mod ``modulus`` and confirmed
    at the prime ``check``, or None if one of them fails."""
    out = {}
    for e in residues.keys() | at_check.keys():
        value = rational_reconstruct(residues.get(e, 0), modulus)
        if value is None or _image(value, check) != at_check.get(e, 0):
            return None
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
    one that is not rational differs from one of its conjugates, and so mod
    the check prime, except with probability about 1/check.
    """
    for k in range(2, m):
        if math.gcd(k, m) != 1:
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
