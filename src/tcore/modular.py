"""Rational outputs of cyclotomic computations, rebuilt from residues mod primes.

Every coefficient the closed routes produce is rational, although their
determinant sum runs in Q(zeta_m).  A prime p = 1 (mod m) has a primitive
m-th root of unity w_p, and zeta_m -> w_p maps that arithmetic into Z/p.
``rational_lift`` runs a computation once over Z/N, where N is the product
of about 61-bit primes p = 1 (mod m) and of one check prime p', with zeta_m
mapped to the root w that the Chinese remainder theorem builds from the w_p.
A product of residues is one integer product and remainder, where the same
product in Q(zeta_m) multiplies polynomials with ``Fraction`` coefficients.
Series products and quotients go further: ``ModDomain.mul_terms`` and
``div_terms`` work on the plain ints of the residues, sum each output
coefficient in one Python int and reduce it mod N once, instead of building
a Residue and taking a remainder for every pair of terms.

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

from ._rat import QQ, is_rational
from .cyclo import Cyclo
from .qseries import CycloDomain, HalfExp, QSeries, _Domain

PRIME_BITS = 61

# The first attempt packs this many primes into N.  A coefficient whose
# numerator and denominator have at most h bits needs N > 2^(2h + 1), so ten
# primes (610 bits) cover h <= 304: the closed routes through order 16 at
# s-values of two-digit height stay below 270 bits.  With the series kernels
# the products of residues, not the interpreter, set the cost of a run: over
# the benchmark's five closed calls (Python 3.11, one Xeon core), a run modulo
# these ten primes and the check prime takes 2 to 2.5 times a run modulo one
# prime, over 21 primes about 4.5 times and over 41 about 13 times.  A first
# attempt that is too small therefore costs more than its own run.
_START_PRIMES = 10

# Deterministic Miller-Rabin bases for every n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
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


@lru_cache(maxsize=64)
def prime_pool(m: int, count: int) -> tuple[int, ...]:
    """The ``count`` largest primes p = 1 (mod m) below 2^PRIME_BITS, largest first."""
    primes = []
    p = (2**PRIME_BITS - 2) // m * m + 1
    while len(primes) < count:
        if _is_prime(p):
            primes.append(p)
        p -= m
    return tuple(primes)


@lru_cache(maxsize=256)
def _root_of_unity(m: int, p: int) -> int:
    """A primitive m-th root of unity modulo a prime p = 1 (mod m)."""
    factors = [q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)]
    for g in range(2, p):
        w = pow(g, (p - 1) // m, p)
        if all(pow(w, m // q, p) != 1 for q in factors):
            return w
    raise ValueError(f"{p} has no primitive {m}-th root of unity")


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


class Residue:
    """An element of the ring Z/N of a ModDomain, held as its least
    nonnegative representative ``v``.

    Residues of one domain share the domain object, which keeps the
    same-ring test of an operation an identity test.  Instances are never
    mutated.
    """

    __slots__ = ("v", "dom")

    def __init__(self, v: int, dom: "ModDomain"):
        self.v = v
        self.dom = dom

    def _value(self, other):
        """other as an int mod N, or None if it is not a scalar of the ring."""
        if type(other) is Residue:
            if other.dom != self.dom:
                raise ValueError(f"domain mismatch: {self.dom.name} vs {other.dom.name}")
            return other.v
        if is_rational(other):
            return self.dom.reduce(other)
        return None

    def __add__(self, other):
        dom = self.dom
        if type(other) is Residue and other.dom is dom:
            v = self.v + other.v
        else:
            o = self._value(other)
            if o is None:
                return NotImplemented
            v = self.v + o
        return Residue(v - dom.n if v >= dom.n else v, dom)

    __radd__ = __add__

    def __sub__(self, other):
        dom = self.dom
        if type(other) is Residue and other.dom is dom:
            v = self.v - other.v
        else:
            o = self._value(other)
            if o is None:
                return NotImplemented
            v = self.v - o
        return Residue(v + dom.n if v < 0 else v, dom)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return Residue(self.dom.n - self.v if self.v else 0, self.dom)

    def __mul__(self, other):
        dom = self.dom
        if type(other) is Residue and other.dom is dom:
            return Residue(self.v * other.v % dom.n, dom)
        o = self._value(other)
        if o is None:
            return NotImplemented
        return Residue(self.v * o % dom.n, dom)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._value(other)
        if o is None:
            return NotImplemented
        dom = self.dom
        return Residue(self.v * dom.invert(o) % dom.n, dom)

    def __rtruediv__(self, other):
        o = self._value(other)
        if o is None:
            return NotImplemented
        dom = self.dom
        return Residue(o * dom.invert(self.v) % dom.n, dom)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        try:
            o = self._value(other)
        except (ValueError, ArithmeticError):
            return False
        if o is None:
            return NotImplemented
        return self.v == o

    def __hash__(self):
        return hash((self.v, self.dom.n))

    def __repr__(self):
        return f"{self.v} (mod {self.dom.n})"


class ModDomain(_Domain):
    """Z/N for N the product of ``primes``, each = 1 (mod m), with zeta_m -> w^k.

    w is the primitive m-th root of unity mod N whose residue mod each prime p
    is the root _root_of_unity(m, p); k must be coprime to m.
    """

    def __init__(self, m: int, primes, k: int = 1):
        if math.gcd(k, m) != 1:
            raise ValueError(f"{k} is not coprime to {m}")
        self.m = m
        self.primes = tuple(primes)
        n = math.prod(self.primes)
        self.n = n
        # e_p = 1 mod p and 0 mod the other primes: x = sum_p (x mod p) e_p
        self._idempotents = tuple(
            n // p * pow(n // p, -1, p) for p in self.primes
        )
        omega = self.combine(pow(_root_of_unity(m, p), k, p) for p in self.primes)
        self.name = f"Z/{n}[zeta{m}={omega}]"
        self.zero = Residue(0, self)
        self.one = Residue(1 % n, self)
        self._roots = tuple(Residue(pow(omega, e, n), self) for e in range(m))
        self._reduced: dict = {}

    def mul_terms(self, a: dict, b: dict, t2: int) -> dict:
        """The terms through key t2 of the product of two term dicts.

        Each output coefficient is a sum of int products of the residues,
        reduced mod N once.
        """
        if not a or not b:
            return {}
        la, lb = min(a), min(b)
        base = la + lb
        size = t2 - base + 1
        if size <= 0:
            return {}
        acc = [0] * size
        right = sorted((e - lb, c.v) for e, c in b.items())
        for e, c in a.items():
            v, i = c.v, e - la
            for k, w in right:
                j = i + k
                if j >= size:
                    break
                acc[j] += v * w
        n, out = self.n, {}
        for j, v in enumerate(acc):
            if v:
                v %= n
                if v:
                    out[base + j] = Residue(v, self)
        return out

    def div_terms(self, a: dict, b: dict, vb: int, t2: int) -> dict:
        """The terms through key t2 of the quotient of two term dicts, where
        vb is the lowest key of b.

        The lowest coefficient of b is inverted once; each output coefficient
        is one remainder of its accumulated int.
        """
        n = self.n
        inverse = self.invert(b[vb].v)
        if not a:
            return {}
        va = min(a)
        base = va - vb
        size = t2 - base + 1
        if size <= 0:
            return {}
        rem = [0] * size
        for e, c in a.items():
            if e - va < size:
                rem[e - va] = c.v
        # the other terms of b, negated, keyed by their distance from vb
        rest = sorted((k - vb, n - c.v) for k, c in b.items() if k != vb)
        out = {}
        for i in range(size):
            if rem[i]:
                q = rem[i] * inverse % n
                if q:
                    out[base + i] = Residue(q, self)
                    for k, w in rest:
                        j = i + k
                        if j >= size:
                            break
                        rem[j] += q * w
        return out

    def combine(self, residues) -> int:
        """The x mod N with the given residues modulo the primes, by CRT."""
        return sum(r * e for r, e in zip(residues, self._idempotents)) % self.n

    def invert(self, v: int) -> int:
        """1/v mod N.

        NotInvertible names the primes at which v vanishes, unless v
        vanishes at all of them, which is a ZeroDivisionError.
        """
        try:
            return pow(v, -1, self.n)
        except ValueError:
            return self._invert_by_primes(v)

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
            return self.combine(inverses)
        if bad == self.n:
            raise ZeroDivisionError("inverse of a zero residue")
        raise NotInvertible(bad)

    def reduce(self, x) -> int:
        """A rational as an int mod N; its denominator must be invertible.

        The reductions of proper fractions are kept, since a run reduces the
        same few constants many times over.
        """
        if type(x) is not int:
            x = QQ(x)
            if x.denominator != 1:
                if x not in self._reduced:
                    try:
                        inverse = self.invert(x.denominator)
                    except ZeroDivisionError:
                        # a denominator is never zero: every prime of N divides it
                        raise NotInvertible(self.n) from None
                    self._reduced[x] = x.numerator * inverse % self.n
                return self._reduced[x]
            x = x.numerator
        return x % self.n

    def coerce(self, x):
        if type(x) is Residue:
            if x.dom != self:
                raise ValueError(f"domain mismatch: {x.dom.name} vs {self.name}")
            return x
        if is_rational(x):
            return Residue(self.reduce(x), self)
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def root(self, m: int, e: int) -> Residue:
        """zeta_m^e, for m dividing the conductor of the domain."""
        if self.m % m:
            raise ValueError(f"zeta{m} does not lie in the domain of zeta{self.m}")
        return self._roots[e * (self.m // m) % self.m]


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


def _run_over(run, m: int, primes: list[int], pool: _Pool) -> QSeries:
    """run(ModDomain(m, primes)), with the primes found bad swapped out.

    ``primes`` is updated in place, so that it names the primes of the result.
    """
    while True:
        try:
            return run(ModDomain(m, primes))
        except NotInvertible as bad:
            kept = [p for p in primes if bad.factor % p]
            primes[:] = kept + pool.take(len(primes) - len(kept))


def _residues(series: QSeries, n: int) -> dict[int, int]:
    """The coefficients of a series over a ModDomain, reduced mod n | N."""
    return {e: c.v % n for e, c in series.terms.items()}


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
    """The rational series that ``run`` computes in Q(zeta_m), over CycloDomain(m).

    ``run(dom)`` evaluates one computation over a coefficient domain with the
    ``root`` hook and returns a QSeries over it.  Every coefficient of the
    exact result must be rational, else ValueError; they come back as
    ``Cyclo.from_rat`` elements, as the run over CycloDomain(m) gives them.
    A wrong coefficient passes the check prime with probability about 2^-61.
    """
    pool = _Pool(m)
    primes = pool.take(_START_PRIMES + 1)
    series = _run_over(run, m, primes, pool)
    check = primes.pop()
    at_check = _residues(series, check)
    modulus = math.prod(primes)
    residues = _residues(series, modulus)
    rational = False
    while True:
        lifted = _reconstruct(residues, modulus, at_check, check)
        if lifted is not None:
            dom = CycloDomain(m)
            return QSeries(dom, series.trunc2, {e: Cyclo.from_rat(m, c) for e, c in lifted.items()})
        if not rational:
            _check_rational(run, m, check, at_check)
            rational = True
        # N is too small: run modulo as many new primes again and combine
        more = pool.take(len(primes))
        extra = _run_over(run, m, more, pool)
        if extra.trunc2 != series.trunc2:
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
            other = _residues(run(ModDomain(m, [check], k)), check)
        except (ZeroDivisionError, NotInvertible):
            continue  # a value of this embedding vanishes at the check prime
        for e in other.keys() | at_check.keys():
            if other.get(e, 0) != at_check.get(e, 0):
                raise ValueError(
                    f"the coefficient of Q^{HalfExp(e)!r} is not rational: the embeddings "
                    f"zeta{m} -> w and zeta{m} -> w^{k} disagree at the check prime"
                )
