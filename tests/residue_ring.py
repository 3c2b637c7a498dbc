"""Z/N as a coefficient domain, so that series code runs modulo primes.

The library's runs modulo N (tcore.npoint._closed_sum) work on plain ints
and hand rational_lift their coefficients as ints.  The oracles and tests
here run series code instead, over ResidueRing(Modulus(...)): its Residue is
a Scalar (tcore._rat), so the series loops of tcore.qseries treat it as any
other coefficient.  ``int_run`` adapts such a series run to the int contract
of rational_lift.
"""

from __future__ import annotations

from tcore._rat import QQ, Scalar, is_rational
from tcore.modular import Modulus, NotInvertible
from tcore.qseries import _Domain


class Residue(Scalar):
    """An element of the ring Z/N of a ResidueRing, held as its least
    nonnegative representative ``v``.

    Residues of one ring share the ring object, which keeps the same-ring
    test of a sum or a product an identity test.
    """

    __slots__ = ("v", "dom")
    _KIND = "domain"

    def __init__(self, v: int, dom: "ResidueRing"):
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "dom", dom)

    @property
    def _home(self):
        return self.dom

    def _lift(self, x):
        return Residue(self.dom.reduce(x), self.dom) if is_rational(x) else None

    def __add__(self, other):
        dom = self.dom
        if type(other) is Residue and other.dom is dom:
            v = self.v + other.v
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            v = self.v + o.v
        return Residue(v - dom.n if v >= dom.n else v, dom)

    def __neg__(self):
        return Residue(self.dom.n - self.v if self.v else 0, self.dom)

    def __mul__(self, other):
        dom = self.dom
        if type(other) is Residue and other.dom is dom:
            return Residue(self.v * other.v % dom.n, dom)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Residue(self.v * o.v % dom.n, dom)

    def inverse(self) -> "Residue":
        return Residue(self.dom.mod.invert(self.v), self.dom)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (ValueError, ArithmeticError):
            return False
        if o is None:
            return NotImplemented
        return self.v == o.v

    def __hash__(self):
        return hash((self.v, self.dom.n))

    def __repr__(self):
        return f"{self.v} (mod {self.dom.n})"


class ResidueRing(_Domain):
    """The ring Z/N of a Modulus, with zeta_m at the modulus's root w."""

    def __init__(self, mod: Modulus):
        self.mod = mod
        self.n = n = mod.n
        self.name = f"Z/{n}[zeta{mod.m}={mod.roots[1 % mod.m]}]"
        self.zero = Residue(0, self)
        self.one = Residue(1 % n, self)
        self._roots = tuple(Residue(w, self) for w in mod.roots)
        self._reduced: dict = {}

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
                        inverse = self.mod.invert(x.denominator)
                    except ZeroDivisionError:
                        # a denominator is never zero: every prime of N divides it
                        raise NotInvertible(self.n) from None
                    self._reduced[x] = x.numerator * inverse % self.n
                return self._reduced[x]
            x = x.numerator
        return x % self.n

    def root(self, m: int, e: int) -> Residue:
        """zeta_m^e, for m dividing the conductor of the modulus."""
        M = self.mod.m
        if M % m:
            raise ValueError(f"zeta{m} does not lie in the domain of zeta{M}")
        return self._roots[e * (M // m) % M]


def int_run(run):
    """A series run ``run(ring)`` as rational_lift reads a run: the function
    of a Modulus that returns (trunc2, {exp2: int}) of the run over its ring."""

    def over(mod: Modulus):
        series = run(ResidueRing(mod))
        return series.trunc2, {e: c.v for e, c in series.terms.items()}

    return over
