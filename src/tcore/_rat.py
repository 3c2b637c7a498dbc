"""Exact rational scalars: fractions.Fraction, pinned here once as QQ so
that the rest of the package names one rational type; and Scalar, the ring
plumbing of the package's other scalars."""

from __future__ import annotations

from fractions import Fraction as QQ


def rat(p, q=1):
    """Exact rational p/q from integers (or another rational)."""
    return QQ(p, q)


RAT_ZERO = rat(0)
RAT_ONE = rat(1)

def is_rational(x) -> bool:
    """True for plain ints and Fractions (the exact scalar base)."""
    return isinstance(x, (int, QQ))


def rat_str(x) -> str:
    """Lossless text form: "p" for integers, "p/q" otherwise."""
    x = QQ(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(text: str):
    """Inverse of rat_str; accepts "p" and "p/q" with q nonzero, and raises
    ValueError on anything else."""
    num, sep, den = text.partition("/")
    if not sep:
        return QQ(int(num))
    if int(den) == 0:
        raise ValueError(f"{text!r} has a zero denominator")
    return QQ(int(num), int(den))


def rat_pow(x, e: int):
    """x**e for rational x and possibly negative integer e."""
    if e >= 0:
        return QQ(x) ** e
    base = QQ(x)
    if base == 0:
        raise ZeroDivisionError("0 cannot be raised to a negative power")
    return (RAT_ONE / base) ** (-e)


def power(base, n: int, one):
    """base**n for an integer n >= 0 by square-and-multiply, starting from one.

    The one square-and-multiply of the package: series and field elements
    serve their ``__pow__`` from it.
    """
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


class Scalar:
    """The ring plumbing of the scalars Cyclo, SqrtExt and TaylorZ:
    immutability, coercion, subtraction, division, the reflected operations
    and integer powers.

    A subclass says what is its own: ``_home``, the ring an element lies in
    (a conductor, a radicand, a domain), ``_KIND``, the name of that home in
    a mismatch error, and ``_lift(x)``, x of another type as an element of
    the home of self, or None if it is none; beside them ``__add__``,
    ``__neg__``, ``__mul__``, ``inverse``, equality, hashing and repr.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} elements are immutable")

    def _coerce(self, other):
        """other in the home of self, or None if it is not a scalar of that ring."""
        if type(other) is type(self):
            if other._home != self._home:
                raise ValueError(f"{self._KIND} mismatch: {self._home} vs {other._home}")
            return other
        return self._lift(other)

    def __radd__(self, other):
        return self.__add__(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __truediv__(self, other):
        if is_rational(other):
            return self * (RAT_ONE / QQ(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        return power(self if e >= 0 else self.inverse(), abs(e), self._lift(1))


def rational_sqrt(x):
    """Exact square root of a nonnegative rational, or None if irrational."""
    from math import isqrt

    x = QQ(x)
    if x < 0:
        return None
    p, q = int(x.numerator), int(x.denominator)
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        return QQ(rp, rq)
    return None
