"""Exact rational scalars with a fast backend when available.

gmpy2's mpq is a drop-in replacement for fractions.Fraction in everything this
package needs (operators, .numerator/.denominator, hashing, comparisons) and
is roughly an order of magnitude faster on the small rationals that dominate
truncated-series arithmetic.  The backend choice is pinned here once so the
rest of the package stays agnostic.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as QQ

    _BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as QQ

    _BACKEND = "fractions"


def rat(p, q=1):
    """Exact rational p/q from integers (or another rational)."""
    return QQ(p, q)


RAT_ZERO = rat(0)
RAT_ONE = rat(1)

_RAT_TYPES = (int, type(RAT_ZERO))


def is_rational(x) -> bool:
    """True for plain ints and backend rationals (the exact scalar base)."""
    return isinstance(x, _RAT_TYPES)


def rat_str(x) -> str:
    """Lossless text form: "p" for integers, "p/q" otherwise."""
    x = QQ(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(text: str):
    """Inverse of rat_str; accepts "p" and "p/q"."""
    num, sep, den = text.partition("/")
    if sep:
        return QQ(int(num), int(den))
    return QQ(int(num))


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
