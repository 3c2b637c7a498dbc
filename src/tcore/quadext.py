"""The real quadratic extension Q(sqrt(d)) for a fixed non-square rational d.

Used by the topological-vertex layer, where principal specializations live in
Q(q^(1/2)) for a rational base q.  When q happens to be a perfect square the
callers stay in plain rationals instead (see sqrt_field), so elements here
always have an irrational radical and the representation a + b*sqrt(d) is
canonical.
"""

from __future__ import annotations

from ._rat import QQ, RAT_ONE, RAT_ZERO, Scalar, is_rational, rat_str, rational_sqrt


class SqrtExt(Scalar):
    """a + b*sqrt(d), with a, b, d rational and d not a rational square."""

    __slots__ = ("d", "a", "b")
    _KIND = "radicand"

    def __init__(self, d, a, b=RAT_ZERO):
        object.__setattr__(self, "d", QQ(d))
        object.__setattr__(self, "a", QQ(a))
        object.__setattr__(self, "b", QQ(b))

    @classmethod
    def sqrt_of_base(cls, d) -> "SqrtExt":
        return cls(d, RAT_ZERO, RAT_ONE)

    @property
    def _home(self):
        return self.d

    def _lift(self, x):
        return SqrtExt(self.d, x) if is_rational(x) else None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SqrtExt(self.d, self.a + o.a, self.b + o.b)

    def __neg__(self):
        return SqrtExt(self.d, -self.a, -self.b)

    def __mul__(self, other):
        if is_rational(other):
            return SqrtExt(self.d, self.a * other, self.b * other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SqrtExt(
            self.d,
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
        )

    def conjugate(self) -> "SqrtExt":
        return SqrtExt(self.d, self.a, -self.b)

    def norm(self):
        return self.a * self.a - self.b * self.b * self.d

    def inverse(self) -> "SqrtExt":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(sqrt(d))")
        return SqrtExt(self.d, self.a / n, -self.b / n)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        if isinstance(other, SqrtExt):
            return self.d == other.d and self.a == other.a and self.b == other.b
        if is_rational(other):
            return self.b == 0 and self.a == QQ(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.d, self.a, self.b))

    def is_rational(self) -> bool:
        return not self.b

    def rational_value(self):
        if self.b:
            raise ValueError(f"{self} is not rational")
        return self.a

    def __repr__(self):
        if not self.b:
            return rat_str(self.a)
        tail = f"sqrt({rat_str(self.d)})"
        if self.b != 1:
            tail = f"{rat_str(self.b)}*{tail}"
        if not self.a:
            return tail
        return f"{rat_str(self.a)} + {tail}".replace("+ -", "- ")


def sqrt_field(q):
    """Exact home for sqrt(q): (sqrt_value, lift) for rational q > 0.

    Returns a pair (root, lift) where root*root == lift(q) holds exactly.
    For perfect squares root is rational and lift is the identity; otherwise
    root is sqrt(q) in Q(sqrt(q)) and lift embeds rationals there.
    """
    q = QQ(q)
    if q <= 0:
        raise ValueError("base must be a positive rational")
    r = rational_sqrt(q)
    if r is not None:
        return r, lambda x: QQ(x)
    return SqrtExt.sqrt_of_base(q), lambda x: SqrtExt(q, x)
