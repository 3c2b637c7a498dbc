"""Exp, log and inverses as sums of powers: the oracles of the graded recurrences.

Each of these sums c_m u^m over the powers of a u without a constant term,
one full truncated product per power, the way the series layer computed them
before it moved to recurrences over the pieces of one degree.  Two reshapings
of a QSeries that only the tests use sit here too: Q -> Q^d, and the move
into a larger coefficient domain; and the height guard of the recurrence's
fraction-free pieces.
"""

import math

from tcore._rat import QQ
from tcore.qseries import QSeries, TaylorZ


def substituted_power(a: QSeries, d: int) -> QSeries:
    """a with Q replaced by Q^d (d >= 1)."""
    return QSeries(a.dom, a.trunc2 * d, {e * d: c for e, c in a.terms.items()})


def lift_series(a: QSeries, dom) -> QSeries:
    """Re-home a series into a larger coefficient domain."""
    return a.map_coeffs(dom.coerce, dom)


def compose(u, coeff, acc):
    """acc + sum_{m >= 1} coeff(m) * u^m, for u without a constant term.

    u is a QSeries or BiSeries of lowest degree L >= 1, or a TaylorZ.  Each
    power is formed only through the window T of u; at most T // L powers
    are nonzero (z_order of them for a TaylorZ).
    """
    if not u:
        return acc
    if isinstance(u, TaylorZ):
        window, top = None, u.dom.z_order
    else:
        window, low = u.trunc2, u._low()
        if low < 1:
            raise ValueError("the inner series needs a positive lowest degree")
        top = window // low
    p = u
    for m in range(1, top + 1):
        c = coeff(m)
        acc = acc + p.map_coeffs(lambda v: v * c)
        if m == top:
            break
        p = p * u if window is None else p._times(u, window)
        if not p:
            break
    return acc


def log_coeff(m: int):
    """(-1)^(m+1)/m, the coefficient of u^m in log(1 + u)."""
    return QQ((-1) ** (m + 1), m)


def qlog(a):
    """log of a QSeries or BiSeries with constant term 1, as sum_m log_coeff(m) (a - 1)^m."""
    return compose(a - a.dom.one, log_coeff, a._like({}))


def qexp(a):
    """exp of a QSeries or BiSeries with zero constant term, as sum_m a^m / m!."""
    return compose(a, lambda m: QQ(1, math.factorial(m)), a._unit())


def taylor_log(x: TaylorZ) -> TaylorZ:
    return compose(x - x.dom.one, log_coeff, x.dom.zero)


def bi_inverse(b):
    """1/b for a BiSeries with an invertible constant c0, as sum_m (-u)^m / c0, u = b/c0 - 1."""
    c0inv = b.dom.one / b.terms[(0, 0)]
    u = b * c0inv - b.dom.one
    return compose(u, lambda m: (-1) ** m, b._unit()) * c0inv


def bi_divide(a, b):
    return a * bi_inverse(b)


def assert_reduced(pieces: dict) -> None:
    """Each piece of qseries._graded is integers over a positive den that is
    the lcm of the denominators of its values in lowest terms, so the
    recurrence carries no factor beyond the heights of the values."""
    for d, (piece, den) in pieces.items():
        assert all(type(c) is int for c in piece.values()), d
        assert den > 0 and den == math.lcm(*(QQ(c, den).denominator for c in piece.values())), d
