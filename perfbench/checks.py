"""Correctness checks of the workload outputs, computed apart from the routes.

Each factory returns ``check(result, by_label) -> list[str]``: the list of
problems found (empty when the output is right).  ``by_label`` maps the
labels of the pass to their results, for checks that compare two calls.

The references are classical identities evaluated with plain ``fractions``
or complex floats, properties the method must have (reality, rationality,
symmetry, honesty under truncation, convergence), or a second route of the
program when the check is that two independent routes agree.  None of them
is a stored copy of an earlier output.

The identities at order 300 multiply long series whose coefficients run to
thousands of bits, so they are compared modulo the prime 2^61 - 1: a wrong
coefficient survives the reduction with probability about 2^-61.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

PRIME = 2**61 - 1


def _mod(x) -> int:
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, PRIME) % PRIME


def _coeffs(series, order: int) -> list:
    """Integer-power coefficients through Q^order of a tcore QSeries."""
    if series.trunc2 < 2 * order:
        raise ValueError(f"known only through Q^{series.trunc2 / 2}, wanted Q^{order}")
    if any(e % 2 for e in series.terms):
        raise ValueError("unexpected half-integer power of Q")
    return [series.coeff2(2 * k) for k in range(order + 1)]


def _mod_mul(a: list, b: list, n: int) -> list:
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i]):
                out[i + j] += x * y
    return [c % PRIME for c in out]


def _mod_p_series(x, step: int, n: int) -> list:
    """prod_{b>=1} (1 - x q^b)(1 - q^b/x)/(1 - q^b)^2 at q = Q^step, mod PRIME."""
    xm = _mod(x)
    xi = pow(xm, -1, PRIME)
    c = [1] + [0] * n
    k = step
    while k <= n:
        for z in (xm, xi):
            for i in range(n, k - 1, -1):
                c[i] = (c[i] - z * c[i - k]) % PRIME
        for _ in range(2):
            for i in range(k, n + 1):
                c[i] = (c[i] + c[i - k]) % PRIME
        k += step
    return c


def _root(s) -> Fraction:
    root = Fraction(math.isqrt(s.numerator), math.isqrt(s.denominator))
    if root * root != s:
        raise ValueError(f"{s} is not the square of a rational")
    return root


def _gap(s) -> Fraction:
    root = _root(s)
    return root - 1 / root


def _first_difference(a: list, b: list):
    return next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), None)


# -- closed_theta --------------------------------------------------------------


def closed_matches_brute_force(tc, t: int, s: tuple, order: int):
    """Real, rational, and equal to the t-core average at the same point."""
    from tcore.npoint import is_real_series, rational_series

    def check(result, by_label):
        if not is_real_series(result):
            return ["a coefficient is not real"]
        try:
            rational = rational_series(result)
        except ValueError as exc:
            return [f"a coefficient is not rational: {exc}"]
        ref = _coeffs(tc.brute_force_Ft(t, s, order), order)
        k = _first_difference(_coeffs(rational, order), ref)
        return [] if k is None else [f"differs from brute_force_Ft at Q^{k}"]

    return check


def level_identity(t: int, r: int, l: int, order: int, tol: float = 1e-9):
    """Q^N coefficient = -sum_{m|N} m^(l-1) (xi^m + (-1)^l xi^-m), xi = e^(2 pi i r/t)."""
    xi = cmath.exp(2j * math.pi * r / t)

    def check(result, by_label):
        if result.trunc2 < 2 * order:
            return ["truncated below the requested order"]
        errors = []
        for n in range(1, order + 1):
            ref = -sum(
                m ** (l - 1) * (xi**m + (-1) ** l * xi ** (-m))
                for m in range(1, n + 1)
                if n % m == 0
            )
            value = complex(result.coeff(n).embed())
            if abs(value - ref) > tol * max(1.0, abs(ref)):
                errors.append(f"Q^{n}: {value} against {ref}")
        return errors

    return check


# -- partition_sums ------------------------------------------------------------


def one_point_identity(t: int | None, s, order: int):
    """F * (s^(1/2) - s^(-1/2)) * P(s; Q) = P(s^t; Q^t), or 1 when t is None.

    With t the left side is the t-core average brute_force_Ft(t, (s,), N);
    without it, the all-partitions average bloch_okounkov_F((s,), N).
    """

    def check(result, by_label):
        lhs = [_mod(c) for c in _coeffs(result, order)]
        lhs = _mod_mul(lhs, _mod_p_series(s, 1, order), order)
        g = _mod(_gap(s))
        lhs = [c * g % PRIME for c in lhs]
        if t is None:
            rhs = [1] + [0] * order
        else:
            rhs = _mod_p_series(s**t, t, order)
        k = _first_difference(lhs, rhs)
        return [] if k is None else [f"product identity fails at Q^{k}"]

    return check


def swapped_at_half_order(route, head: tuple, s: tuple, order: int):
    """The route with the first two s-values swapped, at order//2, agrees.

    One extra call covers both properties: symmetry under a swap of two
    s-values and honesty under truncation, through the lower order.
    """
    low = order // 2
    swapped = (s[1], s[0]) + tuple(s[2:])

    def check(result, by_label):
        ref = _coeffs(route(*head, swapped, low), low)
        k = _first_difference(_coeffs(result, order)[: low + 1], ref)
        return [] if k is None else [f"swapped, half-order result differs at Q^{k}"]

    return check


def _sigma1(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def correlation_identities(t: int, order: int):
    """Slot (2,0) minus (E2(Q) - t^2 E2(Q^t)) is constant; slots are symmetric."""
    e2 = [Fraction(-1, 24)] + [Fraction(_sigma1(n)) for n in range(1, order + 1)]

    def check(result, by_label):
        errors = [
            f"slot {key} differs from its mirror"
            for key in result
            if result[key] != result[key[::-1]]
        ]
        slot = _coeffs(result[(2, 0)], order)
        for n in range(1, order + 1):
            ref = e2[n] - (t * t * e2[n // t] if n % t == 0 else 0)
            if slot[n] != ref:
                errors.append(f"slot (2,0) minus (E2 - t^2 E2(Q^t)) moves at Q^{n}")
                break
        return errors

    return check


def _partitions(n: int, top: int | None = None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, top or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _hook_weight(nu: tuple, q) -> Fraction:
    """(-1)^|nu| prod over hooks h of q^h / (q^h - 1)^2."""
    conj = [sum(1 for p in nu if p > j) for j in range(nu[0] if nu else 0)]
    w = Fraction((-1) ** sum(nu))
    for i, row in enumerate(nu):
        for j in range(row):
            qh = Fraction(q) ** (row - j + conj[j] - i - 1)
            w *= qh / (qh - 1) ** 2
    return w


def _row_moment(s, nu: tuple) -> Fraction:
    """sum_{i>=1} s^(nu_i - i + 1/2), the tail past the last row summed exactly."""
    root = _root(s)
    total = sum((s ** (p - i) * root for i, p in enumerate(nu, start=1)), Fraction(0))
    return total + s ** (-len(nu)) * root / (s - 1)


def _q1_free_row(result, order: int) -> list:
    if result.trunc2 < 2 * order:
        raise ValueError("truncated below the requested order")
    return [result.coeff(k, 0) for k in range(order + 1)]


def _series_div(a: list, b: list) -> list:
    out = []
    for n in range(len(a)):
        out.append((a[n] - sum(out[k] * b[n - k] for k in range(n))) / b[0])
    return out


def deformed_row(q, order: int, s_values: tuple = ()):
    """The Q1^0 row is the hook-weighted average of the row-moment product.

    With no s-values this is the row of qdeformed_Z_sum itself, the plain
    sum of hook weights.
    """

    def check(result, by_label):
        den, num = [], []
        for k in range(order + 1):
            parts = list(_partitions(k))
            weights = [_hook_weight(nu, q) for nu in parts]
            den.append(sum(weights, Fraction(0)))
            num.append(
                sum(
                    (w * math.prod((_row_moment(s, nu) for s in s_values), start=Fraction(1))
                     for w, nu in zip(weights, parts)),
                    Fraction(0),
                )
            )
        ref = den if not s_values else _series_div(num, den)
        k = _first_difference(_q1_free_row(result, order), ref)
        return [] if k is None else [f"Q1^0 row differs from the hook sum at Q^{k}"]

    return check


def equals_truncated(label: str, order: int):
    """Equal to the result of another call, truncated to total order ``order``."""

    def check(result, by_label):
        other = by_label[label]
        if isinstance(other, BaseException):
            return [f"the reference call {label!r} failed"]
        cut = 2 * order
        ref = {k: c for k, c in other.terms.items() if k[0] + k[1] <= cut}
        if result.trunc2 != cut or result.terms != ref:
            return [f"differs from {label!r} truncated to total order {order}"]
        return []

    return check


# -- quadrature ----------------------------------------------------------------


def extraction_matches(exact, digits: int, nome):
    """Converged, and within 10^-digits plus the series tail of the exact value.

    ``exact()`` computes a QSeries over the rationals, known through Q^N.  Its
    tail is bounded by assuming |c_k| <= (2 rho)^k past N, where rho is the
    largest |c_k|^(1/k) over the upper half of the known terms; the factor 2
    is a safety margin over the growth seen so far.
    """

    def check(result, by_label):
        import mpmath as mp

        if not result.converged:
            return [f"did not converge (M = {result.M}, est. error {result.est_error})"]
        series = exact()
        order = series.trunc2 // 2
        cs = _coeffs(series, order)
        q = float(nome)
        rho = max(abs(float(cs[k])) ** (1 / k) for k in range(order // 2, order + 1))
        x = 2 * rho * q
        tol = 10.0**-digits
        tail = x ** (order + 1) / (1 - x) if x < 1 else math.inf
        if tail >= tol / 100:
            return [f"reference tail bound {tail:.3g} is not small against 1e-{digits}"]
        exact_value = sum((c * Fraction(nome) ** k for k, c in enumerate(cs)), Fraction(0))
        with mp.workprec(result.precision_bits):
            ref = mp.mpf(exact_value.numerator) / exact_value.denominator
            err = abs(result.value - ref)
            if err > tol + tail:
                return [f"off the exact series by {mp.nstr(err, 5)} (bound {tol + tail:.3g})"]
        return []

    return check
