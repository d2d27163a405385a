"""Method I: radial moments from the d-dimensional Kramers-Pasternak relation.

All arithmetic here is exact; there is no floating-point path.  The
recursion runs on int numerators over one int denominator, and each public
result is built as one Fraction.  Moments are in units (hbar/(m omega))^(s/2).
"""

from __future__ import annotations

from fractions import Fraction

from .states import QuantumNumbers

__all__ = ["moment_r_even", "moment_eta", "first_order_method1"]


def moment_r_even(q: QuantumNumbers, s: int) -> Fraction:
    """<r^(s+2)> by forward recursion in the relation index s.

    The recursion is seeded with <r^0> = 1; at s = 0 the <r^(s-2)> term
    carries a factor of s and drops out, so the relation self-seeds and gives
    <r^2> = 2n + l + d/2, the unperturbed energy.  For d = 1 (l = 0,
    n = N/2) the centrifugal coefficient l(l + d - 2) + (d - 1)(d - 3)/4 is
    0 and the relation is the one-dimensional hypervirial relation on the
    full line, so the result is the true <x^(s+2)> of state N, even or odd.
    """
    if not isinstance(s, int) or s < 0:
        raise ValueError(f"s must be a non-negative integer, got {s}")
    if s % 2 != 0:
        raise ValueError(f"s must be even, got {s}")
    return Fraction(*_moment(q, s))


def _moment(q: QuantumNumbers, s: int) -> tuple[int, int]:
    """<r^(s+2)> as (numerator, denominator) ints, for even s >= 0.

    With 2 eps0 = 2N + d an int (N = q.big_N, d = 1 included), the relation
    times 2 has int coefficients, so <r^(t-2)> = prev/den and
    <r^t> = curr/den share one denominator that each step multiplies by
    4t + 8.  At t = 0 prev is multiplied by a vanishing factor.
    """
    d, l = q.d, q.l
    e2 = 2 * q.big_N + d
    ang = d - 3 + l * (l + d - 2)
    prev, curr, den = 0, 1, 1
    for t in range(0, s + 2, 2):
        c2 = 4 * t * ang + t * (4 - d - t) * (4 - d + t)
        step = 4 * t + 8
        prev, curr, den = curr * step, 2 * e2 * (2 * t + 2) * curr - c2 * prev, den * step
    return curr, den


def moment_eta(q: QuantumNumbers, s: int) -> Fraction:
    """<eta^s> = <r^(2s)> in reduced units."""
    if not isinstance(s, int) or s < 0:
        raise ValueError(f"s must be a non-negative integer, got {s}")
    # at s = 0 the loop runs no step and gives <r^0> = 1
    return Fraction(*_moment(q, 2 * s - 2))


def first_order_method1(q: QuantumNumbers) -> Fraction:
    """epsilon1 = -<r^4>/8, with <r^4> from the recursion."""
    num, den = _moment(q, 2)
    return Fraction(-num, 8 * den)
