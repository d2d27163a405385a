"""Method I: radial moments from the d-dimensional Kramers-Pasternak relation.

The relation depends on d and l only through s = d + 2l and on the state
through 2 eps0 = 2N + d.  All arithmetic here is exact; there is no
floating-point path.  The recursion runs on int numerators over one int
denominator, and each public result is built as one Fraction.  Moments are in
units (hbar/(m omega))^(k/2) for <r^k>.
"""

from __future__ import annotations

from fractions import Fraction

from .states import QuantumNumbers

__all__ = ["moment_eta", "first_order_method1"]


def _moment(q: QuantumNumbers, k: int) -> tuple[int, int]:
    """<r^(k+2)> as (numerator, denominator) ints, for even k >= -2.

    With 2 eps0 = 2N + d an int (N = q.big_N, d = 1 included) and
    s = d + 2l, the relation at index t times 2,
    (4t + 8) <r^(t+2)> = 4 (2t + 2) eps0 <r^t> - t ((s - 2)^2 - t^2) <r^(t-2)>,
    has int coefficients, so <r^(t-2)> = prev/den and <r^t> = curr/den share
    one denominator that each step multiplies by 4t + 8.  At t = 0 prev is
    multiplied by a vanishing factor.
    """
    e2, s = 2 * q.big_N + q.d, q.d + 2 * q.l
    prev, curr, den = 0, 1, 1
    for t in range(0, k + 2, 2):
        c2 = t * ((s - 2) ** 2 - t * t)
        step = 4 * t + 8
        prev, curr, den = curr * step, 2 * e2 * (2 * t + 2) * curr - c2 * prev, den * step
    return curr, den


def moment_eta(q: QuantumNumbers, s: int) -> Fraction:
    """<eta^s> = <r^(2s)> in reduced units, by forward recursion from <r^0> = 1.

    The relation self-seeds: at t = 0 its <r^(t-2)> term carries a factor
    of t and drops out, so the first step gives <eta> = <r^2> = 2n + l + d/2,
    the unperturbed energy.  For d = 1 (l = 0, n = N/2) the centrifugal
    coefficient (d + 2l - 1)(d + 2l - 3)/4 is 0 and the relation is the
    one-dimensional hypervirial relation on the full line, so the result is
    the true <x^(2s)> of state N, even or odd.
    """
    if not isinstance(s, int) or s < 0:
        raise ValueError(f"s must be a non-negative integer, got {s}")
    # at s = 0 the loop runs no step and gives <r^0> = 1
    return Fraction(*_moment(q, 2 * s - 2))


def first_order_method1(q: QuantumNumbers) -> Fraction:
    """epsilon1 = -<r^4>/8, with <r^4> from the recursion."""
    num, den = _moment(q, 2)
    return Fraction(-num, 8 * den)
