"""Method I: radial moments from the d-dimensional Kramers-Pasternak relation.

All arithmetic here is exact rational; there is no floating-point path.
Moments are in units (hbar/(m omega))^(s/2).
"""

from __future__ import annotations

from fractions import Fraction

from .states import QuantumNumbers, energy_unperturbed

__all__ = ["moment_r2", "moment_r_even", "moment_eta", "first_order_method1"]


def moment_r2(q: QuantumNumbers) -> Fraction:
    """<r^2> = 2n + l + d/2 (Feynman-Hellmann), equal to epsilon0."""
    return energy_unperturbed(q)


def moment_r_even(q: QuantumNumbers, s: int) -> Fraction:
    """<r^(s+2)> by forward recursion in the relation index s.

    The recursion is seeded with <r^0> = 1; at s = 0 the <r^(s-2)> term
    carries a factor of s and drops out, so the relation self-seeds and
    reproduces moment_r2.  For d = 1 the result is formal (l = 0, n = N/2
    substituted into the same relation) and used only for cross-method
    identities.
    """
    if not isinstance(s, int) or s < 0:
        raise ValueError(f"s must be a non-negative integer, got {s}")
    if s % 2 != 0:
        raise ValueError(f"s must be even, got {s}")
    d, l = q.d, q.l
    e = energy_unperturbed(q)
    ang = d - 3 + l * (l + d - 2)
    prev = Fraction(0)  # <r^(t-2)>, multiplied by a vanishing factor at t=0
    curr = Fraction(1)  # <r^0>
    for t in range(0, s + 2, 2):
        coeff = Fraction(2 * t * ang) + Fraction(t, 2) * (4 - d - t) * (4 - d + t)
        nxt = (2 * e * (2 * t + 2) * curr - coeff * prev) / (2 * t + 4)
        prev, curr = curr, nxt
    return curr


def moment_eta(q: QuantumNumbers, s: int) -> Fraction:
    """<eta^s> = <r^(2s)> in reduced units."""
    if not isinstance(s, int) or s < 0:
        raise ValueError(f"s must be a non-negative integer, got {s}")
    if s == 0:
        return Fraction(1)
    return moment_r_even(q, 2 * s - 2)


def first_order_method1(q: QuantumNumbers) -> Fraction:
    """epsilon1 = -<r^4>/8, with <r^4> from the recursion."""
    return -moment_r_even(q, 2) / 8
