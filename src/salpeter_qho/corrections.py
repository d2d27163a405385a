"""Closed-form relativistic correction formulas, exact in reduced units.

epsilon0 is the coefficient of hbar*omega, epsilon1 of lambda*hbar*omega and
epsilon2 of lambda^2*hbar*omega, where lambda = hbar*omega/(m c^2).

The radial equation depends on d and l only through s = d + 2l (Herrick's
interdimensional degeneracy), and so do the corrections: in m = 2n = N - l
and s, 32*epsilon1 and 512*epsilon2 are integer polynomials.  That holds for
d = 1 too, where n = N/2, m = N and s = 1.  m is taken from the int
QuantumNumbers.big_N, both are evaluated in int arithmetic and one Fraction
is built per result.
"""

from __future__ import annotations

from fractions import Fraction

from .states import QuantumNumbers, energy_unperturbed

__all__ = ["epsilon1_general", "epsilon1_rewritten", "epsilon2_general"]


def _scaled_corrections(m: int, s: int) -> tuple[int, int]:
    """(32*epsilon1, 512*epsilon2) as ints, with m = N - l and s = d + 2l.

    -32*epsilon1 = 6m^2 + 6ms + s(s + 2)
    512*epsilon2 = 46m^3 + 69sm^2 + (27s^2 + 30s + 44)m + s(s + 2)(2s + 11)

    evaluated in nested (Horner) form.  Laguerre's epsilon1 and epsilon2
    (laguerre_me) are polynomials of degree <= 3 in m and in s as well, once
    part II's up and down sums cancel their equal m^4 terms.  So agreement on
    the 4 x 4 product m in {0, 2, 4, 6}, s in {2, 3, 4, 5}, which the
    acceptance grid holds, proves the two equal for every state.
    """
    e1 = -(6 * m * (m + s) + s * (s + 2))
    e2 = m * (m * (46 * m + 69 * s) + s * (27 * s + 30) + 44) + s * (s + 2) * (2 * s + 11)
    return e1, e2


def epsilon1_general(q: QuantumNumbers) -> Fraction:
    """First-order correction, always negative."""
    return Fraction(_scaled_corrections(q.big_N - q.l, q.d + 2 * q.l)[0], 32)


def epsilon1_rewritten(q: QuantumNumbers) -> Fraction:
    """First-order correction in terms of the unperturbed energy.

    Equal to epsilon1_general for every valid state; exposes the fact that
    the shift at fixed energy grows (less negative) with l.
    """
    d, l = q.d, q.l
    e0 = energy_unperturbed(q)
    bracket = (
        Fraction(3, 2) * e0 * e0
        - Fraction(1, 2) * l * (l + d - 2)
        + Fraction(4 * d - d * d, 8)
    )
    return -bracket / 8


def epsilon2_general(q: QuantumNumbers) -> Fraction:
    """Second-order correction, always positive."""
    return Fraction(_scaled_corrections(q.big_N - q.l, q.d + 2 * q.l)[1], 512)
