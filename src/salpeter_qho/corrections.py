"""Closed-form relativistic correction formulas, exact in reduced units.

epsilon0 is the coefficient of hbar*omega, epsilon1 of lambda*hbar*omega and
epsilon2 of lambda^2*hbar*omega, where lambda = hbar*omega/(m c^2).

In m = 2n = N - l, 32*epsilon1 and 512*epsilon2 are integer polynomials in
(d, m, l); that holds for d = 1 too, where n = N/2 and m = N.  m is taken
from the int QuantumNumbers.big_N, both are evaluated in int arithmetic and
one Fraction is built per result.
"""

from __future__ import annotations

from fractions import Fraction

from .states import QuantumNumbers, energy_unperturbed

__all__ = ["epsilon1_general", "epsilon1_rewritten", "epsilon2_general"]


def _scaled_corrections(d: int, m: int, l: int) -> tuple[int, int]:
    """(32*epsilon1, 512*epsilon2) as ints, with m = 2n = N - l.

    32*epsilon1 = -(6m^2 + 4l^2 + 12ml + 6md + 4ld + 4l + d^2 + 2d)
    512*epsilon2 = 46m^3 + 69m^2 d + (27d^2 + 30d + 44)m + 16l^3
                   + (24d + 60)l^2 + (12d^2 + 60d + 44)l + 138m^2 l + 108ml^2
                   + (108d + 60)ml + 2d^3 + 15d^2 + 22d

    evaluated in nested (Horner) form.
    """
    e1 = -(6 * m * (m + 2 * l + d) + 4 * l * (l + d + 1) + d * (d + 2))
    e2 = (
        m * (
            m * (46 * m + 69 * d + 138 * l)
            + 108 * l * l
            + (108 * d + 60) * l
            + 27 * d * d
            + 30 * d
            + 44
        )
        + l * (l * (16 * l + 24 * d + 60) + 12 * d * d + 60 * d + 44)
        + d * (d * (2 * d + 15) + 22)
    )
    return e1, e2


def epsilon1_general(q: QuantumNumbers) -> Fraction:
    """First-order correction, always negative."""
    return Fraction(_scaled_corrections(q.d, q.big_N - q.l, q.l)[0], 32)


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
    return Fraction(_scaled_corrections(q.d, q.big_N - q.l, q.l)[1], 512)
