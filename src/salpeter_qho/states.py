"""Quantum numbers and unperturbed energies, the one module every method imports.

Everything here is expressed in dimensionless units hbar = m = omega = 1,
and exact: QuantumNumbers holds ints and Fractions, and energy_unperturbed
returns an exact rational (a coefficient of hbar*omega).  The Laguerre
recurrences and the radial eigenfunction, which only the oracle uses, live
in the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

__all__ = [
    "InvalidQuantumNumbers",
    "UnsupportedDimension",
    "QuantumNumbers",
    "energy_unperturbed",
]


class InvalidQuantumNumbers(ValueError):
    """Quantum numbers violate the domain invariants."""


class UnsupportedDimension(ValueError):
    """Operation not defined for this spatial dimension."""


@dataclass(frozen=True)
class QuantumNumbers:
    """State (d, n, l) of the isotropic oscillator in spherical coordinates.

    For d >= 2, n and l are non-negative integers.  For d = 1 the angular
    number l is identically 0 and n = N/2 may be a half-integer, N being
    the usual one-dimensional quantum number.  The principal number
    big_N = 2n + l is an int for every d, stored once at construction; it
    takes no part in ==, hash or repr.
    """

    d: int
    n: Fraction
    l: int = 0
    big_N: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 1:
            raise InvalidQuantumNumbers(f"dimension must be an integer >= 1, got {self.d}")
        if not isinstance(self.l, int) or self.l < 0:
            raise InvalidQuantumNumbers(f"l must be a non-negative integer, got {self.l}")
        object.__setattr__(self, "n", Fraction(self.n))
        if self.n < 0:
            raise InvalidQuantumNumbers(f"n must be non-negative, got {self.n}")
        if self.d == 1:
            if self.l != 0:
                raise InvalidQuantumNumbers("d=1 requires l=0")
            if (2 * self.n).denominator != 1:
                raise InvalidQuantumNumbers(f"d=1 requires 2n integer, got n={self.n}")
        else:
            if self.n.denominator != 1:
                raise InvalidQuantumNumbers(f"d>=2 requires integer n, got {self.n}")
        object.__setattr__(self, "big_N", 2 * self.n.numerator // self.n.denominator + self.l)

    @classmethod
    def one_dim(cls, N: int) -> "QuantumNumbers":
        """One-dimensional state with principal number N (n = N/2, l = 0)."""
        if not isinstance(N, int) or N < 0:
            raise InvalidQuantumNumbers(f"N must be a non-negative integer, got {N}")
        return cls(1, Fraction(N, 2), 0)

    @property
    def alpha(self) -> Fraction:
        """Laguerre order alpha = l + d/2 - 1 of the radial eigenfunction."""
        return self.l + Fraction(self.d, 2) - 1


def energy_unperturbed(q: QuantumNumbers) -> Fraction:
    """Unperturbed energy N + d/2 = 2n + l + d/2 in units of hbar*omega."""
    return Fraction(2 * q.big_N + q.d, 2)
