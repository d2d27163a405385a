"""Quantum numbers and unperturbed energies, the one module every method imports.

Everything here is expressed in dimensionless units hbar = m = omega = 1,
and exact: QuantumNumbers holds ints and Fractions, and energy_unperturbed
returns an exact rational (a coefficient of hbar*omega).  The Laguerre
recurrences and the radial eigenfunction, which only the oracle uses, live
in the oracle.  QuantumNumbers, and the ladder's FockState2D and LadderExpr,
are immutable __slots__ classes on one private base, _Frozen, which costs
less to import and to build than a frozen dataclass.
"""

from __future__ import annotations

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


class _Frozen:
    """Base of the package's immutable value types: slots named in _fields.

    Assigning or deleting an attribute raises AttributeError; == compares the
    _fields of two instances of the same class and hash hashes them, so a
    slot outside _fields (a cache such as big_N) takes no part; repr shows
    them as Class(field=value, ...); and copy, deepcopy and pickle rebuild an
    instance through the constructor, from its _fields in order.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class QuantumNumbers(_Frozen):
    """State (d, n, l) of the isotropic oscillator in spherical coordinates.

    For d >= 2, n and l are non-negative integers.  For d = 1 the angular
    number l is identically 0 and n = N/2 may be a half-integer, N being
    the usual one-dimensional quantum number.  n is stored as a Fraction.
    The principal number big_N = 2n + l is an int for every d, stored once
    at construction; it takes no part in ==, hash or repr.
    """

    __slots__ = ("d", "n", "l", "big_N")
    _fields = ("d", "n", "l")

    def __init__(self, d: int, n, l: int = 0):
        if not isinstance(d, int) or d < 1:
            raise InvalidQuantumNumbers(f"dimension must be an integer >= 1, got {d}")
        if not isinstance(l, int) or l < 0:
            raise InvalidQuantumNumbers(f"l must be a non-negative integer, got {l}")
        if type(n) is not Fraction:
            n = Fraction(n)
        num, den = n.numerator, n.denominator
        if num < 0:
            raise InvalidQuantumNumbers(f"n must be non-negative, got {n}")
        if d == 1:
            if l != 0:
                raise InvalidQuantumNumbers("d=1 requires l=0")
            if den > 2:  # n in lowest terms, so 2n is an integer exactly when den is 1 or 2
                raise InvalidQuantumNumbers(f"d=1 requires 2n integer, got n={n}")
        elif den != 1:
            raise InvalidQuantumNumbers(f"d>=2 requires integer n, got {n}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "big_N", 2 * num // den + l)

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
