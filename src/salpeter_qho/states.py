"""Quantum numbers, unperturbed energies and the radial eigenfunction.

Everything here is expressed in dimensionless units hbar = m = omega = 1.
The exact methods read only QuantumNumbers and energy_unperturbed, whose
energies are exact rationals (coefficients of hbar*omega).  The rest serves
the oracle: laguerre_fixed builds its quadrature rules in int fixed point,
and u_derivatives evaluates the normalized eigenfunction and its first two
derivatives in mpf at a list of radii, one call per state of the radial
residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp, mpf

__all__ = [
    "InvalidQuantumNumbers",
    "UnsupportedDimension",
    "QuantumNumbers",
    "energy_unperturbed",
    "laguerre_values",
    "laguerre_fixed",
    "u_derivatives",
    "normalization",
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


def normalization(q: QuantumNumbers) -> mpf:
    """Normalization constant A_nl = sqrt(2 n! / Gamma(n + l + d/2)) as a high-precision real."""
    if q.n.denominator != 1:
        raise UnsupportedDimension("normalization requires integer n (d >= 2)")
    n = int(q.n)
    return mp.sqrt(2 * mp.factorial(n) / mp.gamma(n + q.l + mpf(q.d) / 2))


def _to_mpf(x) -> mpf:
    """Convert a number (including Fraction) to mpf at working precision."""
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    return mpf(x)


def laguerre_values(n: int, alpha, x) -> list:
    """[L_0^(alpha)(x), ..., L_n^(alpha)(x)] by the three-term recurrence in n.

    Generic in the number type: pass alpha in x's type.  L_0 is the int 1,
    and n < 0 gives [].  In the package only u_derivatives calls it, in mpf;
    the tests also run it on float and Fraction, as references.
    """
    if n < 0:
        return []
    values = [1, 1 + alpha - x][: n + 1]
    for k in range(1, n):
        values.append(((2 * k + 1 + alpha - x) * values[k] - (k + alpha) * values[k - 1]) / (k + 1))
    return values


def laguerre_fixed(n: int, alpha: Fraction, X: int, bits: int) -> list[int]:
    """[Y_0, ..., Y_n] with Y_k = L_k^(alpha)(x) 2^bits in int fixed point, at x = X / 2^bits.

    The recurrence of laguerre_values with alpha = a/b kept as its two ints,
    (k + 1) b L_(k+1) = ((2k + 1) b + a - b x) L_k - (k b + a) L_(k-1).  Each
    step is a few int multiplies, one shift and one floor division by
    b (k + 1), and gives exactly the floor of the right-hand side divided by
    b (k + 1), evaluated on Y_k and Y_(k-1) without rounding.  Y_0 = 2^bits is
    exact, and n < 0 gives [].

    Error bound: each step adds an error in (-1, 0], which the recurrence
    then carries forward as it carries any of its solutions, so
    |Y_k - L_k^(alpha)(x) 2^bits| < sum_(j=1..k) |G_j(k)|, where G_j solves
    the recurrence from G_j(j - 1) = 0, G_j(j) = 1.
    """
    a, b = alpha.numerator, alpha.denominator
    one = 1 << bits
    values = [one][: n + 1]
    prev, curr, bx = 0, one, b * X
    for k in range(n):
        factor = ((2 * k + 1) * b + a) * one - bx  # ((2k + 1) b + a - b x) 2^bits
        prev, curr = curr, ((factor * curr >> bits) - (k * b + a) * prev) // (b * (k + 1))
        values.append(curr)
    return values


def u_derivatives(q: QuantumNumbers, radii) -> list[tuple[mpf, mpf, mpf]]:
    """[(u, u', u'') at each radius r > 0], derivatives taken analytically.

    Uses dL_n^(a)/dx = -L_{n-1}^(a+1) so the result is exact up to rounding.
    Every radius is checked before any work; the normalization and the three
    Laguerre orders are computed once for all of them.
    """
    if q.d < 2:
        raise UnsupportedDimension("u_derivatives is defined for d >= 2 only")
    radii = [_to_mpf(r) for r in radii]
    if any(r <= 0 for r in radii):
        raise ValueError("r must be > 0")
    n, l = int(q.n), q.l
    alphas = [_to_mpf(q.alpha + k) for k in range(3)]
    a = normalization(q)

    def p(k):  # L_{n-k}^(alpha+k)(eta) at the current eta, 0 for a negative index
        return (laguerre_values(n - k, alphas[k], eta) or [0])[-1]

    result = []
    for r in radii:
        eta = r * r
        p0, p1, p2 = p(0), -p(1), p(2)
        e = mp.exp(-eta / 2)
        r1, r2, r3 = r ** (l + 1), r ** (l + 2), r ** (l + 3)
        ae = a * e
        # u = A r^(l+1) e^(-r^2/2) P(r^2)
        u = a * r1 * e * p0
        # h := e^(eta/2) u' / A
        h = (l + 1) * r**l * p0 - r2 * p0 + 2 * r2 * p1
        hp = (
            l * (l + 1) * (r ** (l - 1) if l > 0 else 0) * p0
            + 2 * (l + 1) * r1 * p1
            - (l + 2) * r1 * p0
            - 2 * r3 * p1
            + 2 * (l + 2) * r1 * p1
            + 4 * r3 * p2
        )
        result.append((u, ae * h, ae * (hp - r * h)))
    return result
