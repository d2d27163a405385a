"""Method II: matrix elements of eta, eta^2, eta^3 via Laguerre recurrences.

The off-diagonal coefficients D_{n,l} = -sqrt((n+1)(n+l+d/2)) are irrational,
but every assembled quantity needs only D^2, so matrix elements are stored as
signed squared magnitudes and the whole pipeline stays exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .states import QuantumNumbers, energy_unperturbed

__all__ = [
    "TridiagonalAction",
    "PentadiagonalAction",
    "eta_action",
    "eta2_action",
    "eta2_expectation",
    "first_order_method2",
    "eta3_expectation",
    "second_order_part1",
    "second_order_part2",
    "second_order_method2",
]

#: Sign convention of the paper: D_{n,l} is the negative square root.
D_SIGN = -1


def _d_squared(q: QuantumNumbers, k: Fraction) -> Fraction:
    """D_{k,l}^2 = (k+1)(k+l+d/2), zero below the bottom of the ladder."""
    k = Fraction(k)
    if k + 1 <= 0:
        return Fraction(0)
    return (k + 1) * (k + q.l + Fraction(q.d, 2))


def _e0_at(q: QuantumNumbers, k: Fraction) -> Fraction:
    """Unperturbed energy at radial number k with the same (l, d)."""
    return 2 * Fraction(k) + q.l + Fraction(q.d, 2)


@dataclass(frozen=True)
class TridiagonalAction:
    """Action of multiplication by eta on u_{n,l}.

    up2/down2 are the squared magnitudes of the u_{n+1,l}/u_{n-1,l}
    coefficients (both coefficients carry the negative D sign); diag is the
    exact u_{n,l} coefficient, equal to epsilon0.
    """

    up2: Fraction
    diag: Fraction
    down2: Fraction
    sign: int = D_SIGN


@dataclass(frozen=True)
class PentadiagonalAction:
    """Action of multiplication by eta^2 on u_{n,l}, squared magnitudes.

    The n+-2 coefficients are products of two negative D's (net sign +1);
    the n+-1 coefficients carry a single D (net sign -1).  Out-of-range
    entries are zero.
    """

    up2_sq: Fraction
    up1_sq: Fraction
    diag: Fraction
    down1_sq: Fraction
    down2_sq: Fraction


def eta_action(q: QuantumNumbers) -> TridiagonalAction:
    """Tridiagonal recurrence eta u_n = D_n u_{n+1} + eps0 u_n + D_{n-1} u_{n-1}."""
    return TridiagonalAction(
        up2=_d_squared(q, q.n),
        diag=energy_unperturbed(q),
        down2=_d_squared(q, q.n - 1),
    )


def eta2_action(q: QuantumNumbers) -> PentadiagonalAction:
    """Pentadiagonal action of eta^2, obtained by applying eta twice."""
    n = q.n
    d_n = _d_squared(q, n)
    d_nm1 = _d_squared(q, n - 1)
    e_n = _e0_at(q, n)
    return PentadiagonalAction(
        up2_sq=d_n * _d_squared(q, n + 1),
        up1_sq=d_n * (e_n + _e0_at(q, n + 1)) ** 2,
        diag=d_n + e_n * e_n + d_nm1,
        down1_sq=d_nm1 * (_e0_at(q, n - 1) + e_n) ** 2,
        down2_sq=d_nm1 * _d_squared(q, n - 2),
    )


def eta2_expectation(q: QuantumNumbers) -> Fraction:
    """<eta^2> = D_n^2 + eps0^2 + D_{n-1}^2."""
    return eta2_action(q).diag


def first_order_method2(q: QuantumNumbers) -> Fraction:
    """epsilon1 = -<eta^2>/8 from the eigenfunction recurrence."""
    return -eta2_expectation(q) / 8


def eta3_expectation(q: QuantumNumbers) -> Fraction:
    """<eta^3> assembled from the tri- and pentadiagonal actions."""
    n = q.n
    d_n = _d_squared(q, n)
    d_nm1 = _d_squared(q, n - 1)
    e_n = _e0_at(q, n)
    return (
        d_n * (_e0_at(q, n + 1) + e_n)
        + e_n * (d_n + e_n * e_n + d_nm1)
        + d_nm1 * (_e0_at(q, n - 1) + e_n)
    )


def second_order_part1(q: QuantumNumbers) -> Fraction:
    """Diagonal part of the second-order correction, <eta^3>/16."""
    return eta3_expectation(q) / 16


def second_order_part2(q: QuantumNumbers) -> Fraction:
    """Sum-over-states part; only n' = n+-1, n+-2 contribute.

    (1/128) * sum |<u_{n',l}|eta^2|u_{n,l}>|^2 / (n - n'), with the squared
    matrix elements taken exactly from the pentadiagonal action.
    """
    act = eta2_action(q)
    total = act.up2_sq / Fraction(-2) + act.up1_sq / Fraction(-1)
    total += act.down1_sq / Fraction(1) + act.down2_sq / Fraction(2)
    return total / 128


def second_order_method2(q: QuantumNumbers) -> Fraction:
    """Full second-order correction, part I plus part II."""
    return second_order_part1(q) + second_order_part2(q)
