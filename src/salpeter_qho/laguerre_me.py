"""Method II: matrix elements of eta, eta^2, eta^3 via Laguerre recurrences.

Multiplication by eta acts on the radial functions as the three-term
recurrence eta u_k = D_k u_{k+1} + eps0(k) u_k + D_{k-1} u_{k-1}, where the
paper takes D_{k,l} = -sqrt((k+1)(k+l+d/2)), the negative root.  The sign
never enters a result: a diagonal element of eta^2 or eta^3 sums closed
paths, which descend every rung they climb and so carry D_k^2 only, and
part II needs only squared matrix elements.

The radial functions depend on d and l only through s = d + 2l.  With
m = 2n = N - l from the int QuantumNumbers.big_N, 4 D_{n+j}^2 =
(m+2j+2)(m+2j+s) and 2 eps0(n+j) = 2m+4j+s are integers, d = 1 included.
So each expectation and each part of the correction is an integer sum over
these rungs divided by a power of two, one Fraction.  Each call reads m and
s once and takes the rungs j = 1, 0, -1, -2 together.
"""

from __future__ import annotations

from fractions import Fraction

from .states import QuantumNumbers

__all__ = ["first_order_method2", "second_order_part2", "second_order_method2"]


def _rungs(q: QuantumNumbers) -> tuple[int, int, int, int, int]:
    """(4 D_{n+1}^2, 4 D_n^2, 2 eps0, 4 D_{n-1}^2, 4 D_{n-2}^2) as ints, D^2 = 0
    below the bottom of the ladder: 4 D_{n+j}^2 = (m+2j+2)(m+2j+s), 2 eps0 = 2m+s."""
    m, s = q.big_N - q.l, q.d + 2 * q.l
    return (
        (m + 4) * (m + 2 + s),
        (m + 2) * (m + s),
        2 * m + s,
        m * (m - 2 + s) if m > 0 else 0,
        (m - 2) * (m - 4 + s) if m > 2 else 0,
    )


def first_order_method2(q: QuantumNumbers) -> Fraction:
    """epsilon1 = -<eta^2>/8, with <eta^2> = D_n^2 + eps0^2 + D_{n-1}^2."""
    _, a, e, b, _ = _rungs(q)
    return Fraction(-(a + e * e + b), 32)


def _eta3_numerator(a: int, e: int, b: int) -> int:
    """8 <eta^3>, from the rungs 4 D^2 at n, n-1 and 2 eps0 at n.

    <eta^3> = D_n^2 (eps0(n+1) + 2 eps0) + D_{n-1}^2 (eps0(n-1) + 2 eps0) + eps0^3,
    and in rungs 2 eps0(n+-1) = 2 eps0 +- 4.
    """
    return a * (3 * e + 4) + b * (3 * e - 4) + e**3


def _part2_numerator(a2: int, a: int, e: int, b: int, b2: int) -> int:
    """4096 times part II, from the rungs 4 D^2 at n+1, n, n-1, n-2 and 2 eps0 at n."""
    up = a * a2 + 8 * a * (e + 2) ** 2  # -4096 times the n' = n+2, n+1 terms
    down = b * b2 + 8 * b * (e - 2) ** 2
    return down - up


def second_order_part2(q: QuantumNumbers) -> Fraction:
    """Sum-over-states part; only n' = n+-1, n+-2 contribute.

    (1/128) * sum |<u_{n',l}|eta^2|u_{n,l}>|^2 / (n - n'), where
    |<n+1|eta^2|n>|^2 = D_n^2 (eps0 + eps0(n+1))^2 and
    |<n+2|eta^2|n>|^2 = D_n^2 D_{n+1}^2, and likewise downwards.
    """
    a2, a, e, b, b2 = _rungs(q)
    return Fraction(_part2_numerator(a2, a, e, b, b2), 4096)


def second_order_method2(q: QuantumNumbers) -> Fraction:
    """Full second-order correction, part I <eta^3>/16 plus part II, over one denominator 4096."""
    a2, a, e, b, b2 = _rungs(q)
    return Fraction(32 * _eta3_numerator(a, e, b) + _part2_numerator(a2, a, e, b, b2), 4096)
