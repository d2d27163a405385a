"""Test-side references for the quadrature oracle and the 2D ladder, which the
package does not call.

laguerre_values is the generic three-term Laguerre recurrence, in any number
type; normalization and u_derivatives give the normalized radial eigenfunction
and its first two derivatives in mpf on it.  The tests hold the oracle's int
recurrences and its exact radial residual to these.

_apply is a LadderExpr's image of one unnormalized Fock state, and
matrix_element_squared and expectation its exact single transition
amplitudes and diagonal elements, which the tests hold the ladder's
operator algebra and corrections to; _factorial_ratio gives the
normalization of a single transition as a short int product.
"""

import math
from fractions import Fraction

from mpmath import mp, mpf

from salpeter_qho.ladder2d import FockState2D, LadderExpr, _diagonal, _poly
from salpeter_qho.oracle import _to_mpf
from salpeter_qho.states import QuantumNumbers, UnsupportedDimension


def laguerre_values(n: int, alpha, x) -> list:
    """[L_0^(alpha)(x), ..., L_n^(alpha)(x)] by the three-term recurrence in n.

    Generic in the number type: pass alpha in x's type.  L_0 is the int 1,
    and n < 0 gives [].  u_derivatives calls it in mpf; the tests also run it
    on float and Fraction, as references.
    """
    if n < 0:
        return []
    values = [1, 1 + alpha - x][: n + 1]
    for k in range(1, n):
        values.append(((2 * k + 1 + alpha - x) * values[k] - (k + alpha) * values[k - 1]) / (k + 1))
    return values


def normalization(q: QuantumNumbers) -> mpf:
    """Normalization constant A_nl = sqrt(2 n! / Gamma(n + l + d/2)) as a high-precision real."""
    n = int(q.n)
    return mp.sqrt(2 * mp.factorial(n) / mp.gamma(n + q.l + mpf(q.d) / 2))


def u_derivatives(q: QuantumNumbers, radii) -> list[tuple[mpf, mpf, mpf]]:
    """[(u, u', u'') at each radius r > 0], derivatives taken analytically.

    Uses dL_n^(a)/dx = -L_{n-1}^(a+1) so the result is exact up to rounding.
    Every radius is checked before any work; the normalization and the three
    Laguerre orders are computed once for all of them.  The package does not
    call it: it is the tests' reference for the exact radial_residual.
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


def _apply(expr: LadderExpr, n_a: int, n_b: int) -> dict[tuple[int, int], int]:
    """expr on the unnormalized |n_a n_b): the nonzero int coefficient per image (n_a', n_b')."""
    image: dict[tuple[int, int], int] = {}
    for da, db, monomials in expr.form:
        c = _poly(monomials, n_a, n_b)
        if c:
            image[n_a + da, n_b + db] = c
    return image


def _factorial_ratio(top: int, bottom: int) -> tuple[int, int]:
    """top!/bottom! as (numerator, denominator), one of them the short product between the two."""
    if top >= bottom:
        return math.perm(top, top - bottom), 1
    return 1, math.perm(bottom, bottom - top)


def matrix_element_squared(expr: LadderExpr, bra: FockState2D, ket: FockState2D) -> Fraction:
    """|<bra|expr|ket>|^2 = c^2 (n_a'!/n_a!) (n_b'!/n_b!), exact.

    |n) = sqrt(n!)|n>, so the coefficient c of the unnormalized image carries
    the same radical sqrt(n_a'! n_b'! / (n_a! n_b!)) on every path.
    """
    c = _apply(expr, ket.n_a, ket.n_b).get((bra.n_a, bra.n_b), 0)
    ra, sa = _factorial_ratio(bra.n_a, ket.n_a)
    rb, sb = _factorial_ratio(bra.n_b, ket.n_b)
    return Fraction(c * c * ra * rb, sa * sb)


def expectation(expr: LadderExpr, s: FockState2D) -> Fraction:
    """<s|expr|s>: the diagonal coefficient, where the normalizations cancel."""
    return Fraction(_diagonal(expr, s))
