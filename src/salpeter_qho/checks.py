"""Checks shared by `salpeter-qho verify` and the acceptance suite.

Grids, tolerances and the comparisons between the three exact methods and
the quadrature oracle.  The methods stay separate derivations: this module
compares their results and never lets one method call another.

Exact checks over a grid return its first failing state in grid order (None
when all hold), exact checks on fixed cases return a bool, and oracle checks
return the worst relative error.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpf

from . import kramers, ladder2d, laguerre_me, oracle, spectrum
from .corrections import epsilon1_general, epsilon1_rewritten, epsilon2_general
from .ladder2d import FockState2D, LadderExpr, map_Nm_to_nl, p2_expr, p4_expr
from .oracle import _to_mpf
from .states import QuantumNumbers

# "large" is the acceptance grid.
GRIDS = {
    "small": {"d_max": 6, "nl_max": 10, "N1_max": 20, "ladder_N": 12},
    "large": {"d_max": 10, "nl_max": 25, "N1_max": 50, "ladder_N": 40},
}

# Paper spot values: (state, eps1, eps2).
SPOTS = [
    (QuantumNumbers(3, 0, 0), Fraction(-15, 32), Fraction(255, 512)),
    (QuantumNumbers.one_dim(0), Fraction(-3, 32), Fraction(39, 512)),
    (QuantumNumbers(2, 0, 0), Fraction(-1, 4), Fraction(15, 64)),
]

TOL_EXPECT = mpf("1e-12")
TOL_SUM = mpf("1e-10")
TOL_ORTHO = mpf("1e-12")
TOL_RESIDUAL = mpf("1e-10")
TOL_SPARSE = mpf("1e-12")


def radial_grid(d_max: int, nl_max: int, N1_max: int) -> list[QuantumNumbers]:
    """d=1 states N <= N1_max, then (d, n, l) for 2 <= d <= d_max, n, l <= nl_max."""
    grid = [QuantumNumbers.one_dim(N) for N in range(N1_max + 1)]
    grid += [
        QuantumNumbers(d, n, l)
        for d in range(2, d_max + 1)
        for n in range(nl_max + 1)
        for l in range(nl_max + 1)
    ]
    return grid


def ladder_grid(N_max: int) -> list[FockState2D]:
    """2D Fock states |N, m> for N <= N_max, m = -N, -N+2, ..., N."""
    return [FockState2D(N, m) for N in range(N_max + 1) for m in range(-N, N + 1, 2)]


def rel_error(approx, exact: Fraction):
    """|approx - exact| / |approx| at the working precision."""
    with mp.workdps(oracle.working_precision()):
        return abs(approx - _to_mpf(exact)) / abs(approx)


def first_order_failure(grid, target=epsilon1_general):
    """First state where Kramers, Laguerre or the rewritten closed form differs from target."""
    for q in grid:
        expected = target(q)
        if not (
            kramers.first_order_method1(q) == expected
            and laguerre_me.first_order_method2(q) == expected
            and epsilon1_rewritten(q) == expected
        ):
            return q
    return None


def second_order_failure(grid):
    """First state where Laguerre part I + II differs from the closed form."""
    return next(
        (q for q in grid if laguerre_me.second_order_method2(q) != epsilon2_general(q)), None
    )


def ladder_failure(N_max: int):
    """First Fock state whose ladder eps1 or eps2 differs from the closed form."""
    for s in ladder_grid(N_max):
        q = map_Nm_to_nl(s)
        if not (
            ladder2d.first_order_2d(s) == epsilon1_general(q)
            and ladder2d.second_order_2d(s) == epsilon2_general(q)
        ):
            return s
    return None


def spot_value_holds(q: QuantumNumbers, eps1: Fraction, eps2: Fraction) -> bool:
    """The closed forms give the spot values eps1 and eps2 at q."""
    return epsilon1_general(q) == eps1 and epsilon2_general(q) == eps2


def degeneracy_sum_rule_holds() -> bool:
    """sum_l h(l, d) = g(N, d) and one sub-level per allowed l, N <= 30, 2 <= d <= 10."""
    return all(
        sum(spectrum.degeneracy_level(l, d) for l in spectrum.allowed_l(N))
        == spectrum.degeneracy_total(N, d)
        and len(spectrum.allowed_l(N)) == spectrum.split_count(N)
        for N in range(31)
        for d in range(2, 11)
    )


def sign_failure(grid):
    """First state violating eps1 < 0 < eps2."""
    return next((q for q in grid if not epsilon1_general(q) < 0 < epsilon2_general(q)), None)


def operator_self_test_holds() -> bool:
    """(p^2)^2 is the printed p^4, [a, a+] = [b, b+] = 1 and the cross
    commutators vanish, each as an operator identity on every Fock state:
    two LadderExprs act alike exactly when they are equal."""
    mono = LadderExpr.mono
    unit = [mono("a", "ad") - mono("ad", "a"), mono("b", "bd") - mono("bd", "b")]
    cross = [
        mono("a", "b") - mono("b", "a"),
        mono("a", "bd") - mono("bd", "a"),
        mono("ad", "b") - mono("b", "ad"),
        mono("ad", "bd") - mono("bd", "ad"),
    ]
    return (
        p2_expr() * p2_expr() == p4_expr()
        and all(expr == LadderExpr.one() for expr in unit)
        and all(expr == LadderExpr.one(0) for expr in cross)
    )


def expectation_error(cases):
    """Worst relative error of quadrature <eta^s> against Kramers over (q, s) cases."""
    return max(
        rel_error(oracle.quad_expectation(q, s), kramers.moment_eta(q, s)) for q, s in cases
    )


def sum_over_states_error(cases):
    """Worst relative error of the summed part II against Laguerre over (q, cutoff) cases."""
    return max(
        rel_error(oracle.sum_over_states_check(q, cutoff), laguerre_me.second_order_part2(q))
        for q, cutoff in cases
    )
