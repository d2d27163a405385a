"""Acceptance suite: one test per release criterion, one pass/fail line each.

Criteria 1, 2, 3, 4, 7, 8 and 9 are exact (rational equality, zero
tolerance); criteria 5 and 6 compare against the arbitrary-precision
quadrature oracle at the stated tolerances.

The checks, grids and tolerances shared with `salpeter-qho verify` live in
salpeter_qho.checks; this suite runs them on the "large" grid.  Criterion 4's
printed specializations, criterion 6 and criterion 8's ordering within a
level are checked here only.
"""

import time
from fractions import Fraction

from mpmath import mpf

from salpeter_qho import checks, oracle, spectrum
from salpeter_qho.corrections import epsilon1_general, epsilon2_general
from salpeter_qho.states import QuantumNumbers

F = Fraction
LARGE = checks.GRIDS["large"]


def report(number: int, description: str, ok: bool, start: float):
    elapsed = time.monotonic() - start
    print(f"criterion {number} [{'PASS' if ok else 'FAIL'}]: {description} ({elapsed:.1f}s)")
    assert ok, f"criterion {number} failed: {description}"


def full_grid():
    return checks.radial_grid(LARGE["d_max"], LARGE["nl_max"], LARGE["N1_max"])


def test_criterion_1_first_order_cross_method():
    start = time.monotonic()
    ok = checks.first_order_failure(full_grid()) is None
    ok = ok and time.monotonic() - start < 10
    report(1, "first-order methods agree exactly on the full grid", ok, start)


def test_criterion_2_second_order_cross_method():
    start = time.monotonic()
    ok = checks.second_order_failure(full_grid()) is None
    ok = ok and time.monotonic() - start < 10
    report(2, "second-order method agrees exactly on the full grid", ok, start)


def test_criterion_3_ladder_equivalence():
    start = time.monotonic()
    ok = checks.ladder_failure(LARGE["ladder_N"]) is None
    report(3, "2D ladder corrections equal the general formulas for N <= 40", ok, start)


def test_criterion_4_spot_values_and_specializations():
    start = time.monotonic()
    ok = all(checks.spot_value_holds(*spot) for spot in checks.SPOTS)
    # printed d=1 specializations as polynomial identities over N in [0, 25]
    for N in range(26):
        q = QuantumNumbers.one_dim(N)
        ok &= epsilon1_general(q) == -F(6 * N * N + 6 * N + 3, 32)
        ok &= epsilon2_general(q) == F(46 * N**3 + 69 * N**2 + 101 * N + 39, 512)
    # printed d=3 specializations over n, l in [0, 25]
    for n in range(26):
        for l in range(26):
            q = QuantumNumbers(3, n, l)
            bracket1 = 6 * n * n + l * l + 6 * n * l + 9 * n + 4 * l + F(15, 4)
            ok &= epsilon1_general(q) == -bracket1 / 8
            bracket2 = (
                184 * n**3 + 414 * n**2 + 377 * n + 8 * l**3 + 66 * l**2 + 166 * l
                + 276 * n**2 * l + 108 * n * l**2 + 384 * n * l + F(255, 2)
            )
            ok &= epsilon2_general(q) == bracket2 / 256
    report(4, "spot values and printed d=1/d=3 specializations hold", bool(ok), start)


def test_criterion_5_oracle_agreement():
    start = time.monotonic()
    states = [QuantumNumbers(d, n, l) for d in (2, 3, 5) for n in range(9) for l in range(9)]
    worst_expect = checks.expectation_error((q, s) for q in states for s in range(9))
    ok = worst_expect <= checks.TOL_EXPECT
    worst_sum = checks.sum_over_states_error((q, int(q.n) + 4) for q in states)
    ok &= worst_sum <= checks.TOL_SUM

    worst_ortho = max(oracle.orthonormality_check(l, d, 8) for d in (2, 3, 5) for l in (0, 3, 8))
    ok &= worst_ortho <= checks.TOL_ORTHO

    etas = [F(1, 10), F(1, 2), 1, 2, F(7, 2), 5]
    worst_res = max(
        oracle.radial_residual(QuantumNumbers(d, n, l), etas)
        for d in (2, 3, 5)
        for n in (0, 3, 8)
        for l in (0, 2, 8)
    )
    ok &= worst_res <= checks.TOL_RESIDUAL
    report(
        5,
        "oracle agreement: expectations {:.1e}, sum-over-states {:.1e}, "
        "orthonormality {:.1e}, residual {:.1e}".format(
            float(worst_expect), float(worst_sum), float(worst_ortho), float(worst_res)
        ),
        bool(ok),
        start,
    )


def test_criterion_6_sparsity():
    start = time.monotonic()
    worst = mpf(0)
    for d in (2, 3, 5):
        for n in range(7):
            for l in (0, 2, 5):
                for delta in (3, 4):
                    value = oracle.quad_matrix_element(n + delta, n, l, d, 2)
                    worst = max(worst, abs(value))
    report(6, f"eta^2 matrix elements vanish for |dn| in {{3,4}} (worst {float(worst):.1e})",
           worst <= checks.TOL_SPARSE, start)


def test_criterion_7_degeneracy_sum_rule():
    start = time.monotonic()
    ok = checks.degeneracy_sum_rule_holds()
    report(7, "degeneracy sum rule and split count for N <= 30, d in [2,10]", ok, start)


def test_criterion_8_sign_and_ordering():
    start = time.monotonic()
    ok = checks.sign_failure(full_grid()) is None
    for d in range(2, 11):
        for N in range(26):
            values = [
                epsilon1_general(QuantumNumbers(d, (N - l) // 2, l))
                for l in spectrum.allowed_l(N)
            ]
            ok &= all(a < b for a, b in zip(values, values[1:]))
            ok &= len(set(values)) == len(values)
    report(8, "eps1 < 0 < eps2 everywhere; eps1 strictly increasing in l within a level",
           bool(ok), start)


def test_criterion_9_operator_self_test():
    start = time.monotonic()
    ok = checks.operator_self_test_holds()
    report(9, "p^4 expansion matches its printed form; commutators hold for N <= 12", ok, start)
