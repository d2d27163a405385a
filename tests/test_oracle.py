"""Gauss-Laguerre quadrature oracle: floating cross-checks of exact results."""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from salpeter_qho import oracle
from salpeter_qho.kramers import moment_eta
from salpeter_qho.laguerre_me import second_order_part2
from salpeter_qho.oracle import (
    gauss_laguerre_rule,
    orthonormality_check,
    quad_expectation,
    quad_matrix_element,
    radial_residual,
    rule_cache_stats,
    sum_over_states_check,
    working_precision,
)
from salpeter_qho.states import QuantumNumbers, UnsupportedDimension

F = Fraction

SAMPLE_ETAS = [F(1, 10), F(1, 2), 1, 2, F(7, 2), 5, 8]


def to_float(x: Fraction) -> mpf:
    return mpf(x.numerator) / x.denominator


def golub_welsch_rule(alpha: Fraction, npoints: int) -> tuple[list, list]:
    """Reference rule from the eigenpairs of the Jacobi matrix (Golub & Welsch,
    Math. Comp. 23 (1969) 221): nodes are the eigenvalues, weights Gamma(alpha+1)
    times the squared first components of the eigenvectors."""
    a = to_float(alpha)
    jacobi = mp.matrix(npoints, npoints)
    for k in range(npoints):
        jacobi[k, k] = 2 * k + a + 1
    for k in range(1, npoints):
        jacobi[k, k - 1] = jacobi[k - 1, k] = mp.sqrt(k * (k + a))
    values, vectors = mp.eigsy(jacobi)
    pairs = sorted((values[i], mp.gamma(a + 1) * vectors[0, i] ** 2) for i in range(npoints))
    return [x for x, _ in pairs], [w for _, w in pairs]


def max_rel_diff(a: list, b: list) -> mpf:
    return max(abs(x / y - 1) for x, y in zip(a, b))


class TestRule:
    def test_degree_of_exactness(self):
        # integral of x^3 * x^2 e^-x dx = Gamma(6) = 120, exact with 2 nodes
        nodes, weights = gauss_laguerre_rule(2, 2)
        total = sum(w * x**3 for x, w in zip(nodes, weights))
        assert abs(total - 120) < mpf("1e-45")

    def test_total_weight_is_gamma(self):
        nodes, weights = gauss_laguerre_rule(F(3, 2), 6)
        with mp.workdps(working_precision()):
            assert abs(sum(weights) - mp.gamma(mpf(5) / 2)) < mpf("1e-45")

    def test_nodes_positive_increasing(self):
        nodes, _ = gauss_laguerre_rule(F(1, 2), 10)
        assert nodes[0] > 0
        assert all(a < b for a, b in zip(nodes, nodes[1:]))

    def test_memoized(self):
        assert gauss_laguerre_rule(1, 5) is gauss_laguerre_rule(1, 5)

    @pytest.mark.parametrize("alpha", [F(k, 2) for k in range(20)])
    def test_matches_golub_welsch(self, alpha):
        with mp.workdps(working_precision() + 10):
            for npoints in range(1, 17):
                nodes, weights = gauss_laguerre_rule(alpha, npoints)
                ref_nodes, ref_weights = golub_welsch_rule(alpha, npoints)
                assert max_rel_diff(nodes, ref_nodes) < mpf("1e-45")
                assert max_rel_diff(weights, ref_weights) < mpf("1e-45")

    def test_guard_digits(self, monkeypatch):
        # rules carry 10 digits beyond working precision; check 5 of them
        # against the same rule built with 30 more
        dps = working_precision()
        nodes, weights = gauss_laguerre_rule(F(9, 2), 60)
        monkeypatch.setenv("SALPETER_PRECISION", str(dps + 30))
        ref_nodes, ref_weights = gauss_laguerre_rule(F(9, 2), 60)
        with mp.workdps(dps + 10):
            assert max_rel_diff(nodes, ref_nodes) < mpf(10) ** -(dps + 5)
            assert max_rel_diff(weights, ref_weights) < mpf(10) ** -(dps + 5)

    def test_large_alpha(self):
        # a large order, where asymptotic starting guesses for the zeros break down
        nodes, weights = gauss_laguerre_rule(30, 60)
        assert nodes[0] > 0
        assert all(a < b for a, b in zip(nodes, nodes[1:]))
        with mp.workdps(working_precision()):
            assert abs(mp.fsum(weights) / mp.gamma(31) - 1) < mpf("1e-45")

    def test_one_point(self):
        # L_1^(alpha) = 1 + alpha - x: one node at alpha + 1 carrying Gamma(alpha + 1)
        (node,), (weight,) = gauss_laguerre_rule(F(5, 2), 1)
        with mp.workdps(working_precision()):
            assert abs(node - mpf(7) / 2) < mpf("1e-45")
            assert abs(weight / mp.gamma(mpf(7) / 2) - 1) < mpf("1e-45")

    def test_failed_build_raises_and_is_not_cached(self, monkeypatch):
        alpha, npoints = F(11, 3), 4
        monkeypatch.setattr(oracle, "_seed_zeros", lambda a, n: [float(a) + 1] * n)
        with pytest.raises(ArithmeticError):
            gauss_laguerre_rule(alpha, npoints)
        monkeypatch.undo()
        nodes, _ = gauss_laguerre_rule(alpha, npoints)
        assert all(a < b for a, b in zip(nodes, nodes[1:]))

    def test_cache_stats(self):
        before = rule_cache_stats()
        first = gauss_laguerre_rule(F(7, 3), 3)  # a rule no other test builds
        assert gauss_laguerre_rule(F(7, 3), 3) is first
        after = rule_cache_stats()
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == 1
        assert after["build_s"] > before["build_s"]

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            gauss_laguerre_rule(-1, 5)
        with pytest.raises(ValueError):
            gauss_laguerre_rule(0, 0)


class TestExpectation:
    def test_known_values(self):
        assert abs(quad_expectation(QuantumNumbers(3, 0, 0), 2) - mpf(15) / 4) < mpf("1e-40")
        assert abs(quad_expectation(QuantumNumbers(2, 1, 1), 1) - 4) < mpf("1e-40")

    def test_normalization(self):
        for q in [QuantumNumbers(2, 3, 2), QuantumNumbers(5, 1, 0)]:
            assert abs(quad_expectation(q, 0) - 1) < mpf("1e-40")

    def test_matches_exact_moments(self):
        for d in (2, 3, 5):
            for n in (0, 2, 5):
                for l in (0, 1, 4):
                    q = QuantumNumbers(d, n, l)
                    for s in (1, 2, 3, 5):
                        exact = to_float(moment_eta(q, s))
                        assert abs(quad_expectation(q, s) / exact - 1) < mpf("1e-40")

    def test_d1_unsupported(self):
        with pytest.raises(UnsupportedDimension):
            quad_expectation(QuantumNumbers.one_dim(0), 2)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            quad_expectation(QuantumNumbers(3, 0, 0), -1)


class TestMatrixElement:
    def test_known_offdiagonal(self):
        # <u_1|eta|u_0> = -sqrt(3/2) for d=3, l=0
        value = quad_matrix_element(1, 0, 0, 3, 1)
        with mp.workdps(working_precision()):
            assert abs(value + mp.sqrt(mpf(3) / 2)) < mpf("1e-40")

    def test_symmetric(self):
        a = quad_matrix_element(2, 4, 1, 3, 2)
        b = quad_matrix_element(4, 2, 1, 3, 2)
        assert abs(a - b) < mpf("1e-40")

    def test_eta2_sparsity(self):
        # eta^2 couples only |n - n'| <= 2
        for d in (2, 3, 5):
            for n in (0, 1, 3):
                for delta in (3, 4):
                    value = quad_matrix_element(n + delta, n, 1, d, 2)
                    assert abs(value) <= mpf("1e-12")

    def test_eta_sparsity(self):
        value = quad_matrix_element(3, 1, 0, 3, 1)
        assert abs(value) <= mpf("1e-12")


class TestOrthonormality:
    @pytest.mark.parametrize("l,d", [(0, 2), (0, 3), (2, 3), (1, 5)])
    def test_within_tolerance(self, l, d):
        assert orthonormality_check(l, d, 6) <= mpf("1e-12")


class TestSumOverStates:
    def test_matches_exact_part2(self):
        for q in [QuantumNumbers(3, 0, 0), QuantumNumbers(2, 1, 1), QuantumNumbers(5, 2, 0)]:
            exact = to_float(second_order_part2(q))
            value = sum_over_states_check(q, int(q.n) + 4)
            assert abs(value / exact - 1) < mpf("1e-40")

    def test_cutoff_independent(self):
        q = QuantumNumbers(3, 1, 2)
        a = sum_over_states_check(q, 3)
        b = sum_over_states_check(q, 8)
        assert abs(a - b) < mpf("1e-40")

    def test_cutoff_too_small(self):
        with pytest.raises(ValueError):
            sum_over_states_check(QuantumNumbers(3, 2, 0), 3)


class TestRadialResidual:
    @pytest.mark.parametrize(
        "q",
        [
            QuantumNumbers(2, 0, 0),
            QuantumNumbers(2, 2, 3),
            QuantumNumbers(3, 1, 0),
            QuantumNumbers(3, 4, 2),
            QuantumNumbers(5, 2, 1),
        ],
    )
    def test_eigenfunction_satisfies_equation(self, q):
        assert radial_residual(q, SAMPLE_ETAS) <= mpf("1e-10")

    def test_wrong_energy_detected(self):
        q = QuantumNumbers(3, 1, 0)
        wrong = radial_residual(q, SAMPLE_ETAS, energy=F(7, 2) + F(1, 100))
        assert wrong > mpf("1e-3")

    def test_d1_unsupported(self):
        with pytest.raises(UnsupportedDimension):
            radial_residual(QuantumNumbers.one_dim(2), SAMPLE_ETAS)


class TestPrecisionControl:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("SALPETER_PRECISION", raising=False)
        assert working_precision() == 50

    def test_override(self, monkeypatch):
        monkeypatch.setenv("SALPETER_PRECISION", "30")
        assert working_precision() == 30

    def test_too_low_rejected(self, monkeypatch):
        monkeypatch.setenv("SALPETER_PRECISION", "10")
        with pytest.raises(ValueError):
            working_precision()
