"""Method II: eta matrix elements and the second-order correction."""

from fractions import Fraction

import pytest

from salpeter_qho.corrections import epsilon1_general, epsilon2_general
from salpeter_qho.kramers import first_order_method1, moment_eta
from salpeter_qho.laguerre_me import (
    eta2_action,
    eta2_expectation,
    eta3_expectation,
    eta_action,
    first_order_method2,
    second_order_method2,
    second_order_part1,
    second_order_part2,
)
from salpeter_qho.states import QuantumNumbers, energy_unperturbed

F = Fraction


class TestCoeffD:
    def test_examples(self):
        assert eta_action(QuantumNumbers(2, 0, 0)).up2 == 1
        assert eta_action(QuantumNumbers(3, 0, 0)).up2 == F(3, 2)
        assert eta_action(QuantumNumbers(3, 1, 1)).up2 == 7


class TestEtaAction:
    def test_3d_ground(self):
        act = eta_action(QuantumNumbers(3, 0, 0))
        assert (act.up2, act.diag, act.down2) == (F(3, 2), F(3, 2), 0)
        assert act.sign == -1

    def test_diag_is_energy(self):
        for d in (2, 3, 5):
            for n in range(6):
                for l in range(6):
                    q = QuantumNumbers(d, n, l)
                    assert eta_action(q).diag == energy_unperturbed(q)

    def test_hermiticity(self):
        # up coefficient at n equals down coefficient at n+1
        for d in (2, 3, 7):
            for n in range(10):
                for l in range(5):
                    up = eta_action(QuantumNumbers(d, n, l)).up2
                    down = eta_action(QuantumNumbers(d, n + 1, l)).down2
                    assert up == down


class TestEta2:
    def test_examples(self):
        assert eta2_expectation(QuantumNumbers(3, 0, 0)) == F(15, 4)
        assert eta2_expectation(QuantumNumbers(2, 0, 0)) == 2
        assert eta2_expectation(QuantumNumbers.one_dim(0)) == F(3, 4)

    def test_matches_kramers_moment(self):
        for d in (2, 3, 5):
            for n in range(8):
                for l in range(8):
                    q = QuantumNumbers(d, n, l)
                    assert eta2_expectation(q) == moment_eta(q, 2)

    def test_variance_non_negative(self):
        for d in (2, 4, 9):
            for n in range(10):
                for l in range(10):
                    q = QuantumNumbers(d, n, l)
                    mean = eta_action(q).diag
                    assert eta2_expectation(q) >= mean * mean

    def test_boundary_sparsity(self):
        act = eta2_action(QuantumNumbers(3, 0, 0))
        assert act.down1_sq == 0 and act.down2_sq == 0
        act = eta2_action(QuantumNumbers(3, 1, 0))
        assert act.down1_sq != 0 and act.down2_sq == 0


class TestFirstOrderMethod2:
    def test_cross_method_spots(self):
        for q in [QuantumNumbers(3, 0, 0), QuantumNumbers(2, 1, 1), QuantumNumbers(7, 2, 3)]:
            assert first_order_method2(q) == first_order_method1(q) == epsilon1_general(q)

    def test_cross_method_grid(self):
        for d in range(1, 11):
            if d == 1:
                states = [QuantumNumbers.one_dim(N) for N in range(41)]
            else:
                states = [QuantumNumbers(d, n, l) for n in range(21) for l in range(21)]
            for q in states:
                assert first_order_method2(q) == epsilon1_general(q)


class TestEta3:
    def test_3d_ground(self):
        # D_0^2 (E_0 + E_1) + E_0 <eta^2> = (3/2)(3/2 + 7/2) + (3/2)(15/4)
        assert eta3_expectation(QuantumNumbers(3, 0, 0)) == F(105, 8)

    def test_2d_ground(self):
        assert eta3_expectation(QuantumNumbers(2, 0, 0)) == 6

    def test_matches_kramers_moment(self):
        for d in (2, 3, 5):
            for n in range(8):
                for l in range(8):
                    q = QuantumNumbers(d, n, l)
                    assert eta3_expectation(q) == moment_eta(q, 3)


class TestSecondOrder:
    def test_part1_examples(self):
        assert second_order_part1(QuantumNumbers(3, 0, 0)) == F(105, 128)
        assert second_order_part1(QuantumNumbers(2, 0, 0)) == F(3, 8)
        # printed constant term (d/8)(8+6d+d^2)/16 at ground state
        for d in (1, 2, 3, 7):
            q = QuantumNumbers.one_dim(0) if d == 1 else QuantumNumbers(d, 0, 0)
            assert second_order_part1(q) == F(d * (8 + 6 * d + d * d), 8 * 16)

    def test_part2_examples(self):
        assert second_order_part2(QuantumNumbers(3, 0, 0)) == F(-165, 512)
        assert second_order_part2(QuantumNumbers(2, 0, 0)) == F(15, 64) - F(3, 8)
        # printed constant term -(1/256)(1/2)(2d^2+9d+10)d at ground state
        for d in (2, 3, 5):
            q = QuantumNumbers(d, 0, 0)
            assert second_order_part2(q) == -F(d * (2 * d * d + 9 * d + 10), 512)

    def test_method2_spots(self):
        for q in [QuantumNumbers(3, 0, 0), QuantumNumbers(2, 1, 1), QuantumNumbers(7, 2, 3)]:
            assert second_order_method2(q) == epsilon2_general(q)

    def test_method2_grid(self):
        for d in range(1, 11):
            if d == 1:
                states = [QuantumNumbers.one_dim(N) for N in range(41)]
            else:
                states = [QuantumNumbers(d, n, l) for n in range(21) for l in range(21)]
            for q in states:
                assert second_order_method2(q) == epsilon2_general(q)
