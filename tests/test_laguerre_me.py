"""Method II: eta matrix elements and the second-order correction."""

from fractions import Fraction

import pytest

from salpeter_qho.checks import radial_grid
from salpeter_qho.corrections import epsilon1_general, epsilon2_general
from salpeter_qho.kramers import first_order_method1, moment_eta
from salpeter_qho.laguerre_me import (
    _rungs,
    first_order_method2,
    second_order_method2,
    second_order_part2,
)
from salpeter_qho.states import QuantumNumbers, energy_unperturbed

F = Fraction


def eta2(q):
    """<eta^2> from Method II, as -8 epsilon1."""
    return -8 * first_order_method2(q)


def part1(q):
    """Method II's part I, <eta^3>/16, as the full correction less part II."""
    return second_order_method2(q) - second_order_part2(q)


def small_states(ds, nl_max):
    """checks.radial_grid on the dimensions ds (ascending); N <= 2 nl_max at d = 1."""
    return [q for q in radial_grid(max(ds), nl_max, 2 * nl_max) if q.d in ds]


class TestCoeffD:
    def test_examples(self):
        # D_n^2 = 1, 3/2 and 7, so 4 D_n^2 = 4, 6 and 28
        assert _rungs(QuantumNumbers(2, 0, 0))[1] == 4
        assert _rungs(QuantumNumbers(3, 0, 0))[1] == 6
        assert _rungs(QuantumNumbers(3, 1, 1))[1] == 28


class TestEtaAction:
    """The rungs (4 D^2 at n+1, n, n-1, n-2 and 2 eps0 at n) of the recurrence for eta."""

    def test_3d_ground(self):
        q = QuantumNumbers(3, 0, 0)
        # D_1^2 = 2 (5/2) = 5, D_0^2 = 3/2 and E_0 = 3/2
        assert _rungs(q) == (20, 6, 3, 0, 0)

    def test_diag_is_energy(self):
        for q in small_states((1, 2, 3, 5), 5):
            for j in range(3):
                shifted = QuantumNumbers(q.d, q.n + j, q.l)
                assert F(_rungs(shifted)[2], 2) == energy_unperturbed(shifted)

    def test_hermiticity(self):
        # each up coefficient at n equals the down coefficient at n+1
        for q in small_states((1, 2, 3, 7), 9):
            up2, up, _, down, _ = _rungs(q)
            _, up_above, _, down_above, down2_above = _rungs(QuantumNumbers(q.d, q.n + 1, q.l))
            assert (up, up2, down) == (down_above, up_above, down2_above)


class TestEta2:
    def test_examples(self):
        assert eta2(QuantumNumbers(3, 0, 0)) == F(15, 4)
        assert eta2(QuantumNumbers(2, 0, 0)) == 2
        assert eta2(QuantumNumbers.one_dim(0)) == F(3, 4)

    def test_matches_kramers_moment(self):
        for d in (2, 3, 5):
            for n in range(8):
                for l in range(8):
                    q = QuantumNumbers(d, n, l)
                    assert eta2(q) == moment_eta(q, 2)

    def test_variance_non_negative(self):
        for q in small_states((1, 2, 4, 9), 9):
            mean = energy_unperturbed(q)
            assert eta2(q) >= mean * mean

    def test_boundary_sparsity(self):
        """The recurrence reaches no rung below the ladder: 4 D^2 is 0 exactly there."""
        states = [QuantumNumbers.one_dim(N) for N in range(4)]
        states += [QuantumNumbers(d, n, l) for d in (2, 3, 6) for n in (0, 1) for l in range(3)]
        for q in states:
            up2, up, _, down, down2 = _rungs(q)
            for j, rung in zip((1, 0, -1, -2), (up2, up, down, down2)):
                assert (rung == 0) == (q.n + j < 0)


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
        assert 16 * part1(QuantumNumbers(3, 0, 0)) == F(105, 8)

    def test_2d_ground(self):
        assert 16 * part1(QuantumNumbers(2, 0, 0)) == 6

    def test_matches_kramers_moment(self):
        for d in (2, 3, 5):
            for n in range(8):
                for l in range(8):
                    q = QuantumNumbers(d, n, l)
                    assert 16 * part1(q) == moment_eta(q, 3)


class TestSecondOrder:
    def test_part1_examples(self):
        assert part1(QuantumNumbers(3, 0, 0)) == F(105, 128)
        assert part1(QuantumNumbers(2, 0, 0)) == F(3, 8)
        # printed constant term (d/8)(8+6d+d^2)/16 at ground state
        for d in (1, 2, 3, 7):
            q = QuantumNumbers.one_dim(0) if d == 1 else QuantumNumbers(d, 0, 0)
            assert part1(q) == F(d * (8 + 6 * d + d * d), 8 * 16)

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


def test_public_functions_return_fractions():
    q = QuantumNumbers(2, 0, 0)
    for f in (first_order_method2, second_order_part2, second_order_method2):
        assert type(f(q)) is Fraction
