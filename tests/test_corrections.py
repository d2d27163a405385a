"""Closed-form correction formulas and their printed specializations."""

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from salpeter_qho import kramers, ladder2d, laguerre_me
from salpeter_qho.checks import GRIDS, radial_grid
from salpeter_qho.corrections import epsilon1_general, epsilon1_rewritten, epsilon2_general
from salpeter_qho.spectrum import level_table
from salpeter_qho.states import QuantumNumbers, energy_unperturbed

F = Fraction


def triple(q):
    """(epsilon0, epsilon1, epsilon2) of a state."""
    return energy_unperturbed(q), epsilon1_general(q), epsilon2_general(q)


class TestFirstOrder:
    def test_ground_3d(self):
        assert epsilon1_general(QuantumNumbers(3, 0, 0)) == F(-15, 32)

    def test_ground_1d(self):
        assert epsilon1_general(QuantumNumbers.one_dim(0)) == F(-3, 32)

    def test_ground_2d(self):
        assert epsilon1_general(QuantumNumbers(2, 0, 0)) == F(-1, 4)

    def test_rewritten_examples(self):
        assert epsilon1_rewritten(QuantumNumbers(3, 0, 0)) == F(-15, 32)
        assert epsilon1_rewritten(QuantumNumbers(2, 1, 0)) == F(-14, 8)
        q = QuantumNumbers(4, 0, 1)
        assert epsilon1_rewritten(q) == epsilon1_general(q)

    @given(d=st.integers(1, 10), n=st.integers(0, 25), l=st.integers(0, 25))
    def test_rewritten_identity(self, d, n, l):
        q = QuantumNumbers.one_dim(n) if d == 1 else QuantumNumbers(d, n, l)
        assert epsilon1_rewritten(q) == epsilon1_general(q)

    def test_d3_printed_bracket(self):
        """Printed d=3 specialization: -(1/8)[6n^2+l^2+6nl+9n+4l+15/4]."""
        for n in range(26):
            for l in range(26):
                got = epsilon1_general(QuantumNumbers(3, n, l))
                bracket = 6 * n * n + l * l + 6 * n * l + 9 * n + 4 * l + F(15, 4)
                assert got == -bracket / 8

    def test_d1_printed_bracket(self):
        """Printed d=1 specialization: -(1/32)[6N^2+6N+3]."""
        for N in range(26):
            got = epsilon1_general(QuantumNumbers.one_dim(N))
            assert got == -F(6 * N * N + 6 * N + 3, 32)

    def test_d2_printed_bracket(self):
        """Printed d=2 specialization: -(1/8)[6n^2+l^2+6nl+6n+3l+2]."""
        for n in range(26):
            for l in range(26):
                got = epsilon1_general(QuantumNumbers(2, n, l))
                assert got == -F(6 * n * n + l * l + 6 * n * l + 6 * n + 3 * l + 2, 8)


class TestSecondOrder:
    def test_ground_3d(self):
        assert epsilon2_general(QuantumNumbers(3, 0, 0)) == F(255, 512)

    def test_ground_1d(self):
        assert epsilon2_general(QuantumNumbers.one_dim(0)) == F(39, 512)

    def test_ground_2d(self):
        assert epsilon2_general(QuantumNumbers(2, 0, 0)) == F(15, 64)

    def test_d1_printed_polynomial(self):
        for N in range(26):
            got = epsilon2_general(QuantumNumbers.one_dim(N))
            assert got == F(46 * N**3 + 69 * N**2 + 101 * N + 39, 512)

    def test_d3_printed_polynomial(self):
        for n in range(26):
            for l in range(26):
                got = epsilon2_general(QuantumNumbers(3, n, l))
                bracket = (
                    184 * n**3 + 414 * n**2 + 377 * n + 8 * l**3 + 66 * l**2
                    + 166 * l + 276 * n**2 * l + 108 * n * l**2 + 384 * n * l
                    + F(255, 2)
                )
                assert got == bracket / 256

    def test_d2_printed_polynomial(self):
        for n in range(26):
            for l in range(26):
                got = epsilon2_general(QuantumNumbers(2, n, l))
                bracket = (
                    184 * n**3 + 276 * n**2 + 212 * n + 8 * l**3 + 54 * l**2
                    + 106 * l + 276 * n**2 * l + 108 * n * l**2 + 276 * n * l + 60
                )
                assert got == F(bracket, 256)


class TestTripleAndInvariants:
    def test_triple_3d(self):
        assert triple(QuantumNumbers(3, 0, 0)) == (F(3, 2), F(-15, 32), F(255, 512))

    def test_triple_2d(self):
        assert triple(QuantumNumbers(2, 0, 0)) == (1, F(-1, 4), F(15, 64))

    def test_triple_1d_N1(self):
        assert triple(QuantumNumbers.one_dim(1)) == (F(3, 2), F(-15, 32), F(255, 512))

    def test_signs_on_grid(self):
        for q in radial_grid(10, 12, 24):
            assert epsilon1_general(q) < 0
            assert epsilon2_general(q) > 0

    @pytest.mark.parametrize("n,l", [(0, 0), (3, 1), (7, 7)])
    def test_magnitude_grows_with_dimension(self, n, l):
        values = [abs(epsilon1_general(QuantumNumbers(d, n, l))) for d in range(2, 11)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_shifted_energy(self):
        # the level table's energy column, eps0 + lam eps1 + lam^2 eps2, at the d = 2 ground state
        (row,) = level_table(0, 2, F(1, 100)).rows
        assert row.energy == 1 - F(1, 400) + F(15, 640000)


large_states = st.one_of(
    st.builds(
        QuantumNumbers, st.integers(2, 100), st.integers(0, 10**6), st.integers(0, 10**6)
    ),
    st.builds(QuantumNumbers.one_dim, st.integers(0, 2 * 10**6)),
)

# |N m> with N <= 2*10^6 and m = -N, -N+2, ..., N
large_fock_states = st.integers(0, 2 * 10**6).flatmap(
    lambda N: st.builds(
        ladder2d.FockState2D, st.just(N), st.integers(0, N).map(lambda k: 2 * k - N)
    )
)


class TestLargeQuantumNumbers:
    """The closed forms against the other derivations far beyond the acceptance grid."""

    @given(q=large_states)
    def test_scaled_corrections_are_integers(self, q):
        assert (32 * epsilon1_general(q)).denominator == 1
        assert (512 * epsilon2_general(q)).denominator == 1

    @given(q=large_states)
    def test_cross_method_agreement(self, q):
        e1 = epsilon1_general(q)
        assert kramers.first_order_method1(q) == e1
        assert epsilon1_rewritten(q) == e1
        assert laguerre_me.first_order_method2(q) == e1
        e2 = epsilon2_general(q)
        assert laguerre_me.second_order_method2(q) == e2
        # part I is <eta^3>/16, the Kramers moment
        part1 = e2 - laguerre_me.second_order_part2(q)
        assert 16 * part1 == kramers.moment_eta(q, 3)

    @given(s=large_fock_states)
    def test_ladder_agreement(self, s):
        q = ladder2d.map_Nm_to_nl(s)
        assert ladder2d.first_order_2d(s) == epsilon1_general(q)
        assert ladder2d.second_order_2d(s) == epsilon2_general(q)


def radial_values(q):
    """eps1 and eps2 by the closed forms, Kramers and Laguerre, and <eta^s> for s <= 5."""
    return (
        epsilon1_general(q),
        epsilon2_general(q),
        kramers.first_order_method1(q),
        *(kramers.moment_eta(q, s) for s in range(6)),
        laguerre_me.first_order_method2(q),
        laguerre_me.second_order_part2(q),
        laguerre_me.second_order_method2(q),
    )


def same_radial_problem(q):
    """Another state with the radial problem of q, or None.

    (d, n, l) with l >= 1 has the m = N - l and s = d + 2l of (d + 2, n, l - 1).
    The odd 1D state N = 2k + 1 is the d = 1 radial problem with l = 1, so
    s = 3 and m = 2k: the 3D s-wave (3, k, 0).
    """
    if q.d == 1:
        return QuantumNumbers(3, q.big_N // 2, 0) if q.big_N % 2 else None
    return QuantumNumbers(q.d + 2, q.n, q.l - 1) if q.l else None


class TestInterdimensionalDegeneracy:
    """Herrick's degeneracy: the radial results depend on d and l only through s = d + 2l."""

    def test_on_acceptance_grid(self):
        g = GRIDS["large"]
        grid = radial_grid(g["d_max"], g["nl_max"], g["N1_max"])
        pairs = [(q, partner) for q in grid if (partner := same_radial_problem(q))]
        # the odd 1D states, and every (d, n, l) with l >= 1
        assert len(pairs) == g["N1_max"] // 2 + (g["d_max"] - 1) * (g["nl_max"] + 1) * g["nl_max"]
        for q, partner in pairs:
            assert radial_values(q) == radial_values(partner), q

    @given(q=large_states)
    def test_at_large_quantum_numbers(self, q):
        partner = same_radial_problem(q)
        assume(partner is not None)
        assert radial_values(q) == radial_values(partner)
