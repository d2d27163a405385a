"""Method I: Kramers-Pasternak moments and the first-order correction."""

from fractions import Fraction

import pytest
from hypothesis import given
from test_corrections import large_states

from salpeter_qho.checks import GRIDS, radial_grid
from salpeter_qho.corrections import epsilon1_general
from salpeter_qho.kramers import first_order_method1, moment_eta
from salpeter_qho.states import QuantumNumbers, energy_unperturbed

F = Fraction
DRIFT_S = (0, 2, 4, 6, 10, 40)


def reference_moment_r_even(q, s):
    """<r^(s+2)> by the recursion in Fraction arithmetic, one Fraction operation per term.

    It keeps the relation's (d, l) form, with the angular term ang, as an
    independent check of the package's recursion in s = d + 2l.
    """
    d, l = q.d, q.l
    e = energy_unperturbed(q)
    ang = d - 3 + l * (l + d - 2)
    prev = Fraction(0)
    curr = Fraction(1)
    for t in range(0, s + 2, 2):
        coeff = Fraction(2 * t * ang) + Fraction(t, 2) * (4 - d - t) * (4 - d + t)
        nxt = (2 * e * (2 * t + 2) * curr - coeff * prev) / (2 * t + 4)
        prev, curr = curr, nxt
    return curr


def fock_moment(N, k):
    """<N|x^k|N> for even k, x = (a + ad)/sqrt(2) applied to the unnormalized
    |n) = ad^n |0), where a|n) = n|n - 1) and ad|n) = |n + 1).  Since (n|n) = n!,
    the coefficient of |N) in (a + ad)^k |N) is already <N|(a + ad)^k|N>."""
    ket = {N: 1}
    for _ in range(k):
        image = {}
        for n, c in ket.items():
            if n:
                image[n - 1] = image.get(n - 1, 0) + n * c
            image[n + 1] = image.get(n + 1, 0) + c
        ket = image
    return Fraction(ket.get(N, 0), 2 ** (k // 2))


class TestMomentR2:
    def test_examples(self):
        # <r^2> = 2n + l + d/2 = epsilon0
        examples = [
            (QuantumNumbers(3, 0, 0), F(3, 2)),
            (QuantumNumbers.one_dim(0), F(1, 2)),
            (QuantumNumbers(2, 1, 1), 4),
        ]
        for q, r2 in examples:
            assert moment_eta(q, 1) == energy_unperturbed(q) == r2


class TestMomentEven:
    def test_r4_3d_ground(self):
        assert moment_eta(QuantumNumbers(3, 0, 0), 2) == F(15, 4)

    def test_r4_2d_ground(self):
        # oracle-confirmed: 8<r^4> = 12 E <r^2> - [4(d-3+l(l+d-2)) + (2-d)(6-d)]
        assert moment_eta(QuantumNumbers(2, 0, 0), 2) == 2

    @pytest.mark.parametrize("d,n,l", [(2, 0, 0), (3, 4, 2), (7, 1, 5)])
    def test_self_seeding(self, d, n, l):
        q = QuantumNumbers(d, n, l)
        assert moment_eta(q, 1) == energy_unperturbed(q)

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            moment_eta(QuantumNumbers(3, 0, 0), -1)

    def test_d1_is_the_fock_space_moment(self):
        # d = 1 is the full-line oscillator: both parities give the true <x^(2s)>
        for N in range(12):
            for s in range(1, 6):
                assert moment_eta(QuantumNumbers.one_dim(N), s) == fock_moment(N, 2 * s)

    def test_eta_moment_wrapper(self):
        q = QuantumNumbers(3, 0, 0)
        assert moment_eta(q, 0) == 1
        assert moment_eta(q, 1) == energy_unperturbed(q)
        assert moment_eta(q, 2) == F(15, 4)

    def test_positive_and_increasing_in_n(self):
        for d in range(2, 11):
            for l in range(0, 21, 4):
                for s in (1, 2, 3):
                    prev = None
                    for n in range(21):
                        val = moment_eta(QuantumNumbers(d, n, l), s)
                        assert val > 0
                        if prev is not None:
                            assert val > prev
                        prev = val

    def test_matches_reference_on_acceptance_grid(self):
        g = GRIDS["large"]
        for q in radial_grid(g["d_max"], g["nl_max"], g["N1_max"]):
            for s in DRIFT_S:
                assert moment_eta(q, s // 2 + 1) == reference_moment_r_even(q, s)

    @given(q=large_states)
    def test_matches_reference_at_large_quantum_numbers(self, q):
        for s in DRIFT_S:
            assert moment_eta(q, s // 2 + 1) == reference_moment_r_even(q, s)

    def test_cauchy_schwarz(self):
        for d in range(2, 11):
            for n in range(21):
                for l in range(21):
                    q = QuantumNumbers(d, n, l)
                    r2 = moment_eta(q, 1)
                    r4 = moment_eta(q, 2)
                    assert r4 >= r2 * r2


class TestFirstOrderMethod1:
    def test_3d_ground(self):
        assert first_order_method1(QuantumNumbers(3, 0, 0)) == F(-15, 32)

    def test_2d_ground(self):
        assert first_order_method1(QuantumNumbers(2, 0, 0)) == F(-1, 4)

    def test_cross_method_spot(self):
        q = QuantumNumbers(5, 1, 2)
        assert first_order_method1(q) == epsilon1_general(q)

    def test_cross_method_grid(self):
        for d in range(2, 11):
            for n in range(21):
                for l in range(21):
                    q = QuantumNumbers(d, n, l)
                    assert first_order_method1(q) == epsilon1_general(q)

    def test_cross_method_d1(self):
        for N in range(41):
            q = QuantumNumbers.one_dim(N)
            assert first_order_method1(q) == epsilon1_general(q)


def test_public_functions_return_fractions():
    q = QuantumNumbers(2, 0, 0)
    results = [first_order_method1(q)] + [moment_eta(q, s) for s in range(4)]
    assert all(type(r) is Fraction for r in results)
