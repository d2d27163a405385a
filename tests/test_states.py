"""Quantum numbers, energies, Laguerre/series coefficients, u evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from salpeter_qho.states import (
    InvalidQuantumNumbers,
    QuantumNumbers,
    UnsupportedDimension,
    energy_unperturbed,
    gamma_rational,
    laguerre_coefficients,
    laguerre_values,
    norm_squared_parts,
    series_coefficients,
    u_eval,
)

F = Fraction


class TestQuantumNumbers:
    def test_valid(self):
        QuantumNumbers(3, 2, 1)
        QuantumNumbers(2, 0, 5)
        QuantumNumbers.one_dim(3)

    @pytest.mark.parametrize(
        "d,n,l",
        [
            (0, 0, 0),
            (-1, 0, 0),
            (3, -1, 0),
            (3, 0, -1),
            (3, F(1, 2), 0),  # half-integer n only for d=1
            (1, 0, 1),  # d=1 forces l=0
            (1, F(1, 3), 0),  # 2n must be integer
        ],
    )
    def test_invalid(self, d, n, l):
        with pytest.raises(InvalidQuantumNumbers):
            QuantumNumbers(d, n, l)

    def test_one_dim_is_half_integer(self):
        q = QuantumNumbers.one_dim(3)
        assert q.n == F(3, 2) and q.l == 0 and q.big_N == 3

    @given(d=st.integers(1, 12), n2=st.integers(0, 60), l=st.integers(0, 30))
    def test_big_N_is_stored_2n_plus_l(self, d, n2, l):
        # n2 = 2n; d = 1 takes l = 0 and any n2, d >= 2 an even n2
        if d == 1:
            q = QuantumNumbers(1, F(n2, 2))
        else:
            q = QuantumNumbers(d, n2 // 2, l)
        assert type(q.big_N) is int and q.big_N == 2 * q.n + q.l
        assert "big_N" not in repr(q)
        # a copy with another stored big_N is still equal, with the same hash
        other = QuantumNumbers(q.d, q.n, q.l)
        object.__setattr__(other, "big_N", q.big_N + 1)
        assert other == q and hash(other) == hash(q) and repr(other) == repr(q)


class TestEnergy:
    def test_ground_state_3d(self):
        assert energy_unperturbed(QuantumNumbers(3, 0, 0)) == F(3, 2)

    def test_one_dim_ground(self):
        assert energy_unperturbed(QuantumNumbers.one_dim(0)) == F(1, 2)

    def test_direct_substitution(self):
        assert energy_unperturbed(QuantumNumbers(2, 1, 2)) == 5

    @given(d=st.integers(2, 10), n=st.integers(0, 20), l=st.integers(0, 20))
    def test_increments(self, d, n, l):
        e = energy_unperturbed(QuantumNumbers(d, n, l))
        assert energy_unperturbed(QuantumNumbers(d, n + 1, l)) == e + 2
        assert energy_unperturbed(QuantumNumbers(d, n, l + 1)) == e + 1


class TestLaguerreCoefficients:
    def test_constant(self):
        assert laguerre_coefficients(0, F(7, 2)) == [1]
        assert laguerre_coefficients(0, 0) == [1]

    def test_n1_half_alpha(self):
        assert laguerre_coefficients(1, F(1, 2)) == [F(3, 2), -1]

    def test_n2_alpha0(self):
        assert laguerre_coefficients(2, 0) == [1, -2, F(1, 2)]

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            laguerre_coefficients(-1, 0)


class TestSeriesCoefficients:
    def test_ground_state_constant(self):
        assert series_coefficients(QuantumNumbers(2, 0, 0), 4) == [1, 0, 0, 0, 0]

    def test_d3_n1_ratio(self):
        a = series_coefficients(QuantumNumbers(3, 1, 0), 2)
        assert a[2] / a[0] == F(-2, 3)

    def test_truncation(self):
        a = series_coefficients(QuantumNumbers(2, 1, 1), 4)
        assert a[4] == 0 and a[2] != 0

    def test_odd_coefficients_vanish(self):
        a = series_coefficients(QuantumNumbers(4, 3, 2), 8)
        assert all(a[i] == 0 for i in range(1, 9, 2))

    def test_d1_rejected(self):
        with pytest.raises(UnsupportedDimension):
            series_coefficients(QuantumNumbers.one_dim(2), 4)

    @settings(deadline=None)
    @given(d=st.integers(2, 6), n=st.integers(0, 12), l=st.integers(0, 6))
    def test_matches_laguerre_up_to_scale(self, d, n, l):
        """The power-series recursion and the Laguerre closed form must agree
        up to one overall multiplicative constant."""
        q = QuantumNumbers(d, n, l)
        a = series_coefficients(q, 2 * n)
        c = laguerre_coefficients(n, q.alpha)
        scale = a[0] / c[0]
        assert all(a[2 * k] == scale * c[k] for k in range(n + 1))


class TestGammaRational:
    def test_integer(self):
        assert gamma_rational(F(5)) == (24, False)

    def test_half_integer(self):
        # Gamma(1/2) = sqrt(pi), Gamma(5/2) = 3/4 sqrt(pi)
        assert gamma_rational(F(1, 2)) == (1, True)
        assert gamma_rational(F(5, 2)) == (F(3, 4), True)

    def test_norm_squared_d2(self):
        assert norm_squared_parts(QuantumNumbers(2, 0, 0)) == (2, False)


class TestUEval:
    def test_zero_at_origin(self):
        assert u_eval(QuantumNumbers(3, 0, 0), 0) == 0

    def test_d2_ground_value(self):
        # A_00 = sqrt(2) for d=2
        got = u_eval(QuantumNumbers(2, 0, 0), 1)
        assert abs(got - mp.sqrt(2) * mp.exp(mpf(-1) / 2)) < mpf("1e-40")

    def test_sign_change_at_laguerre_root(self):
        q = QuantumNumbers(3, 1, 0)
        assert u_eval(q, F(14, 10)) > 0 > u_eval(q, F(16, 10))
        assert abs(u_eval(q, F(3, 2))) < mpf("1e-40")

    def test_d1_unsupported(self):
        with pytest.raises(UnsupportedDimension):
            u_eval(QuantumNumbers.one_dim(0), 1)

    @pytest.mark.parametrize("d,n,l", [(2, 0, 0), (3, 2, 1), (5, 4, 3)])
    def test_gaussian_decay(self, d, n, l):
        q = QuantumNumbers(d, n, l)
        eta = 50 * (2 * n + l + d)
        assert abs(u_eval(q, eta)) < mpf("1e-10")

    def test_recurrence_matches_monomial_expansion(self):
        for alpha in (F(0), F(1, 2), F(7, 2), F(30)):
            float_values = laguerre_values(12, float(alpha), 1.5)
            with mp.workdps(50):
                x = mpf(3) / 2
                mp_values = laguerre_values(12, mpf(alpha.numerator) / alpha.denominator, x)
                assert len(mp_values) == len(float_values) == 13
                for n in range(13):
                    coeffs = laguerre_coefficients(n, alpha)
                    terms = (mpf(c.numerator) / c.denominator * x**i for i, c in enumerate(coeffs))
                    direct = sum(terms)
                    assert abs(mp_values[n] - direct) < mpf("1e-40") * max(1, abs(direct))
                    assert abs(float_values[n] - float(direct)) <= 1e-9 * abs(float(direct))
        assert laguerre_values(0, mpf(2), mpf(3)) == laguerre_values(0, 2.0, 3.0) == [1]
        assert laguerre_values(-1, mpf(2), mpf(3)) == laguerre_values(-2, 2.0, 3.0) == []
