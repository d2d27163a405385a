"""Quantum numbers and energies, and the reference Laguerre recurrence and radial eigenfunction."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf

from salpeter_qho.ladder2d import FockState2D, LadderExpr, p2_expr
from salpeter_qho.states import (
    InvalidQuantumNumbers,
    QuantumNumbers,
    UnsupportedDimension,
    energy_unperturbed,
)

import reference
from reference import laguerre_values, u_derivatives

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

    @pytest.mark.parametrize(
        "d,n,l,message",
        [
            # the checks run in this order: d, l, the sign of n, then its integrality
            (-1, -1, -1, "dimension must be an integer >= 1, got -1"),
            (2.0, 0, 0, "dimension must be an integer >= 1, got 2.0"),
            (3, -1, 1.0, "l must be a non-negative integer, got 1.0"),
            (3, F(-1, 2), 0, "n must be non-negative, got -1/2"),
            (1, F(-1, 3), 1, "n must be non-negative, got -1/3"),
            (1, F(1, 3), 1, "d=1 requires l=0"),
            (1, "1/4", 0, "d=1 requires 2n integer, got n=1/4"),
            (2, 0.5, 0, "d>=2 requires integer n, got 1/2"),
        ],
    )
    def test_invalid_message(self, d, n, l, message):
        with pytest.raises(InvalidQuantumNumbers) as info:
            QuantumNumbers(d, n, l)
        assert str(info.value) == message

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


# each immutable value type, one instance of it, and the repr a frozen dataclass gave
VALUE_TYPES = [
    (QuantumNumbers(3, 1, 2), "QuantumNumbers(d=3, n=Fraction(1, 1), l=2)"),
    (QuantumNumbers.one_dim(3), "QuantumNumbers(d=1, n=Fraction(3, 2), l=0)"),
    (FockState2D(4, -2), "FockState2D(N=4, m=-2)"),
    (LadderExpr.mono("a", "b", coeff=-4), "LadderExpr(form=((-1, -1, ((-4, 1, 1),)),))"),
]
VALUE_IDS = ["QuantumNumbers", "one_dim", "FockState2D", "LadderExpr"]


class TestValueTypes:
    @pytest.mark.parametrize("value,text", VALUE_TYPES, ids=VALUE_IDS)
    def test_fields_cannot_be_assigned_or_deleted(self, value, text):
        for name in ("d", "n", "l", "big_N", "N", "m", "form", "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
            with pytest.raises(AttributeError):
                delattr(value, name)

    @pytest.mark.parametrize("value,text", VALUE_TYPES, ids=VALUE_IDS)
    def test_repr_is_the_dataclass_repr(self, value, text):
        assert repr(value) == text

    @pytest.mark.parametrize("value,text", VALUE_TYPES, ids=VALUE_IDS)
    def test_copies_are_equal(self, value, text):
        for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(other) is type(value)
            assert other == value and hash(other) == hash(value) and repr(other) == text
        if isinstance(value, QuantumNumbers):
            assert copy.deepcopy(value).big_N == value.big_N

    def test_equality_is_by_field_values(self):
        q = QuantumNumbers(2, 3, 1)
        assert q == QuantumNumbers(2, F(3), 1) and hash(q) == hash(QuantumNumbers(2, F(3), 1))
        assert q == QuantumNumbers(d=2, n=3, l=1) and q != QuantumNumbers(2, 3, 0)
        # as with a dataclass, only the same type compares equal, never a tuple of the fields
        assert q != (2, F(3), 1) and FockState2D(2, 0) != (2, 0)
        assert hash(FockState2D(2, 0)) == hash((2, 0))
        assert p2_expr() == p2_expr() and hash(p2_expr()) == hash((p2_expr().form,))

    def test_n_is_a_fraction(self):
        for n in (3, F(3), "3", F(6, 2)):
            q = QuantumNumbers(2, n, 1)
            assert type(q.n) is Fraction and q.n == 3 and q.big_N == 7


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


def u_at(q, eta):
    """u at r = sqrt(eta), as u_derivatives returns it."""
    eta = F(eta)
    return u_derivatives(q, [mp.sqrt(mpf(eta.numerator) / eta.denominator)])[0][0]


class TestUEval:
    """The radial eigenfunction u = A r^(l+1) e^(-r^2/2) L_n^(alpha)(r^2), as evaluated
    by u_derivatives, the package's one eigenfunction."""

    def test_zero_at_origin(self):
        # u_derivatives refuses r = 0; u = A r (1 + O(r^2)) for the d = 3 ground state
        for r in (mpf("1e-10"), mpf("1e-20")):
            assert 0 < u_derivatives(QuantumNumbers(3, 0, 0), [r])[0][0] < 2 * r

    def test_d2_ground_value(self):
        # A_00 = sqrt(2) for d=2
        with mp.workdps(50):
            got = u_at(QuantumNumbers(2, 0, 0), 1)
            assert abs(got - mp.sqrt(2) * mp.exp(mpf(-1) / 2)) < mpf("1e-40")

    def test_sign_change_at_laguerre_root(self):
        q = QuantumNumbers(3, 1, 0)
        assert u_at(q, F(14, 10)) > 0 > u_at(q, F(16, 10))
        with mp.workdps(50):  # r = sqrt(3/2) is rounded, so u there is rounding noise
            assert abs(u_at(q, F(3, 2))) < mpf("1e-40")

    def test_d1_unsupported(self):
        with pytest.raises(UnsupportedDimension):
            u_derivatives(QuantumNumbers.one_dim(0), [1])

    @pytest.mark.parametrize("d,n,l", [(2, 0, 0), (3, 2, 1), (5, 4, 3)])
    def test_gaussian_decay(self, d, n, l):
        q = QuantumNumbers(d, n, l)
        eta = 50 * (2 * n + l + d)
        assert abs(u_at(q, eta)) < mpf("1e-10")

    def test_recurrence_matches_monomial_expansion(self):
        for alpha in (F(0), F(1, 2), F(7, 2), F(30)):
            float_values = laguerre_values(12, float(alpha), 1.5)
            with mp.workdps(50):
                x = mpf(3) / 2
                a = mpf(alpha.numerator) / alpha.denominator
                mp_values = laguerre_values(12, a, x)
                assert len(mp_values) == len(float_values) == 13
                for n in range(13):
                    # L_n^(alpha)(x) = sum_i (-1)^i binom(n + alpha, n - i) x^i / i!
                    direct = sum(
                        (-1) ** i * mp.binomial(n + a, n - i) * x**i / mp.factorial(i)
                        for i in range(n + 1)
                    )
                    assert abs(mp_values[n] - direct) < mpf("1e-40") * max(1, abs(direct))
                    assert abs(float_values[n] - float(direct)) <= 1e-9 * abs(float(direct))
        assert laguerre_values(0, mpf(2), mpf(3)) == laguerre_values(0, 2.0, 3.0) == [1]
        assert laguerre_values(-1, mpf(2), mpf(3)) == laguerre_values(-2, 2.0, 3.0) == []


class TestUDerivatives:
    @pytest.mark.parametrize("d,n,l,r", [(3, 2, 1, "1.3"), (2, 0, 0, "0.7"), (5, 4, 3, "2")])
    def test_derivatives_match_numerical_differentiation(self, d, n, l, r):
        q = QuantumNumbers(d, n, l)
        with mp.workdps(50):
            r = mpf(r)
            _, du, d2u = u_derivatives(q, [r])[0]

            def u(x):
                return u_derivatives(q, [x])[0][0]

            assert abs(du - mp.diff(u, r, 1)) < mpf("1e-45")
            assert abs(d2u - mp.diff(u, r, 2)) < mpf("1e-45")

    @pytest.mark.parametrize("d,n,l", [(2, 0, 0), (3, 2, 1), (4, 1, 3), (7, 3, 0)])
    def test_normalized_under_radial_measure(self, d, n, l):
        # A normalizes u under the measure r^(d-3) dr; plain u^2 dr integrates to 1 only for d = 3
        q = QuantumNumbers(d, n, l)
        with mp.workdps(30):

            def u(r):
                return u_derivatives(q, [r])[0][0]

            norm = mp.quad(lambda r: u(r) ** 2 * r ** (d - 3), [0, 2, mp.inf])
            assert abs(norm - 1) < mpf("1e-25")

    @pytest.mark.parametrize("r", [0, -1, F(-1, 2)])
    def test_rejects_non_positive_radius(self, r, monkeypatch):
        calls = []
        monkeypatch.setattr(reference, "normalization", lambda q: calls.append(q))
        for radii in ([r], [1, 2, r]):
            with pytest.raises(ValueError):
                u_derivatives(QuantumNumbers(3, 0, 0), radii)
        assert calls == []  # every radius is checked before any work

    @pytest.mark.parametrize("d,n,l", [(2, 0, 0), (3, 2, 1), (3, 1, 0), (7, 9, 12)])
    def test_batch_equals_single_radius_calls(self, d, n, l):
        q = QuantumNumbers(d, n, l)
        radii = [F(1, 3), mpf("0.7"), 1, 2, mp.sqrt(5), mpf(7), F(1, 3)]
        with mp.workdps(50):
            batch = u_derivatives(q, radii)
            single = [u_derivatives(q, [r])[0] for r in radii]
        assert len(batch) == len(radii)
        for got, want in zip(batch, single):
            assert [v._mpf_ for v in got] == [v._mpf_ for v in want]
        assert u_derivatives(q, []) == []
