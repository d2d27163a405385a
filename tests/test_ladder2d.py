"""Method III: polar ladder operators in two dimensions."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salpeter_qho import kramers, ladder2d, laguerre_me
from salpeter_qho.checks import ladder_grid
from salpeter_qho.corrections import epsilon1_general, epsilon2_general
from salpeter_qho.ladder2d import (
    GENERATORS,
    FockState2D,
    LadderExpr,
    first_order_2d,
    map_Nm_to_nl,
    p2_expr,
    p4_expr,
    p4_operators,
    second_order_2d,
)
from salpeter_qho.states import InvalidQuantumNumbers, QuantumNumbers, energy_unperturbed

from reference import _apply, expectation, matrix_element_squared

F = Fraction
mono = LadderExpr.mono


def part1(s):
    """Part I of the 2D second-order correction, the diagonal of (p^2)^3 over 16."""
    return expectation(ladder2d._P6, s) / 16


def part2(s):
    """Part II of the 2D second-order correction, sum |<N',m|(p^2)^2|N,m>|^2 / (64 (N - N'))
    over N' = N +- 2, N +- 4, each squared element normalized on its own."""
    total = F(0)
    for N in (s.N - 4, s.N - 2, s.N + 2, s.N + 4):
        if N >= abs(s.m):
            bra = FockState2D(N, s.m)
            total += matrix_element_squared(ladder2d._P4, bra, s) / (64 * (s.N - N))
    return total


def images(expr, ket, N_max):
    """{bra: |<bra|expr|ket>|^2} over the nonzero elements with bra N <= N_max."""
    amps = {bra: matrix_element_squared(expr, bra, ket) for bra in ladder_grid(N_max)}
    return {bra: amp2 for bra, amp2 in amps.items() if amp2}


def build(terms):
    """The LadderExpr sum of coeff * mono(*word) over the (coeff, word) pairs of terms."""
    expr = LadderExpr.one(0)
    for coeff, word in terms:
        expr = expr + mono(*word, coeff=coeff)
    return expr


def reference_image(terms, n_a, n_b):
    """The sum of (coeff, word) pairs applied to |n_a n_b) by walking each word's
    generator names right to left: {(n_a', n_b'): coefficient}, zeros dropped."""
    image = {}
    for coeff, word in terms:
        c, i, j = 1, n_a, n_b
        for g in reversed(word):
            if g == "a":
                c, i = c * i, i - 1
            elif g == "ad":
                i += 1
            elif g == "b":
                c, j = c * j, j - 1
            elif g == "bd":
                j += 1
        image[i, j] = image.get((i, j), 0) + coeff * c
    return {key: c for key, c in image.items() if c}


class TestFockState:
    def test_invariants(self):
        FockState2D(4, -2)
        with pytest.raises(InvalidQuantumNumbers):
            FockState2D(2, 1)  # parity
        with pytest.raises(InvalidQuantumNumbers):
            FockState2D(2, 4)  # |m| > N
        with pytest.raises(InvalidQuantumNumbers):
            FockState2D(-1, -1)

    def test_non_int_numbers_raise(self):
        # refused where they are made, not later inside Fraction
        for N, m in [(2.5, 0.5), (2.0, 0), (2, 0.0), (F(2), 0), ("2", 0)]:
            with pytest.raises(InvalidQuantumNumbers):
                FockState2D(N, m)

    def test_occupation_split(self):
        s = FockState2D(5, -1)
        assert (s.n_a, s.n_b) == (3, 2)


class TestGenerators:
    def test_vacuum_annihilation(self):
        vacuum = FockState2D(0, 0)
        assert images(mono("a"), vacuum, 2) == {}
        assert images(mono("b"), vacuum, 2) == {}

    def test_bdagger_on_vacuum(self):
        assert images(mono("bd"), FockState2D(0, 0), 2) == {FockState2D(1, 1): 1}

    def test_a_on_20(self):
        assert images(mono("a"), FockState2D(2, 0), 3) == {FockState2D(1, 1): 1}

    def test_all_targets(self):
        s = FockState2D(4, 2)  # n_a = 1, n_b = 3
        assert images(mono("a"), s, 6) == {FockState2D(3, 3): 1}
        assert images(mono("b"), s, 6) == {FockState2D(3, 1): 3}
        assert images(mono("ad"), s, 6) == {FockState2D(5, 1): 2}
        assert images(mono("bd"), s, 6) == {FockState2D(5, 3): 4}

    def test_unknown_generator(self):
        # mono owns the generator set: a bad word fails where it is made
        with pytest.raises(ValueError):
            mono("ad", "c")
        with pytest.raises(ValueError):
            mono("c")


class TestMonomials:
    def test_number_operator_a(self):
        for s in ladder_grid(6):
            expected = F(s.N - s.m, 2)
            assert expectation(mono("ad", "a"), s) == expected
            expected_images = {s: expected * expected} if expected else {}
            assert images(mono("ad", "a"), s, 8) == expected_images

    def test_number_operator_b(self):
        s = FockState2D(4, 2)
        assert images(mono("bd", "b"), s, 6) == {s: 9}  # value 3
        assert expectation(mono("bd", "b"), s) == 3

    def test_a_adagger(self):
        for s in ladder_grid(6):
            val = expectation(mono("a", "ad"), s)
            assert val == F(s.N - s.m + 2, 2)


class TestMatrixElements:
    def test_k0_diagonal(self):
        k0 = p4_operators()["K0"]
        for s in ladder_grid(8):
            expected = F(3 * s.N**2 + 6 * s.N - s.m**2 + 4, 2)
            assert matrix_element_squared(k0, s, s) == expected * expected
            assert expectation(k0, s) == expected

    def test_r2_transition(self):
        r2 = p4_operators()["R2"]
        for s in ladder_grid(8):
            bra = FockState2D(s.N + 2, s.m)
            expected = (
                F(2 * s.N + 4) ** 2 * F(s.N - s.m + 2, 2) * F(s.N + s.m + 2, 2)
            )
            assert matrix_element_squared(r2, bra, s) == expected

    def test_l4_out_of_range(self):
        l4 = p4_operators()["L4"]
        ket = FockState2D(2, 0)
        # N-4 would be negative: every monomial annihilates past the vacuum
        assert matrix_element_squared(l4, FockState2D(0, 0), ket) == 0

    def test_hopping_hermiticity(self):
        # |<N+delta,m|hop|N,m>|^2 = |<N,m|hop|N+delta,m>|^2 holds only when the
        # factorial ratio of the unnormalized basis is taken the right way up
        ops = p4_operators()
        hopping = ops["R2"] + ops["L2"] + ops["R4"] + ops["L4"]
        for s in ladder_grid(8):
            for delta in (-4, -2, 2, 4):
                N, m = s.N + delta, s.m
                if N < 0 or abs(m) > N:
                    continue
                bra = FockState2D(N, m)
                forward = matrix_element_squared(hopping, bra, s)
                assert forward != 0
                assert forward == matrix_element_squared(hopping, s, bra)


class TestOperatorStructure:
    def test_k0_contents(self):
        # one shift, (0, 0), with n_a^2 + n_b^2 + 4 n_a n_b + 3 n_a + 3 n_b + 2
        k0 = p4_operators()["K0"]
        polynomial = ((2, 0, 0), (3, 0, 1), (1, 0, 2), (3, 1, 0), (4, 1, 1), (1, 2, 0))
        assert k0.form == ((0, 0, polynomial),)

    def test_r4_is_adbd_squared(self):
        r4 = p4_operators()["R4"]
        assert r4 == mono("ad", "bd") * mono("ad", "bd")
        assert r4.form == ((2, 2, ((1, 0, 0),)),)

    def test_delta_N_bookkeeping(self):
        expected = {"K0": 0, "R4": 4, "L4": -4, "R2": 2, "L2": -2}
        for name, op in p4_operators().items():
            assert op.form
            for da, db, _ in op.form:
                assert da + db == expected[name]
                # all five leave m = n_b - n_a unchanged
                assert db - da == 0

    def test_p4_expansion_matches_printed_form(self):
        assert p2_expr() * p2_expr() == p4_expr()

    def test_commutators(self):
        comm_a = mono("a", "ad") - mono("ad", "a")
        comm_b = mono("b", "bd") - mono("bd", "b")
        cross = [
            mono("a", "b") - mono("b", "a"),
            mono("a", "bd") - mono("bd", "a"),
            mono("ad", "b") - mono("b", "ad"),
            mono("ad", "bd") - mono("bd", "ad"),
        ]
        for s in ladder_grid(12):
            assert expectation(comm_a, s) == 1
            assert expectation(comm_b, s) == 1
            for expr in cross:
                for delta_n in (-2, 0, 2):
                    for delta_m in (-2, 0, 2):
                        N, m = s.N + delta_n, s.m + delta_m
                        if N < 0 or abs(m) > N or (N - m) % 2:
                            continue
                        assert matrix_element_squared(expr, FockState2D(N, m), s) == 0

    def test_p2_expectation_is_energy(self):
        # equipartition: <p^2/2> = E/2 in oscillator units
        p2 = p2_expr()
        for s in ladder_grid(20):
            q = map_Nm_to_nl(s)
            assert expectation(p2, s) == energy_unperturbed(q)

    def test_p2_powers_are_the_radial_moments(self):
        # H0 is symmetric under p -> r, so <p^2k> = <r^2k> = <eta^k>, which
        # the Kramers recursion gives as a separate derivation
        power = p2_expr()
        for k in range(1, 9):
            for s in ladder_grid(20):
                assert expectation(power, s) == kramers.moment_eta(map_Nm_to_nl(s), k)
            power = power * p2_expr()


TABLES = ["_P4", "_P6"]
# p^2 as the (coeff, word) pairs of p2_expr
P2_TERMS = [(1, ("ad", "a")), (1, ("bd", "b")), (-1, ("ad", "bd")), (-1, ("a", "b")), (1, ())]


def table_terms(table):
    """The words of the power of p^2 that the table named `table` is built as:
    the product of P2_TERMS with itself, 25 or 125 words."""
    power = P2_TERMS
    for _ in range({"_P4": 1, "_P6": 2}[table]):
        power = [(c * k, w + v) for c, w in power for k, v in P2_TERMS]
    return power


def split_at_diagonal(form):
    """A form as (its shift-(0, 0) entries, the others)."""
    diagonal = tuple(entry for entry in form if entry[:2] == (0, 0))
    return diagonal, tuple(entry for entry in form if entry[:2] != (0, 0))


# occupations up to 10^6, and the vacuum edges where lowering factors vanish
occupations = st.integers(0, 10**6) | st.sampled_from((0, 1, 2))


class TestCompiledTables:
    """The operators the corrections apply against the words of the power of p^2 each is."""

    @pytest.mark.parametrize("table", TABLES)
    def test_same_image_as_expression(self, table):
        terms, applied = table_terms(table), getattr(ladder2d, table)
        for s in ladder_grid(12):
            assert _apply(applied, s.n_a, s.n_b) == reference_image(terms, s.n_a, s.n_b)

    @pytest.mark.parametrize("table", TABLES)
    @given(n_a=occupations, n_b=occupations)
    def test_same_image_at_large_occupations(self, table, n_a, n_b):
        terms, applied = table_terms(table), getattr(ladder2d, table)
        assert _apply(applied, n_a, n_b) == reference_image(terms, n_a, n_b)

    @pytest.mark.parametrize("table", TABLES)
    def test_one_entry_per_shift(self, table):
        form = getattr(ladder2d, table).form
        shifts = [(da, db) for da, db, _ in form]
        assert len(set(shifts)) == len(shifts)
        for _, _, monomials in form:
            powers = [(i, j) for _, i, j in monomials]
            assert len(set(powers)) == len(powers)  # like monomials merged
            assert all(c for c, _, _ in monomials)  # and none of them zero

    def test_table_shapes(self):
        def shape(table):
            """{shift: (monomial count, total degree)} of a table's form."""
            return {
                (da, db): (len(monomials), max(i + j for _, i, j in monomials))
                for da, db, monomials in getattr(ladder2d, table).form
            }

        # p^2 keeps m, so (p^2)^k shifts both occupations alike, by up to k,
        # and its diagonal has total degree k
        p4, p6 = shape("_P4"), shape("_P6")
        assert set(p4) == {(h, h) for h in range(-2, 3)} and p4[0, 0] == (6, 2)
        assert set(p6) == {(h, h) for h in range(-3, 4)} and p6[0, 0] == (10, 3)

    def test_tables_are_the_printed_blocks(self):
        # the paper's blocks, which the corrections do not read, are how
        # (p^2)^2 and (p^2)^3 split by shift
        ops = p4_operators()
        diagonal, hopping = split_at_diagonal(ladder2d._P4.form)
        assert diagonal == ops["K0"].form
        assert hopping == (ops["R2"] + ops["L2"] + ops["R4"] + ops["L4"]).form
        # the N-conserving part of p^6, as the paper builds it from the blocks
        number_plus_one = mono("ad", "a") + mono("bd", "b") + LadderExpr.one()
        p6_zero = (
            number_plus_one * ops["K0"] - mono("ad", "bd") * ops["L2"] - mono("a", "b") * ops["R2"]
        )
        assert split_at_diagonal(ladder2d._P6.form)[0] == p6_zero.form

    def test_rational_coefficients_raise(self):
        # every operator of the method has int coefficients; the algebra takes no other
        with pytest.raises(TypeError):
            mono("ad", coeff=F(1, 3))
        with pytest.raises(TypeError):
            LadderExpr.one(F(2))
        with pytest.raises(TypeError):
            mono("ad", "a") * F(5, 6)
        # an operator multiplies only an operator, so an int scalar is refused too
        with pytest.raises(TypeError):
            mono("ad", "a") * 2
        with pytest.raises(TypeError):
            2 * mono("ad", "a")

    def test_form_of_a_sum(self):
        # built with the expression: n_b |n_a, n_b - 1) times 3, and n_a |n_a, n_b)
        expr = mono("ad", "a") + mono("b", coeff=3)
        assert expr.form == ((0, -1, ((3, 0, 1),)), (0, 0, ((1, 1, 0),)))
        assert _apply(expr, 2, 1) == {(2, 1): 2, (2, 0): 3}


GENERATOR_NAMES = sorted(GENERATORS)
words = st.lists(st.sampled_from(GENERATOR_NAMES), max_size=4).map(tuple)
# a sum of words as its (coeff, word) pairs
exprs = st.lists(st.tuples(st.integers(-3, 3), words), max_size=4)
# adjacent pairs that a commutation relation reorders: [a, ad] = [b, bd] = 1,
# and every a-species generator commutes with every b-species one
UNIT_PAIRS = [("a", "ad"), ("b", "bd")]
CROSS_PAIRS = [(g, h) for g in ("a", "ad") for h in ("b", "bd")]


@st.composite
def commuted_pairs(draw):
    """(x, y) with y = x but one word's adjacent pair reordered: u.a.ad.v
    becomes u.ad.a.v + u.v, and u.g.h.v of two species becomes u.h.g.v.  With
    the contraction u.v dropped, y differs from x by it."""
    rest = draw(exprs)
    u = tuple(draw(st.lists(st.sampled_from(GENERATOR_NAMES), max_size=2)))
    v = tuple(draw(st.lists(st.sampled_from(GENERATOR_NAMES), max_size=2 - len(u))))
    pair = draw(st.sampled_from(UNIT_PAIRS + CROSS_PAIRS + [p[::-1] for p in CROSS_PAIRS]))
    c = draw(st.integers(-3, 3).filter(bool))
    x = rest + [(c, u + pair + v)]
    y = rest + [(c, u + pair[::-1] + v)]
    if pair in UNIT_PAIRS and draw(st.booleans()):
        y = y + [(c, u + v)]
    return x, y


@settings(max_examples=300, deadline=None)
@given(st.tuples(exprs, exprs) | commuted_pairs())
def test_compiled_form_is_canonical(pair):
    """Equal forms exactly when x - y acts as zero on every Fock state, and each
    form acts as its words do.

    Each shift's polynomial has degree at most 4 in each occupation here, so
    x - y is zero once its image vanishes at every (n_a, n_b) in {0..4}^2."""
    x, y = pair
    points = [(n_a, n_b) for n_a in range(5) for n_b in range(5)]
    difference = x + [(-c, word) for c, word in y]
    acts_as_zero = all(not reference_image(difference, n_a, n_b) for n_a, n_b in points)
    assert (build(x) == build(y)) == acts_as_zero
    assert (build(x) - build(y) == LadderExpr.one(0)) == acts_as_zero
    for terms in (x, y):
        expr = build(terms)
        assert all(_apply(expr, *n) == reference_image(terms, *n) for n in points)


# any valid |N m> with N up to 10^6: m = N - 2k for k in 0..N
fock_states = st.integers(0, 10**6).flatmap(
    lambda N: st.integers(0, N).map(lambda k: FockState2D(N, N - 2 * k))
)


class TestCorrections2D:
    def test_first_order_examples(self):
        assert first_order_2d(FockState2D(0, 0)) == F(-1, 4)
        assert first_order_2d(FockState2D(2, 0)) == F(-7, 4)
        assert first_order_2d(FockState2D(2, 2)) == F(-3, 2)
        assert epsilon1_general(QuantumNumbers(2, 0, 2)) == F(-3, 2)

    def test_partI_examples(self):
        assert part1(FockState2D(0, 0)) == F(3, 8)
        assert part1(FockState2D(2, 0)) == F(156, 32)
        assert part1(FockState2D(1, 1)) == F(48, 32)

    def test_partI_printed_polynomial(self):
        for s in ladder_grid(10):
            N, m = s.N, s.m
            bracket = 5 * N**3 + 15 * N**2 - 3 * m * m - 3 * N * m * m + 22 * N + 12
            assert part1(s) == F(bracket, 32)

    def test_partII_examples(self):
        assert part2(FockState2D(0, 0)) == F(-9, 64)
        assert part2(FockState2D(1, 1)) == F(-156, 256)

    def test_partII_printed_polynomial(self):
        for s in ladder_grid(10):
            N, m = s.N, s.m
            bracket = -17 * N**3 - 51 * N**2 + 9 * N * m * m - 70 * N + 9 * m * m - 36
            assert part2(s) == F(bracket, 256)

    def test_second_order_examples(self):
        assert second_order_2d(FockState2D(0, 0)) == F(15, 64)
        s = FockState2D(2, 2)
        assert second_order_2d(s) == epsilon2_general(QuantumNumbers(2, 0, 2))

    def test_second_order_printed_polynomial(self):
        for s in ladder_grid(10):
            N, m = s.N, s.m
            bracket = 23 * N**3 + 69 * N**2 - 15 * N * m * m + 106 * N - 15 * m * m + 60
            assert second_order_2d(s) == F(bracket, 256)

    def test_parity_in_m(self):
        for s in ladder_grid(10):
            flipped = FockState2D(s.N, -s.m)
            assert first_order_2d(s) == first_order_2d(flipped)
            assert second_order_2d(s) == second_order_2d(flipped)

    def test_agreement_with_general_formulas(self):
        for s in ladder_grid(20):
            q = map_Nm_to_nl(s)
            assert first_order_2d(s) == epsilon1_general(q)
            assert second_order_2d(s) == epsilon2_general(q)
            # part by part against the Laguerre matrix elements, a separate derivation
            laguerre_part2 = laguerre_me.second_order_part2(q)
            assert part2(s) == laguerre_part2
            assert part1(s) == laguerre_me.second_order_method2(q) - laguerre_part2

    @given(s=fock_states)
    def test_agreement_far_beyond_the_grid(self, s):
        q = map_Nm_to_nl(s)
        assert first_order_2d(s) == epsilon1_general(q)
        assert second_order_2d(s) == epsilon2_general(q)


class TestSecondOrderOperator:
    """W, whose diagonal second_order_2d reads, against part I and part II summed apart."""

    def test_diagonal_is_both_parts_on_the_grid(self):
        for s in ladder_grid(40):
            assert expectation(ladder2d._W, s) == 256 * (part1(s) + part2(s))

    @given(n_a=occupations, n_b=occupations)
    def test_diagonal_is_both_parts_at_large_occupations(self, n_a, n_b):
        s = FockState2D(n_a + n_b, n_b - n_a)
        assert expectation(ladder2d._W, s) == 256 * (part1(s) + part2(s))

    def test_shape(self):
        # one diagonal, of total degree 3 like (p^2)^3's, with all 10 monomials,
        # and symmetric under n_a <-> n_b, as eps2 depends on m only through m^2
        ((da, db, monomials),) = ladder2d._W.form
        assert (da, db) == (0, 0)
        assert sorted((i, j) for _, i, j in monomials) == [
            (i, j) for i in range(4) for j in range(4 - i)
        ]
        assert sorted(monomials) == sorted((c, j, i) for c, i, j in monomials)


class TestMapAndBuild:
    @pytest.mark.parametrize(
        "N,m,n,l", [(2, 0, 1, 0), (3, -1, 1, 1), (5, 5, 0, 5)]
    )
    def test_map(self, N, m, n, l):
        q = map_Nm_to_nl(FockState2D(N, m))
        assert (q.d, q.n, q.l) == (2, n, l)

    def test_build_state(self):
        # each of these states is reached from the vacuum with amplitude 1 and
        # no other image (n_a! n_b! = 1 for all three)
        vacuum = FockState2D(0, 0)
        assert images(LadderExpr.one(), vacuum, 4) == {FockState2D(0, 0): 1}
        assert images(mono("bd"), vacuum, 4) == {FockState2D(1, 1): 1}
        assert images(mono("ad", "bd"), vacuum, 4) == {FockState2D(2, 0): 1}

    def test_build_state_grid(self):
        # raising the vacuum, ad^n_a bd^n_b |0 0> = sqrt(n_a! n_b!) |N m>
        vacuum = FockState2D(0, 0)
        for s in ladder_grid(8):
            raising = mono(*("ad",) * s.n_a, *("bd",) * s.n_b)
            expected = math.factorial(s.n_a) * math.factorial(s.n_b)
            assert matrix_element_squared(raising, s, vacuum) == expected


def test_public_functions_return_fractions():
    s, above = FockState2D(2, 0), FockState2D(4, 0)
    k0 = p4_operators()["K0"]
    results = [
        matrix_element_squared(k0, s, s),
        matrix_element_squared(k0, above, s),  # zero: K0 keeps N
        expectation(k0, s),
        expectation(mono("ad", "bd"), s),  # zero: off-diagonal
        first_order_2d(s),
        second_order_2d(s),
    ]
    assert all(type(r) is Fraction for r in results)
