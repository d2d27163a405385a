"""Gauss-Laguerre quadrature oracle: floating cross-checks of exact results."""

import hashlib
import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec

from salpeter_qho import checks, oracle
from salpeter_qho.kramers import moment_eta
from salpeter_qho.laguerre_me import second_order_part2
from salpeter_qho.oracle import (
    laguerre_fixed,
    orthonormality_check,
    quad_expectation,
    quad_matrix_element,
    radial_residual,
    rule_cache_stats,
    sum_over_states_check,
    working_precision,
)
from salpeter_qho.states import (
    InvalidQuantumNumbers,
    QuantumNumbers,
    UnsupportedDimension,
    energy_unperturbed,
)

from reference import laguerre_values, rule_sums, u_derivatives

F = Fraction

SAMPLE_ETAS = [F(1, 10), F(1, 2), 1, 2, F(7, 2), 5, 8]
# criterion 5's radial-residual states and sample points
CRITERION_5_STATES = [
    QuantumNumbers(d, n, l) for d in (2, 3, 5) for n in (0, 3, 8) for l in (0, 2, 8)
]
CRITERION_5_ETAS = [F(1, 10), F(1, 2), 1, 2, F(7, 2), 5]


def int_order(alpha) -> int:
    """k = 2 alpha, the int by which the oracle carries a Laguerre order."""
    k = 2 * Fraction(alpha)
    assert k.denominator == 1, f"alpha = {alpha} is not a half-integer"
    return int(k)


def rule_entry(alpha, npoints: int) -> tuple[int, tuple, tuple, dict, dict]:
    """oracle._rule_entry of the rule at alpha at the working precision."""
    return oracle._rule_entry(int_order(alpha), npoints, working_precision())


def rule_key(alpha, npoints: int) -> tuple:
    """The _rule_cache key of the rule at alpha at the working precision: ints only."""
    return (int_order(alpha), npoints, working_precision())


def case_id(value) -> str:
    """Test id of a state, "d3-n2-l1", or of a list of sample points, "eta=2"."""
    if isinstance(value, QuantumNumbers):
        return f"d{value.d}-n{value.n}-l{value.l}"
    return "eta=" + ",".join(map(str, value))


def to_float(x: Fraction) -> mpf:
    return mpf(x.numerator) / x.denominator


def golub_welsch_rule(alpha: Fraction, npoints: int) -> tuple[list, list]:
    """Reference rule from the Jacobi matrix (Golub & Welsch, Math. Comp. 23
    (1969) 221): nodes are its eigenvalues, and weights the Christoffel numbers
    1/sum_k p_k(x)^2, with the orthonormal p_k run on the matrix entries."""
    a = to_float(alpha)
    diagonal = [2 * k + a + 1 for k in range(npoints)]
    off = [mp.sqrt(k * (k + a)) for k in range(npoints)]  # off[k] joins rows k - 1 and k
    jacobi = mp.matrix(npoints, npoints)
    for k in range(npoints):
        jacobi[k, k] = diagonal[k]
    for k in range(1, npoints):
        jacobi[k, k - 1] = jacobi[k - 1, k] = off[k]
    nodes = sorted(mp.eigsy(jacobi, eigvals_only=True))
    weights = []
    for x in nodes:
        prev, curr = 0, 1 / mp.sqrt(mp.gamma(a + 1))
        total = curr**2
        for k in range(npoints - 1):
            prev, curr = curr, ((x - diagonal[k]) * curr - off[k] * prev) / off[k + 1]
            total += curr**2
        weights.append(1 / total)
    return nodes, weights


def orthonormal_rows(alpha, nodes, order: int) -> list[list]:
    """[p_0..p_order](x) at each node at the current precision, with
    p_k = L_k^(alpha) sqrt(k! / Gamma(k + alpha + 1))."""
    a = to_float(alpha)
    scales = [mp.sqrt(mp.factorial(k) / mp.gamma(k + a + 1)) for k in range(order + 1)]
    return [[c * v for c, v in zip(scales, laguerre_values(order, a, x))] for x in nodes]


def table_sum(entry: tuple, s: int) -> mpf:
    """sum_i X_i^s Q_i0^2 2^(-B (s + 2)) = sum_i w_i x_i^s / Gamma(alpha + 1) from a
    rule's int table (bits, xs, columns, tables, squares), at the current precision."""
    bits, xs, columns, _, _ = entry
    return mpf((sum(x**s * q * q for x, q in zip(xs, columns[0])), -bits * (s + 2)))


def assert_table_matches(entry: tuple, alpha, nodes: list, weights: list, order: int) -> None:
    """Every X_i and Q_ik, k <= order, of a rule's int table is within one unit of
    x_i 2^B and sqrt(w_i) p_k(x_i) 2^B from reference mpf nodes and weights."""
    bits, xs, columns, _, _ = entry
    assert len(xs) == len(nodes)
    unit = mpf(2) ** bits
    for i, (x, w, row) in enumerate(zip(nodes, weights, orthonormal_rows(alpha, nodes, order))):
        assert abs(xs[i] - x * unit) <= 1
        root_w = mp.sqrt(w)
        for k, p in enumerate(row):
            assert abs(columns[k][i] - root_w * p * unit) <= 1


def assert_nodes_increase(xs: tuple) -> None:
    assert xs[0] > 0 and all(a < b for a, b in zip(xs, xs[1:]))


class TestRule:
    def test_degree_of_exactness(self):
        # integral of x^3 * x^2 e^-x dx = Gamma(6) = 120 = 60 Gamma(3), exact with 2 nodes
        with mp.workdps(working_precision()):
            assert abs(table_sum(rule_entry(2, 2), 3) - 60) < mpf("1e-45")

    def test_total_weight_is_gamma(self):
        # sum_i w_i = Gamma(alpha + 1) is sum_i Q_i0^2 = 2^(2B)
        with mp.workdps(working_precision()):
            assert abs(table_sum(rule_entry(F(3, 2), 6), 0) - 1) < mpf("1e-45")

    def test_nodes_positive_increasing(self):
        _, xs, _, _, _ = rule_entry(F(1, 2), 10)
        assert_nodes_increase(xs)

    def test_memoized(self):
        assert rule_entry(1, 5) is rule_entry(1, 5)

    @pytest.mark.parametrize("alpha", [F(k, 2) for k in range(20)])
    def test_matches_golub_welsch(self, alpha):
        with mp.workdps(working_precision() + 10):
            for npoints in range(1, 17):
                nodes, weights = golub_welsch_rule(alpha, npoints)
                assert_table_matches(rule_entry(alpha, npoints), alpha, nodes, weights, 0)

    def test_guard_digits(self, monkeypatch):
        # each entry of the table, rounded to nearest at B bits, is within one
        # unit of the same rule's table built with 30 more digits
        bits, xs, columns, _, _ = rule_entry(F(9, 2), 60)
        monkeypatch.setenv("SALPETER_PRECISION", str(working_precision() + 30))
        ref_bits, ref_xs, ref_columns, _, _ = rule_entry(F(9, 2), 60)
        extra = ref_bits - bits
        assert extra > 90
        for column, ref_column in zip((xs, *columns), (ref_xs, *ref_columns), strict=True):
            for q, r in zip(column, ref_column, strict=True):
                assert abs((q << extra) - r) <= 1 << extra

    def test_large_alpha(self):
        # a large order, where asymptotic starting guesses for the zeros break down
        entry = rule_entry(30, 60)
        assert_nodes_increase(entry[1])
        with mp.workdps(working_precision()):
            assert abs(table_sum(entry, 0) - 1) < mpf("1e-45")

    def test_one_point(self):
        # L_1^(alpha) = 1 + alpha - x: one node at alpha + 1 carrying Gamma(alpha + 1)
        bits, (x,), columns, _, _ = rule_entry(F(5, 2), 1)
        assert abs(x - (7 << bits) // 2) <= 1
        assert abs(columns[0][0] - (1 << bits)) <= 1

    def test_failed_build_raises_and_is_not_cached(self, monkeypatch):
        alpha, npoints = F(23, 2), 4  # a rule no other test builds
        monkeypatch.setattr(oracle, "_seed_zeros", lambda a, n: [float(a) + 1] * n)
        with pytest.raises(ArithmeticError):
            rule_entry(alpha, npoints)
        assert rule_key(alpha, npoints) not in oracle._rule_cache
        monkeypatch.undo()
        assert_nodes_increase(rule_entry(alpha, npoints)[1])
        assert rule_key(alpha, npoints) in oracle._rule_cache

    @pytest.mark.parametrize(
        "scale",
        [lambda i: 1.002, lambda i: 1 + 1e-6 if i == 0 else 1],
        ids=["all-seeds-0.2-percent", "first-seed-1e-6"],
    )
    def test_unconverged_polish_raises_and_is_not_cached(self, monkeypatch, scale):
        # seeds that hold 3 or 6 digits, not the 12 the step count assumes; one
        # seed 1e-6 off passes the node and table checks at 50 digits
        alpha, npoints = F(1, 2), 24
        seed_zeros = oracle._seed_zeros
        monkeypatch.setattr(oracle, "_rule_cache", {})
        monkeypatch.setattr(
            oracle,
            "_seed_zeros",
            lambda a, n: [scale(i) * z for i, z in enumerate(seed_zeros(a, n))],
        )
        with pytest.raises(ArithmeticError, match="Newton polish did not converge"):
            rule_entry(alpha, npoints)
        key = rule_key(alpha, npoints)
        assert key not in oracle._rule_cache
        monkeypatch.setattr(oracle, "_seed_zeros", seed_zeros)
        entry = rule_entry(alpha, npoints)
        assert key in oracle._rule_cache
        with mp.workdps(working_precision() + 10):
            nodes, weights = golub_welsch_rule(alpha, npoints)
            assert_table_matches(entry, alpha, nodes, weights, 0)

    @pytest.mark.parametrize("shift", [40, 100])
    def test_wrong_polished_node_raises_and_is_not_cached(self, monkeypatch, shift):
        # one node X + X 2^-shift after a polish that took it as converged: the
        # nodes still increase, so the weights' sum, Gamma(alpha + 1) as
        # sum_i Q_i0^2 = 2^(2B), must refuse the rule
        alpha, npoints = F(1, 2), 24
        polish, nodes = oracle._polish, []

        def off(*args):
            X = polish(*args)
            nodes.append(X)
            return X + (X >> shift) if len(nodes) == npoints // 2 else X

        monkeypatch.setattr(oracle, "_rule_cache", {})
        monkeypatch.setattr(oracle, "_polish", off)
        with pytest.raises(ArithmeticError, match="rule alpha=1/2 npoints=24"):
            rule_entry(alpha, npoints)
        assert len(nodes) == npoints
        assert rule_key(alpha, npoints) not in oracle._rule_cache
        monkeypatch.setattr(oracle, "_polish", polish)
        assert_nodes_increase(rule_entry(alpha, npoints)[1])
        assert rule_key(alpha, npoints) in oracle._rule_cache

    def test_cache_stats(self):
        before = rule_cache_stats()
        first = rule_entry(F(25, 2), 3)  # a rule no other test builds
        assert rule_entry(F(25, 2), 3) is first
        after = rule_cache_stats()
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == 1
        assert after["build_s"] > before["build_s"]

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            rule_entry(-1, 5)
        with pytest.raises(ValueError):
            rule_entry(0, 0)

    def test_rule_past_the_cap_fails_before_any_work(self, monkeypatch):
        # a 512-node rule is past MAX_NODES: the build must stop before the
        # seeds take their first step on the recurrence
        calls = []
        evaluate = oracle.laguerre_fixed

        def spy(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(oracle, "laguerre_fixed", spy)
        with pytest.raises(ValueError, match="MAX_NODES = 384, got 512"):
            rule_entry(F(1, 2), 512)
        assert calls == []
        # a rule within reach is seeded and polished through the spied name
        monkeypatch.setattr(oracle, "_rule_cache", {})
        rule_entry(F(1, 2), 2)
        assert calls


def float_seeds(alpha: float, n: int) -> list[float]:
    """The oracle's seeds as they were built before its int recurrence: the
    same deflated Newton on oracle.laguerre_values in double precision.  It
    keeps the old start, a hundredth of the last gap past the previous zero,
    on purpose, so that it stays an independent reference for the oracle's
    seeds from their Sturm-bounded starts."""
    zeros: list[float] = []
    z = (alpha + 1) / n
    for i in range(n):
        for _ in range(100):
            *_, prev, p = laguerre_values(n, alpha, z)
            dp = (n * p - (n + alpha) * prev) / z
            step = p / (dp - p * sum(1 / (z - x) for x in zeros))
            z -= step
            if abs(step) <= 1e-15 * z:
                break
        zeros.append(z)
        z += (z - (zeros[-2] if i else 0)) / 100
    return zeros


def recurrence_runs(monkeypatch) -> list[tuple[int, int, int]]:
    """(n, X, shift) of each oracle.laguerre_fixed call from now on, in order."""
    runs = []
    evaluate = oracle.laguerre_fixed

    def spy(n, alpha, X, shift):
        runs.append((n, X, shift))
        return evaluate(n, alpha, X, shift)

    monkeypatch.setattr(oracle, "laguerre_fixed", spy)
    return runs


class TestSeeds:
    def test_seeds_reach_the_cap(self):
        # the double-precision seeds overflowed here
        seeds = oracle._seed_zeros(F(40), oracle.MAX_NODES)
        assert len(seeds) == oracle.MAX_NODES and all(map(math.isfinite, seeds))
        assert seeds[0] > 0 and all(a < b for a, b in zip(seeds, seeds[1:]))

    def test_seeds_match_the_double_precision_seeds(self):
        sizes = {F(-1, 2): (1, 8, 24, 96), 0: (2, 12, 48), F(9, 2): (16, 192), 40: (8, 96)}
        for alpha, ns in sizes.items():
            for n in ns:
                seeds = oracle._seed_zeros(F(alpha), n)
                reference = float_seeds(float(alpha), n)
                assert max(abs(s / r - 1) for s, r in zip(seeds, reference, strict=True)) <= 1e-12

    @pytest.mark.parametrize(
        "alpha,npoints", [(49999, 12), (49999, 24), (49999, 96), (4999999, 96)]
    )
    def test_zeros_far_from_zero(self, alpha, npoints):
        # the zeros sit near alpha, with gaps far smaller than the zeros.  Each
        # later start is the Sturm bound on the gap past the previous zero, which
        # stays below the next zero however close they sit; at 12 and 24 nodes a
        # start a hundredth of the first zero past it would pass the second.  From
        # (alpha + 1) / n, Laguerre's method takes the first zero in 11 runs at
        # 96 nodes, at alpha = 49999 and at alpha = 4999999, of the 40 each zero gets
        alpha = F(alpha)
        entry = bits, xs, _, _, _ = rule_entry(alpha, npoints)
        seeds = oracle._seed_zeros(alpha, npoints)
        assert max(abs(s * (1 << bits) / x - 1) for s, x in zip(seeds, xs, strict=True)) <= 1e-12
        with mp.workdps(working_precision()):
            # exact for x^k, k <= 2 npoints - 1: <x> = alpha + 1, <x^2> = (alpha + 1)(alpha + 2)
            total = table_sum(entry, 0)
            mean = table_sum(entry, 1) / total
            square = table_sum(entry, 2) / total
            assert abs(mean / (alpha + 1) - 1) < mpf("1e-45")
            assert abs(square / ((alpha + 1) * (alpha + 2)) - 1) < mpf("1e-45")

    @pytest.mark.parametrize("alpha", [F(-1, 2), 0, F(1, 2), F(9, 2), 40, 49999])
    def test_start_lies_between_two_zeros(self, alpha):
        # Sturm comparison on u'' + Q u = 0, u = x^((alpha + 1) / 2) e^(-x / 2) L_n:
        # from the polished nodes in floats, x_(i-1) + pi / sqrt(Q(max(x_(i-1), x*)))
        # lies between x_(i-1) and x_i, with x* where Q peaks
        a = float(alpha)
        for n in (8, 24, 96):
            bits, xs, _, _, _ = rule_entry(alpha, n)
            nodes = [x / (1 << bits) for x in xs]
            peak = (a * a - 1) / (2 * n + a + 1)
            for lo, hi in zip(nodes, nodes[1:]):
                x = max(lo, peak)
                q = (2 * n + a + 1) / (2 * x) + (1 - a * a) / (4 * x * x) - 1 / 4
                assert lo < lo + math.pi / math.sqrt(q) < hi

    def test_few_recurrence_runs_per_zero(self, monkeypatch):
        # about 3 runs per zero at 192 nodes, Laguerre's method from the
        # Sturm-bounded starts, against about 5 for Newton's and about 11
        # for Newton's from a hundredth of the last gap
        bits = []
        evaluate = oracle.laguerre_fixed

        def spy(n, alpha, X, shift):
            bits.append(shift)
            return evaluate(n, alpha, X, shift)

        monkeypatch.setattr(oracle, "laguerre_fixed", spy)
        monkeypatch.setattr(oracle, "_rule_cache", {})
        rule_entry(F(1, 2), 192)
        assert 192 <= bits.count(oracle.SEED_SHIFT) <= 3.5 * 192

    def test_first_zero_far_from_zero_takes_few_runs(self, monkeypatch):
        # the first zero at alpha = 49999 lies near 46026, far from its start
        # (alpha + 1) / n = 521; Newton's method took 187 runs to reach it from
        # 28831, the Laguerre-Samuelson bound
        alpha, npoints = F(49999), 96
        runs = recurrence_runs(monkeypatch)
        seeds = oracle._seed_zeros(alpha, npoints)
        start = runs[0][1]
        assert start == int(math.ldexp(50000 / npoints, oracle.SEED_SHIFT))
        # the first search rises to x_0, and every later run lies past it
        first = math.ldexp(seeds[0] * (1 + 1e-9), oracle.SEED_SHIFT)
        assert 1 < sum(X < first for _, X, _ in runs) <= 12

    @pytest.mark.parametrize("dps,steps", [(15, 1), (50, 2), (120, 3)])
    def test_halley_steps_per_node(self, monkeypatch, dps, steps):
        # the smallest t with 12 3^t >= dps + 10: each Halley step triples the
        # seeds' 12 digits
        npoints = 24
        monkeypatch.setattr(oracle, "_rule_cache", {})
        runs = recurrence_runs(monkeypatch)
        oracle._rule_entry(1, npoints, dps)
        polish = [n for n, _, shift in runs if shift != oracle.SEED_SHIFT and n == npoints]
        table = [n for n, _, shift in runs if shift != oracle.SEED_SHIFT and n != npoints]
        assert len(polish) == steps * npoints and table == [2 * npoints - 1] * npoints


BUCKETS = sorted({2**k for k in range(3, 12)} | {3 * 2 ** (k - 1) for k in range(3, 12)})


class TestBuckets:
    def test_smallest_exact_bucket_and_the_next_one_up(self):
        for degree in range(2001):
            coarse = oracle._bucket(degree)
            fine = oracle._bucket(2 * coarse)
            assert coarse == min(b for b in BUCKETS if 2 * b - 1 >= degree)
            assert fine == BUCKETS[BUCKETS.index(coarse) + 1]
            assert 2 * coarse - 1 >= degree and fine > coarse
            if degree >= 4:
                # no larger than the fine rule of quad_matrix_element before buckets
                assert fine <= degree + 8

    def test_one_state_family_builds_few_rules(self, monkeypatch):
        monkeypatch.setattr(oracle, "_rule_cache", {})
        before = rule_cache_stats()["misses"]
        for n in range(9):
            q = QuantumNumbers(3, n, 2)
            for s in range(9):
                quad_expectation(q, s)
            sum_over_states_check(q, n + 4)
        assert rule_cache_stats()["misses"] - before <= 5

    @pytest.mark.parametrize("cutoff", [4, 6, 10])
    def test_sum_over_states_builds_only_its_rule_pair(self, monkeypatch, cutoff):
        # every element shares the pair of the largest, degree cutoff + n + 2
        cache = {}
        monkeypatch.setattr(oracle, "_rule_cache", cache)
        q = QuantumNumbers(3, 2, 1)
        before = rule_cache_stats()["misses"]
        sum_over_states_check(q, cutoff)
        assert rule_cache_stats()["misses"] - before == 2
        coarse = oracle._bucket(cutoff + 2 + 2)
        # the pair's two rules, each with its power table of eta^2, nothing else
        rules = [(q.alpha, coarse), (q.alpha, oracle._bucket(2 * coarse))]
        assert set(cache) == {rule_key(*rule) for rule in rules}
        assert all(set(entry[3]) == {2} for entry in cache.values())


def fdot_rule_sum(nodes, weights, rows, n1: int, n2: int, s: int) -> mpf:
    """The mpf sum the oracle made before its int tables: one mp.fdot over
    (w_i x_i^s, p_n1(x_i) p_n2(x_i)) with mpf rows."""
    return mp.fdot((w * x**s, row[n1] * row[n2]) for x, w, row in zip(nodes, weights, rows))


def fixed_point_bound(npoints: int, s: int, x_max, bits: int) -> mpf:
    """The oracle's bound on an int sum: npoints (s + 1) max(1, x)^s 2^-bits."""
    return npoints * (s + 1) * max(1, x_max) ** s / mpf(2) ** bits


class TestNodeTable:
    @staticmethod
    def assert_fixed_point_table(alpha, npoints):
        """Every entry is an int within one unit of its value from the Golub-Welsch
        rule at dps + 10: x_i 2^B and sqrt(w_i) p_k(x_i) 2^B, k <= 2 npoints - 1."""
        entry = bits, xs, columns, _, _ = rule_entry(alpha, npoints)
        assert len(xs) == npoints and len(columns) == 2 * npoints
        assert all(type(v) is int for v in xs)
        assert all(type(q) is int for column in columns for q in column)
        with mp.workdps(working_precision() + 10):
            nodes, weights = golub_welsch_rule(alpha, npoints)
            assert_table_matches(entry, alpha, nodes, weights, 2 * npoints - 1)
        return bits

    def test_rows_are_laguerre_values_at_the_nodes(self, monkeypatch):
        monkeypatch.setattr(oracle, "_rule_cache", {})
        for alpha, npoints in [(F(5, 2), 12), (0, 1), (F(17, 2), 24)]:
            self.assert_fixed_point_table(alpha, npoints)

    def test_each_precision_has_its_own_table(self, monkeypatch):
        monkeypatch.setattr(oracle, "_rule_cache", {})
        bits = {}
        for dps in (15, 50, 80):
            monkeypatch.setenv("SALPETER_PRECISION", str(dps))
            bits[dps] = self.assert_fixed_point_table(F(1, 2), 8)
            # the working precision with guard bits to spare
            assert bits[dps] > dps * math.log2(10) + 10
        assert len(oracle._rule_cache) == 3
        assert bits[15] < bits[50] < bits[80]

    def test_entries_are_bounded(self):
        # sqrt(w_i) p_k(x_i), k < npoints, is an orthogonal matrix; the rows
        # k >= npoints carry no such bound, so hold them to what is measured
        for alpha in (F(-1, 2), 0, F(9, 2), 40):
            for npoints in (1, 2, 3, 8, 24):
                bits, _, columns, _, _ = rule_entry(alpha, npoints)
                low = max(abs(q) for column in columns[:npoints] for q in column)
                high = max(abs(q) for column in columns[npoints:] for q in column)
                assert low <= 1 << bits
                assert high <= 3 * (1 << bits) // 4

    def test_int_sum_matches_the_mpf_sum_within_its_bound(self):
        dps = working_precision()
        with mp.workdps(dps):
            rounding = mpf(2) ** -mp.prec  # the int sum's one rounding to working precision
        for alpha, npoints in [(F(5, 2), 12), (F(17, 2), 8)]:
            bits, k = rule_entry(alpha, npoints)[0], int_order(alpha)
            with mp.workdps(dps + 10):
                nodes, weights = golub_welsch_rule(alpha, npoints)
                rows = orthonormal_rows(alpha, nodes, 2 * npoints - 1)
            for s in range(9):
                bound = fixed_point_bound(npoints, s, nodes[-1], bits)
                # every n1 <= n2 with n1 + n2 + s <= 2 npoints - 1
                for n1 in range(2 * npoints - s):
                    for n2 in range(n1, 2 * npoints - s - n1):
                        (total,), exp = oracle._rule_sums(k, npoints, [(n1, n2)], s, dps)
                        with mp.workdps(dps):
                            value = mpf((total, exp))
                        with mp.workdps(dps + 10):
                            reference = fdot_rule_sum(nodes, weights, rows, n1, n2, s)
                            assert abs(value - reference) <= bound + abs(reference) * rounding

    def test_cached_entry_holds_ints_only(self, monkeypatch):
        # no mpf is kept: the entry is (bits, xs, columns, tables, squares), all
        # ints, with a power table of s = 3 in tables after a sum of eta^3 and
        # the squared column of 2 in squares after a diagonal sum of u_2
        monkeypatch.setattr(oracle, "_rule_cache", {})
        npoints = 8
        entry = rule_entry(F(3, 2), npoints)
        oracle._rule_sums(int_order(F(3, 2)), npoints, [(0, 1), (2, 2)], 3, working_precision())
        found = []

        def walk(value):
            if isinstance(value, dict):
                for key, item in value.items():
                    walk(key)
                    walk(item)
            elif isinstance(value, (tuple, list)):
                for item in value:
                    walk(item)
            else:
                found.append(type(value))

        walk(entry)
        assert type(entry) is tuple and len(entry) == 5
        assert type(entry[3]) is dict and type(entry[4]) is dict
        assert list(entry[3]) == [3] and list(entry[4]) == [2]
        assert found == [int] * (1 + npoints + 2 * npoints * npoints + 2 * (1 + npoints))

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(-1, 20),
        npoints=st.sampled_from([8, 12, 16, 24, 32, 48]),
        s=st.integers(0, 12),
        dps=st.sampled_from([15, 50, 120]),
        data=st.data(),
    )
    def test_sums_are_the_weighted_row_ints(self, k, npoints, s, dps, data):
        # a diagonal pair, summed on its squared column, and an off-diagonal
        # one give the very ints of one weighted row per n2 for every pair
        n = st.integers(0, 2 * npoints - 1)
        pair = st.tuples(n, n) | n.map(lambda m: (m, m))
        pairs = data.draw(st.lists(pair, min_size=1, max_size=6))
        assert oracle._rule_sums(k, npoints, pairs, s, dps) == rule_sums(k, npoints, pairs, s, dps)

    def test_power_tables_are_kept_beside_their_rule(self, monkeypatch):
        cache = {}
        monkeypatch.setattr(oracle, "_rule_cache", cache)
        alpha = F(5, 2)
        quad_matrix_element(1, 2, 2, 3, 3)  # on the rules of 8 and 12 nodes
        for npoints in (8, 12):
            _, xs, _, tables, _ = cache[rule_key(alpha, npoints)]
            assert tables == {3: tuple(x**3 for x in xs)}
        # s = 0 needs no table
        quad_matrix_element(1, 2, 2, 3, 0)
        assert set(cache) == {rule_key(alpha, n) for n in (8, 12)}
        assert all(list(entry[3]) == [3] for entry in cache.values())

    def test_squared_columns_are_kept_beside_their_rule(self, monkeypatch):
        cache = {}
        monkeypatch.setattr(oracle, "_rule_cache", cache)
        alpha = F(5, 2)
        # off the diagonal, no column is squared
        quad_matrix_element(1, 2, 2, 3, 3)  # on the rules of 8 and 12 nodes
        assert [entry[4] for entry in cache.values()] == [{}, {}]
        quad_matrix_element(2, 2, 2, 3, 3)
        squares = {}
        for npoints in (8, 12):
            _, _, columns, tables, squares[npoints] = cache[rule_key(alpha, npoints)]
            assert squares[npoints] == {2: tuple(q * q for q in columns[2])}
            assert list(tables) == [3]
        kept = {npoints: squares[npoints][2] for npoints in (8, 12)}
        # every power of the same element reads the same square, s = 0 included
        for s in (0, 1, 4):
            quad_matrix_element(2, 2, 2, 3, s)
        assert set(cache) == {rule_key(alpha, n) for n in (8, 12)}
        for npoints in (8, 12):
            assert list(squares[npoints]) == [2] and squares[npoints][2] is kept[npoints]

    def test_sixteen_threads_share_rules_and_power_tables(self, monkeypatch):
        # threads that build and read the same rules, power tables and squared
        # columns at once get the values of a serial run, one power table per
        # (rule, s) and one squared column per (rule, n); each rule is built
        # once, and every read counts one hit or one miss
        cache = {}
        monkeypatch.setattr(oracle, "_rule_cache", cache)
        alpha, dps = F(7, 2), working_precision()
        k = int_order(alpha)
        entry, reads = oracle._rule_entry, []

        def counted(*args):
            reads.append(args)
            return entry(*args)

        monkeypatch.setattr(oracle, "_rule_entry", counted)
        before = rule_cache_stats()
        # (n1, n2, s) on l = 3, d = 3, each summed on the rules of 8 and 12 nodes,
        # and the diagonal (n, n, t) with n = i % 2 and t = i % 3 that other
        # threads ask too, summed on the same two rules
        jobs = [(i % 4, i % 3, 1 + i % 5) for i in range(16)]
        barrier = threading.Barrier(len(jobs))
        results = {}

        def ask(i, n1, n2, s):
            barrier.wait(timeout=60)
            tables = oracle._rule_entry(k, 12, dps)[3]
            value = quad_matrix_element(n1, n2, 3, 3, s)
            diagonal = quad_matrix_element(i % 2, i % 2, 3, 3, i % 3)
            squares = [oracle._rule_entry(k, npoints, dps)[4][i % 2] for npoints in (8, 12)]
            results[i] = (value, tables[s], diagonal, squares)

        threads = [threading.Thread(target=ask, args=(i, *job)) for i, job in enumerate(jobs)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == list(range(len(jobs)))
        after = rule_cache_stats()
        # three reads by each thread itself and two by each quad_matrix_element
        assert len(reads) == 7 * len(jobs)
        hits, misses = (after[name] - before[name] for name in ("hits", "misses"))
        assert hits + misses == len(reads)
        assert misses == len({rule_key(alpha, 8), rule_key(alpha, 12)} & set(cache)) == 2
        _, xs, _, tables, _ = oracle._rule_entry(k, 12, dps)
        for i, (n1, n2, s) in enumerate(jobs):
            value, table, diagonal, _ = results[i]
            assert table is tables[s]
            assert table == tuple(x**s for x in xs)
            assert value == quad_matrix_element(n1, n2, 3, 3, s)
            assert diagonal == quad_matrix_element(i % 2, i % 2, 3, 3, i % 3)
        for rule, npoints in enumerate((8, 12)):
            _, _, columns, _, squares = oracle._rule_entry(k, npoints, dps)
            # the jobs' diagonal elements, (0, 0), (1, 1) and (2, 2), add n = 2
            assert set(squares) == {0, 1, 2}
            for n, square in squares.items():
                assert square == tuple(q * q for q in columns[n])
            for i in results:
                assert results[i][3][rule] is squares[i % 2]

    def test_table_disagreeing_with_its_weights_is_not_cached(self, monkeypatch):
        alpha, npoints = F(27, 2), 6  # a rule no other test builds
        table_row = oracle._table_row
        # every entry 1 + 1e-9 times too large: sum_i Q_i0^2 is then 2^(2B) (1 + 2e-9)
        monkeypatch.setattr(
            oracle, "_table_row", lambda *args: [q + q // 10**9 for q in table_row(*args)]
        )
        with pytest.raises(ArithmeticError, match=r"sum_i Q_i0\^2 != 2\^\(2B\)"):
            rule_entry(alpha, npoints)
        assert rule_key(alpha, npoints) not in oracle._rule_cache
        monkeypatch.undo()
        self.assert_fixed_point_table(alpha, npoints)
        assert rule_key(alpha, npoints) in oracle._rule_cache


def recurrence_error_bound(alpha: Fraction, x: float, order: int) -> list[float]:
    """The bound of oracle.laguerre_fixed, in units: [sum_(j=1..k) |G_j(k)| for
    k <= order], each G_j run in floats from G_j(j - 1) = 0, G_j(j) = 1."""
    a = float(alpha)
    bound = [0.0] * (order + 1)
    for j in range(1, order + 1):
        prev, curr = 0.0, 1.0
        bound[j] += 1.0
        for k in range(j, order):
            prev, curr = curr, ((2 * k + 1 + a - x) * curr - (k + a) * prev) / (k + 1)
            bound[k + 1] += abs(curr)
    return bound


def reference_rule_entry(alpha, npoints: int) -> tuple[int, tuple, tuple]:
    """(bits, xs, columns) of a rule as the oracle built it before its int
    recurrence: the same seeds, then the Newton polish and every table row on
    oracle.laguerre_values in mpf at dps + 10 digits."""
    alpha = Fraction(alpha)
    dps = working_precision()
    seeds = oracle._seed_zeros(alpha, npoints)
    bits = math.ceil(dps * math.log2(10)) + 20
    with mp.workdps(dps + 10):
        a = to_float(alpha)
        scale = mp.gamma(npoints + a + 1) / mp.factorial(npoints)
        steps = math.ceil(math.log2((dps + 10) / 12))
        c = [1 / mp.sqrt(mp.gamma(a + 1))]
        for k in range(1, 2 * npoints):
            c.append(c[-1] * mp.sqrt(mpf(k) / (k + a)))
        xs, rows = [], []
        for z in seeds:
            x = mpf(z)
            for _ in range(steps):
                *_, prev, p = laguerre_values(npoints, a, x)
                dp = (npoints * p - (npoints + a) * prev) / x
                step = p / dp
                x -= step
            # carry L' from the last iterate to the node: x L'' = (x - a - 1) L' - n L
            dp += step * ((a + 1 - x - step) * dp + npoints * p) / (x + step)
            xs.append(oracle._fixed(*x._mpf_[:3], bits))
            _, man_w, exp_w, _ = mp.sqrt(scale / (x * dp * dp))._mpf_
            values = [mpf(1)] + laguerre_values(2 * npoints - 1, a, x)[1:]
            # each entry the exact product of three mantissas, rounded once
            rows.append(
                [
                    oracle._fixed(sign, man_c * man_w * man, exp_c + exp_w + exp, bits)
                    for (_, man_c, exp_c, _), (sign, man, exp, _) in zip(
                        (ck._mpf_ for ck in c), (v._mpf_ for v in values)
                    )
                ]
            )
    return bits, tuple(xs), tuple(zip(*rows))


class TestCacheKeys:
    def test_equal_orders_share_one_entry(self, monkeypatch):
        # the interdimensional degeneracy: 2 l + d - 2 = 6 at each (d, l), so
        # a call at any one builds the rules of 8 and 12 nodes that the
        # other two read
        degenerate = [(2, 3), (4, 2), (6, 1)]
        for d, l in degenerate:
            monkeypatch.setattr(oracle, "_rule_cache", {})
            quad_matrix_element(1, 2, l, d, 2)
            misses = rule_cache_stats()["misses"]
            for other_d, other_l in degenerate:
                quad_matrix_element(1, 2, other_l, other_d, 2)
            assert rule_cache_stats()["misses"] == misses
            assert set(oracle._rule_cache) == {rule_key(3, 8), rule_key(3, 12)}

    def test_warm_calls_hash_no_fraction(self, monkeypatch):
        monkeypatch.setattr(oracle, "_rule_cache", {})
        q = QuantumNumbers(3, 2, 1)
        calls = [
            lambda: quad_matrix_element(2, 2, 1, 3, 4),
            lambda: quad_matrix_element(1, 3, 2, 4, 1),  # an int alpha, 3
            lambda: sum_over_states_check(q, 6),
            lambda: orthonormality_check(1, 3, 4),
        ]
        cold = [call() for call in calls]
        counted = []

        def count(name, method):
            def counting(*args, **kwargs):
                counted.append(name)
                return method(*args, **kwargs)

            return staticmethod(counting) if name == "__new__" else counting

        for name in ("__new__", "__hash__", "__eq__"):
            monkeypatch.setattr(Fraction, name, count(name, getattr(Fraction, name)))
        # the count sees every Fraction made, hashed or compared
        assert F(1, 3) in {F(2, 6)}
        assert counted == ["__new__", "__new__", "__hash__", "__hash__", "__eq__"]
        warm, seen = [], []
        for call in calls:
            counted.clear()
            warm.append(call())
            seen.append(set(counted))
        # no warm call makes a Fraction but orthonormality_check, whose
        # QuantumNumbers(d, 0, l) checks l and makes n = Fraction(0)
        assert seen == [set(), set(), set(), {"__new__"}]
        assert [v._mpf_ for v in warm] == [v._mpf_ for v in cold]
        assert all(
            type(key) is tuple and all(type(k) is int for k in key) for key in oracle._rule_cache
        )


def laguerre_fixed_per_step(n: int, alpha: Fraction, X: int, bits: int) -> list[int]:
    """oracle.laguerre_fixed with each step's coefficients formed afresh from k,
    ((2k + 1) b + a) 2^bits - b X, k b + a and b (k + 1)."""
    a, b = alpha.numerator, alpha.denominator
    one = 1 << bits
    values = [one][: n + 1]
    prev, curr, bx = 0, one, b * X
    for k in range(n):
        factor = ((2 * k + 1) * b + a) * one - bx
        prev, curr = curr, ((factor * curr >> bits) - (k * b + a) * prev) // (b * (k + 1))
        values.append(curr)
    return values


# sha256 over (k, npoints, dps, bits, xs, columns) of each rule of RULE_DIGEST_RULES,
# in that order, as the build gave them before it carried running coefficients
RULE_DIGEST_RULES = [(k, n, dps) for k in (0, 1, 3, 7) for n in (8, 12, 16, 24) for dps in (15, 50)]
RULE_DIGEST = "603aded668690dc44d5c7388f6e7ce707bd0c7f06b8afea0db061fd2b949955a"
# the same over the six rules of a cold benchmark pass, k = 1 at 96 nodes at
# each polish length, and two rules at the ends of the order, as the build gave
# them with Newton seeds and a Newton polish
BUILDER_DIGEST_RULES = (
    [(k, n, 50) for k in (0, 7, 9) for n in (8, 12)]
    + [(1, 96, dps) for dps in (15, 50, 120)]
    + [(99998, 24, 50), (-1, 8, 50)]
)
BUILDER_DIGEST = "06480307b2d8ebbb3dabce7d2c8e08e6fb9bc96868fafdbcabf7bc8c55877bd5"


class TestIntBuild:
    ALPHAS = (F(-1, 2), 0, F(9, 2), 40)

    def test_rules_match_their_golden_digest(self, monkeypatch):
        monkeypatch.setattr(oracle, "_rule_cache", {})
        digest = hashlib.sha256()
        for k, npoints, dps in RULE_DIGEST_RULES:
            bits, xs, columns, _, _ = oracle._rule_entry(k, npoints, dps)
            digest.update(repr((k, npoints, dps, bits, xs, columns)).encode())
        assert digest.hexdigest() == RULE_DIGEST

    def test_builder_rules_match_their_golden_digest(self, monkeypatch):
        monkeypatch.setattr(oracle, "_rule_cache", {})
        digest = hashlib.sha256()
        for k, npoints, dps in BUILDER_DIGEST_RULES:
            bits, xs, columns, _, _ = oracle._rule_entry(k, npoints, dps)
            digest.update(repr((k, npoints, dps, bits, xs, columns)).encode())
        assert digest.hexdigest() == BUILDER_DIGEST

    def test_recurrence_matches_the_per_step_formula(self):
        rng = random.Random(32)
        cases = [(n, F(1, 2), 3 << 64, 64) for n in (-1, 0, 1)]
        for _ in range(300):
            n, den = rng.randrange(-1, 80), rng.randrange(1, 8)
            alpha = F(rng.randrange(1 - den, 200), den)  # alpha > -1
            bits = rng.choice((0, 1, 64, 200))
            X = rng.randrange(-(1 << bits), 400 << bits)
            cases.append((n, alpha, X, bits))
        for n, alpha, X, bits in cases:
            assert laguerre_fixed(n, alpha, X, bits) == laguerre_fixed_per_step(n, alpha, X, bits)

    def test_fixed_point_recurrence_within_its_bound(self):
        # at the nodes, on the oracle's scale 2^P; exact Fraction references are
        # slow at high order: every node of the 8- and 24-node rules, the
        # smallest and largest of the 96-node rule
        shift = math.ceil((working_precision() + 10) * math.log2(10)) + 32
        for alpha in self.ALPHAS:
            for npoints in (8, 24, 96):
                bits, xs, _, _, _ = rule_entry(alpha, npoints)
                order = 2 * npoints - 1
                for X in xs if npoints < 96 else (xs[0], xs[-1]):
                    X <<= shift - bits
                    values = laguerre_fixed(order, F(alpha), X, shift)
                    exact = laguerre_values(order, F(alpha), F(X, 1 << shift))
                    bound = recurrence_error_bound(F(alpha), X / 2**shift, order)
                    assert values[0] == 1 << shift and len(values) == order + 1
                    for y, value, limit in zip(values, exact, bound):
                        assert abs(y - value * (1 << shift)) <= limit * (1 + 1e-9)

    def test_int_build_matches_the_mpf_build(self, monkeypatch):
        monkeypatch.setattr(oracle, "_rule_cache", {})
        for alpha in self.ALPHAS:
            for npoints in (1, 8, 12, 24, 48):
                bits, xs, columns, _, _ = rule_entry(alpha, npoints)
                ref_bits, ref_xs, ref_columns = reference_rule_entry(alpha, npoints)
                assert bits == ref_bits and xs == ref_xs
                for column, ref_column in zip(columns, ref_columns, strict=True):
                    assert all(abs(q - r) <= 1 for q, r in zip(column, ref_column, strict=True))


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

    def test_d1_unsupported(self, monkeypatch):
        # whole and half-integer n alike, before a rule is read
        def fail(*args):
            raise AssertionError("a rule was read")

        monkeypatch.setattr(oracle, "_rule_entry", fail)
        for N in range(4):
            with pytest.raises(UnsupportedDimension, match=r"^quadrature oracle requires d >= 2$"):
                quad_expectation(QuantumNumbers.one_dim(N), 2)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            quad_expectation(QuantumNumbers(3, 0, 0), -1)

    def test_error_measured_at_working_precision(self):
        # the exact <eta^8> at (3, 40, 10) has a 66-bit numerator: rounded at
        # an ambient 15 digits, it alone would read as an error near 1e-17
        with mp.workdps(15):
            error = checks.expectation_error([(QuantumNumbers(3, 40, 10), 8)])
        assert error < mpf("1e-45")


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

    @pytest.mark.parametrize(
        "args,error",
        [
            ((2, 0, 0, 3, -1), ValueError),
            ((0, 2, 1, 5, -2), ValueError),
            ((-1, 0, 0, 3, 0), InvalidQuantumNumbers),
            ((0, -1, 0, 3, 2), InvalidQuantumNumbers),
            ((1, 0, -1, 3, 1), InvalidQuantumNumbers),
            ((1, 0, 0, 1, 2), UnsupportedDimension),
            # a non-int power, refused before any rule is built
            ((0, 0, 0, 3, 1.5), ValueError),
            ((0, 0, 0, 3, 2.0), ValueError),
            ((0, 0, 0, 3, Fraction(3, 2)), ValueError),
        ],
    )
    def test_bad_arguments_rejected(self, args, error):
        misses = rule_cache_stats()["misses"]
        with pytest.raises(error):
            quad_matrix_element(*args)
        assert rule_cache_stats()["misses"] == misses

    def test_negative_power_message(self):
        with pytest.raises(ValueError, match=r"^s must be >= 0, got -1$"):
            quad_matrix_element(2, 0, 0, 3, -1)

    def test_cancelling_element_names_its_cause(self, monkeypatch):
        # <u_0|eta^30|u_40> is exactly 0 (n2 > s), but the terms it cancels
        # reach x_max^30 and leave more than 1e-14 at 50 digits: the two rules
        # differ only within their int sums' error bound
        monkeypatch.delenv("SALPETER_PRECISION", raising=False)
        message = r"^<u_0\|eta\^30\|u_40> cancels below the working digits"
        with pytest.raises(ArithmeticError, match=message):
            quad_matrix_element(0, 40, 0, 3, 30)


class TestOrthonormality:
    @pytest.mark.parametrize("l,d", [(0, 2), (0, 3), (2, 3), (1, 5)])
    def test_within_tolerance(self, l, d):
        assert orthonormality_check(l, d, 6) <= mpf("1e-12")

    def test_negative_n_max_rejected(self):
        # n_max = -1 would check no pair and report 0
        with pytest.raises(ValueError):
            orthonormality_check(0, 3, -1)

    @pytest.mark.parametrize("l", [-1, -2, 1.5])
    def test_bad_l_rejected(self, l):
        # at d = 3, l = -1 would give alpha = -1/2, a rule that exists
        with pytest.raises(InvalidQuantumNumbers):
            orthonormality_check(l, 3, 4)


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


def sum_over_states_reference(q: QuantumNumbers, cutoff: int) -> mpf:
    """(1/128) sum_(n' != n) <u_n'|eta^2|u_n>^2 / (n - n'), each element its
    own quad_matrix_element, summed in mpf at dps + 20."""
    n = int(q.n)
    elements = {m: quad_matrix_element(m, n, q.l, q.d, 2) for m in range(cutoff + 1) if m != n}
    with mp.workdps(working_precision() + 20):
        return mp.fsum(e * e / (n - m) for m, e in elements.items()) / 128


def orthonormality_reference(l: int, d: int, n_max: int) -> mpf:
    """max |<u_n1|u_n2> - delta| over n1 <= n2 <= n_max, each element its own
    quad_matrix_element, in mpf at dps + 20."""
    pairs = [(n1, n2) for n1 in range(n_max + 1) for n2 in range(n1, n_max + 1)]
    elements = {pair: quad_matrix_element(*pair, l, d, 0) for pair in pairs}
    with mp.workdps(working_precision() + 20):
        return max(abs(value - (n1 == n2)) for (n1, n2), value in elements.items())


class TestSharedRulePair:
    # every element of a check is summed on the rule pair of its largest one,
    # and the check is formed in ints: it must agree with the same check
    # assembled from one quad_matrix_element per element

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_sum_over_states_matches_per_element_sums(self, d):
        for n in range(9):
            for l in (0, 3):
                q = QuantumNumbers(d, n, l)
                for cutoff in (n + 2, n + 4, n + 8):
                    value = sum_over_states_check(q, cutoff)
                    reference = sum_over_states_reference(q, cutoff)
                    with mp.workdps(working_precision() + 20):
                        assert abs(value - reference) <= mpf("1e-45") * abs(reference), (q, cutoff)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_orthonormality_matches_per_element_sums(self, d):
        # the Gram matrix's entries are of size 1, and so is their scale here
        for l in (0, 3, 8):
            for n_max in range(9):
                value = orthonormality_check(l, d, n_max)
                with mp.workdps(working_precision() + 20):
                    assert abs(value - orthonormality_reference(l, d, n_max)) <= mpf("1e-45")

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_shared_pair_entries_match_quad_matrix_element(self, d):
        # the entries themselves, on the Gram matrix's triangle and the
        # sum-over-states column, each to within 1e-45 of its own element
        k, dps = int_order(QuantumNumbers(d, 0, 2).alpha), working_precision()
        triangle = [(n1, n2) for n1 in range(9) for n2 in range(n1, 9)]
        column = [(m, 5) for m in range(14) if m != 5]
        for pairs, s in ((triangle, 0), (column, 2)):
            totals, exp = oracle._bracket(k, pairs, s, dps)
            assert len(totals) == len(pairs)
            for total, (n1, n2) in zip(totals, pairs):
                element = quad_matrix_element(n1, n2, 2, d, s)
                with mp.workdps(dps + 20):
                    assert abs(mpf((total, exp)) - element) <= mpf("1e-45") * max(1, abs(element))


def off_eigenvalue_ratio(q: QuantumNumbers, eta: Fraction, delta: Fraction) -> Fraction:
    """The radial residual's exact ratio at eta with the energy eps0 + delta.

    At the eigenvalue the residual is 0; off it by delta only the potential
    term moves, by -2 delta eta P, so the ratio is 2 |delta| eta |P| / scale,
    with P, P' and P'' from laguerre_values on Fractions."""
    n, l, d = int(q.n), q.l, q.d
    alpha, e, eta = q.alpha, energy_unperturbed(q) + delta, F(eta)
    p0 = laguerre_values(n, alpha, eta)[-1]
    p1 = -(laguerre_values(n - 1, alpha + 1, eta) or [0])[-1]
    p2 = (laguerre_values(n - 2, alpha + 2, eta) or [0])[-1]
    ang = d - 3 + l * (l + d - 2)
    d2u = (
        (l * (l + 1) + eta * (eta - 2 * l - 3)) * p0
        + 2 * eta * (2 * l + 3 - 2 * eta) * p1
        + 4 * eta**2 * p2
    )
    drift = (d - 3) * ((l + 1 - eta) * p0 + 2 * eta * p1)
    scale = abs(d2u) + abs(p0) * (eta**2 + 2 * abs(e) * eta + abs(ang)) + abs(drift)
    return 2 * abs(delta) * eta * abs(p0) / scale if scale else F(0)


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

    # d = 3 states with a sample eta where eta^2 - 2 E eta + l(l + 1) = 0: there
    # u'' and the potential term are both rounding noise
    TURNING_POINTS = [
        (QuantumNumbers(3, 1, 5), 2),
        (QuantumNumbers(3, 1, 10), 5),
        (QuantumNumbers(3, 2, 6), 2),
        (QuantumNumbers(3, 7, 6), 1),
    ]

    @pytest.mark.parametrize("q,eta", TURNING_POINTS)
    def test_classical_turning_point(self, q, eta):
        e = energy_unperturbed(q)
        assert eta * eta - 2 * e * eta + q.l * (q.l + 1) == 0
        assert radial_residual(q, [eta]) <= checks.TOL_RESIDUAL

    @pytest.mark.parametrize("q,eta", TURNING_POINTS)
    def test_wrong_energy_detected_at_turning_point(self, q, eta):
        wrong = energy_unperturbed(q) + F(1, 1000)
        assert radial_residual(q, [eta], energy=wrong) > mpf("1e-6")

    def test_energy_override_read_at_working_precision(self):
        # at the 15-digit ambient precision the shifted energy would round to 7/2
        assert mp.dps == 15
        energy = F(7, 2) + F(1, 10**30)
        assert radial_residual(QuantumNumbers(3, 1, 0), SAMPLE_ETAS, energy=energy) > mpf("1e-31")

    @pytest.mark.parametrize(
        "etas",
        [[], [1, -1], [F(-1, 2)], [0], [F(1, 2), 0, 2]],
        ids=["empty", "negative", "negative-fraction", "zero", "zero-among-positive"],
    )
    def test_rejects_bad_sample(self, etas):
        with pytest.raises(ValueError):
            radial_residual(QuantumNumbers(3, 1, 0), etas)

    def test_far_beyond_acceptance_grid(self):
        etas = [F(1, 10), F(1, 2), 1, 2, F(7, 2), 5, 20, 60]
        worst = max(
            radial_residual(QuantumNumbers(d, n, l), etas)
            for d in (2, 3, 7, 20)
            for n in (10, 25, 40)
            for l in (0, 15, 30)
        )
        assert worst <= checks.TOL_RESIDUAL

    @pytest.mark.parametrize("etas,energy", [([mpf(1) / 3], None), ([1, 2], mpf(7) / 2)])
    def test_mpf_input_refused_before_any_work(self, etas, energy, monkeypatch):
        # eta and the energy are read exactly by Fraction(), which takes no mpf
        calls = []
        monkeypatch.setattr(oracle, "_laguerre_int", lambda *args: calls.append(args))
        with pytest.raises(TypeError):
            radial_residual(QuantumNumbers(3, 1, 0), etas, energy=energy)
        assert calls == []

    @pytest.mark.parametrize(
        "q,eta", [(QuantumNumbers(3, 1, 0), F(3, 2)), (QuantumNumbers(3, 1, 2), F(7, 2))]
    )
    def test_radial_node_in_three_dimensions(self, q, eta):
        # L_1^(alpha) vanishes at eta = alpha + 1, and for d = 3 so do u'' and
        # the drift: every piece is 0, at any energy, and the point is skipped
        assert laguerre_values(1, q.alpha, eta)[-1] == 0
        assert radial_residual(q, [eta]) == radial_residual(q, [eta], energy=9) == 0

    @pytest.mark.parametrize("q", CRITERION_5_STATES, ids=case_id)
    def test_exactly_zero_at_the_eigenvalue(self, q):
        assert all(radial_residual(q, [eta]) == 0 for eta in CRITERION_5_ETAS)

    @pytest.mark.parametrize(
        "q,etas",
        [(q, CRITERION_5_ETAS) for q in CRITERION_5_STATES]
        + [(q, [eta]) for q, eta in TURNING_POINTS],
        ids=case_id,
    )
    def test_matches_the_eigenfunction_reference(self, q, etas):
        # the ratio from u_derivatives in mpf at 50 digits, one point at a time,
        # off the eigenvalue, where it is well above rounding
        ang = q.d - 3 + q.l * (q.l + q.d - 2)
        for energy in (energy_unperturbed(q) + F(1, 1000), energy_unperturbed(q) - F(1, 1000)):
            for eta in etas:
                exact = radial_residual(q, [eta], energy=energy)
                with mp.workdps(50):
                    e, r = to_float(energy), mp.sqrt(to_float(F(eta)))
                    ((u, du, d2u),) = u_derivatives(q, [r])
                    centrifugal = ang / (r * r)
                    drift = ((q.d - 3) / r) * du
                    residual = abs(d2u - (r * r - 2 * e + centrifugal) * u + drift)
                    scale = abs(d2u) + abs(u) * (r * r + 2 * abs(e) + abs(centrifugal)) + abs(drift)
                    assert abs(residual / scale - exact) <= mpf("1e-40") * exact, (eta, energy)

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 100),
        n=st.integers(0, 200),
        l=st.integers(0, 200),
        eta=st.builds(F, st.integers(1, 10**6), st.integers(1, 10**6)),
        delta=st.builds(F, st.integers(-1000, 1000).filter(bool), st.integers(1, 10**6)),
    )
    def test_exact_far_beyond_the_grid(self, d, n, l, eta, delta):
        # 0 at the eigenvalue, and off it the exact ratio rounded once
        q = QuantumNumbers(d, n, l)
        assert radial_residual(q, [eta]) == 0
        expected = off_eigenvalue_ratio(q, eta, delta)
        with mp.workdps(working_precision()):
            man, exp = radial_residual(q, [eta], energy=energy_unperturbed(q) + delta).man_exp
            # the exact ratio, rounded once to the nearest mpf
            assert abs(man * F(2) ** exp - expected) <= expected / 2 ** (mp.prec - 1)

    def test_d1_unsupported(self):
        with pytest.raises(UnsupportedDimension):
            radial_residual(QuantumNumbers.one_dim(2), SAMPLE_ETAS)


class TestRounding:
    @staticmethod
    def cases(rng: random.Random) -> list[tuple[int, int]]:
        """(num, den) pairs: signed ints of 1 to 4000 bits over powers of two
        and over other ints, and exact ties at the working precision."""
        prec = dps_to_prec(working_precision())
        cases = []
        for _ in range(600):
            bits = rng.randint(1, 4000)
            num = rng.choice((1, -1)) * ((1 << (bits - 1)) | rng.getrandbits(bits - 1))
            power = 1 << rng.randrange(4000)
            other = rng.getrandbits(rng.randint(2, 4000)) | 3  # two bits set: no power of two
            # a tie: prec + 1 significant bits ending in 1, over a power of two or
            # times and over an odd int
            tie = rng.choice((1, -1)) * ((1 << prec) | rng.getrandbits(prec) | 1)
            odd = rng.getrandbits(rng.randint(1, 2000)) | 1
            cases += [(num, power), (num, other), (tie << rng.randrange(100), power), (tie * odd, odd)]
        return cases

    def test_matches_mpmath_division(self):
        # each num / den 2^exp is the division at 8000 more bits rounded to dps
        # digits, and mp.fdiv's one rounding at dps digits, bit for bit
        rng, dps = random.Random(28), working_precision()
        for num, den in self.cases(rng):
            exp = rng.randint(-3000, 3000)
            got = oracle._rounded(num, den, exp, dps)
            with mp.workdps(dps):
                wide = mp.ldexp(mp.fdiv(num, den, prec=mp.prec + 8000), exp)
                assert got._mpf_ == mpf(wide)._mpf_ == mp.ldexp(mp.fdiv(num, den), exp)._mpf_

    def test_ties_round_to_even(self):
        # prec + 1 bits ending in 1: ...0|1 rounds down, ...1|1 up, to an even last bit
        dps = working_precision()
        prec = dps_to_prec(dps)
        for low, even in ((1, 1 << (prec - 1)), (3, (1 << (prec - 1)) + 2)):
            man = (1 << prec) | low
            assert oracle._rounded(man, 1, 0, dps) == 2 * even
            assert oracle._rounded(-man * 7, 14, 0, dps) == -even

    @pytest.mark.parametrize("dps", [15, 50, 300])
    def test_direct_mpf_matches_fdiv(self, dps):
        # the mpf made from the normalized tuple is mp.fdiv's at dps digits,
        # bit for bit: signed random ratios, ties, exact results with many
        # trailing zero bits and a zero numerator
        rng, prec = random.Random(30), dps_to_prec(dps)
        cases = []
        for _ in range(200):
            num = rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 3000)) or 1
            den = rng.getrandbits(rng.randint(1, 3000)) | 1
            tie = rng.choice((1, -1)) * ((1 << prec) | rng.getrandbits(prec) | 1)
            odd = rng.getrandbits(rng.randint(1, 40)) | 1
            cases += [(num, den), (num, 1 << rng.randrange(3000)), (tie, 1), (tie * den, den)]
            # odd << zeros over den: an exact quotient of few significant bits
            cases.append((rng.choice((1, -1)) * (odd * den << rng.randrange(2000)), den))
        cases += [(0, 1), (0, 7), (-(1 << 900), 1), (1 << prec + 1, 3)]
        with mp.workdps(dps):
            for num, den in cases:
                exp = rng.randint(-3000, 3000)
                got = oracle._rounded(num, den, exp, dps)
                assert type(got) is mpf
                assert got._mpf_ == mp.ldexp(mp.fdiv(num, den), exp)._mpf_
        assert oracle._rounded(0, 3, 5, dps)._mpf_ == mpf(0)._mpf_
        # prec + 1 bits ending in ...1|1: a tie, to the even (1 << prec - 1) + 2,
        # whose one trailing zero bit is dropped
        man, even = (1 << prec) | 3, (1 << prec - 1) + 2
        assert oracle._rounded(-man, 1, 0, dps)._mpf_ == (1, even >> 1, 2, prec - 1)

    @pytest.mark.parametrize("q", CRITERION_5_STATES, ids=case_id)
    def test_radial_residual_rounds_like_fdiv(self, q):
        # off the eigenvalue, the worst exact ratio over criterion 5's sample
        # points, rounded by mp.fdiv at working precision, bit for bit
        delta = F(1, 1000)
        worst = max(off_eigenvalue_ratio(q, eta, delta) for eta in CRITERION_5_ETAS)
        value = radial_residual(q, CRITERION_5_ETAS, energy=energy_unperturbed(q) + delta)
        with mp.workdps(working_precision()):
            assert value._mpf_ == mp.fdiv(worst.numerator, worst.denominator)._mpf_


class TestPrecisionControl:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("SALPETER_PRECISION", raising=False)
        assert working_precision() == 50

    def test_override(self, monkeypatch):
        monkeypatch.setenv("SALPETER_PRECISION", "30")
        assert working_precision() == 30

    def test_read_once_per_matrix_element(self, monkeypatch):
        # both rules of a call are looked up at the precision the call read
        calls = []
        read = oracle.working_precision

        def counted():
            calls.append(None)
            return read()

        monkeypatch.setattr(oracle, "working_precision", counted)
        for n in (0, 3, 7):
            quad_matrix_element(n, n + 1, 1, 3, 2)
        assert len(calls) == 3

    def test_too_low_rejected(self, monkeypatch):
        monkeypatch.setenv("SALPETER_PRECISION", "10")
        with pytest.raises(ValueError):
            working_precision()

    def test_each_call_reads_the_variable(self, monkeypatch):
        # each distinct value is parsed once, but the variable is read at every call
        for value in ("30", "60", "30"):
            monkeypatch.setenv("SALPETER_PRECISION", value)
            assert working_precision() == int(value)
        monkeypatch.delenv("SALPETER_PRECISION")
        assert working_precision() == 50

    def test_bad_value_raises_at_every_call(self, monkeypatch):
        for value in ("10", "abc", "10"):
            monkeypatch.setenv("SALPETER_PRECISION", value)
            message = rf"^SALPETER_PRECISION must be an integer >= 15, got '{value}'$"
            with pytest.raises(ValueError, match=message):
                working_precision()
