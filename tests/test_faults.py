"""Faults injected into one derivation must trip the checks that cover it.

Each row of FAULTS replaces one name in one module or class and lists the
exact checks that must then fail on the small grid; every other check in
CHECKS must still pass.  The faults live here only: nothing in the package
has a hook for them.
"""

import math
from fractions import Fraction
from unittest import mock

import pytest

from salpeter_qho import checks, corrections, kramers, ladder2d, laguerre_me, oracle, spectrum
from salpeter_qho.states import QuantumNumbers, energy_unperturbed

SMALL = checks.GRIDS["small"]
SMALL_RADIAL = checks.radial_grid(SMALL["d_max"], SMALL["nl_max"], SMALL["N1_max"])
ORACLE_CASES = [
    (QuantumNumbers(3, 2, 1), 2),
    (QuantumNumbers(2, 0, 3), 4),
    (QuantumNumbers(5, 1, 0), 1),
]


def oracle_failure():
    """The worst quadrature error on ORACLE_CASES above TOL_EXPECT, or a convergence error."""
    try:
        worst = checks.expectation_error(ORACLE_CASES)
    except ArithmeticError as exc:
        return exc
    return worst if worst > checks.TOL_EXPECT else None


# criterion 5's sample points, on a few of its states
RESIDUAL_ETAS = [Fraction(1, 10), Fraction(1, 2), 1, 2, Fraction(7, 2), 5]
RESIDUAL_STATES = [QuantumNumbers(3, 3, 2), QuantumNumbers(2, 8, 0), QuantumNumbers(5, 8, 8)]


def residual_failure():
    """The worst radial residual on RESIDUAL_STATES above TOL_RESIDUAL."""
    worst = max(oracle.radial_residual(q, RESIDUAL_ETAS) for q in RESIDUAL_STATES)
    return worst if worst > checks.TOL_RESIDUAL else None


CHECKS = {
    "first_order": lambda: checks.first_order_failure(SMALL_RADIAL),
    "second_order": lambda: checks.second_order_failure(SMALL_RADIAL),
    "ladder": lambda: checks.ladder_failure(SMALL["ladder_N"]),
    "oracle": oracle_failure,
    "residual": residual_failure,
    "degeneracy": lambda: None if checks.degeneracy_sum_rule_holds() else "sum rule fails",
    "operator_self_test": lambda: None if checks.operator_self_test_holds() else "self-test fails",
}


def rungs_off_by_one(q):
    """laguerre_me._rungs with each 4 D^2 from (k+2)(k+l+d/2) in place of (k+1)(k+l+d/2)."""
    k, s = int(2 * q.n), q.d + 2 * q.l

    def d2(k):
        return (k + 4) * (k + s) if k + 2 > 0 else 0

    return d2(k + 2), d2(k), 2 * k + s, d2(k - 2), d2(k - 4)


def part2_unit_denominators(a2, a, e, b, b2):
    """4096 times part II with n - n' = +-1 for the n' = n+-2 terms as well."""
    return 2 * (b * b2 - a * a2) + 8 * (b * (e - 2) ** 2 - a * (e + 2) ** 2)


_scaled_corrections = corrections._scaled_corrections


def closed_form_e2_plus_one(m, s):
    """512 eps2 one too large."""
    e1, e2 = _scaled_corrections(m, s)
    return e1, e2 + 1


def closed_form_e1_minus_one(m, s):
    """32 eps1 one too small."""
    e1, e2 = _scaled_corrections(m, s)
    return e1 - 1, e2


def kramers_angular_off_by_one(q, s):
    """kramers._moment's (numerator, denominator) of <r^(s+2)>, from the
    Fraction recursion with 2t(ang + 1) in place of 2t ang."""
    e, ang = energy_unperturbed(q), q.d - 2 + q.l * (q.l + q.d - 2)
    prev, curr = Fraction(0), Fraction(1)
    for t in range(0, s + 2, 2):
        coeff = 2 * t * ang + Fraction(t, 2) * (4 - q.d - t) * (4 - q.d + t)
        prev, curr = curr, (2 * e * (2 * t + 2) * curr - coeff * prev) / (2 * t + 4)
    return curr.numerator, curr.denominator


_p4_operators = ladder2d.p4_operators
_second_order_operator = ladder2d._second_order_operator
_shifted = ladder2d._shifted


def p4_blocks_without_l2_ab():
    """ladder2d.p4_operators with the -4 a.b term of L2 dropped."""
    blocks = _p4_operators()
    blocks["L2"] = blocks["L2"] + ladder2d.LadderExpr.mono("a", "b", coeff=4)
    return blocks


def shifted_cross_species(monomials, da, db):
    """ladder2d._shifted with n_b one too large once the a occupation has been
    raised, so that in a product the b lowering factor of the left operator
    reads n_b + 1 after a right operator that raises a: b no longer commutes with ad."""
    return _shifted(monomials, da, db + (da > 0))


# (p^2)^2 and W composed under that fault, as the corrections would apply them
# had they been built so at import
with mock.patch.object(ladder2d, "_shifted", shifted_cross_species):
    P4_CROSS_SPECIES = ladder2d.p2_expr() * ladder2d.p2_expr()
    P6_CROSS_SPECIES = P4_CROSS_SPECIES * ladder2d.p2_expr()
    W_CROSS_SPECIES = _second_order_operator(P4_CROSS_SPECIES, P6_CROSS_SPECIES)


_degeneracy_level = spectrum.degeneracy_level
_rule_entry = oracle._rule_entry


def scaled_rules(only=None):
    """oracle._rule_entry with every table entry of every rule, or of the
    `only`-node rules, times sqrt(1 + 1e-9), so each sum on them is 1 + 1e-9
    times too large; the cached entries stay as they are, and each rule's
    power tables, of its xs, pass through untouched."""
    factor = math.isqrt(2**128 + 2**128 // 10**9)  # sqrt(1 + 1e-9) 2^64

    def entry(k, npoints, dps):
        bits, xs, columns, tables = _rule_entry(k, npoints, dps)
        if only in (None, npoints):
            columns = tuple(tuple(q * factor >> 64 for q in column) for column in columns)
        return bits, xs, columns, tables

    return entry


def laguerre_fixed_coefficient_plus_one(n, alpha, X, bits):
    """oracle.laguerre_fixed with k + alpha + 1 in place of k + alpha."""
    a, b = alpha.numerator, alpha.denominator
    one = 1 << bits
    values = [one][: n + 1]
    prev, curr = 0, one
    for k in range(n):
        factor = ((2 * k + 1) * b + a) * one - b * X
        prev, curr = curr, ((factor * curr >> bits) - (k * b + a + b) * prev) // (b * (k + 1))
        values.append(curr)
    return values


def scales_alpha_plus_one(alpha, n, bits):
    """oracle._scales with j b + a + b in place of j b + a: rho_k of alpha + 1."""
    a, b = alpha.numerator, alpha.denominator
    num, den = math.prod(j * b + a + b for j in range(1, n + 1)), b**n * math.factorial(n)
    scales = [oracle._root(num, den, bits)]
    for k in range(1, 2 * n):
        num, den = num * k * b, den * (k * b + a + b)
        scales.append(oracle._root(num, den, bits))
    return scales


def laguerre_int_coefficient_plus_one(n, p, q, a, b):
    """oracle._laguerre_int with k (k q + p + q) in place of k (k q + p): k + alpha + 1."""
    if n < 0:
        return 0
    prev, curr = 0, 1
    for k in range(n):
        factor = (2 * k + 1) * q * b + p * b - q * a
        prev, curr = curr, factor * curr - k * (k * q + p + q) * q * b * b * prev
    return curr


# name -> (module or class, name, replacement, checks that must fail)
FAULTS = {
    "laguerre-d2-off-by-one": (
        laguerre_me,
        "_rungs",
        rungs_off_by_one,
        {"first_order", "second_order"},
    ),
    "laguerre-part2-denominator": (
        laguerre_me,
        "_part2_numerator",
        part2_unit_denominators,
        {"second_order"},
    ),
    "closed-form-e2-plus-one": (
        corrections,
        "_scaled_corrections",
        closed_form_e2_plus_one,
        {"second_order", "ladder"},
    ),
    "closed-form-e1-minus-one": (
        corrections,
        "_scaled_corrections",
        closed_form_e1_minus_one,
        {"first_order", "ladder"},
    ),
    # the oracle checks quadrature against the Kramers moments, so it catches this too
    "kramers-angular-coefficient": (
        kramers,
        "_moment",
        kramers_angular_off_by_one,
        {"first_order", "oracle"},
    ),
    # W's closed paths weighted by N' - N in place of N - N', +2/h for -2/h:
    # W is part I plus the paths, so with part I alone, W built from a zero
    # (p^2)^2, the flipped W is twice part I less W
    "ladder-resolvent-sign-flipped": (
        ladder2d,
        "_W",
        ladder2d.LadderExpr.one(2)
        * _second_order_operator(ladder2d.LadderExpr.one(0), ladder2d._P6)
        - ladder2d._W,
        {"ladder"},
    ),
    # the (p^2)^2 whose diagonal first_order_2d applies, with one extra ad.a
    # term in its K0 block, at shift (0, 0)
    "ladder-k0-extra-term": (
        ladder2d,
        "_P4",
        ladder2d._P4 + ladder2d.LadderExpr.mono("ad", "a"),
        {"ladder"},
    ),
    # W built from a (p^2)^3 with one extra ad.a term
    "ladder-p6-extra-term": (
        ladder2d,
        "_W",
        _second_order_operator(ladder2d._P4, ladder2d._P6 + ladder2d.LadderExpr.mono("ad", "a")),
        {"ladder"},
    ),
    # W built from a (p^2)^2 with one extra ad.bd term at R2's shift, which
    # only W's closed paths read
    "ladder-hopping-extra-term": (
        ladder2d,
        "_W",
        _second_order_operator(ladder2d._P4 + ladder2d.LadderExpr.mono("ad", "bd"), ladder2d._P6),
        {"ladder"},
    ),
    # p^4 as printed, built afresh by the self-test; the corrections apply
    # powers of p^2 and never read the blocks, so the ladder check does not see it
    "ladder-p4-block-missing-term": (
        ladder2d,
        "p4_operators",
        p4_blocks_without_l2_ab,
        {"operator_self_test"},
    ),
    # the composition of products; the tables the corrections apply are built
    # at import, so only the self-test, which builds its operators afresh, sees it
    "ladder-composition-cross-species": (
        ladder2d,
        "_shifted",
        shifted_cross_species,
        {"operator_self_test"},
    ),
    # the (p^2)^2 of eps1, composed under the same fault
    "ladder-composition-cross-species-p4": (
        ladder2d,
        "_P4",
        P4_CROSS_SPECIES,
        {"ladder"},
    ),
    # the W of eps2, built under the same fault
    "ladder-composition-cross-species-w": (
        ladder2d,
        "_W",
        W_CROSS_SPECIES,
        {"ladder"},
    ),
    "degeneracy-off-by-one": (
        spectrum,
        "degeneracy_level",
        lambda l, d: _degeneracy_level(l, d) + ((l, d) == (2, 5)),
        {"degeneracy"},
    ),
    "oracle-weights-scaled": (oracle, "_rule_entry", scaled_rules(), {"oracle"}),
    # the int recurrence that polishes the nodes and fills the node tables
    "oracle-recurrence-coefficient": (
        oracle,
        "laguerre_fixed",
        laguerre_fixed_coefficient_plus_one,
        {"oracle"},
    ),
    # the table's orthonormal scales; the table check refuses every rule built under it
    "oracle-scales-alpha-plus-one": (oracle, "_scales", scales_alpha_plus_one, {"oracle"}),
    # the residual's eigenvalue, 1/1000 too large
    "oracle-residual-energy": (
        oracle,
        "energy_unperturbed",
        lambda q: energy_unperturbed(q) + Fraction(1, 1000),
        {"residual"},
    ),
    # the exact recurrence of the residual's Laguerre values
    "oracle-residual-laguerre": (
        oracle,
        "_laguerre_int",
        laguerre_int_coefficient_plus_one,
        {"residual"},
    ),
}


def failing_checks():
    return {name for name, check in CHECKS.items() if check() is not None}


def test_unpatched_run_fails_no_check():
    assert failing_checks() == set()


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_fails_exactly_its_checks(fault, monkeypatch):
    target, name, replacement, must_fail = FAULTS[fault]
    assert must_fail and must_fail <= set(CHECKS)
    # the oracle builds its rules under the fault, into a cache that outlives the patch
    cache = {}
    monkeypatch.setattr(oracle, "_rule_cache", cache)
    monkeypatch.setattr(target, name, replacement)
    assert failing_checks() == must_fail
    # nothing outlives the patch, such as a faulty rule in the cache
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "_rule_cache", cache)
    assert failing_checks() == set()


def test_one_scaled_rule_trips_the_convergence_check(monkeypatch):
    q, s = QuantumNumbers(3, 2, 1), 2
    monkeypatch.setattr(oracle, "_rule_entry", scaled_rules(only=oracle._bucket(2 * 2 + s)))
    with pytest.raises(ArithmeticError, match="converge"):
        oracle.quad_expectation(q, s)


# each check's elements all share the rule pair of its largest element
SHARED_PAIR_CHECKS = {
    # degree cutoff + n + 2 of <u_cutoff|eta^2|u_n>
    "sum_over_states": (lambda: oracle.sum_over_states_check(QuantumNumbers(3, 2, 1), 6), 10),
    # degree 2 n_max of <u_n_max|u_n_max>
    "orthonormality": (lambda: oracle.orthonormality_check(1, 3, 8), 16),
}


def shared_pair_rule(check: str, rule: str) -> int:
    """npoints of the coarse or the fine rule of a check's shared pair."""
    coarse = oracle._bucket(SHARED_PAIR_CHECKS[check][1])
    return coarse if rule == "coarse" else oracle._bucket(2 * coarse)


@pytest.mark.parametrize("rule", ["coarse", "fine"])
@pytest.mark.parametrize("check", sorted(SHARED_PAIR_CHECKS))
def test_one_scaled_rule_of_a_shared_pair_trips_the_check(check, rule, monkeypatch):
    only = shared_pair_rule(check, rule)
    monkeypatch.setattr(oracle, "_rule_entry", scaled_rules(only=only))
    with pytest.raises(ArithmeticError, match="converge"):
        SHARED_PAIR_CHECKS[check][0]()


def scaled_column(order: int, only: int):
    """oracle._rule_entry with the column of p_order on the `only`-node rule
    1 + 1e-9 times too large, so that only the sums that read it are off."""

    def entry(k, npoints, dps):
        bits, xs, columns, tables = _rule_entry(k, npoints, dps)
        if npoints == only:
            column = tuple(q + q // 10**9 for q in columns[order])
            columns = columns[:order] + (column,) + columns[order + 1 :]
        return bits, xs, columns, tables

    return entry


# one order whose column only some of a check's elements read: <u_4|eta^2|u_2>
# of the sum over states, and the last diagonal entry, <u_8|u_8>, of the Gram
# matrix, where its other entries are rounding noise
@pytest.mark.parametrize("rule", ["coarse", "fine"])
@pytest.mark.parametrize("check,order", [("sum_over_states", 4), ("orthonormality", 8)])
def test_every_element_of_a_shared_pair_is_compared(check, order, rule, monkeypatch):
    only = shared_pair_rule(check, rule)
    monkeypatch.setattr(oracle, "_rule_entry", scaled_column(order, only))
    with pytest.raises(ArithmeticError, match="converge"):
        SHARED_PAIR_CHECKS[check][0]()
