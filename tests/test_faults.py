"""Faults injected into one derivation must trip the checks that cover it.

Each row of FAULTS replaces one name in one method's module and lists the
exact checks that must then fail on the small grid; every other check in
CHECKS must still pass.  The faults live here only: nothing in the package
has a hook for them.
"""

from fractions import Fraction

import pytest

from salpeter_qho import checks, laguerre_me

SMALL = checks.GRIDS["small"]
SMALL_RADIAL = checks.radial_grid(SMALL["d_max"], SMALL["nl_max"], SMALL["N1_max"])

CHECKS = {
    "first_order": lambda: checks.first_order_failure(SMALL_RADIAL),
    "second_order": lambda: checks.second_order_failure(SMALL_RADIAL),
    "ladder": lambda: checks.ladder_failure(SMALL["ladder_N"]),
}


def rung_off_by_one(q, j):
    """4 D^2 from (k+2)(k+l+d/2) in place of (k+1)(k+l+d/2)."""
    k = int(2 * (q.n + j))
    e = 2 * k + 2 * q.l + q.d
    return ((k + 4) * (e - k) if k + 2 > 0 else 0), e


def part2_unit_denominators(q):
    """Part II with n - n' = +-1 for the n' = n+-2 terms as well."""
    (a2, _), (a, e), (b, _), (b2, _) = (laguerre_me._rung(q, j) for j in (1, 0, -1, -2))
    return Fraction(2 * (b * b2 - a * a2) + 8 * (b * (e - 2) ** 2 - a * (e + 2) ** 2), 4096)


# name -> (module, attribute, replacement, checks that must fail)
FAULTS = {
    "laguerre-d2-off-by-one": (laguerre_me, "_rung", rung_off_by_one, {"first_order", "second_order"}),
    "laguerre-part2-denominator": (
        laguerre_me,
        "second_order_part2",
        part2_unit_denominators,
        {"second_order"},
    ),
}


def failing_checks():
    return {name for name, check in CHECKS.items() if check() is not None}


def test_unpatched_run_fails_no_check():
    assert failing_checks() == set()


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_fails_exactly_its_checks(fault, monkeypatch):
    module, attribute, replacement, must_fail = FAULTS[fault]
    assert must_fail and must_fail <= set(CHECKS)
    monkeypatch.setattr(module, attribute, replacement)
    assert failing_checks() == must_fail
