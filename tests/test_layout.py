"""Package layout: exported names exist, and the exact methods stay apart.

Agreement between the exact methods is only evidence when no method uses
another's code, so corrections, kramers, laguerre_me and ladder2d may import
nothing from the package but states, and the oracle, which checks them,
imports none of them.  The exact layer, states and the methods, imports only
exact standard-library modules, so no float or mpf routine is within its
reach, and importing the package loads no mpmath.  Every name in a module's
__all__ is loaded by package or benchmark code, or is kept in UNUSED_EXPORTS
with its reason, and every package name the benchmark loads exists.  Every
BENCH_*.json at the repo's root parses and holds the same top-level fields.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import salpeter_qho

PACKAGE_DIR = Path(salpeter_qho.__path__[0])
MODULES = sorted(m.name for m in pkgutil.iter_modules(salpeter_qho.__path__))
METHODS = ["corrections", "kramers", "laguerre_me", "ladder2d"]
# all the exact layer may import: Fractions, ints and plain data
EXACT_STDLIB = {"__future__", "dataclasses", "fractions", "functools", "math"}


def imported_modules(module: str) -> set[str]:
    """Top-level names of the modules `module` imports.  A package module counts
    by its own name ('states'), the package itself or a name imported from it
    as 'salpeter_qho'."""

    def in_package(name: str) -> str:
        return name if name in MODULES else "salpeter_qho"

    found = set()
    for node in ast.walk(ast.parse((PACKAGE_DIR / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            names = [alias.name for alias in node.names]
            if node.level:  # from .module import x, or from . import module
                found.update([in_package(parts[0])] if parts else map(in_package, names))
            elif parts[0] == "salpeter_qho":
                found.update([in_package(parts[1])] if parts[1:] else map(in_package, names))
            else:
                found.add(parts[0])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                found.add(in_package(parts[1]) if parts[:1] == ["salpeter_qho"] else parts[0])
    return found


def package_imports(module: str) -> set[str]:
    """Names of the package's modules that `module` imports (the package itself as 'salpeter_qho')."""
    return imported_modules(module) & {"salpeter_qho", *MODULES}


def loaded_names(module: str, function: str, body_only: bool = False) -> set[str]:
    """Every name and attribute that a top-level function of `module` loads,
    or with body_only, that its body loads, leaving out its signature's
    annotations and defaults."""
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text())
    (node,) = [node for node in tree.body if getattr(node, "name", None) == function]
    roots = node.body if body_only else [node]
    nodes = [n for root in roots for n in ast.walk(root)]
    return {n.id for n in nodes if isinstance(n, ast.Name)} | {
        n.attr for n in nodes if isinstance(n, ast.Attribute)
    }


@pytest.mark.parametrize("module", ["__init__"] + MODULES)
def test_all_names_exist(module):
    name = "salpeter_qho" if module == "__init__" else f"salpeter_qho.{module}"
    mod = importlib.import_module(name)
    assert [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)] == []


@pytest.mark.parametrize("module", ["states", *METHODS])
def test_exact_layer_imports_only_exact_modules(module):
    allowed = EXACT_STDLIB | ({"states"} if module in METHODS else set())
    assert imported_modules(module) <= allowed


def test_exact_api_loads_no_mpmath():
    # in a fresh interpreter: the exact methods and the level table run without mpmath
    code = """
import sys
from fractions import Fraction
import salpeter_qho as s
q = s.QuantumNumbers(3, 2, 1)
s.epsilon1_general(q), s.epsilon2_general(q), s.level_table(4, 3, Fraction(1, 10))
s.first_order_method1(q), s.second_order_method2(q), s.second_order_2d(s.FockState2D(4, 2))
assert "mpmath" not in sys.modules, "mpmath loaded"
"""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (result.returncode, result.stderr) == (0, "")


def test_oracle_imports_no_method():
    assert package_imports("oracle").isdisjoint(METHODS)


def test_oracle_builds_rules_on_the_int_recurrence_only():
    # one recurrence per rule build: the seeds, the polish and the table rows
    # all run laguerre_fixed, and none the generic laguerre_values
    for name in ("_seed_zeros", "_polish", "_rule_entry"):
        names = loaded_names("oracle", name)
        assert "laguerre_fixed" in names and "laguerre_values" not in names, name


def test_oracle_table_is_int_from_end_to_end():
    # the build, its scales and its table rows load no mpmath name or mpf
    # mantissa, so every entry is an int product rounded once
    for name in ("_rule_entry", "_root", "_scales", "_table_row"):
        assert loaded_names("oracle", name).isdisjoint({"mp", "mpf", "mpmath", "_mpf_"}), name
    # the sums, with their power tables, are ints too, with no Fraction
    for name in ("_rule_sums", "_bracket"):
        assert loaded_names("oracle", name).isdisjoint(
            {"mp", "mpf", "mpmath", "_mpf_", "Fraction"}
        ), name
    # and each entry point's body rounds to mpf once, by _rounded, the only
    # one to touch mpf; an entry point names mpf only as its return type
    entry_points = (
        "quad_matrix_element",
        "orthonormality_check",
        "sum_over_states_check",
        "radial_residual",
    )
    for name in entry_points:
        names = loaded_names("oracle", name, body_only=True)
        assert "_rounded" in names and names.isdisjoint({"mp", "mpf", "fdiv", "_mpf_"}), name
        # its Laguerre order comes from _order, so it is decided in one place,
        # and it loads no alpha of its own
        assert "_order" in names and "alpha" not in names, name
    assert "mpf" in loaded_names("oracle", "_rounded")


def test_radial_residual_is_exact():
    # the residual's ratio is computed in ints: it loads no mpf eigenfunction,
    # normalization, generic recurrence or irrational function
    forbidden = {"u_derivatives", "normalization", "laguerre_values", "sqrt", "exp"}
    for name in ("radial_residual", "_laguerre_int"):
        assert loaded_names("oracle", name).isdisjoint(forbidden), name
    assert "_laguerre_int" in loaded_names("oracle", "radial_residual")


def test_ladder_corrections_do_not_read_the_printed_blocks():
    # the corrections apply powers of p^2, so the paper's p^4 blocks, which the
    # self-test compares with (p^2)^2, stay an independent check; and they read
    # closed paths only, which need no factorial normalization
    for name in ("first_order_2d", "second_order_2d", "_second_order_operator"):
        loaded = loaded_names("ladder2d", name)
        assert loaded.isdisjoint({"p4_operators", "p4_expr"}), name
        assert loaded.isdisjoint({"perm", "factorial", "_factorial_ratio"}), name
    assert "_W" in loaded_names("ladder2d", "second_order_2d")


def test_scan_sees_package_imports():
    assert set(METHODS) | {"oracle", "spectrum", "states"} <= package_imports("checks")
    assert package_imports("spectrum") == {"corrections"}
    assert {"mpmath", "math", "states"} <= imported_modules("oracle")


BENCHMARK_DIR = Path(__file__).parents[1] / "benchmarks"
# exported names that no package or benchmark code loads, each kept for a reason
UNUSED_EXPORTS = {
    "spectrum.landau_analogue": "the paper's two-dimensional physical example",
    "oracle.rule_cache_stats": "rule-cache hits, misses and build time for a run's report",
}


def names_used_in_package() -> set[str]:
    """Every name the package's and the benchmark's modules load or take as an
    attribute, outside the top-level def or class of that same name (a
    recursive helper is still dead)."""
    used = set()
    for path in [*PACKAGE_DIR.glob("*.py"), *BENCHMARK_DIR.glob("*.py")]:
        for top in ast.parse(path.read_text()).body:
            names = {node.id for node in ast.walk(top) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(top) if isinstance(node, ast.Attribute)}
            used |= names - {getattr(top, "name", None)}
    return used


@pytest.mark.parametrize("module", ["__init__"] + MODULES)
def test_exports_only_what_the_package_uses(module):
    name = "salpeter_qho" if module == "__init__" else f"salpeter_qho.{module}"
    exported = set(getattr(importlib.import_module(name), "__all__", []))
    kept = {entry.split(".")[1] for entry in UNUSED_EXPORTS if entry.split(".")[0] == module}
    assert sorted(exported - names_used_in_package() - kept) == []


def test_unused_exports_are_exported_and_unused():
    # an allow-list entry that is no longer exported, or is now used, is stale
    for name in UNUSED_EXPORTS:
        module, attr = name.split(".")
        assert attr in importlib.import_module(f"salpeter_qho.{module}").__all__
        assert attr not in names_used_in_package()


def benchmark_package_names() -> set[tuple[str, str]]:
    """(module, name) for each attribute the benchmark's modules load from the
    package or one of its modules, and each name they import from it."""
    modules = {"salpeter_qho", "oracle", "spectrum", *METHODS}
    found = set()
    for path in BENCHMARK_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                prefix = "" if node.value.id == "salpeter_qho" else "salpeter_qho."
                found.add((prefix + node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and str(node.module).split(".")[0] == "salpeter_qho":
                found |= {(node.module, alias.name) for alias in node.names}
    return found


def test_benchmark_uses_only_names_that_exist():
    # the benchmark runs outside the tier-1 suite, so a name it loads that a
    # change removed would fail only there
    used = benchmark_package_names()
    assert ("salpeter_qho.kramers", "moment_eta") in used and len(used) > 20
    missing = [
        (module, name)
        for module, name in sorted(used)
        # a submodule is an attribute of the package only once imported
        if not hasattr(importlib.import_module(module), name)
        and not (module == "salpeter_qho" and name in MODULES)
    ]
    assert missing == []


@pytest.mark.parametrize(
    "path", sorted(BENCHMARK_DIR.parent.glob("BENCH_*.json")), ids=lambda path: path.name
)
def test_bench_entries_share_one_shape(path):
    # a hand-made BENCH entry says what it measured against which parent, on
    # which host, by which commands, and whether its claim was met
    entry = json.loads(path.read_text())
    assert {"what", "parent", "host", "commands", "claim"} <= set(entry)
    assert {"nproc", "python", "mpmath_backend"} <= set(entry["host"])
    assert type(entry["claim"]["met"]) is bool
