"""Package layout: exported names exist, and the exact methods stay apart.

Agreement between the exact methods is only evidence when no method uses
another's code, so corrections, kramers, laguerre_me and ladder2d may import
nothing from the package except the exact names of states, and the oracle,
which checks them, imports none of them.  Every name in a module's __all__
is loaded by package or benchmark code, or is kept in UNUSED_EXPORTS with
its reason, and every package name the benchmark loads exists.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import salpeter_qho

PACKAGE_DIR = Path(salpeter_qho.__path__[0])
MODULES = sorted(m.name for m in pkgutil.iter_modules(salpeter_qho.__path__))
METHODS = ["corrections", "kramers", "laguerre_me", "ladder2d"]
# what a method may take from states: quantum numbers and energies, no oracle routine
EXACT_STATES_NAMES = {
    "QuantumNumbers",
    "InvalidQuantumNumbers",
    "UnsupportedDimension",
    "energy_unperturbed",
}


def package_imports(module: str) -> set[str]:
    """Names of the package's modules that `module` imports (the package itself as 'salpeter_qho')."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE_DIR / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if node.level:  # from .module import x, or from . import module
                found.update([node.module.split(".")[0]] if node.module else names)
            elif node.module.split(".")[0] == "salpeter_qho":
                found.update(node.module.split(".")[1:2] or names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "salpeter_qho":
                    found.add(parts[1] if len(parts) > 1 else "salpeter_qho")
    return found


def names_from_states(module: str) -> set[str]:
    """Names `module` imports from states; importing the module itself counts as 'states'."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE_DIR / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if node.module in ("states", "salpeter_qho.states"):
                found |= names
            elif node.module in (None, "salpeter_qho"):  # from . import states
                found |= names & {"states"}
        elif isinstance(node, ast.Import):
            found |= {"states" for alias in node.names if alias.name == "salpeter_qho.states"}
    return found


@pytest.mark.parametrize("module", ["__init__"] + MODULES)
def test_all_names_exist(module):
    name = "salpeter_qho" if module == "__init__" else f"salpeter_qho.{module}"
    mod = importlib.import_module(name)
    assert [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)] == []


@pytest.mark.parametrize("method", METHODS)
def test_method_imports_only_states(method):
    assert package_imports(method) <= {"states"}
    assert names_from_states(method) <= EXACT_STATES_NAMES


def test_oracle_imports_no_method():
    assert package_imports("oracle").isdisjoint(METHODS)


def test_oracle_builds_rules_on_the_int_recurrence_only():
    # one recurrence per rule build: no float seed path beside laguerre_fixed
    imported = names_from_states("oracle")
    assert "laguerre_fixed" in imported and "laguerre_values" not in imported


def test_oracle_table_is_int_from_end_to_end():
    # the build, its scales and its table rows load no mpmath name or mpf
    # mantissa, so every entry is an int product rounded once
    tree = ast.parse((PACKAGE_DIR / "oracle.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("_rule_entry", "_root", "_scales", "_table_row"):
        nodes = list(ast.walk(functions[name]))
        names = {node.id for node in nodes if isinstance(node, ast.Name)}
        attrs = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        assert names.isdisjoint({"mp", "mpf", "mpmath"}) and "_mpf_" not in attrs, name


def test_scan_sees_package_imports():
    assert set(METHODS) | {"oracle", "spectrum", "states"} <= package_imports("checks")
    assert package_imports("spectrum") == {"corrections"}
    assert {"QuantumNumbers", "laguerre_fixed", "u_derivatives"} <= names_from_states("oracle")


BENCHMARK_DIR = Path(__file__).parents[1] / "benchmarks"
# exported names that no package or benchmark code loads, each kept for a reason
UNUSED_EXPORTS = {
    "ladder2d.matrix_element_squared": "the tests' reference for single transition amplitudes",
    "ladder2d.expectation": "the tests' reference for diagonal elements",
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
