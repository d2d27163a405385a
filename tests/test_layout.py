"""Package layout: exported names exist, and the exact methods stay apart.

Agreement between the exact methods is only evidence when no method uses
another's code, so corrections, kramers, laguerre_me and ladder2d may import
nothing from the package except states.
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


@pytest.mark.parametrize("module", ["__init__"] + MODULES)
def test_all_names_exist(module):
    name = "salpeter_qho" if module == "__init__" else f"salpeter_qho.{module}"
    mod = importlib.import_module(name)
    assert [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)] == []


@pytest.mark.parametrize("method", METHODS)
def test_method_imports_only_states(method):
    assert package_imports(method) <= {"states"}


def test_oracle_builds_rules_on_the_int_recurrence_only():
    # one recurrence per rule build: no float seed path beside laguerre_fixed
    imported = {
        alias.name
        for node in ast.walk(ast.parse((PACKAGE_DIR / "oracle.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.module in ("states", "salpeter_qho.states")
        for alias in node.names
    }
    assert "laguerre_fixed" in imported and "laguerre_values" not in imported


def test_scan_sees_package_imports():
    assert set(METHODS) | {"oracle", "spectrum", "states"} <= package_imports("checks")
    assert package_imports("spectrum") == {"corrections"}
