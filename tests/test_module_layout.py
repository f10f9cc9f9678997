"""No module of the package imports or reads another module's private names,
or a name missing from that module's ``__all__``, and importing the package
loads no network or XML stack."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import taxicab_ca

PACKAGE = Path(taxicab_ca.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node: ast.ImportFrom) -> str | None:
    """The package module a ``from ... import`` names, "" for the package itself, else None."""
    if node.level == 1 or node.module == "taxicab_ca" or (node.module or "").startswith("taxicab_ca."):
        return (node.module or "").removeprefix("taxicab_ca").lstrip(".")
    return None


def foreign_names(source: str) -> list[tuple[str, str]]:
    """(module, name) for each name of another package module that ``source`` imports or reads."""
    tree = ast.parse(source)
    aliases: dict[str, str] = {}  # local name -> package module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (module := _package_module(node)) is not None:
            for alias in node.names:
                if module:
                    found.append((module, alias.name))
                elif alias.name in MODULES:
                    aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in aliases:
                found.append((aliases[owner.id], node.attr))
            elif (isinstance(owner, ast.Attribute) and owner.attr in MODULES
                  and isinstance(owner.value, ast.Name) and owner.value.id == "taxicab_ca"):
                found.append((owner.attr, node.attr))
    return found


def foreign_private_names(source: str) -> list[str]:
    """``module._name`` for each private name of another package module that ``source`` reads."""
    return [f"{module}.{name}" for module, name in foreign_names(source) if _private(name)]


def names_outside_all(source: str) -> list[str]:
    """``module.name`` for each public name that ``source`` takes from another
    package module whose ``__all__`` lacks it (or that has no ``__all__``)."""
    return [f"{module}.{name}" for module, name in foreign_names(source)
            if not name.startswith("_")
            and name not in getattr(importlib.import_module(f"taxicab_ca.{module}"), "__all__", ())]


def test_checker_finds_each_form():
    source = (
        "from .taxicab import _IDENTITY_TOL, EnumerationBudgetError\n"
        "from taxicab_ca.io import _decode\n"
        "from . import taxicab, reports as _reports\n"
        "import taxicab_ca.tensor\n"
        "taxicab._best_axis, _reports._quote, taxicab_ca.tensor._OCTANT_SIGNS\n"
        "taxicab.__name__, taxicab.norm_exact, np._private\n"
    )
    assert foreign_private_names(source) == [
        "taxicab._IDENTITY_TOL", "io._decode",
        "taxicab._best_axis", "reports._quote", "tensor._OCTANT_SIGNS",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_module_reads_no_private_name_of_another(path):
    assert foreign_private_names(path.read_text()) == []


def test_all_checker_finds_each_form():
    source = (
        "from .taxicab import INDETERMINATE_TOL, norm_exact, _axis\n"
        "from . import kernels, tensor\n"
        "kernels.sign_grid, kernels.over_budget, tensor.tensor_norm, tensor.__name__\n"
    )
    assert names_outside_all(source) == ["taxicab.INDETERMINATE_TOL", "kernels.sign_grid"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_module_takes_only_names_in_the_others_all(path):
    # a module's __all__ lists every name the other modules import or read
    assert names_outside_all(path.read_text()) == []


# Modules the package never calls, each with its submodules: importing
# xml.sax.saxutils for two escape functions loaded every one of them.
UNUSED_STACKS = ("xml.sax", "urllib.request", "http", "email", "ssl", "_ssl",
                 "socket", "_socket")

CLOSURE_SCRIPT = """
import sys
import numpy
before = set(sys.modules)
import taxicab_ca, taxicab_ca.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_import_loads_no_unused_stack():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    loaded = subprocess.run([sys.executable, "-c", CLOSURE_SCRIPT], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert "taxicab_ca.cli" in loaded
    assert [name for name in loaded
            if any(name == stack or name.startswith(stack + ".") for stack in UNUSED_STACKS)] == []
