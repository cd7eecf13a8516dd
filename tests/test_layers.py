"""The algorithm modules stand below the verification suite: none of them
imports the report, the claim checkers or the CLI."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "braidperm"

ALGORITHMS = ["perm", "shuffle", "lattice", "groups", "oracles"]
UPPER = {"report", "claims", "cli"}


def imported_modules(path):
    """The braidperm modules a source file imports, by short name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.startswith("braidperm"):
                parts = node.module.split(".")[1:]
            elif node.level:
                parts = node.module.split(".") if node.module else []
            else:
                continue
            found.update(parts[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("braidperm."):
                    found.add(alias.name.split(".")[1])
    return found


@pytest.mark.parametrize("module", ALGORITHMS)
def test_algorithm_module_imports_no_upper_layer(module):
    assert imported_modules(PACKAGE / f"{module}.py") & UPPER == set()


def test_upper_layers_are_seen():
    assert {"report", "groups"} <= imported_modules(PACKAGE / "claims.py")
