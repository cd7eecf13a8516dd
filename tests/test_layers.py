"""The algorithm modules stand below the verification suite: none of them
imports the report, the claim checkers or the CLI.  And the claim checkers
import nothing of the braid image at degree n * d: every claim on the group
rests on the per-case certificate and the (n, q) lattice."""

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


def imported_names(path):
    """The names a source file imports from braidperm modules."""
    return {
        alias.name
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("braidperm"))
        for alias in node.names
    }


@pytest.mark.parametrize("module", ALGORITHMS)
def test_algorithm_module_imports_no_upper_layer(module):
    assert imported_modules(PACKAGE / f"{module}.py") & UPPER == set()


def test_upper_layers_are_seen():
    assert {"report", "groups"} <= imported_modules(PACKAGE / "claims.py")


def test_claims_build_no_braid_image():
    degree_nd = {"braid_image", "abelian_kernel", "BraidImage"}
    names = imported_names(PACKAGE / "claims.py")
    assert {"case_certificate", "kernel_lattice"} <= names
    assert names & degree_nd == set()
