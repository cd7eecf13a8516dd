"""The algorithm modules stand below the verification suite: none of them
imports the report, the claim checkers or the CLI.  And the claim checkers
import nothing of the braid image at degree n * d: every claim on the group
rests on the per-case certificate and the (n, q) lattice.  Nor do they sweep
the whole coset of S_d: the coset claims rest on the fibres over the class
representatives, and the |S_d|^2 sweeps are the tests' references."""

import ast
from pathlib import Path

import pytest

from braidperm import claims, oracles
from braidperm.claims import RunConfig, run_verification
from braidperm.perm import Permutation

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


def test_claims_import_no_root_sweep():
    names = imported_names(PACKAGE / "claims.py")
    assert names & {"roots_by_tau", "enumerate_roots"} == set()


def test_no_pair_sweep_of_a_symmetric_group(monkeypatch):
    """All ten claims on d <= 5 sweep the commuting pairs of the four cyclic
    groups of lemma-2.5 only, and never the coset's roots."""
    real_pairs, real_roots = oracles.commuting_pairs, oracles.roots_by_tau
    sweeps, roots = [], []
    for module in (claims, oracles):
        monkeypatch.setattr(
            module, "commuting_pairs", lambda *a: sweeps.append(a[0]) or real_pairs(*a)
        )
    monkeypatch.setattr(oracles, "roots_by_tau", lambda *a: roots.append(a) or real_roots(*a))
    run_verification(RunConfig(d_max=5, n_max=3))
    cyclic = [(Permutation.parse(t),) for t in ("(1 2)", "(1 2 3)", "(1 2 3 4)", "(1 2)(3 4)")]
    assert [group.generators for group in sweeps] == cyclic
    assert roots == []
