"""Golden outputs: committed `verify` reports and `construct` outputs, in
JSON, that every refactor must reproduce byte for byte.

A change to a file under ``tests/golden/`` is a change of behaviour.  To
regenerate one, run the command in ``GOLDEN`` with ``--out`` pointing at it.
"""

import hashlib
from pathlib import Path

import pytest

from braidperm.claims import RunConfig, run_verification
from braidperm.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
README = Path(__file__).resolve().parent.parent / "README.md"

# name -> (arguments, expected exit code); criterion 7's refuted claims make
# every full grid report fail overall
GOLDEN = {
    "d3_n4.json": (
        ["verify", "--d-max", "3", "--n-max", "4", "--format", "json", "--seed", "0"], 1),
    "d4_n3.json": (["verify", "--d", "4", "--n", "3", "--format", "json", "--seed", "0"], 1),
    # the only golden with q = 6, where q is even and q2 = 3 is odd
    "d5_n3.json": (["verify", "--d", "5", "--n", "3", "--format", "json", "--seed", "0"], 1),
    # prop-3.11 at n = 6 for q = 2 and 3: the monodromy kernel in S_6, and
    # matrices of size 6 with modulus up to 3 checked against conjugation
    "d3_n6_prop311.json": (
        ["verify", "--d", "3", "--n", "6", "--claim", "prop-3.11", "--format", "json",
         "--seed", "0"], 0),
    # prop-3.11 at n = 6 for q = 2, 3 and 4: the monodromy kernel in S_6 on
    # the most cases of any golden
    "d4_n6_prop311.json": (
        ["verify", "--d", "4", "--n", "6", "--claim", "prop-3.11", "--format", "json",
         "--seed", "0"], 0),
    # prop-3.11 at n = 8 for q = 2 and 3: the monodromy kernel in S_8, whose
    # 40,320 elements no walk visits, from matrices of size 8
    "d3_n8_prop311.json": (
        ["verify", "--d", "3", "--n", "8", "--claim", "prop-3.11", "--format", "json",
         "--seed", "0"], 0),
    # lemma-3.3, prop-3.30 and thm-3.4 at n = 5; exit 1 from prop-3.30's
    # refuted orbit partition
    "d3_n5_kernel.json": (
        ["verify", "--d", "3", "--n", "5", "--claim", "lemma-3.3", "--claim", "prop-3.30",
         "--claim", "thm-3.4", "--format", "json", "--seed", "0"], 1),
    # thm-3.4 and prop-3.11 at n = 4 for q = 4, 5 and 6
    "d5_n4_kernel.json": (
        ["verify", "--d", "5", "--n", "4", "--claim", "thm-3.4", "--claim", "prop-3.11",
         "--format", "json", "--seed", "0"], 0),
    # prop-3.30 and cor-3.31 at n = 4 for q = 4, 5 and 6; exit 1 from the two
    # refuted orbit claims
    "d5_n4_orbits.json": (
        ["verify", "--d", "5", "--n", "4", "--claim", "prop-3.30", "--claim", "cor-3.31",
         "--format", "json", "--seed", "0"], 1),
    # construct pins the spec document, its "u" included: swapped fixed
    # points; given starts on a 2-orbit of u; a 2-orbit beside fixed points;
    # a 3-orbit of u, whose component lists its cycles in orbit order
    "construct_d2_swap.json": (
        ["construct", "--d", "2", "--tau", "()", "--u", "(1 2)", "--format", "json"], 0),
    "construct_d4_starts.json": (
        ["construct", "--d", "4", "--tau", "(1 2)(3 4)", "--u", "(1 3)", "--i1", "2",
         "--i1", "3", "--j1", "4", "--j1", "1", "--n", "3", "--format", "json"], 0),
    "construct_d5_fixed.json": (
        ["construct", "--d", "5", "--tau", "(1 2)(3 4)", "--u", "(1 3)", "--format", "json"],
        0),
    "construct_d6_orbit3.json": (
        ["construct", "--d", "6", "--tau", "(1 2)(3 4)(5 6)", "--u", "(1 5 3)", "--i1", "2",
         "--i1", "3", "--i1", "6", "--j1", "6", "--j1", "2", "--j1", "3", "--n", "2",
         "--format", "json"], 0),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_is_byte_identical_to_golden(name, tmp_path):
    args, expected_code = GOLDEN[name]
    out = tmp_path / name
    assert main([*args, "--out", str(out)]) == expected_code
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


def test_every_golden_file_has_a_command_and_is_named_in_readme():
    readme = README.read_text(encoding="utf-8")
    files = sorted(path.name for path in GOLDEN_DIR.iterdir())
    assert [name for name in files if name not in GOLDEN] == []
    assert [name for name in files if f"`{name}`" not in readme] == []


def test_report_at_n_30_is_pinned():
    """The goldens stop at n = 8; the full suite at d = 4, n = 30 pins the
    per-(n, q) checks at matrices of size 30 by the report's sha256."""
    report = run_verification(RunConfig(d=4, n=30)).to_json()
    digest = "22b804d963f99b5288367c623b44f47afdf1239347af53c27289d6acc3ad8dba"
    assert hashlib.sha256(report.encode()).hexdigest() == digest


def test_thm_2_12_at_d_6_is_pinned():
    """No golden has d = 6, where the representatives of the diagonal orbits
    are furthest from the full coset (901 of 518,400 elements); thm-2.12
    there is pinned by the report's sha256."""
    report = run_verification(RunConfig(d=6, n=3, claims=("thm-2.12",))).to_json()
    digest = "d231929e713c25f99efb516744f554597ef99f6162fff2913561413e43a2db4d"
    assert hashlib.sha256(report.encode()).hexdigest() == digest


def test_coset_claims_at_d_6_are_pinned():
    """The four coset claims at d = 6, where lemma-2.4 walks the 1,673 specs
    over one tau per conjugacy class for its 40,320, are pinned by the
    report's sha256."""
    claims = ("thm-2.12", "lemma-2.4", "lemma-2.5", "cor-2.13")
    report = run_verification(RunConfig(d=6, n=3, claims=claims)).to_json()
    digest = "15c0f8c6d5acd3185fc7b9d2a42c09aefff937c0070fc751a7b77b12f13d5c2b"
    assert hashlib.sha256(report.encode()).hexdigest() == digest
