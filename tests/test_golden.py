"""Golden reports: five committed JSON reports that every refactor must
reproduce byte for byte.

A change to a file under ``tests/golden/`` is a change of behaviour.  To
regenerate one, run the command in ``GOLDEN`` with ``--out`` pointing at it.
"""

from pathlib import Path

import pytest

from braidperm.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

# name -> (verify arguments, expected exit code); criterion 7's refuted
# claims make every full grid report fail overall
GOLDEN = {
    "d3_n4.json": (
        ["verify", "--d-max", "3", "--n-max", "4", "--format", "json", "--seed", "0"], 1),
    "d4_n3.json": (["verify", "--d", "4", "--n", "3", "--format", "json", "--seed", "0"], 1),
    # the only golden with q = 6, where q is even and q2 = 3 is odd
    "d5_n3.json": (["verify", "--d", "5", "--n", "3", "--format", "json", "--seed", "0"], 1),
    # the only golden at n = 6: the monodromy walk over S_6 and the
    # kernel boxes of up to 3^5 * 3 elements
    "d3_n6_prop311.json": (
        ["verify", "--d", "3", "--n", "6", "--claim", "prop-3.11", "--format", "json",
         "--seed", "0"], 0),
    # lemma-3.3, prop-3.30 and thm-3.4 at n = 5; exit 1 from prop-3.30's
    # refuted orbit partition
    "d3_n5_kernel.json": (
        ["verify", "--d", "3", "--n", "5", "--claim", "lemma-3.3", "--claim", "prop-3.30",
         "--claim", "thm-3.4", "--format", "json", "--seed", "0"], 1),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_is_byte_identical_to_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("BRAIDPERM_CAP", raising=False)
    args, expected_code = GOLDEN[name]
    out = tmp_path / name
    assert main([*args, "--out", str(out)]) == expected_code
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()
