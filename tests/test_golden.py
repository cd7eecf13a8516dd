"""Golden reports: three committed JSON reports that every refactor must
reproduce byte for byte.

A change to a file under ``tests/golden/`` is a change of behaviour.  To
regenerate one, run the command in ``GOLDEN`` with ``--out`` pointing at it.
"""

from pathlib import Path

import pytest

from braidperm.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN = {
    "d3_n4.json": ["verify", "--d-max", "3", "--n-max", "4", "--format", "json", "--seed", "0"],
    "d4_n3.json": ["verify", "--d", "4", "--n", "3", "--format", "json", "--seed", "0"],
    # the only golden with q = 6, where q is even and q2 = 3 is odd
    "d5_n3.json": ["verify", "--d", "5", "--n", "3", "--format", "json", "--seed", "0"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_is_byte_identical_to_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("BRAIDPERM_CAP", raising=False)
    out = tmp_path / name
    code = main([*GOLDEN[name], "--out", str(out)])
    # criterion 7's refuted claims make every grid report fail overall
    assert code == 1
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()
