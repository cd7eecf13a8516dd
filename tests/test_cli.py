import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import braidperm
from braidperm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SPEC = {
    "d": 2,
    "tau": "(1 2)",
    "u": [[1, 1]],
    "choices": [{"alpha_min": 1, "i1": 1, "j1": 1}],
}


def spec_with(**changes):
    return {**SPEC, **changes}


def choice_with(**changes):
    return spec_with(choices=[{**SPEC["choices"][0], **changes}])


class TestConstruct:
    def test_basic(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--d", "2", "--tau", "(1 2)", "--u", "id",
            "--i1", "1", "--j1", "1",
        )
        assert code == 0
        assert "sigma = (1 3 2 4)" in out
        assert "q     = 2" in out

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--d", "2", "--tau", "(1 2)", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["sigma"] == "(1 3 2 4)"
        assert data["q"] == 2 and data["q2"] == 1
        assert data["pair"] == ["()", "(1 2)"]
        assert data["components"][0]["y"] == [1, 2, 3, 4, 5, 6]

    def test_spec_file(self, capsys, tmp_path):
        spec = {
            "d": 2,
            "tau": "()",
            "u": [[1, 2], [2, 1]],
            "choices": [
                {"alpha_min": 1, "i1": 1, "j1": 2},
                {"alpha_min": 2, "i1": 2, "j1": 1},
            ],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run(capsys, "construct", "--spec", str(path))
        assert code == 0
        assert "sigma = (1 4)(2 3)" in out

    def test_invalid_choice_exits_2(self, capsys):
        code, _, err = run(
            capsys, "construct", "--d", "2", "--tau", "(1 2)", "--i1", "1", "--j1", "5"
        )
        assert code == 2
        assert "j1=5" in err

    def test_missing_input_exits_2(self, capsys):
        code, _, err = run(capsys, "construct", "--d", "2")
        assert code == 2
        assert "error" in err

    def test_bad_tau_exits_2(self, capsys):
        code, _, _ = run(capsys, "construct", "--d", "2", "--tau", "(1 2")
        assert code == 2

    @pytest.mark.parametrize(
        "spec,args,message",
        [
            (SPEC, (), None),
            (spec_with(tau=5), (), "tau must be a string, got 5"),
            (spec_with(tau=None), (), "tau must be a string, got None"),
            (spec_with(d=2.7), (), "d must be an integer, got 2.7"),
            (spec_with(d=True), (), "d must be an integer, got True"),
            (spec_with(u=[[1, 1.0]]), (), "u must be an integer, got 1.0"),
            (choice_with(alpha_min=False), (), "alpha_min must be an integer"),
            (choice_with(i1=1.0), (), "i1 must be an integer"),
            (choice_with(j1="1"), (), "j1 must be an integer"),
            (spec_with(choices=SPEC["choices"] * 2), (), "duplicate alpha_min 1"),
            (None, ("--d", "2", "--tau", "()", "--n", "0"), "n must be positive"),
            (None, ("--d", "2", "--tau", "()", "--n", "-3"), "n must be positive"),
            (None, ("--d", "-1", "--tau", "()"), "d must be positive"),
            (None, ("--d", "0", "--tau", "()"), "d must be positive"),
            ({"d": 3, "tau": "()", "u": [[1, 3], [1, 1]]}, (), "duplicate least element in u"),
            (None, ("--d", "2", "--tau", "(1 1)"), "point 1 repeats within a cycle"),
            # two faults: u is checked before the starting points
            (
                {"d": 3, "tau": "()", "u": [[1, 2]],
                 "choices": [{"alpha_min": 1, "i1": 1, "j1": 3}]},
                (),
                "cycle map must be a bijection of the cycles of tau",
            ),
            # a misspelt key would otherwise drop the choices it holds
            (
                {"d": 2, "tau": "(1 2)", "choice": [{"alpha_min": 1, "i1": 1, "j1": 2}]},
                (),
                "unknown key 'choice' in the document",
            ),
            (choice_with(j2=1), (), "unknown key 'j2' in a choice entry"),
            ([SPEC], (), "the document must be a JSON object, got [{"),
            (spec_with(choices=["i1"]), (), "a choice entry must be a JSON object, got 'i1'"),
        ],
    )
    def test_bad_input_exits_2(self, capsys, tmp_path, spec, args, message):
        if spec is not None:
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec))
            args = ("--spec", str(path), *args)
        code, out, err = run(capsys, "construct", *args)
        if message is None:  # the unaltered spec builds
            assert code == 0 and "sigma = " in out
            return
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err


def _limit_address_space():
    limit = 300 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


class TestFarPoints:
    """A point far beyond d is refused before a permutation of that size is
    built.  Each case runs in a child process whose address space is capped,
    so a regression dies there with MemoryError instead of exhausting memory."""

    @pytest.mark.parametrize(
        "args,message",
        [
            (("--d", "3", "--tau", "(1 5000000)"), "tau moves points beyond [1, 3]"),
            (
                ("--d", "3", "--tau", "(1 2 3)", "--u", "(1 5000000)"),
                "--u permutes cycle labels [1], got points [1, 5000000]",
            ),
            (("--d", "3", "--tau", "(1 1000000000000000000)"), "tau moves points beyond [1, 3]"),
            ({"d": 2, "tau": "(1 5000000)", "u": [[1, 1]]}, "tau moves points beyond [1, 2]"),
        ],
    )
    def test_exits_2_within_memory_limit(self, tmp_path, args, message):
        if isinstance(args, dict):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(args))
            args = ("--spec", str(path))
        src = str(Path(braidperm.__file__).resolve().parent.parent)
        result = subprocess.run(
            [sys.executable, "-m", "braidperm.cli", "construct", *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            preexec_fn=_limit_address_space,
            timeout=60,
        )
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert result.stderr == f"error: {message}\n"


class TestVerify:
    def test_passing_claims_exit_0(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--d", "2", "--n", "3", "--claim", "thm-2.12"
        )
        assert code == 0
        assert "PASS thm-2.12" in out

    def test_refuted_claim_exit_1(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--d", "2", "--n", "3", "--claim", "cor-3.31"
        )
        assert code == 1
        assert "FAIL cor-3.31" in out

    def test_kernel_claim(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--d", "2", "--n", "4", "--claim", "prop-3.11"
        )
        assert code == 0
        assert "prop-3.11" in out

    def test_bad_range_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--d", "9")
        assert code == 2
        assert "error" in err

    def test_empty_d_range_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "--d-max", "1")
        assert code == 2
        assert out == ""
        assert "no block size" in err

    def test_empty_n_range_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "--d", "2", "--n-max", "2")
        assert code == 2
        assert out == ""
        assert "no strand count" in err

    def test_cap_exit_2(self, capsys):
        code, out, err = run(
            capsys, "verify", "--d", "4", "--claim", "thm-2.12", "--cap", "100"
        )
        assert code == 2
        assert out == ""
        assert "exceeds the cap" in err

    def test_json_report_roundtrips(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "verify", "--d", "2", "--n", "3", "--claim", "thm-2.12",
            "--format", "json", "--out", str(out_path),
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["schema"] == 1
        assert data["all_pass"] is True

    def test_byte_identical_reports(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run(
                capsys, "verify", "--d-max", "2", "--n-max", "3", "--seed", "5",
                "--format", "json", "--out", str(path),
            )
            assert code in (0, 1)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestExport:
    def test_gap(self, capsys):
        code, out, _ = run(capsys, "export", "--d", "2", "--tau", "(1 2)", "--n", "3")
        assert code == 0
        assert out == "Group(\n  (1,3,2,4),\n  (3,5,4,6)\n);\n"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "export", "--d", "2", "--tau", "(1 2)", "--n", "3",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["generators"] == ["(1 3 2 4)", "(3 5 4 6)"]
        assert data["q"] == 2 and data["q2"] == 1

    def test_unwritable_path_exits_3(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "out.g"
        code, _, err = run(
            capsys, "export", "--d", "2", "--tau", "(1 2)", "--out", str(target)
        )
        assert code == 3
        assert "i/o error" in err

    def test_write_to_file(self, capsys, tmp_path):
        target = tmp_path / "group.g"
        code, _, _ = run(
            capsys, "export", "--d", "2", "--tau", "(1 2)", "--out", str(target)
        )
        assert code == 0
        assert target.read_text().startswith("Group(")
