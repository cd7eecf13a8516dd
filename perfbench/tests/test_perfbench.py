"""Tests of the benchmark itself: the tracer leaves the program as it was,
its counts repeat, its self times add up, and the gate rejects wrong reports."""

import json
import math
import sys
from pathlib import Path

import pytest

import braidperm.cli
import run
from tracer import LAYER_METRICS, LAYERS, Tracer, layer_metrics, span_stats
from workloads import WORKLOADS, check_pass, pass_argv

SMALL = ["verify", "--d-max", "3", "--n-max", "3", "--format", "json", "--seed", "4"]


def _bindings():
    """Every attribute of every braidperm module and class, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "braidperm" or name.startswith("braidperm."):
            for attr, obj in vars(module).items():
                out[name, attr] = id(obj)
                if isinstance(obj, type) and obj.__module__.startswith("braidperm."):
                    for cattr, cobj in vars(obj).items():
                        out[name, attr, cattr] = id(cobj)
    registry = braidperm.cli.REGISTRY
    out.update({("REGISTRY", tag): id(fn) for tag, fn in registry.items()})
    return out


def _traced(argv):
    tracer = Tracer()
    tracer.install()
    try:
        code = braidperm.cli.main(argv)
    finally:
        spans = tracer.uninstall()
    return code, spans


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    before = _bindings()
    first = _traced([*SMALL, "--out", str(out / "traced.json")])
    restored = _bindings()
    plain = braidperm.cli.main([*SMALL, "--out", str(out / "plain.json")])
    second = _traced([*SMALL, "--out", str(out / "traced2.json")])
    return {
        "out": out,
        "bindings": (before, restored),
        "codes": (first[0], plain, second[0]),
        "spans": (first[1], second[1]),
    }


def test_untraced_pass_after_traced_one_is_byte_identical(small_runs):
    out = small_runs["out"]
    before, restored = small_runs["bindings"]
    assert restored == before
    assert small_runs["codes"] == (1, 1, 1)
    plain = (out / "plain.json").read_bytes()
    assert (out / "traced.json").read_bytes() == plain
    assert (out / "traced2.json").read_bytes() == plain


def test_tracer_intercepts_names_bound_by_from_import(small_runs):
    stats, misses = span_stats(small_runs["spans"][0])
    # claims and oracles call schreier_sims through their own from-imports,
    # and claims tests membership with `in`, which goes through __contains__
    assert stats["groups.schreier_sims"][0] > 1
    assert stats["groups.contains"][0] > 0
    assert stats["lattice.realize"][0] > 0
    assert stats["claims.thm-3.4"][0] == 1
    assert 0 < misses["b_bsgs"] < stats["claims.session.b_bsgs"][0]


def test_two_traced_runs_give_identical_counts(small_runs):
    first, second = small_runs["spans"]
    counts = [{name: row[0] for name, row in span_stats(s)[0].items()} for s in (first, second)]
    assert counts[0] == counts[1]
    assert first.extras == second.extras
    a, b = layer_metrics(first), layer_metrics(second)
    exact = [name for name, unit in LAYER_METRICS.items() if unit != "s"]
    assert {name: a[name] for name in exact} == {name: b[name] for name in exact}


def test_self_times_sum_to_traced_wall_time(small_runs):
    spans = small_runs["spans"][0]
    stats, _ = span_stats(spans)
    roots = [i for i, parent in enumerate(spans.parents) if parent < 0]
    assert [spans.names[spans.name_ids[i]] for i in roots] == ["cli.main"]
    wall = stats["cli.main"][1]
    assert math.isclose(sum(row[2] for row in stats.values()), wall, rel_tol=1e-9)
    metrics = layer_metrics(spans)
    reported = [layer for layer in LAYERS if f"{layer}.self_s" in metrics]
    by_layer = sum(metrics[f"{layer}.self_s"] for layer in reported)
    rest = sum(row[2] for name, row in stats.items() if name.split(".")[0] not in reported)
    assert math.isclose(by_layer + rest, wall, rel_tol=1e-9)


@pytest.fixture(scope="module")
def grid_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("grid") / "report.json"
    code = braidperm.cli.main(pass_argv(WORKLOADS["grid"], 7, str(path)))
    return code, path.read_text(encoding="utf-8")


def _altered(text, old, new):
    assert text.count(old) >= 1
    return text.replace(old, new, 1)


def test_gate_accepts_the_seed_report_and_rejects_altered_copies(grid_report):
    code, text = grid_report
    grid = WORKLOADS["grid"]
    assert check_pass(grid, 7, code, text) == []
    report = json.loads(text)
    flipped = json.loads(text)
    for entry in flipped["claims"]:
        if entry["claim"] == "cor-3.31":
            entry["pass"] = True
            break
    roots = json.loads(text)
    for entry in roots["claims"]:
        if entry["parameters"].get("check") == "counts":
            entry["witness"]["total_roots"] += 1
            break
    altered = {
        "wrong exit code": (0, text),
        "verdict flipped": (code, json.dumps(flipped, indent=2, sort_keys=True) + "\n"),
        "total_roots off by one": (code, json.dumps(roots, indent=2, sort_keys=True) + "\n"),
        "one witness byte": (code, _altered(text, '"cases": 120', '"cases": 121')),
        "other seed": (code, _altered(text, '"seed": 7', '"seed": 8')),
        "trailing newline lost": (code, text[:-1]),
        "truncated": (code, text[: len(text) // 2]),
        "entry dropped": (code, json.dumps({**report, "claims": report["claims"][1:]}, indent=2, sort_keys=True) + "\n"),
    }
    for what, (exit_code, copy) in altered.items():
        assert check_pass(grid, 7, exit_code, copy), what


def test_benchmark_json_names_the_metrics_the_benchmark_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        **LAYER_METRICS,
        "trace.overhead_ratio": "ratio",
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_tail_percentile_needs_ten_samples_above_it():
    assert run.tail_percentile(list(range(19))) is None
    assert run.tail_percentile(list(range(1, 41))) == (75.0, 30)
    assert run.tail_percentile(list(range(1, 1001))) == (99.0, 990)
