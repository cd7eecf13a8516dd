"""Time to verdict of ``braidperm verify`` on the benchmark's workloads.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 40 --trace 0

Run it from anywhere inside a checkout; it uses the checkout's ``src``.
Every pass is a fresh interpreter (perfbench/child.py) that runs one verify
command through ``braidperm.cli.main``, one pass at a time.  A discarded
warm-up pass first brings the ``.pyc`` files up to date.  Every pass is
checked against the known answers in workloads.py; a failed pass counts in
``failed`` and contributes no timing.

``--trace 0`` repeats passes until the next one would end after
``--seconds`` and reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics of tracer.py.
The last line of stdout is the JSON result; the lines before it state each
metric with its sample count, the fail share and a drift record (source
digest, Python, nproc, calibration loop time), which is also appended to
perfbench/.out/runs.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import LAYER_METRICS, Spans, layer_metrics
from workloads import WORKLOADS, Workload, check_pass, pass_argv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
CLI = ROOT / "src" / "braidperm" / "cli.py"

END_TO_END = {"verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Set-up-only processes before each pass and after the last, besides the
# set-up sample of each pass.  Spreading them over the run makes their median
# follow the machine's speed over the whole run, not over its first second.
SETUP_SAMPLES = 3
# Every run must end within 180 s, the first one's warm-up included.
RUN_LIMIT_S = 170.0
WARMUP_ARGV = ("verify", "--d", "2", "--n", "3")


@dataclass
class Pass:
    """Readings of one child process: a pass, or a set-up-only sample."""

    setup_s: float | None = None
    wall_s: float = 0.0
    verify_s: float | None = None
    peak_rss_mb: float | None = None
    exit_code: int | None = None
    problems: list[str] = field(default_factory=list)


def spawn(args: list[str], timeout: float) -> Pass:
    """Run child.py once and read back its clock readings."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("BRAIDPERM_CAP", None)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return Pass(wall_s=time.monotonic() - start, problems=[f"timed out after {timeout:.0f} s"])
    result = Pass(wall_s=time.monotonic() - start)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        result.problems.append(f"pass process exited {proc.returncode}: {proc.stderr[-2000:]}")
        return result
    try:
        data = json.loads(lines[-1])
    except json.JSONDecodeError:
        result.problems.append(f"pass process printed no result: {lines[-1][:200]!r}")
        return result
    if Path(data["module"]).resolve() != CLI.resolve():
        result.problems.append(f"imported braidperm from {data['module']}, not {CLI}")
        return result
    result.setup_s = data["ready"] - start
    result.verify_s = data.get("verify_s")
    result.peak_rss_mb = data.get("peak_rss_mb")
    result.exit_code = data.get("exit_code")
    return result


def run_pass(workload: Workload, seed: int, timeout: float, spans: Path | None = None) -> Pass:
    report = OUT / "report.json"
    report.unlink(missing_ok=True)
    argv = pass_argv(workload, seed, str(report))
    result = spawn([str(spans) if spans else "-", *argv], timeout)
    if not result.problems:
        text = report.read_text(encoding="utf-8") if report.exists() else ""
        result.problems = check_pass(workload, seed, result.exit_code, text)
    if result.problems:
        result.verify_s = result.peak_rss_mb = None
    return result


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, read directly so that no parent
    directory is searched."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "braidperm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def calibrate() -> float:
    """Best of three timings of a fixed pure-Python loop.  The loop never
    changes, so a change in its time between sets of runs is machine drift."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(60_000):
            images = tuple((i * k + 7) % 16 for k in range(16))
            acc += sorted(images)[i % 16]
        best = min(best, time.perf_counter() - start)
    return best


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest of these percentiles with at least ten samples above it,
    by nearest rank, or None when there are too few samples."""
    ordered = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return None


def describe(name: str, values: list[float], unit: str) -> str:
    if not values:
        return f"{name}: no successful sample"
    line = f"{name}: median {statistics.median(values):.6g} {unit} (n={len(values)}"
    tail = tail_percentile(values)
    if tail:
        line += f", p{tail[0]:g} {tail[1]:.6g} {unit}"
    return line + ")"


def end_to_end(workload: Workload, seed: int, seconds: int, limit: float) -> tuple[list[Pass], dict]:
    def sample_setup():
        return [spawn(["-"], limit - time.monotonic()) for _ in range(SETUP_SAMPLES)]

    setups, passes = [], []
    begin = time.monotonic()
    while True:
        setups += sample_setup()
        passes.append(run_pass(workload, seed, limit - time.monotonic()))
        typical = statistics.median(p.wall_s for p in passes)
        if time.monotonic() + typical > min(begin + seconds, limit):
            break
    setups += sample_setup()
    ok = [p for p in passes if not p.problems]
    samples = {
        "verify_s": [p.verify_s for p in ok],
        "setup_s": [p.setup_s for p in setups + ok if p.setup_s is not None],
        "peak_rss_mb": [p.peak_rss_mb for p in ok],
    }
    for name, unit in END_TO_END.items():
        print(describe(name, samples[name], unit))
    metrics = {
        name: {"value": statistics.median(samples[name]) if samples[name] else None, "unit": unit}
        for name, unit in END_TO_END.items()
    }
    return passes, metrics


def traced(workload: Workload, seed: int, limit: float) -> tuple[list[Pass], dict]:
    units = {**LAYER_METRICS, "trace.overhead_ratio": "ratio"}
    spans_path = OUT / "spans.bin"
    spans_path.unlink(missing_ok=True)
    plain = run_pass(workload, seed, limit - time.monotonic())
    passes = [plain]
    if not plain.problems:
        passes.append(run_pass(workload, seed, limit - time.monotonic(), spans_path))
    if any(p.problems for p in passes):
        return passes, {name: {"value": None, "unit": unit} for name, unit in units.items()}
    spans = Spans.read(spans_path)
    values = layer_metrics(spans)
    values["trace.overhead_ratio"] = passes[1].verify_s / plain.verify_s
    print(f"{len(spans.starts)} spans; untraced verify_s {plain.verify_s:.6g} s, "
          f"traced {passes[1].verify_s:.6g} s")
    for name, unit in units.items():
        print(f"{name}: {values[name]:.6g} {unit}")
    return passes, {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    limit = time.monotonic() + RUN_LIMIT_S
    if not CLI.is_file():
        print(f"error: {CLI} not found; run inside a braidperm checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_s": calibrate(),
    }
    print("drift record: " + json.dumps(record))
    warmup = spawn(["-", *WARMUP_ARGV, "--out", str(OUT / "warmup.txt")], limit - time.monotonic())
    if warmup.problems:
        print(f"warm-up pass failed: {warmup.problems}", file=sys.stderr)
    if args.trace:
        passes, metrics = traced(workload, args.seed, limit)
    else:
        passes, metrics = end_to_end(workload, args.seed, args.seconds, limit)
    failed = [p for p in passes if p.problems]
    for p in failed:
        print("failed pass: " + "; ".join(p.problems), file=sys.stderr)
    print(f"fail_share: {len(failed)}/{len(passes)} = {len(failed) / len(passes):.3f}")
    result = {
        "correct": not failed,
        "attempted": len(passes),
        "failed": len(failed),
        "metrics": metrics,
    }
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**record, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
