"""The benchmark's workloads and the correctness gate every pass goes through.

Each workload is one ``braidperm verify`` command.  Only cor-2.13 draws from
``--seed``, and its draws reach the report only through failure examples, so
the seed commit's report for any seed is its seed-0 report with the top-level
``"seed"`` field changed.  The gate therefore checks a report's bytes against
the sha256 of that seed-0 report, after setting the field back to 0.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    exit_code: int
    entries: int
    # (claim, parameters) of every entry the seed commit reports as failing
    failing: frozenset
    # normalized_sha256 of the seed commit's report
    report_sha256: str


def _key(claim: str, **parameters) -> tuple[str, str]:
    return claim, json.dumps(parameters, sort_keys=True)


# thm-2.12 total_roots: p(d) * d!, the number of shuffle-built roots.
TOTAL_ROOTS = {2: 4, 3: 18, 4: 120, 5: 840}

WORKLOADS = {
    "grid": Workload(
        argv=("verify", "--d-max", "4", "--n-max", "4"),
        exit_code=1,
        entries=60,
        failing=frozenset(
            key
            for d in (2, 3, 4)
            for n in (3, 4)
            for key in (
                _key("prop-3.30", d=d, n=n, check="orbit-partition"),
                _key("cor-3.31", d=d, n=n),
            )
        ),
        report_sha256="7a9b1aedc9bf7372e8d7468fb87f211aeb41bf40c0d47da0a4b97304fea43354",
    ),
    "monodromy": Workload(
        argv=("verify", "--d", "3", "--n", "6", "--claim", "prop-3.11"),
        exit_code=0,
        entries=1,
        failing=frozenset(),
        report_sha256="1b4a0797026a9adb3a2c57f5b2805df590c113af4d9427767f55460ab4b5aa6a",
    ),
    "coset": Workload(
        argv=(
            "verify", "--d", "5", "--n", "3",
            "--claim", "thm-2.12", "--claim", "lemma-2.4",
            "--claim", "lemma-2.5", "--claim", "cor-2.13",
        ),
        exit_code=0,
        entries=10,
        failing=frozenset(),
        report_sha256="6763ab6579446901f2a390bbd7d9d11caf638e2bac0f15f518f4c63373938035",
    ),
}

_SEED_LINE = re.compile(r'^  "seed": (-?\d+)$', re.MULTILINE)


def pass_argv(workload: Workload, seed: int, out: str) -> list[str]:
    return [*workload.argv, "--format", "json", "--seed", str(seed), "--out", out]


def normalized_sha256(text: str) -> str:
    """sha256 of a JSON report with its top-level seed set to 0."""
    return hashlib.sha256(_SEED_LINE.sub('  "seed": 0', text).encode("utf-8")).hexdigest()


def check_pass(workload: Workload, seed: int, exit_code: int, text: str) -> list[str]:
    """Every way the pass's exit code and report differ from the known answer."""
    problems = []
    if exit_code != workload.exit_code:
        problems.append(f"exit code {exit_code}, expected {workload.exit_code}")
    try:
        report = json.loads(text)
        problems += _check_entries(workload, seed, text, report)
    except (json.JSONDecodeError, AttributeError, KeyError, TypeError) as exc:
        problems.append(f"malformed report: {exc!r}")
    digest = normalized_sha256(text)
    if digest != workload.report_sha256:
        problems.append(f"report sha256 {digest} differs from the seed commit's")
    return problems


def _check_entries(workload: Workload, seed: int, text: str, report: dict) -> list[str]:
    problems = []
    if report.get("seed") != seed or _SEED_LINE.findall(text) != [str(seed)]:
        problems.append(f"report seed is {report.get('seed')!r}, expected {seed}")
    claims = report["claims"]
    if len(claims) != workload.entries:
        problems.append(f"{len(claims)} entries, expected {workload.entries}")
    failing = set()
    for entry in claims:
        key = _key(entry["claim"], **entry["parameters"])
        if not entry["pass"]:
            failing.add(key)
            if entry["witness"].get("finding_holds") is not True:
                problems.append(f"{key}: refuted claim without finding_holds true")
        if entry["claim"] == "thm-2.12" and entry["parameters"].get("check") == "counts":
            d = entry["parameters"]["d"]
            total = entry["witness"].get("total_roots")
            if total != TOTAL_ROOTS.get(d):
                problems.append(f"thm-2.12 d={d}: total_roots {total}, expected {TOTAL_ROOTS.get(d)}")
    for key in sorted(failing ^ workload.failing):
        verdict = "fails" if key in failing else "passes"
        problems.append(f"{key} {verdict}, the known answer differs")
    if report.get("all_pass") != (not failing):
        problems.append("all_pass disagrees with the entries")
    return problems
