"""Command-line interface: construct shuffle permutations, verify the claim
suite, and export generators.

Exit codes: 0 success / all claims pass, 1 claim failure, 2 bad input or
configuration, 3 output I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .claims import REGISTRY, RunConfig, run_verification
from .groups import braid_image, gap_generators, tower
from .lattice import q2_of
from .oracles import DEFAULT_CAP, CapExceeded
from .perm import Permutation, parse_cycles
from .shuffle import (
    ShuffleSpec,
    SpecError,
    build_pair,
    build_shuffle,
    components,
    tau_cycles,
    tau_from_cycles,
)

EXIT_OK = 0
EXIT_CLAIM_FAILURE = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _spec_from_args(args) -> ShuffleSpec:
    if args.spec:
        try:
            with open(args.spec, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SpecError(f"cannot read spec file {args.spec}: {exc}") from exc
        return ShuffleSpec.from_json_dict(data)
    if args.d is None or args.tau is None:
        raise SpecError("give --spec FILE, or both --d and --tau")
    d = args.d
    tau = tau_from_cycles(parse_cycles(args.tau), d)
    mins = [c[0] for c in tau_cycles(tau, d)]
    u = None
    if args.u not in (None, "id"):
        cycles = parse_cycles(args.u)
        named = sorted({x for cycle in cycles for x in cycle})
        if not set(named) <= set(mins):
            raise SpecError(f"--u permutes cycle labels {mins}, got points {named}")
        label_perm = Permutation.from_cycles(cycles)
        u = {a: label_perm(a) for a in mins}
    choices = None
    if args.i1 or args.j1:
        i1s, j1s = args.i1 or [], args.j1 or []
        if len(i1s) != len(mins) or len(j1s) != len(mins):
            raise SpecError(
                f"tau has {len(mins)} cycles; give --i1 and --j1 once per cycle "
                f"in order of least elements {mins}"
            )
        choices = {m: (i, j) for m, i, j in zip(mins, i1s, j1s)}
    return ShuffleSpec.make(tau, d, u, choices)


def _construct_data(spec: ShuffleSpec, n: int) -> dict:
    sigma = build_shuffle(spec)
    pair = build_pair(spec)
    q = spec.tau.order()
    comps = components(spec)
    return {
        "d": spec.d,
        "n": n,
        "sigma": str(sigma),
        "tau": str(spec.tau),
        "q": q,
        "q2": q2_of(q),
        "pair": [str(pair.first), str(pair.second)],
        "components": [
            {
                "cycles": [list(c) for c in comp.cycles],
                "x": sorted(comp.points),
                "y": sorted(tower(comp.points, spec.d, n)),
                "factor": str(comp.factor),
            }
            for comp in comps
        ],
        "spec": spec.to_json_dict(),
    }


def _cmd_construct(args) -> int:
    if args.n < 1:
        raise SpecError(f"n must be positive, got {args.n}")
    spec = _spec_from_args(args)
    data = _construct_data(spec, args.n)
    if args.format == "json":
        text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    else:
        lines = [
            f"sigma = {data['sigma']}",
            f"tau   = {data['tau']}",
            f"q     = {data['q']}",
            f"q2    = {data['q2']}",
            f"pair  = ({data['pair'][0]}, {data['pair'][1]})",
        ]
        for idx, comp in enumerate(data["components"], start=1):
            cyc = " ".join("(" + " ".join(map(str, c)) + ")" for c in comp["cycles"])
            lines.append(
                f"component {idx}: cycles={cyc} X={{{', '.join(map(str, comp['x']))}}} "
                f"Y={{{', '.join(map(str, comp['y']))}}} factor={comp['factor']}"
            )
        text = "\n".join(lines) + "\n"
    _write_out(text, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = RunConfig(
        d_max=args.d_max,
        n_max=args.n_max,
        d=args.d,
        n=args.n,
        claims=tuple(args.claim) if args.claim else None,
        seed=args.seed,
        cap=args.cap,
    )
    report = run_verification(config)
    text = report.to_json() if args.format == "json" else report.to_text()
    _write_out(text, args.out)
    return EXIT_OK if report.all_pass else EXIT_CLAIM_FAILURE


def _cmd_export(args) -> int:
    spec = _spec_from_args(args)
    image = braid_image(build_shuffle(spec), spec.d, args.n)
    if args.format == "json":
        data = {
            "schema": 1,
            "d": image.d,
            "n": image.n,
            "sigma": str(image.sigma),
            "tau": str(image.tau),
            "q": image.q,
            "q2": image.q2,
            "generators": [str(g) for g in image.generators],
        }
        text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    else:
        text = gap_generators(image.generators)
    _write_out(text, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidperm",
        description="Construct shuffle permutations, verify the structural "
        "claim suite, and export generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="build sigma and its pair from a spec")
    _add_spec_args(construct)
    construct.add_argument("--n", type=int, default=3, help="strand count for the towers")
    construct.add_argument("--format", choices=("text", "json"), default="text")
    construct.add_argument("--out", help="write output to this path instead of stdout")
    construct.set_defaults(func=_cmd_construct)

    verify = sub.add_parser("verify", help="run the claim suite over a parameter grid")
    verify.add_argument("--d-max", type=int, default=3)
    verify.add_argument("--n-max", type=int, default=3)
    verify.add_argument("--d", type=int, help="check a single block size instead of a range")
    verify.add_argument("--n", type=int, help="check a single strand count instead of a range")
    verify.add_argument(
        "--claim",
        action="append",
        choices=sorted(REGISTRY),
        help="restrict to one claim tag (repeatable)",
    )
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--out", help="write the report to this path instead of stdout")
    verify.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    verify.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_CAP,
        help="largest sweep, as the coset claims' p(d)*d! fibre elements (default 10^7)",
    )
    verify.set_defaults(func=_cmd_verify)

    export = sub.add_parser("export", help="export group generators")
    _add_spec_args(export)
    export.add_argument("--n", type=int, default=3, help="strand count")
    export.add_argument("--format", choices=("gap", "json"), default="gap")
    export.add_argument("--out", help="write output to this path instead of stdout")
    export.set_defaults(func=_cmd_export)

    return parser


def _add_spec_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--d", type=int, help="block size")
    cmd.add_argument("--tau", help="base permutation in cycle notation")
    cmd.add_argument(
        "--u",
        help='cycle map: "id" or cycle notation on the least elements of the cycles of tau',
    )
    cmd.add_argument(
        "--i1", type=int, action="append", help="starting point on a cycle (one per cycle)"
    )
    cmd.add_argument(
        "--j1", type=int, action="append", help="starting point on the image cycle (one per cycle)"
    )
    cmd.add_argument("--spec", help="read the spec from a JSON file instead")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, ValueError, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
