"""Span tracer that wraps braidperm's functions from outside the package.

``Tracer.install`` replaces each traced function with a wrapper that records
one span per call: name, start, end and parent span.  The spans are kept in
flat arrays in memory and written out only when the pass ends.  Because
``claims``, ``groups``, ``oracles`` and ``lattice`` bind names with
``from .x import f``, a wrapper is rebound in every ``braidperm`` module and
class namespace that holds the original, and in the claim registry.
``Tracer.uninstall`` puts every original back.

Traced functions:

- every public, non-generator function defined at module level in a layer;
- the methods in ``METHODS`` (``BSGS.__contains__`` is the same function as
  ``BSGS.contains`` and is rebound with it);
- the ``Session`` caches in ``CACHES``;
- each claim checker in ``claims.REGISTRY``, as ``claims.<tag>``.

Point evaluation, equality, hashing and ``canonical`` on ``Permutation`` are
not traced: they run tens of millions of times, so their cost stays in the
self time of the calling layer.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("perm", "shuffle", "oracles", "groups", "lattice", "claims", "report", "cli")

# span name -> (module, class, method)
METHODS = {
    "perm.mul": ("perm", "Permutation", "__mul__"),
    "perm.inverse": ("perm", "Permutation", "inverse"),
    "perm.pow": ("perm", "Permutation", "__pow__"),
    "perm.shift": ("perm", "Permutation", "shift"),
    "perm.construct": ("perm", "Permutation", "__init__"),
    "groups.contains": ("groups", "BSGS", "contains"),
    "report.to_json": ("report", "VerificationReport", "to_json"),
}

# Session cache method -> the builder it calls on a miss.  A cache span with a
# direct child span of its builder is a miss; any other cache span is a hit.
CACHES = {
    "image": "groups.braid_image",
    "b_bsgs": "groups.schreier_sims",
    "a_bsgs": "groups.schreier_sims",
    "monodromy": "lattice.monodromy_matrices",
    "transitivity": "groups.transitivity_report",
    "roots": "oracles.enumerate_roots",
}

CLAIM_TAGS = (
    "thm-2.12",
    "lemma-2.4",
    "lemma-2.5",
    "cor-2.13",
    "prop-3.30",
    "cor-3.31",
    "lemma-3.3",
    "thm-3.4",
    "cor-3.10",
    "prop-3.11",
)

# The per-layer metrics of a traced pass, in report order, with their units.
# ``trace.overhead_ratio`` needs an untraced pass too and is added by run.py.
LAYER_METRICS = {
    **{f"perm.{op}.calls": "count" for op in ("mul", "inverse", "pow", "shift", "construct")},
    "perm.self_s": "s",
    "groups.schreier_sims.calls": "count",
    "groups.schreier_sims.self_s": "s",
    "groups.schreier_sims.base_len": "points",
    "groups.schreier_sims.distinct_ratio": "ratio",
    "groups.contains.calls": "count",
    "groups.contains.self_s": "s",
    "groups.contains.member_ratio": "ratio",
    "groups.transitivity_report.self_s": "s",
    "groups.complement_search.self_s": "s",
    "groups.self_s": "s",
    "lattice.realize.calls": "count",
    "lattice.realize.self_s": "s",
    "lattice.exponent_vector.calls": "count",
    "lattice.parametrize_kernel.calls": "count",
    "lattice.compose_matrices.calls": "count",
    "lattice.monodromy_matrices.calls": "count",
    "lattice.monodromy_kernel.self_s": "s",
    "lattice.self_s": "s",
    "oracles.enumerate_roots.calls": "count",
    "oracles.enumerate_roots.pairs_tested": "count",
    "oracles.enumerate_roots.yield": "ratio",
    "oracles.enumerate_shuffles.calls": "count",
    "oracles.self_s": "s",
    "shuffle.build_shuffle.calls": "count",
    "shuffle.decompose_pair.calls": "count",
    "shuffle.is_braid_like.calls": "count",
    "shuffle.self_s": "s",
    **{f"claims.{tag}.s": "s" for tag in CLAIM_TAGS},
    "claims.self_s": "s",
    **{f"claims.session.{cache}.hit_ratio": "ratio" for cache in CACHES},
    "report.to_json.s": "s",
    "report.bytes": "bytes",
    "cli.main.s": "s",
}


def _note_build(args, kwargs, bsgs):
    group = args[0] if args else kwargs["group"]
    return group, bsgs


def _note_contains(args, kwargs, result):
    return bool(result)


def _note_roots(args, kwargs, result):
    return result.parameters["group_order"] ** 2, result.count


def _note_json(args, kwargs, text):
    return len(text.encode("utf-8"))


# span name -> function of (args, kwargs, result) whose value is kept per call.
# It runs after the span has ended, so it must stay cheap.
NOTES = {
    "groups.schreier_sims": _note_build,
    "groups.contains": _note_contains,
    "oracles.enumerate_roots": _note_roots,
    "report.to_json": _note_json,
}


def _summarize_notes(notes: dict) -> dict:
    """Reduce the per-call notes to plain numbers once the pass is over."""
    builds = notes.get("groups.schreier_sims", [])
    keys = {
        (group.degree, tuple(g.canonical() for g in group.generators)) for group, _ in builds
    }
    roots = notes.get("oracles.enumerate_roots", [])
    return {
        "schreier_sims.builds": len(builds),
        "schreier_sims.distinct": len(keys),
        "schreier_sims.base_len_sum": sum(len(bsgs.base) for _, bsgs in builds),
        "contains.members": sum(notes.get("groups.contains", [])),
        "enumerate_roots.pairs": sum(pairs for pairs, _ in roots),
        "enumerate_roots.found": sum(found for _, found in roots),
        "to_json.bytes": sum(notes.get("report.to_json", [])),
    }


@dataclass
class Spans:
    """The spans of one traced pass, one array entry per call.

    ``parents[i]`` is the index of the span that was open when span ``i``
    started, or -1 for a root span.
    """

    names: list[str] = field(default_factory=list)
    name_ids: array.array = field(default_factory=lambda: array.array("H"))
    parents: array.array = field(default_factory=lambda: array.array("i"))
    starts: array.array = field(default_factory=lambda: array.array("d"))
    ends: array.array = field(default_factory=lambda: array.array("d"))
    extras: dict = field(default_factory=dict)

    def write(self, path) -> None:
        header = {"names": self.names, "count": len(self.starts), "extras": self.extras}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)

    @classmethod
    def read(cls, path) -> "Spans":
        spans = cls()
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            spans.names = header["names"]
            spans.extras = header["extras"]
            for arr in (spans.name_ids, spans.parents, spans.starts, spans.ends):
                arr.fromfile(fh, header["count"])
        return spans


class Tracer:
    """Installs span-recording wrappers into a loaded braidperm package."""

    def __init__(self) -> None:
        self.spans = Spans()
        self._stack = [-1]
        self._notes: dict[str, list] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _wrapper(self, name: str, fn):
        nid = len(self.spans.names)
        self.spans.names.append(name)
        name_ids, parents = self.spans.name_ids.append, self.spans.parents.append
        starts, ends = self.spans.starts, self.spans.ends
        start, end = starts.append, ends.append
        stack = self._stack
        push, pop = stack.append, stack.pop
        clock = time.perf_counter
        note = NOTES.get(name)
        kept = self._notes.setdefault(name, []).append if note else None

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids(nid)
            parents(stack[-1])
            end(0.0)
            push(idx)
            start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                pop()
            if note is not None:
                kept(note(args, kwargs, result))
            return result

        return functools.update_wrapper(wrapper, fn)

    def _targets(self):
        """(span name, original function) for everything traced."""
        for layer in LAYERS:
            module = importlib.import_module(f"braidperm.{layer}")
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not inspect.isgeneratorfunction(obj)
                ):
                    yield f"{layer}.{attr}", obj
        # A method the program no longer has is skipped; its metrics read 0.
        for name, (layer, cls, method) in METHODS.items():
            owner = getattr(importlib.import_module(f"braidperm.{layer}"), cls, None)
            fn = vars(owner).get(method) if owner is not None else None
            if inspect.isfunction(fn):
                yield name, fn
        session = vars(importlib.import_module("braidperm.claims").Session)
        for cache in CACHES:
            if inspect.isfunction(session.get(cache)):
                yield f"claims.session.{cache}", session[cache]

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        namespaces = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "braidperm" or name.startswith("braidperm.")
        ]
        classes = [
            obj
            for module in namespaces
            for obj in vars(module).values()
            if inspect.isclass(obj) and obj.__module__.startswith("braidperm.")
        ]
        # keyed by id: the originals stay alive, so no other object shares one
        wrappers = {id(fn): self._wrapper(name, fn) for name, fn in self._targets()}
        for owner in namespaces + list(dict.fromkeys(classes)):
            for attr, obj in list(vars(owner).items()):
                if id(obj) in wrappers:
                    self._undo.append((owner, attr, obj))
                    setattr(owner, attr, wrappers[id(obj)])
        registry = importlib.import_module("braidperm.claims").REGISTRY
        for tag, checker in list(registry.items()):
            self._undo.append((registry, tag, checker))
            registry[tag] = self._wrapper(f"claims.{tag}", checker)

    def uninstall(self) -> Spans:
        """Restore every original binding and return the recorded spans."""
        for owner, attr, obj in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = obj
            else:
                setattr(owner, attr, obj)
        self._undo.clear()
        self.spans.extras = _summarize_notes(self._notes)
        self._notes = {}
        return self.spans


def span_stats(spans: Spans) -> tuple[dict, dict]:
    """Per span name: calls, total seconds and self seconds; and the misses
    per Session cache.

    Self time is a span's duration minus the time its direct child spans
    cover.  Spans nest strictly in one thread, so the children of a span
    never overlap and their durations add up.  A child starts after its
    parent, so one pass from the last span back sees every child before its
    parent.
    """
    ids = {name: nid for nid, name in enumerate(spans.names)}
    builder_of = {
        (ids[builder], ids[f"claims.session.{cache}"]): cache
        for cache, builder in CACHES.items()
        if builder in ids and f"claims.session.{cache}" in ids
    }
    names, parents = spans.name_ids, spans.parents
    starts, ends = spans.starts, spans.ends
    child_time = array.array("d", bytes(8 * len(starts)))
    calls = [0] * len(ids)
    total = [0.0] * len(ids)
    own = [0.0] * len(ids)
    missed: dict[int, str] = {}
    for i in range(len(starts) - 1, -1, -1):
        nid = names[i]
        duration = ends[i] - starts[i]
        calls[nid] += 1
        total[nid] += duration
        own[nid] += duration - child_time[i]
        parent = parents[i]
        if parent >= 0:
            child_time[parent] += duration
            cache = builder_of.get((nid, names[parent]))
            if cache is not None:
                missed[parent] = cache
    misses = {cache: 0 for cache in CACHES}
    for cache in missed.values():
        misses[cache] += 1
    stats = {name: (calls[nid], total[nid], own[nid]) for name, nid in ids.items()}
    return stats, misses


def layer_metrics(spans: Spans) -> dict[str, float]:
    """The metrics of ``LAYER_METRICS`` computed from one pass's spans."""
    stats, misses = span_stats(spans)
    extras = spans.extras

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    def layer_self_s(layer):
        return sum(row[2] for name, row in stats.items() if name.split(".", 1)[0] == layer)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    builds = extras["schreier_sims.builds"]
    out = {f"perm.{op}.calls": calls(f"perm.{op}") for op in ("mul", "inverse", "pow", "shift", "construct")}
    out.update(
        {
            "perm.self_s": layer_self_s("perm"),
            "groups.schreier_sims.calls": calls("groups.schreier_sims"),
            "groups.schreier_sims.self_s": self_s("groups.schreier_sims"),
            "groups.schreier_sims.base_len": ratio(extras["schreier_sims.base_len_sum"], builds),
            "groups.schreier_sims.distinct_ratio": ratio(extras["schreier_sims.distinct"], builds),
            "groups.contains.calls": calls("groups.contains"),
            "groups.contains.self_s": self_s("groups.contains"),
            "groups.contains.member_ratio": ratio(
                extras["contains.members"], calls("groups.contains")
            ),
            "groups.transitivity_report.self_s": self_s("groups.transitivity_report"),
            "groups.complement_search.self_s": self_s("groups.complement_search"),
            "groups.self_s": layer_self_s("groups"),
            "lattice.realize.calls": calls("lattice.realize"),
            "lattice.realize.self_s": self_s("lattice.realize"),
            "lattice.exponent_vector.calls": calls("lattice.exponent_vector"),
            "lattice.parametrize_kernel.calls": calls("lattice.parametrize_kernel"),
            "lattice.compose_matrices.calls": calls("lattice.compose_matrices"),
            "lattice.monodromy_matrices.calls": calls("lattice.monodromy_matrices"),
            "lattice.monodromy_kernel.self_s": self_s("lattice.monodromy_kernel"),
            "lattice.self_s": layer_self_s("lattice"),
            "oracles.enumerate_roots.calls": calls("oracles.enumerate_roots"),
            "oracles.enumerate_roots.pairs_tested": extras["enumerate_roots.pairs"],
            "oracles.enumerate_roots.yield": ratio(
                extras["enumerate_roots.found"], extras["enumerate_roots.pairs"]
            ),
            "oracles.enumerate_shuffles.calls": calls("oracles.enumerate_shuffles"),
            "oracles.self_s": layer_self_s("oracles"),
            "shuffle.build_shuffle.calls": calls("shuffle.build_shuffle"),
            "shuffle.decompose_pair.calls": calls("shuffle.decompose_pair"),
            "shuffle.is_braid_like.calls": calls("shuffle.is_braid_like"),
            "shuffle.self_s": layer_self_s("shuffle"),
        }
    )
    out.update({f"claims.{tag}.s": total_s(f"claims.{tag}") for tag in CLAIM_TAGS})
    out["claims.self_s"] = layer_self_s("claims")
    for cache in CACHES:
        looked_up = calls(f"claims.session.{cache}")
        out[f"claims.session.{cache}.hit_ratio"] = ratio(looked_up - misses[cache], looked_up)
    out["report.to_json.s"] = total_s("report.to_json")
    out["report.bytes"] = extras["to_json.bytes"]
    out["cli.main.s"] = total_s("cli.main")
    return out
