"""Brute-force enumerations used as ground truth.

These stay definitionally dumb on purpose: they enumerate candidates and test
the defining property directly, so the constructive code paths elsewhere can
be checked against them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import GeneratedGroup, schreier_sims
from .perm import Permutation, block_swap
from .shuffle import build_shuffle, iter_specs

__all__ = [
    "CapExceeded",
    "EnumerationResult",
    "conjugacy_class_count",
    "count_commuting_pairs",
    "enumerate_roots",
    "enumerate_shuffles",
]


class CapExceeded(RuntimeError):
    """An enumeration would exceed its configured size cap."""


@dataclass(frozen=True, eq=False)
class EnumerationResult:
    """A deduplicated, canonically sorted enumeration."""

    parameters: dict
    elements: tuple[Permutation, ...]
    count: int


def _sorted(perms) -> tuple[Permutation, ...]:
    return tuple(sorted(perms, key=lambda p: p.canonical()))


def enumerate_roots(
    w: GeneratedGroup, tau: Permutation, cap: int = 10_000_000
) -> EnumerationResult:
    """All sigma = swap * w1 * shift(w2, d) over pairs from W whose square is
    tau * shift(tau, d), found by testing every pair."""
    bs = schreier_sims(w)
    if tau not in bs:
        raise ValueError("tau must be a member of the group")
    if bs.order() ** 2 > cap:
        raise CapExceeded(f"|W|^2 = {bs.order() ** 2} exceeds the cap {cap}")
    d = w.degree
    swap = block_swap(1, d, 2)
    target = tau * tau.shift(d)
    members = _sorted(bs.elements())
    shifted = [x.shift(d) for x in members]
    found = set()
    for w1 in members:
        left = swap * w1
        for w2 in shifted:
            sigma = left * w2
            if sigma * sigma == target:
                found.add(sigma)
    return EnumerationResult(
        {"kind": "roots", "d": d, "tau": str(tau), "group_order": bs.order()},
        _sorted(found),
        len(found),
    )


def enumerate_shuffles(d: int, tau: Permutation, d_cap: int = 6) -> EnumerationResult:
    """All distinct shuffle-built permutations over tau: every cycle map and
    every choice of starting points, deduplicated."""
    if d > d_cap:
        raise CapExceeded(f"d = {d} exceeds the cap {d_cap}")
    found = {build_shuffle(spec) for spec in iter_specs(tau, d)}
    return EnumerationResult(
        {"kind": "shuffles", "d": d, "tau": str(tau)},
        _sorted(found),
        len(found),
    )


def count_commuting_pairs(w: GeneratedGroup, cap: int = 10_000_000) -> int:
    """Number of ordered commuting pairs of members, by double loop."""
    bs = schreier_sims(w)
    if bs.order() ** 2 > cap:
        raise CapExceeded(f"|W|^2 = {bs.order() ** 2} exceeds the cap {cap}")
    members = list(bs.elements())
    return sum(1 for a in members for b in members if a * b == b * a)


def conjugacy_class_count(w: GeneratedGroup, cap: int = 10_000_000) -> int:
    """Number of conjugacy classes, by orbit closure under generator conjugation."""
    bs = schreier_sims(w)
    if bs.order() > cap:
        raise CapExceeded(f"|W| = {bs.order()} exceeds the cap {cap}")
    seen: set[Permutation] = set()
    classes = 0
    for start_elem in bs.elements():
        if start_elem in seen:
            continue
        classes += 1
        seen.add(start_elem)
        frontier = [start_elem]
        while frontier:
            x = frontier.pop()
            for g in w.generators:
                y = g * x * g.inverse()
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return classes

