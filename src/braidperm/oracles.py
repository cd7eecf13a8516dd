"""Brute-force enumerations used as ground truth.

These stay definitionally dumb on purpose: they enumerate candidates and test
the defining property directly, so the constructive code paths elsewhere can
be checked against them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import GeneratedGroup, schreier_sims
from .perm import Permutation, _compose, _padded, _trusted
from .shuffle import ShuffleSpec, _walk, iter_specs

__all__ = [
    "CapExceeded",
    "EnumerationResult",
    "commuting_pairs",
    "conjugacy_class_count",
    "enumerate_roots",
    "enumerate_shuffles",
    "roots_by_tau",
]


D_CAP = 6  # largest block size the shuffle enumeration and the grid accept
DEFAULT_CAP = 10_000_000  # largest enumeration size when no cap is given


class CapExceeded(RuntimeError):
    """An enumeration would exceed its configured size cap."""


@dataclass(frozen=True, eq=False)
class EnumerationResult:
    """A deduplicated, canonically sorted enumeration; a shuffle enumeration
    also holds, in step with elements, the spec that built each one."""

    parameters: dict
    elements: tuple[Permutation, ...]
    count: int
    specs: tuple[ShuffleSpec, ...] = ()


def _sorted(perms) -> tuple[Permutation, ...]:
    return tuple(sorted(perms, key=lambda p: p.canonical()))


def roots_by_tau(
    w: GeneratedGroup, cap: int = DEFAULT_CAP
) -> dict[tuple[int, ...], EnumerationResult]:
    """For every member tau of W, keyed by ``tau.canonical()``: all
    sigma = swap * w1 * shift(w2, d) over pairs from W whose square is
    tau * shift(tau, d).

    The swap exchanges the two d-blocks, so on image tuples of degree 2d
    sigma is (w1 + d) followed by w2, and tau * shift(tau, d) is tau followed
    by (tau + d).  One pass over the coset tests each pair once: sigma * sigma
    is looked up among the targets.  A target's first block is tau, so the
    targets are distinct and sigma lands in the one bucket whose defining
    equation it satisfies, or in none.
    """
    bs = schreier_sims(w)
    if bs.order() ** 2 > cap:
        raise CapExceeded(f"|W|^2 = {bs.order() ** 2} exceeds the cap {cap}")
    d = w.degree
    members = _sorted(bs.elements())
    images = [_padded(x, d) for x in members]
    lifted = [tuple([y + d for y in x]) for x in images]
    targets = {x + up: tau for tau, x, up in zip(members, images, lifted)}
    found: dict[Permutation, set[tuple[int, ...]]] = {tau: set() for tau in members}
    for up in lifted:
        for w2 in images:
            sigma = up + w2
            tau = targets.get(_compose(sigma, sigma))
            if tau is not None:
                found[tau].add(sigma)
    return {
        tau.canonical(): EnumerationResult(
            {"kind": "roots", "d": d, "tau": str(tau), "group_order": bs.order()},
            _sorted(map(_trusted, roots)),
            len(roots),
        )
        for tau, roots in found.items()
    }


def enumerate_roots(
    w: GeneratedGroup, tau: Permutation, cap: int = DEFAULT_CAP
) -> EnumerationResult:
    """All sigma = swap * w1 * shift(w2, d) over pairs from W whose square is
    tau * shift(tau, d): tau's bucket of ``roots_by_tau``."""
    if tau not in schreier_sims(w):
        raise ValueError("tau must be a member of the group")
    return roots_by_tau(w, cap)[tau.canonical()]


def enumerate_shuffles(d: int, tau: Permutation) -> EnumerationResult:
    """All distinct shuffle-built permutations over tau, over every cycle map
    and every choice of starting points, each with the first spec in
    iter_specs order that builds it.  Each spec is walked as build_shuffle
    walks it, with tau padded once; sigma maps 2d into [1, d], so its image
    tuple of degree 2d is its canonical(), and the distinct tuples are
    sorted as _sorted sorts and wrapped once each.

    That spec is decompose_pair's for sigma's pair first(i) = sigma(i) - d,
    second(i) = sigma(d + i).  sigma fixes u, and on each cycle alpha the
    (i1, j1) that build sigma are one pair advanced together along tau, one
    per i1 on alpha.  iter_specs runs i1 along each cycle from its least
    point, cycle by cycle, so the first spec has i1 = alpha's least point and
    j1 = sigma(i1) - d = first(i1) on every alpha: decompose_pair's choices.
    """
    if d > D_CAP:
        raise CapExceeded(f"d = {d} exceeds the cap {D_CAP}")
    images = _padded(tau, d)
    found: dict[tuple[int, ...], ShuffleSpec] = {}
    for spec in iter_specs(tau, d):
        found.setdefault(_walk(spec, images)[0], spec)
    sigmas = sorted(found)
    specs = tuple(map(found.get, sigmas))
    parameters = {"kind": "shuffles", "d": d, "tau": str(tau)}
    return EnumerationResult(parameters, tuple(map(_trusted, sigmas)), len(sigmas), specs)


def _commute(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Whether a*b = b*a, for image tuples of one degree: a(b(i)) against
    b(a(i)) point by point, up to the first difference."""
    for x, y in zip(a, b):
        if a[y - 1] != b[x - 1]:
            return False
    return True


def commuting_pairs(
    w: GeneratedGroup, cap: int = DEFAULT_CAP
) -> list[tuple[Permutation, Permutation]]:
    """The ordered commuting pairs of members, by double loop over their
    image tuples, all of the group's degree."""
    bs = schreier_sims(w)
    if bs.order() ** 2 > cap:
        raise CapExceeded(f"|W|^2 = {bs.order() ** 2} exceeds the cap {cap}")
    members = list(bs.elements())
    return [(a, b) for a in members for b in members if _commute(a.images, b.images)]


def conjugacy_class_count(w: GeneratedGroup, cap: int = DEFAULT_CAP) -> int:
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

