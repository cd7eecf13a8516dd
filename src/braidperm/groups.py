"""Permutation-group algorithms and the braid-relation groups of shuffle permutations.

The stabilizer chain is the classic deterministic Schreier-Sims construction,
which is ample for the degrees (a few dozen) and orders (a few million) this
package works at.  Orders are exact Python integers throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Iterable, Iterator, Sequence

from .lattice import exponent_vector, q2_of
from .perm import Permutation
from .report import ClaimCheck
from .shuffle import ShuffleSpec, component_factors, is_braid_like

__all__ = [
    "BSGS",
    "BraidImage",
    "GeneratedGroup",
    "SplitVerificationError",
    "TransitivityClass",
    "abelian_kernel",
    "block_split",
    "braid_image",
    "braid_relations_hold",
    "complement_search",
    "cyclic_group",
    "extension_report",
    "gap_generators",
    "orbit",
    "orbits_partition",
    "schreier_sims",
    "split_complement",
    "symmetric_group",
    "tower",
    "transitivity_report",
]


@dataclass(frozen=True)
class GeneratedGroup:
    """A permutation group of [1, degree] given by generators."""

    degree: int
    generators: tuple[Permutation, ...]

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValueError("need at least one generator (the identity for the trivial group)")
        for g in self.generators:
            if max(g.support(), default=0) > self.degree:
                raise ValueError("generator moves a point beyond the group degree")


def symmetric_group(d: int) -> GeneratedGroup:
    if d < 1:
        raise ValueError("degree must be positive")
    if d == 1:
        return GeneratedGroup(1, (Permutation.identity(1),))
    gens = [Permutation.from_cycles([(1, 2)], d)]
    if d > 2:
        gens.append(Permutation.from_cycles([tuple(range(1, d + 1))], d))
    return GeneratedGroup(d, tuple(gens))


def cyclic_group(p: Permutation, degree: int | None = None) -> GeneratedGroup:
    return GeneratedGroup(max(p.degree, degree or 1), (p,))


def orbit(points: Iterable[int], group: GeneratedGroup) -> frozenset[int]:
    """Closure of a point set under all generators."""
    seen = set(points)
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for g in group.generators:
            y = g(x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def orbits_partition(group: GeneratedGroup) -> list[frozenset[int]]:
    """Orbits on [1, degree], sorted by least point."""
    out = []
    remaining = set(range(1, group.degree + 1))
    while remaining:
        o = orbit([min(remaining)], group)
        out.append(o)
        remaining -= o
    return out


class _Level:
    __slots__ = ("point", "gens", "transversal")

    def __init__(self, point: int):
        self.point = point
        self.gens: list[Permutation] = []
        self.transversal: dict[int, Permutation] = {point: Permutation.identity()}


def _sift(levels: list[_Level], g: Permutation, start: int) -> tuple[Permutation, int]:
    """Strip g through levels[start:]: the residue and the level where it stopped.

    The residue is the identity iff g lies in the stabilizer the chain
    describes from level start on.
    """
    i = start
    while i < len(levels):
        if g.is_identity():
            return g, i
        level = levels[i]
        x = g(level.point)
        if x != level.point:
            rep = level.transversal.get(x)
            if rep is None:
                return g, i
            g = rep.inverse() * g
        i += 1
    return g, i


class BSGS:
    """Base and strong generating set with per-level orbits and transversals.

    A finished chain is immutable and supports exact order, membership, and
    deterministic element enumeration.
    """

    def __init__(self, degree: int, levels: list[_Level]):
        self.degree = degree
        self._levels = levels

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(level.point for level in self._levels)

    def order(self) -> int:
        out = 1
        for level in self._levels:
            out *= len(level.transversal)
        return out

    def contains(self, g: Permutation) -> bool:
        if max(g.support(), default=0) > self.degree:
            return False
        residue, _ = _sift(self._levels, g, 0)
        return residue.is_identity()

    __contains__ = contains

    def elements(self) -> Iterator[Permutation]:
        """All members, deterministically ordered by transversal points."""

        def rec(i: int) -> Iterator[Permutation]:
            if i == len(self._levels):
                yield Permutation.identity()
                return
            level = self._levels[i]
            for x in sorted(level.transversal):
                rep = level.transversal[x]
                for rest in rec(i + 1):
                    yield rep * rest

        return rec(0)


def schreier_sims(group: GeneratedGroup) -> BSGS:
    """Deterministic stabilizer chain.

    One shared strong generator list; level i uses the strong generators that
    fix the first i base points.  Levels are verified bottom-up: every
    Schreier generator of a level must sift to the identity through the levels
    below, and a failure adds the sifted residue as a strong generator and
    resumes at the deepest level it affects.  New base points are the smallest
    points moved by the offending element.
    """
    base: list[int] = []
    strong: list[Permutation] = []
    levels: list[_Level] = []

    def add_strong(g: Permutation) -> None:
        strong.append(g)
        if all(g(b) == b for b in base):
            base.append(min(g.support()))
            levels.append(_Level(base[-1]))

    for g in group.generators:
        if not g.is_identity() and g not in strong:
            add_strong(g)
    if not strong:
        return BSGS(group.degree, [])

    def rebuild(i: int) -> None:
        level = levels[i]
        level.gens = [
            g for g in strong if all(g(base[j]) == base[j] for j in range(i))
        ]
        transversal = {level.point: Permutation.identity()}
        queue = [level.point]
        while queue:
            x = queue.pop(0)
            for g in level.gens:
                y = g(x)
                if y not in transversal:
                    transversal[y] = g * transversal[x]
                    queue.append(y)
        level.transversal = transversal

    i = len(levels) - 1
    while i >= 0:
        rebuild(i)
        level = levels[i]
        failure: tuple[Permutation, int] | None = None
        for x in sorted(level.transversal):
            rep = level.transversal[x]
            for s in level.gens:
                schreier = level.transversal[s(x)].inverse() * (s * rep)
                if schreier.is_identity():
                    continue
                residue, j = _sift(levels, schreier, i + 1)
                if not residue.is_identity():
                    failure = (residue, j)
                    break
            if failure:
                break
        if failure is None:
            i -= 1
            continue
        residue, j = failure
        add_strong(residue)
        i = min(j, len(levels) - 1)
    for i in range(len(levels)):
        rebuild(i)
    return BSGS(group.degree, levels)


def braid_relations_hold(gens: Sequence[Permutation]) -> bool:
    """Adjacent triple products agree and distant generators commute."""
    for r in range(len(gens)):
        for s in range(r + 1, len(gens)):
            a, b = gens[r], gens[s]
            if s - r == 1:
                if a * b * a != b * a * b:
                    return False
            elif a * b != b * a:
                return False
    return True


@dataclass(frozen=True)
class BraidImage:
    """A shuffle permutation with its block shifts as group generators.

    sigma lives on [1, 2d], generator s is sigma shifted up by (s-1)d, the
    square of sigma splits into the two block copies of tau, q is the order
    of tau, and q2 = q / gcd(q, 2).
    """

    sigma: Permutation
    d: int
    n: int
    tau: Permutation
    q: int
    q2: int
    generators: tuple[Permutation, ...]

    def group(self) -> GeneratedGroup:
        return GeneratedGroup(self.n * self.d, self.generators)


def block_split(square: Permutation, d: int) -> Permutation | None:
    """The common block factor tau when square == tau * shift(tau, d), else None."""
    first = tuple(square(i) for i in range(1, d + 1))
    if any(x > d for x in first):
        return None
    tau = Permutation(first)
    return tau if square == tau * tau.shift(d) else None


def braid_image(sigma: Permutation, d: int, n: int) -> BraidImage:
    """Validate sigma and assemble the generator family.

    Requires sigma to map [1, d] onto [d+1, 2d], the pair (sigma,
    shift(sigma, d)) to be braid-like, and sigma squared to split into equal
    block factors.  The generators are then checked to satisfy the braid
    relations, with the square of generator s equal to the shifted block pair.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if d < 1:
        raise ValueError("need d >= 1")
    if max(sigma.support(), default=0) > 2 * d:
        raise ValueError(f"sigma must live on [1, {2 * d}]")
    if any(not d < sigma(i) <= 2 * d for i in range(1, d + 1)):
        raise ValueError("sigma does not map the first block onto the second")
    if not is_braid_like(sigma, sigma.shift(d)):
        raise ValueError("(sigma, shift(sigma, d)) is not braid-like")
    square = sigma * sigma
    tau = block_split(square, d)
    if tau is None:
        raise ValueError("sigma squared does not split into equal block factors")
    q = tau.order()
    gens = tuple(sigma.shift((s - 1) * d) for s in range(1, n))
    for s, g in enumerate(gens, start=1):
        if g * g != square.shift((s - 1) * d):
            raise ValueError("generator square is not the shifted block pair")
    if not braid_relations_hold(gens):
        raise ValueError("generators do not satisfy the braid relations")
    return BraidImage(sigma, d, n, tau, q, q2_of(q), gens)


def abelian_kernel(image: BraidImage) -> GeneratedGroup:
    """Subgroup generated by the generator squares and their adjacent conjugates.

    Every generator is checked to preserve the d-blocks as a power of the
    shifted tau, and the family is checked to be abelian; a violation means a
    corrupted image and raises RuntimeError.
    """
    gens = [g**2 for g in image.generators]
    for r in range(1, image.n - 1):
        a, b = image.generators[r - 1], image.generators[r]
        gens.append(a * (b * b) * a.inverse())
    for g in gens:
        try:
            exponent_vector(g, image.tau, image.d, image.n)
        except ValueError as exc:
            raise RuntimeError(f"kernel generator escapes the block product: {exc}") from exc
    for i, a in enumerate(gens):
        for b in gens[i + 1:]:
            if a * b != b * a:
                raise RuntimeError("kernel generators do not commute")
    return GeneratedGroup(image.n * image.d, tuple(gens))


def extension_report(
    image: BraidImage, b: BSGS | None = None, a: BSGS | None = None
) -> ClaimCheck:
    """Order and normality checks for the abelian kernel inside the full group.

    Expects the group order to be n! times the kernel order, the kernel order
    to be q^(n-1) * q2, and the kernel to be stable under conjugation by every
    generator.
    """
    b = b or schreier_sims(image.group())
    kernel = abelian_kernel(image)
    a = a or schreier_sims(kernel)
    expected_a = image.q ** (image.n - 1) * image.q2
    expected_b = math.factorial(image.n) * expected_a
    kernel_inside = all(k in b for k in kernel.generators)
    normal = all(
        g * k * g.inverse() in a for g in image.generators for k in kernel.generators
    )
    passed = (
        a.order() == expected_a
        and b.order() == expected_b
        and normal
        and kernel_inside
    )
    return ClaimCheck(
        claim="extension-structure",
        parameters={"d": image.d, "n": image.n, "tau": str(image.tau), "sigma": str(image.sigma)},
        witness={
            "b_order": b.order(),
            "a_order": a.order(),
            "expected_b": expected_b,
            "expected_a": expected_a,
            "kernel_inside": kernel_inside,
            "kernel_normal": normal,
        },
        passed=passed,
    )


class SplitVerificationError(RuntimeError):
    """An odd-q complement failed one of its checks, contradicting the
    structure claim; treat as a bug or a falsifying witness."""


def split_complement(
    image: BraidImage,
    k: int | None = None,
    l: int | None = None,
    a_bsgs: BSGS | None = None,
) -> GeneratedGroup | None:
    """For odd q, build and verify a complement of order n!; None when q is even.

    The complement is generated by the block shifts of
    sigma * tau**k * shift(tau**l, d) with k + l + 1 divisible by q (defaults
    k=0, l=q-1).  Verified: every generator squares to the identity, the group
    has order exactly n!, and only the identity lies in the abelian kernel.
    """
    if image.q % 2 == 0:
        return None
    q = image.q
    if k is None and l is None:
        k, l = 0, q - 1
    if k is None or l is None:
        raise ValueError("give both k and l or neither")
    if (k + l + 1) % q:
        raise ValueError(f"k + l + 1 must be divisible by q = {q}")
    twist = (image.tau**k) * (image.tau**l).shift(image.d)
    eta = image.sigma * twist
    gens = tuple(eta.shift((s - 1) * image.d) for s in range(1, image.n))
    for g in gens:
        if not (g * g).is_identity():
            raise SplitVerificationError("complement generator is not an involution")
    group = GeneratedGroup(image.n * image.d, gens)
    bs = schreier_sims(group)
    if bs.order() != math.factorial(image.n):
        raise SplitVerificationError(
            f"complement order {bs.order()} != {math.factorial(image.n)}"
        )
    a_bsgs = a_bsgs or schreier_sims(abelian_kernel(image))
    for h in bs.elements():
        if not h.is_identity() and h in a_bsgs:
            raise SplitVerificationError("complement meets the kernel nontrivially")
    return group


def complement_search(
    image: BraidImage, a_bsgs: BSGS | None = None, cap: int = 4096
) -> dict:
    """Exhaustive search for order-n! complements among generator lifts.

    Any complement maps onto the block permutations, so it is generated by one
    element from each coset generator * kernel; filtering involution lifts and
    checking relations, order, and trivial intersection over all combinations
    is therefore exhaustive.  Returns a summary; the search runs only when the
    number of combinations stays within cap.
    """
    a_bsgs = a_bsgs or schreier_sims(abelian_kernel(image))
    kernel_elements = list(a_bsgs.elements())
    combos = len(kernel_elements) ** (image.n - 1)
    summary: dict = {
        "kernel_order": len(kernel_elements),
        "combinations": combos,
        "searched": False,
        "complements_found": 0,
        "example": None,
    }
    if combos > cap:
        return summary
    summary["searched"] = True
    candidates = []
    for s in range(1, image.n):
        g = image.generators[s - 1]
        lifts = [g * x for x in kernel_elements]
        candidates.append([h for h in lifts if (h * h).is_identity()])
    found: set[frozenset] = set()
    example = None
    for lift in iter_product(*candidates):
        if not braid_relations_hold(lift):
            continue
        bs = schreier_sims(GeneratedGroup(image.n * image.d, tuple(lift)))
        if bs.order() != math.factorial(image.n):
            continue
        elements = list(bs.elements())
        if any(not h.is_identity() and h in a_bsgs for h in elements):
            continue
        key = frozenset(h.canonical() for h in elements)
        if key not in found:
            found.add(key)
            if example is None:
                example = [str(h) for h in lift]
    summary["complements_found"] = len(found)
    summary["example"] = example
    return summary


def tower(points: Iterable[int], d: int, n: int) -> frozenset[int]:
    """Union of the n block translates of a point set of [1, d]."""
    return frozenset(x + s * d for x in points for s in range(n))


@dataclass(frozen=True)
class TransitivityClass:
    """Orbit analysis of a braid image against its u-orbit block towers."""

    orbits: tuple[frozenset[int], ...]
    towers: tuple[frozenset[int], ...]
    transitive: bool
    u_long_cycle: bool
    orbits_match: bool
    restrictions_match: bool
    subdirect: bool
    restriction_orders: tuple[int, ...]


def transitivity_report(
    image: BraidImage, spec: ShuffleSpec, b_bsgs: BSGS | None = None
) -> TransitivityClass:
    """Compare the orbit partition with the towers over the u-orbits.

    Also checks that restricting the group to each tower reproduces the group
    generated by the shifted component factor, which makes the whole group a
    subdirect product of the per-tower groups.
    """
    group = image.group()
    orbits = tuple(orbits_partition(group))
    comps = component_factors(image.sigma, spec)
    towers_ = tuple(tower(c.points, image.d, image.n) for c in comps)
    orbits_match = set(orbits) == set(towers_)
    restriction_orders = []
    restrictions_match = True
    product_order = 1
    for comp, y in zip(comps, towers_):
        invariant = all(g(x) in y for g in image.generators for x in y)
        local = tuple(comp.factor.shift((s - 1) * image.d) for s in range(1, image.n))
        bs_local = schreier_sims(GeneratedGroup(image.n * image.d, local))
        restriction_orders.append(bs_local.order())
        product_order *= bs_local.order()
        if not invariant:
            restrictions_match = False
            continue
        restricted = tuple(
            Permutation.from_mapping({x: g(x) for x in y}, image.n * image.d)
            for g in image.generators
        )
        bs_restricted = schreier_sims(GeneratedGroup(image.n * image.d, restricted))
        same = (
            bs_restricted.order() == bs_local.order()
            and all(g in bs_local for g in restricted)
            and all(g in bs_restricted for g in local)
        )
        restrictions_match = restrictions_match and same
    b_bsgs = b_bsgs or schreier_sims(group)
    subdirect = restrictions_match and product_order % b_bsgs.order() == 0
    return TransitivityClass(
        orbits=orbits,
        towers=towers_,
        transitive=len(orbits) == 1,
        u_long_cycle=spec.u.is_long_cycle(),
        orbits_match=orbits_match,
        restrictions_match=restrictions_match,
        subdirect=subdirect,
        restriction_orders=tuple(restriction_orders),
    )


def gap_generators(perms: Iterable[Permutation]) -> str:
    """GAP-readable Group(...) expression, one generator per line."""
    lines = []
    for g in perms:
        cycles = g.cycles()
        text = "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)
        lines.append(text or "()")
    inner = ",\n  ".join(lines)
    return f"Group(\n  {inner}\n);\n"
