"""Permutation-group algorithms and the braid-relation groups of shuffle permutations.

The stabilizer chain is the classic deterministic Schreier-Sims construction,
which is ample for the degrees (a few dozen) and orders (a few million) this
package works at.  Orders are exact Python integers throughout.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Callable, Iterable, Iterator, Sequence

from .lattice import _block_powers, _read_exponents, _realize, _Span, _spans_coordinates, q2_of
from .perm import Permutation, _compose, _invert, _padded, _trusted
from .shuffle import ShuffleSpec, components, is_braid_like

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
    "extension_certificate",
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


def cyclic_group(p: Permutation) -> GeneratedGroup:
    return GeneratedGroup(max(p.degree, 1), (p,))


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
    """A base point and the inverses of its coset representatives, keyed by orbit point."""

    __slots__ = ("point", "inverses")

    def __init__(self, point: int):
        self.point = point
        self.inverses: dict[int, tuple[int, ...]] = {}


def _sift(
    levels: list[_Level], g: tuple[int, ...], start: int, ident: tuple[int, ...]
) -> tuple[tuple[int, ...], int]:
    """Strip the image tuple g through levels[start:]: the residue and the
    level where it stopped.

    The residue is ident iff g lies in the stabilizer the chain describes
    from level start on.
    """
    i = start
    while i < len(levels):
        if g == ident:
            return g, i
        level = levels[i]
        x = g[level.point - 1]
        if x != level.point:
            inv = level.inverses.get(x)
            if inv is None:
                return g, i
            g = _compose(inv, g)
        i += 1
    return g, i


class BSGS:
    """Base and strong generating set with per-level orbits and inverse transversals.

    A finished chain is immutable and supports exact order, membership, and
    deterministic element enumeration.
    """

    def __init__(self, degree: int, levels: list[_Level]):
        self.degree = degree
        self._levels = levels
        self._ident = tuple(range(1, degree + 1))

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(level.point for level in self._levels)

    def order(self) -> int:
        return math.prod(len(level.inverses) for level in self._levels)

    def contains(self, g: Permutation) -> bool:
        images = _padded(g, self.degree)
        ident = self._ident
        return len(images) == self.degree and _sift(self._levels, images, 0, ident)[0] == ident

    __contains__ = contains

    def elements(self) -> Iterator[Permutation]:
        """All members, deterministically ordered by transversal points."""
        reps = [[_invert(lv.inverses[x]) for x in sorted(lv.inverses)] for lv in self._levels]
        for combo in iter_product(*reps):
            g = self._ident
            for rep in combo:
                g = _compose(g, rep)
            yield _trusted(g)


def schreier_sims(group: GeneratedGroup) -> BSGS:
    """Deterministic stabilizer chain on image tuples padded to the group degree.

    One shared strong generator list; level i uses the strong generators that
    fix the first i base points.  Levels are verified bottom-up: every
    Schreier generator of a level must sift to the identity through the levels
    below, and a failure adds the sifted residue as a strong generator and
    resumes at the deepest level it affects.  New base points are the smallest
    points moved by the offending element.  A residue joins no level deeper
    than the one the loop resumes at, so every level is current at the end.
    """
    ident = tuple(range(1, group.degree + 1))
    base: list[int] = []
    strong: list[tuple[int, ...]] = []
    levels: list[_Level] = []

    def add_strong(g: tuple[int, ...]) -> None:
        strong.append(g)
        if all(g[b - 1] == b for b in base):
            base.append(next(x for x, y in enumerate(g, start=1) if x != y))
            levels.append(_Level(base[-1]))

    for gen in group.generators:
        g = _padded(gen, group.degree)
        if g != ident and g not in strong:
            add_strong(g)
    if not strong:
        return BSGS(group.degree, [])

    def rebuild(i: int) -> tuple[list[tuple[int, ...]], dict[int, tuple[int, ...]]]:
        """Level i's generators and forward transversal; stores the inverses."""
        level = levels[i]
        gens = [g for g in strong if all(g[b - 1] == b for b in base[:i])]
        transversal = {level.point: ident}
        queue = [level.point]
        for x in queue:
            for g in gens:
                y = g[x - 1]
                if y not in transversal:
                    transversal[y] = _compose(g, transversal[x])
                    queue.append(y)
        level.inverses = {x: _invert(rep) for x, rep in transversal.items()}
        return gens, transversal

    i = len(levels) - 1
    while i >= 0:
        gens, transversal = rebuild(i)
        inverses = levels[i].inverses
        failure: tuple[tuple[int, ...], int] | None = None
        for x in sorted(transversal):
            rep = transversal[x]
            for s in gens:
                inv = inverses[s[x - 1]]
                schreier = tuple([inv[s[y - 1] - 1] for y in rep])
                if schreier == ident:
                    continue
                residue, j = _sift(levels, schreier, i + 1, ident)
                if residue != ident:
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
    return BSGS(group.degree, levels)


def braid_relations_hold(gens: Sequence, mul: Callable) -> bool:
    """Under the product mul, adjacent triple products agree and distant
    generators commute."""
    for r, a in enumerate(gens):
        for s in range(r + 1, len(gens)):
            b = gens[s]
            if s - r == 1:
                if mul(a, mul(b, a)) != mul(b, mul(a, b)):
                    return False
            elif mul(a, b) != mul(b, a):
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


def _block_split(square: tuple[int, ...], d: int) -> tuple[int, ...] | None:
    """tau's images on [1, d] when the image tuple square, of degree at least
    2d, is that of tau * shift(tau, d), else None.  square is a bijection,
    so images tau + d on [d+1, 2d] keep tau inside [1, d]."""
    tau = square[:d]
    return tau if square[d:] == tuple([x + d for x in tau]) else None


def block_split(square: Permutation, d: int) -> Permutation | None:
    """The common block factor tau when square == tau * shift(tau, d), else None."""
    tau = _block_split(_padded(square, 2 * d), d)
    return None if tau is None else _trusted(tau)


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
    if not braid_relations_hold(gens, operator.mul):
        raise ValueError("generators do not satisfy the braid relations")
    return BraidImage(sigma, d, n, tau, q, q2_of(q), gens)


def abelian_kernel(image: BraidImage) -> GeneratedGroup:
    """Subgroup generated by the generator squares and their adjacent conjugates.

    Every generator is checked to preserve the d-blocks as a power of the
    shifted tau, so the family lies in the abelian block product; a violation
    means a corrupted image and raises RuntimeError.
    """
    gens = [g**2 for g in image.generators]
    for r in range(1, image.n - 1):
        a, b = image.generators[r - 1], image.generators[r]
        gens.append(a * (b * b) * a.inverse())
    lookups = _block_powers(image.tau, image.d, image.n)[1]
    for g in gens:
        try:
            _read_exponents(_padded(g, image.n * image.d), lookups, image.d)
        except ValueError as exc:
            raise RuntimeError(f"kernel generator escapes the block product: {exc}") from exc
    return GeneratedGroup(image.n * image.d, tuple(gens))


def _coxeter_lifts(gens: Sequence[tuple[int, ...]], d: int) -> bool:
    """Whether the image tuples gens satisfy the braid relations and
    gens[s - 1] maps the d-blocks as the transposition (s s+1)."""
    for s, g in enumerate(gens):
        swap = {s: s + 1, s + 1: s}
        if any((y - 1) // d != swap.get(x // d, x // d) for x, y in enumerate(g)):
            return False
    return braid_relations_hold(gens, _compose)


def extension_certificate(
    image: BraidImage, kernel: GeneratedGroup
) -> tuple[_Span | None, bool, bool]:
    """(span, orders_hold, parametrized) for 1 -> A -> B -> S_n -> 1, where A
    is kernel and B -> S_n the action on the n blocks.  span: A's exponent
    span mod q, None when A leaves the block product D.  orders_hold: the
    generators pass _coxeter_lifts, the span has q^(n-1) * q2 elements, and
    every g_s * k * g_s^-1 reads into D and the span.  parametrized: the
    span passes _spans_coordinates, so c -> sum c_j f_j + c_n h_n maps
    (Z/q)^(n-1) x Z/q2 isomorphically onto it.  Then by the
    Coxeter presentation of S_n the block action's kernel is the normal
    closure of g_1^2 (Artin's pure braid group), which lies in the normal
    A <= D; so A is that kernel, |B| = n! * |A| and B & D = A."""
    n, d, q = image.n, image.d, image.q
    lookups = _block_powers(image.tau, d, n)[1]
    kernel_gens = [_padded(k, n * d) for k in kernel.generators]
    try:
        vectors = [_read_exponents(k, lookups, d) for k in kernel_gens]
    except ValueError:
        return None, False, False
    span = _Span(vectors, q, n)
    right_order = span.order() == q ** (n - 1) * image.q2
    gens = [_padded(g, n * d) for g in image.generators]
    try:
        normal = all(
            _read_exponents(tuple([g[k[x - 1] - 1] for x in inv]), lookups, d) in span
            for g, inv in zip(gens, map(_invert, gens))
            for k in kernel_gens
        )
    except ValueError:
        normal = False
    orders_hold = right_order and normal and _coxeter_lifts(gens, d)
    return span, orders_hold, _spans_coordinates(span, vectors)


class SplitVerificationError(RuntimeError):
    """An odd-q complement failed one of its checks, contradicting the
    structure claim; treat as a bug or a falsifying witness."""


def split_complement(image: BraidImage) -> GeneratedGroup | None:
    """For odd q, the complement generated by the block shifts eta_s of
    sigma * shift(tau**(q-1), d), in g_s * D = g_s * A; None for even q.  As
    involutions passing _coxeter_lifts (else SplitVerificationError) they
    generate a copy of S_n meeting the block action's kernel A trivially."""
    if image.q % 2 == 0:
        return None
    eta = image.sigma * (image.tau ** (image.q - 1)).shift(image.d)
    gens = tuple(eta.shift((s - 1) * image.d) for s in range(1, image.n))
    padded = [_padded(g, image.n * image.d) for g in gens]
    ident = tuple(range(1, image.n * image.d + 1))
    if any(_compose(g, g) != ident for g in padded) or not _coxeter_lifts(padded, image.d):
        raise SplitVerificationError("the twisted generators fail the complement checks")
    return GeneratedGroup(image.n * image.d, gens)


SEARCH_CAP = 4096  # most generator-lift combinations complement_search tries


def complement_search(image: BraidImage, span: _Span) -> int | None:
    """Number of complements to A, of exponent span span, or None, with A not
    listed, when the |A|^(n-1) lift combinations exceed SEARCH_CAP.  A
    complement meets each g_s * A in one involution, and involution lifts
    generate one exactly when they satisfy the braid relations (Coxeter)."""
    if span.order() ** (image.n - 1) > SEARCH_CAP:
        return None
    shifted = _block_powers(image.tau, image.d, image.n)[0]
    kernel_elements = [_realize(shifted, v) for v in span.elements()]
    ident = tuple(range(1, image.n * image.d + 1))
    candidates = []
    for g in (_padded(g, image.n * image.d) for g in image.generators):
        lifts = [_compose(g, x) for x in kernel_elements]
        candidates.append([h for h in lifts if _compose(h, h) == ident])
    return sum(braid_relations_hold(lift, _compose) for lift in iter_product(*candidates))


def tower(points: Iterable[int], d: int, n: int) -> frozenset[int]:
    """Union of the n block translates of a point set of [1, d]."""
    return frozenset(x + s * d for x in points for s in range(n))


@dataclass(frozen=True)
class TransitivityClass:
    """Orbit analysis of a braid image against its u-orbit block towers."""

    transitive: bool
    u_long_cycle: bool
    orbits_match: bool
    restrictions_match: bool
    subdirect: bool


def transitivity_report(image: BraidImage, spec: ShuffleSpec) -> TransitivityClass:
    """Compare the orbit partition with the towers over the u-orbits.

    Also checks that on each tower the generators equal the shifts of the
    component factor.  When also the towers partition the points and each
    shift moves only points of its tower, every generator is the product of
    its shifts, which have disjoint supports, so the group embeds in the
    product of the component groups and maps onto each: a subdirect product.
    """
    orbits = orbits_partition(image.group())
    comps = components(spec)
    towers = [tower(c.points, image.d, image.n) for c in comps]
    restrictions_match = on_towers = True
    for comp, y in zip(comps, towers):
        local = tuple(comp.factor.shift((s - 1) * image.d) for s in range(1, image.n))
        on_towers = on_towers and all(y.issuperset(h.support()) for h in local)
        restrictions_match = restrictions_match and all(
            g(x) == h(x) for g, h in zip(image.generators, local) for x in y
        )
    partition = sorted(x for y in towers for x in y) == list(range(1, image.n * image.d + 1))
    return TransitivityClass(
        transitive=len(orbits) == 1,
        u_long_cycle=len(spec.orbits()) == 1,
        orbits_match=set(orbits) == set(towers),
        restrictions_match=restrictions_match,
        subdirect=restrictions_match and partition and on_towers,
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
