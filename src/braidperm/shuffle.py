"""Shuffle construction of block-coset permutations and commuting pairs.

The construction data (a ShuffleSpec) is a permutation tau of [1, d], a
length-preserving bijection u of the cycles of tau (fixed points count as
1-cycles), and for every cycle alpha a starting point i1 of alpha together
with a starting point j1 of u(alpha).  Writing alpha = (i1 i2 ... im) and
u(alpha) = (j1 j2 ... jm) along tau, the spec produces

- a shuffled 2m-cycle (i1, j1+d, i2, j2+d, ..., im, jm+d) per alpha; their
  product is a permutation of [1, 2d] mapping [1, d] onto [d+1, 2d] whose
  square splits into the two block copies of tau, and
- a pair of permutations of [1, d] glued from the partial maps i_t -> j_t and
  j_t -> i_(t+1); the two commute and multiply to tau.

Both products factor along the orbits of u into pieces with pairwise disjoint
supports, which drives the orbit analysis of the generated groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as iter_permutations, product as iter_product
from typing import Iterator, Mapping

from .perm import Permutation, block_swap, canonical_cycle

__all__ = [
    "CommutingPair",
    "Component",
    "CycleMap",
    "ShuffleSpec",
    "SpecError",
    "build_pair",
    "build_shuffle",
    "component_factors",
    "components",
    "decompose_pair",
    "is_braid_like",
    "iter_cycle_maps",
    "iter_specs",
    "pair_from_shuffle",
    "shuffle_from_pair",
    "tau_cycles",
]


class SpecError(ValueError):
    """Raised when shuffle-construction data is malformed or inconsistent."""


def tau_cycles(tau: Permutation, d: int) -> tuple[tuple[int, ...], ...]:
    """Cycles of tau on [1, d] with fixed points as 1-cycles, sorted by least point."""
    if tau.degree > d and max(tau.support(), default=0) > d:
        raise SpecError(f"tau moves points beyond [1, {d}]")
    return tuple(tau.cycles(include_fixed=True, degree=d))


@dataclass(frozen=True)
class CycleMap:
    """A length-preserving bijection of the cycles of tau on [1, degree]."""

    tau: Permutation
    degree: int
    mapping: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        cycles = tau_cycles(self.tau, self.degree)
        mapping = tuple(
            sorted(
                ((canonical_cycle(a), canonical_cycle(b)) for a, b in self.mapping),
                key=lambda ab: ab[0][0],
            )
        )
        object.__setattr__(self, "mapping", mapping)
        if tuple(a for a, _ in mapping) != cycles:
            raise SpecError("cycle map must be defined on exactly the cycles of tau")
        if sorted(b for _, b in mapping) != sorted(cycles):
            raise SpecError("cycle map must be a bijection of the cycles of tau")
        for a, b in mapping:
            if len(a) != len(b):
                raise SpecError(f"cycle map sends the {len(a)}-cycle {a} to the {len(b)}-cycle {b}")

    @classmethod
    def identity(cls, tau: Permutation, degree: int) -> "CycleMap":
        return cls(tau, degree, tuple((c, c) for c in tau_cycles(tau, degree)))

    @classmethod
    def from_least_map(cls, tau: Permutation, degree: int, least: Mapping[int, int]) -> "CycleMap":
        """Build from a map of least elements; cycles not mentioned stay put."""
        cycles = tau_cycles(tau, degree)
        by_min = {c[0]: c for c in cycles}
        unknown = sorted(set(least) - set(by_min))
        if unknown:
            raise SpecError(
                f"{unknown} are not least elements of cycles of tau (these are {sorted(by_min)})"
            )
        pairs = []
        for c in cycles:
            target = least.get(c[0], c[0])
            if target not in by_min:
                raise SpecError(f"{target} is not the least element of a cycle of tau")
            pairs.append((c, by_min[target]))
        return cls(tau, degree, tuple(pairs))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        return tuple(a for a, _ in self.mapping)

    def apply(self, alpha) -> tuple[int, ...]:
        key = canonical_cycle(alpha)
        for a, b in self.mapping:
            if a == key:
                return b
        raise SpecError(f"{key} is not a cycle of tau")

    def orbits(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Cycles of the map itself, each as (alpha, u(alpha), u^2(alpha), ...)."""
        remaining = dict(self.mapping)
        out = []
        while remaining:
            start = min(remaining, key=lambda c: c[0])
            orbit = [start]
            nxt = remaining.pop(start)
            while nxt != start:
                orbit.append(nxt)
                nxt = remaining.pop(nxt)
            out.append(tuple(orbit))
        return tuple(out)

    def is_long_cycle(self) -> bool:
        return len(self.orbits()) == 1


def iter_cycle_maps(tau: Permutation, d: int) -> Iterator[CycleMap]:
    """All length-preserving bijections of the cycles of tau, deterministically ordered."""
    cycles = tau_cycles(tau, d)
    classes: dict[int, list[tuple[int, ...]]] = {}
    for c in cycles:
        classes.setdefault(len(c), []).append(c)
    lengths = sorted(classes)
    for combo in iter_product(*(iter_permutations(classes[m]) for m in lengths)):
        target: dict[tuple[int, ...], tuple[int, ...]] = {}
        for m, images in zip(lengths, combo):
            for src, dst in zip(classes[m], images):
                target[src] = dst
        yield CycleMap(tau, d, tuple((c, target[c]) for c in cycles))


@dataclass(frozen=True)
class ShuffleSpec:
    """Construction data: tau, a cycle map u, and per-cycle starting points.

    ``choices`` holds one (cycle, i1, j1) triple per cycle of tau with i1 on
    the cycle and j1 on its u-image.
    """

    d: int
    tau: Permutation
    u: CycleMap
    choices: tuple[tuple[tuple[int, ...], int, int], ...]

    def __post_init__(self) -> None:
        if self.d < 1:
            raise SpecError("d must be positive")
        if self.u.tau != self.tau or self.u.degree != self.d:
            raise SpecError("cycle map does not belong to this tau and d")
        cycles = tau_cycles(self.tau, self.d)
        choices = tuple(
            sorted(
                ((canonical_cycle(a), i1, j1) for a, i1, j1 in self.choices),
                key=lambda c: c[0][0],
            )
        )
        object.__setattr__(self, "choices", choices)
        if tuple(a for a, _, _ in choices) != cycles:
            raise SpecError("choices must cover exactly the cycles of tau")
        for alpha, i1, j1 in choices:
            if i1 not in alpha:
                raise SpecError(f"starting point i1={i1} is not on the cycle {alpha}")
            image = self.u.apply(alpha)
            if j1 not in image:
                raise SpecError(f"starting point j1={j1} is not on the image cycle {image}")

    @classmethod
    def make(
        cls,
        tau: Permutation,
        d: int | None = None,
        u: CycleMap | None = None,
        choices: Mapping[int, tuple[int, int]] | None = None,
    ) -> "ShuffleSpec":
        """Convenience builder; defaults to the identity cycle map and least starting points.

        ``choices`` maps the least element of a cycle to its (i1, j1) pair.
        """
        d = d if d is not None else max(tau.degree, 1)
        u = u or CycleMap.identity(tau, d)
        cycles = tau_cycles(tau, d)
        known = {c[0] for c in cycles}
        stray = sorted(set(choices or {}) - known)
        if stray:
            raise SpecError(f"choices given for {stray}, which are not least elements of cycles")
        full = []
        for alpha in cycles:
            i1, j1 = (choices or {}).get(alpha[0], (alpha[0], u.apply(alpha)[0]))
            full.append((alpha, i1, j1))
        return cls(d, tau, u, tuple(full))

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "tau": str(self.tau),
            "u": [[a[0], b[0]] for a, b in self.u.mapping],
            "choices": [
                {"alpha_min": a[0], "i1": i1, "j1": j1} for a, i1, j1 in self.choices
            ],
        }

    @classmethod
    def from_json_dict(cls, data) -> "ShuffleSpec":
        try:
            d = int(data["d"])
            tau = Permutation.parse(data["tau"])
            least = {int(a): int(b) for a, b in data.get("u", [])}
            choices = {
                int(entry["alpha_min"]): (int(entry["i1"]), int(entry["j1"]))
                for entry in data.get("choices", [])
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"bad spec document: {exc}") from exc
        return cls.make(tau, d, CycleMap.from_least_map(tau, d, least), choices)


def _walk(tau: Permutation, start: int, m: int) -> list[int]:
    seq = [start]
    for _ in range(m - 1):
        seq.append(tau(seq[-1]))
    return seq


def build_shuffle(spec: ShuffleSpec) -> Permutation:
    """Product of the shuffled 2m-cycles; maps [1, d] onto [d+1, 2d].

    Advancing (i1, j1) together along tau rotates each 2m-cycle in place, so
    specs differing only by such a rotation build the same permutation.
    """
    mapping: dict[int, int] = {}
    for alpha, i1, j1 in spec.choices:
        m = len(alpha)
        i_seq = _walk(spec.tau, i1, m)
        j_seq = [x + spec.d for x in _walk(spec.tau, j1, m)]
        for t in range(m):
            mapping[i_seq[t]] = j_seq[t]
            mapping[j_seq[t]] = i_seq[(t + 1) % m]
    return Permutation.from_mapping(mapping, 2 * spec.d)


@dataclass(frozen=True)
class CommutingPair:
    """An ordered pair of commuting permutations with their common product."""

    first: Permutation
    second: Permutation
    product: Permutation

    def __post_init__(self) -> None:
        if self.first * self.second != self.second * self.first:
            raise SpecError("pair does not commute")
        if self.first * self.second != self.product:
            raise SpecError("product field does not match first * second")

    @classmethod
    def of(cls, first: Permutation, second: Permutation) -> "CommutingPair":
        return cls(first, second, first * second)


def build_pair(spec: ShuffleSpec) -> CommutingPair:
    """The commuting pair glued from the per-cycle point maps; multiplies to tau."""
    p_map: dict[int, int] = {}
    q_map: dict[int, int] = {}
    for alpha, i1, j1 in spec.choices:
        m = len(alpha)
        i_seq = _walk(spec.tau, i1, m)
        j_seq = _walk(spec.tau, j1, m)
        for t in range(m):
            p_map[i_seq[t]] = j_seq[t]
            q_map[j_seq[t]] = i_seq[(t + 1) % m]
    pair = CommutingPair.of(
        Permutation.from_mapping(p_map, spec.d),
        Permutation.from_mapping(q_map, spec.d),
    )
    if pair.product != spec.tau:
        raise SpecError("pair construction did not multiply back to tau; this is a bug")
    return pair


def shuffle_from_pair(first: Permutation, second: Permutation, d: int) -> Permutation:
    """swap * first * shift(second, d) for the 2-block swap of [1, 2d]."""
    if max(first.degree, second.degree) > d and max(
        (*first.support(), *second.support()), default=0
    ) > d:
        raise ValueError(f"pair must live on [1, {d}]")
    return block_swap(1, d, 2) * first * second.shift(d)


def pair_from_shuffle(sigma: Permutation, d: int) -> CommutingPair:
    """Read the commuting pair back off a shuffle-built permutation.

    For sigma mapping [1, d] onto [d+1, 2d] the components are
    first(i) = sigma(i) - d and second(i) = sigma(d + i).
    """
    if any(not d < sigma(i) <= 2 * d for i in range(1, d + 1)):
        raise SpecError("permutation does not map the first block onto the second")
    first = Permutation(tuple(sigma(i) - d for i in range(1, d + 1)))
    second = Permutation(tuple(sigma(d + i) for i in range(1, d + 1)))
    return CommutingPair.of(first, second)


def is_braid_like(a: Permutation, b: Permutation) -> bool:
    """True when a and b do not commute but a*b*a == b*a*b."""
    ab = a * b
    ba = b * a
    return ab != ba and ab * a == ba * b


def decompose_pair(first: Permutation, second: Permutation, d: int | None = None) -> ShuffleSpec:
    """Invert the pair construction: a spec with build_pair(spec) == (first, second).

    The cycle map sends each cycle of tau = first * second to its relabeling
    through first (the two commute, so that is again a cycle of tau), and the
    starting points are read off as (least point of alpha, first(least point)).
    """
    if first * second != second * first:
        raise ValueError("permutations do not commute")
    d = max(first.degree, second.degree, d or 1)
    tau = first * second
    pairs = []
    choices = []
    for alpha in tau_cycles(tau, d):
        image = canonical_cycle(tuple(first(x) for x in alpha))
        pairs.append((alpha, image))
        choices.append((alpha, alpha[0], first(alpha[0])))
    spec = ShuffleSpec(d, tau, CycleMap(tau, d, tuple(pairs)), tuple(choices))
    rebuilt = build_pair(spec)
    if rebuilt.first != first or rebuilt.second != second:
        raise RuntimeError("decomposition failed to round-trip; this is a bug")
    return spec


@dataclass(frozen=True)
class Component:
    """One factor of a shuffle permutation, supported on a single u-orbit.

    ``swap * first * shift(second, d)`` equals ``factor``, and first and
    second commute with product the restriction of tau to the orbit.
    """

    cycles: tuple[tuple[int, ...], ...]
    points: frozenset[int]
    factor: Permutation
    first: Permutation
    second: Permutation
    product: Permutation
    swap: Permutation
    d: int


def components(spec: ShuffleSpec) -> tuple[Component, ...]:
    """The per-u-orbit factor data of a spec, ordered by least point."""
    chosen = {alpha: (i1, j1) for alpha, i1, j1 in spec.choices}
    out = []
    for orbit in spec.u.orbits():
        factor_map: dict[int, int] = {}
        p_map: dict[int, int] = {}
        q_map: dict[int, int] = {}
        points: set[int] = set()
        for alpha in orbit:
            points.update(alpha)
            i1, j1 = chosen[alpha]
            m = len(alpha)
            i_seq = _walk(spec.tau, i1, m)
            j_seq = _walk(spec.tau, j1, m)
            for t in range(m):
                factor_map[i_seq[t]] = j_seq[t] + spec.d
                factor_map[j_seq[t] + spec.d] = i_seq[(t + 1) % m]
                p_map[i_seq[t]] = j_seq[t]
                q_map[j_seq[t]] = i_seq[(t + 1) % m]
        swap = Permutation.from_mapping(
            {**{x: x + spec.d for x in points}, **{x + spec.d: x for x in points}},
            2 * spec.d,
        )
        out.append(
            Component(
                cycles=orbit,
                points=frozenset(points),
                factor=Permutation.from_mapping(factor_map, 2 * spec.d),
                first=Permutation.from_mapping(p_map, spec.d),
                second=Permutation.from_mapping(q_map, spec.d),
                product=Permutation.from_cycles(orbit, spec.d),
                swap=swap,
                d=spec.d,
            )
        )
    return tuple(out)


def component_factors(sigma: Permutation, spec: ShuffleSpec) -> tuple[Component, ...]:
    """Split sigma into its per-u-orbit factors; they have pairwise disjoint
    supports and multiply back to sigma.  Raises when sigma was not built from
    this spec."""
    if sigma != build_shuffle(spec):
        raise SpecError("permutation was not built from this spec")
    return components(spec)


def iter_specs(tau: Permutation, d: int) -> Iterator[ShuffleSpec]:
    """Every spec over tau: all cycle maps and all starting-point choices."""
    cycles = tau_cycles(tau, d)
    for u in iter_cycle_maps(tau, d):
        pools = []
        for alpha in cycles:
            image = u.apply(alpha)
            pools.append([(alpha, i1, j1) for i1 in alpha for j1 in image])
        for combo in iter_product(*pools):
            yield ShuffleSpec(d, tau, u, tuple(combo))
