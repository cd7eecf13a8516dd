"""Shuffle construction of block-coset permutations and commuting pairs.

The construction data (a ShuffleSpec) is a permutation tau of [1, d], a
length-preserving bijection u of the cycles of tau (fixed points count as
1-cycles), and for every cycle alpha a starting point i1 of alpha together
with a starting point j1 of u(alpha).  The cycles of tau are disjoint, so the
j1s determine u: a spec stores tau and the starting points and reads u off
them; a u given from outside, as in a spec file, is checked against them.
Writing alpha = (i1 i2 ... im) and u(alpha) = (j1 j2 ... jm) along tau, the
spec produces

- a shuffled 2m-cycle (i1, j1+d, i2, j2+d, ..., im, jm+d) per alpha; their
  product is a permutation of [1, 2d] mapping [1, d] onto [d+1, 2d] whose
  square splits into the two block copies of tau, and
- a pair of permutations of [1, d] glued from the partial maps i_t -> j_t and
  j_t -> i_(t+1); the two commute and multiply to tau.

Both products factor along the orbits of u into pieces with pairwise disjoint
supports, which drives the orbit analysis of the generated groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations as iter_permutations, product as iter_product
from typing import Iterator, Mapping

from .perm import Permutation, _compose, _padded, _trusted, canonical_cycle, parse_cycles

__all__ = [
    "CommutingPair",
    "Component",
    "ShuffleSpec",
    "SpecError",
    "build_pair",
    "build_shuffle",
    "components",
    "decompose_pair",
    "iter_specs",
    "tau_cycles",
    "tau_from_cycles",
]


class SpecError(ValueError):
    """Raised when shuffle-construction data is malformed or inconsistent."""


def tau_from_cycles(cycles: list[list[int]], d: int) -> Permutation:
    """tau from its cycles; a point beyond [1, d] is refused before anything is
    built, since a permutation holds as many images as its largest point."""
    if d < 1:
        raise SpecError("d must be positive")
    if any(x > d for cycle in cycles for x in cycle):
        raise SpecError(f"tau moves points beyond [1, {d}]")
    return Permutation.from_cycles(cycles)


def tau_cycles(tau: Permutation, d: int) -> tuple[tuple[int, ...], ...]:
    """Cycles of tau on [1, d] with fixed points as 1-cycles, sorted by least point."""
    if d < 1:
        raise SpecError("d must be positive")
    if tau.degree > d and max(tau.support(), default=0) > d:
        raise SpecError(f"tau moves points beyond [1, {d}]")
    return tuple(tau.cycles(include_fixed=True, degree=d))


@dataclass(frozen=True)
class ShuffleSpec:
    """Construction data: tau and per-cycle starting points.

    ``choices`` holds one (cycle, i1, j1) triple per cycle of tau with i1 on
    the cycle.  The cycles of tau are disjoint, so j1 names the image cycle:
    ``u`` is read off the j1s as the (alpha, u(alpha)) pairs, ordered by least
    point, and must be a length-preserving bijection of the cycles.  ``make``
    and ``from_json_dict`` take u as a map of least elements, as a spec
    file's ``"u"`` gives it, and check the given j1s against it.
    """

    d: int
    tau: Permutation
    choices: tuple[tuple[tuple[int, ...], int, int], ...]
    u: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = field(init=False)

    def __post_init__(self) -> None:
        cycles = tau_cycles(self.tau, self.d)
        # a cycle's least point comes first, so the triples sort by it
        choices = tuple(sorted((canonical_cycle(a), i1, j1) for a, i1, j1 in self.choices))
        object.__setattr__(self, "choices", choices)
        if tuple(a for a, _, _ in choices) != cycles:
            raise SpecError("choices must cover exactly the cycles of tau")
        through = {x: c for c in cycles for x in c}
        for alpha, i1, j1 in choices:
            if i1 not in alpha:
                raise SpecError(f"starting point i1={i1} is not on the cycle {alpha}")
            if j1 not in through:
                raise SpecError(f"starting point j1={j1} is not in [1, {self.d}]")
        u = tuple((alpha, through[j1]) for alpha, _, j1 in choices)
        if sorted(b for _, b in u) != list(cycles):
            raise SpecError("cycle map must be a bijection of the cycles of tau")
        for a, b in u:
            if len(a) != len(b):
                raise SpecError(f"cycle map sends the {len(a)}-cycle {a} to the {len(b)}-cycle {b}")
        object.__setattr__(self, "u", u)

    @classmethod
    def _valid(cls, d: int, tau: Permutation, choices, u) -> "ShuffleSpec":
        """A spec from choices and u that __post_init__ would keep as they are."""
        spec = object.__new__(cls)
        spec.__dict__.update(d=d, tau=tau, choices=choices, u=u)
        return spec

    @classmethod
    def make(
        cls,
        tau: Permutation,
        d: int | None = None,
        u: Mapping[int, int] | None = None,
        choices: Mapping[int, tuple[int, int]] | None = None,
    ) -> "ShuffleSpec":
        """Convenience builder; defaults to the identity cycle map and least starting points.

        ``u`` maps least elements of cycles of tau to least elements; cycles not
        mentioned stay put.  ``choices`` maps the least element of a cycle to
        its (i1, j1) pair, and j1 must lie on the u-image of the cycle.
        """
        d = d if d is not None else max(tau.degree, 1)
        cycles = tau_cycles(tau, d)
        by_min = {c[0]: c for c in cycles}
        least = u or {}
        unknown = sorted(set(least) - set(by_min))
        if unknown:
            raise SpecError(
                f"{unknown} are not least elements of cycles of tau (these are {sorted(by_min)})"
            )
        targets = [least.get(c[0], c[0]) for c in cycles]
        for target in targets:
            if target not in by_min:
                raise SpecError(f"{target} is not the least element of a cycle of tau")
        # the least starting points; building this spec checks u
        spec = cls(d, tau, tuple((c, c[0], t) for c, t in zip(cycles, targets)))
        if not choices:
            return spec
        stray = sorted(set(choices) - set(by_min))
        if stray:
            raise SpecError(f"choices given for {stray}, which are not least elements of cycles")
        full = []
        for alpha, image in spec.u:
            i1, j1 = choices.get(alpha[0], (alpha[0], image[0]))
            if i1 not in alpha:
                raise SpecError(f"starting point i1={i1} is not on the cycle {alpha}")
            if j1 not in image:
                raise SpecError(f"starting point j1={j1} is not on the image cycle {image}")
            full.append((alpha, i1, j1))
        return cls(d, tau, tuple(full))

    def orbits(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Cycles of u itself, each as (alpha, u(alpha), u^2(alpha), ...)."""
        remaining = dict(self.u)
        out = []
        while remaining:
            start = next(iter(remaining))  # u is sorted, so this is the least left
            orbit = [start]
            nxt = remaining.pop(start)
            while nxt != start:
                orbit.append(nxt)
                nxt = remaining.pop(nxt)
            out.append(tuple(orbit))
        return tuple(out)

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "tau": str(self.tau),
            "u": [[a[0], b[0]] for a, b in self.u],
            "choices": [
                {"alpha_min": a[0], "i1": i1, "j1": j1} for a, i1, j1 in self.choices
            ],
        }

    @classmethod
    def from_json_dict(cls, data) -> "ShuffleSpec":
        try:
            _json_object(data, {"d", "tau", "u", "choices"}, "the document")
            d = _json_int(data["d"], "d")
            if not isinstance(data["tau"], str):
                raise TypeError(f"tau must be a string, got {data['tau']!r}")
            tau = tau_from_cycles(parse_cycles(data["tau"]), d)
            pairs = [(_json_int(a, "u"), _json_int(b, "u")) for a, b in data.get("u", [])]
            least = dict(pairs)
            if len(least) != len(pairs):
                raise ValueError("duplicate least element in u")
            choices = {}
            for entry in data.get("choices", []):
                _json_object(entry, {"alpha_min", "i1", "j1"}, "a choice entry")
                alpha = _json_int(entry["alpha_min"], "alpha_min")
                if alpha in choices:
                    raise ValueError(f"duplicate alpha_min {alpha}")
                choices[alpha] = (_json_int(entry["i1"], "i1"), _json_int(entry["j1"], "j1"))
        except SpecError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"bad spec document: {exc}") from exc
        return cls.make(tau, d, least, choices)


def _json_object(value, keys: set[str], name: str) -> None:
    """Reject a non-object or a key outside keys, so a misspelt key drops nothing."""
    if type(value) is not dict:
        raise TypeError(f"{name} must be a JSON object, got {value!r}")
    if unknown := value.keys() - keys:
        raise ValueError(f"unknown key {min(unknown)!r} in {name}")


def _json_int(value, name: str) -> int:
    if type(value) is not int:  # JSON true and 2.0 load as bool and float
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _walk(spec: ShuffleSpec, tau: tuple[int, ...], orbits=None) -> tuple[tuple, ...]:
    """Image tuples of sigma, of the pair (first, second) and, given
    spec.orbits() as orbits, of each u-orbit's (factor, first, second,
    product, swap), from one walk.

    tau is spec.tau's image tuple of degree d, and the caller pads it and
    computes the orbits once, for every spec that shares them.
    The walk goes along tau from (i1, j1) once around each chosen cycle
    alpha, i on alpha and j on u(alpha), which has alpha's length; a fixed
    point is its own one step.  The step (i, j, i_next) sets sigma(i) = j + d,
    sigma(j + d) = i_next, first(i) = j and second(j) = i_next, and writes
    the same into the component of alpha's orbit, with product(i) = tau(i)
    and the swap i <-> i + d.  The i and the j each run once over [1, d], so
    every image is set: a valid spec makes the images bijections, and they
    are not checked again.  The components are ordered by least point;
    factor and swap have degree 2d, the rest degree d."""
    d = spec.d
    sigma, first, second = [0] * (2 * d), [0] * d, [0] * d
    comps, where = [], {}
    parts = orbits is not None
    if parts:
        short, long = list(range(1, d + 1)), list(range(1, 2 * d + 1))
        for orbit in orbits:
            comps.append((long[:], short[:], short[:], short[:], long[:]))
            where.update((alpha, comps[-1]) for alpha in orbit)
    for alpha, i, j in spec.choices:
        if parts:
            c_factor, c_first, c_second, c_product, c_swap = where[alpha]
        for _ in alpha:
            i_next = tau[i - 1]
            sigma[i - 1] = j + d
            sigma[j + d - 1] = i_next
            first[i - 1] = j
            second[j - 1] = i_next
            if parts:
                c_factor[i - 1] = j + d
                c_factor[j + d - 1] = i_next
                c_first[i - 1] = j
                c_second[j - 1] = i_next
                c_product[i - 1] = i_next
                c_swap[i - 1] = i + d
                c_swap[i + d - 1] = i
            i, j = i_next, tau[j - 1]
    return (
        tuple(sigma),
        tuple(first),
        tuple(second),
        tuple([tuple(map(tuple, images)) for images in comps]),
    )


def build_shuffle(spec: ShuffleSpec) -> Permutation:
    """Product of the shuffled 2m-cycles; maps [1, d] onto [d+1, 2d].

    Advancing (i1, j1) together along tau rotates each 2m-cycle in place, so
    specs differing only by such a rotation build the same permutation.
    """
    return _trusted(_walk(spec, _padded(spec.tau, spec.d))[0])


@dataclass(frozen=True)
class CommutingPair:
    """An ordered pair of commuting permutations with their common product,
    which is computed, once, from the pair."""

    first: Permutation
    second: Permutation
    product: Permutation = field(init=False)

    def __post_init__(self) -> None:
        degree = max(self.first.degree, self.second.degree)
        a, b = _padded(self.first, degree), _padded(self.second, degree)
        product = _compose(a, b)
        if product != _compose(b, a):
            raise SpecError("pair does not commute")
        object.__setattr__(self, "product", _trusted(product))


def _checked_pair(first: tuple[int, ...], second: tuple[int, ...], tau: tuple[int, ...]):
    """(first, second), image tuples of degree d; raises SpecError unless the
    two commute and multiply to tau."""
    product = _compose(first, second)
    if product != _compose(second, first) or product != tau:
        raise SpecError("pair construction did not multiply back to tau; this is a bug")
    return first, second


def _pair_images(spec: ShuffleSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Image tuples of the pair glued from the per-cycle point maps i_t -> j_t
    and j_t -> i_(t+1).  Raises SpecError unless the two commute and multiply
    to tau."""
    tau = _padded(spec.tau, spec.d)
    _, first, second, _ = _walk(spec, tau)
    return _checked_pair(first, second, tau)


def build_pair(spec: ShuffleSpec) -> CommutingPair:
    """The commuting pair glued from the per-cycle point maps; multiplies to tau."""
    first, second = _pair_images(spec)
    return CommutingPair(_trusted(first), _trusted(second))


def _is_braid_like(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Whether a and b, image tuples of equal length, do not commute but
    a*b*a == b*a*b.

    a*b*a == b*a*b holds with a*b == b*a exactly when a == b: if a and b
    commute, then a*b*a = a*a*b and b*a*b = a*b*b, so their equality cancels
    to a == b; and equal a and b commute.  So "a*b != b*a and aba == bab"
    is "a != b and aba == bab", with no product for the first half.  The two
    triple products are compared point by point, stopping at the first point
    where they differ."""
    if a == b:
        return False
    for x in range(len(a)):
        if a[b[a[x] - 1] - 1] != b[a[b[x] - 1] - 1]:
            return False
    return True


def decompose_pair(first: Permutation, second: Permutation, d: int) -> ShuffleSpec:
    """Invert the pair construction: a spec with build_pair(spec) == (first, second).

    The starting points are read off as (least point of alpha, first(least
    point)), so the cycle map sends each cycle of tau = first * second to its
    relabeling through first.  tau is computed on image tuples, and the spec
    is built without the constructor's checks, which it passes: first and
    second commute, so first commutes with tau and maps each cycle of tau
    onto a cycle of tau of the same length, bijectively.  The rebuilt pair
    is compared with the given one.
    """
    a, b = _padded(first, d), _padded(second, d)
    if len(a) > d or len(b) > d:  # a point above d is moved
        raise ValueError(f"pair must live on [1, {d}]")
    tau = _compose(a, b)
    if tau != _compose(b, a):
        raise ValueError("permutations do not commute")
    tau_perm = _trusted(tau)
    cycles = tau_cycles(tau_perm, d)
    through = {x: c for c in cycles for x in c}
    choices = tuple((alpha, alpha[0], a[alpha[0] - 1]) for alpha in cycles)
    u = tuple((alpha, through[j1]) for alpha, _, j1 in choices)
    spec = ShuffleSpec._valid(d, tau_perm, choices, u)
    if _pair_images(spec) != (a, b):
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


def components(spec: ShuffleSpec) -> tuple[Component, ...]:
    """The per-u-orbit factor data of a spec, ordered by least point.  The
    factors have pairwise disjoint supports and multiply to build_shuffle(spec)."""
    orbits = spec.orbits()
    return tuple(
        Component(orbit, frozenset(x for alpha in orbit for x in alpha), *map(_trusted, images))
        for orbit, images in zip(orbits, _walk(spec, _padded(spec.tau, spec.d), orbits)[3])
    )


def iter_specs(tau: Permutation, d: int) -> Iterator[ShuffleSpec]:
    """Every spec over tau: all length-preserving bijections u of its cycles,
    and for each all starting-point choices, with j1 on u(alpha); valid by
    construction, they skip the constructor's checks."""
    return _specs(tau, d, lambda alpha: alpha)


def _least_point_specs(tau: Permutation, d: int) -> Iterator[ShuffleSpec]:
    """The specs over tau with i1 the least point of every cycle alpha: for
    each length-preserving u, j1 runs over u(alpha).  They build each shuffle
    over tau once.

    Lemma: advancing (i1, j1) together along tau rotates the 2m-cycle (i1,
    j1+d, i2, j2+d, ...) in place, so the m specs that differ on alpha by
    such a rotation build one sigma, and every spec is a rotation of exactly
    one least-point spec.  Conversely sigma determines the spec: it maps
    alpha into u(alpha) + d, so it determines u, and j1 = sigma(i1) - d.
    So the least-point specs correspond one to one to the sigmas.  iter_specs
    runs i1 along each cycle from its least point, so the least-point spec
    is the first spec in iter_specs order that builds sigma, and it is
    decompose_pair's spec for sigma's pair."""
    return _specs(tau, d, lambda alpha: alpha[:1])


def _specs(tau: Permutation, d: int, starts) -> Iterator[ShuffleSpec]:
    """The specs over tau, for every length-preserving u, whose i1 on each
    cycle alpha lies in starts(alpha), with j1 on u(alpha)."""
    cycles = tau_cycles(tau, d)
    classes: dict[int, list[tuple[int, ...]]] = {}
    for c in cycles:
        classes.setdefault(len(c), []).append(c)
    lengths = sorted(classes)
    for images in iter_product(*(iter_permutations(classes[m]) for m in lengths)):
        u = {
            alpha: image
            for m, row in zip(lengths, images)
            for alpha, image in zip(classes[m], row)
        }
        pairs = tuple((alpha, u[alpha]) for alpha in cycles)
        pools = [
            [(alpha, i1, j1) for i1 in starts(alpha) for j1 in u[alpha]] for alpha in cycles
        ]
        for combo in iter_product(*pools):
            yield ShuffleSpec._valid(d, tau, combo, pairs)
