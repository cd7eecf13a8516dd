"""Finite permutations of positive integers, block shifts, and cycle notation.

Conventions used across the package:

- Points are 1-based.  A permutation of degree N is a bijection of [1, N];
  every point above the degree is implicitly fixed.  Comparison ignores
  trailing fixed points, so values of different degrees are equal whenever
  they agree as maps, and sets of permutations can be deduplicated through
  either image arrays or printed cycle form.
- Composition is functional and right-to-left: ``(p * q)(x) == p(q(x))``.
- ``p.shift(k)`` translates the support up by ``k``: the result fixes
  [1, k] and maps ``k + i`` to ``k + p(i)``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

__all__ = [
    "CycleType",
    "Permutation",
    "canonical_cycle",
    "centralizer_order",
    "parse_cycles",
    "partition_count",
]


@dataclass(frozen=True, eq=False)
class Permutation:
    """A bijection of [1, degree] stored as its tuple of images.

    >>> p = Permutation((3, 4, 2, 1))
    >>> p(1), p(3), p(99)
    (3, 2, 99)
    >>> str(p * p.inverse())
    '()'
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"images do not form a bijection of [1, {len(images)}]")

    # construction

    @classmethod
    def identity(cls, degree: int = 0) -> "Permutation":
        return _trusted(tuple(range(1, degree + 1)))

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, int], degree: int) -> "Permutation":
        """Permutation of [1, degree] sending x to mapping[x]; absent points stay fixed."""
        images = list(range(1, degree + 1))
        for x, y in mapping.items():
            if not (1 <= x <= degree and 1 <= y <= degree):
                raise ValueError(f"pair {x} -> {y} is outside [1, {degree}]")
            images[x - 1] = y
        return cls(tuple(images))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]], degree: int = 0) -> "Permutation":
        """Product of pairwise disjoint cycles given as point sequences."""
        mapping: dict[int, int] = {}
        seen: dict[int, int] = {}  # point -> index of its cycle
        for k, cycle in enumerate(cycles):
            points = list(cycle)
            if not points:
                raise ValueError("empty cycle")
            for x in points:
                if not isinstance(x, int) or x < 1:
                    raise ValueError(f"cycle point {x!r} is not a positive integer")
                if seen.get(x) == k:
                    raise ValueError(f"point {x} repeats within a cycle")
                if x in seen:
                    raise ValueError(f"point {x} appears in more than one cycle")
                seen[x] = k
            for a, b in zip(points, points[1:] + points[:1]):
                mapping[a] = b
        degree = max([degree, *seen]) if seen else degree
        return cls.from_mapping(mapping, degree)

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse cycle notation such as "(1 3 2 4)" or "(1 2)(3 4)"; "()" is the identity.

        Points are positive integers, separated by whitespace or commas; the
        cycles must be pairwise disjoint.

        >>> Permutation.parse("(2 1)(4 3)") == Permutation.parse("(1 2)(3 4)")
        True
        """
        return cls.from_cycles(parse_cycles(text))

    # basic queries

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        if x < 1:
            raise ValueError(f"points are 1-based, got {x}")
        return self.images[x - 1] if x <= len(self.images) else x

    def canonical(self) -> tuple[int, ...]:
        """Image tuple with trailing fixed points removed.

        Equal permutations share this tuple, so it doubles as a sorting and
        deduplication key.
        """
        images = self.images
        n = len(images)
        while n and images[n - 1] == n:
            n -= 1
        return images[:n]

    def support(self) -> tuple[int, ...]:
        """Moved points, ascending."""
        return tuple(x + 1 for x, y in enumerate(self.images) if y != x + 1)

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()))

    # group operations

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        a, b = self.images, other.images
        if len(a) < len(b):
            a += tuple(range(len(a) + 1, len(b) + 1))
        return _trusted(_compose(a, b) + a[len(b):])

    def inverse(self) -> "Permutation":
        return _trusted(_invert(self.images))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def shift(self, k: int) -> "Permutation":
        """Translate the support up by k; the result fixes [1, k].

        >>> str(Permutation.parse("(1 2)").shift(1))
        '(2 3)'
        """
        if k < 0:
            raise ValueError("shift distance must be nonnegative")
        if k == 0:
            return self
        return _trusted(_shifted(self.images, k))

    # cycle structure

    def cycles(self, include_fixed: bool = False, degree: int | None = None) -> list[tuple[int, ...]]:
        """Disjoint cycles, least point first, sorted by least point.

        With ``include_fixed`` the fixed points of [1, degree] appear as
        1-cycles.
        """
        images = self.images + tuple(range(self.degree + 1, (degree or 0) + 1))
        seen = [False] * (len(images) + 1)
        out: list[tuple[int, ...]] = []
        for start in range(1, len(images) + 1):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            x = images[start - 1]
            while x != start:
                cycle.append(x)
                seen[x] = True
                x = images[x - 1]
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
        return out

    def cycle_type(self, degree: int | None = None) -> "CycleType":
        n = max(self.degree, degree or 0)
        counts: dict[int, int] = {}
        for c in self.cycles(include_fixed=True, degree=n):
            counts[len(c)] = counts.get(len(c), 0) + 1
        return CycleType(tuple(sorted(counts.items())), n)

    # comparison and display

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    def __repr__(self) -> str:
        return f"Permutation.parse({str(self)!r})"


def _trusted(images: tuple[int, ...]) -> Permutation:
    """A Permutation on images known to be a bijection, without the check:
    only the public constructors validate, derived permutations are trusted."""
    p = object.__new__(Permutation)
    object.__setattr__(p, "images", images)
    return p


def _padded(p: Permutation, degree: int) -> tuple[int, ...]:
    """Images of p on [1, degree]; longer when p moves a point above degree."""
    images = p.canonical()
    return images + tuple(range(len(images) + 1, degree + 1))


def _shifted(images: Sequence[int], k: int) -> tuple[int, ...]:
    """Image tuple of the shift by k of the permutation with these images."""
    return tuple(range(1, k + 1)) + tuple([y + k for y in images])


def _compose(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Image tuple of a∘b on [1, len(b)]; a must cover every image of b.  The
    gather runs in itemgetter, which returns a scalar for one index and raises
    for none, so degrees below 2 take the comprehension."""
    if len(b) >= 2:
        return itemgetter(*b)((0, *a))
    return tuple([a[x - 1] for x in b])


def _invert(a: Sequence[int]) -> tuple[int, ...]:
    """Image tuple of the inverse of the bijection with images a."""
    inv = [0] * len(a)
    for x, y in enumerate(a, start=1):
        inv[y - 1] = x
    return tuple(inv)


def canonical_cycle(points: Sequence[int]) -> tuple[int, ...]:
    """Rotate a cycle so its least point comes first; all rotations share the result."""
    pts = tuple(points)
    if not pts:
        raise ValueError("empty cycle")
    if len(set(pts)) != len(pts):
        raise ValueError(f"cycle has repeated points: {pts!r}")
    i = pts.index(min(pts))
    return pts[i:] + pts[:i]


def parse_cycles(text: str) -> list[list[int]]:
    """Point lists of the cycles written in cycle notation; nothing is built."""
    s = text.strip()
    if re.fullmatch(r"\(\s*\)", s):
        return []
    if not s or not re.fullmatch(r"(\s*\(\s*\d+(?:[\s,]+\d+)*\s*\))+\s*", s):
        raise ValueError(f"malformed cycle notation: {text!r}")
    return [
        [int(tok) for tok in re.split(r"[\s,]+", body.strip()) if tok]
        for body in re.findall(r"\(([^()]*)\)", s)
    ]


@dataclass(frozen=True)
class CycleType:
    """Multiset of cycle lengths of a permutation of [1, degree].

    ``counts`` holds (length, multiplicity) pairs ascending by length, with
    fixed points counted as 1-cycles, so the lengths weighted by multiplicity
    add up to the degree.
    """

    counts: tuple[tuple[int, int], ...]
    degree: int

    def __post_init__(self) -> None:
        if sum(m * c for m, c in self.counts) != self.degree:
            raise ValueError("cycle lengths do not add up to the degree")


def centralizer_order(ctype: CycleType) -> int:
    """Centralizer size of any permutation with the given cycle type.

    Equals the product over lengths m of m**c_m * c_m!.  Summing the class
    sizes degree! / centralizer_order over all partitions recovers degree!.
    """
    z = 1
    for m, c in ctype.counts:
        z *= m**c * math.factorial(c)
    return z


def partition_count(d: int) -> int:
    """Number of partitions of d, with partition_count(0) == 1."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    table = [1] + [0] * d
    for part in range(1, d + 1):
        for total in range(part, d + 1):
            table[total] += table[total - part]
    return table[d]

