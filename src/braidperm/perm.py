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
from typing import Iterable, Mapping, Sequence

__all__ = [
    "CycleType",
    "Permutation",
    "block_swap",
    "canonical_cycle",
    "centralizer_order",
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
        return cls(tuple(range(1, degree + 1)))

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
        seen: set[int] = set()
        for cycle in cycles:
            points = list(cycle)
            if not points:
                raise ValueError("empty cycle")
            for x in points:
                if not isinstance(x, int) or x < 1:
                    raise ValueError(f"cycle point {x!r} is not a positive integer")
                if x in seen:
                    raise ValueError(f"point {x} appears in more than one cycle")
                seen.add(x)
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
        s = text.strip()
        if re.fullmatch(r"\(\s*\)", s):
            return cls.identity()
        if not s or not re.fullmatch(r"(\s*\(\s*\d+(?:[\s,]+\d+)*\s*\))+\s*", s):
            raise ValueError(f"malformed cycle notation: {text!r}")
        cycles = []
        for body in re.findall(r"\(([^()]*)\)", s):
            cycles.append([int(tok) for tok in re.split(r"[\s,]+", body.strip()) if tok])
        return cls.from_cycles(cycles)

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

    def is_identity(self) -> bool:
        return all(y == x + 1 for x, y in enumerate(self.images))

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
        if len(a) == len(b):
            return Permutation(tuple(a[x - 1] for x in b))
        n = max(len(a), len(b))
        return Permutation(tuple(self(other(x)) for x in range(1, n + 1)))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images, start=1):
            inv[y - 1] = x
        return Permutation(tuple(inv))

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
        return Permutation(tuple(range(1, k + 1)) + tuple(y + k for y in self.images))

    # cycle structure

    def cycles(self, include_fixed: bool = False, degree: int | None = None) -> list[tuple[int, ...]]:
        """Disjoint cycles, least point first, sorted by least point.

        With ``include_fixed`` the fixed points of [1, degree] appear as
        1-cycles.
        """
        n = max(self.degree, degree or 0)
        seen = [False] * (n + 1)
        out: list[tuple[int, ...]] = []
        for start in range(1, n + 1):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            x = self(start)
            while x != start:
                cycle.append(x)
                seen[x] = True
                x = self(x)
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


def block_swap(s: int, d: int, n: int) -> Permutation:
    """The involution of [1, n*d] exchanging the s-th and (s+1)-th d-blocks pointwise.

    >>> str(block_swap(1, 2, 2))
    '(1 3)(2 4)'
    >>> str(block_swap(2, 2, 3))
    '(3 5)(4 6)'
    """
    if d < 1 or n < 2:
        raise ValueError(f"need d >= 1 and n >= 2, got d={d}, n={n}")
    if not 1 <= s <= n - 1:
        raise ValueError(f"block index s={s} out of range [1, {n - 1}]")
    images = list(range(1, n * d + 1))
    for x in range((s - 1) * d + 1, s * d + 1):
        images[x - 1] = x + d
        images[x + d - 1] = x
    return Permutation(tuple(images))


def canonical_cycle(points: Sequence[int]) -> tuple[int, ...]:
    """Rotate a cycle so its least point comes first; all rotations share the result."""
    pts = tuple(points)
    if not pts:
        raise ValueError("empty cycle")
    if len(set(pts)) != len(pts):
        raise ValueError(f"cycle has repeated points: {pts!r}")
    i = pts.index(min(pts))
    return pts[i:] + pts[:i]


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

