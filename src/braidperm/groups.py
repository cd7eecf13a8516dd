"""Permutation-group algorithms and the braid-relation groups of shuffle permutations.

The stabilizer chain is the classic deterministic Schreier-Sims construction,
which is ample for the degrees (a few dozen) and orders (a few million) this
package works at.  Orders are exact Python integers throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Iterable, Iterator, NamedTuple

from .lattice import _block_powers, _read_exponents, _Span, _swapped, f_vector, q2_of
from .perm import Permutation, _compose, _invert, _padded, _shifted, _trusted
from .shuffle import ShuffleSpec, _is_braid_like, _walk

__all__ = [
    "BSGS",
    "BraidImage",
    "GeneratedGroup",
    "SplitVerificationError",
    "abelian_kernel",
    "braid_image",
    "case_certificate",
    "complement_count",
    "cyclic_group",
    "gap_generators",
    "schreier_sims",
    "split_complement",
    "symmetric_group",
    "tower",
    "tower_certificate",
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


def _block_root(sigma: tuple[int, ...], d: int) -> tuple[int, ...]:
    """tau's image tuple of degree d when sigma, an image tuple of degree at
    least 2d, passes braid_image's checks at degree 2d: sigma lives on [1, 2d] and maps
    [1, d] onto [d+1, 2d], (sigma, shift(sigma, d)) is braid-like, and sigma
    squared is tau * shift(tau, d).  ValueError names the first check that
    fails."""
    if len(sigma) > 2 * d:
        raise ValueError(f"sigma must live on [1, {2 * d}]")
    if any(not d < y <= 2 * d for y in sigma[:d]):
        raise ValueError("sigma does not map the first block onto the second")
    if not _is_braid_like(sigma + tuple(range(2 * d + 1, 3 * d + 1)), _shifted(sigma, d)):
        raise ValueError("(sigma, shift(sigma, d)) is not braid-like")
    tau = _block_split(_compose(sigma, sigma), d)
    if tau is None:
        raise ValueError("sigma squared does not split into equal block factors")
    return tau


def braid_image(sigma: Permutation, d: int, n: int) -> BraidImage:
    """Validate sigma by _block_root's checks at degree 2d and assemble the
    generator family.  The square of generator s is then the shifted block
    pair, and the generators satisfy the braid relations at every n:
    adjacent ones are shifts of (sigma, shift(sigma, d)), and distant ones
    have disjoint supports.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if d < 1:
        raise ValueError("need d >= 1")
    tau = _trusted(_block_root(_padded(sigma, 2 * d), d))
    q = tau.order()
    gens = tuple(sigma.shift((s - 1) * d) for s in range(1, n))
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


def _twist_holds(sigma: tuple[int, ...], tau: tuple[int, ...], d: int) -> bool:
    """Whether the twist eta = sigma * shift(tau**-1, d), from the image
    tuples sigma of degree 2d and tau of degree d, is an involution mapping
    [1, d] onto [d+1, 2d] with (eta, shift(eta, d)) braid-like at degree 3d."""
    eta = _compose(sigma, _shifted(_invert(tau), d))
    return (
        _compose(eta, eta) == tuple(range(1, 2 * d + 1))
        and all(d < y <= 2 * d for y in eta[:d])
        and _is_braid_like(eta + tuple(range(2 * d + 1, 3 * d + 1)), _shifted(eta, d))
    )


class CaseCertificate(NamedTuple):
    holds: bool
    splits: bool
    relations: bool


def case_certificate(
    sigma: tuple[int, ...], tau: tuple[int, ...], q: int, d: int
) -> CaseCertificate:
    """What the kernel claims need of one shuffle case, at degree 2d for
    every n at once, from sigma's and tau's image tuples and q = order(tau).

    holds: sigma passes _block_root's checks with block factor tau, and
    sigma * t_1 * sigma^-1 = t_2, t_i being tau on block i.  Shifted, with
    g_s = shift(sigma, (s-1)*d): g_s t_s g_s^-1 = t_(s+1), and g_s t_(s+1)
    g_s^-1 = t_s since g_s commutes with its square t_s t_(s+1); g_s moves
    no other block.  So g_s acts on exponent vectors as the swap of
    coordinates s and s+1, g_r^2 has the vector f_r and g_r g_(r+1)^2
    g_r^-1 the skip sum g_r, and the kernel A, its normality and
    parametrization, and the monodromy matrices depend on (n, q) alone:
    lattice.kernel_lattice decides them once per (n, q) (Artin, Theory of
    braids, 1947; Dixon and Mortimer, Permutation Groups, 1996, 2.6).

    splits: holds, q is odd, and the twist sigma *
    shift(tau**(q-1), d) passes _twist_holds; by the same shifts the twisted
    generators are involutions satisfying the Coxeter relations, and
    generate a copy of S_n meeting A trivially.

    A case whose certificate does not hold fails, at every n, each counter
    that rests on it: lemma-3.3 counts a failure; thm-3.4 counts an order
    failure and an unverified intersection, and neither verifies a split
    nor searches for complements; prop-3.11 counts an action mismatch when
    q >= 2 (the q = 1 cases sit outside that claim); cor-3.10 counts the
    entry inconsistent and lists no monodromy matrices for it.
    The counters that rest on (n, q) alone, thm-3.4's structure and
    parametrization and prop-3.11's formulas, relations and kernel, do not
    move.

    relations: sigma passes _block_root's checks, whatever tau is, and so
    its block shifts satisfy the braid relations at every n.
    """
    try:
        root = _block_root(sigma, d)
    except ValueError:
        return CaseCertificate(False, False, False)
    first = tau + tuple(range(d + 1, 2 * d + 1))
    holds = root == tau and _compose(sigma, first) == _compose(_shifted(tau, d), sigma)
    splits = holds and q % 2 == 1 and _twist_holds(sigma, tau, d)
    return CaseCertificate(holds, splits, True)


class SplitVerificationError(RuntimeError):
    """An odd-q complement failed one of its checks, contradicting the
    structure claim; treat as a bug or a falsifying witness."""


def split_complement(image: BraidImage) -> GeneratedGroup | None:
    """For odd q, the complement generated by the block shifts eta_s of
    sigma * shift(tau**(q-1), d), in g_s * D = g_s * A; None for even q.  As
    eta passes _twist_holds (else SplitVerificationError), they generate a
    copy of S_n meeting the block action's kernel A trivially."""
    if image.q % 2 == 0:
        return None
    d = image.d
    if not _twist_holds(_padded(image.sigma, 2 * d), _padded(image.tau, d), d):
        raise SplitVerificationError("the twisted generators fail the complement checks")
    eta = image.sigma * (image.tau ** (image.q - 1)).shift(d)
    return GeneratedGroup(image.n * d, tuple(eta.shift((s - 1) * d) for s in range(1, image.n)))


SEARCH_CAP = 4096  # most generator-lift combinations complement_count counts over


def _searchable(span: _Span, n: int) -> bool:
    """Whether the |A|^(n-1) lift combinations of A's span fit SEARCH_CAP."""
    return span.order() ** (n - 1) <= SEARCH_CAP


def complement_count(span: _Span, n: int) -> int | None:
    """Number of complements to A, of exponent span span at n strands, or
    None, with A not listed, when the span is not _searchable.

    A complement meets each g_s * A in one involution h_s = g_s * t^(a_s),
    a_s in the span, and involution lifts generate one exactly when they
    satisfy the braid relations (Coxeter).  Under a case's certificate
    (case_certificate), conjugation by g_s is the swap sw_s of coordinates
    s and s+1, and g_s^2 = t_s * t_(s+1) has the vector f_s.  Moving every
    t past the g's: h_s^2 = g_s^2 * t^(sw_s(a_s) + a_s), so h_s is an
    involution iff f_s + a_s + sw_s(a_s) = 0 mod q; with a = a_r, b =
    a_(r+1), h_r h_(r+1) h_r = g_r g_(r+1) g_r * t^(sw_r(sw_(r+1)(a) + b) +
    a), and h_r h_s = g_r g_s * t^(sw_s(a_r) + a_s).  The g_s satisfy the
    braid relations, so the h_s do iff these exponents agree with those of
    the other side.  The count depends on (n, q) alone, and holds for every
    case whose certificate holds."""
    if not _searchable(span, n):
        return None
    q, elements = span.q, span.elements()

    def add(*vectors) -> tuple[int, ...]:
        return tuple([sum(xs) % q for xs in zip(*vectors)])

    def braid(r: int, a, b) -> bool:
        left = add(_swapped(add(_swapped(a, r + 1), b), r), a)
        return left == add(_swapped(add(_swapped(b, r), a), r + 1), b)

    def commute(r: int, s: int, a, b) -> bool:
        return add(_swapped(a, s), b) == add(_swapped(b, r), a)

    involutions = [
        [a for a in elements if not any(add(f_vector(n, s), a, _swapped(a, s)))]
        for s in range(1, n)
    ]

    def extend(lifts: list) -> int:
        s = len(lifts) + 1
        if s == n:
            return 1
        return sum(
            extend(lifts + [b])
            for b in involutions[s - 1]
            if (s == 1 or braid(s - 1, lifts[-1], b))
            and all(commute(r, s, lifts[r - 1], b) for r in range(1, s - 1))
        )

    return extend([])


def tower(points: Iterable[int], d: int, n: int) -> frozenset[int]:
    """Union of the n block translates of a point set of [1, d]."""
    return frozenset(x + s * d for x in points for s in range(n))


class Transitivity(NamedTuple):
    transitive: bool
    orbits_match: bool


class TowerCertificate(NamedTuple):
    points: tuple[frozenset[int], ...]
    restrictions_match: bool
    subdirect: bool
    orbits: Transitivity | None


def _orbit_verdict(sigma: tuple[int, ...], d: int, u, points) -> Transitivity | None:
    """transitivity_report's verdict for every n >= 2, from sigma's image
    tuple, the (beta, u(beta)) pairs u and the tower points; None unless
    each cycle of sigma is beta + (u(beta) + d) for one pair, one per cycle
    of tau.

    Then g_s, acting on blocks s and s+1 as sigma on [1, 2d], joins
    u^(s-1)(alpha) on block s and u^s(alpha) on block s+1 into one cycle,
    and inside block s, u^(s-1)(alpha) is a whole piece both for g_(s-1)
    and for g_s.  So the orbits are exactly the chains T(alpha), the union
    over i = 0..n-1 of u^i(alpha) + i*d, one per cycle alpha of tau; they
    partition [1, n*d], as u permutes the cycles of tau.
    T(alpha) meets block 1 in alpha and block 2 in u(alpha) + d, so the
    group is transitive exactly when tau is one cycle, and its orbits are
    the towers over points exactly when u is the identity and points are
    tau's cycles."""
    if len(sigma) != 2 * d:
        return None
    for beta, image in u:
        x, cycle = beta[0], set()
        while x not in cycle:
            cycle.add(x)
            x = sigma[x - 1]
        if cycle != {*beta, *(y + d for y in image)}:
            return None
    cycles = {frozenset(beta) for beta, _ in u}
    identity = all(beta == image for beta, image in u)
    return Transitivity(len(u) == 1, identity and set(points) == cycles)


def tower_certificate(
    sigma: tuple[int, ...], tau: tuple[int, ...], spec: ShuffleSpec
) -> TowerCertificate:
    """prop-3.30's tower facts, at degree 2d for every n, from the image
    tuples sigma and spec.tau's tau, of degree 2d and d, and one _walk of
    the spec: each u-orbit's points, the x <= d its swap moves; whether
    sigma agrees with the orbit's factor on tower(points, d, 2); and for the
    subdirect product also whether each factor moves only points of that
    tower, and the point sets partition [1, d]; and _orbit_verdict's orbits."""
    d = spec.d
    points = []
    restrictions_match = on_towers = True
    for factor, *_, swap in _walk(spec, tau, spec.orbits())[3]:
        points.append(frozenset(x for x in range(1, d + 1) if swap[x - 1] != x))
        y = tower(points[-1], d, 2)
        moved = (x for x, image in enumerate(factor, start=1) if image != x)
        on_towers = on_towers and y.issuperset(moved)
        restrictions_match = restrictions_match and all(sigma[x - 1] == factor[x - 1] for x in y)
    partition = sorted(x for own in points for x in own) == list(range(1, d + 1))
    subdirect = restrictions_match and partition and on_towers
    verdict = _orbit_verdict(sigma, d, spec.u, points)
    return TowerCertificate(tuple(points), restrictions_match, subdirect, verdict)


def transitivity_report(sigma: tuple[int, ...], d: int, n: int, points: Iterable) -> Transitivity:
    """Whether the block shifts g_1, ..., g_(n-1) of sigma, an image tuple of
    degree 2d, are transitive, and whether their orbits are the towers over
    points.  The orbits are the classes of the shifted edges x + k ->
    sigma(x) + k, k = (s-1)*d, joined on sigma's images."""
    parent = list(range((n - 2) * d + len(sigma) + 1))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for k in range(0, (n - 1) * d, d):
        for x, y in enumerate(sigma, start=k + 1):
            parent[root(x)] = root(y + k)
    orbits: dict[int, set[int]] = {}
    for x in range(1, len(parent)):
        orbits.setdefault(root(x), set()).add(x)
    parts = {frozenset(o) for o in orbits.values()}
    return Transitivity(len(parts) == 1, parts == {tower(p, d, n) for p in points})


def gap_generators(perms: Iterable[Permutation]) -> str:
    """GAP-readable Group(...) expression, one generator per line."""
    lines = []
    for g in perms:
        cycles = g.cycles()
        text = "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)
        lines.append(text or "()")
    inner = ",\n  ".join(lines)
    return f"Group(\n  {inner}\n);\n"
