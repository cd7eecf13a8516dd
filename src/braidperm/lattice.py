"""Block-exponent coordinates, integer lattices, and the monodromy action.

A permutation of [1, n*d] lying in the product of the n shifted copies of a
cyclic group <t> is encoded by its exponent tuple (r_1, ..., r_n) mod
q = order(t).  The kernel subgroups produced by squared group generators
correspond to the sublattice of Z^n spanned by the adjacent sums
f_i = e_i + e_(i+1) and the skip sums g_r = e_r + e_(r+2); together with
h_n = 2 e_n the f_i form a basis of that sublattice.  Spans mod q are held
in one echelon form over Z^n (a Hermite normal form), which gives their order
and decides membership; on it the sublattice mod q is certified to be
(Z/q)^(n-1) x Z/q2 (the tests recompute it by brute-force subgroup closure).
Conjugation by generator s swaps the exponents s and s+1, and is expressed
as matrices over Z/q in the basis (f_1, ..., f_(n-1), h_n), where the last
coordinate is only defined mod q2 = q / gcd(q, 2).  Each such matrix is the
identity except on a few columns, so every per-(n, q) check runs on sparse
columns: a word of matrices is applied to sparse vectors, and no matrix
product is formed.  The kernel of S_n's action through them is one of its
normal subgroups, told apart by at most two words applied to the unit
coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from typing import Iterable, Sequence

from .perm import Permutation, _compose, _padded

__all__ = [
    "AbelianStructure",
    "KernelLattice",
    "coords_from_exponents",
    "expected_kernel_structure",
    "expected_monodromy_matrix",
    "f_vector",
    "g_vector",
    "kernel_lattice",
    "kernel_structure",
    "monodromy_kernel",
    "normalize_factors",
    "q2_of",
]

Matrix = list[list[int]]
Columns = list[list[tuple[int, int]]]  # per column, its nonzero (row, entry) pairs


def q2_of(q: int) -> int:
    """Modulus of the last kernel coordinate: q2 = q / gcd(q, 2)."""
    return q // math.gcd(q, 2)


def _powers(tau: Permutation, d: int) -> list[tuple[int, ...]]:
    """Image tuples on [1, d] of tau**0, ..., tau**(q-1), q = order(tau)."""
    images = _padded(tau, d)
    powers = [tuple(range(1, d + 1))]
    while (nxt := _compose(images, powers[-1])) != powers[0]:
        powers.append(nxt)
    return powers


def _block_powers(tau: Permutation, d: int, n: int):
    """Per block i of n: the images on that block of tau**r shifted by i*d,
    for r in range(order(tau)), and the lookup {block images: r}."""
    powers = _powers(tau, d)
    shifted = [[tuple(i * d + y for y in p) for p in powers] for i in range(n)]
    return shifted, [{block: r for r, block in enumerate(blocks)} for blocks in shifted]


def _read_exponents(images: tuple[int, ...], lookups, d: int) -> tuple[int, ...]:
    """Block exponents of an image tuple of degree n*d: one lookup per block."""
    entries = []
    for i, lookup in enumerate(lookups):
        r = lookup.get(images[i * d: (i + 1) * d])
        if r is None:
            raise ValueError(f"block {i + 1} is not a power of the base permutation")
        entries.append(r)
    return tuple(entries)


# basis vectors of Z^n

def f_vector(n: int, i: int) -> tuple[int, ...]:
    """e_i + e_(i+1) for 1 <= i <= n-1."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"f index {i} out of range [1, {n - 1}]")
    return tuple(1 if j in (i, i + 1) else 0 for j in range(1, n + 1))


def g_vector(n: int, r: int) -> tuple[int, ...]:
    """e_r + e_(r+2) for 1 <= r <= n-2."""
    if not 1 <= r <= n - 2:
        raise ValueError(f"g index {r} out of range [1, {n - 2}]")
    return tuple(1 if j in (r, r + 2) else 0 for j in range(1, n + 1))


def _kernel_vectors(n: int) -> list[tuple[int, ...]]:
    """The exponent vectors of the kernel's 2n - 3 generators (see
    groups.case_certificate): f_1, ..., f_(n-1), then g_1, ..., g_(n-2)."""
    return [f_vector(n, i) for i in range(1, n)] + [g_vector(n, r) for r in range(1, n - 1)]


@dataclass(frozen=True)
class AbelianStructure:
    """Invariant factors in ascending divisibility order, unit factors dropped."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        for f in self.invariant_factors:
            if f < 2:
                raise ValueError("invariant factors must exceed 1")
        for x, y in zip(self.invariant_factors, self.invariant_factors[1:]):
            if y % x:
                raise ValueError(f"{x} does not divide {y}")

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)


class _Span:
    """The subgroup of (Z/q)^n spanned by integer vectors, as the echelon form
    of the lattice they span with q*e_1, ..., q*e_n: row j is zero before
    column j, and its pivot p_j there divides q.  The tuples c with
    0 <= c_j < q / p_j give each element once as the sum of the c_j * row j,
    and reducing by the rows in turn leaves zero exactly on members."""

    def __init__(self, vectors: Iterable[Sequence[int]], q: int, n: int):
        self.q = q
        self.rows = [[q * (i == j) for i in range(n)] for j in range(n)]
        for vector in vectors:
            v = [x % q for x in vector]
            for j, b in enumerate(self.rows):
                while v[j]:  # Euclid on column j: b ends with the gcd pivot, v with 0
                    k = b[j] // v[j]
                    b[:], v[:] = v, [(x - k * y) % q for x, y in zip(b, v)]

    def order(self) -> int:
        return math.prod(self.q // b[j] for j, b in enumerate(self.rows))

    def __contains__(self, vector: Sequence[int]) -> bool:
        v = [x % self.q for x in vector]
        for j, b in enumerate(self.rows):
            c, r = divmod(v[j], b[j])
            if r:
                return False
            if c:
                v = [(x - c * y) % self.q for x, y in zip(v, b)]
        return True

    def elements(self) -> list[tuple[int, ...]]:
        out = [(0,) * len(self.rows)]
        for j, b in enumerate(self.rows):
            steps = range(self.q // b[j])
            out = [tuple((x + c * y) % self.q for x, y in zip(e, b)) for e in out for c in steps]
        return out


def normalize_factors(factors) -> tuple[int, ...]:
    return tuple(sorted(f for f in factors if f > 1))


def _spans_coordinates(span: _Span, vectors: Iterable[Sequence[int]]) -> bool:
    """Whether span, the span mod q of vectors, has q^(n-1) * q2 elements and
    equals the span of the unit coordinates' exponent vectors f_1, ...,
    f_(n-1), h_n.  Then c -> c_1 f_1 + ... + c_(n-1) f_(n-1) + c_n h_n is a
    well-defined homomorphism from (Z/q)^(n-1) x Z/q2 onto span, and of the
    same order, so an isomorphism."""
    q, n = span.q, len(span.rows)
    units = [_kernel_exponents([int(i == j) for i in range(n)]) for j in range(n)]
    coords = _Span(units, q, n)
    return (
        span.order() == q ** (n - 1) * q2_of(q)
        and all(u in span for u in units)
        and all(v in coords for v in vectors)
    )


def kernel_structure(n: int, q: int) -> AbelianStructure | None:
    """Structure of the subgroup of (Z/q)^n spanned by the adjacent and skip
    sums: (Z/q)^(n-1) x Z/q2 when their kernel_lattice is parametrized
    (_spans_coordinates), else None."""
    if n < 3:
        raise ValueError("need n >= 3")
    if q < 1:
        raise ValueError("q must be positive")
    parametrized = kernel_lattice(_kernel_vectors(n), q, n).parametrized
    return expected_kernel_structure(n, q) if parametrized else None


def expected_kernel_structure(n: int, q: int) -> AbelianStructure:
    """n-1 copies of Z/q and one Z/q2, normalized."""
    return AbelianStructure(normalize_factors([q] * (n - 1) + [q2_of(q)]))


def _kernel_exponents(coords: Sequence[int]) -> list[int]:
    """Block exponents (c_1, c_1 + c_2, ..., c_(n-2) + c_(n-1), c_(n-1) + 2 c_n)
    of kernel coordinates (c_1, ..., c_n)."""
    n = len(coords)
    if n < 2:
        raise ValueError("need at least two coordinates")
    return [coords[0], *map(add, coords, coords[1:-1]), coords[-2] + 2 * coords[-1]]


def _moduli(n: int, q: int, q2: int) -> list[int]:
    """Moduli of the kernel coordinates: q for the first n-1, q2 for the last."""
    return [q] * (n - 1) + [q2]


def coords_from_exponents(entries: Sequence[int], q: int) -> tuple[int, ...]:
    """Solve for canonical coordinates with the given block exponents mod q.

    The triangular shape of the parametrization determines c_1..c_(n-1)
    directly; the last equation 2*c_n = remainder is solvable exactly when the
    exponent vector lies in the sublattice (mod q), else ValueError.
    """
    coords = []
    prev = 0
    for r in entries[:-1]:
        prev = (r - prev) % q
        coords.append(prev)
    t = (entries[-1] - prev) % q
    if q % 2:
        return (*coords, t * pow(2, -1, q) % q)
    if t % 2:
        raise ValueError("exponent vector is not in the adjacent-sum sublattice")
    return (*coords, t // 2 % q2_of(q))


# matrices over Z/q in the basis (f_1, ..., f_(n-1), h_n)

def _canonical_matrix(m: Matrix, q: int, q2: int) -> Matrix:
    return [[v % mod for v in row] for row, mod in zip(m, _moduli(len(m), q, q2))]


def _columns(m: Matrix) -> Columns:
    """The columns of m as their nonzero (row, entry) pairs."""
    return [[(i, x) for i, x in enumerate(col) if x] for col in zip(*m)]


def _sparse(coords: Sequence[int]) -> dict[int, int]:
    """The nonzero coordinates of a vector, keyed by position."""
    return {i: x for i, x in enumerate(coords) if x}


def _apply(cols: Columns, v: dict[int, int], moduli: Sequence[int]) -> dict[int, int]:
    """The image of the sparse vector v under the matrix with columns cols,
    each coordinate reduced mod its modulus (q, or q2 for the last)."""
    out: dict[int, int] = {}
    for j, c in v.items():
        for i, x in cols[j]:
            out[i] = out.get(i, 0) + c * x
    return {i: r for i, x in out.items() if (r := x % moduli[i])}


def _fixes_units(word: Sequence[Columns], moduli: Sequence[int]) -> bool:
    """Whether the product of the word's matrices, applied last first, fixes
    every unit coordinate; for q2 = 1 the last unit is the zero vector, which
    every matrix fixes.  A unit whose column is [(j, 1)] in every matrix of
    the word is fixed by each of them, so it is not applied."""
    for j, k in enumerate(moduli):
        if k == 1 or all(cols[j] == [(j, 1)] for cols in word):
            continue
        unit = v = {j: 1}
        for cols in reversed(word):
            v = _apply(cols, v, moduli)
        if v != unit:
            return False
    return True


def expected_monodromy_matrix(s: int, n: int, q: int) -> Matrix:
    """The stated matrix of conjugation by generator s on the kernel.

    Columns give images of the basis: f_s and the distant f_r are fixed, the
    adjacent f_r goes to g_min(r,s), and h_n goes to h_(n-1) exactly when
    s == n-1.
    """
    q2 = q2_of(q)

    def h_coords(i: int) -> list[int]:
        if i == n:
            return [0] * (n - 1) + [1]
        vec = [0] * n
        for j in range(i, n):
            vec[j - 1] = 2 * (-1) ** (j - i)
        vec[n - 1] = (-1) ** (n - i)
        return vec

    def f_coords(r: int) -> list[int]:
        return [1 if k == r - 1 else 0 for k in range(n)]

    def g_coords(m: int) -> list[int]:
        h = h_coords(m + 1)
        return [x + y - z for x, y, z in zip(f_coords(m), f_coords(m + 1), h)]

    cols = []
    for r in range(1, n):
        if abs(r - s) == 1:
            cols.append(g_coords(min(r, s)))
        else:
            cols.append(f_coords(r))
    cols.append(h_coords(n - 1) if s == n - 1 else h_coords(n))
    return _canonical_matrix([[cols[j][i] for j in range(n)] for i in range(n)], q, q2)


def _swapped(v: Sequence[int], s: int) -> list[int]:
    """v with coordinates s and s+1 exchanged: conjugation by generator s."""
    v = list(v)
    v[s - 1], v[s] = v[s], v[s - 1]
    return v


def _swap_matrix(s: int, n: int, q: int) -> Matrix:
    """The swap of coordinates s and s+1 as a matrix on kernel coordinates:
    column j holds the coordinates of the swapped exponents of unit j."""
    units = [[int(i == j) for i in range(n)] for j in range(n)]
    cols = [coords_from_exponents(_swapped(_kernel_exponents(u), s), q) for u in units]
    return _canonical_matrix([list(row) for row in zip(*cols)], q, q2_of(q))


def _swap_actions_match(vectors: Sequence[Sequence[int]], matrices: list[Matrix], q: int) -> bool:
    """Whether each matrix acts on the coordinates of every vector as its
    swap acts on the vector; False when a vector has no coordinates.  Both
    are maps of the coordinate group, so agreeing on generators they agree
    everywhere; the skip sums bring in h_n.  Each action is applied on the
    matrix's sparse columns."""
    moduli = _moduli(len(matrices[0]), q, q2_of(q))
    columns = [_columns(m) for m in matrices]
    try:
        for v in vectors:
            coords = _sparse(coords_from_exponents(v, q))
            for s, cols in enumerate(columns, start=1):
                swapped = _sparse(coords_from_exponents(_swapped(v, s), q))
                if _apply(cols, coords, moduli) != swapped:
                    return False
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class KernelLattice:
    """The span mod q of the kernel's generator vectors at n strands, with
    conjugation by g_s the swap of coordinates s and s+1 (groups.case_certificate).

    orders_hold: the span has q^(n-1) * q2 elements and is closed under the
    adjacent swaps, so A is normal; by the Coxeter presentation of S_n the
    block action's kernel is the normal closure of g_1^2 (Artin's pure braid
    group), which lies in A, so A is that kernel, |B| = n! * |A| and
    B & D = A.  parametrized: _spans_coordinates.  outside: (1, 0, ..., 0)
    lies outside the span.  matrices: the swaps in the basis (f_1, ...,
    f_(n-1), h_n).  actions_match: _swap_actions_match on the vectors."""

    span: _Span
    orders_hold: bool
    parametrized: bool
    outside: bool
    matrices: list[Matrix]
    actions_match: bool


def kernel_lattice(vectors: Sequence[Sequence[int]], q: int, n: int) -> KernelLattice:
    """KernelLattice of the span of vectors mod q in Z^n."""
    span = _Span(vectors, q, n)
    matrices = [_swap_matrix(s, n, q) for s in range(1, n)]
    # a swapped vector equal to a given one is in the span without reduction
    given = {tuple(v) for v in vectors}
    normal = all(
        (w := tuple(_swapped(v, s))) in given or w in span
        for v in vectors
        for s in range(1, n)
    )
    return KernelLattice(
        span,
        span.order() == q ** (n - 1) * q2_of(q) and normal,
        _spans_coordinates(span, vectors),
        (1,) + (0,) * (n - 1) not in span,
        matrices,
        _swap_actions_match(vectors, matrices, q),
    )


def _coxeter_relations_hold(columns: list[Columns], moduli: Sequence[int]) -> bool:
    """(M_r M_s)^m = I for r <= s, with m = 1 for r = s, 3 for adjacent r, s
    and 2 otherwise: the Coxeter presentation of S_n.  The matrices are given
    by their columns and must respect the moduli (monodromy_kernel checks
    them first), so each is a map of the coordinate group: their products
    associate, and a product is the identity exactly when it fixes every unit
    coordinate.  So each word is applied to the units, and no product is formed."""
    for r, a in enumerate(columns):
        for s in range(r, len(columns)):
            m = 1 if s == r else 3 if s == r + 1 else 2
            if not _fixes_units([a, columns[s]] * m, moduli):
                return False
    return True


def monodromy_kernel(matrices: list[Matrix], q: int, q2: int) -> int | None:
    """Number of block permutations acting trivially on the kernel coordinates,
    given the n-1 matrices of size n and the moduli q and q2; None when the
    matrices break the moduli or the Coxeter relations of S_n.

    Matrices that respect the moduli are maps of the coordinate group, and
    when the relations hold, (s s+1) -> M_s is a homomorphism rho of S_n.
    ker rho is normal: 1, A_n, S_n, or V_4 when n = 4 (Dixon and Mortimer,
    Permutation Groups, 1996).  It is S_n when every M_s is the identity;
    else A_n, the normal closure of the 3-cycle (1 2)(2 3), when M_1 M_2 is;
    else V_4, that of (1 2)(3 4), when n = 4 and M_1 M_3 is; else 1.
    """
    mats = [_canonical_matrix(m, q, q2) for m in matrices]
    n = len(mats[0])
    if any(row[-1] % (q // q2) for m in mats for row in m[:-1]):
        return None
    moduli, columns = _moduli(n, q, q2), [_columns(m) for m in mats]
    if not _coxeter_relations_hold(columns, moduli):
        return None
    if all(_fixes_units([cols], moduli) for cols in columns):
        return math.factorial(n)
    if _fixes_units([columns[0], columns[1]], moduli):
        return math.factorial(n) // 2
    if n == 4 and _fixes_units([columns[0], columns[2]], moduli):
        return 4
    return 1
