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
Conjugation by the group generators is expressed as matrices over Z/q in the
basis (f_1, ..., f_(n-1), h_n), where the last coordinate is only defined
mod q2 = q / gcd(q, 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, mul
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .perm import Permutation, _compose, _invert, _padded

if TYPE_CHECKING:  # pragma: no cover
    from .groups import BraidImage

__all__ = [
    "AbelianStructure",
    "compose_matrices",
    "coords_from_exponents",
    "expected_kernel_structure",
    "expected_monodromy_matrix",
    "f_vector",
    "g_vector",
    "identity_matrix",
    "kernel_actions",
    "kernel_structure",
    "monodromy_kernel",
    "monodromy_matrices",
    "normalize_factors",
    "q2_of",
]

Matrix = list[list[int]]


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


def _realize(shifted, exponents: Sequence[int]) -> tuple[int, ...]:
    """Image tuple of the product over blocks i of shift(tau**r_i, (i-1)*d),
    from the shifted powers of _block_powers; exponents are reduced mod q."""
    return tuple([y for blocks, r in zip(shifted, exponents) for y in blocks[r % len(blocks)]])


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
    sums: (Z/q)^(n-1) x Z/q2 when they pass _spans_coordinates, else None."""
    if n < 3:
        raise ValueError("need n >= 3")
    if q < 1:
        raise ValueError("q must be positive")
    vectors = [f_vector(n, i) for i in range(1, n)]
    vectors += [g_vector(n, r) for r in range(1, n - 1)]
    certified = _spans_coordinates(_Span(vectors, q, n), vectors)
    return expected_kernel_structure(n, q) if certified else None


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


def _read_coords(images: tuple[int, ...], lookups, d: int, q: int) -> tuple[int, ...]:
    """Kernel coordinates of an image tuple of degree n*d; ValueError outside the kernel."""
    return coords_from_exponents(_read_exponents(images, lookups, d), q)


# matrices over Z/q in the basis (f_1, ..., f_(n-1), h_n)

def _canonical_matrix(m: Matrix, q: int, q2: int) -> Matrix:
    return [[v % mod for v in row] for row, mod in zip(m, _moduli(len(m), q, q2))]


def identity_matrix(n: int, q: int, q2: int) -> Matrix:
    return _canonical_matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)], q, q2)


def compose_matrices(a: Matrix, b: Matrix, q: int, q2: int) -> Matrix:
    """Canonical product a @ b; the entry moduli follow the coordinate moduli."""
    n = len(a)
    prod = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return _canonical_matrix(prod, q, q2)


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


def kernel_actions(image: "BraidImage", coords_iter: Iterable[Sequence[int]]) -> Iterator:
    """Per kernel coordinate tuple c, the kernel coordinates of g_s * elem * g_s^-1
    for each generator g_s, s = 1, ..., n-1, with elem the block product with
    exponents _kernel_exponents(c); computed on image tuples of degree n*d.
    ValueError when one leaves the kernel."""
    d, n, q = image.d, image.n, image.q
    shifted, lookups = _block_powers(image.tau, d, n)
    pairs = [(g, _invert(g)) for g in (_padded(g, n * d) for g in image.generators)]
    for coords in coords_iter:
        elem = _realize(shifted, _kernel_exponents(coords))
        conjugates = (tuple([g[elem[x - 1] - 1] for x in inv]) for g, inv in pairs)
        yield tuple(_read_coords(c, lookups, d, q) for c in conjugates)


def monodromy_matrices(image: "BraidImage") -> list[Matrix]:
    """Conjugation by each generator as a matrix on kernel coordinates.

    Column j is the kernel action on the realization of the unit coordinate
    e_j, which is f_j for j < n and h_n for j = n; raises when a conjugate
    leaves the block product or the matrix violates the coordinate moduli
    (both would signal an upstream bug).
    """
    n, q, q2 = image.n, image.q, image.q2
    by_unit = list(kernel_actions(image, [tuple(int(i == j) for i in range(n)) for j in range(n)]))
    out = []
    for s in range(n - 1):
        mat = _canonical_matrix([[by_unit[j][s][i] for j in range(n)] for i in range(n)], q, q2)
        if any(row[n - 1] % (q // q2) for row in mat[:-1]):
            raise AssertionError("matrix does not respect the coordinate moduli")
        out.append(mat)
    return out


def _changed_columns(m: Matrix) -> list[tuple[int, list[int], list[int]]]:
    """(j, rows, entries) for each column j of m other than e_j: the rows it
    reads (its nonzero entries and row j, so never none) and their entries."""
    units = [tuple(int(k == j) for k in range(len(m))) for j in range(len(m))]
    changed = [(j, col) for j, col in enumerate(zip(*m)) if col != units[j]]
    rows = [[k for k, v in enumerate(col) if v or k == j] for j, col in changed]
    return [(j, r, [col[k] for k in r]) for (j, col), r in zip(changed, rows)]


def monodromy_kernel(matrices: list[Matrix], q: int, q2: int) -> int:
    """Number of block permutations acting trivially on the kernel coordinates,
    given the n-1 matrices of size n and the coordinate moduli q and q2.

    Walks S_n breadth-first from the identity along the adjacent
    transpositions: a permutation p first reached as p' * (s s+1) gets the
    matrix of p' times matrix s.  Counts the identity matrices among the n!
    results; size one means the action separates the block permutations.  The
    count does not depend on the walk when the matrices satisfy the Coxeter
    relations, which prop-3.11 checks separately.

    Matrices are held column-major: column j of A @ M_s is column j of A when
    column j of M_s is e_j, and only the other columns of M_s are multiplied out.
    """
    n = len(matrices[0])
    moduli, ident = _moduli(n, q, q2), tuple(zip(*identity_matrix(n, q, q2)))
    changes = [_changed_columns(m) for m in matrices]
    reached = {tuple(range(1, n + 1)): ident}
    queue = list(reached)
    for line in queue:
        mat = reached[line]
        for s in range(1, n):
            nxt = line[: s - 1] + (line[s], line[s - 1]) + line[s + 1:]
            if nxt not in reached:
                cols = list(mat)
                for j, rows, coefs in changes[s - 1]:
                    used = zip(*[mat[k] for k in rows])
                    cols[j] = tuple(sum(map(mul, coefs, r)) % mod for r, mod in zip(used, moduli))
                reached[nxt] = tuple(cols)
                queue.append(nxt)
    return sum(mat == ident for mat in reached.values())
