"""Block-exponent coordinates, integer lattices, and the monodromy action.

A permutation of [1, n*d] lying in the product of the n shifted copies of a
cyclic group <t> is encoded by its exponent tuple (r_1, ..., r_n) mod
q = order(t).  The kernel subgroups produced by squared group generators
correspond to the sublattice of Z^n spanned by the adjacent sums
f_i = e_i + e_(i+1) and the skip sums g_r = e_r + e_(r+2); together with
h_n = 2 e_n the f_i form a basis of that sublattice.  Its structure mod q is
computed here by Smith normal form (the tests recompute it by brute-force
subgroup closure), and conjugation by the group generators is expressed as
matrices over Z/q in the basis (f_1, ..., f_(n-1), h_n), where the last
coordinate is only defined mod q2 = q / gcd(q, 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations as iter_permutations, product as iter_product
from typing import TYPE_CHECKING, Iterator, Sequence

from .perm import Permutation

if TYPE_CHECKING:  # pragma: no cover
    from .groups import BraidImage

__all__ = [
    "AbelianStructure",
    "compose_matrices",
    "coords_from_exponents",
    "expected_kernel_structure",
    "expected_monodromy_matrix",
    "exponent_vector",
    "f_vector",
    "g_vector",
    "h_vector",
    "identity_matrix",
    "kernel_box",
    "kernel_structure",
    "monodromy_kernel",
    "monodromy_matrices",
    "normalize_factors",
    "parametrize_kernel",
    "q2_of",
    "realize",
    "smith_normal_form",
]

Matrix = list[list[int]]


def q2_of(q: int) -> int:
    """Modulus of the last kernel coordinate: q2 = q / gcd(q, 2)."""
    return q // math.gcd(q, 2)


def realize(exponents: Sequence[int], tau: Permutation, d: int) -> Permutation:
    """Product over blocks i of shift(tau**r_i, (i-1)*d)."""
    out = Permutation.identity()
    for i, r in enumerate(exponents):
        out = out * (tau**r).shift(i * d)
    return out


def exponent_vector(g: Permutation, tau: Permutation, d: int, n: int) -> tuple[int, ...]:
    """Block exponents (r_1, ..., r_n), each in range(q) for q = order(tau);
    ValueError when g is not in the block product."""
    q = tau.order()
    if max(g.support(), default=0) > n * d:
        raise ValueError(f"permutation moves points beyond [1, {n * d}]")
    powers = {(tau**r).canonical(): r for r in range(q)}
    entries = []
    for i in range(n):
        base = i * d
        images = []
        for x in range(1, d + 1):
            y = g(base + x)
            if not base < y <= base + d:
                raise ValueError(f"block {i + 1} is not preserved")
            images.append(y - base)
        r = powers.get(Permutation(tuple(images)).canonical())
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


def h_vector(n: int, i: int) -> tuple[int, ...]:
    """2 e_i for 1 <= i <= n."""
    if not 1 <= i <= n:
        raise ValueError(f"h index {i} out of range [1, {n}]")
    return tuple(2 if j == i else 0 for j in range(1, n + 1))


def smith_normal_form(rows: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Entries are nonnegative and each divides the next; trailing zeros appear
    when the rank is below min(#rows, #cols).
    """
    a = [list(map(int, row)) for row in rows]
    if not a or not a[0]:
        return []
    nr, nc = len(a), len(a[0])
    if any(len(row) != nc for row in a):
        raise ValueError("ragged matrix")
    size = min(nr, nc)
    for t in range(size):
        while True:
            pivot = None
            best = 0
            for i in range(t, nr):
                for j in range(t, nc):
                    v = abs(a[i][j])
                    if v and (pivot is None or v < best):
                        pivot, best = (i, j), v
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
            if pj != t:
                for row in a:
                    row[t], row[pj] = row[pj], row[t]
            if a[t][t] < 0:
                a[t] = [-v for v in a[t]]
            p = a[t][t]
            clean = True
            for i in range(t + 1, nr):
                if a[i][t]:
                    k = a[i][t] // p
                    if k:
                        a[i] = [x - k * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        clean = False
            for j in range(t + 1, nc):
                if a[t][j]:
                    k = a[t][j] // p
                    if k:
                        for row in a:
                            row[j] -= k * row[t]
                    if a[t][j]:
                        clean = False
            if not clean:
                continue
            offender = None
            for i in range(t + 1, nr):
                if any(a[i][j] % p for j in range(t + 1, nc)):
                    offender = i
                    break
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
    diag = [a[i][i] for i in range(size)]
    for x, y in zip(diag, diag[1:]):
        if (x == 0 and y != 0) or (x != 0 and y % x != 0):
            raise AssertionError(f"diagonal {diag} is not a divisibility chain")
    return diag


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


def normalize_factors(factors) -> tuple[int, ...]:
    return tuple(sorted(f for f in factors if f > 1))


def kernel_structure(n: int, q: int) -> AbelianStructure:
    """Structure of the subgroup of (Z/q)^n spanned by the adjacent and skip sums.

    Stacks the generating vectors with q times the identity and takes the
    Smith normal form; the diagonal (d_1 | ... | d_n, every d_i dividing q)
    turns into the invariant factors q/d_i of the subgroup itself.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if q < 1:
        raise ValueError("q must be positive")
    rows = [f_vector(n, i) for i in range(1, n)]
    rows += [g_vector(n, r) for r in range(1, n - 1)]
    rows += [tuple(q if j == i else 0 for j in range(n)) for i in range(n)]
    diag = smith_normal_form(rows)
    if len(diag) != n or any(d == 0 or q % d for d in diag):
        raise AssertionError("stacked lattice must have full rank with divisors of q")
    return AbelianStructure(normalize_factors(q // d for d in diag))


def expected_kernel_structure(n: int, q: int) -> AbelianStructure:
    """n-1 copies of Z/q and one Z/q2, normalized."""
    return AbelianStructure(normalize_factors([q] * (n - 1) + [q2_of(q)]))


def parametrize_kernel(coords: Sequence[int], tau: Permutation, d: int) -> Permutation:
    """Realize kernel coordinates (c_1, ..., c_n).

    The block exponents are (c_1, c_1 + c_2, ..., c_(n-2) + c_(n-1),
    c_(n-1) + 2 c_n); over the canonical coordinate box this parametrizes the
    kernel subgroup bijectively.
    """
    n = len(coords)
    if n < 2:
        raise ValueError("need at least two coordinates")
    exps = [coords[0]]
    for i in range(1, n - 1):
        exps.append(coords[i - 1] + coords[i])
    exps.append(coords[n - 2] + 2 * coords[n - 1])
    return realize(exps, tau, d)


def kernel_box(n: int, q: int) -> Iterator[tuple[int, ...]]:
    """All canonical coordinate tuples: n-1 entries mod q, the last mod q2."""
    yield from iter_product(*([range(q)] * (n - 1) + [range(q2_of(q))]))


def coords_from_exponents(entries: Sequence[int], q: int) -> tuple[int, ...]:
    """Solve for canonical coordinates with the given block exponents mod q.

    The triangular shape of the parametrization determines c_1..c_(n-1)
    directly; the last equation 2*c_n = remainder is solvable exactly when the
    exponent vector lies in the sublattice (mod q), else ValueError.
    """
    n = len(entries)
    q2 = q2_of(q)
    if q == 1:
        return (0,) * n
    coords = []
    prev = 0
    for i in range(n - 1):
        c = (entries[i] - prev) % q
        coords.append(c)
        prev = c
    t = (entries[n - 1] - prev) % q
    if q % 2 == 0:
        if t % 2:
            raise ValueError("exponent vector is not in the adjacent-sum sublattice")
        last = (t // 2) % q2
    else:
        last = (t * pow(2, -1, q)) % q
    return tuple(coords) + (last,)


# matrices over Z/q in the basis (f_1, ..., f_(n-1), h_n)

def _canonical_matrix(m: Matrix, q: int, q2: int) -> Matrix:
    n = len(m)
    return [[v % (q if i < n - 1 else q2) for v in row] for i, row in enumerate(m)]


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


def monodromy_matrices(image: "BraidImage") -> list[Matrix]:
    """Conjugation by each generator as a matrix on kernel coordinates.

    Computed by conjugating the realization of every basis vector and
    re-expressing the result in the basis; raises when a conjugate leaves the
    block product or the matrix violates the coordinate moduli (both would
    signal an upstream bug).
    """
    tau, d, n, q, q2 = image.tau, image.d, image.n, image.q, image.q2
    basis = [f_vector(n, i) for i in range(1, n)] + [h_vector(n, n)]
    delta = q // q2
    out = []
    for s in range(1, n):
        gen = image.generators[s - 1]
        inv = gen.inverse()
        cols = []
        for vec in basis:
            elem = realize([v % q for v in vec], tau, d)
            conj = gen * elem * inv
            cols.append(coords_from_exponents(exponent_vector(conj, tau, d, n), q))
        mat = _canonical_matrix([[cols[j][i] for j in range(n)] for i in range(n)], q, q2)
        for i in range(n - 1):
            if mat[i][n - 1] % delta:
                raise AssertionError("matrix does not respect the coordinate moduli")
        out.append(mat)
    return out


def _adjacent_word(line: Sequence[int]) -> list[int]:
    """Adjacent-swap word for a one-line permutation of [1, n].

    Returns indices s_1, ..., s_k with the permutation equal to the functional
    composition t_(s_k) o ... o t_(s_1) of adjacent transpositions.
    """
    work = list(line)
    word = []
    while True:
        for i in range(len(work) - 1):
            if work[i] > work[i + 1]:
                work[i], work[i + 1] = work[i + 1], work[i]
                word.append(i + 1)
                break
        else:
            return word


def monodromy_kernel(image: "BraidImage", matrices: list[Matrix] | None = None) -> int:
    """Number of block permutations acting trivially on the kernel coordinates.

    Enumerates all n! words, composes the corresponding matrices, and counts
    identities; size one means the action separates the block permutations.
    """
    n, q, q2 = image.n, image.q, image.q2
    matrices = matrices if matrices is not None else monodromy_matrices(image)
    ident = identity_matrix(n, q, q2)
    kernel = 0
    for line in iter_permutations(range(1, n + 1)):
        mat = ident
        for s in _adjacent_word(line):
            mat = compose_matrices(matrices[s - 1], mat, q, q2)
        if mat == ident:
            kernel += 1
    return kernel
