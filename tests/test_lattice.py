import dataclasses
import math
import random
from itertools import combinations_with_replacement, permutations, product
from operator import mul

import pytest

from braidperm import lattice
from braidperm.claims import RunConfig, Session
from braidperm.groups import abelian_kernel, braid_image
from braidperm.lattice import (
    AbelianStructure,
    coords_from_exponents,
    expected_kernel_structure,
    expected_monodromy_matrix,
    f_vector,
    g_vector,
    kernel_lattice,
    kernel_structure,
    monodromy_kernel,
    normalize_factors,
    q2_of,
)
from braidperm.perm import Permutation, _invert, _padded, _trusted
from braidperm.shuffle import ShuffleSpec, build_shuffle


def perm(text):
    return Permutation.parse(text)


def image_for(tau, d, n):
    return braid_image(build_shuffle(ShuffleSpec.make(tau, d)), d, n)


def bubble_sort_word(line):
    """Indices s_1, ..., s_k with line == t_(s_k) o ... o t_(s_1), t_s = (s s+1)."""
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


def realize_by_products(exponents, tau, d):
    """The block product as a product of shifted powers of tau."""
    out = Permutation.identity()
    for i, r in enumerate(exponents):
        out = out * (tau**r).shift(i * d)
    return out


def parametrize_by_products(coords, tau, d):
    """Kernel coordinates (c_1, ..., c_n) realized as the block product with
    exponents c_1 f_1 + ... + c_(n-1) f_(n-1) + c_n h_n, where h_n = 2 e_n."""
    n = len(coords)
    basis = [f_vector(n, i) for i in range(1, n)] + [(0,) * (n - 1) + (2,)]
    exponents = [sum(c * v[j] for c, v in zip(coords, basis)) for j in range(n)]
    return realize_by_products(exponents, tau, d)


def realize_images(shifted, exponents):
    """Image tuple of the product over blocks i of shift(tau**r_i, (i-1)*d),
    from the shifted powers of lattice._block_powers; exponents are reduced
    mod q.  The reference realization of a block product, which the run
    path no longer needs: it reads or concatenates the power tuples
    itself."""
    return tuple([y for blocks, r in zip(shifted, exponents) for y in blocks[r % len(blocks)]])


def realize(exponents, tau, d):
    """The block product as one image tuple from tau's shifted powers."""
    shifted = lattice._block_powers(tau, d, len(exponents))[0]
    return Permutation(realize_images(shifted, exponents))


def exponent_vector(g, tau, d, n):
    """Block exponents (r_1, ..., r_n) of g, each in range(order(tau)), read as
    the checks read them; ValueError when g is not in the block product."""
    images = _padded(g, n * d)
    if len(images) > n * d:
        raise ValueError(f"permutation moves points beyond [1, {n * d}]")
    return lattice._read_exponents(images, lattice._block_powers(tau, d, n)[1], d)


def parametrize(coords, tau, d):
    """Kernel coordinates realized as thm-3.4 realizes the unit coordinates."""
    return realize(lattice._kernel_exponents(coords), tau, d)


def identity_matrix(n, q, q2):
    return lattice._canonical_matrix([[int(i == j) for j in range(n)] for i in range(n)], q, q2)


def compose_matrices(a, b, q, q2):
    """The dense reference product: canonical a @ b, the entry moduli
    following the coordinate moduli."""
    n = len(a)
    prod = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return lattice._canonical_matrix(prod, q, q2)


def kernel_box(n, q):
    """All canonical coordinate tuples: n-1 entries mod q, the last mod q2."""
    return product(*map(range, lattice._moduli(n, q, q2_of(q))))


# prop-3.11's matrices and their cross-check at degree n*d, from before
# kernel_lattice read them per (n, q) as coordinate swaps: kept as references


def kernel_actions(image, coords_iter):
    """Per kernel coordinate tuple c, the kernel coordinates of g_s * elem * g_s^-1
    for each generator g_s, s = 1, ..., n-1, with elem the block product with
    exponents _kernel_exponents(c); computed on image tuples of degree n*d.
    ValueError when one leaves the kernel."""
    d, n, q = image.d, image.n, image.q
    shifted, lookups = lattice._block_powers(image.tau, d, n)
    pairs = [(g, _invert(g)) for g in (_padded(g, n * d) for g in image.generators)]
    for coords in coords_iter:
        elem = realize_images(shifted, lattice._kernel_exponents(coords))
        conjugates = (tuple([g[elem[x - 1] - 1] for x in inv]) for g, inv in pairs)
        yield tuple(
            coords_from_exponents(lattice._read_exponents(c, lookups, d), q) for c in conjugates
        )


def monodromy_matrices(image):
    """Conjugation by each generator as a matrix on kernel coordinates:
    column j is the kernel action on the realization of the unit coordinate
    e_j, which is f_j for j < n and h_n for j = n; raises when a conjugate
    leaves the block product or the matrix violates the coordinate moduli."""
    n, q, q2 = image.n, image.q, image.q2
    by_unit = list(kernel_actions(image, [tuple(int(i == j) for i in range(n)) for j in range(n)]))
    out = []
    for s in range(n - 1):
        cols = [[by_unit[j][s][i] for j in range(n)] for i in range(n)]
        mat = lattice._canonical_matrix(cols, q, q2)
        if any(row[n - 1] % (q // q2) for row in mat[:-1]):
            raise AssertionError("matrix does not respect the coordinate moduli")
        out.append(mat)
    return out


def matrices_match_conjugation(image, kernel_gens, mats):
    """Each matrix acts as conjugation of realized kernel elements does, on
    the coordinates of kernel_gens, abelian_kernel's generators."""
    n, d, q = image.n, image.d, image.q
    moduli = lattice._moduli(n, q, image.q2)
    lookups = lattice._block_powers(image.tau, d, n)[1]
    gens = [
        coords_from_exponents(lattice._read_exponents(_padded(k, n * d), lookups, d), q)
        for k in kernel_gens
    ]
    for coords, actions in zip(gens, kernel_actions(image, gens)):
        for m, acted in zip(mats, actions):
            if tuple(sum(map(mul, row, coords)) % k for row, k in zip(m, moduli)) != acted:
                return False
    return True


# thm-3.4's and prop-3.11's checks element by element, as references for the
# checks on generators


def box_parametrizes(image, a_bsgs):
    """The realized kernel box is |A| distinct elements of the chain a_bsgs."""
    shifted = lattice._block_powers(image.tau, image.d, image.n)[0]
    coords = kernel_box(image.n, image.q)
    box = [realize_images(shifted, lattice._kernel_exponents(c)) for c in coords]
    return len(set(box)) == len(box) == a_bsgs.order() and all(_trusted(g) in a_bsgs for g in box)


def sweep_intersects(image, b_bsgs, a_bsgs):
    """Each of the q^n block-product elements lies in the chain b_bsgs exactly
    when it lies in the chain a_bsgs."""
    shifted = lattice._block_powers(image.tau, image.d, image.n)[0]
    block_product = (realize_images(shifted, e) for e in product(range(image.q), repeat=image.n))
    return all((g in b_bsgs) == (g in a_bsgs) for g in map(_trusted, block_product))


def box_matches_conjugation(image, mats):
    """Each matrix acts on every kernel-box element as conjugation does."""
    moduli = lattice._moduli(image.n, image.q, image.q2)
    box = list(kernel_box(image.n, image.q))
    return all(
        tuple(sum(map(mul, row, coords)) % k for row, k in zip(m, moduli)) == acted
        for coords, actions in zip(box, kernel_actions(image, box))
        for m, acted in zip(mats, actions)
    )


# tau = () at d = 2; (1 2) at d = 3, where tau's degree is below d;
# (1 2 3) at d = 3; (1 2)(3 4 5) at d = 5, where q = 6
FLAT_CASES = [("()", 2), ("(1 2)", 3), ("(1 2 3)", 3), ("(1 2)(3 4 5)", 5)]


class TestFlatEncoding:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("tau,d", FLAT_CASES)
    def test_realize_matches_products(self, tau, d, n):
        tau = perm(tau)
        q = tau.order()
        for exps in product(range(q), repeat=n):
            g = realize(exps, tau, d)
            assert g == realize_by_products(exps, tau, d)
            assert g.degree == n * d
            assert exponent_vector(g, tau, d, n) == exps

    @pytest.mark.parametrize("tau,d", FLAT_CASES)
    def test_realize_reduces_exponents(self, tau, d):
        tau = perm(tau)
        q = tau.order()
        for exps in [(q, -1, 2 * q + 1), (-q - 1, 3 * q, -2), (-1, -1, -1)]:
            g = realize(exps, tau, d)
            assert g == realize_by_products(exps, tau, d)
            assert g == realize([e % q for e in exps], tau, d)
            assert exponent_vector(g, tau, d, 3) == tuple(e % q for e in exps)

    def test_degree_above_block_product_with_fixed_tail(self):
        tau = perm("(1 2)(3 4 5)")
        g = realize((1, 5, 2), tau, 5)
        padded = Permutation(g.images + (16, 17, 18))
        assert exponent_vector(padded, tau, 5, 3) == (1, 5, 2)

    def test_degree_below_block_product(self):
        tau = perm("(1 2 3)")
        assert exponent_vector(tau, tau, 3, 4) == (1, 0, 0, 0)
        assert exponent_vector(tau.shift(3), tau, 3, 4) == (0, 1, 0, 0)

    def test_rejects_points_beyond_the_blocks(self):
        tau = perm("(1 2 3)")
        with pytest.raises(ValueError, match=r"moves points beyond \[1, 9\]"):
            exponent_vector(realize((1, 1, 1, 1), tau, 3), tau, 3, 3)
        with pytest.raises(ValueError, match=r"moves points beyond \[1, 9\]"):
            exponent_vector(perm("(9 10)"), tau, 3, 3)

    def test_rejects_blocks_outside_the_powers(self):
        tau = perm("(1 2)(3 4 5)")
        not_a_power = "block {} is not a power of the base permutation"
        with pytest.raises(ValueError, match=not_a_power.format(2)):
            exponent_vector(perm("(6 8)"), tau, 5, 3)  # (1 3) in block 2
        with pytest.raises(ValueError, match=not_a_power.format(3)):
            exponent_vector(perm("(11 12 13)"), tau, 5, 3)  # (1 2 3) in block 3
        with pytest.raises(ValueError, match=not_a_power.format(1)):
            exponent_vector(perm("(5 6)"), tau, 5, 3)  # crosses blocks 1 and 2


class TestExponentVectors:
    def test_block_pair(self):
        tau = perm("(1 2)")
        g = tau * tau.shift(2)
        assert exponent_vector(g, tau, 2, 3) == (1, 1, 0)

    def test_identity(self):
        assert exponent_vector(Permutation.identity(), perm("(1 2)"), 2, 3) == (0, 0, 0)

    def test_adjacent_conjugate(self):
        image = image_for(perm("(1 2)"), 2, 3)
        a, b = image.generators
        g = a * (b * b) * a.inverse()
        assert exponent_vector(g, image.tau, 2, 3) == (1, 0, 1)

    def test_realize_roundtrip(self):
        tau = perm("(1 2 3)")
        for entries in [(0, 0, 0), (1, 2, 0), (2, 2, 2), (0, 1, 2)]:
            g = realize(entries, tau, 3)
            assert exponent_vector(g, tau, 3, 3) == entries

    def test_rejects_outsiders(self):
        tau = perm("(1 2)")
        with pytest.raises(ValueError):
            exponent_vector(perm("(1 3)"), tau, 2, 3)  # block not preserved
        with pytest.raises(ValueError):
            exponent_vector(perm("(1 2)(3 4)(5 6)(7 8)"), tau, 2, 3)  # beyond range
        with pytest.raises(ValueError):
            # block restriction is not a power of tau
            exponent_vector(perm("(1 2)"), perm("(1 2 3)"), 3, 2)


class TestLatticeIdentities:
    def test_g_in_terms_of_f_and_h(self):
        for n in (3, 4, 5):
            for r in range(1, n - 1):
                lhs = g_vector(n, r)
                h = tuple(2 * (j == r + 1) for j in range(1, n + 1))
                rhs = tuple(a + b - c for a, b, c in zip(f_vector(n, r), f_vector(n, r + 1), h))
                assert lhs == rhs

    def test_h_sum(self):
        for n in (3, 4, 5):
            for r in range(1, n):
                h_r = tuple(2 * (j == r) for j in range(1, n + 1))
                h_r1 = tuple(2 * (j == r + 1) for j in range(1, n + 1))
                lhs = tuple(a + b for a, b in zip(h_r, h_r1))
                assert lhs == tuple(2 * v for v in f_vector(n, r))

    def test_basis_determinant(self):
        # the basis (f_1, ..., f_(n-1), h_n) spans a sublattice of index 2
        for n in (3, 4, 5, 6):
            h_n = tuple(2 * (j == n) for j in range(1, n + 1))
            rows = [f_vector(n, i) for i in range(1, n)] + [h_n]
            for q in (2, 4, 6):
                assert lattice._Span(rows, q, n).order() == q**n // 2


def closure(vectors, n, q):
    """The subgroup of (Z/q)^n generated by vectors, by breadth-first closure."""
    zero = (0,) * n
    elems = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for v in vectors:
            y = tuple((a + b) % q for a, b in zip(x, v))
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    return elems


def span_cases():
    """(vectors, n, q) for q <= 6, n <= 5: no vector, the adjacent and skip
    sums for n >= 3, and three seeded draws of up to four vectors with
    entries in [-7, 7]."""
    rng = random.Random(5)
    for q in range(1, 7):
        for n in range(1, 6):
            yield [], n, q
            if n >= 3:
                sums = [f_vector(n, i) for i in range(1, n)]
                yield sums + [g_vector(n, r) for r in range(1, n - 1)], n, q
            for _ in range(3):
                count = rng.randint(1, 4)
                yield [[rng.randint(-7, 7) for _ in range(n)] for _ in range(count)], n, q


class TestSpan:
    def test_order_membership_and_elements_against_closure(self):
        for vectors, n, q in span_cases():
            span = lattice._Span(vectors, q, n)
            elems = closure([[x % q for x in v] for v in vectors], n, q)
            assert span.order() == len(elems)
            listed = span.elements()
            assert len(listed) == len(set(listed)) and set(listed) == elems
            assert all((v in span) == (v in elems) for v in product(range(q), repeat=n))

    def test_membership_reduces_mod_q(self):
        span = lattice._Span([(1, 1, 0)], 4, 3)
        assert (5, -3, 8) in span and (1, 0, 0) not in span
        assert span.order() == 4

    def test_echelon_rows(self):
        """Row j is zero before column j, with a pivot dividing q."""
        for vectors, n, q in span_cases():
            rows = lattice._Span(vectors, q, n).rows
            for j, row in enumerate(rows):
                assert not any(row[:j]) and 0 < row[j] and q % row[j] == 0


class TestSpansCoordinates:
    def test_verdict_against_closure(self):
        """True exactly when the closure of the vectors is the image of
        c -> c_1 f_1 + ... + c_(n-1) f_(n-1) + c_n h_n, c_n mod q2, and has
        q^(n-1) * q2 elements."""
        verdicts = []
        for vectors, n, q in span_cases():
            if n < 2:
                continue
            q2 = q2_of(q)
            h_n = tuple(2 * (j == n) for j in range(1, n + 1))
            basis = [f_vector(n, i) for i in range(1, n)] + [h_n]
            image = {
                tuple(sum(map(mul, c, col)) % q for col in zip(*basis))
                for c in product(*[range(q)] * (n - 1), range(q2))
            }
            elems = closure([[x % q for x in v] for v in vectors], n, q)
            verdict = lattice._spans_coordinates(lattice._Span(vectors, q, n), vectors)
            assert verdict == (elems == image and len(elems) == q ** (n - 1) * q2)
            verdicts.append(verdict)
        assert True in verdicts and False in verdicts


def brute_structure(vectors, n, q):
    """Invariant factors of the subgroup of (Z/q)^n generated by vectors,
    found by closure and order-counting, independently of the echelon-form
    certificate."""
    elems = closure(vectors, n, q)
    size = len(elems)
    divisors = [e for e in range(1, q + 1) if q % e == 0]
    counts = {e: sum(1 for x in elems if all(a * e % q == 0 for a in x)) for e in divisors}
    candidates = set()
    for r in range(n + 1):
        for combo in combinations_with_replacement([e for e in divisors if e > 1], r):
            if math.prod(combo) != size:
                continue
            if all(
                math.prod(math.gcd(e, f) for f in combo) == counts[e] for e in divisors
            ):
                candidates.add(tuple(sorted(combo)))
    assert len(candidates) == 1
    return candidates.pop()


class TestKernelStructure:
    def test_examples(self):
        assert kernel_structure(3, 2).invariant_factors == (2, 2)
        assert kernel_structure(3, 3).invariant_factors == (3, 3, 3)
        assert kernel_structure(3, 1).invariant_factors == ()
        assert kernel_structure(4, 4).invariant_factors == (2, 4, 4, 4)

    def test_matches_expected_formula(self):
        for n in (3, 4, 5):
            for q in range(1, 7):
                assert kernel_structure(n, q) == expected_kernel_structure(n, q)

    def test_against_brute_force(self):
        for n in (3, 4, 5):
            for q in range(1, 9):
                if q**n > 4096:
                    continue
                vectors = [f_vector(n, i) for i in range(1, n)]
                vectors += [g_vector(n, r) for r in range(1, n - 1)]
                assert kernel_structure(n, q).invariant_factors == brute_structure(
                    vectors, n, q
                )

    def test_order(self):
        assert kernel_structure(4, 4).order == 4**3 * 2

    def test_none_without_the_skip_sums(self, monkeypatch):
        # mod 2 the adjacent sums alone span the lattice; mod 3 they do not
        monkeypatch.setattr(lattice, "g_vector", lambda n, r: (0,) * n)
        assert kernel_structure(4, 2) == expected_kernel_structure(4, 2)
        assert kernel_structure(4, 3) is None

    def test_structure_validation(self):
        with pytest.raises(ValueError):
            AbelianStructure((2, 3))
        with pytest.raises(ValueError):
            AbelianStructure((1, 2))
        assert normalize_factors([1, 4, 2, 1]) == (2, 4)


class TestParametrization:
    def test_unit_coordinate_gives_generator_square(self):
        tau = perm("(1 2)")
        image = image_for(tau, 2, 3)
        first = image.generators[0]
        assert parametrize((1, 0, 0), tau, 2) == first * first

    def test_zero_is_identity(self):
        assert parametrize((0, 0, 0), perm("(1 2)"), 2) == Permutation.identity()

    def test_image_size(self):
        tau = perm("(1 2)")
        images = {parametrize(c, tau, 2).canonical() for c in kernel_box(3, 2)}
        assert len(images) == 4

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("tau,d", FLAT_CASES)
    def test_matches_products_of_basis_powers(self, tau, d, n):
        tau = perm(tau)
        for coords in kernel_box(n, tau.order()):
            assert parametrize(coords, tau, d) == parametrize_by_products(coords, tau, d)

    def test_box_size(self):
        assert len(list(kernel_box(3, 2))) == 4
        assert len(list(kernel_box(4, 3))) == 81
        assert len(list(kernel_box(3, 4))) == 32

    def test_coords_roundtrip(self):
        for q in (1, 2, 3, 4):
            for coords in kernel_box(3, q):
                exps = (
                    coords[0],
                    coords[0] + coords[1],
                    coords[1] + 2 * coords[2],
                )
                assert coords_from_exponents(tuple(e % q for e in exps), q) == coords

    def test_unsolvable_rejected(self):
        with pytest.raises(ValueError):
            coords_from_exponents((0, 0, 1), 2)


# prop-3.11 cross-check cases with q = 2, 4, 3 and 6: q2 = 1, 2, 3 and 3
CHECK_CASES = [("(1 2)", 2, 3), ("(1 2 3 4)", 4, 3), ("(1 2 3)", 3, 4), ("(1 2)(3 4 5)", 5, 3)]


class TestMonodromy:
    def test_matrices_match_formulas(self):
        image = image_for(perm("(1 2)"), 2, 3)
        mats = monodromy_matrices(image)
        assert mats[0] == expected_monodromy_matrix(1, 3, 2)
        assert mats[1] == expected_monodromy_matrix(2, 3, 2)

    def test_adjacent_image_is_skip_vector(self):
        # f_1 is fixed and f_2 maps to g_1 = f_1 - f_2 + h_3, reduced in
        # rows mod (q, q, q2) = (2, 2, 1)
        mat = expected_monodromy_matrix(1, 3, 2)
        assert [row[0] for row in mat] == [1, 0, 0]
        assert [row[1] for row in mat] == [1, 1, 0]

    def test_matrices_are_involutions(self):
        for tau, d in [(perm("(1 2)"), 2), (perm("(1 2 3)"), 3), (perm("(1 2 3 4)"), 4)]:
            image = image_for(tau, d, 4)
            ident = identity_matrix(4, image.q, image.q2)
            for mat in monodromy_matrices(image):
                assert compose_matrices(mat, mat, image.q, image.q2) == ident

    def test_action_matches_conjugation_exhaustively(self):
        for tau, d, n in [("(1 2)", 2, 3), ("(1 2 3)", 3, 4), ("(1 2)(3 4 5)", 5, 3)]:
            image = image_for(perm(tau), d, n)
            tau, q, q2 = image.tau, image.q, image.q2
            mats = monodromy_matrices(image)
            box = list(kernel_box(n, q))
            for coords, actions in zip(box, kernel_actions(image, box), strict=True):
                assert len(actions) == n - 1
                elem = parametrize_by_products(coords, tau, d)
                for s in range(1, n):
                    gen = image.generators[s - 1]
                    conj = gen * elem * gen.inverse()
                    expect = coords_from_exponents(exponent_vector(conj, tau, d, n), q)
                    assert actions[s - 1] == expect
                    acted = [
                        sum(mats[s - 1][i][j] * coords[j] for j in range(n)) for i in range(n)
                    ]
                    acted = tuple(v % (q if i < n - 1 else q2) for i, v in enumerate(acted))
                    assert acted == expect

    @pytest.mark.parametrize("tau,d,n", CHECK_CASES)
    def test_conjugation_check_sees_every_entry(self, tau, d, n):
        # changing one entry by 1 changes the action on a unit coordinate
        # whenever that coordinate and the entry's row have modulus above 1
        image = image_for(perm(tau), d, n)
        mats, kernel_gens = monodromy_matrices(image), abelian_kernel(image).generators
        assert matrices_match_conjugation(image, kernel_gens, mats)
        moduli = [image.q] * (n - 1) + [image.q2]
        changed = 0
        for s, i, j in product(range(n - 1), range(n), range(n)):
            if moduli[i] > 1 and moduli[j] > 1:
                bad = [[row[:] for row in m] for m in mats]
                bad[s][i][j] = (bad[s][i][j] + 1) % moduli[i]
                assert not matrices_match_conjugation(image, kernel_gens, bad)
                changed += 1
        assert changed > 0

    @pytest.mark.parametrize("tau,d,n", CHECK_CASES)
    def test_conjugation_check_sees_the_skip_sums(self, monkeypatch, tau, d, n):
        # the matrices are read from the unit coordinates, so a check on those
        # alone would be circular: perturb the action on the skip sum
        # e_1 + e_3 only
        image = image_for(perm(tau), d, n)
        mats, kernel_gens = monodromy_matrices(image), abelian_kernel(image).generators
        skip = coords_from_exponents(g_vector(n, 1), image.q)
        actions = kernel_actions

        def perturbed(image, coords_iter):
            coords = list(coords_iter)
            for c, acted in zip(coords, actions(image, coords)):
                if tuple(c) == skip:
                    first = acted[0]
                    acted = ((first[0] + 1) % image.q, *first[1:]), *acted[1:]
                yield acted

        assert matrices_match_conjugation(image, kernel_gens, mats)
        monkeypatch.setitem(globals(), "kernel_actions", perturbed)
        assert not matrices_match_conjugation(image, kernel_gens, mats)

    def test_actions_reject_conjugates_outside_the_block_product(self):
        # (1 3) conjugates the realization (1 2) of e_1 to (2 3), which
        # breaks block 1
        image = image_for(perm("(1 2)"), 2, 3)
        broken = dataclasses.replace(image, generators=(perm("(1 3)"), image.generators[1]))
        match = "block 1 is not a power of the base permutation"
        with pytest.raises(ValueError, match=match):
            list(kernel_actions(broken, [(1, 0, 0)]))
        with pytest.raises(ValueError, match=match):
            monodromy_matrices(broken)

    def test_kernel_sizes(self):
        for tau, d, n in [("(1 2)", 2, 3), ("(1 2)", 2, 4), ("(1 2 3)", 3, 3)]:
            image = image_for(perm(tau), d, n)
            assert monodromy_kernel(monodromy_matrices(image), image.q, image.q2) == 1

    def test_trivial_module_kernel_is_everything(self):
        for n in range(3, 7):
            image = image_for(Permutation.identity(2), 2, n)
            mats = monodromy_matrices(image)
            assert monodromy_kernel(mats, image.q, image.q2) == math.factorial(n)

    @pytest.mark.parametrize(
        "tau,d,n",
        [
            ("(1 2)", 2, 3),
            ("(1 2)", 2, 4),
            ("(1 2 3)", 3, 3),
            ("(1 2 3)", 3, 4),
            ("()", 2, 3),
            ("()", 2, 4),
        ],
    )
    def test_kernel_matches_bubble_sort_words(self, tau, d, n):
        # the kernel counted one word at a time: every permutation of the
        # blocks gets the matrix product along its bubble-sort word
        image = image_for(perm(tau), d, n)
        mats = monodromy_matrices(image)
        ident = identity_matrix(n, image.q, image.q2)
        count = 0
        for line in permutations(range(1, n + 1)):
            rebuilt, mat = Permutation.identity(n), ident
            for s in bubble_sort_word(line):
                rebuilt = Permutation.from_cycles([(s, s + 1)], n) * rebuilt
                mat = compose_matrices(mats[s - 1], mat, image.q, image.q2)
            assert rebuilt == Permutation(tuple(line))
            count += mat == ident
        assert monodromy_kernel(mats, image.q, image.q2) == count


def dense_walk(mats, n, q, q2):
    """The monodromy kernel by dense products: breadth-first over S_n along
    the adjacent transpositions, a permutation first reached as p * (s s+1)
    getting the matrix of p times matrix s."""
    ident = identity_matrix(n, q, q2)
    reached = {tuple(range(1, n + 1)): ident}
    queue = list(reached)
    for line in queue:
        for s in range(1, n):
            nxt = line[: s - 1] + (line[s], line[s - 1]) + line[s + 1:]
            if nxt not in reached:
                reached[nxt] = compose_matrices(reached[line], mats[s - 1], q, q2)
                queue.append(nxt)
    assert len(reached) == math.factorial(n)
    return sum(mat == ident for mat in reached.values())


def relations_hold(mats, n, q, q2):
    """The matrices respect the coordinate moduli, are involutions and satisfy
    the braid relations, in braid_relations_hold's form."""
    from test_groups import braid_relations_hold  # test_groups imports this module

    ident = identity_matrix(n, q, q2)
    return (
        not any(row[-1] % (q // q2) for m in mats for row in m[:-1])
        and all(compose_matrices(a, a, q, q2) == ident for a in mats)
        and braid_relations_hold(mats, lambda a, b: compose_matrices(a, b, q, q2))
    )


def dense_kernel(mats, n, q, q2):
    """monodromy_kernel's normal-subgroup certificate on dense products,
    for matrices that pass relations_hold."""
    mats = [lattice._canonical_matrix(m, q, q2) for m in mats]
    ident = identity_matrix(n, q, q2)
    if all(m == ident for m in mats):
        return math.factorial(n)
    if compose_matrices(mats[0], mats[1], q, q2) == ident:
        return math.factorial(n) // 2
    if n == 4 and compose_matrices(mats[0], mats[2], q, q2) == ident:
        return 4
    return 1


def sparse_relations_hold(mats, n, q, q2):
    """The moduli test, then _coxeter_relations_hold on the canonical columns."""
    mats = [lattice._canonical_matrix(m, q, q2) for m in mats]
    return not any(row[-1] % (q // q2) for m in mats for row in m[:-1]) and (
        lattice._coxeter_relations_hold(
            [lattice._columns(m) for m in mats], lattice._moduli(n, q, q2)
        )
    )


def sign_matrices(n, q):
    """The sign representation: every transposition goes to -I."""
    q2 = q2_of(q)
    return [[[-x for x in row] for row in identity_matrix(n, q, q2)] for _ in range(n - 1)]


def pairing_matrices(q):
    """S_4 -> S_3 on the pairings 12|34, 13|24 and 14|23 of the four blocks, as
    permutation matrices of the first three coordinates: (1 2) and (3 4) swap
    the last two pairings, and (2 3) the first two.  The kernel is V_4."""
    swap_23 = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    swap_12 = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    return [lattice._canonical_matrix(m, q, q2_of(q)) for m in (swap_23, swap_12, swap_23)]


class TestMonodromyWalk:
    """The normal-subgroup certificate of monodromy_kernel against dense_walk."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("q", range(1, 13))
    def test_matches_dense_walk(self, n, q):
        rng = random.Random(1000 * n + q)
        q2 = q2_of(q)
        stated = [expected_monodromy_matrix(s, n, q) for s in range(1, n)]

        def word(length):
            mat = identity_matrix(n, q, q2)
            for _ in range(length):
                mat = compose_matrices(mat, rng.choice(stated), q, q2)
            return mat

        def near_identity():
            # the identity with one or two columns replaced by random vectors
            cols = [list(col) for col in zip(*identity_matrix(n, q, q2))]
            for j in rng.sample(range(n), rng.randint(1, 2)):
                cols[j] = [rng.randrange(2 * q + 1) - q for _ in range(n)]
            return [list(row) for row in zip(*cols)]

        sets = [stated, stated[::-1]]
        # elements of the group the stated matrices generate: products land
        # back on the identity often, and most such sets break the relations
        sets += [[word(rng.randint(0, 4)) for _ in range(n - 1)] for _ in range(12)]
        sets += [[rng.choice(stated) for _ in range(n - 1)] for _ in range(4)]
        sets += [
            [[[rng.randrange(q) for _ in range(n)] for _ in range(n)] for _ in range(n - 1)]
            for _ in range(2)
        ]
        sets += [[near_identity() for _ in range(n - 1)] for _ in range(2)]
        counts = []
        for mats in sets:
            holds = relations_hold(mats, n, q, q2)
            assert sparse_relations_hold(mats, n, q, q2) == holds
            if holds:
                counts.append(dense_walk(mats, n, q, q2))
                assert monodromy_kernel(mats, q, q2) == dense_kernel(mats, n, q, q2) == counts[-1]
            else:
                assert monodromy_kernel(mats, q, q2) is None
        assert counts[0] == (math.factorial(n) if q == 1 else 1)
        if q > 1:
            assert len(counts) < len(sets)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 6])
    def test_each_normal_subgroup_is_a_kernel(self, n, q):
        """Representations whose kernel is 1, A_n, V_4 and S_n.  -I is the
        identity mod q <= 2, so the sign representation has kernel A_n only
        for q >= 3; every matrix is the identity mod q = 1."""
        q2, order = q2_of(q), math.factorial(n)
        reps = [
            ([expected_monodromy_matrix(s, n, q) for s in range(1, n)], 1 if q > 1 else order),
            (sign_matrices(n, q), order // 2 if q > 2 else order),
            ([identity_matrix(n, q, q2)] * (n - 1), order),
        ]
        if n == 4:
            reps.append((pairing_matrices(q), 4 if q > 1 else order))
        for mats, expected in reps:
            assert relations_hold(mats, n, q, q2)
            assert monodromy_kernel(mats, q, q2) == dense_walk(mats, n, q, q2) == expected

    def test_every_pair_of_involutions_at_q_4(self):
        """n = 3, q = 4: every pair of involutions that respect the moduli
        (rows mod 4, 4 and 2, the last column even above the last row), up to
        order, which conjugation by (1 3) swaps."""
        n, q, q2 = 3, 4, 2
        ident = identity_matrix(n, q, q2)
        rows = [list(product(range(k), repeat=n)) for k in lattice._moduli(n, q, q2)]
        involutions = []
        for m in map(list, product(*rows)):
            if m[0][2] % 2 == m[1][2] % 2 == 0 and compose_matrices(m, m, q, q2) == ident:
                involutions.append(m)
        kernels = []
        for pair in combinations_with_replacement(involutions, 2):
            kernel = monodromy_kernel(list(pair), q, q2)
            if relations_hold(list(pair), n, q, q2):
                kernels.append(kernel)
                assert kernel == dense_walk(list(pair), n, q, q2)
            else:
                assert kernel is None
        assert len(involutions) == 160
        assert sorted(set(kernels)) == [1, 3, 6]

    def test_moduli_broken(self):
        """swap's last column has an odd entry above the last row, so swap maps
        nothing of (Z/4)^2 x Z/2, and products with it need not associate:
        no homomorphism of S_n is there to read.  The certificate refuses
        such a set even where every relation holds as written."""
        q, q2 = 4, 2
        swap = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
        flip = [[0, 3, 0], [3, 0, 0], [0, 0, 1]]

        def mul(a, b):
            return compose_matrices(a, b, q, q2)

        assert mul(mul(swap, swap), flip) != mul(swap, mul(swap, flip))
        moduli = lattice._moduli(3, q, q2)
        assert lattice._coxeter_relations_hold([lattice._columns(swap)] * 2, moduli)
        assert monodromy_kernel([swap, swap], q, q2) is None


class TestSparseAgreement:
    """The sparse relation and kernel checks against the dense products."""

    @pytest.mark.parametrize("n", range(3, 13))
    def test_stated_matrices(self, n):
        for q in range(1, 13):
            q2 = q2_of(q)
            mats = [expected_monodromy_matrix(s, n, q) for s in range(1, n)]
            assert relations_hold(mats, n, q, q2) and sparse_relations_hold(mats, n, q, q2)
            kernel = monodromy_kernel(mats, q, q2)
            assert kernel == dense_kernel(mats, n, q, q2) == (math.factorial(n) if q == 1 else 1)
            if n <= 5:
                assert kernel == dense_walk(mats, n, q, q2)

    def test_every_single_entry_mutant_is_refused(self):
        """Changing one entry of one stated matrix by 1, in a row and a column
        of modulus above 1, breaks the moduli or a relation."""
        mutants = 0
        for n, q in product(range(3, 8), range(2, 13)):
            q2 = q2_of(q)
            moduli = lattice._moduli(n, q, q2)
            mats = [expected_monodromy_matrix(s, n, q) for s in range(1, n)]
            for s, i, j in product(range(n - 1), range(n), range(n)):
                if moduli[i] > 1 and moduli[j] > 1:
                    bad = [[row[:] for row in m] for m in mats]
                    bad[s][i][j] = (bad[s][i][j] + 1) % moduli[i]
                    assert monodromy_kernel(bad, q, q2) is None, (n, q, s, i, j)
                    mutants += 1
        assert mutants == 6840


class TestKernelLattice:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
    def test_on_the_adjacent_and_skip_sums(self, n, q):
        """Every fact holds, the matrices are the stated ones, and
        (1, 0, ..., 0) lies outside the span exactly for even q."""
        kl = kernel_lattice(lattice._kernel_vectors(n), q, n)
        assert kl.span.order() == q ** (n - 1) * q2_of(q)
        assert kl.orders_hold and kl.parametrized and kl.actions_match
        assert kl.outside == (q % 2 == 0)
        assert kl.matrices == [expected_monodromy_matrix(s, n, q) for s in range(1, n)]

    @pytest.mark.parametrize("q", [2, 4, 6])
    def test_a_span_not_closed_under_the_swaps_fails_the_orders(self, q):
        """(2, 0, 0, 0), e_2, e_3 and e_4 span q^4 / 2 elements, as A does, but
        the first swap takes e_2 to e_1, outside the span."""
        units = [tuple(int(i == j) for i in range(4)) for j in range(4)]
        kl = kernel_lattice([(2, 0, 0, 0), *units[1:]], q, 4)
        assert kl.span.order() == q**4 // 2
        assert not kl.orders_hold and not kl.parametrized

    def test_a_vector_without_coordinates_fails_the_actions(self):
        vectors = [*lattice._kernel_vectors(4), (1, 0, 0, 0)]
        kl = kernel_lattice(vectors, 2, 4)
        assert not kl.actions_match and not kl.orders_hold

    @pytest.mark.parametrize("n,q", [(3, 2), (3, 4), (4, 3), (3, 6)])
    def test_the_action_check_sees_every_entry(self, n, q):
        """Changing one entry by 1 changes the action on some generator's
        coordinates whenever the entry's row and column have modulus above 1."""
        vectors = lattice._kernel_vectors(n)
        mats = kernel_lattice(vectors, q, n).matrices
        assert lattice._swap_actions_match(vectors, mats, q)
        moduli = lattice._moduli(n, q, q2_of(q))
        changed = 0
        for s, i, j in product(range(n - 1), range(n), range(n)):
            if moduli[i] > 1 and moduli[j] > 1:
                bad = [[row[:] for row in m] for m in mats]
                bad[s][i][j] = (bad[s][i][j] + 1) % moduli[i]
                assert not lattice._swap_actions_match(vectors, bad, q)
                changed += 1
        assert changed > 0


class TestMonodromyBudget:
    def test_normality_reduces_only_new_swaps(self, monkeypatch):
        """A swapped generator vector equal to a given one needs no reduction:
        at n = 30 the lattice makes 142 span memberships, 2n - 6 = 54 of them
        for the normality test, where reducing every swap made 1,741."""
        calls = []
        contains = lattice._Span.__contains__

        def counting(span, vector):
            calls.append(vector)
            return contains(span, vector)

        monkeypatch.setattr(lattice._Span, "__contains__", counting)
        kl = kernel_lattice(lattice._kernel_vectors(30), 4, 30)
        assert kl.orders_hold and kl.parametrized and kl.actions_match and kl.outside
        assert len(calls) == 142


    def test_no_dense_products_or_permutation_round_trips(self, monkeypatch):
        """The lattices of every (n, q) on d <= 3, n <= 4 read their matrices
        as coordinate swaps without one matrix product, and they are the
        matrices conjugation gives at degree n * d on every case."""
        session = Session(RunConfig())
        images = [
            braid_image(_trusted(case.sigma), d, n)
            for d in (2, 3)
            for case in session.pool(d)
            for n in (3, 4)
        ]
        # the module forms no matrix product: its only matrix operation is
        # _apply, sparse columns on a sparse vector; work counts its
        # multiply-adds
        assert not hasattr(lattice, "compose_matrices")
        work = []
        apply = lattice._apply

        def counting(cols, v, moduli):
            assert isinstance(v, dict)
            work.append(sum(len(cols[j]) for j in v))
            return apply(cols, v, moduli)

        monkeypatch.setattr(lattice, "_apply", counting)
        lattices = {
            (n, q): kernel_lattice(lattice._kernel_vectors(n), q, n)
            for n in (3, 4)
            for q in (1, 2, 3)
        }
        for image in images:
            mats = lattices[image.n, image.q].matrices
            assert monodromy_matrices(image) == mats
            assert matrices_match_conjugation(image, abelian_kernel(image).generators, mats)
        assert len(images) > 40
        # at n = 8 the relation and kernel checks make fewer multiply-adds
        # than n - 1 dense products of 8^3 each, where dense checks form up
        # to n^2 - n + 1 = 57 products and a walk over S_8 makes 40,319
        for tau in ("(1 2)", "(1 2 3)"):
            image = image_for(perm(tau), 3, 8)
            mats = kernel_lattice(lattice._kernel_vectors(8), image.q, 8).matrices
            assert monodromy_matrices(image) == mats
            work.clear()
            assert monodromy_kernel(mats, image.q, image.q2) == 1
            assert 0 < sum(work) < 7 * 8**3

    def test_relation_check_skips_the_units_a_word_fixes(self, monkeypatch):
        """Each stated M_s moves at most three columns, so at n = 30 most
        units are fixed by every matrix of a relation word, and they are not
        applied.  For q = 3, monodromy_kernel makes 6,615 _apply calls.
        Applying every unit makes 52,144: 30 * 1,738 for the 1,738 matrices
        of the 435 relation words, and 4 for the kernel checks, which stop at
        the first unit moved.  At q = 1 every unit is the zero vector, which
        is not applied, against 30 * (1,738 + 29) = 53,010 calls.  The
        verdicts are the same either way."""

        def fixes_every_unit(word, moduli):
            for j, k in enumerate(moduli):
                unit = v = {j: 1} if k > 1 else {}
                for cols in reversed(word):
                    v = lattice._apply(cols, v, moduli)
                if v != unit:
                    return False
            return True

        calls = []
        apply = lattice._apply

        def counting(cols, v, moduli):
            calls.append(v)
            return apply(cols, v, moduli)

        lattices = {q: kernel_lattice(lattice._kernel_vectors(30), q, 30) for q in (1, 3)}
        monkeypatch.setattr(lattice, "_apply", counting)
        counts = {}
        for q, kl in lattices.items():
            calls.clear()
            kernel = monodromy_kernel(kl.matrices, q, q2_of(q))
            counts[q] = len(calls)
            with monkeypatch.context() as m:
                m.setattr(lattice, "_fixes_units", fixes_every_unit)
                calls.clear()
                assert monodromy_kernel(kl.matrices, q, q2_of(q)) == kernel
                counts[q, "every unit"] = len(calls)
        assert counts == {1: 0, (1, "every unit"): 53010, 3: 6615, (3, "every unit"): 52144}
