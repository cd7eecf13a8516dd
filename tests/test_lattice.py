import math
from itertools import combinations_with_replacement, permutations

import pytest

from braidperm.groups import braid_image
from braidperm.lattice import (
    AbelianStructure,
    compose_matrices,
    coords_from_exponents,
    expected_kernel_structure,
    expected_monodromy_matrix,
    exponent_vector,
    f_vector,
    g_vector,
    h_vector,
    identity_matrix,
    kernel_box,
    kernel_structure,
    monodromy_kernel,
    monodromy_matrices,
    normalize_factors,
    parametrize_kernel,
    realize,
    smith_normal_form,
)
from braidperm.perm import Permutation
from braidperm.shuffle import ShuffleSpec, build_shuffle


def perm(text):
    return Permutation.parse(text)


def image_for(tau, d, n):
    return braid_image(build_shuffle(ShuffleSpec.make(tau, d)), d, n)


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
                rhs = tuple(
                    a + b - c
                    for a, b, c in zip(f_vector(n, r), f_vector(n, r + 1), h_vector(n, r + 1))
                )
                assert lhs == rhs

    def test_h_sum(self):
        for n in (3, 4, 5):
            for r in range(1, n):
                lhs = tuple(a + b for a, b in zip(h_vector(n, r), h_vector(n, r + 1)))
                assert lhs == tuple(2 * v for v in f_vector(n, r))

    def test_basis_determinant(self):
        # the basis (f_1, ..., f_(n-1), h_n) spans a sublattice of index 2
        for n in (3, 4, 5, 6):
            rows = [f_vector(n, i) for i in range(1, n)] + [h_vector(n, n)]
            assert math.prod(smith_normal_form(rows)) == 2


class TestSmithNormalForm:
    def test_known_cases(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
        assert smith_normal_form([[1, 0], [0, 2]]) == [1, 2]
        assert smith_normal_form([[2, 4, 4]]) == [2]
        assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
        assert smith_normal_form([[1, 1, 0], [0, 1, 1], [1, 0, 1]]) == [1, 1, 2]

    def test_divisibility_chain_random(self):
        import random

        rng = random.Random(3)
        for _ in range(50):
            rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(4)]
            diag = smith_normal_form(rows)
            for x, y in zip(diag, diag[1:]):
                assert (x == 0) <= (y == 0)
                if x:
                    assert y % x == 0


def brute_structure(vectors, n, q):
    """Invariant factors of the subgroup of (Z/q)^n generated by vectors,
    found by closure and order-counting, independently of Smith normal form."""
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
        assert parametrize_kernel((1, 0, 0), tau, 2) == first * first

    def test_zero_is_identity(self):
        assert parametrize_kernel((0, 0, 0), perm("(1 2)"), 2).is_identity()

    def test_image_size(self):
        tau = perm("(1 2)")
        images = {parametrize_kernel(c, tau, 2).canonical() for c in kernel_box(3, 2)}
        assert len(images) == 4

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
        image = image_for(perm("(1 2)"), 2, 3)
        tau, q, q2, n = image.tau, image.q, image.q2, image.n
        mats = monodromy_matrices(image)
        for coords in kernel_box(n, q):
            elem = parametrize_kernel(coords, tau, 2)
            for s in range(1, n):
                gen = image.generators[s - 1]
                conj = gen * elem * gen.inverse()
                expect = coords_from_exponents(exponent_vector(conj, tau, 2, n), q)
                acted = [
                    sum(mats[s - 1][i][j] * coords[j] for j in range(n)) for i in range(n)
                ]
                acted = tuple(v % (q if i < n - 1 else q2) for i, v in enumerate(acted))
                assert acted == expect

    def test_kernel_sizes(self):
        assert monodromy_kernel(image_for(perm("(1 2)"), 2, 3)) == 1
        assert monodromy_kernel(image_for(perm("(1 2)"), 2, 4)) == 1
        assert monodromy_kernel(image_for(perm("(1 2 3)"), 3, 3)) == 1

    def test_trivial_module_kernel_is_everything(self):
        image = image_for(Permutation.identity(2), 2, 3)
        assert monodromy_kernel(image) == math.factorial(3)

    def test_word_composition_matches_permutation(self):
        # recompose the adjacent-swap word and compare with the original
        from braidperm.lattice import _adjacent_word

        for line in permutations(range(1, 5)):
            word = _adjacent_word(line)
            rebuilt = Permutation.identity(4)
            for s in word:
                rebuilt = Permutation.from_cycles([(s, s + 1)], 4) * rebuilt
            assert rebuilt == Permutation(tuple(line))
