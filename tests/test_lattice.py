import dataclasses
import math
import random
from itertools import combinations_with_replacement, permutations, product
from operator import mul

import pytest

from braidperm import claims, lattice
from braidperm.claims import RunConfig, Session
from braidperm.groups import abelian_kernel, braid_image
from braidperm.lattice import (
    AbelianStructure,
    compose_matrices,
    coords_from_exponents,
    expected_kernel_structure,
    expected_monodromy_matrix,
    f_vector,
    g_vector,
    identity_matrix,
    kernel_actions,
    kernel_structure,
    monodromy_kernel,
    monodromy_matrices,
    normalize_factors,
    q2_of,
)
from braidperm.perm import Permutation, _padded, _trusted
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


def realize(exponents, tau, d):
    """The block product as the checks build it: one image tuple from tau's
    shifted powers."""
    shifted = lattice._block_powers(tau, d, len(exponents))[0]
    return Permutation(lattice._realize(shifted, exponents))


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


def kernel_box(n, q):
    """All canonical coordinate tuples: n-1 entries mod q, the last mod q2."""
    return product(*map(range, lattice._moduli(n, q, q2_of(q))))


# thm-3.4's and prop-3.11's checks element by element, as references for the
# checks on generators


def box_parametrizes(image, a_bsgs):
    """The realized kernel box is |A| distinct elements of the chain a_bsgs."""
    shifted = lattice._block_powers(image.tau, image.d, image.n)[0]
    coords = kernel_box(image.n, image.q)
    box = [lattice._realize(shifted, lattice._kernel_exponents(c)) for c in coords]
    return len(set(box)) == len(box) == a_bsgs.order() and all(_trusted(g) in a_bsgs for g in box)


def sweep_intersects(image, b_bsgs, a_bsgs):
    """Each of the q^n block-product elements lies in the chain b_bsgs exactly
    when it lies in the chain a_bsgs."""
    shifted = lattice._block_powers(image.tau, image.d, image.n)[0]
    block_product = (lattice._realize(shifted, e) for e in product(range(image.q), repeat=image.n))
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
        assert claims._matrices_match_conjugation(image, kernel_gens, mats)
        moduli = [image.q] * (n - 1) + [image.q2]
        changed = 0
        for s, i, j in product(range(n - 1), range(n), range(n)):
            if moduli[i] > 1 and moduli[j] > 1:
                bad = [[row[:] for row in m] for m in mats]
                bad[s][i][j] = (bad[s][i][j] + 1) % moduli[i]
                assert not claims._matrices_match_conjugation(image, kernel_gens, bad)
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
        actions = claims.kernel_actions

        def perturbed(image, coords_iter):
            coords = list(coords_iter)
            for c, acted in zip(coords, actions(image, coords)):
                if tuple(c) == skip:
                    first = acted[0]
                    acted = ((first[0] + 1) % image.q, *first[1:]), *acted[1:]
                yield acted

        assert claims._matrices_match_conjugation(image, kernel_gens, mats)
        monkeypatch.setattr(claims, "kernel_actions", perturbed)
        assert not claims._matrices_match_conjugation(image, kernel_gens, mats)

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


class TestMonodromyWalk:
    """The sparse column walk of monodromy_kernel against dense_walk."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 6])
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
            counts.append(dense_walk(mats, n, q, q2))
            assert monodromy_kernel(mats, q, q2) == counts[-1]
        assert counts[0] == (math.factorial(n) if q == 1 else 1)
        if q > 1:
            assert not all(claims._matrix_relations_hold(mats, n, q, q2) for mats in sets)
            assert any(1 < c < math.factorial(n) for c in counts)


class TestMonodromyBudget:
    def test_no_dense_products_or_permutation_round_trips(self, monkeypatch):
        session = Session(RunConfig())
        cases = [
            (session.image(case, n), session.a_group(case, n), session.monodromy(case, n))
            for d in (2, 3)
            for case in session.pool(d)
            for n in (3, 4)
        ]
        calls = {"compose_matrices": 0}

        def counting(name):
            original = getattr(lattice, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in calls:
            wrapper = counting(name)
            monkeypatch.setattr(lattice, name, wrapper)
            monkeypatch.setattr(claims, name, wrapper)
        for image, kernel, mats in cases:
            expected = math.factorial(image.n) if image.q == 1 else 1
            assert monodromy_kernel(mats, image.q, image.q2) == expected
            assert claims._matrices_match_conjugation(image, kernel.generators, mats)
            assert monodromy_matrices(image) == mats
        assert len(cases) > 40
        assert calls == {"compose_matrices": 0}
