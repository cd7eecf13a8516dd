import itertools
import math
import random

import pytest

from braidperm.groups import (
    GeneratedGroup,
    abelian_kernel,
    braid_image,
    complement_search,
    cyclic_group,
    extension_report,
    gap_generators,
    orbit,
    orbits_partition,
    schreier_sims,
    split_complement,
    symmetric_group,
    tower,
    transitivity_report,
)
from braidperm.perm import Permutation, block_swap
from braidperm.shuffle import CycleMap, ShuffleSpec, build_shuffle, decompose_pair, pair_from_shuffle


def perm(text):
    return Permutation.parse(text)


def image_for(tau_text, d, n, u_map=None, choices=None):
    tau = Permutation.parse(tau_text) if tau_text else Permutation.identity(d)
    u = CycleMap.from_least_map(tau, d, u_map or {})
    spec = ShuffleSpec.make(tau, d, u, choices)
    return braid_image(build_shuffle(spec), d, n), spec


def brute_elements(gens, degree):
    seen = {Permutation.identity(degree)}
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g * x
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


class TestOrbits:
    def test_single_transposition(self):
        g = GeneratedGroup(3, (perm("(1 2)"),))
        assert orbits_partition(g) == [frozenset({1, 2}), frozenset({3})]

    def test_transitive_braid_group(self):
        image, _ = image_for("(1 2)", 2, 3)
        assert orbits_partition(image.group()) == [frozenset(range(1, 7))]

    def test_two_towers(self):
        image, _ = image_for(None, 2, 3)
        assert orbits_partition(image.group()) == [
            frozenset({1, 3, 5}),
            frozenset({2, 4, 6}),
        ]

    def test_orbit_of_set(self):
        g = GeneratedGroup(4, (perm("(1 2)"), perm("(3 4)")))
        assert orbit({1, 3}, g) == frozenset({1, 2, 3, 4})


class TestSchreierSims:
    def test_symmetric_groups(self):
        for d in range(1, 7):
            assert schreier_sims(symmetric_group(d)).order() == math.factorial(d)

    def test_block_swaps_generate_symmetric_group(self):
        for n in (2, 3, 4):
            gens = tuple(block_swap(s, 2, n) for s in range(1, n))
            bs = schreier_sims(GeneratedGroup(2 * n, gens))
            assert bs.order() == math.factorial(n)

    def test_braid_group_order(self):
        image, _ = image_for("(1 2)", 2, 3)
        assert schreier_sims(image.group()).order() == 24

    def test_membership(self):
        bs = schreier_sims(cyclic_group(perm("(1 2 3)")))
        assert perm("(1 3 2)") in bs
        assert perm("(1 2)") not in bs
        assert Permutation.identity() in bs

    def test_every_generator_is_member(self):
        image, _ = image_for("(1 2 3)", 3, 4)
        bs = schreier_sims(image.group())
        assert all(g in bs for g in image.generators)

    def test_elements_enumeration(self):
        bs = schreier_sims(symmetric_group(4))
        els = list(bs.elements())
        assert len(els) == 24 == len(set(els))
        assert set(els) == brute_elements(symmetric_group(4).generators, 4)

    def test_trivial_group(self):
        bs = schreier_sims(GeneratedGroup(3, (Permutation.identity(3),)))
        assert bs.order() == 1
        assert list(bs.elements()) == [Permutation.identity()]

    def test_against_brute_force_random(self):
        rng = random.Random(7)
        for _ in range(40):
            degree = rng.randint(2, 7)
            gens = []
            for _ in range(rng.randint(1, 3)):
                imgs = list(range(1, degree + 1))
                rng.shuffle(imgs)
                gens.append(Permutation(tuple(imgs)))
            bs = schreier_sims(GeneratedGroup(degree, tuple(gens)))
            assert bs.order() == len(brute_elements(gens, degree))


class TestBraidImage:
    def test_generators_example(self):
        image, _ = image_for("(1 2)", 2, 3)
        assert [str(g) for g in image.generators] == ["(1 3 2 4)", "(3 5 4 6)"]
        assert (image.q, image.q2) == (2, 1)

    def test_braid_relation(self):
        image, _ = image_for("(1 2)", 2, 3)
        a, b = image.generators
        assert a * b * a == b * a * b

    def test_distant_generators_commute(self):
        image, _ = image_for("(1 2)", 2, 4)
        a, _, c = image.generators
        assert a * c == c * a

    def test_rejects_non_braid_like(self):
        # theta * (1 2) * shift((1 3), 3) has non-commuting blocks
        sigma = block_swap(1, 3, 2) * perm("(1 2)") * perm("(1 3)").shift(3)
        with pytest.raises(ValueError):
            braid_image(sigma, 3, 3)

    def test_rejects_wrong_coset(self):
        with pytest.raises(ValueError):
            braid_image(perm("(1 2)"), 2, 3)

    def test_generator_squares(self):
        image, _ = image_for("(1 2 3)", 3, 4)
        pairblock = image.tau * image.tau.shift(3)
        for s, g in enumerate(image.generators, start=1):
            assert g * g == pairblock.shift((s - 1) * 3)


class TestAbelianKernel:
    def test_example_generators(self):
        image, _ = image_for("(1 2)", 2, 3)
        kernel = abelian_kernel(image)
        assert [str(g) for g in kernel.generators] == [
            "(1 2)(3 4)",
            "(3 4)(5 6)",
            "(1 2)(5 6)",
        ]
        assert schreier_sims(kernel).order() == 4

    def test_trivial_for_identity_tau(self):
        image, _ = image_for(None, 2, 3)
        assert schreier_sims(abelian_kernel(image)).order() == 1

    def test_order_27(self):
        image, _ = image_for("(1 2 3)", 3, 3)
        assert schreier_sims(abelian_kernel(image)).order() == 27


class TestExtension:
    def test_24_is_6_times_4(self):
        image, _ = image_for("(1 2)", 2, 3)
        entry = extension_report(image)
        assert entry.passed
        assert entry.witness["b_order"] == 24
        assert entry.witness["a_order"] == 4

    def test_192_is_24_times_8(self):
        image, _ = image_for("(1 2)", 2, 4)
        entry = extension_report(image)
        assert entry.passed
        assert (entry.witness["b_order"], entry.witness["a_order"]) == (192, 8)

    def test_double_transposition(self):
        image, _ = image_for("(1 2)(3 4)", 4, 3)
        entry = extension_report(image)
        assert entry.passed
        assert (entry.witness["b_order"], entry.witness["a_order"]) == (24, 4)


class TestSplitComplement:
    def test_odd_q(self):
        image, _ = image_for("(1 2 3)", 3, 3)
        comp = split_complement(image)
        assert comp is not None
        bs = schreier_sims(comp)
        assert bs.order() == 6
        kernel_bs = schreier_sims(abelian_kernel(image))
        assert all(h.is_identity() or h not in kernel_bs for h in bs.elements())

    def test_q_one_complement_is_whole_group(self):
        image, _ = image_for(None, 2, 3)
        comp = split_complement(image)
        assert schreier_sims(comp).order() == 6 == schreier_sims(image.group()).order()

    def test_even_q_not_attempted(self):
        image, _ = image_for("(1 2)", 2, 3)
        assert split_complement(image) is None

    def test_custom_twist_exponents(self):
        image, _ = image_for("(1 2 3)", 3, 3)
        comp = split_complement(image, k=1, l=1)
        assert schreier_sims(comp).order() == 6
        with pytest.raises(ValueError):
            split_complement(image, k=0, l=0)

    def test_search_finds_complements_for_even_q_n3(self):
        image, _ = image_for("(1 2)", 2, 3)
        summary = complement_search(image)
        assert summary["searched"]
        assert summary["complements_found"] == 4

    def test_search_finds_none_for_even_q_n4(self):
        image, _ = image_for("(1 2)", 2, 4)
        summary = complement_search(image)
        assert summary["searched"]
        assert summary["complements_found"] == 0


class TestTransitivity:
    def test_long_cycle_transitive(self):
        image, spec = image_for("(1 2)", 2, 3)
        trep = transitivity_report(image, spec)
        assert trep.transitive and trep.u_long_cycle and trep.orbits_match
        assert trep.restrictions_match and trep.subdirect

    def test_two_fixed_points_identity_map(self):
        image, spec = image_for(None, 2, 3)
        trep = transitivity_report(image, spec)
        assert not trep.transitive
        assert trep.orbits_match
        assert set(trep.towers) == {frozenset({1, 3, 5}), frozenset({2, 4, 6})}

    def test_transposition_with_fixed_point(self):
        image, spec = image_for("(1 2)", 3, 3)
        trep = transitivity_report(image, spec)
        assert set(trep.orbits) == {
            frozenset({1, 2, 4, 5, 7, 8}),
            frozenset({3, 6, 9}),
        }
        assert trep.orbits_match and not trep.transitive

    def test_refuting_case_swapped_fixed_points(self):
        # single u-orbit of length two: the towers predict one orbit of size
        # six, the group of order six actually has two orbits of size three
        image, spec = image_for(None, 2, 3, u_map={1: 2, 2: 1})
        trep = transitivity_report(image, spec)
        assert trep.u_long_cycle
        assert not trep.transitive
        assert not trep.orbits_match
        assert set(trep.orbits) == {frozenset({1, 4, 5}), frozenset({2, 3, 6})}
        # the true parts survive: towers are invariant and restrictions agree
        assert trep.restrictions_match and trep.subdirect

    def test_tower(self):
        assert tower({1, 2}, 2, 3) == frozenset({1, 2, 3, 4, 5, 6})


class TestGapExport:
    def test_format(self):
        image, _ = image_for("(1 2)", 2, 3)
        text = gap_generators(image.generators)
        assert text == "Group(\n  (1,3,2,4),\n  (3,5,4,6)\n);\n"

    def test_identity_generator(self):
        assert gap_generators([Permutation.identity(2)]) == "Group(\n  ()\n);\n"
