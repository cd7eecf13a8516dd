import math

import pytest

from braidperm.groups import schreier_sims, symmetric_group
from braidperm.perm import Permutation, centralizer_order
from braidperm.shuffle import (
    CycleMap,
    ShuffleSpec,
    SpecError,
    build_pair,
    build_shuffle,
    component_factors,
    decompose_pair,
    is_braid_like,
    iter_specs,
    pair_from_shuffle,
    shuffle_from_pair,
)


def perm(text):
    return Permutation.parse(text)


def all_of_sd(d):
    return sorted(schreier_sims(symmetric_group(d)).elements(), key=lambda p: p.canonical())


class TestBuildShuffle:
    def test_single_long_cycle(self):
        spec = ShuffleSpec.make(perm("(1 2)"), 2)
        assert build_shuffle(spec) == perm("(1 3 2 4)")

    def test_other_starting_point(self):
        spec = ShuffleSpec.make(perm("(1 2)"), 2, choices={1: (1, 2)})
        assert build_shuffle(spec) == perm("(1 4 2 3)")

    def test_swapped_fixed_points(self):
        tau = Permutation.identity(2)
        u = CycleMap.from_least_map(tau, 2, {1: 2, 2: 1})
        spec = ShuffleSpec.make(tau, 2, u)
        assert build_shuffle(spec) == perm("(1 4)(2 3)")

    def test_maps_first_block_onto_second(self):
        for tau in all_of_sd(3):
            for spec in iter_specs(tau, 3):
                sigma = build_shuffle(spec)
                assert all(4 <= sigma(i) <= 6 for i in (1, 2, 3))

    def test_square_splits_into_blocks(self):
        for tau in all_of_sd(3):
            for spec in iter_specs(tau, 3):
                sigma = build_shuffle(spec)
                assert sigma * sigma == tau * tau.shift(3)


class TestBuildPair:
    def test_long_cycle_least_points(self):
        spec = ShuffleSpec.make(perm("(1 2)"), 2)
        pair = build_pair(spec)
        assert pair.first.is_identity()
        assert pair.second == perm("(1 2)")

    def test_swapped_fixed_points(self):
        tau = Permutation.identity(2)
        u = CycleMap.from_least_map(tau, 2, {1: 2, 2: 1})
        pair = build_pair(ShuffleSpec.make(tau, 2, u))
        assert pair.first == perm("(1 2)")
        assert pair.second == perm("(1 2)")

    def test_product_is_tau(self):
        for tau in all_of_sd(3):
            for spec in iter_specs(tau, 3):
                assert build_pair(spec).product == tau


class TestPairShuffleBridge:
    def test_example(self):
        assert shuffle_from_pair(Permutation.identity(), perm("(1 2)"), 2) == perm("(1 3 2 4)")

    def test_identity_pair_gives_swap(self):
        assert shuffle_from_pair(Permutation.identity(), Permutation.identity(), 2) == perm(
            "(1 3)(2 4)"
        )

    def test_factorization_exhaustive_d3(self):
        for tau in all_of_sd(3):
            for spec in iter_specs(tau, 3):
                pair = build_pair(spec)
                assert shuffle_from_pair(pair.first, pair.second, 3) == build_shuffle(spec)

    def test_pair_from_shuffle_reads_blocks(self):
        spec = ShuffleSpec.make(perm("(1 2)"), 2)
        sigma = build_shuffle(spec)
        pair = pair_from_shuffle(sigma, 2)
        assert (pair.first, pair.second) == (Permutation.identity(), perm("(1 2)"))
        with pytest.raises(SpecError):
            pair_from_shuffle(perm("(1 2)"), 2)


class TestBraidLike:
    def test_examples(self):
        assert is_braid_like(perm("(1 2)"), perm("(2 3)"))
        assert not is_braid_like(perm("(1 2)"), perm("(3 4)"))
        s = perm("(1 4 2)")
        assert not is_braid_like(s, s)


class TestDecompose:
    def test_examples(self):
        spec = decompose_pair(Permutation.identity(), perm("(1 2)"), 2)
        assert spec.tau == perm("(1 2)")
        assert spec.to_json_dict()["u"] == [[1, 1]]
        assert spec.choices[0][1:] == (1, 1)

        spec2 = decompose_pair(perm("(1 2)"), perm("(1 2)"), 2)
        assert spec2.tau.is_identity()
        assert spec2.to_json_dict()["u"] == [[1, 2], [2, 1]]

    def test_non_commuting_rejected(self):
        with pytest.raises(ValueError):
            decompose_pair(perm("(1 2)"), perm("(2 3)"), 3)

    def test_roundtrip_exhaustive_d3(self):
        members = all_of_sd(3)
        count = 0
        for a in members:
            for b in members:
                if a * b != b * a:
                    continue
                count += 1
                pair = build_pair(decompose_pair(a, b, 3))
                assert (pair.first, pair.second) == (a, b)
        assert count == math.factorial(3) * 3  # order times class count


class TestComponents:
    def test_two_fixed_points(self):
        spec = ShuffleSpec.make(Permutation.identity(2), 2)
        comps = component_factors(build_shuffle(spec), spec)
        assert [c.factor for c in comps] == [perm("(1 3)"), perm("(2 4)")]
        assert [sorted(c.points) for c in comps] == [[1], [2]]

    def test_single_orbit_is_whole_sigma(self):
        spec = ShuffleSpec.make(perm("(1 2 3)"), 3)
        comps = component_factors(build_shuffle(spec), spec)
        assert len(comps) == 1
        assert comps[0].factor == build_shuffle(spec)

    def test_factors_multiply_back_d3(self):
        for tau in all_of_sd(3):
            for spec in iter_specs(tau, 3):
                sigma = build_shuffle(spec)
                prod = Permutation.identity()
                supports = set()
                for comp in component_factors(sigma, spec):
                    prod = prod * comp.factor
                    assert supports.isdisjoint(comp.factor.support())
                    supports.update(comp.factor.support())
                assert prod == sigma

    def test_mismatched_sigma_rejected(self):
        spec = ShuffleSpec.make(perm("(1 2)"), 2)
        with pytest.raises(SpecError):
            component_factors(perm("(1 4 2 3)"), spec)


class TestRotationRedundancy:
    def test_rotating_both_starts_fixes_sigma(self):
        tau = perm("(1 2 3)")
        for spec in iter_specs(tau, 3):
            rotated = ShuffleSpec(
                3, tau, spec.u, tuple((a, tau(i), tau(j)) for a, i, j in spec.choices)
            )
            assert build_shuffle(rotated) == build_shuffle(spec)

    def test_distinct_count_is_centralizer_order(self):
        for tau in all_of_sd(3):
            seen = {build_shuffle(spec) for spec in iter_specs(tau, 3)}
            assert len(seen) == centralizer_order(tau.cycle_type(3))


class TestSpecValidation:
    def test_bad_choice_points(self):
        tau = perm("(1 2)")
        with pytest.raises(SpecError):
            ShuffleSpec.make(tau, 2, choices={1: (3, 1)})
        with pytest.raises(SpecError):
            ShuffleSpec.make(tau, 2, choices={1: (1, 3)})
        with pytest.raises(SpecError):
            ShuffleSpec.make(tau, 2, choices={2: (1, 1)})

    def test_cycle_map_must_preserve_length(self):
        tau = perm("(1 2)")
        with pytest.raises(SpecError):
            CycleMap.from_least_map(tau, 3, {1: 3})

    def test_json_roundtrip(self):
        tau = Permutation.identity(2)
        u = CycleMap.from_least_map(tau, 2, {1: 2, 2: 1})
        spec = ShuffleSpec.make(tau, 2, u)
        data = spec.to_json_dict()
        assert data == {
            "d": 2,
            "tau": "()",
            "u": [[1, 2], [2, 1]],
            "choices": [
                {"alpha_min": 1, "i1": 1, "j1": 2},
                {"alpha_min": 2, "i1": 2, "j1": 1},
            ],
        }
        assert ShuffleSpec.from_json_dict(data) == spec

    def test_bad_json(self):
        with pytest.raises(SpecError):
            ShuffleSpec.from_json_dict({"tau": "(1 2)"})
        with pytest.raises(SpecError):
            ShuffleSpec.from_json_dict({"d": 2, "tau": "(1 2", "u": []})
