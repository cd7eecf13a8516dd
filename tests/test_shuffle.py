import math
import re

import pytest
from hypothesis import given, strategies as st

from braidperm.groups import schreier_sims, symmetric_group
from braidperm.perm import Permutation, _padded, centralizer_order
from braidperm.shuffle import (
    CommutingPair,
    Component,
    ShuffleSpec,
    SpecError,
    _is_braid_like,
    build_pair,
    build_shuffle,
    components,
    decompose_pair,
    iter_specs,
)
from test_perm import block_swap


def perm(text):
    return Permutation.parse(text)


def is_braid_like(a: Permutation, b: Permutation) -> bool:
    """True when a and b do not commute but a*b*a == b*a*b: _is_braid_like
    on both padded to the larger degree."""
    degree = max(a.degree, b.degree)
    return _is_braid_like(_padded(a, degree), _padded(b, degree))


def all_of_sd(d):
    return sorted(schreier_sims(symmetric_group(d)).elements(), key=lambda p: p.canonical())


UP_TO_S8 = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1)))
)


def cycle_through(tau, x):
    """The cycle of tau through x, least point first, by walking tau."""
    walk = [x]
    while tau(walk[-1]) != x:
        walk.append(tau(walk[-1]))
    i = walk.index(min(walk))
    return tuple(walk[i:] + walk[:i])


def braid_like_by_products(a, b):
    return a * b != b * a and a * b * a == b * a * b


def shuffle_from_pair(first, second, d):
    """swap * first * shift(second, d) by Permutation products: the reference
    for lemma-2.4's factorization, which the checker reads as (first + d)
    followed by second."""
    return block_swap(1, d, 2) * first * second.shift(d)


def coset(d):
    """Every element of swap * S_d * shift(S_d, d), by Permutation products."""
    swap = block_swap(1, d, 2)
    return [swap * w1 * w2.shift(d) for w1 in all_of_sd(d) for w2 in all_of_sd(d)]


def walk(tau, start, m):
    seq = [start]
    for _ in range(m - 1):
        seq.append(tau(seq[-1]))
    return seq


def shuffle_by_walking(spec):
    """build_shuffle by walking tau from each start, through validated from_mapping."""
    mapping = {}
    for alpha, i1, j1 in spec.choices:
        m = len(alpha)
        i_seq = walk(spec.tau, i1, m)
        j_seq = [x + spec.d for x in walk(spec.tau, j1, m)]
        for t in range(m):
            mapping[i_seq[t]] = j_seq[t]
            mapping[j_seq[t]] = i_seq[(t + 1) % m]
    return Permutation.from_mapping(mapping, 2 * spec.d)


def pair_by_walking(spec):
    """build_pair by walking tau from each start, through validated from_mapping."""
    p_map, q_map = {}, {}
    for alpha, i1, j1 in spec.choices:
        m = len(alpha)
        i_seq = walk(spec.tau, i1, m)
        j_seq = walk(spec.tau, j1, m)
        for t in range(m):
            p_map[i_seq[t]] = j_seq[t]
            q_map[j_seq[t]] = i_seq[(t + 1) % m]
    return CommutingPair(
        Permutation.from_mapping(p_map, spec.d), Permutation.from_mapping(q_map, spec.d)
    )


def components_by_walking(spec):
    """components by walking tau from each start, through validated from_mapping
    and from_cycles."""
    chosen = {alpha: (i1, j1) for alpha, i1, j1 in spec.choices}
    out = []
    for orbit in spec.orbits():
        factor_map, p_map, q_map = {}, {}, {}
        points = set()
        for alpha in orbit:
            points.update(alpha)
            i1, j1 = chosen[alpha]
            m = len(alpha)
            i_seq = walk(spec.tau, i1, m)
            j_seq = walk(spec.tau, j1, m)
            for t in range(m):
                factor_map[i_seq[t]] = j_seq[t] + spec.d
                factor_map[j_seq[t] + spec.d] = i_seq[(t + 1) % m]
                p_map[i_seq[t]] = j_seq[t]
                q_map[j_seq[t]] = i_seq[(t + 1) % m]
        swap = Permutation.from_mapping(
            {**{x: x + spec.d for x in points}, **{x + spec.d: x for x in points}},
            2 * spec.d,
        )
        out.append(
            Component(
                cycles=orbit,
                points=frozenset(points),
                factor=Permutation.from_mapping(factor_map, 2 * spec.d),
                first=Permutation.from_mapping(p_map, spec.d),
                second=Permutation.from_mapping(q_map, spec.d),
                product=Permutation.from_cycles(orbit, spec.d),
                swap=swap,
            )
        )
    return tuple(out)


class TestBuildersMatchWalkingReferences:
    """The builders rotate the spec's stored cycles and skip validation; the
    references walk tau and validate every map."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_every_spec(self, d):
        for tau in all_of_sd(d):
            for spec in iter_specs(tau, d):
                sigma, pair, comps = build_shuffle(spec), build_pair(spec), components(spec)
                assert sigma == shuffle_by_walking(spec)
                assert pair == pair_by_walking(spec)
                assert comps == components_by_walking(spec)
                assert len(sigma.images) == 2 * d
                assert len(pair.first.images) == len(pair.second.images) == d
                for comp in comps:
                    assert len(comp.factor.images) == len(comp.swap.images) == 2 * d
                    assert {len(p.images) for p in (comp.first, comp.second, comp.product)} == {d}


class TestBuildShuffle:
    def test_single_long_cycle(self):
        spec = ShuffleSpec.make(perm("(1 2)"), 2)
        assert build_shuffle(spec) == perm("(1 3 2 4)")

    def test_other_starting_point(self):
        spec = ShuffleSpec.make(perm("(1 2)"), 2, choices={1: (1, 2)})
        assert build_shuffle(spec) == perm("(1 4 2 3)")

    def test_swapped_fixed_points(self):
        tau = Permutation.identity(2)
        spec = ShuffleSpec.make(tau, 2, {1: 2, 2: 1})
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
        assert pair.first == Permutation.identity()
        assert pair.second == perm("(1 2)")

    def test_swapped_fixed_points(self):
        tau = Permutation.identity(2)
        pair = build_pair(ShuffleSpec.make(tau, 2, {1: 2, 2: 1}))
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


class TestBraidLike:
    def test_examples(self):
        assert is_braid_like(perm("(1 2)"), perm("(2 3)"))
        assert not is_braid_like(perm("(1 2)"), perm("(3 4)"))
        s = perm("(1 4 2)")
        assert not is_braid_like(s, s)

    # a random pair of mixed degrees rarely braids; conjugates of (1 2) and
    # (2 3) always do
    @given(UP_TO_S8, UP_TO_S8, UP_TO_S8)
    def test_tuple_routine_agrees_with_products(self, a, b, c):
        c = Permutation(c)
        braiding = [c * perm(t) * c.inverse() for t in ("(1 2)", "(2 3)")]
        for x, y in [(Permutation(a), Permutation(b)), braiding]:
            expected = braid_like_by_products(x, y)
            assert is_braid_like(x, y) == expected
            for degree in {max(x.degree, y.degree), 8}:
                assert _is_braid_like(_padded(x, degree), _padded(y, degree)) == expected

    def test_tuple_routine_on_the_d3_coset(self):
        found = 0
        for sigma in coset(3):
            expected = braid_like_by_products(sigma, sigma.shift(3))
            assert _is_braid_like(_padded(sigma, 9), _padded(sigma.shift(3), 9)) == expected
            found += expected
        assert found == 18


class TestDecompose:
    def test_examples(self):
        spec = decompose_pair(Permutation.identity(), perm("(1 2)"), 2)
        assert spec.tau == perm("(1 2)")
        assert spec.to_json_dict()["u"] == [[1, 1]]
        assert spec.choices[0][1:] == (1, 1)

        spec2 = decompose_pair(perm("(1 2)"), perm("(1 2)"), 2)
        assert spec2.tau == Permutation.identity()
        assert spec2.to_json_dict()["u"] == [[1, 2], [2, 1]]

    def test_non_commuting_rejected(self):
        with pytest.raises(ValueError):
            decompose_pair(perm("(1 2)"), perm("(2 3)"), 3)

    def test_points_above_d_rejected(self):
        p = perm("(1 5)")
        with pytest.raises(ValueError, match=r"pair must live on \[1, 2\]"):
            decompose_pair(p, p, 2)
        # only the second factor moves a point above d
        with pytest.raises(ValueError, match=r"pair must live on \[1, 2\]"):
            decompose_pair(Permutation.identity(2), p, 2)

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
        comps = components(spec)
        assert [c.factor for c in comps] == [perm("(1 3)"), perm("(2 4)")]
        assert [sorted(c.points) for c in comps] == [[1], [2]]

    def test_single_orbit_is_whole_sigma(self):
        spec = ShuffleSpec.make(perm("(1 2 3)"), 3)
        comps = components(spec)
        assert len(comps) == 1
        assert comps[0].factor == build_shuffle(spec)

    def test_factors_multiply_back_d3(self):
        for tau in all_of_sd(3):
            for spec in iter_specs(tau, 3):
                sigma = build_shuffle(spec)
                prod = Permutation.identity()
                supports = set()
                for comp in components(spec):
                    prod = prod * comp.factor
                    assert supports.isdisjoint(comp.factor.support())
                    supports.update(comp.factor.support())
                assert prod == sigma


class TestRotationRedundancy:
    def test_rotating_both_starts_fixes_sigma(self):
        tau = perm("(1 2 3)")
        for spec in iter_specs(tau, 3):
            rotated = ShuffleSpec(3, tau, tuple((a, tau(i), tau(j)) for a, i, j in spec.choices))
            assert build_shuffle(rotated) == build_shuffle(spec)

    def test_distinct_count_is_centralizer_order(self):
        for tau in all_of_sd(3):
            seen = {build_shuffle(spec) for spec in iter_specs(tau, 3)}
            assert len(seen) == centralizer_order(tau.cycle_type(3))


class TestSpecValidation:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_enumerated_specs_match_the_checked_constructor(self, d):
        """iter_specs skips the constructor's checks; each spec it yields is
        the one the public constructor builds and checks from its choices,
        given in reverse order, field for field."""
        for tau in all_of_sd(d):
            specs = list(iter_specs(tau, d))
            assert specs
            for spec in specs:
                checked = ShuffleSpec(d, tau, spec.choices[::-1])
                assert spec == checked and hash(spec) == hash(checked)
                assert (spec.choices, spec.u) == (checked.choices, checked.u)

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
            ShuffleSpec.make(tau, 3, {1: 3})

    def test_json_roundtrip(self):
        tau = Permutation.identity(2)
        spec = ShuffleSpec.make(tau, 2, {1: 2, 2: 1})
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

    @pytest.mark.parametrize("d", [3, 4])
    def test_cycle_map_is_read_off_the_j1s(self, d):
        for tau in all_of_sd(d):
            for spec in iter_specs(tau, d):
                assert ShuffleSpec.from_json_dict(spec.to_json_dict()) == spec
                assert spec.u == tuple(
                    (alpha, cycle_through(tau, j1)) for alpha, _, j1 in spec.choices
                )

    @pytest.mark.parametrize(
        "d,tau,choices,message",
        [
            # both fixed points start their image on 2
            (2, "()", (((1,), 1, 2), ((2,), 2, 2)),
             "cycle map must be a bijection of the cycles of tau"),
            (3, "(1 2)", (((1, 2), 1, 3), ((3,), 3, 1)),
             "cycle map sends the 2-cycle (1, 2) to the 1-cycle (3,)"),
            (2, "(1 2)", (((1, 2), 1, 3),), "starting point j1=3 is not in [1, 2]"),
            (2, "(1 2)", (((1, 2), 1, 0),), "starting point j1=0 is not in [1, 2]"),
        ],
    )
    def test_direct_spec_checks_the_derived_map(self, d, tau, choices, message):
        with pytest.raises(SpecError, match=re.escape(message)):
            ShuffleSpec(d, perm(tau), choices)

    def test_bad_json(self):
        with pytest.raises(SpecError):
            ShuffleSpec.from_json_dict({"tau": "(1 2)"})
        with pytest.raises(SpecError):
            ShuffleSpec.from_json_dict({"d": 2, "tau": "(1 2", "u": []})
