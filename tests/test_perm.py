import math
import random
import re
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from braidperm.perm import (
    Permutation,
    _compose,
    canonical_cycle,
    centralizer_order,
    partition_count,
)

S8 = st.permutations(tuple(range(1, 9)))
UP_TO_S8 = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1)))
)


def perm(text):
    return Permutation.parse(text)


def block_swap(s, d, n):
    """The involution of [1, n*d] exchanging the s-th and (s+1)-th d-blocks
    pointwise: the reference definition of the block swap theta."""
    if d < 1 or n < 2:
        raise ValueError(f"need d >= 1 and n >= 2, got d={d}, n={n}")
    if not 1 <= s <= n - 1:
        raise ValueError(f"block index s={s} out of range [1, {n - 1}]")
    images = list(range(1, n * d + 1))
    for x in range((s - 1) * d + 1, s * d + 1):
        images[x - 1] = x + d
        images[x + d - 1] = x
    return Permutation(tuple(images))


def cycle_types(d):
    """The distinct cycle types of the permutations of [1, d]."""
    return {Permutation(images).cycle_type(d) for images in permutations(range(1, d + 1))}


class TestBasics:
    def test_validation(self):
        # every public constructor rejects a non-bijection
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))
        with pytest.raises(ValueError):
            Permutation((0, 1))
        with pytest.raises(ValueError, match="bijection"):
            Permutation.from_mapping({1: 3, 2: 3}, 3)
        with pytest.raises(ValueError):
            Permutation.from_cycles([(1, 2), (2, 3)])
        with pytest.raises(ValueError):
            Permutation.from_cycles([(1, 2, 1)])
        with pytest.raises(ValueError):
            Permutation.parse("(1 3)(3 2)")

    def test_apply_beyond_degree_is_fixed(self):
        p = perm("(1 2)")
        assert p(1) == 2 and p(2) == 1 and p(17) == 17
        with pytest.raises(ValueError):
            p(0)

    def test_equality_ignores_padding(self):
        assert Permutation((2, 1)) == Permutation((2, 1, 3, 4))
        assert hash(Permutation((2, 1))) == hash(Permutation((2, 1, 3)))
        assert Permutation.identity(5) == Permutation.identity(0)

    def test_compose_worked_example(self):
        # swap of two 2-blocks times the shifted transposition
        theta = block_swap(1, 2, 2)
        assert theta == perm("(1 3)(2 4)")
        assert theta * perm("(1 2)").shift(2) == perm("(1 3 2 4)")

    def test_compose_identity_and_inverse(self):
        p = perm("(1 4 2)(3 5)")
        assert p * Permutation.identity() == p
        assert p * p.inverse() == Permutation.identity()
        assert p.inverse() * p == Permutation.identity()

    @given(UP_TO_S8, UP_TO_S8)
    def test_product_is_pointwise_composition(self, a, b):
        # any two degrees in 0..8: the product is p(q(x)) point by point
        p, q = Permutation(tuple(a)), Permutation(tuple(b))
        n = max(p.degree, q.degree)
        assert (p * q).degree == n
        assert [(p * q)(x) for x in range(1, n + 1)] == [p(q(x)) for x in range(1, n + 1)]

    @given(UP_TO_S8, UP_TO_S8, st.integers(min_value=0, max_value=8), st.integers(-9, 9))
    def test_derived_permutations_are_bijections(self, a, b, k, e):
        # products, inverses, shifts and powers skip the bijection check that
        # the public constructors run, so check its invariant on each result
        p, q = Permutation(tuple(a)), Permutation(tuple(b))
        for r in (p * q, q * p, p.inverse(), p.shift(k), p**e, Permutation.identity(k)):
            assert sorted(r.images) == list(range(1, r.degree + 1))

    def test_powers(self):
        p = perm("(1 2 3 4)")
        assert p**0 == Permutation.identity()
        assert p**2 == perm("(1 3)(2 4)")
        assert p**-1 == p.inverse()
        assert p**5 == p
        assert p.order() == 4
        assert Permutation.identity(3).order() == 1


def shuffled(rng, degree):
    images = list(range(1, degree + 1))
    rng.shuffle(images)
    return images


class TestComposeKernel:
    """_compose gathers with itemgetter from two points up; itemgetter returns
    a scalar for one index and raises for none, so those take the list path.
    Each case checks the image tuple of a∘b against a[x - 1] for x in b."""

    @staticmethod
    def assert_composes(a, b):
        for left, right in ((a, b), (list(a), list(b)), (tuple(a), tuple(b))):
            result = _compose(left, right)
            assert type(result) is tuple
            assert result == tuple([left[x - 1] for x in right])

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_small_degrees(self, degree):
        for a in permutations(range(1, degree + 1)):
            for b in permutations(range(1, degree + 1)):
                self.assert_composes(a, b)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_bijections(self, seed):
        rng = random.Random(seed)
        for degree in range(13):
            self.assert_composes(shuffled(rng, degree), shuffled(rng, degree))

    @pytest.mark.parametrize("seed", range(4))
    def test_longer_left_operand(self, seed):
        # the shape Permutation.__mul__ passes: a covers b's images and more
        rng = random.Random(seed)
        for degree in range(13):
            for extra in (1, 3):
                a, b = shuffled(rng, degree + extra), shuffled(rng, degree)
                self.assert_composes(a, b)
                assert len(_compose(a, b)) == degree


class TestConjugation:
    def test_example(self):
        zeta = perm("(1 2)")
        assert zeta * perm("(1 3)") * zeta.inverse() == perm("(2 3)")

    def test_identity_conjugator(self):
        s = perm("(1 5 2)")
        zeta = Permutation.identity()
        assert zeta * s * zeta.inverse() == s

    @given(S8, S8)
    def test_preserves_cycle_type(self, a, b):
        zeta, sigma = Permutation(tuple(a)), Permutation(tuple(b))
        assert (zeta * sigma * zeta.inverse()).cycle_type(8) == sigma.cycle_type(8)


class TestShift:
    def test_example(self):
        assert perm("(1 2)").shift(1) == perm("(2 3)")

    def test_identity(self):
        assert Permutation.identity(4).shift(3) == Permutation.identity()

    def test_iteration_adds(self):
        p = perm("(1 3 2)")
        assert p.shift(2).shift(5) == p.shift(7)

    @given(S8, st.integers(min_value=0, max_value=5))
    def test_support_translates(self, images, k):
        p = Permutation(tuple(images))
        assert p.shift(k).support() == tuple(x + k for x in p.support())


class TestBlockSwap:
    def test_examples(self):
        assert block_swap(1, 2, 2) == perm("(1 3)(2 4)")
        assert block_swap(2, 2, 3) == perm("(3 5)(4 6)")

    def test_involution(self):
        for s, d, n in [(1, 2, 2), (2, 3, 4), (3, 1, 4)]:
            t = block_swap(s, d, n)
            assert t * t == Permutation.identity()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            block_swap(3, 2, 3)
        with pytest.raises(ValueError):
            block_swap(0, 2, 3)

    def test_presentation_relations(self):
        d, n = 2, 4
        swaps = [block_swap(s, d, n) for s in range(1, n)]
        for i, a in enumerate(swaps):
            for j in range(i + 1, len(swaps)):
                b = swaps[j]
                if j - i == 1:
                    assert a * b * a == b * a * b
                else:
                    assert a * b == b * a


class TestCycles:
    def test_decomposition_example(self):
        p = perm("(1 3 2 4)")
        assert p.cycles() == [(1, 3, 2, 4)]
        assert Permutation.from_cycles(p.cycles(), p.degree) == p

    def test_fixed_points_tracked(self):
        assert perm("(1 2)").cycles(include_fixed=True, degree=4) == [(1, 2), (3,), (4,)]

    def test_from_cycles(self):
        assert Permutation.from_cycles([(1, 2), (3, 4)]) == perm("(1 2)(3 4)")
        with pytest.raises(ValueError):
            Permutation.from_cycles([(1, 2), (2, 3)])

    def test_canonical_cycle_rotation_invariant(self):
        assert canonical_cycle((3, 1, 2)) == (1, 2, 3)
        assert canonical_cycle((2, 3, 1)) == canonical_cycle((1, 2, 3))
        with pytest.raises(ValueError):
            canonical_cycle((1, 1))

    @settings(max_examples=1000, deadline=None)
    @given(S8)
    def test_roundtrip(self, images):
        p = Permutation(tuple(images))
        assert Permutation.from_cycles(p.cycles(), p.degree) == p


class TestParsePrint:
    def test_parse_examples(self):
        assert perm("(1 3 2 4)").images == (3, 4, 2, 1)
        assert perm("()") == Permutation.identity()
        assert perm("(1, 2)(3, 4)") == perm("(1 2)(3 4)")

    def test_print_canonicalizes(self):
        assert str(perm("(2 1)(4 3)")) == "(1 2)(3 4)"
        assert str(Permutation.identity(6)) == "()"

    def test_parse_print_roundtrip(self):
        for text in ["(1 2)", "(1 3 2 4)", "(1 2)(3 4)", "()", "(2 5)(3 7 4)"]:
            assert str(Permutation.parse(str(Permutation.parse(text)))) == str(
                Permutation.parse(text)
            )

    def test_errors(self):
        for bad in ["", "1 2", "(1 2", "(1 2)(2 3)", "(0 1)", "(a b)", "(1 2) junk"]:
            with pytest.raises(ValueError):
                Permutation.parse(bad)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("(1 1)", "point 1 repeats within a cycle"),
            ("(1 2 1)", "point 1 repeats within a cycle"),
            ("(1 2)(2 3)", "point 2 appears in more than one cycle"),
        ],
    )
    def test_repeated_point_messages(self, text, message):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            Permutation.parse(text)


class TestCountingHelpers:
    def test_cycle_type(self):
        t = perm("(1 2)").cycle_type(4)
        assert t.counts == ((1, 2), (2, 1))
        assert t.degree == 4

    def test_centralizer_order_examples(self):
        assert centralizer_order(perm("(1 2)").cycle_type(2)) == 2
        assert centralizer_order(Permutation.identity(4).cycle_type(4)) == 24
        assert centralizer_order(perm("(1 2 3)").cycle_type(3)) == 3

    def test_partition_count(self):
        assert [partition_count(d) for d in range(7)] == [1, 1, 2, 3, 5, 7, 11]

    def test_partitions_enumeration_matches_count(self):
        # the cycle types of S_d are exactly the partitions of d
        for d in range(1, 7):
            assert len(cycle_types(d)) == partition_count(d)

    def test_class_equation(self):
        # summing class sizes d!/z over all cycle types recovers d!
        for d in range(1, 7):
            total = sum(math.factorial(d) // centralizer_order(t) for t in cycle_types(d))
            assert total == math.factorial(d)
