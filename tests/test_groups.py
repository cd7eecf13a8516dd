import dataclasses
import itertools
import math
import operator
import random

import pytest
from hypothesis import given, strategies as st

from braidperm import groups, lattice
from braidperm.claims import RunConfig, Session
from braidperm.groups import (
    BraidImage,
    GeneratedGroup,
    _block_split,
    abelian_kernel,
    braid_image,
    case_certificate,
    complement_count,
    cyclic_group,
    gap_generators,
    schreier_sims,
    split_complement,
    symmetric_group,
    tower,
    tower_certificate,
    transitivity_report,
)
from braidperm.lattice import expected_monodromy_matrix
from braidperm.oracles import enumerate_shuffles
from braidperm.perm import Permutation, _compose, _invert, _padded, _trusted
from braidperm.shuffle import ShuffleSpec, build_shuffle, components, iter_specs
from test_lattice import compose_matrices, realize_images
from test_perm import block_swap
from test_shuffle import coset


def perm(text):
    return Permutation.parse(text)


def image_for(tau_text, d, n, u_map=None, choices=None):
    tau = Permutation.parse(tau_text) if tau_text else Permutation.identity(d)
    spec = ShuffleSpec.make(tau, d, u_map, choices)
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


def chains(image):
    """The kernel of image with the chains of the whole group and of the kernel."""
    kernel = abelian_kernel(image)
    return kernel, schreier_sims(image.group()), schreier_sims(kernel)


def grid_groups(slices):
    """Every braid image and abelian kernel for each (d, ns) in slices."""
    groups = []
    for d, ns in slices:
        for tau in schreier_sims(symmetric_group(d)).elements():
            for sigma in enumerate_shuffles(d, tau).elements:
                for n in ns:
                    image = braid_image(sigma, d, n)
                    groups += [image.group(), abelian_kernel(image)]
    return groups


def assert_chain_matches_closure(group):
    """Order, element set and membership of every element of the closure."""
    bs = schreier_sims(group)
    closure = brute_elements(group.generators, group.degree)
    assert bs.order() == len(closure)
    assert set(bs.elements()) == closure
    assert all(g in bs for g in closure)


@pytest.fixture(scope="module")
def golden_grid_groups():
    """Every braid image and abelian kernel of the golden reports' grids:
    d <= 3 with n <= 4, and d = 4 with n = 3."""
    return grid_groups(((2, (3, 4)), (3, (3, 4)), (4, (3,))))


# prop-3.30's and cor-3.31's orbit analysis at degree n*d, from before
# tower_certificate and transitivity_report decided it per case at degree 2d
# and per (case, n) on sigma's image tuple: kept as references the new
# verdicts are compared with case by case


def orbit(points, group):
    """Closure of a point set under all generators."""
    seen = set(points)
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for g in group.generators:
            y = g(x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def orbits_partition(group):
    """Orbits on [1, degree], sorted by least point."""
    out = []
    remaining = set(range(1, group.degree + 1))
    while remaining:
        o = orbit([min(remaining)], group)
        out.append(o)
        remaining -= o
    return out


@dataclasses.dataclass(frozen=True)
class TransitivityClass:
    """Orbit analysis of a braid image against its u-orbit block towers."""

    transitive: bool
    u_long_cycle: bool
    orbits_match: bool
    restrictions_match: bool
    subdirect: bool


def transitivity_reference(image, spec):
    """The orbit partition against the towers over the u-orbits, and the
    generators against the shifted component factors, at degree n * d."""
    orbits = orbits_partition(image.group())
    comps = components(spec)
    towers = [tower(c.points, image.d, image.n) for c in comps]
    restrictions_match = on_towers = True
    for comp, y in zip(comps, towers):
        local = tuple(comp.factor.shift((s - 1) * image.d) for s in range(1, image.n))
        on_towers = on_towers and all(y.issuperset(h.support()) for h in local)
        restrictions_match = restrictions_match and all(
            g(x) == h(x) for g, h in zip(image.generators, local) for x in y
        )
    partition = sorted(x for y in towers for x in y) == list(range(1, image.n * image.d + 1))
    return TransitivityClass(
        transitive=len(orbits) == 1,
        u_long_cycle=len(spec.orbits()) == 1,
        orbits_match=set(orbits) == set(towers),
        restrictions_match=restrictions_match,
        subdirect=restrictions_match and partition and on_towers,
    )


def towers_of(sigma, spec):
    """tower_certificate of the Permutation sigma, on its image tuple of
    degree 2d and spec.tau's of degree d."""
    return tower_certificate(_padded(sigma, 2 * spec.d), _padded(spec.tau, spec.d), spec)


def transitivity(sigma, spec, n):
    """The new verdicts in the reference's form: the tower facts per case,
    the orbits per (case, n) from the union-find, which the tower
    certificate's orbit verdict must equal where its premise holds, and the
    cycle map's orbit count, as the claims read them."""
    towers = towers_of(sigma, spec)
    trep = transitivity_report(_padded(sigma, 2 * spec.d), spec.d, n, towers.points)
    assert towers.orbits in (None, trep)
    return TransitivityClass(
        transitive=trep.transitive,
        u_long_cycle=len(spec.orbits()) == 1,
        orbits_match=trep.orbits_match,
        restrictions_match=towers.restrictions_match,
        subdirect=towers.subdirect,
    )


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
        draws = random.Random(8)
        non_members = 0
        for _ in range(40):
            degree = rng.randint(2, 7)
            gens = []
            for _ in range(rng.randint(1, 3)):
                imgs = list(range(1, degree + 1))
                rng.shuffle(imgs)
                gens.append(Permutation(tuple(imgs)))
            bs = schreier_sims(GeneratedGroup(degree, tuple(gens)))
            closure = brute_elements(gens, degree)
            assert bs.order() == len(closure)
            # random permutations of [1, degree]: members and non-members
            for _ in range(20):
                p = Permutation(tuple(draws.sample(range(1, degree + 1), degree)))
                assert (p in bs) == (p in closure)
                non_members += p not in closure
        assert non_members >= 200

    def test_golden_grid_against_brute_force(self, golden_grid_groups):
        assert len(golden_grid_groups) == 328
        for group in golden_grid_groups:
            assert_chain_matches_closure(group)

    def test_d4_n4_against_brute_force(self):
        groups = grid_groups(((4, (4,)),))
        assert len(groups) == 240
        assert max(schreier_sims(group).order() for group in groups) == 3072
        for group in groups:
            assert_chain_matches_closure(group)

    def test_contains_at_the_degree_edges(self):
        bs = schreier_sims(symmetric_group(3))
        # a member with a fixed tail beyond the chain degree
        assert Permutation((2, 3, 1, 4, 5)) in bs
        # moving a point beyond the degree, on its own or beside a member
        assert perm("(3 4)") not in bs
        assert perm("(1 2 3)(4 5)") not in bs
        # a member given at a lower degree than the chain
        image, _ = image_for("(1 2)", 2, 3)
        bs = schreier_sims(image.group())
        assert bs.degree == 6
        assert perm("(1 3 2 4)") in bs and perm("(1 2)(3 4)") in bs
        assert Permutation.identity() in bs and Permutation.identity(2) in bs
        assert perm("(1 2)") not in bs

    def test_golden_grid_orders_against_sympy(self, golden_grid_groups):
        pytest.importorskip("sympy")
        from sympy.combinatorics import Permutation as SympyPermutation, PermutationGroup

        for group in golden_grid_groups:
            gens = [
                SympyPermutation([g(x) - 1 for x in range(1, group.degree + 1)])
                for g in group.generators
            ]
            assert schreier_sims(group).order() == PermutationGroup(gens).order()


def split_by_products(square, d):
    """The tau of S_d with square == tau * shift(tau, d), by trying them all."""
    for images in itertools.permutations(range(1, d + 1)):
        tau = Permutation(images)
        if square == tau * tau.shift(d):
            return tau
    return None


def block_split(square, d):
    """The common block factor tau when square == tau * shift(tau, d), else
    None: _block_split on Permutations, as groups.block_split gave it."""
    tau = _block_split(_padded(square, 2 * d), d)
    return None if tau is None else _trusted(tau)


def assert_tuple_split(square, d, expected):
    found = _block_split(_padded(square, 2 * d), d)
    assert found == (None if expected is None else _padded(expected, d))


class TestBlockSplit:
    # a square of degree up to 8, which may move points above 2d, and a
    # block pair tau * shift(tau, d), which always splits
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda d: st.tuples(st.just(d), st.permutations(tuple(range(1, d + 1))))
        ),
        st.integers(min_value=0, max_value=8).flatmap(
            lambda n: st.permutations(tuple(range(1, n + 1)))
        ),
    )
    def test_tuple_routine_agrees_with_products(self, d_tau, images):
        d, tau = d_tau[0], Permutation(d_tau[1])
        for square in (Permutation(images), tau * tau.shift(d)):
            expected = split_by_products(square, d)
            assert block_split(square, d) == expected
            assert_tuple_split(square, d, expected)

    def test_tuple_routine_on_the_d3_coset(self):
        found = 0
        for sigma in coset(3):
            expected = split_by_products(sigma * sigma, 3)
            assert_tuple_split(sigma * sigma, 3, expected)
            found += expected is not None
        assert found == 18


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


# the braid relations under any product, which the run path no longer
# tests: braid_image's checks at degree 2d imply them at every n


def braid_relations_hold(gens, mul):
    """Under the product mul, adjacent triple products agree and distant
    generators commute."""
    for r, a in enumerate(gens):
        for s in range(r + 1, len(gens)):
            b = gens[s]
            if s - r == 1:
                if mul(a, mul(b, a)) != mul(b, mul(a, b)):
                    return False
            elif mul(a, b) != mul(b, a):
                return False
    return True


def transposition_sets():
    """(1 2), (2 3), (3 4), (1 3) have degrees 2, 3, 4 and 3."""
    t12, t23, t34, t13 = map(perm, ["(1 2)", "(2 3)", "(3 4)", "(1 3)"])
    return [t12, t23, t34], [t12, t34], [t12, t23, t13]


def image_tuple_sets():
    """The generators of the tau = (1 2 3), d = 3, n = 4 image, padded to 12."""
    g1, g2, g3 = (_padded(g, 12) for g in image_for("(1 2 3)", 3, 4)[0].generators)
    return [g1, g2, g3], [g1, g3], [g1, g2, _compose(g2, _compose(g1, _invert(g2)))]


def matrix_sets():
    """The stated monodromy matrices at n = 4, q = q2 = 3; each is an involution."""
    m1, m2, m3 = (expected_monodromy_matrix(s, 4, 3) for s in (1, 2, 3))
    conjugate = compose_matrices(m2, compose_matrices(m1, m2, 3, 3), 3, 3)
    return [m1, m2, m3], [m1, m3], [m1, m2, conjugate]


# product -> (generator sets, product): per product one set that satisfies
# the braid relations, one where a distant pair stands adjacent and breaks
# the adjacent relation, and one whose third generator g2 * g1 * g2^-1 braids
# with g2 but does not commute with g1
RELATION_PRODUCTS = {
    "permutations": (transposition_sets, operator.mul),
    "image-tuples": (image_tuple_sets, _compose),
    "matrices": (matrix_sets, lambda a, b: compose_matrices(a, b, 3, 3)),
}


@pytest.mark.parametrize("product", sorted(RELATION_PRODUCTS))
def test_braid_relations_under_each_product(product):
    build, mul = RELATION_PRODUCTS[product]
    holding, adjacent_broken, distant_broken = build()
    assert braid_relations_hold(holding, mul)
    assert not braid_relations_hold(adjacent_broken, mul)
    assert not braid_relations_hold(distant_broken, mul)
    assert all(braid_relations_hold(distant_broken[i:i + 2], mul) for i in range(2))


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

    def test_no_pairwise_commutation_products(self, monkeypatch):
        """The 2n - 3 generators are read into the abelian block product, so
        no pairwise commutation test of (2n - 3)^2 products is made."""
        image, _ = image_for("(1 2 3)", 3, 6)
        calls = 0
        mul = Permutation.__mul__

        def counting_mul(self, other):
            nonlocal calls
            calls += 1
            return mul(self, other)

        monkeypatch.setattr(Permutation, "__mul__", counting_mul)
        kernel = abelian_kernel(image)
        assert len(kernel.generators) == 2 * 6 - 3
        assert calls < (2 * 6 - 3) ** 2


# thm-3.4's checks at degree n*d, from before case_certificate and
# kernel_lattice decided them per case at degree 2d and per (n, q): kept as
# references the new verdicts are compared with case by case


def coxeter_lifts(gens, d):
    """Whether the image tuples gens satisfy the braid relations and
    gens[s - 1] maps the d-blocks as the transposition (s s+1)."""
    for s, g in enumerate(gens):
        swap = {s: s + 1, s + 1: s}
        if any((y - 1) // d != swap.get(x // d, x // d) for x, y in enumerate(g)):
            return False
    return braid_relations_hold(gens, _compose)


def extension_certificate(image, kernel):
    """(span, orders_hold, parametrized) for 1 -> A -> B -> S_n -> 1, where A
    is kernel and B -> S_n the action on the n blocks, read at degree n*d.
    span: A's exponent span mod q, None when A leaves the block product D.
    orders_hold: the generators pass coxeter_lifts, the span has
    q^(n-1) * q2 elements, and every g_s * k * g_s^-1 reads into D and the
    span.  parametrized: the span passes _spans_coordinates."""
    n, d, q = image.n, image.d, image.q
    lookups = lattice._block_powers(image.tau, d, n)[1]
    kernel_gens = [_padded(k, n * d) for k in kernel.generators]
    try:
        vectors = [lattice._read_exponents(k, lookups, d) for k in kernel_gens]
    except ValueError:
        return None, False, False
    span = lattice._Span(vectors, q, n)
    right_order = span.order() == q ** (n - 1) * image.q2
    gens = [_padded(g, n * d) for g in image.generators]
    try:
        normal = all(
            lattice._read_exponents(tuple([g[k[x - 1] - 1] for x in inv]), lookups, d) in span
            for g, inv in zip(gens, map(_invert, gens))
            for k in kernel_gens
        )
    except ValueError:
        normal = False
    orders_hold = right_order and normal and coxeter_lifts(gens, d)
    return span, orders_hold, lattice._spans_coordinates(span, vectors)


def twist_passes_coxeter_lifts(image):
    """split_complement's check at degree n*d, for odd q: the block shifts
    of sigma * shift(tau**(q-1), d) are involutions that pass coxeter_lifts."""
    d, degree = image.d, image.n * image.d
    eta = image.sigma * (image.tau ** (image.q - 1)).shift(d)
    padded = [_padded(eta.shift((s - 1) * d), degree) for s in range(1, image.n)]
    ident = tuple(range(1, degree + 1))
    return all(_compose(g, g) == ident for g in padded) and coxeter_lifts(padded, d)


def extension_holds(image, kernel, b, a):
    """Order and normality checks for the abelian kernel, with chain a, inside
    the full group, with chain b: the kernel order is q^(n-1) * q2, the group
    order n! times that, and the kernel lies in the group, stable under
    conjugation by every generator."""
    expected_a = image.q ** (image.n - 1) * image.q2
    degree = image.n * image.d
    pairs = [(g, _invert(g)) for g in (_padded(g, degree) for g in image.generators)]
    return (
        a.order() == expected_a
        and b.order() == math.factorial(image.n) * expected_a
        and all(k in b for k in kernel.generators)
        and all(
            _trusted(_compose(g, _compose(_padded(k, degree), inv))) in a
            for g, inv in pairs
            for k in kernel.generators
        )
    )


def complement_elements(gens, a_bsgs):
    """Elements of the group generated by the image tuples gens when it is a
    complement to the kernel chain a_bsgs: every generator is an involution,
    the braid relations hold, the order is (len(gens) + 1)!, and only the
    identity lies in a_bsgs.  Else None."""
    ident = a_bsgs._ident
    if any(_compose(g, g) != ident for g in gens) or not braid_relations_hold(gens, _compose):
        return None
    bs = schreier_sims(GeneratedGroup(a_bsgs.degree, tuple(map(Permutation, gens))))
    if bs.order() != math.factorial(len(gens) + 1):
        return None
    elements = [h.images for h in bs.elements()]
    if any(h != ident and _trusted(h) in a_bsgs for h in elements):
        return None
    return elements


def chain_split_complement(image, a_bsgs):
    """split_complement's twisted generators, checked by complement_elements
    against the kernel chain a_bsgs; None for even q."""
    if image.q % 2 == 0:
        return None
    comp = split_complement(image)
    padded = [_padded(g, a_bsgs.degree) for g in comp.generators]
    if complement_elements(padded, a_bsgs) is None:
        raise groups.SplitVerificationError("the twisted generators fail the complement checks")
    return comp


def chain_complement_search(image, a_bsgs, cap=groups.SEARCH_CAP):
    """Number of distinct complements to the kernel chain a_bsgs among the
    generator lifts, each checked by complement_elements; None over cap."""
    if a_bsgs.order() ** (image.n - 1) > cap:
        return None
    kernel_elements = [x.images for x in a_bsgs.elements()]
    ident = a_bsgs._ident
    candidates = []
    for g in (_padded(g, a_bsgs.degree) for g in image.generators):
        lifts = [_compose(g, x) for x in kernel_elements]
        candidates.append([h for h in lifts if _compose(h, h) == ident])
    found = (complement_elements(lift, a_bsgs) for lift in itertools.product(*candidates))
    return len({frozenset(elements) for elements in found if elements is not None})


def complement_search(image, span):
    """Number of complements to A, of exponent span span, or None when the
    span is not searchable, at degree n*d: every element of A realized,
    the involution lifts of each generator listed, and every tuple of them
    tested for the braid relations.  complement_count's reference."""
    if not groups._searchable(span, image.n):
        return None
    shifted = lattice._block_powers(image.tau, image.d, image.n)[0]
    kernel_elements = [realize_images(shifted, v) for v in span.elements()]
    ident = tuple(range(1, image.n * image.d + 1))
    candidates = []
    for g in (_padded(g, image.n * image.d) for g in image.generators):
        lifts = [_compose(g, x) for x in kernel_elements]
        candidates.append([h for h in lifts if _compose(h, h) == ident])
    return sum(braid_relations_hold(lift, _compose) for lift in itertools.product(*candidates))


def certificate(image):
    return extension_certificate(image, abelian_kernel(image))


def kernel_span(image):
    return certificate(image)[0]


class TestExtension:
    def test_24_is_6_times_4(self):
        image, _ = image_for("(1 2)", 2, 3)
        kernel, b, a = chains(image)
        assert extension_holds(image, kernel, b, a)
        assert b.order() == 24
        assert a.order() == 4
        span, orders_hold, parametrized = certificate(image)
        assert orders_hold and parametrized and span.order() == 4

    def test_192_is_24_times_8(self):
        image, _ = image_for("(1 2)", 2, 4)
        kernel, b, a = chains(image)
        assert extension_holds(image, kernel, b, a)
        assert (b.order(), a.order()) == (192, 8)
        span, orders_hold, parametrized = certificate(image)
        assert orders_hold and parametrized and span.order() == 8

    def test_double_transposition(self):
        image, _ = image_for("(1 2)(3 4)", 4, 3)
        kernel, b, a = chains(image)
        assert extension_holds(image, kernel, b, a)
        assert (b.order(), a.order()) == (24, 4)
        span, orders_hold, parametrized = certificate(image)
        assert orders_hold and parametrized and span.order() == 4

    def test_whole_group_chain_as_kernel_chain_fails(self):
        image, _ = image_for("(1 2)", 2, 3)
        kernel, b, _ = chains(image)
        assert not extension_holds(image, kernel, b, b)
        # the whole group's generators in place of A's leave the block product
        assert extension_certificate(image, image.group()) == (None, False, False)

    def test_trivial_kernel_fails(self):
        image, _ = image_for("(1 2)", 2, 3)
        _, b, _ = chains(image)
        trivial, _, trivial_a = chains(image_for(None, 2, 3)[0])
        assert trivial_a.order() == 1
        assert not extension_holds(image, trivial, b, trivial_a)
        span, orders_hold, parametrized = extension_certificate(image, trivial)
        assert span.order() == 1
        assert not orders_hold and not parametrized

    def test_generators_off_the_blocks_fail(self):
        """The generators in reverse order satisfy the braid relations and
        normalize A, but the first one acts on the blocks as (n-1 n), not as
        (1 2); conjugated by (1 3), which swaps the first two blocks at d = 2,
        the first acts as (2 3)."""
        image, _ = image_for("(1 2)", 2, 4)
        kernel = abelian_kernel(image)
        x = perm("(1 3)")
        faulty = [image.generators[::-1], tuple(x * g * x for g in image.generators)]
        for gens in faulty:
            assert braid_relations_hold(gens, operator.mul)
            assert not coxeter_lifts([_padded(g, 8) for g in gens], 2)
        reversed_image = dataclasses.replace(image, generators=faulty[0])
        assert extension_certificate(reversed_image, kernel)[0].order() == 8
        assert not extension_certificate(reversed_image, kernel)[1]
        assert extension_certificate(image, kernel)[1]


class TestSplitComplement:
    def test_odd_q(self):
        image, _ = image_for("(1 2 3)", 3, 3)
        _, _, kernel_bs = chains(image)
        comp = split_complement(image)
        assert comp is not None
        assert chain_split_complement(image, kernel_bs) == comp
        bs = schreier_sims(comp)
        assert bs.order() == 6
        assert all(h == Permutation.identity() or h not in kernel_bs for h in bs.elements())

    def test_q_one_complement_is_whole_group(self):
        image, _ = image_for(None, 2, 3)
        comp = split_complement(image)
        assert schreier_sims(comp).order() == 6 == schreier_sims(image.group()).order()

    def test_even_q_not_attempted(self):
        image, _ = image_for("(1 2)", 2, 3)
        assert split_complement(image) is None
        assert chain_split_complement(image, chains(image)[2]) is None

    def test_identity_lifts_have_order_one(self):
        image, _ = image_for("(1 2 3)", 3, 3)
        a = chains(image)[2]
        assert complement_elements([a._ident, a._ident], a) is None
        # the identity does not act on the blocks as (1 2)
        assert not coxeter_lifts([a._ident, a._ident], 3)

    def test_generators_that_are_not_involutions(self):
        image, _ = image_for("(1 2 3)", 3, 3)
        a = chains(image)[2]
        gens = [tuple(map(g, range(1, a.degree + 1))) for g in image.generators]
        assert complement_elements(gens, a) is None
        # a 6-cycle twice passes every other check: order 3!, braid relations,
        # and no power preserves the blocks
        six = Permutation.from_cycles([(1, 2, 3, 4, 5, 6)], a.degree).images
        assert complement_elements([six, six], a) is None
        # the untwisted generators pass the Coxeter checks, but are not involutions
        assert coxeter_lifts(gens, 3)
        untwisted = dataclasses.replace(image, tau=Permutation.identity())
        with pytest.raises(groups.SplitVerificationError):
            split_complement(untwisted)

    def test_generators_that_fail_the_braid_relation(self):
        image, _ = image_for("(1 2 3)", 3, 3)
        a = chains(image)[2]
        gens = [Permutation.from_cycles([c], a.degree).images for c in [(1, 2), (4, 5)]]
        assert complement_elements(gens, a) is None
        # (1 4), (1 7), (1 10) pass every other check at n = 4: they generate
        # the symmetric group on one point per block, but the distant pair
        # does not commute
        image, _ = image_for("(1 2 3)", 3, 4)
        a = chains(image)[2]
        gens = [Permutation.from_cycles([(1, x)], a.degree).images for x in (4, 7, 10)]
        assert complement_elements(gens, a) is None

    def test_complement_meeting_the_kernel_raises(self):
        image, _ = image_for("(1 2 3)", 3, 3)
        with pytest.raises(groups.SplitVerificationError):
            chain_split_complement(image, chains(image)[1])

    @pytest.mark.parametrize(
        "tau,d,n,count",
        [(None, 2, 3, 1), (None, 2, 4, 1), (None, 3, 3, 1), ("(1 2 3)", 3, 3, 9)],
    )
    def test_search_agrees_with_split_for_odd_q(self, tau, d, n, count):
        image, _ = image_for(tau, d, n)
        a = chains(image)[2]
        assert split_complement(image) is not None
        assert chain_complement_search(image, a) == count
        assert complement_search(image, kernel_span(image)) == count
        assert complement_count(kernel_span(image), n) == count

    def test_search_finds_complements_for_even_q_n3(self):
        image, _ = image_for("(1 2)", 2, 3)
        assert chain_complement_search(image, chains(image)[2]) == 4
        assert complement_search(image, kernel_span(image)) == 4
        assert complement_count(kernel_span(image), 3) == 4

    def test_search_finds_none_for_even_q_n4(self):
        image, _ = image_for("(1 2)", 2, 4)
        assert chain_complement_search(image, chains(image)[2]) == 0
        assert complement_search(image, kernel_span(image)) == 0
        assert complement_count(kernel_span(image), 4) == 0

    def test_search_counts_the_q6_complements_like_the_reference(self, monkeypatch):
        """At q = 6, n = 3 (d = 5, the only even q with odd q2 on the golden
        grids) |A|^2 = 108^2 is over the cap; with the cap raised both
        searches and the count give 36 complements."""
        image, _ = image_for("(1 2)(3 4 5)", 5, 3)
        a, span = chains(image)[2], kernel_span(image)
        assert a.order() == span.order() == 108
        assert complement_search(image, span) is None is complement_count(span, 3)
        monkeypatch.setattr(groups, "SEARCH_CAP", 108**2)
        assert complement_search(image, span) == 36 == chain_complement_search(image, a, 108**2)
        assert complement_count(span, 3) == 36

    def test_involution_lifts_that_break_a_braid_relation_are_not_counted(self):
        """At q = 2, n = 4 every generator has four involution lifts, 64 tuples of
        them in all, and each breaks a braid relation."""
        image, _ = image_for("(1 2)", 2, 4)
        span = kernel_span(image)
        shifted = lattice._block_powers(image.tau, 2, 4)[0]
        kernel = [realize_images(shifted, v) for v in span.elements()]
        ident = tuple(range(1, 9))
        lifts = [
            [h for h in (_compose(_padded(g, 8), x) for x in kernel) if _compose(h, h) == ident]
            for g in image.generators
        ]
        tuples = list(itertools.product(*lifts))
        assert len(tuples) == 64
        assert not any(braid_relations_hold(t, _compose) for t in tuples)
        assert complement_search(image, span) == 0 == complement_count(span, 4)

    def test_search_over_the_cap_lists_no_kernel_element(self, monkeypatch):
        image, _ = image_for("(1 2 3 4)", 4, 4)
        span = kernel_span(image)
        monkeypatch.setattr(lattice._Span, "elements", None)
        assert span.order() == 4**3 * 2
        assert span.order() ** 3 > groups.SEARCH_CAP
        assert complement_search(image, span) is None is complement_count(span, 4)


def lattice_span(n, q):
    return lattice._Span(lattice._kernel_vectors(n), q, n)


class TestComplementCount:
    # the carried even-q splitting table, with the cap raised, and beyond it
    # (each under 0.2 s): complements exactly when q = 2 mod 4 and n is odd,
    # q^(n-1) of them
    @pytest.mark.parametrize(
        "q,n,count",
        [(2, 3, 4), (2, 4, 0), (2, 5, 16), (4, 3, 0), (6, 3, 36), (4, 4, 0)]
        + [(2, 6, 0), (2, 7, 64), (4, 5, 0), (6, 4, 0), (8, 3, 0), (10, 3, 100), (12, 3, 0)],
    )
    def test_the_even_q_splitting_table(self, monkeypatch, q, n, count):
        span = lattice_span(n, q)
        if span.order() ** (n - 1) > groups.SEARCH_CAP:
            assert complement_count(span, n) is None
            monkeypatch.setattr(groups, "SEARCH_CAP", span.order() ** (n - 1))
        assert complement_count(span, n) == count

    # the acceptance grid; d = 5 at n = 3 and 4; and d = 6, n = 3, where
    # 3,600 even-q cases fit the cap
    @pytest.mark.parametrize(
        "d,n", [(d, n) for d in (2, 3, 4) for n in (3, 4)] + [(5, 3), (5, 4), (6, 3)]
    )
    def test_the_count_equals_the_degree_nd_search(self, d, n):
        """Case by case, the (n, q) count equals the search over the lifts at
        degree n * d, odd q included, and is None exactly when the search is."""
        session = Session(RunConfig(d=d, n=n))
        searched = 0
        for case in session.pool(d):
            q = case.q
            count = session.complements(n, q)
            image = braid_image(_trusted(case.sigma), d, n)
            assert complement_search(image, session.lattice(n, q).span) == count
            searched += count is not None and q % 2 == 0
        if (d, n) == (6, 3):
            assert searched == 3600

    # each fault changes the (2, 3) count, or leaves it and changes the table:
    # without f_s the involution condition a + sw_s(a) = 0 keeps two lifts
    # per generator at (2, 3), as f_1 + a + sw_1(a) = 0 does, and all four
    # pairs braid
    @pytest.mark.parametrize(
        "fault,table",
        [
            ("identity-swap", {(2, 3): 0, (2, 4): 0, (4, 3): 0}),
            ("wrong-coordinates", {(2, 3): 0, (2, 4): 0, (4, 3): 0}),
            ("dropped-f", {(2, 3): 4, (2, 4): 16, (4, 3): 32}),
        ],
    )
    def test_mutations_change_the_table(self, monkeypatch, fault, table):
        swapped = lattice._swapped
        if fault == "identity-swap":
            monkeypatch.setattr(groups, "_swapped", lambda v, s: list(v))
        elif fault == "wrong-coordinates":
            monkeypatch.setattr(groups, "_swapped", lambda v, s: swapped(v, s % (len(v) - 1) + 1))
        else:
            monkeypatch.setattr(groups, "f_vector", lambda n, s: (0,) * n)
        assert {(q, n): complement_count(lattice_span(n, q), n) for q, n in table} == table


class TestCaseCertificate:
    @pytest.mark.parametrize("d,cases", [(2, 4), (3, 18), (4, 120), (5, 840)])
    def test_the_identity_holds_on_every_shuffle(self, d, cases):
        """sigma * t_1 * sigma^-1 = t_2 by Permutation products, t_i being tau
        on block i, on all 982 shuffles with d <= 5; each certificate holds,
        passes the relations, and splits exactly for odd q."""
        pool = Session(RunConfig(d=d)).pool(d)
        for case in pool:
            sigma, tau = _trusted(case.sigma), _trusted(case.tau)
            assert sigma * tau * sigma.inverse() == tau.shift(d) and case.q == tau.order()
            certificate = case_certificate(case.sigma, case.tau, case.q, d)
            assert certificate == (True, case.q % 2 == 1, True)
        assert len(pool) == cases

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_kernel_generators_read_into_the_adjacent_and_skip_sums(self, d):
        """abelian_kernel's 2n - 3 generators, read at degree n * d, have
        exactly the vectors f_1, ..., f_(n-1), g_1, ..., g_(n-2) mod q."""
        for case in Session(RunConfig(d=d)).pool(d):
            q = case.q
            for n in range(3, 7):
                kernel = abelian_kernel(braid_image(_trusted(case.sigma), d, n))
                lookups = lattice._block_powers(_trusted(case.tau), d, n)[1]
                read = [
                    lattice._read_exponents(_padded(k, n * d), lookups, d)
                    for k in kernel.generators
                ]
                assert read == [tuple(x % q for x in v) for v in lattice._kernel_vectors(n)]

    def test_another_block_factor_fails(self):
        """A shuffle over (1 2 3) checked against (1 3 2), the identity or
        (1 2 3) on more than d points fails, however well it braids: its
        relations, which do not read tau, still hold."""
        image, _ = image_for("(1 2 3)", 3, 3)
        sigma = _padded(image.sigma, 6)
        assert case_certificate(sigma, _padded(image.tau, 3), image.q, 3) == (True, True, True)
        for other in map(perm, ("(1 3 2)", "()", "(1 2 3)(4 5)")):
            certificate = case_certificate(sigma, _padded(other, 3), other.order(), 3)
            assert certificate == (False, False, True)

    def test_a_sigma_off_the_blocks_fails(self):
        """sigma with the images of 1 and 4 exchanged maps 1 into the first block."""
        image, _ = image_for("(1 2 3)", 3, 3)
        images = list(_padded(image.sigma, 6))
        images[0], images[3] = images[3], images[0]
        certificate = case_certificate(tuple(images), _padded(image.tau, 3), image.q, 3)
        assert certificate == (False, False, False)

    def test_the_twist_check(self):
        """For q = 3 the twist sigma * shift(tau^2, 3) passes, and sigma itself,
        the twist with tau read as the identity, is not an involution."""
        image, _ = image_for("(1 2 3)", 3, 3)
        sigma, tau = _padded(image.sigma, 6), _padded(image.tau, 3)
        assert groups._twist_holds(sigma, tau, 3)
        assert not groups._twist_holds(sigma, (1, 2, 3), 3)


def pool_cases(slices):
    """(image, spec) for every Session pool case of each (d, ns) in slices."""
    session = Session(RunConfig())
    return [
        (braid_image(_trusted(case.sigma), d, n), case.spec)
        for d, ns in slices
        for case in session.pool(d)
        for n in ns
    ]


def mismatched_specs():
    """(sigma, spec) pairs at d = 2 where the spec builds another sigma; the
    last pair agrees on the first block and differs only on the second."""
    other = next(
        sp for sp in iter_specs(perm("(1 2)"), 2) if build_shuffle(sp) == perm("(1 4 2 3)")
    )
    _, swapped = image_for(None, 2, 3, u_map={1: 2, 2: 1})
    _, long_cycle = image_for("(1 2)", 2, 3)
    return [("(1 3 2 4)", other), ("(1 3)(2 4)", swapped), ("(1 3)(2 4)", long_cycle)]


def block_shifts(sigma, tau, q, d, n):
    """The BraidImage of sigma's block shifts at n >= 2, with no check of
    sigma, for transitivity_reference."""
    gens = tuple(sigma.shift(k * d) for k in range(n - 1))
    return BraidImage(sigma, d, n, tau, q, lattice.q2_of(q), gens)


def subdirect_by_orders(image, spec, b_bsgs):
    """The order test prop-3.30 used before deciding on generators: the
    generators equal the shifted component factors on every tower, and the
    order of the group, whose chain is b_bsgs, divides the product of the
    orders of the component groups, one chain per tower."""
    restrictions_match = True
    product_order = 1
    for comp in components(spec):
        y = tower(comp.points, image.d, image.n)
        local = tuple(comp.factor.shift((s - 1) * image.d) for s in range(1, image.n))
        product_order *= schreier_sims(GeneratedGroup(image.n * image.d, local)).order()
        restrictions_match = restrictions_match and all(
            g(x) == h(x) for g, h in zip(image.generators, local) for x in y
        )
    return restrictions_match and product_order % b_bsgs.order() == 0


class TestTransitivity:
    def test_long_cycle_transitive(self):
        image, spec = image_for("(1 2)", 2, 3)
        trep = transitivity(image.sigma, spec, 3)
        assert trep.transitive and trep.u_long_cycle and trep.orbits_match
        assert trep.restrictions_match and trep.subdirect

    def test_two_fixed_points_identity_map(self):
        image, spec = image_for(None, 2, 3)
        trep = transitivity(image.sigma, spec, 3)
        assert not trep.transitive
        assert trep.orbits_match
        towers = {tower(c.points, 2, 3) for c in components(spec)}
        assert towers == {frozenset({1, 3, 5}), frozenset({2, 4, 6})}

    def test_transposition_with_fixed_point(self):
        image, spec = image_for("(1 2)", 3, 3)
        trep = transitivity(image.sigma, spec, 3)
        assert set(orbits_partition(image.group())) == {
            frozenset({1, 2, 4, 5, 7, 8}),
            frozenset({3, 6, 9}),
        }
        assert trep.orbits_match and not trep.transitive

    def test_refuting_case_swapped_fixed_points(self):
        # single u-orbit of length two: the towers predict one orbit of size
        # six, the group of order six actually has two orbits of size three
        image, spec = image_for(None, 2, 3, u_map={1: 2, 2: 1})
        trep = transitivity(image.sigma, spec, 3)
        assert trep.u_long_cycle
        assert not trep.transitive
        assert not trep.orbits_match
        assert set(orbits_partition(image.group())) == {
            frozenset({1, 4, 5}),
            frozenset({2, 3, 6}),
        }
        # the true parts survive: towers are invariant and restrictions agree
        assert trep.restrictions_match and trep.subdirect

    def test_restrictions_against_restricted_groups(self):
        # the reference: restrict the generators to each tower, build the
        # chains of the restricted and the local group, compare the groups
        cases = pool_cases(((2, (3, 4)), (3, (3, 4)), (4, (3,))))
        towers_seen = 0
        for image, spec in cases:
            degree = image.n * image.d
            for comp in components(spec):
                towers_seen += 1
                y = tower(comp.points, image.d, image.n)
                assert all(g(x) in y for g in image.generators for x in y)
                restricted = tuple(
                    Permutation.from_mapping({x: g(x) for x in y}, degree)
                    for g in image.generators
                )
                local = tuple(
                    comp.factor.shift((s - 1) * image.d) for s in range(1, image.n)
                )
                bs_restricted = schreier_sims(GeneratedGroup(degree, restricted))
                bs_local = schreier_sims(GeneratedGroup(degree, local))
                assert bs_restricted.order() == bs_local.order()
                assert all(g in bs_local for g in restricted)
                assert all(g in bs_restricted for g in local)
            assert towers_of(image.sigma, spec).restrictions_match
        assert (len(cases), towers_seen) == (164, 286)

    def test_mismatched_spec_fails_restrictions(self):
        for sigma, spec in mismatched_specs():
            image = braid_image(perm(sigma), 2, 3)
            assert build_shuffle(spec) != image.sigma
            trep = transitivity(image.sigma, spec, 3)
            assert not trep.restrictions_match
            assert not trep.subdirect

    def test_subdirect_matches_order_reference(self):
        # the pool cases, and images reported against another case's spec
        cases = pool_cases(((2, (3, 4)), (3, (3, 4)), (4, (3,))))
        for sigma, spec in mismatched_specs():
            cases.append((braid_image(perm(sigma), 2, 3), spec))
        verdicts = []
        for image, spec in cases:
            subdirect = towers_of(image.sigma, spec).subdirect
            assert subdirect == subdirect_by_orders(image, spec, schreier_sims(image.group()))
            verdicts.append(subdirect)
        assert (verdicts.count(True), verdicts.count(False)) == (164, 3)

    # the acceptance grid; n = 6 at d = 3; and d = 5, n = 4, 840 cases at
    # degree 20
    @pytest.mark.parametrize(
        "d,n", [(d, n) for d in (2, 3, 4) for n in (3, 4)] + [(3, 6), (5, 4)]
    )
    def test_new_verdicts_match_the_degree_nd_reference(self, d, n):
        """Case by case, the tower facts decided at degree 2d and the orbits
        read off sigma's image tuple give what the orbit partition and the
        generators of degree n * d gave."""
        session = Session(RunConfig(d=d, n=n))
        verdicts = []
        for case in session.pool(d):
            sigma = _trusted(case.sigma)
            verdicts.append(transitivity_reference(braid_image(sigma, d, n), case.spec))
            assert transitivity(sigma, case.spec, n) == verdicts[-1]
        assert all(v.restrictions_match and v.subdirect for v in verdicts)
        assert {v.orbits_match for v in verdicts} == {True, False}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_mismatched_specs_match_the_reference(self, n):
        """Only the first sigma keeps the orbit verdict's premise under the
        other spec: its one cycle is still beta + (u(beta) + d)."""
        for sigma, spec in mismatched_specs():
            image = braid_image(perm(sigma), 2, n)
            assert transitivity(image.sigma, spec, n) == transitivity_reference(image, spec)
        verdicts = [towers_of(perm(sigma), spec).orbits for sigma, spec in mismatched_specs()]
        assert verdicts == [(True, True), None, None]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_sigmas_off_the_blocks_match_the_reference(self, n):
        """Every d = 3 shuffle with the images of 1 and 4 exchanged fails
        braid_image's checks and the orbit verdict's premise; the new
        verdicts still equal the reference's on the generator family of its
        block shifts."""
        for case in Session(RunConfig(d=3)).pool(3):
            images = list(case.sigma)
            images[0], images[3] = images[3], images[0]
            sigma = Permutation(tuple(images))
            image = block_shifts(sigma, _trusted(case.tau), case.q, 3, n)
            assert transitivity(sigma, case.spec, n) == transitivity_reference(image, case.spec)
            assert towers_of(sigma, case.spec).orbits is None

    def test_no_chain_per_tower(self, monkeypatch):
        cases = pool_cases(((2, (3, 4)), (3, (3, 4))))
        builds = []

        def counting(group):
            builds.append(group)
            return schreier_sims(group)

        monkeypatch.setattr(groups, "schreier_sims", counting)
        for image, spec in cases:
            transitivity(image.sigma, spec, image.n)
        assert builds == []

    def test_tower(self):
        assert tower({1, 2}, 2, 3) == frozenset({1, 2, 3, 4, 5, 6})


class TestOrbitVerdict:
    """The tower certificate's orbit verdict, decided once per case at
    degree 2d, against the union-find at each n (transitivity_report) and
    the orbit partition of the block shifts at degree n * d."""

    @pytest.mark.parametrize("d,ns", [(d, (2, 3, 4, 5)) for d in (2, 3, 4, 5)] + [(6, (3,))])
    def test_the_verdict_matches_the_union_find_and_the_reference(self, d, ns):
        verdicts = []
        for case in Session(RunConfig(d=d)).pool(d):
            towers = tower_certificate(case.sigma, case.tau, case.spec)
            sigma, tau = _trusted(case.sigma), _trusted(case.tau)
            for n in ns:
                assert towers.orbits == transitivity_report(case.sigma, d, n, towers.points)
                image = block_shifts(sigma, tau, case.q, d, n)
                reference = transitivity_reference(image, case.spec)
                assert towers.orbits == (reference.transitive, reference.orbits_match)
            verdicts.append(towers.orbits)
        assert None not in verdicts
        assert {transitive for transitive, _ in verdicts} == {True, False}
        assert {match for _, match in verdicts} == {True, False}

    @pytest.mark.parametrize(
        "pairing",
        [
            pytest.param(lambda u: [(b, a) for a, b in u], id="beta-with-u-inverse-beta"),
            pytest.param(lambda u: [(a, a) for a, _ in u], id="beta-with-beta"),
        ],
    )
    def test_the_premise_refuses_a_wrong_pairing(self, pairing):
        """Towers built with u^-1 instead of u, or ignoring u, must fail on
        the d = 3 cases where u is a 3-cycle: tau is the identity, and each
        cycle of sigma is {x, u(x) + 3}."""
        refused = []
        for case in Session(RunConfig(d=3)).pool(3):
            if len(case.spec.orbits()) == 1 and len(case.spec.u) == 3:
                points = tower_certificate(case.sigma, case.tau, case.spec).points
                assert groups._orbit_verdict(case.sigma, 3, case.spec.u, points) is not None
                refused.append(groups._orbit_verdict(case.sigma, 3, pairing(case.spec.u), points))
        assert refused == [None, None]


class TestGapExport:
    def test_format(self):
        image, _ = image_for("(1 2)", 2, 3)
        text = gap_generators(image.generators)
        assert text == "Group(\n  (1,3,2,4),\n  (3,5,4,6)\n);\n"

    def test_identity_generator(self):
        assert gap_generators([Permutation.identity(2)]) == "Group(\n  ()\n);\n"
