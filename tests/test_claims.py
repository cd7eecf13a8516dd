import json
import math
import random
import re
from dataclasses import replace
from itertools import product

import pytest

from braidperm import REGISTRY, RunConfig, claims, groups, lattice, run_verification
from braidperm.claims import Session
from braidperm.cli import main
from braidperm.groups import GeneratedGroup, complement_search, schreier_sims
from braidperm.oracles import EnumerationResult
from braidperm.perm import Permutation, _padded
from braidperm.shuffle import SpecError
from test_groups import chain_complement_search, chain_split_complement, extension_holds
from test_lattice import (
    box_matches_conjugation,
    box_parametrizes,
    realize_by_products,
    sweep_intersects,
)

EXPECTED_TAGS = [
    "thm-2.12",
    "lemma-2.4",
    "lemma-2.5",
    "cor-2.13",
    "prop-3.30",
    "cor-3.31",
    "lemma-3.3",
    "thm-3.4",
    "cor-3.10",
    "prop-3.11",
]


class TestRegistry:
    def test_tags(self):
        assert list(REGISTRY) == EXPECTED_TAGS

    def test_unknown_claim_rejected(self):
        with pytest.raises(ValueError):
            run_verification(RunConfig(claims=("no-such-claim",)))

    def test_range_validation(self):
        with pytest.raises(ValueError):
            run_verification(RunConfig(d=9))
        with pytest.raises(ValueError):
            run_verification(RunConfig(n=2))


class TestSmallRun:
    def test_single_claim_single_d(self):
        report = run_verification(RunConfig(d=2, n=3, claims=("thm-2.12",)))
        assert report.all_pass
        assert {e.claim for e in report.entries} == {"thm-2.12"}
        assert all(e.parameters["d"] == 2 for e in report.entries)

    def test_counts_witness(self):
        report = run_verification(RunConfig(d=2, n=3, claims=("thm-2.12",)))
        counts = [e for e in report.entries if e.parameters.get("check") == "counts"]
        assert counts[0].witness["total_roots"] == 4

    def test_refuted_claims_fail_honestly(self):
        report = run_verification(RunConfig(d=2, n=3, claims=("cor-3.31", "prop-3.30")))
        by_claim = {}
        for e in report.entries:
            by_claim.setdefault(e.claim, []).append(e)
        assert not all(e.passed for e in by_claim["cor-3.31"])
        orbit_entries = [
            e for e in by_claim["prop-3.30"] if e.parameters["check"] == "orbit-partition"
        ]
        assert orbit_entries and not any(e.passed for e in orbit_entries)
        solid = [
            e
            for e in by_claim["prop-3.30"]
            if e.parameters["check"] == "relations-and-subdirect"
        ]
        assert solid and all(e.passed for e in solid)
        # the machine-found corrected statements hold on every entry
        assert all(e.witness["finding_holds"] for e in by_claim["cor-3.31"])
        assert all(e.witness["finding_holds"] for e in orbit_entries)

    def test_verified_claims_pass(self):
        config = RunConfig(
            d_max=3,
            n_max=3,
            claims=(
                "thm-2.12",
                "lemma-2.4",
                "lemma-2.5",
                "cor-2.13",
                "lemma-3.3",
                "thm-3.4",
                "cor-3.10",
                "prop-3.11",
            ),
        )
        report = run_verification(config)
        assert report.all_pass


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        config = RunConfig(d_max=2, n_max=3, seed=7)
        first = run_verification(config).to_json()
        second = run_verification(RunConfig(d_max=2, n_max=3, seed=7)).to_json()
        assert first == second

    def test_seed_recorded(self):
        report = run_verification(RunConfig(d=2, n=3, claims=("cor-2.13",), seed=42))
        assert report.to_dict()["seed"] == 42

    def test_schema_field(self):
        report = run_verification(RunConfig(d=2, n=3, claims=("thm-2.12",)))
        data = report.to_dict()
        assert data["schema"] == 1
        assert set(data) == {"schema", "seed", "config", "claims", "all_pass"}
        for entry in data["claims"]:
            assert set(entry) == {"claim", "parameters", "witness", "pass"}


class TestLemma33:
    def test_kernel_fault_is_counted_not_raised(self, monkeypatch, tmp_path):
        def faulty_kernel(image):
            raise RuntimeError("kernel generator escapes the block product")

        monkeypatch.setattr(claims, "abelian_kernel", faulty_kernel)
        report = run_verification(RunConfig(d=2, n=3, claims=("lemma-3.3",)))
        [entry] = report.entries
        assert not entry.passed and entry.witness["failures"] == 4
        examples = entry.witness["examples"]
        assert examples and all(e.startswith("kernel ") for e in examples)
        out = tmp_path / "report.json"
        args = ["verify", "--d", "2", "--n", "3", "--claim", "lemma-3.3", "--format", "json"]
        assert main([*args, "--out", str(out)]) == 1
        [written] = json.loads(out.read_text())["claims"]
        assert written["witness"]["failures"] == 4 and not written["pass"]


def faulty_report(monkeypatch, tmp_path, name, fault, tag):
    """The report entries of tag at d = 3, n = 3 with claims.<name> replaced by
    a function raising fault; the CLI must write the report and exit 1 (a
    failed claim), not 2 or with a traceback."""

    def faulty(*args):
        raise fault

    return replaced_report(monkeypatch, tmp_path, name, faulty, tag)


def corrupted_report(monkeypatch, tmp_path, name, corrupt, tag):
    """As faulty_report, with claims.<name> returning a wrong result instead:
    corrupt applied to what the real function returns."""
    real = getattr(claims, name)
    return replaced_report(monkeypatch, tmp_path, name, lambda *args: corrupt(real(*args)), tag)


def swapped_images(p, i, j):
    """p with the images of the points i and j exchanged: another bijection."""
    images = list(p.images)
    images[i - 1], images[j - 1] = images[j - 1], images[i - 1]
    return Permutation(tuple(images))


def replaced_report(monkeypatch, tmp_path, name, replacement, tag):
    monkeypatch.setattr(claims, name, replacement)
    out = tmp_path / "report.json"
    args = ["verify", "--d", "3", "--n", "3", "--claim", tag, "--format", "json"]
    assert main([*args, "--out", str(out)]) == 1
    return json.loads(out.read_text())["claims"]


class TestPairFaults:
    def test_build_pair_fault_counts_against_pair_product(self, monkeypatch, tmp_path):
        fault = SpecError("pair construction did not multiply back to tau; this is a bug")
        [entry] = faulty_report(monkeypatch, tmp_path, "build_pair", fault, "lemma-2.4")
        witness = entry["witness"]
        # the 36 = 6 + 3 * 4 + 2 * 9 specs over the identity, the
        # transpositions and the 3-cycles
        assert witness["pair_product"] == witness["specs"] == 36 and not entry["pass"]
        assert witness["factorization"] == 0
        examples = witness["examples"]
        assert len(examples) == 3 and all(e.startswith("pair_product {") for e in examples)
        assert all(e.endswith(str(fault)) for e in examples)

    def test_decompose_fault_counts_as_roundtrip_failure(self, monkeypatch, tmp_path):
        fault = RuntimeError("decomposition failed to round-trip; this is a bug")
        entries = faulty_report(monkeypatch, tmp_path, "decompose_pair", fault, "lemma-2.5")
        [entry] = [e for e in entries if e["parameters"].get("check") == "roundtrip"]
        assert entry["witness"] == {"commuting_pairs": 18, "roundtrip_failures": 18}
        assert not entry["pass"]
        assert all(e["pass"] for e in entries if e is not entry)


def validated_constructions(monkeypatch):
    """A list that grows by one entry per validated Permutation construction."""
    calls = []
    init = Permutation.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Permutation, "__init__", counting_init)
    return calls


class TestPool:
    def test_pool_makes_no_validated_permutations(self, monkeypatch):
        """With S_4 listed, the pool reads every case's pair off its sigma
        without one validated Permutation construction."""
        s = Session(RunConfig(d=4))
        s.taus(4)
        calls = validated_constructions(monkeypatch)
        assert len(s.pool(4)) == 120
        assert len(calls) == 0


class TestLemma24:
    def test_construction_makes_no_validated_permutations(self, monkeypatch):
        """lemma-2.4 at d = 4 builds every sigma, pair and component from the
        spec's stored cycles without one validated Permutation construction."""
        s = Session(RunConfig(d=4))
        s.taus(4)
        calls = validated_constructions(monkeypatch)
        [entry] = claims._check_lemma_2_4(s)
        assert entry.passed
        assert len(calls) == 0

    def test_wrong_sigma_counts_factorization_failures(self, monkeypatch, tmp_path):
        def corrupt(sigma):
            return swapped_images(sigma, 1, 2)

        [entry] = corrupted_report(monkeypatch, tmp_path, "build_shuffle", corrupt, "lemma-2.4")
        witness = entry["witness"]
        assert witness["factorization"] == witness["factor_product"] == witness["specs"] == 36
        assert witness["orbit_factor"] == witness["pair_product"] == 0
        assert not entry["pass"]

    def test_wrong_factor_counts_orbit_factor_failures(self, monkeypatch, tmp_path):
        def corrupt(comps):
            first, *rest = comps
            return (replace(first, factor=swapped_images(first.factor, 1, 6)), *rest)

        [entry] = corrupted_report(monkeypatch, tmp_path, "components", corrupt, "lemma-2.4")
        witness = entry["witness"]
        assert witness["orbit_factor"] == witness["factor_product"] == witness["specs"] == 36
        assert witness["factorization"] == witness["pair_product"] == 0
        examples = witness["examples"]
        assert len(examples) == 3 and all(e.startswith("orbit_factor {") for e in examples)
        assert not entry["pass"]


class TestCor213:
    def test_missing_root_is_a_membership_failure(self, monkeypatch):
        """With every root bucket emptied, each instance fails the membership
        lookup, and its example names the k and l drawn for it.  The pool is
        cut to the 3-cycles, on which k matters modulo 3."""
        s = Session(RunConfig(d=3, n=3, claims=("cor-2.13",)))
        pool = [case for case in s.pool(3) if case.tau.order() == 3]
        monkeypatch.setattr(s, "pool", lambda d: pool)
        monkeypatch.setattr(Session, "roots", lambda self, d, tau: EnumerationResult({}, (), 0))
        [entry] = claims._check_cor_2_13(s)
        assert entry.witness["failures"] == entry.parameters["instances"] and not entry.passed
        draws = random.Random(s.config.seed)
        drawn = [(draws.randrange(0, 9), draws.randrange(0, 9)) for _ in range(3)]
        named = [
            tuple(map(int, re.fullmatch(r"membership d=3 sigma=.+ k=(\d+) l=(\d+)", e).groups()))
            for e in entry.witness["examples"]
        ]
        assert named == drawn


def assert_one_disagreement(monkeypatch, accessor):
    """thm-2.12 at d = 3 with the first element of the (1 2 3) bucket of
    Session.<accessor> dropped: exactly that sigma disagrees in the
    equivalence, and the bucket mismatches in the counts."""
    s = Session(RunConfig(d=3, n=3, claims=("thm-2.12",)))
    tau = Permutation.parse("(1 2 3)")
    dropped = getattr(s, accessor)(3, tau).elements[0]
    full = getattr(Session, accessor)

    def one_fewer(self, d, t):
        result = full(self, d, t)
        if t != tau:
            return result
        return EnumerationResult(result.parameters, result.elements[1:], result.count - 1)

    monkeypatch.setattr(Session, accessor, one_fewer)
    equivalence, counts = claims._check_thm_2_12(s)
    assert equivalence.parameters == {"d": 3, "check": "equivalence"}
    assert equivalence.witness["disagreement_count"] == 1
    assert equivalence.witness["examples"] == [str(dropped)]
    assert equivalence.witness["braid_like"] == 18 and not equivalence.passed
    assert counts.witness["set_mismatches"] == [str(tau)] and not counts.passed


class TestThm212:
    def test_missing_shuffle_is_a_disagreement(self, monkeypatch):
        assert_one_disagreement(monkeypatch, "shuffles")

    def test_missing_root_is_a_disagreement(self, monkeypatch):
        """The equivalence reads a block-split square as membership in the
        root buckets, so a root dropped from its bucket disagrees there."""
        assert_one_disagreement(monkeypatch, "roots")

    def test_sweeps_make_no_quadratic_products(self, monkeypatch):
        """thm-2.12 sweeps the 576-element coset at d = 4, and lemma-2.5 the
        576 pairs of S_4, without a Permutation product per element or pair."""
        s = Session(RunConfig(d=4))
        for tau in s.taus(4):
            s.roots(4, tau)
            s.shuffles(4, tau)
        calls = 0
        mul = Permutation.__mul__

        def counting_mul(self, other):
            nonlocal calls
            calls += 1
            return mul(self, other)

        monkeypatch.setattr(Permutation, "__mul__", counting_mul)
        assert all(e.passed for e in claims._check_thm_2_12(s))
        assert calls == 0
        assert all(e.passed for e in claims._check_lemma_2_5(s))
        assert 0 < calls < 24**2


class TestSharedKernelChain:
    @pytest.mark.parametrize("d,cases,chains", [(2, 4, 2), (3, 18, 6), (4, 120, 24)])
    def test_one_chain_per_distinct_kernel(self, d, cases, chains):
        """Each case's certificate span decides membership in the block
        product as the chain of its kernel does, with one chain built here per
        distinct kernel."""
        s = Session(RunConfig(d=d))
        for n in (3, 4):
            pool = s.pool(d)
            by_kernel = {}
            for case in pool:
                kernel = s.a_group(case, n)
                key = tuple(g.canonical() for g in kernel.generators)
                if key not in by_kernel:
                    by_kernel[key] = schreier_sims(kernel)
                chain, span = by_kernel[key], s.extension(case, n)[0]
                assert span.order() == chain.order()
                for exps in product(range(case.tau.order()), repeat=n):
                    g = realize_by_products(exps, case.tau, d)
                    assert (exps in span) == (g in chain)
            assert (len(pool), len(by_kernel)) == (cases, chains)


def thm_3_4_session():
    """A Session over d in {2, 3}, n in {3, 4} with every case's kernel
    generators built; no certificate is built yet, so the accessors a test
    patches reach all of them."""
    session = Session(RunConfig(d_max=3, n_max=4))
    cases = [(case, n) for d in (2, 3) for case in session.pool(d) for n in (3, 4)]
    for case, n in cases:
        session.a_group(case, n)
    return session, cases


def even_cases(session, entry):
    return sum(c.tau.order() % 2 == 0 for c in session.pool(entry.parameters["d"]))


def substitute_kernel(substitute):
    """Patch for Session.a_group: the kernel's generators replaced by
    substitute(case, n, kernel), or kept when it returns None."""
    a_group = Session.a_group

    def patched(self, case, n):
        kernel = a_group(self, case, n)
        gens = substitute(case, n, kernel)
        return kernel if gens is None else GeneratedGroup(kernel.degree, tuple(gens))

    return patched


def index_2_subgroup(case, n, kernel):
    """For even q, the block-product elements whose first exponent is even:
    of order |A| like A, but without the realization of e_1, which is tau on
    blocks 1 and 2; the generators do not normalize it."""
    if case.tau.order() % 2:
        return None
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    exps = [(2,) + (0,) * (n - 1), *units[1:]]
    gens = [realize_by_products(e, case.tau, case.d) for e in exps]
    assert schreier_sims(GeneratedGroup(kernel.degree, tuple(gens))).order() == (
        schreier_sims(kernel).order()
    )
    return gens


class TestThm34:
    def test_powers_once_per_case_and_once_per_search(self, monkeypatch):
        session, cases = thm_3_4_session()
        calls = {"_powers": 0, "kernel_structure": 0}
        powers, structure = lattice._powers, claims.kernel_structure

        def counting_powers(*args):
            calls["_powers"] += 1
            return powers(*args)

        def counting_structure(*args):
            calls["kernel_structure"] += 1
            return structure(*args)

        monkeypatch.setattr(lattice, "_powers", counting_powers)
        monkeypatch.setattr(claims, "kernel_structure", counting_structure)
        entries = claims._check_thm_3_4(session)
        assert len(entries) == 4 and all(e.passed for e in entries)
        assert len(cases) == 44
        # the certificate's readout per case, and the kernel listing per search
        searched = sum(e.witness["even_q_searched"] for e in entries)
        assert searched == sum(e.witness["even_q_cases"] for e in entries) == 16
        assert calls["_powers"] == len(cases) + searched
        # once per (n, q): q in {1, 2, 3}, n in {3, 4}
        assert calls["kernel_structure"] == len({(n, c.tau.order()) for c, n in cases}) == 6

    def test_a_failed_structure_certificate_is_counted_not_raised(self, monkeypatch):
        """Without the skip sums the adjacent sums span too little mod 3, so
        each q = 3 case counts a structure failure; no exception is raised."""
        monkeypatch.setattr(lattice, "g_vector", lambda n, r: (0,) * n)
        session = Session(RunConfig(d=3, n=3, claims=("thm-3.4",)))
        [entry] = claims._check_thm_3_4(session)
        threes = sum(case.tau.order() == 3 for case in session.pool(3))
        assert entry.witness["structure_failures"] == threes > 0
        assert entry.witness["order_failures"] == entry.witness["parametrization_failures"] == 0
        assert entry.witness["examples"][0].startswith("structure ")
        assert not entry.passed

    def test_no_chain_of_degree_nd_on_the_grid(self, monkeypatch):
        """thm-3.4 and cor-3.10 on d <= 4, n <= 4 build only the chains of
        S_2, S_3 and S_4, which list the taus."""
        degrees = []

        def counting(group):
            degrees.append(group.degree)
            return schreier_sims(group)

        monkeypatch.setattr(groups, "schreier_sims", counting)
        monkeypatch.setattr(claims, "schreier_sims", counting)
        report = run_verification(RunConfig(d_max=4, n_max=4, claims=("thm-3.4", "cor-3.10")))
        assert report.all_pass and len(report.entries) == 10
        assert degrees == [2, 3, 4]

    # in place of A's generators: the first one alone, of order at most
    # q < |A| when q > 1; and all of them conjugated by the transposition
    # (d d+1), which moves them off the blocks
    @pytest.mark.parametrize("substitute", ["first-generator", "conjugate"])
    def test_failures_counted_against_another_kernel_chain(self, monkeypatch, substitute):
        def gens(case, n, kernel):
            if substitute == "first-generator":
                return kernel.generators[:1]
            x = Permutation.from_cycles([(case.d, case.d + 1)], kernel.degree)
            return [x * k * x for k in kernel.generators]

        session, _ = thm_3_4_session()
        monkeypatch.setattr(Session, "a_group", substitute_kernel(gens))
        entries = claims._check_thm_3_4(session)
        assert len(entries) == 4
        for entry in entries:
            assert entry.witness["order_failures"] > 0
            assert entry.witness["parametrization_failures"] > 0
            assert entry.witness["intersection_failures"] > 0
            assert not entry.passed
            # only the q = 1 cases, where A is trivial either way, keep their
            # certificate, so only they verify a split, and no search runs
            trivial = sum(c.tau.order() == 1 for c in session.pool(entry.parameters["d"]))
            assert entry.witness["split_verified"] == trivial
            assert entry.witness["even_q_searched"] == 0

    def test_failures_counted_against_another_index_2_subgroup(self, monkeypatch):
        """The index-2 subgroup has the right order, but conjugation by g_1
        swaps the first two exponents: of the order checks only normality
        fails, and the unit coordinate f_1 lies outside it."""
        session, _ = thm_3_4_session()
        monkeypatch.setattr(Session, "a_group", substitute_kernel(index_2_subgroup))
        entries = claims._check_thm_3_4(session)
        assert len(entries) == 4
        for entry in entries:
            assert entry.witness["order_failures"] == even_cases(session, entry) > 0
            assert entry.witness["parametrization_failures"] == even_cases(session, entry)
            assert not entry.passed

    def test_a_kernel_without_a_skip_sum_fails_the_orders(self, monkeypatch):
        """Without its skip sum, A at n = 3 spans only f_1 and f_2, of order
        q^2, less than q^2 * q2 when q > 2; at q = 2 the skip sum is f_1 + f_2
        mod 2."""
        session = Session(RunConfig(d_max=4, n=3))
        monkeypatch.setattr(Session, "a_group", substitute_kernel(lambda c, n, k: k.generators[:2]))
        for entry in claims._check_thm_3_4(session):
            small = sum(c.tau.order() > 2 for c in session.pool(entry.parameters["d"]))
            assert entry.witness["order_failures"] == small
            assert entry.witness["parametrization_failures"] == small
            assert (small > 0) == (not entry.passed) == (entry.parameters["d"] > 2)

    def test_a_normal_kernel_of_too_small_an_order_fails_the_orders(self, monkeypatch):
        """The squares of A's generators span 2 * A, normal like A; for even q
        it is smaller than A, and only the order check tells."""
        session, _ = thm_3_4_session()
        squares = substitute_kernel(lambda case, n, kernel: [k * k for k in kernel.generators])
        monkeypatch.setattr(Session, "a_group", squares)
        for entry in claims._check_thm_3_4(session):
            assert entry.witness["order_failures"] == even_cases(session, entry) > 0
            assert not entry.passed

    def test_a_conjugate_leaving_the_block_product_fails_the_orders(self, monkeypatch):
        """The generators conjugated by (1 2), which keeps the blocks: they
        still satisfy the braid relations and act on the blocks as before, and
        A's generators are the case's own, but at d = 3 some g_s * k * g_s^-1
        are no longer block products of powers of tau."""
        image = Session.image

        def conjugated(self, case, n):
            real = image(self, case, n)
            x = Permutation.from_cycles([(1, 2)], n * case.d)
            return replace(real, generators=tuple(x * g * x for g in real.generators))

        session = Session(RunConfig(d=3, n=3))
        for case in session.pool(3):
            session.a_group(case, 3)
        monkeypatch.setattr(Session, "image", conjugated)
        for case in session.pool(3):
            gens = [_padded(g, 9) for g in session.image(case, 3).generators]
            assert groups._coxeter_lifts(gens, 3)
        [entry] = claims._check_thm_3_4(session)
        assert entry.witness["order_failures"] > 0 == entry.witness["parametrization_failures"]
        assert not entry.passed

    # for even q, the first generator times the realization of (1, 0, ..., 0),
    # tau on block 1: the group these generators generate contains that
    # element, which lies in the block product outside A
    def test_failures_counted_against_an_enlarged_braid_chain(self, monkeypatch):
        image = Session.image

        def enlarged(self, case, n):
            real = image(self, case, n)
            if case.tau.order() % 2:
                return real
            extra = realize_by_products((1,) + (0,) * (n - 1), case.tau, case.d)
            first, *rest = real.generators
            faulty = replace(real, generators=(first * extra, *rest))
            assert extra in schreier_sims(faulty.group())
            return faulty

        session, _ = thm_3_4_session()
        monkeypatch.setattr(Session, "image", enlarged)
        entries = claims._check_thm_3_4(session)
        assert len(entries) == 4
        for entry in entries:
            even = even_cases(session, entry)
            assert entry.witness["order_failures"] == even
            assert entry.witness["intersection_failures"] == even > 0
            assert not entry.passed

    # for even q, A's span read as holding (1, 0, ..., 0) besides its own
    # elements: every premise holds, but B & D would then exceed A
    def test_failures_counted_against_a_span_holding_the_outside_element(self, monkeypatch):
        contains = lattice._Span.__contains__

        def holding(self, vector):
            return list(vector) == [1] + [0] * (len(vector) - 1) or contains(self, vector)

        session, _ = thm_3_4_session()
        monkeypatch.setattr(lattice._Span, "__contains__", holding)
        entries = claims._check_thm_3_4(session)
        assert len(entries) == 4
        for entry in entries:
            assert entry.witness["order_failures"] == 0
            assert entry.witness["parametrization_failures"] == 0
            assert entry.witness["intersection_failures"] == even_cases(session, entry) > 0
            assert not entry.passed

    # for even q, A's generators with the realization of (1, 0, ..., 0)
    # added, which has no coordinates
    def test_failures_counted_against_a_kernel_generator_without_coordinates(
        self, monkeypatch
    ):
        def listed(case, n, kernel):
            if case.tau.order() % 2:
                return None
            extra = realize_by_products((1,) + (0,) * (n - 1), case.tau, case.d)
            return (*kernel.generators, extra)

        session, _ = thm_3_4_session()
        monkeypatch.setattr(Session, "a_group", substitute_kernel(listed))
        entries = claims._check_thm_3_4(session)
        assert len(entries) == 4
        for entry in entries:
            assert entry.witness["parametrization_failures"] == even_cases(session, entry) > 0
            assert not entry.passed


class TestCor310:
    def test_orders_come_from_the_certificates(self, monkeypatch):
        """On d = 3, n = 3 the orders are n! * |A| and |A| with no chain of
        degree 9; with one odd-q certificate failing, that case alone is
        measured by chains, and its orders do not change."""
        degrees = []

        def counting(group):
            degrees.append(group.degree)
            return schreier_sims(group)

        monkeypatch.setattr(claims, "schreier_sims", counting)
        clean = claims._check_cor_3_10(Session(RunConfig(d=3, n=3)))
        assert [e.witness["orders"] for e in clean] == [[6], [162]]
        assert [e.witness["kernel_orders"] for e in clean] == [[1], [27]]
        assert degrees == [3]
        session = Session(RunConfig(d=3, n=3))
        target = next(c for c in session.pool(3) if c.tau.order() == 3)
        extension = Session.extension

        def failing(self, case, n):
            span, orders_hold, parametrized = extension(self, case, n)
            return span, orders_hold and case != target, parametrized

        degrees.clear()
        monkeypatch.setattr(Session, "extension", failing)
        assert claims._check_cor_3_10(session) == clean
        assert degrees == [9, 9]


class TestProp311:
    @pytest.mark.parametrize("position", [0, -1])
    def test_each_case_is_decided_on_its_own_matrices(self, monkeypatch, position):
        """The first or the last case with q = 3 at d = 3, n = 4 gets identity
        matrices, which satisfy the relations but fix all n! block
        permutations.  That case alone counts a formula mismatch and a kernel
        failure: a verdict reused across cases of equal (q, n) but other
        matrices would add or hide one."""
        session = Session(RunConfig(d=3, n=4))
        target = [case for case in session.pool(3) if case.tau.order() == 3][position]
        monodromy = Session.monodromy

        def patched(self, case, n):
            if case == target:
                return [lattice.identity_matrix(n, 3, 3) for _ in range(n - 1)]
            return monodromy(self, case, n)

        monkeypatch.setattr(Session, "monodromy", patched)
        [entry] = claims._check_prop_3_11(session)
        witness = entry.witness
        assert witness["matrix_mismatches"] == witness["kernel_failures"] == 1
        assert witness["relation_failures"] == 0 and not entry.passed
        examples = witness["examples"]
        assert f"formula {target.sigma}" in examples and f"kernel {target.sigma}" in examples

    @pytest.mark.parametrize(
        "config,walks,relations",
        [
            (RunConfig(d=3, n=6, claims=("prop-3.11",)), 3, 2),
            (RunConfig(d_max=4, n_max=4), 8, 6),
        ],
    )
    def test_matrix_checks_once_per_distinct_matrix_set(
        self, monkeypatch, config, walks, relations
    ):
        """The walk runs once per distinct (q, n) and the relations once per
        distinct (q, n) with q >= 2, however many cases share the matrices."""
        calls = {"monodromy_kernel": 0, "_matrix_relations_hold": 0}

        def counting(name):
            original = getattr(claims, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(claims, name, counting(name))
        run_verification(config)
        assert calls == {"monodromy_kernel": walks, "_matrix_relations_hold": relations}


def subdirect_entry(monkeypatch, fault):
    """prop-3.30's relations-and-subdirect entry at d = 3, n = 3 with the
    components transitivity_report reads replaced by fault(components, d)."""
    real = groups.components
    monkeypatch.setattr(groups, "components", lambda spec: fault(real(spec), spec.d))
    report = run_verification(RunConfig(d=3, n=3, claims=("prop-3.30",)))
    [entry] = [e for e in report.entries if e.parameters["check"] == "relations-and-subdirect"]
    return entry


class TestProp330:
    def test_a_factor_moving_another_tower_fails_subdirect(self, monkeypatch):
        """With more than one u-orbit, the last factor also swaps x and x + d,
        x the least point of the first tower: every generator still agrees
        with its shifted factors on their own towers, but the group is no
        longer the product of shifts supported on disjoint towers."""

        def swap_fault(comps, d):
            if len(comps) == 1:
                return comps
            *rest, last = comps
            x = min(comps[0].points)
            swap = Permutation.from_cycles([(x, x + d)])
            return (*rest, replace(last, factor=last.factor * swap))

        entry = subdirect_entry(monkeypatch, swap_fault)
        assert entry.witness["restriction_mismatches"] == 0
        assert entry.witness["subdirect_failures"] == 10  # the multi-orbit cases
        assert not entry.passed

    def test_overlapping_towers_fail_subdirect(self, monkeypatch):
        """A duplicated first component: its tower is listed twice, so the
        towers no longer partition the points."""
        entry = subdirect_entry(monkeypatch, lambda comps, d: (comps[0], *comps))
        assert entry.witness["restriction_mismatches"] == 0
        assert entry.witness["subdirect_failures"] == entry.witness["cases"] == 18
        assert not entry.passed

    def test_orbit_claims_build_only_the_member_list_chain(self, monkeypatch):
        """prop-3.30 and cor-3.31 build no stabilizer chain of their own: the
        one build is S_3's, which lists the taus."""
        degrees = []

        def counting(group):
            degrees.append(group.degree)
            return schreier_sims(group)

        monkeypatch.setattr(groups, "schreier_sims", counting)
        monkeypatch.setattr(claims, "schreier_sims", counting)
        run_verification(RunConfig(d=3, n=4, claims=("prop-3.30", "cor-3.31")))
        assert degrees == [3]


class TestChecksMatchReferences:
    # the acceptance grid; n = 6 at d = 3 as in the prop-3.11 golden; and
    # d = 5, n = 3, whose golden holds the only q = 6 cases
    @pytest.mark.parametrize(
        "d,n", [(d, n) for d in (2, 3, 4) for n in (3, 4)] + [(3, 6), (5, 3)]
    )
    def test_per_case_verdicts(self, monkeypatch, d, n):
        session = Session(RunConfig(d=d, n=n))
        for case in session.pool(d):
            image, mats = session.image(case, n), session.monodromy(case, n)
            kernel, (span, orders_hold, _) = session.a_group(case, n), session.extension(case, n)
            b_bsgs, a_bsgs = schreier_sims(image.group()), schreier_sims(kernel)
            monkeypatch.setattr(session, "pool", lambda _: [case])
            [entry] = claims._check_thm_3_4(session)
            witness = entry.witness
            assert span.order() == a_bsgs.order()
            assert span.order() * math.factorial(n) == b_bsgs.order()
            assert orders_hold == extension_holds(image, kernel, b_bsgs, a_bsgs)
            assert witness["parametrization_failures"] == (not box_parametrizes(image, a_bsgs))
            assert witness["intersection_failures"] == (not sweep_intersects(image, b_bsgs, a_bsgs))
            if image.q % 2:
                verified = chain_split_complement(image, a_bsgs) is not None
                assert witness["split_verified"] == verified
            else:
                count = chain_complement_search(image, a_bsgs)
                assert complement_search(image, span) == count
                assert witness["even_q_searched"] == (count is not None)
            kernel_gens = session.a_group(case, n).generators
            matches = claims._matrices_match_conjugation(image, kernel_gens, mats)
            assert matches == box_matches_conjugation(image, mats)
