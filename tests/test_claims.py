import json
import random
import re
from dataclasses import replace
from itertools import product

import pytest

from braidperm import REGISTRY, RunConfig, claims, groups, lattice, run_verification
from braidperm.claims import Session
from braidperm.cli import main
from braidperm.groups import BSGS, GeneratedGroup, schreier_sims
from braidperm.oracles import EnumerationResult
from braidperm.perm import Permutation
from braidperm.shuffle import SpecError
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
            raise RuntimeError("kernel generators do not commute")

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


class TestThm212:
    def test_missing_shuffle_is_a_disagreement(self, monkeypatch):
        s = Session(RunConfig(d=3, n=3, claims=("thm-2.12",)))
        tau = Permutation.parse("(1 2 3)")
        full = s.shuffles(3, tau)
        dropped = full.elements[0]
        shuffles = Session.shuffles

        def one_fewer(self, d, t):
            result = shuffles(self, d, t)
            if t != tau:
                return result
            return EnumerationResult(result.parameters, result.elements[1:], result.count - 1)

        monkeypatch.setattr(Session, "shuffles", one_fewer)
        equivalence, counts = claims._check_thm_2_12(s)
        assert equivalence.parameters == {"d": 3, "check": "equivalence"}
        assert equivalence.witness["disagreement_count"] == 1
        assert equivalence.witness["examples"] == [str(dropped)]
        assert equivalence.witness["braid_like"] == 18 and not equivalence.passed
        assert counts.witness["set_mismatches"] == [str(tau)] and not counts.passed

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
        s = Session(RunConfig(d=d))
        for n in (3, 4):
            pool = s.pool(d)
            kernels = {tuple(g.canonical() for g in s.a_group(c, n).generators) for c in pool}
            shared = {id(s.a_bsgs(c, n)) for c in pool}
            assert (len(pool), len(kernels), len(shared)) == (cases, chains, chains)
            for case in pool:
                chain = s.a_bsgs(case, n)
                fresh = schreier_sims(s.a_group(case, n))
                assert chain.order() == fresh.order()
                for exps in product(range(case.tau.order()), repeat=n):
                    g = realize_by_products(exps, case.tau, d)
                    assert (g in chain) == (g in fresh)


def thm_3_4_session():
    """A Session over d in {2, 3}, n in {3, 4} with every case's chains built."""
    session = Session(RunConfig(d_max=3, n_max=4))
    cases = [(case, n) for d in (2, 3) for case in session.pool(d) for n in (3, 4)]
    for case, n in cases:
        session.b_bsgs(case, n)
        session.a_bsgs(case, n)
    return session, cases


class TestThm34:
    def test_powers_once_per_case_and_fewer_sifts_than_elements(self, monkeypatch):
        session, cases = thm_3_4_session()
        # the box and the block product of every case; the block product
        # element count is q^n
        elements = sum(session.a_bsgs(c, n).order() + c.tau.order() ** n for c, n in cases)
        calls = {"_powers": 0, "contains": 0, "kernel_structure": 0, "sifts": 0}
        powers, contains, structure = lattice._powers, BSGS.contains, claims.kernel_structure
        sift = BSGS._contains_images
        inside = 0  # nesting depth in the order and splitting checks

        def counting_powers(*args):
            calls["_powers"] += 1
            return powers(*args)

        def counting_structure(*args):
            calls["kernel_structure"] += 1
            return structure(*args)

        def counting_contains(self, g):
            calls["contains"] += 1
            return contains(self, g)

        def counting_sifts(self, images):
            calls["sifts"] += not inside
            return sift(self, images)

        def apart(check):
            def wrapper(*args):
                nonlocal inside
                inside += 1
                try:
                    return check(*args)
                finally:
                    inside -= 1

            return wrapper

        monkeypatch.setattr(lattice, "_powers", counting_powers)
        monkeypatch.setattr(claims, "kernel_structure", counting_structure)
        monkeypatch.setattr(BSGS, "contains", counting_contains)
        monkeypatch.setattr(BSGS, "__contains__", counting_contains)
        monkeypatch.setattr(BSGS, "_contains_images", counting_sifts)
        for name in ("extension_holds", "split_complement", "complement_search"):
            monkeypatch.setattr(claims, name, apart(getattr(claims, name)))
        entries = claims._check_thm_3_4(session)
        assert len(entries) == 4 and all(e.passed for e in entries)
        assert len(cases) == 44
        assert calls["_powers"] == len(cases)
        # once per (n, q): q in {1, 2, 3}, n in {3, 4}
        assert calls["kernel_structure"] == len({(n, c.tau.order()) for c, n in cases}) == 6
        assert 0 < calls["contains"] < elements
        # parametrization and intersection: one sift per unit coordinate, and
        # one more for even q
        assert calls["sifts"] == sum(n + 1 - c.tau.order() % 2 for c, n in cases)

    # in place of A: the group of the first kernel generator, of order at
    # most q < |A| when q > 1; and A conjugated by the transposition (d d+1),
    # of order |A|, which only the sifts tell apart from A (the generators do
    # not normalize it)
    @pytest.mark.parametrize("substitute", ["first-generator", "conjugate"])
    def test_failures_counted_against_another_kernel_chain(self, monkeypatch, substitute):
        def substitute_chain(self, case, n):
            kernel = self.a_group(case, n)
            gens = kernel.generators[:1]
            if substitute == "conjugate":
                x = Permutation.from_cycles([(case.d, case.d + 1)], kernel.degree)
                gens = tuple(x * k * x for k in kernel.generators)
            return schreier_sims(GeneratedGroup(kernel.degree, gens))

        session, _ = thm_3_4_session()
        monkeypatch.setattr(Session, "a_bsgs", substitute_chain)
        entries = claims._check_thm_3_4(session)
        assert len(entries) == 4
        for entry in entries:
            assert entry.witness["order_failures"] > 0
            assert entry.witness["parametrization_failures"] > 0
            assert entry.witness["intersection_failures"] > 0
            assert not entry.passed

    # for even q, the block-product elements whose first exponent is even: of
    # order |A| like A, but without the realization of e_1, which is tau on
    # blocks 1 and 2
    def test_failures_counted_against_another_index_2_subgroup(self, monkeypatch):
        def substitute_chain(self, case, n):
            kernel = self.a_group(case, n)
            if case.tau.order() % 2:
                return schreier_sims(kernel)
            units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
            exps = [(2,) + (0,) * (n - 1), *units[1:]]
            gens = tuple(realize_by_products(e, case.tau, case.d) for e in exps)
            chain = schreier_sims(GeneratedGroup(kernel.degree, gens))
            assert chain.order() == schreier_sims(kernel).order()
            return chain

        session, _ = thm_3_4_session()
        monkeypatch.setattr(Session, "a_bsgs", substitute_chain)
        entries = claims._check_thm_3_4(session)
        assert len(entries) == 4
        for entry in entries:
            even = sum(c.tau.order() % 2 == 0 for c in session.pool(entry.parameters["d"]))
            assert entry.witness["parametrization_failures"] == even > 0
            assert not entry.passed

    # B's chain with the realization of (1, 0, ..., 0) added, which for even q
    # lies in the block product outside A
    def test_failures_counted_against_an_enlarged_braid_chain(self, monkeypatch):
        def enlarged_chain(self, case, n):
            group = self.image(case, n).group()
            extra = realize_by_products((1,) + (0,) * (n - 1), case.tau, case.d)
            return schreier_sims(GeneratedGroup(group.degree, (*group.generators, extra)))

        session, _ = thm_3_4_session()
        monkeypatch.setattr(Session, "b_bsgs", enlarged_chain)
        entries = claims._check_thm_3_4(session)
        assert len(entries) == 4
        for entry in entries:
            even = sum(c.tau.order() % 2 == 0 for c in session.pool(entry.parameters["d"]))
            assert entry.witness["intersection_failures"] == even > 0
            assert not entry.passed

    # for even q, the block product extended by the even permutations of the
    # blocks: of order n! * |A| and containing A like B, so every premise
    # holds, but it meets the block product in all of it
    def test_failures_counted_against_a_braid_chain_of_the_right_order(self, monkeypatch):
        def substitute_chain(self, case, n):
            group = self.image(case, n).group()
            if case.tau.order() % 2:
                return schreier_sims(group)
            d = case.d
            units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
            gens = [realize_by_products(e, case.tau, d) for e in units]
            for b in range(3, n + 1):  # the block 3-cycles (1 2 b) generate A_n
                cycles = [(x, d + x, (b - 1) * d + x) for x in range(1, d + 1)]
                gens.append(Permutation.from_cycles(cycles, group.degree))
            return schreier_sims(GeneratedGroup(group.degree, tuple(gens)))

        session, _ = thm_3_4_session()
        monkeypatch.setattr(Session, "b_bsgs", substitute_chain)
        entries = claims._check_thm_3_4(session)
        assert len(entries) == 4
        for entry in entries:
            even = sum(c.tau.order() % 2 == 0 for c in session.pool(entry.parameters["d"]))
            assert entry.witness["order_failures"] == 0
            assert entry.witness["parametrization_failures"] == 0
            assert entry.witness["intersection_failures"] == even > 0
            assert not entry.passed

    # for even q, A's generators with the realization of (1, 0, ..., 0)
    # added, which has no coordinates, beside the chain of A itself
    def test_failures_counted_against_a_kernel_generator_without_coordinates(
        self, monkeypatch
    ):
        a_group = Session.a_group

        def chain(self, case, n):
            return schreier_sims(a_group(self, case, n))

        def listed(self, case, n):
            kernel = a_group(self, case, n)
            if case.tau.order() % 2:
                return kernel
            extra = realize_by_products((1,) + (0,) * (n - 1), case.tau, case.d)
            return GeneratedGroup(kernel.degree, (*kernel.generators, extra))

        session, _ = thm_3_4_session()
        monkeypatch.setattr(Session, "a_bsgs", chain)
        monkeypatch.setattr(Session, "a_group", listed)
        entries = claims._check_thm_3_4(session)
        assert len(entries) == 4
        for entry in entries:
            even = sum(c.tau.order() % 2 == 0 for c in session.pool(entry.parameters["d"]))
            assert entry.witness["parametrization_failures"] == even > 0
            assert not entry.passed


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
    # the acceptance grid, and n = 6 at d = 3 as in the prop-3.11 golden
    @pytest.mark.parametrize("d,n", [(d, n) for d in (2, 3, 4) for n in (3, 4)] + [(3, 6)])
    def test_per_case_verdicts(self, monkeypatch, d, n):
        session = Session(RunConfig(d=d, n=n))
        for case in session.pool(d):
            image, mats = session.image(case, n), session.monodromy(case, n)
            b_bsgs, a_bsgs = session.b_bsgs(case, n), session.a_bsgs(case, n)
            monkeypatch.setattr(session, "pool", lambda _: [case])
            [entry] = claims._check_thm_3_4(session)
            witness = entry.witness
            assert witness["parametrization_failures"] == (not box_parametrizes(image, a_bsgs))
            assert witness["intersection_failures"] == (not sweep_intersects(image, b_bsgs, a_bsgs))
            kernel_gens = session.a_group(case, n).generators
            matches = claims._matrices_match_conjugation(image, kernel_gens, mats)
            assert matches == box_matches_conjugation(image, mats)
