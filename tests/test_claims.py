import functools
import json
import math
import random
import re
from bisect import bisect_left
from dataclasses import fields, replace
from itertools import product

import pytest

from braidperm import REGISTRY, RunConfig, claims, groups, lattice, oracles, run_verification
from braidperm.claims import Session
from braidperm.cli import main
from braidperm.groups import (
    CaseCertificate,
    abelian_kernel,
    braid_image,
    schreier_sims,
)
from braidperm.oracles import EnumerationResult, enumerate_shuffles
from braidperm.oracles import _commute as commute
from braidperm.perm import (
    Permutation,
    _compose,
    _invert,
    _padded,
    _shifted,
    _trusted,
    centralizer_order,
    partition_count,
)
from braidperm.shuffle import (
    ShuffleSpec,
    SpecError,
    _checked_pair,
    _pair_images,
    build_shuffle,
    decompose_pair,
    iter_specs,
)
from braidperm.shuffle import _is_braid_like as braid_test
from test_groups import (
    chain_complement_search,
    chain_split_complement,
    complement_search,
    extension_certificate,
    extension_holds,
    twist_passes_coxeter_lifts,
)
from test_lattice import (
    box_matches_conjugation,
    box_parametrizes,
    matrices_match_conjugation,
    monodromy_matrices,
    realize_by_products,
    sweep_intersects,
)
from test_oracles import counted

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
        """Every case's sigma with the images of 1 and d + 1 exchanged maps 1
        into the first block, so no certificate holds and the kernel
        identities are unverified: each of the 4 cases at d = 2 counts one
        failure, in the report and through the CLI."""
        corrupt_sigmas(monkeypatch, lambda case: swapped_images(sigma_of(case), 1, case.d + 1))
        report = run_verification(RunConfig(d=2, n=3, claims=("lemma-3.3",)))
        [entry] = report.entries
        assert not entry.passed and entry.witness["failures"] == 4
        examples = entry.witness["examples"]
        assert examples and all(e.startswith("certificate ") for e in examples)
        out = tmp_path / "report.json"
        args = ["verify", "--d", "2", "--n", "3", "--claim", "lemma-3.3", "--format", "json"]
        assert main([*args, "--out", str(out)]) == 1
        [written] = json.loads(out.read_text())["claims"]
        assert written["witness"]["failures"] == 4 and not written["pass"]


def sigma_of(case) -> Permutation:
    """The case's sigma as a Permutation, for products and for the report's
    cycle notation."""
    return _trusted(case.sigma)


def tau_of(case) -> Permutation:
    return _trusted(case.tau)


def corrupt_sigmas(monkeypatch, corrupt):
    """Patch Session.pool: each case's sigma replaced by the image tuple of
    degree 2d of corrupt(case), a Permutation, or kept when it returns None."""
    pool = Session.pool

    def patched(self, d):
        return [
            c if (sigma := corrupt(c)) is None else replace(c, sigma=_padded(sigma, 2 * d))
            for c in pool(self, d)
        ]

    monkeypatch.setattr(Session, "pool", patched)


def faulty_report(monkeypatch, tmp_path, name, fault, tag):
    """The report entries of tag at d = 3, n = 3 with claims.<name> replaced by
    a function raising fault; the CLI must write the report and exit 1 (a
    failed claim), not 2 or with a traceback."""

    def faulty(*args):
        raise fault

    return replaced_report(monkeypatch, tmp_path, name, faulty, tag)


def first_swapped(walk):
    """A _walk output whose pair has first's images of 1 and 2 exchanged."""
    sigma, first, second, parts = walk
    return sigma, swapped_images(_trusted(first), 1, 2).images, second, parts


def sigma_swapped(walk):
    """A _walk output whose sigma has the images of 1 and 2 exchanged."""
    sigma, *rest = walk
    return swapped_images(_trusted(sigma), 1, 2).images, *rest


def factor_swapped(walk):
    """A _walk output whose first component's factor has the images of 1 and
    6 exchanged; d >= 3."""
    *pair, ((factor, *images), *rest) = walk
    return *pair, ((swapped_images(_trusted(factor), 1, 6).images, *images), *rest)


WALK_CORRUPTIONS = {"first": first_swapped, "sigma": sigma_swapped, "factor": factor_swapped}


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
        """A walk whose pair has first's images of 1 and 2 exchanged gives a
        pair whose product is not tau on every spec."""
        fault = SpecError("pair construction did not multiply back to tau; this is a bug")
        [entry] = corrupted_report(monkeypatch, tmp_path, "_walk", first_swapped, "lemma-2.4")
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

    def test_each_pair_is_decomposed_once(self, monkeypatch):
        """On the d <= 4 grid the 4 + 11 + 43 decompositions are all
        lemma-2.5's round trips, one per commuting pair whose product is a
        class representative, sum_lambda z_lambda per d: the case pool takes
        its specs from the shuffle enumerations."""
        calls = counted(monkeypatch, claims, "decompose_pair")
        report = run_verification(RunConfig(d_max=4, n_max=4))
        assert len(calls) == len({(a, b, d) for a, b, d in calls}) == 58
        s = Session(RunConfig(d_max=4))
        assert set(calls) == {
            (a, b, d)
            for d in (2, 3, 4)
            for a, b in oracles.commuting_pairs(groups.symmetric_group(d))
            if a * b in {tau for tau, _ in s.classes(d)}
        }
        assert any(e.claim == "lemma-2.5" for e in report.entries)

    @pytest.mark.parametrize("tags", [("lemma-2.5",), ("lemma-2.5", "prop-3.30")])
    def test_no_decomposition_is_left_behind(self, tags):
        """With or without a claim that reads the case pool, lemma-2.5's
        round trips keep no decomposition in the Session cache."""
        s = Session(RunConfig(d=3, n=3, claims=tags))
        for tag in tags:
            assert all(entry.passed or tag == "prop-3.30" for entry in REGISTRY[tag](s))
        assert not [key for key in s._cache if key[0] == "decomposition"]

    def test_the_pool_decomposes_nothing(self, monkeypatch):
        """prop-3.30 alone on d <= 4 reads the 142 cases of the pool and
        decomposes no pair: each case's spec is the one that built its
        sigma."""
        calls = counted(monkeypatch, claims, "decompose_pair")
        s = Session(RunConfig(d_max=4, claims=("prop-3.30",)))
        assert len(claims._check_prop_3_30(s)) == 6
        assert sum(len(s.pool(d)) for d in (2, 3, 4)) == 142
        assert calls == []


def validated_constructions(monkeypatch):
    """A list that grows by one entry per validated Permutation construction."""
    calls = []
    init = Permutation.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Permutation, "__init__", counting_init)
    return calls


class TestTaus:
    def test_builds_no_stabilizer_chain(self, monkeypatch):
        """Session.taus lists S_5 in the order of the sorted members of its
        stabilizer chain, and builds no chain itself."""
        chain = schreier_sims(groups.symmetric_group(5))
        members = sorted(chain.elements(), key=Permutation.canonical)
        builds = counted(monkeypatch, groups, "schreier_sims")
        claims_builds = counted(monkeypatch, claims, "schreier_sims")
        taus = Session(RunConfig(d=5)).taus(5)
        assert builds == claims_builds == []
        assert [tau.images for tau in taus] == [w.images for w in members]


class TestPool:
    def test_pool_makes_no_validated_permutations(self, monkeypatch):
        """With S_4 listed, the pool enumerates every case with its spec
        without one validated Permutation construction."""
        s = Session(RunConfig(d=4))
        s.taus(4)
        calls = validated_constructions(monkeypatch)
        assert len(s.pool(4)) == 120
        assert len(calls) == 0

    def test_the_case_layer_runs_on_image_tuples(self, monkeypatch):
        """All ten claims on d <= 4 at n = 3, 4 and 6.  No GridCase field is
        a Permutation: sigma and tau are image tuples of degree 2d and d.
        The run reads order(tau) at most once per tau, when the pool is
        built, and evaluates no Permutation at a point; its canonical()
        calls, which the S_d and shuffle layers make once per tau or
        representative, do not grow with n."""
        taus = sum(math.factorial(d) for d in (2, 3, 4))
        canonical = {}
        for n in (3, 4, 6):
            orders = counted(monkeypatch, Permutation, "order")
            points = counted(monkeypatch, Permutation, "__call__")
            keys = counted(monkeypatch, Permutation, "canonical")
            s = Session(RunConfig(d_max=4, n=n))
            for checker in REGISTRY.values():
                checker(s)
            canonical[n] = len(keys)
            monkeypatch.undo()
            assert points == []
            assert len({tau.images for tau, in orders}) == len(orders) <= taus
            for d in (2, 3, 4):
                for case in s.pool(d):
                    values = [getattr(case, f.name) for f in fields(case)]
                    assert not any(isinstance(v, Permutation) for v in values)
                    assert (len(case.sigma), len(case.tau)) == (2 * d, d)
                    assert all(type(x) is int for x in case.sigma + case.tau)
        assert canonical[3] == canonical[4] == canonical[6] > 0

    def test_each_spec_is_the_decomposition_of_its_sigma(self):
        """For every d <= 6 each case's spec is decompose_pair's for the pair
        read off sigma, first(i) = sigma(i) - d and second(i) = sigma(d + i):
        the first spec that builds sigma is the one decompose_pair picks."""
        for d in range(2, 7):
            pool = Session(RunConfig(d=d)).pool(d)
            assert len(pool) == (4, 18, 120, 840, 7920)[d - 2]
            for case in pool:
                first = Permutation([case.sigma[i - 1] - d for i in range(1, d + 1)])
                second = Permutation([case.sigma[d + i - 1] for i in range(1, d + 1)])
                assert case.spec == decompose_pair(first, second, d)

    def test_each_spec_builds_its_sigma(self):
        """For every tau of S_d, d <= 5, the enumeration's specs are aligned
        with its elements: each builds its sigma."""
        for d in range(2, 6):
            for tau in Session(RunConfig(d=d)).taus(d):
                result = enumerate_shuffles(d, tau)
                assert len(result.specs) == len(result.elements) == result.count
                for sigma, spec in zip(result.elements, result.specs):
                    assert spec.tau == tau and build_shuffle(spec) == sigma

    @pytest.mark.parametrize(
        "cut", [lambda specs: (), lambda specs: specs[1:]], ids=["none", "one_short"]
    )
    def test_an_enumeration_without_its_specs_is_refused(self, monkeypatch, cut):
        """A shuffle enumeration whose specs are missing or one short makes
        the pool raise, instead of building fewer cases than sigmas."""
        full = Session.shuffles

        def unspecified(self, d, tau):
            result = full(self, d, tau)
            return EnumerationResult(
                result.parameters, result.elements, result.count, cut(result.specs)
            )

        monkeypatch.setattr(Session, "shuffles", unspecified)
        with pytest.raises(ValueError):
            Session(RunConfig(d=3)).pool(3)


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

    def test_builds_no_checked_specs(self, monkeypatch):
        """lemma-2.4 at d = 4 looks each spec's rotation up among the specs it
        enumerated, so it makes no checked ShuffleSpec."""
        s = Session(RunConfig(d=4))
        s.taus(4)
        calls = []
        post_init = ShuffleSpec.__post_init__

        def counting(self):
            calls.append(self)
            post_init(self)

        monkeypatch.setattr(ShuffleSpec, "__post_init__", counting)
        [entry] = claims._check_lemma_2_4(s)
        assert entry.passed and entry.witness["specs"] > 0
        assert calls == []

    def test_missing_rotation_is_a_rotation_failure(self, monkeypatch):
        """(1 2 3) is its class's representative.  With its first spec left
        out of the enumeration, the one spec rotating onto it finds no
        shuffle to compare with: one rotation failure, weighted by the
        class's two 3-cycles, and 2 * 8 specs over the class where the full
        sweep has 2 * 9 - 1.  Nothing else fails or raises."""
        tau = Permutation.parse("(1 2 3)")
        assert (tau, 2) in Session(RunConfig(d=3)).classes(3)
        dropping_first_spec(monkeypatch, tau)
        [entry] = claims._check_lemma_2_4(Session(RunConfig(d=3)))
        witness = entry.witness
        assert witness["specs"] == 34 and witness["rotation"] == 2
        others = [v for k, v in witness.items() if k not in ("specs", "rotation", "examples")]
        assert len(others) == 5 and not any(others)
        assert witness["examples"] == [] and not entry.passed
        reference = all_tau_lemma_2_4(Session(RunConfig(d=3)), 3)
        assert reference["specs"] == 35 and reference["rotation"] == 1

    def test_a_spec_missing_outside_the_representatives_is_not_seen(self, monkeypatch):
        """(1 3 2) is not its class's representative, so the checker walks
        no spec over it and a spec dropped there changes nothing; the full
        sweep still finds one spec fewer and one rotation failure."""
        tau = Permutation.parse("(1 3 2)")
        assert tau not in [w for w, _ in Session(RunConfig(d=3)).classes(3)]
        [clean] = claims._check_lemma_2_4(Session(RunConfig(d=3)))
        dropping_first_spec(monkeypatch, tau)
        [entry] = claims._check_lemma_2_4(Session(RunConfig(d=3)))
        assert entry.witness == clean.witness and entry.passed
        reference = all_tau_lemma_2_4(Session(RunConfig(d=3)), 3)
        assert reference["specs"] == 35 and reference["rotation"] == 1
        assert reference["examples"] == []

    def test_wrong_sigma_counts_factorization_failures(self, monkeypatch, tmp_path):
        [entry] = corrupted_report(monkeypatch, tmp_path, "_walk", sigma_swapped, "lemma-2.4")
        witness = entry["witness"]
        assert witness["factorization"] == witness["factor_product"] == witness["specs"] == 36
        assert witness["orbit_factor"] == witness["pair_product"] == 0
        assert not entry["pass"]

    def test_wrong_factor_counts_orbit_factor_failures(self, monkeypatch, tmp_path):
        [entry] = corrupted_report(monkeypatch, tmp_path, "_walk", factor_swapped, "lemma-2.4")
        witness = entry["witness"]
        assert witness["orbit_factor"] == witness["factor_product"] == witness["specs"] == 36
        assert witness["factorization"] == witness["pair_product"] == 0
        examples = witness["examples"]
        assert len(examples) == 3 and all(e.startswith("orbit_factor {") for e in examples)
        assert not entry["pass"]

    def test_matches_the_full_sweep(self):
        """The witness from the class representatives, weighted by class
        size, equals the full sweep's over every tau on every d <= 6."""
        s = Session(RunConfig(d_max=6, claims=("lemma-2.4",)))
        entries = claims._check_lemma_2_4(s)
        assert [e.parameters["d"] for e in entries] == [2, 3, 4, 5, 6]
        for entry in entries:
            assert entry.witness == all_tau_lemma_2_4(s, entry.parameters["d"])
            assert entry.passed

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("corruption", sorted(WALK_CORRUPTIONS))
    def test_matches_the_full_sweep_under_corrupted_walks(self, monkeypatch, d, corruption):
        """Each corruption hits every spec, so the weighted counts equal the
        full sweep's, and the first three examples come from the identity,
        the first tau of both sweeps."""
        real, corrupt = claims._walk, WALK_CORRUPTIONS[corruption]
        monkeypatch.setattr(claims, "_walk", lambda *args: corrupt(real(*args)))
        s = Session(RunConfig(d=d, claims=("lemma-2.4",)))
        [entry] = claims._check_lemma_2_4(s)
        assert entry.witness == all_tau_lemma_2_4(s, d)
        assert entry.witness["specs"] == {3: 36, 4: 336}[d] and not entry.passed

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_relabeling_lemma(self, d):
        """For every spec over every tau and every w in S_d, relabeling by w
        gives a spec over w tau w^-1, bijectively; it conjugates sigma, the
        pair and every component by w or w + w, and it maps the spec's
        rotation to the rotation of its relabeling."""
        group = Session(RunConfig(d=d)).taus(d)
        for w in group:
            wi = _padded(w, d)
            ww = wi + tuple([y + d for y in wi])
            for tau in group:
                moved_tau = w * tau * w.inverse()
                over = {spec.choices for spec in iter_specs(moved_tau, d)}
                relabeled = set()
                for spec in iter_specs(tau, d):
                    moved = relabeled_spec(spec, w, moved_tau)
                    relabeled.add(moved.choices)
                    sigma, first, second, parts = walk_of(spec)
                    moved_sigma, moved_first, moved_second, moved_parts = walk_of(moved)
                    assert moved_sigma == conjugated(ww, sigma)
                    assert moved_first == conjugated(wi, first)
                    assert moved_second == conjugated(wi, second)
                    # the components are ordered by least point, which w may reorder
                    assert set(moved_parts) == {
                        (conjugated(ww, f), conjugated(wi, a), conjugated(wi, b),
                         conjugated(wi, p), conjugated(ww, x))
                        for f, a, b, p, x in parts
                    }
                    assert relabeled_spec(rotated_spec(spec), w, moved_tau) == rotated_spec(moved)
                assert relabeled == over

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_class_sizes(self, d):
        """Session.classes lists the first member of each cycle type in
        Session.taus order, with its class size d! / z_lambda; the sizes sum
        to d!."""
        s = Session(RunConfig(d=d))
        classes = s.classes(d)
        firsts = {}
        for w in s.taus(d):
            firsts.setdefault(w.cycle_type(d), w)
        assert [w for w, _ in classes] == list(firsts.values())
        assert len(classes) == partition_count(d)
        for w, size in classes:
            assert size * centralizer_order(w.cycle_type(d)) == math.factorial(d)
        assert sum(size for _, size in classes) == math.factorial(d)

    def test_walks_one_tau_per_class(self, monkeypatch):
        """lemma-2.4 walks the specs over the class representatives only:
        19, 89, 271 and 1,673 at d = 3 to 6, against the 36, 336, 3,000 and
        40,320 specs its witness counts.  u's orbits are computed once per
        representative and u."""
        for d, walks, specs in ((3, 19, 36), (4, 89, 336), (5, 271, 3000), (6, 1673, 40320)):
            s = Session(RunConfig(d=d, claims=("lemma-2.4",)))
            us = {(tau, spec.u) for tau, _ in s.classes(d) for spec in iter_specs(tau, d)}
            calls = counted(monkeypatch, claims, "_walk")
            orbits = counted(monkeypatch, ShuffleSpec, "orbits")
            [entry] = claims._check_lemma_2_4(s)
            assert entry.passed and entry.witness["specs"] == specs
            assert len(calls) == walks
            assert len(orbits) == len(us)
            monkeypatch.undo()


def dropping_first_spec(monkeypatch, tau):
    """Patch claims.iter_specs to leave out the first spec over tau."""
    real = claims.iter_specs

    def one_fewer(t, d):
        specs = real(t, d)
        if t == tau:
            next(specs)
        return specs

    monkeypatch.setattr(claims, "iter_specs", one_fewer)


def walk_of(spec: ShuffleSpec):
    return claims._walk(spec, _padded(spec.tau, spec.d), spec.orbits())


def conjugated(w: tuple[int, ...], x: tuple[int, ...]) -> tuple[int, ...]:
    """w * x * w^-1 on image tuples of one degree."""
    return _compose(w, _compose(x, _invert(w)))


def relabeled_spec(spec: ShuffleSpec, w: Permutation, moved_tau: Permutation) -> ShuffleSpec:
    """The spec over moved_tau = w * tau * w^-1 with spec's cycles and
    starting points relabeled by w, through the checking constructor."""
    return ShuffleSpec(
        spec.d,
        moved_tau,
        tuple((tuple(map(w, alpha)), w(i1), w(j1)) for alpha, i1, j1 in spec.choices),
    )


def rotated_spec(spec: ShuffleSpec) -> ShuffleSpec:
    """spec with (i1, j1) advanced along tau on every cycle."""
    choices = tuple((alpha, spec.tau(i1), spec.tau(j1)) for alpha, i1, j1 in spec.choices)
    return ShuffleSpec(spec.d, spec.tau, choices)


def all_tau_lemma_2_4(s: Session, d: int) -> dict:
    """lemma-2.4's witness at d from a sweep over the specs of every tau in
    S_d: the reference for the checker's one tau per conjugacy class.  It
    walks through claims._walk and claims.iter_specs, so a patch of either
    reaches both."""
    spec_count = 0
    failures = dict.fromkeys(
        ("factorization", "orbit_factor", "orbit_commute", "pair_product", "factor_product",
         "rotation"),
        0,
    )
    examples = []
    ident = tuple(range(1, 2 * d + 1))
    for tau in s.taus(d):
        images = _padded(tau, d)
        step = (0, *images)
        walks = {
            spec.choices: (spec, *claims._walk(spec, images, spec.orbits()))
            for spec in claims.iter_specs(tau, d)
        }
        for spec, sigma, first, second, parts in walks.values():
            spec_count += 1
            try:
                _checked_pair(first, second, images)
            except SpecError as exc:
                failures["pair_product"] += 1
                examples.append(f"pair_product {spec.to_json_dict()}: {exc}")
            else:
                if tuple([x + d for x in first]) + second != sigma:
                    failures["factorization"] += 1
                    examples.append(f"factorization {spec.to_json_dict()}")
            prod = ident
            for factor, first, second, product, swap in parts:
                prod = _compose(prod, factor)
                if _compose(swap, first + tuple([y + d for y in second])) != factor:
                    failures["orbit_factor"] += 1
                    examples.append(f"orbit_factor {spec.to_json_dict()}")
                if _compose(first, second) != product or _compose(second, first) != product:
                    failures["orbit_commute"] += 1
            if prod != sigma:
                failures["factor_product"] += 1
            rotated = tuple([(a, step[i1], step[j1]) for a, i1, j1 in spec.choices])
            found = walks.get(rotated)
            if found is None or found[1] != sigma:
                failures["rotation"] += 1
    return {"specs": spec_count, **failures, "examples": examples[:3]}


def without_first(result: EnumerationResult) -> EnumerationResult:
    return EnumerationResult(result.parameters, result.elements[1:], result.count - 1)


@functools.cache
def swept_roots(d: int) -> dict:
    """oracles.roots_by_tau over S_d, the |S_d|^2 root sweep: the reference
    for Session.roots and the fibres.  Shared, so copy before changing it."""
    return oracles.roots_by_tau(groups.symmetric_group(d))


def permutation_cor_2_13(s: Session, buckets: dict):
    """cor-2.13 as Permutation products and powers over Session.pool, with
    the root buckets of buckets[d] (swept_roots): the reference for the
    checker's image-tuple twist and for Session.roots."""
    pool = [case for d in s.config.ds() for case in s.pool(d)]
    reps = max(1, -(-claims.RANDOM_INSTANCES // max(1, len(pool))))
    instances = 0
    failures = []
    for case in pool:
        q, tau, sigma = case.q, tau_of(case), sigma_of(case)
        for _ in range(reps):
            k = s.rng.randrange(0, 3 * q)
            l = s.rng.randrange(0, 3 * q)
            twist = (tau**k) * (tau**l).shift(case.d)
            twisted = sigma * twist
            power = tau ** (k + l + 1)
            target = power * power.shift(case.d)
            instances += 1
            if twisted * twisted != target:
                failures.append(f"d={case.d} sigma={sigma} k={k} l={l}")
                continue
            roots = buckets[case.d][power.canonical()].elements
            at = bisect_left(roots, twisted.canonical(), key=Permutation.canonical)
            if roots[at : at + 1] != (twisted,):
                failures.append(f"membership d={case.d} sigma={sigma} k={k} l={l}")
    return instances, failures


class TestCor213:
    def test_missing_root_is_a_membership_failure(self, monkeypatch):
        """With every root bucket emptied, each instance fails the membership
        lookup, and its example names the k and l drawn for it.  The taus are
        cut to the 3-cycles, on which k matters modulo 3."""
        s = Session(RunConfig(d=3, n=3, claims=("cor-2.13",)))
        taus = [tau for tau in s.taus(3) if tau.order() == 3]
        monkeypatch.setattr(s, "taus", lambda d: taus)
        monkeypatch.setattr(Session, "roots", lambda self, d, tau: ())
        [entry] = claims._check_cor_2_13(s)
        assert entry.parameters["instances"] == 6 * 167
        assert entry.witness["failures"] == entry.parameters["instances"] and not entry.passed
        draws = random.Random(s.config.seed)
        drawn = [(draws.randrange(0, 9), draws.randrange(0, 9)) for _ in range(3)]
        named = [
            tuple(map(int, re.fullmatch(r"membership d=3 sigma=.+ k=(\d+) l=(\d+)", e).groups()))
            for e in entry.witness["examples"]
        ]
        assert named == drawn

    @pytest.mark.parametrize("dropped", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_permutation_products(self, monkeypatch, d, seed, dropped):
        """The image-tuple twist draws and decides as the Permutation products
        over the pool do, on the full root sweep's buckets; with one root
        dropped from the identity's bucket of both, both name the same
        membership failures."""
        identity = Permutation.identity(d)
        buckets = dict(swept_roots(d))
        if dropped:
            full = Session.roots

            def one_fewer(self, d, tau):
                result = full(self, d, tau)
                return result[1:] if tau == identity.images else result

            monkeypatch.setattr(Session, "roots", one_fewer)
            buckets[identity.canonical()] = without_first(buckets[identity.canonical()])
        config = RunConfig(d=d, n=3, seed=seed, claims=("cor-2.13",))
        [entry] = claims._check_cor_2_13(Session(config))
        instances, failures = permutation_cor_2_13(Session(config), {d: buckets})
        assert entry.parameters["instances"] == instances
        assert entry.witness["failures"] == len(failures)
        assert entry.witness["examples"] == failures[:3]
        assert entry.passed is (not dropped)

    def test_builds_no_pool(self, monkeypatch):
        """cor-2.13 reads its cases from the shuffle enumerations: no pool is
        cached and no pair is decomposed into a spec."""
        calls = []
        decompose = claims.decompose_pair
        monkeypatch.setattr(claims, "decompose_pair", lambda *a: calls.append(a) or decompose(*a))
        s = Session(RunConfig(d_max=4, n_max=3, claims=("cor-2.13",)))
        [entry] = claims._check_cor_2_13(s)
        # 4 + 18 + 120 cases, each drawn ceil(1000 / 142) = 8 times
        assert entry.passed and entry.parameters["instances"] == 142 * 8
        assert not [key for key in s._cache if key[0] == "pool"]
        assert calls == []


# sum_lambda z_lambda over the partitions lambda of d: the number of orbits of
# the diagonal S_d on S_d x S_d, by Burnside's lemma, and the number of roots
# in the fibres over the class representatives
SUM_Z = {2: 4, 3: 11, 4: 43, 5: 161, 6: 901, 7: 5579}


def coset_images(s: Session, d: int):
    """The coset's elements (w1 + d) followed by w2, in sweep order."""
    members = [_padded(w, d) for w in s.taus(d)]
    return (tuple([y + d for y in w1]) + w2 for w1 in members for w2 in members)


def blocks(sigma, d: int) -> tuple:
    """(w1, w2) of the coset element sigma = (w1 + d) followed by w2."""
    return tuple([y - d for y in sigma[:d]]), sigma[d:]


def braid_like_images(sigma, d: int) -> bool:
    """Whether sigma, a permutation of [1, 2d] as image tuple, and
    shift(sigma, d) are braid-like at degree 3d."""
    return braid_test(sigma + tuple(range(2 * d + 1, 3 * d + 1)), _shifted(sigma, d))


def full_sweep_equivalence(s: Session, d: int) -> dict:
    """thm-2.12's equivalence witness at d from a sweep that tests every
    coset element for braid-likeness, membership in the full root sweep
    (swept_roots) and membership in the shuffles of any tau: the reference
    for the checker's fibres over class representatives.  The coset element
    sigma = swap * w1 * shift(w2, d) is (w1 + d) followed by w2, and
    shift(sigma, d) is (1..d) followed by (w1 + 2d) and (w2 + d)."""
    shuffle_all = {p.canonical() for tau in s.taus(d) for p in s.shuffles(d, tau).elements}
    roots_all = {p.canonical() for bucket in swept_roots(d).values() for p in bucket.elements}
    braid_count = 0
    disagreements = []
    for sigma in coset_images(s, d):
        braid = braid_like_images(sigma, d)
        split = sigma in roots_all
        member = sigma in shuffle_all
        braid_count += braid
        if not (braid == split == member):
            disagreements.append(str(_trusted(sigma)))
    return {
        "coset_size": len(s.taus(d)) ** 2,
        "braid_like": braid_count,
        "disagreement_count": len(disagreements),
        "examples": disagreements[:3],
    }


def full_sweep_counts(s: Session, d: int) -> dict:
    """thm-2.12's counts witness at d from the full root sweep, with every
    tau's bucket compared with its shuffles: the reference for the checker's
    class representatives."""
    total = 0
    set_mismatches, count_mismatches = [], []
    for tau in s.taus(d):
        roots, shuffles = swept_roots(d)[tau.canonical()], s.shuffles(d, tau)
        total += roots.count
        if roots.elements != shuffles.elements:
            set_mismatches.append(str(tau))
        if shuffles.count != centralizer_order(tau.cycle_type(d)):
            count_mismatches.append(str(tau))
    return {
        "total_roots": total,
        "expected": partition_count(d) * math.factorial(d),
        "set_mismatches": set_mismatches,
        "shuffle_count_mismatches": count_mismatches,
    }


def full_sweep_lemma_2_5(d: int) -> tuple[dict, dict]:
    """lemma-2.5's two witnesses for S_d from the |S_d|^2 pair sweep, with
    every commuting pair decomposed and rebuilt: the reference for the
    checker's fibres over class representatives."""
    pairs = oracles.commuting_pairs(groups.symmetric_group(d))
    bad = 0
    for a, b in pairs:
        try:
            rebuilt = _pair_images(decompose_pair(a, b, d))
        except (SpecError, RuntimeError):
            bad += 1
            continue
        bad += rebuilt != (_padded(a, d), _padded(b, d))
    counts = {"pairs": len(pairs), "order": math.factorial(d), "classes": partition_count(d)}
    return counts, {"commuting_pairs": len(pairs), "roundtrip_failures": bad}


def fibre_of(s: Session, d: int, tau: Permutation) -> tuple:
    [fibre] = [fibre for t, _, fibre in s.fibres(d) if t == tau]
    return fibre


def assert_one_disagreement(monkeypatch, accessor):
    """thm-2.12 at d = 3 with the first root of the (1 2 3) fibre dropped
    from Session.<accessor>: from the shuffles of (1 2 3), or as a root in
    the fibres.  (1 2 3) represents the two 3-cycles, so that sigma is the
    one example and disagrees with weight 2, and the counts name (1 2 3) as
    a set mismatch.  Returns the counts entry."""
    s = Session(RunConfig(d=3, n=3, claims=("thm-2.12",)))
    tau = Permutation.parse("(1 2 3)")
    assert (tau, 2) in s.classes(3)
    dropped = s.shuffles(3, tau).elements[0]
    full = getattr(Session, accessor)
    if accessor == "shuffles":

        def patched(self, d, t):
            result = full(self, d, t)
            return without_first(result) if t == tau else result

    else:

        def patched(self, d):
            return [
                (t, size, tuple((x, *pair, root and x != dropped.images) for x, *pair, root in f))
                for t, size, f in full(self, d)
            ]

    monkeypatch.setattr(Session, accessor, patched)
    equivalence, counts = claims._check_thm_2_12(s)
    assert equivalence.parameters == {"d": 3, "check": "equivalence"}
    assert equivalence.witness == {
        "coset_size": 36,
        "braid_like": 18,
        "disagreement_count": 2,
        "examples": [str(dropped)],
    }
    assert not equivalence.passed
    assert counts.witness["set_mismatches"] == [str(tau)] and not counts.passed
    return counts


def mutated_fibres(monkeypatch, mutation: str) -> None:
    """Patch the fibres' domain: drop the last class, weight each class by
    z_lambda instead of its size, or test roots on the square's first block
    only, which every element of a fibre passes."""
    if mutation == "first-block-roots":
        real = claims._fibres

        def first_block(classes, members, d, cap):
            return [
                (tau, size, tuple((x, _compose(x, x)[:d] == _padded(tau, d)) for x, _ in f))
                for tau, size, f in real(classes, members, d, cap)
            ]

        monkeypatch.setattr(claims, "_fibres", first_block)
        return
    real = Session.classes

    def mutated(self, d):
        classes = real(self, d)
        if mutation == "dropped-class":
            return classes[:-1]
        return [(tau, centralizer_order(tau.cycle_type(d))) for tau, _ in classes]

    monkeypatch.setattr(Session, "classes", mutated)


class TestThm212:
    def test_missing_shuffle_is_a_disagreement(self, monkeypatch):
        counts = assert_one_disagreement(monkeypatch, "shuffles")
        assert counts.witness["total_roots"] == 18
        assert counts.witness["shuffle_count_mismatches"] == ["(1 2 3)"]

    def test_missing_root_is_a_disagreement(self, monkeypatch):
        """The equivalence reads a block-split square as the fibre's root
        flag, so a root whose flag is cleared disagrees there, and the roots
        fall short by its weight."""
        counts = assert_one_disagreement(monkeypatch, "fibres")
        assert counts.witness["total_roots"] == 16
        assert counts.witness["shuffle_count_mismatches"] == []

    def test_sweeps_make_no_quadratic_products(self, monkeypatch):
        """thm-2.12 tests the 120 elements of the fibres over the class
        representatives at d = 4, and lemma-2.5 their pairs, without a
        Permutation product per element or pair."""
        s = Session(RunConfig(d=4))
        for tau, _, _ in s.fibres(4):
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
        assert 0 < calls < 120

    def test_one_braid_test_per_fibre_element(self, monkeypatch):
        """With the fibres and the representatives' shuffles warm, thm-2.12
        tests each element of the fibres over the class representatives
        once: p(d) * d! of them, 18, 120 and 840 at d = 3, 4 and 5, against
        the 36, 576 and 14,400 elements of the coset."""
        for d, tests in ((3, 18), (4, 120), (5, 840)):
            s = Session(RunConfig(d=d))
            for tau, _, _ in s.fibres(d):
                s.shuffles(d, tau)
            calls = counted(monkeypatch, claims, "_is_braid_like")
            equivalence, counts = claims._check_thm_2_12(s)
            assert equivalence.witness["coset_size"] == math.factorial(d) ** 2
            assert equivalence.passed and counts.passed
            assert len(calls) == tests == partition_count(d) * math.factorial(d)
            tested = {a[: 2 * d] for a, _ in calls}
            assert tested == {x for _, _, fibre in s.fibres(d) for x, *_ in fibre}
            monkeypatch.undo()

    def test_matches_the_full_sweep(self):
        """thm-2.12's witnesses from the fibres over the class
        representatives equal the full sweeps' on every d <= 6: the
        equivalence over the whole coset, and the counts over every tau's
        root bucket."""
        s = Session(RunConfig(d_max=6, claims=("thm-2.12",)))
        entries = claims._check_thm_2_12(s)
        assert [e.parameters for e in entries] == [
            {"d": d, "check": check} for d in range(2, 7) for check in ("equivalence", "counts")
        ]
        for equivalence, counts in zip(entries[::2], entries[1::2]):
            d = equivalence.parameters["d"]
            assert equivalence.witness == full_sweep_equivalence(s, d)
            assert counts.witness == full_sweep_counts(s, d)
            assert equivalence.passed and counts.passed

    @pytest.mark.parametrize("added", [None, "(1 6)", "(1 2)", "(1 4)(2 5)(3 7)"])
    def test_an_added_element_disagrees_only_in_the_coset(self, monkeypatch, added):
        """An element added to the shuffles of (1 2 3) at d = 3.  The first
        element of its fibre that is not braid-like (None) is the one
        disagreement, weighted by the class size 2.  The others lie outside
        the coset and are none, as in the full sweep: (1 6) and (1 2) move a
        point of [1, 3] within it, and the last maps [1, 3] above 3 but
        moves 7.  Either way the shuffles of (1 2 3) mismatch its roots, and
        their count its centralizer order."""
        s = Session(RunConfig(d=3, n=3, claims=("thm-2.12",)))
        tau = Permutation.parse("(1 2 3)")
        if added is None:
            fibre = fibre_of(s, 3, tau)
            extra = next(_trusted(x) for x, *_ in fibre if not braid_like_images(x, 3))
        else:
            extra = Permutation.parse(added)
        full = Session.shuffles

        def one_more(self, d, t):
            result = full(self, d, t)
            if t != tau:
                return result
            elements = (*result.elements, extra)
            return EnumerationResult(result.parameters, elements, result.count + 1)

        monkeypatch.setattr(Session, "shuffles", one_more)
        equivalence, counts = claims._check_thm_2_12(s)
        if added is not None:
            assert equivalence.witness == full_sweep_equivalence(s, 3)
        assert equivalence.witness["disagreement_count"] == (2 if added is None else 0)
        assert equivalence.witness["examples"] == ([str(extra)] if added is None else [])
        assert equivalence.witness["braid_like"] == 18
        assert counts.witness["set_mismatches"] == [str(tau)]
        assert counts.witness["shuffle_count_mismatches"] == [str(tau)] and not counts.passed

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_invariance_lemma(self, d):
        """For every coset element sigma and every w in S_d, W = w + w + w
        conjugates sigma + id and shift(sigma, d) to sigma' + id and
        shift(sigma', d), where sigma' = swap * (w w1 w^-1) * shift(w w2
        w^-1, d) is sigma conjugated by w + w; and sigma' is braid-like
        exactly when sigma is."""
        group = Session(RunConfig(d=d)).taus(d)
        swap = Permutation.from_cycles([(i, i + d) for i in range(1, d + 1)], 2 * d)

        def conjugate(g, x):
            return g * x * g.inverse()

        for w in group:
            ww = w * w.shift(d)
            www = ww * w.shift(2 * d)
            for w1, w2 in product(group, group):
                sigma = swap * w1 * w2.shift(d)
                moved = swap * conjugate(w, w1) * conjugate(w, w2).shift(d)
                assert conjugate(ww, sigma) == conjugate(www, sigma) == moved
                assert conjugate(www, sigma.shift(d)) == moved.shift(d)
                assert braid_like_images(moved.images, d) == braid_like_images(sigma.images, d)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_fibre_lemma(self, d):
        """For every tau and every w of S_d, conjugation by w + w maps F(tau)
        onto F(w tau w^-1) and keeps braid-likeness, root-ness, commutation
        of the pair and shuffle membership, each tested directly.  F(tau) is
        built by claims._fibres with tau as its one class, and is exactly
        the coset elements whose square has first block tau."""
        s = Session(RunConfig(d=d))
        taus = [_padded(tau, d) for tau in s.taus(d)]
        by_first_block = {}
        for x in coset_images(s, d):
            by_first_block.setdefault(_compose(x, x)[:d], set()).add(x)
        verdicts = {}
        for tau in taus:
            [(_, _, fibre)] = claims._fibres([(_trusted(tau), 1)], s.taus(d), d, 10**6)
            assert {x for x, *_ in fibre} == by_first_block[tau]
            target = tau + tuple([y + d for y in tau])
            shuffles = {p.canonical() for p in s.shuffles(d, _trusted(tau)).elements}
            verdicts[tau] = {
                x: (
                    braid_like_images(x, d), _compose(x, x) == target, commute(*blocks(x, d)),
                    x in shuffles,
                )
                for x, _ in fibre
            }
        for tau in taus:
            for w in taus:
                ww = w + tuple([y + d for y in w])
                moved = {conjugated(ww, x): v for x, v in verdicts[tau].items()}
                assert moved == verdicts[conjugated(w, tau)]

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_representatives(self, d):
        """The fibres lie over the first member of each class in Session.taus
        order, with its class size: one fibre per class, of d! elements
        (w1 + d) followed by w2 = tau * w1^-1, sorted.  Their roots number
        sum_lambda z_lambda, and weighted by class size p(d) * d!.  For
        d <= 6 each representative's roots are its bucket of the full root
        sweep, and Session.roots, their closure, is every bucket."""
        s = Session(RunConfig(d=d))
        firsts, sizes = {}, {}
        for w in s.taus(d):
            firsts.setdefault(w.cycle_type(d), w)
            sizes[w.cycle_type(d)] = sizes.get(w.cycle_type(d), 0) + 1
        fibres = s.fibres(d)
        assert [(tau, size) for tau, size, _ in fibres] == [
            (w, sizes[t]) for t, w in firsts.items()
        ]
        roots = {}
        for tau, _, fibre in fibres:
            assert len(fibre) == math.factorial(d) and list(fibre) == sorted(fibre)
            for x, _ in fibre:
                w1, w2 = blocks(x, d)
                assert x == tuple([y + d for y in w1]) + w2
                assert _compose(w2, w1) == _padded(tau, d)
            roots[tau] = tuple([_trusted(x) for x, *_, root in fibre if root])
        assert sum(map(len, roots.values())) == SUM_Z[d]
        total = sum(size * len(roots[tau]) for tau, size, _ in fibres)
        assert total == partition_count(d) * math.factorial(d)
        if d > 6:
            return
        buckets = swept_roots(d)
        assert all(roots[tau] == buckets[tau.canonical()].elements for tau in roots)
        for tau in s.taus(d):
            assert s.roots(d, tau.images) == tuple(
                p.images for p in buckets[tau.canonical()].elements
            )

    def test_a_representative_of_another_class_fails_the_counts(self, monkeypatch):
        """The identity in place of the representative of the six
        transpositions of S_4 counts its 24 roots six times: 240 roots and
        braid-like elements, and as many commuting pairs, against 120.  Each
        element still agrees with itself, so the equivalence holds, but it
        differs from the full sweep's."""
        real = Session.classes
        identity = Permutation.identity(4)

        def mutated(self, d):
            return [
                (identity if size == 6 and tau.order() == 2 else tau, size)
                for tau, size in real(self, d)
            ]

        monkeypatch.setattr(Session, "classes", mutated)
        s = Session(RunConfig(d=4, claims=("thm-2.12", "lemma-2.5")))
        equivalence, counts = claims._check_thm_2_12(s)
        assert equivalence.passed and equivalence.witness["braid_like"] == 240
        assert equivalence.witness != full_sweep_equivalence(s, 4)
        assert counts.witness["total_roots"] == 240 and not counts.passed
        [sym, *_, roundtrip] = claims._check_lemma_2_5(s)
        assert sym.witness["pairs"] == 240 and not sym.passed
        assert roundtrip.witness == {"commuting_pairs": 240, "roundtrip_failures": 0}
        assert not roundtrip.passed

    @pytest.mark.parametrize(
        "mutation, roots, pairs",
        [("dropped-class", 96, 96), ("z-weights", 681, 681), ("first-block-roots", 576, 120)],
    )
    def test_a_mutated_domain_fails_the_counts(self, monkeypatch, mutation, roots, pairs):
        """At d = 4 each mutation of the fibres' domain fails thm-2.12's
        counts, whose total is p(4) * 4! = 120 on the true domain: dropping
        the last class, weighting each class by z_lambda instead of its
        size, or a root test on the square's first block alone, which
        accepts whole fibres, 4!^2 = 576 elements.  The first two fail
        lemma-2.5's counts as well; the third leaves its commutation test."""
        mutated_fibres(monkeypatch, mutation)
        s = Session(RunConfig(d=4, claims=("thm-2.12", "lemma-2.5")))
        _, counts = claims._check_thm_2_12(s)
        assert counts.witness["total_roots"] == roots and not counts.passed
        [sym, *_, roundtrip] = claims._check_lemma_2_5(s)
        assert sym.witness["pairs"] == roundtrip.witness["commuting_pairs"] == pairs
        assert sym.passed is roundtrip.passed is (pairs == 120)

    def test_a_closure_under_one_transposition_fails_the_reference(self, monkeypatch):
        """Closing the representatives' roots under (1 2) + (1 2) alone
        misses most of each class: Session.roots holds 50 of the 120 roots
        at d = 4, and cor-2.13 counts 375 membership failures in its 1,080
        instances where the full root sweep's buckets give none."""
        real = claims._diagonal_generators
        monkeypatch.setattr(claims, "_diagonal_generators", lambda d: real(d)[:1])
        config = RunConfig(d=4, n=3, claims=("cor-2.13",))
        s = Session(config)
        assert sum(len(s.roots(4, tau.images)) for tau in s.taus(4)) == 50
        [entry] = claims._check_cor_2_13(s)
        instances, failures = permutation_cor_2_13(Session(config), {4: swept_roots(4)})
        assert entry.parameters["instances"] == instances and failures == []
        assert entry.witness["failures"] == 375 and not entry.passed


class TestLemma25:
    def test_one_sweep_per_group(self, monkeypatch):
        """lemma-2.5 at d = 4, with the fibres built, reads S_4's counts and
        round trips from one pass over the 120 elements of the fibres over
        the class representatives, and each cyclic group's count from one
        commuting_pairs sweep, and composes nothing itself: its own 120
        commutation tests and the oracle's 2**2 + 3**2 + 4**2 + 2**2 = 33
        are all, 153 against the 609 of a full sweep of S_4."""
        s = Session(RunConfig(d=4))
        s.fibres(4)
        own = counted(monkeypatch, claims, "_compose")
        sweeps = counted(monkeypatch, claims, "commuting_pairs")
        oracle = counted(monkeypatch, oracles, "_compose")
        fibre_tests = counted(monkeypatch, claims, "_commute")
        tests = counted(monkeypatch, oracles, "_commute")
        entries = claims._check_lemma_2_5(s)
        assert all(e.passed for e in entries)
        assert own == oracle == []
        assert [group.generators for group, _ in sweeps] == [
            (Permutation.parse(text),) for text in ("(1 2)", "(1 2 3)", "(1 2 3 4)", "(1 2)(3 4)")
        ]
        assert len(fibre_tests) == 120 and len(tests) == 33
        [roundtrip] = [e for e in entries if e.parameters.get("check") == "roundtrip"]
        assert roundtrip.witness == {"commuting_pairs": 120, "roundtrip_failures": 0}

    def test_matches_the_full_sweep(self):
        """lemma-2.5's S_d counts and round trips from the fibres over the
        class representatives equal the full pair sweep's, with every pair
        decomposed, on every d <= 6."""
        s = Session(RunConfig(d_max=6, claims=("lemma-2.5",)))
        entries = claims._check_lemma_2_5(s)
        sym = [e for e in entries if e.parameters.get("group", "").startswith("sym-")]
        roundtrips = [e for e in entries if e.parameters.get("check") == "roundtrip"]
        for d, entry, roundtrip in zip(range(2, 7), sym, roundtrips, strict=True):
            counts, trips = full_sweep_lemma_2_5(d)
            assert entry.parameters == {"group": f"sym-{d}"} and entry.witness == counts
            assert roundtrip.parameters["d"] == d and roundtrip.witness == trips
        assert all(e.passed for e in entries)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_round_trip_lemma(self, d):
        """For every commuting pair (a, b) of S_d and every i1 on every cycle
        alpha of tau = a * b, the spec that starts alpha at (i1, a(i1)) and
        every other cycle at its least point rebuilds (a, b): decompose_pair's
        choice of the least points does not matter."""
        for a, b in oracles.commuting_pairs(groups.symmetric_group(d)):
            first, second = _padded(a, d), _padded(b, d)
            tau = _trusted(_compose(first, second))
            cycles = tau.cycles(include_fixed=True, degree=d)
            for alpha in cycles:
                for i1 in alpha:
                    choices = tuple(
                        (c, i1, first[i1 - 1]) if c == alpha else (c, c[0], first[c[0] - 1])
                        for c in cycles
                    )
                    assert _pair_images(ShuffleSpec(d, tau, choices)) == (first, second)


class TestSharedKernelChain:
    @pytest.mark.parametrize("d,cases,chains", [(2, 4, 2), (3, 18, 6), (4, 120, 24)])
    def test_one_chain_per_distinct_kernel(self, d, cases, chains):
        """The (n, q) lattice's span decides membership in the block product
        as the chain of each case's kernel does, with one chain built here
        per distinct kernel."""
        s = Session(RunConfig(d=d))
        for n in (3, 4):
            pool = s.pool(d)
            by_kernel = {}
            for case in pool:
                kernel = abelian_kernel(braid_image(sigma_of(case), d, n))
                key = tuple(g.canonical() for g in kernel.generators)
                if key not in by_kernel:
                    by_kernel[key] = schreier_sims(kernel)
                chain, span = by_kernel[key], s.lattice(n, case.q).span
                assert span.order() == chain.order()
                for exps in product(range(case.q), repeat=n):
                    g = realize_by_products(exps, tau_of(case), d)
                    assert (exps in span) == (g in chain)
            assert (len(pool), len(by_kernel)) == (cases, chains)


def thm_3_4_session():
    """A Session over d in {2, 3}, n in {3, 4} with the case pool built; no
    certificate or lattice is built yet, so the accessors a test patches
    reach all of them."""
    session = Session(RunConfig(d_max=3, n_max=4))
    cases = [(case, n) for d in (2, 3) for case in session.pool(d) for n in (3, 4)]
    return session, cases


def even_cases(session, entry):
    return sum(c.q % 2 == 0 for c in session.pool(entry.parameters["d"]))


def substitute_vectors(substitute):
    """Patch for Session.lattice: the kernel's generator vectors replaced by
    substitute(n, q, vectors), or kept when it returns None."""
    built = Session.lattice

    def patched(self, n, q):
        vectors = substitute(n, q, lattice._kernel_vectors(n))
        return built(self, n, q) if vectors is None else lattice.kernel_lattice(vectors, q, n)

    return patched


def index_2_subgroup(n, q, vectors):
    """For even q, the block-product vectors whose first exponent is even:
    of order |A| like A, but without f_1, the vector of g_1^2; the swaps do
    not preserve it."""
    if q % 2:
        return None
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    substitute = [(2,) + (0,) * (n - 1), *units[1:]]
    assert lattice._Span(substitute, q, n).order() == lattice._Span(vectors, q, n).order()
    return substitute


class TestThm34:
    def test_no_powers_and_one_count_per_n_q(self, monkeypatch):
        session, cases = thm_3_4_session()
        powers = counted(monkeypatch, lattice, "_powers")
        lattices = counted(monkeypatch, claims, "kernel_lattice")
        counts = counted(monkeypatch, claims, "complement_count")
        entries = claims._check_thm_3_4(session)
        assert len(entries) == 4 and all(e.passed for e in entries)
        assert len(cases) == 44
        # no table of powers at all: the 16 even-q cases share two counts,
        # of (n, q) = (3, 2) and (4, 2)
        searched = sum(e.witness["even_q_searched"] for e in entries)
        assert searched == sum(e.witness["even_q_cases"] for e in entries) == 16
        assert powers == []
        assert sorted(len(span.rows) for span, _ in counts) == [3, 4]
        assert [e.witness["even_q_with_complement"] for e in entries] == [2, 0, 6, 0]
        # one lattice, which decides the structure too, per (n, q): q in
        # {1, 2, 3}, n in {3, 4}
        built = sorted((n, q) for _, q, n in lattices)
        assert built == sorted({(n, c.q) for c, n in cases}) and len(built) == 6

    def test_a_failed_certificate_is_not_counted(self, monkeypatch):
        """An even-q case whose certificate fails is neither searched nor
        credited with the (n, q) count, which the other cases still share."""
        session = Session(RunConfig(d=3, n=3, claims=("thm-3.4",)))
        target = next(case for case in session.pool(3) if case.q == 2)
        failing_certificate(monkeypatch, target)
        [entry] = claims._check_thm_3_4(session)
        witness = entry.witness
        assert witness["even_q_cases"] == 6
        assert witness["even_q_searched"] == witness["even_q_with_complement"] == 5
        assert witness["examples"] == [
            f"orders {sigma_of(target)}",
            f"intersection {sigma_of(target)} unverified",
        ]
        assert not entry.passed

    def test_a_failed_structure_certificate_is_counted_not_raised(self, monkeypatch):
        """Without the skip sums the adjacent sums span too little mod 3, so
        each q = 3 case counts a structure failure; no exception is raised.
        The kernel lattice reads A's span from the same vectors, so its
        orders and parametrization fail there too."""
        monkeypatch.setattr(lattice, "g_vector", lambda n, r: (0,) * n)
        session = Session(RunConfig(d=3, n=3, claims=("thm-3.4",)))
        [entry] = claims._check_thm_3_4(session)
        threes = [sigma_of(case) for case in session.pool(3) if case.q == 3]
        witness = entry.witness
        assert witness["structure_failures"] == len(threes) > 0
        assert witness["order_failures"] == witness["parametrization_failures"] == len(threes)
        first = threes[0]
        assert witness["examples"] == [
            f"orders {first}",
            f"structure {first}",
            f"parametrization {first}",
        ]
        assert not entry.passed

    def test_no_chain_of_degree_nd_on_the_grid(self, monkeypatch):
        """All ten claims on d <= 4, n <= 4, clean and with one odd-q
        certificate failing, build stabilizer chains of degree 2, 3 and 4
        only (the taus and lemma-2.5's small groups), and no braid image or
        kernel of degree n * d."""
        degrees = []

        def counting(group):
            degrees.append(group.degree)
            return schreier_sims(group)

        monkeypatch.setattr(groups, "schreier_sims", counting)
        monkeypatch.setattr(claims, "schreier_sims", counting)
        images = counted(monkeypatch, groups, "braid_image")
        kernels = counted(monkeypatch, groups, "abelian_kernel")
        refuted = {"prop-3.30", "cor-3.31"}
        kernel_claims = {"lemma-3.3", "thm-3.4", "cor-3.10", "prop-3.11"}
        pool = Session(RunConfig(d=3, n=3)).pool(3)
        target = next(c for c in pool if c.q == 3)
        for fault in (False, True):
            if fault:
                failing_certificate(monkeypatch, target)
            degrees.clear()
            report = run_verification(RunConfig(d_max=4, n_max=4))
            failed = {e.claim for e in report.entries if not e.passed}
            assert failed == (refuted | kernel_claims if fault else refuted)
            assert set(degrees) == {2, 3, 4}
            assert images == kernels == []
        assert not hasattr(claims, "braid_image") and not hasattr(claims, "abelian_kernel")

    # in place of A's vectors: f_1 alone, which spans at most q < |A| elements
    # when q > 1; or, in place of every sigma, its conjugate by the
    # transposition (d d+1), which moves it off the blocks
    @pytest.mark.parametrize("substitute", ["first-generator", "conjugate"])
    def test_failures_counted_against_another_kernel_chain(self, monkeypatch, substitute):
        session, _ = thm_3_4_session()
        if substitute == "first-generator":
            monkeypatch.setattr(Session, "lattice", substitute_vectors(lambda n, q, v: v[:1]))
        else:

            def conjugate(case):
                x = Permutation.from_cycles([(case.d, case.d + 1)], 2 * case.d)
                return x * sigma_of(case) * x

            corrupt_sigmas(monkeypatch, conjugate)
        entries = claims._check_thm_3_4(session)
        assert len(entries) == 4
        for entry in entries:
            witness = entry.witness
            assert witness["order_failures"] == witness["intersection_failures"] > 0
            assert witness["structure_failures"] == witness["parametrization_failures"]
            assert witness["even_q_searched"] == 0
            assert not entry.passed
            if substitute == "first-generator":
                # only the q = 1 cases, where A is trivial either way, keep
                # their orders, so only they verify a split
                trivial = sum(c.q == 1 for c in session.pool(entry.parameters["d"]))
                assert witness["split_verified"] == trivial
                assert witness["parametrization_failures"] > 0
            else:
                # the (n, q) facts stand; the odd-q cases moved off the blocks
                # lose their split
                assert witness["split_verified"] < witness["split_odd_cases"]
                assert witness["parametrization_failures"] == 0

    def test_failures_counted_against_another_index_2_subgroup(self, monkeypatch):
        """The index-2 subgroup has the right order, but the swap of the first
        two coordinates takes e_2 out of it: of the order checks only
        normality fails, and the unit coordinate f_1 lies outside it."""
        session, _ = thm_3_4_session()
        monkeypatch.setattr(Session, "lattice", substitute_vectors(index_2_subgroup))
        entries = claims._check_thm_3_4(session)
        assert len(entries) == 4
        for entry in entries:
            assert entry.witness["order_failures"] == even_cases(session, entry) > 0
            assert entry.witness["parametrization_failures"] == even_cases(session, entry)
            assert entry.witness["structure_failures"] == even_cases(session, entry)
            assert not entry.passed

    def test_a_kernel_without_a_skip_sum_fails_the_orders(self, monkeypatch):
        """Without its skip sum, A at n = 3 spans only f_1 and f_2, of order
        q^2, less than q^2 * q2 when q > 2; at q = 2 the skip sum is f_1 + f_2
        mod 2."""
        session = Session(RunConfig(d_max=4, n=3))
        monkeypatch.setattr(Session, "lattice", substitute_vectors(lambda n, q, v: v[:2]))
        for entry in claims._check_thm_3_4(session):
            small = sum(c.q > 2 for c in session.pool(entry.parameters["d"]))
            assert entry.witness["order_failures"] == small
            assert entry.witness["parametrization_failures"] == small
            assert entry.witness["structure_failures"] == small
            assert (small > 0) == (not entry.passed) == (entry.parameters["d"] > 2)

    def test_a_normal_kernel_of_too_small_an_order_fails_the_orders(self, monkeypatch):
        """Twice A's vectors span 2 * A, normal like A; for even q it is
        smaller than A, and only the order check tells."""
        session, _ = thm_3_4_session()
        doubled = substitute_vectors(lambda n, q, v: [[2 * x for x in u] for u in v])
        monkeypatch.setattr(Session, "lattice", doubled)
        for entry in claims._check_thm_3_4(session):
            witness = entry.witness
            assert witness["order_failures"] == even_cases(session, entry) > 0
            assert witness["structure_failures"] == witness["parametrization_failures"]
            assert not entry.passed

    def test_a_conjugate_leaving_the_block_product_fails_the_orders(self, monkeypatch):
        """Every sigma at d = 3 conjugated by (1 2), which keeps the blocks:
        sigma still maps the first block onto the second, but for tau not
        commuting with (1 2) its square is no longer tau on both blocks, so
        the conjugates of A's generators leave the block product."""
        session = Session(RunConfig(d=3, n=3))
        x = Permutation.from_cycles([(1, 2)], 6)
        corrupt_sigmas(monkeypatch, lambda case: x * sigma_of(case) * x)
        moved = sum(x * tau_of(c) * x != tau_of(c) for c in session.pool(3))
        [entry] = claims._check_thm_3_4(session)
        witness = entry.witness
        assert witness["order_failures"] == moved > 0 == witness["parametrization_failures"]
        assert not entry.passed

    # for even q, sigma times tau on block 1, which squares to tau^2 on both
    # blocks: the group these generators generate contains elements of the
    # block product outside A
    def test_failures_counted_against_an_enlarged_braid_chain(self, monkeypatch):
        session, _ = thm_3_4_session()
        corrupt_sigmas(monkeypatch, lambda c: sigma_of(c) * tau_of(c) if c.q % 2 == 0 else None)
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

    # for even q, A's vectors with (1, 0, ..., 0) added, which has no
    # coordinates
    def test_failures_counted_against_a_kernel_generator_without_coordinates(
        self, monkeypatch
    ):
        def listed(n, q, vectors):
            return None if q % 2 else [*vectors, (1,) + (0,) * (n - 1)]

        session, _ = thm_3_4_session()
        monkeypatch.setattr(Session, "lattice", substitute_vectors(listed))
        entries = claims._check_thm_3_4(session)
        assert len(entries) == 4
        for entry in entries:
            witness = entry.witness
            assert witness["parametrization_failures"] == even_cases(session, entry) > 0
            assert witness["structure_failures"] == witness["parametrization_failures"]
            assert not entry.passed


def failing_certificate(monkeypatch, target):
    """Patch Session.certificate: the target case's certificate fails."""
    certificate = Session.certificate

    def patched(self, case):
        return CaseCertificate(False, False, False) if case == target else certificate(self, case)

    monkeypatch.setattr(Session, "certificate", patched)


class TestCor310:
    def test_orders_come_from_the_certificates(self, monkeypatch):
        """On d = 3, n = 3 the orders are n! * |A| and |A| from the (n, q)
        lattice, with no stabilizer chain at all.  With one odd-q certificate
        failing, its entry lists the same orders and matrix set but is
        inconsistent, and still no chain is built; the other entry is as
        before."""
        degrees = []

        def counting(group):
            degrees.append(group.degree)
            return schreier_sims(group)

        monkeypatch.setattr(claims, "schreier_sims", counting)
        clean = claims._check_cor_3_10(Session(RunConfig(d=3, n=3)))
        assert [e.witness["orders"] for e in clean] == [[6], [162]]
        assert [e.witness["kernel_orders"] for e in clean] == [[1], [27]]
        assert degrees == [] and all(e.passed for e in clean)
        session = Session(RunConfig(d=3, n=3))
        target = next(c for c in session.pool(3) if c.q == 3)
        degrees.clear()
        failing_certificate(monkeypatch, target)
        trivial, three = claims._check_cor_3_10(session)
        assert trivial == clean[0] and not three.passed
        assert three.witness == {**clean[1].witness, "verdict": "inconsistent"}
        assert degrees == []

    def test_no_certified_case_lists_no_monodromy(self, monkeypatch):
        """With every certificate failing, the orders still come from the
        (n, q) lattice, but no case carries its matrices: the entries list
        none and are inconsistent."""
        failing = CaseCertificate(False, False, False)
        monkeypatch.setattr(Session, "certificate", lambda self, case: failing)
        entries = claims._check_cor_3_10(Session(RunConfig(d=2, n=3)))
        assert [e.witness["orders"] for e in entries] == [[6]]
        assert all(e.witness["distinct_monodromy"] == 0 and not e.passed for e in entries)


class TestProp311:
    @pytest.mark.parametrize("position", [0, -1])
    def test_each_case_is_decided_on_its_own_certificate(self, monkeypatch, position):
        """The first or the last case with q = 3 at d = 3, n = 4 gets a sigma
        that maps 1 into the first block.  The (3, 4) matrices stand, so that
        case alone counts an action mismatch: a verdict reused across cases
        of equal (q, n) would add or hide one."""
        session = Session(RunConfig(d=3, n=4))
        target = [case for case in session.pool(3) if case.q == 3][position]
        corrupted = swapped_images(sigma_of(target), 1, 4)
        corrupt_sigmas(monkeypatch, lambda case: corrupted if case == target else None)
        [entry] = claims._check_prop_3_11(session)
        witness = entry.witness
        assert witness["action_mismatches"] == 1
        assert witness["matrix_mismatches"] == witness["relation_failures"] == 0
        assert witness["kernel_failures"] == 0 and not entry.passed
        assert witness["examples"] == [f"action {corrupted}"]

    def test_relation_breaking_matrices_are_counted_not_raised(self, monkeypatch):
        """The (3, 4) lattice gets the stated matrices with the first two
        swapped: M_2 then stands two places from M_3, so the two must commute,
        and they do not.  The kernel certificate returns None for them, which
        counts a relation failure (and a kernel failure, None not being 1,
        and a formula mismatch) for each of the six q = 3 cases, and fails
        the entry."""
        session = Session(RunConfig(d=3, n=4))
        built = Session.lattice

        def patched(self, n, q):
            kl = built(self, n, q)
            mats = kl.matrices
            return replace(kl, matrices=[mats[1], mats[0], *mats[2:]]) if q == 3 else kl

        monkeypatch.setattr(Session, "lattice", patched)
        [entry] = claims._check_prop_3_11(session)
        witness = entry.witness
        threes = [sigma_of(case) for case in session.pool(3) if case.q == 3]
        assert len(threes) == 6
        assert witness["relation_failures"] == witness["kernel_failures"] == 6
        assert witness["matrix_mismatches"] == 6 and witness["action_mismatches"] == 0
        assert f"relations {threes[0]}" in witness["examples"] and not entry.passed

    @pytest.mark.parametrize(
        "config,sets",
        [
            (RunConfig(d=3, n=6, claims=("prop-3.11",)), 3),
            (RunConfig(d_max=4, n_max=4), 8),
        ],
    )
    def test_matrix_checks_once_per_distinct_matrix_set(self, monkeypatch, config, sets):
        """The kernel certificate, and the relation check within it, run once
        per distinct (q, n), q = 1 included, however many cases share the
        matrices."""
        calls = {"monodromy_kernel": 0, "_coxeter_relations_hold": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        counting(claims, "monodromy_kernel")
        counting(lattice, "_coxeter_relations_hold")
        run_verification(config)
        assert calls == {"monodromy_kernel": sets, "_coxeter_relations_hold": sets}


def subdirect_entry(monkeypatch, fault):
    """prop-3.30's relations-and-subdirect entry at d = 3, n = 3 with the
    per-orbit (factor, first, second, product, swap) image tuples
    tower_certificate reads from _walk replaced by fault(parts, d)."""
    real = groups._walk

    def faulty(spec, tau, orbits):
        *rest, parts = real(spec, tau, orbits)
        return *rest, fault(parts, spec.d)

    monkeypatch.setattr(groups, "_walk", faulty)
    report = run_verification(RunConfig(d=3, n=3, claims=("prop-3.30",)))
    [entry] = [e for e in report.entries if e.parameters["check"] == "relations-and-subdirect"]
    return entry


class TestProp330:
    def test_a_factor_moving_another_tower_fails_subdirect(self, monkeypatch):
        """With more than one u-orbit, the last factor also swaps x and x + d,
        x the least point of the first tower: every generator still agrees
        with its shifted factors on their own towers, but the group is no
        longer the product of shifts supported on disjoint towers."""

        def swap_fault(parts, d):
            if len(parts) == 1:
                return parts
            *rest, (factor, *images) = parts
            x = min(x for x, y in enumerate(parts[0][-1], start=1) if y != x)
            swap = _padded(Permutation.from_cycles([(x, x + d)]), 2 * d)
            return (*rest, (_compose(factor, swap), *images))

        entry = subdirect_entry(monkeypatch, swap_fault)
        assert entry.witness["restriction_mismatches"] == 0
        assert entry.witness["subdirect_failures"] == 10  # the multi-orbit cases
        assert not entry.passed

    def test_overlapping_towers_fail_subdirect(self, monkeypatch):
        """A duplicated first component: its tower is listed twice, so the
        towers no longer partition the points."""
        entry = subdirect_entry(monkeypatch, lambda parts, d: (parts[0], *parts))
        assert entry.witness["restriction_mismatches"] == 0
        assert entry.witness["subdirect_failures"] == entry.witness["cases"] == 18
        assert not entry.passed

    def test_a_sigma_off_the_blocks_counts_a_relation_failure(self, monkeypatch):
        """The first (1 2 3) case at d = 3, sigma = (1 4 2 5 3 6), with the
        images of 1 and 4 exchanged: (1 2 5 3 6) maps 1 into the first block,
        so it fails _block_root and has no braid image.  At each n it counts
        one relation failure and raises nothing.  The other counters read
        its images: sigma(1) is no longer its factor's, so it counts a
        restriction mismatch and a subdirect failure; its shifts leave 7
        alone, so it is not transitive and its orbits are not its one tower.
        That adds one orbit mismatch and one cor-3.31 mismatch, and breaks
        both findings: u is the identity and tau is one cycle."""
        config = RunConfig(d=3, n_max=4)
        clean = Session(config)
        clean_prop = claims._check_prop_3_30(clean)
        clean_orbits = [e for e in clean_prop if e.parameters["check"] == "orbit-partition"]
        clean_transitivity = claims._check_cor_3_31(clean)
        target = next(case for case in clean.pool(3) if str(tau_of(case)) == "(1 2 3)")
        corrupted = swapped_images(sigma_of(target), 1, 4)
        assert (str(sigma_of(target)), str(corrupted)) == ("(1 4 2 5 3 6)", "(1 2 5 3 6)")
        corrupt_sigmas(monkeypatch, lambda case: corrupted if case == target else None)
        session = Session(config)
        prop = claims._check_prop_3_30(session)
        relations = [e for e in prop if e.parameters["check"] == "relations-and-subdirect"]
        orbits = [e for e in prop if e.parameters["check"] == "orbit-partition"]
        transitivity = claims._check_cor_3_31(session)
        assert [e.parameters["n"] for e in relations] == [3, 4]
        for entry in relations:
            witness = entry.witness
            assert witness["relation_failures"] == 1
            assert witness["restriction_mismatches"] == witness["subdirect_failures"] == 1
            assert witness["examples"] == [
                f"relations {corrupted}",
                f"restriction {corrupted}",
                f"subdirect {corrupted}",
            ]
            assert not entry.passed
        for entry, before in zip(orbits, clean_orbits):
            assert entry.witness["orbit_mismatches"] == before.witness["orbit_mismatches"] + 1
            assert before.witness["finding_holds"] and not entry.witness["finding_holds"]
        for entry, before in zip(transitivity, clean_transitivity):
            assert entry.witness["mismatches"] == before.witness["mismatches"] + 1
            assert entry.witness["transitive_implies_long_cycle"]
            assert before.witness["finding_holds"] and not entry.witness["finding_holds"]

    def test_orbit_claims_build_no_image_and_take_no_product(self, monkeypatch):
        """prop-3.30 and cor-3.31 at d = 3, n = 3 to 6, once the pool is
        built: no braid image and no Permutation product.  Each of the 18
        cases gets one certificate and one tower certificate for all four n,
        and one orbit partition per n."""
        session = Session(RunConfig(d=3, n_max=6))
        pool = session.pool(3)
        images = counted(monkeypatch, groups, "braid_image")
        certificates = counted(monkeypatch, claims, "case_certificate")
        towers = counted(monkeypatch, claims, "tower_certificate")
        orbits = counted(monkeypatch, claims, "transitivity_report")
        products = []
        mul = Permutation.__mul__

        def counting(a, b):
            products.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(Permutation, "__mul__", counting)
        entries = claims._check_prop_3_30(session) + claims._check_cor_3_31(session)
        assert len(entries) == 3 * 4
        assert images == products == []
        assert len(certificates) == len(towers) == len(pool) == 18
        assert len(orbits) == 18 * 4

    def test_orbit_claims_compute_each_cases_u_orbits_once(self, monkeypatch):
        """prop-3.30 and cor-3.31 at d = 3, n = 3 to 6 read whether u is the
        identity or one cycle from the tower certificate's point sets, so
        the u-orbits of each of the 18 cases are computed once, by
        tower_certificate, for all four n."""
        session = Session(RunConfig(d=3, n_max=6))
        session.pool(3)
        orbits = counted(monkeypatch, ShuffleSpec, "orbits")
        entries = claims._check_prop_3_30(session) + claims._check_cor_3_31(session)
        assert len(entries) == 3 * 4
        assert len(orbits) == len({id(spec) for spec, in orbits}) == 18

    def test_orbit_claims_build_no_stabilizer_chain(self, monkeypatch):
        """prop-3.30 and cor-3.31 build no stabilizer chain, and neither does
        Session.taus, which lists S_3 for them."""
        degrees = []

        def counting(group):
            degrees.append(group.degree)
            return schreier_sims(group)

        monkeypatch.setattr(groups, "schreier_sims", counting)
        monkeypatch.setattr(claims, "schreier_sims", counting)
        run_verification(RunConfig(d=3, n=4, claims=("prop-3.30", "cor-3.31")))
        assert degrees == []


def lemma_3_3_identities_hold(image, kernel_gens):
    """lemma-3.3's identities by Permutation products at degree n * d, as the
    claim checked them before the certificate: the shift-down for every s,
    and the mixed identity for every r against abelian_kernel's generators."""
    d, n, tau = image.d, image.n, image.tau
    tau2 = tau * tau
    for s, gen in enumerate(image.generators, start=1):
        if gen * tau2.shift(s * d) * gen.inverse() != tau2.shift((s - 1) * d):
            return False
    for r, right in enumerate(kernel_gens[n - 1:], start=1):
        g_r1 = image.generators[r]
        left = g_r1 * kernel_gens[r - 1] * g_r1.inverse()
        if left != right or right != tau.shift((r - 1) * d) * tau.shift((r + 1) * d):
            return False
    return True


class TestChecksMatchReferences:
    # the acceptance grid; n = 6 at d = 3 as in the prop-3.11 golden; and
    # d = 5, n = 3, whose golden holds the only q = 6 cases
    @pytest.mark.parametrize(
        "d,n", [(d, n) for d in (2, 3, 4) for n in (3, 4)] + [(3, 6), (5, 3)]
    )
    def test_per_case_verdicts(self, monkeypatch, d, n):
        session = Session(RunConfig(d=d, n=n))
        for case in session.pool(d):
            image = braid_image(sigma_of(case), d, n)
            kernel = abelian_kernel(image)
            span, orders_hold, _ = extension_certificate(image, kernel)
            b_bsgs, a_bsgs = schreier_sims(image.group()), schreier_sims(kernel)
            monkeypatch.setattr(session, "pool", lambda _: [case])
            [entry] = claims._check_thm_3_4(session)
            witness = entry.witness
            assert span.order() == a_bsgs.order()
            assert span.order() * math.factorial(n) == b_bsgs.order()
            assert orders_hold == extension_holds(image, kernel, b_bsgs, a_bsgs)
            assert witness["order_failures"] == (not orders_hold)
            assert witness["parametrization_failures"] == (not box_parametrizes(image, a_bsgs))
            assert witness["intersection_failures"] == (not sweep_intersects(image, b_bsgs, a_bsgs))
            if image.q % 2:
                verified = chain_split_complement(image, a_bsgs) is not None
                assert witness["split_verified"] == verified
            else:
                count = chain_complement_search(image, a_bsgs)
                assert complement_search(image, span) == count
                assert witness["even_q_searched"] == (count is not None)
                assert witness["even_q_with_complement"] == bool(count)
            mats = monodromy_matrices(image)
            matches = matrices_match_conjugation(image, kernel.generators, mats)
            assert matches == box_matches_conjugation(image, mats)

    # the acceptance grid; n = 6 at d = 3; and d = 5, n = 4, which reaches
    # q = 4, 5 and 6 at n = 4
    @pytest.mark.parametrize(
        "d,n", [(d, n) for d in (2, 3, 4) for n in (3, 4)] + [(3, 6), (5, 4)]
    )
    def test_new_path_matches_the_degree_nd_path(self, d, n):
        """Case by case, the certificate and the (n, q) lattice decide as the
        checks at degree n * d did: the kernel's span, the orders, the
        parametrization, (1, 0, ..., 0), the matrices and their cross-check,
        the odd-q twist and lemma-3.3's identities."""
        session = Session(RunConfig(d=d, n=n))
        for case in session.pool(d):
            image = braid_image(sigma_of(case), d, n)
            kernel = abelian_kernel(image)
            span, orders_hold, parametrized = extension_certificate(image, kernel)
            mats = monodromy_matrices(image)
            certificate, kl = session.certificate(case), session.lattice(n, image.q)
            assert kl.span.order() == span.order()
            assert all(row in kl.span for row in span.rows)
            assert orders_hold == (certificate.holds and kl.orders_hold)
            assert parametrized == kl.parametrized
            assert ((1,) + (0,) * (n - 1) not in span) == kl.outside
            assert mats == kl.matrices
            matches = matrices_match_conjugation(image, kernel.generators, mats)
            assert matches == (certificate.holds and kl.actions_match)
            if image.q % 2:
                assert twist_passes_coxeter_lifts(image) == certificate.splits
            assert lemma_3_3_identities_hold(image, kernel.generators) == certificate.holds


class TestCertificateFaults:
    """One case whose certificate fails, through its sigma: the first q = 3
    case at d = 3, n = 4, with the images of 1 and 4 exchanged.  Each counter
    the certificate's docstring maps it to moves by one, and no other."""

    @pytest.fixture
    def faulty(self, monkeypatch):
        session = Session(RunConfig(d=3, n=4))
        target = next(case for case in session.pool(3) if case.q == 3)
        corrupted = swapped_images(sigma_of(target), 1, 4)
        corrupt_sigmas(monkeypatch, lambda case: corrupted if case == target else None)
        return session, corrupted

    def test_lemma_3_3_counts_a_failure(self, faulty):
        session, corrupted = faulty
        [entry] = claims._check_lemma_3_3(session)
        assert entry.witness["failures"] == 1 and not entry.passed
        assert entry.witness["examples"] == [f"certificate {corrupted}"]

    def test_thm_3_4_counts_an_order_failure_and_an_unverified_intersection(self, faulty):
        session, corrupted = faulty
        [entry] = claims._check_thm_3_4(session)
        witness = entry.witness
        assert witness["order_failures"] == witness["intersection_failures"] == 1
        assert witness["structure_failures"] == witness["parametrization_failures"] == 0
        assert witness["split_verified"] == witness["split_odd_cases"] - 1
        assert witness["examples"] == [
            f"orders {corrupted}",
            f"intersection {corrupted} unverified",
        ]
        assert not entry.passed

    def test_prop_3_11_counts_an_action_mismatch(self, faulty):
        session, corrupted = faulty
        [entry] = claims._check_prop_3_11(session)
        witness = entry.witness
        assert witness["action_mismatches"] == 1
        assert witness["matrix_mismatches"] == witness["relation_failures"] == 0
        assert witness["kernel_failures"] == 0
        assert witness["examples"] == [f"action {corrupted}"] and not entry.passed

    def test_cor_3_10_counts_the_entry_inconsistent(self, faulty, monkeypatch):
        """The q = 3 entry fails with its clean orders and matrix set; the
        q = 1 entry passes; no braid image is built to measure an order."""
        session, _ = faulty
        images = counted(monkeypatch, groups, "braid_image")
        trivial, three = claims._check_cor_3_10(session)
        assert trivial.passed and not three.passed
        assert [e.witness["orders"] for e in (trivial, three)] == [[24], [24 * 81]]
        assert [e.witness["kernel_orders"] for e in (trivial, three)] == [[1], [81]]
        assert three.witness["distinct_monodromy"] == 1
        assert three.witness["verdict"] == "inconsistent"
        assert images == []


class TestKernelClaimsBudget:
    def test_no_degree_nd_tables_and_no_per_case_readouts(self, monkeypatch):
        """The four kernel claims at d = 3, n = 6, where no even-q case falls
        within the search cap, build no table of block powers of degree 18,
        read no image tuple's exponents and build no braid image: one
        certificate per case and one lattice per (n, q), whatever the number
        of cases."""
        tables = [counted(monkeypatch, m, "_block_powers") for m in (claims, groups)]
        reads = [counted(monkeypatch, m, "_read_exponents") for m in (groups, lattice)]
        certificates = counted(monkeypatch, claims, "case_certificate")
        lattices = counted(monkeypatch, claims, "kernel_lattice")
        images = counted(monkeypatch, groups, "braid_image")
        tags = ("lemma-3.3", "thm-3.4", "cor-3.10", "prop-3.11")
        session = Session(RunConfig(d=3, n=6, claims=tags))
        entries = [e for tag in tags for e in claims.REGISTRY[tag](session)]
        assert all(e.passed for e in entries)
        [thm] = [e for e in entries if e.claim == "thm-3.4"]
        assert thm.witness["even_q_cases"] == 6 and thm.witness["even_q_searched"] == 0
        pairs = {(6, case.q) for case in session.pool(3)}
        assert [a for calls in tables for a in calls if a[1] * a[2] == 18] == []
        assert sum(map(len, reads)) <= len(pairs) == len(lattices) == 3
        assert len(certificates) == len(session.pool(3)) == 18
        assert images == []  # the even-q searches are refused before any image
