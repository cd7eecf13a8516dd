import json
import math
import random
import re
from bisect import bisect_left
from dataclasses import replace
from itertools import product

import pytest

from braidperm import REGISTRY, RunConfig, claims, groups, lattice, oracles, run_verification
from braidperm.claims import Session
from braidperm.cli import main
from braidperm.groups import (
    CaseCertificate,
    GeneratedGroup,
    abelian_kernel,
    braid_image,
    schreier_sims,
)
from braidperm.oracles import EnumerationResult
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
from braidperm.shuffle import ShuffleSpec, SpecError, _checked_pair, iter_specs
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
        corrupt_sigmas(monkeypatch, lambda case: swapped_images(case.sigma, 1, case.d + 1))
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


def corrupt_sigmas(monkeypatch, corrupt):
    """Patch Session.pool: each case's sigma replaced by corrupt(case), or
    kept when it returns None."""
    pool = Session.pool

    def patched(self, d):
        cases = pool(self, d)
        return [c if (sigma := corrupt(c)) is None else replace(c, sigma=sigma) for c in cases]

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
        """The case pool's pairs are lemma-2.5's commuting pairs of S_d, so on
        the d <= 4 grid the 4 + 18 + 120 pairs are decomposed once each,
        against 284 calls when the two decomposed separately."""
        calls = counted(monkeypatch, claims, "decompose_pair")
        report = run_verification(RunConfig(d_max=4, n_max=4))
        assert len(calls) == len({(a, b, d) for a, b, d in calls}) == 142
        assert any(e.claim == "lemma-2.5" for e in report.entries)

    @pytest.mark.parametrize("tags", [("lemma-2.5",), ("lemma-2.5", "prop-3.30")])
    def test_no_decomposition_is_left_behind(self, tags):
        """A run without a claim that reads the case pool keeps none of
        lemma-2.5's decompositions, and in a run with one the pool takes
        them all."""
        s = Session(RunConfig(d=3, n=3, claims=tags))
        for tag in tags:
            assert all(entry.passed or tag == "prop-3.30" for entry in REGISTRY[tag](s))
        assert not [key for key in s._cache if key[0] == "decomposition"]


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

    def test_one_key_per_case(self, monkeypatch):
        """prop-3.30 and lemma-3.3 at d = 3 look every case up in the Session
        caches once per n, but each case's key is computed once, when the
        pool makes the case: the number of keys does not grow with n."""
        keys = {}
        for n_max in (3, 4, 6):
            calls = counted(monkeypatch, claims, "_key")
            s = Session(RunConfig(d=3, n_max=n_max))
            entries = claims._check_prop_3_30(s) + claims._check_lemma_3_3(s)
            assert len(entries) == 3 * len(s.config.ns())
            keys[n_max] = len(calls)
            monkeypatch.undo()
        # sigma's and tau's for each of the 18 cases, and one per tau of S_3
        # for sorting the taus and one for its shuffle enumeration
        assert keys[3] == keys[4] == keys[6] == 2 * 18 + 6 + 6


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


def permutation_cor_2_13(s: Session):
    """cor-2.13 as Permutation products and powers over Session.pool: the
    reference for the checker's image-tuple twist."""
    pool = [case for d in s.config.ds() for case in s.pool(d)]
    reps = max(1, -(-claims.RANDOM_INSTANCES // max(1, len(pool))))
    instances = 0
    failures = []
    for case in pool:
        q = case.tau.order()
        for _ in range(reps):
            k = s.rng.randrange(0, 3 * q)
            l = s.rng.randrange(0, 3 * q)
            twist = (case.tau**k) * (case.tau**l).shift(case.d)
            twisted = case.sigma * twist
            power = case.tau ** (k + l + 1)
            target = power * power.shift(case.d)
            instances += 1
            if twisted * twisted != target:
                failures.append(f"d={case.d} sigma={case.sigma} k={k} l={l}")
                continue
            roots = s.roots(case.d, power).elements
            at = bisect_left(roots, twisted.canonical(), key=Permutation.canonical)
            if roots[at : at + 1] != (twisted,):
                failures.append(f"membership d={case.d} sigma={case.sigma} k={k} l={l}")
    return instances, failures


class TestCor213:
    def test_missing_root_is_a_membership_failure(self, monkeypatch):
        """With every root bucket emptied, each instance fails the membership
        lookup, and its example names the k and l drawn for it.  The taus are
        cut to the 3-cycles, on which k matters modulo 3."""
        s = Session(RunConfig(d=3, n=3, claims=("cor-2.13",)))
        taus = [tau for tau in s.taus(3) if tau.order() == 3]
        monkeypatch.setattr(s, "taus", lambda d: taus)
        monkeypatch.setattr(Session, "roots", lambda self, d, tau: EnumerationResult({}, (), 0))
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
        over the pool do; with one root dropped from the identity's bucket
        both name the same membership failures."""
        if dropped:
            identity = Permutation.identity(d)
            full = Session.roots

            def one_fewer(self, d, tau):
                result = full(self, d, tau)
                if tau != identity:
                    return result
                return EnumerationResult(result.parameters, result.elements[1:], result.count - 1)

            monkeypatch.setattr(Session, "roots", one_fewer)
        config = RunConfig(d=d, n=3, seed=seed, claims=("cor-2.13",))
        [entry] = claims._check_cor_2_13(Session(config))
        instances, failures = permutation_cor_2_13(Session(config))
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
# the diagonal S_d on S_d x S_d, by Burnside's lemma
SUM_Z = {2: 4, 3: 11, 4: 43, 5: 161, 6: 901, 7: 5579}


def centralizer_order_sum(s: Session, d: int) -> int:
    return sum(centralizer_order(t) for t in {w.cycle_type(d) for w in s.taus(d)})


def coset_images(s: Session, d: int):
    """The coset's elements (w1 + d) followed by w2, in sweep order."""
    members = [_padded(w, d) for w in s.taus(d)]
    return (tuple([y + d for y in w1]) + w2 for w1 in members for w2 in members)


def braid_like_images(sigma, d: int) -> bool:
    """Whether sigma, a permutation of [1, 2d] as image tuple, and
    shift(sigma, d) are braid-like at degree 3d."""
    return braid_test(sigma + tuple(range(2 * d + 1, 3 * d + 1)), _shifted(sigma, d))


def full_sweep_equivalence(s: Session, d: int) -> dict:
    """thm-2.12's equivalence witness at d from a sweep that tests every
    coset element for braid-likeness: the reference for the checker's one
    test per diagonal orbit.  The coset element sigma = swap * w1 *
    shift(w2, d) is (w1 + d) followed by w2, and shift(sigma, d) is (1..d)
    followed by (w1 + 2d) and (w2 + d)."""
    shuffle_all = {p.canonical() for tau in s.taus(d) for p in s.shuffles(d, tau).elements}
    roots_all = {p.canonical() for tau in s.taus(d) for p in s.roots(d, tau).elements}
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


def assert_one_disagreement(monkeypatch, accessor):
    """thm-2.12 at d = 3 with the first element of the (1 2 3) bucket of
    Session.<accessor> dropped: exactly that sigma disagrees in the
    equivalence, as in the full sweep, and the bucket mismatches in the
    counts."""
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
    assert equivalence.witness == full_sweep_equivalence(s, 3)
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

    def test_one_braid_test_per_diagonal_orbit(self, monkeypatch):
        """With roots and shuffles warm, thm-2.12 tests one coset element per
        orbit of the diagonal S_d: sum_lambda z_lambda of them, 11, 43 and
        161 at d = 3, 4 and 5, against the 36, 576 and 14,400 elements of
        the coset."""
        for d, orbits in ((3, 11), (4, 43), (5, 161)):
            s = Session(RunConfig(d=d))
            for tau in s.taus(d):
                s.roots(d, tau)
                s.shuffles(d, tau)
            calls = counted(monkeypatch, claims, "_is_braid_like")
            equivalence, counts = claims._check_thm_2_12(s)
            assert equivalence.witness["coset_size"] == math.factorial(d) ** 2
            assert equivalence.passed and counts.passed
            assert len(calls) == orbits == centralizer_order_sum(s, d)
            monkeypatch.undo()

    def test_matches_the_full_sweep(self):
        """The equivalence witness from the representatives equals the full
        sweep's on every d <= 6."""
        s = Session(RunConfig(d_max=6, claims=("thm-2.12",)))
        equivalences = claims._check_thm_2_12(s)[::2]
        assert [e.parameters["d"] for e in equivalences] == [2, 3, 4, 5, 6]
        for equivalence in equivalences:
            assert equivalence.witness == full_sweep_equivalence(s, equivalence.parameters["d"])
            assert equivalence.passed

    @pytest.mark.parametrize("added", [None, "(1 6)", "(1 2)", "(1 4)(2 5)(3 7)"])
    def test_an_added_element_disagrees_only_in_the_coset(self, monkeypatch, added):
        """An element added to both (1 2 3) buckets at d = 3.  The first coset
        element that is not braid-like (None) is the one disagreement.  The
        others lie outside the coset and are none, as in the full sweep:
        (1 6) and (1 2) move a point of [1, 3] within it, and the last maps
        [1, 3] above 3 but moves 7.  The shuffle count of (1 2 3) mismatches
        either way."""
        s = Session(RunConfig(d=3, n=3, claims=("thm-2.12",)))
        tau = Permutation.parse("(1 2 3)")
        if added is None:
            extra = next(_trusted(x) for x in coset_images(s, 3) if not braid_like_images(x, 3))
        else:
            extra = Permutation.parse(added)
        for accessor in ("roots", "shuffles"):
            full = getattr(Session, accessor)

            def one_more(self, d, t, full=full):
                result = full(self, d, t)
                if t != tau:
                    return result
                return EnumerationResult(
                    result.parameters, (*result.elements, extra), result.count + 1
                )

            monkeypatch.setattr(Session, accessor, one_more)
        equivalence, counts = claims._check_thm_2_12(s)
        assert equivalence.witness == full_sweep_equivalence(s, 3)
        assert equivalence.witness["examples"] == ([str(extra)] if added is None else [])
        assert equivalence.witness["braid_like"] == 18
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

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_representatives(self, monkeypatch, d):
        """One coset element is tested per diagonal orbit, sum_lambda z_lambda
        of them, with w1 the first member of its class in Session.taus
        order.  For d <= 6 their orbit sizes d! / |C(w1) & C(w2)| sum to
        |S_d|^2.  The braid-like set has p(d) * d! elements."""
        s = Session(RunConfig(d=d))
        calls = counted(monkeypatch, claims, "_is_braid_like")
        braid = claims._braid_like_coset(s, d)
        assert len(calls) == centralizer_order_sum(s, d) == SUM_Z[d]
        assert len(braid) == partition_count(d) * math.factorial(d)
        reps = [(tuple([y - d for y in a[:d]]), a[d : 2 * d]) for a, _ in calls]
        firsts = {}
        for w in s.taus(d):
            firsts.setdefault(w.cycle_type(d), _padded(w, d))
        assert {w1 for w1, _ in reps} == set(firsts.values())
        if d > 6:
            return
        members = [_padded(w, d) for w in s.taus(d)]
        centralizers = {w1: [g for g in members if commute(g, w1)] for w1 in firsts.values()}
        sizes = [
            math.factorial(d) // sum(commute(g, w2) for g in centralizers[w1]) for w1, w2 in reps
        ]
        assert sum(sizes) == math.factorial(d) ** 2

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_centralizer_generators(self, d):
        """The generators commute with w1 and generate its whole centralizer,
        of order z_lambda, for every class of S_d."""
        s = Session(RunConfig(d=d))
        for w in {w.cycle_type(d): w for w in s.taus(d)}.values():
            gens = claims._centralizer_generators(w.cycles(include_fixed=True, degree=d), d)
            assert all(commute(g, _padded(w, d)) for g in gens)
            group = GeneratedGroup(d, tuple(map(_trusted, gens)))
            assert schreier_sims(group).order() == centralizer_order(w.cycle_type(d))

    def test_a_non_commuting_generator_fails_the_reference(self, monkeypatch):
        """(1 2) added to every w1's centralizer generators merges C(w1)-orbits
        where it does not commute with w1, and braid-like orbits go untested."""
        real = claims._centralizer_generators

        def with_transposition(cycles, d):
            return [*real(cycles, d), (2, 1, *range(3, d + 1))]

        monkeypatch.setattr(claims, "_centralizer_generators", with_transposition)
        s = Session(RunConfig(d=4, claims=("thm-2.12",)))
        equivalence, _ = claims._check_thm_2_12(s)
        assert equivalence.witness != full_sweep_equivalence(s, 4)
        assert not equivalence.passed

    def test_a_closure_under_one_transposition_fails_the_reference(self, monkeypatch):
        """Closing the braid-like representatives under (1 2) + (1 2) alone
        misses most of each diagonal orbit."""
        real = claims._diagonal_generators
        monkeypatch.setattr(claims, "_diagonal_generators", lambda d: real(d)[:1])
        s = Session(RunConfig(d=4, claims=("thm-2.12",)))
        equivalence, _ = claims._check_thm_2_12(s)
        assert equivalence.witness != full_sweep_equivalence(s, 4)
        assert equivalence.witness["braid_like"] < 120 and not equivalence.passed


class TestLemma25:
    def test_one_sweep_per_group(self, monkeypatch):
        """lemma-2.5 at d = 4 reads its counts and its round trips from one
        commuting_pairs sweep per group, and composes nothing itself: the
        oracle's 24**2 + 2**2 + 3**2 + 4**2 + 2**2 commutation tests, one per
        ordered pair, are all, and it forms no product."""
        s = Session(RunConfig(d=4))
        own = counted(monkeypatch, claims, "_compose")
        sweeps = counted(monkeypatch, claims, "commuting_pairs")
        oracle = counted(monkeypatch, oracles, "_compose")
        tests = counted(monkeypatch, oracles, "_commute")
        entries = claims._check_lemma_2_5(s)
        assert all(e.passed for e in entries)
        assert own == oracle == []
        assert len(sweeps) == 5
        assert len(tests) == 609
        [roundtrip] = [e for e in entries if e.parameters.get("check") == "roundtrip"]
        assert roundtrip.witness == {"commuting_pairs": 120, "roundtrip_failures": 0}


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
                kernel = abelian_kernel(braid_image(case.sigma, d, n))
                key = tuple(g.canonical() for g in kernel.generators)
                if key not in by_kernel:
                    by_kernel[key] = schreier_sims(kernel)
                chain, span = by_kernel[key], s.lattice(n, case.tau.order()).span
                assert span.order() == chain.order()
                for exps in product(range(case.tau.order()), repeat=n):
                    g = realize_by_products(exps, case.tau, d)
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
    return sum(c.tau.order() % 2 == 0 for c in session.pool(entry.parameters["d"]))


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
        assert built == sorted({(n, c.tau.order()) for c, n in cases}) and len(built) == 6

    def test_a_failed_certificate_is_not_counted(self, monkeypatch):
        """An even-q case whose certificate fails is neither searched nor
        credited with the (n, q) count, which the other cases still share."""
        session = Session(RunConfig(d=3, n=3, claims=("thm-3.4",)))
        target = next(case for case in session.pool(3) if case.tau.order() == 2)
        failing_certificate(monkeypatch, target)
        [entry] = claims._check_thm_3_4(session)
        witness = entry.witness
        assert witness["even_q_cases"] == 6
        assert witness["even_q_searched"] == witness["even_q_with_complement"] == 5
        assert witness["examples"] == [
            f"orders {target.sigma}",
            f"intersection {target.sigma} unverified",
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
        threes = [case.sigma for case in session.pool(3) if case.tau.order() == 3]
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
        target = next(c for c in pool if c.tau.order() == 3)
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
                return x * case.sigma * x

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
                trivial = sum(c.tau.order() == 1 for c in session.pool(entry.parameters["d"]))
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
            small = sum(c.tau.order() > 2 for c in session.pool(entry.parameters["d"]))
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
        corrupt_sigmas(monkeypatch, lambda case: x * case.sigma * x)
        moved = sum(x * c.tau * x != c.tau for c in session.pool(3))
        [entry] = claims._check_thm_3_4(session)
        witness = entry.witness
        assert witness["order_failures"] == moved > 0 == witness["parametrization_failures"]
        assert not entry.passed

    # for even q, sigma times tau on block 1, which squares to tau^2 on both
    # blocks: the group these generators generate contains elements of the
    # block product outside A
    def test_failures_counted_against_an_enlarged_braid_chain(self, monkeypatch):
        session, _ = thm_3_4_session()
        corrupt_sigmas(monkeypatch, lambda c: c.sigma * c.tau if c.tau.order() % 2 == 0 else None)
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
        lattice, with no chain of degree 9.  With one odd-q certificate
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
        assert degrees == [3] and all(e.passed for e in clean)
        session = Session(RunConfig(d=3, n=3))
        target = next(c for c in session.pool(3) if c.tau.order() == 3)
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
        target = [case for case in session.pool(3) if case.tau.order() == 3][position]
        corrupted = swapped_images(target.sigma, 1, 4)
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
        threes = [case.sigma for case in session.pool(3) if case.tau.order() == 3]
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
    components tower_certificate reads replaced by fault(components, d)."""
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
        target = next(case for case in clean.pool(3) if str(case.tau) == "(1 2 3)")
        corrupted = swapped_images(target.sigma, 1, 4)
        assert (str(target.sigma), str(corrupted)) == ("(1 4 2 5 3 6)", "(1 2 5 3 6)")
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
        components, for all four n."""
        session = Session(RunConfig(d=3, n_max=6))
        session.pool(3)
        orbits = counted(monkeypatch, ShuffleSpec, "orbits")
        entries = claims._check_prop_3_30(session) + claims._check_cor_3_31(session)
        assert len(entries) == 3 * 4
        assert len(orbits) == len({id(spec) for spec, in orbits}) == 18

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
            image = braid_image(case.sigma, d, n)
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
            image = braid_image(case.sigma, d, n)
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
        target = next(case for case in session.pool(3) if case.tau.order() == 3)
        corrupted = swapped_images(target.sigma, 1, 4)
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
        pairs = {(6, case.tau.order()) for case in session.pool(3)}
        assert [a for calls in tables for a in calls if a[1] * a[2] == 18] == []
        assert sum(map(len, reads)) <= len(pairs) == len(lattices) == 3
        assert len(certificates) == len(session.pool(3)) == 18
        assert images == []  # the even-q searches are refused before any image
