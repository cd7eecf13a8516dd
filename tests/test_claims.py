from itertools import product

import pytest

from braidperm import REGISTRY, RunConfig, run_verification
from braidperm.claims import Session
from braidperm.groups import schreier_sims
from braidperm.lattice import realize

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
                    g = realize(exps, case.tau, d)
                    assert (g in chain) == (g in fresh)
