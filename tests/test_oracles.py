import math

import pytest

from braidperm import RunConfig, oracles, run_verification
from braidperm.groups import cyclic_group, schreier_sims, symmetric_group
from braidperm.oracles import (
    CapExceeded,
    commuting_pairs,
    conjugacy_class_count,
    enumerate_roots,
    enumerate_shuffles,
    roots_by_tau,
)
from braidperm.perm import Permutation, partition_count
from test_perm import block_swap
from test_shuffle import is_braid_like


def perm(text):
    return Permutation.parse(text)


def counted(monkeypatch, module, name):
    """A list that grows by one entry per call of module.<name>."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestEnumerateRoots:
    def test_d2_transposition(self):
        result = enumerate_roots(symmetric_group(2), perm("(1 2)"))
        assert [str(x) for x in result.elements] == ["(1 3 2 4)", "(1 4 2 3)"]
        assert result.count == 2

    def test_d2_identity(self):
        result = enumerate_roots(symmetric_group(2), Permutation.identity(2))
        assert [str(x) for x in result.elements] == ["(1 3)(2 4)", "(1 4)(2 3)"]

    def test_trivial_group(self):
        trivial = cyclic_group(Permutation.identity(2))
        result = enumerate_roots(trivial, Permutation.identity(2))
        assert [str(x) for x in result.elements] == ["(1 3)(2 4)"]

    def test_tau_must_be_member(self):
        with pytest.raises(ValueError):
            enumerate_roots(cyclic_group(perm("(1 2 3)")), perm("(1 2)"))

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_roots(symmetric_group(4), Permutation.identity(4), cap=100)

    def test_all_roots_are_braid_like(self):
        for tau in [Permutation.identity(3), perm("(1 2)"), perm("(1 2 3)")]:
            for sigma in enumerate_roots(symmetric_group(3), tau).elements:
                assert is_braid_like(sigma, sigma.shift(3))


class TestRootsByTau:
    """The one-pass sweep against the per-tau definition."""

    GROUPS = {
        "S2": symmetric_group(2),
        "S3": symmetric_group(3),
        "S4": symmetric_group(4),
        "C3": cyclic_group(perm("(1 2 3)")),
        "trivial": cyclic_group(Permutation.identity(2)),
    }

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_buckets_match_definition(self, name):
        w = self.GROUPS[name]
        d = w.degree
        members = list(schreier_sims(w).elements())
        buckets = roots_by_tau(w)
        assert set(buckets) == {tau.canonical() for tau in members}
        swap = block_swap(1, d, 2)
        for tau in members:
            expected = set()
            for w1 in members:
                for w2 in members:
                    sigma = swap * w1 * w2.shift(d)
                    if sigma * sigma == tau * tau.shift(d):
                        expected.add(sigma)
            result = buckets[tau.canonical()]
            assert set(result.elements) == expected
            assert result.count == len(expected)
            assert result.parameters == {
                "kind": "roots",
                "d": d,
                "tau": str(tau),
                "group_order": len(members),
            }

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_counts_sum_over_symmetric_group(self, d):
        buckets = roots_by_tau(symmetric_group(d))
        assert sum(r.count for r in buckets.values()) == partition_count(d) * math.factorial(d)

    def test_cap_checked_before_the_sweep(self, monkeypatch):
        assert len(roots_by_tau(symmetric_group(4), cap=24**2)) == 24

        def no_sweep(*args):
            raise AssertionError("the sweep started before the cap check")

        # Every sweep starts by sorting the members of its group.
        monkeypatch.setattr("braidperm.oracles._sorted", no_sweep)
        with pytest.raises(CapExceeded):
            roots_by_tau(symmetric_group(4), cap=24**2 - 1)
        with pytest.raises(CapExceeded):
            enumerate_roots(symmetric_group(4), Permutation.identity(4), cap=24**2 - 1)

    def test_one_product_per_coset_element(self, monkeypatch):
        # sigma is concatenated from its pair; only the square sigma * sigma
        # is a product, so S_4's coset of 576 elements takes 576 of them.
        calls = counted(monkeypatch, oracles, "_compose")
        buckets = roots_by_tau(symmetric_group(4))
        assert len(calls) == 24**2
        assert sum(r.count for r in buckets.values()) == partition_count(4) * math.factorial(4)


class TestEnumerateShuffles:
    def test_counts(self):
        assert enumerate_shuffles(2, perm("(1 2)")).count == 2
        assert enumerate_shuffles(3, perm("(1 2 3)")).count == 3
        assert enumerate_shuffles(2, Permutation.identity(2)).count == 2

    def test_subset_of_roots(self):
        for d in (2, 3):
            sym = symmetric_group(d)
            for tau in [Permutation.identity(d), perm("(1 2)")]:
                shuffles = set(enumerate_shuffles(d, tau).elements)
                roots = set(enumerate_roots(sym, tau).elements)
                assert shuffles <= roots

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_shuffles(7, Permutation.identity(7))


class TestCommutingPairs:
    def test_counts(self):
        assert len(commuting_pairs(symmetric_group(3))) == 18
        assert len(commuting_pairs(symmetric_group(4))) == 120
        assert len(commuting_pairs(cyclic_group(Permutation.identity(1)))) == 1

    def test_cyclic_groups(self):
        for text in ["(1 2)", "(1 2 3)", "(1 2 3 4)"]:
            group = cyclic_group(perm(text))
            q = perm(text).order()
            assert len(commuting_pairs(group)) == q * q
            assert conjugacy_class_count(group) == q

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_pairs_commute_and_are_distinct(self, d):
        pairs = commuting_pairs(symmetric_group(d))
        assert all(a * b == b * a for a, b in pairs)
        assert len(set(pairs)) == len(pairs)
        members = list(schreier_sims(symmetric_group(d)).elements())
        expected = {(a, b) for a in members for b in members if a * b == b * a}
        assert set(pairs) == expected

    def test_class_counts(self):
        assert conjugacy_class_count(symmetric_group(3)) == 3
        assert conjugacy_class_count(symmetric_group(4)) == 5


class TestCountingReport:
    """The counting identities, as thm-2.12's counts entry reports them."""

    @pytest.mark.parametrize("d,total", [(2, 4), (3, 18), (5, 840)])
    def test_small_degrees(self, d, total):
        report = run_verification(RunConfig(d=d, claims=("thm-2.12",)))
        (counts,) = [e for e in report.entries if e.parameters["check"] == "counts"]
        assert counts.passed
        assert counts.witness["total_roots"] == total
        assert counts.witness["expected"] == total
        assert counts.witness["set_mismatches"] == []
        assert counts.witness["shuffle_count_mismatches"] == []

    def test_results_are_deterministic(self):
        a = enumerate_roots(symmetric_group(3), perm("(1 2 3)"))
        b = enumerate_roots(symmetric_group(3), perm("(1 2 3)"))
        assert a.elements == b.elements
        assert a.count == b.count == len(a.elements)
