import pytest

from braidperm import RunConfig, run_verification
from braidperm.groups import cyclic_group, symmetric_group
from braidperm.oracles import (
    CapExceeded,
    conjugacy_class_count,
    count_commuting_pairs,
    enumerate_roots,
    enumerate_shuffles,
)
from braidperm.perm import Permutation
from braidperm.shuffle import is_braid_like


def perm(text):
    return Permutation.parse(text)


class TestEnumerateRoots:
    def test_d2_transposition(self):
        result = enumerate_roots(symmetric_group(2), perm("(1 2)"))
        assert [str(x) for x in result.elements] == ["(1 3 2 4)", "(1 4 2 3)"]
        assert result.count == 2

    def test_d2_identity(self):
        result = enumerate_roots(symmetric_group(2), Permutation.identity(2))
        assert [str(x) for x in result.elements] == ["(1 3)(2 4)", "(1 4)(2 3)"]

    def test_trivial_group(self):
        trivial = cyclic_group(Permutation.identity(2), degree=2)
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
        assert count_commuting_pairs(symmetric_group(3)) == 18
        assert count_commuting_pairs(symmetric_group(4)) == 120
        assert count_commuting_pairs(cyclic_group(Permutation.identity(1), degree=1)) == 1

    def test_cyclic_groups(self):
        for text in ["(1 2)", "(1 2 3)", "(1 2 3 4)"]:
            group = cyclic_group(perm(text))
            q = perm(text).order()
            assert count_commuting_pairs(group) == q * q
            assert conjugacy_class_count(group) == q

    def test_class_counts(self):
        assert conjugacy_class_count(symmetric_group(3)) == 3
        assert conjugacy_class_count(symmetric_group(4)) == 5


class TestCountingReport:
    """The counting identities, as thm-2.12's counts entry reports them."""

    @pytest.mark.parametrize("d,total", [(2, 4), (3, 18)])
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
