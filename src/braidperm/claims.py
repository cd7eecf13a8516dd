"""The verification suite: every structural claim checked on a parameter grid.

Each checker verifies one claim tag exhaustively over the configured grid of
block sizes d and strand counts n and returns report entries;
run_verification assembles them into a deterministic report.  The claim tags
are stable identifiers used verbatim in reports and by the CLI.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Callable

from .groups import (
    BSGS,
    BraidImage,
    SplitVerificationError,
    abelian_kernel,
    block_split,
    braid_image,
    braid_relations_hold,
    complement_search,
    cyclic_group,
    extension_report,
    schreier_sims,
    split_complement,
    symmetric_group,
    transitivity_report,
)
from .lattice import (
    compose_matrices,
    coords_from_exponents,
    expected_kernel_structure,
    expected_monodromy_matrix,
    exponent_vector,
    identity_matrix,
    kernel_box,
    kernel_structure,
    monodromy_kernel,
    monodromy_matrices,
    parametrize_kernel,
    realize,
)
from .oracles import count_commuting_pairs, conjugacy_class_count, enumerate_roots, enumerate_shuffles
from .perm import Permutation, block_swap, centralizer_order, partition_count
from .report import ClaimCheck, VerificationReport
from .shuffle import (
    ShuffleSpec,
    build_pair,
    build_shuffle,
    component_factors,
    decompose_pair,
    is_braid_like,
    iter_specs,
    pair_from_shuffle,
    shuffle_from_pair,
)

__all__ = ["REGISTRY", "RunConfig", "Session", "run_verification"]


@dataclass
class RunConfig:
    """Grid bounds and knobs for one verification run."""

    d_max: int = 3
    n_max: int = 3
    d: int | None = None
    n: int | None = None
    claims: tuple[str, ...] | None = None
    seed: int = 0
    cap: int = 10_000_000
    d_cap: int = 6
    random_instances: int = 1000
    search_cap: int = 4096

    def ds(self) -> list[int]:
        return [self.d] if self.d is not None else list(range(2, self.d_max + 1))

    def ns(self) -> list[int]:
        return [self.n] if self.n is not None else list(range(3, self.n_max + 1))

    def to_dict(self) -> dict:
        return {
            "d_max": self.d_max,
            "n_max": self.n_max,
            "d": self.d,
            "n": self.n,
            "claims": list(self.claims) if self.claims else None,
            "cap": self.cap,
            "d_cap": self.d_cap,
            "random_instances": self.random_instances,
            "search_cap": self.search_cap,
        }


@dataclass(frozen=True)
class GridCase:
    """One shuffle permutation of the grid with its recovered spec."""

    d: int
    tau: Permutation
    sigma: Permutation
    spec: ShuffleSpec


def _key(p: Permutation) -> tuple[int, ...]:
    return p.canonical()


class Session:
    """Values shared across checkers within one run, each built on first use.

    Every accessor is one call to ``_cached`` with its own key prefix.  The
    builder is called from a lambda inside the accessor, so a miss is a
    builder call made directly from the accessor; perfbench/tracer.py counts
    cache misses by exactly that.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        self.rng = random.Random(config.seed)
        self._cache: dict[tuple, object] = {}

    def _cached(self, key: tuple, build: Callable[[], object]):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def sym(self, d: int):
        return self._cached(("sym", d), lambda: symmetric_group(d))

    def taus(self, d: int) -> list[Permutation]:
        """The members of S_d, sorted by their image tuples."""
        return self._cached(
            ("taus", d), lambda: sorted(schreier_sims(self.sym(d)).elements(), key=_key)
        )

    def roots(self, d: int, tau: Permutation):
        return self._cached(
            ("roots", d, _key(tau)), lambda: enumerate_roots(self.sym(d), tau, self.config.cap)
        )

    def shuffles(self, d: int, tau: Permutation):
        return self._cached(
            ("shuffles", d, _key(tau)), lambda: enumerate_shuffles(d, tau, self.config.d_cap)
        )

    def pool(self, d: int) -> list[GridCase]:
        def build():
            cases = []
            for tau in self.taus(d):
                for sigma in self.shuffles(d, tau).elements:
                    pair = pair_from_shuffle(sigma, d)
                    spec = decompose_pair(pair.first, pair.second, d)
                    cases.append(GridCase(d, tau, sigma, spec))
            return cases

        return self._cached(("pool", d), build)

    def image(self, case: GridCase, n: int) -> BraidImage:
        return self._cached(
            ("image", case.d, n, _key(case.sigma)), lambda: braid_image(case.sigma, case.d, n)
        )

    def b_bsgs(self, case: GridCase, n: int) -> BSGS:
        return self._cached(
            ("b_bsgs", case.d, n, _key(case.sigma)),
            lambda: schreier_sims(self.image(case, n).group()),
        )

    def a_group(self, case: GridCase, n: int):
        return self._cached(
            ("a_group", case.d, n, _key(case.sigma)), lambda: abelian_kernel(self.image(case, n))
        )

    def a_bsgs(self, case: GridCase, n: int) -> BSGS:
        return self._cached(
            ("a_bsgs", case.d, n, _key(case.sigma)), lambda: schreier_sims(self.a_group(case, n))
        )

    def monodromy(self, case: GridCase, n: int):
        return self._cached(
            ("monodromy", case.d, n, _key(case.sigma)),
            lambda: monodromy_matrices(self.image(case, n)),
        )

    def transitivity(self, case: GridCase, n: int):
        return self._cached(
            ("transitivity", case.d, n, _key(case.sigma)),
            lambda: transitivity_report(self.image(case, n), case.spec, self.b_bsgs(case, n)),
        )


def _check_thm_2_12(s: Session) -> list[ClaimCheck]:
    """Equivalence of braid-likeness, block-split squares, and shuffle
    membership over the whole coset, plus the counting and set identities."""
    entries = []
    for d in s.config.ds():
        members = s.taus(d)
        shuffle_all = set()
        for tau in s.taus(d):
            shuffle_all.update(s.shuffles(d, tau).elements)
        swap = block_swap(1, d, 2)
        braid_count = 0
        disagreements: list[str] = []
        for w1 in members:
            left = swap * w1
            for w2 in members:
                sigma = left * w2.shift(d)
                braid = is_braid_like(sigma, sigma.shift(d))
                split = block_split(sigma * sigma, d) is not None
                member = sigma in shuffle_all
                braid_count += braid
                if not (braid == split == member):
                    disagreements.append(str(sigma))
        entries.append(
            ClaimCheck(
                claim="thm-2.12",
                parameters={"d": d, "check": "equivalence"},
                witness={
                    "coset_size": len(members) ** 2,
                    "braid_like": braid_count,
                    "disagreement_count": len(disagreements),
                    "examples": disagreements[:3],
                },
                passed=not disagreements,
            )
        )
        total = 0
        set_mismatches: list[str] = []
        count_mismatches: list[str] = []
        for tau in s.taus(d):
            roots = s.roots(d, tau)
            shuffles = s.shuffles(d, tau)
            total += roots.count
            if roots.elements != shuffles.elements:
                set_mismatches.append(str(tau))
            if shuffles.count != centralizer_order(tau.cycle_type(d)):
                count_mismatches.append(str(tau))
        expected = partition_count(d) * math.factorial(d)
        entries.append(
            ClaimCheck(
                claim="thm-2.12",
                parameters={"d": d, "check": "counts"},
                witness={
                    "total_roots": total,
                    "expected": expected,
                    "set_mismatches": set_mismatches,
                    "shuffle_count_mismatches": count_mismatches,
                },
                passed=total == expected and not set_mismatches and not count_mismatches,
            )
        )
    return entries


def _check_lemma_2_4(s: Session) -> list[ClaimCheck]:
    """Per-spec identities: factorization through the pair, per-orbit factor
    formula, per-orbit commutation, product recovery, rotation redundancy."""
    entries = []
    for d in s.config.ds():
        spec_count = 0
        failures: dict[str, int] = {
            "factorization": 0,
            "orbit_factor": 0,
            "orbit_commute": 0,
            "pair_product": 0,
            "factor_product": 0,
            "rotation": 0,
        }
        examples: list[str] = []
        for tau in s.taus(d):
            for spec in iter_specs(tau, d):
                spec_count += 1
                sigma = build_shuffle(spec)
                pair = build_pair(spec)
                if shuffle_from_pair(pair.first, pair.second, d) != sigma:
                    failures["factorization"] += 1
                    examples.append(f"factorization {spec.to_json_dict()}")
                if pair.product != tau:
                    failures["pair_product"] += 1
                comps = component_factors(sigma, spec)
                prod = Permutation.identity()
                for comp in comps:
                    prod = prod * comp.factor
                    if comp.swap * comp.first * comp.second.shift(d) != comp.factor:
                        failures["orbit_factor"] += 1
                        examples.append(f"orbit_factor {spec.to_json_dict()}")
                    if (
                        comp.first * comp.second != comp.product
                        or comp.second * comp.first != comp.product
                    ):
                        failures["orbit_commute"] += 1
                if prod != sigma:
                    failures["factor_product"] += 1
                rotated = ShuffleSpec(
                    d,
                    tau,
                    spec.u,
                    tuple((a, tau(i1), tau(j1)) for a, i1, j1 in spec.choices),
                )
                if build_shuffle(rotated) != sigma:
                    failures["rotation"] += 1
        entries.append(
            ClaimCheck(
                claim="lemma-2.4",
                parameters={"d": d},
                witness={"specs": spec_count, **failures, "examples": examples[:3]},
                passed=not any(failures.values()),
            )
        )
    return entries


def _check_lemma_2_5(s: Session) -> list[ClaimCheck]:
    """Commuting-pair counts against order times class count, and the exact
    decompose/rebuild round trip on every commuting pair."""
    entries = []
    groups = []
    for d in s.config.ds():
        groups.append((f"sym-{d}", s.sym(d)))
    for text in ["(1 2)", "(1 2 3)", "(1 2 3 4)", "(1 2)(3 4)"]:
        tau = Permutation.parse(text)
        groups.append((f"cyclic-{text}", cyclic_group(tau)))
    for name, group in groups:
        pairs = count_commuting_pairs(group, s.config.cap)
        order = schreier_sims(group).order()
        classes = conjugacy_class_count(group, s.config.cap)
        entries.append(
            ClaimCheck(
                claim="lemma-2.5",
                parameters={"group": name},
                witness={"pairs": pairs, "order": order, "classes": classes},
                passed=pairs == order * classes,
            )
        )
    for d in s.config.ds():
        members = s.taus(d)
        checked = 0
        bad = 0
        for a in members:
            for b in members:
                if a * b != b * a:
                    continue
                checked += 1
                spec = decompose_pair(a, b, d)
                rebuilt = build_pair(spec)
                if rebuilt.first != a or rebuilt.second != b:
                    bad += 1
        entries.append(
            ClaimCheck(
                claim="lemma-2.5",
                parameters={"d": d, "check": "roundtrip"},
                witness={"commuting_pairs": checked, "roundtrip_failures": bad},
                passed=bad == 0
                and checked == math.factorial(d) * partition_count(d),
            )
        )
    return entries


def _check_cor_2_13(s: Session) -> list[ClaimCheck]:
    """Twisting by powers from the two blocks: for a = tau^k * shift(tau^l, d)
    with random k, l the square of sigma * a is the (k+l+1)-power block pair,
    and sigma * a appears in the enumeration for that power."""
    pool = [case for d in s.config.ds() for case in s.pool(d)]
    reps = max(1, -(-s.config.random_instances // max(1, len(pool))))
    instances = 0
    failures: list[str] = []
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
            if twisted not in s.roots(case.d, power).elements:
                failures.append(f"membership d={case.d} sigma={case.sigma} k={k} l={l}")
    return [
        ClaimCheck(
            claim="cor-2.13",
            parameters={"ds": s.config.ds(), "instances": instances},
            witness={
                "failures": len(failures),
                "examples": failures[:3],
                "note": "the twisted element sigma*a is the one landing in the "
                "enumeration for the (k+l+1)-power; the untwisted sigma does not",
            },
            passed=not failures,
        )
    ]


def _check_prop_3_30(s: Session) -> list[ClaimCheck]:
    """Braid relations, per-tower restrictions and subdirect product, and the
    stated orbit partition into towers.

    The orbit-partition part of the claim is refuted by computation: the
    orbits equal the towers exactly when the cycle map is the identity.  The
    refuting cases are listed in the witness.
    """
    entries = []
    for d in s.config.ds():
        for n in s.config.ns():
            cases = 0
            relation_failures = 0
            restriction_mismatches = 0
            subdirect_failures = 0
            orbit_mismatches: list[str] = []
            refinement_holds = True
            examples: list[str] = []
            for case in s.pool(d):
                cases += 1
                image = s.image(case, n)
                if not braid_relations_hold(image.generators):
                    relation_failures += 1
                    examples.append(f"relations {case.sigma}")
                trep = s.transitivity(case, n)
                if not trep.restrictions_match:
                    restriction_mismatches += 1
                    examples.append(f"restriction {case.sigma}")
                if not trep.subdirect:
                    subdirect_failures += 1
                    examples.append(f"subdirect {case.sigma}")
                if not trep.orbits_match:
                    orbit_mismatches.append(str(case.sigma))
                u_is_identity = all(len(o) == 1 for o in case.spec.u.orbits())
                if trep.orbits_match != u_is_identity:
                    refinement_holds = False
            entries.append(
                ClaimCheck(
                    claim="prop-3.30",
                    parameters={"d": d, "n": n, "check": "relations-and-subdirect"},
                    witness={
                        "cases": cases,
                        "relation_failures": relation_failures,
                        "restriction_mismatches": restriction_mismatches,
                        "subdirect_failures": subdirect_failures,
                        "examples": examples[:3],
                    },
                    passed=not (
                        relation_failures or restriction_mismatches or subdirect_failures
                    ),
                )
            )
            entries.append(
                ClaimCheck(
                    claim="prop-3.30",
                    parameters={"d": d, "n": n, "check": "orbit-partition"},
                    witness={
                        "cases": cases,
                        "orbit_mismatches": len(orbit_mismatches),
                        "examples": orbit_mismatches[:3],
                        "finding": "orbits equal the towers exactly when the cycle "
                        "map is the identity",
                        "finding_holds": refinement_holds,
                    },
                    passed=not orbit_mismatches,
                )
            )
    return entries


def _check_cor_3_31(s: Session) -> list[ClaimCheck]:
    """Stated criterion: transitive exactly when the cycle map is a single orbit.

    Computation refutes the 'if' direction whenever that single orbit has
    length at least two; the direction 'transitive implies single orbit' and
    the refined criterion 'transitive exactly when tau is one single cycle'
    hold on every case and are recorded in the witness.
    """
    entries = []
    for d in s.config.ds():
        for n in s.config.ns():
            mismatches: list[str] = []
            cases = 0
            only_if_holds = True
            refined_holds = True
            for case in s.pool(d):
                cases += 1
                trep = s.transitivity(case, n)
                if trep.transitive != trep.u_long_cycle:
                    mismatches.append(str(case.sigma))
                if trep.transitive and not trep.u_long_cycle:
                    only_if_holds = False
                tau_single_cycle = len(case.spec.u.cycles()) == 1
                if trep.transitive != tau_single_cycle:
                    refined_holds = False
            entries.append(
                ClaimCheck(
                    claim="cor-3.31",
                    parameters={"d": d, "n": n},
                    witness={
                        "cases": cases,
                        "mismatches": len(mismatches),
                        "examples": mismatches[:3],
                        "transitive_implies_long_cycle": only_if_holds,
                        "finding": "transitive exactly when tau is a single cycle",
                        "finding_holds": refined_holds,
                    },
                    passed=not mismatches,
                )
            )
    return entries


def _check_lemma_3_3(s: Session) -> list[ClaimCheck]:
    """Conjugation identities on the kernel, exhaustively over s and r.

    The shift exponent in the mixed identity is (r-1)*d, forced by the block
    structure; all cases are checked at that reading.
    """
    entries = []
    for d in s.config.ds():
        for n in s.config.ns():
            cases = 0
            failures: list[str] = []
            for case in s.pool(d):
                cases += 1
                image = s.image(case, n)
                kernel_gens = s.a_group(case, n).generators
                tau2 = case.tau * case.tau
                for idx in range(1, n):
                    gen = image.generators[idx - 1]
                    sq = gen * gen
                    try:
                        exponent_vector(sq, case.tau, d, n)
                    except ValueError:
                        failures.append(f"square outside product s={idx} {case.sigma}")
                    if gen * tau2.shift(idx * d) * gen.inverse() != tau2.shift((idx - 1) * d):
                        failures.append(f"shift-down s={idx} {case.sigma}")
                    for a in kernel_gens:
                        if gen * (gen * a * gen.inverse()) * gen.inverse() != a:
                            failures.append(f"involution s={idx} {case.sigma}")
                            break
                for r in range(1, n - 1):
                    g_r = image.generators[r - 1]
                    g_r1 = image.generators[r]
                    left = g_r1 * (g_r * g_r) * g_r1.inverse()
                    right = g_r * (g_r1 * g_r1) * g_r.inverse()
                    expected = case.tau.shift((r - 1) * d) * case.tau.shift((r + 1) * d)
                    if left != right or right != expected:
                        failures.append(f"mixed r={r} {case.sigma}")
            entries.append(
                ClaimCheck(
                    claim="lemma-3.3",
                    parameters={"d": d, "n": n},
                    witness={
                        "cases": cases,
                        "failures": len(failures),
                        "examples": failures[:3],
                        "shift_exponent": "(r-1)*d",
                    },
                    passed=not failures,
                )
            )
    return entries


def _check_thm_3_4(s: Session) -> list[ClaimCheck]:
    """Orders, kernel structure, parametrization, two-way intersection, and
    splitting for odd q (with a neutral exhaustive search for even q)."""
    entries = []
    for d in s.config.ds():
        for n in s.config.ns():
            cases = 0
            order_failures = 0
            structure_failures = 0
            bijection_failures = 0
            intersection_failures = 0
            split_odd = 0
            split_verified = 0
            split_even = 0
            searches: list[dict] = []
            errors: list[str] = []
            for case in s.pool(d):
                cases += 1
                image = s.image(case, n)
                try:
                    ext = extension_report(image, s.b_bsgs(case, n), s.a_bsgs(case, n))
                    if not ext.passed:
                        order_failures += 1
                        errors.append(f"orders {case.sigma}")
                except (ValueError, RuntimeError) as exc:
                    order_failures += 1
                    errors.append(f"orders {case.sigma}: {exc}")
                    continue
                q, q2 = image.q, image.q2
                if kernel_structure(n, q) != expected_kernel_structure(n, q):
                    structure_failures += 1
                    errors.append(f"structure {case.sigma}")
                a_bsgs = s.a_bsgs(case, n)
                images_of_box = [
                    parametrize_kernel(coords, case.tau, d)
                    for coords in kernel_box(n, q)
                ]
                distinct = {p.canonical() for p in images_of_box}
                in_kernel = all(p in a_bsgs for p in images_of_box)
                if not (
                    len(distinct) == len(images_of_box) == a_bsgs.order() and in_kernel
                ):
                    bijection_failures += 1
                    errors.append(f"parametrization {case.sigma}")
                b_bsgs = s.b_bsgs(case, n)
                for exps in iter_product(range(q), repeat=n):
                    g = realize(exps, case.tau, d)
                    if (g in b_bsgs) != (g in a_bsgs):
                        intersection_failures += 1
                        errors.append(f"intersection {case.sigma} {exps}")
                        break
                if q % 2:
                    split_odd += 1
                    try:
                        if split_complement(image, a_bsgs=a_bsgs) is not None:
                            split_verified += 1
                    except (SplitVerificationError, ValueError) as exc:
                        errors.append(f"split {case.sigma}: {exc}")
                else:
                    split_even += 1
                    searches.append(
                        complement_search(image, a_bsgs, s.config.search_cap)
                    )
            searched = [x for x in searches if x["searched"]]
            entries.append(
                ClaimCheck(
                    claim="thm-3.4",
                    parameters={"d": d, "n": n},
                    witness={
                        "cases": cases,
                        "order_failures": order_failures,
                        "structure_failures": structure_failures,
                        "parametrization_failures": bijection_failures,
                        "intersection_failures": intersection_failures,
                        "split_odd_cases": split_odd,
                        "split_verified": split_verified,
                        "even_q_cases": split_even,
                        "even_q_searched": len(searched),
                        "even_q_with_complement": sum(
                            1 for x in searched if x["complements_found"]
                        ),
                        "examples": errors[:3],
                        "note": "even-q cases are outside the split criterion; the "
                        "search result is reported without further claim",
                    },
                    passed=(
                        not order_failures
                        and not structure_failures
                        and not bijection_failures
                        and not intersection_failures
                        and split_verified == split_odd
                    ),
                )
            )
    return entries


def _check_cor_3_10(s: Session) -> list[ClaimCheck]:
    """For odd q the computable invariants agree across all shuffle choices:
    group order, kernel invariant factors, and monodromy matrices.

    This is consistency evidence for independence from the particular
    permutation, not a proof of abstract isomorphism.
    """
    by_qn: dict[tuple[int, int], list[tuple[GridCase, int]]] = {}
    for d in s.config.ds():
        for n in s.config.ns():
            for case in s.pool(d):
                q = case.tau.order()
                if q % 2:
                    by_qn.setdefault((q, n), []).append((case, n))
    entries = []
    for (q, n), cases in sorted(by_qn.items()):
        orders = {s.b_bsgs(case, n).order() for case, n in cases}
        kernel_orders = {s.a_bsgs(case, n).order() for case, n in cases}
        mats = {
            tuple(tuple(tuple(row) for row in m) for m in s.monodromy(case, n))
            for case, n in cases
        }
        consistent = len(orders) == 1 and len(kernel_orders) == 1 and len(mats) == 1
        entries.append(
            ClaimCheck(
                claim="cor-3.10",
                parameters={"q": q, "n": n},
                witness={
                    "sigmas": len(cases),
                    "orders": sorted(orders),
                    "kernel_orders": sorted(kernel_orders),
                    "distinct_monodromy": len(mats),
                    "verdict": "consistent-with" if consistent else "inconsistent",
                },
                passed=consistent,
            )
        )
    return entries


def _matrix_relations_hold(mats, n: int, q: int, q2: int) -> bool:
    ident = identity_matrix(n, q, q2)
    for i, a in enumerate(mats):
        if compose_matrices(a, a, q, q2) != ident:
            return False
        for j in range(i + 1, len(mats)):
            b = mats[j]
            if j - i == 1:
                aba = compose_matrices(a, compose_matrices(b, a, q, q2), q, q2)
                bab = compose_matrices(b, compose_matrices(a, b, q, q2), q, q2)
                if aba != bab:
                    return False
            elif compose_matrices(a, b, q, q2) != compose_matrices(b, a, q, q2):
                return False
    return True


def _check_prop_3_11(s: Session) -> list[ClaimCheck]:
    """Monodromy matrices match the stated formulas and act faithfully.

    For q = 1 the coordinate module is trivial and the whole block-permutation
    group acts trivially; those cases are reported but sit outside the claim.
    """
    entries = []
    for d in s.config.ds():
        for n in s.config.ns():
            cases = 0
            trivial_cases = 0
            kernel_failures = 0
            matrix_mismatches = 0
            relation_failures = 0
            action_mismatches = 0
            examples: list[str] = []
            matrices_by_q: dict[str, dict] = {}
            for case in s.pool(d):
                image = s.image(case, n)
                q, q2 = image.q, image.q2
                try:
                    mats = s.monodromy(case, n)
                except (ValueError, AssertionError) as exc:
                    matrix_mismatches += 1
                    examples.append(f"matrices {case.sigma}: {exc}")
                    continue
                if q == 1:
                    trivial_cases += 1
                    if monodromy_kernel(image, mats) != math.factorial(n):
                        kernel_failures += 1
                        examples.append(f"trivial-kernel {case.sigma}")
                    continue
                cases += 1
                matrices_by_q.setdefault(
                    str(q),
                    {
                        "modulus": q,
                        "last_row_modulus": q2,
                        "generators": [[v for row in m for v in row] for m in mats],
                    },
                )
                expected = [expected_monodromy_matrix(idx, n, q) for idx in range(1, n)]
                if mats != expected:
                    matrix_mismatches += 1
                    examples.append(f"formula {case.sigma}")
                if not _matrix_relations_hold(mats, n, q, q2):
                    relation_failures += 1
                    examples.append(f"relations {case.sigma}")
                if not _matrices_match_conjugation(s, case, n, mats):
                    action_mismatches += 1
                    examples.append(f"action {case.sigma}")
                if monodromy_kernel(image, mats) != 1:
                    kernel_failures += 1
                    examples.append(f"kernel {case.sigma}")
            entries.append(
                ClaimCheck(
                    claim="prop-3.11",
                    parameters={"d": d, "n": n},
                    witness={
                        "cases_q_ge_2": cases,
                        "trivial_q_cases": trivial_cases,
                        "kernel_failures": kernel_failures,
                        "matrix_mismatches": matrix_mismatches,
                        "relation_failures": relation_failures,
                        "action_mismatches": action_mismatches,
                        "examples": examples[:3],
                        "matrices_row_major": matrices_by_q,
                    },
                    passed=not (
                        kernel_failures
                        or matrix_mismatches
                        or relation_failures
                        or action_mismatches
                    ),
                )
            )
    return entries


def _matrices_match_conjugation(s: Session, case: GridCase, n: int, mats) -> bool:
    """Cross-check the matrices extensionally: applying a matrix to kernel
    coordinates agrees with conjugating the realized element."""
    image = s.image(case, n)
    q, q2, d = image.q, image.q2, image.d
    for coords in kernel_box(n, q):
        elem = parametrize_kernel(coords, case.tau, d)
        for idx in range(1, n):
            gen = image.generators[idx - 1]
            conj = gen * elem * gen.inverse()
            expect = coords_from_exponents(exponent_vector(conj, case.tau, d, n), q)
            mat = mats[idx - 1]
            acted = [
                sum(mat[i][j] * coords[j] for j in range(n)) for i in range(n)
            ]
            acted = tuple(
                v % (q if i < n - 1 else q2) for i, v in enumerate(acted)
            )
            if acted != expect:
                return False
    return True


REGISTRY: dict[str, Callable[[Session], list[ClaimCheck]]] = {
    "thm-2.12": _check_thm_2_12,
    "lemma-2.4": _check_lemma_2_4,
    "lemma-2.5": _check_lemma_2_5,
    "cor-2.13": _check_cor_2_13,
    "prop-3.30": _check_prop_3_30,
    "cor-3.31": _check_cor_3_31,
    "lemma-3.3": _check_lemma_3_3,
    "thm-3.4": _check_thm_3_4,
    "cor-3.10": _check_cor_3_10,
    "prop-3.11": _check_prop_3_11,
}


def run_verification(config: RunConfig | None = None) -> VerificationReport:
    """Run the configured subset of the claim registry into one report."""
    config = config or RunConfig()
    if not config.ds():
        raise ValueError(f"d_max = {config.d_max} leaves no block size d >= 2 to check")
    if not config.ns():
        raise ValueError(f"n_max = {config.n_max} leaves no strand count n >= 3 to check")
    for d in config.ds():
        if not 2 <= d <= config.d_cap:
            raise ValueError(f"d = {d} outside the supported range [2, {config.d_cap}]")
    for n in config.ns():
        if n < 3:
            raise ValueError(f"n = {n} must be at least 3")
    unknown = sorted(set(config.claims or ()) - set(REGISTRY))
    if unknown:
        raise ValueError(f"unknown claim tags: {unknown}")
    session = Session(config)
    report = VerificationReport(seed=config.seed, config=config.to_dict())
    for tag, checker in REGISTRY.items():
        if config.claims and tag not in config.claims:
            continue
        report.entries.extend(checker(session))
    return report
