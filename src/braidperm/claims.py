"""The verification suite: every structural claim checked on a parameter grid.

Each checker verifies one claim tag exhaustively over the configured grid of
block sizes d and strand counts n and returns report entries;
run_verification assembles them into a deterministic report.  The claim tags
are stable identifiers used verbatim in reports and by the CLI.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from operator import mul
from typing import Callable

from .groups import (
    SEARCH_CAP,
    BraidImage,
    SplitVerificationError,
    abelian_kernel,
    braid_image,
    braid_relations_hold,
    complement_search,
    cyclic_group,
    extension_certificate,
    schreier_sims,
    split_complement,
    symmetric_group,
    transitivity_report,
)
from .lattice import (
    _block_powers,
    _moduli,
    _read_coords,
    compose_matrices,
    expected_kernel_structure,
    expected_monodromy_matrix,
    identity_matrix,
    kernel_actions,
    kernel_structure,
    monodromy_kernel,
    monodromy_matrices,
)
from .oracles import D_CAP, DEFAULT_CAP, count_commuting_pairs, conjugacy_class_count, enumerate_shuffles, roots_by_tau
from .perm import (
    Permutation,
    _compose,
    _padded,
    _shifted,
    _trusted,
    block_swap,
    centralizer_order,
    partition_count,
)
from .report import ClaimCheck, VerificationReport
from .shuffle import (
    ShuffleSpec,
    SpecError,
    _is_braid_like,
    build_pair,
    build_shuffle,
    components,
    decompose_pair,
    iter_specs,
    pair_from_shuffle,
    shuffle_from_pair,
)

__all__ = ["REGISTRY", "RunConfig", "Session", "run_verification"]

RANDOM_INSTANCES = 1000  # cor-2.13 samples, spread over the case pool


@dataclass
class RunConfig:
    """Grid bounds and knobs for one verification run."""

    d_max: int = 3
    n_max: int = 3
    d: int | None = None
    n: int | None = None
    claims: tuple[str, ...] | None = None
    seed: int = 0
    cap: int = DEFAULT_CAP

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
            "d_cap": D_CAP,
            "random_instances": RANDOM_INSTANCES,
            "search_cap": SEARCH_CAP,
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


def _matrix_key(mats) -> tuple:
    return tuple(tuple(map(tuple, m)) for m in mats)


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
        """tau's bucket of the one root sweep over the coset of S_d."""
        return self._cached(
            ("roots", d), lambda: roots_by_tau(self.sym(d), self.config.cap)
        )[_key(tau)]

    def shuffles(self, d: int, tau: Permutation):
        return self._cached(("shuffles", d, _key(tau)), lambda: enumerate_shuffles(d, tau))

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

    def a_group(self, case: GridCase, n: int):
        return self._cached(
            ("a_group", case.d, n, _key(case.sigma)), lambda: abelian_kernel(self.image(case, n))
        )

    def extension(self, case: GridCase, n: int):
        return self._cached(
            ("extension", case.d, n, _key(case.sigma)),
            lambda: extension_certificate(self.image(case, n), self.a_group(case, n)),
        )

    def structure_holds(self, n: int, q: int) -> bool:
        """Whether the kernel lattice mod q has the stated invariant factors."""
        return self._cached(
            ("structure", n, q), lambda: kernel_structure(n, q) == expected_kernel_structure(n, q)
        )

    def monodromy(self, case: GridCase, n: int):
        return self._cached(
            ("monodromy", case.d, n, _key(case.sigma)),
            lambda: monodromy_matrices(self.image(case, n)),
        )

    def kernel_size(self, mats, q: int, q2: int) -> int:
        """monodromy_kernel(mats, q, q2), memoized exactly: it is pure in q, q2 and the entries."""
        key = ("kernel_size", q, q2, _matrix_key(mats))
        return self._cached(key, lambda: monodromy_kernel(mats, q, q2))

    def relations_hold(self, mats, q: int, q2: int) -> bool:
        """The Coxeter relation verdict, memoized exactly: it is pure in q, q2 and the entries."""
        key = ("relations", q, q2, _matrix_key(mats))
        return self._cached(key, lambda: _matrix_relations_hold(mats, len(mats[0]), q, q2))

    def transitivity(self, case: GridCase, n: int):
        return self._cached(
            ("transitivity", case.d, n, _key(case.sigma)),
            lambda: transitivity_report(self.image(case, n), case.spec),
        )


def _check_thm_2_12(s: Session) -> list[ClaimCheck]:
    """Equivalence of braid-likeness, block-split squares (membership in the
    root sweep's buckets), and shuffle membership over the whole coset, plus
    the counting and set identities."""
    entries = []
    for d in s.config.ds():
        members = [_padded(w, d) for w in s.taus(d)]
        shuffle_all = {p.canonical() for tau in s.taus(d) for p in s.shuffles(d, tau).elements}
        roots_all = {p.canonical() for tau in s.taus(d) for p in s.roots(d, tau).elements}
        swap = block_swap(1, d, 2).images
        upper = tuple(range(d + 1, 2 * d + 1))
        top = tuple(range(2 * d + 1, 3 * d + 1))
        shifted = [_shifted(w2, d) for w2 in members]
        braid_count = 0
        disagreements: list[str] = []
        for w1 in members:
            left = _compose(swap, w1 + upper)
            for w2 in shifted:
                # sigma(2d) = w2(d) <= d, so this degree-2d tuple is canonical
                sigma = _compose(left, w2)
                braid = _is_braid_like(sigma + top, _shifted(sigma, d))
                split = sigma in roots_all
                member = sigma in shuffle_all
                braid_count += braid
                if not (braid == split == member):
                    disagreements.append(str(_trusted(sigma)))
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
        ident = tuple(range(1, 2 * d + 1))
        upper = ident[d:]
        for tau in s.taus(d):
            for spec in iter_specs(tau, d):
                spec_count += 1
                sigma = build_shuffle(spec)
                try:
                    pair = build_pair(spec)
                except SpecError as exc:  # the glued maps do not commute or multiply to tau
                    failures["pair_product"] += 1
                    examples.append(f"pair_product {spec.to_json_dict()}: {exc}")
                else:
                    if shuffle_from_pair(pair.first, pair.second, d) != sigma:
                        failures["factorization"] += 1
                        examples.append(f"factorization {spec.to_json_dict()}")
                    if pair.product != tau:
                        failures["pair_product"] += 1
                        examples.append(f"pair_product {spec.to_json_dict()}")
                # the component identities, on the built image tuples of degree 2d and d
                prod = ident
                for comp in components(spec):
                    factor, product = comp.factor.images, comp.product.images
                    first, second = comp.first.images, comp.second.images
                    prod = _compose(prod, factor)
                    swapped = _compose(comp.swap.images, first + upper)
                    if _compose(swapped, _shifted(second, d)) != factor:
                        failures["orbit_factor"] += 1
                        examples.append(f"orbit_factor {spec.to_json_dict()}")
                    if _compose(first, second) != product or _compose(second, first) != product:
                        failures["orbit_commute"] += 1
                if prod != sigma.images:
                    failures["factor_product"] += 1
                rotated = ShuffleSpec(
                    d, tau, tuple((a, tau(i1), tau(j1)) for a, i1, j1 in spec.choices)
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
        members = [(w, _padded(w, d)) for w in s.taus(d)]
        checked = 0
        bad = 0
        for a, a_images in members:
            for b, b_images in members:
                if _compose(a_images, b_images) != _compose(b_images, a_images):
                    continue
                checked += 1
                try:
                    rebuilt = build_pair(decompose_pair(a, b, d))
                except (SpecError, RuntimeError):  # a failed round trip or rebuild
                    bad += 1
                    continue
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
    reps = max(1, -(-RANDOM_INSTANCES // max(1, len(pool))))
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
            roots = s.roots(case.d, power).elements  # sorted by canonical()
            at = bisect_left(roots, twisted.canonical(), key=Permutation.canonical)
            if roots[at : at + 1] != (twisted,):
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
                if not braid_relations_hold(image.generators, mul):
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
                u_is_identity = all(len(o) == 1 for o in case.spec.orbits())
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
                tau_single_cycle = len(case.spec.u) == 1
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
    """Conjugation identities on the kernel, exhaustively over s and r: the
    shift-down g_s * shift(tau^2, s*d) * g_s^-1 = shift(tau^2, (s-1)*d), and
    the mixed g_(r+1) * g_r^2 * g_(r+1)^-1 = g_r * g_(r+1)^2 * g_r^-1, which is
    tau on blocks r and r+2.  The squares and conjugates are abelian_kernel's
    generators; it raises when one leaves the block product, and that fault
    counts as a failure of the case.

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
                try:
                    kernel_gens = s.a_group(case, n).generators
                except RuntimeError as exc:
                    failures.append(f"kernel {case.sigma}: {exc}")
                    continue
                tau2 = case.tau * case.tau
                for idx, gen in enumerate(image.generators, start=1):
                    if gen * tau2.shift(idx * d) * gen.inverse() != tau2.shift((idx - 1) * d):
                        failures.append(f"shift-down s={idx} {case.sigma}")
                # kernel_gens: the n-1 squares g_r^2, then the g_r * g_(r+1)^2 * g_r^-1
                for r, right in enumerate(kernel_gens[n - 1:], start=1):
                    g_r1 = image.generators[r]
                    left = g_r1 * kernel_gens[r - 1] * g_r1.inverse()
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
    splitting for odd q (with a neutral exhaustive search for even q), read
    from extension_certificate with no stabilizer chain.  Given it, B & D = A,
    and [D : A] is 1 for odd q and 2 for even q, where (1, 0, ..., 0) lies
    outside A's span; without it the intersection is unverified, and the
    split and the search are not attempted."""
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
            searches: list[int | None] = []
            errors: list[str] = []
            for case in s.pool(d):
                cases += 1
                image = s.image(case, n)
                try:
                    span, orders_hold, parametrized = s.extension(case, n)
                except RuntimeError as exc:
                    order_failures += 1
                    errors.append(f"orders {case.sigma}: {exc}")
                    continue
                if not orders_hold:
                    order_failures += 1
                    errors.append(f"orders {case.sigma}")
                q = image.q
                if not s.structure_holds(n, q):
                    structure_failures += 1
                    errors.append(f"structure {case.sigma}")
                if not parametrized:
                    bijection_failures += 1
                    errors.append(f"parametrization {case.sigma}")
                outside = (1,) + (0,) * (n - 1)
                certified = parametrized and orders_hold
                if not certified:
                    intersection_failures += 1
                    errors.append(f"intersection {case.sigma} unverified")
                elif q % 2 == 0 and outside in span:
                    intersection_failures += 1
                    errors.append(f"intersection {case.sigma} {outside}")
                if q % 2:
                    split_odd += 1
                    try:
                        if certified and split_complement(image) is not None:
                            split_verified += 1
                    except SplitVerificationError as exc:
                        errors.append(f"split {case.sigma}: {exc}")
                else:
                    split_even += 1
                    searches.append(complement_search(image, span) if certified else None)
            searched = [count for count in searches if count is not None]
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
                        "even_q_with_complement": sum(1 for count in searched if count),
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


def _orders(s: Session, case: GridCase, n: int) -> tuple[int, int]:
    """|B| = n! * |A| and |A| from the case's certificate; from stabilizer
    chains when the certificate fails, so no order rests on a failed one."""
    span, orders_hold, parametrized = s.extension(case, n)
    if orders_hold and parametrized:
        return math.factorial(n) * span.order(), span.order()
    kernel_chain = schreier_sims(s.a_group(case, n))
    return schreier_sims(s.image(case, n).group()).order(), kernel_chain.order()


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
        orders, kernel_orders = map(set, zip(*(_orders(s, case, n) for case, n in cases)))
        mats = {_matrix_key(s.monodromy(case, n)) for case, n in cases}
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
    return all(compose_matrices(a, a, q, q2) == ident for a in mats) and braid_relations_hold(
        mats, lambda a, b: compose_matrices(a, b, q, q2)
    )


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
                    if s.kernel_size(mats, q, q2) != math.factorial(n):
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
                if mats != [expected_monodromy_matrix(idx, n, q) for idx in range(1, n)]:
                    matrix_mismatches += 1
                    examples.append(f"formula {case.sigma}")
                if not s.relations_hold(mats, q, q2):
                    relation_failures += 1
                    examples.append(f"relations {case.sigma}")
                if not _matrices_match_conjugation(image, s.a_group(case, n).generators, mats):
                    action_mismatches += 1
                    examples.append(f"action {case.sigma}")
                if s.kernel_size(mats, q, q2) != 1:
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


def _matrices_match_conjugation(image: BraidImage, kernel_gens, mats) -> bool:
    """Cross-check the matrices against conjugation of realized kernel elements.

    Both c -> M_s c and c -> coordinates of g_s * realized(c) * g_s^-1 are
    homomorphisms of the coordinate group, and homomorphisms that agree on
    generators are equal: so they are compared on the coordinates of
    kernel_gens, abelian_kernel's generators, among which the skip sums bring in h_n."""
    n, d, q = image.n, image.d, image.q
    moduli = _moduli(n, q, image.q2)
    lookups = _block_powers(image.tau, d, n)[1]
    gens = [_read_coords(_padded(k, n * d), lookups, d, q) for k in kernel_gens]
    for coords, actions in zip(gens, kernel_actions(image, gens)):
        for m, acted in zip(mats, actions):
            if tuple(sum(map(mul, row, coords)) % k for row, k in zip(m, moduli)) != acted:
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
        if not 2 <= d <= D_CAP:
            raise ValueError(f"d = {d} outside the supported range [2, {D_CAP}]")
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
