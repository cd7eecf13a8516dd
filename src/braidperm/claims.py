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
from dataclasses import dataclass, field
from typing import Callable

from .groups import (
    SEARCH_CAP,
    CaseCertificate,
    case_certificate,
    complement_count,
    cyclic_group,
    schreier_sims,
    symmetric_group,
    tower_certificate,
    transitivity_report,
)
from .lattice import (
    KernelLattice,
    _block_powers,
    _kernel_vectors,
    _realize,
    expected_monodromy_matrix,
    kernel_lattice,
    monodromy_kernel,
    q2_of,
)
from .oracles import D_CAP, DEFAULT_CAP, commuting_pairs, conjugacy_class_count, enumerate_shuffles, roots_by_tau
from .perm import (
    Permutation,
    _compose,
    _invert,
    _padded,
    _shifted,
    _trusted,
    centralizer_order,
    partition_count,
)
from .report import ClaimCheck, VerificationReport
from .shuffle import (
    ShuffleSpec,
    SpecError,
    _checked_pair,
    _is_braid_like,
    _pair_images,
    _walk,
    decompose_pair,
    iter_specs,
    pair_from_shuffle,
)

__all__ = ["REGISTRY", "RunConfig", "Session", "run_verification"]

RANDOM_INSTANCES = 1000  # cor-2.13 samples, spread over the shuffle cases
_POOL_FREE = frozenset({"thm-2.12", "lemma-2.4", "lemma-2.5", "cor-2.13"})  # read no Session.pool


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


def _key(p: Permutation) -> tuple[int, ...]:
    return p.canonical()


@dataclass(frozen=True)
class GridCase:
    """One shuffle permutation of the grid with its recovered spec.  key,
    sigma's and tau's image tuples, is computed once, when the case is made,
    and is the case's key in every Session cache that reads it."""

    d: int
    tau: Permutation
    sigma: Permutation
    spec: ShuffleSpec
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (_key(self.sigma), _key(self.tau)))


class Session:
    """Values shared across checkers within one run, each built on first use.

    Every accessor is one call to ``_cached`` with its own key prefix.  The
    builder is called from a lambda inside the accessor, so a miss is a
    builder call made directly from the accessor; perfbench/tracer.py counts
    cache misses by exactly that.  ``decomposition`` alone keeps nothing in a
    run that builds no case pool, and the pool takes what it kept.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        self.rng = random.Random(config.seed)
        self._cache: dict[tuple, object] = {}
        self._builds_pool = not _POOL_FREE.issuperset(config.claims or REGISTRY)

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

    def classes(self, d: int) -> list[tuple[Permutation, int]]:
        """(w, size of w's conjugacy class) for w the first member of each
        cycle type of S_d in taus order."""

        def build():
            members: dict = {}
            for w in self.taus(d):
                members.setdefault(w.cycle_type(d), []).append(w)
            return [(same[0], len(same)) for same in members.values()]

        return self._cached(("classes", d), build)

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
                    key = ("decomposition", d, pair.first.images, pair.second.images)
                    spec = self._cache.pop(key, None) or decompose_pair(pair.first, pair.second, d)
                    cases.append(GridCase(d, tau, sigma, spec))
            return cases

        return self._cached(("pool", d), build)

    def decomposition(self, d: int, first: tuple[int, ...], second: tuple[int, ...]) -> ShuffleSpec:
        """decompose_pair of the commuting pair with these degree-d image
        tuples, for lemma-2.5's round trip.  The case pool decomposes the same
        pairs, so a run with a claim that reads the pool keeps each spec until
        the pool takes it, and each pair is decomposed once; a run without
        one keeps none, which would only hold memory."""
        if not self._builds_pool:
            return decompose_pair(_trusted(first), _trusted(second), d)
        return self._cached(
            ("decomposition", d, first, second),
            lambda: decompose_pair(_trusted(first), _trusted(second), d),
        )

    def certificate(self, case: GridCase) -> CaseCertificate:
        """The case's kernel facts for every n."""
        return self._cached(
            ("certificate", case.d, case.key),
            lambda: case_certificate(case.sigma, case.tau, case.d),
        )

    def lattice(self, n: int, q: int) -> KernelLattice:
        """The kernel's span and the swap action, shared by every case of (n, q)."""
        return self._cached(("lattice", n, q), lambda: kernel_lattice(_kernel_vectors(n), q, n))

    def complements(self, n: int, q: int) -> int | None:
        """complement_count of the (n, q) span, shared by every certified case
        of (n, q); None when the span is not searchable."""
        return self._cached(
            ("complements", n, q), lambda: complement_count(self.lattice(n, q).span, n)
        )

    def kernel_size(self, n: int, q: int) -> int | None:
        """monodromy_kernel of the (n, q) matrices, None when they break the relations."""
        mats = self.lattice(n, q).matrices
        return self._cached(("kernel_size", n, q), lambda: monodromy_kernel(mats, q, q2_of(q)))

    def towers(self, case: GridCase):
        """The case's tower facts for every n."""
        return self._cached(
            ("towers", case.d, case.key), lambda: tower_certificate(case.sigma, case.spec)
        )

    def transitivity(self, case: GridCase, n: int):
        return self._cached(
            ("transitivity", case.d, n, case.key),
            lambda: transitivity_report(case.sigma, case.d, n, self.towers(case).points),
        )


def _centralizer_generators(cycles: list[tuple[int, ...]], d: int) -> list[tuple[int, ...]]:
    """Image tuples of degree d generating the centralizer in S_d of the
    permutation w with these cycles, fixed points included as 1-cycles.

    The centralizer is the product over the lengths m of Z_m wr S_k, where
    c_1, ..., c_k are w's m-cycles.  Per length this takes a rotation of c_1
    and, for k >= 2, the swap c_1[t] <-> c_2[t] and the cycling c_1[t] ->
    c_2[t] -> ... -> c_k[t] -> c_1[t].  Each commutes with w, which maps c[t]
    to c[t + 1].  The swap and the cycling generate S_k on the m-cycles, and
    conjugating the rotation by them rotates each c_i."""
    by_length: dict[int, list[tuple[int, ...]]] = {}
    for c in cycles:
        by_length.setdefault(len(c), []).append(c)
    moves = []
    for m, same in by_length.items():
        if m > 1:
            moves.append(dict(zip(same[0], same[0][1:] + same[0][:1])))
        if len(same) > 1:
            moves.append({**dict(zip(same[0], same[1])), **dict(zip(same[1], same[0]))})
            moves.append({x: y for a, b in zip(same, same[1:] + same[:1]) for x, y in zip(a, b)})
    return [tuple([move.get(x, x) for x in range(1, d + 1)]) for move in moves]


def _diagonal_generators(d: int) -> list[tuple[int, ...]]:
    """w + w, the image tuple of degree 2d of w on both blocks, for
    w = (1 2) and (1 2 ... d), which generate S_d."""
    return [
        w + tuple([y + d for y in w])
        for w in ((2, 1, *range(3, d + 1)), (*range(2, d + 1), 1))
    ]


def _conjugation_closure(start, gens: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """The image tuples in start closed under x -> g * x * g^-1 for each of
    gens, all of one degree."""
    pairs = [(g, _invert(g)) for g in gens]
    seen = set(start)
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for g, g_inv in pairs:
            y = _compose(g, _compose(x, g_inv))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def _braid_like_coset(s: Session, d: int) -> set[tuple[int, ...]]:
    """The braid-like elements of the coset swap * S_d * shift(S_d, d), as
    image tuples of degree 2d, from one braid test per diagonal orbit.

    On image tuples sigma = swap * w1 * shift(w2, d) is (w1 + d) followed by
    w2, and shift(sigma, d) is (1..d) followed by (w1 + 2d) and (w2 + d), so
    the pair is tested at degree 3d by concatenation.

    Invariance lemma: for w in S_d, sigma' = (w + w) * sigma * (w + w)^-1 is
    braid-like exactly when sigma is.  w + w commutes with the swap, so
    sigma' = swap * (w w1 w^-1) * shift(w w2 w^-1, d) is again in the coset.
    W = w + w + w at degree 3d conjugates sigma + id to sigma' + id and
    shift(sigma, d) to shift(sigma', d).  Conjugation by W is an automorphism,
    so it keeps a != b and a*b*a == b*a*b.

    So the braid-like set is a union of orbits of the diagonal S_d, which
    acts on the coordinates as (w1, w2) -> (w w1 w^-1, w w2 w^-1).  Each orbit
    meets the pairs whose w1 is the first member of its class in
    Session.taus order, and those pairs form one C(w1)-orbit of w2.  One w2
    per C(w1)-orbit gives one element per diagonal orbit: by Burnside's
    lemma, sum_lambda z_lambda of them (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 2005, ch. 4).  The braid-like ones, closed
    under conjugation by w + w for w = (1 2) and (1 2 ... d), are the whole
    braid-like set."""
    top = tuple(range(2 * d + 1, 3 * d + 1))
    members = [_padded(w, d) for w in s.taus(d)]
    braid = []
    for w1, _ in s.classes(d):
        up = tuple([y + d for y in _padded(w1, d)])
        shift_head = _shifted(up, d)  # (1..d) followed by (w1 + 2d)
        gens = _centralizer_generators(w1.cycles(include_fixed=True, degree=d), d)
        seen: set[tuple[int, ...]] = set()
        for w2 in members:
            if w2 in seen:
                continue
            seen |= _conjugation_closure((w2,), gens)
            # sigma(2d) = w2(d) <= d, so this degree-2d tuple is canonical
            sigma = up + w2
            if _is_braid_like(sigma + top, shift_head + tuple([y + d for y in w2])):
                braid.append(sigma)
    return _conjugation_closure(braid, _diagonal_generators(d))


def _check_thm_2_12(s: Session) -> list[ClaimCheck]:
    """Equivalence of braid-likeness, block-split squares (membership in the
    root sweep's buckets), and shuffle membership over the whole coset, plus
    the counting and set identities.

    The root and shuffle sets are compared in full; braid-likeness is read
    from _braid_like_coset, one test per diagonal orbit.  A coset element
    disagrees when it is in one of the three sets and not in another, and
    the examples are the least of them as image tuples: Session.taus is in
    image-tuple order, so this is the order of a sweep over (w1, w2)."""
    entries = []
    for d in s.config.ds():
        shuffle_all = {p.canonical() for tau in s.taus(d) for p in s.shuffles(d, tau).elements}
        roots_all = {p.canonical() for tau in s.taus(d) for p in s.roots(d, tau).elements}
        braid = _braid_like_coset(s, d)
        # a coset element's canonical tuple has degree 2d and maps [1, d] above d
        disagreements = sorted(
            x
            for x in (braid ^ roots_all) | (braid ^ shuffle_all)
            if len(x) == 2 * d and min(x[:d]) > d
        )
        entries.append(
            ClaimCheck(
                claim="thm-2.12",
                parameters={"d": d, "check": "equivalence"},
                witness={
                    "coset_size": len(s.taus(d)) ** 2,
                    "braid_like": len(braid),
                    "disagreement_count": len(disagreements),
                    "examples": [str(_trusted(x)) for x in disagreements[:3]],
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
    formula, per-orbit commutation, product recovery, rotation redundancy,
    decided on the specs over one tau per conjugacy class of S_d.

    Relabeling lemma: for w in S_d, relabeling a spec's cycles and starting
    points by w is a bijection from the specs over tau onto the specs over
    w tau w^-1, whose inverse relabels by w^-1.  It conjugates every output
    of _walk by w, or by w + w at degree 2d: the step (i, j, tau(i)) becomes
    (w(i), w(j), w(tau(i))), and w tau w^-1 maps w(i) to w(tau(i)).  The
    u-orbits, their points and so their swaps are relabeled with them, and
    the factors, with disjoint supports, multiply to sigma in any order.  A
    spec's rotation, (i1, j1) advanced along tau, relabels to the rotation of
    its relabeling.  Conjugation is an automorphism and w + w commutes with
    the block swap, so each of the six identities holds for a spec exactly
    when it holds for its relabeling, and every failure count is a class
    function of tau.  So the counts over S_d are the representatives'
    counts weighted by their class sizes; the examples are the
    representatives' own.

    Each spec over a representative is walked once, with tau's image tuple
    padded and u's orbits computed once per tau and u, and the walk gives
    sigma, the pair and the per-orbit components, keyed on the spec's
    choices; a spec's rotation is looked up there, and a missing one fails.
    Every comparison is between image tuples.  first and shift(second, d)
    act on disjoint blocks, so their product is first followed by (second +
    d); the block swap exchanges the two d-blocks, so swap * first *
    shift(second, d) is (first + d) followed by second.  A pair that does
    not commute or multiply to tau counts against pair_product."""
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
        for tau, size in s.classes(d):
            images = _padded(tau, d)
            step = (0, *images)
            walks, u = {}, None
            for spec in iter_specs(tau, d):
                if spec.u != u:  # iter_specs yields the specs of one u together
                    u, orbits = spec.u, spec.orbits()
                walks[spec.choices] = (spec, *_walk(spec, images, orbits))
            for spec, sigma, first, second, parts in walks.values():
                spec_count += size
                try:
                    _checked_pair(first, second, images)
                except SpecError as exc:
                    failures["pair_product"] += size
                    examples.append(f"pair_product {spec.to_json_dict()}: {exc}")
                else:
                    if tuple([x + d for x in first]) + second != sigma:
                        failures["factorization"] += size
                        examples.append(f"factorization {spec.to_json_dict()}")
                prod = ident
                for factor, first, second, product, swap in parts:
                    prod = _compose(prod, factor)
                    if _compose(swap, first + tuple([y + d for y in second])) != factor:
                        failures["orbit_factor"] += size
                        examples.append(f"orbit_factor {spec.to_json_dict()}")
                    if _compose(first, second) != product or _compose(second, first) != product:
                        failures["orbit_commute"] += size
                if prod != sigma:
                    failures["factor_product"] += size
                rotated = tuple([(a, step[i1], step[j1]) for a, i1, j1 in spec.choices])
                found = walks.get(rotated)
                if found is None or found[1] != sigma:
                    failures["rotation"] += size
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
    decompose/rebuild round trip on every commuting pair of S_d: the pairs
    come from the one sweep that the counts use, the decompositions from
    Session.decomposition, which the case pool shares, and the rebuilt pair
    is compared with the given one as image tuples."""
    entries = []
    groups = []
    for d in s.config.ds():
        groups.append((f"sym-{d}", s.sym(d)))
    for text in ["(1 2)", "(1 2 3)", "(1 2 3 4)", "(1 2)(3 4)"]:
        tau = Permutation.parse(text)
        groups.append((f"cyclic-{text}", cyclic_group(tau)))
    pairs_of: dict[str, list[tuple[Permutation, Permutation]]] = {}
    for name, group in groups:
        pairs = pairs_of[name] = commuting_pairs(group, s.config.cap)
        order = schreier_sims(group).order()
        classes = conjugacy_class_count(group, s.config.cap)
        entries.append(
            ClaimCheck(
                claim="lemma-2.5",
                parameters={"group": name},
                witness={"pairs": len(pairs), "order": order, "classes": classes},
                passed=len(pairs) == order * classes,
            )
        )
    for d in s.config.ds():
        pairs = pairs_of[f"sym-{d}"]
        bad = 0
        for a, b in pairs:
            pair = _padded(a, d), _padded(b, d)
            try:
                rebuilt = _pair_images(s.decomposition(d, *pair))
            except (SpecError, RuntimeError):  # a failed round trip or rebuild
                bad += 1
                continue
            if rebuilt != pair:
                bad += 1
        entries.append(
            ClaimCheck(
                claim="lemma-2.5",
                parameters={"d": d, "check": "roundtrip"},
                witness={"commuting_pairs": len(pairs), "roundtrip_failures": bad},
                passed=bad == 0
                and len(pairs) == math.factorial(d) * partition_count(d),
            )
        )
    return entries


def _check_cor_2_13(s: Session) -> list[ClaimCheck]:
    """Twisting by powers from the two blocks: for a = tau^k * shift(tau^l, d)
    with random k, l the square of sigma * a is the (k+l+1)-power block pair,
    and sigma * a appears in the enumeration for that power.  The cases are
    the shuffle enumerations' (d, tau, sigma) in Session.pool's order, without
    building the pool; one table of block powers per tau gives the twist, the
    target and the roots key as image tuples."""
    ds = s.config.ds()
    cases = sum(len(s.shuffles(d, tau).elements) for d in ds for tau in s.taus(d))
    reps = max(1, -(-RANDOM_INSTANCES // max(1, cases)))
    instances = 0
    failures: list[str] = []
    for d in ds:
        for tau in s.taus(d):
            shifted, _ = _block_powers(tau, d, 2)
            q = len(shifted[0])
            for sigma in s.shuffles(d, tau).elements:
                images = _padded(sigma, 2 * d)
                for _ in range(reps):
                    k = s.rng.randrange(0, 3 * q)
                    l = s.rng.randrange(0, 3 * q)
                    twisted = _compose(images, _realize(shifted, (k, l)))
                    instances += 1
                    if _compose(twisted, twisted) != _realize(shifted, (k + l + 1,) * 2):
                        failures.append(f"d={d} sigma={sigma} k={k} l={l}")
                        continue
                    power = _trusted(shifted[0][(k + l + 1) % q])
                    roots = s.roots(d, power).elements  # sorted by canonical()
                    member = _trusted(twisted)
                    at = bisect_left(roots, member.canonical(), key=Permutation.canonical)
                    if roots[at : at + 1] != (member,):
                        failures.append(f"membership d={d} sigma={sigma} k={k} l={l}")
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

    g_s = shift(sigma, (s-1)*d) and the shifted factors fix every point
    outside blocks s and s+1, where they are sigma and the factors moved up
    by (s-1)*d; adjacent g_s are shifts of (sigma, shift(sigma, d)), and
    distant ones have disjoint supports.  So the relations, restrictions and
    subdirect product hold at every n when they hold at degree 2d, and are
    decided once per case: the relations by the certificate (sigma passes
    _block_root), the rest by tower_certificate, whose point sets, one per
    u-orbit, also tell whether u is the identity.  Per (case, n): the
    orbits, from sigma's image tuple.  A sigma failing _block_root counts one
    relation failure at each n; its other counters read its images as usual.

    The orbit-partition part of the claim is refuted by computation: the
    orbits equal the towers exactly when the cycle map is the identity.  The
    refuting cases are listed in the witness.
    """
    entries = []
    for d in s.config.ds():
        pool = s.pool(d)
        failures = {"relation_failures": 0, "restriction_mismatches": 0, "subdirect_failures": 0}
        examples: list[str] = []
        for case in pool:
            towers = s.towers(case)
            for key, holds, label in (
                ("relation_failures", s.certificate(case).relations, "relations"),
                ("restriction_mismatches", towers.restrictions_match, "restriction"),
                ("subdirect_failures", towers.subdirect, "subdirect"),
            ):
                if not holds:
                    failures[key] += 1
                    examples.append(f"{label} {case.sigma}")
        # u is the identity exactly when each cycle of tau is its own u-orbit
        identity_u = [len(s.towers(case).points) == len(case.spec.u) for case in pool]
        for n in s.config.ns():
            matches = [s.transitivity(case, n).orbits_match for case in pool]
            orbit_mismatches = [str(case.sigma) for case, match in zip(pool, matches) if not match]
            refinement_holds = matches == identity_u
            entries.append(
                ClaimCheck(
                    claim="prop-3.30",
                    parameters={"d": d, "n": n, "check": "relations-and-subdirect"},
                    witness={"cases": len(pool), **failures, "examples": examples[:3]},
                    passed=not any(failures.values()),
                )
            )
            entries.append(
                ClaimCheck(
                    claim="prop-3.30",
                    parameters={"d": d, "n": n, "check": "orbit-partition"},
                    witness={
                        "cases": len(pool),
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

    Per case: the number of u-orbits, from the tower certificate's point
    sets.  Per (case, n): transitivity.
    g_s maps x + (s-1)*d to sigma(x) + (s-1)*d for x in [1, 2d] and fixes
    every other point, so the orbits are read off sigma's image tuple.

    Computation refutes the 'if' direction whenever that single orbit has
    length at least two; the direction 'transitive implies single orbit' and
    the refined criterion 'transitive exactly when tau is one single cycle'
    hold on every case and are recorded in the witness.
    """
    entries = []
    for d in s.config.ds():
        pool = s.pool(d)
        long_cycles = [len(s.towers(case).points) == 1 for case in pool]
        for n in s.config.ns():
            mismatches: list[str] = []
            only_if_holds = refined_holds = True
            for case, u_long_cycle in zip(pool, long_cycles):
                transitive = s.transitivity(case, n).transitive
                if transitive != u_long_cycle:
                    mismatches.append(str(case.sigma))
                if transitive and not u_long_cycle:
                    only_if_holds = False
                tau_single_cycle = len(case.spec.u) == 1
                if transitive != tau_single_cycle:
                    refined_holds = False
            entries.append(
                ClaimCheck(
                    claim="cor-3.31",
                    parameters={"d": d, "n": n},
                    witness={
                        "cases": len(pool),
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
    """Conjugation identities on the kernel, for every s and r: the shift-down
    g_s * shift(tau^2, s*d) * g_s^-1 = shift(tau^2, (s-1)*d), and the mixed
    g_(r+1) * g_r^2 * g_(r+1)^-1 = g_r * g_(r+1)^2 * g_r^-1, which is tau on
    blocks r and r+2.  Per case: both follow at every n from the case's
    certificate, under which g_s swaps the exponents of blocks s and s+1; a
    case without it counts as a failure at each n.

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
                if not s.certificate(case).holds:
                    failures.append(f"certificate {case.sigma}")
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
    splitting for odd q (with a neutral complement count for even q), with
    no stabilizer chain and no generator of degree n*d.  Per case: the
    certificate and its twist.  Per (n, q): the kernel lattice and the
    even-q complement count, on exponent vectors.  The lattice's
    parametrization certificate also gives the stated invariant factors
    (lattice.kernel_structure), so the structure and parametrization
    counters count one fact.  Given the certificate and the lattice's
    orders and parametrization, B & D = A, and [D : A] is 1 for odd q and
    2 for even q, where (1, 0, ..., 0) lies outside A's span; without them
    the intersection is unverified, and neither the split nor the count is
    credited to the case, nor is the count when the (n, q) span is not
    searchable."""
    entries = []
    for d in s.config.ds():
        for n in s.config.ns():
            cases = 0
            order_failures = 0
            bijection_failures = 0
            intersection_failures = 0
            split_odd = 0
            split_verified = 0
            split_even = 0
            searches: list[int | None] = []
            errors: list[str] = []
            for case in s.pool(d):
                cases += 1
                q = case.tau.order()
                certificate, lattice = s.certificate(case), s.lattice(n, q)
                orders_hold = certificate.holds and lattice.orders_hold
                if not orders_hold:
                    order_failures += 1
                    errors.append(f"orders {case.sigma}")
                if not lattice.parametrized:
                    bijection_failures += 1
                    errors.append(f"structure {case.sigma}")
                    errors.append(f"parametrization {case.sigma}")
                certified = orders_hold and lattice.parametrized
                if not certified:
                    intersection_failures += 1
                    errors.append(f"intersection {case.sigma} unverified")
                elif q % 2 == 0 and not lattice.outside:
                    intersection_failures += 1
                    errors.append(f"intersection {case.sigma} {(1,) + (0,) * (n - 1)}")
                if q % 2:
                    split_odd += 1
                    if certified and certificate.splits:
                        split_verified += 1
                    elif certified:
                        errors.append(f"split {case.sigma}: the twist fails its checks")
                else:
                    split_even += 1
                    searches.append(s.complements(n, q) if certified else None)
            searched = [count for count in searches if count is not None]
            entries.append(
                ClaimCheck(
                    claim="thm-3.4",
                    parameters={"d": d, "n": n},
                    witness={
                        "cases": cases,
                        "order_failures": order_failures,
                        "structure_failures": bijection_failures,
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
                        and not bijection_failures
                        and not intersection_failures
                        and split_verified == split_odd
                    ),
                )
            )
    return entries


def _check_cor_3_10(s: Session) -> list[ClaimCheck]:
    """For odd q the computable invariants agree across all shuffle choices:
    group order, kernel invariant factors, and monodromy matrices.  Per
    (q, n): |A| and |B| = n! * |A|, read from the lattice, listed when its
    orders and parametrization hold, else none listed.  Every certified case
    acts on the kernel by the (n, q) swap matrices, so there is one matrix
    set when some case of (q, n) is certified, else none.  A case whose
    certificate fails makes the entry inconsistent; no order is measured
    any other way.

    This is consistency evidence for independence from the particular
    permutation, not a proof of abstract isomorphism.
    """
    by_qn: dict[tuple[int, int], list[GridCase]] = {}
    for d in s.config.ds():
        for n in s.config.ns():
            for case in s.pool(d):
                q = case.tau.order()
                if q % 2:
                    by_qn.setdefault((q, n), []).append(case)
    entries = []
    for (q, n), cases in sorted(by_qn.items()):
        lattice = s.lattice(n, q)
        held = lattice.orders_hold and lattice.parametrized
        kernel_orders = [lattice.span.order()] if held else []
        certified = [s.certificate(case).holds for case in cases]
        matrix_sets = int(any(certified))
        consistent = bool(kernel_orders) and all(certified)
        entries.append(
            ClaimCheck(
                claim="cor-3.10",
                parameters={"q": q, "n": n},
                witness={
                    "sigmas": len(cases),
                    "orders": [math.factorial(n) * k for k in kernel_orders],
                    "kernel_orders": kernel_orders,
                    "distinct_monodromy": matrix_sets,
                    "verdict": "consistent-with" if consistent else "inconsistent",
                },
                passed=consistent,
            )
        )
    return entries


def _check_prop_3_11(s: Session) -> list[ClaimCheck]:
    """Monodromy matrices match the stated formulas and act faithfully.

    Per (n, q): the swap matrices, their formulas, relations, kernel and
    action on the kernel generators.  Per case: the certificate, under
    which conjugation by g_s is that swap.  For q = 1 the coordinate module
    is trivial and the whole block-permutation group acts trivially; those
    cases are reported but sit outside the claim.
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
            stated: dict[int, bool] = {}
            for case in s.pool(d):
                q = case.tau.order()
                lattice = s.lattice(n, q)
                kernel = s.kernel_size(n, q)
                if q == 1:
                    trivial_cases += 1
                    if kernel != math.factorial(n):
                        kernel_failures += 1
                        examples.append(f"trivial-kernel {case.sigma}")
                    continue
                cases += 1
                mats = lattice.matrices
                if str(q) not in matrices_by_q:
                    matrices_by_q[str(q)] = {
                        "modulus": q,
                        "last_row_modulus": q2_of(q),
                        "generators": [[v for row in m for v in row] for m in mats],
                    }
                    stated[q] = mats == [expected_monodromy_matrix(i, n, q) for i in range(1, n)]
                if not stated[q]:
                    matrix_mismatches += 1
                    examples.append(f"formula {case.sigma}")
                if kernel is None:
                    relation_failures += 1
                    examples.append(f"relations {case.sigma}")
                if not (s.certificate(case).holds and lattice.actions_match):
                    action_mismatches += 1
                    examples.append(f"action {case.sigma}")
                if kernel != 1:
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
