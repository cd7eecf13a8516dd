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
from itertools import permutations
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
from .oracles import D_CAP, DEFAULT_CAP, CapExceeded, _commute
from .oracles import commuting_pairs, conjugacy_class_count, enumerate_shuffles
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
)

__all__ = ["REGISTRY", "RunConfig", "Session", "run_verification"]

RANDOM_INSTANCES = 1000  # cor-2.13 samples, spread over the shuffle cases


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
    """One shuffle permutation of the grid: tau's and sigma's image tuples, of
    degree d and 2d, which together key the case in every Session cache, the
    spec that built sigma, and q = order(tau), read once per tau by the pool."""

    d: int
    tau: tuple[int, ...]
    sigma: tuple[int, ...]
    spec: ShuffleSpec
    q: int


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

    def taus(self, d: int) -> list[Permutation]:
        """The members of S_d, sorted by their image tuples, which is the
        order itertools.permutations lists them in."""
        return self._cached(
            ("taus", d), lambda: [_trusted(w) for w in permutations(range(1, d + 1))]
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

    def fibres(self, d: int) -> list[tuple[Permutation, int, tuple]]:
        """(tau, class size, F(tau)) for each of classes(d); see _fibres."""
        return self._cached(
            ("fibres", d), lambda: _fibres(self.classes(d), self.taus(d), d, self.config.cap)
        )

    def roots(self, d: int, tau: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """tau's roots as sorted image tuples, tau's of degree d: the roots in
        the fibres over the class representatives, closed under conjugation
        by w + w, which by the fibre lemma in _fibres gives every root."""
        return self._cached(
            ("roots", d), lambda: _root_buckets(self.fibres(d), self.taus(d), d)
        )[tau]

    def shuffles(self, d: int, tau: Permutation):
        return self._cached(("shuffles", d, tau.canonical()), lambda: enumerate_shuffles(d, tau))

    def pool(self, d: int) -> list[GridCase]:
        def build():
            cases = []
            for tau in self.taus(d):
                images, q = tau.images, tau.order()
                shuffles = self.shuffles(d, tau)
                # strict: an enumeration without a spec per sigma raises ValueError
                for sigma, spec in zip(shuffles.elements, shuffles.specs, strict=True):
                    cases.append(GridCase(d, images, sigma.images, spec, q))
            return cases

        return self._cached(("pool", d), build)

    def certificate(self, case: GridCase) -> CaseCertificate:
        """The case's kernel facts for every n."""
        return self._cached(
            ("certificate", case.sigma, case.tau),
            lambda: case_certificate(case.sigma, case.tau, case.q, case.d),
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
            ("towers", case.sigma, case.tau),
            lambda: tower_certificate(case.sigma, case.tau, case.spec),
        )

    def transitivity(self, case: GridCase, n: int):
        return self._cached(
            ("transitivity", n, case.sigma, case.tau),
            lambda: transitivity_report(case.sigma, case.d, n, self.towers(case).points),
        )


def _diagonal_generators(d: int) -> list[tuple[int, ...]]:
    """w + w, the image tuple of degree 2d of w on both blocks, for
    w = (1 2) and (1 2 ... d), which generate S_d."""
    return [
        w + tuple([y + d for y in w])
        for w in ((2, 1, *range(3, d + 1)), (*range(2, d + 1), 1))
    ]


def _fibres(classes, members: list[Permutation], d: int, cap: int) -> list[tuple]:
    """(tau, size, F(tau)) for each (tau, size) of classes: the fibre F(tau)
    lists (sigma, root) for w1 over members, sigma an image tuple whose
    blocks give back w1 = sigma[:d] - d and w2 = sigma[d:].

    A coset element swap * w1 * shift(w2, d) is sigma = (w1 + d) followed by
    w2, and sigma^2 is (w2 * w1) followed by (w1 * w2 + d).  So F(tau), where
    w2 = tau * w1^-1, holds the d! elements whose square has first block
    tau, and the fibres partition the coset.  root says sigma^2 = tau
    followed by (tau + d), which in F(tau) is w1 * w2 = tau = w2 * w1: the
    pair commutes exactly when sigma is a root.  members is in image-tuple
    order, so each fibre is sorted, and sigma(2d) = w2(d) <= d, so each
    sigma is canonical.

    Fibre lemma: for w in S_d, conjugation by w + w, which commutes with the
    block swap, maps sigma to (w w1 w^-1 + d) followed by w w2 w^-1, and so
    F(tau) onto F(w tau w^-1).  It keeps braid-likeness (W = w + w + w
    conjugates sigma + id and shift(sigma, d) to sigma' + id and
    shift(sigma', d)), root-ness (it conjugates the square and its target),
    commutation of the pair, and shuffle membership (the relabeling lemma
    in _check_lemma_2_4).  Every tau is conjugate to its class's
    representative, so each count over the coset is the representatives'
    counts weighted by class size (Burnside's lemma; Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005, ch. 4).

    Round trip: for commuting (a, b), a commutes with tau = a * b.  The walk
    from any i1 on a cycle alpha of tau with j1 = a(i1) rebuilds a on alpha
    and b on a(alpha): if j_t = a(i_t), then second(j_t) = tau(i_t) = b(j_t)
    and j_(t+1) = tau(a(i_t)) = a(i_(t+1)).  decompose_pair walks from least
    points; the pair conjugated by w is rebuilt by the relabeled walk from
    other i1s, so the round trip's verdict is a class function too."""
    size = len(classes) * len(members)
    if size > cap:
        raise CapExceeded(f"the fibres' size p(d) * d! = {size} exceeds the cap {cap}")
    images = [_padded(w, d) for w in members]
    inverses = [_invert(w) for w in images]
    out = []
    for tau, class_size in classes:
        t = _padded(tau, d)
        target = t + tuple([y + d for y in t])
        fibre = []
        for w1, w1_inv in zip(images, inverses):
            w2 = _compose(t, w1_inv)
            sigma = tuple([y + d for y in w1]) + w2
            fibre.append((sigma, _compose(sigma, sigma) == target))
        out.append((tau, class_size, tuple(fibre)))
    return out


def _root_buckets(fibres, members: list[Permutation], d: int) -> dict:
    """tau's image tuple -> the sorted image tuples of tau's roots, for each
    tau of members: the fibres' roots closed under conjugation by w + w for
    w in _diagonal_generators, each filed under its square's first block."""
    gens = [(g, _invert(g)) for g in _diagonal_generators(d)]
    roots = {sigma for _, _, fibre in fibres for sigma, root in fibre if root}
    frontier = list(roots)
    while frontier:
        x = frontier.pop()
        for g, g_inv in gens:
            y = _compose(g, _compose(x, g_inv))
            if y not in roots:
                roots.add(y)
                frontier.append(y)
    found: dict[tuple[int, ...], list] = {tau.images: [] for tau in members}
    for sigma in sorted(roots):
        found[_compose(sigma, sigma)[:d]].append(sigma)
    return {tau: tuple(r) for tau, r in found.items()}


def _check_thm_2_12(s: Session) -> list[ClaimCheck]:
    """Equivalence of braid-likeness, block-split squares and shuffle
    membership over the coset, and the counting and set identities, on the
    fibres over one tau per conjugacy class (_fibres), each count weighted
    by the class size.  Each fibre element's three verdicts are tested
    directly: braid-likeness of (sigma, shift(sigma, d)) at degree 3d by
    concatenation, the root flag, and membership in tau's shuffles.  The
    examples are the representatives' own.  The roots of F(tau), sorted as
    the fibre is, are compared with tau's shuffles."""
    entries = []
    for d in s.config.ds():
        top = tuple(range(2 * d + 1, 3 * d + 1))
        braid_like = disagreements = total = 0
        examples, set_mismatches, count_mismatches = [], [], []
        for tau, size, fibre in s.fibres(d):
            shuffles = s.shuffles(d, tau)
            members = tuple([p.canonical() for p in shuffles.elements])
            found = set(members)
            roots = tuple([sigma for sigma, root in fibre if root])
            for sigma, root in fibre:
                braid = _is_braid_like(sigma + top, _shifted(sigma, d))
                braid_like += size * braid
                if not braid == root == (sigma in found):
                    disagreements += size
                    examples.append(str(_trusted(sigma)))
            total += size * len(roots)
            if roots != members:
                set_mismatches.append(str(tau))
            if shuffles.count != centralizer_order(tau.cycle_type(d)):
                count_mismatches.append(str(tau))
        entries.append(
            ClaimCheck(
                claim="thm-2.12",
                parameters={"d": d, "check": "equivalence"},
                witness={
                    "coset_size": len(s.taus(d)) ** 2,
                    "braid_like": braid_like,
                    "disagreement_count": disagreements,
                    "examples": examples[:3],
                },
                passed=not disagreements,
            )
        )
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
    decompose/rebuild round trip.  For S_d the pairs are the (w1, w2) of the
    representatives' fibres, read off sigma's blocks as w1 = sigma[:d] - d
    and w2 = sigma[d:], that pass _commute, weighted by class size (the
    fibre lemma and the round trip's class function, in _fibres); each is
    decomposed once and the rebuilt pair compared as image tuples.  The four
    cyclic groups are swept in full by commuting_pairs."""
    groups = []
    roundtrips = []
    for d in s.config.ds():
        pairs = bad = 0
        for _, size, fibre in s.fibres(d):
            for sigma, _ in fibre:
                w1, w2 = tuple([y - d for y in sigma[:d]]), sigma[d:]
                if not _commute(w1, w2):
                    continue
                pairs += size
                try:
                    rebuilt = _pair_images(decompose_pair(_trusted(w1), _trusted(w2), d))
                except (SpecError, RuntimeError):  # a failed round trip or rebuild
                    bad += size
                    continue
                if rebuilt != (w1, w2):
                    bad += size
        groups.append((f"sym-{d}", symmetric_group(d), pairs))
        roundtrips.append((d, pairs, bad))
    for text in ["(1 2)", "(1 2 3)", "(1 2 3 4)", "(1 2)(3 4)"]:
        group = cyclic_group(Permutation.parse(text))
        groups.append((f"cyclic-{text}", group, len(commuting_pairs(group, s.config.cap))))
    entries = []
    for name, group, pairs in groups:
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
    for d, pairs, bad in roundtrips:
        entries.append(
            ClaimCheck(
                claim="lemma-2.5",
                parameters={"d": d, "check": "roundtrip"},
                witness={"commuting_pairs": pairs, "roundtrip_failures": bad},
                passed=bad == 0 and pairs == math.factorial(d) * partition_count(d),
            )
        )
    return entries


def _check_cor_2_13(s: Session) -> list[ClaimCheck]:
    """Twisting by powers from the two blocks: for a = tau^k * shift(tau^l, d)
    with random k, l the square of sigma * a is the (k+l+1)-power block pair,
    and sigma * a appears in the enumeration for that power.  The cases are
    the shuffle enumerations' (d, tau, sigma) in Session.pool's order, without
    building the pool; one table of block powers per tau gives the twist, the
    target and the roots key as image tuples.  The sigmas are not read from
    Session.roots, though by thm-2.12 the two are equal: thm-2.12 compares
    them on the class representatives only, so these lookups are the run's
    one independent check of the closure Session.roots builds, on every tau."""
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
                for _ in range(reps):
                    k = s.rng.randrange(0, 3 * q)
                    l = s.rng.randrange(0, 3 * q)
                    twisted = _compose(sigma.images, _realize(shifted, (k, l)))
                    instances += 1
                    if _compose(twisted, twisted) != _realize(shifted, (k + l + 1,) * 2):
                        failures.append(f"d={d} sigma={sigma} k={k} l={l}")
                        continue
                    roots = s.roots(d, shifted[0][(k + l + 1) % q])
                    at = bisect_left(roots, twisted)
                    if roots[at : at + 1] != (twisted,):
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
                    examples.append(f"{label} {_trusted(case.sigma)}")
        # u is the identity exactly when each cycle of tau is its own u-orbit
        identity_u = [len(s.towers(case).points) == len(case.spec.u) for case in pool]
        for n in s.config.ns():
            matches = [s.transitivity(case, n).orbits_match for case in pool]
            orbit_mismatches = [case for case, match in zip(pool, matches) if not match]
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
                        "examples": [str(_trusted(c.sigma)) for c in orbit_mismatches[:3]],
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
            mismatches: list[GridCase] = []
            only_if_holds = refined_holds = True
            for case, u_long_cycle in zip(pool, long_cycles):
                transitive = s.transitivity(case, n).transitive
                if transitive != u_long_cycle:
                    mismatches.append(case)
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
                        "examples": [str(_trusted(c.sigma)) for c in mismatches[:3]],
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
                    failures.append(f"certificate {_trusted(case.sigma)}")
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
                q = case.q
                certificate, lattice = s.certificate(case), s.lattice(n, q)
                orders_hold = certificate.holds and lattice.orders_hold
                if not orders_hold:
                    order_failures += 1
                    errors.append(f"orders {_trusted(case.sigma)}")
                if not lattice.parametrized:
                    bijection_failures += 1
                    errors.append(f"structure {_trusted(case.sigma)}")
                    errors.append(f"parametrization {_trusted(case.sigma)}")
                certified = orders_hold and lattice.parametrized
                if not certified:
                    intersection_failures += 1
                    errors.append(f"intersection {_trusted(case.sigma)} unverified")
                elif q % 2 == 0 and not lattice.outside:
                    intersection_failures += 1
                    errors.append(f"intersection {_trusted(case.sigma)} {(1,) + (0,) * (n - 1)}")
                if q % 2:
                    split_odd += 1
                    if certified and certificate.splits:
                        split_verified += 1
                    elif certified:
                        errors.append(f"split {_trusted(case.sigma)}: the twist fails its checks")
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
                if case.q % 2:
                    by_qn.setdefault((case.q, n), []).append(case)
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
                q = case.q
                lattice = s.lattice(n, q)
                kernel = s.kernel_size(n, q)
                if q == 1:
                    trivial_cases += 1
                    if kernel != math.factorial(n):
                        kernel_failures += 1
                        examples.append(f"trivial-kernel {_trusted(case.sigma)}")
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
                    examples.append(f"formula {_trusted(case.sigma)}")
                if kernel is None:
                    relation_failures += 1
                    examples.append(f"relations {_trusted(case.sigma)}")
                if not (s.certificate(case).holds and lattice.actions_match):
                    action_mismatches += 1
                    examples.append(f"action {_trusted(case.sigma)}")
                if kernel != 1:
                    kernel_failures += 1
                    examples.append(f"kernel {_trusted(case.sigma)}")
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
