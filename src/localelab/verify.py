"""Seeded verification harness over the poset corpus.

Generates every poset up to a size bound, their downset frames, and the frame
homs of every pair of frames the map budget admits (an admission rule on the
|M|^|L| candidate count, not the enumeration cost), then runs the proposition
checks. Reports are plain dicts with no timestamps, so a fixed config
reproduces them byte for byte. Failures that match a documented discrepancy
are routed to the known-anomaly registry; anything else lands in
`unexplained` and fails the check that found it.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .corpus import all_posets, chain3, child_seed, corpus_frames, corpus_posets, square, two
from .errors import SizeLimit, UnknownWitness
from .hops import (
    HOperator,
    check_h,
    check_h_composition,
    check_h_universal,
    complemented_fragment,
    discrete_h,
    h_from_interior,
    initial_h,
    interior_from_h,
    is_h_continuous,
    random_h,
    trivial_h,
)
from .interior import (
    InteriorOperator,
    check_composition,
    check_interior,
    check_open_preimage,
    check_universal_property,
    discrete_op,
    initial_interior,
    is_I_continuous,
    make_continuous_op,
    op_join,
    op_le,
    op_le_gap,
    op_meet,
    random_op,
    trivial_op,
)
from .lattice import bits, heyting_identity_report, set_label
from .maps import FrameHom, enumerate_frame_homs, left_adjoint, localic_map, right_adjoint
from .points import is_spatial, points_of, spatialization
from .serialize import frame_from_json, frame_to_json
from .sublocales import (
    check_adjunction,
    enumerate_sublocales,
    generation_check,
    is_sublocale,
    size_limit,
    sub_join_mask,
    transfer_of,
)

ARTIFACT = "localelab-verification"
ARTIFACT_VERSION = 2

KNOWN_POSET_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16}


@dataclass(frozen=True)
class CorpusConfig:
    """Harness parameters; equal configs give byte-identical reports."""

    max_poset_size: int = 4
    operator_samples_per_frame: int = 100
    map_budget: int = 200_000
    seed: int = 42
    checks: tuple = ()

    def __post_init__(self):
        if self.max_poset_size < 1:
            raise ValueError("max_poset_size must be at least 1")
        if self.operator_samples_per_frame < 0:
            raise ValueError("operator_samples_per_frame must not be negative")
        if self.map_budget < 0:
            raise ValueError("map_budget must not be negative")
        object.__setattr__(self, "checks", tuple(self.checks))
        unknown = [c for c in self.checks if c not in CHECKS]
        if unknown:
            raise ValueError(f"unknown checks: {unknown}")

    def selected(self):
        if not self.checks:
            return [cid for cid, _ in CHECK_ORDER]
        wanted = set(self.checks)
        return [cid for cid, _ in CHECK_ORDER if cid in wanted]

    def to_json(self):
        return {
            "max_poset_size": self.max_poset_size,
            "operator_samples_per_frame": self.operator_samples_per_frame,
            "map_budget": self.map_budget,
            "seed": self.seed,
            "checks": self.selected(),
        }


# -- witness payload helpers ---------------------------------------------------


def _map_payload(f):
    return {
        "source": frame_to_json(f.source),
        "target": frame_to_json(f.target),
        "table": list(f.table),
    }


def _op_payload(op):
    return {"fragment": isinstance(op, HOperator), "table": list(op.table)}


def _rebuild_map(payload):
    src = frame_from_json(payload["source"])
    tgt = frame_from_json(payload["target"])
    return localic_map(src, tgt, tuple(payload["table"]))


def _rebuild_op(payload, frame):
    # ambient-bound lattice, so indices line up with transfer_of on the map
    sl = enumerate_sublocales(frame)
    table = payload["table"]
    if isinstance(table, str):
        table = {"discrete": discrete_op, "trivial": trivial_op}[table](sl).table
    return (HOperator if payload.get("fragment") else InteriorOperator)(sl, tuple(table))


# -- registry -------------------------------------------------------------------

_REGISTRY_SEED = (
    {
        "id": "sup-arrow-display-form",
        "kind": "text-discrepancy",
        "claim": "the displayed identity (vA) -> b = v(a -> b) fails; the meet "
        "form (vA) -> b = ^(a -> b) holds everywhere",
    },
    {
        "id": "sublocale-join-display-form",
        "kind": "text-discrepancy",
        "claim": "the displayed sublocale join {vM : M subset of the union} is "
        "not the join: read without the empty join it need not be a sublocale, "
        "read with it the result can be strictly too big; the implemented join "
        "is the meet of all sublocales containing the union",
    },
    {
        "id": "initial-contraction",
        "kind": "expected-fail",
        "claim": "the induced operator f_-1.i_M.f can exceed its argument; every "
        "violation at S exhibits the unit gap f_-1[f[S]] != S",
    },
    {
        "id": "initial-top",
        "kind": "expected-fail",
        "claim": "the induced operator can fail the top law; every violation "
        "exhibits f[L] != M, and the TWO -> CHAIN3 trivial instance is the "
        "canonical counterexample",
    },
    {
        "id": "initial-continuity",
        "kind": "expected-fail",
        "claim": "f need not be continuous for its own induced operator; at the "
        "top the gap is f[L] != M, elsewhere the counit gap f[f_-1[T]] != T",
    },
    {
        "id": "initial-coarseness",
        "kind": "expected-fail",
        "claim": "the induced operator need not sit below a given continuous "
        "source operator pointwise; every violation at S exhibits the unit gap",
    },
    {
        "id": "universal-interior-anomaly",
        "kind": "expected-fail",
        "claim": "the two sides of the lifting equivalence can disagree; "
        "initial-side-only failures exhibit a unit gap at the witness, "
        "composite-side-only failures exhibit f failing its own continuity "
        "at the witness",
    },
    {
        "id": "initial-h-top",
        "kind": "expected-fail",
        "claim": "the induced h operator can fail the top law exactly like its "
        "interior twin: f[L] != M, with the same TWO -> CHAIN3 instance",
    },
    {
        "id": "initial-h-continuity",
        "kind": "expected-fail",
        "claim": "f need not be h-continuous for its own induced h operator; "
        "at the top the gap is f[L] != M, elsewhere the counit gap "
        "f[f_-1[T]] != T",
    },
    {
        "id": "initial-h-coarseness",
        "kind": "expected-fail",
        "claim": "the induced h operator need not sit below a given "
        "h-continuous source operator pointwise; every violation at S "
        "exhibits the unit gap",
    },
    {
        "id": "universal-h-anomaly",
        "kind": "expected-fail",
        "claim": "the h lifting equivalence can disagree; classification "
        "matches the interior case on the cores S ^ h(S)",
    },
    {
        "id": "discrete-h-not-largest",
        "kind": "text-discrepancy",
        "claim": "the discrete h operator is not the largest h operator: the "
        "constant-top table is valid and strictly above it; discreteness tops "
        "only the contractive family",
    },
)


def _static_witnesses():
    """Precomputed falsification payloads for the text-discrepancy entries."""
    hey = heyting_identity_report(chain3())
    sup_arrow = dict(hey["sup_arrow_display_form"]["witness"])
    sup_arrow["kind"] = "heyting-sup-arrow"
    sup_arrow["frame"] = frame_to_json(chain3())

    join_form = {
        "kind": "sublocale-join-form",
        "frame": frame_to_json(square()),
        "left": ["a", "1"],
        "right": ["b", "1"],
    }

    f_up = {"source": frame_to_json(two()), "target": frame_to_json(chain3()),
            "table": [0, 2]}
    initial_top = {"kind": "initial-top", "map": f_up, "op": "trivial"}
    initial_h_top = {"kind": "initial-h-top", "map": f_up, "op": "trivial"}

    disc_h = {"kind": "discrete-h-not-largest", "frame": frame_to_json(chain3())}
    return {
        "sup-arrow-display-form": sup_arrow,
        "sublocale-join-display-form": join_form,
        "initial-top": initial_top,
        "initial-h-top": initial_h_top,
        "discrete-h-not-largest": disc_h,
    }


# -- context --------------------------------------------------------------------


class _Ctx:
    def __init__(self, config: CorpusConfig):
        self.config = config
        self.frame_cap = max(size_limit(), 1 << config.max_poset_size)
        self.map_frame_cap = size_limit()
        self.posets = list(corpus_posets(config.max_poset_size))
        self.frames = list(corpus_frames(config.max_poset_size))
        self.counts = {
            "posets": len(self.posets),
            "frames": len(self.frames),
            "maps": 0,
            "hom_candidates": 0,
            "map_pairs_skipped": 0,
            "frames_beyond_map_bound": sum(
                1 for _, fr in self.frames if fr.n > self.map_frame_cap
            ),
            "operators": 0,
        }
        self.sampling = config.operator_samples_per_frame > 0
        self.unexplained = []
        statics = _static_witnesses()
        self.registry = {}
        for entry in _REGISTRY_SEED:
            e = dict(entry)
            e["witness"] = statics.get(e["id"])
            e["status"] = "confirmed" if e["witness"] is not None else "not-observed"
            e["occurrences"] = 0
            self.registry[e["id"]] = e
        self._maps = None

    # frame-local lattice, covers the whole corpus
    def big_sl(self, frame):
        return enumerate_sublocales(frame, limit=self.frame_cap)

    # ambient-bound lattice, identical object to what transfer_of uses
    def sl(self, frame):
        return enumerate_sublocales(frame)

    def rng(self, *tag):
        return random.Random(child_seed(self.config.seed, *tag))

    def reg_hit(self, rid, build_witness=None):
        """Count an occurrence; the witness payload is built only for the
        first occurrence that brings one, since only that one is kept."""
        e = self.registry[rid]
        e["occurrences"] += 1
        e["status"] = "confirmed"
        if build_witness is not None and e["witness"] is None:
            e["witness"] = build_witness()

    def report_unexplained(self, check_id, payload):
        self.unexplained.append({"check": check_id, "payload": payload})

    def eligible_frames(self):
        return [(k, fr) for k, fr in self.frames if fr.n <= self.map_frame_cap]

    @property
    def maps(self):
        """Localic maps from every admitted frame hom, cheapest pairs first.

        The budget is an admission rule, not the enumeration cost: a pair of
        frames is admitted only while its |M|^|L| candidate count fits in
        what remains of it, and `hom_candidates` sums the admitted counts.
        The order is deterministic, so the same budget always selects the
        same maps.
        """
        if self._maps is None:
            usable = self.eligible_frames()
            pairs = []
            for i, (ka, fa) in enumerate(usable):
                for j, (kb, fb) in enumerate(usable):
                    pairs.append((fb.n ** fa.n, i, j, ka, fa, kb, fb))
            pairs.sort(key=lambda p: (p[0], p[1], p[2]))
            remaining = self.config.map_budget
            out = []
            for cost, _, _, ka, fa, kb, fb in pairs:
                if cost > remaining:
                    self.counts["map_pairs_skipped"] += 1
                    continue
                remaining -= cost
                self.counts["hom_candidates"] += cost
                for table in enumerate_frame_homs(fa, fb, budget=cost):
                    out.append(right_adjoint(FrameHom(fa, fb, table)))
            self._maps = out
            self.counts["maps"] = len(out)
        return self._maps

    def composable_pairs(self):
        """(f, g) with target(f) = source(g), in map order."""
        maps = self.maps
        by_source = {}
        for g in maps:
            # corpus frames are singletons, so identity grouping is exact
            by_source.setdefault(id(g.source), []).append(g)
        for f in maps:
            for g in by_source.get(id(f.target), ()):
                yield f, g


# -- checks ----------------------------------------------------------------------


def _check_poset_counts(ctx):
    sizes = {}
    ok = True
    for n in range(1, ctx.config.max_poset_size + 1):
        got = len(all_posets(n))
        sizes[str(n)] = got
        if n in KNOWN_POSET_COUNTS and got != KNOWN_POSET_COUNTS[n]:
            ok = False
    detail = {"sizes": sizes, "reference": {str(k): v for k, v in KNOWN_POSET_COUNTS.items()}}
    return ("pass" if ok else "fail"), detail, None


def _check_heyting_adjunction(ctx):
    triples = 0
    for key, fr in ctx.frames:
        for a in range(fr.n):
            for b in range(fr.n):
                r = fr.imp(a, b)
                for c in range(fr.n):
                    triples += 1
                    if fr.le(fr.meet(c, a), b) != fr.le(c, r):
                        witness = {
                            "kind": "static",
                            "lines": [
                                f"heyting adjunction fails on {key} at "
                                f"({fr.labels[a]}, {fr.labels[b]}, {fr.labels[c]})"
                            ],
                        }
                        return "fail", {"triples": triples}, witness
    return "pass", {"triples": triples}, None


def _check_heyting_identities(ctx):
    checked = skipped = falsified = 0
    for key, fr in ctx.frames:
        rep = heyting_identity_report(fr)
        if rep["status"] == "skip":
            skipped += 1
            continue
        checked += 1
        if rep["status"] != "pass":
            return "fail", {"frame": key}, {"kind": "static", "lines": [str(rep)]}
        if rep["sup_arrow_display_form"]["status"] == "falsified":
            falsified += 1
            ctx.reg_hit("sup-arrow-display-form")
    detail = {"frames_checked": checked, "frames_skipped": skipped,
              "display_form_falsified_on": falsified}
    return "pass", detail, None


def _check_complement_laws(ctx):
    pairs = 0
    for key, fr in ctx.frames:
        sl = ctx.big_sl(fr)
        for i in range(sl.n):
            j = sl.complement(i)
            if j is None:
                continue
            pairs += 1
            if sl.meet(i, j) != sl.bottom or sl.join(i, j) != sl.top:
                witness = {"kind": "static",
                           "lines": [f"complement laws fail on {key} at {sl.label(i)}"]}
                return "fail", {"pairs": pairs}, witness
            if sl.complement(j) != i:
                witness = {"kind": "static",
                           "lines": [f"complement not involutive on {key} at {sl.label(i)}"]}
                return "fail", {"pairs": pairs}, witness
    return "pass", {"pairs": pairs}, None


def _check_generation_property(ctx):
    checked = 0
    for key, fr in ctx.frames:
        if fr.n > 6:
            continue
        sl = ctx.big_sl(fr)
        for i in range(sl.n):
            checked += 1
            rep = generation_check(sl, sl.sub(i))
            if not rep.ok:
                witness = {"kind": "static",
                           "lines": [f"generation fails on {key} at {sl.label(i)}: {rep.to_json()}"]}
                return "fail", {"sublocales": checked}, witness
    return "pass", {"sublocales": checked}, None


def _closure_by_joins(fr, start):
    cur = start
    while True:
        add = 0
        mem = list(bits(cur))
        for i, a in enumerate(mem):
            for b in mem[i + 1:]:
                add |= 1 << fr.join(a, b)
        if not add & ~cur:
            return cur
        cur |= add


def _check_sublocale_join_oracle(ctx):
    pairs = 0
    frames_with_display_gap = 0
    for key, fr in ctx.frames:
        sl = ctx.big_sl(fr)
        display_gap = False
        for i in range(sl.n):
            for j in range(i, sl.n):
                pairs += 1
                union = sl.masks[i] | sl.masks[j]
                least = fr.full_mask
                for m in sl.masks:
                    if not union & ~m:
                        least &= m
                joined = sl.masks[sl.join(i, j)]
                if joined != least or sub_join_mask(fr, (sl.masks[i], sl.masks[j])) != least:
                    witness = {"kind": "static",
                               "lines": [f"join oracle mismatch on {key} at "
                                         f"({sl.label(i)}, {sl.label(j)})"]}
                    return "fail", {"pairs": pairs}, witness
                naive = _closure_by_joins(fr, union)
                if naive != least or not is_sublocale(fr, naive).ok:
                    display_gap = True
        if display_gap:
            frames_with_display_gap += 1
            ctx.reg_hit("sublocale-join-display-form")
    detail = {"pairs": pairs, "frames_with_display_gap": frames_with_display_gap}
    return "pass", detail, None


def _check_galois_adjunction(ctx):
    for f in ctx.maps:
        rep = check_adjunction(f)
        if not rep.ok:
            return "fail", {"maps": len(ctx.maps)}, {
                "kind": "static",
                "lines": [f"adjunction fails for {f.describe()}: {rep.witness}"],
            }
        back = left_adjoint(f.source, f.target, f.table)
        if back.table != f.adjoint.table:
            return "fail", {"maps": len(ctx.maps)}, {
                "kind": "static",
                "lines": [f"left adjoint round trip differs for {f.describe()}"],
            }
    return "pass", {"maps": len(ctx.maps), "pairs_per_map": "all"}, None


def _check_boolean_fragment(ctx):
    """Every sublocale is complemented, and there is one per set of points."""
    for (key, fr), poset in zip(ctx.frames, ctx.posets):
        sl = ctx.big_sl(fr)
        try:
            complemented_fragment(sl)
            problem = None if sl.n == 1 << poset.n else f"{sl.n} sublocales, poset size {poset.n}"
        except ValueError as exc:
            problem = str(exc)
        if problem is not None:
            witness = {"kind": "static", "lines": [f"S_l is not Boolean on {key}: {problem}"]}
            return "fail", {"frames": len(ctx.frames)}, witness
    return "pass", {"frames": len(ctx.frames)}, None


def _check_interior_axioms(ctx):
    k = ctx.config.operator_samples_per_frame
    generated = 0
    for key, fr in ctx.frames:
        sl = ctx.big_sl(fr)
        d, t = discrete_op(sl), trivial_op(sl)
        for op in (d, t, op_join([d, t]), op_meet([d, t])):
            if not check_interior(op).ok:
                return "fail", {"generated": generated}, {
                    "kind": "static", "lines": [f"named operator invalid on {key}"]}
        rng = ctx.rng("interior-ops", key)
        prev = None
        for _ in range(k):
            op = random_op(sl, rng)
            generated += 1
            rep = check_interior(op)
            if not (rep.ok and op_le(t, op) and op_le(op, d)):
                return "fail", {"generated": generated}, {
                    "kind": "static",
                    "lines": [f"generated operator breaks the axioms or bounds on {key}"]}
            if prev is not None:
                if not (check_interior(op_join([prev, op])).ok
                        and check_interior(op_meet([prev, op])).ok):
                    return "fail", {"generated": generated}, {
                        "kind": "static", "lines": [f"operator lattice op invalid on {key}"]}
            prev = op
    ctx.counts["operators"] += generated
    return "pass", {"generated": generated, "per_frame": k}, None


def _check_h_axioms(ctx):
    k = ctx.config.operator_samples_per_frame
    generated = raw_tables = 0
    for key, fr in ctx.frames:
        sl = ctx.big_sl(fr)
        d, t = discrete_h(sl), trivial_h(sl)
        for h in (d, t):
            if not check_h(h).ok:
                return "fail", {"generated": generated}, {
                    "kind": "static", "lines": [f"named h operator invalid on {key}"]}
        # h1 holds for arbitrary total tables, not just generated ones
        rng = ctx.rng("h-ops", key)
        for _ in range(min(k, 25)):
            table = tuple(rng.randrange(sl.n) for _ in range(sl.n))
            raw_tables += 1
            if not check_h(HOperator(sl, table)).passed["h1"]:
                return "fail", {"raw_tables": raw_tables}, {
                    "kind": "static", "lines": [f"h1 fails on a raw table on {key}"]}
        prev = None
        for _ in range(k):
            h = random_h(sl, rng)
            generated += 1
            if not (check_h(h).ok and op_le(t, h) and op_le(h, d)):
                return "fail", {"generated": generated}, {
                    "kind": "static", "lines": [f"generated h operator invalid on {key}"]}
            if op_meet([t, h]).table != t.table:
                return "fail", {"generated": generated}, {
                    "kind": "static", "lines": [f"trivial is not the h meet floor on {key}"]}
            if prev is not None:
                op = interior_from_h(h_from_interior(interior_from_h(h)))
                if op.table != interior_from_h(h).table:
                    return "fail", {"generated": generated}, {
                        "kind": "static", "lines": [f"h round trip differs on {key}"]}
            prev = h
        # the constant-top table is a valid h operator strictly above discrete
        const_top = HOperator(sl, (sl.top,) * sl.n)
        if check_h(const_top).ok and op_le(d, const_top) and not op_le(const_top, d):
            ctx.reg_hit("discrete-h-not-largest")
        else:
            return "fail", {"generated": generated}, {
                "kind": "static",
                "lines": [f"constant-top h operator not above discrete on {key}"]}
    ctx.counts["operators"] += generated
    detail = {"generated": generated, "raw_tables": raw_tables}
    return "pass", detail, None


def _check_contractive_equivalence(ctx):
    if not ctx.sampling:
        return "skip", {"reason": "operator sampling disabled"}, None
    checked = disagreements = 0
    stride = max(1, len(ctx.maps) // 200)
    for idx, f in enumerate(ctx.maps[::stride]):
        if checked >= 400:
            break
        rng = ctx.rng("equiv", idx)
        sll, slm = ctx.sl(f.source), ctx.sl(f.target)
        for _ in range(2):
            opl, opm = random_op(sll, rng), random_op(slm, rng)
            ri = is_I_continuous(f, opl, opm)
            rh = is_h_continuous(f, h_from_interior(opl), h_from_interior(opm))
            checked += 1
            if ri.ok != rh.ok or (not ri.ok and ri.witness != rh.witness):
                witness = {"kind": "static",
                           "lines": ["contractive continuity differs between the "
                                     f"interior and h readings for {f.describe()}"]}
                return "fail", {"checked": checked}, witness
            if not ri.ok:
                disagreements += 1
    ctx.counts["operators"] += 2 * checked
    return "pass", {"checked": checked, "failing_instances": disagreements}, None


def _composition_chains(ctx, want):
    """Deterministic composable (f, g) stream with constructed continuous ops."""
    pairs = list(ctx.composable_pairs())
    if not pairs:
        return
    step = max(1, len(pairs) // want)
    done = 0
    for idx, (f, g) in enumerate(pairs[::step]):
        if done >= want:
            return
        rng = ctx.rng("compose", idx)
        sln = ctx.sl(g.target)
        opn = random_op(sln, rng)
        opm = make_continuous_op(g, opn, rng)
        opl = make_continuous_op(f, opm, rng)
        done += 1
        yield f, g, opl, opm, opn


def _as_is(op):
    return op


def _check_composition(ctx, lift, kernel):
    """kernel on 250 constructed chains, each operator passed through lift."""
    if not ctx.sampling:
        return "skip", {"reason": "operator sampling disabled"}, None
    passed = 0
    for f, g, opl, opm, opn in _composition_chains(ctx, 250):
        rep = kernel(f, g, lift(opl), lift(opm), lift(opn))
        if rep.status != "pass":
            witness = {"kind": "static",
                       "lines": [f"composition fails for {f.describe()} then "
                                 f"{g.describe()}: {rep.to_json()}"]}
            return "fail", {"triples": passed}, witness
        passed += 1
    ctx.counts["operators"] += 3 * passed
    return ("pass" if passed >= 200 else "fail"), {"triples": passed}, None


# Each twin check names its kernels in its body, so they are looked up when
# the check runs: a kernel rebound at its module-level name after import, as
# perfbench's span tracer does, is still the one called.


def _check_composition_interior(ctx):
    return _check_composition(ctx, _as_is, check_composition)


def _check_composition_h(ctx):
    return _check_composition(ctx, h_from_interior, check_h_composition)


def _ops_for_initial(ctx, f, idx):
    slm = ctx.sl(f.target)
    ops = [discrete_op(slm), trivial_op(slm)]
    if ctx.sampling:
        rng = ctx.rng("initial-ops", idx)
        for _ in range(min(10, ctx.config.operator_samples_per_frame)):
            ops.append(random_op(slm, rng))
    return ops


def _h_ops_for_initial(ctx, f, idx):
    slm = ctx.sl(f.target)
    ops = [discrete_h(slm), trivial_h(slm)]
    if ctx.sampling:
        rng = ctx.rng("initial-h-ops", idx)
        for _ in range(min(5, ctx.config.operator_samples_per_frame)):
            ops.append(random_h(slm, rng))
        ops.append(h_from_interior(random_op(slm, rng)))
    return ops


def _anomaly_witness(f, op, anomaly):
    return {
        "kind": "initial-anomaly",
        "map": _map_payload(f),
        "op": _op_payload(op),
        "anomaly": {k: anomaly[k] for k in ("kind", "at", "predicate")},
    }


def _check_initial(ctx, cid, ops_for, initial, trivial, holds, top, ids):
    """initial on every map and every operator ops_for gives for it.

    The axioms in holds must hold for every induced operator, and top must
    hold when f[L] = M; ids maps each anomaly kind to its registry entry, and
    the "top-gap" entry also records the mandated TWO -> CHAIN3 trivial
    counterexample.
    """
    checked = 0
    tallies = dict.fromkeys(ids, 0)
    for idx, f in enumerate(ctx.maps):
        surj = transfer_of(f).image_table[ctx.sl(f.source).top] == ctx.sl(f.target).top
        for op in ops_for(ctx, f, idx):
            _, rep = initial(f, op)
            checked += 1
            if not all(rep.axioms.passed[a] for a in holds):
                return "fail", {"checked": checked}, {
                    "kind": "static",
                    "lines": [f"{' or '.join(holds)} fails for an induced operator "
                              f"on {f.describe()}"]}
            if surj and not rep.axioms.passed[top]:
                return "fail", {"checked": checked}, {
                    "kind": "static",
                    "lines": [f"{top} fails despite f[L] = M for {f.describe()}"]}
            for a in rep.anomalies:
                if not a["confirmed"]:
                    ctx.report_unexplained(cid, _anomaly_witness(f, op, a))
                    continue
                tallies[a["kind"]] += 1
                ctx.reg_hit(ids[a["kind"]], lambda: _anomaly_witness(f, op, a))
    f_up = localic_map(two(), chain3(), (0, 2))
    _, rep = initial(f_up, trivial(ctx.sl(chain3())))
    mandated_failed = not rep.axioms.passed[top]
    if mandated_failed:
        ctx.reg_hit(ids["top-gap"])
    had_unexplained = any(u["check"] == cid for u in ctx.unexplained)
    detail = {"checked": checked, "tallies": tallies,
              "mandated_top_counterexample": "fails-as-documented" if mandated_failed else "unexpected-pass"}
    status = "pass" if (mandated_failed and not had_unexplained) else "fail"
    witness = None if status == "pass" else {
        "kind": "static", "lines": ["see the unexplained list"]}
    return status, detail, witness


def _check_initial_interior(ctx):
    ids = {"contraction-gap": "initial-contraction", "top-gap": "initial-top",
           "continuity-gap": "initial-continuity"}
    return _check_initial(ctx, "initial-interior", _ops_for_initial, initial_interior,
                          trivial_op, ("I2",), "I3", ids)


def _check_initial_h(ctx):
    ids = {"top-gap": "initial-h-top", "continuity-gap": "initial-h-continuity"}
    return _check_initial(ctx, "initial-h", _h_ops_for_initial, initial_h,
                          trivial_h, ("h1", "h2"), "h3", ids)


def _coarseness_witness(f, op_m, op_l, at):
    return {
        "kind": "coarseness-anomaly",
        "map": _map_payload(f),
        "op_m": _op_payload(op_m),
        "op_l": _op_payload(op_l),
        "at": at,
        "fragment": isinstance(op_m, HOperator),
    }


def _check_coarseness(ctx):
    if not ctx.sampling:
        return "skip", {"reason": "operator sampling disabled"}, None
    cid = "coarseness"
    # (lift, initial, registry id, detail key) of the interior and h sides
    sides = (
        (_as_is, initial_interior, "initial-coarseness", "pointwise_violations"),
        (h_from_interior, initial_h, "initial-h-coarseness", "h_pointwise_violations"),
    )
    checked = 0
    violations = {key: 0 for *_, key in sides}
    stride = max(1, len(ctx.maps) // 300)
    for idx, f in enumerate(ctx.maps[::stride]):
        if checked >= 300:
            break
        rng = ctx.rng("coarse", idx)
        t = transfer_of(f)
        opm = random_op(ctx.sl(f.target), rng)
        opl = make_continuous_op(f, opm, rng)
        checked += 1
        for lift, initial, rid, key in sides:
            op_m, op_l = lift(opm), lift(opl)
            cand, _ = initial(f, op_m)
            gap = op_le_gap(cand, op_l)
            if gap is None:
                continue
            i = cand.lattice.labels.index(gap)
            if t.preimage_table[t.image_table[i]] == i:
                ctx.report_unexplained(cid, _coarseness_witness(f, op_m, op_l, gap))
            else:
                violations[key] += 1
                ctx.reg_hit(rid, lambda: _coarseness_witness(f, op_m, op_l, gap))
    ctx.counts["operators"] += 2 * checked
    had_unexplained = any(u["check"] == cid for u in ctx.unexplained)
    detail = {"checked": checked, **violations}
    status = "pass" if not had_unexplained else "fail"
    witness = None if status == "pass" else {
        "kind": "static", "lines": ["see the unexplained list"]}
    return status, detail, witness


def _universal_configs(ctx, want):
    # stride across all composable pairs so large frames are sampled too
    pairs = list(ctx.composable_pairs())
    if not pairs:
        return
    need = (want + 2) // 3
    step = max(1, len(pairs) // need)
    done = 0
    for idx, (g, f) in enumerate(pairs[::step]):
        # g: N -> L feeds f: L -> M
        if done >= want:
            return
        rng = ctx.rng("universal", idx)
        slm, sln = ctx.sl(f.target), ctx.sl(g.source)
        for opm in (discrete_op(slm), trivial_op(slm), random_op(slm, rng)):
            if done >= want:
                return
            opn = random_op(sln, rng)
            done += 1
            yield f, g, opm, opn


def _universal_witness(f, g, opm, opn, anomaly):
    return {
        "kind": "universal-anomaly",
        "f": _map_payload(f),
        "g": _map_payload(g),
        "op_m": _op_payload(opm),
        "op_n": _op_payload(opn),
        "anomaly": {k: anomaly[k] for k in ("kind", "at", "predicate")},
        "fragment": isinstance(opm, HOperator),
    }


def _check_universal(ctx, cid, lift, kernel, rid):
    """kernel on 240 sampled configurations, each operator passed through
    lift; every confirmed disagreement is an occurrence of rid."""
    if not ctx.sampling:
        return "skip", {"reason": "operator sampling disabled"}, None
    checked = disagreements = 0
    for f, g, opm, opn in _universal_configs(ctx, 240):
        opm, opn = lift(opm), lift(opn)
        rep = kernel(f, opm, g, opn)
        checked += 1
        if not rep.equivalent:
            disagreements += 1
            for a in rep.anomalies:
                if not a["confirmed"]:
                    ctx.report_unexplained(cid, _universal_witness(f, g, opm, opn, a))
                else:
                    ctx.reg_hit(rid, lambda: _universal_witness(f, g, opm, opn, a))
    ctx.counts["operators"] += 2 * checked
    had_unexplained = any(u["check"] == cid for u in ctx.unexplained)
    detail = {"checked": checked, "disagreements": disagreements}
    status = "pass" if (checked >= 200 and not had_unexplained) else "fail"
    witness = None if status == "pass" else {
        "kind": "static", "lines": ["see the unexplained list"]}
    return status, detail, witness


def _check_universal_interior(ctx):
    return _check_universal(ctx, "universal-property-interior", _as_is,
                            check_universal_property, "universal-interior-anomaly")


def _check_universal_h(ctx):
    return _check_universal(ctx, "universal-property-h", h_from_interior,
                            check_h_universal, "universal-h-anomaly")


def _check_open_preimage(ctx):
    checked = 0
    for idx, f in enumerate(ctx.maps):
        if f.source.n > 5 or f.target.n > 5:
            continue
        sll, slm = ctx.sl(f.source), ctx.sl(f.target)
        triples = [(discrete_op(sll), discrete_op(slm)),
                   (discrete_op(sll), trivial_op(slm))]
        if ctx.sampling:
            rng = ctx.rng("open-pre", idx)
            for _ in range(3):
                opm = random_op(slm, rng)
                triples.append((make_continuous_op(f, opm, rng), opm))
        for opl, opm in triples:
            rep = check_open_preimage(f, opl, opm)
            if rep.status == "precondition-unmet":
                return "fail", {"checked": checked}, {
                    "kind": "static",
                    "lines": [f"constructed triple not continuous for {f.describe()}"]}
            checked += 1
            if rep.status != "pass":
                return "fail", {"checked": checked}, {
                    "kind": "static",
                    "lines": [f"open preimage fails for {f.describe()} at {rep.witness}"]}
    ctx.counts["operators"] += checked
    return "pass", {"checked": checked}, None


def _check_points_spatiality(ctx):
    fixture_ok = (
        len(points_of(two())) == 1
        and len(points_of(chain3())) == 2
        and len(points_of(square())) == 2
        and len(ctx.big_sl(chain3())) == 4
        and len(ctx.big_sl(square())) == 4
        and len(ctx.big_sl(two())) == 2
    )
    if not fixture_ok:
        return "fail", {}, {"kind": "static", "lines": ["fixture counts are off"]}
    frames = 0
    for key, fr in ctx.frames:
        rep = is_spatial(fr)
        phi = spatialization(fr)
        injective = len(set(phi.table)) == fr.n
        if not rep.ok or not injective or rep.ok != injective:
            return "fail", {"frames": frames}, {
                "kind": "static",
                "lines": [f"spatiality fails or definitions disagree on {key}"]}
        frames += 1
    return "pass", {"frames": frames, "spatial": frames}, None


CHECK_ORDER = (
    ("poset-counts", _check_poset_counts),
    ("heyting-adjunction", _check_heyting_adjunction),
    ("heyting-identities", _check_heyting_identities),
    ("complement-laws", _check_complement_laws),
    ("generation-property", _check_generation_property),
    ("sublocale-join-oracle", _check_sublocale_join_oracle),
    ("galois-adjunction", _check_galois_adjunction),
    ("boolean-fragment", _check_boolean_fragment),
    ("interior-axioms", _check_interior_axioms),
    ("h-axioms", _check_h_axioms),
    ("contractive-equivalence", _check_contractive_equivalence),
    ("composition-interior", _check_composition_interior),
    ("composition-h", _check_composition_h),
    ("initial-interior", _check_initial_interior),
    ("initial-h", _check_initial_h),
    ("coarseness", _check_coarseness),
    ("universal-property-interior", _check_universal_interior),
    ("universal-property-h", _check_universal_h),
    ("open-preimage", _check_open_preimage),
    ("points-spatiality", _check_points_spatiality),
)

CHECKS = dict(CHECK_ORDER)


def run_verification(config: CorpusConfig) -> dict:
    ctx = _Ctx(config)
    rows = []
    for cid in config.selected():
        try:
            status, detail, witness = CHECKS[cid](ctx)
        except SizeLimit as exc:
            status, detail, witness = "skip", {"reason": str(exc)}, None
        rows.append({"id": cid, "status": status, "detail": detail, "witness": witness})
    registry = [ctx.registry[rid] for rid in sorted(ctx.registry)]
    return {
        "artifact": ARTIFACT,
        "version": ARTIFACT_VERSION,
        "config": config.to_json(),
        "counts": ctx.counts,
        "checks": rows,
        "registry": registry,
        "unexplained": ctx.unexplained,
    }


# -- replay ----------------------------------------------------------------------


def replay(report: dict, witness_id: str) -> str:
    """Re-execute the failure behind a check or registry id as a step trace."""
    for row in report.get("checks", ()):
        if row["id"] == witness_id:
            if row["status"] == "pass":
                return "no failure recorded"
            if row["status"] == "skip":
                return f"skipped: {row['detail'].get('reason', '')}"
            if row["witness"] is None:
                return "no failure recorded"
            return _replay_witness(row["witness"])
    for entry in report.get("registry", ()):
        if entry["id"] == witness_id:
            if entry["witness"] is None:
                return "no failure recorded"
            return _replay_witness(entry["witness"])
    raise UnknownWitness(
        f"no check or registry entry named {witness_id!r}", witness=(witness_id,)
    )


def _replay_witness(w: dict) -> str:
    kind = w.get("kind")
    fn = _REPLAYERS.get(kind)
    if fn is None:
        raise UnknownWitness(f"unreplayable witness kind {kind!r}", witness=(kind,))
    return "\n".join(fn(w))


def _trace_heyting_sup_arrow(w):
    fr = frame_from_json(w["frame"])
    a_idx = [fr.index[x] for x in w["A"]]
    b = fr.index[w["b"]]
    join_a = fr.bottom
    for a in a_idx:
        join_a = fr.join(join_a, a)
    lhs = fr.imp(join_a, b)
    rhs = fr.bottom
    for a in a_idx:
        rhs = fr.join(rhs, fr.imp(a, b))
    lines = [
        f"display form (vA) -> b = v(a -> b) on A = {w['A']}, b = {w['b']}",
        f"vA = {fr.labels[join_a]}",
        f"lhs: (vA) -> b = {fr.labels[lhs]}",
        f"rhs: v(a -> b) = {fr.labels[rhs]}",
    ]
    lines.append("display form falsified" if lhs != rhs else "display form holds here")
    return lines


def _trace_sublocale_join_form(w):
    fr = frame_from_json(w["frame"])
    left = sum(1 << fr.index[x] for x in w["left"])
    right = sum(1 << fr.index[x] for x in w["right"])
    union = left | right
    naive = _closure_by_joins(fr, union)
    rep = is_sublocale(fr, naive)
    true_join = sub_join_mask(fr, (left, right))
    lines = [
        f"join of {set_label(fr.labels, left)} and {set_label(fr.labels, right)}",
        f"union = {set_label(fr.labels, union)}",
        f"sup-form closure {{vM}} = {set_label(fr.labels, naive)}",
    ]
    if not rep.ok:
        lines.append(f"sup form is not a sublocale: {rep.condition} at {rep.witness}")
    meet_line = f"true join (meet of all sublocales containing the union) = " \
                f"{set_label(fr.labels, true_join)}"
    lines.append(meet_line)
    lines.append(
        "display form falsified" if naive != true_join else "display form holds here"
    )
    return lines


def _trace_initial_top(w):
    f = _rebuild_map(w["map"])
    t = transfer_of(f)
    sl, tl = t.source_lattice, t.target_lattice
    op = _rebuild_op({"table": w["op"], "fragment": False}, f.target)
    lines = [f"induced operator top law for f: {f.source.key()} -> {f.target.key()}, "
             f"op_M = {w['op']}"]
    raw = 0
    for x in bits(sl.masks[sl.top]):
        raw |= 1 << f(x)
    img = t.image_table[sl.top]
    lines.append(f"step 1: elementwise image of L is {set_label(f.target.labels, raw)}")
    suffix = " (already a sublocale)" if raw == tl.masks[img] else " (closed up)"
    lines.append(f"        sloc-core gives f[L] = {tl.label(img)}{suffix}")
    m_idx = op(img)
    lines.append(f"step 2: i_M(f[L]) = {tl.label(m_idx)}")
    rawpre = 0
    for x in range(f.source.n):
        if tl.masks[m_idx] >> f(x) & 1:
            rawpre |= 1 << x
    pre = t.preimage_table[m_idx]
    lines.append(f"step 3: set preimage is {set_label(f.source.labels, rawpre)}; "
                 f"sloc-core gives {sl.label(pre)}")
    rel = "≠" if pre != sl.top else "="
    lines.append(f"i_{{L_f}}(L) = {sl.label(pre)} {rel} L")
    return lines


def _trace_initial_h_top(w):
    f = _rebuild_map(w["map"])
    t = transfer_of(f)
    sl, tl = t.source_lattice, t.target_lattice
    h = _rebuild_op({"table": w["op"], "fragment": True}, f.target)
    lines = [f"induced h operator top law for f: {f.source.key()} -> {f.target.key()}, "
             f"h_M = {w['op']}"]
    img = t.image_table[sl.top]
    lines.append(f"step 1: f[L] = {tl.label(img)}")
    core = h.core(img)
    lines.append(f"step 2: f[L] ^ h_M(f[L]) = {tl.label(core)}")
    pre = t.preimage_table[core]
    lines.append(f"step 3: preimage gives {sl.label(pre)}")
    rel = "≠" if pre != sl.top else "="
    lines.append(f"h_{{L_f}}(L) = {sl.label(pre)} {rel} L")
    return lines


def _trace_discrete_h_not_largest(w):
    fr = frame_from_json(w["frame"])
    sl = enumerate_sublocales(fr, limit=fr.n)
    const_top = HOperator(sl, (sl.top,) * sl.n)
    d = discrete_h(sl)
    rep = check_h(const_top)
    gap = op_le_gap(const_top, d)
    lines = [
        f"constant-top table on S_l of {fr.key()}",
        f"axioms: {rep.passed}",
        f"discrete <= constant-top: {op_le(d, const_top)}",
        f"constant-top exceeds discrete at {gap}",
        "the discrete h operator is not the largest",
    ]
    return lines


def _predicate_lines(f, t, anomaly, sl, tl):
    at = anomaly["at"]
    pred = anomaly["predicate"]
    lines = []
    if pred == "unit-gap":
        i = next(k for k in range(sl.n) if sl.label(k) == at)
        back = t.preimage_table[t.image_table[i]]
        lines.append(f"unit gap: f_-1[f[{at}]] = {sl.label(back)} != {at}")
    elif pred == "image-not-whole-target":
        img = t.image_table[sl.top]
        lines.append(f"image gap: f[L] = {tl.label(img)} != {tl.label(tl.top)}")
    elif pred == "counit-gap":
        j = next(k for k in range(tl.n) if tl.label(k) == at)
        fwd = t.image_table[t.preimage_table[j]]
        lines.append(f"counit gap: f[f_-1[{at}]] = {tl.label(fwd)} != {at}")
    return lines


def _trace_initial_anomaly(w):
    f = _rebuild_map(w["map"])
    op = _rebuild_op(w["op"], f.target)
    cand, rep = (initial_h if isinstance(op, HOperator) else initial_interior)(f, op)
    want = w["anomaly"]
    t = transfer_of(f)
    sl, tl = t.source_lattice, t.target_lattice
    lines = [f"induced operator anomaly for f: {f.source.key()} -> {f.target.key()}",
             f"looking for {want['kind']} at {want['at']} ({want['predicate']})"]
    found = next(
        (a for a in rep.anomalies
         if a["kind"] == want["kind"] and a["at"] == want["at"]),
        None,
    )
    if found is None:
        lines.append("anomaly did not reproduce")
        return lines
    lines.extend(_predicate_lines(f, t, found, sl, tl))
    lines.append("anomaly reproduced" if found["confirmed"]
                 else "anomaly reproduced but unconfirmed")
    return lines


def _trace_coarseness(w):
    f = _rebuild_map(w["map"])
    opm = _rebuild_op(w["op_m"], f.target)
    opl = _rebuild_op(w["op_l"], f.source)
    t = transfer_of(f)
    sl = t.source_lattice
    lines = [f"coarseness of the induced operator under f: {f.source.key()} -> "
             f"{f.target.key()} at {w['at']}"]
    cand, _ = (initial_h if w["fragment"] else initial_interior)(f, opm)
    gap = op_le_gap(cand, opl)
    if gap != w["at"]:
        lines.append(f"first gap moved to {gap!r}; anomaly did not reproduce")
        return lines
    i = sl.labels.index(gap)
    lines.append(f"candidate({gap}) = {sl.label(cand(i))} exceeds "
                 f"op_L({gap}) = {sl.label(opl(i))}")
    back = t.preimage_table[t.image_table[i]]
    lines.append(f"unit gap: f_-1[f[{gap}]] = {sl.label(back)} != {gap}")
    lines.append("anomaly reproduced")
    return lines


def _trace_universal_anomaly(w):
    f = _rebuild_map(w["f"])
    g = _rebuild_map(w["g"])
    opm = _rebuild_op(w["op_m"], f.target)
    opn = _rebuild_op(w["op_n"], g.source)
    rep = (check_h_universal if w["fragment"] else check_universal_property)(f, opm, g, opn)
    want = w["anomaly"]
    lines = [
        f"lifting equivalence for g: {g.source.key()} -> {g.target.key()} into "
        f"f: {f.source.key()} -> {f.target.key()}",
        f"initial side ok: {rep.initial_side.ok}; composite side ok: "
        f"{rep.composite_side.ok}",
    ]
    found = next(
        (a for a in rep.anomalies
         if a["kind"] == want["kind"] and a["at"] == want["at"]),
        None,
    )
    if found is None:
        lines.append("anomaly did not reproduce")
        return lines
    side = rep.initial_side if found["kind"] == "initial-side-only" else rep.composite_side
    lines.append(f"failing side witness: {side.witness}")
    lines.append(f"predicate: {found['predicate']}")
    lines.append("anomaly reproduced" if found["confirmed"]
                 else "anomaly reproduced but unconfirmed")
    return lines


def _trace_static(w):
    return list(w.get("lines", ())) or ["no further detail recorded"]


_REPLAYERS = {
    "heyting-sup-arrow": _trace_heyting_sup_arrow,
    "sublocale-join-form": _trace_sublocale_join_form,
    "initial-top": _trace_initial_top,
    "initial-h-top": _trace_initial_h_top,
    "discrete-h-not-largest": _trace_discrete_h_not_largest,
    "initial-anomaly": _trace_initial_anomaly,
    "coarseness-anomaly": _trace_coarseness,
    "universal-anomaly": _trace_universal_anomaly,
    "static": _trace_static,
}
