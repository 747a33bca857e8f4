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

import operator
import random
import time
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import groupby

from .corpus import all_posets, chain3, child_seed, corpus_frames, corpus_posets, square, two
from .errors import UnknownWitness
from .hops import (
    HInitialReport,
    HOperator,
    _core,
    check_h,
    check_h_universal,
    discrete_h,
    initial_h,
    trivial_h,
)
from .interior import (
    InitialReport,
    InteriorOperator,
    _axiom_gaps,
    _Batch,
    _candidate,
    _closed_draw,
    _composition,
    _confirmed,
    _continuous_draw,
    _first,
    _first_gap,
    _lanes,
    _lift,
    _open_preimage,
    _preimages,
    _universal_report,
    check_interior,
    check_universal_property,
    discrete_op,
    initial_interior,
    op_join,
    op_le,
    op_le_gap,
    op_meet,
    trivial_op,
)
from .lattice import bits, heyting_identity_report, set_label
from .maps import check_frame_hom, localic_map, localic_maps
from .points import _sigma, _spatiality, points_of
from .serialize import frame_from_json, frame_to_json
from .sublocales import (
    SublocaleTransfer,
    _adjoint_lanes,
    _adjunction_lanes,
    _enumerate,
    _least_containing,
    _point_tables,
    _point_words,
    _sup_form,
    _transfer_cached,
    adjunction_report,
    enumerate_sublocales,
    generation_check,
    size_limit,
    sub_join_mask,
    transfer_of,
)

ARTIFACT = "localelab-verification"
ARTIFACT_VERSION = 9

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
        # counts and the seed are read as operator.index reads them: 2.0, 2.5, inf, None refused
        for name, least in (("max_poset_size", 1), ("operator_samples_per_frame", 0),
                            ("map_budget", 0), ("seed", None)):
            try:
                value = operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
            if least is not None and value < least:
                raise ValueError(f"{name} must be an integer of at least {least}")
            object.__setattr__(self, name, value)
        # a tuple or list of id strings: a bare string would split into characters
        if not (isinstance(self.checks, (tuple, list))
                and all(isinstance(c, str) for c in self.checks)):
            raise ValueError("checks must be a tuple or list of check id strings")
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
    op = HOperator if payload.get("fragment") else InteriorOperator
    return op(enumerate_sublocales(frame), tuple(payload["table"]))


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


# -- context --------------------------------------------------------------------

class _Ctx:
    def __init__(self, config: CorpusConfig, kernels=None):
        self.config = config
        # the S_l bound, read once, admits the frames that maps run between;
        # every corpus frame's S_l is read from the per-frame cache
        self.map_bound = size_limit()
        self.posets = list(corpus_posets(config.max_poset_size))
        self.frames = list(corpus_frames(config.max_poset_size))
        # the frames maps run between, and a lane width that fits their points
        self.usable = [(k, fr) for k, fr in self.frames if fr.n <= self.map_bound]
        self.bank_width = max((len(fr.prime_list) for _, fr in self.usable), default=0) + 1
        self.counts = {
            "posets": len(self.posets),
            "frames": len(self.frames),
            "maps": 0,
            "hom_candidates": 0,
            "map_pairs_skipped": 0,
            "frames_beyond_map_bound": len(self.frames) - len(self.usable),
            "operators": 0,
        }
        self.sampling = config.operator_samples_per_frame > 0
        self.unexplained = []
        # an entry is confirmed, and its witness recorded, by the check that observes it
        self.registry = {e["id"]: dict(e, witness=None, status="not-observed", occurrences=0)
                         for e in _REGISTRY_SEED}
        # operator-kernel counters for the profile sidecar, never in the report
        self.kernels = {} if kernels is None else kernels
        self.kernels.update(tables_lifted=0, batches=0, lanes_lifted_alone=0)
        self.banks = {}

    def sl(self, frame):
        return _enumerate(frame)

    def rng(self, *tag):
        return random.Random(child_seed(self.config.seed, *tag))

    def batch(self, sl, rng, draws, width, named=False):
        """Tables on sl as one _Batch of lanes of width bits: the discrete and
        trivial tables first when named, then `draws` draws."""
        base, first = (list(range(sl.n)), 2) if named else (None, 0)
        named_ones, ones = _lanes(first, width)[0], _lanes(first + draws, width)[0]
        self.kernels["batches"] += 1
        return _Batch.of(_closed_draw(sl, rng, base, ones, ones ^ named_ones), first + draws, width)

    def bank(self, tag, frame, draws):
        """The batch of tag on frame, drawn on first ask: the discrete and
        trivial tables and `draws` draws from rng(tag, frame.key())."""
        if (tag, frame) not in self.banks:
            self.banks[tag, frame] = self.batch(self.sl(frame), self.rng(tag, frame.key()),
                                                draws, self.bank_width, named=True)
        return self.banks[tag, frame]

    def reg_hit(self, rid, build_witness=None, hits=1):
        """Count occurrences; the witness payload is built only for the
        first occurrence that brings one, since only that one is kept."""
        e = self.registry[rid]
        e["occurrences"] += hits
        e["status"] = "confirmed"
        if build_witness is not None and e["witness"] is None:
            e["witness"] = build_witness()

    def report_unexplained(self, check_id, payload):
        self.unexplained.append({"check": check_id, "payload": payload})

    @cached_property
    def maps(self):
        """Every localic map of each admitted frame pair, enumerated as a
        monotone point map (`localic_maps`), cheapest pairs first; built on
        first read and shared by every check of the run.

        The budget is an admission rule, not the enumeration cost: a pair of
        frames is admitted only while the |M|^|L| candidate count of its homs
        L -> M (maps M -> L) fits in what remains of it, and `hom_candidates`
        sums the admitted counts. The order is deterministic, so the same
        budget always selects the same maps.
        """
        pairs = []
        for i, (ka, fa) in enumerate(self.usable):
            for j, (kb, fb) in enumerate(self.usable):
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
            out += localic_maps(fb, fa)
        self.counts["maps"] = len(out)
        return out

    @cached_property
    def chains(self):
        """The first 250 composable (f, g) as (transfer of f, transfer of g,
        l, m, n, report): the tables of constructed continuous operators and
        their CompositionReport. The draws are contractive, so each table is
        its own core, and both composition checks read the one report."""
        out = []
        for idx, (f, g) in zip(range(250), self.composable_pairs(250)):
            rng = self.rng("compose", idx)
            tf, tg = _transfer_cached(f), _transfer_cached(g)
            n = _closed_draw(tg.target_lattice, rng)
            m = _continuous_draw(tg, n, rng)
            l = _continuous_draw(tf, m, rng)
            out.append((tf, tg, l, m, n, _composition(tf, tg, l, m, n)))
        return out

    # the rows of the selected initial checks, from the one pass both read
    initial = cached_property(lambda self: _initial_rows(self))

    @cached_property
    def configs(self):
        """The first 240 (transfer of f, g, m, n, candidate), g: N -> L
        feeding f: L -> M, with the tables m of the discrete, trivial or
        a drawn operator on M, n of a drawn one on N, and the lift's candidate
        _candidate(t, m). The samples of universal-property-interior and of
        universal-property-h; m and n are contractive, each its own core."""
        out = []
        # three per pair, striding across all composable pairs so that large
        # frames are sampled too
        for idx, (g, f) in zip(range(80), self.composable_pairs(80)):
            rng = self.rng("universal", idx)
            t = _transfer_cached(f)
            sln = self.sl(g.source)
            for m in (*_named(t.target_lattice), _closed_draw(t.target_lattice, rng)):
                out.append((t, g, m, _closed_draw(sln, rng), _candidate(t, m)))
        return out

    def composable_pairs(self, want):
        """Every step-th (f, g) with target(f) = source(g), in map order, the
        step chosen so that about `want` of them are left. The pairs of f
        are its target's maps, so the walk jumps from f to f by offsets."""
        maps = self.maps
        by_source = {}
        for g in maps:
            # corpus frames are singletons, so identity grouping is exact
            by_source.setdefault(id(g.source), []).append(g)
        groups = [by_source.get(id(f.target), ()) for f in maps]
        step = max(1, sum(map(len, groups)) // want)
        k = 0  # offset of the next kept pair among the pairs of f
        for f, gs in zip(maps, groups):
            for g in gs[k::step]:
                yield f, g
            k = (k - len(gs)) % step


# -- checks ----------------------------------------------------------------------


def _fail(detail, line):
    """A failing check's row: its detail and a static witness of one line."""
    return "fail", detail, {"kind": "static", "lines": [line]}


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
        dn = fr.dn
        for a, imp_a in enumerate(fr.imp_table):
            fibres = [0] * fr.n  # fibres[m]: the c with c & a = m
            for c, row in enumerate(fr.meet_table):
                fibres[row[a]] |= 1 << c
            for b, r in enumerate(imp_a):
                # the c with c & a <= b against those with c <= r
                below = 0
                for m in bits(dn[b]):
                    below |= fibres[m]
                gap = dn[r] ^ below
                if gap:
                    c = (gap & -gap).bit_length() - 1
                    line = (f"heyting adjunction fails on {key} at "
                            f"({fr.labels[a]}, {fr.labels[b]}, {fr.labels[c]})")
                    return _fail({"triples": triples + c + 1}, line)
                triples += fr.n
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
            return _fail({"frame": key}, str(rep))
        form = rep["sup_arrow_display_form"]
        if form["status"] == "falsified":
            falsified += 1
            ctx.reg_hit("sup-arrow-display-form", lambda: {
                **form["witness"], "kind": "heyting-sup-arrow", "frame": frame_to_json(fr)})
    detail = {"frames_checked": checked, "frames_skipped": skipped,
              "display_form_falsified_on": falsified}
    return "pass", detail, None


def _check_complement_laws(ctx):
    """Each sublocale and its complement, read at the element level: their
    meet is their intersection, their join the sublocale their union
    generates."""
    pairs = 0
    for key, fr in ctx.frames:
        sl = ctx.sl(fr)
        masks = sl.masks
        for i in range(sl.n):
            j = sl.complement(i)
            pairs += 1
            if (masks[i] & masks[j] != masks[sl.bottom]
                    or sub_join_mask(fr, (masks[i], masks[j])) != fr.full_mask):
                return _fail({"pairs": pairs}, f"complement laws fail on {key} at {sl.label(i)}")
            if sl.complement(j) != i:
                return _fail({"pairs": pairs},
                             f"complement not involutive on {key} at {sl.label(i)}")
    return "pass", {"pairs": pairs}, None


def _check_generation_property(ctx):
    checked = 0
    for key, fr in ctx.frames:
        if fr.n > 6:
            continue
        sl = ctx.sl(fr)
        for i in range(sl.n):
            checked += 1
            rep = generation_check(sl, sl.sub(i))
            if not rep.ok:
                return _fail({"sublocales": checked},
                             f"generation fails on {key} at {sl.label(i)}: {rep.to_json()}")
    return "pass", {"sublocales": checked}, None


def _check_sublocale_join_oracle(ctx):
    pairs = 0
    frames_with_display_gap = 0
    for key, fr in ctx.frames:
        sl = ctx.sl(fr)
        display_gap = None  # the frame's first pair whose join the display form misses
        for i in range(sl.n):
            for j in range(i, sl.n):
                pairs += 1
                union = sl.masks[i] | sl.masks[j]
                least = _least_containing(sl, union)
                joined = sl.masks[sl.join(i, j)]
                if joined != least or sub_join_mask(fr, (sl.masks[i], sl.masks[j])) != least:
                    return _fail({"pairs": pairs}, f"join oracle mismatch on {key} at "
                                                   f"({sl.label(i)}, {sl.label(j)})")
                # the report counts frames, so a frame's first display gap settles it
                if display_gap is None and _sup_form(fr, union, least)[2] is not None:
                    display_gap = sl.masks[i], sl.masks[j]
        if display_gap:
            frames_with_display_gap += 1
            ctx.reg_hit("sublocale-join-display-form", lambda: {
                "kind": "sublocale-join-form", "frame": frame_to_json(fr),
                "left": [fr.labels[x] for x in bits(display_gap[0])],
                "right": [fr.labels[x] for x in bits(display_gap[1])]})
    detail = {"pairs": pairs, "frames_with_display_gap": frames_with_display_gap}
    return "pass", detail, None


def _check_galois_adjunction(ctx):
    """The sublocale adjunction of every map, then the frame level: the left
    adjoint read off the points is a frame hom, and its right adjoint gives
    the points back, so the map is localic. The maps of a frame pair are
    decided in one pass, map m in lane m of packed image and preimage
    tables (`_adjunction_lanes`) and of the prime sets of the adjoints
    (`_adjoint_lanes`); only a failing lane is read off, and
    `adjunction_report` or `check_frame_hom` gives its witness."""
    for (source, target), maps in groupby(ctx.maps, lambda f: (f.source, f.target)):
        maps = list(maps)
        width, *words = _point_words(maps)
        img, pre = (_Batch.of(_point_tables(w), len(maps), width) for w in words)
        tl, adjunction = ctx.sl(target), _adjunction_lanes(img, pre)
        adjoints = pre._replace(masks=[pre.masks[tl.index[u]] for u in target.up])
        bad = adjunction | _adjoint_lanes(source, tl, adjoints, img)
        if not bad:
            continue
        m = (bad & -bad).bit_length() - 1
        f, sl = maps[m], ctx.sl(source)
        if adjunction >> m & 1:
            t = SublocaleTransfer(f, sl, tl, tuple(img.lane(m)), tuple(pre.lane(m)))
            line = f"adjunction fails for {f.describe()}: {adjunction_report(t).witness}"
        else:
            # a word that is no up-closed prime set is no element: a totality failure
            hom = check_frame_hom(target, source, [source.by_primes.get(sl.masks[x] & source.primes)
                                                   for x in adjoints.lane(m)])
            line = (f"left adjoint of {f.describe()} breaks the {hom.law} law at {hom.witness}"
                    if not hom.ok else f"left adjoint round trip differs for {f.describe()}")
        return _fail({"maps": len(ctx.maps)}, line)
    return "pass", {"maps": len(ctx.maps), "pairs_per_map": "all"}, None


def _check_boolean_fragment(ctx):
    """One sublocale per set of points: S_l is Boolean, every sublocale complemented."""
    for (key, fr), poset in zip(ctx.frames, ctx.posets):
        sl = ctx.sl(fr)
        if sl.n != 1 << poset.n:
            return _fail({"frames": len(ctx.frames)},
                         f"S_l is not Boolean on {key}: {sl.n} sublocales, poset size {poset.n}")
    return "pass", {"frames": len(ctx.frames)}, None


# The axiom checks read a batch of draws, and each draw's join and meet with the
# draw before it, as packed point masks. A lane passes check_interior iff
# _axiom_gaps is zero in it; it then lies between trivial (by I3) and discrete (I1).


def _invalid(sl, vals, b):
    """The guard bits of the lanes of vals, laid out as b, that break I1, I2 or I3."""
    gaps, bad, top = _axiom_gaps(sl, vals, b.ones)
    for g in gaps:
        bad |= g
    return (bad | top) + b.fill & b.guard


def _check_interior_axioms(ctx):
    k = ctx.config.operator_samples_per_frame
    generated = 0
    for key, fr in ctx.frames:
        sl = ctx.sl(fr)
        d, t = discrete_op(sl), trivial_op(sl)
        for op in (d, t, op_join([d, t]), op_meet([d, t])):
            if not check_interior(op).ok:
                return _fail({"generated": generated}, f"named operator invalid on {key}")
        b = ctx.batch(sl, ctx.rng("interior-ops", key), k, len(fr.prime_list) + 1)
        own = _invalid(sl, b.masks, b)
        # lane j of before is draw j - 1, and the first draw pairs with itself
        before = b.shifted(b.lane(0))
        pairs = (_invalid(sl, [x | y for x, y in zip(before, b.masks)], b)
                 | _invalid(sl, [x & y for x, y in zip(before, b.masks)], b))
        if own | pairs:
            j = b.upto(own | pairs)
            line = ("generated operator breaks the axioms or bounds on"
                     if b.upto(own) == j else "operator lattice op invalid on")
            return _fail({"generated": generated + j}, f"{line} {key}")
        generated += b.lanes
    ctx.counts["operators"] += generated
    return "pass", {"generated": generated, "per_frame": k}, None


def _check_h_axioms(ctx):
    k = ctx.config.operator_samples_per_frame
    generated = 0
    for key, fr in ctx.frames:
        sl = ctx.sl(fr)
        d, t = discrete_h(sl), trivial_h(sl)
        for h in (d, t):
            if not check_h(h).ok:
                return _fail({"generated": generated}, f"named h operator invalid on {key}")
        # h1 to h3 are I1 to I3 of the core masks, so each draw is decided
        # once, on its core; I1 of a core always holds
        b = ctx.batch(sl, ctx.rng("h-ops", key), k, len(fr.prime_list) + 1)
        bad = _invalid(sl, _core(sl, b.masks, b.ones), b)
        if bad:
            return _fail({"generated": generated + b.upto(bad)},
                         f"generated h operator invalid on {key}")
        generated += b.lanes
        # the constant-top table is a valid h operator strictly above discrete
        const_top = HOperator(sl, (sl.top,) * sl.n)
        if check_h(const_top).ok and op_le(d, const_top) and not op_le(const_top, d):
            ctx.reg_hit("discrete-h-not-largest", lambda: {
                "kind": "discrete-h-not-largest", "frame": frame_to_json(fr)})
        else:
            return _fail({"generated": generated},
                         f"constant-top h operator not above discrete on {key}")
    ctx.counts["operators"] += generated
    return "pass", {"generated": generated}, None


def _widened(sl, xs):
    """The h operator S |-> i(S) v not-S of the table xs of an interior
    operator i: not contractive, but its core is i, because S_l(L) is Boolean
    and i(S) <= S."""
    return [x | sl.top ^ i for i, x in enumerate(xs)]


def _check_contractive_equivalence(ctx):
    if not ctx.sampling:
        return "skip", {"reason": "operator sampling disabled"}, None
    checked = disagreements = 0
    for idx, f in enumerate(ctx.maps[::max(1, len(ctx.maps) // 200)][:200]):
        rng = ctx.rng("equiv", idx)
        t = _transfer_cached(f)
        sll, slm, pre = t.source_lattice, t.target_lattice, t.preimage_table
        for _ in range(2):
            l, m = _closed_draw(sll, rng), _closed_draw(slm, rng)
            # a first gap in masks names the same sublocales as its labels
            gap = _first_gap(pre, _preimages(t, m), l)
            h_gap = _first_gap(pre, _preimages(t, _core(slm, _widened(slm, m))),
                               _core(sll, _widened(sll, l)))
            checked += 1
            if gap != h_gap:
                return _fail({"checked": checked}, "continuity for i differs from "
                             f"h-continuity for i(S) v not-S for {f.describe()}")
            if gap is not None:
                disagreements += 1
    ctx.counts["operators"] += 2 * checked
    return "pass", {"checked": checked, "failing_instances": disagreements}, None


def _check_composition(ctx):
    """The reports of ctx.chains, one per chain for both composition checks."""
    if not ctx.sampling:
        return "skip", {"reason": "operator sampling disabled"}, None
    passed = 0
    for tf, tg, *_, rep in ctx.chains:
        if rep.status != "pass":
            return _fail({"triples": passed}, f"composition fails for {tf.map.describe()} "
                         f"then {tg.map.describe()}: {rep.to_json()}")
        passed += 1
    ctx.counts["operators"] += 3 * passed
    return _verdict(ctx, None, {"triples": passed}, _shortfall(passed, "composable triples"))


def _shortfall(done, what):
    """The problem of a sampling check that found fewer than its 200 cases."""
    if done < 200:
        return f"{done} of 200 {what} checked: the corpus has too few composable pairs"


def _verdict(ctx, cid, detail, problem=None):
    """Fail with the unexplained list as witness when check cid (None for a
    check that adds none) added to it, else with a static witness naming
    problem when there is one."""
    if any(u["check"] == cid for u in ctx.unexplained):
        return _fail(detail, "see the unexplained list")
    if problem:
        return _fail(detail, problem)
    return "pass", detail, None


def _ops_for_initial(ctx, f):
    return ctx.bank("initial-ops", f.target, min(46, ctx.config.operator_samples_per_frame))


def _anomaly_witness(f, op, anomaly):
    return {
        "kind": "initial-anomaly",
        "map": _map_payload(f),
        "op": _op_payload(op),
        "anomaly": {k: anomaly[k] for k in ("kind", "at", "predicate")},
    }


# each initial report class's check id and the registry id of each gap kind it counts
_INITIAL = {
    InitialReport: ("initial-interior", {"contraction-gap": "initial-contraction",
                    "top-gap": "initial-top", "continuity-gap": "initial-continuity"}),
    HInitialReport: ("initial-h", {"top-gap": "initial-h-top",
                                   "continuity-gap": "initial-h-continuity"})}


def _tally(gaps, confirmed, first, fill, guard):
    """(confirmed (lane, index) gaps in gaps, guard bits of the lanes with a
    confirmed one, and with an unconfirmed one) in the lanes of guard: confirmed
    masks the confirmed indices, and first keeps each lane's first gap only."""
    hits = found = loose = seen = 0
    for i, g in enumerate(gaps):
        if g:
            g = (g + fill) & guard & ~seen
            if first:
                seen |= g
            if confirmed >> i & 1:
                hits += g.bit_count()
                found |= g
            else:
                loose |= g
    return hits, found, loose


def _initial_rows(ctx):
    """The rows, by check id, of the selected initial checks, read for their
    report classes off one packed _lift per map of its target's bank, the
    batch _ops_for_initial gives. The bank tables are lifted as given, as
    the cores of h_M too, so the bank must hold its own cores; its draws are
    contractive, and any h_M whose core is a bank table gets its verdicts.

    The mandated TWO -> CHAIN3 trivial counterexample's top gap is the
    "top-gap" entry's witness and one more occurrence, outside the tallies.
    The first lane that breaks monotonicity (the second of _AXIOMS), or the
    top law (the third) though f[L] = M, fails both checks; the lanes before
    it add their confirmed (lane, index) gaps to the tallies. A lane is lifted
    alone only for a registry entry's first witness or an unconfirmed gap."""
    reports = [(r, cid, ids) for r, (cid, ids) in _INITIAL.items() if cid in ctx.config.selected()]

    def alone(report, t, table):
        ctx.kernels["lanes_lifted_alone"] += 1
        return report._OPERATOR(t.target_lattice, table), report._of_lane(t, _lift(t, table))

    f_up = localic_map(two(), chain3(), (0, 2))
    t = _transfer_cached(f_up)
    mandated, tallies, payloads = {}, {}, {}
    for report, _, ids in reports:
        op, rep = alone(report, t, trivial_op(t.target_lattice).table)
        mandated[report] = [a for a in rep.anomalies if a["kind"] == "top-gap"][:1]
        for a in mandated[report]:
            ctx.reg_hit(ids["top-gap"], partial(_anomaly_witness, f_up, op, a))
        tallies[report], payloads[report] = dict.fromkeys(ids, 0), []
    checked = stop = 0
    for f in ctx.maps:
        t = _transfer_cached(f)
        # the masks each gap kind is confirmed on; image_gap is f[L] != M
        unit, image_gap, counit = _confirmed(t, (-1, 1, -1))
        b = _ops_for_initial(ctx, f)
        ctx.kernels["tables_lifted"] += b.lanes
        (gaps, bad, top), continuity = _lift(t, b.masks, b.ones)[1:]
        # the guard bits of the lanes that break monotonicity, or the top law though f[L] = M
        bad = (bad + b.fill) & b.guard
        stop = bad | (0 if image_gap else (top + b.fill) & b.guard)
        checked += b.upto(stop) if stop else b.lanes
        guard = b.guard & (stop & -stop) - 1  # the lanes before the first in stop
        for report, _, ids in reports:
            found = {"contraction-gap": (gaps, unit, False), "top-gap": ([top], image_gap, False),
                     "continuity-gap": (continuity, counit, report._FIRST)}
            read = 0  # the guard bits of the lanes to lift alone
            for kind, rid in ids.items():
                hits, hit, loose = _tally(*found[kind], b.fill, guard)
                read |= loose | (hit & -hit if ctx.registry[rid]["witness"] is None else 0)
                if hits:
                    tallies[report][kind] += hits
                    ctx.reg_hit(rid, hits=hits)
            for p in bits(read):
                op, rep = alone(report, t, b.lane(p // b.width))
                for a in rep.anomalies:
                    if not a["confirmed"]:
                        payloads[report].append(_anomaly_witness(f, op, a))
                    else:
                        ctx.reg_hit(ids[a["kind"]], partial(_anomaly_witness, f, op, a), 0)
        if stop:
            break
    rows = {}
    for report, cid, _ in reports:
        for payload in payloads[report]:
            ctx.report_unexplained(cid, payload)
        if stop:
            rows[cid] = _fail({"checked": checked}, f"{report._AXIOMS[1]} fails for an induced "
                              f"operator on {f.describe()}" if stop & -stop & bad else
                              f"{report._AXIOMS[2]} fails despite f[L] = M for {f.describe()}")
        else:
            rows[cid] = _verdict(ctx, cid, {
                "checked": checked, "tallies": tallies[report], "mandated_top_counterexample":
                "fails-as-documented" if mandated[report] else "unexpected-pass"},
                None if mandated[report] else
                f"{report._AXIOMS[2]} holds on the mandated TWO -> CHAIN3 trivial counterexample")
    return rows


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
    # (operator type, registry id, detail key) of the interior and h sides; the
    # h lift gathers the same masks, so both sides read one candidate
    sides = ((InteriorOperator, "initial-coarseness", "pointwise_violations"),
             (HOperator, "initial-h-coarseness", "h_pointwise_violations"))
    checked = 0
    violations = {key: 0 for *_, key in sides}
    for idx, f in enumerate(ctx.maps[::max(1, len(ctx.maps) // 300)][:300]):
        rng = ctx.rng("coarse", idx)
        t = _transfer_cached(f)
        sl, tl = t.source_lattice, t.target_lattice
        m = _closed_draw(tl, rng)
        l = _continuous_draw(t, m, rng)
        checked += 1
        i = _first(c & ~x for c, x in zip(_candidate(t, m), l))
        if i is None:
            continue
        for op, rid, key in sides:
            def witness():
                return _coarseness_witness(f, op._of_points(tl, m), op._of_points(sl, l),
                                           sl.labels[i])
            if not t.adjunction_gaps[0] >> i & 1:
                ctx.report_unexplained(cid, witness())
            else:
                violations[key] += 1
                ctx.reg_hit(rid, witness)
    ctx.counts["operators"] += 2 * checked
    return _verdict(ctx, cid, {"checked": checked, **violations})


def _named(sl):
    """The tables of the discrete and the trivial operator on sl."""
    return discrete_op(sl).table, trivial_op(sl).table


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


def _check_universal(ctx, op):
    """_universal_report on the configurations of ctx.configs, the operators
    of type op; h operators are read through their cores, on the same draws
    as their interior twins: m and n are contractive, each its own core, so
    only the candidate is cut. Every confirmed disagreement is an occurrence of rid."""
    if not ctx.sampling:
        return "skip", {"reason": "operator sampling disabled"}, None
    h = op is HOperator
    cid, rid = ("universal-property-h", "universal-h-anomaly") if h else (
        "universal-property-interior", "universal-interior-anomaly")
    predicate = "f-h-continuity-gap-at-witness" if h else "f-continuity-gap-at-witness"
    checked = disagreements = 0
    for t, g, m, n, cand in ctx.configs:
        sl, tl, nl = t.source_lattice, t.target_lattice, ctx.sl(g.source)
        if h:
            cand = _core(sl, cand)
        rep = _universal_report(t, g, cand, m, n, predicate)
        checked += 1
        if not rep.equivalent:
            disagreements += 1
            for a in rep.anomalies:
                def witness():
                    return _universal_witness(t.map, g, op._of_points(tl, m),
                                              op._of_points(nl, n), a)
                if not a["confirmed"]:
                    ctx.report_unexplained(cid, witness())
                else:
                    ctx.reg_hit(rid, witness)
    ctx.counts["operators"] += 2 * checked
    detail = {"checked": checked, "disagreements": disagreements}
    return _verdict(ctx, cid, detail, _shortfall(checked, "configurations"))


def _check_open_preimage(ctx):
    checked = 0
    for idx, f in enumerate(ctx.maps):
        if f.source.n > 5 or f.target.n > 5:
            continue
        t = _transfer_cached(f)
        pairs = [(range(t.source_lattice.n), m) for m in _named(t.target_lattice)]
        if ctx.sampling:
            rng = ctx.rng("open-pre", idx)
            for _ in range(3):
                m = _closed_draw(t.target_lattice, rng)
                pairs.append((_continuous_draw(t, m, rng), m))
        for l, m in pairs:
            rep = _open_preimage(t, l, m)
            if rep.status == "precondition-unmet":
                return _fail({"checked": checked},
                             f"constructed triple not continuous for {f.describe()}")
            checked += 1
            if rep.status != "pass":
                return _fail({"checked": checked},
                             f"open preimage fails for {f.describe()} at {rep.witness}")
    ctx.counts["operators"] += checked
    return "pass", {"checked": checked}, None


def _check_points_spatiality(ctx):
    fixture_ok = (
        len(points_of(two())) == 1
        and len(points_of(chain3())) == 2
        and len(points_of(square())) == 2
        and len(ctx.sl(chain3())) == 4
        and len(ctx.sl(square())) == 4
        and len(ctx.sl(two())) == 2
    )
    if not fixture_ok:
        return _fail({}, "fixture counts are off")
    frames = 0
    for key, fr in ctx.frames:
        # the spatialization a |-> sigma(a) is injective iff sigma is
        sig = _sigma(fr)
        if not _spatiality(fr, sig).ok or len(set(sig)) != fr.n:
            return _fail({"frames": frames}, f"spatiality fails or definitions disagree on {key}")
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
    ("composition-interior", _check_composition),
    ("composition-h", _check_composition),
    ("initial-interior", lambda ctx: ctx.initial["initial-interior"]),
    ("initial-h", lambda ctx: ctx.initial["initial-h"]),
    ("coarseness", _check_coarseness),
    ("universal-property-interior", partial(_check_universal, op=InteriorOperator)),
    ("universal-property-h", partial(_check_universal, op=HOperator)),
    ("open-preimage", _check_open_preimage),
    ("points-spatiality", _check_points_spatiality),
)

CHECKS = dict(CHECK_ORDER)


def run_verification(config: CorpusConfig, progress=None, kernels=None) -> dict:
    """Run the selected checks; progress(row, seconds), when given, is called
    as each check finishes, with its report row and its wall time, and the
    dict kernels, when given, receives the operator-kernel counters."""
    ctx = _Ctx(config, kernels)
    rows = []
    for cid in config.selected():
        start = time.perf_counter()
        status, detail, witness = CHECKS[cid](ctx)
        rows.append({"id": cid, "status": status, "detail": detail, "witness": witness})
        if progress is not None:
            progress(rows[-1], time.perf_counter() - start)
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
    """Re-execute the failure behind a check or registry id as a step trace.

    Witness operator tables are lattice indices, whose order a version may
    change, so a report of another version is refused with ValueError.
    """
    if report.get("version") != ARTIFACT_VERSION:
        raise ValueError(f"report version {report.get('version')} cannot be replayed by "
                         f"version {ARTIFACT_VERSION}: its witness tables index another order")
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
    true_join = sub_join_mask(fr, (left, right))
    naive, rep, reason = _sup_form(fr, union, true_join)
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
    lines.append("display form falsified" if reason else "display form holds here")
    return lines


def _trace_discrete_h_not_largest(w):
    fr = frame_from_json(w["frame"])
    sl = _enumerate(fr)
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


def _predicate_lines(t, anomaly):
    sl, tl = t.source_lattice, t.target_lattice
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


def _reproduced(lines, anomalies, want, explain):
    """lines, then the trace of the anomaly of want's kind and place in
    anomalies: explain(it) and whether it is confirmed, or its absence."""
    found = next((a for a in anomalies if a["kind"] == want["kind"] and a["at"] == want["at"]),
                 None)
    if found is None:
        return lines + ["anomaly did not reproduce"]
    return lines + explain(found) + [
        "anomaly reproduced" if found["confirmed"] else "anomaly reproduced but unconfirmed"]


def _trace_initial_anomaly(w):
    f = _rebuild_map(w["map"])
    op = _rebuild_op(w["op"], f.target)
    rep = (initial_h if isinstance(op, HOperator) else initial_interior)(f, op)
    want = w["anomaly"]
    lines = [f"induced operator anomaly for f: {f.source.key()} -> {f.target.key()}",
             f"looking for {want['kind']} at {want['at']} ({want['predicate']})"]
    return _reproduced(lines, rep.anomalies, want, partial(_predicate_lines, transfer_of(f)))


def _trace_coarseness(w):
    f = _rebuild_map(w["map"])
    opm = _rebuild_op(w["op_m"], f.target)
    opl = _rebuild_op(w["op_l"], f.source)
    t = transfer_of(f)
    sl = t.source_lattice
    lines = [f"coarseness of the induced operator under f: {f.source.key()} -> "
             f"{f.target.key()} at {w['at']}"]
    cand = (initial_h if w["fragment"] else initial_interior)(f, opm).candidate
    gap = op_le_gap(cand, opl)
    if gap != w["at"]:
        lines.append(f"first gap moved to {gap!r}; anomaly did not reproduce")
        return lines
    i = sl.labels.index(gap)
    lines.append(f"candidate({gap}) = {sl.label(cand(i))} exceeds "
                 f"op_L({gap}) = {sl.label(opl(i))}")
    return lines + _predicate_lines(t, {"at": gap, "predicate": "unit-gap"}) + [
        "anomaly reproduced"]


def _trace_universal_anomaly(w):
    f = _rebuild_map(w["f"])
    g = _rebuild_map(w["g"])
    opm = _rebuild_op(w["op_m"], f.target)
    opn = _rebuild_op(w["op_n"], g.source)
    rep = (check_h_universal if w["fragment"] else check_universal_property)(f, opm, g, opn)
    lines = [
        f"lifting equivalence for g: {g.source.key()} -> {g.target.key()} into "
        f"f: {f.source.key()} -> {f.target.key()}",
        f"initial side ok: {rep.initial_side.ok}; composite side ok: "
        f"{rep.composite_side.ok}",
    ]

    def explain(a):
        side = rep.initial_side if a["kind"] == "initial-side-only" else rep.composite_side
        return [f"failing side witness: {side.witness}", f"predicate: {a['predicate']}"]

    return _reproduced(lines, rep.anomalies, w["anomaly"], explain)


def _trace_static(w):
    return list(w.get("lines", ())) or ["no further detail recorded"]


_REPLAYERS = {
    "heyting-sup-arrow": _trace_heyting_sup_arrow,
    "sublocale-join-form": _trace_sublocale_join_form,
    "discrete-h-not-largest": _trace_discrete_h_not_largest,
    "initial-anomaly": _trace_initial_anomaly,
    "coarseness-anomaly": _trace_coarseness,
    "universal-anomaly": _trace_universal_anomaly,
    "static": _trace_static,
}
