"""Acceptance gate: nine numbered criteria, one printed line each.

Summary lines are emitted with capture disabled so they appear in any
invocation. Criterion 6 is split: the qualified clauses hold
and are asserted; the unqualified axiom clause (contraction and source
continuity for every induced operator) is falsified by real unit/counit
gaps on non-injective maps, so that clause runs as a strict expected
failure and its line reports FAIL. Every such gap is classified in the
known-anomaly registry; an unclassified one would fail the suite.

Oracles here are deliberately independent of the modules under test:
criterion 1 counts sublocales by scanning raw subsets against frame meet
and arrow tables, and counts points by scanning raw 0/1 assignments;
criterion 2 recomputes each join as the intersection of all sublocales
containing the union.
"""
import json
import random
import shutil
import subprocess
import sys
from itertools import product

import pytest

from localelab.corpus import chain3, child_seed, corpus_frames, square, two
from localelab.errors import NotLocalic
from localelab.hops import (
    check_h,
    check_h_composition,
    check_h_universal,
    complemented_fragment,
    discrete_h,
    h_from_interior,
    initial_h,
    random_h,
    trivial_h,
)
from localelab.interior import (
    InteriorOperator,
    check_composition,
    check_interior,
    check_open_preimage,
    check_universal_property,
    discrete_op,
    initial_interior,
    initial_lift,
    make_continuous_op,
    op_join,
    op_le,
    op_meet,
    random_op,
    trivial_op,
)
from localelab.maps import FrameHom, enumerate_frame_homs, localic_map, right_adjoint
from localelab.points import is_spatial, points_of, spatialization
from localelab.sublocales import (
    check_adjunction,
    enumerate_sublocales,
    generation_check,
    open_sub_mask,
    sub_join_mask,
    transfer_of,
)
from localelab.verify import replay
from oracles import all_interior_tables, maps_in_hom_order


def criterion(capsys, n, ok: bool, summary: str) -> None:
    # pytest captures at the fd level, so route the gate line past capture
    with capsys.disabled():
        print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {summary}", flush=True)


def maps_between(max_frame_size: int):
    frames = [fr for _, fr in corpus_frames(4) if fr.n <= max_frame_size]
    return maps_in_hom_order((a, b) for a in frames for b in frames)


def composable_pairs(maps):
    by_source = {}
    for g in maps:
        by_source.setdefault(id(g.source), []).append(g)
    # corpus frames are cached singletons, so identity grouping is exact
    return [(f, g) for f in maps for g in by_source.get(id(f.target), ())]


@pytest.fixture(scope="module")
def small_maps():
    return maps_between(4)


@pytest.fixture(scope="module")
def cli_reports(tmp_path_factory, subprocess_env):
    d = tmp_path_factory.mktemp("acceptance")
    exe = shutil.which("localelab")
    base = [exe] if exe else [sys.executable, "-m", "localelab.cli"]
    outs, paths = [], []
    for i in (1, 2):
        # same relative report name in different cwds keeps stdout comparable
        run_dir = d / f"run{i}"
        run_dir.mkdir()
        proc = subprocess.run(
            base
            + [
                "verify", "--max-poset", "4", "--samples", "100",
                "--seed", "42", "--report", "report.json",
            ],
            capture_output=True,
            text=True,
            timeout=280,
            cwd=run_dir,
            env=subprocess_env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
        paths.append(run_dir / "report.json")
    return outs, paths


# -- criterion 1 --------------------------------------------------------------

def brute_sublocale_count(fr) -> int:
    count = 0
    for mask in range(1 << fr.n):
        if not mask >> fr.top & 1:
            continue
        members = [i for i in range(fr.n) if mask >> i & 1]
        if not all(mask >> fr.meet(a, b) & 1 for a in members for b in members):
            continue
        if all(mask >> fr.imp(x, s) & 1 for x in range(fr.n) for s in members):
            count += 1
    return count


def brute_point_count(fr) -> int:
    count = 0
    for mask in range(1 << fr.n):
        p = [mask >> i & 1 for i in range(fr.n)]
        if p[fr.bottom] or not p[fr.top]:
            continue
        if all(
            p[fr.meet(a, b)] == (p[a] & p[b]) and p[fr.join(a, b)] == (p[a] | p[b])
            for a in range(fr.n)
            for b in range(fr.n)
        ):
            count += 1
    return count


def test_criterion_1_fixture_counts(capsys):
    expected_subs = {"CHAIN3": (chain3(), 4), "SQUARE": (square(), 4), "TWO": (two(), 2)}
    bad = []
    for name, (fr, want) in expected_subs.items():
        oracle = brute_sublocale_count(fr)
        got = enumerate_sublocales(fr).n
        if not (oracle == got == want):
            bad.append((name, want, oracle, got))
    for name, fr in (("CHAIN3", chain3()), ("SQUARE", square())):
        oracle = brute_point_count(fr)
        got = len(points_of(fr))
        if not (oracle == got == 2):
            bad.append((name, 2, oracle, got))
    criterion(capsys, 1, not bad, "S_l counts 4/4/2 and pt counts 2/2 match the "
                          "subset and assignment oracles")
    assert not bad, bad


# -- criterion 2 --------------------------------------------------------------

def test_criterion_2_frame_and_sublocale_laws(capsys):
    heyting = complements = generation = joins = 0
    join_pairs = 0
    for key, fr in corpus_frames(4):
        for a in range(fr.n):
            for b in range(fr.n):
                for c in range(fr.n):
                    if fr.le(fr.meet(a, b), c) != fr.le(a, fr.imp(b, c)):
                        heyting += 1
        bottom_mask = 1 << fr.top
        for a in range(fr.n):
            closed, opened = fr.up[a], open_sub_mask(fr, a)
            if closed & opened != bottom_mask:
                complements += 1
            if sub_join_mask(fr, (closed, opened)) != fr.full_mask:
                complements += 1
        sl = enumerate_sublocales(fr, limit=fr.n)
        if fr.n <= 6:
            for i in range(sl.n):
                if not generation_check(sl, i).ok:
                    generation += 1
        for i in range(sl.n):
            for j in range(sl.n):
                union = sl.masks[i] | sl.masks[j]
                least = fr.full_mask
                for m in sl.masks:
                    if not union & ~m:
                        least &= m
                join_pairs += 1
                if sl.masks[sl.join(i, j)] != least:
                    joins += 1
    ok = heyting == complements == generation == joins == 0
    criterion(capsys, 2, ok, "Heyting adjunction, c/o complementation, generation, "
                     f"and the join oracle ({join_pairs} pairs) have zero failures "
                     "on all 24 corpus frames")
    assert ok, (heyting, complements, generation, joins)


# -- criterion 3 --------------------------------------------------------------

def test_criterion_3_adjoint_round_trip(capsys):
    frames = [fr for _, fr in corpus_frames(4) if fr.n <= 4]
    homs = 0
    bad = []
    for a in frames:
        for b in frames:
            for table in enumerate_frame_homs(a, b):
                homs += 1
                h = FrameHom(a, b, table)
                f = right_adjoint(h.source, h.target, h.table)
                try:
                    localic_map(f.source, f.target, f.table)
                except NotLocalic as exc:
                    bad.append(("not-localic", table, str(exc)))
                    continue
                if f.adjoint.table != h.table:
                    bad.append(("round-trip", table))
                elif not check_adjunction(f).ok:
                    bad.append(("adjunction", table))
    ok = not bad and homs > 0
    criterion(capsys, 3, ok, f"all {homs} frame homs between frames of size <= 4 "
                     "give localic right adjoints, full adjunction scans, "
                     "and exact left-adjoint round trips")
    assert ok, bad[:3]


# -- criterion 4 --------------------------------------------------------------

def test_criterion_4_operator_suites(capsys):
    frames = [(key, fr) for key, fr in corpus_frames(4) if fr.n <= 5]
    bad = []
    sampled = 0
    for key, fr in frames:
        sl = enumerate_sublocales(fr)
        frag = complemented_fragment(sl)
        disc, triv = discrete_op(sl), trivial_op(sl)
        disc_h, triv_h = discrete_h(frag), trivial_h(frag)
        for named in (disc, triv):
            if not check_interior(named).ok:
                bad.append((key, "named-interior"))
        for named in (disc_h, triv_h):
            if not check_h(named).ok:
                bad.append((key, "named-h"))
        rng = random.Random(child_seed("acceptance", "ops", key))
        ops = [random_op(sl, rng) for _ in range(100)]
        hs = [random_h(frag, rng) for _ in range(100)]
        sampled += len(ops) + len(hs)
        for x in ops:
            if not check_interior(x).ok:
                bad.append((key, "random-interior"))
            if not (op_le(triv, x) and op_le(x, disc)):
                bad.append((key, "interior-bounds"))
        for x in hs:
            if not check_h(x).ok:
                bad.append((key, "random-h"))
            if not (op_le(triv_h, x) and op_le(x, disc_h)):
                bad.append((key, "h-bounds"))
        for combined in (op_join(ops[:2]), op_meet(ops[:2])):
            if not check_interior(combined).ok:
                bad.append((key, "interior-lattice-op"))
        for combined in (op_join(hs[:2]), op_meet(hs[:2])):
            if not check_h(combined).ok:
                bad.append((key, "h-lattice-op"))
    ok = not bad and sampled >= 100 * 2 * len(frames)
    criterion(capsys, 4, ok, f"named, joined, met, and {sampled} seeded operators "
                     f"on {len(frames)} frames all satisfy their axioms, "
                     "with trivial <= X <= discrete throughout")
    assert ok, bad[:3]


# -- criterion 5 --------------------------------------------------------------

def test_criterion_5_composition(capsys, small_maps):
    pairs = composable_pairs(small_maps)
    step = max(1, len(pairs) // 220)
    interior_done = h_done = 0
    bad = []
    for idx, (f, g) in enumerate(pairs[::step]):
        rng = random.Random(child_seed("acceptance", "compose", idx))
        opn = random_op(enumerate_sublocales(g.target), rng)
        opm = make_continuous_op(g, opn, rng)
        opl = make_continuous_op(f, opm, rng)
        rep = check_composition(f, g, opl, opm, opn)
        interior_done += 1
        if rep.status != "pass":
            bad.append(("interior", idx, rep.status))
        hrep = check_h_composition(
            f, g, h_from_interior(opl), h_from_interior(opm), h_from_interior(opn)
        )
        h_done += 1
        if hrep.status != "pass":
            bad.append(("h", idx, hrep.status))
    ok = not bad and interior_done >= 200 and h_done >= 200
    criterion(capsys, 5, ok, f"{interior_done} interior and {h_done} h composition "
                     "triples pass, the h ones on the cores S ^ h(S)")
    assert ok, bad[:3]


# -- criterion 6 --------------------------------------------------------------

def test_criterion_6_initial_and_universal(capsys, small_maps, cli_reports):
    bad = []
    pair_count = 0
    for f in small_maps:
        slm = enumerate_sublocales(f.target)
        frag_m = complemented_fragment(slm)
        t = transfer_of(f)
        surjective = t.image_table[t.source_lattice.top] == t.target_lattice.top
        rng = random.Random(child_seed("acceptance", "initial", f.describe()))
        ops = [discrete_op(slm), trivial_op(slm)] + [random_op(slm, rng) for _ in range(3)]
        for op in ops:
            pair_count += 1
            rep = initial_interior(f, op)
            if not rep.axioms.passed["I2"]:
                bad.append(("I2", f.describe()))
            if surjective and not rep.axioms.passed["I3"]:
                bad.append(("I3-surjective", f.describe()))
            if rep.unexplained:
                bad.append(("unexplained", f.describe()))
        for hop in (discrete_h(frag_m), trivial_h(frag_m), random_h(frag_m, rng)):
            pair_count += 1
            hrep = initial_h(f, hop)
            if surjective and not hrep.axioms.passed["h3"]:
                bad.append(("h3-surjective", f.describe()))
            if hrep.unexplained:
                bad.append(("h-unexplained", f.describe()))

    # the mandated counterexample: TWO -> CHAIN3 with the trivial operator
    f_up = localic_map(two(), chain3(), (0, 2))
    sl3 = enumerate_sublocales(chain3())
    rep = initial_interior(f_up, trivial_op(sl3))
    if rep.axioms.passed["I3"]:
        bad.append(("mandated-I3-should-fail",))
    hrep = initial_h(f_up, trivial_h(complemented_fragment(sl3)))
    if hrep.axioms.passed["h3"]:
        bad.append(("mandated-h3-should-fail",))
    report = json.loads(cli_reports[1][0].read_text())
    registry = {e["id"]: e for e in report["registry"]}
    for rid in ("initial-top", "initial-h-top"):
        if registry.get(rid, {}).get("status") != "confirmed":
            bad.append(("registry-missing", rid))

    pairs = composable_pairs(small_maps)
    step = max(1, len(pairs) // 80)
    up_interior = up_h = 0
    for idx, (g, f) in enumerate(pairs[::step]):
        # g: N -> L feeds f: L -> M
        rng = random.Random(child_seed("acceptance", "universal", idx))
        slm, sln = enumerate_sublocales(f.target), enumerate_sublocales(g.source)
        for opm in (discrete_op(slm), trivial_op(slm), random_op(slm, rng)):
            opn = random_op(sln, rng)
            rep = check_universal_property(f, opm, g, opn)
            up_interior += 1
            if rep.unexplained:
                bad.append(("up-interior-unexplained", idx))
            hrep = check_h_universal(f, h_from_interior(opm), g, h_from_interior(opn))
            up_h += 1
            if hrep.unexplained:
                bad.append(("up-h-unexplained", idx))
    ok = not bad and up_interior >= 200 and up_h >= 200
    criterion(capsys, 6, ok, f"I2 always, I3/h3 on all surjective instances "
                     f"({pair_count} induced operators), the mandated "
                     "TWO->CHAIN3 instance fails I3 and h3 and is registered, "
                     f"and {up_interior}+{up_h} universal configurations "
                     "carry only registry-classified anomalies")
    assert ok, bad[:5]


@pytest.mark.xfail(
    strict=True,
    reason="contraction and source continuity fail on maps with unit or "
           "counit gaps; the violations are classified in the registry",
)
def test_criterion_6_axiom_clause_as_written(capsys, small_maps):
    violations = 0
    checked = 0
    for f in small_maps:
        slm = enumerate_sublocales(f.target)
        for op in (discrete_op(slm), trivial_op(slm)):
            checked += 1
            rep = initial_interior(f, op)
            if not rep.axioms.passed["I1"] or not rep.continuity.ok:
                violations += 1
    criterion(capsys, "6 (axiom clause as written)", violations == 0,
              f"contraction and continuity hold for all induced operators: "
              f"{violations} of {checked} instances violate the clause")
    assert violations == 0


def test_criterion_6_lift_as_written_on_point_bijections(capsys):
    """The paper's induced operator S |-> f_-1[i_M(f[S])] equals the initial
    lift f_-1[i_M(not f[not S])] for every op_M iff f is a bijection on
    points, where f[S] = not f[not S]: 53 of the 476 corpus-3 maps."""
    frames = [fr for _, fr in corpus_frames(3)]
    maps = maps_in_hom_order(product(frames, frames))
    bijections = 0
    for f in maps:
        tl = enumerate_sublocales(f.target)
        same = all(initial_interior(f, op_m).candidate.table == initial_lift(f, op_m).table
                   for op_m in (InteriorOperator(tl, t) for t in all_interior_tables(tl)))
        bijective = len(set(f.points)) == len(f.points) == len(f.target.prime_list)
        assert same == bijective, f.describe()
        bijections += bijective
    ok = (bijections, len(maps)) == (53, 476)
    criterion(capsys, "6 (lift as written)", ok,
              f"the displayed lift is the initial lift for every operator exactly on "
              f"the {bijections} point bijections of the {len(maps)} corpus-3 maps")
    assert ok


# -- criterion 7 --------------------------------------------------------------

def test_criterion_7_open_preimage(capsys):
    maps = maps_between(5)
    bad = []
    fixpoints = 0
    triples = 0
    for idx, f in enumerate(maps):
        sll = enumerate_sublocales(f.source)
        slm = enumerate_sublocales(f.target)
        rng = random.Random(child_seed("acceptance", "openpre", idx))
        configs = [
            (discrete_op(sll), discrete_op(slm)),
            (discrete_op(sll), trivial_op(slm)),
        ]
        for _ in range(2):
            opm = random_op(slm, rng)
            configs.append((make_continuous_op(f, opm, rng), opm))
        for opl, opm in configs:
            rep = check_open_preimage(f, opl, opm)
            triples += 1
            if rep.status != "pass":
                bad.append((idx, rep.status, rep.witness))
            fixpoints += rep.checked
    ok = not bad
    criterion(capsys, 7, ok, f"open preimages stay open across {triples} continuous "
                     f"triples on {len(maps)} maps ({fixpoints} fixpoints)")
    assert ok, bad[:3]


# -- criterion 8 --------------------------------------------------------------

def test_criterion_8_spatiality(capsys):
    bad = []
    for key, fr in corpus_frames(4):
        rep = is_spatial(fr)
        injective = len(set(spatialization(fr).table)) == fr.n
        if not rep.ok:
            bad.append((key, "witness-pairs"))
        if injective != rep.ok:
            bad.append((key, "crosscheck-disagrees"))
    criterion(capsys, 8, not bad, "every corpus frame is spatial and the "
                          "spatialization-injectivity crosscheck agrees")
    assert not bad, bad


# -- criterion 9 --------------------------------------------------------------

GOOD_TAILS = (
    "anomaly reproduced",
    "display form falsified",
    "≠ L",
    "the discrete h operator is not the largest",
)


def reproduces(trace: str) -> bool:
    if "did not reproduce" in trace or "unconfirmed" in trace:
        return False
    last = trace.rstrip().splitlines()[-1]
    return any(last.endswith(tail) for tail in GOOD_TAILS)


def test_criterion_9_determinism_and_replay(capsys, cli_reports):
    outs, paths = cli_reports
    identical = outs[0] == outs[1] and paths[0].read_bytes() == paths[1].read_bytes()
    report = json.loads(paths[0].read_text())
    statuses = {row["id"]: row["status"] for row in report["checks"]}
    bad = [] if identical else ["runs-differ"]
    replayed = 0
    for row in report["checks"]:
        if row.get("witness"):
            replayed += 1
            if not reproduces(replay(report, row["id"])):
                bad.append(row["id"])
    for entry in report["registry"]:
        if entry.get("witness"):
            replayed += 1
            if not reproduces(replay(report, entry["id"])):
                bad.append(entry["id"])
    if any(s != "pass" for s in statuses.values()):
        bad.append("harness-check-failed")
    if replayed < len(report["registry"]):
        bad.append("missing-witnesses")
    ok = not bad
    criterion(capsys, 9, ok, "two seeded CLI runs are byte-identical and all "
                     f"{replayed} recorded witnesses replay to their failures")
    assert ok, bad
