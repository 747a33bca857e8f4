"""The verification harness: determinism, registry, replay.

The default-run counts and registry occurrences below were frozen from a run
of the harness itself and double-checked against a second run; they pin the
sampling plan, so any change to striding, budgets, or seed derivation shows
up here first.
"""
import copy
import dataclasses
import hashlib
import importlib
import json
from itertools import groupby

import pytest

from localelab import interior as interior_module
from localelab import verify
from localelab.corpus import chain3, two
from localelab.errors import UnknownWitness
from localelab.hops import (
    HOperator,
    _core,
    check_h_composition,
    check_h_universal,
    h_from_interior,
    initial_h,
    is_h_continuous,
)
from localelab.interior import (
    ContinuityReport,
    InteriorOperator,
    OpenPreimageReport,
    UniversalReport,
    check_composition,
    check_open_preimage,
    check_universal_property,
    discrete_op,
    initial_interior,
    is_I_continuous,
    make_continuous_op,
    op_le_gap,
    random_op,
    trivial_op,
)
from localelab.maps import compose_localic, localic_map
from localelab.serialize import frame_to_json, save_json
from localelab.sublocales import (
    SublocaleTransfer,
    _class_tables,
    _transfer_cached,
    enumerate_sublocales,
    transfer_of,
)
from localelab.verify import CHECK_ORDER, CorpusConfig, run_verification, replay

ALL_CHECKS = [
    "poset-counts", "heyting-adjunction", "heyting-identities",
    "complement-laws", "generation-property", "sublocale-join-oracle",
    "galois-adjunction", "boolean-fragment", "interior-axioms", "h-axioms",
    "contractive-equivalence", "composition-interior", "composition-h",
    "initial-interior", "initial-h", "coarseness",
    "universal-property-interior", "universal-property-h", "open-preimage",
    "points-spatiality",
]

SAMPLING_CHECKS = {
    "contractive-equivalence", "composition-interior", "composition-h",
    "coarseness", "universal-property-interior", "universal-property-h",
}

REGISTRY_IDS = [
    "discrete-h-not-largest", "initial-coarseness", "initial-continuity",
    "initial-contraction", "initial-h-coarseness", "initial-h-continuity",
    "initial-h-top", "initial-top", "sublocale-join-display-form",
    "sup-arrow-display-form", "universal-h-anomaly",
    "universal-interior-anomaly",
]

SMALL = dict(max_poset_size=3, operator_samples_per_frame=20, seed=7)


@pytest.fixture(scope="module")
def default_report():
    return run_verification(CorpusConfig())


def test_check_order_is_stable():
    assert [cid for cid, _ in CHECK_ORDER] == ALL_CHECKS


def test_default_run_all_pass(default_report):
    assert default_report["artifact"] == "localelab-verification"
    assert default_report["version"] == 9
    assert {r["id"]: r["status"] for r in default_report["checks"]} == {
        cid: "pass" for cid in ALL_CHECKS
    }
    assert default_report["unexplained"] == []


def test_default_run_counts(default_report):
    assert default_report["counts"] == {
        "posets": 24,
        "frames": 24,
        "maps": 1135,
        "hom_candidates": 197744,
        "map_pairs_skipped": 390,
        "frames_beyond_map_bound": 1,
        "operators": 10525,
    }


def test_registry_every_entry_confirmed(default_report):
    entries = default_report["registry"]
    assert [e["id"] for e in entries] == REGISTRY_IDS
    for e in entries:
        assert e["status"] == "confirmed", e["id"]
        # the check that confirms an entry records its first occurrence as the witness
        assert e["occurrences"] > 0 and e["witness"] is not None, e["id"]
        assert e["kind"] in ("text-discrepancy", "expected-fail")
        assert e["claim"]
    kinds = {e["id"]: e["kind"] for e in entries}
    assert kinds["sup-arrow-display-form"] == "text-discrepancy"
    assert kinds["sublocale-join-display-form"] == "text-discrepancy"
    assert kinds["discrete-h-not-largest"] == "text-discrepancy"
    assert kinds["initial-top"] == "expected-fail"


def test_registry_occurrence_counts_frozen(default_report):
    occ = {e["id"]: e["occurrences"] for e in default_report["registry"]}
    # corpus-wide scans, sampling-independent
    assert occ["sup-arrow-display-form"] == 17
    assert occ["sublocale-join-display-form"] == 20
    assert occ["discrete-h-not-largest"] == 24
    # seeded-sampling tallies, deterministic at the default config
    assert occ["initial-contraction"] == 233846
    assert occ["universal-interior-anomaly"] == 71
    assert occ["universal-h-anomaly"] == 36
    # both initial checks lift one bank, and a contractive table is its own
    # core, so the top gaps of the two agree by construction
    assert occ["initial-h-top"] == occ["initial-top"] == 19530
    assert occ["initial-h-continuity"] == 25571


def test_config_echo(default_report):
    assert default_report["config"] == {
        "max_poset_size": 4,
        "operator_samples_per_frame": 100,
        "map_budget": 200_000,
        "seed": 42,
        "checks": ALL_CHECKS,
    }


def test_default_report_bytes_pinned(default_report, tmp_path):
    # the bytes `localelab verify --report` writes at the defaults (seed 42);
    # a deliberate change to them bumps ARTIFACT_VERSION and re-pins this
    path = tmp_path / "report.json"
    save_json(str(path), default_report)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "c49af294092fd82dc68a70f531b5d939e1d1fca86863653c24f01fcda73eadbf"


def test_exported_default_bound_leaves_the_report_bytes_alone(monkeypatch, tmp_path):
    # LOCALELAB_SIZE_LIMIT bounds S_l alone, so exporting its default, 12,
    # writes the pinned default bytes: pt(L) reads no bound
    monkeypatch.setenv("LOCALELAB_SIZE_LIMIT", "12")
    path = tmp_path / "report.json"
    save_json(str(path), run_verification(CorpusConfig()))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "c49af294092fd82dc68a70f531b5d939e1d1fca86863653c24f01fcda73eadbf"


def test_maps_sweep_report_bytes_pinned(tmp_path):
    # the bytes of `localelab verify --max-poset 4 --budget 10000000
    # --samples 0 --checks galois-adjunction --seed 42 --report ...`: the
    # Galois check over the 5,217 maps that budget admits; it reads no draw,
    # and it confirms no registry entry, so all twelve stay not-observed
    report = run_verification(CorpusConfig(
        max_poset_size=4, operator_samples_per_frame=0, map_budget=10_000_000,
        seed=42, checks=("galois-adjunction",)))
    assert report["counts"]["maps"] == 5217
    assert {e["status"] for e in report["registry"]} == {"not-observed"}
    path = tmp_path / "report.json"
    save_json(str(path), report)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "a8d8b5557798a64683caf5a761f0c6b71818e507734b55b429c4b06790cc065b"


def test_max_poset_5_report_bytes_pinned(tmp_path):
    # the bytes of `localelab verify --max-poset 5 --report ...` (seed 42): the
    # operator checks on the corpus-5 frames and maps; pt(L) has no bound, so
    # points-spatiality covers all 87 frames (ca3983d2c448... when it skipped)
    report = run_verification(CorpusConfig(max_poset_size=5))
    assert report["counts"]["frames"] == 87
    row = next(r for r in report["checks"] if r["id"] == "points-spatiality")
    assert (row["status"], row["detail"]) == ("pass", {"frames": 87, "spatial": 87})
    path = tmp_path / "report.json"
    save_json(str(path), report)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "124a718ee437db286ef5ba150faec1b264942aa74f8844cd4dd9c7244d775bcf"


def _inject_adjoint(monkeypatch, ctx, f, lane_words):
    """Make galois-adjunction's `_adjoint_lanes`, and the read-off after it,
    see lane_words(words) in f's lane of the adjoint words of f's frame
    pair: words holds the pair's own, and lane_words gives one value per
    element. Returns f's lane."""
    groups = [list(g) for _, g in groupby(ctx.maps, lambda g: (g.source, g.target))]
    k = next(k for k, g in enumerate(groups) if f in g)
    m, calls, real = groups[k].index(f), iter(range(len(groups))), verify._adjoint_lanes

    def lanes(source, tl, words, img):
        if next(calls) == k:
            lane, shift = (1 << words.width) - 1 << m * words.width, m * words.width
            words.masks[:] = [x & ~lane | v << shift for x, v in zip(words.masks, lane_words(words))]
        return real(source, tl, words, img)

    monkeypatch.setattr(verify, "_adjoint_lanes", lanes)
    return m


def _hom_words(hom, source):
    """The adjoint words of a frame hom table into source: for each element,
    the mask of the positions of the primes above its value."""
    return [sum(1 << b for b, p in enumerate(source.prime_list) if source.up[v] >> p & 1)
            for v in hom]


def test_galois_adjunction_fails_on_a_broken_round_trip(monkeypatch):
    # the frame-level half of the check can still fail: a lane whose adjoint
    # words are those of another map of its pair, a frame hom whose right
    # adjoint loses the lane's point map, is reported with the map it lost
    ctx = verify._Ctx(CorpusConfig(max_poset_size=2, checks=("galois-adjunction",)))
    pairs = [list(g) for _, g in groupby(ctx.maps, lambda g: (g.source, g.target))]
    f = next(maps for maps in pairs if len(maps) > 1)[0]
    _inject_adjoint(monkeypatch, ctx, f, lambda words: words.lane(1))
    status, _, witness = verify.CHECKS["galois-adjunction"](ctx)
    assert (status, witness["lines"]) == ("fail", [f"left adjoint round trip differs for "
                                                   f"{f.describe()}"])


def test_galois_adjunction_fails_on_a_wrong_adjoint(monkeypatch):
    # a left adjoint that is a frame hom, but the lex-first one rather than
    # the map's own, does not give the point map back
    from localelab.maps import _adjoint_table, enumerate_frame_homs

    ctx = verify._Ctx(CorpusConfig(max_poset_size=2, checks=("galois-adjunction",)))
    first = {f: enumerate_frame_homs(f.target, f.source)[0] for f in ctx.maps}
    f = next(f for f in ctx.maps if _adjoint_table(f) != first[f])
    _inject_adjoint(monkeypatch, ctx, f, lambda words: _hom_words(first[f], f.source))
    status, _, witness = verify.CHECKS["galois-adjunction"](ctx)
    assert (status, witness["lines"]) == ("fail", [f"left adjoint round trip differs for "
                                                   f"{f.describe()}"])


def test_galois_adjunction_fails_on_an_adjoint_that_is_no_frame_hom(monkeypatch):
    # a left adjoint that sends the top to the bottom breaks the top law:
    # the check fails with the law and its witness instead of raising
    ctx = verify._Ctx(CorpusConfig(max_poset_size=2, checks=("galois-adjunction",)))
    f = ctx.maps[0]

    def broken(words):
        lane = words.lane(m)
        lane[f.target.top] = lane[f.target.bottom]
        return lane

    m = _inject_adjoint(monkeypatch, ctx, f, broken)
    report = run_verification(ctx.config)
    (row,) = report["checks"]
    assert (row["status"], row["detail"]) == ("fail", {"maps": len(ctx.maps)})
    assert row["witness"]["lines"] == [f"left adjoint of {f.describe()} breaks the top law "
                                       f"at ('{f.target.labels[f.target.top]}',)"]


def test_galois_adjunction_fails_on_an_adjoint_word_that_is_no_element(monkeypatch):
    # a word that is not up-closed in the source's primes names no element:
    # the read-off adjoint breaks the totality law
    ctx = verify._Ctx(CorpusConfig(max_poset_size=2, checks=("galois-adjunction",)))
    pairs = [list(g) for _, g in groupby(ctx.maps, lambda g: (g.source, g.target))]
    f = next(g for maps in pairs for g in maps[1:] if any(g.source.primes_above))
    b = next(b for b, above in enumerate(f.source.primes_above) if above)

    def broken(words):
        lane = words.lane(m)
        lane[f.target.top] = 1 << b  # b without the primes above it
        return lane

    m = _inject_adjoint(monkeypatch, ctx, f, broken)
    status, _, witness = verify.CHECKS["galois-adjunction"](ctx)
    assert (status, witness["lines"]) == ("fail", [f"left adjoint of {f.describe()} breaks the "
                                                   f"totality law at ({f.target.n},)"])


def test_reports_are_byte_identical_for_equal_configs():
    a = run_verification(CorpusConfig(**SMALL))
    b = run_verification(CorpusConfig(**SMALL))
    ja = json.dumps(a, indent=2, sort_keys=True)
    jb = json.dumps(b, indent=2, sort_keys=True)
    assert ja == jb


def test_check_subset_runs_in_canonical_order():
    cfg = CorpusConfig(
        checks=("galois-adjunction", "poset-counts"), **SMALL
    )
    rep = run_verification(cfg)
    assert [r["id"] for r in rep["checks"]] == ["poset-counts", "galois-adjunction"]
    assert all(r["status"] == "pass" for r in rep["checks"])


def test_samples_zero_skips_sampling_checks():
    rep = run_verification(
        CorpusConfig(max_poset_size=3, operator_samples_per_frame=0, seed=7)
    )
    for row in rep["checks"]:
        if row["id"] in SAMPLING_CHECKS:
            assert row["status"] == "skip"
            assert row["detail"]["reason"] == "operator sampling disabled"
        else:
            assert row["status"] == "pass", row
    assert rep["unexplained"] == []


def test_config_validation():
    with pytest.raises(ValueError):
        CorpusConfig(max_poset_size=0)
    with pytest.raises(ValueError):
        CorpusConfig(operator_samples_per_frame=-1)
    with pytest.raises(ValueError):
        CorpusConfig(map_budget=-5)
    with pytest.raises(ValueError):
        CorpusConfig(checks=("poset-counts", "bogus"))
    # counts are integers: 2.0, 2.5, inf and None are refused, naming the field
    for name in ("max_poset_size", "operator_samples_per_frame", "map_budget"):
        for value in (2.5, 2.0, float("inf"), None):
            with pytest.raises(ValueError, match=name):
                CorpusConfig(**{name: value})
    # so is the seed: inf would reach the report as Infinity, and 1.0 would
    # derive other streams than 1 does
    for value in (float("inf"), 2.5, None, 1.0):
        with pytest.raises(ValueError, match="seed"):
            CorpusConfig(seed=value)
    # checks is a tuple or list of ids: a bare string, None and non-string
    # members are refused, naming the field
    for value in ("poset-counts", None, ("poset-counts", 3), [None], 7):
        with pytest.raises(ValueError, match="checks"):
            CorpusConfig(checks=value)


def test_checks_as_tuple_or_list_give_the_same_rows(default_report):
    ids = ("poset-counts", "boolean-fragment")
    rows = [r for r in default_report["checks"] if r["id"] in ids]
    for checks in (ids, list(ids), list(reversed(ids))):
        config = CorpusConfig(checks=checks)
        assert config.checks == tuple(checks)
        assert run_verification(config)["checks"] == rows


class _Index:
    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_integer_seeds_read_as_before(tmp_path):
    # an int seed is kept as it is, and a seed with __index__ is read as its int
    for seed in (42, 7, -3):
        config = CorpusConfig(max_poset_size=2, seed=seed)
        assert config.seed == seed and type(config.seed) is int
        assert CorpusConfig(max_poset_size=2, seed=_Index(seed)) == config
    # the bytes of the seed-7 report at --max-poset 2, as before seeds were validated
    report = run_verification(CorpusConfig(max_poset_size=2, seed=7))
    assert report == run_verification(CorpusConfig(max_poset_size=2, seed=_Index(7)))
    path = tmp_path / "report.json"
    save_json(str(path), report)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "9a1a33adde1e3c8eaef7a8cea8a0dbeaa244e6ae08de3c05c53edec1541c99d8"


def _assert_mandated_top_witness(report, rid, fragment):
    """The witness of rid is the top gap of the mandated TWO -> CHAIN3 map
    with the trivial table, and its replay reproduces it."""
    w = next(e["witness"] for e in report["registry"] if e["id"] == rid)
    assert w["kind"] == "initial-anomaly"
    assert w["map"] == {"source": frame_to_json(two()), "target": frame_to_json(chain3()),
                        "table": [0, 2]}
    trivial = trivial_op(enumerate_sublocales(chain3())).table
    assert w["op"] == {"fragment": fragment, "table": list(trivial)}
    assert w["anomaly"]["kind"] == "top-gap"
    trace = replay(report, rid).splitlines()
    assert trace[-2] == "image gap: f[L] = {0,1} != {0,m,1}"
    assert trace[-1] == "anomaly reproduced"


def test_replay_mandated_top_counterexample(default_report):
    _assert_mandated_top_witness(default_report, "initial-top", False)


def test_replay_mandated_h_top_counterexample(default_report):
    _assert_mandated_top_witness(default_report, "initial-h-top", True)


def test_registry_witnesses_come_from_the_checks_that_confirm_them():
    """A run whose checks observe no anomaly confirms no entry and records
    no witness; heyting-identities confirms its own entry alone."""
    report = run_verification(CorpusConfig(checks=("poset-counts",)))
    assert [(e["id"], e["status"], e["witness"], e["occurrences"])
            for e in report["registry"]] == [
        (rid, "not-observed", None, 0) for rid in REGISTRY_IDS]
    report = run_verification(CorpusConfig(checks=("heyting-identities",)))
    confirmed = {e["id"]: e for e in report["registry"] if e["status"] == "confirmed"}
    assert list(confirmed) == ["sup-arrow-display-form"]
    assert confirmed["sup-arrow-display-form"]["occurrences"] == 17
    assert replay(report, "sup-arrow-display-form").endswith("display form falsified")


def test_replay_text_discrepancies(default_report):
    assert "display form falsified" in replay(default_report, "sup-arrow-display-form")
    join_trace = replay(default_report, "sublocale-join-display-form")
    assert "falsified" in join_trace
    assert "true join" in join_trace
    disc = replay(default_report, "discrete-h-not-largest")
    assert disc.splitlines()[-1] == "the discrete h operator is not the largest"
    assert "constant-top exceeds discrete at" in disc


DYNAMIC_IDS = [
    "initial-top", "initial-h-top",
    "initial-contraction", "initial-continuity", "initial-coarseness",
    "initial-h-coarseness", "initial-h-continuity",
    "universal-interior-anomaly", "universal-h-anomaly",
]


@pytest.mark.parametrize("rid", DYNAMIC_IDS)
def test_replay_reproduces_dynamic_anomalies(default_report, rid):
    trace = replay(default_report, rid)
    assert trace.splitlines()[-1].endswith("anomaly reproduced")


def test_replay_survives_json_round_trip(default_report):
    loaded = json.loads(json.dumps(default_report, sort_keys=True))
    for rid in ("initial-top", "initial-contraction", "universal-h-anomaly"):
        assert replay(loaded, rid) == replay(default_report, rid)


def test_replay_refuses_a_report_of_another_version(default_report):
    """Witness op tables are lattice indices, whose order a version may
    change: a version-7 report is refused, not replayed in the wrong order."""
    old = copy.deepcopy(default_report)
    old["version"] = 7
    with pytest.raises(ValueError, match="report version 7 cannot be replayed by version 9"):
        replay(old, "initial-contraction")


def test_replay_passing_check_reports_no_failure(default_report):
    assert replay(default_report, "poset-counts") == "no failure recorded"


def test_replay_unknown_id_raises(default_report):
    with pytest.raises(UnknownWitness):
        replay(default_report, "no-such-check")


def test_replay_skipped_check_reports_reason():
    rep = run_verification(
        CorpusConfig(max_poset_size=3, operator_samples_per_frame=0, seed=7)
    )
    assert replay(rep, "coarseness") == "skipped: operator sampling disabled"


# -- failure paths of the initial checks: each patches the lane-packed lift
# kernel, where the check reads it, to report what a correct lift cannot show
# in every lane, and the check must fail on it. Both checks lift through the
# one kernel, initial-h on cores, so h1 (vacuous) cannot fail -----------------

INITIAL_CHECKS = [
    ("initial-interior", "interior", "I2 fails for an induced operator on {", "I3"),
    ("initial-h", "hops", "h2 fails for an induced operator on {", "h3"),
]


def _initial_row(cid):
    report = run_verification(CorpusConfig(
        max_poset_size=2, operator_samples_per_frame=2, checks=(cid,)))
    (row,) = report["checks"]
    return row, report


def _patch_lift(monkeypatch, module, edit):
    """Rebind verify's copy of the lift kernel, the one module's public lift
    reads too, to edit((pulled, axiom gaps, continuity gaps), ones)."""
    real = verify._lift
    assert vars(importlib.import_module(f"localelab.{module}"))["_lift"] is real
    monkeypatch.setattr(verify, "_lift", lambda t, xs, ones=1: edit(real(t, xs, ones), ones))


@pytest.mark.parametrize("cid, module, line, top", INITIAL_CHECKS)
def test_initial_check_fails_on_a_non_monotone_lift(monkeypatch, cid, module, line, top):
    _patch_lift(monkeypatch, module, lambda r, ones: (r[0], (r[1][0], ones, 0), r[2]))
    row, _ = _initial_row(cid)
    assert row["status"] == "fail"
    assert row["witness"]["lines"][0].startswith(line)


@pytest.mark.parametrize("cid, module, line, top", INITIAL_CHECKS)
def test_initial_check_fails_on_a_top_gap_of_a_surjective_map(monkeypatch, cid, module, line,
                                                              top):
    _patch_lift(monkeypatch, module, lambda r, ones: (r[0], r[1][:2] + (ones,), r[2]))
    row, _ = _initial_row(cid)
    assert row["status"] == "fail"
    assert row["witness"]["lines"][0].startswith(f"{top} fails despite f[L] = M for {{")


@pytest.mark.parametrize("cid, module, line, top", INITIAL_CHECKS)
def test_initial_check_fails_on_an_unconfirmed_gap(monkeypatch, cid, module, line, top):
    # a continuity gap at every target index: the top of a surjective map's
    # target, and the bottom of every target, have no counit gap to confirm it
    _patch_lift(monkeypatch, module, lambda r, ones: r[:2] + ([ones] * len(r[2]),))
    row, report = _initial_row(cid)
    assert row["status"] == "fail"
    assert row["witness"] == {"kind": "static", "lines": ["see the unexplained list"]}
    found = [u["payload"] for u in report["unexplained"] if u["check"] == cid]
    assert found and all(p["kind"] == "initial-anomaly" for p in found)
    assert {p["anomaly"]["kind"] for p in found} == {"continuity-gap"}


def test_initial_check_walks_to_a_failing_middle_lane(monkeypatch):
    """Only lane 5 of a map's 48 tables breaks I2, in the batch and when its
    table is lifted alone: the walk stops at that table, after m * 48 + 6
    tables, with the witness line of that map. The map is the first from
    500 on whose lane 5 differs from its lanes 0 to 4."""
    ctx = verify._Ctx(CorpusConfig())
    batches = ((m, verify._ops_for_initial(ctx, ctx.maps[m])) for m in range(500, len(ctx.maps)))
    m, b = next((m, b) for m, b in batches if b.lane(5) not in [b.lane(j) for j in range(5)])
    f, bent = ctx.maps[m], b.lane(5)
    assert b.lanes == 48

    def edit(lifted, ones, xs, t):
        pulled, (gaps, bad, top), cont = lifted
        for j in range(ones.bit_count() if t.map == f else 0):
            if [x >> j * b.width & (1 << b.width) - 1 for x in xs] == bent:
                bad |= 1 << j * b.width
        return pulled, (gaps, bad, top), cont

    real = verify._lift
    monkeypatch.setattr(verify, "_lift",
                        lambda t, xs, ones=1: edit(real(t, xs, ones), ones, xs, t))
    report = run_verification(CorpusConfig(checks=("initial-interior",)))
    (row,) = report["checks"]
    assert row["status"] == "fail"
    assert row["detail"] == {"checked": m * 48 + 6}
    assert row["witness"] == {"kind": "static", "lines": [
        f"I2 fails for an induced operator on {f.describe()}"]}


def test_both_initial_checks_list_their_payloads_in_run_order(monkeypatch):
    """With both initial checks selected, one pass fills both rows, and the
    unexplained list is initial-interior's payloads followed by initial-h's,
    each as its check gives them run alone."""
    _patch_lift(monkeypatch, "interior", lambda r, ones: r[:2] + ([ones] * len(r[2]),))
    alone = [_initial_row(cid) for cid, *_ in INITIAL_CHECKS]
    report = run_verification(CorpusConfig(
        max_poset_size=2, operator_samples_per_frame=2, checks=("initial-interior", "initial-h")))
    assert report["checks"] == [row for row, _ in alone]
    assert all(r["unexplained"] for _, r in alone)
    assert report["unexplained"] == [u for _, r in alone for u in r["unexplained"]]


@pytest.mark.parametrize("config, gapped", [
    (CorpusConfig(checks=("initial-interior", "initial-h")), False),
    (CorpusConfig(max_poset_size=3, operator_samples_per_frame=2,
                  checks=("initial-interior", "initial-h")), True),
], ids=["default", "unconfirmed-gaps"])
def test_the_point_class_memo_leaves_the_initial_rows_alone(monkeypatch, config, gapped):
    """The initial pass that decides each (target, point function) class once
    gives the report of the pass that decides every map on its own, also
    when every map has unconfirmed gaps, whose lanes each map lifts alone."""
    if gapped:
        _patch_lift(monkeypatch, "interior", lambda r, ones: r[:2] + ([ones] * len(r[2]),))
    memo, each = {}, {}
    report = run_verification(config, kernels=memo)
    monkeypatch.setattr(verify, "_point_class", lambda f: f)
    assert run_verification(config, kernels=each) == report
    assert bool(report["unexplained"]) == gapped
    assert each["point_classes"] == report["counts"]["maps"] > memo["point_classes"]
    assert each["lanes_lifted_alone"] == memo["lanes_lifted_alone"]


def test_an_initial_failure_counts_only_the_lanes_before_it(monkeypatch):
    """A middle lane of a middle map that breaks I2 ends the pass: the
    registry counts the confirmed gaps of the tables before it, as the
    public one-table lifts give them, and of no table after it."""
    config = CorpusConfig(max_poset_size=2, operator_samples_per_frame=2,
                          checks=("initial-interior", "initial-h"))
    ctx = verify._Ctx(config)
    batches = ((m, verify._ops_for_initial(ctx, ctx.maps[m]))
               for m in range(len(ctx.maps) // 2, len(ctx.maps)))
    m, b = next((m, b) for m, b in batches if b.lane(2) not in (b.lane(0), b.lane(1)))
    f, bent = ctx.maps[m], b.lane(2)

    def edit(lifted, ones, xs, t):
        pulled, (gaps, bad, top), cont = lifted
        for j in range(ones.bit_count() if t.map == f else 0):
            if [x >> j * b.width & (1 << b.width) - 1 for x in xs] == bent:
                bad |= 1 << j * b.width
        return pulled, (gaps, bad, top), cont

    real = verify._lift
    monkeypatch.setattr(verify, "_lift",
                        lambda t, xs, ones=1: edit(real(t, xs, ones), ones, xs, t))
    report = run_verification(config)
    assert [r["detail"] for r in report["checks"]] == [{"checked": m * b.lanes + 3}] * 2
    want = {rid: 0 for _, ids in verify._INITIAL.values() for rid in ids.values()}
    want["initial-top"] = want["initial-h-top"] = 1  # the mandated counterexample
    for k, g in enumerate(ctx.maps[:m + 1]):
        bank = verify._ops_for_initial(ctx, g)
        for j in range(bank.lanes if k < m else 2):
            for lift, op in ((initial_interior, InteriorOperator), (initial_h, HOperator)):
                rep = lift(g, op(ctx.sl(g.target), bank.lane(j)))
                for a in rep.anomalies:
                    want[verify._INITIAL[type(rep)][1][a["kind"]]] += a["confirmed"]
    assert {e["id"]: e["occurrences"] for e in report["registry"] if e["id"] in want} == want
    assert report["unexplained"] == []


def test_initial_checks_lift_alone_only_the_mandated_table_and_first_witnesses(monkeypatch):
    """At the defaults the initial checks lift one table at a time only for
    the mandated TWO -> CHAIN3 trivial counterexample, once per check, and
    for the first witness of each registry entry found on the maps, which is
    the table lifted; the profile counter counts those lifts."""
    alone = []
    real = verify._lift

    def spy(t, xs, ones=1):
        if ones == 1:
            alone.append(json.dumps([verify._map_payload(t.map), list(xs)]))
        return real(t, xs, ones)

    monkeypatch.setattr(verify, "_lift", spy)
    kernels = {}
    report = run_verification(CorpusConfig(checks=("initial-interior", "initial-h")),
                              kernels=kernels)
    mandated = json.dumps([verify._map_payload(localic_map(two(), chain3(), (0, 2))),
                           list(trivial_op(enumerate_sublocales(chain3())).table)])
    found = [json.dumps([e["witness"]["map"], e["witness"]["op"]["table"]])
             for e in report["registry"] if e["id"] in (
                 "initial-contraction", "initial-continuity", "initial-h-continuity")]
    assert alone[:2] == [mandated] * 2 and sorted(alone[2:]) == sorted(found)
    assert kernels["lanes_lifted_alone"] == len(alone) == 5
    assert kernels["tables_lifted"] == 48 * report["counts"]["maps"] == 54_480


# -- failure paths of the seven per-object operator checks: each patches the
# mask kernel a check reads, where it reads it, to break the cases whose tables
# equal one middle case's; the expected row is what a loop over the same cases,
# one operator object and one public-API report at a time, gives under the same
# break ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ctx():
    return verify._Ctx(CorpusConfig())


def _row(cid):
    report = run_verification(CorpusConfig(checks=(cid,)))
    (row,) = report["checks"]
    return row, [u["payload"] for u in report["unexplained"] if u["check"] == cid]


def _equiv_cases(ctx):
    """(f, op_l, op_m) of contractive-equivalence, drawn one operator at a time."""
    stride = max(1, len(ctx.maps) // 200)
    for idx, f in enumerate(ctx.maps[::stride][:200]):
        rng = ctx.rng("equiv", idx)
        for _ in range(2):
            op_l = random_op(ctx.sl(f.source), rng)
            yield f, op_l, random_op(ctx.sl(f.target), rng)


def test_contractive_equivalence_fails_where_the_widening_breaks(monkeypatch, ctx):
    """The widening of one middle case's op_L, an operator with a continuity
    gap, is replaced by the constant top, whose core is discrete: h-continuity
    then holds where I-continuity fails."""
    cases = list(_equiv_cases(ctx))
    _, bent, _ = next(c for c in cases[len(cases) // 2:] if not is_I_continuous(*c).ok)
    real = verify._widened

    def widened(sl, xs):
        if sl is bent.lattice and list(xs) == list(bent.table):
            return [sl.top] * sl.n
        return real(sl, xs)

    def wide(op):
        return HOperator._of_points(op.lattice, widened(op.lattice, op.table))

    checked, f = next((k, f) for k, (f, op_l, op_m) in enumerate(cases, 1)
                      if is_I_continuous(f, op_l, op_m).witness
                      != is_h_continuous(f, wide(op_l), wide(op_m)).witness)
    assert 1 < checked < len(cases)
    monkeypatch.setattr(verify, "_widened", widened)
    row, _ = _row("contractive-equivalence")
    assert row["status"] == "fail"
    assert row["detail"] == {"checked": checked}
    assert row["witness"]["lines"] == [
        f"continuity for i differs from h-continuity for i(S) v not-S for {f.describe()}"]


def _chains(ctx):
    """(f, g, op_l, op_m, op_n) of the composition checks, one operator at a time."""
    for idx, (f, g) in enumerate(ctx.composable_pairs(250)):
        if idx >= 250:
            return
        rng = ctx.rng("compose", idx)
        op_n = random_op(ctx.sl(g.target), rng)
        op_m = make_continuous_op(g, op_n, rng)
        yield f, g, make_continuous_op(f, op_m, rng), op_m, op_n


@pytest.mark.parametrize("cid, lift, kernel", [
    ("composition-interior", lambda op: op, check_composition),
    ("composition-h", h_from_interior, check_h_composition),
])
def test_composition_fails_where_preimages_break(monkeypatch, ctx, cid, lift, kernel):
    """Preimages stop composing on the chains whose tables equal one middle
    chain's (the drawn operators are contractive, so their cores are the same
    tables)."""
    chains = list(_chains(ctx))
    bent = [list(op.table) for op in chains[len(chains) // 2][2:]]

    def bend(rep, tables):
        if tables != bent:
            return rep
        return dataclasses.replace(rep, preimage_functorial=False, functorial_witness=("bent",))

    triples, (f, g, *ops) = next((k, c) for k, c in enumerate(chains)
                                 if [list(op.table) for op in c[2:]] == bent)
    rep = bend(kernel(f, g, *map(lift, ops)), [list(op.table) for op in ops])
    assert 0 < triples < len(chains) - 1 and rep.status == "fail"
    real = verify._composition
    monkeypatch.setattr(verify, "_composition",
                        lambda tf, tg, *xs: bend(real(tf, tg, *xs), list(xs)))
    row, _ = _row(cid)
    assert row["status"] == "fail"
    assert row["detail"] == {"triples": triples}
    assert row["witness"]["lines"] == [
        f"composition fails for {f.describe()} then {g.describe()}: {rep.to_json()}"]


def test_coarseness_reports_an_unexplained_gap(monkeypatch, ctx):
    """One middle case's candidate gains every point at the bottom index,
    where no map has a unit gap: both sides report it as unexplained, and the
    other cases keep their violations."""
    stride = max(1, len(ctx.maps) // 300)
    cases = []
    for idx, f in enumerate(ctx.maps[::stride][:300]):
        rng = ctx.rng("coarse", idx)
        op_m = random_op(ctx.sl(f.target), rng)
        cases.append((f, op_m, make_continuous_op(f, op_m, rng)))
    bent_f, bent_m, _ = next(c for c in cases[len(cases) // 2:] if c[0].source.prime_list)

    def bend(cand, f, masks):
        if f == bent_f and list(masks) == list(bent_m.table):
            sl = cand.lattice
            cand = type(cand)._of_points(sl, (sl.top,) + cand.table[1:])
        return cand

    detail = {"checked": len(cases), "pointwise_violations": 0, "h_pointwise_violations": 0}
    unexplained = []
    for f, op_m, op_l in cases:
        for lift, initial, key in ((lambda op: op, initial_interior, "pointwise_violations"),
                                   (h_from_interior, initial_h, "h_pointwise_violations")):
            m, l = lift(op_m), lift(op_l)
            gap = op_le_gap(bend(initial(f, m).candidate, f, op_m.table), l)
            if gap is None:
                continue
            t = transfer_of(f)
            if t.adjunction_gaps[0] >> t.source_lattice.labels.index(gap) & 1:
                detail[key] += 1
            else:
                unexplained.append(verify._coarseness_witness(f, m, l, gap))
    assert len(unexplained) == 2
    real = verify._candidate
    monkeypatch.setattr(verify, "_candidate", lambda t, xs: bend(
        InteriorOperator._of_points(t.source_lattice, real(t, xs)), t.map, xs).table)
    row, payloads = _row("coarseness")
    assert row["status"] == "fail"
    assert row["detail"] == detail
    assert row["witness"] == {"kind": "static", "lines": ["see the unexplained list"]}
    assert payloads == unexplained


@pytest.mark.parametrize("cid, lift, kernel", [
    ("universal-property-interior", lambda op: op, check_universal_property),
    ("universal-property-h", h_from_interior, check_h_universal),
])
def test_universal_reports_an_unexplained_disagreement(monkeypatch, ctx, cid, lift, kernel):
    """The configurations whose tables equal one middle configuration's get
    an unconfirmed composite-side-only disagreement."""
    cases = []
    for idx, (g, f) in enumerate(ctx.composable_pairs(80)):
        rng = ctx.rng("universal", idx)
        slm, sln = ctx.sl(f.target), ctx.sl(g.source)
        for op_m in (discrete_op(slm), trivial_op(slm), random_op(slm, rng)):
            if len(cases) < 240:
                cases.append((f, g, op_m, random_op(sln, rng)))
    f0, g0, m0, n0 = cases[len(cases) // 2]

    def bend(rep, f, g, m, n):
        if (f, g, m, n) != (f0, g0, list(m0.table), list(n0.table)):
            return rep
        anomaly = {"kind": "composite-side-only", "at": "bent", "predicate": "bent",
                   "confirmed": False}
        return UniversalReport(ContinuityReport(True, 1), ContinuityReport(False, 1), (anomaly,))

    disagreements, unexplained = 0, []
    for f, g, op_m, op_n in cases:
        m, n = lift(op_m), lift(op_n)
        rep = bend(kernel(f, m, g, n), f, g, list(op_m.table), list(op_n.table))
        disagreements += not rep.equivalent
        unexplained += [verify._universal_witness(f, g, m, n, a)
                        for a in rep.anomalies if not a["confirmed"]]
    assert unexplained
    real = verify._universal_report
    monkeypatch.setattr(verify, "_universal_report", lambda t, g, cand, m, n, predicate: bend(
        real(t, g, cand, m, n, predicate), t.map, g, list(m), list(n)))
    row, payloads = _row(cid)
    assert row["status"] == "fail"
    assert row["detail"] == {"checked": len(cases), "disagreements": disagreements}
    assert row["witness"] == {"kind": "static", "lines": ["see the unexplained list"]}
    assert payloads == unexplained


@pytest.mark.parametrize("interior, h", [
    ("composition-interior", "composition-h"),
    ("universal-property-interior", "universal-property-h"),
    ("initial-interior", "initial-h"),
])
def test_h_twin_reads_its_interior_twins_samples(monkeypatch, default_report, interior, h):
    """Run after its interior twin on one context, an h check makes no draw,
    seeds no generator and gathers no candidate, composition-h builds no
    report and no composite map, and initial-h lifts nothing: each reads its
    twin's reports, and initial-h the row of the pass its twin ran. Run
    alone, it draws the same samples and gives the row of the default
    report."""
    shared = {"composition-h": ((verify, "_composition"), (interior_module, "compose_localic")),
              "initial-h": ((verify, "_lift"),)}.get(h, ())
    ctx = verify._Ctx(CorpusConfig())
    kernels = [(verify, name) for name in ("_closed_draw", "_continuous_draw", "_candidate")]
    calls = dict.fromkeys([name for _, name in kernels + list(shared)] + ["rng"], 0)

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    for module, name in kernels + list(shared):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(ctx, "rng", counted("rng", ctx.rng))
    verify.CHECKS[interior](ctx)
    assert calls["_closed_draw"] and calls["rng"]
    assert all(calls[name] for _, name in shared)
    calls.update(dict.fromkeys(calls, 0))
    verify.CHECKS[h](ctx)
    assert calls == dict.fromkeys(calls, 0)
    monkeypatch.undo()
    row, _ = _row(h)
    assert row == next(r for r in default_report["checks"] if r["id"] == h)


def test_each_transfer_is_built_at_most_once(monkeypatch):
    """A sampling run builds each transfer at most once, in the cache the
    operator checks read, and each pair of image and preimage tables once
    per target point count and point function, in the cache the transfers
    read; galois-adjunction alone builds neither, since it decides its maps
    on packed tables. The run's transfers are those of the first map of
    each class the initial pass decides, of the maps the other checks read,
    of the composites its chains and configurations build, and of the
    mandated TWO -> CHAIN3 map."""
    ctx = verify._Ctx(CorpusConfig())
    allowed = {*ctx.maps, localic_map(two(), chain3(), (0, 2))}
    allowed |= {compose_localic(tg.map, tf.map) for tf, tg, *_ in ctx.chains}
    allowed |= {compose_localic(t.map, g) for t, g, *_ in ctx.configs}
    first = {}
    for f in ctx.maps:
        first.setdefault(verify._point_class(f), f)
    builds = []
    build = SublocaleTransfer.build
    monkeypatch.setattr(SublocaleTransfer, "build",
                        staticmethod(lambda f: builds.append(f) or build(f)))
    _transfer_cached.cache_clear()
    _class_tables.cache_clear()
    run_verification(CorpusConfig())
    assert len(builds) == len(set(builds)) == _transfer_cached.cache_info().misses
    assert set(first.values()) <= set(builds) <= allowed
    classes = {(len(f.target.prime_list), tuple(map(f.target.prime_list.index, f.points)))
               for f in builds}
    info = _class_tables.cache_info()
    assert info.misses == info.currsize == len(classes) < len(builds)
    builds.clear()
    _transfer_cached.cache_clear()
    _class_tables.cache_clear()
    report = run_verification(CorpusConfig(operator_samples_per_frame=0,
                                           checks=("galois-adjunction",)))
    assert report["counts"]["maps"] == 1135
    assert builds == []
    assert _transfer_cached.cache_info().currsize == _class_tables.cache_info().currsize == 0


def test_open_preimage_fails_at_a_middle_triple(monkeypatch, ctx):
    """The triples whose tables equal one middle drawn triple's report a
    closed preimage of an open sublocale."""
    triples = []
    for idx, f in enumerate(ctx.maps):
        if f.source.n > 5 or f.target.n > 5:
            continue
        sll, slm = ctx.sl(f.source), ctx.sl(f.target)
        triples += [(f, discrete_op(sll), discrete_op(slm)), (f, discrete_op(sll), trivial_op(slm))]
        rng = ctx.rng("open-pre", idx)
        for _ in range(3):
            op_m = random_op(slm, rng)
            triples.append((f, make_continuous_op(f, op_m, rng), op_m))
    f0, l0, m0 = triples[len(triples) // 2]

    def bend(rep, f, l, m):
        if (f, l, m) == (f0, list(l0.table), list(m0.table)):
            return OpenPreimageReport("fail", 1, ("bent", "case"))
        return rep

    checked, f = next((k, f) for k, (f, op_l, op_m) in enumerate(triples, 1)
                      if bend(check_open_preimage(f, op_l, op_m), f, list(op_l.table),
                              list(op_m.table)).status != "pass")
    assert 1 < checked < len(triples)
    real = verify._open_preimage
    monkeypatch.setattr(verify, "_open_preimage",
                        lambda t, l, m: bend(real(t, l, m), t.map, list(l), list(m)))
    row, _ = _row("open-preimage")
    assert row["status"] == "fail"
    assert row["detail"] == {"checked": checked}
    assert row["witness"]["lines"] == [f"open preimage fails for {f.describe()} at ('bent', 'case')"]


# -- failure paths of the checks with a static witness: each patches one name
# the check reads from localelab.verify, so that the check fails at a middle
# case of the default corpus; the row pins the detail and the witness line,
# and replay prints that line -----------------------------------------------------

def _static_fail(monkeypatch, cid, name, fake, detail, line):
    monkeypatch.setattr(verify, name, fake)
    report = run_verification(CorpusConfig(checks=(cid,)))
    assert report["checks"] == [{"id": cid, "status": "fail", "detail": detail,
                                 "witness": {"kind": "static", "lines": [line]}}]
    assert replay(report, cid) == line


def _middle(ctx, admit=lambda fr: True):
    """(position, key, frame) of the middle admitted corpus frame."""
    admitted = [(k, key, fr) for k, (key, fr) in enumerate(ctx.frames) if admit(fr)]
    return admitted[len(admitted) // 2]


def test_heyting_adjunction_fails_on_a_wrong_arrow(monkeypatch, ctx):
    """The middle frame's arrow a -> bottom is read as the top: the first c
    with c & a not below the bottom breaks the adjunction."""
    mid, key, fr = _middle(ctx)
    a, b = fr.n // 2, fr.bottom
    bent = copy.copy(fr)
    bent.imp_table = tuple(tuple(fr.top if (x, y) == (a, b) else r for y, r in enumerate(row))
                           for x, row in enumerate(fr.imp_table))
    c = next(c for c in range(fr.n) if fr.meet(c, a) != b)
    triples = sum(f.n ** 3 for _, f in ctx.frames[:mid]) + (a * fr.n + b) * fr.n + c + 1
    real = verify.corpus_frames
    _static_fail(monkeypatch, "heyting-adjunction", "corpus_frames",
                 lambda n: tuple((k, bent if f is fr else f) for k, f in real(n)),
                 {"triples": triples}, f"heyting adjunction fails on {key} at "
                 f"({fr.labels[a]}, {fr.labels[b]}, {fr.labels[c]})")


def test_heyting_identities_fails_on_a_failing_report(monkeypatch, ctx):
    _, key, fr = _middle(ctx)
    real = verify.heyting_identity_report
    bent = dict(real(fr), status="fail")
    _static_fail(monkeypatch, "heyting-identities", "heyting_identity_report",
                 lambda f: bent if f is fr else real(f), {"frame": key}, str(bent))


class _BentComplement:
    """A sublocale lattice whose complement at one index is replaced."""

    def __init__(self, sl, at, value):
        self._sl, self._at, self._value = sl, at, value

    def __getattr__(self, name):
        return getattr(self._sl, name)

    def complement(self, i):
        return self._value if i == self._at else self._sl.complement(i)


@pytest.mark.parametrize("at_top, line", [
    (False, "complement laws fail on {key} at {label}"),
    (True, "complement not involutive on {key} at {label}"),
], ids=["laws", "involution"])
def test_complement_laws_fail_on_a_wrong_complement(monkeypatch, ctx, at_top, line):
    """The middle frame's S_l gives the bottom itself as its complement, or the
    top itself as its: both fail at the bottom, the first index."""
    mid, key, fr = _middle(ctx)
    sl = ctx.sl(fr)
    at = sl.top if at_top else sl.bottom
    assert sl.bottom == 0
    real = verify._enumerate
    pairs = sum(ctx.sl(f).n for _, f in ctx.frames[:mid]) + 1
    _static_fail(monkeypatch, "complement-laws", "_enumerate",
                 lambda f: _BentComplement(real(f), at, at) if f is fr else real(f),
                 {"pairs": pairs}, line.format(key=key, label=sl.label(sl.bottom)))


def test_generation_property_fails_on_a_failing_report(monkeypatch, ctx):
    mid, key, fr = _middle(ctx, lambda fr: fr.n <= 6)
    sl = ctx.sl(fr)
    i = sl.n // 2
    real = verify.generation_check
    rep = real(sl, i)
    checked = sum(ctx.sl(f).n for _, f in ctx.frames[:mid] if f.n <= 6) + i + 1
    _static_fail(monkeypatch, "generation-property", "generation_check",
                 lambda s, j: dataclasses.replace(real(s, j), ok=False)
                 if s is sl and j == i else real(s, j),
                 {"sublocales": checked},
                 f"generation fails on {key} at {sl.label(i)}: {{'ok': False, "
                 f"'expected': {rep.expected!r}, 'computed': {rep.computed!r}}}")


def test_sublocale_join_oracle_fails_on_a_wrong_join(monkeypatch, ctx):
    """The meet-closure join of one middle pair of the middle frame gains or
    loses the bottom."""
    mid, key, fr = _middle(ctx)
    sl = ctx.sl(fr)
    i, j = sl.n // 3, sl.n // 2
    bent = (sl.masks[i], sl.masks[j])
    real = verify.sub_join_mask
    within = [(x, y) for x in range(sl.n) for y in range(x, sl.n)].index((i, j)) + 1
    pairs = sum(ctx.sl(f).n * (ctx.sl(f).n + 1) // 2 for _, f in ctx.frames[:mid]) + within
    _static_fail(monkeypatch, "sublocale-join-oracle", "sub_join_mask",
                 lambda f, masks: real(f, masks) ^ (1 << f.bottom)
                 if f is fr and tuple(masks) == bent else real(f, masks),
                 {"pairs": pairs},
                 f"join oracle mismatch on {key} at ({sl.label(i)}, {sl.label(j)})")


def test_boolean_fragment_fails_on_a_wrong_lattice_size(monkeypatch, ctx):
    """The middle frame's lattice reports one sublocale too few."""
    mid, key, fr = _middle(ctx)
    real = verify._enumerate
    n, p = ctx.sl(fr).n - 1, ctx.posets[mid].n

    def enumerate_(host):
        sl = real(host)
        if host is not fr:
            return sl
        bent = copy.copy(sl)
        bent.n = n
        return bent

    _static_fail(monkeypatch, "boolean-fragment", "_enumerate", enumerate_,
                 {"frames": len(ctx.frames)},
                 f"S_l is not Boolean on {key}: {n} sublocales, poset size {p}")


@pytest.mark.parametrize("own, line", [
    (True, "generated operator breaks the axioms or bounds on"),
    (False, "operator lattice op invalid on"),
], ids=["draw", "pair"])
def test_interior_axioms_fail_at_a_middle_lane(monkeypatch, ctx, own, line):
    """Lane 3 of the middle frame's first batch is invalid, as a draw or as
    the join or meet with the draw before it: the check stops after 4 of the
    frame's draws."""
    mid, key, fr = _middle(ctx)
    sl = ctx.sl(fr)
    real = verify._invalid

    def invalid(s, vals, b):
        bent = s is sl and (vals is b.masks) == own
        return real(s, vals, b) | (1 << 4 * b.width - 1 if bent else 0)

    _static_fail(monkeypatch, "interior-axioms", "_invalid", invalid,
                 {"generated": 100 * mid + 4}, f"{line} {key}")


def test_default_chains_are_their_own_cores(ctx):
    """The chain tables are contractive draws, so reading them as h operators,
    through their cores, changes nothing: one report serves both composition
    checks."""
    assert len(ctx.chains) == 250
    for tf, tg, *tables, _ in ctx.chains:
        for sl, xs in zip((tf.source_lattice, tg.source_lattice, tg.target_lattice), tables):
            assert _core(sl, xs) == xs


def test_default_configs_are_their_own_cores(ctx):
    """The configurations' m (discrete, trivial or drawn) and n (drawn) are
    contractive, so universal-property-h reads them as their own cores and
    cuts only the candidate to its core."""
    assert len(ctx.configs) == 240
    for t, g, m, n, _ in ctx.configs:
        assert _core(t.target_lattice, m) == list(m)
        assert _core(ctx.sl(g.source), n) == list(n)


def test_default_banks_are_their_own_cores(ctx):
    """initial-h lifts initial-interior's bank tables as given, as the cores
    of h_M; the draws are contractive, so each table is its own core."""
    for f in ctx.maps:
        verify._ops_for_initial(ctx, f)
    for (_, fr), b in ctx.banks.items():
        assert b.lanes == 48 and _core(ctx.sl(fr), b.masks, b.ones) == b.masks


def _bent_batches(bend):
    """A context class whose batches hold the masks bend(sl, batch)."""
    class Bent(verify._Ctx):
        def batch(self, sl, *args, **kwargs):
            b = super().batch(sl, *args, **kwargs)
            return b._replace(masks=bend(sl, b))
    return Bent


def test_h_axioms_pass_on_widened_draws(monkeypatch, default_report):
    """Each draw widened into the h operator S |-> i(S) v not-S, which is not
    contractive but has the draw as its core, gives the default row: h-axioms
    decides h1 to h3 on cores, and contraction is no h axiom."""
    contractive = []

    def widened(sl, b):
        masks = [x | (sl.top ^ i) * b.ones for i, x in enumerate(b.masks)]
        contractive.append(not verify._invalid(sl, masks, b))
        return masks

    monkeypatch.setattr(verify, "_Ctx", _bent_batches(widened))
    row, _ = _row("h-axioms")
    assert row == next(r for r in default_report["checks"] if r["id"] == "h-axioms")
    assert contractive and not all(contractive)


def test_h_axioms_fail_where_a_core_breaks_h2(monkeypatch, ctx):
    """Lane 3 of the first batch of the middle frame with three points or
    more gains point 0 at index 1 and loses it at index 3: its core is no
    longer monotone, and the check stops after 4 of the frame's draws."""
    mid, key, fr = _middle(ctx, lambda fr: len(fr.prime_list) >= 3)
    host, seen = ctx.sl(fr), []

    def bent(sl, b):
        masks, bit = list(b.masks), 1 << 3 * b.width
        if sl is host and not seen:
            masks[1] |= bit
            masks[3] &= ~bit
            seen.append((b, masks))
        return masks

    _static_fail(monkeypatch, "h-axioms", "_Ctx", _bent_batches(bent),
                 {"generated": 100 * mid + 4}, f"generated h operator invalid on {key}")
    ((b, masks),) = seen
    lane = (1 << b.width) - 1 << 3 * b.width
    gaps, bad, top = verify._axiom_gaps(host, _core(host, masks, b.ones), b.ones)
    assert bad & lane and not top & lane and not any(g & lane for g in gaps)


def test_h_axioms_fail_where_constant_top_is_not_above_discrete(monkeypatch, ctx):
    mid, key, fr = _middle(ctx)
    real = verify.op_le
    _static_fail(monkeypatch, "h-axioms", "op_le",
                 lambda a, b: a.lattice.host is not fr and real(a, b),
                 {"generated": 100 * (mid + 1)},
                 f"constant-top h operator not above discrete on {key}")


def test_points_spatiality_fails_on_a_non_spatial_report(monkeypatch, ctx):
    mid, key, fr = _middle(ctx)
    real = verify._spatiality
    _static_fail(monkeypatch, "points-spatiality", "_spatiality",
                 lambda f, sig: dataclasses.replace(real(f, sig), ok=False) if f is fr
                 else real(f, sig),
                 {"frames": mid}, f"spatiality fails or definitions disagree on {key}")


def test_replay_of_every_default_id_pinned(default_report):
    """Every check id, then every registry id, in report order: the replay
    text of the default report, pinned byte for byte."""
    ids = [r["id"] for r in default_report["checks"]] + [
        e["id"] for e in default_report["registry"]]
    text = "\n\n".join(f"{i}\n{replay(default_report, i)}" for i in ids)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "4bcca456293138094f1d05b7b35aaedeadd4c4c451a5d164ec68c86679976cea"


def test_sampling_free_verdicts_pinned():
    """At --samples 0 no check reads a draw, so its counts, each check's
    status and detail and each registry entry's status and occurrences
    depend on the frames and maps alone: pinned here, witnesses left out,
    so that a change of index order or draw stream cannot move them."""
    report = run_verification(CorpusConfig(operator_samples_per_frame=0))
    assert report["counts"] == {
        "posets": 24, "frames": 24, "maps": 1135, "hom_candidates": 197744,
        "map_pairs_skipped": 390, "frames_beyond_map_bound": 1, "operators": 746,
    }
    skipped = {"reason": "operator sampling disabled"}
    initial = {"checked": 2270, "mandated_top_counterexample": "fails-as-documented"}
    assert [(r["id"], r["status"], r["detail"]) for r in report["checks"]] == [
        ("poset-counts", "pass", {"sizes": {"1": 1, "2": 2, "3": 5, "4": 16},
                                  "reference": {"1": 1, "2": 2, "3": 5, "4": 16}}),
        ("heyting-adjunction", "pass", {"triples": 13978}),
        ("heyting-identities", "pass", {"frames_checked": 17, "frames_skipped": 7,
                                        "display_form_falsified_on": 17}),
        ("complement-laws", "pass", {"pairs": 306}),
        ("generation-property", "pass", {"sublocales": 106}),
        ("sublocale-join-oracle", "pass", {"pairs": 2379, "frames_with_display_gap": 20}),
        ("galois-adjunction", "pass", {"maps": 1135, "pairs_per_map": "all"}),
        ("boolean-fragment", "pass", {"frames": 24}),
        ("interior-axioms", "pass", {"generated": 0, "per_frame": 0}),
        ("h-axioms", "pass", {"generated": 0}),
        ("contractive-equivalence", "skip", skipped),
        ("composition-interior", "skip", skipped),
        ("composition-h", "skip", skipped),
        ("initial-interior", "pass", {**initial, "tallies": {
            "contraction-gap": 8764, "top-gap": 874, "continuity-gap": 874}}),
        ("initial-h", "pass", {**initial, "tallies": {"top-gap": 874, "continuity-gap": 874}}),
        ("coarseness", "skip", skipped),
        ("universal-property-interior", "skip", skipped),
        ("universal-property-h", "skip", skipped),
        ("open-preimage", "pass", {"checked": 746}),
        ("points-spatiality", "pass", {"frames": 24, "spatial": 24}),
    ]
    assert [(e["id"], e["status"], e["occurrences"]) for e in report["registry"]] == [
        ("discrete-h-not-largest", "confirmed", 24),
        ("initial-coarseness", "not-observed", 0),
        ("initial-continuity", "confirmed", 874),
        ("initial-contraction", "confirmed", 8764),
        ("initial-h-coarseness", "not-observed", 0),
        ("initial-h-continuity", "confirmed", 874),
        ("initial-h-top", "confirmed", 875),
        ("initial-top", "confirmed", 875),
        ("sublocale-join-display-form", "confirmed", 20),
        ("sup-arrow-display-form", "confirmed", 17),
        ("universal-h-anomaly", "not-observed", 0),
        ("universal-interior-anomaly", "not-observed", 0),
    ]
    assert report["unexplained"] == []
