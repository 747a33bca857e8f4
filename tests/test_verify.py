"""The verification harness: determinism, registry, replay.

The default-run counts and registry occurrences below were frozen from a run
of the harness itself and double-checked against a second run; they pin the
sampling plan, so any change to striding, budgets, or seed derivation shows
up here first.
"""
import hashlib
import json

import pytest

from localelab import verify
from localelab.errors import UnknownWitness
from localelab.serialize import save_json
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
    assert default_report["version"] == 2
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
        assert e["occurrences"] > 0 or e["witness"] is not None, e["id"]
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
    assert occ["initial-contraction"] == 58630
    assert occ["universal-interior-anomaly"] == 83
    assert occ["universal-h-anomaly"] == 34


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
    assert digest == "1f4ef6f0531304c1a8696486aaa7efb8437a5303c0a2f7db5894bdb31e7fd01c"


def test_maps_sweep_report_bytes_pinned(tmp_path):
    # the bytes of `localelab verify --max-poset 4 --budget 10000000
    # --samples 0 --checks galois-adjunction --seed 42 --report ...`: the
    # Galois check over the 5,217 maps that budget admits
    report = run_verification(CorpusConfig(
        max_poset_size=4, operator_samples_per_frame=0, map_budget=10_000_000,
        seed=42, checks=("galois-adjunction",)))
    assert report["counts"]["maps"] == 5217
    path = tmp_path / "report.json"
    save_json(str(path), report)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "32eed0cebfb39089b71946fdf84e5fccddb938f4a269d0dcdb55f3dae7330888"


def test_galois_adjunction_fails_on_a_broken_round_trip(monkeypatch):
    # the frame-level half of the check can still fail: a right adjoint that
    # loses the point map is reported with the map it lost
    from localelab import verify
    from localelab.maps import identity_localic

    ctx = verify._Ctx(CorpusConfig(max_poset_size=2, checks=("galois-adjunction",)))
    assert ctx.maps
    monkeypatch.setattr(verify, "right_adjoint", lambda s, t, table: identity_localic(t))
    status, _, witness = verify.CHECKS["galois-adjunction"](ctx)
    assert status == "fail"
    assert witness["lines"][0].startswith("left adjoint round trip differs for {")


def test_galois_adjunction_fails_on_a_wrong_adjoint(monkeypatch):
    # a left adjoint that is a frame hom, but the lex-first one rather than
    # the map's own, does not give the point map back
    from localelab import verify
    from localelab.maps import FrameHom, LocalicMap, enumerate_frame_homs

    ctx = verify._Ctx(CorpusConfig(max_poset_size=2, checks=("galois-adjunction",)))
    assert ctx.maps
    monkeypatch.setattr(LocalicMap, "adjoint", property(
        lambda f: FrameHom(f.target, f.source, enumerate_frame_homs(f.target, f.source)[0])))
    status, _, witness = verify.CHECKS["galois-adjunction"](ctx)
    assert status == "fail"
    assert witness["lines"][0].startswith("left adjoint round trip differs for {")


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


def test_replay_mandated_top_counterexample(default_report):
    trace = replay(default_report, "initial-top")
    lines = trace.splitlines()
    assert lines[-1] == "i_{L_f}(L) = {1} ≠ L"
    assert any("trivial" in ln for ln in lines)


def test_replay_mandated_h_top_counterexample(default_report):
    trace = replay(default_report, "initial-h-top")
    assert trace.splitlines()[-1] == "h_{L_f}(L) = {1} ≠ L"


def test_replay_text_discrepancies(default_report):
    assert "display form falsified" in replay(default_report, "sup-arrow-display-form")
    join_trace = replay(default_report, "sublocale-join-display-form")
    assert "falsified" in join_trace
    assert "true join" in join_trace
    disc = replay(default_report, "discrete-h-not-largest")
    assert disc.splitlines()[-1] == "the discrete h operator is not the largest"
    assert "constant-top exceeds discrete at" in disc


DYNAMIC_IDS = [
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
# in every lane, and the check must fail on it ------------------------------

INITIAL_CHECKS = [
    ("initial-interior", "interior", "I2 fails for an induced operator on {", "I3"),
    ("initial-h", "hops", "h1 or h2 fails for an induced operator on {", "h3"),
]
LIFTS = {"interior": "_lift", "hops": "_lift_h"}  # each layer's lift kernel


def _initial_row(cid):
    report = run_verification(CorpusConfig(
        max_poset_size=2, operator_samples_per_frame=2, checks=(cid,)))
    (row,) = report["checks"]
    return row, report


def _patch_lift(monkeypatch, module, edit):
    """Rebind verify's copy of module's lift kernel to
    edit((pulled, axiom gaps, continuity gaps), ones)."""
    real = getattr(verify, LIFTS[module])
    monkeypatch.setattr(verify, LIFTS[module],
                        lambda t, xs, ones=1: edit(real(t, xs, ones), ones))


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
    """Only lane 5 of a map's 12 tables breaks I2, in the batch and when its
    table is lifted alone: the walk stops at that table, after m * 12 + 6
    tables, with the witness line of that map."""
    ctx = verify._Ctx(CorpusConfig())
    m = 500
    f = ctx.maps[m]
    (b,) = verify._ops_for_initial(ctx, f, m)
    bent = b.lane(5)
    assert b.lanes == 12 and bent not in [b.lane(j) for j in range(5)]

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
    assert row["detail"] == {"checked": m * 12 + 6}
    assert row["witness"] == {"kind": "static", "lines": [
        f"I2 fails for an induced operator on {f.describe()}"]}
