"""The verification harness: determinism, registry, replay.

The default-run counts and registry occurrences below were frozen from a run
of the harness itself and double-checked against a second run; they pin the
sampling plan, so any change to striding, budgets, or seed derivation shows
up here first.
"""
import hashlib
import json

import pytest

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
