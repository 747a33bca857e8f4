"""Command line surface: exit codes 0/1/2/3 and subcommand output.

Commands are run in process through main(argv) so exit codes and streams
are captured directly; one test covers the installed console script.
"""
import json
import re
import shutil
import subprocess
import sys
import time

import pytest

from localelab.cli import main
from localelab.corpus import chain3, sierpinski, two
from localelab.hops import complemented_fragment, trivial_h
from localelab.interior import InteriorOperator, trivial_op
from localelab.lattice import build_frame
from localelab.maps import localic_map
from localelab.serialize import (
    frame_to_json,
    localic_map_to_json,
    operator_to_json,
    save_json,
    space_to_json,
)
from localelab.sublocales import enumerate_sublocales
from localelab.verify import ARTIFACT_VERSION, CorpusConfig, _Ctx, run_verification

# h operator files spelled out by hand in the operator file format: the
# "fragment" marker and sublocales keyed by their members; the second table
# is constant-top, which is valid but not contractive
H_OP_LITERALS = {
    "trivial": {
        "fragment": True,
        "frame": "chain3.json",
        "table": {"0,1": "1", "0,m,1": "0,m,1", "1": "1", "m,1": "1"},
    },
    "constant-top": {
        "fragment": True,
        "frame": "chain3.json",
        "table": {"0,1": "0,m,1", "0,m,1": "0,m,1", "1": "0,m,1", "m,1": "0,m,1"},
    },
}

M3 = {
    "elements": ["0", "x", "y", "z", "1"],
    "le": [["0", "x"], ["0", "y"], ["0", "z"], ["x", "1"], ["y", "1"], ["z", "1"]],
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("clifiles")

    def put(name, data):
        path = d / name
        if isinstance(data, str):
            path.write_text(data)
        else:
            save_json(str(path), data)
        return str(path)

    sl = enumerate_sublocales(chain3())
    chain13 = build_frame(
        [str(i) for i in range(13)],
        [[str(i), str(i + 1)] for i in range(12)],
    )
    out = {
        "chain3": put("chain3.json", frame_to_json(chain3())),
        "two": put("two.json", frame_to_json(two())),
        "m3": put("m3.json", M3),
        "chain13": put("chain13.json", frame_to_json(chain13)),
        "antichain_poset": put(
            "pos.json", {"kind": "poset", "elements": ["a", "b"], "le": []}
        ),
        "space": put("sp.json", space_to_json(sierpinski())),
        "broken": put("broken.json", "{nope"),
        "map": put(
            "up.json",
            localic_map_to_json(
                localic_map(two(), chain3(), (0, 2)), "two.json", "chain3.json"
            ),
        ),
        "op": put("triv.json", operator_to_json(trivial_op(sl), "chain3.json")),
        "h_op": put(
            "triv_h.json",
            operator_to_json(trivial_h(complemented_fragment(sl)), "chain3.json"),
        ),
        "bad_op": put(
            "bad.json", operator_to_json(InteriorOperator(sl, (3, 1, 2, 3)), "chain3.json")
        ),
        "dir": d,
    }
    return out


def test_check_frame(files, capsys):
    assert main(["check", files["chain3"]]) == 0
    assert "all laws hold" in capsys.readouterr().out


def test_check_space_and_poset(files, capsys):
    assert main(["check", files["space"]]) == 0
    assert main(["check", files["antichain_poset"]]) == 0
    out = capsys.readouterr().out
    assert "space" in out and "poset" in out


def test_check_nondistributive_frame_fails(files, capsys):
    assert main(["check", files["m3"]]) == 1
    err = capsys.readouterr().err
    assert "NotDistributive" in err and "witness=" in err


def test_check_localic_map(files, capsys):
    assert main(["check", files["map"]]) == 0
    assert "all laws hold" in capsys.readouterr().out


def test_parse_error_is_exit_2(files, capsys):
    assert main(["check", files["broken"]]) == 2
    assert "parse error" in capsys.readouterr().err


def test_missing_file_is_exit_2(files, capsys):
    assert main(["check", str(files["dir"] / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


# wrong-shape JSON per command: the argv, with {bad} for the file written
# from the data and {chain3} and {op} for the fixture files, and the data
WRONG_SHAPES = {
    "check-top-level-list": (["check", "{bad}"], [1, 2]),
    "check-le-number": (["check", "{bad}"], {"elements": ["0", "1"], "le": 5}),
    "check-le-triple": (["check", "{bad}"], {"elements": ["0", "1"], "le": [["0", "1", "1"]]}),
    "check-map-list": (["check", "{bad}"], {"from": "two.json", "to": "chain3.json",
                                           "map": [["0", "0"], ["1", "1"]]}),
    "sublocales-le-number": (["sublocales", "{bad}"], {"elements": ["0", "1"], "le": 5}),
    "points-le-number": (["points", "{bad}"], {"elements": ["0", "1"], "le": 5}),
    "op-check-table-list": (["op-check", "{chain3}", "{bad}"],
                            {"frame": "chain3.json", "table": ["0,1", "1", "1", "1"]}),
    "initial-map-list": (["initial", "{chain3}", "{bad}", "{op}"],
                         {"from": "two.json", "to": "chain3.json", "map": [["0", "0"]]}),
    "replay-top-level-list": (["replay", "{bad}", "initial-top"], [1, 2]),
    "replay-checks-number": (["replay", "{bad}", "initial-top"],
                             {"version": ARTIFACT_VERSION, "checks": 5, "registry": []}),
    "replay-checks-of-numbers": (["replay", "{bad}", "initial-top"],
                                 {"version": ARTIFACT_VERSION, "checks": [5], "registry": []}),
    "replay-witness-list": (["replay", "{bad}", "gap"],
                            {"version": ARTIFACT_VERSION, "checks": [],
                             "registry": [{"id": "gap", "witness": [1]}]}),
    "replay-witness-map-number": (["replay", "{bad}", "gap"], {
        "version": ARTIFACT_VERSION, "checks": [],
        "registry": [{"id": "gap", "witness": {"kind": "initial-anomaly", "map": 3}}]}),
    "replay-witness-frame-number": (["replay", "{bad}", "gap"], {
        "version": ARTIFACT_VERSION, "checks": [],
        "registry": [{"id": "gap", "witness": {"kind": "heyting-sup-arrow", "frame": 3}}]}),
}


@pytest.mark.parametrize("case", WRONG_SHAPES)
def test_wrong_shape_input_is_exit_2(files, capsys, case):
    """JSON of the wrong shape is refused where it is loaded: one stderr line
    and exit 2, as for a missing field, and no traceback."""
    argv, data = WRONG_SHAPES[case]
    bad = str(files["dir"] / f"shape-{case}.json")
    save_json(bad, data)
    assert main([a.format(bad=bad, **files) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("cannot read input: BadInput(") and err.count("\n") == 1


def test_sublocales_listing_and_artifacts(files, capsys):
    jpath = str(files["dir"] / "subs.json")
    dpath = str(files["dir"] / "subs.dot")
    assert main(["sublocales", files["chain3"], "--json", jpath, "--dot", dpath]) == 0
    out = capsys.readouterr().out
    assert out.count("open") >= 2 and "closed" in out
    data = json.loads(open(jpath).read())
    assert len(data["sublocales"]) == 4
    assert open(dpath).read().startswith("digraph")


def test_sublocales_size_limit_is_exit_3(files, capsys):
    assert main(["sublocales", files["chain13"]]) == 3
    assert "size limit" in capsys.readouterr().err


def test_points_lists_and_emits_space(files, capsys):
    assert main(["points", files["chain3"]]) == 0
    out = capsys.readouterr().out
    assert "spatial: yes" in out
    assert '"points"' in out and '"opens"' in out


def test_op_check_valid_tables(files, capsys):
    assert main(["op-check", files["chain3"], files["op"]]) == 0
    assert main(["op-check", files["chain3"], files["h_op"]]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(H_OP_LITERALS))
def test_h_operator_file_literal(files, capsys, name):
    path = files["dir"] / f"literal_{name}.json"
    path.write_text(json.dumps(H_OP_LITERALS[name]))
    assert main(["op-check", files["chain3"], str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["vacuous"] == ["h1"]
    assert main(["initial", files["chain3"], files["map"], str(path)]) == 0
    capsys.readouterr()


def test_op_check_invalid_table_is_exit_1(files, capsys):
    assert main(["op-check", files["chain3"], files["bad_op"]]) == 1
    capsys.readouterr()


def test_initial_confirms_anomalies(files, capsys):
    assert main(["initial", files["chain3"], files["map"], files["op"]]) == 0
    out = capsys.readouterr().out
    data = json.loads(out[out.index("{"):])
    assert data["report"]["anomalies"]
    assert all(a["confirmed"] for a in data["report"]["anomalies"])


def test_initial_h_twin(files, capsys):
    assert main(["initial", files["chain3"], files["map"], files["h_op"]]) == 0
    capsys.readouterr()


def test_initial_wrong_frame_is_exit_1(files, capsys):
    assert main(["initial", files["two"], files["map"], files["op"]]) == 1
    capsys.readouterr()


def test_verify_subset_and_summary_lines(files, capsys):
    assert (
        main(
            [
                "verify", "--max-poset", "3", "--samples", "0",
                "--checks", "poset-counts,heyting-adjunction",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "pass  poset-counts" in out
    assert "registry:" in out and "unexplained: 0" in out


def test_verify_bad_checks_is_exit_2(files, capsys):
    assert main(["verify", "--checks", "bogus"]) == 2
    assert "bad config" in capsys.readouterr().err


def test_verify_without_flags_builds_the_default_config(monkeypatch, capsys):
    # argparse reads its defaults off CorpusConfig's fields
    from localelab import cli

    configs = []

    def run(config, progress, kernels):
        configs.append(config)
        return {"checks": [], "registry": [], "unexplained": []}

    monkeypatch.setattr(cli, "run_verification", run)
    assert main(["verify"]) == 0
    assert configs == [CorpusConfig()]


def test_bad_size_limit_env_is_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("LOCALELAB_SIZE_LIMIT", "abc")
    assert main(["verify", "--max-poset", "2", "--samples", "0"]) == 2
    err = capsys.readouterr().err
    assert "LOCALELAB_SIZE_LIMIT" in err and "'abc'" in err


@pytest.mark.parametrize("raw", ["-1", "2.5"])
def test_size_limit_env_that_is_no_natural_number_is_exit_2(monkeypatch, capsys, raw):
    # a negative bound would admit no frame: the run would find no maps and
    # fail its sampling checks instead of naming the setting
    monkeypatch.setenv("LOCALELAB_SIZE_LIMIT", raw)
    assert main(["verify", "--max-poset", "3"]) == 2
    err = capsys.readouterr().err
    assert err == f"bad config: LOCALELAB_SIZE_LIMIT must be a non-negative integer, got {raw!r}\n"


def test_verify_max_poset_6_fails_fast(capsys):
    start = time.perf_counter()
    assert main(["verify", "--max-poset", "6"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "supported maximum 5" in capsys.readouterr().err


def test_verify_max_poset_5_still_runs(capsys):
    assert main(["verify", "--max-poset", "5", "--samples", "0", "--checks", "poset-counts"]) == 0
    assert "pass  poset-counts" in capsys.readouterr().out


def test_verify_reports_are_byte_identical(files, capsys):
    r1 = str(files["dir"] / "rep1.json")
    r2 = str(files["dir"] / "rep2.json")
    args = ["verify", "--max-poset", "3", "--samples", "10", "--seed", "5"]
    assert main(args + ["--report", r1]) == 0
    assert main(args + ["--report", r2]) == 0
    capsys.readouterr()
    assert open(r1, "rb").read() == open(r2, "rb").read()


def test_verify_profile_sidecar_leaves_the_report_alone(files, capsys):
    plain, profiled = str(files["dir"] / "plain.json"), str(files["dir"] / "profiled.json")
    sidecar = files["dir"] / "profile.json"
    args = ["verify", "--max-poset", "3", "--samples", "10", "--seed", "5",
            "--checks", "poset-counts,initial-interior,initial-h"]
    assert main(args + ["--report", plain]) == 0
    out_plain = capsys.readouterr().out
    assert main(args + ["--report", profiled, "--profile", str(sidecar)]) == 0
    out_profiled = capsys.readouterr().out
    assert open(plain, "rb").read() == open(profiled, "rb").read()
    assert out_plain.replace(plain, profiled) == out_profiled
    profile = json.loads(sidecar.read_text())
    assert sorted(profile["check_seconds"]) == ["initial-h", "initial-interior", "poset-counts"]
    assert all(s >= 0 for s in profile["check_seconds"].values())
    assert sorted(profile["caches"]) == ["_class_tables", "_enumerate", "_poset_classes",
                                         "_transfer_cached", "corpus_frames"]
    for info in profile["caches"].values():
        assert sorted(info) == ["currsize", "hits", "maxsize", "misses"]
    assert profile["caches"]["_transfer_cached"]["hits"] > 0
    # one class list per size up to --max-poset, one corpus per size asked for
    assert profile["caches"]["_poset_classes"]["currsize"] >= 3
    assert profile["caches"]["corpus_frames"]["currsize"] >= 1
    # the one pass of both initial checks decides 2 + 10 tables per map, its
    # target's bank, drawn once per target frame of the run's maps, in one
    # packed lift per (target, point function) class; it lifts alone the
    # mandated table, once per check, and each first witness
    kernels = profile["operator_kernels"]
    assert sorted(kernels) == ["batches", "lanes_lifted_alone", "point_classes", "tables_lifted"]
    report = json.loads(open(plain).read())
    assert kernels["tables_lifted"] == 12 * report["counts"]["maps"]
    ctx = _Ctx(CorpusConfig(max_poset_size=3, operator_samples_per_frame=10, seed=5))
    assert kernels["batches"] == len({f.target for f in ctx.maps})
    assert kernels["point_classes"] == len({(f.target, f.points) for f in ctx.maps})
    assert kernels["point_classes"] < report["counts"]["maps"]
    # a pair of image and preimage tables per target point count and point
    # function by positions, held in a process-wide cache
    assert profile["caches"]["_class_tables"]["currsize"] >= len(
        {(len(f.target.prime_list), tuple(map(f.target.prime_list.index, f.points)))
         for f in ctx.maps})
    assert kernels["lanes_lifted_alone"] == 2 + sum(e["id"] in (
        "initial-contraction", "initial-continuity", "initial-h-continuity")
        and e["witness"] is not None for e in report["registry"]) == 5


def test_verify_progress_lines_go_to_stderr_only(files, capsys):
    rpath = str(files["dir"] / "rep_progress.json")
    assert main(["verify", "--max-poset", "3", "--samples", "10", "--seed", "5",
                 "--report", rpath]) == 0
    out, err = capsys.readouterr()
    report = run_verification(
        CorpusConfig(max_poset_size=3, operator_samples_per_frame=10, seed=5))
    with open(rpath) as fh:
        assert fh.read() == json.dumps(report, indent=2, sort_keys=True) + "\n"
    rows = report["checks"]
    confirmed = sum(1 for e in report["registry"] if e["status"] == "confirmed")
    assert out.splitlines() == [f"{r['status']:4s}  {r['id']}" for r in rows] + [
        f"registry: {confirmed}/{len(report['registry'])} anomalies confirmed",
        "unexplained: 0",
        f"wrote {rpath}",
    ]
    progress = err.splitlines()
    assert len(progress) == len(rows) == 20
    for line, row in zip(progress, rows):
        assert re.fullmatch(rf"{row['status']:4s}  {re.escape(row['id'])}  \d+\.\d\ds", line)


def test_replay_from_report_file(files, capsys):
    rpath = str(files["dir"] / "rep_replay.json")
    assert (
        main(["verify", "--max-poset", "3", "--samples", "10", "--report", rpath]) == 0
    )
    capsys.readouterr()
    assert main(["replay", rpath, "initial-top"]) == 0
    assert capsys.readouterr().out.rstrip().splitlines()[-1] == "anomaly reproduced"
    # the witness is the mandated TWO -> CHAIN3 map with the trivial table
    with open(rpath) as fh:
        w = next(e["witness"] for e in json.load(fh)["registry"] if e["id"] == "initial-top")
    assert w["map"] == {"source": frame_to_json(two()), "target": frame_to_json(chain3()),
                        "table": [0, 2]}
    assert w["op"]["table"] == list(trivial_op(enumerate_sublocales(chain3())).table)
    assert main(["replay", rpath, "definitely-not-recorded"]) == 1
    assert "unknown witness" in capsys.readouterr().err


def test_replay_refuses_a_report_of_another_version(tmp_path, capsys):
    report = run_verification(CorpusConfig())
    report["version"] = 5
    rpath = str(tmp_path / "v5.json")
    save_json(rpath, report)
    assert main(["replay", rpath, "initial-contraction"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid content: report version 5 cannot be replayed by version 9")


def test_console_script_is_installed(files, subprocess_env):
    exe = shutil.which("localelab")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "check", files["chain3"]], capture_output=True, text=True, env=subprocess_env
    )
    assert proc.returncode == 0
    assert "all laws hold" in proc.stdout


def test_python_dash_m_runs_the_cli(files, subprocess_env):
    proc = subprocess.run(
        [sys.executable, "-m", "localelab", "check", files["chain3"]],
        capture_output=True, text=True, env=subprocess_env,
    )
    assert proc.returncode == 0
    assert "all laws hold" in proc.stdout


def test_cli_imports_without_numpy(subprocess_env):
    # every CLI call pays its imports cold; the package depends on no
    # third-party module at run time
    proc = subprocess.run(
        [sys.executable, "-c", "import localelab.cli, sys; assert 'numpy' not in sys.modules"],
        capture_output=True, text=True, env=subprocess_env,
    )
    assert proc.returncode == 0, proc.stderr


def test_verify_small_corpus_shortfalls_have_witnesses(files, capsys):
    # two-element posets give too few composable maps for the 200 bar; the
    # failure is stated in the row's witness, and replay prints the same line
    rpath = str(files["dir"] / "rep_small.json")
    assert main(["verify", "--max-poset", "2", "--report", rpath]) == 1
    capsys.readouterr()
    with open(rpath) as fh:
        report = json.load(fh)
    assert report["unexplained"] == []
    failed = {r["id"]: r for r in report["checks"] if r["status"] != "pass"}
    assert sorted(failed) == ["composition-h", "composition-interior"]
    for cid, row in failed.items():
        line = f"{row['detail']['triples']} of 200 composable triples checked"
        assert row["witness"]["lines"][0].startswith(line)
        assert main(["replay", rpath, cid]) == 0
        assert capsys.readouterr().out.rstrip() == row["witness"]["lines"][0]


def test_verify_reads_the_size_bound_once(monkeypatch, capsys):
    # the S_l bound is read when the run starts, never inside the kernels, so
    # the count does not grow with the operator work
    import localelab.sublocales
    import localelab.verify

    real = localelab.sublocales.size_limit
    reads = []

    def counted():
        reads.append(real())
        return reads[-1]

    for module in (localelab.sublocales, localelab.verify):
        monkeypatch.setattr(module, "size_limit", counted)
    counts = []
    for samples in ("0", "100"):
        reads.clear()
        assert main(["verify", "--max-poset", "3", "--samples", samples]) == 0
        counts.append(len(reads))
    capsys.readouterr()
    assert counts == [1, 1]
