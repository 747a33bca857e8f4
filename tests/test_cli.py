"""Command line surface: exit codes 0/1/2/3 and subcommand output.

Commands are run in process through main(argv) so exit codes and streams
are captured directly; one test covers the installed console script.
"""
import json
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


def test_bad_size_limit_env_is_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("LOCALELAB_SIZE_LIMIT", "abc")
    assert main(["verify", "--max-poset", "2", "--samples", "0"]) == 2
    err = capsys.readouterr().err
    assert "LOCALELAB_SIZE_LIMIT" in err and "'abc'" in err


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


def test_replay_from_report_file(files, capsys):
    rpath = str(files["dir"] / "rep_replay.json")
    assert (
        main(["verify", "--max-poset", "3", "--samples", "10", "--report", rpath]) == 0
    )
    capsys.readouterr()
    assert main(["replay", rpath, "initial-top"]) == 0
    out = capsys.readouterr().out
    assert out.rstrip().splitlines()[-1] == "i_{L_f}(L) = {1} ≠ L"
    assert main(["replay", rpath, "definitely-not-recorded"]) == 1
    assert "unknown witness" in capsys.readouterr().err


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
