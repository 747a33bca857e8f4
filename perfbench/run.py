"""localelab benchmark runner.

    python3 perfbench/run.py --workload verify-default --seed 42 --seconds 36 --trace 0

Run from the root of a source checkout; nothing needs installing.  Each
sample is a fresh interpreter (``perfbench/child.py``), one at a time, so
every sample pays cold imports and cold ``lru_cache``s as a CLI user does.

--trace 0 runs full samples until --seconds is spent (at least three), then
set-up-only samples until there are seven set-ups, and prints the medians of
the end-to-end metrics.  Wall time is also reported divided by the time of a
fixed probe kernel run alongside on the same vCPU, which cancels most of the
drift in machine speed (see README.md).  --trace 1 runs one untraced and one traced sample
and prints the per-layer metrics of the traced one.  Every sample's outputs
are checked against known answers; the last stdout line is the JSON result.
Details (commit, Python, nproc, seed, samples, report hashes) go to
``perfbench/.out/result-<workload>-s<seed>-t<trace>.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")

MIN_SAMPLES = 3
MIN_SETUPS = 7
RUN_LIMIT_S = 150  # no new sample past this, whatever --seconds says
CHILD_TIMEOUT_S = 170
PROBE_PERIOD_S = 0.02

END_TO_END = (("wall_probe_units", "probe"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC  # absolute, so it resolves whatever the child's cwd
    env.pop("LOCALELAB_SIZE_LIMIT", None)  # the workloads rely on the default bounds
    return env


def probe_kernel():
    """A fixed slice of pure-Python work, about half a millisecond."""
    s = 0
    for i in range(6000):
        s += i * i % 7
    return s


def run_child(args, mode):
    """One fresh interpreter; returns (parsed output or None, setup_s).

    While the child runs, this process, pinned to the same vCPU, times
    `probe_kernel` every PROBE_PERIOD_S. The mean probe time is the
    machine's speed over the sample, and it goes into the output as
    `probe_s`.
    """
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--out", OUT]
    if args.tiny:
        cmd.append("--tiny")
    probes = []
    with open(os.path.join(OUT, "child-stderr.txt"), "w+") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                stderr=err, text=True)
        while True:
            time.sleep(PROBE_PERIOD_S)
            t0 = time.perf_counter()
            probe_kernel()
            probes.append(time.perf_counter() - t0)
            if proc.poll() is not None:
                break
            if time.monotonic() - spawned > CHILD_TIMEOUT_S:
                proc.kill()
                proc.wait()
                proc.stdout.close()
                print(f"{mode} sample timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
                return None, None
        stdout = proc.stdout.read()
        proc.stdout.close()
        if proc.returncode != 0:
            err.seek(0)
            print(f"{mode} sample exited {proc.returncode}:\n{err.read()[-2000:]}",
                  file=sys.stderr)
            return None, None
    out = json.loads(stdout.strip().splitlines()[-1])
    out["probe_s"] = statistics.mean(probes)
    return out, out["ready"] - spawned


def source_fingerprint():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "localelab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


class Samples:
    """Outcomes of the children of one run, and the verdict over them."""

    def __init__(self):
        self.full = []
        self.setups = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def take(self, out, setup_s, full=True):
        self.attempted += 1
        if out is None:
            self.failed += 1
            self.problems.append("sample crashed")
            return None
        self.setups.append(setup_s)
        if full:
            if out["problems"]:
                self.failed += 1
                self.problems.extend(out["problems"])
            self.full.append(out)
        return out


def measure(args, samples):
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        typical = elapsed / len(samples.full) if samples.full else 0.0
        if samples.full and elapsed + typical > RUN_LIMIT_S:
            break
        if len(samples.full) >= MIN_SAMPLES and elapsed + typical > args.seconds:
            break
        if samples.take(*run_child(args, "run")) is None and not samples.full:
            return  # the program cannot run at all; do not keep retrying
    for _ in range(MIN_SETUPS - len(samples.setups)):
        samples.take(*run_child(args, "setup"), full=False)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload to a few seconds (smoke test)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "localelab", "__init__.py")):
        print(f"no localelab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    # children inherit this, so every sample and its probe share one vCPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run_child(args, "setup")  # unmeasured: compiles bytecode and warms the file cache

    samples = Samples()
    if args.trace:
        plain = samples.take(*run_child(args, "run"))
        traced = samples.take(*run_child(args, "trace"))
    else:
        measure(args, samples)

    metrics = {}
    if args.trace and plain and traced:
        metrics = traced["layer"]
        # the traced wall time at the untraced sample's machine speed, less the untraced one
        at_plain_speed = metrics["trace.wall_s"]["value"] * plain["probe_s"] / traced["probe_s"]
        metrics["trace.overhead_s"]["value"] = at_plain_speed - plain["wall_s"]
        shares = {k: v / traced["traced_s"] for k, v in traced["layer_self"].items()}
        print(f"traced set-up + workload: {traced['traced_s']:.4f} s, of which self time: "
              + ", ".join(f"{k} {100 * v:.1f}%"
                          for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    elif not args.trace and samples.full:
        values = {"wall_s": [o["wall_s"] for o in samples.full],
                  "wall_probe_units": [o["wall_s"] / o["probe_s"] for o in samples.full],
                  "setup_s": samples.setups,
                  "peak_rss_mb": [o["peak_rss_mb"] for o in samples.full],
                  "probe_ms": [1e3 * o["probe_s"] for o in samples.full]}
        for name, unit in END_TO_END + (("wall_s", "s"), ("probe_ms", "ms")):
            print(f"{name}: median {statistics.median(values[name]):.4f} {unit} "
                  f"over {len(values[name])} samples")
        metrics = {name: {"value": statistics.median(values[name]), "unit": unit}
                   for name, unit in END_TO_END}

    fail_ratio = samples.failed / samples.attempted
    print(f"fail_ratio: {fail_ratio:.4f} ({samples.failed}/{samples.attempted})")
    for problem in samples.problems[:20]:
        print(f"problem: {problem}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "commit": git_commit(),
        "source_sha256": source_fingerprint(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "attempted": samples.attempted, "failed": samples.failed,
        "fail_ratio": fail_ratio, "problems": samples.problems, "metrics": metrics,
        "samples": [{**{k: o[k] for k in ("wall_s", "probe_s", "peak_rss_mb", "details")},
                     "setup_s": s}
                    for o, s in zip(samples.full, samples.setups)],
        "setups": samples.setups,
    }
    path = os.path.join(OUT, f"result-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"commit {record['commit']} python {record['python']} nproc {record['nproc']} "
          f"seed {args.seed}; details in {os.path.relpath(path, ROOT)}")
    correct = bool(metrics) and samples.failed == 0
    print(json.dumps({"correct": correct, "attempted": samples.attempted,
                      "failed": samples.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
