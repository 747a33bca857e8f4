"""One workload in a fresh interpreter; prints one JSON line for the runner.

    python3 perfbench/child.py --workload NAME --seed N --mode run|setup|trace --out DIR

``localelab`` must be importable (the runner puts ``src/`` on PYTHONPATH by
absolute path).  ``ready`` is CLOCK_MONOTONIC after import and corpus set-up,
so the runner, which read the same clock just before starting this process,
gets the set-up time including interpreter start.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import time
import traceback

import localelab  # noqa: F401  (import time belongs to set-up)
import localelab.cli  # noqa: F401

from tracer import Tracer
from workloads import WORKLOADS


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("run", "setup", "trace"), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.seed, args.out, args.tiny)
    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()
        tracer.span("setup", wl.setup)
    else:
        wl.setup()
    ready = time.monotonic()
    out = {"ready": ready}
    if args.mode != "setup":
        t0 = time.perf_counter()
        if tracer is None:
            wl.run()
        else:
            tracer.span("workload", wl.run)
        out["wall_s"] = time.perf_counter() - t0
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        hom_calls = tracer.hom_calls if tracer else ()
        try:
            problems, details, counts = wl.verdict(hom_calls)
        except Exception:  # a malformed output is a wrong verdict, not a crash of the benchmark
            problems, details, counts = [traceback.format_exc(limit=3)], {}, {}
        out.update(problems=problems, details=details)
        if tracer is not None:
            extra = dict(counts)
            extra["corpus.posets"] = len(wl.corpus.posets)
            layer, layer_self, traced_s = tracer.metrics(extra)
            out.update(layer=layer, layer_self=layer_self, traced_s=traced_s)
            tracer.dump(os.path.join(args.out, f"spans-{args.workload}.json"))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
