"""End-to-end, map-layer and operator-layer timings of localelab, appended to
BENCH_verify.json.

    python3 bench/bench.py [--runs N] [--out PATH] [--commit ID]

Run it from the root of a source checkout; it imports `localelab` from the
`src/` directory next to this script and starts `localelab verify` in child
interpreters with the same `PYTHONPATH`. One entry records:

- the commit (`git rev-parse HEAD`, or `--commit`), the Python version and
  `PYTHONDONTWRITEBYTECODE`;
- the median wall time of N runs of default `verify` and of
  `verify --max-poset 5`, each in a fresh interpreter, in seconds and in
  probe units (`median_probe_units`, and `runs_probe_units` per run). Each
  child times its run from its `import localelab.cli` on, so interpreter
  start-up is left out. While it runs, this process, pinned to the child's
  vCPU, times `probe_kernel` every PROBE_PERIOD_S, as `perfbench/run.py`
  does, and the run's wall time is divided by the mean of those probes: they
  span the run, so they see a speed phase that starts inside it;
- the cold start: the median over 11 fresh interpreters of the time
  `import localelab.cli` takes, of the time the poset classes of sizes 1..5
  take after it (`poset_classes_5_s`), of the time `corpus_frames(5)` then
  takes to build the 87 frames (`frame_build_5_s`), and of the sum of the
  two (`corpus_frames_5_s`). One unmeasured interpreter runs first. It
  writes the bytecode caches only when `PYTHONDONTWRITEBYTECODE` is unset;
  when it is set, every interpreter compiles the package on import (on a
  2-vCPU x86-64 VM with Python 3.11.7, a cold import took 0.11 s compiling
  against 0.048 s read from bytecode caches);
- the median over five passes of each map-layer kernel, timed over every
  frame hom between the corpus-4 frames (19,702 homs): `localic_maps` and
  `enumerate_frame_homs` (each over all 576 corpus-4 frame pairs; the
  second reads each hom table off the first's maps as a left adjoint and
  checks none), `check_frame_hom`, `LocalicMap` construction (its point-map
  check), `right_adjoint` (which checks its table as `FrameHom` does before
  it reads the points), `localic_map` on each map's element table (the
  point-map check and the meet extension compared with the table), the
  left adjoint `LocalicMap.adjoint` derives from the points and validates,
  `SublocaleTransfer.build(f)`, uncached, on lattices enumerated before the
  passes and on the image and preimage tables it reads from their cache,
  warm, `_class_tables` itself, uncached, on every map's target point count
  and point function (the build of its tables), and `adjunction_report` on
  the built transfers;
  `maps_build_s`, the harness's `_Ctx.maps` at the default config
  (1,135 maps) and at `map_budget=10**7` (5,217 maps), each pass on a
  context built before it; and `galois_adjunction_s`, the galois-adjunction
  check itself on those two map sets, each pass on a context whose maps are
  built before it. Its contexts sample no operators, as maps-sweep's
  `--samples 0` does, so that no pass reads transfers an earlier one cached;
- the median over five passes of each operator-layer kernel, timed over
  the (map, target table) pairs of the initial checks of default `verify`,
  which read one bank per target frame: `initial_interior` and `initial_h`
  each on the 54,480 lifts, each on an operator built from the bank table
  beforehand. A lift returns its report with the candidate operator not
  yet built. These are the public one-lane lifts, which the checks
  themselves run only for the mandated table and for first witnesses;
- the median over five passes of the interior-axioms and h-axioms checks
  of default `verify` (`interior_axioms_s`, `h_axioms_s`): each one's work
  over its 100 draws per corpus frame (2,400 draws), with the named
  operators included; and the same two checks at 10,000 draws per frame
  (`interior_axioms_10k_s`, `h_axioms_10k_s`), which show how the draw
  kernels scale with the draw count;
- the median over five passes of the lane-packed kernels as the initial
  checks run them, one batch per map: `batched_draws_s` asks a fresh
  context for the batch of every map, which draws its banks (one batch per
  target frame, of the discrete and trivial tables and 46 draws: 23 draw
  kernel calls over the 23 targets), and `batched_lift_s` lifts each map's
  bank through its transfer with the one lift kernel, `_lift` (54,480
  tables), next to the one-lane public lifts above;
- the median over five passes of initial-interior and of initial-h, the two
  checks themselves, timed one after the other in run order on a fresh
  context per pass that shares the warm one's maps (`initial_checks_s`, per
  check). Both rows come from one pass over the maps, which initial-interior
  runs and initial-h reads, so initial-h's time is that of the read;
- the median over five passes of each of the seven per-object operator
  checks of default `verify` (contractive-equivalence, composition-interior,
  composition-h, coarseness, universal-property-interior,
  universal-property-h, open-preimage; `operator_checks_s` per check and
  `operator_checks_total_s`, their sum). Each pass runs the seven in run
  order on a fresh context that shares the warm one's maps, so that each h
  twin reads the samples its interior twin drew in the same pass, as in
  `verify`, and no pass reads samples an earlier one drew;
- the median over five passes of sublocale-join-oracle on the
  24 corpus-4 frames (`join_oracle_s`) and on the 87 corpus-5 frames of
  `verify --max-poset 5` (`join_oracle_5_s`);
- the median over five passes of each frame-level check (heyting-adjunction,
  heyting-identities, complement-laws, generation-property) on the corpus-4
  and the corpus-5 frames of `verify` and `verify --max-poset 5`
  (`frame_checks_s`), each pass on S_l lattices built anew, so that what a
  lattice computes once per run is computed in every pass; and the median
  over the same passes of that cold S_l build over the 87 corpus-5 frames
  (`sl_build_5_s`);
- the median over five passes of `points_of`, `is_spatial` and
  `spatialization` over the 78 corpus-5 frames of at most 16 elements
  (`points_5_s`); the three cache nothing, so every pass is cold. pt(L) has
  no size bound, but the frames stay those the earlier point bound admitted,
  so that entries stay comparable;
- `probe_s`: the median time of `probe_kernel`, a fixed slice of pure-Python
  work (the probe of `perfbench/run.py`), run PROBES times before each of the
  timing groups above and once more after the last. It tracks the machine's
  speed while the entry is taken: divide a timing by it to compare entries
  taken at different speeds. `probe_groups_s` holds the median of the PROBES
  timings taken right before each group, by group name;
- `probe_units` in each group timed in passes (`map_kernels`,
  `operator_kernels`, `points_5_s`): per timing, the median over its passes
  of the pass time divided by the median of PROBES `probe_kernel` runs
  timed right before that pass, so that a speed phase that starts inside a
  group is seen by the passes it hits. One run of about half a millisecond
  is too short to track the machine's speed; the median of PROBES is not.
  The `verify` groups probe alongside each child, as above.

The script pins itself to one vCPU of those it may use, and the child
interpreters inherit the pin; `taskset -c 1 python3 bench/bench.py` picks
which one.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

PASSES = 5
COLD_RUNS = 11
PROBES = 21
# timed inside the child, so interpreter start-up is left out
COLD_PROBE = """
import time
start = time.perf_counter()
import localelab.cli
imported = time.perf_counter()
from localelab.corpus import _poset_classes, corpus_frames
for n in range(1, 6):
    _poset_classes(n)
classes = time.perf_counter()
corpus_frames(5)
print(imported - start, classes - imported, time.perf_counter() - classes)
"""
# one timed `localelab` run of _wall, run as `-c code ARGV...`: the CLI on
# ARGV, timed from its import on; prints the time
WALL_CHILD = """
import os, sys, time
start = time.perf_counter()
with open(os.devnull, "w") as sys.stdout:
    from localelab.cli import main
    code = main(sys.argv[1:])
wall = time.perf_counter() - start
sys.stdout = sys.__stdout__
if code:
    raise SystemExit(code)
print(wall)
"""
# how often _wall times probe_kernel while a child runs (perfbench/run.py's period)
PROBE_PERIOD_S = 0.02
# S_l bound that admits the lattices the transfer builds read: the largest
# corpus-4 frame has 16 elements
SL_LIMIT = 16
# the checks that read only the corpus frames and their S_l
FRAME_CHECKS = ("heyting-adjunction", "heyting-identities", "complement-laws",
                "generation-property")
# the seven per-object operator checks
OPERATOR_CHECKS = ("contractive-equivalence", "composition-interior", "composition-h",
                   "coarseness", "universal-property-interior", "universal-property-h",
                   "open-preimage")


def probe_kernel():
    """A fixed slice of pure-Python work, about half a millisecond."""
    s = 0
    for i in range(6000):
        s += i * i % 7
    return s


def _probe(times=None):
    """Time PROBES runs of probe_kernel, into times when given; return their median."""
    mine = []
    for _ in range(PROBES):
        start = time.perf_counter()
        probe_kernel()
        mine.append(time.perf_counter() - start)
    if times is not None:
        times += mine
    return statistics.median(mine)


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _wall(argv, runs):
    """The wall times of runs child `localelab` runs of argv, in seconds and
    in probe units: each run's time divided by the mean time of the
    `probe_kernel` runs this process timed every PROBE_PERIOD_S, on the same
    vCPU, while the child ran."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times, units = [], []
    for _ in range(runs):
        proc = subprocess.Popen([sys.executable, "-c", WALL_CHILD, *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        probes = []
        while True:
            time.sleep(PROBE_PERIOD_S)
            start = time.perf_counter()
            probe_kernel()
            probes.append(time.perf_counter() - start)
            if proc.poll() is not None:
                break
        out = proc.stdout.read()
        proc.stdout.close()
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, argv)
        times.append(float(out))
        units.append(times[-1] / statistics.mean(probes))
    return {"median_s": round(statistics.median(times), 3), "runs_s": [round(t, 3) for t in times],
            "median_probe_units": round(statistics.median(units), 1),
            "runs_probe_units": [round(u, 1) for u in units]}


def cold_start():
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(COLD_RUNS + 1):
        out = subprocess.run([sys.executable, "-c", COLD_PROBE], env=env, check=True,
                             capture_output=True, text=True).stdout
        samples.append([float(x) for x in out.split()])
    imports, classes, frames = zip(*samples[1:])
    def median(xs):
        return round(statistics.median(xs), 4)

    return {"runs": COLD_RUNS, "import_cli_s": median(imports),
            "poset_classes_5_s": median(classes), "frame_build_5_s": median(frames),
            "corpus_frames_5_s": median([c + f for c, f in zip(classes, frames)])}


def _median_time(out, key, fn, items):
    """Set out[key] to the median over PASSES passes of the time fn(*item)
    takes over items, and out["probe_units"][key] to the median over the
    passes of each pass's time divided by the _probe median timed right
    before it."""
    times, units = [], []
    for _ in range(PASSES):
        probe = _probe()
        start = time.perf_counter()
        for item in items:
            fn(*item)
        times.append(time.perf_counter() - start)
        units.append(times[-1] / probe)
    out[key] = round(statistics.median(times), 4)
    # re-inserted, so that probe_units stays the group's last key
    out["probe_units"] = {**out.pop("probe_units", {}), key: round(statistics.median(units), 2)}


def kernel_timings():
    from localelab.corpus import corpus_frames
    from localelab.maps import (
        FrameHom,
        LocalicMap,
        check_frame_hom,
        enumerate_frame_homs,
        localic_map,
        localic_maps,
        right_adjoint,
    )
    from localelab.sublocales import (
        SublocaleTransfer,
        _class_tables,
        adjunction_report,
        enumerate_sublocales,
    )
    from localelab.verify import CHECKS, CorpusConfig, _Ctx

    frames = [fr for _, fr in corpus_frames(4)]
    homs = [FrameHom(a, b, table) for a in frames for b in frames
            for table in enumerate_frame_homs(a, b)]
    maps = [right_adjoint(h.source, h.target, h.table) for h in homs]
    for fr in frames:
        enumerate_sublocales(fr, SL_LIMIT)
    transfers = [SublocaleTransfer.build(f) for f in maps]
    adjoint = LocalicMap.adjoint.fget
    kernels = {
        "localic_maps": (localic_maps, [(a, b) for a in frames for b in frames]),
        "enumerate_frame_homs": (enumerate_frame_homs, [(a, b) for a in frames for b in frames]),
        "check_frame_hom": (check_frame_hom, [(h.source, h.target, h.table) for h in homs]),
        "localic_map_validation": (
            LocalicMap, [(f.source, f.target, f.points) for f in maps]),
        "right_adjoint": (right_adjoint, [(h.source, h.target, h.table) for h in homs]),
        "localic_map": (localic_map, [(f.source, f.target, f.table) for f in maps]),
        "adjoint": (adjoint, [(f,) for f in maps]),
        "transfer_build": (SublocaleTransfer.build, [(f,) for f in maps]),
        "class_tables": (_class_tables.__wrapped__, [
            (len(f.target.prime_list), tuple(map(f.target.prime_list.index, f.points)))
            for f in maps]),
        "adjunction_report": (adjunction_report, [(t,) for t in transfers]),
    }
    out = {"homs": len(homs)}
    for name, (fn, items) in kernels.items():
        _median_time(out, f"{name}_s", fn, items)
    out["maps_build_s"] = {}
    for name, config in (("default", CorpusConfig()),
                         ("map_budget_10000000", CorpusConfig(map_budget=10 ** 7))):
        # one fresh context per pass, built before the pass is timed
        contexts = [_Ctx(config) for _ in range(PASSES)]
        _median_time(out["maps_build_s"], name, lambda: contexts.pop().maps, [()])
    out["galois_adjunction_s"] = {}
    for name, budget in (("default", CorpusConfig().map_budget), ("map_budget_10000000", 10 ** 7)):
        contexts = [_Ctx(CorpusConfig(map_budget=budget, operator_samples_per_frame=0))
                    for _ in range(PASSES)]
        for ctx in contexts:
            ctx.maps
        _median_time(out["galois_adjunction_s"], name,
                     lambda: CHECKS["galois-adjunction"](contexts.pop()), [()])
    return out


def operator_timings():
    from localelab.hops import HOperator, initial_h
    from localelab.interior import InteriorOperator, _lift, initial_interior
    from localelab.sublocales import transfer_of
    from localelab.verify import CHECKS, CorpusConfig, _Ctx, _ops_for_initial

    ctx = _Ctx(CorpusConfig())
    maps = ctx.maps

    def lifts(op_type):
        return [(f, op_type(ctx.sl(f.target), b.lane(j)))
                for f in maps for b in [_ops_for_initial(ctx, f)] for j in range(b.lanes)]

    def check(cid, on=ctx):
        CHECKS[cid](on)

    interior_lifts, h_lifts = lifts(InteriorOperator), lifts(HOperator)
    out = {
        "maps": len(maps),
        "initial_interior_lifts": len(interior_lifts),
        "initial_h_lifts": len(h_lifts),
        "axiom_draws": len(ctx.frames) * ctx.config.operator_samples_per_frame,
    }
    _median_time(out, "initial_interior_s", initial_interior, interior_lifts)
    _median_time(out, "initial_h_s", initial_h, h_lifts)
    _median_time(out, "interior_axioms_s", check, [("interior-axioms",)])
    _median_time(out, "h_axioms_s", check, [("h-axioms",)])
    wide = _Ctx(CorpusConfig(operator_samples_per_frame=10_000))
    _median_time(out, "interior_axioms_10k_s", check, [("interior-axioms", wide)])
    _median_time(out, "h_axioms_10k_s", check, [("h-axioms", wide)])

    def fresh():
        """A context that has drawn nothing yet and shares the warm one's maps."""
        on = _Ctx(CorpusConfig())
        vars(on)["maps"] = ctx.maps
        return on

    def in_order(cids):
        """The median over PASSES of each check of cids, run in order on a fresh context."""
        passes = {cid: [] for cid in cids}
        for _ in range(PASSES):
            on = fresh()
            for cid in cids:
                start = time.perf_counter()
                CHECKS[cid](on)
                passes[cid].append(time.perf_counter() - start)
        return {cid: round(statistics.median(ts), 4) for cid, ts in passes.items()}

    out["operator_checks_s"] = seven = in_order(OPERATOR_CHECKS)
    out["operator_checks_total_s"] = round(sum(seven.values()), 4)
    out["initial_checks_s"] = in_order(("initial-interior", "initial-h"))
    _median_time(out, "join_oracle_s", check, [("sublocale-join-oracle",)])
    _median_time(out, "join_oracle_5_s", check, [("sublocale-join-oracle",
                                                  _Ctx(CorpusConfig(max_poset_size=5)))])
    transfers = [(f, transfer_of(f)) for f in maps]

    def batches(contexts):
        on = contexts.pop()
        for f, _ in transfers:
            _ops_for_initial(on, f)

    # one fresh context per pass, built before the pass is timed
    _median_time(out, "batched_draws_s", batches, [([fresh() for _ in range(PASSES)],)])
    items = [(t, b.masks, b.ones) for f, t in transfers for b in [_ops_for_initial(ctx, f)]]
    _median_time(out, "batched_lift_s", _lift, items)
    return out


def frame_check_timings():
    from localelab.sublocales import _enumerate
    from localelab.verify import CHECKS, CorpusConfig, _Ctx

    out = {"frame_checks_s": {}}
    for size in (4, 5):
        ctx = _Ctx(CorpusConfig(max_poset_size=size))
        builds, passes = [], {cid: [] for cid in FRAME_CHECKS}
        for _ in range(PASSES):
            _enumerate.cache_clear()
            start = time.perf_counter()
            for _, fr in ctx.frames:
                ctx.sl(fr)
            builds.append(time.perf_counter() - start)
            for cid in FRAME_CHECKS:
                start = time.perf_counter()
                CHECKS[cid](ctx)
                passes[cid].append(time.perf_counter() - start)
        out["frame_checks_s"][f"corpus_{size}"] = {
            cid: round(statistics.median(ts), 4) for cid, ts in passes.items()}
    out["sl_build_5_s"] = round(statistics.median(builds), 4)
    return out


def point_timings():
    from localelab.corpus import corpus_frames
    from localelab.points import is_spatial, points_of, spatialization

    # the 78 frames the earlier point bound of 16 admitted, so that points_5_s
    # stays comparable with entries taken under it
    frames = [(fr,) for _, fr in corpus_frames(5) if fr.n <= 16]
    out = {}
    for fn in (points_of, is_spatial, spatialization):
        _median_time(out, fn.__name__, fn, frames)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=3, help="verify runs per configuration")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_verify.json"))
    ap.add_argument("--commit", default=None, help="commit to record (default: git HEAD)")
    args = ap.parse_args(argv)
    entry = {
        "commit": args.commit or _commit(),
        "python": platform.python_version(),
        "pythondontwritebytecode": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }
    if hasattr(os, "sched_setaffinity"):
        # children inherit this, so each verify run and _wall's probes share one vCPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    groups = {
        "verify_default": lambda: _wall(["verify"], args.runs),
        "verify_max_poset_5": lambda: _wall(["verify", "--max-poset", "5"], args.runs),
        "cold_start": cold_start,
        "map_kernels": kernel_timings,
        "operator_kernels": operator_timings,
        "frame_checks": frame_check_timings,
        "points_5_s": point_timings,
    }
    probes, probe_groups = [], {}
    for name, group in groups.items():
        probe_groups[name] = round(_probe(probes), 6)
        entry[name] = group()
    _probe(probes)
    entry["probe_s"] = round(statistics.median(probes), 6)
    entry["probe_groups_s"] = probe_groups
    history = []
    if os.path.exists(args.out):
        with open(args.out) as fh:
            history = json.load(fh)
    history.append(entry)
    with open(args.out, "w") as fh:
        json.dump(history, fh, indent=2)
        fh.write("\n")
    print(json.dumps(entry, indent=2))


if __name__ == "__main__":
    main()
