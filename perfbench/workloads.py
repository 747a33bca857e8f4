"""The benchmark's workloads and the known answers each verdict is checked against.

Each workload has a set-up step (building its corpus, so the cold
``lru_cache`` fills there) and a timed step that drives localelab through
``localelab.cli.main`` or the public functions of its modules.  ``verdict``
runs after the clock stops and returns a list of problems; empty means every
output matched its known answer.

The known answers do not come from the code under test: poset counts are the
published ones, hom counts are monotone maps counted here by brute force
(Birkhoff duality: frame homs D(P) -> D(Q) are monotone maps Q -> P), and the
frames-wide answers are the finite-frame facts |S_l(D(P))| = 2^|P|,
|pt(D(P))| = |P| and spatiality.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from functools import cached_property
from itertools import product

from tracer import CHECK_IDS

# published counts of unlabeled posets on n points
KNOWN_POSET_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}

# what `localelab verify` reports at its defaults, for every seed
VERIFY_DEFAULT_COUNTS = {
    "posets": 24, "frames": 24, "maps": 1135, "map_pairs_skipped": 390, "operators": 10525,
}
REGISTRY_SIZE = 12

# bounds the harness and the CLI apply by default
MAP_FRAME_CAP = 12
SL_BOUND = 18
POINT_BOUND = 16


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _cli(argv):
    """Run `localelab` with argv, its stdout swallowed; return the exit code."""
    from localelab.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


# -- independent oracles ------------------------------------------------------------


def _order(poset):
    return [[bool(poset.leq(a, b)) for b in range(poset.n)] for a in range(poset.n)]


def count_downsets(le):
    n = len(le)
    return sum(
        1 for mask in range(1 << n)
        if all(not (mask >> b & 1) or all(mask >> a & 1 for a in range(n) if le[a][b])
               for b in range(n))
    )


def count_monotone(le_from, le_to):
    """Monotone maps between two finite posets, by trying every function."""
    n, m = len(le_from), len(le_to)
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b and le_from[a][b]]
    return sum(1 for f in product(range(m), repeat=n)
               if all(le_to[f[a]][f[b]] for a, b in pairs))


class _Corpus:
    """Corpus posets with their orders, keyed by the identity of their frames."""

    def __init__(self, max_size):
        from localelab.corpus import corpus_frames, corpus_posets

        self.posets = corpus_posets(max_size)
        self.frames = [fr for _, fr in corpus_frames(max_size)]
        self.index = {id(fr): i for i, fr in enumerate(self.frames)}
        self._homs = {}

    @cached_property
    def orders(self):
        return [_order(p) for p in self.posets]

    def homs(self, i, j):
        """Frame homs D(P_i) -> D(P_j), counted as monotone maps P_j -> P_i."""
        if (i, j) not in self._homs:
            self._homs[i, j] = count_monotone(self.orders[j], self.orders[i])
        return self._homs[i, j]

    def expected_maps(self, budget):
        """(maps, pairs skipped) for the harness's cheapest-pairs-first budget rule."""
        sizes = [count_downsets(le) for le in self.orders]
        usable = [i for i, s in enumerate(sizes) if s <= MAP_FRAME_CAP]
        pairs = sorted((sizes[j] ** sizes[i], i, j) for i in usable for j in usable)
        remaining, maps, skipped = budget, 0, 0
        for cost, i, j in pairs:
            if cost > remaining:
                skipped += 1
                continue
            remaining -= cost
            maps += self.homs(i, j)
        return maps, skipped, sizes

    def check_hom_calls(self, hom_calls):
        """Per-pair hom counts seen by a traced run, against monotone maps."""
        problems = []
        for source, target, found in hom_calls:
            i, j = self.index.get(id(source)), self.index.get(id(target))
            if i is None or j is None:
                continue
            if found != self.homs(i, j):
                problems.append(f"{found} homs D(P{i}) -> D(P{j}), expected {self.homs(i, j)}")
        return problems


def _poset_count_problems(corpus, max_size):
    sizes = [p.n for p in corpus.posets]
    return [f"{sizes.count(n)} posets of size {n}, expected {KNOWN_POSET_COUNTS[n]}"
            for n in range(1, max_size + 1) if sizes.count(n) != KNOWN_POSET_COUNTS[n]]


# -- workloads ------------------------------------------------------------------------


class _Workload:
    """Seed, size and corpus; `tiny` shrinks the run for the smoke test."""

    name = ""
    max_poset = 4
    tiny_max_poset = 3

    def __init__(self, seed, out_dir, tiny):
        self.seed = seed
        self.tiny = tiny
        self.out_dir = out_dir
        if tiny:
            self.max_poset = self.tiny_max_poset

    def setup(self):
        self.corpus = _Corpus(self.max_poset)


class _VerifyRun(_Workload):
    """A `localelab verify` run writing --report; subclasses fix the flags."""

    @property
    def report_path(self):
        return os.path.join(self.out_dir, f"report-{self.name}-s{self.seed}.json")

    def argv(self):
        raise NotImplementedError

    def run(self):
        self.exit_code = _cli(self.argv() + ["--seed", str(self.seed), "--report", self.report_path])

    def load_report(self):
        with open(self.report_path) as fh:
            return json.load(fh)

    def common_problems(self, report, want_checks):
        problems = _poset_count_problems(self.corpus, self.max_poset)
        if self.exit_code != 0:
            problems.append(f"exit code {self.exit_code}")
        ids = [row["id"] for row in report["checks"]]
        if ids != list(want_checks):
            problems.append(f"checks run {ids}, expected {list(want_checks)}")
        problems += [f"check {row['id']}: {row['status']}"
                     for row in report["checks"] if row["status"] != "pass"]
        if report["unexplained"]:
            problems.append(f"{len(report['unexplained'])} unexplained violations")
        return problems

    def report_counts(self, report):
        counts = report["counts"]
        return {
            "verify.maps": counts["maps"],
            "verify.map_pairs_skipped": counts["map_pairs_skipped"],
            "verify.operators": counts["operators"],
            "verify.registry_occurrences": sum(e["occurrences"] for e in report["registry"]),
        }


class VerifyDefault(_VerifyRun):
    """`localelab verify` at its defaults: max-poset 4, samples 100, budget 200k."""

    name = "verify-default"

    def argv(self):
        if self.tiny:
            return ["verify", "--max-poset", str(self.max_poset), "--samples", "5"]
        return ["verify"]

    def verdict(self, hom_calls):
        report = self.load_report()
        problems = self.common_problems(report, CHECK_IDS)
        registry = report["registry"]
        if len(registry) != REGISTRY_SIZE:
            problems.append(f"{len(registry)} registry entries, expected {REGISTRY_SIZE}")
        problems += [f"registry {e['id']}: {e['status']}"
                     for e in registry if e["status"] != "confirmed"]
        if not self.tiny:
            problems += [f"count {k} = {report['counts'].get(k)}, expected {v}"
                         for k, v in VERIFY_DEFAULT_COUNTS.items() if report["counts"].get(k) != v]
        problems += self.corpus.check_hom_calls(hom_calls)
        return problems, {"report_sha256": _sha256(self.report_path)}, self.report_counts(report)


class MapsSweep(_VerifyRun):
    """The galois-adjunction check over every map a 10M-candidate budget admits."""

    name = "maps-sweep"

    def __init__(self, seed, out_dir, tiny):
        super().__init__(seed, out_dir, tiny)
        self.budget = 20_000 if tiny else 10_000_000

    def argv(self):
        return ["verify", "--max-poset", str(self.max_poset), "--budget", str(self.budget),
                "--samples", "0", "--checks", "galois-adjunction"]

    def verdict(self, hom_calls):
        report = self.load_report()
        problems = self.common_problems(report, ["galois-adjunction"])
        maps, skipped, sizes = self.corpus.expected_maps(self.budget)
        counts = report["counts"]
        if counts["maps"] != maps:
            problems.append(f"{counts['maps']} maps, expected {maps} monotone maps")
        if counts["map_pairs_skipped"] != skipped:
            problems.append(f"{counts['map_pairs_skipped']} pairs skipped, expected {skipped}")
        problems += [f"|D(P{i})| = {fr.n}, expected {s}"
                     for i, (fr, s) in enumerate(zip(self.corpus.frames, sizes)) if fr.n != s]
        problems += self.corpus.check_hom_calls(hom_calls)
        return problems, {"report_sha256": _sha256(self.report_path)}, self.report_counts(report)


class FramesWide(_Workload):
    """`sublocales` and `points` over every corpus-5 frame, in a seeded order."""

    name = "frames-wide"
    max_poset = 5

    def setup(self):
        super().setup()
        order = list(range(len(self.corpus.frames)))
        random.Random(self.seed).shuffle(order)
        self.order = order

    def run(self):
        from localelab.points import is_spatial, points_of, spatialization
        from localelab.sublocales import enumerate_sublocales

        self.results = {}
        for i in self.order:
            fr = self.corpus.frames[i]
            row = {}
            if fr.n <= SL_BOUND:
                sl = enumerate_sublocales(fr, limit=SL_BOUND)
                row["sl"] = sl.n
                row["open"] = sum(1 for k in range(sl.n) if sl.is_open(k))
                row["closed"] = sum(1 for k in range(sl.n) if sl.is_closed(k))
                row["complemented"] = sum(1 for k in range(sl.n) if sl.complement(k) is not None)
            if fr.n <= POINT_BOUND:
                row["points"] = len(points_of(fr))
                row["spatial"] = is_spatial(fr).ok
                row["embeds"] = len(set(spatialization(fr).table)) == fr.n
            self.results[i] = row

    def verdict(self, hom_calls):
        problems = _poset_count_problems(self.corpus, self.max_poset)
        for i, row in sorted(self.results.items()):
            p, n = self.corpus.posets[i].n, self.corpus.frames[i].n
            want = {}
            if "sl" in row:
                want.update(sl=1 << p, open=n, closed=n, complemented=1 << p)
            if "points" in row:
                want.update(points=p, spatial=True, embeds=True)
            problems += [f"frame {i}: {k} = {row[k]}, expected {v}"
                         for k, v in want.items() if row[k] != v]
        rows = self.results.values()
        details = {"frames": len(self.results),
                   "sl_built": sum(1 for r in rows if "sl" in r),
                   "points_built": sum(1 for r in rows if "points" in r)}
        return problems, details, {}


WORKLOADS = {cls.name: cls for cls in (VerifyDefault, MapsSweep, FramesWide)}
