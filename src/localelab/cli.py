"""Command-line front end.

Exit codes are scriptable: 0 pass, 1 law violation (with the first witness),
2 I/O, parse or config trouble, 3 enumeration bound exceeded. The enumeration
bound itself comes from LOCALELAB_SIZE_LIMIT when set; a value that is not an
integer is config trouble.
"""
from __future__ import annotations

import argparse
import json
import sys

from .errors import BadConfig, LocaleLabError, SizeLimit, UnknownWitness
from .hops import HOperator, check_h, initial_h
from .interior import check_interior, initial_interior
from .points import points_of, pt_space, spatialization
from .serialize import (
    _load,
    load_frame,
    load_localic_map,
    operator_from_json,
    poset_from_json,
    save_json,
    space_to_json,
    sublocales_to_json,
)
from .sublocales import enumerate_sublocales
from .dot import sublocales_dot
from .verify import CorpusConfig, replay, run_verification


def _emit(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def cmd_check(args) -> int:
    data = _load(args.file)
    if "map" in data:
        f = load_localic_map(args.file)
        print(f"localic map {f.source.key()} -> {f.target.key()}: all laws hold")
        return 0
    if "points" in data:
        from .serialize import space_from_json

        sp = space_from_json(data)
        print(f"space {sp.key()} ({len(sp.points)} points, "
              f"{len(sp.opens)} opens): all laws hold")
        return 0
    if data.get("kind") == "poset":
        p = poset_from_json(data)
        print(f"poset {p.key()} ({p.n} elements): all laws hold")
        return 0
    from .serialize import frame_from_json

    fr = frame_from_json(data)
    print(f"frame {fr.key()} ({fr.n} elements): all laws hold")
    return 0


def cmd_sublocales(args) -> int:
    fr = load_frame(args.file)
    sl = enumerate_sublocales(fr)
    print(f"S_l of {fr.key()}: {sl.n} sublocales")
    for i in range(sl.n):
        tags = []
        if sl.is_open(i):
            tags.append("open")
        if sl.is_closed(i):
            tags.append("closed")
        if sl.complement(i) is not None:
            tags.append("complemented")
        print(f"  {sl.label(i):24s} {' '.join(tags)}")
    if args.json:
        save_json(args.json, sublocales_to_json(sl))
        print(f"wrote {args.json}")
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(sublocales_dot(sl))
        print(f"wrote {args.dot}")
    return 0


def cmd_points(args) -> int:
    fr = load_frame(args.file)
    pts = points_of(fr)
    print(f"pt of {fr.key()}: {len(pts)} points")
    for i, p in enumerate(pts):
        print(f"  p{i}: {p.describe()}")
    phi = spatialization(fr)
    spatial = len(set(phi.table)) == fr.n
    print(f"spatial: {'yes' if spatial else 'no'}")
    _emit(space_to_json(pt_space(fr)))
    return 0


def _load_operator_on(frame, op_file):
    # the operator file's own frame reference is ignored in favor of the
    # frame the caller already loaded, so indices are guaranteed to agree
    return operator_from_json(_load(op_file), frame)


def cmd_op_check(args) -> int:
    fr = load_frame(args.frame)
    op = _load_operator_on(fr, args.opfile)
    rep = check_h(op) if isinstance(op, HOperator) else check_interior(op)
    _emit(rep.to_json())
    return 0 if rep.ok else 1


def cmd_initial(args) -> int:
    f = load_localic_map(args.mapfile)
    fr = load_frame(args.frame)
    if fr != f.target:
        print(f"frame {fr.key()} is not the map's target {f.target.key()}")
        return 1
    op = _load_operator_on(f.target, args.opfile)
    if isinstance(op, HOperator):
        cand, rep = initial_h(f, op)
    else:
        cand, rep = initial_interior(f, op)
    _emit({"candidate": cand.describe(), "report": rep.to_json()})
    return 0 if not rep.unexplained else 1


def cmd_verify(args) -> int:
    try:
        config = CorpusConfig(
            max_poset_size=args.max_poset,
            operator_samples_per_frame=args.samples,
            map_budget=args.budget,
            seed=args.seed,
            checks=tuple(c for c in (args.checks or "").split(",") if c),
        )
    except ValueError as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return 2
    report = run_verification(config)
    for row in report["checks"]:
        print(f"{row['status']:4s}  {row['id']}")
    confirmed = sum(1 for e in report["registry"] if e["status"] == "confirmed")
    print(f"registry: {confirmed}/{len(report['registry'])} anomalies confirmed")
    print(f"unexplained: {len(report['unexplained'])}")
    if args.report:
        save_json(args.report, report)
        print(f"wrote {args.report}")
    failed = any(r["status"] == "fail" for r in report["checks"])
    return 1 if (failed or report["unexplained"]) else 0


def cmd_replay(args) -> int:
    report = _load(args.report)
    print(replay(report, args.id))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="localelab",
        description="finite-frame workbench: validate files, enumerate "
        "sublocales and points, check operators, run the verification harness",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="validate a poset/frame/space/map file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("sublocales", help="enumerate S_l of a frame file")
    p.add_argument("file")
    p.add_argument("--dot", help="write a Hasse diagram in DOT format")
    p.add_argument("--json", help="write the listing as JSON")
    p.set_defaults(fn=cmd_sublocales)

    p = sub.add_parser("points", help="points and pt-space of a frame file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_points)

    p = sub.add_parser("op-check", help="validate an operator table on a frame")
    p.add_argument("frame")
    p.add_argument("opfile")
    p.set_defaults(fn=cmd_op_check)

    p = sub.add_parser("initial", help="induced operator of a map, with report")
    p.add_argument("frame", help="the map's target frame file")
    p.add_argument("mapfile")
    p.add_argument("opfile")
    p.set_defaults(fn=cmd_initial)

    p = sub.add_parser("verify", help="run the seeded proposition harness")
    p.add_argument("--max-poset", type=int, default=4)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--checks", help="comma-separated check ids (default: all)")
    p.add_argument("--report", help="write the full report JSON here")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("replay", help="re-execute a recorded failure as a trace")
    p.add_argument("report")
    p.add_argument("id")
    p.set_defaults(fn=cmd_replay)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SizeLimit as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return 3
    except BadConfig as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return 2
    except UnknownWitness as exc:
        print(f"unknown witness: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (OSError, KeyError) as exc:
        print(f"cannot read input: {exc!r}", file=sys.stderr)
        return 2
    except LocaleLabError as exc:
        print(f"{type(exc).__name__}: {exc} witness={exc.witness}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid content: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
