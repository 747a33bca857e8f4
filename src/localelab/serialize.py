"""JSON formats for posets, frames, spaces, maps, and operators.

Structures are self-contained; map and operator files reference the files
holding their frames, resolved relative to the referencing file. Emitted
artifacts re-parse to equal values.
"""
from __future__ import annotations

import json
import os

from .hops import HOperator
from .interior import InteriorOperator
from .lattice import FiniteSpace, Frame, Poset, bits, build_frame, frame_of_space
from .maps import ContinuousMap, LocalicMap, localic_map
from .sublocales import SublocaleLattice, enumerate_sublocales


def poset_to_json(poset: Poset) -> dict:
    covers = [[poset.labels[a], poset.labels[b]] for a, b in poset.covers()]
    return {"elements": list(poset.labels), "le": covers}


def poset_from_json(data: dict) -> Poset:
    return Poset.from_pairs(data["elements"], data["le"])


def frame_to_json(frame: Frame) -> dict:
    return poset_to_json(frame.poset)


def frame_from_json(data: dict) -> Frame:
    return build_frame(data["elements"], data["le"])


def space_to_json(space: FiniteSpace) -> dict:
    return {
        "points": list(space.points),
        "opens": [[space.points[i] for i in bits(m)] for m in space.opens],
    }


def space_from_json(data: dict) -> FiniteSpace:
    return FiniteSpace.from_sets(data["points"], data["opens"])


def localic_map_to_json(f: LocalicMap, from_ref: str, to_ref: str) -> dict:
    table = {f.source.labels[i]: f.target.labels[v] for i, v in enumerate(f.table)}
    return {"from": from_ref, "to": to_ref, "map": table}


def localic_map_from_json(data: dict, source: Frame, target: Frame) -> LocalicMap:
    table = [0] * source.n
    seen = set()
    for a, v in data["map"].items():
        if a not in source.index:
            raise ValueError(f"unknown source element {a!r}")
        if v not in target.index:
            raise ValueError(f"unknown target element {v!r}")
        table[source.index[a]] = target.index[v]
        seen.add(source.index[a])
    if len(seen) != source.n:
        raise ValueError("map table does not cover every source element")
    return localic_map(source, target, tuple(table))


def point_map_to_json(c: ContinuousMap, from_ref: str, to_ref: str) -> dict:
    table = {
        c.source.points[i]: c.target.points[v] for i, v in enumerate(c.point_table)
    }
    return {"from": from_ref, "to": to_ref, "map": table}


def point_map_from_json(data: dict, source: FiniteSpace, target: FiniteSpace) -> ContinuousMap:
    table = [0] * source.n_points
    seen = set()
    for p, q in data["map"].items():
        if p not in source.point_index:
            raise ValueError(f"unknown source point {p!r}")
        if q not in target.point_index:
            raise ValueError(f"unknown target point {q!r}")
        table[source.point_index[p]] = target.point_index[q]
        seen.add(source.point_index[p])
    if len(seen) != source.n_points:
        raise ValueError("map table does not cover every source point")
    return ContinuousMap(source, target, tuple(table))


# -- sublocale keys ----------------------------------------------------------
# A sublocale is keyed by its member labels in element order, comma-joined.
# Labels that themselves contain commas (downset frames) switch the key to a
# JSON array string; the reader accepts both.


def sub_key(frame: Frame, mask: int) -> str:
    labels = [frame.labels[i] for i in bits(mask)]
    if any("," in lab for lab in labels):
        return json.dumps(labels)
    return ",".join(labels)


def sub_mask(frame: Frame, key: str) -> int:
    labels = json.loads(key) if key.startswith("[") else key.split(",")
    mask = 0
    for lab in labels:
        if lab not in frame.index:
            raise ValueError(f"unknown element {lab!r} in sublocale key {key!r}")
        mask |= 1 << frame.index[lab]
    return mask


def operator_to_json(op, frame_ref: str) -> dict:
    sl = op.lattice
    host = sl.host
    table = {
        sub_key(host, sl.masks[i]): sub_key(host, sl.masks[op(i)]) for i in range(sl.n)
    }
    out = {"frame": frame_ref, "table": table}
    if isinstance(op, HOperator):
        out["fragment"] = True
    return out


def operator_from_json(data: dict, frame: Frame, limit=None):
    sl = enumerate_sublocales(frame, limit=limit)
    index = {m: i for i, m in enumerate(sl.masks)}

    def to_index(key):
        mask = sub_mask(frame, key)
        if mask not in index:
            raise ValueError(f"key {key!r} is not a sublocale of the frame")
        return index[mask]

    table = [0] * sl.n
    seen = set()
    for k, v in data["table"].items():
        i = to_index(k)
        table[i] = to_index(v)
        seen.add(i)
    if len(seen) != sl.n:
        raise ValueError("operator table does not cover every sublocale")
    return (HOperator if data.get("fragment") else InteriorOperator)(sl, tuple(table))


def sublocales_to_json(sl: SublocaleLattice) -> dict:
    host = sl.host
    rows = []
    for i in range(sl.n):
        rows.append(
            {
                "members": [host.labels[e] for e in bits(sl.masks[i])],
                "open": sl.is_open(i),
                "closed": sl.is_closed(i),
                "complemented": sl.complement(i) is not None,
            }
        )
    return {"count": sl.n, "sublocales": rows}


# -- files -------------------------------------------------------------------


def save_json(path: str, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _resolve(base_file: str, ref: str) -> str:
    if os.path.isabs(ref):
        return ref
    return os.path.join(os.path.dirname(os.path.abspath(base_file)), ref)


def load_poset(path: str) -> Poset:
    return poset_from_json(_load(path))


def load_frame(path: str) -> Frame:
    return frame_from_json(_load(path))


def load_space(path: str) -> FiniteSpace:
    return space_from_json(_load(path))


def load_structure(path: str):
    """Space when the file has a "points" key, frame otherwise."""
    data = _load(path)
    if "points" in data:
        return space_from_json(data)
    return frame_from_json(data)


def load_localic_map(path: str) -> LocalicMap:
    data = _load(path)
    source = load_frame(_resolve(path, data["from"]))
    target = load_frame(_resolve(path, data["to"]))
    return localic_map_from_json(data, source, target)


def load_point_map(path: str) -> ContinuousMap:
    data = _load(path)
    source = load_space(_resolve(path, data["from"]))
    target = load_space(_resolve(path, data["to"]))
    return point_map_from_json(data, source, target)


def load_operator(path: str, limit=None):
    data = _load(path)
    frame = load_frame(_resolve(path, data["frame"]))
    return operator_from_json(data, frame, limit=limit)
