"""JSON formats for posets, frames, spaces, maps, and operators.

Structures are self-contained; map and operator files reference the files
holding their frames, resolved relative to the referencing file. Emitted
artifacts re-parse to equal values.
"""
from __future__ import annotations

import json
import os

from .errors import BadInput
from .hops import HOperator
from .interior import InteriorOperator
from .lattice import FiniteSpace, Frame, Poset, bits, build_frame, frame_of_space
from .maps import ContinuousMap, LocalicMap, localic_map
from .sublocales import SublocaleLattice, as_mask, enumerate_sublocales


_JSON_TYPES = {list: "array", dict: "object", str: "string"}


def _field(data: dict, key: str, kind: type, member: type = object):
    """data[key] (KeyError when it is missing), refused with BadInput unless
    it is a kind whose members (an object's values) are each a member."""
    value = data[key]
    members = value.values() if isinstance(value, dict) else value
    if not isinstance(value, kind) or not all(isinstance(x, member) for x in members):
        of = "" if member is object else f" of {_JSON_TYPES[member]}s"
        raise BadInput(f"{key!r} must be a JSON {_JSON_TYPES[kind]}{of}", witness=(key,))
    return value


def _order(data: dict) -> tuple:
    """The labels and generating <=-pairs of a poset or frame file."""
    le = _field(data, "le", list, list)
    if any(len(pair) != 2 for pair in le):
        raise BadInput("'le' must be a JSON array of pairs", witness=("le",))
    return _field(data, "elements", list), le


def poset_to_json(poset: Poset) -> dict:
    covers = [[poset.labels[a], poset.labels[b]] for a, b in poset.covers()]
    return {"elements": list(poset.labels), "le": covers}


def poset_from_json(data: dict) -> Poset:
    return Poset.from_pairs(*_order(data))


def frame_to_json(frame: Frame) -> dict:
    return poset_to_json(frame.poset)


def frame_from_json(data: dict) -> Frame:
    return build_frame(*_order(data))


def space_to_json(space: FiniteSpace) -> dict:
    return {
        "points": list(space.points),
        "opens": [[space.points[i] for i in bits(m)] for m in space.opens],
    }


def space_from_json(data: dict) -> FiniteSpace:
    return FiniteSpace.from_sets(_field(data, "points", list), _field(data, "opens", list, list))


def localic_map_to_json(f: LocalicMap, from_ref: str, to_ref: str) -> dict:
    table = {f.source.labels[i]: f.target.labels[v] for i, v in enumerate(f.table)}
    return {"from": from_ref, "to": to_ref, "map": table}


def _label_table(labels: dict, source_index: dict, target_index: dict, what: str) -> tuple:
    """The index table of a {source label: target label} map, which must name
    only known labels and cover every source label; `what` names the labels
    ("element", "point") in the errors."""
    table = [None] * len(source_index)
    for a, v in labels.items():
        if a not in source_index:
            raise ValueError(f"unknown source {what} {a!r}")
        if v not in target_index:
            raise ValueError(f"unknown target {what} {v!r}")
        table[source_index[a]] = target_index[v]
    if None in table:
        raise ValueError(f"map table does not cover every source {what}")
    return tuple(table)


def localic_map_from_json(data: dict, source: Frame, target: Frame) -> LocalicMap:
    table = _label_table(_field(data, "map", dict, str), source.index, target.index, "element")
    return localic_map(source, target, table)


def point_map_to_json(c: ContinuousMap, from_ref: str, to_ref: str) -> dict:
    table = {
        c.source.points[i]: c.target.points[v] for i, v in enumerate(c.point_table)
    }
    return {"from": from_ref, "to": to_ref, "map": table}


def point_map_from_json(data: dict, source: FiniteSpace, target: FiniteSpace) -> ContinuousMap:
    table = _label_table(_field(data, "map", dict, str), source.point_index,
                         target.point_index, "point")
    return ContinuousMap(source, target, table)


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
    if not all(isinstance(lab, str) for lab in labels):
        raise ValueError(f"sublocale key {key!r} lists a member that is not a label")
    return as_mask(frame, labels)


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


def operator_from_json(data: dict, frame: Frame):
    sl = enumerate_sublocales(frame)

    def to_index(key):
        mask = sub_mask(frame, key)
        if mask not in sl.index:
            raise ValueError(f"key {key!r} is not a sublocale of the frame")
        return sl.index[mask]

    table = [0] * sl.n
    seen = set()
    for k, v in _field(data, "table", dict, str).items():
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
                "complemented": True,
            }
        )
    return {"count": sl.n, "sublocales": rows}


# -- files -------------------------------------------------------------------


def save_json(path: str, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load(path: str) -> dict:
    """The JSON object in the file at path; BadInput when it holds another value."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise BadInput(f"{path} must hold a JSON object")
    return data


def _resolve(base_file: str, ref: str) -> str:
    if os.path.isabs(ref):
        return ref
    return os.path.join(os.path.dirname(os.path.abspath(base_file)), ref)


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
    source = load_frame(_resolve(path, _field(data, "from", str)))
    target = load_frame(_resolve(path, _field(data, "to", str)))
    return localic_map_from_json(data, source, target)


def load_point_map(path: str) -> ContinuousMap:
    data = _load(path)
    source = load_space(_resolve(path, _field(data, "from", str)))
    target = load_space(_resolve(path, _field(data, "to", str)))
    return point_map_from_json(data, source, target)


def load_operator(path: str):
    data = _load(path)
    frame = load_frame(_resolve(path, _field(data, "frame", str)))
    return operator_from_json(data, frame)
