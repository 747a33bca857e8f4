"""DOT export of Hasse diagrams.

Edges are cover pairs only, drawn upward, with the minimal elements pinned to
the bottom rank. Sublocale diagrams color-tag open, closed, clopen, and other
complemented members.
"""
from __future__ import annotations

from .errors import SizeLimit
from .lattice import Frame, Poset
from .sublocales import SublocaleLattice

DOT_NODE_LIMIT = 64


def _q(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _hasse_lines(labels, covers, heights, node_attrs=None):
    lines = ["digraph hasse {", "  rankdir=BT;", '  node [shape=box, style=rounded];']
    for i, lab in enumerate(labels):
        attrs = node_attrs(i) if node_attrs else ""
        lines.append(f"  {_q(lab)}{attrs};")
    for a, b in covers:
        lines.append(f"  {_q(labels[a])} -> {_q(labels[b])};")
    by_height = {}
    for i, h in enumerate(heights):
        by_height.setdefault(h, []).append(i)
    for h in sorted(by_height):
        rank = "min" if h == 0 else "same"
        row = " ".join(_q(labels[i]) + ";" for i in by_height[h])
        lines.append(f"  {{ rank={rank}; {row} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def hasse_dot(structure) -> str:
    """DOT source for the Hasse diagram of a poset or frame."""
    poset = structure.poset if isinstance(structure, Frame) else structure
    if not isinstance(poset, Poset):
        raise TypeError("expected a Poset or Frame")
    return _hasse_lines(poset.labels, poset.covers(), poset.heights())


def sublocales_dot(sl: SublocaleLattice) -> str:
    """DOT source for S_l(L), nodes filled by open/closed/complemented status."""
    if sl.n > DOT_NODE_LIMIT:
        raise SizeLimit(
            f"{sl.n} sublocales exceed the DOT export bound {DOT_NODE_LIMIT}",
            witness=(sl.n, DOT_NODE_LIMIT),
        )

    def attrs(i):
        is_o, is_c = sl.is_open(i), sl.is_closed(i)
        if is_o and is_c:
            color = "plum"
        elif is_o:
            color = "palegreen"
        elif is_c:
            color = "lightblue"
        else:
            color = "khaki"
        return f' [style=filled, fillcolor={color}]'

    # S_l(L) is the powerset of the points: a cover adds one point, and the
    # height of a sublocale is its number of points
    covers = sorted((i, j) for j, lower in enumerate(sl.lower_covers) for i in lower)
    heights = [i.bit_count() for i in range(sl.n)]
    return _hasse_lines(sl.labels, covers, heights, attrs)
