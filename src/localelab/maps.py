"""Frame homomorphisms, localic maps (their right Galois adjoints), and
continuous point maps with their open-preimage homs."""
from __future__ import annotations

import operator
from dataclasses import asdict, dataclass
from functools import cached_property

from .errors import DomainMismatch, NotContinuous, NotLocalic
from .lattice import FiniteSpace, Frame, bits, frame_of_space


@dataclass(frozen=True)
class HomReport:
    ok: bool
    law: str | None = None
    witness: tuple | None = None

    to_json = asdict


def _is_total(t: tuple, n: int, m: int) -> bool:
    """Whether t has n entries, each an integer in range(m): an entry with
    no __index__, such as 2.5 or 1.0, is refused as operator.index refuses it."""
    try:
        return len(t) == n and (not t or min(map(operator.index, t)) >= 0 and max(t) < m)
    except TypeError:
        return False


def check_frame_hom(source: Frame, target: Frame, table) -> HomReport:
    """Does table: source -> target preserve top, bottom, binary meets, binary joins?

    Reports the first violated law with an element-label witness: totality,
    top, bottom, then the index pairs a <= b in lexicographic order, the meet
    law before the join law at each pair.
    """
    t = tuple(table)
    if not _is_total(t, source.n, target.n):
        return HomReport(False, "totality", (len(t),))
    if t[source.top] != target.top:
        return HomReport(False, "top", (source.labels[source.top],))
    if t[source.bottom] != target.bottom:
        return HomReport(False, "bottom", (source.labels[source.bottom],))
    n, tmeet, tjoin = len(t), target.meet_table, target.join_table
    for a, (smeet, sjoin, ta) in enumerate(zip(source.meet_table, source.join_table, t)):
        tmeet_a, tjoin_a = tmeet[ta], tjoin[ta]
        for b in range(a, n):
            tb = t[b]
            if t[smeet[b]] != tmeet_a[tb]:
                return HomReport(False, "meet", (source.labels[a], source.labels[b]))
            if t[sjoin[b]] != tjoin_a[tb]:
                return HomReport(False, "join", (source.labels[a], source.labels[b]))
    return HomReport(True)


@dataclass(frozen=True)
class FrameHom:
    """A validated frame homomorphism source -> target."""

    source: Frame
    target: Frame
    table: tuple

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(self.table))
        rep = check_frame_hom(self.source, self.target, self.table)
        if not rep.ok:
            raise ValueError(f"not a frame homomorphism: {rep.law} law fails at {rep.witness}")

    def __call__(self, a: int) -> int:
        return self.table[a]

    def describe(self) -> dict:
        return {self.source.labels[i]: self.target.labels[v] for i, v in enumerate(self.table)}


@dataclass(frozen=True)
class LocalicMap:
    """A localic map source -> target, held as its point map.

    A localic map (the right adjoint of a frame hom target -> source) sends
    primes, the points of a finite frame, to primes, and every element is
    the meet of the primes above it. So the map is `points`, the image of
    each source prime in `source.prime_list` order, and every monotone map
    of primes to primes extends to the localic map f(x) = ^{f(p) : x <= p}.
    Construction checks exactly that, with the first failing point or pair
    of points as witness; the element table and left adjoint are derived.
    """

    source: Frame
    target: Frame
    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        src, tgt, pts = self.source, self.target, self.points
        if len(pts) != len(src.prime_list):
            raise NotLocalic(f"{len(pts)} values for {len(src.prime_list)} points",
                             witness=("point-count", len(pts)))
        for p, v in zip(src.prime_list, pts):
            try:
                point = 0 <= v < tgt.n and tgt.primes >> v & 1
            except TypeError:  # v has no __index__, such as 1.0 or "0"
                point = False
            if not point:
                raise NotLocalic(
                    f"sends the point {src.labels[p]} to {v}, not a point of the target",
                    witness=("point-not-prime", src.labels[p], v),
                )
        # only comparable pairs p < q can break the order: the first such
        # pair (by positions of p, then of q) whose values are not in order
        up = tgt.up
        for i, (above, v) in enumerate(zip(src.primes_above, pts)):
            row = up[v]
            for j in above:
                if not row >> pts[j] & 1:
                    lp, lq = src.labels[src.prime_list[i]], src.labels[src.prime_list[j]]
                    raise NotLocalic(f"does not keep the order of the points ({lp}, {lq})",
                                     witness=("point-order", lp, lq))
        object.__setattr__(self, "_hash", hash((src, tgt, pts)))  # maps key lru caches

    def __hash__(self):
        return self._hash

    @cached_property
    def table(self) -> tuple:
        """f(x) = ^{f(p) : x <= p prime}, for every element x of the source."""
        meet, top = self.target.meet_table, self.target.top
        pairs = tuple(zip(self.source.prime_list, self.points))
        out = []
        for up in self.source.up:
            y = top
            for p, v in pairs:
                if up >> p & 1:
                    y = meet[y][v]
            out.append(y)
        return tuple(out)

    @property
    def adjoint(self) -> FrameHom:
        """The left adjoint, a frame hom target -> source, validated."""
        return FrameHom(self.target, self.source, _adjoint_table(self))

    def __call__(self, x: int) -> int:
        return self.table[x]

    def describe(self) -> dict:
        return {self.source.labels[i]: self.target.labels[v] for i, v in enumerate(self.table)}


def _adjoint_table(f: LocalicMap) -> tuple:
    """The table of f's left adjoint h(m) = ^{p : m <= f(p)}, unvalidated;
    those primes p are up-closed, so h(m) is one `by_primes` lookup."""
    pairs = tuple(zip([1 << p for p in f.source.prime_list], f.points))
    by_primes, out = f.source.by_primes, []
    for up in f.target.up:
        key = 0
        for bit, v in pairs:
            if up >> v & 1:
                key |= bit
        out.append(by_primes[key])
    return tuple(out)


def right_adjoint(source: Frame, target: Frame, table) -> LocalicMap:
    """The localic map f: target -> source right adjoint to the frame hom
    table: source -> target, f(x) = v{m : h(m) <= x}. The table is checked
    as `FrameHom` checks it, with the same ValueError."""
    h = FrameHom(source, target, table)
    return LocalicMap(target, source, _adjoint_points(source, target, h.table))


def _adjoint_points(source: Frame, target: Frame, table) -> tuple:
    """The point map of `right_adjoint`, unvalidated. The set {m : h(m) <= x}
    is a down-set closed under joins, so f(x) is the element whose
    join-irreducibles are those q with h(q) <= x: one dict lookup per point x."""
    qs = [(1 << q, table[q]) for q in source.irreducible_list]
    points = []
    for p in target.prime_list:
        dp, m = target.dn[p], 0
        for bit, hq in qs:
            if dp >> hq & 1:
                m |= bit
        points.append(source.by_irreducibles[m])
    return tuple(points)


def localic_map(source: Frame, target: Frame, table) -> LocalicMap:
    """The localic map whose element table is table: its values at the primes
    make the point map, and that map must extend to the table itself. This is
    exact: a localic map sends primes to primes and keeps meets, and every
    element is the meet of the primes above it. NotLocalic witnesses come in
    order ("totality",), the point map's, ("point-table", x, f(x)) at the
    first element x the table gets wrong."""
    table = tuple(table)
    if not _is_total(table, source.n, target.n):
        raise NotLocalic("table is not a total map into the target", witness=("totality",))
    f = LocalicMap(source, target, tuple([table[p] for p in source.prime_list]))
    if f.table != table:
        x = next(x for x, (a, b) in enumerate(zip(f.table, table)) if a != b)
        lx, ly = source.labels[x], target.labels[f.table[x]]
        raise NotLocalic(f"does not send {lx} to {ly}, the meet of its values at the points above",
                         witness=("point-table", lx, ly))
    return f


def identity_localic(frame: Frame) -> LocalicMap:
    return LocalicMap(frame, frame, frame.prime_list)


def compose_localic(g: LocalicMap, f: LocalicMap) -> LocalicMap:
    """g after f, point by point: needs target(f) = source(g)."""
    if f.target != g.source:
        raise DomainMismatch(
            f"cannot compose: middle frames differ ({f.target.key()} vs {g.source.key()})",
            witness=(f.target.key(), g.source.key()),
        )
    value = dict(zip(g.source.prime_list, g.points))
    return LocalicMap(f.source, g.target, tuple(value[v] for v in f.points))


def localic_maps(source: Frame, target: Frame) -> list:
    """Every localic map source -> target, in lexicographic order of `points`.

    A localic map of finite frames is a monotone map of their primes, so the
    maps are built by backtracking over `source.prime_list`: the value at a
    prime is a target prime above the values of the earlier primes below it
    and below those of the earlier primes above it. A frame with no primes
    has one map, the empty one. Each map is validated by `LocalicMap`.
    """
    ps, up, dn = source.prime_list, target.up, target.dn
    # per depth k, (i, rows) for each earlier prime comparable to ps[k]: pts[k] is in rows[pts[i]]
    cons = [[(i, up if source.le(q, p) else dn) for i, q in enumerate(ps[:k])
             if source.le(q, p) or source.le(p, q)] for k, p in enumerate(ps)]
    pts, out = [0] * len(ps), []

    def extend(k):
        if k == len(ps):
            out.append(LocalicMap(source, target, pts))
            return
        allowed = target.primes
        for i, rows in cons[k]:
            allowed &= rows[pts[i]]
        for v in bits(allowed):
            pts[k] = v
            extend(k + 1)

    extend(0)
    return out


def enumerate_frame_homs(source: Frame, target: Frame) -> list:
    """All frame homs source -> target as tables, in lexicographic order: the
    left adjoints of the localic maps target -> source (Birkhoff duality),
    read off valid maps and so not checked again."""
    return sorted(_adjoint_table(f) for f in localic_maps(target, source))


@dataclass(frozen=True)
class ContinuousMap:
    """A continuous point map between finite spaces."""

    source: FiniteSpace
    target: FiniteSpace
    point_table: tuple

    def __post_init__(self):
        object.__setattr__(self, "point_table", tuple(self.point_table))
        if not _is_total(self.point_table, self.source.n_points, self.target.n_points):
            raise ValueError("point table is not a total map into the target")
        opens = set(self.source.opens)
        for v in self.target.opens:
            if self.preimage_mask(v) not in opens:
                raise NotContinuous(
                    f"preimage of {self.target.open_label(v)} is not open",
                    witness=(self.target.open_label(v),),
                )

    def preimage_mask(self, open_mask: int) -> int:
        m = 0
        for p, q in enumerate(self.point_table):
            if open_mask >> q & 1:
                m |= 1 << p
        return m

    def __call__(self, p: int) -> int:
        return self.point_table[p]


def omega_of_map(c: ContinuousMap) -> FrameHom:
    """The open-preimage frame hom Omega(target) -> Omega(source)."""
    oy = frame_of_space(c.target)
    ox = frame_of_space(c.source)
    ox_index = {m: i for i, m in enumerate(c.source.opens)}
    table = tuple(ox_index[c.preimage_mask(v)] for v in c.target.opens)
    return FrameHom(oy, ox, table)
