"""h operators on the complemented-sublocale fragment of S_l(L).

An h operator need not be contractive: h2 only constrains the intersections
S with h(S), and h1 (S cap h(S) inside S) is a set-theoretic tautology kept
as a standing vacuity certificate. Images and preimages of complemented
sublocales can leave the fragment, so every transfer step re-checks
membership and records an escape instead of erroring.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import EmptyFamily, HostMismatch
from .interior import AxiomReport, InteriorOperator, monotone_closure
from .maps import LocalicMap, compose_localic
from .sublocales import SublocaleLattice, transfer_of


@dataclass(frozen=True)
class ComplementedFragment:
    """Complemented sublocales of one host, in canonical lattice order."""

    lattice: SublocaleLattice
    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(
            self, "_position", {m: p for p, m in enumerate(self.members)}
        )
        n = len(self.members)
        below = tuple(tuple(q for q in range(n) if self.le(q, p)) for p in range(n))
        # below[p] is where contractive seeds are drawn; q is a lower cover
        # of p when no member lies strictly between them
        object.__setattr__(self, "below", below)
        object.__setattr__(self, "lower_covers", tuple(
            tuple(q for q in down if q != p
                  and not any(r != q and r != p and self.le(q, r) for r in down))
            for p, down in enumerate(below)
        ))

    @property
    def n(self) -> int:
        return len(self.members)

    def position(self, lattice_index):
        """Fragment position of a sublocale index, or None when outside."""
        return self._position.get(lattice_index)

    def member(self, pos: int) -> int:
        return self.members[pos]

    def label(self, pos: int) -> str:
        return self.lattice.label(self.members[pos])

    @property
    def bottom(self) -> int:
        return self._position[self.lattice.bottom]

    @property
    def top(self) -> int:
        return self._position[self.lattice.top]

    def le(self, a: int, b: int) -> bool:
        return self.lattice.le(self.members[a], self.members[b])

    def meet(self, a: int, b: int) -> int:
        p = self.position(self.lattice.meet(self.members[a], self.members[b]))
        # complemented elements of a distributive lattice form a sublattice
        assert p is not None
        return p

    def join(self, a: int, b: int) -> int:
        p = self.position(self.lattice.join(self.members[a], self.members[b]))
        assert p is not None
        return p


@lru_cache(maxsize=None)
def complemented_fragment(sl: SublocaleLattice) -> ComplementedFragment:
    members = tuple(i for i in range(sl.n) if sl.complement(i) is not None)
    frag = ComplementedFragment(sl, members)
    assert frag.position(sl.bottom) is not None
    assert frag.position(sl.top) is not None
    return frag


@dataclass(frozen=True)
class HOperator:
    """Table over fragment positions; check_h is the validator."""

    fragment: ComplementedFragment
    table: tuple

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(self.table))
        if len(self.table) != self.fragment.n or any(
            not 0 <= v < self.fragment.n for v in self.table
        ):
            raise ValueError("table is not total over the fragment")

    def __call__(self, pos: int) -> int:
        return self.table[pos]

    def describe(self) -> dict:
        fr = self.fragment
        return {fr.label(p): fr.label(v) for p, v in enumerate(self.table)}


def check_h(op: HOperator) -> AxiomReport:
    """Evaluate h1 (vacuous, still run), h2, h3 exhaustively."""
    fr = op.fragment
    sl = fr.lattice
    passed = {"h1": True, "h2": True, "h3": True}
    witnesses = {}
    for p in range(fr.n):
        s, hs = fr.member(p), fr.member(op(p))
        if not sl.le(sl.meet(s, hs), s):
            passed["h1"] = False
            witnesses["h1"] = (fr.label(p), fr.label(op(p)))
            break
    core = [sl.meet(fr.member(p), fr.member(op(p))) for p in range(fr.n)]
    # as for I2: cover pairs decide, the all-pairs scan finds the witness
    if not all(sl.le(core[q], core[p]) for p in range(fr.n) for q in fr.lower_covers[p]):
        for p in range(fr.n):
            if not passed["h2"]:
                break
            for q in range(fr.n):
                if fr.le(p, q) and not sl.le(core[p], core[q]):
                    passed["h2"] = False
                    witnesses["h2"] = (fr.label(p), fr.label(q))
                    break
    if op(fr.top) != fr.top:
        passed["h3"] = False
        witnesses["h3"] = (fr.label(op(fr.top)),)
    return AxiomReport(passed, witnesses, vacuous=("h1",))


def discrete_h(frag: ComplementedFragment) -> HOperator:
    return HOperator(frag, tuple(range(frag.n)))


def trivial_h(frag: ComplementedFragment) -> HOperator:
    table = [frag.bottom] * frag.n
    table[frag.top] = frag.top
    return HOperator(frag, tuple(table))


def _same_fragment(ops):
    first = ops[0].fragment
    for op in ops[1:]:
        if op.fragment.lattice is not first.lattice or op.fragment.members != first.members:
            raise HostMismatch(
                "operators live on different fragments",
                witness=(first.lattice.host.key(), op.fragment.lattice.host.key()),
            )
    return first


def h_join(family) -> HOperator:
    ops = list(family)
    if not ops:
        raise EmptyFamily("join of an empty operator family")
    fr = _same_fragment(ops)
    table = []
    for p in range(fr.n):
        acc = ops[0](p)
        for op in ops[1:]:
            acc = fr.join(acc, op(p))
        table.append(acc)
    return HOperator(fr, tuple(table))


def h_meet(family) -> HOperator:
    ops = list(family)
    if not ops:
        raise EmptyFamily("meet of an empty operator family")
    fr = _same_fragment(ops)
    table = []
    for p in range(fr.n):
        acc = ops[0](p)
        for op in ops[1:]:
            acc = fr.meet(acc, op(p))
        table.append(acc)
    return HOperator(fr, tuple(table))


def h_le(a: HOperator, b: HOperator) -> bool:
    fr = _same_fragment([a, b])
    return all(fr.le(a(p), b(p)) for p in range(fr.n))


def h_le_gap(a: HOperator, b: HOperator):
    fr = _same_fragment([a, b])
    for p in range(fr.n):
        if not fr.le(a(p), b(p)):
            return fr.label(p)
    return None


def random_h(frag: ComplementedFragment, rng) -> HOperator:
    """Monotone closure of a contractive seed within the fragment, top forced.

    Contractive-and-monotone gives h2 directly: S cap h(S) = h(S) grows with
    S. The generator therefore covers only the contractive part of the
    operator lattice; valid non-contractive operators exist above it.
    """
    seed = [rng.choice(below) for below in frag.below]
    table = monotone_closure(frag, seed)
    table[frag.top] = frag.top
    return HOperator(frag, tuple(table))


def h_from_interior(op: InteriorOperator) -> HOperator:
    """Restrict an interior operator to the complemented fragment.

    Valid interior operators restrict to valid h operators: contraction turns
    S cap h(S) into h(S) and monotonicity becomes h2.
    """
    frag = complemented_fragment(op.lattice)
    table = []
    for p in range(frag.n):
        v = frag.position(op(frag.member(p)))
        if v is None:
            raise ValueError("operator leaves the complemented fragment")
        table.append(v)
    return HOperator(frag, tuple(table))


def interior_from_h(h: HOperator) -> InteriorOperator:
    """Read an h table as an interior table; only total fragments qualify."""
    frag = h.fragment
    if frag.n != frag.lattice.n:
        raise ValueError("fragment does not cover the sublocale lattice")
    table = tuple(frag.member(h(frag.position(i))) for i in range(frag.lattice.n))
    return InteriorOperator(frag.lattice, table)


# -- continuity ---------------------------------------------------------------

@dataclass(frozen=True)
class HContinuityReport:
    ok: bool
    checked: int
    witness: tuple | None = None
    witness_index: int | None = None
    escapes: tuple = ()

    def to_json(self):
        return {
            "ok": self.ok,
            "checked": self.checked,
            "witness": self.witness,
            "escapes": list(self.escapes),
        }


def _check_hosts(f: LocalicMap, h_l: HOperator, h_m: HOperator):
    if h_l.fragment.lattice.host != f.source:
        raise HostMismatch(
            "source operator does not live on the map's source frame",
            witness=(h_l.fragment.lattice.host.key(), f.source.key()),
        )
    if h_m.fragment.lattice.host != f.target:
        raise HostMismatch(
            "target operator does not live on the map's target frame",
            witness=(h_m.fragment.lattice.host.key(), f.target.key()),
        )


def is_h_continuous(f: LocalicMap, h_l: HOperator, h_m: HOperator) -> HContinuityReport:
    """Check f_-1[T cap h_M(T)] <= f_-1[T] cap h_L(f_-1[T]) over the fragment.

    A T whose preimage is not complemented cannot be tested against h_L; it
    is skipped and recorded as an escape.
    """
    _check_hosts(f, h_l, h_m)
    t = transfer_of(f)
    frl, frm = h_l.fragment, h_m.fragment
    sll, slm = frl.lattice, frm.lattice
    escapes = []
    checked = 0
    for p in range(frm.n):
        j = frm.member(p)
        pre_j = t.preimage_table[j]
        q = frl.position(pre_j)
        if q is None:
            escapes.append(frm.label(p))
            continue
        checked += 1
        lhs = t.preimage_table[slm.meet(j, frm.member(h_m(p)))]
        rhs = sll.meet(pre_j, frl.member(h_l(q)))
        if not sll.le(lhs, rhs):
            return HContinuityReport(
                False,
                checked,
                (frm.label(p), sll.label(lhs), sll.label(rhs)),
                j,
                tuple(escapes),
            )
    return HContinuityReport(True, checked, None, None, tuple(escapes))


@dataclass(frozen=True)
class HCompositionReport:
    f_report: HContinuityReport
    g_report: HContinuityReport
    composite: HContinuityReport | None

    @property
    def precondition_ok(self) -> bool:
        return self.f_report.ok and self.g_report.ok

    @property
    def status(self) -> str:
        if not self.precondition_ok:
            return "precondition-unmet"
        return "pass" if self.composite.ok else "fail"

    @property
    def escapes(self) -> tuple:
        out = self.f_report.escapes + self.g_report.escapes
        if self.composite is not None:
            out = out + self.composite.escapes
        return out

    def to_json(self):
        return {
            "status": self.status,
            "f": self.f_report.to_json(),
            "g": self.g_report.to_json(),
            "composite": None if self.composite is None else self.composite.to_json(),
            "escapes": list(self.escapes),
        }


def check_h_composition(
    f: LocalicMap,
    g: LocalicMap,
    h_l: HOperator,
    h_m: HOperator,
    h_n: HOperator,
) -> HCompositionReport:
    """Composites of h-continuous maps stay h-continuous; escapes propagate."""
    fr = is_h_continuous(f, h_l, h_m)
    gr = is_h_continuous(g, h_m, h_n)
    if not (fr.ok and gr.ok):
        return HCompositionReport(fr, gr, None)
    comp = is_h_continuous(compose_localic(g, f), h_l, h_n)
    return HCompositionReport(fr, gr, comp)


# -- initial operators --------------------------------------------------------

@dataclass(frozen=True)
class HInitialReport:
    axioms: AxiomReport
    continuity: HContinuityReport
    escapes: tuple  # dicts {"stage": "image"|"preimage", "at": source label}
    anomalies: tuple

    @property
    def ok(self) -> bool:
        return self.axioms.ok and self.continuity.ok and not self.escapes

    @property
    def unexplained(self) -> tuple:
        return tuple(a for a in self.anomalies if not a["confirmed"])

    def to_json(self):
        return {
            "axioms": self.axioms.to_json(),
            "continuity": self.continuity.to_json(),
            "escapes": list(self.escapes),
            "anomalies": list(self.anomalies),
        }


def initial_h(f: LocalicMap, h_m: HOperator):
    """The induced source table S |-> f_-1[h_M(f[S])] over the fragment.

    An entry whose image or pulled-back value leaves its fragment defaults to
    the bottom and is recorded as an escape. h2 of the candidate can only
    fail through such a default; h3 and continuity failures are classified
    against the same adjunction gaps as the interior case.
    """
    if h_m.fragment.lattice.host != f.target:
        raise HostMismatch(
            "operator does not live on the map's target frame",
            witness=(h_m.fragment.lattice.host.key(), f.target.key()),
        )
    t = transfer_of(f)
    sll, slm = t.source_lattice, t.target_lattice
    frl, frm = complemented_fragment(sll), complemented_fragment(slm)
    table = []
    escapes = []
    escaped = set()
    for p in range(frl.n):
        j = t.image_table[frl.member(p)]
        pj = frm.position(j)
        if pj is None:
            escapes.append({"stage": "image", "at": frl.label(p)})
            escaped.add(frl.label(p))
            table.append(frl.bottom)
            continue
        k = t.preimage_table[frm.member(h_m(pj))]
        pk = frl.position(k)
        if pk is None:
            escapes.append({"stage": "preimage", "at": frl.label(p)})
            escaped.add(frl.label(p))
            table.append(frl.bottom)
            continue
        table.append(pk)
    cand = HOperator(frl, tuple(table))
    axioms = check_h(cand)
    cont = is_h_continuous(f, cand, h_m)

    surjective = t.image_table[sll.top] == slm.top
    anomalies = []
    if not axioms.passed["h3"]:
        anomalies.append(
            {
                "kind": "top-gap",
                "at": frl.label(frl.top),
                "predicate": "image-not-whole-target",
                "confirmed": not surjective,
            }
        )
    if not axioms.passed["h2"]:
        # impossible for clean entries; only a bottom default can break it
        anomalies.append(
            {
                "kind": "h2-gap",
                "at": axioms.witnesses["h2"][1],
                "predicate": "escape-default",
                "confirmed": axioms.witnesses["h2"][1] in escaped,
            }
        )
    if not cont.ok:
        u = cont.witness_index
        if u == slm.top:
            anomalies.append(
                {
                    "kind": "continuity-gap",
                    "at": slm.label(u),
                    "predicate": "image-not-whole-target",
                    "confirmed": not surjective,
                }
            )
        else:
            pre_u = t.preimage_table[u]
            anomalies.append(
                {
                    "kind": "continuity-gap",
                    "at": slm.label(u),
                    "predicate": "counit-gap-or-escape-default",
                    "confirmed": t.image_table[pre_u] != u
                    or sll.label(pre_u) in escaped,
                }
            )
    return cand, HInitialReport(axioms, cont, tuple(escapes), tuple(anomalies))


@dataclass(frozen=True)
class HUniversalReport:
    initial_side: HContinuityReport
    composite_side: HContinuityReport
    anomalies: tuple
    escapes: tuple  # dicts {"side": "initial"|"composite", "at": label}

    @property
    def equivalent(self) -> bool:
        return self.initial_side.ok == self.composite_side.ok

    @property
    def unexplained(self) -> tuple:
        if self.equivalent:
            return ()
        return tuple(a for a in self.anomalies if not a["confirmed"])

    def to_json(self):
        return {
            "initial_side": self.initial_side.to_json(),
            "composite_side": self.composite_side.to_json(),
            "equivalent": self.equivalent,
            "anomalies": list(self.anomalies),
            "escapes": list(self.escapes),
        }


def check_h_universal(
    f: LocalicMap, h_m: HOperator, g: LocalicMap, h_n: HOperator
) -> HUniversalReport:
    """g is h-continuous into the initial candidate iff f.g is into (M, h_M).

    Disagreements are classified like the interior case, with escape defaults
    as an extra failure source on either side.
    """
    if g.target != f.source:
        raise HostMismatch(
            "g must land in the source of f", witness=(g.target.key(), f.source.key())
        )
    cand, init_rep = initial_h(f, h_m)
    a = is_h_continuous(g, h_n, cand)
    b = is_h_continuous(compose_localic(f, g), h_n, h_m)
    escapes = tuple(
        [{"side": "initial", "at": lbl} for lbl in a.escapes]
        + [{"side": "composite", "at": lbl} for lbl in b.escapes]
    )
    anomalies = []
    if a.ok != b.ok:
        t = transfer_of(f)
        frl, frm = cand.fragment, h_m.fragment
        sll, slm = frl.lattice, frm.lattice
        if a.ok and not b.ok:
            u = b.witness_index
            pu = frm.position(u)
            pre_u = t.preimage_table[u]
            q = frl.position(pre_u)
            if q is None:
                confirmed = True
                predicate = "preimage-escape"
            else:
                lhs = t.preimage_table[slm.meet(u, frm.member(h_m(pu)))]
                rhs = sll.meet(pre_u, frl.member(cand(q)))
                confirmed = not sll.le(lhs, rhs)
                predicate = "f-h-continuity-gap-at-witness"
            anomalies.append(
                {
                    "kind": "composite-side-only",
                    "at": slm.label(u),
                    "predicate": predicate,
                    "confirmed": confirmed,
                }
            )
        else:
            i = a.witness_index
            defaulted = any(e["at"] == sll.label(i) for e in init_rep.escapes)
            anomalies.append(
                {
                    "kind": "initial-side-only",
                    "at": sll.label(i),
                    "predicate": "unit-gap-or-escape-default",
                    "confirmed": t.preimage_table[t.image_table[i]] != i or defaulted,
                }
            )
    return HUniversalReport(a, b, tuple(anomalies), escapes)
