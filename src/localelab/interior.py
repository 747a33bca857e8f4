"""Interior operators on S_l(L): axioms, the operator lattice, continuity of
localic maps, initial operators, and open sublocales.

An interior operator is contractive (I1), monotone (I2), and fixes the top
(I3). Idempotence is deliberately not an axiom. Operators are plain tables
over the enumerated sublocale lattice, so every law check is exhaustive.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyFamily, HostMismatch
from .maps import LocalicMap, compose_localic
from .sublocales import SublocaleLattice, transfer_of


@dataclass(frozen=True)
class InteriorOperator:
    """Table over sublocale indices. Construction does not enforce the axioms:
    initial lifts are returned as candidates carrying their own report, and
    check_interior is the validator."""

    lattice: SublocaleLattice
    table: tuple

    def __post_init__(self):
        table = tuple(self.table)
        object.__setattr__(self, "table", table)
        n = self.lattice.n
        if len(table) != n or min(table) < 0 or max(table) >= n:
            raise ValueError("table is not total over the sublocale lattice")

    def __call__(self, i: int) -> int:
        return self.table[i]

    def describe(self) -> dict:
        sl = self.lattice
        return {sl.label(i): sl.label(v) for i, v in enumerate(self.table)}


@dataclass(frozen=True)
class AxiomReport:
    passed: dict
    witnesses: dict
    vacuous: tuple = ()

    @property
    def ok(self) -> bool:
        return all(self.passed.values())

    def to_json(self):
        return {
            "passed": dict(self.passed),
            "witnesses": {k: list(v) for k, v in self.witnesses.items()},
            "vacuous": list(self.vacuous),
        }


def _contraction_gaps(sl: SublocaleLattice, table):
    """Every i with table[i] not below i, in index order, as a lazy scan."""
    pts = sl.points
    return (i for i, v in enumerate(table) if pts[v] & ~pts[i])


def _monotone_on_covers(sl: SublocaleLattice, table) -> bool:
    pts = sl.points
    for i, covers in enumerate(sl.lower_covers):
        above = ~pts[table[i]]
        for k in covers:
            if pts[table[k]] & above:
                return False
    return True


def _axiom_report(sl: SublocaleLattice, table, contraction_gap) -> AxiomReport:
    """I1, I2, I3 of a table, given its first contraction gap (or None)."""
    pts, labels = sl.points, sl.labels
    passed = {"I1": contraction_gap is None, "I2": True, "I3": table[sl.top] == sl.top}
    witnesses = {}
    if contraction_gap is not None:
        witnesses["I1"] = (labels[contraction_gap], labels[table[contraction_gap]])
    # the order is generated by its cover pairs, so I2 holds iff it holds on
    # them; only a failure needs the all-pairs scan for the lex-first witness
    if not _monotone_on_covers(sl, table):
        passed["I2"] = False
        witnesses["I2"] = next(
            (labels[i], labels[j])
            for i in range(sl.n)
            for j in range(sl.n)
            if not pts[i] & ~pts[j] and pts[table[i]] & ~pts[table[j]]
        )
    if not passed["I3"]:
        witnesses["I3"] = (labels[table[sl.top]],)
    return AxiomReport(passed, witnesses)


def check_interior(op: InteriorOperator) -> AxiomReport:
    """Evaluate I1 (contraction), I2 (monotonicity), I3 (top) exhaustively."""
    sl = op.lattice
    return _axiom_report(sl, op.table, next(_contraction_gaps(sl, op.table), None))


def discrete_op(sl: SublocaleLattice) -> InteriorOperator:
    return InteriorOperator(sl, tuple(range(sl.n)))


def trivial_op(sl: SublocaleLattice) -> InteriorOperator:
    table = [sl.bottom] * sl.n
    table[sl.top] = sl.top
    return InteriorOperator(sl, tuple(table))


def _same_lattice(ops):
    first = ops[0].lattice
    for op in ops[1:]:
        if op.lattice is not first:
            raise HostMismatch(
                "operators live on different sublocale lattices",
                witness=(first.host.key(), op.lattice.host.key()),
            )
    return first


def _pointwise(family, combine, name) -> InteriorOperator:
    ops = list(family)
    if not ops:
        raise EmptyFamily(f"{name} of an empty operator family")
    sl = _same_lattice(ops)
    pts = sl.points
    acc = [pts[v] for v in ops[0].table]
    for op in ops[1:]:
        acc = [combine(p, pts[v]) for p, v in zip(acc, op.table)]
    by_points = sl.by_points
    return type(ops[0])(sl, tuple([by_points[p] for p in acc]))


def op_join(family) -> InteriorOperator:
    """Pointwise join, of the same operator type as the family's first member."""
    return _pointwise(family, int.__or__, "join")


def op_meet(family) -> InteriorOperator:
    """Pointwise meet, of the same operator type as the family's first member."""
    return _pointwise(family, int.__and__, "meet")


def op_le(a: InteriorOperator, b: InteriorOperator) -> bool:
    return op_le_gap(a, b) is None


def op_le_gap(a: InteriorOperator, b: InteriorOperator):
    """First sublocale label where a exceeds b, or None when a <= b."""
    sl = _same_lattice([a, b])
    pts = sl.points
    for i, (x, y) in enumerate(zip(a.table, b.table)):
        if pts[x] & ~pts[y]:
            return sl.labels[i]
    return None


def random_op(sl: SublocaleLattice, rng) -> InteriorOperator:
    """Monotone closure of a random contractive seed, with the top forced.

    The seed picks any g(S) <= S; the closure S |-> join{g(T) : T <= S} is
    contractive because every g(T) <= T <= S, and monotone because the index
    sets nest. Forcing the top entry then gives I3.
    """
    seed = [rng.choice(below) for below in sl.below]
    table = monotone_closure(sl, seed)
    table[sl.top] = sl.top
    return InteriorOperator(sl, tuple(table))


def monotone_closure(lat: SublocaleLattice, seed) -> list:
    """table[i] = join of seed[j] over every j <= i, as a new list.

    One forward pass over lower covers (a subset zeta transform): index
    order is a linear extension of the order, so every lower cover of i is
    final before i, and every j < i lies below one of them.
    """
    pts = lat.points
    acc = [pts[v] for v in seed]
    for i, covers in enumerate(lat.lower_covers):
        p = acc[i]
        for k in covers:
            p |= acc[k]
        acc[i] = p
    by_points = lat.by_points
    return [by_points[p] for p in acc]


# -- continuity ---------------------------------------------------------------

@dataclass(frozen=True)
class ContinuityReport:
    ok: bool
    checked: int
    witness: tuple | None = None
    witness_index: int | None = None

    def to_json(self):
        return {"ok": self.ok, "checked": self.checked, "witness": self.witness}


def _check_hosts(f: LocalicMap, op_l: InteriorOperator, op_m: InteriorOperator):
    if op_l.lattice.host != f.source:
        raise HostMismatch(
            "source operator does not live on the map's source frame",
            witness=(op_l.lattice.host.key(), f.source.key()),
        )
    if op_m.lattice.host != f.target:
        raise HostMismatch(
            "target operator does not live on the map's target frame",
            witness=(op_m.lattice.host.key(), f.target.key()),
        )


def _continuity_gaps(pre, op_l, op_m):
    """Every T = j with f_-1[i_M(T)] not below i_L(f_-1[T]), in index order, as
    a lazy scan; pre is f's preimage table."""
    pts, tl, tm = op_l.lattice.points, op_l.table, op_m.table
    return (j for j, v in enumerate(tm) if pts[pre[v]] & ~pts[tl[pre[j]]])


def _continuity_report(pre, op_l, op_m, gap) -> ContinuityReport:
    """The report for the first continuity gap j (or None)."""
    if gap is None:
        return ContinuityReport(True, op_m.lattice.n)
    sl = op_l.lattice
    lhs, rhs = pre[op_m.table[gap]], op_l.table[pre[gap]]
    return ContinuityReport(
        False, gap + 1, (op_m.lattice.labels[gap], sl.labels[lhs], sl.labels[rhs]), gap
    )


def is_I_continuous(
    f: LocalicMap, op_l: InteriorOperator, op_m: InteriorOperator
) -> ContinuityReport:
    """Check f_-1[i_M(T)] <= i_L(f_-1[T]) for every sublocale T of the target."""
    _check_hosts(f, op_l, op_m)
    pre = transfer_of(f).preimage_table
    return _continuity_report(pre, op_l, op_m, next(_continuity_gaps(pre, op_l, op_m), None))


@dataclass(frozen=True)
class CompositionReport:
    f_continuous: bool
    g_continuous: bool
    composite: ContinuityReport | None
    preimage_functorial: bool | None
    functorial_witness: tuple | None = None

    @property
    def precondition_ok(self) -> bool:
        return self.f_continuous and self.g_continuous

    @property
    def status(self) -> str:
        if not self.precondition_ok:
            return "precondition-unmet"
        if self.composite.ok and self.preimage_functorial:
            return "pass"
        return "fail"

    def to_json(self):
        return {
            "status": self.status,
            "f_continuous": self.f_continuous,
            "g_continuous": self.g_continuous,
            "composite": None if self.composite is None else self.composite.to_json(),
            "preimage_functorial": self.preimage_functorial,
            "functorial_witness": self.functorial_witness,
        }


def check_composition(
    f: LocalicMap,
    g: LocalicMap,
    op_l: InteriorOperator,
    op_m: InteriorOperator,
    op_n: InteriorOperator,
) -> CompositionReport:
    """Composites of continuous maps stay continuous; preimages compose.

    A failed precondition (f or g not continuous for the given operators) is
    reported, not raised.
    """
    f_ok = is_I_continuous(f, op_l, op_m).ok
    g_ok = is_I_continuous(g, op_m, op_n).ok
    if not (f_ok and g_ok):
        return CompositionReport(f_ok, g_ok, None, None)
    gf = compose_localic(g, f)
    comp = is_I_continuous(gf, op_l, op_n)
    tf, tg, tgf = transfer_of(f), transfer_of(g), transfer_of(gf)
    functorial = True
    fun_witness = None
    for j in range(op_n.lattice.n):
        if tgf.preimage_table[j] != tf.preimage_table[tg.preimage_table[j]]:
            functorial = False
            fun_witness = (op_n.lattice.label(j),)
            break
    return CompositionReport(f_ok, g_ok, comp, functorial, fun_witness)


# -- initial operators --------------------------------------------------------

@dataclass(frozen=True)
class InitialReport:
    axioms: AxiomReport
    continuity: ContinuityReport
    anomalies: tuple

    @property
    def ok(self) -> bool:
        return self.axioms.ok and self.continuity.ok

    @property
    def unexplained(self) -> tuple:
        return tuple(a for a in self.anomalies if not a["confirmed"])

    def to_json(self):
        return {
            "axioms": self.axioms.to_json(),
            "continuity": self.continuity.to_json(),
            "anomalies": list(self.anomalies),
        }


def initial_interior(f: LocalicMap, op_m: InteriorOperator):
    """The induced source operator S |-> f_-1[i_M(f[S])], with its report.

    Monotonicity always holds (three monotone factors). Contraction and the
    top law can genuinely fail; every failure is classified against a gap
    predicate of the adjunction: contraction failures require a unit gap
    f_-1[f[S]] != S, top/continuity-at-top failures require f[L] != M, and
    continuity failures elsewhere require a counit gap f[f_-1[T]] != T.
    Unconfirmed anomalies would mean an implementation bug.
    """
    if op_m.lattice.host != f.target:
        raise HostMismatch(
            "operator does not live on the map's target frame",
            witness=(op_m.lattice.host.key(), f.target.key()),
        )
    t = transfer_of(f)
    sl, tl, img, pre = t.source_lattice, t.target_lattice, t.image_table, t.preimage_table
    tm = op_m.table
    cand = InteriorOperator(sl, tuple([pre[tm[x]] for x in img]))
    contraction = list(_contraction_gaps(sl, cand.table))
    continuity = list(_continuity_gaps(pre, cand, op_m))
    axioms = _axiom_report(sl, cand.table, contraction[0] if contraction else None)
    cont = _continuity_report(pre, cand, op_m, continuity[0] if continuity else None)

    surjective = img[sl.top] == tl.top
    anomalies = [
        {
            "kind": "contraction-gap",
            "at": sl.labels[i],
            "predicate": "unit-gap",
            "confirmed": pre[img[i]] != i,
        }
        for i in contraction
    ]
    if not axioms.passed["I3"]:
        anomalies.append(_top_gap(sl, surjective))
    anomalies.extend(_continuity_gap(t, j, surjective) for j in continuity)
    return cand, InitialReport(axioms, cont, tuple(anomalies))


def _top_gap(sl: SublocaleLattice, surjective: bool) -> dict:
    return {
        "kind": "top-gap",
        "at": sl.labels[sl.top],
        "predicate": "image-not-whole-target",
        "confirmed": not surjective,
    }


def _continuity_gap(t, j: int, surjective: bool) -> dict:
    """The anomaly of a continuity failure at T = j: at the top it needs
    f[L] != M, elsewhere the counit gap f[f_-1[T]] != T."""
    at_top = j == t.target_lattice.top
    return {
        "kind": "continuity-gap",
        "at": t.target_lattice.labels[j],
        "predicate": "image-not-whole-target" if at_top else "counit-gap",
        "confirmed": not surjective if at_top else t.image_table[t.preimage_table[j]] != j,
    }


@dataclass(frozen=True)
class UniversalReport:
    initial_side: ContinuityReport
    composite_side: ContinuityReport
    anomalies: tuple

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
        }


def check_universal_property(
    f: LocalicMap, op_m: InteriorOperator, g: LocalicMap, op_n: InteriorOperator
) -> UniversalReport:
    """g is continuous into (L, i_{L_f}) iff f.g is continuous into (M, i_M).

    When the two sides disagree, the disagreement is classified: the
    initial-side-only case needs a unit gap at the witness, the
    composite-side-only case needs f to fail its own continuity for the
    candidate at the witness.
    """
    if g.target != f.source:
        raise HostMismatch(
            "g must land in the source of f", witness=(g.target.key(), f.source.key())
        )
    cand, _ = initial_interior(f, op_m)
    return _universal_report(f, g, cand, op_m, op_n, "f-continuity-gap-at-witness")


def _universal_report(f, g, cand, op_m, op_n, predicate) -> UniversalReport:
    """Both sides of the lifting equivalence for the interior operators cand
    on L, op_m on M and op_n on N, with any disagreement classified."""
    a = is_I_continuous(g, op_n, cand)
    b = is_I_continuous(compose_localic(f, g), op_n, op_m)
    if a.ok == b.ok:
        return UniversalReport(a, b, ())
    t = transfer_of(f)
    pre = t.preimage_table
    if a.ok:
        u = b.witness_index
        anomaly = {
            "kind": "composite-side-only",
            "at": op_m.lattice.labels[u],
            "predicate": predicate,
            "confirmed": not cand.lattice.le(pre[op_m.table[u]], cand.table[pre[u]]),
        }
    else:
        i = a.witness_index
        anomaly = {
            "kind": "initial-side-only",
            "at": cand.lattice.labels[i],
            "predicate": "unit-gap",
            "confirmed": pre[t.image_table[i]] != i,
        }
    return UniversalReport(a, b, (anomaly,))


# -- open sublocales ----------------------------------------------------------

def open_fixpoints(op: InteriorOperator):
    """All sublocales with i(S) = S (the equality reading)."""
    return [op.lattice.sub(i) for i in range(op.lattice.n) if op(i) == i]


@dataclass(frozen=True)
class OpenPreimageReport:
    status: str  # pass / fail / precondition-unmet
    checked: int
    witness: tuple | None = None

    def to_json(self):
        return {"status": self.status, "checked": self.checked, "witness": self.witness}


def check_open_preimage(
    f: LocalicMap, op_l: InteriorOperator, op_m: InteriorOperator
) -> OpenPreimageReport:
    """Preimages of open (fixpoint) sublocales are open when f is continuous."""
    if not is_I_continuous(f, op_l, op_m).ok:
        return OpenPreimageReport("precondition-unmet", 0)
    t = transfer_of(f)
    checked = 0
    for j in range(op_m.lattice.n):
        if op_m(j) != j:
            continue
        checked += 1
        pre = t.preimage_table[j]
        if op_l(pre) != pre:
            return OpenPreimageReport(
                "fail", checked, (op_m.lattice.label(j), op_l.lattice.label(pre))
            )
    return OpenPreimageReport("pass", checked)


# -- families and constrained sampling ----------------------------------------

@dataclass(frozen=True)
class FamilyInitialReport:
    candidate: InteriorOperator
    axioms: AxiomReport
    per_map: tuple  # ContinuityReport per family member, against the joined candidate
    per_map_initial: tuple  # InitialReport per member, for anomaly linkage
    universal: tuple  # one classification dict per sampled (g, op_N)

    @property
    def ok(self) -> bool:
        return self.axioms.ok and all(r.ok for r in self.per_map)


def family_initial_check(maps, ops, sampled_gs=()) -> FamilyInitialReport:
    """Join of the per-map initial operators, as the family's induced structure.

    Every map is rechecked for continuity against the joined candidate; each
    sampled (g, op_N) pair gets the two-sided universal check with the same
    disagreement classification as the single-map case, extended by the
    preimage-join gap predicate (preimages need not preserve joins).
    """
    maps = list(maps)
    ops = list(ops)
    if not maps:
        raise EmptyFamily("family initial lift needs at least one map")
    if len(maps) != len(ops):
        raise ValueError("one operator per map required")
    src = maps[0].source
    for f in maps[1:]:
        if f.source != src:
            raise HostMismatch(
                "family maps must share a source frame",
                witness=(src.key(), f.source.key()),
            )
    lifted = [initial_interior(f, op) for f, op in zip(maps, ops)]
    cands = [c for c, _ in lifted]
    cand = op_join(cands)
    axioms = check_interior(cand)
    per_map = tuple(is_I_continuous(f, cand, op) for f, op in zip(maps, ops))

    universal = []
    sl = cand.lattice
    for g, op_n in sampled_gs:
        a = is_I_continuous(g, op_n, cand)
        b_reports = [
            is_I_continuous(compose_localic(f, g), op_n, op)
            for f, op in zip(maps, ops)
        ]
        b_ok = all(r.ok for r in b_reports)
        entry = {"initial_side": a.ok, "composite_side": b_ok, "anomaly": None}
        if a.ok != b_ok:
            if a.ok:
                bad = next(i for i, r in enumerate(b_reports) if not r.ok)
                f, op = maps[bad], ops[bad]
                t = transfer_of(f)
                u = b_reports[bad].witness_index
                confirmed = not sl.le(t.preimage_table[op(u)], cand(t.preimage_table[u]))
                entry["anomaly"] = {
                    "kind": "composite-side-only",
                    "map": bad,
                    "at": op.lattice.label(u),
                    "predicate": "f-continuity-gap-at-witness",
                    "confirmed": confirmed,
                }
            else:
                t_idx = a.witness_index
                unit_gap = any(
                    transfer_of(f).preimage_table[transfer_of(f).image_table[t_idx]]
                    != t_idx
                    for f in maps
                )
                # preimages preserve meets, not joins, so the joined candidate
                # can pull back past the join of the pulled-back parts
                tg = transfer_of(g)
                parts = tg.source_lattice.bottom
                for c in cands:
                    parts = op_n.lattice.join(parts, tg.preimage_table[c(t_idx)])
                join_gap = tg.preimage_table[cand(t_idx)] != parts
                entry["anomaly"] = {
                    "kind": "initial-side-only",
                    "at": sl.label(t_idx),
                    "predicate": "unit-gap-or-preimage-join-gap",
                    "confirmed": unit_gap or join_gap,
                }
        universal.append(entry)
    return FamilyInitialReport(
        cand, axioms, per_map, tuple(r for _, r in lifted), tuple(universal)
    )


def make_continuous_op(f: LocalicMap, op_m: InteriorOperator, rng) -> InteriorOperator:
    """A random source operator for which f is guaranteed I-continuous.

    Base constraint: i_L(S) must contain every f_-1[i_M(T)] with f_-1[T] = S;
    each such term sits inside S, so joining a random contractive seed on top
    and closing monotonely keeps contraction while preserving the constraint.
    """
    if op_m.lattice.host != f.target:
        raise HostMismatch(
            "operator does not live on the map's target frame",
            witness=(op_m.lattice.host.key(), f.target.key()),
        )
    t = transfer_of(f)
    sl = t.source_lattice
    base = [sl.bottom] * sl.n
    for j in range(op_m.lattice.n):
        s = t.preimage_table[j]
        base[s] = sl.join(base[s], t.preimage_table[op_m(j)])
    for i, below in enumerate(sl.below):
        base[i] = sl.join(base[i], rng.choice(below))
    table = monotone_closure(sl, base)
    table[sl.top] = sl.top
    return InteriorOperator(sl, tuple(table))
