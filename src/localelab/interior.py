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
        object.__setattr__(self, "table", tuple(self.table))
        if len(self.table) != self.lattice.n or any(
            not 0 <= v < self.lattice.n for v in self.table
        ):
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


def check_interior(op: InteriorOperator) -> AxiomReport:
    """Evaluate I1 (contraction), I2 (monotonicity), I3 (top) exhaustively."""
    sl = op.lattice
    passed = {"I1": True, "I2": True, "I3": True}
    witnesses = {}
    for i in range(sl.n):
        if not sl.le(op(i), i):
            passed["I1"] = False
            witnesses["I1"] = (sl.label(i), sl.label(op(i)))
            break
    # the order is generated by its cover pairs, so I2 holds iff it holds on
    # them; only a failure needs the all-pairs scan for the lex-first witness
    if not all(sl.le(op(k), op(i)) for i in range(sl.n) for k in sl.lower_covers[i]):
        for i in range(sl.n):
            if not passed["I2"]:
                break
            for j in range(sl.n):
                if sl.le(i, j) and not sl.le(op(i), op(j)):
                    passed["I2"] = False
                    witnesses["I2"] = (sl.label(i), sl.label(j))
                    break
    if op(sl.top) != sl.top:
        passed["I3"] = False
        witnesses["I3"] = (sl.label(op(sl.top)),)
    return AxiomReport(passed, witnesses)


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


def op_join(family) -> InteriorOperator:
    """Pointwise join, of the same operator type as the family's first member."""
    ops = list(family)
    if not ops:
        raise EmptyFamily("join of an empty operator family")
    sl = _same_lattice(ops)
    table = []
    for i in range(sl.n):
        acc = ops[0](i)
        for op in ops[1:]:
            acc = sl.join(acc, op(i))
        table.append(acc)
    return type(ops[0])(sl, tuple(table))


def op_meet(family) -> InteriorOperator:
    """Pointwise meet, of the same operator type as the family's first member."""
    ops = list(family)
    if not ops:
        raise EmptyFamily("meet of an empty operator family")
    sl = _same_lattice(ops)
    table = []
    for i in range(sl.n):
        acc = ops[0](i)
        for op in ops[1:]:
            acc = sl.meet(acc, op(i))
        table.append(acc)
    return type(ops[0])(sl, tuple(table))


def op_le(a: InteriorOperator, b: InteriorOperator) -> bool:
    sl = _same_lattice([a, b])
    return all(sl.le(a(i), b(i)) for i in range(sl.n))


def op_le_gap(a: InteriorOperator, b: InteriorOperator):
    """First sublocale label where a exceeds b, or None when a <= b."""
    sl = _same_lattice([a, b])
    for i in range(sl.n):
        if not sl.le(a(i), b(i)):
            return sl.label(i)
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
    table = list(seed)
    for i, covers in enumerate(lat.lower_covers):
        acc = table[i]
        for k in covers:
            acc = lat.join(acc, table[k])
        table[i] = acc
    return table


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


def is_I_continuous(
    f: LocalicMap, op_l: InteriorOperator, op_m: InteriorOperator
) -> ContinuityReport:
    """Check f_-1[i_M(T)] <= i_L(f_-1[T]) for every sublocale T of the target."""
    _check_hosts(f, op_l, op_m)
    t = transfer_of(f)
    sl = op_l.lattice
    for j in range(op_m.lattice.n):
        lhs = t.preimage_table[op_m(j)]
        rhs = op_l(t.preimage_table[j])
        if not sl.le(lhs, rhs):
            return ContinuityReport(
                False,
                j + 1,
                (op_m.lattice.label(j), sl.label(lhs), sl.label(rhs)),
                j,
            )
    return ContinuityReport(True, op_m.lattice.n)


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
    sl, tl = t.source_lattice, t.target_lattice
    table = tuple(t.preimage_table[op_m(t.image_table[i])] for i in range(sl.n))
    cand = InteriorOperator(sl, table)
    axioms = check_interior(cand)
    cont = is_I_continuous(f, cand, op_m)

    anomalies = []
    for i in range(sl.n):
        if not sl.le(cand(i), i):
            anomalies.append(
                {
                    "kind": "contraction-gap",
                    "at": sl.label(i),
                    "predicate": "unit-gap",
                    "confirmed": t.preimage_table[t.image_table[i]] != i,
                }
            )
    if cand(sl.top) != sl.top:
        anomalies.append(
            {
                "kind": "top-gap",
                "at": sl.label(sl.top),
                "predicate": "image-not-whole-target",
                "confirmed": t.image_table[sl.top] != tl.top,
            }
        )
    for j in range(tl.n):
        lhs = t.preimage_table[op_m(j)]
        if not sl.le(lhs, cand(t.preimage_table[j])):
            if j == tl.top:
                anomalies.append(
                    {
                        "kind": "continuity-gap",
                        "at": tl.label(j),
                        "predicate": "image-not-whole-target",
                        "confirmed": t.image_table[sl.top] != tl.top,
                    }
                )
            else:
                anomalies.append(
                    {
                        "kind": "continuity-gap",
                        "at": tl.label(j),
                        "predicate": "counit-gap",
                        "confirmed": t.image_table[t.preimage_table[j]] != j,
                    }
                )
    return cand, InitialReport(axioms, cont, tuple(anomalies))


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
    a = is_I_continuous(g, op_n, cand)
    b = is_I_continuous(compose_localic(f, g), op_n, op_m)
    anomalies = []
    if a.ok != b.ok:
        tf = transfer_of(f)
        sl = cand.lattice
        if a.ok and not b.ok:
            u = b.witness_index
            lhs = tf.preimage_table[op_m(u)]
            rhs = cand(tf.preimage_table[u])
            anomalies.append(
                {
                    "kind": "composite-side-only",
                    "at": op_m.lattice.label(u),
                    "predicate": "f-continuity-gap-at-witness",
                    "confirmed": not sl.le(lhs, rhs),
                }
            )
        else:
            t_idx = a.witness_index
            anomalies.append(
                {
                    "kind": "initial-side-only",
                    "at": sl.label(t_idx),
                    "predicate": "unit-gap",
                    "confirmed": tf.preimage_table[tf.image_table[t_idx]] != t_idx,
                }
            )
    return UniversalReport(a, b, tuple(anomalies))


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
