"""Interior operators on S_l(L): axioms, the operator lattice, continuity of
localic maps, initial operators, and open sublocales.

An interior operator is contractive (I1), monotone (I2), and fixes the top
(I3). Idempotence is deliberately not an axiom. Operators are plain tables
over the enumerated sublocale lattice, so every law check is exhaustive. A
sublocale's index is its point mask, so a table is also the list of its
values' point masks, and the draw, axiom and lift kernels read tables as
bit vectors. They take many tables at once, packed as _lanes says.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import EmptyFamily, HostMismatch
from .lattice import bits
from .maps import LocalicMap, _is_total, compose_localic
from .sublocales import SublocaleLattice, SublocaleTransfer, _admit, _transfer_cached


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
        if not _is_total(table, n, n):
            raise ValueError("table is not total over the sublocale lattice")

    @classmethod
    def _of_points(cls, sl: SublocaleLattice, masks):
        """The operator with table `masks`, trusted to be total and not scanned."""
        op = object.__new__(cls)
        object.__setattr__(op, "lattice", sl)
        object.__setattr__(op, "table", tuple(masks))
        return op

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


def _lanes(count: int, width: int) -> tuple:
    """(ones, fill, guard) of count lanes of width bits: bit 0 of each lane,
    the bits below each guard bit, and the guard bits.

    A batch of tables is a list whose entry i packs table j's entry i, a
    point mask, into lane j, bits j * width up. width exceeds the hosts'
    point counts, so each lane's top bit is a guard bit that stays zero, and
    (x + fill) & guard has the guard bit set in each nonzero lane of x. With
    one lane, a batch is a table."""
    ones = ((1 << count * width) - 1) // ((1 << width) - 1)
    guard = ones << width - 1
    return ones, guard - ones, guard


class _Batch(NamedTuple):
    """`lanes` tables packed into `masks`, `width` bits a lane, with the
    (ones, fill, guard) of that layout."""

    masks: list
    lanes: int
    width: int
    ones: int
    fill: int
    guard: int

    @classmethod
    def of(cls, masks, lanes: int, width: int) -> "_Batch":
        return cls(masks, lanes, width, *_lanes(lanes, width))

    def lane(self, j: int) -> list:
        """Table j."""
        return [x >> j * self.width & (1 << self.width) - 1 for x in self.masks]

    def shifted(self, first) -> list:
        """The masks with each table moved up a lane, the last dropped and
        the table `first` in lane 0."""
        return [(x << self.width | p) & self.fill + self.guard for x, p in zip(self.masks, first)]

    def upto(self, guards: int) -> int:
        """How many lanes there are up to the first whose guard bit is in guards."""
        return (guards & -guards).bit_length() // self.width


def _nonzero(xs) -> int:
    """The mask of the indices of the nonzero entries of xs."""
    return sum(1 << i for i, x in enumerate(xs) if x)


def _first(xs):
    """The index of the first nonzero entry of xs, or None."""
    return next((i for i, x in enumerate(xs) if x), None)


def _axiom_gaps(sl: SublocaleLattice, vals, ones=1) -> tuple:
    """(gaps, bad, top) of the packed tables vals, nonzero in the lanes that
    break I1 at i (gaps[i], the points of vals[i] outside i), I2 (bad) and I3
    (top). One pass over lower covers: the order is generated by its cover
    pairs, so monotonicity holds iff it holds on them."""
    gaps, bad = [], 0
    for i, v, covers in zip(range(sl.n), vals, sl.lower_covers):
        gaps.append(v & ~(i * ones))
        for k in covers:
            bad |= vals[k] & ~v
    return gaps, bad, vals[sl.top] ^ sl.top * ones


def _axioms(sl: SublocaleLattice, vals, names=("I1", "I2", "I3"), vacuous=()) -> AxiomReport:
    """The AxiomReport of a one-lane _axiom_gaps, I1 to I3; a failure of I2
    takes an all-pairs scan for the lex-first witness."""
    labels = sl.labels
    gaps, bad, top_gap = _axiom_gaps(sl, vals)
    i = _first(gaps)
    i1, i2, i3 = names
    witnesses = {}
    if i is not None:
        witnesses[i1] = (labels[i], labels[vals[i]])
    if bad:
        witnesses[i2] = next(
            (labels[i], labels[j])
            for i in range(sl.n)
            for j in range(sl.n)
            if not i & ~j and vals[i] & ~vals[j]
        )
    if top_gap:
        witnesses[i3] = (labels[vals[sl.top]],)
    return AxiomReport({i1: i is None, i2: not bad, i3: not top_gap}, witnesses, vacuous)


def check_interior(op: InteriorOperator) -> AxiomReport:
    """Evaluate I1 (contraction), I2 (monotonicity), I3 (top) exhaustively."""
    return _axioms(op.lattice, op.table)


def discrete_op(sl: SublocaleLattice) -> InteriorOperator:
    return InteriorOperator(sl, tuple(range(sl.n)))


def trivial_op(sl: SublocaleLattice) -> InteriorOperator:
    table = [sl.bottom] * sl.n
    table[sl.top] = sl.top
    return InteriorOperator(sl, tuple(table))


def _same_lattice(ops):
    first = ops[0].lattice
    for op in ops[1:]:
        if op.lattice.host != first.host:
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
    acc = ops[0].table
    for op in ops[1:]:
        acc = [combine(p, q) for p, q in zip(acc, op.table)]
    return type(ops[0])._of_points(sl, acc)


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
    i = _first(x & ~y for x, y in zip(a.table, b.table))
    return None if i is None else sl.labels[i]


def random_op(sl: SublocaleLattice, rng) -> InteriorOperator:
    """Monotone closure of a random contractive seed, with the top forced.

    The seed picks any g(S) <= S; the closure S |-> join{g(T) : T <= S} is
    contractive because every g(T) <= T <= S, and monotone because the index
    sets nest. Forcing the top entry then gives I3.
    """
    return InteriorOperator._of_points(sl, _closed_draw(sl, rng))


def _closed_draw(sl: SublocaleLattice, rng, base=None, ones=1, drawn=1) -> list:
    """A batch: base (zero when None) with a draw into each lane whose bit 0
    is in drawn, entry i the join of base[j] | seed[j] over j <= i, the top
    forced in every lane of ones.

    S_l is the powerset of the points, so a uniform seed below i is one fair
    bit per point of i: seed[i] keeps the bits of one getrandbits word that
    lie on the points of i in a drawn lane. One pass in index order draws
    and closes: index order is a linear extension, so each lower cover of i
    is final before i.
    """
    getrandbits, acc = rng.getrandbits, []
    for i, b, covers in zip(range(sl.n), base or [0] * sl.n, sl.lower_covers):
        m = i * drawn
        x = getrandbits(m.bit_length()) & m | b
        for c in covers:
            x |= acc[c]
        acc.append(x)
    acc[sl.top] = sl.top * ones
    return acc


# -- continuity ---------------------------------------------------------------

@dataclass(frozen=True)
class ContinuityReport:
    ok: bool
    checked: int
    witness: tuple | None = None
    witness_index: int | None = None

    def to_json(self):
        return {"ok": self.ok, "checked": self.checked, "witness": self.witness}


def _target_transfer(f: LocalicMap, op_m, op_l=None) -> SublocaleTransfer:
    """f's transfer, once op_m, when given, is known to live on f's target,
    and op_l, when given, on its source. A frame given no operator is admitted
    under the bound in force; one given an operator was admitted when its
    lattice was enumerated."""
    if op_l is not None and op_l.lattice.host != f.source:
        raise HostMismatch("source operator does not live on the map's source frame",
                           witness=(op_l.lattice.host.key(), f.source.key()))
    if op_m is not None and op_m.lattice.host != f.target:
        raise HostMismatch("target operator does not live on the map's target frame",
                           witness=(op_m.lattice.host.key(), f.target.key()))
    _admit(*[fr for fr, op in ((f.source, op_l), (f.target, op_m)) if op is None])
    return _transfer_cached(f)


def _continuity_gaps(pre, lhs, rhs) -> list:
    """Per target T, the points of lhs[T] (those of f_-1[i_M(T)]) outside
    rhs[pre[T]] (those of i_L(f_-1[T])): nonzero in the lanes where
    continuity fails at T."""
    return [v & ~rhs[k] for v, k in zip(lhs, pre)]


def _first_gap(pre, lhs, rhs):
    """(T, lhs[T], rhs[pre[T]]) at the first T where a one-lane
    _continuity_gaps is nonzero, or None."""
    j = _first(_continuity_gaps(pre, lhs, rhs))
    return None if j is None else (j, lhs[j], rhs[pre[j]])


def _continuity(t: SublocaleTransfer, lhs, rhs) -> ContinuityReport:
    """The ContinuityReport of a one-lane _continuity_gaps, naming the first gap."""
    gap = _first_gap(t.preimage_table, lhs, rhs)
    if gap is None:
        return ContinuityReport(True, len(lhs))
    (j, p, q), labels = gap, t.source_lattice.labels
    return ContinuityReport(False, j + 1, (t.target_lattice.labels[j], labels[p], labels[q]), j)


def is_I_continuous(f: LocalicMap, op_l: InteriorOperator,
                    op_m: InteriorOperator) -> ContinuityReport:
    """Check f_-1[i_M(T)] <= i_L(f_-1[T]) for every sublocale T of the target."""
    t = _target_transfer(f, op_m, op_l)
    return _continuity(t, _preimages(t, op_m.table), op_l.table)


@dataclass(frozen=True)
class CompositionReport:
    f_continuous: bool
    g_continuous: bool
    composite: ContinuityReport | None
    preimage_functorial: bool | None
    functorial_witness: tuple | None = None

    @property
    def status(self) -> str:
        if not (self.f_continuous and self.g_continuous):
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


def check_composition(f: LocalicMap, g: LocalicMap, op_l: InteriorOperator,
                      op_m: InteriorOperator, op_n: InteriorOperator) -> CompositionReport:
    """Composites of continuous maps stay continuous; preimages compose.

    A failed precondition (f or g not continuous for the given operators) is
    reported, not raised.
    """
    return _composition(_target_transfer(f, op_m, op_l), _target_transfer(g, op_n, op_m),
                        op_l.table, op_m.table, op_n.table)


def _composition(tf: SublocaleTransfer, tg: SublocaleTransfer, l, m, n) -> CompositionReport:
    """check_composition on the tables l, m and n of operators on L, M and
    N, for the transfers tf of f: L -> M and tg of g: M -> N."""
    f_ok = _first_gap(tf.preimage_table, _preimages(tf, m), l) is None
    g_ok = _first_gap(tg.preimage_table, _preimages(tg, n), m) is None
    if not (f_ok and g_ok):
        return CompositionReport(f_ok, g_ok, None, None)
    t = _transfer_cached(compose_localic(tg.map, tf.map))
    pf, pg = tf.preimage_table, tg.preimage_table
    j = _first(k != pf[i] for k, i in zip(t.preimage_table, pg))
    return CompositionReport(f_ok, g_ok, _continuity(t, _preimages(t, n), l), j is None,
                             None if j is None else (t.target_lattice.labels[j],))


# -- initial operators --------------------------------------------------------

GAP_KINDS = ("contraction-gap", "top-gap", "continuity-gap")
_PREDICATES = dict(zip(GAP_KINDS, ("unit-gap", "image-not-whole-target", "counit-gap")))


@dataclass(frozen=True)
class InitialReport:
    """An induced operator S |-> f_-1[op_M(f[S])], read off the point masks
    `pulled` of f_-1[op_M(T)] for every target T. The lift computes what its
    checks read, `passed` (the axiom verdicts) and `gaps` (a mask per kind in
    GAP_KINDS, over source indices for contraction and the top, over target
    indices for continuity); the candidate operator, the axiom and continuity
    reports and the anomaly dicts are built on first read."""

    transfer: SublocaleTransfer
    pulled: list
    gaps: tuple
    passed: dict

    # _FIRST: drop contraction gaps (h1 is vacuous) and keep only the first continuity gap
    _OPERATOR, _AXIOMS, _VACUOUS, _FIRST = InteriorOperator, ("I1", "I2", "I3"), (), False

    @classmethod
    def _of_lane(cls, t: SublocaleTransfer, lifted) -> "InitialReport":
        """The report of a one-lane lift (pulled, (gaps, bad, top), continuity gaps)."""
        pulled, (gaps, bad, top), continuity = lifted
        contraction, continuity = _nonzero(gaps), _nonzero(continuity)
        if cls._FIRST:
            contraction, continuity = 0, continuity & -continuity
        passed = dict(zip(cls._AXIOMS, (not contraction, not bad, not top)))
        return cls(t, pulled, (contraction, top and 1 << t.source_lattice.top, continuity), passed)

    def _checked(self) -> tuple:
        """(lhs, vals): the axioms check vals, continuity lhs[T] against vals[f_-1[T]]."""
        return self.pulled, [self.pulled[x] for x in self.transfer.image_table]

    @cached_property
    def candidate(self) -> InteriorOperator:
        t = self.transfer
        return self._OPERATOR._of_points(t.source_lattice, [self.pulled[x] for x in t.image_table])

    @cached_property
    def axioms(self) -> AxiomReport:
        sl, vals = self.transfer.source_lattice, self._checked()[1]
        return _axioms(sl, vals, self._AXIOMS, self._VACUOUS)

    @cached_property
    def continuity(self) -> ContinuityReport:
        return _continuity(self.transfer, *self._checked())

    @property
    def ok(self) -> bool:
        return all(self.passed.values()) and not self.gaps[2]

    @cached_property
    def anomalies(self) -> tuple:
        t = self.transfer
        sl, tl = t.source_lattice, t.target_lattice
        out = []
        confirmed = _confirmed(t, self.gaps)
        for kind, gaps, ok, lat in zip(GAP_KINDS, self.gaps, confirmed, (sl, sl, tl)):
            for i in bits(gaps):
                at_top = kind == "continuity-gap" and i == tl.top
                out.append({"kind": kind, "at": lat.labels[i],
                            "predicate": "image-not-whole-target" if at_top else _PREDICATES[kind],
                            "confirmed": bool(ok >> i & 1)})
        return tuple(out)

    @property
    def unexplained(self) -> tuple:
        return tuple(a for a in self.anomalies if not a["confirmed"])

    def to_json(self):
        return {
            "axioms": self.axioms.to_json(),
            "continuity": self.continuity.to_json(),
            "anomalies": list(self.anomalies),
        }


def initial_interior(f: LocalicMap, op_m: InteriorOperator) -> InitialReport:
    """The InitialReport of the induced source operator S |-> f_-1[i_M(f[S])],
    whose `candidate` is that operator.

    Monotonicity always holds (three monotone factors). Contraction and the
    top law can genuinely fail; every failure is classified against a gap
    predicate of the adjunction: contraction failures require a unit gap
    f_-1[f[S]] != S, top/continuity-at-top failures require f[L] != M, and
    continuity failures elsewhere require a counit gap f[f_-1[T]] != T.
    Unconfirmed anomalies would mean an implementation bug.
    """
    t = _target_transfer(f, op_m)
    return InitialReport._of_lane(t, _lift(t, op_m.table))


def _preimages(t: SublocaleTransfer, xs, ones=1) -> list:
    """f_-1 of each entry of the batch xs, all lanes at once: target point q
    pulls back to its fibre pre[1 << q], the source points f sends to q, as
    ((x >> q) & ones) * fibre. One lane is read off the preimage table."""
    pre = t.preimage_table
    if ones == 1:
        return [pre[x] for x in xs]
    fibres = [(q, fibre) for q in range(t.target_lattice.top.bit_length())
              if (fibre := pre[1 << q])]
    out = []
    for x in xs:
        p = 0
        for q, fibre in fibres:
            p |= (x >> q & ones) * fibre
        out.append(p)
    return out


def _lift(t: SublocaleTransfer, xs, ones=1) -> tuple:
    """Every lane of the packed target tables xs lifted through t: (pulled,
    the _axiom_gaps of the induced operator, its _continuity_gaps)."""
    pulled = _preimages(t, xs, ones)  # f_-1[i_M(T)] for every T
    vals = [pulled[x] for x in t.image_table]
    return pulled, _axiom_gaps(t.source_lattice, vals, ones), _continuity_gaps(
        t.preimage_table, pulled, vals)


def _candidate(t: SublocaleTransfer, xs) -> list:
    """The table of the induced operator S |-> f_-1[op_M(f[S])] of the
    one-lane table xs: the lift's image gather."""
    pulled = _preimages(t, xs)
    return [pulled[x] for x in t.image_table]


def _initial_lift(t: SublocaleTransfer, xs) -> list:
    """The table of the initial lift of the one-lane table xs: entry S is
    f_-1[op_M(forall_f S)], the preimages gathered by forall_table."""
    pulled = _preimages(t, xs)
    return [pulled[k] for k in t.forall_table]


def initial_lift(f: LocalicMap, op_m: InteriorOperator) -> InteriorOperator:
    """The initial lift S |-> f_-1[i_M(forall_f S)], where forall_f S =
    not f[not S] is the largest T with f_-1[T] <= S.

    Given that op_m is monotone (I2), it is the join of f_-1[i_M(T)] over
    the T with f_-1[T] <= S, so it is the least operator on L that makes f
    continuous, and every operator above it does too. For an h operator h_M,
    apply it to `h_m.core`. The lift of a source f_k: L -> M_k is
    `op_join([initial_lift(f, op) for f, op in zip(maps, ops)])`.
    """
    t = _target_transfer(f, op_m)
    return InteriorOperator._of_points(t.source_lattice, _initial_lift(t, op_m.table))


def closure_dual(op: InteriorOperator) -> InteriorOperator:
    """The dual S |-> not op(not S) of op, as a table on the same lattice:
    S_l is the Boolean algebra of point sets, so not is `sl.complement`, an
    XOR with the top's point mask. It is an involution, and the initial lift
    is the dual of the initial closure: not i_f(not S) = f_-1[c_M(f[S])]
    with c_M = closure_dual(op_M)."""
    sl = op.lattice
    return InteriorOperator(sl, [sl.complement(op(sl.complement(i))) for i in range(sl.n)])


def _confirmed(t: SublocaleTransfer, gaps) -> tuple:
    """Per kind, the mask of the gaps that exhibit their predicate under t:
    a unit gap at S, f[L] != M for the top, and at T the counit gap, which
    at the top is f[L] != M too."""
    unit, counit = t.adjunction_gaps
    contraction, top, continuity = gaps
    image_gap = counit >> t.target_lattice.top & 1
    return contraction & unit, top if image_gap else 0, continuity & counit


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


def check_universal_property(f: LocalicMap, op_m: InteriorOperator, g: LocalicMap,
                             op_n: InteriorOperator) -> UniversalReport:
    """g is continuous into (L, i_{L_f}) iff f.g is continuous into (M, i_M).

    When the two sides disagree, the disagreement is classified: the
    initial-side-only case needs a unit gap at the witness, the
    composite-side-only case needs f to fail its own continuity for the
    candidate at the witness.
    """
    t = _target_transfer(f, op_m)
    _target_transfer(g, None, op_n)
    return _universal_report(t, g, _candidate(t, op_m.table), op_m.table, op_n.table,
                             "f-continuity-gap-at-witness")


def _universal_report(t: SublocaleTransfer, g: LocalicMap, cand, m, n, predicate) -> UniversalReport:
    """Both sides of the lifting equivalence for the tables cand on L, m on
    M and n on N of interior operators, f: L -> M the map of the
    transfer t, with any disagreement classified."""
    f = t.map
    if g.target != f.source:
        raise HostMismatch("g must land in the source of f",
                           witness=(g.target.key(), f.source.key()))
    tg, tfg = _transfer_cached(g), _transfer_cached(compose_localic(f, g))
    a = _continuity(tg, _preimages(tg, cand), n)
    b = _continuity(tfg, _preimages(tfg, m), n)
    if a.ok == b.ok:
        return UniversalReport(a, b, ())
    if a.ok:  # confirmed when f fails its own continuity for cand and m at u
        u = b.witness_index
        anomaly = {"kind": "composite-side-only", "at": t.target_lattice.labels[u],
                   "predicate": predicate,
                   "confirmed": bool(_continuity_gaps(t.preimage_table, _preimages(t, m), cand)[u])}
    else:
        i = a.witness_index
        anomaly = {"kind": "initial-side-only", "at": t.source_lattice.labels[i],
                   "predicate": "unit-gap", "confirmed": bool(t.adjunction_gaps[0] >> i & 1)}
    return UniversalReport(a, b, (anomaly,))


# -- open sublocales ----------------------------------------------------------

def open_fixpoints(op: InteriorOperator) -> list:
    """The indices of all sublocales with i(S) = S (the equality reading)."""
    return [i for i in range(op.lattice.n) if op(i) == i]


@dataclass(frozen=True)
class OpenPreimageReport:
    status: str  # pass / fail / precondition-unmet
    checked: int
    witness: tuple | None = None

    to_json = asdict


def check_open_preimage(f: LocalicMap, op_l: InteriorOperator,
                        op_m: InteriorOperator) -> OpenPreimageReport:
    """Preimages of open (fixpoint) sublocales are open when f is continuous."""
    return _open_preimage(_target_transfer(f, op_m, op_l), op_l.table, op_m.table)


def _open_preimage(t: SublocaleTransfer, l, m) -> OpenPreimageReport:
    """check_open_preimage for the tables l on the source and m on the
    target of t: a fixpoint is an index equality."""
    pre, sl, tl = t.preimage_table, t.source_lattice, t.target_lattice
    if _first_gap(pre, _preimages(t, m), l) is not None:
        return OpenPreimageReport("precondition-unmet", 0)
    checked = 0
    for j, v in enumerate(m):
        if j == v:
            checked += 1
            s = pre[j]
            if l[s] != s:
                return OpenPreimageReport("fail", checked, (tl.labels[j], sl.labels[s]))
    return OpenPreimageReport("pass", checked)


# -- constrained sampling -----------------------------------------------------

def make_continuous_op(f: LocalicMap, op_m: InteriorOperator, rng) -> InteriorOperator:
    """A random source operator for which f is guaranteed I-continuous: the
    initial lift of op_m joined with a random contractive seed and closed
    monotonely, so it lies above the lift and keeps contraction."""
    t = _target_transfer(f, op_m)
    return InteriorOperator._of_points(t.source_lattice, _continuous_draw(t, op_m.table, rng))


def _continuous_draw(t: SublocaleTransfer, xs, rng) -> list:
    """make_continuous_op's draw for the table xs of op_M."""
    return _closed_draw(t.source_lattice, rng, _initial_lift(t, xs))
