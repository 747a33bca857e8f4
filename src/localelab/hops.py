"""h operators on S_l(L), checked through their cores.

An h operator need not be contractive: the axioms only constrain its core
c(S) = S cap h(S). h1 (c(S) inside S) holds for every table and is kept as a
standing vacuity certificate; h2 is monotonicity of the core and h3 is the
top law, since c(L) = h(L). So an h operator is valid exactly when its core
is an interior operator, and f is h-continuous exactly when it is
I-continuous for the cores, because preimages preserve meets. Every check
here hands cores to the interior kernels.

The paper lets h operators act on complemented sublocales. S_l(L) of a
finite frame is Boolean, so that is all of S_l(L), and h operators are
tables over the same sublocale indices as interior operators.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import HostMismatch
from .interior import (
    AxiomReport,
    CompositionReport,
    ContinuityReport,
    InitialReport,
    InteriorOperator,
    UniversalReport,
    check_composition,
    check_interior,
    discrete_op,
    is_I_continuous,
    random_op,
    trivial_op,
)
from .maps import LocalicMap, compose_localic
from .sublocales import SublocaleLattice, transfer_of


@lru_cache(maxsize=None)
def complemented_fragment(sl: SublocaleLattice) -> SublocaleLattice:
    """The complemented sublocales of the host, which are all of them.

    Returns sl itself; raises ValueError if some sublocale has no complement,
    which a Boolean S_l(L) rules out.
    """
    for i in range(sl.n):
        if sl.complement(i) is None:
            raise ValueError(f"sublocale {sl.label(i)} of {sl.host.key()} has no complement")
    return sl


@dataclass(frozen=True)
class HOperator(InteriorOperator):
    """Table over sublocale indices; check_h is the validator."""

    def __post_init__(self):
        complemented_fragment(self.lattice)
        super().__post_init__()

    @cached_property
    def core(self) -> InteriorOperator:
        """S |-> S cap h(S), the operator the interior kernels check."""
        sl = self.lattice
        return InteriorOperator(sl, tuple(sl.meet(i, v) for i, v in enumerate(self.table)))


_H_AXIOMS = {"I1": "h1", "I2": "h2", "I3": "h3"}


def check_h(op: HOperator) -> AxiomReport:
    """h1, h2, h3 as I1, I2, I3 of the core; h1 is vacuous but still run."""
    rep = check_interior(op.core)
    return AxiomReport(
        {_H_AXIOMS[k]: v for k, v in rep.passed.items()},
        {_H_AXIOMS[k]: v for k, v in rep.witnesses.items()},
        vacuous=("h1",),
    )


def h_from_interior(op: InteriorOperator) -> HOperator:
    """The same table read as an h operator.

    Valid interior operators are valid h operators: contraction turns the
    core into the operator itself, and monotonicity becomes h2.
    """
    return HOperator(op.lattice, op.table)


def interior_from_h(h: HOperator) -> InteriorOperator:
    """The same table read as an interior operator."""
    return InteriorOperator(h.lattice, h.table)


def discrete_h(sl: SublocaleLattice) -> HOperator:
    return h_from_interior(discrete_op(sl))


def trivial_h(sl: SublocaleLattice) -> HOperator:
    return h_from_interior(trivial_op(sl))


def random_h(sl: SublocaleLattice, rng) -> HOperator:
    """A random interior operator read as an h operator.

    Contractive-and-monotone gives h2 directly: the core is the operator.
    The generator therefore covers only the contractive part of the
    operator lattice; valid non-contractive operators exist above it.
    """
    return h_from_interior(random_op(sl, rng))


def is_h_continuous(f: LocalicMap, h_l: HOperator, h_m: HOperator) -> ContinuityReport:
    """Check f_-1[T cap h_M(T)] <= f_-1[T] cap h_L(f_-1[T]) for every T: the
    interior continuity of f for the cores."""
    return is_I_continuous(f, h_l.core, h_m.core)


def check_h_composition(
    f: LocalicMap,
    g: LocalicMap,
    h_l: HOperator,
    h_m: HOperator,
    h_n: HOperator,
) -> CompositionReport:
    """Composites of h-continuous maps stay h-continuous: check_composition
    on the cores."""
    return check_composition(f, g, h_l.core, h_m.core, h_n.core)


def initial_h(f: LocalicMap, h_m: HOperator):
    """The induced source operator S |-> f_-1[h_M(f[S])], with its report.

    h1 always holds, and so does h2 when h_M is valid: by the unit
    S <= f_-1[f[S]], the candidate's core S cap f_-1[h_M(f[S])] equals
    S cap f_-1[c_M(f[S])] for the core c_M of h_M, which is monotone in S.
    h3 and continuity failures are classified against the same adjunction
    gaps as the interior case.
    """
    if h_m.lattice.host != f.target:
        raise HostMismatch(
            "operator does not live on the map's target frame",
            witness=(h_m.lattice.host.key(), f.target.key()),
        )
    t = transfer_of(f)
    sll, slm = t.source_lattice, t.target_lattice
    cand = HOperator(sll, tuple(t.preimage_table[h_m(t.image_table[i])] for i in range(sll.n)))
    axioms = check_h(cand)
    cont = is_h_continuous(f, cand, h_m)

    surjective = t.image_table[sll.top] == slm.top
    anomalies = []
    if not axioms.passed["h3"]:
        anomalies.append(
            {
                "kind": "top-gap",
                "at": sll.label(sll.top),
                "predicate": "image-not-whole-target",
                "confirmed": not surjective,
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
            anomalies.append(
                {
                    "kind": "continuity-gap",
                    "at": slm.label(u),
                    "predicate": "counit-gap",
                    "confirmed": t.image_table[t.preimage_table[u]] != u,
                }
            )
    return cand, InitialReport(axioms, cont, tuple(anomalies))


def check_h_universal(
    f: LocalicMap, h_m: HOperator, g: LocalicMap, h_n: HOperator
) -> UniversalReport:
    """g is h-continuous into the initial candidate iff f.g is into (M, h_M).

    Disagreements are classified like the interior case, on the cores. The
    candidate is initial_h's, not the initial interior operator of the
    cores: the two differ wherever there is a unit gap.
    """
    if g.target != f.source:
        raise HostMismatch(
            "g must land in the source of f", witness=(g.target.key(), f.source.key())
        )
    cand, _ = initial_h(f, h_m)
    a = is_h_continuous(g, h_n, cand)
    b = is_h_continuous(compose_localic(f, g), h_n, h_m)
    anomalies = []
    if a.ok != b.ok:
        t = transfer_of(f)
        sl = cand.lattice
        if a.ok:
            u = b.witness_index
            lhs = t.preimage_table[h_m.core(u)]
            rhs = cand.core(t.preimage_table[u])
            anomalies.append(
                {
                    "kind": "composite-side-only",
                    "at": h_m.lattice.label(u),
                    "predicate": "f-h-continuity-gap-at-witness",
                    "confirmed": not sl.le(lhs, rhs),
                }
            )
        else:
            i = a.witness_index
            anomalies.append(
                {
                    "kind": "initial-side-only",
                    "at": sl.label(i),
                    "predicate": "unit-gap",
                    "confirmed": t.preimage_table[t.image_table[i]] != i,
                }
            )
    return UniversalReport(a, b, tuple(anomalies))
