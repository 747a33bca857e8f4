"""h operators on S_l(L), checked through their cores.

An h operator need not be contractive: the axioms only constrain its core
c(S) = S cap h(S). h1 (c(S) inside S) holds for every table and is kept as a
standing vacuity certificate; h2 is monotonicity of the core and h3 is the
top law, since c(L) = h(L). So an h operator is valid exactly when its core
is an interior operator, and f is h-continuous exactly when it is
I-continuous for the cores, because preimages preserve meets. Every path
here is _core followed by an interior kernel, with one lift for both kinds
of operator: initial_h lifts the core of h_M through interior._lift.

The paper lets h operators act on complemented sublocales. S_l(L) of a
finite frame is Boolean, so that is all of S_l(L), and h operators are
tables over the same sublocale indices as interior operators.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .interior import (
    AxiomReport,
    CompositionReport,
    ContinuityReport,
    InitialReport,
    InteriorOperator,
    UniversalReport,
    _axioms,
    _candidate,
    _closed_draw,
    _lift,
    _preimages,
    _target_transfer,
    _universal_report,
    check_composition,
    discrete_op,
    is_I_continuous,
    trivial_op,
)
from .maps import LocalicMap
from .sublocales import SublocaleLattice


@lru_cache(maxsize=None)
def complemented_fragment(sl: SublocaleLattice) -> SublocaleLattice:
    """The complemented sublocales of the host: sl itself, since a
    SublocaleLattice is the Boolean algebra of its host's points."""
    return sl


@dataclass(frozen=True)
class HOperator(InteriorOperator):
    """Table over sublocale indices; check_h is the validator."""

    @cached_property
    def core(self) -> InteriorOperator:
        """S |-> S cap h(S), the operator the interior kernels check."""
        return InteriorOperator._of_points(self.lattice, _core(self.lattice, self.table))


def _core(sl: SublocaleLattice, xs, ones=1) -> list:
    """The cores S cap h(S) of the packed tables xs."""
    return [i * ones & x for i, x in zip(range(sl.n), xs)]


_H_AXIOMS = ("h1", "h2", "h3")


def check_h(op: HOperator) -> AxiomReport:
    """h1, h2, h3 as I1, I2, I3 of the core; h1 is vacuous but still run."""
    return _axioms(op.lattice, _core(op.lattice, op.table), _H_AXIOMS, ("h1",))


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
    """A random interior operator read as an h operator: random_op's draw,
    table and stream, built as an HOperator.

    Contractive-and-monotone gives h2 directly: the core is the operator.
    The generator therefore covers only the contractive part of the
    operator lattice; valid non-contractive operators exist above it.
    """
    return HOperator._of_points(sl, _closed_draw(sl, rng))


def is_h_continuous(f: LocalicMap, h_l: HOperator, h_m: HOperator) -> ContinuityReport:
    """Check f_-1[T cap h_M(T)] <= f_-1[T] cap h_L(f_-1[T]) for every T: the
    interior continuity of f for the cores."""
    return is_I_continuous(f, h_l.core, h_m.core)


def check_h_composition(f: LocalicMap, g: LocalicMap, h_l: HOperator, h_m: HOperator,
                        h_n: HOperator) -> CompositionReport:
    """Composites of h-continuous maps stay h-continuous: check_composition
    on the cores."""
    return check_composition(f, g, h_l.core, h_m.core, h_n.core)


class HInitialReport(InitialReport):
    """The InitialReport of initial_h: the axioms and continuity are those of
    the cores, and the candidate is an HOperator."""

    _OPERATOR, _AXIOMS, _VACUOUS, _FIRST = HOperator, _H_AXIOMS, ("h1",), True

    def _checked(self) -> tuple:
        """The cores f_-1[T ^ h_M(T)] = f_-1[T] ^ f_-1[h_M(T)] (preimages are set
        preimages of points) and S ^ f_-1[h_M(f[S])]."""
        t, (lhs, vals) = self.transfer, super()._checked()
        return [k & q for k, q in zip(t.preimage_table, lhs)], _core(t.source_lattice, vals)


def initial_h(f: LocalicMap, h_m: HOperator) -> HInitialReport:
    """The report of the induced source operator S |-> f_-1[h_M(f[S])], whose
    `candidate` is that operator.

    The verdicts are the interior lift's on the core c_M of h_M: as
    f_-1[T ^ h_M(T)] = f_-1[T] ^ f_-1[h_M(T)], S <= f_-1[f[S]] and
    f_-1 f f_-1 = f_-1, it has the h2, h3 and continuity gaps of the
    candidate's core, and its contraction gaps are what h1 ignores, so h2
    holds whenever h_M is valid. Gaps are classified as in the interior
    case; only the first continuity gap is kept.
    """
    t = _target_transfer(f, h_m)
    _, *gaps = _lift(t, h_m.core.table)
    return HInitialReport._of_lane(t, (_preimages(t, h_m.table), *gaps))


def check_h_universal(f: LocalicMap, h_m: HOperator, g: LocalicMap,
                      h_n: HOperator) -> UniversalReport:
    """g is h-continuous into the initial candidate iff f.g is into (M, h_M).

    Disagreements are classified like the interior case, on the cores. The
    candidate is initial_h's, not the initial interior operator of the
    cores: the two differ wherever there is a unit gap.
    """
    t = _target_transfer(f, h_m)
    _target_transfer(g, None, h_n)
    return _universal_report(t, g, _core(t.source_lattice, _candidate(t, h_m.table)),
                             _core(h_m.lattice, h_m.table), _core(h_n.lattice, h_n.table),
                             "f-h-continuity-gap-at-witness")
