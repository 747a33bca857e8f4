"""Interior operators: axioms, the operator lattice, continuity, initial lifts.

Expected values in the fixtures below were frozen from direct evaluation of
the defining formulas (contraction/monotonicity/top scans, the pointwise
order, and the transfer tables); the corpus scans re-derive the gap
predicates from the transfer tables as an independent cross-check.
"""
import random
from functools import cache
from itertools import product

import pytest

from localelab.corpus import chain3, chain4, child_seed, corpus_frames, square, two
from localelab.errors import EmptyFamily, HostMismatch, SizeLimit
from localelab.interior import (
    InteriorOperator,
    _Batch,
    _continuity_gaps,
    _lift,
    _nonzero,
    _preimages,
    check_composition,
    check_interior,
    check_open_preimage,
    check_universal_property,
    closure_dual,
    discrete_op,
    initial_interior,
    initial_lift,
    is_I_continuous,
    make_continuous_op,
    op_join,
    op_le,
    op_le_gap,
    op_meet,
    open_fixpoints,
    random_op,
    trivial_op,
)
from localelab.maps import (
    compose_localic,
    identity_localic,
    localic_map,
    right_adjoint,
)
from localelab.sublocales import SublocaleLattice, enumerate_sublocales, transfer_of
from oracles import (
    CHAIN4_OP,
    all_interior_tables,
    brute_initial_lift,
    maps_in_hom_order,
    table_from_labels,
)

@cache
def corpus_maps(max_n):
    """All localic maps between corpus frames of size <= max_n."""
    frames = [fr for _, fr in corpus_frames(3) if fr.n <= max_n]
    return tuple(maps_in_hom_order(product(frames, frames)))


def seeded(tag, k=0):
    return random.Random(child_seed(tag, k))


def f_up():
    return localic_map(two(), chain3(), (0, 2))


def f_dn():
    # right adjoint of the inclusion TWO -> CHAIN3; collapses m to 0
    f = right_adjoint(two(), chain3(), (0, 2))
    assert f.table == (0, 0, 1)
    return f


def test_check_interior_spec_examples():
    sl = enumerate_sublocales(chain3())
    assert check_interior(discrete_op(sl)).ok
    assert check_interior(trivial_op(sl)).ok
    # sends {m,1} to {0,1}, which is not below it
    bad = InteriorOperator(sl, (0, 1, 1, 3))
    rep = check_interior(bad)
    assert rep.passed == {"I1": False, "I2": True, "I3": True}
    assert rep.witnesses == {"I1": ("{m,1}", "{0,1}")}
    assert not rep.ok
    assert rep.to_json()["witnesses"]["I1"] == ["{m,1}", "{0,1}"]


def test_operator_table_must_be_total():
    sl = enumerate_sublocales(chain3())
    with pytest.raises(ValueError):
        InteriorOperator(sl, (0, 1, 2))
    with pytest.raises(ValueError):
        InteriorOperator(sl, (0, 1, 2, 9))
    # an entry that is no integer is refused, not built and failed on later
    for bad in ((0, 1, 2, 2.5), (0, 1, 2, 3.0), (0, 1, 2, None)):
        with pytest.raises(ValueError, match="not total"):
            InteriorOperator(sl, bad)


def test_discrete_trivial_values():
    sl = enumerate_sublocales(chain3())
    assert discrete_op(sl).describe() == {
        "{1}": "{1}",
        "{0,1}": "{0,1}",
        "{m,1}": "{m,1}",
        "{0,m,1}": "{0,m,1}",
    }
    assert trivial_op(sl).describe() == {
        "{1}": "{1}",
        "{0,1}": "{1}",
        "{m,1}": "{1}",
        "{0,m,1}": "{0,m,1}",
    }


def test_op_join_meet_bounds_and_errors():
    sl = enumerate_sublocales(chain3())
    d, t = discrete_op(sl), trivial_op(sl)
    assert op_join([t, d]).table == d.table
    assert op_meet([t, d]).table == t.table
    with pytest.raises(EmptyFamily):
        op_join([])
    with pytest.raises(EmptyFamily):
        op_meet([])
    other = discrete_op(enumerate_sublocales(square()))
    with pytest.raises(HostMismatch):
        op_join([d, other])


def test_op_join_meet_of_random_pairs_valid():
    # spec of the operator lattice: pointwise joins/meets of valid operators
    # are valid, on every corpus frame with at most 6 elements
    frames = [fr for _, fr in corpus_frames(4) if fr.n <= 6]
    assert len(frames) >= 3
    for fr in frames:
        sl = enumerate_sublocales(fr)
        rng = seeded("op-pairs-" + fr.key())
        for _ in range(100):
            a, b = random_op(sl, rng), random_op(sl, rng)
            assert check_interior(op_join([a, b])).ok
            assert check_interior(op_meet([a, b])).ok


def test_op_le_examples():
    sl = enumerate_sublocales(chain3())
    d, t = discrete_op(sl), trivial_op(sl)
    assert op_le(t, d)
    assert not op_le(d, t)
    assert op_le_gap(d, t) == "{0,1}"
    assert op_le_gap(t, d) is None
    x = random_op(sl, seeded("op-le-refl"))
    assert op_le(x, x)
    with pytest.raises(HostMismatch):
        op_le(d, discrete_op(enumerate_sublocales(square())))


def test_operator_lattice_compares_hosts_not_lattice_objects():
    # S_l of one frame is one lattice object under every bound, and a lattice
    # built directly compares by its host; other frames still raise
    wide = enumerate_sublocales(chain3(), limit=16)
    sl = enumerate_sublocales(chain3())
    assert wide is sl
    direct = SublocaleLattice(chain3(), sl.masks)
    t, d = trivial_op(direct), discrete_op(sl)
    assert op_le(t, d) and not op_le(d, t)
    assert op_le_gap(d, t) == "{0,1}"
    assert op_join([t, d]).table == d.table
    assert op_meet([d, t]).table == t.table
    other = discrete_op(enumerate_sublocales(square(), limit=16))
    for pair in ((t, other), (other, d)):
        with pytest.raises(HostMismatch):
            op_le(*pair)
        with pytest.raises(HostMismatch):
            op_le_gap(*pair)
        with pytest.raises(HostMismatch):
            op_join(pair)
        with pytest.raises(HostMismatch):
            op_meet(pair)


def test_operator_lattice_laws():
    rng = seeded("lattice-laws")
    for fr in [fr for _, fr in corpus_frames(3) if fr.n <= 5]:
        sl = enumerate_sublocales(fr)
        for _ in range(30):
            a, b, c = (random_op(sl, rng) for _ in range(3))
            j, m = op_join([a, b]), op_meet([a, b])
            assert op_le(a, j) and op_le(b, j)
            if op_le(a, c) and op_le(b, c):
                assert op_le(j, c)
            assert op_le(m, a) and op_le(m, b)
            if op_le(c, a) and op_le(c, b):
                assert op_le(c, m)


def test_random_op_valid_and_bounded():
    for fr in [fr for _, fr in corpus_frames(3) if fr.n <= 5]:
        sl = enumerate_sublocales(fr)
        d, t = discrete_op(sl), trivial_op(sl)
        rng = seeded("random-op-" + fr.key())
        for _ in range(100):
            x = random_op(sl, rng)
            assert check_interior(x).ok
            assert op_le(t, x) and op_le(x, d)


def test_is_I_continuous_identity_and_discrete():
    sl = enumerate_sublocales(chain3())
    x = random_op(sl, seeded("cont-id"))
    rep = is_I_continuous(identity_localic(chain3()), x, x)
    assert rep.ok and rep.checked == sl.n
    # discrete source operator makes any map continuous
    rng = seeded("cont-disc")
    for f in corpus_maps(4):
        opm = random_op(enumerate_sublocales(f.target), rng)
        assert is_I_continuous(f, discrete_op(enumerate_sublocales(f.source)), opm).ok


def test_is_I_continuous_fixtures():
    # trivial below, discrete above: passes, since every proper preimage of a
    # discrete-interior sublocale that lands on the source top has the source
    # top as its bound, and I3 keeps trivial at the top
    sl2, sl3 = enumerate_sublocales(two()), enumerate_sublocales(chain3())
    assert is_I_continuous(f_up(), trivial_op(sl2), discrete_op(sl3)).ok
    # the genuinely failing pair: identity cannot shrink discrete to trivial
    rep = is_I_continuous(identity_localic(chain3()), trivial_op(sl3), discrete_op(sl3))
    assert not rep.ok
    assert rep.witness == ("{0,1}", "{0,1}", "{1}")
    assert rep.witness_index == 1
    with pytest.raises(HostMismatch):
        is_I_continuous(f_up(), trivial_op(sl3), discrete_op(sl3))


def test_composition_fixtures():
    sl2, sl3 = enumerate_sublocales(two()), enumerate_sublocales(chain3())
    i3 = identity_localic(chain3())
    d3 = discrete_op(sl3)
    rep = check_composition(i3, i3, d3, d3, d3)
    assert rep.status == "pass" and rep.preimage_functorial
    # fixture chain TWO -> CHAIN3 -> TWO with discrete operators
    rep = check_composition(f_up(), f_dn(), discrete_op(sl2), d3, discrete_op(sl2))
    assert rep.status == "pass"
    assert rep.composite.ok and rep.preimage_functorial
    assert rep.functorial_witness is None
    # unmet precondition is reported, not raised
    rep = check_composition(i3, i3, trivial_op(sl3), d3, d3)
    assert rep.status == "precondition-unmet"
    assert not rep.f_continuous and rep.g_continuous
    assert rep.composite is None and rep.preimage_functorial is None
    assert rep.to_json()["status"] == "precondition-unmet"


def test_composition_random_chains():
    rng = seeded("comp-chains")
    done = 0
    for g in corpus_maps(4):
        for f in corpus_maps(4):
            if f.target != g.source:
                continue
            opn = random_op(enumerate_sublocales(g.target), rng)
            opm = make_continuous_op(g, opn, rng)
            opl = make_continuous_op(f, opm, rng)
            rep = check_composition(f, g, opl, opm, opn)
            assert rep.status == "pass", (f.table, g.table)
            done += 1
            if done >= 200:
                return
    raise AssertionError("not enough composable corpus pairs")


def test_initial_interior_identity():
    opm = random_op(enumerate_sublocales(chain3()), seeded("init-id"))
    rep = initial_interior(identity_localic(chain3()), opm)
    cand = rep.candidate
    assert cand.table == opm.table
    assert rep.ok and rep.anomalies == ()


def test_initial_interior_trivial_counterexample():
    # the map misses m, so the image of the source top is {0,1}, a proper
    # sublocale; trivial interior sends it to the bottom and the top law dies
    f = f_up()
    sl3 = enumerate_sublocales(chain3())
    rep = initial_interior(f, trivial_op(sl3))
    cand = rep.candidate
    assert cand.describe() == {"{1}": "{1}", "{0,1}": "{1}"}
    assert rep.axioms.passed == {"I1": True, "I2": True, "I3": False}
    assert rep.axioms.witnesses == {"I3": ("{1}",)}
    t = transfer_of(f)
    sl2 = t.source_lattice
    step = t.image_table[sl2.top]
    assert sl3.label(step) == "{0,1}" and step != sl3.top
    assert sl3.label(trivial_op(sl3)(step)) == "{1}"
    assert not rep.continuity.ok
    assert rep.continuity.witness == ("{0,m,1}", "{0,1}", "{1}")
    assert rep.anomalies == (
        {
            "kind": "top-gap",
            "at": "{0,1}",
            "predicate": "image-not-whole-target",
            "confirmed": True,
        },
        {
            "kind": "continuity-gap",
            "at": "{0,m,1}",
            "predicate": "image-not-whole-target",
            "confirmed": True,
        },
    )
    assert rep.unexplained == ()


def test_initial_interior_discrete_passes():
    sl2 = enumerate_sublocales(two())
    rep = initial_interior(f_up(), discrete_op(enumerate_sublocales(chain3())))
    cand = rep.candidate
    assert cand.table == discrete_op(sl2).table
    assert rep.ok and rep.anomalies == ()


def test_initial_interior_contraction_counterexample():
    # collapsing map: preimage of the image grows {0,1} to the whole frame
    rep = initial_interior(f_dn(), discrete_op(enumerate_sublocales(two())))
    assert rep.axioms.passed == {"I1": False, "I2": True, "I3": True}
    assert rep.axioms.witnesses == {"I1": ("{0,1}", "{0,m,1}")}
    assert rep.anomalies == (
        {"kind": "contraction-gap", "at": "{0,1}", "predicate": "unit-gap", "confirmed": True},
        {"kind": "contraction-gap", "at": "{m,1}", "predicate": "unit-gap", "confirmed": True},
    )
    assert rep.unexplained == ()


def test_initial_candidate_valid_but_not_continuous():
    # all three axioms can pass while the map still fails continuity for its
    # own candidate; the gap is a counit failure away from the top
    f = localic_map(chain3(), chain4(), (1, 2, 3))
    sl4 = enumerate_sublocales(chain4())
    opm = InteriorOperator(sl4, table_from_labels(sl4, CHAIN4_OP))
    assert check_interior(opm).ok
    rep = initial_interior(f, opm)
    cand = rep.candidate
    assert cand.table == trivial_op(enumerate_sublocales(chain3())).table
    assert rep.axioms.ok
    assert not rep.continuity.ok
    assert rep.continuity.witness == ("{0,a,1}", "{0,1}", "{1}")
    assert rep.anomalies == (
        {"kind": "continuity-gap", "at": "{0,a,1}", "predicate": "counit-gap", "confirmed": True},
        {"kind": "continuity-gap", "at": "{0,b,1}", "predicate": "counit-gap", "confirmed": True},
    )
    assert rep.unexplained == ()


def test_initial_interior_corpus_classification():
    """Monotonicity never fails; every other failure matches its predicate."""
    rng = seeded("init-scan")
    i3_fail = cont_fail = 0
    for f in corpus_maps(5):
        t = transfer_of(f)
        slm = enumerate_sublocales(f.target)
        ops = [discrete_op(slm), trivial_op(slm)] + [random_op(slm, rng) for _ in range(3)]
        surjective = t.image_table[t.source_lattice.top] == t.target_lattice.top
        for opm in ops:
            rep = initial_interior(f, opm)
            assert rep.axioms.passed["I2"]
            assert rep.unexplained == ()
            if surjective:
                assert rep.axioms.passed["I3"]
            if not rep.axioms.passed["I3"]:
                i3_fail += 1
                assert not surjective
            if not rep.continuity.ok:
                cont_fail += 1
    assert i3_fail > 0 and cont_fail > 0


def test_initial_interior_coarseness():
    # the candidate sits below every operator that keeps f continuous, except
    # where a unit gap breaks the comparison; violations must carry one
    rng = seeded("coarse")
    violations = 0
    for f in corpus_maps(4):
        t = transfer_of(f)
        sl, slm = t.source_lattice, enumerate_sublocales(f.target)
        unit_exact = all(t.preimage_table[t.image_table[i]] == i for i in range(sl.n))
        for opm in [discrete_op(slm), trivial_op(slm), random_op(slm, rng)]:
            cand = initial_interior(f, opm).candidate
            for _ in range(2):
                opl = make_continuous_op(f, opm, rng)
                if op_le(cand, opl):
                    continue
                violations += 1
                assert not unit_exact
                gap = next(i for i in range(sl.n) if not sl.le(cand(i), opl(i)))
                assert t.preimage_table[t.image_table[gap]] != gap
    assert violations > 0


def test_universal_property_identity_g():
    # with g = id and the candidate itself as the source structure, the
    # initial side is reflexively continuous and the composite side is
    # exactly f's own continuity
    sl3 = enumerate_sublocales(chain3())
    for opm in (discrete_op(sl3), trivial_op(sl3)):
        f = f_up()
        rep = initial_interior(f, opm)
        cand = rep.candidate
        up = check_universal_property(f, opm, identity_localic(two()), cand)
        assert up.initial_side.ok
        assert up.composite_side.ok == rep.continuity.ok
        assert up.equivalent == rep.continuity.ok


def test_universal_property_fixture_chain():
    sl2, sl3 = enumerate_sublocales(two()), enumerate_sublocales(chain3())
    up = check_universal_property(
        f_up(), discrete_op(sl3), identity_localic(two()), discrete_op(sl2)
    )
    assert up.equivalent and up.initial_side.ok and up.composite_side.ok
    assert up.anomalies == ()
    with pytest.raises(HostMismatch):
        check_universal_property(
            f_up(), discrete_op(sl3), identity_localic(chain3()), discrete_op(sl3)
        )


def test_universal_property_initial_side_only_fixture():
    # g lands inside the unit gap of f: continuity against the candidate
    # fails although the composite is the identity
    f = localic_map(square(), two(), (0, 0, 0, 1))
    g = localic_map(two(), square(), (1, 3))
    d2 = discrete_op(enumerate_sublocales(two()))
    cand = initial_interior(f, d2).candidate
    assert cand.describe() == {
        "{1}": "{1}",
        "{a,1}": "{0,a,b,1}",
        "{b,1}": "{0,a,b,1}",
        "{0,a,b,1}": "{0,a,b,1}",
    }
    up = check_universal_property(f, d2, g, d2)
    assert not up.equivalent
    assert up.composite_side.ok and not up.initial_side.ok
    assert up.initial_side.witness == ("{b,1}", "{0,1}", "{1}")
    assert up.anomalies == (
        {"kind": "initial-side-only", "at": "{b,1}", "predicate": "unit-gap", "confirmed": True},
    )
    assert up.unexplained == ()


def test_universal_property_composite_side_only_fixture():
    f = localic_map(chain3(), chain4(), (1, 2, 3))
    sl4, sl3 = enumerate_sublocales(chain4()), enumerate_sublocales(chain3())
    opm = InteriorOperator(sl4, table_from_labels(sl4, CHAIN4_OP))
    up = check_universal_property(f, opm, identity_localic(chain3()), trivial_op(sl3))
    assert not up.equivalent
    assert up.initial_side.ok and not up.composite_side.ok
    assert up.composite_side.witness == ("{0,a,1}", "{0,1}", "{1}")
    assert up.anomalies == (
        {
            "kind": "composite-side-only",
            "at": "{0,a,1}",
            "predicate": "f-continuity-gap-at-witness",
            "confirmed": True,
        },
    )
    assert up.unexplained == ()


def test_universal_property_random_scan():
    rng = seeded("up-scan")
    done = disagreements = 0
    maps = corpus_maps(4)
    for f in maps:
        slm = enumerate_sublocales(f.target)
        gs = [g for g in maps if g.target == f.source]
        for g in gs[:4]:
            sln = enumerate_sublocales(g.source)
            for opm in (discrete_op(slm), trivial_op(slm), random_op(slm, rng)):
                opn = random_op(sln, rng)
                up = check_universal_property(f, opm, g, opn)
                done += 1
                if not up.equivalent:
                    disagreements += 1
                    assert len(up.anomalies) == 1
                assert up.unexplained == ()
                if done >= 200:
                    break
            if done >= 200:
                break
        if done >= 200:
            break
    assert done == 200 and disagreements > 0


def test_open_fixpoints_examples():
    sl = enumerate_sublocales(chain3())
    assert len(open_fixpoints(discrete_op(sl))) == sl.n
    assert [s.label() for s in open_fixpoints(trivial_op(sl))] == ["{1}", "{0,m,1}"]
    rng = seeded("fixpoints")
    for fr in (chain3(), square()):
        slf = enumerate_sublocales(fr)
        for _ in range(20):
            a, b = random_op(slf, rng), random_op(slf, rng)
            joint = {s.mask for s in open_fixpoints(op_join([a, b]))}
            common = {s.mask for s in open_fixpoints(a)} & {
                s.mask for s in open_fixpoints(b)
            }
            assert common <= joint


def test_open_preimage_fixtures():
    sl3 = enumerate_sublocales(chain3())
    x = random_op(sl3, seeded("open-pre"))
    rep = check_open_preimage(identity_localic(chain3()), x, x)
    assert rep.status == "pass"
    assert rep.checked == len(open_fixpoints(x))
    rep = check_open_preimage(
        identity_localic(chain3()), trivial_op(sl3), discrete_op(sl3)
    )
    assert rep.status == "precondition-unmet" and rep.checked == 0


def test_open_preimage_corpus():
    """Preimages of fixpoints are fixpoints, for every continuous triple."""
    rng = seeded("open-pre-scan")
    passed = 0
    for f in corpus_maps(5):
        sll = enumerate_sublocales(f.source)
        slm = enumerate_sublocales(f.target)
        opms = [discrete_op(slm), trivial_op(slm), random_op(slm, rng)]
        for opm in opms:
            for opl in (discrete_op(sll), trivial_op(sll), random_op(sll, rng),
                        make_continuous_op(f, opm, rng)):
                if not is_I_continuous(f, opl, opm).ok:
                    continue
                rep = check_open_preimage(f, opl, opm)
                assert rep.status == "pass", (f.table, rep.witness)
                passed += 1
    assert passed > 100


def test_upward_closure_of_continuity():
    # enlarging the source operator can only help the containment
    rng = seeded("upward")
    for f in corpus_maps(4):
        sll = enumerate_sublocales(f.source)
        slm = enumerate_sublocales(f.target)
        for opm in (discrete_op(slm), trivial_op(slm), random_op(slm, rng)):
            opl = make_continuous_op(f, opm, rng)
            assert is_I_continuous(f, opl, opm).ok
            bigger = op_join([opl, random_op(sll, rng)])
            assert is_I_continuous(f, bigger, opm).ok
            assert is_I_continuous(f, discrete_op(sll), opm).ok


def test_make_continuous_op_property():
    rng = seeded("make-cont")
    for f in corpus_maps(5):
        slm = enumerate_sublocales(f.target)
        for opm in (discrete_op(slm), trivial_op(slm), random_op(slm, rng)):
            opl = make_continuous_op(f, opm, rng)
            assert check_interior(opl).ok
            assert is_I_continuous(f, opl, opm).ok
    with pytest.raises(HostMismatch):
        make_continuous_op(f_up(), discrete_op(enumerate_sublocales(two())), rng)


# -- initial lifts of maps and of sources --------------------------------------

@cache
def interior_tables(sl):
    return all_interior_tables(sl)


@cache
def packed_tables(sl):
    """Every interior table of sl, one lane each, as a _Batch."""
    tables, width = interior_tables(sl), len(sl.host.prime_list) + 1
    masks = [sum(tab[i] << j * width for j, tab in enumerate(tables))
             for i in range(sl.n)]
    return _Batch.of(masks, len(tables), width)


def test_interior_table_enumerator_counts():
    """1, 4 and 125 interior operators on S_l with 1, 2 and 3 points; at 3
    points, 29 of them are idempotent and keep binary meets, the interiors of
    the topologies on 3 points (OEIS A000798)."""
    counts, topologies = {}, 0
    for _, fr in corpus_frames(3):
        sl = enumerate_sublocales(fr)
        k = len(fr.prime_list)
        tables = interior_tables(sl)
        assert len(set(tables)) == len(tables)
        assert all(check_interior(InteriorOperator(sl, t)).ok for t in tables)
        counts.setdefault(k, len(tables))
        assert counts[k] == len(tables)
        if k == 3 and not topologies:
            topologies = sum(
                all(t[t[i]] == t[i] and t[sl.meet(i, j)] == sl.meet(t[i], t[j])
                    for i in range(sl.n) for j in range(sl.n))
                for t in tables)
    assert counts == {1: 1, 2: 4, 3: 125}
    assert topologies == 29


def test_continuous_iff_above_the_initial_lift():
    """For every corpus-3 map f, every op_M and every op_L, f is continuous
    iff op_L >= initial_lift(f, op_M), and the lift is itself an operator:
    it is the least that makes f continuous. That is 50,885 (map, op_M)
    pairs against the source's 1, 4 or 125 operators each. The test is
    bounded by packing every op_L of a source lattice into one lane each, so
    a (map, op_M) pair takes one _continuity_gaps pass and one order pass."""
    pairs = 0
    for f in corpus_maps(8):
        t = transfer_of(f)
        sl, tl = t.source_lattice, t.target_lattice
        b, tables = packed_tables(sl), interior_tables(sl)
        for table in interior_tables(tl):
            op_m = InteriorOperator(tl, table)
            lift = initial_lift(f, op_m)
            assert lift.table in tables
            lhs = [p * b.ones for p in _preimages(t, op_m.table)]
            discontinuous = below = 0
            for gap in _continuity_gaps(t.preimage_table, lhs, b.masks):
                discontinuous |= gap + b.fill & b.guard
            for p, x in zip(lift.table, b.masks):
                below |= (p * b.ones & ~x) + b.fill & b.guard
            assert discontinuous == below, f.describe()
            pairs += 1
    assert pairs == 50_885


def test_paper_lift_failure_sets_are_the_gap_predicates():
    """Over every op_M of every corpus-3 map, the S where the paper's
    operator S |-> f_-1[i_M(f[S])] breaks contraction are exactly the unit
    gaps, and the T where f breaks continuity for it are exactly the counit
    gaps with f_-1[T] not the bottom. The counit-gap set alone is the
    continuity-failure set on only 86 of the 476 maps."""
    maps, counit_only = corpus_maps(8), 0
    for f in maps:
        t = transfer_of(f)
        b = packed_tables(t.target_lattice)
        _, (gaps, _, _), continuity = _lift(t, b.masks, b.ones)
        unit, counit = t.adjunction_gaps
        nonbottom = _nonzero(k != t.source_lattice.bottom for k in t.preimage_table)
        assert _nonzero(gaps) == unit, f.describe()
        assert _nonzero(continuity) == counit & nonbottom, f.describe()
        counit_only += _nonzero(continuity) == counit
    assert (len(maps), counit_only) == (476, 86)


def test_closure_dual_is_an_involution():
    for _, fr in corpus_frames(3):
        sl = enumerate_sublocales(fr)
        for table in interior_tables(sl):
            op = InteriorOperator(sl, table)
            assert closure_dual(closure_dual(op)).table == table
        assert closure_dual(discrete_op(sl)).table == discrete_op(sl).table


def test_initial_lift_is_the_dual_of_the_initial_closure():
    """not i_f(not S) = f_-1[c_M(f[S])] with c_M = closure_dual(op_M), for
    the discrete, the trivial and one drawn op_M on every corpus-3 map."""
    rng = seeded("closure-dual")
    for f in corpus_maps(8):
        t = transfer_of(f)
        tl, img, pre = t.target_lattice, t.image_table, t.preimage_table
        for op_m in (discrete_op(tl), trivial_op(tl), random_op(tl, rng)):
            c_m = closure_dual(op_m)
            want = tuple(pre[c_m(img[s])] for s in range(t.source_lattice.n))
            assert closure_dual(initial_lift(f, op_m)).table == want, f.describe()


def _source_lift(ms, ops):
    return op_join([initial_lift(f, op) for f, op in zip(ms, ops)])


def _assert_source_lift(ms, ops, op_l, gs):
    """The join of the members' lifts passes I1-I3 and makes every member
    continuous; op_l makes every member continuous iff it lies above the
    join; and each (g, op_N) in gs is continuous into the join iff every
    f_k.g is continuous. Returns the verdicts seen, op_l's first."""
    lift = _source_lift(ms, ops)
    assert check_interior(lift).ok
    assert all(is_I_continuous(f, lift, op).ok for f, op in zip(ms, ops))
    above = op_le(lift, op_l)
    assert above == all(is_I_continuous(f, op_l, op).ok for f, op in zip(ms, ops))
    seen = [above]
    for g, op_n in gs:
        into = is_I_continuous(g, op_n, lift).ok
        assert into == all(is_I_continuous(compose_localic(f, g), op_n, op).ok
                           for f, op in zip(ms, ops))
        seen.append(into)
    return seen


def test_source_lift_of_one_map_is_its_lift():
    opm = random_op(enumerate_sublocales(chain3()), seeded("fam-single"))
    f = f_up()
    lift = initial_lift(f, opm)
    assert _source_lift([f], [opm]).table == lift.table
    assert lift.table == brute_initial_lift(f, opm)
    assert op_le(lift, make_continuous_op(f, opm, seeded("fam-single", 1)))


def test_source_lift_two_maps_out_of_two():
    f1 = f_up()
    f2 = localic_map(two(), square(), (1, 3))
    sl2 = enumerate_sublocales(two())
    d3 = discrete_op(enumerate_sublocales(chain3()))
    dsq = discrete_op(enumerate_sublocales(square()))
    assert _source_lift([f1, f2], [d3, dsq]).table == discrete_op(sl2).table
    # the paper's operator breaks I3 off a non-surjective map; the lift does not
    t3, tsq = trivial_op(enumerate_sublocales(chain3())), trivial_op(enumerate_sublocales(square()))
    assert not initial_interior(f1, t3).axioms.passed["I3"]
    assert _source_lift([f1, f2], [t3, tsq]).table == trivial_op(sl2).table
    assert _assert_source_lift([f1, f2], [t3, tsq], trivial_op(sl2), ()) == [True]


def test_source_lift_errors():
    d3 = discrete_op(enumerate_sublocales(chain3()))
    with pytest.raises(EmptyFamily):
        _source_lift([], [])
    with pytest.raises(HostMismatch):
        _source_lift([f_up(), identity_localic(chain3())], [d3, d3])
    with pytest.raises(HostMismatch):
        initial_lift(f_up(), discrete_op(enumerate_sublocales(two())))


def test_kernels_admit_only_the_frames_given_no_operator(monkeypatch):
    """An operator's frame was admitted when its lattice was enumerated, so
    under LOCALELAB_SIZE_LIMIT=3 a kernel given operators on both frames of
    f: CHAIN4 -> CHAIN3 runs, and one given only op_M refuses CHAIN4."""
    f = right_adjoint(chain3(), chain4(), (0, 2, 3))
    op_l = trivial_op(enumerate_sublocales(chain4(), limit=4))
    monkeypatch.setenv("LOCALELAB_SIZE_LIMIT", "3")
    op_m = trivial_op(enumerate_sublocales(chain3()))
    assert is_I_continuous(f, op_l, op_m).ok
    with pytest.raises(SizeLimit):
        initial_interior(f, op_m)


def test_source_lift_under_the_operators_bound(monkeypatch):
    """Operators on the 16-element corpus-4 frame, past the default bound of
    12: under LOCALELAB_SIZE_LIMIT=16 the lift, its members' continuity and
    the universal property admit every frame they read."""
    monkeypatch.setenv("LOCALELAB_SIZE_LIMIT", "16")
    big = next(fr for _, fr in corpus_frames(4) if fr.n == 16)
    small = [fr for _, fr in corpus_frames(3)]
    maps = maps_in_hom_order((m, big) for m in small)
    gs = maps_in_hom_order((big, n) for n in small)
    sl = enumerate_sublocales(big, 16)
    rng = seeded("fam-bound")
    seen = set()
    for _ in range(40):
        ms = rng.sample(maps, 2)
        ops = [random_op(enumerate_sublocales(m.target, 16), rng) for m in ms]
        g = rng.choice(gs)
        op_n = random_op(enumerate_sublocales(g.source, 16), rng)
        op_l = random_op(sl, rng)
        if rng.random() < 0.5:  # an op_L above the lift
            op_l = op_join([_source_lift(ms, ops), op_l])
        above, into = _assert_source_lift(ms, ops, op_l, [(g, op_n)])
        seen |= {("above", above), ("into", into)}
    assert len(seen) == 4


def test_source_lift_random_scan():
    """Sources of one to three corpus-3 maps out of one frame, each with
    random target operators, a random op_L and every g into the frame."""
    rng = seeded("fam-scan")
    maps = corpus_maps(4)
    by_src = {}
    for f in maps:
        by_src.setdefault(f.source.key(), []).append(f)
    groups = sorted(by_src.values(), key=lambda g: g[0].source.key())
    seen = set()
    for k in range(60):
        group = groups[k % len(groups)]
        ms = rng.sample(group, rng.randint(1, min(3, len(group))))
        ops = [random_op(enumerate_sublocales(m.target), rng) for m in ms]
        sl = enumerate_sublocales(ms[0].source)
        gs = [(g, random_op(enumerate_sublocales(g.source), rng))
              for g in maps if g.target == ms[0].source]
        above, *into = _assert_source_lift(ms, ops, random_op(sl, rng), gs)
        seen |= {("above", above)} | {("into", x) for x in into}
    assert len(seen) == 4


def test_report_json_shapes():
    sl3 = enumerate_sublocales(chain3())
    f = f_up()
    rep = initial_interior(f, trivial_op(sl3))
    js = rep.to_json()
    assert set(js) == {"axioms", "continuity", "anomalies"}
    assert js["axioms"]["passed"]["I3"] is False
    assert js["continuity"]["witness"] == ("{0,m,1}", "{0,1}", "{1}")
    up = check_universal_property(
        f, discrete_op(sl3), identity_localic(two()), discrete_op(enumerate_sublocales(two()))
    )
    assert up.to_json()["equivalent"] is True
    cont = is_I_continuous(identity_localic(chain3()), trivial_op(sl3), discrete_op(sl3))
    assert cont.to_json() == {
        "ok": False,
        "checked": 2,
        "witness": ("{0,1}", "{0,1}", "{1}"),
    }
    opr = check_open_preimage(identity_localic(chain3()), trivial_op(sl3), discrete_op(sl3))
    assert opr.to_json()["status"] == "precondition-unmet"
