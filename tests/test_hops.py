"""h operators, checked through their cores.

S_l(L) of a finite frame is Boolean, so h operators are tables over all of
S_l(L), and the h suite doubles as a cross-check of the interior suite:
contractive h operators and interior operators are the same tables, and the
two continuity notions agree on them. Frozen values were computed by direct
evaluation of the h2/h3 scans and the transfer tables.
"""
import random
from itertools import product

import pytest

from localelab.corpus import chain3, chain4, child_seed, corpus_frames, square, two
from localelab.errors import EmptyFamily, HostMismatch
from localelab.hops import (
    HOperator,
    check_h,
    check_h_composition,
    check_h_universal,
    complemented_fragment,
    discrete_h,
    h_from_interior,
    initial_h,
    interior_from_h,
    is_h_continuous,
    random_h,
    trivial_h,
)
from localelab.interior import (
    InteriorOperator,
    check_interior,
    is_I_continuous,
    make_continuous_op,
    op_join,
    op_le,
    op_le_gap,
    op_meet,
    random_op,
)
from localelab.maps import (
    FrameHom,
    enumerate_frame_homs,
    identity_localic,
    localic_map,
    right_adjoint,
)
from localelab.sublocales import SublocaleLattice, enumerate_sublocales

_MAP_CACHE = {}


def corpus_maps(max_n):
    if max_n not in _MAP_CACHE:
        frames = [fr for _, fr in corpus_frames(3) if fr.n <= max_n]
        maps = []
        for src, tgt in product(frames, frames):
            for tb in enumerate_frame_homs(src, tgt):
                maps.append(right_adjoint(FrameHom(src, tgt, tb)))
        _MAP_CACHE[max_n] = tuple(maps)
    return _MAP_CACHE[max_n]


def seeded(tag, k=0):
    return random.Random(child_seed(tag, k))


def f_up():
    return localic_map(two(), chain3(), (0, 2))


def f_dn():
    return right_adjoint(FrameHom(two(), chain3(), (0, 2)))


class _Uncomplemented(SublocaleLattice):
    """S_l(CHAIN3) with the complement of {0,1} hidden, as if it had none."""

    def complement(self, i):
        return None if i == 1 else super().complement(i)


def test_fragment_examples():
    sl = enumerate_sublocales(chain3())
    assert complemented_fragment(sl) is sl
    assert [sl.label(i) for i in range(sl.n)] == ["{1}", "{0,1}", "{m,1}", "{0,m,1}"]
    # complement pairing: {1} with L, {0,1} with {m,1}
    assert sl.complement(0) == 3 and sl.complement(1) == 2
    assert sl.bottom == 0 and sl.top == 3
    assert complemented_fragment(enumerate_sublocales(square())).n == 4


def test_fragment_guard_rejects_an_uncomplemented_sublocale():
    bad = _Uncomplemented(chain3(), enumerate_sublocales(chain3()).masks)
    with pytest.raises(ValueError, match="no complement"):
        complemented_fragment(bad)
    with pytest.raises(ValueError, match="no complement"):
        HOperator(bad, (0, 1, 2, 3))


def test_fragment_covers_every_corpus_lattice():
    # downset frames have Boolean sublocale lattices, so nothing is missing
    for key, fr in corpus_frames(4):
        sl = enumerate_sublocales(fr, limit=16)
        assert complemented_fragment(sl) is sl, key


def test_check_h_examples():
    fr = enumerate_sublocales(chain3())
    assert check_h(discrete_h(fr)).ok
    rep = check_h(trivial_h(fr))
    assert rep.ok and rep.vacuous == ("h1",)
    assert trivial_h(fr).describe() == {
        "{1}": "{1}",
        "{0,1}": "{1}",
        "{m,1}": "{1}",
        "{0,m,1}": "{0,m,1}",
    }
    # {1}->{1}, {0,1}->{m,1}, {m,1}->{1}, L->L: not monotone as a table, but
    # every intersection S cap h(S) collapses to {1}, so h2 holds
    ex3 = HOperator(fr, (0, 2, 0, 3))
    rep = check_h(ex3)
    assert rep.passed == {"h1": True, "h2": True, "h3": True}
    assert rep.witnesses == {}


def test_h_table_must_be_total():
    fr = enumerate_sublocales(chain3())
    with pytest.raises(ValueError):
        HOperator(fr, (0, 1, 2))
    with pytest.raises(ValueError):
        HOperator(fr, (0, 1, 2, 7))


def test_h2_failure_has_witness():
    fr = enumerate_sublocales(chain3())
    # {0,1} keeps itself but L drops to {1}: {0,1} cap {0,1} exceeds L cap {1}
    bad = HOperator(fr, (0, 1, 0, 0))
    rep = check_h(bad)
    assert not rep.passed["h2"] and not rep.passed["h3"]
    assert rep.witnesses["h2"] == ("{0,1}", "{0,m,1}")
    assert rep.witnesses["h3"] == ("{1}",)


def test_h_lattice_ops_and_errors():
    fr = enumerate_sublocales(chain3())
    d, t = discrete_h(fr), trivial_h(fr)
    assert op_join([t, d]).table == d.table
    assert op_meet([t, d]).table == t.table
    assert isinstance(op_join([t, d]), HOperator) and isinstance(op_meet([t, d]), HOperator)
    assert op_le(t, d) and not op_le(d, t)
    assert op_le_gap(d, t) == "{0,1}"
    with pytest.raises(EmptyFamily):
        op_join([])
    with pytest.raises(HostMismatch):
        op_meet([d, discrete_h(enumerate_sublocales(square()))])


def test_h_lattice_properties_generated():
    for frame in (chain3(), square()):
        fr = enumerate_sublocales(frame)
        rng = seeded("h-lattice-" + frame.key())
        for _ in range(100):
            a, b = random_h(fr, rng), random_h(fr, rng)
            assert check_h(a).ok
            assert check_h(op_join([a, b])).ok and check_h(op_meet([a, b])).ok
            assert op_le(trivial_h(fr), a) and op_le(a, discrete_h(fr))
            assert op_meet([trivial_h(fr), a]).table == trivial_h(fr).table
            if op_le(a, b) and op_le(b, a):
                assert a.table == b.table
            c = random_h(fr, rng)
            if op_le(a, b) and op_le(b, c):
                assert op_le(a, c)


def test_valid_operator_above_discrete_exists():
    # sending everything to L satisfies h2 (S cap L = S grows with S) and h3,
    # so the discrete operator only tops the contractive family
    fr = enumerate_sublocales(chain3())
    const_top = HOperator(fr, (3, 3, 3, 3))
    assert check_h(const_top).ok
    assert op_le(discrete_h(fr), const_top)
    assert not op_le(const_top, discrete_h(fr))
    assert op_le_gap(const_top, discrete_h(fr)) == "{1}"


def test_h1_vacuity_certificate():
    # h1 holds for arbitrary total tables, valid or not
    rng = seeded("h1-cert")
    for fr_frame in [fr for _, fr in corpus_frames(3) if fr.n <= 5]:
        fr = enumerate_sublocales(fr_frame)
        for _ in range(50):
            table = tuple(rng.randrange(fr.n) for _ in range(fr.n))
            assert check_h(HOperator(fr, table)).passed["h1"]


def test_h_from_interior_roundtrip():
    rng = seeded("h-roundtrip")
    for frame in (chain3(), square(), chain4()):
        sl = enumerate_sublocales(frame)
        for _ in range(20):
            op = random_op(sl, rng)
            h = h_from_interior(op)
            assert check_h(h).ok
            assert interior_from_h(h).table == op.table
        h = random_h(sl, rng)
        assert check_interior(interior_from_h(h)).ok


def test_is_h_continuous_examples():
    fr3 = enumerate_sublocales(chain3())
    x = random_h(fr3, seeded("h-cont-id"))
    rep = is_h_continuous(identity_localic(chain3()), x, x)
    assert rep.ok and rep.checked == fr3.n
    # discrete on the source passes for any target operator: the right side
    # becomes the preimage itself
    rng = seeded("h-cont-disc")
    for f in corpus_maps(4):
        frm = enumerate_sublocales(f.target)
        hm = random_h(frm, rng)
        assert is_h_continuous(f, discrete_h(enumerate_sublocales(f.source)), hm).ok
    # the TWO -> CHAIN3 fixture: every preimage is complemented and all four
    # named pairs pass
    fr2 = enumerate_sublocales(two())
    for hl in (discrete_h(fr2), trivial_h(fr2)):
        for hm in (discrete_h(fr3), trivial_h(fr3)):
            assert is_h_continuous(f_up(), hl, hm).ok
    # the genuinely failing pair, shared with the interior side
    rep = is_h_continuous(identity_localic(chain3()), trivial_h(fr3), discrete_h(fr3))
    assert not rep.ok
    assert rep.witness == ("{0,1}", "{0,1}", "{1}")
    with pytest.raises(HostMismatch):
        is_h_continuous(f_up(), trivial_h(fr3), discrete_h(fr3))


def test_contractive_continuity_equivalence():
    """Interior continuity and h continuity agree on contractive tables."""
    rng = seeded("h-equiv")
    agreements = disagreements_found = 0
    for f in corpus_maps(4):
        sll, slm = enumerate_sublocales(f.source), enumerate_sublocales(f.target)
        for _ in range(3):
            opl, opm = random_op(sll, rng), random_op(slm, rng)
            ri = is_I_continuous(f, opl, opm)
            rh = is_h_continuous(f, h_from_interior(opl), h_from_interior(opm))
            assert ri.ok == rh.ok
            if not ri.ok:
                assert ri.witness == rh.witness
                disagreements_found += 1
            agreements += 1
    assert agreements > 100 and disagreements_found > 0


def test_h_composition_fixtures():
    fr2, fr3 = enumerate_sublocales(two()), enumerate_sublocales(chain3())
    i3 = identity_localic(chain3())
    rep = check_h_composition(i3, i3, discrete_h(fr3), discrete_h(fr3), discrete_h(fr3))
    assert rep.status == "pass"
    rep = check_h_composition(
        f_up(), f_dn(), discrete_h(fr2), discrete_h(fr3), discrete_h(fr2)
    )
    assert rep.status == "pass" and rep.composite.ok
    rep = check_h_composition(i3, i3, trivial_h(fr3), discrete_h(fr3), discrete_h(fr3))
    assert rep.status == "precondition-unmet"
    assert not rep.f_continuous and rep.g_continuous and rep.composite is None
    assert rep.to_json()["status"] == "precondition-unmet"


def test_h_composition_random_chains():
    rng = seeded("h-chains")
    done = 0
    for g in corpus_maps(4):
        frn = enumerate_sublocales(g.target)
        for f in corpus_maps(4):
            if f.target != g.source:
                continue
            hn = random_h(frn, rng)
            opm = make_continuous_op(g, interior_from_h(hn), rng)
            opl = make_continuous_op(f, opm, rng)
            rep = check_h_composition(
                f, g, h_from_interior(opl), h_from_interior(opm), hn
            )
            assert rep.status == "pass", (f.table, g.table)
            done += 1
            if done >= 200:
                return
    raise AssertionError("not enough composable corpus pairs")


def test_initial_h_identity():
    fr3 = enumerate_sublocales(chain3())
    hm = random_h(fr3, seeded("h-init-id"))
    cand, rep = initial_h(identity_localic(chain3()), hm)
    assert cand.table == hm.table
    assert rep.ok and rep.anomalies == ()


def test_initial_h_trivial_counterexample():
    # same shape as the interior counterexample: the image misses m, trivial
    # sends the proper image to the bottom, and the top law fails
    cand, rep = initial_h(f_up(), trivial_h(enumerate_sublocales(chain3())))
    assert cand.describe() == {"{1}": "{1}", "{0,1}": "{1}"}
    assert rep.axioms.passed == {"h1": True, "h2": True, "h3": False}
    assert rep.axioms.witnesses == {"h3": ("{1}",)}
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


def test_initial_h_discrete_passes():
    cand, rep = initial_h(f_up(), discrete_h(enumerate_sublocales(chain3())))
    assert cand.table == discrete_h(enumerate_sublocales(two())).table
    assert rep.ok and rep.anomalies == ()


def test_initial_h_collapse_is_legal():
    # the interior twin of this fixture fails contraction; h operators have
    # no contraction axiom, so the inflated candidate is simply valid
    cand, rep = initial_h(f_dn(), discrete_h(enumerate_sublocales(two())))
    assert cand.table == (0, 3, 3, 3)
    assert cand.describe() == {
        "{1}": "{1}",
        "{0,1}": "{0,m,1}",
        "{m,1}": "{0,m,1}",
        "{0,m,1}": "{0,m,1}",
    }
    assert rep.axioms.ok and rep.continuity.ok and rep.ok
    assert rep.anomalies == ()


def test_initial_h_corpus_classification():
    rng = seeded("h-init-scan")
    h3_fail = cont_fail = 0
    for f in corpus_maps(5):
        slm = enumerate_sublocales(f.target)
        frm = slm
        ops = [
            discrete_h(frm),
            trivial_h(frm),
            random_h(frm, rng),
            h_from_interior(random_op(slm, rng)),
        ]
        for hm in ops:
            cand, rep = initial_h(f, hm)
            assert rep.axioms.passed["h1"] and rep.axioms.passed["h2"]
            assert rep.unexplained == ()
            if not rep.axioms.passed["h3"]:
                h3_fail += 1
            if not rep.continuity.ok:
                cont_fail += 1
    assert h3_fail > 0 and cont_fail > 0


def _non_contractive_h(sl, rng):
    """A valid h operator that is usually not contractive: S goes to a random
    r with S ^ r = c(S) for a random interior operator c, so its core is c."""
    c = random_op(sl, rng)
    table = [rng.choice([r for r in range(sl.n) if sl.meet(i, r) == c(i)]) for i in range(sl.n)]
    return HOperator(sl, tuple(table))


def test_initial_h_keeps_h2_for_non_contractive_targets():
    # S ^ f_-1[h_M(f[S])] = S ^ f_-1[c_M(f[S])] by the unit, so the candidate
    # satisfies h2 whenever h_M is valid, contractive or not
    frames = [fr for _, fr in corpus_frames(3)]
    rng = seeded("h2-fact")
    maps = non_contractive = 0
    for src, tgt in product(frames, frames):
        for tb in enumerate_frame_homs(src, tgt, budget=tgt.n ** src.n):
            f = right_adjoint(FrameHom(src, tgt, tb))
            slm = enumerate_sublocales(f.target)
            maps += 1
            ops = [HOperator(slm, (slm.top,) * slm.n)]
            ops += [_non_contractive_h(slm, rng) for _ in range(3)]
            for hm in ops:
                assert check_h(hm).ok
                non_contractive += not check_interior(interior_from_h(hm)).passed["I1"]
                _, rep = initial_h(f, hm)
                assert rep.axioms.passed["h1"] and rep.axioms.passed["h2"], hm.table
    assert maps == 476 and non_contractive > 3 * maps


def test_h_universal_identity_g():
    fr3 = enumerate_sublocales(chain3())
    for hm in (discrete_h(fr3), trivial_h(fr3)):
        f = f_up()
        cand, rep = initial_h(f, hm)
        up = check_h_universal(f, hm, identity_localic(two()), cand)
        assert up.initial_side.ok
        assert up.composite_side.ok == rep.continuity.ok
        assert up.equivalent == rep.continuity.ok


def test_h_universal_fixture_chain():
    up = check_h_universal(
        f_up(),
        discrete_h(enumerate_sublocales(chain3())),
        identity_localic(two()),
        discrete_h(enumerate_sublocales(two())),
    )
    assert up.equivalent and up.initial_side.ok and up.composite_side.ok
    assert up.anomalies == ()
    with pytest.raises(HostMismatch):
        check_h_universal(
            f_up(),
            discrete_h(enumerate_sublocales(chain3())),
            identity_localic(chain3()),
            discrete_h(enumerate_sublocales(chain3())),
        )


def test_h_universal_initial_side_only_fixture():
    # the collapse candidate inflates {0,1} to L; trivial structure on the
    # identity then rejects it, while the composite never sees the gap
    up = check_h_universal(
        f_dn(),
        discrete_h(enumerate_sublocales(two())),
        identity_localic(chain3()),
        trivial_h(enumerate_sublocales(chain3())),
    )
    assert not up.equivalent
    assert up.composite_side.ok and not up.initial_side.ok
    assert up.initial_side.witness == ("{0,1}", "{0,1}", "{1}")
    assert up.anomalies == (
        {
            "kind": "initial-side-only",
            "at": "{0,1}",
            "predicate": "unit-gap",
            "confirmed": True,
        },
    )
    assert up.unexplained == ()


def test_h_universal_composite_side_only_fixture():
    f = localic_map(chain3(), chain4(), (1, 2, 3))
    sl4 = enumerate_sublocales(chain4())
    hm = h_from_interior(InteriorOperator(sl4, (0, 0, 0, 0, 2, 3, 6, 7)))
    sl3 = enumerate_sublocales(chain3())
    up = check_h_universal(f, hm, identity_localic(chain3()), trivial_h(sl3))
    assert not up.equivalent
    assert up.initial_side.ok and not up.composite_side.ok
    assert up.composite_side.witness[0] == "{0,a,1}"
    assert up.anomalies == (
        {
            "kind": "composite-side-only",
            "at": "{0,a,1}",
            "predicate": "f-h-continuity-gap-at-witness",
            "confirmed": True,
        },
    )
    assert up.unexplained == ()


def test_h_universal_random_scan():
    rng = seeded("h-up-scan")
    done = dis = 0
    maps = corpus_maps(4)
    for f in maps:
        frm = enumerate_sublocales(f.target)
        gs = [g for g in maps if g.target == f.source]
        for g in gs[:4]:
            frn = enumerate_sublocales(g.source)
            for hm in (discrete_h(frm), trivial_h(frm), random_h(frm, rng)):
                up = check_h_universal(f, hm, g, random_h(frn, rng))
                done += 1
                if not up.equivalent:
                    dis += 1
                    assert len(up.anomalies) == 1
                assert up.unexplained == ()
                if done >= 200:
                    break
            if done >= 200:
                break
        if done >= 200:
            break
    assert done == 200 and dis > 0


def test_h_report_json_shapes():
    fr3 = enumerate_sublocales(chain3())
    _, rep = initial_h(f_up(), trivial_h(fr3))
    js = rep.to_json()
    assert set(js) == {"axioms", "continuity", "anomalies"}
    assert js["axioms"]["vacuous"] == ["h1"]
    up = check_h_universal(
        f_up(), discrete_h(fr3), identity_localic(two()), discrete_h(enumerate_sublocales(two()))
    )
    assert up.to_json()["equivalent"] is True
