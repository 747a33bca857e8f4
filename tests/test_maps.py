"""Frame homs, adjoints, localic maps, continuous maps, open-preimage homs.

Adjoint oracles below use only the order relation (maximum/minimum element
scans), never the implementation's join/meet fold.
"""
from itertools import product

import pytest

from localelab.corpus import (
    chain3,
    corpus_frames,
    corpus_posets,
    discrete_space,
    indiscrete_space,
    sierpinski,
    square,
    two,
)
from localelab.errors import DomainMismatch, NotContinuous, NotLocalic
from localelab.lattice import FiniteSpace, bits, frame_of_space
from localelab.maps import (
    ContinuousMap,
    FrameHom,
    HomReport,
    LocalicMap,
    check_frame_hom,
    compose_localic,
    enumerate_frame_homs,
    identity_localic,
    localic_map,
    omega_of_map,
    right_adjoint,
)
from oracles import brute_monotone_count, maps_in_hom_order, meet_of


def oracle_right_adjoint_value(h, x):
    """Maximum of {m : h(m) <= x}, found by order scan only."""
    M, L = h.source, h.target
    sat = [m for m in range(M.n) if L.le(h(m), x)]
    maxima = [m for m in sat if all(M.le(s, m) for s in sat)]
    assert len(maxima) == 1
    return maxima[0]


def oracle_left_adjoint_value(f, m):
    """Minimum of {x : m <= f(x)}, found by order scan only."""
    L, M = f.source, f.target
    sat = [x for x in range(L.n) if M.le(m, f(x))]
    minima = [x for x in sat if all(L.le(x, s) for s in sat)]
    assert len(minima) == 1
    return minima[0]


def hom_pairs(max_frame_size=8, budget=20_000):
    out = []
    frames = [f for _, f in corpus_frames(3) if f.n <= max_frame_size]
    for src, tgt in product(frames, frames):
        if tgt.n ** src.n <= budget:
            out.append((src, tgt))
    return out


def test_check_frame_hom_examples():
    c3, t2, sq = chain3(), two(), square()
    assert check_frame_hom(c3, c3, (0, 1, 2)).ok
    assert check_frame_hom(c3, t2, (0, 1, 1)).ok
    assert check_frame_hom(c3, t2, (0, 0, 1)).ok
    rep = check_frame_hom(sq, t2, (0, 1, 1, 1))
    assert not rep.ok and rep.law == "meet" and rep.witness == ("a", "b")
    # non-total tables are rejected, not crashed on
    assert not check_frame_hom(c3, t2, (0, 1)).ok
    assert not check_frame_hom(c3, t2, (0, 5, 1)).ok
    # so are entries that are no integers, even integral floats
    for table in ((0, 0.5, 1), (0, 1.0, 1), (0, "1", 1)):
        assert check_frame_hom(c3, t2, table) == HomReport(False, "totality", (3,))
        with pytest.raises(ValueError, match="totality law fails"):
            FrameHom(c3, t2, table)


def test_frame_hom_constructor_validates():
    with pytest.raises(ValueError):
        FrameHom(square(), two(), (0, 1, 1, 1))


def test_right_adjoint_fixtures():
    c3, t2 = chain3(), two()
    f = right_adjoint(c3, t2, (0, 1, 1))
    assert f.source == t2 and f.target == c3
    assert f.describe() == {"0": "0", "1": "1"}

    f2 = right_adjoint(t2, c3, (0, 2))
    assert f2.describe() == {"0": "0", "m": "0", "1": "1"}

    ident = right_adjoint(c3, c3, (0, 1, 2))
    assert ident.table == (0, 1, 2)


def test_right_adjoint_validates_its_table():
    # not homs: the bottom goes to m, and the top to m; each is refused with
    # the law and witness check_frame_hom gives, as FrameHom refuses it
    c3 = chain3()
    for table, law, witness in (((1, 1, 2), "bottom", ("0",)), ((0, 2, 1), "top", ("1",))):
        rep = check_frame_hom(c3, c3, table)
        assert (rep.law, rep.witness) == (law, witness)
        with pytest.raises(ValueError) as exc:
            right_adjoint(c3, c3, table)
        assert str(exc.value) == f"not a frame homomorphism: {law} law fails at {witness}"


def test_right_adjoint_matches_order_oracle():
    for src, tgt in hom_pairs():
        for table in enumerate_frame_homs(src, tgt):
            h = FrameHom(src, tgt, table)
            f = right_adjoint(h.source, h.target, h.table)
            for x in range(tgt.n):
                assert f(x) == oracle_right_adjoint_value(h, x)
            # adjunction, all pairs
            for m in range(src.n):
                for x in range(tgt.n):
                    assert tgt.le(h(m), x) == src.le(m, f(x))


def test_left_adjoint_fixtures():
    c3, t2 = chain3(), two()
    assert localic_map(t2, c3, (0, 2)).adjoint.describe() == {"0": "0", "m": "1", "1": "1"}
    assert localic_map(c3, c3, (0, 1, 2)).adjoint.table == (0, 1, 2)

    # f(0)=m is a genuine localic map: its adjoint is the m|->0 hom and the
    # adjunction holds on every pair, so construction must succeed.
    f = localic_map(t2, c3, (1, 2))
    h = f.adjoint
    assert h.describe() == {"0": "0", "m": "0", "1": "1"}
    assert right_adjoint(h.source, h.target, h.table).table == (1, 2)

    # meet-preserving, top-preserving, yet not localic: the point m goes to
    # the top of TWO, which is not a point.
    with pytest.raises(NotLocalic) as exc:
        localic_map(c3, t2, (0, 1, 1))
    assert exc.value.witness == ("point-not-prime", "m", 1)


def test_localic_map_rejects_tables_off_their_point_map():
    # a and b go to the top of TWO, not a point
    with pytest.raises(NotLocalic) as exc:
        localic_map(square(), two(), (0, 1, 1, 1))
    assert exc.value.witness == ("point-not-prime", "a", 1)
    # the points 0 and m go to the point 0, whose meet extension sends the top
    # to the top, not to 0
    with pytest.raises(NotLocalic) as exc:
        localic_map(chain3(), chain3(), (0, 0, 0))
    assert exc.value.witness == ("point-table", "1", "1")
    # the points agree with a localic map, the bottom does not
    with pytest.raises(NotLocalic) as exc:
        localic_map(square(), chain3(), (0, 1, 1, 2))
    assert exc.value.witness == ("point-table", "0", "m")
    # the order of the points is not kept
    with pytest.raises(NotLocalic) as exc:
        localic_map(chain3(), chain3(), (1, 0, 2))
    assert exc.value.witness == ("point-order", "0", "m")
    with pytest.raises(NotLocalic) as exc:
        localic_map(chain3(), two(), (0, 1))
    assert exc.value.witness == ("totality",)
    # an entry that is no integer is refused, not read as the integer it equals
    for table in ((0, 2.0), (0, 1.5)):
        with pytest.raises(NotLocalic) as exc:
            localic_map(two(), chain3(), table)
        assert exc.value.witness == ("totality",)


def test_left_adjoint_matches_order_oracle():
    for src, tgt in hom_pairs():
        for table in enumerate_frame_homs(src, tgt):
            f = right_adjoint(src, tgt, table)
            for m in range(f.target.n):
                assert f.adjoint(m) == oracle_left_adjoint_value(f, m)


def test_galois_roundtrips_recover_both_sides():
    for src, tgt in hom_pairs():
        for table in enumerate_frame_homs(src, tgt):
            f = right_adjoint(src, tgt, table)
            h2 = f.adjoint
            assert h2.table == tuple(table)
            assert right_adjoint(h2.source, h2.target, h2.table).table == f.table


def test_localic_maps_preserve_all_meets_and_top():
    for src, tgt in hom_pairs():
        for table in enumerate_frame_homs(src, tgt):
            f = right_adjoint(src, tgt, table)
            L, M = f.source, f.target
            assert f(L.top) == M.top
            for mask in range(1 << L.n):
                img = 0
                for x in bits(mask):
                    img |= 1 << f(x)
                assert f(meet_of(L, mask)) == meet_of(M, img)


def test_compose_fixtures_and_identity():
    c3, t2 = chain3(), two()
    f_up = localic_map(t2, c3, (0, 2))      # TWO -> CHAIN3
    f_down = localic_map(c3, t2, (0, 0, 1))  # CHAIN3 -> TWO
    comp = compose_localic(f_down, f_up)
    assert comp.source == t2 and comp.target == t2
    assert comp.table == (0, 1) and comp.adjoint.table == (0, 1)

    assert compose_localic(f_up, identity_localic(t2)).table == f_up.table
    assert compose_localic(identity_localic(c3), f_up).table == f_up.table


def test_compose_associativity_on_corpus_triples():
    frames = [f for _, f in corpus_frames(2)]  # sizes 2..4
    maps = maps_in_hom_order(product(frames, frames))
    triples = 0
    for f in maps:
        for g in maps:
            if g.source != f.target:
                continue
            for h in maps:
                if h.source != g.target:
                    continue
                lhs = compose_localic(h, compose_localic(g, f))
                rhs = compose_localic(compose_localic(h, g), f)
                assert lhs.table == rhs.table
                assert lhs.adjoint.table == rhs.adjoint.table
                triples += 1
    assert triples > 0


def test_compose_domain_mismatch():
    f = localic_map(two(), chain3(), (0, 2))
    with pytest.raises(DomainMismatch):
        compose_localic(f, f)


def test_enumerate_frame_hom_counts():
    counts = {
        (two(), two()): 1,
        (two(), chain3()): 1,
        (chain3(), two()): 2,
        (chain3(), chain3()): 3,
        (square(), two()): 2,
        (square(), square()): 4,
    }
    for (src, tgt), expect in counts.items():
        homs = enumerate_frame_homs(src, tgt)
        assert len(homs) == expect
        assert len(set(homs)) == expect
        for table in homs:
            assert check_frame_hom(src, tgt, table).ok


def test_enumerate_frame_homs_reads_tables_off_maps(monkeypatch):
    # every table is a valid map's left adjoint, so none is checked again
    calls = []
    monkeypatch.setattr("localelab.maps.check_frame_hom",
                        lambda *a: calls.append(a) or check_frame_hom(*a))
    frames = [fr for _, fr in corpus_frames(3)]
    homs = sum(len(enumerate_frame_homs(a, b)) for a in frames for b in frames)
    assert (homs, calls) == (476, [])


def test_enumerate_frame_homs_has_no_budget():
    # the 16-element corpus-4 frame to itself: 16^16 candidate tables, 256 homs
    (p, big), = [(p, fr) for p, (_, fr) in zip(corpus_posets(4), corpus_frames(4)) if fr.n == 16]
    homs = enumerate_frame_homs(big, big)
    assert len(homs) == 256 == brute_monotone_count(p, p)


def test_continuous_map_validation():
    s = sierpinski()
    ContinuousMap(s, s, (0, 0))  # constant at the open point
    ContinuousMap(s, s, (1, 1))  # constant at the closed point
    ContinuousMap(s, s, (0, 1))
    with pytest.raises(NotContinuous) as exc:
        ContinuousMap(s, s, (1, 0))  # swap pulls {x} back to the non-open {y}
    assert exc.value.witness == ("{x}",)
    with pytest.raises(ValueError):
        ContinuousMap(s, s, (0,))


@pytest.mark.parametrize("table", [(0.0, 1), (2.5, 1), ("0", 1), (0,), (0, 2), (-1, 0)])
def test_continuous_map_refuses_a_table_that_is_not_total(table):
    # the point table is read as operator.index reads it, the test localic_map
    # and InteriorOperator share: a float or string entry is no point index
    with pytest.raises(ValueError, match="^point table is not a total map into the target$"):
        ContinuousMap(sierpinski(), sierpinski(), table)


def test_continuous_map_from_the_empty_space():
    empty = FiniteSpace([], [0])
    assert ContinuousMap(empty, sierpinski(), ()).preimage_mask(1) == 0


def test_omega_fixtures():
    s = sierpinski()
    om_id = omega_of_map(ContinuousMap(s, s, (0, 1)))
    assert om_id.table == (0, 1, 2)
    assert om_id.source == frame_of_space(s)

    d2 = discrete_space(2)
    const_x = ContinuousMap(d2, s, (0, 0))
    om = omega_of_map(const_x)
    full = frame_of_space(d2).index["{p0,p1}"]
    assert om.describe() == {"{}": "{}", "{x}": "{p0,p1}", "{x,y}": "{p0,p1}"}
    assert om.table == (0, full, full)

    point = FiniteSpace.from_sets(("x",), ((), ("x",)))
    include = ContinuousMap(point, s, (0,))
    assert omega_of_map(include).table == (0, 1, 1)


def enumerate_continuous_maps(src, tgt):
    out = []
    for table in product(range(tgt.n_points), repeat=src.n_points):
        try:
            out.append(ContinuousMap(src, tgt, table))
        except NotContinuous:
            pass
    return out


def test_omega_contravariant_functoriality():
    spaces = [
        sierpinski(),
        discrete_space(1),
        discrete_space(2),
        indiscrete_space(2),
    ]
    checked = 0
    for a, b, c in product(spaces, repeat=3):
        for f in enumerate_continuous_maps(a, b):
            for g in enumerate_continuous_maps(b, c):
                gf = ContinuousMap(a, c, tuple(g(f(p)) for p in range(a.n_points)))
                om_gf = omega_of_map(gf)
                om_f, om_g = omega_of_map(f), omega_of_map(g)
                assert om_gf.table == tuple(om_f(om_g(u)) for u in range(om_g.source.n))
                checked += 1
    assert checked > 0


def test_localic_map_checks_its_point_map():
    # the points (primes) of TWO are 0, of CHAIN3 0 and m, of SQUARE a and b
    c3 = chain3()
    with pytest.raises(NotLocalic) as exc:
        LocalicMap(two(), square(), (0,))
    assert exc.value.witness == ("point-not-prime", "0", 0)
    with pytest.raises(NotLocalic) as exc:
        LocalicMap(c3, c3, (1, 0))  # 0 <= m, but f(0) = m is not below f(m) = 0
    assert exc.value.witness == ("point-order", "0", "m")
    with pytest.raises(NotLocalic) as exc:
        LocalicMap(c3, c3, (0,))
    assert exc.value.witness == ("point-count", 1)
    for v in (1.0, "0", None):  # no integer names a point
        with pytest.raises(NotLocalic) as exc:
            LocalicMap(two(), c3, (v,))
        assert exc.value.witness == ("point-not-prime", "0", v)
    # the point map (0, 0) extends by meets to the table (0, 0, 2), whose
    # left adjoint sends m to the top
    f = LocalicMap(c3, c3, (0, 0))
    assert f.table == (0, 0, 2) and f.adjoint.table == (0, 2, 2)
    assert localic_map(c3, c3, (0, 0, 2)) == f
