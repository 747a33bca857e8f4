"""Points, the point space, spatialization, and sobrification."""
from localelab.corpus import (
    chain3,
    chain4,
    corpus_frames,
    discrete_space,
    indiscrete_space,
    posets_are_isomorphic,
    sierpinski,
    square,
    two,
)
from localelab.lattice import FiniteSpace, build_frame, frame_of_space
from localelab.maps import check_frame_hom
from localelab.points import (
    Point,
    _sigma,
    is_spatial,
    points_of,
    pt_space,
    sigma,
    sobrification,
    spatialization,
)


def test_points_of_fixture_counts():
    assert [p.describe() for p in points_of(two())] == [{"0": 0, "1": 1}]
    assert [p.describe() for p in points_of(chain3())] == [
        {"0": 0, "m": 0, "1": 1},
        {"0": 0, "m": 1, "1": 1},
    ]
    assert [p.describe() for p in points_of(square())] == [
        {"0": 0, "a": 1, "b": 0, "1": 1},
        {"0": 0, "a": 0, "b": 1, "1": 1},
    ]
    assert len(points_of(chain4())) == 3


def test_points_are_frame_homs_into_two():
    for _, fr in corpus_frames(4):
        for p in points_of(fr):
            assert check_frame_hom(fr, two(), p.table).ok
            assert p(fr.top) == 1 and p(fr.bottom) == 0


def test_pt_space_fixtures():
    sp = pt_space(chain3())
    assert sp.points == ("p0", "p1")
    # opens empty, {p1}, all: the Sierpinski shape
    assert sp.opens == (0, 2, 3)
    assert posets_are_isomorphic(frame_of_space(sp).poset, frame_of_space(sierpinski()).poset)

    spq = pt_space(square())
    assert spq.points == ("p0", "p1")
    assert set(spq.opens) == {0, 1, 2, 3}

    assert pt_space(two()).points == ("p0",)
    assert pt_space(two()).opens == (0, 1)


def test_sigma_commutes_with_meet_and_join():
    for _, fr in corpus_frames(4):
        pts = points_of(fr)
        for a in range(fr.n):
            for b in range(fr.n):
                sa, sb = sigma(fr, a, pts), sigma(fr, b, pts)
                assert sigma(fr, fr.meet(a, b), pts) == sa & sb
                assert sigma(fr, fr.join(a, b), pts) == sa | sb


def test_spatialization_fixtures():
    for fr in (two(), chain3(), square()):
        phi = spatialization(fr)
        assert phi.source == fr
        assert phi.target.n == fr.n
        assert phi.table == tuple(range(fr.n))


def test_spatiality_report():
    rep = is_spatial(chain3())
    assert rep.ok and rep.checked == 3 and rep.failures == ()
    assert rep.to_json() == {"ok": True, "checked": 3, "failures": []}


def test_corpus_spatial_and_injectivity_crosscheck():
    # the two spatiality definitions agree pairwise; downset frames all pass
    for key, fr in corpus_frames(4):
        rep = is_spatial(fr)
        phi = spatialization(fr)
        injective = len(set(phi.table)) == fr.n
        assert rep.ok == injective, key
        assert rep.ok, key


def test_sigma_injectivity_is_the_spatialization_verdict():
    """Injectivity read off sigma's one pass, as points-spatiality and
    `localelab points` read it, against the spatialization's table: the same
    verdict, and the same partition of the elements, on the 78 corpus-5
    frames of at most 16 elements and on the fixtures."""
    frames = [fr for _, fr in corpus_frames(5) if fr.n <= 16]
    assert len(frames) == 78
    frames += [two(), chain3(), chain4(), square(), frame_of_space(sierpinski()),
               build_frame(("0",), ())]
    for fr in frames:
        sig, phi = _sigma(fr), spatialization(fr)
        assert sig == [sigma(fr, a) for a in range(fr.n)]
        assert (len(set(sig)) == fr.n) == (len(set(phi.table)) == fr.n)
        assert len(set(zip(sig, phi.table))) == len(set(sig)) == len(set(phi.table))
        assert len(pt_space(fr).opens) == len(set(sig))


def test_sobrification_sierpinski_bijection():
    s = sobrification(sierpinski())
    assert sorted(s.point_table) == [0, 1]
    assert s.target.points == ("p0", "p1")


def test_sobrification_indiscrete_collapse():
    s = sobrification(indiscrete_space(2))
    assert s.point_table == (0, 0)
    assert s.target.points == ("p0",)


def test_sobrification_one_point_and_discrete():
    assert sobrification(indiscrete_space(1)).point_table == (0,)
    assert sorted(sobrification(discrete_space(2)).point_table) == [0, 1]


def test_sobrification_custom_space():
    # three points, opens generated by {x} and {x,y}: z is in the closure of y
    sp = FiniteSpace.from_sets(
        ["x", "y", "z"], [[], ["x"], ["x", "y"], ["x", "y", "z"]]
    )
    s = sobrification(sp)
    assert len(set(s.point_table)) == 3

    point = points_of(frame_of_space(sp))[0]
    assert isinstance(point, Point)
