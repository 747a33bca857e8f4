"""Sublocale conditions, the coframe S_l(L), joins, complements, images.

The definition oracle below recomputes meets and Heyting arrows from the
order relation alone, so it shares no tables with the implementation.
"""
from functools import lru_cache, reduce
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from localelab.corpus import chain3, chain4, corpus_frames, square, two
from localelab.errors import SizeLimit
from localelab import sublocales
from localelab.lattice import bits, build_frame, set_label
from localelab.maps import enumerate_frame_homs, identity_localic, localic_map, right_adjoint
from localelab.sublocales import (
    AdjReport,
    SublocaleLattice,
    SublocaleTransfer,
    _generated,
    as_mask,
    check_adjunction,
    enumerate_sublocales,
    generation_check,
    is_sublocale,
    join_formula_report,
    open_sub_mask,
    sub_join_mask,
    transfer_of,
)
from oracles import maps_in_hom_order

FIXTURES = lambda: [two(), chain3(), square(), chain4()]


# -- order-only definition oracle --------------------------------------------

def o_meet(f, a, b):
    lows = [c for c in range(f.n) if f.poset.leq(c, a) and f.poset.leq(c, b)]
    tops = [c for c in lows if all(f.poset.leq(d, c) for d in lows)]
    assert len(tops) == 1
    return tops[0]


def o_imp(f, a, b):
    cands = [c for c in range(f.n) if f.poset.leq(o_meet(f, c, a), b)]
    tops = [c for c in cands if all(f.poset.leq(d, c) for d in cands)]
    assert len(tops) == 1
    return tops[0]


def oracle_is_sublocale(f, mask):
    top = next(x for x in range(f.n) if all(f.poset.leq(y, x) for y in range(f.n)))
    mem = list(bits(mask))
    if top not in mem:
        return False
    if any(not mask >> o_meet(f, a, b) & 1 for a, b in combinations(mem, 2)):
        return False
    return all(mask >> o_imp(f, x, s) & 1 for x in range(f.n) for s in mem)


def small_frames(max_n):
    return [fr for _, fr in corpus_frames(3) if fr.n <= max_n]


def test_is_sublocale_examples():
    c3 = chain3()
    assert is_sublocale(c3, ["0", "1"]).ok
    for f in FIXTURES():
        assert is_sublocale(f, [f.top]).ok
    rep = is_sublocale(square(), ["0", "1"])
    assert not rep.ok and rep.condition == "arrow"
    assert rep.witness == ("a", "0", "b")
    rep = is_sublocale(square(), ["0", "a"])
    assert not rep.ok and rep.condition == "top" and rep.witness == ("1",)
    rep = is_sublocale(square(), ["a", "b", "1"])
    assert not rep.ok and rep.condition == "meet" and rep.witness == ("a", "b")


def test_is_sublocale_matches_definition_oracle():
    for f in FIXTURES() + small_frames(5):
        for mask in range(1 << f.n):
            assert is_sublocale(f, mask).ok == oracle_is_sublocale(f, mask), (
                f.key(),
                mask,
            )


def core(f, members):
    """The largest sublocale inside a meet-closed subset with the top: the
    meet-closure of its points with the top."""
    return _generated(f.meet_table, as_mask(f, members) & f.primes, 1 << f.top)


def test_sloc_core_examples():
    assert set_label(square().labels, core(square(), ["0", "1"])) == "{1}"
    assert set_label(chain3().labels, core(chain3(), ["0", "1"])) == "{0,1}"
    for f in FIXTURES():
        assert core(f, f.full_mask) == f.full_mask


def test_members_that_are_no_element_raise_value_error():
    """An index past either end, a member that is no integer (even one int()
    would truncate to an element) or an unknown label is refused by name, as
    an out-of-range mask is, before any table is read."""
    for members, bad in (([0, 2, 5], "5"), ([0, 2, -1], "-1"), (["0", "1", "zz"], "'zz'"),
                         ([0, 2.7], "2.7"), ([0, 2.0], "2.0"), ([0, None], "None")):
        for check in (is_sublocale, as_mask):
            with pytest.raises(ValueError, match=f"unknown element {bad} "):
                check(chain3(), members)
    with pytest.raises(ValueError, match="mask 0x8 out of range"):
        is_sublocale(chain3(), 8)


def test_sloc_core_is_greatest_sublocale_inside():
    for f in small_frames(5):
        sl = enumerate_sublocales(f)
        for mask in range(1 << f.n):
            if not mask >> f.top & 1:
                continue
            mem = list(bits(mask))
            if any(not mask >> f.meet(a, b) & 1 for a, b in combinations(mem, 2)):
                continue
            inside = core(f, mask)
            assert not inside & ~mask
            assert is_sublocale(f, inside).ok
            for sub_mask in sl.masks:
                if not sub_mask & ~mask:
                    assert not sub_mask & ~inside


def test_enumerate_counts_and_canonical_order():
    expected = {
        two(): ["{1}", "{0,1}"],
        chain3(): ["{1}", "{0,1}", "{m,1}", "{0,m,1}"],
        square(): ["{1}", "{a,1}", "{b,1}", "{0,a,b,1}"],
    }
    for f, labels in expected.items():
        sl = enumerate_sublocales(f)
        assert sorted(sl.labels) == sorted(labels)
        assert sl.bottom == 0 and sl.top == sl.n - 1
    assert enumerate_sublocales(chain4()).n == 8
    for f in small_frames(8):
        sl = enumerate_sublocales(f)
        # index order is a linear extension of inclusion
        assert all(i <= j for i in range(sl.n) for j in range(sl.n)
                   if not sl.masks[i] & ~sl.masks[j])
        assert sl.masks[0] == 1 << f.top and sl.masks[-1] == f.full_mask
        assert all(is_sublocale(f, m).ok for m in sl.masks)


def test_lattice_refuses_masks_out_of_point_mask_order():
    """Index i is the point mask of masks[i], so masks in any other order, or
    too few, are refused rather than read with the wrong order."""
    for f in (chain3(), square(), chain4()):
        masks = enumerate_sublocales(f).masks
        assert SublocaleLattice(f, masks).masks == masks
        for bad in (masks[::-1], masks[:-1], sorted(masks, key=lambda m: (m.bit_count(), m))):
            if list(bad) != list(masks):
                with pytest.raises(ValueError, match="point-mask order"):
                    SublocaleLattice(f, bad)


def test_labels_built_on_first_read(monkeypatch):
    # a fresh cache, so no other test has read these lattices' labels
    monkeypatch.setattr(sublocales, "_enumerate", lru_cache(sublocales._enumerate.__wrapped__))
    for _, f in corpus_frames(4):
        sl = enumerate_sublocales(f, limit=16)
        for i in range(sl.n):
            sl.is_open(i), sl.is_closed(i), sl.complement(i)
        assert "labels" not in vars(sl)
        assert sl.labels == tuple(set_label(f.labels, m) for m in sl.masks)


def long_chain(n):
    labels = tuple(f"c{i}" for i in range(n))
    return build_frame(labels, tuple((labels[i], labels[i + 1]) for i in range(n - 1)))


def test_size_limit_env_bounds_transfers_kernels_and_runs(monkeypatch):
    # the public functions read LOCALELAB_SIZE_LIMIT on every call; an operator
    # kernel admits under it the frames it was given no operator on, and a
    # verify run reads the bound once, when it starts
    from localelab.interior import initial_interior, trivial_op
    from localelab.verify import CorpusConfig, run_verification

    f = right_adjoint(chain3(), chain4(), enumerate_frame_homs(chain3(), chain4())[0])
    op = trivial_op(enumerate_sublocales(chain3()))
    monkeypatch.setenv("LOCALELAB_SIZE_LIMIT", "3")
    with pytest.raises(SizeLimit):
        transfer_of(f)
    with pytest.raises(SizeLimit):
        initial_interior(f, op)
    report = run_verification(CorpusConfig(max_poset_size=2, checks=("poset-counts",)))
    assert report["counts"]["frames_beyond_map_bound"] == 1
    monkeypatch.setenv("LOCALELAB_SIZE_LIMIT", "4")
    assert transfer_of(f).source_lattice.n == 8


def test_one_lattice_and_one_transfer_per_frame_and_map(monkeypatch):
    """S_l(L) is determined by L: every bound that admits a frame gives the
    one lattice of it, and every bound that admits a map's frames its one
    transfer, which reads those lattices."""
    f = right_adjoint(chain3(), chain4(), enumerate_frame_homs(chain3(), chain4())[0])
    for fr in (chain3(), chain4(), square()):
        assert enumerate_sublocales(fr, 12) is enumerate_sublocales(fr, 16)
    t = transfer_of(f)
    monkeypatch.setenv("LOCALELAB_SIZE_LIMIT", "16")
    assert transfer_of(f) is t
    assert transfer_of(f).source_lattice is enumerate_sublocales(chain4(), 4)
    assert transfer_of(f).target_lattice is enumerate_sublocales(chain3())


def test_enumerate_size_limit(monkeypatch):
    c13 = long_chain(13)
    with pytest.raises(SizeLimit) as exc:
        enumerate_sublocales(c13)
    assert exc.value.witness == (13, 12)
    assert enumerate_sublocales(c13, limit=13).n == 4096
    monkeypatch.setenv("LOCALELAB_SIZE_LIMIT", "3")
    with pytest.raises(SizeLimit):
        enumerate_sublocales(chain4())
    assert enumerate_sublocales(chain4(), limit=4).n == 8


@pytest.mark.parametrize("limit", [-3, -1, 2.5, 2.0, True, "3"])
def test_enumerate_refuses_a_bound_that_is_not_a_non_negative_integer(limit):
    with pytest.raises(ValueError, match="bound must be a non-negative integer"):
        enumerate_sublocales(two(), limit=limit)


def test_enumerate_reads_an_index_bound():
    class Two:
        def __index__(self):
            return 2

    assert enumerate_sublocales(two(), limit=Two()).n == 2
    with pytest.raises(SizeLimit):
        enumerate_sublocales(two(), limit=0)


def test_sub_join_examples():
    c3 = chain3()
    halves = [as_mask(c3, ["0", "1"]), as_mask(c3, ["m", "1"])]
    assert sub_join_mask(c3, halves) == c3.full_mask
    sq = square()
    assert sub_join_mask(sq, [as_mask(sq, ["a", "1"]), as_mask(sq, ["b", "1"])]) == sq.full_mask
    for f in FIXTURES():
        sl = enumerate_sublocales(f)
        for m in sl.masks:
            assert sub_join_mask(f, [m, 1 << f.top]) == m
    assert set_label(c3.labels, sub_join_mask(c3, [])) == "{1}"


def test_sub_join_matches_least_containing_oracle():
    for f in FIXTURES() + small_frames(5):
        sl = enumerate_sublocales(f)
        for i in range(sl.n):
            for j in range(sl.n):
                union = sl.masks[i] | sl.masks[j]
                containing = [m for m in sl.masks if not union & ~m]
                least = min(containing, key=lambda m: m.bit_count())
                assert all(not least & ~m for m in containing)
                assert sl.masks[sl.join(i, j)] == least


def test_closed_and_open_examples():
    c3 = chain3()
    m = c3.index["m"]
    for f in FIXTURES():
        assert f.up[f.bottom] == f.full_mask
        assert set_label(f.labels, f.up[f.top]) == "{1}"
        assert set_label(f.labels, open_sub_mask(f, f.bottom)) == "{1}"
        assert open_sub_mask(f, f.top) == f.full_mask
    assert set_label(c3.labels, c3.up[m]) == "{m,1}"
    assert set_label(c3.labels, open_sub_mask(c3, m)) == "{0,1}"


def test_open_closed_are_complementary_sublocales():
    for _, f in corpus_frames(3):
        sl = enumerate_sublocales(f)
        for a in range(f.n):
            oi, ci = sl.index[open_sub_mask(f, a)], sl.index[f.up[a]]
            assert sl.complement(ci) == oi and sl.complement(oi) == ci
            assert sl.is_open(oi) and sl.is_closed(ci)
    sl3 = enumerate_sublocales(chain3())
    zero_one = sl3.index[as_mask(chain3(), ["0", "1"])]
    m_one = sl3.index[as_mask(chain3(), ["m", "1"])]
    assert sl3.is_open(zero_one) and not sl3.is_closed(zero_one)
    assert sl3.is_closed(m_one) and not sl3.is_open(m_one)


def test_complement_examples_and_uniqueness():
    c3 = chain3()
    sl = enumerate_sublocales(c3)
    cm = sl.index[c3.up[c3.index["m"]]]
    assert sl.label(sl.complement(cm)) == "{0,1}"
    assert sl.complement(sl.bottom) == sl.top
    sq = square()
    slq = enumerate_sublocales(sq)
    ai = slq.index[as_mask(sq, ["a", "1"])]
    assert slq.label(slq.complement(ai)) == "{b,1}"
    # on these hosts every sublocale has exactly one complement
    for lattice in (sl, slq):
        for i in range(lattice.n):
            cands = [
                j
                for j in range(lattice.n)
                if lattice.meet(i, j) == lattice.bottom and lattice.join(i, j) == lattice.top
            ]
            assert len(cands) == 1


def test_every_corpus_sublocale_is_complemented():
    # S_l of a finite frame collapses to a Boolean lattice: 2^|P| sublocales
    # for the downset frame of P, each complemented.
    for (key, f), n_poset in zip(corpus_frames(3), (1, 2, 2, 3, 3, 3, 3, 3)):
        sl = enumerate_sublocales(f)
        assert sl.n == 1 << n_poset, key
        assert all(sl.complement(i) is not None for i in range(sl.n)), key


def test_coframe_law():
    for f in [fr for _, fr in corpus_frames(3) if fr.n <= 6]:
        sl = enumerate_sublocales(f)
        for a in range(sl.n):
            for b in range(sl.n):
                for c in range(sl.n):
                    lhs = sl.join(sl.meet(a, b), c)
                    rhs = sl.meet(sl.join(a, c), sl.join(b, c))
                    assert lhs == rhs


@given(data=st.data())
def test_coframe_law_for_sampled_families(data):
    frames = [fr for _, fr in corpus_frames(3) if fr.n <= 8]
    f = data.draw(st.sampled_from(frames))
    sl = enumerate_sublocales(f)
    fam = data.draw(st.lists(st.integers(0, sl.n - 1), min_size=1, max_size=5))
    b = data.draw(st.integers(0, sl.n - 1))
    lhs = sl.join(reduce(sl.meet, fam), b)
    rhs = reduce(sl.meet, (sl.join(a, b) for a in fam))
    assert lhs == rhs


def test_meet_is_intersection_and_a_sublocale():
    for f in FIXTURES():
        sl = enumerate_sublocales(f)
        for i in range(sl.n):
            for j in range(sl.n):
                inter = sl.masks[i] & sl.masks[j]
                assert is_sublocale(f, inter).ok
                assert sl.masks[sl.meet(i, j)] == inter


def test_generation_check():
    c3 = chain3()
    sl = enumerate_sublocales(c3)
    for i in range(sl.n):
        assert generation_check(sl, i).ok
    sq = square()
    slq = enumerate_sublocales(sq)
    rep = generation_check(slq, slq.index[as_mask(sq, ["a", "1"])])
    assert rep.ok and rep.expected == rep.computed == ("a", "1")
    for f in [fr for _, fr in corpus_frames(3) if fr.n <= 6]:
        lat = enumerate_sublocales(f)
        for i in range(lat.n):
            assert generation_check(lat, i).ok


def test_image_preimage_fixtures():
    c3, t2 = chain3(), two()
    t = transfer_of(identity_localic(c3))
    sl = t.source_lattice
    assert t.image_table == t.preimage_table == tuple(range(sl.n))

    t = transfer_of(localic_map(t2, c3, (0, 2)))
    sl, tl = t.source_lattice, t.target_lattice
    img, pre = t.image_table, t.preimage_table
    assert tl.label(img[sl.top]) == "{0,1}"
    assert tl.masks[img[sl.top]] == open_sub_mask(c3, c3.index["m"])
    assert tl.label(img[sl.bottom]) == "{1}"
    assert sl.label(pre[tl.index[c3.up[c3.index["m"]]]]) == "{1}"
    assert pre[tl.top] == sl.top


def corpus_localic_maps(max_n=5):
    frames = [fr for _, fr in corpus_frames(3) if fr.n <= max_n]
    return maps_in_hom_order((src, tgt) for src in frames for tgt in frames)


def test_check_adjunction_and_galois_laws():
    rep = check_adjunction(identity_localic(chain3()))
    assert rep == AdjReport(True, 16)
    rep = check_adjunction(localic_map(two(), chain3(), (0, 2)))
    assert rep == AdjReport(True, 8)
    for f in corpus_localic_maps():
        assert check_adjunction(f).ok
        t = SublocaleTransfer.build(f)
        for i in range(t.source_lattice.n):
            back = t.preimage_table[t.image_table[i]]
            assert t.source_lattice.le(i, back)
        for j in range(t.target_lattice.n):
            fwd = t.image_table[t.preimage_table[j]]
            assert t.target_lattice.le(fwd, j)


def test_transfer_tables_fixture():
    f = localic_map(two(), chain3(), (0, 2))
    t = SublocaleTransfer.build(f)
    assert [t.source_lattice.label(i) for i in range(2)] == ["{1}", "{0,1}"]
    assert t.image_table == (0, 1)
    assert t.preimage_table == (0, 1, 0, 1)


def test_join_formula_display_readings_frozen():
    sq = square()
    rep = join_formula_report(sq, [as_mask(sq, ["a", "1"]), as_mask(sq, ["b", "1"])])
    assert rep["meet_form"] == "{0,a,b,1}"
    sup = rep["readings"]["sup-form"]
    assert sup["status"] == "falsified" and sup["reason"] == "not-a-sublocale"
    assert sup["witness"]["condition"] == "meet" and sup["set"] == "{a,b,1}"
    assert rep["readings"]["sup-form-with-empty-join"]["status"] == "holds"

    c4 = chain4()
    rep = join_formula_report(c4, [as_mask(c4, ["a", "1"]), as_mask(c4, ["b", "1"])])
    assert rep["meet_form"] == "{a,b,1}"
    assert rep["readings"]["sup-form"]["status"] == "holds"
    empty = rep["readings"]["sup-form-with-empty-join"]
    assert empty["status"] == "falsified" and empty["reason"] == "not-the-least"
    assert empty["set"] == "{0,a,b,1}"
