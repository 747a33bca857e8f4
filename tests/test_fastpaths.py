"""Fast paths against the brute-force definitions they replaced.

S_l is built from primes, points are read off primes, frame homs are monotone
maps of join-irreducibles, transfer tables are images of points, I2 and h2 are
decided on cover pairs, h-continuity on cores, the Galois adjunction on unit,
counit and covers, and the operator samplers close over lower covers. Each is
compared here with the scan in `oracles.py` on every small frame, or on
random tables.
"""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localelab.corpus import (
    chain3,
    chain4,
    corpus_frames,
    corpus_posets,
    sierpinski,
    square,
    two,
)
from localelab.hops import HOperator, check_h, is_h_continuous, random_h
from localelab.interior import InteriorOperator, check_interior, make_continuous_op, random_op
from localelab.lattice import build_frame, frame_of_space
from localelab.maps import FrameHom, enumerate_frame_homs, right_adjoint
from localelab.points import points_of
from localelab.sublocales import (
    SublocaleTransfer,
    adjunction_report,
    enumerate_sublocales,
    transfer_of,
)
from oracles import (
    brute_adjunction,
    brute_continuous_table,
    brute_frame_homs,
    brute_h_axioms,
    brute_h_continuous,
    brute_image_table,
    brute_interior_axioms,
    brute_monotone_count,
    brute_point_filters,
    brute_preimage_table,
    brute_random_table,
    brute_sublocale_masks,
)

CORPUS4 = [fr for _, fr in corpus_frames(4)]
CORPUS5 = [fr for _, fr in corpus_frames(5)]
TRIVIAL = build_frame(("0",), ())
FIXTURES = [two(), chain3(), chain4(), square(), frame_of_space(sierpinski()), TRIVIAL]


def test_primes_are_meet_irreducible():
    for fr in CORPUS4 + FIXTURES:
        for a in range(fr.n):
            irreducible = a != fr.top and all(
                fr.meet(b, c) != a
                for b in range(fr.n) for c in range(fr.n) if b != a and c != a
            )
            assert bool(fr.primes >> a & 1) == irreducible, (fr, a)


def test_sublocale_lattice_matches_subset_scan():
    frames = CORPUS4 + [fr for fr in CORPUS5 if fr.n <= 12] + FIXTURES
    for fr in frames:
        sl = enumerate_sublocales(fr, limit=fr.n)
        assert list(sl.masks) == brute_sublocale_masks(fr), fr
        for i in range(sl.n):
            assert sl.label(i) == sl.sub(i).label()
            below = sorted(j for j in range(sl.n) if not sl.masks[j] & ~sl.masks[i])
            assert list(sl.below[i]) == below
            for j in range(sl.n):
                assert sl.le(i, j) == (not sl.masks[i] & ~sl.masks[j])
                assert sl.masks[sl.meet(i, j)] == sl.masks[i] & sl.masks[j]
                union = sl.masks[i] | sl.masks[j]
                least = fr.full_mask
                for m in sl.masks:
                    if not union & ~m:
                        least &= m
                assert sl.masks[sl.join(i, j)] == least
            covers = [j for j in below if j != i
                      and not any(k not in (i, j) and sl.le(j, k) for k in below)]
            assert sorted(sl.lower_covers[i]) == covers


def test_points_match_assignment_scan():
    frames = [fr for fr in CORPUS5 if fr.n <= 16] + FIXTURES
    for fr in frames:
        assert [p.filter for p in points_of(fr)] == brute_point_filters(fr), fr


def test_trivial_frame_has_no_points():
    assert points_of(build_frame(("0",), ())) == []


# -- frame homs by duality -----------------------------------------------------------


def _reindexed(fr):
    """The same frame with its element indices reversed, so that index order
    is no longer a linear extension of the order."""
    return build_frame(fr.labels[::-1], [(fr.labels[a], fr.labels[b]) for a, b in fr.covers()])


def test_frame_homs_match_product_scan():
    checked = candidates = 0
    for a in CORPUS4 + [TRIVIAL]:
        for b in CORPUS4 + [TRIVIAL]:
            if b.n ** a.n <= 20_000:
                assert enumerate_frame_homs(a, b) == brute_frame_homs(a, b), (a, b)
                checked += 1
                candidates += b.n ** a.n
    assert (checked, candidates) == (238, 844_843)
    reindexed = [_reindexed(fr) for fr in (square(), CORPUS4[4], CORPUS4[5], CORPUS4[18])]
    for a in reindexed + [chain3()]:
        for b in reindexed:
            assert enumerate_frame_homs(a, b) == brute_frame_homs(a, b), (a, b)
    assert enumerate_frame_homs(TRIVIAL, TRIVIAL) == [(0,)]
    assert enumerate_frame_homs(TRIVIAL, two()) == []
    assert enumerate_frame_homs(two(), TRIVIAL) == [(0, 0)]


def test_hom_counts_are_monotone_maps():
    """Homs D(P) -> D(Q) are the monotone maps Q -> P, on every corpus-4 pair."""
    posets = corpus_posets(4)
    total = 0
    for p, a in zip(posets, CORPUS4):
        for q, b in zip(posets, CORPUS4):
            count = len(enumerate_frame_homs(a, b, budget=16 ** 16))
            assert count == brute_monotone_count(q, p), (p, q)
            total += count
    assert total == 19_702


def _maps(frames, max_candidates):
    """Localic maps between frames within the default S_l bound, pairs with at
    most max_candidates hom candidates."""
    frames = [fr for fr in frames if fr.n <= 12]
    for a in frames:
        for b in frames:
            if b.n ** a.n <= max_candidates:
                for table in enumerate_frame_homs(a, b, budget=max_candidates):
                    yield right_adjoint(FrameHom(a, b, table))


def test_transfer_tables_match_sloc_core():
    checked = 0
    for f in _maps(CORPUS4, 5000):
        t = transfer_of(f)
        assert t.preimage_table == brute_preimage_table(t), f.describe()
        assert t.image_table == brute_image_table(t), f.describe()
        checked += 1
    assert checked > 500


# -- the Galois adjunction on unit, counit and covers --------------------------------

TRANSFERS = [transfer_of(f) for f in _maps(CORPUS4, 500)]


@st.composite
def transfers(draw):
    """The transfer of a real map, with up to two table entries overwritten by
    an arbitrary index or by another entry of the same table."""
    t = draw(st.sampled_from(TRANSFERS))
    tables = {"image_table": list(t.image_table), "preimage_table": list(t.preimage_table)}
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(sorted(tables)))
        table = tables[name]
        k = st.integers(0, len(table) - 1)
        values = len(t.target_lattice if name == "image_table" else t.source_lattice)
        table[draw(k)] = draw(st.one_of(st.integers(0, values - 1), k.map(table.__getitem__)))
    return SublocaleTransfer(t.map, t.source_lattice, t.target_lattice,
                             tuple(tables["image_table"]), tuple(tables["preimage_table"]))


@given(transfers())
@settings(max_examples=300)
def test_adjunction_report_matches_all_pairs_scan(t):
    assert adjunction_report(t) == brute_adjunction(t)


# -- I2 and h2 on cover pairs ----------------------------------------------------

SMALL_LATTICES = [enumerate_sublocales(fr) for fr in CORPUS4 if fr.n <= 12]


@st.composite
def tables(draw):
    """A lattice and a table on it: raw, or a valid operator with a few entries
    overwritten, so monotone, nearly monotone and wild tables all occur."""
    sl = draw(st.sampled_from(SMALL_LATTICES))
    entry = st.integers(0, sl.n - 1)
    if draw(st.booleans()):
        table = draw(st.lists(entry, min_size=sl.n, max_size=sl.n))
    else:
        table = list(random_op(sl, random.Random(draw(st.integers(0, 2**16)))).table)
        for _ in range(draw(st.integers(0, 2))):
            table[draw(entry)] = draw(entry)
    return sl, tuple(table)


@given(tables())
def test_check_interior_matches_all_pairs_scan(case):
    sl, table = case
    op = InteriorOperator(sl, table)
    rep = check_interior(op)
    assert (rep.passed, rep.witnesses) == brute_interior_axioms(op)


@given(tables())
def test_check_h_matches_all_pairs_scan(case):
    sl, table = case
    h = HOperator(sl, table)
    rep = check_h(h)
    assert (rep.passed, rep.witnesses) == brute_h_axioms(h)


# -- h-continuity as I-continuity of the cores ---------------------------------------

REAL_MAPS = [t.map for t in TRANSFERS]


@st.composite
def h_continuity_cases(draw):
    """A real map with an h operator on each side: a raw total table, mostly
    non-contractive and often invalid, or the constant-top table."""
    f = draw(st.sampled_from(REAL_MAPS))

    def h_on(sl):
        if draw(st.integers(0, 3)) == 0:
            return HOperator(sl, (sl.top,) * sl.n)
        entry = st.integers(0, sl.n - 1)
        return HOperator(sl, tuple(draw(st.lists(entry, min_size=sl.n, max_size=sl.n))))

    return f, h_on(enumerate_sublocales(f.source)), h_on(enumerate_sublocales(f.target))


@given(h_continuity_cases())
@settings(max_examples=300)
def test_is_h_continuous_matches_inline_scan(case):
    f, h_l, h_m = case
    rep = is_h_continuous(f, h_l, h_m)
    assert (rep.ok, rep.checked, rep.witness, rep.witness_index) == brute_h_continuous(
        f, h_l, h_m)


# -- samplers: same draws, same tables as the O(n^2) loops --------------------------


@pytest.mark.parametrize("seed", range(5))
def test_samplers_match_quadratic_loops(seed):
    for sl in (enumerate_sublocales(fr, limit=fr.n) for fr in CORPUS4):
        for sample, lat in ((random_op, sl), (random_h, sl)):
            fast, slow = random.Random(seed), random.Random(seed)
            assert sample(lat, fast).table == brute_random_table(lat, slow)
            assert fast.random() == slow.random()


def test_make_continuous_op_matches_quadratic_loop():
    checked = 0
    for k, f in enumerate(_maps(CORPUS4, 2000)):
        if k % 7:
            continue
        rng = random.Random(k)
        op_m = random_op(enumerate_sublocales(f.target), rng)
        fast, slow = random.Random(k), random.Random(k)
        op_l = make_continuous_op(f, op_m, fast)
        assert op_l.table == brute_continuous_table(f, op_m, transfer_of(f), slow)
        assert fast.random() == slow.random()
        checked += 1
    assert checked > 50
