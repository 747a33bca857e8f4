"""Fast paths against the brute-force definitions they replaced.

S_l is built from primes, points are read off primes, localic maps are
monotone maps of primes and frame homs their left adjoints, the point-order
check visits comparable pairs, transfer tables are images of points built in
one pass, I2 and h2 are decided on cover pairs, h-continuity on cores, the Galois
adjunction of sublocales on unit, counit and covers, and for all the maps of a
frame pair in one lane-packed pass over all pairs, as are their left adjoints'
frame-hom laws and round trip on the packed prime sets, localic maps are point
maps read off join-irreducibles and extended by meets, their left adjoints
looked up by the primes above each element, the frame-hom law
scans read table rows from locals, the operator samplers close over lower covers, the
operator kernels check and classify an induced operator in one pass over
point masks, the initial lift is one preimage gather through the forall_f
table, posets validate and take canonical keys on bitmask rows, the
corpus grows by one-point extensions, and frames read meets and joins off
principal ideals and decide distributivity on join-irreducibles.
Each is compared here with the scan in `oracles.py` on every small frame or
poset, or on random tables.
"""
import copy
import random
from collections import Counter
from itertools import combinations_with_replacement, groupby, product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localelab.corpus import (
    _poset_classes,
    all_posets,
    canonical_poset_key,
    chain3,
    chain4,
    corpus_frames,
    corpus_posets,
    sierpinski,
    square,
    two,
)
from localelab.errors import LocaleLabError, NotAPoset, NotLocalic
from localelab import points, sublocales, verify
from localelab.hops import (
    HInitialReport,
    HOperator,
    _core,
    check_h,
    discrete_h,
    initial_h,
    is_h_continuous,
    random_h,
    trivial_h,
)
from localelab.interior import (
    GAP_KINDS,
    ContinuityReport,
    InitialReport,
    InteriorOperator,
    _Batch,
    _axiom_gaps,
    _candidate,
    _closed_draw,
    _composition,
    _confirmed,
    _continuous_draw,
    _first,
    _first_gap,
    _lanes,
    _lift,
    _open_preimage,
    _preimages,
    _universal_report,
    check_interior,
    discrete_op,
    initial_interior,
    initial_lift,
    is_I_continuous,
    make_continuous_op,
    op_join,
    op_le,
    op_le_gap,
    op_meet,
    random_op,
    trivial_op,
)
from localelab.lattice import (
    FiniteSpace,
    Frame,
    Poset,
    bits,
    build_frame,
    downset_frame,
    frame_of_space,
    heyting_identity_report,
    mask_of,
    set_label,
)
from localelab.maps import (
    FrameHom,
    LocalicMap,
    _adjoint_points,
    _adjoint_table,
    check_frame_hom,
    compose_localic,
    enumerate_frame_homs,
    localic_map,
    localic_maps,
    right_adjoint,
)
from localelab.points import is_spatial, points_of, pt_space, sigma, spatialization
from localelab.sublocales import (
    SublocaleTransfer,
    _adjoint_lanes,
    _adjunction_lanes,
    _generated,
    _least_containing,
    _point_tables,
    _point_words,
    adjunction_report,
    enumerate_sublocales,
    generation_check,
    is_sublocale,
    sub_join_mask,
    transfer_of,
)
from localelab.verify import (
    CHECKS,
    CorpusConfig,
    _Ctx,
    _invalid,
    _ops_for_initial,
    run_verification,
)
from oracles import (
    brute_adjunction,
    brute_batch_tables,
    brute_canonical_key,
    brute_check_frame_hom,
    brute_closure,
    brute_continuous_table,
    brute_downset_order,
    brute_forall_table,
    brute_frame_homs,
    brute_generation_check,
    brute_h_axioms,
    brute_heyting_identity_report,
    brute_heyting_table,
    brute_h_continuous,
    brute_I_continuous,
    brute_image_table,
    brute_initial_h,
    brute_initial_interior,
    brute_initial_lift,
    brute_is_spatial,
    brute_interior_axioms,
    brute_is_sublocale,
    brute_lattice_outcome,
    brute_left_adjoint,
    brute_monotone_count,
    brute_op_join,
    brute_op_le_gap,
    brute_op_meet,
    brute_point_filters,
    brute_point_order,
    brute_poset_classes,
    brute_preimage_table,
    brute_random_table,
    brute_right_adjoint_table,
    brute_sigma,
    brute_sloc_core,
    brute_sublocale_masks,
    brute_transfer_tables,
    brute_validate,
    gap_masks,
    maps_in_hom_order,
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


def test_by_primes_inverts_the_primes_above():
    """`by_primes` sends the primes above x back to x, and its keys are
    exactly the up-closed sets of primes, so every lookup of a left adjoint
    read off a point map hits."""
    assert len(CORPUS5) == 87
    for fr in CORPUS5 + [two(), chain3(), square()]:
        above = [fr.up[x] & fr.primes for x in range(fr.n)]
        assert [fr.by_primes[k] for k in above] == list(range(fr.n)), fr
        primes = list(bits(fr.primes))
        subsets = [sum(1 << p for p, keep in zip(primes, c) if keep)
                   for c in product((0, 1), repeat=len(primes))]
        up_closed = {k for k in subsets if all(not fr.up[p] & fr.primes & ~k for p in bits(k))}
        assert set(fr.by_primes) == up_closed, fr


def test_sublocale_lattice_matches_subset_scan():
    frames = CORPUS4 + [fr for fr in CORPUS5 if fr.n <= 12] + FIXTURES
    for fr in frames:
        sl = enumerate_sublocales(fr, limit=fr.n)
        assert sorted(sl.masks, key=lambda m: (m.bit_count(), m)) == brute_sublocale_masks(fr), fr
        for i in range(sl.n):
            # index i is the point mask of sublocale i, bit b for prime_list[b]
            assert sl.masks[i] & fr.primes == sum(
                1 << p for b, p in enumerate(fr.prime_list) if i >> b & 1), fr
            assert sl.label(i) == set_label(fr.labels, sl.masks[i])
            below = sorted(j for j in range(sl.n) if not sl.masks[j] & ~sl.masks[i])
            # the sublocales below i are the subsets of its points, so a
            # uniform seed below i is one fair bit per point of i
            assert below == [q for q in range(i + 1) if not q & ~i]
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


# -- the closure kernel against fixpoint scans ------------------------------------

def test_generated_matches_fixpoint_closure():
    """_generated against the all-pairs fixpoint, under meets and joins, on
    every subset of every corpus-4 frame of at most 8 elements, from nothing
    and from the closure of the subset's points."""
    frames = [fr for fr in CORPUS4 if fr.n <= 8]
    assert len(frames) == 17
    for fr in frames:
        for table in (fr.meet_table, fr.join_table):
            for mask in range(1 << fr.n):
                want = brute_closure(table, mask)
                assert _generated(table, mask) == want, (fr, mask)
                acc = brute_closure(table, mask & fr.primes)
                assert _generated(table, mask, acc) == want, (fr, mask)


def test_is_sublocale_matches_first_violation_scan():
    # corpus 3 alone cannot tell the arrow scan's order: its first arrow
    # witnesses are the same members first or elements first
    for fr in [fr for fr in CORPUS4 if fr.n <= 10] + FIXTURES:
        for mask in range(1 << fr.n):
            assert is_sublocale(fr, mask) == brute_is_sublocale(fr, mask), (fr, mask)


def test_sloc_core_matches_greatest_fixpoint():
    """On a meet-closed subset with the top, the meet-closure of its points
    with the top is a sublocale and the greatest fixpoint of the arrow
    condition."""
    for fr in [fr for fr in CORPUS4 if fr.n <= 10] + FIXTURES:
        for mask in range(1 << fr.n):
            if brute_is_sublocale(fr, mask).condition in ("top", "meet"):
                continue
            core = _generated(fr.meet_table, mask & fr.primes, 1 << fr.top)
            assert core == brute_sloc_core(fr, mask), (fr, mask)
            assert is_sublocale(fr, core).ok, (fr, mask)


def test_sub_join_mask_matches_least_containing():
    """Joins of families of 0 to 3 sublocales, repeats allowed, on every
    corpus-4 frame."""
    for fr in CORPUS4 + FIXTURES:
        sl = enumerate_sublocales(fr, limit=fr.n)
        for k in range(4):
            for family in combinations_with_replacement(sl.masks, k):
                union = 0
                for m in family:
                    union |= m
                assert sub_join_mask(fr, family) == _least_containing(sl, union), (fr, family)


def test_points_match_assignment_scan():
    frames = [fr for fr in CORPUS5 if fr.n <= 16] + FIXTURES
    for fr in frames:
        assert [p.filter for p in points_of(fr)] == brute_point_filters(fr), fr


def test_heyting_arrows_match_double_scan():
    for fr in CORPUS5 + FIXTURES:
        assert fr.imp_table == brute_heyting_table(fr), fr


def test_trivial_frame_has_no_points():
    assert points_of(build_frame(("0",), ())) == []


def test_sigma_pass_matches_point_calls():
    """pt_space, spatialization and is_spatial read sigma off one pass over
    the point filters; each agrees with the scans that call every point."""
    for fr in CORPUS5 + FIXTURES:
        pts = points_of(fr)
        sig = [brute_sigma(pts, a) for a in range(fr.n)]
        assert [sigma(fr, a, pts) for a in range(fr.n)] == sig, fr
        want = FiniteSpace([f"p{i}" for i in range(len(pts))], sig)
        space = pt_space(fr)
        assert (space.points, space.opens) == (want.points, want.opens), fr
        phi = spatialization(fr)
        index = {m: i for i, m in enumerate(want.opens)}
        assert phi.table == tuple(index[m] for m in sig), fr
        assert phi.target.key() == frame_of_space(want).key(), fr
        assert is_spatial(fr).to_json() == brute_is_spatial(fr, pts).to_json(), fr


@pytest.mark.parametrize("fixture", [square, chain3])
def test_is_spatial_failures_match_point_calls(monkeypatch, fixture):
    """With one point dropped, the unseparated pairs are the point-call
    scan's, in its row-major order."""
    fr = fixture()
    kept = points_of(fr)[1:]
    monkeypatch.setattr(points, "points_of", lambda frame: kept)
    rep, want = is_spatial(fr), brute_is_spatial(fr, kept)
    assert not rep.ok and rep.failures
    assert (rep.checked, rep.failures) == (want.checked, want.failures)


def test_point_functions_ignore_the_sublocale_bound(monkeypatch):
    # LOCALELAB_SIZE_LIMIT bounds S_l alone; pt(L) is one pass over the primes
    monkeypatch.setenv("LOCALELAB_SIZE_LIMIT", "2")
    assert len(points_of(chain3())) == 2
    assert pt_space(chain3()).opens == (0, 2, 3)
    assert spatialization(chain3()).table == (0, 1, 2)
    assert is_spatial(chain3()).ok


def test_every_corpus5_frame_has_one_point_per_poset_element():
    # a frame of down-sets of P has one prime, so one point, per element of P
    posets = [poset for n in range(1, 6) for poset in all_posets(n)]
    assert len(posets) == len(CORPUS5) == 87
    for poset, fr in zip(posets, CORPUS5):
        assert len(points_of(fr)) == poset.n, fr


# -- frame-level checks: each fact computed once per frame --------------------------


def _corrupted(fr):
    """Copies of fr with one entry of its meet, join or arrow table set to
    another element, every such entry and value in turn."""
    for name in ("meet_table", "join_table", "imp_table"):
        for a, b, v in product(range(fr.n), repeat=3):
            rows = [list(r) for r in getattr(fr, name)]
            if rows[a][b] != v:
                rows[a][b] = v
                bad = copy.copy(fr)
                setattr(bad, name, tuple(map(tuple, rows)))
                yield bad


def test_heyting_identity_report_matches_fold_scan():
    for fr in [fr for fr in CORPUS5 if fr.n <= 8] + FIXTURES:
        assert heyting_identity_report(fr) == brute_heyting_identity_report(fr), fr


def test_heyting_identity_report_matches_fold_scan_on_broken_tables():
    """Folded in the scan's order, the subset recurrence agrees with the scan
    on tables that are not a frame's, flags, cases and witness alike."""
    flags = ("join_meet_distribution", "arrow_preserves_meets", "sup_arrow_meet_form")
    seen = Counter()
    for bad in (x for fr in (two(), chain3(), square()) for x in _corrupted(fr)):
        rep = heyting_identity_report(bad)
        assert rep == brute_heyting_identity_report(bad)
        for flag in flags:
            seen[flag, rep[flag]] += 1
        witness = rep["sup_arrow_display_form"].get("witness")
        seen["witness", witness and tuple(witness["A"])] += 1
    assert all(seen[flag, ok] for flag in flags for ok in (True, False))
    # the empty-join witness is kept only when no nonempty A gives one
    assert seen["witness", ()] and len([k for k in seen if k[0] == "witness"]) > 3


def _heyting_adjunction_scan(frames):
    """The heyting-adjunction check as the per-triple method-call scan."""
    triples = 0
    for key, fr in frames:
        for a in range(fr.n):
            for b in range(fr.n):
                for c in range(fr.n):
                    triples += 1
                    if fr.le(fr.meet(c, a), b) != fr.le(c, fr.imp(a, b)):
                        line = (f"heyting adjunction fails on {key} at "
                                f"({fr.labels[a]}, {fr.labels[b]}, {fr.labels[c]})")
                        return "fail", {"triples": triples}, {"kind": "static", "lines": [line]}
    return "pass", {"triples": triples}, None


def test_heyting_adjunction_check_matches_triple_scan():
    ctx = _Ctx(CorpusConfig(max_poset_size=5))
    check = verify.CHECKS["heyting-adjunction"]
    assert check(ctx) == _heyting_adjunction_scan(ctx.frames)
    failures = 0
    for bad in (x for fr in (chain3(), square()) for x in _corrupted(fr)):
        ctx.frames = [("ok", chain3()), ("bad", bad)]
        got = check(ctx)
        assert got == _heyting_adjunction_scan(ctx.frames)
        failures += got[0] == "fail"
    assert failures


def test_generation_check_matches_per_call_joins(monkeypatch):
    """Against the n^2 joins rebuilt per sublocale, on every corpus-5 frame
    with at most 6 elements; generation-property builds them once per frame."""
    frames = [fr for fr in CORPUS5 if fr.n <= 6]
    for fr in frames:
        sl = enumerate_sublocales(fr)
        for i in range(sl.n):
            assert generation_check(sl, i) == brute_generation_check(sl, i)
    calls = Counter()
    join = sublocales.sub_join_mask
    monkeypatch.setattr(sublocales, "sub_join_mask",
                        lambda host, masks: calls.update([host]) or join(host, masks))
    ctx = _Ctx(CorpusConfig())
    for _, fr in ctx.frames:
        vars(ctx.sl(fr)).pop("open_closed_joins", None)
    assert verify.CHECKS["generation-property"](ctx)[0] == "pass"
    assert calls == {fr: fr.n ** 2 for _, fr in ctx.frames if fr.n <= 6}


def test_generation_property_validates_no_sublocale(monkeypatch):
    """generation-property reads each enumerated sublocale by its index and
    re-checks none of them: in a default verify run is_sublocale is left to
    the sup-form readings."""
    calls = []
    real = sublocales.is_sublocale
    monkeypatch.setattr(sublocales, "is_sublocale",
                        lambda frame, members: calls.append(members) or real(frame, members))
    ctx = _Ctx(CorpusConfig())
    assert verify.CHECKS["generation-property"](ctx)[0] == "pass"
    assert calls == []


# -- posets on bitmask rows ----------------------------------------------------------

CORPUS5_POSETS = corpus_posets(5)


def test_poset_and_corpus_keys_are_pinned():
    # keys read the relation as its n*n row-major 0/1 bytes; frame keys,
    # hashes and every report are built on them
    assert [fr.poset.key() for fr in (two(), chain3(), square())] == [
        "p2-1e5fab680f", "p3-031e79c6b0", "p4-37838bd8c1"]
    assert [k for k, _ in corpus_frames(3)] == [
        "D[1:1]", "D[2:9]", "D[2:b]", "D[3:111]", "D[3:113]", "D[3:117]", "D[3:135]",
        "D[3:137]"]


def test_canonical_key_matches_matrix_scan():
    for poset in CORPUS5_POSETS:
        assert canonical_poset_key(poset) == brute_canonical_key(poset), poset.up


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_poset_classes_match_relation_scan(n):
    # same classes, same keys, and the representative the scan reaches first
    got = [(key, p.labels, p.up) for key, p in _poset_classes(n)]
    assert got == [(key, p.labels, p.up) for key, p in brute_poset_classes(n)]


def _dual(poset):
    n = poset.n
    return Poset(poset.labels, [[poset.leq(b, a) for b in range(n)] for a in range(n)])


def test_from_order_matches_lattice_scan():
    # every poset up to 5 points and its dual: M3, N5 and the non-lattices
    # give the scan's exception, message and witness, the rest its tables
    # and irreducibles
    outcomes = []
    for poset in CORPUS5_POSETS:
        for q in (poset, _dual(poset)):
            try:
                fr = Frame.from_order(q)
                got = "frame", fr.meet_table, fr.join_table, fr.join_irreducibles, fr.primes
            except LocaleLabError as exc:
                got = type(exc), str(exc), exc.witness
            want = brute_lattice_outcome(q)
            assert got == want, q.up
            outcomes.append(want[0] if want[0] == "frame" else want[0].__name__)
    assert Counter(outcomes) == {"frame": 16, "NoMeetOrJoin": 154, "NotDistributive": 4}


def test_downset_frames_match_inclusion_scan():
    # order rows read off the covers of the down-sets, on every poset up to 5 points
    for poset in CORPUS5_POSETS:
        fr, want = downset_frame(poset), brute_downset_order(poset)
        assert (fr.labels, fr.up, fr.dn) == (want.labels, want.up, want.dn), poset.up


def _relabeled(poset, perm):
    """poset with element i moved to index perm[i], label and order alike."""
    n = poset.n
    labels = [None] * n
    le = [[False] * n for _ in range(n)]
    for i in range(n):
        labels[perm[i]] = poset.labels[i]
        for j in range(n):
            le[perm[i]][perm[j]] = poset.leq(i, j)
    return Poset(labels, le)


@st.composite
def relabelings(draw):
    poset = draw(st.sampled_from(CORPUS5_POSETS))
    return poset, _relabeled(poset, draw(st.permutations(range(poset.n))))


@given(relabelings())
@settings(max_examples=300)
def test_canonical_key_of_relabeling_matches_matrix_scan(case):
    poset, relabeled = case
    assert canonical_poset_key(relabeled) == brute_canonical_key(relabeled)
    assert canonical_poset_key(relabeled) == canonical_poset_key(poset)


@st.composite
def relations(draw):
    """An n x n matrix, n <= 5: a relabeled corpus poset with up to two entries
    flipped (a missing diagonal, cycles, lost transitivity), or a random 0/1
    relation that is reflexive, or reflexive and upper-triangular."""
    n = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["poset", "poset", "reflexive", "triangular"]))
    if shape == "poset":
        poset = _relabeled(draw(st.sampled_from(all_posets(n))), draw(st.permutations(range(n))))
        le = [[poset.leq(a, b) for b in range(n)] for a in range(n)]
        for _ in range(draw(st.integers(0, 2))):
            a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            le[a][b] = not le[a][b]
        return le
    le = [[draw(st.integers(0, 1)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        le[i][i] = 1
        if shape == "triangular":
            le[i][:i] = [0] * i
    return le


@given(relations())
@settings(max_examples=300)
def test_validate_matches_matrix_scan(le):
    # from_rows keeps the relation unchecked, so validate() meets every
    # matrix; the matrix constructor validates and raises the same
    labels = [f"e{i}" for i in range(len(le))]
    rows = tuple(sum(bool(x) << j for j, x in enumerate(row)) for row in le)
    poset = Poset.from_rows(labels, rows)
    try:
        poset.validate()
        got = None
    except NotAPoset as exc:
        got = str(exc), exc.witness
    assert got == brute_validate(labels, le)
    try:
        built = Poset(labels, le).up
    except NotAPoset as exc:
        built = str(exc), exc.witness
    assert built == (rows if got is None else got)


def test_poset_rejects_bad_shapes_and_duplicate_labels():
    with pytest.raises(ValueError, match="shape"):
        Poset("ab", [[1, 0]])
    with pytest.raises(ValueError, match="shape"):
        Poset("ab", [[1, 0], [1]])
    with pytest.raises(ValueError, match="duplicate"):
        Poset("aa", [[1, 0], [0, 1]])


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
            count = len(enumerate_frame_homs(a, b))
            assert count == brute_monotone_count(q, p), (p, q)
            total += count
    assert total == 19_702


def _sorted_right_adjoints(a, b):
    """The right adjoints b -> a of the product scan's homs a -> b, in
    lexicographic order of their points."""
    return sorted((right_adjoint(a, b, t) for t in brute_frame_homs(a, b)),
                  key=lambda f: f.points)


def test_localic_maps_are_the_right_adjoints_of_the_product_scan():
    """On the product-scan pairs and the re-indexed frames, localic_maps
    M -> L gives the right adjoints of every hom L -> M, in lexicographic
    order of points."""
    checked = 0
    for a in CORPUS4 + [TRIVIAL]:
        for b in CORPUS4 + [TRIVIAL]:
            if b.n ** a.n <= 20_000:
                assert localic_maps(b, a) == _sorted_right_adjoints(a, b), (a, b)
                checked += 1
    assert checked == 238
    reindexed = [_reindexed(fr) for fr in (square(), CORPUS4[4], CORPUS4[5], CORPUS4[18])]
    for a in reindexed + [chain3()]:
        for b in reindexed:
            assert localic_maps(b, a) == _sorted_right_adjoints(a, b), (a, b)
    empty = LocalicMap(TRIVIAL, TRIVIAL, ())
    assert localic_maps(TRIVIAL, TRIVIAL) == [empty]
    assert localic_maps(TRIVIAL, two()) == [LocalicMap(TRIVIAL, two(), ())]
    assert localic_maps(two(), TRIVIAL) == []


def test_localic_maps_are_monotone_maps_in_lexicographic_order():
    """Localic maps D(P) -> D(Q) are the monotone maps P -> Q, on every
    corpus-4 pair; each is the validated LocalicMap of its points, and they
    come in lexicographic order of points."""
    posets = corpus_posets(4)
    total = 0
    for p, a in zip(posets, CORPUS4):
        for q, b in zip(posets, CORPUS4):
            got = localic_maps(a, b)
            assert len(got) == brute_monotone_count(p, q), (p, q)
            points = [f.points for f in got]
            assert points == sorted(set(points))
            assert all(f == LocalicMap(a, b, f.points) for f in got)
            total += len(got)
    assert total == 19_702


def test_point_order_check_matches_all_pairs_scan():
    """LocalicMap accepts a tuple of target points exactly when the all-pairs
    scan finds no pair out of order, and otherwise names the scan's first
    pair: every tuple, monotone or not, on every corpus-3 frame pair and on
    the re-indexed frames."""
    frames = [fr for _, fr in corpus_frames(3)]
    frames += [_reindexed(fr) for fr in (square(), CORPUS4[4], CORPUS4[5], CORPUS4[18])]
    tuples = accepted = 0
    for a in frames:
        for b in frames:
            for pts in product(b.prime_list, repeat=len(a.prime_list)):
                want = brute_point_order(a, b, pts)
                try:
                    LocalicMap(a, b, pts)
                except NotLocalic as exc:
                    assert exc.witness == want, (a, b, pts)
                else:
                    assert want is None, (a, b, pts)
                    accepted += 1
                tuples += 1
    assert (tuples, accepted) == (3126, 1316)


def _maps(frames, max_candidates):
    """Localic maps between frames within the default S_l bound, pairs with at
    most max_candidates hom candidates."""
    frames = [fr for fr in frames if fr.n <= 12]
    return maps_in_hom_order((a, b) for a in frames for b in frames
                             if b.n ** a.n <= max_candidates)


def test_transfer_tables_match_sloc_core():
    checked = 0
    for f in _maps(CORPUS4, 5000):
        t = transfer_of(f)
        assert t.preimage_table == brute_preimage_table(t), f.describe()
        assert t.image_table == brute_image_table(t), f.describe()
        checked += 1
    assert checked > 500


# -- map-layer kernels against the method-call scans ---------------------------------

# every frame hom between corpus-4 frames, grouped by frame pair
HOMS4 = {(a, b): enumerate_frame_homs(a, b) for a in CORPUS4 for b in CORPUS4}
HOM_PAIRS = [pair for pair, homs in HOMS4.items() if homs]


def _overwrite(draw, table, n):
    """table with up to two entries replaced, each by a value in -1..n (so
    out of range at either end now and then) or by another entry."""
    table = list(table)
    for _ in range(draw(st.integers(0, 2))):
        k = st.integers(0, len(table) - 1)
        table[draw(k)] = draw(st.one_of(st.integers(-1, n), k.map(table.__getitem__)))
    return tuple(table)


@st.composite
def map_cases(draw):
    """A corpus-4 hom h: M -> L, its right adjoint f: L -> M, and h's and
    f's tables with up to two entries overwritten."""
    m, l = draw(st.sampled_from(HOM_PAIRS))
    h = FrameHom(m, l, draw(st.sampled_from(HOMS4[m, l])))
    f = right_adjoint(h.source, h.target, h.table)
    return h, f, _overwrite(draw, h.table, l.n), _overwrite(draw, f.table, m.n)


@given(map_cases())
@settings(max_examples=300)
def test_check_frame_hom_matches_method_scan(case):
    h, f, hom_table, map_table = case
    assert check_frame_hom(h.source, h.target, hom_table) == brute_check_frame_hom(
        h.source, h.target, hom_table)
    # a localic map keeps meets and top but often not joins or the bottom
    assert check_frame_hom(f.source, f.target, map_table) == brute_check_frame_hom(
        f.source, f.target, map_table)


def test_point_maps_round_trip_every_corpus4_hom():
    """The localic map read off the points of each of the 19,702 corpus-4
    homs extends to the join scan's right adjoint table, and its derived
    left adjoint is the hom itself."""
    homs = 0
    for (a, b), tables in HOMS4.items():
        for table in tables:
            f = right_adjoint(a, b, table)
            assert f.table == brute_right_adjoint_table(FrameHom(a, b, table))
            assert f.adjoint.table == table
            homs += 1
    assert homs == 19_702


def _meet_maps(source, target):
    """(values at the primes, table) of every map source -> target that keeps
    binary meets and the top: each is fixed by its monotone restriction to
    the primes, every x going to the meet of the values at the primes above x."""
    primes = list(bits(source.primes))
    for values in product(range(target.n), repeat=len(primes)):
        at = dict(zip(primes, values))
        if any(source.le(p, q) and not target.le(at[p], at[q]) for p in primes for q in primes):
            continue
        table = []
        for x in range(source.n):
            y = target.top
            for p in primes:
                if source.le(x, p):
                    y = target.meet(y, at[p])
            table.append(y)
        yield values, tuple(table)


def test_localic_map_accepts_exactly_the_prime_valued_meet_maps():
    """A table that keeps meets and the top is localic exactly when it sends
    primes to primes; otherwise the point map names a point sent to a
    non-point. Every such table between corpus-4 frames of at most 6
    elements, and on the accepted ones the values at the primes."""
    small = [fr for fr in CORPUS4 if fr.n <= 6]
    tables = accepted = 0
    for a in small:
        for b in small:
            for values, table in _meet_maps(a, b):
                try:
                    f = localic_map(a, b, table)
                except NotLocalic as exc:
                    assert exc.witness[0] == "point-not-prime", exc.witness
                    localic = False
                else:
                    assert f.points == tuple(values) and f.table == table
                    localic = True
                assert localic == all(b.primes >> v & 1 for v in values)
                tables += 1
                accepted += localic
    assert (tables, accepted) == (6346, 1643)


def test_compose_localic_is_table_composition():
    maps = list(_maps(CORPUS4, 500))
    by_source = {}
    for g in maps:
        by_source.setdefault(g.source, []).append(g)
    pairs = 0
    for f in maps:
        for g in by_source.get(f.target, ()):
            assert compose_localic(g, f).table == tuple(g.table[y] for y in f.table)
            pairs += 1
    assert pairs == 4672


@given(map_cases())
@settings(max_examples=300)
def test_left_adjoint_matches_method_scan(case):
    """localic_map accepts a table exactly when the method scan finds a left
    adjoint for it, and the derived adjoint is the scan's."""
    _, f, _, map_table = case
    adj, failure = brute_left_adjoint(f.source, f.target, map_table)
    try:
        got = localic_map(f.source, f.target, map_table)
    except NotLocalic as exc:
        assert failure is not None
        assert (exc.witness == ("totality",)) == (failure[1] == ("totality",))
    else:
        assert failure is None and got.adjoint.table == adj


@given(map_cases())
@settings(max_examples=300)
def test_transfer_build_matches_per_sublocale_loops(case):
    f = case[1]
    t = SublocaleTransfer.build(f)
    assert (t.image_table, t.preimage_table) == brute_transfer_tables(
        f, t.source_lattice, t.target_lattice)


@pytest.fixture(scope="module")
def every_corpus4_map():
    """A context whose maps are every localic map between corpus-4 frames,
    and per map its (image, preimage) tables as the per-sublocale scan finds
    them on the map's own frames."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("LOCALELAB_SIZE_LIMIT", "16")
        ctx = _Ctx(CorpusConfig(map_budget=10 ** 24))
        assert len(ctx.maps) == 19_702
    return ctx, [brute_transfer_tables(f, ctx.sl(f.source), ctx.sl(f.target)) for f in ctx.maps]


def test_transfer_build_matches_per_sublocale_loops_on_every_run_map(every_corpus4_map):
    """On every corpus-4 map, the image and preimage tables a transfer reads
    from the cache keyed by target point count and point function are those
    the per-sublocale scan finds on the map's own frames."""
    ctx, brute = every_corpus4_map
    for f, tables in zip(ctx.maps, brute):
        t = SublocaleTransfer.build(f)
        assert (t.image_table, t.preimage_table) == tables, f.describe()


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


# -- the Galois adjunction of a frame pair's maps, map m in lane m ----------------

PAIR_MAPS = [maps for maps in (localic_maps(a, b) for a in CORPUS4 if a.n <= 12
                               for b in CORPUS4 if b.n <= 12) if maps]


def _packed(maps, words=None):
    """The packed image and preimage tables of maps of one frame pair, from
    their point words (by default `_point_words`'), as _Batches."""
    width, *words = _point_words(maps) if words is None else words
    return [_Batch.of(list(_point_tables(w)), len(maps), width) for w in words]


def _lane_transfer(f, img, pre, m):
    return SublocaleTransfer(f, enumerate_sublocales(f.source), enumerate_sublocales(f.target),
                             tuple(img.lane(m)), tuple(pre.lane(m)))


def _flip(maps, rng):
    """The point words of maps with one random bit of one random word of
    a random lane flipped, and that lane."""
    m = rng.randrange(len(maps))
    words = _point_words(maps)
    # image words hold target points, fibre words source points
    ws, points = rng.choice(list(zip(words[1:], (maps[0].target, maps[0].source))))
    ws[rng.randrange(len(ws))] ^= 1 << m * words[0] + rng.randrange(len(points.prime_list))
    return words, m


def _adjoint_words(target, pre):
    """pre's entries at the point masks of the primes above each element of
    target: lane m of entry a holds the primes above h_m(a)."""
    return pre._replace(masks=[pre.masks[mask_of(q for q, p in enumerate(target.prime_list)
                                                 if target.up[a] >> p & 1)]
                               for a in range(target.n)])


def _failing_lanes(maps, img, pre, words=None):
    """The combined mask galois-adjunction reads: the adjunction's failing
    lanes and those of the adjoints' laws and round trip, on words or by
    default on the adjoint words of pre."""
    source, target = maps[0].source, maps[0].target
    words = _adjoint_words(target, pre) if words is None else words
    return _adjunction_lanes(img, pre) | _adjoint_lanes(source, enumerate_sublocales(target),
                                                        words, img)


def _read_off(source, words, m):
    """Lane m's left adjoint table: the element whose primes are each word's
    points, or None where they are not up-closed."""
    return tuple(source.by_primes.get(mask_of(source.prime_list[b] for b in bits(x)))
                 for x in words.lane(m))


def _lane_fails(f, img, pre, words, m):
    """Whether lane m's own tables fail the adjunction scan, the frame-hom
    laws of its adjoint read off words (a word that is not up-closed is a
    totality failure), or the round trip: the right adjoint of that adjoint
    sends each source point to the point lane m's image table gives it."""
    if not brute_adjunction(_lane_transfer(f, img, pre, m)).ok:
        return True
    adjoint = _read_off(f.source, words, m)
    if not check_frame_hom(f.target, f.source, adjoint).ok:
        return True
    images = img.lane(m)
    return [1 << v for v in _adjoint_points(f.target, f.source, adjoint)] != \
        [mask_of(f.target.prime_list[q] for q in bits(images[1 << b]))
         for b in range(len(f.source.prime_list))]


def test_packed_lanes_are_each_maps_transfer_tables():
    """On every corpus-4 map between frames within the default S_l bound,
    lane m of its pair's packed tables is map m's transfer, lane m of the
    adjoint words reads off map m's left adjoint, and no lane fails."""
    checked = 0
    for maps in PAIR_MAPS:
        img, pre = _packed(maps)
        words = _adjoint_words(maps[0].target, pre)
        for m, f in enumerate(maps):
            t = SublocaleTransfer.build(f)
            tables = (t.image_table, t.preimage_table)
            assert (tuple(img.lane(m)), tuple(pre.lane(m))) == tables, f.describe()
            assert tables == brute_transfer_tables(f, t.source_lattice, t.target_lattice)
            assert _read_off(f.source, words, m) == _adjoint_table(f), f.describe()
            checked += 1
        assert _adjunction_lanes(img, pre) == 0
        assert _failing_lanes(maps, img, pre) == 0
    assert checked == 14884


def _overwrite_lane(draw, b, values):
    """Overwrite one entry of a drawn lane of the batch b by an index below
    values or by another entry of the same lane."""
    m = draw(st.integers(0, b.lanes - 1))
    lane = b.lane(m)
    k = st.integers(0, len(lane) - 1)
    i, v = draw(k), draw(st.one_of(st.integers(0, values - 1), k.map(lane.__getitem__)))
    b.masks[i] = b.masks[i] & ~((1 << b.width) - 1 << m * b.width) | v << m * b.width


def _pair_maps(draw):
    maps = draw(st.sampled_from(PAIR_MAPS))
    start = draw(st.integers(0, len(maps) - 1))
    return maps[start:start + 8]


@st.composite
def packed_transfers(draw):
    """Up to eight maps of one frame pair and their packed tables, with up to
    two entries of chosen lanes overwritten by an arbitrary index or by
    another entry of the same lane, as `transfers` overwrites one-lane tables.
    Half the time one lane first packs an arbitrary function of the points,
    monotone or not, whose tables are adjoint."""
    maps = _pair_maps(draw)
    lanes = list(maps)
    if draw(st.booleans()):
        m, (source, target) = draw(st.integers(0, len(maps) - 1)), (maps[0].source, maps[0].target)
        points = draw(st.lists(st.sampled_from(target.prime_list), min_size=len(source.prime_list),
                               max_size=len(source.prime_list)))
        lanes[m] = SimpleNamespace(source=source, target=target, points=points)
    img, pre = _packed(maps, _point_words(lanes))
    for _ in range(draw(st.integers(0, 2))):
        b, values = draw(st.sampled_from(((img, len(pre.masks)), (pre, len(img.masks)))))
        _overwrite_lane(draw, b, values)
    return maps, img, pre


@given(packed_transfers())
@settings(max_examples=300)
def test_failing_lanes_are_those_failing_the_all_pairs_scan(case):
    maps, img, pre = case
    want = sum(1 << m for m, f in enumerate(maps)
               if not brute_adjunction(_lane_transfer(f, img, pre, m)).ok)
    assert _adjunction_lanes(img, pre) == want
    words = _adjoint_words(maps[0].target, pre)
    assert _failing_lanes(maps, img, pre) == sum(1 << m for m, f in enumerate(maps)
                                                 if _lane_fails(f, img, pre, words, m))


@st.composite
def adjoint_words(draw):
    """Up to eight maps of one frame pair, their packed tables and their
    adjoint words, with up to two entries of chosen lanes of the words
    overwritten by an arbitrary point mask or another entry of the lane."""
    maps = _pair_maps(draw)
    img, pre = _packed(maps)
    words = _adjoint_words(maps[0].target, pre)
    for _ in range(draw(st.integers(0, 2))):
        _overwrite_lane(draw, words, len(img.masks))
    return maps, img, pre, words


@given(adjoint_words())
@settings(max_examples=300)
def test_failing_adjoint_lanes_are_those_failing_the_hom_scan(case):
    """The adjunction holds in every lane, so a lane fails exactly when its
    words read off no frame hom or one whose right adjoint is another map."""
    maps, img, pre, words = case
    assert _failing_lanes(maps, img, pre, words) == sum(
        1 << m for m, f in enumerate(maps) if _lane_fails(f, img, pre, words, m))


def test_one_flipped_bit_fails_exactly_its_lane():
    """On the maps of every corpus-4 frame pair within the default S_l bound,
    a point word with one bit flipped in one lane: the kernels flag that lane
    and no other."""
    rng = random.Random(13)
    for maps in PAIR_MAPS:
        words, m = _flip(maps, rng)
        img, pre = _packed(maps, words)
        assert _adjunction_lanes(img, pre) == 1 << m
        assert _failing_lanes(maps, img, pre) == 1 << m


@pytest.mark.parametrize("seed", range(4))
def test_galois_adjunction_fails_at_a_flipped_lanes_map(monkeypatch, seed):
    """One bit flipped in one lane of one frame pair's point words fails
    galois-adjunction at that lane's map, with the witness adjunction_report
    gives for the lane's tables."""
    ctx = _Ctx(CorpusConfig(operator_samples_per_frame=0, checks=("galois-adjunction",)))
    rng = random.Random(seed)
    groups = [list(g) for _, g in groupby(ctx.maps, lambda f: (f.source, f.target))]
    maps = rng.choice([g for g in groups if len(g) > 1])
    words, m = _flip(maps, rng)
    img, pre = _packed(maps, words)
    want = f"adjunction fails for {maps[m].describe()}: " \
           f"{adjunction_report(_lane_transfer(maps[m], img, pre, m)).witness}"
    monkeypatch.setattr(verify, "_point_words",
                        lambda group: words if group == maps else _point_words(group))
    status, _, witness = CHECKS["galois-adjunction"](ctx)
    assert (status, witness["lines"]) == ("fail", [want])


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


# -- one-pass initial lifts and the point-mask operator kernels -----------------------

MAPS4 = list(_maps(CORPUS4, 5000))


def _draw_table(draw, sl):
    """A table on sl: raw, a valid operator with entries overwritten (often
    non-monotone), constant-top, or a valid random operator."""
    kind = draw(st.sampled_from(["raw", "overwritten", "constant-top", "valid"]))
    entry = st.integers(0, sl.n - 1)
    if kind == "raw":
        return tuple(draw(st.lists(entry, min_size=sl.n, max_size=sl.n)))
    if kind == "constant-top":
        return (sl.top,) * sl.n
    table = list(random_op(sl, random.Random(draw(st.integers(0, 2**16)))).table)
    if kind == "overwritten":
        for _ in range(draw(st.integers(1, 3))):
            table[draw(entry)] = draw(entry)
    return tuple(table)


@st.composite
def lifts(draw):
    """A corpus-4 map and a table on its target's sublocales."""
    f = draw(st.sampled_from(MAPS4))
    return f, _draw_table(draw, enumerate_sublocales(f.target))


def _assert_lift_matches_oracle(initial, brute, f, op_m):
    """The eager flags and gap masks the initial checks read, then the
    candidate and the reports built on first read, against the oracle."""
    rep = initial(f, op_m)
    want_table, axioms, cont, anomalies = brute(f, op_m)
    assert rep.passed == axioms.passed
    assert rep.gaps == gap_masks(f, anomalies)
    assert rep.ok == (axioms.ok and cont.ok)
    assert rep.candidate.table == want_table
    assert type(rep.candidate) is type(op_m)
    assert [rep.axioms, rep.continuity, rep.anomalies] == [axioms, cont, anomalies]
    return rep


@given(lifts())
@settings(max_examples=300)
def test_initial_interior_matches_two_pass_scan(case):
    f, table = case
    op_m = InteriorOperator(enumerate_sublocales(f.target), table)
    _assert_lift_matches_oracle(initial_interior, brute_initial_interior, f, op_m)


@given(lifts())
@settings(max_examples=300)
def test_initial_h_matches_two_pass_scan(case):
    f, table = case
    h_m = HOperator(enumerate_sublocales(f.target), table)
    _assert_lift_matches_oracle(initial_h, brute_initial_h, f, h_m)


def test_raw_lifts_break_every_law_the_checks_read():
    """Seeded raw target tables on every 40th corpus-4 map: the oracle
    comparison runs on lifts that break monotonicity, the top law,
    contraction and continuity, not only on lifts of valid operators."""
    broken = {"I1": 0, "I2": 0, "I3": 0, "h2": 0, "h3": 0, "continuity": 0}
    for k, f in enumerate(MAPS4[::40]):
        rng = random.Random(k)
        slm = enumerate_sublocales(f.target)
        for op_type, initial, brute in ((InteriorOperator, initial_interior, brute_initial_interior),
                                        (HOperator, initial_h, brute_initial_h)):
            op_m = op_type(slm, tuple(rng.randrange(slm.n) for _ in range(slm.n)))
            rep = _assert_lift_matches_oracle(initial, brute, f, op_m)
            for law, ok in rep.passed.items():
                if law in broken:
                    broken[law] += not ok
            broken["continuity"] += bool(rep.gaps[2])
    assert all(broken.values()), broken


@st.composite
def continuity_cases(draw):
    """A corpus-4 map, a target table as in lifts, and a source operator that
    is raw, valid, constructed continuous, or constructed continuous with one
    entry overwritten."""
    f, table = draw(lifts())
    op_m = InteriorOperator(enumerate_sublocales(f.target), table)
    sl = enumerate_sublocales(f.source)
    kind = draw(st.sampled_from(["raw", "valid", "continuous", "near-continuous"]))
    if kind in ("raw", "valid"):
        return f, InteriorOperator(sl, _draw_table(draw, sl)), op_m
    source = list(make_continuous_op(f, op_m, random.Random(draw(st.integers(0, 2**16)))).table)
    if kind == "near-continuous":
        entry = st.integers(0, sl.n - 1)
        source[draw(entry)] = draw(entry)
    return f, InteriorOperator(sl, source), op_m


@given(continuity_cases())
@settings(max_examples=300)
def test_is_I_continuous_matches_inline_scan(case):
    f, op_l, op_m = case
    assert is_I_continuous(f, op_l, op_m) == brute_I_continuous(f, op_l, op_m)


@st.composite
def op_families(draw):
    """One to four tables on one lattice, each as in _draw_table."""
    sl = draw(st.sampled_from(SMALL_LATTICES))
    return [InteriorOperator(sl, _draw_table(draw, sl)) for _ in range(draw(st.integers(1, 4)))]


@given(op_families())
@settings(max_examples=200)
def test_operator_lattice_matches_mask_scans(ops):
    assert op_join(ops).table == brute_op_join(ops)
    assert op_meet(ops).table == brute_op_meet(ops)
    for a in ops:
        for b in ops:
            gap = brute_op_le_gap(a, b)
            assert op_le_gap(a, b) == gap
            assert op_le(a, b) == (gap is None)


def test_operators_reject_tables_that_are_not_total():
    sl = enumerate_sublocales(square())
    good = list(range(sl.n))
    for bad in (good[:-1], good + [0], [-1] + good[1:], good[:-1] + [sl.n]):
        for cls in (InteriorOperator, HOperator):
            with pytest.raises(ValueError, match="not total"):
                cls(sl, bad)


# -- samplers: same words, same tables as the O(n^2) loops --------------------------


def _kernel_draw(sl, rng):
    """The draw kernel's one-lane batch, which is a table."""
    return tuple(_closed_draw(sl, rng, [0] * sl.n))


@pytest.mark.parametrize("seed", range(5))
def test_samplers_match_quadratic_loops(seed):
    for sl in (enumerate_sublocales(fr, limit=fr.n) for fr in CORPUS4):
        for sample in (random_op, random_h, _kernel_draw):
            fast, slow = random.Random(seed), random.Random(seed)
            drawn = sample(sl, fast)
            assert getattr(drawn, "table", drawn) == brute_random_table(sl, slow)
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


@given(st.integers(0, 2**64 - 1))
@settings(max_examples=40)
def test_draws_match_choice_on_every_corpus4_lattice(seed):
    # each seed entry keeps the bits of one word on its points, as the
    # oracle's subset lookup does: same tables, and the streams stay aligned
    for sl in (enumerate_sublocales(fr, limit=fr.n) for fr in CORPUS4):
        fast, slow = random.Random(seed), random.Random(seed)
        assert random_op(sl, fast).table == brute_random_table(sl, slow)
        assert fast.getrandbits(64) == slow.getrandbits(64)


@given(st.sampled_from(MAPS4), st.integers(0, 2**64 - 1))
@settings(max_examples=200)
def test_continuous_draw_matches_choice(f, seed):
    op_m = random_op(enumerate_sublocales(f.target), random.Random(seed ^ 1))
    fast, slow = random.Random(seed), random.Random(seed)
    op_l = make_continuous_op(f, op_m, fast)
    assert op_l.table == brute_continuous_table(f, op_m, transfer_of(f), slow)
    assert fast.getrandbits(64) == slow.getrandbits(64)


# every localic map between corpus-4 frames within the default S_l bound
ALL_MAPS4 = _maps(CORPUS4, float("inf"))


def test_forall_table_matches_largest_preimage_below():
    for f in ALL_MAPS4:
        t = transfer_of(f)
        assert t.forall_table == brute_forall_table(t), f.describe()


def test_initial_lift_matches_definitional_scan():
    """initial_lift against the join over every (S, T) pair, for the discrete,
    the trivial and one drawn op_M on each map."""
    rng = random.Random("initial-lift")
    for f in ALL_MAPS4:
        slm = enumerate_sublocales(f.target)
        for op_m in (discrete_op(slm), trivial_op(slm), random_op(slm, rng)):
            assert initial_lift(f, op_m).table == brute_initial_lift(f, op_m), f.describe()
    assert len(ALL_MAPS4) == 14_884


class _Words:
    """A stand-in rng: getrandbits gives `word` on call `at` and 0 on every
    other call, and records the bit counts asked for."""

    def __init__(self, at, word):
        self.at, self.word, self.asked = at, word, []

    def getrandbits(self, k):
        self.asked.append(k)
        return self.word if len(self.asked) - 1 == self.at else 0


@pytest.mark.parametrize("fr", [two(), chain3(), square(), chain4()],
                         ids=["two", "chain3", "square", "chain4"])
def test_draw_seeds_are_uniform_over_point_subsets(fr):
    """Every getrandbits outcome at every entry, in a batch whose lanes are
    drawn, discrete, drawn and trivial: the kernel asks one word per entry,
    with the bits that reach the entry's points in the last drawn lane; the
    seeds of the two drawn lanes take every pair of subsets of the entry's
    points equally often; the named lanes keep their tables everywhere; and
    the top is forced in every lane. chain4 has three points."""
    sl = enumerate_sublocales(fr)
    width = len(fr.prime_list) + 1
    ones, drawn = _lanes(4, width)[0], 1 | 1 << 2 * width
    base = [i << width for i in range(sl.n)]  # lane 1 discrete, lane 3 trivial
    asked = [(i * drawn).bit_length() for i in range(sl.n)]
    full = sl.top
    for i in range(sl.n):
        seen = Counter()
        for word in range(1 << asked[i]):
            rng = _Words(i, word)
            out = _closed_draw(sl, rng, base, ones, drawn)
            assert rng.asked == asked
            assert out[sl.top] == full * ones
            for q, x in zip(range(sl.top), out[:-1]):
                assert (_lane(x, 1, width), _lane(x, 3, width)) == (q, 0)
            if i != sl.top:
                seen[_lane(out[i], 0, width), _lane(out[i], 2, width)] += 1
        if i != sl.top:
            subsets = [q for q in range(i + 1) if not q & ~i]
            assert sorted(seen) == sorted(product(subsets, repeat=2))
            assert set(seen.values()) == {(1 << asked[i]) // len(subsets) ** 2}


# -- lane-packed kernels against their one-lane case and the oracles ------------------


def _pack(lanes, width):
    """Tables packed side by side, table j at bit j * width."""
    return [sum(v << j * width for j, v in enumerate(vs)) for vs in zip(*lanes)]


def _lane(x, j, width):
    return x >> j * width & (1 << width) - 1


def _lane_of_lift(lifted, j, width):
    """Lane j of a batched lift, laid out as a one-lane lift."""
    pulled, (gaps, bad, top), cont = lifted

    def lane(xs):
        return [_lane(x, j, width) for x in xs]

    return lane(pulled), (lane(gaps), _lane(bad, j, width), _lane(top, j, width)), lane(cont)


def test_counted_gaps_match_materialized_anomalies():
    """On every default-run map and every table of its target's bank, which
    both initial checks lift: each lane of the batched lift equals the lift
    of that lane's table alone. On every map, for the lanes j with
    j % 4 == idx % 4 (12 of its 48), and on the first map into each target,
    for every lane of the target's bank, the report built from that lift,
    for each of the two checks, has the (pulled, gaps, passed) of the public
    initial_interior/initial_h report and the oracle's axiom verdicts and gap
    masks; and per kind, the confirmed count, the first confirmed anomaly
    (what a registry entry keeps as witness) and the unconfirmed anomalies
    equal those read off the oracle's anomaly dicts."""
    ctx = _Ctx(CorpusConfig())
    lifts, oracled, reached = 0, 0, set()
    for idx, f in enumerate(ctx.maps):
        t = transfer_of(f)
        tl = t.target_lattice
        b = _ops_for_initial(ctx, f)
        batched = _lift(t, b.masks, _lanes(b.lanes, b.width)[0])
        whole = (f.target, 0) not in reached
        for j in range(b.lanes):
            lane = b.lane(j)
            one = _lift(t, lane)
            assert _lane_of_lift(batched, j, b.width) == one
            lifts += 1
            if j % 4 != idx % 4 and not whole:
                continue
            reached.add((f.target, j))
            for report, initial, brute in (
                    (InitialReport, initial_interior, brute_initial_interior),
                    (HInitialReport, initial_h, brute_initial_h)):
                oracled += 1
                op = report._OPERATOR(tl, lane)
                rep, mine = initial(f, op), report._of_lane(t, one)
                assert (rep.transfer, rep.pulled, rep.gaps, rep.passed) == (
                    t, mine.pulled, mine.gaps, mine.passed)
                axioms, anomalies = brute(f, op)[1::2]
                assert (rep.passed, rep.gaps) == (axioms.passed, gap_masks(f, anomalies))
                for kind, confirmed in zip(GAP_KINDS, _confirmed(t, rep.gaps)):
                    want = [a for a in anomalies if a["kind"] == kind and a["confirmed"]]
                    assert confirmed.bit_count() == len(want)
                    first = next((a for a in rep.anomalies
                                  if a["kind"] == kind and a["confirmed"]), None)
                    assert first == (want[0] if want else None)
                assert list(rep.unexplained) == [a for a in anomalies if not a["confirmed"]]
    targets = {f.target for f in ctx.maps}
    assert lifts == 1135 * 48
    assert len(reached) == len(targets) * 48
    assert oracled == 2 * (1135 * 12 + len(targets) * 36)


@pytest.mark.parametrize("seed", range(3))
def test_batched_draws_are_one_lane_draws(seed):
    """count draws are one batch of the oracle's tables, one word per index,
    and leave the rng where the oracle leaves it; a named batch leads with
    the discrete and trivial tables, and a batch of one drawn lane is a
    one-lane draw."""
    ctx = _Ctx(CorpusConfig())
    for sl in (enumerate_sublocales(fr, limit=fr.n) for fr in CORPUS4):
        width = len(sl.host.prime_list) + 1
        for count, named in ((0, True), (1, False), (5, True), (64, False), (131, True),
                             (1000, False)):
            fast, slow = random.Random(seed), random.Random(seed)
            b = ctx.batch(sl, fast, count, width, named)
            assert (b.lanes, b.width) == (2 * named + count, width)
            lanes = [tuple(b.lane(j)) for j in range(b.lanes)]
            assert lanes == brute_batch_tables(sl, slow, b.lanes, width, 2 * named)
            if named:
                assert lanes[:2] == [discrete_op(sl).table, trivial_op(sl).table]
            if count == 1:
                assert b.masks == _closed_draw(sl, random.Random(seed))
            assert fast.getrandbits(64) == slow.getrandbits(64)


def test_axiom_checks_draw_one_batch_per_frame():
    """However many samples, interior-axioms and h-axioms each draw every
    frame's tables as one batch."""
    kernels = {}
    config = CorpusConfig(max_poset_size=3, operator_samples_per_frame=1000,
                          checks=("interior-axioms", "h-axioms"))
    report = run_verification(config, kernels=kernels)
    assert [row["status"] for row in report["checks"]] == ["pass", "pass"]
    assert kernels["batches"] == 2 * len(corpus_frames(3))


@pytest.fixture(scope="module")
def banked():
    """A default-run context after every check of the run, in run order."""
    ctx = _Ctx(CorpusConfig())
    for cid in ctx.config.selected():
        verify.CHECKS[cid](ctx)
    return ctx


def _bank_tables(ctx, fr):
    """The oracle's tables of the bank on fr: the discrete and trivial tables
    and 46 draws from rng("initial-ops", fr.key())."""
    return brute_batch_tables(ctx.sl(fr), ctx.rng("initial-ops", fr.key()), 48,
                              ctx.bank_width, 2)


def test_initial_accessors_yield_the_bank_batch_of_the_target(banked):
    """Every map gets its target's bank, one batch and the same object for
    every map into that target, and the run keeps one bank per target frame,
    which both initial checks read."""
    for f in banked.maps:
        assert _ops_for_initial(banked, f) is banked.banks["initial-ops", f.target]
    targets = {f.target for f in banked.maps}
    assert set(banked.banks) == {("initial-ops", fr) for fr in targets}


def test_bank_batches_are_the_oracle_draws_and_cores(banked):
    """A bank holds, in one batch, the oracle's batch tables drawn from
    rng("initial-ops", frame.key()): the discrete and trivial tables, then 46
    draws. Each table is its own core S cap h(S), so initial-h, which lifts
    the tables as cores, decides every h operator with that core."""
    width = max(len(fr.prime_list) for _, fr in banked.frames if fr.n <= banked.map_bound) + 1
    for (_, fr), b in banked.banks.items():
        sl, want = banked.sl(fr), _bank_tables(banked, fr)
        assert (b.lanes, b.width) == (48, width)
        assert [tuple(b.lane(k)) for k in range(b.lanes)] == want
        assert want == [tuple(sl.meet(i, v) for i, v in enumerate(t)) for t in want]


def test_every_point_class_lifts_every_table_of_its_targets_bank(monkeypatch):
    """The initial checks lift, for the first map f: L -> M of each
    (target, point function) class, every table of M's bank, the oracle's
    draws, in one packed lift per class and none for the other maps of the
    class, whether both checks run or either runs alone: two maps into one
    target, and the two checks, lift the same tables."""
    # transfers are cached by map equality, so t.map may be an equal map of
    # another run
    lifted, banks = Counter(), {}
    real = verify._lift

    def spy(t, xs, ones=1):
        if ones != 1:
            lifted[t.map] += 1
            fr = t.map.target
            if fr not in banks:
                banks[fr] = _bank_tables(ctx, fr)
            assert [tuple(_lane(x, j, ctx.bank_width) for x in xs)
                    for j in range(ones.bit_count())] == banks[fr]
        return real(t, xs, ones)

    monkeypatch.setattr(verify, "_lift", spy)
    for cids in (("initial-interior", "initial-h"), ("initial-interior",), ("initial-h",)):
        ctx = _Ctx(CorpusConfig(checks=cids))
        lifted.clear()
        for cid in cids:
            assert verify.CHECKS[cid](ctx)[0] == "pass"
        first = {}
        for f in ctx.maps:
            first.setdefault((f.target, f.points), f)
        assert lifted == Counter(dict.fromkeys(first.values(), 1))
        assert len(lifted) == 510


def test_maps_of_one_point_class_have_one_lift(every_corpus4_map):
    """The theorem the initial pass's memo rests on: on every corpus-4 map,
    the confirmed gap masks and the packed lift of its target's bank, read
    through the tables the per-sublocale scan builds on the map's own
    frames, equal those of every other map with its `_point_class`."""
    (ctx, brute), decided = every_corpus4_map, {}
    for f, tables in zip(ctx.maps, brute):
        t = SublocaleTransfer(f, ctx.sl(f.source), ctx.sl(f.target), *tables)
        b = _ops_for_initial(ctx, f)
        got = _confirmed(t, (-1, 1, -1)), _lift(t, b.masks, b.ones)
        assert decided.setdefault(verify._point_class(f), got) == got, f.describe()
    assert len(decided) == 6_104


def test_banks_survive_a_full_run(banked):
    """After every check of the run, each bank equals one drawn afresh, so no
    kernel writes into a bank's shared masks lists."""
    fresh = _Ctx(CorpusConfig())
    vars(fresh)["maps"] = banked.maps
    for f in fresh.maps:
        _ops_for_initial(fresh, f)
    assert fresh.banks == banked.banks


# maps between hosts of different sizes either way, and of equal size
EDGE_MAPS = maps_in_hom_order(((two(), chain4()), (chain4(), two()), (square(), chain3()),
                               (frame_of_space(sierpinski()), square()), (TRIVIAL, two())))


@pytest.mark.parametrize("k", range(len(EDGE_MAPS)),
                         ids=[f"{f.source.n}-to-{f.target.n}-{k}" for k, f in enumerate(EDGE_MAPS)])
def test_lane_packing_edge_cases(k):
    """Lanes as wide as the larger host's points, a lane of the target's top
    (every point bit set), and batches of one lane: the batched core is the
    core of each lane, each lane of the batched lifts of the tables and of
    their cores is the lift of its table alone, no guard bit is ever set,
    and the guard count of every packed gap counts the lanes where it is
    nonzero."""
    f = EDGE_MAPS[k]
    t = transfer_of(f)
    tl = t.target_lattice
    width = max(len(f.source.prime_list), len(f.target.prime_list)) + 1
    full = [tl.top] * tl.n
    rng = random.Random(k)
    drawn = [_closed_draw(tl, rng, [0] * tl.n) for _ in range(3)]
    for lanes in ([full], [drawn[0]], [full, list(range(tl.n)), full] + drawn):
        ones, fill, guard = _lanes(len(lanes), width)
        assert (ones, guard) == (sum(1 << j * width for j in range(len(lanes))), ones << width - 1)
        cores = [_core(tl, lane) for lane in lanes]
        assert _core(tl, _pack(lanes, width), ones) == _pack(cores, width)
        for tables in (lanes, cores):
            pulled, (gaps, bad, top), cont = batched = _lift(t, _pack(tables, width), ones)
            ones_lane = [_lift(t, lane) for lane in tables]
            assert [_lane_of_lift(batched, j, width) for j in range(len(lanes))] == ones_lane
            for x in pulled + gaps + cont + [bad, top]:
                assert not x & guard
                assert ((x + fill) & guard).bit_count() == sum(
                    1 for j in range(len(lanes)) if _lane(x, j, width))


# -- the axiom checks' lane verdicts against the operator-object path ----------------


def _perturbed(sl, vals, rng):
    """vals with one entry replaced by a random sublocale."""
    out = list(vals)
    out[rng.randrange(sl.n)] = rng.randrange(sl.n)
    return out


def _verdicts(sl, lanes, width):
    """The batch of `lanes`, and the guard bits of its lanes that break I1 to
    I3, and of those that break I1."""
    b = _Batch.of(_pack(lanes, width), len(lanes), width)
    i1 = 0
    for g in _axiom_gaps(sl, b.masks, b.ones)[0]:
        i1 |= g
    return b, _invalid(sl, b.masks, b), i1 + b.fill & b.guard


def test_axiom_check_masks_match_operator_checks():
    """On the seed-42 streams of both axiom checks on every corpus-4 frame,
    one batch each, and on each batch with one entry of every lane
    overwritten (so that verdicts vary), the lane verdicts of the packed masks
    equal check_interior / check_h, op_le, op_join and op_meet on each lane's
    table, the joins and meets taken with the draw before; a valid lane lies
    between the trivial and the discrete operator."""
    ctx = _Ctx(CorpusConfig())
    k = ctx.config.operator_samples_per_frame
    failing = Counter()
    for key, fr in ctx.frames:
        sl = ctx.sl(fr)
        pts, bent, width = range(sl.n), random.Random(key), len(fr.prime_list) + 1
        d, t = discrete_op(sl), trivial_op(sl)
        b = ctx.batch(sl, ctx.rng("interior-ops", key), k, width)
        drawn = [b.lane(j) for j in range(b.lanes)]
        for lanes in (drawn, [_perturbed(sl, vals, bent) for vals in drawn]):
            _, invalid, i1 = _verdicts(sl, lanes, width)
            before = lanes[:1] + lanes[:-1]
            joins = _verdicts(sl, [[x | y for x, y in zip(a, c)]
                                   for a, c in zip(before, lanes)], width)[1]
            meets = _verdicts(sl, [[x & y for x, y in zip(a, c)]
                                   for a, c in zip(before, lanes)], width)[1]
            for j, (masks, other) in enumerate(zip(lanes, before)):
                bit = 1 << (j + 1) * width - 1
                op = InteriorOperator._of_points(sl, masks)
                assert (not invalid & bit) == check_interior(op).ok
                assert (not i1 & bit) == op_le(op, d)
                if not invalid & bit:
                    assert op_le(t, op)
                other = InteriorOperator._of_points(sl, other)
                assert (not joins & bit) == check_interior(op_join([other, op])).ok
                assert (not meets & bit) == check_interior(op_meet([other, op])).ok
                failing["interior"] += bool(invalid & bit)
        dh, th = discrete_h(sl), trivial_h(sl)
        rng = ctx.rng("h-ops", key)
        for _ in range(min(k, 25)):
            table = tuple(rng.randrange(sl.n) for _ in range(sl.n))
            h1 = not any(_axiom_gaps(sl, [p & v for p, v in zip(pts, table)])[0])
            assert h1 == check_h(HOperator(sl, table)).passed["h1"]
        b = ctx.batch(sl, rng, k, width)
        drawn = [b.lane(j) for j in range(b.lanes)]
        for lanes in (drawn, [_perturbed(sl, vals, bent) for vals in drawn]):
            core = [[p & v for p, v in zip(pts, vals)] for vals in lanes]
            _, invalid, _ = _verdicts(sl, core, width)
            _, draw_invalid, i1 = _verdicts(sl, lanes, width)
            for j, masks in enumerate(lanes):
                bit = 1 << (j + 1) * width - 1
                h = HOperator._of_points(sl, masks)
                assert (not invalid & bit) == check_h(h).ok
                assert (not i1 & bit) == op_le(h, dh)
                assert (not draw_invalid & bit) == check_interior(h).ok
                if not draw_invalid & bit:
                    assert op_le(th, h) and op_meet([th, h]).table == th.table
                failing["h"] += bool(invalid & bit)
    assert failing["interior"] and failing["h"], failing


# -- failure paths of the axiom checks: the mask kernel, patched where the check
# reads it, reports what a valid draw cannot show --------------------------------


@pytest.mark.parametrize("cid, broken, line", [
    ("interior-axioms", lambda gaps, ones: (gaps[0], ones, gaps[2]),
     "generated operator breaks the axioms or bounds on "),
    ("h-axioms", lambda gaps, ones: (gaps[0], ones, gaps[2]),
     "generated h operator invalid on "),
])
def test_axiom_check_fails_on_a_broken_kernel(monkeypatch, cid, broken, line):
    real = verify._axiom_gaps
    monkeypatch.setattr(verify, "_axiom_gaps",
                        lambda sl, vals, ones=1: broken(real(sl, vals, ones), ones))
    report = run_verification(CorpusConfig(
        max_poset_size=2, operator_samples_per_frame=2, checks=(cid,)))
    (row,) = report["checks"]
    assert row["status"] == "fail"
    assert row["witness"] == {"kind": "static", "lines": [line + "D[1:1]"]}


def test_axiom_check_pairs_each_draw_with_the_one_before(monkeypatch):
    """A kernel that breaks only the join of draws 64 and 65 of a frame makes
    interior-axioms fail at draw 65."""
    config = CorpusConfig(max_poset_size=3, operator_samples_per_frame=65,
                          checks=("interior-axioms",))
    ctx = _Ctx(config)
    for n, (key, fr) in enumerate(ctx.frames):
        sl, width = ctx.sl(fr), len(fr.prime_list) + 1
        b = ctx.batch(sl, ctx.rng("interior-ops", key), 65, width)
        draws = [b.lane(j) for j in range(b.lanes)]
        # a join that is not draw 65 is what lane 64 of the joins alone holds
        joined = [x | y for x, y in zip(draws[63], draws[64])]
        if joined != draws[64]:
            break
    real = verify._axiom_gaps

    def kernel(lat, vals, ones=1):
        gaps, bad, top = real(lat, vals, ones)
        if lat is sl and [_lane(x, 64, width) for x in vals] == joined:
            bad |= 1 << 64 * width  # lane 64 breaks I2
        return gaps, bad, top

    monkeypatch.setattr(verify, "_axiom_gaps", kernel)
    (row,) = run_verification(config)["checks"]
    assert row["status"] == "fail"
    assert row["detail"] == {"generated": (n + 1) * 65}
    assert row["witness"] == {"kind": "static", "lines": [f"operator lattice op invalid on {key}"]}


# -- the seven per-object operator checks: mask kernels against the brute forms -----

STRIDE = 2  # every second case of each check's default run


def _verdict_of(gap, rep):
    """(ok, first-gap index) of a _first_gap result and of a ContinuityReport."""
    return (gap is None, None if gap is None else gap[0]), (rep.ok, rep.witness_index)


def _brute_le(sl, pre, xs, ys, u):
    """The brute composite-side confirmation at u: f_-1[xs(u)] <= ys(f_-1[u])."""
    return sl.le(pre[xs[u]], ys[pre[u]])


def test_operator_check_kernels_match_oracles():
    """On every STRIDE-th case of contractive-equivalence, composition (both
    sides), coarseness, universal-property (both sides) and open-preimage in
    default verify, the verdicts and first-gap indices of the mask kernels
    equal brute_I_continuous / brute_h_continuous on the same tables, the
    candidates and draws equal brute_initial_interior / brute_initial_h and
    brute_random_table / brute_continuous_table, and every confirmed flag
    equals the one read off the brute preimage and image tables."""
    ctx = _Ctx(CorpusConfig())
    ops = InteriorOperator._of_points
    seen = Counter()
    stride = max(1, len(ctx.maps) // 200)
    for idx, f in enumerate(ctx.maps[::stride][:200:STRIDE]):
        rng = ctx.rng("equiv", idx * STRIDE)
        t = transfer_of(f)
        sll, slm, pre = t.source_lattice, t.target_lattice, t.preimage_table
        for _ in range(2):
            l, m = _closed_draw(sll, rng), _closed_draw(slm, rng)
            gap = _first_gap(pre, _preimages(t, m), l)
            mine, brute = _verdict_of(gap, brute_I_continuous(f, ops(sll, l), ops(slm, m)))
            assert mine == brute
            wide_l, wide_m = verify._widened(sll, l), verify._widened(slm, m)
            h_gap = _first_gap(pre, _preimages(t, _core(slm, wide_m)), _core(sll, wide_l))
            mine, brute = _verdict_of(h_gap, ContinuityReport(*brute_h_continuous(
                f, HOperator._of_points(sll, wide_l), HOperator._of_points(slm, wide_m))))
            assert mine == brute
            seen["equiv", gap is None] += 1
    for idx, (tf, tg, l, m, n, _) in enumerate(ctx.chains):
        if idx % STRIDE:
            continue
        f, g = tf.map, tg.map
        sll, slm, sln = tf.source_lattice, tg.source_lattice, tg.target_lattice
        slow = ctx.rng("compose", idx)
        op_n = ops(sln, n)
        assert op_n.table == brute_random_table(sln, slow)
        op_m = ops(slm, m)
        assert op_m.table == brute_continuous_table(g, op_n, tg, slow)
        assert ops(sll, l).table == brute_continuous_table(f, op_m, tf, slow)
        pf, pg = brute_preimage_table(tf), brute_preimage_table(tg)
        gf = compose_localic(g, f)
        functorial = brute_preimage_table(transfer_of(gf)) == tuple(pf[k] for k in pg)
        for kind, brute_cont in ((InteriorOperator, brute_I_continuous),
                                 (HOperator, lambda *a: ContinuityReport(*brute_h_continuous(*a)))):
            xs = (l, m, n) if kind is InteriorOperator else (
                _core(sll, l), _core(slm, m), _core(sln, n))
            rep = _composition(tf, tg, *xs)
            L, M, N = (kind._of_points(sl, ys) for sl, ys in zip((sll, slm, sln), (l, m, n)))
            assert rep.f_continuous == brute_cont(f, L, M).ok
            assert rep.g_continuous == brute_cont(g, M, N).ok
            comp = brute_cont(gf, L, N)
            assert (rep.composite.ok, rep.composite.witness_index) == (comp.ok, comp.witness_index)
            assert rep.preimage_functorial == functorial
            seen["compose", rep.status] += 1
    stride = max(1, len(ctx.maps) // 300)
    for idx, f in enumerate(ctx.maps[::stride][:300]):
        if idx % STRIDE:
            continue
        rng, slow = ctx.rng("coarse", idx), ctx.rng("coarse", idx)
        t = transfer_of(f)
        sl, tl = t.source_lattice, t.target_lattice
        m = _closed_draw(tl, rng)
        l = _continuous_draw(t, m, rng)
        op_m, op_l = ops(tl, m), ops(sl, l)
        assert op_m.table == brute_random_table(tl, slow)
        assert op_l.table == brute_continuous_table(f, op_m, t, slow)
        cand = _candidate(t, m)
        assert ops(sl, cand).table == brute_initial_interior(f, op_m)[0]
        assert ops(sl, cand).table == brute_initial_h(f, HOperator._of_points(tl, m))[0]
        i = _first(c & ~x for c, x in zip(cand, l))
        assert (None if i is None else sl.labels[i]) == brute_op_le_gap(ops(sl, cand), op_l)
        if i is not None:
            unit = brute_preimage_table(t)[brute_image_table(t)[i]] != i
            assert bool(t.adjunction_gaps[0] >> i & 1) == unit
            seen["coarse", unit] += 1
    for idx, (t, g, m, n, lifted) in enumerate(ctx.configs):
        if idx % STRIDE:
            continue
        f, sl, tl, nl = t.map, t.source_lattice, t.target_lattice, ctx.sl(g.source)
        fg, pre, img = compose_localic(f, g), brute_preimage_table(t), brute_image_table(t)
        for kind, predicate in ((InteriorOperator, "f-continuity-gap-at-witness"),
                                (HOperator, "f-h-continuity-gap-at-witness")):
            M, N = kind._of_points(tl, m), kind._of_points(nl, n)
            brute = brute_initial_interior if kind is InteriorOperator else brute_initial_h
            C = kind(sl, brute(f, M)[0])
            cand, read_m, read_n = lifted, m, n
            if kind is InteriorOperator:
                a, b = brute_I_continuous(g, N, C), brute_I_continuous(fg, N, M)
                confirm = C
            else:
                cand, read_m, read_n = _core(sl, cand), _core(tl, m), _core(nl, n)
                a = ContinuityReport(*brute_h_continuous(g, N, C))
                b = ContinuityReport(*brute_h_continuous(fg, N, M))
                C, M = C.core, M.core
            assert ops(sl, cand).table == C.table
            rep = _universal_report(t, g, cand, read_m, read_n, predicate)
            for side, want in ((rep.initial_side, a), (rep.composite_side, b)):
                assert (side.ok, side.witness_index) == (want.ok, want.witness_index)
            if a.ok != b.ok:
                (anomaly,) = rep.anomalies
                i = (b if a.ok else a).witness_index
                confirmed = (not _brute_le(sl, pre, M.table, C.table, i) if a.ok
                             else pre[img[i]] != i)
                assert anomaly["confirmed"] == confirmed
                seen["universal", anomaly["kind"]] += 1
    for idx, f in enumerate(ctx.maps):
        if idx % STRIDE or f.source.n > 5 or f.target.n > 5:
            continue
        t = transfer_of(f)
        sl, tl, pre = t.source_lattice, t.target_lattice, brute_preimage_table(t)
        rng = ctx.rng("open-pre", idx)
        pairs = [(range(sl.n), xs) for xs in verify._named(tl)]
        for _ in range(3):
            m = _closed_draw(tl, rng)
            pairs.append((_continuous_draw(t, m, rng), m))
        for l, m in pairs:
            L, M = ops(sl, l), ops(tl, m)
            want = ("precondition-unmet", 0, None)
            if brute_I_continuous(f, L, M).ok:
                fixed = [j for j in range(tl.n) if M(j) == j]
                bad = [k for k, j in enumerate(fixed) if L(pre[j]) != pre[j]]
                want = ("pass", len(fixed), None) if not bad else (
                    "fail", bad[0] + 1, (tl.labels[fixed[bad[0]]], sl.labels[pre[fixed[bad[0]]]]))
            rep = _open_preimage(t, l, m)
            assert (rep.status, rep.checked, rep.witness) == want
            seen["open", rep.checked] += 1
    # both verdicts and both confirmed flags occur where the run can show them
    assert seen["equiv", True] and seen["equiv", False]
    assert seen["coarse", True] and seen["compose", "pass"]
    assert seen["universal", "initial-side-only"] and seen["universal", "composite-side-only"]
