"""Frame kernel tests.

Oracles here recompute meets/joins/arrows straight from the order relation,
independently of the tables built at construction time.
"""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from localelab import (
    FiniteSpace,
    NoMeetOrJoin,
    NotAPoset,
    NotASpace,
    NotDistributive,
    build_frame,
    downset_frame,
    frame_of_space,
    heyting,
    pseudocomplement,
)
from localelab.corpus import (
    M3_LABELS,
    M3_PAIRS,
    NO_LATTICE_LABELS,
    NO_LATTICE_PAIRS,
    all_posets,
    canonical_poset_key,
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
from localelab.lattice import Poset, bits, heyting_identity_report
from oracles import join_of, meet_of


# -- oracles ------------------------------------------------------------

def _iso(f, g) -> bool:
    """Are the two frames order-isomorphic? Read off the canonical codes."""
    return posets_are_isomorphic(f.poset, g.poset)


def oracle_meet(frame, a, b):
    """Greatest lower bound computed from the order alone; None if absent."""
    cands = [c for c in range(frame.n) if frame.le(c, a) and frame.le(c, b)]
    maxima = [m for m in cands if all(frame.le(c, m) for c in cands)]
    return maxima[0] if len(maxima) == 1 else None


def oracle_join(frame, a, b):
    cands = [c for c in range(frame.n) if frame.le(a, c) and frame.le(b, c)]
    minima = [m for m in cands if all(frame.le(m, c) for c in cands)]
    return minima[0] if len(minima) == 1 else None


def oracle_imp(frame, a, b):
    """Largest c with c & a <= b, scanning candidates by the order."""
    cands = [c for c in range(frame.n) if frame.le(oracle_meet(frame, c, a), b)]
    maxima = [m for m in cands if all(frame.le(c, m) for c in cands)]
    assert len(maxima) == 1
    return maxima[0]


def sample_frames():
    posets = [all_posets(3)[i] for i in range(len(all_posets(3)))]
    frames = [two(), chain3(), square(), chain4()]
    frames += [downset_frame(p) for p in posets]
    return frames


# -- construction and fixtures -------------------------------------------

def test_fixture_shapes():
    t, c, s = two(), chain3(), square()
    assert t.labels == ("0", "1") and t.bottom == 0 and t.top == 1
    assert c.labels == ("0", "m", "1") and c.bottom == 0 and c.top == 2
    assert s.labels == ("0", "a", "b", "1")
    assert not s.le(s.index["a"], s.index["b"])
    assert not s.le(s.index["b"], s.index["a"])


def test_heyting_examples_chain3():
    c = chain3()
    m, zero, one = c.index["m"], c.index["0"], c.index["1"]
    assert heyting(c, m, zero) == oracle_imp(c, m, zero) == zero
    for b in range(c.n):
        assert heyting(c, zero, b) == oracle_imp(c, zero, b) == one
    assert heyting(c, one, m) == m


def test_heyting_examples_square():
    s = square()
    a, b, zero, one = s.index["a"], s.index["b"], s.index["0"], s.index["1"]
    assert heyting(s, a, zero) == oracle_imp(s, a, zero) == b
    assert pseudocomplement(s, a) == b
    assert pseudocomplement(s, b) == a
    assert pseudocomplement(s, zero) == one
    assert pseudocomplement(s, one) == zero
    # double pseudocomplement is identity on a Boolean frame
    for x in range(s.n):
        assert pseudocomplement(s, pseudocomplement(s, x)) == x


def test_tables_match_oracles():
    for f in sample_frames():
        for a in range(f.n):
            for b in range(f.n):
                assert f.meet(a, b) == oracle_meet(f, a, b)
                assert f.join(a, b) == oracle_join(f, a, b)
                assert f.imp(a, b) == oracle_imp(f, a, b)


def test_heyting_adjunction_exhaustive():
    for f in sample_frames():
        for a in range(f.n):
            for b in range(f.n):
                r = f.imp(a, b)
                for c in range(f.n):
                    assert f.le(f.meet(c, a), b) == f.le(c, r)


def test_cycle_raises_not_a_poset():
    # from_pairs closes its pairs and validates: the first pair related both ways
    with pytest.raises(NotAPoset) as e:
        build_frame(("a", "b", "c"), (("a", "b"), ("b", "a"), ("b", "c")))
    assert e.value.witness == ("a", "b")
    assert str(e.value) == "cycle: a <= b and back"
    with pytest.raises(NotAPoset) as e:
        build_frame(("a", "b", "c"), (("c", "a"), ("b", "c"), ("a", "b")))
    assert e.value.witness == ("a", "b")


@pytest.mark.parametrize("le, message, witness", [
    ([[1, 1], [1, 1]], "cycle: a <= b and back", ("a", "b")),
    ([[1, 1], [0, 0]], "not reflexive at b", ("b",)),
    ([[1, 1, 0], [0, 1, 1], [0, 0, 1]], "not transitive: a .. c", ("a", "c")),
])
def test_matrix_poset_validates(le, message, witness):
    # a cyclic, irreflexive or non-transitive matrix is refused as validate()
    # refuses it, before any frame can be built on it
    with pytest.raises(NotAPoset) as e:
        Poset("abc"[:len(le)], le)
    assert (str(e.value), e.value.witness) == (message, witness)


def test_missing_bounds_raise_no_meet_or_join():
    with pytest.raises(NoMeetOrJoin) as e:
        build_frame(NO_LATTICE_LABELS, NO_LATTICE_PAIRS)
    assert e.value.witness == ("a", "b")


def test_m3_not_distributive():
    with pytest.raises(NotDistributive) as e:
        build_frame(M3_LABELS, M3_PAIRS)
    x, y, z = e.value.witness
    # confirm the witness violates distributivity using order-only oracles
    p = Poset.from_pairs(M3_LABELS, M3_PAIRS)

    class Shim:
        n = p.n

        def le(self, a, b):
            return p.leq(a, b)

    s = Shim()
    xi, yi, zi = (p.index[t] for t in (x, y, z))
    lhs = oracle_meet(s, xi, oracle_join(s, yi, zi))
    rhs = oracle_join(s, oracle_meet(s, xi, yi), oracle_meet(s, xi, zi))
    assert lhs != rhs


def test_one_element_frame():
    f = build_frame(("e",), ())
    assert f.n == 1 and f.bottom == f.top == 0
    assert f.imp(0, 0) == 0


# -- downset frames -------------------------------------------------------

def count_downsets(p: Poset) -> int:
    total = 0
    for m in range(1 << p.n):
        if all(p.dn[i] & ~m == 0 for i in bits(m)):
            total += 1
    return total


def test_downset_frame_fixture_shapes():
    point = Poset.from_pairs(("p",), ())
    assert _iso(downset_frame(point), two())
    c2 = Poset.from_pairs(("a", "b"), (("a", "b"),))
    assert _iso(downset_frame(c2), chain3())
    a2 = Poset.from_pairs(("a", "b"), ())
    assert _iso(downset_frame(a2), square())


def test_downset_frame_element_counts():
    for n in (1, 2, 3, 4):
        for p in all_posets(n):
            assert downset_frame(p).n == count_downsets(p)


@given(st.integers(1, 4), st.data())
def test_downset_frame_random_posets(n, data):
    pair_pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pair_pool), unique=True, max_size=len(pair_pool))) if pair_pool else []
    labels = tuple(str(i) for i in range(n))
    p = Poset.from_pairs(labels, [(labels[i], labels[j]) for i, j in chosen])
    f = downset_frame(p)  # construction validates lattice + distributivity
    assert f.n == count_downsets(p)
    assert meet_of(f, f.full_mask) == f.bottom
    assert join_of(f, f.full_mask) == f.top


# -- spaces ----------------------------------------------------------------

def test_frame_of_space_fixtures():
    assert _iso(frame_of_space(sierpinski()), chain3())
    assert _iso(frame_of_space(discrete_space(2)), square())
    assert _iso(frame_of_space(indiscrete_space(2)), two())


def test_frame_of_space_ops_are_set_ops():
    x = discrete_space(2)
    f = frame_of_space(x)
    for i, u in enumerate(x.opens):
        for j, v in enumerate(x.opens):
            assert x.opens[f.meet(i, j)] == u & v
            assert x.opens[f.join(i, j)] == u | v


def test_space_validation():
    with pytest.raises(NotASpace):
        FiniteSpace.from_sets(("x", "y"), (("x",), ("x", "y")))  # no empty set
    with pytest.raises(NotASpace):
        FiniteSpace.from_sets(("x", "y"), ((), ("x",)))  # no full set
    with pytest.raises(NotASpace):
        FiniteSpace.from_sets(("x", "y", "z"), ((), ("x",), ("y",), ("x", "y", "z")))  # no union


@pytest.mark.parametrize("mask", [2, 3, -1, -2])
def test_space_refuses_opens_outside_its_points(mask):
    # a mask with a bit past the last point, or a negative one, names no set
    # of points: refused by name before the closure scan reads it
    with pytest.raises(NotASpace, match=f"open mask {mask} is outside 0..1") as e:
        FiniteSpace(["x"], [0, 1, mask])
    assert e.value.witness == (mask,)
    assert FiniteSpace(["x"], [0, 1]).opens == (0, 1)


def test_downset_frame_roundtrips_through_space():
    # view the downset family as a space on the poset's points, take its
    # open-set frame, and compare orders
    for p in all_posets(3):
        f = downset_frame(p)
        opens = []
        for m in range(1 << p.n):
            if all(p.dn[i] & ~m == 0 for i in bits(m)):
                opens.append(m)
        x = FiniteSpace(p.labels, opens)
        assert _iso(frame_of_space(x), f)


# -- complete Heyting identities -------------------------------------------

def test_heyting_identity_report_passes_on_corpus():
    for f in sample_frames():
        rep = heyting_identity_report(f)
        assert rep["status"] == "pass"
        assert rep["join_meet_distribution"] and rep["arrow_preserves_meets"]
        assert rep["sup_arrow_meet_form"]


def test_sup_arrow_display_form_falsified_on_chain3():
    rep = heyting_identity_report(chain3())
    fal = rep["sup_arrow_display_form"]
    assert fal["status"] == "falsified"
    assert fal["witness"] == {"A": ["0", "m"], "b": "0", "lhs": "0", "rhs": "1"}


def test_corpus_5_frames_are_pairwise_nonisomorphic():
    # D(P) and D(Q) are isomorphic iff P and Q are, so distinct canonical
    # keys of the frames' orders separate every pair of corpus frames
    frames = [fr for _, fr in corpus_frames(5)]
    assert len(frames) == 87
    assert len({(fr.n, canonical_poset_key(fr.poset)) for fr in frames}) == 87
    assert not _iso(chain4(), square())
    assert not _iso(two(), chain3())


def test_frame_equality_and_keys():
    assert two() == build_frame(("0", "1"), (("0", "1"),))
    assert two().key() == build_frame(("0", "1"), (("0", "1"),)).key()
    assert two().key() != chain3().key()
