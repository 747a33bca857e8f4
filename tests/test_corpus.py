"""Fixtures and the small-poset corpus.

The unlabeled counts 1, 2, 5, 16 are standard; the suite re-derives them here
by an independent route: a direct scan of all labeled relations on n points
(checking reflexivity, antisymmetry, transitivity on raw bitmask rows, no
Poset machinery) must equal the sum of orbit sizes of the chosen
representatives. That pins both completeness and non-redundancy. The
enumerator is also gated on the known counts 63 and 318 for 5 and 6 points.
"""
from itertools import permutations

import pytest

from localelab.corpus import (
    MAX_POSET_SIZE,
    _poset_classes,
    all_posets,
    canonical_poset_key,
    chain3,
    chain4,
    child_seed,
    corpus_frames,
    corpus_posets,
    discrete_space,
    indiscrete_space,
    posets_are_isomorphic,
    sierpinski,
    square,
    two,
)
from localelab.errors import SizeLimit
from localelab.lattice import Poset, downset_frame

UNLABELED = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}
LABELED = {1: 1, 2: 3, 3: 19, 4: 219}


def brute_labeled_count(n: int) -> int:
    # every subset of n*n relation bits, kept iff reflexive + antisymmetric
    # + transitive; row i is the bitmask of j with i <= j
    count = 0
    for sel in range(1 << (n * n)):
        rows = [(sel >> (n * i)) & ((1 << n) - 1) for i in range(n)]
        if not all(rows[i] >> i & 1 for i in range(n)):
            continue
        ok = True
        for i in range(n):
            for j in range(n):
                if i != j and rows[i] >> j & 1 and rows[j] >> i & 1:
                    ok = False
                if rows[i] >> j & 1 and rows[i] | rows[j] != rows[i]:
                    ok = False
        if ok:
            count += 1
    return count


def orbit_size(poset: Poset) -> int:
    n = poset.n
    seen = set()
    for perm in permutations(range(n)):
        seen.add(
            tuple(
                tuple(int(poset.leq(perm[a], perm[b])) for b in range(n)) for a in range(n)
            )
        )
    return len(seen)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_unlabeled_class_counts(n):
    assert len(all_posets(n)) == UNLABELED[n]


def test_enumerator_reaches_the_318_classes_on_six_points():
    # beyond the corpus bound: only the frame-level checks hold it at 5
    keys = [key for key, _ in _poset_classes(6)]
    assert len(keys) == 318
    assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_labeled_counts_by_direct_scan(n):
    assert brute_labeled_count(n) == LABELED[n]


def test_labeled_count_size_four_by_direct_scan():
    # 2^16 relation candidates; kept separate so the slow case is visible
    assert brute_labeled_count(4) == LABELED[4]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_sizes_account_for_every_labeled_poset(n):
    assert sum(orbit_size(p) for p in all_posets(n)) == LABELED[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_representatives_pairwise_nonisomorphic(n):
    keys = [canonical_poset_key(p) for p in all_posets(n)]
    assert len(set(keys)) == len(keys)
    assert keys == sorted(keys)


def test_corpus_posets_concatenates_by_size():
    posets = corpus_posets(4)
    assert len(posets) == 24
    assert [p.n for p in posets] == [1] + [2] * 2 + [3] * 5 + [4] * 16


def test_corpus_frames_keys_and_sizes():
    frames = corpus_frames(4)
    assert len(frames) == 24
    keys = [k for k, _ in frames]
    assert len(set(keys)) == 24
    posets = corpus_posets(4)
    for (key, frame), poset in zip(frames, posets):
        assert key == f"D[{poset.n}:{canonical_poset_key(poset):x}]"
        assert frame == downset_frame(poset)
    assert sorted(fr.n for _, fr in frames) == [
        2, 3, 4, 4, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7,
        8, 8, 8, 9, 9, 9, 10, 10, 12, 16,
    ]


def test_corpus_frames_are_cached_singletons():
    a = corpus_frames(4)
    b = corpus_frames(4)
    assert all(x is y for (_, x), (_, y) in zip(a, b))


def test_downset_count_against_direct_scan():
    # independent downset count: subsets closed under going down
    for poset in corpus_posets(4):
        n = poset.n
        count = 0
        for mask in range(1 << n):
            if all(
                not (mask >> b & 1) or (mask >> a & 1)
                for a in range(n)
                for b in range(n)
                if poset.leq(a, b)
            ):
                count += 1
        assert downset_frame(poset).n == count


def test_named_fixtures():
    assert two().n == 2
    assert chain3().n == 3
    assert chain4().n == 4
    assert square().n == 4
    fr = chain3()
    assert fr.labels[fr.bottom] == "0" and fr.labels[fr.top] == "1"
    sq = square()
    a, b = sq.index["a"], sq.index["b"]
    assert sq.labels[sq.join(a, b)] == "1"
    assert sq.labels[sq.meet(a, b)] == "0"
    assert not sq.le(a, b) and not sq.le(b, a)
    c4 = chain4()
    assert all(c4.le(i, j) or c4.le(j, i) for i in range(4) for j in range(4))


def test_fixture_spaces():
    sp = sierpinski()
    assert len(sp.points) == 2 and len(sp.opens) == 3
    assert len(discrete_space(2).opens) == 4
    assert len(indiscrete_space(3).opens) == 2


def test_child_seed_is_stable_and_order_sensitive():
    assert child_seed("a", 1) == 3110932526201151071
    assert child_seed("a", 1) == child_seed("a", 1)
    assert child_seed("a", 1) != child_seed(1, "a")
    assert child_seed("x") != child_seed("y")


def test_posets_are_isomorphic_on_relabelings():
    p = Poset.from_pairs(("a", "b", "c"), (("a", "b"), ("b", "c")))
    q = Poset.from_pairs(("z", "y", "x"), (("z", "y"), ("y", "x")))
    antichain = Poset.from_pairs(("a", "b", "c"), ())
    assert posets_are_isomorphic(p, q)
    assert not posets_are_isomorphic(p, antichain)
    assert canonical_poset_key(p) == canonical_poset_key(q)


def test_sizes_that_are_no_natural_number_are_refused():
    # sizes are read as operator.index reads them: negatives and non-integers
    # are refused before any recursion, shift or range sees them
    for build in (all_posets, corpus_posets, corpus_frames):
        for size in (-1, 2.0, 2.5, None, "3"):
            with pytest.raises(ValueError, match=f"natural number, not {size!r}"):
                build(size)
    assert all_posets(0) == corpus_posets(0) == corpus_frames(0) == ()
    assert all_posets(True) == all_posets(1)


def test_posets_past_the_supported_size_are_refused():
    assert MAX_POSET_SIZE == 5
    for build in (all_posets, corpus_posets, corpus_frames):
        with pytest.raises(SizeLimit) as exc:
            build(6)
        assert exc.value.witness == (6, 5)
