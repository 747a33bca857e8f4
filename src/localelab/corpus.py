"""Named fixtures and the deterministic poset/frame corpus.

The corpus is every poset up to a given size, one representative per
isomorphism class (canonical form = lexicographically minimal adjacency
encoding over all relabelings), together with their downset frames.
"""
from __future__ import annotations

import hashlib
from functools import lru_cache
from itertools import permutations

from .errors import SizeLimit
from .lattice import FiniteSpace, Frame, Poset, bits, build_frame, downset_frame

# all_posets scans 2^(n(n-1)/2) relations with an n!-permutation canonical
# form each; at n = 6 that is 2^15 x 720 and does not finish
MAX_POSET_SIZE = 5


def child_seed(*parts) -> int:
    """Derive a stable RNG seed from string parts (never Python hash())."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


# -- named fixtures ---------------------------------------------------------

@lru_cache(maxsize=None)
def two() -> Frame:
    """The frame 2 = {0 < 1}."""
    return build_frame(("0", "1"), (("0", "1"),))


@lru_cache(maxsize=None)
def chain3() -> Frame:
    """Three-element chain 0 < m < 1."""
    return build_frame(("0", "m", "1"), (("0", "m"), ("m", "1")))


@lru_cache(maxsize=None)
def chain4() -> Frame:
    return build_frame(("0", "a", "b", "1"), (("0", "a"), ("a", "b"), ("b", "1")))


@lru_cache(maxsize=None)
def square() -> Frame:
    """Boolean 2x2 diamond {0, a, b, 1} with a, b incomparable."""
    return build_frame(
        ("0", "a", "b", "1"), (("0", "a"), ("0", "b"), ("a", "1"), ("b", "1"))
    )


M3_LABELS = ("0", "x", "y", "z", "1")
M3_PAIRS = (("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1"))

NO_LATTICE_LABELS = ("a", "b", "c", "d")
NO_LATTICE_PAIRS = (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"))


@lru_cache(maxsize=None)
def sierpinski() -> FiniteSpace:
    """Two points x, y; {x} open, {y} not."""
    return FiniteSpace.from_sets(("x", "y"), ((), ("x",), ("x", "y")))


@lru_cache(maxsize=None)
def discrete_space(n: int = 2) -> FiniteSpace:
    points = tuple(f"p{i}" for i in range(n))
    return FiniteSpace(points, tuple(range(1 << n)))


@lru_cache(maxsize=None)
def indiscrete_space(n: int = 2) -> FiniteSpace:
    points = tuple(f"p{i}" for i in range(n))
    return FiniteSpace(points, (0, (1 << n) - 1))


# -- poset corpus -----------------------------------------------------------

def canonical_poset_key(poset: Poset) -> int:
    """Lexicographically minimal row-major adjacency encoding over relabelings."""
    return _canonical_code(poset.up)


def _canonical_code(up) -> int:
    """canonical_poset_key of the rows `up`; a relabeling stops at the first
    row that puts its code above the best."""
    n = len(up)
    best = 1 << n * n
    for perm in permutations(range(n)):
        code = 0
        for a, pa in enumerate(perm, 1):
            row = up[pa]
            for pb in perm:
                code = code << 1 | (row >> pb & 1)
            if code > best >> n * (n - a):
                break
        else:
            best = code
    return best


def posets_are_isomorphic(p: Poset, q: Poset) -> bool:
    return p.n == q.n and canonical_poset_key(p) == canonical_poset_key(q)


def all_posets(n: int) -> tuple[Poset, ...]:
    """All posets with exactly n elements, one per isomorphism class.

    Candidates are upper-triangular relations only (every poset has a linear
    extension, so each class is hit), deduplicated by canonical form.
    Representatives are labeled "0".."n-1" and sorted by canonical key.
    SizeLimit past MAX_POSET_SIZE.
    """
    _admit(n)
    return tuple(poset for _, poset in _poset_classes(n))


@lru_cache(maxsize=None)
def _poset_classes(n: int) -> tuple[tuple[int, Poset], ...]:
    """(canonical key, representative) for all_posets(n), in key order."""
    if n == 0:
        return ()
    labels = tuple(str(i) for i in range(n))
    pair_list = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen_labeled = set()
    by_key: dict[int, Poset] = {}
    for sel in range(1 << len(pair_list)):
        rows = [1 << i for i in range(n)]
        for b, (i, j) in enumerate(pair_list):
            if sel >> b & 1:
                rows[i] |= 1 << j
        for k in range(n):
            rk = rows[k]
            for i in range(n):
                if rows[i] >> k & 1:
                    rows[i] |= rk
        labeled = tuple(rows)
        if labeled in seen_labeled:
            continue
        seen_labeled.add(labeled)
        key = _canonical_code(labeled)
        if key not in by_key:
            by_key[key] = Poset.from_pairs(
                labels,
                [(labels[i], labels[j]) for i in range(n) for j in bits(rows[i]) if i != j],
            )
    return tuple(sorted(by_key.items()))


def _admit(size: int) -> None:
    if size > MAX_POSET_SIZE:
        raise SizeLimit(
            f"posets of size {size} exceed the supported maximum {MAX_POSET_SIZE}",
            witness=(size, MAX_POSET_SIZE),
        )


def corpus_posets(max_size: int) -> tuple[Poset, ...]:
    """All iso-class representatives of sizes 1..max_size, in canonical order.

    SizeLimit past MAX_POSET_SIZE, before any poset is built.
    """
    _admit(max_size)
    out = []
    for n in range(1, max_size + 1):
        out.extend(all_posets(n))
    return tuple(out)


@lru_cache(maxsize=None)
def corpus_frames(max_size: int) -> tuple[tuple[str, Frame], ...]:
    """(corpus key, downset frame) for every corpus poset, in canonical order.

    The key records the poset size and its canonical encoding, so reports
    refer to frames stably across runs.
    """
    _admit(max_size)
    return tuple(
        (f"D[{n}:{key:x}]", downset_frame(poset))
        for n in range(1, max_size + 1)
        for key, poset in _poset_classes(n)
    )
