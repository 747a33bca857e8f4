"""Named fixtures and the deterministic poset/frame corpus.

The corpus is every poset up to a given size, one representative per
isomorphism class (canonical form = lexicographically minimal adjacency
encoding over all relabelings), together with their downset frames.
"""
from __future__ import annotations

import hashlib
import operator
from functools import lru_cache

from .errors import SizeLimit
from .lattice import FiniteSpace, Frame, Poset, bits, build_frame, downset_frame

# _poset_classes(6) lists all 318 classes; the frame-level checks hold the
# bound: heyting-adjunction is cubic in frame size, and corpus-6 frames
# reach 64 elements
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
    """canonical_poset_key of the rows `up`.

    The least code lists every element after all the elements above it, so
    only reverse linear extensions are searched; row a is then final once
    position a is filled: the element's bits over positions 0..a-1, a 1,
    zeros. Each position takes a remaining maximal element of least row, and
    only ties branch. A branch is (unplaced mask, each element's bits over
    the filled positions), so equal branches merge.
    """
    n = len(up)
    code = 0
    branches = {((1 << n) - 1, (0,) * n)}
    for a in range(n):
        moves = [(pre[x], rest, pre, x) for rest, pre in branches
                 for x in bits(rest) if up[x] & rest == 1 << x]
        row = min(m[0] for m in moves)
        code = code << n | (row << 1 | 1) << n - 1 - a
        branches = set()
        for r, rest, pre, x in moves:
            if r == row:
                rest ^= 1 << x
                branches.add((rest, tuple((p << 1 | u >> x & 1) if rest >> i & 1 else 0
                                          for i, (p, u) in enumerate(zip(pre, up)))))
    return code


def posets_are_isomorphic(p: Poset, q: Poset) -> bool:
    return p.n == q.n and canonical_poset_key(p) == canonical_poset_key(q)


def all_posets(n: int) -> tuple[Poset, ...]:
    """All posets with exactly n elements, one per isomorphism class.

    Representatives are labeled "0".."n-1" along a linear extension and
    sorted by canonical key. SizeLimit past MAX_POSET_SIZE.
    """
    return tuple(poset for _, poset in _poset_classes(_admit(n)))


@lru_cache(maxsize=None)
def _poset_classes(n: int) -> tuple[tuple[int, Poset], ...]:
    """(canonical key, representative) for all_posets(n), in key order.

    Every poset is a smaller one with a maximal element added above one of
    its down-sets, so the classes of size n are the one-point extensions of
    those of size n - 1, deduplicated by canonical key.
    """
    if n == 0:
        return ()
    smaller = [p for _, p in _poset_classes(n - 1)] or [Poset((), ())]
    top = 1 << n - 1
    by_key = {}
    for p in smaller:
        for down in range(top):
            if all(p.dn[i] & ~down == 0 for i in bits(down)):
                up = tuple(r | top * (down >> i & 1) for i, r in enumerate(p.up)) + (top,)
                by_key.setdefault(_canonical_code(up), up)
    labels = tuple(str(i) for i in range(n))
    return tuple((key, _natural_representative(labels, by_key[key])) for key in sorted(by_key))


def _natural_representative(labels, up) -> Poset:
    """The poset `up` relabeled along the linear extension whose cover pairs
    give the least bitmask over the pairs i < j in row-major order: the first
    upper-triangular relation whose closure lies in its class."""
    n = len(up)
    dn = [sum(1 << i for i, r in enumerate(up) if r >> j & 1) for j in range(n)]
    covers = [(a, b) for a in range(n) for b in bits(up[a] ^ 1 << a)
              if up[a] & dn[b] == 1 << a | 1 << b]

    def cover_key(order):  # orders as the bitmask does, top bit first
        pos = {x: k for k, x in enumerate(order)}
        return sorted(((pos[a], pos[b]) for a, b in covers), reverse=True)

    order = min(_linear_extensions(dn, (1 << n) - 1), key=cover_key)
    pos = {x: k for k, x in enumerate(order)}
    rows = [sum(1 << pos[j] for j in bits(up[x])) for x in order]
    return Poset.from_rows(labels, rows)


def _linear_extensions(dn, rest):
    """Every ordering of the elements of mask `rest` that lists each after
    the elements below it, given down-set rows `dn`."""
    if not rest:
        yield ()
    for x in bits(rest):
        if dn[x] & rest == 1 << x:
            for tail in _linear_extensions(dn, rest ^ 1 << x):
                yield (x,) + tail


def _admit(size) -> int:
    """size as operator.index reads it; ValueError below 0, SizeLimit past the maximum."""
    n = operator.index(size) if hasattr(type(size), "__index__") else -1
    if n < 0:
        raise ValueError(f"poset size must be a natural number, not {size!r}")
    if n > MAX_POSET_SIZE:
        raise SizeLimit(
            f"posets of size {n} exceed the supported maximum {MAX_POSET_SIZE}",
            witness=(n, MAX_POSET_SIZE),
        )
    return n


def corpus_posets(max_size: int) -> tuple[Poset, ...]:
    """All iso-class representatives of sizes 1..max_size, in canonical order.

    SizeLimit past MAX_POSET_SIZE, before any poset is built.
    """
    out = []
    for n in range(1, _admit(max_size) + 1):
        out.extend(all_posets(n))
    return tuple(out)


@lru_cache(maxsize=None)
def corpus_frames(max_size: int) -> tuple[tuple[str, Frame], ...]:
    """(corpus key, downset frame) for every corpus poset, in canonical order.

    The key records the poset size and its canonical encoding, so reports
    refer to frames stably across runs.
    """
    return tuple(
        (f"D[{n}:{key:x}]", downset_frame(poset))
        for n in range(1, _admit(max_size) + 1)
        for key, poset in _poset_classes(n)
    )
