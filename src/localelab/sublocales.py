"""Sublocales of a finite frame and the coframe S_l(L).

A sublocale is a subset containing the top, closed under binary meets, and
closed under Heyting arrows from arbitrary elements. Subsets are bitmasks
over element indices throughout.

For a finite frame S_l(L) is the powerset of the points, which are the primes
(`Frame.primes`): the sublocale of a set X of primes is the meet-closure of
X with the top, and its primes are exactly X. S_l is built that way, and a
sublocale's index is its point mask, bit b standing for `prime_list[b]`, so
its order, meets, joins, complements, images and preimages are bitwise
operations on indices. A sublocale is passed as its index in the lattice or
as its element mask. Joins and `is_sublocale` read a subset's points through
one closure kernel, `_generated`. The subset-scan definition survives as a
test oracle.
"""
from __future__ import annotations

import operator
import os
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache

from .errors import BadConfig, SizeLimit
from .lattice import Frame, bits, mask_of, set_label
from .maps import LocalicMap

DEFAULT_SIZE_LIMIT = 12


def size_limit() -> int:
    """The S_l enumeration bound: LOCALELAB_SIZE_LIMIT when set, else 12."""
    raw = os.environ.get("LOCALELAB_SIZE_LIMIT")
    if raw is None:
        return DEFAULT_SIZE_LIMIT
    try:
        return _bound(int(raw))
    except ValueError:
        raise BadConfig(
            f"LOCALELAB_SIZE_LIMIT must be a non-negative integer, got {raw!r}",
            witness=("LOCALELAB_SIZE_LIMIT", raw),
        ) from None


def _bound(limit) -> int:
    """limit as operator.index reads it; ValueError unless it is a
    non-negative integer and no bool."""
    indexed = hasattr(type(limit), "__index__") and not isinstance(limit, bool)
    bound = operator.index(limit) if indexed else -1
    if bound < 0:
        raise ValueError(f"the sublocale enumeration bound must be a non-negative "
                         f"integer, got {limit!r}")
    return bound


def as_mask(frame: Frame, members) -> int:
    """Coerce a member collection (bitmask, indices, or labels) to a bitmask;
    ValueError names a mask out of range or a member that is no element."""
    if isinstance(members, int):
        if not 0 <= members <= frame.full_mask:
            raise ValueError(f"mask {members:#x} out of range for |L|={frame.n}")
        return members
    m = 0
    for x in members:
        try:
            i = frame.index.get(x, -1) if isinstance(x, str) else operator.index(x)
        except TypeError:
            i = -1
        if not 0 <= i < frame.n:
            raise ValueError(f"unknown element {x!r} for |L|={frame.n}")
        m |= 1 << i
    return m


@dataclass(frozen=True)
class SubReport:
    ok: bool
    condition: str | None = None
    witness: tuple | None = None

    to_json = asdict


def is_sublocale(frame: Frame, members) -> SubReport:
    """First violated sublocale condition (top / meet / arrow) with witness.
    A subset with the top passes iff it is the meet-closure of its points."""
    mask, labels, imp = as_mask(frame, members), frame.labels, frame.imp_table
    if not mask >> frame.top & 1:
        return SubReport(False, "top", (labels[frame.top],))
    if _generated(frame.meet_table, mask & frame.primes, 1 << frame.top) == mask:
        return SubReport(True)
    mem = list(bits(mask))
    for k, a in enumerate(mem):  # the first member pair, a <= b by index, whose meet escapes
        for b in mem[k:]:
            if not mask >> frame.meet_table[a][b] & 1:
                return SubReport(False, "meet", (labels[a], labels[b]))
    for s in mem:
        for x in range(frame.n):
            if not mask >> imp[x][s] & 1:
                return SubReport(False, "arrow", (labels[x], labels[s], labels[imp[x][s]]))


def _generated(table, mask: int, acc: int = 0) -> int:
    """The least superset of a closed acc and mask under the binary operation
    table (a meet or join table), in one pass: adding a member a to a closed
    set adds a and a * c for every c already in, and leaves it closed."""
    mem = list(bits(acc))
    for a in bits(mask & ~acc):
        if acc >> a & 1:
            continue
        row, new = table[a], [a]
        acc |= 1 << a
        for c in mem:
            x = row[c]
            if not acc >> x & 1:
                acc |= 1 << x
                new.append(x)
        mem += new
    return acc


def sub_join_mask(frame: Frame, masks) -> int:
    """Meet-closure of the points of a union of sublocale masks, and the top."""
    union = 0
    for m in masks:
        union |= m
    return _generated(frame.meet_table, union & frame.primes, 1 << frame.top)


def open_sub_mask(frame: Frame, a: int) -> int:
    return mask_of(frame.imp_table[a])


class SublocaleLattice:
    """The coframe S_l(L), every sublocale indexed by its point mask.

    Bit b of index i stands for the prime `host.prime_list[b]`, and `masks[i]`
    is the sublocale's element mask; masks in another order are refused with
    ValueError. Since S_l(L) is the powerset of the points, index order is a
    linear extension, the bottom is 0, the top is n - 1, and le, meet, join
    and complement are single bitwise operations on indices. S_l(L) is
    determined by L, so `enumerate_sublocales` gives one lattice per frame.
    """

    def __init__(self, host: Frame, masks):
        self.host = host
        self.masks = tuple(masks)
        points = _point_tables([1 << p for p in host.prime_list])
        if tuple([m & host.primes for m in self.masks]) != points:
            raise ValueError(f"masks are not the {len(points)} sublocales of {host.key()} "
                             "in point-mask order")
        self.n = len(self.masks)
        self.index = {m: i for i, m in enumerate(self.masks)}
        self.bottom = 0
        self.top = self.n - 1
        self.open_index = {}
        self.closed_index = {}
        for a in range(host.n):
            self.open_index.setdefault(self.index[open_sub_mask(host, a)], a)
            self.closed_index.setdefault(self.index[host.up[a]], a)

    @cached_property
    def labels(self) -> tuple:
        """Set labels, built on first read: only witnesses, DOT and replays read them."""
        return tuple(set_label(self.host.labels, m) for m in self.masks)

    @cached_property
    def lower_covers(self) -> tuple:
        """The lower covers of each sublocale: its point mask less one point."""
        return tuple(tuple(i & ~(1 << x) for x in bits(i)) for i in range(self.n))

    @cached_property
    def open_closed_joins(self) -> frozenset:
        """The masks of the joins o(x) v c(y) over all x, y of the host."""
        host = self.host
        return frozenset(sub_join_mask(host, (open_sub_mask(host, x), host.up[y]))
                         for x in range(host.n) for y in range(host.n))

    def label(self, i: int) -> str:
        return self.labels[i]

    def le(self, i: int, j: int) -> bool:
        return not i & ~j

    def meet(self, i: int, j: int) -> int:
        return i & j

    def join(self, i: int, j: int) -> int:
        return i | j

    def complement(self, i: int) -> int:
        """Index of the unique complement: the other points."""
        return self.top ^ i

    def is_open(self, i: int) -> bool:
        return i in self.open_index

    def is_closed(self, i: int) -> bool:
        return i in self.closed_index

    def __len__(self) -> int:
        return self.n


def _admit(*hosts: Frame, limit: int | None = None) -> None:
    """SizeLimit at the first host past the bound of `enumerate_sublocales`."""
    bound = size_limit() if limit is None else _bound(limit)
    for host in hosts:
        if host.n > bound:
            raise SizeLimit(f"|L| = {host.n} exceeds the sublocale enumeration bound {bound}",
                            witness=(host.n, bound))


@lru_cache(maxsize=None)
def _enumerate(host: Frame) -> SublocaleLattice:
    # the meet-closure of each subset of primes with the top, in point-mask
    # order; adding a prime p adds p ^ c for every c already in the closure
    closures = [1 << host.top]
    for p in bits(host.primes):
        row = host.meet_table[p]
        closures += [c | mask_of(row[x] for x in bits(c)) for c in closures]
    return SublocaleLattice(host, closures)


def enumerate_sublocales(host: Frame, limit: int | None = None) -> SublocaleLattice:
    """All sublocales of the host; SizeLimit if |L| exceeds the bound.

    The bound is `limit` when given, else LOCALELAB_SIZE_LIMIT (default 12).
    """
    _admit(host, limit=limit)
    return _enumerate(host)


@dataclass(frozen=True)
class AdjReport:
    ok: bool
    pairs: int
    witness: tuple | None = None

    to_json = asdict


def check_adjunction(f: LocalicMap) -> AdjReport:
    """Verify f[S] <= T iff S <= f_-1[T] over all sublocale pairs."""
    return adjunction_report(transfer_of(f))


def adjunction_report(t: SublocaleTransfer) -> AdjReport:
    """Is image -| preimage a Galois connection on the transfer's tables?

    It is iff both tables are monotone, which cover pairs decide, and the
    unit S <= f_-1[f[S]] and the counit f[f_-1[T]] <= T hold: one pass over
    each lattice ORs together their point-mask gaps. Only when a gap is left
    are all pairs scanned, for the lex-first witness.
    """
    sl, tl, img, pre = t.source_lattice, t.target_lattice, t.image_table, t.preimage_table
    gaps = 0
    for i, k, covers in zip(range(sl.n), img, sl.lower_covers):
        gaps |= i & ~pre[k]
        for c in covers:
            gaps |= img[c] & ~k
    for j, k, covers in zip(range(tl.n), pre, tl.lower_covers):
        gaps |= img[k] & ~j
        for c in covers:
            gaps |= pre[c] & ~k
    if not gaps:
        return AdjReport(True, sl.n * tl.n)
    pairs = 0
    for i in range(sl.n):
        for j in range(tl.n):
            pairs += 1
            lhs = tl.le(img[i], j)
            rhs = sl.le(i, pre[j])
            if lhs != rhs:
                return AdjReport(False, pairs, (sl.label(i), tl.label(j), lhs, rhs))
    return AdjReport(True, pairs)


@dataclass(frozen=True)
class GenReport:
    ok: bool
    expected: tuple
    computed: tuple

    to_json = asdict


def generation_check(sl: SublocaleLattice, i: int) -> GenReport:
    """Is sublocale i the intersection of the open-join-closed sublocales above it?

    Computes the meet of every o(x) v c(y) containing it.
    """
    mask, labels = sl.masks[i], sl.host.labels
    acc = sl.host.full_mask
    for j in sl.open_closed_joins:
        if not mask & ~j:
            acc &= j
    return GenReport(acc == mask, tuple(labels[x] for x in bits(mask)),
                     tuple(labels[x] for x in bits(acc)))


@dataclass(frozen=True)
class SublocaleTransfer:
    """A localic map with both sublocale lattices and its image/preimage
    tables, which every map with its target point count and point function
    shares (`_class_tables`)."""

    map: LocalicMap
    source_lattice: SublocaleLattice
    target_lattice: SublocaleLattice
    image_table: tuple
    preimage_table: tuple

    @staticmethod
    def build(f: LocalicMap) -> "SublocaleTransfer":
        """f's view of the tables of its point function, the position in the
        target's `prime_list` of the image of each source point."""
        primes = f.target.primes
        phi = tuple([(primes & (1 << v) - 1).bit_count() for v in f.points])
        return SublocaleTransfer(f, _enumerate(f.source), _enumerate(f.target),
                                 *_class_tables(len(f.target.prime_list), phi))

    @cached_property
    def adjunction_gaps(self) -> tuple:
        """(unit, counit) gap masks: the source indices S with f_-1[f[S]] != S
        and the target indices T with f[f_-1[T]] != T. The counit mask holds
        the top exactly when f[L] != M, since f_-1[M] = L."""
        img, pre = self.image_table, self.preimage_table
        return (sum(1 << i for i, k in enumerate(img) if pre[k] != i),
                sum(1 << j for j, k in enumerate(pre) if img[k] != j))

    @cached_property
    def forall_table(self) -> tuple:
        """For each source index S, the index of the largest T with
        f_-1[T] <= S, the right adjoint of preimage: S_l is the Boolean
        algebra of point sets, so it is the complement of f[complement S]."""
        img, fs, ft = self.image_table, self.source_lattice.top, self.target_lattice.top
        return tuple([ft ^ img[fs ^ i] for i in range(fs + 1)])


def _point_words(maps) -> tuple:
    """(width, image words, fibre words) of maps of one frame pair, map m's
    bits in lane m of `width` bits, which exceeds both point counts: source
    point b's word holds the bit of its image point, target point q's word
    the fibre of q. `_point_tables` of the words are the packed image and
    preimage tables."""
    src, tgt = maps[0].source, maps[0].target
    width = max(len(src.prime_list), len(tgt.prime_list)) + 1
    image_bit, fibre = [0] * len(src.prime_list), [0] * len(tgt.prime_list)
    at = {v: q for q, v in enumerate(tgt.prime_list)}
    for shift, f in zip(range(0, len(maps) * width, width), maps):
        for b, v in enumerate(f.points):
            q = at[v]
            image_bit[b] |= 1 << q + shift
            fibre[q] |= 1 << b + shift
    return width, image_bit, fibre


def _adjunction_lanes(img, pre) -> int:
    """The mask of the lanes m of the packed image and preimage tables, two
    `interior._Batch`es, where f[S] <= T iff S <= f_-1[T] fails at some pair
    (S, T). The left side fails where img[S] meets the complement of T, the
    right side where S leaves pre[T], and the guard bits of the two tests
    differ exactly in the lanes where the sides disagree."""
    ones, fill, top = img.ones, img.fill, len(pre.masks) - 1
    # per T, its complement in every lane and the points outside pre[T]
    tests = [((top ^ j) * ones, ~k) for j, k in enumerate(pre.masks)]
    bad = 0
    for i, k in enumerate(img.masks):
        s = i * ones
        for out, miss in tests:
            bad |= (k & out) + fill ^ (s & miss) + fill
    return sum(1 << m for m in range(img.lanes) if bad >> (m + 1) * img.width - 1 & 1)


def _adjoint_lanes(source: Frame, tl: SublocaleLattice, words, img) -> int:
    """The mask of the lanes m where h_m, the left adjoint of map m of img,
    is no frame hom or its right adjoint is not map m. Entry a of words is
    the preimage table's entry at the closed index of a, so its lane m holds
    the primes above h_m(a), which determine h_m(a): the top's word must be
    empty, the bottom's full, each word up-closed, meets must go to unions
    and joins to intersections, and bit b of the word of each
    join-irreducible q must say whether b's image is above q."""
    target, w, ones, fill, width = tl.host, words.masks, img.ones, img.fill, img.width
    bad = w[target.top] | w[target.bottom] ^ (len(img.masks) - 1) * ones
    for b, up in enumerate(map(mask_of, source.primes_above)):
        for x in w:
            bad |= (x >> b & ones) * up & ~x
    for a, (x, meet, join) in enumerate(zip(w, target.meet_table, target.join_table)):
        for y, ab, a_b in zip(w[a + 1:], meet[a + 1:], join[a + 1:]):
            bad |= w[ab] ^ (x | y) | w[a_b] ^ (x & y)
    points = [img.masks[1 << b] for b in range(len(source.prime_list))]
    for q in target.irreducible_list:
        above = tl.index[target.up[q]] * ones
        for b, k in enumerate(points):  # the guard bit of k & above, moved to bit 0
            bad |= ((k & above) + fill >> width - 1 ^ w[q] >> b) & ones
    bad = bad + fill & img.guard
    return sum(1 << m for m in range(img.lanes) if bad >> (m + 1) * width - 1 & 1)


def _point_tables(point_value) -> tuple:
    """For each point mask i of len(point_value) points, the union of
    point_value[b] over the bits b of i: entry i is entry i & i - 1, i less
    its lowest bit, ORed with the value of that bit."""
    value = [0]
    for i in range(1, 1 << len(point_value)):
        value.append(value[i & i - 1] | point_value[(i & -i).bit_length() - 1])
    return tuple(value)


@lru_cache(maxsize=None)
def _class_tables(k: int, phi: tuple) -> tuple:
    """(image table, preimage table) of the maps into a frame of k points
    with point function phi, source point b to target point phi[b]: S_l is
    the Boolean algebra of point sets, so f[S] is the forward image of S and
    f_-1[T] the inverse image of T, whatever the frames' orders. Both are
    built in index order: the image of S is that of S less its lowest point,
    plus the image of that point, and the preimage of T is that of T less
    its lowest point, plus that point's fibre."""
    fibre = [0] * k
    for b, q in enumerate(phi):
        fibre[q] |= 1 << b
    return _point_tables([1 << q for q in phi]), _point_tables(fibre)


@lru_cache(maxsize=None)
def _transfer_cached(f: LocalicMap) -> SublocaleTransfer:
    return SublocaleTransfer.build(f)


def transfer_of(f: LocalicMap) -> SublocaleTransfer:
    """The memoized SublocaleTransfer of f, its frames admitted as by enumerate_sublocales."""
    _admit(f.source, f.target)
    return _transfer_cached(f)


# -- display-form cross-check -------------------------------------------------

def _least_containing(sl: SublocaleLattice, union: int) -> int:
    """The least sublocale of sl containing the mask union: the meet of all
    those that contain it, read off the enumeration as an oracle."""
    least = sl.host.full_mask
    for m in sl.masks:
        if not union & ~m:
            least &= m
    return least


def _sup_form(frame: Frame, start: int, least: int) -> tuple:
    """The sup-form reading {vM} of a sublocale join from the mask start, its
    closure under binary joins, as (closure, its is_sublocale report, None
    when it is the join least, else "not-a-sublocale" or "not-the-least")."""
    cur = _generated(frame.join_table, start)
    rep = is_sublocale(frame, cur)
    return cur, rep, "not-a-sublocale" if not rep.ok else "not-the-least" if cur != least else None


def join_formula_report(frame: Frame, masks) -> dict:
    """Compare the implemented meet-form join of the sublocales with these
    element masks against the sup-form readings.

    The meet-form must equal the least sublocale containing the union
    (computed here against enumerate_sublocales as the oracle). Each sup-form
    reading ({vM : M nonempty} with or without the empty join) is reported as
    holding or falsified with the reason.
    """
    union = 0
    for m in masks:
        union |= m
    meet_form = sub_join_mask(frame, (union,))
    least = _least_containing(enumerate_sublocales(frame), union)
    assert meet_form == least
    out = {
        "meet_form": set_label(frame.labels, meet_form),
        "least_containing": set_label(frame.labels, least),
        "readings": {},
    }
    for name, start in (("sup-form", union),
                        ("sup-form-with-empty-join", union | 1 << frame.bottom)):
        start, rep, reason = _sup_form(frame, start, least)
        status = {"status": "falsified", "reason": reason} if reason else {"status": "holds"}
        if not rep.ok:
            status["witness"] = rep.to_json()
        status["set"] = set_label(frame.labels, start)
        out["readings"][name] = status
    return out
