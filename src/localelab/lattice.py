"""Finite frames: bounded distributive lattices with their Heyting structure.

Elements are canonical indices 0..n-1. Subsets of a frame (and of a poset)
are int bitmasks: bit i set means element i belongs to the subset. All
tables are validated eagerly at construction, so a Frame that exists is a
frame: `Poset(labels, le)` and `Poset.from_pairs` run `Poset.validate`, and
only `Poset.from_rows`, for orders valid by construction, skips it.
"""
from __future__ import annotations

import hashlib
import json
from functools import cached_property, reduce
from operator import or_

from .errors import NoMeetOrJoin, NotAPoset, NotASpace, NotDistributive


def bits(mask: int):
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << int(i)
    return m


def set_label(labels, mask: int) -> str:
    """Render a bitmask over `labels` as a set-style label like {a,b}."""
    return "{" + ",".join(labels[i] for i in bits(mask)) + "}"


class Poset:
    """A finite poset: labels plus reflexive, transitive, antisymmetric bitmask
    rows, validated by every constructor but `from_rows`."""

    def __init__(self, labels, le):
        """`le` is an n x n matrix whose truthy entries mark the pairs i <= j."""
        labels = tuple(str(x) for x in labels)
        if len(le) != len(labels) or any(len(row) != len(labels) for row in le):
            raise ValueError("le matrix shape does not match label count")
        self._set_rows(labels, [mask_of(j for j, x in enumerate(row) if x) for row in le])
        self.validate()

    @classmethod
    def from_rows(cls, labels, up) -> "Poset":
        """The poset with rows up[i] = {j : i <= j}, unchecked: see validate()."""
        poset = cls.__new__(cls)
        poset._set_rows(tuple(str(x) for x in labels), up)
        return poset

    def _set_rows(self, labels, up):
        # up[i] = bitmask of {j : i <= j}, dn[j] = bitmask of {i : i <= j}
        self.labels = labels
        self.n = n = len(labels)
        self.up = up = tuple(up)
        dn = [0] * n
        for i, r in enumerate(up):
            for j in bits(r):
                dn[j] |= 1 << i
        self.dn = tuple(dn)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.index) != n:
            raise ValueError("duplicate labels")
        # key() and the hash read the relation as n*n row-major 0/1 bytes;
        # posets and frames key the sublocale and transfer caches: hash once
        self._le_bytes = bytes(r >> j & 1 for r in up for j in range(n))
        self._hash = hash((self.labels, self._le_bytes))

    @classmethod
    def from_pairs(cls, labels, pairs) -> "Poset":
        """Build from generating <=-pairs of labels; closes reflexively and transitively.

        Raises NotAPoset, as validate() does, when the closure has a cycle.
        """
        labels = tuple(str(x) for x in labels)
        index = {lab: i for i, lab in enumerate(labels)}
        rows = [1 << i for i in range(len(labels))]
        for a, b in pairs:
            if str(a) not in index or str(b) not in index:
                raise ValueError(f"unknown label in pair ({a!r}, {b!r})")
            rows[index[str(a)]] |= 1 << index[str(b)]
        # transitive closure, Warshall on bitmask rows
        for k, rk in enumerate(rows):
            for i, r in enumerate(rows):
                if r >> k & 1:
                    rows[i] = r | rk
        poset = cls.from_rows(labels, rows)
        poset.validate()
        return poset

    def validate(self) -> None:
        """Check reflexivity, antisymmetry and transitivity, in that order.

        Each law raises NotAPoset with its row-major first failing pair.
        """
        up, dn, labels = self.up, self.dn, self.labels
        for i, r in enumerate(up):
            if not r >> i & 1:
                raise NotAPoset(f"not reflexive at {labels[i]}", witness=(labels[i],))
        cycles = [r & dn[i] & ~(1 << i) for i, r in enumerate(up)]
        gaps = [reduce(or_, (up[k] for k in bits(r)), 0) & ~r for r in up]
        for text, rows in (("cycle: {} <= {} and back", cycles),
                           ("not transitive: {} .. {}", gaps)):
            for i, r in enumerate(rows):
                if r:
                    a, b = labels[i], labels[(r & -r).bit_length() - 1]
                    raise NotAPoset(text.format(a, b), witness=(a, b))

    def leq(self, a: int, b: int) -> bool:
        return bool(self.dn[b] >> a & 1)

    def covers(self):
        """List of (lower, upper) cover pairs."""
        out = []
        for a in range(self.n):
            for b in bits(self.up[a] & ~(1 << a)):
                between = self.up[a] & self.dn[b] & ~(1 << a) & ~(1 << b)
                if between == 0:
                    out.append((a, b))
        return out

    def heights(self):
        """Longest-chain height of every element (minimal elements at 0)."""
        h = [0] * self.n
        order = sorted(range(self.n), key=lambda i: self.dn[i].bit_count())
        for i in order:
            below = self.dn[i] & ~(1 << i)
            h[i] = 1 + max((h[j] for j in bits(below)), default=-1)
        return h

    def key(self) -> str:
        digest = hashlib.sha256(
            json.dumps(self.labels).encode() + self._le_bytes
        ).hexdigest()[:10]
        return f"p{self.n}-{digest}"

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Poset)
            and self.labels == other.labels
            and self.up == other.up
        )

    def __hash__(self):
        return self._hash


class Frame:
    """A finite frame: validated distributive lattice with Heyting tables."""

    def __init__(self, poset: Poset, meet, join, imp, bottom: int, top: int,
                 join_irreducibles: int, primes: int):
        self.poset = poset
        self.labels = poset.labels
        self.n = poset.n
        self.meet_table = meet
        self.join_table = join
        self.imp_table = imp
        self.bottom = bottom
        self.top = top
        self.full_mask = (1 << self.n) - 1
        self.dn = poset.dn
        self.up = poset.up
        self.index = poset.index
        # primes (meet-irreducibles): a != top with exactly one upper cover.
        # They are the points of the frame, and every sublocale is the
        # meet-closure of the primes it contains (Birkhoff duality).
        self.primes = primes
        self.prime_list = tuple(bits(primes))
        # join-irreducibles, dually: a != bottom with exactly one lower cover.
        # Every element is the join of the join-irreducibles below it, so the
        # frame is the downset frame of this subposet (Birkhoff duality).
        self.join_irreducibles = join_irreducibles

    @cached_property
    def by_irreducibles(self) -> dict:
        """The element with exactly a given mask of join-irreducibles below it."""
        ji = self.join_irreducibles
        return {self.dn[x] & ji: x for x in range(self.n)}

    @cached_property
    def by_primes(self) -> dict:
        """The element with exactly a given up-closed mask of primes above it."""
        return {self.up[x] & self.primes: x for x in range(self.n)}

    @cached_property
    def irreducible_list(self) -> tuple:
        return tuple(bits(self.join_irreducibles))

    @cached_property
    def primes_above(self) -> tuple:
        """For each prime of `prime_list`, the positions in it of the primes
        strictly above, in increasing order."""
        at = {p: i for i, p in enumerate(self.prime_list)}
        return tuple(tuple(at[q] for q in bits(self.up[p] & self.primes ^ 1 << p))
                     for p in self.prime_list)

    # -- element operations -------------------------------------------------
    def le(self, a: int, b: int) -> bool:
        return bool(self.dn[b] >> a & 1)

    def meet(self, a: int, b: int) -> int:
        return self.meet_table[a][b]

    def join(self, a: int, b: int) -> int:
        return self.join_table[a][b]

    def imp(self, a: int, b: int) -> int:
        """Heyting arrow a -> b: the largest c with c & a <= b."""
        return self.imp_table[a][b]

    def label(self, i: int) -> str:
        return self.labels[i]

    def covers(self):
        return self.poset.covers()

    def key(self) -> str:
        return "f" + self.poset.key()

    def __eq__(self, other):
        return self is other or (isinstance(other, Frame) and self.poset == other.poset)

    def __hash__(self):
        return hash(self.poset)

    def __repr__(self):
        return f"Frame({self.n} elements, key={self.key()})"

    # -- construction -------------------------------------------------------
    @staticmethod
    def from_order(poset: Poset) -> "Frame":
        """Validate lattice structure on a poset and build all tables.

        Meets and joins are principal-ideal lookups; the first pair without
        one raises NoMeetOrJoin, meet before join. Distributivity is decided
        on join-irreducibles; a failure scans for the first bad triple.
        """
        n = poset.n
        if n == 0:
            raise NoMeetOrJoin("empty carrier has no bounds", witness=())
        dn, up = poset.dn, poset.up
        labels = poset.labels

        # the common lower bounds of a and b are the down-set of their meet,
        # if it exists; joins dually
        principal_dn = {d: r for r, d in enumerate(dn)}
        principal_up = {u: r for r, u in enumerate(up)}
        meet = [[0] * n for _ in range(n)]
        join = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                m = principal_dn.get(dn[a] & dn[b])
                if m is None:
                    raise NoMeetOrJoin(
                        f"no meet for ({labels[a]}, {labels[b]})", witness=(labels[a], labels[b])
                    )
                j = principal_up.get(up[a] & up[b])
                if j is None:
                    raise NoMeetOrJoin(
                        f"no join for ({labels[a]}, {labels[b]})", witness=(labels[a], labels[b])
                    )
                meet[a][b] = meet[b][a] = m
                join[a][b] = join[b][a] = j

        bottom, top = principal_up[(1 << n) - 1], principal_dn[(1 << n) - 1]

        # x has exactly one lower cover iff the elements strictly below it
        # have a greatest; primes dually. Distributive iff every
        # join-irreducible is join-prime: J(a | b) = J(a) u J(b), J(x) the
        # join-irreducibles below x. Only a failure runs the triple scan, for
        # the first bad triple.
        strict = [d ^ 1 << x for x, d in enumerate(dn)]
        irreducible = mask_of(x for x, s in enumerate(strict) if s in principal_dn)
        primes = mask_of(x for x, u in enumerate(up) if u ^ 1 << x in principal_up)
        below_j = [d & irreducible for d in dn]
        if any(below_j[join[a][b]] != below_j[a] | below_j[b]
               for a in range(n) for b in range(a + 1, n)):
            for a in range(n):
                ma = meet[a]
                for b in range(n):
                    ab = ma[b]
                    for c in range(b, n):
                        if ma[join[b][c]] != join[ab][ma[c]]:
                            raise NotDistributive(
                                f"{labels[a]} & ({labels[b]} | {labels[c]}) != "
                                f"({labels[a]} & {labels[b]}) | ({labels[a]} & {labels[c]})",
                                witness=(labels[a], labels[b], labels[c]),
                            )

        # Heyting arrow: a -> b is the r with {c : c & a <= b} = down(r), so
        # finding r checks the adjunction too. The set is the fibre of b under
        # c |-> c & a joined with those of b's lower covers (c & a < b lies
        # below one); only a failure needs its join, for the first bad c.
        lower = [[k for k in bits(s) if s & up[k] == 1 << k] for s in strict]
        order = sorted(range(n), key=lambda x: dn[x].bit_count())
        imp = [[0] * n for _ in range(n)]
        for a, ma in enumerate(meet):
            below = [0] * n
            for c, m in enumerate(ma):
                below[m] |= 1 << c
            for b in order:
                for k in lower[b]:
                    below[b] |= below[k]
            for b, d in enumerate(below):
                r = imp[a][b] = principal_dn.get(d)
                if r is None:
                    r = reduce(lambda x, c: join[x][c], bits(d), bottom)
                    off = d ^ dn[r]
                    c = (off & -off).bit_length() - 1
                    raise AssertionError(
                        f"heyting adjunction broken at ({labels[a]},{labels[b]},{labels[c]})"
                    )
        return Frame(poset, tuple(map(tuple, meet)), tuple(map(tuple, join)),
                     tuple(map(tuple, imp)), bottom, top, irreducible, primes)


def build_frame(labels, le_pairs) -> Frame:
    """Construct a frame from labels and generating <=-pairs.

    Raises NotAPoset / NoMeetOrJoin / NotDistributive with witnesses.
    """
    return Frame.from_order(Poset.from_pairs(labels, le_pairs))


def heyting(frame: Frame, a: int, b: int) -> int:
    """The largest c with c & a <= b."""
    return frame.imp(a, b)


def pseudocomplement(frame: Frame, a: int) -> int:
    return frame.imp_table[a][frame.bottom]


def downset_frame(poset: Poset) -> Frame:
    """The frame of down-closed subsets of a poset, ordered by inclusion.

    D's row holds D and the rows of D plus a minimal element of the rest."""
    n, dn = poset.n, poset.dn
    downs = [m for m in range(1 << n) if all(dn[i] & ~m == 0 for i in bits(m))]
    downs.sort(key=lambda m: (m.bit_count(), m))
    rank = {m: i for i, m in enumerate(downs)}
    up = [0] * len(downs)
    for i in reversed(range(len(downs))):
        m = downs[i]
        up[i] = reduce(or_, (up[rank[m | 1 << x]] for x in bits(~m & (1 << n) - 1)
                             if dn[x] & ~m == 1 << x), 1 << i)
    return Frame.from_order(Poset.from_rows([set_label(poset.labels, m) for m in downs], up))


class FiniteSpace:
    """A finite topological space: point labels plus an open-set family."""

    def __init__(self, points, opens):
        self.points = tuple(str(p) for p in points)
        self.n_points = len(self.points)
        self.point_index = {p: i for i, p in enumerate(self.points)}
        if len(self.point_index) != self.n_points:
            raise ValueError("duplicate point labels")
        self.opens = tuple(sorted(set(int(o) for o in opens), key=lambda m: (m.bit_count(), m)))
        self.full = (1 << self.n_points) - 1
        self.validate()

    @staticmethod
    def from_sets(points, open_sets) -> "FiniteSpace":
        points = tuple(str(p) for p in points)
        index = {p: i for i, p in enumerate(points)}
        masks = []
        for s in open_sets:
            m = 0
            for p in s:
                if str(p) not in index:
                    raise ValueError(f"open set mentions unknown point {p!r}")
                m |= 1 << index[str(p)]
            masks.append(m)
        return FiniteSpace(points, masks)

    def validate(self) -> None:
        opens = set(self.opens)
        for u in self.opens:
            if not 0 <= u <= self.full:
                raise NotASpace(f"open mask {u} is outside 0..{self.full}",
                                witness=(u,))
        if 0 not in opens:
            raise NotASpace("empty set is not open", witness=())
        if self.full not in opens:
            raise NotASpace("whole space is not open", witness=())
        for u in self.opens:
            for v in self.opens:
                if u | v not in opens:
                    raise NotASpace(
                        f"union of {self.open_label(u)} and {self.open_label(v)} is not open",
                        witness=(u, v, "union"),
                    )
                if u & v not in opens:
                    raise NotASpace(
                        f"intersection of {self.open_label(u)} and {self.open_label(v)} is not open",
                        witness=(u, v, "intersection"),
                    )

    def open_label(self, mask: int) -> str:
        return set_label(self.points, mask)

    def key(self) -> str:
        digest = hashlib.sha256(
            json.dumps([self.points, list(self.opens)]).encode()
        ).hexdigest()[:10]
        return f"x{self.n_points}-{digest}"

    def __eq__(self, other):
        return (
            isinstance(other, FiniteSpace)
            and self.points == other.points
            and self.opens == other.opens
        )

    def __hash__(self):
        return hash((self.points, self.opens))


def frame_of_space(space: FiniteSpace) -> Frame:
    """Open-set frame of a finite space; meet/join coincide with set operations."""
    up = [mask_of(j for j, v in enumerate(space.opens) if not u & ~v) for u in space.opens]
    return Frame.from_order(Poset.from_rows([space.open_label(u) for u in space.opens], up))


MAX_EXHAUSTIVE = 8  # the largest frame heyting_identity_report scans


def heyting_identity_report(frame: Frame) -> dict:
    """Check the complete-Heyting identities over all subsets A and elements b.

    Three valid identities gate `status`: (vA) & b = v(a & b),
    b -> (^A) = ^(b -> a) and (vA) -> b = ^(a -> b). The sup-arrow display
    form (vA) -> b = v(a -> b), the third with a join in place of the meet,
    is searched for a counterexample and reported as falsified when one exists.
    """
    n = frame.n
    if n > MAX_EXHAUSTIVE:
        return {"status": "skip", "reason": f"|L|={n} exceeds exhaustive bound {MAX_EXHAUSTIVE}"}
    meet, join, imp = ([list(r) for r in t]
                       for t in (frame.meet_table, frame.join_table, frame.imp_table))
    imp_into = [list(c) for c in zip(*imp)]  # imp_into[a][b] = b -> a
    bottom, top = [frame.bottom] * n, [frame.top] * n
    frame_dist_ok = arrow_meet_ok = arrow_sup_ok = True
    display_witness = None
    # per subset A: vA, ^A, and the rows over b of v(a & b), ^(b -> a),
    # ^(a -> b) and v(a -> b). A's folds are those of A less its highest
    # element a, one step further: the order of folding A upwards.
    folds = [(frame.bottom, frame.top, bottom, top, top, bottom)]
    for amask in range(1, 1 << n):
        a = amask.bit_length() - 1
        ja, ma, dist, arr_meet, arr_sup, arr_join = folds[amask ^ 1 << a]
        folds.append((join[ja][a], meet[ma][a],
                      [join[x][y] for x, y in zip(dist, meet[a])],
                      [meet[x][y] for x, y in zip(arr_meet, imp_into[a])],
                      [meet[x][y] for x, y in zip(arr_sup, imp[a])],
                      [join[x][y] for x, y in zip(arr_join, imp[a])]))
    for amask, (ja, ma, dist, arr_meet, arr_sup, arr_join) in enumerate(folds):
        frame_dist_ok = frame_dist_ok and meet[ja] == dist
        arrow_meet_ok = arrow_meet_ok and imp_into[ma] == arr_meet
        arrow_sup_ok = arrow_sup_ok and imp[ja] == arr_sup
        # display form: (vA) -> b = v(a -> b); falsified in general.
        # Prefer a witness with nonempty A over the empty-join artifact.
        if (display_witness is None or (amask and not display_witness["A"])) \
                and imp[ja] != arr_join:
            b = next(b for b, (x, y) in enumerate(zip(imp[ja], arr_join)) if x != y)
            display_witness = {
                "A": [frame.label(a) for a in bits(amask)],
                "b": frame.label(b),
                "lhs": frame.label(imp[ja][b]),
                "rhs": frame.label(arr_join[b]),
            }
    return {
        "status": "pass" if (frame_dist_ok and arrow_meet_ok and arrow_sup_ok) else "fail",
        "cases": n << n,
        "join_meet_distribution": frame_dist_ok,
        "arrow_preserves_meets": arrow_meet_ok,
        "sup_arrow_meet_form": arrow_sup_ok,
        "sup_arrow_display_form": (
            {"status": "falsified", "witness": display_witness}
            if display_witness
            else {"status": "not-falsified-here"}
        ),
    }
