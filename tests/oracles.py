"""Brute-force oracles for the fast paths of localelab.

Each function here is the definition the fast path replaced, kept as a scan
over subsets, assignments or all pairs, so that property tests can compare
the two on every small frame.
"""
from itertools import permutations, product

from localelab.errors import NoMeetOrJoin, NotDistributive
from localelab.hops import HOperator
from localelab.interior import GAP_KINDS, AxiomReport, ContinuityReport, InteriorOperator
from localelab.lattice import Poset, bits
from localelab.maps import HomReport, check_frame_hom, localic_maps
from localelab.points import SpatialityReport
from localelab.sublocales import (
    AdjReport,
    GenReport,
    SubReport,
    as_mask,
    open_sub_mask,
    sub_join_mask,
    transfer_of,
)


def brute_frame_homs(source, target):
    """Every table source -> target that check_frame_hom accepts, scanned over
    all |M|^|L| candidates in itertools.product (lexicographic) order."""
    out = []
    for cand in product(range(target.n), repeat=source.n):
        if cand[source.top] != target.top or cand[source.bottom] != target.bottom:
            continue
        if check_frame_hom(source, target, cand).ok:
            out.append(cand)
    return out


def maps_in_hom_order(pairs):
    """The localic maps b -> a of each frame pair (a, b) in turn, each pair's in
    lexicographic order of their left adjoints' tables: the right adjoints of
    enumerate_frame_homs(a, b), in its order."""
    return [f for a, b in pairs for f in sorted(localic_maps(b, a), key=lambda g: g.adjoint.table)]


def brute_point_order(source, target, points):
    """The first pair of source points p <= q, over all pairs in `prime_list`
    order (p, then q), whose values points[p] <= points[q] fail in the
    target, as the witness ("point-order", p, q) on labels; None if none."""
    pairs = tuple(zip(source.prime_list, points))
    for p, v in pairs:
        for q, w in pairs:
            if source.le(p, q) and not target.le(v, w):
                return ("point-order", source.labels[p], source.labels[q])
    return None


def table_from_labels(sl, values):
    """The table on sl that sends the sublocale labelled s to the one
    labelled values[s], each found through sl.index by its members."""
    def at(label):
        return sl.index[as_mask(sl.host, label.strip("{}").split(","))]
    table = [None] * sl.n
    for s, v in values.items():
        table[at(s)] = at(v)
    return tuple(table)


# a valid interior operator on S_l(CHAIN4) whose lift along CHAIN3 -> CHAIN4,
# (1, 2, 3), passes the axioms but not continuity
CHAIN4_OP = {"{1}": "{1}", "{0,1}": "{1}", "{a,1}": "{1}", "{b,1}": "{1}",
             "{0,a,1}": "{a,1}", "{0,b,1}": "{b,1}", "{a,b,1}": "{a,b,1}",
             "{0,a,b,1}": "{0,a,b,1}"}


def brute_sublocale_masks(host):
    """Every subset containing the top that is closed under meets and arrows,
    in (cardinality, bit pattern) order."""
    top_bit = 1 << host.top
    rest = [i for i in range(host.n) if i != host.top]
    arrows_into = brute_arrows_into(host)
    found = []
    for sel in range(1 << len(rest)):
        mask = top_bit
        for b, i in enumerate(rest):
            if sel >> b & 1:
                mask |= 1 << i
        mem = list(bits(mask))
        ok = True
        for ii, a in enumerate(mem):
            if not ok:
                break
            if arrows_into[a] & ~mask:
                ok = False
                break
            for b in mem[ii:]:
                if not mask >> host.meet(a, b) & 1:
                    ok = False
                    break
        if ok:
            found.append(mask)
    return sorted(found, key=lambda m: (m.bit_count(), m))


def brute_closure(table, mask):
    """The least superset of mask closed under the binary operation table,
    by adding every pairwise product of members until nothing is added."""
    while True:
        mem = list(bits(mask))
        add = 0
        for a in mem:
            for b in mem:
                add |= 1 << table[a][b]
        if not add & ~mask:
            return mask
        mask |= add


def brute_is_sublocale(frame, mask):
    """The SubReport of the first violated condition of mask, scanned in
    order: the top, then every member pair (a, b), a <= b by index, for its
    meet, then every (member s, element x) for the arrow x -> s."""
    labels = frame.labels
    if not mask >> frame.top & 1:
        return SubReport(False, "top", (labels[frame.top],))
    mem = list(bits(mask))
    for i, a in enumerate(mem):
        for b in mem[i:]:
            if not mask >> frame.meet(a, b) & 1:
                return SubReport(False, "meet", (labels[a], labels[b]))
    for s in mem:
        for x in range(frame.n):
            if not mask >> frame.imp(x, s) & 1:
                return SubReport(False, "arrow", (labels[x], labels[s], labels[frame.imp(x, s)]))
    return SubReport(True)


def brute_sloc_core(frame, mask):
    """The largest sublocale inside a meet-closed subset with the top, by
    greatest-fixpoint iteration of A |-> {a in A : every x -> a lands in A}."""
    arrows_into = brute_arrows_into(frame)
    while True:
        kept = 0
        for a in bits(mask):
            if not arrows_into[a] & ~mask:
                kept |= 1 << a
        if kept == mask:
            return mask
        mask = kept


def brute_point_filters(frame):
    """Filters of every two-valued assignment that is a frame hom L -> 2,
    sorted: bottom goes to 0, top to 1, binary meets and joins are kept."""
    free = [a for a in range(frame.n) if a != frame.bottom and a != frame.top]
    found = []
    for sel in range(1 << len(free)):
        filt = 1 << frame.top
        for k, a in enumerate(free):
            if sel >> k & 1:
                filt |= 1 << a
        if _is_point(frame, filt):
            found.append(filt)
    return sorted(found)


def _is_point(frame, filt):
    v = lambda a: filt >> a & 1
    if v(frame.bottom) or not v(frame.top):
        return False
    for a in range(frame.n):
        va = v(a)
        for b in range(a + 1, frame.n):
            vb = v(b)
            if v(frame.meet(a, b)) != (va & vb):
                return False
            if v(frame.join(a, b)) != (va | vb):
                return False
    return True


def brute_sigma(points, a):
    """sigma(a) by calling each point: the mask of the points sending a to 1."""
    mask = 0
    for i, p in enumerate(points):
        if p(a):
            mask |= 1 << i
    return mask


def brute_is_spatial(frame, points):
    """The spatiality pair scan, calling each point on each pair a not<= b."""
    checked = 0
    failures = []
    for a in range(frame.n):
        for b in range(frame.n):
            if frame.le(a, b):
                continue
            checked += 1
            if not any(p(a) and not p(b) for p in points):
                failures.append((frame.labels[a], frame.labels[b]))
    return SpatialityReport(not failures, checked, tuple(failures))


def brute_preimage_table(t):
    """Preimage indices of a SublocaleTransfer by the brute_sloc_core fixpoint."""
    f, sl, tl = t.map, t.source_lattice, t.target_lattice
    out = []
    for tm in tl.masks:
        raw = 0
        for x in range(f.source.n):
            if tm >> f(x) & 1:
                raw |= 1 << x
        out.append(sl.index[brute_sloc_core(f.source, raw)])
    return tuple(out)


def brute_image_table(t):
    """Image indices of a SublocaleTransfer by elementwise images."""
    f, sl, tl = t.map, t.source_lattice, t.target_lattice
    out = []
    for m in sl.masks:
        img = 0
        for x in bits(m):
            img |= 1 << f(x)
        out.append(tl.index[img])
    return tuple(out)


def brute_monotone_count(p, q):
    """Monotone maps p -> q between posets, counted over all |q|^|p| functions."""
    pairs = [(a, b) for a in range(p.n) for b in range(p.n) if a != b and p.leq(a, b)]
    return sum(
        1 for f in product(range(q.n), repeat=p.n) if all(q.leq(f[a], f[b]) for a, b in pairs)
    )


def brute_adjunction(t):
    """AdjReport of a SublocaleTransfer: f[S] <= T iff S <= f_-1[T], scanned
    over all pairs up to the lex-first failure."""
    sl, tl = t.source_lattice, t.target_lattice
    pairs = 0
    for i in range(sl.n):
        for j in range(tl.n):
            pairs += 1
            lhs = tl.le(t.image_table[i], j)
            rhs = sl.le(i, t.preimage_table[j])
            if lhs != rhs:
                return AdjReport(False, pairs, (sl.label(i), tl.label(j), lhs, rhs))
    return AdjReport(True, pairs)


def brute_interior_axioms(op):
    """(passed, witnesses) of I1, I2, I3, with I2 scanned over all pairs."""
    sl = op.lattice
    passed = {"I1": True, "I2": True, "I3": True}
    witnesses = {}
    for i in range(sl.n):
        if not sl.le(op(i), i):
            passed["I1"] = False
            witnesses["I1"] = (sl.label(i), sl.label(op(i)))
            break
    gap = _first_gap(sl.n, sl.le, lambda i, j: sl.le(op(i), op(j)))
    if gap is not None:
        passed["I2"] = False
        witnesses["I2"] = (sl.label(gap[0]), sl.label(gap[1]))
    if op(sl.top) != sl.top:
        passed["I3"] = False
        witnesses["I3"] = (sl.label(op(sl.top)),)
    return passed, witnesses


def _meet(sl, a, b):
    """Meet of two sublocale indices as the intersection of their masks."""
    return sl.index[sl.masks[a] & sl.masks[b]]


def _le(sl, a, b):
    return not sl.masks[a] & ~sl.masks[b]


def brute_h_axioms(op):
    """(passed, witnesses) of h1, h2, h3 on the cores S ^ h(S), computed here
    from masks, with h2 scanned over all pairs."""
    sl = op.lattice
    passed = {"h1": True, "h2": True, "h3": True}
    witnesses = {}
    core = [_meet(sl, i, op(i)) for i in range(sl.n)]
    for i in range(sl.n):
        if not _le(sl, core[i], i):
            passed["h1"] = False
            witnesses["h1"] = (sl.label(i), sl.label(op(i)))
            break
    gap = _first_gap(sl.n, lambda i, j: _le(sl, i, j), lambda i, j: _le(sl, core[i], core[j]))
    if gap is not None:
        passed["h2"] = False
        witnesses["h2"] = (sl.label(gap[0]), sl.label(gap[1]))
    if op(sl.top) != sl.top:
        passed["h3"] = False
        witnesses["h3"] = (sl.label(op(sl.top)),)
    return passed, witnesses


def brute_h_continuous(f, h_l, h_m):
    """(ok, checked, witness, witness_index) of h-continuity of f: the first T,
    in index order, with f_-1[T ^ h_M(T)] not below f_-1[T] ^ h_L(f_-1[T])."""
    t = transfer_of(f)
    sll, slm = h_l.lattice, h_m.lattice
    for j in range(slm.n):
        pre = t.preimage_table[j]
        lhs = t.preimage_table[_meet(slm, j, h_m(j))]
        rhs = _meet(sll, pre, h_l(pre))
        if not _le(sll, lhs, rhs):
            return False, j + 1, (slm.label(j), sll.label(lhs), sll.label(rhs)), j
    return True, slm.n, None, None


def brute_I_continuous(f, op_l, op_m):
    """ContinuityReport of I-continuity of f: the first T, in index order, with
    f_-1[i_M(T)] not below i_L(f_-1[T])."""
    t = transfer_of(f)
    sl = op_l.lattice
    for j in range(op_m.lattice.n):
        lhs = t.preimage_table[op_m(j)]
        rhs = op_l(t.preimage_table[j])
        if not _le(sl, lhs, rhs):
            return ContinuityReport(
                False, j + 1, (op_m.lattice.label(j), sl.label(lhs), sl.label(rhs)), j)
    return ContinuityReport(True, op_m.lattice.n)


def brute_initial_interior(f, op_m):
    """(candidate table, AxiomReport, ContinuityReport, anomalies) of the
    induced interior operator, each anomaly found by its own scan:
    contraction gaps, the top gap, then every continuity gap."""
    t = transfer_of(f)
    sl, tl = t.source_lattice, t.target_lattice
    table = tuple(t.preimage_table[op_m(t.image_table[i])] for i in range(sl.n))
    cand = InteriorOperator(sl, table)
    axioms = AxiomReport(*brute_interior_axioms(cand))
    cont = brute_I_continuous(f, cand, op_m)
    surjective = t.image_table[sl.top] == tl.top
    anomalies = []
    for i in range(sl.n):
        if not _le(sl, cand(i), i):
            anomalies.append({"kind": "contraction-gap", "at": sl.label(i),
                              "predicate": "unit-gap",
                              "confirmed": t.preimage_table[t.image_table[i]] != i})
    if cand(sl.top) != sl.top:
        anomalies.append(_top_gap(sl, surjective))
    for j in range(tl.n):
        if not _le(sl, t.preimage_table[op_m(j)], cand(t.preimage_table[j])):
            anomalies.append(_continuity_gap(t, j, surjective))
    return table, axioms, cont, tuple(anomalies)


def brute_forall_table(t):
    """For each source index S of a SublocaleTransfer, the largest T with
    f_-1[T] <= S, as the join of every such T."""
    sl, tl = t.source_lattice, t.target_lattice
    out = []
    for s in range(sl.n):
        acc = tl.bottom
        for j in range(tl.n):
            if sl.le(t.preimage_table[j], s):
                acc = tl.join(acc, j)
        out.append(acc)
    return tuple(out)


def brute_initial_lift(f, op_m):
    """The initial lift's table by its definition: at each source S, the join
    of f_-1[op_M(T)] over every target T with f_-1[T] <= S."""
    t = transfer_of(f)
    sl, pre = t.source_lattice, t.preimage_table
    le, join = sl.le, sl.join
    pairs = [(pre[j], pre[v]) for j, v in enumerate(op_m.table)]
    table = []
    for s in range(sl.n):
        acc = sl.bottom
        for below, value in pairs:
            if le(below, s):
                acc = join(acc, value)
        table.append(acc)
    return tuple(table)


def brute_initial_h(f, h_m):
    """(candidate table, AxiomReport, ContinuityReport, anomalies) of the
    induced h operator: h1, h2, h3 and h-continuity by the scans above, the
    top gap, then the first continuity gap."""
    t = transfer_of(f)
    sl, tl = t.source_lattice, t.target_lattice
    table = tuple(t.preimage_table[h_m(t.image_table[i])] for i in range(sl.n))
    cand = HOperator(sl, table)
    axioms = AxiomReport(*brute_h_axioms(cand), vacuous=("h1",))
    cont = ContinuityReport(*brute_h_continuous(f, cand, h_m))
    surjective = t.image_table[sl.top] == tl.top
    anomalies = []
    if cand(sl.top) != sl.top:
        anomalies.append(_top_gap(sl, surjective))
    if not cont.ok:
        anomalies.append(_continuity_gap(t, cont.witness_index, surjective))
    return table, axioms, cont, tuple(anomalies)


def gap_masks(f, anomalies):
    """Per kind in GAP_KINDS, the mask of the indices the oracle's anomalies name."""
    t = transfer_of(f)
    masks = dict.fromkeys(GAP_KINDS, 0)
    for a in anomalies:
        lat = t.target_lattice if a["kind"] == "continuity-gap" else t.source_lattice
        masks[a["kind"]] |= 1 << lat.labels.index(a["at"])
    return tuple(masks.values())


def _top_gap(sl, surjective):
    return {"kind": "top-gap", "at": sl.label(sl.top),
            "predicate": "image-not-whole-target", "confirmed": not surjective}


def _continuity_gap(t, j, surjective):
    tl = t.target_lattice
    if j == tl.top:
        return {"kind": "continuity-gap", "at": tl.label(j),
                "predicate": "image-not-whole-target", "confirmed": not surjective}
    return {"kind": "continuity-gap", "at": tl.label(j), "predicate": "counit-gap",
            "confirmed": t.image_table[t.preimage_table[j]] != j}


def brute_op_join(ops):
    """Pointwise join table: at each index, the meet of the masks of every
    sublocale that contains the union of the members' values."""
    sl = ops[0].lattice
    table = []
    for i in range(sl.n):
        union = 0
        for op in ops:
            union |= sl.masks[op(i)]
        least = sl.host.full_mask
        for m in sl.masks:
            if not union & ~m:
                least &= m
        table.append(sl.index[least])
    return tuple(table)


def brute_op_meet(ops):
    """Pointwise meet table: at each index, the intersection of the values."""
    sl = ops[0].lattice
    table = []
    for i in range(sl.n):
        mask = sl.host.full_mask
        for op in ops:
            mask &= sl.masks[op(i)]
        table.append(sl.index[mask])
    return tuple(table)


def brute_op_le_gap(a, b):
    """Label of the first index where a's value is not a subset of b's, or None."""
    sl = a.lattice
    for i in range(sl.n):
        if not _le(sl, a(i), b(i)):
            return sl.label(i)
    return None


def _first_gap(n, le, value_le):
    """Lex-first (i, j) with le(i, j) and not value_le(i, j), or None."""
    for i in range(n):
        for j in range(n):
            if le(i, j) and not value_le(i, j):
                return i, j
    return None


# -- the O(n^2) operator samplers, drawing by the kernel's rule ----------------


def _points_of(lat, i):
    """The points of sublocale i, read off its element mask: the primes it
    contains, bit b standing for `prime_list[b]`."""
    m = lat.masks[i]
    return sum(1 << b for b, p in enumerate(lat.host.prime_list) if m >> p & 1)


def _seed(lat, i, word):
    """The sublocale below i whose points are the bits of word on the points of i."""
    want = _points_of(lat, i) & word
    return next(j for j in range(lat.n) if _points_of(lat, j) == want)


def _closure(lat, seed):
    table = []
    for i in range(lat.n):
        acc = lat.bottom
        for j in range(lat.n):
            if lat.le(j, i):
                acc = lat.join(acc, seed[j])
        table.append(acc)
    table[lat.top] = lat.top
    return tuple(table)


def brute_batch_tables(lat, rng, lanes, width, named=0):
    """The tables of a batch of `lanes` lanes, width bits apart. The first
    `named` lanes (at most two) are the discrete and trivial tables and draw
    nothing. For each index i in turn, one word of rng covers the drawn
    lanes: it has as many bits as reach the points of i in the last lane (none
    when nothing is drawn there), and lane j's seed at i is the sublocale
    whose points are the word's bits at j * width up on the points of i. Each
    lane's seeds are then closed by subset scan."""
    seeds = [[] for _ in range(lanes)]
    for i in range(lat.n):
        pts = _points_of(lat, i)
        word = rng.getrandbits((lanes - 1) * width + pts.bit_length()
                               if pts and lanes > named else 0)
        for j in range(named, lanes):
            seeds[j].append(_seed(lat, i, word >> j * width))
    drawn = [_closure(lat, seed) for seed in seeds[named:]]
    if not named:
        return drawn
    return [tuple(range(lat.n)), _closure(lat, [lat.bottom] * lat.n)][:named] + drawn


def all_interior_tables(sl):
    """Every interior operator on sl as a table, by backtracking in index
    order: entry i is a subset of the points of i that contains the values of
    its lower covers (I1 and I2, which cover pairs decide), and the top is
    fixed (I3). Index order is a linear extension, so each lower cover's value
    is chosen before i."""
    by_points = {_points_of(sl, i): i for i in range(sl.n)}
    pts, top = [_points_of(sl, i) for i in range(sl.n)], sl.top
    out, vals = [], []

    def extend(i):
        if i == sl.n:
            out.append(tuple(by_points[v] for v in vals))
            return
        low = 0
        for c in sl.lower_covers[i]:
            low |= vals[c]
        free = pts[i] & ~low
        choices = [pts[i]] if i == top else [low | q for q in range(free + 1) if not q & ~free]
        for v in choices:
            vals.append(v)
            extend(i + 1)
            vals.pop()

    extend(0)
    return out


def brute_random_table(lat, rng):
    """random_op / random_h table: one word per index, masked to its points, then closed."""
    return brute_batch_tables(lat, rng, 1, 0)[0]


def brute_continuous_table(f, op_m, t, rng):
    """make_continuous_op table for the transfer t of f."""
    sl = t.source_lattice
    base = [sl.bottom] * sl.n
    for j in range(op_m.lattice.n):
        s = t.preimage_table[j]
        base[s] = sl.join(base[s], t.preimage_table[op_m(j)])
    for i in range(sl.n):
        word = rng.getrandbits(_points_of(sl, i).bit_length())
        base[i] = sl.join(base[i], _seed(sl, i, word))
    return _closure(sl, base)


# -- the map-layer scans: method calls over all pairs, one element at a time ------


def brute_check_frame_hom(source, target, table):
    """HomReport of table: source -> target by method calls over every index
    pair a <= b in lexicographic order, the meet law before the join law."""
    t = tuple(table)
    if len(t) != source.n or any(not 0 <= v < target.n for v in t):
        return HomReport(False, "totality", (len(t),))
    if t[source.top] != target.top:
        return HomReport(False, "top", (source.labels[source.top],))
    if t[source.bottom] != target.bottom:
        return HomReport(False, "bottom", (source.labels[source.bottom],))
    for a in range(source.n):
        for b in range(a, source.n):
            if t[source.meet(a, b)] != target.meet(t[a], t[b]):
                return HomReport(False, "meet", (source.labels[a], source.labels[b]))
            if t[source.join(a, b)] != target.join(t[a], t[b]):
                return HomReport(False, "join", (source.labels[a], source.labels[b]))
    return HomReport(True)


def brute_adjunction_gap(source, target, f, h):
    """First (m, x), m outer, where h(m) <= x and m <= f(x) disagree, or None."""
    for m in range(target.n):
        for x in range(source.n):
            if source.le(h[m], x) != target.le(m, f[x]):
                return m, x
    return None


def brute_right_adjoint_table(h):
    """f(x) = v{m : h(m) <= x} by the join over every m, for every x."""
    L, M = h.target, h.source
    table = []
    for x in range(L.n):
        acc = M.bottom
        for m in range(M.n):
            if L.le(h(m), x):
                acc = M.join(acc, m)
        table.append(acc)
    return tuple(table)


def brute_left_adjoint(source, target, table):
    """(adjoint table, None) when table: source -> target is localic, else
    (None, (message, witness)) of the first failure: totality, the meet scan
    over all pairs, the top, the candidate's hom laws, the adjunction scan."""
    f = tuple(table)
    if len(f) != source.n or any(not 0 <= v < target.n for v in f):
        return None, ("table is not a total map into the target", ("totality",))
    for a in range(source.n):
        for b in range(a, source.n):
            if f[source.meet(a, b)] != target.meet(f[a], f[b]):
                la, lb = source.labels[a], source.labels[b]
                return None, (f"does not preserve the meet of ({la}, {lb})",
                              ("map-meet", la, lb))
    if f[source.top] != target.top:
        return None, ("does not preserve the top", ("map-top",))
    adj = []
    for m in range(target.n):
        acc = source.top
        for x in range(source.n):
            if target.le(m, f[x]):
                acc = source.meet(acc, x)
        adj.append(acc)
    rep = brute_check_frame_hom(target, source, adj)
    if not rep.ok:
        return None, (f"candidate adjoint fails the {rep.law} law at {rep.witness}",
                      ("adjoint-" + str(rep.law),) + tuple(rep.witness or ()))
    gap = brute_adjunction_gap(source, target, f, adj)
    if gap is not None:
        m, x = target.labels[gap[0]], source.labels[gap[1]]
        return None, (f"adjunction fails at ({m}, {x})", ("adjunction", m, x))
    return tuple(adj), None


def brute_transfer_tables(f, sl, tl):
    """(image table, preimage table) of f on the lattices sl and tl: for each
    sublocale, the images of its points, and the points sent into it, each
    found among the sublocales by its primes."""
    src, tgt = f.source.primes, f.target.primes
    by_primes_l = {m & src: i for i, m in enumerate(sl.masks)}
    by_primes_m = {m & tgt: j for j, m in enumerate(tl.masks)}
    img = []
    for m in sl.masks:
        out = 0
        for p in bits(m & src):
            out |= 1 << f(p)
        img.append(by_primes_m[out])
    pre = []
    for m in tl.masks:
        back = 0
        for p in bits(src):
            if m >> f(p) & 1:
                back |= 1 << p
        pre.append(by_primes_l[back])
    return tuple(img), tuple(pre)


def brute_heyting_table(frame):
    """Every arrow a -> b as the join of all c with c & a <= b, then the
    adjunction c <= a -> b iff c & a <= b re-checked over every c."""
    n, dn = frame.n, frame.dn
    imp = []
    for a in range(n):
        row = []
        for b in range(n):
            best = frame.bottom
            for c in range(n):
                if dn[b] >> frame.meet(c, a) & 1:
                    best = frame.join(best, c)
            assert all((dn[b] >> frame.meet(c, a) & 1) == (dn[best] >> c & 1) for c in range(n))
            row.append(best)
        imp.append(tuple(row))
    return tuple(imp)



def meet_of(frame, mask):
    """The meet of the elements in mask, folded over the meet table; the
    empty meet is the top."""
    out = frame.top
    for i in bits(mask):
        out = frame.meet(out, i)
    return out


def join_of(frame, mask):
    """The join of the elements in mask, folded over the join table; the
    empty join is the bottom."""
    out = frame.bottom
    for i in bits(mask):
        out = frame.join(out, i)
    return out


def brute_heyting_identity_report(frame, max_exhaustive=8):
    """heyting_identity_report with every fold over A recomputed from scratch
    for each of the 2^n subsets A, scanned in (A, b) order."""
    n = frame.n
    if n > max_exhaustive:
        return {"status": "skip", "reason": f"|L|={n} exceeds exhaustive bound {max_exhaustive}"}
    frame_dist_ok = arrow_meet_ok = arrow_sup_ok = True
    display_witness = None
    cases = 0
    for amask in range(1 << n):
        ja = join_of(frame, amask)
        ma = meet_of(frame, amask)
        for b in range(n):
            cases += 1
            acc = frame.bottom
            for a in bits(amask):
                acc = frame.join(acc, frame.meet(a, b))
            if frame.meet(ja, b) != acc:
                frame_dist_ok = False
            acc = frame.top
            for a in bits(amask):
                acc = frame.meet(acc, frame.imp(b, a))
            if frame.imp(b, ma) != acc:
                arrow_meet_ok = False
            acc = frame.top
            for a in bits(amask):
                acc = frame.meet(acc, frame.imp(a, b))
            if frame.imp(ja, b) != acc:
                arrow_sup_ok = False
            if display_witness is None or (display_witness["A"] == [] and amask):
                acc = frame.bottom
                for a in bits(amask):
                    acc = frame.join(acc, frame.imp(a, b))
                if frame.imp(ja, b) != acc:
                    display_witness = {
                        "A": [frame.label(a) for a in bits(amask)],
                        "b": frame.label(b),
                        "lhs": frame.label(frame.imp(ja, b)),
                        "rhs": frame.label(acc),
                    }
    return {
        "status": "pass" if (frame_dist_ok and arrow_meet_ok and arrow_sup_ok) else "fail",
        "cases": cases,
        "join_meet_distribution": frame_dist_ok,
        "arrow_preserves_meets": arrow_meet_ok,
        "sup_arrow_meet_form": arrow_sup_ok,
        "sup_arrow_display_form": (
            {"status": "falsified", "witness": display_witness}
            if display_witness
            else {"status": "not-falsified-here"}
        ),
    }


def brute_generation_check(sl, s):
    """generation_check with the n^2 joins o(x) v c(y) rebuilt for this S."""
    host = sl.host
    acc = host.full_mask
    for x in range(host.n):
        ox = open_sub_mask(host, x)
        for y in range(host.n):
            j = sub_join_mask(host, (ox, host.up[y]))
            if not s.mask & ~j:
                acc &= j
    return GenReport(acc == s.mask, tuple(s.member_labels()),
                     tuple(host.labels[i] for i in bits(acc)))

# -- the poset scans: matrix entries, one at a time ------------------------------------


def brute_canonical_key(poset):
    """Lexicographically minimal row-major code of poset.leq over every
    relabeling, each code read in full."""
    n = poset.n
    best = None
    for perm in permutations(range(n)):
        code = 0
        for a in range(n):
            for b in range(n):
                code = code << 1 | int(poset.leq(perm[a], perm[b]))
        if best is None or code < best:
            best = code
    return best


def brute_poset_classes(n):
    """(canonical key, representative) per isomorphism class of n-element
    posets, in key order, by scanning every upper-triangular relation in
    increasing bit order over the pairs (i, j), i < j, in row-major order:
    each is closed transitively, and the first relation to reach a class
    gives its representative, labeled "0".."n-1"."""
    labels = tuple(str(i) for i in range(n))
    pair_list = [(i, j) for i in range(n) for j in range(i + 1, n)]
    closures = {}  # in order of first reach
    for sel in range(1 << len(pair_list)):
        le = [[i == j for j in range(n)] for i in range(n)]
        for b, (i, j) in enumerate(pair_list):
            if sel >> b & 1:
                le[i][j] = True
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    le[i][j] = le[i][j] or (le[i][k] and le[k][j])
        closures.setdefault(Poset(labels, le))
    by_key = {}
    for poset in closures:
        by_key.setdefault(brute_canonical_key(poset), poset)
    return sorted(by_key.items())


def brute_downset_order(poset):
    """The down-sets of poset, smallest first and by bit pattern, as a Poset
    labelled by their members and built from its all-pairs inclusion matrix."""
    n = poset.n
    downs = [m for m in range(1 << n)
             if all(m >> a & 1 for b in bits(m) for a in range(n) if poset.leq(a, b))]
    downs.sort(key=lambda m: (bin(m).count("1"), m))
    labels = ["{" + ",".join(poset.labels[i] for i in bits(m)) + "}" for m in downs]
    return Poset(labels, [[not mi & ~mj for mj in downs] for mi in downs])


def brute_arrows_into(frame):
    """For each s, the mask of {x -> s : x in L}, one element at a time: a
    subset A is arrow-closed iff each of its members' masks lies in A."""
    return tuple(sum({1 << frame.imp(x, s) for x in range(frame.n)}) for s in range(frame.n))


def brute_lattice_outcome(poset):
    """("frame", meet table, join table, join-irreducibles, primes) of a
    poset, each meet and join found by scanning all elements for the greatest
    lower and least upper bound, the last two as the masks of the elements
    with exactly one lower and exactly one upper cover; or
    (exception type, message, witness) for the first pair (a, b), a <= b,
    that lacks its meet (checked first) or join, else for the first triple
    (a, b, c), b <= c, with a & (b | c) != (a & b) | (a & c)."""
    n, labels, le = poset.n, poset.labels, poset.leq
    meet = [[None] * n for _ in range(n)]
    join = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            lower = [c for c in range(n) if le(c, a) and le(c, b)]
            upper = [c for c in range(n) if le(a, c) and le(b, c)]
            for kind, bounds, table, best in (
                    ("meet", lower, meet, lambda m: all(le(c, m) for c in lower)),
                    ("join", upper, join, lambda m: all(le(m, c) for c in upper))):
                found = [m for m in bounds if best(m)]
                if not found:
                    return (NoMeetOrJoin, f"no {kind} for ({labels[a]}, {labels[b]})",
                            (labels[a], labels[b]))
                table[a][b] = table[b][a] = found[0]
    for a in range(n):
        for b in range(n):
            for c in range(b, n):
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    x, y, z = labels[a], labels[b], labels[c]
                    return (NotDistributive, f"{x} & ({y} | {z}) != ({x} & {y}) | ({x} & {z})",
                            (x, y, z))
    covers = [(a, b) for a in range(n) for b in range(n) if a != b and le(a, b)
              and not any(c not in (a, b) and le(a, c) and le(c, b) for c in range(n))]
    ends = [[pair[k] for pair in covers] for k in (1, 0)]
    irreducibles, primes = (sum(1 << x for x in range(n) if end.count(x) == 1) for end in ends)
    return "frame", tuple(map(tuple, meet)), tuple(map(tuple, join)), irreducibles, primes


def brute_validate(labels, le):
    """(message, witness) of the first poset law the n x n matrix le breaks, or
    None: a false diagonal entry, then the row-major first pair related both
    ways, then the row-major first pair that le composed with itself relates
    and le does not."""
    n = len(labels)
    for i in range(n):
        if not le[i][i]:
            return f"not reflexive at {labels[i]}", (labels[i],)
    for i in range(n):
        for j in range(n):
            if i != j and le[i][j] and le[j][i]:
                return f"cycle: {labels[i]} <= {labels[j]} and back", (labels[i], labels[j])
    for i in range(n):
        for j in range(n):
            if not le[i][j] and any(le[i][k] and le[k][j] for k in range(n)):
                return f"not transitive: {labels[i]} .. {labels[j]}", (labels[i], labels[j])
    return None
