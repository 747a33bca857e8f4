"""Brute-force oracles for the fast paths of localelab.

Each function here is the definition the fast path replaced, kept as a scan
over subsets, assignments or all pairs, so that property tests can compare
the two on every small frame.
"""
from itertools import product

from localelab.lattice import bits
from localelab.maps import check_frame_hom
from localelab.sublocales import AdjReport, sloc_core, transfer_of


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


def brute_sublocale_masks(host):
    """Every subset containing the top that is closed under meets and arrows,
    in (cardinality, bit pattern) order."""
    top_bit = 1 << host.top
    rest = [i for i in range(host.n) if i != host.top]
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
            if host.arrows_into[a] & ~mask:
                ok = False
                break
            for b in mem[ii:]:
                if not mask >> host.meet(a, b) & 1:
                    ok = False
                    break
        if ok:
            found.append(mask)
    return sorted(found, key=lambda m: (m.bit_count(), m))


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


def brute_preimage_table(t):
    """Preimage indices of a SublocaleTransfer by the sloc_core fixpoint."""
    f, sl, tl = t.map, t.source_lattice, t.target_lattice
    out = []
    for tm in tl.masks:
        raw = 0
        for x in range(f.source.n):
            if tm >> f(x) & 1:
                raw |= 1 << x
        out.append(sl.index[sloc_core(f.source, raw).mask])
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


def _first_gap(n, le, value_le):
    """Lex-first (i, j) with le(i, j) and not value_le(i, j), or None."""
    for i in range(n):
        for j in range(n):
            if le(i, j) and not value_le(i, j):
                return i, j
    return None


# -- the O(n^2) operator samplers, drawing exactly as the fast ones do ----------


def _below(lat, i):
    return [j for j in range(lat.n) if lat.le(j, i)]


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


def brute_random_table(lat, rng):
    """random_op / random_h table: seed below each index, then close."""
    seed = [rng.choice(_below(lat, i)) for i in range(lat.n)]
    return _closure(lat, seed)


def brute_continuous_table(f, op_m, t, rng):
    """make_continuous_op table for the transfer t of f."""
    sl = t.source_lattice
    base = [sl.bottom] * sl.n
    for j in range(op_m.lattice.n):
        s = t.preimage_table[j]
        base[s] = sl.join(base[s], t.preimage_table[op_m(j)])
    for i in range(sl.n):
        base[i] = sl.join(base[i], rng.choice(_below(sl, i)))
    return _closure(sl, base)
