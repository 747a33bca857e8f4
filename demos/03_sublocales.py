"""S_l(L), its open/closed/complemented members, and the join that is a meet.

On downset frames of small posets every sublocale is complemented, so the
coframe S_l(L) is Boolean with exactly 2^|P| members. The join of two
sublocales is computed as the least sublocale containing the union; the
naive "close the union under joins" reading is falsified here on SQUARE.
"""
from localelab.corpus import square
from localelab.dot import sublocales_dot
from localelab.lattice import set_label
from localelab.sublocales import (
    as_mask,
    enumerate_sublocales,
    is_sublocale,
    join_formula_report,
)


def main():
    fr = square()
    sl = enumerate_sublocales(fr)
    print(f"S_l(SQUARE): {sl.n} sublocales")
    for i in range(sl.n):
        tags = []
        if sl.is_open(i):
            tags.append("open")
        if sl.is_closed(i):
            tags.append("closed")
        if sl.complement(i) is not None:
            tags.append("complemented")
        print(f"  {sl.label(i):12s} {' '.join(tags)}")

    # sublocales are passed as element masks
    left, right = as_mask(fr, ("a", "1")), as_mask(fr, ("b", "1"))
    assert is_sublocale(fr, left).ok and is_sublocale(fr, right).ok
    rep = join_formula_report(fr, (left, right))
    print(f"\njoin of {set_label(fr.labels, left)} and {set_label(fr.labels, right)}:")
    print(f"  meet form (implemented): {rep['meet_form']}")
    print(f"  least containing oracle: {rep['least_containing']}")
    for name, reading in rep["readings"].items():
        why = f" ({reading['reason']})" if reading["status"] == "falsified" else ""
        print(f"  {name} reading {reading['set']}: {reading['status']}{why}")

    # the raw union is usually not a sublocale at all
    union = ("a", "b", "1")
    check = is_sublocale(fr, union)
    print(f"  union {{a,b,1}} a sublocale? {check.ok} "
          f"({check.condition} fails at {check.witness})")

    print("\nDOT of the coframe (pipe into graphviz):")
    print(sublocales_dot(sl))


if __name__ == "__main__":
    main()
