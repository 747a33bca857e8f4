"""Localic maps are right adjoints of frame homs, and the adjoint is the test.

Every frame hom CHAIN3 -> SQUARE is enumerated; each right adjoint is a
localic map held as its map of points, and the left-adjoint round trip
recovers the hom exactly. A table whose value at 0 is not the meet of its
values at the points is rejected with a witness at 0.
"""
from localelab.corpus import chain3, square
from localelab.errors import NotLocalic
from localelab.maps import enumerate_frame_homs, localic_map, right_adjoint
from localelab.sublocales import check_adjunction


def main():
    src, tgt = chain3(), square()
    homs = enumerate_frame_homs(src, tgt)
    print(f"frame homs CHAIN3 -> SQUARE: {len(homs)}")
    for table in homs:
        f = right_adjoint(src, tgt, table)
        back = f.adjoint
        adj = check_adjunction(f)
        print(f"  hom {table} -> localic {f.table}, round trip "
              f"{'exact' if back.table == table else 'DIFFERS'}, "
              f"adjunction over {adj.pairs} sublocale pairs: {adj.ok}")

    print("\nrejection demo: SQUARE -> CHAIN3 sending a, b to m")
    try:
        localic_map(square(), chain3(), (0, 1, 1, 2))
    except NotLocalic as exc:
        print(f"  NotLocalic: {exc} (witness {exc.witness})")


if __name__ == "__main__":
    main()
