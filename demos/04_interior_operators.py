"""Interior operators on S_l(L) and the operator a localic map induces.

The induced operator f_-1 . i_M . f[-] is always monotone seeded from any
target operator, but contraction, the top law, and continuity of f itself
can all fail when the adjunction has unit or counit gaps. Each failure
below is classified against its gap predicate; none is left unexplained.
"""
import random

from localelab.corpus import chain3, child_seed, two
from localelab.interior import (
    check_composition,
    check_interior,
    discrete_op,
    initial_interior,
    make_continuous_op,
    random_op,
    trivial_op,
)
from localelab.maps import localic_map
from localelab.sublocales import enumerate_sublocales


def main():
    sl = enumerate_sublocales(chain3())
    rng = random.Random(child_seed("demo", "interior"))
    op = random_op(sl, rng)
    print("a seeded interior operator on S_l(CHAIN3):")
    for key, val in op.describe().items():
        print(f"  i({key}) = {val}")
    print("  axioms:", check_interior(op).passed)

    f = localic_map(two(), chain3(), (0, 2))
    rep = initial_interior(f, trivial_op(sl))
    print("\ninduced operator of TWO -> CHAIN3 against the trivial target op:")
    for key, val in rep.candidate.describe().items():
        print(f"  i({key}) = {val}")
    print("  axioms:", rep.axioms.passed)
    print("  f continuous for it:", rep.continuity.ok)
    for a in rep.anomalies:
        print(f"  anomaly {a['kind']} at {a['at']}: predicate {a['predicate']}, "
              f"confirmed {a['confirmed']}")
    print("  unexplained:", len(rep.unexplained))

    # composites of continuous maps stay continuous
    g = localic_map(chain3(), chain3(), (0, 1, 2))
    opn = random_op(sl, rng)
    opm = make_continuous_op(g, opn, rng)
    opl = make_continuous_op(f, opm, rng)
    comp = check_composition(f, g, opl, opm, opn)
    print("\ncomposition TWO -> CHAIN3 -> CHAIN3:", comp.status)


if __name__ == "__main__":
    main()
