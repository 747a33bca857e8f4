"""h operators are checked through their cores S cap h(S).

S_l(L) of a finite frame is Boolean, so every sublocale is complemented and
h operators are tables over all of S_l, like interior operators. Contractive
h operators and interior operators are interchangeable through the lift and
its inverse. Two things are shown that the symmetric story would not
predict: h1 holds vacuously-or-really for every table, and the discrete
operator is not the largest h operator, only the largest contractive one.
"""
from localelab.corpus import chain3
from localelab.hops import (
    HOperator,
    check_h,
    complemented_fragment,
    discrete_h,
    h_from_interior,
    interior_from_h,
    trivial_h,
)
from localelab.interior import discrete_op, op_le
from localelab.sublocales import enumerate_sublocales


def main():
    sl = enumerate_sublocales(chain3())
    complemented_fragment(sl)  # raises unless every sublocale is complemented
    print(f"S_l(CHAIN3): {sl.n} sublocales, all complemented")

    disc = discrete_h(sl)
    triv = trivial_h(sl)
    print("discrete axioms:", check_h(disc).passed)
    print("trivial axioms:", check_h(triv).passed)

    lifted = h_from_interior(discrete_op(sl))
    print("lift of the discrete interior op equals discrete h:",
          lifted.table == disc.table)
    print("round trip interior -> h -> interior is exact:",
          interior_from_h(lifted).table == discrete_op(sl).table)

    # constant-top is a valid h operator strictly above discrete; its core
    # S cap L = S is the discrete interior operator
    const_top = HOperator(sl, tuple(sl.top for _ in range(sl.n)))
    rep = check_h(const_top)
    print("\nconstant-top table axioms:", rep.passed)
    print("core of constant-top equals discrete:", const_top.core.table == disc.table)
    print("discrete <= constant-top:", op_le(disc, const_top))
    print("constant-top <= discrete:", op_le(const_top, disc))


if __name__ == "__main__":
    main()
