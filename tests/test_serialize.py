"""JSON round trips, file loading, and DOT export."""
import json

import pytest

from localelab.corpus import chain3, chain4, corpus_frames, corpus_posets, sierpinski, square, two
from localelab.dot import hasse_dot, sublocales_dot
from localelab.errors import NotDistributive, SizeLimit
from localelab.hops import HOperator, complemented_fragment, random_h, trivial_h
from localelab.interior import InteriorOperator, random_op
from localelab.maps import localic_map
from localelab.corpus import child_seed
from localelab.serialize import (
    frame_from_json,
    frame_to_json,
    load_localic_map,
    load_operator,
    load_point_map,
    load_structure,
    localic_map_to_json,
    operator_from_json,
    operator_to_json,
    point_map_to_json,
    poset_from_json,
    poset_to_json,
    save_json,
    space_from_json,
    space_to_json,
    sub_key,
    sub_mask,
    sublocales_to_json,
)
from localelab.points import sobrification
from localelab.sublocales import enumerate_sublocales

import random


def test_poset_and_frame_round_trip():
    for p in corpus_posets(4):
        assert poset_from_json(poset_to_json(p)) == p
    for _, fr in corpus_frames(4):
        back = frame_from_json(frame_to_json(fr))
        assert back == fr
        assert back.imp_table == fr.imp_table


def test_frame_json_shape():
    assert frame_to_json(chain3()) == {
        "elements": ["0", "m", "1"],
        "le": [["0", "m"], ["m", "1"]],
    }


def test_frame_from_json_rejects_non_frames():
    # the 2x2 diamond with an extra incomparable atom has no join for (a, c)
    with pytest.raises(Exception):
        frame_from_json({"elements": ["a", "b"], "le": [["a", "b"], ["b", "a"]]})
    with pytest.raises(NotDistributive):
        frame_from_json(
            {
                "elements": ["0", "a", "b", "c", "1"],
                "le": [["0", "a"], ["0", "b"], ["0", "c"], ["a", "1"], ["b", "1"], ["c", "1"]],
            }
        )


def test_space_round_trip():
    for sp in (sierpinski(),):
        assert space_from_json(space_to_json(sp)) == sp
    assert space_to_json(sierpinski()) == {
        "points": ["x", "y"],
        "opens": [[], ["x"], ["x", "y"]],
    }


def test_sub_key_forms():
    fr = chain3()
    sl = enumerate_sublocales(fr)
    assert sub_key(fr, sl.masks[1]) == "0,1"
    assert sub_mask(fr, "0,1") == sl.masks[1]
    # labels containing commas switch to the array-string form
    frd = next(f for _, f in corpus_frames(3) if any("," in lab for lab in f.labels))
    m = 1 << frd.index[next(lab for lab in frd.labels if "," in lab)]
    key = sub_key(frd, m)
    assert key.startswith("[") and sub_mask(frd, key) == m
    with pytest.raises(ValueError):
        sub_mask(fr, "0,zz")
    with pytest.raises(ValueError):
        sub_mask(fr, "[0, 1]")


def test_operator_file_round_trip(tmp_path):
    save_json(tmp_path / "chain3.json", frame_to_json(chain3()))
    sl = enumerate_sublocales(chain3())
    rng = random.Random(child_seed("serialize-op"))
    op = random_op(sl, rng)
    save_json(tmp_path / "op.json", operator_to_json(op, "chain3.json"))
    back = load_operator(str(tmp_path / "op.json"))
    assert isinstance(back, InteriorOperator)
    assert back.table == op.table and back.lattice.host == chain3()

    h = random_h(complemented_fragment(sl), rng)
    js = operator_to_json(h, "chain3.json")
    assert js["fragment"] is True
    save_json(tmp_path / "h.json", js)
    hback = load_operator(str(tmp_path / "h.json"))
    assert isinstance(hback, HOperator) and hback.table == h.table


def test_operator_table_validation():
    fr = chain3()
    sl = enumerate_sublocales(fr)
    js = operator_to_json(trivial_h(complemented_fragment(sl)), "x")
    del js["table"]["1"]
    with pytest.raises(ValueError):
        operator_from_json(js, fr)
    with pytest.raises(ValueError):
        operator_from_json({"table": {"0": "1"}}, fr)


def test_localic_map_file_round_trip(tmp_path):
    save_json(tmp_path / "two.json", frame_to_json(two()))
    save_json(tmp_path / "chain3.json", frame_to_json(chain3()))
    f = localic_map(two(), chain3(), (0, 2))
    save_json(
        tmp_path / "map.json", localic_map_to_json(f, "two.json", "chain3.json")
    )
    back = load_localic_map(str(tmp_path / "map.json"))
    assert back.table == f.table
    assert back.source == two() and back.target == chain3()
    assert back.adjoint.table == f.adjoint.table


def test_point_map_file_round_trip(tmp_path):
    s = sobrification(sierpinski())
    save_json(tmp_path / "sierp.json", space_to_json(s.source))
    save_json(tmp_path / "pt.json", space_to_json(s.target))
    save_json(tmp_path / "pm.json", point_map_to_json(s, "sierp.json", "pt.json"))
    back = load_point_map(str(tmp_path / "pm.json"))
    assert back.point_table == s.point_table


def test_load_structure_detects_kind(tmp_path):
    save_json(tmp_path / "fr.json", frame_to_json(square()))
    save_json(tmp_path / "sp.json", space_to_json(sierpinski()))
    assert load_structure(str(tmp_path / "fr.json")) == square()
    assert load_structure(str(tmp_path / "sp.json")) == sierpinski()


def test_sublocales_json_shape():
    js = sublocales_to_json(enumerate_sublocales(chain3()))
    assert js["count"] == 4
    assert js["sublocales"][0] == {
        "members": ["1"],
        "open": True,
        "closed": True,
        "complemented": True,
    }
    assert js["sublocales"][1]["members"] == ["0", "1"]
    assert json.loads(json.dumps(js)) == js


def test_hasse_dot():
    dot = hasse_dot(chain3())
    assert '"0" -> "m";' in dot and '"m" -> "1";' in dot
    assert '"0" -> "1"' not in dot  # covers only
    assert "{ rank=min; \"0\"; }" in dot
    assert dot == hasse_dot(chain3())
    assert hasse_dot(chain3().poset).count("->") == 2
    with pytest.raises(TypeError):
        hasse_dot("not a poset")


def test_sublocales_dot():
    sl = enumerate_sublocales(chain3())
    dot = sublocales_dot(sl)
    assert '"{1}" [style=filled, fillcolor=plum];' in dot
    assert '"{0,1}" [style=filled, fillcolor=palegreen];' in dot
    assert '"{m,1}" [style=filled, fillcolor=lightblue];' in dot
    assert dot.count("->") == 4


def test_sublocales_dot_edges_and_ranks_match_order_scans():
    """The DOT edges are the covers, and its rank rows the heights, of the
    inclusion order on sublocale masks, found by scans over all pairs and
    triples; on every corpus-4 frame and the fixtures."""
    for fr in [f for _, f in corpus_frames(4)] + [two(), chain3(), chain4(), square()]:
        sl = enumerate_sublocales(fr, 16)
        n, masks, labels = sl.n, sl.masks, sl.labels

        def lt(i, j):
            return i != j and not masks[i] & ~masks[j]

        covers = [(i, j) for i in range(n) for j in range(n)
                  if lt(i, j) and not any(lt(i, k) and lt(k, j) for k in range(n))]
        height = {}
        for i in sorted(range(n), key=lambda i: masks[i].bit_count()):
            height[i] = 1 + max((height[j] for j in range(n) if lt(j, i)), default=-1)
        ranks = []
        for h in sorted(set(height.values())):
            row = " ".join(f'"{labels[i]}";' for i in range(n) if height[i] == h)
            ranks.append(f"  {{ rank={'min' if h == 0 else 'same'}; {row} }}")

        lines = sublocales_dot(sl).splitlines()
        assert [ln for ln in lines if "->" in ln] == [
            f'  "{labels[i]}" -> "{labels[j]}";' for i, j in covers]
        assert [ln for ln in lines if "rank=" in ln] == ranks


def test_sublocales_dot_size_guard():
    # an 8-chain has 2^7 sublocales, past the export bound
    labels = [str(i) for i in range(8)]
    chain8 = frame_from_json(
        {"elements": labels, "le": [[labels[i], labels[i + 1]] for i in range(7)]}
    )
    sl = enumerate_sublocales(chain8)
    with pytest.raises(SizeLimit):
        sublocales_dot(sl)
