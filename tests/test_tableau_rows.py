"""The tableau listings and witness pairs: their JSON is pinned byte for
byte, and the tableaux share rows that never change."""

import hashlib
import json

from qschur import (
    CompositionTableau,
    SkewShape,
    SkewTableau,
    enumerate_compositions,
    enumerate_partitions,
    enumerate_sct,
    enumerate_skew_shapes,
    enumerate_syt,
    multiplicity_witnesses,
)
from qschur.classify import _witness_json


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


def _listing(tableaux) -> str:
    return json.dumps([t.to_json_obj() for t in tableaux])


def test_tableau_and_witness_json_is_pinned():
    # sha256 of one JSON line per instance, in enumeration order.  The
    # digests pin the order and values of the walks, the JSON of the
    # tableau listings and of the witness pairs.  About 0.4 s.
    partitions = [SkewShape(lam) for lam in enumerate_partitions(10)]
    assert _digest(_listing(enumerate_syt(s)) for s in partitions) == (
        "5ece003ad4792738d488fdf8e0cbaf578d6734fdf85bab8789979e85f789f707"
    )
    assert _digest(_listing(enumerate_syt(s)) for s in enumerate_skew_shapes(6)) == (
        "880f675a696d94aff627f230cc2dc034e72246f5493074b66b4043dfbaedd52e"
    )
    assert _digest(_listing(enumerate_sct(a)) for a in enumerate_compositions(8)) == (
        "7ddd8c6d5a8b4d907458e36eac0064b156b3ef20df86d6562de8c2687a22db69"
    )
    witnesses = (
        json.dumps([_witness_json(w) for w in multiplicity_witnesses(SkewShape(lam))])
        for lam in enumerate_partitions(11)
    )
    assert _digest(witnesses) == (
        "abc7f3104c42f48689bd7c21a8594cfdc2cdfc1bd2b1efa3d58acaa5da196750"
    )


def _padded(t: SkewTableau) -> list:
    ivs = t.shape.row_intervals()
    return [[None] * a + list(row) for row, (a, _) in zip(t.rows, ivs)]


def test_tableaux_keep_their_rows_after_the_walk():
    shapes = [s for n in range(0, 7) for s in enumerate_skew_shapes(n)]
    shapes += [SkewShape(lam) for lam in enumerate_partitions(8)]
    for shape in shapes:
        tableaux = list(enumerate_syt(shape))
        for t in tableaux:
            assert type(t.rows) is tuple
            assert all(type(row) is tuple for row in t.rows)
            assert t == SkewTableau(shape, t.rows)
        assert len(set(tableaux)) == len(tableaux)
    for n in range(0, 8):
        for alpha in enumerate_compositions(n):
            tableaux = list(enumerate_sct(alpha))
            for t in tableaux:
                assert type(t.rows) is tuple
                assert all(type(row) is tuple for row in t.rows)
                assert t == CompositionTableau(t.rows)
                assert t.shape == alpha
            assert len(set(tableaux)) == len(tableaux)
    for source in [SkewShape((3, 2, 1)), SkewShape((4, 3, 1), (1,)), (2, 2, 4)]:
        for _, a, b in multiplicity_witnesses(source):
            for t in (a, b):
                if isinstance(t, SkewTableau):
                    assert t == SkewTableau(source, t.rows)
                else:
                    assert t == CompositionTableau(t.rows)


def test_json_is_padded_and_fresh():
    shapes = [SkewShape(), SkewShape((3, 1)), SkewShape((3, 2, 2), (2, 1))]
    shapes += [SkewShape((2,), (1,)), SkewShape((4, 1), (1,))]
    for shape in shapes:
        for t in enumerate_syt(shape):
            rows = t.rows
            obj = t.to_json_obj()
            assert obj == _padded(t)
            for row in obj:
                row.append(0)
            obj.append([])
            assert t.rows is rows
            assert t.to_json_obj() == _padded(t)
    for alpha in [(), (1,), (2, 1, 3)]:
        for t in enumerate_sct(alpha):
            rows = t.rows
            obj = t.to_json_obj()
            assert obj == [list(row) for row in rows]
            for row in obj:
                row.append(0)
            obj.append([])
            assert t.rows is rows
            assert t.to_json_obj() == [list(row) for row in rows]
