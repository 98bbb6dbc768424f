import json
from fractions import Fraction

from hurwitzlab.multipoly import MultiPoly
from hurwitzlab.partitions import partition_to_json
from hurwitzlab.series import Series, series_from_json, series_to_json


def test_series_json_roundtrip():
    f = Series(-2, [Fraction(1), Fraction(0), Fraction(-3, 7)], 4)
    data = series_to_json(f)
    assert data["order"] == 4 and data["low"] == -2
    assert all(isinstance(c, str) for c in data["coeffs"])
    assert series_from_json(json.loads(json.dumps(data))) == f
    exact = Series(0, [Fraction(1), Fraction(2)], None)
    assert series_from_json(series_to_json(exact)) == exact


def test_partition_json_largest_first():
    assert partition_to_json((3, 3, 1)) == [3, 3, 1]


def test_w_polynomial_monomial_list():
    from hurwitzlab.bm import w_poly

    w = w_poly(1, 1)
    rows = w.to_json()
    assert {"exp": [2], "coeff": "1/24"} in rows
    assert MultiPoly.from_json(1, rows) == w


def test_hodge_table_export():
    from hurwitzlab.hodge import hodge_table

    rows = hodge_table(gcap=1, ncap=1, kcap=1)
    keyed = {(r["g"], tuple(r["k"])): r["value"] for r in rows}
    assert keyed[(1, (1,))] == "1/24"
    assert keyed[(1, (0,))] == "-1/24"
    # caps beyond the default potential: <tau_6 tau_0^8> in genus zero
    rows = hodge_table(gcap=0, ncap=9, kcap=9)
    assert {"g": 0, "k": [6, 0, 0, 0, 0, 0, 0, 0, 0], "value": "1"} in rows
