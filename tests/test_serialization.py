from fractions import Fraction
from math import factorial


def test_w_polynomial_monomial_list():
    from hurwitzlab.bm import w_poly
    from hurwitzlab.rationals import rational_to_str

    w = w_poly(1, 1)
    rows = w.to_json()
    assert {"exp": [2], "coeff": "1/24"} in rows
    assert {tuple(r["exp"]): r["coeff"] for r in rows} == {
        e: rational_to_str(c) for e, c in w.terms.items()
    }


def test_hodge_table_export():
    from hurwitzlab.hodge import hodge_integral, hodge_potential

    assert hodge_integral(1, (1,)) == Fraction(1, 24)
    assert hodge_integral(1, (0,)) == Fraction(-1, 24)
    # caps beyond the default potential: <tau_6 tau_0^8> in genus zero,
    # stored in the potential divided by the 8! orderings of the tau_0
    ks = (6,) + (0,) * 8
    assert hodge_integral(0, ks) == 1
    assert hodge_potential(0, 9, 9)[(0, ks)] * factorial(8) == 1
