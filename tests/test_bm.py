import json
from fractions import Fraction

import pytest

from hurwitzlab import bm, harness
from hurwitzlab.bm import (
    bm_step,
    bm_step_projection,
    bm_vs_hurwitz,
    cutjoin_t_check,
    d1d2_h02_diagonal,
    h_poly_from_fit,
    w_from_fit,
    w_invariants,
    w_poly,
)
from hurwitzlab.bm import _w_tilde_series, _working_order
from hurwitzlab.harness import ACCEPTANCE_SET
from hurwitzlab.lambert import kernel_K, poly_to_w_laurent, sigma_z, x_expand
from hurwitzlab.multipoly import MultiPoly
from hurwitzlab.series import Series


def t(i, n):
    return MultiPoly.var(n, i)


def expected_w03():
    n = 3
    out = MultiPoly.const(n, -1)
    for i in range(3):
        out = out * (t(i, n) ** 2 * (1 + t(i, n)))
    return out


def expected_w11():
    # (-3 t^5 - 5 t^4 - t^3 + t^2)/24
    return MultiPoly(
        1,
        {
            (5,): Fraction(-3, 24),
            (4,): Fraction(-5, 24),
            (3,): Fraction(-1, 24),
            (2,): Fraction(1, 24),
        },
    )


def test_two_point_diagonal_closed_form():
    diag = d1d2_h02_diagonal()
    want = MultiPoly(
        1, {(4,): Fraction(1, 4), (3,): Fraction(1, 3), (0,): Fraction(1, 12)}
    )
    assert diag == want


def test_w03_value():
    assert w_poly(0, 3) == expected_w03()


def test_w11_value():
    assert w_poly(1, 1) == expected_w11()


def test_w_from_fit_matches_bm():
    for (g, n) in ACCEPTANCE_SET:
        assert w_poly(g, n) == w_from_fit(g, n), (g, n)


@pytest.mark.parametrize("g", [1, 2])
def test_power_table_evaluation_matches_laurent_composition(g):
    # W_{g,1}(1/sigma) by the residue step's power tables, and by W written
    # in w = 1/t and composed with w = sigma(z); equal through both orders
    w = w_poly(g, 1)
    d = w.degree(0)
    order = d + 2
    sig = sigma_z(order + 2)
    got = bm._at(w, [sig.powers(-d, 0, order)], (), 1)
    want = poly_to_w_laurent(w, order).compose(sig)
    top = min(got.order, want.order)
    assert got.low == want.low == -d and top >= 2
    for k in range(-d, top + 1):
        assert got.coeff(k) == want.coeff(k), k


def test_power_table_evaluation_at_two_tables():
    # W_{0,3}(1/z, 1/z, t): the coefficient of z^-m sums W's terms with
    # p + q = m, as a polynomial in the third variable
    w = w_poly(0, 3)
    table = Series.x(None).powers(-3, 0, None)
    got = bm._at(w, [table, table], (0,), 1)
    want: dict = {}
    for (p, q, r), c in w.terms.items():
        layer = want.setdefault(p + q, {})
        layer[(r,)] = layer.get((r,), 0) + c
    assert got.order is None and (got.low, got.high) == (-6, -4)
    for m in range(8):
        assert got.coeff(-m) == MultiPoly(1, want.get(m, {})), m


def test_three_forms_agree_small():
    for (g, n) in ACCEPTANCE_SET:
        assert all(bm_step(g, n, form) == w_poly(g, n) for form in ("zz", "zs", "ss")), (g, n)


def test_overlap_residue_matches_product_residue():
    # the residue sum at the working order equals the residue of the full
    # product K * W-tilde at the generous order 2(6g+2n-3)+14
    for (g, n, form) in [(0, 3, "zz"), (1, 1, "zs"), (1, 2, "ss")]:
        wide = 2 * (6 * g + 2 * n - 3) + 14
        K, wt = kernel_K(wide, nvars=n), _w_tilde_series(g, n, form, wide)
        want = (K * wt).residue()
        assert K.residue(wt) == want, (g, n, form)
        wt = _w_tilde_series(g, n, form, _working_order(g, n))
        assert kernel_K(-1 - wt.low, nvars=n).residue(wt) == want, (g, n, form)


def test_short_working_order_raises():
    # at order 6 W-tilde_{1,3} is not known through z^-2: the step must
    # refuse instead of returning a wrong polynomial
    wt = _w_tilde_series(1, 3, "zs", 6)
    with pytest.raises(ValueError):
        kernel_K(-1 - wt.low, nvars=3).residue(wt)


def test_projection_route_matches_residue_route():
    for (g, n) in ACCEPTANCE_SET:
        assert bm_step_projection(g, n) == w_poly(g, n), (g, n)


def test_w_invariants_small():
    for (g, n) in [(0, 3), (1, 1), (0, 4), (1, 2)]:
        inv = w_invariants(g, n)
        assert inv["symmetric"], (g, n)
        assert inv["degree_ok"], (g, n)
        assert inv["divisible_by_t_squared"], (g, n)


def test_odd_principal_part_of_w():
    # W_{g,n} + W_{g,n}(sigma-tilde(t1), ...) has no pole at P in t1
    from hurwitzlab.lambert import poly_to_w_laurent, sigma_z

    w = w_poly(1, 1)
    f = poly_to_w_laurent(w, 12)
    sym = f + f.compose(sigma_z(14))
    assert all(sym.coeff(i) == 0 for i in range(f.low, 0))


def test_x_expansion_01_3():
    # coefficient of x1 x2 x3 in W_{0,3} is h(0;1,1,1)/b! * 1*1*1 = 24/24
    got = x_expand(w_poly(0, 3), 2)
    assert got[(1, 1, 1)] == 1


def test_bm_vs_hurwitz_small():
    assert bm_vs_hurwitz(1, 1, 6)["coefficients_checked"] == 6
    assert bm_vs_hurwitz(0, 3, 3)["coefficients_checked"] == 10  # multisets from {1,2,3}^3
    assert bm_vs_hurwitz(0, 3, 3)["mismatch"] is None


def test_x_expansion_mismatch_is_a_fail_row(monkeypatch):
    # a wrong Hurwitz number turns the x-expansion row into a fail row that
    # names the witness instead of raising
    monkeypatch.setattr(bm, "h_connected", lambda g, mu: Fraction(7))
    rows = {row["name"]: row for row in harness.campaign_bm(0, 3, 2)}
    row = rows["w-x-expansion-0-3"]
    assert row["status"] == "fail"
    assert row["lhs"] == "mismatch at mu=(1, 1, 1): x-expansion 1, Hurwitz 7/24"
    assert all(r["status"] == "pass" for name, r in rows.items() if name != row["name"])


def _w_at(monkeypatch, key, value):
    """Make w_poly return ``value`` at (g, n) = ``key`` and W elsewhere."""
    real = bm.w_poly
    monkeypatch.setattr(bm, "w_poly", lambda g, n: value if (g, n) == key else real(g, n))


def test_asymmetric_w_is_a_fail_row(monkeypatch, capsys):
    # the x-expansion reads only sorted exponent tuples, so the symmetry of W
    # is the w-symmetric row's to check
    from hurwitzlab.cli import main

    w = w_poly(0, 3)
    _w_at(monkeypatch, (0, 3), w + t(0, 3) ** 3 * t(1, 3) ** 2 * t(2, 3) ** 2)
    rows = {row["name"]: row for row in harness.campaign_bm(0, 3, 2)}
    assert rows["w-symmetric-0-3"]["status"] == "fail"
    assert main(["bm", "--g", "0", "--n", "3", "--x-order", "2"]) == 1
    captured = capsys.readouterr()
    statuses = {row["name"]: row["status"] for row in json.loads(captured.out)["checks"]}
    assert statuses["w-symmetric-0-3"] == "fail"
    assert captured.err == ""


def test_boundary_coefficient_is_a_witness(monkeypatch):
    # t_i^2 t_j^2 summed over the pairs is symmetric and misses one variable
    # in each term: its x-expansion is 0 at every positive exponent tuple and
    # not at the sorted tuples with a trailing 0
    w = w_poly(0, 3)
    v = [t(i, 3) ** 2 for i in range(3)]
    extra = v[0] * v[1] + v[0] * v[2] + v[1] * v[2]
    _w_at(monkeypatch, (0, 3), w + extra)
    rep = bm_vs_hurwitz(0, 3, 3)
    assert rep["coefficients_checked"] == 10
    g, n, key, got, expected = rep["mismatch"]
    assert (g, n, expected) == (0, 3, 0)
    assert key[-1] == 0 and got == x_expand(extra, 3)[key] != 0
    assert list(key) == sorted(key, reverse=True)


def test_w02_x_expansion_sanity():
    # the x-expansion of W_{0,2} minus the double x-pole equals the mixed
    # second derivative of the unstable two-point function,
    # sum D(a, b) x1^a x2^b with D(a, b) = ab/(a+b) a^a b^b/(a! b!).  On the
    # line x2 = c x1 the x1^n coefficient is sum_{a+b=n} D(a, b) c^b, a
    # polynomial of degree n in c: matching it at n + 1 distinct c checks
    # every D(a, b) with a + b = n (Vandermonde), so a, b <= 6 as before
    from math import factorial

    from hurwitzlab.lambert import t_of_x

    order = 6
    top = 2 * order
    tx = t_of_x(top + 4)

    def D(a, b):
        return Fraction(a * b, a + b) * Fraction(a**a, factorial(a)) * Fraction(b**b, factorial(b))

    checked = set()
    for n in range(top + 1):
        for c in map(Fraction, range(2, n + 3)):
            t2 = Series(tx.low, [t * c**k for k, t in enumerate(tx.coeffs, tx.low)], tx.order)
            w02 = tx**2 * (1 + tx) * t2**2 * (1 + t2) * ((t2 - tx) ** 2).reciprocal(top)
            diff = w02 - c / (c - 1) ** 2  # x1 x2 / (x2 - x1)^2 on the line
            assert diff.order >= top and diff.low >= 0
            want = sum(D(a, n - a) * c ** (n - a) for a in range(1, n))
            assert diff.coeff(n) == want, (n, c)
        checked |= {(a, n - a) for a in range(1, n)}
    assert {(a, b) for a in range(1, order + 1) for b in range(1, order + 1)} <= checked


def test_cutjoin_identity_03_11():
    assert cutjoin_t_check(0, 3)["identity"] == "holds"
    assert cutjoin_t_check(1, 1)["identity"] == "holds"


def test_cutjoin_identity_04_12():
    assert cutjoin_t_check(0, 4)["identity"] == "holds"
    assert cutjoin_t_check(1, 2)["identity"] == "holds"


def test_cutjoin_mismatch_is_a_fail_row(monkeypatch):
    # a doubled join diagonal adds half the diagonal to the (1,1) right side;
    # the row fails and names the lowest monomial of that difference
    diag = d1d2_h02_diagonal()
    lhs = cutjoin_t_check(1, 1)["lhs"]
    monkeypatch.setattr(bm, "d1d2_h02_diagonal", lambda: diag * 2)
    rows = {row["name"]: row for row in harness.campaign_cutjoin()}
    row = rows["cutjoin-identity-1-1"]
    e = min(diag.terms)
    assert row["status"] == "fail"
    want = lhs.coeff(e) + diag.coeff(e) / 2
    assert row["lhs"] == f"mismatch at t^{e}: lhs {lhs.coeff(e)}, rhs {want}"
    others = [r for name, r in rows.items() if name != row["name"]]
    assert len(others) == 3 and all(r["status"] == "pass" and r["lhs"] == "holds" for r in others)


def test_cutjoin_top_degree_layer_04():
    # the highest-degree homogeneous layer is a nontrivial sub-identity
    rep = cutjoin_t_check(0, 4)
    lhs, rhs = rep["lhs"], rep["rhs"]
    top = lhs.total_degree()
    assert top == rhs.total_degree()
    lhs_top = {e: c for e, c in lhs.terms.items() if sum(e) == top}
    rhs_top = {e: c for e, c in rhs.terms.items() if sum(e) == top}
    assert lhs_top and lhs_top == rhs_top


def test_w05_invariants():
    inv = w_invariants(0, 5)
    assert inv["symmetric"] and inv["degree_ok"] and inv["divisible_by_t_squared"]


def test_odd_principal_part_12():
    # symmetrizing the first slot of W_{1,2} kills the pole at the branch point
    from hurwitzlab.lambert import sigma_z
    from hurwitzlab.series import Series
    from fractions import Fraction as F

    w = w_poly(1, 2)
    order = 14
    t1_pows = [Series(0, [F(1)], order)]
    for _ in range(12):
        t1_pows.append(t1_pows[-1] * Series(-1, [F(1)], order))
    f = Series.zero(order)
    for a, coef in enumerate(w.as_poly_in(0)):
        f = f + t1_pows[a] * coef
    sym = f + f.compose(sigma_z(order + 2))
    for i in range(f.low, 0):
        c = sym.coeff(i)
        if not isinstance(c, (int, type(F(0)))):
            assert c.is_zero(), i
        else:
            assert c == 0, i


def test_h_poly_values():
    # H_{1,1} = (1 + t - t^2 - t^3)/24
    h11 = h_poly_from_fit(1, 1)
    want = MultiPoly(
        1,
        {
            (0,): Fraction(1, 24),
            (1,): Fraction(1, 24),
            (2,): Fraction(-1, 24),
            (3,): Fraction(-1, 24),
        },
    )
    assert h11 == want
