import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from hurwitzlab.lambert import (
    apply_D,
    eta_series,
    kernel_K,
    kernel_alt_form,
    lemma2_check,
    odd_projection,
    poly_to_w_laurent,
    rho_poly,
    root_coordinate,
    sigma_tilde_w,
    sigma_z,
    t_of_x,
    x_expand,
    y_of_x,
)
from hurwitzlab.multipoly import MultiPoly
from hurwitzlab.rationals import double_factorial, factorial
from hurwitzlab.series import Series, exp_series, log1p_series


def eq_through(a: Series, b: Series, lo: int, hi: int) -> bool:
    """Compare coefficients on an exponent window (raises past validity)."""
    return all(a.coeff(k) == b.coeff(k) for k in range(lo, hi + 1))


SIGMA_COEFFS = {
    1: Fraction(-1),
    2: Fraction(2, 3),
    3: Fraction(-4, 9),
    4: Fraction(44, 135),
    5: Fraction(-104, 405),
    6: Fraction(40, 189),
}


def test_sigma_printed_expansion():
    s = sigma_z(6)
    for k, c in SIGMA_COEFFS.items():
        assert s.coeff(k) == c, k


def test_sigma_satisfies_defining_equation():
    # sigma comes from the root coordinate, so this checks it independently.
    # F(s) = (1+s)e^{-s} has F'(sigma) = O(z), so F(sigma) through z^(order+1)
    # depends on sigma only through z^order: a zero z^(order+1) term is as
    # good as the true one, and the last claimed coefficient is checked too
    for order in (2, 10, 28):
        s = sigma_z(order)
        top = order + 1
        s = Series(s.low, s.coeffs, top)
        e = exp_series(top)
        lhs = (1 + Series.x(top)) * e.compose(-Series.x(top))
        rhs = (1 + s) * e.compose(-s)
        assert eq_through(lhs, rhs, 0, top), order


@pytest.mark.parametrize("order", [2, 3, 7, 16])
def test_sigma_claims_exactly_its_order(order):
    assert sigma_z(order).order == order


@pytest.mark.parametrize("order", [1, 2, 5, 12])
def test_root_coordinate_squares_to_the_curve(order):
    zeta = root_coordinate(order)
    z = Series.x(order + 1)
    # zeta^2 = 2(z - log(1+z)) through z^(order + 1), the order zeta^2 claims
    square = zeta * zeta
    assert square.order == order + 1
    assert eq_through(square, (z - log1p_series(order + 1)) * 2, 0, order + 1)
    assert zeta.order == order and zeta.coeff(1) == 1


def test_sigma_is_an_involution():
    order = 8
    s = sigma_z(order)
    assert eq_through(s.compose(s), Series.x(order), 1, order)


def test_sigma_tilde_printed_expansion():
    st = sigma_tilde_w(5)
    assert st.coeff(-1) == -1
    assert st.coeff(0) == Fraction(-2, 3)
    assert st.coeff(1) == 0
    assert st.coeff(2) == Fraction(-4, 135)
    assert st.coeff(3) == Fraction(8, 405)
    assert st.coeff(4) == Fraction(-8, 567)


def test_eta_series():
    e = eta_series(6)
    assert e.coeff(1) == -2
    assert e.coeff(3) == Fraction(-4, 9)
    # odd under the deck transformation: eta(t) + eta(sigma-tilde(t)) = 0
    s = sigma_z(10)
    sym = e + e.compose(s)
    assert all(sym.coeff(k) == 0 for k in range(1, 7))


def test_rho_polynomials():
    t = MultiPoly.var(1, 0)
    assert rho_poly(0) == -1 - t
    assert rho_poly(1) == -(t**3) - t**2
    assert rho_poly(2) == -3 * t**5 - 5 * t**4 - 2 * t**3
    for k in range(0, 7):
        p = rho_poly(k)
        assert p.coeff((k + 1,)) == -factorial(k)
        assert p.coeff((2 * k + 1,)) == -double_factorial(2 * k - 1)
        assert p.degree(0) == 2 * k + 1


def test_y_of_x_and_inverse_composition():
    order = 8
    y = y_of_x(order)
    assert y.coeff(1) == 1 and y.coeff(3) == Fraction(3, 2)
    # x(t(x)) = y e^{-y} evaluated on y(x) gives back x
    x_back = y * exp_series(order).compose(-y)
    assert eq_through(x_back, Series.x(order), 0, order)


def test_x_expand_rho():
    order = 7
    for k in range(0, 4):
        got = x_expand(rho_poly(k), order)
        for m in range(1, order + 1):
            assert got[(m,)] == Fraction(m ** (m + k), factorial(m)), (k, m)


def test_x_expand_first_terms():
    got = x_expand(rho_poly(0), 3)
    assert got[(1,)] == 1
    assert got[(2,)] == 2
    assert got[(3,)] == Fraction(9, 2)
    # same expansion from the raw -1 - t representation
    raw = MultiPoly(1, {(0,): -1, (1,): -1})
    assert x_expand(raw, 3) == got


def test_field_duality_D_vs_x_ddx():
    order = 7
    for k in range(0, 6):
        lhs = x_expand(apply_D(rho_poly(k), 0), order)
        rhs = x_expand(rho_poly(k), order)
        # x d/dx multiplies the x^m coefficient by m
        for m in range(1, order + 1):
            assert lhs.get((m,), 0) == m * rhs.get((m,), 0), (k, m)


def test_lemma2_no_pole_at_P():
    results = lemma2_check(5)
    for k, r in results.items():
        assert r["holomorphic_at_P"], (k, r)


@pytest.mark.parametrize("k_max", range(1, 7))
def test_lemma2_raises_with_sigma_one_order_short(monkeypatch, k_max):
    from hurwitzlab import lambert

    assert all(r["holomorphic_at_P"] for r in lemma2_check(k_max).values())
    monkeypatch.setattr(lambert, "sigma_z", lambda order: sigma_z(order - 1))
    with pytest.raises(ValueError, match="beyond validity order"):
        lemma2_check(k_max)


def test_lemma2_k0_value():
    # rho_0 + rho_0(sigma-tilde) = -2 - (t + sigma-tilde(t)) = -4/3 + O(1/t^2)
    f = poly_to_w_laurent(rho_poly(0), 8)
    sym = f + f.compose(sigma_z(10))
    assert sym.coeff(0) == Fraction(-4, 3)
    assert all(sym.coeff(i) == 0 for i in range(-8, 0))


def test_odd_projection_annihilates_odd_input():
    # eta itself is odd: projection of eta * (anything even in w alone) ... use f = eta
    f = eta_series(10)
    assert odd_projection(f, 8) == {}


def test_odd_projection_of_leading_pole():
    # f = -2/t1: symmetrization with eta-division gives no t^2-or-higher terms
    f = Series(-1, [Fraction(-2)], 8)
    assert odd_projection(f, 8) == {}


def test_odd_projection_stability_two_orders():
    f = poly_to_w_laurent(rho_poly(1), 10) * Series(3, [Fraction(1)], 10)
    # rho_1(t1) * (1/t1^3) as w-Laurent
    a = odd_projection(f.truncate(8), 8)
    b = odd_projection(f.truncate(10), 10)
    assert a == b


def test_kernel_leading_coefficients():
    K = kernel_K(6)
    t = MultiPoly.var(1, 0)
    assert K.coeff(0) == MultiPoly.zero(1) or K.coeff(0) == 0
    expected = t**2 * (1 + t) * Fraction(1, 2)
    assert K.coeff(1) == expected
    assert expected.degree(0) == 3


def test_kernel_two_forms_agree_up_to_orientation():
    # the one-sheet residue assembly equals minus the closed kernel, so both
    # compute the same odd projection (with +res and -res respectively)
    K1 = kernel_K(6)
    K2 = kernel_alt_form(6)
    for j in range(0, 7):
        a, b = K1.coeff(j), K2.coeff(j)
        if isinstance(a, (int, Fraction)):
            a = MultiPoly.const(1, a)
        if isinstance(b, (int, Fraction)):
            b = MultiPoly.const(1, b)
        assert a == -b, j


def test_t_of_x_constant():
    t = t_of_x(5)
    assert t.coeff(0) == -1
    assert t.coeff(1) == -1


def _x_expand_by_series(poly: MultiPoly, order: int) -> dict:
    """x_expand term by term in Fractions: each t_i^e is the Series power
    t(x)^e, read at every non-increasing exponent tuple."""
    tx = t_of_x(order)
    pows = {e: tx**e for term in poly.terms for e in term}
    out = {}
    for key in product(range(order + 1), repeat=poly.nvars):
        if list(key) != sorted(key, reverse=True):
            continue
        c = sum(coef * prod((pows[e].coeff(m) for e, m in zip(term, key)), start=Fraction(1))
                for term, coef in poly.terms.items())
        if c:
            out[key] = c
    return out


def test_x_expand_matches_the_series_substitution():
    # seeded polynomials with mixed denominators, against Fraction arithmetic
    rng = random.Random(6)
    cases = []
    for n in range(1, 4):
        for _ in range(4):
            terms = {tuple(rng.randint(0, 4) for _ in range(n)):
                     Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 7, 12]))
                     for _ in range(rng.randint(1, 5))}
            cases.append(MultiPoly(n, terms))
    # 2(1 + t)/3 = -2x/3 - ...: the constant terms cancel, so (0,) is absent
    cases.append(MultiPoly(1, {(0,): Fraction(2, 3), (1,): Fraction(2, 3)}))
    for poly in cases:
        for order in (1, 4, 6):
            want = _x_expand_by_series(poly, order)
            assert x_expand(poly, order) == want, (poly, order)
    assert (0,) not in x_expand(cases[-1], 6)
