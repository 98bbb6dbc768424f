import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hurwitzlab.multipoly import MultiPoly
from hurwitzlab.series import (
    Series,
    bernoulli_exponent_series,
    exp_series,
    log1p_series,
    zeta_series,
)


def eq_through(a: Series, b: Series, lo: int, hi: int) -> bool:
    """Compare coefficients on an exponent window (raises past validity)."""
    return all(a.coeff(k) == b.coeff(k) for k in range(lo, hi + 1))


def test_zeta_series_printed_terms():
    z3 = zeta_series(3)
    assert z3.coeff(1) == 1
    assert z3.coeff(2) == 0
    assert z3.coeff(3) == Fraction(1, 24)
    assert zeta_series(1) == Series.x(1)


def test_zeta_reciprocal_laurent():
    inv = zeta_series(5).reciprocal()
    assert inv.low == -1
    assert inv.coeff(-1) == 1
    assert inv.coeff(1) == Fraction(-1, 24)
    assert inv.coeff(3) == Fraction(7, 5760)


def test_order_tracking_is_conservative():
    f = Series(0, [1, 1], order=4)
    g = Series(0, [1, 2, 3], order=2)
    assert (f + g).order == 2
    assert (f * g).order == 2  # min(4+0, 2+0)
    with pytest.raises(ValueError):
        (f * g).coeff(3)


def test_terms_past_the_validity_order_are_dropped():
    # a series whose lowest stored exponent is past its order is zero there
    f = Series(5, [1] * 6, 3)
    assert f.is_zero() and f.coeffs == []
    assert f == Series.zero(3)


def test_mul_order_uses_low_exponent_shift():
    f = Series(2, [1, 1], order=5)  # z^2 + z^3, valid to z^5
    g = Series(0, [1, 1], order=3)
    assert (f * g).order == 5  # min(5+0, 3+2)


def test_compose_examples():
    f = Series(0, [0, 0, 1], order=4)  # z^2
    g = Series(0, [0, 2], order=4)  # 2z
    assert f.compose(g).coeff(2) == 4
    # exp(log(1+z)) == 1 + z
    e = exp_series(6)
    l = log1p_series(6)
    c = e.compose(l)
    assert c.coeff(0) == 1 and c.coeff(1) == 1
    assert all(c.coeff(k) == 0 for k in range(2, 7))
    # zeta(2z) = 2z + z^3/3
    zz = zeta_series(3).compose(Series(0, [0, 2], order=3))
    assert zz.coeff(1) == 2 and zz.coeff(3) == Fraction(1, 3)


def test_compose_rejects_constant_term():
    with pytest.raises(ValueError):
        exp_series(3).compose(Series(0, [1, 1], order=3))


def test_compose_laurent_f_with_an_exact_g_of_two_terms():
    # 1/(z + z^2) is read only as far as f = 1/z + O(z^0) decides: z^-1
    got = Series(-1, [1], -1).compose(Series(1, [1, 1], None))
    assert got == Series(-1, [Fraction(1)], -1)
    got = Series(-2, [1, 0, 0], 0).compose(Series(1, [1, 1], None))
    assert got == Series(-2, [Fraction(1), Fraction(-2), Fraction(3)], 0)


def test_reverse_lambert_coefficients():
    # inverse of y e^{-y} is sum mu^{mu-1}/mu! x^mu
    y = Series.x(5)
    f = y * exp_series(5).compose(-y)
    g = f.reverse()
    assert g.coeff(1) == 1
    assert g.coeff(2) == 1
    assert g.coeff(3) == Fraction(3, 2)
    assert g.coeff(4) == Fraction(8, 3)
    assert g.coeff(5) == Fraction(125, 24)


def test_reverse_identity_and_moebius():
    assert Series.x(6).reverse() == Series.x(6)
    # z/(1-z) inverts to z/(1+z)
    f = Series(1, [Fraction(1)] * 6, 6)  # z + z^2 + ...
    g = f.reverse()
    for k in range(1, 7):
        assert g.coeff(k) == Fraction((-1) ** (k - 1))


def test_reverse_at_the_orders_the_program_uses():
    from math import factorial

    from hurwitzlab.lambert import root_coordinate

    # the tree function: x e^{-x} inverts to sum m^(m-1)/m! x^m
    x = Series.x(24)
    tree = (x * exp_series(24).compose(-x)).reverse()
    assert tree.order == 24
    assert tree.coeffs == [Fraction(m ** (m - 1), factorial(m)) for m in range(1, 25)]
    zeta = root_coordinate(28)
    assert zeta.reverse().reverse() == zeta


def test_exp_log_printed_r_series():
    r = bernoulli_exponent_series(3).exp()
    assert r.coeff(0) == 1
    assert r.coeff(1) == Fraction(1, 12)
    assert r.coeff(2) == Fraction(1, 288)
    assert r.coeff(3) == Fraction(-139, 51840)


def test_exp_of_an_exact_series_needs_an_order():
    # exp(z) is not the polynomial 1 + z
    with pytest.raises(ValueError):
        Series.x().exp()
    assert Series.zero().exp() == Series.const(Fraction(1))


def test_residue_examples():
    assert Series(-1, [1], None).residue() == 1
    assert zeta_series(4).reciprocal().residue() == 1
    f = Series(-2, [1, 2, 1], None)  # z^{-2}(1+z)^2
    assert f.residue() == 2


@given(
    st.integers(-4, 2),
    st.lists(st.integers(-5, 5), min_size=1, max_size=6),
    st.integers(-4, 2),
    st.lists(st.integers(-5, 5), min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_residue_of_a_product_without_forming_it(la, a, lb, b):
    fa = Series(la, [Fraction(c) for c in a], None)
    fb = Series(lb, [Fraction(c) for c in b], None)
    assert fa.residue(fb) == (fa * fb).residue()


def test_residue_of_a_product_raises_past_the_order():
    f = Series(1, [Fraction(1)], 2)  # z + O(z^3)
    with pytest.raises(ValueError):
        f.residue(Series(-4, [Fraction(1)], None))  # needs the z^3 term of f


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=7))
@settings(max_examples=60, deadline=None)
def test_reverse_is_an_involution(coeffs):
    if coeffs[0] == 0:
        coeffs[0] = 1
    order = len(coeffs)
    f = Series(1, [Fraction(c) for c in coeffs], order)
    g = f.reverse()
    assert eq_through(g.reverse(), f, 1, order)


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=7))
@settings(max_examples=60, deadline=None)
def test_exp_log_roundtrip(coeffs):
    order = len(coeffs)
    f = Series(1, [Fraction(c) for c in coeffs], order)
    assert eq_through(f.exp().log(), f, 0, order)


@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=6),
    st.lists(st.integers(-5, 5), min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_residue_is_linear(a, b):
    n = max(len(a), len(b))
    fa = Series(-2, [Fraction(c) for c in a], n)
    fb = Series(-2, [Fraction(c) for c in b], n)
    assert (fa + fb).residue() == fa.residue() + fb.residue()


def test_reciprocal_claims_only_what_the_input_decides():
    f = Series(2, [Fraction(1), Fraction(1)], 3)  # z^2 + z^3 + O(z^4)
    inv = f.reciprocal(2)
    assert inv.order == -1  # not O(z^3): z^0 depends on the unknown z^4 term
    assert inv.coeff(-2) == 1 and inv.coeff(-1) == -1
    with pytest.raises(ValueError):
        inv.coeff(0)


@given(
    st.integers(-2, 2),
    st.lists(st.integers(-5, 5), min_size=1, max_size=5),
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    st.integers(-4, 8),
)
@settings(max_examples=80, deadline=None)
def test_reciprocal_ignores_coefficients_past_the_order(low, coeffs, tail, order):
    if coeffs[0] == 0:
        coeffs[0] = 1
    known = low + len(coeffs) - 1
    f = Series(low, [Fraction(c) for c in coeffs], known)
    g = Series(low, [Fraction(c) for c in coeffs + tail], None)  # one completion of f
    inv_f = f.reciprocal(order)
    assert eq_through(inv_f, g.reciprocal(order), -low, inv_f.order)


@given(
    st.integers(-3, 3),
    st.lists(st.integers(-5, 5), min_size=1, max_size=5),
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    st.integers(-3, 3),
    st.lists(st.integers(-5, 5), min_size=1, max_size=5),
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_product_ignores_coefficients_past_either_order(la, a, ta, lb, b, tb, b_exact):
    f = Series(la, [Fraction(c) for c in a], la + len(a) - 1)
    f_full = Series(la, [Fraction(c) for c in a + ta], None)  # one completion of f
    if b_exact:
        g = g_full = Series(lb, [Fraction(c) for c in b], None)
    else:
        g = Series(lb, [Fraction(c) for c in b], lb + len(b) - 1)
        g_full = Series(lb, [Fraction(c) for c in b + tb], None)
    prod = f * g
    assert eq_through(prod, f_full * g_full, la + lb, prod.order)


def _known_and_completed(low, a, tail):
    """f known through its last stored power, and one completion of f known
    further (a finite order, since exp and log need one)."""
    f = Series(low, [Fraction(c) for c in a], low + len(a) - 1)
    full = Series(low, [Fraction(c) for c in a + tail], low + len(a + tail) - 1)
    return f, full


def _agree_where_claimed(res, full):
    """res never claims a coefficient that completing its input changes."""
    if res.order is None:
        assert res == full
    else:
        assert eq_through(res, full, min(res.low, full.low), res.order)


_coeffs = st.lists(st.integers(-5, 5), min_size=1, max_size=5)
_tail = st.lists(st.integers(-5, 5), min_size=1, max_size=4)


@given(st.integers(-2, 2), _coeffs, _tail, st.integers(-2, 3))
@settings(max_examples=80, deadline=None)
def test_pow_ignores_coefficients_past_the_order(low, a, ta, n):
    a[0] = a[0] or 1
    f, f_full = _known_and_completed(low, a, ta)
    _agree_where_claimed(f**n, f_full**n)


@given(
    st.integers(-2, 3), _coeffs, _tail,
    st.integers(1, 2), _coeffs, _tail, st.booleans(),
)
# a zero inner series: the completed f = z^4 + O(z^5) at O(z^3) must claim
# at least as far as O(z^4) at O(z^2) does
@example(la=3, a=[0], ta=[1], lb=1, b=[0], tb=[0], g_exact=False)
@settings(max_examples=80, deadline=None)
def test_compose_ignores_coefficients_past_either_order(la, a, ta, lb, b, tb, g_exact):
    f, f_full = _known_and_completed(la, a, ta)
    if g_exact:
        g = g_full = Series(lb, [Fraction(c) for c in b], None)
    else:
        g, g_full = _known_and_completed(lb, b, tb)
    if g.is_zero() and (f.low < 0 if not f.is_zero() else f.order < -1):
        with pytest.raises(ZeroDivisionError):
            f.compose(g)
        return
    _agree_where_claimed(f.compose(g), f_full.compose(g_full))


def test_compose_at_a_zero_inner_series():
    # f(O(z^4)) is f(0) + O(z^4), and 1/g has no value at g = 0
    assert Series(0, [1, 1], None).compose(Series.zero(3)) == Series.const(1, 3)
    assert Series(0, [1, 1], None).compose(Series.zero(None)) == Series.const(1, None)
    with pytest.raises(ZeroDivisionError):
        Series(-1, [1], None).compose(Series.zero(3))


def test_truncate_never_extends_the_order():
    assert Series(0, [1, 2], 1).truncate(None).order == 1
    assert Series(0, [1, 2], 1).truncate(5).order == 1
    assert Series(0, [1, 2], None).truncate(0) == Series.const(1, 0)


@given(
    st.integers(-2, 2), _coeffs,
    st.integers(-3, 0), st.integers(0, 3), st.one_of(st.none(), st.integers(-3, 8)),
)
@settings(max_examples=80, deadline=None)
def test_powers_agree_with_pow_where_claimed(low, a, lo, hi, order):
    a[0] = a[0] or 1
    f = Series(low, [Fraction(c) for c in a], low + len(a) - 1)
    pows = f.powers(lo, hi, order)
    assert sorted(pows) == list(range(lo, hi + 1))
    for k, p in pows.items():
        assert order is None or p.order <= order
        _agree_where_claimed(p, f**k)


def test_exp_series_at_a_rate():
    z = Series.x(6)
    assert exp_series(6, -1) == exp_series(6).compose(-z)
    assert exp_series(6, Fraction(3, 2)) == exp_series(6).compose(z * Fraction(3, 2))


def test_zeta_series_at_a_rate():
    # zeta(m z) read directly, and zeta substituted at m z
    for m in range(1, 7):
        for n in range(11):
            got, want = zeta_series(n, m), zeta_series(n).compose(Series(1, [m], None))
            assert (got.low, got.coeffs, got.order) == (want.low, want.coeffs, want.order)


def _seeded_series(rng, kind):
    """A scalar series with a nonzero leading coefficient: ``laurent`` has a
    pole and a finite order, ``exact`` no order, ``truncated`` a finite one."""
    low = rng.randint(-3, -1) if kind == "laurent" else rng.randint(-2, 2)
    coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
    coeffs[0] = coeffs[0] or Fraction(1)
    order = None if kind == "exact" else low + len(coeffs) - 1 + rng.randint(0, 3)
    return Series(low, coeffs, order)


def test_pow_is_the_product_of_its_factors():
    # f^n against n factors of f, or of 1/f for n < 0, multiplied left to
    # right; == compares the validity order too
    rng = random.Random(0)
    for kind in ("laurent", "exact", "truncated"):
        for _ in range(60):
            f = _seeded_series(rng, kind)
            for n in range(-3, 7):
                try:
                    factor = f if n >= 0 else f.reciprocal()
                except ValueError:  # 1/f of an exact f with two terms or more
                    with pytest.raises(ValueError):
                        f**n
                    continue
                want = Series.const(Fraction(1), None)
                for _ in range(abs(n)):
                    want = want * factor
                assert f**n == want, (f, n)


@given(st.integers(1, 2), _coeffs, _tail)
@settings(max_examples=80, deadline=None)
def test_exp_ignores_coefficients_past_the_order(low, a, ta):
    f, f_full = _known_and_completed(low, a, ta)
    _agree_where_claimed(f.exp(), f_full.exp())


@given(_coeffs, _tail)
@settings(max_examples=80, deadline=None)
def test_log_ignores_coefficients_past_the_order(a, ta):
    f, f_full = _known_and_completed(0, [1] + a, ta)
    _agree_where_claimed(f.log(), f_full.log())


@given(_coeffs, _tail)
@settings(max_examples=80, deadline=None)
def test_reverse_ignores_coefficients_past_the_order(a, ta):
    a[0] = a[0] or 1
    f, f_full = _known_and_completed(1, a, ta)
    _agree_where_claimed(f.reverse(), f_full.reverse())


def test_a_series_coefficient_is_refused():
    # a Series coefficient would be read as a series in the outer variable
    u = Series.x(3)
    with pytest.raises(TypeError):
        Series(1, [u], 3)
    with pytest.raises(TypeError):
        Series.const(Series.x(3))
    with pytest.raises(TypeError):
        Series(1, [u], 3).compose(Series(1, [1, 1], 3))


def test_a_series_operand_is_an_outer_series():
    # (z + z^2) times and plus z + O(z^4), all in the one variable
    u = Series.x(3)
    assert Series(1, [1, 1], 3) * u == Series(2, [1, 1], 4)
    assert Series(1, [1, 1], 3) + u == Series(1, [2, 1], 3)


def test_product_over_multipoly_holds_no_int_coefficient():
    # an empty slot of a product is a zero of the product's own type
    p = MultiPoly.var(1, 0)
    for a, b in ((Series(0, [p], None), Series(0, [p, 0, p], None)),
                 (Series(0, [Fraction(1), 0, Fraction(2)], None), Series(0, [p], None))):
        prod = a * b
        assert len(prod.coeffs) == 3 and prod.coeffs[1] == 0
        assert all(isinstance(c, MultiPoly) for c in prod.coeffs), prod.coeffs
