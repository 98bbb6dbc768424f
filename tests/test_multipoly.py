from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitzlab.multipoly import MultiPoly, RatFn, divexact_linear_diff


def t(i, n=2):
    return MultiPoly.var(n, i)


def test_basic_ring_ops():
    p = (t(0) + t(1)) ** 2
    assert p.coeff((2, 0)) == 1
    assert p.coeff((1, 1)) == 2
    assert p.coeff((0, 2)) == 1
    q = p - t(0) * t(1) * 2
    assert q == t(0) ** 2 + t(1) ** 2


def test_scalar_interop():
    p = 1 + t(0) * Fraction(1, 2)
    assert p.coeff((0, 0)) == 1
    assert (0 + p) == p
    assert (3 * p).coeff((1, 0)) == Fraction(3, 2)


def test_deriv_and_eval():
    p = t(0) ** 3 * t(1) + 2 * t(1)
    assert p.deriv(0) == 3 * t(0) ** 2 * t(1)
    assert p.eval([2, 5]) == 8 * 5 + 10


def test_symmetry_and_degrees():
    p = t(0) ** 2 * t(1) + t(0) * t(1) ** 2
    assert p.is_symmetric()
    assert p.degree(0) == 2 and p.total_degree() == 3
    assert not (p + t(0)).is_symmetric()


@st.composite
def _polys(draw):
    """A MultiPoly in at most 4 variables: symmetrized or not, then perhaps
    with one more term."""
    n = draw(st.integers(1, 4))
    expts = st.tuples(*[st.integers(0, 2)] * n)
    terms = draw(st.dictionaries(expts, st.integers(-2, 2), max_size=5))
    if draw(st.booleans()):
        sym: dict = {}
        for e, c in terms.items():
            for p in permutations(e):
                sym[p] = sym.get(p, 0) + c
        terms = sym
    for e, c in draw(st.dictionaries(expts, st.integers(-1, 1), max_size=1)).items():
        terms[e] = terms.get(e, 0) + c
    return MultiPoly(n, terms)


@given(_polys())
@settings(max_examples=300, deadline=None)
def test_symmetry_on_generators_is_symmetry_on_all_permutations(p):
    every = all(p.coeff(q) == c for e, c in p.terms.items() for q in permutations(e))
    assert p.is_symmetric() == every


def test_subs_and_embed():
    # a non-injective embed is a substitution: it merges the exponents of
    # the variables mapped to one index, and cancelled terms are dropped
    p = t(0) ** 2 + t(1)
    assert p.embed(2, [1, 1]) == t(1) ** 2 + t(1)
    assert (t(0) * t(1) ** 2).embed(2, [0, 0]) == t(0) ** 3
    assert (t(0) - t(1)).embed(1, [0, 0]).is_zero()
    q = p.embed(3, [2, 0])
    assert q.coeff((0, 0, 2)) == 1 and q.coeff((1, 0, 0)) == 1


_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _ring(draw):
    """Two random polynomials in one ring, a point and a scalar."""
    n = draw(st.integers(1, 3))
    expts = st.tuples(*[st.integers(0, 3)] * n)
    p, q = (MultiPoly(n, draw(st.dictionaries(expts, _rationals, max_size=6))) for _ in "pq")
    x = draw(st.lists(_rationals, min_size=n, max_size=n))
    return p, q, x, draw(st.one_of(st.integers(-3, 3), _rationals))


def _built(r, nvars):
    """r, after checking that it is in the ring and stores no zero term."""
    assert r.nvars == nvars
    assert all(len(e) == nvars and c for e, c in r.terms.items()), r.terms
    return r


@given(_ring())
@settings(max_examples=100, deadline=None)
def test_ring_operations_agree_with_evaluation(case):
    # Schwartz-Zippel: each operation checked at a random rational point
    p, q, x, c = case
    n = p.nvars
    px, qx = p.eval(x), q.eval(x)
    assert _built(p + q, n).eval(x) == px + qx
    assert _built(p - q, n).eval(x) == px - qx
    assert _built(-p, n).eval(x) == -px
    assert _built(p * q, n).eval(x) == px * qx
    assert _built(c * p, n).eval(x) == _built(p * c, n).eval(x) == c * px
    assert _built(p + c, n).eval(x) == px + c
    assert _built(p - p, n).is_zero()


@given(_ring())
@settings(max_examples=100, deadline=None)
def test_coefficients_in_one_variable_sum_back(case):
    p, _, x, _ = case
    for i in range(p.nvars):
        parts = [_built(part, p.nvars) for part in p.as_poly_in(i)]
        assert all(e[i] == 0 for part in parts for e in part.terms)
        assert sum(part.eval(x) * x[i] ** k for k, part in enumerate(parts)) == p.eval(x)


@given(_ring(), st.data())
@settings(max_examples=100, deadline=None)
def test_embed_agrees_with_evaluation(case, data):
    # the mapping may send several variables to one index
    p, _, _, _ = case
    m = data.draw(st.integers(1, 4))
    mapping = data.draw(st.lists(st.integers(0, m - 1), min_size=p.nvars, max_size=p.nvars))
    y = data.draw(st.lists(_rationals, min_size=m, max_size=m))
    assert _built(p.embed(m, mapping), m).eval(y) == p.eval([y[j] for j in mapping])


@given(_ring())
@settings(max_examples=100, deadline=None)
def test_deriv_obeys_the_product_rule(case):
    p, q, x, _ = case
    for i in range(p.nvars):
        lhs = _built((p * q).deriv(i), p.nvars)
        rhs = p.deriv(i) * q + p * q.deriv(i)
        assert lhs.eval(x) == rhs.eval(x)
    assert _built(MultiPoly.var(p.nvars, 0, 3).deriv(0), p.nvars) == 3 * MultiPoly.var(p.nvars, 0, 2)


def test_only_nonzero_constants_are_invertible():
    assert MultiPoly.const(2, Fraction(2, 3)).reciprocal() == Fraction(3, 2)
    for p in (t(0), 1 + t(0), MultiPoly.zero(2)):
        with pytest.raises(ZeroDivisionError, match="only nonzero constants"):
            p.reciprocal()


def test_divexact():
    p = t(0) ** 2 * (t(0) - t(1))
    assert divexact_linear_diff(p, 0, 1) == t(0) ** 2
    with pytest.raises(ValueError):
        divexact_linear_diff(t(0) ** 2, 0, 1)


def test_divexact_symmetrized_pair():
    # numerator built to vanish on the diagonal divides exactly
    a = t(0) ** 3 * (1 + t(1)) - t(1) ** 3 * (1 + t(0))
    q = divexact_linear_diff(a, 0, 1)
    assert q * (t(0) - t(1)) == a


def test_ratfn_identities():
    # the sum and the partials stay unreduced: x/y + y/x over y x
    x, y = t(0), t(1)
    one = MultiPoly.const(2, 1)
    f = RatFn(x, y) + RatFn(y, x)
    assert (f.num, f.den) == (x**2 + y**2, x * y)
    h = RatFn(one, 1 + x)
    assert (h.deriv(0).num, h.deriv(0).den) == (-one, (1 + x) ** 2)
    assert (h.deriv(1).num, h.deriv(1).den) == (MultiPoly(2), (1 + x) ** 2)
    with pytest.raises(ZeroDivisionError):
        RatFn(one, MultiPoly(2))
