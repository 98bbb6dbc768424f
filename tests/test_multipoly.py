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
    p = t(0) ** 2 + t(1)
    assert p.subs_var(0, 1) == t(1) ** 2 + t(1)
    q = p.embed(3, [2, 0])
    assert q.coeff((0, 0, 2)) == 1 and q.coeff((1, 0, 0)) == 1


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
    x, y = t(0), t(1)
    f = RatFn(x) * RatFn(y).reciprocal() + RatFn(y) * RatFn(x).reciprocal()
    g = RatFn(x**2 + y**2, x * y)
    assert f == g
    assert (f - g).is_zero()
    h = RatFn(1 + x).reciprocal()
    assert h.deriv(0) == RatFn(-MultiPoly.const(2, 1), (1 + x) * (1 + x))
