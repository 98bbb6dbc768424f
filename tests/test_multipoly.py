from fractions import Fraction

import pytest

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
