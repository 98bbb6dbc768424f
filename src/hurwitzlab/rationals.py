"""Exact rational scalars and elementary number-theoretic helpers.

Every quantity in this package is an exact rational number; the scalar type
is ``fractions.Fraction``.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n in the convention with B_1 = -1/2.

    In this convention exp(sum B_{2n}/(2n(2n-1)) z^{2n-1}) starts
    1 + z/12 + z^2/288 - 139 z^3/51840 + ...
    """
    if n < 0:
        raise ValueError("bernoulli: n must be nonnegative")
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        # sum_{k=0}^{m} C(m+1, k) B_k = 0
        acc = sum(comb(m + 1, k) * _BERNOULLI[k] for k in range(m))
        _BERNOULLI.append(Fraction(-acc, m + 1))
    return _BERNOULLI[n]


def pochhammer(a: int, k: int) -> Fraction:
    """The shifted factorial (a+1)_k = (a+k)!/a!, defined for integer a.

    For k >= 0 this is (a+1)(a+2)...(a+k); for k <= 0 it is
    1/(a(a-1)...(a+k+1)).  A zero factor in the k <= 0 branch is an error:
    callers that sum over k are expected to drop those summands themselves.
    """
    if k >= 0:
        prod = 1
        for i in range(1, k + 1):
            prod *= a + i
        return Fraction(prod)
    prod = 1
    for i in range(0, -k):
        f = a - i
        if f == 0:
            raise ZeroDivisionError(
                f"pochhammer({a}, {k}): zero factor in descending product"
            )
        prod *= f
    return Fraction(1, prod)


def double_factorial(n: int) -> int:
    """(2k-1)!! for odd n = 2k-1; n!! generally, with (-1)!! = 1."""
    if n <= 0:
        return 1
    prod = 1
    while n > 0:
        prod *= n
        n -= 2
    return prod


def rational_to_str(q: Fraction) -> str:
    """Serialize as "p/q", or just "p" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def rational_from_str(s: str) -> Fraction:
    return Fraction(s)


__all__ = [
    "Fraction",
    "factorial",
    "comb",
    "bernoulli",
    "pochhammer",
    "double_factorial",
    "rational_to_str",
    "rational_from_str",
]
