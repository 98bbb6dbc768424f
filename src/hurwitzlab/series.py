"""Truncated power/Laurent series in one formal variable over an exact ring.

A :class:`Series` stores coefficients for exponents ``low .. order`` together
with the validity order: coefficients above ``order`` are *unknown*, and
asking for them raises instead of silently returning garbage.  ``order=None``
marks an exact (polynomial/Laurent-polynomial) series.  Arithmetic propagates
the minimal valid order of its inputs.  ``compose`` is the one substitution:
``exp``, ``log`` and the unit part of ``reciprocal`` substitute into the stock
series below, and ``powers`` builds every table of truncated powers;
``reverse`` reads its Lagrange inversion off one such table.

Coefficients are Fractions, ints or ``MultiPoly`` polynomials.  A ``Series``
coefficient raises ``TypeError``, since arithmetic would read it as a series
in the outer variable: a two-variable expansion is a series over polynomials
instead, as in ``fock.a_symbolic_matrix``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .rationals import bernoulli


def is_zero_coeff(c) -> bool:
    """A zero scalar or a zero polynomial."""
    if isinstance(c, (int, Fraction)):
        return c == 0
    return c.is_zero()


def _inv_coeff(c):
    """1/c for a scalar; a polynomial must be a nonzero constant."""
    if isinstance(c, (int, Fraction)):
        return Fraction(1) / c
    return c.reciprocal()


def _min_order(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class Series:
    """Laurent series with explicit lowest exponent and validity order."""

    __slots__ = ("low", "coeffs", "order")

    def __init__(self, low, coeffs, order):
        coeffs = list(coeffs)
        if Series in map(type, coeffs):
            raise TypeError("a Series coefficient would be read as an outer series")
        # canonicalize: strip known-zero leading coefficients
        while coeffs and is_zero_coeff(coeffs[0]):
            coeffs.pop(0)
            low += 1
        if order is not None and coeffs and low + len(coeffs) - 1 > order:
            coeffs = coeffs[: max(order - low + 1, 0)]
        while coeffs and is_zero_coeff(coeffs[-1]):
            coeffs.pop()
        # for the zero series, low is kept as a known-zero lower bound
        self.low = low
        self.coeffs = coeffs
        self.order = order

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def const(c, order=None):
        return Series(0, [c], order)

    @staticmethod
    def x(order=None):
        return Series(1, [Fraction(1)], order)

    @staticmethod
    def zero(order=None):
        return Series(0, [], order)

    # -- inspection -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def high(self) -> int:
        """Highest exponent with a stored coefficient."""
        return self.low + len(self.coeffs) - 1

    def coeff(self, k):
        """Coefficient of z^k; raises if k is beyond the validity order."""
        if self.order is not None and k > self.order:
            raise ValueError(f"coefficient z^{k} beyond validity order {self.order}")
        if k < self.low or k > self.high:
            return Fraction(0)
        return self.coeffs[k - self.low]

    def residue(self, other=None):
        """Coefficient of z^{-1}; with ``other``, that of self * other, read
        without forming the product: sum_k self_k other_{-1-k} over the
        exponents where both series can be nonzero.  Reading past either
        validity order raises."""
        if other is None:
            if self.order is not None and self.order < -1:
                raise ValueError("validity order below -1; residue unknown")
            return self.coeff(-1)
        acc = 0
        for k in range(self.low, -other.low):
            a = self.coeff(k)
            if not is_zero_coeff(a):
                acc = acc + a * other.coeff(-1 - k)
        return acc

    def __repr__(self):
        terms = ", ".join(
            f"z^{self.low + i}:{c}" for i, c in enumerate(self.coeffs) if not is_zero_coeff(c)
        )
        o = "exact" if self.order is None else f"O(z^{self.order + 1})"
        return f"Series({terms or '0'}; {o})"

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        if self.order != other.order:
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.low == other.low and self.coeffs == other.coeffs

    # -- arithmetic -----------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, Series):
            return other
        return Series.const(other)

    def __add__(self, other):
        other = self._lift(other)
        order = _min_order(self.order, other.order)
        if self.is_zero():
            return Series(other.low, other.coeffs, order)
        if other.is_zero():
            return Series(self.low, self.coeffs, order)
        low = min(self.low, other.low)
        high = max(self.high, other.high)
        if order is not None:
            high = min(high, order)
        out = []
        for k in range(low, high + 1):
            a = self.coeffs[k - self.low] if self.low <= k <= self.high else 0
            b = other.coeffs[k - other.low] if other.low <= k <= other.high else 0
            out.append(a + b)
        return Series(low, out, order)

    __radd__ = __add__

    def __neg__(self):
        return Series(self.low, [-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        if not isinstance(other, Series):
            if isinstance(other, (int, Fraction)) and other == 0:
                return Series.zero(self.order)
            return Series(self.low, [c * other for c in self.coeffs], self.order)
        cand = []
        if self.order is not None:
            cand.append(self.order + other.low)
        if other.order is not None:
            cand.append(other.order + self.low)
        order = min(cand) if cand else None
        low = self.low + other.low
        if self.is_zero() or other.is_zero():
            return Series(low, [], order)
        high = self.high + other.high
        if order is not None:
            high = min(high, order)
        n = high - low + 1
        if n <= 0:
            return Series.zero(order)
        out = [None] * n
        for i, a in enumerate(self.coeffs):
            if is_zero_coeff(a):
                continue
            ka = self.low + i
            for j, b in enumerate(other.coeffs):
                k = ka + other.low + j
                if k > high:
                    break
                if is_zero_coeff(b):
                    continue
                cur = out[k - low]
                out[k - low] = a * b if cur is None else cur + a * b
        zero = out[0] * 0  # out[0] = a0 * b0 is nonzero: a zero of the product's type
        return Series(low, [zero if c is None else c for c in out], order)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            return self.reciprocal() ** (-n)
        result = Series.const(Fraction(1), None)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def truncate(self, order):
        """Restrict the validity order (never extends it)."""
        return Series(self.low, list(self.coeffs), _min_order(self.order, order))

    def powers(self, lo: int, hi: int, order):
        """{k: self^k through z^order} for lo <= k <= hi: each power is the one
        next to it towards k = 0 times self, or times 1/self for k < 0.  With
        ``order=None`` each power keeps the order its factors give."""
        pows = {0: Series.const(Fraction(1), order)}
        for k in range(1, hi + 1):
            pows[k] = (pows[k - 1] * self).truncate(order)
        if lo < 0:
            inv = self.reciprocal(order)
            for k in range(-1, lo - 1, -1):
                pows[k] = (pows[k + 1] * inv).truncate(order)
        return {k: p for k, p in pows.items() if lo <= k <= hi}

    def reciprocal(self, order=None):
        """1/f.  The leading coefficient must be invertible in its ring.

        The result claims validity through ``order`` but never beyond
        ``self.order - 2*valuation``, the last exponent the known
        coefficients of f decide.
        """
        if self.is_zero():
            raise ZeroDivisionError("reciprocal of zero series")
        v = self.low
        if self.order is not None:
            known = self.order - 2 * v
            order = known if order is None else min(order, known)
        elif order is None:
            if len(self.coeffs) == 1:
                return Series(-v, [_inv_coeff(self.coeffs[0])], None)
            raise ValueError("reciprocal of an exact series needs an explicit order")
        inv0 = _inv_coeff(self.coeffs[0])
        # u = f / (c0 z^v) - 1 has positive valuation
        rel = order + v  # we need 1/f through z^order, i.e. unit part through order+v
        u_coeffs = [c * inv0 for c in self.coeffs[1:]]
        u = Series(1, u_coeffs, None if self.order is None else self.order - v)
        geom = geometric_series(max(rel, 0) // u.low).compose(-u)  # rel < 0 reads none
        return Series(-v, [c * inv0 for c in geom.coeffs], order)

    def compose(self, g: "Series"):
        """f(g) for g with positive valuation (no constant term).

        Each power of g is built only through the last order f(g) can claim:
        the unknown coefficients of f enter at g^(f.order + 1), and the first
        power of g that f reads past z^0 bounds the rest.  The powers of 1/g
        are read further by the headroom the deepest one loses."""
        if not g.is_zero() and g.low < 1:
            raise ValueError("compose: inner series must have zero constant term")
        if g.is_zero():
            # g = O(z^(g.order + 1)): f(g) = f(0) + O(g^m), for m the first
            # positive power f may carry (its first nonzero stored one, or
            # past its order), and a pole of f, stored or possible below a
            # zero f's order, has no value
            pole = self.low < 0 if self.coeffs else self.order is not None and self.order < -1
            if pole:
                raise ZeroDivisionError("compose: Laurent series at a zero inner series")
            if self.coeffs:
                m = next((k for k, c in enumerate(self.coeffs, self.low)
                          if k > 0 and not is_zero_coeff(c)), None)
                m = _min_order(m, None if self.order is None else self.order + 1)
                order = None if g.order is None or m is None else m * (g.order + 1) - 1
                return Series.const(self.coeff(0), order)
        if self.is_zero():
            if self.order is None:
                return Series.zero(None)
            glow = g.low if not g.is_zero() else 1
            return Series(self.low * glow, [], (self.order + 1) * glow - 1)
        terms = [(k, c) for k, c in enumerate(self.coeffs, self.low) if not is_zero_coeff(c)]
        cut = None if self.order is None else (self.order + 1) * g.low - 1
        first = next((k for k, _ in terms if k > 0), None)
        pos_cut = cut
        if first is not None and g.order is not None:
            pos_cut = _min_order(cut, g.order + (first - 1) * g.low)
        pows = g.powers(0, self.high, pos_cut)
        if self.low < 0:
            pows.update(g.powers(self.low, -1, None if cut is None else cut - self.low * g.low))
        acc = Series.zero(None)
        for k, c in terms:
            # the geometric series' unit coefficients need no product
            unit = isinstance(c, (int, Fraction)) and c == 1
            acc = acc + (pows[k] if unit else pows[k] * c)
        return acc.truncate(cut)

    def exp(self):
        """exp(f) for f with positive valuation.  A nonzero f needs a finite
        order: exp(f) is then an infinite series."""
        if not self.is_zero() and self.low < 1:
            raise ValueError("exp: series must have zero constant term")
        if self.is_zero():
            return Series.const(Fraction(1), self.order)
        if self.order is None:
            raise ValueError("exp of an exact series needs a finite order")
        return exp_series(self.order // self.low).compose(self)

    def log(self):
        """log(f) for f with constant term 1."""
        if self.low != 0 or self.coeffs[0] != 1:
            raise ValueError("log: series must have constant term 1")
        u = self - 1
        if self.order is None:
            raise ValueError("log of an exact series needs a finite order")
        return log1p_series(self.order // max(u.low, 1)).compose(u)

    def sqrt_unit(self):
        """sqrt(f) for f with constant term 1 (principal branch)."""
        return (self.log() * Fraction(1, 2)).exp()

    def reverse(self):
        """Compositional inverse of f with f(0)=0, f'(0) invertible, by
        Lagrange inversion: [z^n] f^-1 = (1/n) [z^(n-1)] (z/f)^n."""
        if self.low != 1:
            raise ValueError("reverse: series must have valuation exactly 1")
        if self.order is None:
            raise ValueError("reverse needs a finite order")
        order = self.order
        pows = Series(0, self.coeffs, order - 1).reciprocal().powers(1, order, order - 1)
        coeffs = [pows[n].coeff(n - 1) * Fraction(1, n) for n in range(1, order + 1)]
        return Series(1, coeffs, order)


# -- stock series -------------------------------------------------------------


def exp_series(order: int, rate=1) -> Series:
    """e^(rate z) through z^order."""
    rate = Fraction(rate)
    return Series(0, [rate**k / factorial(k) for k in range(order + 1)], order)


def geometric_series(order: int) -> Series:
    """1/(1 - z) through z^order."""
    return Series(0, [Fraction(1)] * (order + 1), order)


def log1p_series(order: int) -> Series:
    # log(1+z)
    return Series(
        1,
        [Fraction((-1) ** (k - 1), k) for k in range(1, order + 1)],
        order,
    )


def zeta_series(order: int) -> Series:
    """zeta(z) = e^{z/2} - e^{-z/2}, an odd series with leading term z."""
    coeffs = []
    for k in range(1, order + 1, 2):
        m = (k - 1) // 2
        coeffs.append(Fraction(1, 4**m * factorial(k)))
        coeffs.append(Fraction(0))
    return Series(1, coeffs[: order], order)


def bernoulli_exponent_series(order: int) -> Series:
    """sum_{n>=1} B_{2n}/(2n(2n-1)) z^{2n-1} through the given order."""
    coeffs = [Fraction(0)] * (order + 1)
    n = 1
    while 2 * n - 1 <= order:
        coeffs[2 * n - 1] = bernoulli(2 * n) / (2 * n * (2 * n - 1))
        n += 1
    return Series(0, coeffs, order)


__all__ = [
    "Series",
    "is_zero_coeff",
    "exp_series",
    "geometric_series",
    "log1p_series",
    "zeta_series",
    "bernoulli_exponent_series",
]
