"""Exact multivariate polynomials over Fraction, plus a small type for an
unreduced quotient of two of them, used where a quotient must stay symbolic."""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from operator import add

from .rationals import rational_to_str


class MultiPoly:
    """Sparse polynomial in ``nvars`` variables with Fraction coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[tuple(e)] = c

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars)

    @staticmethod
    def const(nvars: int, c) -> "MultiPoly":
        return MultiPoly(nvars, {tuple([0] * nvars): Fraction(c)})

    @staticmethod
    def var(nvars: int, i: int, power: int = 1) -> "MultiPoly":
        e = [0] * nvars
        e[i] = power
        return MultiPoly(nvars, {tuple(e): Fraction(1)})

    @staticmethod
    def _collect(nvars: int, pairs) -> "MultiPoly":
        """The sum of the monomials in (exponents, coefficient) ``pairs``,
        with every exponent whose coefficients cancel dropped: the one loop
        that builds the terms of a sum, product, derivative or re-indexing."""
        terms: dict[tuple[int, ...], Fraction] = {}
        for e, c in pairs:
            if e in terms:
                terms[e] += c
            else:
                terms[e] = c
        out = MultiPoly(nvars)
        out.terms = {e: c for e, c in terms.items() if c}
        return out

    # -- predicates / accessors -----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, expts) -> Fraction:
        return self.terms.get(tuple(expts), Fraction(0))

    def degree(self, i: int) -> int:
        """Degree in variable i (-1 for the zero polynomial)."""
        return max((e[i] for e in self.terms), default=-1)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def is_symmetric(self) -> bool:
        """Invariance under the generators (0 1) and (0 1 ... n-1) of S_n:
        two lookups per term."""
        terms = self.terms
        return all(
            terms.get(e[1::-1] + e[2:]) == c and terms.get(e[1:] + e[:1]) == c
            for e, c in terms.items()
        )

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"t{i+1}^{p}" if p > 1 else f"t{i+1}" for i, p in enumerate(e) if p
            )
            bits.append(f"({c})" + ("*" + mono if mono else ""))
        return " + ".join(bits)

    # -- ring operations --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(self.nvars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MultiPoly._collect(self.nvars, chain(self.terms.items(), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._collect(self.nvars, ((e, -c) for e, c in self.terms.items()))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MultiPoly._collect(self.nvars, ((e, c * other) for e, c in self.terms.items()))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        pairs = ((tuple(map(add, e1, e2)), c1 * c2)
                 for e1, c1 in self.terms.items() for e2, c2 in other.terms.items())
        return MultiPoly._collect(self.nvars, pairs)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus / substitution -------------------------------------------------

    def deriv(self, i: int) -> "MultiPoly":
        return MultiPoly._collect(
            self.nvars,
            ((e[:i] + (e[i] - 1,) + e[i + 1 :], c * e[i]) for e, c in self.terms.items() if e[i]),
        )

    def eval(self, values) -> Fraction:
        values = [Fraction(v) for v in values]
        acc = Fraction(0)
        for e, c in self.terms.items():
            t = c
            for v, p in zip(values, e):
                if p:
                    t *= v**p
            acc += t
        return acc

    def embed(self, nvars: int, mapping) -> "MultiPoly":
        """Re-index into a ring of ``nvars`` variables: variable i becomes
        variable mapping[i].  Variables mapped to one index multiply, so a
        non-injective mapping merges their exponents."""

        def moved(e):
            e2 = [0] * nvars
            for i, p in enumerate(e):
                e2[mapping[i]] += p
            return tuple(e2)

        return MultiPoly._collect(nvars, ((moved(e), c) for e, c in self.terms.items()))

    def as_poly_in(self, i: int):
        """Coefficients of powers of variable i, as polynomials in the rest.

        Returns a list indexed by the power of t_i; entries keep ``nvars``
        variables with the i-th exponent zeroed.
        """
        groups = [[] for _ in range(self.degree(i) + 1)]
        for e, c in self.terms.items():
            groups[e[i]].append((e[:i] + (0,) + e[i + 1 :], c))
        return [MultiPoly._collect(self.nvars, pairs) for pairs in groups]

    def reciprocal(self):
        """Inverse of a nonzero constant polynomial; any other polynomial raises."""
        c = self.terms.get((0,) * self.nvars)
        if c is None or len(self.terms) != 1:
            raise ZeroDivisionError("only nonzero constants are invertible as polynomials")
        return MultiPoly.const(self.nvars, Fraction(1) / c)

    # -- serialization ------------------------------------------------------------

    def to_json(self):
        return [
            {"exp": list(e), "coeff": rational_to_str(c)}
            for e, c in sorted(self.terms.items(), reverse=True)
        ]


def divexact_linear_diff(p: MultiPoly, k: int, j: int) -> MultiPoly:
    """Exact division by (t_k - t_j); raises if the remainder is nonzero."""
    coeffs = p.as_poly_in(k)  # p = sum coeffs[d] * t_k^d
    d = len(coeffs) - 1
    tj = MultiPoly.var(p.nvars, j)
    quot = [MultiPoly(p.nvars) for _ in range(max(d, 0))]
    carry = MultiPoly(p.nvars)
    for power in range(d, 0, -1):
        q = coeffs[power] + carry
        quot[power - 1] = q
        carry = q * tj
    rem = coeffs[0] + carry if coeffs else carry
    if not rem.is_zero():
        raise ValueError("polynomial not divisible by (t_k - t_j)")
    out = MultiPoly(p.nvars)
    tk = MultiPoly.var(p.nvars, k)
    for power, q in enumerate(quot):
        out = out + q * tk**power
    return out


class RatFn:
    """Unreduced quotient of two polynomials; equality by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.const(num.nvars, 1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    @staticmethod
    def const(nvars: int, c) -> "RatFn":
        return RatFn(MultiPoly.const(nvars, c))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, RatFn):
            return other
        if isinstance(other, MultiPoly):
            return RatFn(other)
        if isinstance(other, (int, Fraction)):
            return RatFn.const(self.num.nvars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFn(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def reciprocal(self):
        if self.num.is_zero():
            raise ZeroDivisionError("reciprocal of zero")
        return RatFn(self.den, self.num)

    def deriv(self, i: int) -> "RatFn":
        return RatFn(
            self.num.deriv(i) * self.den - self.num * self.den.deriv(i),
            self.den * self.den,
        )

    def __eq__(self, other):
        other = self._coerce(other)
        return (self.num * other.den - other.num * self.den).is_zero()

    def __repr__(self):
        return f"({self.num!r})/({self.den!r})"


__all__ = ["MultiPoly", "RatFn", "divexact_linear_diff"]
