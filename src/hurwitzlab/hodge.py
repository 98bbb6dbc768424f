"""Intersection numbers, the quantized loop-group action, and Hodge integrals.

The psi-class correlators come from the Virasoro-style recursion with the
two exceptional seeds and the string equation.  The Hodge potential is then
produced by acting on the truncated correlator potential with the quantized
Bernoulli series operator; its coefficients are the integrals of
(1 - lambda_1 + ... +- lambda_g) against psi-monomials.

Potentials are sparse dicts {(h, mono): Fraction} where mono is a sorted
tuple of indices and the coefficient is the literal monomial coefficient
(symmetry factors 1/prod(mult!) absorbed).  The grading identity
sum(mono) = 3h + len(mono) - defect bounds every computation; all caps are
enforced during the operator exponential.  The exponential is the Taylor
series of a flow.  Each Taylor term's first partials are built once, grouped
by grade (g, n, 3g + n - sum(mono)), and read by every piece of the flow; a
product of two partials is formed only when the sums of their grades stay
under the caps.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .lambert import root_coordinate
from .multipoly import MultiPoly, RatFn
from .partitions import _splits, enumerate_partitions
from .rationals import double_factorial
from .series import Series, bernoulli_exponent_series


# -- psi-class correlators ------------------------------------------------------------


@lru_cache(maxsize=None)
def wk_correlator(g: int, ds: tuple) -> Fraction:
    """<tau_{d_1} ... tau_{d_n}>_g; zero off the dimension shell."""
    ds = tuple(sorted((int(d) for d in ds), reverse=True))
    n = len(ds)
    if g < 0 or any(d < 0 for d in ds):
        return Fraction(0)
    if 2 * g - 2 + n <= 0:
        return Fraction(0)
    if sum(ds) != 3 * g - 3 + n:
        return Fraction(0)
    if (g, ds) == (0, (0, 0, 0)):
        return Fraction(1)
    if (g, ds) == (1, (1,)):
        return Fraction(1, 24)
    if ds[-1] == 0:
        # string equation
        rest = ds[:-1]
        total = Fraction(0)
        for j, d in enumerate(rest):
            if d >= 1:
                total += wk_correlator(g, rest[:j] + (d - 1,) + rest[j + 1 :])
        return total
    if ds[-1] == 1:
        # dilaton equation: <tau_1 prod tau_d>_g = (2g - 2 + n - 1) <prod tau_d>_g
        return (2 * g - 3 + n) * wk_correlator(g, ds[:-1])
    # pivot on the largest index
    k = ds[0] - 1
    rest = ds[1:]
    total = Fraction(0)
    for j, d in enumerate(rest):
        total += Fraction(
            double_factorial(2 * (k + d) + 1), double_factorial(2 * d - 1)
        ) * wk_correlator(g, rest[:j] + (k + d,) + rest[j + 1 :])
    half_sum = Fraction(0)
    for a in range(0, k):
        b = k - 1 - a
        w = double_factorial(2 * a + 1) * double_factorial(2 * b + 1)
        half_sum += w * wk_correlator(g - 1, (a, b) + rest)
        for g1, I, g2, J in _splits(g, rest):
            half_sum += w * wk_correlator(g1, (a,) + I) * wk_correlator(g2, (b,) + J)
    total += half_sum * Fraction(1, 2)
    return total / double_factorial(2 * k + 3)


# -- truncated potentials ---------------------------------------------------------------


def _mult_factor(mono: tuple) -> int:
    counts: dict[int, int] = {}
    for k in mono:
        counts[k] = counts.get(k, 0) + 1
    return prod(factorial(c) for c in counts.values())


def kw_potential(gcap: int, ncap: int, kcap: int) -> dict:
    """Truncated psi-class potential {(g, mono): coefficient}."""
    out: dict = {}
    for g in range(gcap + 1):
        for n in range(1, ncap + 1):
            if 2 * g - 2 + n <= 0:
                continue
            total = 3 * g - 3 + n
            if total < 0:
                continue
            for lam in enumerate_partitions(total):
                if len(lam) > n or (lam and lam[0] > kcap):
                    continue
                mono = lam + (0,) * (n - len(lam))
                val = wk_correlator(g, mono)
                if val:
                    out[(g, mono)] = val / _mult_factor(mono)
    return out


_ZERO = Fraction(0)


def _add(out: dict, key, val) -> None:
    """out[key] += val, dropping the key when the sum cancels."""
    cur = out.get(key, _ZERO) + val
    if cur:
        out[key] = cur
    else:
        out.pop(key, None)


def _partials(entries) -> dict:
    """{a: {grade: [((g, mono'), c * mult)]}}: each first partial d/dt_a of the
    entries ((g, mono), c), the multiplicity of t_a absorbed, grouped by the
    grade (g, n, 3g + n - sum(mono')) of the derivative entry."""
    table: dict = {}
    for (g, mono), c in entries:
        base = 3 * g + len(mono) - 1 - sum(mono)
        for a in dict.fromkeys(mono):
            i = mono.index(a)
            rest = mono[:i] + mono[i + 1 :]
            grade = (g, len(rest), base + a)
            table.setdefault(a, {}).setdefault(grade, []).append(((g, rest), c * mono.count(a)))
    return table


def _entries(buckets: dict):
    """The ((g, mono'), c) items of one partial, across its grades."""
    for bucket in buckets.values():
        yield from bucket


def givental_apply(potential: dict, r_coeffs, gcap: int, ncap: int, kcap: int) -> dict:
    """Act with exp(sum_j r_j zhat_{2j-1}) on exp(F/hbar); returns hbar log.

    Implemented as the flow of the induced field on the free energy itself,
    dF/de = sum_j r_j [ -dF/dt_{2j} + sum_i t_i dF/dt_{i+2j-1}
                        - (hbar/2) sum_{a+b=2j-2} (-1)^a d2F/dt_a dt_b
                        - (1/2)  sum_{a+b=2j-2} (-1)^a dF/dt_a dF/dt_b ],
    evaluated at e = 1 by its Taylor series.  Every term raises the defect
    3g - 3 + n - sum(k), so the series terminates under the genus cap.
    ``r_coeffs`` maps the odd power 2j-1 to its coefficient; an empty dict
    is the identity element and returns the input unchanged.
    """
    defcap = gcap
    shifts = [(s, c, (s + 1) // 2) for s, c in r_coeffs.items() if c and s <= defcap]

    def emit(out, g, mono, val):
        mono = tuple(sorted(mono, reverse=True))
        if g <= gcap and len(mono) <= ncap and (not mono or mono[0] <= kcap):
            if 3 * g - 3 + len(mono) - sum(mono) <= defcap:
                _add(out, (g, mono), val)

    def pair(out, da: dict, db: dict, w) -> None:
        # g and n add over the factors; the product's defect is e1 + e2 - 3
        for (g1, n1, e1), b1 in da.items():
            for (g2, n2, e2), b2 in db.items():
                if g1 + g2 <= gcap and n1 + n2 <= ncap and e1 + e2 - 3 <= defcap:
                    for (_, m1), c1 in b1:
                        wc = w * c1
                        for (_, m2), c2 in b2:
                            emit(out, g1 + g2, m1 + m2, wc * c2)

    terms, tables = [dict(potential)], []
    for m in range(defcap):
        nxt: dict = {}
        table = _partials(terms[m].items())
        tables.append(table)
        second = {b: _partials(_entries(table.get(b, {}))) for b in range(defcap)}
        for shift, coeff, j in shifts:
            for (g, rest), c in _entries(table.get(2 * j, {})):
                emit(nxt, g, rest, -coeff * c)
            for v, buckets in table.items():
                if v >= shift:
                    for (g, rest), c in _entries(buckets):
                        emit(nxt, g, rest + (v - shift,), coeff * c)
            for a in range(2 * j - 1):
                b = 2 * j - 2 - a
                w = -Fraction(1, 2) * (-1) ** a * coeff
                for (g, rest), c in _entries(second[b].get(a, {})):
                    emit(nxt, g + 1, rest, w * c)
                for p in range(m + 1):
                    pair(nxt, tables[p].get(a, {}), tables[m - p].get(b, {}), w)
        nxt = {k: v * Fraction(1, m + 1) for k, v in nxt.items()}
        if not nxt:
            break
        terms.append(nxt)
    out: dict = {}
    for t in terms:
        for key, val in t.items():
            _add(out, key, val)
    return out


# -- the Hodge side ----------------------------------------------------------------------


def r_hodge(order: int) -> Series:
    """exp(sum B_{2n}/(2n(2n-1)) z^{2n-1}): 1 + z/12 + z^2/288 - ..."""
    return bernoulli_exponent_series(order).exp()


def r_from_curve(order: int) -> Series:
    """R-matrix read off the curve: its z^k coefficient is (2k-1)!! times the
    zeta^(2k) coefficient (2k+1) [zeta^(2k+1)] z of the odd part of dz, in the
    root coordinate zeta = sqrt(2(z - log(1+z))), read through zeta^(2 order + 1)."""
    z_of_zeta = root_coordinate(2 * order + 1).reverse()
    coeffs = [Fraction(1)]
    for k in range(1, order + 1):
        coeffs.append(z_of_zeta.coeff(2 * k + 1) * double_factorial(2 * k + 1))
    return Series(0, coeffs, order)


@lru_cache(maxsize=None)
def hodge_potential(gcap: int, ncap: int, kcap: int) -> dict:
    """Generating potential of the Hodge-class integrals, cached per caps.

    Each quadratic-term application consumes two insertions, so the action is
    computed with headroom 2*gcap in both caps and filtered afterwards; the
    returned coefficients are exact.
    """
    ni = ncap + 2 * gcap
    ki = kcap + 2 * gcap
    base = kw_potential(gcap, ni, ki)
    b = bernoulli_exponent_series(2 * gcap + 1)
    r = {j: c for j, c in enumerate(b.coeffs, b.low) if c}
    image = givental_apply(base, r, gcap, ni, ki)
    return {
        (g, mono): c
        for (g, mono), c in image.items()
        if len(mono) <= ncap and (not mono or mono[0] <= kcap)
    }


def hodge_integral(g: int, ks) -> Fraction:
    """Integral of the alternating Hodge class against psi powers.

    An n-point genus-g value of psi-degree at most 3g - 3 + n is read from
    the potential at caps (g, n, 3g - 3 + n), which holds every such value.
    """
    ks = tuple(sorted((int(k) for k in ks), reverse=True))
    n = len(ks)
    if g < 0 or 2 * g - 2 + n <= 0:
        return Fraction(0)
    if sum(ks) > 3 * g - 3 + n:
        return Fraction(0)
    pot = hodge_potential(g, n, 3 * g - 3 + n)
    return pot.get((g, ks), Fraction(0)) * _mult_factor(ks)


def wk_from_potential(g: int, ks) -> Fraction:
    """<tau_{k_1} ... tau_{k_n}>_g read from the potential at caps (g, n, 3g - 3 + n)."""
    ks = tuple(sorted((int(k) for k in ks), reverse=True))
    n = len(ks)
    base = kw_potential(g, n, 3 * g - 3 + n)
    return base.get((g, ks), Fraction(0)) * _mult_factor(ks)


# -- the Bergman-kernel compatibility identity ----------------------------------------------


def bergman_compat_check() -> dict:
    """The defining identity of the compatible two-point kernel on the curve
    x = y - log(1+y): an exact rational-function identity, plus a series
    specialization."""
    y1 = MultiPoly.var(2, 0)
    y2 = MultiPoly.var(2, 1)
    one = MultiPoly.const(2, 1)
    d12 = (y1 - y2) ** 2
    lhs = RatFn(one + y1, y1 * d12).deriv(0) + RatFn(one + y2, y2 * d12).deriv(1)
    rhs = RatFn(-one, y1**2 * y2**2)
    identity = lhs == rhs
    # series specialization y2 = 2 y1; the order must clear the denominators
    order = 2 * max(lhs.den.total_degree(), lhs.num.total_degree()) + 8
    t = Series.x(order)

    def rat_at(r: RatFn):
        def poly_at(p: MultiPoly):
            acc = Series.zero(order)
            for (a, b), c in p.terms.items():
                acc = acc + (t ** (a + b)) * (c * 2**b)
            return acc

        return poly_at(r.num) * poly_at(r.den).reciprocal()

    sa, sb = rat_at(lhs), rat_at(rhs)
    window = min(x for x in (sa.order, sb.order) if x is not None)
    specialization = all(
        sa.coeff(k) == sb.coeff(k) for k in range(min(sa.low, sb.low), window + 1)
    )
    return {"identity": identity, "specialization_y2_eq_2y1": specialization}


__all__ = [
    "wk_correlator",
    "kw_potential",
    "givental_apply",
    "r_hodge",
    "r_from_curve",
    "hodge_potential",
    "hodge_integral",
    "wk_from_potential",
    "bergman_compat_check",
]
