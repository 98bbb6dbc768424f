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
enforced during the operator exponential.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .lambert import root_coordinate
from .multipoly import MultiPoly, RatFn
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
        for mask in range(1 << len(rest)):
            I = tuple(rest[i] for i in range(len(rest)) if mask >> i & 1)
            J = tuple(rest[i] for i in range(len(rest)) if not mask >> i & 1)
            for g1 in range(0, g + 1):
                half_sum += (
                    w
                    * wk_correlator(g1, (a,) + I)
                    * wk_correlator(g - g1, (b,) + J)
                )
    total += half_sum * Fraction(1, 2)
    return total / double_factorial(2 * k + 3)


# -- truncated potentials ---------------------------------------------------------------


def _mult_factor(mono: tuple) -> int:
    counts: dict[int, int] = {}
    for k in mono:
        counts[k] = counts.get(k, 0) + 1
    return prod(factorial(c) for c in counts.values())


def _monomials(total: int, n: int, kcap: int):
    """Sorted (descending) n-tuples with entries <= kcap summing to total."""
    if n == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, kcap), -1, -1):
        if first * n < total:
            break
        for rest in _monomials(total - first, n - 1, first):
            yield (first,) + rest


def kw_potential(gcap: int = 2, ncap: int = 8, kcap: int = 8) -> dict:
    """Truncated psi-class potential {(g, mono): coefficient}."""
    out: dict = {}
    for g in range(gcap + 1):
        for n in range(1, ncap + 1):
            if 2 * g - 2 + n <= 0:
                continue
            total = 3 * g - 3 + n
            if total < 0:
                continue
            for mono in _monomials(total, n, kcap):
                val = wk_correlator(g, mono)
                if val:
                    out[(g, mono)] = val / _mult_factor(mono)
    return out


def _entry_defect(g: int, mono: tuple) -> int:
    """Codimension of the omitted tautological class: 3g - 3 + n - sum(k)."""
    return 3 * g - 3 + len(mono) - sum(mono)


def givental_apply(potential: dict, r_coeffs, gcap: int = 2, ncap: int = 8, kcap: int = 8) -> dict:
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

    def emit(out, g, mono, val):
        if not val or g > gcap or len(mono) > ncap:
            return
        mono = tuple(sorted(mono, reverse=True))
        if mono and mono[0] > kcap:
            return
        if _entry_defect(g, mono) > defcap:
            return
        key = (g, mono)
        cur = out.get(key, Fraction(0)) + val
        if cur:
            out[key] = cur
        else:
            out.pop(key, None)

    def linear_part(vec: dict) -> dict:
        out: dict = {}
        for shift, coeff in r_coeffs.items():
            if not coeff or shift > defcap:
                continue
            j = (shift + 1) // 2
            for (g, mono), c in vec.items():
                counts: dict[int, int] = {}
                for k in mono:
                    counts[k] = counts.get(k, 0) + 1
                if counts.get(2 * j):
                    lst = list(mono)
                    lst.remove(2 * j)
                    emit(out, g, lst, -coeff * c * counts[2 * j])
                for v, m in counts.items():
                    if v >= shift:
                        lst = list(mono)
                        lst.remove(v)
                        lst.append(v - shift)
                        emit(out, g, lst, coeff * c * m)
                for a in range(0, 2 * j - 1):
                    b = 2 * j - 2 - a
                    w = counts.get(a, 0) * (counts.get(b, 0) - (1 if a == b else 0))
                    if w <= 0:
                        continue
                    lst = list(mono)
                    lst.remove(a)
                    lst.remove(b)
                    emit(out, g + 1, lst, -Fraction(1, 2) * (-1) ** a * coeff * c * w)
        return out

    def partial(vec: dict, idx: int) -> dict:
        out: dict = {}
        for (g, mono), c in vec.items():
            m = mono.count(idx)
            if m:
                lst = list(mono)
                lst.remove(idx)
                key = (g, tuple(lst))
                out[key] = out.get(key, Fraction(0)) + c * m
        return out

    def quadratic_part(vp: dict, vq: dict) -> dict:
        out: dict = {}
        for shift, coeff in r_coeffs.items():
            if not coeff or shift > defcap:
                continue
            j = (shift + 1) // 2
            for a in range(0, 2 * j - 1):
                b = 2 * j - 2 - a
                da = partial(vp, a)
                db = partial(vq, b)
                if not da or not db:
                    continue
                w = -Fraction(1, 2) * (-1) ** a * coeff
                for (g1, m1), c1 in da.items():
                    for (g2, m2), c2 in db.items():
                        emit(out, g1 + g2, m1 + m2, w * c1 * c2)
        return out

    terms = [dict(potential)]
    for m in range(defcap):
        nxt = linear_part(terms[m])
        for p in range(m + 1):
            q = m - p
            part = quadratic_part(terms[p], terms[q])
            for key, val in part.items():
                cur = nxt.get(key, Fraction(0)) + val
                if cur:
                    nxt[key] = cur
                else:
                    nxt.pop(key, None)
        nxt = {k: v * Fraction(1, m + 1) for k, v in nxt.items()}
        if not nxt:
            break
        terms.append(nxt)
    out: dict = {}
    for t in terms:
        for key, val in t.items():
            cur = out.get(key, Fraction(0)) + val
            if cur:
                out[key] = cur
            else:
                out.pop(key, None)
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


_HODGE_CACHE: dict = {}


def hodge_potential(gcap: int = 2, ncap: int = 8, kcap: int = 8) -> dict:
    """Generating potential of the Hodge-class integrals, cached per caps.

    Each quadratic-term application consumes two insertions, so the action is
    computed with headroom 2*gcap in both caps and filtered afterwards; the
    returned coefficients are exact.
    """
    key = (gcap, ncap, kcap)
    if key not in _HODGE_CACHE:
        ni = ncap + 2 * gcap
        ki = kcap + 2 * gcap
        base = kw_potential(gcap, ni, ki)
        b = bernoulli_exponent_series(2 * gcap + 1)
        r = {j: c for j, c in enumerate(b.coeffs, b.low) if c}
        image = givental_apply(base, r, gcap, ni, ki)
        _HODGE_CACHE[key] = {
            (g, mono): c
            for (g, mono), c in image.items()
            if len(mono) <= ncap and (not mono or mono[0] <= kcap)
        }
    return _HODGE_CACHE[key]


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
