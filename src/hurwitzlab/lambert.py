"""Geometry of the Lambert curve x = y exp(-y).

Charts: y = 1 + z = 1 + 1/t; the branch point P sits at z = 0 (t = infinite),
the origin O at t = -1.  Everything here is expanded either in z (equal to
1/t, the chart at P) or in x (the chart at O); series in "w" below always
mean series in 1/t_1 at P.

The deck transformation sigma exchanging the two x-sheets near P solves
(1+z) e^{-z} = (1+sigma) e^{-sigma} with sigma(z) = -z + ...  Since
z - log(1+z) = -1 - log x, the root coordinate zeta = sqrt(2(z - log(1+z)))
only changes sign between the sheets, so sigma = zeta^{-1}(-zeta(z)).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .multipoly import MultiPoly
from .series import Series, exp_series, log1p_series


# -- rho polynomials -----------------------------------------------------------

@lru_cache(maxsize=None)
def rho_poly(k: int) -> MultiPoly:
    """rho_0 = -1 - t, rho_{k+1} = t^2 (t+1) d/dt rho_k (univariate in t)."""
    if k < 0:
        raise ValueError("rho_poly: k must be nonnegative")
    if k == 0:
        return MultiPoly(1, {(0,): -1, (1,): -1})
    return apply_D(rho_poly(k - 1), 0)


def apply_D(p: MultiPoly, k: int) -> MultiPoly:
    """The vector field D_k = t_k^2 (t_k + 1) d/dt_k."""
    tk = MultiPoly.var(p.nvars, k)
    return tk**2 * (tk + 1) * p.deriv(k)


# -- deck transformation and friends --------------------------------------------


@lru_cache(maxsize=None)
def root_coordinate(order: int) -> Series:
    """zeta(z) = sqrt(2(z - log(1+z))) = z - z^2/3 + ... through z^order."""
    phi2 = (Series.x(order + 1) - log1p_series(order + 1)) * 2  # z^2 (1 + ...)
    unit = Series(0, phi2.coeffs, order - 1)  # the stored list starts at z^2
    return Series.x() * unit.sqrt_unit()


@lru_cache(maxsize=None)
def sigma_z(order: int) -> Series:
    """sigma(z) = -z + (2/3) z^2 - ... solving (1+z)e^{-z} = (1+s)e^{-s}."""
    if order < 2:
        raise ValueError("order must be at least 2")
    zeta = root_coordinate(order)
    return zeta.reverse().compose(-zeta)


@lru_cache(maxsize=None)
def sigma_tilde_w(order: int) -> Series:
    """sigma-tilde(t) = 1/sigma(1/t) as a Laurent series in w = 1/t.

    The w^{-1} coefficient is the -t term of the printed expansion.
    """
    return sigma_z(order + 2).reciprocal(order)


@lru_cache(maxsize=None)
def eta_series(order: int) -> Series:
    """eta(t1) = sigma(1/t1) - 1/t1 as a series in w = 1/t1; odd under the deck
    transformation, leading term -2 w."""
    return sigma_z(order) - Series.x(order)


# -- the x-chart -----------------------------------------------------------------


@lru_cache(maxsize=None)
def y_of_x(order: int) -> Series:
    """Functional inverse of x = y e^{-y}: sum_m m^{m-1}/m! x^m."""
    x_of_y = Series.x(order) * exp_series(order, -1)
    return x_of_y.reverse()


@lru_cache(maxsize=None)
def t_of_x(order: int) -> Series:
    """t = 1/(y(x) - 1), a unit series with t(0) = -1."""
    return (y_of_x(order) - 1).reciprocal(order)


def x_expand(poly: MultiPoly, x_order: int) -> dict:
    """poly(t(x_1), ..., t(x_n)) in the x-chart via t = 1/(y(x)-1), as the
    nonzero coefficients {(m_1, ..., m_n): c} of prod x_i^{m_i}, m_i <= x_order,
    at the non-increasing exponent tuples m_1 >= ... >= m_n only.

    For a symmetric poly those determine every coefficient; for any other
    poly the rest are not read, so a caller that relies on the reduction
    checks symmetry separately (as the ``w-symmetric`` row does for W)."""
    n = poly.nvars
    maxdeg = max((poly.degree(i) for i in range(n)), default=0)
    tpows = t_of_x(x_order).powers(0, maxdeg, x_order)
    # integer numerators: one common denominator for t^k, one for poly
    rows = [[Fraction(tpows[k].coeff(m)) for m in range(x_order + 1)] for k in range(maxdeg + 1)]
    t_den = lcm(*(c.denominator for row in rows for c in row))
    rows = [[c.numerator * (t_den // c.denominator) for c in row] for row in rows]
    p_den = lcm(*(c.denominator for c in poly.terms.values()))

    def rec(terms: dict, i: int) -> dict:
        if i == n:
            return terms
        groups: dict = {}
        for e, c in terms.items():
            groups.setdefault(e[0], {})[e[1:]] = c
        out: dict = {}
        for power, rest in groups.items():
            row = rows[power]
            for suffix, cval in rec(rest, i + 1).items():
                for mi in range(suffix[0] if suffix else 0, x_order + 1):
                    if row[mi]:
                        key = (mi,) + suffix
                        out[key] = out.get(key, 0) + row[mi] * cval
        return {k: v for k, v in out.items() if v}

    nums = {e: c.numerator * (p_den // c.denominator) for e, c in poly.terms.items()}
    den = p_den * t_den**n
    return {k: Fraction(v, den) for k, v in rec(nums, 0).items()}


def poly_to_w_laurent(p: MultiPoly, order: int) -> Series:
    """Rewrite a univariate t-polynomial as a Laurent series in w = 1/t."""
    if p.nvars != 1:
        raise ValueError("expected a univariate polynomial")
    deg = p.degree(0)
    coeffs = [p.coeff((a,)) for a in range(deg, -1, -1)]  # w^{-deg} .. w^0
    return Series(-deg, coeffs, order)


# -- odd residueless projection ----------------------------------------------------


def odd_projection(f: Series, order: int) -> dict[int, object]:
    """Coefficients {i: a_i, i >= 2} of the odd residueless principal part.

    ``f`` is a Laurent series in w = 1/t1 (finite principal part) over any
    coefficient ring.  Writes (f + f o sigma-tilde)/(2 eta) = sum a_i t1^i and
    keeps the polynomial-in-t1 part divisible by t1^2.
    """
    npole = max(0, -f.low if not f.is_zero() else 0)
    work = order + npole + 4
    sig = sigma_z(work)
    sym = (f + f.compose(sig)) * Fraction(1, 2)
    quot = sym * eta_series(work).reciprocal()
    if quot.order is not None and quot.order < -2:
        raise ValueError("insufficient truncation to read the projection")
    out = {}
    for i in range(2, npole + 2):
        c = quot.coeff(-i)
        if not (isinstance(c, (int, Fraction)) and c == 0):
            out[i] = c
    return out


def lemma2_check(k_max: int) -> dict:
    """Check rho_k(t) + rho_k(sigma-tilde(t)) has no pole at P for k <= k_max;
    ``principal_part`` maps each negative power of w = 1/t to its coefficient,
    so rho_k is read through w^-1.

    rho_k has degree 2k+1, and sigma^-m is known through z^(N-1-m) for sigma
    through z^N, so z^-1 at m = 2k+1 needs the least order N = 2k+1."""
    sig = sigma_z(max(2, 2 * k_max + 1))
    results = {}
    for k in range(k_max + 1):
        f = poly_to_w_laurent(rho_poly(k), -1)
        sym = f + f.compose(sig)
        principal = {i: sym.coeff(i) for i in range(f.low, 0)}
        results[k] = {"holomorphic_at_P": not any(principal.values()), "principal_part": principal}
    return results


# -- recursion kernel ---------------------------------------------------------------


def _geometric_kernel(s: Series, t: MultiPoly, order: int) -> Series:
    """1/(1 - s t) = sum_k s^k t^k through z^order, collected by z-power
    into polynomial coefficients in t."""
    return Series(0, [t**k for k in range(order + 1)], order).compose(s).truncate(order)


def kernel_K(order: int, nvars: int = 1) -> Series:
    """K(z, t1)/dz as a z-series with polynomial coefficients in t1.

    K(z,t1) = t1^2 (1+t1) / (2 (1 - z t1)(1 - sigma(z) t1)) * z dz/(z+1).
    """
    sig = sigma_z(order + 2)
    t1v = MultiPoly.var(nvars, 0)
    pref = t1v**2 * (1 + t1v) * Fraction(1, 2)
    z = Series.x(order)
    geo_z = _geometric_kernel(z, t1v, order)
    geo_s = _geometric_kernel(sig, t1v, order)
    inv1pz = (1 + z).reciprocal(order)
    return (z * inv1pz * geo_z * geo_s).truncate(order) * pref


def kernel_alt_form(order: int, nvars: int = 1) -> Series:
    """Kernel assembled from the two one-sheet residue extractions.

    Changing variables z -> sigma(z) in the second extraction flips the
    orientation of eta, so this form equals MINUS kernel_K; the odd
    projection is +res of this form, equivalently -res of kernel_K.
    """
    work = order + 4
    sig = sigma_z(work)
    z = Series.x(work)
    t1v = MultiPoly.var(nvars, 0)
    geo_z = _geometric_kernel(z, t1v, work)
    geo_s = _geometric_kernel(sig, t1v, work)
    inv1pz = (1 + z).reciprocal(work)
    eta_inv = (sig - z).reciprocal()  # 1/eta(1/z)
    term1 = t1v**2 * (z * geo_z)
    term2 = (t1v**2 * (sig * geo_s)) * (z * inv1pz) * ((1 + sig) * sig.reciprocal())
    return (Fraction(1, 2) * eta_inv * (term1 - term2)).truncate(order)


__all__ = [
    "rho_poly",
    "apply_D",
    "root_coordinate",
    "sigma_z",
    "sigma_tilde_w",
    "eta_series",
    "y_of_x",
    "t_of_x",
    "x_expand",
    "poly_to_w_laurent",
    "odd_projection",
    "lemma2_check",
    "kernel_K",
    "kernel_alt_form",
]
