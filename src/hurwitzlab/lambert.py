"""Geometry of the Lambert curve x = y exp(-y).

Charts: y = 1 + z = 1 + 1/t; the branch point P sits at z = 0 (t = infinite),
the origin O at t = -1.  Everything here is expanded either in z (equal to
1/t, the chart at P) or in x (the chart at O); series in "w" below always
mean series in 1/t_1 at P.

The deck transformation sigma exchanging the two x-sheets near P solves
(1+z) e^{-z} = (1+sigma) e^{-sigma} with sigma(z) = -z + ...; it is computed
by Newton iteration seeded at -z, which excludes the trivial branch.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .multipoly import MultiPoly
from .series import Series, exp_series, log1p_series


# -- rho polynomials -----------------------------------------------------------

_RHO: list[MultiPoly] = []


def rho_poly(k: int) -> MultiPoly:
    """rho_0 = -1 - t, rho_{k+1} = t^2 (t+1) d/dt rho_k (univariate in t)."""
    if k < 0:
        raise ValueError("rho_poly: k must be nonnegative")
    if not _RHO:
        _RHO.append(MultiPoly(1, {(0,): -1, (1,): -1}))
    while len(_RHO) <= k:
        _RHO.append(apply_D(_RHO[-1], 0))
    return _RHO[k]


def apply_D(p: MultiPoly, k: int) -> MultiPoly:
    """The vector field D_k = t_k^2 (t_k + 1) d/dt_k."""
    tk = MultiPoly.var(p.nvars, k)
    return tk**2 * (tk + 1) * p.deriv(k)


# -- deck transformation and friends --------------------------------------------


@lru_cache(maxsize=None)
def sigma_z(order: int) -> Series:
    """sigma(z) = -z + (2/3) z^2 - ... solving (1+z)e^{-z} = (1+s)e^{-s}."""
    if order < 2:
        raise ValueError("order must be at least 2")
    # Newton loses one valid order per division by sigma but doubles the
    # correct valuation, so a logarithmic margin suffices.
    work = order + order.bit_length() + 4
    lg = log1p_series(work)
    target = lg - Series.x(work)  # log(1+z) - z
    sig = Series(1, [Fraction(-1)], work)  # seed -z
    while True:
        fval = lg.compose(sig) - sig - target
        v = fval.valuation()
        if v is None or v > order + 1:
            break
        # F'(s) = -s/(1+s); Newton step: sig += F(sig) (1+sig)/sig
        sig = sig + fval * (1 + sig) * sig.reciprocal()
    return sig.truncate(order)


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
    y = Series.x(order)
    x_of_y = y * exp_series(order).compose(-y)
    return x_of_y.reverse()


@lru_cache(maxsize=None)
def t_of_x(order: int) -> Series:
    """t = 1/(y(x) - 1), a unit series with t(0) = -1."""
    return (y_of_x(order) - 1).reciprocal(order)


def poly_at_series(p: MultiPoly, s: Series) -> Series:
    """Evaluate a univariate polynomial at a series (Horner)."""
    if p.nvars != 1:
        raise ValueError("poly_at_series expects a univariate polynomial")
    deg = p.degree(0)
    if deg < 0:
        return Series.zero(s.order)
    acc = Series.const(p.coeff((deg,)), s.order)
    for k in range(deg - 1, -1, -1):
        acc = acc * s + Series.const(p.coeff((k,)), s.order)
    return acc


def x_expand(p: MultiPoly, x_order: int) -> Series:
    """Expansion of a t-polynomial in the x-chart via t = 1/(y(x)-1)."""
    return poly_at_series(p, t_of_x(x_order)).truncate(x_order)


def poly_to_w_laurent(p: MultiPoly, order: int) -> Series:
    """Rewrite a univariate t-polynomial as a Laurent series in w = 1/t."""
    if p.nvars != 1:
        raise ValueError("expected a univariate polynomial")
    deg = p.degree(0)
    coeffs = [p.coeff((a,)) for a in range(deg, -1, -1)]  # w^{-deg} .. w^0
    return Series(-deg, coeffs, order)


# -- odd residueless projection ----------------------------------------------------


def odd_projection(f: Series, order: int | None = None) -> dict[int, object]:
    """Coefficients {i: a_i, i >= 2} of the odd residueless principal part.

    ``f`` is a Laurent series in w = 1/t1 (finite principal part) over any
    coefficient ring.  Writes (f + f o sigma-tilde)/(2 eta) = sum a_i t1^i and
    keeps the polynomial-in-t1 part divisible by t1^2.
    """
    if order is None:
        if f.order is None:
            raise ValueError("odd_projection needs a finite working order")
        order = f.order
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


def lemma2_check(k_max: int, order: int) -> dict:
    """Check rho_k(t) + rho_k(sigma-tilde(t)) has no pole at P for k <= k_max."""
    sig = sigma_z(order + 2 * k_max + 6)
    results = {}
    for k in range(k_max + 1):
        f = poly_to_w_laurent(rho_poly(k), order)
        sym = f + f.compose(sig)
        bad = [
            i
            for i in range(f.low, 0)
            if not (isinstance(sym.coeff(i), (int, Fraction)) and sym.coeff(i) == 0)
        ]
        results[k] = {"holomorphic_at_P": not bad, "offending_powers": [-i for i in bad]}
    return results


# -- recursion kernel ---------------------------------------------------------------


def kernel_K(order: int, nvars: int = 1, t1: int = 0) -> Series:
    """K(z, t1)/dz as a z-series with polynomial coefficients in t1.

    K(z,t1) = t1^2 (1+t1) / (2 (1 - z t1)(1 - sigma(z) t1)) * z dz/(z+1).
    """
    sig = sigma_z(order + 2)
    t1v = MultiPoly.var(nvars, t1)
    pref = t1v**2 * (1 + t1v) * Fraction(1, 2)
    geo_z = Series(0, [t1v**k for k in range(order + 1)], order)
    # sum_k sigma(z)^k t1^k, collected by z-power
    geo_s_coeffs = [MultiPoly.const(nvars, 1)] + [MultiPoly.zero(nvars)] * order
    spow = Series.const(Fraction(1), order)
    for k in range(1, order + 1):
        spow = (spow * sig).truncate(order)
        if spow.is_zero():
            break
        t1k = t1v**k
        for j in range(max(spow.low, 0), spow.high + 1):
            geo_s_coeffs[j] = geo_s_coeffs[j] + spow.coeff(j) * t1k
    geo_s = Series(0, geo_s_coeffs, order)
    z = Series.x(order)
    inv1pz = (1 + z).reciprocal(order)
    return (z * inv1pz * geo_z * geo_s).truncate(order) * pref


def kernel_alt_form(order: int, nvars: int = 1, t1: int = 0) -> Series:
    """Kernel assembled from the two one-sheet residue extractions.

    Changing variables z -> sigma(z) in the second extraction flips the
    orientation of eta, so this form equals MINUS kernel_K; the odd
    projection is +res of this form, equivalently -res of kernel_K.
    """
    work = order + 4
    sig = sigma_z(work)
    z = Series.x(work)
    t1v = MultiPoly.var(nvars, t1)
    geo_z = Series(0, [t1v**k for k in range(work + 1)], work)
    geo_s_coeffs = [MultiPoly.const(nvars, 1)] + [MultiPoly.zero(nvars)] * work
    spow = Series.const(Fraction(1), work)
    for k in range(1, work + 1):
        spow = (spow * sig).truncate(work)
        if spow.is_zero():
            break
        t1k = t1v**k
        for j in range(max(spow.low, 0), spow.high + 1):
            geo_s_coeffs[j] = geo_s_coeffs[j] + spow.coeff(j) * t1k
    geo_s = Series(0, geo_s_coeffs, work)
    inv1pz = (1 + z).reciprocal(work)
    eta_inv = (sig - z).reciprocal()  # 1/eta(1/z)
    term1 = t1v**2 * (z * geo_z)
    term2 = (t1v**2 * (sig * geo_s)) * (z * inv1pz) * ((1 + sig) * sig.reciprocal())
    return (Fraction(1, 2) * eta_inv * (term1 - term2)).truncate(order)


__all__ = [
    "rho_poly",
    "apply_D",
    "sigma_z",
    "sigma_tilde_w",
    "eta_series",
    "y_of_x",
    "t_of_x",
    "poly_at_series",
    "x_expand",
    "poly_to_w_laurent",
    "odd_projection",
    "lemma2_check",
    "kernel_K",
    "kernel_alt_form",
]
