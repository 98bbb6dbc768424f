"""The Lambert-curve residue recursion for the Hurwitz polynomials W_{g,n}.

W_{g,n}(t_1..t_n) carries the connected Hurwitz generating series after the
substitution x = (1+1/t) e^{-1-1/t}; the stable ones are polynomials.  They
are computed here by the kernel-residue recursion (in three argument
conventions), by the odd-projection form, and independently reconstructed
from fitted Hurwitz polynomials; the module also verifies the cut-and-join
identity in the t-variables and the x-expansion against Hurwitz data.

The (1,1) step is special: the auxiliary function hits the two-point
function on its diagonal.  The mixed-argument form is regular there; the
equal-argument forms use the diagonal regularized by subtracting the double
pole in the x-variable (computed exactly in d1d2_h02_diagonal).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial, prod

from .hurwitz import branch_count, fit_P_polynomial, h_connected
from .lambert import apply_D, kernel_K, odd_projection, rho_poly, sigma_z, x_expand
from .multipoly import MultiPoly, divexact_linear_diff
from .partitions import _splits
from .series import Series


# -- the exact two-point diagonal ---------------------------------------------------


@lru_cache(maxsize=None)
def d1d2_h02_diagonal() -> MultiPoly:
    """The mixed second derivative of the unstable two-point function on its
    diagonal: lim of W_{0,2}(t, t+e) minus the double x-pole kernel.

    With q = t^2(t+1) and e = q*eps every eps-coefficient is a polynomial in
    t: W_{0,2}(t, t+e) = q(t) q(t+e) / e^2 = sum_k q^(k)/k! q^(k-1) eps^(k-2),
    and e^m w^(m)/m! = P_{m-1} eps^m/m! for dw = dt/q, where P_0 = 1 and
    P_m = P_{m-1}' q - m P_{m-1} q'.  The limit is the eps^0 coefficient.
    """
    order = 3  # 1/(1 - r)^2 is known through eps^(order - 3)
    one = MultiPoly.const(1, 1)
    t = MultiPoly.var(1, 0)
    q = t**2 * (t + 1)
    dq = q.deriv(0)
    w02 = [one]
    taylor = q
    for k in range(1, 4):
        taylor = taylor.deriv(0) * Fraction(1, k)
        w02.append(taylor * q ** (k - 1))
    w02 = Series(-2, w02, None)
    # x(t+e)/x(t) = exp(sum_m P_{m-1} eps^m/m!)
    deltas = []
    p = one
    for m in range(1, order + 1):
        deltas.append(p * Fraction(1, factorial(m)))
        p = p.deriv(0) * q - m * p * dq
    r = Series(1, deltas, order).exp()
    xker = r * ((1 - r) ** 2).reciprocal(0)
    return (w02 - xker).coeff(0)


# -- evaluation helpers for the residue forms -----------------------------------------


def _at(w: MultiPoly, tables, tvars, nvars: int) -> Series:
    """W(1/s_1, ..., 1/s_m, t_{tvars}) for m = len(tables), as a z-series
    with nvars-variable polynomial coefficients: 1/s_i^p is read from the
    power table tables[i] at key -p, and W's remaining variables become
    t_{tvars}.  The terms are grouped by their m leading exponents."""
    m = len(tables)
    groups: dict = {}
    for e, c in w.terms.items():
        groups.setdefault(e[:m], {})[(0,) * m + e[m:]] = c
    mapping = [0] * m + list(tvars)  # the m leading slots are zero
    acc = Series.zero(tables[0][0].order)
    for lead, terms in groups.items():
        z = tables[0][-lead[0]]
        for table, p in zip(tables[1:], lead[1:]):
            z = z * table[-p]
        acc = acc + z * MultiPoly(w.nvars, terms).embed(nvars, mapping)
    return acc


def _w02_one_series(pows, j: int, nvars: int, order: int) -> Series:
    """W_{0,2}(1/s, t_j) = (1+s) t_j^2 (t_j+1) / (s (1 - s t_j)^2)."""
    tj = MultiPoly.var(nvars, j)
    top = min(order, max(pows))
    geo = Series.zero(top)
    for k in range(top + 1):
        geo = geo + pows[k] * ((k + 1) * tj**k)
    pref = tj**2 * (tj + 1)
    s = pows[1]
    inv_s = s.reciprocal(order)
    return (1 + s) * inv_s * geo * pref


def _w02_two_series(s1: Series, s2: Series, order: int) -> Series:
    """W_{0,2}(1/s1, 1/s2) = (1+s1)(1+s2) / (s1 s2 (s1-s2)^2)."""
    num = (1 + s1) * (1 + s2)
    den = s1 * s2 * (s1 - s2) ** 2
    return num * den.reciprocal(order)


def _w_factor_series(g1: int, nargs_vars: tuple, pows, nvars, order):
    """W_{g1, 1+|vars|}(1/s, t_vars) for a split factor."""
    k = len(nargs_vars)
    if (g1, k + 1) == (0, 2):
        return _w02_one_series(pows, nargs_vars[0], nvars, order)
    return _at(w_poly(g1, k + 1), [pows], nargs_vars, nvars)


def _w_tilde_series(g: int, n: int, mode: str, order: int):
    """Auxiliary function at (u,v) = (1/s1, 1/s2) per mode zz | zs | ss."""
    nvars = n
    sig = sigma_z(order + 2)
    z = Series.x(None)
    s1 = z if mode in ("zz", "zs") else sig
    s2 = z if mode == "zz" else sig
    # every ingredient has per-variable degree below the (g, n) bound
    # 6g + 2n - 3; the tables run two powers past it
    maxp = 6 * g + 2 * n - 1
    pows1 = s1.powers(-maxp, maxp, order)
    pows2 = pows1 if s2 is s1 else s2.powers(-maxp, maxp, order)
    rest = tuple(range(1, n))
    acc = Series.zero(order)
    # the (g-1, n+1) term
    if g - 1 >= 0:
        gm, nm = g - 1, n + 1
        if (gm, nm) == (0, 2):
            if mode == "zs":
                acc = acc + _w02_two_series(s1, s2, order)
            else:
                acc = acc + _at(d1d2_h02_diagonal(), [pows1], (), nvars)
        else:
            acc = acc + _at(w_poly(gm, nm), [pows1, pows2], rest, nvars)
    # the genus/variable splits; prune zero factors before evaluating so the
    # formally-included unknown (paired with the vanishing one-point term)
    # is never computed
    for g1, A, g2, B in _splits(g, rest):
        if (g1, len(A) + 1) == (0, 1) or (g2, len(B) + 1) == (0, 1):
            continue
        f1 = _w_factor_series(g1, A, pows1, nvars, order)
        f2 = _w_factor_series(g2, B, pows2, nvars, order)
        acc = acc + f1 * f2
    return acc


def _working_order(g: int, n: int) -> int:
    """Working order of one residue step, set by the pole order: the step
    reads W-tilde only through z^-2, and the Series validity orders decide
    whether this order reaches that far (a shortfall raises)."""
    return max(2, 6 * g + 2 * n - 5)


def bm_step(g: int, n: int, form: str = "zz") -> MultiPoly:
    """One kernel-residue step producing W_{g,n} (stable (g,n) only).

    form: 'zz' (both arguments 1/z), 'zs' (mixed), 'ss' (both 1/sigma).
    The equal-argument forms at (1,1) use the regularized diagonal.
    """
    if 2 * g - 2 + n <= 0:
        raise ValueError("bm_step needs a stable (g, n)")
    wt = _w_tilde_series(g, n, form, _working_order(g, n))
    # the residue reads W-tilde through z^-2 and K through z^(-1 - wt.low)
    K = kernel_K(-1 - wt.low, nvars=n)
    sign = 1 if form == "zs" else -1
    res = K.residue(wt)
    if isinstance(res, (int, Fraction)):
        res = MultiPoly.const(n, res)
    return res * sign


def bm_step_projection(g: int, n: int) -> MultiPoly:
    """W_{g,n} via the odd residueless projection of W-tilde(t1, t1)/eta.

    W-tilde is the residue step's "zz" series, already an expansion in
    w = 1/t1; the projection reads it through w^-1, one order past the
    residue's w^-2, hence the working order plus one."""
    if 2 * g - 2 + n <= 0:
        raise ValueError("stable (g, n) required")
    order = _working_order(g, n) + 1
    proj = odd_projection(_w_tilde_series(g, n, "zz", order), order)
    out = MultiPoly.zero(n)
    t1 = MultiPoly.var(n, 0)
    for i, c in proj.items():
        out = out + t1**i * c
    return out


@lru_cache(maxsize=None)
def w_poly(g: int, n: int) -> MultiPoly:
    """The stable Hurwitz polynomial W_{g,n}, cached; (0,1) returns 0."""
    if (g, n) == (0, 1):
        return MultiPoly.zero(1)
    if (g, n) == (0, 2):
        raise ValueError("the two-point function is not polynomial")
    if 2 * g - 2 + n <= 0:
        raise ValueError(f"unstable (g, n) = ({g}, {n})")
    return bm_step(g, n, _w_form(g, n))


def _w_form(g: int, n: int) -> str:
    """The residue form w_poly computes: the mixed one at (1, 1), where the
    equal-argument forms go through the regularized diagonal."""
    return "zs" if (g, n) == (1, 1) else "zz"


def h_poly_from_fit(g: int, n: int) -> MultiPoly:
    """The stable generating polynomial H_{g,n} = sum_k c_k prod rho_{k_i}."""
    fit = fit_P_polynomial(g, n)
    out = MultiPoly.zero(n)
    for expts, c in fit.poly.terms.items():
        term = MultiPoly.const(n, c)
        for i, k in enumerate(expts):
            term = term * rho_poly(k).embed(n, [i])
        out = out + term
    return out


def w_from_fit(g: int, n: int) -> MultiPoly:
    """Reconstruction sum_k c_k prod rho_{k_i+1}(t_i) from the fitted P,
    as D_1...D_n H_{g,n} since rho_{k+1} = D rho_k."""
    out = h_poly_from_fit(g, n)
    for i in range(n):
        out = apply_D(out, i)
    return out


# -- checks ---------------------------------------------------------------------------


def w_invariants(g: int, n: int) -> dict:
    """Symmetry, per-variable degree and divisibility checks for W_{g,n}."""
    w = w_poly(g, n)
    bound = 6 * g + 2 * n - 3
    degs = [w.degree(i) for i in range(n)]
    divisible = all(all(e[i] >= 2 for i in range(n)) for e in w.terms)
    return {
        "symmetric": w.is_symmetric(),
        "degrees": degs,
        "degree_bound": bound,
        "degree_ok": all(d <= bound for d in degs),
        "divisible_by_t_squared": divisible,
    }


def bm_vs_hurwitz(g: int, n: int, x_order: int = 6) -> dict:
    """Match the x-expansion of W_{g,n} against connected Hurwitz numbers.

    Only the non-increasing exponent tuples mu are read, one per multiset,
    in ascending ``combinations_with_replacement`` order with each tuple
    reversed, so (1, ..., 1) comes first.  That covers every coefficient
    only because W is symmetric, which the ``w-symmetric`` row checks
    separately.  ``mismatch`` is None when every coefficient matches, else
    the first witness (g, n, mu, got, expected); a nonzero coefficient at a
    boundary exponent (a trailing mu_i = 0) is a witness with expected
    value 0.
    """
    w = w_poly(g, n)
    got = x_expand(w, x_order)
    checked = 0
    mismatch = None
    for ascending in combinations_with_replacement(range(1, x_order + 1), n):
        mu = ascending[::-1]
        expected = h_connected(g, mu) * prod(mu) / factorial(branch_count(g, mu))
        if got.get(mu, Fraction(0)) != expected:
            mismatch = (g, n, mu, got.get(mu, Fraction(0)), expected)
            break
        checked += 1
    if mismatch is None:
        for key, val in got.items():
            if key[-1] == 0 and val:
                mismatch = (g, n, key, val, Fraction(0))
                break
    return {
        "g": g,
        "n": n,
        "x_order": x_order,
        "coefficients_checked": checked,
        "mismatch": mismatch,
    }


# -- the cut-and-join identity in t-variables ------------------------------------------


def _h_stable(g: int, n: int, nvars: int, tvars) -> MultiPoly:
    return h_poly_from_fit(g, n).embed(nvars, list(tvars))


def cutjoin_t_check(g: int, n: int) -> dict:
    """Verify the t-variable cut-and-join identity exactly for (g, n): both
    sides as polynomials, and whether they are equal."""
    if 2 * g - 2 + n <= 0:
        raise ValueError("stable (g, n) required")
    nv = n
    H = _h_stable(g, n, nv, range(n))
    lhs = (2 * g - 2 + n) * H
    for k in range(n):
        tk = MultiPoly.var(nv, k)
        # (-1/t_k) D_k H = -t_k (t_k + 1) dH/dt_k
        lhs = lhs - tk * (tk + 1) * H.deriv(k)
    rhs = MultiPoly.zero(nv)
    # cut terms with the recombined coefficient t_k^2 (1+t_j)/(t_k - t_j)
    if n >= 2:
        if (g, n - 1) == (0, 2):
            # fully unstable cut layer: the coefficient products collapse to
            # sum_k t_k^4 (1+t_j)(1+t_m) / ((t_k-t_j)(t_k-t_m))  minus 1,
            # written over the common denominator (t0-t1)(t0-t2)(t1-t2)
            assert n == 3
            t = [MultiPoly.var(nv, i) for i in range(3)]
            total = (
                t[0] ** 4 * (1 + t[1]) * (1 + t[2]) * (t[1] - t[2])
                - t[1] ** 4 * (1 + t[0]) * (1 + t[2]) * (t[0] - t[2])
                + t[2] ** 4 * (1 + t[0]) * (1 + t[1]) * (t[0] - t[1])
            )
            for (a, b) in [(0, 1), (0, 2), (1, 2)]:
                total = divexact_linear_diff(total, a, b)
            rhs = rhs + total - 1
        else:
            for k in range(n):
                for j in range(k + 1, n):
                    # combine the (k,j) and (j,k) terms over (t_k - t_j)
                    tk = MultiPoly.var(nv, k)
                    tj = MultiPoly.var(nv, j)
                    vars_wo_j = [i for i in range(n) if i != j]
                    vars_wo_k = [i for i in range(n) if i != k]
                    Hj = _h_stable(g, n - 1, nv, vars_wo_j)
                    Hk = _h_stable(g, n - 1, nv, vars_wo_k)
                    num = tk**2 * (1 + tj) * apply_D(Hj, k) - tj**2 * (
                        1 + tk
                    ) * apply_D(Hk, j)
                    rhs = rhs + divexact_linear_diff(num, k, j)
    # join (diagonal) terms
    half = Fraction(1, 2)
    if g >= 1:
        if (g - 1, n + 1) == (0, 2):
            assert n == 1
            rhs = rhs + d1d2_h02_diagonal().embed(nv, [0]) * half
        else:
            # D_k D_{n+1} H_{g-1,n+1} with its last variable set to t_k
            dlast = apply_D(h_poly_from_fit(g - 1, n + 1), nv)
            for k in range(n):
                rhs = rhs + apply_D(dlast, k).embed(nv, list(range(nv)) + [k]) * half
    # stable genus/variable splits
    for k in range(n):
        rest = tuple(i for i in range(n) if i != k)
        for g1, A, g2, B in _splits(g, rest):
            def stable_factor(g1, A):
                if 2 * g1 - 2 + (len(A) + 1) <= 0:
                    return None
                return _h_stable(g1, len(A) + 1, nv, (k,) + A)

            f1 = stable_factor(g1, A)
            if f1 is None:
                continue
            f2 = stable_factor(g2, B)
            if f2 is None:
                continue
            rhs = rhs + apply_D(f1, k) * apply_D(f2, k) * half
    return {"g": g, "n": n, "identity": "holds" if lhs == rhs else "fails", "lhs": lhs, "rhs": rhs}


__all__ = [
    "d1d2_h02_diagonal",
    "w_poly",
    "bm_step",
    "bm_step_projection",
    "w_from_fit",
    "h_poly_from_fit",
    "w_invariants",
    "bm_vs_hurwitz",
    "cutjoin_t_check",
]
