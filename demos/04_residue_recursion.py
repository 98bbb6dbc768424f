"""The kernel-residue recursion for the Hurwitz polynomials W_{g,n}.

Starting from W_{0,1} = 0 and the two-point function, each stable W_{g,n}
is a single residue against the kernel on the Lambert curve.  The script
runs the recursion, checks the three argument conventions and the
projection form against each other, and matches x-expansions with
Hurwitz numbers.
"""

from hurwitzlab.bm import (
    bm_step,
    bm_step_projection,
    bm_vs_hurwitz,
    cutjoin_t_check,
    w_from_fit,
    w_invariants,
    w_poly,
)

for g, n in [(0, 3), (1, 1), (0, 4), (1, 2)]:
    w = w_poly(g, n)
    inv = w_invariants(g, n)
    print(f"W_{{{g},{n}}}: {len(w.terms)} monomials, degrees {inv['degrees']}")
    print(f"  symmetric: {inv['symmetric']}, divisible by t_i^2: {inv['divisible_by_t_squared']}")
    print(f"  three residue forms agree: {all(bm_step(g, n, f) == w for f in ('zz', 'zs', 'ss'))}")
    print(f"  projection form agrees:    {bm_step_projection(g, n) == w}")
    print(f"  rho-basis reconstruction:  {w_from_fit(g, n) == w}")

print()
print("W_{1,1} =", w_poly(1, 1))
print()
print("x-expansions match connected Hurwitz numbers:")
for g, n in [(1, 1), (0, 3)]:
    rep = bm_vs_hurwitz(g, n, 4)
    print(f"  (g,n)=({g},{n}): {rep['coefficients_checked']} coefficients checked")

print()
print("the cut-and-join identity holds exactly in the t-variables:")
for g, n in [(0, 3), (1, 1), (1, 2)]:
    print(f"  (g,n)=({g},{n}): {cutjoin_t_check(g, n)['identity']}")
