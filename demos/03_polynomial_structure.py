"""Polynomiality of scaled Hurwitz numbers.

Dividing h(g; mu) by b! prod mu_i^{mu_i}/mu_i! leaves a symmetric
polynomial P_{g,n}(mu_1..mu_n) of total degree at most D = 3g - 3 + n.
The fits below interpolate it in total degree D + 1 from exact values on
the simplex {mu >= 1 : sum(mu_i - 1) <= D + 1} and verify extra points
exactly; a single holdout mismatch would disprove polynomiality at this
(g, n), and a fit of degree D + 1 would break the bound.
"""

from hurwitzlab.hurwitz import fit_P_polynomial, hurwitz_scaled_value

CASES = [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1)]

for g, n in CASES:
    fit = fit_P_polynomial(g, n)
    rep = fit.report
    print(f"(g, n) = ({g}, {n})")
    print(f"  P = {fit.poly!r}")
    print(
        f"  fit degree {rep['fit_degree']} on {rep['points']} points,"
        f" total degree {rep['total_degree']}"
        f" (bound {rep['degree_bound']}), symmetric: {rep['symmetric']},"
        f" holdout exact: {rep['holdout_ok']}"
    )

print()
print("spot values of the scaled numbers (these sit on the polynomial):")
for mu in [(1,), (2,), (3,), (4,)]:
    print(f"  g=1, mu={mu}: {hurwitz_scaled_value(1, mu)}")
print("against P_{1,1}(mu) = (mu - 1)/24")
