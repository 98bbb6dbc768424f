"""Geometry of the Lambert curve x = y e^{-y}.

The x-projection has a single simple branch point P; the deck
transformation sigma exchanging the two sheets near P drives everything:
the odd/even decomposition of poles, the recursion kernel, and the
conversion between t-polynomials and x-expansions.
"""

from hurwitzlab.lambert import (
    eta_series,
    kernel_K,
    lemma2_check,
    rho_poly,
    sigma_tilde_w,
    sigma_z,
    x_expand,
    y_of_x,
)

print("deck transformation sigma(z) solving (1+z)e^{-z} = (1+s)e^{-s}:")
s = sigma_z(6)
print("  ", [str(s.coeff(k)) for k in range(1, 7)])

print("in the t = 1/z chart (note the vanishing 1/t coefficient):")
st = sigma_tilde_w(5)
print("  ", [str(st.coeff(k)) for k in range(-1, 5)])

print()
print("functional inverse of x = y e^{-y} (coefficients m^(m-1)/m!):")
y = y_of_x(6)
print("  ", [str(y.coeff(m)) for m in range(1, 7)])

print()
print("the polynomials rho_k and their x-expansions sum m^(m+k)/m! x^m:")
for k in range(0, 3):
    p = rho_poly(k)
    xs = x_expand(p, 4)
    print(f"  rho_{k} = {p!r}")
    print("     x-expansion:", [str(xs.get((m,), 0)) for m in range(1, 5)])

print()
print("symmetrized rho_k have no pole at the branch point:")
for k, rep in lemma2_check(4).items():
    print(f"  k={k}: holomorphic at P: {rep['holomorphic_at_P']}")

print()
K = kernel_K(4)
print("recursion kernel, leading z-coefficient (t^2(1+t)/2):")
print("  ", K.coeff(1))
print("eta(t1) = sigma(1/t1) - 1/t1 leading coefficient:", eta_series(4).coeff(1))
