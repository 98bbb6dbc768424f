"""The charge-zero semi-infinite wedge space made executable.

Basis states are partitions drawn as Maya diagrams; bosonic modes add and
remove border strips; the diagonal transposition operator weights states
by their central character.  Vacuum expectations of the conjugated
raising operators reproduce Hurwitz numbers, and their z-expansion
coefficients obey canonical commutation relations.
"""

from hurwitzlab.fock import (
    a_commutator_suite,
    a_connected,
    a_correlator,
    alpha_apply,
    f2_eigenvalue,
    h_from_a_correlator,
    maya_string,
    vacuum,
    vev_hurwitz,
)

print("Maya diagrams (filled = occupied level, bar at zero):")
for lam in [(), (1,), (2, 1), (3, 1, 1)]:
    print(f"  {str(lam):>10}  {maya_string(lam, 4)}   f2 = {f2_eigenvalue(lam)}")

print()
print("bosonic modes in action: alpha_{-2} on the vacuum")
v = alpha_apply(-2, vacuum())
for lam, c in sorted(v.items()):
    sign = "+" if c > 0 else "-"
    print(f"  {sign}{abs(c)} * v_{lam}")

print()
print("vacuum expectations reproduce Hurwitz numbers:")
for g, mu in [(1, (2,)), (0, (1, 1, 1)), (0, (2, 1))]:
    print(f"  g={g}, mu={mu}: wedge {vev_hurwitz(g, mu)}, correlator route "
          f"{h_from_a_correlator(g, mu)}")

print()
print("one-point function of the raising operator at z = 3:")
one = a_correlator((3,), 1)
print(f"  1/(uz) coefficient: {one.coeff(-1)}   u coefficient: {one.coeff(1)}")

print()
print("genus-zero two-point value at (1, 3) sums the geometric series to 3/4:")
print("  ", a_connected((1, 3), 0).coeff(0))

print()
print("commutation relation [A_1, A_0] = identity on test states:")
print("  ", a_commutator_suite(kmax=1, cutoff=7)[(1, 0)])
