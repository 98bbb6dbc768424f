import hashlib
import json
from fractions import Fraction
from math import factorial, prod

import pytest

from hurwitzlab.cli import main
from hurwitzlab.hodge import (
    _mult_factor,
    bergman_compat_check,
    givental_apply,
    hodge_integral,
    hodge_potential,
    kw_potential,
    r_from_curve,
    r_hodge,
    wk_correlator,
    wk_from_potential,
)
from hurwitzlab.partitions import enumerate_partitions


def test_wk_base_values():
    assert wk_correlator(0, (0, 0, 0)) == 1
    assert wk_correlator(1, (1,)) == Fraction(1, 24)
    assert wk_correlator(0, (1, 0, 0, 0)) == 1
    assert wk_correlator(0, (0, 0, 0, 0)) == 0  # off the dimension shell


def test_wk_known_table():
    # genus 0
    assert wk_correlator(0, (2, 0, 0, 0, 0)) == 1
    assert wk_correlator(0, (1, 1, 0, 0, 0)) == 2
    # genus 1
    assert wk_correlator(1, (2, 0)) == Fraction(1, 24)
    assert wk_correlator(1, (1, 1)) == Fraction(1, 24)
    assert wk_correlator(1, (3, 0, 0)) == Fraction(1, 24)
    assert wk_correlator(1, (2, 1, 0)) == Fraction(1, 12)
    assert wk_correlator(1, (1, 1, 1)) == Fraction(1, 12)
    # genus 2
    assert wk_correlator(2, (4,)) == Fraction(1, 1152)
    assert wk_correlator(2, (5, 0)) == Fraction(1, 1152)
    assert wk_correlator(2, (4, 1)) == Fraction(1, 384)
    assert wk_correlator(2, (3, 2)) == Fraction(29, 5760)


def test_wk_dilaton_step_keeps_the_dvv_values():
    # values of the DVV pivot alone, from before the dilaton step, which
    # reads a tau_1 as 2g - 2 + n times the correlator of the n others
    assert wk_correlator(2, (1, 4)) == Fraction(1, 384)
    assert wk_correlator(1, (1, 1, 1)) == Fraction(1, 12)
    assert wk_correlator(3, (1, 7)) == Fraction(5, 82944)
    assert wk_correlator(4, (10,)) == Fraction(1, 7962624)


def test_wk_genus0_closed_form():
    # <tau_{d_1}...tau_{d_n}>_0 = (n-3)!/prod d_i!
    from math import factorial
    from itertools import combinations_with_replacement

    for n in range(3, 8):
        for ds in combinations_with_replacement(range(0, n - 2), n):
            if sum(ds) != n - 3:
                continue
            want = Fraction(factorial(n - 3))
            for d in ds:
                want /= factorial(d)
            assert wk_correlator(0, ds) == want, ds


def test_kw_potential_entries():
    pot = kw_potential(1, 4, 4)
    assert pot[(0, (0, 0, 0))] == Fraction(1, 6)  # 1/3!
    assert pot[(1, (1,))] == Fraction(1, 24)
    for (g, mono), c in pot.items():
        assert sum(mono) == 3 * g - 3 + len(mono)


def test_identity_action_is_identity():
    pot = kw_potential(2, 6, 6)
    assert givental_apply(pot, {}, 2, 6, 6) == pot


def test_dimension_grading_of_image():
    pot = hodge_potential(2, 6, 6)
    for (g, mono), c in pot.items():
        defect = 3 * g - 3 + len(mono) - sum(mono)
        assert 0 <= defect <= g, (g, mono)


def test_psi_layer_survives_untouched():
    # defect-zero coefficients of the image equal the bare correlators
    pot = hodge_potential(2, 6, 6)
    for (g, mono), c in kw_potential(2, 6, 6).items():
        assert pot.get((g, mono)) == c


def test_hodge_values_genus1():
    assert hodge_integral(1, (1,)) == Fraction(1, 24)
    assert hodge_integral(1, (0,)) == Fraction(-1, 24)  # -lambda_1
    assert hodge_integral(1, (0, 0)) == 0
    # -lambda_1 psi_1 on the two-pointed space
    assert hodge_integral(1, (1, 0)) == Fraction(-1, 24)
    assert hodge_integral(1, (1, 1)) == Fraction(1, 24)
    assert hodge_integral(0, (0, 0, 0)) == 1


def test_hodge_values_genus2():
    # classical values: psi^4, lambda_1 psi^3, lambda_2 psi^2 on the
    # genus-2 one-pointed space
    assert hodge_integral(2, (4,)) == Fraction(1, 1152)
    assert hodge_integral(2, (3,)) == Fraction(-1, 480)
    assert hodge_integral(2, (2,)) == Fraction(7, 5760)
    assert hodge_integral(2, (1,)) == 0
    assert hodge_integral(2, (0,)) == 0


# b_g = int psi^(2g-2) lambda_g over M_{g,1}, the lambda_g formula's constant
# (Faber-Pandharipande, Hodge integrals and Gromov-Witten theory)
LAMBDA_G = {1: Fraction(1, 24), 2: Fraction(7, 5760), 3: Fraction(31, 967680)}


@pytest.mark.parametrize("g, n", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_lambda_g_integrals(g, n):
    # int psi^a lambda_g = C(2g - 3 + n; a) b_g; the alternating Hodge class
    # carries lambda_g with sign (-1)^g
    total = 2 * g - 3 + n
    for lam in enumerate_partitions(total):
        if len(lam) > n:
            continue
        ks = lam + (0,) * (n - len(lam))
        want = (-1) ** g * Fraction(factorial(total), prod(factorial(k) for k in ks)) * LAMBDA_G[g]
        assert hodge_integral(g, ks) == want, ks


@pytest.mark.parametrize(
    "caps, digest",
    [
        ((2, 6, 6), "233d1dd27426a48b87716f6bcd8058dc811ea0161d81829f785cfd4e1f47bcbf"),
        ((3, 1, 7), "6944194f419056d8e43829664098f07a2563fb96c6b2ffdb8027ac3bc549afeb"),
    ],
)
def test_hodge_potential_is_pinned(caps, digest):
    # sha256 of the sorted items, recorded before the flow was last rewritten
    pot = hodge_potential(*caps)
    assert hashlib.sha256(repr(sorted(pot.items())).encode()).hexdigest() == digest


def test_hodge_integral_reads_the_potential_at_the_query_caps():
    # each value comes from the potential at caps (g, n, 3g-3+n), not (2, 6, 6)
    entries = [(g, mono, c) for (g, mono), c in hodge_potential(2, 6, 6).items() if len(mono) <= 5]
    assert len(entries) == 124
    for g, mono, c in entries:
        assert hodge_integral(g, mono) / _mult_factor(mono) == c, (g, mono)


def test_cli_elsv_genus_3(capsys):
    assert main(["elsv", "--g", "3", "--n", "1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["checks"]
    assert all(row["status"] == "pass" for row in rep["checks"])


def test_wk_from_potential_roundtrip():
    assert wk_from_potential(1, (1, 1)) == Fraction(1, 24)
    assert wk_from_potential(0, (1, 1, 0, 0, 0)) == 2
    assert wk_from_potential(3, (7,)) == Fraction(1, 82944)


def test_r_hodge_printed():
    r = r_hodge(3)
    assert r.coeff(0) == 1
    assert r.coeff(1) == Fraction(1, 12)
    assert r.coeff(2) == Fraction(1, 288)
    assert r.coeff(3) == Fraction(-139, 51840)


def test_r_symplectic_unitarity():
    # R(z) R(-z) = 1
    from hurwitzlab.series import Series

    r = r_hodge(8)
    neg = Series(0, [c * (-1) ** k for k, c in enumerate(r.coeffs)], 8)
    prod = r * neg
    assert prod.coeff(0) == 1
    for k in range(1, 9):
        assert prod.coeff(k) == 0


def test_r_from_curve_matches_bernoulli_exponential():
    a = r_from_curve(8)
    b = r_hodge(8)
    for k in range(0, 9):
        assert a.coeff(k) == b.coeff(k), k


def test_r_hodge_z4_two_routes():
    # exp of the sum vs product of individual exponentials
    from hurwitzlab.rationals import bernoulli
    from hurwitzlab.series import Series

    order = 6
    total = r_hodge(order)
    prod = Series.const(Fraction(1), order)
    n = 1
    while 2 * n - 1 <= order:
        c = bernoulli(2 * n) / (2 * n * (2 * n - 1))
        term = Series(2 * n - 1, [c], order)
        prod = prod * term.exp()
        n += 1
    for k in range(order + 1):
        assert total.coeff(k) == prod.coeff(k)


def test_bergman_compatibility():
    report = bergman_compat_check()
    assert report["identity"]
    assert report["specialization_y2_eq_2y1"]


def test_calibration_against_11_fit():
    # the quantization convention is pinned by the (1,1) Hurwitz fit:
    # P_{1,1}(mu) = -1/24 + mu/24
    from hurwitzlab.hurwitz import fit_P_polynomial

    fit = fit_P_polynomial(1, 1)
    assert hodge_integral(1, (0,)) == fit.poly.coeff((0,))
    assert hodge_integral(1, (1,)) == fit.poly.coeff((1,))
