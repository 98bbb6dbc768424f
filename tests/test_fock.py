from fractions import Fraction
from itertools import combinations, permutations

import pytest

from hurwitzlab.fock import (
    _apply,
    _commutators,
    _cut,
    _worst_status,
    a_commutator_suite,
    a_connected,
    a_correlator,
    a_k_operators,
    a_symbolic_matrix,
    a_vev,
    alpha_apply,
    apply_a_integer,
    dim_path,
    e_operator_apply,
    energy,
    f2_eigenvalue,
    h_from_a_correlator,
    level_occupied,
    maya_string,
    pair_exp_alpha1,
    vacuum,
    vev_hurwitz,
)
from hurwitzlab.hurwitz import connected_from_disconnected, disconnected_by_b
from hurwitzlab.multipoly import MultiPoly
from hurwitzlab.partitions import central_character_f2, dim_hook, enumerate_partitions, mn_character
from hurwitzlab.series import Series


def test_vacuum_levels():
    assert level_occupied((), -1)
    assert level_occupied((), -7)
    assert not level_occupied((), 1)
    assert level_occupied((2,), 3)  # 2*2 - 2 + 1 = 3
    assert not level_occupied((2,), -1)


def test_alpha_minus_one_creates_single_box():
    assert alpha_apply(-1, vacuum()) == {(1,): Fraction(1)}


def test_alpha_minus_two_power_sum_signs():
    assert alpha_apply(-2, vacuum()) == {(2,): Fraction(1), (1, 1): Fraction(-1)}


def test_alpha_one_closes_pairing():
    assert alpha_apply(1, alpha_apply(-1, vacuum())) == {(): Fraction(1)}


def test_alpha_commutator_value():
    # [alpha_2, alpha_{-2}] = 2 on the vacuum
    assert alpha_apply(2, alpha_apply(-2, vacuum())) == {(): Fraction(2)}


def test_heisenberg_relation_on_every_state_up_to_energy_4():
    # [alpha_k, alpha_{-l}] = k delta_{kl} on every basis state of energy
    # at most 4, with no energy ceiling on the intermediate states
    for lam in [lam for d in range(5) for lam in enumerate_partitions(d)]:
        v = {lam: Fraction(1)}
        for k in range(1, 4):
            for l in range(1, 4):
                ab = alpha_apply(k, alpha_apply(-l, v))
                ba = alpha_apply(-l, alpha_apply(k, v))
                comm = {nu: ab.get(nu, 0) - ba.get(nu, 0) for nu in ab.keys() | ba.keys()}
                want = {lam: Fraction(k)} if k == l else {}
                assert {nu: c for nu, c in comm.items() if c} == want, (lam, k, l)


def test_wedge_moves_match_the_removal_route():
    # prod alpha_{-mu_i} |0> = sum_lam chi^lam(mu) v_lam, and <0| prod alpha_{mu_i}
    # v_lam = chi^lam(mu): the move signs in both directions against the
    # border-strip removal route
    for d in range(1, 8):
        lams = enumerate_partitions(d)
        for mu in lams:
            chi = {lam: mn_character(lam, mu) for lam in lams}
            v = vacuum()
            for m in mu:
                v = alpha_apply(-m, v)
            assert v == {lam: c for lam, c in chi.items() if c}, mu
            for lam in lams:
                w = {lam: Fraction(1)}
                for m in mu:
                    w = alpha_apply(m, w)
                assert w.get((), 0) == chi[lam], (mu, lam)


def test_f2_matches_partition_route():
    for d in range(0, 7):
        for lam in enumerate_partitions(d):
            assert f2_eigenvalue(lam) == central_character_f2(lam)


def test_dim_path_is_tableau_count():
    for d in range(0, 7):
        for lam in enumerate_partitions(d):
            assert dim_path(lam) == dim_hook(lam)


def test_e_operator_vacuum():
    # E_0(z)|0> = |0>/zeta(z): z^{-1} coefficient 1, z^0 and z^1 vanish
    v = vacuum()
    assert e_operator_apply(0, -1, v) == {(): Fraction(1)}
    assert e_operator_apply(0, 0, v) == {}
    assert e_operator_apply(0, 1, v) == {(): Fraction(-1, 24)}
    # E_k(z)|0> = 0 for k > 0
    for j in range(0, 4):
        assert e_operator_apply(2, j, v) == {}


def test_e_commutator_scalar_case():
    # [E_1(z), E_{-1}(w)] = zeta(w + z) E_0(z + w); on the vacuum the right
    # side is zeta(w+z)/zeta(z+w) = 1, i.e. the (p,q)=(0,0) coefficient is 1
    v = vacuum()

    # z^0 w^0 of E_1(z)E_{-1}(w)|0> - E_{-1}(w)E_1(z)|0>
    a = e_operator_apply(1, 0, e_operator_apply(-1, 0, v))
    b = e_operator_apply(-1, 0, e_operator_apply(1, 0, v))
    comm = dict(a)
    for lam, c in b.items():
        comm[lam] = comm.get(lam, 0) - c
    assert comm == {(): Fraction(1)}


def _e_commutator_bidegree(a, b, p, q, v):
    """[z^p w^q] of (E_a(z) E_b(w) - E_b(w) E_a(z)) v."""
    first = e_operator_apply(a, p, e_operator_apply(b, q, v))
    second = e_operator_apply(b, q, e_operator_apply(a, p, v))
    out = dict(first)
    for lam, c in second.items():
        out[lam] = out.get(lam, 0) - c
    return {lam: c for lam, c in out.items() if c}


def test_e_commutator_diagonal_case():
    # [E_1(z), E_{-1}(w)] = zeta(w + z) E_0(z + w); on v_lambda the right
    # side is the scalar zeta(s) f_lambda(s) at s = z + w.
    from math import comb

    from hurwitzlab.fock import _diagonal_e0
    from hurwitzlab.series import zeta_series

    for lam in [(), (1,), (2, 1)]:
        v = {lam: Fraction(1)}
        g = zeta_series(8) * _diagonal_e0(lam, 8, 1)
        for p in range(0, 3):
            for q in range(0, 3):
                got = _e_commutator_bidegree(1, -1, p, q, v)
                want = comb(p + q, p) * g.coeff(p + q)
                offdiag = {k: c for k, c in got.items() if k != lam}
                assert offdiag == {}, (lam, p, q)
                assert got.get(lam, Fraction(0)) == want, (lam, p, q)


def test_diagonal_e0_at_a_scale():
    # E_0(m x) read directly, and E_0(x) substituted at m x
    from hurwitzlab.fock import _diagonal_e0

    states = [lam for d in range(5) for lam in enumerate_partitions(d)]
    for m in range(1, 7):
        for n in range(11):
            for lam in states:
                got = _diagonal_e0(lam, n, m)
                want = _diagonal_e0(lam, n, 1).compose(Series(1, [m], None))
                assert (got.low, got.coeffs, got.order) == (want.low, want.coeffs, want.order)


def test_e_commutator_determinant_orientation():
    # [E_1(z), E_{-2}(w)] = zeta(w + 2z) E_{-1}(z + w); on the vacuum the
    # right side is zeta(w + 2z) v_(1), pinning the sign convention in the
    # argument of zeta.
    v = vacuum()
    expected = {
        (1, 0): Fraction(2),
        (0, 1): Fraction(1),
        (1, 2): Fraction(1, 4),
        (3, 0): Fraction(1, 3),
        (0, 0): Fraction(0),
        (2, 0): Fraction(0),
    }
    for (p, q), want in expected.items():
        got = _e_commutator_bidegree(1, -2, p, q, v)
        assert got.get((1,), Fraction(0)) == want, (p, q)
        assert all(k == (1,) for k in got), (p, q)


def test_vev_hurwitz_examples():
    assert vev_hurwitz(1, (2,)) == Fraction(1, 2)
    assert vev_hurwitz(0, (1, 1, 1)) == 27
    assert vev_hurwitz(0, (1,)) == 1


def test_vev_matches_character_route():
    for d in range(1, 7):
        for mu in enumerate_partitions(d):
            for b in range(0, 7):
                if (b - d - len(mu)) % 2 == 0:
                    g2 = b - d - len(mu) + 2
                    if g2 < 0 or g2 % 2:
                        continue
                    g = g2 // 2
                    assert vev_hurwitz(g, mu) == disconnected_by_b(mu, b), (mu, b)


def _exp_f2_apply(v, u_order):
    from math import factorial as fac

    out = {}
    for lam, c in v.items():
        f2 = f2_eigenvalue(lam)
        out[lam] = c * Series(0, [f2**p / fac(p) for p in range(u_order + 1)], u_order)
    return out


def test_hurwexpr_u_series_and_conjugation():
    # <e^{alpha_1} e^{u F2} prod alpha_{-mu}/mu> has u^b coefficient equal to
    # the b-transposition disconnected number over b!; and inserting
    # e^{-u F2} e^{-alpha_1} on the right changes nothing because both
    # operators fix the vacuum.
    from math import factorial as fac

    u_order = 4
    for mu in [(1,), (2,), (2, 1), (1, 1)]:
        v = vacuum(one=Series.const(Fraction(1), u_order))
        assert alpha_apply(1, v) == {}  # alpha_1 kills the vacuum
        assert f2_eigenvalue(()) == 0  # so does the exponent of e^{-u F2}
        for m in reversed(mu):
            v = {lam: c * Fraction(1, m) for lam, c in alpha_apply(-m, v).items()}
        series = pair_exp_alpha1(_exp_f2_apply(v, u_order))
        for b in range(0, u_order + 1):
            assert series.coeff(b) == disconnected_by_b(mu, b) / fac(b), (mu, b)


def test_maya_string():
    s = maya_string((), 3)
    assert s == "○○○|●●●"


def test_one_point_a_correlator_printed_terms():
    # <A(z,uz)> = 1/(uz) + z(z-1)/24 u + O(u^2) at integer z
    for m in range(1, 7):
        got = a_correlator((m,), 1)
        assert got.coeff(-1) == Fraction(1, m), m
        assert got.coeff(0) == 0, m
        assert got.coeff(1) == Fraction(m * (m - 1), 24), m


def test_one_point_connected_column():
    # genus-zero connected one-point coefficient is 1/z
    got = a_connected((3,), 0)
    assert got.coeff(-1) == Fraction(1, 3)


def test_two_point_connected_genus_zero():
    # z1 sum (-1)^k (z1/z2)^k at (z1, z2) = (1, 3) is 3/4
    conn = a_connected((1, 3), 0)
    assert conn.coeff(0) == Fraction(3, 4)


def test_two_point_symmetry():
    a = a_connected((1, 3), 1)
    b = a_connected((3, 1), 1)
    for q in range(-2, 2):
        assert a.coeff(q) == b.coeff(q)


def test_hconexpr_reproduces_hurwitz():
    assert h_from_a_correlator(1, (2,)) == Fraction(1, 2)
    assert h_from_a_correlator(0, (1, 1, 1)) == 24
    assert h_from_a_correlator(0, (2, 1)) == 4


def test_symbolic_vacuum_expectation_printed():
    # x = uz: u^{-1}: 1/z; u^0: 0; u^1: z(z-1)/24
    got = a_symbolic_matrix(3, 6)[((), ())]
    z = MultiPoly.var(1, 0)
    assert got.low == -1 and got.order == 3
    assert got.coeff(-1) == 1
    assert got.coeff(0) == 0
    assert got.coeff(1) == (z - 1) * Fraction(1, 24)


def test_a_correlator_polynomiality_one_point():
    from hurwitzlab.fock import a_polynomiality_check

    rep = a_polynomiality_check(1, 1, 2, [(4,), (5,)])
    assert rep["symmetric"] and rep["miss"] is None
    assert rep["poly"].terms == {(0,): Fraction(-1, 24), (1,): Fraction(1, 24)}


def test_a_correlator_polynomiality_two_point():
    # the u^2 layer of the connected two-point correlator interpolates to
    # the same symmetric polynomial as the scaled Hurwitz fit
    from hurwitzlab.fock import a_polynomiality_check
    from hurwitzlab.hurwitz import fit_P_polynomial

    rep = a_polynomiality_check(2, 2, 2, [(4, 1)])
    assert rep["symmetric"] and rep["miss"] is None
    assert rep["poly"] == fit_P_polynomial(1, 2).poly


def test_unstable_pairs_rejected():
    from hurwitzlab.fock import a_polynomiality_check

    with pytest.raises(ValueError):
        a_polynomiality_check(1, -1, 2, [])
    with pytest.raises(ValueError):
        a_polynomiality_check(2, 0, 2, [])


def test_commutator_identity_cases():
    # [A_1, A_0] = +1, [A_0, A_1] = -1, [A_2, A_2] = 0
    r = a_commutator_suite(kmax=1, u_order=2, cutoff=5)
    assert r[(1, 0)] == "pass", r
    # with (2, 1) among the states, cutoff 5 leaves kmax 2 inconclusive
    r = a_commutator_suite(kmax=2, u_order=2, cutoff=6)
    assert r[(0, 1)] == "pass", r
    assert r[(2, 2)] == "pass", r


def test_commutator_suite_reads_only_through_z_kmax():
    # the symbolic matrix is built at z-order kmax, so kmax above the old
    # fixed z-order 4 runs instead of raising
    r = a_commutator_suite(kmax=5, cutoff=2)
    assert len(r) == 11 * 11
    assert set(r.values()) <= {"pass", "inconclusive"}, r


def test_commutator_pair_that_compared_nothing_is_inconclusive():
    # no test state fits under a negative cutoff
    r = a_commutator_suite(kmax=1, cutoff=-1)
    assert len(r) == 9
    assert set(r.values()) == {"inconclusive"}, r


def test_integer_a_operator_drops_states_above_the_cutoff():
    # A(2, 2u) raises the vacuum to energy 2, above the cutoff 1
    v = apply_a_integer(2, vacuum(one=Series.const(Fraction(1), 4)), 4, 1)
    assert set(v) <= {(), (1,)}


def test_integer_a_operator_is_linear_over_mixed_energies():
    # a vector's operator build reaches the k of its highest energy; each
    # state's part must equal its application alone, whose build stops at
    # its own energy.  E_2 takes the hook (2,) to the vacuum, so a build
    # one k short differs between the two
    one = Series.const(Fraction(1), 10)
    parts = {(): one, (2,): one * 3, (2, 1): one * 7, (3,): one * Fraction(-2, 5)}
    for cutoff in (6, 8):
        for m in (1, 2):
            got = apply_a_integer(m, parts, 10, cutoff)
            want = {}
            for lam, c in parts.items():
                for nu, s in apply_a_integer(m, {lam: c}, 10, cutoff).items():
                    want[nu] = want[nu] + s if nu in want else s
            assert got == {nu: s for nu, s in want.items() if not s.is_zero()}, (cutoff, m)


def test_integer_a_operator_moves_a_state_above_its_cutoff():
    # (3,) sits above the cutoff 2, yet E_1, E_2 and E_3 take it into the
    # window: the build must reach k = 3, the move to the vacuum
    v = {(3,): Series.const(Fraction(1), 10)}
    low = apply_a_integer(1, v, 10, 2)
    high = apply_a_integer(1, v, 10, 3)
    assert () in low
    assert low == {nu: s for nu, s in high.items() if energy(nu) <= 2}


def test_apply_drops_only_exact_zeros():
    # a zero known only through u^-3, or a cancellation through u^4, leaves
    # unknown coefficients: dropping it would let a later default zero claim
    # coefficients that nothing computed
    one = Series.const(Fraction(1), 5)
    got = _apply({(): Series.zero(-3)}, lambda lam: {lam: one})
    assert got == {(): Series.zero(-3)}
    cancel = {(1,): Series.const(Fraction(1), 4), (2,): Series.const(Fraction(-1), 4)}
    assert _apply(cancel, lambda lam: {(): one}) == {(): Series.zero(4)}
    # exact cancellations drop, for scalars and for exact series
    assert _apply({(1,): Fraction(1), (2,): Fraction(-1)}, lambda lam: {(): Fraction(2)}) == {}
    exact = {(1,): Series.const(Fraction(1)), (2,): Series.const(Fraction(-1))}
    assert _apply(exact, lambda lam: {(): Series.const(Fraction(2))}) == {}


def test_graded_a_vev_matches_the_plain_chain():
    # the reference applies every operator at the full cutoff and truncates
    # only the vacuum coefficient, at the end
    for d in range(1, 4):
        for lam in enumerate_partitions(d):
            for mu in {lam, lam[::-1]}:
                for u_order in range(-1, 3):
                    work = u_order + 2 * d + len(mu) + 6
                    base = d + max(u_order, 0) + 4
                    for cutoff in (base, base + 2):
                        v = vacuum(one=Series.const(Fraction(1), work))
                        for m in reversed(mu):
                            v = apply_a_integer(m, v, work, cutoff)
                        want = v[()].truncate(u_order)
                        got = a_vev(mu, u_order, cutoff)
                        assert (got.low, got.coeffs, got.order) == (
                            want.low, want.coeffs, want.order), (mu, u_order, cutoff)


def _graded_chain(mu, u_order, work):
    """a_vev's chain at cutoff |mu|, at the working order ``work``."""
    v = vacuum(one=Series.const(Fraction(1), work))
    for left in range(len(mu) - 1, -1, -1):
        v = apply_a_integer(mu[left], v, work, sum(mu) if left else 0)
        v = {lam: c.truncate(u_order + left - energy(lam)) for lam, c in v.items()}
    return v.get((), Series.zero(u_order)).truncate(u_order)


def test_certified_work_order_equals_the_old_one():
    # work = u_order + max(len(mu), |mu| - 1) against the earlier guess
    # u_order + 2|mu| + len(mu) + 6, validity orders included
    for d in range(1, 6):
        for lam in enumerate_partitions(d):
            for mu in set(permutations(lam)):
                for u_order in range(-1, 4):
                    got = a_vev(mu, u_order, d)
                    want = _graded_chain(mu, u_order, u_order + 2 * d + len(mu) + 6)
                    assert (got.low, got.coeffs, got.order) == (
                        want.low, want.coeffs, want.order), (mu, u_order)


def test_work_order_one_below_the_certified_one_raises(monkeypatch):
    # A(1, u) on the vacuum is its E_0 diagonal, of u-valuation -1: built
    # through u^(u_order + 1 - 1) it is known only through u^(u_order - 1)
    from hurwitzlab import fock

    real = fock.apply_a_integer
    monkeypatch.setattr(fock, "apply_a_integer", lambda m, v, w, cutoff: real(m, v, w - 1, cutoff))
    for u_order in range(-1, 4):
        with pytest.raises(ValueError, match="working order too small"):
            fock.a_vev((1,), u_order, 1)


def test_one_point_correlator_builds_only_c0(monkeypatch):
    # the one operator takes the vacuum to the vacuum, through E_0 alone
    from hurwitzlab import fock

    fock._a_correlator.cache_clear()
    real, calls = fock._integer_coeff, []
    monkeypatch.setattr(fock, "_integer_coeff", lambda *a: calls.append(a) or real(*a))
    try:
        a_correlator((6,), 1)
    finally:
        fock._a_correlator.cache_clear()
    assert set(calls) == {(6, 6, 0)}


def test_integer_coefficients_are_shared_across_tops():
    # c_k depends on (m, w, k) alone: a chain reaching k = 2 after one that
    # read only c_0 builds c_1 and c_2, and reads c_0 back
    from hurwitzlab import fock

    fock._integer_coeff.cache_clear()
    one = Series.const(Fraction(1), 5)
    apply_a_integer(1, vacuum(one=one), 5, 0)
    assert fock._integer_coeff.cache_info().misses == 1
    apply_a_integer(1, {(2,): one}, 5, 2)
    info = fock._integer_coeff.cache_info()
    assert (info.misses, info.currsize) == (3, 3), info


def test_symbolic_matrix_at_a_cutoff_is_the_window_of_a_deeper_one():
    # the commutator suite's one build at cutoff - 1 holds the entries a
    # deeper build would give the rows it reads
    for z_order, cutoff in ((2, 6), (3, 7)):
        deep = a_symbolic_matrix(z_order, cutoff + 2)
        window = {key: biv for key, biv in deep.items() if max(map(energy, key)) <= cutoff}
        shallow = a_symbolic_matrix(z_order, cutoff)
        assert list(window) == list(shallow)
        for key, biv in shallow.items():
            assert biv == window[key] and biv.order == z_order, key


def test_commutator_suite_builds_one_symbolic_matrix(monkeypatch):
    from hurwitzlab import fock

    real, calls = fock.a_symbolic_matrix, []
    monkeypatch.setattr(fock, "a_symbolic_matrix", lambda *a: calls.append(a) or real(*a))
    assert set(a_commutator_suite(1, 2, 5).values()) == {"pass"}
    assert calls == [(1, 4)]


@pytest.mark.parametrize("kmax, u_order, cutoff", [(1, 2, 5), (2, 2, 6), (3, 2, 7)])
def test_single_run_commutators_equal_the_deep_matrix_run(kmax, u_order, cutoff):
    # the run reads no row above cutoff - 1: reading the whole matrix at
    # cutoff + 2, or its window at the cutoff, gives the same commutators,
    # validity orders included
    deep = a_symbolic_matrix(kmax, cutoff + 2)
    window = {key: biv for key, biv in deep.items() if max(map(energy, key)) <= cutoff}
    got = _commutators(a_symbolic_matrix(kmax, cutoff - 1), kmax, u_order, cutoff)
    assert len(got) == (2 * kmax + 1) ** 2
    assert _commutators(deep, kmax, u_order, cutoff) == got
    assert _commutators(window, kmax, u_order, cutoff) == got


def test_correlator_runs_one_chain_at_cutoff_mu(monkeypatch):
    from hurwitzlab import fock

    fock._a_correlator.cache_clear()
    real, calls = fock.a_vev, []
    monkeypatch.setattr(fock, "a_vev", lambda *a: calls.append(a) or real(*a))
    try:
        a_correlator((3, 1), 1)
    finally:
        fock._a_correlator.cache_clear()
    assert calls == [((3, 1), 1, 4)]


def test_correlator_equals_the_outer_cutoff_run():
    # no state of the chain goes above |mu|, so the cutoff |mu| equals the
    # outer cutoff |mu| + max(u_order, 0) + 6 on every ordering
    for d in range(1, 5):
        for lam in enumerate_partitions(d):
            for mu in set(permutations(lam)):
                for u_order in range(-1, 3):
                    got = a_correlator(mu, u_order)
                    want = a_vev(mu, u_order, d + max(u_order, 0) + 6)
                    assert (got.low, got.coeffs, got.order) == (
                        want.low, want.coeffs, want.order), (mu, u_order)


def test_symbolic_matrix_builds_share_no_entries():
    # each build keeps its own entry memo: a shallower build must not leak
    # its shorter entries into a deeper one, nor a build at another cutoff
    # change one built before it
    a_symbolic_matrix(1, 6)
    before = a_symbolic_matrix(2, 6)
    a_symbolic_matrix(2, 8)
    after = a_symbolic_matrix(2, 6)
    assert list(before) == list(after) and len(before) == 300
    for key, biv in before.items():
        assert biv == after[key] and biv.order == 2, key


def test_symbolic_matrix_is_a_truncation_of_a_deeper_one():
    # each c_k is kept only through total degree z_order + 1; a deeper build
    # must give the same operators A_k, validity orders included, and cut
    # back to z^2 the same entries
    low = a_symbolic_matrix(2, 6)
    high = a_symbolic_matrix(4, 6)
    assert set(low) == set(high) and len(low) == 300
    ks = range(-2, 3)
    assert a_k_operators(low, ks, 10) == a_k_operators(high, ks, 10)
    for key, entry in low.items():
        assert entry == _cut(high[key], 2), key


def _double_a(monkeypatch, k):
    """Double A_k wherever the suite extracts its operators."""
    from hurwitzlab import fock

    real = fock.a_k_operators

    def doubled(matrix, ks, u_order):
        ops = real(matrix, ks, u_order)
        ops[k] = {lam: {nu: c * 2 for nu, c in row.items()} for lam, row in ops[k].items()}
        return ops

    monkeypatch.setattr(fock, "a_k_operators", doubled)


def test_commutator_suite_fails_a_doubled_operator(monkeypatch):
    # [2A_1, A_0] = 2 and [A_0, 2A_1] = -2: the negated pair and the band
    # cut must not hide either failure
    _double_a(monkeypatch, 1)
    r = a_commutator_suite(1, 2, 6)
    assert len(r) == 9
    assert {p for p, s in r.items() if s != "pass"} == {(1, 0), (0, 1)}, r
    assert r[(1, 0)] == r[(0, 1)] == "fail", r


def test_commutator_suite_fails_a_doubled_a2(monkeypatch):
    # [2A_2, A_-1] = -2: only the pair with k + l = 1 tells the factor, as
    # [A_k, A_l] vanishes for every other pair whatever the scale
    _double_a(monkeypatch, 2)
    r = a_commutator_suite(2, 2, 6)
    assert len(r) == 25
    assert {p for p, s in r.items() if s != "pass"} == {(2, -1), (-1, 2)}, r
    assert r[(2, -1)] == r[(-1, 2)] == "fail", r


def test_worst_status_ranks_fail_over_inconclusive_over_pass():
    assert _worst_status({"pass"}) == "pass"
    assert _worst_status({"pass", "inconclusive"}) == "inconclusive"
    assert _worst_status({"inconclusive", "fail"}) == "fail"
    assert _worst_status(set()) == "pass"


def test_connected_work_order_equals_the_old_headroom():
    # work = u_order + n - 1 against the earlier u_order + n + 1: Series ==
    # compares the validity orders and, unless both are 0, low and coefficients
    for d in range(1, 6):
        for mu in enumerate_partitions(d):
            n = len(mu)
            for u_order in range(0, 4):
                disc = {frozenset(s): a_correlator(tuple(mu[i] for i in s), u_order + n + 1)
                        for k in range(1, n + 1) for s in combinations(range(n), k)}
                want = connected_from_disconnected(disc, range(n)).truncate(u_order)
                got = a_connected(mu, u_order)
                assert got == want and got.order == u_order, (mu, u_order)


def test_connected_work_order_one_below_raises(monkeypatch):
    # the root's u^-1 times the rest's u^(1-n) is then unknown at u^u_order
    from hurwitzlab import fock

    real = fock.a_correlator
    monkeypatch.setattr(fock, "a_correlator", lambda mu, w: real(mu, w - 1))
    for d in range(1, 6):
        for mu in enumerate_partitions(d):
            for u_order in range(0, 4):
                with pytest.raises(ValueError, match="working order too small"):
                    fock.a_connected(mu, u_order)
