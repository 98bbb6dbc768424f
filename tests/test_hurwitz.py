import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import factorial, prod

import pytest

from hurwitzlab.hurwitz import (
    _f2_dim,
    _f2_weights,
    ConflictError,
    HurwitzTable,
    PolynomialityError,
    ResourceGuardError,
    branch_count,
    cut_and_join_evolve,
    disconnected_by_b,
    fit_P_polynomial,
    h_bruteforce,
    h_connected,
    h_connected_cutjoin,
    hurwitz_scaled_value,
    simplex_interpolate,
)
from hurwitzlab.multipoly import MultiPoly
from hurwitzlab.partitions import (
    central_character_f2,
    dim_hook,
    enumerate_partitions,
    mn_character,
)


def test_branch_count():
    assert branch_count(1, (2,)) == 3
    assert branch_count(0, (1, 1, 1)) == 4


def test_disconnected_character_values():
    assert disconnected_by_b((1, 1, 1), branch_count(0, (1, 1, 1))) == 27
    assert disconnected_by_b((2,), branch_count(1, (2,))) == Fraction(1, 2)
    assert disconnected_by_b((1,), branch_count(0, (1,))) == 1
    # b = 0 identity cover for every degree
    for d in range(1, 7):
        mu = (1,) * d
        assert disconnected_by_b(mu, 0) == 1


def _random_partition(rng, d):
    parts = []
    while d:
        parts.append(rng.randint(1, d))
        d -= parts[-1]
    return tuple(sorted(parts, reverse=True))


def test_bead_f2_and_dim_match_the_content_sum_and_hook_lengths():
    # lam as |lam| beads: the k-th part from the top at lam_k + |lam| - 1 - k;
    # every partition through d = 12, then seeded samples through d = 30,
    # where removing first rows reaches its deepest rests
    rng = random.Random(29)
    samples = [lam for d in range(0, 13) for lam in enumerate_partitions(d)]
    samples += [_random_partition(rng, d) for d in range(13, 31) for _ in range(12)]
    samples += [(1,) * 30, (30,), (5,) * 6, (6,) * 5, (8, 7, 6, 5, 3, 1)]
    for lam in samples:
        d = sum(lam)
        parts = lam + (0,) * (d - len(lam))
        beads = sum(1 << (a + d - 1 - k) for k, a in enumerate(parts))
        assert _f2_dim(beads) == (central_character_f2(lam), dim_hook(lam)), lam


def test_character_count_matches_the_removal_route():
    # sum over lam of dim * chi^lam(mu) * f2^b / d!, chi by removing border
    # strips from lam, f2 the content sum; b of the wrong parity gives 0
    for d in range(1, 9):
        lams = enumerate_partitions(d)
        for mu in lams:
            terms = [(dim_hook(lam) * mn_character(lam, mu), central_character_f2(lam))
                     for lam in lams]
            for b in range(0, 11):
                want = Fraction(sum(w * f2**b for w, f2 in terms), factorial(d))
                assert disconnected_by_b(mu, b) * prod(mu) == want, (mu, b)
                if (b - d + len(mu)) % 2:
                    assert want == 0, (mu, b)


def test_f2_weights_of_the_impossible_parity_are_empty():
    # a product of b transpositions has sign (-1)^b, so b = d - len(mu)
    # (mod 2); the other parity's sum is empty only because the bead column
    # pairs lam with its conjugate, of opposite f2 and sign chi^lam(mu)
    # times (-1)^(d - len(mu))
    for d in range(1, 13):
        for mu in enumerate_partitions(d):
            weights = _f2_weights(mu)
            assert weights[(d - len(mu)) % 2], mu
            assert weights[(d - len(mu) + 1) % 2] == (), mu
            assert all(f >= 0 and c for part in weights for f, c in part), mu


def test_connected_values():
    assert h_connected(0, (1, 1, 1)) == 24
    assert h_connected(1, (1,)) == 0
    assert h_connected(0, (2, 1)) == 4
    for a in range(1, 7):
        assert h_connected(0, (a,)) == Fraction(a) ** (a - 3) * 1, a
    # degree-4 identity-profile count: 2880 transitive 6-tuples
    assert h_connected(0, (1, 1, 1, 1)) == 2880


def test_connected_no_admissible_splits():
    assert disconnected_by_b((1, 1), 2) == 1
    assert h_connected(0, (1, 1)) == 1


def test_bruteforce_small():
    assert h_bruteforce(0, (1, 1, 1)) == 24
    assert h_bruteforce(1, (2,)) == Fraction(1, 2)
    assert h_bruteforce(0, (2, 1)) == h_connected(0, (2, 1))
    assert h_bruteforce(0, (1,)) == 1
    assert h_bruteforce(1, (1,)) == 0


def _literal_transitive_counts(d: int, b: int) -> Counter:
    """Every b-tuple of transpositions in S_d multiplied out, the transitive
    ones tallied by the cycle type of the product."""
    counts = Counter()
    for taus in product(combinations(range(d), 2), repeat=b):
        perm, parent = list(range(d)), list(range(d))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for i, j in taus:
            perm[i], perm[j] = perm[j], perm[i]
            parent[find(i)] = find(j)
        if len({find(x) for x in range(d)}) > 1:
            continue
        seen, cycles = set(), []
        for start in range(d):
            length, x = 0, start
            while x not in seen:
                seen.add(x)
                x, length = perm[x], length + 1
            if length:
                cycles.append(length)
        counts[tuple(sorted(cycles, reverse=True))] += 1
    return counts


def test_bruteforce_matches_a_literal_enumeration():
    # all C(d, 2)^b tuples for d <= 4, b <= 5, normalised by |Aut(mu)|/d!
    for d in range(1, 5):
        for b in range(0, 6):
            counts = _literal_transitive_counts(d, b)
            for mu in enumerate_partitions(d):
                twice_g = b - branch_count(0, mu)
                aut = prod(factorial(m) for m in Counter(mu).values())
                expected = Fraction(aut * counts[mu], factorial(d))
                if twice_g < 0 or twice_g % 2:
                    assert expected == 0, (mu, b)
                    continue
                assert h_bruteforce(twice_g // 2, mu) == expected, (mu, b)


def test_bruteforce_one_part_closed_form_at_the_degree_guard():
    assert h_bruteforce(0, (7,)) == 7**4


def test_bruteforce_guard():
    with pytest.raises(ResourceGuardError):
        h_bruteforce(0, (8, 1))
    with pytest.raises(ResourceGuardError):
        h_bruteforce(4, (2,))


def test_cut_and_join_matches_character_route():
    table = cut_and_join_evolve(d_max=6, b_max=8)
    for d in range(1, 7):
        for mu in enumerate_partitions(d):
            for b in range(0, 9):
                assert table[(mu, b)] == disconnected_by_b(mu, b), (mu, b)


def test_cut_and_join_seed_steps():
    table = cut_and_join_evolve(d_max=2, b_max=2)
    assert table[((2,), 1)] == Fraction(1, 2)
    assert table[((1, 1), 2)] == 1
    assert table[((1, 1), 0)] == 1
    assert table[((2,), 0)] == 0


def test_three_route_equality_connected():
    # brute force vs character-route connected numbers on the whole
    # brute-force range up to degree 6
    for d in range(0, 7):
        for mu in enumerate_partitions(d):
            for g in range(0, 6):
                if branch_count(g, mu) > 8:
                    continue
                assert h_bruteforce(g, mu) == h_connected(g, mu), (g, mu)


def test_connected_numbers_accept_a_list():
    assert h_connected(0, [2, 1]) == h_connected(0, (2, 1)) == 4
    assert h_connected_cutjoin(0, [2, 1]) == h_connected_cutjoin(0, (2, 1)) == 4
    assert disconnected_by_b([3, 1, 1], 5) == disconnected_by_b((3, 1, 1), 5)


def test_empty_partition_is_not_a_connected_cover():
    for g in range(0, 3):
        assert h_connected(g, ()) == h_bruteforce(g, ()) == 0, g


def test_table_conflicts_and_roundtrip(tmp_path):
    t = HurwitzTable()
    t.insert(1, (2,), Fraction(1, 2), "character")
    t.insert(1, (2,), Fraction(1, 2), "brute")
    with pytest.raises(ConflictError):
        t.insert(1, (2,), Fraction(1, 3), "cut-join")
    p = tmp_path / "cache.json"
    t.save(p)
    t2 = HurwitzTable.load(p)
    assert t2.get(1, (2,)) == Fraction(1, 2)
    assert t2.entries[(1, (2,))][1] == {"character", "brute"}
    # corrupted value aborts on load
    text = p.read_text().replace("1/2", "1/3")
    p.write_text(text)
    t3 = HurwitzTable.load(p)
    with pytest.raises(ConflictError):
        for (g, mu), (v, routes) in t.entries.items():
            t3.insert(g, mu, v, "character")
    # empty file loads an empty table
    p2 = tmp_path / "empty.json"
    p2.write_text("")
    assert HurwitzTable.load(p2).entries == {}


def test_scaled_values():
    assert hurwitz_scaled_value(1, (2,)) == Fraction(1, 24)
    assert hurwitz_scaled_value(0, (1, 1, 1)) == 1


def test_fit_01_and_11():
    fit = fit_P_polynomial(0, 3)
    assert fit.poly.eval([1, 1, 1]) == 1
    assert fit.poly.total_degree() == 0
    fit11 = fit_P_polynomial(1, 1)
    # P(mu) = (mu - 1)/24
    assert fit11.poly.coeff((0,)) == Fraction(-1, 24)
    assert fit11.poly.coeff((1,)) == Fraction(1, 24)
    assert fit11.report["holdout_ok"]


def test_fit_04_is_sum_of_parts():
    fit = fit_P_polynomial(0, 4)
    n = 4
    for i in range(n):
        e = [0] * n
        e[i] = 1
        assert fit.poly.coeff(tuple(e)) == 1
    assert fit.poly.coeff((0,) * n) == 0
    assert fit.poly.eval([1, 1, 1, 1]) == 4
    assert fit.report["symmetric"] and fit.report["total_degree_ok"]


def test_simplex_interpolate_reproduces_random_polynomials():
    # random polynomials of total degree <= top, symmetric or not, come back
    # exactly; one datum changed at a holdout point is named with both values
    rng = random.Random(21)
    for _ in range(60):
        n, top = rng.randint(1, 4), rng.randint(0, 4)
        terms = {e: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                 for e in product(range(top + 1), repeat=n)
                 if sum(e) <= top and rng.random() < 0.5}
        poly = MultiPoly(n, terms)
        # off the simplex of fit points: every part at least top + 2
        holdouts = [tuple(rng.randint(top + 2, top + 6) for _ in range(n)) for _ in range(2)]
        fit, miss = simplex_interpolate(n, top, poly.eval, holdouts)
        assert fit == poly and miss is None
        bad = holdouts[-1]

        def changed(mu):
            return poly.eval(mu) + (mu == bad)

        assert simplex_interpolate(n, top, changed, holdouts)[1] == (
            bad, poly.eval(bad), poly.eval(bad) + 1
        )


def test_fit_rejects_unstable():
    with pytest.raises(ValueError):
        fit_P_polynomial(0, 2)


def test_fit_detects_non_polynomial_data(monkeypatch, fresh_fit_cache):
    from hurwitzlab import hurwitz

    def fake(g, mu):
        # polynomial at the fit points 1..3 and the first holdout point 4,
        # broken on the second holdout point 5
        return Fraction(0) if max(mu) <= 4 else Fraction(1)

    monkeypatch.setattr(hurwitz, "hurwitz_scaled_value", fake)
    with pytest.raises(PolynomialityError, match=r"holdout \(5,\): poly gives 0, data gives 1"):
        fit_P_polynomial(1, 1)
