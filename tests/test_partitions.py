from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitzlab.partitions import (
    _bead_column,
    _mn,
    central_character_f2,
    conjugate,
    dim_hook,
    enumerate_partitions,
    f2_from_central_character,
    mn_character,
    z_aut,
)


def test_enumerate_counts():
    assert enumerate_partitions(0) == [()]
    assert len(enumerate_partitions(4)) == 5
    assert len(enumerate_partitions(8)) == 22


def test_enumerate_order_and_uniqueness():
    parts = enumerate_partitions(6)
    assert parts[0] == (6,)
    assert parts[-1] == (1,) * 6
    assert len(set(parts)) == len(parts)
    # reverse-lexicographic order
    assert parts == sorted(parts, reverse=True)


def test_dim_hook_examples():
    assert dim_hook((5,)) == 1
    assert dim_hook((2, 1)) == 2
    assert sum(dim_hook(l) ** 2 for l in enumerate_partitions(5)) == factorial(5)


def test_mn_character_examples():
    assert mn_character((4,), (2, 1, 1)) == 1
    assert mn_character((2, 1), (3,)) == -1
    assert mn_character((2, 1), (1, 1, 1)) == 2


def test_mn_size_mismatch():
    with pytest.raises(ValueError):
        mn_character((2, 1), (2, 2))


@pytest.mark.parametrize("n", range(1, 9))
def test_column_orthogonality(n):
    parts = enumerate_partitions(n)
    chars = {mu: [mn_character(l, mu) for l in parts] for mu in parts}
    for i, mu in enumerate(parts):
        for nu in parts[i:]:
            dot = sum(a * b for a, b in zip(chars[mu], chars[nu]))
            assert dot == (z_aut(mu)[0] if mu == nu else 0), (mu, nu)


def _character_column(mu):
    """{lam: chi^lam(mu)} from the bead column of mu; the k-th lowest bead,
    at p, is the part p - k."""
    column = {}
    for beads, chi in _bead_column(mu[::-1]).items():
        pos = [p for p in range(beads.bit_length()) if beads >> p & 1]
        assert len(pos) == sum(mu)
        column[tuple(p - k for k, p in enumerate(pos) if p > k)[::-1]] = chi
    return column


def test_character_column_is_the_nonzero_part_of_the_removal_route():
    for d in range(0, 13):
        lams = enumerate_partitions(d)
        for mu in lams:
            column = _character_column(mu)
            assert column == {lam: _mn(lam, mu) for lam in lams if _mn(lam, mu)}, mu


def test_character_column_support_at_five_sixes():
    column = _character_column((6, 6, 6, 6, 6))
    assert len(column) == 918
    assert all(column.values())


def test_character_columns_share_their_prefix():
    # the column of mu is one strip step from the column of mu without its
    # largest part, which the cache then holds
    _bead_column.cache_clear()
    _character_column((3, 2, 1))
    assert _bead_column.cache_info().currsize == 4
    hits = _bead_column.cache_info().hits
    _character_column((4, 2, 1))
    assert _bead_column.cache_info().hits == hits + 1


def test_central_character_examples():
    assert central_character_f2((2,)) == 1
    assert central_character_f2((1, 1)) == -1
    assert central_character_f2((2, 1)) == 0
    assert central_character_f2(()) == 0


def test_central_character_consistency_with_characters():
    for n in range(2, 9):
        for lam in enumerate_partitions(n):
            assert central_character_f2(lam) == f2_from_central_character(lam)


def test_f2_conjugation_antisymmetry():
    for n in range(1, 10):
        for lam in enumerate_partitions(n):
            assert central_character_f2(conjugate(lam)) == -central_character_f2(lam)


def test_z_aut_examples():
    assert z_aut((1, 1, 1)) == (6, 6)
    assert z_aut((2, 1)) == (2, 1)
    assert z_aut((3, 3, 2)) == (36, 2)


def test_class_sizes_sum_to_group_order():
    for n in range(1, 8):
        assert sum(factorial(n) // z_aut(mu)[0] for mu in enumerate_partitions(n)) == factorial(n)


@given(st.integers(1, 8))
@settings(max_examples=8, deadline=None)
def test_trivial_character_is_one(n):
    for mu in enumerate_partitions(n):
        assert mn_character((n,), mu) == 1


@given(st.integers(2, 8))
@settings(max_examples=7, deadline=None)
def test_sign_character(n):
    for mu in enumerate_partitions(n):
        assert mn_character((1,) * n, mu) == (-1) ** (n - len(mu))
