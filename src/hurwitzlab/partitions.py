"""Integer partitions, symmetric-group characters, and the transposition
central character.

Partitions are plain tuples of weakly decreasing positive ints; the empty
partition is ``()``.  Characters come by two Murnaghan-Nakayama routes:
``mn_character`` removes border strips from lam (memoised per (lam, mu));
``_bead_column`` adds them to the empty partition and builds only the
nonzero entries of a whole column {lam: chi^lam(mu)}, with each lam of s
cells held as a set of s beads (the bits of an int).  Columns are cached by
the ascending tuple of strip sizes, so the column of mu is one step from
the column of mu without its largest part.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

Partition = tuple[int, ...]


def check_partition(mu) -> Partition:
    mu = tuple(int(a) for a in mu)
    if any(a <= 0 for a in mu):
        raise ValueError(f"parts must be positive: {mu}")
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {mu}")
    return mu


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n, reverse-lexicographically, each exactly once."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: list[Partition] = []

    def rec(remaining: int, maxpart: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for a in range(min(remaining, maxpart), 0, -1):
            rec(remaining - a, a, prefix + (a,))

    rec(n, n if n else 1, ())
    if n == 0:
        return [()]
    return out


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    out = [0] * lam[0]
    for a in lam:
        for j in range(a):
            out[j] += 1
    return tuple(out)


@lru_cache(maxsize=None)
def dim_hook(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam (hook-length formula)."""
    lam = tuple(lam)
    n = sum(lam)
    if n == 0:
        return 1
    conj = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    d, r = divmod(factorial(n), hooks)
    assert r == 0
    return d


def _border_strips(lam: Partition, size: int):
    """Yield (new_partition, height) for each removable border strip."""
    ell = len(lam)
    # beta-set formulation: mu obtained by moving a bead down by `size`
    beta = [lam[i] + ell - 1 - i for i in range(ell)]
    bset = set(beta)
    for i in range(ell):
        b = beta[i] - size
        if b < 0 or b in bset:
            continue
        newbeta = sorted((x if x != beta[i] else b) for x in beta)[::-1]
        height = sum(1 for x in beta if b < x < beta[i])
        newlam = tuple(
            nb - (ell - 1 - k) for k, nb in enumerate(newbeta)
        )
        newlam = tuple(a for a in newlam if a > 0)
        yield newlam, height


def mn_character(lam, mu) -> int:
    """Irreducible character chi^lam at class mu via border-strip removal."""
    lam = check_partition(lam) if lam else ()
    mu = check_partition(mu) if mu else ()
    if sum(lam) != sum(mu):
        raise ValueError("character requires |lam| = |mu|")
    return _mn(lam, tuple(sorted(mu, reverse=True)))


@lru_cache(maxsize=None)
def _mn(lam: Partition, mu: Partition) -> int:
    if not mu:
        return 1
    part, rest = mu[0], mu[1:]
    total = 0
    for newlam, height in _border_strips(lam, part):
        total += (-1) ** height * _mn(newlam, rest)
    return total


@lru_cache(maxsize=None)
def _bead_column(strips: tuple[int, ...]) -> dict[int, int]:
    """{beads: chi^lam(mu)} over the lam with chi^lam(mu) != 0, for mu the
    parts ``strips`` in ascending order, by adding border strips of sizes
    strips[0], strips[1], ... to the empty partition with sign (-1)^height.

    A partition of s cells is held as s beads, the bits of an int; the
    k-th lowest bead, at p, is the part p - k.  Before a strip of size r is
    added the set is shifted up by r and padded with r low beads, which is
    the same partition with s + r beads; the strip then moves a bead from b
    to a free b + r, and its height is the number of beads strictly between
    (as in ``_border_strips``)."""
    if not strips:
        return {0: 1}
    r = strips[-1]
    nxt: dict[int, int] = {}
    for beads, chi in _bead_column(strips[:-1]).items():
        beads = (beads << r) | ((1 << r) - 1)
        movable = beads & ~(beads >> r)
        while movable:
            low = movable & -movable
            movable ^= low
            moved = beads ^ low ^ (low << r)
            height = (beads & ((low << r) - (low << 1))).bit_count()
            nxt[moved] = nxt.get(moved, 0) + (-chi if height % 2 else chi)
    return {beads: chi for beads, chi in nxt.items() if chi}


def _splits(g: int, rest: tuple):
    """(g1, A, g2, B) over genus splits and ordered subset splits of rest."""
    n_rest = len(rest)
    for mask in range(1 << n_rest):
        A = tuple(rest[i] for i in range(n_rest) if mask >> i & 1)
        B = tuple(rest[i] for i in range(n_rest) if not mask >> i & 1)
        for g1 in range(g + 1):
            yield g1, A, g - g1, B


def _aut(parts) -> int:
    """prod mult! over the distinct entries of ``parts``, zero allowed: |Aut|
    of a partition, or the symmetry factor of a psi-class monomial."""
    return prod(factorial(parts.count(a)) for a in set(parts))


def z_aut(mu) -> tuple[int, int]:
    """(z_mu, |Aut(mu)|) = (prod parts * prod mult!, prod mult!)."""
    mu = check_partition(mu)
    aut = _aut(mu)
    return prod(mu) * aut, aut


def central_character_f2(lam) -> Fraction:
    """Eigenvalue of the transposition operator: sum_i lam_i(lam_i-2i+1)/2."""
    lam = check_partition(lam) if lam else ()
    return Fraction(sum(a * (a - 2 * i - 1) for i, a in enumerate(lam)), 2)


def f2_from_central_character(lam) -> Fraction:
    """Independent route: f2 = chi(2,1^{n-2})/dim * C(n,2)."""
    lam = check_partition(lam) if lam else ()
    n = sum(lam)
    if n < 2:
        return Fraction(0)
    mu = (2,) + (1,) * (n - 2)
    return Fraction(mn_character(lam, mu) * comb(n, 2), dim_hook(lam))


__all__ = [
    "Partition",
    "check_partition",
    "enumerate_partitions",
    "conjugate",
    "dim_hook",
    "mn_character",
    "z_aut",
    "central_character_f2",
    "f2_from_central_character",
]
