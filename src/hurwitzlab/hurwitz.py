"""Simple Hurwitz numbers by independent routes.

Routes implemented here:

* character sums over irreducible symmetric-group characters,
* the cut-and-join evolution in the number of transpositions,
* direct monodromy counting with an orbit-tracking dynamic program
  (transitivity enforced structurally, no inclusion-exclusion), walked
  once per degree d over integer (permutation, orbit labels) states through
  b = 8 and read by every b and mu of that degree.

Conventions: the disconnected number at degree d and cycle type mu counts
b-tuples of transpositions whose product lies in the class of mu, weighted
by |Aut(mu)|/d!; equivalently it is the factorization count of one fixed
permutation divided by prod(mu_i).  Connected numbers carry genus
g >= 0 with b = 2g + |mu| + len(mu) - 2 branch points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial, perm, prod

from .multipoly import MultiPoly
from .partitions import (
    Partition,
    _bead_column,
    check_partition,
    enumerate_partitions,
    z_aut,
)
from .rationals import rational_from_str, rational_to_str


class ConflictError(Exception):
    """Two routes produced different values for the same index."""


class ResourceGuardError(Exception):
    """The monodromy count's guard, |mu| <= 7 and b <= 8: its walk grows
    like |mu|!."""


class PolynomialityError(Exception):
    """A holdout point contradicted the interpolated polynomial."""


def branch_count(g: int, mu) -> int:
    """b = 2g + |mu| + len(mu) - 2."""
    mu = check_partition(mu)
    return 2 * g + sum(mu) + len(mu) - 2


# -- character route -----------------------------------------------------------


@lru_cache(maxsize=None)
def _f2_dim(beads: int) -> tuple[int, int]:
    """(f2(lam), dim lam) for the partition lam held as d = |lam| beads, by
    removing lam's first row: the top bead is lam_1 = top - (d - 1), the
    row's hooks are its distances down to the lam_1 gaps below it, and the
    rest of lam is the set without that bead, shifted down by lam_1 - 1.
    Then f2 = C(lam_1, 2) + f2(rest) - |rest| (the rest's contents drop by
    one) and dim = dim(rest) * d! / ((d - lam_1)! * prod hooks)."""
    if not beads:
        return 0, 1
    d, top = beads.bit_count(), beads.bit_length() - 1
    row = top - (d - 1)
    digits, hooks, at = bin(beads), 1, 2  # digits[2 + j] is the bead top - j
    for _ in range(row):
        at = digits.find("0", at + 1)
        hooks *= at - 2
    f2, dim = _f2_dim((beads ^ 1 << top) >> (row - 1))
    return comb(row, 2) + f2 - (d - row), dim * perm(d, row) // hooks


@lru_cache(maxsize=None)
def _f2_weights(mu: Partition) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The character sum of mu as (even, odd): pairs (f, c), f >= 0, c != 0,
    with c = w_f +- w_-f for b of that parity, w_f the sum of dim_lam *
    chi^lam(mu) over the lam with f2(lam) = f; w_0 counts once, for even b."""
    weights: dict[int, int] = {}
    for beads, chi in _bead_column(mu[::-1]).items():
        f2, dim = _f2_dim(beads)
        weights[f2] = weights.get(f2, 0) + dim * chi
    w, sizes = weights.get, {abs(f) for f in weights}
    return (tuple((f, c) for f in sizes if (c := w(f, 0) + (w(-f, 0) if f else 0))),
            tuple((f, c) for f in sizes if f and (c := w(f, 0) - w(-f, 0))))


@lru_cache(maxsize=None)
def _character_count(mu: Partition, b: int) -> int:
    """Factorizations of one fixed permutation of cycle type mu into b
    transpositions: sum_lam dim_lam chi^lam(mu) f2(lam)^b / d!, exactly."""
    return sum(c * f**b for f, c in _f2_weights(mu)[b % 2]) // factorial(sum(mu))


def disconnected_by_b(mu, b: int) -> Fraction:
    """Disconnected Hurwitz number indexed by (mu, number of transpositions)."""
    mu = check_partition(mu)
    return Fraction(_character_count(mu, b), prod(mu))


# -- connected numbers via rooted inclusion-exclusion ----------------------------


@lru_cache(maxsize=None)
def _rooted_splits(n: int) -> tuple:
    """The splits of the indices 0..n-1 into a block T through the root 0,
    other than all of them, and the rest, as index tuples (T without the
    root, rest)."""
    others = range(1, n)
    return tuple(
        (picked, tuple(i for i in others if i not in picked))
        for size in range(n - 1)
        for picked in combinations(others, size)
    )


def _rooted_connected(g: int, mu, count, connected):
    """The connected factorization count of one fixed permutation of cycle
    type mu at genus g, from ``count(mu, b)`` by rooted inclusion-exclusion.

    A factorization splits into the component through part 0, carrying the
    parts T and b_T of the b transpositions (placed in C(b, b_T) ways), and
    any factorization of the remaining parts; subtracting every T != mu,
    with ``connected`` for the smaller connected counts, leaves the
    connected count C = F - sum_T C(b, b_T) C_T F_rest.  The empty cover is
    not connected.
    """
    mu = check_partition(mu)
    b = 2 * g + sum(mu) + len(mu) - 2
    if g < 0 or b < 0 or not mu:
        return 0
    total = count(mu, b)
    for t, r in _rooted_splits(len(mu)):
        mu_t = (mu[0],) + tuple(mu[i] for i in t)
        rest = tuple(mu[i] for i in r)
        base = sum(mu_t) + len(mu_t) - 2  # b_T at genus 0
        for b_t in range(base, b + 1, 2):
            c_t = connected((b_t - base) // 2, mu_t)
            if c_t:
                total -= comb(b, b_t) * c_t * count(rest, b - b_t)
    return total


def _connected_route(count, doc: str):
    """h(g; mu) = C / prod(mu), with the connected count C from ``count`` by
    ``_rooted_connected``, cached per (g, mu).  mu may be any sequence of
    parts (a list too), as ``fock.a_correlator`` accepts, and is checked on
    a miss."""

    @lru_cache(maxsize=None)
    def connected(g: int, mu: Partition):
        return _rooted_connected(g, mu, count, connected)

    def h(g: int, mu) -> Fraction:
        mu = tuple(mu)
        return Fraction(connected(g, mu), prod(mu))

    h.__doc__ = doc
    h.cache_info, h.cache_clear = connected.cache_info, connected.cache_clear
    return h


h_connected = _connected_route(
    _character_count,
    "Connected Hurwitz number h(g; mu), genus g >= 0, from the character sums.",
)


def connected_from_disconnected(disc, index_set):
    """Connected value for ``index_set`` by rooted inclusion-exclusion.

    ``disc`` maps frozensets of indices to series-like values supporting
    ``-`` and ``*`` (Euler-characteristic additivity lives in the grading of
    the values).  The disconnected value of S is the connected value of the
    block T through the smallest index times the disconnected value of S - T,
    summed over T.
    """
    memo = {}

    def conn(subset):
        if subset not in memo:
            val = disc[frozenset(subset)]
            for t, r in _rooted_splits(len(subset)):
                block = (subset[0],) + tuple(subset[i] for i in t)
                val = val - conn(block) * disc[frozenset(subset[i] for i in r)]
            memo[subset] = val
        return memo[subset]

    return conn(tuple(sorted(index_set)))


# -- cut-and-join evolution ------------------------------------------------------


def _cutjoin_moves(mu: Partition):
    """Transitions (nu, multiplier) for multiplying by one transposition."""
    mults: dict[int, int] = {}
    for a in mu:
        mults[a] = mults.get(a, 0) + 1
    moves = []

    def without(vals, *remove):
        pool = list(vals)
        for r in remove:
            pool.remove(r)
        return pool

    seen = sorted(mults)
    # join two parts a, b -> a+b
    for i, a in enumerate(seen):
        for bpart in seen[i:]:
            if a == bpart:
                m = mults[a]
                if m < 2:
                    continue
                count = (m * (m - 1) // 2) * a * a
                nu = tuple(sorted(without(mu, a, a) + [2 * a], reverse=True))
            else:
                count = mults[a] * mults[bpart] * a * bpart
                nu = tuple(sorted(without(mu, a, bpart) + [a + bpart], reverse=True))
            moves.append((nu, count))
    # cut one part c -> a + b
    for c in seen:
        for a in range(1, c // 2 + 1):
            bpart = c - a
            count = mults[c] * (c if a != bpart else c // 2)
            nu = tuple(sorted(without(mu, c) + [a, bpart], reverse=True))
            moves.append((nu, count))
    return moves


@lru_cache(maxsize=None)
def _cutjoin_rows(d: int) -> tuple[dict, list]:
    """The cut-and-join moves of every mu |- d and the count rows built so
    far: row b maps mu to the factorizations of one fixed permutation of
    type mu into b transpositions.  Row 0 counts the empty factorization of
    the identity; ``_cutjoin_count`` appends the rows a query needs."""
    moves = {mu: _cutjoin_moves(mu) for mu in enumerate_partitions(d)}
    return moves, [{mu: int(mu == (1,) * d) for mu in moves}]


def _cutjoin_count(mu: Partition, b: int) -> int:
    """The factorization count of one fixed permutation of cycle type mu
    into b transpositions, from the transposition recursion: multiplying by
    the last transposition moves mu to each nu of ``_cutjoin_moves(mu)``."""
    moves, rows = _cutjoin_rows(sum(mu))
    while len(rows) <= b:
        last = rows[-1]
        rows.append({nu: sum(mult * last[lam] for lam, mult in moves[nu]) for nu in moves})
    return rows[b][mu]


def cut_and_join_evolve(d_max: int = 10, b_max: int = 16):
    """Disconnected table {(mu, b): value} for |mu| <= d_max and b <= b_max,
    read from the per-degree cut-and-join counts."""
    return {(mu, b): Fraction(_cutjoin_count(mu, b), prod(mu))
            for d in range(1, d_max + 1) for mu in enumerate_partitions(d)
            for b in range(b_max + 1)}


h_connected_cutjoin = _connected_route(
    _cutjoin_count,
    """h(g; mu) from the cut-and-join counts, one table per degree |mu|,
    built as far in b as the query needs.""",
)


# -- monodromy counting with orbit tracking ---------------------------------------


def _cycle_type(perm) -> Partition:
    n = len(perm)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        out.append(ln)
    return tuple(sorted(out, reverse=True))


_BRUTE_B_MAX = 8  # the monodromy count's guard on b (on d it is 7)


@lru_cache(maxsize=None)
def _transitive_tallies(d: int) -> tuple:
    """Per b = 0.._BRUTE_B_MAX, the transitive b-tuples of transpositions
    in S_d by the cycle type of their product: a tuple of dicts {mu: count}.

    One walk per degree: a state is the int p * NQ + q, with p indexing the
    product's permutation and q the orbit labels (label[i] is the smallest
    point in the orbit of i; a transposition joining two orbits relabels the
    larger label to the smaller).  Each transposition t is two lookup lists,
    ``mult[t][p]`` (already scaled by NQ) and ``join[t][q]``.  The walk
    starts at the identity with every point its own orbit, state 0, and the
    tuple is transitive iff every label is 0.  The tables live only in the
    walk; the cache keeps the tallies.
    """
    ident = tuple(range(d))
    perms = list(permutations(ident))
    perm_index = {perm: k for k, perm in enumerate(perms)}
    pairs = list(combinations(ident, 2))
    labels, label_index, joins = [ident], {ident: 0}, [[] for _ in pairs]
    for label in labels:  # grows while it is read: every reachable labelling
        for (i, j), join in zip(pairs, joins):
            lo, hi = sorted((label[i], label[j]))
            merged = tuple(lo if x == hi else x for x in label)
            if merged not in label_index:
                label_index[merged] = len(labels)
                labels.append(merged)
            join.append(label_index[merged])
    nq = len(labels)
    steps = []  # (mult, join) per transposition: perm -> perm . (i j)
    for (i, j), join in zip(pairs, joins):
        swap = list(ident)
        swap[i], swap[j] = j, i
        mult = [nq * perm_index[tuple(perm[k] for k in swap)] for perm in perms]
        steps.append((mult, join))
    transitive = label_index[(0,) * d]

    def tally(states) -> dict[Partition, int]:
        out: dict[Partition, int] = {}
        for state, cnt in states.items():
            p, q = divmod(state, nq)
            if q == transitive:
                mu = _cycle_type(perms[p])
                out[mu] = out.get(mu, 0) + cnt
        return out

    states = {0: 1}
    tallies = [tally(states)]
    for _ in range(_BRUTE_B_MAX):
        nxt: dict[int, int] = {}
        for state, cnt in states.items():
            p, q = divmod(state, nq)
            for mult, join in steps:
                key = mult[p] + join[q]
                nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
        tallies.append(tally(states))
    return tuple(tallies)


def h_bruteforce(g: int, mu) -> Fraction:
    """Connected Hurwitz number by explicit monodromy counting.

    Counts tuples of b transpositions with product in the class of mu whose
    generated group acts transitively, then applies the |Aut(mu)|/d!
    normalization.  The count is a lookup in ``_transitive_tallies(d)``,
    one walk over (permutation, orbit labels) states per degree through
    b = 8, shared by every b and mu of that degree.
    """
    mu = check_partition(mu)
    d = sum(mu)
    b = branch_count(g, mu)
    if d > 7 or b > _BRUTE_B_MAX:
        raise ResourceGuardError(f"brute-force guard: |mu|={d}, b={b}")
    if b < 0 or not mu:  # the empty cover is not connected
        return Fraction(0)
    total = _transitive_tallies(d)[b].get(mu, 0)
    _, aut = z_aut(mu)
    return Fraction(aut * total, factorial(d))


# -- the Hurwitz number cache with provenance --------------------------------------


@dataclass
class HurwitzTable:
    """Connected Hurwitz numbers keyed by (g, mu), with route provenance."""

    entries: dict = field(default_factory=dict)

    def insert(self, g: int, mu, value: Fraction, route: str):
        mu = check_partition(mu)
        key = (g, mu)
        if key in self.entries:
            old, routes = self.entries[key]
            if old != value:
                raise ConflictError(
                    f"conflicting values at (g={g}, mu={mu}): {old} [{routes}] vs {value} [{route}]"
                )
            routes.add(route)
        else:
            self.entries[key] = (Fraction(value), {route})

    def get(self, g: int, mu):
        mu = check_partition(mu)
        entry = self.entries.get((g, mu))
        return entry[0] if entry else None

    def value(self, g: int, mu) -> Fraction:
        """Fetch, computing via the character route (and caching) if absent."""
        mu = check_partition(mu)
        got = self.get(g, mu)
        if got is not None:
            return got
        val = h_connected(g, mu)
        self.insert(g, mu, val, "character")
        return val

    def to_json(self):
        rows = []
        for (g, mu), (val, routes) in sorted(self.entries.items()):
            rows.append(
                {
                    "g": g,
                    "mu": list(mu),
                    "b": branch_count(g, mu),
                    "value": rational_to_str(val),
                    "route": "+".join(sorted(routes)),
                }
            )
        return rows

    @staticmethod
    def from_json(rows) -> "HurwitzTable":
        """The table of ``to_json`` rows; a malformed row, or one that
        contradicts itself or an earlier row, raises ValueError naming it."""
        if not isinstance(rows, list):
            raise ValueError("expected a JSON list of rows")
        table = HurwitzTable()
        for i, row in enumerate(rows):
            try:
                g, mu = int(row["g"]), check_partition(row["mu"])
                value, b = rational_from_str(row["value"]), int(row["b"])
                routes = str(row["route"]).split("+")
                if g < 0:
                    raise ValueError(f"genus {g} is negative")
                if branch_count(g, mu) != b:
                    raise ValueError(f"b is {branch_count(g, mu)} for this (g, mu)")
                for route in routes:
                    table.insert(g, mu, value, route)
            except (KeyError, TypeError, ValueError, ZeroDivisionError, ConflictError) as exc:
                raise ValueError(f"row {i} {json.dumps(row)}: {exc!r}") from None
        return table

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)

    @staticmethod
    def load(path) -> "HurwitzTable":
        with open(path) as fh:
            text = fh.read().strip()
        if not text:
            return HurwitzTable()
        try:
            return HurwitzTable.from_json(json.loads(text))
        except ValueError as exc:  # a JSONDecodeError is one too
            raise ValueError(f"malformed cache file {path}: {exc}") from None


# -- polynomial fits ------------------------------------------------------------------


@dataclass
class PPoly:
    """Fitted polynomial P with h(g; mu) = b! * prod(mu^mu/mu!) * P(mu)."""

    g: int
    n: int
    poly: MultiPoly
    report: dict


def hurwitz_scaled_value(g: int, mu) -> Fraction:
    """h(g; mu) divided by b! * prod(mu_i^mu_i / mu_i!)."""
    mu = check_partition(mu)
    b = branch_count(g, mu)
    scale = Fraction(factorial(b))
    for m in mu:
        scale *= Fraction(m**m, factorial(m))
    return h_connected(g, mu) / scale


def _simplex(n: int, top: int) -> list:
    """The exponents k in N^n with sum(k) <= top, in lexicographic order."""
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(top + 1) for rest in _simplex(n - 1, top - k)]


def _axis_pass(vals: dict, ax: int, top: int, matrix) -> dict:
    """Apply the triangular ``matrix`` (out index, in index) along axis
    ``ax`` of a function on the simplex of ``_simplex(n, top)``: each line
    parallel to the axis, from k_ax = 0 to the simplex's face, on its own.
    Triangular, so a line's image stays on the simplex."""
    lines: dict[tuple, dict[int, Fraction]] = {}
    for k, v in vals.items():
        lines.setdefault(k[:ax] + k[ax + 1 :], {})[k[ax]] = v
    out = {}
    for rest, line in lines.items():
        for r in range(top - sum(rest) + 1):
            out[rest[:ax] + (r,) + rest[ax:]] = sum(matrix[r][i] * v for i, v in line.items())
    return out


def simplex_interpolate(n: int, top: int, value_fn, holdout_points):
    """The polynomial of total degree <= ``top`` taking the values of
    ``value_fn`` at 1 + k for every k in ``_simplex(n, top)``, a set
    unisolvent for that degree (Chung-Yao), checked exactly on
    ``holdout_points``.

    Newton's forward-difference form: the differences c_k = Delta^k f(1..1),
    taken one axis at a time, give f = sum_k c_k prod_i C(mu_i - 1, k_i),
    expanded to monomials one axis at a time.  Both passes are triangular
    1-D maps, applied by ``_axis_pass``.

    Returns (poly, miss): ``miss`` is the first (point, fit value, data
    value) that disagrees, or None.
    """
    diff = [[comb(j, i) * (-1) ** (i + j) for i in range(top + 1)] for j in range(top + 1)]
    binom = [[Fraction(1)]]  # coefficients of C(x - 1, j) in x
    for j in range(top):
        shifted = [Fraction(0)] + binom[j]
        binom.append([(a - (j + 1) * b) / (j + 1) for a, b in zip(shifted, binom[j] + [0])])
    expand = [[binom[j][p] if p <= j else 0 for j in range(top + 1)] for p in range(top + 1)]
    vals = {k: value_fn(tuple(1 + ki for ki in k)) for k in _simplex(n, top)}
    for matrix in (diff, expand):
        for ax in range(n):
            vals = _axis_pass(vals, ax, top, matrix)
    poly = MultiPoly(n, vals)
    for pt in holdout_points:
        got, expected = poly.eval(pt), value_fn(pt)
        if got != expected:
            return poly, (pt, got, expected)
    return poly, None


def fit_P_polynomial(g: int, n: int, holdout: int = 2) -> PPoly:
    """Fit P_{g,n} in total degree D + 1 on the simplex, D = 3g - 3 + n,
    and verify it on the holdout points (D + 2 + j,) * n, j = 1..holdout.

    The polynomiality theorem bounds the degree by D; the extra layer keeps
    the degree bound a check, recorded in the report, not hidden.  A
    holdout mismatch is disproof-grade and raises PolynomialityError.
    """
    return _fit_P(g, n, holdout)


@lru_cache(maxsize=None)
def _fit_P(g: int, n: int, holdout: int) -> PPoly:
    """The fit behind fit_P_polynomial, cached once per (g, n, holdout)
    whether or not the caller passed the default holdout."""
    if (g, n) in ((0, 1), (0, 2)):
        raise ValueError("unstable (g, n) has no polynomial form")
    deg_bound = 3 * g - 3 + n
    poly, miss = simplex_interpolate(
        n,
        deg_bound + 1,
        lambda mu: hurwitz_scaled_value(g, tuple(sorted(mu, reverse=True))),
        [(deg_bound + 2 + j,) * n for j in range(1, holdout + 1)],
    )
    if miss is not None:
        raise PolynomialityError(
            "fit for (g,n)=({},{}) fails at holdout {}: poly gives {}, data gives {}".format(
                g, n, *miss
            )
        )
    report = {
        "fit_degree": deg_bound + 1,
        "points": comb(deg_bound + 1 + n, n),
        "total_degree": poly.total_degree(),
        "degree_bound": deg_bound,
        "symmetric": poly.is_symmetric(),
        "total_degree_ok": poly.total_degree() <= deg_bound,
        "holdout_ok": True,
    }
    return PPoly(g, n, poly, report)


__all__ = [
    "ConflictError",
    "ResourceGuardError",
    "PolynomialityError",
    "branch_count",
    "disconnected_by_b",
    "h_connected",
    "h_bruteforce",
    "cut_and_join_evolve",
    "h_connected_cutjoin",
    "connected_from_disconnected",
    "HurwitzTable",
    "PPoly",
    "hurwitz_scaled_value",
    "simplex_interpolate",
    "fit_P_polynomial",
]
