"""Charge-zero semi-infinite wedge space on a finite energy window.

Basis states are partitions; the occupied fermion levels of v_lambda are the
half-integers lambda_i - i + 1/2.  All level bookkeeping below uses doubled
(odd integer) levels so that everything stays in Z.

Operators: the bosonic modes alpha_m, the diagonal transposition operator F2,
the generating fields E_n(z) with their 1/zeta(z) regularization at n = 0,
and the conjugated raising operators A(z, uz) used for Hurwitz correlators,
either evaluated at a positive integer z = m (series in u) or with z kept
symbolic: a series in x = uz over polynomials in z, where z^a x^b stands for
z^(a+b) u^b.

A vector is a dict {partition: coefficient} with no exact zero, and
one loop (``_apply``) applies every operator to it, row by row.  alpha_m, F2
and the z^j coefficient of E_n map finite vectors to finite vectors; only
the A-operators are infinite sums, so only their builds take an energy
cutoff, and states pushed above it are dropped.  Each high-level entry point
runs once, at a cutoff whose exactness argument is written next to it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .hurwitz import branch_count, connected_from_disconnected
from .multipoly import MultiPoly
from .partitions import Partition, check_partition, enumerate_partitions
from .rationals import pochhammer
from .series import Series, exp_series, zeta_series

# -- Maya-level bookkeeping (doubled half-integer levels) ------------------------


def energy(lam: Partition) -> int:
    return sum(lam)


def _occ_window(lam: Partition, depth: int):
    """Occupied levels 2 lam_i - 2i + 1 for rows i = 1..depth (0-padded)."""
    return [2 * (lam[i] if i < len(lam) else 0) - 2 * i - 1 for i in range(depth)]


def level_occupied(lam: Partition, khat: int) -> bool:
    if khat % 2 == 0:
        raise ValueError("levels are odd integers (doubled half-integers)")
    ell = len(lam)
    if khat <= -2 * ell - 1:
        return True
    return khat in _occ_window(lam, ell)


def _e_moves(lam: Partition, k: int):
    """The moves of E_k on v_lam: yields (nu, sign, rate), one per occupied
    level jh that can drop to jh - 2k, with rate = (jh - k)/2 the exponent of
    its weight e^{rate x} in E_k(x).  Every nu has energy |lam| - k.

    Only the first len(lam) + |k| levels can move; a target below them is
    in the sea.  The sign counts the levels the moving one passes."""
    occ = _occ_window(lam, len(lam) + abs(k))
    taken = set(occ)
    for jh in occ:
        ih = jh - 2 * k
        if ih in taken or ih < occ[-1]:
            continue
        lo, hi = min(ih, jh), max(ih, jh)
        sign = -1 if sum(1 for x in occ if lo < x < hi) % 2 else 1
        levels = sorted(taken - {jh} | {ih}, reverse=True)
        nu = [(level + 2 * i + 1) // 2 for i, level in enumerate(levels)]
        while nu and nu[-1] == 0:
            nu.pop()
        yield tuple(nu), sign, Fraction(jh - k, 2)


def f2_eigenvalue(lam: Partition) -> Fraction:
    """Eigenvalue of sum_k (k^2/2) E_{kk} read off the occupied window."""
    total = 0
    for i, a in enumerate(lam):
        khat = 2 * a - 2 * i - 1
        vhat = -2 * i - 1
        total += khat * khat - vhat * vhat
    return Fraction(total, 8)


def maya_string(lam: Partition, window: int = 5) -> str:
    """Levels from high to low, filled/empty circles, bar at level zero."""
    pos = "".join(
        "●" if level_occupied(lam, k) else "○"
        for k in range(2 * window - 1, 0, -2)
    )
    neg = "".join(
        "●" if level_occupied(lam, k) else "○"
        for k in range(-1, -2 * window, -2)
    )
    return pos + "|" + neg


# -- vectors ----------------------------------------------------------------------


def vacuum(one=Fraction(1)) -> dict:
    """The vacuum as a vector {partition: coefficient}, with coefficient ``one``."""
    return {(): one}


def _is_exact_zero(c) -> bool:
    """A zero scalar, or a zero Series with no unknown tail: a truncated
    Series that reads zero through its order is not known to be zero."""
    if isinstance(c, Series):
        return c.order is None and c.is_zero()
    return c == 0


def _apply(v: dict, row, top=None) -> dict:
    """sum_lam c * row(lam) over the entries lam: c of v, where row(lam) is
    the operator's image {nu: entry} of the basis state lam.  A target above
    energy ``top`` is skipped before its product is formed; entries that
    cancel exactly are dropped."""
    out = {}
    for lam, c in v.items():
        for nu, w in row(lam).items():
            if top is not None and energy(nu) > top:
                continue
            cur = out.get(nu)
            out[nu] = c * w if cur is None else cur + c * w
    return {nu: c for nu, c in out.items() if not _is_exact_zero(c)}


def alpha_apply(m: int, v: dict) -> dict:
    """Apply alpha_m = E_m(0): move one occupied level down by m."""
    if m == 0:
        raise ValueError("alpha_0 is excluded")
    return _apply(v, lambda lam: {mu: sign for mu, sign, _ in _e_moves(lam, m)})


def f2_apply(v: dict) -> dict:
    return _apply(v, lambda lam: {lam: f2_eigenvalue(lam)})


@lru_cache(maxsize=None)
def dim_path(lam: Partition) -> int:
    """Number of alpha_1 box-removal paths from lam to the vacuum."""
    if not lam:
        return 1
    total = 0
    for mu, sign, _ in _e_moves(lam, 1):
        assert sign == 1
        total += dim_path(mu)
    return total


def pair_exp_alpha1(v: dict):
    """<0| e^{alpha_1} v, using the alpha_1 walk for each basis state."""
    total = 0
    for lam, c in v.items():
        total = total + c * Fraction(dim_path(lam), factorial(energy(lam)))
    return total


def e_operator_apply(n: int, j: int, v: dict) -> dict:
    """Coefficient of z^j in E_n(z) v, including the n = 0 regularization."""
    if n == 0:
        return _apply(v, lambda lam: {lam: _diagonal_e0(lam, max(j, 0), 1).coeff(j)})
    if j < 0:
        return {}
    return _apply(v, lambda lam: {mu: sign * rate**j / factorial(j)
                                  for mu, sign, rate in _e_moves(lam, n)})


# -- the Hurwitz vacuum expectation ------------------------------------------------


def vev_hurwitz(g: int, mu) -> Fraction:
    """<e^{alpha_1} F2^b prod alpha_{-mu_i}/mu_i> from the wedge-space side."""
    mu = check_partition(mu)
    b = branch_count(g, mu)
    v = vacuum()
    for m in mu:
        v = {lam: c / m for lam, c in alpha_apply(-m, v).items()}
    for _ in range(b):
        v = f2_apply(v)
    return Fraction(pair_exp_alpha1(v))


# -- A-operators at a positive integer ----------------------------------------------


def _a_row(lam: Partition, term, scale: int, cutoff: int, memo: dict, kmin: int) -> dict:
    """Row lam of sum_k c_k E_k(scale x), a series in x: scale 1 for the
    symbolic reading, where x = uz, and m for the one at z = m, where x = u.

    ``term(k)`` gives c_k and read_k, the last power of x its product with
    the entry reads.  The entry is the E_0 diagonal at k = 0 and
    sign * e^{rate scale x} for each move otherwise, built through x^read_k.  Off
    the diagonal that product depends on lam only through (k, rate): it is
    built once per operator into ``memo``, and each move applies its sign.
    Only the k >= kmin that land in [0, cutoff] are asked for, so no state
    above the cutoff is multiplied out; the row is {nu: entry}, one per move.
    """
    e = energy(lam)
    row = {}
    for k in range(max(e - cutoff, kmin), e + 1):
        ck, read = term(k)
        if k == 0:
            row[lam] = ck * _diagonal_e0(lam, read, scale)
            continue
        for nu, sign, rate in _e_moves(lam, k):
            entry = memo.get((k, rate))
            if entry is None:
                entry = memo[(k, rate)] = ck * exp_series(read, rate * scale)
            row[nu] = entry * sign
    return row


@lru_cache(maxsize=None)
def _integer_operator(m: int, w: int):
    """zeta(um), 1/zeta(um) and the prefactor (zeta(um)/(um))^m through u^w,
    and the (k, rate) entry memo shared by every A(m, um) at work order w."""
    zeta_u = zeta_series(w + m + 2, m)
    # zeta(um)/(um): shift down one power of u, divide by m
    zeta_over_um = Series(0, [zeta_u.coeff(k + 1) / m for k in range(0, w + 1)], w)
    return zeta_u, zeta_u.reciprocal(w), zeta_over_um**m, {}


@lru_cache(maxsize=None)
def _integer_coeff(m: int, w: int, k: int) -> Series:
    """c_k = pref zeta(um)^k / (m+1)_k of A(m, um) through u^w, for k >= -m:
    the prefactor at k = 0, else c_j, j the index next to k towards 0,
    times zeta(um)^(k-j) (m+1)_j / (m+1)_k."""
    zeta_u, inv, pref, _ = _integer_operator(m, w)
    if k == 0:
        return pref
    j = k - 1 if k > 0 else k + 1
    step = (zeta_u if k > 0 else inv) * (pochhammer(m, j) / pochhammer(m, k))
    return (_integer_coeff(m, w, j) * step).truncate(w)


def apply_a_integer(m: int, v: dict, work_order: int, cutoff: int) -> dict:
    """Apply A(m, um) for a positive integer m to a vector of u-series,
    keeping the targets of energy at most ``cutoff``.

    All auxiliary series are built at ``work_order``; validity propagates
    through the coefficients, so callers truncate once at the very end.
    c_k vanishes for k < -m, so a row of lam asks only for the c_k with
    max(|lam| - cutoff, -m) <= k <= |lam|, each built on its first read.
    """
    if m <= 0:
        raise ValueError("integer A-operator needs a positive argument")
    w, memo = work_order, _integer_operator(m, work_order)[3]

    def term(k):
        return _integer_coeff(m, w, k), w

    return _apply(v, lambda lam: _a_row(lam, term, m, cutoff, memo, -m))


@lru_cache(maxsize=None)
def _inv_zeta(order: int, scale: int) -> Series:
    """1/zeta(scale x) through x^order, shared by the E_0 diagonals of every lam."""
    return zeta_series(order + 2, scale).reciprocal(order)


@lru_cache(maxsize=None)
def _diagonal_e0(lam: Partition, order: int, scale: int) -> Series:
    """E_0(scale x) eigenvalue on v_lambda as a Laurent series in x."""
    acc = _inv_zeta(order, scale)
    for i, a in enumerate(lam):
        top = Fraction(2 * a - 2 * i - 1, 2)
        bot = Fraction(-2 * i - 1, 2)
        acc = acc + (exp_series(order, top * scale) - exp_series(order, bot * scale))
    return acc


def a_vev(mu, u_order: int, cutoff: int) -> Series:
    """Disconnected <A(mu_1, u mu_1) ... A(mu_n, u mu_n)> at one cutoff."""
    mu = tuple(int(m) for m in mu)
    # A factor c_k * entry has u-valuation k (-1 on the E_0 diagonal); built
    # at order w it is known through w - max(k, 0) above that.  A product is
    # known through its valuation plus the least margin of its factors, a sum
    # through its least-known term, and the k of a path from the vacuum back
    # to it sum to 0: with D diagonal steps and largest k = K the path is
    # known through w - D - K.  D <= len(mu) without a k > 0; otherwise the
    # steps k >= -m that give back K have m summing to K or more, leaving at
    # least D + 1 of |mu| to the rest: D + K <= |mu| - 1.  Too small w raises.
    work = u_order + max(len(mu), sum(mu) - 1)
    v = vacuum(one=Series.const(Fraction(1), work))
    # With ``left`` operators still to apply, the factors taking an entry at
    # energy E to the vacuum (the last one's only target) have k summing to
    # E and valuation >= E - left: u^u_order reads it through u^(u_order + left - E).
    for left in range(len(mu) - 1, -1, -1):
        v = apply_a_integer(mu[left], v, work, cutoff if left else 0)
        v = {lam: c.truncate(u_order + left - energy(lam)) for lam, c in v.items()}
    got = v.get((), Series.zero(u_order))
    if got.order is not None and got.order < u_order:
        raise ValueError("internal working order too small for the request")
    return got.truncate(u_order)


def a_correlator(mu, u_order: int):
    """Disconnected A-correlator as a truncated u-Laurent series: one
    ``a_vev`` run at the cutoff |mu|, which drops no state (see
    ``_a_correlator``).  Memoized per (mu, u_order).
    """
    return _a_correlator(tuple(int(m) for m in mu), u_order)


@lru_cache(maxsize=None)
def _a_correlator(mu: tuple, u_order: int) -> Series:
    # A(m, um) = sum_{k >= -m} c_k E_k, since 1/(m+1)_k vanishes for k < -m,
    # and E_k lowers the energy by k: each operator raises it by at most m,
    # so no state of the chain from the vacuum goes above |mu|, and the
    # cutoff |mu| drops nothing
    return a_vev(mu, u_order, sum(mu))


def a_connected(mu, u_order: int) -> Series:
    """Connected A-correlator via rooted inclusion-exclusion."""
    mu = tuple(int(m) for m in mu)
    n = len(mu)
    # A correlator of k points has u-valuation >= -k (a_vev: the k of a path
    # sum to 0, and each operator adds at most one E_0 step); so has every
    # series of a block of k points below.  With the correlators known through
    # w, conn(T) * disc(R) is known through min(ord conn(T) - |R|, w - |T|),
    # so conn(X) through w + 1 - |X|: u^u_order needs w = u_order + n - 1.
    # One less leaves the root's u^-1 times the rest's u^(1-n) unknown.
    work = u_order + n - 1
    disc = {}
    for mask in range(1, 1 << n):
        subset = frozenset(i for i in range(n) if mask >> i & 1)
        sub_mu = tuple(mu[i] for i in sorted(subset))
        disc[subset] = a_correlator(sub_mu, work)
    got = connected_from_disconnected(disc, range(n))
    if got.order is not None and got.order < u_order:
        raise ValueError("internal working order too small for the request")
    return got.truncate(u_order)


def a_polynomiality_check(n: int, k: int, degree: int, holdout_points) -> dict:
    """Fit [u^k] of the connected correlator in total ``degree`` on the
    simplex of ``hurwitz.simplex_interpolate``.

    The coefficient divided by the product of the arguments extends to a
    symmetric polynomial away from the unstable pairs (1,-1) and (2,0); the
    fit is verified exactly on the given holdout points, and ``miss`` is the
    first (point, fit value, data value) that disagrees, or None.
    """
    if (n, k) in ((1, -1), (2, 0)):
        raise ValueError("unstable pair excluded from the polynomiality check")
    from .hurwitz import simplex_interpolate

    def value(pt):
        conn = a_connected(tuple(pt), max(k, 0) + 1)
        val = conn.coeff(k)
        for z in pt:
            val /= z
        return val

    poly, miss = simplex_interpolate(n, degree, value, holdout_points)
    return {
        "n": n,
        "k": k,
        "poly": poly,
        "symmetric": poly.is_symmetric(),
        "miss": miss,
    }


def h_from_a_correlator(g: int, mu) -> Fraction:
    """Connected Hurwitz number from the A-correlator route."""
    mu = check_partition(mu)
    n = len(mu)
    b = branch_count(g, mu)
    u_target = 2 * g - 2 + n
    conn = a_connected(mu, max(u_target, 0) + 1)
    coeff = conn.coeff(u_target)
    scale = Fraction(factorial(b))
    for m in mu:
        scale *= Fraction(m ** (m - 1), factorial(m))
    return scale * coeff


# -- symbolic A-operator (a series in x = uz over polynomials in z) -----------------


def _cut(s: Series, top: int) -> Series:
    """A series in x = uz over polynomials in z through total degree ``top``:
    the x^b coefficient keeps z^a for a + b <= top, and x^b above ``top`` is
    unknown."""
    coeffs = [MultiPoly(1, {e: c for e, c in p.terms.items() if e[0] + b <= top})
              for b, p in enumerate(s.coeffs, s.low)]
    return Series(s.low, coeffs, min(s.order, top))


def _inv_pochhammer_z(k: int, z_cut: int) -> MultiPoly:
    """1/(z+1)_k in the convention of ``rationals.pochhammer``, as a
    polynomial in z: the product of the exact factors z + i for k <= 0, and
    for k > 0 their reciprocal, cut after z^z_cut."""
    acc = Series.const(Fraction(1), None)
    for i in range(1, k + 1) if k >= 0 else range(k + 1, 1):
        acc = acc * Series(0, [Fraction(i), Fraction(1)], None)
    if k > 0:
        acc = acc.reciprocal(z_cut)
    return MultiPoly(1, {(a,): c for a, c in enumerate(acc.coeffs, acc.low)})


def a_symbolic_matrix(z_order: int, cutoff: int):
    """Matrix elements of A(z, uz) through z^z_order, each a series in
    x = uz over polynomials in z: the term z^a x^b stands for z^(a+b) u^b.

    Returns {(lam_in, lam_out): Series}, known through x^z_order, whose x^b
    coefficient holds z^a for a + b <= z_order.  Entries are exact on the
    energy window; states leaving the window are dropped.
    """
    basis = [()] + [lam for d in range(1, cutoff + 1) for lam in enumerate_partitions(d)]
    xwork = z_order + cutoff + 2
    zx = zeta_series(xwork + 6)
    # prefactor exp(z log(zeta(x)/x)), polynomial in z on each x^b
    log_unit = Series(0, zx.coeffs, zx.order - 1).log()
    pref = (log_unit * MultiPoly.var(1, 0)).exp()
    # No z-power is negative, and 1/(z+1)_k for k > 0 is the one factor that
    # is not polynomial in z: cut after z^(z_order + cutoff + 1), it leaves
    # every product's z^a at or below the cut exact.  An E_k(x) entry starts
    # at x^-1 or later, so c_k's x^b coefficient is read through
    # z^(z_order + 1 - b), which is under that cut for b >= -cutoff; cutting
    # c_k there keeps every term read and leaves the entries independent of
    # the cutoff.
    coeff = {}
    for k, zk in zx.powers(-cutoff, cutoff, xwork).items():
        coeff[k] = _cut(pref * zk * _inv_pochhammer_z(k, z_order + cutoff + 1), z_order + 1)
    # the product with coeff[k] reads its entry through x^(z_order - low);
    # a zero coeff[k] (k > z_order + 1) still gives its targets a zero entry
    terms = {k: (ck, z_order - ck.low) for k, ck in coeff.items()}
    out, memo = {}, {}
    for lam in basis:
        for nu, entry in _a_row(lam, terms.get, 1, cutoff, memo, -cutoff).items():
            out[(lam, nu)] = _cut(entry, z_order)
    return out


def a_k_operators(matrix, ks, u_order: int):
    """The operators A_k, the z^k coefficients of a symbolic matrix: A_k's
    u^b coefficient is z^(k-b) of an entry's x^b coefficient.  Each entry's
    terms are read once, z^a x^b into A_(a+b).  The u-series are exact
    Laurent polynomials, truncated to ``u_order``; an exact zero is dropped.

    Returns {k: {lam_in: {lam_out: u-Series}}}.
    """
    out = {k: {} for k in ks}
    for (lin, lout), entry in matrix.items():
        if max(out) > entry.order:
            raise ValueError("z-order too small for the requested extraction")
        layers = {}
        for b, p in enumerate(entry.coeffs, entry.low):
            for (a,), c in p.terms.items():
                if a + b in out:
                    layers.setdefault(a + b, {})[b] = c
        for k, cs in layers.items():
            lo = min(cs)
            u = Series(lo, [cs.get(b, 0) for b in range(lo, max(cs) + 1)], None)
            out[k].setdefault(lin, {})[lout] = u.truncate(u_order)
    return out


_SEVERITY = ("pass", "inconclusive", "fail")


def _worst_status(statuses) -> str:
    """The worst of the statuses, fail > inconclusive > pass; pass if none."""
    return max(statuses, key=_SEVERITY.index, default="pass")


_TEST_STATES = ((), (1,), (2, 1))


def _commutators(matrix, kmax: int, u_order: int, cutoff: int) -> dict:
    """{(k, l): {lam: {nu: [A_k, A_l] coefficient through u^u_order}}} for
    |k|, |l| <= kmax, read from ``matrix``, an ``a_symbolic_matrix`` through
    z^kmax.  A pair compares the test states at or below its band
    cutoff - max(|k|, |l|) - 1, and keeps only the targets there.

    The run reads no row above cutoff - 1.  A_k holds c_j E_j only for
    j <= max(k, 0): c_j E_j starts at z^j for j > 0, at z^-1 for j = 0 (the
    E_0 diagonal) and at z^(j+1) for j < 0 (1/(z+1)_j holds the factor z).
    E_j lowers the energy by j, so a target at or below the band comes from
    a state of energy at most band + max(k, 0) <= cutoff - 1, and each test
    state compared sits at or below the band.

    Each A_l v is applied once per test state, and A_k A_l v and A_l A_k v
    once per unordered pair {k, l}; [A_l, A_k] is the negation of
    [A_k, A_l].  Products against Laurent entries lose validity, so the
    operators are extracted through u^(u_order + cutoff + 2); only an exact
    zero is dropped, so an entry that reads zero through its order keeps it.
    """
    ks = list(range(-kmax, kmax + 1))
    u_work = u_order + cutoff + 2
    ops = a_k_operators(matrix, ks, u_work)
    one, zero = Series.const(Fraction(1), u_work), Series.zero(u_work)

    def apply(k, vec, top=None):
        # A_k vec through u^u_work; only an exact zero is dropped (``_apply``)
        out = _apply(vec, lambda lam: ops[k].get(lam, {}), top)
        return {nu: c.truncate(u_work) for nu, c in out.items()}

    states = [lam for lam in _TEST_STATES if energy(lam) < cutoff]
    single = {(l, lam): apply(l, {lam: one}) for l in ks for lam in states}
    out = {}
    for i, k in enumerate(ks):
        for l in ks[i:]:
            top = cutoff - max(abs(k), abs(l)) - 1  # the band
            out[(k, l)], out[(l, k)] = {}, {}
            for lam in states:
                if energy(lam) > top:
                    continue
                ab = apply(k, single[(l, lam)], top)
                ba = ab if k == l else apply(l, single[(k, lam)], top)
                comm = {nu: (ab.get(nu, zero) - ba.get(nu, zero)).truncate(u_order)
                        for nu in ab.keys() | ba.keys()}
                out[(k, l)][lam] = comm
                out[(l, k)][lam] = {nu: -c for nu, c in comm.items()}
    return out


def a_commutator_suite(kmax: int = 3, u_order: int = 2, cutoff: int = 7) -> dict:
    """Check [A_k, A_l] = (-1)^l delta_{k+l-1} for all |k|, |l| <= kmax on
    the test states (), (1,), (2, 1), coefficientwise in u, on the targets
    at or below each pair's band cutoff - max(|k|, |l|) - 1.

    One run (``_commutators``) reads no row above cutoff - 1, and the
    entries at a cutoff are the window of a deeper build, so one matrix
    built at cutoff - 1 through z^kmax holds every entry it reads, exactly.
    A u-coefficient other than the expected one fails; a pair with a test
    state under the cutoff above its band, or with none, or with an entry
    known through less than u^u_order, is inconclusive.
    A pair takes the worst status of its checks (``_worst_status``).
    Returns {(k, l): "pass" | "fail" | "inconclusive"}."""
    ks = range(-kmax, kmax + 1)
    states = [lam for lam in _TEST_STATES if energy(lam) <= cutoff]
    comms = _commutators(a_symbolic_matrix(kmax, cutoff - 1), kmax, u_order, cutoff)
    zero = Series.zero(u_order)

    def verdicts(k, l, comm):
        if not comm or len(comm) < len(states):
            yield "inconclusive"  # a test state above the band, or none at all
        expected = Fraction((-1) ** l) if k + l == 1 else Fraction(0)
        for lam, row in comm.items():
            for nu in row.keys() | {lam}:
                c = row.get(nu, zero)
                if c.order < u_order:
                    yield "inconclusive"
                    continue
                for q in range(min(c.low, 0), u_order + 1):
                    want = expected if (nu, q) == (lam, 0) else 0
                    yield "fail" if c.coeff(q) != want else "pass"

    return {(k, l): _worst_status(verdicts(k, l, comms[(k, l)])) for k in ks for l in ks}


__all__ = [
    "vacuum",
    "energy",
    "level_occupied",
    "f2_eigenvalue",
    "maya_string",
    "alpha_apply",
    "f2_apply",
    "dim_path",
    "pair_exp_alpha1",
    "e_operator_apply",
    "vev_hurwitz",
    "apply_a_integer",
    "a_vev",
    "a_correlator",
    "a_connected",
    "a_polynomiality_check",
    "h_from_a_correlator",
    "a_symbolic_matrix",
    "a_k_operators",
    "a_commutator_suite",
]
