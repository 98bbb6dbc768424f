"""Campaign drivers tying the modules into the headline verifications.

Each campaign is a pure function of its parameters (plus the optional
Hurwitz cache) returning a list of check rows; ``report_emit`` wraps them
in the report schema, and the CLI in :mod:`hurwitzlab.cli` maps subcommands
onto campaigns.  Reports are deterministic: rows are emitted in a fixed
order and all rationals are serialized as exact strings.
"""

from __future__ import annotations

import json
import os
import time
from fractions import Fraction

from . import __version__
from .fock import _worst_status
from .hurwitz import (
    HurwitzTable,
    ResourceGuardError,
    _cutjoin_table,
    _simplex,
    branch_count,
    disconnected_by_b,
    fit_P_polynomial,
    h_bruteforce,
    h_connected,
    h_connected_cutjoin,
)
from .partitions import enumerate_partitions
from .rationals import rational_to_str

ACCEPTANCE_SET = [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]
CUTJOIN_SET = [(0, 3), (0, 4), (1, 1), (1, 2)]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, Fraction)):
        return rational_to_str(Fraction(value))
    return str(value)


def _first_mismatch(points, route_a: str, route_b: str):
    """True if a == b at every (where, a, b) of ``points``; else the row text
    naming the first point where the two routes differ, and both values."""
    for where, a, b in points:
        if a != b:
            return f"mismatch at {where}: {route_a} {_fmt(a)}, {route_b} {_fmt(b)}"
    return True


def _poly_points(p, q):
    """(t^e, p_e, q_e) over the sorted union of the exponents of two
    polynomials."""
    return ((f"t^{e}", p.coeff(e), q.coeff(e)) for e in sorted(p.terms.keys() | q.terms.keys()))


def check(name: str, ref: str, lhs, rhs, status=None) -> dict:
    if status is None:
        status = "pass" if lhs == rhs else "fail"
    return {
        "name": name,
        "ref": ref,
        "status": status,
        "lhs": _fmt(lhs),
        "rhs": _fmt(rhs),
    }


def report_emit(campaign: str, parameters: dict, checks: list) -> dict:
    return {
        "campaign": campaign,
        "parameters": parameters,
        "checks": checks,
        "versions": {"hurwitzlab": __version__},
    }


def report_status(report: dict) -> int:
    """0 if every check passed, 1 on any failure, 2 on inconclusive only."""
    worst = _worst_status(row["status"] for row in report["checks"])
    return {"pass": 0, "fail": 1, "inconclusive": 2}[worst]


def resolve_cache_path(flag_value):
    """The environment variable overrides the flag; absent both, no cache."""
    return os.environ.get("HURWITZLAB_CACHE") or flag_value


def load_cache(path) -> HurwitzTable:
    """The table stored at ``path``; an empty one with no path or no file
    there yet.  A path that cannot hold the cache (a directory, a file that
    cannot be read, a missing folder) raises ValueError naming it."""
    if not path:
        return HurwitzTable()
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"cache file {path}: no such directory")
    try:
        return HurwitzTable.load(path) if os.path.exists(path) else HurwitzTable()
    except OSError as exc:
        raise ValueError(f"cache file {path}: {exc.strerror}") from None


def save_cache(table: HurwitzTable, path):
    if path:
        table.save(path)


# -- campaigns -------------------------------------------------------------------


def _sigma_rows(order: int) -> list:
    """The printed deck-transformation expansions in both charts."""
    from .lambert import sigma_tilde_w, sigma_z

    checks = []
    sig = sigma_z(max(order, 6))
    printed = {
        1: Fraction(-1),
        2: Fraction(2, 3),
        3: Fraction(-4, 9),
        4: Fraction(44, 135),
        5: Fraction(-104, 405),
        6: Fraction(40, 189),
    }
    for k, val in printed.items():
        checks.append(check(f"sigma-z{k}", "deck-transformation expansion", sig.coeff(k), val))
    st = sigma_tilde_w(5)
    printed_t = {-1: Fraction(-1), 0: Fraction(-2, 3), 1: Fraction(0),
                 2: Fraction(-4, 135), 3: Fraction(8, 405), 4: Fraction(-8, 567)}
    for k, val in printed_t.items():
        checks.append(check(f"sigma-tilde-w{k}", "deck transformation, 1/t chart", st.coeff(k), val))
    return checks


def campaign_curve(order: int = 12) -> list:
    from .lambert import lemma2_check

    poles = ((f"rho_{k}, w^{i}", c, 0)
             for k, r in lemma2_check(5).items() for i, c in r["principal_part"].items())
    rho_row = check(
        "odd-principal-parts-rho",
        "rho_k symmetrization holomorphic at the branch point",
        _first_mismatch(poles, "symmetrized", "holomorphic"),
        True,
    )
    return _sigma_rows(order) + _r_matrix_rows() + [rho_row] + _bergman_rows()


def campaign_hurwitz(g: int, mu, table: HurwitzTable | None = None) -> list:
    mu = tuple(sorted((int(m) for m in mu), reverse=True))
    if table is None:
        table = HurwitzTable()
    checks = []
    val = h_connected(g, mu)
    table.insert(g, mu, val, "character")
    name = f"h-connected-g{g}-mu{list(mu)}"
    # a second route's value enters the table only when it agrees, so a
    # disagreement is a fail row rather than a table conflict
    try:
        other = h_connected_cutjoin(g, mu)
        checks.append(check(name, "character route vs cut-and-join table", val, other))
        if other == val:
            table.insert(g, mu, other, "cutjoin")
    except ResourceGuardError:
        checks.append(check(name, "cut-and-join table ends at d = 10, b = 16", val,
                            "not computed", status="inconclusive"))
    d, b = sum(mu), branch_count(g, mu)
    if d <= 6 and b <= 8:
        brute = h_bruteforce(g, mu)
        checks.append(check(f"route-brute-g{g}-mu{list(mu)}", "monodromy count", brute, val))
        if brute == val:
            table.insert(g, mu, brute, "brute")
    return checks


def campaign_polyfit(g: int, n: int, holdout: int = 2) -> list:
    fit = fit_P_polynomial(g, n, holdout)
    rep = fit.report
    return [
        check(f"fit-symmetric-{g}-{n}", "fitted polynomial symmetry", rep["symmetric"], True),
        check(f"fit-degree-{g}-{n}", "total degree within the expected bound",
              rep["total_degree_ok"], True),
        check(f"fit-holdout-{g}-{n}", "holdout points reproduce the fit",
              rep["holdout_ok"], True),
    ]


def campaign_bm(g: int, n: int, x_order: int = 6) -> list:
    from .bm import _w_form, bm_step, bm_vs_hurwitz, w_from_fit, w_invariants, w_poly

    checks = []
    inv = w_invariants(g, n)
    checks.append(check(f"w-symmetric-{g}-{n}", "output symmetry", inv["symmetric"], True))
    checks.append(check(f"w-degree-{g}-{n}", "per-variable degree bound", inv["degree_ok"], True))
    checks.append(
        check(f"w-divisible-{g}-{n}", "divisibility by t_i^2", inv["divisible_by_t_squared"], True)
    )
    # the two residue forms w_poly does not use, against its cached value
    w, form = w_poly(g, n), _w_form(g, n)
    forms = ((f"{f} form, {where}", a, b) for f in ("zz", "zs", "ss") if f != form
             for where, a, b in _poly_points(bm_step(g, n, f), w))
    checks.append(
        check(f"w-three-forms-{g}-{n}", "all residue argument conventions agree",
              _first_mismatch(forms, "step", "w_poly"), True)
    )
    checks.append(
        check(f"w-fit-reconstruction-{g}-{n}", "rho-basis reconstruction from the fit",
              _first_mismatch(_poly_points(w, w_from_fit(g, n)), "residue", "fit"), True)
    )
    rep = bm_vs_hurwitz(g, n, x_order)
    matched = rep["coefficients_checked"] > 0
    if rep["mismatch"] is not None:
        _, _, mu, got, expected = rep["mismatch"]
        matched = _first_mismatch([(f"mu={mu}", got, expected)], "x-expansion", "Hurwitz")
    checks.append(
        check(f"w-x-expansion-{g}-{n}", "x-expansion matches connected Hurwitz data",
              matched, True)
    )
    return checks


def campaign_elsv(g: int, n: int, holdout: int = 2) -> list:
    return campaign_polyfit(g, n, holdout) + _elsv_rows(g, n, holdout)


def _elsv_rows(g: int, n: int, holdout: int = 2) -> list:
    """Fitted coefficients of P_{g,n} against the signed Hodge integrals."""
    from .hodge import hodge_integral

    fit = fit_P_polynomial(g, n, holdout)
    deg = 3 * g - 3 + n
    coefficients = ((f"mu^{k}", fit.poly.coeff(k), hodge_integral(g, k))
                    for k in _simplex(n, deg))
    matched = _first_mismatch(coefficients, "fit", "Hodge")
    # the top row repeats one comparison, so a wrong top coefficient fails both
    sample = (deg,) + (0,) * (n - 1)
    return [
        check(f"elsv-coefficients-{g}-{n}", "fitted coefficients equal signed Hodge integrals",
              matched, True),
        check(f"elsv-top-coefficient-{g}-{n}", "top psi coefficient",
              fit.poly.coeff(sample), hodge_integral(g, sample)),
    ]


def campaign_fock(u_order: int = 1, kmax: int = 3, cutoff: int = 7) -> list:
    from .fock import a_commutator_suite, a_correlator, h_from_a_correlator, vev_hurwitz

    vevs = (
        (f"mu={list(mu)}, b={b}", vev_hurwitz(g2 // 2, mu), disconnected_by_b(mu, b))
        for d in range(1, 7)
        for mu in enumerate_partitions(d)
        for b in range(0, 7)
        if (g2 := b - d - len(mu) + 2) >= 0 and g2 % 2 == 0
    )
    checks = [check("wedge-vs-character", "vacuum expectations reproduce character sums",
                    _first_mismatch(vevs, "wedge", "character"), True)]
    for m in range(1, 7):
        got = a_correlator((m,), 1)
        printed = {-1: Fraction(1, m), 0: 0, 1: Fraction(m * (m - 1), 24)}
        terms = ((f"u^{k}", got.coeff(k), want) for k, want in printed.items())
        checks.append(check(f"one-point-expansion-z{m}", "printed one-point terms",
                            _first_mismatch(terms, "correlator", "printed"), True))
    checks.append(
        check("two-point-genus0-(1,3)", "geometric-series value 3/4",
              _two_point_value(), Fraction(3, 4))
    )
    for (g, mu) in [(1, (2,)), (0, (1, 1, 1)), (0, (2, 1))]:
        checks.append(
            check(
                f"correlator-route-h-{g}-{list(mu)}",
                "raising-operator correlators reproduce Hurwitz numbers",
                h_from_a_correlator(g, mu),
                h_connected(g, mu),
            )
        )
    poly1 = _a_poly_row()
    checks.append(
        check(
            "correlator-polynomiality-1pt",
            "genus-one one-point coefficient interpolates with exact holdout",
            poly1,
            True,
        )
    )
    suite = a_commutator_suite(kmax=kmax, u_order=max(u_order, 2), cutoff=cutoff)
    worst = _worst_status(suite.values())
    checks.append(
        check(
            f"commutators-kmax{kmax}",
            f"canonical commutation relations on test states at cutoff {cutoff - 1}, "
            f"compared at energy <= {cutoff - 1} - max(|k|, |l|)",
            "all-pass" if worst == "pass" else worst,
            "all-pass",
            status=worst,
        )
    )
    return checks


def _a_poly_row():
    """True if the fit is symmetric and exact on both holdout points; a
    holdout mismatch names the point and both values."""
    from .fock import a_polynomiality_check

    rep = a_polynomiality_check(1, 1, 2, [(4,), (5,)])
    if rep["miss"] is not None:
        point, fit, data = rep["miss"]
        return _first_mismatch([(f"holdout {point}", fit, data)], "fit", "data")
    return rep["symmetric"]


def _two_point_value() -> Fraction:
    from .fock import a_connected

    return a_connected((1, 3), 0).coeff(0)


def campaign_cutjoin() -> list:
    from .bm import cutjoin_t_check

    checks = []
    for (g, n) in CUTJOIN_SET:
        rep = cutjoin_t_check(g, n)
        got = _first_mismatch(_poly_points(rep["lhs"], rep["rhs"]), "lhs", "rhs")
        checks.append(check(f"cutjoin-identity-{g}-{n}", "cut-and-join polynomial identity",
                            "holds" if got is True else got, "holds"))
    return checks


# -- acceptance criteria ------------------------------------------------------------


def _r_matrix_rows() -> list:
    from .hodge import r_from_curve, r_hodge

    a, b = r_from_curve(8), r_hodge(8)
    terms = ((f"z^{k}", a.coeff(k), b.coeff(k)) for k in range(9))
    checks = [check("r-equality-z8", "curve route equals Bernoulli exponential",
                    _first_mismatch(terms, "curve", "Bernoulli"), True)]
    for k, val in {1: Fraction(1, 12), 2: Fraction(1, 288), 3: Fraction(-139, 51840)}.items():
        checks.append(check(f"r-z{k}", "printed values", a.coeff(k), val))
    return checks


def _hurwitz_route_rows() -> list:
    table = _cutjoin_table()
    partitions = [mu for d in range(1, 7) for mu in enumerate_partitions(d)]
    disconnected = ((f"mu={list(mu)}, b={b}", table[(mu, b)], disconnected_by_b(mu, b))
                    for mu in partitions for b in range(0, 9))
    connected = ((f"g={g}, mu={list(mu)}", h_bruteforce(g, mu), h_connected(g, mu))
                 for mu in partitions for g in range(0, 5) if branch_count(g, mu) <= 8)
    checks = [
        check("cutjoin-vs-character", "disconnected tables agree",
              _first_mismatch(disconnected, "cut-and-join", "character"), True),
        check("brute-vs-character", "connected numbers agree",
              _first_mismatch(connected, "brute", "character"), True),
    ]
    checks.append(check("spot-h-1-(2)", "transposition cube", h_connected(1, (2,)), Fraction(1, 2)))
    checks.append(check("spot-h-0-(1,1,1)", "degree-3 base", h_connected(0, (1, 1, 1)), 24))
    for a in range(1, 7):
        checks.append(
            check(f"spot-h-0-({a})", "one-part genus-0 closed form",
                  h_connected(0, (a,)), Fraction(a) ** (a - 3))
        )
    return checks


def _projection_row(g: int, n: int) -> dict:
    """The odd-projection route to W_{g,n} against the residue route."""
    from .bm import bm_step_projection, w_poly

    points = _poly_points(bm_step_projection(g, n), w_poly(g, n))
    return check(f"w-projection-g{g}-n{n}", "odd-projection route vs residue route",
                 _first_mismatch(points, "projection", "residue"), True)


def _bm_rows() -> list:
    from .bm import w_poly
    from .multipoly import MultiPoly

    checks = []
    for (g, n) in ACCEPTANCE_SET:
        checks.extend(campaign_bm(g, n, 6))
        checks.append(_projection_row(g, n))
    w11 = MultiPoly(
        1,
        {(5,): Fraction(-3, 24), (4,): Fraction(-5, 24), (3,): Fraction(-1, 24), (2,): Fraction(1, 24)},
    )
    checks.append(check("w-1-1-closed-form", "frozen value",
                        _first_mismatch(_poly_points(w_poly(1, 1), w11), "residue", "closed form"),
                        True))
    w03 = MultiPoly.const(3, -1)
    for i in range(3):
        v = MultiPoly.var(3, i)
        w03 = w03 * (v**2 * (1 + v))
    checks.append(check("w-0-3-closed-form", "frozen value",
                        _first_mismatch(_poly_points(w_poly(0, 3), w03), "residue", "closed form"),
                        True))
    return checks


def _bergman_rows() -> list:
    from .hodge import bergman_compat_check

    rep = bergman_compat_check()
    return [
        check("bergman-identity", "kernel compatibility identity", rep["identity"], True),
        check("bergman-specialization", "diagonal-ray series check",
              rep["specialization_y2_eq_2y1"], True),
    ]


def _timed(idx: int, rows, budget: int):
    """Criterion ``idx``: its rows plus a row checking their CPU time
    (``time.process_time``, so another busy process does not flip it)."""

    def run() -> list:
        t0 = time.process_time()
        checks = rows()
        elapsed = time.process_time() - t0
        checks.append(check(f"criterion{idx}-runtime-s", f"budget {budget} s", elapsed < budget, True))
        return checks

    return run


# criterion -> (row builder, CPU-time budget in seconds)
_CRITERIA = {
    1: (lambda: _sigma_rows(8), 1),
    2: (_r_matrix_rows, 1),
    3: (_hurwitz_route_rows, 60),
    4: (lambda: campaign_fock(u_order=1, kmax=3, cutoff=7), 300),
    5: (lambda: [c for g, n in ACCEPTANCE_SET for c in campaign_polyfit(g, n)], 600),
    6: (_bm_rows, 600),
    7: (campaign_cutjoin, 300),
    8: (lambda: [c for g, n in ACCEPTANCE_SET for c in _elsv_rows(g, n)], 600),
    9: (_bergman_rows, 1),
}
ALL_CRITERIA = {idx: _timed(idx, rows, budget) for idx, (rows, budget) in _CRITERIA.items()}


def campaign_all() -> list:
    checks = []
    for idx in sorted(ALL_CRITERIA):
        rows = ALL_CRITERIA[idx]()
        for row in rows:
            row["name"] = f"c{idx}:{row['name']}"
        checks.extend(rows)
    return checks


def format_report(report: dict, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    if fmt == "csv":
        lines = ["name,ref,status,lhs,rhs"]
        for row in report["checks"]:
            lines.append(
                ",".join(
                    '"' + str(row[key]).replace('"', '""') + '"'
                    for key in ("name", "ref", "status", "lhs", "rhs")
                )
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


__all__ = [
    "ACCEPTANCE_SET",
    "CUTJOIN_SET",
    "check",
    "report_emit",
    "report_status",
    "resolve_cache_path",
    "load_cache",
    "save_cache",
    "campaign_curve",
    "campaign_hurwitz",
    "campaign_polyfit",
    "campaign_bm",
    "campaign_elsv",
    "campaign_fock",
    "campaign_cutjoin",
    "campaign_all",
    "ALL_CRITERIA",
    "format_report",
]
