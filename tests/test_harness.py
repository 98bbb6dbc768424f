import json
from fractions import Fraction

import pytest

from hurwitzlab import bm, fock, harness, hodge, hurwitz, lambert
from hurwitzlab.cli import main
from hurwitzlab.hurwitz import ConflictError, HurwitzTable
from hurwitzlab.multipoly import MultiPoly
from hurwitzlab.series import Series


def test_report_schema_and_status():
    rows = [harness.check("a", "ref-a", 1, 1), harness.check("b", "ref-b", 1, 2)]
    rep = harness.report_emit("demo", {"x": 1}, rows)
    assert set(rep) == {"campaign", "parameters", "checks", "versions"}
    assert rep["checks"][0]["status"] == "pass"
    assert rep["checks"][1]["status"] == "fail"
    assert harness.report_status(rep) == 1
    rows = [harness.check("c", "r", "x", "x", status="inconclusive")]
    assert harness.report_status(harness.report_emit("demo", {}, rows)) == 2


def test_env_var_overrides_flag(tmp_path, monkeypatch):
    envpath = tmp_path / "env.json"
    monkeypatch.setenv("HURWITZLAB_CACHE", str(envpath))
    assert harness.resolve_cache_path("/elsewhere.json") == str(envpath)
    monkeypatch.delenv("HURWITZLAB_CACHE")
    assert harness.resolve_cache_path("/elsewhere.json") == "/elsewhere.json"
    assert harness.resolve_cache_path(None) is None


def test_cache_roundtrip_and_conflict(tmp_path):
    path = tmp_path / "cache.json"
    table = HurwitzTable()
    harness.campaign_hurwitz(1, (2,), table)
    harness.save_cache(table, str(path))
    loaded = harness.load_cache(str(path))
    assert loaded.get(1, (2,)) == table.get(1, (2,))
    # corrupt the stored value; the reload then conflicts with a fresh insert
    data = json.loads(path.read_text())
    data[0]["value"] = "999"
    path.write_text(json.dumps(data))
    bad = harness.load_cache(str(path))
    with pytest.raises(ConflictError):
        harness.campaign_hurwitz(1, (2,), bad)


def test_cli_hurwitz_value(tmp_path, capsys):
    code = main(["hurwitz", "--g", "1", "--mu", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert "1/2" in captured.err
    rep = json.loads(captured.out)
    assert rep["campaign"] == "hurwitz"
    assert all(row["status"] == "pass" for row in rep["checks"])


def test_cli_hurwitz_beyond_the_cut_and_join_table_is_inconclusive(capsys):
    # d = 11: no second route, so the row is inconclusive, not a pass
    assert main(["hurwitz", "--g", "3", "--mu", "6,5"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert [(row["name"], row["status"]) for row in rep["checks"]] == [
        ("h-connected-g3-mu[6, 5]", "inconclusive")
    ]


def test_hurwitz_row_compares_against_the_cut_and_join_table(monkeypatch, capsys):
    rows = harness.campaign_hurwitz(2, (4, 3))
    assert rows[0]["ref"] == "character route vs cut-and-join table"
    assert rows[0]["status"] == "pass"
    # a wrong disconnected-number source disagrees with the character route
    real = hurwitz.cut_and_join_evolve
    monkeypatch.setattr(
        hurwitz, "cut_and_join_evolve", lambda: {k: 2 * v for k, v in real().items()}
    )
    hurwitz._cutjoin_table.cache_clear()
    hurwitz.h_connected_cutjoin.cache_clear()
    try:
        row = harness.campaign_hurwitz(1, (2,), HurwitzTable())[0]
        assert (row["status"], row["lhs"], row["rhs"]) == ("fail", "1/2", "1")
        assert main(["hurwitz", "--g", "2", "--mu", "4,3"]) == 1
        assert json.loads(capsys.readouterr().out)["checks"][0]["status"] == "fail"
    finally:
        hurwitz._cutjoin_table.cache_clear()
        hurwitz.h_connected_cutjoin.cache_clear()


@pytest.mark.parametrize(
    "route, name, label",
    [
        ("h_connected_cutjoin", "h-connected-g1-mu[2]", "cutjoin"),
        ("h_bruteforce", "route-brute-g1-mu[2]", "brute"),
    ],
)
def test_hurwitz_route_disagreement_is_a_fail_row(monkeypatch, capsys, route, name, label):
    # the second route's wrong value is reported, not inserted into the table
    real = getattr(harness, route)
    monkeypatch.setattr(harness, route, lambda g, mu: real(g, mu) + 1)
    table = HurwitzTable()
    rows = {row["name"]: row for row in harness.campaign_hurwitz(1, (2,), table)}
    assert rows[name]["status"] == "fail"
    assert {rows[name]["lhs"], rows[name]["rhs"]} == {"1/2", "3/2"}
    assert table.get(1, (2,)) == Fraction(1, 2)
    assert label not in table.entries[(1, (2,))][1]
    assert main(["hurwitz", "--g", "1", "--mu", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "1/2\n"
    failed = [row for row in json.loads(captured.out)["checks"] if row["status"] == "fail"]
    assert [row["name"] for row in failed] == [name]


def test_cli_curve_csv(capsys):
    code = main(["--format", "csv", "curve", "--order", "6"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("name,ref,status,lhs,rhs")


def test_cli_report_is_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["--out", str(out1), "curve", "--order", "6"]) == 0
    assert main(["--out", str(out2), "curve", "--order", "6"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_curve_rows_are_criterion_rows():
    # the curve campaign reuses the criterion row builders; only the rho
    # symmetrization row (lemma 2) is its own
    def key(row):
        return row["name"], row["status"], row["lhs"], row["rhs"]

    rows = harness.campaign_curve(6)
    criteria = {key(row) for idx in (1, 2, 9) for row in harness.ALL_CRITERIA[idx]()}
    own = [row["name"] for row in rows if key(row) not in criteria]
    assert len(rows) == 19 and own == ["odd-principal-parts-rho"]


def test_cli_polyfit_and_elsv(capsys):
    assert main(["polyfit", "--g", "1", "--n", "1"]) == 0
    capsys.readouterr()
    assert main(["elsv", "--g", "1", "--n", "1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    names = {row["name"] for row in rep["checks"]}
    assert any(name.startswith("elsv-coefficients") for name in names)


def test_cli_bm_small(capsys):
    assert main(["bm", "--g", "0", "--n", "3", "--x-order", "3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert all(row["status"] == "pass" for row in rep["checks"])


@pytest.mark.parametrize(
    "argv",
    [
        ["hurwitz", "--g", "0", "--mu", "0"],
        ["hurwitz", "--g", "1", "--mu", "2,-1"],
        ["hurwitz", "--g", "1", "--mu", ","],
        ["hurwitz", "--g", "-1", "--mu", "2"],
        ["polyfit", "--g", "0", "--n", "1"],
        ["polyfit", "--g", "2", "--n", "0"],
        ["bm", "--g", "0", "--n", "2"],
        ["elsv", "--g", "0", "--n", "2"],
        ["elsv", "--g", "-1", "--n", "5"],
        ["fock", "--kmax", "-1"],
        ["fock", "--cutoff", "-1"],
        ["bm", "--g", "0", "--n", "3", "--x-order", "0"],
        # --grid is gone with the tensor-grid fit; argparse rejects it
        ["polyfit", "--g", "1", "--n", "1", "--grid", "1"],
        ["elsv", "--g", "1", "--n", "1", "--grid", "1"],
        ["polyfit", "--g", "0", "--n", "3", "--holdout", "0"],
        ["elsv", "--g", "0", "--n", "3", "--holdout", "-1"],
        ["curve", "--order", "-2"],
        ["curve", "--order", "-3"],
    ],
)
def test_cli_bad_input_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, where",
    [
        ("{not json", "line 1 column 2"),
        ('[{"g": 0, "mu": [2, 1], "b": 3, "value": "4"}]', "row 0"),
        ('[{"g": 0, "mu": [0], "b": 1, "value": "4", "route": "character"}]', "row 0"),
        ('[{"g": 0, "mu": [2, 1], "b": 3, "value": "1/0", "route": "character"}]', "row 0"),
        ("3", "list of rows"),
        ('[{"g": 0, "mu": [2, 1], "b": 9, "value": "1", "route": "character"}]', "row 0"),
        ('[{"g": 0, "mu": [2, 1], "b": 3, "value": "1", "route": "character"},'
         ' {"g": 0, "mu": [2, 1], "b": 3, "value": "2", "route": "brute"}]', "row 1"),
        ('[{"g": -1, "mu": [2, 1], "b": 1, "value": "5", "route": "character"}]', "row 0"),
    ],
)
@pytest.mark.parametrize("via_env", [False, True])
def test_cli_malformed_cache_is_a_usage_error(text, where, via_env, tmp_path, monkeypatch, capsys):
    # not JSON, a row without its route, a row with a part 0, a row whose
    # value divides by zero, JSON that is not a list of rows, a row whose b
    # is not the branch count of its (g, mu), two rows with different values
    # for one (g, mu), and a row with a negative genus whose b matches
    path = tmp_path / "cache.json"
    path.write_text(text)
    monkeypatch.delenv("HURWITZLAB_CACHE", raising=False)
    argv = ["hurwitz", "--g", "0", "--mu", "2,1"]
    if via_env:
        monkeypatch.setenv("HURWITZLAB_CACHE", str(path))
    else:
        argv = ["--cache", str(path)] + argv
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and str(path) in errors[0] and where in errors[0], captured.err
    assert "Traceback" not in captured.err
    assert path.read_text() == text


@pytest.mark.parametrize("where", ["directory", "missing folder"])
@pytest.mark.parametrize("via_env", [False, True])
def test_cli_unopenable_cache_is_a_usage_error(where, via_env, tmp_path, monkeypatch, capsys):
    # a directory, or a file in a folder that does not exist, is rejected
    # before any campaign runs, with one error line naming the path
    path = tmp_path if where == "directory" else tmp_path / "nodir" / "cache.json"
    ran = []
    monkeypatch.setattr(harness, "campaign_hurwitz", lambda *args: ran.append(args) or [])
    monkeypatch.delenv("HURWITZLAB_CACHE", raising=False)
    argv = ["hurwitz", "--g", "0", "--mu", "2,1"]
    if via_env:
        monkeypatch.setenv("HURWITZLAB_CACHE", str(path))
    else:
        argv = ["--cache", str(path)] + argv
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and not ran
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and str(path) in errors[0], captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "nodir").exists()


def test_cli_commutator_pair_above_its_band_exits_2(capsys):
    # at cutoff 3 the state (2, 1) sits above every band, so each pair is
    # inconclusive, and nothing else in the campaign is
    assert main(["fock", "--kmax", "1", "--cutoff", "3"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    rows = {row["name"]: row for row in json.loads(captured.out)["checks"]}
    assert rows["commutators-kmax1"]["lhs"] == "inconclusive"
    assert [name for name, row in rows.items() if row["status"] != "pass"] == ["commutators-kmax1"]


def _double_connected(monkeypatch):
    real = fock.a_connected
    monkeypatch.setattr(fock, "a_connected", lambda mu, u_order: real(mu, u_order) * 2)


def _double_a2(monkeypatch):
    real = fock.a_k_operators

    def doubled(matrix, ks, u_order):
        ops = real(matrix, ks, u_order)
        ops[2] = {lam: {nu: c * 2 for nu, c in row.items()} for lam, row in ops[2].items()}
        return ops

    monkeypatch.setattr(fock, "a_k_operators", doubled)


# criterion-4 row families with no route comparison of their own: the
# mutation, the fock flags, and every row that must fail
FOCK_MUTATIONS = [
    # the polynomiality fit of a doubled correlator stays symmetric and exact
    (_double_connected, ["--kmax", "1", "--cutoff", "5"],
     ["two-point-genus0-(1,3)", "correlator-route-h-1-[2]", "correlator-route-h-0-[1, 1, 1]",
      "correlator-route-h-0-[2, 1]"]),
    (_double_a2, ["--kmax", "2", "--cutoff", "6"], ["commutators-kmax2"]),
]


@pytest.mark.parametrize("mutate, flags, names", FOCK_MUTATIONS,
                         ids=["doubled-a-connected", "doubled-a2"])
def test_cli_fock_mutation_fails_its_rows(monkeypatch, capsys, mutate, flags, names):
    mutate(monkeypatch)
    assert main(["fock"] + flags) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    rows = json.loads(captured.out)["checks"]
    assert [row["name"] for row in rows if row["status"] != "pass"] == names
    assert all(row["status"] == "fail" for row in rows if row["name"] in names)


def _drop_sigma_z4(monkeypatch):
    real = lambert.sigma_z
    monkeypatch.setattr(lambert, "sigma_z",
                        lambda order: real(order) - Series(4, [real(order).coeff(4)], order))


def _double_r_from_curve(monkeypatch):
    real = hodge.r_from_curve
    monkeypatch.setattr(hodge, "r_from_curve", lambda order: real(order) * 2)


def _w03_plus(extra):
    def mutate(monkeypatch):
        real = bm.w_poly
        monkeypatch.setattr(bm, "w_poly",
                            lambda g, n: real(g, n) + extra if (g, n) == (0, 3) else real(g, n))
    return mutate


_T = [MultiPoly.var(3, i) for i in range(3)]


def _criterion_alone(idx, mutate):
    """``mutate``, with ``all`` running criterion ``idx`` alone."""
    def run(monkeypatch):
        mutate(monkeypatch)
        monkeypatch.setattr(harness, "ALL_CRITERIA", {idx: harness.ALL_CRITERIA[idx]})
    return run


# row families that compare one route with printed values or an invariant:
# the mutation, the command, and every row that must fail
CLI_ROUTE_MUTATIONS = [
    # sigma-tilde(t) = 1/sigma(1/t): a z^4 term of sigma moves w^2 onwards
    (_drop_sigma_z4, ["curve"],
     ["sigma-z4", "sigma-tilde-w2", "sigma-tilde-w3", "sigma-tilde-w4", "odd-principal-parts-rho"]),
    (_double_r_from_curve, ["curve"], ["r-equality-z8", "r-z1", "r-z2", "r-z3"]),
    # symmetric and divisible by every t_i^2, of degree 4 > 3 in each t_i
    (_w03_plus(sum(_T[i] ** 4 * _T[i - 1] ** 2 * _T[i - 2] ** 2 for i in range(3))),
     ["bm", "--g", "0", "--n", "3"],
     ["w-degree-0-3", "w-three-forms-0-3", "w-fit-reconstruction-0-3", "w-x-expansion-0-3"]),
    # symmetric and of degree 1 in each t_i, divisible by no t_i^2
    (_w03_plus(_T[0] * _T[1] * _T[2]), ["bm", "--g", "0", "--n", "3"],
     ["w-divisible-0-3", "w-three-forms-0-3", "w-fit-reconstruction-0-3", "w-x-expansion-0-3"]),
    # every connected number read by criterion 3 off by one: the spot values
    # and the brute-force comparison
    (_criterion_alone(3, lambda mp: _plus(mp, harness, "h_connected", lambda g, mu: 1)), ["all"],
     ["c3:brute-vs-character", "c3:spot-h-1-(2)", "c3:spot-h-0-(1,1,1)"]
     + [f"c3:spot-h-0-({a})" for a in range(1, 7)]),
    # the top psi coefficient of P_{1,2} is one of the coefficients compared
    (lambda mp: _plus(mp, hodge, "hodge_integral", lambda g, k: int(tuple(k) == (2, 0))),
     ["elsv", "--g", "1", "--n", "2"], ["elsv-coefficients-1-2", "elsv-top-coefficient-1-2"]),
]


@pytest.fixture
def fresh_sigma_caches():
    """No sigma-tilde or eta built from a mutated sigma outlives the test."""
    caches = (lambert.sigma_tilde_w, lambert.eta_series)
    for f in caches:
        f.cache_clear()
    yield
    for f in caches:
        f.cache_clear()


@pytest.mark.parametrize("mutate, argv, names", CLI_ROUTE_MUTATIONS,
                         ids=["sigma-z4-dropped", "doubled-r-from-curve", "w-degree", "w-divisible",
                              "spot-h", "elsv-top-coefficient"])
def test_cli_route_mutation_fails_its_rows(monkeypatch, capsys, fresh_sigma_caches,
                                           mutate, argv, names):
    mutate(monkeypatch)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    rows = json.loads(captured.out)["checks"]
    assert [row["name"] for row in rows if row["status"] != "pass"] == names
    assert all(row["status"] == "fail" for row in rows if row["name"] in names)


def test_cli_short_operator_entry_is_inconclusive(monkeypatch, capsys):
    # A_1 known only through u^1 while the suite compares through u^2: the
    # pairs that read it cannot be decided, and nothing in them reads as 0
    real = fock.a_k_operators

    def short(matrix, ks, u_order):
        ops = real(matrix, ks, u_order)
        ops[1] = {lam: {nu: c.truncate(1) for nu, c in row.items()} for lam, row in ops[1].items()}
        return ops

    monkeypatch.setattr(fock, "a_k_operators", short)
    r = fock.a_commutator_suite(1, 2, 6)
    assert {p: s for p, s in r.items() if s != "pass"} == dict.fromkeys(
        [(-1, 1), (0, 1), (1, -1), (1, 0), (1, 1)], "inconclusive")
    assert main(["fock", "--kmax", "1", "--cutoff", "6"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    rows = {row["name"]: row for row in json.loads(captured.out)["checks"]}
    assert rows["commutators-kmax1"]["lhs"] == "inconclusive"
    assert [name for name, row in rows.items() if row["status"] != "pass"] == ["commutators-kmax1"]


def test_cli_holdout_miss_exits_1(monkeypatch, capsys, fresh_fit_cache):
    # scaled values polynomial at the fit points 1..3 and the first holdout
    # 4, and broken at the second holdout 5
    monkeypatch.setattr(
        hurwitz, "hurwitz_scaled_value",
        lambda g, mu: Fraction(0) if max(mu) <= 4 else Fraction(1),
    )
    assert main(["polyfit", "--g", "1", "--n", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "not polynomial: fit for (g,n)=(1,1) fails at holdout (5,): poly gives 0, data gives 1\n"
    )


def test_correlator_polynomiality_row_names_its_holdout_witness(monkeypatch):
    # a connected one-point correlator whose u^1 coefficient is mu^4: the
    # divided value mu^3 is no quadratic on the fit points 1, 2, 3, whose fit
    # 6mu^2 - 11mu + 6 gives 58 at the first holdout point 4
    from hurwitzlab import fock
    from hurwitzlab.series import Series

    monkeypatch.setattr(
        fock, "a_connected", lambda mu, u_order: Series(1, [Fraction(mu[0] ** 4)], u_order)
    )
    rows = {row["name"]: row for row in harness.campaign_fock(1, 1, 5)}
    row = rows["correlator-polynomiality-1pt"]
    assert row["status"] == "fail"
    assert row["lhs"] == "mismatch at holdout (4,): fit 58, data 64"


def test_elsv_row_names_the_first_mismatch(monkeypatch):
    # hodge_integral wrong at (0, 2) and (1, 0); the coefficients of P_{1,2}
    # are read in lexicographic order, so (0, 2) is the witness
    from hurwitzlab import hodge

    real = hodge.hodge_integral
    wrong = {(0, 2), (1, 0)}
    monkeypatch.setattr(
        hodge, "hodge_integral",
        lambda g, expts: real(g, expts) + 1 if tuple(expts) in wrong else real(g, expts),
    )
    rows = {row["name"]: row for row in harness.campaign_elsv(1, 2)}
    row = rows["elsv-coefficients-1-2"]
    lhs = hurwitz.fit_P_polynomial(1, 2).poly.coeff((0, 2))
    assert row["status"] == "fail"
    assert row["lhs"] == f"mismatch at mu^(0, 2): fit {lhs}, Hodge {real(1, (0, 2)) + 1}"
    assert "Fraction(" not in row["lhs"]
    assert rows["elsv-top-coefficient-1-2"]["status"] == "pass"


def test_each_fit_is_cached_once(fresh_fit_cache):
    # criterion 6 reads fit_P_polynomial(g, n), criteria 5 and 8 read
    # fit_P_polynomial(g, n, holdout): one fit per (g, n) serves all three
    for idx in (5, 6, 8):
        harness.ALL_CRITERIA[idx]()
    info = hurwitz._fit_P.cache_info()
    assert info.misses == len(set(harness.ACCEPTANCE_SET)), info
    assert info.hits > 0


def test_fit_degree_row_fails_on_data_of_degree_d_plus_1(monkeypatch, capsys, fresh_fit_cache):
    # scaled values plus (mu_1 + mu_2)^(D + 1), D = 2: the fit in total
    # degree D + 1 reproduces them at both holdouts, so only the degree row
    # can see that they are no polynomial of degree D
    _plus(monkeypatch, hurwitz, "hurwitz_scaled_value", lambda g, mu: sum(mu) ** 3)
    rows = {row["name"]: row["status"] for row in harness.campaign_polyfit(1, 2)}
    assert rows == {"fit-symmetric-1-2": "pass", "fit-degree-1-2": "fail",
                    "fit-holdout-1-2": "pass"}
    hurwitz._fit_P.cache_clear()
    assert main(["polyfit", "--g", "1", "--n", "2"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    failed = [row["name"] for row in json.loads(captured.out)["checks"] if row["status"] == "fail"]
    assert failed == ["fit-degree-1-2"]


@pytest.mark.parametrize(
    "route, name, wrong_at, witness",
    [
        ("h_bruteforce", "brute-vs-character", (1, (2, 1)),
         "mismatch at g=1, mu=[2, 1]: brute 41, character 40"),
        ("disconnected_by_b", "cutjoin-vs-character", ((2, 1), 3),
         "mismatch at mu=[2, 1], b=3: cut-and-join 9/2, character 11/2"),
    ],
)
def test_route_rows_name_the_first_mismatch(monkeypatch, capsys, route, name, wrong_at, witness):
    real = getattr(harness, route)
    monkeypatch.setattr(
        harness, route, lambda *args: real(*args) + 1 if args == wrong_at else real(*args)
    )
    rows = {row["name"]: row for row in harness.ALL_CRITERIA[3]()}
    assert (rows[name]["status"], rows[name]["lhs"]) == ("fail", witness)
    assert [row["name"] for row in rows.values() if row["status"] == "fail"] == [name]
    # the CLI reports the row and exits 1 (criterion 3 alone, to keep the test short)
    monkeypatch.setattr(harness, "ALL_CRITERIA", {3: harness.ALL_CRITERIA[3]})
    assert main(["all"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    failed = [row for row in json.loads(captured.out)["checks"] if row["status"] == "fail"]
    assert [(row["name"], row["lhs"]) for row in failed] == [(f"c3:{name}", witness)]


def test_criterion_3_walks_each_degree_once():
    hurwitz._transitive_tallies.cache_clear()
    harness.ALL_CRITERIA[3]()
    assert hurwitz._transitive_tallies.cache_info().misses == 6  # degrees 1..6


def test_projection_row_names_the_first_mismatch(monkeypatch):
    from hurwitzlab import bm
    from hurwitzlab.multipoly import MultiPoly

    assert harness._projection_row(1, 1)["status"] == "pass"
    real = bm.bm_step_projection
    monkeypatch.setattr(
        bm, "bm_step_projection", lambda g, n: real(g, n) + MultiPoly.var(n, 0, 3)
    )
    row = harness._projection_row(1, 1)
    assert row["name"] == "w-projection-g1-n1"
    assert (row["status"], row["lhs"]) == (
        "fail", "mismatch at t^(3,): projection 23/24, residue -1/24"
    )


def _plus(monkeypatch, module, name, extra):
    """Replace the route ``module.name`` by itself plus ``extra(*args)``."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: real(*args) + extra(*args))


def _wrong_w(monkeypatch, g, n, others):
    """A residue-route W_{g,n} with an extra t_1; criterion 6 then runs only
    the campaigns of ``others``, none of which reads W_{g,n}."""
    monkeypatch.setattr(harness, "ACCEPTANCE_SET", others)
    _plus(monkeypatch, bm, "w_poly", lambda *gn: MultiPoly.var(n, 0) if gn == (g, n) else 0)


def _wrong_ss_step(monkeypatch):
    _plus(monkeypatch, bm, "bm_step", lambda g, n, form: MultiPoly.var(n, 0) if form == "ss" else 0)


# one entry per route comparison that names its first mismatch: the wrong
# route, the campaign holding the row, and the row's expected lhs
ROUTE_MUTATIONS = [
    ("w-three-forms-0-3", _wrong_ss_step, lambda: harness.campaign_bm(0, 3, 2),
     "mismatch at ss form, t^(1, 0, 0): step 1, w_poly 0"),
    ("w-fit-reconstruction-0-3",
     lambda mp: _plus(mp, bm, "w_from_fit", lambda g, n: MultiPoly.var(n, 0)),
     lambda: harness.campaign_bm(0, 3, 2), "mismatch at t^(1, 0, 0): residue 0, fit 1"),
    ("w-1-1-closed-form", lambda mp: _wrong_w(mp, 1, 1, [(0, 3)]), harness._bm_rows,
     "mismatch at t^(1,): residue 1, closed form 0"),
    ("w-0-3-closed-form", lambda mp: _wrong_w(mp, 0, 3, [(1, 1)]), harness._bm_rows,
     "mismatch at t^(1, 0, 0): residue 1, closed form 0"),
    ("r-equality-z8",
     lambda mp: _plus(mp, hodge, "r_hodge", lambda order: Series(3, [Fraction(1)], order)),
     harness._r_matrix_rows, "mismatch at z^3: curve -139/51840, Bernoulli 51701/51840"),
    ("wedge-vs-character",
     lambda mp: _plus(mp, fock, "vev_hurwitz", lambda g, mu: int((g, mu) == (0, (2, 1)))),
     lambda: harness.campaign_fock(1, 1, 5),
     "mismatch at mu=[2, 1], b=3: wedge 11/2, character 9/2"),
    # the u^0 term of a_correlator((3,), 1) is read by the one-point rows
    # alone: the two-point row, through a_connected((1, 3), 0), multiplies it
    # by the u^0 term of the one-point correlator of 1, which is 0
    ("one-point-expansion-z3",
     lambda mp: _plus(mp, fock, "a_correlator", lambda mu, u: Series.const(Fraction(1), u)
                      if (mu, u) == ((3,), 1) else 0),
     lambda: harness.campaign_fock(1, 1, 5), "mismatch at u^0: correlator 1, printed 0"),
    ("odd-principal-parts-rho",
     lambda mp: _plus(mp, lambert, "rho_poly", lambda k: MultiPoly.var(1, 0, 2) if k == 2 else 0),
     lambda: harness.campaign_curve(12), "mismatch at rho_2, w^-2: symmetrized 2, holomorphic 0"),
]


@pytest.mark.parametrize(
    "name, mutate, campaign, lhs", ROUTE_MUTATIONS, ids=[entry[0] for entry in ROUTE_MUTATIONS]
)
def test_route_comparison_names_its_first_mismatch(monkeypatch, name, mutate, campaign, lhs):
    mutate(monkeypatch)
    rows = {row["name"]: row for row in campaign()}
    assert (rows[name]["status"], rows[name]["lhs"], rows[name]["rhs"]) == ("fail", lhs, "true")
    assert [other for other, row in rows.items() if row["status"] != "pass"] == [name]


def test_cli_bm_mismatch_is_a_fail_row(monkeypatch, capsys):
    _wrong_ss_step(monkeypatch)
    assert main(["bm", "--g", "0", "--n", "3"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    failed = [(row["name"], row["lhs"]) for row in json.loads(captured.out)["checks"]
              if row["status"] != "pass"]
    assert failed == [("w-three-forms-0-3", "mismatch at ss form, t^(1, 0, 0): step 1, w_poly 0")]
