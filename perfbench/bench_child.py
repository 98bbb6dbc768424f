"""One benchmark run in a fresh interpreter.

Usage (normally started by run.py):
    python3 perfbench/bench_child.py --workload NAME --seed N [--trace] [--spans PATH]
    python3 perfbench/bench_child.py --probe
    python3 perfbench/bench_child.py --workload NAME --seed 0 --record

The child imports every hurwitzlab module, runs the workload's campaign calls,
emits one report per call through the harness and checks every row, then reads
the digest values back through public cached calls.  The last line it prints
is ``PERFBENCH {json}`` with the monotonic time at which the imports finished,
wall and CPU time from then until the verified report, the row outcome and the
digest.  A failure prints ``PERFBENCH`` with an ``error`` field instead.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import pkgutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MARKER = "PERFBENCH "


def import_package():
    """Import hurwitzlab and every submodule from the checkout's src/ only."""
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("hurwitzlab")
    if Path(pkg.__file__).resolve().parent != SRC / "hurwitzlab":
        raise ImportError(f"hurwitzlab imported from {pkg.__file__}, not {SRC}")
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"hurwitzlab.{info.name}")


def _h(value) -> str:
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_steps(steps, sink):
    """Run the campaign calls; return the status of every report row and the Hurwitz table.

    ``sink`` receives the return value of every a_commutator_suite call, whose
    per-pair statuses the campaign summarises in a single row.
    """
    from hurwitzlab import fock, harness
    from hurwitzlab.hurwitz import HurwitzTable

    table = HurwitzTable()
    suite = fock.a_commutator_suite

    def capture(*args, **kwargs):
        out = suite(*args, **kwargs)
        sink.append(out)
        return out

    fock.a_commutator_suite = capture
    try:
        rows = []
        for campaign, args in steps:
            fn = getattr(harness, f"campaign_{campaign}")
            checks = fn(*args, table) if campaign == "hurwitz" else fn(*args)
            report = harness.report_emit(campaign, {"args": repr(args)}, checks)
            parsed = json.loads(harness.format_report(report, "json"))
            rows.extend(row["status"] for row in parsed["checks"])
    finally:
        fock.a_commutator_suite = suite
    return rows, table


def digest(steps, table, suites) -> dict:
    """Exact values read back after the campaigns, hashed per entry."""
    from hurwitzlab import bm, fock, hodge
    from hurwitzlab.hurwitz import fit_P_polynomial
    from hurwitzlab.rationals import rational_to_str

    out = {}
    for campaign, args in steps:
        if campaign == "bm":
            g, n = args[:2]
            out[f"w:{g},{n}"] = _h(bm.w_poly(g, n).to_json())
        if campaign in ("bm", "polyfit", "elsv"):
            g, n = args[:2]
            out[f"fit:{g},{n}"] = _h(fit_P_polynomial(g, n).poly.to_json())
        if campaign == "elsv":
            g, n = args[:2]
            deg = 3 * g - 3 + n
            for expts in _exponents(n, deg):
                value = hodge.hodge_integral(g, expts)
                out[f"hodge:{g}:{','.join(map(str, expts))}"] = _h(rational_to_str(value))
        if campaign == "hurwitz":
            g, mu = args
            out[_hkey(g, mu)] = _h(rational_to_str(table.value(g, mu)))
        if campaign == "fock":
            for m in range(1, 7):
                series = fock.a_correlator((m,), 1)
                coeffs = [rational_to_str(series.coeff(k)) for k in (-1, 0, 1)]
                out[f"onepoint:{m}"] = _h(coeffs)
            for g, mu in [(1, (2,)), (0, (1, 1, 1)), (0, (2, 1))]:
                out[_hkey(g, mu)] = _h(rational_to_str(table.value(g, mu)))
    for i, suite in enumerate(suites):
        for (k, l), status in sorted(suite.items()):
            out[f"commutator:{i}:{k},{l}"] = _h(status)
    return out


def _hkey(g, mu) -> str:
    return f"h:{g}:{','.join(map(str, mu))}"


def _exponents(n: int, deg: int):
    from itertools import product

    return [e for e in product(range(deg + 1), repeat=n) if sum(e) <= deg]


def record_pool(table) -> dict:
    """Reference values for every Hurwitz query any seed can draw."""
    from hurwitzlab.rationals import rational_to_str

    from bench_workloads import hurwitz_pool

    return {_hkey(g, mu): _h(rational_to_str(table.value(g, mu))) for g, mu in hurwitz_pool()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true", help="import, report, exit")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the traced spans here (.tsv.gz)")
    parser.add_argument("--record", action="store_true", help="also digest the query pool")
    args = parser.parse_args(argv)

    import_package()
    t_imported = time.monotonic()
    result = {"t_imported": t_imported}
    if args.probe:
        print(MARKER + json.dumps(result), flush=True)
        return 0

    from bench_workloads import steps as make_steps

    steps = make_steps(args.workload, args.seed)
    tracer = None
    if args.trace:
        from bench_trace import Tracer

        tracer = Tracer(f"{args.workload}-seed{args.seed}")
        tracer.install()
    suites = []
    try:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            rows, table = run_steps(steps, suites)
        finally:
            if tracer is not None:
                tracer.uninstall()
        result["wall_s"] = time.perf_counter() - w0
        result["cpu_s"] = time.process_time() - c0
        result["rows"] = len(rows)
        result["rows_not_pass"] = sum(1 for status in rows if status != "pass")
        result["digest"] = digest(steps, table, suites)
        if args.record and args.workload == "hurwitz-elsv":
            result["pool"] = record_pool(table)
    except Exception as exc:  # a crashed run: the runner counts all its operations failed
        traceback.print_exc()
        result["error"] = f"{type(exc).__name__}: {exc}"
    if tracer is not None:
        result["layers"] = tracer.aggregate()
        result["spans"] = len(tracer.start)
        if args.spans:
            tracer.write(args.spans)
    print(MARKER + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
