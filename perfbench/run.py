"""Benchmark runner for hurwitzlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --record

Every run of a workload is a fresh interpreter (bench_child.py), started one
at a time in a closed loop: the next child starts when the previous one has
exited.  The package memoises at process level, so a second run inside one
process would time cache hits; a command-line user pays the cold cost on
every invocation, and so does each child.

With ``--trace 0`` the runner starts children while the next one would be
half done within ``--seconds`` (at least one) and reports the end-to-end
metrics as medians over them.  With ``--trace 1`` it runs one untraced and one traced child and
reports the per-layer metrics of the traced one.  Every child's check rows and
digest are compared against digests.json; the last line printed is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

This module imports no part of hurwitzlab: the peak RSS that os.wait4 reports
for a child also covers the memory the runner had when it spawned the child.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "bench_child.py"
DIGESTS = HERE / "digests.json"
OUT_DIR = ROOT / ".perfbench_out"
MARKER = "PERFBENCH "
RUN_DEADLINE_S = 170.0  # a run must exit within 180 s, whatever its children do
PROBES_PER_CHILD = 3

sys.path.insert(0, str(HERE))
from bench_workloads import WORKLOADS  # noqa: E402

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

_LAYER_SPANS = {
    "bm.bm_step": "calls",
    "bm.bm_step.zz": "total_s",
    "bm.bm_step.zs": "total_s",
    "bm.bm_step.ss": "total_s",
    "bm.w_poly": "hit_ratio",
    "series.residue": "self_s",
    "lambert.kernel_K": "calls self_s",
    "lambert.sigma_z": "total_s",
    "bm.d1d2_h02_diagonal": "total_s",
    "multipoly.ratfn": "self_s",
    "multipoly.mul": "calls self_s",
    "multipoly.add": "calls self_s",
    "multipoly.eval": "self_s",
    "series.mul": "calls self_s",
    "series.reciprocal": "calls self_s",
    "series.compose": "self_s",
    "series.reverse": "self_s",
    "series.exp": "self_s",
    "series.log": "self_s",
    "partitions.mn_character": "calls self_s",
    "hurwitz.h_connected": "calls self_s hit_ratio",
    "hurwitz.fit_P_polynomial": "self_s hit_ratio",
    "hurwitz.h_bruteforce": "total_s",
    "hurwitz.cut_and_join_evolve": "total_s",
    "hodge.kw_potential": "total_s",
    "hodge.givental_apply": "total_s",
    "hodge.hodge_potential": "total_s",
    "hodge.r_from_curve": "total_s",
    "hodge.bergman_compat_check": "total_s",
    "hodge.wk_correlator": "hit_ratio",
    "fock.a_symbolic_matrix": "total_s",
    "fock.a_k_operators": "total_s",
    "fock.a_commutator_suite": "total_s",
    "fock.a_correlator": "total_s",
    "fock.h_from_a_correlator": "total_s",
    "fock.vev_hurwitz": "total_s",
    **{
        f"harness.campaign_{c}": "total_s"
        for c in ("bm", "fock", "curve", "hurwitz", "polyfit", "elsv", "cutjoin")
    },
    "harness.report": "total_s",
}
_UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "hit_ratio": "ratio"}
# Per-layer metrics as (name, span, field, unit); the last three are context.
PER_LAYER = [
    (f"{span}.{field}", span, field, _UNITS[field])
    for span, fields in _LAYER_SPANS.items()
    for field in fields.split()
]
PER_LAYER += [
    ("trace.overhead_s", None, None, "s"),
    ("host.ref_loop_s", None, None, "s"),
    ("package.src_lines", None, None, "lines"),
]


def ref_loop() -> float:
    """Time a fixed pure-Python loop: a record of host speed, never a scale factor."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def src_lines() -> int:
    return sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "hurwitzlab").rglob("*.py"))
    )


def spawn_child(argv, timeout: float = RUN_DEADLINE_S) -> dict:
    """Run one child to completion; return its payload with setup_s and peak_rss_mb.

    setup_s runs from just before the spawn to the moment the child reports
    its imports done (both CLOCK_MONOTONIC); peak_rss_mb is the child's
    ru_maxrss from os.wait4.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    chunks, deadline, killed = [], t_spawn + timeout, False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            left = deadline - time.monotonic()
            if left <= 0 and not killed:
                proc.kill()
                killed = True
            if not sel.select(timeout=max(left, 0.1) if not killed else 1.0):
                continue
            data = os.read(proc.stdout.fileno(), 65536)
            if not data:
                break
            chunks.append(data)
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = b"".join(chunks).decode(errors="replace")
    lines = [ln for ln in text.splitlines() if ln.startswith(MARKER)]
    payload = json.loads(lines[-1][len(MARKER):]) if lines else {}
    if proc.returncode != 0 or not lines:
        payload.setdefault("error", f"exit {proc.returncode}{' (killed)' if killed else ''}")
    if "error" in payload:
        payload["output"] = text[-4000:]
    if "t_imported" in payload:
        payload["setup_s"] = payload["t_imported"] - t_spawn
    payload["peak_rss_mb"] = usage.ru_maxrss / 1024
    payload["elapsed_s"] = time.monotonic() - t_spawn
    return payload


def child_argv(workload: str, seed: int, trace: bool = False, spans=None, record=False):
    argv = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed)]
    if trace:
        argv.append("--trace")
    if spans:
        argv += ["--spans", str(spans)]
    if record:
        argv.append("--record")
    return argv


def score(payload: dict, expected: dict) -> tuple[int, int]:
    """(attempted, failed) operations of one child: check rows plus digest entries.

    A row counts as failed unless its status is pass; a digest entry counts as
    failed if it is missing or differs from the recorded one; a crashed child
    counts every operation it should have produced as failed.
    """
    want_ops = expected["rows"] + expected["entries"]
    if "error" in payload:
        return want_ops, want_ops
    rows = payload["rows"]
    got = payload["digest"]
    failed = payload["rows_not_pass"] + abs(rows - expected["rows"])
    failed += abs(len(got) - expected["entries"])
    failed += sum(1 for k, v in got.items() if expected["digest"].get(k) != v)
    return max(rows, expected["rows"]) + max(len(got), expected["entries"]), failed


class Tally:
    """Samples and operation counts of one workload within one invocation."""

    def __init__(self, workload: str, expected: dict, deadline: float):
        self.workload = workload
        self.expected = expected
        self.deadline = deadline  # time.monotonic() by which every child has ended
        self.samples = {name: [] for name, _ in END_TO_END}
        self.ref_loop = []
        self.attempted = self.failed = 0
        self.children = 0
        self.elapsed = 0.0
        self.errors = []

    def probe(self):
        res = spawn_child([sys.executable, str(CHILD), "--probe"], self._left())
        if "error" in res:
            self.errors.append(res)
            return
        self.samples["setup_s"].append(res["setup_s"])

    def child(self, seed: int, trace: bool = False, spans=None) -> dict:
        self.ref_loop.append(ref_loop())
        res = spawn_child(child_argv(self.workload, seed, trace, spans), self._left())
        attempted, failed = score(res, self.expected)
        self.attempted += attempted
        self.failed += failed
        self.children += 1
        self.elapsed += res["elapsed_s"]
        if "error" in res:
            self.errors.append(res)
        if "setup_s" in res:
            self.samples["setup_s"].append(res["setup_s"])
        if not trace and "error" not in res:
            for name in ("wall_s", "cpu_s", "peak_rss_mb"):
                self.samples[name].append(res[name])
        return res

    def _left(self) -> float:
        return max(self.deadline - time.monotonic(), 1.0)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors and self.children > 0


def load_expected() -> dict:
    if not DIGESTS.exists():
        sys.exit(f"error: {DIGESTS.name} is missing; run with --record first")
    return json.loads(DIGESTS.read_text())


def measure(tally: Tally, seed: int):
    """One closed-loop child of the workload, preceded by set-up probes."""
    for _ in range(PROBES_PER_CHILD):
        tally.probe()
    tally.child(seed)


def end_to_end(tally: Tally) -> dict:
    metrics = {}
    for name, unit in END_TO_END:
        values = tally.samples[name]
        if values:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    return metrics


def traced(tally: Tally, seed: int) -> dict:
    """One untraced and one traced child; the per-layer metrics of the traced one."""
    OUT_DIR.mkdir(exist_ok=True)
    plain = tally.child(seed)
    spans = OUT_DIR / f"spans-{tally.workload}.tsv.gz"
    res = tally.child(seed, trace=True, spans=spans)
    if "error" in res or "error" in plain:
        return {}
    layers = res["layers"]
    metrics = {}
    for name, span, field, unit in PER_LAYER:
        if span is not None:
            value = layers.get(span, {}).get(field, 0)
        elif name == "trace.overhead_s":
            value = res["wall_s"] - plain["wall_s"]
        elif name == "host.ref_loop_s":
            value = statistics.median(tally.ref_loop)
        else:
            value = src_lines()
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def print_table(tally: Tally, metrics: dict):
    print(f"workload {tally.workload}: {tally.children} children, {tally.elapsed:.1f} s")
    for name, m in metrics.items():
        values = tally.samples.get(name)
        extra = ""
        if values:
            extra = f"  median of {len(values)}, range {min(values):.4g} .. {max(values):.4g}"
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']:6s}{extra}")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'fail_ratio':34s} {ratio:>14.6g} ratio   {tally.failed} of {tally.attempted} operations")
    if tally.ref_loop and "host.ref_loop_s" not in metrics:
        print(f"  {'host.ref_loop_s':34s} {statistics.median(tally.ref_loop):>14.6g} s       "
              f"median of {len(tally.ref_loop)} (context only)")
    for err in tally.errors:
        print(f"  error: {err['error']}\n{err.get('output', '')}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def another(spent: float, children: int, seconds: float) -> bool:
    """Whether one more child, as long as the average so far, is half done within the time.

    Letting the last child run past the time by at most half a child gives a
    workload whose child is over half the time two children instead of one.
    """
    return spent * (1 + 0.5 / children) <= seconds


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    tally = Tally(workload, load_expected()[workload], time.monotonic() + RUN_DEADLINE_S)
    if trace:
        metrics = traced(tally, seed)
    else:
        start = time.monotonic()
        while not tally.children or another(time.monotonic() - start, tally.children, seconds):
            measure(tally, seed)
        metrics = end_to_end(tally)
    print_table(tally, metrics)
    if tally.attempted == 0 or not metrics:
        print("error: no run completed", file=sys.stderr)
        return 1
    print(result_line(tally.correct, tally.attempted, tally.failed, metrics))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, one child each in turn, so host-speed drift spreads over all."""
    expected = load_expected()
    deadline = time.monotonic() + len(WORKLOADS) * (seconds + RUN_DEADLINE_S)
    tallies = [Tally(w, expected[w], deadline) for w in WORKLOADS]
    spent = {w: 0.0 for w in WORKLOADS}
    while True:
        due = [t for t in tallies if not t.children or another(spent[t.workload], t.children, seconds)]
        if not due:
            break
        for t in due:
            t0 = time.monotonic()
            measure(t, seed)
            spent[t.workload] += time.monotonic() - t0
    metrics = {}
    for t in tallies:
        m = end_to_end(t)
        print_table(t, m)
        metrics.update({f"{t.workload}.{k}": v for k, v in m.items()})
    correct = all(t.correct for t in tallies)
    attempted, failed = sum(t.attempted for t in tallies), sum(t.failed for t in tallies)
    print(result_line(correct, attempted, failed, metrics))
    return 0


def record() -> int:
    """Run every workload (and the test input) once and write digests.json."""
    out = {}
    for workload in list(WORKLOADS) + ["smoke"]:
        res = spawn_child(child_argv(workload, 0, record=True), timeout=600)
        if "error" in res:
            print(res["error"], res.get("output", ""), file=sys.stderr)
            return 1
        if res["rows_not_pass"]:
            print(f"{workload}: {res['rows_not_pass']} rows did not pass", file=sys.stderr)
            return 1
        out[workload] = {
            "rows": res["rows"],
            "entries": len(res["digest"]),
            "digest": dict(sorted({**res.get("pool", {}), **res["digest"]}.items())),
        }
        print(f"{workload}: {res['rows']} rows, {len(res['digest'])} digest entries per run")
    DIGESTS.write_text(json.dumps(out, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hurwitzlab benchmark runner")
    parser.add_argument("--workload", choices=list(WORKLOADS) + ["all", "smoke"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite digests.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hurwitzlab" / "__init__.py").exists():
        print(f"error: no hurwitzlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
