"""Tests of the benchmark itself: tracing, scoring and where metrics come from."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_child  # noqa: E402
import run  # noqa: E402
from bench_trace import TARGETS, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def smoke_runs():
    plain = run.spawn_child(run.child_argv("smoke", 1))
    traced = run.spawn_child(run.child_argv("smoke", 1, trace=True))
    return plain, traced


@pytest.fixture(scope="module")
def expected():
    return run.load_expected()


def test_traced_and_untraced_digests_match(smoke_runs, expected):
    plain, traced = smoke_runs
    assert "error" not in plain and "error" not in traced
    assert plain["digest"] == traced["digest"]
    assert plain["rows"] == traced["rows"]
    attempted, failed = run.score(plain, expected["smoke"])
    assert failed == 0 and attempted == plain["rows"] + len(plain["digest"])
    assert traced["spans"] > 0 and traced["layers"]["series.mul"]["calls"] > 0


def _snapshot():
    from hurwitzlab.multipoly import MultiPoly, RatFn
    from hurwitzlab.series import Series

    spaces = {
        name: dict(vars(mod)) for name, mod in sys.modules.items()
        if name == "hurwitzlab" or name.startswith("hurwitzlab.")
    }
    spaces.update({cls.__name__: dict(cls.__dict__) for cls in (Series, MultiPoly, RatFn)})
    return spaces


def test_wrappers_removed_after_trace():
    bench_child.import_package()
    from hurwitzlab import harness

    before = _snapshot()
    tracer = Tracer("test")
    tracer.install()
    try:
        assert harness.campaign_polyfit is not before["hurwitzlab.harness"]["campaign_polyfit"]
        harness.campaign_polyfit(0, 3)
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert before.keys() == after.keys()
    for space, attrs in before.items():
        assert attrs.keys() == after[space].keys(), space
        for name, value in attrs.items():
            assert after[space][name] is value, f"{space}.{name} not restored"
    assert "harness.campaign_polyfit" in tracer.aggregate()
    assert len(TARGETS) == len({t[0] for t in TARGETS})


def test_altered_digest_entry_is_a_failure(smoke_runs, expected):
    plain, _ = smoke_runs
    altered = json.loads(json.dumps(expected["smoke"]))
    key = sorted(plain["digest"])[0]
    altered["digest"][key] = "0" * 16
    attempted, failed = run.score(plain, altered)
    assert failed == 1 and failed / attempted > 0


def _fail_row(*args, **kwargs):
    from hurwitzlab.harness import check

    return [check("injected", "deliberately false", 1, 2)]


def _raise(*args, **kwargs):
    from hurwitzlab.hurwitz import PolynomialityError

    raise PolynomialityError("injected")


@pytest.mark.parametrize("injected", [_fail_row, _raise])
def test_injected_failure_raises_fail_ratio(injected, monkeypatch, capsys, expected):
    bench_child.import_package()
    from hurwitzlab import harness

    monkeypatch.setattr(harness, "campaign_polyfit", injected)
    assert bench_child.main(["--workload", "smoke", "--seed", "1"]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    payload = json.loads(line[len(run.MARKER):])
    attempted, failed = run.score(payload, expected["smoke"])
    assert attempted > 0 and failed / attempted > 0
    if injected is _raise:
        assert failed == attempted


STUB = """
import json, sys, time
time.sleep(float(sys.argv[1]))
ballast = b"x" * (int(sys.argv[2]) << 20)
print("PERFBENCH " + json.dumps({"t_imported": time.monotonic()}))
"""


def test_setup_and_rss_are_read_from_the_child(tmp_path):
    stub = tmp_path / "stub.py"
    stub.write_text(STUB)
    small = run.spawn_child([sys.executable, str(stub), "0", "0"])
    large = run.spawn_child([sys.executable, str(stub), "0.4", "160"])
    assert "error" not in small and "error" not in large
    assert large["setup_s"] - small["setup_s"] > 0.3
    assert large["peak_rss_mb"] - small["peak_rss_mb"] > 120


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, _, _, unit in run.PER_LAYER
    ]


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "wedge", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
