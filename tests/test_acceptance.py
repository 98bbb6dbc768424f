"""The acceptance suite: every headline identity at its exact tolerance.

Each criterion prints one pass/fail line; all comparisons are exact
(tolerance zero) because the arithmetic is rational throughout.
"""

import hashlib
import json
import time

from hurwitzlab import harness

# sha256 of each criterion's rows as a JSON list of (name, ref, status, lhs,
# rhs), the CPU-time row as (name, status) only: every passing row keeps its
# bytes, so a change to a row's text or order shows here
ROW_DIGESTS = {
    1: "176e6de562ccd19d73a146ebdcde7bebd52c1a068e328e78427620badea25c04",
    2: "931eccbc9495606b40647301027d6b2887899350292a25316e64076411dc162e",
    3: "125a8508f445709aa5c0f6608e4d3d182d2afb999078c21615966a29be3d6875",
    4: "f17df9770e3ae93f905bc1e714ebebb18e428581b0142f8f98555610763f5d9c",
    5: "7991d2ddc72f62ca31f3a2cbe172bc5d6d0c3b6eb3a3257d4e96a68018e17846",
    6: "0077fe7a5b70b10a01173d62a1be1727751c0ced17bd6478ff66042887ec3fc2",
    7: "2f2738f8f07ca0a47f6e22fe1428afee27b45ed3924f87b00f12240160d7d418",
    8: "eee886c5c7bfa4baa3df5dd46e1e2c2ed8dbbc3c27b43d9436433db9a0015c43",
    9: "f1a2e14d867993128ecef07cd8ebd5775cee55cf84465124e4f71f0e3b1c1a6d",
}


def _digest(checks) -> str:
    rows = [
        [c["name"], c["status"]] if c["name"].endswith("-runtime-s")
        else [c[key] for key in ("name", "ref", "status", "lhs", "rhs")]
        for c in checks
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _run(idx):
    t0 = time.time()
    checks = harness.ALL_CRITERIA[idx]()
    elapsed = time.time() - t0
    failed = [c for c in checks if c["status"] == "fail"]
    inconclusive = [c for c in checks if c["status"] == "inconclusive"]
    label = "PASS" if not failed and not inconclusive else "FAIL"
    print(f"[{label}] criterion {idx}: {len(checks)} checks in {elapsed:.1f}s")
    assert not failed, failed
    assert not inconclusive, inconclusive
    assert _digest(checks) == ROW_DIGESTS[idx]


def test_criterion_1_deck_transformation_expansions():
    _run(1)


def test_criterion_2_r_matrix_identity():
    _run(2)


def test_criterion_3_three_route_hurwitz_equality():
    _run(3)


def test_criterion_4_wedge_space_routes():
    _run(4)


def test_criterion_5_polynomiality_fits():
    _run(5)


def test_criterion_6_kernel_residue_recursion():
    _run(6)


def test_criterion_7_cut_and_join_identity():
    _run(7)


def test_criterion_8_elsv_coefficient_match():
    _run(8)


def test_criterion_9_bergman_compatibility():
    _run(9)
