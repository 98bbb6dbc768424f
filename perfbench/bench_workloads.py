"""Workload inputs: each workload is a list of campaign calls made from the seed.

The seed picks the order of the campaign calls and the sample of Hurwitz
queries; the amount of work does not depend on it.  Only the functions import
hurwitzlab, so the runner can read the workload names without the package.
"""

from __future__ import annotations

import random

# The pure kernel-residue part of harness.CUTJOIN_SET: (1, 1) and (1, 2) also
# need the RatFn diagonal, which hurwitz-elsv reaches through campaign_cutjoin.
BM_SET = [(0, 3), (0, 4)]
FOCK_ARGS = (1, 2, 6)  # u_order, kmax, cutoff: every commutator decidable

# Hurwitz queries are drawn one per stratum, so each run has the same number
# of queries of each size.  Monodromy strata are (degree d, branch points b)
# inside the brute-force range d <= 6, b <= 8, where campaign_hurwitz also
# counts monodromy; character strata are (degree d, part count n) beyond it.
BRUTE_STRATA = [(d, b) for d in (4, 5, 6) for b in (6, 7, 8)]
CHAR_STRATA = [(d, n) for d in (7, 8, 9) for n in (1, 2, 3)]
CHAR_GENERA = (0, 1, 2)

# The small input of the benchmark's own tests; not a benchmark workload.
SMOKE_STEPS = [
    ("curve", (6,)),
    ("hurwitz", (1, (2,))),
    ("hurwitz", (0, (2, 1, 1))),
    ("polyfit", (0, 3)),
    ("polyfit", (1, 2)),
]


def brute_candidates(d: int, b: int):
    """All (g, mu) with |mu| = d and b branch points."""
    from hurwitzlab.hurwitz import branch_count
    from hurwitzlab.partitions import enumerate_partitions

    return [
        (g, mu) for mu in enumerate_partitions(d) for g in range(0, 5) if branch_count(g, mu) == b
    ]


def char_candidates(d: int, n: int):
    from hurwitzlab.partitions import enumerate_partitions

    return [(g, mu) for mu in enumerate_partitions(d) if len(mu) == n for g in CHAR_GENERA]


def hurwitz_pool():
    """Every query a seed can draw, for recording the reference digest."""
    pool = [q for d, b in BRUTE_STRATA for q in brute_candidates(d, b)]
    pool += [q for d, n in CHAR_STRATA for q in char_candidates(d, n)]
    return pool


def hurwitz_queries(rng: random.Random):
    queries = [rng.choice(brute_candidates(d, b)) for d, b in BRUTE_STRATA]
    queries += [rng.choice(char_candidates(d, n)) for d, n in CHAR_STRATA]
    return queries


def steps(workload: str, seed: int):
    """The campaign calls of one run, as (campaign name, arguments) pairs."""
    rng = random.Random(seed)
    if workload == "bm-recursion":
        out = [("bm", (g, n, 6)) for g, n in BM_SET]
    elif workload == "wedge":
        out = [("fock", FOCK_ARGS)]
    elif workload == "hurwitz-elsv":
        from hurwitzlab.harness import ACCEPTANCE_SET

        out = [("curve", (12,)), ("cutjoin", ())]
        out += [("hurwitz", q) for q in hurwitz_queries(rng)]
        out += [("polyfit", gn) for gn in ACCEPTANCE_SET]
        out += [("elsv", gn) for gn in ACCEPTANCE_SET]
    elif workload == "smoke":
        return list(SMOKE_STEPS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(out)
    return out


# The benchmark workloads, in the order the runner interleaves them; the
# reason for each is in BENCHMARK.json and README.md.
WORKLOADS = ("bm-recursion", "wedge", "hurwitz-elsv")
