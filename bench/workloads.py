"""What each benchmark workload runs, and the digest its outputs are checked by.

The CLI workloads are fixed argument lists, one fresh ``qser`` process per
entry.  ``coeff-walk`` is a seeded stream of ``qser.coefficient`` queries
answered in one process.  The names and targets are spelled out here rather
than read from ``qser`` so that the expected outputs frozen in
``expected.json`` describe exactly these inputs.
"""

from __future__ import annotations

import hashlib
import random

WORKLOADS = ("conj13", "gate", "small-batch", "coeff-walk")

# Why each workload is there:
# - conj13: the headline target; dense 247-bit products near n=5000, and the
#   one run where the catalog builds R5, R, H and G at 5001 and again at 5002.
# - gate: the acceptance gate's fixed-size runs; the same dense layers as
#   conj13 but every name is built once, so a rebuild fix should leave it flat.
# - small-batch: 36 short calls where start-up, argparse, rendering and
#   schoolbook multiplies dominate; a dense-multiply change should not move it.
# - coeff-walk: cache reads beside cache growth in one process, the only
#   workload where catalog.coefficient's doubling heuristic decides the work.
# BENCHMARK.json gates gate and coeff-walk only.  On a 2-vCPU host whose speed
# drifts by a fifth over minutes, four workloads leave too little time per run
# to hold the bounds; conj13 (two or three 10 s passes) and small-batch
# (start-up-bound, the most host-sensitive) spread widest, and --all runs them.
CONJ13 = (("scan", "conjecture13", "--n-max", "1000"),)

GATE = (
    ("scan", "richmond-c", "--n-max", "5000"),
    ("scan", "richmond-d", "--n-max", "5000"),
    ("scan", "thm2", "--n-max", "2500"),
    ("scan", "thm3", "--n-max", "2500"),
    ("scan", "thm4", "--n-max", "2500"),
    ("scan", "thm5", "--n-max", "2500"),
    ("verify", "all", "--order", "300"),
)

SERIES_NAMES = (
    "G", "H", "G_sum", "H_sum", "R", "Rinv", "R5", "R5inv", "Rq5", "Cratio",
    "Dratio", "Fratio15", "Fratio51", "A", "B", "C", "D", "c", "d",
)
CANONICAL_NAMES = SERIES_NAMES[:13]
VERIFY_TARGETS = (
    "B20", "R5", "A_full", "B_full", "D_full",
    "dissect-A0", "dissect-B0", "dissect-D1", "dissect-C0",
)
SCAN_TARGETS = ("richmond-c", "richmond-d", "thm2", "thm3", "thm4", "thm5", "asymptotic-c")

SMALL_BATCH = (
    tuple(("expand", name, "--order", "300", "--format", "json") for name in SERIES_NAMES)
    + tuple(("verify", target, "--order", "200") for target in VERIFY_TARGETS)
    + tuple(("scan", target, "--n-max", "500", "--format", "csv") for target in SCAN_TARGETS)
    + (("scan", "conjecture13", "--n-max", "100"),)
)

CLI_WORKLOADS = {"conj13": CONJ13, "gate": GATE, "small-batch": SMALL_BATCH}

WALK_NAMES = ("A", "B", "C", "D", "c", "d")
WALK_END = 3000
# All names share one frontier that moves by random steps below 64, the
# smallest precision the catalog caches, and the names are asked in a fixed
# order at each step.  So every seed drives the cache through the same
# precisions and the same builds land on the same queries: runs on different
# seeds do the same work.  With independent frontiers and unbounded steps,
# seeds differed by up to 3x in run time.
WALK_MAX_STEP = 63
# Reads of already-reached indices per name asked at a new frontier, on
# average, so that about three quarters of the queries are cache reads.
WALK_READS_PER_GROWTH = 3


def walk_stream(seed: int) -> list[tuple[str, int]]:
    """The (name, n) queries of coeff-walk for a seed.

    Each step moves the frontier by 1..WALK_MAX_STEP, asks every name for
    its coefficient there, then reads random names at random indices up to
    the frontier.  The stream ends once the frontier reaches WALK_END - 1.
    """
    rng = random.Random(seed)
    stream, frontier = [], -1
    while frontier < WALK_END - 1:
        frontier = min(frontier + rng.randint(1, WALK_MAX_STEP), WALK_END - 1)
        stream += [(name, frontier) for name in WALK_NAMES]
        reads = rng.randint(0, 2 * WALK_READS_PER_GROWTH * len(WALK_NAMES))
        stream += [(rng.choice(WALK_NAMES), rng.randint(0, frontier)) for _ in range(reads)]
    return stream


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(values) -> str:
    """sha256 of the values' decimal forms, one per line."""
    return sha256("\n".join(map(str, values)).encode())


def cli_key(argv) -> str:
    return " ".join(argv)


# The layer sweep: dense R-like operands on both sides of the engine's
# switch-overs (schoolbook below length 64 or 50,000 units of work, so dense
# operands switch to Kronecker at length 224; recursive inverse up to 32).
SWEEP_MUL_SIZES = (32, 63, 64, 223, 224, 512, 1024, 2048, 5002)
SWEEP_INVERSE_SIZES = (32, 33, 64, 256, 1024, 5002)
SWEEP_PRODUCT_N = 5001
SWEEP_BUILD_N = 1000
