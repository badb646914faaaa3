"""Seeded input generator for the three benchmark workloads.

The seed is the only input that varies: the same seed gives the same
inputs, and the program under test receives only what this module returns
(CLI argument vectors or probe queries), never the seed.  The probe_sweep
edge queries come from a fixed generator that every seed shares.

    python3 perfbench/inputs.py --workload phase_scan --seed 3
"""

import argparse
import json

import numpy as np

WORKLOADS = ("phase_scan", "oracle_validate", "probe_sweep")

# phase_scan: one wide and one tall grid per pair, 9 x 10^4 cells per pair.
WIDE_SHAPE = (450, 100)  # (a points, p points)
TALL_SHAPE = (100, 450)
SCAN_PAIRS = 2

# probe_sweep: a fixed number of queries per run, so that attempted and
# failed repeat exactly.  Of every EDGE_CYCLE queries, OVER_RANGE_SLOTS draw
# t_max log-uniform on (12, 400], where the closed forms overflow, and
# SMALL_A_SLOTS draw a uniform on (0, SMALL_A), where the finite-difference
# check of detect_backflow fails; these edge queries come from a generator
# that ignores the seed, so the failures they cause are the same count for
# every seed.  The other queries come from the seed, with t_max = 12 and
# a on [SMALL_A, 1): the largest a that fails the check at t_max = 12 is
# about 0.019, so none of them fails.
DEFAULT_T_MAX = 12.0
OVER_RANGE_T_MAX = 400.0
SMALL_A = 0.05
EDGE_CYCLE = 20
OVER_RANGE_SLOTS = 2  # 10% of queries
SMALL_A_SLOTS = 1  # 5% of queries
EDGE_KEY = 0x0EDCE  # fixed; the edge queries never see the seed
PROBE_QUERIES_PER_S = 450  # nominal rate that sizes a run's fixed query count
WARMUP_QUERIES = 200
BLOCK_QUERIES = 200  # the fixed unit of work behind the timings; its p90 leaves 20 beyond


def scan_args(seed: int):
    """Argument vectors of the ``backflow scan`` processes, in run order.

    Each pair is a wide grid (many a, few p) and a tall one (few a, many
    p); the seed jitters the grid bounds inside the valid ranges.
    """
    rng = np.random.default_rng([seed, 1])
    runs = []
    for _ in range(SCAN_PAIRS):
        for a_points, p_points in (WIDE_SHAPE, TALL_SHAPE):
            a_min = rng.uniform(0.005, 0.05)
            a_max = rng.uniform(0.95, 0.995)
            p_min = rng.uniform(0.01, 0.05)
            p_max = rng.uniform(0.95, 1.0)
            runs.append(
                [
                    "scan",
                    "--a-min", repr(a_min), "--a-max", repr(a_max), "--a-points", str(a_points),
                    "--p-min", repr(p_min), "--p-max", repr(p_max), "--p-points", str(p_points),
                ]
            )
    return runs


def validate_args(seed: int):
    """``backflow validate`` with all four suites and the default ODE times.

    The oracle's inputs are fixed by the program itself, so the seed does
    not change them.
    """
    del seed
    return [["validate"]]


def probe_count(seconds: float) -> int:
    """Measured queries of a run of about ``seconds``: a whole number of
    blocks, fixed by ``seconds`` alone so that every run of the same length
    attempts the same work."""
    return BLOCK_QUERIES * max(1, round(seconds * PROBE_QUERIES_PER_S / BLOCK_QUERIES))


def _draw_queries(rng, count, a_low, a_high, over_range):
    modes = np.where(rng.random(count) < 0.5, "path", "switch")
    a = rng.uniform(a_low, a_high, count)
    p = 1.0 - rng.random(count)
    if over_range:
        log_span = np.log(OVER_RANGE_T_MAX / DEFAULT_T_MAX)
        t_max = DEFAULT_T_MAX * np.exp(log_span * (1.0 - rng.random(count)))
    else:
        t_max = np.full(count, DEFAULT_T_MAX)
    t = t_max * (1.0 - rng.random(count))
    return modes, a, p, t_max, t


def probe_queries(seed: int, count: int, stream: int = 0):
    """``count`` probe queries as dicts with mode, a, p, t_max and t.

    Query i is an over-range edge query when i % EDGE_CYCLE is below
    OVER_RANGE_SLOTS (a uniform on (0, 1), t_max log-uniform on (12, 400]),
    a small-a edge query in the next SMALL_A_SLOTS slots (a uniform on
    (0, SMALL_A), t_max = 12), and a seeded query otherwise (a uniform on
    [SMALL_A, 1), t_max = 12).  Every query has mode path or switch with
    equal odds, p uniform on (0, 1] and t uniform on (0, t_max].  The edge
    queries depend only on ``count`` and ``stream``, never on the seed.
    ``stream`` separates the warm-up queries from the measured ones.
    """
    slot = np.arange(count) % EDGE_CYCLE
    kinds = np.where(slot < OVER_RANGE_SLOTS, 0, np.where(slot < OVER_RANGE_SLOTS + SMALL_A_SLOTS, 1, 2))
    draws = (
        _draw_queries(np.random.default_rng([EDGE_KEY, 2, stream]), count, np.nextafter(0.0, 1.0), 1.0, True),
        _draw_queries(np.random.default_rng([EDGE_KEY, 3, stream]), count, np.nextafter(0.0, 1.0), SMALL_A, False),
        _draw_queries(np.random.default_rng([seed, 2, stream]), count, SMALL_A, 1.0, False),
    )
    return [
        {
            "mode": str(draws[k][0][i]),
            "a": float(draws[k][1][i]),
            "p": float(draws[k][2][i]),
            "t_max": float(draws[k][3][i]),
            "t": float(draws[k][4][i]),
        }
        for i, k in enumerate(kinds)
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, default=20, help="probe_sweep queries to print")
    args = parser.parse_args()
    if args.workload == "phase_scan":
        out = scan_args(args.seed)
    elif args.workload == "oracle_validate":
        out = validate_args(args.seed)
    else:
        out = probe_queries(args.seed, args.count)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
