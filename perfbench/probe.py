"""probe_sweep client: a closed loop of probe-pair queries in one process.

Each query detects backflow on the log time grid up to its t_max, evolves
both probes through the supermap route, takes their trace distance and
compares it with the closed form.  The next query starts only after the
previous one completed.  Run as a child of ``run.py``:

    python3 perfbench/probe.py --seed 3 --queries 15800

and it prints one JSON object with per-query latencies, per-block times
and outcomes.
"""

import argparse
import json
import math
import time

from checks import CLOSED_FORM_TOL, PROBE_VERDICT_BAND, path_threshold, switch_threshold
from inputs import BLOCK_QUERIES, DEFAULT_T_MAX, WARMUP_QUERIES, probe_queries

from backflow.control import controlled_output, path_config, switch_config
from backflow.detect import detect_backflow, log_time_grid, probe_distance, probe_pair
from backflow.qmat import PostSelectionImpossibleError, trace_distance


def run_query(q):
    """The library work of one query: (verdict, supermap distance, closed form)."""
    config = path_config(q["p"]) if q["mode"] == "path" else switch_config(q["p"])
    report = detect_backflow(config, q["a"], times=log_time_grid(t_max=q["t_max"]))
    rho1, rho2 = probe_pair(q["a"])
    out1, _ = controlled_output(config, rho1, q["t"])
    out2, _ = controlled_output(config, rho2, q["t"])
    supermap = trace_distance(out1, out2)
    closed = float(probe_distance(config, q["a"], q["t"]))
    return report.verdict, supermap, closed


def failure_kind(exc: Exception) -> str:
    """Name the failure class of an exception a query raised."""
    if isinstance(exc, PostSelectionImpossibleError):
        return "postselect"
    if isinstance(exc, RuntimeError) and "not finite" in str(exc):
        return "overflow"
    if isinstance(exc, RuntimeError) and "finite differences" in str(exc):
        return "fd_check"
    return "error:" + type(exc).__name__


def judge(q, verdict, supermap, closed):
    """'ok', 'overflow' for a non-finite answer, or 'incorrect'."""
    if not (math.isfinite(supermap) and math.isfinite(closed)):
        return "overflow"
    if abs(supermap - closed) > CLOSED_FORM_TOL:
        return "incorrect"
    a, p = q["a"], q["p"]
    if q["mode"] == "path":
        thr = float(path_threshold(p))
        if abs(a - thr) > PROBE_VERDICT_BAND and verdict != (a < thr):
            return "incorrect"
    elif a < float(switch_threshold(p)) - PROBE_VERDICT_BAND and not verdict:
        return "incorrect"
    return "ok"


def attempt(q):
    """Run and judge one query; returns (outcome, |supermap - closed| or nan)."""
    try:
        verdict, supermap, closed = run_query(q)
    except (RuntimeError, ValueError) as exc:
        return failure_kind(exc), math.nan
    return judge(q, verdict, supermap, closed), abs(supermap - closed)


def sweep(seed: int, count: int):
    """Warm up, then run the ``count`` measured queries of ``seed`` in order."""
    for q in probe_queries(seed, WARMUP_QUERIES, stream=0):
        attempt(q)
    latencies, blocks, block_ok, outcomes = [], [], [], {}
    over_range = {"attempted": 0, "failed": 0}
    worst_closed = 0.0
    start = block_start = time.perf_counter()
    for q in probe_queries(seed, count, stream=1):
        t0 = time.perf_counter()
        outcome, deviation = attempt(q)
        t1 = time.perf_counter()
        latencies.append((t1 - t0) * 1e3)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if q["t_max"] > DEFAULT_T_MAX:
            over_range["attempted"] += 1
            over_range["failed"] += outcome != "ok"
        if outcome == "ok":
            worst_closed = max(worst_closed, deviation)
        if len(latencies) % BLOCK_QUERIES == 0:
            blocks.append(t1 - block_start)
            block_ok.append(outcomes.get("ok", 0) - sum(block_ok))
            block_start = t1
    return {
        "latencies_ms": latencies,
        "block_s": blocks,
        "block_ok": block_ok,
        "elapsed_s": time.perf_counter() - start,
        "outcomes": outcomes,
        "over_range": over_range,
        "worst_closed_form_deviation": worst_closed,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--queries", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(sweep(args.seed, args.queries)))


if __name__ == "__main__":
    main()
