"""Layered end-to-end benchmark of the backflow package.

    python3 perfbench/run.py --workload phase_scan --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Each workload runs as fresh child processes driven
from this single-threaded parent:

- ``phase_scan``: ``backflow scan`` processes over wide and tall (a, p) grids;
- ``oracle_validate``: ``backflow validate`` processes (all four suites);
- ``probe_sweep``: one client process sending probe queries in a closed loop.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs ``trace.py`` instead and prints the per-layer metrics.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for what each metric means.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
from inputs import BLOCK_QUERIES, WORKLOADS, probe_count, scan_args, validate_args

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPS = (5, 4)  # imports timed before and after the workload
CHILD_TIMEOUT_S = 120.0  # a hung child still ends the run within 180 s
MIN_SCANS = 6  # three wide+tall pairs, so at least one input repeats
MIN_VALIDATES = 2
# The host alternates between fast and slow phases a few seconds long, so a
# whole-run median follows the share of fast phases in the run.  Every run
# has slow phases, not every run fast ones, so wall_s and work_per_s (and
# probe_sweep's latencies, taken per block of queries) are this percentile
# over the run's units of work: their figure in the slow phases.
SLOW_QUANTILE = 90
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class Interrupted(Exception):
    """A child outlived its time limit, or this process was told to stop."""


def _interrupt(signum, frame):
    raise Interrupted(signal.Signals(signum).name)


def child_env():
    """Environment of every child: the checkout's package, one BLAS thread,
    and no scan thread pool, so all load comes from one process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("BACKFLOW_SCAN_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(cmd, stderr):
    """Run one child to completion; returns (returncode, wall_s, peak_rss_mb, stdout)."""
    with tempfile.TemporaryFile(dir=OUT_DIR) as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=stderr, env=child_env(), cwd=ROOT)
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, out.read()


SETUP_CMD = [sys.executable, "-c", "import backflow.cli"]


def cli_cmd(args):
    return [sys.executable, "-m", "backflow.cli", *args]


def time_left_for(start, seconds, durations):
    """Whether one more operation of the median past duration fits the run."""
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def quantile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def measure_setup(reps, stderr):
    """Wall times of fresh interpreters importing backflow.cli."""
    times = []
    for _ in range(reps):
        returncode, wall, _, _ = run_child(SETUP_CMD, stderr)
        if returncode != 0:
            raise RuntimeError("importing backflow.cli failed")
        times.append(wall)
    return times


def phase_scan(seed, seconds, stderr):
    runs = scan_args(seed)
    cells = [a.size * p.size for a, p in map(checks.grid_from_args, runs)]
    first_output = {}
    proc_s, pair_s, pair_rate, ok_cells, rss = [], [], [], [], []
    attempted = failed = incorrect = 0
    start = time.perf_counter()
    i = 0
    while i < MIN_SCANS or i % 2 or time_left_for(start, seconds, pair_s):
        key = i % len(runs)
        returncode, wall, peak, out = run_child(cli_cmd(runs[key]), stderr)
        attempted += 1
        proc_s.append(wall)
        rss.append(peak)
        if key in first_output:
            problems = [] if out == first_output[key] else ["stdout differs from the first run of the same input"]
        else:
            problems = checks.check_scan(runs[key], returncode, out)
            first_output[key] = out
        if returncode != 0:
            failed += 1
        elif problems:
            failed += 1
            incorrect += 1
            print(f"# phase_scan problem ({runs[key]}): {problems}", file=sys.stderr)
        ok_cells.append(0 if returncode or problems else cells[key])
        if i % 2:
            pair_s.append(proc_s[-2] + wall)
            pair_rate.append((ok_cells[-2] + ok_cells[-1]) / pair_s[-1])
        i += 1
    done_cells, busy = sum(ok_cells), sum(proc_s)
    metrics = {
        "wall_s": (quantile(pair_s, SLOW_QUANTILE), "s", len(pair_s)),
        "work_per_s": (quantile(pair_rate, 100 - SLOW_QUANTILE), "1/s", len(pair_rate)),
        "op_p50_ms": (1e3 * quantile(proc_s, 50), "ms", len(proc_s)),
        "op_p90_ms": (1e3 * quantile(proc_s, 90), "ms", len(proc_s)),
        "peak_rss_mb": (max(rss), "MB", len(rss)),
    }
    extra = {"cells_per_s": (done_cells / busy, "1/s", attempted), "cells_per_pair": cells[0] + cells[1]}
    return attempted, failed, incorrect, metrics, extra


def oracle_validate(seed, seconds, stderr):
    args = validate_args(seed)[0]
    first = None
    proc_s, ok_rate, rss = [], [], []
    attempted = failed = incorrect = 0
    start = time.perf_counter()
    while attempted < MIN_VALIDATES or time_left_for(start, seconds, proc_s):
        returncode, wall, peak, out = run_child(cli_cmd(args), stderr)
        attempted += 1
        proc_s.append(wall)
        rss.append(peak)
        problems = checks.check_validate(returncode, out)
        if first is None:
            first = out
        elif out != first:
            problems.append("stdout differs from the first validate run")
        ok_rate.append(0.0 if problems else 1.0 / wall)
        if problems:
            failed += 1
            incorrect += 1
            print(f"# oracle_validate problem: {problems}", file=sys.stderr)
    _, residuals = checks.parse_validate(first)
    metrics = {
        "wall_s": (quantile(proc_s, SLOW_QUANTILE), "s", len(proc_s)),
        "work_per_s": (quantile(ok_rate, 100 - SLOW_QUANTILE), "1/s", len(ok_rate)),
        "op_p50_ms": (1e3 * quantile(proc_s, 50), "ms", len(proc_s)),
        "op_p90_ms": (1e3 * quantile(proc_s, 90), "ms", len(proc_s)),
        "peak_rss_mb": (max(rss), "MB", len(rss)),
    }
    extra = {"ode_residual": residuals["ode"], "closed_form_residual": residuals["closed-form"]}
    return attempted, failed, incorrect, metrics, extra


def probe_sweep(seed, seconds, stderr):
    cmd = [sys.executable, str(BENCH_DIR / "probe.py"), "--seed", str(seed), "--queries", str(probe_count(seconds))]
    returncode, _, peak, out = run_child(cmd, stderr)
    if returncode != 0:
        raise RuntimeError(f"probe client exited with {returncode}")
    result = json.loads(out)
    lat = result["latencies_ms"]
    outcomes = result["outcomes"]
    attempted = len(lat)
    failed = attempted - outcomes.get("ok", 0)
    block_s = result["block_s"]
    blocks = np.reshape(lat, (len(block_s), BLOCK_QUERIES))
    block_rate = [ok / s for ok, s in zip(result["block_ok"], block_s)]
    metrics = {
        "wall_s": (quantile(block_s, SLOW_QUANTILE), "s", len(block_s)),
        "work_per_s": (quantile(block_rate, 100 - SLOW_QUANTILE), "1/s", len(block_rate)),
        "op_p50_ms": (quantile(np.percentile(blocks, 50, axis=1), SLOW_QUANTILE), "ms", attempted),
        "op_p90_ms": (quantile(np.percentile(blocks, 90, axis=1), SLOW_QUANTILE), "ms", attempted),
        "peak_rss_mb": (peak, "MB", 1),
    }
    extra = {
        "queries_per_s": (attempted / result["elapsed_s"], "1/s", attempted),
        "run_p50_ms": (quantile(lat, 50), "ms", attempted),
        "run_p99_ms": (quantile(lat, 99), "ms", attempted),
        "outcomes": outcomes,
        "over_range_t_max": result["over_range"],
        "over_range_share": result["over_range"]["attempted"] / attempted,
        "worst_closed_form_deviation": result["worst_closed_form_deviation"],
    }
    return attempted, failed, outcomes.get("incorrect", 0), metrics, extra


def print_row(name, value, unit, n):
    print(f"{name:12s} {value:>14.6g} {unit:5s} (n={n})")


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": importlib.metadata.version("click"),
        "threads": {var: child_env()[var] for var in THREAD_VARS},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "backflow" / "cli.py").is_file():
        print(f"error: no backflow package under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    signal.signal(signal.SIGALRM, _interrupt)
    signal.signal(signal.SIGTERM, _interrupt)
    env = environment()
    print("# environment: " + json.dumps(env))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.stderr", "wb") as stderr:
        if args.trace:
            cmd = [sys.executable, str(BENCH_DIR / "trace.py"), "--workload", args.workload, "--seed", str(args.seed)]
            returncode, _, _, out = run_child(cmd, stderr)
            if returncode != 0:
                raise RuntimeError(f"traced run exited with {returncode}")
            traced = json.loads(out)
            attempted, failed = traced["attempted"], traced["failed"]
            correct = traced["incorrect"] == 0 and not traced["count_differences"]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in traced["metrics"].items()}
            print(f"# selfcheck, traced passes: {traced['count_differences'] or 'identical counts'}")
            print(f"# selfcheck, counts derived from the code: {traced['derived_mismatches'] or 'all match'}")
            print(f"# spans: {traced['spans']}, untraced {traced['untraced_s']:.4f} s, traced {traced['traced_s']:.4f} s")
            for name, m in metrics.items():
                print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
        else:
            run_child(SETUP_CMD, stderr)  # untimed: writes the bytecode cache
            setup = measure_setup(SETUP_REPS[0], stderr)
            runner = {"phase_scan": phase_scan, "oracle_validate": oracle_validate, "probe_sweep": probe_sweep}
            attempted, failed, incorrect, raw, extra = runner[args.workload](args.seed, args.seconds, stderr)
            setup += measure_setup(SETUP_REPS[1], stderr)
            raw = {"setup_s": (statistics.median(setup), "s", len(setup)), **raw}
            correct = incorrect == 0
            metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in raw.items()}
            for name, row in raw.items():
                print_row(name, *row)
            print_row("fail_frac", failed / attempted, "1", f"{attempted}, failed {failed}")
            for name, value in extra.items():
                if isinstance(value, tuple):
                    print_row(name, *value)
                else:
                    print(f"# {name}: {json.dumps(value)}")
    declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != declared:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ declared)}")
    result = {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed), "metrics": metrics}
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "workload": args.workload, "seed": args.seed, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
