"""Traced run: per-layer spans and counts, recorded from outside the package.

Every public function of ``qmat``, ``channel``, ``control`` and ``detect``
and every ``cli`` command callback is wrapped, under each name any package
module binds it to (for example ``backflow.control.apply`` and
``backflow.cli.scan_region``).  One fixed unit of the workload's work then
runs in-process, through ``backflow.cli.main(..., standalone_mode=False)``
or the probe client's query function:

0. untraced and untimed, so first-call costs do not count;
1. untraced, before any wrapper is installed, for the wall-time baseline;
2. traced, giving the spans (name, start, end, parent) and the metrics;
3. traced again, whose call counts must equal those of pass 2 (the
   exact-count self-check, with the counts derived from the code).

Spans stay in memory and are written to ``perfbench/out/`` at the end.
Run as a child of ``run.py``:

    python3 perfbench/trace.py --workload phase_scan --seed 3

and it prints one JSON object with the per-layer metrics.
"""

import argparse
import contextlib
import functools
import inspect
import io
import json
import time
from pathlib import Path

import numpy as np

import checks
import probe
from inputs import WORKLOADS, probe_queries, scan_args, validate_args

import backflow
import backflow.channel as channel
import backflow.cli as cli
import backflow.control as control
import backflow.detect as detect
import backflow.qmat as qmat

LAYERS = (qmat, channel, control, detect)
TRACE_QUERIES = 1000
GRID_POINTS = detect.DEFAULT_GRID_POINTS
RK4_STAGES = 4
OUT_DIR = Path(__file__).resolve().parent / "out"

# Counts derived from the code of the parent commit: validate integrates 5
# states to each of t = 0.5, 1, 2, 5 with dt = 1e-3, checks 51 times x 3
# Kraus sets, and compares 4 times x 3 p x 3 states x 2 modes.
EXPECTED = {
    "oracle_validate": {
        "channel.integrate_canonical.steps": 5 * (500 + 1000 + 2000 + 5000),
        "channel.validate_cptp.calls": 51 * 3,
        "control.controlled_output.calls": 4 * 3 * 3 * 2,
    },
    "probe_sweep": {"control.build_supermap.per_query": 2.0},
}


class Tracer:
    """Span recorder; the wrappers it installs append to ``spans``."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, raised)
        self.current = -1
        self.samples = {}  # extra counts measured from call arguments

    def reset(self):
        self.spans, self.current, self.samples = [], -1, {}

    def count(self, key, n):
        self.samples[key] = self.samples.get(key, 0) + n

    def wrap(self, fn, name, on_call=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, args)
            parent, index = self.current, len(self.spans)
            self.spans.append(None)
            self.current = index
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                self.spans[index] = (name, start, time.perf_counter(), parent, raised)
                self.current = parent

        return traced


def _count_cells(tracer, args):
    tracer.count("detect.scan_region.cells", np.size(args[0]) * np.size(args[1]))


def _count_derivative_samples(tracer, args):
    tracer.count("detect.derivative_samples", np.broadcast(np.asarray(args[0]), np.asarray(args[-1])).size)


ON_CALL = {
    "detect.scan_region": _count_cells,
    "detect.bare_derivative_parts": _count_derivative_samples,
    "detect.path_derivative_parts": _count_derivative_samples,
    "detect.switch_derivative_parts": _count_derivative_samples,
}


def install(tracer):
    """Wrap the public layer functions under every name that binds them."""
    wrapped = {}
    for layer in LAYERS:
        short = layer.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(layer).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == layer.__name__:
                name = f"{short}.{attr}"
                wrapped[id(obj)] = tracer.wrap(obj, name, ON_CALL.get(name))
    for module in (*LAYERS, cli, backflow, probe):
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                setattr(module, attr, wrapped[id(obj)])
    for name, command in cli.main.commands.items():
        command.callback = tracer.wrap(command.callback, f"cli.{name}")


def run_cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        returncode = cli.main(args, standalone_mode=False)
    return returncode or 0, buf.getvalue().encode("ascii")


class Unit:
    """One fixed unit of a workload's work, with its output checks."""

    def __init__(self, workload, seed):
        self.workload = workload
        if workload == "phase_scan":
            self.commands = scan_args(seed)[:2]
        elif workload == "oracle_validate":
            self.commands = validate_args(seed)
        else:
            self.commands = []
            self.queries = probe_queries(seed, TRACE_QUERIES, stream=1)

    def run(self):
        """Run the unit; returns (attempted, failed, incorrect, facts)."""
        facts = {"output_bytes": 0, "ode_residual": np.nan, "closed_form_deviation": np.nan}
        failed = incorrect = 0
        if self.workload == "probe_sweep":
            deviations = []
            for q in self.queries:
                outcome, deviation = probe.attempt(q)
                failed += outcome != "ok"
                incorrect += outcome == "incorrect"
                if outcome == "ok":
                    deviations.append(deviation)
            facts["closed_form_deviation"] = max(deviations, default=np.nan)
            return len(self.queries), failed, incorrect, facts
        for args in self.commands:
            returncode, out = run_cli(args)
            facts["output_bytes"] += len(out)
            if self.workload == "phase_scan":
                problems = checks.check_scan(args, returncode, out)
            else:
                problems = checks.check_validate(returncode, out)
                _, residuals = checks.parse_validate(out)
                facts["ode_residual"] = residuals["ode"]
                facts["closed_form_deviation"] = residuals["closed-form"]
            failed += bool(problems)
            incorrect += bool(problems)
        return len(self.commands), failed, incorrect, facts


def aggregate(spans):
    """Per-name calls, raised calls, inclusive and self seconds."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    stats = {}
    for i, (name, start, end, _, raised) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "raised": 0, "total_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["raised"] += raised
        s["total_s"] += end - start
        s["self_s"] += end - start - child_s[i]
    return stats


def _headroom(tol, residual):
    """tol / residual, with residuals below machine epsilon counted as epsilon."""
    if not np.isfinite(residual):
        return 0.0
    return tol / max(residual, np.finfo(float).eps)


def layer_metrics(stats, samples, facts):
    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    def self_of(prefix):
        return sum(s["self_s"] for n, s in stats.items() if n.startswith(prefix))

    cells = samples.get("detect.scan_region.cells", 0)
    detect_ok = get("detect.detect_backflow", "calls") - get("detect.detect_backflow", "raised")
    return {
        "channel.integrate_canonical.calls": get("channel.integrate_canonical", "calls"),
        "channel.integrate_canonical.steps": get("channel.canonical_rhs", "calls") // RK4_STAGES,
        "channel.integrate_canonical.self_s": get("channel.integrate_canonical", "self_s"),
        "channel.apply.calls": get("channel.apply", "calls"),
        "channel.apply.self_s": get("channel.apply", "self_s"),
        "channel.validate_cptp.calls": get("channel.validate_cptp", "calls"),
        "channel.validate_cptp.self_s": get("channel.validate_cptp", "self_s"),
        "channel.phi_t_kraus.calls": get("channel.phi_t_kraus", "calls"),
        "channel.self_s": self_of("channel."),
        "channel.ode_residual_headroom": _headroom(checks.ODE_TOL, facts["ode_residual"]),
        "detect.scan_region.calls": get("detect.scan_region", "calls"),
        "detect.scan_region.cells": cells,
        "detect.scan_region.self_s": get("detect.scan_region", "self_s"),
        "detect.scan_region.us_per_cell": 1e6 * get("detect.scan_region", "total_s") / cells if cells else 0.0,
        "detect.derivative_samples": samples.get("detect.derivative_samples", 0),
        "detect.detect_backflow.calls": get("detect.detect_backflow", "calls"),
        "detect.detect_backflow.self_s": get("detect.detect_backflow", "self_s"),
        "detect.detect_backflow.failed": get("detect.detect_backflow", "raised"),
        "detect.central_difference.self_s": get("detect.central_difference", "self_s"),
        "detect.self_s": self_of("detect."),
        "control.controlled_output.calls": get("control.controlled_output", "calls"),
        "control.controlled_output.self_s": get("control.controlled_output", "self_s"),
        "control.build_supermap.calls": get("control.build_supermap", "calls"),
        "control.build_supermap.self_s": get("control.build_supermap", "self_s"),
        "control.build_supermap.per_query": get("control.build_supermap", "calls") / detect_ok if detect_ok else 0.0,
        "control.analytic_state.calls": get("control.analytic_state_path", "calls") + get("control.analytic_state_switch", "calls"),
        "control.analytic_state.self_s": get("control.analytic_state_path", "self_s") + get("control.analytic_state_switch", "self_s"),
        "control.postselect_failed": get("qmat.project_control", "raised"),
        "control.self_s": self_of("control."),
        "control.closed_form_headroom": _headroom(checks.CLOSED_FORM_TOL, facts["closed_form_deviation"]),
        "qmat.kron.calls": get("qmat.kron", "calls"),
        "qmat.kron.self_s": get("qmat.kron", "self_s"),
        "qmat.trace_distance.calls": get("qmat.trace_distance", "calls"),
        "qmat.trace_distance.self_s": get("qmat.trace_distance", "self_s"),
        "qmat.project_control.calls": get("qmat.project_control", "calls"),
        "qmat.project_control.self_s": get("qmat.project_control", "self_s"),
        "qmat.check_density_operator.calls": get("qmat.check_density_operator", "calls"),
        "qmat.check_density_operator.self_s": get("qmat.check_density_operator", "self_s"),
        "qmat.self_s": self_of("qmat."),
        "cli.command.self_s": self_of("cli."),
        "cli.output_bytes": facts["output_bytes"],
    }


def call_counts(stats, samples):
    counts = {name: (s["calls"], s["raised"]) for name, s in stats.items()}
    counts.update(samples)
    return counts


def count_differences(counts_1, counts_2):
    """Names whose counts differ between the two traced passes."""
    return sorted(k for k in counts_1.keys() | counts_2.keys() if counts_1.get(k) != counts_2.get(k))


def derived_mismatches(workload, metrics):
    """Counts that differ from the values derived from the parent code.

    A change that removes work is expected to show here; unlike a
    difference between the two traced passes, a mismatch does not make
    the run incorrect.
    """
    expected = dict(EXPECTED.get(workload, {}))
    if workload == "phase_scan":
        expected["detect.derivative_samples"] = 2 * metrics["detect.scan_region.cells"] * GRID_POINTS
    return [f"{k} = {metrics[k]}, expected {v}" for k, v in expected.items() if metrics[k] != v]


def write_spans(path, spans, origin):
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    rows = [
        [index[n], round((s - origin) * 1e6, 1), round((e - origin) * 1e6, 1), parent]
        for n, s, e, parent, _ in spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"time_unit": "us", "names": names, "spans": rows}, fh, separators=(",", ":"))


def traced_run(workload, seed):
    unit = Unit(workload, seed)
    unit.run()  # untimed: first-call allocations and caches
    t0 = time.perf_counter()
    unit.run()
    untraced_s = time.perf_counter() - t0

    tracer = Tracer()
    install(tracer)
    t0 = time.perf_counter()
    attempted, failed, incorrect, facts = unit.run()
    traced_s = time.perf_counter() - t0
    spans_1, samples_1 = tracer.spans, tracer.samples
    stats_1 = aggregate(spans_1)

    tracer.reset()
    _, _, incorrect_2, _ = unit.run()
    stats_2 = aggregate(tracer.spans)

    metrics = layer_metrics(stats_1, samples_1, facts)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    write_spans(OUT_DIR / f"spans-{workload}-seed{seed}.json", spans_1, t0)
    return {
        "attempted": attempted,
        "failed": failed,
        "incorrect": incorrect + incorrect_2,
        "metrics": metrics,
        "count_differences": count_differences(call_counts(stats_1, samples_1), call_counts(stats_2, tracer.samples)),
        "derived_mismatches": derived_mismatches(workload, metrics),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(spans_1),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(traced_run(args.workload, args.seed)))


if __name__ == "__main__":
    main()
