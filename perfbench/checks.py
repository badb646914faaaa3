"""Output checks for the benchmark workloads.

Each check returns a list of problems; an empty list means the output is
correct.  The thresholds are the paper's late-time results:

    path:   a < sqrt(p / (1 + p))
    switch: a < sqrt(2 p^2 / (3 p + 2))

The sampled detector flags backflow at any time on a finite grid, so its
verdict may differ from the late-time threshold right at the boundary; the
checks skip a band around the threshold (one a-grid step for scans).
"""

import math
import re

import numpy as np

VALIDATE_SUITES = ("cptp", "ode", "closed-form", "derivatives")
ODE_TOL = 1e-6
CLOSED_FORM_TOL = 1e-10
# Worst measured distance of the path verdict from its threshold at
# t_max = 12 is 1.1e-3 (at p = 1e-5); it shrinks as p grows.
PROBE_VERDICT_BAND = 2e-3

_FLOAT = r"([0-9.eE+-]+|nan|inf)"
VALIDATE_RESIDUALS = {
    "ode": (re.compile(r"worst Kraus-vs-RK4 trace distance " + _FLOAT), ODE_TOL),
    "closed-form": (re.compile(r"worst closed-form vs supermap deviation " + _FLOAT), CLOSED_FORM_TOL),
}


def path_threshold(p):
    return np.sqrt(p / (1.0 + p))


def switch_threshold(p):
    return np.sqrt(2.0 * p * p / (3.0 * p + 2.0))


def grid_from_args(args):
    """The (a, p) grids a ``backflow scan`` argument vector asks for."""
    opts = dict(zip(args[1::2], args[2::2]))
    a_grid = np.linspace(float(opts["--a-min"]), float(opts["--a-max"]), int(opts["--a-points"]))
    p_grid = np.linspace(float(opts["--p-min"]), float(opts["--p-max"]), int(opts["--p-points"]))
    return a_grid, p_grid


def check_scan(args, returncode, stdout: bytes):
    """Problems with one ``backflow scan`` CSV output."""
    if returncode != 0:
        return [f"scan exited with {returncode}"]
    a_grid, p_grid = grid_from_args(args)
    lines = stdout.decode("ascii").splitlines()
    if not lines or lines[0] != "a,p,path_backflow,switch_backflow":
        return ["scan CSV header missing"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != a_grid.size * p_grid.size:
        return [f"scan CSV has {len(rows)} rows, expected {a_grid.size * p_grid.size}"]
    problems = []
    flags = {"true": True, "false": False}
    try:
        path = np.array([flags[r[2]] for r in rows]).reshape(p_grid.size, a_grid.size)
        switch = np.array([flags[r[3]] for r in rows]).reshape(p_grid.size, a_grid.size)
        a_col = np.array([float(r[0]) for r in rows]).reshape(p_grid.size, a_grid.size)
        p_col = np.array([float(r[1]) for r in rows]).reshape(p_grid.size, a_grid.size)
    except (KeyError, IndexError, ValueError) as exc:
        return [f"scan CSV row does not parse: {exc}"]
    if np.abs(a_col - a_grid[None, :]).max() > 1e-12 or np.abs(p_col - p_grid[:, None]).max() > 1e-12:
        problems.append("scan CSV grid differs from the requested grid")
    if np.any(switch & ~path):
        problems.append(f"{int(np.sum(switch & ~path))} cells with switch backflow but no path backflow")
    band = (a_grid[-1] - a_grid[0]) / max(a_grid.size - 1, 1)
    a, p = a_grid[None, :], p_grid[:, None]
    path_thr, switch_thr = path_threshold(p), switch_threshold(p)
    away = np.abs(a - path_thr) > band
    wrong = away & (path != (a < path_thr))
    if wrong.any():
        problems.append(f"{int(wrong.sum())} path verdicts disagree with a < sqrt(p/(1+p))")
    missing = (a < switch_thr - band) & ~switch
    if missing.any():
        problems.append(f"{int(missing.sum())} switch verdicts false below the switch threshold")
    return problems


def parse_validate(stdout: bytes):
    """Per-suite PASS flags and the parsed residuals of ``backflow validate``."""
    text = stdout.decode("ascii", errors="replace")
    passed = {}
    for line in text.splitlines():
        name, _, rest = line.partition(": ")
        if name in VALIDATE_SUITES:
            passed[name] = rest.startswith("PASS")
    residuals = {}
    for name, (pattern, _) in VALIDATE_RESIDUALS.items():
        match = pattern.search(text)
        residuals[name] = float(match.group(1)) if match else math.nan
    return passed, residuals


def check_validate(returncode, stdout: bytes):
    """Problems with one ``backflow validate`` output."""
    problems = []
    if returncode != 0:
        problems.append(f"validate exited with {returncode}")
    passed, residuals = parse_validate(stdout)
    for name in VALIDATE_SUITES:
        if not passed.get(name, False):
            problems.append(f"suite {name} did not PASS")
    for name, (_, tol) in VALIDATE_RESIDUALS.items():
        if not residuals[name] <= tol:
            problems.append(f"{name} residual {residuals[name]} exceeds {tol}")
    return problems
