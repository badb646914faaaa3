"""Command-line surface: evolution, distances, backflow detection, thresholds,
region scans and self-validation, emitting CSV or JSON for plotting.

Exit codes: 0 success (including an informational no-backflow verdict),
1 backflow detected by ``detect``, 2 usage error (any invalid argument),
3 post-selection impossible, 4 failed internal check (a ``validate`` suite
or a library consistency check).
"""

import json
import random
import sys
from itertools import chain, islice, repeat, starmap

import click
import numpy as np

from .channel import (
    DECAYED_TIME,
    apply,
    eternal_nm_generator,
    integrate_canonical,
    phi_t_kraus,
    validate_cptp,
)
from .control import (
    BLOCH_ROWS,
    OUTCOMES,
    SUPERMAPS,
    ControlConfig,
    build_supermap,
    closed_form_output,
    controlled_output,
)
from .detect import (
    BACKFLOW_EPS,
    DEFAULT_GRID_POINTS,
    DEFAULT_T_MAX,
    DEFAULT_T_MIN,
    analytic_derivative,
    asymptotic_threshold,
    central_difference,
    detect_backflow,
    log_time_grid,
    probe_distance,
    probe_pair,
    scan_region,
)
from .qmat import KET_0, PostSelectionImpossibleError, check_density_operator, pure_state, trace_distance

EXIT_BACKFLOW = 1
EXIT_POSTSELECT = 3
EXIT_CHECK_FAILED = 4
VALIDATE_SEED = 7
MAX_POINTS = 1_000_000  # the most points of a series, and cells of a scan
NON_FINITE_JSON = "JSON output cannot carry a non-finite value; use --format csv"
ROW_BLOCK = 2048  # series rows computed (evolve's Kraus stacks) and made Python floats at a time: memory stays flat


def _fmt(value: float) -> str:
    return f"{value:.15g}"


def _round15(value: float) -> float:
    return float(_fmt(value))


def _emit(chunks, out) -> None:
    """Write str chunks to stdout, or to the --out file.  Not through
    click.echo, which runs its ANSI strip over each text when stdout is not a
    terminal, and as str, so a captured stdout (an io.StringIO) takes them."""
    if out is None:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise click.BadParameter(str(exc), param_hint="'--out'") from exc


_HOLE = "\x00"  # a placeholder value: json writes it as "\u0000", which no payload holds
_ITEM_START = "\n    "  # where json.dumps(..., indent=2) starts an item of a list member of the top-level object


def _emit_json(payload, lists, out) -> None:
    """Write json.dumps({**payload, **lists}, indent=2, allow_nan=False) plus a
    newline.  json.dumps draws the document with one _HOLE item per list member;
    ``lists`` gives each member's items' text in blocks, each a non-empty run
    joined by ",\n    ", and every block but the first takes that separator.
    Every payload value is checked finite first: strict JSON (RFC 8259) has
    no NaN or Infinity, so one that is not raises ValueError (exit 2)."""
    text = json.dumps({**payload, **dict.fromkeys(lists, [_HOLE])}, indent=2, allow_nan=False)
    head, *tails = text.split(json.dumps(_HOLE))
    members = (
        chain(islice(chain.from_iterable(zip(repeat("," + _ITEM_START), blocks)), 1, None), [tail])
        for blocks, tail in zip(lists.values(), tails)
    )
    _emit(chain([head], chain.from_iterable(members), ["\n"]), out)


def _json_rows(item, blocks):
    """Blocks of rows as list items' text: ``item`` is a JSON value holding a _HOLE for each value of a
    row, in row order, filled with the row's values rounded to 15 digits (json writes a float's repr)."""
    template = json.dumps(item, indent=2).replace("{", "{{").replace("}", "}}")
    template = template.replace(json.dumps(_HOLE), "{!r}").replace("\n", _ITEM_START)
    return (("," + _ITEM_START).join(template.format(*map(_round15, row)) for row in rows) for rows in blocks)


def _runs(row):
    """(value, start, end) of each run of equal values in a non-empty 1-d
    array, the values as Python scalars."""
    starts = np.flatnonzero(np.concatenate(([True], row[1:] != row[:-1])))
    return zip(row[starts].tolist(), starts.tolist(), [*starts[1:].tolist(), len(row)])


def _write_series(fmt_name, out, payload, header, columns, comments=(), entry=None):
    """Write one float array per header column as CSV (comment lines, header,
    one line per row at 15 significant digits) or as the payload plus a "series"
    of rows rounded to 15 digits, each shaped by ``entry`` (default: by header),
    a block of rows at a time."""
    names = header.split(",")
    starts = range(0, len(columns[0]), ROW_BLOCK)
    blocks = (zip(*(c[i : i + ROW_BLOCK].tolist() for c in columns)) for i in starts)
    if fmt_name == "csv":
        template = ",".join(["{:.15g}"] * len(names)) + "\n"
        head = "".join(f"{line}\n" for line in (*comments, header))
        _emit(chain([head], ("".join(starmap(template.format, rows)) for rows in blocks)), out)
    else:
        # refused before the first write: rounding is monotone in magnitude,
        # so a column holds a value that is or rounds to inf or NaN iff its
        # largest magnitude does (NaN carries through the max)
        if not all(np.isfinite(_round15(np.abs(c).max())) for c in columns):
            raise click.UsageError(NON_FINITE_JSON)
        entry = entry or (lambda values: dict(zip(names, values)))
        _emit_json(payload, {"series": _json_rows(entry([_HOLE] * len(names)), blocks)}, out)


def _parse_input_state(text: str) -> np.ndarray:
    """Parse 'rho11,re12,im12,rho22' into a validated density matrix."""
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise click.UsageError(f"--input must be four comma-separated reals: {exc}")
    if len(vals) != 4:
        raise click.UsageError("--input must have exactly four entries: rho11,re12,im12,rho22")
    r11, re12, im12, r22 = vals
    rho = np.array([[r11, re12 + 1j * im12], [re12 - 1j * im12, r22]], dtype=complex)
    try:
        check_density_operator(rho)
    except ValueError as exc:
        raise click.UsageError(f"--input is not a density matrix: {exc}")
    return rho


def _initial_state(a, input_text) -> np.ndarray:
    if input_text is not None and a is not None:
        raise click.UsageError("--a and --input are mutually exclusive")
    if input_text is not None:
        return _parse_input_state(input_text)
    if a is not None:
        return probe_pair(a)[1]
    return pure_state(KET_0)


def _config_for(mode: str, p: float, outcome: str = "plus"):
    """The supermap mode's default configuration, or the bare mode's name;
    the bare mode has no control to measure, so it takes no other outcome."""
    if mode in SUPERMAPS:
        return ControlConfig(mode, p, postselect_outcome=outcome)
    if outcome != "plus":
        raise click.UsageError(f"--outcome {outcome} needs a control; {mode} mode has none")
    return mode


def _refuse(*rules):
    """An option callback from (bad, message) rules, checked in order, each
    over every value of the option (one, or several for a repeated option;
    None, an option not given, passes): the first value ``bad`` holds for is
    a usage error, ``message`` formatted with it."""
    def callback(ctx, param, value):
        for bad, message in rules:
            for v in value if isinstance(value, tuple) else (value,):
                if v is not None and bad(v):
                    raise click.BadParameter(message.format(v))
        return value
    return callback


_NOT_FINITE_NONNEGATIVE = (lambda v: not (np.isfinite(v) and v >= 0), "must be finite and >= 0, got {}")
# ODE oracle times past DECAYED_TIME, where the Kraus channel no longer changes
_ode_times = _refuse(
    _NOT_FINITE_NONNEGATIVE,
    (lambda v: not v <= DECAYED_TIME, f"must be at most {DECAYED_TIME:g}, past which the channel no longer changes, got {{}}"),
)
# NaN included, in every mode, including bare, which does not use p; and a scan's p range
_unit_interval = _refuse((lambda v: not 0.0 <= v <= 1.0, "must lie in [0, 1], got {}"))
# a scan's probe range, as scan_region takes it
_probe_interval = _refuse((lambda v: not 0.0 < v <= 1.0, "must lie in (0, 1], got {}"))
# a series' points or a scan axis' values, 1 (2 for detect's log grid) to MAX_POINTS, refused before any grid is built
_COUNT = click.IntRange(1, MAX_POINTS)
# detect's --eps, and the bounds of a linear time range, checked whether or not --t is given
_finite_nonnegative = _refuse(_NOT_FINITE_NONNEGATIVE)
# the bounds of detect's log time grid, and scan's window end, past its start DEFAULT_T_MIN
_finite_positive = _refuse((lambda v: not (np.isfinite(v) and v > 0.0), "must be finite and > 0, got {}"))
_past_t_min = _refuse((lambda v: not (np.isfinite(v) and v > DEFAULT_T_MIN), f"must be finite and > {DEFAULT_T_MIN:g}, got {{}}"))


def _time_axis(t, t_min, t_max, points) -> np.ndarray:
    if t is not None:
        return np.array([t], dtype=float)
    if t_max is None:
        raise click.UsageError("provide either --t or --t-max")
    return np.linspace(t_min, t_max, points)


class _ExitCodeGroup(click.Group):
    """Maps errors escaping a command to the documented exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.exceptions.Exit, click.Abort):
            raise  # both subclass RuntimeError
        except PostSelectionImpossibleError as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(EXIT_POSTSELECT)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
        except RuntimeError as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(EXIT_CHECK_FAILED)


@click.group(cls=_ExitCodeGroup)
def main():
    """Lossy-qubit backflow toolkit: evolve states, detect information
    backflow, query thresholds and scan the (a, p) phase diagram."""


@main.command()
@click.option("--mode", type=click.Choice(list(BLOCH_ROWS)), required=True)
@click.option("--a", type=float, default=None, help="Probe parameter; evolves a|0>+sqrt(1-a^2)|1>.")
@click.option("--input", "input_text", type=str, default=None, help="Initial state rho11,re12,im12,rho22.")
@click.option("--p", type=float, default=1.0, show_default=True, callback=_unit_interval, help="Control purity parameter.")
@click.option("--outcome", type=click.Choice(list(OUTCOMES)), default="plus", show_default=True)
@click.option("--t", type=float, default=None, help="Single evaluation time.")
@click.option("--t-min", type=float, default=0.0, show_default=True, callback=_finite_nonnegative)
@click.option("--t-max", type=float, default=None, callback=_finite_nonnegative)
@click.option("--points", type=_COUNT, default=201, show_default=True)
@click.option("--format", "fmt_name", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def evolve(mode, a, input_text, p, outcome, t, t_min, t_max, points, fmt_name, out):
    """Time series of the evolved state and post-selection probability."""
    rho0 = _initial_state(a, input_text)
    times = _time_axis(t, t_min, t_max, points)
    config = _config_for(mode, p, outcome)
    # t; re, im of rho11, rho12, rho21, rho22; probability: from one stack of times per block
    columns = np.empty((10, len(times)))
    columns[0] = times
    for i in range(0, len(times), ROW_BLOCK):
        block = times[i : i + ROW_BLOCK]
        stack = (apply(phi_t_kraus(block), rho0), 1.0) if config == "bare" else controlled_output(config, rho0, block)
        rho, columns[9, i : i + ROW_BLOCK] = stack
        columns[1:9, i : i + ROW_BLOCK] = rho.reshape(-1, 4).view(float).T
    payload = {"command": "evolve", "mode": mode, "p": p, "outcome": outcome}
    header = "t,rho11_re,rho11_im,rho12_re,rho12_im,rho21_re,rho21_im,rho22_re,rho22_im,probability"
    _write_series(
        fmt_name, out, payload, header, columns,
        entry=lambda r: {"t": r[0], "rho": [r[1:3], r[3:5], r[5:7], r[7:9]], "probability": r[9]},
    )


@main.command()
@click.option("--mode", type=click.Choice(list(BLOCH_ROWS)), required=True)
@click.option("--a", type=float, required=True)
@click.option("--p", type=float, default=1.0, show_default=True, callback=_unit_interval)
@click.option("--t", type=float, default=None)
@click.option("--t-min", type=float, default=0.0, show_default=True, callback=_finite_nonnegative)
@click.option("--t-max", type=float, default=None, callback=_finite_nonnegative)
@click.option("--points", type=_COUNT, default=201, show_default=True)
@click.option("--format", "fmt_name", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def distance(mode, a, p, t, t_min, t_max, points, fmt_name, out):
    """Probe-pair trace distance D(t) for a configuration."""
    times = _time_axis(t, t_min, t_max, points)
    config = _config_for(mode, p)
    values = np.asarray(probe_distance(config, a, times), dtype=float)
    payload = {"command": "distance", "mode": mode, "a": a, "p": p}
    _write_series(fmt_name, out, payload, "t,distance", (times, values))


@main.command()
@click.option("--mode", type=click.Choice(list(BLOCH_ROWS)), required=True)
@click.option("--a", type=float, required=True)
@click.option("--p", type=float, default=1.0, show_default=True, callback=_unit_interval)
@click.option("--t-min", type=float, default=DEFAULT_T_MIN, show_default=True, callback=_finite_positive)
@click.option("--t-max", type=float, default=DEFAULT_T_MAX, show_default=True, callback=_finite_positive)
@click.option("--points", type=click.IntRange(2, MAX_POINTS), default=DEFAULT_GRID_POINTS, show_default=True)
@click.option("--eps", type=float, default=BACKFLOW_EPS, show_default=True, callback=_finite_nonnegative, help="Marginal when the peak derivative is within 10*eps of zero.")
@click.option("--format", "fmt_name", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
@click.pass_context
def detect(ctx, mode, a, p, t_min, t_max, points, eps, fmt_name, out):
    """Detect information backflow; exit code 1 when backflow is found."""
    times = log_time_grid(t_min, t_max, points)
    report = detect_backflow(_config_for(mode, p), a, times=times, eps=eps)
    comments = (
        f"# config: {report.config}",
        f"# a: {_fmt(a)}",
        f"# verdict: {'true' if report.verdict else 'false'}",
        f"# marginal: {'true' if report.marginal else 'false'}",
        f"# intervals: {';'.join(f'{_fmt(t0)}:{_fmt(t1)}' for t0, t1 in report.backflow_intervals)}",
    )
    payload = dict(
        command="detect", config=report.config, a=a, eps=eps, verdict=report.verdict, marginal=report.marginal,
        intervals=[[_round15(t0), _round15(t1)] for t0, t1 in report.backflow_intervals],
    )
    _write_series(fmt_name, out, payload, "t,distance,derivative", (report.times, report.distance, report.derivative), comments)
    ctx.exit(EXIT_BACKFLOW if report.verdict else 0)


@main.command()
@click.option("--mode", type=click.Choice(list(SUPERMAPS)), required=True)
@click.option("--p", type=float, required=True, callback=_unit_interval)
def threshold(mode, p):
    """Critical probe parameter for late-time backflow."""
    click.echo(_fmt(asymptotic_threshold(_config_for(mode, p))))


_FLAGS = ("false", "true")


def _scan_csv(a_grid, p_grid, result):
    """The scan CSV, one chunk per p row; each run of a values with the same
    verdicts shares one line end, so a run is one join."""
    yield "a,p,path_backflow,switch_backflow\n"
    a_text = [f"{_fmt(a)}," for a in a_grid.tolist()]
    codes = 2 * result.backflow_path.view(np.int8) + result.backflow_switch.view(np.int8)
    for p, row in zip(p_grid.tolist(), codes):
        p_text = _fmt(p)
        # the four "<p>,<flag>,<flag>" line ends of this p, indexed by 2 path + switch
        ends = [f"{p_text},{path_v},{switch_v}\n" for path_v in _FLAGS for switch_v in _FLAGS]
        yield "".join(ends[code].join(a_text[s:e]) + ends[code] for code, s, e in _runs(row))


def _json_verdicts(row) -> str:
    """A verdict row as an item of a list member of the top-level object, by
    runs of equal verdicts."""
    sep = ",\n      "
    return "[\n      " + sep.join(sep.join([_FLAGS[v]] * (e - s)) for v, s, e in _runs(row)) + "\n    ]"


@main.command()
@click.option("--a-min", type=float, default=0.005, show_default=True, callback=_probe_interval)
@click.option("--a-max", type=float, default=0.995, show_default=True, callback=_probe_interval)
@click.option("--a-points", type=_COUNT, default=100, show_default=True)
@click.option("--p-min", type=float, default=0.0, show_default=True, callback=_unit_interval)
@click.option("--p-max", type=float, default=1.0, show_default=True, callback=_unit_interval)
@click.option("--p-points", type=_COUNT, default=100, show_default=True)
@click.option("--t-max", type=float, default=DEFAULT_T_MAX, show_default=True, callback=_past_t_min)
@click.option("--format", "fmt_name", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def scan(a_min, a_max, a_points, p_min, p_max, p_points, t_max, fmt_name, out):
    """Backflow verdicts over an (a, p) grid, rows ordered p-major."""
    if a_points * p_points > MAX_POINTS:
        raise click.UsageError("grid exceeds 10^6 cells")
    a_grid = np.linspace(a_min, a_max, a_points)
    p_grid = np.linspace(p_min, p_max, p_points)
    result = scan_region(a_grid, p_grid, t_max=t_max)
    if fmt_name == "csv":
        _emit(_scan_csv(a_grid, p_grid, result), out)
    else:
        lists = dict(
            a_grid=_json_rows(_HOLE, [zip(a_grid.tolist())]),
            p_grid=_json_rows(_HOLE, [zip(p_grid.tolist())]),
            backflow_path=map(_json_verdicts, result.backflow_path),
            backflow_switch=map(_json_verdicts, result.backflow_switch),
        )
        _emit_json({"command": "scan"}, lists, out)


def _suite_cptp():
    times = np.arange(0.0, 5.0 + 1e-9, 0.1)
    channels = [phi_t_kraus(times), *(build_supermap(_config_for(mode, 0.0), times) for mode in SUPERMAPS)]
    reports = [validate_cptp(channel) for channel in channels]
    # every suite folds with numpy's max and min, which carry a NaN through
    # to fail its check; Python's max and min would drop it
    worst_res = np.max([report.completeness_residual for report in reports])
    worst_eig = np.min([report.choi_min_eigenvalue for report in reports])
    detail = f"worst completeness residual {worst_res:.3e}, worst Choi eigenvalue {worst_eig:.3e}"
    return all(report.passed.all() for report in reports), detail


def _random_states(seed: int):
    """A stack of three random full-rank qubit states from Ginibre factors: 2x2
    matrices of standard complex normal entries, drawn by ``random.Random(seed)``."""
    rng = random.Random(seed)
    factors = [np.array([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(4)]).reshape(2, 2) for _ in range(3)]
    return np.stack([rho / np.trace(rho).real for rho in (g @ g.conj().T for g in factors)])


def _suite_ode(t_values, random_states):
    gen = eternal_nm_generator()
    states = np.stack([pure_state(KET_0), pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0)), *random_states])
    # Sorted and de-duplicated, so one RK4 pass carries the whole stack
    # through every checkpoint instead of restarting from t = 0 for each.
    times = sorted(set(t_values))
    ode_states = integrate_canonical(gen, states, times, dt=1e-3)
    # each state against every checkpoint, axes (checkpoint, state) as the oracle's
    kraus_states = apply(phi_t_kraus(times), states[:, None]).swapaxes(0, 1)
    pairs = zip(kraus_states.reshape(-1, 2, 2), ode_states.reshape(-1, 2, 2))
    # a non-finite oracle state fails the suite, not trace_distance's check
    worst = np.max([trace_distance(kraus, ode) if np.isfinite(ode).all() else np.nan for kraus, ode in pairs])
    return worst <= 1e-6, f"worst Kraus-vs-RK4 trace distance {worst:.3e}"


def _suite_closed_form(states):
    # each state against every time: one supermap stack per configuration
    times, stack = np.array([0.5, 1.0, 2.0, 3.0]), states[:, None]
    configs = [_config_for(mode, p) for p in (0.0, 0.5, 1.0) for mode in SUPERMAPS]
    worst = np.max([np.abs(controlled_output(c, stack, times)[0] - closed_form_output(c, stack, times)).max() for c in configs])
    return worst <= 1e-10, f"worst closed-form vs supermap deviation {worst:.3e}"


def _suite_derivatives():
    ts = np.linspace(0.1, 5.0, 25)
    configs = ["bare"] + [_config_for(mode, p) for p in (0.25, 0.5, 0.75, 1.0) for mode in SUPERMAPS]
    worst_fd = np.max([
        np.abs(central_difference(lambda s: probe_distance(c, a, s), ts) - analytic_derivative(c, a, ts)).max()
        for a in (0.2, 0.5, 0.65, 0.9) for c in configs
    ])
    return worst_fd <= 1e-6, f"worst FD residual {worst_fd:.3e}"


@main.command()
@click.option("--suite", type=click.Choice(["all", "cptp", "ode", "closed-form", "derivatives"]), default="all", show_default=True)
@click.option("--t", "t_values", type=float, multiple=True, callback=_ode_times, help="ODE oracle times (default 0.5 1 2 5).")
@click.pass_context
def validate(ctx, suite, t_values):
    """Run the internal consistency suites; exit 4 on any failure."""
    # one draw of the random states, shared by the ode and closed-form suites
    states = _random_states(VALIDATE_SEED)
    suites = {
        "cptp": _suite_cptp,
        "ode": lambda: _suite_ode(list(t_values) if t_values else [0.5, 1.0, 2.0, 5.0], states),
        "closed-form": lambda: _suite_closed_form(states),
        "derivatives": _suite_derivatives,
    }
    all_ok = True
    for name in suites if suite == "all" else [suite]:
        ok, detail = suites[name]()
        all_ok = all_ok and ok
        click.echo(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    click.echo("all checks passed" if all_ok else "validation FAILED")
    if not all_ok:
        ctx.exit(EXIT_CHECK_FAILED)


if __name__ == "__main__":
    main()
