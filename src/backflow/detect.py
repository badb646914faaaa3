"""Trace-distance dynamics of the probe pair and backflow detection.

The probe pair is rho1 = |0><0| and rho2 = |psi><psi| with
|psi> = a |0> + sqrt(1 - a^2) |1>, a in (0, 1].  For the bare channel and
for both plus-outcome control configurations the trace distance D(t) between
the evolved probes, and its time derivative, have closed forms; a positive
derivative anywhere on t > 0 is the backflow criterion.

Every closed form reads the mode's row of Bloch multipliers in
``control.BLOCH_ROWS``, written in u = e^{-2t} in (0, 1] with
v = 1 - u = -expm1(-2t), so each stays finite and accurate for all t >= 0.
The row is each mode's only formula.  Each derivative is a strictly
positive prefactor times a bracket, a polynomial in u whose coefficients
``poly`` derives from the row once, at import, so the sign of dD/dt is the
sign of the bracket and backflow windows are the stretches between its real
roots where it is positive; the late-time thresholds come from the same
coefficients.  All formulas are vectorized over numpy arrays and analytic
in (u, v), so ``detect_backflow`` checks every derivative against the
complex-step derivative Im D(t + ih) / h, with the step entering through
u(t + ih) = u (1 - 2ih) and v(t + ih) = v + 2ihu: exact at h = 2^-560, where
cos 2h = 1, sin 2h = 2h and a product of two imaginary parts rounds to 0, so
each real part is the real operation's, fused or not, and Im / h is exact.
"""

import functools
import math
import operator
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .channel import _decay, _read_only
from .control import BLOCH_ROWS, SUPERMAPS, ConfigLike, _mode_and_p
from .poly import _bracket_coeffs, _horner, _peak, _u0_pair, _u_range, _windows
from .qmat import KET_0, pure_state

BACKFLOW_EPS = 1e-9
MARGINAL_FACTOR = 10.0
DEFAULT_T_MIN = 1e-2
DEFAULT_T_MAX = 12.0
DEFAULT_GRID_POINTS = 481
FD_STEP = 1e-4
COMPLEX_STEP = 2.0 ** -560
FD_CHECK_TOL = 1e-10
LIPSCHITZ_BOUND = 6.0


def probe_pair(a: float):
    """The distinguishability probes |0><0| and |psi_a><psi_a|."""
    _check_a(a)
    b = math.sqrt(1.0 - a * a)
    return pure_state(KET_0), pure_state(np.array([a, b]))


_DEFAULT_GRID = (DEFAULT_T_MIN, DEFAULT_T_MAX, DEFAULT_GRID_POINTS)


def log_time_grid(t_min: float = DEFAULT_T_MIN, t_max: float = DEFAULT_T_MAX, points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Logarithmically spaced time grid; backflow windows open late, so log
    spacing keeps both the early dip and the late window resolved.  Kept
    for the last argument triple, and the default grid always, so the grid
    is read-only."""
    args = (float(t_min), float(t_max), operator.index(points))
    return _default_grid_work()[1][0] if args == _DEFAULT_GRID else _log_grid(*args)


@functools.lru_cache(maxsize=1)
def _log_grid(t_min: float, t_max: float, points: int) -> np.ndarray:
    _check_time_range(t_min, t_max)
    if points < 2:
        raise ValueError("need at least two grid points")
    return _read_only(np.exp(np.linspace(np.log(t_min), np.log(t_max), points)))


def _check_time_range(t_min: float, t_max: float) -> None:
    if not 0.0 < t_min < t_max < np.inf:
        raise ValueError(f"need 0 < t_min < t_max < inf, got t_min = {t_min}, t_max = {t_max}")


def central_difference(fn, t, h=FD_STEP):
    """Central finite difference of a scalar function of time; ``h`` may be a
    scalar or a per-point array."""
    t = np.asarray(t, dtype=float)
    return (fn(t + h) - fn(t - h)) / (2.0 * h)


def _check_a(a: float) -> None:
    if not 0.0 < a <= 1.0:
        raise ValueError(f"probe parameter a must be in (0, 1], got {a}")


def _check_a_open(a: float) -> None:
    if not 0.0 < a < 1.0:
        raise ValueError(f"probe parameter a must be in (0, 1), got {a}")


# ---------------------------------------------------------------------------
# closed forms from the Bloch rows of ``control``: with b = sqrt(1 - a^2) the
# probes' Bloch difference is 2b (a, 0, -b), so D = b sqrt(S) / Delta for
# S = a^2 n_x^2 + b^2 n_z^2, and dD/dt = prefactor * bracket with the
# positive prefactor b u / (Delta^2 sqrt(S)) and the bracket 2 S Delta' - S' Delta,
# primes in u
# ---------------------------------------------------------------------------

# While a >= 2^-500 the a^2 term keeps every radicand S a normal number
# (where 1 - u is small, the u terms are of order 1), so the forms need no
# scale.
_UNSCALED_A = 2.0 ** -500


def _scale(a, p, u):
    """Power of two s at which a closed-form radicand S is evaluated as
    r = S / s^2, so sqrt(S) = s sqrt(r); None where s = 1.

    Once a, p and u are all below about 1e-154, S underflows to 0 while r
    does not: s is then the power of two with s / 2 <= max(a, p, |u|) < s,
    elementwise, so one scaled term is at least 1/2 in size; below 2^-1022,
    s stays 2^-1021, since numpy's complex division by a subnormal overflows.
    While a >= 2^-500, S is normal and s = 1, whose exact array passes the
    forms skip.  Scaling by a power of two is exact, so
    s sqrt(r) equals sqrt(S) bit for bit wherever S is normal.  s is real
    and reads u only through |u|, which the complex step u (1 - 2ih) leaves
    unchanged in double precision, so the forms stay analytic in (u, v), the
    pair through which the complex step enters."""
    unscaled = a >= _UNSCALED_A
    if unscaled.all() if isinstance(unscaled, np.ndarray) else unscaled:
        return None
    return np.ldexp(1.0, np.maximum(np.frexp(np.maximum(np.maximum(a, p), np.abs(u)))[1], -1021))


def _terms(mode: str, a: float, p: float, u, v):
    """u, the scale s (None for 1), Delta and r = S / s^2 of a mode's row at
    the decay pair (u, v), so sqrt(S) = s sqrt(r)."""
    delta, n_x, _, n_z = BLOCH_ROWS[mode](p, u, v)
    s = _scale(a, p, u)
    if s is None:
        return u, s, delta, (a * n_x) ** 2 + (1.0 - a * a) * n_z ** 2
    return u, s, delta, (a / s * n_x) ** 2 + (1.0 - a * a) * (n_z / s) ** 2


def _distance(a: float, terms):
    """D = b s sqrt(r) / Delta, from a mode's terms."""
    _, s, delta, r = terms
    root = np.sqrt((1.0 - a * a) * r)
    return (root if s is None else root * s) / delta


def _prefactor(a: float, terms):
    """Positive prefactor b u / (Delta^2 s sqrt(r)) of a mode's dD/dt."""
    u, s, delta, r = terms
    root = np.sqrt(r)
    return np.sqrt(1.0 - a * a) * u / (delta * delta * (root if s is None else s * root))


def _derivative_parts(mode: str, a: float, p: float, t):
    """Positive prefactor and sign-carrying bracket of a mode's dD/dt at t;
    the bracket is its polynomial evaluated at u = e^{-2t}."""
    terms = _terms(mode, a, p, *_decay(t))
    return _prefactor(a, terms), _horner(_bracket_coeffs(mode, a, p), terms[0])


def probe_distance(config: ConfigLike, a: float, t):
    """Probe-pair trace distance D(t) for a configuration ('bare' or
    ControlConfig), for a in (0, 1] and t >= 0."""
    mode, p, _ = _mode_and_p(config)
    u, v = _decay(t)
    _check_a(a)
    return _distance(a, _terms(mode, a, p, u, v))


def analytic_derivative(config: ConfigLike, a: float, t):
    """Analytic dD/dt for a configuration ('bare' or ControlConfig), for
    a in (0, 1) and t >= 0."""
    mode, p, _ = _mode_and_p(config)
    _check_a_open(a)
    prefactor, bracket = _derivative_parts(mode, a, p, t)
    return prefactor * bracket


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BackflowReport:
    """Distance/derivative series with exact backflow intervals.

    ``backflow_intervals`` are the stretches of [times[0], times[-1]] where
    dD/dt > 0, with endpoints at the real roots of the derivative's bracket
    (or at the ends of the grid); ``verdict`` is True when there is one.
    ``marginal`` flags reports whose peak derivative on the grid lies within
    10 * eps of zero. It does not qualify the verdict, which comes from the
    bracket's exact roots: with no backflow the sampled peak is the last
    point's derivative, of order e^{-2 t_max}, so ``detect --mode bare
    --a 0.5`` is marginal.
    ``fd_residual`` records the worst disagreement between the analytic
    derivative and its complex-step cross-check.
    """

    config: str
    a: float
    times: np.ndarray
    distance: np.ndarray
    derivative: np.ndarray
    backflow_intervals: List[Tuple[float, float]]
    verdict: bool
    marginal: bool
    eps: float
    fd_residual: float


def _grid_work(times):
    """The checked work of a detection grid, a 1-d float64 array: the grid
    itself, the Lipschitz allowance of each step and the complex-step pair
    u - 2ihu, v + 2ihu of the decay pair u, v, all read-only.  Kept for the
    last grid, by its bytes, at any length, and for the default grid always;
    the grid returned is rebuilt from those bytes, so it cannot be made
    writeable."""
    if times.ndim != 1 or len(times) < 2:
        raise ValueError("times must be a 1-d grid with at least two points")
    key = times.tobytes()
    default_key, default_work = _default_grid_work()
    return default_work if key == default_key else _kept_grid_work(key)


@functools.lru_cache(maxsize=1)
def _kept_grid_work(key: bytes):
    times = np.frombuffer(key)
    if not times[0] > 0.0:
        raise ValueError("time grid must start at t > 0")
    steps = np.diff(times)
    if not steps.min() > 0.0:
        raise ValueError("time grid must be strictly increasing")
    # NaN fails both comparisons above, and an increasing grid with a finite
    # last point holds no inf
    if not math.isfinite(times[-1]):
        raise ValueError("time grid must be finite")
    # the distance is checked to lie in [0, 1] first, so no step of length
    # 1 or more can exceed the allowance; the cap keeps it finite
    allowance = LIPSCHITZ_BOUND * np.minimum(steps, 1.0) + 1e-12
    u, v = _decay(times)
    step = (2j * COMPLEX_STEP) * u
    return (times, *map(_read_only, (allowance, u - step, v + step)))


@functools.cache
def _default_grid_work():
    """The default grid's bytes and checked work, built on first use and kept
    beside the one-slot memos, so a query on another grid does not evict
    them."""
    key = _log_grid.__wrapped__(*_DEFAULT_GRID).tobytes()
    return key, _kept_grid_work.__wrapped__(key)


def detect_backflow(config: ConfigLike, a: float, times: Optional[np.ndarray] = None, eps: float = BACKFLOW_EPS) -> BackflowReport:
    """Distance and derivative series, and the exact backflow intervals.

    The distance comes from the closed form of the configuration, the
    derivative from the generic prefactor and the row's bracket, and every
    call verifies the derivative against the complex-step derivative
    Im D(t + ih) / h of the same closed form (h = 2^-560, tolerance 1e-10).
    The intervals are where the derivative's bracket is positive in
    [times[0], times[-1]], from its real roots rather than from the samples;
    ``eps`` only sets the ``marginal`` band and must be finite and >= 0.
    The grid must be finite, strictly increasing and start at t > 0.
    Raises ValueError for invalid input and RuntimeError when a series is
    not finite, leaves [0, 1], jumps, or fails the complex-step check.
    """
    _check_a_open(a)
    if times is None:
        times = log_time_grid()
    # the report keeps the memo's read-only grid, so a later edit of the
    # caller's grid cannot change it
    times, allowance, u_shifted, v_shifted = _grid_work(np.asarray(times, dtype=float))

    mode, p, label = _mode_and_p(config)
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    # one pass at t + ih: a product of two imaginary parts is of order h^2,
    # which rounds to 0, so the real parts are the terms at t bit for bit
    shifted = _terms(mode, a, p, u_shifted, v_shifted)
    u, s, delta, r = shifted
    terms = u.real, s, delta.real, r.real  # s is real
    coeffs = _bracket_coeffs(mode, a, p)
    dist = _distance(a, terms)
    deriv = _prefactor(a, terms) * _horner(coeffs, terms[0])

    # min and max carry any NaN, so the series are finite iff their extremes are
    lo, hi, peak = float(dist.min()), float(dist.max()), float(deriv.max())
    if not all(map(math.isfinite, (lo, hi, float(deriv.min()), peak))):
        raise RuntimeError("distance or derivative series is not finite")
    if lo < -1e-12 or hi > 1.0 + 1e-12:
        raise RuntimeError("distance series escaped [0, 1]")
    if (np.abs(dist[1:] - dist[:-1]) > allowance).any():
        raise RuntimeError("distance series is not continuous at the grid resolution")

    # complex step: Im D(t + ih) / h subtracts nothing, so it stays exact to
    # rounding at any h, including across the kinks of D at small a
    slope = _distance(a, shifted).imag / COMPLEX_STEP
    fd_residual = float(np.abs(slope - deriv).max())
    if not fd_residual <= FD_CHECK_TOL:
        raise RuntimeError(f"analytic derivative disagrees with the complex-step derivative ({fd_residual:.3e})")

    intervals = _windows(coeffs, float(times[0]), float(times[-1]))
    return BackflowReport(
        config=label,
        a=a,
        times=times,
        distance=dist,
        derivative=deriv,
        backflow_intervals=intervals,
        verdict=bool(intervals),
        marginal=abs(peak) < MARGINAL_FACTOR * eps,
        eps=eps,
        fd_residual=fd_residual,
    )


# ---------------------------------------------------------------------------
# thresholds and region scans
# ---------------------------------------------------------------------------

def asymptotic_threshold(config: ConfigLike) -> float:
    """Critical probe parameter below which late-time backflow occurs, for 'bare' or a ControlConfig.

    As u = e^{-2t} -> 0 the bracket's sign is that of its u^0 coefficient
    a^2 B_x + b^2 B_z, positive for a^2 below B_z / (B_z - B_x) at u = 0:

    path:   a < sqrt(p / (1 + p))
    switch: a < sqrt(2 p^2 / (3p + 2))
    bare:   0, since B_z = 0 at u = 0

    The path threshold dominates the switch threshold for every p in (0, 1].
    """
    mode, p, _ = _mode_and_p(config)
    x0, z0 = _u0_pair(mode, p)
    # no late-time backflow where the ratio is not positive, -0 included
    return math.sqrt(max(0.0, z0 / (z0 - x0)))


@dataclass(frozen=True)
class RegionScan:
    """Backflow verdict matrices over an (a, p) grid, rows indexed by p."""

    a_grid: np.ndarray
    p_grid: np.ndarray
    backflow_path: np.ndarray
    backflow_switch: np.ndarray

    def __post_init__(self):
        shape = (len(self.p_grid), len(self.a_grid))
        if self.backflow_path.shape != shape or self.backflow_switch.shape != shape:
            raise ValueError("verdict matrices must have shape (len(p_grid), len(a_grid))")


def scan_region(a_grid, p_grid, t_max: float = DEFAULT_T_MAX) -> RegionScan:
    """Backflow verdicts for both configurations over an (a, p) grid.

    A cell has backflow when its bracket is positive somewhere in [DEFAULT_T_MIN, t_max], the detect_backflow
    criterion: iff a^2 (-B_x) < (1 - a^2) B_z at the u* where r = B_z / (B_z - B_x) peaks, one u* per p row.
    As -B_x >= 0, each row is one run of backflow cells from its smallest a, in any a order.
    """
    a_grid = np.asarray(a_grid, dtype=float)
    p_grid = np.asarray(p_grid, dtype=float)
    if not np.all((a_grid > 0.0) & (a_grid <= 1.0)):
        raise ValueError("a grid must lie in (0, 1]")
    if not np.all((p_grid >= 0.0) & (p_grid <= 1.0)):
        raise ValueError("p grid must lie in [0, 1]")
    _check_time_range(DEFAULT_T_MIN, t_max)
    u_lo, u_hi = _u_range(DEFAULT_T_MIN, t_max)
    a2 = a_grid * a_grid
    verdicts = {}
    for m in SUPERMAPS:
        b_x, b_z = _peak(m, p_grid, u_lo, u_hi)
        verdicts[f"backflow_{m}"] = np.multiply.outer(b_z, 1.0 - a2) > np.multiply.outer(-b_x, a2)
    return RegionScan(a_grid, p_grid, **verdicts)
