"""The lossy qubit channel family and its master-equation oracle.

The channel of interest mixes the identity with symmetric bit-exchange noise:
its three nonzero Kraus operators are

    K1(t) = sqrt(a2(t)) |0><1|
    K2(t) = sqrt(a2(t)) |1><0|
    K3(t) = sqrt((a1(t) + a3(t)) / 2) I

with a1(t) = a3(t) = (1 + exp(-2t)) / 2 and a2(t) = (1 - exp(-2t)) / 2.  The
fourth operator of the general construction is proportional to
sqrt((a1 - a3) / 2) and vanishes identically, so it is omitted.

The same dynamics solve the time-local canonical master equation

    drho/dt = sum_i (g_i(t) / 2) (sigma_i rho sigma_i - rho)

with g1 = g2 = 1 and g3 = -tanh(t); the rate g3 is negative at every time,
which is what makes this family interesting.  A fixed-step RK4 integrator of
that equation serves as an independent oracle for the Kraus form.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .qmat import I2, _unstack, check_density_operator, dagger

COMPLETENESS_TOL = 1e-12
CHOI_PSD_TOL = 1e-10
MAX_ODE_STEP = 1e-2
# From t ~ 372.6 on, exp(-2t) underflows to exactly 0 and expm1(-2t) rounds
# to -1, so capping t here changes no value and keeps -2t finite for every
# float t.
DECAYED_TIME = 400.0
# The RK4 oracle's step budget: DECAYED_TIME at dt = 1e-3, past which the
# channel no longer changes.
MAX_RK4_STEPS = 400_000
# Steps whose RK4 multipliers are computed in one array pass; keeps memory
# flat at any t_final.
RK4_BLOCK_STEPS = 1024


def _read_only(array: np.ndarray) -> np.ndarray:
    """A copy of the array over immutable bytes, so no caller can make it writeable again."""
    return np.ndarray(array.shape, array.dtype, array.tobytes())


def _decay(t):
    """u = e^{-2t} and v = 1 - u = -expm1(-2t), both in [0, 1], for t >= 0,
    scalar or array; v is exact at small t.  The one time check: a negative
    or NaN t raises ValueError.  Capping t at DECAYED_TIME changes no value
    and keeps -2t finite.  The Bloch rows are polynomials in (u, v), so a
    complex step enters through u (1 - 2ih) and v + 2ihu, not complex t."""
    valid = np.asarray(t) >= 0.0
    if not (valid if valid.ndim == 0 else valid.all()):  # a numpy bool tests faster as itself
        # the first refused time, and how many there are among several
        bad = ~valid
        count = f" ({bad.sum()} of {bad.size} times)" if bad.size > 1 else ""
        raise ValueError(f"time must be non-negative, got {np.asarray(t)[bad].flat[0]}{count}")
    s = -2.0 * np.minimum(t, DECAYED_TIME)
    return np.exp(s), -np.expm1(s)


@dataclass(frozen=True)
class KrausChannel:
    """Kraus operators stacked in one complex (k, d, d) array, k >= 1, or a stack of sets (..., k, d, d).

    Any sequence of k equal-dimension square matrices is accepted and stacked
    on construction; ``ops[i]`` is the i-th operator.
    """

    ops: np.ndarray
    # not a field: apply's worst completeness residual and adjoint column
    # block, recorded on first use when ops lie over immutable bytes
    _checked = None

    def __post_init__(self):
        try:
            ops = np.asarray(self.ops, dtype=complex)
        except ValueError:
            raise ValueError("Kraus operators must be square and equal-dimension") from None
        if ops.shape[-3:][:1] == (0,):
            raise ValueError("KrausChannel needs at least one operator")
        if ops.ndim < 3 or ops.shape[-1] != ops.shape[-2]:
            raise ValueError("Kraus operators must be square and equal-dimension")
        object.__setattr__(self, "ops", ops)

    @property
    def dim(self) -> int:
        return self.ops.shape[-1]


@dataclass(frozen=True)
class CptpReport:
    """Completeness and complete-positivity diagnostics for a Kraus set, or per set of a stack."""

    completeness_residual: float
    choi_min_eigenvalue: float

    @property
    def passed(self):
        return (self.completeness_residual <= COMPLETENESS_TOL) & (self.choi_min_eigenvalue >= -CHOI_PSD_TOL)


def _columns(ops: np.ndarray) -> np.ndarray:
    """Each Kraus set as one (k*d, d) column block."""
    return ops.reshape(ops.shape[:-3] + (ops.shape[-3] * ops.shape[-1], ops.shape[-1]))


def completeness_residual(channel: KrausChannel):
    """Max-entry deviation of sum_i K_i^dag K_i from the identity, per Kraus
    set: the column block W gives the sum as the single product W^dag W, whose
    diagonal (each (d + 1)-th entry, read flat) takes 1 off in place."""
    w = _columns(channel.ops)
    gram = w.conj().swapaxes(-1, -2) @ w
    gram.reshape(gram.shape[:-2] + (w.shape[-1] ** 2,))[..., :: w.shape[-1] + 1] -= 1.0
    return _unstack(np.abs(gram).max(axis=(-2, -1)))


def choi_matrix(channel: KrausChannel) -> np.ndarray:
    """Choi matrix sum_i |K_i>><<K_i| with row-major vectorization, per Kraus set.

    Built from the unnormalized maximally entangled pairing, so the trace
    equals the channel dimension for a trace-preserving channel.
    """
    w = channel.ops.reshape(channel.ops.shape[:-2] + (channel.dim**2,))
    return w.swapaxes(-1, -2) @ w.conj()


def validate_cptp(channel: KrausChannel) -> CptpReport:
    """Report completeness residual and Choi minimum eigenvalue, per Kraus set;
    a set with a non-finite entry fails with both fields NaN."""
    finite = np.isfinite(channel.ops).all(axis=(-3, -2, -1))
    # a non-finite set is zeroed first: LAPACK refuses a non-finite Choi matrix
    safe = channel if finite.all() else KrausChannel(np.where(finite[..., None, None, None], channel.ops, 0.0))
    lam_min = np.linalg.eigvalsh(choi_matrix(safe)).min(axis=-1)
    return CptpReport(*(_unstack(np.where(finite, x, np.nan)) for x in (completeness_residual(safe), lam_min)))


def _checked_adjoint(channel: KrausChannel) -> tuple:
    """The worst completeness residual of a channel's Kraus sets and, when it
    passes, their adjoints K_i^dag as (k*d, d) column blocks.  Recorded with
    a channel whose ops lie over immutable bytes (``_read_only``), so such a
    set is checked once; any other set is checked on every call."""
    if channel._checked is not None:
        return channel._checked
    res = completeness_residual(channel)
    worst = res if isinstance(res, float) else res.max(initial=0.0)
    checked = worst, (_columns(dagger(channel.ops)) if worst <= COMPLETENESS_TOL else None)
    if isinstance(channel.ops.base, bytes):
        object.__setattr__(channel, "_checked", checked)
    return checked


def apply(channel: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Channel action sum_i K_i rho K_i^dag, stacks of sets and states
    broadcast.  Refuses channels whose Kraus sets fail the completeness
    condition, so a valid density operator always maps to a valid one."""
    rho = np.asarray(rho, dtype=complex)
    d = channel.dim
    if rho.shape[-2:] != (d, d):
        raise ValueError(f"state dimension {rho.shape} does not match channel dim {d}")
    worst, adjoint = _checked_adjoint(channel)
    if not worst <= COMPLETENESS_TOL:
        raise ValueError(f"channel is not trace preserving (residual {worst:.3e})")
    # [K_1 rho ... K_k rho] times the K_i^dag stacked as one (k*d, d) column
    ops = channel.ops
    left = (ops @ rho[..., None, :, :]).swapaxes(-3, -2)
    return left.reshape(left.shape[:-3] + (d, ops.shape[-3] * d)) @ adjoint


# |0><1|, |1><0| and I: the lossy channel's operators before their weights;
# read-only, since every phi_t_kraus call shares it
_PHI_TEMPLATES = _read_only(np.array([[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]], I2], dtype=complex))


def _phi_weights(t) -> np.ndarray:
    """The real weights of ``_PHI_TEMPLATES`` at time t >= 0: sqrt((1 - u) / 2)
    twice and sqrt((1 + u) / 2), u = e^{-2t}; the operator axis last, after
    the axes of an array of times."""
    u, _ = _decay(t)
    k_flip = np.sqrt((1.0 - u) / 2.0)
    weights = np.array([k_flip, k_flip, np.sqrt((1.0 + u) / 2.0)])
    return weights.transpose((*range(1, weights.ndim), 0))


def phi_t_kraus(t) -> KrausChannel:
    """The lossy channel at time t >= 0 as three Kraus operators: |0><1| and
    |1><0| weighted sqrt((1 - u) / 2), I weighted sqrt((1 + u) / 2), u = e^{-2t};
    an array of times gives their stack, of shape t.shape + (3, 2, 2)."""
    return KrausChannel(_phi_weights(t)[..., None, None] * _PHI_TEMPLATES)


def eternal_nm_generator() -> Callable:
    """Rates g1 = g2 = 1 and g3 = -tanh(t): negative at all t > 0."""
    return lambda t: (1.0, 1.0, -np.tanh(t))


def _bloch_decay_rates(gen: Callable, t: np.ndarray) -> np.ndarray:
    """Decay rates (g2 + g3, g1 + g3, g1 + g2) of the Bloch components
    (x, y, z) at times t, stacked on a new leading axis: under the canonical
    equation each sigma_j is an eigenvector, dsigma_j/dt = -rate_j(t) sigma_j."""
    g1, g2, g3, _ = np.broadcast_arrays(*gen(t), t)
    return np.stack([g2 + g3, g1 + g3, g1 + g2])


def _rk4_multipliers(gen: Callable, t: np.ndarray, h: float) -> np.ndarray:
    """Product over steps starting at times t of one classical RK4 step's
    multiplier on each Bloch component (x, y, z), shape (3,).

    For dr/dt = c(t) r an RK4 step is r -> m r with
    m = 1 + h/6 (c1 + 2 k2 + 2 k3 + k4), where c1, c2, c4 are c at t,
    t + h/2, t + h and k2 = c2 (1 + h/2 c1), k3 = c2 (1 + h/2 k2),
    k4 = c4 (1 + h k3).
    """
    stage_times = t + h * np.array([[0.0], [0.5], [1.0]])
    c1, c2, c4 = -_bloch_decay_rates(gen, stage_times).swapaxes(0, 1)
    k2 = c2 * (1.0 + 0.5 * h * c1)
    k3 = c2 * (1.0 + 0.5 * h * k2)
    k4 = c4 * (1.0 + h * k3)
    return np.prod(1.0 + (h / 6.0) * (c1 + 2.0 * k2 + 2.0 * k3 + k4), axis=-1)


def _scale_bloch(rho: np.ndarray, m: np.ndarray) -> np.ndarray:
    """States with Bloch components (x, y, z) scaled by m and the trace kept;
    the off-diagonal is Hermitized first, so the output is Hermitian."""
    off = 0.5 * (rho[..., 0, 1] + rho[..., 1, 0].conj())
    off = m[0] * off.real + 1j * m[1] * off.imag
    tr = rho[..., 0, 0].real + rho[..., 1, 1].real
    z = m[2] * (rho[..., 0, 0].real - rho[..., 1, 1].real)
    out = np.empty_like(rho)
    out[..., 0, 0] = 0.5 * (tr + z)
    out[..., 1, 1] = 0.5 * (tr - z)
    out[..., 0, 1] = off
    out[..., 1, 0] = off.conj()
    return out


def integrate_canonical(
    gen: Callable,
    rho0: np.ndarray,
    t_final: float | Sequence[float],
    dt: float = 1e-3,
) -> np.ndarray:
    """Classical RK4 integration of the canonical equation up to t_final.
    The generator ``gen`` maps an array of stage times to the three Pauli
    rates ``(g1, g2, g3)`` (no Hamiltonian part), each of the times' shape
    or a constant, which is broadcast; it is called once per block of steps.

    Every Pauli dissipator is diagonal on the Bloch components, so RK4 on
    the state is RK4 on each component: one step multiplies r_x, r_y and
    r_z by scalars computed from the rates at t, t + h/2 and t + h, and the
    trace is left alone.  The multipliers of all steps are computed with
    array arithmetic, ``RK4_BLOCK_STEPS`` steps per block, and multiplied
    into one running product per component; each checkpoint scales the
    Hermitized input by that product.  Trace and Hermiticity therefore hold
    by construction.  The step count is rounded so the final time is hit
    exactly; the effective step never exceeds ``dt`` by more than half a
    step.  Accepts stacked states over leading axes, each of which must be
    a valid density operator.

    ``t_final`` may also be a non-decreasing sequence of checkpoints.  The
    states are then integrated once through all of them, each segment
    stepped like a call of its own length, and the result has one state per
    checkpoint along a new leading axis: shape ``(len(t_final),) +
    rho0.shape``.  A scalar ``t_final`` is the one-checkpoint case and
    returns an array of ``rho0``'s shape.  A checkpoint reached before any
    step is taken returns the input unchanged.

    This integrator is the independent oracle for the Kraus family: with
    dt = 1e-3 the two agree in trace distance to better than 1e-6 out to
    t_final = 5.
    """
    if not (0.0 < dt <= MAX_ODE_STEP):
        raise ValueError(f"dt must lie in (0, {MAX_ODE_STEP:g}], got {dt}")
    scalar = np.ndim(t_final) == 0
    checkpoints = np.atleast_1d(np.asarray(t_final, dtype=float))
    if checkpoints.ndim > 1 or checkpoints.size == 0:
        raise ValueError("t_final must be a scalar or a non-empty sequence of checkpoints")
    if not np.all(np.isfinite(checkpoints)):
        raise ValueError(f"t_final must be finite, got {t_final}")
    if np.any(checkpoints < 0):
        raise ValueError(f"t_final must be non-negative, got {t_final}")
    if np.any(np.diff(checkpoints) < 0):
        raise ValueError(f"checkpoints must be non-decreasing, got {t_final}")
    # no span exceeds the last checkpoint
    if not np.isfinite(float(checkpoints[-1]) / dt):
        raise ValueError(f"t_final / dt must give a finite step count, got {t_final} / {dt}")
    spans = np.diff(checkpoints, prepend=0.0)
    # each span's step count is rounded so that its checkpoint is hit exactly
    step_counts = np.where(spans > 0.0, np.maximum(1.0, np.round(spans / dt)), 0.0)
    # summed as floats: a count past 2^63 would wrap as an integer
    if step_counts.sum() > MAX_RK4_STEPS:
        raise ValueError(f"t_final / dt asks for more than {MAX_RK4_STEPS} RK4 steps, got {t_final} / {dt}")
    rho = np.array(rho0, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        raise ValueError("integrate_canonical expects qubit states")
    for state in rho.reshape(-1, 2, 2):
        check_density_operator(state)
    product = np.ones(3)  # running RK4 multipliers of (x, y, z)
    states = []
    t_start = 0.0
    for t_stop, span, n_steps in zip(checkpoints, spans, step_counts.astype(int)):
        if n_steps:
            h = span / n_steps
            for first in range(0, n_steps, RK4_BLOCK_STEPS):
                steps = np.arange(first, min(first + RK4_BLOCK_STEPS, n_steps))
                product = product * _rk4_multipliers(gen, t_start + h * steps, h)
            t_start = t_stop
        # a checkpoint before the first step returns the input unchanged
        states.append(rho if t_start == 0.0 else _scale_bloch(rho, product))
    return states[0] if scalar else np.stack(states)
