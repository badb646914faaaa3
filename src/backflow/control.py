"""Coherent control of two lossy-channel copies via a control qubit.

Two supermaps are provided.  The *switch* runs the two channel copies in the
two possible orders, entangled with the control:

    S_ij = E_i F_j (x) |0><0|  +  F_j E_i (x) |1><1|

The *path* configuration instead routes the target through one copy or the
other, weighted by complex amplitude vectors:

    N_ij = alpha_j E_i (x) |0><0|  +  beta_i F_j (x) |1><1|

with sum_j |alpha_j|^2 = sum_i |beta_i|^2 = 1.  The control starts in
omega = p |+><+| + (1 - p) I/2 and is finally measured in the |+->-basis;
conditioning on one outcome and renormalizing yields the output state.

For both configurations applied to two copies of the lossy channel with the
default amplitudes, the plus-outcome output admits closed forms, as does the
bare channel.  ``closed_form_output`` gives them from one row of Bloch
multipliers per configuration, alongside the direct supermap route so that
each can check the other; ``_mode_and_p`` says which configurations they
cover, for every closed-form door.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Tuple, Union

import numpy as np

from .channel import _PHI_TEMPLATES, KrausChannel, _decay, _phi_weights, _read_only, apply
from .qmat import (
    KET_MINUS,
    KET_PLUS,
    check_density_operator,
    kron,
    project_control,
)

AMPLITUDE_NORM_TOL = 1e-12


@dataclass(frozen=True)
class AmplitudeVectors:
    """Channel-choice amplitudes; each vector is indexed by the other
    channel's Kraus index and must be normalized."""

    alpha: tuple
    beta: tuple

    def __post_init__(self):
        alpha = tuple(complex(a) for a in self.alpha)
        beta = tuple(complex(b) for b in self.beta)
        for name, vec in (("alpha", alpha), ("beta", beta)):
            norm = sum(abs(v) ** 2 for v in vec)
            if not abs(norm - 1.0) <= AMPLITUDE_NORM_TOL:
                raise ValueError(f"{name} amplitudes not normalized: sum |.|^2 = {norm}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class ControlConfig:
    """Which supermap to build, the control omega = p |+><+| + (1 - p) I/2
    with p in [0, 1], and the control outcome to post-select.  Path takes
    the table's default amplitudes unless given others; the switch takes
    none."""

    mode: str
    p: float
    amplitudes: Optional[AmplitudeVectors] = None
    postselect_outcome: str = "plus"

    def __post_init__(self):
        if self.mode not in SUPERMAPS:
            raise ValueError(f"mode must be one of {list(SUPERMAPS)}, got {self.mode!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"control purity parameter p must be in [0, 1], got {self.p}")
        if self.amplitudes is None:
            object.__setattr__(self, "amplitudes", SUPERMAPS[self.mode].amplitudes)
        elif SUPERMAPS[self.mode].amplitudes is None:
            raise ValueError(f"{self.mode} mode takes no amplitude vectors")
        elif not isinstance(self.amplitudes, AmplitudeVectors):
            raise TypeError(f"amplitudes must be None or AmplitudeVectors, got {type(self.amplitudes).__name__}")
        if self.postselect_outcome not in OUTCOMES:
            raise ValueError(f"postselect_outcome must be one of {list(OUTCOMES)}")


def switch_config(p: float, outcome: str = "plus") -> ControlConfig:
    return ControlConfig("switch", p, postselect_outcome=outcome)


def path_config(p: float, amplitudes: Optional[AmplitudeVectors] = None, outcome: str = "plus") -> ControlConfig:
    return ControlConfig("path", p, amplitudes, outcome)


# Control measurement outcomes and their kets; the closed forms describe
# CLOSED_FORM_OUTCOME only.
OUTCOMES = {"plus": KET_PLUS, "minus": KET_MINUS}
CLOSED_FORM_OUTCOME = "plus"

ConfigLike = Union[str, ControlConfig]


def _on_control_diagonal(block0: np.ndarray, block1: np.ndarray) -> np.ndarray:
    """Stack of block0 (x) |0><0| + block1 (x) |1><1| over two (..., k, l, d, d)
    stacks, pair (i, j) as operator i * l + j.

    The blocks fill a (..., d, 2, d, 2) array, so the flattened joint index is
    system-major, the order ``kron`` and ``project_control`` use.
    """
    *lead, k, l, d, _ = block0.shape
    joint = np.zeros(block0.shape[:-2] + (d, 2, d, 2), dtype=complex)
    joint[..., 0, :, 0] = block0
    joint[..., 1, :, 1] = block1
    return joint.reshape(*lead, k * l, 2 * d, 2 * d)


def switch_kraus(e: KrausChannel, f: KrausChannel) -> KrausChannel:
    """Order-superposition supermap S_ij = E_i F_j (x) |0><0| + F_j E_i (x) |1><1|.

    Operator i * len(F) + j of the result is S_ij, per pair of stacked sets.
    """
    if e.dim != f.dim:
        raise ValueError(f"dimension mismatch: {e.dim} vs {f.dim}")
    ei, fj = e.ops[..., None, :, :], f.ops[..., None, :, :, :]
    return KrausChannel(_on_control_diagonal(ei @ fj, fj @ ei))


def path_kraus(e: KrausChannel, f: KrausChannel, amps: AmplitudeVectors) -> KrausChannel:
    """Channel-choice supermap N_ij = alpha_j E_i (x) |0><0| + beta_i F_j (x) |1><1|.

    Operator i * len(F) + j of the result is N_ij, per pair of stacked sets.
    """
    if e.dim != f.dim:
        raise ValueError(f"dimension mismatch: {e.dim} vs {f.dim}")
    k, l = e.ops.shape[-3], f.ops.shape[-3]
    if len(amps.beta) != k:
        raise ValueError(f"beta length {len(amps.beta)} must match first channel's {k} operators")
    if len(amps.alpha) != l:
        raise ValueError(f"alpha length {len(amps.alpha)} must match second channel's {l} operators")
    alpha = np.array(amps.alpha)[None, :, None, None]
    beta = np.array(amps.beta)[:, None, None, None]
    return KrausChannel(_on_control_diagonal(alpha * e.ops[..., None, :, :], beta * f.ops[..., None, :, :, :]))


def build_supermap(config: ControlConfig, t) -> KrausChannel:
    """Joint Kraus set for two copies of the lossy channel at time t, or their
    stack over an array of times, time axes first.  The last result for a
    scalar t is kept and returned again for an equal config and t, so the
    probes of one query share one build; its operators are read-only."""
    if isinstance(t, float) or np.ndim(t) == 0:
        return _joint_kraus(config, float(t))
    return _scaled_template(config, t)


@lru_cache(maxsize=1)
def _joint_kraus(config: ControlConfig, t: float) -> KrausChannel:
    return KrausChannel(_read_only(_scaled_template(config, t).ops))


@lru_cache(maxsize=8)
def _template(mode: str, amplitudes: Optional[AmplitudeVectors]) -> np.ndarray:
    """The mode's builder applied to the lossy channel's unweighted operators
    ``_PHI_TEMPLATES``, as read-only float parts indexed
    [i, j, system, control, system', control', real/imaginary]."""
    k, d = _PHI_TEMPLATES.shape[-3:-1]
    ops = SUPERMAPS[mode].kraus(KrausChannel(_PHI_TEMPLATES), amplitudes).ops
    return _read_only(ops).view(float).reshape(k, k, d, 2, d, 2, 2)


def _scaled_template(config: ControlConfig, t) -> KrausChannel:
    """The joint Kraus set at t from the cached template: the channel's
    operators are the templates times real weights, so each joint operator's
    control blocks are the template's times the mode's block weights.  The
    real and imaginary parts are scaled apart, as a complex weight would turn
    a template's (0, -0) into (0, +0); so the result equals the builder on
    ``phi_t_kraus(t)`` bit for bit, up to the sign of a zero where a weight
    is 0."""
    w = _phi_weights(t)
    blocks = np.empty(w.shape[:-1] + (w.shape[-1], w.shape[-1], 2))  # [..., i, j, control]
    blocks[..., 0], blocks[..., 1] = SUPERMAPS[config.mode].block_weights(w[..., :, None], w[..., None, :])
    # [..., i, j, system, control, system', control', part]
    parts = _template(config.mode, config.amplitudes) * blocks[..., None, :, None, None, None]
    k, l, d = parts.shape[-7], parts.shape[-6], parts.shape[-5]
    return KrausChannel(parts.reshape(parts.shape[:-7] + (k * l, 2 * d, 4 * d)).view(complex))


def controlled_output(config: ControlConfig, rho0: np.ndarray, t):
    """Post-selected output state and outcome probability at time t, or their
    stacks over an array of times and a broadcasting stack of states.

    Applies the configured supermap to rho0 (x) omega, projects the control
    on the configured outcome and renormalizes.  Propagates
    PostSelectionImpossibleError when an outcome probability vanishes.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    for state in rho0.reshape((-1,) + rho0.shape[-2:]) if rho0.ndim > 2 else (rho0,):
        check_density_operator(state)
    joint_channel = build_supermap(config, t)
    half_p = config.p / 2
    joint_state = kron(rho0, np.array([0.5, half_p, half_p, 0.5], dtype=complex).reshape(2, 2))
    evolved = apply(joint_channel, joint_state)
    block, prob = project_control(evolved, OUTCOMES[config.postselect_outcome], t)
    return block / (prob if isinstance(prob, float) else prob[..., None, None]), prob


def _path_row(p, u, v):
    pv, n_xy = p * v, 2.0 * (1.0 + u)
    return 4.0 + pv, n_xy + pv, n_xy - pv, 4.0 * u - pv


def _switch_row(p, u, v):
    # n_z in this factored form: expanded, it loses digits near its root at
    # small a, or cancels to nothing at p = 0 once u is tiny
    n_xy = (1.0 + 2.0 * p) * (1.0 + u * u) + 2.0 * u
    return 4.0 + 3.0 * p + p * u * (1.0 + v), n_xy, n_xy, 4.0 * u * u - p * (1.0 + u) * (1.0 - 3.0 * u)


# Bloch multipliers of each configuration, plus outcome and default path
# amplitudes: the output for an input with Bloch vector r is
# (I + sum_j lambda_j r_j sigma_j) / 2, with lambda_j = n_j / Delta.  Each
# row gives (Delta, n_x, n_y, n_z) as functions of p, u = e^{-2t} and
# v = 1 - u = -expm1(-2t), so every entry stays finite and accurate at all
# t >= 0; each row is analytic in (u, v); the bare channel ignores p.
BLOCH_ROWS = {
    "bare": lambda p, u, v: (2.0, 1.0 + u, 1.0 + u, 2.0 * u),
    "path": _path_row,
    "switch": _switch_row,
}


def _mode_and_p(config: ConfigLike) -> Tuple[str, float, str]:
    """Row key, control parameter and report label of a configuration with a
    closed form: a row without a supermap, by name, at p = 0, which keeps p
    out of its scale; or a ControlConfig with the plus outcome and, for
    path, the default amplitudes."""
    if isinstance(config, str):
        if config not in BLOCH_ROWS or config in SUPERMAPS:
            raise ValueError(f"string config must be 'bare', got {config!r}")
        return config, 0.0, config
    if not isinstance(config, ControlConfig):
        raise TypeError("config must be 'bare' or a ControlConfig")
    if config.postselect_outcome != CLOSED_FORM_OUTCOME:
        raise ValueError(f"the closed forms cover the {CLOSED_FORM_OUTCOME} outcome only")
    # the path closed forms hold for the default amplitudes only
    if config.amplitudes != SUPERMAPS[config.mode].amplitudes:
        raise ValueError("the closed forms cover the default path amplitudes only")
    return config.mode, config.p, f"{config.mode}(p={config.p:g})"


def closed_form_output(config: ConfigLike, rho0: np.ndarray, t) -> np.ndarray:
    """Output state at time t >= 0 of a configuration ('bare' or
    ControlConfig) from its Bloch row; equals ``controlled_output`` for a
    supermap and the Kraus channel for 'bare', over stacks too.  The row's
    entry map takes any 2x2 input sigma, with l+- = (l_x +- l_y) / 2:

        [ tr/2 + l_z (s11 - s22)/2    l+ s12 + l- s21 ]
        [ l+ s21 + l- s12             tr/2 - l_z (s11 - s22)/2 ]
    """
    mode, p, _ = _mode_and_p(config)
    u, v = _decay(t)
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape[-2:] != (2, 2):
        raise ValueError("closed-form outputs expect a qubit state")
    # [()] makes one state's entries numpy scalars, whose arithmetic is fast
    s11, s12, s21, s22 = rho0[..., 0, 0][()], rho0[..., 0, 1][()], rho0[..., 1, 0][()], rho0[..., 1, 1][()]
    delta, n_x, n_y, n_z = BLOCH_ROWS[mode](p, u, v)
    half_trace, half_z = 0.5 * (s11 + s22), 0.5 * n_z / delta * (s11 - s22)
    plus, minus = 0.5 * (n_x + n_y) / delta, 0.5 * (n_x - n_y) / delta
    out = np.empty(np.shape(half_z) + (2, 2), dtype=complex)  # half_z reads state and row: the stack's shape
    out[..., 0, 0], out[..., 0, 1] = half_trace + half_z, plus * s12 + minus * s21
    out[..., 1, 0], out[..., 1, 1] = plus * s21 + minus * s12, half_trace - half_z
    return out


class _Supermap(NamedTuple):
    kraus: Callable  # (phi, amplitudes) -> joint Kraus set over two copies of phi
    amplitudes: Optional[AmplitudeVectors]  # what a config takes by default
    # (w_i, w_j) -> the real factors of operator (i, j)'s control-0 and
    # control-1 blocks when the copies' operators are w_i T_i and w_j T_j
    block_weights: Callable


_R = 1.0 / np.sqrt(2.0)
# Each supermap stated once.  The entries look the builders up as module
# globals at call time, so a wrapper installed on this module sees every call.
# The path default puts equal weight on the two exchange operators and none on
# the identity one; frozen and built from tuples, it is one instance for all.
SUPERMAPS = {
    # alpha_j E_i on control 0 and beta_i F_j on control 1
    "path": _Supermap(
        lambda phi, amps: path_kraus(phi, phi, amps),
        AmplitudeVectors(alpha=(_R, _R, 0.0), beta=(_R, _R, 0.0)),
        lambda w_i, w_j: (w_i, w_j),
    ),
    # E_i F_j on control 0 and F_j E_i on control 1
    "switch": _Supermap(lambda phi, amps: switch_kraus(phi, phi), None, lambda w_i, w_j: (w_i * w_j,) * 2),
}
