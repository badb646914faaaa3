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
default amplitudes, the plus-outcome output admits closed forms, implemented
here alongside the direct supermap route so that each can check the other.
"""

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from ._cache import content_cache
from .channel import KrausChannel, apply, phi_t_kraus
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


_R = 1.0 / np.sqrt(2.0)
# frozen and built from tuples, so one instance serves every caller
_DEFAULT_AMPLITUDES = AmplitudeVectors(alpha=(_R, _R, 0.0), beta=(_R, _R, 0.0))


def default_amplitudes() -> AmplitudeVectors:
    """Equal weight on the two exchange operators, none on the identity one;
    the same instance on every call."""
    return _DEFAULT_AMPLITUDES


@dataclass(frozen=True)
class ControlState:
    """Control qubit omega = p |+><+| + (1 - p) I/2 with p in [0, 1]."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"control purity parameter p must be in [0, 1], got {self.p}")

    def density(self) -> np.ndarray:
        """omega as a 2x2 array, built on the first call and read-only, since
        every later call returns the same array."""
        return self._density

    @functools.cached_property
    def _density(self) -> np.ndarray:
        omega = 0.5 * np.array([[1.0, self.p], [self.p, 1.0]], dtype=complex)
        omega.flags.writeable = False
        return omega


@dataclass(frozen=True)
class ControlConfig:
    """Which supermap to build and how to post-select the control."""

    mode: str
    control: ControlState
    amplitudes: Optional[AmplitudeVectors] = None
    postselect_outcome: str = "plus"

    def __post_init__(self):
        if self.mode not in SUPERMAPS:
            raise ValueError(f"mode must be one of {list(SUPERMAPS)}, got {self.mode!r}")
        takes_amplitudes = SUPERMAPS[self.mode].takes_amplitudes
        if takes_amplitudes != (self.amplitudes is not None):
            need = "requires" if takes_amplitudes else "takes no"
            raise ValueError(f"{self.mode} mode {need} amplitude vectors")
        if self.postselect_outcome not in OUTCOMES:
            raise ValueError(f"postselect_outcome must be one of {list(OUTCOMES)}")


def switch_config(p: float, outcome: str = "plus") -> ControlConfig:
    return ControlConfig(mode="switch", control=ControlState(p), postselect_outcome=outcome)


def path_config(
    p: float,
    amplitudes: Optional[AmplitudeVectors] = None,
    outcome: str = "plus",
) -> ControlConfig:
    if amplitudes is None:
        amplitudes = default_amplitudes()
    return ControlConfig(
        mode="path", control=ControlState(p), amplitudes=amplitudes, postselect_outcome=outcome
    )


# Control measurement outcomes and their kets; the closed forms describe
# CLOSED_FORM_OUTCOME only.
OUTCOMES = {"plus": KET_PLUS, "minus": KET_MINUS}
CLOSED_FORM_OUTCOME = "plus"


def outcome_vector(outcome: str) -> np.ndarray:
    if outcome not in OUTCOMES:
        raise ValueError(f"unknown outcome {outcome!r}")
    return OUTCOMES[outcome]


def _on_control_diagonal(block0: np.ndarray, block1: np.ndarray) -> np.ndarray:
    """Stack of block0 (x) |0><0| + block1 (x) |1><1| over two (..., d, d) stacks.

    The blocks fill a (..., d, 2, d, 2) array, so the flattened joint index is
    system-major, the order ``kron`` and ``project_control`` use.
    """
    d = block0.shape[-1]
    joint = np.zeros(block0.shape[:-2] + (d, 2, d, 2), dtype=complex)
    joint[..., 0, :, 0] = block0
    joint[..., 1, :, 1] = block1
    return joint.reshape(-1, 2 * d, 2 * d)


def switch_kraus(e: KrausChannel, f: KrausChannel) -> KrausChannel:
    """Order-superposition supermap S_ij = E_i F_j (x) |0><0| + F_j E_i (x) |1><1|.

    Operator i * len(f.ops) + j of the result is S_ij.
    """
    if e.dim != f.dim:
        raise ValueError(f"dimension mismatch: {e.dim} vs {f.dim}")
    ei, fj = e.ops[:, None], f.ops[None, :]
    ops = _on_control_diagonal(ei @ fj, fj @ ei)
    return KrausChannel(ops, label=f"switch({e.label},{f.label})")


def path_kraus(e: KrausChannel, f: KrausChannel, amps: AmplitudeVectors) -> KrausChannel:
    """Channel-choice supermap N_ij = alpha_j E_i (x) |0><0| + beta_i F_j (x) |1><1|.

    Operator i * len(f.ops) + j of the result is N_ij.
    """
    if e.dim != f.dim:
        raise ValueError(f"dimension mismatch: {e.dim} vs {f.dim}")
    if len(amps.beta) != len(e.ops):
        raise ValueError(
            f"beta length {len(amps.beta)} must match first channel's {len(e.ops)} operators"
        )
    if len(amps.alpha) != len(f.ops):
        raise ValueError(
            f"alpha length {len(amps.alpha)} must match second channel's {len(f.ops)} operators"
        )
    alpha = np.array(amps.alpha)[None, :, None, None]
    beta = np.array(amps.beta)[:, None, None, None]
    ops = _on_control_diagonal(alpha * e.ops[:, None], beta * f.ops[None, :])
    return KrausChannel(ops, label=f"path({e.label},{f.label})")


# (config, t, channel) of the last build_supermap call
_last_supermap = None


def build_supermap(config: ControlConfig, t: float) -> KrausChannel:
    """Joint Kraus set for two copies of the lossy channel at time t.

    The last result is kept and returned again for the same config object
    (``is``) and an equal t, so the probes of one query share one build; its
    operators are read-only.  Any other config, equal or not, is built.
    """
    global _last_supermap
    last = _last_supermap
    if last is not None and last[0] is config and last[1] == t:
        return last[2]
    channel = SUPERMAPS[config.mode].kraus(phi_t_kraus(t), config.amplitudes)
    channel.ops.flags.writeable = False
    _last_supermap = (config, float(t), channel)
    return channel


def controlled_output(config: ControlConfig, rho0: np.ndarray, t: float):
    """Post-selected output state and outcome probability at time t.

    Applies the configured supermap to rho0 (x) omega, projects the control
    on the configured outcome and renormalizes.  Propagates
    PostSelectionImpossibleError when the outcome probability vanishes.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    check_density_operator(rho0)
    if rho0.shape != (2, 2):
        raise ValueError("controlled_output expects a qubit state")
    joint_channel = build_supermap(config, t)
    joint_state = kron(rho0, config.control.density())
    evolved = apply(joint_channel, joint_state)
    block, prob = project_control(evolved, outcome_vector(config.postselect_outcome))
    return block / prob, prob


# distinct time arrays whose decay pair is kept: detection's real and
# complex-step grids, with room for a few other grids
DECAY_CACHE_SIZE = 8


@content_cache(DECAY_CACHE_SIZE)
def _decay(t):
    """u = e^{-2t} and 1 - u = -expm1(-2t): both in [0, 1] for every t >= 0,
    the second exact at small t.  t may be complex.  Kept for the last
    DECAY_CACHE_SIZE time arrays by content, so the arrays are read-only."""
    s = -2.0 * t
    return np.exp(s), -np.expm1(s)


def path_coefficients(t, p: float):
    """Closed-form weights (A, B) of the plus-outcome path output.

    With u = exp(-2t) and Delta = (4 + p) - p u = 4 + p (1 - u):

        A(t) = 2 (1 + u) / Delta
        B(t) = (1 - u) / Delta

    These are the x = e^{2t} forms with numerator and denominator divided
    by x, so they stay finite at every t >= 0.  Unit trace of the output
    forces A + (2 + p) B = 1, which pins both coefficients to the same
    denominator.  Vectorized over t.
    """
    u, v = _decay(t)
    den = 4.0 + p * v
    return 2.0 * (1.0 + u) / den, v / den


def switch_coefficients(t, p: float):
    """Closed-form weights (A, B, C) of the plus-outcome switch output.

    With u = exp(-2t) and common denominator
    (4 + 3p) + 2 p u - p u^2 = 4 + 3p + p u (2 - u):

        A = ((2 + p) + 2 p u + (p + 2) u^2) / den
        B = 2 (1 + p) (1 - u^2) / den
        C = ((1 + 2p) + 2 u + (2p + 1) u^2) / den

    These are the x = e^{2t} forms divided through by x^2.  A + B = 1; C
    weights the coherences.  Vectorized over t.
    """
    u, v = _decay(t)
    den = 4.0 + 3.0 * p + p * u * (1.0 + v)
    a = ((2.0 + p) * (1.0 + u * u) + 2.0 * p * u) / den
    b = 2.0 * (1.0 + p) * v * (1.0 + u) / den
    c = ((1.0 + 2.0 * p) * (1.0 + u * u) + 2.0 * u) / den
    return a, b, c


def _closed_form_input(rho0: np.ndarray, t: float, p: float):
    """Entries s11, s12, s21, s22 of a qubit input, after checking p and t."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if not t >= 0:
        raise ValueError(f"time must be non-negative, got {t}")
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (2, 2):
        raise ValueError("closed-form outputs expect a qubit state")
    return rho0[0, 0], rho0[0, 1], rho0[1, 0], rho0[1, 1]


def analytic_state_path(rho0: np.ndarray, t: float, p: float) -> np.ndarray:
    """Closed-form plus-outcome path output; equals the supermap route.

    Entry map for input sigma:

        [ s11 A + (2+p) s22 B    s12 A + p s21 B ]
        [ p s12 B + s21 A        (2+p) s11 B + s22 A ]
    """
    s11, s12, s21, s22 = _closed_form_input(rho0, t, p)
    a_w, b_w = path_coefficients(t, p)
    return np.array(
        [
            [s11 * a_w + (2.0 + p) * s22 * b_w, s12 * a_w + p * s21 * b_w],
            [p * s12 * b_w + s21 * a_w, (2.0 + p) * s11 * b_w + s22 * a_w],
        ],
        dtype=complex,
    )


def analytic_state_switch(rho0: np.ndarray, t: float, p: float) -> np.ndarray:
    """Closed-form plus-outcome switch output; equals the supermap route.

    Entry map for input sigma:

        [ s11 A + s22 B    s12 C ]
        [ s21 C            s11 B + s22 A ]
    """
    s11, s12, s21, s22 = _closed_form_input(rho0, t, p)
    a_w, b_w, c_w = switch_coefficients(t, p)
    return np.array(
        [
            [s11 * a_w + s22 * b_w, s12 * c_w],
            [s21 * c_w, s11 * b_w + s22 * a_w],
        ],
        dtype=complex,
    )


class _Supermap(NamedTuple):
    kraus: Callable  # (phi, amplitudes) -> joint Kraus set over two copies of phi
    takes_amplitudes: bool
    closed_form: Callable  # (rho0, t, p) -> output state for CLOSED_FORM_OUTCOME
    config: Callable  # (p, outcome) -> ControlConfig, default amplitudes

# Each supermap stated once.  The entries look the builders and closed forms
# up as module globals at call time, so a wrapper installed on this module
# sees every call.
SUPERMAPS = {
    "path": _Supermap(lambda phi, amps: path_kraus(phi, phi, amps), True,
                      lambda rho0, t, p: analytic_state_path(rho0, t, p),
                      lambda p, outcome: path_config(p, outcome=outcome)),
    "switch": _Supermap(lambda phi, amps: switch_kraus(phi, phi), False,
                        lambda rho0, t, p: analytic_state_switch(rho0, t, p),
                        lambda p, outcome: switch_config(p, outcome=outcome)),
}
