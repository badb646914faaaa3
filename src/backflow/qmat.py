"""Dense complex-matrix helpers for qubits.

States and operators are plain ``numpy`` arrays with ``complex128`` entries.
Every state the package evolves or compares is a qubit, so the density check
and the trace distance take 2x2 matrices only, in closed form; only ``kron``
and ``project_control`` meet the 4x4 system (x) control space.  Tensor
products put the system factor first, so a joint index reads ``row =
system_index * dim_control + control_index``, as everywhere in the package.
"""

import cmath
import math

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
POSTSELECT_FLOOR = 1e-12

I2 = np.eye(2, dtype=complex)

KET_0 = np.array([1.0, 0.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
KET_MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)


class PostSelectionImpossibleError(ValueError):
    """Raised when a post-selection outcome has (numerically) zero probability."""


def _unstack(x):
    """A numpy result with no stack axes as a Python float, else the array."""
    return x if x.ndim else float(x)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, batch-friendly over leading axes."""
    return m.swapaxes(-1, -2).conj()


def pure_state(amplitudes) -> np.ndarray:
    """Density matrix |psi><psi| of a normalized amplitude vector."""
    psi = np.asarray(amplitudes, dtype=complex)
    if psi.ndim != 1:
        raise ValueError(f"pure_state expects an amplitude vector, got shape {psi.shape}")
    norm = _norm(psi)
    if not abs(norm - 1.0) <= 1e-10:
        raise ValueError(f"state vector not normalized: |psi| = {norm}")
    # np.outer's column-times-row product, bit for bit, without its ravels
    return psi[:, None] * psi.conj()[None, :]


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a complex vector."""
    return math.sqrt(np.vdot(v, v).real)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor major (system (x) control), per pair of stacked matrices.

    One broadcast outer product: each entry is the single product a[i, j] *
    b[k, l], as in ``np.kron``, without its general-rank machinery.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != a.shape[-2] or b.shape[-1] != b.shape[-2]:
        raise ValueError("kron expects two square matrices")
    product = a[..., None, :, None] * b[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (a.shape[-1] * b.shape[-1],) * 2)


# A 2x2 matrix [[a, b], [c, d]] is read as Python complex numbers: for a
# Hermitian one, the eigenvalues are (a + d)/2 -+ hypot((a - d)/2, |c|),
# with no LAPACK call.

def _entries(m, name: str) -> list:
    """Entries [a, b, c, d] of a 2x2 [[a, b], [c, d]] as Python complex
    numbers; ValueError naming the caller for any other shape."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"{name} expects a 2x2 matrix, got shape {m.shape}")
    return m.ravel().tolist()


def _qubit_residual(a: complex, b: complex, c: complex, d: complex) -> float:
    """max |M - M^dagger| from the entries numpy would form: the diagonal
    ones carry a NaN or inf real part as NaN, and entry (1, 0) has the size
    of entry (0, 1)."""
    res = [math.hypot(x.real - y.real, x.imag + y.imag) for x, y in ((a, a), (b, c), (d, d))]
    # a NaN entry makes numpy's max NaN; the sum of these non-negative values carries it
    return math.nan if math.isnan(sum(res)) else max(res)


def _qubit_eigvalsh(a: complex, c: complex, d: complex):
    """Ascending eigenvalues of a Hermitian 2x2 matrix from its lower
    triangle, as ``np.linalg.eigvalsh`` reads it: the real diagonal a, d and
    the entry c below it."""
    mean, radius = 0.5 * (a.real + d.real), math.hypot(0.5 * (a.real - d.real), c.real, c.imag)
    return mean - radius, mean + radius


def check_density_operator(rho: np.ndarray) -> None:
    """Validate a 2x2 for Hermiticity, unit trace and positive
    semidefiniteness to the module tolerances; raises ValueError naming the
    first violated invariant.  A NaN entry fails the checks."""
    a, b, c, d = _entries(rho, "check_density_operator")
    res, tr = _qubit_residual(a, b, c, d), a + d
    if not res <= HERMITICITY_TOL:
        raise ValueError(f"density operator not Hermitian (residual {res:.3e})")
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise ValueError(f"density operator trace is {tr}, expected 1")
    lam_min = _qubit_eigvalsh(a, c, d)[0]
    if not lam_min >= -PSD_TOL:
        raise ValueError(f"density operator has negative eigenvalue {lam_min:.3e}")


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Trace distance (1/2) ||rho1 - rho2||_1 of two 2x2 density operators.

    Their difference is Hermitian and traceless, so the trace norm is the
    sum of the absolute eigenvalues of its Hermitian part.
    """
    # the entries of rho1 - rho2, each difference rounded as numpy rounds it
    a, b, c, d = (x - y for x, y in zip(_entries(rho1, "trace_distance"), _entries(rho2, "trace_distance")))
    res = _qubit_residual(a, b, c, d)
    if not res <= 1e-10:
        raise ValueError(f"difference is not Hermitian (residual {res:.3e})")
    # the Hermitian part (diff + diff^dagger) / 2 keeps the real diagonal
    low, high = _qubit_eigvalsh(a, 0.5 * (c + b.conjugate()), d)
    return 0.5 * (abs(low) + abs(high))


def project_control(joint: np.ndarray, control_vec: np.ndarray, times=None):
    """Partial inner product <v| joint |v> over the control factor.

    ``joint`` is a 4x4 operator on system (x) control (system-major index),
    or a stack; ``control_vec`` is a normalized 2-vector.  Returns the
    unnormalized 2x2 system block and its trace, which is the outcome
    probability.  Raises PostSelectionImpossibleError when that probability
    falls below the post-selection floor (over a stack, naming the first
    entry's time in ``times`` when given); the block must not be normalized
    in that case.
    Raises ValueError when an entry of the block is not finite, which a NaN
    off the system diagonal would otherwise carry past the trace.
    """
    joint = np.asarray(joint, dtype=complex)
    if joint.shape[-2:] != (4, 4):
        raise ValueError("project_control expects a 4x4 joint operator")
    v = np.asarray(control_vec, dtype=complex)
    if v.shape != (2,):
        raise ValueError("control_vec must be a 2-vector")
    if not abs(_norm(v) - 1.0) <= 1e-10:
        raise ValueError("control_vec must be normalized")
    # indices (s1, c1, s2, c2): contract c2 with v, then c1 with v*
    block = v.conj() @ (joint.reshape(joint.shape[:-2] + (2, 2, 2, 2)) @ v)
    prob = (block[..., 0, 0][()] + block[..., 1, 1][()]).real  # [()]: numpy scalars for one block
    ok = prob >= POSTSELECT_FLOOR
    if not (ok if ok.ndim == 0 else ok.all()):  # a numpy bool tests faster as itself
        # the first failing entry, and over several their count, after its time when times are given
        at = f" ({(~ok).sum()} of {ok.size} times)" if ok.size > 1 else ""
        if at and times is not None:
            at = f" at t = {np.broadcast_to(times, ok.shape)[~ok][0]}{at}"
        raise PostSelectionImpossibleError(f"post-selection impossible: outcome probability {np.asarray(prob)[~ok][0]:.3e}{at}")
    if not all(map(cmath.isfinite, block.ravel().tolist())):
        raise ValueError("projected control block is not finite")
    return block, _unstack(prob)
