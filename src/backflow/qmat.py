"""Dense complex-matrix helpers for small quantum systems.

States and operators are plain square ``numpy`` arrays with ``complex128``
entries.  Tensor products always put the system factor first and the control
factor second, so a joint index reads ``row = system_index * dim_control +
control_index``.  That single convention is relied on everywhere else in the
package.
"""

import cmath
import math

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
POSTSELECT_FLOOR = 1e-12

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

KET_0 = np.array([1.0, 0.0], dtype=complex)
KET_1 = np.array([0.0, 1.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
KET_MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)


class PostSelectionImpossibleError(ValueError):
    """Raised when a post-selection outcome has (numerically) zero probability."""


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, batch-friendly over leading axes."""
    return m.swapaxes(-1, -2).conj()


def pure_state(amplitudes) -> np.ndarray:
    """Density matrix |psi><psi| of a normalized amplitude vector."""
    psi = np.asarray(amplitudes, dtype=complex)
    norm = _norm(psi)
    if not abs(norm - 1.0) <= 1e-10:
        raise ValueError(f"state vector not normalized: |psi| = {norm}")
    # np.outer's column-times-row product, bit for bit, without its ravels
    return psi[:, None] * psi.conj()[None, :]


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a complex vector."""
    return np.sqrt(np.vdot(v, v).real)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor major (system (x) control).

    One broadcast outer product: each entry is the single product a[i, j] *
    b[k, l], as in ``np.kron``, without its general-rank machinery.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise ValueError("kron expects two square matrices")
    n = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)


def hermiticity_residual(m: np.ndarray) -> float:
    """Max-entry deviation from Hermiticity, max |M - M^dagger|; NaN when an
    entry of M - M^dagger is NaN.  A 2x2 takes the qubit closed form."""
    if m.shape == (2, 2):
        (a, b), (c, d) = m.tolist()
        return _qubit_residual(a, b, c, d)
    return float(np.abs(m - dagger(m)).max())


# A 2x2 matrix [[a, b], [c, d]] is read as Python complex numbers: for a
# Hermitian one, the eigenvalues are (a + d)/2 -+ hypot((a - d)/2, |c|),
# with no LAPACK call.

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
    """Validate Hermiticity, unit trace and positive semidefiniteness to the
    module tolerances; raises ValueError naming the first violated invariant.
    A NaN entry fails the checks."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density operator must be a square matrix")
    # the ascending spectrum is taken only once the matrix is known Hermitian
    if rho.shape == (2, 2):
        (a, b), (c, d) = rho.tolist()
        res, tr, spectrum = _qubit_residual(a, b, c, d), a + d, lambda: _qubit_eigvalsh(a, c, d)
    else:
        res, tr, spectrum = hermiticity_residual(rho), rho.trace(), lambda: np.linalg.eigvalsh(rho)
    if not res <= HERMITICITY_TOL:
        raise ValueError(f"density operator not Hermitian (residual {res:.3e})")
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise ValueError(f"density operator trace is {tr}, expected 1")
    lam_min = float(spectrum()[0])
    if not lam_min >= -PSD_TOL:
        raise ValueError(f"density operator has negative eigenvalue {lam_min:.3e}")


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Trace distance (1/2) ||rho1 - rho2||_1 via the Hermitian eigenvalues.

    The difference of two density operators is Hermitian and traceless, so
    the trace norm is the sum of absolute eigenvalues.
    """
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise ValueError(f"dimension mismatch: {rho1.shape} vs {rho2.shape}")
    diff = rho1 - rho2
    res = hermiticity_residual(diff)
    if not res <= 1e-10:
        raise ValueError(f"difference is not Hermitian (residual {res:.3e})")
    if diff.shape != (2, 2):
        return float(0.5 * np.abs(np.linalg.eigvalsh(0.5 * (diff + dagger(diff)))).sum())
    # the Hermitian part (diff + diff^dagger) / 2 keeps the real diagonal
    (a, b), (c, d) = diff.tolist()
    low, high = _qubit_eigvalsh(a, 0.5 * (c + b.conjugate()), d)
    return 0.5 * (abs(low) + abs(high))


def project_control(joint: np.ndarray, control_vec: np.ndarray):
    """Partial inner product <v| joint |v> over the control factor.

    ``joint`` is a 4x4 operator on system (x) control (system-major index);
    ``control_vec`` is a normalized 2-vector.  Returns the unnormalized 2x2
    system block and its trace, which is the outcome probability.  Raises
    PostSelectionImpossibleError when that probability falls below the
    post-selection floor; the block must not be normalized in that case.
    Raises ValueError when an entry of the block is not finite, which a NaN
    off the system diagonal would otherwise carry past the trace.
    """
    joint = np.asarray(joint, dtype=complex)
    if joint.shape != (4, 4):
        raise ValueError("project_control expects a 4x4 joint operator")
    v = np.asarray(control_vec, dtype=complex)
    if v.shape != (2,):
        raise ValueError("control_vec must be a 2-vector")
    if not abs(_norm(v) - 1.0) <= 1e-10:
        raise ValueError("control_vec must be normalized")
    # indices (s1, c1, s2, c2): contract c2 with v, then c1 with v*
    block = v.conj() @ (joint.reshape(2, 2, 2, 2) @ v)
    entries = block.ravel().tolist()
    prob = (entries[0] + entries[3]).real
    if not prob >= POSTSELECT_FLOOR:
        raise PostSelectionImpossibleError(
            f"post-selection impossible: outcome probability {prob:.3e}"
        )
    if not all(map(cmath.isfinite, entries)):
        raise ValueError("projected control block is not finite")
    return block, prob
