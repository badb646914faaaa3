"""Dense complex-matrix helpers for small quantum systems.

States and operators are plain square ``numpy`` arrays with ``complex128``
entries.  Tensor products always put the system factor first and the control
factor second, so a joint index reads ``row = system_index * dim_control +
control_index``.  That single convention is relied on everywhere else in the
package.
"""

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
    return np.outer(psi, psi.conj())


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
    """Max-entry deviation from Hermiticity, max |M - M^dagger|."""
    return float(np.abs(m - dagger(m)).max())


def eig_hermitian(m: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, descending.

    Raises ValueError if the input deviates from Hermiticity by more than
    ``tol`` in any entry.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("eig_hermitian expects a square matrix")
    res = hermiticity_residual(m)
    if not res <= tol:
        raise ValueError(f"matrix is not Hermitian (residual {res:.3e} > {tol:.1e})")
    return np.linalg.eigvalsh(m)[::-1]


def check_density_operator(rho: np.ndarray) -> None:
    """Validate Hermiticity, unit trace and positive semidefiniteness to the
    module tolerances; raises ValueError naming the first violated invariant.
    A NaN entry fails the checks."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density operator must be a square matrix")
    res = hermiticity_residual(rho)
    if not res <= HERMITICITY_TOL:
        raise ValueError(f"density operator not Hermitian (residual {res:.3e})")
    tr = rho.trace()
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise ValueError(f"density operator trace is {tr}, expected 1")
    lam_min = float(np.linalg.eigvalsh(rho).min())
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
    evals = np.linalg.eigvalsh(0.5 * (diff + dagger(diff)))
    return float(0.5 * np.abs(evals).sum())


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
    prob = float(block.trace().real)
    if not prob >= POSTSELECT_FLOOR:
        raise PostSelectionImpossibleError(
            f"post-selection impossible: outcome probability {prob:.3e}"
        )
    if not np.isfinite(block).all():
        raise ValueError("projected control block is not finite")
    return block, prob
