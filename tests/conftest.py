import numpy as np
import pytest

# the Paulis and |1>, which only the tests need
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
KET_1 = np.array([0.0, 1.0], dtype=complex)


def random_density(rng, dim=2):
    """Random full-rank density matrix via a Ginibre factor."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure(rng, dim=2):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def reference_residual(m):
    return float(np.abs(m - m.conj().T).max())


def reference_trace_distance(rho1, rho2):
    """Trace distance through np.linalg.eigvalsh at every size (reference):
    the package's trace_distance takes qubits only."""
    diff = np.asarray(rho1, dtype=complex) - np.asarray(rho2, dtype=complex)
    res = reference_residual(diff)
    if not res <= 1e-10:
        raise ValueError(f"difference is not Hermitian (residual {res:.3e})")
    return float(0.5 * np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))).sum())


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pure_control_parts(mode, a, t, m=np):
    """The paper's p = 1 prefactor and bracket of dD/dt, whose product is the
    derivative: the path form in x = e^{2t}, the switch form hyperbolic.
    ``m`` is numpy for numbers, or sympy for symbols.

    path:   prefactor = 16 sqrt(1-a^2) x / ((5x-1)^2 sqrt(8a^2(x^2+2x-3) + (x-5)^2))
            bracket   = 14a^2 - 15 - 3(2a^2 - 1) x
    switch: prefactor = 32 sqrt(2) sqrt(1-a^2) e^{4t} (cosh 2t + 3)
                        / ((2e^{2t} + 7e^{4t} - 1)^2 sqrt(U))
            U = 16a^2 - 5 + 12 cosh 2t - 16(1-a^2) sinh 2t
                - (16a^2 - 25) cosh 4t - 24(1-a^2) sinh 4t
            bracket   = 8(1-a^2) sinh 2t - (2-a^2)(3 cosh 2t + 1)

    In double precision both overflow at large t, from about t = 71 for the
    switch and t = 118 for the path; the package's forms in u = e^{-2t} do
    not.
    """
    x, b2 = m.exp(2 * t), 1 - a**2
    if mode == "path":
        q = 8 * a**2 * (x**2 + 2 * x - 3) + (x - 5) ** 2
        return 16 * m.sqrt(b2) * x / ((5 * x - 1) ** 2 * m.sqrt(q)), 14 * a**2 - 15 - 3 * (2 * a**2 - 1) * x
    ch2, sh2, ch4, sh4 = m.cosh(2 * t), m.sinh(2 * t), m.cosh(4 * t), m.sinh(4 * t)
    big_u = 16 * a**2 - 5 + 12 * ch2 - 16 * b2 * sh2 - (16 * a**2 - 25) * ch4 - 24 * b2 * sh4
    prefactor = 32 * m.sqrt(2) * m.sqrt(b2) * x**2 * (ch2 + 3) / ((2 * x + 7 * x**2 - 1) ** 2 * m.sqrt(big_u))
    return prefactor, 8 * b2 * sh2 - (2 - a**2) * (3 * ch2 + 1)
