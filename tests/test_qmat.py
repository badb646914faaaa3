import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backflow.qmat import (
    KET_0,
    KET_MINUS,
    KET_PLUS,
    I2,
    PostSelectionImpossibleError,
    _qubit_residual,
    check_density_operator,
    kron,
    project_control,
    pure_state,
    trace_distance,
)
from backflow.channel import KrausChannel, apply, phi_t_kraus
from backflow.control import SUPERMAPS, path_kraus, switch_kraus
from conftest import KET_1, random_density, random_pure, reference_residual, reference_trace_distance


def two_by_two_eigvals(m):
    """Closed-form eigenvalues of a real-symmetric 2x2 matrix (oracle)."""
    mean = 0.5 * (m[0, 0] + m[1, 1]).real
    radius = np.sqrt((0.5 * (m[0, 0] - m[1, 1]).real) ** 2 + abs(m[0, 1]) ** 2)
    return mean + radius, mean - radius


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        assert trace_distance(pure_state(KET_0), pure_state(KET_1)) == pytest.approx(1.0)

    def test_identical_inputs(self, rng):
        rho = random_density(rng)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-15)

    def test_probe_pair_value(self):
        # eigenvalues of the difference, frozen from the 2x2 closed form
        a = 0.65
        b = np.sqrt(1 - a * a)
        psi = pure_state(np.array([a, b]))
        diff = pure_state(KET_0) - psi
        lam_hi, lam_lo = two_by_two_eigvals(diff)
        expected = 0.5 * (abs(lam_hi) + abs(lam_lo))
        assert expected == pytest.approx(b, abs=1e-14)
        assert trace_distance(pure_state(KET_0), psi) == pytest.approx(expected, abs=1e-14)
        assert trace_distance(pure_state(KET_0), psi) == pytest.approx(0.7599342076785331)

    def test_pure_state_overlap_formula(self, rng):
        # D(|u><u|, |v><v|) = sqrt(1 - |<u|v>|^2)
        for _ in range(25):
            u = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            expected = np.sqrt(1.0 - abs(np.vdot(u, v)) ** 2)
            got = trace_distance(np.outer(u, u.conj()), np.outer(v, v.conj()))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        for rho1, rho2 in ((np.eye(2) / 2, np.eye(4) / 4), (np.eye(4) / 4, np.eye(2) / 2)):
            with pytest.raises(ValueError, match=r"trace_distance expects a 2x2 matrix, got shape \(4, 4\)"):
                trace_distance(rho1, rho2)

    def test_non_hermitian_difference(self):
        bad = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="not Hermitian"):
            trace_distance(bad, np.eye(2) / 2)
        # NaN fails every comparison, so it must fail the check too
        with pytest.raises(ValueError, match="not Hermitian"):
            trace_distance(np.full((2, 2), np.nan), np.eye(2) / 2)
        # an upper-triangular difference, and a NaN on the diagonal alone
        zero = np.zeros((2, 2))
        with pytest.raises(ValueError, match="not Hermitian"):
            trace_distance(np.array([[0.0, 1.0], [0.0, 0.0]]), zero)
        with pytest.raises(ValueError, match="not Hermitian"):
            trace_distance(np.diag([np.nan, 0.0]), zero)
        # a larger matrix is refused for its shape before its entries are read
        with pytest.raises(ValueError, match="expects a 2x2 matrix"):
            trace_distance(np.diag([np.nan, 0.0, 0.0]), np.zeros((3, 3)))
        # the residual under both refusals: the entries' exact gap, and NaN
        assert _qubit_residual(0j, 1 + 0j, 0j, 0j) == 1.0
        assert np.isnan(_qubit_residual(complex(np.nan), 0j, 0j, 0j))

    def test_symmetry_and_triangle(self, rng):
        for _ in range(20):
            r1, r2, r3 = (random_density(rng) for _ in range(3))
            d12 = trace_distance(r1, r2)
            assert d12 == pytest.approx(trace_distance(r2, r1), abs=1e-14)
            assert d12 <= trace_distance(r1, r3) + trace_distance(r3, r2) + 1e-12

    def test_range(self, rng):
        for _ in range(20):
            d = trace_distance(random_density(rng), random_density(rng))
            assert 0.0 <= d <= 1.0

    def test_contractive_under_channels(self, rng):
        for t in (0.2, 0.9, 2.5):
            channel = phi_t_kraus(t)
            for _ in range(10):
                r1, r2 = random_density(rng), random_density(rng)
                before = trace_distance(r1, r2)
                after = trace_distance(apply(channel, r1), apply(channel, r2))
                assert after <= before + 1e-10

    def test_contractive_under_joint_channels(self, rng):
        phi = phi_t_kraus(0.8)
        joints = (
            path_kraus(phi, phi, SUPERMAPS["path"].amplitudes),
            switch_kraus(phi, phi),
        )
        for joint in joints:
            for _ in range(10):
                # trace_distance takes qubits only, so the 4x4 distances use the reference
                r1, r2 = random_density(rng, 4), random_density(rng, 4)
                before = reference_trace_distance(r1, r2)
                after = reference_trace_distance(apply(joint, r1), apply(joint, r2))
                assert after <= before + 1e-10

    def test_contractive_under_composed_channel(self, rng):
        inner, outer = phi_t_kraus(1.1), phi_t_kraus(0.5)
        for _ in range(10):
            r1, r2 = random_density(rng), random_density(rng)
            before = trace_distance(r1, r2)
            after = trace_distance(apply(outer, apply(inner, r1)), apply(outer, apply(inner, r2)))
            assert after <= before + 1e-10


class TestPureState:
    def test_rejects_unnormalized_and_nan(self):
        for amplitudes in ([1.0, 1.0], [np.nan, 0.0]):
            with pytest.raises(ValueError, match="not normalized"):
                pure_state(amplitudes)

    @pytest.mark.parametrize("amplitudes, shape", [([[1.0, 0.0]], r"\(1, 2\)"), (1.0, r"\(\)")])
    def test_rejects_what_is_not_a_vector(self, amplitudes, shape):
        with pytest.raises(ValueError, match=r"pure_state expects an amplitude vector, got shape " + shape):
            pure_state(amplitudes)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4))
    def test_equals_outer_bit_for_bit(self, seed, dim):
        psi = random_unit(np.random.default_rng(seed), dim)
        assert pure_state(psi).tobytes() == np.outer(psi, psi.conj()).tobytes()


class TestKron:
    def test_identity_pair(self):
        assert np.array_equal(kron(I2, I2), np.eye(4))

    def test_system_major_ordering(self):
        # system index is the major one: sigma_x (x) |0><0| sits at (0,2),(2,0)
        m = kron(np.array([[0, 1], [1, 0]]), pure_state(KET_0))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 2] = expected[2, 0] = 1.0
        assert np.array_equal(m, expected)

    def test_single_entry(self):
        m = kron(np.outer(KET_0, KET_1.conj()), pure_state(KET_1))
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 3] = 1.0
        assert np.array_equal(m, expected)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            kron(np.ones((2, 3)), I2)

    @pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (2, 4), (4, 2), (3, 2)])
    def test_equals_numpy_kron_bit_for_bit(self, rng, m, n):
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert np.array_equal(kron(a, b), np.kron(a, b))


class TestProjectControl:
    def test_plus_control_passthrough(self, rng):
        rho = random_density(rng)
        joint = kron(rho, pure_state(KET_PLUS))
        block, prob = project_control(joint, KET_PLUS)
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(block, rho, atol=1e-12)

    def test_zero_control_gives_half(self, rng):
        rho = random_density(rng)
        joint = kron(rho, pure_state(KET_0))
        block, prob = project_control(joint, KET_PLUS)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(block, rho / 2, atol=1e-12)

    def test_path_supermap_probability_at_t_zero(self, rng):
        # at t = 0 only the identity operator survives, the amplitude cross
        # terms fully decohere the control, and the plus outcome shows up
        # with probability one half
        rho = random_density(rng)
        joint_channel = path_kraus(phi_t_kraus(0.0), phi_t_kraus(0.0), SUPERMAPS["path"].amplitudes)
        evolved = apply(joint_channel, kron(rho, pure_state(KET_PLUS)))
        block, prob = project_control(evolved, KET_PLUS)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(block / prob, rho, atol=1e-12)

    def test_outcome_probabilities_sum_to_one(self, rng):
        for _ in range(10):
            joint = random_density(rng, 4)
            _, p_plus = project_control(joint, KET_PLUS)
            _, p_minus = project_control(joint, KET_MINUS)
            assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)

    def test_impossible_outcome_raises(self, rng):
        joint = kron(random_density(rng), pure_state(KET_0))
        with pytest.raises(PostSelectionImpossibleError):
            project_control(joint, KET_1)
        with pytest.raises(PostSelectionImpossibleError):
            project_control(np.full((4, 4), np.nan), KET_PLUS)

    def test_rejects_wrong_shapes(self):
        with pytest.raises(ValueError, match="project_control expects a 4x4 joint operator"):
            project_control(np.eye(2) / 2, KET_PLUS)
        with pytest.raises(ValueError, match="control_vec must be a 2-vector"):
            project_control(np.eye(4) / 4, np.array([1.0, 0.0, 0.0]))

    def test_rejects_unnormalized_vector(self):
        with pytest.raises(ValueError, match="normalized"):
            project_control(np.eye(4) / 4, np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="normalized"):
            project_control(np.eye(4) / 4, np.array([np.nan, 0.0]))


class TestDensityCheck:
    def test_accepts_valid(self, rng):
        check_density_operator(random_density(rng))
        check_density_operator(random_pure(rng))

    def test_rejects_trace(self):
        with pytest.raises(ValueError, match="trace"):
            check_density_operator(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            check_density_operator(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.4], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            check_density_operator(m)
        # NaN fails every comparison, so it must fail the check too
        with pytest.raises(ValueError, match="Hermitian"):
            check_density_operator(np.diag([np.nan, np.nan]).astype(complex))


def einsum_apply(ops, rho):
    """sum_k K_k rho K_k^dag as one einsum contraction (reference)."""
    return np.einsum("kij,jl,kml->im", ops, rho, ops.conj())


def einsum_project(joint, v):
    """<v| joint |v> over the control factor as one einsum contraction (reference)."""
    block = np.einsum("i,aibj,j->ab", v.conj(), joint.reshape(2, 2, 2, 2), v)
    return block, float(np.real(np.trace(block)))


def random_kraus(rng, k, d):
    """k complete d x d Kraus operators: the blocks of a random (k d) x d
    isometry from a QR factorization, so sum_i K_i^dag K_i = I."""
    g = rng.normal(size=(k * d, d)) + 1j * rng.normal(size=(k * d, d))
    return np.linalg.qr(g)[0].reshape(k, d, d)


def random_unit(rng, n=2):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.sqrt(np.vdot(v, v).real)


SEEDS = st.integers(0, 2**32 - 1)


class TestMatmulKernels:
    """apply and project_control are matmul contractions; they must equal
    the einsum contractions that define them."""

    @settings(max_examples=80, deadline=None)
    @given(seed=SEEDS, k=st.integers(1, 9), d=st.integers(1, 4))
    def test_apply_matches_einsum(self, seed, k, d):
        rng = np.random.default_rng(seed)
        ops, rho = random_kraus(rng, k, d), random_density(rng, d)
        assert np.abs(apply(KrausChannel(ops), rho) - einsum_apply(ops, rho)).max() <= 1e-15

    @settings(max_examples=80, deadline=None)
    @given(seed=SEEDS, k=st.integers(1, 9))
    def test_project_control_matches_einsum(self, seed, k):
        rng = np.random.default_rng(seed)
        joint = apply(KrausChannel(random_kraus(rng, k, 4)), random_density(rng, 4))
        v = random_unit(rng)
        block, prob = project_control(joint, v)
        ref_block, ref_prob = einsum_project(joint, v)
        assert np.abs(block - ref_block).max() <= 1e-15
        assert abs(prob - ref_prob) <= 1e-15

    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, k=st.integers(1, 9))
    def test_refusals_still_raise(self, seed, k):
        rng = np.random.default_rng(seed)
        ops = random_kraus(rng, k, 2)
        with pytest.raises(ValueError, match="not trace preserving"):
            apply(KrausChannel(0.999 * ops), random_density(rng))
        joint = random_density(rng, 4)
        with pytest.raises(ValueError, match="normalized"):
            project_control(joint, (1.0 + 1e-9) * random_unit(rng))
        # a NaN on the diagonal reaches the outcome probability
        nan_joint = joint.copy()
        nan_joint[(rng.integers(4),) * 2] = np.nan
        with pytest.raises(PostSelectionImpossibleError):
            project_control(nan_joint, random_unit(rng))

    # (s1, c1) x (s2, c2) entries with s1 != s2 land off the block's diagonal
    OFF_DIAGONAL = [(i, j) for i in range(4) for j in range(4) if i // 2 != j // 2]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("i, j", OFF_DIAGONAL)
    def test_non_finite_off_diagonal_refused(self, i, j, bad):
        # the trace never sees these entries, so only the finiteness check can
        rng = np.random.default_rng(4 * i + j)
        joint = random_density(rng, 4)
        joint[i, j] = bad
        with pytest.raises(ValueError, match="not finite") as info:
            project_control(joint, random_unit(rng))
        assert not isinstance(info.value, PostSelectionImpossibleError)


def reference_check_density(rho):
    """check_density_operator through np.linalg.eigvalsh at every size (reference)."""
    rho = np.asarray(rho, dtype=complex)
    res = reference_residual(rho)
    if not res <= 1e-12:
        raise ValueError(f"density operator not Hermitian (residual {res:.3e})")
    tr = rho.trace()
    if not abs(tr - 1.0) <= 1e-12:
        raise ValueError(f"density operator trace is {tr}, expected 1")
    lam_min = float(np.linalg.eigvalsh(rho).min())
    if not lam_min >= -1e-10:
        raise ValueError(f"density operator has negative eigenvalue {lam_min:.3e}")


def outcome(fn, *args):
    """("ok", value), or the exception class and the words its message opens with."""
    try:
        return "ok", fn(*args)
    except Exception as exc:
        return type(exc), re.match(r"[A-Za-z ]*", str(exc)).group()


def hermitian_density(rng, dim, low=None):
    """A random density matrix, exactly Hermitian; with ``low``, its
    smallest eigenvalue is ``low`` in a random eigenbasis."""
    if low is None:
        rho = random_density(rng, dim)
    else:
        u = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        weights = np.full(dim, (1.0 - low) / (dim - 1))
        weights[0] = low
        rho = (u * weights) @ u.conj().T
    return 0.5 * (rho + rho.conj().T)


def near(scale):
    """scale (1 + delta) with 1e-3 <= |delta| <= 0.5: near a tolerance, but
    many rounding errors away from it."""
    return st.tuples(st.floats(1e-3, 0.5), st.sampled_from([-1.0, 1.0])).map(lambda d: scale * (1.0 + d[1] * d[0]))


# (entry, real or imaginary part) where a perturbation goes
PLACES = st.tuples(st.integers(0, 1), st.integers(0, 1), st.sampled_from([1.0, 1j]))


KINDS = st.sampled_from(["plain", "hermiticity", "trace", "negative"])


def perturbed_density(seed, dim, kind, size, place):
    """A random density matrix, perturbed near one of the check's tolerances."""
    rng = np.random.default_rng(seed)
    rho = hermitian_density(rng, dim, low=-abs(size) if kind == "negative" else None)
    if kind == "hermiticity":
        i, j, unit = place
        rho[i, j] += size * unit
    elif kind == "trace":
        rho *= 1.0 + size
    return rho


class TestQubitClosedForms:
    """check_density_operator and trace_distance take the eigenvalues of a
    2x2 in closed form; they must decide as the eigvalsh reference does."""

    @settings(max_examples=300, deadline=None)
    @given(seed=SEEDS, kind=KINDS, size=st.one_of(near(1e-12), near(1e-10)), place=PLACES)
    def test_density_check_matches_eigvalsh(self, seed, kind, size, place):
        rho = perturbed_density(seed, 2, kind, size, place)
        assert outcome(check_density_operator, rho) == outcome(reference_check_density, rho)

    @settings(max_examples=300, deadline=None)
    @given(seed=SEEDS, size=st.one_of(st.just(0.0), near(1e-12), near(1e-10)), place=PLACES)
    def test_trace_distance_matches_eigvalsh(self, seed, size, place):
        rng = np.random.default_rng(seed)
        rho1, rho2 = hermitian_density(rng, 2), hermitian_density(rng, 2)
        i, j, unit = place
        rho1[i, j] += size * unit
        got, want = outcome(trace_distance, rho1, rho2), outcome(reference_trace_distance, rho1, rho2)
        assert got[0] == want[0]
        if got[0] == "ok":
            assert abs(got[1] - want[1]) <= 1e-15
        else:
            assert got == want

    NON_FINITE = [(i, j, unit, bad) for i in range(2) for j in range(2) for unit in (1.0, 1j) for bad in (np.nan, np.inf, -np.inf)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("i, j, unit, bad", NON_FINITE)
    def test_non_finite_entries_match_eigvalsh(self, i, j, unit, bad):
        rng = np.random.default_rng(8 * i + 4 * j + 2 * (unit == 1j))
        rho1, rho2 = hermitian_density(rng, 2), hermitian_density(rng, 2)
        if unit == 1.0:
            rho1[i, j] = complex(bad, rho1[i, j].imag)
        else:
            rho1[i, j] = complex(rho1[i, j].real, bad)
        want = outcome(reference_check_density, rho1)
        assert want[0] is ValueError
        assert outcome(check_density_operator, rho1) == want
        assert outcome(trace_distance, rho1, rho2) == outcome(reference_trace_distance, rho1, rho2)


# arguments that are not a 2x2 matrix, with the shape the refusal names
NOT_QUBIT = {
    "3x3 density": (np.eye(3) / 3, r"\(3, 3\)"),
    "4x4 density": (np.eye(4) / 4, r"\(4, 4\)"),
    "1-d": (np.array([0.5, 0.0, 0.0, 0.5]), r"\(4,\)"),
    "non-square": (np.full((2, 3), 1.0 / 3.0), r"\(2, 3\)"),
}

# each helper as a call on one argument, by the name its refusal gives
QUBIT_HELPERS = [
    ("check_density_operator", check_density_operator),
    ("trace_distance", lambda m: trace_distance(m, I2 / 2)),
    ("trace_distance", lambda m: trace_distance(I2 / 2, m)),
]


class TestQubitContract:
    """check_density_operator and trace_distance take 2x2 matrices only; any
    other shape is a ValueError naming the helper."""

    @pytest.mark.parametrize("bad, shape", list(NOT_QUBIT.values()), ids=list(NOT_QUBIT))
    def test_non_qubit_argument_refused(self, bad, shape):
        for name, call in QUBIT_HELPERS:
            with pytest.raises(ValueError, match=rf"{name} expects a 2x2 matrix, got shape {shape}"):
                call(bad)

    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS, kind=KINDS, size=st.one_of(near(1e-12), near(1e-10)), place=PLACES)
    def test_larger_draws_refused_whatever_their_entries(self, seed, kind, size, place):
        # a 4x4 is refused for its shape, whichever check its entries would fail
        rho = perturbed_density(seed, 4, kind, size, place)
        for name, call in QUBIT_HELPERS:
            with pytest.raises(ValueError, match=rf"{name} expects a 2x2 matrix, got shape \(4, 4\)"):
                call(rho)
