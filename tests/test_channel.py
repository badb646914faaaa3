import dataclasses

import numpy as np
import pytest

import backflow
from backflow.channel import (
    CptpReport,
    KrausChannel,
    _bloch_decay_rates,
    apply,
    choi_matrix,
    completeness_residual,
    eternal_nm_generator,
    integrate_canonical,
    phi_t_kraus,
    validate_cptp,
)
from backflow.control import SUPERMAPS
from backflow.qmat import (
    I2,
    KET_0,
    KET_PLUS,
    dagger,
    pure_state,
    trace_distance,
)
from conftest import KET_1, SIGMA_X, SIGMA_Y, SIGMA_Z, random_density

LN2_HALF = 0.5 * np.log(2.0)


def canonical_rhs(gen, t, rho):
    """Right-hand side sum_i (g_i(t)/2)(sigma_i rho sigma_i - rho) of the
    canonical equation (reference for the RK4 oracle).

    The generator is purely dissipative, so there is no -i[H, rho] term.
    Accepts stacked states over leading axes; the output is traceless and
    Hermitian for Hermitian input.
    """
    rho = np.asarray(rho, dtype=complex)
    g1, g2, g3 = gen(t)
    out = 0.5 * g1 * (SIGMA_X @ rho @ SIGMA_X - rho)
    out = out + 0.5 * g2 * (SIGMA_Y @ rho @ SIGMA_Y - rho)
    return out + 0.5 * g3 * (SIGMA_Z @ rho @ SIGMA_Z - rho)


def choi_from_action(action, dim=2):
    """Choi matrix assembled entry by entry from a channel's action (oracle).

    With row-major vectorization, Choi[(a, b), (c, d)] = action(|b><d|)[a, c].
    """
    choi = np.zeros((dim * dim, dim * dim), dtype=complex)
    for b in range(dim):
        for d in range(dim):
            basis = np.zeros((dim, dim), dtype=complex)
            basis[b, d] = 1.0
            out = action(basis)
            for a in range(dim):
                for c in range(dim):
                    choi[a * dim + b, c * dim + d] = out[a, c]
    return choi


GENERATORS = {
    "eternal-nm": eternal_nm_generator(),
    # constant rates return a scalar for an array of times and are broadcast
    "constant-and-cos": lambda t: (0.3, 0.7, np.cos(t)),
}


def _rk4_reference(gen, rho0, checkpoints, dt=1e-3):
    """Per-step RK4 on the full density matrix through sorted checkpoints,
    re-Hermitized and renormalized after every step (reference oracle)."""
    rho = np.array(rho0, dtype=complex)
    states = []
    t_start = 0.0
    for t_stop in checkpoints:
        span = t_stop - t_start
        if span > 0.0:
            n_steps = max(1, int(round(span / dt)))
            h = span / n_steps
            t = t_start
            for _ in range(n_steps):
                k1 = canonical_rhs(gen, t, rho)
                k2 = canonical_rhs(gen, t + 0.5 * h, rho + 0.5 * h * k1)
                k3 = canonical_rhs(gen, t + 0.5 * h, rho + 0.5 * h * k2)
                k4 = canonical_rhs(gen, t + h, rho + h * k3)
                rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                rho = 0.5 * (rho + dagger(rho))
                tr = np.real(np.einsum("...ii", rho))
                rho = rho / tr[..., None, None]
                t += h
            t_start = t_stop
        states.append(rho)
    return np.stack(states)


def kraus_weights(t):
    """alpha2 = |K1[0, 1]|^2 and (alpha1 + alpha3) / 2 = |K3[0, 0]|^2 of the
    Kraus set at t; K3 is a multiple of I, so alpha1 = alpha3."""
    k1, _, k3 = phi_t_kraus(t).ops
    assert np.array_equal(k3, k3[0, 0] * I2)
    return abs(k1[0, 1]) ** 2, abs(k3[0, 0]) ** 2


class TestCoefficients:
    def test_values_at_zero(self):
        alpha2, alpha13 = kraus_weights(0.0)
        assert alpha13 == pytest.approx(1.0)
        assert alpha2 == pytest.approx(0.0)

    def test_half_life_point(self):
        alpha2, alpha13 = kraus_weights(LN2_HALF)
        assert alpha2 == pytest.approx(0.25)
        assert alpha13 == pytest.approx(0.75)

    def test_large_time_limits(self):
        alpha2, alpha13 = kraus_weights(40.0)
        assert alpha2 == pytest.approx(0.5, abs=1e-12)
        assert alpha13 == pytest.approx(0.5, abs=1e-12)

    def test_completeness_weight(self):
        # the three surviving operators weigh alpha2 (twice, on the two
        # projectors) plus (alpha1 + alpha3) / 2 = alpha1
        for t in np.linspace(0.0, 6.0, 31):
            alpha2, alpha13 = kraus_weights(t)
            assert alpha2 + alpha13 == pytest.approx(1.0, abs=1e-14)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            phi_t_kraus(-0.1)
        with pytest.raises(ValueError):
            phi_t_kraus(np.nan)


class TestPhiKraus:
    def test_identity_at_zero(self, rng):
        channel = phi_t_kraus(0.0)
        rho = random_density(rng)
        assert np.allclose(apply(channel, rho), rho, atol=1e-14)

    def test_operator_values_at_half_life(self):
        channel = phi_t_kraus(LN2_HALF)
        k1, k2, k3 = channel.ops
        assert k1[0, 1] == pytest.approx(np.sqrt(0.25))
        assert k2[1, 0] == pytest.approx(np.sqrt(0.25))
        assert np.allclose(k3, np.sqrt(0.75) * I2)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            phi_t_kraus(-1.0)

    @pytest.mark.parametrize("t", [0.0, 1e-8, 0.5, 3.0, 400.0])
    def test_equals_explicit_operators(self, t):
        # the shared read-only template, scaled, against three matrices built per call
        u = np.exp(-2.0 * t)
        k_flip, k_id = np.sqrt((1.0 - u) / 2.0), np.sqrt((1.0 + u) / 2.0)
        explicit = np.array([
            k_flip * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
            k_flip * np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
            k_id * I2,
        ])
        channel = phi_t_kraus(t)
        assert np.array_equal(channel.ops, explicit)
        channel.ops[0, 0, 1] = 7.0  # each call owns its operators
        assert np.array_equal(phi_t_kraus(t).ops, explicit)

    def test_cptp_over_grid(self):
        for t in np.arange(0.0, 5.0 + 1e-9, 0.1):
            report = validate_cptp(phi_t_kraus(t))
            assert report.passed, f"t={t}: {report}"

    def test_ground_state_population_transfer(self):
        out = apply(phi_t_kraus(LN2_HALF), pure_state(KET_0))
        assert np.allclose(out, np.diag([0.75, 0.25]), atol=1e-14)

    def test_trace_preserved(self, rng):
        for t in (0.3, 1.1, 4.0):
            out = apply(phi_t_kraus(t), random_density(rng))
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_fixed_point(self):
        for t in (0.0, 0.7, 2.0, 9.0):
            out = apply(phi_t_kraus(t), I2 / 2)
            assert np.abs(out - I2 / 2).max() < 1e-15

    def test_bloch_contraction(self, rng):
        # z component shrinks by exp(-2t); coherence magnitude depends only
        # on |rho12|, not its phase
        t = 0.9
        channel = phi_t_kraus(t)
        rho = random_density(rng)
        out = apply(channel, rho)
        z_in = (rho[0, 0] - rho[1, 1]).real
        z_out = (out[0, 0] - out[1, 1]).real
        assert z_out == pytest.approx(np.exp(-2 * t) * z_in, abs=1e-12)
        phase = np.exp(1j * 0.77)
        rotated = rho.copy()
        rotated[0, 1] *= phase
        rotated[1, 0] *= phase.conjugate()
        out_rot = apply(channel, rotated)
        assert abs(out_rot[0, 1]) == pytest.approx(abs(out[0, 1]), abs=1e-12)


class TestValidation:
    def test_phi_channel_passes(self):
        assert validate_cptp(phi_t_kraus(1.3)).passed

    def test_kraus_set_and_report_hold_only_their_values(self):
        assert [f.name for f in dataclasses.fields(KrausChannel)] == ["ops"]
        assert [f.name for f in dataclasses.fields(CptpReport)] == ["completeness_residual", "choi_min_eigenvalue"]

    def test_subnormalized_identity_fails(self):
        channel = KrausChannel((np.sqrt(0.5) * I2,))
        report = validate_cptp(channel)
        assert not report.passed
        assert report.completeness_residual == pytest.approx(0.5)

    def test_overcomplete_fails(self):
        report = validate_cptp(KrausChannel((I2, I2)))
        assert not report.passed
        assert report.completeness_residual == pytest.approx(1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_kraus_set_fails(self, entry):
        # a failed report, not numpy's LinAlgError from the Choi spectrum
        ops = phi_t_kraus(1.0).ops.copy()
        ops[0, 0, 1] = entry
        report = validate_cptp(KrausChannel(ops))
        assert not report.passed
        assert np.isnan(report.completeness_residual) and np.isnan(report.choi_min_eigenvalue)

    def test_apply_refuses_unvalidated_channel(self, rng):
        channel = KrausChannel((np.sqrt(0.5) * I2,))
        with pytest.raises(ValueError, match="not trace preserving"):
            apply(channel, random_density(rng))
        with pytest.raises(ValueError, match="not trace preserving"):
            apply(KrausChannel((np.nan * I2,)), random_density(rng))

    def test_dimension_guard(self, rng):
        with pytest.raises(ValueError, match="dimension"):
            apply(phi_t_kraus(1.0), random_density(rng, 4))

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError):
            KrausChannel((I2, np.eye(4)))


def apply_raw(channel, m):
    """Channel action on an arbitrary matrix, bypassing state validation."""
    out = np.zeros_like(m, dtype=complex)
    for op in channel.ops:
        out += op @ m @ op.conj().T
    return out


class TestCanonicalEquation:
    def test_maximally_mixed_is_stationary(self):
        gen = eternal_nm_generator()
        for t in (0.0, 0.5, 3.0):
            rhs = canonical_rhs(gen, t, I2 / 2)
            assert np.abs(rhs).max() < 1e-15

    def test_ground_state_rate_at_zero(self):
        # at t = 0 the z rate vanishes and the two transverse dissipators
        # pump |0><0| toward |1><1|
        gen = eternal_nm_generator()
        rhs = canonical_rhs(gen, 0.0, pure_state(KET_0))
        expected = pure_state(KET_1) - pure_state(KET_0)
        assert np.allclose(rhs, expected, atol=1e-14)

    def test_traceless_output(self, rng):
        gen = eternal_nm_generator()
        for t in (0.1, 1.0, 2.7):
            rhs = canonical_rhs(gen, t, random_density(rng))
            assert abs(np.trace(rhs)) < 1e-14

    def test_rates(self):
        gen = eternal_nm_generator()
        g1, g2, g3 = gen(1.5)
        assert g1 == 1.0 and g2 == 1.0
        assert g3 == pytest.approx(-np.tanh(1.5))
        assert g3 < 0.0

    @pytest.mark.parametrize("gen", GENERATORS.values(), ids=GENERATORS.keys())
    def test_bloch_components_decay_at_their_rates(self, gen):
        # each Pauli matrix is an eigenvector of the generator; the
        # integrator's per-component rates are those eigenvalues
        for t in (0.0, 0.7, 3.0):
            rates = _bloch_decay_rates(gen, np.asarray(t))
            for sigma, rate in zip((SIGMA_X, SIGMA_Y, SIGMA_Z), rates):
                assert np.abs(canonical_rhs(gen, t, sigma) + rate * sigma).max() <= 1e-15


def test_a_generator_is_its_rates_function():
    # any callable from stage times to (g1, g2, g3) is a generator; no record type is exported
    assert not [name for name in backflow.__all__ if name.endswith("Generator")]
    assert len(backflow.__all__) == 36


class TestIntegrator:
    def test_zero_time_is_identity(self, rng):
        rho = random_density(rng)
        out = integrate_canonical(eternal_nm_generator(), rho, 0.0)
        assert np.array_equal(out, rho)

    def test_against_kraus_at_half_life(self):
        out = integrate_canonical(eternal_nm_generator(), pure_state(KET_0), LN2_HALF, dt=1e-3)
        assert np.abs(out - np.diag([0.75, 0.25])).max() < 1e-6

    def test_plus_state_long_time(self):
        plus = pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
        out = integrate_canonical(eternal_nm_generator(), plus, 5.0, dt=1e-3)
        kraus = apply(phi_t_kraus(5.0), plus)
        assert trace_distance(out, kraus) < 1e-6

    def test_random_states_match_kraus(self, rng):
        gen = eternal_nm_generator()
        for t in (0.5, 2.0):
            for _ in range(5):
                rho = random_density(rng)
                ode = integrate_canonical(gen, rho, t, dt=1e-3)
                kraus = apply(phi_t_kraus(t), rho)
                assert trace_distance(ode, kraus) < 1e-6

    def test_step_bounds(self, rng):
        rho = random_density(rng)
        gen = eternal_nm_generator()
        with pytest.raises(ValueError, match="dt"):
            integrate_canonical(gen, rho, 1.0, dt=0.5)
        with pytest.raises(ValueError, match="dt"):
            integrate_canonical(gen, rho, 1.0, dt=0.0)

    def test_rejects_a_non_qubit_state(self):
        with pytest.raises(ValueError, match="integrate_canonical expects qubit states"):
            integrate_canonical(eternal_nm_generator(), np.eye(4) / 4, 1.0)

    def test_batched_states(self, rng):
        gen = eternal_nm_generator()
        stack = np.stack([random_density(rng) for _ in range(4)])
        batched = integrate_canonical(gen, stack, 1.0, dt=1e-3)
        for k in range(4):
            single = integrate_canonical(gen, stack[k], 1.0, dt=1e-3)
            assert np.abs(batched[k] - single).max() < 1e-13

    def test_checkpoints_match_scalar_calls(self, rng):
        gen = eternal_nm_generator()
        stack = np.stack([random_density(rng) for _ in range(5)])
        checkpoints = [0.0, 0.5, 0.5, 2.0]
        out = integrate_canonical(gen, stack, checkpoints, dt=1e-3)
        assert out.shape == (4, 5, 2, 2)
        for i, t in enumerate(checkpoints):
            for k in range(5):
                single = integrate_canonical(gen, stack[k], t, dt=1e-3)
                assert np.abs(out[i, k] - single).max() < 1e-13

    @pytest.mark.parametrize("gen", GENERATORS.values(), ids=GENERATORS.keys())
    def test_matches_reference_loop(self, rng, gen):
        # 7,300 steps, with segments longer than one block of steps
        stack = np.stack([random_density(rng) for _ in range(5)])
        checkpoints = [0.0, 0.3, 0.5, 0.5, 2.0, 5.0, 7.3]
        out = integrate_canonical(gen, stack, checkpoints, dt=1e-3)
        assert np.abs(out - _rk4_reference(gen, stack, checkpoints)).max() < 1e-13

    @pytest.mark.parametrize(
        "rho",
        [pure_state(KET_PLUS), np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])],
        ids=["plus", "mixed"],
    )
    def test_fourth_order_convergence(self, rho):
        # halving dt cuts the error by about 2^4; an exact exponential
        # would agree with the Kraus form at any dt
        kraus = apply(phi_t_kraus(2.0), rho)
        coarse, fine = (
            trace_distance(integrate_canonical(eternal_nm_generator(), rho, 2.0, dt=dt), kraus)
            for dt in (1e-2, 5e-3)
        )
        assert 12.0 <= coarse / fine <= 20.0

    @pytest.mark.parametrize(
        "bad, match",
        [(np.array([[0.5, 1.0], [0.0, 0.5]]), "not Hermitian"), (I2, "trace")],
        ids=["non-hermitian", "trace-2"],
    )
    def test_rejects_invalid_state_in_stack(self, rng, bad, match):
        gen = eternal_nm_generator()
        with pytest.raises(ValueError, match=match):
            integrate_canonical(gen, bad, 1.0)
        with pytest.raises(ValueError, match=match):
            integrate_canonical(gen, np.stack([random_density(rng), bad]), 1.0)

    def test_scalar_time_is_one_checkpoint(self, rng):
        gen = eternal_nm_generator()
        rho = random_density(rng)
        scalar = integrate_canonical(gen, rho, 0.7, dt=1e-3)
        assert scalar.shape == (2, 2)
        assert np.array_equal(integrate_canonical(gen, rho, [0.7], dt=1e-3)[0], scalar)

    @pytest.mark.parametrize(
        "t_final, match",
        [
            (float("nan"), "finite"),
            (float("inf"), "finite"),
            ([0.5, float("nan")], "finite"),
            (-1.0, "non-negative"),
            ([-0.5, 1.0], "non-negative"),
            ([1.0, 0.5], "non-decreasing"),
            ([], "non-empty"),
            (1e308, "finite step count"),
            (401.0, "more than 400000 RK4 steps"),
            (1e300, "more than 400000 RK4 steps"),
        ],
    )
    def test_rejects_bad_checkpoints(self, rng, t_final, match):
        with pytest.raises(ValueError, match=match):
            integrate_canonical(eternal_nm_generator(), random_density(rng), t_final)

    @pytest.mark.parametrize(
        "t_final, dt",
        [
            # 4e11 steps: refused before any is taken
            (400.0, 1e-9),
            # 500 + 399,500 + 1 steps, as each span rounds to its own count;
            # the last checkpoint alone rounds to 400,000
            ([0.5, 400.0, 400.0005], 1e-3),
        ],
    )
    def test_rejects_bad_checkpoints_past_the_step_budget(self, rng, t_final, dt):
        with pytest.raises(ValueError, match="more than 400000 RK4 steps"):
            integrate_canonical(eternal_nm_generator(), random_density(rng), t_final, dt=dt)


class TestChoi:
    def test_trace_equals_dimension(self):
        for t in (0.0, 0.9, 3.3):
            choi = choi_matrix(phi_t_kraus(t))
            assert np.trace(choi).real == pytest.approx(2.0, abs=1e-12)

    def test_psd_for_valid_channel(self):
        choi = choi_matrix(phi_t_kraus(0.7))
        assert np.linalg.eigvalsh(choi).min() >= -1e-10

    def test_completeness_residual_value(self):
        assert completeness_residual(phi_t_kraus(2.2)) < 1e-15

    def test_choi_against_action_oracle(self):
        phi = phi_t_kraus(1.0)
        oracle = choi_from_action(lambda m: apply_raw(phi, m))
        assert np.abs(choi_matrix(phi) - oracle).max() < 1e-13
        for supermap in SUPERMAPS.values():
            joint = supermap.kraus(phi, SUPERMAPS["path"].amplitudes)
            oracle = choi_from_action(lambda m: apply_raw(joint, m), dim=4)
            assert np.abs(choi_matrix(joint) - oracle).max() < 1e-13


def random_isometry_kraus(rng, k, d):
    """k Kraus operators cut from a random complex (k d) x d isometry."""
    g = rng.normal(size=(k * d, d)) + 1j * rng.normal(size=(k * d, d))
    q, _ = np.linalg.qr(g)
    return q.reshape(k, d, d)


class TestStackedLayout:
    @pytest.mark.parametrize("k", [1, 3, 9])
    @pytest.mark.parametrize("d", [2, 4])
    def test_matches_per_operator_reference(self, rng, k, d):
        ops = random_isometry_kraus(rng, k, d)
        channel = KrausChannel(list(ops))
        assert channel.ops.shape == (k, d, d)
        rho = random_density(rng, d)
        assert np.abs(apply(channel, rho) - apply_raw(channel, rho)).max() < 1e-13
        # a non-unitary right factor makes the residual an O(1) number
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        skewed = KrausChannel(ops @ g)
        reference = sum(op.conj().T @ op for op in skewed.ops) - np.eye(d)
        assert completeness_residual(channel) < 1e-13
        assert completeness_residual(skewed) == pytest.approx(np.abs(reference).max(), rel=1e-12)

    @pytest.mark.parametrize(
        "ops, message",
        [((), "at least one operator"), (I2, "square"), (np.zeros((2, 2, 3)), "square")],
        ids=["empty", "single-matrix", "non-square"],
    )
    def test_constructor_rejects_bad_shapes(self, ops, message):
        with pytest.raises(ValueError, match=message):
            KrausChannel(ops)
