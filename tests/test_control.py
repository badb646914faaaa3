import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import backflow.control as control
from backflow.channel import KrausChannel, apply, phi_t_kraus, validate_cptp
from backflow.control import (
    OUTCOMES,
    SUPERMAPS,
    AmplitudeVectors,
    ControlConfig,
    closed_form_output,
    controlled_output,
    path_config,
    path_kraus,
    switch_config,
    switch_kraus,
)
from backflow.qmat import (
    I2,
    KET_0,
    PostSelectionImpossibleError,
    kron,
    project_control,
    pure_state,
    trace_distance,
)
from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z, random_density, reference_trace_distance

P0 = pure_state(KET_0)
P1 = np.diag([0.0, 1.0]).astype(complex)


def omega(p):
    """The control state p |+><+| + (1 - p) I/2, built here from p."""
    return np.array([[0.5, p / 2], [p / 2, 0.5]], dtype=complex)


class TestControlConfig:
    def test_density_interpolates(self):
        assert np.allclose(omega(1.0), 0.5 * np.ones((2, 2)))
        assert np.allclose(omega(0.0), I2 / 2)
        assert np.array_equal(omega(0.25), 0.5 * np.array([[1.0, 0.25], [0.25, 1.0]]))

    def test_equality_and_hash_follow_the_fields(self):
        for mode in SUPERMAPS:
            config = ControlConfig(mode, 0.25)
            assert config == ControlConfig(mode, 0.25) and hash(config) == hash(ControlConfig(mode, 0.25))
            assert config != ControlConfig(mode, 0.5)
            assert config != ControlConfig(mode, 0.25, postselect_outcome="minus")
        assert path_config(0.25) != switch_config(0.25)

    def test_rejects_out_of_range(self):
        for mode in SUPERMAPS:
            for p in (1.5, -0.1, np.nan):
                with pytest.raises(ValueError, match="control purity parameter p must be in"):
                    ControlConfig(mode, p)
            with pytest.raises(TypeError):
                ControlConfig(mode, "0.5")


class TestConfigInvariants:
    def test_path_defaults_to_the_table_amplitudes(self):
        assert ControlConfig(mode="path", p=1.0).amplitudes is SUPERMAPS["path"].amplitudes
        assert ControlConfig(mode="switch", p=1.0).amplitudes is None

    def test_amplitudes_forbidden_for_switch(self):
        with pytest.raises(ValueError, match="amplitude"):
            ControlConfig(mode="switch", p=1.0, amplitudes=SUPERMAPS["path"].amplitudes)

    def test_amplitudes_must_be_amplitude_vectors(self):
        # refused at construction, not later in path_kraus (AttributeError)
        # or by the closed-form doors as if they were non-default amplitudes
        with pytest.raises(TypeError, match="amplitudes must be None or AmplitudeVectors"):
            ControlConfig("path", 1.0, amplitudes=((1, 0, 0), (1, 0, 0)))

    def test_path_default_is_one_instance(self):
        r = 1.0 / np.sqrt(2.0)
        default = SUPERMAPS["path"].amplitudes
        assert path_config(0.3).amplitudes is default and path_config(1.0).amplitudes is default
        # tuples of complex compare exactly, so this pins the bits
        assert default == AmplitudeVectors((r, r, 0.0), (r, r, 0.0))

    def test_amplitude_normalization_enforced(self):
        with pytest.raises(ValueError, match="not normalized"):
            AmplitudeVectors(alpha=(1.0, 1.0, 0.0), beta=(1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="not normalized"):
            AmplitudeVectors(alpha=(np.nan, 0.0, 0.0), beta=(1.0, 0.0, 0.0))


class TestSwitchKraus:
    def test_identity_channels(self, rng):
        ident = KrausChannel((I2,))
        joint = switch_kraus(ident, ident)
        rho = random_density(rng, 4)
        assert np.allclose(apply(joint, rho), rho, atol=1e-14)

    def test_nine_operators_and_cptp(self):
        for t in (0.1, 1.0, 3.0):
            phi = phi_t_kraus(t)
            joint = switch_kraus(phi, phi)
            assert len(joint.ops) == 9
            assert validate_cptp(joint).passed

    def test_pauli_order_sensitivity(self):
        # sigma_x sigma_z and sigma_z sigma_x differ by a sign, and the two
        # orders land on the two control projectors
        e = KrausChannel((SIGMA_X,))
        f = KrausChannel((SIGMA_Z,))
        joint = switch_kraus(e, f)
        xz = SIGMA_X @ SIGMA_Z
        expected = kron(xz, P0) + kron(SIGMA_Z @ SIGMA_X, P1)
        assert np.allclose(joint.ops[0], expected, atol=1e-15)
        assert np.allclose(SIGMA_Z @ SIGMA_X, -xz, atol=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            switch_kraus(phi_t_kraus(1.0), KrausChannel((np.eye(4),)))

    def test_operator_order_is_i_major(self):
        # two by three operators, no pair commuting: S_ij is operator i * 3 + j
        e = KrausChannel((SIGMA_X, SIGMA_Y))
        f = KrausChannel((SIGMA_Z, SIGMA_X @ SIGMA_Z, I2 + SIGMA_Y))
        joint = switch_kraus(e, f)
        assert joint.ops.shape == (6, 4, 4)
        for i, ei in enumerate(e.ops):
            for j, fj in enumerate(f.ops):
                expected = kron(ei @ fj, P0) + kron(fj @ ei, P1)
                assert np.allclose(joint.ops[3 * i + j], expected, atol=1e-15)


class TestPathKraus:
    def test_completeness_with_defaults(self):
        amps = SUPERMAPS["path"].amplitudes
        for t in (0.0, 1.0, 3.0):
            phi = phi_t_kraus(t)
            report = validate_cptp(path_kraus(phi, phi, amps))
            assert report.completeness_residual <= 1e-12
            assert report.passed

    def test_controlled_choice_of_unitaries(self):
        e = KrausChannel((SIGMA_X,))
        f = KrausChannel((SIGMA_Z,))
        amps = AmplitudeVectors(alpha=(1.0,), beta=(1.0,))
        joint = path_kraus(e, f, amps)
        assert len(joint.ops) == 1
        assert np.allclose(joint.ops[0], kron(SIGMA_X, P0) + kron(SIGMA_Z, P1), atol=1e-15)

    def test_operator_order_is_i_major(self):
        # N_ij = alpha_j E_i (x) P0 + beta_i F_j (x) P1 is operator i * 3 + j
        e = KrausChannel((SIGMA_X, SIGMA_Y))
        f = KrausChannel((SIGMA_Z, I2, SIGMA_X))
        amps = AmplitudeVectors(alpha=(0.6, 0.8j, 0.0), beta=(0.8, -0.6))
        joint = path_kraus(e, f, amps)
        assert joint.ops.shape == (6, 4, 4)
        for i, ei in enumerate(e.ops):
            for j, fj in enumerate(f.ops):
                expected = amps.alpha[j] * kron(ei, P0) + amps.beta[i] * kron(fj, P1)
                assert np.allclose(joint.ops[3 * i + j], expected, atol=1e-15)

    def test_surviving_operators_at_t_zero(self):
        # the exchange operators vanish at t = 0 and the third amplitude is
        # zero, so only (i=3, j=1), (i=3, j=2) act on the first arm and
        # (i=1, j=3), (i=2, j=3) on the second
        phi = phi_t_kraus(0.0)
        joint = path_kraus(phi, phi, SUPERMAPS["path"].amplitudes)
        r = 1.0 / np.sqrt(2.0)
        expected = {
            2: kron(r * I2, P1),
            5: kron(r * I2, P1),
            6: kron(r * I2, P0),
            7: kron(r * I2, P0),
        }
        for idx, op in enumerate(joint.ops):
            if idx in expected:
                assert np.allclose(op, expected[idx], atol=1e-15)
            else:
                assert np.abs(op).max() < 1e-15

    def test_length_mismatch_rejected(self):
        phi = phi_t_kraus(1.0)
        short = AmplitudeVectors(alpha=(1.0,), beta=(1.0,))
        with pytest.raises(ValueError, match="length"):
            path_kraus(phi, phi, short)
        # beta matches the first channel's three operators, alpha not the second's one
        first_only = AmplitudeVectors(alpha=(1.0, 0.0, 0.0), beta=(1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="alpha length 3 must match second channel's 1 operators"):
            path_kraus(phi, KrausChannel((I2,)), first_only)
        with pytest.raises(ValueError, match="dimension mismatch: 2 vs 4"):
            path_kraus(phi, KrausChannel((np.eye(4),)), first_only)


class TestControlledOutput:
    def test_path_identity_at_t_zero(self, rng):
        rho = random_density(rng)
        out, prob = controlled_output(path_config(1.0), rho, 0.0)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(out, rho, atol=1e-12)

    def test_path_long_time_limit(self):
        out, _ = controlled_output(path_config(1.0), pure_state(KET_0), 10.0)
        assert np.allclose(out, np.diag([0.4, 0.6]), atol=1e-8)

    def test_switch_long_time_limit(self):
        out, _ = controlled_output(switch_config(1.0), pure_state(KET_0), 10.0)
        assert np.allclose(out, np.diag([3.0 / 7.0, 4.0 / 7.0]), atol=1e-8)

    def test_outcome_probabilities_sum_to_one(self, rng):
        rho = random_density(rng)
        for mode_cfg in (path_config, switch_config):
            for t in (0.4, 2.0):
                _, p_plus = controlled_output(mode_cfg(0.6, outcome="plus"), rho, t)
                _, p_minus = controlled_output(mode_cfg(0.6, outcome="minus"), rho, t)
                assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)

    def test_switch_minus_outcome_impossible_at_t_zero(self, rng):
        # the joint channel is the identity at t = 0 and a pure plus control
        # never lands on minus
        with pytest.raises(PostSelectionImpossibleError):
            controlled_output(switch_config(1.0, outcome="minus"), random_density(rng), 0.0)

    @pytest.mark.parametrize("config", [path_config(0.5), switch_config(0.5)], ids=["path", "switch"])
    def test_rejects_a_joint_input_state(self, config):
        # rho0 is the system qubit; a valid 4x4 density is refused for its shape
        with pytest.raises(ValueError, match=r"check_density_operator expects a 2x2 matrix, got shape \(4, 4\)"):
            controlled_output(config, np.eye(4) / 4, 1.0)

    def test_switch_insensitive_to_amplitude_choice(self, rng):
        # the switch takes no amplitudes at all; perturbing the path
        # amplitudes changes its output at fixed t
        rho = random_density(rng)
        t = 1.2
        base, _ = controlled_output(path_config(1.0), rho, t)
        skewed = AmplitudeVectors(
            alpha=(np.sqrt(0.8), np.sqrt(0.2), 0.0), beta=(np.sqrt(0.8), np.sqrt(0.2), 0.0)
        )
        perturbed, _ = controlled_output(path_config(1.0, amplitudes=skewed), rho, t)
        assert np.abs(base - perturbed).max() > 1e-3


class TestClosedForms:
    def test_path_is_identity_at_t_zero(self, rng):
        rho = random_density(rng)
        assert np.allclose(closed_form_output(path_config(1.0), rho, 0.0), rho, atol=1e-14)

    def test_switch_is_identity_at_t_zero(self, rng):
        rho = random_density(rng)
        assert np.allclose(closed_form_output(switch_config(1.0), rho, 0.0), rho, atol=1e-14)

    @staticmethod
    def multipliers(mode, t, p):
        delta, *n = control.BLOCH_ROWS[mode](p, *control._decay(np.asarray(t, dtype=float)))
        return [n_j / delta for n_j in n]

    def test_pure_control_path_weights(self):
        # p = 1 multipliers equal their x = e^{2t} forms (A + B, A - B, A - 3B)
        for t in (0.5, 1.0, 2.0):
            x = np.exp(2.0 * t)
            a_w, b_w = 2.0 * (x + 1.0) / (5.0 * x - 1.0), (x - 1.0) / (5.0 * x - 1.0)
            want = (a_w + b_w, a_w - b_w, a_w - 3.0 * b_w)
            assert self.multipliers("path", t, 1.0) == pytest.approx(want, rel=1e-14)

    def test_pure_control_switch_weights(self):
        # p = 1 multipliers equal their x = e^{2t} forms (C, C, A - B), C = A
        for t in (0.5, 1.0, 2.0):
            x = np.exp(2.0 * t)
            den = 7.0 * x * x + 2.0 * x - 1.0
            a_w, b_w = (3.0 * x * x + 2.0 * x + 3.0) / den, 4.0 * (x * x - 1.0) / den
            assert self.multipliers("switch", t, 1.0) == pytest.approx((a_w, a_w, a_w - b_w), rel=1e-14)

    def test_unit_trace_identities(self, rng):
        # the entry map keeps the trace of any 2x2 input: its diagonal is
        # tr/2 +- l_z (s11 - s22)/2, which sums back to tr up to rounding
        for make_config in (path_config, switch_config):
            for p in (0.0, 0.25, 0.5, 0.75, 1.0):
                for t in (0.0, 0.3, 1.0, 6.0, 400.0):
                    sigma = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                    out = closed_form_output(make_config(p), sigma, t)
                    assert abs(np.trace(out) - np.trace(sigma)) <= 4e-16 * np.abs(sigma).max()

    def test_path_matches_supermap(self, rng):
        rho = pure_state(KET_0)
        out, _ = controlled_output(path_config(0.5), rho, 1.0)
        assert np.abs(out - closed_form_output(path_config(0.5), rho, 1.0)).max() <= 1e-10
        rho = random_density(rng)
        out, _ = controlled_output(path_config(0.25), rho, 2.5)
        assert np.abs(out - closed_form_output(path_config(0.25), rho, 2.5)).max() <= 1e-10

    def test_switch_matches_supermap(self, rng):
        plus = pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
        out, _ = controlled_output(switch_config(0.3), plus, 1.5)
        assert np.abs(out - closed_form_output(switch_config(0.3), plus, 1.5)).max() <= 1e-10
        rho = random_density(rng)
        out, _ = controlled_output(switch_config(0.75), rho, 0.7)
        assert np.abs(out - closed_form_output(switch_config(0.75), rho, 0.7)).max() <= 1e-10

    def test_path_second_weight_shares_the_first_denominator(self):
        # the second path weight must use the same denominator (4+p)x - p as
        # the first; the variant ending in -1 breaks unit trace and the
        # supermap equivalence for p != 1
        p, t = 0.5, 1.0
        x = np.exp(2.0 * t)
        rho = pure_state(KET_0)
        out, _ = controlled_output(path_config(p), rho, t)
        a_w = 2.0 * (x + 1.0) / ((4.0 + p) * x - p)
        b_good = (x - 1.0) / ((4.0 + p) * x - p)
        b_alt = (x - 1.0) / ((4.0 + p) * x - 1.0)
        good = np.array([[a_w, 0.0], [0.0, (2.0 + p) * b_good]])
        alt = np.array([[a_w, 0.0], [0.0, (2.0 + p) * b_alt]])
        assert np.abs(out - good).max() <= 1e-12
        assert np.abs(out - alt).max() > 1e-3
        assert abs(np.trace(alt) - 1.0) > 1e-3

    def test_closed_forms_are_trace_preserving(self, rng):
        rho = random_density(rng)
        for t in (0.2, 1.0, 4.0):
            for p in (0.0, 0.6, 1.0):
                for config in ("bare", path_config(p), switch_config(p)):
                    assert np.trace(closed_form_output(config, rho, t)).real == pytest.approx(1.0, abs=1e-12)

    def test_parameter_validation(self, rng):
        rho = random_density(rng)
        with pytest.raises(ValueError):
            closed_form_output(path_config(1.5), rho, 1.0)
        with pytest.raises(ValueError):
            closed_form_output(switch_config(0.5), rho, -1.0)
        for config in ("bare", path_config(0.5), switch_config(0.5)):
            with pytest.raises(ValueError, match="time must be non-negative"):
                closed_form_output(config, rho, np.nan)
            with pytest.raises(ValueError, match="closed-form outputs expect a qubit state"):
                closed_form_output(config, np.eye(4) / 4, 1.0)
        with pytest.raises(ValueError, match="string config must be 'bare'"):
            closed_form_output("path", rho, 1.0)
        with pytest.raises(TypeError, match="config must be 'bare' or a ControlConfig"):
            closed_form_output(None, rho, 1.0)

    @pytest.mark.parametrize("t", [0.0, 1e-3, 0.7, 3.0, 50.0, 1e308])
    def test_bare_equals_the_kraus_channel(self, rng, t):
        rho = random_density(rng)
        assert np.abs(closed_form_output("bare", rho, t) - apply(phi_t_kraus(t), rho)).max() <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        mode=st.sampled_from(sorted(SUPERMAPS)),
        seed=st.integers(0, 2**32 - 1),
        p=st.floats(0.0, 1.0),
        t=st.floats(0.0, 10.0),
    )
    def test_closed_form_equals_supermap(self, mode, seed, p, t):
        rho = random_density(np.random.default_rng(seed))
        config = ControlConfig(mode, p)
        out, _ = controlled_output(config, rho, t)
        assert np.abs(out - closed_form_output(config, rho, t)).max() <= 1e-10


class TestCptpAndContractivity:
    @settings(max_examples=200, deadline=None)
    @given(
        t=st.floats(0.0, 20.0),
        seed=st.integers(0, 2**32 - 1),
        p=st.floats(0.0, 1.0),
    )
    def test_channels_are_cptp_and_contractive(self, t, seed, p):
        rng = np.random.default_rng(seed)
        rho1, rho2 = random_density(rng), random_density(rng)
        before = trace_distance(rho1, rho2)
        phi = phi_t_kraus(t)
        assert validate_cptp(phi).passed
        assert trace_distance(apply(phi, rho1), apply(phi, rho2)) <= before + 1e-12
        control_state = omega(p)
        for mode, supermap in SUPERMAPS.items():
            joint = supermap.kraus(phi, SUPERMAPS["path"].amplitudes)
            assert validate_cptp(joint).passed, mode
            # trace_distance takes qubits only, so the joint distance uses the reference
            after = reference_trace_distance(
                apply(joint, kron(rho1, control_state)), apply(joint, kron(rho2, control_state))
            )
            assert after <= before + 1e-12, mode


class TestSupermapTable:
    def test_every_outcome_has_a_ket(self, rng):
        # controlled_output projects the control on the configured outcome's ket
        rho = random_density(rng)
        for outcome, ket in OUTCOMES.items():
            config = path_config(0.5, outcome=outcome)
            joint = apply(control.build_supermap(config, 1.0), kron(rho, omega(config.p)))
            block, want = project_control(joint, ket)
            out, prob = controlled_output(config, rho, 1.0)
            assert prob == want and np.array_equal(out, block / want)
        with pytest.raises(ValueError, match="postselect_outcome"):
            switch_config(1.0, outcome="zero")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            ControlConfig(mode="bare", p=1.0)

    def test_builders_called_through_module_globals(self, monkeypatch):
        # wrappers installed on the module (as a tracer does) must see every
        # call the supermap table makes; the memos are cleared so no earlier
        # build of these configs, or template of these modes, is served instead
        control._joint_kraus.cache_clear()
        control._template.cache_clear()
        calls = {}
        for name in ("path_kraus", "switch_kraus"):
            original = getattr(control, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args)

            monkeypatch.setattr(control, name, counted)
        rho = pure_state(KET_0)
        controlled_output(path_config(0.5), rho, 1.0)
        controlled_output(switch_config(0.5), rho, 1.0)
        assert calls == {"path_kraus": 1, "switch_kraus": 1}
