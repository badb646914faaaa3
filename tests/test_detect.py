import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import backflow.detect as detect
import backflow.poly as poly
from backflow.channel import apply, phi_t_kraus
from backflow.detect import (
    BACKFLOW_EPS,
    DEFAULT_T_MAX,
    DEFAULT_T_MIN,
    FD_STEP,
    analytic_derivative,
    asymptotic_threshold,
    central_difference,
    detect_backflow,
    log_time_grid,
    probe_distance,
    probe_pair,
    scan_region,
)
from backflow.control import (
    SUPERMAPS,
    AmplitudeVectors,
    ControlConfig,
    _decay,
    _mode_and_p,
    closed_form_output,
    controlled_output,
    path_config,
    switch_config,
)
from backflow.qmat import trace_distance
from conftest import pure_control_parts

FD_H = 1e-4


def central_diff(fn, t, h=FD_H):
    return (fn(t + h) - fn(t - h)) / (2.0 * h)


def empirical_threshold(config, a_step=5e-4):
    """Measured large-time edge of a configuration's backflow region: the
    sampled cross-check of ``asymptotic_threshold``.

    Scans a in steps of ``a_step`` and returns the midpoint between the last
    probe parameter whose derivative (through the sign of its bracket) is
    still positive at DEFAULT_T_MAX and the first one where it has turned
    negative.  When no scanned a is positive, the edge lies below the first
    one, a_step, if the a -> 0 limit of the bracket is positive there:
    the midpoint a_step / 2 is returned, else 0.0 (no late-time backflow).
    Evaluating the sign at one late time isolates the sustained
    (late-time) window; the switch configuration additionally shows a
    transient positive window at intermediate times for small p, which this
    measurement deliberately excludes.  Raises ValueError unless
    0 < a_step < 1.
    """
    mode, p, _ = _mode_and_p(config)
    # NaN fails the test too; a step outside (0, 1) scans no a below 1
    if not 0.0 < a_step < 1.0:
        raise ValueError(f"a_step must be in (0, 1), got {a_step}")
    a_values = np.arange(a_step, 1.0, a_step)
    u = math.exp(-2.0 * DEFAULT_T_MAX)
    coeffs = detect._bracket_coeffs(mode, a_values, p)
    positive = poly._horner(coeffs, u) > 0.0
    if not positive.any():
        return float(0.5 * a_step) if poly._horner(detect._bracket_coeffs(mode, 0.0, p), u) > 0.0 else 0.0
    last_true = int(np.nonzero(positive)[0].max())
    if last_true + 1 >= len(a_values):
        return float(a_values[-1])
    return float(0.5 * (a_values[last_true] + a_values[last_true + 1]))


class TestBareChannel:
    def test_distance_at_zero(self):
        for a in (0.2, 0.65, 0.9):
            assert probe_distance("bare", a, 0.0) == pytest.approx(np.sqrt(1 - a * a), abs=1e-14)

    def test_identical_probes(self):
        ts = np.linspace(0.0, 5.0, 11)
        assert np.abs(probe_distance("bare", 1.0, ts)).max() == 0.0

    def test_matches_kraus_evolution(self):
        a, t = 0.65, 1.0
        rho1, rho2 = probe_pair(a)
        channel = phi_t_kraus(t)
        direct = trace_distance(apply(channel, rho1), apply(channel, rho2))
        assert probe_distance("bare", a, t) == pytest.approx(direct, abs=1e-10)

    def test_derivative_negative_everywhere(self):
        ts = log_time_grid(1e-2, 12.0, 241)
        for a in np.arange(0.1, 1.0, 0.05):
            assert np.all(analytic_derivative("bare", a, ts) < 0.0)

    def test_derivative_vanishes_for_identical_probes(self):
        prefactor, _ = detect._derivative_parts("bare", 1.0 - 1e-15, 1.0, 1.0)
        assert prefactor == pytest.approx(0.0, abs=1e-7)

    def test_derivative_against_finite_difference(self):
        a = 0.3
        got = analytic_derivative("bare", a, 1.0)
        fd = central_diff(lambda t: probe_distance("bare", a, t), 1.0)
        assert got == pytest.approx(fd, abs=1e-6)


class TestControlledDistances:
    def test_distance_equals_trace_distance_of_closed_forms(self):
        rho1, rho2 = probe_pair(0.65)
        for t in (0.3, 1.0, 2.5):
            for p in (0.4, 1.0):
                d_path = trace_distance(
                    closed_form_output(path_config(p), rho1, t), closed_form_output(path_config(p), rho2, t)
                )
                assert probe_distance(path_config(p), 0.65, t) == pytest.approx(d_path, abs=1e-12)
                d_switch = trace_distance(
                    closed_form_output(switch_config(p), rho1, t), closed_form_output(switch_config(p), rho2, t)
                )
                assert probe_distance(switch_config(p), 0.65, t) == pytest.approx(d_switch, abs=1e-12)

    def test_distance_at_zero_time(self):
        for a in (0.3, 0.65):
            b = np.sqrt(1 - a * a)
            assert probe_distance(path_config(0.7), a, 0.0) == pytest.approx(b, abs=1e-12)
            assert probe_distance(switch_config(0.7), a, 0.0) == pytest.approx(b, abs=1e-12)


class TestPathDerivative:
    def test_backflow_sign_below_threshold(self):
        assert analytic_derivative(path_config(1.0), 0.65, 2.0) > 0.0

    def test_no_backflow_above_threshold(self):
        assert analytic_derivative(path_config(1.0), 0.9, 2.0) < 0.0

    def test_pure_control_bracket_identity(self):
        # the general bracket at p = 1, times x = e^{2t}, collapses to 16 times
        # the paper's 14a^2 - 15 - 3(2a^2-1)x
        for a in (0.2, 0.5, 0.65, 0.9):
            for t in (0.1, 0.8, 2.0, 4.0):
                _, bracket = detect._derivative_parts("path", a, 1.0, t)
                _, reduced = pure_control_parts("path", a, t)
                assert np.exp(2.0 * t) * bracket == pytest.approx(16.0 * reduced, rel=1e-10)

    def test_matches_pure_control_formula(self):
        ts = np.linspace(0.1, 5.0, 23)
        for a in (0.3, 0.65, 0.9):
            general = analytic_derivative(path_config(1.0), a, ts)
            reduced = np.prod(pure_control_parts("path", a, ts), axis=0)
            assert np.abs((general - reduced) / general).max() <= 1e-10

    def test_against_finite_difference(self):
        ts = np.linspace(0.05, 6.0, 40)
        for a in (0.2, 0.5, 0.65, 0.9):
            for p in (0.1, 0.5, 1.0):
                fd = central_diff(lambda t: probe_distance(path_config(p), a, t), ts)
                assert np.abs(fd - analytic_derivative(path_config(p), a, ts)).max() <= 1e-6

    def test_prefactor_positive_and_sign_carried_by_bracket(self):
        ts = np.linspace(0.05, 8.0, 30)
        for a in (0.2, 0.65, 0.95):
            for p in (0.2, 0.7, 1.0):
                prefactor, bracket = detect._derivative_parts("path", a, p, ts)
                assert np.all(prefactor > 0.0)
                assert np.all(np.sign(prefactor * bracket) == np.sign(bracket))


class TestSwitchDerivative:
    def test_no_backflow_above_threshold(self):
        assert analytic_derivative(switch_config(1.0), 0.65, 3.0) < 0.0

    def test_backflow_below_threshold(self):
        assert analytic_derivative(switch_config(1.0), 0.5, 3.0) > 0.0

    def test_small_time_always_negative(self):
        assert analytic_derivative(switch_config(1.0), 0.99, 0.01) < 0.0

    def test_against_finite_difference(self):
        ts = np.linspace(0.05, 6.0, 40)
        for a in (0.2, 0.5, 0.65, 0.9):
            for p in (0.1, 0.5, 1.0):
                fd = central_diff(lambda t: probe_distance(switch_config(p), a, t), ts)
                assert np.abs(fd - analytic_derivative(switch_config(p), a, ts)).max() <= 1e-6

    def test_matches_pure_control_formula(self):
        ts = np.linspace(0.1, 5.0, 23)
        for a in (0.3, 0.65, 0.9):
            general = analytic_derivative(switch_config(1.0), a, ts)
            reduced = np.prod(pure_control_parts("switch", a, ts), axis=0)
            assert np.abs((general - reduced) / general).max() <= 1e-10

    def test_pure_control_quartic_factors_through_quadratic(self):
        # at p = 1 the quartic bracket, times x^4 = e^{8t}, equals 16 times the
        # paper's hyperbolic quadratic times 2x (x^2 + 6x + 1), which is
        # positive, so the two brackets agree in sign everywhere
        ts = np.linspace(0.05, 6.0, 60)
        x = np.exp(2.0 * ts)
        for a in (0.2, 0.5, 0.63, 0.65, 0.9):
            quartic = x**4 * detect._derivative_parts("switch", a, 1.0, ts)[1]
            _, quadratic = pure_control_parts("switch", a, ts)
            factored = 16.0 * quadratic * 2.0 * x * (x * x + 6.0 * x + 1.0)
            away_from_roots = np.abs(quartic) > 1e-9
            rel = np.abs((quartic - factored)[away_from_roots] / quartic[away_from_roots])
            assert rel.max() < 1e-10
            assert np.array_equal(
                np.sign(quartic[away_from_roots]), np.sign(quadratic[away_from_roots])
            )

    def test_prefactor_positive(self):
        ts = np.linspace(0.05, 8.0, 30)
        for a in (0.2, 0.65, 0.95):
            for p in (0.2, 0.7, 1.0):
                prefactor, _ = detect._derivative_parts("switch", a, p, ts)
                assert np.all(prefactor > 0.0)


class TestSignCarriedByBracket:
    # every derivative form factors into a strictly positive prefactor times
    # a bracket, so the derivative sign is the bracket sign
    @pytest.mark.parametrize(
        "parts",
        [
            lambda a, t: detect._derivative_parts("bare", a, 1.0, t),
            lambda a, t: detect._derivative_parts("path", a, 0.6, t),
            lambda a, t: detect._derivative_parts("switch", a, 0.6, t),
            lambda a, t: pure_control_parts("path", a, t),
            lambda a, t: pure_control_parts("switch", a, t),
        ],
        ids=["bare", "path", "switch", "path-pure", "switch-pure"],
    )
    def test_positive_prefactor_and_sign_equality(self, parts):
        ts = np.linspace(0.02, 9.0, 45)
        for a in (0.15, 0.5, 0.65, 0.9):
            prefactor, bracket = parts(a, ts)
            assert np.all(prefactor > 0.0)
            derivative = prefactor * bracket
            nonzero = np.abs(derivative) > 0.0
            assert np.array_equal(np.sign(derivative[nonzero]), np.sign(bracket[nonzero]))


class TestSmallTimeRegime:
    def test_all_modes_negative(self):
        ts = np.linspace(1e-3, 0.05, 20)
        a_values = np.arange(0.05, 1.0, 0.05)
        p_values = (0.0, 0.3, 0.7, 1.0)
        for a in a_values:
            assert np.all(analytic_derivative("bare", a, ts) < 0.0)
            for p in p_values:
                assert np.all(analytic_derivative(path_config(p), a, ts) < 0.0)
                assert np.all(analytic_derivative(switch_config(p), a, ts) < 0.0)


class TestDetectBackflow:
    def test_bare_never(self):
        report = detect_backflow("bare", 0.65)
        assert not report.verdict
        assert report.backflow_intervals == []

    def test_path_pure_control(self):
        report = detect_backflow(path_config(1.0), 0.65)
        assert report.verdict
        assert len(report.backflow_intervals) == 1
        t_start, t_end = report.backflow_intervals[0]
        assert t_start > 1.0
        assert t_end > t_start
        assert not report.marginal

    def test_switch_pure_control(self):
        report = detect_backflow(switch_config(1.0), 0.65)
        assert not report.verdict

    def test_report_series_invariants(self):
        report = detect_backflow(path_config(1.0), 0.65)
        assert np.all(report.distance >= 0.0) and np.all(report.distance <= 1.0)
        assert report.fd_residual <= 1e-6
        assert len(report.times) == len(report.distance) == len(report.derivative)

    @pytest.mark.parametrize("mode", ["bare", "path", "switch"])
    def test_series_equal_the_public_forms(self, mode):
        # detect_backflow evaluates the closed-form terms once and shares
        # them; the series must equal the separately evaluated public forms
        # bit for bit, also where the radicands are rescaled (a = 1e-200)
        for t_max in (DEFAULT_T_MAX, 400.0):
            grid = log_time_grid(t_max=t_max)
            for a in (1e-200, 0.3, 0.65, 0.9):
                for p in (1.0,) if mode == "bare" else (0.0, 0.5, 1.0):
                    config = _config(mode, p)
                    report = detect_backflow(config, a, grid)
                    assert np.array_equal(report.distance, probe_distance(config, a, grid)), (a, p)
                    assert np.array_equal(report.derivative, analytic_derivative(config, a, grid)), (a, p)

    @pytest.mark.parametrize("mode", ["bare", "path", "switch"])
    @pytest.mark.parametrize("a", [1e-310, 5e-324])
    def test_subnormal_a_gives_finite_series(self, mode, a):
        # the radicand's scale stays a normal number below 2^-1022, where the
        # complex step's division by a subnormal scale would overflow
        report = detect_backflow(_config(mode, 0.0), a, log_time_grid(t_max=400.0))
        assert np.isfinite(report.distance).all() and np.isfinite(report.derivative).all()

    def test_marginal_flag_near_threshold(self):
        a_inside = 1.0 / np.sqrt(2.0) - 1e-4
        report = detect_backflow(path_config(1.0), a_inside)
        assert report.verdict
        assert report.marginal
        a_outside = 1.0 / np.sqrt(2.0) + 2e-4
        report = detect_backflow(path_config(1.0), a_outside)
        assert not report.verdict
        assert report.marginal

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError, match="t > 0"):
            detect_backflow("bare", 0.5, times=np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="increasing"):
            detect_backflow("bare", 0.5, times=np.array([1.0, 0.5]))

    def test_log_time_grid_refuses_a_bad_range_or_count(self):
        # the refusal names both bounds, so a caller that sets only one sees the other
        with pytest.raises(ValueError) as info:
            detect.log_time_grid(t_min=5.0, t_max=1.0)
        assert str(info.value) == "need 0 < t_min < t_max < inf, got t_min = 5.0, t_max = 1.0"
        with pytest.raises(ValueError, match="need at least two grid points"):
            detect.log_time_grid(points=1)

    @pytest.mark.parametrize(
        "times",
        [[np.nan, 0.1, 1.0], [0.1, np.nan, 1.0], [0.1, 1.0, np.nan], [0.1, 1.0, np.inf]],
        ids=["nan-first", "nan-middle", "nan-last", "inf-last"],
    )
    def test_rejects_non_finite_grid(self, times):
        # invalid input, not a failed check of the series
        for config in ("bare", path_config(0.5), switch_config(0.5)):
            with pytest.raises(ValueError, match="time grid"):
                detect_backflow(config, 0.3, times)

    def test_rejects_minus_outcome(self):
        config = path_config(1.0, outcome="minus")
        with pytest.raises(ValueError, match="plus outcome"):
            detect_backflow(config, 0.5)
        with pytest.raises(ValueError, match="plus outcome"):
            closed_form_output(config, probe_pair(0.5)[1], 1.0)
        with pytest.raises(ValueError, match="plus outcome"):
            asymptotic_threshold(config)

    def test_rejects_edge_a(self):
        with pytest.raises(ValueError):
            detect_backflow("bare", 1.0)

    def test_rejects_non_default_path_amplitudes(self):
        # the closed forms describe the default amplitudes only; for these
        # the supermap distance differs from the default-amplitude one
        amps = AmplitudeVectors(alpha=(1.0, 0.0, 0.0), beta=(0.0, 0.0, 1.0))
        config = path_config(1.0, amplitudes=amps)
        out1, out2 = (controlled_output(config, rho, 2.0)[0] for rho in probe_pair(0.65))
        assert abs(trace_distance(out1, out2) - float(probe_distance(path_config(1.0), 0.65, 2.0))) > 1e-2
        for call in (detect_backflow, probe_distance):
            with pytest.raises(ValueError, match="default path amplitudes"):
                call(config, 0.65, np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="default path amplitudes"):
            analytic_derivative(config, 0.65, 2.0)
        with pytest.raises(ValueError, match="default path amplitudes"):
            closed_form_output(config, probe_pair(0.65)[1], 2.0)
        with pytest.raises(ValueError, match="default path amplitudes"):
            asymptotic_threshold(config)

    def test_doors_check_p_of_an_untyped_control(self):
        # ControlConfig refuses a p that is not a number, so every config the
        # doors see carries a p already checked to lie in [0, 1]
        with pytest.raises(TypeError):
            ControlConfig("path", SimpleNamespace(p=5.0), SUPERMAPS["path"].amplitudes)

    @pytest.mark.parametrize("eps", [float("nan"), -1.0, float("inf")])
    def test_rejects_eps_not_finite_and_nonnegative(self, eps):
        for config in ("bare", path_config(1.0)):
            with pytest.raises(ValueError, match="eps must be finite and >= 0"):
                detect_backflow(config, 0.5, eps=eps)


class TestComplexStepCheck:
    @pytest.mark.parametrize("a", [0.001, 0.005, 0.01, 0.019])
    def test_small_a_passes(self, a):
        # the kink of width ~a in D(t) broke the h = 1e-4 central difference;
        # the complex step has no subtraction, so it stays exact to rounding
        for config in (path_config(1.0), switch_config(1.0), path_config(0.1), switch_config(0.1)):
            assert detect_backflow(config, a).fd_residual <= 1e-12

    @pytest.mark.parametrize("mode", ["bare", "path", "switch"])
    @pytest.mark.parametrize("part, scale", [("prefactor", 1.001), ("bracket", 1.0 + 1e-6)])
    def test_perturbed_formula_raises(self, monkeypatch, mode, part, scale):
        # the tolerance is absolute, so a 1e-6 relative error shows where
        # |dD/dt| exceeds 1, as it does early on at a = 0.3
        config = _config(mode, 0.5)
        assert detect_backflow(config, 0.3).fd_residual <= 1e-12
        # the one generic prefactor, or the bracket derived from the row
        name = {"prefactor": "_prefactor", "bracket": "_bracket_coeffs"}[part]
        original = getattr(detect, name)
        if part == "prefactor":
            patched = lambda *args: scale * original(*args)
        else:
            patched = lambda m, *args: tuple((scale if m == mode else 1.0) * c for c in original(m, *args))
        monkeypatch.setattr(detect, name, patched)
        with pytest.raises(RuntimeError, match="complex-step"):
            detect_backflow(config, 0.3)

    @pytest.mark.parametrize("mode", ["bare", "path", "switch"])
    def test_bracket_error_raises_where_the_derivative_is_small(self, monkeypatch, mode):
        # at a = 0.9, p = 1 every |dD/dt| stays below 1, so a 1e-6 relative
        # bracket error is an absolute error below 1e-6; FD_CHECK_TOL must see it
        config = _config(mode, 1.0)
        assert np.abs(detect_backflow(config, 0.9).derivative).max() < 1.0
        original = detect._bracket_coeffs
        monkeypatch.setattr(
            detect, "_bracket_coeffs", lambda m, *args: tuple((1.0 + 1e-6) * c for c in original(m, *args))
        )
        with pytest.raises(RuntimeError, match="complex-step"):
            detect_backflow(config, 0.9)

    @pytest.mark.parametrize("mode", ["path", "switch"])
    def test_late_range_keeps_the_verdict(self, mode):
        for p in (0.2, 0.6, 1.0):
            for a in (0.005, 0.1, 0.3, 0.5, 0.65, 0.9):
                short = detect_backflow(_CONFIGS[mode](p), a)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    long = detect_backflow(_CONFIGS[mode](p), a, log_time_grid(t_max=400.0))
                assert long.verdict == short.verdict, (mode, p, a)


def _reference_distance(mp, mode, a, p, t):
    """D(t) from the x = e^{2t} forms of the weights, in mpmath arithmetic,
    whose exponent range holds e^{1400}."""
    a, p, t = mp.mpf(a), mp.mpf(p), mp.mpf(t)
    x, b2 = mp.exp(2 * t), 1 - a * a
    if mode == "bare":
        return mp.exp(-2 * t) * mp.sqrt(b2 * (4 - 3 * a * a + 2 * a * a * x + a * a * x * x)) / 2
    if mode == "path":
        den = (4 + p) * x - p
        w_a, w_b = 2 * (x + 1) / den, (x - 1) / den
        return mp.sqrt(b2 * (b2 * (2 * w_a - 1) ** 2 + a * a * (w_a + p * w_b) ** 2))
    den = (4 + 3 * p) * x * x + 2 * p * x - p
    w_a = ((2 + p) * x * x + 2 * p * x + p + 2) / den
    w_b = 2 * (1 + p) * (x * x - 1) / den
    w_c = ((1 + 2 * p) * x * x + 2 * x + 2 * p + 1) / den
    return mp.sqrt(b2 * (b2 * (w_a - w_b) ** 2 + a * a * w_c * w_c))


class TestLargeTimeReference:
    TIMES = np.concatenate([[0.0], np.geomspace(1e-3, 700.0, 40)])

    @pytest.fixture
    def mp(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        return mpmath.mp

    @pytest.mark.parametrize("mode", ["bare", "path", "switch"])
    def test_forms_match_50_digit_reference(self, mp, mode):
        # at a = 1e-200, a * a underflows; the forms rescale their radicand by
        # a power of two, which p = 0 needs once u underflows too
        for a in (1e-200, 0.005, 0.3, 0.5, 0.9):
            for p in (0.0,) if mode == "bare" else (0.0, 0.5, 1.0):
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    dist = probe_distance(_config(mode, p), a, self.TIMES)
                    prefactor, bracket = detect._derivative_parts(mode, a, p, self.TIMES)
                    deriv = analytic_derivative(_config(mode, p), a, self.TIMES)
                assert np.all(np.isfinite(prefactor)) and np.all(np.isfinite(bracket))
                # the x-form weights cancel down to terms of size e^{-2t}, which
                # at a = 1e-200 must resolve far below a: 50 digits do not
                with mp.workdps(250 if a < 1e-100 else 50):
                    ref = [_reference_distance(mp, mode, a, p, t) for t in self.TIMES]
                    ref_deriv = [mp.diff(lambda s: _reference_distance(mp, mode, a, p, s), mp.mpf(t)) for t in self.TIMES]
                ref, ref_deriv = np.array(ref, dtype=float), np.array(ref_deriv, dtype=float)
                assert np.all(np.abs(dist - ref) <= 1e-15 * ref), (a, p)
                assert np.all(np.abs(deriv - ref_deriv) <= 2e-15 * np.abs(ref_deriv).max()), (a, p)

    def test_late_time_limits(self):
        limits = {"bare": np.sqrt(3.0) / 8.0, "path": 0.3, "switch": 3.0 / 14.0}
        for mode, limit in limits.items():
            assert probe_distance(_config(mode, 1.0), 0.5, 700.0) == pytest.approx(limit, rel=1e-15)
            assert analytic_derivative(_config(mode, 1.0), 0.5, 700.0) == 0.0


class TestProbeDistanceTimes:
    @pytest.mark.parametrize("t", [-1.0, np.nan, np.array([-2.0, -0.5, 1.0])])
    def test_rejects_negative_and_nan_times(self, t):
        for call in (probe_distance, analytic_derivative):
            for config in ("bare", path_config(1.0), switch_config(0.5)):
                with pytest.raises(ValueError, match="non-negative"):
                    call(config, 0.5, t)


_RHO = np.diag([0.75, 0.25]).astype(complex)
# every door through which a time enters, each reaching channel._decay
_TIME_DOORS = {
    "phi_t_kraus": phi_t_kraus,
    "closed_form_output": lambda t: closed_form_output(switch_config(0.5), _RHO, t),
    "controlled_output": lambda t: controlled_output(path_config(0.5), _RHO, t),
    "probe_distance": lambda t: probe_distance(path_config(0.5), 0.5, t),
    "analytic_derivative": lambda t: analytic_derivative(switch_config(0.5), 0.5, t),
    "_derivative_parts": lambda t: detect._derivative_parts("bare", 0.5, 1.0, t),
}
_ARRAY_DOORS = ("probe_distance", "analytic_derivative", "_derivative_parts")


class TestOneClock:
    @pytest.mark.parametrize(
        "door, t",
        [pytest.param(door, t, id=f"{door}-{t}") for door in _TIME_DOORS for t in (-1.0, np.nan)]
        + [
            pytest.param(door, np.array(t), id=f"{door}-array-{t[0]}")
            for door in _ARRAY_DOORS
            for t in ([-1.0, 0.5], [np.nan, 1.0])
        ],
    )
    def test_every_door_refuses_negative_and_nan_times(self, door, t):
        with pytest.raises(ValueError, match="time must be non-negative"):
            _TIME_DOORS[door](t)

    def test_each_door_keeps_its_check_order(self):
        # t before a in probe_distance, a before t in analytic_derivative,
        # and t before the qubit shape in closed_form_output
        with pytest.raises(ValueError, match="time must be non-negative"):
            probe_distance("bare", 2.0, -1.0)
        with pytest.raises(ValueError, match="probe parameter a"):
            analytic_derivative("bare", 2.0, -1.0)
        with pytest.raises(ValueError, match="time must be non-negative"):
            closed_form_output("bare", np.eye(4) / 4, -1.0)


class TestModeTable:
    def test_formulas_called_through_module_globals(self, monkeypatch):
        # wrappers installed on the module (as a tracer does) must see every
        # call; the generic terms and the derived bracket are counted per
        # mode, from their first argument
        calls = {}

        def count(name, original, key=lambda args: None):
            def counted(*args):
                mode = key(args)
                label = name if mode is None else f"{mode}:{name}"
                calls[label] = calls.get(label, 0) + 1
                return original(*args)

            # the scan's peak lookup reads the bracket inside poly, so each
            # name poly binds is counted there too
            for module in (detect, poly) if hasattr(poly, name) else (detect,):
                monkeypatch.setattr(module, name, counted)

        for name in ("_terms", "_bracket_coeffs", "_peak"):
            count(name, getattr(detect, name), key=lambda args: args[0])
        count("_prefactor", detect._prefactor)
        scan_region(np.array([0.5]), np.array([1.0]))
        # one peak lookup per mode, which reads B_x and B_z as the bracket at
        # a = 1 and a = 0 in one call
        assert calls == {"path:_peak": 1, "switch:_peak": 1, "path:_bracket_coeffs": 1, "switch:_bracket_coeffs": 1}
        del calls["path:_peak"], calls["switch:_peak"]
        analytic_derivative(path_config(1.0), 0.5, 1.0)
        analytic_derivative(switch_config(1.0), 0.5, 1.0)
        # each derivative is the generic prefactor of the row's terms times
        # the bracket derived from the row
        derivative_calls = {
            "path:_bracket_coeffs": 2,
            "switch:_bracket_coeffs": 2,
            "path:_terms": 1,
            "switch:_terms": 1,
            "_prefactor": 2,
        }
        assert calls == derivative_calls
        # detect_backflow computes the terms once, at t + ih: their real parts
        # serve the distance and the derivative, their imaginary parts the
        # complex step; the bracket once, shared by the derivative and the windows
        detect_backflow(path_config(1.0), 0.5)
        assert calls["path:_terms"] == 2 and calls["_prefactor"] == 3 and calls["path:_bracket_coeffs"] == 3

class TestThresholds:
    def test_pure_control_values(self):
        assert asymptotic_threshold(path_config(1.0)) == pytest.approx(1.0 / np.sqrt(2.0))
        assert asymptotic_threshold(switch_config(1.0)) == pytest.approx(np.sqrt(0.4))

    def test_fully_mixed_control(self):
        assert asymptotic_threshold(path_config(0.0)) == 0.0
        assert asymptotic_threshold(switch_config(0.0)) == 0.0

    def test_bare_channel_reads_zero_from_its_row(self):
        # the bare row's u^0 coefficients give B_z / (B_z - B_x) = 0
        assert asymptotic_threshold("bare") == 0.0
        assert empirical_threshold("bare") == 0.0

    @pytest.mark.parametrize("mode", ["path", "switch"])
    def test_reads_the_u0_row_as_the_peak_over_zero(self, mode):
        # _peak over [0, 0] is the oracle: u = 0 leaves each bracket its u^0
        # coefficient, so the row read alone must give the same bits at
        # corner, subnormal, uniform and log-uniform p
        rng = np.random.default_rng(31)
        corners = [0.0, 1.0, 5e-324, 1e-300, 1e-200, 1e-160, 0.5, 0.7999999999999999]
        p_grid = np.concatenate((corners, rng.uniform(0.0, 1.0, 2000), 10.0 ** rng.uniform(-320.0, 0.0, 500)))
        b_x, b_z = detect._peak(mode, p_grid, 0.0, 0.0)
        expected = [math.sqrt(max(0.0, z / (z - x))) for x, z in zip(b_x.tolist(), b_z.tolist())]
        got = [asymptotic_threshold(_config(mode, p)) for p in p_grid.tolist()]
        assert np.array_equal(np.array(got).view(np.int64), np.array(expected).view(np.int64))
        assert detect._peak("bare", np.array([0.0]), 0.0, 0.0)[1].tolist() == [0.0]
        assert asymptotic_threshold("bare") == 0.0

    def test_path_dominates_switch(self):
        for p in np.linspace(0.05, 1.0, 20):
            assert asymptotic_threshold(path_config(p)) >= asymptotic_threshold(switch_config(p))

    def test_monotone_in_p(self):
        ps = np.linspace(0.0, 1.0, 41)
        for config in _CONFIGS.values():
            vals = [asymptotic_threshold(config(p)) for p in ps]
            assert np.all(np.diff(vals) >= 0.0)

    def test_empirical_matches_analytic(self):
        for config in _CONFIGS.values():
            for p in (0.4, 1.0):
                emp = empirical_threshold(config(p), a_step=5e-4)
                assert abs(emp - asymptotic_threshold(config(p))) <= 1e-3

    def test_unknown_mode(self):
        for threshold in (asymptotic_threshold, empirical_threshold):
            with pytest.raises(ValueError, match="string config must be 'bare'"):
                threshold("serial")
            # a supermap is configured through a ControlConfig, not by name
            with pytest.raises(ValueError, match="string config must be 'bare'"):
                threshold("path")

    @pytest.mark.parametrize("a_step", [-0.1, 2.0, 0.0, float("nan"), 1.0])
    def test_empirical_step_outside_unit_interval(self, a_step):
        # at p = 0.5 the threshold is 0.577: no step outside (0, 1) may
        # report "no late-time backflow" (0.0) or fail inside numpy
        with pytest.raises(ValueError, match="a_step must be in"):
            empirical_threshold(path_config(0.5), a_step=a_step)

    @pytest.mark.parametrize(
        "mode, p, a_step, want",
        [("path", 0.5, 0.6, 0.3), ("path", 1.0, 0.9, 0.45), ("switch", 1.0, 0.7, 0.35), ("switch", 0.0, 0.6, 0.0)],
    )
    def test_empirical_step_coarser_than_the_threshold(self, mode, p, a_step, want):
        # no scanned a is positive; the a -> 0 limit of the bracket tells an
        # edge below the first sample (a_step / 2) from none at all (0.0)
        emp = empirical_threshold(_config(mode, p), a_step=a_step)
        assert emp == want
        assert abs(emp - asymptotic_threshold(_config(mode, p))) <= a_step / 2


class TestScanRegion:
    def test_spot_cells(self):
        scan = scan_region(np.array([0.5, 0.65, 0.9]), np.array([1.0]))
        path_row, switch_row = scan.backflow_path[0], scan.backflow_switch[0]
        assert path_row.tolist() == [True, True, False]
        assert switch_row.tolist() == [True, False, False]

    def test_mixed_control_cell(self):
        scan = scan_region(np.array([0.5]), np.array([0.5]))
        assert scan.backflow_path[0, 0]
        assert not scan.backflow_switch[0, 0]

    def test_containment_on_coarse_grid(self):
        a_grid = np.linspace(0.02, 0.98, 25)
        p_grid = np.linspace(0.0, 1.0, 21)
        scan = scan_region(a_grid, p_grid)
        assert not np.any(scan.backflow_switch & ~scan.backflow_path)

    @pytest.mark.parametrize("t_max", [12.0, 4.0])
    def test_every_cell_matches_detect_backflow(self, t_max):
        # from the scan's default a_min: the complex-step check holds at every a
        a_grid = np.linspace(0.005, 0.9, 17)
        p_grid = np.linspace(0.0, 1.0, 11)
        times = log_time_grid(DEFAULT_T_MIN, t_max)
        scan = scan_region(a_grid, p_grid, t_max=t_max)
        for verdicts, config in ((scan.backflow_path, path_config), (scan.backflow_switch, switch_config)):
            expected = [[detect_backflow(config(p), a, times).verdict for a in a_grid] for p in p_grid]
            assert verdicts.tolist() == expected

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            scan_region(np.array([0.0, 0.5]), np.array([0.5]))
        verdicts = np.zeros((3, 2), dtype=bool)
        with pytest.raises(ValueError, match=r"verdict matrices must have shape \(len\(p_grid\), len\(a_grid\)\)"):
            detect.RegionScan(np.zeros(2), np.zeros(3), verdicts, verdicts.T)
        with pytest.raises(ValueError):
            scan_region(np.array([0.5]), np.array([1.5]))
        for t_max in (DEFAULT_T_MIN, np.inf, np.nan):
            with pytest.raises(ValueError, match="t_min < t_max"):
                scan_region(np.array([0.5]), np.array([0.5]), t_max=t_max)

    def test_late_range_keeps_every_window(self):
        # [t_min, 400] contains [t_min, 12]; e^{-800} underflows to 0 quietly
        a_grid, p_grid = np.linspace(0.005, 0.995, 60), np.linspace(0.0, 1.0, 40)
        short = scan_region(a_grid, p_grid, t_max=12.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            long = scan_region(a_grid, p_grid, t_max=400.0)
        for mode in ("path", "switch"):
            assert not np.any(getattr(short, f"backflow_{mode}") & ~getattr(long, f"backflow_{mode}"))
        assert long.backflow_path[-1, 0] and long.backflow_switch[-1, 0]

    @pytest.mark.parametrize("t_max", [0.75, 12.0, 400.0])
    def test_tiny_p_scan_is_quiet(self, t_max):
        # at this p the switch's bracket has spurious critical points near 2e86
        # and -3e102, where u^4 overflows: the scan may evaluate the bracket
        # only inside its range
        a_grid, p_grid = np.array([1e-100, 0.5]), np.array([1.0496596229523014e-102])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scan = scan_region(a_grid, p_grid, t_max=t_max)
        for mode in _CONFIGS:
            assert np.array_equal(getattr(scan, f"backflow_{mode}"), _cell_verdicts(mode, a_grid, p_grid, t_max))

    def test_path_peak_is_at_u_lo(self):
        # the path's W is a positive constant (tests/test_symbolic.py), so its r
        # falls in u: the scan reads B_x and B_z at u_lo wherever B_z > 0 there
        p_grid = np.linspace(0.0, 1.0, 41)
        for t_max in (0.75, 1.0, 12.0, 400.0):
            u_lo, u_hi = detect._u_range(DEFAULT_T_MIN, t_max)
            b_x, b_z = detect._peak("path", p_grid, u_lo, u_hi)
            at_lo = [poly._horner(detect._bracket_coeffs("path", a_, p_grid), u_lo) for a_ in (1.0, 0.0)]
            positive = at_lo[1] > 0.0
            assert np.array_equal(b_x[positive], at_lo[0][positive])
            assert np.array_equal(b_z[positive], at_lo[1][positive])
            # no row without B_z > 0 at u_lo has it anywhere in the range
            assert not (b_z[~positive] > 0.0).any()

    def test_late_scan_reads_the_late_time_threshold(self):
        # measured through the scan: with t_max 400 the window reaches
        # u = 0, and the path's r = B_z / (B_z - B_x) falls in u, so its peak
        # is the late-time value at every p; the switch's equals it from
        # p ~ 0.79 on
        a_grid = np.linspace(0.005, 0.995, 199)
        for mode, p_grid in (("path", np.linspace(0.05, 1.0, 20)), ("switch", np.linspace(0.8, 1.0, 21))):
            verdicts = getattr(scan_region(a_grid, p_grid, t_max=400.0), f"backflow_{mode}")
            for p, row in zip(p_grid, verdicts):
                assert np.array_equal(row, a_grid < asymptotic_threshold(_config(mode, p))), (mode, p)

    def test_switch_backflow_above_its_late_time_threshold(self):
        # at p = 0.1 the switch's r peaks at mid times, so a = 0.12 has
        # backflow over [t_min, 400] above the late-time threshold 0.0933;
        # its one window closes long before the late tail
        assert asymptotic_threshold(switch_config(0.1)) < 0.12
        assert scan_region(np.array([0.12]), np.array([0.1]), t_max=400.0).backflow_switch[0, 0]
        report = detect_backflow(switch_config(0.1), 0.12, log_time_grid(DEFAULT_T_MIN, 400.0))
        ((start, end),) = report.backflow_intervals
        assert start == pytest.approx(1.187, abs=1e-3) and end == pytest.approx(1.929, abs=1e-3)


def _a_star(mode, p, t_max):
    """a*(p, t_max), below which [DEFAULT_T_MIN, t_max] shows backflow: the
    root of r = B_z / (B_z - B_x) at the u where detect._peak finds it peaks,
    or 0 where B_z > 0 nowhere in the window."""
    b_x, b_z = (float(b[0]) for b in detect._peak(mode, np.array([p]), *detect._u_range(DEFAULT_T_MIN, t_max)))
    return math.sqrt(b_z / (b_z - b_x)) if b_z > 0.0 else 0.0


class TestWholeWindowThreshold:
    """a*(p, t_max) read through detect._peak, pinned as measurements."""

    @pytest.mark.parametrize("t_max", [0.75, 3.0, 12.0, 400.0])
    @pytest.mark.parametrize("mode", ["path", "switch"])
    def test_bounds_the_sampled_peak(self, mode, t_max):
        # a* is at least the largest r on a 10^5-point t grid of step h, and
        # above it by the grid's sampling error: missing the peak by up to h/2
        # costs O(h^2) in r (measured: 0 for path, up to 2.8 h^2 for switch)
        times, h = np.linspace(DEFAULT_T_MIN, t_max, 10**5, retstep=True)
        u = np.exp(-2.0 * times)
        for p in (1e-3, 0.1, 0.5, 1.0):
            b_x, b_z = (poly._horner(detect._bracket_coeffs(mode, a, p), u) for a in (1.0, 0.0))
            sampled = math.sqrt(np.divide(b_z, b_z - b_x, out=np.zeros_like(b_z), where=b_z > 0.0).max())
            a_star = _a_star(mode, p, t_max)
            assert a_star >= sampled, (p, a_star, sampled)
            assert a_star - sampled <= 5.0 * h * h * a_star, (p, a_star, sampled)
            if mode == "path":
                assert a_star == sampled

    @pytest.mark.parametrize("p, t_cross", [(1.0, 1.09), (0.5, 1.33), (0.1, 1.96), (0.01, 3.03), (1e-5, 6.45)])
    def test_path_contains_switch_only_past_a_p_dependent_time(self, p, t_cross):
        # the last t_max at which the switch's a* exceeds the path's grows
        # by about ln(10) / 2 per decade of p
        assert _a_star("path", p, t_cross - 0.05) < _a_star("switch", p, t_cross - 0.05)
        assert _a_star("path", p, t_cross + 0.05) >= _a_star("switch", p, t_cross + 0.05)

    def test_short_window_at_pure_control(self):
        # the switch's z rise starts before the path's, at p = 1
        assert _a_star("path", 1.0, 0.75) == 0.0
        assert _a_star("switch", 1.0, 0.75) == pytest.approx(0.3200926632, abs=1e-10)

    @pytest.mark.parametrize("p, whole, late", [(0.1, 0.1362, 0.0933), (1e-3, 0.0049, 0.0010)])
    def test_switch_whole_window_exceeds_its_late_time_value(self, p, whole, late):
        # the README's values: the switch's r peaks at mid times below p ~ 0.79
        for t_max in (3.0, 12.0, 400.0):
            assert round(_a_star("switch", p, t_max), 4) == whole
        assert round(asymptotic_threshold(switch_config(p)), 4) == late

    @pytest.mark.parametrize("t_max", [12.0, 400.0])
    def test_switch_slope_at_small_p(self, t_max):
        # a* of the switch goes as p^{3/4} as p -> 0: the local log-log slope
        # over p * 1.1^{+-1} is 0.75000 at 1e-12, 0.74978 at 1e-6 and 0.728 at
        # 1e-2, and a* / p^{3/4} tends to 0.8774 (a*^2 to 0.770 p^{3/2})
        for p in (1e-12, 1e-10, 1e-8, 1e-6):
            slope = math.log(_a_star("switch", 1.1 * p, t_max) / _a_star("switch", p / 1.1, t_max)) / (2.0 * math.log(1.1))
            assert abs(slope - 0.75) <= 1e-3, (p, slope)
            assert _a_star("switch", p, t_max) / p**0.75 == pytest.approx(0.8774, abs=5e-4)


def _breakpoints(coeffs, u_lo, u_hi):
    """(point, inside) pairs: both ends of [u_lo, u_hi], and each candidate
    critical point of the bracket (a root of its derivative, padded to a
    cubic) flagged with whether it lies strictly inside.  The coefficients
    are numpy arrays or numpy scalars, so a zero leading one divides to inf
    or NaN."""
    slopes = [k * c for k, c in enumerate(coeffs)][1:]
    candidates = poly._cubic_candidates(slopes, 0.0 * slopes[-1])
    return [(u_lo, True), (u_hi, True), *((u, (u > u_lo) & (u < u_hi)) for u in candidates)]


def _cell_verdicts(mode, a_grid, p_grid, t_max):
    """Per-cell oracle of ``scan_region``: every cell of the grid decided on
    its own, from the bracket at both ends of [DEFAULT_T_MIN, t_max] and at
    its critical points inside, in one vectorized pass over the grid."""
    u_lo, u_hi = detect._u_range(DEFAULT_T_MIN, t_max)
    a, p = np.asarray(a_grid, dtype=float)[None, :], np.asarray(p_grid, dtype=float)[:, None]
    coeffs = detect._bracket_coeffs(mode, a, p)
    # a spurious candidate far outside the range can overflow the bracket (at
    # p = 1.0496596229523014e-102, say); it is not inside, so it decides nothing
    with np.errstate(over="ignore"):
        verdicts = np.logical_or.reduce(
            [inside & (poly._horner(coeffs, u) > 0.0) for u, inside in _breakpoints(coeffs, u_lo, u_hi)]
        )
    return np.broadcast_to(verdicts, (p.size, a.size))


SCAN_T_MAX = [0.75, 1.09, 12.0, 400.0]


@st.composite
def _scan_grids(draw):
    """Unsorted a grids with duplicates, a = 1 and the late-time thresholds
    of the drawn p to one ulp either side; p grids with 0, 1e-300, 1e-12 and
    1; either axis may be empty."""
    p_grid = draw(st.lists(st.one_of(st.sampled_from([0.0, 1e-300, 1e-12, 1.0]), st.floats(0.0, 1.0)), max_size=6))
    near = [1.0]
    for p in p_grid:
        for mode in _CONFIGS:
            threshold = asymptotic_threshold(_config(mode, p))
            if threshold > 0.0:
                near += [np.nextafter(threshold, 0.0), threshold, np.nextafter(threshold, 1.0)]
    a_grid = draw(st.lists(st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.sampled_from(near)), max_size=30))
    if a_grid:
        a_grid += draw(st.lists(st.sampled_from(a_grid), max_size=5))
    return np.array(a_grid, dtype=float), np.array(p_grid, dtype=float), draw(st.sampled_from(SCAN_T_MAX))


class TestRowSearch:
    """scan_region decides each p row by the bracket's sign at the one u where
    B_z / (B_z - B_x) peaks; it must give the per-cell verdict of every cell
    drawn here, late-time thresholds +- 1 ulp included.  Only a within a few
    ulps of a row's boundary can tell the two apart."""

    @settings(max_examples=200, deadline=None)
    @given(grids=_scan_grids())
    def test_search_equals_the_cell_oracle(self, grids):
        a_grid, p_grid, t_max = grids
        scan = scan_region(a_grid, p_grid, t_max=t_max)
        for mode in _CONFIGS:
            verdicts = getattr(scan, f"backflow_{mode}")
            assert verdicts.shape == (p_grid.size, a_grid.size)
            assert np.array_equal(verdicts, _cell_verdicts(mode, a_grid, p_grid, t_max)), mode

    @pytest.mark.parametrize("t_max", SCAN_T_MAX)
    def test_oracle_is_monotone_along_every_row(self, t_max):
        # the per-cell oracle, too, gives each row of increasing a one run of
        # backflow cells, up to a few ulps of its boundary
        a_grid = np.linspace(0.005, 0.995, 1000)
        p_grid = np.concatenate([np.linspace(0.0, 1.0, 60), [1e-300, 1e-12, 1e-6]])
        for mode in _CONFIGS:
            verdicts = _cell_verdicts(mode, a_grid, p_grid, t_max)
            assert not np.any(verdicts[:, 1:] & ~verdicts[:, :-1]), mode
            for p, row in zip(p_grid, verdicts):
                if row.all() or not row.any():
                    continue
                # bisect the float bit patterns of the last True and first False
                lo, hi = a_grid[row.argmin() - 1 : row.argmin() + 1].view(np.int64)
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if _cell_verdicts(mode, np.array([mid]).view(float), [p], t_max)[0, 0]:
                        lo = mid
                    else:
                        hi = mid
                # at float resolution the bracket near the boundary is rounding
                # noise, and the verdict may flip back within a few ulps of it
                # (3 at most, seen at t_max 0.75 and 1.09): only a grid with two
                # a that close to a boundary can tell the scan from the oracle
                near = _cell_verdicts(mode, np.arange(lo - 63, hi + 64).view(float), [p], t_max)[0]
                assert near[:56].all() and not near[-56:].any(), (mode, p)


def _intervals_above(times, values, eps):
    """Sampled oracle: contiguous grid runs where values > eps, as
    (t_start, t_end) pairs."""
    above = values > eps
    intervals = []
    start = None
    for i, flag in enumerate(above):
        if flag and start is None:
            start = times[i]
        elif not flag and start is not None:
            intervals.append((float(start), float(times[i - 1])))
            start = None
    if start is not None:
        intervals.append((float(start), float(times[-1])))
    return intervals


_CONFIGS = {"path": path_config, "switch": switch_config}


def _config(mode, p):
    """The configuration of a mode at control parameter p; bare has none."""
    return "bare" if mode == "bare" else _CONFIGS[mode](p)


def _bracket_at(mode, a, p, t):
    """The bracket of a mode sampled at times t."""
    return detect._derivative_parts(mode, a, p, t)[1]


def _reference_verdict(coeffs, t_lo, t_hi):
    """np.roots reference: the bracket, ascending in u = e^{-2t}, at both ends
    of the range and at every real critical point inside it."""
    u_lo, u_hi = np.exp(-2.0 * t_hi), np.exp(-2.0 * t_lo)
    poly = np.array(coeffs[::-1], dtype=float)
    crit = np.roots(np.polyder(poly))
    real = crit[np.abs(crit.imag) <= 1e-9].real
    points = [u_lo, u_hi, *real[(real > u_lo) & (real < u_hi)]]
    return bool(np.max(np.polyval(poly, points)) > 0.0)


def _reference_windows(coeffs, t_lo, t_hi):
    """np.roots reference windows: the real roots of the bracket inside the
    range split it into pieces, kept where the bracket is positive."""
    poly = np.array(coeffs[::-1], dtype=float)
    roots = np.roots(poly)
    real = roots[np.abs(roots.imag) <= 1e-9].real
    real = real[real > 0.0]
    ts = np.sort(-0.5 * np.log(real))
    edges = [t_lo, *ts[(ts > t_lo) & (ts < t_hi)], t_hi]
    windows = []
    for t0, t1 in zip(edges, edges[1:]):
        if np.polyval(poly, np.exp(-(t0 + t1))) > 0.0:
            if windows and windows[-1][1] == t0:
                windows[-1] = (windows[-1][0], t1)
            else:
                windows.append((t0, t1))
    return windows


class TestExactWindows:
    A_GRID = np.linspace(0.005, 0.995, 60)
    P_GRID = np.linspace(0.0, 1.0, 40)

    @pytest.mark.parametrize("t_max", [4.0, 12.0])
    def test_sampled_oracle(self, t_max):
        times = log_time_grid(DEFAULT_T_MIN, t_max)
        fine = log_time_grid(DEFAULT_T_MIN, t_max, 20001)
        scan = scan_region(self.A_GRID, self.P_GRID, t_max=t_max)
        assert not np.any(scan.backflow_switch & ~scan.backflow_path)
        for mode in _CONFIGS:
            exact = getattr(scan, f"backflow_{mode}")
            pre, br = detect._derivative_parts(mode, self.A_GRID[None, :, None], self.P_GRID[:, None, None], times)
            deriv = pre * br
            sampled = np.array([[bool(_intervals_above(times, d, BACKFLOW_EPS)) for d in row] for row in deriv])
            assert not np.any(sampled & ~exact)
            # no window: the derivative is not positive at any sample
            assert np.all(deriv[~exact] <= 0.0)
            # a window the samples miss is either narrower than a grid step
            # or peaks in (0, eps]; the fine grid finds it either way
            for i, j in zip(*np.nonzero(exact & ~sampled)):
                assert deriv[i, j].max() <= BACKFLOW_EPS
                assert np.any(_bracket_at(mode, self.A_GRID[j], self.P_GRID[i], fine) > 0.0)

    def _degenerate_cells(self):
        # the u^4 coefficient vanishes at p = 0, dropping the switch quartic's
        # top term (and nearly so for tiny p); the u^0 coefficient vanishes at
        # a^2 = 2p^2/(3p+2), which puts a root of the x-form at x = infinity
        cells = [(a, p) for a in self.A_GRID[::4] for p in (0.0, 1e-300, 1e-12, 1e-8, 1e-4)]
        return cells + [(float(np.sqrt(2.0 * p * p / (3.0 * p + 2.0))), float(p)) for p in np.linspace(0.05, 1.0, 20)]

    @pytest.mark.parametrize("t_max", [4.0, 12.0, 400.0])
    def test_degenerate_lines_match_np_roots(self, t_max):
        for a, p in self._degenerate_cells():
            scan = scan_region(np.array([a]), np.array([p]), t_max=t_max)
            for mode in _CONFIGS:
                expected = _reference_verdict(detect._bracket_coeffs(mode, a, p), DEFAULT_T_MIN, t_max)
                assert bool(getattr(scan, f"backflow_{mode}")[0, 0]) == expected, (mode, a, p)

    def test_degenerate_lines_keep_every_critical_point(self):
        u_lo, u_hi = np.exp(-2.0 * DEFAULT_T_MAX), np.exp(-2.0 * DEFAULT_T_MIN)
        for a, p in self._degenerate_cells():
            coeffs = detect._bracket_coeffs("switch", a, p)
            crit = np.roots(np.polyder(np.array(coeffs[::-1])))
            crit = crit[np.abs(crit.imag) <= 1e-9].real
            found = np.array([float(u) for u, inside in _breakpoints(np.float64(coeffs), u_lo, u_hi) if inside])
            assert np.all(np.isfinite(found))
            poly = np.array(coeffs[::-1])
            for r in crit[(crit > u_lo) & (crit < u_hi)]:
                # the bracket is flat at a critical point, so a location off
                # by 1e-6 relative still gives its extreme value to rounding
                nearest = found[np.argmin(np.abs(found - r))]
                assert abs(nearest - r) <= 1e-6 * r, (a, p, r, found)
                scale = np.polyval(np.abs(poly), r)
                assert abs(np.polyval(poly, nearest) - np.polyval(poly, r)) <= 1e-14 * scale

    def test_detect_windows_on_degenerate_line_match_np_roots(self):
        times = log_time_grid()
        nonempty = 0
        for a, p in self._degenerate_cells():
            windows = detect_backflow(switch_config(p), a, times).backflow_intervals
            expected = _reference_windows(detect._bracket_coeffs("switch", a, p), times[0], times[-1])
            assert len(windows) == len(expected), (a, p)
            if windows:
                assert np.allclose(windows, expected, rtol=1e-9, atol=0.0)
                nonempty += 1
        assert nonempty >= 5

    @pytest.mark.parametrize(
        "coeffs",
        [(0.1, -0.7, 1.0), (-0.0899, 0.6, -1.0), (-0.018, 0.27, -1.0, 1.0), (0.018, -0.27, 1.0, -1.0)],
        ids=["quadratic-dip", "quadratic-hump", "cubic", "cubic-negated"],
    )
    def test_windows_of_any_degree_up_to_four(self, coeffs):
        # a derived bracket need not be linear or quartic: below degree 4 its
        # derivative is padded to a cubic, whose lost top terms the cubic
        # candidates survive; each bracket here is positive at both
        # ends of the range, or negative at both, and changes sign inside
        times = log_time_grid()
        windows = poly._windows(coeffs, times[0], times[-1])
        expected = _reference_windows(coeffs, times[0], times[-1])
        assert len(windows) == len(expected) >= 1
        assert np.allclose(windows, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("t_max", [4.0, 12.0])
    def test_detect_intervals_are_exact(self, t_max):
        times = log_time_grid(DEFAULT_T_MIN, t_max)
        t_lo, t_hi = times[0], times[-1]
        seen = 0
        for mode, config in _CONFIGS.items():
            for p in (0.05, 0.1, 0.2, 0.5, 1.0):
                for a in (0.05, 0.1, 0.2, 0.3, 0.5, 0.65):
                    report = detect_backflow(config(p), a, times)
                    windows = report.backflow_intervals
                    assert report.verdict == bool(windows)
                    bracket = lambda t: _bracket_at(mode, a, p, np.asarray(t))
                    edges = [t for w in windows for t in w]
                    assert edges == sorted(edges)
                    assert all(t_lo <= t <= t_hi for t in edges)
                    for t0, t1 in windows:
                        assert t1 > t0 and bracket(0.5 * (t0 + t1)) > 0.0
                        for t in (t0, t1):
                            if t not in (t_lo, t_hi):
                                low, high = bracket(t * (1.0 - 1e-9)), bracket(t * (1.0 + 1e-9))
                                assert low * high < 0.0, (mode, p, a, t)
                                seen += 1
                    gaps = zip([t_lo] + [w[1] for w in windows], [w[0] for w in windows] + [t_hi])
                    for g0, g1 in gaps:
                        if g1 > g0:
                            assert np.all(bracket(np.linspace(g0, g1, 9)[1:-1]) < 0.0), (mode, p, a)
                    # every sampled run above eps lies inside an exact window
                    for s0, s1 in _intervals_above(times, report.derivative, report.eps):
                        assert any(t0 <= s0 and s1 <= t1 for t0, t1 in windows)
        assert seen > 20


class TestFlatBracketRoots:
    """Near a tiny root the switch's bracket behaves like c u - 256 u^3, from
    which Newton's method shrinks u by only about 2/3 a step; when its steps
    run out, _root bisects the floats between its last ends."""

    def test_window_starts_at_the_exact_root(self):
        # Newton's last iterate started this window at t = 40.70; the exact
        # root (sympy, at the exact a and p) is at t = 54.4024876111535
        report = detect_backflow(switch_config(1.245257901104921e-94), 1.2902291926294362e-181, log_time_grid(t_max=372.0))
        (window,) = report.backflow_intervals
        assert window == (pytest.approx(54.40248761115353, rel=1e-13), report.times[-1])

    def test_the_bisection_closes_what_newton_leaves(self, monkeypatch):
        # every root it returns is a sign change between adjacent floats; on
        # this grid only the switch at t_max 50 and 400 needs it
        bisect, capped = poly._bisect_floats, []

        def counted(coeffs, lo, hi, positive_lo):
            root = bisect(coeffs, lo, hi, positive_lo)
            f, f_next = poly._horner(coeffs, root), poly._horner(coeffs, float(np.nextafter(root, 1.0)))
            assert f == 0.0 or ((f > 0.0) == positive_lo and (f_next > 0.0) != positive_lo), (coeffs, root)
            capped.append(t_max)
            return root

        monkeypatch.setattr(poly, "_bisect_floats", counted)
        for a in 10.0 ** -np.linspace(4.0, 200.0, 40):
            for p in 10.0 ** -np.linspace(4.0, 300.0, 40):
                for t_max in (12.0, 50.0, 400.0):
                    for mode in _CONFIGS:
                        poly._windows(detect._bracket_coeffs(mode, a, p), DEFAULT_T_MIN, t_max)
        assert (capped.count(12.0), capped.count(50.0), capped.count(400.0)) == (0, 57, 342)


def _two_pass_series(mode, a, p, times):
    """Distance, derivative and complex-step residual from a pass at t and a
    second one at t + ih, as detect_backflow formed them before it read both
    from the pass at t + ih."""
    u, v = _decay(times)
    dist = detect._distance(a, detect._terms(mode, a, p, u, v))
    prefactor, bracket = detect._derivative_parts(mode, a, p, times)
    deriv = prefactor * bracket
    step = (2j * detect.COMPLEX_STEP) * u
    shifted = detect._terms(mode, a, p, u - step, v + step)
    slope = detect._distance(a, shifted).imag / detect.COMPLEX_STEP
    return dist, deriv, float(np.abs(slope - deriv).max())


class TestOnePassAndScalarWindows:
    """detect_backflow reads its series from one pass at t + ih; they must
    equal the pass at t and the separate complex-step pass bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        mode=st.sampled_from(["bare", "path", "switch"]),
        a=st.one_of(st.floats(1e-200, 0.999), st.floats(-200.0, -0.001).map(lambda x: 10.0 ** x)),
        p=st.one_of(st.sampled_from([0.0, 1e-300, 1.0]), st.floats(0.0, 1.0)),
        t_max=st.sampled_from([4.0, 12.0, 50.0, 400.0]),
        points=st.integers(2, 600),
    )
    # a rounding tie that a fused complex multiply broke at h = 1e-30
    @example(mode="switch", a=0.5, p=0.75, t_max=50.0, points=292)
    def test_series_equal_the_two_pass_reference(self, mode, a, p, t_max, points):
        # 'bare' reads p = 0, which its terms must be given here too
        p = 0.0 if mode == "bare" else p
        times = log_time_grid(DEFAULT_T_MIN, t_max, points)
        dist, deriv, fd_residual = _two_pass_series(mode, a, p, times)
        config = _config(mode, p)
        try:
            report = detect_backflow(config, a, times)
        except RuntimeError as exc:
            # the same series fail one of the same checks
            allowance = detect.LIPSCHITZ_BOUND * np.minimum(np.diff(times), 1.0) + 1e-12
            assert (
                not (np.isfinite(dist).all() and np.isfinite(deriv).all())
                or dist.min() < -1e-12
                or dist.max() > 1.0 + 1e-12
                or (np.abs(np.diff(dist)) > allowance).any()
                or not fd_residual <= detect.FD_CHECK_TOL
            ), exc
            return
        assert np.array_equal(report.distance, dist)
        assert np.array_equal(report.derivative, deriv)
        assert report.fd_residual == fd_residual


class TestCentralDifference:
    def test_plain_stencil_order(self):
        # error of the stencil scales as h^2
        exact = np.cos(1.0)
        h_coarse, h_fine = 1e-2, 5e-3
        err = lambda h: abs(central_difference(np.sin, 1.0, h=h) - exact)
        assert err(h_fine) == pytest.approx(err(h_coarse) / 4.0, rel=0.05)

    def test_matches_analytic_rate(self):
        # at the default step the stencil resolves the analytic rate far
        # inside the detection tolerance; a finer step reaches 1e-9
        ts = np.array([0.5, 2.0])
        rate = lambda h: central_difference(lambda s: probe_distance("bare", 0.4, s), ts, h=h)
        assert np.abs(rate(FD_STEP) - analytic_derivative("bare", 0.4, ts)).max() < 1e-8
        assert np.abs(rate(1e-5) - analytic_derivative("bare", 0.4, ts)).max() < 1e-9


class TestGrid:
    def test_log_grid_shape(self):
        grid = log_time_grid(1e-2, 12.0, 100)
        assert len(grid) == 100
        assert grid[0] == pytest.approx(1e-2)
        assert grid[-1] == pytest.approx(12.0)
        assert np.all(np.diff(grid) > 0.0)

    def test_log_grid_validation(self):
        with pytest.raises(ValueError):
            log_time_grid(0.0, 12.0)
        with pytest.raises(ValueError):
            log_time_grid(1e-2, 12.0, 1)
