import numpy as np
import pytest

import backflow.detect as detect
from backflow.channel import apply, phi_t_kraus
from backflow.detect import (
    DEFAULT_T_MIN,
    FD_STEP,
    analytic_dDdt_path,
    analytic_derivative,
    analytic_dDdt_switch,
    asymptotic_threshold,
    bare_dDdt,
    bare_derivative_parts,
    bare_distance,
    central_difference,
    detect_backflow,
    empirical_threshold,
    log_time_grid,
    max_coherent_derivative_parts_path,
    max_coherent_derivative_parts_switch,
    max_coherent_dDdt_path,
    max_coherent_dDdt_switch,
    path_derivative_parts,
    path_distance,
    probe_distance,
    probe_pair,
    scan_region,
    switch_derivative_parts,
    switch_distance,
)
from backflow.control import (
    AmplitudeVectors,
    analytic_state_path,
    analytic_state_switch,
    controlled_output,
    path_config,
    switch_config,
)
from backflow.qmat import trace_distance

FD_H = 1e-4


def central_diff(fn, t, h=FD_H):
    return (fn(t + h) - fn(t - h)) / (2.0 * h)


class TestBareChannel:
    def test_distance_at_zero(self):
        for a in (0.2, 0.65, 0.9):
            assert bare_distance(a, 0.0) == pytest.approx(np.sqrt(1 - a * a), abs=1e-14)

    def test_identical_probes(self):
        ts = np.linspace(0.0, 5.0, 11)
        assert np.abs(bare_distance(1.0, ts)).max() == 0.0

    def test_matches_kraus_evolution(self):
        a, t = 0.65, 1.0
        rho1, rho2 = probe_pair(a)
        channel = phi_t_kraus(t)
        direct = trace_distance(apply(channel, rho1), apply(channel, rho2))
        assert bare_distance(a, t) == pytest.approx(direct, abs=1e-10)

    def test_derivative_negative_everywhere(self):
        ts = log_time_grid(1e-2, 12.0, 241)
        for a in np.arange(0.1, 1.0, 0.05):
            assert np.all(bare_dDdt(a, ts) < 0.0)

    def test_derivative_vanishes_for_identical_probes(self):
        prefactor, _ = bare_derivative_parts(1.0 - 1e-15, 1.0)
        assert prefactor == pytest.approx(0.0, abs=1e-7)

    def test_derivative_against_finite_difference(self):
        a = 0.3
        got = bare_dDdt(a, 1.0)
        fd = central_diff(lambda t: bare_distance(a, t), 1.0)
        assert got == pytest.approx(fd, abs=1e-6)


class TestControlledDistances:
    def test_distance_equals_trace_distance_of_closed_forms(self):
        rho1, rho2 = probe_pair(0.65)
        for t in (0.3, 1.0, 2.5):
            for p in (0.4, 1.0):
                d_path = trace_distance(
                    analytic_state_path(rho1, t, p), analytic_state_path(rho2, t, p)
                )
                assert path_distance(0.65, p, t) == pytest.approx(d_path, abs=1e-12)
                d_switch = trace_distance(
                    analytic_state_switch(rho1, t, p), analytic_state_switch(rho2, t, p)
                )
                assert switch_distance(0.65, p, t) == pytest.approx(d_switch, abs=1e-12)

    def test_distance_at_zero_time(self):
        for a in (0.3, 0.65):
            b = np.sqrt(1 - a * a)
            assert path_distance(a, 0.7, 0.0) == pytest.approx(b, abs=1e-12)
            assert switch_distance(a, 0.7, 0.0) == pytest.approx(b, abs=1e-12)


class TestPathDerivative:
    def test_backflow_sign_below_threshold(self):
        assert analytic_dDdt_path(0.65, 1.0, 2.0) > 0.0

    def test_no_backflow_above_threshold(self):
        assert analytic_dDdt_path(0.9, 1.0, 2.0) < 0.0

    def test_pure_control_bracket_identity(self):
        # the general bracket at p = 1 collapses to 14a^2 - 15 - 3(2a^2-1)x
        for a in (0.2, 0.5, 0.65, 0.9):
            for t in (0.1, 0.8, 2.0, 4.0):
                x = np.exp(2.0 * t)
                _, bracket = path_derivative_parts(a, 1.0, t)
                reduced = 14.0 * a * a - 15.0 - 3.0 * (2.0 * a * a - 1.0) * x
                assert bracket == pytest.approx(reduced, rel=1e-10)

    def test_matches_pure_control_formula(self):
        ts = np.linspace(0.1, 5.0, 23)
        for a in (0.3, 0.65, 0.9):
            general = analytic_dDdt_path(a, 1.0, ts)
            reduced = max_coherent_dDdt_path(a, ts)
            assert np.abs((general - reduced) / general).max() <= 1e-10

    def test_against_finite_difference(self):
        ts = np.linspace(0.05, 6.0, 40)
        for a in (0.2, 0.5, 0.65, 0.9):
            for p in (0.1, 0.5, 1.0):
                fd = central_diff(lambda t: path_distance(a, p, t), ts)
                assert np.abs(fd - analytic_dDdt_path(a, p, ts)).max() <= 1e-6

    def test_prefactor_positive_and_sign_carried_by_bracket(self):
        ts = np.linspace(0.05, 8.0, 30)
        for a in (0.2, 0.65, 0.95):
            for p in (0.2, 0.7, 1.0):
                prefactor, bracket = path_derivative_parts(a, p, ts)
                assert np.all(prefactor > 0.0)
                assert np.all(np.sign(prefactor * bracket) == np.sign(bracket))


class TestSwitchDerivative:
    def test_no_backflow_above_threshold(self):
        assert analytic_dDdt_switch(0.65, 1.0, 3.0) < 0.0

    def test_backflow_below_threshold(self):
        assert analytic_dDdt_switch(0.5, 1.0, 3.0) > 0.0

    def test_small_time_always_negative(self):
        assert analytic_dDdt_switch(0.99, 1.0, 0.01) < 0.0

    def test_against_finite_difference(self):
        ts = np.linspace(0.05, 6.0, 40)
        for a in (0.2, 0.5, 0.65, 0.9):
            for p in (0.1, 0.5, 1.0):
                fd = central_diff(lambda t: switch_distance(a, p, t), ts)
                assert np.abs(fd - analytic_dDdt_switch(a, p, ts)).max() <= 1e-6

    def test_matches_pure_control_formula(self):
        ts = np.linspace(0.1, 5.0, 23)
        for a in (0.3, 0.65, 0.9):
            general = analytic_dDdt_switch(a, 1.0, ts)
            reduced = max_coherent_dDdt_switch(a, ts)
            assert np.abs((general - reduced) / general).max() <= 1e-10

    def test_pure_control_quartic_factors_through_quadratic(self):
        # at p = 1 the quartic bracket equals the hyperbolic-form quadratic
        # times (x^2 + 6x + 1), which is positive, so the two brackets agree
        # in sign everywhere
        ts = np.linspace(0.05, 6.0, 60)
        x = np.exp(2.0 * ts)
        for a in (0.2, 0.5, 0.63, 0.65, 0.9):
            _, quartic = switch_derivative_parts(a, 1.0, ts)
            _, quadratic = max_coherent_derivative_parts_switch(a, ts)
            factored = quadratic * 2.0 * x * (x * x + 6.0 * x + 1.0)
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
                prefactor, _ = switch_derivative_parts(a, p, ts)
                assert np.all(prefactor > 0.0)


class TestSignCarriedByBracket:
    # every derivative form factors into a strictly positive prefactor times
    # a bracket, so the derivative sign is the bracket sign
    @pytest.mark.parametrize(
        "parts",
        [
            lambda a, t: bare_derivative_parts(a, t),
            lambda a, t: path_derivative_parts(a, 0.6, t),
            lambda a, t: switch_derivative_parts(a, 0.6, t),
            lambda a, t: max_coherent_derivative_parts_path(a, t),
            lambda a, t: max_coherent_derivative_parts_switch(a, t),
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
            assert np.all(bare_dDdt(a, ts) < 0.0)
            for p in p_values:
                assert np.all(analytic_dDdt_path(a, p, ts) < 0.0)
                assert np.all(analytic_dDdt_switch(a, p, ts) < 0.0)


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

    def test_rejects_minus_outcome(self):
        with pytest.raises(ValueError, match="plus outcome"):
            detect_backflow(path_config(1.0, outcome="minus"), 0.5)

    def test_rejects_edge_a(self):
        with pytest.raises(ValueError):
            detect_backflow("bare", 1.0)

    def test_rejects_non_default_path_amplitudes(self):
        # the closed forms describe the default amplitudes only; for these
        # the supermap distance differs from the default-amplitude one
        amps = AmplitudeVectors(alpha=(1.0, 0.0, 0.0), beta=(0.0, 0.0, 1.0))
        config = path_config(1.0, amplitudes=amps)
        out1, out2 = (controlled_output(config, rho, 2.0)[0] for rho in probe_pair(0.65))
        assert abs(trace_distance(out1, out2) - float(path_distance(0.65, 1.0, 2.0))) > 1e-2
        for call in (detect_backflow, probe_distance):
            with pytest.raises(ValueError, match="default path amplitudes"):
                call(config, 0.65, np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="default path amplitudes"):
            analytic_derivative(config, 0.65, 2.0)


class TestProbeDistanceTimes:
    @pytest.mark.parametrize("t", [-1.0, np.nan, np.array([-2.0, -0.5, 1.0])])
    def test_rejects_negative_and_nan_times(self, t):
        for config in ("bare", path_config(1.0), switch_config(0.5)):
            with pytest.raises(ValueError, match="non-negative"):
                probe_distance(config, 0.5, t)


class TestModeTable:
    def test_formulas_called_through_module_globals(self, monkeypatch):
        # wrappers installed on the module (as a tracer does) must see every
        # call the mode table makes
        calls = {}
        for name in ("path_derivative_parts", "switch_derivative_parts"):
            original = getattr(detect, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args)

            monkeypatch.setattr(detect, name, counted)
        scan_region(np.array([0.5]), np.array([1.0]))
        assert calls == {"path_derivative_parts": 1, "switch_derivative_parts": 1}
        analytic_derivative(path_config(1.0), 0.5, 1.0)
        analytic_derivative(switch_config(1.0), 0.5, 1.0)
        assert calls == {"path_derivative_parts": 2, "switch_derivative_parts": 2}
        empirical_threshold("path", 1.0)
        empirical_threshold("switch", 1.0)
        assert calls == {"path_derivative_parts": 3, "switch_derivative_parts": 3}


class TestThresholds:
    def test_pure_control_values(self):
        assert asymptotic_threshold("path", 1.0) == pytest.approx(1.0 / np.sqrt(2.0))
        assert asymptotic_threshold("switch", 1.0) == pytest.approx(np.sqrt(0.4))

    def test_fully_mixed_control(self):
        assert asymptotic_threshold("path", 0.0) == 0.0
        assert asymptotic_threshold("switch", 0.0) == 0.0

    def test_path_dominates_switch(self):
        for p in np.linspace(0.05, 1.0, 20):
            assert asymptotic_threshold("path", p) >= asymptotic_threshold("switch", p)

    def test_monotone_in_p(self):
        ps = np.linspace(0.0, 1.0, 41)
        for mode in ("path", "switch"):
            vals = [asymptotic_threshold(mode, p) for p in ps]
            assert np.all(np.diff(vals) >= 0.0)

    def test_empirical_matches_analytic(self):
        for mode in ("path", "switch"):
            for p in (0.4, 1.0):
                emp = empirical_threshold(mode, p, a_step=5e-4)
                assert abs(emp - asymptotic_threshold(mode, p)) <= 1e-3

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            asymptotic_threshold("serial", 0.5)
        # the bare channel has no control, hence no threshold
        for threshold in (asymptotic_threshold, empirical_threshold):
            with pytest.raises(ValueError, match="mode must be 'path' or 'switch'"):
                threshold("bare", 0.5)


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
        # a >= 0.1 keeps detect_backflow's finite-difference check in range
        a_grid = np.linspace(0.1, 0.9, 17)
        p_grid = np.linspace(0.0, 1.0, 11)
        times = log_time_grid(DEFAULT_T_MIN, t_max)
        scan = scan_region(a_grid, p_grid, t_max=t_max)
        for verdicts, config in ((scan.backflow_path, path_config), (scan.backflow_switch, switch_config)):
            expected = [[detect_backflow(config(p), a, times).verdict for a in a_grid] for p in p_grid]
            assert verdicts.tolist() == expected

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            scan_region(np.array([0.0, 0.5]), np.array([0.5]))
        with pytest.raises(ValueError):
            scan_region(np.array([0.5]), np.array([1.5]))


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
        rate = lambda h: central_difference(lambda s: bare_distance(0.4, s), ts, h=h)
        assert np.abs(rate(FD_STEP) - bare_dDdt(0.4, ts)).max() < 1e-8
        assert np.abs(rate(1e-5) - bare_dDdt(0.4, ts)).max() < 1e-9


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
