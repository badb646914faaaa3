"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import time

import numpy as np

from backflow.channel import (
    apply,
    eternal_nm_generator,
    integrate_canonical,
    phi_t_kraus,
    validate_cptp,
)
from backflow.control import (
    OUTCOMES,
    SUPERMAPS,
    build_supermap,
    closed_form_output,
    path_config,
    path_kraus,
    switch_config,
    switch_kraus,
)
from backflow.detect import (
    analytic_derivative,
    asymptotic_threshold,
    detect_backflow,
    log_time_grid,
    probe_distance,
    scan_region,
)
from backflow.qmat import kron, project_control, trace_distance
from conftest import pure_control_parts, random_density
from test_detect import _config, empirical_threshold


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number}: {status} - {description}{suffix}")


def test_criterion_1_bare_channel_never_gains_distinguishability():
    start = time.perf_counter()
    a_values = list(np.round(np.arange(0.1, 1.0, 0.1), 10)) + [0.99]
    times = log_time_grid(1e-2, 12.0)
    worst = -np.inf
    for a in a_values:
        worst = max(worst, float(analytic_derivative("bare", a, times).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 0.0 and elapsed < 1.0
    report(1, "bare-channel derivative negative everywhere", ok,
           f"max dD/dt {worst:.3e}, {elapsed:.2f}s")
    assert worst < 0.0
    assert elapsed < 1.0


def test_criterion_2_reference_point_verdicts():
    start = time.perf_counter()
    path_report = detect_backflow(path_config(1.0), 0.65, eps=1e-9)
    switch_report = detect_backflow(switch_config(1.0), 0.65, eps=1e-9)
    elapsed = time.perf_counter() - start
    late_interval = bool(
        path_report.backflow_intervals and path_report.backflow_intervals[0][0] > 1.0
    )
    ok = path_report.verdict and late_interval and not switch_report.verdict and elapsed < 1.0
    report(2, "a=0.65, p=1: path shows backflow after t=1, switch never", ok,
           f"path intervals {path_report.backflow_intervals}, {elapsed:.2f}s")
    assert path_report.verdict and late_interval
    assert not switch_report.verdict
    assert elapsed < 1.0


def test_criterion_3_pure_control_threshold_recovery():
    start = time.perf_counter()
    expected = {"path": 1.0 / np.sqrt(2.0), "switch": np.sqrt(2.0 / 5.0)}
    deviations = {}
    for mode, target in expected.items():
        measured = empirical_threshold(_config(mode, 1.0), a_step=5e-4)
        deviations[mode] = abs(measured - target)
    elapsed = time.perf_counter() - start
    ok = all(d <= 1e-3 for d in deviations.values()) and elapsed < 30.0
    report(3, "p=1 late-time boundaries equal 1/sqrt(2) and sqrt(2/5) within 1e-3", ok,
           f"deviations {deviations['path']:.2e}/{deviations['switch']:.2e}, {elapsed:.2f}s")
    for mode, target in expected.items():
        assert deviations[mode] <= 1e-3, mode
    assert elapsed < 30.0


def test_criterion_4_robust_thresholds_and_region_containment():
    start = time.perf_counter()
    worst = 0.0
    for p in (0.2, 0.4, 0.6, 0.8):
        for mode in ("path", "switch"):
            measured = empirical_threshold(_config(mode, p), a_step=5e-4)
            worst = max(worst, abs(measured - asymptotic_threshold(_config(mode, p))))
    a_grid = np.linspace(0.005, 0.995, 100)
    p_grid = np.linspace(0.0, 1.0, 100)
    scan = scan_region(a_grid, p_grid)
    containment = not np.any(scan.backflow_switch & ~scan.backflow_path)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and containment and elapsed < 120.0
    report(4, "noisy-control boundaries within 1e-3 and switch region inside path region", ok,
           f"worst boundary deviation {worst:.2e}, containment {containment}, {elapsed:.1f}s")
    assert worst <= 1e-3
    assert containment
    assert elapsed < 120.0


def test_criterion_5_kraus_vs_rk4_oracle(rng):
    gen = eternal_nm_generator()
    states = np.stack([random_density(rng) for _ in range(20)])
    worst = 0.0
    for t in (0.5, 1.0, 2.0, 5.0):
        channel = phi_t_kraus(t)
        ode_states = integrate_canonical(gen, states, t, dt=1e-3)
        for k in range(states.shape[0]):
            kraus_state = apply(channel, states[k])
            worst = max(worst, trace_distance(kraus_state, ode_states[k]))
    ok = worst <= 1e-6
    report(5, "Kraus evolution matches RK4 canonical integration to 1e-6", ok,
           f"worst trace distance {worst:.3e}")
    assert worst <= 1e-6


def test_criterion_6_closed_forms_match_supermap(rng):
    states = [random_density(rng) for _ in range(10)]
    t_values = np.round(np.arange(0.1, 5.0 + 1e-9, 0.1), 10)
    p_values = (0.0, 0.25, 0.5, 0.75, 1.0)
    worst = 0.0
    for p in p_values:
        for config in (path_config(p), switch_config(p)):
            for t in t_values:
                supermap = build_supermap(config, t)
                half_p = p / 2
                omega = np.array([[0.5, half_p], [half_p, 0.5]], dtype=complex)
                plus = OUTCOMES["plus"]
                for rho in states:
                    evolved = apply(supermap, kron(rho, omega))
                    block, prob = project_control(evolved, plus)
                    direct = block / prob
                    worst = max(worst, float(np.abs(direct - closed_form_output(config, rho, t)).max()))
    ok = worst <= 1e-10
    report(6, "closed-form outputs equal supermap post-selection to 1e-10 "
              "(resolves the path-weight denominator to (4+p)e^{2t}-p)", ok,
           f"worst entry deviation {worst:.3e}")
    assert worst <= 1e-10
    # the competing denominator variant (4+p)e^{2t}-1 is excluded: it breaks
    # unit trace, so it cannot reproduce the supermap output for p != 1
    p, t = 0.5, 1.0
    x = np.exp(2.0 * t)
    b_alt = (x - 1.0) / ((4.0 + p) * x - 1.0)
    a_w = 2.0 * (x + 1.0) / ((4.0 + p) * x - p)
    assert abs(a_w + (2.0 + p) * b_alt - 1.0) > 1e-3


def test_criterion_7_derivative_consistency():
    h = 1e-4
    worst_fd = 0.0
    times = np.linspace(0.05, 6.0, 60)
    configs = ["bare"] + [make(p) for p in (0.0, 0.25, 0.5, 0.75, 1.0) for make in (path_config, switch_config)]
    for a in np.arange(0.1, 1.0, 0.1):
        for config in configs:
            fd = (probe_distance(config, a, times + h) - probe_distance(config, a, times - h)) / (2 * h)
            worst_fd = max(worst_fd, float(np.abs(fd - analytic_derivative(config, a, times)).max()))
    worst_reduction = 0.0
    for a in np.arange(0.1, 1.0, 0.1):
        for mode, make in (("path", path_config), ("switch", switch_config)):
            derivative = analytic_derivative(make(1.0), a, times)
            reduced = np.prod(pure_control_parts(mode, a, times), axis=0)
            worst_reduction = max(worst_reduction, float(np.abs((derivative - reduced) / derivative).max()))
    ok = worst_fd <= 1e-6 and worst_reduction <= 1e-10
    report(7, "analytic derivatives match finite differences; p=1 reductions hold", ok,
           f"worst FD {worst_fd:.3e}, worst reduction {worst_reduction:.3e}")
    assert worst_fd <= 1e-6
    assert worst_reduction <= 1e-10


def test_criterion_8_cptp_suite():
    worst_residual = 0.0
    worst_eigenvalue = np.inf
    amps = SUPERMAPS["path"].amplitudes
    for t in np.arange(0.0, 5.0 + 1e-9, 0.1):
        phi = phi_t_kraus(t)
        for channel in (phi, switch_kraus(phi, phi), path_kraus(phi, phi, amps)):
            rep = validate_cptp(channel)
            worst_residual = max(worst_residual, rep.completeness_residual)
            worst_eigenvalue = min(worst_eigenvalue, rep.choi_min_eigenvalue)
    ok = worst_residual <= 1e-12 and worst_eigenvalue >= -1e-10
    report(8, "every constructed channel is CPTP across the time grid", ok,
           f"worst residual {worst_residual:.3e}, worst Choi eigenvalue {worst_eigenvalue:.3e}")
    assert worst_residual <= 1e-12
    assert worst_eigenvalue >= -1e-10


def test_criterion_9_small_time_negativity():
    times = np.linspace(1e-3, 0.05, 15)
    a_values = np.concatenate([np.arange(0.05, 1.0, 0.05), [0.99]])
    p_values = (0.0, 0.25, 0.5, 0.75, 1.0)
    worst = -np.inf
    for a in a_values:
        worst = max(worst, float(analytic_derivative("bare", a, times).max()))
        for p in p_values:
            worst = max(worst, float(analytic_derivative(path_config(p), a, times).max()))
            worst = max(worst, float(analytic_derivative(switch_config(p), a, times).max()))
    ok = worst < 0.0
    report(9, "no configuration shows backflow for t in (0, 0.05]", ok,
           f"max derivative {worst:.3e}")
    assert worst < 0.0
