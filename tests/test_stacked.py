"""The Kraus layer over a stack of times and states equals a loop of scalar
calls bit for bit: the same shapes, dtypes and bytes, the same refusals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backflow.channel import KrausChannel, apply, phi_t_kraus, validate_cptp
from backflow.control import (
    SUPERMAPS,
    ControlConfig,
    build_supermap,
    closed_form_output,
    controlled_output,
)
from backflow.qmat import KET_PLUS, PostSelectionImpossibleError, project_control, pure_state

# 0, the smallest subnormal, ordinary times, and 372-400, where e^{-2t}
# underflows to 0 and the channel stops changing
TIME = st.one_of(
    st.sampled_from([0.0, 5e-324, 400.0]),
    st.floats(0.0, 10.0),
    st.floats(372.0, 400.0),
    st.floats(0.0, 400.0),
)
TIMES = st.lists(TIME, min_size=1, max_size=6).map(np.array)
P = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def random_states(seed, count):
    """Random density matrices of every rank: full-rank Ginibre draws and pure states."""
    rng = np.random.default_rng(seed)
    states = []
    for i in range(count):
        if i % 2:
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            states.append(pure_state(psi / np.sqrt(np.vdot(psi, psi).real)))
        else:
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = g @ g.conj().T
            states.append(rho / np.trace(rho).real)
    return np.stack(states)


def assert_same_bits(stacked, looped):
    stacked, looped = np.asarray(stacked), np.asarray(looped)
    assert (stacked.shape, stacked.dtype) == (looped.shape, looped.dtype)
    assert stacked.tobytes() == looped.tobytes()


def report_fields(report):
    return np.array([report.completeness_residual, report.choi_min_eigenvalue])


@settings(max_examples=60, deadline=None)
@given(times=TIMES, p=P, mode=st.sampled_from(list(SUPERMAPS)))
def test_kraus_sets_and_their_cptp_reports(times, p, mode):
    phi = phi_t_kraus(times)
    assert_same_bits(phi.ops, [phi_t_kraus(t).ops for t in times])
    config = ControlConfig(mode, p)
    joint = build_supermap(config, times)
    assert_same_bits(joint.ops, [build_supermap(config, t).ops for t in times])
    for channel, build in ((phi, phi_t_kraus), (joint, lambda t: build_supermap(config, t))):
        report = validate_cptp(channel)
        assert_same_bits(report_fields(report), np.stack([report_fields(validate_cptp(build(t))) for t in times], axis=1))
        assert_same_bits(report.passed, [validate_cptp(build(t)).passed for t in times])


@settings(max_examples=30, deadline=None)
@given(times=TIMES, poisoned=st.integers(0, 5), entry=st.sampled_from([np.nan, np.inf]))
def test_cptp_report_is_nan_per_non_finite_set(times, poisoned, entry):
    ops = phi_t_kraus(times).ops.copy()
    ops[poisoned % len(times), 1, 1, 0] = entry
    report = validate_cptp(KrausChannel(ops))
    looped = [report_fields(validate_cptp(KrausChannel(set_ops))) for set_ops in ops]
    assert_same_bits(report_fields(report), np.stack(looped, axis=1))
    assert np.isnan(report_fields(report)[:, poisoned % len(times)]).all()
    # an inf entry makes matmul warn, as it does for one set
    with pytest.raises(ValueError, match="not trace preserving"), np.errstate(invalid="ignore"):
        apply(KrausChannel(ops), random_states(0, 1)[0])


@settings(max_examples=60, deadline=None)
@given(times=TIMES, seed=st.integers(0, 2**32 - 1), count=st.integers(1, 3))
def test_apply_over_times_and_states(times, seed, count):
    states = random_states(seed, count)
    # each state against every time: (state, time)
    out = apply(phi_t_kraus(times), states[:, None])
    assert_same_bits(out, [[apply(phi_t_kraus(t), rho) for t in times] for rho in states])
    # one state against the stack of times
    assert_same_bits(apply(phi_t_kraus(times), states[0]), [apply(phi_t_kraus(t), states[0]) for t in times])


@settings(max_examples=80, deadline=None)
@given(
    times=TIMES,
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 3),
    p=P,
    mode=st.sampled_from(list(SUPERMAPS)),
    outcome=st.sampled_from(["plus", "minus"]),
)
def test_controlled_and_closed_form_outputs(times, seed, count, p, mode, outcome):
    states = random_states(seed, count)
    config = ControlConfig(mode, p, postselect_outcome=outcome)
    looped, failed = [], []
    for rho in states:
        for t in times:
            try:
                looped.append(controlled_output(config, rho, t))
            except PostSelectionImpossibleError as exc:
                failed.append((t, str(exc)))
    if failed:
        # the stack is refused too: the first failure's message, and over
        # several entries its time and how many fail
        with pytest.raises(PostSelectionImpossibleError) as info:
            controlled_output(config, states[:, None], times)
        (first, message), size = failed[0], states.shape[0] * len(times)
        assert str(info.value) == message + (f" at t = {first} ({len(failed)} of {size} times)" if size > 1 else "")
        return
    out, prob = controlled_output(config, states[:, None], times)
    assert_same_bits(out, np.reshape([o for o, _ in looped], out.shape))
    assert_same_bits(prob, np.reshape([q for _, q in looped], prob.shape))
    if outcome == "plus":
        closed = closed_form_output(config, states[:, None], times)
        assert_same_bits(closed, np.reshape([closed_form_output(config, rho, t) for rho in states for t in times], closed.shape))


@settings(max_examples=30, deadline=None)
@given(times=TIMES, seed=st.integers(0, 2**32 - 1))
def test_bare_closed_form(times, seed):
    rho = random_states(seed, 1)[0]
    assert_same_bits(closed_form_output("bare", rho, times), [closed_form_output("bare", rho, t) for t in times])


def test_an_empty_stack_of_times_gives_empty_results():
    rho, times = random_states(2, 1)[0], np.array([])
    assert apply(phi_t_kraus(times), rho).shape == (0, 2, 2)
    for outcome in ("plus", "minus"):
        out, prob = controlled_output(ControlConfig("switch", 1.0, postselect_outcome=outcome), rho, times)
        assert out.shape == (0, 2, 2) and prob.shape == (0,)
    assert validate_cptp(phi_t_kraus(times)).passed.shape == (0,)


def test_times_of_two_axes_come_first_in_their_order():
    # a grid of times keeps its axes first, in their order, through every
    # layer, so the supermap route and the closed form agree in shape too
    times = np.array([[0.0, 0.5, 1.0], [2.0, 5.0, 400.0]])
    rho = random_states(4, 1)[0]
    assert_same_bits(phi_t_kraus(times).ops, [[phi_t_kraus(t).ops for t in row] for row in times])
    for mode in SUPERMAPS:
        config = ControlConfig(mode, 0.5)
        out, prob = controlled_output(config, rho, times)
        looped = [[controlled_output(config, rho, t) for t in row] for row in times]
        assert_same_bits(out, [[o for o, _ in row] for row in looped])
        assert_same_bits(prob, [[q for _, q in row] for row in looped])
        assert_same_bits(closed_form_output(config, rho, times), [[closed_form_output(config, rho, t) for t in row] for row in times])


def test_a_stack_without_times_names_no_time():
    joint = np.zeros((3, 4, 4), dtype=complex)
    joint[0] = np.eye(4) / 4
    with pytest.raises(PostSelectionImpossibleError) as info:
        project_control(joint, KET_PLUS)
    assert str(info.value) == "post-selection impossible: outcome probability 0.000e+00 (2 of 3 times)"
    with pytest.raises(PostSelectionImpossibleError) as info:
        project_control(joint, KET_PLUS, np.array([1.0, 2.0, 3.0]))
    assert str(info.value) == "post-selection impossible: outcome probability 0.000e+00 at t = 2.0 (2 of 3 times)"


def test_scalar_calls_keep_their_shapes_and_types():
    rho = random_states(1, 1)[0]
    assert phi_t_kraus(1.0).ops.shape == (3, 2, 2)
    report = validate_cptp(phi_t_kraus(1.0))
    assert type(report.completeness_residual) is float and type(report.choi_min_eigenvalue) is float
    assert type(report.passed) is bool
    out, prob = controlled_output(ControlConfig("switch", 0.5), rho, 1.0)
    assert out.shape == (2, 2) and type(prob) is float
    assert closed_form_output("bare", rho, 1.0).shape == (2, 2)
