import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import backflow.channel as channel
import backflow.control as control
import backflow.detect as detect
from backflow.channel import KrausChannel, _read_only, apply, phi_t_kraus
from backflow.control import (
    SUPERMAPS,
    AmplitudeVectors,
    ControlConfig,
    _decay,
    build_supermap,
    path_config,
    switch_config,
)
from backflow.detect import (
    COMPLEX_STEP,
    detect_backflow,
    log_time_grid,
)


def _clear_caches():
    detect._kept_grid_work.cache_clear()
    detect._log_grid.cache_clear()
    detect._default_grid_work.cache_clear()


def _times():
    # up to the largest float, where -2t would overflow without the cap
    elements = st.floats(0.0, 1.7976931348623157e308)
    return hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=5), elements=elements)


def _view(base, kind):
    """A view of ``base`` that is not C-contiguous, when base allows one."""
    if kind == "reversed" and base.ndim:
        return base[::-1]
    if kind == "transposed":
        return base.T
    if kind == "strided":
        return np.repeat(base, 2, axis=-1)[..., ::2] if base.ndim else base
    return base


def _assert_reports_equal(got, want):
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.distance, want.distance)
    assert np.array_equal(got.derivative, want.derivative)
    assert got.backflow_intervals == want.backflow_intervals
    assert got.fd_residual == want.fd_residual


class TestReuse:
    @settings(max_examples=150, deadline=None)
    @given(t=_times(), kind=st.sampled_from(["plain", "reversed", "transposed", "strided"]))
    def test_decay_equals_direct_computation(self, t, kind):
        # bit for bit, at every t: the cap on t changes no value
        t = _view(t, kind)
        with np.errstate(over="ignore"):
            want = np.exp(-2.0 * t), -np.expm1(-2.0 * t)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _decay(t)
        for got_part, ref in zip(got, want):
            assert np.array_equal(got_part, ref)
            assert np.shape(got_part) == t.shape
        # the one time check: a negative or NaN time anywhere is refused
        for bad in (-1e-300, -300.0, np.nan):
            with pytest.raises(ValueError, match="time must be non-negative"):
                _decay(np.append(t, bad))

    @pytest.mark.parametrize("config", ["bare", path_config(0.6), switch_config(0.6)])
    def test_grid_changed_in_place_is_recomputed(self, config):
        grid = np.array(log_time_grid(t_max=20.0, points=97))
        first = detect_backflow(config, 0.3, grid)
        before = grid.copy()
        grid *= 0.5
        # the report holds its own read-only copy of the grid
        assert np.array_equal(first.times, before) and not first.times.flags.writeable
        second = detect_backflow(config, 0.3, grid)
        assert not np.array_equal(second.distance, first.distance)
        _clear_caches()
        _assert_reports_equal(second, detect_backflow(config, 0.3, np.array(grid)))
        # a grid edited into an invalid one is refused, not served from the cache
        grid[5] = grid[4]
        with pytest.raises(ValueError, match="strictly increasing"):
            detect_backflow(config, 0.3, grid)

    def test_caches_stay_within_their_sizes(self):
        for i in range(50):
            last = log_time_grid(t_max=5.0 + i, points=50 + i)
            detect_backflow(switch_config(0.5), 0.3, last)
        memos = (detect._kept_grid_work, detect._log_grid)
        # each memo keeps its last input only, and serves it again; the
        # default grid is kept beside them
        assert [memo.cache_info().currsize for memo in memos] == [1, 1]
        hits = [memo.cache_info().hits for memo in memos]
        assert log_time_grid(t_max=54.0, points=99) is last
        detect_backflow(switch_config(0.5), 0.3, np.array(last))
        assert [memo.cache_info().hits for memo in memos] == [hits[0] + 1, hits[1] + 1]

    def test_scalar_refused_and_large_grid_kept(self):
        _clear_caches()
        with pytest.raises(ValueError, match="1-d grid"):
            detect_backflow("bare", 0.5, 2.0)
        # a grid of any length is kept, and served again by content
        big = np.linspace(0.01, 12.0, 8193)
        detect_backflow("bare", 0.5, big)
        detect_backflow("bare", 0.5, np.array(big))
        info = detect._kept_grid_work.cache_info()
        assert (info.currsize, info.hits, info.misses) == (1, 1, 1)
        # the next distinct grid replaces it
        detect_backflow("bare", 0.5, big[:-1])
        detect_backflow("bare", 0.5, big)
        info = detect._kept_grid_work.cache_info()
        assert (info.currsize, info.hits, info.misses) == (1, 1, 3)

    @pytest.mark.parametrize("config", ["bare", path_config(0.6), switch_config(0.6)])
    def test_default_grid_after_an_over_range_grid_is_recomputed_exactly(self, config):
        # the probe pattern: a query on a longer grid between two default ones
        _clear_caches()
        first = detect_backflow(config, 0.3)
        detect_backflow(config, 0.3, log_time_grid(t_max=400.0))
        _assert_reports_equal(detect_backflow(config, 0.3), first)
        # the default grid's work is kept, so only the longer grid is a miss
        info = detect._kept_grid_work.cache_info()
        assert (info.hits, info.misses) == (0, 1)
        assert detect._default_grid_work.cache_info().misses == 1

    @pytest.mark.parametrize("config", ["bare", path_config(0.6), switch_config(0.6)])
    def test_default_grid_kept_across_over_range_grids(self, config):
        # two over-range grids in a row would evict the default from a
        # two-slot memo; the kept default serves the same bits as a fresh build
        detect_backflow(config, 0.3)
        for t_max in (40.0, 400.0, 97.5):
            detect_backflow(config, 0.3, log_time_grid(t_max=t_max))
        kept = detect_backflow(config, 0.3)
        assert kept.times is log_time_grid() is detect._grid_work(np.array(log_time_grid()))[0]
        _clear_caches()
        _assert_reports_equal(kept, detect_backflow(config, 0.3))
        # a caller's copy of the default grid is served the kept work by content
        _assert_reports_equal(kept, detect_backflow(config, 0.3, np.array(kept.times)))

    def test_kept_grid_work_is_read_only(self):
        grid = np.array(log_time_grid(t_max=20.0, points=97))
        work = detect._grid_work(grid)
        assert detect._grid_work(np.array(grid)) is work
        for array in work:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        # the report's grid is the memo's, over immutable bytes
        report = detect_backflow("bare", 0.3, grid)
        assert report.times is work[0]
        with pytest.raises(ValueError):
            report.times.flags.writeable = True

    @pytest.mark.parametrize("mode", ["bare", "path", "switch"])
    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(1e-200, 0.999),
        p=st.floats(0.0, 1.0),
        t=st.lists(st.floats(1e-3, 400.0), min_size=2, max_size=20, unique=True),
    )
    def test_shifted_pair_gives_the_complex_step_of_complex_t(self, mode, a, p, t):
        # u (1 - 2ih) and v + 2ihu are e^{-2(t + ih)} and -expm1(-2(t + ih))
        # to double precision at h = 2^-560, so both slopes Im D(t + ih) / h agree
        grid = np.sort(np.array(t))
        shifted = detect._grid_work(grid)[-2:]
        z = -2.0 * (grid + 1j * COMPLEX_STEP)
        slopes = [
            detect._distance(a, detect._terms(mode, a, p, *pair)).imag / COMPLEX_STEP
            for pair in (shifted, (np.exp(z), -np.expm1(z)))
        ]
        assert np.all(np.abs(slopes[0] - slopes[1]) <= 1e-15 * np.maximum(1.0, np.abs(slopes[1])))

    def test_supermap_reused_for_the_same_config_and_time(self, monkeypatch):
        control._joint_kraus.cache_clear()
        control._template.cache_clear()
        calls = []
        original = control.path_kraus
        monkeypatch.setattr(control, "path_kraus", lambda *args: calls.append(1) or original(*args))

        def builds():
            return control._joint_kraus.cache_info().misses

        config = path_config(0.5)
        first = build_supermap(config, 1.0)
        assert build_supermap(config, 1.0) is first
        assert not first.ops.flags.writeable
        with pytest.raises(ValueError):
            first.ops[0, 0, 0] = 1.0
        assert builds() == 1
        # an equal new config is served from the memo
        assert build_supermap(path_config(0.5), 1.0) is first
        assert builds() == 1
        # another time, or another p, is built again
        later = build_supermap(config, 2.0)
        assert later is not first and not np.array_equal(later.ops, first.ops)
        assert builds() == 2
        other_p = build_supermap(path_config(0.25), 2.0)
        assert other_p is not later and np.array_equal(other_p.ops, later.ops)
        assert builds() == 3
        # every build scaled the one path template, whose builder ran once
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "shared",
        [
            lambda: [log_time_grid()],
            lambda: [build_supermap(switch_config(0.5), 1.0).ops],
            lambda: list(detect._grid_work(log_time_grid())),
            lambda: [channel._PHI_TEMPLATES],
            lambda: [control._template(mode, SUPERMAPS[mode].amplitudes) for mode in SUPERMAPS],
        ],
        ids=["log_time_grid", "supermap_ops", "grid_work", "phi_templates", "supermap_templates"],
    )
    def test_shared_arrays_cannot_be_made_writeable(self, shared):
        for array in shared():
            with pytest.raises(ValueError):
                array.flags.writeable = True
        # so a caller cannot stretch the default grid of a later report
        assert detect_backflow("bare", 0.5).times[-1] == 12.0

    def test_log_time_grid_is_read_only_and_takes_0d_bounds(self):
        grid = log_time_grid(1e-2, 12.0, 50)
        assert not grid.flags.writeable
        assert log_time_grid(np.array(1e-2), np.array(12.0), np.int64(50)) is grid
        assert np.array_equal(grid, np.exp(np.linspace(np.log(1e-2), np.log(12.0), 50)))
        with pytest.raises(TypeError):
            log_time_grid(1e-2, 12.0, 50.0)
        with pytest.raises(ValueError):
            log_time_grid(np.array(np.nan), 12.0)


# 0, the smallest subnormal, a time where 1 - u rounds to 1 - 0, where
# e^{-2t} underflows to 0, the cap and far past it
_TEMPLATE_TIME = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 372.6, 400.0, 1e300]),
    st.floats(0.0, 20.0),
    st.floats(0.0, 1e300),
)
_TEMPLATE_TIMES = st.lists(_TEMPLATE_TIME, min_size=1, max_size=6).map(np.array)


def _builder_ops(config, t):
    """The supermap's builder on the lossy channel at t: the general route."""
    return SUPERMAPS[config.mode].kraus(phi_t_kraus(t), config.amplitudes).ops


def _random_amplitudes(seed):
    """Normalized complex amplitude vectors, some with real entries whose
    imaginary parts are -0."""
    rng = np.random.default_rng(seed)

    def vector():
        v = rng.normal(size=3) + 1j * rng.normal(size=3) if rng.random() < 0.5 else rng.normal(size=3) - 0j
        return tuple(v / np.linalg.norm(v))

    return AmplitudeVectors(vector(), vector())


class TestSupermapTemplate:
    @settings(max_examples=80, deadline=None)
    @given(mode=st.sampled_from(list(SUPERMAPS)), p=st.floats(0.0, 1.0), times=_TEMPLATE_TIMES)
    def test_template_route_equals_the_builders_bit_for_bit(self, mode, p, times):
        # the switch and the default path, stacked and scalar
        config = ControlConfig(mode, p)
        stacked, want = build_supermap(config, times).ops, _builder_ops(config, times)
        assert (stacked.shape, stacked.dtype) == (want.shape, want.dtype)
        assert stacked.tobytes() == want.tobytes()
        for t in times:
            assert build_supermap(config, float(t)).ops.tobytes() == _builder_ops(config, t).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), times=_TEMPLATE_TIMES)
    def test_random_path_amplitudes_equal_the_builder(self, seed, times):
        # bit for bit where the flip weight is positive; where it is 0, a
        # zero's sign may differ, the value not
        config = path_config(0.5, _random_amplitudes(seed))
        got, want = build_supermap(config, times).ops, _builder_ops(config, times)
        flip_is_zero = channel._phi_weights(times)[:, 0] == 0.0
        for t_got, t_want, zero in zip(got, want, flip_is_zero):
            assert np.array_equal(t_got, t_want) if zero else t_got.tobytes() == t_want.tobytes()
        assert np.array_equal(build_supermap(config, float(times[0])).ops, want[0])

    def test_template_is_derived_once_per_mode_and_amplitudes(self, monkeypatch):
        control._template.cache_clear()
        calls = []
        original = control.switch_kraus
        monkeypatch.setattr(control, "switch_kraus", lambda *args: calls.append(1) or original(*args))
        for t in (0.5, np.array([1.0, 2.0]), 3.0):
            build_supermap(switch_config(0.5), t)
        assert len(calls) == 1


class TestCheckedOnce:
    RHO = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])

    def _count_checks(self, monkeypatch):
        calls = []
        original = channel.completeness_residual
        monkeypatch.setattr(channel, "completeness_residual", lambda c: calls.append(1) or original(c))
        return calls

    def test_immutable_set_is_checked_once(self, monkeypatch):
        calls = self._count_checks(monkeypatch)
        ops = phi_t_kraus(np.array([0.3, 2.0])).ops
        want = apply(KrausChannel(ops), self.RHO)
        immutable = KrausChannel(_read_only(ops))
        for _ in range(3):
            assert apply(immutable, self.RHO).tobytes() == want.tobytes()
        assert len(calls) == 2
        # a writeable set, or a view of the immutable one, is checked on every call
        for kraus in (KrausChannel(ops), KrausChannel(immutable.ops[::-1])):
            calls.clear()
            apply(kraus, self.RHO)
            apply(kraus, self.RHO)
            assert len(calls) == 2

    def test_immutable_non_tp_set_is_refused_on_every_call(self):
        kraus = KrausChannel(_read_only(np.array([np.sqrt(0.5) * np.eye(2)], dtype=complex)))
        for _ in range(3):
            with pytest.raises(ValueError, match=r"^channel is not trace preserving \(residual 5\.000e-01\)$"):
                apply(kraus, self.RHO)

    def test_writeable_set_edited_between_calls_is_checked_again(self):
        ops = np.array(phi_t_kraus(1.0).ops)
        kraus = KrausChannel(ops)
        apply(kraus, self.RHO)
        ops[2] *= 2.0
        with pytest.raises(ValueError, match="not trace preserving"):
            apply(kraus, self.RHO)
