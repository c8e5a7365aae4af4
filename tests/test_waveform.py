"""Tests for the Waveform container."""

import numpy as np
import pytest

from repro import telemetry
from repro.errors import ConfigurationError, MeasurementError, ReproError
from repro.signal.waveform import Waveform


class TestConstruction:
    def test_basic(self):
        wf = Waveform([0.0, 1.0, 2.0], dt=2.0, t0=10.0)
        assert len(wf) == 3
        assert wf.dt == 2.0
        assert wf.t0 == 10.0

    def test_duration(self):
        wf = Waveform([0.0, 1.0, 2.0], dt=2.0)
        assert wf.duration == 4.0
        assert wf.t_end == 4.0

    def test_times_axis(self):
        wf = Waveform([1.0, 2.0], dt=5.0, t0=100.0)
        np.testing.assert_allclose(wf.times(), [100.0, 105.0])

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ConfigurationError):
            Waveform([1.0], dt=0.0)

    def test_rejects_2d(self):
        with pytest.raises(ConfigurationError):
            Waveform([[1.0, 2.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, bad):
        with telemetry.use_registry() as reg:
            with pytest.raises(MeasurementError, match="finite"):
                Waveform([0.0, bad, 1.0])
        assert reg.to_dict()["counters"][
            "signal.nonfinite_rejected"] == 1

    def test_finite_not_counted(self):
        with telemetry.use_registry() as reg:
            Waveform([0.0, 1.0])
        assert reg.to_dict()["counters"].get(
            "signal.nonfinite_rejected", 0) == 0

    def test_arithmetic_overflow_rejected(self):
        """A derived record is checked too: 1e308 + 1e308 is inf."""
        big = Waveform(np.full(4, 1e308))
        with np.errstate(over="ignore"), pytest.raises(ReproError):
            big + big

    def test_values_read_only(self):
        wf = Waveform([1.0, 2.0])
        with pytest.raises(ValueError):
            wf.values[0] = 9.0

    def test_constant(self):
        wf = Waveform.constant(0.7, duration=10.0, dt=1.0)
        assert wf.min() == wf.max() == 0.7
        assert len(wf) == 11

    def test_from_function(self):
        wf = Waveform.from_function(lambda t: t * 2.0, duration=4.0)
        np.testing.assert_allclose(wf.values, [0, 2, 4, 6, 8])


class TestInterpolation:
    def test_exact_sample(self):
        wf = Waveform([0.0, 10.0, 20.0], dt=1.0)
        assert wf.value_at(1.0) == 10.0

    def test_midpoint(self):
        wf = Waveform([0.0, 10.0], dt=1.0)
        assert wf.value_at(0.5) == pytest.approx(5.0)

    def test_clamps_before_start(self):
        wf = Waveform([3.0, 10.0], dt=1.0, t0=100.0)
        assert wf.value_at(0.0) == 3.0

    def test_clamps_after_end(self):
        wf = Waveform([3.0, 10.0], dt=1.0)
        assert wf.value_at(50.0) == 10.0

    def test_vectorized(self):
        wf = Waveform([0.0, 2.0, 4.0], dt=1.0)
        np.testing.assert_allclose(
            wf.values_at(np.array([0.5, 1.5])), [1.0, 3.0]
        )


class TestSliceAndResample:
    def test_slice_time(self):
        wf = Waveform(np.arange(10.0), dt=1.0)
        sub = wf.slice_time(2.0, 5.0)
        np.testing.assert_allclose(sub.values, [2, 3, 4, 5])
        assert sub.t0 == 2.0

    def test_slice_inverted_raises(self):
        wf = Waveform(np.arange(10.0))
        with pytest.raises(ConfigurationError):
            wf.slice_time(5.0, 2.0)

    def test_resample_finer(self):
        wf = Waveform([0.0, 2.0], dt=2.0)
        fine = wf.resample(1.0)
        np.testing.assert_allclose(fine.values, [0.0, 1.0, 2.0])

    def test_resample_preserves_t0(self):
        wf = Waveform([0.0, 2.0], dt=2.0, t0=7.0)
        assert wf.resample(0.5).t0 == 7.0


class TestArithmetic:
    def test_add_scalar(self):
        wf = Waveform([1.0, 2.0]) + 1.0
        np.testing.assert_allclose(wf.values, [2.0, 3.0])

    def test_add_waveforms(self):
        a = Waveform([1.0, 2.0])
        b = Waveform([10.0, 20.0])
        np.testing.assert_allclose((a + b).values, [11.0, 22.0])

    def test_add_misaligned_grids(self):
        a = Waveform([0.0, 1.0, 2.0], dt=1.0)
        b = Waveform([0.0, 2.0], dt=2.0)
        out = a + b
        np.testing.assert_allclose(out.values, [0.0, 2.0, 4.0])

    def test_subtract(self):
        a = Waveform([5.0, 5.0])
        np.testing.assert_allclose((a - 2.0).values, [3.0, 3.0])

    def test_multiply(self):
        a = Waveform([1.0, 2.0])
        np.testing.assert_allclose((3.0 * a).values, [3.0, 6.0])

    def test_negate(self):
        np.testing.assert_allclose((-Waveform([1.0, -2.0])).values,
                                   [-1.0, 2.0])

    def test_shifted(self):
        wf = Waveform([1.0], t0=5.0).shifted(10.0)
        assert wf.t0 == 15.0

    def test_scaled(self):
        wf = Waveform([1.0, 2.0]).scaled(2.0, offset=1.0)
        np.testing.assert_allclose(wf.values, [3.0, 5.0])

    def test_clipped(self):
        wf = Waveform([-1.0, 0.5, 2.0]).clipped(0.0, 1.0)
        np.testing.assert_allclose(wf.values, [0.0, 0.5, 1.0])

    def test_clipped_inverted_raises(self):
        with pytest.raises(ConfigurationError):
            Waveform([1.0]).clipped(1.0, 0.0)


class TestStatistics:
    def test_min_max_mean(self):
        wf = Waveform([1.0, 3.0, 5.0])
        assert wf.min() == 1.0
        assert wf.max() == 5.0
        assert wf.mean() == pytest.approx(3.0)

    def test_peak_to_peak(self):
        assert Waveform([1.0, 4.0]).peak_to_peak() == 3.0


class TestConcatenate:
    def test_two_segments(self):
        a = Waveform([1.0, 2.0], dt=1.0, t0=0.0)
        b = Waveform([3.0, 4.0], dt=1.0, t0=99.0)
        out = Waveform.concatenate([a, b])
        np.testing.assert_allclose(out.values, [1, 2, 3, 4])
        assert out.t0 == 0.0

    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            Waveform.concatenate([])

    def test_mismatched_dt_raises(self):
        a = Waveform([1.0], dt=1.0)
        b = Waveform([1.0], dt=2.0)
        with pytest.raises(ConfigurationError):
            Waveform.concatenate([a, b])
