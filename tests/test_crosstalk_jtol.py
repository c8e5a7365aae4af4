"""Tests for crosstalk coupling and jitter tolerance."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ReproError
from repro.channel.crosstalk import (
    CouplingSpec,
    CrosstalkMatrix,
    apply_crosstalk,
    coupled_noise,
)
from repro.eye.diagram import EyeDiagram
from repro.eye.metrics import measure_eye
from repro.instruments.jtol import JitterToleranceTester
from repro.signal.nrz import bits_to_waveform
from repro.signal.prbs import prbs_bits
from repro.signal.waveform import Waveform, WaveformBatch


def _channel(seed=0, n=600, rate=2.5):
    bits = prbs_bits(7, n, seed=1 + seed)
    return bits_to_waveform(bits, rate, v_low=-0.4, v_high=0.4,
                            t20_80=72.0)


class TestCoupledNoise:
    def test_quiet_aggressor_no_noise(self):
        flat = Waveform(np.zeros(1000), dt=1.0)
        noise = coupled_noise(flat)
        assert noise.peak_to_peak() == pytest.approx(0.0, abs=1e-12)

    def test_noise_scales_with_coupling(self):
        aggressor = _channel()
        weak = coupled_noise(aggressor, CouplingSpec(coupling=0.01))
        strong = coupled_noise(aggressor, CouplingSpec(coupling=0.05))
        assert strong.peak_to_peak() == pytest.approx(
            5.0 * weak.peak_to_peak(), rel=0.01
        )

    def test_noise_at_aggressor_edges(self):
        """The coupled pulse peaks where the aggressor switches."""
        aggressor = bits_to_waveform([0, 1, 1, 1, 1, 1], 2.5,
                                     t20_80=72.0)
        noise = coupled_noise(aggressor)
        peak_t = noise.times()[int(np.argmax(np.abs(noise.values)))]
        # The 0->1 edge sits at 400 ps.
        assert peak_t == pytest.approx(400.0, abs=80.0)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            CouplingSpec(coupling=0.9)
        with pytest.raises(ConfigurationError):
            CouplingSpec(rise_scale_ps=0.0)


class TestShortRecords:
    """Crosstalk couples dV/dt: a record of fewer than 2 samples has
    no slew, and both matrix paths say so with a typed error instead
    of NumPy's numerical-gradient ``ValueError``."""

    @pytest.mark.parametrize("n", [0, 1])
    def test_dict_path(self, n):
        matrix = CrosstalkMatrix(["a", "b"])
        waves = {name: Waveform(np.zeros(n)) for name in ("a", "b")}
        with pytest.raises(ReproError, match=">= 2 samples"):
            matrix.apply(waves)

    @pytest.mark.parametrize("n", [0, 1])
    def test_batch_path(self, n):
        matrix = CrosstalkMatrix(["a", "b", "c"])
        with pytest.raises(ReproError, match=">= 2 samples"):
            matrix.apply_batch(WaveformBatch(np.zeros((3, n))))

    def test_two_samples_still_couple(self):
        matrix = CrosstalkMatrix(["a", "b"])
        out = matrix.apply_batch(
            WaveformBatch(np.array([[0.0, 0.4], [0.0, 0.0]])))
        assert out.values[1].any()


class TestCrosstalkOnEyes:
    def test_aggressors_close_the_eye(self):
        victim = _channel(seed=0, n=1200)
        aggressors = [_channel(seed=k, n=1200) for k in (1, 2)]
        clean = measure_eye(EyeDiagram.from_waveform(victim, 2.5))
        noisy_wf = apply_crosstalk(victim, aggressors,
                                   CouplingSpec(coupling=0.08))
        noisy = measure_eye(EyeDiagram.from_waveform(noisy_wf, 2.5))
        assert noisy.eye_height < clean.eye_height
        assert noisy.jitter_pp > clean.jitter_pp

    def test_matrix_adjacency(self):
        names = ["data0", "data1", "data2", "data3"]
        matrix = CrosstalkMatrix(names,
                                 adjacent=CouplingSpec(coupling=0.05),
                                 next_adjacent=None)
        waveforms = {n: _channel(seed=k)
                     for k, n in enumerate(names)}
        out = matrix.apply(waveforms)
        # Edge channel (1 neighbour) is cleaner than a middle one (2).
        edge_noise = (out["data0"] - waveforms["data0"]).peak_to_peak()
        middle_noise = (out["data1"] - waveforms["data1"]).peak_to_peak()
        assert middle_noise > edge_noise

    def test_matrix_missing_channels_ok(self):
        matrix = CrosstalkMatrix(["a", "b", "c"])
        out = matrix.apply({"a": _channel(0), "c": _channel(1)})
        assert set(out) == {"a", "c"}

    def test_matrix_validation(self):
        with pytest.raises(ConfigurationError):
            CrosstalkMatrix(["only"])
        with pytest.raises(ConfigurationError):
            CrosstalkMatrix(["a", "a"])
        matrix = CrosstalkMatrix(["a", "b"])
        with pytest.raises(ConfigurationError):
            matrix.apply({"z": _channel(0)})


class TestJitterTolerance:
    def test_zero_injection_passes(self):
        tester = JitterToleranceTester(n_bits=300)
        assert tester._error_free(0.0, 0.01, seed=1)

    def test_huge_injection_fails(self):
        tester = JitterToleranceTester(n_bits=300)
        assert not tester._error_free(1.2, 0.625, seed=1)

    def test_tolerance_point_bounded(self):
        tester = JitterToleranceTester(n_bits=300)
        point = tester.tolerance_at(0.1, seed=2)
        assert 0.2 < point.tolerated_pp_ui < 1.2

    def test_sweep_produces_curve(self):
        tester = JitterToleranceTester(n_bits=300)
        curve = tester.sweep((0.01, 0.1, 0.4), seed=3)
        assert len(curve) == 3
        for point in curve:
            assert point.tolerated_pp_ui > 0.1

    def test_dirtier_link_tolerates_less(self):
        from repro.signal.jitter import JitterBudget

        clean = JitterToleranceTester(
            base_budget=JitterBudget(rj_rms=1.0, dj_pp=5.0),
            n_bits=300,
        )
        dirty = JitterToleranceTester(
            base_budget=JitterBudget(rj_rms=4.0, dj_pp=60.0),
            n_bits=300,
        )
        f = 0.2
        assert dirty.tolerance_at(f, seed=4).tolerated_pp_ui < \
            clean.tolerance_at(f, seed=4).tolerated_pp_ui

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            JitterToleranceTester(rate_gbps=0.0)
        tester = JitterToleranceTester()
        with pytest.raises(ConfigurationError):
            tester.tolerance_at(0.0)
