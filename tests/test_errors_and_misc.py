"""Coverage round: error hierarchy and small remaining surfaces."""

import numpy as np
import pytest

from repro import errors


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in ("ConfigurationError", "RateLimitError",
                     "CalibrationError", "ProtocolError",
                     "MemoryError_", "FabricError", "ProbeError",
                     "MeasurementError"):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError), name

    def test_rate_limit_is_configuration(self):
        assert issubclass(errors.RateLimitError,
                          errors.ConfigurationError)

    def test_single_catch_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.FabricError("x")


class TestPackageVersion:
    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2


class TestDecodeInputGuard:
    """``LinkCodec.decode_frame`` takes one 1-D bit stream; a block
    goes through ``decode_frame_batch``."""

    @pytest.mark.parametrize("shape", [(2, 40), (1, 40), ()])
    def test_non_1d_rejected(self, shape):
        from repro.coding import LinkCodec

        with pytest.raises(errors.ConfigurationError, match="1-D"):
            LinkCodec().decode_frame(np.zeros(shape, dtype=np.uint8))


class TestMiscSurfaces:
    def test_fanout_reproducible_per_seed(self):
        from repro.pecl.fanout import ClockFanout

        a = ClockFanout(n_outputs=4, seed=5)
        b = ClockFanout(n_outputs=4, seed=5)
        assert [a.skew(i) for i in range(4)] == \
            [b.skew(i) for i in range(4)]

    def test_waveform_repr(self):
        from repro.signal.waveform import Waveform

        text = repr(Waveform([1.0, 2.0], dt=2.0))
        assert "n=2" in text and "dt=2.0" in text

    def test_lfsr_repr(self):
        from repro.dlc.lfsr import LFSR

        assert "order=7" in repr(LFSR(7))

    def test_register_repr(self):
        from repro.dlc.registers import Register

        text = repr(Register("X", 4, read_only=True))
        assert "ro" in text

    def test_delay_line_repr_fields(self):
        from repro.pecl.delay import ProgrammableDelayLine

        line = ProgrammableDelayLine(n_codes=4)
        assert line.full_range == pytest.approx(30.0)

    def test_eye_metrics_frozen(self):
        from repro.core.testbed import OpticalTestBed

        m = OpticalTestBed().measure_eye(n_bits=1000, seed=1)
        with pytest.raises(Exception):
            m.jitter_pp = 0.0

    def test_vortex_packet_latency(self):
        from repro.vortex.packet import VortexPacket

        pkt = VortexPacket(1, 0, injected_cycle=5)
        assert pkt.latency(12) == 7

    def test_checker_state_ber_zero_when_unchecked(self):
        from repro.dlc.prbs_checker import CheckerState

        assert CheckerState().ber == 0.0

    def test_shmoo_render_orientation(self):
        from repro.host.shmoo import ShmooRunner

        result = ShmooRunner(lambda x, y: y > 0).run([0, 1],
                                                     [-1, 1])
        lines = result.render().splitlines()
        # First rendered row is the highest y (passes).
        assert "PP" in lines[1]
        assert ".." in lines[2]

    def test_bin_summary_zero_tested(self):
        from repro.wafer.inkmap import summarize
        from repro.wafer.map import WaferMap

        wafer = WaferMap(diameter_mm=40.0, die_width_mm=8.0,
                         die_height_mm=8.0)
        assert summarize(wafer).yield_percent == 0.0

    def test_optical_link_channels(self):
        from repro.optics.link import OpticalLink

        assert OpticalLink(n_channels=3).n_channels == 3

    def test_throughput_report_fields(self):
        from repro.wafer.throughput import ThroughputModel

        r = ThroughputModel(n_dies=100).report(4)
        assert r.touchdowns == 25
