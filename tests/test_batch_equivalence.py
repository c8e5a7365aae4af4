"""Golden equivalence suite for the batched signal path.

Every batched stage is checked against the kept per-channel
reference loop — the single-waveform APIs it replaces. The contract
per stage:

* NRZ render, LTI filtering, eye folding, accumulator grids, and
  the WDM mux are **bit-identical** per row (shared kernels, per-row
  disjoint reductions).
* Crosstalk mixing and the WDM demux reorder float additions (one
  matrix product instead of sequential per-pair adds) and are pinned
  to the documented tolerances ``XTALK_EQUIVALENCE_RTOL/ATOL`` and
  ``WDM_EQUIVALENCE_RTOL/ATOL``.

Cache composition is part of the contract: batched stages key each
row with the *same* digest formula as the single-channel path, so
warm entries flow between the two paths, and cached results stay
bit-identical to uncached ones. The digest literals pinned at the
bottom guard the on-disk key format itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cache as artifact_cache
from repro import telemetry
from repro.cache import ArtifactCache
from repro.channel.crosstalk import (
    XTALK_EQUIVALENCE_ATOL,
    XTALK_EQUIVALENCE_RTOL,
    CouplingSpec,
    CrosstalkMatrix,
)
from repro.channel.lti import IdealChannel, LTIChannel
from repro.errors import ConfigurationError, MeasurementError
from repro.eye import EyeAccumulator, EyeDiagram
from repro.optics.laser import WavelengthChannel
from repro.optics.wdm import (
    WDM_EQUIVALENCE_ATOL,
    WDM_EQUIVALENCE_RTOL,
    WDMDemux,
    WDMMux,
    stack_channels,
    unstack_channels,
)
from repro.signal.edges import EdgeShape
from repro.signal.jitter import JitterBudget
from repro.signal.nrz import NRZEncoder
from repro.signal.prbs import prbs_bits
from repro.signal.waveform import Waveform, WaveformBatch
from tests import _kernel_reference


@pytest.fixture(scope="module", autouse=True, params=["numpy", "fused"])
def _batched_kernels(request):
    """Run the whole batched-vs-scalar suite twice: ``fused`` on the
    shipping batched kernels, ``numpy`` with the reference kernels of
    ``tests/_kernel_reference.py`` swapped in. Batched stages must
    match the per-channel loops (and share cache keys with them) on
    both, which keeps the oracle honest too. Module-scoped so
    hypothesis ``@given`` tests can share it."""
    if request.param == "numpy":
        with _kernel_reference.reference_kernels():
            yield request.param
    else:
        yield request.param


# -- strategies -----------------------------------------------------------

def _bit_block(seed, n_rows, n_bits, constant_rows):
    """Random bits; with *constant_rows*, about half the rows are
    held at one level (zero edges)."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(n_rows, n_bits), dtype=np.int8)
    if constant_rows:
        bits[rng.random(n_rows) < 0.5] = rng.integers(0, 2)
    return bits


# 1-24 channels (wide blocks as well as narrow ones), with or
# without constant rows.
bit_blocks = st.builds(_bit_block, st.integers(0, 2 ** 31 - 1),
                       st.integers(1, 24), st.integers(1, 40),
                       st.booleans())

edge_shapes = st.sampled_from(list(EdgeShape))

#: ``(rate_gbps, dt)`` grids: 2.5 Gbps on 1 ps is the integer grid;
#: at 10 Gbps the edge windows run off both ends of the record; a
#: 3 Gbps unit interval or a fractional ``dt`` puts the edges off the
#: integer grid (the flattened render).
encoder_grids = st.sampled_from([(2.5, 1.0), (10.0, 1.0), (3.0, 1.0),
                                 (2.5, 2.5), (10.0, 0.75)])


def _batch_from_bits(bits, rate=2.5, t20_80=72.0,
                     shape=EdgeShape.ERF, dt=1.0,
                     v_low=-0.4, v_high=0.4):
    """``(encoder, batch, per-row waveforms)`` reference pair."""
    enc = NRZEncoder(rate, v_low=v_low, v_high=v_high,
                     t20_80=t20_80, shape=shape, dt=dt)
    batch = enc.encode_batch(bits)
    rows = [enc.encode(bits[i]) for i in range(len(bits))]
    return enc, batch, rows


class TestNRZGoldenEquivalence:
    """encode_batch rows == per-channel encode, bitwise."""

    @given(bits=bit_blocks, t20_80=st.sampled_from(
        [0.0, 40.0, 72.0, 120.0]), shape=edge_shapes,
        grid=encoder_grids)
    @settings(max_examples=30, deadline=None)
    def test_rows_bit_identical(self, bits, t20_80, shape, grid):
        rate, dt = grid
        _, batch, rows = _batch_from_bits(bits, rate=rate, dt=dt,
                                          t20_80=t20_80, shape=shape)
        assert batch.n_channels == len(bits)
        for i, ref in enumerate(rows):
            assert batch.dt == ref.dt and batch.t0 == ref.t0
            assert np.array_equal(batch.values[i], ref.values)

    def test_single_channel_batch(self):
        bits = np.array([[0, 1, 1, 0, 1, 0, 1, 1]])
        _, batch, rows = _batch_from_bits(bits)
        assert batch.n_channels == 1
        assert np.array_equal(batch.values[0], rows[0].values)

    def test_single_bit_rows(self):
        """One bit per row: no edges, pure rail hold."""
        bits = np.array([[0], [1], [1]])
        _, batch, rows = _batch_from_bits(bits)
        for i, ref in enumerate(rows):
            assert np.array_equal(batch.values[i], ref.values)

    def test_constant_bit_channels(self):
        """Edges only in rows 0-7 of 32: every later row renders its
        base level with no edges to scatter."""
        bits = np.zeros((32, 64), dtype=np.int8)
        rng = np.random.default_rng(11)
        bits[:8] = rng.integers(0, 2, size=(8, 64), dtype=np.int8)
        bits[20:] = 1
        _, batch, rows = _batch_from_bits(bits, rate=10.0, dt=25.0)
        for i, ref in enumerate(rows):
            assert np.array_equal(batch.values[i], ref.values)

    def test_empty_batch(self):
        """Zero channels is a valid (degenerate) batch."""
        enc = NRZEncoder(2.5, t20_80=72.0)
        batch = enc.encode_batch(np.empty((0, 8), dtype=np.int8))
        assert batch.n_channels == 0
        assert batch.n_samples > 0  # time axis still rendered

    def test_empty_bit_axis_rejected(self):
        enc = NRZEncoder(2.5)
        with pytest.raises(ConfigurationError):
            enc.encode_batch(np.empty((3, 0), dtype=np.int8))
        with pytest.raises(ConfigurationError):
            enc.encode_batch(np.zeros(8, dtype=np.int8))  # 1-D

    def test_mixed_seeds_per_row(self):
        """Rows from unrelated generators still match their refs."""
        bits = np.stack([
            np.random.default_rng(s).integers(0, 2, 64, dtype=np.int8)
            for s in (1, 7, 42, 1234)
        ])
        _, batch, rows = _batch_from_bits(bits, t20_80=0.0)
        for i, ref in enumerate(rows):
            assert np.array_equal(batch.values[i], ref.values)

    def test_jittered_batch_statistics(self):
        """With jitter the batch is statistically, not bitwise,
        equivalent: same edge count, offsets within the budget."""
        bits = np.stack([prbs_bits(7, 400) for _ in range(4)])
        enc = NRZEncoder(2.5, v_low=-0.4, v_high=0.4, t20_80=72.0)
        jit = JitterBudget(rj_rms=3.0)
        batch = enc.encode_batch(bits, jitter=jit.build(),
                                 rng=np.random.default_rng(3))
        ref = enc.encode_batch(bits)
        assert batch.values.shape == ref.values.shape
        # Jitter perturbs edges but not the rails.
        assert batch.values.min() == pytest.approx(-0.4, abs=1e-9)
        assert batch.values.max() == pytest.approx(0.4, abs=1e-9)
        assert not np.array_equal(batch.values, ref.values)


class TestLTIGoldenEquivalence:
    """apply_batch rows == per-channel apply, bitwise."""

    @given(bits=bit_blocks, bw=st.sampled_from([1.0, 3.0, 8.0, 1e4]),
           loss=st.sampled_from([0.0, 1.5]))
    @settings(max_examples=25, deadline=None)
    def test_rows_bit_identical(self, bits, bw, loss):
        _, batch, rows = _batch_from_bits(bits)
        ch = LTIChannel(bw, attenuation_db=loss, delay_ps=35.0)
        out = ch.apply_batch(batch)
        for i, wf in enumerate(rows):
            ref = ch.apply(wf)
            assert out.dt == ref.dt and out.t0 == ref.t0
            assert np.array_equal(out.values[i], ref.values)

    def test_empty_batch_passes_through(self):
        ch = LTIChannel(3.0)
        batch = WaveformBatch(np.empty((0, 16)), dt=1.0, t0=0.0)
        out = ch.apply_batch(batch)
        assert out.n_channels == 0
        assert out.n_samples == 16

    def test_ideal_channel_batch_is_shift(self):
        _, batch, rows = _batch_from_bits(
            np.array([[0, 1, 0, 1], [1, 1, 0, 0]]))
        out = IdealChannel(delay_ps=120.0).apply_batch(batch)
        assert out.t0 == batch.t0 + 120.0
        assert np.array_equal(out.values, batch.values)


class TestCrosstalkGoldenEquivalence:
    """apply_batch == sequential dict apply within pinned tolerances."""

    def _names_and_waveforms(self, n_rows, seed=0):
        names = [f"ch{i}" for i in range(n_rows)]
        bits = np.random.default_rng(seed).integers(
            0, 2, size=(n_rows, 48), dtype=np.int8)
        _, batch, rows = _batch_from_bits(bits)
        return names, batch, dict(zip(names, rows))

    @given(n_rows=st.integers(2, 6), seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_matches_dict_path(self, n_rows, seed):
        names, batch, waveforms = self._names_and_waveforms(
            n_rows, seed)
        matrix = CrosstalkMatrix(names)
        ref = matrix.apply(waveforms)
        out = matrix.apply_batch(batch)
        for i, name in enumerate(names):
            np.testing.assert_allclose(
                out.values[i], ref[name].values,
                rtol=XTALK_EQUIVALENCE_RTOL,
                atol=XTALK_EQUIVALENCE_ATOL)

    def test_subset_matches_partial_dict(self):
        """Quiet lines: a subset batch couples like a partial dict."""
        names, batch, waveforms = self._names_and_waveforms(5, 9)
        matrix = CrosstalkMatrix(names)
        subset = [names[0], names[2], names[3]]
        sub_batch = WaveformBatch.from_waveforms(
            [waveforms[n] for n in subset])
        ref = matrix.apply({n: waveforms[n] for n in subset})
        out = matrix.apply_batch(sub_batch, names=subset)
        for i, name in enumerate(subset):
            np.testing.assert_allclose(
                out.values[i], ref[name].values,
                rtol=XTALK_EQUIVALENCE_RTOL,
                atol=XTALK_EQUIVALENCE_ATOL)

    def test_distinct_rise_scales(self):
        names, batch, waveforms = self._names_and_waveforms(4, 2)
        matrix = CrosstalkMatrix(
            names,
            adjacent=CouplingSpec(coupling=0.04, rise_scale_ps=60.0),
            next_adjacent=CouplingSpec(coupling=0.01,
                                       rise_scale_ps=25.0))
        ref = matrix.apply(waveforms)
        out = matrix.apply_batch(batch)
        for i, name in enumerate(names):
            np.testing.assert_allclose(
                out.values[i], ref[name].values,
                rtol=XTALK_EQUIVALENCE_RTOL,
                atol=XTALK_EQUIVALENCE_ATOL)

    def test_row_count_mismatch_rejected(self):
        names, batch, _ = self._names_and_waveforms(3)
        matrix = CrosstalkMatrix(names + ["extra"])
        with pytest.raises(ConfigurationError):
            matrix.apply_batch(batch)


class TestWDMGoldenEquivalence:
    """Batched mux bitwise; batched demux within pinned tolerances."""

    def _channels(self, n, seed=0):
        grid = [WavelengthChannel(1546.0 + 0.8 * k, k)
                for k in range(n)]
        bits = np.random.default_rng(seed).integers(
            0, 2, size=(n, 32), dtype=np.int8)
        _, _, rows = _batch_from_bits(bits, v_low=0.0, v_high=1.0)
        return dict(zip(grid, rows))

    def test_stack_unstack_roundtrip(self):
        channels = self._channels(4)
        batch, order = stack_channels(channels)
        back = unstack_channels(batch, order)
        assert set(back) == set(channels)
        for ch, wf in channels.items():
            assert np.array_equal(back[ch].values, wf.values)

    def test_combine_batch_bit_identical(self):
        channels = self._channels(5, 3)
        mux = WDMMux(insertion_loss_db=1.5)
        ref = mux.combine(channels)
        batch, order = stack_channels(channels)
        out = mux.combine_batch(batch)
        for i, ch in enumerate(order):
            assert np.array_equal(out.values[i], ref[ch].values)

    @given(n=st.integers(1, 6), seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_split_batch_matches_dict_path(self, n, seed):
        channels = self._channels(n, seed)
        demux = WDMDemux(insertion_loss_db=2.0, isolation_db=28.0)
        ref = demux.split(channels)
        batch, order = stack_channels(channels)
        out = demux.split_batch(batch, [ch.index for ch in order])
        for i, ch in enumerate(order):
            np.testing.assert_allclose(
                out.values[i], ref[ch].values,
                rtol=WDM_EQUIVALENCE_RTOL, atol=WDM_EQUIVALENCE_ATOL)


class TestEyeFoldGoldenEquivalence:
    """from_batch (merge=False) == per-row from_waveform, bitwise."""

    @given(seed=st.integers(0, 100), n_rows=st.integers(1, 5))
    @settings(max_examples=15, deadline=None)
    def test_rows_bit_identical(self, seed, n_rows):
        bits = np.random.default_rng(seed).integers(
            0, 2, size=(n_rows, 200), dtype=np.int8)
        bits[:, 0] = 0
        bits[:, 1] = 1  # guarantee at least one transition per row
        _, batch, rows = _batch_from_bits(bits)
        eyes = EyeDiagram.from_batch(batch, 2.5)
        assert len(eyes) == n_rows
        for eye, wf in zip(eyes, rows):
            ref = EyeDiagram.from_waveform(wf, 2.5)
            assert eye.threshold == ref.threshold
            assert np.array_equal(eye.phases, ref.phases)
            assert np.array_equal(eye.voltages, ref.voltages)
            assert np.array_equal(eye.crossing_phases,
                                  ref.crossing_phases)

    def test_merge_pools_all_rows(self):
        bits = np.random.default_rng(5).integers(
            0, 2, size=(3, 200), dtype=np.int8)
        _, batch, rows = _batch_from_bits(bits)
        merged = EyeDiagram.from_batch(batch, 2.5, merge=True)
        per_row = EyeDiagram.from_batch(batch, 2.5)
        assert merged.n_samples == sum(e.n_samples for e in per_row)
        assert merged.n_crossings == sum(
            e.n_crossings for e in per_row)

    def test_merge_empty_batch_rejected(self):
        batch = WaveformBatch(np.empty((0, 4000)), dt=1.0, t0=0.0)
        with pytest.raises(MeasurementError):
            EyeDiagram.from_batch(batch, 2.5, merge=True)

    def test_short_record_rejected(self):
        batch = WaveformBatch(np.zeros((2, 10)), dt=1.0, t0=0.0)
        with pytest.raises(MeasurementError):
            EyeDiagram.from_batch(batch, 2.5)


class TestAccumulatorBatchEquivalence:
    """Any chunking x any batching folds like per-row scalar streams."""

    def _row_records(self, n_rows=3, n_bits=300, seed=11):
        bits = np.stack([prbs_bits(7, n_bits, seed=s)
                         for s in range(seed, seed + n_rows)])
        _, batch, rows = _batch_from_bits(bits)
        return batch, rows

    @staticmethod
    def _scalar_reference(wf, v_range, threshold, chunk=977):
        acc = EyeAccumulator(2.5, v_range=v_range, threshold=threshold)
        for i in range(0, len(wf), chunk):
            acc.update(Waveform(wf.values[i:i + chunk].copy(),
                                dt=wf.dt, t0=wf.t0 + i * wf.dt))
        return acc

    @given(chunk=st.integers(31, 5000))
    @settings(max_examples=10, deadline=None)
    def test_batched_chunking_matches_scalar_rows(self, chunk):
        batch, rows = self._row_records()
        v_range = (float(batch.values.min()),
                   float(batch.values.max()))
        acc = EyeAccumulator(2.5, v_range=v_range, threshold=0.0,
                             n_channels=batch.n_channels)
        n = batch.n_samples
        for i in range(0, n, chunk):
            acc.update(WaveformBatch(
                np.ascontiguousarray(batch.values[:, i:i + chunk]),
                dt=batch.dt, t0=batch.t0 + i * batch.dt))
        for k, wf in enumerate(rows):
            ref = self._scalar_reference(wf, v_range, 0.0)
            grid_b, te, ve = acc.density(channel=k)
            grid_s, te2, ve2 = ref.density()
            assert np.array_equal(grid_b, grid_s)
            assert np.array_equal(te, te2) and np.array_equal(ve, ve2)
            assert np.array_equal(acc.phase_hist[k], ref.phase_hist)
            assert int(acc.n_crossings_per_channel[k]) \
                == ref.n_crossings
            assert int(acc.n_samples_per_channel[k]) == ref.n_samples
            assert acc.crossover_phase(channel=k) == pytest.approx(
                ref.crossover_phase(), abs=1e-9)

    def test_merged_mode_pools_channels_exactly(self):
        batch, rows = self._row_records()
        v_range = (float(batch.values.min()),
                   float(batch.values.max()))
        merged = EyeAccumulator(2.5, v_range=v_range, threshold=0.0)
        merged.update(batch)
        expected = np.zeros_like(merged.grid)
        for wf in rows:
            ref = self._scalar_reference(wf, v_range, 0.0,
                                         chunk=len(wf))
            expected += ref.grid
        assert np.array_equal(merged.grid, expected)
        assert merged.n_samples == batch.values.size

    def test_per_channel_merged_readout_matches_sum(self):
        batch, _ = self._row_records()
        v_range = (float(batch.values.min()),
                   float(batch.values.max()))
        acc = EyeAccumulator(2.5, v_range=v_range, threshold=0.0,
                             n_channels=batch.n_channels)
        acc.update(batch)
        grid_all, _, _ = acc.density()
        assert np.array_equal(grid_all, acc.grid.sum(axis=0))
        assert acc.n_crossings \
            == int(acc.n_crossings_per_channel.sum())

    def test_seam_crossing_detected_per_row(self):
        """A crossing exactly between two batched chunks counts,
        independently per row."""
        acc = EyeAccumulator(2.5, v_range=(-1.0, 1.0), threshold=0.0,
                             n_channels=2)
        lo_hi = np.stack([np.full(100, -0.5), np.full(100, 0.5)])
        acc.update(WaveformBatch(lo_hi, dt=1.0, t0=0.0))
        acc.update(WaveformBatch(-lo_hi, dt=1.0, t0=100.0))
        assert acc.n_crossings == 2
        assert list(acc.n_crossings_per_channel) == [1, 1]

    def test_stream_kind_is_sticky(self):
        acc = EyeAccumulator(2.5, v_range=(-1.0, 1.0), threshold=0.0)
        acc.update(WaveformBatch(np.zeros((2, 8)), dt=1.0, t0=0.0))
        with pytest.raises(MeasurementError):
            acc.update(Waveform(np.zeros(8), dt=1.0, t0=8.0))
        scalar = EyeAccumulator(2.5, v_range=(-1.0, 1.0),
                                threshold=0.0)
        scalar.update(Waveform(np.zeros(8), dt=1.0, t0=0.0))
        with pytest.raises(MeasurementError):
            scalar.update(
                WaveformBatch(np.zeros((2, 8)), dt=1.0, t0=8.0))

    def test_channel_count_contracts(self):
        acc = EyeAccumulator(2.5, v_range=(-1.0, 1.0), threshold=0.0,
                             n_channels=3)
        with pytest.raises(ConfigurationError):
            acc.update(Waveform(np.zeros(8), dt=1.0, t0=0.0))
        with pytest.raises(MeasurementError):
            acc.update(WaveformBatch(np.zeros((2, 8)), dt=1.0,
                                     t0=0.0))
        merged = EyeAccumulator(2.5, v_range=(-1.0, 1.0),
                                threshold=0.0)
        merged.update(WaveformBatch(np.zeros((2, 8)), dt=1.0,
                                    t0=0.0))
        with pytest.raises(MeasurementError):
            merged.update(WaveformBatch(np.zeros((3, 8)), dt=1.0,
                                        t0=8.0))

    def test_merged_accumulator_rejects_channel_reads(self):
        acc = EyeAccumulator(2.5, v_range=(-1.0, 1.0), threshold=0.0)
        with pytest.raises(ConfigurationError):
            acc.density(channel=0)


class TestTestbedBatchEquivalence:
    """transmit_slot_batch covers the scalar path's channel set."""

    def _bed_and_slot(self, crosstalk=None):
        from repro.core.packetformat import PacketSlot
        from repro.core.testbed import OpticalTestBed

        bed = OpticalTestBed(crosstalk=crosstalk)
        slot = PacketSlot.random(bed.fmt, address=3,
                                 rng=np.random.default_rng(1))
        return bed, slot

    def test_channel_set_and_grids_match(self):
        bed, slot = self._bed_and_slot()
        scalar = bed.transmit_slot(slot, seed=4)
        batched = bed.transmit_slot_batch(slot, seed=4)
        assert set(batched) == set(scalar)
        for name, wf in scalar.items():
            assert batched[name].dt == wf.dt
            assert batched[name].t0 == wf.t0
            assert len(batched[name]) == len(wf)

    def test_slow_channels_bit_identical(self):
        """Frame/header render without jitter, so batching cannot
        change a single sample."""
        bed, slot = self._bed_and_slot()
        scalar = bed.transmit_slot(slot, seed=4)
        batched = bed.transmit_slot_batch(slot, seed=4)
        for name in scalar:
            if name.startswith("frame") or name.startswith("header"):
                assert np.array_equal(batched[name].values,
                                      scalar[name].values)

    def test_crosstalk_applies_to_batched_slot(self):
        matrix = CrosstalkMatrix(
            ["data0", "data1", "data2", "data3", "clock"])
        bed, slot = self._bed_and_slot(crosstalk=matrix)
        quiet_bed, _ = self._bed_and_slot()
        coupled = bed.transmit_slot_batch(slot, seed=4)
        quiet = quiet_bed.transmit_slot_batch(slot, seed=4)
        assert not np.array_equal(coupled["data1"].values,
                                  quiet["data1"].values)


class TestBatchedCacheComposition:
    """Batched stages share per-row entries with the scalar path and
    stay bit-identical cached vs uncached."""

    BITS = np.array([
        [0, 1, 1, 0, 1, 0, 0, 1] * 8,
        [1, 0, 1, 1, 0, 0, 1, 0] * 8,
        [0, 0, 1, 0, 1, 1, 0, 1] * 8,
    ], dtype=np.int8)

    def test_cached_batch_bit_identical_to_uncached(self):
        enc = NRZEncoder(2.5, v_low=-0.4, v_high=0.4, t20_80=72.0)
        cold = enc.encode_batch(self.BITS)
        cache = ArtifactCache()
        with artifact_cache.use_cache(cache):
            first = enc.encode_batch(self.BITS)
            warm = enc.encode_batch(self.BITS)
        for out in (first, warm):
            assert np.array_equal(out.values, cold.values)
        stats = cache.stats()
        assert stats["stores"] == len(self.BITS)
        assert stats["hits"] >= len(self.BITS)

    def test_batch_reuses_scalar_entries(self):
        """Rows rendered singly are hits for the batched render."""
        enc = NRZEncoder(2.5, v_low=-0.4, v_high=0.4, t20_80=72.0)
        cache = ArtifactCache()
        with artifact_cache.use_cache(cache):
            refs = [enc.encode(row) for row in self.BITS]
            assert cache.stats()["stores"] == len(self.BITS)
            batch = enc.encode_batch(self.BITS)
        assert cache.stats()["stores"] == len(self.BITS)  # no re-render
        assert cache.stats()["hits"] >= len(self.BITS)
        for i, ref in enumerate(refs):
            assert np.array_equal(batch.values[i], ref.values)

    def test_scalar_reuses_batch_entries(self):
        """And the other direction: batched renders warm the scalar
        path."""
        enc = NRZEncoder(2.5, v_low=-0.4, v_high=0.4, t20_80=72.0)
        cache = ArtifactCache()
        with artifact_cache.use_cache(cache):
            batch = enc.encode_batch(self.BITS)
            stores = cache.stats()["stores"]
            wf = enc.encode(self.BITS[1])
        assert cache.stats()["stores"] == stores
        assert np.array_equal(wf.values, batch.values[1])

    def test_partial_hits_render_only_missing_rows(self):
        enc = NRZEncoder(2.5, v_low=-0.4, v_high=0.4, t20_80=72.0)
        cold = enc.encode_batch(self.BITS)
        cache = ArtifactCache()
        with artifact_cache.use_cache(cache):
            enc.encode(self.BITS[0])  # warm one row only
            batch = enc.encode_batch(self.BITS)
        assert cache.stats()["stores"] == len(self.BITS)
        assert np.array_equal(batch.values, cold.values)

    def test_lti_batch_cache_composes_per_row(self):
        enc = NRZEncoder(2.5, v_low=-0.4, v_high=0.4, t20_80=72.0)
        ch = LTIChannel(3.0, attenuation_db=1.0, delay_ps=50.0)
        cold = ch.apply_batch(enc.encode_batch(self.BITS))
        cache = ArtifactCache()
        with artifact_cache.use_cache(cache):
            batch = enc.encode_batch(self.BITS)
            out1 = ch.apply_batch(batch)
            scalar = ch.apply(batch.row(1))
            out2 = ch.apply_batch(batch)
        assert np.array_equal(out1.values, cold.values)
        assert np.array_equal(out2.values, cold.values)
        assert np.array_equal(scalar.values, cold.values[1])

    def test_eye_batch_cache_composes_per_row(self):
        enc = NRZEncoder(2.5, v_low=-0.4, v_high=0.4, t20_80=72.0)
        cold = EyeDiagram.from_batch(enc.encode_batch(self.BITS), 2.5)
        cache = ArtifactCache()
        with artifact_cache.use_cache(cache):
            batch = enc.encode_batch(self.BITS)
            eyes1 = EyeDiagram.from_batch(batch, 2.5)
            ref = EyeDiagram.from_waveform(batch.row(2), 2.5)
            eyes2 = EyeDiagram.from_batch(batch, 2.5)
        assert eyes2[2] is ref  # literally the same cached fold
        for eyes in (eyes1, eyes2):
            for eye, ref_eye in zip(eyes, cold):
                assert np.array_equal(eye.voltages, ref_eye.voltages)
                assert np.array_equal(eye.crossing_phases,
                                      ref_eye.crossing_phases)


class TestNonFiniteSamples:
    """A NaN or inf sample is a typed error at the batch boundary,
    counted, never a deep NumPy error or a silently empty eye."""

    @staticmethod
    def _block(bad):
        bits = np.random.default_rng(2).integers(
            0, 2, size=(3, 200), dtype=np.int8)
        _, batch, _ = _batch_from_bits(bits)
        values = batch.values.copy()
        values[1, 417] = bad
        return values, batch.dt, batch.t0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_accumulator_update_gets_typed_error(self, bad):
        values, dt, t0 = self._block(bad)
        acc = EyeAccumulator(2.5, v_range=(-0.5, 0.5), threshold=0.0,
                             n_channels=3)
        with telemetry.use_registry() as reg:
            with pytest.raises(MeasurementError, match="finite"):
                acc.update(WaveformBatch(values, dt=dt, t0=t0))
        assert reg.to_dict()["counters"][
            "signal.nonfinite_rejected"] == 1
        assert acc.n_samples == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_filtered_eye_never_reports_zero_crossings(self, bad):
        """Unchecked, the LTI filter smears the sample over the row
        and the fold reports 0 crossings for that channel."""
        values, dt, t0 = self._block(bad)
        with pytest.raises(MeasurementError, match="finite"):
            EyeDiagram.from_batch(
                LTIChannel(3.0).apply_batch(
                    WaveformBatch(values, dt=dt, t0=t0)), 2.5)

    def test_finite_batch_is_not_counted(self):
        values, dt, t0 = self._block(0.1)
        with telemetry.use_registry() as reg:
            WaveformBatch(values, dt=dt, t0=t0)
        assert reg.to_dict()["counters"].get(
            "signal.nonfinite_rejected", 0) == 0

    def test_from_waveforms_rejects_nonfinite_row(self):
        """The NaN row is refused as soon as it is built: a scalar
        ``Waveform`` checks its samples too."""
        with pytest.raises(MeasurementError, match="finite"):
            WaveformBatch.from_waveforms(
                [Waveform(np.zeros(8)), Waveform(np.full(8, np.nan))])

    def test_arithmetic_overflow_rejected(self):
        """A derived batch is checked too: 1e308 + 1e308 is inf."""
        big = WaveformBatch(np.full((2, 4), 1e308))
        with np.errstate(over="ignore"), \
                pytest.raises(MeasurementError, match="finite"):
            big + big


class TestCacheKeyRegression:
    """Pin the digest format: batched-path sharing relies on the
    single-channel key formulas never drifting."""

    def test_nrz_encoder_config_digest_pinned(self):
        enc = NRZEncoder(2.5, v_low=-0.4, v_high=0.4, t20_80=72.0)
        assert enc.cache_key() \
            == "fe85d0718ad14edb640e6ad40df5931647d296b1"

    def test_lti_channel_config_digest_pinned(self):
        ch = LTIChannel(3.0, attenuation_db=1.0, delay_ps=50.0)
        assert ch.cache_key() \
            == "ccfaac43ab5c148fb5d5dbb266763c463b1fbb07"

    def test_nrz_render_row_digest_pinned(self):
        enc = NRZEncoder(2.5, v_low=-0.4, v_high=0.4, t20_80=72.0)
        bits = np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=np.int8)
        key = artifact_cache.canonical_digest(
            "nrz.encode", enc.cache_key(), bits, 1.0)
        assert key == "41fbadb5b01f6be67aeb679f91f1436478ee2b76"

    def test_batch_row_keys_equal_scalar_keys(self):
        """The key a batched render stores under is byte-for-byte the
        scalar path's key (checked via cross-path hits)."""
        enc = NRZEncoder(5.0, t20_80=40.0)
        bits = np.random.default_rng(0).integers(
            0, 2, size=(4, 32), dtype=np.int8)
        cache = ArtifactCache()
        with artifact_cache.use_cache(cache):
            enc.encode_batch(bits)
            misses = cache.stats()["misses"]
            for row in bits:
                enc.encode(row)
        assert cache.stats()["misses"] == misses
