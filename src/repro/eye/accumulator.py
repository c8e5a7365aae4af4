"""Streaming eye accumulation with O(grid) memory.

:class:`~repro.eye.diagram.EyeDiagram` keeps every folded sample —
fine for bench records, hopeless for BER-length streams (1e12 bits
of samples do not fit anywhere). :class:`EyeAccumulator` folds a
record chunk-by-chunk into a fixed time x voltage density grid plus
streamed crossing statistics, so memory is bounded by the grid no
matter how long the stream runs — exactly how a sampling scope's
color-graded persistence display works.

Equivalence contract
--------------------
For the same record, ``EyeAccumulator`` fed any chunking produces a
density grid **identical** to ``EyeDiagram.histogram2d`` over the
same voltage range (binning is additive over chunks and both sides
share :mod:`repro.eye._binning`). Metrics are the binned versions of
:func:`repro.eye.metrics.measure_eye`: the crossover circular mean
is exact (streamed sine/cosine sums), while jitter and vertical
statistics are computed from histograms and therefore quantized —
jitter to ``ui / n_phase_bins`` and voltages to
``(v_range span) / n_volt_bins``. Widen the grids to tighten the
bounds.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro import telemetry
from repro.errors import ConfigurationError, MeasurementError
from repro.eye.metrics import EyeMetrics
from repro.signal.analysis import threshold_crossings
from repro.signal.waveform import Waveform, WaveformBatch
from repro._units import unit_interval_ps


class EyeAccumulator:
    """Fold waveform chunks into a fixed-size eye density grid.

    Parameters
    ----------
    rate_gbps:
        Data rate; the fold period is ``1000/rate`` ps.
    v_range:
        Fixed ``(low, high)`` voltage axis of the density grid.
        Samples outside it are dropped from the grid (never from
        crossing statistics).
    threshold:
        Crossing threshold voltage. Must be fixed up front — a
        streaming fold cannot wait for the record midpoint.
    n_time_bins, n_volt_bins:
        Density grid resolution.
    n_phase_bins:
        Crossing-phase histogram resolution (sets the jitter
        quantization, ``ui / n_phase_bins``).
    t_first_bit:
        Time at which bit cell 0 starts.
    n_channels:
        None (default) accumulates everything — scalar chunks or
        batched chunks alike — into one *merged* density grid.
        An integer switches to per-channel mode: updates must be
        :class:`~repro.signal.waveform.WaveformBatch` chunks with
        exactly this many rows, ``grid``/``phase_hist`` gain a
        leading channel axis, and every readout takes an optional
        ``channel=`` selector (None reads the merged view).
    registry:
        Optional injected telemetry registry.
    """

    def __init__(self, rate_gbps: float, v_range: Tuple[float, float],
                 threshold: float, n_time_bins: int = 64,
                 n_volt_bins: int = 64, n_phase_bins: int = 256,
                 t_first_bit: float = 0.0,
                 n_channels: Optional[int] = None, registry=None):
        if v_range[1] <= v_range[0]:
            raise ConfigurationError(
                f"v_range must be increasing, got {v_range}"
            )
        if min(n_time_bins, n_volt_bins, n_phase_bins) < 2:
            raise ConfigurationError("all bin counts must be >= 2")
        if n_channels is not None and n_channels < 1:
            raise ConfigurationError(
                f"n_channels must be >= 1, got {n_channels}"
            )
        self.unit_interval = unit_interval_ps(rate_gbps)
        self.v_range = (float(v_range[0]), float(v_range[1]))
        self.threshold = float(threshold)
        self.t_first_bit = float(t_first_bit)
        self.telemetry = registry
        ui = self.unit_interval
        self.t_edges = np.linspace(0.0, ui, n_time_bins + 1,
                                   dtype=np.float64)
        self.v_edges = np.linspace(self.v_range[0], self.v_range[1],
                                   n_volt_bins + 1, dtype=np.float64)
        self.n_channels = None if n_channels is None else int(n_channels)
        if self.n_channels is None:
            #: int64 density grid, (n_time_bins, n_volt_bins) merged
            #: or (n_channels, n_time_bins, n_volt_bins) per-channel.
            self.grid = np.zeros((n_time_bins, n_volt_bins),
                                 dtype=np.int64)
        else:
            self.grid = np.zeros(
                (self.n_channels, n_time_bins, n_volt_bins),
                dtype=np.int64)
        self.n_phase_bins = int(n_phase_bins)
        if self.n_channels is None:
            self.phase_hist = np.zeros(self.n_phase_bins,
                                       dtype=np.int64)
            self._sum_sin = 0.0
            self._sum_cos = 0.0
        else:
            self.phase_hist = np.zeros(
                (self.n_channels, self.n_phase_bins), dtype=np.int64)
            self._sum_sin = np.zeros(self.n_channels)
            self._sum_cos = np.zeros(self.n_channels)
            #: Per-channel tallies (per-channel mode only).
            self.n_samples_per_channel = np.zeros(self.n_channels,
                                                  dtype=np.int64)
            self.n_crossings_per_channel = np.zeros(self.n_channels,
                                                    dtype=np.int64)
        self.n_samples = 0
        self.n_crossings = 0
        # Boundary carry: last sample of the previous chunk (one per
        # row for a batched stream), so a crossing straddling two
        # chunks is still detected.
        self._carry_v = None
        self._carry_t = 0.0
        self._t_next: Optional[float] = None
        self._dt: Optional[float] = None
        # Channel count of the stream's batches (None until the
        # first batched chunk; scalar streams never set it).
        self._batch_channels: Optional[int] = None

    def update(self, chunk) -> "EyeAccumulator":
        """Fold one contiguous *chunk* of the record; returns self.

        Chunks must arrive in order and butt together on one sample
        grid (each chunk's ``t0`` one sample after the previous
        chunk's last), mirroring a scope streaming one long
        acquisition. *chunk* is a
        :class:`~repro.signal.waveform.Waveform` or a
        :class:`~repro.signal.waveform.WaveformBatch`: a batched
        stream folds every row per chunk with a per-row seam carry,
        and must keep one channel count throughout (a stream is
        either scalar or batched, never mixed — the seam state is
        per row).
        """
        from repro.eye._binning import fold_phases

        if isinstance(chunk, WaveformBatch):
            return self._update_batch(chunk)
        if self.n_channels is not None:
            raise ConfigurationError(
                "per-channel accumulator takes WaveformBatch chunks"
            )
        if self._batch_channels is not None:
            raise MeasurementError(
                "stream is batched; feed WaveformBatch chunks"
            )
        if len(chunk) == 0:
            return self
        if self._dt is None:
            self._dt = chunk.dt
        elif abs(chunk.dt - self._dt) > 1e-12:
            raise MeasurementError(
                f"chunk dt {chunk.dt} differs from stream dt {self._dt}"
            )
        if self._t_next is not None \
                and abs(chunk.t0 - self._t_next) > 1e-9 * self._dt:
            raise MeasurementError(
                f"chunk t0 {chunk.t0} does not continue the stream "
                f"(expected {self._t_next})"
            )
        tel = telemetry.resolve(self.telemetry)
        with tel.span("eye.accumulate"):
            ui = self.unit_interval
            values = chunk.values
            n = len(values)
            phases = fold_phases(chunk.t0 - self.t_first_bit,
                                 self._dt, n, ui)
            hist, _, _ = np.histogram2d(
                phases, values, bins=(self.t_edges, self.v_edges),
            )
            self.grid += hist.astype(np.int64)
            self.n_samples += n

            # Crossings, including one straddling the chunk seam.
            if self._carry_v is not None:
                seam = Waveform(
                    np.concatenate(([self._carry_v], values)),
                    dt=self._dt, t0=self._carry_t,
                )
            else:
                seam = Waveform(values, dt=self._dt, t0=chunk.t0)
            times = threshold_crossings(seam, self.threshold) \
                - self.t_first_bit
            if len(times):
                cp = np.mod(times, ui)
                angles = 2.0 * np.pi * cp / ui
                self._sum_sin += float(np.sin(angles).sum())
                self._sum_cos += float(np.cos(angles).sum())
                bins = np.minimum(
                    (cp / ui * self.n_phase_bins).astype(np.int64),
                    self.n_phase_bins - 1,
                )
                self.phase_hist += np.bincount(
                    bins, minlength=self.n_phase_bins
                ).astype(np.int64)
                self.n_crossings += len(times)
            self._carry_v = float(values[-1])
            self._carry_t = chunk.t0 + (n - 1) * self._dt
            self._t_next = chunk.t0 + n * self._dt
            tel.counter("eye.samples_folded").inc(n)
            tel.counter("eye.crossings").inc(len(times))
        return self

    def _update_batch(self, batch: WaveformBatch) -> "EyeAccumulator":
        """Fold one batched chunk: every row at once, per-row carry.

        Per-row equivalence contract (property-tested in
        ``tests/test_batch_equivalence.py``): for any chunking and
        any batching, each row's density grid, phase histogram, and
        crossing counts are *identical* to feeding that row's chunks
        through a scalar accumulator; the streamed circular-mean
        sums match to float round-off (summation order).
        """
        from repro.eye._binning import fold_phases
        from repro.signal._kernels import density_bin, eye_fold

        c = batch.n_channels
        if self.n_channels is not None and c != self.n_channels:
            raise MeasurementError(
                f"batch has {c} channels; accumulator is configured "
                f"for {self.n_channels}"
            )
        if isinstance(self._carry_v, float):
            raise MeasurementError(
                "stream is scalar; feed Waveform chunks"
            )
        if self._batch_channels is not None \
                and c != self._batch_channels:
            raise MeasurementError(
                f"batch channel count changed mid-stream "
                f"({self._batch_channels} -> {c})"
            )
        if c == 0 or batch.n_samples == 0:
            return self
        if self._dt is None:
            self._dt = batch.dt
        elif abs(batch.dt - self._dt) > 1e-12:
            raise MeasurementError(
                f"chunk dt {batch.dt} differs from stream dt {self._dt}"
            )
        if self._t_next is not None \
                and abs(batch.t0 - self._t_next) > 1e-9 * self._dt:
            raise MeasurementError(
                f"chunk t0 {batch.t0} does not continue the stream "
                f"(expected {self._t_next})"
            )
        tel = telemetry.resolve(self.telemetry)
        with tel.span("eye.accumulate"):
            ui = self.unit_interval
            values = batch.values
            n = batch.n_samples
            phases = fold_phases(batch.t0 - self.t_first_bit,
                                 self._dt, n, ui)
            hist = density_bin(phases, values, self.t_edges,
                               self.v_edges)
            if self.n_channels is None:
                self.grid += hist.sum(axis=0)
            else:
                self.grid += hist
                self.n_samples_per_channel += n
            self.n_samples += values.size

            # Crossings, including per-row seams between chunks.
            if self._carry_v is not None:
                seam = np.concatenate(
                    (self._carry_v[:, None], values), axis=1)
                seam_t0 = self._carry_t
            else:
                seam = values
                seam_t0 = batch.t0
            rows, cols, frac = eye_fold(
                seam, np.full(c, self.threshold))
            if len(rows):
                times = (seam_t0 + self._dt * (cols + frac)) \
                    - self.t_first_bit
                cp = np.mod(times, ui)
                angles = 2.0 * np.pi * cp / ui
                bins = np.minimum(
                    (cp / ui * self.n_phase_bins).astype(np.int64),
                    self.n_phase_bins - 1,
                )
                if self.n_channels is None:
                    self._sum_sin += float(np.sin(angles).sum())
                    self._sum_cos += float(np.cos(angles).sum())
                    self.phase_hist += np.bincount(
                        bins, minlength=self.n_phase_bins
                    ).astype(np.int64)
                else:
                    self._sum_sin += np.bincount(
                        rows, weights=np.sin(angles), minlength=c)
                    self._sum_cos += np.bincount(
                        rows, weights=np.cos(angles), minlength=c)
                    self.phase_hist += np.bincount(
                        rows * self.n_phase_bins + bins,
                        minlength=c * self.n_phase_bins,
                    ).reshape(c, self.n_phase_bins).astype(np.int64)
                    self.n_crossings_per_channel += np.bincount(
                        rows, minlength=c)
                self.n_crossings += len(rows)
            self._carry_v = values[:, -1].copy()
            self._carry_t = batch.t0 + (n - 1) * self._dt
            self._t_next = batch.t0 + n * self._dt
            self._batch_channels = c
            tel.counter("eye.samples_folded").inc(values.size)
            tel.counter("eye.crossings").inc(len(rows))
        return self

    # -- readouts -----------------------------------------------------------

    def _select(self, channel: Optional[int]):
        """``(phase_hist, grid, n_crossings, sum_sin, sum_cos)``
        for one channel (or the merged view when *channel* is None)."""
        if self.n_channels is None:
            if channel is not None:
                raise ConfigurationError(
                    "merged accumulator has no channel axis; "
                    "construct with n_channels= for per-channel reads"
                )
            return (self.phase_hist, self.grid, self.n_crossings,
                    self._sum_sin, self._sum_cos)
        if channel is None:
            return (self.phase_hist.sum(axis=0),
                    self.grid.sum(axis=0), self.n_crossings,
                    float(self._sum_sin.sum()),
                    float(self._sum_cos.sum()))
        return (self.phase_hist[channel], self.grid[channel],
                int(self.n_crossings_per_channel[channel]),
                float(self._sum_sin[channel]),
                float(self._sum_cos[channel]))

    def density(self, channel: Optional[int] = None
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(hist, t_edges, v_edges)``, the ``histogram2d`` shape.

        The grid is returned as ``float64`` so it is interchangeable
        with :meth:`EyeDiagram.histogram2d` output. In per-channel
        mode, *channel* selects one row's grid; None merges every
        channel (exact — counts are integers).
        """
        _, grid, _, _, _ = self._select(channel)
        return (grid.astype(np.float64), self.t_edges.copy(),
                self.v_edges.copy())

    def snapshot(self, channel: Optional[int] = None,
                 include_grid: bool = True) -> dict:
        """A detached, wire-ready view of the stream so far.

        Every value is a scalar or a fresh list copy, so taking a
        snapshot between ``update`` calls never perturbs
        accumulation — the live-streaming service channel publishes
        these at arbitrary chunk boundaries, and invariance against
        the uninterrupted stream is pinned in
        ``tests/test_eye_accumulator.py``. With *include_grid*
        False only the scalar tallies ship (cheap enough to
        publish per chunk); True adds the density grid, its edges,
        and the crossing-phase histogram. *channel* selects one row
        in per-channel mode (None: the merged view).
        """
        phase_hist, grid, n_crossings, _ss, _sc = \
            self._select(channel)
        if self.n_channels is not None and channel is not None:
            n_samples = int(self.n_samples_per_channel[channel])
        else:
            n_samples = int(self.n_samples)
        out = {
            "n_samples": n_samples,
            "n_crossings": int(n_crossings),
            "unit_interval_ps": float(self.unit_interval),
            "threshold": float(self.threshold),
            "v_range": [self.v_range[0], self.v_range[1]],
            "n_time_bins": int(len(self.t_edges) - 1),
            "n_volt_bins": int(len(self.v_edges) - 1),
        }
        if include_grid:
            out["grid"] = grid.tolist()
            out["phase_hist"] = phase_hist.tolist()
            out["t_edges"] = self.t_edges.tolist()
            out["v_edges"] = self.v_edges.tolist()
        return out

    def crossover_phase(self, channel: Optional[int] = None) -> float:
        """Mean crossover position in ps within [0, UI) — exact.

        The circular mean comes from streamed sine/cosine sums, so
        it matches :meth:`EyeDiagram.crossover_phase` to float
        round-off, not to a bin. *channel* selects one row in
        per-channel mode (None: all channels pooled).
        """
        _, _, n_crossings, sum_sin, sum_cos = self._select(channel)
        if n_crossings == 0:
            raise MeasurementError("eye has no threshold crossings")
        mean_angle = np.arctan2(sum_sin / n_crossings,
                                sum_cos / n_crossings)
        ui = self.unit_interval
        return float(np.mod((mean_angle / (2.0 * np.pi)) * ui, ui))

    def metrics(self, center_window_frac: float = 0.1,
                channel: Optional[int] = None) -> EyeMetrics:
        """Binned :class:`EyeMetrics` for the stream so far.

        Jitter statistics come from the crossing-phase histogram
        (quantized to ``ui / n_phase_bins``); vertical statistics
        from the density grid columns nearest the eye center
        (quantized to one voltage bin). See the module docstring for
        the equivalence bounds. *channel* selects one row in
        per-channel mode (None: the merged eye).
        """
        phase_hist, grid, n_crossings, sum_sin, sum_cos = \
            self._select(channel)
        if n_crossings < 2:
            raise MeasurementError(
                "eye diagram needs at least two crossings to measure "
                "jitter"
            )
        ui = self.unit_interval
        mean_phase = self.crossover_phase(channel)
        occupied = np.flatnonzero(phase_hist)
        centers = (occupied + 0.5) * (ui / self.n_phase_bins)
        dev = np.mod(centers - mean_phase + ui / 2.0, ui) - ui / 2.0
        weights = phase_hist[occupied]
        jitter_pp = float(dev.max() - dev.min())
        mean_dev = float(np.average(dev, weights=weights))
        jitter_rms = float(np.sqrt(
            np.average((dev - mean_dev) ** 2, weights=weights)
        ))
        eye_width = max(0.0, ui - jitter_pp)

        # Vertical statistics from grid columns near eye center.
        center = np.mod(mean_phase + ui / 2.0, ui)
        half_window = 0.5 * center_window_frac * ui
        t_centers = 0.5 * (self.t_edges[:-1] + self.t_edges[1:])
        d = np.mod(t_centers - center + ui / 2.0, ui) - ui / 2.0
        counts = grid[np.abs(d) <= half_window].sum(axis=0)
        if counts.sum() < 4:
            raise MeasurementError("too few samples at eye center")
        v_centers = 0.5 * (self.v_edges[:-1] + self.v_edges[1:])
        hi_mask = (v_centers > self.threshold) & (counts > 0)
        lo_mask = (v_centers <= self.threshold) & (counts > 0)
        if not hi_mask.any() or not lo_mask.any():
            raise MeasurementError(
                "eye is closed at center (one level only)"
            )
        v_high = float(np.average(v_centers[hi_mask],
                                  weights=counts[hi_mask]))
        v_low = float(np.average(v_centers[lo_mask],
                                 weights=counts[lo_mask]))
        eye_height = max(0.0, float(v_centers[hi_mask].min()
                                    - v_centers[lo_mask].max()))
        return EyeMetrics(
            unit_interval=ui,
            jitter_pp=jitter_pp,
            jitter_rms=jitter_rms,
            eye_opening_ui=eye_width / ui,
            eye_width=eye_width,
            eye_height=eye_height,
            v_high=v_high,
            v_low=v_low,
            amplitude=v_high - v_low,
            n_crossings=n_crossings,
        )

    def __repr__(self) -> str:
        return (f"EyeAccumulator(ui={self.unit_interval} ps, "
                f"grid={self.grid.shape}, samples={self.n_samples}, "
                f"crossings={self.n_crossings})")
