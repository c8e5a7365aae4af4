"""NRZ waveform synthesis from bit sequences.

Converts a digital bit stream into an analog :class:`Waveform` with
finite rise/fall times and optional per-edge jitter — the electrical
signal that leaves a PECL output buffer.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro import telemetry
from repro.errors import ConfigurationError
from repro.signal import _kernels
from repro.signal.edges import EdgeShape
from repro.signal.jitter import JitterModel
from repro.signal.waveform import Waveform, WaveformBatch
from repro._units import unit_interval_ps


class NRZEncoder:
    """Synthesizes NRZ waveforms at a fixed data rate.

    Parameters
    ----------
    rate_gbps:
        Data rate in Gbps; the unit interval is ``1000/rate`` ps.
    v_low, v_high:
        Logic levels in volts.
    t20_80:
        20-80% transition time in ps applied to every edge.
    shape:
        Analytic edge shape.
    dt:
        Output sample spacing in ps.
    registry:
        Optional injected telemetry registry; defaults to the
        module-level active one.
    """

    def __init__(self, rate_gbps: float, v_low: float = 0.0,
                 v_high: float = 1.0, t20_80: float = 0.0,
                 shape: EdgeShape = EdgeShape.ERF, dt: float = 1.0,
                 registry=None):
        if v_high <= v_low:
            raise ConfigurationError(
                f"v_high ({v_high}) must exceed v_low ({v_low})"
            )
        self.rate_gbps = float(rate_gbps)
        self.unit_interval = unit_interval_ps(rate_gbps)
        self.v_low = float(v_low)
        self.v_high = float(v_high)
        self.t20_80 = float(t20_80)
        self.shape = shape
        self.dt = float(dt)
        self.telemetry = registry

    def cache_key(self) -> str:
        """Canonical digest of this encoder's output-determining config.

        Part of the ``repro.cache`` protocol: any change to any
        field (rate, levels, edge time/shape, sample grid) yields a
        different key, so cached renders can never alias across
        configurations.
        """
        from repro.cache.keys import canonical_digest

        return canonical_digest(
            "NRZEncoder", self.rate_gbps, self.v_low, self.v_high,
            self.t20_80, self.shape, self.dt,
        )

    def edge_times_and_directions(
            self, bits: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nominal transition times, directions, and bit history codes.

        Returns ``(times, directions, history)`` where times are the
        ideal edge instants (start of the bit cell that changes
        value), directions are +1/-1, and history encodes up to four
        preceding bits as an integer (for data-dependent jitter).
        """
        bits = np.asarray(bits).astype(np.int8)
        if len(bits) < 2:
            # dtype pinned: downstream jitter models do float math on
            # these and must never see a default/object dtype.
            return (np.empty(0, dtype=np.float64),
                    np.empty(0, dtype=np.float64),
                    np.empty(0, dtype=np.int64))
        change = np.flatnonzero(np.diff(bits) != 0)
        times = (change + 1).astype(np.float64) * self.unit_interval
        directions = np.where(bits[change + 1] > bits[change], 1.0, -1.0)
        history = np.zeros(len(change), dtype=np.int64)
        for k in range(4):
            idx = change - k
            valid = idx >= 0
            vals = np.zeros(len(change), dtype=np.int64)
            vals[valid] = bits[idx[valid]]
            history |= vals << k
        return times, directions, history

    def encode(self, bits, jitter: Optional[JitterModel] = None,
               rng: Optional[np.random.Generator] = None,
               pad_ui: float = 1.0, cache=None) -> Waveform:
        """Render *bits* as an analog waveform.

        Parameters
        ----------
        bits:
            Sequence of 0/1 values.
        jitter:
            Optional per-edge jitter model.
        rng:
            Random generator (required if *jitter* has a stochastic
            component; defaults to a fixed-seed generator).
        pad_ui:
            Flat padding, in unit intervals, before and after the
            pattern so boundary edges are fully rendered.
        cache:
            Optional injected :class:`repro.cache.ArtifactCache`;
            defaults to the module-level active one. Renders are
            memoized keyed ``(encoder config, bits, pad_ui)`` only
            when *jitter* is None — a jitter model draws from the
            caller's RNG, whose state the key cannot capture — and
            hits are the identical (immutable) waveform, which
            carries a provenance token for cheap downstream keys.
        """
        bits = np.asarray(bits).astype(np.int8)
        if len(bits) == 0:
            raise ConfigurationError("cannot encode an empty bit sequence")
        if np.any((bits != 0) & (bits != 1)):
            raise ConfigurationError("bits must be 0 or 1")
        if rng is None:
            rng = np.random.default_rng(0)

        from repro import cache as _cache

        store = _cache.resolve(cache)
        if store.enabled and jitter is None:
            key = _cache.canonical_digest(
                "nrz.encode", self.cache_key(), bits, float(pad_ui),
            )
            wf = store.get_or_compute(
                key, lambda: self._encode_impl(bits, None, rng, pad_ui)
            )
            return wf.set_cache_token(key)
        return self._encode_impl(bits, jitter, rng, pad_ui)

    def encode_batch(self, bits, jitter: Optional[JitterModel] = None,
                     rng: Optional[np.random.Generator] = None,
                     pad_ui: float = 1.0, cache=None) -> WaveformBatch:
        """Render a ``(channels, n_bits)`` bit block as a batch.

        The batched counterpart of :meth:`encode`: every channel is
        rendered through one kernel pass
        (:func:`repro.signal._kernels.render_nrz_batch`) sharing a
        single edge template, with no per-channel Python loop. The
        output is *bit-identical* per row to calling :meth:`encode`
        on each channel when *jitter* is None; with a jitter model
        the offsets are drawn in one call over the concatenated
        edges, so the RNG consumption order differs from the
        per-channel loop (statistically equivalent, not
        bit-identical).

        Caching composes per row: each channel is keyed with the
        *same* digest formula as the single-channel path, so batched
        and per-channel renders share cache entries. Rows that hit
        are reused; only the missing rows are rendered (as a
        sub-batch) and stored individually.
        """
        bits = np.asarray(bits)
        if bits.ndim != 2:
            raise ConfigurationError(
                f"encode_batch expects a (channels, n_bits) block, "
                f"got shape {bits.shape}"
            )
        if bits.shape[1] == 0:
            raise ConfigurationError("cannot encode an empty bit sequence")
        bits = bits.astype(np.int8)
        if np.any((bits != 0) & (bits != 1)):
            raise ConfigurationError("bits must be 0 or 1")
        if rng is None:
            rng = np.random.default_rng(0)

        from repro import cache as _cache

        store = _cache.resolve(cache)
        if not (store.enabled and jitter is None) or not len(bits):
            return self._encode_batch_impl(bits, jitter, rng, pad_ui)

        keys = [
            _cache.canonical_digest(
                "nrz.encode", self.cache_key(), bits[i], float(pad_ui),
            )
            for i in range(len(bits))
        ]
        hits = []
        for key in keys:
            hit, value = store.get(key)
            hits.append(value if hit else None)
        missing = [i for i, wf in enumerate(hits) if wf is None]
        if missing:
            sub = self._encode_batch_impl(bits[missing], None, rng,
                                          pad_ui)
            for j, i in enumerate(missing):
                wf = Waveform(sub.values[j].copy(), dt=sub.dt,
                              t0=sub.t0)
                store.put(keys[i], wf)
                hits[i] = wf
        values = np.stack([wf.values for wf in hits])
        return WaveformBatch(values, dt=hits[0].dt, t0=hits[0].t0,
                             tokens=keys)

    def _edge_times_batch(
            self, bits: np.ndarray, need_history: bool = True
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Flattened ``(times, directions, history, rows)`` for a block.

        Row-major edge order, matching per-row
        :meth:`edge_times_and_directions` output exactly. History
        codes are only consumed by jitter models; *need_history*
        False skips their gather and returns zeros.
        """
        if bits.shape[1] < 2:
            return (np.empty(0, dtype=np.float64),
                    np.empty(0, dtype=np.float64),
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64))
        rows, change = np.nonzero(np.diff(bits, axis=1) != 0)
        times = (change + 1).astype(np.float64) * self.unit_interval
        directions = np.where(bits[rows, change + 1] > bits[rows, change],
                              1.0, -1.0)
        history = np.zeros(len(change), dtype=np.int64)
        if need_history:
            for k in range(4):
                idx = change - k
                valid = idx >= 0
                vals = np.zeros(len(change), dtype=np.int64)
                vals[valid] = bits[rows[valid], idx[valid]]
                history |= vals << k
        return times, directions, history, rows.astype(np.int64)

    def _encode_batch_impl(self, bits: np.ndarray,
                           jitter: Optional[JitterModel],
                           rng: np.random.Generator,
                           pad_ui: float) -> WaveformBatch:
        tel = telemetry.resolve(self.telemetry)
        with tel.span("nrz.encode_batch"):
            ui = self.unit_interval
            pad = pad_ui * ui
            t_start = -pad
            t_stop = bits.shape[1] * ui + pad
            n = int(round((t_stop - t_start) / self.dt)) + 1

            times, directions, history, rows = \
                self._edge_times_batch(bits,
                                       need_history=jitter is not None)
            if jitter is not None and len(times):
                times = times + jitter.offsets(times, directions,
                                               history, rng)

            swing = self.v_high - self.v_low
            base = self.v_low + swing * bits[:, 0].astype(np.float64) \
                if len(bits) else np.empty(0, dtype=np.float64)
            v = _kernels.render_nrz_batch(
                len(bits), n, t_start, self.dt, base=base, swing=swing,
                times=times, directions=directions, rows=rows,
                t20_80=self.t20_80, shape=self.shape, tel=tel,
            )
            tel.counter("nrz.encodes").inc(len(bits))
            tel.counter("nrz.bits").inc(bits.size)
            tel.counter("nrz.edges").inc(len(times))
            tel.counter("nrz.samples").inc(n * len(bits))
            return WaveformBatch(v, dt=self.dt, t0=t_start)

    def _encode_impl(self, bits: np.ndarray,
                     jitter: Optional[JitterModel],
                     rng: np.random.Generator,
                     pad_ui: float) -> Waveform:
        tel = telemetry.resolve(self.telemetry)
        with tel.span("nrz.encode"):
            ui = self.unit_interval
            pad = pad_ui * ui
            t_start = -pad
            t_stop = len(bits) * ui + pad
            n = int(round((t_stop - t_start) / self.dt)) + 1

            times, directions, history = \
                self.edge_times_and_directions(bits)
            if jitter is not None and len(times):
                times = times + jitter.offsets(times, directions,
                                               history, rng)

            swing = self.v_high - self.v_low
            v = _kernels.render_nrz(
                n, t_start, self.dt,
                base=self.v_low + swing * float(bits[0]),
                swing=swing, times=times, directions=directions,
                t20_80=self.t20_80, shape=self.shape, tel=tel,
            )
            tel.counter("nrz.encodes").inc()
            tel.counter("nrz.bits").inc(len(bits))
            tel.counter("nrz.edges").inc(len(times))
            tel.counter("nrz.samples").inc(n)
            return Waveform(v, dt=self.dt, t0=t_start)


def bits_to_waveform(bits, rate_gbps: float, v_low: float = 0.0,
                     v_high: float = 1.0, t20_80: float = 0.0,
                     jitter: Optional[JitterModel] = None,
                     rng: Optional[np.random.Generator] = None,
                     dt: float = 1.0) -> Waveform:
    """One-call convenience wrapper around :class:`NRZEncoder`.

    >>> wf = bits_to_waveform([0, 1, 1, 0], rate_gbps=2.5, t20_80=70.0)
    >>> wf.dt
    1.0
    """
    encoder = NRZEncoder(rate_gbps, v_low=v_low, v_high=v_high,
                         t20_80=t20_80, dt=dt)
    return encoder.encode(bits, jitter=jitter, rng=rng)
