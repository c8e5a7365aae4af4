"""LTI channel: bandwidth limit, flat loss, and delay.

A Bessel low-pass (maximally flat group delay, the right choice for
time-domain work) models the channel's bandwidth; flat attenuation
and bulk delay complete the picture. Inter-symbol interference
emerges naturally when the bandwidth approaches the data rate.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy import signal as sps

from repro.errors import ConfigurationError
from repro.signal.waveform import Waveform, WaveformBatch


class LTIChannel:
    """Bandwidth-limited channel with loss and delay.

    Parameters
    ----------
    bandwidth_ghz:
        -3 dB bandwidth.
    attenuation_db:
        Flat loss (positive number = loss).
    delay_ps:
        Bulk propagation delay.
    order:
        Bessel filter order.
    """

    def __init__(self, bandwidth_ghz: float, attenuation_db: float = 0.0,
                 delay_ps: float = 0.0, order: int = 4):
        if bandwidth_ghz <= 0.0:
            raise ConfigurationError("bandwidth must be positive")
        if attenuation_db < 0.0:
            raise ConfigurationError(
                "attenuation is a loss; it must be >= 0 dB"
            )
        if delay_ps < 0.0:
            raise ConfigurationError("delay must be >= 0")
        if not 1 <= order <= 8:
            raise ConfigurationError(f"order must be 1-8, got {order}")
        self.bandwidth_ghz = float(bandwidth_ghz)
        self.attenuation_db = float(attenuation_db)
        self.delay_ps = float(delay_ps)
        self.order = int(order)

    @property
    def gain(self) -> float:
        """Linear amplitude gain (< 1 for loss)."""
        return 10.0 ** (-self.attenuation_db / 20.0)

    def cache_key(self) -> str:
        """Canonical digest of this channel's response-determining
        config (class, bandwidth, loss, delay, order) for
        ``repro.cache`` keys."""
        from repro.cache.keys import canonical_digest

        return canonical_digest(
            type(self).__name__, self.bandwidth_ghz,
            self.attenuation_db, self.delay_ps, self.order,
        )

    def apply(self, waveform: Waveform, cache=None) -> Waveform:
        """Propagate *waveform* through the channel.

        The DC component passes at the channel gain; the filter acts
        on the AC content (a data channel is AC-coupled around its
        running midpoint).

        Parameters
        ----------
        cache:
            Optional injected :class:`repro.cache.ArtifactCache`;
            defaults to the module-level active one. Convolutions
            are memoized keyed ``(channel config, input waveform
            token)`` — the input token is its producing stage's
            provenance when attached, else a content digest.
        """
        from repro import cache as _cache

        store = _cache.resolve(cache)
        if store.enabled:
            key = _cache.canonical_digest(
                "lti.apply", self.cache_key(), waveform.cache_token(),
            )
            out = store.get_or_compute(
                key, lambda: self._apply_impl(waveform)
            )
            return out.set_cache_token(key)
        return self._apply_impl(waveform)

    def apply_batch(self, batch: WaveformBatch,
                    cache=None) -> WaveformBatch:
        """Propagate every channel of *batch* in one filter pass.

        The batched counterpart of :meth:`apply`: `scipy` runs the
        SOS filter along the sample axis of the whole
        ``(channels, samples)`` block, and the group-delay impulse
        response is measured once instead of per channel. Each row's
        output is *bit-identical* to :meth:`apply` on that row
        (``sosfilt`` over a 2-D block applies the identical
        recurrence per row; property-tested in
        ``tests/test_batch_equivalence.py``), except that the AC
        midpoint is each row's own mean, as in the scalar path.

        Caching composes per row with single-channel keys: rows are
        keyed ``("lti.apply", channel config, row token)`` exactly
        like :meth:`apply`, hits are reused, and only missing rows
        are filtered (as a sub-batch) and stored individually.
        """
        from repro import cache as _cache

        store = _cache.resolve(cache)
        if not store.enabled or not batch.n_channels:
            return self._apply_batch_impl(batch)

        keys = [
            _cache.canonical_digest("lti.apply", self.cache_key(), tok)
            for tok in batch.cache_tokens()
        ]
        hits = []
        for key in keys:
            hit, value = store.get(key)
            hits.append(value if hit else None)
        missing = [i for i, wf in enumerate(hits) if wf is None]
        if missing:
            sub_in = WaveformBatch(batch.values[missing], dt=batch.dt,
                                   t0=batch.t0)
            sub = self._apply_batch_impl(sub_in)
            for j, i in enumerate(missing):
                wf = Waveform(sub.values[j].copy(), dt=sub.dt,
                              t0=sub.t0)
                store.put(keys[i], wf)
                hits[i] = wf
        values = np.stack([wf.values for wf in hits])
        return WaveformBatch(values, dt=hits[0].dt, t0=hits[0].t0,
                             tokens=keys)

    def _apply_batch_impl(self, batch: WaveformBatch) -> WaveformBatch:
        dt_s = batch.dt * 1e-12
        f_nyquist = 0.5 / dt_s
        f_cut = self.bandwidth_ghz * 1e9
        group_delay_samples = 0.0
        if f_cut >= f_nyquist or not batch.n_channels \
                or not batch.n_samples:
            filtered = batch.values.copy()
        else:
            n_imp = min(batch.n_samples, max(64, int(16.0
                        * f_nyquist / f_cut)))
            from repro.signal._kernels import sosfilt_batch

            filtered, group_delay_samples = sosfilt_batch(
                batch.values, self.order, f_cut / f_nyquist, n_imp)
        return WaveformBatch(
            self.gain * filtered, dt=batch.dt,
            t0=(batch.t0 + self.delay_ps
                - group_delay_samples * batch.dt),
        )

    def _apply_impl(self, waveform: Waveform) -> Waveform:
        dt_s = waveform.dt * 1e-12
        f_nyquist = 0.5 / dt_s
        f_cut = self.bandwidth_ghz * 1e9
        group_delay_samples = 0.0
        if f_cut >= f_nyquist:
            # Channel is faster than the simulation grid: bandwidth
            # has no effect at this resolution.
            filtered = waveform.values.copy()
        else:
            sos = sps.bessel(self.order, f_cut / f_nyquist,
                             btype="low", output="sos", norm="mag")
            mean = float(waveform.values.mean())
            filtered = sps.sosfilt(sos, waveform.values - mean) + mean
            # The causal filter carries its own group delay; a
            # Bessel's is flat, so compensating it keeps delay_ps
            # the channel's *only* latency. Measure it from the
            # impulse response's first moment.
            n_imp = min(len(waveform), max(64, int(16.0
                        * f_nyquist / f_cut)))
            impulse = np.zeros(n_imp)
            impulse[0] = 1.0
            h = sps.sosfilt(sos, impulse)
            total = float(h.sum())
            if abs(total) > 1e-12:
                group_delay_samples = float(
                    (np.arange(n_imp) * h).sum() / total
                )
        out = Waveform(
            self.gain * filtered, dt=waveform.dt,
            t0=(waveform.t0 + self.delay_ps
                - group_delay_samples * waveform.dt),
        )
        return out

    def isi_dj_estimate(self, rate_gbps: float) -> float:
        """Rough deterministic jitter from ISI at *rate_gbps*, ps p-p.

        Uses the classic approximation: DJ grows as the channel rise
        time (0.339/BW for a Gaussian-ish response) becomes a
        significant fraction of the unit interval.
        """
        if rate_gbps <= 0.0:
            raise ConfigurationError("rate must be positive")
        ui = 1_000.0 / rate_gbps
        t_r = 339.0 / self.bandwidth_ghz  # 10-90% rise time, ps
        x = t_r / ui
        if x < 0.5:
            return 0.0
        return ui * 0.5 * (x - 0.5) ** 2

    def cascade(self, other: "LTIChannel") -> "LTIChannel":
        """Series combination of two channels.

        Bandwidths combine reciprocally in square (rise times RSS);
        losses and delays add.
        """
        bw = 1.0 / math.sqrt(self.bandwidth_ghz ** -2
                             + other.bandwidth_ghz ** -2)
        return LTIChannel(
            bandwidth_ghz=bw,
            attenuation_db=self.attenuation_db + other.attenuation_db,
            delay_ps=self.delay_ps + other.delay_ps,
            order=max(self.order, other.order),
        )

    def __repr__(self) -> str:
        return (f"LTIChannel(bw={self.bandwidth_ghz} GHz, "
                f"loss={self.attenuation_db} dB, "
                f"delay={self.delay_ps} ps)")


class IdealChannel(LTIChannel):
    """A pass-through channel (infinite bandwidth, no loss)."""

    def __init__(self, delay_ps: float = 0.0):
        super().__init__(bandwidth_ghz=1e6, attenuation_db=0.0,
                         delay_ps=delay_ps, order=1)

    def apply(self, waveform: Waveform) -> Waveform:
        return waveform.shifted(self.delay_ps)

    def apply_batch(self, batch: WaveformBatch,
                    cache=None) -> WaveformBatch:
        """Pass the whole batch through, shifted by the delay."""
        return batch.shifted(self.delay_ps)
