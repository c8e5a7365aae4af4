"""Channel-to-channel crosstalk.

Five serialized channels share the test-bed board and the probe
card's interposer routes dozens of signals at fine pitch — adjacent-
trace coupling is the signal-integrity hazard both layouts fight.
The model couples a fraction of each aggressor's *edge energy*
(crosstalk is capacitive/inductive: proportional to dV/dt) into the
victim.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Sequence

import numpy as np

from repro.errors import ConfigurationError, MeasurementError
from repro.signal.waveform import Waveform, WaveformBatch

#: Documented equivalence tolerances of the batched coupling-matrix
#: path versus the sequential per-pair dict path. The batch mixes
#: derivatives with one matrix product before smoothing (convolution
#: and the coupling mix are both linear, so they commute), which
#: reorders float additions; results agree to rounding, not bitwise.
XTALK_EQUIVALENCE_RTOL = 1e-9
XTALK_EQUIVALENCE_ATOL = 1e-12


@dataclasses.dataclass(frozen=True)
class CouplingSpec:
    """Strength and speed of one aggressor-victim coupling.

    Attributes
    ----------
    coupling:
        Fraction of the aggressor's slew coupled into the victim
        (0.0-0.5; tight probe-card pitches run a few percent).
    rise_scale_ps:
        Time scale of the coupled pulse (the mutual L/C time
        constant).
    """

    coupling: float = 0.03
    rise_scale_ps: float = 50.0

    def __post_init__(self):
        if not 0.0 <= self.coupling <= 0.5:
            raise ConfigurationError(
                f"coupling must be in [0, 0.5], got {self.coupling}"
            )
        if self.rise_scale_ps <= 0.0:
            raise ConfigurationError("rise scale must be positive")


def _require_slew(n_samples: int) -> None:
    """Crosstalk couples the slew dV/dt: a record needs two samples."""
    if n_samples < 2:
        raise MeasurementError(
            f"crosstalk needs records of >= 2 samples to take a slew, "
            f"got {n_samples}"
        )


def coupled_noise(aggressor: Waveform,
                  spec: CouplingSpec = CouplingSpec()) -> Waveform:
    """The noise one aggressor injects into a parallel victim.

    Near-end crosstalk shape: the aggressor's derivative smoothed
    over the coupling time constant, scaled by the coupling factor.
    Raises :class:`~repro.errors.MeasurementError` on a record of
    fewer than 2 samples (no slew to couple).
    """
    _require_slew(len(aggressor))
    dv = np.gradient(aggressor.values, aggressor.dt)
    # Smooth over the coupling time constant.
    sigma_samples = spec.rise_scale_ps / aggressor.dt
    if sigma_samples > 0.05:
        from scipy.ndimage import gaussian_filter1d

        dv = gaussian_filter1d(dv, sigma_samples, mode="nearest")
    noise = spec.coupling * spec.rise_scale_ps * dv
    return Waveform(noise, dt=aggressor.dt, t0=aggressor.t0)


def apply_crosstalk(victim: Waveform,
                    aggressors: Sequence[Waveform],
                    spec: CouplingSpec = CouplingSpec()) -> Waveform:
    """Victim plus every aggressor's coupled noise."""
    out = victim
    for aggressor in aggressors:
        out = out + coupled_noise(aggressor, spec)
    return out


class CrosstalkMatrix:
    """Pairwise coupling across a named channel group.

    Parameters
    ----------
    names:
        Channel names, in physical (routing) order — adjacency in
        this list is adjacency on the board.
    adjacent:
        Coupling spec for nearest neighbours.
    next_adjacent:
        Coupling for next-nearest (weaker); None disables.
    """

    def __init__(self, names: Sequence[str],
                 adjacent: CouplingSpec = CouplingSpec(),
                 next_adjacent: CouplingSpec = CouplingSpec(
                     coupling=0.008)):
        if len(names) < 2:
            raise ConfigurationError("need >= 2 channels")
        if len(set(names)) != len(names):
            raise ConfigurationError("channel names must be unique")
        self.names = list(names)
        self.adjacent = adjacent
        self.next_adjacent = next_adjacent

    def _spec_for(self, i: int, j: int):
        distance = abs(i - j)
        if distance == 1:
            return self.adjacent
        if distance == 2 and self.next_adjacent is not None:
            return self.next_adjacent
        return None

    def apply(self, waveforms: Dict[str, Waveform]
              ) -> Dict[str, Waveform]:
        """Couple every channel into its neighbours.

        Missing channels (quiet lines) neither aggress nor receive.
        """
        unknown = set(waveforms) - set(self.names)
        if unknown:
            raise ConfigurationError(
                f"channels not in the matrix: {sorted(unknown)}"
            )
        out: Dict[str, Waveform] = {}
        for i, victim_name in enumerate(self.names):
            if victim_name not in waveforms:
                continue
            victim = waveforms[victim_name]
            for j, aggressor_name in enumerate(self.names):
                if aggressor_name == victim_name \
                        or aggressor_name not in waveforms:
                    continue
                spec = self._spec_for(i, j)
                if spec is None:
                    continue
                victim = victim + coupled_noise(
                    waveforms[aggressor_name], spec
                )
            out[victim_name] = victim
        return out

    def coupling_weights(self, names: Sequence[str] = None
                         ) -> Dict[float, np.ndarray]:
        """Per-rise-scale coupling weight matrices for a batch.

        Returns ``{rise_scale_ps: W}`` where ``W[i, j] = coupling *
        rise_scale_ps`` of the spec coupling aggressor *j* into
        victim *i* (zero on the diagonal and beyond the coupling
        range). One matrix per distinct ``rise_scale_ps`` because
        the smoothing width is part of the pulse shape. *names*
        selects and orders the rows (default: every channel);
        distances are always measured in the full matrix's physical
        routing order, so a subset batch couples exactly like the
        same subset in :meth:`apply`.
        """
        if names is None:
            names = self.names
        unknown = set(names) - set(self.names)
        if unknown:
            raise ConfigurationError(
                f"channels not in the matrix: {sorted(unknown)}"
            )
        idx = [self.names.index(n) for n in names]
        c = len(idx)
        weights: Dict[float, np.ndarray] = {}
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                if a == b:
                    continue
                spec = self._spec_for(i, j)
                if spec is None:
                    continue
                w = weights.setdefault(
                    spec.rise_scale_ps, np.zeros((c, c)))
                w[a, b] = spec.coupling * spec.rise_scale_ps
        return weights

    def apply_batch(self, batch: WaveformBatch,
                    names: Sequence[str] = None) -> WaveformBatch:
        """Couple every row of *batch* into its neighbours at once.

        The batched counterpart of :meth:`apply`: one ``gradient``
        over the block, one coupling-matrix product per distinct
        rise scale, and one smoothing pass over the mixed
        derivatives (mixing and smoothing are both linear, so they
        commute with the per-pair order of :meth:`apply`). Row *k*
        of the result corresponds to ``names[k]`` (default: the
        matrix's channel order; a subset models quiet lines exactly
        like a partial dict). Equivalent to the dict path within
        ``XTALK_EQUIVALENCE_RTOL``/``ATOL`` — the reordered float
        sums agree to rounding, not bitwise. Rows of fewer than 2
        samples raise :class:`~repro.errors.MeasurementError`.
        """
        if names is None:
            names = self.names
        if batch.n_channels != len(names):
            raise ConfigurationError(
                f"batch has {batch.n_channels} rows for "
                f"{len(names)} names"
            )
        _require_slew(batch.n_samples)
        # The weight matrices are a pure function of this value key;
        # the kernel memoizes on it instead of re-walking the O(c^2)
        # spec table per batch.
        weights_key = (tuple(names), tuple(self.names),
                       self.adjacent, self.next_adjacent)
        from repro.signal._kernels import coupling_mix

        out = coupling_mix(batch.values, batch.dt, weights_key,
                           lambda: self.coupling_weights(names))
        return WaveformBatch(out, dt=batch.dt, t0=batch.t0)
