"""Picosecond-resolution analog waveform substrate.

This package provides the analog layer of the simulation: waveform
containers, NRZ synthesis with finite rise/fall times, jitter models
(random, deterministic, duty-cycle, periodic), sampling/decision, and
waveform measurements (crossings, rise/fall times, swing).

Everything the paper measures on a sampling oscilloscope is computed
from these waveforms.
"""

from repro.signal.waveform import Waveform, WaveformBatch
from repro.signal.edges import EdgeShape, synthesize_edge
from repro.signal.nrz import NRZEncoder, bits_to_waveform
from repro.signal.jitter import (
    JitterBudget,
    RandomJitter,
    DeterministicJitter,
    DutyCycleDistortion,
    PeriodicJitter,
    CompositeJitter,
)
from repro.signal.sampling import sample_waveform, decide_bits, Sampler
from repro.signal.analysis import (
    threshold_crossings,
    rise_time,
    fall_time,
    measure_swing,
    transition_density,
)
from repro.signal.prbs import (
    prbs_bits,
    prbs_bits_batch,
    PRBS_POLYNOMIALS,
)
from repro.signal.spectrum import (
    analyze_clock,
    occupied_bandwidth,
    power_spectrum,
    spectral_peak,
)
from repro.signal.io import (
    load_waveform_csv,
    roundtrip_equal,
    save_waveform_csv,
)

__all__ = [
    "Waveform",
    "WaveformBatch",
    "EdgeShape",
    "synthesize_edge",
    "NRZEncoder",
    "bits_to_waveform",
    "JitterBudget",
    "RandomJitter",
    "DeterministicJitter",
    "DutyCycleDistortion",
    "PeriodicJitter",
    "CompositeJitter",
    "sample_waveform",
    "decide_bits",
    "Sampler",
    "threshold_crossings",
    "rise_time",
    "fall_time",
    "measure_swing",
    "transition_density",
    "prbs_bits",
    "prbs_bits_batch",
    "PRBS_POLYNOMIALS",
    "power_spectrum",
    "spectral_peak",
    "analyze_clock",
    "occupied_bandwidth",
    "save_waveform_csv",
    "load_waveform_csv",
    "roundtrip_equal",
]
