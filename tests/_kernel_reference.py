"""Reference implementations of the six batched signal kernels.

The test oracle for :mod:`repro.signal._kernels`: the plain array
code each batched kernel replaced, with no memoized filter designs or
coupling weights, kept here so the bit-identity pins always have a
second implementation to check against. Same signatures and return
values as the kernels:

``render_nrz_batch``
    the flattened render on every time grid (the kernel switches to
    grouped edge profiles on integer grids);
``sosfilt_batch``
    designs the Bessel filter and measures its group delay per call;
``coupling_mix``
    rebuilds the coupling weights per call;
``eye_fold``
    int8 ``diff`` of the above-threshold mask and a 2-D ``nonzero``;
``density_bin``
    one ``np.histogramdd`` call with the row index as a third
    coordinate;
``prbs_blockwise``
    one seed at a time, a fixed ``PRBS_BLOCK``-bit block by default.

:func:`reference_kernels` swaps all six into ``_kernels`` for the
length of a ``with`` block, so a whole pipeline can run on them.
"""

import contextlib
import functools

import numpy as np

from repro.signal import _kernels

KERNEL_NAMES = ("render_nrz_batch", "sosfilt_batch", "coupling_mix",
                "eye_fold", "density_bin", "prbs_blockwise")


def render_nrz_batch(n_channels, n, t_start, dt, base, swing, times,
                     directions, rows, t20_80, shape, tel=None):
    """``(channels, samples)`` NRZ render, flattened across rows."""
    base = np.asarray(base, dtype=np.float64)
    v = np.empty((n_channels, n), dtype=np.float64)
    if v.size:
        v[:] = base[:, None]
    times = np.asarray(times, dtype=np.float64)
    if len(times) == 0 or n == 0:
        return v
    directions = np.asarray(directions, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.int64)
    swing_row = np.broadcast_to(
        np.asarray(swing, dtype=np.float64), (n_channels,))
    edge_amp = directions * swing_row[rows]
    window = _kernels.edge_window(t20_80, dt)

    i0 = ((times - window - t_start) / dt).astype(np.int64)
    i1 = ((times + window - t_start) / dt).astype(np.int64) + 2
    np.clip(i0, 0, n, out=i0)
    np.clip(i1, i0, n, out=i1)

    steps = np.bincount(rows * (n + 1) + i1, weights=edge_amp,
                        minlength=n_channels * (n + 1))
    v += np.cumsum(steps.reshape(n_channels, n + 1)[:, :n], axis=1)

    lengths = i1 - i0
    total = int(lengths.sum())
    if total == 0:
        return v
    starts = np.cumsum(lengths) - lengths
    flat = np.repeat(i0 - starts, lengths) + np.arange(total)
    tau = (t_start + dt * flat) - np.repeat(times, lengths)
    profile = _kernels._window_profile(tau, t20_80, shape, dt, tel)
    contrib = np.repeat(edge_amp, lengths) * profile
    v += np.bincount(np.repeat(rows, lengths) * n + flat,
                     weights=contrib,
                     minlength=n_channels * n).reshape(n_channels, n)
    return v


def sosfilt_batch(values, order, wn, n_imp):
    """Bessel low-pass over every row; ``(filtered, group delay)``."""
    from scipy import signal as sps

    sos = sps.bessel(order, wn, btype="low", output="sos",
                     norm="mag")
    mean = values.mean(axis=1, keepdims=True)
    filtered = sps.sosfilt(sos, values - mean, axis=-1) + mean
    impulse = np.zeros(n_imp)
    impulse[0] = 1.0
    h = sps.sosfilt(sos, impulse)
    total = float(h.sum())
    group_delay_samples = 0.0
    if abs(total) > 1e-12:
        group_delay_samples = float(
            (np.arange(n_imp) * h).sum() / total
        )
    return filtered, group_delay_samples


def coupling_mix(values, dt, weights_key, weights_fn):
    """Crosstalk mix: derivative couple + smooth + add."""
    weights = weights_fn()
    if not weights or not values.shape[1]:
        return values.copy()
    dv = np.gradient(values, dt, axis=1)
    out = values.copy()
    for rise_scale_ps, w in weights.items():
        mixed = w @ dv
        sigma_samples = rise_scale_ps / dt
        if sigma_samples > 0.05:
            from scipy.ndimage import gaussian_filter1d

            mixed = gaussian_filter1d(mixed, sigma_samples,
                                      axis=-1, mode="nearest")
        out += mixed
    return out


def eye_fold(values, thresholds):
    """Threshold crossings over every row: ``(rows, cols, frac)``."""
    above = values > thresholds[:, None]
    d = np.diff(above.astype(np.int8), axis=1)
    rows, cols = np.nonzero(d != 0)
    v0 = values[rows, cols]
    v1 = values[rows, cols + 1]
    frac = (thresholds[rows] - v0) / (v1 - v0)
    return rows, cols, frac


def density_bin(phases, values, t_edges, v_edges):
    """Per-row 2-D densities; each row is bit-identical to
    ``np.histogram2d(phases, values[c], bins=(t_edges, v_edges))``."""
    values = np.asarray(values, dtype=np.float64)
    c, n = values.shape
    if c == 0 or n == 0:
        return np.zeros((c, len(t_edges) - 1, len(v_edges) - 1),
                        dtype=np.int64)
    rows = np.repeat(np.arange(c, dtype=np.float64), n)
    hist, _ = np.histogramdd(
        (rows, np.tile(np.asarray(phases, dtype=np.float64), c),
         values.reshape(-1)),
        bins=(np.arange(c + 1, dtype=np.float64), t_edges, v_edges),
    )
    return hist.astype(np.int64)


_prbs_matrices = functools.lru_cache(maxsize=128)(
    _kernels._prbs_block_matrices)


def _prbs_one_seed(order, length, seed, tap_a, tap_b, block):
    """*length* bits of one LFSR stream, *block* bits per product."""
    if length == 0:
        return np.empty(0, dtype=np.uint8)
    block = max(block, order)
    out_mat, adv_mat = _prbs_matrices(order, tap_a, tap_b, block)
    state = np.array([(seed >> j) & 1 for j in range(order)],
                     dtype=np.float32)
    n_blocks = -(-length // block)
    out = np.empty(n_blocks * block, dtype=np.uint8)
    for b in range(n_blocks):
        out[b * block:(b + 1) * block] = \
            (out_mat @ state).astype(np.int64) & 1
        state = np.asarray((adv_mat @ state), dtype=np.float32) % 2.0
    return out[:length]


def prbs_blockwise(order, length, seed, tap_a, tap_b, block=None):
    """Blockwise PRBS; *seed* an int or a sequence of ints."""
    if block is None:
        block = _kernels.PRBS_BLOCK
    if isinstance(seed, (int, np.integer)):
        return _prbs_one_seed(order, length, seed, tap_a, tap_b, block)
    seeds = [int(s) for s in seed]
    if not seeds:
        return np.empty((0, length), dtype=np.uint8)
    return np.stack([
        _prbs_one_seed(order, length, s, tap_a, tap_b, block)
        for s in seeds
    ])


@contextlib.contextmanager
def reference_kernels():
    """Run every batched stage on these reference kernels.

    Works because every call site looks its kernel up in
    ``repro.signal._kernels`` at call time.
    """
    saved = {name: getattr(_kernels, name) for name in KERNEL_NAMES}
    for name in KERNEL_NAMES:
        setattr(_kernels, name, globals()[name])
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(_kernels, name, fn)
