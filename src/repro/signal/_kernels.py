"""Vectorized hot-path kernels for the signal layer.

The behavioural models in :mod:`repro.signal` stand in for hardware
paths that sustain multi-gigabit line rates, so their inner loops
must be array kernels, not interpreted Python. This module holds
those kernels, one implementation each:

``render_nrz``
    O(samples + edges * window) single-record NRZ rendering. The
    per-edge full-tail accumulation of the original implementation
    (each transition did ``v[i1:] += direction * swing``, making the
    render quadratic in the edge count) is replaced by a step-level
    baseline built once from the edge step deltas via
    ``bincount``/``cumsum``, plus a window-local contribution
    evaluated through a cached, oversampled edge-profile template.

``edge_template``
    The template cache. Templates are keyed on
    ``(shape, t20_80, dt)`` and hold the normalized transition
    profile sampled on a sub-sample grid; per-edge sub-sample jitter
    is applied by linear interpolation into the template instead of
    re-evaluating the analytic profile per edge. Hits and misses are
    reported through ``nrz.template_cache.{hits,misses}``.

The six batched kernels, called directly by the batched stages:

``render_nrz_batch``
    ``(channels, samples)`` NRZ rendering. On integer time grids
    (every paper configuration without jitter) the per-edge window
    profiles collapse into a handful of distinct rows, evaluated
    once and gathered per edge; off the integer grid (jittered
    edges, fractional ``dt``) the flattened render runs instead.
``sosfilt_batch``
    Bessel low-pass over every row, with the filter design and its
    measured group delay memoized.
``coupling_mix``
    Crosstalk mixing (derivative couple, smooth, add) with memoized
    coupling-weight matrices.
``eye_fold``
    Threshold crossings of every row at once.
``density_bin``
    Per-row 2-D (time x voltage) histogram counts.
``prbs_blockwise``
    Blockwise GF(2) PRBS generation. The Fibonacci LFSR output
    obeys ``out[i] = out[i-n] ^ out[i-m]``; expressing a whole block
    of outputs as a binary matrix applied to the current state turns
    bit-at-a-time Python iteration into a handful of small matrix
    products per block, for every seed at once.

Equivalence contracts (enforced by tests/test_kernels_equivalence.py
and tests/test_batch_equivalence.py): PRBS is bit-exact against the
scalar LFSR; the batched render, filter, fold, and binning are
bit-identical per row to the single-record path and to the reference
kernels in ``tests/_kernel_reference.py``; the coupling mix matches
the per-pair dict path within ``XTALK_EQUIVALENCE_RTOL/ATOL``; the
single-record render matches the per-edge reference loop within
``NRZ_EQUIVALENCE_ATOL`` of the swing (template interpolation error;
exact for zero rise time).
"""

from __future__ import annotations

import dataclasses
import math
import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.signal.edges import EdgeShape, edge_profile

#: Documented absolute equivalence tolerance of the template-based
#: NRZ render versus direct per-edge profile evaluation, as a
#: fraction of the swing.
NRZ_EQUIVALENCE_ATOL = 1e-5

#: Template sub-sampling: at least this many template points per
#: output sample, scaled up when the transition is fast relative to
#: the sample spacing so interpolation error stays below the
#: documented tolerance.
_MIN_OVERSAMPLE = 64
_MAX_OVERSAMPLE = 4096
_TEMPLATE_POINTS_PER_T2080 = 256

_TEMPLATE_CACHE_MAX = 32


@dataclasses.dataclass(frozen=True)
class EdgeTemplate:
    """One cached, oversampled normalized edge profile.

    Attributes
    ----------
    shape, t20_80, dt:
        The cache key: analytic edge shape, 20-80% transition time
        (ps), and output sample spacing (ps).
    window:
        Half-width (ps) of the region around each edge where the
        profile is evaluated; outside it the edge is saturated.
    x0:
        Time (ps, relative to the edge) of the first template point.
    sub_dt:
        Template point spacing in ps (``dt / oversample``).
    values:
        Profile samples over ``[x0, -x0]``.
    """

    shape: EdgeShape
    t20_80: float
    dt: float
    window: float
    x0: float
    sub_dt: float
    values: np.ndarray


_template_cache: "OrderedDict[Tuple[EdgeShape, float, float], EdgeTemplate]" \
    = OrderedDict()

#: Guards every read-modify-write on the module caches (the template
#: LRU, filter designs, coupling weights, PRBS matrices): the thread
#: executor can run batched stages concurrently, and an unguarded
#: ``move_to_end`` during a ``popitem`` eviction corrupts the
#: OrderedDict. Cached values themselves are never mutated, so
#: readers only need the lock around the dict operations.
_cache_lock = threading.Lock()


def edge_window(t20_80: float, dt: float) -> float:
    """Half-width of the per-edge evaluation window in ps."""
    return max(4.0 * t20_80, 4.0 * dt)


def edge_template(shape: EdgeShape, t20_80: float, dt: float,
                  tel=None) -> EdgeTemplate:
    """The cached oversampled template for one edge configuration.

    Templates are immutable and shared; the cache is LRU-bounded at
    ``_TEMPLATE_CACHE_MAX`` entries and thread-safe (lookups,
    inserts, and evictions hold a lock; concurrent misses on the
    same key may both build, but the builds are identical and the
    second insert wins harmlessly). When *tel* (a telemetry
    registry) is given, lookups tally ``nrz.template_cache.hits`` /
    ``nrz.template_cache.misses``.
    """
    key = (shape, float(t20_80), float(dt))
    with _cache_lock:
        tmpl = _template_cache.get(key)
        if tmpl is not None:
            _template_cache.move_to_end(key)
    if tmpl is not None:
        if tel is not None:
            tel.counter("nrz.template_cache.hits").inc()
        return tmpl
    if tel is not None:
        tel.counter("nrz.template_cache.misses").inc()

    window = edge_window(t20_80, dt)
    if t20_80 > 0.0:
        oversample = int(min(
            _MAX_OVERSAMPLE,
            max(_MIN_OVERSAMPLE,
                math.ceil(_TEMPLATE_POINTS_PER_T2080 * dt / t20_80)),
        ))
    else:
        oversample = _MIN_OVERSAMPLE
    sub_dt = dt / oversample
    half_span = window + 2.0 * dt
    n_pts = int(math.ceil(2.0 * half_span / sub_dt)) + 2
    x0 = -half_span
    xs = x0 + sub_dt * np.arange(n_pts)
    values = edge_profile(xs, t20_80, shape)
    tmpl = EdgeTemplate(shape=shape, t20_80=float(t20_80), dt=float(dt),
                        window=window, x0=x0, sub_dt=sub_dt,
                        values=values)
    with _cache_lock:
        _template_cache[key] = tmpl
        while len(_template_cache) > _TEMPLATE_CACHE_MAX:
            _template_cache.popitem(last=False)
    return tmpl


def clear_template_cache() -> None:
    """Drop every cached template (tests and memory control)."""
    with _cache_lock:
        _template_cache.clear()


def template_cache_size() -> int:
    """Number of currently cached edge templates."""
    with _cache_lock:
        return len(_template_cache)


def render_nrz(n: int, t_start: float, dt: float, base: float,
               swing: float, times: np.ndarray, directions: np.ndarray,
               t20_80: float, shape: EdgeShape, tel=None) -> np.ndarray:
    """Render an NRZ waveform's sample values.

    Parameters
    ----------
    n, t_start, dt:
        Output record: sample count, first-sample time, spacing (ps).
    base:
        Level before the first edge (``v_low + swing * bits[0]``).
    swing:
        ``v_high - v_low``.
    times, directions:
        Edge instants (ps, jitter already applied) and +1/-1 edge
        directions.
    t20_80, shape:
        Transition time and analytic edge shape.
    tel:
        Optional telemetry registry for template-cache counters.

    Cost is O(n + edges * window / dt): a step baseline built in one
    ``bincount``/``cumsum`` pass plus one flat gather/scatter over
    the concatenated edge windows.
    """
    v = np.full(n, base, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if len(times) == 0:
        return v
    directions = np.asarray(directions, dtype=np.float64)
    window = edge_window(t20_80, dt)

    # Window bounds per edge, truncated exactly as the reference
    # loop's int() casts did, then clipped to the record.
    i0 = ((times - window - t_start) / dt).astype(np.int64)
    i1 = ((times + window - t_start) / dt).astype(np.int64) + 2
    np.clip(i0, 0, n, out=i0)
    np.clip(i1, i0, n, out=i1)

    # Saturated tails: every edge adds a +/-swing step from the end
    # of its window onward. bincount + cumsum applies all of them in
    # one O(n + edges) pass.
    steps = np.bincount(i1, weights=directions * swing,
                        minlength=n + 1)[:n]
    v += np.cumsum(steps)

    # In-window contribution, flattened across edges.
    lengths = i1 - i0
    total = int(lengths.sum())
    if total == 0:
        return v
    starts = np.cumsum(lengths) - lengths
    flat = np.repeat(i0 - starts, lengths) + np.arange(total)
    tau = (t_start + dt * flat) - np.repeat(times, lengths)
    profile = _window_profile(tau, t20_80, shape, dt, tel)
    contrib = np.repeat(directions * swing, lengths) * profile
    v += np.bincount(flat, weights=contrib, minlength=n)
    return v


def _window_profile(tau: np.ndarray, t20_80: float, shape: EdgeShape,
                    dt: float, tel=None) -> np.ndarray:
    """Normalized edge profile at offsets *tau* from the transition.

    Shared by the single-record and batched renders so both evaluate
    bit-identical in-window contributions.
    """
    if t20_80 == 0.0:
        return (tau >= 0.0).astype(np.float64)
    if shape is EdgeShape.LINEAR:
        # A ramp's slope kinks defeat interpolation accuracy, and the
        # exact profile is cheaper than a template lookup anyway.
        return np.clip(tau / (t20_80 / 0.6) + 0.5, 0.0, 1.0)
    tmpl = edge_template(shape, t20_80, dt, tel=tel)
    pos = (tau - tmpl.x0) / tmpl.sub_dt
    k = pos.astype(np.int64)
    np.clip(k, 0, len(tmpl.values) - 2, out=k)
    frac = pos - k
    lo = tmpl.values[k]
    # The window edges sit in the saturated skirt; the step baseline
    # already carries the saturated value, so the in-window term must
    # decay to exactly 0/1 there. Template interpolation does (the
    # profile is flat), no correction needed.
    return lo + frac * (tmpl.values[k + 1] - lo)


def _memoized(cache: dict, limit: int, key, build: Callable):
    """``cache[key]``, built by *build* on a miss.

    The cache is cleared once it holds *limit* entries (keys are
    small configs; the bound only guards pathological sweeps).
    Concurrent misses on one key may both build; the builds are
    identical and the second insert wins harmlessly.
    """
    with _cache_lock:
        value = cache.get(key)
    if value is None:
        value = build()
        with _cache_lock:
            if len(cache) >= limit:
                cache.clear()
            cache[key] = value
    return value


# -- batched NRZ render -----------------------------------------------------


def render_nrz_batch(n_channels: int, n: int, t_start: float, dt: float,
                     base: np.ndarray, swing, times: np.ndarray,
                     directions: np.ndarray, rows: np.ndarray,
                     t20_80: float, shape: EdgeShape,
                     tel=None) -> np.ndarray:
    """Render a ``(channels, samples)`` block of NRZ waveforms.

    The batched counterpart of :func:`render_nrz`: every channel's
    edges are flattened into one set of arrays and rendered through
    a single ``bincount``/``cumsum``/scatter pass, sharing one edge
    template across all rows. Per-row bin ranges are disjoint and
    edges arrive in row-major order, so each row's accumulation
    order is identical to a per-channel :func:`render_nrz` call —
    the batch is *bit-identical* to the per-channel loop
    (property-tested in ``tests/test_batch_equivalence.py``).

    Parameters
    ----------
    n_channels, n, t_start, dt:
        Output block shape and shared time grid (ps).
    base:
        Per-row level before the first edge, shape ``(n_channels,)``.
    swing:
        ``v_high - v_low``; a scalar or per-row array.
    times, directions, rows:
        Flattened edge instants (ps), +1/-1 directions, and owning
        row indices — sorted by row (row-major edge order).
    t20_80, shape, tel:
        As for :func:`render_nrz`.
    """
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
    window = edge_window(t20_80, dt)

    # Window bounds per edge, truncated exactly as render_nrz does,
    # then clipped to the record.
    i0r = ((times - window - t_start) / dt).astype(np.int64)
    i1r = ((times + window - t_start) / dt).astype(np.int64) + 2
    i0 = np.clip(i0r, 0, n)
    i1 = np.clip(i1r, i0, n)

    # Saturated tails, all rows at once: row r owns bins
    # [r*(n+1), (r+1)*(n+1)) so the per-row weight sums match the
    # single-record bincount exactly.
    steps = np.bincount(rows * (n + 1) + i1, weights=edge_amp,
                        minlength=n_channels * (n + 1))
    v += np.cumsum(steps.reshape(n_channels, n + 1)[:, :n], axis=1)

    if (dt == np.rint(dt) and t_start == np.rint(t_start)
            and bool(np.all(times == np.rint(times)))):
        _add_grouped_windows(v, n_channels, n, t_start, dt, edge_amp,
                             times, rows, i0r, i1r, t20_80, shape, tel)
    else:
        _add_flat_windows(v, n_channels, n, t_start, dt, edge_amp,
                          times, rows, i0, i1, t20_80, shape, tel)
    return v


def _add_flat_windows(v, n_channels, n, t_start, dt, edge_amp, times,
                      rows, i0, i1, t20_80, shape, tel):
    """In-window contributions, flattened across every row's edges
    (*i0*/*i1* already clipped to the record)."""
    lengths = i1 - i0
    total = int(lengths.sum())
    if total == 0:
        return
    starts = np.cumsum(lengths) - lengths
    flat = np.repeat(i0 - starts, lengths) + np.arange(total)
    tau = (t_start + dt * flat) - np.repeat(times, lengths)
    profile = _window_profile(tau, t20_80, shape, dt, tel)
    contrib = np.repeat(edge_amp, lengths) * profile
    v += np.bincount(np.repeat(rows, lengths) * n + flat,
                     weights=contrib,
                     minlength=n_channels * n).reshape(n_channels, n)


def _add_grouped_windows(v, n_channels, n, t_start, dt, edge_amp,
                         times, rows, i0r, i1r, t20_80, shape, tel):
    """In-window contributions on an integer time grid.

    Every edge's first in-window offset is then an exact integer, so
    edges group by (first offset, raw window length) into a handful
    of distinct profile rows, evaluated once and gathered per edge
    (*i0r*/*i1r* are the unclipped window bounds). Accumulation
    order per bin matches :func:`_add_flat_windows`, so sums are
    bit-identical.
    """
    first_tau = (t_start + dt * i0r) - times
    lengths_raw = i1r - i0r
    # 4096 exceeds any window length in samples.
    kint = first_tau.astype(np.int64) * 4096 + lengths_raw
    uniq, first_idx, gid = np.unique(kint, return_index=True,
                                     return_inverse=True)
    l_max = int(lengths_raw.max())
    prof = np.zeros((len(uniq), l_max))
    for g in range(len(uniq)):
        e = int(first_idx[g])
        lg = int(lengths_raw[e])
        taus = first_tau[e] + dt * np.arange(lg, dtype=np.float64)
        prof[g, :lg] = _window_profile(taus, t20_80, shape, dt, tel)
    col = np.arange(l_max, dtype=np.int64)
    trash = n_channels * n
    bins = (rows * n + i0r)[:, None] + col
    # Clipped / padded elements go to a discard bin: they must not
    # contribute even a signed zero to a real bin, or a -0.0 sum
    # could flip sign versus the flattened render. Only edges at the
    # record boundary or in a short-length group have any such
    # element, so mask just those rows.
    partial = np.flatnonzero((i0r < 0) | (i1r > n)
                             | (lengths_raw < l_max))
    if len(partial):
        samp = i0r[partial, None] + col
        stop = np.minimum(i1r[partial], n)
        sub = bins[partial]
        sub[(samp < 0) | (samp >= stop[:, None])] = trash
        bins[partial] = sub
    weights = edge_amp[:, None] * prof[gid]
    acc = np.bincount(bins.ravel(), weights=weights.ravel(),
                      minlength=trash + 1)
    v += acc[:trash].reshape(n_channels, n)


# -- batched channel filter and crosstalk -----------------------------------

#: Memoization bounds (configs are tiny; these only guard leaks in
#: pathological sweeps over thousands of distinct configs).
_DESIGN_CACHE_MAX = 64
_WEIGHTS_CACHE_MAX = 16

_design_cache: Dict[Tuple[int, float, int], Tuple[np.ndarray, float]] = {}
_weights_cache: Dict[tuple, dict] = {}


def _bessel_design(order: int, wn: float,
                   n_imp: int) -> Tuple[np.ndarray, float]:
    """``(sos, group_delay_samples)`` of a Bessel low-pass.

    The group delay is the first moment of the *n_imp*-sample
    impulse response (0.0 for a degenerate response).
    """
    from scipy import signal as sps

    sos = sps.bessel(order, wn, btype="low", output="sos", norm="mag")
    impulse = np.zeros(n_imp)
    impulse[0] = 1.0
    h = sps.sosfilt(sos, impulse)
    total = float(h.sum())
    gd = 0.0
    if abs(total) > 1e-12:
        gd = float((np.arange(n_imp) * h).sum() / total)
    return sos, gd


def sosfilt_batch(values: np.ndarray, order: int, wn: float,
                  n_imp: int) -> Tuple[np.ndarray, float]:
    """Bessel low-pass over every row of *values*.

    Returns ``(filtered, group_delay_samples)`` where *filtered* has
    each row's mean restored (AC-coupled filtering around the
    per-row midpoint). The caller applies gain and timebase. The
    design is memoized per ``(order, wn, n_imp)``: it costs more
    than filtering a 64-channel block.
    """
    from scipy import signal as sps

    key = (int(order), float(wn), int(n_imp))
    sos, group_delay_samples = _memoized(
        _design_cache, _DESIGN_CACHE_MAX, key,
        lambda: _bessel_design(*key))
    mean = values.mean(axis=1, keepdims=True)
    filtered = sps.sosfilt(sos, values - mean, axis=-1)
    filtered += mean
    return filtered, group_delay_samples


def coupling_mix(values: np.ndarray, dt: float, weights_key,
                 weights_fn: Callable[[], dict]) -> np.ndarray:
    """Crosstalk mix: derivative couple + smooth + add.

    *weights_fn* produces ``{rise_scale_ps: W}`` matrices and is
    memoized on the hashable value key *weights_key*. Returns the
    coupled ``(channels, samples)`` array (a fresh array; never a
    view of *values*).
    """
    weights = _memoized(_weights_cache, _WEIGHTS_CACHE_MAX,
                        weights_key, weights_fn)
    if not weights or not values.shape[1]:
        return values.copy()
    dv = np.gradient(values, dt, axis=1)
    out = values.copy()
    mixed_buf = np.empty_like(values)
    for rise_scale_ps, w in weights.items():
        mixed = np.matmul(w, dv, out=mixed_buf)
        sigma_samples = rise_scale_ps / dt
        if sigma_samples > 0.05:
            from scipy.ndimage import gaussian_filter1d

            mixed = gaussian_filter1d(mixed, sigma_samples,
                                      axis=-1, mode="nearest")
        out += mixed
    return out


# -- eye fold and density binning -------------------------------------------


def eye_fold(values: np.ndarray, thresholds: np.ndarray):
    """Threshold crossings over every row of *values*.

    Returns ``(rows, cols, frac)`` in row-major order: the crossing
    between samples ``cols`` and ``cols + 1`` of channel ``rows``
    sits at fractional position *frac* of that interval.
    """
    if values.shape[1] < 2:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty, np.empty(0, dtype=np.float64)
    above = values > thresholds[:, None]
    # flatnonzero + divmod beats np.nonzero on the 2-D mask, and the
    # flat index doubles as the gather index: the mask has n - 1
    # columns, so sample (r, c) sits at flat + r in values.
    flat_idx = np.flatnonzero(above[:, 1:] ^ above[:, :-1])
    rows, cols = np.divmod(flat_idx, values.shape[1] - 1)
    flat = values.ravel()
    v0 = flat[flat_idx + rows]
    v1 = flat[flat_idx + rows + 1]
    frac = (thresholds[rows] - v0) / (v1 - v0)
    return rows, cols, frac


def _bisect_right_uniform(edges: np.ndarray, x: np.ndarray,
                          n_bins: int) -> np.ndarray:
    """``np.searchsorted(edges, x, side='right')`` for near-uniform
    *edges* (a ``linspace``), bit-identical.

    An arithmetic bin guess replaces the binary search; the guess
    can be off by at most one (float error is a tiny fraction of a
    bin for any in-range value, and out-of-range values clip), so
    one exact comparison against the true edge values on each side
    restores the ``edges[i-1] <= x < edges[i]`` invariant.
    """
    v0 = edges[0]
    inv_dv = n_bins / (edges[n_bins] - v0)
    # Clamp before the multiply so huge out-of-range values cannot
    # overflow the int cast; the exact comparisons below use the
    # unclamped x, so the result is still correct for them.
    xc = np.clip(x, v0, edges[n_bins])
    guess = ((xc - v0) * inv_dv).astype(np.int64) + 1
    np.clip(guess, 0, n_bins + 1, out=guess)
    padded = np.concatenate((edges, [np.inf]))
    too_high = (guess > 0) & (x < padded[np.maximum(guess - 1, 0)])
    too_low = x >= padded[guess]
    return guess - too_high + too_low


def density_bin(phases: np.ndarray, values: np.ndarray,
                t_edges: np.ndarray, v_edges: np.ndarray) -> np.ndarray:
    """Per-row 2-D (time x voltage) histogram counts.

    *phases* ``(samples,)`` are shared by every row of *values*
    ``(channels, samples)``. Bins follow ``np.histogramdd``: each
    bin is half-open except the last, which also takes samples
    exactly on the rightmost edge; samples outside the edges are
    dropped. Returns ``(channels, nt, nv)`` ``int64`` counts, each
    row identical to ``np.histogram2d(phases, values[c],
    bins=(t_edges, v_edges))``. *v_edges* must be uniform (a
    ``linspace``).
    """
    values = np.asarray(values, dtype=np.float64)
    c, n = values.shape
    nt = len(t_edges) - 1
    nv = len(v_edges) - 1
    if c == 0 or n == 0:
        return np.zeros((c, nt, nv), dtype=np.int64)
    phases = np.asarray(phases, dtype=np.float64)
    tb = np.searchsorted(t_edges, phases, side="right")
    tb[phases == t_edges[-1]] -= 1
    flat = values.reshape(-1)
    vb = _bisect_right_uniform(v_edges, flat, nv)
    vb[flat == v_edges[-1]] -= 1
    trash = c * nt * nv
    t_idx = (tb - 1) * nv
    row_base = np.arange(c, dtype=np.int64)[:, None] * (nt * nv)
    idx = row_base + t_idx[None, :] + (vb - 1).reshape(c, n)
    invalid = ((tb < 1) | (tb > nt))[None, :] \
        | ((vb < 1) | (vb > nv)).reshape(c, n)
    idx[invalid] = trash
    counts = np.bincount(idx.ravel(), minlength=trash + 1)
    return counts[:trash].reshape(c, nt, nv)


# -- blockwise PRBS ---------------------------------------------------------

#: Largest number of bits produced per matrix application. Large
#: enough to amortize per-block overhead, small enough that building
#: the cached matrices (one symbolic pass of this length) stays
#: cheap.
PRBS_BLOCK = 8192

#: Bound on cached ``(order, taps, block)`` matrix pairs. Default
#: blocks are powers of two, so each polynomial uses at most 14.
_PRBS_CACHE_MAX = 128

_prbs_matrix_cache: Dict[Tuple[int, int, int, int],
                         Tuple[np.ndarray, np.ndarray]] = {}


def _prbs_block_matrices(order: int, tap_a: int, tap_b: int,
                         block: int) -> Tuple[np.ndarray, np.ndarray]:
    """GF(2) output-projection and state-advance matrices.

    Row ``i`` of the output matrix expresses output bit ``i`` of a
    block as a parity over the current state bits (LSB-first); the
    advance matrix maps the state across one whole block. Built once
    per ``(order, block)`` by running the recurrence
    ``out[i] = out[i-n] ^ out[i-m]`` symbolically over bitmasks.
    """
    n, m = tap_a, tap_b
    # Ring buffer of the last n symbolic outputs; out[-k] is state
    # bit k-1, i.e. basis mask 1 << (k - 1).
    ring = [1 << (n - 1 - j) for j in range(n)]  # ring[j] = out[j - n]
    masks = []
    for i in range(block):
        mask = ring[i % n] ^ ring[(i + (n - m)) % n]
        masks.append(mask)
        ring[i % n] = mask
    mask_arr = np.array(masks, dtype=np.int64)
    bit_cols = np.arange(n, dtype=np.int64)
    out_mat = ((mask_arr[:, None] >> bit_cols) & 1).astype(np.float32)
    state_masks = mask_arr[block - 1 - np.arange(n)]
    adv_mat = ((state_masks[:, None] >> bit_cols) & 1).astype(np.float32)
    return out_mat, adv_mat


def prbs_blockwise(order: int, length: int, seed, tap_a: int,
                   tap_b: int,
                   block: Optional[int] = None) -> np.ndarray:
    """*length* LFSR output bits, generated a block at a time.

    *seed* is an int (returns ``(length,)``) or a sequence of ints
    (returns ``(n_seeds, length)``); all seeds advance through one
    state-matrix product per block. Bit-exact against the scalar
    Fibonacci LFSR for every supported polynomial, seed, length, and
    block size (property-tested). State advances through the same
    GF(2) algebra, so the result also composes with
    :func:`repro.signal.prbs.advance_state` shard tiling.

    The default *block* is *length* rounded up to a power of two,
    clamped to ``[order, PRBS_BLOCK]``: short requests do not pay
    for 8192 bits, and the matrix cache holds at most 14 entries per
    polynomial however many distinct lengths are requested.
    """
    single = isinstance(seed, (int, np.integer))
    seeds = [int(seed)] if single else [int(s) for s in seed]
    if not seeds:
        return np.empty((0, length), dtype=np.uint8)
    if length == 0:
        out = np.empty((len(seeds), 0), dtype=np.uint8)
        return out[0] if single else out
    if block is None:
        block = min(PRBS_BLOCK, 1 << (length - 1).bit_length())
    block = max(block, order)
    key = (order, tap_a, tap_b, block)
    out_mat, adv_mat = _memoized(
        _prbs_matrix_cache, _PRBS_CACHE_MAX, key,
        lambda: _prbs_block_matrices(order, tap_a, tap_b, block))
    # float32 matmul is exact here: parities sum at most `order` ones
    # (< 2**24) before the mod-2 reduction.
    states = np.array(
        [[(s >> j) & 1 for s in seeds] for j in range(order)],
        dtype=np.float32)
    n_blocks = -(-length // block)
    out = np.empty((len(seeds), n_blocks * block), dtype=np.uint8)
    for b in range(n_blocks):
        bits = (out_mat @ states).astype(np.int64) & 1
        out[:, b * block:(b + 1) * block] = bits.T
        states = np.asarray(adv_mat @ states, dtype=np.float32) % 2.0
    out = out[:, :length]
    return out[0] if single else out
