"""Shared fold/binning arithmetic for eye construction and display.

Two consumers need the same primitives: the fold
(:meth:`repro.eye.diagram.EyeDiagram.from_waveform`, the streaming
:class:`repro.eye.accumulator.EyeAccumulator`) needs sample phases,
and every density view (``EyeDiagram.histogram2d``,
``render_eye_ascii``) needs one 2-D binning convention so they can
never drift apart. Both live here.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def fold_phases(offset: float, dt: float, n: int,
                ui: float) -> np.ndarray:
    """Phases ``mod(offset + dt*arange(n), ui)`` without an O(n) mod.

    On a uniform grid the phase sequence is periodic whenever the
    unit interval is an exact integer multiple of the sample spacing
    (it is at every paper rate: 400/250/200/125 ps on a 1 ps grid).
    In that case one period is computed and tiled — the tiled values
    can differ from the direct ``np.mod`` by ~1 ulp, which moves no
    physical measurement. Non-commensurate grids fall back to the
    direct computation.

    Parameters
    ----------
    offset:
        Time of the first sample relative to the fold origin, ps.
    dt:
        Sample spacing, ps.
    n:
        Number of samples.
    ui:
        Fold period (the unit interval), ps.

    Returns
    -------
    numpy.ndarray
        ``float64`` phases in ``[0, ui)``; empty input pins the same
        dtype.
    """
    if n <= 0:
        return np.empty(0, dtype=np.float64)
    k = ui / dt
    k_int = int(round(k))
    if k_int >= 1 and abs(k - k_int) < 1e-9 and k_int < n:
        tile = np.mod(offset + dt * np.arange(k_int), ui)
        # mod of a value ~ulp below a period boundary can round up to
        # exactly ui; fold it back so the [0, ui) contract holds.
        tile[tile >= ui] -= ui
        return np.resize(tile, n)
    phases = np.mod(offset + dt * np.arange(n), ui)
    phases[phases >= ui] -= ui
    return phases


def density_grid(phases: np.ndarray, voltages: np.ndarray, ui: float,
                 n_time_bins: int, n_volt_bins: int,
                 v_range: Optional[Tuple[float, float]] = None
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2-D (time x voltage) density every eye display uses.

    One convention shared by ``EyeDiagram.histogram2d`` and
    ``render_eye_ascii``: time axis spans ``[0, ui)``; the voltage
    axis spans *v_range* (data min/max when omitted).

    Returns
    -------
    tuple
        ``(hist, t_edges, v_edges)`` with ``hist`` shaped
        ``(n_time_bins, n_volt_bins)``. Empty input returns an
        all-zero grid over ``v_range`` (or ``(0, 1)`` volts) with
        every array pinned ``float64`` — matching the populated
        case's dtypes exactly.
    """
    phases = np.asarray(phases, dtype=np.float64)
    voltages = np.asarray(voltages, dtype=np.float64)
    if v_range is None:
        if len(voltages) == 0:
            v_range = (0.0, 1.0)
        else:
            v_range = (float(voltages.min()), float(voltages.max()))
    if len(phases) == 0:
        hist = np.zeros((n_time_bins, n_volt_bins), dtype=np.float64)
        t_edges = np.linspace(0.0, ui, n_time_bins + 1,
                              dtype=np.float64)
        v_edges = np.linspace(v_range[0], v_range[1], n_volt_bins + 1,
                              dtype=np.float64)
        return hist, t_edges, v_edges
    hist, t_edges, v_edges = np.histogram2d(
        phases, voltages, bins=(n_time_bins, n_volt_bins),
        range=((0.0, ui), v_range),
    )
    return hist, t_edges, v_edges

