"""Simulation-kernel performance characterization.

Not a paper figure: these benches document the simulator's own
throughput (the honest pytest-benchmark use case), so regressions in
the hot kernels — NRZ rendering, eye folding, fabric stepping — are
visible across versions.
"""

import time

import numpy as np
import pytest

from repro import cache as artifact_cache
from repro.cache import ArtifactCache
from repro.channel.lti import LTIChannel
from repro.eye.diagram import EyeDiagram
from repro.eye.metrics import measure_eye
from repro.host.shmoo import ShmooRunner
from repro.signal.jitter import JitterBudget
from repro.signal.nrz import NRZEncoder
from repro.signal.prbs import prbs_bits
from repro.vortex.fabric import DataVortexFabric, FabricConfig

from conftest import one_shot


def test_nrz_render_throughput(benchmark):
    """Render 4000 bits of jittered 2.5 Gbps NRZ at 1 ps/sample."""
    bits = prbs_bits(7, 4000)
    encoder = NRZEncoder(2.5, v_low=-0.4, v_high=0.4, t20_80=72.0)
    budget = JitterBudget(rj_rms=3.2, dj_pp=23.0).build()

    def render():
        return encoder.encode(bits, jitter=budget,
                              rng=np.random.default_rng(1))

    wf = benchmark(render)
    assert len(wf) > 1_600_000  # ~1.6 M samples


def test_eye_fold_throughput(benchmark):
    """Fold a 1.6 M-sample record into an eye and take crossings."""
    bits = prbs_bits(7, 4000)
    encoder = NRZEncoder(2.5, v_low=-0.4, v_high=0.4, t20_80=72.0)
    wf = encoder.encode(bits, rng=np.random.default_rng(2))

    def fold():
        return EyeDiagram.from_waveform(wf, 2.5)

    eye = benchmark(fold)
    assert eye.n_crossings > 1000


def test_prbs_generation_throughput(benchmark):
    """Generate 100 kbit of PRBS-23."""
    def gen():
        return prbs_bits(23, 100_000)

    bits = benchmark(gen)
    assert len(bits) == 100_000


def test_shmoo_sweep_throughput(benchmark):
    """Warm-cache 32x32 margin shmoo over a full signal pipeline.

    The sweep's cell synthesizes PRBS -> NRZ -> channel -> eye and
    judges the measured opening against the margin axis, so each
    distinct rate re-runs the whole stage chain; the artifact cache
    collapses the 32x32 grid to 32 pipeline evaluations. Asserted
    here: a warm sweep is >= 3x faster than the cold one on a
    bit-identical grid, and adaptive refinement reproduces the
    exhaustive boundary evaluating <= 25% of the cells.
    """
    rates = list(np.linspace(1.0, 3.0, 32))
    margins = list(np.linspace(0.05, 0.95, 32))
    channel = LTIChannel(bandwidth_ghz=2.2)

    def cell(rate, margin):
        store = artifact_cache.active()
        key = artifact_cache.canonical_digest("bench.opening",
                                              float(rate))

        def compute():
            bits = prbs_bits(7, 256)
            enc = NRZEncoder(rate, v_low=-0.4, v_high=0.4,
                             t20_80=90.0)
            wf = channel.apply(enc.encode(bits))
            return measure_eye(
                EyeDiagram.from_waveform(wf, rate)).eye_opening_ui

        return store.get_or_compute(key, compute) >= margin

    cache = ArtifactCache()
    runner = ShmooRunner(cell, x_name="rate (Gbps)",
                         y_name="margin (UI)", cache=cache)

    t0 = time.perf_counter()
    cold = runner.run(rates, margins)
    t_cold = time.perf_counter() - t0

    warm = one_shot(benchmark, runner.run, rates, margins)
    t_warm = benchmark.stats.stats.mean

    assert np.array_equal(cold.passes, warm.passes)
    assert t_cold / t_warm >= 3.0, (
        f"warm sweep only {t_cold / t_warm:.1f}x faster "
        f"(cold {t_cold:.3f}s, warm {t_warm:.3f}s)"
    )
    adaptive = runner.run_adaptive(rates, margins)
    assert np.array_equal(cold.passes, adaptive.passes)
    frac = float(adaptive.evaluated.mean())
    assert frac <= 0.25, f"adaptive evaluated {frac:.0%} of cells"


def test_batched_pipeline_throughput(benchmark):
    """Render + filter + couple + fold a 64-channel block end to end.

    The batched signal path's headline number: one
    (channels x samples) block through NRZ synthesis, the LTI
    channel, the crosstalk coupling matrix, and the eye fold with no
    per-channel Python loop. Tracked in BENCH_simulation_speed.json
    alongside the scalar-kernel benches; the companion >= 5x
    comparison against the per-channel loop lives in
    test_bench_scaling_terabit.py.
    """
    from repro.channel.crosstalk import CrosstalkMatrix
    from repro.eye.diagram import EyeDiagram as Eye

    n_channels, n_bits, rate, dt = 64, 256, 10.0, 25.0
    bits = np.stack([prbs_bits(7, n_bits, seed=s + 1)
                     for s in range(n_channels)])
    enc = NRZEncoder(rate, v_low=-0.4, v_high=0.4, t20_80=72.0,
                     dt=dt)
    channel = LTIChannel(7.0, attenuation_db=1.0, delay_ps=50.0)
    matrix = CrosstalkMatrix([f"ch{i}" for i in range(n_channels)])

    def pipeline():
        block = enc.encode_batch(bits)
        block = channel.apply_batch(block)
        block = matrix.apply_batch(block)
        return Eye.from_batch(block, rate)

    eyes = benchmark(pipeline)
    assert len(eyes) == n_channels
    assert all(eye.n_crossings > 20 for eye in eyes)


def _kernel_pipeline():
    """The 64-channel 10 Gbps batched pipeline closure, PRBS through
    the eye accumulator."""
    from repro.channel.crosstalk import CrosstalkMatrix
    from repro.eye.accumulator import EyeAccumulator
    from repro.eye.diagram import EyeDiagram as Eye
    from repro.signal import prbs_bits_batch

    n_channels, n_bits, rate, dt = 64, 256, 10.0, 25.0
    enc = NRZEncoder(rate, v_low=-0.4, v_high=0.4, t20_80=72.0,
                     dt=dt)
    channel = LTIChannel(7.0, attenuation_db=1.0, delay_ps=50.0)
    matrix = CrosstalkMatrix([f"ch{i}" for i in range(n_channels)])

    def pipeline():
        bits = prbs_bits_batch(7, n_bits, range(1, n_channels + 1))
        block = enc.encode_batch(bits)
        block = channel.apply_batch(block)
        block = matrix.apply_batch(block)
        eyes = Eye.from_batch(block, rate)
        acc = EyeAccumulator(rate_gbps=rate, v_range=(-0.5, 0.5),
                             threshold=0.0, n_time_bins=64,
                             n_volt_bins=48)
        acc.update(block)
        return eyes, acc

    return pipeline


def test_batched_pipeline_fused_throughput(benchmark):
    """The batched pipeline on the batched kernels.

    Same workload as :func:`test_batched_pipeline_throughput` plus
    the density accumulator. The 2x floor over the reference kernels
    is asserted separately in
    :func:`test_batched_pipeline_kernel_floor`.
    """
    pipeline = _kernel_pipeline()
    eyes, acc = benchmark(pipeline)
    assert len(eyes) == 64
    assert int(np.asarray(acc.grid).sum()) > 0


def test_batched_pipeline_kernel_floor():
    """The batched kernels must hold >= 2x over the reference kernels
    of ``tests/_kernel_reference.py`` on the 64-channel pipeline.

    A serial A/B in one process: the two pipelines alternate round
    by round, and each side's time is its fastest of 9 rounds, so a
    scheduler hiccup or a slow spell of the host hits both.
    """
    import sys
    import time as _time
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from tests._kernel_reference import reference_kernels

    pipeline = _kernel_pipeline()
    with reference_kernels():
        pipeline()  # warm the template and matrix caches
    pipeline()
    t_ref, t_kernels = [], []
    for _ in range(9):
        with reference_kernels():
            t0 = _time.perf_counter()
            pipeline()
            t_ref.append(_time.perf_counter() - t0)
        t0 = _time.perf_counter()
        pipeline()
        t_kernels.append(_time.perf_counter() - t0)
    speedup = min(t_ref) / min(t_kernels)
    assert speedup >= 2.0, (
        f"batched kernels only {speedup:.2f}x over the reference "
        f"kernels (reference {min(t_ref) * 1e3:.2f} ms, kernels "
        f"{min(t_kernels) * 1e3:.2f} ms)"
    )


def test_fabric_step_throughput(benchmark):
    """Step a loaded 240-node fabric 100 cycles."""
    def run():
        fab = DataVortexFabric(FabricConfig(n_angles=3,
                                            n_heights=16))
        rng = np.random.default_rng(3)
        for _ in range(100):
            for _ in range(3):
                if rng.random() < 0.6:
                    fab.submit(int(rng.integers(0, 16)))
            fab.step()
        return fab

    fab = benchmark(run)
    assert fab.stats.delivered > 50


def test_coded_frame_throughput(benchmark):
    """Encode + decode a 16-channel coded block (8b10b + scrambling).

    The coded-link hot path: one vectorized frame encode over
    (channels, n_bytes) and the per-row receive stack (align,
    decode, lock-track, descramble). Payload must survive exactly.
    """
    from repro.coding import LinkCodec

    codec = LinkCodec(scramble=True, comma_period=16)
    rng = np.random.default_rng(5)
    payloads = rng.integers(0, 256, size=(16, 1024)).astype(np.uint8)

    def roundtrip():
        line = codec.encode_frame_batch(payloads)
        return codec.decode_frame_batch(line, n_bytes=1024)

    frames = benchmark(roundtrip)
    assert len(frames) == 16
    assert all(f.clean for f in frames)
    assert all(np.array_equal(f.payload, p)
               for f, p in zip(frames, payloads))


def test_coded_decode_floor():
    """The array lock scan must hold >= 5x over the per-symbol
    state-machine loop of ``tests/_coding_reference.py`` on
    :func:`test_coded_frame_throughput`'s 16 x 1024 B scrambled
    block.

    A serial A/B in one process, like
    :func:`test_batched_pipeline_kernel_floor`: the two decoders
    alternate round by round and each side's time is its fastest of
    9 rounds. Both must recover every payload exactly.
    """
    import sys
    import time as _time
    from pathlib import Path

    from repro.coding import LinkCodec

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from tests import _coding_reference

    codec = LinkCodec(scramble=True, comma_period=16)
    rng = np.random.default_rng(5)
    payloads = rng.integers(0, 256, size=(16, 1024)).astype(np.uint8)
    line = codec.encode_frame_batch(payloads)

    def scan():
        return codec.decode_frame_batch(line, n_bytes=1024)

    def loop():
        return _coding_reference.decode_frame_batch(codec, line,
                                                    n_bytes=1024)

    for frames in (scan(), loop()):
        assert all(f.clean and np.array_equal(f.payload, p)
                   for f, p in zip(frames, payloads))
    t_loop, t_scan = [], []
    for _ in range(9):
        t0 = _time.perf_counter()
        loop()
        t_loop.append(_time.perf_counter() - t0)
        t0 = _time.perf_counter()
        scan()
        t_scan.append(_time.perf_counter() - t0)
    speedup = min(t_loop) / min(t_scan)
    assert speedup >= 5.0, (
        f"decode lock scan only {speedup:.2f}x over the per-symbol "
        f"loop (loop {min(t_loop) * 1e3:.2f} ms, scan "
        f"{min(t_scan) * 1e3:.2f} ms)"
    )


def test_link_lock_smoke(benchmark):
    """Lock-acquisition smoke: on a clean channel the CDR must lock
    in under two comma periods, from every bit-slip phase."""
    from repro.coding import LinkCodec

    codec = LinkCodec(comma_period=16)
    rng = np.random.default_rng(9)
    payload = rng.integers(0, 256, size=256).astype(np.uint8)
    line = codec.encode_frame(payload)
    limit = 2 * (codec.comma_period + 1)

    def acquire():
        worst = 0
        for slip in range(10):
            prefix = rng.integers(0, 2, size=slip)
            bits = np.concatenate([prefix, line]).astype(np.uint8)
            frame = codec.decode_frame(bits, n_bytes=len(payload))
            assert frame.stats.locked
            worst = max(worst, frame.stats.lock_time_symbols)
        return worst

    worst = benchmark(acquire)
    assert 0 < worst < limit
