#!/usr/bin/env python
"""Generate docs/API.md from the package's docstrings.

Walks every module under ``repro``, collecting the first docstring
line of each public class and function into one browsable index.

Run:  python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path


def first_line(doc: str) -> str:
    for line in (doc or "").strip().splitlines():
        line = line.strip()
        if line:
            return line
    return ""


def collect(module) -> list:
    rows = []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", "") != module.__name__:
            continue
        kind = "class" if inspect.isclass(obj) else "func"
        rows.append((kind, name, first_line(obj.__doc__)))
    return rows


# Hand-written prose sections, emitted verbatim ahead of the module
# index so regeneration preserves them.
OBSERVABILITY = """\
## Observability

Every layer of the stack is instrumented through
`repro.telemetry`: hierarchical counters, gauges, histogram
timers, and nested trace spans, with zero dependencies and a
near-zero-cost disabled mode (the default — lookups resolve to
shared no-op singletons, bounded in
`benchmarks/test_bench_telemetry_overhead.py`).

Enable globally, or inject a private `Registry` into any
component (`NRZEncoder`, `DataVortexFabric`, `MiniTester`,
`TestSession`, `ShmooRunner`, ...) via its `registry=` argument:

```python
from repro import telemetry
from repro.core.minitester import MiniTester

with telemetry.use_registry() as reg:   # or telemetry.enable()
    MiniTester().run_loopback(n_bits=500, seed=1)

print(reg.to_prometheus())   # flat exposition text
snapshot = reg.to_dict()     # {"counters": ..., "gauges": ...,
                             #  "timers": ...}
```

Counter names are dotted per subsystem (`nrz.samples`,
`vortex.deflections`, `shmoo.cells_passed`, `dlc.cycles`,
`session.wafers_sorted`, ...); spans nest into slash-joined timer
paths (`session.bring_up/session.qualify`). Registries merge
associatively (`a.merge(b)`) for aggregating parallel runs.
"""

PERFORMANCE = """\
## Performance & Kernel Contracts

The hot simulation kernels are vectorized array code behind
`repro.signal._kernels` and `repro.vortex._soa`; the public models
(`NRZEncoder`, `prbs_bits`, `DataVortexFabric`, the bathtub curves)
keep their APIs and delegate. Each kernel carries an explicit
equivalence contract against its scalar reference, enforced by
`tests/test_kernels_equivalence.py`:

- **NRZ rendering** (`_kernels.render_nrz`): O(samples +
  edges x window) — a step baseline built via `bincount`/`cumsum`
  plus window-local edge contributions. Edge profiles come from an
  LRU template cache keyed `(shape, t20_80, dt)`, oversampled so
  linear interpolation of per-edge sub-sample jitter stays within
  `_kernels.NRZ_EQUIVALENCE_ATOL` (1e-5 of the swing) of direct
  per-edge profile evaluation; zero rise time is bit-exact, and
  `EdgeShape.LINEAR` bypasses the template for the exact ramp.
  Cache traffic is observable as `nrz.template_cache.{hits,misses}`.
- **PRBS generation** (`_kernels.prbs_blockwise`): blockwise
  GF(2) matrix products (up to 8192 bits per application, every
  seed of a batch in one product), *bit-exact*
  against the scalar Fibonacci LFSR (kept public as
  `prbs_bits_scalar`) and composable with `advance_state` /
  `prbs_shard_states` stream tiling.
- **Vortex fabric stepping**: struct-of-arrays node state with an
  adaptive step — a scalar pass over occupied slots below
  `DataVortexFabric.vector_threshold` resident packets, vectorized
  per-cylinder array routing above it (counted by
  `vortex.vectorized_steps`). Both paths produce identical
  decisions, packet journeys, delivery order, and statistics as the
  original dict-of-nodes scan; `fabric.nodes` remains a live
  per-node view over the arrays.
- **Bathtub curves**: vectorized erfc within
  `BATHTUB_EQUIVALENCE_RTOL` (1e-12, absolute floor 1e-30 for the
  denormal deep tail); `empirical_bathtub` is bit-exact via sorted
  `searchsorted` counting.

Bench history lives in committed `benchmarks/BENCH_<suite>.json`
trajectory files (schema in `benchmarks/_report.py`): each point is
a labelled `{bench: mean_seconds}` snapshot appended when an
intentional performance change lands. CI's `perf-smoke` job runs
`benchmarks/test_bench_simulation_speed.py` with
`--benchmark-json` and gates the result with
`tools/bench_compare.py`, which fails on any mean more than 30%
above the latest committed point. To read a trajectory: each
entry's `label`/`note` say what landed; successive `results` ratios
are the speedups. To extend it after an optimization:

```
python -m pytest benchmarks/test_bench_simulation_speed.py \\
    --benchmark-json=bench.json
python tools/bench_compare.py bench.json \\
    --baseline benchmarks/BENCH_simulation_speed.json \\
    --record --label "what changed"
```
"""

CACHING = """\
## Caching & Adaptive Sweeps

Sweeps re-run nearly identical pipelines cell after cell.
`repro.cache` memoizes expensive stage outputs — PRBS bitstreams,
rendered NRZ waveforms, channel convolutions, folded eyes — in a
bounded content-addressed store (`ArtifactCache`: in-memory LRU
with entry and byte caps, plus an optional atomic on-disk backing
shared across `repro.parallel` process shards via `disk_path`).

**The `cache_key()` contract.** Every cached stage composes its key
with `repro.cache.canonical_digest(...)` over a type-tagged
canonical serialization (so `1`, `1.0`, `True` and `"1"` never
collide) of *everything that determines its output*: stage name,
configuration (components expose it via a `cache_key()` method —
`NRZEncoder`, `LTIChannel`), and inputs. Waveforms carry a
provenance token attached by their producing stage, so downstream
keys compose from config digests instead of rehashing megasample
records. Stages whose output is not a pure function of the key
bypass the cache (`NRZEncoder.encode` with a jitter model drawing
from a caller RNG; a noisy `SamplingScope` acquisition). The
correctness contract — cached pipelines are *bit-identical* to
uncached ones — is property-tested in `tests/test_cache.py`.

Opt in per call (`cache=`), per component (`ShmooRunner(...,
cache=...)`, `TestProgram(..., cache=...)`), or by scope:

```python
from repro import cache as artifact_cache

with artifact_cache.use_cache() as cache:
    runner.run(rates, margins)       # warm across cells
print(cache.stats())                 # hits/misses/evictions/bytes
```

Traffic is observable as `cache.{hits,misses,evictions,stores}`
counters and the `cache.bytes` gauge.

**Streaming eye accumulation.** `EyeDiagram` keeps every folded
sample; `repro.eye.EyeAccumulator` instead folds chunk-by-chunk
into a fixed time x voltage density grid with O(grid) memory, for
BER-length streams. Equivalence bounds: its density grid is
*identical* to `EyeDiagram.histogram2d` over the same axes for any
chunking; its crossover phase is exact (streamed circular mean);
jitter and vertical metrics are histogram-quantized — jitter to
`UI / n_phase_bins`, voltages to one grid bin. `measure_eye`
accepts either object.

**Adaptive shmoo.** `ShmooRunner.run_adaptive` evaluates a coarse
lattice, fills blocks whose four corners agree, and recursively
subdivides only boundary-straddling blocks — typically evaluating
10-25% of the grid. Exact-vs-approximate: the result equals the
exhaustive grid whenever every agreeing coarse block is uniform
(guaranteed for monotone or per-row/column contiguous pass regions
at the coarse scale — the paper's Figure 10/11 margin shapes);
pass features smaller than `coarse_step` cells can be missed.
`ShmooResult.evaluated` is always a boolean mask (inferred cells
read False with `complete=True`).
"""

BATCHED = """\
## Batched Signal Path

Array-scale simulations (the Terabit roadmap's 64-wavelength word,
multi-board channel groups) move a whole `(channels, samples)`
block through every stage with no per-channel Python loop.
`repro.signal.WaveformBatch` is the container: **channel axis
first, C-contiguous float64**, one shared `dt`/`t0` time grid for
every row, `row(i)` returning a zero-copy `Waveform` view. Batched
stage entry points mirror their scalar names — `NRZEncoder
.encode_batch`, `LTIChannel.apply_batch`, `CrosstalkMatrix
.apply_batch`, `WDMMux.combine_batch` / `WDMDemux.split_batch`,
`EyeDiagram.from_batch`, `EyeAccumulator.update` (fed
`WaveformBatch` chunks), `OutputBuffer.drive_batch`,
`PECLTransmitter.transmit_serial_batch`, and `OpticalTestBed
.transmit_slot_batch`.

**Equivalence contract** (golden-tested against the kept
per-channel loops in `tests/test_batch_equivalence.py`):

- *Bit-identical per row*: NRZ rendering (disjoint per-row
  `bincount` ranges preserve each row's accumulation order), LTI
  filtering (`sosfilt` over `axis=-1` runs the identical recurrence
  per row), eye folding with `merge=False`, accumulator density
  grids and crossing counts under any chunking x any batching, and
  the WDM mux.
- *Tolerance-pinned*: stages that replace sequential per-pair adds
  with one matrix product reorder float additions — crosstalk
  mixing within `repro.channel.crosstalk.XTALK_EQUIVALENCE_RTOL`
  (1e-9, atol 1e-12) and the WDM demux within
  `repro.optics.wdm.WDM_EQUIVALENCE_RTOL` (1e-12, atol 1e-15).
- *Statistically equivalent*: jittered renders draw offsets once
  over all rows' concatenated edges, so RNG consumption order
  differs from the per-channel loop.

Caching composes per row with byte-identical keys: a batched stage
keys each row with the *same* digest formula as its scalar
counterpart, so warm entries flow between the two paths in both
directions, only missing rows are computed (as a sub-batch), and
`tests/test_batch_equivalence.py` pins the digest literals. The
speed floor lives in `benchmarks/test_bench_scaling_terabit.py
::test_batched_array_throughput`: the batched pipeline is >= 5x
faster than the per-channel loop on a 64-channel, 10 Gbps array
(per-channel overhead — filter design, edge-template setup, fold
bookkeeping — is paid once per block instead of once per channel).

Every batched stage calls one kernel in `repro.signal._kernels`:
`render_nrz_batch` (grouped edge profiles on integer time grids,
the flattened render off them), `sosfilt_batch` and `coupling_mix`
(memoized filter designs and coupling weights), `eye_fold`,
`density_bin`, and `prbs_blockwise`. Each is bit-identical to the
plain reference kernel it replaced (`tests/_kernel_reference.py`),
and the 64-channel pipeline holds a >= 2x floor over those
(`benchmarks/test_bench_simulation_speed.py
::test_batched_pipeline_kernel_floor`, a serial A/B). A NaN or
infinite sample is rejected when the `WaveformBatch` is built
(`MeasurementError`, counted as `signal.nonfinite_rejected`).
"""

PARALLEL = """\
## Scaling & Parallel Execution

`repro.parallel` shards large jobs — shmoo grids, wafer sort
touchdowns, long BER runs — across worker pools while keeping
serial semantics: canonical-order results, deterministic per-shard
seeds (`numpy.random.SeedSequence.spawn` via
`repro._rng.spawn_seeds`), and telemetry that merges back into the
parent registry so an N-worker run reads identically to serial.

`Executor` picks the backend (`serial`, `thread`, `process`),
chunks the work queue, retries failed or crashed shards up to
`max_retries`, and enforces per-chunk timeouts. `ShardPlan`
partitions grids (`for_grid`), bit budgets (`for_range`), and
touchdown site lists (`for_touchdowns`), then reassembles results
in canonical order:

```python
from repro.host.shmoo import ShmooRunner
from repro.parallel import Executor

pool = Executor(backend="process", max_workers=4)
result = ShmooRunner(my_test).run(rates, strobes, executor=pool,
                                  progress=lambda done, total: None)
```

The serial path stays the default everywhere and is bit-exact with
the sharded paths: shmoo grids are identical across backends, and
`TestSession.characterize_ber` spawns the same shard seeds whether
run inline or on a pool. `ShmooRunner.run` also accepts a
`should_abort` predicate for early exit (partial grids expose an
`evaluated` mask). Sharded PRBS generation that must tile the
*same* serial bitstream uses `repro.signal.prbs.prbs_shard_states`
(LFSR fast-forward), not independent seeds.
`benchmarks/test_bench_parallel_shmoo.py` holds the speedup floor:
a 32x32 BER shmoo runs >= 2x faster on 4 process workers.
"""


DISTRIBUTED = """\
## Distributed Execution

The `"remote"` executor backend takes sharded runs off-box: a
`repro.parallel.WorkerPool` master accepts worker *processes* over
TCP speaking the same NDJSON frames as the test-floor service
(`repro.service.wire`), with pickled payloads riding base64 inside
the JSON lines. Every serial-semantics contract carries over
unchanged — canonical-order reassembly, per-shard
`SeedSequence.spawn` seeds, merged telemetry — so a remote run is
**bit-identical to serial**, a property the million-cell shmoo
bench re-proves on every run *including after a worker is killed
mid-sweep* (`benchmarks/test_bench_remote_scaling.py`).

```python
from repro.parallel import Executor, WorkerPool

with WorkerPool(n_workers=4) as pool:        # spawns local workers
    ex = Executor(backend="remote", backend_options={"pool": pool})
    result = ex.run(my_module_level_fn, work_items, seed_root=7)
```

Workers can also join from other machines: start the master with
`WorkerPool(spawn=False, host="0.0.0.0", port=...)` and run
`REPRO_POOL_SECRET=... python -m repro.service.worker --connect
HOST:PORT --name w0` on each box.

**Authentication.** Wire payloads are pickles, so the pool never
accepts a frame from an unauthenticated peer: every connection
opens with an HMAC-SHA256 challenge/response (mutual — the
`welcome` must prove the master holds the secret before the worker
trusts it either, in the style of `multiprocessing.connection`).
The secret is `WorkerPool(secret=...)`, defaulting to
`$REPRO_POOL_SECRET` or a fresh random value; spawned workers
inherit it automatically, external workers pass `--secret` or the
environment variable (the master's value is exposed as
`pool.secret`). This authenticates but does not encrypt: treat the
wire as **trusted-network-only** (lab LAN, SSH tunnel) — never
expose the port to an untrusted network. The handshake also pins
`transport.PROTOCOL_VERSION` (a mismatched, unauthenticated, or
duplicate-named worker is rejected with a reason), after which the
master pickles the work function **once per worker per job** and
streams chunks. Frames are capped at the wire's 16 MiB line limit;
an oversized chunk or result fails fast with advice to lower
`Executor(chunk_size=...)` instead of cascading worker deaths. Liveness is heartbeat-based: workers
answer pings from a dedicated reader thread, so a *busy* worker
still pongs and only a dead or frozen process goes silent; a
worker declared dead has its in-flight chunks requeued to
survivors (chunk failures, by contrast, charge
`Executor.max_retries`). The requeue ledger is a pure state
machine (`ChunkLedger`), property-tested in
`tests/test_parallel_remote.py` so that *any* interleaving of
completions and worker deaths still yields exactly-once canonical
reassembly.

**Shared read-through cache.** With an `ArtifactCache` active on
the master (or passed as `WorkerPool(cache=...)`), workers resolve
`cache.get_or_compute` through a `repro.cache.RemoteCacheTier`:
worker-local LRU front, then a master fetch over the wire, then
compute-and-publish. The first worker to render an artifact warms
every other worker through the master — cross-worker hits are the
reason the 4-worker shmoo point holds its >= 2.5x floor. Wire
failures degrade to a local miss, never an error.

**Backends are pluggable.** `register_backend(name, runner)` adds
a strategy; `registered_backends()` lists them, and an unknown
`backend=` raises a `ConfigurationError` naming the registered
set. Submit-time validation fails fast with an actionable message
when the work function is unpicklable or lives in `__main__`
(remote workers cannot import a script's `__main__`) instead of
dying opaquely on a worker.

Remote health is observable under `parallel.remote.*`:
`dispatches`, `requeues`, `worker_deaths`, `heartbeat_misses`,
`joins`, `rejects`, `cache.{gets,served,puts}` counters, a
`workers_alive` gauge, and per-worker labelled gauges
(`pool.worker_busy{worker=w0}`, `pool.worker_chunks{worker=w0}`)
that `telemetry.split_labels` parses and the Prometheus exporter
renders as proper label sets. Worker-side counters ride home in
each chunk's result frame and merge into the run's registry, so an
N-worker sweep's totals read identically to serial. See
`examples/distributed_shmoo.py` for the full story.
"""


CODING = """\
## Coded Serial Links

The paper's systems drive raw NRZ, but the multi-gigabit links the
related work builds on the same parts are *coded*. `repro.coding`
supplies that layer: an 8b10b encoder/decoder with running-disparity
tracking and K characters (`encode_stream` / `decode_stream`,
vectorized over `(channels, n)` blocks), a self-synchronizing
scrambler (G(x) = 1 + x^39 + x^58), a bit-slip comma aligner, and a
CDR lock state machine (hunt → comma-align → locked, with
loss-of-lock on code-violation bursts). `LinkCodec` composes them
into a framing stack that `PECLTransmitter`, `PECLReceiver`,
`OpticalTestBed`, and `MiniTester` all accept through their
`encoding=` argument (`"8b10b"`, `"8b10b-scrambled"`, or a
configured `LinkCodec`). Encoding is vectorized over `(channels,
n_bytes)` payloads; decoding is vectorized per aligned segment, lock
tracking included, with the same results as stepping the state
machine one symbol at a time:

```python
from repro.core.minitester import MiniTester

mini = MiniTester(rate_gbps=5.0, encoding="8b10b-scrambled")
result = mini.run_coded_loopback(n_bytes=256, seed=1)
assert result.passed            # payload error-free, link locked
result.stats.code_violations    # line-layer health telemetry
result.stats.lock_time_symbols  # CDR acquisition time
```

Per-frame health lands in `LinkStats` (code violations, disparity
errors, lock acquisitions/losses, slipped and discarded bits) and —
when telemetry is enabled — in dotted counters
(`coding.code_violations`, `coding.lock_losses`,
`coding.payload_errors`, ...) and the `coding.encode_frame_batch`
and `coding.decode_frame` spans. `CodedStreamChecker` grades a raw
line-bit capture end to end: align, decode, descramble, then PRBS-
check the payload with the self-synchronizing fabric checker, whose
density-based resync reports stream slips as single `slips` events.
The fixed-reference BERT gains the same awareness via
`BitErrorRateTester.measure_resync`, which re-aligns at a detected
slip instead of miscomparing the entire tail. Conformance of the
code tables is pinned by `tests/test_coding_conformance.py` (all
512 (code, disparity) pairs plus every K character against an
independent golden table) and `tests/test_coding_properties.py`
(hypothesis round-trip, disparity, run-length, and bit-slip
recovery properties, plus the decode lock scan against the
per-symbol loop of `tests/_coding_reference.py` on damaged streams).
"""


SERVICE = """\
## Test-Floor Service

`repro.service` turns the library into a shared shop-floor master:
an asyncio RPC server speaking newline-delimited JSON
(`{"id", "method", "params"}` in; `{"id", "ok", "result"|"error"}`
out; subscribed connections additionally receive
`{"event", "seq", "data"}` lines), a priority scheduler with
bounded worker slots, and a pub/sub hub streaming partial results
live. Everything is stdlib (asyncio + threading + json); jobs run
the same measurement code a direct caller would, so service
results are **bit-identical to direct library calls** — pinned
end-to-end by `tests/test_service_e2e.py`.

```python
from repro.service import serve_in_thread

with serve_in_thread(max_slots=2) as handle:
    with handle.client() as cli:
        cli.subscribe("job.*")            # live event stream
        job = cli.submit(kind="shmoo",
                         params={"rates": [2.0, 3.0, 4.0],
                                 "strobe_fracs": [0.2, 0.5, 0.8],
                                 "n_bits": 200},
                         priority=2, deadline_s=120.0)
        final = cli.result(job_id=job["job_id"])
```

**Scheduling.** Higher priority runs first, FIFO within a
priority, at most `max_slots` jobs on worker threads
(`asyncio.to_thread`). When every slot is busy and a strictly
higher-priority job arrives, the lowest-priority running job is
*preempted cooperatively*: its worker thread parks at the next
`should_abort` checkpoint (the same hook the measurement stack
already polls between cells/shards/chunks), the slot frees on the
pause acknowledgement, and the job auto-resumes — bit-identically
— when a slot opens. Clients can also `pause`/`resume`/`abort`
explicitly; an aborted job returns its partial results. Per-job
`deadline_s` is wall-clock from start; overruns abort with
partials.

**Builtin job kinds** (`JobRunner.register` adds more): `shmoo`
(cells via `repro.host.shmoo.strobe_rate_test`, one partial per
cell), `ber` (the exact `ShardPlan.for_range` + `spawn_seeds`
recipe of `TestSession.characterize_ber`, cumulative tallies per
shard), `eye` (chunked `EyeAccumulator` fold publishing
`snapshot()` views), and `wafer` (multi-site sort summary).

**Streaming.** Topics `job.<id>.state` / `.progress` / `.partial`
with trailing-`*` wildcards. Per-subscriber queues are bounded and
lossy-oldest: a slow reader lags (visible as gaps in per-topic
`seq` numbers, counted in `service.events_dropped`) without ever
stalling publishers. Raising client hooks are quarantined the same
way on the library side: a `progress`/`should_abort` callback that
throws converts the run into a clean abort (counted as
`parallel.callback_errors`) instead of crashing mid-measurement.

Service health is observable under dotted `service.*` names:
`jobs_submitted/completed/failed/aborted`, `preemptions`,
`deadline_aborts`, `rpc_requests/rpc_errors`,
`events_published/events_dropped` counters and
`jobs_queued/jobs_running/jobs_paused`, `subscribers`,
`stream_lag` gauges. Run `python examples/service_demo.py` for the
full multi-client story.
"""


def main() -> int:
    import repro

    lines = [
        "# API reference",
        "",
        "Generated by `python tools/gen_api_docs.py` — one line per",
        "public class/function, from the first docstring line.",
        "",
        OBSERVABILITY,
        PERFORMANCE,
        BATCHED,
        CACHING,
        PARALLEL,
        DISTRIBUTED,
        CODING,
        SERVICE,
    ]
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        modules.append(importlib.import_module(info.name))
    for module in modules:
        rows = collect(module)
        if not rows and module.__name__ != "repro":
            continue
        lines.append(f"## `{module.__name__}`")
        lines.append("")
        lines.append(first_line(module.__doc__))
        lines.append("")
        for kind, name, doc in rows:
            lines.append(f"- **{name}** ({kind}) — {doc}")
        lines.append("")
    out = Path(__file__).resolve().parent.parent / "docs" / "API.md"
    out.parent.mkdir(exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out} ({len(lines)} lines, "
          f"{len(modules)} modules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
