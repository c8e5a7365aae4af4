"""The benchmark's three closed-loop workloads.

Each workload is one caller in one process: a round starts only after
the previous one has returned. A workload draws a small pool of round
inputs from the benchmark seed when it is built, and round ``r`` runs
pool entry ``r % pool``, so every output can be checked against a
reference computed before timing starts, and the output digest covers a
fixed set of rounds whatever the run length.

Every call into the library goes through ``tr.span(<layer>.<call>)``:
a no-op when untraced, a recorded span in the traced run (see
:mod:`spans`). The program itself runs with its defaults.

Interface of a workload (used by ``run.py`` and ``smoke.py``):

* ``name``, ``layers`` (the per-layer metrics it reports),
  ``bits_per_round`` and ``pool``;
* ``run(k, tr)``: one timed round on pool entry *k*;
* ``prepare()``: untimed references, computed after set-up;
* ``check(k, out)``: a list of failure messages, empty when correct;
* ``digest(out)``: bytes of the simulated statistics of one output;
* ``traced_extra(k, tr)``: untimed work of the traced run only;
* ``counts()``: exact per-layer counts for the traced run;
* ``per_cell``: per-layer names reported per cell rather than per round;
* ``close()``.
"""

from __future__ import annotations

import json

import numpy as np

from repro import telemetry
from repro.channel.crosstalk import CrosstalkMatrix
from repro.channel.lti import LTIChannel
from repro.coding.link import LinkCodec
from repro.core.minitester import MiniTester
from repro.eye.accumulator import EyeAccumulator
from repro.eye.diagram import EyeDiagram
from repro.host.shmoo import ShmooRunner, minitester_strobe_rate_shmoo
from repro.service import serve_in_thread
from repro.signal import prbs_bits_batch
from repro.signal.nrz import NRZEncoder
from repro.vortex.fabric import DataVortexFabric, FabricConfig
from repro.vortex.traffic import HotspotTraffic
from spans import NULL_TRACER

#: Round inputs drawn per workload; round r runs entry r % POOL.
POOL = 4

#: Per-layer metrics every workload reports.
COMMON_LAYERS = ("glue.s", "trace.overhead_frac")

#: The link_traffic load point: offered load on a 5 x 32 Data Vortex.
OFFERED_LOAD = 0.7
N_ANGLES = 5
N_HEIGHTS = 32


def _rng(seed: int, workload: int, k: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), workload, k])


class _Workload:
    pool = POOL
    per_cell: dict = {}

    def prepare(self) -> None:
        pass

    def traced_extra(self, k: int, tr) -> list:
        return []

    def counts(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class EyeBlock(_Workload):
    """64-channel, 256-bit, 10 Gbps block (dt 25 ps) through PRBS,
    NRZ render, LTI channel, crosstalk, eye fold and accumulator."""

    name = "eye_block"
    layers = ("signal.prbs_bits_batch.s", "signal.encode_batch.s",
              "channel.lti_apply_batch.s",
              "channel.crosstalk_apply_batch.s", "eye.from_batch.s",
              "eye.accumulator_update.s",
              "signal.template_cache_hit_ratio")
    min_crossings = 20

    def __init__(self, seed: int, n_channels: int = 64,
                 n_bits: int = 256):
        self.n_channels, self.n_bits = n_channels, n_bits
        self.rate = 10.0
        self.bits_per_round = n_channels * n_bits
        self.encoder = self._encoder()
        self.channel = LTIChannel(7.0, attenuation_db=1.0,
                                  delay_ps=50.0)
        self.matrix = CrosstalkMatrix(
            [f"ch{i}" for i in range(n_channels)])
        self.inputs = [_rng(seed, 0, k).integers(1, 128, n_channels)
                       for k in range(self.pool)]

    def _encoder(self, registry=None):
        return NRZEncoder(self.rate, v_low=-0.4, v_high=0.4, t20_80=72.0,
                          dt=25.0, registry=registry)

    def run(self, k, tr):
        with tr.span("signal.prbs_bits_batch"):
            bits = prbs_bits_batch(7, self.n_bits, self.inputs[k])
        with tr.span("signal.encode_batch"):
            block = self.encoder.encode_batch(bits)
        with tr.span("channel.lti_apply_batch"):
            block = self.channel.apply_batch(block)
        with tr.span("channel.crosstalk_apply_batch"):
            block = self.matrix.apply_batch(block)
        with tr.span("eye.from_batch"):
            eyes = EyeDiagram.from_batch(block, self.rate)
        acc = EyeAccumulator(rate_gbps=self.rate, v_range=(-0.5, 0.5),
                             threshold=0.0, n_time_bins=64,
                             n_volt_bins=48)
        with tr.span("eye.accumulator_update"):
            acc.update(block)
        return eyes, acc

    def check(self, k, out):
        eyes, acc = out
        fails = []
        if len(eyes) != self.n_channels:
            fails.append(f"{len(eyes)} eyes for {self.n_channels} "
                         f"channels")
        thin = [i for i, eye in enumerate(eyes)
                if eye.n_crossings <= self.min_crossings]
        if thin:
            fails.append(f"channels {thin[:8]} have <= "
                         f"{self.min_crossings} crossings")
        if not np.asarray(acc.grid).any():
            fails.append("accumulator grid is empty")
        return fails

    def digest(self, out):
        eyes, acc = out
        crossings = np.array([eye.n_crossings for eye in eyes],
                             dtype=np.int64)
        return np.asarray(acc.grid).tobytes() + crossings.tobytes()

    def counts(self):
        """The template-cache hit ratio over the pool, from the
        program's ``nrz.template_cache.*`` counters (an untimed pass
        through an encoder with a registry)."""
        registry = telemetry.Registry()
        encoder = self._encoder(registry)
        for seeds in self.inputs:
            encoder.encode_batch(prbs_bits_batch(7, self.n_bits, seeds))
        c = registry.to_dict()["counters"]
        hits = c.get("nrz.template_cache.hits", 0)
        lookups = hits + c.get("nrz.template_cache.misses", 0)
        return {"signal.template_cache_hit_ratio":
                hits / lookups if lookups else 0.0}


class ShmooService(_Workload):
    """Strobe x rate shmoo jobs submitted to an in-thread test-floor
    master over one client connection; the client waits on the job's
    state events, then fetches the result."""

    name = "shmoo_service"
    layers = ("service.submit.s", "service.queue_wait.s",
              "service.run.s", "service.result.s", "service.partials",
              "core.prbs_waveform.s", "channel.round_trip_apply.s",
              "pecl.receive_bits.s", "core.expected_serial.s",
              "pecl.compare.s", "host.shmoo_glue.s")
    #: Longest wait for one job event before the round counts as
    #: timed out.
    event_timeout_s = 60.0

    def __init__(self, seed: int, rates=(2.5, 3.75, 5.0),
                 strobe_fracs=(0.05, 0.35, 0.65, 0.98),
                 n_bits: int = 100):
        self.n_bits = n_bits
        self.cells = len(rates) * len(strobe_fracs)
        self.bits_per_round = self.cells * n_bits
        self.per_cell = {name: self.cells for name in self.layers
                         if name.startswith(("core.", "channel.",
                                             "pecl.", "host."))}
        self.inputs = []
        for k in range(self.pool):
            rng = _rng(seed, 1, k)
            # Small jitter around fixed axes: every seed gets its own
            # cells at about the same cost.
            self.inputs.append({
                "rates": [round(float(np.clip(r + rng.uniform(-0.02, 0.02),
                                              2.0, 5.0)), 4)
                          for r in rates],
                "strobe_fracs": [round(f + float(rng.uniform(-0.03, 0.03)),
                                       4) for f in strobe_fracs],
                "n_bits": n_bits,
                "seed": int(rng.integers(1, 256)),
            })
        self.references = None
        self.traced_partials = []
        self.replay_tester = MiniTester()
        self.handle = serve_in_thread(max_slots=1)
        try:
            self.client = self.handle.client(
                timeout_s=self.event_timeout_s)
            self.client.subscribe("job.*")
        except BaseException:
            self.handle.stop()
            raise

    def prepare(self):
        # The direct library call, as the job's result travels: through
        # the JSON wire form.
        self.references = [
            json.loads(json.dumps(minitester_strobe_rate_shmoo(
                MiniTester(), p["rates"], p["strobe_fracs"],
                n_bits=p["n_bits"], seed=p["seed"]).to_dict()))
            for p in self.inputs
        ]

    def _await_state(self, job_id: int, state: str) -> int:
        """Read events until *job_id* reaches *state*; returns the
        number of the job's partials seen on the way."""
        partials = 0
        state_topic = f"job.{job_id}.state"
        partial_topic = f"job.{job_id}.partial"
        while True:
            event = self.client.next_event(self.event_timeout_s)
            if event is None:
                raise TimeoutError(f"job {job_id}: no event within "
                                   f"{self.event_timeout_s} s")
            topic = event["event"]
            if topic == partial_topic:
                partials += 1
            elif topic == state_topic:
                got = event["data"]["state"]
                if got == state:
                    return partials
                if got in ("failed", "aborted"):
                    raise RuntimeError(f"job {job_id} {got}: "
                                       f"{event['data']}")

    def run(self, k, tr):
        with tr.span("service.submit"):
            job_id = self.client.submit(kind="shmoo",
                                        params=self.inputs[k])["job_id"]
        with tr.span("service.queue_wait"):
            partials = self._await_state(job_id, "running")
        with tr.span("service.run"):
            partials += self._await_state(job_id, "completed")
        with tr.span("service.result"):
            result = self.client.result(job_id=job_id)["result"]
        if tr.enabled:
            self.traced_partials.append(partials)
        return result, partials

    def check(self, k, out):
        result, partials = out
        fails = []
        if result != self.references[k]:
            fails.append("result differs from the direct "
                         "minitester_strobe_rate_shmoo call")
        if partials != self.cells:
            fails.append(f"{partials} partials for {self.cells} cells")
        return fails

    def digest(self, out):
        result, _ = out
        return np.array(result["passes"], dtype=bool).tobytes()

    def traced_extra(self, k, tr):
        """Replay the round's cells directly, one span per layer call,
        the way :func:`repro.host.shmoo.strobe_rate_test` runs them."""
        p = self.inputs[k]
        tester = self.replay_tester
        rx = tester.receiver
        n_bits, seed = p["n_bits"], p["seed"]
        factor = tester.serialization_factor()
        n_serial = int(np.ceil(n_bits / factor)) * factor

        def cell(rate, frac):
            ui = 1_000.0 / rate
            code = min(int(round(frac * ui / rx.sampler.resolution)),
                       rx.sampler.delay_line.n_codes - 1)
            with tr.span("core.prbs_waveform"):
                wf = tester.prbs_waveform(n_bits, seed=seed,
                                          rate_gbps=rate)
            with tr.span("channel.round_trip_apply"):
                path = tester.channel.round_trip()
                wf = path.apply(wf)
            with tr.span("pecl.receive_bits"):
                bits = rx.receive_bits(
                    wf, rate, n_bits, strobe_code=code,
                    t_first_bit=path.delay_ps,
                    rng=np.random.default_rng(seed + 7))
            with tr.span("core.expected_serial"):
                tester.dlc.host_write(0x0C, seed)  # LFSR_SEED
                tester.dlc.reset_lfsrs()
                expected = tester.dlc.lfsr().bits(n_serial)[:n_bits]
            with tr.span("pecl.compare"):
                ber = rx.compare(bits, expected[:len(bits)])
            return ber.n_errors == 0

        with tr.span("host.shmoo_glue"):
            replay = ShmooRunner(cell, x_name="rate (Gbps)",
                                 y_name="strobe (UI)").run(
                p["rates"], p["strobe_fracs"])
        if replay.passes.tolist() != self.references[k]["passes"]:
            return ["direct replay differs from the reference grid"]
        return []

    def counts(self):
        return {"service.partials":
                float(np.median(self.traced_partials))
                if self.traced_partials else 0.0}

    def close(self):
        try:
            self.client.close()
        finally:
            self.handle.stop()


class LinkTraffic(_Workload):
    """A coded-frame round trip (8b10b, scrambled) plus one hotspot
    load point on a 5 x 32 Data Vortex, drained."""

    name = "link_traffic"
    layers = ("coding.encode_frame_batch.s",
              "coding.decode_frame_batch.s", "vortex.submit.s",
              "vortex.step.s", "vortex.drain.s", "vortex.cycles",
              "vortex.deflections_per_packet",
              "vortex.vectorized_step_frac")

    def __init__(self, seed: int, n_frames: int = 8, n_bytes: int = 1024,
                 n_cycles: int = 300):
        self.seed, self.n_bytes, self.n_cycles = seed, n_bytes, n_cycles
        self.codec = LinkCodec(scramble=True)
        self.config = FabricConfig(n_angles=N_ANGLES, n_heights=N_HEIGHTS)
        self.pattern = HotspotTraffic()
        self.bits_per_round = n_frames * self.codec.frame_bits(n_bytes)
        self.payloads = [_rng(seed, 2, k).integers(
            0, 256, (n_frames, n_bytes), dtype=np.uint8)
            for k in range(self.pool)]
        self.offered = None

    def prepare(self):
        self.offered = [sum(map(len, self._traffic(k)))
                        for k in range(self.pool)]

    def _traffic(self, k):
        """Per cycle, the destinations offered to the injection angles
        of pool entry *k*, drawn as ``run_load_point`` draws them."""
        rng = _rng(self.seed, 3, k)
        for _ in range(self.n_cycles):
            yield [self.pattern.destination(rng, N_HEIGHTS)
                   for _ in range(N_ANGLES)
                   if rng.random() < OFFERED_LOAD]

    def _load_point(self, k, tr, registry=None):
        fab = DataVortexFabric(self.config, registry=registry)
        # The traffic generator runs between spans: it counts as glue.
        for offered in self._traffic(k):
            if offered:
                with tr.span("vortex.submit"):
                    for dest in offered:
                        fab.submit(dest)
            with tr.span("vortex.step"):
                fab.step()
        with tr.span("vortex.drain"):
            fab.drain(max_cycles=100_000)
        return fab

    def run(self, k, tr):
        with tr.span("coding.encode_frame_batch"):
            bits = self.codec.encode_frame_batch(self.payloads[k])
        with tr.span("coding.decode_frame_batch"):
            frames = self.codec.decode_frame_batch(bits,
                                                   n_bytes=self.n_bytes)
        fab = self._load_point(k, tr)
        return frames, fab

    def check(self, k, out):
        frames, fab = out
        payloads = self.payloads[k]
        fails = []
        if len(frames) != len(payloads):
            fails.append(f"{len(frames)} frames for {len(payloads)}")
        for i, (frame, payload) in enumerate(zip(frames, payloads)):
            if not frame.clean:
                fails.append(f"frame {i} not clean: {frame.stats}")
            if not np.array_equal(frame.payload, payload):
                fails.append(f"frame {i} payload differs")
        st = fab.stats
        offered = self.offered[k]
        if not st.submitted == st.injected == st.delivered == offered:
            fails.append(f"offered {offered}, submitted {st.submitted}, "
                         f"injected {st.injected}, delivered "
                         f"{st.delivered}")
        misrouted = sum(pkt.destination_height != h
                        for h, q in fab.output_queues.items()
                        for pkt in q)
        if misrouted:
            fails.append(f"{misrouted} packets in a wrong output queue")
        return fails

    def digest(self, out):
        frames, fab = out
        st = fab.stats
        journeys = np.array([(r.packet_id, r.latency_cycles, r.hops,
                              r.deflections, r.destination)
                             for r in st.records], dtype=np.int64)
        head = np.array([st.cycles, st.deflections, st.injection_blocks],
                        dtype=np.int64)
        return (b"".join(f.payload.tobytes() for f in frames)
                + head.tobytes() + journeys.tobytes())

    def counts(self):
        """Exact fabric counts over the pool, from the program's own
        ``vortex.*`` counters (an untimed pass with a registry)."""
        cycles, steps, vectorized, deflections, delivered = [], 0, 0, 0, 0
        for k in range(self.pool):
            reg = telemetry.Registry()
            fab = self._load_point(k, NULL_TRACER, registry=reg)
            c = reg.to_dict()["counters"]
            cycles.append(fab.cycle)
            steps += c.get("vortex.steps", 0)
            vectorized += c.get("vortex.vectorized_steps", 0)
            deflections += fab.stats.deflections
            delivered += fab.stats.delivered
        return {"vortex.cycles": float(np.median(cycles)),
                "vortex.deflections_per_packet": deflections / delivered,
                "vortex.vectorized_step_frac": vectorized / steps}


WORKLOADS = {w.name: w for w in (EyeBlock, ShmooService, LinkTraffic)}


def all_layers():
    """Every per-layer metric name, in report order."""
    names = []
    for w in WORKLOADS.values():
        names.extend(w.layers)
    return names + list(COMMON_LAYERS)
