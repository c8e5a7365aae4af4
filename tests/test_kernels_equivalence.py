"""Golden-equivalence suite for the vectorized hot-path kernels.

Each vectorized kernel is validated against a scalar reference that
reproduces the pre-vectorization implementation:

- NRZ rendering: ``_reference_render_nrz`` (the per-edge window loop
  with full-tail accumulation) versus ``_kernels.render_nrz``, within
  ``NRZ_EQUIVALENCE_ATOL`` of the swing (bit-exact at zero rise time).
- PRBS generation: ``prbs_bits_scalar`` (the bit-at-a-time Fibonacci
  LFSR, kept public as the golden reference) versus the blockwise
  GF(2) kernel — bit-exact, property-tested across orders, seeds,
  lengths, and block sizes, and composed with the
  ``advance_state`` / ``prbs_shard_states`` tiling contract.
- Vortex fabric stepping: ``_ReferenceFabric`` (the dict-of-nodes
  scan) versus both the scalar and the vectorized SoA paths —
  identical decisions, deliveries, ordering, and statistics.
- Bathtub curves: per-point ``math.erfc`` evaluation versus the
  vectorized curve (``BATHTUB_EQUIVALENCE_RTOL`` with the documented
  denormal floor); the empirical bathtub is bit-exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eye.bathtub import (
    BATHTUB_EQUIVALENCE_ATOL,
    BATHTUB_EQUIVALENCE_RTOL,
    _q_tail,
    bathtub_curve,
    empirical_bathtub,
)
from repro.signal import _kernels
from repro.signal.edges import EdgeShape, edge_profile
from repro.signal.jitter import JitterBudget
from repro.signal.nrz import NRZEncoder
from repro.signal.prbs import (
    PRBS_POLYNOMIALS,
    advance_state,
    prbs_bits,
    prbs_bits_scalar,
    prbs_shard_states,
)
from repro.vortex.fabric import DataVortexFabric, FabricConfig
from repro.vortex.node import RoutingDecision, RoutingNode
from repro.vortex.routing import at_destination, wants_descent
from repro.vortex.stats import FabricStats
from repro.vortex.topology import NodeAddress, VortexTopology
from tests import _kernel_reference


@pytest.fixture(scope="module", autouse=True, params=["numpy", "fused"])
def _batched_kernels(request):
    """Run the whole golden suite twice: ``fused`` on the shipping
    batched kernels, ``numpy`` with the reference kernels of
    ``tests/_kernel_reference.py`` swapped in. Every scalar-reference
    check must hold for both, which keeps the oracle the kernel
    pins compare against honest too. Module-scoped so hypothesis
    ``@given`` tests can share it."""
    if request.param == "numpy":
        with _kernel_reference.reference_kernels():
            yield request.param
    else:
        yield request.param


# ---------------------------------------------------------------------------
# Reference implementations (the pre-vectorization kernels)
# ---------------------------------------------------------------------------


def _reference_render_nrz(n, t_start, dt, base, swing, times,
                          directions, t20_80, shape):
    """The original per-edge rendering loop: windowed profile plus
    full-tail step accumulation (quadratic in the edge count)."""
    t = t_start + dt * np.arange(n)
    v = np.full(n, base, dtype=np.float64)
    window = max(4.0 * t20_80, 4.0 * dt)
    for t_edge, direction in zip(times, directions):
        i0 = max(0, int((t_edge - window - t_start) / dt))
        i1 = min(n, int((t_edge + window - t_start) / dt) + 2)
        local = edge_profile(t[i0:i1] - t_edge, t20_80, shape)
        v[i0:i1] += direction * swing * local
        v[i1:] += direction * swing
    return v


class _ReferenceFabric:
    """The pre-SoA fabric step: a dict-of-``RoutingNode`` scan.

    Reproduces the original routing semantics exactly — release all
    nodes inner-cylinder-first (ascending address within a cylinder),
    claim targets through a ``new_occupancy`` dict, inject round-robin
    by angle — so journeys, ordering, and statistics are the golden
    reference for both SoA stepping paths.
    """

    def __init__(self, config):
        from collections import deque

        from repro.vortex.packet import VortexPacket

        self._VortexPacket = VortexPacket
        self.topology = VortexTopology(config.n_angles, config.n_heights)
        self.nodes = {
            addr: RoutingNode(addr) for addr in self.topology.nodes()
        }
        self.cycle = 0
        self.injection_queue = deque()
        self.output_queues = {h: [] for h in range(config.n_heights)}
        self.stats = FabricStats()
        self._next_packet_id = 0
        self._inject_angle = 0

    def submit(self, destination_height, payload=None):
        packet = self._VortexPacket(
            packet_id=self._next_packet_id,
            destination_height=destination_height,
            payload=payload,
            injected_cycle=self.cycle,
        )
        self._next_packet_id += 1
        self.injection_queue.append(packet)
        self.stats.submitted += 1
        return packet

    def step(self):
        topo = self.topology
        decisions = {}
        new_occupancy = {}
        for c in range(topo.n_cylinders - 1, -1, -1):
            for addr, node in self.nodes.items():
                if addr.cylinder != c or not node.occupied:
                    continue
                packet = node.release()
                packet.hops += 1
                if at_destination(topo, addr, packet.destination_height):
                    self.output_queues[addr.height].append(packet)
                    self.stats.record_delivery(packet, self.cycle + 1)
                    decisions[packet.packet_id] = RoutingDecision.EJECT
                    continue
                if wants_descent(topo, addr, packet.destination_height):
                    target = topo.descend_next(addr)
                    if (target not in new_occupancy
                            and not self.nodes[target].occupied):
                        new_occupancy[target] = packet
                        decisions[packet.packet_id] = \
                            RoutingDecision.DESCEND
                        continue
                    packet.deflections += 1
                    self.stats.deflections += 1
                    decisions[packet.packet_id] = RoutingDecision.DEFLECT
                else:
                    decisions[packet.packet_id] = RoutingDecision.CIRCLE
                target = topo.same_cylinder_next(addr)
                new_occupancy[target] = packet
        self._inject(new_occupancy)
        for addr, packet in new_occupancy.items():
            self.nodes[addr].accept(packet)
        self.cycle += 1
        self.stats.cycles = self.cycle
        return decisions

    def _inject(self, new_occupancy):
        if not self.injection_queue:
            return
        a0 = self._inject_angle
        for k in range(self.topology.n_angles):
            if not self.injection_queue:
                break
            angle = (a0 + k) % self.topology.n_angles
            for height in range(self.topology.n_heights):
                if not self.injection_queue:
                    break
                addr = NodeAddress(0, angle, height)
                if addr in new_occupancy or self.nodes[addr].occupied:
                    continue
                packet = self.injection_queue.popleft()
                packet.injected_cycle = self.cycle
                new_occupancy[addr] = packet
                self.stats.injected += 1
        self.stats.injection_blocks += len(self.injection_queue)
        self._inject_angle = (a0 + 1) % self.topology.n_angles


def _reference_bathtub(budget, unit_interval, n_points=101,
                       transition_density=0.5):
    """The original per-point ``math.erfc`` bathtub loop."""
    dj_half = (budget.dj_pp + budget.dcd_pp + budget.pj_pp) / 2.0
    sigma = budget.rj_rms
    x = np.linspace(0.0, 1.0, n_points) * unit_interval
    ber = np.empty(n_points, dtype=np.float64)
    for i, xi in enumerate(x):
        left = 0.5 * (_q_tail(xi - dj_half, sigma)
                      + _q_tail(xi + dj_half, sigma))
        right = 0.5 * (_q_tail(unit_interval - xi - dj_half, sigma)
                       + _q_tail(unit_interval - xi + dj_half, sigma))
        ber[i] = transition_density * (left + right)
    return x / unit_interval, ber


def _reference_empirical_bathtub(dev, unit_interval, n_points=101):
    """The original per-strobe counting loop."""
    x = np.linspace(0.0, 1.0, n_points) * unit_interval
    n = float(len(dev))
    ber = np.empty(n_points, dtype=np.float64)
    for i, xi in enumerate(x):
        errs = (np.count_nonzero(dev > xi)
                + np.count_nonzero(dev + unit_interval < xi))
        ber[i] = errs / (2.0 * n)
    return x / unit_interval, ber


# ---------------------------------------------------------------------------
# NRZ rendering
# ---------------------------------------------------------------------------


class TestNRZRenderEquivalence:
    @pytest.mark.parametrize("shape", list(EdgeShape))
    @pytest.mark.parametrize("t20_80", [0.0, 1.0, 30.0, 72.0, 120.0])
    def test_matches_reference_loop(self, shape, t20_80):
        rng = np.random.default_rng(12)
        enc = NRZEncoder(2.5, v_low=-0.4, v_high=0.4,
                         t20_80=t20_80, shape=shape)
        bits = rng.integers(0, 2, 400)
        bits[0] = 1
        times, directions, _ = enc.edge_times_and_directions(bits)
        times = times + rng.normal(0.0, 3.0, len(times))
        ui = enc.unit_interval
        n = int(round((len(bits) * ui + 2 * ui) / enc.dt)) + 1
        swing = enc.v_high - enc.v_low
        base = enc.v_low + swing * float(bits[0])
        ref = _reference_render_nrz(n, -ui, enc.dt, base, swing,
                                    times, directions, t20_80, shape)
        got = _kernels.render_nrz(n, -ui, enc.dt, base, swing,
                                  times, directions, t20_80, shape)
        err = np.max(np.abs(got - ref)) / swing
        assert err <= _kernels.NRZ_EQUIVALENCE_ATOL
        if t20_80 == 0.0:
            assert np.array_equal(got, ref)

    def test_encode_end_to_end_with_jitter(self):
        """Full encode path (edges + jitter model) stays within the
        documented tolerance of the reference loop."""
        budget = JitterBudget(rj_rms=3.2, dj_pp=23.0).build()
        enc = NRZEncoder(2.5, v_low=-0.4, v_high=0.4, t20_80=72.0)
        bits = prbs_bits(7, 300)
        wf = enc.encode(bits, jitter=budget,
                        rng=np.random.default_rng(1))
        times, directions, history = enc.edge_times_and_directions(bits)
        times = times + budget.offsets(times, directions, history,
                                       np.random.default_rng(1))
        swing = enc.v_high - enc.v_low
        ref = _reference_render_nrz(
            len(wf), wf.t0, enc.dt,
            enc.v_low + swing * float(bits[0]), swing,
            times, directions, enc.t20_80, enc.shape)
        assert np.max(np.abs(wf.values - ref)) / swing \
            <= _kernels.NRZ_EQUIVALENCE_ATOL

    def test_no_edges_is_flat(self):
        got = _kernels.render_nrz(
            50, 0.0, 1.0, base=0.3, swing=0.8,
            times=np.empty(0), directions=np.empty(0),
            t20_80=50.0, shape=EdgeShape.ERF)
        assert np.array_equal(got, np.full(50, 0.3))

    def test_edges_outside_record_only_contribute_steps(self):
        """An edge past the last sample influences nothing; one far
        before the first sample shifts the whole record by its step."""
        ref_args = dict(n=100, t_start=0.0, dt=1.0, base=0.0,
                        swing=1.0, t20_80=5.0, shape=EdgeShape.ERF)
        early = _kernels.render_nrz(
            times=np.array([-500.0]), directions=np.array([1.0]),
            **ref_args)
        assert np.allclose(early, 1.0)
        late = _kernels.render_nrz(
            times=np.array([5000.0]), directions=np.array([1.0]),
            **ref_args)
        assert np.allclose(late, 0.0)


class TestTemplateCache:
    def setup_method(self):
        _kernels.clear_template_cache()

    def test_hit_miss_counters(self):
        from repro import telemetry

        reg = telemetry.Registry()
        _kernels.edge_template(EdgeShape.ERF, 70.0, 1.0, tel=reg)
        _kernels.edge_template(EdgeShape.ERF, 70.0, 1.0, tel=reg)
        _kernels.edge_template(EdgeShape.EXPONENTIAL, 70.0, 1.0,
                               tel=reg)
        counters = reg.to_dict()["counters"]
        assert counters["nrz.template_cache.misses"] == 2
        assert counters["nrz.template_cache.hits"] == 1

    def test_cache_is_lru_bounded(self):
        for i in range(_kernels._TEMPLATE_CACHE_MAX + 10):
            _kernels.edge_template(EdgeShape.ERF, 10.0 + i, 1.0)
        assert _kernels.template_cache_size() \
            == _kernels._TEMPLATE_CACHE_MAX

    def test_template_reused_across_encodes(self):
        from repro import telemetry

        reg = telemetry.Registry()
        enc = NRZEncoder(2.5, t20_80=70.0, registry=reg)
        enc.encode([0, 1, 0, 1])
        enc.encode([1, 0, 1, 0])
        counters = reg.to_dict()["counters"]
        assert counters["nrz.template_cache.misses"] == 1
        assert counters["nrz.template_cache.hits"] == 1


# ---------------------------------------------------------------------------
# PRBS
# ---------------------------------------------------------------------------


class TestPRBSEquivalence:
    @pytest.mark.parametrize("order", sorted(PRBS_POLYNOMIALS))
    def test_blockwise_matches_scalar(self, order):
        for seed in (1, 5, (1 << order) - 1):
            for length in (0, 1, 7, 300, 9000):
                assert np.array_equal(
                    prbs_bits(order, length, seed),
                    prbs_bits_scalar(order, length, seed))

    @given(
        order=st.sampled_from(sorted(PRBS_POLYNOMIALS)),
        length=st.integers(0, 600),
        seed_frac=st.integers(1, 10_000),
        block=st.integers(1, 257),
    )
    @settings(max_examples=60, deadline=None)
    def test_blockwise_property(self, order, length, seed_frac, block):
        """Bit-exact for arbitrary (order, seed, length, block)."""
        seed = 1 + seed_frac % ((1 << order) - 1)
        tap_a, tap_b = PRBS_POLYNOMIALS[order]
        got = _kernels.prbs_blockwise(order, length, seed,
                                      tap_a, tap_b, block=block)
        assert np.array_equal(got,
                              prbs_bits_scalar(order, length, seed))

    def test_shard_tiling_contract(self):
        """Concatenated shard outputs reproduce the serial stream."""
        lengths = [0, 17, 4096, 501, 9000]
        states = prbs_shard_states(23, 1, lengths)
        parts = [prbs_bits(23, ln, seed=s)
                 for ln, s in zip(lengths, states)]
        serial = prbs_bits(23, sum(lengths), seed=1)
        assert np.array_equal(np.concatenate(parts), serial)

    def test_advance_state_composes_with_blockwise(self):
        mid = advance_state(15, 77, 6000)
        tail = prbs_bits(15, 2500, seed=mid)
        serial = prbs_bits(15, 8500, seed=77)
        assert np.array_equal(tail, serial[6000:])


# ---------------------------------------------------------------------------
# Vortex fabric
# ---------------------------------------------------------------------------


def _drive(fab, seed, n_cycles, n_heights, submit_prob):
    """Drive *fab* with a deterministic workload; return the journal."""
    rng = np.random.default_rng(seed)
    journal = []
    for _ in range(12):
        fab.submit(int(rng.integers(0, n_heights)))
    for _ in range(n_cycles):
        decisions = fab.step()
        journal.append(sorted((pid, d.name)
                              for pid, d in decisions.items()))
        if rng.random() < submit_prob:
            fab.submit(int(rng.integers(0, n_heights)))
    deliveries = {
        h: [(p.packet_id, p.hops, p.deflections, p.injected_cycle)
            for p in q]
        for h, q in fab.output_queues.items()
    }
    return journal, deliveries, vars(fab.stats)


class TestFabricEquivalence:
    @pytest.mark.parametrize("n_angles,n_heights",
                             [(3, 4), (5, 8), (3, 16)])
    @pytest.mark.parametrize("threshold,label", [
        (10**9, "scalar"), (0, "vectorized"), (24, "adaptive"),
    ])
    def test_matches_reference_fabric(self, n_angles, n_heights,
                                      threshold, label):
        config = FabricConfig(n_angles=n_angles, n_heights=n_heights)
        for seed in (3, 41):
            ref = _ReferenceFabric(config)
            got = DataVortexFabric(config)
            got.vector_threshold = threshold
            ref_out = _drive(ref, seed, 120, n_heights, 0.7)
            got_out = _drive(got, seed, 120, n_heights, 0.7)
            assert got_out[0] == ref_out[0], \
                f"{label}: decision journal diverged (seed {seed})"
            assert got_out[1] == ref_out[1], \
                f"{label}: deliveries diverged (seed {seed})"
            assert got_out[2] == ref_out[2], \
                f"{label}: stats diverged (seed {seed})"

    def test_scalar_and_vectorized_paths_identical(self):
        config = FabricConfig(n_angles=5, n_heights=8)
        for seed in (7, 11, 99):
            a = DataVortexFabric(config)
            a.vector_threshold = 10**9
            b = DataVortexFabric(config)
            b.vector_threshold = 0
            assert _drive(a, seed, 200, 8, 0.8) \
                == _drive(b, seed, 200, 8, 0.8)

    def test_node_view_round_trip(self):
        """The live nodes view reads and writes SoA state."""
        fab = DataVortexFabric(FabricConfig(n_angles=3, n_heights=4))
        pkt = fab.submit(2)
        fab.step()
        occupied = [(addr, node) for addr, node in fab.nodes.items()
                    if node.occupied]
        assert len(occupied) == 1
        addr, node = occupied[0]
        assert addr.cylinder == 0
        assert node.packet is pkt
        released = node.release()
        assert released is pkt
        assert fab.packets_in_flight == 0
        node.accept(pkt)
        assert fab.packets_in_flight == 1
        assert fab.nodes[addr].packet.hops == pkt.hops


# ---------------------------------------------------------------------------
# Bathtub
# ---------------------------------------------------------------------------


class TestBathtubEquivalence:
    @pytest.mark.parametrize("budget", [
        JitterBudget(rj_rms=3.0, dj_pp=20.0),
        JitterBudget(rj_rms=0.0, dj_pp=50.0),
        JitterBudget(rj_rms=7.5),
        JitterBudget(rj_rms=2.0, dj_pp=10.0, dcd_pp=4.0, pj_pp=6.0),
    ])
    def test_analytic_matches_reference(self, budget):
        x_ref, ber_ref = _reference_bathtub(budget, 400.0,
                                            n_points=501)
        x_got, ber_got = bathtub_curve(budget, 400.0, n_points=501)
        assert np.array_equal(x_got, x_ref)
        assert np.allclose(ber_got, ber_ref,
                           rtol=BATHTUB_EQUIVALENCE_RTOL,
                           atol=BATHTUB_EQUIVALENCE_ATOL)

    def test_empirical_bit_exact(self):
        rng = np.random.default_rng(5)
        for dev in (rng.normal(0.0, 8.0, 5000),
                    rng.uniform(-30.0, 30.0, 777),
                    np.zeros(3)):
            x_ref, ber_ref = _reference_empirical_bathtub(dev, 400.0)
            x_got, ber_got = empirical_bathtub(dev, 400.0)
            assert np.array_equal(x_got, x_ref)
            assert np.array_equal(ber_got, ber_ref)

    @given(st.lists(st.floats(-100.0, 100.0), min_size=1,
                    max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_empirical_property(self, devs):
        dev = np.array(devs)
        _, ber_ref = _reference_empirical_bathtub(dev, 250.0,
                                                  n_points=41)
        _, ber_got = empirical_bathtub(dev, 250.0, n_points=41)
        assert np.array_equal(ber_got, ber_ref)


# ---------------------------------------------------------------------------
# Kernel telemetry
# ---------------------------------------------------------------------------


class TestKernelTelemetry:
    def test_vectorized_steps_counter(self):
        from repro import telemetry

        reg = telemetry.Registry()
        fab = DataVortexFabric(FabricConfig(n_angles=3, n_heights=4),
                               registry=reg)
        fab.vector_threshold = 0  # force the vectorized path
        fab.submit(1)
        fab.step()
        fab.step()
        counters = reg.to_dict()["counters"]
        assert counters["vortex.vectorized_steps"] == 2
        assert counters["vortex.steps"] == 2

    def test_scalar_steps_not_counted_as_vectorized(self):
        from repro import telemetry

        reg = telemetry.Registry()
        fab = DataVortexFabric(FabricConfig(n_angles=3, n_heights=4),
                               registry=reg)
        fab.vector_threshold = 10**9
        fab.submit(1)
        fab.step()
        counters = reg.to_dict()["counters"]
        assert "vortex.vectorized_steps" not in counters
        assert counters["vortex.steps"] == 1

    def test_null_registry_path_is_allocation_free(self):
        """Disabled telemetry returns shared no-op singletons — the
        hot kernels never allocate instruments per call."""
        import tracemalloc

        from repro import telemetry
        from repro.telemetry.instruments import NULL_COUNTER

        null = telemetry.NULL_REGISTRY
        # Every lookup is the same shared object, not a fresh one.
        assert null.counter("nrz.template_cache.hits") is NULL_COUNTER
        assert null.counter("vortex.vectorized_steps") is NULL_COUNTER
        _kernels.clear_template_cache()
        _kernels.edge_template(EdgeShape.ERF, 70.0, 1.0, tel=null)
        tracemalloc.start()
        for _ in range(50):
            tmpl = _kernels.edge_template(EdgeShape.ERF, 70.0, 1.0,
                                          tel=null)
            null.counter("nrz.template_cache.hits").inc()
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        tel_allocs = [
            s for s in snapshot.statistics("filename")
            if "telemetry" in s.traceback[0].filename
        ]
        assert tel_allocs == []
        assert tmpl is not None

    def test_null_registry_leaves_no_metrics_behind(self):
        from repro import telemetry

        telemetry.disable()
        before = telemetry.get_registry().names()
        fab = DataVortexFabric(FabricConfig(n_angles=3, n_heights=4))
        fab.submit(2)
        fab.run(10)
        enc = NRZEncoder(2.5, t20_80=70.0)
        enc.encode([0, 1, 0, 1])
        assert telemetry.get_registry().names() == before


# ---------------------------------------------------------------------------
# Regression pins
# ---------------------------------------------------------------------------


class TestEdgeTimesDtypes:
    def test_empty_returns_pinned_dtypes(self):
        enc = NRZEncoder(2.5)
        for bits in ([], [1], [0]):
            times, directions, history = \
                enc.edge_times_and_directions(np.array(bits))
            assert times.dtype == np.float64
            assert directions.dtype == np.float64
            assert history.dtype == np.int64
            assert len(times) == len(directions) == len(history) == 0

    def test_nonempty_dtypes_match_empty(self):
        enc = NRZEncoder(2.5)
        times, directions, history = \
            enc.edge_times_and_directions(np.array([0, 1, 1, 0]))
        assert times.dtype == np.float64
        assert directions.dtype == np.float64
        assert history.dtype == np.int64
