"""End-to-end acceptance test for the test-floor master.

The whole stack at once: three concurrent RPC clients submit
shmoo/BER/eye jobs at different priorities onto a single-slot
master, the higher-priority submissions preempt (pause) the
running shmoo, everything completes, and every final result is
bit-identical to the direct library call with the same parameters.
Subscribers watch partial results grow monotonically before
completion, and an aborted job hands back its partials and frees
the slot.
"""

import time

import numpy as np
import pytest

from repro.service import serve_in_thread

# Small but non-trivial workloads: the shmoo is long enough
# (~0.3 s) that a preempting job reliably lands mid-sweep.
SHMOO_PARAMS = {"rates": [2.0, 2.6, 3.2, 3.8, 4.4, 5.0],
                "strobe_fracs": [0.08, 0.3, 0.5, 0.7],
                "n_bits": 150, "seed": 3}
BER_PARAMS = {"total_bits": 2000, "n_shards": 4, "seed": 1,
              "rate_gbps": 5.0}
EYE_PARAMS = {"n_bits": 800, "rate_gbps": 2.5, "seed": 2,
              "chunk_samples": 1024, "n_time_bins": 24,
              "n_volt_bins": 24}

TERMINAL = ("completed", "failed", "aborted")


def wait_terminal(cli, job_id, timeout_s=60.0):
    """Poll a job's status until it lands in a terminal state."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status = cli.status(job_id=job_id)
        if status["state"] in TERMINAL:
            return status
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never finished")


def events_until_terminal(cli, job_ids, timeout_s=30.0):
    """Every event received up to each job's terminal state event.

    A status poll can see a job finish before its final state event
    has reached the subscriber's socket, so read until it arrives.
    """
    deadline = time.monotonic() + timeout_s
    pending = {f"job.{j}.state" for j in job_ids}
    events = []
    while pending:
        event = cli.next_event(
            timeout_s=max(0.0, deadline - time.monotonic()))
        if event is None:
            raise AssertionError(
                f"no terminal state event on {sorted(pending)}")
        events.append(event)
        if event["event"] in pending \
                and event["data"]["state"] in TERMINAL:
            pending.discard(event["event"])
    return events + cli.drain_events()


def direct_shmoo():
    from repro.core.minitester import MiniTester
    from repro.host.shmoo import minitester_strobe_rate_shmoo

    p = SHMOO_PARAMS
    return minitester_strobe_rate_shmoo(
        MiniTester(), p["rates"], p["strobe_fracs"],
        n_bits=p["n_bits"], seed=p["seed"]).to_dict()


def direct_ber():
    from repro._rng import spawn_seeds
    from repro.core.minitester import MiniTester
    from repro.parallel import ShardPlan

    p = BER_PARAMS
    tester = MiniTester()
    plan = ShardPlan.for_range(p["total_bits"], p["n_shards"])
    ranges = [s.items[0] for s in plan.shards]
    pairs = []
    for (_s, count), seed in zip(
            ranges, spawn_seeds(len(ranges), root=p["seed"])):
        ber = tester.run_loopback(n_bits=int(count), seed=int(seed),
                                  rate_gbps=p["rate_gbps"]).ber
        pairs.append((ber.n_bits, ber.n_errors))
    return {"total_bits": sum(b for b, _ in pairs),
            "total_errors": sum(e for _, e in pairs),
            "shard_errors": [e for _, e in pairs]}


def direct_eye():
    from repro.eye import EyeAccumulator
    from repro.signal.nrz import bits_to_waveform
    from repro.signal.prbs import prbs_bits

    p = EYE_PARAMS
    wf = bits_to_waveform(prbs_bits(7, p["n_bits"]),
                          p["rate_gbps"], v_low=-0.4, v_high=0.4,
                          t20_80=72.0,
                          rng=np.random.default_rng(p["seed"]))
    acc = EyeAccumulator(p["rate_gbps"], (-0.45, 0.45), 0.0,
                         n_time_bins=p["n_time_bins"],
                         n_volt_bins=p["n_volt_bins"])
    acc.update(wf)  # one shot; chunking never changes the fold
    return acc.snapshot()


class TestMultiTenantFloor:
    def test_three_clients_preemption_and_bit_identical(self):
        with serve_in_thread(max_slots=1) as handle:
            cli_a = handle.client(timeout_s=60)
            cli_b = handle.client(timeout_s=60)
            cli_c = handle.client(timeout_s=60)
            try:
                watcher = cli_b  # also watches the event stream
                watcher.subscribe("job.*")

                # A: low-priority shmoo grabs the only slot.
                shmoo = cli_a.submit(kind="shmoo",
                                     params=SHMOO_PARAMS,
                                     priority=0)
                # Give it time to actually start sweeping.
                time.sleep(0.15)
                # B: high-priority BER preempts; C: mid-priority eye
                # queues behind it but ahead of the shmoo's resume.
                ber = cli_b.submit(kind="ber", params=BER_PARAMS,
                                   priority=5)
                eye = cli_c.submit(kind="eye", params=EYE_PARAMS,
                                   priority=2)

                ber_final = wait_terminal(cli_b, ber["job_id"])
                eye_final = wait_terminal(cli_c, eye["job_id"])
                shmoo_final = wait_terminal(cli_a, shmoo["job_id"])
                assert ber_final["state"] == "completed"
                assert eye_final["state"] == "completed"
                assert shmoo_final["state"] == "completed"

                # -- preemption was real: the shmoo paused and the
                # whole lifecycle streamed to the subscriber.
                events = events_until_terminal(
                    watcher, [shmoo["job_id"], ber["job_id"],
                              eye["job_id"]])
                shmoo_states = [
                    e["data"]["state"] for e in events
                    if e["event"] ==
                    f"job.{shmoo['job_id']}.state"]
                assert "pausing" in shmoo_states
                assert "paused" in shmoo_states
                assert shmoo_states[-1] == "completed"
                # It came back: running again after paused.
                assert "running" in shmoo_states[
                    shmoo_states.index("paused"):]

                # -- partials grew monotonically before completion.
                cells = [e["data"]["cells_done"] for e in events
                         if e["event"] ==
                         f"job.{shmoo['job_id']}.partial"]
                total = (len(SHMOO_PARAMS["rates"])
                         * len(SHMOO_PARAMS["strobe_fracs"]))
                assert cells == sorted(cells)
                assert len(cells) == total == cells[-1]
                ber_bits = [e["data"]["bits"] for e in events
                            if e["event"] ==
                            f"job.{ber['job_id']}.partial"]
                assert ber_bits == sorted(ber_bits)
                assert ber_bits[-1] == BER_PARAMS["total_bits"]
                eye_samples = [
                    e["data"]["n_samples"] for e in events
                    if e["event"] ==
                    f"job.{eye['job_id']}.partial"]
                assert eye_samples == sorted(eye_samples)
                assert len(eye_samples) >= 2

                # -- every result is bit-identical to the direct
                # library call, preemption and all.
                got_shmoo = cli_a.result(
                    job_id=shmoo["job_id"])["result"]
                want_shmoo = direct_shmoo()
                assert got_shmoo["passes"] == want_shmoo["passes"]
                assert got_shmoo["evaluated"] == \
                    want_shmoo["evaluated"]
                assert got_shmoo["complete"]

                got_ber = cli_b.result(job_id=ber["job_id"])["result"]
                want_ber = direct_ber()
                assert got_ber["total_bits"] == \
                    want_ber["total_bits"]
                assert got_ber["total_errors"] == \
                    want_ber["total_errors"]
                assert got_ber["shard_errors"] == \
                    want_ber["shard_errors"]

                got_eye = cli_c.result(job_id=eye["job_id"])["result"]
                want_eye = direct_eye()
                assert got_eye["grid"] == want_eye["grid"]
                assert got_eye["phase_hist"] == \
                    want_eye["phase_hist"]
                assert got_eye["n_samples"] == \
                    want_eye["n_samples"]
                assert got_eye["n_crossings"] == \
                    want_eye["n_crossings"]
            finally:
                cli_a.close()
                cli_b.close()
                cli_c.close()

    def test_abort_returns_partials_and_frees_slot(self):
        with serve_in_thread(max_slots=1) as handle:
            with handle.client(timeout_s=60) as cli:
                cli.subscribe("job.*")
                big = dict(SHMOO_PARAMS)
                big["rates"] = [2.0 + 0.15 * i for i in range(20)]
                job = cli.submit(kind="shmoo", params=big)
                jid = job["job_id"]
                # Wait for real progress, then pull the plug.
                deadline = time.monotonic() + 30
                partial_seen = None
                while time.monotonic() < deadline:
                    event = cli.next_event(timeout_s=5)
                    if event and event["event"] == \
                            f"job.{jid}.partial" and \
                            event["data"]["cells_done"] >= 3:
                        partial_seen = event["data"]
                        break
                assert partial_seen is not None
                cli.abort(job_id=jid, reason="operator stop")
                final = wait_terminal(cli, jid)
                assert final["state"] == "aborted"
                assert final["abort_reason"] == "operator stop"
                # Partial grid came back: some cells evaluated,
                # marked incomplete.
                res = cli.result(job_id=jid)
                partial = res["partial"]
                assert partial is not None
                assert not partial["complete"]
                evaluated = int(np.array(
                    partial["evaluated"]).sum())
                assert 0 < evaluated < len(big["rates"]) * len(
                    big["strobe_fracs"])
                # The slot is free: the next job runs to completion.
                after = cli.submit(kind="ber",
                                   params={"total_bits": 400,
                                           "n_shards": 2})
                assert wait_terminal(
                    cli, after["job_id"])["state"] == "completed"

    def test_telemetry_over_rpc(self):
        from repro import telemetry as tel_mod

        registry = tel_mod.Registry()
        with serve_in_thread(max_slots=1,
                             registry=registry) as handle:
            with handle.client(timeout_s=60) as cli:
                cli.subscribe("job.*")
                job = cli.submit(kind="ber",
                                 params={"total_bits": 400,
                                         "n_shards": 2})
                wait_terminal(cli, job["job_id"])
                snap = cli.telemetry()
                assert snap["counters"][
                    "service.jobs_submitted"] == 1
                assert snap["counters"][
                    "service.jobs_completed"] == 1
                assert snap["counters"][
                    "service.events_published"] >= 4
                assert snap["counters"]["service.rpc_requests"] >= 3
                assert "service.jobs_running" in snap["gauges"]
