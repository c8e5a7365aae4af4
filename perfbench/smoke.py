#!/usr/bin/env python3
"""The benchmark's own smoke check, at a tiny size.

From the root of a checkout::

    python3 perfbench/smoke.py

For each workload it runs the closed loop of ``run.py`` briefly,
untraced and traced, and requires every round to pass and the traced
ledger to close. Then it corrupts one output at a time (a flipped
payload byte, a flipped shmoo cell, an emptied density grid, ...) and
requires the loop to count the corrupted rounds as failed, so every
check is known to catch what it is meant to catch. Corruptions that
only the output digest can see start after the first visit of each
input, whose digest the later rounds must repeat. Last, it checks that
``BENCHMARK.json`` declares exactly the metrics ``run.py`` reports.
Exits 1 on any problem.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run

#: Workload sizes small enough for a quick check.
TINY = {
    "eye_block": dict(n_channels=4, n_bits=96),
    "shmoo_service": dict(rates=(2.5, 5.0), strobe_fracs=(0.5,),
                          n_bits=64),
    "link_traffic": dict(n_frames=2, n_bytes=64, n_cycles=40),
}
SECONDS = 0.5


class Corrupted:
    """A workload whose outputs are corrupted after its first *after*
    rounds."""

    def __init__(self, wl, corrupt, after: int):
        self.wl, self.corrupt, self.after = wl, corrupt, after
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.wl, name)

    def run(self, k, tr):
        out = self.wl.run(k, tr)
        self.calls += 1
        return self.corrupt(out) if self.calls > self.after else out


def _eye_empty_grid(out):
    out[1].grid[...] = 0
    return out


def _eye_thin(out):
    eye = out[0][0]
    eye.crossing_phases = eye.crossing_phases[:3]
    return out


def _eye_bin(out):
    out[1].grid.flat[0] += 1
    return out


def _shmoo_flip(out):
    result, partials = out
    passes = [list(row) for row in result["passes"]]
    passes[0][0] = not passes[0][0]
    return dict(result, passes=passes), partials


def _shmoo_lost_partial(out):
    return out[0], out[1] - 1


def _link_payload(out):
    out[0][0].payload[0] ^= 0x01
    return out


def _link_misroute(out):
    queues = out[1].output_queues
    src = next(h for h, q in queues.items() if q)
    queues[(src + 1) % len(queues)].append(queues[src].pop())
    return out


def _link_lost(out):
    out[1].stats.records.pop()
    return out


def _link_latency(out):
    records = out[1].stats.records
    records[0] = dataclasses.replace(
        records[0], latency_cycles=records[0].latency_cycles + 1)
    return out


#: (label, corruption, clean rounds before it starts: 0 = at once,
#: None = after every input's first visit, for the digest).
CORRUPTIONS = {
    "eye_block": [("accumulator grid emptied", _eye_empty_grid, 0),
                  ("one eye down to 3 crossings", _eye_thin, 0),
                  ("one density bin off by one", _eye_bin, None)],
    "shmoo_service": [("one shmoo cell flipped", _shmoo_flip, 0),
                      ("one partial lost", _shmoo_lost_partial, 0)],
    "link_traffic": [("one payload byte flipped", _link_payload, 0),
                     ("one packet in a wrong output queue",
                      _link_misroute, 0),
                     ("one delivery lost", _link_lost, 0),
                     ("one latency off by one", _link_latency, None)],
}


def check_declared(problems: list) -> None:
    from workloads import all_layers

    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    reported = dict(run.END_TO_END)
    if declared != reported:
        problems.append(f"end_to_end: BENCHMARK.json {declared} vs "
                        f"run.py {reported}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    reported = {n: run.unit_of(n) for n in all_layers()}
    if declared != reported:
        problems.append(f"per_layer: BENCHMARK.json {declared} vs "
                        f"run.py {reported}")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(TINY):
        problems.append("workloads differ from BENCHMARK.json")


def check_workload(name: str, problems: list) -> None:
    from spans import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed=7, **TINY[name])
    try:
        wl.prepare()
        res = run.measure(wl, SECONDS)
        if res["failures"]:
            problems.append(f"{name}: clean run failed: "
                            f"{res['failures'][:2]}")
        tracer = Tracer()
        traced = run.measure(wl, SECONDS, tracer)
        if traced["failures"]:
            problems.append(f"{name}: traced run failed: "
                            f"{traced['failures'][:2]}")
        if traced["digest"] != res["digest"]:
            problems.append(f"{name}: traced digest differs")
        if tracer.closure_error() > 1e-9:
            problems.append(f"{name}: ledger does not close")
        layers = run.per_layer(wl, traced, tracer)
        missing = [n for n in wl.layers if n.endswith(".s")
                   and not layers[n] > 0]
        if missing:
            problems.append(f"{name}: no time in {missing}")
        for label, corrupt, after in CORRUPTIONS[name]:
            clean = wl.pool if after is None else after
            res = run.measure(Corrupted(wl, corrupt, clean), SECONDS)
            expected = res["attempted"] - clean
            caught = len(res["failures"])
            status = "caught" if caught == expected > 0 else "MISSED"
            print(f"{name:14s} {label:36s} {caught}/{expected} {status}")
            if status != "caught":
                problems.append(f"{name}: corruption '{label}' counted "
                                f"{caught} of {expected} rounds failed")
    finally:
        wl.close()


def main() -> int:
    run.pin_environment()
    problems: list = []
    check_declared(problems)
    for name in TINY:
        check_workload(name, problems)
    for p in problems:
        print(f"PROBLEM {p}")
    print("smoke ok" if not problems else "smoke FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
