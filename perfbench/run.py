#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload eye_block --seed 1 \\
        --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` alternates untraced and traced rounds on the same inputs
and reports the per-layer ledger from the traced ones (see
``perfbench/README.md`` for every metric and the layer map). Each
round's output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Settings that would change the program being measured.
UNSET_ENV = ("REPRO_KERNEL_BACKEND", "REPRO_KERNEL_THREADS",
             "REPRO_POOL_SECRET")

#: Fresh processes timed from start to the end of their first round;
#: ``setup_s`` is the fastest of them.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 40

#: A round that takes longer than this counts as failed.
ROUND_TIMEOUT_S = 60.0

#: End-to-end metrics and their units, in report order.
END_TO_END = (("round_s_min", "s"), ("sim_bits_per_s", "bit/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

OUT_DIR = ROOT / ".perfbench_out"

_clock = time.perf_counter


def pin_environment() -> None:
    """Clear ambient settings and make ``src`` importable."""
    for name in UNSET_ENV:
        os.environ.pop(name, None)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no src/repro under {ROOT}; run from the "
                 f"root of a full checkout")
    sys.path.insert(0, str(ROOT / "src"))


def fingerprint() -> dict:
    """The runner: CPUs, Python and the numeric stack's versions."""
    import numpy
    import scipy

    from repro import telemetry

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "telemetry_enabled": telemetry.enabled(),
            "unset_env": list(UNSET_ENV)}


def measure(wl, seconds: float, tracer=None) -> dict:
    """The closed loop: rounds back to back for *seconds*.

    Without a *tracer* every round is untraced. With one, rounds run in
    pairs on the same input, untraced then traced. The loop always runs
    every pool entry at least once, so the digest covers a fixed set of
    outputs. Durations are kept for rounds that passed their checks,
    and the fastest untraced one of each pool entry.
    """
    from spans import NULL_TRACER, ROUND

    step = 1 if tracer is None else 2
    durations = {False: [], True: []}
    fastest = {}
    digests = {}
    failures = []
    attempted = 0
    deadline = _clock() + seconds
    while _clock() < deadline or attempted < wl.pool * step:
        r = attempted
        attempted += 1
        k = (r // step) % wl.pool
        traced = r % step == 1
        try:
            if traced:
                tracer.round_id = r
                t0 = _clock()
                with tracer.span(ROUND):
                    out = wl.run(k, tracer)
            else:
                t0 = _clock()
                out = wl.run(k, NULL_TRACER)
            elapsed = _clock() - t0
            problems = wl.check(k, out)
            if elapsed > ROUND_TIMEOUT_S:
                problems.append(f"took {elapsed:.1f} s")
            digest = hashlib.sha256(wl.digest(out)).hexdigest()
            if digests.setdefault(k, digest) != digest:
                problems.append("output differs from an earlier round "
                                "on the same input")
            if traced:
                problems += wl.traced_extra(k, tracer)
        except Exception as exc:  # a failed round is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            failures.append((r, problems))
        else:
            durations[traced].append(elapsed)
            if not traced:
                fastest[k] = min(elapsed, fastest.get(k, elapsed))
    total = hashlib.sha256(
        "".join(digests.get(k, "missing") for k in range(wl.pool))
        .encode()).hexdigest()
    return {"attempted": attempted, "failures": failures,
            "untraced": durations[False], "traced": durations[True],
            "fastest": fastest, "digest": total}


def build(name: str, seed: int):
    """Construct workload *name* and run its first, untimed round."""
    from spans import NULL_TRACER
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed)
    try:
        wl.run(0, NULL_TRACER)
    except BaseException:
        wl.close()
        raise
    return wl


def setup_seconds(name: str, seed: int) -> float:
    """Fastest, over fresh processes, of process start to the end of
    the first round (imports, construction, server start, cold
    caches). References are not part of it. Like a round, set-up is
    only ever slowed by the host's other tenants."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--setup-probe"]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        end = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(end["setup_end"] - t0)
    return min(times)


def quantile(values, q: int) -> float:
    """The q-th percentile (``statistics.quantiles`` cut point)."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(wl, fastest: dict, setup_s: float) -> dict:
    """The bounded metrics, taken at each input's fastest round.

    Other tenants of a shared host slow its CPUs by up to 2x for
    seconds to minutes at a time, so a run's median round time moves by
    a third between identical runs. Noise only ever adds time: the
    fastest round of an input is the program's own cost for it.
    ``round_s_min`` is the mean of those minima over the pool, one clean
    pass over every input, so a change that slows any input shows.
    """
    if len(fastest) != wl.pool:
        sys.exit("perfbench: an input had no round that passed its "
                 "checks")
    round_s = sum(fastest.values()) / wl.pool
    return {
        "round_s_min": round_s,
        "sim_bits_per_s": wl.bits_per_round / round_s,
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(wl, res: dict, tracer) -> dict:
    from spans import layer_medians
    from workloads import all_layers

    names = all_layers()
    timed = [n for n in names if n.endswith(".s")]
    metrics = {n: 0.0 for n in names}
    metrics.update(layer_medians(tracer, timed, wl.per_cell))
    metrics.update(wl.counts())
    metrics["trace.overhead_frac"] = (
        statistics.median(res["traced"])
        / statistics.median(res["untraced"]) - 1.0)
    return metrics


def unit_of(name: str) -> str:
    for metric, unit in END_TO_END:
        if metric == name:
            return unit
    if name.endswith(".s"):
        return "s"
    return {"service.partials": "count", "vortex.cycles": "cycles",
            "vortex.deflections_per_packet": "1/packet"}.get(name,
                                                             "ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("eye_block", "shmoo_service",
                                 "link_traffic"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_environment()
    sys.path.insert(0, str(HERE))

    if args.setup_probe:
        wl = build(args.workload, args.seed)
        setup_end = time.monotonic()
        wl.close()
        print(json.dumps({"setup_end": setup_end}), flush=True)
        return 0

    setup_s = 0.0 if args.trace else setup_seconds(args.workload,
                                                   args.seed)
    from spans import Tracer

    wl = build(args.workload, args.seed)
    try:
        wl.prepare()
        tracer = Tracer() if args.trace else None
        res = measure(wl, args.seconds, tracer)
        if args.trace:
            metrics = per_layer(wl, res, tracer)
        else:
            metrics = end_to_end(wl, res["fastest"], setup_s)
    finally:
        wl.close()

    env = fingerprint()
    n_failed = len(res["failures"])
    rounds = res["traced" if args.trace else "untraced"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  rounds {len(rounds)} measured of "
          f"{res['attempted']} attempted")
    print(f"runner {json.dumps(env)}")
    print(f"digest {res['digest']}")
    for r, problems in res["failures"][:5]:
        print(f"FAILED round {r}: {'; '.join(problems)}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit_of(name)}")
    print(f"  {'failed_frac':34s} {n_failed / res['attempted']:.6g} "
          f"ratio")
    if args.trace:
        print(f"  ledger closure error {tracer.closure_error():.3g} s "
              f"(layer self times + glue - round time)")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"{args.workload}.trace.json",
                     workload=args.workload, seed=args.seed, runner=env)
    elif rounds:
        p90 = quantile(rounds, 90)
        print(f"  unbounded: round_s_p50 {statistics.median(rounds):.6g} "
              f"s, round_s_p90 {p90:.6g} s "
              f"({sum(d > p90 for d in rounds)} rounds beyond it)")
    print(json.dumps({
        "correct": n_failed == 0,
        "attempted": res["attempted"],
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
