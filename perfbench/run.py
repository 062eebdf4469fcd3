"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload warm_resolve --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it imports ``repro`` from ``src/``
there.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0``
the metrics are the end-to-end ones of ``BENCHMARK.json``, with
``--trace 1`` the per-layer ones.  The line before it, ``{"detail": ...}``,
carries the machine-speed probe, set-up repetitions, failure reasons and
(for traced runs) the end-to-end figures of the traced run.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
PROBE_ITERATIONS = 400_000


def probe_ms() -> float:
    """Wall time of a fixed pure-Python loop: a run taken during a slow
    spell of the host shows up here.  Not a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


def percentile(values: list, q: float) -> float:
    """Linear-interpolated percentile of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest
    finished child (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def stop_resource_tracker() -> None:
    """Stop, and wait for, the helper process ``multiprocessing`` starts
    for shared memory (the serve pool and the sweep executor use it); it
    would otherwise outlive the run by a moment."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def ops_per_s(run) -> float:
    """Median over the run's windows of operations completed per second,
    so a slow spell of the host moves it less than it moves the mean."""
    rates = [ops / seconds for ops, seconds in run.windows if seconds > 0]
    if rates:
        return statistics.median(rates)
    return len(run.latencies) / run.timed_s if run.timed_s else 0.0


def end_to_end(run, setup_s: float) -> dict:
    lat_ms = [s * 1e3 for s in run.latencies] or [0.0]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": ops_per_s(run), "unit": "1/s"},
        "latency_p50_ms": {"value": percentile(lat_ms, 50), "unit": "ms"},
        "latency_p95_ms": {"value": percentile(lat_ms, 95), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def per_layer(run, units: dict) -> dict:
    return {name: {"value": float(run.layers.get(name, 0.0)), "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="smoke size: small inputs, one set-up, at most two operations",
    )
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no repro package under {src}", file=sys.stderr)
        return 2
    probe_start = probe_ms()
    t_import = time.perf_counter()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads  # noqa: E402  (imports numpy, scipy and repro)

    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    import_s = time.perf_counter() - t_import

    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, tracer)
    repeats = 1 if args.smoke else SETUP_REPEATS
    setup_times = []
    for rep in range(repeats):
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
        if rep < repeats - 1:
            workload.teardown()
    setup_s = import_s + statistics.median(setup_times)
    try:
        run = workload.run(args.seconds, 2 if args.smoke else sys.maxsize)
    finally:
        workload.teardown()
        stop_resource_tracker()
    probe_end = probe_ms()

    e2e = end_to_end(run, setup_s)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "probe_ms": {"start": probe_start, "end": probe_end},
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "timed_s": run.timed_s,
        "ops": len(run.latencies),
        "failures": run.failures,
        "broken": run.broken,
    }
    if args.trace:
        detail["end_to_end"] = {k: v["value"] for k, v in e2e.items()}
        metrics = per_layer(run, {m["name"]: m["unit"] for m in spec["per_layer"]})
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not run.broken and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
