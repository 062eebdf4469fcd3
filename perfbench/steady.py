"""Measure how steady the benchmark is, and the bounds that follow.

    python3 perfbench/steady.py --runs 10 [--seconds 20] [--workloads a,b] [--trace]

Runs every workload ``--runs`` times, each run in a fresh process with
its own seed, interleaving the workloads (repetition ``r`` runs them in
an order rotated by ``r``), and prints per workload and end-to-end
metric the median, the quartiles (``statistics.quantiles(n=4)``), the
quartile spread and the max/min spread, both as a share of the median.

The suggested bound of a metric is three times its widest quartile
spread over the workloads, rounded up to a hundredth and kept within
[0.10, 0.25]; ``setup_s`` always gets the largest bound, 0.25.  The
bounds in ``BENCHMARK.json`` come from this output.

``--trace`` also makes one traced run after every untraced one and
prints the per-layer medians and the tracing overhead: the traced run's
end-to-end median against the untraced median.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BOUND_FLOOR, BOUND_CAP = 0.10, 0.25


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return {"result": json.loads(lines[-1]), "detail": json.loads(lines[-2])["detail"], "wall_s": wall}


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med, "q1": q1, "q3": q3,
        "iqr_share": (q3 - q1) / med if med else 0.0,
        "range_share": (max(values) - min(values)) / med if med else 0.0,
    }


def suggested_bound(metric: str, iqr_share: float) -> float:
    if metric == "setup_s":
        return BOUND_CAP
    return min(BOUND_CAP, max(BOUND_FLOOR, math.ceil(300 * iqr_share) / 100))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json", help="also write every run's output to this file")
    args = parser.parse_args(argv)
    chosen = args.workloads.split(",")
    if args.runs < 2 or any(w not in names for w in chosen):
        parser.error(f"need --runs >= 2 and workloads from {names}")

    runs: dict = {w: [] for w in chosen}
    traced: dict = {w: [] for w in chosen}
    for rep in range(args.runs):
        seed = args.first_seed + rep
        order = chosen[rep % len(chosen):] + chosen[: rep % len(chosen)]
        for w in order:
            runs[w].append(run_once(w, seed, args.seconds, 0))
            if args.trace:
                traced[w].append(run_once(w, seed, args.seconds, 1))
            print(f"# rep {rep} {w} seed {seed}: {runs[w][-1]['wall_s']:.1f} s", file=sys.stderr, flush=True)

    bounds: dict = {}
    print(f"{'workload':<13} {'metric':<15} {'median':>10} {'q1':>10} {'q3':>10} {'iqr/med':>8} {'max-min':>8}")
    for w in chosen:
        res = runs[w]
        failed = {(r["result"]["failed"], r["result"]["attempted"]) for r in res}
        for m in spec["end_to_end"]:
            name = m["name"]
            s = spread([r["result"]["metrics"][name]["value"] for r in res])
            bounds[name] = max(bounds.get(name, 0.0), suggested_bound(name, s["iqr_share"]))
            print(f"{w:<13} {name:<15} {s['median']:>10.4g} {s['q1']:>10.4g} {s['q3']:>10.4g} "
                  f"{s['iqr_share']:>8.3f} {s['range_share']:>8.3f}")
        probes = [p for r in res for p in r["detail"]["probe_ms"].values()]
        print(f"{w:<13} probe_ms median {statistics.median(probes):.1f} (min {min(probes):.1f}, max {max(probes):.1f}); "
              f"run wall median {statistics.median(r['wall_s'] for r in res):.1f} s; "
              f"correct {all(r['result']['correct'] for r in res)}; "
              f"failed/attempted {sorted(failed)[:3]}{'...' if len(failed) > 3 else ''}")
    print("suggested bounds: " + json.dumps({k: round(v, 2) for k, v in bounds.items()}))

    if args.trace:
        print(f"\n{'workload':<13} {'per-layer metric':<28} {'median':>10} {'iqr/med':>8}")
        for w in chosen:
            for m in spec["per_layer"]:
                values = [r["result"]["metrics"][m["name"]]["value"] for r in traced[w]]
                if not any(values):
                    continue
                s = spread(values)
                print(f"{w:<13} {m['name']:<28} {s['median']:>10.4g} {s['iqr_share']:>8.3f}")
            for name in ("ops_per_s", "latency_p50_ms"):
                plain = statistics.median(r["result"]["metrics"][name]["value"] for r in runs[w])
                with_trace = statistics.median(r["detail"]["end_to_end"][name] for r in traced[w])
                print(f"{w:<13} tracing overhead on {name}: {with_trace / plain - 1:+.3f}")
    if args.json:
        Path(args.json).write_text(json.dumps({"runs": runs, "traced": traced}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
