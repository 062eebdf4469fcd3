"""The four workloads.

Each workload builds its inputs from the run's seed, sets itself up
(``setup``; the harness repeats it and reports the median), runs a
closed loop of operations until its timed share of the run is spent
(``run``), checks every output apart from the program outside the timed
region, and shuts down (``teardown``).  ``run`` returns a :class:`Run`.

Process-global state matters here: ``default_schedule_cache()`` and
``default_plan_cache()`` live for the whole interpreter, so every
``setup`` clears them first and each run is its own process.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

import checker

import repro
from repro.algorithms.api import ALGORITHMS
from repro.analysis.executor import cell_rng
from repro.analysis.sweeps import run_sweep
from repro.model.plan import default_plan_cache
from repro.model.schedule_cache import default_schedule_cache
from repro.semirings import ALL_SEMIRINGS, REAL_FIELD
from repro.sparsity.families import AS, BD, US
from repro.supported.instance import SupportedInstance, make_instance
from repro.transport import TransportConfig, run_over_transport

SEMIRINGS = {sr.name: sr for sr in ALL_SEMIRINGS}


@dataclass
class Run:
    """What one timed loop did."""

    #: per operation: seconds from request to result
    latencies: list = field(default_factory=list)
    #: seconds of the timed region (checks excluded)
    timed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    #: run-level checks that are no single operation's (set-up references)
    broken: list = field(default_factory=list)
    #: per-layer metric values, filled only by traced runs
    layers: dict = field(default_factory=dict)
    #: (operations completed, timed seconds) per window of the loop: one
    #: cycle of the workload's inputs, one sweep call, or one second
    windows: list = field(default_factory=list)
    _window_start: int = 0
    _window_s: float = 0.0

    def timed(self, seconds: float) -> None:
        self.timed_s += seconds
        self._window_s += seconds

    def close_window(self) -> None:
        if self._window_s > 0:
            self.windows.append((len(self.latencies) - self._window_start, self._window_s))
        self._window_start = len(self.latencies)
        self._window_s = 0.0

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(why)


def clear_process_caches() -> None:
    default_schedule_cache().clear()
    default_plan_cache().clear()


def fresh_values(pattern: sp.csr_matrix, semiring: str, rng: np.random.Generator) -> sp.csr_matrix:
    """New private values on a public support (the benchmark's own draw,
    one value per support position)."""
    coo = pattern.tocoo()
    size = coo.nnz
    if semiring == "real-field":
        vals = np.round(rng.uniform(-4.0, 4.0, size), 3)
    elif semiring == "integer-ring":
        vals = rng.integers(-9, 10, size)
    elif semiring in ("boolean", "gf2"):
        vals = np.ones(size)
    elif semiring in ("min-plus", "max-plus"):
        vals = rng.integers(1, 100, size).astype(np.float64)
    else:  # viterbi
        vals = np.round(rng.uniform(0.05, 1.0, size), 3)
    vals = vals.astype(SEMIRINGS[semiring].dtype)
    return sp.csr_matrix((vals, (coo.row, coo.col)), shape=pattern.shape)


def revalued(base: SupportedInstance, rng: np.random.Generator, semiring: str | None = None) -> SupportedInstance:
    """A new instance on ``base``'s structure with fresh values."""
    name = semiring or base.semiring.name
    return SupportedInstance(
        semiring=SEMIRINGS[name],
        a_hat=base.a_hat,
        b_hat=base.b_hat,
        x_hat=base.x_hat,
        a=fresh_values(base.a_hat, name, rng),
        b=fresh_values(base.b_hat, name, rng),
        d=base.d,
        distribution=base.distribution,
    )


def layer_ms(snap: dict, ops: int) -> dict:
    """Per-operation self time of every timed layer, in ms."""
    from layers import LAYERS

    ops = max(ops, 1)
    return {f"{layer}_ms": snap["self_ns"].get(layer, 0) / 1e6 / ops for layer in LAYERS}


def closed_loop(out: Run, seconds: float, max_ops: int, cycle: int, operate, verify) -> None:
    """One client, whole cycles: ``operate(k)`` runs operation ``k`` of
    the cycle and returns ``(latency_s, output)``; ``verify(k, output)``
    checks the output outside the timed region and returns a reason when
    it is wrong.  Each cycle is one throughput window."""
    while out.attempted < max_ops and (out.timed_s < seconds or out.attempted % cycle):
        k = out.attempted % cycle
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            latency, output = operate(k)
        except Exception as exc:  # counted, and the loop goes on
            out.timed(time.perf_counter() - t0)
            out.fail(f"{type(exc).__name__}: {exc}")
        else:
            out.timed(time.perf_counter() - t0)
            why = verify(k, output)
            if why:
                out.fail(why)
            else:
                out.latencies.append(latency)
        if out.attempted % cycle == 0:
            out.close_window()


def pin_to_one_cpu() -> None:
    """Run this process, and every process it forks, on one CPU.

    Used by the workloads whose operations wait on other processes (the
    serve pool, the TCP mesh).  On the 2-vCPU VM the benchmark was built
    on, a wakeup across vCPUs waits for the hypervisor: unpinned, the same
    TCP operation took 90 to 280 ms depending on the neighbours' load;
    pinned, 90 to 95 ms.  Pinned, the figures measure the program's
    hand-offs rather than the host's."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def cache_counts() -> tuple[int, int]:
    cache = default_schedule_cache()
    return cache.hits, cache.misses


def schedule_layers(before: tuple[int, int], ops: int) -> dict:
    """Schedule-cache misses per operation and hit ratio since ``before``."""
    hits, misses = (now - then for now, then in zip(cache_counts(), before))
    return {
        "schedule.misses": misses / max(ops, 1),
        "schedule.hit_ratio": hits / max(hits + misses, 1),
    }


def coverage(snap: dict, op_wall_s: float) -> float:
    """Share of the operations' wall time that the traced layers cover."""
    return sum(snap["self_ns"].values()) / 1e9 / op_wall_s if op_wall_s > 0 else 0.0


# ---------------------------------------------------------------------- #
# warm_resolve
# ---------------------------------------------------------------------- #
class WarmResolve:
    """``repro.multiply(inst)`` with automatic selection, on fresh values
    over four fixed structures whose schedules set-up has cached.  One in
    four operations is the ROADMAP reference ``[US:US:AS]``, n=256, d=32;
    the others are n=128, d=16 structures of three Table 1 triples, so the
    median falls inside the small-structure operations and the 95th
    percentile inside the reference ones."""

    STRUCTURES = (
        ((US, US, AS), 256, 32),
        ((US, US, AS), 128, 16),
        ((AS, US, US), 128, 16),
        ((US, AS, US), 128, 16),
    )
    SMOKE_STRUCTURES = (((US, US, AS), 32, 4), ((AS, US, US), 32, 4))

    def __init__(self, seed: int, smoke: bool, tracer=None):
        self.seed = seed
        self.structures = self.SMOKE_STRUCTURES if smoke else self.STRUCTURES
        self.tracer = tracer

    def setup(self) -> None:
        clear_process_caches()
        rng = np.random.default_rng([self.seed, 0])
        self.bases = [make_instance(f, n, d, rng) for f, n, d in self.structures]
        # the cold pass: fills the schedule cache and fixes each
        # structure's bill, which every warm operation must repeat
        self.cold = [repro.multiply(inst) for inst in self.bases]
        self.bills = [(r.rounds, r.messages) for r in self.cold]

    def teardown(self) -> None:
        pass

    def run(self, seconds: float, max_ops: int) -> Run:
        out = Run()
        for inst, res in zip(self.bases, self.cold):
            why = checker.check_instance_product(inst, res.x)
            if why:
                out.broken.append(f"cold pass: {why}")
        if self.tracer is not None:
            self.tracer.reset()
        rng = np.random.default_rng([self.seed, 1])
        totals = [0, 0]
        cache_before = cache_counts()

        def operate(k):
            inst = revalued(self.bases[k], rng)
            t0 = time.perf_counter()
            res = repro.multiply(inst)
            return time.perf_counter() - t0, (inst, res)

        def verify(k, done):
            inst, res = done
            totals[0] += res.rounds
            totals[1] += res.messages
            return checker.check_instance_product(inst, res.x) or checker.check_bill(
                res.rounds, res.messages, *self.bills[k], what=f"structure {k}"
            )

        closed_loop(out, seconds, max_ops, len(self.bases), operate, verify)
        rounds, messages = totals
        if self.tracer is not None:
            snap = self.tracer.snapshot()
            ops = len(out.latencies)
            out.layers.update(layer_ms(snap, ops))
            out.layers["network.rounds"] = rounds / max(ops, 1)
            out.layers["network.messages"] = messages / max(ops, 1)
            out.layers["trace.coverage"] = coverage(snap, sum(out.latencies))
            out.layers.update(schedule_layers(cache_before, ops))
        return out


# ---------------------------------------------------------------------- #
# cold_sweep
# ---------------------------------------------------------------------- #
SWEEP_TRIPLES = ((US, US, US), (US, US, AS), (AS, US, US), (US, AS, US), (AS, AS, AS), (BD, AS, AS))
SWEEP_ALGORITHMS = ("two_phase", "general", "sparse_3d")


def sweep_instance(value, rng):
    """The sweep's instance factory: one never-seen seeded structure."""
    families, n, d = value
    return make_instance(families, n, d, rng)


class ColdSweep:
    """``run_sweep`` over never-seen seeded structures: every Table 1
    triple of :data:`SWEEP_TRIPLES`, :data:`PER_TRIPLE` times, x
    :data:`SWEEP_ALGORITHMS`, one sweep seed per call, so every cell
    schedules from scratch.  Each call forks its workers afresh, and a
    worker's first cell takes about twice as long as the rest; at 72
    cells a call those are under 3% of the cells, below the 95th
    percentile."""

    WORKERS = 2
    PER_TRIPLE = 4

    def __init__(self, seed: int, smoke: bool, tracer=None):
        self.seed = seed
        self.n, self.d = (24, 3) if smoke else (96, 8)
        self.triples = SWEEP_TRIPLES[:1] if smoke else SWEEP_TRIPLES
        self.per_triple = 1 if smoke else self.PER_TRIPLE
        self.tracer = tracer

    def _algorithms(self) -> dict:
        tracer = self.tracer
        chosen = {}
        for name in SWEEP_ALGORITHMS:
            fn = ALGORITHMS[name]

            def timed(inst, _fn=fn):
                if tracer is not None:
                    tracer.reset()
                t0 = time.perf_counter()
                res = _fn(inst)
                res.details["perfbench_wall_s"] = time.perf_counter() - t0
                return res

            chosen[name] = timed
        return chosen

    def _detail(self, inst, res):
        """Runs in the sweep worker; ships the product (and, when traced,
        the layer totals) back to the parent."""
        out = {"x": res.x, "bill": (res.rounds, res.messages), "wall_s": res.details["perfbench_wall_s"]}
        if self.tracer is not None:
            out["layers"] = self.tracer.snapshot()
            out["cache"] = (res.network.cache_hits, res.network.cache_misses)
        return out

    def _sweep_seed(self, call: int, domain: int = 2) -> int:
        return int(np.random.SeedSequence([self.seed, domain, call]).generate_state(1)[0])

    def _sweep(self, values, seed):
        return run_sweep(
            axis=("structure", values),
            instance_factory=sweep_instance,
            algorithms=self._algorithms(),
            verify=False,
            strict=False,
            workers=self.WORKERS,
            seed=seed,
            detail=self._detail,
        )

    def setup(self) -> None:
        clear_process_caches()
        self.values = [(t, self.n, self.d) for t in self.triples for _ in range(self.per_triple)]
        # warm pass: one untimed call on a seed no timed call uses
        self._sweep(self.values[:1], self._sweep_seed(0, domain=7))

    def teardown(self) -> None:
        pass

    def run(self, seconds: float, max_ops: int) -> Run:
        out = Run()
        call = 0
        snaps, op_wall, cache = [], 0.0, [0, 0]
        sweep_stats = []
        rounds = messages = 0
        while out.attempted < max_ops and out.timed_s < seconds:
            seed = self._sweep_seed(call)
            call += 1
            t0 = time.perf_counter()
            sweep = self._sweep(self.values, seed)
            out.timed(time.perf_counter() - t0)
            sweep_stats.append(sweep.stats)
            for cell in sweep.stats["per_cell"]:
                out.attempted += 1
                if cell["status"] != "ok" or cell["error"]:
                    out.fail(f"cell {cell['algo_name']}: {cell['error']}")
                    continue
                detail = cell["details"]
                algo_index = SWEEP_ALGORITHMS.index(cell["algo_name"])
                inst = sweep_instance(cell["axis_value"], cell_rng(seed, cell["axis_index"], algo_index))
                why = checker.check_instance_product(inst, detail["x"])
                if why:
                    out.fail(f"cell {cell['algo_name']}: {why}")
                    continue
                out.latencies.append(cell["wall_s"])
                rounds += detail["bill"][0]
                messages += detail["bill"][1]
                if self.tracer is not None:
                    snaps.append(detail["layers"])
                    op_wall += detail["wall_s"]
                    cache[0] += detail["cache"][0]
                    cache[1] += detail["cache"][1]
            out.close_window()
        if self.tracer is not None:
            from layers import Tracer

            total = Tracer()
            for snap in snaps:
                total.add(snap)
            snap = total.snapshot()
            cells = max(len(out.latencies), 1)
            out.layers.update(layer_ms(snap, cells))
            out.layers["trace.coverage"] = coverage(snap, op_wall)
            out.layers["network.rounds"] = rounds / cells
            out.layers["network.messages"] = messages / cells
            out.layers["schedule.misses"] = cache[1] / cells
            out.layers["schedule.hit_ratio"] = cache[0] / max(sum(cache), 1)
            busy = sum(s["cell_wall_s_sum"] for s in sweep_stats)
            slots = sum(s["wall_s"] * s["workers_effective"] for s in sweep_stats)
            shipped = sum((s.get("payload") or {}).get("shipped_bytes", 0) for s in sweep_stats)
            out.layers["sweep.cell_ms"] = busy / cells * 1e3
            out.layers["sweep.overhead_ms"] = (slots - busy) / cells * 1e3
            out.layers["sweep.utilization"] = busy / slots if slots else 0.0
            out.layers["sweep.payload_bytes"] = shipped / cells
        return out


# ---------------------------------------------------------------------- #
# tcp_wire
# ---------------------------------------------------------------------- #
class TcpWire:
    """``run_over_transport(inst, transport="tcp")`` on a 2-host loopback
    mesh, one fresh mesh per operation, pinned to one CPU
    (:func:`pin_to_one_cpu`).  The inputs are three n=40, d=2 instances of
    each Table 1 triple of :data:`SWEEP_TRIPLES` (15 to 34 wire rounds
    each, ~80 ms an operation, so a 20 s run completes over 200): with one
    instance per triple, the cycle's total rounds varied by 7% (quartile
    spread) between seeds."""

    INSTANCES = tuple((t, 40, 2) for t in SWEEP_TRIPLES) * 3
    SMOKE_INSTANCES = (((US, US, AS), 16, 2),)
    CONFIG = dict(workers=2)

    def __init__(self, seed: int, smoke: bool, tracer=None):
        self.seed = seed
        self.specs = self.SMOKE_INSTANCES if smoke else self.INSTANCES
        self.tracer = tracer
        self.config = TransportConfig(**self.CONFIG)
        pin_to_one_cpu()

    def setup(self) -> None:
        clear_process_caches()
        rng = np.random.default_rng([self.seed, 3])
        self.instances = [make_instance(f, n, d, rng) for f, n, d in self.specs]
        self.local = [run_over_transport(inst, transport="local") for inst in self.instances]
        # warm pass: one wire run, so the first timed mesh is no colder
        # than the rest
        self.warm = run_over_transport(self.instances[0], transport="tcp", config=self.config)

    def teardown(self) -> None:
        pass

    def run(self, seconds: float, max_ops: int) -> Run:
        out = Run()
        for inst, ref in zip(self.instances, self.local):
            why = checker.check_instance_product(inst, ref.result.x) if ref.ok else ref.error
            if why:
                out.broken.append(f"local reference: {why}")
        why = checker.check_wire(self.warm, self.local[0])
        if why:
            out.broken.append(f"warm pass: {why}")
        if self.tracer is not None:
            self.tracer.reset()
        totals = dict(rounds=0, messages=0, steps=0, resends=0, reconnects=0)
        cache_before = cache_counts()

        def operate(k):
            t0 = time.perf_counter()
            outcome = run_over_transport(self.instances[k], transport="tcp", config=self.config)
            return time.perf_counter() - t0, outcome

        def verify(k, outcome):
            why = checker.check_wire(outcome, self.local[k])
            if why:
                return why
            stats = outcome.transport_stats
            totals["rounds"] += outcome.rounds
            totals["messages"] += outcome.messages
            totals["steps"] += stats.get("steps", 0)
            totals["resends"] += stats.get("wire", {}).get("resends", 0)
            totals["reconnects"] += stats.get("wire", {}).get("reconnects", 0)
            return checker.check_instance_product(self.instances[k], outcome.result.x)

        closed_loop(out, seconds, max_ops, len(self.instances), operate, verify)
        if self.tracer is not None:
            snap = self.tracer.snapshot()
            ops = max(len(out.latencies), 1)
            out.layers.update(layer_ms(snap, ops))
            out.layers["trace.coverage"] = coverage(snap, sum(out.latencies))
            out.layers["network.rounds"] = totals["rounds"] / ops
            out.layers["network.messages"] = totals["messages"] / ops
            for key in ("steps", "resends", "reconnects"):
                out.layers[f"transport.{key}"] = totals[key] / ops
            out.layers.update(schedule_layers(cache_before, ops))
        return out


# ---------------------------------------------------------------------- #
# serve_mixed
# ---------------------------------------------------------------------- #
class ServeMixed:
    """Tenant coroutines in a closed loop against ``ServeFrontend`` with a
    resident one-process ``ServePool``, pinned to one CPU
    (:func:`pin_to_one_cpu`).

    Jobs come from one shared, seeded sequence; job ``i`` belongs to group
    ``i // TENANTS``, and a group's jobs share kind, structure and
    semiring, so the tenants released together by one batch submit
    coalescible jobs.  Group kinds cycle: four product groups (three base
    structures, all seven semirings over the cycle), one triangle group,
    one shortest-path group.  Every 16th job asks for a certificate (a
    per-job fallback) and every 32nd job, when it is a product, is on a
    never-seen structure (a plan compile beside the replays)."""

    TENANTS = 4
    WORKERS = 1

    def __init__(self, seed: int, smoke: bool, tracer=None):
        from repro.serve import ServeConfig

        self.seed = seed
        self.n, self.d = (16, 2) if smoke else (32, 3)
        self.graph_n = 12 if smoke else 24
        self.tracer = tracer
        self.config = ServeConfig(workers=self.WORKERS)
        pin_to_one_cpu()
        self.loop = None
        self.frontend = None
        self.clock = None
        if tracer is not None:
            from layers import BatchClock

            self.clock = BatchClock()
            self.clock.install()

    # the job sequence -------------------------------------------------- #
    def _job(self, i: int, rng: np.random.Generator):
        """Job ``i``, plus what the checks need to know about it."""
        from repro.serve import multiply_job, shortest_path_job, triangle_job

        group = i // self.TENANTS
        slot = group % 6
        tenant = f"tenant-{i % self.TENANTS}"
        checks = 2 if i % 16 == 5 else 0
        if slot < 4:
            semiring = ALL_SEMIRINGS[group % len(ALL_SEMIRINGS)].name
            base = self.bases[group % len(self.bases)]
            if i % 32 == 17:
                base = make_instance((US, US, US), self.n, self.d, rng)
            inst = revalued(base, rng, semiring)
            return multiply_job(tenant, inst, certify_checks=checks), ("multiply", inst)
        if slot == 4:
            return triangle_job(tenant, self.graph, certify_checks=checks), ("triangles", self.graph)
        weights = fresh_values(self.edges, "min-plus", rng)
        return shortest_path_job(tenant, weights, certify_checks=checks), ("shortest_paths", weights)

    def setup(self) -> None:
        from repro.apps.graphs import random_regular_adjacency
        from repro.serve import ServeFrontend

        clear_process_caches()
        rng = np.random.default_rng([self.seed, 4])
        self.bases = [make_instance((US, US, US), self.n, self.d, rng, semiring=REAL_FIELD) for _ in range(3)]
        graph_seed = int(rng.integers(1 << 30))
        self.graph = random_regular_adjacency(self.graph_n, 4, seed=graph_seed)
        self.edges = random_regular_adjacency(self.graph_n, 3, seed=graph_seed + 1)
        self.loop = asyncio.new_event_loop()
        self.frontend = ServeFrontend(self.config)
        self.loop.run_until_complete(self.frontend.start())
        # warm pass: one job of every recurring batch key, so the worker
        # holds their schedules and replay plans before timing starts
        warm_rng = np.random.default_rng([self.seed, 5])
        period = 6 * len(ALL_SEMIRINGS) * self.TENANTS
        seen = set()
        for i in range(period):
            if i % 16 == 5 or i % 32 == 17:
                continue
            job, _ = self._job(i, warm_rng)
            key = (job.kind, job.key())
            if key in seen:
                continue
            seen.add(key)
            self.loop.run_until_complete(self.frontend.submit(job))

    def teardown(self) -> None:
        if self.frontend is not None:
            self.loop.run_until_complete(self.frontend.stop())
            self.frontend = None
        if self.loop is not None:
            self.loop.close()
            self.loop = None

    async def _tenants(self, seconds: float, max_ops: int, records: list) -> tuple[float, float]:
        rng = np.random.default_rng([self.seed, 6])
        counter = itertools.count()
        t_start = time.perf_counter()
        stop_at = t_start + seconds

        async def tenant() -> None:
            while time.perf_counter() < stop_at:
                i = next(counter)
                if i >= max_ops:
                    return
                job, meta = self._job(i, rng)
                t0 = time.perf_counter()
                try:
                    res = await self.frontend.submit(job)
                except Exception as exc:
                    records.append((i, job, meta, exc, time.perf_counter() - t0, None))
                    continue
                done = time.perf_counter()
                records.append((i, job, meta, res, done - t0, done - t_start))

        tasks = [asyncio.ensure_future(tenant()) for _ in range(self.TENANTS)]
        await asyncio.gather(*tasks)
        return time.perf_counter() - t_start

    def _direct_rounds(self, kind: str, meta_input, job) -> int:
        """Rounds of the same instance run directly, without serving."""
        if kind == "triangles":
            from repro.apps.triangles import count_triangles

            return count_triangles(meta_input).total_rounds
        return repro.multiply(job.instance).rounds

    def run(self, seconds: float, max_ops: int) -> Run:
        out = Run()
        records: list = []
        if self.clock is not None:
            self.clock.reset()
        out.timed(self.loop.run_until_complete(self._tenants(seconds, max_ops, records)))
        completed_at = []
        direct: dict = {}
        layers = dict(queue=0.0, exec=0.0, batch=0, rounds=0, messages=0, hits=0, misses=0,
                      replayed=0, compiled=0, fallback=0, cert_rounds=0, certified=0)
        for i, job, (kind, given), res, latency, done in sorted(records, key=lambda r: r[0]):
            out.attempted += 1
            if isinstance(res, Exception):
                out.fail(f"job {i}: {type(res).__name__}: {res}")
                continue
            key = (job.digest, job.instance.semiring.name, kind)
            if key not in direct:
                direct[key] = self._direct_rounds(kind, given, job)
            why = checker.check_served(res, direct[key], certify_requested=job.certify_checks > 0)
            if not why and kind == "multiply":
                why = checker.check_instance_product(job.instance, res.x)
            elif not why and kind == "triangles":
                why = checker.check_instance_product(job.instance, res.x) or checker.check_triangle_count(
                    given, res.value
                )
            elif not why:
                why = checker.check_two_hop(given, res.x)
            if why:
                out.fail(f"job {i} ({kind}, {job.instance.semiring.name}): {why}")
                continue
            out.latencies.append(latency)
            completed_at.append(done)
            if self.clock is not None:
                layers["queue"] += latency - self.clock.by_job[res.job_id]
                layers["exec"] += res.wall_s
                layers["batch"] += res.batch_size
                layers["rounds"] += res.rounds
                layers["messages"] += res.messages
                layers["hits"] += res.cache_hits
                layers["misses"] += res.cache_misses
                layers["replayed"] += res.plan_replayed
                layers["compiled"] += res.plan_compiled
                layers["fallback"] += res.plan_fallback is not None
                if res.certified is not None:
                    layers["certified"] += 1
                    layers["cert_rounds"] += res.cert_rounds
        # one throughput window per whole second of the submission period
        per_second = np.bincount(np.asarray(completed_at, dtype=int), minlength=int(seconds))
        out.windows = [(int(count), 1.0) for count in per_second[: int(seconds)]]
        if self.clock is not None:
            jobs = max(len(out.latencies), 1)
            exec_by_job = {r[3].job_id: r[3].wall_s for r in records if not isinstance(r[3], Exception)}
            rtt = [wall - sum(exec_by_job.get(j, 0.0) for j in ids) for wall, ids in self.clock.batches]
            out.layers.update({
                "serve.queue_wait_ms": layers["queue"] / jobs * 1e3,
                "serve.pool_rtt_ms": float(np.mean(rtt)) * 1e3 if rtt else 0.0,
                "serve.exec_ms": layers["exec"] / jobs * 1e3,
                "serve.batch_size": layers["batch"] / jobs,
                "network.rounds": layers["rounds"] / jobs,
                "network.messages": layers["messages"] / jobs,
                "schedule.misses": layers["misses"] / jobs,
                "schedule.hit_ratio": layers["hits"] / max(layers["hits"] + layers["misses"], 1),
                "plan.replayed_jobs": layers["replayed"] / jobs,
                "plan.compiled_jobs": layers["compiled"] / jobs,
                "plan.fallback_jobs": layers["fallback"] / jobs,
                "certify.rounds": layers["cert_rounds"] / max(layers["certified"], 1),
            })
        return out


WORKLOADS = {
    "warm_resolve": WarmResolve,
    "cold_sweep": ColdSweep,
    "serve_mixed": ServeMixed,
    "tcp_wire": TcpWire,
}
