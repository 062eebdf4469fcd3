"""Per-layer timing from outside the program.

:func:`install` wraps the public functions of each ``repro`` layer (the
supported-instance preprocessing, the algorithms, the network and its
schedule cache, the serve pool and the socket transport) in place, in
every module that has imported them, so the program runs unchanged
while a :class:`Tracer` records how long each layer ran.

A layer's *self time* is the wall time of its calls less the time of
traced calls nested inside them, so the self times of all layers and
the untraced remainder add up to the operation's wall time.  Calls of
one layer nested in the same layer (``exchange`` -> ``exchange_arrays``)
count once.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

#: (layer, dotted path of the public function or method) pairs wrapped by
#: :func:`install`.  Every layer name becomes ``<layer>_ms`` in the output.
TIMED = (
    ("supported.triangles", "repro.supported.triangles:TriangleSet.from_instance"),
    ("supported.clustering", "repro.supported.clustering:extract_clustering"),
    ("supported.deal", "repro.supported.instance:SupportedInstance.deal_into"),
    ("supported.collect", "repro.supported.instance:SupportedInstance.collect_result"),
    ("algorithms.select", "repro.algorithms.api:select_algorithm"),
    ("algorithms.init_outputs", "repro.algorithms.base:init_outputs"),
    ("algorithms.lemma31", "repro.algorithms.fewtriangles:process_few_triangles"),
    ("algorithms.dense", "repro.algorithms.dense:cluster_solve_3d"),
    ("algorithms.dense", "repro.algorithms.dense:dense_3d"),
    ("algorithms.dense", "repro.algorithms.dense:sparse_3d"),
    ("algorithms.dense", "repro.algorithms.dense:dense_strassen"),
    ("network.exchange", "repro.model.network:LowBandwidthNetwork.exchange"),
    ("network.exchange", "repro.model.network:LowBandwidthNetwork.exchange_arrays"),
    ("network.exchange", "repro.model.network:LowBandwidthNetwork.segmented_broadcast"),
    ("network.exchange", "repro.model.network:LowBandwidthNetwork.segmented_convergecast"),
    ("schedule.compute", "repro.model.schedule_cache:ScheduleCache.get_or_compute"),
    ("transport.start", "repro.transport.socket_mesh:SocketTransport.ensure_started"),
    ("transport.step", "repro.transport.socket_mesh:SocketTransport.deliver_step"),
    ("transport.close", "repro.transport.socket_mesh:SocketTransport.close"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _ in TIMED))


class Tracer:
    """Self time per layer, safe to call from threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.self_ns: dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        with self._lock:
            self.self_ns.clear()

    def snapshot(self) -> dict:
        """Totals so far as plain dicts (picklable across processes)."""
        with self._lock:
            return {"self_ns": dict(self.self_ns)}

    def add(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` taken elsewhere into these totals."""
        with self._lock:
            for layer, ns in snap["self_ns"].items():
                self.self_ns[layer] += ns

    def wrap(self, layer: str, fn):
        """``fn`` with its self time charged to ``layer``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            outer = stack[-1] if stack else None
            if outer is not None and outer[0] == layer:
                return fn(*args, **kwargs)  # same layer: already timed
            frame = [layer, 0]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - t0
                stack.pop()
                if outer is not None:
                    outer[1] += elapsed
                with self._lock:
                    self.self_ns[layer] += elapsed - frame[1]

        return traced


def _resolve(path: str):
    module_name, _, attr = path.partition(":")
    module = __import__(module_name, fromlist=["_"])
    owner = module
    *parents, name = attr.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module global and ``repro`` registry dict
    entry that holds ``original`` at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict) and attr.isupper():
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement


def install(tracer: Tracer) -> None:
    """Wrap every function in :data:`TIMED`; call once per process, after
    ``repro`` is imported and before any worker process is forked."""
    import repro.algorithms  # noqa: F401  (load every module that binds them)
    import repro.analysis.sweeps  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.transport.socket_mesh  # noqa: F401

    for layer, path in TIMED:
        owner, name = _resolve(path)
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(raw, classmethod):
            setattr(owner, name, classmethod(tracer.wrap(layer, raw.__func__)))
        elif isinstance(owner, type):
            setattr(owner, name, tracer.wrap(layer, raw))
        else:
            _rebind(raw, tracer.wrap(layer, raw))


class BatchClock:
    """Wall time of each :meth:`ServePool.run_batch` call, keyed by the
    ids of the jobs it carried (the front end calls it from threads)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.by_job: dict[int, float] = {}
        self.batches: list[tuple[float, list[int]]] = []

    def reset(self) -> None:
        with self._lock:
            self.by_job.clear()
            self.batches.clear()

    def install(self) -> None:
        from repro.serve.pool import ServePool

        original = ServePool.run_batch
        clock = self

        @functools.wraps(original)
        def run_batch(pool, jobs):
            t0 = time.perf_counter()
            try:
                return original(pool, jobs)
            finally:
                wall = time.perf_counter() - t0
                ids = [job.job_id for job in jobs]
                with clock._lock:
                    clock.batches.append((wall, ids))
                    for job_id in ids:
                        clock.by_job[job_id] = wall

        ServePool.run_batch = run_batch
