"""Span tracer that observes the simulator from outside.

:func:`install` replaces public methods of the program's layer classes
with thin wrappers for the duration of a traced pass, and
:func:`Tracer.uninstall` puts the originals back.  Nothing in ``src/``
is edited: the wrappers only time and count the calls, so a traced run
must produce results equal to an untraced one (the benchmark checks
that).

Three wrapper kinds:

* ``timed``  — a span per call (name, start, end, parent span, op id);
* ``count``  — a call counter only, for methods called once per
  simulated event, where a span per call would dwarf the work;
* ``gen``    — for methods that return generators (``GPU.access``,
  ``GPU.translate``): creation is counted, and every resume of the
  generator is a span, so a layer's self time is its span time minus
  the time of the spans nested inside it.

State lives per thread (the job service runs HTTP handler and scheduler
threads), so nesting and self time stay correct under concurrency; the
per-thread tables are merged when the pass ends.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LAYER_HOOKS", "Tracer", "install"]

#: (module, attribute path, span name, kind).  A dotted attribute path
#: names a method on a class; a bare name is a module-level function
#: looked up at call time by its callers.
LAYER_HOOKS: List[Tuple[str, str, str, str]] = [
    ("repro.sim.engine", "Engine.run", "sim.run", "timed"),
    ("repro.sim.engine", "Engine.schedule", "sim.schedule", "count"),
    ("repro.gpu.system", "MultiGPUSystem.run", "system.run", "timed"),
    ("repro.gpu.gpu", "GPU.try_fast_access", "gpu.try_fast_access", "timed"),
    ("repro.gpu.gpu", "GPU.access", "gpu.access", "gen"),
    ("repro.gpu.gpu", "GPU.translate", "gpu.translate", "gen"),
    ("repro.gpu.fastpath", "FastPath.try_batch", "fastpath.try_batch", "timed"),
    ("repro.gpu.fastpath", "FastPath.park", "fastpath.park", "count"),
    ("repro.tlb.tlb", "TLB.lookup", "tlb.lookup", "timed"),
    ("repro.gmmu.gmmu", "GMMU.walk", "gmmu.walk", "timed"),
    ("repro.gmmu.gmmu", "GMMU.submit", "gmmu.submit", "timed"),
    ("repro.core.irmb", "IRMB.insert", "core.irmb.insert", "timed"),
    ("repro.core.irmb", "IRMB.lookup", "core.irmb.lookup", "timed"),
    ("repro.core.irmb", "IRMB.remove", "core.irmb.remove", "timed"),
    ("repro.core.lazy", "LazyInvalidationController.accept_invalidation",
     "core.lazy.accept_invalidation", "timed"),
    ("repro.core.lazy", "LazyInvalidationController.on_new_mapping",
     "core.lazy.on_new_mapping", "timed"),
    ("repro.core.lazy", "LazyInvalidationController.probe", "core.lazy.probe", "timed"),
    ("repro.uvm.driver", "UVMDriver.raise_far_fault", "uvm.raise_far_fault", "timed"),
    ("repro.interconnect.link", "Link.transfer", "interconnect.transfer", "timed"),
    ("repro.workloads.base", "Workload.__init__", "workloads.init", "timed"),
    ("repro.experiments.runner", "build_app_workload", "workloads.build", "timed"),
    ("repro.metrics.collector", "collect", "metrics.collect", "timed"),
    ("repro.experiments.cache", "ResultCache.get", "cache.get", "timed"),
    ("repro.experiments.cache", "ResultCache.put", "cache.put", "timed"),
    ("repro.experiments.journal", "SweepJournal.record", "journal.record", "timed"),
    ("repro.experiments.parallel", "ParallelRunner.run_figure", "sweep.run_figure", "timed"),
    ("repro.experiments.parallel", "SweepSupervisor.step", "sweep.step", "timed"),
    ("repro.service.manager", "JobManager.submit", "service.submit", "timed"),
]


#: spans kept in memory per traced pass; later ones are only counted.
SPAN_LIMIT = 100_000


class _ThreadState(threading.local):
    def __init__(self) -> None:
        #: open spans: [name, start, child_seconds, span_id]
        self.stack: List[list] = []
        self.table: Optional["_Table"] = None


class _Table:
    """Aggregates of one thread."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.hits: Dict[str, int] = defaultdict(int)


class Tracer:
    """Spans in memory plus per-name call counts and self time."""

    def __init__(self) -> None:
        #: (span id, name, start, end, parent span id or -1, op id)
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        self.dropped = 0
        self.op_id = 0
        #: perf_counter() at the start of the current op, and the
        #: latency of the first sweep-supervisor step after it (the
        #: sweep's start-up: grid discovery, cache prefetch, spawn).
        self.op_start = 0.0
        self.sweep_starts: List[float] = []
        self._first_step_seen = True
        #: per-run facts read off each finished MultiGPUSystem, with its
        #: SimulationResult.
        self.systems: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._tables: List[_Table] = []
        self._local = _ThreadState()
        self._restore: List[Callable[[], None]] = []

    # -- op boundaries ----------------------------------------------------

    def begin_op(self) -> None:
        self.op_id += 1
        self.op_start = perf_counter()
        self._first_step_seen = False

    # -- recording ----------------------------------------------------------

    def _table(self) -> _Table:
        table = self._local.table
        if table is None:
            table = self._local.table = _Table()
            with self._lock:
                self._tables.append(table)
        return table

    def _enter(self, name: str) -> list:
        frame = [name, perf_counter(), 0.0, next(self._ids)]
        self._local.stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        stack = self._local.stack
        stack.pop()
        name, start, child, span_id = frame
        duration = end - start
        table = self._table()
        table.self_s[name] += duration - child
        table.total_s[name] += duration
        parent = -1
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][3]
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append((span_id, name, start, end, parent, self.op_id))
        else:
            self.dropped += 1

    def _wrap_timed(self, name: str, fn: Callable) -> Callable:
        tracer = self
        is_fast_access = name == "gpu.try_fast_access"
        is_cache_get = name == "cache.get"
        is_system_run = name == "system.run"
        is_step = name == "sweep.step"

        def wrapper(*args, **kwargs):
            if is_step and not tracer._first_step_seen:
                tracer._first_step_seen = True
                tracer.sweep_starts.append(perf_counter() - tracer.op_start)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            table = tracer._table()
            table.calls[name] += 1
            if (is_fast_access or is_cache_get) and result is not None:
                table.hits[name] += 1
            if is_system_run:
                system = args[0]
                fastpath = system.fastpath
                tracer.systems.append({
                    "events": system.engine._seq,
                    "replayed": fastpath.replayed if fastpath is not None else 0,
                    "parks": fastpath.parks if fastpath is not None else 0,
                    "result": result,
                })
            return result

        return wrapper

    def _wrap_count(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._table().calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_gen(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def resumes(gen):
            value: Any = None
            error: Optional[BaseException] = None
            while True:
                frame = tracer._enter(name)
                try:
                    if error is None:
                        step = gen.send(value)
                    else:
                        step = gen.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    tracer._exit(frame)
                error = None
                try:
                    value = yield step
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # forwarded into the wrapped generator
                    error = exc
                    value = None

        def wrapper(*args, **kwargs):
            tracer._table().calls[name] += 1
            return resumes(fn(*args, **kwargs))

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _patch(self, module_name: str, path: str, name: str, kind: str) -> None:
        module = importlib.import_module(module_name)
        owner: Any = module
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        make = {"timed": self._wrap_timed, "count": self._wrap_count,
                "gen": self._wrap_gen}[kind]
        setattr(owner, attr, make(name, original))
        self._restore.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- results --------------------------------------------------------------

    def merged(self) -> _Table:
        out = _Table()
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for field in ("calls", "self_s", "total_s", "hits"):
                target = getattr(out, field)
                for key, value in getattr(table, field).items():
                    target[key] += value
        return out

    def self_time_table(self) -> List[Tuple[str, int, float, float]]:
        """``(span name, calls, self seconds, total seconds)`` rows,
        largest self time first."""
        table = self.merged()
        names = set(table.calls) | set(table.self_s)
        rows = [
            (name, table.calls.get(name, 0), table.self_s.get(name, 0.0),
             table.total_s.get(name, 0.0))
            for name in names
        ]
        return sorted(rows, key=lambda row: (-row[2], row[0]))

    def write(self, path: Path, extra: Dict[str, Any]) -> None:
        """Write the spans and the self-time table as one JSON file."""
        doc = {
            "spans_fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "self_time": [
                {"name": n, "calls": c, "self_s": s, "total_s": t}
                for n, c, s, t in self.self_time_table()
            ],
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def install(tracer: Tracer) -> Tracer:
    """Wrap every hook; returns ``tracer`` (call ``uninstall`` after)."""
    try:
        for hook in LAYER_HOOKS:
            tracer._patch(*hook)
    except BaseException:
        tracer.uninstall()
        raise
    return tracer
