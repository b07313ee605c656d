"""Shared pieces of the benchmark: seeds, statistics, memory, set-up
timing, the op log, and the per-layer metric table."""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: scratch space for caches, journals and spans; inside the checkout
#: the benchmark runs from, and listed in .gitignore.
WORK_DIR = Path(".perfbench_work")
OUT_DIR = Path(".perfbench_out")

#: set-up is repeated this many times per run and the median reported.
SETUP_REPEATS = 7
IMPORT_TIMEOUT_S = 120.0


def derive_seed(seed: int, *parts) -> int:
    """Deterministic 31-bit seed for one input of one workload."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ChildPeak:
    """Largest peak resident set (``VmHWM``) of this process's live
    children while the block runs, sampled from ``/proc``.

    ``RUSAGE_CHILDREN`` cannot serve: it keeps the largest child ever
    waited for, set-up's import-only interpreters included, which would
    hide a change in the workers' memory."""

    POLL_S = 0.05

    def __init__(self) -> None:
        self.peak_kib = 0
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    @property
    def peak_mb(self) -> float:
        return self.peak_kib / 1024.0

    def __enter__(self) -> "ChildPeak":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._done.set()
        self._thread.join()
        self._sample()

    def _poll(self) -> None:
        while not self._done.wait(self.POLL_S):
            self._sample()

    def _sample(self) -> None:
        for listing in Path(f"/proc/{os.getpid()}/task").glob("*/children"):
            try:
                pids = listing.read_text().split()
            except OSError:
                continue  # the thread ended
            for pid in pids:
                try:
                    status = Path(f"/proc/{pid}/status").read_text()
                except OSError:
                    continue  # the child ended
                for line in status.splitlines():
                    if line.startswith("VmHWM:"):
                        self.peak_kib = max(self.peak_kib, int(line.split()[1]))


def fresh_import(modules: Sequence[str]) -> None:
    """Start a fresh interpreter that imports ``modules`` from the
    checkout's ``src`` (the import part of a workload's set-up).

    The wait blocks in ``waitpid``: ``subprocess.run(timeout=...)``
    polls with sleeps of up to 50 ms, which would round the set-up time
    up to that step.  A timer kills an interpreter that hangs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path("src").resolve())
    proc = subprocess.Popen([sys.executable, "-c", "import " + ", ".join(modules)],
                            env=env, stdout=subprocess.DEVNULL)
    killer = threading.Timer(IMPORT_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    if code:
        raise subprocess.CalledProcessError(code, proc.args)


@dataclass
class OpLog:
    """What the measured loop saw: one entry per attempted op."""

    #: op seconds scaled to the nominal host speed (hostspeed.py).
    seconds: List[float] = field(default_factory=list)
    #: op wall seconds as measured; the run lasts until they add up to
    #: ``--seconds``.
    wall: float = 0.0
    accesses: int = 0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: scaled op seconds per op kind (the app an op simulates).
    by_kind: Dict[str, List[float]] = field(default_factory=dict)

    def ok(self, wall: float, seconds: float, accesses: int, kind: str = "") -> None:
        self.wall += wall
        self.seconds.append(seconds)
        self.accesses += accesses
        self.by_kind.setdefault(kind, []).append(seconds)

    def op_p50(self, skip: Optional[str] = None) -> float:
        """Median op time, taken per kind and averaged over the kinds
        other than ``skip``.

        Ops of different apps differ in cost several-fold; a plain
        median over an even mix would fall between the apps' modes and
        jump between them from run to run."""
        medians = [median(v) for k, v in self.by_kind.items() if k != skip]
        return sum(medians) / len(medians) if medians else 0.0

    def throughput(self) -> float:
        """Accesses per scaled second over all measured ops.

        A total, not per-kind medians: cache-hit jobs wait either no
        supervisor tick or one, so their median jumps between the two
        from run to run."""
        return safe_div(self.accesses, sum(self.seconds))

    def fail(self, index: int, reason: str) -> None:
        self.failures.append(f"op {index}: {reason}")
        print(f"[perfbench] FAILED op {index}: {reason}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return len(self.failures)


def op_error(exc: BaseException) -> str:
    """Print an op's traceback to stderr; return a one-line reason."""
    traceback.print_exception(exc)
    return f"{type(exc).__name__}: {exc}"


def safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


#: every per-layer metric the traced run reports, with its unit.  A
#: layer the workload never calls in-process reports 0.
LAYER_UNITS: Dict[str, str] = {
    "sim.run_self_s": "s",
    "sim.schedule_calls": "count",
    "sim.events_per_access": "ratio",
    "gpu.fast_access_calls": "count",
    "gpu.fast_access_hit_frac": "frac",
    "gpu.fast_access_s": "s",
    "gpu.slow_accesses": "count",
    "fastpath.replayed_frac": "frac",
    "fastpath.try_batch_calls": "count",
    "fastpath.replayed_per_call": "ratio",
    "fastpath.try_batch_s": "s",
    "fastpath.parks": "count",
    "fastpath.vs_event_speedup": "x",
    "tlb.lookup_calls": "count",
    "tlb.lookup_s": "s",
    "tlb.l1_hit_rate": "frac",
    "tlb.l2_hit_rate": "frac",
    "gmmu.demand_walks": "count",
    "gmmu.update_walks": "count",
    "gmmu.inval_walks": "count",
    "gmmu.pwc_hit_rate": "frac",
    "gmmu.walk_s": "s",
    "gmmu.inval_busy_frac": "frac",
    "core.irmb_inserts": "count",
    "core.irmb_merge_frac": "frac",
    "core.irmb_bypasses": "count",
    "core.lazy_idle_writebacks": "count",
    "core.irmb_s": "s",
    "uvm.far_faults": "count",
    "uvm.migrations": "count",
    "uvm.invalidations_sent": "count",
    "uvm.unnecessary_inval_frac": "frac",
    "uvm.far_fault_mean_cycles": "cycles",
    "uvm.migration_wait_mean_cycles": "cycles",
    "uvm.raise_far_fault_s": "s",
    "interconnect.transfers": "count",
    "interconnect.transfer_s": "s",
    "interconnect.nvlink_bytes": "bytes",
    "interconnect.pcie_bytes": "bytes",
    "workloads.build_s": "s",
    "metrics.collect_s": "s",
    "cache.hit_frac": "frac",
    "cache.get_s": "s",
    "cache.put_s": "s",
    "journal.records": "count",
    "journal.record_s": "s",
    "sweep.start_s": "s",
    "sweep.parallel_efficiency": "frac",
    "service.submit_s": "s",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "service.delivery_s": "s",
    "service.queue_depth_max": "count",
    "service.rejected": "count",
    "service.hit_p50_s": "s",
    "service.miss_p90_s": "s",
    "service.jobs_per_s": "1/s",
    "trace_overhead_frac": "frac",
}


def layer_metrics(tracer, extra: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    Host times (``*_s``) are self times summed over the pass; counts
    come from the wrapped calls and from the ``SimulationResult`` of
    every in-process ``MultiGPUSystem.run`` the pass made.
    """
    table = tracer.merged()
    calls, self_s, hits = table.calls, table.self_s, table.hits
    runs = tracer.systems
    results = [run["result"] for run in runs]

    def total(attr: str) -> float:
        return sum(getattr(r, attr) for r in results)

    def weighted(attr: str, weight: str) -> float:
        return safe_div(
            sum(getattr(r, attr) * getattr(r, weight) for r in results), total(weight)
        )

    accesses = total("accesses")
    replayed = sum(run["replayed"] for run in runs)
    inval_received = total("inval_received_necessary") + total("inval_received_unnecessary")
    pwc_hits = sum(r.extras.get("pwc_hits", 0) for r in results)
    pwc_misses = sum(r.extras.get("pwc_misses", 0) for r in results)
    gpu_cycles = sum(r.exec_time * r.num_gpus for r in results)
    cache_gets = calls.get("cache.get", 0)

    out = {name: 0.0 for name in LAYER_UNITS}
    out.update({
        "sim.run_self_s": self_s.get("sim.run", 0.0),
        "sim.schedule_calls": calls.get("sim.schedule", 0),
        "sim.events_per_access": safe_div(sum(run["events"] for run in runs), accesses),
        "gpu.fast_access_calls": calls.get("gpu.try_fast_access", 0),
        "gpu.fast_access_hit_frac": safe_div(
            hits.get("gpu.try_fast_access", 0), calls.get("gpu.try_fast_access", 0)
        ),
        "gpu.fast_access_s": self_s.get("gpu.try_fast_access", 0.0),
        "gpu.slow_accesses": calls.get("gpu.access", 0),
        "fastpath.replayed_frac": safe_div(replayed, accesses),
        "fastpath.try_batch_calls": calls.get("fastpath.try_batch", 0),
        "fastpath.replayed_per_call": safe_div(replayed, calls.get("fastpath.try_batch", 0)),
        "fastpath.try_batch_s": self_s.get("fastpath.try_batch", 0.0),
        "fastpath.parks": sum(run["parks"] for run in runs),
        "tlb.lookup_calls": calls.get("tlb.lookup", 0),
        "tlb.lookup_s": self_s.get("tlb.lookup", 0.0),
        "tlb.l1_hit_rate": safe_div(total("l1_hits"), total("l1_hits") + total("l1_misses")),
        "tlb.l2_hit_rate": safe_div(total("l2_hits"), total("l2_hits") + total("l2_misses")),
        "gmmu.demand_walks": total("demand_walks"),
        "gmmu.update_walks": total("update_walks"),
        "gmmu.inval_walks": total("inval_walks"),
        "gmmu.pwc_hit_rate": safe_div(pwc_hits, pwc_hits + pwc_misses),
        "gmmu.walk_s": self_s.get("gmmu.walk", 0.0) + self_s.get("gmmu.submit", 0.0),
        "gmmu.inval_busy_frac": safe_div(
            sum(r.inval_busy_fraction * r.exec_time * r.num_gpus for r in results), gpu_cycles
        ),
        "core.irmb_inserts": total("irmb_inserts"),
        "core.irmb_merge_frac": safe_div(total("irmb_merged_inserts"), total("irmb_inserts")),
        "core.irmb_bypasses": total("irmb_bypasses"),
        "core.lazy_idle_writebacks": total("irmb_idle_writebacks"),
        "core.irmb_s": sum(v for k, v in self_s.items() if k.startswith("core.")),
        "uvm.far_faults": total("far_faults"),
        "uvm.migrations": total("migrations"),
        "uvm.invalidations_sent": total("invalidations_sent"),
        "uvm.unnecessary_inval_frac": safe_div(total("inval_received_unnecessary"), inval_received),
        "uvm.far_fault_mean_cycles": weighted("far_fault_mean_latency", "far_faults"),
        "uvm.migration_wait_mean_cycles": weighted("migration_waiting_mean", "migrations"),
        "uvm.raise_far_fault_s": self_s.get("uvm.raise_far_fault", 0.0),
        "interconnect.transfers": calls.get("interconnect.transfer", 0),
        "interconnect.transfer_s": self_s.get("interconnect.transfer", 0.0),
        "interconnect.nvlink_bytes": total("nvlink_bytes"),
        "interconnect.pcie_bytes": total("pcie_bytes"),
        "workloads.build_s": self_s.get("workloads.build", 0.0) + self_s.get("workloads.init", 0.0),
        "metrics.collect_s": self_s.get("metrics.collect", 0.0),
        "cache.hit_frac": safe_div(hits.get("cache.get", 0), cache_gets),
        "cache.get_s": self_s.get("cache.get", 0.0),
        "cache.put_s": self_s.get("cache.put", 0.0),
        "journal.records": calls.get("journal.record", 0),
        "journal.record_s": self_s.get("journal.record", 0.0),
        "service.submit_s": self_s.get("service.submit", 0.0),
    })
    out.update(extra or {})
    return out
