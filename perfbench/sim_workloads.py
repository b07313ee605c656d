"""The two in-process simulator workloads.

``app_sim`` — one ``simulate()`` call per op at figure sizing, rotating
PR and SC under broadcast and IDYLL.  The shared working set keeps the
engine, GMMU walks, UVM driver and links busy; the replay fast path
never engages, so a fast-path change should leave it flat.

``resident_replay`` — one ``MultiGPUSystem.run`` per op on a private,
TLB-resident trace the benchmark builds itself.  After the first-touch
faults every access is a local L1 hit, so the replay tier does nearly
all the work.  Ops alternate IDYLL and broadcast on the same trace;
with no sharing the two must simulate the same time.

Every op is checked: the run completed, simulated exactly the trace's
accesses, and equals the event-path (``fastpath_enabled=False``) result
for the same inputs, which is computed outside the timed region.
"""

from __future__ import annotations

import random
from time import perf_counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from common import OpLog, derive_seed, geomean, layer_metrics, op_error, safe_div
from hostspeed import HostSpeed
from tracer import Tracer, install

from repro.config import InvalidationScheme, SystemConfig, baseline_config
from repro.experiments.runner import build_app_workload, simulate
from repro.gpu.system import MultiGPUSystem
from repro.metrics.collector import SimulationResult
from repro.workloads.base import Workload

SCHEMES = (InvalidationScheme.BROADCAST, InvalidationScheme.IDYLL)


def check_result(result: SimulationResult, expected_accesses: int,
                 reference: SimulationResult) -> str:
    """Empty string when ``result`` passes the op checks, else why not."""
    if result.aborted:
        return f"run aborted: {result.abort_reason}"
    if result.accesses != expected_accesses:
        return f"simulated {result.accesses} accesses, trace has {expected_accesses}"
    if result != reference:
        return "result differs from the event-path result for the same inputs"
    return ""


def pair_speedups(results: Dict[Tuple, SimulationResult]) -> List[float]:
    """Broadcast/IDYLL exec_time ratios over keys ``(*k, scheme)``
    present under both schemes."""
    ratios = []
    for key, base in sorted(results.items(), key=lambda kv: str(kv[0])):
        if key[-1] is not InvalidationScheme.BROADCAST:
            continue
        idyll = results.get(key[:-1] + (InvalidationScheme.IDYLL,))
        if idyll is not None and idyll.exec_time:
            ratios.append(base.exec_time / idyll.exec_time)
    return ratios


@dataclass
class ObservedPass:
    """Results and host times of :func:`observed_pass`."""

    results: Dict[object, SimulationResult] = field(default_factory=dict)
    default_s: float = 0.0
    event_s: float = 0.0
    traced_s: float = 0.0


def observed_pass(tracer: Tracer, ops, log: OpLog) -> ObservedPass:
    """Run each ``(key, run, expected accesses or None)`` op three ways:
    untraced on the default path, untraced on the event path, and
    traced on the default path.  ``run(fastpath)`` returns a
    SimulationResult; the three must be equal, so the event path checks
    the replay tier and the traced run checks that the wrappers only
    observe."""
    out = ObservedPass()
    for index, (key, run, expected) in enumerate(ops):
        start = perf_counter()
        plain = run(True)
        out.default_s += perf_counter() - start
        start = perf_counter()
        reference = run(False)
        out.event_s += perf_counter() - start
        install(tracer)
        try:
            tracer.begin_op()
            start = perf_counter()
            observed = run(True)
            out.traced_s += perf_counter() - start
        finally:
            tracer.uninstall()
        problem = check_result(plain, plain.accesses if expected is None else expected,
                               reference)
        if not problem and observed != plain:
            problem = "traced result differs from the untraced result"
        if problem:
            log.fail(index, f"{key}: {problem}")
        out.results[key] = plain
    return out


class AppSim:
    name = "app_sim"
    modules = ("repro.experiments.runner",)

    GPUS, LANES, ACCESSES = 4, 4, 1200
    APPS = ("PR", "SC")
    #: every run measures at least this many whole rotations
    #: (PR and SC, each under both schemes); idyll_speedup is taken over
    #: exactly these, so it repeats exactly for a seed.
    MIN_ROTATIONS = 3

    def __init__(self, seed: int, work=None) -> None:
        self.seed = seed

    def op(self, index: int) -> Tuple[str, InvalidationScheme, int, int]:
        rotation = index // 4
        app = self.APPS[(index // 2) % 2]
        return app, SCHEMES[index % 2], derive_seed(self.seed, self.name, rotation), rotation

    def config(self, scheme: InvalidationScheme) -> SystemConfig:
        return baseline_config(self.GPUS).with_scheme(scheme)

    def setup(self):
        return {}

    def teardown(self, state) -> None:
        pass

    def _simulate(self, app: str, config: SystemConfig, seed: int, workload=None):
        return simulate(app, config, lanes=self.LANES, accesses_per_lane=self.ACCESSES,
                        seed=seed, workload=workload)

    def _reference(self, app: str, scheme, seed: int):
        workload = build_app_workload(
            app, num_gpus=self.GPUS, page_size=4096, scale=1.0, lanes=self.LANES,
            accesses_per_lane=self.ACCESSES, seed=seed,
        )
        event = self._simulate(app, self.config(scheme).with_fastpath(False), seed, workload)
        return workload.total_accesses(), event

    def measure(self, state, seconds: float):
        log = OpLog()
        speed = HostSpeed(runs=4)
        results: Dict[Tuple, SimulationResult] = {}
        index = 0
        # A failed op ends the loop: its time never adds to log.wall.
        while not log.failures and (index < 4 * self.MIN_ROTATIONS or index % 4
                                    or log.wall < seconds):
            app, scheme, seed, rotation = self.op(index)
            log.attempted += 1
            try:
                speed.refresh()  # the previous op's check ran since
                start = perf_counter()
                result = self._simulate(app, self.config(scheme), seed)
                elapsed = perf_counter() - start
                scaled = speed.scale(elapsed)
                expected, reference = self._reference(app, scheme, seed)
                problem = check_result(result, expected, reference)
            except Exception as exc:  # an op that raises is a failed op
                problem = op_error(exc)
            if problem:
                log.fail(index, problem)
            else:
                log.ok(elapsed, scaled, result.accesses, app)
                if rotation < self.MIN_ROTATIONS:
                    results[(rotation, app, scheme)] = result
            index += 1
        speedups = pair_speedups(results)
        if len(speedups) != 2 * self.MIN_ROTATIONS:
            log.fail(index, "missing broadcast/IDYLL pairs for idyll_speedup")
        return {
            "accesses_per_s": log.throughput(),
            "op_p50_s": log.op_p50(),
            "idyll_speedup": geomean(speedups),
        }, log

    def traced(self, state, seconds: float):
        """One rotation through :func:`observed_pass`."""
        log = OpLog()
        tracer = Tracer()
        ops = []
        for index in range(4):
            app, scheme, seed, _ = self.op(index)
            expected, _ = self._reference(app, scheme, seed)

            def run(fastpath, app=app, scheme=scheme, seed=seed):
                config = self.config(scheme).with_fastpath(fastpath)
                return self._simulate(app, config, seed)

            ops.append(((app, scheme.value), run, expected))
        log.attempted = len(ops)
        ran = observed_pass(tracer, ops, log)
        log.accesses = sum(r.accesses for r in ran.results.values())
        log.seconds.append(ran.default_s)
        extra = {
            "fastpath.vs_event_speedup": safe_div(ran.event_s, ran.default_s),
            "trace_overhead_frac": safe_div(ran.traced_s, ran.default_s) - 1.0,
        }
        return layer_metrics(tracer, extra), log, tracer


def build_resident_trace(seed: int, gpus: int, lanes: int, pages: int,
                         accesses: int, gap_max: int, write_one_in: int) -> Workload:
    """Each lane cycles over its own ``pages`` private pages (a shuffled
    order drawn from ``seed``), one access in ``write_one_in`` a write."""
    rng = random.Random(seed)
    traces = []
    for gpu in range(gpus):
        gpu_traces = []
        for lane in range(lanes):
            base = 0x100000 + (gpu * lanes + lane) * 4 * pages + rng.randrange(2 * pages)
            order = [base + p for p in range(pages)]
            rng.shuffle(order)
            gpu_traces.append([
                (rng.randrange(gap_max), order[i % pages], rng.randrange(write_one_in) == 0)
                for i in range(accesses)
            ])
        traces.append(gpu_traces)
    return Workload("resident", traces)


class ResidentReplay:
    name = "resident_replay"
    modules = ("repro.gpu.system", "repro.workloads.base")

    GPUS, LANES, PAGES, ACCESSES = 4, 4, 16, 500
    GAP_MAX, WRITE_ONE_IN = 8, 7
    #: at least one op under each scheme per run.
    MIN_OPS = 2

    def __init__(self, seed: int, work=None) -> None:
        self.seed = seed

    def setup(self):
        trace = build_resident_trace(
            derive_seed(self.seed, self.name), self.GPUS, self.LANES, self.PAGES,
            self.ACCESSES, self.GAP_MAX, self.WRITE_ONE_IN,
        )
        return {"trace": trace, "references": {}}

    def teardown(self, state) -> None:
        pass

    def config(self, scheme: InvalidationScheme) -> SystemConfig:
        return baseline_config(self.GPUS).with_scheme(scheme)

    def _run(self, config: SystemConfig, trace: Workload):
        system = MultiGPUSystem(config, seed=self.seed)
        start = perf_counter()
        result = system.run(trace)
        return result, perf_counter() - start

    def _reference(self, state, scheme):
        refs = state["references"]
        if scheme not in refs:
            refs[scheme] = self._run(self.config(scheme).with_fastpath(False), state["trace"])
        return refs[scheme]

    def measure(self, state, seconds: float):
        log = OpLog()
        speed = HostSpeed(runs=2)
        trace = state["trace"]
        expected = trace.total_accesses()
        for scheme in SCHEMES:
            self._reference(state, scheme)  # untimed, before the loop
        results: Dict[Tuple, SimulationResult] = {}
        index = 0
        while not log.failures and (index < self.MIN_OPS or log.wall < seconds):
            scheme = SCHEMES[1 - index % 2]
            log.attempted += 1
            try:
                result, elapsed = self._run(self.config(scheme), trace)
                scaled = speed.scale(elapsed)
                problem = check_result(result, expected, self._reference(state, scheme)[0])
            except Exception as exc:  # an op that raises is a failed op
                problem = op_error(exc)
            if problem:
                log.fail(index, problem)
            else:
                log.ok(elapsed, scaled, result.accesses)
                results.setdefault((scheme,), result)
            index += 1
        speedups = pair_speedups(results)
        if len(speedups) != 1:
            log.fail(index, "missing broadcast/IDYLL pair for idyll_speedup")
        return {
            "accesses_per_s": log.throughput(),
            "op_p50_s": log.op_p50(),
            "idyll_speedup": geomean(speedups),
        }, log

    def traced(self, state, seconds: float):
        """One op per scheme through :func:`observed_pass`."""
        log = OpLog()
        tracer = Tracer()
        # The trace build is this workload's set-up; trace one rebuild so
        # workloads.build_s shows the program's share of it.
        install(tracer)
        try:
            trace = self.setup()["trace"]
        finally:
            tracer.uninstall()
        ops = []
        for scheme in (InvalidationScheme.IDYLL, InvalidationScheme.BROADCAST):
            def run(fastpath, scheme=scheme):
                return self._run(self.config(scheme).with_fastpath(fastpath), trace)[0]

            ops.append((scheme.value, run, trace.total_accesses()))
        log.attempted = len(ops)
        ran = observed_pass(tracer, ops, log)
        log.accesses = sum(r.accesses for r in ran.results.values())
        log.seconds.append(ran.default_s)
        extra = {
            "fastpath.vs_event_speedup": safe_div(ran.event_s, ran.default_s),
            "trace_overhead_frac": safe_div(ran.traced_s, ran.default_s) - 1.0,
        }
        return layer_metrics(tracer, extra), log, tracer
