"""The ``figure_sweep`` workload: one supervised figure sweep per op.

Each op is ``ParallelRunner(jobs=2, cache=<fresh cache>).run_figure(
fig13_invalidation_requests)`` at a reduced trace sizing the benchmark
pins — the path ``repro figure fig13 --jobs 2`` takes.  It is the only
workload with two worker processes, grid discovery and dedup, the sweep
journal and the cache prefetch.

Every op is checked: the figure's series equal a serial
``ExperimentRunner`` run on the same inputs, the sweep journal marks
every task done (none quarantined), and every cached result equals the
serial run's result under the same content-addressed key.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter

from common import OpLog, derive_seed, geomean, layer_metrics, median, op_error, safe_div
from hostspeed import ParallelHostSpeed
from tracer import Tracer, install

from repro.config import InvalidationScheme
from repro.experiments.cache import ResultCache
from repro.experiments.figures import fig13_invalidation_requests
from repro.experiments.journal import journal_path, merged_terminal_keys
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import ExperimentRunner

FIGURE = fig13_invalidation_requests


class _RecordingRunner(ExperimentRunner):
    """Serial runner that notes every run the figure asks for."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.requests = []

    def run(self, app, config, scale=1.0):
        if (app, config, scale) not in self.requests:
            self.requests.append((app, config, scale))
        return super().run(app, config, scale)


class FigureSweep:
    name = "figure_sweep"
    modules = ("repro.experiments.parallel", "repro.experiments.figures")

    LANES, ACCESSES, JOBS = 2, 150, 2
    #: every run measures at least this many sweeps, so the median of
    #: their scaled times is steady.
    MIN_OPS = 10

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.sweep_seed = derive_seed(seed, self.name)
        self._caches = 0
        self._reference = None

    def _cache(self) -> ResultCache:
        self._caches += 1
        return ResultCache(self.work / f"sweep-{self._caches}", remote=False)

    def setup(self):
        return {}

    def teardown(self, state) -> None:
        pass

    def reference(self):
        """``(series, {cache key: (app, config, scale, result)}, seconds)``
        of a serial in-process run of the figure (memoised)."""
        if self._reference is None:
            runner = _RecordingRunner(lanes=self.LANES, accesses_per_lane=self.ACCESSES,
                                      seed=self.sweep_seed)
            start = perf_counter()
            series = FIGURE(runner)
            elapsed = perf_counter() - start
            grid = {
                runner.disk_key(app, config, scale): (app, config, scale,
                                                      runner.run(app, config, scale))
                for app, config, scale in runner.requests
            }
            self._reference = (series, grid, elapsed)
        return self._reference

    def runner(self, cache: ResultCache) -> ParallelRunner:
        return ParallelRunner(lanes=self.LANES, accesses_per_lane=self.ACCESSES,
                              seed=self.sweep_seed, jobs=self.JOBS, cache=cache)

    def run_op(self):
        """One timed sweep; returns (seconds, series, cache)."""
        cache = self._cache()
        runner = self.runner(cache)
        start = perf_counter()
        series = runner.run_figure(FIGURE)
        return perf_counter() - start, series, cache

    def check(self, series, cache: ResultCache) -> str:
        ref_series, grid, _ = self.reference()
        if series != ref_series:
            return "figure series differ from a serial ExperimentRunner run"
        states = merged_terminal_keys(journal_path(cache.root, FIGURE.__name__))
        if set(states) != set(grid) or set(states.values()) != {"done"}:
            return f"sweep journal is not all-done over the grid: {sorted(set(states.values()))}"
        for key, (_app, _config, _scale, result) in grid.items():
            if cache.get(key) != result:
                return f"cached result {key[:12]} differs from the serial run"
        return ""

    def grid_accesses(self) -> int:
        return sum(entry[3].accesses for entry in self.reference()[1].values())

    def speedup(self) -> float:
        """Broadcast/IDYLL exec_time over the figure's apps."""
        by_app = {}
        for *_, result in self.reference()[1].values():
            by_app.setdefault(result.workload, {})[result.scheme] = result.exec_time
        return geomean(
            times[InvalidationScheme.BROADCAST.value] / times[InvalidationScheme.IDYLL.value]
            for times in by_app.values()
        )

    def measure(self, state, seconds: float):
        log = OpLog()
        self.reference()  # untimed, before the loop
        with ParallelHostSpeed(runs=2) as speed:
            index = 0
            while not log.failures and (index < self.MIN_OPS or log.wall < seconds):
                log.attempted += 1
                try:
                    speed.refresh()  # the previous op's check ran since
                    elapsed, series, cache = self.run_op()
                    scaled = speed.scale(elapsed)
                    problem = self.check(series, cache)
                except Exception as exc:  # an op that raises is a failed op
                    problem = op_error(exc)
                if problem:
                    log.fail(index, problem)
                else:
                    log.ok(elapsed, scaled, self.grid_accesses())
                index += 1
        return {
            "accesses_per_s": log.throughput(),
            "op_p50_s": log.op_p50(),
            "idyll_speedup": self.speedup(),
        }, log

    def traced(self, state, seconds: float):
        """One sweep untraced, then the same sweep and a warm re-run on
        its cache traced.  The output checks run after the wrappers are
        removed, so only the program's calls are counted."""
        log = OpLog()
        tracer = Tracer()
        _, _, serial_s = self.reference()
        log.attempted += 2
        plain_s, series, cache = self.run_op()
        problem = self.check(series, cache)
        install(tracer)
        try:
            tracer.begin_op()
            traced_s, traced_series, traced_cache = self.run_op()
            # A warm re-run on the same cache is served from it (too
            # short to time end to end); it shows up as cache hits.
            tracer.begin_op()
            warm = self.runner(traced_cache).run_figure(FIGURE)
        finally:
            tracer.uninstall()
        if problem:
            log.fail(0, problem)
        problem = self.check(traced_series, traced_cache)
        if not problem and warm != traced_series:
            problem = "warm re-run series differ from the cold run"
        if problem:
            log.fail(1, problem)
        log.seconds.append(plain_s)
        log.accesses = self.grid_accesses()
        extra = {
            "sweep.start_s": median(tracer.sweep_starts),
            "sweep.parallel_efficiency": safe_div(serial_s, plain_s * self.JOBS),
            "trace_overhead_frac": safe_div(traced_s, plain_s) - 1.0,
        }
        return layer_metrics(tracer, extra), log, tracer
