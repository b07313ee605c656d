"""The ``job_service`` workload: jobs over HTTP to an in-process server.

One closed-loop client (one connection at a time) drives a
``JobHTTPServer`` on 127.0.0.1:0 backed by ``JobManager(workers=1)`` and
a fresh ``ResultCache``.  Each op is one job: ``POST /jobs``, stream the
SSE events until a terminal one, ``GET .../artifact``.  Jobs are small
``run`` jobs (PR/SC under broadcast and IDYLL), so admission, dispatch,
the fsync'd job journal, SSE and the cache dominate.  Three jobs in four
use a fresh seed (cache miss); the fourth repeats an earlier spec
(cache hit).

Every artifact must be byte-equal to ``result_to_json_bytes`` of an
in-process ``simulate()`` of the same spec, and every request carries a
client timeout: a job that does not finish in time is a failed op.
"""

from __future__ import annotations

import http.client
import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from common import (OpLog, derive_seed, geomean, layer_metrics, median, percentile,
                    safe_div)
from hostspeed import HostSpeed
from sim_workloads import SCHEMES, pair_speedups
from tracer import Tracer, install

from repro.config import InvalidationScheme, baseline_config
from repro.experiments.cache import ResultCache
from repro.experiments.runner import simulate
from repro.metrics.export import result_to_json_bytes
from repro.service.manager import JobManager
from repro.service.server import JobHTTPServer

_TERMINAL = ("done", "failed")


@dataclass
class JobRow:
    """One job that passed its checks."""

    index: int
    latency: float
    is_hit: bool
    pair: int
    spec: dict
    artifact: bytes
    events: List[dict]
    record: Optional[dict]


class JobTimeout(Exception):
    """A job did not reach a terminal state within the client deadline."""


class Client:
    """Minimal blocking HTTP client; one connection open at a time."""

    def __init__(self, address: Tuple[str, int], timeout: float) -> None:
        self.host, self.port = address
        self.timeout = timeout

    def _open(self, method: str, path: str, body: Optional[bytes] = None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        return conn, conn.getresponse()

    def call(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        conn, response = self._open(method, path, body)
        try:
            return response.status, response.read()
        finally:
            conn.close()

    def events_until_terminal(self, job_id: str, deadline: float) -> List[dict]:
        """Read the job's SSE stream until a terminal event."""
        conn, response = self._open("GET", f"/jobs/{job_id}/events")
        events: List[dict] = []
        try:
            if response.status != 200:
                raise ValueError(f"events stream answered {response.status}")
            while True:
                if perf_counter() > deadline:
                    raise JobTimeout(f"job {job_id} not terminal before the deadline")
                line = response.readline()
                if not line:
                    raise ValueError(f"event stream of {job_id} ended before a terminal event")
                if line.startswith(b"data: "):
                    event = json.loads(line[6:])
                    events.append(event)
                    if event["event"] in _TERMINAL:
                        return events
        finally:
            conn.close()

    def run_job(self, spec: dict) -> Tuple[float, str, bytes, List[dict]]:
        """Submit, follow, fetch; returns (latency, job id, artifact, events)."""
        start = perf_counter()
        deadline = start + self.timeout
        status, body = self.call("POST", "/jobs", json.dumps(spec).encode())
        if status != 202:
            raise ValueError(f"POST /jobs answered {status}: {body[:200]!r}")
        job_id = json.loads(body)["id"]
        events = self.events_until_terminal(job_id, deadline)
        if events[-1]["event"] != "done":
            raise ValueError(f"job {job_id} ended {events[-1]['event']}: {events[-1]}")
        status, artifact = self.call("GET", f"/jobs/{job_id}/artifact")
        if status != 200:
            raise ValueError(f"artifact answered {status}: {artifact[:200]!r}")
        return perf_counter() - start, job_id, artifact, events

    def json(self, path: str) -> dict:
        status, body = self.call("GET", path)
        if status != 200:
            raise ValueError(f"GET {path} answered {status}")
        return json.loads(body)


class JobService:
    name = "job_service"
    modules = ("repro.service.server", "repro.experiments.runner")

    GPUS, LANES, ACCESSES = 2, 2, 300
    APPS = ("PR", "SC")
    #: idyll_speedup uses the broadcast/IDYLL pairs among the first
    #: MIN_JOBS jobs, which every run completes.
    MIN_JOBS = 32
    #: jobs in the traced pass (and in its untraced twin).
    TRACE_JOBS = 16
    TIMEOUT = 60.0

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self._servers = 0
        self._references: Dict[Tuple, object] = {}

    # -- inputs -------------------------------------------------------------

    def _miss_spec(self, k: int) -> dict:
        """Misses 2m and 2m+1 share app and seed and differ in scheme."""
        return {
            "app": self.APPS[(k // 2) % 2],
            "scheme": SCHEMES[k % 2].value,
            "gpus": self.GPUS, "lanes": self.LANES, "accesses": self.ACCESSES,
            "seed": derive_seed(self.seed, self.name, k // 2),
        }

    def job(self, index: int) -> Tuple[dict, bool, int]:
        """``(spec, is_hit, pair id)`` of job ``index``."""
        block, pos = divmod(index, 4)
        if pos < 3:
            k = 3 * block + pos
            return self._miss_spec(k), False, k // 2
        earlier = random.Random(derive_seed(self.seed, "hit", block)).randrange(3 * block + 3)
        return self._miss_spec(earlier), True, earlier // 2

    @staticmethod
    def _key(spec: dict) -> Tuple:
        return (spec["seed"], spec["app"], InvalidationScheme(spec["scheme"]))

    @staticmethod
    def simulate(spec: dict):
        """``spec`` simulated in-process, as ``repro run`` would."""
        config = baseline_config(spec["gpus"]).with_scheme(InvalidationScheme(spec["scheme"]))
        return simulate(spec["app"], config, lanes=spec["lanes"],
                        accesses_per_lane=spec["accesses"], seed=spec["seed"])

    def reference(self, spec: dict):
        """The in-process result for ``spec`` (memoised, untimed)."""
        key = self._key(spec)
        if key not in self._references:
            self._references[key] = self.simulate(spec)
        return self._references[key]

    def check(self, spec: dict, artifact: bytes) -> str:
        if artifact != result_to_json_bytes(self.reference(spec)):
            return "artifact differs from an in-process simulate() of the same spec"
        return ""

    # -- server lifecycle -----------------------------------------------------

    def setup(self):
        """Start a server on a fresh cache and warm its worker with one
        small job outside the measured sequence."""
        self._servers += 1
        root = self.work / f"service-{self._servers}"
        manager = JobManager(ResultCache(root, remote=False), workers=1)
        server = JobHTTPServer(manager, "127.0.0.1", 0)
        server.start()
        state = {"server": server, "client": Client(server.address, self.TIMEOUT)}
        try:
            warmup = {"app": "SC", "gpus": 1, "lanes": 1, "accesses": 20,
                      "seed": derive_seed(self.seed, "warmup", self._servers)}
            state["client"].run_job(warmup)
        except BaseException:
            server.stop(drain=False)
            raise
        return state

    def teardown(self, state) -> None:
        state["server"].stop(drain=True)

    # -- the closed loop ------------------------------------------------------

    def _loop(self, client: Client, log: OpLog, keep_going, fetch_record: bool = False):
        """Run jobs back to back while ``keep_going(index, wall seconds
        so far)`` and no job has failed (a wedged server would time out
        every later job too), then check their artifacts; returns a
        JobRow per job that passed its checks."""
        ran = []
        speed = HostSpeed()
        wall = 0.0
        index = 0
        while not log.failures and keep_going(index, wall):
            spec, is_hit, pair = self.job(index)
            log.attempted += 1
            try:
                latency, job_id, artifact, events = client.run_job(spec)
                wall += latency
                scaled = speed.scale(latency)
                cached = [e.get("cached") for e in events if e["event"] == "task_done"]
                if cached != [is_hit]:
                    raise ValueError(f"expected cache {'hit' if is_hit else 'miss'}, "
                                     f"events say {cached}")
                record = client.json(f"/jobs/{job_id}") if fetch_record else None
                ran.append((scaled, JobRow(index, latency, is_hit, pair, spec, artifact,
                                           events, record)))
            except (JobTimeout, TimeoutError) as exc:
                log.fail(index, f"timeout: {exc}")
            except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
                log.fail(index, f"{type(exc).__name__}: {exc}")
            index += 1
        rows: List[JobRow] = []
        for scaled, row in ran:
            problem = self.check(row.spec, row.artifact)
            if problem:
                log.fail(row.index, problem)
                continue
            log.ok(row.latency, scaled, json.loads(row.artifact)["accesses"],
                   "hit" if row.is_hit else row.spec["app"])
            rows.append(row)
        return rows

    def _speedup(self, rows: List[JobRow], log: OpLog) -> float:
        results = {
            (row.pair, InvalidationScheme(row.spec["scheme"])): self.reference(row.spec)
            for row in rows if row.index < self.MIN_JOBS and not row.is_hit
        }
        speedups = pair_speedups(results)
        if len(speedups) != (self.MIN_JOBS * 3 // 4) // 2:
            log.fail(self.MIN_JOBS, "missing broadcast/IDYLL pairs for idyll_speedup")
        return geomean(speedups)

    def measure(self, state, seconds: float):
        log = OpLog()
        rows = self._loop(
            state["client"], log,
            lambda i, wall: i < self.MIN_JOBS or wall < seconds,
        )
        return {
            "accesses_per_s": log.throughput(),
            "op_p50_s": log.op_p50(skip="hit"),
            "idyll_speedup": self._speedup(rows, log),
        }, log

    def traced(self, state, seconds: float):
        """The same TRACE_JOBS jobs on the set-up server untraced, then on
        a fresh server traced."""
        log = OpLog()
        tracer = Tracer()
        plain = self._loop(state["client"], log, lambda i, wall: i < self.TRACE_JOBS)
        plain_s = sum(row.latency for row in plain)
        for index in range(self.TRACE_JOBS):
            self.reference(self.job(index)[0])  # so no check simulates while traced
        fresh = self.setup()
        try:
            install(tracer)
            try:
                observed = self._loop(fresh["client"], log, lambda i, wall: i < self.TRACE_JOBS,
                                      fetch_record=True)
                metrics_doc = fresh["client"].json("/metrics")
            finally:
                tracer.uninstall()
        finally:
            self.teardown(fresh)
        traced_s = sum(row.latency for row in observed)
        if [row.artifact for row in observed] != [row.artifact for row in plain]:
            log.fail(self.TRACE_JOBS, "traced artifacts differ from the untraced ones")
        records = [row.record for row in observed]
        jobs = len(records)
        extra = {
            "service.queue_wait_s": safe_div(
                sum(r["started"] - r["created"] for r in records), jobs),
            "service.run_s": safe_div(
                sum(r["finished"] - r["started"] for r in records), jobs),
            "service.delivery_s": safe_div(
                sum(row.latency - (row.record["finished"] - row.record["created"])
                    for row in observed), jobs),
            "service.queue_depth_max": max(
                [e.get("queue_depth", 0) for row in observed for e in row.events] or [0]),
            "service.rejected": metrics_doc["queue_rejected"],
            "service.hit_p50_s": median([row.latency for row in plain if row.is_hit]),
            "service.miss_p90_s": percentile(
                [row.latency for row in plain if not row.is_hit], 90),
            "service.jobs_per_s": safe_div(len(plain), plain_s),
            "trace_overhead_frac": safe_div(traced_s, plain_s) - 1.0,
        }
        return layer_metrics(tracer, extra), log, tracer
