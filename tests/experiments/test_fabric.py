"""Distributed sweep fabric: sharding, stealing, host death, resume.

These tests exercise the fleet-level contract of
:class:`~repro.experiments.fabric.FabricCoordinator`:

* a ``local:K,local:K`` fleet produces results field-for-field
  identical to serial execution;
* an idle host steals backlog from a loaded peer, and stolen tasks run
  exactly once;
* a SIGKILLed host agent is declared dead and its in-flight tasks are
  re-dispatched to survivors without changing any result;
* a finished phase is never recomputed when a later sweep resumes over
  the merged journal family + shared cache;
* :meth:`SweepSupervisor.preempt` kills a running task and reports its
  newest checkpoint (None when checkpointing is off).
"""

import glob
import json
import os
import signal
import threading
import time
from dataclasses import asdict

import pytest

from repro.config import InvalidationScheme, baseline_config
from repro.experiments.cache import ResultCache
from repro.experiments.fabric import FabricRunner, HostSpec, _Host, parse_workers
from repro.experiments.journal import merged_replay
from repro.experiments.parallel import SweepSupervisor
from repro.experiments.runner import ExperimentRunner

SIZES = dict(lanes=2, accesses_per_lane=120, seed=7)

SCENARIOS = [
    ("PR", baseline_config(2)),
    ("PR", baseline_config(2).with_scheme(InvalidationScheme.IDYLL)),
    ("SC", baseline_config(2).with_scheme(InvalidationScheme.LAZY)),
    ("KM", baseline_config(2).with_scheme(InvalidationScheme.IDYLL)),
]


def _children(pid):
    """Live child pids of ``pid`` (Linux ``/proc``)."""
    kids = set()
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path) as fh:
                kids.update(int(field) for field in fh.read().split())
        except OSError:
            pass
    return kids


def _proc_identity(pid):
    """``(state, start time)`` of ``pid`` from ``/proc``, or None once it
    is gone.  The start time tells a reused pid from the original."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rpartition(")")[2].split()
    except OSError:
        return None
    return fields[0], fields[19]


@pytest.fixture(scope="module")
def expected():
    serial = ExperimentRunner(**SIZES)
    return [serial.run(app, config) for app, config in SCENARIOS]


class TestHostSpec:
    def test_local_spec(self):
        spec = HostSpec.parse("local:3")
        assert (spec.kind, spec.workers) == ("local", 3)

    def test_tcp_spec_with_default_workers(self):
        spec = HostSpec.parse("tcp:node7:9400")
        assert (spec.kind, spec.host, spec.port, spec.workers) == (
            "tcp", "node7", 9400, 2,
        )

    def test_tcp_spec_with_worker_count(self):
        spec = HostSpec.parse("tcp:node7:9400:8")
        assert spec.workers == 8

    def test_parse_workers_list(self):
        specs = parse_workers("local:2, local:1")
        assert [s.workers for s in specs] == [2, 1]

    @pytest.mark.parametrize(
        "bad", ["", "local", "local:0", "tcp:host", "nfs:host:1", "local:2:3"]
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            parse_workers(bad)


class TestFabricEquivalence:
    def test_two_host_fleet_matches_serial(self, tmp_path, expected):
        runner = FabricRunner(
            ["local:1", "local:1"], cache=ResultCache(tmp_path), **SIZES
        )
        got = runner.run_many(SCENARIOS, sweep_name="equiv")
        for have, want in zip(got, expected):
            assert asdict(have) == asdict(want)
        # Every host journaled its own outcomes next to the canonical
        # journal — the family the cross-host merge folds.
        journals = tmp_path / "journals"
        assert (journals / "equiv.jsonl").exists()
        host_logs = sorted(journals.glob("equiv.host-*.jsonl"))
        assert len(host_logs) == 2
        fabric = runner.last_fabric
        assert fabric is not None and fabric.host_deaths == 0

    def test_fabric_requires_cache(self):
        runner = FabricRunner(["local:1"], **SIZES)
        with pytest.raises(ValueError, match="cache"):
            runner.run_many(SCENARIOS[:1], sweep_name="nocache")


class TestWorkStealing:
    def test_idle_host_steals_backlog(self, tmp_path, expected):
        """Pin the whole grid onto host 0; host 1 starts idle and must
        drain the straggler through steals, with results unchanged."""
        runner = FabricRunner(
            ["local:1", "local:1"],
            cache=ResultCache(tmp_path),
            fabric_opts=dict(shard_fn=lambda keys, workers: [list(keys), []]),
            **SIZES,
        )
        got = runner.run_many(SCENARIOS, sweep_name="steal")
        for have, want in zip(got, expected):
            assert asdict(have) == asdict(want)
        fabric = runner.last_fabric
        assert fabric.steals >= 1
        assert fabric.stolen_tasks >= 1

    def test_task_waiting_for_a_free_worker_is_not_backlog(self):
        """Only tasks queued beyond a host's worker count are stealable:
        otherwise two idle hosts can steal one task back and forth, each
        before the other starts it, and the sweep never finishes."""
        host = _Host("h0", HostSpec.parse("local:2"), channel=None)
        host.assigned = {"a", "b"}
        assert host.backlog() == 0
        host.assigned.add("c")
        assert host.backlog() == 1


class TestHostDeathRecovery:
    def test_sigkilled_host_tasks_redispatched(self, tmp_path, expected):
        """SIGKILL one host agent while it has a task on a worker: the
        coordinator must declare it dead, re-dispatch its open tasks to
        the survivor, and still match serial field-for-field.  The
        killed agent's sweep worker (possibly still booting when the
        kill lands) and its resource tracker must not outlive it."""
        runner = FabricRunner(
            ["local:1", "local:1"], cache=ResultCache(tmp_path), **SIZES
        )
        killed = []
        orphans = {}

        def killer():
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                fabric = runner._fabric
                if fabric is not None:
                    for host in list(fabric._hosts.values()):
                        proc = getattr(host.channel, "proc", None)
                        if proc is None or not host.started:
                            continue
                        for kid in _children(proc.pid):
                            identity = _proc_identity(kid)
                            if identity is not None:
                                orphans[kid] = identity
                        os.kill(proc.pid, signal.SIGKILL)
                        killed.append(host.host_id)
                        return
                time.sleep(0.01)

        thread = threading.Thread(target=killer, daemon=True)
        thread.start()
        got = runner.run_many(SCENARIOS, sweep_name="death")
        thread.join(timeout=60)
        assert killed, "killer never found a host with a running task"
        fabric = runner.last_fabric
        assert fabric.host_deaths == 1
        for have, want in zip(got, expected):
            assert asdict(have) == asdict(want)
        if not glob.glob("/proc/self/task/*/children"):
            pytest.skip("no /proc child lists here to find orphans with")
        assert orphans, "the killed agent had no children to check"

        def survivors():
            alive = []
            for pid, (_state, started) in orphans.items():
                now = _proc_identity(pid)
                if now is not None and now[0] != "Z" and now[1] == started:
                    alive.append(pid)
            return alive

        deadline = time.monotonic() + 10
        while survivors() and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not survivors(), f"the killed agent's children outlived it: {survivors()}"


class TestResumeNoRecompute:
    def _done_counts(self, journals_dir, name):
        counts = {}
        for path in journals_dir.glob(f"{name}*.jsonl"):
            for line in path.read_text().splitlines():
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if entry.get("event") == "done":
                    counts[entry["key"]] = counts.get(entry["key"], 0) + 1
        return counts

    def test_finished_phase_not_recomputed(self, tmp_path, expected):
        """Phase 1 completes; a resumed sweep over the full grid must
        serve phase-1 tasks from the cache + merged journals without a
        single re-simulation (done-record counts stay frozen)."""
        phase1 = SCENARIOS[:2]
        first = FabricRunner(
            ["local:1", "local:1"], cache=ResultCache(tmp_path), **SIZES
        )
        first.run_many(phase1, sweep_name="resume")
        journals = tmp_path / "journals"
        before = self._done_counts(journals, "resume")
        phase1_keys = {
            first.disk_key(app, config, 1.0) for app, config in phase1
        }
        assert phase1_keys <= set(before)

        second = FabricRunner(
            ["local:1", "local:1"], cache=ResultCache(tmp_path), **SIZES
        )
        got = second.run_many(SCENARIOS, sweep_name="resume", resume=True)
        for have, want in zip(got, expected):
            assert asdict(have) == asdict(want)
        assert second.cache.hits >= len(phase1)
        after = self._done_counts(journals, "resume")
        for key in phase1_keys:
            assert after[key] == before[key], "phase-1 task was recomputed"
        # The merged family agrees every grid task is terminal now.
        merged = merged_replay(journals / "resume.jsonl")
        grid_keys = {
            second.disk_key(app, config, 1.0) for app, config in SCENARIOS
        }
        assert grid_keys <= set(merged)


class TestSupervisorPreempt:
    def test_preempt_kills_running_task(self):
        supervisor = SweepSupervisor(jobs=1)
        supervisor.start()
        try:
            supervisor.submit("victim", dict(
                app="PR", config=baseline_config(2), scale=1.0,
                lanes=2, accesses_per_lane=50_000, seed=7,
            ))
            started = False
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and not started:
                started = any(
                    event[0] == "start" for event in supervisor.step()
                )
            assert started, "task never reached a worker"
            # No checkpoint dir was configured, so migration state is None.
            assert supervisor.preempt("victim") is None
            assert supervisor.open_count() == 0
            assert supervisor.running_count() == 0
        finally:
            supervisor.shutdown()

    def test_preempt_unknown_or_pending_key_is_noop(self):
        supervisor = SweepSupervisor(jobs=1)
        supervisor.start()
        try:
            assert supervisor.preempt("ghost") is None
            supervisor.submit("queued", dict(
                app="PR", config=baseline_config(2), scale=1.0,
                lanes=1, accesses_per_lane=10, seed=1,
            ))
            # Still pending (no step yet): preempt only touches running
            # tasks, so the queued task survives untouched.
            assert supervisor.preempt("queued") is None
            assert supervisor.open_count() == 1
        finally:
            supervisor.shutdown()
