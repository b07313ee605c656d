"""Distributed sweep fabric: one coordinator, N workers on M hosts.

:class:`~repro.experiments.parallel.SweepSupervisor` makes a sweep
crash-safe on one machine; this module generalises it to a fleet.  The
:class:`FabricCoordinator` shards the grid's ``(key, run)`` task
records (see :mod:`repro.experiments.parallel`) across *host agents*
(:mod:`repro.experiments.hostagent`) — each a full supervisor with its
own workers, heartbeats, retry budget and quarantine — and layers
host-level fault tolerance on top.  A task's ``run`` travels to its
host packed whole in the ``task`` frame; the coordinator only ever adds
checkpoint arguments to it:

* **Sharding** — the grid is split into contiguous chunks proportional
  to each host's worker count, so every host starts with a private
  queue and zero coordination.
* **Work-stealing** — when a host goes idle and the unassigned pool is
  dry, the coordinator asks the most-backlogged host to give back half
  the tasks it has queued beyond its worker count.  The agent revokes
  only tasks that have truly not started; because frames are ordered
  per stream, a ``start`` always overtakes the ``stolen`` that would
  exclude it, so a task can never run twice *because of a steal*.
* **Host death** — an agent that closes its stream, exits, or misses
  agent-level heartbeats past the grace window is declared dead.  Its
  open tasks are re-dispatched: first re-checked against the (shared)
  result cache — a result pushed in the host's dying breath counts —
  then resumed from their newest RCKP checkpoint
  (:func:`repro.sim.snapshot.newest_checkpoint`) when checkpointing is
  on (byte-equal by the snapshot subsystem's contract), else restarted.
  A task that keeps killing hosts is quarantined after
  ``max_host_redispatch`` re-dispatches, mirroring the per-host poison
  quarantine.
* **Migration** — :meth:`FabricCoordinator.preempt` kills a running
  task on its current host, collects the newest checkpoint, and
  requeues the task with ``resume_from`` set, letting the scheduler
  place it on any other host.
* **Graceful drain** — SIGINT/SIGTERM fan out as ``shutdown(drain)``
  frames: every host finishes what is on its workers, abandons its
  queue, and reports; the coordinator then raises
  :class:`~repro.experiments.parallel.SweepInterrupted`, and
  ``--resume-sweep`` continues from the merged journal family + cache.

Determinism: hosts funnel through the same
:func:`repro.experiments.runner.simulate` with the same ``run``
arguments as the serial runner, so serial, parallel, and distributed
execution produce field-for-field identical results — the property CI
asserts byte-for-byte.

:class:`FabricRunner` plugs the coordinator into the
:class:`~repro.experiments.parallel.ParallelRunner` grid machinery
(dedup, cache precheck, resume, figure discovery), which is how
``repro figure --workers local:2,local:2`` and ``--workers
tcp:host:port,...`` are wired.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from ..metrics.collector import SimulationResult
from ..sim.snapshot import newest_checkpoint
from .cache import ResultCache
from .journal import SweepJournal, journal_path
from .parallel import (
    ParallelRunner,
    SweepInterrupted,
    Task,
    _drain_on_signal,
    _placeholder_result,
    _Task,
)
from .transport import Channel, SocketChannel, pack, spawn_local_agent, unpack

__all__ = ["FabricCoordinator", "FabricRunner", "HostSpec"]


class HostSpec:
    """One ``--workers`` list entry.

    * ``local:K`` — spawn a host agent subprocess on this machine with
      ``K`` workers (how CI simulates multi-host on one box);
    * ``tcp:host:port`` / ``tcp:host:port:K`` — connect to a remote
      ``python -m repro.experiments.hostagent --listen PORT`` and run
      ``K`` workers there (default 2).
    """

    def __init__(self, kind: str, workers: int,
                 host: Optional[str] = None, port: Optional[int] = None) -> None:
        self.kind = kind
        self.workers = workers
        self.host = host
        self.port = port

    @classmethod
    def parse(cls, spec: str) -> "HostSpec":
        parts = spec.strip().split(":")
        if parts[0] == "local":
            if len(parts) != 2:
                raise ValueError(f"bad host spec {spec!r}: want local:K")
            workers = int(parts[1])
            if workers < 1:
                raise ValueError(f"bad host spec {spec!r}: K must be >= 1")
            return cls("local", workers)
        if parts[0] == "tcp":
            if len(parts) not in (3, 4):
                raise ValueError(
                    f"bad host spec {spec!r}: want tcp:host:port[:K]"
                )
            workers = int(parts[3]) if len(parts) == 4 else 2
            return cls("tcp", workers, host=parts[1], port=int(parts[2]))
        raise ValueError(
            f"bad host spec {spec!r}: want local:K or tcp:host:port[:K]"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind == "local":
            return f"local:{self.workers}"
        return f"tcp:{self.host}:{self.port}:{self.workers}"


def parse_workers(arg: str) -> List[HostSpec]:
    """Parse a comma-separated ``--workers`` value."""
    specs = [HostSpec.parse(part) for part in arg.split(",") if part.strip()]
    if not specs:
        raise ValueError("--workers needs at least one host spec")
    return specs


class _Host:
    """Coordinator-side state for one host agent."""

    __slots__ = ("host_id", "spec", "channel", "workers", "last_beat",
                 "assigned", "started", "said_hello", "said_bye",
                 "steal_inflight")

    def __init__(self, host_id: str, spec: HostSpec, channel: Channel) -> None:
        self.host_id = host_id
        self.spec = spec
        self.channel = channel
        self.workers = spec.workers
        self.last_beat = time.monotonic()
        #: keys currently the host's responsibility (queued or running).
        self.assigned: Set[str] = set()
        #: subset of ``assigned`` the host reported as started.
        self.started: Set[str] = set()
        self.said_hello = False
        self.said_bye = False
        self.steal_inflight = False

    def backlog(self) -> int:
        """Tasks queued on the host beyond what its workers run at once
        — what a steal can take.  A task waiting only for a free worker
        is not backlog: stealing it would bounce it between idle hosts
        without ever letting one start it."""
        return len(self.assigned) - self.workers


class FabricCoordinator:
    """Scheduler for one distributed sweep across host agents."""

    #: coordinator tick (seconds) — frame pump + liveness cadence.
    TICK = 0.05

    def __init__(
        self,
        specs: Sequence[HostSpec],
        *,
        cache: Optional[ResultCache] = None,
        journal: Optional[SweepJournal] = None,
        supervisor_opts: Optional[dict] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_root: Optional[str] = None,
        hb_grace: float = 10.0,
        hello_timeout: float = 30.0,
        drain_timeout: float = 10.0,
        max_host_redispatch: int = 3,
        shard_fn=None,
    ) -> None:
        if not specs:
            raise ValueError("fabric needs at least one host spec")
        self.specs = list(specs)
        self.cache = cache
        self.journal = journal
        self.supervisor_opts = dict(supervisor_opts or {})
        self.checkpoint_every = checkpoint_every
        self.checkpoint_root = checkpoint_root
        self.hb_grace = hb_grace
        self.hello_timeout = hello_timeout
        self.drain_timeout = drain_timeout
        self.max_host_redispatch = max(1, max_host_redispatch)
        self.shard_fn = shard_fn
        # Introspection counters (tests, progress reporting, bench).
        self.steals = 0
        self.stolen_tasks = 0
        self.host_deaths = 0
        self.redispatched = 0
        self.migrations = 0
        self._hosts: Dict[str, _Host] = {}
        self._tasks: Dict[str, _Task] = {}
        self._pool: List[str] = []
        self._stop = False
        self._stop_at = 0.0
        self._drain_sent = False

    # -- public --------------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the fleet to drain and stop (signal handlers call this)."""
        if not self._stop:
            self._stop = True
            self._stop_at = time.monotonic()

    def preempt(self, key: str) -> bool:
        """Ask ``key``'s current host to kill-and-checkpoint it; the
        task returns to the pool (with ``resume_from`` pointing at the
        newest checkpoint, when one exists) and the scheduler places it
        on whichever host next has capacity — usually a different one.
        Returns False when the task is not currently running anywhere."""
        task = self._tasks.get(key)
        if task is None or task.status != "assigned" or task.host is None:
            return False
        host = self._hosts.get(task.host)
        if host is None or key not in host.started:
            return False
        host.channel.send({"type": "preempt", "key": key})
        return True

    def run(self, tasks: Sequence[Task]) -> Dict[str, SimulationResult]:
        """Execute ``(key, run)`` tasks across the fleet; returns
        ``key -> result`` with every task done or quarantined.  Raises
        :class:`SweepInterrupted` on a drained stop."""
        for key, run in tasks:
            if key not in self._tasks:
                ckpt_dir = None
                if self.checkpoint_root is not None:
                    ckpt_dir = str(Path(self.checkpoint_root) / key[:16])
                self._tasks[key] = _Task(key, dict(
                    run, checkpoint_every=self.checkpoint_every,
                    checkpoint_dir=ckpt_dir,
                ))
        with _drain_on_signal(self.request_stop,
                              "fabric: caught signal, draining hosts"):
            try:
                self._sweep()
            finally:
                self._shutdown_hosts()
        remaining = self._open_count()
        if remaining:
            done = sum(1 for t in self._tasks.values() if t.status == "done")
            raise SweepInterrupted(
                f"distributed sweep interrupted with {remaining} task(s) "
                f"unfinished ({done}/{len(self._tasks)} done, journaled and "
                f"cached); re-run with --resume-sweep to continue"
            )
        return {key: task.result for key, task in self._tasks.items()}

    def _open_count(self) -> int:
        return sum(
            1 for t in self._tasks.values() if t.status in ("pending", "assigned")
        )

    def _sweep(self) -> None:
        """Bring the fleet up and schedule until every task is terminal
        or a drained stop ends the sweep."""
        self._connect_hosts()
        self._shard()
        while self._open_count():
            if self._stop:
                self._broadcast_drain()
                running = any(
                    t.status == "assigned" for t in self._tasks.values()
                )
                drained = time.monotonic() > self._stop_at + self.drain_timeout
                if not running or drained:
                    return
            else:
                self._dispatch()
                self._maybe_steal()
            self._pump()
            self._check_hosts()
            if not self._hosts and self._open_count():
                raise RuntimeError(
                    "fabric: every host died; completed tasks are "
                    "journaled and cached — re-run with --resume-sweep"
                )
            time.sleep(self.TICK)

    # -- fleet bring-up / teardown -------------------------------------------

    def _host_journal(self, host_id: str) -> Optional[str]:
        if self.journal is None:
            return None
        canonical = Path(self.journal.path)
        return str(canonical.with_name(f"{canonical.stem}.host-{host_id}.jsonl"))

    def _connect_hosts(self) -> None:
        for idx, spec in enumerate(self.specs):
            host_id = f"h{idx}"
            if spec.kind == "local":
                channel: Channel = spawn_local_agent()
            else:
                channel = SocketChannel.connect(spec.host, spec.port)
            host = _Host(host_id, spec, channel)
            self._hosts[host_id] = host
            channel.send({
                "type": "init",
                "host_id": host_id,
                "workers": spec.workers,
                "cache_root": (
                    str(self.cache.root) if self.cache is not None else None
                ),
                "cache_remote": (
                    str(self.cache.remote)
                    if self.cache is not None and self.cache.remote is not None
                    else None
                ),
                "journal": self._host_journal(host_id),
                "supervisor_opts": self.supervisor_opts,
            })
        deadline = time.monotonic() + self.hello_timeout
        while time.monotonic() < deadline:
            self._pump()
            if all(h.said_hello for h in self._hosts.values()):
                return
            dead = [h for h in self._hosts.values()
                    if h.channel.eof and not h.said_hello]
            for host in dead:
                self._declare_dead(host, "died before hello")
            if self._hosts and all(
                h.said_hello for h in self._hosts.values()
            ):
                return
            if not self._hosts:
                break
            time.sleep(self.TICK)
        missing = [h.host_id for h in self._hosts.values() if not h.said_hello]
        if missing or not self._hosts:
            self._shutdown_hosts()
            raise RuntimeError(
                f"fabric bring-up failed: no hello from host(s) "
                f"{missing or '(all hosts dead)'} within {self.hello_timeout:.0f}s"
            )

    def _broadcast_drain(self) -> None:
        if self._drain_sent:
            return
        self._drain_sent = True
        for host in self._hosts.values():
            host.channel.send({"type": "shutdown", "drain": True})

    def _shutdown_hosts(self) -> None:
        for host in self._hosts.values():
            host.channel.send({"type": "shutdown", "drain": False})
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            self._pump(liveness_only=True)
            if all(h.said_bye or h.channel.eof for h in self._hosts.values()):
                break
            time.sleep(self.TICK)
        for host in self._hosts.values():
            channel = host.channel
            proc = getattr(channel, "proc", None)
            if proc is not None:
                try:
                    proc.terminate()
                    proc.wait(timeout=5.0)
                except Exception:
                    try:
                        proc.kill()
                        proc.wait(timeout=5.0)
                    except Exception:  # pragma: no cover
                        pass
            channel.close()

    # -- scheduling ----------------------------------------------------------

    def _shard(self) -> None:
        """Initial placement: contiguous chunks proportional to worker
        counts (``shard_fn`` overrides for tests and drills)."""
        keys = [t.key for t in self._tasks.values() if t.status == "pending"]
        hosts = list(self._hosts.values())
        if self.shard_fn is not None:
            chunks = self.shard_fn(keys, [h.workers for h in hosts])
        else:
            total = sum(h.workers for h in hosts) or 1
            chunks = []
            offset = 0
            for idx, host in enumerate(hosts):
                if idx == len(hosts) - 1:
                    chunks.append(keys[offset:])
                else:
                    share = round(len(keys) * host.workers / total)
                    chunks.append(keys[offset:offset + share])
                    offset += share
        for host, chunk in zip(hosts, chunks):
            for key in chunk:
                self._assign(self._tasks[key], host)
        self._pool = [
            t.key for t in self._tasks.values() if t.status == "pending"
        ]

    def _assign(self, task: _Task, host: _Host) -> None:
        task.status = "assigned"
        task.host = host.host_id
        host.assigned.add(task.key)
        host.channel.send({"type": "task", "key": task.key, "run": pack(task.run)})

    def _dispatch(self) -> None:
        """Hand pooled tasks to the least-loaded live hosts."""
        while self._pool:
            hosts = [h for h in self._hosts.values() if h.said_hello]
            if not hosts:
                return
            host = min(hosts, key=lambda h: len(h.assigned) / max(1, h.workers))
            key = self._pool.pop(0)
            task = self._tasks[key]
            if task.status == "pending":
                self._assign(task, host)

    def _maybe_steal(self) -> None:
        """An idle host + an empty pool + a backlogged peer = a steal."""
        if self._pool:
            return
        hosts = [h for h in self._hosts.values() if h.said_hello]
        idle = [h for h in hosts if not h.assigned and not h.steal_inflight]
        if not idle:
            return
        victim = max(hosts, key=_Host.backlog, default=None)
        if victim is None or victim.backlog() < 1 or victim in idle:
            return
        want = max(1, victim.backlog() // 2)
        victim.steal_inflight = True
        self.steals += 1
        victim.channel.send({"type": "steal", "count": want})

    # -- frame handling ------------------------------------------------------

    def _pump(self, liveness_only: bool = False) -> None:
        for host in list(self._hosts.values()):
            for frame in host.channel.recv_all():
                host.last_beat = time.monotonic()
                if liveness_only:
                    if frame.get("type") == "bye":
                        host.said_bye = True
                    continue
                self._handle(host, frame)

    def _handle(self, host: _Host, frame: dict) -> None:
        kind = frame.get("type")
        if kind == "hello":
            host.said_hello = True
        elif kind == "hb":
            pass  # the beat timestamp update is all a heartbeat is
        elif kind == "start":
            host.started.add(frame["key"])
        elif kind == "done":
            self._complete(host, frame["key"], unpack(frame["result"]))
        elif kind == "failed":
            # Retries are host-local; the host's journal carries the
            # record.  Nothing to re-dispatch unless the host dies.
            pass
        elif kind == "quarantined":
            self._quarantine(
                host, frame["key"], unpack(frame["result"]),
                str(frame.get("reason", "poison task")),
            )
        elif kind == "stolen":
            host.steal_inflight = False
            keys = list(frame.get("keys") or [])
            self.stolen_tasks += len(keys)
            for key in keys:
                task = self._tasks.get(key)
                host.assigned.discard(key)
                if task is not None and task.status == "assigned":
                    task.status = "pending"
                    task.host = None
                    self._pool.append(key)
        elif kind == "preempted":
            self._migrate(host, frame["key"], frame.get("checkpoint"))
        elif kind == "bye":
            host.said_bye = True

    def _complete(self, host: Optional[_Host], key: str,
                  result: SimulationResult) -> None:
        task = self._tasks.get(key)
        if task is None or task.status in ("done", "quarantined"):
            return
        task.status = "done"
        task.result = result
        task.host = None
        if host is not None:
            host.assigned.discard(key)
            host.started.discard(key)
        if self.journal is not None:
            self.journal.record("done", key, app=task.run["app"], attempt=1)

    def _quarantine(self, host: Optional[_Host], key: str,
                    result: SimulationResult, reason: str) -> None:
        task = self._tasks.get(key)
        if task is None or task.status in ("done", "quarantined"):
            return
        task.status = "quarantined"
        task.result = result
        task.host = None
        if host is not None:
            host.assigned.discard(key)
            host.started.discard(key)
        if self.journal is not None:
            self.journal.record(
                "quarantined", key, app=task.run["app"], reason=reason
            )

    def _migrate(self, host: _Host, key: str, checkpoint: Optional[str]) -> None:
        host.assigned.discard(key)
        host.started.discard(key)
        task = self._tasks.get(key)
        if task is None or task.status in ("done", "quarantined"):
            return
        task.status = "pending"
        task.host = None
        task.run = dict(task.run, resume_from=checkpoint)
        self.migrations += 1
        self._pool.append(key)

    # -- host liveness -------------------------------------------------------

    def _check_hosts(self) -> None:
        now = time.monotonic()
        for host in list(self._hosts.values()):
            alive_fn = getattr(host.channel, "alive", None)
            proc_dead = alive_fn is not None and not alive_fn()
            silent = now - host.last_beat > self.hb_grace
            if host.channel.eof or proc_dead or (host.said_hello and silent):
                reason = (
                    "stream closed" if host.channel.eof
                    else "process exited" if proc_dead
                    else f"no heartbeat for {now - host.last_beat:.1f}s"
                )
                self._declare_dead(host, reason)

    def _declare_dead(self, host: _Host, reason: str) -> None:
        """Remove a dead host and re-dispatch everything it owed us."""
        self._hosts.pop(host.host_id, None)
        self.host_deaths += 1
        print(
            f"[repro] fabric: host {host.host_id} died ({reason}); "
            f"re-dispatching {len(host.assigned)} task(s)",
            file=sys.stderr,
        )
        proc = getattr(host.channel, "proc", None)
        if proc is not None:
            try:
                proc.kill()
                proc.wait(timeout=5.0)
            except Exception:  # pragma: no cover
                pass
        host.channel.close()
        for key in sorted(host.assigned):
            task = self._tasks.get(key)
            if task is None or task.status != "assigned":
                continue
            # A result pushed in the host's dying breath counts: the
            # shared cache is the fabric's source of truth for results.
            if self.cache is not None:
                cached = self.cache.get(key)
                if cached is not None:
                    self._complete(None, key, cached)
                    continue
            task.attempts += 1
            if task.attempts >= self.max_host_redispatch:
                reason_q = (
                    f"task survived {task.attempts} host deaths "
                    f"(last: {reason})"
                )
                placeholder = _placeholder_result(
                    task.run["app"], task.run["config"], reason_q
                )
                self._quarantine(None, key, placeholder, reason_q)
                continue
            task.status = "pending"
            task.host = None
            # Half-done runs migrate from their newest checkpoint.
            task.run = dict(task.run, resume_from=newest_checkpoint(
                task.run["checkpoint_dir"]))
            self.redispatched += 1
            self._pool.append(key)


class FabricRunner(ParallelRunner):
    """Grid runner that executes cache-miss tasks on the fabric.

    Everything around execution — request dedup, memo and disk-cache
    prechecks, resume-sweep semantics, figure discovery passes — is
    inherited from :class:`ParallelRunner`; only
    :meth:`~ParallelRunner._execute` changes, shipping the todo list to
    a :class:`FabricCoordinator` instead of a local supervisor."""

    def __init__(
        self,
        hosts: Sequence,
        lanes: Optional[int] = None,
        accesses_per_lane: Optional[int] = None,
        seed: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_root: Optional[str] = None,
        fabric_opts: Optional[dict] = None,
        **supervisor_opts,
    ) -> None:
        specs = [
            spec if isinstance(spec, HostSpec) else HostSpec.parse(spec)
            for spec in hosts
        ]
        total = sum(spec.workers for spec in specs)
        super().__init__(
            lanes=lanes,
            accesses_per_lane=accesses_per_lane,
            seed=seed,
            jobs=max(1, total),
            cache=cache,
            **supervisor_opts,
        )
        self.host_specs = specs
        self.checkpoint_every = checkpoint_every
        self.checkpoint_root = checkpoint_root
        self.fabric_opts = dict(fabric_opts or {})
        #: live coordinator during an _execute (tests and drills reach
        #: in to kill hosts / trigger preemptions).
        self._fabric: Optional[FabricCoordinator] = None
        #: the most recent coordinator, kept after _execute returns so
        #: callers can read its steal/death counters.
        self.last_fabric: Optional[FabricCoordinator] = None

    def _journal_for(self, sweep_name: Optional[str]) -> Optional[SweepJournal]:
        if self.cache is None:
            return None
        # Fabric journals are wall-clock-stamped: the cross-host merge
        # needs a total order over records from different files.
        return SweepJournal(
            journal_path(self.cache.root, sweep_name or "sweep"), stamp=True
        )

    def run_many(self, requests, *, sweep_name=None, resume=False):
        # A journal (hence host journals and merge-ability) must exist
        # for every fabric sweep, not just multi-job ones.
        if self.cache is None:
            raise ValueError(
                "a distributed sweep needs a result cache: it is the "
                "shared ground truth hosts push results to (drop "
                "--no-cache / set REPRO_CACHE=1)"
            )
        return super().run_many(requests, sweep_name=sweep_name, resume=resume)

    def _execute(self, todo, journal) -> None:
        coordinator = FabricCoordinator(
            self.host_specs,
            cache=self.cache,
            journal=journal,
            supervisor_opts=self.supervisor_opts,
            checkpoint_every=self.checkpoint_every,
            checkpoint_root=self.checkpoint_root,
            **self.fabric_opts,
        )
        self._fabric = coordinator
        self.last_fabric = coordinator
        try:
            fresh = coordinator.run(todo)
        finally:
            self._fabric = None
        for disk_key, run in todo:
            self._memoize(run, fresh[disk_key])
