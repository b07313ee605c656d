"""Per-host agent of the distributed sweep fabric.

``python -m repro.experiments.hostagent`` runs on (or *as*, for
``local:K`` specs) each host of a distributed sweep.  It speaks the
line-framed JSON protocol of :mod:`repro.experiments.transport` on
stdio (or one TCP connection with ``--listen PORT``) and embeds a
:class:`~repro.experiments.parallel.SweepSupervisor` in incremental
mode, so every PR 5 guarantee — heartbeats, kill/hang detection,
retry + poison quarantine, orderly teardown — operates *per host*,
with the coordinator layered on top for host-level failures.

Frames from the coordinator:

``init``       configure: host id, worker count, cache root + shared
               remote, journal path, supervisor knobs.  Answered with
               ``hello``.
``task``       submit one ``(key, run)`` task record: ``run`` is the
               packed keyword arguments of ``simulate()``, checkpoint
               arguments included for migratable tasks.
``steal``      give back up to ``count`` not-yet-started tasks;
               answered with ``stolen`` listing exactly the revoked
               keys (a task that raced into ``running`` stays here —
               frames are ordered per stream, so the coordinator sees
               our ``start`` before the ``stolen`` that excludes it).
``preempt``    kill one running task for migration; answered with
               ``preempted`` carrying its newest RCKP checkpoint path
               (or null — the coordinator then restarts from scratch).
``shutdown``   ``drain=true``: finish in-flight tasks, then ``bye`` and
               exit; ``drain=false``: tear down immediately.

Frames to the coordinator: ``hello``, periodic ``hb`` (agent-level
heartbeat with the open-task count — *worker*-level heartbeats stay
inside the supervisor), ``start`` / ``done`` / ``failed`` /
``quarantined`` task events, ``stolen`` / ``preempted`` replies, and a
final ``bye``.

Every outcome is also journaled locally (``<sweep>.host-<id>.jsonl``,
wall-clock-stamped for the cross-host merge) and completed results go
to the local cache *and* its shared remote — so a sweep survives
losing the coordinator or any subset of hosts with no lost work.

On stdio the agent re-points fd 1 at stderr after stealing the
transport stream: anything the simulator (or a worker) prints can then
never corrupt the frame stream.
"""

from __future__ import annotations

import argparse
import os
import queue as queue_mod
import signal
import socket
import sys
import threading
import time
from typing import Optional

__all__ = ["main"]

#: agent-level heartbeat period (seconds); the coordinator's grace
#: window is a multiple of this.
HB_INTERVAL = 0.5


class _Agent:
    def __init__(self, send_line, recv_queue: "queue_mod.Queue") -> None:
        self._send_line = send_line
        self._recv = recv_queue
        self._send_lock = threading.Lock()
        self.host_id = "?"
        self.supervisor = None
        self.journal = None
        self.cache = None
        self._draining = False
        self._last_hb = 0.0

    # -- framing -------------------------------------------------------------

    def send(self, **frame) -> None:
        import json

        line = json.dumps(frame, separators=(",", ":"))
        with self._send_lock:
            try:
                self._send_line(line)
            except (OSError, ValueError):
                # Coordinator gone: nothing to report to; the run loop
                # notices via the closed stdin and winds down.
                pass

    # -- frame handlers ------------------------------------------------------

    def _handle_init(self, frame: dict) -> None:
        from .cache import ResultCache
        from .journal import SweepJournal
        from .parallel import SweepSupervisor

        self.host_id = str(frame.get("host_id", "?"))
        jobs = int(frame.get("workers", 1))
        if frame.get("cache_root"):
            self.cache = ResultCache(
                frame["cache_root"], remote=frame.get("cache_remote") or False
            )
        if frame.get("journal"):
            self.journal = SweepJournal(frame["journal"], stamp=True)
        self.supervisor = SweepSupervisor(
            jobs=jobs,
            cache=self.cache,
            journal=self.journal,
            **(frame.get("supervisor_opts") or {}),
        )
        self.supervisor.start()
        self.send(type="hello", host_id=self.host_id, workers=jobs, pid=os.getpid())

    def _handle_task(self, frame: dict) -> None:
        from .transport import unpack

        self.supervisor.submit(frame["key"], unpack(frame["run"]))

    def _handle_steal(self, frame: dict) -> None:
        want = int(frame.get("count", 1))
        candidates = self.supervisor.unstarted()[:want]
        revoked = self.supervisor.revoke(candidates)
        self.send(type="stolen", host_id=self.host_id, keys=revoked)

    def _handle_preempt(self, frame: dict) -> None:
        ckpt = self.supervisor.preempt(frame["key"])
        self.send(
            type="preempted", host_id=self.host_id,
            key=frame["key"], checkpoint=ckpt,
        )

    # -- main loop -----------------------------------------------------------

    def run(self) -> int:
        from .transport import pack

        alive = True
        while alive:
            # Ingest every pending coordinator frame first: steal and
            # preempt must act on the freshest task table.
            while True:
                try:
                    frame = self._recv.get_nowait()
                except queue_mod.Empty:
                    break
                if frame is None:  # stdin EOF: coordinator died
                    alive = False
                    self._draining = False
                    break
                kind = frame.get("type")
                if kind == "init":
                    self._handle_init(frame)
                elif kind == "task":
                    self._handle_task(frame)
                elif kind == "steal":
                    self._handle_steal(frame)
                elif kind == "preempt":
                    self._handle_preempt(frame)
                elif kind == "shutdown":
                    if frame.get("drain") and self.supervisor is not None:
                        # Graceful: stop dispatching, finish what's on
                        # the workers, leave queued tasks unrun (the
                        # coordinator knows exactly which ones via our
                        # start events).
                        self._draining = True
                        self.supervisor.request_stop()
                    else:
                        alive = False
            if not alive:
                break
            if self.supervisor is None:
                time.sleep(0.05)
                continue
            for event in self.supervisor.step():
                kind = event[0]
                if kind == "start":
                    self.send(type="start", host_id=self.host_id, key=event[1])
                elif kind == "done":
                    self.send(
                        type="done", host_id=self.host_id, key=event[1],
                        result=pack(event[2]), attempts=event[3],
                    )
                elif kind == "failed":
                    self.send(
                        type="failed", host_id=self.host_id, key=event[1],
                        reason=event[2], attempts=event[3],
                    )
                elif kind == "quarantined":
                    self.send(
                        type="quarantined", host_id=self.host_id, key=event[1],
                        result=pack(event[2]), reason=event[3],
                    )
            now = time.monotonic()
            if now - self._last_hb >= HB_INTERVAL:
                self._last_hb = now
                self.send(
                    type="hb", host_id=self.host_id,
                    open=self.supervisor.open_count(),
                )
            if self._draining and self.supervisor.running_count() == 0:
                break
        if self.supervisor is not None:
            self.supervisor.shutdown()
        if self.journal is not None:
            self.journal.close()
        self.send(type="bye", host_id=self.host_id)
        return 0


def _stdin_reader(fh, out_queue: "queue_mod.Queue") -> None:
    import json

    try:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                frame = json.loads(line)
            except ValueError:
                continue
            if isinstance(frame, dict):
                out_queue.put(frame)
    except Exception:
        pass
    finally:
        out_queue.put(None)


def _serve_stdio() -> int:
    # Steal the transport stream, then point fd 1 at stderr so no
    # worker print / warning can ever interleave with frames.
    out_fd = os.dup(1)
    os.dup2(2, 1)
    out = os.fdopen(out_fd, "w", buffering=1)
    inbox: "queue_mod.Queue" = queue_mod.Queue()
    threading.Thread(
        target=_stdin_reader, args=(sys.stdin, inbox), daemon=True
    ).start()
    agent = _Agent(lambda line: (out.write(line + "\n"), out.flush()), inbox)
    return agent.run()


def _serve_tcp(port: int) -> int:
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind(("", port))
    server.listen(1)
    print(f"[hostagent] listening on :{port}", file=sys.stderr)
    conn, addr = server.accept()
    print(f"[hostagent] coordinator connected from {addr}", file=sys.stderr)
    rfile = conn.makefile("r", encoding="utf-8", newline="\n")
    inbox: "queue_mod.Queue" = queue_mod.Queue()
    threading.Thread(
        target=_stdin_reader, args=(rfile, inbox), daemon=True
    ).start()
    agent = _Agent(
        lambda line: conn.sendall((line + "\n").encode("utf-8")), inbox
    )
    try:
        return agent.run()
    finally:
        try:
            conn.close()
            server.close()
        except OSError:
            pass


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-hostagent",
        description="distributed-sweep host agent (spoken to by the "
        "fabric coordinator; not intended for interactive use)",
    )
    parser.add_argument(
        "--listen", type=int, metavar="PORT", default=None,
        help="serve one coordinator over TCP instead of stdio",
    )
    args = parser.parse_args(argv)
    # ^C belongs to the coordinator: it drains us explicitly; a local
    # agent sharing the terminal's process group must not race it.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover
        pass
    if args.listen is not None:
        return _serve_tcp(args.listen)
    return _serve_stdio()


if __name__ == "__main__":
    sys.exit(main())
