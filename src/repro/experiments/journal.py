"""Append-only sweep journal: the supervisor's crash-safe task ledger.

A supervised sweep (:mod:`repro.experiments.parallel`) records every
task outcome — ``done``, ``failed`` (will be retried), ``quarantined``
(given up after repeated failures) — as one JSON line appended to a
journal file living next to the on-disk result cache.  A torn trailing
line is skipped on load rather than poisoning the whole file.

Durability is a policy, the journal's ``fsync=`` argument:

* ``batch`` (default; sweeps) — every record is *flushed* per line but
  fsynced only at dispatch boundaries (:meth:`SweepJournal.sync`, called by the
  supervisor each time it hands new work to workers, on quarantine, and
  on close).  Once hundreds of tasks per second flow through the
  distributed fabric, one ``fsync`` per record is the journal's hot
  path; batching bounds the loss window to the records since the last
  boundary — all of which describe tasks a resumed sweep would simply
  re-run.
* ``always`` (the job service, whose admissions are HTTP-rate) — flush
  + fsync per record.

Quarantine records are always fsynced immediately regardless of
policy: they are authoritative (the cache never stores quarantine
state) and must survive any crash that follows them.

Together with the content-addressed
:class:`~repro.experiments.cache.ResultCache` this makes sweeps
resumable: a completed task's *result* lives in the cache under its
content key, and the journal's ``done`` record proves the key was
produced by a finished run (not a coincidental stale entry).  A
``quarantined`` record lets ``--resume-sweep`` skip a poison task
instead of re-burning its retry budget.

Distributed sweeps write *several* journals for one sweep name: the
coordinator's canonical ``<name>.jsonl`` plus one
``<name>.host-<id>.jsonl`` per host agent (each host journals its own
outcomes locally, so losing the coordinator — or any subset of hosts —
never loses the record of finished work).  :func:`merged_replay` folds
the whole family last-writer-wins: records carry a wall-clock ``ts``
stamp when written by fabric participants (``stamp=True``), the merge
orders by ``(ts, file, line)``, and un-stamped legacy records sort
before stamped ones within their file order.

The journal is advisory for ``done`` tasks (the cache alone would
suffice) but authoritative for quarantine state, which the cache
deliberately never stores.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "SweepJournal",
    "host_journal_path",
    "journal_path",
    "merged_replay",
    "merged_terminal_keys",
]

#: terminal statuses — a task with one of these is never re-dispatched
#: by a resumed sweep (``failed`` is *not* terminal: it re-runs).
TERMINAL = frozenset({"done", "quarantined"})

#: valid ``SweepJournal(fsync=)`` policies.
FSYNC_MODES = ("batch", "always")


def journal_path(cache_root: os.PathLike, name: str) -> Path:
    """Canonical journal location for a named sweep: next to the result
    cache so the two artifacts required for resume travel together."""
    return Path(cache_root) / "journals" / f"{name}.jsonl"


def host_journal_path(cache_root: os.PathLike, name: str, host_id: str) -> Path:
    """Per-host journal for a distributed sweep — a sibling of the
    coordinator's canonical journal, picked up by :func:`merged_replay`."""
    return Path(cache_root) / "journals" / f"{name}.host-{host_id}.jsonl"


class SweepJournal:
    """One append-only JSONL task ledger.

    Records are dicts with at least ``event`` (``done`` / ``failed`` /
    ``quarantined``) and ``key`` (the task's content-addressed cache
    key).  ``replay()`` folds the file into a last-writer-wins map.

    ``fsync`` selects the durability policy (``batch`` or ``always``;
    anything else raises :class:`ValueError`); ``stamp=True`` adds a
    wall-clock ``ts`` to every record so cross-host merges
    (:func:`merged_replay`) have a total order.
    """

    def __init__(
        self,
        path: os.PathLike,
        *,
        fsync: str = "batch",
        stamp: bool = False,
    ) -> None:
        if fsync not in FSYNC_MODES:
            raise ValueError(
                f"unknown journal fsync policy {fsync!r}; valid: {FSYNC_MODES}"
            )
        self.path = Path(path)
        self.fsync_mode = fsync
        self.stamp = stamp
        self._fh = None
        self._dirty = False

    # -- writing -------------------------------------------------------------

    def _handle(self):
        if self._fh is None or self._fh.closed:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        return self._fh

    def record(self, event: str, key: str, **fields) -> None:
        """Append one record (flushed per line; fsync per policy).

        Quarantine records are fsynced immediately under every policy —
        they are the one record class the cache cannot reconstruct."""
        entry = {"event": event, "key": key}
        entry.update(fields)
        if self.stamp and "ts" not in entry:
            entry["ts"] = time.time()
        fh = self._handle()
        fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")
        fh.flush()
        if self.fsync_mode == "always" or event == "quarantined":
            os.fsync(fh.fileno())
            self._dirty = False
        else:
            self._dirty = True

    def sync(self) -> None:
        """Durability boundary: fsync everything appended since the last
        one.  The supervisor calls this each dispatch round; a no-op
        when nothing is pending or the policy already syncs per line."""
        if self._dirty and self._fh is not None and not self._fh.closed:
            os.fsync(self._fh.fileno())
        self._dirty = False

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            if self._dirty:
                self._fh.flush()
                os.fsync(self._fh.fileno())
            self._fh.close()
        self._fh = None
        self._dirty = False

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> Optional[bool]:
        self.close()
        return None

    # -- reading -------------------------------------------------------------

    def _lines(self) -> Iterator[dict]:
        yield from _read_records(self.path)

    def events(self) -> Iterator[dict]:
        """Every surviving record in file order (torn lines skipped).

        The raw ledger, for consumers whose state is *not*
        last-writer-wins per key — the job service folds a per-job state
        machine over the full event sequence (a ``queued`` record
        carries the job spec that later ``started``/``done`` records for
        the same key do not repeat)."""
        yield from self._lines()

    def replay(self) -> Dict[str, dict]:
        """Fold the journal into ``key -> last record`` (writer order)."""
        state: Dict[str, dict] = {}
        for entry in self._lines():
            state[entry["key"]] = entry
        return state

    def terminal_keys(self) -> Dict[str, str]:
        """``key -> status`` for tasks a resumed sweep must not re-run."""
        return {
            key: entry["event"]
            for key, entry in self.replay().items()
            if entry["event"] in TERMINAL
        }


def _read_records(path: Path) -> Iterator[dict]:
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError:
        return
    for line in raw.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            # A torn trailing line from a killed supervisor; any
            # mid-file corruption also just drops that one record.
            continue
        if isinstance(entry, dict) and "event" in entry and "key" in entry:
            yield entry


def _journal_family(path: Path) -> List[Path]:
    """The canonical journal plus every per-host sibling, coordinator
    first, hosts in sorted order (the deterministic file tie-break)."""
    family = [path]
    stem = path.stem
    if path.parent.is_dir():
        family.extend(sorted(path.parent.glob(f"{stem}.host-*.jsonl")))
    return family


def merged_replay(path: os.PathLike) -> Dict[str, dict]:
    """Cross-host journal merge: fold the coordinator journal and every
    ``<name>.host-*.jsonl`` sibling into ``key -> winning record``.

    Last-writer-wins over the whole family: records are ordered by
    their wall-clock ``ts`` stamp, with ``(file, line)`` as the
    deterministic tie-break; un-stamped records (single-host legacy
    journals) sort at ``ts = -inf``, i.e. keep pure file order among
    themselves.  Torn or garbage lines in any member file are skipped,
    exactly as in single-journal replay.

    One exception to last-writer-wins: ``quarantined`` is sticky.  A
    coordinator quarantines a key only after exhausting redispatch, and
    a dead host's straggling ``done`` record (journaled in its last
    breath, merged later by timestamp) must not resurrect the task —
    quarantine is the journal's only authoritative state and always
    wins for its key.
    """
    path = Path(path)
    stamped: List[Tuple[float, int, int, dict]] = []
    for file_idx, member in enumerate(_journal_family(path)):
        for line_idx, entry in enumerate(_read_records(member)):
            ts = entry.get("ts")
            order = float(ts) if isinstance(ts, (int, float)) else float("-inf")
            stamped.append((order, file_idx, line_idx, entry))
    stamped.sort(key=lambda item: item[:3])
    state: Dict[str, dict] = {}
    for _ts, _file_idx, _line_idx, entry in stamped:
        prior = state.get(entry["key"])
        if prior is not None and prior["event"] == "quarantined":
            continue
        state[entry["key"]] = entry
    return state


def merged_terminal_keys(path: os.PathLike) -> Dict[str, str]:
    """``key -> status`` over the merged journal family — what a resumed
    distributed sweep must not re-run, surviving the loss of any subset
    of hosts (each host journaled its own outcomes)."""
    return {
        key: entry["event"]
        for key, entry in merged_replay(path).items()
        if entry["event"] in TERMINAL
    }
