"""Host-speed probe: a fixed pure-Python loop timed around every op, so
op and set-up times can be scaled to a nominal host speed.

The benchmark runs on a shared host whose speed swings by up to 2x
within seconds as other tenants come and go.  The process's CPU time
swings with its wall time (the slowdown is shared hardware, not lost
CPU time), so neither can be compared across runs made minutes apart.
The probe is the benchmark's own code and never changes with the
program: a small discrete-event loop over generators, a heap calendar,
dicts and an LRU map, the same kinds of work the simulator does.  An
op's time is scaled by ``NOMINAL_S`` over the mean of the probes right
before and right after it, which reads as the op's time on a host where
the probe takes ``NOMINAL_S``.  A change to the program moves the scaled
time as it moves the wall time; a change in the host's speed cancels.
"""

from __future__ import annotations

import heapq
import multiprocessing
import random
from collections import OrderedDict
from time import perf_counter

#: the probe's wall time on the host uncontended (Intel Xeon, CPython
#: 3.11, 2 vCPUs); it sets only the scale of the reported times.
NOMINAL_S = 0.025

_EVENTS = 20_000
_LANES = 16
_PAGES = 4096
_TLB_ENTRIES = 256


class _Page:
    __slots__ = ("vpn", "owner", "dirty")

    def __init__(self, vpn: int, owner: int) -> None:
        self.vpn = vpn
        self.owner = owner
        self.dirty = False


def _lane(index: int, rng: random.Random, table, tlb: OrderedDict):
    owner = index % 4
    while True:
        vpn = rng.randrange(_PAGES // 4) if rng.random() < 0.7 else rng.randrange(_PAGES)
        if vpn in tlb:
            tlb.move_to_end(vpn)
            yield 1
            continue
        page = table[vpn]
        if page.owner != owner:
            page.owner = owner
            page.dirty = True
            yield 40
        else:
            yield 10
        tlb[vpn] = page
        if len(tlb) > _TLB_ENTRIES:
            tlb.popitem(last=False)


def probe_seconds() -> float:
    """Wall time of one run of the fixed probe loop."""
    start = perf_counter()
    rng = random.Random(7)
    table = {vpn: _Page(vpn, vpn % 4) for vpn in range(_PAGES)}
    calendar = []
    for index in range(_LANES):
        lane = _lane(index, rng, table, OrderedDict())
        heapq.heappush(calendar, (0, index, lane))
    order = _LANES
    for _ in range(_EVENTS):
        now, _, lane = heapq.heappop(calendar)
        order += 1
        heapq.heappush(calendar, (now + next(lane), order, lane))
    return perf_counter() - start


class HostSpeed:
    """Probes the host around ops and scales their times.

    ``refresh()`` probes before an op that follows untimed work;
    ``scale(elapsed)`` probes after the op and returns its scaled time.
    The probe after one op serves as the probe before the next.  Each
    probe is the mean of ``runs`` probe loops: a longer probe tracks
    the host's speed around a long op better, at the cost of time spent
    probing, so workloads with ops of a second or more use several."""

    def __init__(self, runs: int = 1) -> None:
        self.runs = runs
        self.refresh()

    def refresh(self) -> None:
        self._last = self._probe()

    def _probe(self) -> float:
        return sum(probe_seconds() for _ in range(self.runs)) / self.runs

    def scale(self, elapsed: float) -> float:
        before = self._last
        self.refresh()
        return elapsed * 2.0 * NOMINAL_S / (before + self._last)


def _probe_server(conn, runs: int) -> None:
    """Run the probe each time the parent asks; stop on ``None``."""
    while conn.recv() is not None:
        conn.send(sum(probe_seconds() for _ in range(runs)) / runs)


class ParallelHostSpeed(HostSpeed):
    """:class:`HostSpeed` for ops that keep both cores busy: the probe
    runs in two helper processes at once, so it sees the host as a
    two-worker op does (two busy cores contend for shared hardware, and
    each runs slower than one alone).  Use as a context manager; the
    helpers are stopped and waited for on exit."""

    WORKERS = 2

    def __init__(self, runs: int = 1) -> None:
        ctx = multiprocessing.get_context("spawn")
        self._conns, self._procs = [], []
        for _ in range(self.WORKERS):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_probe_server, args=(child, runs), daemon=True)
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
        try:
            super().__init__(runs)
        except BaseException:
            self.__exit__()
            raise

    def _probe(self) -> float:
        for conn in self._conns:
            conn.send(True)
        return sum(conn.recv() for conn in self._conns) / len(self._conns)

    def __enter__(self) -> "ParallelHostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        for conn, proc in zip(self._conns, self._procs):
            try:
                conn.send(None)
            except OSError:
                pass
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()
            conn.close()
