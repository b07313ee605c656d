"""Batched fast-path replay: the second tier of the two-tier replay core.

The event engine (tier one) is exact but pays generator/heap machinery
per access.  The overwhelmingly common access, however, is an L1 TLB hit
on a local page, whose behaviour is a pure arithmetic recurrence over
the lane's in-flight window:

    issue_i       = max(arrival_i, ring[0])     (window occupancy)
    release_i     = issue_i + fast_latency
    arrival_{i+1} = issue_i + gap_{i+1}

so a *parked* lane can be replayed in bulk over the columnar
:class:`~repro.workloads.base.TraceBuffer` arrays with no events at all,
escaping back to the event engine the moment an access would miss the
L1, touch a remote or gated page, collide with an MSHR entry or a
pending IRMB invalidation — or the moment the UVM driver starts an
episode touching the lane's GPU.

Escape-lookahead merge
----------------------
The batcher runs between two calendar events, so the state the escape
predicate reads is frozen for a whole pass, and a lane's next escape
can be found without committing anything.  An escaping lane re-enters
the event path at its escape arrival and may then mutate shared
translation state (faults, access-counter migrations, invalidations),
so no sibling may commit an access issued after that instant.  Each
pass therefore

1. **probes** every parked lane whose head issues before the pass cap
   — read-only, no LRU touch — and takes its *mutation horizon*: the
   arrival + 1 of its first escaping access when that access issues
   before the cap; else, when the probe stopped at the
   ``fastpath_batch_limit`` window, the arrival + 1 of the first
   unprobed access (it could escape, unseen); else infinity;
2. lowers the cap, which starts at the next calendar event, to every
   horizon as it is found (later lanes probe only up to it);
3. **commits** each probed lane, in park order, up to the cap in a
   single bite, reusing its probe's issue times.

That is O(lanes) bites per pass; the bite ends only at a real escape,
the batch window or the next calendar event.

Parking protocol
----------------
A lane parks by yielding an Event obtained from :meth:`FastPath.park`
while its own GPU's ``driver_busy`` gauge is zero (no fault it raised,
no invalidation targeting it, no migration it is an endpoint of).
While parked it owns **no calendar entries** except window-release
timeouts that were already scheduled before parking; its in-flight
window is modelled by a ring of release times (at most ``capacity``
deep).  The engine's :attr:`~repro.sim.engine.Engine.batcher` hook calls
:meth:`FastPath.try_batch` whenever the ready queue is empty — i.e.
*between every two calendar events* — and replay is bounded by the next
calendar event's timestamp.  A lane is unparked the round after its
GPU's gauge rises, so pure-replay GPUs keep batching while another GPU
migrates.

Unparking succeeds the park event with ``(index, arrival)``.  The lane
generator resumes at the current (earlier or equal) engine time and
re-derives the exact issue time of the escaping access through the
normal ``yield wait; yield window.request()`` sequence — release events
for window slots the replay consumed arithmetically are materialised
onto the calendar first, so the FIFO grant reproduces ``issue_i``
exactly.

Equivalence argument (summary; DESIGN.md §8 has the full version)
-----------------------------------------------------------------
1. Replay covers exactly the accesses for which ``GPU.try_fast_access``
   would succeed, and applies exactly its side effects (L1 LRU refresh,
   hit counter, local/completed counters, instruction count).
2. Simulator state is piecewise-constant between calendar events, and
   replay stops strictly before the next event's timestamp, so the
   predicate evaluates against precisely the state the event path would
   have seen at each replayed issue time.
3. The state replay reads is the lane's own L1 content, the ownership
   bits baked into each PTE word, and the migration-gate table.  Every
   mutation channel for these (TLB shootdown, gate creation, ownership
   of a fresh word) lives inside a driver episode — fault, migration,
   invalidation — which raises the target GPU's ``driver_busy`` gauge
   synchronously in the episode's first event, so no such mutation can
   fire at a replayed cycle; the moment a gauge rises, the next batcher
   call (which runs before the following event pops) unparks that
   GPU's lanes at the current time.  Third-party migrations are the
   one episode that can overlap replay, and their only cross-GPU-visible
   state is the gate table — which the replay predicate checks per
   access.  Episodes a parked lane's own escape starts are kept out of
   every sibling's committed span by the merge cap.
4. An unparked lane resumes at or before its next issue time and
   continues on the event path, indistinguishable from a lane that
   never parked.

The fast path is constructed only when the tracer is disabled (tracing
auto-degrades to the pure event path, keeping golden traces
byte-identical by construction) and fault injection, page replication
and Trans-FW are off.  ``--no-fastpath`` / ``config.fastpath_enabled``
turn it off explicitly.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Dict, List, Set

from ..memory import pte as pte_bits
from ..memory.physmem import PhysicalMemory
from ..sim.engine import Engine, Event

__all__ = ["FastPath", "ParkedLane"]

_INF = float("inf")


class ParkedLane:
    """Replay state for one parked lane."""

    __slots__ = ("lane", "event", "index", "arrival", "ring", "backed", "gen")

    def __init__(self, lane, event: Event, index: int, arrival: int,
                 ring: deque, backed: int, gen: int) -> None:
        self.lane = lane
        self.event = event
        #: next unevaluated trace index.
        self.index = index
        #: arrival time of access ``index`` (issue of the previous access
        #: plus its gap).
        self.arrival = arrival
        #: release times of in-flight window slots, oldest first.  The
        #: first ``backed`` entries correspond to release events already
        #: on the calendar (scheduled before parking); the rest exist
        #: only arithmetically and are materialised at unpark.
        self.ring = ring
        self.backed = backed
        #: GPU invalidation generation at park time; a mismatch voids
        #: batch eligibility (belt and braces over the gauge check).
        self.gen = gen


class FastPath:
    """Coordinates parked lanes and replays them in bulk."""

    def __init__(self, engine: Engine, config, gpus: List, driver,
                 interconnect) -> None:
        self.engine = engine
        self.config = config
        self.gpus = gpus
        self.driver = driver
        self.interconnect = interconnect
        self.batch_limit = max(1, config.fastpath_batch_limit)
        self._parked: Dict[object, ParkedLane] = {}
        #: id() of every parked lane's window Resource — identifies
        #: calendar entries (window.release bound methods) that are
        #: benign to consume mid-replay.
        self._parked_windows: Set[int] = set()
        # Visibility counters (plain ints, deliberately *not* StatsGroup
        # members: fast-path bookkeeping must never appear in collected
        # results, which are asserted equal to event-path results).
        self.replayed = 0
        self.parks = 0
        #: non-empty commits; ``replayed / bites`` is the mean bite.
        self.bites = 0
        # Select the batched drain loop; the hook itself is installed
        # only while lanes are parked (see park/_unpark), so runs with no
        # parking pay one None check per event.
        engine.batch_mode = True

    # ------------------------------------------------------------------
    # Park / unpark
    # ------------------------------------------------------------------

    def park(self, lane, index: int) -> Event:
        """Park ``lane`` before issuing access ``index``; returns the
        event whose value ``(index, arrival)`` resumes the lane."""
        engine = self.engine
        window = lane._window
        releases = lane._releases
        # Entries beyond the window's in-use count have already fired;
        # what remains maps 1:1 onto scheduled release events.
        while len(releases) > window._in_use:
            releases.popleft()
        gpu = lane.gpu
        rec = ParkedLane(
            lane,
            Event(engine),
            index,
            engine._now + lane._gaps[index],
            deque(releases),
            len(releases),
            gpu.inval_generation,
        )
        if not self._parked:
            engine.batcher = self.try_batch
        self._parked[lane] = rec
        self._parked_windows.add(id(window))
        self.parks += 1
        return rec.event

    def repark(self, lane, index: int, arrival: int, ring, backed: int) -> Event:
        """Re-register a lane parked at checkpoint time with its saved
        replay state (checkpoint restore).  Unlike :meth:`park` this must
        not recompute ``arrival`` — the saved value already accounts for
        the partially-elapsed gap — nor trim the release ring, which was
        snapshotted verbatim."""
        engine = self.engine
        rec = ParkedLane(
            lane,
            Event(engine),
            index,
            arrival,
            deque(ring),
            backed,
            lane.gpu.inval_generation,
        )
        if not self._parked:
            engine.batcher = self.try_batch
        self._parked[lane] = rec
        self._parked_windows.add(id(lane._window))
        return rec.event

    def _unpark(self, rec: ParkedLane) -> None:
        lane = rec.lane
        window = lane._window
        del self._parked[lane]
        self._parked_windows.discard(id(window))
        engine = self.engine
        if not self._parked:
            engine.batcher = None
        now = engine._now
        ring = rec.ring
        # Materialise release events for window slots the replay filled:
        # every ring entry past the still-calendar-backed prefix that
        # releases in the future.  (Entries <= now correspond to accesses
        # that both issued and completed inside the replayed span.)
        if len(ring) > rec.backed:
            entries = list(ring)
            release = window.release
            schedule = engine.schedule
            for r in entries[rec.backed:]:
                if r > now:
                    window._in_use += 1
                    schedule(r - now, release)
        # In place: the lane's run() loop holds a reference to this deque.
        releases = lane._releases
        releases.clear()
        releases.extend(ring)
        rec.event.succeed((rec.index, rec.arrival))

    def _escape_test(self, lane):
        """``escapes(vpn)``: would ``lane``'s next access to ``vpn`` take
        the slow path right now?  Exactly ``GPU.try_fast_access``'s
        decision — L1 word present, owner local, no pending IRMB
        invalidation, no MSHR collision, no migration gate — read-only
        (no LRU touch)."""
        gpu = lane.gpu
        sets = gpu.l1_tlbs[lane.lane_id]._sets
        nsets = len(sets)
        owner_of = PhysicalMemory.owner_of
        ppn = pte_bits.ppn
        gpu_id = gpu.gpu_id
        irmb = gpu.irmb
        irmb_peek = (
            irmb.peek if irmb is not None and not irmb.is_empty else None
        )
        mshr1 = gpu.l1_mshrs[lane.lane_id]._pending
        mshr2 = gpu.l2_mshr._pending
        gates = self.driver._gates

        def escapes(vpn) -> bool:
            word = sets[vpn % nsets].get(vpn)
            if word is None or owner_of(ppn(word)) != gpu_id:
                return True
            if irmb_peek is not None and irmb_peek(vpn):
                return True
            if vpn in mshr1 or vpn in mshr2:
                return True
            return bool(gates) and vpn in gates

        return escapes

    def _head_escapes(self, rec: ParkedLane) -> bool:
        """Read-only escape probe of ``rec``'s next access."""
        lane = rec.lane
        return self._escape_test(lane)(lane._vpns[rec.index])

    @staticmethod
    def _head_issue(rec: ParkedLane) -> int:
        """Issue time of ``rec``'s next replayable access: its arrival,
        delayed by the in-flight window when the window is full."""
        ring = rec.ring
        if len(ring) >= rec.lane._capacity:
            head = ring[0]
            if head > rec.arrival:
                return head
        return rec.arrival

    # ------------------------------------------------------------------
    # The batcher
    # ------------------------------------------------------------------

    def try_batch(self) -> bool:
        """Engine hook: replay parked lanes up to the next calendar
        event.  Returns True when ready-queue work may have been created
        (an unpark), so the engine re-drains before popping the heap."""
        parked = self._parked
        if not parked:
            return False
        engine = self.engine
        heap = engine._heap
        parked_windows = self._parked_windows
        head_issue = self._head_issue
        probe = self._probe
        commit = self._commit
        while True:
            # Evict only lanes whose own GPU became busy; the rest keep
            # batching through the episode.
            unparked = False
            for rec in list(parked.values()):
                gpu = rec.lane.gpu
                if gpu.driver_busy or rec.gen != gpu.inval_generation:
                    self._unpark(rec)
                    unparked = True
            if unparked:
                return True
            bound = heap[0][0] if heap else _INF
            # Escape-lookahead merge (module docstring): probe, lower the
            # cap to every mutation horizon, then commit each lane to the
            # cap.  A lane whose head issues at or past the running cap
            # can neither commit nor escape this pass.
            cap = bound
            probes = []
            for rec in parked.values():
                if head_issue(rec) < cap:
                    issues, esc, horizon = probe(rec, cap)
                    if horizon < cap:
                        cap = horizon
                    probes.append((rec, issues, esc))
            work = 0
            for rec, issues, esc in probes:
                work += commit(rec, issues, esc, cap)
                if rec.lane not in parked:
                    unparked = True
            # Discovery pass: escapes must be found (and their resumes
            # scheduled) as early as possible so the resume wake-ups
            # carry sequence numbers close to the ones the event path
            # assigned when the lanes originally blocked — otherwise
            # same-instant wake-ups drain in the wrong order.  Probe
            # every lane still parked against the pass-start bound,
            # read-only: commits above respect the merge cap, the
            # probe only asks "would the head access take the slow
            # path right now?".
            head_escapes = self._head_escapes
            for rec in list(parked.values()):
                if head_issue(rec) < bound and head_escapes(rec):
                    self._unpark(rec)
                    unparked = True
            if unparked:
                # The resumed lane(s) must run before further replay.
                return True
            if heap:
                entry = heap[0]
                owner = getattr(entry[2], "__self__", None)
                if owner is not None and id(owner) in parked_windows:
                    # Next event is a parked lane's own window release —
                    # benign: consume it and keep replaying.
                    engine.run_batch_until(entry[0])
                    continue
            if work:
                continue  # cap or batch window cut a bite: take another
            return False

    def _probe(self, rec: ParkedLane, bound):
        """Read-only lookahead of ``rec``'s lane up to ``bound``.

        Walks the window recurrence access by access from the lane's
        head and stops at the first issue at or past ``bound`` (tested
        before the predicate), at the first escaping access (included,
        flagged) or after one batch window.  Returns ``(issues, esc,
        horizon)``: the issue times (all below ``bound``,
        nondecreasing), whether the last of them is the lane's first
        escaping access, and the lane's mutation horizon (module
        docstring)."""
        lane = rec.lane
        i0 = rec.index
        n = lane._n
        limit = self.batch_limit
        navail = n - i0 if n - i0 < limit else limit
        gaps = lane._gaps
        vpns = lane._vpns
        escapes = self._escape_test(lane)
        # State is frozen for the pass, so the predicate is a function of
        # the VPN alone: test each distinct page once.
        safe: Set[int] = set()
        ring = list(rec.ring)
        backlog = len(ring)
        # Access j waits on element j - slack of [ring..., releases of
        # this probe...] once the window is full.
        slack = lane._capacity - backlog
        latency = lane.gpu._fast_latency
        arrival = rec.arrival
        issues: List[int] = []
        push = issues.append
        esc = False
        j = 0
        while j < navail:
            k = j - slack
            if k >= 0:
                head = ring[k] if k < backlog else issues[k - backlog] + latency
                issue = head if head > arrival else arrival
            else:
                issue = arrival
            if issue >= bound:
                break
            push(issue)
            vpn = vpns[i0 + j]
            if vpn not in safe:
                if escapes(vpn):
                    esc = True
                    break
                safe.add(vpn)
            j += 1
            if j < navail:
                arrival = issue + gaps[i0 + j]
        m = len(issues)
        if esc:
            horizon = arrival + 1
        elif m == limit and i0 + m < n:
            horizon = issues[m - 1] + gaps[i0 + m] + 1
        else:
            horizon = _INF
        return issues, esc, horizon

    def _commit(self, rec: ParkedLane, issues, esc: bool, cap) -> int:
        """Replay the probed accesses that issue before ``cap``: exactly
        ``GPU.try_fast_access``'s side effects, in bulk.  Unparks the
        lane when its escaping access issues before ``cap`` or its trace
        ends.  Returns the number of accesses replayed."""
        lane = rec.lane
        m = len(issues)
        count = m if m == 0 or issues[m - 1] < cap else bisect_left(issues, cap)
        escaped = esc and count == m
        if escaped:
            count -= 1
        if count:
            gpu = lane.gpu
            i0 = rec.index
            i = i0 + count
            gaps = lane._gaps
            sets = gpu.l1_tlbs[lane.lane_id]._sets
            nsets = len(sets)
            latency = gpu._fast_latency
            # Per-access LRU refreshes, as the event path makes them.
            for vpn in lane._vpns[i0:i]:
                sets[vpn % nsets].move_to_end(vpn)
            released = [t + latency for t in issues[:count]]
            gpu.instructions += sum(gaps[i0:i]) + count
            gpu.l1_tlbs[lane.lane_id]._hits.value += count
            gpu._n_local.value += count
            gpu._n_completed.value += count
            self.replayed += count
            self.bites += 1
            # Ring: the last min(len + count, capacity) releases of
            # [old ring..., released...]; popped entries leave the
            # calendar-backed prefix first.
            ring = rec.ring
            capacity = lane._capacity
            pops = len(ring) + count - capacity
            if pops >= len(ring):
                rec.ring = deque(released[count - capacity:])
                rec.backed = 0
            elif pops > 0:
                for _ in range(pops):
                    ring.popleft()
                ring.extend(released)
                rec.backed = rec.backed - pops if rec.backed > pops else 0
            else:
                ring.extend(released)
            rec.index = i
            if i < lane._n:
                rec.arrival = issues[count - 1] + gaps[i]
            elif count >= 2:
                # End of trace: the arrival stays the last access's own
                # (never consumed, but checkpoints snapshot it).
                rec.arrival = issues[count - 2] + gaps[i - 1]
        if escaped or rec.index >= lane._n:
            self._unpark(rec)
        return count
