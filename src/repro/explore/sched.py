"""The scheduler — single-OS-thread, deterministic execution of the simulator.

Every logical thread of a run (rank main threads and all OpenMP team
workers) is a generator, and so is every blocking primitive of the runtime:
a primitive ``yield`` s exactly when its thread parks.  :meth:`Scheduler.run`
is a loop that resumes one logical thread at a time — the one that holds
the token — so control changes hands only at SchedPoint hooks: entering a
collective/recv/send, claiming a ``single``, team barriers, check enters,
blocking waits, thread exits.  A run is therefore *fully determined* by the
sequence of answers the installed
:class:`~repro.explore.strategies.Strategy` gives at branching decisions,
which the scheduler records for trace replay.

Logical threads get deterministic hierarchical names: rank main threads are
``r0, r1, ...``; the ``tid``-th worker of the ``k``-th team spawned by
parent ``P`` is ``P/k.t``.  Candidate sets are always sorted, so equal
choice sequences reproduce equal runs bit for bit.

Beyond the decision log the scheduler also records the run's *event* list
for partial-order reduction: one event per executed segment (everything a
thread does between two parks), carrying the access footprint of the
operation it resumed into (see :mod:`repro.explore.footprint`) unioned with
every shared-state access the runtime reported via :meth:`note_access`
while the segment ran.  ``decision_event_index[i]`` maps decision ``i`` to
the index of the first event executed after it, so
``events[decision_event_index[i]]`` is exactly the step taken by the chosen
thread.  With ``fingerprints=True`` each branching decision additionally
records a fingerprint of the quiescent global state (thread positions +
observation hashes, mailbox contents, collective-round state, shared
cells) so drivers can prune revisited states.  A run that first replays a
recorded run's choices (a DPOR child replaying its parent's prefix) is
handed the recorded ``(choice, fingerprint)`` pairs as ``inherit``: while
every decision so far took the recorded choice, the state at the next
decision *is* the recorded run's, so its fingerprint is reused instead of
hashed.  Hashing starts at the first decision past the inherited pairs,
or at the first one whose recorded choice is not runnable.

Time is virtual — one tick per scheduling operation, loop iteration and
function call — and deadlock detection is structural: the moment a decision
finds no runnable thread while some are blocked, the run aborts
*immediately* with the full wait-for state (every blocked thread's
self-description).  A run that never ends (a loop with no SchedPoint in it)
is stopped by the step budget, the world's ``timeout``: past it the run
aborts with a ``run stalled`` :class:`DeadlockError`.  With
``wall_clock=True`` (``parcoach run``) the clock is ``time.monotonic`` and
the budget is in seconds, checked at the same steps.
"""

from __future__ import annotations

import hashlib
import time
import zlib
from bisect import bisect_left, insort
from typing import Callable, Dict, Generator, List, Optional, Sequence, Set, Tuple

from ..runtime.errors import AbortedError, DeadlockError
from ..runtime.schedpoint import SchedPoint
from ..util.brepr import bounded_repr
from .footprint import Footprint, footprint_to_list, point_footprint
from .strategies import Decision, DefaultStrategy, Strategy

_READY = "ready"
_RUNNING = "running"
_BLOCKED = "blocked"

_EMPTY_FP: Footprint = frozenset()


class _Logical:
    __slots__ = ("name", "gen", "state", "channel", "predicate", "describe",
                 "pending_fp", "accesses", "obs")

    def __init__(self, name: str, gen: Generator) -> None:
        self.name = name
        self.gen = gen
        self.state = _READY
        #: The wait channel this thread is blocked on (identity-compared).
        self.channel: Optional[object] = None
        self.predicate: Optional[Callable[[], bool]] = None
        self.describe = ""
        #: Base footprint of the operation the next segment resumes into.
        self.pending_fp: Footprint = _EMPTY_FP
        #: Shared-state accesses reported while the current segment runs.
        self.accesses: Set[Tuple[str, str]] = set()
        #: Rolling hash of everything this thread has observed (shared
        #: reads, collective/recv results, claim outcomes) — a sound proxy
        #: for its local state, since thread locals are a deterministic
        #: function of the observation sequence.
        self.obs = 0


class Scheduler:
    """One run's schedule: strategy in, decision log out."""

    def __init__(self, strategy: Optional[Strategy] = None,
                 fingerprints: bool = False,
                 wall_clock: bool = False,
                 inherit: Sequence[Tuple[str, str]] = ()) -> None:
        self.strategy = strategy or DefaultStrategy()
        self.fingerprints = fingerprints
        self.wall_clock = wall_clock
        #: ``(choice, fingerprint)`` of a replayed run's first decisions;
        #: cut short at the first decision that leaves the recorded path.
        self._inherit = list(inherit) if fingerprints else []
        self._threads: Dict[str, _Logical] = {}
        self._ready_list: List[str] = []  # sorted; maintained incrementally
        self._spawn_counts: Dict[Optional[str], int] = {}
        #: The thread holding the token (resumed next by the run loop).
        self._current: Optional[str] = None
        #: The thread whose code is executing right now.
        self._running: Optional[str] = None
        self._world = None
        self._vtime = 0.0
        self._stall_at = float("inf")
        #: Branching decisions, in order — the run's schedule trace.
        self.decisions: List[Decision] = []
        #: Executed segments, in order: ``(thread, footprint)``.
        self.events: List[Tuple[str, Footprint]] = []
        #: ``decision_event_index[i]`` = index into :attr:`events` of the
        #: first event executed after decision ``i``.
        self.decision_event_index: List[int] = []
        #: Per-decision state fingerprint (None unless ``fingerprints``).
        self.state_fingerprints: List[Optional[str]] = []
        #: Decision count at the moment the run aborted, if it did —
        #: decisions past this index only reorder the unwinding.
        self.abort_decision: Optional[int] = None
        #: Wait-for description when structural deadlock was detected.
        self.deadlock_state: Optional[str] = None

    # -- time ----------------------------------------------------------------

    def clock(self) -> float:
        return time.monotonic() if self.wall_clock else self._vtime

    def tick(self) -> None:
        """One step of a running thread (a loop iteration or a function
        call); past the step budget the run is stalled and unwinds."""
        self._vtime += 1
        if self.clock() > self._stall_at:
            world = self._world
            budget = (f"{world.timeout:g} s" if self.wall_clock
                      else f"{world.timeout:.0f} steps")
            world.abort(DeadlockError(
                f"run stalled: {self._running} still running after {budget}"))
            raise AbortedError()

    # -- logical-thread lifecycle -------------------------------------------

    def current_thread(self) -> Optional[str]:
        """Name of the logical thread whose code is executing."""
        return self._running

    def spawn(self, gens: Sequence[Generator]) -> None:
        """Add a team's workers (tid 1, 2, ... in order) as ready logical
        threads named after the spawning thread."""
        parent = self._running
        seq = self._spawn_counts.get(parent, 0)
        self._spawn_counts[parent] = seq + 1
        for tid, gen in enumerate(gens, 1):
            self._add(f"{parent}/{seq}.{tid}", gen)

    def run(self, world, mains: Sequence[Tuple[str, Generator]]) -> None:
        """Execute the rank main threads (and everything they spawn) until
        every logical thread has exited."""
        self._world = world
        self._stall_at = self.clock() + world.timeout
        for name, gen in mains:
            self._add(name, gen)
        self._schedule_next(world, SchedPoint.START, "")
        threads = self._threads
        while self._current is not None:
            name = self._running = self._current
            try:
                next(threads[name].gen)
            except StopIteration:
                self._exit(world, name)

    def _add(self, name: str, gen: Generator) -> None:
        self._threads[name] = _Logical(name, gen)
        insort(self._ready_list, name)

    def _exit(self, world, me: str) -> None:
        self._running = None
        lt = self._threads.pop(me)
        if "/" not in me:
            # A rank main exiting mutates world-level accounting
            # (finished_ranks, open-round deadlock checks).
            lt.accesses.add(("procs", "w"))
        self._close_segment(lt, None)
        self._schedule_next(world, SchedPoint.EXIT, me)

    def on_abort(self, world) -> None:
        if self.abort_decision is None:
            self.abort_decision = len(self.decisions)
        aborter = self._threads.get(self._running)
        if aborter is not None:
            # First-writer-wins on the verdict: whichever segment aborts
            # first fixes it, so aborting segments never commute.
            aborter.accesses.add(("abort", "w"))
        for lt in self._threads.values():
            if lt.state == _BLOCKED:
                lt.channel = None
                lt.predicate = None
                self._mark_ready(lt)

    # -- footprint / observation hooks ----------------------------------------

    def note_access(self, obj: str, mode: str = "w") -> None:
        """The running segment touched shared object ``obj`` (mode r/w)."""
        lt = self._threads.get(self._running)
        if lt is not None:
            lt.accesses.add((obj, mode))

    def note_observation(self, value: object) -> None:
        """The running thread observed ``value`` (shared read, collective or
        recv result, claim outcome) — folds into its local-state hash."""
        lt = self._threads.get(self._running)
        if lt is not None:
            # bounded_repr: a fuzzed ``x = x * x`` loop mints ints past
            # CPython's 4300-digit str limit; plain repr would kill the
            # run mid-observation (found by the fuzz campaign).
            lt.obs = zlib.crc32(
                bounded_repr(value).encode("utf-8", "replace"), lt.obs)

    # -- decision points ------------------------------------------------------

    def yield_point(self, world, kind: str, detail: str = "") -> bool:
        """A SchedPoint of the running thread.  Returns True when another
        thread was chosen, i.e. the caller must ``yield``."""
        me = self._running
        point = f"{kind}:{detail}" if detail else kind
        lt = self._threads[me]
        # The yield ends the current segment; the next one (whoever runs
        # it first) begins by executing this point's operation.
        self._close_segment(lt, point_footprint(point))
        chosen = self._choose(kind, detail, me, self._ready(include=me), world)
        if chosen == me:
            self._vtime += 1
            return False
        self._mark_ready(lt)
        self._grant(chosen)
        return True

    def block(self, world, channel: object, describe: str = "",
              predicate: Optional[Callable[[], bool]] = None) -> bool:
        """Park the running thread on ``channel`` until a :meth:`notify`
        whose ``predicate`` holds (or an abort).  Returns True when the
        caller must ``yield``."""
        if world.aborted:
            return False  # caller's loop re-checks the abort flag first
        me = self._running
        lt = self._threads[me]
        lt.state = _BLOCKED
        lt.channel = channel
        lt.predicate = predicate
        lt.describe = describe or me
        # Park ends the segment; keep pending_fp — on wake the thread
        # resumes *inside* the same logical operation (e.g. the recv loop
        # re-checking and popping the queue).
        self._close_segment(lt, None)
        # Hand the token over (may hand it straight back if the handoff
        # detects a structural deadlock and aborts).
        self._schedule_next(world, SchedPoint.BLOCK, describe)
        return self._current != me

    def notify(self, world, channel: object) -> None:
        for lt in self._threads.values():
            if lt.state == _BLOCKED and lt.channel is channel:
                if lt.predicate is None or lt.predicate():
                    lt.channel = None
                    lt.predicate = None
                    self._mark_ready(lt)

    # -- internals -------------------------------------------------------------

    def _close_segment(self, lt: _Logical,
                       next_fp: Optional[Footprint]) -> None:
        fp = lt.pending_fp
        if lt.accesses:
            fp = fp | frozenset(lt.accesses)
            lt.accesses.clear()
        self.events.append((lt.name, fp))
        if next_fp is not None:
            lt.pending_fp = next_fp

    def _mark_ready(self, lt: _Logical) -> None:
        if lt.state != _READY:
            lt.state = _READY
            insort(self._ready_list, lt.name)

    def _ready(self, include: Optional[str] = None) -> List[str]:
        names = list(self._ready_list)
        if include is not None:
            i = bisect_left(names, include)
            if i >= len(names) or names[i] != include:
                names.insert(i, include)
        return names

    def _choose(self, kind: str, detail: str, current: Optional[str],
                candidates: List[str], world) -> str:
        if len(candidates) == 1:
            return candidates[0]
        point = f"{kind}:{detail}" if detail else kind
        index = len(self.decisions)
        chosen = self.strategy.choose(index, candidates, current, point)
        if chosen not in candidates:
            chosen = candidates[0]
        self.decision_event_index.append(len(self.events))
        inherit = self._inherit
        if index < len(inherit) and inherit[index][0] in candidates:
            recorded, fingerprint = inherit[index]
            if chosen != recorded:
                del inherit[index + 1:]  # later states are this run's own
        else:
            # Past the recorded path or off it: hash from here on.
            inherit.clear()
            fingerprint = self._fingerprint(world) if self.fingerprints \
                else None
        self.state_fingerprints.append(fingerprint)
        self.decisions.append(Decision(index, point, current,
                                       tuple(candidates), chosen))
        return chosen

    def _fingerprint(self, world) -> str:
        """Canonical hash of the quiescent state at a branching decision.

        All logical threads are parked here (single token), so the state is
        fully described by: each thread's park position (pending footprint +
        blocked/ready + wait description) and observation hash, plus the
        world's shared state (mailbox queues, collective-round progress,
        shared interpreter cells, finished ranks) as reported by
        ``world.fingerprint_state()``.
        """
        parts = []
        for name in sorted(self._threads):
            lt = self._threads[name]
            parts.append((name, lt.state,
                          lt.describe if lt.state == _BLOCKED else "",
                          lt.obs, footprint_to_list(lt.pending_fp)))
        blob = repr((parts, world.fingerprint_state())).encode(
            "utf-8", "replace")
        return hashlib.sha256(blob).hexdigest()[:16]

    def _grant(self, name: str) -> None:
        lt = self._threads[name]
        lt.state = _RUNNING
        i = bisect_left(self._ready_list, name)
        if i < len(self._ready_list) and self._ready_list[i] == name:
            self._ready_list.pop(i)
        self._current = name
        self._vtime += 1

    def _schedule_next(self, world, kind: str, detail: str) -> None:
        self._current = None
        ready = self._ready()
        if not ready:
            blocked = sorted(n for n, lt in self._threads.items()
                             if lt.state == _BLOCKED)
            if not blocked:
                return  # every logical thread has exited: the run is over
            if not world.aborted:
                state = "; ".join(self._threads[n].describe or n
                                  for n in blocked)
                self.deadlock_state = state
                world.abort(DeadlockError(
                    f"deadlock: every logical thread is blocked — {state}"
                ))  # on_abort marked them ready so they can unwind
            else:
                self.on_abort(world)
            ready = self._ready()
        chosen = self._choose(kind, detail, None, ready, world)
        self._grant(chosen)
