"""The simulated MPI world: N ranks, each a logical thread of one scheduler.

``MpiWorld.run(target)`` runs ``target(proc)`` — a generator, the rank's
main logical thread — on every rank, under the world's
:class:`~repro.explore.Scheduler` on the calling OS thread.  The first
:class:`ValidationError` raised anywhere aborts the world (all blocked
waits unwind via :class:`AbortedError`) and becomes the run's verdict.  A
rank finishing while peers wait in a collective is detected as a deadlock
by the engines.

Every blocking decision point is a generator hook here that delegates to
the scheduler (see ``schedpoint.py``): exactly one logical thread runs at a
time, so the run is deterministic and deadlocks are detected structurally
the moment every logical thread is blocked.  Without an explicit scheduler
the world installs the default run-to-completion one on a wall clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Set, Tuple

from ...mpi.thread_levels import ThreadLevel
from ..errors import AbortedError, ValidationError
from .engine import CollectiveEngine
from .mailbox import Mailbox
from .process import MpiProcess


@dataclass
class RunResult:
    """Outcome of one simulated MPI run."""

    nprocs: int
    error: Optional[ValidationError] = None
    #: rank -> lines printed by the program.
    outputs: Dict[int, List[str]] = field(default_factory=dict)
    #: rank -> value returned by the entry function (if any).
    returns: Dict[int, object] = field(default_factory=dict)
    #: Counters from the inserted checks (CC calls executed, ENTER checks).
    cc_calls: int = 0
    enter_checks: int = 0
    elapsed: float = 0.0
    #: Completed collective rounds (op name, signature) — the run's
    #: communication history, used by trace replay validation.
    history: List[Tuple[str, tuple]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def verdict(self) -> str:
        if self.error is None:
            return "clean"
        return type(self.error).__name__

    @property
    def detected_by(self) -> str:
        return self.error.detected_by if self.error is not None else ""


class MpiWorld:
    def __init__(self, nprocs: int, thread_level: ThreadLevel = ThreadLevel.MULTIPLE,
                 timeout: float = 20.0, scheduler=None) -> None:
        if nprocs < 1:
            raise ValueError("need at least one rank")
        if scheduler is None:
            from ...explore.sched import Scheduler  # explore builds on runtime
            scheduler = Scheduler(wall_clock=True)
        self.nprocs = nprocs
        self.thread_level = thread_level
        #: The run's step budget (see :meth:`Scheduler.tick`).
        self.timeout = timeout
        self.scheduler = scheduler
        self.abort_error: Optional[ValidationError] = None
        self.aborted = False
        self._fingerprint_providers: Dict[str, Callable[[], object]] = {}
        self.finished_ranks: Set[int] = set()
        self.engine = CollectiveEngine(self, list(range(nprocs)))
        self.mailbox = Mailbox(self)
        self.procs = [MpiProcess(self, rank) for rank in range(nprocs)]

    # -- scheduler façade ------------------------------------------------------

    def yield_point(self, kind: str, detail: str = "") -> Generator:
        """A SchedPoint: ``yield from`` it; parks while another thread runs."""
        if self.scheduler.yield_point(self, kind, detail):
            yield

    def wait(self, channel: object, describe: str = "",
             predicate=None) -> Generator:
        """Park on ``channel`` until its state may have changed (or the
        world aborts); callers loop on their own condition."""
        if self.scheduler.block(self, channel, describe, predicate):
            yield

    def notify(self, channel: object) -> None:
        """State behind ``channel`` changed: wake its satisfied waiters."""
        self.scheduler.notify(self, channel)

    def note_access(self, obj: str, mode: str = "w") -> None:
        """The running thread touched shared object ``obj`` (footprints)."""
        self.scheduler.note_access(obj, mode)

    def note_observation(self, value) -> None:
        """The running thread observed ``value`` (state fingerprints)."""
        self.scheduler.note_observation(value)

    # -- state fingerprinting ------------------------------------------------------

    def register_fingerprint_provider(self, key: str, provider) -> None:
        """Register a component (e.g. a rank's interpreter) that contributes
        shared state to :meth:`fingerprint_state`; keyed so composition
        order never depends on registration order."""
        self._fingerprint_providers[key] = provider

    def fingerprint_state(self):
        """Canonical snapshot of all world-level shared state, consumed by
        the scheduler's per-decision state hash."""
        providers = tuple(
            (key, self._fingerprint_providers[key]())
            for key in sorted(self._fingerprint_providers)
        )
        return (
            tuple(sorted(self.finished_ranks)),
            self.aborted,
            self.engine.fingerprint_state(),
            self.mailbox.fingerprint_state(),
            tuple(proc.fingerprint_state() for proc in self.procs),
            providers,
        )

    # -- abort protocol -----------------------------------------------------------

    def abort(self, error: ValidationError) -> None:
        """Record the first verdict and wake every blocked wait."""
        if self.abort_error is None:
            self.abort_error = error
        self.aborted = True
        self.scheduler.on_abort(self)

    def check_abort(self) -> None:
        if self.aborted:
            raise AbortedError()

    # -- execution ------------------------------------------------------------------

    def run(self, target: Callable[[MpiProcess], Generator]) -> RunResult:
        """Run the generator ``target(proc)`` on every rank; collect the
        verdict."""
        result = RunResult(nprocs=self.nprocs)
        start = time.perf_counter()

        def runner(proc: MpiProcess) -> Generator:
            try:
                result.returns[proc.rank] = yield from target(proc)
            except ValidationError as err:
                if err.rank is None:
                    err.rank = proc.rank
                self.abort(err)
            except AbortedError:
                pass
            except Exception as err:  # noqa: BLE001 - surface interpreter bugs
                wrapped = ValidationError(f"internal error on rank {proc.rank}: {err!r}")
                wrapped.rank = proc.rank
                self.abort(wrapped)
            finally:
                self.finished_ranks.add(proc.rank)
                self.engine.on_proc_finished(proc.rank)

        self.scheduler.run(self, [(f"r{proc.rank}", runner(proc))
                                  for proc in self.procs])
        result.error = self.abort_error
        result.elapsed = time.perf_counter() - start
        result.history = list(self.engine.history)
        for proc in self.procs:
            result.outputs[proc.rank] = proc.output
            result.cc_calls += proc.cc_calls
            result.enter_checks += proc.enter_checks
        return result
