"""simomp — the explicit fork/join OpenMP-like thread runtime.

A :class:`Team` is one parallel region instance: the encountering thread
becomes tid 0 (the master), ``size - 1`` workers are spawned as new
logical threads, and ``Team.run`` joins them (the join is the region's
implicit barrier from the master's perspective; the interpreter emits the
semantic implicit barrier explicitly before the join so *all* threads
synchronize, as OpenMP requires).  Teams nest freely — a worker
encountering another ``parallel`` creates a sub-team, which is the
perfectly nested model the paper assumes.

Workers are generators run by the world's scheduler, which names them
deterministically (``P/k.t``), so a run is reproducible from its schedule
choice sequence alone.  All blocking (barriers, the master's join) goes
through the world's generator hooks.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Tuple

from ..errors import AbortedError, ValidationError
from ..schedpoint import SchedPoint

#: A team body: ``body(tid)`` returns the generator that thread runs.
Body = Callable[[int], Generator]


class Team:
    def __init__(self, world: "MpiWorld", proc: "MpiProcess", size: int) -> None:  # noqa: F821
        if size < 1:
            raise ValueError("team size must be >= 1")
        self.world = world
        self.proc = proc
        self.size = size
        # Generation barrier; ``_barrier`` is its wait channel.
        self._barrier = object()
        self._bar_count = 0
        self._bar_gen = 0
        # Worker completion (the master's join); ``_joined`` is its channel.
        self._joined = object()
        self._done = 0
        # single/sections claims: (construct_uid, encounter_index) -> tid.
        self._claims: Dict[Tuple[int, int], int] = {}

    # -- fork/join -------------------------------------------------------------

    def run(self, body: Body) -> Generator:
        """Execute ``body(tid)`` on ``size`` threads (master = caller)."""
        self.proc.enter_parallel(self.size)
        try:
            if self.size == 1:
                yield from self._run_guarded(body, 0)
                return
            self.world.scheduler.spawn([self._worker_main(body, tid)
                                        for tid in range(1, self.size)])
            yield from self._run_guarded(body, 0)
            yield from self._join_workers()
        finally:
            self.proc.exit_parallel(self.size)

    def _worker_main(self, body: Body, tid: int) -> Generator:
        try:
            yield from self._run_guarded(body, tid)
        finally:
            self._done += 1
            self.world.notify(self._joined)

    def _join_workers(self) -> Generator:
        workers = self.size - 1
        while self._done < workers:
            self.world.check_abort()
            yield from self.world.wait(
                self._joined,
                f"rank {self.proc.rank} master joining its team",
                lambda: self._done >= workers,
            )
        self.world.check_abort()

    def _run_guarded(self, body: Body, tid: int) -> Generator:
        try:
            yield from body(tid)
        except AbortedError:
            if tid == 0:
                raise
        except ValidationError as err:
            if err.rank is None:
                err.rank = self.proc.rank
            self.world.abort(err)
            self.world.notify(self._barrier)
            if tid == 0:
                raise AbortedError() from err
        except Exception as err:  # noqa: BLE001 - surface interpreter bugs
            wrapped = ValidationError(
                f"internal error on rank {self.proc.rank} tid {tid}: {err!r}"
            )
            wrapped.rank = self.proc.rank
            self.world.abort(wrapped)
            self.world.notify(self._barrier)
            if tid == 0:
                raise AbortedError() from err

    # -- barrier --------------------------------------------------------------------

    def barrier(self) -> Generator:
        """Team barrier; a thread that never arrives shows up as a
        structural deadlock."""
        if self.size == 1:
            self.world.check_abort()
            return
        yield from self.world.yield_point(SchedPoint.OMP_BARRIER,
                                          f"r{self.proc.rank}")
        gen = self._bar_gen
        self._bar_count += 1
        if self._bar_count == self.size:
            self._bar_count = 0
            self._bar_gen += 1
            self.world.notify(self._barrier)
            return
        while self._bar_gen == gen:
            self.world.check_abort()
            yield from self.world.wait(
                self._barrier,
                f"rank {self.proc.rank} in omp barrier "
                f"({self._bar_count}/{self.size} arrived)",
                lambda: self._bar_gen != gen,
            )

    # -- worksharing --------------------------------------------------------------------

    def claim(self, construct_uid: int, encounter: int, tid: int) -> Generator:
        """First thread to claim ``(construct, encounter)`` wins (single)."""
        yield from self.world.yield_point(
            SchedPoint.CLAIM, f"r{self.proc.rank}t{tid}u{construct_uid}")
        key = (construct_uid, encounter)
        won = key not in self._claims
        if won:
            self._claims[key] = tid
        self.world.note_observation(("claim", construct_uid, encounter, won))
        return won

    def static_chunk(self, tid: int, count: int) -> range:
        """Indices [0, count) assigned to ``tid`` under static scheduling
        (contiguous blocks, remainder spread over the first threads)."""
        base = count // self.size
        extra = count % self.size
        lo = tid * base + min(tid, extra)
        size = base + (1 if tid < extra else 0)
        return range(lo, lo + size)

    def section_owner(self, index: int) -> int:
        """Round-robin assignment of section ``index`` to a thread."""
        return index % self.size
