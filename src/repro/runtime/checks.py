"""The runtime verification library the instrumentation pass targets.

``PARCOACH_CC(color, name, line)`` → :meth:`CheckState.cc` — the paper's CC
check: an all-reduce of the collective color over the communicator; if
``min != max`` the processes are about to diverge and the run aborts with a
:class:`CollectiveMismatchError` that names, per rank, which collective (or
return) each process was heading into — *before* the divergent collective is
entered, which is exactly the paper's "stops program execution as soon as
this situation is unavoidable".

``PARCOACH_ENTER(group, what)`` / ``PARCOACH_EXIT(group)`` →
:meth:`CheckState.enter` / :meth:`CheckState.exit` — per-process concurrency
counters for the phase-1 (multithreaded collective) and phase-2 (concurrent
monothreaded regions) verdicts.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from ..mpi.collectives import color_name
from .errors import (
    CollectiveMismatchError,
    ConcurrentCollectiveError,
    ThreadContextError,
)
from .schedpoint import SchedPoint
from .simmpi.process import MpiProcess


class CheckState:
    """Per-process state of the inserted checks."""

    def __init__(self, proc: MpiProcess, group_kinds: Optional[Dict[int, str]] = None) -> None:
        self.proc = proc
        self.group_kinds = group_kinds or {}
        self._counters: Dict[int, int] = {}

    # -- CC --------------------------------------------------------------------

    def cc(self, color: int, name: str, line: int) -> Generator:
        if self.proc.finalized:
            # MPI_Finalize is itself a collective: once it matched, every
            # rank is finalized and no further collective can occur, so the
            # post-finalize return-check has nothing left to verify.
            return
        self.proc.cc_calls += 1
        result = yield from self.proc.collective("__CC__", (), color, line=line)
        mn, mx, per_rank = result
        if mn == mx:
            return
        others = "; ".join(
            f"rank {r} heads for {color_name(c)}"
            for r, c in sorted(per_rank.items())
            if c != color
        )
        raise CollectiveMismatchError(
            f"collective sequence mismatch: rank {self.proc.rank} is about to "
            f"execute {name} (line {line}) but {others}",
            rank=self.proc.rank, line=line,
        )

    # -- concurrency counters ------------------------------------------------------

    def enter(self, group: int, what: str, line: int = 0) -> Generator:
        # Entering an instrumented region is schedule-relevant: whether two
        # threads overlap inside it is exactly what exploration varies.
        yield from self.proc.world.yield_point(
            SchedPoint.CHECK, f"enter:r{self.proc.rank}:{what}")
        self.proc.enter_checks += 1
        count = self._counters.get(group, 0) + 1
        self._counters[group] = count
        self.proc.check_counters[group] = count
        if count <= 1:
            return
        kind = self.group_kinds.get(group, "multithread")
        if kind == "concurrent":
            raise ConcurrentCollectiveError(
                f"collectives of concurrent monothreaded regions overlap "
                f"(check group {group}, at {what})",
                rank=self.proc.rank, line=line,
            )
        raise ThreadContextError(
            f"{count} threads of rank {self.proc.rank} execute collective "
            f"{what} concurrently — it must run monothreaded",
            rank=self.proc.rank, line=line,
        )

    def exit(self, group: int) -> Generator:
        yield from self.proc.world.yield_point(
            SchedPoint.CHECK, f"exit:r{self.proc.rank}:{group}")
        count = max(0, self._counters.get(group, 0) - 1)
        self._counters[group] = count
        self.proc.check_counters[group] = count
