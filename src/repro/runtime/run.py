"""High-level execution façade: run a minilang program under the simulator.

``run_program`` is what the examples, tests and benchmarks use: it wires an
:class:`MpiWorld`, one interpreter per rank, and the check state (fed with
the analysis' check-group kinds when an instrumented program is run).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..minilang import ast_nodes as A
from ..mpi.thread_levels import ThreadLevel
from .checks import CheckState
from .interp.interpreter import Interpreter
from .simmpi.world import MpiWorld, RunResult

#: Wall-clock seconds a run may take when the caller installs no scheduler
#: and threads no explicit budget through.
DEFAULT_TIMEOUT = 10.0

#: Virtual-clock budget (scheduling operations, loop iterations, function
#: calls) under a caller's scheduler — real deadlocks are detected
#: structurally and immediately; the budget only stops runs that never end.
DEFAULT_STEP_BUDGET = 1_000_000.0


def run_program(
    program: A.Program,
    nprocs: int = 2,
    num_threads: int = 2,
    thread_level: ThreadLevel = ThreadLevel.MULTIPLE,
    group_kinds: Optional[Dict[int, str]] = None,
    entry: str = "main",
    timeout: Optional[float] = None,
    scheduler=None,
) -> RunResult:
    """Execute ``program`` on ``nprocs`` simulated ranks.

    Parameters
    ----------
    program:
        Original or instrumented AST.
    num_threads:
        Default OpenMP team size (``num_threads`` clauses override it).
    thread_level:
        Maximum thread support the simulated MPI grants
        (``MPI_Init_thread`` requests are capped at this).
    group_kinds:
        ``ProgramAnalysis.group_kinds`` when running instrumented code —
        selects the error type the ENTER counters raise.
    timeout:
        Step budget of the run; past it the run ends with a ``run
        stalled`` :class:`DeadlockError`.  Deadlocks never wait for it:
        they are reported the instant every logical thread blocks.  With
        a caller's ``scheduler`` the clock is *virtual* (one tick per
        scheduling operation, loop iteration and function call; default
        ``DEFAULT_STEP_BUDGET``); without one it is wall-clock seconds
        (default ``DEFAULT_TIMEOUT``).
    scheduler:
        A :class:`repro.explore.Scheduler` with the strategy to run and the
        decision log to record.  ``None`` (default) installs the
        run-to-completion default strategy on a wall clock.
    """
    if timeout is None:
        timeout = DEFAULT_STEP_BUDGET if scheduler is not None else DEFAULT_TIMEOUT
    world = MpiWorld(nprocs, thread_level=thread_level, timeout=timeout,
                     scheduler=scheduler)

    def target(proc):
        checks = CheckState(proc, group_kinds)
        interp = Interpreter(program, proc, check_state=checks,
                             num_threads=num_threads)
        return interp.run(entry)

    return world.run(target)
