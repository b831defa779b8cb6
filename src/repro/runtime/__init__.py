"""Execution substrate: MPI simulator, OpenMP-like runtime, interpreter,
and the runtime verification library the instrumentation targets."""

from .checks import CheckState
from .errors import (
    AbortedError,
    CollectiveMismatchError,
    ConcurrentCollectiveError,
    DeadlockError,
    MpiRuntimeError,
    ThreadContextError,
    ThreadLevelError,
    ValidationError,
)
from .interp import Interpreter
from .run import run_program
from .schedpoint import SchedPoint
from .simmpi import MpiProcess, MpiWorld, RunResult
from .simomp import Team

__all__ = [
    "SchedPoint",
    "CheckState",
    "AbortedError",
    "CollectiveMismatchError",
    "ConcurrentCollectiveError",
    "DeadlockError",
    "MpiRuntimeError",
    "ThreadContextError",
    "ThreadLevelError",
    "ValidationError",
    "Interpreter",
    "run_program",
    "MpiProcess",
    "MpiWorld",
    "RunResult",
    "Team",
]
