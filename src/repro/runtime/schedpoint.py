"""SchedPoints — every blocking decision point of the runtime.

The simulator runs on one OS thread.  Each logical thread (a rank's main
thread, an OpenMP team worker) is a generator, and so is every blocking
primitive: collective rounds, ``MPI_Recv``, team barriers, ``single``
claims, critical sections, the master's join, the inserted checks.  They
all funnel through the world's generator hooks, which delegate to the
scheduler (:class:`repro.explore.Scheduler`):

* ``yield from world.yield_point(kind, detail)`` — a scheduling-relevant
  instant (entering a collective, claiming a ``single``, ...).  It is a
  decision point: the strategy may hand the token to another thread, and
  the caller's generator then ``yield`` s until it is chosen again.
* ``yield from world.wait(channel, describe, predicate)`` — park the
  calling thread on ``channel`` until its state may have changed.  Call
  sites keep classic ``while not <state>: wait(...)`` loops; the scheduler
  uses ``predicate`` for precise wake-ups and ``describe`` for the
  wait-for state that makes deadlock reports exact.
* ``world.notify(channel)`` — state behind ``channel`` changed; wake the
  waiters whose predicate now holds.

``kind`` is one of the :class:`SchedPoint` constants; ``kind:detail`` is
the point label decisions, traces and footprints use.
"""

from __future__ import annotations


class SchedPoint:
    """Kinds of scheduling decision points (trace/labels only)."""

    START = "start"
    COLLECTIVE = "collective"
    SEND = "send"
    RECV = "recv"
    OMP_BARRIER = "omp-barrier"
    CLAIM = "claim"
    CRITICAL = "critical"
    CHECK = "check"
    JOIN = "join"
    EXIT = "exit"
    BLOCK = "block"
