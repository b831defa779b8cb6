"""Thread-local analysis-path probes — the coverage feedback channel.

The coverage-guided fuzzer (``repro.fuzz.coverage``) wants to know *which
paths* one seed exercised: grammar productions fired by the generator,
static-analysis decisions taken by the driver/call-graph layers, summary
classes reached.  Those layers must not depend on the fuzz package (or pay
anything when fuzzing is off), so the channel is this tiny module: a
thread-local counter sink.

``probe(name)`` increments ``name`` in the sink installed on the *calling
thread*, and is a near-free no-op (one ``getattr`` on a thread local) when
no sink is installed — the production cost of an instrumented path.
``collecting()`` installs a fresh sink for a ``with`` block and yields the
counter dict.  Sinks are per-thread by design: a fuzz seed body evaluates
generation + analysis synchronously on one thread, so probes fired by
*other* threads (pool workers, a timed-out zombie seed — see
``docs/fuzzing.md``) can never leak into another seed's signature.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator

_tls = threading.local()


def probe(name: str) -> None:
    """Count one hit of the probe ``name`` on this thread's sink (no-op
    when no sink is installed)."""
    sink = getattr(_tls, "sink", None)
    if sink is not None:
        sink[name] = sink.get(name, 0) + 1


def probes_active() -> bool:
    """True when the calling thread has a sink installed (lets a caller
    skip building expensive probe *arguments*; plain ``probe()`` calls
    don't need the check)."""
    return getattr(_tls, "sink", None) is not None


@contextmanager
def collecting() -> Iterator[Dict[str, int]]:
    """Install a fresh sink on the calling thread for the ``with`` block;
    yields the live counter dict.  Nests: the previous sink (if any) is
    restored on exit and does *not* observe the inner block's probes."""
    previous = getattr(_tls, "sink", None)
    counts: Dict[str, int] = {}
    _tls.sink = counts
    try:
        yield counts
    finally:
        _tls.sink = previous


def bucket(count: int) -> int:
    """AFL-style logarithmic bucket of a hit count (0→0, 1→1, 2-3→2,
    4-7→3, ...) — coarse enough that counter jitter does not mint new
    coverage features."""
    return count.bit_length()


__all__ = ["probe", "probes_active", "collecting", "bucket"]
