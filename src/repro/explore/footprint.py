"""Access footprints and the commutativity relation over schedule steps.

A *footprint* describes what one schedule step (a logical thread's segment
of execution between two SchedPoint parks) touches: the mailbox of the rank
it sends to, the communicator it enters a collective on, the team barrier
it arrives at, the ``single`` claim it races for, the critical-section
lock, the per-rank check counters, and every shared interpreter variable it
read or wrote along the way.  Two steps *commute* when executing them in
either order reaches the same state — which is exactly when dynamic
partial-order reduction may prune one of the two orders.

Representation: a ``frozenset`` of ``(object, mode)`` pairs where ``mode``
is

* ``"r"`` — read; two reads of the same object commute;
* ``"w"`` — write; conflicts with every other access of the object;
* ``"c:<tag>"`` — a *symmetric arrival* (collective round entry, team
  barrier arrival): two arrivals with the **same** tag commute (the engine
  state they build is keyed by rank / counted, so order is irrelevant),
  while arrivals with different tags — e.g. ``MPI_Bcast`` racing
  ``MPI_Barrier`` into one round — conflict, because whichever arrives
  second triggers the mismatch;
* object ``"*"`` — wildcard: conflicts with every non-empty footprint
  (used for steps we cannot classify, keeping the reduction sound).

Base footprints are derived purely from the ``kind:detail`` strings of
:class:`~repro.runtime.schedpoint.SchedPoint` hooks; the scheduler unions
in the shared-variable accesses observed at runtime (see
``Scheduler.note_access``).

A sweep sees few distinct footprints but hashes and records them at every
decision, so the base footprint of each point string and the canonical
sorted form of each footprint are computed once and memoised (bounded
LRU caches: a fuzz campaign keeps minting new programs).
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import FrozenSet, Iterable, Tuple

from ..runtime.schedpoint import SchedPoint

#: One access: ``(object label, mode)``.
Access = Tuple[str, str]
Footprint = FrozenSet[Access]

EMPTY: Footprint = frozenset()
#: Conservative fallback: conflicts with everything.
WILDCARD: Footprint = frozenset({("*", "w")})

_CLAIM_RE = re.compile(r"^(r\d+)t\d+(u\d+)$")

_CACHE_SIZE = 4096


@lru_cache(maxsize=_CACHE_SIZE)
def point_footprint(point: str) -> Footprint:
    """Base footprint of one SchedPoint, from its ``kind:detail`` string."""
    kind, _, detail = point.partition(":")
    if kind == SchedPoint.COLLECTIVE:
        # "MPI_Bcast@r0" — one communicator object; same-op arrivals are
        # symmetric (rank-keyed), different ops racing into a round are not.
        op = detail.split("@", 1)[0]
        return frozenset({("comm", f"c:{op}")})
    if kind == SchedPoint.SEND:
        # "r0->r1" — the destination queue is the shared object.
        dest = detail.split("->", 1)[-1]
        return frozenset({(f"mbox:{dest}", "w")})
    if kind == SchedPoint.RECV:
        # "r1<-0" — receives mutate the destination queue.
        dest = detail.split("<-", 1)[0]
        return frozenset({(f"mbox:{dest}", "w")})
    if kind == SchedPoint.OMP_BARRIER:
        # "r0" — barrier arrivals of one rank's teams are symmetric.
        return frozenset({(f"bar:{detail}", "c:arrive")})
    if kind == SchedPoint.CLAIM:
        # "r0t1u5" — the (rank, construct) claim: first arrival wins, so
        # order matters; the tid is the contender, not the object.
        match = _CLAIM_RE.match(detail)
        if match:
            return frozenset({(f"claim:{match.group(1)}{match.group(2)}", "w")})
        return WILDCARD
    if kind == SchedPoint.CRITICAL:
        # "r0:name" — per-process named lock.
        return frozenset({(f"crit:{detail}", "w")})
    if kind == SchedPoint.CHECK:
        # "enter:r0:<what>" / "exit:r0:<group>" — the rank's concurrency
        # counters; whichever thread enters second raises, so order matters.
        parts = detail.split(":")
        if len(parts) >= 2 and parts[1].startswith("r"):
            return frozenset({(f"check:{parts[1]}", "w")})
        return WILDCARD
    if kind == SchedPoint.START:
        return EMPTY
    # BLOCK / JOIN / EXIT / unknown kinds: unclassified — stay conservative.
    return WILDCARD


def conflicts(a: Footprint, b: Footprint) -> bool:
    """True when the two steps do **not** commute."""
    if not a or not b:
        return False
    by_obj = {}
    for obj, mode in b:
        if obj == "*":
            return True
        by_obj.setdefault(obj, []).append(mode)
    for obj, mode in a:
        if obj == "*":
            return True
        for other in by_obj.get(obj, ()):
            if mode == "r" and other == "r":
                continue
            if mode.startswith("c:") and mode == other:
                continue
            return True
    return False


@lru_cache(maxsize=_CACHE_SIZE)
def canonical(fp: Footprint) -> Tuple[str, ...]:
    """Sorted ``"object/mode"`` strings of ``fp``."""
    return tuple(sorted(f"{obj}/{mode}" for obj, mode in fp))


def footprint_to_list(fp: Footprint) -> list:
    """Canonical JSON form: sorted ``"object/mode"`` strings."""
    return list(canonical(fp))


def footprint_from_list(items: Iterable[str]) -> Footprint:
    return frozenset(tuple(item.rsplit("/", 1)) for item in items)
