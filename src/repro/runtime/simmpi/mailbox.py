"""Point-to-point message store (one per communicator).

Send is buffered (never blocks); Recv blocks until a matching
``(source, tag)`` message exists — parked on the mailbox through the
world's generator hooks, woken by sends and abort.  Wildcards:
``source=-1`` (any source), ``tag=-1`` (any tag), mirroring
``MPI_ANY_SOURCE``/``MPI_ANY_TAG``.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..schedpoint import SchedPoint


class Mailbox:
    def __init__(self, world: "MpiWorld") -> None:  # noqa: F821
        self.world = world
        #: dest rank -> list of (source, tag, value), FIFO per (source, tag).
        self.queues: Dict[int, List[Tuple[int, int, Any]]] = {}

    def send(self, source: int, dest: int, tag: int, value: Any) -> Generator:
        yield from self.world.yield_point(SchedPoint.SEND, f"r{source}->r{dest}")
        self.queues.setdefault(dest, []).append((source, tag, value))
        self.world.notify(self)

    def fingerprint_state(self):
        """Canonical queue contents for state fingerprinting."""
        return tuple(
            (dest, tuple(self.queues[dest]))
            for dest in sorted(self.queues) if self.queues[dest]
        )

    def _match(self, dest: int, source: int, tag: int) -> Optional[int]:
        queue = self.queues.setdefault(dest, [])
        for i, (src, t, _value) in enumerate(queue):
            if (source in (-1, src)) and (tag in (-1, t)):
                return i
        return None

    def recv(self, dest: int, source: int, tag: int) -> Generator:
        yield from self.world.yield_point(SchedPoint.RECV, f"r{dest}<-{source}")
        while True:
            index = self._match(dest, source, tag)
            if index is not None:
                src, t, value = self.queues[dest].pop(index)
                self.world.note_observation(("recv", src, t, value))
                return value
            self.world.check_abort()
            yield from self.world.wait(
                self,
                f"rank {dest} in MPI_Recv(source={source}, tag={tag})",
                lambda: self._match(dest, source, tag) is not None,
            )
