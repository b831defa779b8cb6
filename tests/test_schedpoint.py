"""SchedPoint behavior of the generator runtime: a blocked wait is woken by
notification (on state change and on abort), never by a deadline or by
polling, and critical sections exclude each other under any schedule."""

import time

from repro.explore import RandomStrategy, Scheduler
from repro.mpi.thread_levels import ThreadLevel
from repro.runtime import MpiWorld, SchedPoint, ValidationError
from repro.runtime.simmpi.process import CriticalSection
from repro.runtime.simomp import Team


def test_abort_wakes_a_blocked_collective_promptly():
    """rank 0 blocks in a collective round with a *long* budget; rank 1
    errors after 0.3 s.  The abort must wake rank 0 by notification — well
    before the 30 s budget."""
    def body(proc):
        if proc.rank == 0:
            yield from proc.collective("MPI_Barrier", (), None)
        else:
            time.sleep(0.3)
            raise ValidationError("boom")

    world = MpiWorld(2, timeout=30.0)
    start = time.perf_counter()
    result = world.run(body)
    elapsed = time.perf_counter() - start
    assert result.error is not None and "boom" in str(result.error)
    assert elapsed < 5.0  # notified, not deadline-bound


def test_abort_wakes_a_blocked_recv_promptly():
    def body(proc):
        if proc.rank == 0:
            return (yield from proc.recv(1, 5))
        time.sleep(0.3)
        raise ValidationError("p2p abort")

    world = MpiWorld(2, timeout=30.0)
    start = time.perf_counter()
    result = world.run(body)
    assert result.error is not None
    assert time.perf_counter() - start < 5.0


def test_send_wakes_matching_recv():
    def body(proc):
        if proc.rank == 0:
            time.sleep(0.1)
            yield from proc.send(1, 3, "late")
            return None
        return (yield from proc.recv(0, 3))

    world = MpiWorld(2, timeout=30.0)
    result = world.run(body)
    assert result.ok
    assert result.returns[1] == "late"


def test_critical_section_is_mutually_exclusive_under_any_schedule():
    """Four team threads bump a counter inside one critical section, with
    a SchedPoint inside it so the random schedules switch threads while the
    section is held."""
    for seed in range(20):
        def body(proc):
            section = proc.critical_lock("c")
            team = Team(proc.world, proc, 4)
            counts = []

            def bump(tid):
                yield from section.acquire()
                try:
                    current = len(counts)
                    yield from proc.world.yield_point(SchedPoint.CHECK, "held")
                    counts.append(current)
                finally:
                    section.release()

            yield from team.run(bump)
            return counts

        world = MpiWorld(1, timeout=5.0, scheduler=Scheduler(
            RandomStrategy(seed=seed)))
        result = world.run(body)
        assert result.ok
        assert result.returns[0] == [0, 1, 2, 3]  # strictly serialized


def test_critical_lock_returns_same_section_per_name():
    world = MpiWorld(1, thread_level=ThreadLevel.MULTIPLE, timeout=2.0)
    proc = world.procs[0]
    assert proc.critical_lock("a") is proc.critical_lock("a")
    assert proc.critical_lock("a") is not proc.critical_lock("b")
    assert isinstance(proc.critical_lock("a"), CriticalSection)


def test_run_result_carries_engine_history():
    def body(proc):
        yield from proc.collective("MPI_Barrier", (), None)
        yield from proc.collective("MPI_Allreduce", ("sum",), proc.rank)

    world = MpiWorld(2, timeout=5.0)
    result = world.run(body)
    assert [op for op, _ in result.history] == ["MPI_Barrier", "MPI_Allreduce"]
