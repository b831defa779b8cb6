"""Dynamic partial-order reduction tests: the soundness property (DPOR
visits a subset of the bounded-DFS schedules yet finds the identical
verdict set), the headline reduction on the seeded racy gallery case, the
byte-identical parallel frontier (``--jobs``), footprint commutativity,
trace v1/v2 compatibility, random-strategy dedupe, the wall-clock
budget, prefix fingerprints reused from the parent run (equal to a fresh
hash, and the only ones not hashed), and determinism: a sweep is one OS
thread, so its schedule counts cannot depend on how the interpreter
switches OS threads."""

import json
import sys
import threading

import pytest

from repro import parse_program
from repro.bench.errors_gallery import (
    CASES,
    interprocedural_cases,
    schedule_sensitive_cases,
)
from repro.explore import (
    DporStrategy,
    ExploreConfig,
    RunRecord,
    ScheduleTrace,
    conflicts,
    explore_config,
    replay,
    verdict_line,
)
from repro.explore.footprint import (
    WILDCARD,
    footprint_from_list,
    footprint_to_list,
)

PROPERTY_CASES = sorted(set(schedule_sensitive_cases())
                        | set(interprocedural_cases()))


def _program(name):
    return parse_program(CASES[name].source, name)


def _explore(name, strategy, **kwargs):
    case = CASES[name]
    config = ExploreConfig(nprocs=case.nprocs, num_threads=case.num_threads)
    kwargs.setdefault("runs", 5000)
    kwargs.setdefault("preemptions", 1)
    kwargs.setdefault("minimize", False)
    return explore_config(_program(name), config, strategy=strategy, **kwargs)


# -- the soundness property --------------------------------------------------------


@pytest.mark.parametrize("name", PROPERTY_CASES)
def test_dpor_schedules_subset_of_dfs_with_identical_verdicts(name):
    dfs = _explore(name, "dfs", collect_schedules=True)
    dpor = _explore(name, "dpor", collect_schedules=True)
    # The DFS sweep must have exhausted the bounded tree, otherwise the
    # subset comparison would be against a truncated baseline.
    assert dfs.schedules < 5000
    assert set(dpor.schedule_choices) <= set(dfs.schedule_choices)
    assert set(dpor.verdict_counts) == set(dfs.verdict_counts)
    assert (dpor.failed > 0) == (dfs.failed > 0)


def test_dpor_reduction_on_racy_single_worker_allreduce_nt3():
    """The ISSUE's headline: ≥ 10× fewer schedules at nt=3, same verdicts."""
    program = _program("racy_single_worker_allreduce")
    config = ExploreConfig(nprocs=2, num_threads=3)
    dfs = explore_config(program, config, strategy="dfs", runs=5000,
                         preemptions=1, minimize=False)
    dpor = explore_config(program, config, strategy="dpor", runs=5000,
                          preemptions=1, minimize=False)
    assert dfs.schedules < 5000
    assert set(dpor.verdict_counts) == set(dfs.verdict_counts)
    assert "DeadlockError" in dpor.verdict_counts
    assert dfs.schedules >= 10 * dpor.schedules
    assert dpor.dpor_stats is not None
    assert dpor.dpor_stats["independent_skips"] > 0


def test_dpor_summary_reports_pruning():
    report = _explore("racy_single_worker_allreduce", "dpor")
    assert "dpor: pushed" in report.summary()
    assert "independent" in report.summary()


# -- parallel frontier -------------------------------------------------------------


def test_dpor_jobs_output_is_byte_identical_to_serial():
    # One parse: construct uids embedded in decision points are a
    # per-parse counter, and the comparison is on verbatim trace text.
    program = _program("racy_single_worker_allreduce")
    config = ExploreConfig(nprocs=2, num_threads=2)

    def snapshot(jobs):
        r = explore_config(program, config, strategy="dpor", runs=5000,
                           preemptions=1, minimize=False, jobs=jobs,
                           collect_schedules=True)
        return (r.schedules, dict(r.verdict_counts), r.dpor_stats,
                r.schedule_choices,
                [(f.index, f.verdict, f.trace.choices) for f in r.failures],
                r.summary())

    serial = snapshot(1)
    assert snapshot(2) == serial
    assert snapshot(3) == serial


# -- footprints --------------------------------------------------------------------


def test_footprint_commutativity_relation():
    r = frozenset({("mbox:r1", "r")})
    w = frozenset({("mbox:r1", "w")})
    other = frozenset({("mbox:r2", "w")})
    arrive = frozenset({("comm", "c:MPI_Barrier")})
    arrive2 = frozenset({("comm", "c:MPI_Bcast")})
    assert not conflicts(r, r)            # read/read commutes
    assert conflicts(r, w)                # read/write on one object races
    assert conflicts(w, w)
    assert not conflicts(w, other)        # distinct objects commute
    assert not conflicts(arrive, arrive)  # same-op arrivals commute
    assert conflicts(arrive, arrive2)     # different collectives race
    assert conflicts(WILDCARD, r)         # unknown steps conflict with all
    assert not conflicts(frozenset(), WILDCARD)  # pure-local steps never do


def test_footprint_list_roundtrip():
    fp = frozenset({("claim:r0u3", "w"), ("bar:r0", "c:arrive")})
    assert footprint_from_list(footprint_to_list(fp)) == fp


# -- trace format compatibility ----------------------------------------------------


def test_v2_trace_carries_footprints_and_fingerprints(tmp_path):
    report = _explore("racy_single_worker_allreduce", "dpor")
    trace = report.failures[0].trace
    data = trace.to_dict()
    assert data["version"] == 2
    assert any("f" in c for c in data["choices"])
    path = tmp_path / "t.json"
    trace.save(str(path))
    loaded = ScheduleTrace.load(str(path))
    assert loaded.choices == trace.choices
    assert loaded.step_footprints == trace.step_footprints


def test_v1_trace_replays_under_v2_reader():
    report = _explore("racy_single_worker_allreduce", "dpor")
    trace = report.failures[0].trace
    data = trace.to_dict()
    # Rewrite as the v1 schema: no footprint / fingerprint keys.
    data["version"] = 1
    for choice in data["choices"]:
        choice.pop("f", None)
        choice.pop("sf", None)
    old = ScheduleTrace.from_dict(json.loads(json.dumps(data)))
    assert old.choices == trace.choices
    result, _, divergences = replay(_program("racy_single_worker_allreduce"),
                                    old)
    assert divergences == 0
    assert verdict_line(result) == trace.verdict


# -- random dedupe and budget ------------------------------------------------------


def test_random_strategy_resamples_duplicates():
    report = _explore("racy_single_worker_allreduce", "random",
                      runs=40, seed=7)
    assert report.schedules == 40          # duplicates never eat the quota
    assert report.duplicates_skipped > 0
    assert "duplicates resampled" in report.summary()
    assert "DeadlockError" in report.verdict_counts


def test_budget_zero_stops_early_with_partial_summary():
    report = _explore("racy_single_worker_allreduce", "dfs", budget=0.0)
    assert report.budget_exhausted
    assert report.schedules <= 1
    assert "budget exhausted (partial)" in report.summary()


def test_budget_allows_clean_partial_dpor_sweep():
    report = _explore("interproc_recursive_barrier", "dpor", budget=0.0)
    assert report.budget_exhausted
    assert "budget exhausted (partial)" in report.summary()


# -- driver-level invariants -------------------------------------------------------


def test_dpor_driver_wave_order_is_independent_of_wave_size():
    """The FIFO driver expands nodes in push order whatever the wave size —
    exercised here without any scheduler, over canned records."""
    program = _program("racy_flag_guarded_barrier")
    case = CASES["racy_flag_guarded_barrier"]
    config = ExploreConfig(nprocs=case.nprocs, num_threads=case.num_threads)

    from repro.explore.explore import _dpor_worker

    def sweep(wave_size):
        driver = DporStrategy(preemption_bound=1)
        order = []

        def execute_wave(runs):
            records = []
            for prefix, inherited in runs:
                order.append(tuple(prefix))
                _, record = _dpor_worker(
                    (program, config, None, prefix, inherited, 1, True))
                records.append(record)
            return records

        for _ in driver.explore(execute_wave, max_runs=64,
                                wave_size=wave_size):
            pass
        return order, driver.stats.as_dict()

    assert sweep(1) == sweep(4)


def test_run_record_is_picklable():
    import pickle

    program = _program("racy_single_worker_allreduce")
    config = ExploreConfig(nprocs=2, num_threads=2)
    from repro.explore.explore import _dpor_worker
    trace, record = _dpor_worker((program, config, None, [], (), 1, True))
    blob = pickle.dumps((trace, record))
    trace2, record2 = pickle.loads(blob)
    assert record2.events == record.events
    assert record2.fingerprints == record.fingerprints
    assert isinstance(record2, RunRecord)


# -- inherited prefix fingerprints ---------------------------------------------------


def _recorded_sweep(monkeypatch, program, config, **kwargs):
    """Run a serial DPOR sweep; return ``(prefix, inherited, record)`` of
    every run it executed."""
    from repro.explore import explore as explore_mod

    runs = []
    worker = explore_mod._dpor_worker

    def recording_worker(payload):
        trace, record = worker(payload)
        runs.append((payload[3], payload[4], record))
        return trace, record

    monkeypatch.setattr(explore_mod, "_dpor_worker", recording_worker)
    report = explore_config(program, config, strategy="dpor",
                            minimize=False, **kwargs)
    monkeypatch.setattr(explore_mod, "_dpor_worker", worker)
    assert len(runs) == report.schedules
    return runs


@pytest.mark.parametrize("nt", [2, 3])
@pytest.mark.parametrize("name", sorted(schedule_sensitive_cases()))
def test_inherited_fingerprints_equal_a_fresh_run(name, nt, monkeypatch):
    """Every run of the sweep reuses its parent's fingerprints over the
    forced prefix; hashing the same prefix from scratch gives the same
    values, at every decision of the run."""
    from repro.explore import ScriptedStrategy, run_scheduled

    program = _program(name)
    config = ExploreConfig(nprocs=2, num_threads=nt)
    runs = _recorded_sweep(monkeypatch, program, config, runs=200)
    assert any(inherited for _, inherited, _ in runs)
    for prefix, inherited, record in runs:
        assert len(inherited) == len(prefix)
        _, fresh = run_scheduled(program, config, ScriptedStrategy(prefix),
                                 fingerprints=True)
        assert None not in fresh.state_fingerprints
        assert record.fingerprints[:len(prefix)] == list(inherited)
        assert record.fingerprints == fresh.state_fingerprints


def test_sweep_hashes_only_decisions_past_the_prefix(monkeypatch):
    from repro.explore.sched import Scheduler

    hashed = []
    fingerprint = Scheduler._fingerprint

    def counting(self, world):
        hashed.append(1)
        return fingerprint(self, world)

    monkeypatch.setattr(Scheduler, "_fingerprint", counting)
    config = ExploreConfig(nprocs=2, num_threads=3)
    runs = _recorded_sweep(monkeypatch,
                           _program("racy_single_worker_allreduce"), config,
                           runs=200)
    assert len(runs) > 1
    assert len(hashed) == sum(len(record.decisions) - len(prefix)
                              for prefix, _, record in runs)


# -- determinism ------------------------------------------------------------------


@pytest.mark.parametrize("name, nt, runs", [
    ("barrier_in_parallel", 2, 300),
    ("concurrent_singles_nowait", 3, 200),
])
def test_dpor_sweep_is_deterministic_under_fast_thread_switching(name, nt,
                                                                runs):
    program = _program(name)
    config = ExploreConfig(nprocs=2, num_threads=nt)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outcomes = set()
        for _ in range(5):
            report = explore_config(program, config, strategy="dpor",
                                    runs=runs, minimize=False)
            outcomes.add((report.schedules,
                          tuple(sorted(report.verdict_counts.items()))))
    finally:
        sys.setswitchinterval(previous)
    assert len(outcomes) == 1, outcomes


def test_gallery_dpor_sweep_starts_no_os_thread(monkeypatch):
    started = []
    original = threading.Thread.start

    def counted_start(thread, *args, **kwargs):
        started.append(thread.name)
        return original(thread, *args, **kwargs)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    for name in sorted(CASES):
        report = explore_config(_program(name),
                                ExploreConfig(nprocs=2, num_threads=2),
                                strategy="dpor", runs=20)
        assert report.schedules > 0
    assert started == []
