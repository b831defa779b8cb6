"""In-process jobs that ``launch.py`` runs in a fresh process.

Each job reads its inputs from files the benchmark wrote, does the work,
and returns a JSON-able result with its own timings.  Every timed item
sits between two machine-speed calibration samples (``calibration[i]``
before item ``i``, ``calibration[i + 1]`` after it), so the benchmark can
scale each item's time by the speed the machine ran at around it.  Jobs
look functions up through their ``repro`` modules at call time, so a
traced launch times them through the wrappers ``pbtrace.install`` put
there.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Dict, List

import pbstats


def _load(plan_path: str) -> dict:
    with open(plan_path, encoding="utf-8") as handle:
        return json.load(handle)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _result(sampler: pbstats.Sampler, **fields) -> Dict[str, object]:
    return {"calibration": sampler.samples, "calibration_s": sampler.seconds,
            **fields}


def explore_sweep(plan_path: str) -> Dict[str, object]:
    """DPOR over every (program, team size) pair of the plan, in order.

    Plan: ``{"runs": N, "nprocs": P, "items": [[name, path, nt], ...]}``.
    Minimisation stays on, as the CLI's default.  ``samples`` of a
    configuration are the ones taken while it ran."""
    import repro.explore as explore
    import repro.minilang.parser as parser

    plan = _load(plan_path)
    programs = {}
    configs: List[Dict[str, object]] = []
    sampler = pbstats.Sampler()
    for name, path, nt in plan["items"]:
        if name not in programs:
            programs[name] = parser.parse_program(_read(path), path)
        config = explore.ExploreConfig(nprocs=plan["nprocs"], num_threads=nt)
        sampler.sample()
        # A configuration runs for up to seconds, so it is also sampled
        # while it runs; the time those samples take is left out of it.
        inside = pbstats.Sampler()
        start = time.perf_counter()
        inside.start()
        try:
            report = explore.explore_config(programs[name], config,
                                            strategy="dpor",
                                            runs=plan["runs"])
        finally:
            inside.stop()
        seconds = time.perf_counter() - start - inside.seconds
        sampler.seconds += inside.seconds
        configs.append({
            "name": name, "nt": nt, "seconds": seconds,
            "samples": inside.samples,
            "schedules": report.schedules,
            "verdicts": dict(report.verdict_counts),
        })
    sampler.sample()
    return _result(sampler, configs=configs)


def fig1(plan_path: str) -> Dict[str, object]:
    """Compile the Figure 1 models through every pipeline stage, ``rounds``
    times, in full mode (analysis and instrumentation included).

    Plan: ``{"rounds": R, "models": [[name, path], ...]}``.  Every stage of
    one compile is timed inside that compile, so the overhead ratio never
    subtracts totals taken from separate runs."""
    import repro.bench.pipeline as pipeline

    plan = _load(plan_path)
    sources = [(name, _read(path)) for name, path in plan["models"]]
    rounds = []
    sampler = pbstats.Sampler()
    for _ in range(plan["rounds"]):
        sampler.sample()
        compiles = []
        for name, source in sources:
            start = time.perf_counter()
            result = pipeline.compile_source(source, "full")
            seconds = time.perf_counter() - start
            compiles.append({
                "name": name, "seconds": seconds,
                "lines": len(source.splitlines()),
                "timings": result.timings,
                "warnings": result.warning_count,
                "emitted": hashlib.sha256(
                    result.emitted.encode()).hexdigest()[:16],
            })
        rounds.append(compiles)
    sampler.sample()
    return _result(sampler, rounds=rounds)


def fuzz_campaign(plan_path: str) -> Dict[str, object]:
    """One ``parcoach fuzz --coverage --jobs 1`` campaign with the CLI's
    default configuration, timing every seed from the campaign's progress
    callback.  Returns the Report IR text the CLI prints with ``--json``.

    Plan: ``{"seeds": N, "base_seed": S}``.  ``latencies[i]`` lies
    between calibration samples ``i`` and ``i + 1``; sampling happens
    between seeds and is left out of their latencies."""
    import repro.core.report as report_ir
    import repro.fuzz as fuzz

    plan = _load(plan_path)
    latencies: List[float] = []
    sampler = pbstats.Sampler()
    sampler.sample()
    last = [time.perf_counter()]

    def progress(_outcome) -> None:
        latencies.append(time.perf_counter() - last[0])
        sampler.sample()
        last[0] = time.perf_counter()

    report = fuzz.run_fuzz(
        seeds=plan["seeds"], base_seed=plan["base_seed"],
        gen_config=fuzz.GenConfig(),
        oracle_config=fuzz.OracleConfig(nprocs=2, num_threads=2,
                                        explore_runs=12),
        jobs=1, progress=progress, coverage=True)
    text = report_ir.render_json(report_ir.report_from_fuzz(
        report, seeds=plan["seeds"], base_seed=plan["base_seed"]))
    return _result(sampler, latencies=latencies, json=text)


def ready(_unused: str = "") -> Dict[str, object]:
    """Import every layer the workloads drive, then stop: the process
    start-up part of the benchmark's set-up."""
    import repro.cli  # noqa: F401
    import repro.explore  # noqa: F401
    import repro.fuzz  # noqa: F401
    import repro.project  # noqa: F401

    return {"pid": os.getpid()}


JOBS = {"explore-sweep": explore_sweep, "fig1": fig1,
        "fuzz-campaign": fuzz_campaign, "ready": ready}
