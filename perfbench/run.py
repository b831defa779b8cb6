"""The repository's benchmark: end-to-end and per-layer cost of ``parcoach``.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Workloads: analyze-files, project-edit, explore-sweep, fuzz-campaign (see
README.md for why each exists and what it stresses).  Run from anywhere;
the program is the ``src/`` tree next to this directory, run from source.

``--seed`` makes the inputs (the order of files and configurations, the
generated project and its edit trace, the checked fuzz campaign).
``--seconds`` sizes the run: each workload turns it into a fixed number of
rounds, so sample counts, and with them the tail percentile, never depend
on how fast the machine is.  ``--trace 0`` prints the end-to-end metrics,
measured with tracing off; ``--trace 1`` runs the same commands untraced
and traced, checks the outputs agree, and prints the per-layer metrics.

Every output is checked.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Earlier lines
stamp the run (commit or source digest, Python, nproc, seed, machine
speed) and print the metrics under the names README.md uses per workload.
Times are in reference-speed seconds (README.md).  Without a ``src/``
tree the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("analyze-files", "project-edit", "explore-sweep",
                  "fuzz-campaign")

#: End-to-end metrics every workload reports, with units.
UNITS = {
    "setup_s": "s",
    "oneshot_quick_s": "s",
    "oneshot_heavy_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "work_per_s": "1/s",
    "fig1_overhead_pct": "%",
    "peak_rss_mb": "MB",
}

#: What each generic metric is called on each workload (README.md).
ALIASES = {
    "analyze-files": {"oneshot_quick_s": "analyze_startup_s",
                      "oneshot_heavy_s": "analyze_xl_s",
                      "op_p50_ms": "fig1_compile_p50_ms",
                      "op_tail_ms": "fig1_compile_tail_ms",
                      "work_per_s": "fig1_lines_per_s"},
    "project-edit": {"oneshot_quick_s": "project_warm_start_s",
                     "oneshot_heavy_s": "project_cold_s",
                     "op_p50_ms": "edit_p50_ms",
                     "op_tail_ms": "edit_tail_ms",
                     "work_per_s": "edit_requests_per_s"},
    "explore-sweep": {"oneshot_quick_s": "explore_cli_quick_s",
                      "oneshot_heavy_s": "explore_cli_heavy_s",
                      "op_p50_ms": "schedule_p50_ms",
                      "op_tail_ms": "schedule_tail_ms",
                      "work_per_s": "schedules_per_s"},
    "fuzz-campaign": {"oneshot_quick_s": "fuzz_one_seed_s",
                      "oneshot_heavy_s": "fuzz_campaign_s",
                      "op_p50_ms": "seed_p50_ms",
                      "op_tail_ms": "seed_tail_ms",
                      "work_per_s": "fuzz_seeds_per_s"},
}


def source_stamp(root: str) -> str:
    """The commit when the tree is a git checkout, else a digest of every
    file under ``src/``."""
    try:
        commit = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=30)
        if commit.returncode == 0:
            return commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"perfbench: no program to measure: {ROOT}/src/repro is "
              "missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pbstats
    import pbwork

    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    # One CPU for the benchmark and every child, so the calibration samples
    # run on the CPU the measurement ran on (see pbwork).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        bench = pbwork.Bench(ROOT, work, args.seed, args.seconds)
        workload = pbwork.WORKLOADS[args.workload](bench)
        setup_s = bench.setup(workload.prepare)
        plain = workload.measure(traced=False)
        if args.trace:
            traced = workload.measure(traced=True)
            for key, text in plain.outputs.items():
                bench.check([] if traced.outputs.get(key) == text else
                            ["traced output differs from untraced"],
                            f"trace {key}")
            metrics = pbwork.layer_metrics(traced, plain)
        else:
            values = dict(plain.metrics, setup_s=setup_s)
            metrics = {name: (values[name], unit)
                       for name, unit in UNITS.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it

    stamp = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "source": source_stamp(ROOT),
             "python": platform.python_version(),
             "nproc": os.cpu_count(),
             "tail_percentile": plain.extra.get("tail_pct"),
             "median_speed": pbstats.median(plain.speeds)}
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    aliases = ALIASES[args.workload]
    for name, (value, unit) in metrics.items():
        print(f"# {args.workload} {aliases.get(name, name)} = {value:.6g} "
              f"{unit}")
    for problem in bench.problems[:50]:
        print(f"# FAILED {problem}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
