"""Start one measured process: the ``parcoach`` CLI or an in-process job.

    python perfbench/launch.py --report FILE [--trace] [--sample] cli ARG...
    python perfbench/launch.py --report FILE [--trace] [--sample] job NAME PLAN

``cli`` runs ``repro.cli.main(ARGS)`` and exits with its code.  ``job``
runs ``pbjobs.JOBS[NAME](PLAN)`` and prints its JSON result on one line.

The process takes a machine-speed calibration sample (``pbstats``) before
it imports anything of the program and another after the work, and writes
them to FILE with the time they took and the time ``import repro.cli``
took.  With ``--sample`` it also samples every ``pbstats.SAMPLE_EVERY_S``
seconds while it works (``pbstats.Sampler``), so a long process is scaled
by the speed the machine ran at throughout it, not only at its two ends.
Processes that time their own operations from the inside (the timing
jobs, ``project serve``) are not sampled that way, as a sample would land
inside an operation.  With ``--trace`` every layer function is wrapped
(``pbtrace``) and the spans and counters go to FILE as well.  ``src/``
must be on ``PYTHONPATH``; this script's directory is on ``sys.path``
because Python runs it as a script.
"""

from __future__ import annotations

import json
import sys
import time

import pbstats


def main(argv) -> int:
    if argv[:1] != ["--report"] or len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    report_path, argv = argv[1], argv[2:]
    traced = argv[:1] == ["--trace"]
    argv = argv[1:] if traced else argv
    sampled = argv[:1] == ["--sample"]
    argv = argv[1:] if sampled else argv
    if not argv or argv[0] not in ("cli", "job"):
        print(__doc__, file=sys.stderr)
        return 2
    sampler = pbstats.Sampler()
    sampler.sample()

    start = time.perf_counter()
    import repro.cli
    import_s = time.perf_counter() - start

    tracer = None
    if traced:
        import pbtrace

        tracer = pbtrace.Tracer()
        pbtrace.install(tracer)
    if sampled:
        sampler.start()
    try:
        if argv[0] == "cli":
            return repro.cli.main(argv[1:])
        import pbjobs

        result = pbjobs.JOBS[argv[1]](*argv[2:])
        print(json.dumps(result, sort_keys=True), flush=True)
        return 0
    finally:
        sampler.stop()
        sys.stdout.flush()
        sampler.sample()
        report = {"calibration": sampler.samples,
                  "calibration_s": sampler.seconds, "import_s": import_s}
        if tracer is not None:
            report.update(tracer.export())
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
