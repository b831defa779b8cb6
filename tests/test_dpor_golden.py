"""Pinned DPOR sweeps over the whole gallery.

Every gallery program is swept with ``--strategy dpor`` at np=2, nt 2 and
3, 200 runs, no minimisation.  The sweep's schedule count, verdict counts,
pruning counters (``dpor_stats``) and the choice sequence of every
executed schedule, in order, must equal ``tests/golden/dpor_sweeps.json``.
The choice sequences are pinned by their SHA-256 digest and their total
length (the full lists take ~400 kB).  The file pins what the sweep
decides, so a change to how DPOR keeps its books (fingerprint reuse, race
indexing, footprint canonicalisation) can be shown to change nothing it
decides.

After an intended change to the reduction itself, regenerate the file
with ``PYTHONPATH=src python tests/test_dpor_golden.py`` and review the
diff.
"""

import hashlib
import json
import os
import sys

import pytest

from repro import parse_program
from repro.bench.errors_gallery import CASES
from repro.explore import ExploreConfig, explore_config

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "dpor_sweeps.json")

NPROCS = 2
TEAMS = (2, 3)
RUNS = 200


def _sweep(name, nt):
    report = explore_config(
        parse_program(CASES[name].source, name),
        ExploreConfig(nprocs=NPROCS, num_threads=nt), strategy="dpor",
        runs=RUNS, minimize=False, collect_schedules=True)
    return {
        "schedules": report.schedules,
        "verdicts": dict(sorted(report.verdict_counts.items())),
        "dpor_stats": report.dpor_stats,
        "choices_total": sum(len(c) for c in report.schedule_choices),
        "choices_sha256": hashlib.sha256(json.dumps(
            report.schedule_choices).encode()).hexdigest(),
    }


def _key(name, nt):
    return f"{name} nt={nt}"


def _golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("nt", TEAMS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_dpor_sweep_matches_golden(name, nt):
    want = _golden()[_key(name, nt)]
    got = _sweep(name, nt)
    assert got["schedules"] == want["schedules"]
    assert got["verdicts"] == want["verdicts"]
    assert got["dpor_stats"] == want["dpor_stats"]
    assert got["choices_total"] == want["choices_total"]
    assert got["choices_sha256"] == want["choices_sha256"]


def test_golden_covers_every_gallery_configuration():
    assert sorted(_golden()) == sorted(_key(name, nt) for name in CASES
                                       for nt in TEAMS)


def _regenerate() -> int:
    data = {_key(name, nt): _sweep(name, nt)
            for name in sorted(CASES) for nt in TEAMS}
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN}: {len(data)} sweeps, "
          f"{sum(d['schedules'] for d in data.values())} schedules")
    return 0


if __name__ == "__main__":
    sys.exit(_regenerate())
