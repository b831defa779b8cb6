"""Tests of the benchmark's own machinery: wrapping, self time, tail
percentiles and the output checks (each fed a planted wrong answer).

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys
import time
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pbchecks  # noqa: E402
import pbstats  # noqa: E402
import pbtrace  # noqa: E402

from repro.core.report import build_report, finding_fingerprint  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- wrapping ----------------------------------------------------------------


def test_wrap_passes_return_values_through():
    tracer = pbtrace.Tracer()
    result = object()
    wrapped = tracer.wrap(lambda a, b=2: (a, b, result), "layer")
    assert wrapped(1, b=3) == (1, 3, result)
    assert [s[0] for s in tracer.spans] == ["layer"]


def test_wrap_passes_exceptions_through_and_closes_the_span():
    tracer = pbtrace.Tracer()
    error = KeyError("boom")

    def fails():
        raise error

    with pytest.raises(KeyError) as caught:
        tracer.wrap(fails, "layer")()
    assert caught.value is error
    assert tracer.spans[0][2] >= tracer.spans[0][1]
    assert tracer._stack() == []


def test_wrap_runs_counter_hook_only_on_return():
    tracer = pbtrace.Tracer()
    seen = []
    wrapped = tracer.wrap(lambda x: x * 2, "layer",
                          after=lambda t, r, a, k: seen.append((r, a)))
    assert wrapped(4) == 8
    assert seen == [(8, (4,))]


def test_rebind_reaches_every_module_that_imported_the_function():
    def original():
        return 1

    home = types.ModuleType("pbfake.home")
    caller = types.ModuleType("pbfake.caller")
    other = types.ModuleType("elsewhere")
    home.original = caller.alias = other.original = original
    fakes = {"pbfake.home": home, "pbfake.caller": caller,
             "elsewhere": other}
    sys.modules.update(fakes)
    try:
        wrapper = pbtrace.Tracer().wrap(original, "x")
        assert pbtrace.rebind(original, wrapper, prefix="pbfake") == 2
        assert home.original is wrapper and caller.alias is wrapper
        assert other.original is original
    finally:
        for name in fakes:
            del sys.modules[name]


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_direct_children_on_nested_spans():
    clock = FakeClock()
    tracer = pbtrace.Tracer(clock=clock)

    def tick(seconds):
        clock.now += seconds

    def leaf():
        tick(1)

    def middle():
        tick(1)
        inner()
        tick(2)

    inner = tracer.wrap(leaf, "leaf")
    mid = tracer.wrap(middle, "middle")

    def top():
        tick(3)
        mid()
        inner()
        tick(1)

    tracer.wrap(top, "top")()
    own = pbtrace.self_times(tracer.spans)
    assert own == {"top": 4.0, "middle": 3.0, "leaf": 2.0}
    assert pbtrace.inclusive_times(tracer.spans)["top"] == 9.0


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1], ["c", 1.0, 5.0, 0], ["c", 3.0, 6.0, 0],
             ["c", 8.0, 12.0, 0]]
    assert pbtrace.self_times(spans)["p"] == pytest.approx(10 - 5 - 2)


def test_inclusive_time_does_not_double_count_recursion():
    spans = [["r", 0.0, 10.0, -1], ["r", 2.0, 5.0, 0], ["x", 6.0, 7.0, 0]]
    assert pbtrace.inclusive_times(spans) == {"r": 10.0, "x": 1.0}


# -- percentiles -------------------------------------------------------------


def test_tail_percentile_is_refused_with_fewer_than_ten_beyond():
    values = list(range(1, 101))
    with pytest.raises(pbstats.TooFewSamples):
        pbstats.percentile(values, 99)      # 1 sample beyond
    assert pbstats.percentile(values, 90) == 90   # 10 beyond
    with pytest.raises(pbstats.TooFewSamples):
        pbstats.tail_percentile(list(range(9)))


def test_tail_percentile_picks_the_highest_allowed():
    assert pbstats.tail_percentile(list(range(1, 1201)))[0] == 99.0
    assert pbstats.tail_percentile(list(range(1, 51)))[0] == 75.0
    assert pbstats.tail_percentile(list(range(1, 120)))[0] == 90.0


# -- output checks -----------------------------------------------------------


def _finding(**fields):
    finding = {"kind": "static-diagnostic", "severity": "warning",
               "message": "m", "collectives": [], "conditionals": [],
               "context": "", "call_path": [], "call_path_files": [],
               "file": "", **fields}
    finding["fingerprint"] = finding_fingerprint(finding)
    return finding


def _project_doc(findings):
    return build_report("project", source={"file": "p"}, findings=findings,
                        summary={})


BUG = _finding(function="bug_helper", code="collective-multithreaded",
               call_path=["main", "bug_helper"], file="helpers.mc",
               call_path_files=["main.mc", "helpers.mc"])
FLIP = _finding(function="m950_f1", code="collective-mismatch",
                file="m950.mc")


def test_project_check_accepts_the_expected_findings():
    assert pbchecks.project_problems(_project_doc([BUG])) == []
    assert pbchecks.project_problems(_project_doc([BUG, FLIP]),
                                     ["m950_f1"]) == []


def test_project_check_fails_without_the_cross_file_bug():
    assert pbchecks.project_problems(_project_doc([]))
    assert pbchecks.project_problems(_project_doc([BUG, BUG]))
    assert pbchecks.project_problems(_project_doc([BUG]), ["m950_f1"])
    assert pbchecks.project_problems(_project_doc([BUG, FLIP]))


def test_serve_final_check_fails_on_a_missing_finding():
    cold = _project_doc([BUG, FLIP])
    live = {BUG["fingerprint"]: BUG, FLIP["fingerprint"]: FLIP}
    assert pbchecks.serve_final_problems(live, cold) == []
    del live[FLIP["fingerprint"]]
    assert pbchecks.serve_final_problems(live, cold)


def _delta(findings, total, **incremental):
    inc = {"findings_total": total, "findings_removed": [], "changed": [],
           "patched": [], "reanalyzed": [], **incremental}
    return build_report("project", source={"file": "p"}, findings=findings,
                        verdict="findings" if total else "clean",
                        summary={"incremental": inc})


def test_serve_response_checks_fail_on_planted_answers():
    flip_on = _delta([FLIP], 2, changed=["m950_f1"])
    assert pbchecks.serve_response_problems("flip-on", flip_on, 2,
                                            "m950_f1") == []
    assert pbchecks.serve_response_problems("flip-on", flip_on, 2, "m950_f0")
    assert pbchecks.serve_response_problems("flip-on", flip_on, 1, "m950_f1")
    body = _delta([], 1, changed=["m3_f0"])
    assert pbchecks.serve_response_problems("body", body, 1, "m3_f0") == []
    assert pbchecks.serve_response_problems("body", body, 1, "m3_f1")
    insert = _delta([], 1, patched=["m3_f0"], reanalyzed=["m3_f0"])
    assert pbchecks.serve_response_problems("insert", insert, 1, "m3_f0")
    error = build_report("project", source={"file": "p"}, findings=[],
                         verdict="error", summary={"errors": ["x"]})
    assert pbchecks.serve_response_problems("body", error, 1, "m3_f0")


def _fuzz_doc(counts):
    return json.dumps(build_report(
        "fuzz", source=None, findings=[],
        summary={"seeds": 4, "base_seed": 1, "counts": counts}))


def test_fuzz_check_fails_on_one_static_miss_or_crash():
    assert pbchecks.fuzz_problems(_fuzz_doc({"agree": 4})) == []
    assert pbchecks.fuzz_problems(_fuzz_doc({"agree": 3, "static-miss": 1}))
    assert pbchecks.fuzz_problems(_fuzz_doc({"agree": 3, "crash": 1}))
    first = _fuzz_doc({"agree": 4})
    assert pbchecks.fuzz_problems(_fuzz_doc({"agree": 4}), first) == []
    assert pbchecks.fuzz_problems(_fuzz_doc({"agree": 2,
                                             "static-overapprox": 2}), first)


def test_analyze_check_fails_on_missing_code_or_wrong_exit():
    doc = build_report("analyze", source={"file": "f"},
                       findings=[_finding(function="f",
                                          code="collective-mismatch")],
                       summary={})
    text = json.dumps(doc)
    assert pbchecks.analyze_problems(text, 1, ["collective-mismatch"]) == []
    assert pbchecks.analyze_problems(text, 1, ["thread-level"])
    assert pbchecks.analyze_problems(text, 0, [])
    assert pbchecks.analyze_problems("Traceback", 1, [])


def test_explore_check_fails_on_unlisted_verdicts():
    allowed = ["ConcurrentCollectiveError", "DeadlockError"]
    assert pbchecks.explore_problems(
        {"clean": 3, "DeadlockError": 2}, allowed) == []
    assert pbchecks.explore_problems({"ThreadLevelError": 1}, allowed)
    assert pbchecks.explore_problems({"clean": 5}, []) == []
    assert pbchecks.explore_problems({"clean": 4, "DeadlockError": 1}, [])


def test_fig1_check_needs_w_nonnegative_and_f_at_least_w():
    assert pbchecks.fig1_problems(16.5, 16.7) == []
    assert pbchecks.fig1_problems(-1.0, 3.0)
    assert pbchecks.fig1_problems(20.0, 18.0)


# -- the launcher ------------------------------------------------------------


def test_traced_launch_matches_untraced_output(tmp_path):
    from repro.bench import CASES

    source = tmp_path / "case.mc"
    source.write_text(CASES["mismatch_through_call"].source)
    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    plain = subprocess.run(
        [sys.executable, "-m", "repro.cli", "analyze", "--json",
         str(source)], capture_output=True, text=True, env=env, timeout=120)
    traced = subprocess.run(
        [sys.executable, os.path.join(HERE, "launch.py"), "--report",
         str(report), "--trace", "cli", "analyze", "--json", str(source)],
        capture_output=True, text=True, env=env, timeout=120)
    assert traced.returncode == plain.returncode == 1
    assert traced.stdout == plain.stdout
    doc = json.loads(report.read_text())
    assert len(doc["calibration"]) == 2 and doc["import_s"] > 0
    names = {span[0] for span in doc["spans"]}
    assert {"minilang.tokenize", "minilang.parse", "cfg.build",
            "phase3.sequence", "report.render"} <= names
    own = pbtrace.self_times(doc["spans"])
    assert all(value >= 0 for value in own.values())
    assert doc["counts"]["minilang.tokens"] > 0


def test_sampled_launch_samples_while_it_works(tmp_path):
    sampler = pbstats.Sampler()
    sampler.start()
    try:
        deadline = time.perf_counter() + 5 * pbstats.SAMPLE_EVERY_S
        while time.perf_counter() < deadline:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 2 and sampler.seconds > 0

    from repro.bench import CASES

    source = tmp_path / "case.mc"
    source.write_text(CASES["mismatch_through_call"].source)
    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    argv = [sys.executable, os.path.join(HERE, "launch.py"), "--report",
            str(report)]
    plain = subprocess.run(argv + ["cli", "analyze", "--json", str(source)],
                           capture_output=True, text=True, env=env,
                           timeout=120)
    sampled = subprocess.run(
        argv + ["--sample", "cli", "analyze", "--json", str(source)],
        capture_output=True, text=True, env=env, timeout=120)
    assert sampled.returncode == plain.returncode == 1
    assert sampled.stdout == plain.stdout
    assert json.loads(report.read_text())["calibration_s"] > 0

