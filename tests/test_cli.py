"""CLI tests (driving repro.cli.main directly)."""

import json

import pytest

from repro.cli import main

BUGGY = """
void main() {
    int r = MPI_Comm_rank();
    if (r == 0) { MPI_Barrier(); }
}
"""

CLEAN = """
void main() {
    MPI_Barrier();
    print("done");
}
"""


@pytest.fixture
def buggy_file(tmp_path):
    path = tmp_path / "buggy.mh"
    path.write_text(BUGGY)
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.mh"
    path.write_text(CLEAN)
    return str(path)


def test_analyze_flags_buggy(buggy_file, capsys):
    assert main(["analyze", buggy_file]) == 1
    out = capsys.readouterr().out
    assert "collective-mismatch" in out
    assert "MPI_Barrier" in out


def test_analyze_clean_exits_zero(clean_file, capsys):
    assert main(["analyze", clean_file]) == 0
    assert "no warnings" in capsys.readouterr().out


def test_analyze_counting_precision(tmp_path, capsys):
    path = tmp_path / "balanced.mh"
    path.write_text("""
void main() {
    int r = MPI_Comm_rank();
    if (r == 0) { MPI_Barrier(); } else { MPI_Barrier(); }
}
""")
    assert main(["analyze", str(path)]) == 1
    assert main(["analyze", str(path), "--precision", "counting"]) == 0


def test_analyze_initial_context(clean_file):
    # Assuming the whole file runs inside a parallel region flags everything.
    assert main(["analyze", clean_file, "--initial-context", "P1"]) == 1


def test_instrument_writes_output(buggy_file, tmp_path, capsys):
    out_file = tmp_path / "out.mh"
    assert main(["instrument", buggy_file, "-o", str(out_file)]) == 0
    text = out_file.read_text()
    assert "PARCOACH_CC" in text


def test_instrument_all_inserts_more(clean_file, tmp_path):
    sel = tmp_path / "sel.mh"
    blanket = tmp_path / "all.mh"
    main(["instrument", clean_file, "-o", str(sel)])
    main(["instrument", clean_file, "--all", "-o", str(blanket)])
    assert "PARCOACH_CC" not in sel.read_text()
    assert "PARCOACH_CC" in blanket.read_text()


def test_run_clean_program(clean_file, capsys):
    assert main(["run", clean_file, "-np", "2"]) == 0
    captured = capsys.readouterr()
    assert "[rank 0] done" in captured.out
    assert "clean" in captured.err


def test_run_buggy_instrumented_reports_cc(buggy_file, capsys):
    rc = main(["run", buggy_file, "-np", "2", "--instrument"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "CollectiveMismatchError" in err
    assert "CC" in err


def test_run_buggy_raw_deadlocks(buggy_file, capsys):
    rc = main(["run", buggy_file, "-np", "2", "--timeout", "4"])
    assert rc == 1
    assert "DeadlockError" in capsys.readouterr().err


SPIN = """
void main() {
    int x = 0;
    while (true) {
        x = x + 1;
    }
}
"""


@pytest.fixture
def spin_file(tmp_path):
    path = tmp_path / "spin.mc"
    path.write_text(SPIN)
    return str(path)


def test_run_stops_a_program_that_loops_forever_at_the_timeout(spin_file,
                                                               capsys):
    rc = main(["run", spin_file, "-np", "2", "--timeout", "0.3"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "verdict: DeadlockError" in err
    assert "run stalled: r0 still running after 0.3 s" in err
    assert "Traceback" not in err


def test_explore_stops_a_program_that_loops_forever_at_the_step_budget(
        spin_file, capsys, monkeypatch):
    # A smaller virtual budget keeps the test fast; the path is the default.
    monkeypatch.setattr("repro.runtime.run.DEFAULT_STEP_BUDGET", 5000.0)
    outputs = []
    for _ in range(2):
        rc = main(["explore", spin_file, "--strategy", "dpor", "--json"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "Traceback" not in captured.err
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]  # a virtual budget is deterministic
    findings = json.loads(outputs[0])["findings"]
    assert findings and all(f["verdict_class"] == "DeadlockError"
                            for f in findings)
    assert "run stalled: r0 still running after 5000 steps" \
        in findings[0]["verdict"]


def test_cfg_dot_output(buggy_file, capsys):
    assert main(["cfg", buggy_file, "main"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "MPI_Barrier" in out


def test_cfg_unknown_function(buggy_file, capsys):
    assert main(["cfg", buggy_file, "nope"]) == 2


def test_semantic_errors_abort(tmp_path, capsys):
    path = tmp_path / "bad.mh"
    path.write_text("void main() { x = 1; }")
    # Invalid input is an internal/usage error: exit 2 per the contract
    # (main normalizes the SystemExit raised by _load).
    assert main(["analyze", str(path)]) == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Exit-code contract: 0 clean / 1 findings-or-failing / 2 internal-or-
# divergence — one case per subcommand, plus the --help documentation.
# ---------------------------------------------------------------------------


def test_help_documents_exit_codes(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "exit codes" in out
    assert "findings" in out


def test_usage_error_exits_two(capsys):
    assert main(["no-such-subcommand"]) == 2


def test_contract_analyze(buggy_file, clean_file, capsys):
    assert main(["analyze", clean_file]) == 0
    assert main(["analyze", buggy_file]) == 1


def test_contract_batch(buggy_file, clean_file, capsys):
    assert main(["batch", clean_file]) == 0
    assert main(["batch", clean_file, buggy_file]) == 1


def test_contract_instrument_and_cfg_and_callgraph(buggy_file, tmp_path, capsys):
    # Emitters: 0 on success, 2 on a bad target.
    assert main(["instrument", buggy_file, "-o", str(tmp_path / "o.mh")]) == 0
    assert main(["callgraph", buggy_file]) == 0
    assert main(["cfg", buggy_file, "main"]) == 0
    assert main(["cfg", buggy_file, "nope"]) == 2


def test_contract_run(buggy_file, clean_file, capsys):
    assert main(["run", clean_file, "-np", "2"]) == 0
    assert main(["run", buggy_file, "-np", "2", "--instrument"]) == 1


def test_contract_explore(buggy_file, clean_file, capsys):
    assert main(["explore", clean_file, "--runs", "4"]) == 0
    assert main(["explore", buggy_file, "--runs", "4", "--no-minimize"]) == 1


def test_contract_explore_replay_divergence(buggy_file, clean_file, tmp_path,
                                            capsys):
    # Record a failing trace on the buggy program, then replay it against
    # the clean one: the verdict cannot reproduce — exit 2 (divergence).
    trace = tmp_path / "t.trace.json"
    assert main(["explore", buggy_file, "--runs", "4", "--no-minimize",
                 "--save-trace", str(trace)]) == 1
    assert main(["explore", clean_file, "--replay", str(trace)]) == 2


def test_contract_fuzz(capsys, tmp_path):
    # 8 deterministic seeds: no static-miss, no crash — exit 0.
    assert main(["fuzz", "--seeds", "8", "--seed", "0",
                 "--explore-runs", "6"]) == 0
    out = capsys.readouterr().out
    assert "8/8 seeds" in out
