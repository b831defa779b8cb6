"""Golden transcripts of the two serve protocols.

``parcoach serve`` and ``parcoach project serve`` answer every request
line with one Report IR line.  Each test here replays a fixed request
script and compares the responses byte for byte with a transcript in
``tests/golden/``.  The scripts cover edits, parse and semantic errors,
``@ID`` handling, empty and unknown commands, usage errors, ``ping``,
``stats``, the deadline ladder under a fake clock, and faults injected at
``session.analyze``, ``session.read_file`` and ``serve.emit``.

Two things are normalised before the comparison:

* the temporary directory, written as ``<TMP>``;
* failure traceback digests, written as ``<digest>``.  A digest hashes the
  formatted stack, so it changes with the checkout path and with any edit
  to the code on the stack.

The transcripts were captured before ``serve`` and ``project serve`` were
moved onto one request loop.  That loop names the request's file in the
``source.file`` of a project timeout or internal-error report, where the
old project loop named the project root (``serve`` always named the
file).  That is the one difference the comparison allows
(``_moved_to_request_file``); ``docs/project-protocol.md`` documents it.

After an intended protocol change, regenerate the transcripts with
``PYTHONPATH=src python tests/test_serve_golden.py`` and review the diff.
"""

import io
import json
import os
import re
import sys

import pytest

from repro.core.report import validate_report
from repro.core.session import AnalysisSession, run_serve
from repro.project import ProjectSession, run_project_serve
from repro.util.faultinject import FaultPlan, clear_plan, install_plan

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

UTIL = """int bump(int v) {
    MPI_Barrier();
    return v + 1;
}

int plain(int v) {
    return v - 1;
}
"""

MAIN = """void main() {
    MPI_Init_thread(3);
    int x = 0;
    #pragma omp parallel num_threads(2)
    {
        x = bump(x);
    }
    x = plain(x);
    MPI_Finalize();
}
"""

#: One file holding both halves: ``bump`` runs a barrier inside an
#: ``omp parallel`` region, which is a finding.
SINGLE = UTIL + "\n" + MAIN


class StepClock:
    """A fake monotonic clock: each read advances ``step`` seconds, for
    the first ``slow_reads`` reads (all reads when ``None``), then 0."""

    def __init__(self, step, slow_reads=None):
        self.step = step
        self.slow_reads = slow_reads
        self.reads = 0
        self.now = 0.0

    def __call__(self):
        self.reads += 1
        if self.slow_reads is None or self.reads <= self.slow_reads:
            self.now += self.step
        return self.now


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


# -- serve scripts ------------------------------------------------------------------


def _serve_protocol(tmp):
    a = os.path.join(tmp, "a.mc")
    _write(a, SINGLE)
    yield "ping\n"
    yield f"@r1 analyze {a}\n"
    _write(a, SINGLE.replace("return v + 1;", "return v + 2;"))
    yield f"@r2 analyze {a}\n"
    yield f"analyze {a}\n"
    _write(a, SINGLE.replace("    MPI_Barrier();\n", ""))
    yield f"analyze {a}\n"
    broken = os.path.join(tmp, "broken.mc")
    _write(broken, "void main() {\n")
    yield f"analyze {broken}\n"
    invalid = os.path.join(tmp, "invalid.mc")
    _write(invalid, "void main() { missing(); }\n")
    yield f"@r3 analyze {invalid}\n"
    yield f"analyze {os.path.join(tmp, 'absent.mc')}\n"
    yield "@r4\n"
    yield "\n"
    yield "bogus command\n"
    yield "@r5 bogus\n"
    yield "analyze\n"
    yield "@r6 ping\n"
    yield "stats\n"
    yield "quit\n"
    yield "ping\n"


def _serve_deadline_script(tmp):
    a = os.path.join(tmp, "a.mc")
    _write(a, SINGLE)
    yield f"@d1 analyze {a}\n"
    yield "stats\n"


def _serve_faults(tmp):
    a = os.path.join(tmp, "a.mc")
    _write(a, SINGLE)
    yield f"@f1 analyze {a}\n"
    yield f"@f2 analyze {a}\n"
    yield f"@f3 analyze {a}\n"
    _write(a, SINGLE.replace("return v + 1;", "return v + 2;"))
    yield f"@f4 analyze {a}\n"
    yield f"@f5 analyze {a}\n"
    yield "stats\n"


#: ``session.analyze`` fails three times (recover, rebuild, internal
#: error); the fourth and fifth reads are truncated and fail; the fourth
#: response is written short and resent.
SERVE_FAULTS = ("session.analyze:1=exception,session.analyze:2=exception,"
                "session.analyze:3=exception,session.read_file:4=truncate,"
                "session.read_file:5=oserror,serve.emit:4=truncate")


def serve_protocol(tmp):
    return _run_serve(_serve_protocol(tmp))


def serve_deadline(tmp):
    """Every clock read spends 60 ms of a 100 ms budget, so each deadlined
    attempt expires and the request walks the whole ladder."""
    return _run_serve(_serve_deadline_script(tmp), deadline_ms=100.0,
                      clock=StepClock(0.06))


def serve_deadline_retry(tmp):
    """Only the first three clock reads are slow: the first attempt
    expires, the retry without the interprocedural plan answers."""
    return _run_serve(_serve_deadline_script(tmp), deadline_ms=100.0,
                      clock=StepClock(0.06, slow_reads=3))


def serve_faults(tmp):
    return _run_serve(_serve_faults(tmp), faults=SERVE_FAULTS)


def _run_serve(script, faults=None, **kwargs):
    out = io.StringIO()
    if faults:
        install_plan(FaultPlan.parse(faults))
    try:
        code = run_serve(AnalysisSession(), stdin=script, stdout=out,
                         **kwargs)
    finally:
        clear_plan()
    assert code == 0
    return out.getvalue()


# -- project serve scripts ----------------------------------------------------------


def _project(tmp):
    _write(os.path.join(tmp, "util.mc"), UTIL)
    _write(os.path.join(tmp, "main.mc"), MAIN)


def _project_protocol(tmp):
    util = os.path.join(tmp, "util.mc")
    yield "ping\n"
    yield "@1 analyze\n"
    _write(util, UTIL.replace("return v + 1;", "return v + 2;"))
    yield "@2 edit util.mc\n"
    yield "open util.mc\n"
    _write(util, "// moved down\n" + UTIL.replace("return v + 1;",
                                                  "return v + 2;"))
    yield "edit util.mc\n"
    _write(util, "int bump(int v {\n")
    yield "@3 edit util.mc\n"
    _write(util, UTIL)
    yield "edit util.mc\n"
    _write(os.path.join(tmp, "extra.mc"),
           "int extra(int v) {\n    return nope(v);\n}\n")
    yield "@4 open extra.mc\n"
    yield "close extra.mc\n"
    yield "open absent.mc\n"
    yield "close absent.mc\n"
    yield "close never.mc\n"
    os.rename(util, os.path.join(tmp, "lib.mc"))
    yield "@5 rename util.mc lib.mc\n"
    yield "close lib.mc\n"
    yield "open lib.mc\n"
    yield "@6\n"
    yield "\n"
    yield "bogus\n"
    yield "open\n"
    yield "@7 rename lib.mc\n"
    yield "rename\n"
    yield "analyze everything\n"
    yield "@8 ping\n"
    yield "stats\n"
    yield "quit\n"
    yield "ping\n"


def _project_deadline_script(tmp):
    yield "@d1 open util.mc\n"
    yield "@d2 analyze\n"
    yield "stats\n"


def _project_faults(tmp):
    yield "@f1 open util.mc\n"
    yield "@f2 analyze\n"
    yield "@f3 open main.mc\n"
    _write(os.path.join(tmp, "util.mc"),
           UTIL.replace("return v + 1;", "return v + 2;"))
    yield "@f4 edit util.mc\n"
    yield "@f5 analyze\n"
    yield "stats\n"


#: The first request fails three times (recover, rebuild, internal
#: error); later reads are truncated or fail; one response is resent.
PROJECT_FAULTS = ("session.analyze:1=exception,session.analyze:2=exception,"
                  "session.analyze:3=exception,session.read_file:6=truncate,"
                  "session.read_file:9=oserror,serve.emit:4=truncate")


def project_protocol(tmp):
    return _run_project(tmp, _project_protocol(tmp))


def project_deadline(tmp):
    """Every request walks the whole deadline ladder."""
    return _run_project(tmp, _project_deadline_script(tmp),
                        deadline_ms=100.0, clock=StepClock(0.06))


def project_deadline_retry(tmp):
    """The first attempt expires, the retry without the interprocedural
    plan answers; later requests fit the budget."""
    return _run_project(tmp, _project_deadline_script(tmp),
                        deadline_ms=100.0,
                        clock=StepClock(0.06, slow_reads=3))


def project_faults(tmp):
    return _run_project(tmp, _project_faults(tmp), faults=PROJECT_FAULTS)


def _run_project(tmp, script, faults=None, **kwargs):
    out = io.StringIO()
    _project(tmp)
    session = ProjectSession(tmp, store=False)
    if faults:
        install_plan(FaultPlan.parse(faults))
    try:
        code = run_project_serve(session, stdin=script, stdout=out,
                                 **kwargs)
    finally:
        clear_plan()
    assert code == 0
    return out.getvalue()


# -- comparison ---------------------------------------------------------------------

TRANSCRIPTS = {
    "serve_protocol": serve_protocol,
    "serve_deadline": serve_deadline,
    "serve_deadline_retry": serve_deadline_retry,
    "serve_faults": serve_faults,
    "project_protocol": project_protocol,
    "project_deadline": project_deadline,
    "project_deadline_retry": project_deadline_retry,
    "project_faults": project_faults,
}

_DIGEST = re.compile(r'"traceback_digest":"[0-9a-f]{16}"')


def normalise(text, tmp):
    text = text.replace(tmp, "<TMP>")
    return _DIGEST.sub('"traceback_digest":"<digest>"', text)


def transcript(name, tmp):
    return normalise(TRANSCRIPTS[name](tmp), tmp)


def _golden_path(name):
    return os.path.join(GOLDEN, name + ".jsonl")


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    clear_plan()
    yield
    clear_plan()


def _moved_to_request_file(want: str, got: str) -> bool:
    """True when ``got`` is the project timeout or internal-error report
    ``want`` with ``source.file`` naming a project file instead of the
    root, and nothing else changed."""
    want_doc, got_doc = json.loads(want), json.loads(got)
    summary = want_doc["summary"]
    if (want_doc["tool"] != "project"
            or not ("timeout" in summary or "failure" in summary)
            or want_doc["source"] != {"file": "<TMP>"}
            or got_doc["source"]["file"] in ("<TMP>", None)):
        return False
    moved = '"source":{"file":%s}' % json.dumps(got_doc["source"]["file"])
    return got.replace(moved, '"source":{"file":"<TMP>"}', 1) == want


@pytest.mark.parametrize("name", sorted(TRANSCRIPTS))
def test_transcript_matches_golden(name, tmp_path):
    got = transcript(name, str(tmp_path)).splitlines()
    with open(_golden_path(name), "r", encoding="utf-8") as handle:
        want = handle.read().splitlines()
    assert len(got) == len(want)
    for want_line, got_line in zip(want, got):
        if got_line != want_line:
            assert _moved_to_request_file(want_line, got_line), got_line


@pytest.mark.parametrize("name", sorted(TRANSCRIPTS))
def test_golden_lines_are_valid_reports(name):
    with open(_golden_path(name), "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert lines
    for line in lines:
        assert validate_report(json.loads(line)) == []


def _regenerate() -> None:
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    for name in sorted(TRANSCRIPTS):
        with tempfile.TemporaryDirectory() as tmp:
            text = transcript(name, tmp)
        with open(_golden_path(name), "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {_golden_path(name)} "
              f"({len(text.splitlines())} lines)")


if __name__ == "__main__":
    sys.exit(_regenerate())
