"""The CLI's exit-code contract on bad input files.

Every subcommand that reads a source file answers a missing file, bytes
that are not UTF-8, a parse error and a semantic error the same way:
``FILE[:LINE:COL]: error: MSG`` on stderr, exit 2 (the usage/internal
error code, never 1, the "findings" code), and no traceback.  With
``--json``, stdout carries one ``error`` Report IR document.

The static subcommands lost ``--jobs`` together with the engine's process
pool; passing it is now a usage error.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.core.report import validate_report

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

#: name -> (file contents as bytes, or None for a missing file; the
#: expected start of the stderr line after "FILE").
BAD_INPUTS = {
    "missing": (None, ": error: No such file or directory"),
    "not-utf8": (b"void main() { \xff\xfe }\n", ": error: 'utf-8' codec"),
    "parse-error": (b"void main() {\n", ":2:1: error: unterminated block"),
    "semantic-error": (b"void main() { missing(); }\n",
                       ":1:15: error: [UNKNOWN_FUNC]"),
}

#: subcommand -> argv after the file.
COMMANDS = {
    "analyze": [],
    "instrument": [],
    "run": [],
    "callgraph": [],
    "explore": ["--runs", "1"],
    "cfg": ["main"],
    "batch": [],
}

JSON_COMMANDS = ("analyze", "callgraph", "explore")


def _bad_file(tmp_path, kind):
    path = tmp_path / f"{kind}.mc"
    data, _ = BAD_INPUTS[kind]
    if data is not None:
        path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize("kind", sorted(BAD_INPUTS))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_bad_input_exits_two_with_an_error_line(command, kind, tmp_path,
                                                capsys):
    path = _bad_file(tmp_path, kind)
    assert main([command, path, *COMMANDS[command]]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(path + BAD_INPUTS[kind][1]), captured.err
    assert captured.out == ""


@pytest.mark.parametrize("kind", sorted(BAD_INPUTS))
@pytest.mark.parametrize("command", JSON_COMMANDS)
def test_bad_input_json_is_one_error_report(command, kind, tmp_path, capsys):
    path = _bad_file(tmp_path, kind)
    assert main([command, path, *COMMANDS[command], "--json"]) == 2
    captured = capsys.readouterr()
    (line,) = captured.out.splitlines()
    doc = json.loads(line)
    assert validate_report(doc) == []
    assert doc["tool"] == command
    assert doc["verdict"] == "error"
    assert doc["source"] == {"file": path}
    assert doc["summary"]["errors"] == captured.err.splitlines()


@pytest.mark.parametrize("kind", sorted(BAD_INPUTS))
def test_bad_input_in_a_fresh_process_prints_no_traceback(kind, tmp_path):
    path = _bad_file(tmp_path, kind)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "analyze", path, "--json"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(path + BAD_INPUTS[kind][1])
    assert validate_report(json.loads(proc.stdout)) == []


@pytest.mark.parametrize("argv", [
    ["analyze", "{file}"],
    ["batch", "{file}"],
    ["serve"],
    ["watch", "{file}"],
    ["project", "analyze", "{dir}"],
    ["project", "serve", "{dir}"],
], ids=lambda argv: " ".join(a for a in argv if "{" not in a))
def test_jobs_is_a_usage_error_on_static_commands(argv, tmp_path, capsys):
    source = tmp_path / "p.mc"
    source.write_text("void main() { MPI_Barrier(); }\n")
    args = [a.format(file=source, dir=tmp_path) for a in argv]
    assert main([*args, "--jobs", "2"]) == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
