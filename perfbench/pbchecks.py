"""Output checks: each returns a list of problems, empty when the output is
right.  The benchmark counts an operation as failed when its check returns
any problem.  The expected answers come from the generators' own ground
truth (the gallery's ``expect_static``/``raw_errors``, the project
generator's seeded cross-file bug, the edits the benchmark itself made),
never from the program under test.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Mapping, Optional

#: The project generator's seeded bug: ``bug_helper`` (helpers.mc) runs an
#: unconditional barrier and ``main`` (main.mc) calls it from a parallel
#: region.
SEEDED_BUG = {
    "function": "bug_helper",
    "code": "collective-multithreaded",
    "call_path": ["main", "bug_helper"],
    "call_path_files": ["main.mc", "helpers.mc"],
}

#: The finding a summary-flip edit must add to the edited function.
FLIP_CODE = "collective-mismatch"


def validate(doc) -> List[str]:
    """Report IR problems of one document (``validate_report``)."""
    from repro.core.report import validate_report

    return [f"invalid report: {p}" for p in validate_report(doc)]


def parse_json(text: str, what: str):
    """``(doc, problems)``; ``doc`` is None when ``text`` is not JSON."""
    try:
        return json.loads(text), []
    except ValueError as exc:
        return None, [f"{what}: not JSON ({exc})"]


def analyze_problems(text: str, exit_code: int,
                     expect_codes: Iterable[str]) -> List[str]:
    """One ``parcoach analyze --json`` run: a valid report, every expected
    code present, and the exit code the findings imply."""
    doc, problems = parse_json(text, "analyze")
    if doc is None:
        return problems
    problems = validate(doc)
    codes = {f.get("code") for f in doc.get("findings", [])}
    missing = sorted(set(expect_codes) - codes)
    if missing:
        problems.append(f"expected codes missing: {missing}")
    want_exit = 1 if doc.get("findings") else 0
    if exit_code != want_exit:
        problems.append(f"exit code {exit_code}, expected {want_exit}")
    return problems


def _is_seeded_bug(finding: Mapping) -> bool:
    return all(finding.get(k) == v for k, v in SEEDED_BUG.items())


def project_problems(doc, flipped: Iterable[str] = ()) -> List[str]:
    """A full ``project analyze --json`` report: valid, the seeded
    cross-file bug exactly once, one ``FLIP_CODE`` finding per flipped
    function, and nothing else."""
    if not isinstance(doc, dict):
        return ["project report is not an object"]
    problems = validate(doc)
    findings = doc.get("findings", [])
    bugs = sum(1 for f in findings if _is_seeded_bug(f))
    if bugs != 1:
        problems.append(f"seeded cross-file bug reported {bugs} times")
    flipped = set(flipped)
    flips = [f for f in findings
             if f.get("function") in flipped and f.get("code") == FLIP_CODE]
    if sorted(f["function"] for f in flips) != sorted(flipped):
        problems.append("flip findings "
                        f"{sorted(f['function'] for f in flips)} != "
                        f"{sorted(flipped)}")
    if len(findings) != 1 + len(flipped):
        problems.append(f"{len(findings)} findings, expected "
                        f"{1 + len(flipped)}")
    return problems


def _canonical(findings: Iterable[Mapping]) -> List[str]:
    return sorted(json.dumps(f, sort_keys=True) for f in findings)


def serve_final_problems(live: Mapping[str, Mapping], cold_doc) -> List[str]:
    """The findings a serve session holds after its last edit (``live``:
    fingerprint -> finding, folded from the delta documents) equal those of
    a cold ``project analyze`` of the final tree."""
    if not isinstance(cold_doc, dict):
        return ["cold report is not an object"]
    if _canonical(live.values()) != _canonical(cold_doc.get("findings", [])):
        return ["serve findings differ from a cold analysis of the final tree"]
    return []


def serve_response_problems(kind: str, doc, expect_total: int,
                            function: Optional[str] = None) -> List[str]:
    """One ``project serve`` response to a request of ``kind``."""
    if not isinstance(doc, dict):
        return [f"{kind}: response is not an object"]
    problems = validate(doc)
    if doc.get("verdict") == "error":
        problems.append(f"{kind}: error response {doc['summary']}")
        return problems
    if kind == "stats":
        stats = doc.get("summary", {}).get("stats", {})
        if not all(k in stats for k in ("engine", "session", "project")):
            problems.append("stats: missing engine/session/project")
        return problems
    inc = doc.get("summary", {}).get("incremental", {})
    if inc.get("findings_total") != expect_total:
        problems.append(f"{kind}: findings_total {inc.get('findings_total')}"
                        f", expected {expect_total}")
    added = doc.get("findings", [])
    if kind == "body":
        if inc.get("changed") != [function]:
            problems.append(f"body: changed {inc.get('changed')}, "
                            f"expected [{function}]")
        if added or inc.get("findings_removed"):
            problems.append("body: a body edit changed the findings")
    elif kind == "insert":
        if not inc.get("patched"):
            problems.append("insert: no function took the line-patch path")
        if inc.get("reanalyzed"):
            problems.append("insert: a line insertion re-analyzed "
                            f"{inc.get('reanalyzed')}")
    elif kind == "flip-on":
        if [(f.get("function"), f.get("code")) for f in added] != [
                (function, FLIP_CODE)] or inc.get("findings_removed"):
            problems.append(f"flip-on: added {added!r}, expected one "
                            f"{FLIP_CODE} in {function}")
    elif kind == "flip-off":
        if len(inc.get("findings_removed", [])) != 1 or added:
            problems.append("flip-off: expected exactly one finding removed")
    elif kind == "close":
        if inc.get("removed") != ["main"]:
            problems.append(f"close: removed {inc.get('removed')}")
    elif kind == "open":
        if not any(_is_seeded_bug(f) for f in added):
            problems.append("open: the seeded bug did not come back")
    return problems


def explore_problems(verdicts: Mapping[str, int],
                     allowed: Iterable[str]) -> List[str]:
    """One explored configuration: every failing verdict class is one the
    gallery lists as acceptable; with none acceptable, no schedule fails."""
    allowed = set(allowed)
    failing = {cls: n for cls, n in verdicts.items() if cls != "clean"}
    if not allowed and failing:
        return [f"clean program failed schedules: {failing}"]
    bad = sorted(set(failing) - allowed)
    return [f"verdict classes {bad} not in {sorted(allowed)}"] if bad else []


def fuzz_problems(text: str, first_text: Optional[str] = None) -> List[str]:
    """One ``parcoach fuzz --json`` campaign: a valid report with zero
    ``crash`` and zero ``static-miss``, byte-identical to the first run of
    the same campaign when one is given."""
    doc, problems = parse_json(text, "fuzz")
    if doc is None:
        return problems
    problems = validate(doc)
    counts = doc.get("summary", {}).get("counts", {})
    for cls in ("crash", "static-miss"):
        if counts.get(cls, 0):
            problems.append(f"{counts[cls]} {cls} seed(s)")
    if first_text is not None and text != first_text:
        problems.append("campaign output differs from the first run's")
    return problems


def fig1_problems(warnings_pct: float, full_pct: float) -> List[str]:
    """Figure 1 consistency: W >= 0 and F >= W."""
    problems = []
    if warnings_pct < 0:
        problems.append(f"warnings-only overhead {warnings_pct:.2f}% < 0")
    if full_pct < warnings_pct:
        problems.append(f"full overhead {full_pct:.2f}% < warnings-only "
                        f"{warnings_pct:.2f}%")
    return problems


def fold_delta(live: Dict[str, dict], doc: Mapping) -> None:
    """Apply one serve delta document to ``live`` (fingerprint -> finding)."""
    inc = doc.get("summary", {}).get("incremental", {})
    for fp in inc.get("findings_removed", []):
        live.pop(fp, None)
    for finding in doc.get("findings", []):
        live[finding["fingerprint"]] = finding
