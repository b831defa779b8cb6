"""Incremental-session benchmark — one-function-edit re-analysis vs cold.

Measures the tentpole claim of the fingerprint-native refactor: a
:class:`repro.core.session.AnalysisSession` re-analyzing a program after a
one-function edit must cost work proportional to the edit, not the program.

* ``session_cold`` — a fresh session's first ``update_source`` (full parse,
  full analysis, full report): what a one-shot ``parcoach analyze`` pays,
  plus the session bookkeeping.
* ``session_edit`` — a warm session folding in a one-function, line-count
  preserving edit: chunked re-parse of the edited function only, fingerprint
  diff, dependency-aware plan update, one cache miss, delta report.

``derived.incremental_speedup`` in ``BENCH_scale.json`` is the per-size
ratio; ``test_incremental_speedup_threshold`` is the regression gate — the
one-function edit must be at least 5x cheaper than cold at the largest
synthetic size (the acceptance target is 10x, the measured value ~30x; the
gate leaves headroom for slow CI machines).
"""

import itertools
import time

import pytest

from repro.bench.scale import SCALE_SIZES, scale_suite
from repro.core.session import AnalysisSession

SIZES = tuple(SCALE_SIZES)
LARGEST = SIZES[-1]

#: Distinct same-line replacement values — consecutive benchmark rounds
#: must actually change the source (an identical update is a no-op).
_VALUES = ("3.0", "5.0", "7.0", "9.0", "11.0", "13.0", "17.0", "19.0")


def _edit_target(size: str) -> str:
    """Edit a middle function so the call-graph diff is representative."""
    return f"compute_{SCALE_SIZES[size]['n_funcs'] // 2}"


def edit_one_function(source: str, size: str, value: str) -> str:
    """Replace one literal inside one function, preserving line counts (so
    every other function keeps its line-sensitive fingerprint)."""
    name = _edit_target(size)
    start = source.index(f"void {name}(int n) {{")
    old = "float acc = 1.0;"
    at = source.index(old, start)
    return source[:at] + f"float acc = {value};" + source[at + len(old):]


@pytest.fixture(scope="module")
def sources():
    return scale_suite()


@pytest.mark.parametrize("size", SIZES)
def test_session_cold(benchmark, sources, size):
    src = sources[size]
    benchmark.extra_info["size"] = size
    benchmark.extra_info["config"] = "session_cold"

    def cold():
        session = AnalysisSession()
        return session.update_source(f"{size}.mc", src)

    delta = benchmark(cold)
    assert delta.seq == 1 and not delta.no_op


@pytest.mark.parametrize("size", SIZES)
def test_session_one_function_edit(benchmark, sources, size):
    src = sources[size]
    variants = itertools.cycle(
        edit_one_function(src, size, v) for v in _VALUES)
    benchmark.extra_info["size"] = size
    benchmark.extra_info["config"] = "session_edit"
    session = AnalysisSession()
    session.update_source(f"{size}.mc", src)
    delta = benchmark.pedantic(
        lambda text: session.update_source(f"{size}.mc", text),
        setup=lambda: ((next(variants),), {}),
        rounds=5,
    )
    # The measured rounds really were incremental: exactly the edited
    # function re-analyzed, nothing remapped, nothing no-op'd.
    assert not delta.no_op
    assert delta.reanalyzed == (_edit_target(size),)
    assert session.engine.stats.remaps == 0


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_incremental_speedup_threshold(sources):
    """Regression gate: a one-function edit to the largest synthetic
    program must re-analyze at least 5x faster than a cold session."""
    src = sources[LARGEST]
    cold = min(
        _timed(lambda: AnalysisSession().update_source("xl.mc", src))
        for _ in range(2)
    )
    session = AnalysisSession()
    session.update_source("xl.mc", src)
    edits = [edit_one_function(src, LARGEST, v) for v in _VALUES[:4]]
    incremental = min(
        _timed(lambda text=text: session.update_source("xl.mc", text))
        for text in edits
    )
    delta = session.update_source(
        "xl.mc", edit_one_function(src, LARGEST, "23.0"))
    assert delta.reanalyzed == (_edit_target(LARGEST),)
    speedup = cold / incremental
    assert speedup >= 5.0, (
        f"one-function edit only {speedup:.1f}x faster than cold "
        f"({cold * 1e3:.1f}ms vs {incremental * 1e3:.1f}ms)"
    )
