"""Front-end benchmark — the master-regex lexer and the precedence-climbing
parser against the reference front end they replaced.

The reference is ``tests/frontend_reference.py``: the character-stepping
lexer and the operator-ladder parser, kept as the differential-test oracle.
On the XL scale program (96 functions, ~4000 lines):

* ``tokenize`` vs ``reference_tokenize``;
* ``parse_program`` (lex + parse) vs ``reference_parse_program``.

``test_frontend_speedup_threshold`` is the gate: ``tokenize`` at least 3x
faster than the reference lexer and ``parse_program`` at least 2x faster
than the reference lexer + parser.  Both sides of each ratio are timed in
the same process, run by run in alternation, best of 12 with the garbage
collector off, so the ratios do not depend on machine speed.
``benchmarks/export_bench.py`` exports the pytest-benchmark means as
``derived.frontend_speedup`` in ``BENCH_scale.json``.
"""

import gc
import os
import sys
import time

import pytest

from repro.bench.scale import scale_suite
from repro.minilang.lexer import tokenize
from repro.minilang.parser import parse_program

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests"))
from frontend_reference import (  # noqa: E402
    reference_parse_program, reference_tokenize)

#: config -> the function timed under that name.
FRONT_ENDS = {
    "tokenize": tokenize,
    "reference_tokenize": reference_tokenize,
    "parse_program": parse_program,
    "reference_parse_program": reference_parse_program,
}

#: Minimum speedup of each production function over its reference.
THRESHOLDS = {"tokenize": 3.0, "parse_program": 2.0}


@pytest.fixture(scope="module")
def xl_source():
    return scale_suite()["XL"]


@pytest.mark.parametrize("config", sorted(FRONT_ENDS))
def test_frontend(benchmark, xl_source, config):
    benchmark.extra_info["size"] = "XL"
    benchmark.extra_info["config"] = config
    result = benchmark(FRONT_ENDS[config], xl_source)
    assert result


def _timed(fn, source: str) -> float:
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        fn(source)
        return time.perf_counter() - start
    finally:
        gc.enable()


def test_frontend_speedup_threshold(xl_source):
    """Regression gate: the fast front end keeps its margin over the
    reference (the production functions' ratios, not absolute times).
    Fast and reference runs alternate one by one, so a change of machine
    speed hits both sides of a ratio alike; each side keeps its best."""
    speedups = {}
    for name, threshold in THRESHOLDS.items():
        fast = FRONT_ENDS[name]
        slow = FRONT_ENDS["reference_" + name]
        fast_s = slow_s = float("inf")
        for _ in range(12):
            fast_s = min(fast_s, _timed(fast, xl_source))
            slow_s = min(slow_s, _timed(slow, xl_source))
        speedups[name] = slow_s / fast_s
    for name, threshold in THRESHOLDS.items():
        assert speedups[name] >= threshold, (
            f"{name} only {speedups[name]:.2f}x faster than the reference "
            f"front end (gate: {threshold}x); all: {speedups}")
