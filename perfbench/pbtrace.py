"""Spans around the public functions of each layer, recorded from outside.

The benchmark does not change the program to trace it.  ``install`` wraps
the functions listed in ``TARGETS`` and rebinds every name that refers to
the original in the ``repro`` modules, so a call through
``repro.core.driver.build_cfg`` and one through
``repro.core.callgraph.build_cfg`` are both timed.  Methods are wrapped on
their class.  ``NAMESPACED`` wraps a function only where one caller looks
it up, to split that caller's time into phases (the fuzz oracle's static,
run and sweep phases).

A span is ``[name, start, end, parent]``; ``parent`` indexes the span that
was open on the same thread when this one started (``-1`` at top level).
Spans stay in memory until the process ends (``Tracer.export``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class Tracer:
    """In-memory span and counter collector."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        #: Per-object memory for counters read as deltas (engine stats).
        self.state: Dict[object, object] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, fn: Callable, name, after: Optional[Callable] = None
             ) -> Callable:
        """A wrapper that records one span per call of ``fn``.

        ``name`` is a string or ``name(args, kwargs) -> str``.  ``after``
        runs after a normal return as ``after(tracer, result, args,
        kwargs)`` to update counters.  Return values and exceptions pass
        through unchanged."""
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            stack = tracer._stack()
            span = [label, clock(), 0.0, stack[-1] if stack else -1]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(tracer, result, args, kwargs)
            return result

        return wrapper

    def export(self) -> Dict[str, object]:
        """The finished spans and the counters, ready for JSON."""
        return {"spans": [s for s in self.spans if s[2] > 0.0],
                "counts": dict(self.counts)}


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------


def _covered(interval: Tuple[float, float],
             children: Sequence[Tuple[float, float]]) -> float:
    """Length of the part of ``interval`` that ``children`` cover."""
    lo, hi = interval
    total = 0.0
    end = lo
    for start, stop in sorted(children):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Per span name: the summed span durations minus the part of each
    span's interval its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent) in enumerate(spans):
        totals[name] += (end - start) - _covered((start, end),
                                                 children.get(index, ()))
    return dict(totals)


def inclusive_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Per span name: summed durations of the outermost spans of that
    name (a span nested in one of its own name is not counted twice)."""
    totals: Dict[str, float] = defaultdict(float)
    names = [s[0] for s in spans]
    for name, start, end, parent in spans:
        nested = False
        while parent >= 0:
            if names[parent] == name:
                nested = True
                break
            parent = spans[parent][3]
        if not nested:
            totals[name] += end - start
    return dict(totals)


def span_counts(spans: Sequence[Sequence]) -> Dict[str, int]:
    return dict(Counter(s[0] for s in spans))


# ---------------------------------------------------------------------------
# Counter hooks
# ---------------------------------------------------------------------------


def _after_tokenize(tracer, result, args, kwargs) -> None:
    tracer.count("minilang.tokens", len(result))


def _after_contexts(tracer, result, args, kwargs) -> None:
    tracer.count("callgraph.context_words",
                 sum(len(words) for words in result.contexts.values()))


def _after_instrument(tracer, result, args, kwargs) -> None:
    tracer.count("instrument.checks", result[1].total)


def _after_engine(tracer, result, args, kwargs) -> None:
    engine = args[0]
    hits, misses = engine.stats.hits, engine.stats.misses
    last_hits, last_misses = tracer.state.get(id(engine), (0, 0))
    tracer.state[id(engine)] = (hits, misses)
    tracer.count("engine.hits", hits - last_hits)
    tracer.count("engine.misses", misses - last_misses)


def _after_store_load(tracer, result, args, kwargs) -> None:
    tracer.count("store.hits", result is not None)


def _after_run(tracer, result, args, kwargs) -> None:
    scheduler = kwargs.get("scheduler")
    if scheduler is not None:
        tracer.count("runtime.decisions", len(scheduler.decisions))


def _after_explore(tracer, result, args, kwargs) -> None:
    tracer.count("explore.schedules", result.schedules)
    tracer.count("explore.minimize_replays", result.minimize_replays)
    stats = result.dpor_stats or {}
    for key in ("expanded", "sleep_skips", "fingerprint_prunes"):
        tracer.count("explore." + key, stats.get(key, 0))


def _oracle_run_name(args, kwargs) -> str:
    config = args[1] if len(args) > 1 else kwargs["config"]
    return ("fuzz.oracle.instrumented_run" if config.instrument
            else "fuzz.oracle.raw_run")


#: (module, attribute, span name, counter hook).  ``Class.method`` names a
#: method.  Every ``repro`` module that bound the original gets the wrapper.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.minilang.lexer", "tokenize", "minilang.tokenize", _after_tokenize),
    ("repro.minilang.parser", "parse_program", "minilang.parse", None),
    ("repro.minilang.semantics", "Checker.check", "minilang.check", None),
    ("repro.core.sites", "index_program", "sites.index", None),
    ("repro.core.callgraph", "build_call_graph", "callgraph.graph", None),
    ("repro.core.callgraph", "update_call_graph", "callgraph.graph", None),
    ("repro.core.callgraph", "propagate_contexts", "callgraph.contexts",
     _after_contexts),
    ("repro.core.callgraph", "contexts_reusable", "callgraph.contexts", None),
    ("repro.core.callgraph", "collective_summaries", "callgraph.summaries",
     None),
    ("repro.core.callgraph", "update_summaries", "callgraph.summaries", None),
    ("repro.cfg.build", "build_cfg", "cfg.build", None),
    ("repro.cfg.dominance", "dominators", "cfg.dominators", None),
    ("repro.cfg.dominance", "post_dominators", "cfg.dominators", None),
    ("repro.parallelism.compute", "compute_words", "parallelism.words", None),
    ("repro.core.monothread", "analyze_monothread", "phase1.monothread", None),
    ("repro.core.concurrency", "analyze_concurrency", "phase2.concurrency",
     None),
    ("repro.core.sequence", "analyze_sequence", "phase3.sequence", None),
    ("repro.core.driver", "_analyze_function", "driver.function_analysis",
     None),
    ("repro.core.report", "build_report", "report.build", None),
    ("repro.core.report", "report_from_analysis", "report.build", None),
    ("repro.core.report", "report_from_explore", "report.build", None),
    ("repro.core.report", "report_from_fuzz", "report.build", None),
    ("repro.core.report", "render_json", "report.render", None),
    ("repro.core.report", "render_report", "report.render", None),
    ("repro.core.instrument", "instrument_program", "instrument.transform",
     _after_instrument),
    ("repro.opt", "run_middle_end", "opt.middle_end", None),
    ("repro.core.engine", "AnalysisEngine.analyze", "engine.analyze",
     _after_engine),
    ("repro.project.session", "ProjectSession.update_file", "session.update",
     None),
    ("repro.project.session", "ProjectSession.close_file", "session.update",
     None),
    ("repro.project.session", "ProjectSession.update_all", "session.update",
     None),
    ("repro.project.store", "ShardedStore.load", "store.load",
     _after_store_load),
    ("repro.project.store", "ShardedStore.save", "store.save", None),
    ("repro.runtime.run", "run_program", "runtime.run", _after_run),
    ("repro.explore.explore", "explore_config", "explore.config",
     _after_explore),
    ("repro.explore.explore", "_minimize_failure", "explore.minimize", None),
    ("repro.fuzz.generator", "generate_program", "fuzz.generate", None),
    ("repro.fuzz.generator", "mutate", "fuzz.mutate", None),
    ("repro.fuzz.coverage", "signature_for", "fuzz.coverage", None),
    ("repro.fuzz.coverage", "CoverageMap.observe", "fuzz.coverage", None),
)

#: (module, attribute, span name): wrapped only in that module's namespace,
#: on top of any wrapper ``TARGETS`` installed there.
NAMESPACED: Tuple[Tuple[str, str, object], ...] = (
    ("repro.fuzz.oracle", "analyze_program", "fuzz.oracle.static"),
    ("repro.fuzz.oracle", "run_scheduled", _oracle_run_name),
    ("repro.fuzz.oracle", "explore_config", "fuzz.oracle.sweep"),
)

#: Modules imported before wrapping, so every binding exists.
MODULES = (
    "repro.cli", "repro.core.session", "repro.project.session",
    "repro.fuzz.campaign", "repro.fuzz.oracle", "repro.bench.pipeline",
)


def rebind(old: Callable, new: Callable, prefix: str = "repro") -> int:
    """Point every module-level name bound to ``old`` in the ``prefix``
    modules at ``new``.  Returns the number of names rebound."""
    rebound = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == prefix
                                  or mod_name.startswith(prefix + ".")):
            continue
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)
                rebound += 1
    return rebound


def install(tracer: Tracer) -> None:
    """Wrap every target; count OS thread starts."""
    for name in MODULES:
        importlib.import_module(name)
    for mod_name, attr, span, after in TARGETS:
        module = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(cls.__dict__[meth], span, after))
        else:
            original = getattr(module, attr)
            rebind(original, tracer.wrap(original, span, after))
    for mod_name, attr, span in NAMESPACED:
        module = importlib.import_module(mod_name)
        setattr(module, attr, tracer.wrap(getattr(module, attr), span))

    start = threading.Thread.start

    def counted_start(thread, *args, **kwargs):
        tracer.count("runtime.threads_started")
        return start(thread, *args, **kwargs)

    threading.Thread.start = counted_start
