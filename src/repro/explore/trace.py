"""Compact JSON schedule traces — record, save, load, replay.

A trace is everything needed to reproduce one scheduled run byte for byte:
the program configuration (ranks, team size, thread level, entry,
instrumented or not) and the choice sequence of every *branching* decision
(points with a single runnable thread are forced and not recorded).  The
verdict block is carried along so a replay can be validated against what
the recorded run reported.

JSON schema (``version`` 2)::

    {
      "version": 2,
      "mode": "full" | "minimized",
      "config": {"nprocs": 2, "num_threads": 2, "thread_level": "multiple",
                 "entry": "main", "instrument": false},
      "strategy": {"name": "random", "seed": 7},
      "verdict": {"line": "DeadlockError[simulator] rank=0 line=12: ...",
                  "class": "DeadlockError", "detected_by": "simulator"},
      "choices": [
        {"i": 0, "p": "start", "u": null, "r": ["r0", "r1"], "c": "r1",
         "f": ["comm/c:MPI_Bcast"], "sf": "9f86d081884c7d65"},
        ...
      ]
    }

``ScheduleTrace.load``/``from_json``/``from_dict`` answer anything that
is not such a document — a missing or unreadable file, text that is not
JSON, a top-level array, an unknown version, a field of the wrong type, an
unknown thread level — with one :class:`TraceError`.

``choices[*]``: ``i`` decision index, ``p`` schedule point (kind:detail),
``u`` the thread that was running (``null`` = forced switch), ``r`` the
sorted runnable set, ``c`` the chosen thread.  Version 2 adds the pruning
metadata that dynamic partial-order reduction works from: ``f`` is the
access footprint of the step the chosen thread actually executed after the
decision (canonical sorted ``object/mode`` strings, see
:mod:`repro.explore.footprint`) and ``sf`` is the state fingerprint of the
quiescent state at the decision (present only when the recording scheduler
ran with ``fingerprints=True``).  Only ``c`` is required to replay; the
rest make traces self-describing and drive DFS/DPOR expansion.  Version-1
traces (no ``f``/``sf``) load and replay unchanged.  ``mode: "minimized"``
marks a delta-debugged choice sequence that relies on the deterministic
run-to-completion fallback once exhausted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..mpi.thread_levels import ThreadLevel
from ..runtime.simmpi.world import RunResult
from .footprint import footprint_to_list
from .strategies import Decision

TRACE_VERSION = 2
_READABLE_VERSIONS = (1, 2)


class TraceError(ValueError):
    """The input is not a readable schedule trace."""


_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string",
               int: "an integer", bool: "a boolean", float: "a number",
               type(None): "null"}


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise TraceError(message)


def _check_fields(where: str, data: dict, kinds: Dict[str, tuple]) -> None:
    """Each present field of ``data`` named in ``kinds`` has one of its
    types (``bool`` never passes for ``int``)."""
    for key, types in kinds.items():
        if key not in data:
            continue
        value = data[key]
        if not isinstance(value, types) \
                or (isinstance(value, bool) and bool not in types):
            raise TraceError(
                f"{where}{key!r} must be "
                f"{' or '.join(_TYPE_NAMES[t] for t in types)}, not "
                f"{_TYPE_NAMES.get(type(value), type(value).__name__)}")


def step_footprints(events, event_index,
                    n: int) -> List[Optional[List[str]]]:
    """Per decision ``i < n``: the canonical footprint of the step the
    chosen thread executed after it, or None when the run recorded none."""
    footprints: List[Optional[List[str]]] = []
    for i in range(n):
        ei = event_index[i] if i < len(event_index) else None
        if ei is not None and ei < len(events):
            footprints.append(footprint_to_list(events[ei][1]))
        else:
            footprints.append(None)
    return footprints


def verdict_line(result: RunResult) -> str:
    """Canonical one-line verdict used for byte-for-byte comparisons."""
    if result.error is None:
        return "clean"
    err = result.error
    return (f"{type(err).__name__}[{err.detected_by}] "
            f"rank={err.rank} line={err.line}: {err}")


@dataclass
class ScheduleTrace:
    config: Dict[str, object]
    choices: List[Decision] = field(default_factory=list)
    verdict: str = "clean"
    verdict_class: str = ""
    detected_by: str = ""
    mode: str = "full"
    strategy: Dict[str, object] = field(default_factory=dict)
    #: Per choice: the executed step's footprint (sorted "object/mode"
    #: strings) or None when unknown (v1 traces, truncated runs).
    step_footprints: List[Optional[List[str]]] = field(default_factory=list)
    #: Per choice: quiescent-state fingerprint or None.
    state_fingerprints: List[Optional[str]] = field(default_factory=list)

    @property
    def choice_names(self) -> List[str]:
        return [d.chosen for d in self.choices]

    # -- construction -----------------------------------------------------------

    @classmethod
    def record(cls, scheduler, config: Dict[str, object], result: RunResult,
               strategy_info: Optional[Dict[str, object]] = None,
               mode: str = "full", steps: bool = True) -> "ScheduleTrace":
        """The trace of a finished run.  ``steps=False`` leaves the step
        footprints out, for a caller that keeps few of its traces and
        adds them (:func:`step_footprints`) to those it keeps."""
        state_fps = list(getattr(scheduler, "state_fingerprints", []))
        footprints = step_footprints(
            getattr(scheduler, "events", []),
            getattr(scheduler, "decision_event_index", []),
            len(scheduler.decisions)) if steps else []
        state_fps += [None] * (len(scheduler.decisions) - len(state_fps))
        return cls(
            config=dict(config),
            choices=list(scheduler.decisions),
            verdict=verdict_line(result),
            verdict_class=type(result.error).__name__ if result.error else "",
            detected_by=result.detected_by,
            mode=mode,
            strategy=dict(strategy_info or {}),
            step_footprints=footprints,
            state_fingerprints=state_fps,
        )

    # -- (de)serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        choices = []
        for i, d in enumerate(self.choices):
            entry = {"i": d.index, "p": d.point, "u": d.current,
                     "r": list(d.runnable), "c": d.chosen}
            fp = (self.step_footprints[i]
                  if i < len(self.step_footprints) else None)
            if fp is not None:
                entry["f"] = list(fp)
            sf = (self.state_fingerprints[i]
                  if i < len(self.state_fingerprints) else None)
            if sf is not None:
                entry["sf"] = sf
            choices.append(entry)
        return {
            "version": TRACE_VERSION,
            "mode": self.mode,
            "config": self.config,
            "strategy": self.strategy,
            "verdict": {
                "line": self.verdict,
                "class": self.verdict_class,
                "detected_by": self.detected_by,
            },
            "choices": choices,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "ScheduleTrace":
        _check(isinstance(data, dict), "a trace must be a JSON object, not "
               + _TYPE_NAMES.get(type(data), type(data).__name__))
        version = data.get("version", TRACE_VERSION)
        _check(not isinstance(version, bool)
               and version in _READABLE_VERSIONS,
               f"unsupported trace version {version!r}")
        _check_fields("", data, {"config": (dict,), "verdict": (dict,),
                                 "choices": (list,), "mode": (str,),
                                 "strategy": (dict,)})
        config = data.get("config", {})
        _check_fields("config ", config, {
            "nprocs": (int,), "num_threads": (int,), "thread_level": (str,),
            "entry": (str,), "instrument": (bool,)})
        for key in ("nprocs", "num_threads"):
            _check(config.get(key, 1) >= 1,
                   f"config {key!r} must be at least 1")
        level = config.get("thread_level", "multiple")
        _check(level.upper() in ThreadLevel.__members__,
               f"unknown thread level {level!r}")
        verdict = data.get("verdict", {})
        _check_fields("verdict ", verdict, {
            "line": (str,), "class": (str,), "detected_by": (str,)})
        raw_choices = data.get("choices", [])
        for i, c in enumerate(raw_choices):
            where = f"choice {i}: "
            _check(isinstance(c, dict), f"{where}must be an object")
            _check("c" in c, f"{where}no chosen thread 'c'")
            _check_fields(where, c, {
                "i": (int,), "p": (str,), "u": (str, type(None)),
                "r": (list,), "c": (str,), "f": (list, type(None)),
                "sf": (str, type(None))})
        choices = [
            Decision(
                index=c.get("i", i),
                point=c.get("p", ""),
                current=c.get("u"),
                runnable=tuple(c.get("r", ())),
                chosen=c["c"],
            )
            for i, c in enumerate(raw_choices)
        ]
        return cls(
            config=dict(data.get("config", {})),
            choices=choices,
            verdict=verdict.get("line", "clean"),
            verdict_class=verdict.get("class", ""),
            detected_by=verdict.get("detected_by", ""),
            mode=data.get("mode", "full"),
            strategy=dict(data.get("strategy", {})),
            step_footprints=[c.get("f") for c in raw_choices],
            state_fingerprints=[c.get("sf") for c in raw_choices],
        )

    @classmethod
    def from_json(cls, text: str) -> "ScheduleTrace":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise TraceError(f"not a JSON document: {exc}") from None
        except RecursionError:
            raise TraceError("not a JSON document: nested too deeply") \
                from None
        return cls.from_dict(data)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "ScheduleTrace":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise TraceError(exc.strerror or str(exc)) from None
        except UnicodeDecodeError as exc:
            raise TraceError(str(exc)) from None
        return cls.from_json(text)

    # -- config helpers ---------------------------------------------------------

    def thread_level(self) -> ThreadLevel:
        name = str(self.config.get("thread_level", "multiple")).upper()
        return ThreadLevel[name]
