"""The four workloads and the process plumbing they share.

Every measured command runs in a fresh child process started through
``launch.py``, one at a time, so the benchmark keeps at most two threads
busy: the child, and this process while it plays a ``project serve``
client.  Peak RSS comes from ``os.wait4`` on each child.

Times are reported at a reference machine speed.  The machines this runs
on change speed by a third within seconds, so every measurement is scaled
by calibration samples taken on the same CPU right around it
(``pbstats.speed``): inside a CLI child every 0.2 s while it works,
between items inside a job, and between requests for the serve client.  ``run.py`` pins the
benchmark, and with it every child, to one CPU so that the samples and
the measurement share that CPU.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import pbchecks
import pbstats
import pbtrace

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCH = os.path.join(HERE, "launch.py")

#: Explore sweep: DPOR over every gallery program at np=2 for these team
#: sizes, with this cap on runs per configuration.
EXPLORE_NPROCS = 2
EXPLORE_TEAMS = (2, 3)
EXPLORE_RUNS = 200
#: Gallery programs of the explore workload's one-shot CLI commands: the
#: lightest program, and a schedule-sensitive one whose DPOR schedule count
#: is known to vary between runs (reported, not hidden).
EXPLORE_QUICK = "clean_masteronly"
EXPLORE_HEAVY = "concurrent_singles_nowait"

#: Project-edit trace shape (per 1200 requests; scaled with the run).
PROJECT_FILES = 1000
FLIP_SHARE = 0.02
INSERT_SHARE = 0.15
STATS_SHARE = 0.02
CLOSE_OPEN_PAIRS = 3
#: A summary flip adds a rank-conditional barrier to one function, or takes
#: it out again.  Flips come in on/off pairs on one function, so at most one
#: is live and each one changes the collective summary of every caller up
#: the chain; they go into the last files, whose chains reach ~1000
#: callers.  They are the slow request class that sets the p99.
FLIP_WINDOW = 100
FLIP_BLOCK = "    if (v < 3) {\n        MPI_Barrier();\n    }\n"
#: Serve requests between two calibration samples of the client.
SERVE_CHUNK = 25

#: Fuzz campaigns: the timed population and its size per round, and the
#: size and base-seed stride of the seed-dependent checked campaign.
FUZZ_TIMED_SEED = 0
FUZZ_SEEDS = 100
FUZZ_CHECK_SEEDS = 30
FUZZ_CHECK_STRIDE = 1000

SETUP_REPEATS = 5
FIG1_ROUNDS = 10
#: Rounds of one cold ``--no-store`` and one warm ``project analyze``.
PROJECT_ROUNDS = 3


@dataclass
class Proc:
    code: int
    out: str
    err: str
    #: Wall time from start to exit, less the child's calibration time.
    wall: float
    #: Calibration samples taken around and inside the child.
    samples: List[float]
    rss_mb: float
    report: dict

    @property
    def ref_s(self) -> float:
        """The wall time at the reference machine speed."""
        return self.wall * pbstats.speed(self.samples)


@dataclass
class Measured:
    """What one pass of a workload produced."""

    #: Reference-speed time of the whole pass.
    ref_s: float = 0.0
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Outputs a traced pass must reproduce exactly.
    outputs: Dict[str, str] = field(default_factory=dict)
    #: Outputs allowed to differ between passes (the known DPOR
    #: nondeterminism); compared and reported, never counted as failures.
    loose: Dict[str, str] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)
    #: Reports of the traced children (spans, counters).
    reports: List[dict] = field(default_factory=list)
    #: ``pbstats.speed`` around each child (the stamp line's median).
    speeds: List[float] = field(default_factory=list)


class Bench:
    """Children, checks and accounting for one benchmark run."""

    def __init__(self, root: str, work: str, seed: int, seconds: int) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.scale = max(1, round(seconds / 10))
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._n = 0

    # -- accounting ----------------------------------------------------------

    def check(self, problems: Sequence[str], what: str) -> None:
        """Count one checked operation; it failed if ``problems``."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {problems[0]}")

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def _next(self, stem: str) -> str:
        self._n += 1
        return self.path(f"{stem}-{self._n}")

    # -- children ------------------------------------------------------------

    def argv(self, args: Sequence[str], traced: bool, job: bool = False,
             sample: bool = False) -> Tuple[List[str], str]:
        report = self._next("report") + ".json"
        argv = [sys.executable, LAUNCH, "--report", report]
        if traced:
            argv.append("--trace")
        if sample:
            argv.append("--sample")
        return argv + (["job", *args] if job else ["cli", *args]), report

    def finish(self, child: subprocess.Popen, start: float, before: float,
               report_path: str, m: Measured
               ) -> Tuple[float, List[float], float, dict]:
        """Reap ``child``; returns its wall time less calibration, the
        calibration samples around it, peak RSS (MB) and launch report.
        The samples are the child's own, ``before`` (taken here just before
        the child started) and one taken here just after it ended."""
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
        samples = [before, *report["calibration"],
                   pbstats.calibration_sample()]
        m.speeds.append(pbstats.speed(samples))
        if "spans" in report:
            m.reports.append(report)
        return (wall - report["calibration_s"], samples,
                usage.ru_maxrss / 1024.0, report)

    def run(self, args: Sequence[str], m: Measured, traced: bool = False,
            job: bool = False, sample: Optional[bool] = None) -> Proc:
        """Run one child to its end.  By default a CLI child samples the
        machine speed while it works (``launch.py --sample``) and a job
        does not: it times its own items between samples of its own."""
        argv, report_path = self.argv(
            args, traced, job, sample=not job if sample is None else sample)
        stem = self._next("proc")
        with open(stem + ".out", "w+", encoding="utf-8") as out, \
                open(stem + ".err", "w+", encoding="utf-8") as err:
            before = pbstats.calibration_sample()
            start = time.perf_counter()
            child = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                     stdout=out, stderr=err, cwd=self.root,
                                     env=self.env)
            wall, samples, rss, report = self.finish(child, start, before,
                                                     report_path, m)
            out.seek(0)
            err.seek(0)
            return Proc(child.returncode, out.read(), err.read(), wall,
                        samples, rss, report)

    def job(self, name: str, plan: dict, m: Measured, traced: bool,
            sample: bool = False) -> Tuple[dict, Proc]:
        plan_path = self._next("plan") + ".json"
        with open(plan_path, "w", encoding="utf-8") as handle:
            json.dump(plan, handle)
        proc = self.run([name, plan_path], m, traced=traced, job=True,
                        sample=sample)
        if proc.code != 0:
            raise RuntimeError(f"job {name} exited {proc.code}: "
                               f"{proc.err[-2000:]}")
        result = json.loads(proc.out.splitlines()[-1])
        proc.samples += result.get("calibration", [])
        proc.wall -= result.get("calibration_s", 0.0)
        return result, proc

    # -- shared pieces -------------------------------------------------------

    def write(self, rel: str, text: str) -> str:
        path = self.path(rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def setup(self, prepare) -> float:
        """Median of ``SETUP_REPEATS`` set-ups at the reference speed:
        ``prepare(base)`` generates the inputs and writes them under the
        fresh directory ``base``, then one process imports every layer and
        exits.  Both sample the machine speed while they work.  The last
        set-up's inputs are the ones measured; removing the others, and
        flushing the writes to disk, is not timed."""
        times = []
        for k in range(SETUP_REPEATS):
            sampler = pbstats.Sampler()
            before = pbstats.calibration_sample()
            start = time.perf_counter()
            sampler.start()
            try:
                prepare(f"inputs-{k}")
            finally:
                sampler.stop()
            _, proc = self.job("ready", {}, Measured(), traced=False,
                               sample=True)
            seconds = (time.perf_counter() - start - sampler.seconds
                       - proc.report["calibration_s"])
            after = pbstats.calibration_sample()
            times.append(seconds * pbstats.speed(
                [before, *sampler.samples, *proc.samples, after]))
            if k:
                shutil.rmtree(self.path(f"inputs-{k - 1}"))
            # Each set-up starts with no writes of the last one pending.
            os.sync()
        return pbstats.median(times)

    def write_fig1_models(self, base: str) -> List[List[str]]:
        from repro.bench import FIGURE1_BENCHMARKS, benchmark_sources

        # Bypass the generator's cache: generating is part of set-up.
        sources = benchmark_sources.__wrapped__()
        return [[name, self.write(f"{base}/fig1/{i}.mc", sources[name])]
                for i, name in enumerate(FIGURE1_BENCHMARKS)]

    def fig1(self, models, traced: bool, m: Measured) -> Tuple[dict, Proc]:
        """The Figure 1 overhead: per round, the analysis + instrumentation
        stage time over the base compiler's stage time (parse, semantics,
        middle end, emit), all timed inside the same compiles."""
        result, proc = self.job("fig1", {"rounds": FIG1_ROUNDS * self.scale,
                                         "models": models}, m, traced)
        full = []
        for k, compiles in enumerate(result["rounds"]):
            base = sum(c["timings"][s] for c in compiles
                       for s in ("parse", "semantics", "middle_end", "emit"))
            analysis = sum(c["timings"]["analysis"] for c in compiles)
            instrument = sum(c["timings"]["instrument"] for c in compiles)
            w_pct = 100.0 * analysis / base
            f_pct = 100.0 * (analysis + instrument) / base
            problems = pbchecks.fig1_problems(w_pct, f_pct)
            problems += [f"{c['name']}: no warning" for c in compiles
                         if c["warnings"] < 1]
            self.check(problems, f"fig1 round {k}")
            full.append(f_pct)
        emitted = {c["name"]: c["emitted"] for c in result["rounds"][0]}
        for k, compiles in enumerate(result["rounds"][1:], 1):
            same = all(emitted[c["name"]] == c["emitted"] for c in compiles)
            self.check([] if same else ["emitted code differs"],
                       f"fig1 round {k} output")
        m.outputs["fig1"] = json.dumps(emitted, sort_keys=True)
        m.metrics["fig1_overhead_pct"] = pbstats.median(full)
        return result, proc


def _latency_metrics(m: Measured, latencies_ms: Sequence[float]) -> None:
    pct, tail = pbstats.tail_percentile(latencies_ms)
    m.metrics["op_p50_ms"] = pbstats.median(latencies_ms)
    m.metrics["op_tail_ms"] = tail
    m.extra["tail_pct"] = pct


# ---------------------------------------------------------------------------
# analyze-files
# ---------------------------------------------------------------------------


class AnalyzeFiles:
    """Fresh ``parcoach analyze --json`` processes over the 24 gallery
    programs and the XL scale program, plus the Figure 1 models compiled
    through the pipeline.  All static front end and phases 1-3; nothing
    through the engine cache, the store or the runtime."""

    def __init__(self, bench: Bench) -> None:
        self.b = bench

    def prepare(self, base: str) -> None:
        from repro.bench import CASES, SCALE_SIZES, make_scale_program

        self.files = [(name, self.b.write(f"{base}/{name}.mc", case.source),
                       sorted(code.value for code in case.expect_static))
                      for name, case in CASES.items()]
        self.xl = self.b.write(f"{base}/xl.mc",
                               make_scale_program(**SCALE_SIZES["XL"]))
        self.models = self.b.write_fig1_models(base)

    def measure(self, traced: bool) -> Measured:
        b, m = self.b, Measured()
        rng = random.Random(f"analyze-files:{b.seed}")
        rss, quick, heavy = [], [], []
        for _ in range(b.scale):
            order = list(self.files)
            rng.shuffle(order)
            for name, path, expect in order:
                proc = b.run(["analyze", "--json", path], m, traced)
                b.check(pbchecks.analyze_problems(proc.out, proc.code,
                                                  expect), f"analyze {name}")
                self._same(m, f"analyze:{name}", proc.out)
                quick.append(proc.ref_s)
                rss.append(proc.rss_mb)
        for _ in range(8 * b.scale):
            proc = b.run(["analyze", "--json", self.xl], m, traced)
            b.check(pbchecks.analyze_problems(proc.out, proc.code,
                                              ["collective-mismatch"]),
                    "analyze xl")
            self._same(m, "analyze:xl", proc.out)
            heavy.append(proc.ref_s)
            rss.append(proc.rss_mb)
        result, proc = b.fig1(self.models, traced, m)
        rss.append(proc.rss_mb)
        compiles, lines = [], 0
        for k, rnd in enumerate(result["rounds"]):
            speed = pbstats.speed(result["calibration"][k:k + 2])
            compiles += [c["seconds"] * speed for c in rnd]
            lines += sum(c["lines"] for c in rnd)
        m.ref_s = sum(quick) + sum(heavy) + proc.ref_s
        _latency_metrics(m, [1000.0 * s for s in compiles])
        m.metrics.update({
            "oneshot_quick_s": pbstats.median(quick),
            "oneshot_heavy_s": pbstats.median(heavy),
            "work_per_s": lines / sum(compiles),
            "peak_rss_mb": max(rss),
        })
        return m

    def _same(self, m: Measured, key: str, out: str) -> None:
        """Repeated analyses of one file are byte-identical."""
        first = m.outputs.setdefault(key, out)
        if first is not out:
            self.b.check([] if first == out else ["repeated analysis "
                                                  "differs"], key)


# ---------------------------------------------------------------------------
# project-edit
# ---------------------------------------------------------------------------


class ProjectModel:
    """The benchmark's own record of every edit it made to the generated
    project, rendered back to file text."""

    def __init__(self, files: Dict[str, str]) -> None:
        self.parts = {rel: text.rstrip("\n").split("\n\n")
                      for rel, text in files.items() if rel.startswith("m")
                      and rel != "main.mc"}
        self.consts: Dict[Tuple[int, int], int] = {}
        self.comments: Dict[int, int] = {}
        #: (file, function) indexes that carry a summary flip.
        self.flipped: set = set()

    @staticmethod
    def rel(i: int) -> str:
        return f"m{i:03d}.mc"

    def flipped_names(self) -> List[str]:
        return sorted(f"m{i}_f{j}" for i, j in self.flipped)

    def render(self, i: int) -> str:
        out = []
        for j, part in enumerate(self.parts[self.rel(i)]):
            lines = part.split("\n")
            if (i, j) in self.consts:
                lines = [f"    v += {self.consts[i, j]};"
                         if line.startswith("    v += ") else line
                         for line in lines]
            text = "\n".join(lines)
            if (i, j) in self.flipped:
                text = text.replace("    return v;",
                                    FLIP_BLOCK + "    return v;")
            out.append(text)
        prefix = "".join(f"// edit {k}\n"
                         for k in range(self.comments.get(i, 0)))
        return prefix + "\n\n".join(out) + "\n"


def make_trace(rng: random.Random, n_requests: int) -> List[str]:
    """Request kinds of one closed-loop serve trace, in order.  Counts are
    fixed shares, so every seed has the same mix; the seed picks the order
    and, later, the files."""
    kinds = (["flip"] * round(FLIP_SHARE * n_requests)
             + ["insert"] * round(INSERT_SHARE * n_requests)
             + ["stats"] * round(STATS_SHARE * n_requests)
             + ["pair"] * CLOSE_OPEN_PAIRS)
    kinds += ["body"] * (n_requests - len(kinds) - CLOSE_OPEN_PAIRS)
    rng.shuffle(kinds)
    return kinds


class ServeClient:
    """One ``project serve`` child driven in a closed loop."""

    def __init__(self, bench: Bench, root: str, traced: bool) -> None:
        self.bench = bench
        argv, self.report_path = bench.argv(["project", "serve", root],
                                            traced)
        self._err = open(bench._next("serve") + ".err", "w",
                         encoding="utf-8")
        self.before = pbstats.calibration_sample()
        self.start = time.perf_counter()
        self.child = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._err, cwd=bench.root, env=bench.env, text=True,
            bufsize=1)

    def request(self, line: str) -> Tuple[float, Optional[dict], str]:
        start = time.perf_counter()
        self.child.stdin.write(line + "\n")
        self.child.stdin.flush()
        text = self.child.stdout.readline()
        latency = time.perf_counter() - start
        doc, _ = pbchecks.parse_json(text, line)
        return latency, doc, text

    def close(self, m: Measured) -> Tuple[int, float]:
        try:
            self.child.stdin.write("quit\n")
            self.child.stdin.close()
        except BrokenPipeError:
            pass
        self.child.stdout.read()
        self.child.stdout.close()
        _, _, rss, _ = self.bench.finish(self.child, self.start, self.before,
                                         self.report_path, m)
        self._err.close()
        return self.child.returncode, rss

    def abort(self) -> None:
        """Stop the server after a failure on this side."""
        self.child.kill()
        self.child.wait()
        self._err.close()


class ProjectEdit:
    """``make_project(1000)``: cold and warm one-shot ``project analyze``
    runs, then one closed-loop ``project serve`` client replaying a seeded
    edit trace.  The session, engine, call-graph delta and store carry the
    load; the static phases show only in the cold starts."""

    def __init__(self, bench: Bench) -> None:
        self.b = bench

    def prepare(self, base: str) -> None:
        from repro.bench import make_project, write_project

        self.base = base
        self.dir = self.b.path(f"{base}/project")
        self.files = make_project(n_files=PROJECT_FILES, seed=self.b.seed)
        write_project(self.files, self.dir)
        self.models = self.b.write_fig1_models(base)

    def measure(self, traced: bool) -> Measured:
        from repro.bench import write_project

        b, m = self.b, Measured()
        # Every pass starts from the generated tree (edits only rewrite
        # generated files).
        write_project(self.files, self.dir)
        os.sync()
        shutil.rmtree(os.path.join(self.dir, ".parcoach"), ignore_errors=True)
        # Let the removal reach the disk now, not during the cold run.
        os.sync()
        first = b.run(["project", "analyze", "--json", self.dir], m, traced)
        m.extra["store.bytes"] = _tree_bytes(
            os.path.join(self.dir, ".parcoach", "store"))
        os.sync()
        self._check_analysis(first, "cold")
        m.outputs["project:analyze"] = first.out
        rss, cold, warm = [first.rss_mb], [], []
        # The timed cold starts write no store: writing ~2000 entries costs
        # about 1 s of kernel time that varies by a fifth or more from run
        # to run on its own, more than a static-phase change would show
        # (README.md).  The untimed cold run above fills the store, and the
        # edits of the serve trace write it too.
        for _ in range(PROJECT_ROUNDS * b.scale):
            for what, args, times in (
                    ("cold --no-store", ["--no-store"], cold),
                    ("warm", [], warm)):
                proc = b.run(["project", "analyze", "--json", *args,
                              self.dir], m, traced)
                self._check_analysis(proc, what)
                b.check([] if proc.out == first.out else
                        [f"{what} output differs from cold"],
                        f"project {what} == cold")
                rss.append(proc.rss_mb)
                times.append(proc.ref_s)
        latencies, serve_rss = self.serve(traced, m)
        _, proc = b.fig1(self.models, traced, m)
        m.ref_s = sum(cold) + sum(warm) + sum(latencies) / 1000.0 + proc.ref_s
        _latency_metrics(m, latencies)
        m.metrics.update({
            "oneshot_heavy_s": pbstats.median(cold),
            "oneshot_quick_s": pbstats.median(warm),
            "work_per_s": 1000.0 * len(latencies) / sum(latencies),
            "peak_rss_mb": max(rss + [serve_rss]),
        })
        return m

    def _check_analysis(self, proc: Proc, what: str) -> None:
        doc, problems = pbchecks.parse_json(proc.out, what)
        if doc is not None:
            problems = pbchecks.project_problems(doc)
        if proc.code != 1:
            problems.append(f"exit code {proc.code}, expected 1")
        self.b.check(problems, f"project analyze {what}")

    def serve(self, traced: bool, m: Measured) -> Tuple[List[float], float]:
        """Replay the trace; returns reference-speed latencies (ms) and the
        server's peak RSS."""
        b = self.b
        rng = random.Random(f"project-edit:{b.seed}")
        model = ProjectModel(self.files)
        kinds = make_trace(rng, 1200 * b.scale)
        client = ServeClient(b, self.dir, traced)
        try:
            return self._replay(client, model, kinds, rng, traced, m)
        except BaseException:
            client.abort()
            raise

    def _replay(self, client: "ServeClient", model: ProjectModel,
                kinds: List[str], rng: random.Random, traced: bool,
                m: Measured) -> Tuple[List[float], float]:
        b = self.b
        live: Dict[str, dict] = {}
        _, doc, _ = client.request("analyze")
        b.check(pbchecks.serve_response_problems(
            "open", doc, 1) if doc else ["no response"], "serve analyze")
        if doc:
            pbchecks.fold_delta(live, doc)
        raw: List[float] = []
        calibration = [pbstats.calibration_sample()]
        docs: List[str] = []
        reanalyzed = edits = 0
        main_open = True
        for kind in kinds:
            for step_kind, line, function in self._steps(kind, rng, model):
                main_open = {"close": False, "open": True}.get(step_kind,
                                                               main_open)
                expect = len(model.flipped) + (1 if main_open else 0)
                latency, doc, text = client.request(line)
                raw.append(latency)
                if len(raw) % SERVE_CHUNK == 0:
                    calibration.append(pbstats.calibration_sample())
                if doc is None:
                    b.check(["no JSON response"], f"serve {step_kind}")
                    continue
                b.check(pbchecks.serve_response_problems(
                    step_kind, doc, expect, function), f"serve {line}")
                if step_kind != "stats":
                    docs.append(text.rstrip("\n"))
                    pbchecks.fold_delta(live, doc)
                if step_kind in ("body", "insert", "flip-on", "flip-off"):
                    edits += 1
                    reanalyzed += len(doc["summary"]["incremental"]
                                      .get("reanalyzed", []))
        if len(raw) % SERVE_CHUNK:
            calibration.append(pbstats.calibration_sample())
        _, stats_doc, _ = client.request("stats")
        code, rss = client.close(m)
        b.check([] if code == 0 else [f"exit code {code}"], "serve exit")
        m.outputs["project:serve"] = "\n".join(docs)
        m.extra["session"] = stats_doc or {}
        m.extra["reanalyzed_per_edit"] = reanalyzed / max(1, edits)
        final = b.run(["project", "analyze", "--json", "--no-store",
                       self.dir], m, traced)
        cold_doc, problems = pbchecks.parse_json(final.out, "final cold")
        if cold_doc is not None:
            problems = (pbchecks.project_problems(cold_doc,
                                                  model.flipped_names())
                        + pbchecks.serve_final_problems(live, cold_doc))
        b.check(problems, "serve final == cold")
        m.outputs["project:final"] = final.out
        latencies = [1000.0 * t * pbstats.speed(
            calibration[k // SERVE_CHUNK:k // SERVE_CHUNK + 2])
            for k, t in enumerate(raw)]
        return latencies, rss

    def _steps(self, kind: str, rng: random.Random, model: ProjectModel):
        """File edits for one trace entry; returns the requests to send."""
        if kind == "stats":
            return [("stats", "stats", None)]
        if kind == "pair":
            return [("close", "close main.mc", None),
                    ("open", "open main.mc", None)]
        if kind == "flip" and model.flipped:
            kind = "flip-off"
            i, j = model.flipped.pop()
        elif kind == "flip":
            kind = "flip-on"
            i = rng.randrange(PROJECT_FILES - FLIP_WINDOW, PROJECT_FILES)
            j = rng.randrange(2)
            model.flipped.add((i, j))
        else:
            i, j = rng.randrange(PROJECT_FILES), rng.randrange(2)
        if kind == "body":
            value = rng.randrange(1000, 1_000_000)
            while model.consts.get((i, j)) == value:
                value = rng.randrange(1000, 1_000_000)
            model.consts[i, j] = value
        elif kind == "insert":
            model.comments[i] = model.comments.get(i, 0) + 1
        self.b.write(f"{self.base}/project/{model.rel(i)}", model.render(i))
        return [(kind, f"edit {model.rel(i)}", f"m{i}_f{j}")]


def _tree_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


# ---------------------------------------------------------------------------
# explore-sweep
# ---------------------------------------------------------------------------


class ExploreSweep:
    """``explore_config(strategy="dpor")`` over every gallery program at
    np=2, nt in {2, 3}, in one process: the interpreter, the scheduler
    handoff and the DPOR bookkeeping do the work, the static side almost
    none.  Fresh-process ``parcoach explore`` commands give the one-shot
    times."""

    def __init__(self, bench: Bench) -> None:
        self.b = bench

    def prepare(self, base: str) -> None:
        from repro.bench import CASES

        self.allowed = {name: sorted(e.__name__ for e in case.raw_errors)
                        for name, case in CASES.items()}
        self.paths = {name: self.b.write(f"{base}/{name}.mc", case.source)
                      for name, case in CASES.items()}
        self.models = self.b.write_fig1_models(base)

    def measure(self, traced: bool) -> Measured:
        b, m = self.b, Measured()
        rng = random.Random(f"explore-sweep:{b.seed}")
        items = [[name, path, nt] for name, path in self.paths.items()
                 for nt in EXPLORE_TEAMS]
        rng.shuffle(items)
        configs, seconds, rss, total = [], [], [], 0.0
        for _ in range(b.scale):
            result, proc = b.job("explore-sweep", {
                "runs": EXPLORE_RUNS, "nprocs": EXPLORE_NPROCS,
                "items": items}, m, traced)
            configs += result["configs"]
            calibration = result["calibration"]
            seconds += [c["seconds"] * pbstats.speed(
                calibration[i:i + 2] + c["samples"])
                for i, c in enumerate(result["configs"])]
            rss.append(proc.rss_mb)
            total += proc.ref_s
        for c in configs:
            b.check(pbchecks.explore_problems(c["verdicts"],
                                              self.allowed[c["name"]]),
                    f"explore {c['name']} nt={c['nt']}")
            m.loose[f"{c['name']} nt={c['nt']}"] = json.dumps(
                [c["schedules"], c["verdicts"]], sort_keys=True)
        oneshot = {}
        for name, repeats in ((EXPLORE_QUICK, 4), (EXPLORE_HEAVY, 3)):
            times = []
            for _ in range(repeats):
                proc = b.run(["explore", self.paths[name], "--strategy",
                              "dpor", "--runs", str(EXPLORE_RUNS), "-np",
                              str(EXPLORE_NPROCS), "-nt",
                              ",".join(map(str, EXPLORE_TEAMS)), "--json",
                              "--save-trace", b.path("trace.json")],
                             m, traced)
                b.check(self._cli_problems(name, proc), f"explore {name}")
                times.append(proc.ref_s)
                rss.append(proc.rss_mb)
                total += proc.ref_s
            oneshot[name] = pbstats.median(times)
        _, proc = b.fig1(self.models, traced, m)
        m.ref_s = total + proc.ref_s
        # One operation is one explored schedule; a configuration's time
        # per schedule includes its DPOR bookkeeping and minimisation.
        _latency_metrics(m, [1000.0 * s / c["schedules"]
                             for s, c in zip(seconds, configs)])
        m.metrics.update({
            "oneshot_quick_s": oneshot[EXPLORE_QUICK],
            "oneshot_heavy_s": oneshot[EXPLORE_HEAVY],
            "work_per_s": sum(c["schedules"] for c in configs) / sum(seconds),
            "peak_rss_mb": max(rss),
        })
        return m

    def _cli_problems(self, name: str, proc: Proc) -> List[str]:
        doc, problems = pbchecks.parse_json(proc.out, "explore")
        if doc is None:
            return problems
        problems = pbchecks.validate(doc)
        configs = doc.get("summary", {}).get("configurations", [])
        if len(configs) != len(EXPLORE_TEAMS):
            problems.append(f"{len(configs)} configurations")
        for c in configs:
            problems += pbchecks.explore_problems(c["verdicts"],
                                                  self.allowed[name])
        want = 1 if any(c["failed"] for c in configs) else 0
        if proc.code != want:
            problems.append(f"exit code {proc.code}, expected {want}")
        return problems


# ---------------------------------------------------------------------------
# fuzz-campaign
# ---------------------------------------------------------------------------


class FuzzCampaign:
    """``parcoach fuzz --coverage --jobs 1`` campaigns: many tiny generated
    programs through the same static and runtime layers, and the only
    workload through ``fuzz/`` (generator, mutator, oracle, coverage
    waves).

    The timed campaign runs as a job (``pbjobs.fuzz_campaign``: the CLI's
    campaign in one fresh process, timed seed by seed); the same campaign
    through ``parcoach fuzz --json`` must print the same bytes.  The timed
    campaign always fuzzes the same population (base seed
    ``FUZZ_TIMED_SEED``).  A campaign's cost depends mostly on which
    programs its seeds generate: 120 seeds took 3.9 to 8.9 s for four base
    seeds on one machine, so a seed-dependent population would measure the
    population, not the code.  The workload seed picks a further, untimed
    campaign whose outputs are checked like the timed ones."""

    def __init__(self, bench: Bench) -> None:
        self.b = bench

    def prepare(self, base: str) -> None:
        self.models = self.b.write_fig1_models(base)

    def check(self, proc: Proc, what: str,
              first: Optional[str] = None) -> None:
        problems = pbchecks.fuzz_problems(proc.out, first)
        if proc.code not in (0, 1):
            problems.append(f"exit code {proc.code}")
        self.b.check(problems, what)

    def cli(self, seeds: int, base_seed: int, m: Measured,
            traced: bool) -> Proc:
        return self.b.run(["fuzz", "--coverage", "--seeds", str(seeds),
                           "--seed", str(base_seed), "--jobs", "1",
                           "--json"], m, traced)

    def measure(self, traced: bool) -> Measured:
        b, m = self.b, Measured()
        seeds = FUZZ_SEEDS * b.scale
        result, timed = b.job("fuzz-campaign", {
            "seeds": seeds, "base_seed": FUZZ_TIMED_SEED}, m, traced)
        calibration = result["calibration"]
        latencies = [t * pbstats.speed(calibration[i:i + 2])
                     for i, t in enumerate(result["latencies"])]
        again = self.cli(seeds, FUZZ_TIMED_SEED, m, traced)
        self.check(again, "fuzz campaign", result["json"])
        m.outputs["fuzz"] = result["json"]
        seeded = self.cli(FUZZ_CHECK_SEEDS, FUZZ_CHECK_STRIDE * b.seed, m,
                          traced)
        self.check(seeded, "fuzz seeded campaign")
        m.outputs["fuzz:seeded"] = seeded.out
        rss, quick = [timed.rss_mb, again.rss_mb, seeded.rss_mb], []
        for _ in range(6):
            proc = self.cli(1, FUZZ_TIMED_SEED, m, traced)
            self.check(proc, "fuzz one seed")
            quick.append(proc.ref_s)
            rss.append(proc.rss_mb)
        _, proc = b.fig1(self.models, traced, m)
        m.ref_s = timed.ref_s + again.ref_s + sum(quick) + proc.ref_s
        coverage = json.loads(result["json"])["summary"].get("coverage", {})
        m.extra["fuzz.signatures"] = coverage.get("signatures", 0)
        m.extra["fuzz.distinct_findings"] = coverage.get(
            "distinct_findings", 0)
        _latency_metrics(m, [1000.0 * s for s in latencies])
        m.metrics.update({
            "oneshot_quick_s": pbstats.median(quick),
            "oneshot_heavy_s": timed.ref_s,
            "work_per_s": len(latencies) / sum(latencies),
            "peak_rss_mb": max(rss),
        })
        return m


WORKLOADS = {
    "analyze-files": AnalyzeFiles,
    "project-edit": ProjectEdit,
    "explore-sweep": ExploreSweep,
    "fuzz-campaign": FuzzCampaign,
}


# ---------------------------------------------------------------------------
# per-layer metrics from a traced pass
# ---------------------------------------------------------------------------


def layer_metrics(traced: Measured, untraced: Measured
                  ) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of the traced pass: self times (``_s``), counts
    and ratios.  The ``fuzz.oracle.*`` times are inclusive: they split the
    oracle into its phases, whose insides the other layers already
    count."""
    own: Dict[str, float] = {}
    inc: Dict[str, float] = {}
    spans_n: Dict[str, int] = {}
    counts: Dict[str, float] = {}
    imports = []
    for doc in traced.reports:
        for table, part in ((own, pbtrace.self_times(doc["spans"])),
                            (inc, pbtrace.inclusive_times(doc["spans"])),
                            (spans_n, pbtrace.span_counts(doc["spans"])),
                            (counts, doc["counts"])):
            for key, value in part.items():
                table[key] = table.get(key, 0) + value
        imports.append(doc["import_s"])

    def s(name: str) -> float:
        return own.get(name, 0.0)

    def n(name: str) -> float:
        return counts.get(name, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    session = traced.extra.get("session", {}).get("summary", {}).get(
        "stats", {}).get("engine", {})
    tokens = n("minilang.tokens")
    runs_s = inc.get("runtime.run", 0.0)
    hits, misses = n("engine.hits"), n("engine.misses")
    loads = spans_n.get("store.load", 0)
    nondet = sum(1 for key, value in untraced.loose.items()
                 if traced.loose.get(key) != value)
    sec, cnt = "s", "count"
    return {
        "cli.import_s": (pbstats.median(imports) if imports else 0.0, sec),
        "minilang.tokenize_s": (s("minilang.tokenize"), sec),
        "minilang.parse_s": (s("minilang.parse"), sec),
        "minilang.check_s": (s("minilang.check"), sec),
        "minilang.tokens": (tokens, cnt),
        "minilang.tokens_per_s": (ratio(tokens, s("minilang.tokenize")),
                                  "1/s"),
        "sites.index_s": (s("sites.index"), sec),
        "callgraph.graph_s": (s("callgraph.graph"), sec),
        "callgraph.contexts_s": (s("callgraph.contexts"), sec),
        "callgraph.summaries_s": (s("callgraph.summaries"), sec),
        "callgraph.context_words": (n("callgraph.context_words"), cnt),
        "cfg.build_s": (s("cfg.build"), sec),
        "cfg.builds": (spans_n.get("cfg.build", 0), cnt),
        "cfg.dominators_s": (s("cfg.dominators"), sec),
        "parallelism.words_s": (s("parallelism.words"), sec),
        "phase1.monothread_s": (s("phase1.monothread"), sec),
        "phase2.concurrency_s": (s("phase2.concurrency"), sec),
        "phase3.sequence_s": (s("phase3.sequence"), sec),
        "driver.function_analyses": (
            spans_n.get("driver.function_analysis", 0), cnt),
        "report.build_s": (s("report.build"), sec),
        "report.render_s": (s("report.render"), sec),
        "instrument.transform_s": (s("instrument.transform"), sec),
        "instrument.checks": (n("instrument.checks"), cnt),
        "opt.middle_end_s": (s("opt.middle_end"), sec),
        "engine.analyze_s": (s("engine.analyze"), sec),
        "engine.hits": (hits, cnt),
        "engine.misses": (misses, cnt),
        "engine.hit_rate": (ratio(hits, hits + misses), "ratio"),
        "session.update_s": (s("session.update"), sec),
        "session.reanalyzed_per_edit": (
            traced.extra.get("reanalyzed_per_edit", 0.0), "ratio"),
        "session.line_patches": (session.get("line_patches", 0), cnt),
        "session.assembly_reuses": (session.get("assembly_reuses", 0), cnt),
        "session.edges_recomputed": (session.get("edges_recomputed", 0), cnt),
        "session.graph_rebuilds": (session.get("graph_rebuilds", 0), cnt),
        "store.save_s": (s("store.save"), sec),
        "store.load_s": (s("store.load"), sec),
        "store.saves": (spans_n.get("store.save", 0), cnt),
        "store.loads": (loads, cnt),
        "store.hit_rate": (ratio(n("store.hits"), loads), "ratio"),
        "store.bytes": (traced.extra.get("store.bytes", 0), "B"),
        "runtime.runs": (spans_n.get("runtime.run", 0), cnt),
        "runtime.run_s": (s("runtime.run"), sec),
        "runtime.decisions": (n("runtime.decisions"), cnt),
        "runtime.decisions_per_s": (ratio(n("runtime.decisions"), runs_s),
                                    "1/s"),
        "runtime.threads_started": (n("runtime.threads_started"), cnt),
        "explore.schedules": (n("explore.schedules"), cnt),
        "explore.dpor_s": (s("explore.config"), sec),
        "explore.expanded": (n("explore.expanded"), cnt),
        "explore.sleep_skips": (n("explore.sleep_skips"), cnt),
        "explore.fingerprint_prunes": (n("explore.fingerprint_prunes"), cnt),
        "explore.minimize_s": (s("explore.minimize"), sec),
        "explore.minimize_replays": (n("explore.minimize_replays"), cnt),
        "explore.nondeterministic_configs": (nondet, cnt),
        "fuzz.generate_s": (s("fuzz.generate"), sec),
        "fuzz.mutate_s": (s("fuzz.mutate"), sec),
        "fuzz.oracle.static_s": (inc.get("fuzz.oracle.static", 0.0), sec),
        "fuzz.oracle.raw_run_s": (inc.get("fuzz.oracle.raw_run", 0.0), sec),
        "fuzz.oracle.instrumented_run_s": (
            inc.get("fuzz.oracle.instrumented_run", 0.0), sec),
        "fuzz.oracle.sweep_s": (inc.get("fuzz.oracle.sweep", 0.0), sec),
        "fuzz.coverage_s": (s("fuzz.coverage"), sec),
        "fuzz.signatures": (traced.extra.get("fuzz.signatures", 0), cnt),
        "fuzz.distinct_findings": (
            traced.extra.get("fuzz.distinct_findings", 0), cnt),
        "trace.overhead_pct": (
            100.0 * (traced.ref_s / untraced.ref_s - 1.0), "%"),
    }
