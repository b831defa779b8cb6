"""Tree-walking interpreter for minilang on simmpi + simomp.

One interpreter instance runs per MPI rank; each OpenMP team thread
executes interpreter code re-entrantly with its own :class:`ExecCtx`.
Everything that can reach a blocking runtime primitive is a generator —
statements, expressions, calls — so a logical thread is one ``yield from``
chain that parks wherever the scheduler switches threads.  Loop iterations
and function calls tick the scheduler's step budget.  MPI calls route
through the rank's :class:`MpiProcess` (thread-level guard + collective
engine); the inserted ``PARCOACH_*`` calls route to
:class:`~repro.runtime.checks.CheckState`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional

from ...minilang import ast_nodes as A
from ...mpi.collectives import COLLECTIVES
from ...util.brepr import bounded_repr
from ..checks import CheckState
from ..simmpi.process import MpiProcess
from ..simomp import Team
from .env import Cell, Env, InterpError

_MAX_CALL_DEPTH = 200

_P2P = ("MPI_Send", "MPI_Recv", "MPI_Sendrecv")


class _BreakEx(Exception):
    pass


class _ContinueEx(Exception):
    pass


class _ReturnEx(Exception):
    def __init__(self, value: Any) -> None:
        super().__init__()
        self.value = value


@dataclass
class ExecCtx:
    """Per-thread execution context."""

    team: Optional[Team] = None
    tid: int = 0
    depth: int = 0  # nesting depth of parallel regions
    call_depth: int = 0
    #: construct uid -> how many times *this thread* encountered it
    #: (drives single/sections claim generations).
    encounters: Dict[int, int] = field(default_factory=dict)

    def nested(self, team: Team, tid: int) -> "ExecCtx":
        return ExecCtx(team=team, tid=tid, depth=self.depth + 1,
                       call_depth=self.call_depth, encounters={})

    def next_encounter(self, uid: int) -> int:
        n = self.encounters.get(uid, 0)
        self.encounters[uid] = n + 1
        return n


class Interpreter:
    def __init__(self, program: A.Program, proc: MpiProcess,
                 check_state: Optional[CheckState] = None,
                 num_threads: int = 2) -> None:
        self.program = program
        self.proc = proc
        self.world = proc.world
        self.checks = check_state or CheckState(proc)
        self.num_threads = num_threads
        self.funcs = {f.name: f for f in program.funcs}
        self._tick = self.world.scheduler.tick
        # Shared-variable access tracking for schedule exploration:
        # reads/writes of cells visible to a team of >1 threads feed the
        # running segment's footprint (and the state fingerprint).  Objects
        # (cells, arrays) are labeled lazily in first-access order —
        # deterministic within one scheduled run, which is the only scope
        # footprints are ever compared in.
        self._labels: Dict[int, str] = {}
        self._label_objs: List[tuple] = []  # (label, obj) — also keeps refs
        self.world.register_fingerprint_provider(
            f"interp:r{proc.rank}", self._shared_state)

    # -- shared-access tracking ----------------------------------------------

    @staticmethod
    def _tracking(ctx: ExecCtx) -> bool:
        return ctx.team is not None and ctx.team.size > 1

    def _label(self, obj: object, name: str) -> str:
        key = id(obj)
        label = self._labels.get(key)
        if label is None:
            label = f"r{self.proc.rank}:{name}#{len(self._labels)}"
            self._labels[key] = label
            self._label_objs.append((label, obj))
        return label

    def _shared_state(self) -> tuple:
        """Values of every tracked shared object, for state fingerprints.
        ``bounded_repr`` digests huge integers (a fuzzed ``x = x * x``
        loop overflows CPython's 4300-digit int→str limit and would kill
        the run mid-fingerprint) to bit length + low bits — still
        deterministic and collision-poor."""
        return tuple(sorted(
            (label, bounded_repr(obj.value if isinstance(obj, Cell)
                                 else obj))
            for label, obj in self._label_objs
        ))

    # -- entry -------------------------------------------------------------------

    def run(self, entry: str = "main", args: tuple = ()) -> Generator:
        if entry not in self.funcs:
            raise InterpError(f"no entry function {entry!r}")
        return (yield from self.call_function(self.funcs[entry], list(args),
                                              ExecCtx()))

    def call_function(self, func: A.FuncDef, args: List[Any],
                      ctx: ExecCtx) -> Generator:
        self._tick()
        if ctx.call_depth >= _MAX_CALL_DEPTH:
            raise InterpError(f"call depth exceeded in {func.name}")
        if len(args) != len(func.params):
            raise InterpError(
                f"{func.name} expects {len(func.params)} args, got {len(args)}"
            )
        env = Env()
        for param, value in zip(func.params, args):
            env.declare(param.name, value)
        inner = ExecCtx(team=ctx.team, tid=ctx.tid, depth=ctx.depth,
                        call_depth=ctx.call_depth + 1,
                        encounters=ctx.encounters)
        try:
            yield from self.exec_block(func.body, env.child(), inner)
        except _ReturnEx as ret:
            return ret.value
        return None

    # -- statements -----------------------------------------------------------------

    def exec_block(self, block: A.Block, env: Env, ctx: ExecCtx) -> Generator:
        for stmt in block.stmts:
            yield from self.exec_stmt(stmt, env, ctx)

    def exec_stmt(self, stmt: A.Stmt, env: Env, ctx: ExecCtx) -> Generator:
        self.world.check_abort()
        if isinstance(stmt, A.VarDecl):
            if stmt.array_size is not None:
                size = int((yield from self.eval(stmt.array_size, env, ctx)))
                init = 0.0 if stmt.type_name == "float" else 0
                env.declare(stmt.name, [init] * size)
            elif stmt.init is not None:
                env.declare(stmt.name, (yield from self.eval(stmt.init, env, ctx)))
            else:
                env.declare(stmt.name, _default(stmt.type_name))
        elif isinstance(stmt, A.Assign):
            yield from self._assign(stmt, env, ctx)
        elif isinstance(stmt, A.ExprStmt):
            yield from self.eval(stmt.expr, env, ctx)
        elif isinstance(stmt, A.Block):
            yield from self.exec_block(stmt, env.child(), ctx)
        elif isinstance(stmt, A.If):
            if (yield from self.eval(stmt.cond, env, ctx)):
                yield from self.exec_block(stmt.then_body, env.child(), ctx)
            elif stmt.else_body is not None:
                yield from self.exec_block(stmt.else_body, env.child(), ctx)
        elif isinstance(stmt, A.While):
            while (yield from self.eval(stmt.cond, env, ctx)):
                self._tick()
                try:
                    yield from self.exec_block(stmt.body, env.child(), ctx)
                except _BreakEx:
                    break
                except _ContinueEx:
                    continue
        elif isinstance(stmt, A.For):
            yield from self._exec_for(stmt, env, ctx)
        elif isinstance(stmt, A.Return):
            value = None
            if stmt.value is not None:
                value = yield from self.eval(stmt.value, env, ctx)
            raise _ReturnEx(value)
        elif isinstance(stmt, A.Break):
            raise _BreakEx()
        elif isinstance(stmt, A.Continue):
            raise _ContinueEx()
        elif isinstance(stmt, A.OmpStmt):
            yield from self._exec_omp(stmt, env, ctx)
        else:
            raise InterpError(f"cannot execute {type(stmt).__name__}")

    def _exec_for(self, stmt: A.For, env: Env, ctx: ExecCtx) -> Generator:
        loop_env = env.child()
        if stmt.init is not None:
            yield from self.exec_stmt(stmt.init, loop_env, ctx)
        while stmt.cond is None or (yield from self.eval(stmt.cond, loop_env, ctx)):
            self._tick()
            try:
                yield from self.exec_block(stmt.body, loop_env.child(), ctx)
            except _BreakEx:
                break
            except _ContinueEx:
                pass
            if stmt.step is not None:
                yield from self.exec_stmt(stmt.step, loop_env, ctx)

    def _assign(self, stmt: A.Assign, env: Env, ctx: ExecCtx) -> Generator:
        value = yield from self.eval(stmt.value, env, ctx)
        target = stmt.target
        if isinstance(target, A.VarRef):
            cell = env.cell(target.name)
            if stmt.op == "=":
                cell.value = value
            else:
                if self._tracking(ctx):
                    self.world.note_observation(
                        ("load", target.name, cell.value))
                cell.value = _apply_compound(stmt.op, cell.value, value)
            if self._tracking(ctx):
                self.world.note_access(self._label(cell, target.name), "w")
        elif isinstance(target, A.ArrayRef):
            arr = env.get(target.name)
            index = int((yield from self.eval(target.index, env, ctx)))
            if not isinstance(arr, list):
                raise InterpError(f"{target.name} is not an array")
            if not (0 <= index < len(arr)):
                raise InterpError(
                    f"index {index} out of bounds for {target.name}[{len(arr)}]"
                )
            if stmt.op == "=":
                arr[index] = value
            else:
                if self._tracking(ctx):
                    self.world.note_observation(
                        ("load", target.name, index, arr[index]))
                arr[index] = _apply_compound(stmt.op, arr[index], value)
            if self._tracking(ctx):
                self.world.note_access(self._label(arr, target.name), "w")
        else:
            raise InterpError("bad assignment target")

    # -- OpenMP ----------------------------------------------------------------------

    def _exec_omp(self, stmt: A.OmpStmt, env: Env, ctx: ExecCtx) -> Generator:
        if isinstance(stmt, A.OmpBarrier):
            if ctx.team is not None:
                yield from ctx.team.barrier()
            return

        if isinstance(stmt, A.OmpParallel):
            size = self.num_threads
            if stmt.num_threads is not None:
                size = max(1, int((yield from self.eval(stmt.num_threads, env, ctx))))
            team = Team(self.world, self.proc, size)
            private_init = {
                name: (env.get(name) if env.is_declared(name) else 0)
                for name in stmt.private
            }

            def body(tid: int) -> Generator:
                tctx = ctx.nested(team, tid)
                tenv = env.child()
                for name, value in private_init.items():
                    tenv.declare(name, value)
                yield from self.exec_block(stmt.body, tenv, tctx)
                yield from team.barrier()  # the region's implicit join barrier

            yield from team.run(body)
            return

        if isinstance(stmt, A.OmpSingle):
            team, tid = ctx.team, ctx.tid
            if team is None:
                yield from self.exec_block(stmt.body, env.child(), ctx)
                return
            encounter = ctx.next_encounter(stmt.uid)
            if (yield from team.claim(stmt.uid, encounter, tid)):
                yield from self.exec_block(stmt.body, env.child(), ctx)
            if not stmt.nowait:
                yield from team.barrier()
            return

        if isinstance(stmt, A.OmpMaster):
            if ctx.team is None or ctx.tid == 0:
                yield from self.exec_block(stmt.body, env.child(), ctx)
            return

        if isinstance(stmt, A.OmpCritical):
            lock = self.proc.critical_lock(stmt.name or "<anon>")
            yield from lock.acquire()
            try:
                yield from self.exec_block(stmt.body, env.child(), ctx)
            finally:
                lock.release()
            return

        if isinstance(stmt, A.OmpTask):
            # Executed inline by the encountering thread (undeferred task).
            yield from self.exec_block(stmt.body, env.child(), ctx)
            return

        if isinstance(stmt, A.OmpFor):
            yield from self._exec_omp_for(stmt, env, ctx)
            return

        if isinstance(stmt, A.OmpSections):
            team, tid = ctx.team, ctx.tid
            for i, section in enumerate(stmt.sections):
                if team is None or team.section_owner(i) == tid:
                    yield from self.exec_block(section, env.child(), ctx)
            if team is not None and not stmt.nowait:
                yield from team.barrier()
            return

        raise InterpError(f"cannot execute OpenMP node {type(stmt).__name__}")

    def _exec_omp_for(self, stmt: A.OmpFor, env: Env, ctx: ExecCtx) -> Generator:
        loop = stmt.loop
        if not isinstance(loop.init, A.VarDecl) or loop.cond is None or loop.step is None:
            raise InterpError("omp for requires a canonical for loop")
        var_name = loop.init.name
        start = 0
        if loop.init.init is not None:
            start = yield from self.eval(loop.init.init, env, ctx)
        if not isinstance(loop.cond, A.BinOp) or loop.cond.op not in ("<", "<=", ">", ">="):
            raise InterpError("omp for condition must compare the loop variable")
        bound = yield from self.eval(loop.cond.right, env, ctx)
        if not isinstance(loop.step, A.Assign) or loop.step.op not in ("+=", "-="):
            raise InterpError("omp for step must be += or -=")
        step = yield from self.eval(loop.step.value, env, ctx)
        if loop.step.op == "-=":
            step = -step
        if step == 0:
            raise InterpError("omp for step must be nonzero")

        # Normalized iteration values for this thread's static chunk.
        values: List[Any] = []
        v = start
        if step > 0:
            while (v < bound) if loop.cond.op == "<" else (v <= bound):
                values.append(v)
                v += step
        else:
            while (v > bound) if loop.cond.op == ">" else (v >= bound):
                values.append(v)
                v += step

        team = ctx.team
        chunk = team.static_chunk(ctx.tid, len(values)) if team is not None else range(len(values))
        for i in chunk:
            self._tick()
            iter_env = env.child()
            iter_env.declare(var_name, values[i])
            try:
                yield from self.exec_block(loop.body, iter_env, ctx)
            except _ContinueEx:
                continue
        if team is not None and not stmt.nowait:
            yield from team.barrier()

    # -- expressions -----------------------------------------------------------------------

    def eval(self, expr: A.Expr, env: Env, ctx: ExecCtx) -> Generator:
        if isinstance(expr, (A.IntLit, A.FloatLit, A.BoolLit, A.StringLit)):
            return expr.value
        if isinstance(expr, A.VarRef):
            if self._tracking(ctx):
                cell = env.cell(expr.name)
                self.world.note_access(self._label(cell, expr.name), "r")
                self.world.note_observation(("load", expr.name, cell.value))
                return cell.value
            return env.get(expr.name)
        if isinstance(expr, A.ArrayRef):
            arr = env.get(expr.name)
            index = int((yield from self.eval(expr.index, env, ctx)))
            if not isinstance(arr, list):
                raise InterpError(f"{expr.name} is not an array")
            if not (0 <= index < len(arr)):
                raise InterpError(
                    f"index {index} out of bounds for {expr.name}[{len(arr)}]"
                )
            value = arr[index]
            if self._tracking(ctx):
                self.world.note_access(self._label(arr, expr.name), "r")
                self.world.note_observation(("load", expr.name, index, value))
            return value
        if isinstance(expr, A.UnaryOp):
            value = yield from self.eval(expr.operand, env, ctx)
            if expr.op == "-":
                return -value
            if expr.op == "!":
                return not value
            raise InterpError(f"unknown unary {expr.op}")
        if isinstance(expr, A.BinOp):
            return (yield from self._eval_binop(expr, env, ctx))
        if isinstance(expr, A.Call):
            return (yield from self._eval_call(expr, env, ctx))
        raise InterpError(f"cannot evaluate {type(expr).__name__}")

    def _eval_binop(self, expr: A.BinOp, env: Env, ctx: ExecCtx) -> Generator:
        op = expr.op
        if op == "&&":
            return (bool((yield from self.eval(expr.left, env, ctx)))
                    and bool((yield from self.eval(expr.right, env, ctx))))
        if op == "||":
            return (bool((yield from self.eval(expr.left, env, ctx)))
                    or bool((yield from self.eval(expr.right, env, ctx))))
        left = yield from self.eval(expr.left, env, ctx)
        right = yield from self.eval(expr.right, env, ctx)
        return _binop(op, left, right)

    # -- calls ------------------------------------------------------------------------------

    def _eval_call(self, call: A.Call, env: Env, ctx: ExecCtx) -> Generator:
        name = call.name
        if name in COLLECTIVES or name in _P2P:
            return (yield from self._exec_mpi(call, env, ctx))
        func = self.funcs.get(name)
        if func is None and name not in _BUILTIN_IMPL \
                and name not in _CHECK_BUILTINS:
            raise InterpError(f"call to unknown function {name!r}")
        args = []
        for arg in call.args:
            args.append((yield from self.eval(arg, env, ctx)))
        if name in _BUILTIN_IMPL:
            return _BUILTIN_IMPL[name](self, ctx, args)
        if name == "PARCOACH_CC":
            return (yield from self.checks.cc(int(args[0]), str(args[1]),
                                              int(args[2])))
        if name == "PARCOACH_ENTER":
            return (yield from self.checks.enter(int(args[0]), str(args[1]),
                                                 call.line))
        if name == "PARCOACH_EXIT":
            return (yield from self.checks.exit(int(args[0])))
        return (yield from self.call_function(func, args, ctx))

    # -- MPI ------------------------------------------------------------------------------------

    def _store(self, expr: A.Expr, value: Any, env: Env, ctx: ExecCtx,
               what: str) -> Generator:
        """Write an MPI result back through an lvalue (variable or array
        element)."""
        if isinstance(expr, A.VarRef):
            cell = env.cell(expr.name)
            cell.value = value
            if self._tracking(ctx):
                self.world.note_access(self._label(cell, expr.name), "w")
            return
        if isinstance(expr, A.ArrayRef):
            arr = env.get(expr.name)
            index = int((yield from self.eval(expr.index, env, ctx)))
            if not isinstance(arr, list) or not (0 <= index < len(arr)):
                raise InterpError(
                    f"{what}: bad array element {expr.name}[{index}]"
                )
            arr[index] = value
            if self._tracking(ctx):
                self.world.note_access(self._label(arr, expr.name), "w")
            return
        raise InterpError(f"{what} buffer argument must be an lvalue")

    def _exec_mpi(self, call: A.Call, env: Env, ctx: ExecCtx) -> Generator:
        name = call.name
        proc = self.proc
        line = call.line
        a = call.args
        ev = self.eval

        if name in ("MPI_Barrier", "MPI_Finalize"):
            return (yield from proc.collective(name, (), None, line=line))
        if name in ("MPI_Bcast", "MPI_Scatter"):
            # MPI_Bcast(buf, root) / MPI_Scatter(send, recv, root)
            root_arg, out = (a[1], a[0]) if name == "MPI_Bcast" else (a[2], a[1])
            root = int((yield from ev(root_arg, env, ctx)))
            payload = (yield from ev(a[0], env, ctx)) if proc.rank == root else None
            result = yield from proc.collective(name, (root,), payload, line=line)
            yield from self._store(out, result, env, ctx, name)
            return None
        if name == "MPI_Reduce":
            send = yield from ev(a[0], env, ctx)
            red = yield from self._red_op(a[2], env, ctx)
            root = int((yield from ev(a[3], env, ctx)))
            result = yield from proc.collective(name, (root, red), send, line=line)
            if proc.rank == root:
                yield from self._store(a[1], result, env, ctx, name)
            return None
        if name == "MPI_Gather":
            send = yield from ev(a[0], env, ctx)
            root = int((yield from ev(a[2], env, ctx)))
            result = yield from proc.collective(name, (root,), send, line=line)
            if proc.rank == root:
                yield from self._store(a[1], result, env, ctx, name)
            return None
        if name in ("MPI_Allgather", "MPI_Alltoall"):
            send = yield from ev(a[0], env, ctx)
            result = yield from proc.collective(name, (), send, line=line)
            yield from self._store(a[1], result, env, ctx, name)
            return None
        if name in ("MPI_Allreduce", "MPI_Scan", "MPI_Exscan"):
            send = yield from ev(a[0], env, ctx)
            red = yield from self._red_op(a[2], env, ctx)
            result = yield from proc.collective(name, (red,), send, line=line)
            if name == "MPI_Allreduce" or result is not None:
                yield from self._store(a[1], result, env, ctx, name)
            return None
        if name == "MPI_Reduce_scatter_block":
            red = yield from self._red_op(a[2], env, ctx)
            send = yield from ev(a[0], env, ctx)
            result = yield from proc.collective(name, (red,), send, line=line)
            yield from self._store(a[1], result, env, ctx, name)
            return None
        if name in ("MPI_Send", "MPI_Sendrecv"):
            value = yield from ev(a[0], env, ctx)
            dest = int((yield from ev(a[1], env, ctx)))
            stag = int((yield from ev(a[2], env, ctx)))
            if name == "MPI_Sendrecv":
                source = int((yield from ev(a[4], env, ctx)))
                rtag = int((yield from ev(a[5], env, ctx)))
            yield from proc.send(dest, stag, value, line=line)
            if name == "MPI_Send":
                return None
            buf = a[3]
        elif name == "MPI_Recv":
            source = int((yield from ev(a[1], env, ctx)))
            rtag = int((yield from ev(a[2], env, ctx)))
            buf = a[0]
        else:
            raise InterpError(f"unhandled MPI call {name}")
        received = yield from proc.recv(source, rtag, line=line)
        yield from self._store(buf, received, env, ctx, name)
        return None

    def _red_op(self, expr: A.Expr, env: Env, ctx: ExecCtx) -> Generator:
        if isinstance(expr, A.StringLit):
            return expr.value
        value = yield from self.eval(expr, env, ctx)
        if isinstance(value, str):
            return value
        raise InterpError("reduction op must be a string: 'sum'|'prod'|'min'|'max'")


def _default(type_name: str) -> Any:
    if type_name == "float":
        return 0.0
    if type_name == "bool":
        return False
    return 0


def _apply_compound(op: str, old: Any, value: Any) -> Any:
    if op == "+=":
        return old + value
    if op == "-=":
        return old - value
    if op == "*=":
        return old * value
    if op == "/=":
        if value == 0:
            raise InterpError("division by zero")
        if isinstance(old, int) and isinstance(value, int):
            return _c_idiv(old, value)
        return old / value
    raise InterpError(f"unknown compound op {op}")


def _c_idiv(left: int, right: int) -> int:
    """C-style integer division (truncation toward zero) in exact integer
    arithmetic — ``int(left / right)`` detours through a float, which both
    loses precision and overflows once the program computes big values
    (found by ``parcoach fuzz``)."""
    q = abs(left) // abs(right)
    return -q if (left < 0) != (right < 0) else q


def _c_imod(left: int, right: int) -> int:
    """C-style remainder (sign of the dividend) in exact integer
    arithmetic; ``math.fmod`` overflows on big ints the same way."""
    m = abs(left) % abs(right)
    return -m if left < 0 else m


# --------------------------------------------------------------------------------
# Builtins
# --------------------------------------------------------------------------------


def _fmt(value: Any) -> str:
    """Render one print argument.  Astronomically large ints (a fuzz-grown
    ``x *= x`` loop) would trip CPython's int-to-str digit limit — render a
    deterministic magnitude summary instead of crashing the run."""
    if isinstance(value, int) and not isinstance(value, bool):
        try:
            return str(value)
        except ValueError:  # exceeds sys.get_int_max_str_digits()
            sign = "-" if value < 0 else ""
            return f"{sign}<int ~10^{value.bit_length() * 30103 // 100000}>"
    return str(value)


def _binop(op: str, left: Any, right: Any) -> Any:
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise InterpError("division by zero")
        if isinstance(left, int) and isinstance(right, int):
            return _c_idiv(left, right)
        return left / right
    if op == "%":
        if right == 0:
            raise InterpError("modulo by zero")
        if isinstance(left, int) and isinstance(right, int):
            return _c_imod(left, right)
        return math.fmod(left, right)
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == ">":
        return left > right
    if op == "<=":
        return left <= right
    if op == ">=":
        return left >= right
    raise InterpError(f"unknown operator {op}")


def _b_work(n: Any) -> int:
    x = 0
    for _ in range(max(0, int(n))):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
    return x


#: Non-blocking builtins and MPI queries: ``impl(interp, ctx, args)`` on the
#: already-evaluated argument values.
_BUILTIN_IMPL: Dict[str, Callable[[Interpreter, ExecCtx, List[Any]], Any]] = {
    "print": lambda i, x, a: i.proc.output.append(" ".join(map(_fmt, a))),
    "work": lambda i, x, a: _b_work(a[0]),
    "omp_get_thread_num": lambda i, x, a: x.tid,
    "omp_get_num_threads": lambda i, x, a: (x.team.size if x.team else 1),
    "omp_get_max_threads": lambda i, x, a: i.num_threads,
    "abs": lambda i, x, a: abs(a[0]),
    "min": lambda i, x, a: min(a[0], a[1]),
    "max": lambda i, x, a: max(a[0], a[1]),
    "sqrt": lambda i, x, a: math.sqrt(a[0]),
    "mod": lambda i, x, a: a[0] % a[1],
    "MPI_Comm_rank": lambda i, x, a: i.proc.rank,
    "MPI_Comm_size": lambda i, x, a: i.world.nprocs,
    "MPI_Wtime": lambda i, x, a: time.perf_counter(),
    "MPI_Init": lambda i, x, a: i.proc.init(),
    "MPI_Init_thread": lambda i, x, a: i.proc.init_thread(int(a[0])),
}

#: The inserted verification calls; they block (collectives, SchedPoints).
_CHECK_BUILTINS = ("PARCOACH_CC", "PARCOACH_ENTER", "PARCOACH_EXIT")
