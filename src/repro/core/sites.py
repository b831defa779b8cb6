"""Collective call sites — the unit all three analysis phases operate on.

A *site* is either a direct MPI collective call statement or a call to a
user function that may (transitively) execute collectives; the latter lets
the per-function analyses stay intraprocedural, PARCOACH-style, while still
covering collectives reached through calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..minilang import ast_nodes as A
from ..mpi.collectives import is_collective


@dataclass(frozen=True)
class ExprCallSite:
    """A call that is *not* a standalone call statement (it sits inside an
    initializer, an assignment, a condition, an argument list, ...).

    Such calls have no ``CALL`` basic block and no :class:`CollectiveSite`,
    so the intraprocedural phases cannot see them; the interprocedural layer
    (:mod:`repro.core.callgraph`) anchors them on the nearest enclosing
    statement instead.
    """

    call: A.Call
    #: uids of the enclosing statements, innermost first (the anchor chain —
    #: the first uid with a CFG block is the call's sequence point).
    stmt_uids: Tuple[int, ...]
    #: Pre-order position of the innermost enclosing statement inside the
    #: function AST (structural — stable across re-parses, unlike uids; the
    #: engine keys its cache on this).
    stmt_pos: int
    line: int


@dataclass
class ProgramIndex:
    """One-walk-per-function index of call expressions and call statements
    (every analysis that needs "all calls of f" reads this instead of
    re-walking the AST)."""

    #: function name -> every Call node in its body.
    calls: Dict[str, List[A.Call]] = field(default_factory=dict)
    #: function name -> statement-level calls (ExprStmt wrapping a Call).
    call_stmts: Dict[str, List[A.ExprStmt]] = field(default_factory=dict)
    #: function name -> calls embedded in expressions (no CALL block).
    expr_calls: Dict[str, List[ExprCallSite]] = field(default_factory=dict)


#: One per-function index memo entry: (func ref, calls, call_stmts,
#: expr_calls).  The func reference guards against id() reuse after GC.
_IndexEntry = Tuple[A.FuncDef, List[A.Call], List[A.ExprStmt],
                    List[ExprCallSite]]


def index_function(func: A.FuncDef) -> Tuple[List[A.Call], List[A.ExprStmt],
                                             List[ExprCallSite]]:
    """Index one function: every call node, the statement-level calls, and
    the expression-embedded calls with their anchor chains.  Pure per
    function — the results only depend on the function's own AST, which is
    what makes the per-function memo of :func:`index_program` sound."""
    calls: List[A.Call] = []
    stmts: List[A.ExprStmt] = []
    expr_calls: List[ExprCallSite] = []
    # Pre-order walk mirroring Node.walk() that counts positions and keeps
    # the chain of enclosing statements (innermost last): entering a
    # statement pushes it and leaves a ``None`` marker under its children
    # that pops it again once they are done.
    enclosing: List[A.Stmt] = []
    stack: List[Optional[A.Node]] = [func]
    pos = 0
    stmt_pos: Dict[int, int] = {}
    while stack:
        node = stack.pop()
        if node is None:
            enclosing.pop()
            continue
        if isinstance(node, A.Stmt):
            stmt_pos[node.uid] = pos
            enclosing.append(node)
            stack.append(None)
        elif isinstance(node, A.Call):
            calls.append(node)
            if enclosing:
                stmt = enclosing[-1]
                if isinstance(stmt, A.ExprStmt) and stmt.expr is node:
                    stmts.append(stmt)
                else:
                    expr_calls.append(ExprCallSite(
                        call=node,
                        stmt_uids=tuple(s.uid for s in reversed(enclosing)),
                        stmt_pos=stmt_pos[stmt.uid],
                        line=node.line or stmt.line,
                    ))
        pos += 1
        children = node.children()
        if children:
            stack.extend(reversed(children))
    return calls, stmts, expr_calls


def index_program(program: A.Program,
                  memo: Optional[Dict[int, _IndexEntry]] = None
                  ) -> ProgramIndex:
    """Index every function of ``program``.

    ``memo`` (``id(func)`` → entry) makes re-indexing incremental: a
    function object already indexed — the session layer reuses unchanged
    ``FuncDef`` objects across re-parses — costs a dict lookup instead of a
    tree walk.  Callers owning a memo are responsible for bounding it."""
    index = ProgramIndex()
    for func in program.funcs:
        if memo is not None:
            entry = memo.get(id(func))
            if entry is not None and entry[0] is func:
                _f, calls, stmts, expr_calls = entry
                index.calls[func.name] = calls
                index.call_stmts[func.name] = stmts
                index.expr_calls[func.name] = expr_calls
                continue
        calls, stmts, expr_calls = index_function(func)
        if memo is not None:
            memo[id(func)] = (func, calls, stmts, expr_calls)
        index.calls[func.name] = calls
        index.call_stmts[func.name] = stmts
        index.expr_calls[func.name] = expr_calls
    return index


@dataclass
class CollectiveSite:
    """One collective-relevant call statement inside a function."""

    stmt: A.ExprStmt
    call: A.Call
    kind: str  # "collective" | "call"
    name: str  # MPI name, or "call:<func>" for user calls
    line: int

    @property
    def uid(self) -> int:
        return self.stmt.uid


def collect_sites(func: A.FuncDef,
                  collective_funcs: Optional[Set[str]] = None,
                  call_stmts: Optional[List[A.ExprStmt]] = None) -> List[CollectiveSite]:
    """All collective sites of ``func`` in source order.

    ``collective_funcs`` is the set of user functions that may execute a
    collective (computed by the driver's call-graph pass); ``call_stmts``
    optionally provides the pre-indexed statement-level calls.
    """
    collective_funcs = collective_funcs or set()
    sites: List[CollectiveSite] = []
    if call_stmts is None:
        call_stmts = [
            node for node in func.walk()
            if isinstance(node, A.ExprStmt) and isinstance(node.expr, A.Call)
        ]
    for node in call_stmts:
        expr = node.expr
        assert isinstance(expr, A.Call)
        if is_collective(expr.name):
            sites.append(CollectiveSite(
                stmt=node, call=expr, kind="collective",
                name=expr.name, line=node.line or expr.line,
            ))
        elif expr.name in collective_funcs:
            sites.append(CollectiveSite(
                stmt=node, call=expr, kind="call",
                name=f"call:{expr.name}", line=node.line or expr.line,
            ))
    return sites


def collective_call_graph(program: A.Program,
                          index: Optional[ProgramIndex] = None) -> Set[str]:
    """Names of user functions that may (transitively) execute an MPI
    collective — fixpoint over the call graph."""
    funcs = {f.name: f for f in program.funcs}
    if index is None:
        index = index_program(program)
    direct: dict = {}
    calls: dict = {}
    for name in funcs:
        func_calls = index.calls.get(name, [])
        direct[name] = any(is_collective(c.name) for c in func_calls)
        calls[name] = {c.name for c in func_calls if c.name in funcs}
    callers: dict = {}
    for name, callees in calls.items():
        for callee in callees:
            callers.setdefault(callee, []).append(name)
    result = {name for name, has in direct.items() if has}
    worklist = list(result)
    while worklist:
        member = worklist.pop()
        for caller in callers.get(member, ()):
            if caller not in result:
                result.add(caller)
                worklist.append(caller)
    return result
