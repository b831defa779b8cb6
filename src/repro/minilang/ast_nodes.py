"""AST node definitions for minilang.

Every node carries a source position (``line``/``col``) used by diagnostics
(the paper reports collective names *and source lines*).  Structural equality
that ignores positions is provided by :func:`ast_equal` for round-trip tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple

_node_counter = itertools.count(1)


@dataclass
class Node:
    """Base class for all AST nodes."""

    line: int = field(default=0, kw_only=True)
    #: Excluded from ``repr`` (like ``uid``) so the structural fingerprints
    #: of :mod:`repro.core.engine` are column-insensitive: no diagnostic or
    #: artifact ever reports a column, so a same-line whitespace edit must
    #: not invalidate cached analyses or session state.
    col: int = field(default=0, kw_only=True, repr=False)
    uid: int = field(default_factory=lambda: next(_node_counter), kw_only=True, repr=False)

    def children(self) -> Tuple["Node", ...]:
        """Direct child nodes, in field declaration order (``None`` fields
        skipped).  Each class with child fields overrides this with an
        explicit accessor; tree walks call it once per node, and reading
        the fields directly is several times cheaper than reflecting over
        ``dataclasses.fields()``.  Leaves inherit this empty tuple."""
        return ()

    def walk(self):
        """Yield this node and all descendants, pre-order (iterative — the
        generated benchmark programs nest deeply)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))


def _present(*nodes: Optional[Node]) -> Tuple[Node, ...]:
    """``nodes`` without the absent (``None``) optional fields."""
    return tuple(n for n in nodes if n is not None)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr(Node):
    pass


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class FloatLit(Expr):
    value: float = 0.0


@dataclass
class BoolLit(Expr):
    value: bool = False


@dataclass
class StringLit(Expr):
    value: str = ""


@dataclass
class VarRef(Expr):
    name: str = ""


@dataclass
class ArrayRef(Expr):
    name: str = ""
    index: Expr = field(default_factory=lambda: IntLit(value=0))

    def children(self) -> Tuple[Node, ...]:
        return (self.index,)


@dataclass
class BinOp(Expr):
    op: str = "+"
    left: Expr = field(default_factory=lambda: IntLit(value=0))
    right: Expr = field(default_factory=lambda: IntLit(value=0))

    def children(self) -> Tuple[Node, ...]:
        return (self.left, self.right)


@dataclass
class UnaryOp(Expr):
    op: str = "-"
    operand: Expr = field(default_factory=lambda: IntLit(value=0))

    def children(self) -> Tuple[Node, ...]:
        return (self.operand,)


@dataclass
class Call(Expr):
    """A function call; MPI operations and OpenMP query functions included."""

    name: str = ""
    args: List[Expr] = field(default_factory=list)

    def children(self) -> Tuple[Node, ...]:
        return tuple(self.args)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    pass


@dataclass
class Block(Stmt):
    stmts: List[Stmt] = field(default_factory=list)

    def children(self) -> Tuple[Node, ...]:
        return tuple(self.stmts)


@dataclass
class VarDecl(Stmt):
    type_name: str = "int"
    name: str = ""
    init: Optional[Expr] = None
    array_size: Optional[Expr] = None  # non-None => array declaration

    def children(self) -> Tuple[Node, ...]:
        return _present(self.init, self.array_size)


@dataclass
class Assign(Stmt):
    """``target op value`` where op is '=', '+=', '-=', '*=', '/='."""

    target: Expr = field(default_factory=VarRef)  # VarRef or ArrayRef
    op: str = "="
    value: Expr = field(default_factory=lambda: IntLit(value=0))

    def children(self) -> Tuple[Node, ...]:
        return (self.target, self.value)


@dataclass
class ExprStmt(Stmt):
    expr: Expr = field(default_factory=Call)

    def children(self) -> Tuple[Node, ...]:
        return (self.expr,)


@dataclass
class If(Stmt):
    cond: Expr = field(default_factory=lambda: BoolLit(value=True))
    then_body: Block = field(default_factory=Block)
    else_body: Optional[Block] = None

    def children(self) -> Tuple[Node, ...]:
        if self.else_body is None:
            return (self.cond, self.then_body)
        return (self.cond, self.then_body, self.else_body)


@dataclass
class While(Stmt):
    cond: Expr = field(default_factory=lambda: BoolLit(value=True))
    body: Block = field(default_factory=Block)

    def children(self) -> Tuple[Node, ...]:
        return (self.cond, self.body)


@dataclass
class For(Stmt):
    """C-style ``for (init; cond; step) body``.

    ``init`` is a VarDecl or Assign (or None); ``step`` an Assign (or None).
    """

    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    step: Optional[Stmt] = None
    body: Block = field(default_factory=Block)

    def children(self) -> Tuple[Node, ...]:
        return _present(self.init, self.cond, self.step, self.body)


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None

    def children(self) -> Tuple[Node, ...]:
        return () if self.value is None else (self.value,)


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


# ---------------------------------------------------------------------------
# OpenMP constructs
# ---------------------------------------------------------------------------


@dataclass
class OmpStmt(Stmt):
    """Base class for OpenMP constructs."""


@dataclass
class OmpParallel(OmpStmt):
    body: Block = field(default_factory=Block)
    num_threads: Optional[Expr] = None

    def children(self) -> Tuple[Node, ...]:
        if self.num_threads is None:
            return (self.body,)
        return (self.body, self.num_threads)
    private: List[str] = field(default_factory=list)
    shared: List[str] = field(default_factory=list)


@dataclass
class OmpSingle(OmpStmt):
    body: Block = field(default_factory=Block)
    nowait: bool = False

    def children(self) -> Tuple[Node, ...]:
        return (self.body,)


@dataclass
class OmpMaster(OmpStmt):
    body: Block = field(default_factory=Block)

    def children(self) -> Tuple[Node, ...]:
        return (self.body,)


@dataclass
class OmpCritical(OmpStmt):
    body: Block = field(default_factory=Block)
    name: str = ""

    def children(self) -> Tuple[Node, ...]:
        return (self.body,)


@dataclass
class OmpBarrier(OmpStmt):
    pass


@dataclass
class OmpFor(OmpStmt):
    loop: For = field(default_factory=For)
    nowait: bool = False
    schedule: str = "static"

    def children(self) -> Tuple[Node, ...]:
        return (self.loop,)


@dataclass
class OmpSections(OmpStmt):
    sections: List[Block] = field(default_factory=list)
    nowait: bool = False

    def children(self) -> Tuple[Node, ...]:
        return tuple(self.sections)


@dataclass
class OmpTask(OmpStmt):
    """Explicit task — parsed and executed, flagged by the nesting checker
    when it contains MPI collectives (outside the paper's fork/join model)."""

    body: Block = field(default_factory=Block)

    def children(self) -> Tuple[Node, ...]:
        return (self.body,)


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass
class Param(Node):
    type_name: str = "int"
    name: str = ""


@dataclass
class FuncDef(Node):
    ret_type: str = "void"
    name: str = ""
    params: List[Param] = field(default_factory=list)
    body: Block = field(default_factory=Block)

    def children(self) -> Tuple[Node, ...]:
        return (*self.params, self.body)


@dataclass
class Program(Node):
    funcs: List[FuncDef] = field(default_factory=list)
    filename: str = "<string>"

    def children(self) -> Tuple[Node, ...]:
        return tuple(self.funcs)

    def func(self, name: str) -> FuncDef:
        """Return the function definition named ``name`` (KeyError if absent)."""
        for f in self.funcs:
            if f.name == name:
                return f
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Structural equality (ignoring positions and uids)
# ---------------------------------------------------------------------------


def ast_equal(a: object, b: object) -> bool:
    """Structural AST equality that ignores line/col/uid metadata."""
    if isinstance(a, Node) and isinstance(b, Node):
        if type(a) is not type(b):
            return False
        for f in fields(a):
            if f.name in ("line", "col", "uid", "filename"):
                continue
            if not ast_equal(getattr(a, f.name), getattr(b, f.name)):
                return False
        return True
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(ast_equal(x, y) for x, y in zip(a, b))
    return a == b


def collect(node: Node, node_type: type) -> List[Node]:
    """All descendants of ``node`` (inclusive) that are instances of ``node_type``."""
    return [n for n in node.walk() if isinstance(n, node_type)]


def shift_lines(node: Node, delta: int) -> None:
    """Shift the ``line`` of ``node`` and every descendant by ``delta``.

    The one sanctioned whole-subtree position edit: a source edit that moves
    a function down or up without touching its text (a line inserted above
    it) produces exactly this transformation of the re-parsed tree.  Uids
    and structure are untouched, so every uid-keyed artifact map stays
    valid; only consumers of line-addressed state (diagnostics, collective
    sites, CFG block lines) need patching, which
    :meth:`repro.core.engine.AnalysisEngine.patch_function_lines` does in
    lock-step with re-keying the content-addressed store."""
    if delta == 0:
        return
    for n in node.walk():
        n.line += delta
