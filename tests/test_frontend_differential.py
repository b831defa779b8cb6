"""Differential tests of the minilang front end against its reference.

``tests/frontend_reference.py`` holds the character-stepping lexer and the
operator-ladder parser that the master-regex lexer and the
precedence-climbing parser replaced.  On every input below the two front
ends must agree exactly:

* the lexers give equal ``(type, value, line, col)`` streams, or raise the
  same error class with the same message at the same position;
* the parsers give ASTs with equal ``repr``, equal ``(line, col)`` on every
  node and the same pre-order uid sequence (uids count node creations, so
  this pins the construction order too), or raise the same error.

Inputs: the gallery, ``tests/corpus/``, the scale programs S–XL, the
Figure 1 models, 500 generated fuzz programs, fixed edge cases and
hypothesis strings.
"""

from __future__ import annotations

import dataclasses
import glob
import os

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from frontend_reference import reference_parse_program, reference_tokenize
from repro.bench import CASES, benchmark_sources, scale_suite
from repro.fuzz.generator import generate_program
from repro.minilang import ast_nodes as A
from repro.minilang.lexer import tokenize
from repro.minilang.parser import ParseError, parse_program
from repro.minilang.tokens import LexError

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")


def _outcome(fn, source):
    """``("ok", result)`` or ``("error", class, message, position)``."""
    try:
        return ("ok", fn(source))
    except LexError as exc:
        return ("error", LexError, exc.message, (exc.line, exc.col))
    except ParseError as exc:
        return ("error", ParseError, exc.message, tuple(exc.token))


def _ast_shape(program: A.Program):
    nodes = list(program.walk())
    base = min(n.uid for n in nodes)
    return (repr(program),
            [(n.line, n.col) for n in nodes],
            [n.uid - base for n in nodes])


def _parse_outcome(fn, source):
    try:
        return _outcome(lambda s: _ast_shape(fn(s)), source)
    except ValueError:
        # The reference parser lets int() reject a literal past Python's
        # digit limit; the production parser reports it at the token.
        return ("error", ParseError, "number literal out of range", None)


def assert_front_ends_agree(source: str) -> None:
    got = _outcome(tokenize, source)
    want = _outcome(reference_tokenize, source)
    if got[0] == "ok" and want[0] == "ok":
        assert [tuple(t) for t in got[1]] == [tuple(t) for t in want[1]]
    else:
        assert got == want
    got = _parse_outcome(parse_program, source)
    want = _parse_outcome(reference_parse_program, source)
    if want[-1] is None:
        got = got[:-1] + (None,)
    assert got == want


def _named_sources():
    out = {f"gallery/{name}": case.source for name, case in CASES.items()}
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.mini"))):
        with open(path) as fh:
            out["corpus/" + os.path.basename(path)] = fh.read()
    out.update((f"scale/{n}", s) for n, s in scale_suite().items())
    out.update((f"fig1/{n}", s) for n, s in benchmark_sources().items())
    return out


@pytest.mark.parametrize("name", sorted(_named_sources()))
def test_front_ends_agree_on_bundled_programs(name):
    assert_front_ends_agree(_named_sources()[name])


def test_front_ends_agree_on_500_generated_fuzz_programs():
    for seed in range(500):
        assert_front_ends_agree(generate_program(seed))


EDGE_CASES = [
    "",
    "/* never closed",
    "int x; /* never\nclosed",
    "/*/",
    "/**/x/***/",
    'void f() { printf("never closed',
    "void f() { printf('never closed\n'); }",
    'void f() { printf("a\\n\\t\\\\\\"\\\'\\0b"); }',
    'void f() { printf("bad \\q escape"); }',
    'void f() { printf("trailing backslash\\',
    "#pragma omp parallel \\\n num_threads(2)\n{ }",
    "void f() {\n#pragma omp barrier",
    "void f() {\r\n  int x = 1;\r\n#pragma omp barrier\r\n}\r\n",
    "void f() { int été = 1; int x² = été; }",
    "void f() { int x = ²; }",
    "void f() { int x = 1٣; }",
    "void f() { int ٣x = 1; }",
    "void f() { float y = 1.5e-3 + 2e5 + 7.25; int z = 1e; }",
    "void f() { int x = 1.; }",
    "void f() { x = a || b && c == d < e + f * -g % !h; }",
    "void f() { x = (a - b) - c / d / e; y = -(-x); z = +x; }",
    "void f() { x = 1 $ 2; }",
    "void f() { x = 1 \x0b 2; }",
    "void f() { x = " + "9" * 4301 + "; }",
]


@pytest.mark.parametrize("source", EDGE_CASES, ids=range(len(EDGE_CASES)))
def test_front_ends_agree_on_edge_cases(source):
    assert_front_ends_agree(source)


FRAGMENTS = [
    " ", "  ", "\t", "\n", "\r", "\r\n", "\\", "\\\n", "\x0b",
    "x", "y_1", "_", "é", "ñx", "x²", "²", "٣",
    "Ⅷ", "0", "7", "42", "3.5", "1e5", "2.5e-3", "1e", "1.", ".", "e",
    "/*", "*/", "//", "/", '"', "'", "\\n", "\\t", "\\0", "\\q", '"ok"',
    "'s'", "#", "#pragma omp parallel", "#pragma omp single nowait",
    "#pragma omp critical(c)", "#pragma omp for schedule(dynamic, 2)",
    "pragma", "omp", "(", ")", "{", "}", "[", "]", ";", ",", "=", "==", "+",
    "++", "+=", "-", "--", "-=", "*", "*=", "/=", "%", "<", "<=", ">", ">=",
    "!", "!=", "&&", "||", "&", "|", "$", "@", "int", "float", "double",
    "bool", "void", "main", "if", "else", "while", "for", "return",
    "break", "continue", "true", "false", "MPI_Barrier", "f(x, 1)",
]

_soup = st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join)


@given(_soup)
@example("#pragma omp parallel")
@example("int x = \"a\\")
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_front_ends_agree_on_token_soup(source):
    assert_front_ends_agree(source)


@given(_soup)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_front_ends_agree_inside_a_function_body(body):
    assert_front_ends_agree("void main() {\n" + body + "\n}\n")


@given(st.text(max_size=30))
@settings(max_examples=300, deadline=None)
def test_front_ends_agree_on_arbitrary_text(source):
    assert_front_ends_agree(source)


# ---------------------------------------------------------------------------
# Node.children(): explicit accessors against field reflection
# ---------------------------------------------------------------------------


def _reflected_children(node: A.Node):
    out = []
    for f in dataclasses.fields(node):
        if f.name in ("line", "col", "uid"):
            continue
        val = getattr(node, f.name)
        if isinstance(val, A.Node):
            out.append(val)
        elif isinstance(val, (list, tuple)):
            out.extend(v for v in val if isinstance(v, A.Node))
    return out


def test_children_match_field_reflection_on_every_node_class():
    sources = list(_named_sources().values())
    sources += [generate_program(seed) for seed in range(100)]
    seen = set()
    for source in sources:
        for node in parse_program(source).walk():
            seen.add(type(node))
            assert list(node.children()) == _reflected_children(node)
    # Default-constructed nodes too (the builder and the fuzz mutator make
    # nodes without the parser).
    for cls in vars(A).values():
        if (isinstance(cls, type) and issubclass(cls, A.Node)
                and dataclasses.is_dataclass(cls)):
            seen.add(cls)
            node = cls()
            assert list(node.children()) == _reflected_children(node)
    assert {A.OmpSections, A.OmpTask, A.For, A.VarDecl, A.Call} <= seen
