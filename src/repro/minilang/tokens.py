"""Token definitions for the minilang lexer.

The mini-language is a small C-like language with ``#pragma omp`` directives
and MPI call statements — just enough surface syntax for the PARCOACH
analyses: structured control flow, function calls, OpenMP structured blocks.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokenType(enum.Enum):
    # Literals / identifiers
    IDENT = "IDENT"
    INT = "INT"
    FLOAT = "FLOAT"
    STRING = "STRING"

    # Keywords
    KW_INT = "int"
    KW_FLOAT = "float"
    KW_BOOL = "bool"
    KW_VOID = "void"
    KW_IF = "if"
    KW_ELSE = "else"
    KW_WHILE = "while"
    KW_FOR = "for"
    KW_RETURN = "return"
    KW_BREAK = "break"
    KW_CONTINUE = "continue"
    KW_TRUE = "true"
    KW_FALSE = "false"
    KW_PRAGMA = "pragma"  # appears after '#'

    # Punctuation
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMI = ";"
    HASH = "#"

    # Operators
    ASSIGN = "="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    EQ = "=="
    NE = "!="
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    AND = "&&"
    OR = "||"
    NOT = "!"
    PLUSEQ = "+="
    MINUSEQ = "-="
    STAREQ = "*="
    SLASHEQ = "/="
    PLUSPLUS = "++"
    MINUSMINUS = "--"

    # Structure
    NEWLINE = "NEWLINE"  # only significant inside pragma directives
    EOF = "EOF"

    #: Members are singletons compared by identity, so the identity hash is
    #: valid, and unlike ``Enum.__hash__`` it runs in C: the parser keys
    #: its dispatch tables on token types.
    __hash__ = object.__hash__


#: Reserved words mapped to their token types.
KEYWORDS = {
    "int": TokenType.KW_INT,
    "float": TokenType.KW_FLOAT,
    "double": TokenType.KW_FLOAT,  # alias; minilang has one float type
    "bool": TokenType.KW_BOOL,
    "void": TokenType.KW_VOID,
    "if": TokenType.KW_IF,
    "else": TokenType.KW_ELSE,
    "while": TokenType.KW_WHILE,
    "for": TokenType.KW_FOR,
    "return": TokenType.KW_RETURN,
    "break": TokenType.KW_BREAK,
    "continue": TokenType.KW_CONTINUE,
    "true": TokenType.KW_TRUE,
    "false": TokenType.KW_FALSE,
    "pragma": TokenType.KW_PRAGMA,
}

#: Multi-character operators and their token types.
MULTI_CHAR_OPS = [
    ("==", TokenType.EQ),
    ("!=", TokenType.NE),
    ("<=", TokenType.LE),
    (">=", TokenType.GE),
    ("&&", TokenType.AND),
    ("||", TokenType.OR),
    ("+=", TokenType.PLUSEQ),
    ("-=", TokenType.MINUSEQ),
    ("*=", TokenType.STAREQ),
    ("/=", TokenType.SLASHEQ),
    ("++", TokenType.PLUSPLUS),
    ("--", TokenType.MINUSMINUS),
]

SINGLE_CHAR_OPS = {
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    ",": TokenType.COMMA,
    ";": TokenType.SEMI,
    "#": TokenType.HASH,
    "=": TokenType.ASSIGN,
    "+": TokenType.PLUS,
    "-": TokenType.MINUS,
    "*": TokenType.STAR,
    "/": TokenType.SLASH,
    "%": TokenType.PERCENT,
    "<": TokenType.LT,
    ">": TokenType.GT,
    "!": TokenType.NOT,
}


class Token(NamedTuple):
    """A lexical token with its source position (1-based line/column).

    A plain 4-tuple ``(type, value, line, col)``: the lexer builds one per
    token without going through a constructor, and the parser reads the
    fields by index on its hot paths; the names serve everyone else."""

    type: TokenType
    value: str
    line: int
    col: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.name}, {self.value!r}, {self.line}:{self.col})"


class LexError(Exception):
    """Raised on malformed input (unknown character, unterminated string)."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col
