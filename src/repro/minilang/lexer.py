"""Regular-expression lexer for the minilang hybrid language.

One compiled master pattern with a named group per token class is matched
repeatedly over the source (``finditer``); each match consumes the blanks
before one token plus the token itself, so the Python-level loop runs once
per token rather than once per character.  Every character is covered by
some alternative (the last one, ``error``, takes any single character), so
nothing is ever skipped silently.

Newlines are normally whitespace, except inside a ``#pragma`` directive where
the newline terminates the directive (C semantics), so the lexer emits a
``NEWLINE`` token while in pragma mode.  Number literals are ASCII digits
only; any other digit-like character is an "unexpected character" error.
"""

from __future__ import annotations

import re
from typing import List

from .tokens import KEYWORDS, MULTI_CHAR_OPS, SINGLE_CHAR_OPS, LexError, Token, TokenType

_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"', "'": "'", "0": "\0"}

#: quote -> the body of a string literal it opens: everything up to the
#: first closing quote, newline or backslash not starting an escape.
_STRING_BODY = {q: r"(?:[^%s\\\n]|\\[nt\\\"'0])*" % q for q in "\"'"}

#: Every operator and punctuation token of ``MULTI_CHAR_OPS`` and
#: ``SINGLE_CHAR_OPS`` except ``#``, grouped by first character so the
#: longest operator wins; ``/`` never starts a comment here.
_OPERATOR = r"[(){}\[\],;%]|[=!<>]=?|&&|\|\||\+[+=]?|-[-=]?|\*=?|/(?![/*])=?"

_MASTER = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<op>" + _OPERATOR + ")"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<newline>\n)"
    r"|(?P<comment>//[^\n]*)"
    r"|(?P<block>/\*.*?\*/)"
    r"|(?P<open_block>/\*)"
    r"|(?P<hash>\#)"
    r"|(?P<float>[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))"
    r"|(?P<int>[0-9]+)"
    r'|(?P<string>"' + _STRING_BODY['"'] + r'"|' + "'" + _STRING_BODY["'"] + "')"
    r"|(?P<bad_string>[\"'])"
    r"|(?P<continuation>\\\n)"
    r"|(?P<unicode_ident>[^\W\d]\w*)"
    r"|(?P<end>\Z)"
    r"|(?P<error>.)"
    r")",
    re.DOTALL,
)

_STRING_BODY_RE = {q: re.compile(body) for q, body in _STRING_BODY.items()}
_ESCAPE_RE = re.compile(r"\\(.)")

_OP_TYPES = dict(MULTI_CHAR_OPS)
_OP_TYPES.update(SINGLE_CHAR_OPS)

_IDENT = TokenType.IDENT
_INT = TokenType.INT
_FLOAT = TokenType.FLOAT
_STRING = TokenType.STRING
_HASH = TokenType.HASH
_NEWLINE = TokenType.NEWLINE


def _string_error(source: str, start: int, line: int, line_start: int) -> LexError:
    """The error for the malformed string literal opening at ``start``."""
    stop = _STRING_BODY_RE[source[start]].match(source, start + 1).end()
    if stop == len(source):
        return LexError("unterminated string literal", line, start - line_start + 1)
    col = stop - line_start + 1
    if source[stop] == "\n":
        return LexError("newline in string literal", line, col)
    # A backslash whose escape is not one of _ESCAPES.
    return LexError(f"unknown escape \\{source[stop + 1:stop + 2]}", line, col)


def tokenize(source: str, filename: str = "<string>") -> List[Token]:
    """Tokenize ``source`` fully, returning the token list (ending with EOF).

    ``filename`` is accepted for symmetry with the parser; errors carry
    only a line and column."""
    tokens: List[Token] = []
    append = tokens.append
    new = tuple.__new__
    keyword = KEYWORDS.get
    op_type = _OP_TYPES.__getitem__
    line = 1
    line_start = 0  # offset of the first character of ``line``
    in_pragma = False
    for m in _MASTER.finditer(source):
        kind = m.lastgroup
        end = m.end()
        if kind == "ident":
            text = m.group(kind)
            append(new(Token, (keyword(text, _IDENT), text, line,
                               end - len(text) - line_start + 1)))
        elif kind == "op":
            text = m.group(kind)
            append(new(Token, (op_type(text), text, line,
                               end - len(text) - line_start + 1)))
        elif kind == "newline":
            if in_pragma:
                append(new(Token, (_NEWLINE, "\n", line, end - line_start)))
                in_pragma = False
            line += 1
            line_start = end
        elif kind == "int" or kind == "float":
            text = m.group(kind)
            append(new(Token, (_INT if kind == "int" else _FLOAT, text, line,
                               end - len(text) - line_start + 1)))
        elif kind == "comment":
            pass
        elif kind == "block" or kind == "continuation":
            newlines = m.group(kind).count("\n")
            if newlines:
                line += newlines
                line_start = source.rfind("\n", 0, end) + 1
        elif kind == "string":
            text = m.group(kind)
            value = text[1:-1]
            if "\\" in value:
                value = _ESCAPE_RE.sub(lambda e: _ESCAPES[e.group(1)], value)
            append(new(Token, (_STRING, value, line,
                               end - len(text) - line_start + 1)))
        elif kind == "end":
            col = end - line_start + 1
            if in_pragma:
                # Pragma at end of file without trailing newline.
                append(new(Token, (_NEWLINE, "", line, col)))
            append(new(Token, (TokenType.EOF, "", line, col)))
            break
        else:
            start = m.start(kind)
            col = start - line_start + 1
            if kind == "open_block":
                raise LexError("unterminated block comment", line, col)
            if kind == "bad_string":
                raise _string_error(source, start, line, line_start)
            ch = source[start]
            if kind == "unicode_ident" and ch.isalpha():
                text = m.group(kind)
                append(new(Token, (_IDENT, text, line, col)))
                continue
            if kind == "hash":
                in_pragma = True
                append(new(Token, (_HASH, "#", line, col)))
                continue
            raise LexError(f"unexpected character {ch!r}", line, col)
    return tokens
