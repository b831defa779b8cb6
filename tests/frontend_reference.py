"""Reference minilang front end: the original character-stepping lexer and
the operator-ladder recursive-descent parser.

The production front end (``repro.minilang.lexer``/``parser``) is a
master-regex lexer and a precedence-climbing parser.  These classes are the
slow, obviously-correct implementations they replaced, kept here only as a
differential oracle (``tests/test_frontend_differential.py``) and as the
baseline of ``benchmarks/bench_frontend.py``.  They must not be imported
from ``src/``.

One deliberate change from the original lexer: number literals are ASCII
``[0-9]`` only (``_is_digit``), the specified behaviour of both lexers.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.minilang import ast_nodes as A
from repro.minilang.parser import ParseError, _ASSIGN_OPS, _TYPE_TOKENS
from repro.minilang.tokens import (
    KEYWORDS,
    MULTI_CHAR_OPS,
    SINGLE_CHAR_OPS,
    LexError,
    Token,
    TokenType,
)


def _is_digit(ch: str) -> bool:
    return len(ch) == 1 and "0" <= ch <= "9"


class ReferenceLexer:
    """Converts source text into a token stream.

    Parameters
    ----------
    source:
        The program text.
    filename:
        Used only in error messages.
    """

    def __init__(self, source: str, filename: str = "<string>") -> None:
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.col = 1
        self._in_pragma = False

    # -- low-level helpers -------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.source[idx] if idx < len(self.source) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.source):
                if self.source[self.pos] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.pos += 1

    # -- token producers ----------------------------------------------------

    def _skip_whitespace_and_comments(self) -> List[Token]:
        """Advance over blanks and comments; may emit a NEWLINE in pragma mode."""
        emitted: List[Token] = []
        while self.pos < len(self.source):
            ch = self._peek()
            if ch == "\n":
                if self._in_pragma:
                    emitted.append(Token(TokenType.NEWLINE, "\n", self.line, self.col))
                    self._in_pragma = False
                self._advance()
            elif ch in " \t\r":
                self._advance()
            elif ch == "\\" and self._peek(1) == "\n":
                # Line continuation (used in long pragmas).
                self._advance(2)
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start_line, start_col = self.line, self.col
                self._advance(2)
                while self.pos < len(self.source):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise LexError("unterminated block comment", start_line, start_col)
            else:
                break
        return emitted

    def _lex_number(self) -> Token:
        start_line, start_col = self.line, self.col
        start = self.pos
        seen_dot = False
        while self.pos < len(self.source) and (
            _is_digit(self._peek()) or (self._peek() == "." and not seen_dot)
        ):
            if self._peek() == ".":
                # A dot must be followed by a digit to count as a float part.
                if not _is_digit(self._peek(1)):
                    break
                seen_dot = True
            self._advance()
        # Exponent part: 1e5, 2.5e-3
        if self._peek() in "eE" and (
            _is_digit(self._peek(1))
            or (self._peek(1) in "+-" and _is_digit(self._peek(2)))
        ):
            seen_dot = True
            self._advance()
            if self._peek() in "+-":
                self._advance()
            while _is_digit(self._peek()):
                self._advance()
        text = self.source[start : self.pos]
        ttype = TokenType.FLOAT if seen_dot else TokenType.INT
        return Token(ttype, text, start_line, start_col)

    def _lex_ident(self) -> Token:
        start_line, start_col = self.line, self.col
        start = self.pos
        while self.pos < len(self.source) and (
            self._peek().isalnum() or self._peek() == "_"
        ):
            self._advance()
        text = self.source[start : self.pos]
        ttype = KEYWORDS.get(text, TokenType.IDENT)
        return Token(ttype, text, start_line, start_col)

    def _lex_string(self) -> Token:
        start_line, start_col = self.line, self.col
        quote = self._peek()
        self._advance()
        chars: List[str] = []
        while True:
            ch = self._peek()
            if ch == "":
                raise LexError("unterminated string literal", start_line, start_col)
            if ch == "\n":
                raise LexError("newline in string literal", self.line, self.col)
            if ch == "\\":
                nxt = self._peek(1)
                escapes = {"n": "\n", "t": "\t", "\\": "\\", '"': '"', "'": "'", "0": "\0"}
                if nxt in escapes:
                    chars.append(escapes[nxt])
                    self._advance(2)
                    continue
                raise LexError(f"unknown escape \\{nxt}", self.line, self.col)
            if ch == quote:
                self._advance()
                break
            chars.append(ch)
            self._advance()
        return Token(TokenType.STRING, "".join(chars), start_line, start_col)

    def tokens(self) -> Iterator[Token]:
        """Yield tokens until (and including) EOF."""
        while True:
            for tok in self._skip_whitespace_and_comments():
                yield tok
            if self.pos >= len(self.source):
                if self._in_pragma:
                    # Pragma at end of file without trailing newline.
                    yield Token(TokenType.NEWLINE, "", self.line, self.col)
                    self._in_pragma = False
                yield Token(TokenType.EOF, "", self.line, self.col)
                return
            ch = self._peek()
            if _is_digit(ch):
                yield self._lex_number()
            elif ch.isalpha() or ch == "_":
                yield self._lex_ident()
            elif ch in "\"'":
                yield self._lex_string()
            elif ch == "#":
                self._in_pragma = True
                yield Token(TokenType.HASH, "#", self.line, self.col)
                self._advance()
            else:
                for text, ttype in MULTI_CHAR_OPS:
                    if self.source.startswith(text, self.pos):
                        tok = Token(ttype, text, self.line, self.col)
                        self._advance(len(text))
                        yield tok
                        break
                else:
                    if ch in SINGLE_CHAR_OPS:
                        yield Token(SINGLE_CHAR_OPS[ch], ch, self.line, self.col)
                        self._advance()
                    else:
                        raise LexError(f"unexpected character {ch!r}", self.line, self.col)



class ReferenceParser:
    def __init__(self, tokens: List[Token], filename: str = "<string>") -> None:
        self.tokens = tokens
        self.pos = 0
        self.filename = filename

    # -- token helpers ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if self.pos < len(self.tokens) - 1:
            self.pos += 1
        return tok

    def _check(self, ttype: TokenType) -> bool:
        return self._peek().type is ttype

    def _match(self, *ttypes: TokenType) -> Optional[Token]:
        if self._peek().type in ttypes:
            return self._advance()
        return None

    def _expect(self, ttype: TokenType, what: str = "") -> Token:
        if self._peek().type is ttype:
            return self._advance()
        raise ParseError(what or f"expected {ttype.value!r}", self._peek())

    # -- program / functions -------------------------------------------------

    def parse_program(self) -> A.Program:
        funcs: List[A.FuncDef] = []
        first = self._peek()
        while not self._check(TokenType.EOF):
            funcs.append(self.parse_funcdef())
        return A.Program(funcs=funcs, filename=self.filename, line=first.line, col=first.col)

    def parse_funcdef(self) -> A.FuncDef:
        start = self._peek()
        if start.type not in _TYPE_TOKENS:
            raise ParseError("expected a type to start a function definition", start)
        ret_type = _TYPE_TOKENS[self._advance().type]
        name = self._expect(TokenType.IDENT, "expected function name").value
        self._expect(TokenType.LPAREN)
        params: List[A.Param] = []
        if not self._check(TokenType.RPAREN):
            while True:
                ptok = self._peek()
                if ptok.type not in _TYPE_TOKENS:
                    raise ParseError("expected parameter type", ptok)
                ptype = _TYPE_TOKENS[self._advance().type]
                pname = self._expect(TokenType.IDENT, "expected parameter name").value
                params.append(A.Param(type_name=ptype, name=pname, line=ptok.line, col=ptok.col))
                if not self._match(TokenType.COMMA):
                    break
        self._expect(TokenType.RPAREN)
        body = self.parse_block()
        return A.FuncDef(
            ret_type=ret_type, name=name, params=params, body=body,
            line=start.line, col=start.col,
        )

    # -- statements -----------------------------------------------------------

    def parse_block(self) -> A.Block:
        lb = self._expect(TokenType.LBRACE, "expected '{'")
        stmts: List[A.Stmt] = []
        while not self._check(TokenType.RBRACE):
            if self._check(TokenType.EOF):
                raise ParseError("unterminated block", self._peek())
            stmts.append(self.parse_stmt())
        self._expect(TokenType.RBRACE)
        return A.Block(stmts=stmts, line=lb.line, col=lb.col)

    def _stmt_or_block(self) -> A.Block:
        """Parse a statement; wrap a bare statement into a Block."""
        if self._check(TokenType.LBRACE):
            return self.parse_block()
        stmt = self.parse_stmt()
        return A.Block(stmts=[stmt], line=stmt.line, col=stmt.col)

    def parse_stmt(self) -> A.Stmt:
        tok = self._peek()
        if tok.type is TokenType.HASH:
            return self.parse_pragma()
        if tok.type in _TYPE_TOKENS:
            decl = self.parse_vardecl()
            self._expect(TokenType.SEMI, "expected ';' after declaration")
            return decl
        if tok.type is TokenType.KW_IF:
            return self.parse_if()
        if tok.type is TokenType.KW_WHILE:
            return self.parse_while()
        if tok.type is TokenType.KW_FOR:
            return self.parse_for()
        if tok.type is TokenType.KW_RETURN:
            self._advance()
            value = None
            if not self._check(TokenType.SEMI):
                value = self.parse_expr()
            self._expect(TokenType.SEMI, "expected ';' after return")
            return A.Return(value=value, line=tok.line, col=tok.col)
        if tok.type is TokenType.KW_BREAK:
            self._advance()
            self._expect(TokenType.SEMI)
            return A.Break(line=tok.line, col=tok.col)
        if tok.type is TokenType.KW_CONTINUE:
            self._advance()
            self._expect(TokenType.SEMI)
            return A.Continue(line=tok.line, col=tok.col)
        if tok.type is TokenType.LBRACE:
            return self.parse_block()
        stmt = self.parse_simple_stmt()
        self._expect(TokenType.SEMI, "expected ';'")
        return stmt

    def parse_vardecl(self) -> A.VarDecl:
        tok = self._peek()
        type_name = _TYPE_TOKENS[self._advance().type]
        name = self._expect(TokenType.IDENT, "expected variable name").value
        array_size = None
        if self._match(TokenType.LBRACKET):
            array_size = self.parse_expr()
            self._expect(TokenType.RBRACKET)
        init = None
        if self._match(TokenType.ASSIGN):
            init = self.parse_expr()
        return A.VarDecl(
            type_name=type_name, name=name, init=init, array_size=array_size,
            line=tok.line, col=tok.col,
        )

    def parse_simple_stmt(self) -> A.Stmt:
        """Assignment, increment, or expression-statement (typically a call)."""
        tok = self._peek()
        expr = self.parse_expr()
        nxt = self._peek()
        if nxt.type in _ASSIGN_OPS:
            if not isinstance(expr, (A.VarRef, A.ArrayRef)):
                raise ParseError("assignment target must be a variable or array element", nxt)
            op = _ASSIGN_OPS[self._advance().type]
            value = self.parse_expr()
            return A.Assign(target=expr, op=op, value=value, line=tok.line, col=tok.col)
        if nxt.type in (TokenType.PLUSPLUS, TokenType.MINUSMINUS):
            if not isinstance(expr, (A.VarRef, A.ArrayRef)):
                raise ParseError("increment target must be a variable or array element", nxt)
            self._advance()
            op = "+=" if nxt.type is TokenType.PLUSPLUS else "-="
            return A.Assign(
                target=expr, op=op, value=A.IntLit(value=1, line=nxt.line, col=nxt.col),
                line=tok.line, col=tok.col,
            )
        return A.ExprStmt(expr=expr, line=tok.line, col=tok.col)

    def parse_if(self) -> A.If:
        tok = self._expect(TokenType.KW_IF)
        self._expect(TokenType.LPAREN)
        cond = self.parse_expr()
        self._expect(TokenType.RPAREN)
        then_body = self._stmt_or_block()
        else_body = None
        if self._match(TokenType.KW_ELSE):
            else_body = self._stmt_or_block()
        return A.If(cond=cond, then_body=then_body, else_body=else_body,
                    line=tok.line, col=tok.col)

    def parse_while(self) -> A.While:
        tok = self._expect(TokenType.KW_WHILE)
        self._expect(TokenType.LPAREN)
        cond = self.parse_expr()
        self._expect(TokenType.RPAREN)
        body = self._stmt_or_block()
        return A.While(cond=cond, body=body, line=tok.line, col=tok.col)

    def parse_for(self) -> A.For:
        tok = self._expect(TokenType.KW_FOR)
        self._expect(TokenType.LPAREN)
        init: Optional[A.Stmt] = None
        if not self._check(TokenType.SEMI):
            if self._peek().type in _TYPE_TOKENS:
                init = self.parse_vardecl()
            else:
                init = self.parse_simple_stmt()
        self._expect(TokenType.SEMI, "expected ';' in for")
        cond = None
        if not self._check(TokenType.SEMI):
            cond = self.parse_expr()
        self._expect(TokenType.SEMI, "expected second ';' in for")
        step: Optional[A.Stmt] = None
        if not self._check(TokenType.RPAREN):
            step = self.parse_simple_stmt()
        self._expect(TokenType.RPAREN)
        body = self._stmt_or_block()
        return A.For(init=init, cond=cond, step=step, body=body,
                     line=tok.line, col=tok.col)

    # -- OpenMP pragmas -------------------------------------------------------

    def parse_pragma(self) -> A.Stmt:
        hash_tok = self._expect(TokenType.HASH)
        self._expect(TokenType.KW_PRAGMA, "expected 'pragma' after '#'")
        omp = self._expect(TokenType.IDENT, "expected 'omp'")
        if omp.value != "omp":
            raise ParseError("only 'omp' pragmas are supported", omp)
        directive = self._peek()
        if directive.type in (TokenType.IDENT, TokenType.KW_FOR):
            self._advance()
        else:
            raise ParseError("expected an OpenMP directive", directive)
        name = "for" if directive.type is TokenType.KW_FOR else directive.value
        if name == "parallel" and self._check(TokenType.KW_FOR):
            self._advance()
            name = "parallel for"
        if name == "parallel" and self._check(TokenType.IDENT) and self._peek().value == "sections":
            self._advance()
            name = "parallel sections"

        clauses = self._parse_clauses()
        self._expect(TokenType.NEWLINE, "expected end of pragma line")

        line, col = hash_tok.line, hash_tok.col
        if name == "barrier":
            return A.OmpBarrier(line=line, col=col)
        if name == "parallel":
            body = self._stmt_or_block()
            return A.OmpParallel(
                body=body, num_threads=clauses.get("num_threads"),
                private=clauses.get("private", []), shared=clauses.get("shared", []),
                line=line, col=col,
            )
        if name == "single":
            body = self._stmt_or_block()
            return A.OmpSingle(body=body, nowait=clauses.get("nowait", False),
                               line=line, col=col)
        if name == "master":
            body = self._stmt_or_block()
            return A.OmpMaster(body=body, line=line, col=col)
        if name == "critical":
            body = self._stmt_or_block()
            return A.OmpCritical(body=body, name=clauses.get("critical_name", ""),
                                 line=line, col=col)
        if name == "task":
            body = self._stmt_or_block()
            return A.OmpTask(body=body, line=line, col=col)
        if name == "for":
            loop = self.parse_for()
            return A.OmpFor(loop=loop, nowait=clauses.get("nowait", False),
                            schedule=clauses.get("schedule", "static"),
                            line=line, col=col)
        if name == "parallel for":
            loop = self.parse_for()
            omp_for = A.OmpFor(loop=loop, schedule=clauses.get("schedule", "static"),
                               line=line, col=col)
            return A.OmpParallel(
                body=A.Block(stmts=[omp_for], line=line, col=col),
                num_threads=clauses.get("num_threads"),
                private=clauses.get("private", []), shared=clauses.get("shared", []),
                line=line, col=col,
            )
        if name == "sections":
            sections = self._parse_sections_body()
            return A.OmpSections(sections=sections, nowait=clauses.get("nowait", False),
                                 line=line, col=col)
        if name == "parallel sections":
            sections = self._parse_sections_body()
            inner = A.OmpSections(sections=sections, line=line, col=col)
            return A.OmpParallel(
                body=A.Block(stmts=[inner], line=line, col=col),
                num_threads=clauses.get("num_threads"),
                private=clauses.get("private", []), shared=clauses.get("shared", []),
                line=line, col=col,
            )
        raise ParseError(f"unknown OpenMP directive {name!r}", directive)

    def _parse_sections_body(self) -> List[A.Block]:
        self._expect(TokenType.LBRACE, "sections construct requires a '{' block")
        sections: List[A.Block] = []
        while not self._check(TokenType.RBRACE):
            hash_tok = self._expect(TokenType.HASH, "expected '#pragma omp section'")
            self._expect(TokenType.KW_PRAGMA)
            omp = self._expect(TokenType.IDENT)
            if omp.value != "omp":
                raise ParseError("expected 'omp'", omp)
            sec = self._expect(TokenType.IDENT)
            if sec.value != "section":
                raise ParseError("expected 'section' inside sections", sec)
            self._expect(TokenType.NEWLINE)
            sections.append(self._stmt_or_block())
        self._expect(TokenType.RBRACE)
        return sections

    def _parse_clauses(self) -> dict:
        clauses: dict = {}
        while self._check(TokenType.IDENT) or self._check(TokenType.LPAREN):
            if self._check(TokenType.LPAREN):
                # critical(name) — the name comes as a parenthesised ident.
                self._advance()
                cname = self._expect(TokenType.IDENT, "expected critical section name").value
                self._expect(TokenType.RPAREN)
                clauses["critical_name"] = cname
                continue
            clause = self._advance().value
            if clause == "nowait":
                clauses["nowait"] = True
            elif clause == "num_threads":
                self._expect(TokenType.LPAREN)
                clauses["num_threads"] = self.parse_expr()
                self._expect(TokenType.RPAREN)
            elif clause in ("private", "shared", "firstprivate"):
                self._expect(TokenType.LPAREN)
                names = [self._expect(TokenType.IDENT).value]
                while self._match(TokenType.COMMA):
                    names.append(self._expect(TokenType.IDENT).value)
                self._expect(TokenType.RPAREN)
                key = "private" if clause == "firstprivate" else clause
                clauses.setdefault(key, []).extend(names)
            elif clause == "schedule":
                self._expect(TokenType.LPAREN)
                kind = self._expect(TokenType.IDENT).value
                if self._match(TokenType.COMMA):
                    self.parse_expr()  # chunk size accepted, ignored
                self._expect(TokenType.RPAREN)
                clauses["schedule"] = kind
            elif clause == "default":
                self._expect(TokenType.LPAREN)
                self._expect(TokenType.IDENT)
                self._expect(TokenType.RPAREN)
            else:
                raise ParseError(f"unknown OpenMP clause {clause!r}", self._peek())
        return clauses

    # -- expressions ------------------------------------------------------------

    def parse_expr(self) -> A.Expr:
        return self._parse_or()

    def _parse_or(self) -> A.Expr:
        left = self._parse_and()
        while self._check(TokenType.OR):
            tok = self._advance()
            right = self._parse_and()
            left = A.BinOp(op="||", left=left, right=right, line=tok.line, col=tok.col)
        return left

    def _parse_and(self) -> A.Expr:
        left = self._parse_equality()
        while self._check(TokenType.AND):
            tok = self._advance()
            right = self._parse_equality()
            left = A.BinOp(op="&&", left=left, right=right, line=tok.line, col=tok.col)
        return left

    def _parse_equality(self) -> A.Expr:
        left = self._parse_relational()
        while self._peek().type in (TokenType.EQ, TokenType.NE):
            tok = self._advance()
            right = self._parse_relational()
            left = A.BinOp(op=tok.value, left=left, right=right, line=tok.line, col=tok.col)
        return left

    def _parse_relational(self) -> A.Expr:
        left = self._parse_additive()
        while self._peek().type in (TokenType.LT, TokenType.GT, TokenType.LE, TokenType.GE):
            tok = self._advance()
            right = self._parse_additive()
            left = A.BinOp(op=tok.value, left=left, right=right, line=tok.line, col=tok.col)
        return left

    def _parse_additive(self) -> A.Expr:
        left = self._parse_multiplicative()
        while self._peek().type in (TokenType.PLUS, TokenType.MINUS):
            tok = self._advance()
            right = self._parse_multiplicative()
            left = A.BinOp(op=tok.value, left=left, right=right, line=tok.line, col=tok.col)
        return left

    def _parse_multiplicative(self) -> A.Expr:
        left = self._parse_unary()
        while self._peek().type in (TokenType.STAR, TokenType.SLASH, TokenType.PERCENT):
            tok = self._advance()
            right = self._parse_unary()
            left = A.BinOp(op=tok.value, left=left, right=right, line=tok.line, col=tok.col)
        return left

    def _parse_unary(self) -> A.Expr:
        tok = self._peek()
        if tok.type in (TokenType.MINUS, TokenType.NOT):
            self._advance()
            operand = self._parse_unary()
            return A.UnaryOp(op=tok.value, operand=operand, line=tok.line, col=tok.col)
        if tok.type is TokenType.PLUS:
            self._advance()
            return self._parse_unary()
        return self._parse_postfix()

    def _parse_postfix(self) -> A.Expr:
        expr = self._parse_primary()
        while True:
            if self._check(TokenType.LPAREN) and isinstance(expr, A.VarRef):
                self._advance()
                args: List[A.Expr] = []
                if not self._check(TokenType.RPAREN):
                    args.append(self.parse_expr())
                    while self._match(TokenType.COMMA):
                        args.append(self.parse_expr())
                self._expect(TokenType.RPAREN)
                expr = A.Call(name=expr.name, args=args, line=expr.line, col=expr.col)
            elif self._check(TokenType.LBRACKET) and isinstance(expr, A.VarRef):
                self._advance()
                index = self.parse_expr()
                self._expect(TokenType.RBRACKET)
                expr = A.ArrayRef(name=expr.name, index=index, line=expr.line, col=expr.col)
            else:
                return expr

    def _parse_primary(self) -> A.Expr:
        tok = self._peek()
        if tok.type is TokenType.INT:
            self._advance()
            return A.IntLit(value=int(tok.value), line=tok.line, col=tok.col)
        if tok.type is TokenType.FLOAT:
            self._advance()
            return A.FloatLit(value=float(tok.value), line=tok.line, col=tok.col)
        if tok.type is TokenType.STRING:
            self._advance()
            return A.StringLit(value=tok.value, line=tok.line, col=tok.col)
        if tok.type is TokenType.KW_TRUE:
            self._advance()
            return A.BoolLit(value=True, line=tok.line, col=tok.col)
        if tok.type is TokenType.KW_FALSE:
            self._advance()
            return A.BoolLit(value=False, line=tok.line, col=tok.col)
        if tok.type is TokenType.IDENT:
            self._advance()
            return A.VarRef(name=tok.value, line=tok.line, col=tok.col)
        if tok.type is TokenType.LPAREN:
            self._advance()
            expr = self.parse_expr()
            self._expect(TokenType.RPAREN)
            return expr
        raise ParseError("expected an expression", tok)



def reference_tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` with the character-stepping lexer."""
    return list(ReferenceLexer(source).tokens())


def reference_parse_program(source: str, filename: str = "<string>") -> A.Program:
    """Parse ``source`` with the reference lexer and parser."""
    return ReferenceParser(reference_tokenize(source), filename).parse_program()
