"""The token-object parser that ``holtrans.dkfile.parse`` replaced.

It tokenizes the whole text into one frozen ``_Tok`` per token, each with its
line and column, resolves a bound name by scanning the binder list, and
copies that list at every binder.  It is kept as the oracle of the
differential test in ``test_dkfile.py``: the fast reader must give the same
document, or the same ``ParseError`` line, column and expectation.
"""

import re
from dataclasses import dataclass
from typing import Optional

from holtrans.dkfile import RESERVED, Comment, DkDocument, DocItem, ParseError
from holtrans.kernel import TYPE, Abs, App, BVar, Const, ConstDecl, Defn, Prod, RewriteRule, Term, Var

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\(;.*?;\))
      | (?P<coloneq>:=)
      | (?P<longarrow>-->)
      | (?P<arrow>->)
      | (?P<fatarrow>=>)
      | (?P<lparen>\() | (?P<rparen>\))
      | (?P<lbrack>\[) | (?P<rbrack>\])
      | (?P<comma>,) | (?P<colon>:) | (?P<dot>\.)
      | (?P<ident>[A-Za-z0-9_]+)
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass(frozen=True)
class _Tok:
    kind: str
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    pos = 0
    line = 1
    bol = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(line, pos - bol + 1, "a token")
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            toks.append(_Tok(kind, value, line, pos - bol + 1))
        nl = value.count("\n")
        if nl:
            line += nl
            bol = pos + value.rfind("\n") + 1
        pos = m.end()
    toks.append(_Tok("eof", "", line, pos - bol + 1))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, kind: str, what: str) -> _Tok:
        t = self.next()
        if t.kind != kind:
            raise ParseError(t.line, t.col, what)
        return t

    def expect_name(self, what: str) -> str:
        """An identifier that is not a reserved word."""
        t = self.next()
        if t.kind != "ident" or t.value in RESERVED:
            raise ParseError(t.line, t.col, what)
        return t.value

    def _atom(self, binders: list, rulevars: set[str]) -> Optional[Term]:
        t = self.peek()
        if t.kind == "lparen":
            self.next()
            out = self._term(binders, rulevars)
            self.expect("rparen", "')'")
            return out
        if t.kind != "ident":
            return None
        self.next()
        if t.value == "Type":
            return TYPE
        for depth, name in enumerate(reversed(binders)):
            if name is not None and name == t.value:
                return BVar(depth)
        if t.value in rulevars:
            return Var(t.value)
        return Const(t.value)

    def _app(self, binders: list, rulevars: set[str]) -> Term:
        first = self._atom(binders, rulevars)
        if first is None:
            t = self.peek()
            raise ParseError(t.line, t.col, "a term")
        while True:
            nxt = self._atom(binders, rulevars)
            if nxt is None:
                return first
            first = App(first, nxt)

    def _term(self, binders: list, rulevars: set[str]) -> Term:
        t = self.peek()
        if t.kind == "ident" and self.peek(1).kind == "colon":
            if t.value in RESERVED:
                raise ParseError(t.line, t.col, "a bound name")
            name = self.next().value
            self.next()  # colon
            dom = self._app(binders, rulevars)
            op = self.next()
            if op.kind == "arrow":
                cod = self._term(binders + [name], rulevars)
                return Prod(name, dom, cod)
            if op.kind == "fatarrow":
                body = self._term(binders + [name], rulevars)
                return Abs(name, dom, body)
            raise ParseError(op.line, op.col, "'->' or '=>' after a binder")
        left = self._app(binders, rulevars)
        if self.peek().kind == "arrow":
            self.next()
            right = self._term(binders + [None], rulevars)
            return Prod("_", left, right)
        return left

    def _definiens(self, ty: Term, binders: list) -> Term:
        """A definition's body: a leading ``x =>`` takes its domain from the
        declared type's matching product."""
        t = self.peek()
        if not (t.kind == "ident" and self.peek(1).kind == "fatarrow"):
            return self._term(binders, set())
        if t.value in RESERVED:
            raise ParseError(t.line, t.col, "a bound name")
        self.next()
        arrow = self.next()
        if not isinstance(ty, Prod):
            raise ParseError(arrow.line, arrow.col, "':' (the declared type has no product here)")
        return Abs(t.value, ty.domain, self._definiens(ty.body, binders + [t.value]))

    def document(self) -> DkDocument:
        items: list[DocItem] = []
        module = ""
        first = True
        while True:
            t = self.peek()
            if t.kind == "eof":
                break
            if t.kind == "comment":
                self.next()
                text = t.value[2:-2]
                if text.startswith(" ") and text.endswith(" "):
                    text = text[1:-1]
                if first and text.startswith("module "):
                    module = text[len("module "):]
                else:
                    items.append(Comment(text))
                first = False
                continue
            first = False
            if t.kind == "ident" and t.value == "def":
                self.next()
                name = self.expect_name("a definition name")
                self.expect("colon", "':'")
                ty = self._term([], set())
                self.expect("coloneq", "':='")
                body = self._definiens(ty, [])
                self.expect("dot", "'.'")
                items.append(Defn(name, ty, body))
            elif t.kind == "lbrack":
                self.next()
                ctx: list[tuple[str, Term]] = []
                rulevars: set[str] = set()
                if self.peek().kind != "rbrack":
                    while True:
                        name = self.expect_name("a rule variable")
                        self.expect("colon", "':'")
                        ty = self._term([], rulevars)
                        ctx.append((name, ty))
                        rulevars.add(name)
                        nxt = self.next()
                        if nxt.kind == "rbrack":
                            break
                        if nxt.kind != "comma":
                            raise ParseError(nxt.line, nxt.col, "',' or ']'")
                else:
                    self.next()
                lhs = self._term([], rulevars)
                self.expect("longarrow", "'-->'")
                rhs = self._term([], rulevars)
                self.expect("dot", "'.'")
                items.append(RewriteRule(tuple(ctx), lhs, rhs))
            elif t.kind == "ident" and t.value not in RESERVED:
                name = self.next().value
                self.expect("colon", "':'")
                ty = self._term([], set())
                self.expect("dot", "'.'")
                items.append(ConstDecl(name, ty))
            else:
                raise ParseError(t.line, t.col, "an item")
        return DkDocument(module, tuple(items))


def parse(text: str) -> DkDocument:
    return _Parser(text).document()
