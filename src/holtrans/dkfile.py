"""Serializer and parser for the output document format.

A document is an ordered sequence of declarations ``name : TYPE.``,
definitions ``def name : TYPE := TERM.``, rewrite rules
``[x : T, ...] LHS --> RHS.`` and comments ``(; ... ;)``.  ``Type`` is the
sort keyword, ``x : A -> B`` a product, ``x : A => M`` an abstraction,
juxtaposition application.  Items reuse the kernel's signature item types,
so a parsed document feeds straight into the checker.  The grammar is this
package's normative format; compatibility with external checkers is
best-effort only.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Union

from . import kernel
from .kernel import (
    TYPE,
    Abs,
    App,
    Binder,
    BVar,
    Const,
    ConstDecl,
    Defn,
    Prod,
    RewriteRule,
    Sort,
    Term,
    Var,
)

class ParseError(Exception):
    def __init__(self, line: int, column: int, expectation: str):
        super().__init__(f"line {line}, column {column}: expected {expectation}")
        self.line = line
        self.column = column
        self.expectation = expectation


@dataclass(frozen=True, slots=True)
class Comment:
    text: str


DocItem = Union[ConstDecl, Defn, RewriteRule, Comment]


@dataclass(frozen=True)
class DkDocument:
    module: str
    items: tuple = ()


def signature_items(doc: DkDocument) -> tuple:
    return tuple(it for it in doc.items if not isinstance(it, Comment))


# ---------------------------------------------------------------------------
# Name mangling

RESERVED = frozenset({"Type", "def"})

def mangle(name: str) -> str:
    """Deterministic identifier image: dots to underscores, other foreign
    characters to hex escapes.  Collisions are resolved by ``DkNamer``."""
    out = []
    for ch in name:
        if ch == ".":
            out.append("_")
        elif ch.isascii() and (ch.isalnum() or ch == "_"):
            out.append(ch)
        else:
            out.append(f"_u{ord(ch):04x}_")
    s = "".join(out) or "_"
    if s[0].isdigit():
        s = "_" + s
    return s


class DkNamer:
    """Per-document name table: injective on the names it has seen."""

    def __init__(self, reserved: tuple = ()):
        self.mapping: dict[str, str] = {}
        self.used: set[str] = set(RESERVED)
        self.collisions: list[tuple[str, str]] = []
        for name in reserved:
            self.mapping[name] = name
            self.used.add(name)

    def ident(self, name: str) -> str:
        hit = self.mapping.get(name)
        if hit is not None:
            return hit
        base = mangle(name)
        cand = base
        i = 1
        while cand in self.used:
            i += 1
            cand = f"{base}_{i}"
        if cand != base:
            self.collisions.append((name, cand))
        self.mapping[name] = cand
        self.used.add(cand)
        return cand


# ---------------------------------------------------------------------------
# Emission

_TOP, _OPERAND, _APP_FN, _APP_ARG = 0, 1, 2, 3


class _Occurrences:
    """Where each identifier occurs in one printed term, by preorder position.

    The subterm at position ``p`` spans positions ``p .. p + size - 1``
    (every node counts one in ``size``), so one walk of the term answers
    "is this name used inside that binder's body" for every binder.  The
    walk happens on the first question.
    """

    __slots__ = ("_root", "_at")

    def __init__(self, root: Term):
        self._root = root
        self._at: Optional[dict[str, list[int]]] = None

    def within(self, name: str, start: int, size: int) -> bool:
        if self._at is None:
            self._at = {}
            stack = [(self._root, 0)]
            while stack:  # preorder, so each position list comes out sorted
                u, p = stack.pop()
                if isinstance(u, (Const, Var)):
                    self._at.setdefault(u.name, []).append(p)
                elif isinstance(u, App):
                    stack.append((u.arg, p + 1 + u.fn.size))
                    stack.append((u.fn, p + 1))
                elif isinstance(u, Binder):
                    stack.append((u.body, p + 1 + u.domain.size))
                    stack.append((u.domain, p + 1))
        ps = self._at.get(name)
        if not ps:
            return False
        i = bisect_left(ps, start)
        return i < len(ps) and ps[i] < start + size


def _display(hint: str, inner: Term, at: int, env: tuple[str, ...], occ: _Occurrences) -> str:
    """A binder name clashing with no enclosing binder, reserved word, or
    identifier used in ``inner`` (the body, at position ``at``)."""
    base = mangle(hint)
    cand = base
    i = 1
    while cand in env or cand in RESERVED or occ.within(cand, at, inner.size):
        i += 1
        cand = f"{base}_{i}"
    return cand


def _fmt(t: Term, at: int, env: tuple[str, ...], prec: int, occ: _Occurrences) -> str:
    """Render ``t``, found at preorder position ``at`` of ``occ``'s term."""
    if isinstance(t, Sort):
        if t == TYPE:
            return "Type"
        raise ValueError("Kind is not expressible in the file format")
    if isinstance(t, (Const, Var)):
        return t.name
    if isinstance(t, BVar):
        if t.index >= len(env):
            raise ValueError(f"dangling bound variable #{t.index}")
        return env[-1 - t.index]
    if isinstance(t, App):
        fn = _fmt(t.fn, at + 1, env, _APP_FN, occ)
        s = f"{fn} {_fmt(t.arg, at + 1 + t.fn.size, env, _APP_ARG, occ)}"
        return f"({s})" if prec >= _APP_ARG else s
    inner_at = at + 1 + t.domain.size
    dom = _fmt(t.domain, at + 1, env, _OPERAND, occ)
    if isinstance(t, Abs):
        name = _display(t.hint, t.body, inner_at, env, occ)
        s = f"{name} : {dom} => {_fmt(t.body, inner_at, env + (name,), _TOP, occ)}"
        return f"({s})" if prec >= _OPERAND else s
    assert isinstance(t, Prod)
    if kernel._uses_index(t.body, 0):
        name = _display(t.hint, t.body, inner_at, env, occ)
        s = f"{name} : {dom} -> {_fmt(t.body, inner_at, env + (name,), _TOP, occ)}"
    else:
        s = f"{dom} -> {_fmt(t.body, inner_at, env + ('_',), _TOP, occ)}"
    return f"({s})" if prec >= _OPERAND else s


def fmt_term(t: Term) -> str:
    return _fmt(t, 0, (), _TOP, _Occurrences(t))


def emit(doc: DkDocument) -> str:
    lines: list[str] = []
    if doc.module:
        lines.append(f"(; module {doc.module} ;)")
    for item in doc.items:
        if isinstance(item, Comment):
            if ";)" in item.text:
                raise ValueError("comment text may not contain ';)'")
            lines.append(f"(; {item.text} ;)")
        elif isinstance(item, ConstDecl):
            lines.append(f"{item.name} : {fmt_term(item.type)}.")
        elif isinstance(item, Defn):
            lines.append(f"def {item.name} : {fmt_term(item.type)} := {fmt_term(item.body)}.")
        else:
            assert isinstance(item, RewriteRule)
            shadows = {n for n, _ in item.context} & (
                kernel.const_names(item.lhs) | kernel.const_names(item.rhs)
            )
            if shadows:
                raise ValueError(
                    f"rule context names shadow constants: {', '.join(sorted(shadows))}"
                )
            ctx = ", ".join(f"{n} : {fmt_term(ty)}" for n, ty in item.context)
            lines.append(f"[{ctx}] {fmt_term(item.lhs)} --> {fmt_term(item.rhs)}.")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parsing

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
                return BVar(depth, name)
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
        if t.kind == "ident" and t.value != "Type" and self.peek(1).kind == "colon":
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
                name = self.expect("ident", "a definition name").value
                self.expect("colon", "':'")
                ty = self._term([], set())
                self.expect("coloneq", "':='")
                body = self._term([], set())
                self.expect("dot", "'.'")
                items.append(Defn(name, ty, body))
            elif t.kind == "lbrack":
                self.next()
                ctx: list[tuple[str, Term]] = []
                rulevars: set[str] = set()
                if self.peek().kind != "rbrack":
                    while True:
                        name = self.expect("ident", "a rule variable").value
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
            elif t.kind == "ident":
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
