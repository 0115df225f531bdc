"""The output document format's records and its reader.  A ``DkDocument``
is a module name and its items: the kernel's signature items and
``Comment``s.  ``parse`` reads one from a ``.dk`` text or raises
``ParseError``, and ``dkfile`` writes one.  A word of ``RESERVED`` is not
a declared, defined or bound name or a rule variable, as the emitter
never writes one there.

The reader keeps the two base signatures, the only ``hol.dk`` texts
``check`` takes: ``base_text`` is what ``translate`` writes,
``base_signature`` its one parse, and ``base_mode`` the mode a text is."""

from __future__ import annotations

import re
from itertools import islice
from typing import Optional, Union

from .kernel import TYPE, Abs, App, BVar, Const, ConstDecl, Defn, Prod, Record, RewriteRule, Signature, Term, Var


class Comment(Record):
    __slots__ = _fields = ("text",)


DocItem = Union[ConstDecl, Defn, RewriteRule, Comment]


class DkDocument(Record):
    __slots__ = _fields = ("module", "items")


def signature_items(doc: DkDocument) -> tuple:
    return tuple(it for it in doc.items if not isinstance(it, Comment))


RESERVED = frozenset({"Type", "def"})

# An error message shows at most MESSAGE_WIDTH characters.
MESSAGE_WIDTH = 600


def clip(text: str, width: int = MESSAGE_WIDTH) -> str:
    return text if len(text) <= width else text[: width - 3] + "..."


class ParseError(Exception):
    def __init__(self, line: int, column: int, expectation: str):
        super().__init__(f"line {line}, column {column}: expected {expectation}")
        self.line, self.column, self.expectation = line, column, expectation


# the tokens: a comment, a symbol, an identifier
_TOKEN = r"\(;.*?;\)|:=|-->|->|=>|[()\[\],:.]|[A-Za-z0-9_]+"
# The scan also meets what is not a token: a stray character, or the ';' after
# the '(' of an unclosed comment, which runs to the end of the text (so many
# openers cost one read, not one each).  Every alternative starts at a
# character that is not whitespace, so whitespace costs one step per character.
_SCAN = re.compile(_TOKEN + r"|(?<=\();.*\Z|\S", re.DOTALL)
_IS_TOKEN = re.compile(_TOKEN, re.DOTALL).fullmatch
_WORD = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")


class _Reader:
    """Recursive descent over the token strings.

    ``bound`` maps a name to its level, the number of binders around the
    binder that binds it (None: unbound); each binder saves and restores
    its entry, so a use is resolved by one lookup.  ``names`` interns the
    document's constants and, within a rule, maps its variables to ``Var``s.
    """

    def __init__(self, text: str):
        self.text = text
        self.toks = _SCAN.findall(text)
        self.i = 0
        self.bound: dict[str, Optional[int]] = {}
        self.names: dict[str, Term] = {}
        bad = {t for t in set(self.toks) if not _IS_TOKEN(t)}
        if bad:
            self.i = next(i for i, t in enumerate(self.toks) if t in bad)
            raise self.error("a token")
        self.toks.append("")  # the end of the text

    def error(self, expectation: str) -> ParseError:
        """A ``ParseError`` at the current token, found by scanning again."""
        text = self.text
        m = next(islice(_SCAN.finditer(text), self.i, None), None)
        at = len(text) if m is None else m.start()
        return ParseError(text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at), expectation)

    def expect(self, tok: str, what: str) -> None:
        if self.toks[self.i] != tok:
            raise self.error(what)
        self.i += 1

    def name(self, what: str) -> str:
        t = self.toks[self.i]
        if t[:1] not in _WORD or t in RESERVED:
            raise self.error(what)
        self.i += 1
        return t

    def atom(self, depth: int) -> Optional[Term]:
        t = self.toks[self.i]
        if t[:1] in _WORD:
            self.i += 1
            if t == "Type":
                return TYPE
            level = self.bound.get(t)
            if level is not None:
                return BVar(depth - 1 - level)
            c = self.names.get(t)
            if c is None:
                c = self.names[t] = Const(t)
            return c
        if t == "(":
            self.i += 1
            out = self.term(depth)
            self.expect(")", "')'")
            return out
        return None

    def app(self, depth: int) -> Term:
        fn = self.atom(depth)
        if fn is None:
            raise self.error("a term")
        while True:
            arg = self.atom(depth)
            if arg is None:
                return fn
            fn = App(fn, arg)

    def term(self, depth: int) -> Term:
        toks, i = self.toks, self.i
        t = toks[i]
        if t[:1] in _WORD and toks[i + 1] == ":":
            if t in RESERVED:
                raise self.error("a bound name")
            self.i = i + 2
            dom = self.app(depth)
            op = toks[self.i]
            if op == "->":
                cls = Prod
            elif op == "=>":
                cls = Abs
            else:
                raise self.error("'->' or '=>' after a binder")
            self.i += 1
            bound = self.bound
            outer = bound.get(t)
            bound[t] = depth
            body = self.term(depth + 1)
            bound[t] = outer  # None: not bound
            return cls(t, dom, body)
        left = self.app(depth)
        if toks[self.i] == "->":
            self.i += 1
            return Prod("_", left, self.term(depth + 1))
        return left

    def definiens(self, ty: Term) -> Term:
        """A definition's body, read against its declared type ``ty``: each
        leading ``x =>`` takes its domain from ``ty``'s matching product."""
        toks, bound = self.toks, self.bound
        heads: list[tuple[str, Term, Optional[int]]] = []
        while (t := toks[self.i])[:1] in _WORD and toks[self.i + 1] == "=>":
            if t in RESERVED:
                raise self.error("a bound name")
            self.i += 1
            if type(ty) is not Prod:
                raise self.error("':' (the declared type has no product here)")
            self.i += 1
            heads.append((t, ty.domain, bound.get(t)))
            bound[t] = len(heads) - 1
            ty = ty.body
        body = self.term(len(heads))
        for name, dom, outer in reversed(heads):
            bound[name] = outer
            body = Abs(name, dom, body)
        return body

    def rule(self) -> RewriteRule:
        ctx: list[tuple[str, Term]] = []
        names = self.names
        if self.toks[self.i] == "]":
            self.i += 1
        else:
            while True:
                name = self.name("a rule variable")
                self.expect(":", "':'")
                ctx.append((name, self.term(0)))
                names[name] = Var(name)
                t = self.toks[self.i]
                if t != "," and t != "]":
                    raise self.error("',' or ']'")
                self.i += 1
                if t == "]":
                    break
        lhs = self.term(0)
        self.expect("-->", "'-->'")
        rhs = self.term(0)
        self.expect(".", "'.'")
        for name, _ in ctx:
            names.pop(name, None)
        return RewriteRule(tuple(ctx), lhs, rhs)

    def document(self) -> DkDocument:
        toks = self.toks
        items: list[DocItem] = []
        module = ""
        first = True
        while True:
            t = toks[self.i]
            if not t:
                break
            if t.startswith("(;"):
                self.i += 1
                text = t[2:-2]
                if text.startswith(" ") and text.endswith(" "):
                    text = text[1:-1]
                if first and text.startswith("module "):
                    module = text[len("module "):]
                else:
                    items.append(Comment(text))
                first = False
                continue
            first = False
            if t == "def":
                self.i += 1
                name = self.name("a definition name")
                self.expect(":", "':'")
                ty = self.term(0)
                self.expect(":=", "':='")
                body = self.definiens(ty)
                self.expect(".", "'.'")
                items.append(Defn(name, ty, body))
            elif t == "[":
                self.i += 1
                items.append(self.rule())
            elif t[:1] in _WORD and t not in RESERVED:
                self.i += 1
                self.expect(":", "':'")
                ty = self.term(0)
                self.expect(".", "'.'")
                items.append(ConstDecl(t, ty))
            else:
                raise self.error("an item")
        return DkDocument(module, tuple(items))


def parse(text: str) -> DkDocument:
    """Scan ``text`` once into token strings, then read the items.  A token's
    position is computed only for a ``ParseError``."""
    return _Reader(text).document()


# ---------------------------------------------------------------------------
# The base signatures, as ``hol.dk`` writes them after its two header comments
# (the only ``hol.dk`` texts ``check`` takes); a backslash ends a line that the
# file continues.  Both modes end with the same two derived rules, definitions
# over ``AppThm`` and ``Refl``: a congruence with one side proved by reflexivity.

_DERIVED_RULES = """\
def ApTerm : a : type -> b : type -> f : term (arrow a b) -> x : term a -> y : term a -> \
proof (eq a x y) -> proof (eq b (f x) (f y)) := \
a => b => f => x => y => h => AppThm a b f f x y (Refl (arrow a b) f) h.
def ApThm : a : type -> b : type -> f : term (arrow a b) -> g : term (arrow a b) -> x : term a -> \
proof (eq (arrow a b) f g) -> proof (eq b (f x) (g x)) := \
a => b => f => g => x => h => AppThm a b f g x x h (Refl a x).
"""

BASE_TEXT = {
    "q0": """\
type : Type.
bool : type.
ind : type.
arrow : type -> type -> type.
term : type -> Type.
eq : a : type -> term (arrow a (arrow a bool)).
select : a : type -> term (arrow (arrow a bool) a).
[a : type, b : type] term (arrow a b) --> term a -> term b.
proof : term bool -> Type.
Refl : a : type -> x : term a -> proof (eq a x x).
FunExt : a : type -> b : type -> f : term (arrow a b) -> g : term (arrow a b) -> (x : term a -> \
proof (eq b (f x) (g x))) -> proof (eq (arrow a b) f g).
AppThm : a : type -> b : type -> f : term (arrow a b) -> g : term (arrow a b) -> x : term a -> \
y : term a -> proof (eq (arrow a b) f g) -> proof (eq a x y) -> proof (eq b (f x) (g y)).
PropExt : p : term bool -> q : term bool -> (proof q -> proof p) -> (proof p -> proof q) -> \
proof (eq bool p q).
EqMp : p : term bool -> q : term bool -> proof (eq bool p q) -> proof p -> proof q.
""" + _DERIVED_RULES,
    "pts": """\
type : Type.
bool : type.
ind : type.
arrow : type -> type -> type.
term : type -> Type.
[a : type, b : type] term (arrow a b) --> term a -> term b.
proof : term bool -> Type.
imp : term (arrow bool (arrow bool bool)).
forall : a : type -> term (arrow (arrow a bool) bool).
[p : term bool, q : term bool] proof (imp p q) --> proof p -> proof q.
[a : type, p : term (arrow a bool)] proof (forall a p) --> x : term a -> proof (p x).
def imp_intro : p : term bool -> q : term bool -> (proof p -> proof q) -> proof (imp p q) := \
p => q => h => h.
def imp_elim : p : term bool -> q : term bool -> proof (imp p q) -> proof p -> proof q := \
p => q => h => x => h x.
def eq : a : type -> term (arrow a (arrow a bool)) := \
a => x : term a => y : term a => forall (arrow a bool) (p : term (arrow a bool) => imp (p x) (p y)).
select : a : type -> term (arrow (arrow a bool) a).
def Refl : a : type -> x : term a -> proof (eq a x x) := \
a => x => q : term (arrow a bool) => h : proof (q x) => h.
def EqMp : p : term bool -> q : term bool -> proof (eq bool p q) -> proof p -> proof q := \
p => q => h => hp => h (b : term bool => b) hp.
def AppThm : a : type -> b : type -> f : term (arrow a b) -> g : term (arrow a b) -> x : term a -> \
y : term a -> proof (eq (arrow a b) f g) -> proof (eq a x y) -> proof (eq b (f x) (g y)) := \
a => b => f => g => x => y => hf => hx => q : term (arrow b bool) => h : proof (q (f x)) => \
hf (k : term (arrow a b) => q (k y)) (hx (z : term a => q (f z)) h).
FunExt : a : type -> b : type -> f : term (arrow a b) -> g : term (arrow a b) -> (x : term a -> \
proof (eq b (f x) (g x))) -> proof (eq (arrow a b) f g).
PropExt : p : term bool -> q : term bool -> (proof q -> proof p) -> (proof p -> proof q) -> \
proof (eq bool p q).
""" + _DERIVED_RULES,
}

_BASES: dict[str, Signature] = {}


def base_text(mode: str) -> str:
    """The text of the ``hol.dk`` that ``translate`` writes in ``mode``."""
    return f"(; module hol ;)\n(; base signature, mode {mode} ;)\n" + BASE_TEXT[mode]


def base_signature(mode: str) -> Signature:
    """The items of ``mode``'s base signature, parsed once per process."""
    if mode not in _BASES:
        _BASES[mode] = Signature(parse(BASE_TEXT[mode]).items)
    return _BASES[mode]


def base_mode(text: str) -> Optional[str]:
    """The mode whose ``hol.dk`` is ``text``, or None."""
    return next((mode for mode in BASE_TEXT if text == base_text(mode)), None)
