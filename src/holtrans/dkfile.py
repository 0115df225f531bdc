"""Serializer for the output document format, and its document records.

A document is an ordered sequence of declarations ``name : TYPE.``,
definitions ``def name : TYPE := TERM.``, rewrite rules
``[x : T, ...] LHS --> RHS.`` and comments ``(; ... ;)``.  ``Type`` is the
sort keyword, ``x : A -> B`` a product, ``x : A => M`` an abstraction,
juxtaposition application.  A definition ``def name : TYPE := x => M.``
may open its body with Dedukti's domain-free abstraction, allowed only
there: its domain is that of the declared type's matching product.  Items
reuse the kernel's signature item types, so a parsed document feeds
straight into the checker.  The grammar is this package's normative format;
compatibility with external checkers is best-effort only.  The reader
(``parse``, ``ParseError``; both names resolve here too) is
``holtrans.dkreader``, which also keeps the base signatures' text.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Union

from . import kernel
from .kernel import TYPE, Abs, App, Binder, BVar, Const, ConstDecl, Defn, Prod, RewriteRule, Sort, Term, Var


def __getattr__(name: str):
    if name in ("parse", "ParseError"):
        from . import dkreader

        return getattr(dkreader, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Comment(kernel.Record):
    __slots__ = _fields = ("text",)


DocItem = Union[ConstDecl, Defn, RewriteRule, Comment]


class DkDocument(kernel.Record):
    __slots__ = _fields = ("module", "items")


def signature_items(doc: DkDocument) -> tuple:
    return tuple(it for it in doc.items if not isinstance(it, Comment))


# ---------------------------------------------------------------------------
# Name mangling

RESERVED = frozenset({"Type", "def"})

def mangle(name: str) -> str:
    """Deterministic identifier image: dots to underscores, other foreign
    characters to hex escapes.  Collisions are resolved by
    ``translate.DkNamer``."""
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


# ---------------------------------------------------------------------------
# Emission

_TOP, _OPERAND, _APP_FN, _APP_ARG = 0, 1, 2, 3


class _Occurrences:
    """Where each identifier, and each binder's index, occurs in one printed
    term, by preorder position.

    The subterm at position ``p`` spans positions ``p .. p + size - 1``
    (every node counts one in ``size``), so one walk of the term answers
    "is this name used inside that binder's body" for every binder.  An
    index is keyed by the level of the binder it refers to, the number of
    binders around that binder, so "does this binder's body use its index"
    is the same question.  The walk happens on the first question.
    """

    __slots__ = ("_root", "_at")

    def __init__(self, root: Term):
        self._root = root
        self._at: Optional[dict[Union[str, int], list[int]]] = None

    def within(self, key: Union[str, int], start: int, size: int) -> bool:
        if self._at is None:
            self._at = {}
            stack = [(self._root, 0, 0)]  # a node, its position and its binder depth
            while stack:  # preorder, so each position list comes out sorted
                u, p, d = stack.pop()
                if isinstance(u, (Const, Var)):
                    self._at.setdefault(u.name, []).append(p)
                elif isinstance(u, BVar):  # a dangling one gets a negative level
                    self._at.setdefault(d - 1 - u.index, []).append(p)
                elif isinstance(u, App):
                    stack.append((u.arg, p + 1 + u.fn.size, d))
                    stack.append((u.fn, p + 1, d))
                elif isinstance(u, Binder):
                    stack.append((u.body, p + 1 + u.domain.size, d + 1))
                    stack.append((u.domain, p + 1, d))
        ps = self._at.get(key)
        if not ps:
            return False
        i = bisect_left(ps, start)
        return i < len(ps) and ps[i] < start + size


def _display(hint: str, inner: Term, at: int, scope: dict[str, int], occ: _Occurrences) -> str:
    """A binder name clashing with no enclosing binder, reserved word, or
    identifier used in ``inner`` (the body, at position ``at``)."""
    base = cand = mangle(hint)
    i = 1
    while scope.get(cand) or cand in RESERVED or occ.within(cand, at, inner.size):
        i += 1
        cand = f"{base}_{i}"
    return cand


def _fmt(
    t: Term, at: int, prec: int, names: list[str], scope: dict[str, int], occ: _Occurrences, declared: Optional[Term] = None
) -> str:
    """Render ``t``, found at preorder position ``at`` of ``occ``'s term.

    ``names`` holds the enclosing binders' display names, innermost last,
    and ``scope`` counts them by name; a binder extends both before its
    body and restores them after it.  ``declared``, given for a
    definition's body, is its declared type: an abstraction leading the
    body whose domain is that of ``declared``'s matching product prints as
    ``x => M``, and the reader takes the domain back from the type.
    """
    if isinstance(t, Sort):
        if t == TYPE:
            return "Type"
        raise ValueError("Kind is not expressible in the file format")
    if isinstance(t, (Const, Var)):
        return t.name
    if isinstance(t, BVar):
        if t.index >= len(names):
            raise ValueError(f"dangling bound variable #{t.index}")
        return names[-1 - t.index]
    if isinstance(t, App):
        fn = _fmt(t.fn, at + 1, _APP_FN, names, scope, occ)
        s = f"{fn} {_fmt(t.arg, at + 1 + t.fn.size, _APP_ARG, names, scope, occ)}"
        return f"({s})" if prec >= _APP_ARG else s
    inner_at = at + 1 + t.domain.size
    short = type(t) is Abs and type(declared) is Prod and t.domain == declared.domain
    dom = "" if short else _fmt(t.domain, at + 1, _OPERAND, names, scope, occ)
    if isinstance(t, Abs) or (t.body.bound and occ.within(len(names), inner_at, t.body.size)):
        name = _display(t.hint, t.body, inner_at, scope, occ)
        head = f"{name} => " if short else f"{name} : {dom} {'=>' if isinstance(t, Abs) else '->'} "
    else:
        name, head = "_", f"{dom} -> "
    names.append(name)
    scope[name] = scope.get(name, 0) + 1
    s = head + _fmt(t.body, inner_at, _TOP, names, scope, occ, declared.body if short else None)
    names.pop()
    scope[name] -= 1
    return f"({s})" if prec >= _OPERAND else s


def fmt_term(t: Term, declared: Optional[Term] = None) -> str:
    return _fmt(t, 0, _TOP, [], {}, _Occurrences(t), declared)


# An error message shows at most MESSAGE_WIDTH characters and each term in it
# a third of that, cut first to half as many nodes, so that the elision marker
# shows before the text is cut unless the names are long.
MESSAGE_WIDTH = 600
_TERM_WIDTH = MESSAGE_WIDTH // 3
_TERM_NODES = _TERM_WIDTH // 2
_ELIDED = Const("...")


def clip(text: str, width: int = MESSAGE_WIDTH) -> str:
    return text if len(text) <= width else text[: width - 3] + "..."


def _for_message(t: Term, left: list[int], depth: int) -> Term:
    """``t`` cut to its first ``left[0]`` nodes in preorder, one marker for
    each elided run; dangling indices and ``Kind``, which ``fmt_term``
    refuses, become names that print as ``#i`` and ``Kind``.  Only the
    nodes kept are visited."""
    if left[0] <= 0:
        return _ELIDED
    left[0] -= 1
    if isinstance(t, App):
        fn, arg = _for_message(t.fn, left, depth), _for_message(t.arg, left, depth)
        if arg is _ELIDED and (fn is _ELIDED or isinstance(fn, App) and fn.arg is _ELIDED):
            return fn
        return App(fn, arg)
    if isinstance(t, BVar):
        return t if t.index < depth else Var(f"#{t.index}")
    if isinstance(t, Binder):
        return type(t)(t.hint, _for_message(t.domain, left, depth), _for_message(t.body, left, depth + 1))
    return Const("Kind") if t == kernel.KIND else t


def fmt_message_term(t: Term) -> str:
    """``t`` as an error message shows it: in the emitter's syntax, cut to
    a fixed number of nodes and characters, so that rendering costs the
    same whatever the term's size."""
    return clip(fmt_term(_for_message(t, [_TERM_NODES], 0)), _TERM_WIDTH)


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
            lines.append(f"def {item.name} : {fmt_term(item.type)} := {fmt_term(item.body, item.type)}.")
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
