"""OpenTheory article parser and virtual machine.

An article is a newline-delimited command stream (format version 6).  The
VM is one mutable machine: each command pops its operands from a stack and
pushes its results, and ``def``/``remove`` update a sharing dictionary in
place.  A theorem object on the stack is the ``hol.Proof`` node that derives
it: building the node checks the rule and records its sequent, so a command
whose rule does not apply fails where it stands, and a node shared through
the dictionary is checked once.  Terms are typed as they are built, so an
ill-typed ``appTerm`` fails at that command.  Derived commands (``sym``,
``trans``, ``proveHyp``, ``betaConv``) are expanded into compositions of
the primitive rules, so the proof checker stays minimal.

The format defines a command by the objects it pops and pushes, and so
does the VM.  A number or string line parses to the object that it pushes,
which ``run`` pushes as it is.  In ``_HANDLERS``, a keyword that touches
nothing but the stack is one ``_rule`` row (operand classes and a builder),
and the ten that read or write the rest of the machine, or push two
objects, have their own handlers.
``serialize_article``, which regenerates an article from a finished run for
round-trip testing, lives in ``holtrans.artwriter`` and loads on first use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Union

from . import hol
from .kernel import Record
from .hol import (
    Abs,
    AbsRepThm,
    AbsThm,
    App,
    AppThm,
    Assume,
    Axiom,
    Beta,
    Const,
    DeductAntiSym,
    DefineConst,
    EqMp,
    HolSubst,
    HolTerm,
    HolType,
    Proof,
    Refl,
    RepAbsThm,
    Subst,
    TyOp,
    TypeOpDef,
    TyVar,
    Var,
    make_sequent,
)


def __getattr__(name: str):
    if name == "serialize_article":
        from .artwriter import serialize_article

        return serialize_article
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ArticleError(Exception):
    pass


class UnknownCommand(ArticleError):
    pass


class MalformedString(ArticleError):
    pass


class VMError(ArticleError):
    pass


class StackUnderflow(VMError):
    pass


class TypeErrorOnStack(VMError):
    pass


class SequentMismatch(VMError):
    pass


class UnsupportedVersion(VMError):
    pass


# ---------------------------------------------------------------------------
# Stack objects


class _Boxed(Record):
    """A stack object other than a theorem, or a keyword command: one value,
    named ``_fields[0]`` and set by the subclass's own ``__init__``.  Only
    that value is compared and hashed; a parsed number, string or keyword
    also keeps the ``line`` it stood on, which its repr shows."""

    __slots__ = ()

    def _values(self) -> tuple:
        return (getattr(self, self._fields[0]),)


class ONum(_Boxed):
    __slots__ = _fields = ("value", "line")

    def __init__(self, value: int, line: int = 0) -> None:
        self.value = value
        self.line = line


class OName(_Boxed):
    __slots__ = _fields = ("value", "line")

    def __init__(self, value: str, line: int = 0) -> None:
        self.value = value
        self.line = line


class OList(_Boxed):
    __slots__ = _fields = ("items",)

    def __init__(self, items: tuple) -> None:
        self.items = items


class OTypeOp(_Boxed):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class OType(_Boxed):
    __slots__ = _fields = ("type",)

    def __init__(self, type: HolType) -> None:
        self.type = type


class OConst(_Boxed):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class OVar(_Boxed):
    __slots__ = _fields = ("var",)

    def __init__(self, var: Var) -> None:
        self.var = var


class OTerm(_Boxed):
    __slots__ = _fields = ("term",)

    def __init__(self, term: HolTerm) -> None:
        self.term = term


# ---------------------------------------------------------------------------
# Commands

class Keyword(_Boxed):
    __slots__ = _fields = ("name", "line")

    def __init__(self, name: str, line: int = 0):
        self.name = name
        self.line = line


# A number or string line is the object that it pushes.
ArticleCommand = Union[ONum, OName, Keyword]

_INT_RE = re.compile(r"-?[0-9]+\Z")


def _parse_quoted(line: str, lineno: int) -> str:
    if len(line) < 2 or not line.endswith('"'):
        raise MalformedString(f"line {lineno}: unterminated string")
    out: list[str] = []
    i = 1
    end = len(line) - 1
    while i < end:
        ch = line[i]
        if ch == '"':
            raise MalformedString(f"line {lineno}: unescaped quote inside string")
        if ch == "\\":
            if i + 1 >= end:
                raise MalformedString(f"line {lineno}: dangling escape")
            nxt = line[i + 1]
            # only quote and backslash are escapes; keep anything else verbatim
            out.append(nxt if nxt in ('"', "\\") else "\\" + nxt)
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def _iter_article(data: Union[str, bytes]) -> Iterator[ArticleCommand]:
    """One command per non-comment line, parsed as it is reached; ``#``
    lines and blank lines are skipped."""
    try:
        text = data.decode("utf-8-sig") if isinstance(data, bytes) else data
    except UnicodeDecodeError as e:
        at = e.start + len(data) - len(e.object)  # utf-8-sig counts from after a byte-order mark
        raise ArticleError(f"not UTF-8: byte 0x{data[at]:02x} at offset {at}") from None
    # splitlines ends a line at "\r" too, so no line holds one; the checks
    # come most frequent first, and no line passes two of them
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line in _HANDLERS:  # the keywords
            yield Keyword(line, lineno)
        elif line.isdigit() and line.isascii() or _INT_RE.match(line):
            yield ONum(int(line), lineno)
        elif line.startswith('"'):
            yield OName(_parse_quoted(line, lineno), lineno)
        elif line.strip() and not line.startswith("#"):
            raise UnknownCommand(f"line {lineno}: unknown command {line!r}")


def parse_article(data: Union[str, bytes]) -> list[ArticleCommand]:
    """The whole article's commands, as ``_iter_article`` yields them."""
    return list(_iter_article(data))


@dataclass
class VMState:
    """The article machine: one run's state, changed in place by ``run``.

    The top of ``stack`` is its last element.  ``constants`` holds
    authoritative generic types (built-ins and defined constants, checked
    strictly); ``externals`` holds provisional generics for undefined
    imported constants, widened by anti-unification as new instances
    appear.  ``theorems`` holds ``(stated sequent, proof)`` pairs in export
    order; a type definition's two theorems are pushed on the stack, and
    reach the translation only through the proofs that use them.  A command
    that raises leaves the machine in an unspecified state.
    """

    stack: list = field(default_factory=list)
    dictionary: dict = field(default_factory=dict)
    theorems: list = field(default_factory=list)
    # name -> generic HolType
    constants: dict = field(default_factory=lambda: {hol.EQ: hol.eq_generic(), hol.SELECT: hol.select_generic()})
    externals: dict = field(default_factory=dict)  # name -> provisional generic
    typeops: dict = field(default_factory=lambda: dict(hol.BUILTIN_TYPE_ARITY))  # name -> arity
    versioned: bool = False

    def pop(self, cls, cmd: str):
        """Remove and return the top object, which must be a ``cls``."""
        if not self.stack:
            raise StackUnderflow(f"{cmd}: stack underflow")
        top = self.stack.pop()
        if not isinstance(top, cls):
            raise TypeErrorOnStack(f"{cmd}: expected {cls.__name__}, found {type(top).__name__}")
        return top


def _unbox(obj: OList, cls, message: str) -> tuple:
    """The values boxed in the list ``obj``, whose items must all be ``cls``
    objects; else ``message`` is the error."""
    field = cls._fields[0]
    values = []
    for it in obj.items:
        if not isinstance(it, cls):
            raise TypeErrorOnStack(message)
        values.append(getattr(it, field))
    return tuple(values)


def _pairs(obj: OList, first, second, kind: str) -> tuple:
    """The value pairs boxed in ``obj``, a list of ``[first, second]`` lists:
    one half of a ``subst`` operand, ``kind`` naming which."""
    pairs = []
    for entry in obj.items:
        items = entry.items if isinstance(entry, OList) else ()
        if not (len(items) == 2 and isinstance(items[0], first) and isinstance(items[1], second)):
            raise TypeErrorOnStack(f"subst: malformed {kind} substitution entry")
        a, b = items
        pairs.append((getattr(a, first._fields[0]), getattr(b, second._fields[0])))
    return tuple(pairs)


def _parse_subst(obj: OList) -> HolSubst:
    if len(obj.items) != 2:
        raise TypeErrorOnStack("subst: expected a two-element list")
    theta, sigma = obj.items
    if not isinstance(theta, OList) or not isinstance(sigma, OList):
        raise TypeErrorOnStack("subst: expected a pair of lists")
    return HolSubst(_pairs(theta, OName, OType, "type"), _pairs(sigma, OVar, OTerm, "term"))


# Derived-rule expansions (kept out of the proof checker).


def sym_proof(d: Proof) -> Proof:
    m, _ = hol.dest_eq(d.sequent.concl)
    eq = hol.eq_const(m.type)
    congr = AppThm(AppThm(Refl(eq), d), Refl(m))  # |- (m=m) = (n=m)
    return EqMp(congr, Refl(m))


def trans_proof(d1: Proof, d2: Proof) -> Proof:
    x, _ = hol.dest_eq(d1.sequent.concl)
    congr = AppThm(Refl(App(hol.eq_const(x.type), x)), d2)  # |- (x=y) = (x=z)
    return EqMp(congr, d1)


def prove_hyp_proof(d_phi: Proof, d_psi: Proof) -> Proof:
    return EqMp(DeductAntiSym(d_phi, d_psi), d_phi)


def beta_conv_proof(redex: HolTerm) -> Proof:
    if not (isinstance(redex, App) and isinstance(redex.fn, Abs)):
        raise TypeErrorOnStack("betaConv: term is not a beta redex")
    lam = redex.fn
    return Subst(HolSubst(sigma=((lam.var, redex.arg),)), Beta(lam.var, lam.body))


def _auto_const(state: VMState, name: str, ty: HolType, cmd: str) -> None:
    """Check a constant instance.

    Authoritative constants are checked strictly.  Unknown imported
    constants adopt the first-seen type; a later incompatible instance
    widens the provisional generic to the least general generalization, so
    every instance seen during the run matches the final generic.
    """
    generic = state.constants.get(name)
    if generic is not None:
        if hol.match_type(generic, ty) is None:
            raise TypeErrorOnStack(f"{cmd}: {name} at {hol.fmt_type(ty)} is not an instance of {hol.fmt_type(generic)}")
        return
    provisional = state.externals.get(name)
    if provisional is None:
        state.externals[name] = ty
    elif hol.match_type(provisional, ty) is None:
        state.externals[name] = hol.anti_unify(provisional, ty)


def _rule(name: str, fn: Callable, *classes) -> tuple[str, Callable[[VMState], None]]:
    """A command that only uses the stack, as a ``(name, handler)`` row.

    The handler pops one operand per class in ``classes`` (listed bottom
    first, popped top first; ``None`` takes any object), calls ``fn`` on
    them bottom first and pushes what it returns, unless that is None.
    Operands that fit are taken off the stack directly; otherwise
    ``VMState.pop`` takes them and raises its error.  Each arity has its
    own closure: popping through a loop is slower.
    """
    pop = VMState.pop
    classes = tuple(object if c is None else c for c in classes)
    if not classes:
        def handler(state: VMState) -> None:
            state.stack.append(fn())
    elif len(classes) == 1:
        (a,) = classes

        def handler(state: VMState) -> None:
            stack = state.stack
            out = fn(stack.pop() if stack and isinstance(stack[-1], a) else pop(state, a, name))
            if out is not None:
                stack.append(out)
    else:
        a, b = classes

        def handler(state: VMState) -> None:
            stack = state.stack
            if len(stack) > 1 and isinstance(stack[-1], b) and isinstance(stack[-2], a):
                y = stack.pop()
                out = fn(stack.pop(), y)
            else:
                y = pop(state, b, name)
                out = fn(pop(state, a, name), y)
            if out is not None:
                stack.append(out)
    return name, handler


# Commands that read or write more of the machine than its stack.  Each
# pops its operands (top first) and pushes its results bottom-first.


def _cmd_version(state: VMState) -> None:
    n = state.pop(ONum, "version")
    if state.versioned:
        raise UnsupportedVersion("duplicate version command")
    if n.value != 6:
        raise UnsupportedVersion(f"unsupported article version {n.value}")
    state.versioned = True


def _cmd_def(state: VMState) -> None:
    stack = state.stack  # def and ref are frequent: their number is popped here
    n = stack.pop() if stack and stack[-1].__class__ is ONum else state.pop(ONum, "def")
    if not stack:
        raise StackUnderflow("def: no object to store")
    state.dictionary[n.value] = stack[-1]


def _cmd_ref(state: VMState) -> None:
    stack = state.stack
    n = stack.pop() if stack and stack[-1].__class__ is ONum else state.pop(ONum, "ref")
    obj = state.dictionary.get(n.value)
    if obj is None:
        raise VMError(f"ref: undefined dictionary key {n.value}")
    stack.append(obj)


def _cmd_remove(state: VMState) -> None:
    n = state.pop(ONum, "remove")
    if n.value not in state.dictionary:
        raise VMError(f"remove: undefined dictionary key {n.value}")
    state.stack.append(state.dictionary.pop(n.value))


def _cmd_const_term(state: VMState) -> None:
    ty = state.pop(OType, "constTerm")
    c = state.pop(OConst, "constTerm")
    _auto_const(state, c.name, ty.type, "constTerm")
    state.stack.append(OTerm(Const(c.name, ty.type)))


def _cmd_op_type(state: VMState) -> None:
    l = state.pop(OList, "opType")
    op = state.pop(OTypeOp, "opType")
    args = _unbox(l, OType, "opType: expected a list of types")
    arity = state.typeops.setdefault(op.name, len(args))
    if arity != len(args):
        raise TypeErrorOnStack(f"opType: {op.name} expects {arity} arguments, got {len(args)}")
    state.stack.append(OType(TyOp(op.name, args)))


def _cmd_hd_tl(state: VMState) -> None:
    """Pop a non-empty list; push its head, then its tail."""
    l = state.pop(OList, "hdTl")
    if not l.items:
        raise TypeErrorOnStack("hdTl: expected a non-empty list")
    state.stack += (l.items[0], OList(l.items[1:]))


def _cmd_define_const(state: VMState) -> None:
    t = state.pop(OTerm, "defineConst")
    n = state.pop(OName, "defineConst")
    if n.value in state.constants or n.value in state.externals:
        raise VMError(f"defineConst: constant {n.value} already declared")
    thm = DefineConst(n.value, t.term)
    state.constants[n.value] = t.term.type
    state.stack += (OConst(n.value), thm)


def _cmd_define_type_op(state: VMState) -> None:
    t = state.pop(Proof, "defineTypeOp")
    l = state.pop(OList, "defineTypeOp")
    r = state.pop(OName, "defineTypeOp")
    a = state.pop(OName, "defineTypeOp")
    n = state.pop(OName, "defineTypeOp")
    if n.value in state.typeops:
        raise VMError(f"defineTypeOp: type operator {n.value} already declared")
    for cname in (a.value, r.value):
        if cname in state.constants or cname in state.externals:
            raise VMError(f"defineTypeOp: constant {cname} already declared")
    tyvars = _unbox(l, OName, "defineTypeOp: expected a list of names")
    defn = TypeOpDef(n.value, a.value, r.value, tyvars, t)
    abs_thm = AbsRepThm(defn)  # validates the witness and keeps its pieces in ``defn.shape``
    rep_thm = RepAbsThm(defn)
    _, carrier, new_ty = defn.shape
    state.constants[a.value] = hol.fn(carrier, new_ty)
    state.constants[r.value] = hol.fn(new_ty, carrier)
    state.typeops[n.value] = len(tyvars)
    state.stack += (OTypeOp(n.value), OConst(a.value), OConst(r.value), abs_thm, rep_thm)


def _cmd_thm(state: VMState) -> None:
    concl = state.pop(OTerm, "thm")
    l = state.pop(OList, "thm")
    t = state.pop(Proof, "thm")
    stated = make_sequent(_unbox(l, OTerm, "thm: expected a list of terms"), concl.term)
    proved = t.sequent
    if not proved.alpha_eq(stated):
        if not hol.alpha_equal(proved.concl, stated.concl):
            raise SequentMismatch("thm: the stated conclusion differs from the proved one")
        raise SequentMismatch(
            f"thm: the stated hypotheses differ from the proved ones "
            f"({len(stated.hyps)} stated, {len(proved.hyps)} proved)"
        )
    state.theorems.append((stated, t))


# Every keyword command: its name maps to its handler.
_HANDLERS: dict[str, Callable[[VMState], None]] = dict((
    _rule("absTerm", lambda v, b: OTerm(Abs(v.var, b.term)), OVar, OTerm),
    _rule("absThm", lambda v, t: AbsThm(v.var, t), OVar, Proof),
    _rule("appTerm", lambda f, x: OTerm(App(f.term, x.term)), OTerm, OTerm),
    _rule("appThm", AppThm, Proof, Proof),
    _rule("assume", lambda t: Assume(t.term), OTerm),
    _rule("axiom", lambda l, t: Axiom(_unbox(l, OTerm, "axiom: expected a list of terms"), t.term), OList, OTerm),
    _rule("betaConv", lambda t: beta_conv_proof(t.term), OTerm),
    _rule("cons", lambda head, tail: OList((head,) + tail.items), None, OList),
    _rule("const", lambda n: OConst(n.value), OName),
    _rule("deductAntisym", DeductAntiSym, Proof, Proof),
    _rule("eqMp", EqMp, Proof, Proof),
    _rule("nil", lambda: OList(())),
    _rule("pop", lambda obj: None, None),
    _rule("pragma", lambda obj: None, None),
    _rule("proveHyp", prove_hyp_proof, Proof, Proof),
    _rule("refl", lambda t: Refl(t.term), OTerm),
    _rule("subst", lambda s, t: Subst(_parse_subst(s), t), OList, Proof),
    _rule("sym", sym_proof, Proof),
    _rule("trans", trans_proof, Proof, Proof),
    _rule("typeOp", lambda n: OTypeOp(n.value), OName),
    _rule("var", lambda n, ty: OVar(Var(n.value, ty.type)), OName, OType),
    _rule("varTerm", lambda v: OTerm(v.var), OVar),
    _rule("varType", lambda n: OType(TyVar(n.value)), OName),
    ("version", _cmd_version),
    ("def", _cmd_def),
    ("ref", _cmd_ref),
    ("remove", _cmd_remove),
    ("constTerm", _cmd_const_term),
    ("opType", _cmd_op_type),
    ("hdTl", _cmd_hd_tl),
    ("defineConst", _cmd_define_const),
    ("defineTypeOp", _cmd_define_type_op),
    ("thm", _cmd_thm),
))


def run(commands: Iterable[ArticleCommand]) -> VMState:
    """Execute the stream on a fresh machine: push each literal as it is and
    run each keyword's handler.  An error gains the index and source line
    of its command."""
    state = VMState()
    push = state.stack.append
    i = -1
    for i, cmd in enumerate(commands):
        try:
            if cmd.__class__ is not Keyword:
                push(cmd)
                continue
            name = cmd.name
            if not state.versioned and name != "version":
                raise UnsupportedVersion(f"{name}: article must begin with a version")
            handler = _HANDLERS.get(name)
            if handler is None:
                raise UnknownCommand(f"unknown command {name}")
            handler(state)
        except (ArticleError, hol.HolError) as e:
            e.command_index = i  # type: ignore[attr-defined]
            e.command_line = cmd.line  # type: ignore[attr-defined]
            raise
    if i < 0:
        raise UnsupportedVersion("empty article")
    return state


def run_text(data: Union[str, bytes]) -> VMState:
    """Parse and run the article line by line, so no list of its commands
    is kept through replay, and a failing command is reported before any
    malformed line after it."""
    return run(_iter_article(data))
