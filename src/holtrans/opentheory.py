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
does the VM.  A stack object is its own Python object, whose class is its
kind: a number, name or list is an ``int``, ``str`` or ``tuple``, a type a
``hol.HolType``, a term a ``hol.HolTerm`` and a theorem a ``hol.Proof``.
Only the kinds that class would not tell apart are boxed: a type operator
(``OTypeOp``) and a constant (``OConst``), which are names, and a variable
(``OVar``), which is a term too.  A number or string line parses to the
object that it pushes, which ``run`` pushes as it is.  In ``_HANDLERS``, a
keyword that touches nothing but the stack is one ``_rule`` row (operand
classes and a builder), and the ten that read or write the rest of the
machine, or push two objects, have their own handlers.
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
    """A stack object whose Python class would not tell its kind, or a
    keyword command: one value, named ``_fields[0]`` and set by the
    subclass's own ``__init__``.  Only that value is compared and hashed; a
    keyword also keeps the ``line`` it stood on, which its repr shows."""

    __slots__ = ()

    def _values(self) -> tuple:
        return (getattr(self, self._fields[0]),)


class OTypeOp(_Boxed):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class OConst(_Boxed):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class OVar(_Boxed):
    __slots__ = _fields = ("var",)

    def __init__(self, var: Var) -> None:
        self.var = var


# ---------------------------------------------------------------------------
# Commands

class Keyword(_Boxed):
    __slots__ = _fields = ("name", "line")

    def __init__(self, name: str, line: int = 0):
        self.name = name
        self.line = line


# A number or string line is the ``int`` or ``str`` that it pushes.
ArticleCommand = Union[int, str, Keyword]

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
            yield int(line)
        elif line.startswith('"'):
            yield _parse_quoted(line, lineno)
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


def _list_of(l: tuple, cls, message: str) -> tuple:
    """The list ``l``, whose items must all be ``cls`` objects; else
    ``message`` is the error."""
    for it in l:
        if not isinstance(it, cls):
            raise TypeErrorOnStack(message)
    return l


def _pairs(l: tuple, first, second, kind: str) -> None:
    """Check that ``l`` is a list of ``[first, second]`` lists: one half of
    a ``subst`` operand, ``kind`` naming which."""
    for entry in l:
        if not (entry.__class__ is tuple and len(entry) == 2
                and isinstance(entry[0], first) and isinstance(entry[1], second)):
            raise TypeErrorOnStack(f"subst: malformed {kind} substitution entry")


def _parse_subst(obj: tuple) -> HolSubst:
    if len(obj) != 2:
        raise TypeErrorOnStack("subst: expected a two-element list")
    theta, sigma = obj
    if theta.__class__ is not tuple or sigma.__class__ is not tuple:
        raise TypeErrorOnStack("subst: expected a pair of lists")
    _pairs(theta, str, HolType, "type")
    _pairs(sigma, OVar, HolTerm, "term")
    return HolSubst(theta, tuple((v.var, t) for v, t in sigma))


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
    n = state.pop(int, "version")
    if state.versioned:
        raise UnsupportedVersion("duplicate version command")
    if n != 6:
        raise UnsupportedVersion(f"unsupported article version {n}")
    state.versioned = True


def _cmd_def(state: VMState) -> None:
    stack = state.stack  # def and ref are frequent: their number is popped here
    n = stack.pop() if stack and stack[-1].__class__ is int else state.pop(int, "def")
    if not stack:
        raise StackUnderflow("def: no object to store")
    state.dictionary[n] = stack[-1]


def _cmd_ref(state: VMState) -> None:
    stack = state.stack
    n = stack.pop() if stack and stack[-1].__class__ is int else state.pop(int, "ref")
    obj = state.dictionary.get(n)
    if obj is None:
        raise VMError(f"ref: undefined dictionary key {n}")
    stack.append(obj)


def _cmd_remove(state: VMState) -> None:
    n = state.pop(int, "remove")
    if n not in state.dictionary:
        raise VMError(f"remove: undefined dictionary key {n}")
    state.stack.append(state.dictionary.pop(n))


def _cmd_const_term(state: VMState) -> None:
    ty = state.pop(HolType, "constTerm")
    c = state.pop(OConst, "constTerm")
    _auto_const(state, c.name, ty, "constTerm")
    state.stack.append(Const(c.name, ty))


def _cmd_op_type(state: VMState) -> None:
    l = state.pop(tuple, "opType")
    op = state.pop(OTypeOp, "opType")
    args = _list_of(l, HolType, "opType: expected a list of types")
    arity = state.typeops.setdefault(op.name, len(args))
    if arity != len(args):
        raise TypeErrorOnStack(f"opType: {op.name} expects {arity} arguments, got {len(args)}")
    state.stack.append(TyOp(op.name, args))


def _cmd_hd_tl(state: VMState) -> None:
    """Pop a non-empty list; push its head, then its tail."""
    l = state.pop(tuple, "hdTl")
    if not l:
        raise TypeErrorOnStack("hdTl: expected a non-empty list")
    state.stack += (l[0], l[1:])


def _cmd_define_const(state: VMState) -> None:
    t = state.pop(HolTerm, "defineConst")
    n = state.pop(str, "defineConst")
    if n in state.constants or n in state.externals:
        raise VMError(f"defineConst: constant {n} already declared")
    thm = DefineConst(n, t)
    state.constants[n] = t.type
    state.stack += (OConst(n), thm)


def _cmd_define_type_op(state: VMState) -> None:
    t = state.pop(Proof, "defineTypeOp")
    l = state.pop(tuple, "defineTypeOp")
    r = state.pop(str, "defineTypeOp")
    a = state.pop(str, "defineTypeOp")
    n = state.pop(str, "defineTypeOp")
    if n in state.typeops:
        raise VMError(f"defineTypeOp: type operator {n} already declared")
    for cname in (a, r):
        if cname in state.constants or cname in state.externals:
            raise VMError(f"defineTypeOp: constant {cname} already declared")
    tyvars = _list_of(l, str, "defineTypeOp: expected a list of names")
    defn = TypeOpDef(n, a, r, tyvars, t)
    abs_thm = AbsRepThm(defn)  # validates the witness and keeps its pieces in ``defn.shape``
    rep_thm = RepAbsThm(defn)
    _, carrier, new_ty = defn.shape
    state.constants[a] = hol.fn(carrier, new_ty)
    state.constants[r] = hol.fn(new_ty, carrier)
    state.typeops[n] = len(tyvars)
    state.stack += (OTypeOp(n), OConst(a), OConst(r), abs_thm, rep_thm)


def _cmd_thm(state: VMState) -> None:
    concl = state.pop(HolTerm, "thm")
    l = state.pop(tuple, "thm")
    t = state.pop(Proof, "thm")
    stated = make_sequent(_list_of(l, HolTerm, "thm: expected a list of terms"), concl)
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
    _rule("absTerm", lambda v, b: Abs(v.var, b), OVar, HolTerm),
    _rule("absThm", lambda v, t: AbsThm(v.var, t), OVar, Proof),
    _rule("appTerm", App, HolTerm, HolTerm),
    _rule("appThm", AppThm, Proof, Proof),
    _rule("assume", Assume, HolTerm),
    _rule("axiom", lambda l, t: Axiom(_list_of(l, HolTerm, "axiom: expected a list of terms"), t), tuple, HolTerm),
    _rule("betaConv", beta_conv_proof, HolTerm),
    _rule("cons", lambda head, tail: (head,) + tail, None, tuple),
    _rule("const", OConst, str),
    _rule("deductAntisym", DeductAntiSym, Proof, Proof),
    _rule("eqMp", EqMp, Proof, Proof),
    _rule("nil", tuple),
    _rule("pop", lambda obj: None, None),
    _rule("pragma", lambda obj: None, None),
    _rule("proveHyp", prove_hyp_proof, Proof, Proof),
    _rule("refl", Refl, HolTerm),
    _rule("subst", lambda s, t: Subst(_parse_subst(s), t), tuple, Proof),
    _rule("sym", sym_proof, Proof),
    _rule("trans", trans_proof, Proof, Proof),
    _rule("typeOp", OTypeOp, str),
    _rule("var", lambda n, ty: OVar(Var(n, ty)), str, HolType),
    _rule("varTerm", lambda v: v.var, OVar),
    _rule("varType", TyVar, str),
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
    of its command; a stream with no ``version`` fails at its end."""
    state = VMState()
    push = state.stack.append
    for i, cmd in enumerate(commands):
        if cmd.__class__ is not Keyword:
            push(cmd)
            continue
        try:
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
    if not state.versioned:
        raise UnsupportedVersion("article has no version command")
    return state


def run_text(data: Union[str, bytes]) -> VMState:
    """Parse and run the article line by line, so no list of its commands
    is kept through replay, and a failing command is reported before any
    malformed line after it."""
    return run(_iter_article(data))
