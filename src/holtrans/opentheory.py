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
``serialize_article`` regenerates an article from a finished run for
round-trip testing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Union

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
# Commands

class _Token(Record):
    """A parsed command: its value and the ``line`` it stood on, which
    equality and hashing ignore."""

    __slots__ = ()

    def _values(self) -> tuple:
        return (getattr(self, self._fields[0]),)


class IntLiteral(_Token):
    __slots__ = _fields = ("value", "line")

    def __init__(self, value: int, line: int = 0):
        self.value = value
        self.line = line


class StringLiteral(_Token):
    __slots__ = _fields = ("value", "line")

    def __init__(self, value: str, line: int = 0):
        self.value = value
        self.line = line


class Keyword(_Token):
    __slots__ = _fields = ("name", "line")

    def __init__(self, name: str, line: int = 0):
        self.name = name
        self.line = line


ArticleCommand = Union[IntLiteral, StringLiteral, Keyword]

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


def parse_article(data: Union[str, bytes]) -> list[ArticleCommand]:
    """One command per non-comment line; ``#`` lines and blank lines are skipped."""
    try:
        text = data.decode("utf-8-sig") if isinstance(data, bytes) else data
    except UnicodeDecodeError as e:
        at = e.start + len(data) - len(e.object)  # utf-8-sig counts from after a byte-order mark
        raise ArticleError(f"not UTF-8: byte 0x{data[at]:02x} at offset {at}") from None
    commands: list[ArticleCommand] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\r")
        if not line.strip() or line.startswith("#"):
            continue
        if line.startswith('"'):
            commands.append(StringLiteral(_parse_quoted(line, lineno), lineno))
        elif _INT_RE.match(line):
            commands.append(IntLiteral(int(line), lineno))
        elif line in _HANDLERS:  # the keywords
            commands.append(Keyword(line, lineno))
        else:
            raise UnknownCommand(f"line {lineno}: unknown command {line!r}")
    return commands


# ---------------------------------------------------------------------------
# Stack objects


class _Boxed(Record):
    """A stack object other than a theorem: one value, named ``_fields[0]``."""

    __slots__ = ()

    def __init__(self, value) -> None:
        setattr(self, self._fields[0], value)


class ONum(_Boxed):
    __slots__ = _fields = ("value",)


class OName(_Boxed):
    __slots__ = _fields = ("value",)


class OList(_Boxed):
    __slots__ = _fields = ("items",)


class OTypeOp(_Boxed):
    __slots__ = _fields = ("name",)


class OType(_Boxed):
    __slots__ = _fields = ("type",)


class OConst(_Boxed):
    __slots__ = _fields = ("name",)


class OVar(_Boxed):
    __slots__ = _fields = ("var",)


class OTerm(_Boxed):
    __slots__ = _fields = ("term",)


StackObject = Union[ONum, OName, OList, OTypeOp, OType, OConst, OVar, OTerm, Proof]


@dataclass
class VMState:
    """The article machine: one run's state, changed in place by ``step``.

    The top of ``stack`` is its last element.  ``constants`` holds
    authoritative generic types (built-ins and defined constants, checked
    strictly); ``externals`` holds provisional generics for undefined
    imported constants, widened by anti-unification as new instances
    appear.  ``theorems`` holds ``(stated sequent, proof)`` pairs in export
    order, and ``typeop_thms`` the ``(AbsRepThm, RepAbsThm)`` pair of each
    type definition.  A step that raises leaves the machine in an
    unspecified state.
    """

    stack: list = field(default_factory=list)
    dictionary: dict = field(default_factory=dict)
    assumptions: list = field(default_factory=list)
    theorems: list = field(default_factory=list)
    # name -> generic HolType
    constants: dict = field(default_factory=lambda: {hol.EQ: hol.eq_generic(), hol.SELECT: hol.select_generic()})
    externals: dict = field(default_factory=dict)  # name -> provisional generic
    typeops: dict = field(default_factory=lambda: dict(hol.BUILTIN_TYPE_ARITY))  # name -> arity
    typeop_thms: list = field(default_factory=list)
    versioned: bool = False

    def pop(self, cls, cmd: str):
        """Remove and return the top object, which must be a ``cls`` unless
        ``cls`` is None."""
        if not self.stack:
            raise StackUnderflow(f"{cmd}: stack underflow")
        top = self.stack.pop()
        if cls is not None and not isinstance(top, cls):
            raise TypeErrorOnStack(f"{cmd}: expected {cls.__name__}, found {type(top).__name__}")
        return top

    def push(self, *objs: StackObject) -> None:
        """Push ``objs`` in order, so the last one ends on top."""
        self.stack.extend(objs)


def _name_list(obj: OList, cmd: str) -> list[str]:
    names = []
    for it in obj.items:
        if not isinstance(it, OName):
            raise TypeErrorOnStack(f"{cmd}: expected a list of names")
        names.append(it.value)
    return names


def _term_list(obj: OList, cmd: str) -> list[HolTerm]:
    terms = []
    for it in obj.items:
        if not isinstance(it, OTerm):
            raise TypeErrorOnStack(f"{cmd}: expected a list of terms")
        terms.append(it.term)
    return terms


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


def step(state: VMState, cmd: ArticleCommand) -> None:
    """Execute one command on ``state`` in place."""
    if isinstance(cmd, IntLiteral):
        state.push(ONum(cmd.value))
        return
    if isinstance(cmd, StringLiteral):
        state.push(OName(cmd.value))
        return
    assert isinstance(cmd, Keyword)
    if not state.versioned and cmd.name != "version":
        raise UnsupportedVersion(f"{cmd.name}: article must begin with a version")
    handler = _HANDLERS.get(cmd.name)
    if handler is None:
        raise UnknownCommand(f"unknown command {cmd.name}")
    handler(state)


# Each handler pops its operands (top first) and pushes its results
# bottom-first.


def _cmd_version(state: VMState) -> None:
    n = state.pop(ONum, "version")
    if state.versioned:
        raise UnsupportedVersion("duplicate version command")
    if n.value != 6:
        raise UnsupportedVersion(f"unsupported article version {n.value}")
    state.versioned = True


def _cmd_abs_term(state: VMState) -> None:
    b = state.pop(OTerm, "absTerm")
    v = state.pop(OVar, "absTerm")
    state.push(OTerm(Abs(v.var, b.term)))


def _cmd_abs_thm(state: VMState) -> None:
    t = state.pop(Proof, "absThm")
    v = state.pop(OVar, "absThm")
    state.push(AbsThm(v.var, t))


def _cmd_app_term(state: VMState) -> None:
    x = state.pop(OTerm, "appTerm")
    f = state.pop(OTerm, "appTerm")
    state.push(OTerm(App(f.term, x.term)))


def _cmd_app_thm(state: VMState) -> None:
    x = state.pop(Proof, "appThm")
    f = state.pop(Proof, "appThm")
    state.push(AppThm(f, x))


def _cmd_assume(state: VMState) -> None:
    t = state.pop(OTerm, "assume")
    state.push(Assume(t.term))


def _cmd_axiom(state: VMState) -> None:
    t = state.pop(OTerm, "axiom")
    l = state.pop(OList, "axiom")
    thm = Axiom(tuple(_term_list(l, "axiom")), t.term)
    state.assumptions.append(thm.sequent)
    state.push(thm)


def _cmd_beta_conv(state: VMState) -> None:
    t = state.pop(OTerm, "betaConv")
    state.push(beta_conv_proof(t.term))


def _cmd_cons(state: VMState) -> None:
    tail = state.pop(OList, "cons")
    head = state.pop(None, "cons")
    state.push(OList((head,) + tail.items))


def _cmd_const(state: VMState) -> None:
    n = state.pop(OName, "const")
    state.push(OConst(n.value))


def _cmd_const_term(state: VMState) -> None:
    ty = state.pop(OType, "constTerm")
    c = state.pop(OConst, "constTerm")
    _auto_const(state, c.name, ty.type, "constTerm")
    state.push(OTerm(Const(c.name, ty.type)))


def _cmd_deduct_antisym(state: VMState) -> None:
    t2 = state.pop(Proof, "deductAntisym")
    t1 = state.pop(Proof, "deductAntisym")
    state.push(DeductAntiSym(t1, t2))


def _cmd_def(state: VMState) -> None:
    n = state.pop(ONum, "def")
    if not state.stack:
        raise StackUnderflow("def: no object to store")
    state.dictionary[n.value] = state.stack[-1]


def _cmd_define_const(state: VMState) -> None:
    t = state.pop(OTerm, "defineConst")
    n = state.pop(OName, "defineConst")
    if n.value in state.constants or n.value in state.externals:
        raise VMError(f"defineConst: constant {n.value} already declared")
    thm = DefineConst(n.value, t.term)
    state.constants[n.value] = t.term.type
    state.push(OConst(n.value), thm)


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
    tyvars = tuple(_name_list(l, "defineTypeOp"))
    defn = TypeOpDef(n.value, a.value, r.value, tyvars, t)
    abs_thm = AbsRepThm(defn)
    rep_thm = RepAbsThm(defn)
    pred, carrier, new_ty = defn.pieces(t.sequent)
    state.constants[a.value] = defn.abs_type(carrier, new_ty)
    state.constants[r.value] = defn.rep_type(carrier, new_ty)
    state.typeops[n.value] = len(tyvars)
    state.typeop_thms.append((abs_thm, rep_thm))
    state.push(OTypeOp(n.value), OConst(a.value), OConst(r.value), abs_thm, rep_thm)


def _cmd_eq_mp(state: VMState) -> None:
    t2 = state.pop(Proof, "eqMp")
    t1 = state.pop(Proof, "eqMp")
    state.push(EqMp(t1, t2))


def _cmd_nil(state: VMState) -> None:
    state.push(OList(()))


def _cmd_op_type(state: VMState) -> None:
    l = state.pop(OList, "opType")
    op = state.pop(OTypeOp, "opType")
    args = []
    for it in l.items:
        if not isinstance(it, OType):
            raise TypeErrorOnStack("opType: expected a list of types")
        args.append(it.type)
    arity = state.typeops.setdefault(op.name, len(args))
    if arity != len(args):
        raise TypeErrorOnStack(f"opType: {op.name} expects {arity} arguments, got {len(args)}")
    state.push(OType(TyOp(op.name, tuple(args))))


def _cmd_pop(state: VMState) -> None:
    state.pop(None, "pop")


def _cmd_pragma(state: VMState) -> None:
    state.pop(None, "pragma")


def _cmd_prove_hyp(state: VMState) -> None:
    t2 = state.pop(Proof, "proveHyp")
    t1 = state.pop(Proof, "proveHyp")
    state.push(prove_hyp_proof(t1, t2))


def _cmd_ref(state: VMState) -> None:
    n = state.pop(ONum, "ref")
    if n.value not in state.dictionary:
        raise VMError(f"ref: undefined dictionary key {n.value}")
    state.push(state.dictionary[n.value])


def _cmd_refl(state: VMState) -> None:
    t = state.pop(OTerm, "refl")
    state.push(Refl(t.term))


def _cmd_remove(state: VMState) -> None:
    n = state.pop(ONum, "remove")
    if n.value not in state.dictionary:
        raise VMError(f"remove: undefined dictionary key {n.value}")
    state.push(state.dictionary.pop(n.value))


def _parse_subst(obj: OList) -> HolSubst:
    if len(obj.items) != 2:
        raise TypeErrorOnStack("subst: expected a two-element list")
    theta_obj, sigma_obj = obj.items
    if not isinstance(theta_obj, OList) or not isinstance(sigma_obj, OList):
        raise TypeErrorOnStack("subst: expected a pair of lists")
    theta = []
    for entry in theta_obj.items:
        if (
            not isinstance(entry, OList)
            or len(entry.items) != 2
            or not isinstance(entry.items[0], OName)
            or not isinstance(entry.items[1], OType)
        ):
            raise TypeErrorOnStack("subst: malformed type substitution entry")
        theta.append((entry.items[0].value, entry.items[1].type))
    sigma = []
    for entry in sigma_obj.items:
        if (
            not isinstance(entry, OList)
            or len(entry.items) != 2
            or not isinstance(entry.items[0], OVar)
            or not isinstance(entry.items[1], OTerm)
        ):
            raise TypeErrorOnStack("subst: malformed term substitution entry")
        sigma.append((entry.items[0].var, entry.items[1].term))
    return HolSubst(tuple(theta), tuple(sigma))


def _cmd_subst(state: VMState) -> None:
    t = state.pop(Proof, "subst")
    s = state.pop(OList, "subst")
    state.push(Subst(_parse_subst(s), t))


def _cmd_sym(state: VMState) -> None:
    t = state.pop(Proof, "sym")
    state.push(sym_proof(t))


def _cmd_thm(state: VMState) -> None:
    concl = state.pop(OTerm, "thm")
    l = state.pop(OList, "thm")
    t = state.pop(Proof, "thm")
    stated = make_sequent(_term_list(l, "thm"), concl.term)
    proved = t.sequent
    if not proved.alpha_eq(stated):
        if not hol.alpha_equal(proved.concl, stated.concl):
            raise SequentMismatch("thm: the stated conclusion differs from the proved one")
        raise SequentMismatch(
            f"thm: the stated hypotheses differ from the proved ones "
            f"({len(stated.hyps)} stated, {len(proved.hyps)} proved)"
        )
    state.theorems.append((stated, t))


def _cmd_trans(state: VMState) -> None:
    t2 = state.pop(Proof, "trans")
    t1 = state.pop(Proof, "trans")
    state.push(trans_proof(t1, t2))


def _cmd_type_op(state: VMState) -> None:
    n = state.pop(OName, "typeOp")
    state.push(OTypeOp(n.value))


def _cmd_var(state: VMState) -> None:
    ty = state.pop(OType, "var")
    n = state.pop(OName, "var")
    state.push(OVar(Var(n.value, ty.type)))


def _cmd_var_term(state: VMState) -> None:
    v = state.pop(OVar, "varTerm")
    state.push(OTerm(v.var))


def _cmd_var_type(state: VMState) -> None:
    n = state.pop(OName, "varType")
    state.push(OType(TyVar(n.value)))


_HANDLERS: dict[str, Callable[[VMState], None]] = {
    "absTerm": _cmd_abs_term,
    "absThm": _cmd_abs_thm,
    "appTerm": _cmd_app_term,
    "appThm": _cmd_app_thm,
    "assume": _cmd_assume,
    "axiom": _cmd_axiom,
    "betaConv": _cmd_beta_conv,
    "cons": _cmd_cons,
    "const": _cmd_const,
    "constTerm": _cmd_const_term,
    "deductAntisym": _cmd_deduct_antisym,
    "def": _cmd_def,
    "defineConst": _cmd_define_const,
    "defineTypeOp": _cmd_define_type_op,
    "eqMp": _cmd_eq_mp,
    "nil": _cmd_nil,
    "opType": _cmd_op_type,
    "pop": _cmd_pop,
    "pragma": _cmd_pragma,
    "proveHyp": _cmd_prove_hyp,
    "ref": _cmd_ref,
    "refl": _cmd_refl,
    "remove": _cmd_remove,
    "subst": _cmd_subst,
    "sym": _cmd_sym,
    "thm": _cmd_thm,
    "trans": _cmd_trans,
    "typeOp": _cmd_type_op,
    "var": _cmd_var,
    "varTerm": _cmd_var_term,
    "varType": _cmd_var_type,
    "version": _cmd_version,
}


def run(commands: Iterable[ArticleCommand]) -> VMState:
    """Execute the stream on a fresh machine; step errors gain their
    command index and source line."""
    state = VMState()
    executed = False
    for i, cmd in enumerate(commands):
        executed = True
        try:
            step(state, cmd)
        except (ArticleError, hol.HolError) as e:
            e.command_index = i  # type: ignore[attr-defined]
            e.command_line = getattr(cmd, "line", 0)  # type: ignore[attr-defined]
            raise
    if not executed:
        raise UnsupportedVersion("empty article")
    return state


def run_text(data: Union[str, bytes]) -> VMState:
    return run(parse_article(data))


# ---------------------------------------------------------------------------
# Article regeneration


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.next_key = 0
        self.memo: dict[tuple[str, int], int] = {}
        self.typeop_memo: dict[int, tuple[int, int]] = {}
        self._keep: list = []  # keeps ids in memo alive

    def kw(self, name: str) -> None:
        self.lines.append(name)

    def num(self, n: int) -> None:
        self.lines.append(str(n))

    def name(self, s: str) -> None:
        quoted = s.replace("\\", "\\\\").replace('"', '\\"')
        self.lines.append(f'"{quoted}"')

    def _shared(self, kind: str, obj, build) -> None:
        key = self.memo.get((kind, id(obj)))
        if key is not None:
            self.num(key)
            self.kw("ref")
            return
        build(obj)
        key = self.next_key
        self.next_key += 1
        self.memo[(kind, id(obj))] = key
        self._keep.append(obj)
        self.num(key)
        self.kw("def")

    def list_of(self, items, emit_item) -> None:
        for it in items:
            emit_item(it)
        self.kw("nil")
        for _ in items:
            self.kw("cons")

    def type(self, ty: HolType) -> None:
        self._shared("ty", ty, self._type)

    def _type(self, ty: HolType) -> None:
        if isinstance(ty, TyVar):
            self.name(ty.name)
            self.kw("varType")
        else:
            assert isinstance(ty, TyOp)
            self.name(ty.op)
            self.kw("typeOp")
            self.list_of(ty.args, self.type)
            self.kw("opType")

    def var(self, v: Var) -> None:
        self._shared("var", v, self._var)

    def _var(self, v: Var) -> None:
        self.name(v.name)
        self.type(v.type)
        self.kw("var")

    def term(self, t: HolTerm) -> None:
        self._shared("tm", t, self._term)

    def _term(self, t: HolTerm) -> None:
        if isinstance(t, Var):
            self.var(t)
            self.kw("varTerm")
        elif isinstance(t, Const):
            self.name(t.name)
            self.kw("const")
            self.type(t.type)
            self.kw("constTerm")
        elif isinstance(t, Abs):
            self.var(t.var)
            self.term(t.body)
            self.kw("absTerm")
        else:
            assert isinstance(t, App)
            self.term(t.fn)
            self.term(t.arg)
            self.kw("appTerm")

    def proof(self, p: Proof) -> None:
        self._shared("pf", p, self._proof)

    def _typeop_def(self, defn: TypeOpDef) -> tuple[int, int]:
        keys = self.typeop_memo.get(id(defn))
        if keys is not None:
            return keys
        self.name(defn.op)
        self.name(defn.abs)
        self.name(defn.rep)
        self.list_of(defn.tyvars, self.name)
        self.proof(defn.sub)
        self.kw("defineTypeOp")
        rep_key = self.next_key
        self.next_key += 1
        self.num(rep_key)
        self.kw("def")
        self.kw("pop")
        abs_key = self.next_key
        self.next_key += 1
        self.num(abs_key)
        self.kw("def")
        for _ in range(4):
            self.kw("pop")
        self.typeop_memo[id(defn)] = (abs_key, rep_key)
        self._keep.append(defn)
        return abs_key, rep_key

    def _proof(self, p: Proof) -> None:
        if isinstance(p, Refl):
            self.term(p.term)
            self.kw("refl")
        elif isinstance(p, Assume):
            self.term(p.prop)
            self.kw("assume")
        elif isinstance(p, Beta):
            # no primitive command: re-enter through betaConv on the redex
            self.term(App(Abs(p.var, p.body), p.var))
            self.kw("betaConv")
        elif isinstance(p, AbsThm):
            self.var(p.var)
            self.proof(p.sub)
            self.kw("absThm")
        elif isinstance(p, AppThm):
            self.proof(p.fun)
            self.proof(p.arg)
            self.kw("appThm")
        elif isinstance(p, EqMp):
            self.proof(p.eq)
            self.proof(p.prem)
            self.kw("eqMp")
        elif isinstance(p, DeductAntiSym):
            self.proof(p.lhs)
            self.proof(p.rhs)
            self.kw("deductAntisym")
        elif isinstance(p, Subst):
            def theta_entry(e):
                self.name(e[0])
                self.type(e[1])
                self.kw("nil")
                self.kw("cons")
                self.kw("cons")

            def sigma_entry(e):
                self.var(e[0])
                self.term(e[1])
                self.kw("nil")
                self.kw("cons")
                self.kw("cons")

            self.list_of(p.subst.theta, theta_entry)
            self.list_of(p.subst.sigma, sigma_entry)
            self.kw("nil")
            self.kw("cons")
            self.kw("cons")
            self.proof(p.sub)
            self.kw("subst")
        elif isinstance(p, Axiom):
            self.list_of(p.hyps, self.term)
            self.term(p.concl)
            self.kw("axiom")
        elif isinstance(p, DefineConst):
            self.name(p.name)
            self.term(p.body)
            self.kw("defineConst")
            key = self.next_key
            self.next_key += 1
            self.num(key)
            self.kw("def")
            self.kw("pop")
            self.kw("pop")
            self.num(key)
            self.kw("ref")
        elif isinstance(p, AbsRepThm):
            abs_key, _ = self._typeop_def(p.defn)
            self.num(abs_key)
            self.kw("ref")
        elif isinstance(p, RepAbsThm):
            _, rep_key = self._typeop_def(p.defn)
            self.num(rep_key)
            self.kw("ref")
        else:
            raise ValueError(f"proof node not expressible as article commands: {p!r}")


def serialize_article(state: VMState) -> str:
    """Regenerate an article whose run exports alpha-equal sequents."""
    w = _Writer()
    w.lines.append("# regenerated article")
    w.num(6)
    w.kw("version")
    for seq, proof in state.theorems:
        w.proof(proof)
        w.list_of(seq.hyps, w.term)
        w.term(seq.concl)
        w.kw("thm")
    return "\n".join(w.lines) + "\n"
