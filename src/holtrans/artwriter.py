"""Article writer: ``serialize_article`` regenerates an OpenTheory article
from a finished run of the article machine, for round-trip testing.

No command writes articles, so this module is apart from the machine in
``holtrans.opentheory``, and ``opentheory.serialize_article`` loads it on
first use.
"""

from __future__ import annotations

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
)


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


def serialize_article(state) -> str:
    """Regenerate an article whose run exports alpha-equal sequents: the
    theorems of ``state``, an ``opentheory.VMState``."""
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
