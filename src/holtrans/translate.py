"""Translation of HOL types, terms, contexts and proofs into the encoding.

The base signature, written in ``dkreader.BASE_TEXT`` as ``hol.dk`` prints
it and read by ``dkreader``, declares a type of object-level types, a decoding
function ``term`` with one rewrite rule identifying ``term (arrow a b)``
with ``term a -> term b``, a provability predicate ``proof``, and one
proof constant per primitive derivation rule.  Because the embedding is
shallow, beta-equal HOL terms have convertible translations, so a beta step,
or a whole subtree of congruence steps over beta steps, is one reflexivity
step, an ``EqMp`` over such a subtree is its premise's proof, and
substitution is expressed by application, or by the application's
beta-reduct where that prints smaller and its premise is used once.

Two modes are supported: the equality-primitive one (``q0``) and an
alternative (``pts``) where implication and universal quantification are
primitive and provability itself is defined by rewriting; in the latter,
equality and several derivation rules become definitions.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from . import dkfile, dkreader, hol, kernel
from .kernel import (
    TYPE,
    Abs,
    App,
    ConstDecl,
    Const,
    Defn,
    Prod,
    Record,
    Signature,
    Term,
    Var,
    app,
    arrow,
    bind,
)


class TranslateError(Exception):
    pass


class UndeclaredTypeOp(TranslateError):
    pass


class UndeclaredConstant(TranslateError):
    pass


class InstanceMatchFailure(TranslateError):
    pass


class NotAProposition(TranslateError):
    pass


class DuplicateDeclaration(TranslateError):
    pass


# ---------------------------------------------------------------------------
# Kernel-side names.  Three disjoint namespaces for free variables keep HOL
# type variables, term variables (which are name+type pairs) and hypothesis
# references from ever colliding; binder hints keep the raw names for display.

_T = Const("type")
_TERM = Const("term")
_PROOF = Const("proof")

# the base signature's rule constants, one leaf each that every proof shares
_REFL = Const("Refl")
_FUNEXT = Const("FunExt")
_APPTHM = Const("AppThm")
_APTERM = Const("ApTerm")
_APTHM = Const("ApThm")
_PROPEXT = Const("PropExt")
_EQMP = Const("EqMp")


def tyvar_name(name: str) -> str:
    return "'" + name


def tyvar_ref(name: str) -> Var:
    return Var(tyvar_name(name))


# ---------------------------------------------------------------------------
# Base signatures: their text and the one parse of it are ``dkreader``'s.

def base_signature(mode: str = "q0") -> Signature:
    """``dkreader.base_signature``, with an unknown mode a ``TranslateError``."""
    if mode not in dkreader.BASE_TEXT:
        raise TranslateError(f"unknown mode {mode!r}")
    return dkreader.base_signature(mode)


# ---------------------------------------------------------------------------
# Translation environment


class DkNamer:
    """Per-document name table of the ``.dk`` identifiers the translator
    declares: injective on the names it has seen.  The translator asks only
    for prefixed names (``tm.``, ``ty.``, ``ax.``, ``thm_``), so none of
    them is a base signature's name."""

    def __init__(self):
        self.mapping: dict[str, str] = {}
        self.used: set[str] = set(dkfile.RESERVED)
        self.collisions: list[tuple[str, str]] = []

    def ident(self, name: str) -> str:
        hit = self.mapping.get(name)
        if hit is not None:
            return hit
        base = dkfile.mangle(name)
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


class _Entry(Record):
    __slots__ = ("const",)  # the kernel constant ``kname``: the one leaf every use shares

    def __init__(self, *values) -> None:
        super().__init__(*values)
        self.const = Const(self.kname)


class TypeOpInfo(_Entry):
    __slots__ = _fields = ("arity", "kname")


class ConstInfo(_Entry):
    """A declared constant: its generic type, the type variables its
    instances are applied to, in order, and its kernel name."""

    __slots__ = _fields = ("generic", "tyvars", "kname")


def _tyvars_in_order(ty: hol.HolType, acc: Optional[list[str]] = None) -> list[str]:
    """Free type variables in first-occurrence order."""
    if acc is None:
        acc = []
    if isinstance(ty, hol.TyVar):
        if ty.name not in acc:
            acc.append(ty.name)
    else:
        for a in ty.args:
            _tyvars_in_order(a, acc)
    return acc


class TranslationEnv:
    """Declared operators and constants plus everything accumulated while
    translating: the trusted declarations and the memo tables.

    ``namer`` gives every declared kernel constant its ``.dk`` identifier
    when the declaration is made, so terms refer to final names from the
    start.  Kernel names for term variables and hypotheses are interned
    here: each distinct ``hol.Var`` gets ``$<name>@<k>`` and each alpha
    class of hypotheses ``h@<k>``, so distinct variables never share a name.

    Proofs and compound terms are translated once per node, memoized by
    identity (``_keep`` holds each memoized node, so no id is reused); a
    term shared in the HOL DAG is one shared kernel term.  ``_declared``
    holds each trusted constant (``ax.``, ``tm.c.def``, ``ty.op.abs_rep``,
    ``ty.op.rep_abs``) applied to its binders' variables, by its key.
    ``uses`` counts how often the exported proofs reach each proof node
    (``use_counts``); a node it does not count is taken as shared, so an
    environment without counts keeps every redex.
    """

    def __init__(self):
        # the builtins, which the base signature declares
        self.typeops: dict[str, TypeOpInfo] = {
            "bool": TypeOpInfo(0, "bool"), "ind": TypeOpInfo(0, "ind"), "->": TypeOpInfo(2, "arrow"),
        }
        self.constants: dict[str, ConstInfo] = {
            hol.EQ: ConstInfo(hol.eq_generic(), ("A",), "eq"),
            hol.SELECT: ConstInfo(hol.select_generic(), ("A",), "select"),
        }
        self.decls: list = []  # article-level kernel items, emission order
        self._declared: dict = {}  # see ``_declare``
        self._trans_memo: dict[int, Term] = {}
        self._pure: dict = {}  # proof id -> (proof, congruence-only?)
        self._term_memo: dict[int, Term] = {}
        self._keep: list = []
        self._termvar_names: dict[hol.Var, str] = {}
        self._termvars: dict[str, hol.Var] = {}  # the inverse of _termvar_names
        self._hyp_names: dict[int, str] = {}  # id of term_key -> name
        self.uses: dict[int, int] = {}
        self.namer = DkNamer()

    @classmethod
    def from_vm(cls, state) -> "TranslationEnv":
        env = cls()
        for name, arity in state.typeops.items():
            if name not in env.typeops:
                declare_type_op(env, name, arity)
        for name, generic in (*state.constants.items(), *state.externals.items()):
            if name not in env.constants:
                declare_constant(env, name, generic)
        return env

    def termvar_name(self, v: hol.Var) -> str:
        n = self._termvar_names.get(v)
        if n is None:
            n = f"${v.name}@{len(self._termvar_names)}"
            self._termvar_names[v] = n
            self._termvars[n] = v
        return n

    def termvar(self, v: hol.Var) -> Var:
        return Var(self.termvar_name(v))

    def hyp_name(self, prop: hol.HolTerm) -> str:
        key = id(hol.term_key(prop))
        n = self._hyp_names.get(key)
        if n is None:
            n = f"h@{len(self._hyp_names)}"
            self._hyp_names[key] = n
        return n


def declare_type_op(env: TranslationEnv, name: str, arity: int):
    if name in env.typeops:
        raise DuplicateDeclaration(f"type operator {name} already declared")
    kname = env.namer.ident("ty." + name)
    decl = ConstDecl(kname, arrow(*([_T] * arity + [_T])) if arity else _T)
    env.typeops[name] = TypeOpInfo(arity, kname)
    env.decls.append(decl)
    return decl


def declare_constant(env: TranslationEnv, name: str, generic: hol.HolType):
    if name in env.constants:
        raise DuplicateDeclaration(f"constant {name} already declared")
    tyvars = tuple(_tyvars_in_order(generic))
    kname = env.namer.ident("tm." + name)
    decl = ConstDecl(kname, bind(Prod, _telescope(env, tyvars), trans_type_type(env, generic)))
    env.constants[name] = ConstInfo(generic, tyvars, kname)
    env.decls.append(decl)
    return decl


# ---------------------------------------------------------------------------
# Type and term translation


def trans_type_term(env: TranslationEnv, ty: hol.HolType) -> Term:
    if isinstance(ty, hol.TyVar):
        return tyvar_ref(ty.name)
    info = env.typeops.get(ty.op)
    if info is None:
        raise UndeclaredTypeOp(f"type operator {ty.op} not declared")
    if len(ty.args) != info.arity:
        raise UndeclaredTypeOp(f"type operator {ty.op} used at the wrong arity")
    return app(info.const, *(trans_type_term(env, a) for a in ty.args))


def trans_type_type(env: TranslationEnv, ty: hol.HolType) -> Term:
    return App(_TERM, trans_type_term(env, ty))


def _instance_args(env: TranslationEnv, generic: hol.HolType, tyvars: tuple[str, ...], instance: hol.HolType) -> list[Term]:
    theta = hol.match_type(generic, instance)
    if theta is None:
        raise InstanceMatchFailure(f"{hol.fmt_type(instance)} is not an instance of {hol.fmt_type(generic)}")
    return [trans_type_term(env, theta[n]) for n in tyvars]


def trans_term(env: TranslationEnv, t: hol.HolTerm) -> Term:
    """The kernel term for ``t``.  It does not depend on the binders above
    ``t``: variables keep their names until a binder closes them.  Compound
    nodes are memoized; a leaf is met once per translation of its parents,
    so the work stays linear without an entry of its own."""
    if isinstance(t, hol.Var):
        return env.termvar(t)
    if isinstance(t, hol.Const):
        info = env.constants.get(t.name)
        if info is None:
            raise UndeclaredConstant(f"constant {t.name} not declared")
        return app(info.const, *_instance_args(env, info.generic, info.tyvars, t.type))
    out = env._term_memo.get(id(t))
    if out is not None:
        return out
    if isinstance(t, hol.Abs):
        # the whole nest of lambdas is bound in one walk of its body
        termvars = []
        body = t
        while isinstance(body, hol.Abs):
            termvars.append(body.var)
            body = body.body
        out = bind(Abs, _telescope(env, termvars=termvars), trans_term(env, body))
    else:
        assert isinstance(t, hol.App)
        out = App(trans_term(env, t.fn), trans_term(env, t.arg))
    env._term_memo[id(t)] = out
    env._keep.append(t)
    return out


def trans_prop_type(env: TranslationEnv, prop: hol.HolTerm) -> Term:
    if prop.type != hol.BOOL:
        raise NotAProposition(f"not a proposition: a term of type {hol.fmt_type(prop.type)}")
    return App(_PROOF, trans_term(env, prop))


def _telescope(
    env: TranslationEnv,
    tyvars: Iterable[str] = (),
    termvars: Iterable[hol.Var] = (),
    hyps: Iterable[hol.HolTerm] = (),
) -> list[tuple[str, str, Term]]:
    """The ``(name, hint, domain)`` binders that ``kernel.bind`` takes, in
    the one binding order of the translation: type variables, then term
    variables, then hypotheses.  Type variables come first so that
    substituting into a closed derivation instantiates types before terms.
    Every binder the translation emits is built here."""
    out = [(tyvar_name(n), n, _T) for n in tyvars]
    out += [(env.termvar_name(v), v.name, trans_type_type(env, v.type)) for v in termvars]
    out += [(env.hyp_name(prop), "h", trans_prop_type(env, prop)) for prop in hyps]
    return out


# ---------------------------------------------------------------------------
# Proof translation


class Closure(Record):
    """Everything a derivation's translation depends on, in binding order:
    type variable names, term variables, hypotheses, the translated core
    and the sequent proved."""

    __slots__ = _fields = ("tyvars", "termvars", "hyps", "core", "sequent")


def trans_proof(env: TranslationEnv, proof: hol.Proof) -> Term:
    t = env._trans_memo.get(id(proof))
    if t is None:
        t = env._trans_memo[id(proof)] = _trans_proof(env, proof)
        env._keep.append(proof)
    return t


def _trans_proof(env: TranslationEnv, proof: hol.Proof) -> Term:
    if _pure_conversion(proof, env._pure):
        # one reflexivity step at the right side; the kernel's conversion
        # checks that the left side is beta-equal to it
        t = hol.dest_eq(proof.sequent.concl)[1]
        return app(_REFL, trans_type_term(env, t.type), trans_term(env, t))

    if isinstance(proof, hol.Assume):
        return Var(env.hyp_name(proof.prop))

    if isinstance(proof, hol.AppThm):
        f, g = hol.dest_eq(proof.fun.sequent.concl)
        m, n = hol.dest_eq(proof.arg.sequent.concl)
        a, b = hol.dest_fn(f.type)
        types = (trans_type_term(env, a), trans_type_term(env, b))
        fun, arg = trans_proof(env, proof.fun), trans_proof(env, proof.arg)
        # a side that translates to ``Refl A t`` (a conversion does, and an
        # ``EqMp`` over one may) gives ApTerm or ApThm its term ``t`` alone
        if _is_refl(fun):
            return app(_APTERM, *types, fun.arg, trans_term(env, m), trans_term(env, n), arg)
        if _is_refl(arg):
            return app(_APTHM, *types, trans_term(env, f), trans_term(env, g), arg.arg, fun)
        terms = (trans_term(env, f), trans_term(env, g), trans_term(env, m), trans_term(env, n))
        return app(_APPTHM, *types, *terms, fun, arg)

    if isinstance(proof, hol.AbsThm):
        lam_m, lam_n = hol.dest_eq(proof.sequent.concl)
        a, b = hol.dest_fn(lam_m.type)
        return app(
            _FUNEXT,
            trans_type_term(env, a),
            trans_type_term(env, b),
            trans_term(env, lam_m),
            trans_term(env, lam_n),
            bind(Abs, _telescope(env, termvars=(proof.var,)), trans_proof(env, proof.sub)),
        )

    if isinstance(proof, hol.EqMp):
        if _pure_conversion(proof.eq, env._pure):
            # a conversion has no hypotheses, and where the premise's proof
            # is used at ``psi`` the kernel checks ``phi`` converts to it
            return trans_proof(env, proof.prem)
        if isinstance(proof.eq, hol.DeductAntiSym):
            # ``proveHyp``: the proof of ``psi`` from ``phi``, applied to the
            # premise's proof of ``phi``; the proof of ``phi`` from ``psi``
            # is not needed
            phi = proof.eq.lhs.sequent.concl
            b = proof.eq.rhs
            return _redex(env, b, _telescope(env, hyps=(phi,)), trans_proof(env, b), [trans_proof(env, proof.prem)])
        phi, psi = hol.dest_eq(proof.eq.sequent.concl)
        return app(
            _EQMP,
            trans_term(env, phi),
            trans_term(env, psi),
            trans_proof(env, proof.eq),
            trans_proof(env, proof.prem),
        )

    if isinstance(proof, hol.DeductAntiSym):
        phi, psi = proof.lhs.sequent.concl, proof.rhs.sequent.concl
        return app(
            _PROPEXT,
            trans_term(env, phi),
            trans_term(env, psi),
            bind(Abs, _telescope(env, hyps=(psi,)), trans_proof(env, proof.lhs)),
            bind(Abs, _telescope(env, hyps=(phi,)), trans_proof(env, proof.rhs)),
        )

    if isinstance(proof, hol.Subst):
        return _trans_subst(env, proof)

    if isinstance(proof, hol.Axiom):
        return _trans_axiom(env, proof)

    if isinstance(proof, hol.DefineConst):
        info = env.constants.get(proof.name)
        if info is None:
            raise UndeclaredConstant(f"constant {proof.name} not declared")
        ident, tyvars = f"tm.{proof.name}.def", info.tyvars
    elif isinstance(proof, (hol.AbsRepThm, hol.RepAbsThm)):
        # each declared at its own first use, as the node being translated states it
        ident = f"ty.{proof.defn.op}.{'abs_rep' if isinstance(proof, hol.AbsRepThm) else 'rep_abs'}"
        tyvars = proof.defn.tyvars
    else:
        raise TranslateError(f"untranslatable proof node {type(proof).__name__}")
    return _declare(env, ident, ident, _telescope(env, tyvars), trans_prop_type(env, proof.sequent.concl))


def _is_refl(t: Term) -> bool:
    """Whether ``t`` is ``Refl A x``, as ``_trans_proof`` builds it."""
    return type(t) is App and type(t.fn) is App and t.fn.fn is _REFL


def _termvar_order(v: hol.Var) -> tuple[str, str]:
    """The order of term variables in binders: by name, then by type."""
    return v.name, repr(hol.type_key(v.type))


def closure_of(env: TranslationEnv, proof: hol.Proof) -> Closure:
    """The derivation's free type variables, term variables and hypotheses,
    in the fixed binding order (types first), plus the translated core."""
    core = trans_proof(env, proof)
    seq = proof.sequent
    tyvars = set(hol.sequent_tyvars(seq))
    termvars: dict[str, hol.Var] = {}
    for v in hol.sequent_free_vars(seq):
        termvars[env.termvar_name(v)] = v
    for name in kernel.free_names(core):
        if name.startswith("'"):
            tyvars.add(name[1:])
        elif name.startswith("$"):
            termvars[name] = env._termvars[name]
    vs = sorted(termvars.values(), key=_termvar_order)
    for v in vs:
        tyvars |= hol.type_tyvars(v.type)
    return Closure(sorted(tyvars), vs, seq.hyps, core, seq)


def closed_theorem(env: TranslationEnv, proof: hol.Proof) -> tuple[Term, Term]:
    """A theorem as a self-contained definition: the closed statement type
    and the closed proof term."""
    c = closure_of(env, proof)
    binders = _telescope(env, c.tyvars, c.termvars, c.hyps)
    return bind(Prod, binders, trans_prop_type(env, c.sequent.concl)), bind(Abs, binders, c.core)


def _trans_subst(env: TranslationEnv, proof: hol.Subst) -> Term:
    """Substitution as a beta redex: abstract the sub-derivation over what
    the substitution changes among everything it depends on (its closure's
    telescope, so types are instantiated first), then apply to the images;
    or that redex's reduct (``_redex``).

    A binder whose image is its own variable is left out (kernel names are
    interned per variable and per alpha class of hypotheses, so a name
    decides it): that variable stays free in the core, bound by the scope
    around the redex, and the redex is the full closure's with those
    positions beta-reduced."""
    c = closure_of(env, proof.sub)
    s = proof.subst
    images = [trans_type_term(env, s.types[n]) if n in s.types else tyvar_ref(n) for n in c.tyvars]
    images += [trans_term(env, s.image(v)) for v in c.termvars]
    images += [Var(env.hyp_name(image)) for image in proof.hyp_images]
    kept = [
        (binder, arg)
        for binder, arg in zip(_telescope(env, c.tyvars, c.termvars, c.hyps), images)
        if type(arg) is not Var or arg.name != binder[0]
    ]
    return _redex(env, proof.sub, [binder for binder, _ in kept], c.core, [arg for _, arg in kept])


def _redex(env: TranslationEnv, premise: hol.Proof, binders: list, core: Term, args: list[Term]) -> Term:
    """The redex ``(binders => core) args``, where ``core`` translates
    ``premise``, or its beta-reduct ``core[args/binders]``: the reduct where
    the exported proofs reach ``premise`` once and it has fewer nodes than
    the redex, each as printed.  A premise reached twice stays one term under
    each of its redexes, so a lemma made of it can be cited (ROADMAP L)."""
    if env.uses.get(id(premise)) == 1:
        reduct = kernel.substitute(core, {name: arg for (name, _, _), arg in zip(binders, args)})
        if reduct.size < core.size + sum(domain.size + arg.size + 2 for (_, _, domain), arg in zip(binders, args)):
            return reduct
    return app(bind(Abs, binders, core), *args)


def use_counts(proofs: Iterable[hol.Proof]) -> dict[int, int]:
    """How often the DAG of ``proofs`` reaches each node, by id: one use per
    path to it from the roots, counted up to 2, so a node inside a premise
    used twice is used twice too.  A node passes each use it gets on to its
    premises until it has two, so its premises are walked at most twice."""
    uses: dict[int, int] = {}
    stack = list(proofs)
    while stack:
        p = stack.pop()
        n = uses.get(id(p), 0)
        if n < 2:
            uses[id(p)] = n + 1
            stack += [v for v in p._values() if isinstance(v, hol.Proof)]
    return uses


def _trans_axiom(env: TranslationEnv, proof: hol.Axiom) -> Term:
    seq = proof.sequent
    eta = hol.eta_instance(seq)
    if eta is not None:
        x, m = eta
        b = hol.dest_fn(m.type)[1]
        body = app(_REFL, trans_type_term(env, b), App(trans_term(env, m), env.termvar(x)))
        return app(
            _FUNEXT,
            trans_type_term(env, x.type),
            trans_type_term(env, b),
            trans_term(env, hol.dest_eq(seq.concl)[0]),
            trans_term(env, m),
            bind(Abs, _telescope(env, termvars=(x,)), body),
        )
    key = (tuple(map(hol.term_key, seq.hyps)), hol.term_key(seq.concl))
    try:  # here, as only axioms need it; ``hashlib`` would map OpenSSL's libcrypto, 3.5 MB resident
        from _sha1 import sha1
    except ImportError:  # an interpreter built without CPython's own SHA-1
        from hashlib import sha1

    tyvars = sorted(hol.sequent_tyvars(seq))
    termvars = sorted(hol.sequent_free_vars(seq), key=_termvar_order)
    return _declare(
        env,
        (*map(id, key[0]), id(key[1])),
        "ax." + sha1(repr(key).encode()).hexdigest()[:12],
        _telescope(env, tyvars, termvars, seq.hyps),
        trans_prop_type(env, seq.concl),
    )


def _declare(env: TranslationEnv, key, ident: str, binders: list[tuple[str, str, Term]], concl: Term) -> Term:
    """The trusted constant ``key`` names, applied to its binders'
    variables.  At the key's first use it is declared as ``ident`` with the
    type ``concl`` closed over ``binders``; a later use reads the memo."""
    hit = env._declared.get(key)
    if hit is None:
        kname = env.namer.ident(ident)
        env.decls.append(ConstDecl(kname, bind(Prod, binders, concl)))
        hit = env._declared[key] = app(Const(kname), *(Var(name) for name, _, _ in binders))
    return hit


# ---------------------------------------------------------------------------
# Conversions: ``_trans_proof`` proves each by one reflexivity step at its
# right side and drops each ``EqMp`` over one; the kernel's conversion
# checks the beta-equality where the term is used

def _pure_conversion(proof: hol.Proof, memo: dict) -> bool:
    # the congruence fragment; substitution instances of beta-equalities are
    # still beta-equalities, and the article VM encodes its beta-conversion
    # command as a substituted Beta node
    hit = memo.get(id(proof))
    if hit is not None:
        return hit[1]
    if isinstance(proof, (hol.Refl, hol.Beta)):
        ok = True
    elif isinstance(proof, hol.AppThm):
        ok = _pure_conversion(proof.fun, memo) and _pure_conversion(proof.arg, memo)
    elif isinstance(proof, (hol.AbsThm, hol.Subst)):
        ok = _pure_conversion(proof.sub, memo)
    else:
        ok = False
    memo[id(proof)] = (proof, ok)
    return ok


def compress_conversions(proof: hol.Proof) -> hol.Proof:
    """``proof`` itself: ``_trans_proof`` collapses each conversion subtree,
    so no pass before it has anything left to do.  Kept only because the
    benchmark's traced run still calls it, until the next benchmark change
    (ROADMAP P) drops that call."""
    return proof


# ---------------------------------------------------------------------------
# Sharing


class ShareReport(Record):
    """The shared document, the number of definitions hoisted and of
    occurrences replaced by them."""

    __slots__ = _fields = ("document", "hoisted", "replaced")


PROFIT = 1.5  # nodes a hoisted definition must save per node of its own


class _Sharing:
    """One run of ``share_document``: its signature (the base and the
    module's items, grown by each hoisted definition and by each item as
    rewritten), the counts of one scan, and its decisions.

    A candidate is a closed subterm (no loose index, no free variable) of at
    least ``min_size`` nodes that is no type-level term.  Its class is the
    term itself: equal subterms, hints aside, are one class.
    """

    def __init__(self, doc: dkfile.DkDocument, base: Signature, min_size: int, fuel: Optional[int] = None):
        self.doc = doc
        self.min_size = max(min_size, 2)  # a leaf is never a candidate
        self.sig = Signature((*base.items, *dkfile.signature_items(doc)))  # a copy: base may be cached
        self.budget = kernel.Fuel(kernel.DEFAULT_FUEL if fuel is None else fuel)
        self.shared = _shared_terms(self)
        self.decided: dict = {}  # class -> its reference, or None where it stays inline
        self.next_name = 0
        self.new_items: list = []
        self.hoisted = self.replaced = 0

    def type_level(self, t: Term) -> bool:
        """Whether ``t`` is a type or a type code: a product, or an
        application whose head constant's declared type ends in ``Type`` or
        ``type``, whether the spine applies it to all its arguments or, as
        in a partial type code ``arrow A``, to some.  Hoisted, it would
        have to unfold before ``term`` or the checker could read it."""
        if type(t) is Prod:
            return True
        while type(t) is App:
            t = t.fn
        ty = self.sig.const_type(t.name) if type(t) is Const else None
        while type(ty) is Prod:
            ty = ty.body
        return ty == TYPE or ty == _T

    def rewrite(self, t: Term, skip_self: bool = False) -> Term:
        """``t`` with its hoisted classes replaced; ``t`` itself where none is."""
        if t.size < self.min_size:
            return t
        if not skip_self and not t.bound and not t.has_var and t in self.shared:
            if t not in self.decided:
                self.decided[t], body = self.hoist(t)
                if self.decided[t] is None:
                    return body
            ref = self.decided[t]
            if ref is not None:
                self.replaced += 1
                return ref
        if type(t) is App:
            fn, arg = self.rewrite(t.fn), self.rewrite(t.arg)
            return t if fn is t.fn and arg is t.arg else App(fn, arg)
        domain, body = self.rewrite(t.domain), self.rewrite(t.body)
        return t if domain is t.domain and body is t.body else type(t)(t.hint, domain, body)

    def hoist(self, t: Term) -> tuple[Optional[Term], Term]:
        """The first occurrence of ``t``'s class: its reference once hoisted
        (or None), and ``t`` rewritten.

        The profit rule: a class is hoisted where its occurrences, each
        ``t`` as the unshared module prints it less the reference, exceed
        its definition's body and inferred type by half again.  The margin
        is there because a definition prints its name, is checked on its
        own, and must unfold where the checker meets its expansion, while
        gzip already finds a short repeat; a long or nested one pays by far.
        """
        body = self.rewrite(t, skip_self=True)
        while f"s{self.next_name}" in self.sig:
            self.next_name += 1
        name = f"s{self.next_name}"
        try:
            ty = kernel.infer_type(self.sig, {}, body, self.budget)
        except kernel.FuelExhausted as e:
            raise kernel.FuelExhausted(f"definition {name}: ", e) from e
        if self.shared[t] * (t.size - 1) <= PROFIT * (body.size + ty.size):
            return None, body
        self.hoisted += 1
        item = Defn(name, ty, body)
        self.new_items.append(item)
        self.sig.add(item)
        return Const(name), body


def _shared_terms(run: _Sharing) -> dict:
    """The candidate classes that occur at least twice as the shared
    document prints them, each with its count.

    A candidate is descended at its first occurrence only: its later ones
    print as references, and its body prints once.  That also keeps the
    scan linear in a closed DAG.  Everything else is descended wherever it
    occurs, as it prints there.  A subterm smaller than ``min_size`` holds
    no candidate.  The count is taken once, as if every candidate were
    hoisted: a class that does not pay prints its body at each occurrence,
    but what repeats inside it is not counted again.
    """
    counts: dict = {}  # class -> occurrences so far; 0 where it is no candidate
    shared = []
    min_size = run.min_size
    for item in run.doc.items:
        roots = (item.type,) if isinstance(item, ConstDecl) else (item.type, item.body) if isinstance(item, Defn) else ()
        stack = [root for root in roots if root.size >= min_size]
        while stack:
            u = stack.pop()
            if not u.bound and not u.has_var:
                # whether ``u`` is a candidate is asked only when its class
                # comes round again
                seen = counts.get(u)
                if seen is None:
                    counts[u] = 1
                elif seen:
                    if seen > 1 or not run.type_level(u):
                        counts[u] = seen + 1
                        if seen == 1:
                            shared.append(u)
                        continue
                    counts[u] = 0
            a, b = (u.arg, u.fn) if type(u) is App else (u.body, u.domain)
            if a.size >= min_size:
                stack.append(a)
            if b.size >= min_size:
                stack.append(b)
    return {u: counts[u] for u in shared}


def share_document(
    doc: dkfile.DkDocument,
    base: Optional[Signature] = None,
    min_size: int = 8,
    fuel: Optional[int] = None,
) -> ShareReport:
    """Hoist repeated closed subterms into definitions emitted before first use.

    A candidate has at least ``min_size`` nodes and is no type or type
    code; it is hoisted where it repeats as the shared module prints it and
    where that pays (``_Sharing.hoist``).  The module is scanned once and
    rewritten once; a class that does not pay stays inline.  ``fuel`` is
    the step budget of the whole pass: every class's type inference spends
    from it.
    """
    run = _Sharing(doc, base_signature("q0") if base is None else base, min_size, fuel)
    if not run.shared:
        return ShareReport(doc, 0, 0)
    for item in doc.items:
        if isinstance(item, (ConstDecl, Defn)):
            ty = run.rewrite(item.type)
            item = ConstDecl(item.name, ty) if type(item) is ConstDecl else Defn(item.name, ty, run.rewrite(item.body))
            run.sig.add(item)  # shadows the item as written: a later type read from it prints its references
        run.new_items.append(item)
    return ShareReport(dkfile.DkDocument(doc.module, tuple(run.new_items)), run.hoisted, run.replaced)


# ---------------------------------------------------------------------------
# Whole-run translation


class TranslationResult(Record):
    """The document, its theorem count, and the occurrences sharing replaced
    and the definitions it hoisted."""

    __slots__ = _fields = ("document", "theorem_count", "share_hits", "share_defs")


def translate_state(
    state,
    module: str,
    mode: str = "q0",
    sharing: bool = True,
    fuel: Optional[int] = None,
) -> TranslationResult:
    """Translate a finished VM run into a document referencing the base file.

    ``fuel`` is the step budget of sharing, spent across all its type
    inferences (self-verification, in ``verify_document``, has its own).
    Collisions the name table resolved with a numeric suffix are recorded
    in a comment at the top, each original name as a JSON string with
    ``;`` escaped, so that no name can end the comment.
    """
    base = base_signature(mode)  # an unknown mode fails here, before any work
    env = TranslationEnv.from_vm(state)
    env.uses = use_counts(proof for _, proof in state.theorems)
    theorems = [closed_theorem(env, proof) for _, proof in state.theorems]

    items: list = [dkfile.Comment(f"module {module}: generated from {module}.art")]
    items.append(dkfile.Comment("requires hol.dk (base signature)"))
    items.extend(env.decls)
    for k, (ty, body) in enumerate(theorems):
        items.append(Defn(env.namer.ident(f"thm_{k}"), ty, body))
    if env.namer.collisions:
        import json  # loaded only by a module that has collisions

        note = ", ".join(f"{json.dumps(old, ensure_ascii=False)} renamed to {new}" for old, new in env.namer.collisions)
        note = note.replace(";", "\\u003b")  # a JSON escape: no name ends the comment
        items.insert(0, dkfile.Comment(f"name collisions: {note}"))
    doc = dkfile.DkDocument(module, tuple(items))

    share_hits = share_defs = 0
    if sharing:
        report = share_document(doc, base, fuel=fuel)
        doc, share_hits, share_defs = report.document, report.replaced, report.hoisted
    return TranslationResult(doc, len(state.theorems), share_hits, share_defs)


def verify_document(doc: dkfile.DkDocument, mode: str = "q0", fuel: Union[int, kernel.Fuel, None] = None) -> None:
    """Type-check the base signature for ``mode`` and then a generated
    document, on one path, as ``check`` checks a directory's ``hol.dk`` and
    a module beside it.  Pass a ``kernel.Fuel`` to read back the steps spent.
    """
    items = base_signature(mode).items + dkfile.signature_items(doc)
    kernel.check_extension(Signature(), items, fuel)
