"""HOL source syntax and the derivation checker.

Types are variables or operator applications; terms are the simply typed
lambda calculus with typed variables and constant instances.  Every term
knows its type: an ``Abs`` or ``App`` computes it when it is built, and an
``App`` whose argument does not fit its function raises
``AppTypeMismatch`` there, so an ill-typed term never exists.  A compound
term or type also keeps its free variables and type variables once they
are first asked for (``free_vars``, ``term_tyvars``, ``type_tyvars``), so
each distinct node computes each set once; a leaf keeps none.  A compound
node keeps its canonical key (``term_key``, ``type_key``) the same way.
Keys are interned: each alpha class of terms, and each type, has one key
object, so alpha-equivalence and the hypothesis sets compare keys by
identity, and no key is hashed as a tree.  ``apply_subst`` instantiates
types and then terms in one capture-avoiding walk with one renaming rule.

Proofs are explicit derivation graphs, one constructor per primitive rule
plus nodes for article-level axioms and the two definition commands.
Building a node applies its rule (Gordon, Milner & Wadsworth, *Edinburgh
LCF*, 1979): the constructor reads its premises' ``sequent``, raises
``RuleViolation`` if the rule does not apply, and otherwise stores the
sequent it proves.  A ``Proof`` therefore exists only if its derivation is
valid, each node is checked once however often it is shared, and
``check_proof`` just reads the stored sequent.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .kernel import Record


class HolError(Exception):
    pass


class ArityMismatch(HolError):
    pass


class AppTypeMismatch(HolError):
    pass


class RuleViolation(HolError):
    def __init__(self, rule: str, reason: str):
        super().__init__(f"{rule}: {reason}")
        self.rule = rule
        self.reason = reason


# ---------------------------------------------------------------------------
# Types

BUILTIN_TYPE_ARITY = {"bool": 0, "ind": 0, "->": 2}
_EMPTY: frozenset = frozenset()


class HolType(Record):
    __slots__ = ()


class _Node(Record):
    """A record hashed often: its hash is computed when first asked for and
    kept.  ``TyOp`` and ``_Named``, compared often, write their own
    ``__eq__`` (``TyOp``'s compares kept hashes before it walks the fields),
    and so must name ``__hash__`` again."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self._values())
        return h


class TyVar(HolType):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other: object) -> bool:
        return other.__class__ is TyVar and other.name == self.name

    def __hash__(self) -> int:
        return hash((self.name,))


class TyOp(HolType, _Node):
    __slots__ = ("op", "args", "_tyvars", "_key")
    _fields = ("op", "args")

    def __init__(self, op: str, args: tuple[HolType, ...] = ()):
        if not isinstance(args, tuple):
            args = tuple(args)
        want = BUILTIN_TYPE_ARITY.get(op)
        if want is not None and len(args) != want:
            raise ArityMismatch(f"type operator {op} expects {want} arguments")
        self.op = op
        self.args = args
        self._hash = self._tyvars = self._key = None

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not TyOp:
            return False
        h, g = self._hash, other._hash
        if h is not None and g is not None and h != g:
            return False
        return self.op == other.op and self.args == other.args

    __hash__ = _Node.__hash__


BOOL = TyOp("bool")
IND = TyOp("ind")


def fn(a: HolType, b: HolType) -> TyOp:
    return TyOp("->", (a, b))


def dest_fn(ty: HolType) -> tuple[HolType, HolType]:
    if isinstance(ty, TyOp) and ty.op == "->":
        return ty.args[0], ty.args[1]
    raise AppTypeMismatch(f"not a function type: {fmt_type(ty)}")


# A type in an error message shows its first _TYPE_NODES nodes, in its repr's
# format, and at most _TYPE_WIDTH characters (a third of the command line's
# dkfile.MESSAGE_WIDTH): a type shared through the article dictionary can be
# exponentially larger as a tree than as read.
_TYPE_NODES = 8
_TYPE_WIDTH = 200


def fmt_type(ty: HolType) -> str:
    """``ty`` as its repr shows it, cut to a fixed number of nodes in
    preorder and of characters; an argument list that is cut ends in
    ``...``.  Only the nodes kept are visited."""
    left = [_TYPE_NODES]

    def go(t: HolType) -> str:
        left[0] -= 1
        if isinstance(t, TyVar):
            return repr(t)
        parts = []
        for a in t.args:
            if left[0] <= 0:
                parts.append("...")
                break
            parts.append(go(a))
        comma = "," if len(t.args) == 1 else ""  # as a tuple's repr
        return f"TyOp(op={t.op!r}, args=({', '.join(parts)}{comma}))"

    text = go(ty)
    del go  # it refers to itself: a cycle
    return text if len(text) <= _TYPE_WIDTH else text[: _TYPE_WIDTH - 3] + "..."


def _union(a: frozenset, b: frozenset) -> frozenset:
    """``a | b``, or whichever of the two contains the other."""
    if b <= a:
        return a
    return b if a <= b else a | b


def type_tyvars(ty: HolType) -> frozenset:
    """The names of the type variables of ``ty``, kept in each ``TyOp``."""
    if ty.__class__ is TyVar:
        return frozenset((ty.name,))
    out = ty._tyvars
    if out is None:
        out = _EMPTY
        for a in ty.args:
            out = _union(out, type_tyvars(a))
        ty._tyvars = out
    return out


def type_subst(theta: dict[str, HolType], ty: HolType) -> HolType:
    if not theta:
        return ty
    if isinstance(ty, TyVar):
        return theta.get(ty.name, ty)
    assert isinstance(ty, TyOp)
    return TyOp(ty.op, tuple(type_subst(theta, a) for a in ty.args))


def match_type(generic: HolType, instance: HolType, bind: Optional[dict[str, HolType]] = None) -> Optional[dict[str, HolType]]:
    """First-order matching of ``instance`` against ``generic``; None on failure."""
    if bind is None:
        bind = {}
    if isinstance(generic, TyVar):
        prev = bind.get(generic.name)
        if prev is None:
            bind[generic.name] = instance
            return bind
        return bind if prev == instance else None
    assert isinstance(generic, TyOp)
    if not isinstance(instance, TyOp) or instance.op != generic.op or len(instance.args) != len(generic.args):
        return None
    for g, i in zip(generic.args, instance.args):
        if match_type(g, i, bind) is None:
            return None
    return bind


def anti_unify(a: HolType, b: HolType) -> HolType:
    """Least general generalization: both inputs are instances of the result.

    Distinct mismatching pairs get distinct fresh variables, equal pairs
    share one, so matching either input back recovers a substitution.
    """
    used = type_tyvars(a) | type_tyvars(b)
    table: dict[tuple[int, int], TyVar] = {}
    counter = [0]

    def fresh() -> TyVar:
        while True:
            name = f"g{counter[0]}"
            counter[0] += 1
            if name not in used:
                return TyVar(name)

    def go(x: HolType, y: HolType) -> HolType:
        if isinstance(x, TyOp) and isinstance(y, TyOp) and x.op == y.op and len(x.args) == len(y.args):
            return TyOp(x.op, tuple(go(p, q) for p, q in zip(x.args, y.args)))
        if x == y:
            return x
        key = (id(type_key(x)), id(type_key(y)))
        v = table.get(key)
        if v is None:
            v = fresh()
            table[key] = v
        return v

    out = go(a, b)
    del go  # it refers to itself: a cycle that would keep ``table`` alive
    return out


# ---------------------------------------------------------------------------
# Terms

EQ = "="
SELECT = "select"


class HolTerm(_Node):
    __slots__ = ()


class _Named(HolTerm):
    __slots__ = _fields = ("name", "type")

    def __init__(self, name: str, type: HolType):
        self.name = name
        self.type = type
        self._hash = None

    def __eq__(self, other: object) -> bool:
        return self is other or (
            other.__class__ is self.__class__ and other.name == self.name and other.type == self.type
        )

    __hash__ = _Node.__hash__


class Var(_Named):
    __slots__ = ()


class Const(_Named):
    """A constant instance carrying its instantiated type."""

    __slots__ = ()


class Abs(HolTerm):
    """``type`` is computed, and is not compared."""

    __slots__ = ("var", "body", "type", "_free", "_tyvars", "_key")
    _fields = ("var", "body")

    def __init__(self, var: Var, body: HolTerm):
        self.var = var
        self.body = body
        self.type = TyOp("->", (var.type, body.type))
        self._hash = self._free = self._tyvars = self._key = None


class App(HolTerm):
    """``type`` is computed, and is not compared; an argument that does not
    fit the function raises ``AppTypeMismatch``."""

    __slots__ = ("fn", "arg", "type", "_free", "_tyvars", "_key")
    _fields = ("fn", "arg")

    def __init__(self, fn: HolTerm, arg: HolTerm):
        a, b = dest_fn(fn.type)
        if arg.type != a:
            raise AppTypeMismatch(f"argument has type {fmt_type(arg.type)}, function expects {fmt_type(a)}")
        self.fn = fn
        self.arg = arg
        self.type = b
        self._hash = self._free = self._tyvars = self._key = None


def eq_generic() -> HolType:
    a = TyVar("A")
    return fn(a, fn(a, BOOL))


def select_generic() -> HolType:
    a = TyVar("A")
    return fn(fn(a, BOOL), a)


def eq_const(ty: HolType) -> Const:
    return Const(EQ, fn(ty, fn(ty, BOOL)))


def mk_eq(lhs: HolTerm, rhs: HolTerm) -> HolTerm:
    return App(App(eq_const(lhs.type), lhs), rhs)


def dest_eq(t: HolTerm) -> tuple[HolTerm, HolTerm]:
    if (
        isinstance(t, App)
        and isinstance(t.fn, App)
        and isinstance(t.fn.fn, Const)
        and t.fn.fn.name == EQ
    ):
        return t.fn.arg, t.arg
    raise HolError(f"not an equality: a term of type {fmt_type(t.type)}")


def free_vars(t: HolTerm) -> frozenset:
    """The free variables of ``t``, kept in each compound node once asked
    for.  A leaf keeps nothing: a ``Var`` holding a set that holds it would
    be a reference cycle."""
    cls = t.__class__
    if cls is Var:
        return frozenset((t,))
    if cls is Const:
        return _EMPTY
    out = t._free
    if out is None:
        if cls is Abs:
            out = free_vars(t.body)
            if t.var in out:
                out = out - {t.var}
        else:
            out = _union(free_vars(t.fn), free_vars(t.arg))
        t._free = out
    return out


def term_tyvars(t: HolTerm) -> frozenset:
    """The names of the type variables of ``t``, kept in each compound node
    once asked for."""
    cls = t.__class__
    if cls is Var or cls is Const:
        return type_tyvars(t.type)
    out = t._tyvars
    if out is None:
        if cls is Abs:
            out = _union(term_tyvars(t.body), type_tyvars(t.var.type))
        else:
            out = _union(term_tyvars(t.fn), term_tyvars(t.arg))
        t._tyvars = out
    return out


# The one key object of each key value, indexed by the key's tag, its names
# and the ids of its sub-keys: building a key hashes a few words however large
# its term, and alpha-equal terms get one key object, compared with ``is``.
# The table lives as long as the process: a node keeps its key, so two tables
# would give one alpha class two key objects.  It also keeps every sub-key
# alive, so no id in an index is reused.
_KEYS: dict = {}


def type_key(ty: HolType):
    """Canonical, orderable form of ``ty``, one object per type and kept in
    each ``TyOp`` once asked for."""
    if ty.__class__ is TyVar:
        k = ("v", ty.name)
        return _KEYS.setdefault(k, k)
    k = ty._key
    if k is None:
        args = tuple(map(type_key, ty.args))
        k = ty._key = _KEYS.setdefault(("o", ty.op, *map(id, args)), ("o", ty.op, args))
    return k


def _pair_key(tag: str, a, b):
    return _KEYS.setdefault((tag, id(a), id(b)), (tag, a, b))


def term_key(t: HolTerm):
    """Canonical, orderable form: one key object per alpha class, so two
    terms are alpha-equal iff their keys are one object.  A bound variable
    is the number of binders between it and its own.  Each ``Abs`` and
    ``App`` keeps its key once asked for."""
    cls = t.__class__
    if cls is Var or cls is Const:
        ty = type_key(t.type)
        tag = "f" if cls is Var else "c"
        return _KEYS.setdefault((tag, t.name, id(ty)), (tag, t.name, ty))
    k = t._key
    if k is None:
        if cls is Abs:
            k = _pair_key("l", type_key(t.var.type), _key_under(t.body, {t.var: 0}, 1, {}))
        else:
            k = _pair_key("a", term_key(t.fn), term_key(t.arg))
        t._key = k
    return k


def _key_under(t: HolTerm, bound: dict, depth: int, memo: dict):
    """``t``'s key ``depth`` binders deep, ``bound`` mapping each variable
    bound there to its binder's depth.  A node none of whose free variables
    is bound has its own key; the others are keyed once per binder, in
    ``memo`` by identity."""
    cls = t.__class__
    if cls is Var and t in bound:
        k = ("b", depth - bound[t] - 1)
        return _KEYS.setdefault(k, k)
    if cls is Var or cls is Const or bound.keys().isdisjoint(free_vars(t)):
        return term_key(t)
    out = memo.get(id(t))
    if out is None:
        if cls is Abs:
            v = t.var
            old = bound.get(v)
            bound[v] = depth
            out = _pair_key("l", type_key(v.type), _key_under(t.body, bound, depth + 1, {}))
            _rebind(bound, v, old)
        else:
            out = _pair_key("a", _key_under(t.fn, bound, depth, memo), _key_under(t.arg, bound, depth, memo))
        memo[id(t)] = out
    return out


def alpha_equal(a: HolTerm, b: HolTerm) -> bool:
    """Alpha-equivalence: ``a`` and ``b`` are one node or have one key object."""
    return a is b or term_key(a) is term_key(b)


def _rebind(bound: dict, key, depth: Optional[int]) -> None:
    if depth is None:
        del bound[key]
    else:
        bound[key] = depth


# ---------------------------------------------------------------------------
# Substitution


class HolSubst(Record):
    """Type substitution applied first, then a parallel term substitution,
    also kept as the maps ``types`` and ``terms``.  The sigma keys and
    images live in the already type-instantiated world: a key's type is the
    theta-instantiated type of the variable it replaces, and the image's
    type equals the key's."""

    __slots__ = ("theta", "sigma", "types", "terms")
    _fields = ("theta", "sigma")

    def __init__(self, theta: tuple[tuple[str, HolType], ...] = (), sigma: tuple[tuple[Var, HolTerm], ...] = ()):
        self.theta = theta
        self.sigma = sigma
        self.types: dict[str, HolType] = dict(theta)
        self.terms: dict[Var, HolTerm] = dict(sigma)

    def image(self, v: Var) -> HolTerm:
        """What replaces ``v`` where it is free."""
        v = Var(v.name, type_subst(self.types, v.type)) if self.types else v
        return self.terms.get(v, v)


def apply_subst(s: HolSubst, t: HolTerm) -> HolTerm:
    """``t`` with the type part, then the term part, applied in one walk.

    A binder is renamed, with primes, where (a) its image is also the image
    of another variable free in its body (``x:A`` and ``x:B`` under ``A :=
    B``), or (b) it is free in an image that replaces a variable of its
    body.  A first walk of the distinct nodes gives each image its
    pre-images, so a type part alone asks a binder's body for its free
    variables only where the image has two.  With a type part every node
    and leaf is new, but the term part's images; without one, a leaf or an
    ``Abs`` that nothing changes stays itself."""
    theta, sigma = s.types, s.terms
    if not theta and not sigma:
        return t
    pre: dict[Var, set] = {}  # each variable's image -> its pre-images in ``t``
    seen: set[int] = set()
    stack = [t] if theta else []
    while stack:
        u = stack.pop()
        if id(u) not in seen:
            seen.add(id(u))
            if u.__class__ is Var:
                pre.setdefault(Var(u.name, type_subst(theta, u.type)), set()).add(u)
            elif u.__class__ is not Const:
                stack += (u.var, u.body) if u.__class__ is Abs else (u.fn, u.arg)
    live = {u: sigma[w] for w, us in pre.items() if w in sigma for u in us} if theta else sigma

    def go(u: HolTerm, live: dict, renamed: dict) -> HolTerm:
        # ``live`` maps variables to the term part's images, ``renamed`` to their renamed binders
        cls = u.__class__
        if cls is Var:
            if live and u in live:
                return live[u]
            r = renamed.get(u, u) if renamed else u
            return Var(r.name, type_subst(theta, u.type)) if theta else r
        if cls is Const:
            return Const(u.name, type_subst(theta, u.type)) if theta else u
        if cls is App:
            return App(go(u.fn, live, renamed), go(u.arg, live, renamed))
        v, body = u.var, u.body
        image = Var(v.name, type_subst(theta, v.type)) if theta else v
        others = pre.get(image, ()) if theta else ()
        if live or renamed or len(others) > 1:
            free = free_vars(body)
            live = {w: r for w, r in live.items() if w in free and w != v}
            renamed = {w: r for w, r in renamed.items() if w in free and w != v}
            if not (theta or live or renamed):
                return u
            images = (*live.values(), *renamed.values())
            if any(w in free for w in others if w != v) or any(image in free_vars(r) for r in images):
                taken = {w.name for r in (body, *images) for w in free_vars(r)}
                name = v.name + "'"
                while name in taken:
                    name += "'"
                image = Var(name, image.type)
                renamed = {**renamed, v: image}
        return Abs(image, go(body, live, renamed))

    out = go(t, live, {})
    del go  # it refers to itself: a cycle that would keep ``pre`` alive
    return out


# ---------------------------------------------------------------------------
# Sequents


class Sequent(Record):
    __slots__ = _fields = ("hyps", "concl")

    def __init__(self, hyps: tuple[HolTerm, ...], concl: HolTerm):
        self.hyps = hyps
        self.concl = concl

    def alpha_eq(self, other: "Sequent") -> bool:
        return alpha_equal(self.concl, other.concl) and _key_ids(self.hyps) == _key_ids(other.hyps)


def make_sequent(hyps: Iterable[HolTerm], concl: HolTerm) -> Sequent:
    """Alpha-deduplicate the hypotheses, keeping the first of each class,
    and sort them by their canonical key."""
    by_key = {}
    for h in hyps:
        by_key.setdefault(id(term_key(h)), h)
    return Sequent(tuple(sorted(by_key.values(), key=term_key)), concl)


def _key_ids(terms: Iterable[HolTerm]) -> set[int]:
    return {id(term_key(t)) for t in terms}


def _hyps_minus(hyps: tuple[HolTerm, ...], t: HolTerm) -> tuple[HolTerm, ...]:
    k = term_key(t)
    return tuple(h for h in hyps if term_key(h) is not k)


def sequent_tyvars(seq: Sequent) -> frozenset:
    return term_tyvars(seq.concl).union(*map(term_tyvars, seq.hyps))


def sequent_free_vars(seq: Sequent) -> frozenset:
    return free_vars(seq.concl).union(*map(free_vars, seq.hyps))


# ---------------------------------------------------------------------------
# Proofs


class Proof(Record):
    """A derivation node, built from the values of its ``_fields`` in order:
    ``sub``, ``fun``, ``arg``, ``eq``, ``prem``, ``lhs`` and ``rhs`` are
    premises (proofs), the rest HOL terms, variables, names or a
    ``HolSubst``.  ``sequent`` is what it proves, set when it is built, and
    is not compared."""

    __slots__ = ("sequent",)

    def __init__(self, *values) -> None:
        super().__init__(*values)
        self.sequent = _check(self)


class Refl(Proof):
    __slots__ = _fields = ("term",)


class AbsThm(Proof):
    __slots__ = _fields = ("var", "sub")


class AppThm(Proof):
    __slots__ = _fields = ("fun", "arg")


class Beta(Proof):
    __slots__ = _fields = ("var", "body")


class Assume(Proof):
    __slots__ = _fields = ("prop",)


class EqMp(Proof):
    __slots__ = _fields = ("eq", "prem")


class DeductAntiSym(Proof):
    __slots__ = _fields = ("lhs", "rhs")


class Subst(Proof):
    __slots__ = ("subst", "sub", "hyp_images")  # the images of ``sub``'s hypotheses, in order; not compared
    _fields = ("subst", "sub")


class Axiom(Proof):
    __slots__ = _fields = ("hyps", "concl")


class DefineConst(Proof):
    """Yields |- c = body and registers c; the body must be closed."""

    __slots__ = _fields = ("name", "body")


class TypeOpDef(Record):
    """Shared payload of a type-operator definition.

    ``sub`` proves |- pred witness with no hypotheses; the new operator's
    arguments are ``tyvars`` in the given order.
    """

    __slots__ = ("op", "abs", "rep", "tyvars", "sub", "shape")
    _fields = ("op", "abs", "rep", "tyvars", "sub")

    def __init__(self, *values) -> None:
        super().__init__(*values)
        self.shape = None  # ``pieces()``, kept by the first theorem built from the definition; not compared

    def pieces(self) -> tuple[HolTerm, HolType, HolType]:
        """Return (pred, carrier type, new type) after validating the shape."""
        sub_seq = self.sub.sequent
        if sub_seq.hyps:
            raise RuleViolation("DefineTypeOp", "witness theorem has hypotheses")
        c = sub_seq.concl
        if not isinstance(c, App):
            raise RuleViolation("DefineTypeOp", "witness conclusion is not an application")
        pred = c.fn
        if free_vars(pred):
            raise RuleViolation("DefineTypeOp", "predicate has free term variables")
        if term_tyvars(pred) != set(self.tyvars):
            raise RuleViolation(
                "DefineTypeOp", "type variable list does not match the predicate"
            )
        if len(set(self.tyvars)) != len(self.tyvars):
            raise RuleViolation("DefineTypeOp", "duplicate type variable name")
        carrier = dest_fn(pred.type)[0]
        new_ty = TyOp(self.op, tuple(TyVar(a) for a in self.tyvars))
        return pred, carrier, new_ty


class AbsRepThm(Proof):
    """|- (\\a. abs (rep a)) = (\\a. a)"""

    __slots__ = _fields = ("defn",)


class RepAbsThm(Proof):
    """|- (\\r. rep (abs r) = r) = (\\r. pred r)"""

    __slots__ = _fields = ("defn",)


def check_proof(proof: Proof) -> Sequent:
    """The sequent ``proof`` proves, checked when the node was built."""
    return proof.sequent


def _require_bool(rule: str, t: HolTerm) -> None:
    if t.type != BOOL:
        raise RuleViolation(rule, f"not a proposition: a term of type {fmt_type(t.type)}")


def _check(proof: Proof) -> Sequent:
    """Apply ``proof``'s rule to its premises' sequents."""
    if isinstance(proof, Refl):
        return make_sequent((), mk_eq(proof.term, proof.term))

    if isinstance(proof, AbsThm):
        s = proof.sub.sequent
        try:
            m, n = dest_eq(s.concl)
        except HolError:
            raise RuleViolation("AbsThm", "premise is not an equality")
        for h in s.hyps:
            if proof.var in free_vars(h):
                raise RuleViolation("AbsThm", f"{proof.var.name} is free in a hypothesis")
        return make_sequent(s.hyps, mk_eq(Abs(proof.var, m), Abs(proof.var, n)))

    if isinstance(proof, AppThm):
        s1 = proof.fun.sequent
        s2 = proof.arg.sequent
        try:
            f, g = dest_eq(s1.concl)
            m, n = dest_eq(s2.concl)
        except HolError:
            raise RuleViolation("AppThm", "premise is not an equality")
        try:
            a, _ = dest_fn(f.type)
        except AppTypeMismatch:
            raise RuleViolation("AppThm", "function side has no arrow type")
        if m.type != a:
            raise RuleViolation("AppThm", "argument type does not match the domain")
        return make_sequent(s1.hyps + s2.hyps, mk_eq(App(f, m), App(g, n)))

    if isinstance(proof, Beta):
        redex = App(Abs(proof.var, proof.body), proof.var)
        return make_sequent((), mk_eq(redex, proof.body))

    if isinstance(proof, Assume):
        _require_bool("Assume", proof.prop)
        return make_sequent((proof.prop,), proof.prop)

    if isinstance(proof, EqMp):
        s1 = proof.eq.sequent
        s2 = proof.prem.sequent
        try:
            phi, psi = dest_eq(s1.concl)
        except HolError:
            raise RuleViolation("EqMp", "first premise is not an equality")
        if phi.type != BOOL:
            raise RuleViolation("EqMp", "equality is not between propositions")
        if not alpha_equal(phi, s2.concl):
            raise RuleViolation("EqMp", "second premise does not match the equality lhs")
        return make_sequent(s1.hyps + s2.hyps, psi)

    if isinstance(proof, DeductAntiSym):
        s1 = proof.lhs.sequent
        s2 = proof.rhs.sequent
        hyps = _hyps_minus(s1.hyps, s2.concl) + _hyps_minus(s2.hyps, s1.concl)
        return make_sequent(hyps, mk_eq(s1.concl, s2.concl))

    if isinstance(proof, Subst):
        s = proof.sub.sequent
        for v, img in proof.subst.sigma:
            if img.type != v.type:
                raise RuleViolation("Subst", f"image for {v.name} has the wrong type")
        proof.hyp_images = tuple(apply_subst(proof.subst, h) for h in s.hyps)
        return make_sequent(proof.hyp_images, apply_subst(proof.subst, s.concl))

    if isinstance(proof, Axiom):
        for h in proof.hyps:
            _require_bool("Axiom", h)
        _require_bool("Axiom", proof.concl)
        return make_sequent(proof.hyps, proof.concl)

    if isinstance(proof, DefineConst):
        if free_vars(proof.body):
            raise RuleViolation("DefineConst", "definiens has free term variables")
        ty = proof.body.type
        if not term_tyvars(proof.body) <= type_tyvars(ty):
            raise RuleViolation(
                "DefineConst", "definiens type variables exceed those of its type"
            )
        return make_sequent((), mk_eq(Const(proof.name, ty), proof.body))

    if isinstance(proof, (AbsRepThm, RepAbsThm)):
        d = proof.defn
        if d.shape is None:
            d.shape = d.pieces()
        pred, carrier, new_ty = d.shape
        abs_c = Const(d.abs, fn(carrier, new_ty))
        rep_c = Const(d.rep, fn(new_ty, carrier))
        if isinstance(proof, AbsRepThm):
            a = Var("a", new_ty)
            lhs = Abs(a, App(abs_c, App(rep_c, a)))
            rhs = Abs(a, a)
            return make_sequent((), mk_eq(lhs, rhs))
        r = Var("r", carrier)
        lhs = Abs(r, mk_eq(App(rep_c, App(abs_c, r)), r))
        rhs = Abs(r, App(pred, r))
        return make_sequent((), mk_eq(lhs, rhs))

    raise HolError(f"unknown proof node {type(proof).__name__}")


def eta_instance(seq: Sequent) -> Optional[tuple[Var, HolTerm]]:
    """Recognize |- (\\x. M x) = M with x not free in M; returns (x, M)."""
    if seq.hyps:
        return None
    try:
        lhs, rhs = dest_eq(seq.concl)
    except HolError:
        return None
    if (
        isinstance(lhs, Abs)
        and isinstance(lhs.body, App)
        and lhs.body.arg == lhs.var
        and alpha_equal(lhs.body.fn, rhs)
        and lhs.var not in free_vars(lhs.body.fn)
    ):
        return lhs.var, rhs
    return None
