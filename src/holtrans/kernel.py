"""The lambda-Pi calculus modulo rewriting.

Terms are locally nameless: bound variables are de Bruijn indices (``BVar``),
free variables carry names (``Var``).  Binder names survive only as display
hints and are ignored by equality and hashing, so ``==`` on terms is exactly
alpha-equivalence.  Abstractions and products share one shape, ``Binder``
(``hint``, ``domain``, ``body``), and differ only in their class.

A telescope is a chain of binders, outermost first.  ``bind(cls, binders,
body)`` builds a chain from ``(name, hint, domain)`` triples, each name
bound in the later domains and the body, and ``open_term(t, *values)``
fills a whole telescope; each walks a term once (Chargueraud, "The Locally
Nameless Representation", 2012).

Each node caches its size, its loose-index bound (``max(index + 1)`` over
its dangling indices; 0 means locally closed), whether a free ``Var``
occurs in it, and, once first asked for, its structural hash.  Equality
compares sizes and any cached hashes before walking the children.  The
operations use these facts to skip subterms they cannot change: opening
skips subterms whose bound is at most the depth, closing and substitution
skip subterms without free variables.  Terms are plain ``__slots__``
classes, immutable by convention: nothing assigns to a node once built.
A term may share nodes (a DAG); closing, substitution and ``free_names``
visit a shared node once per call, so a DAG closes, and is instantiated,
into a DAG.

A ``Signature`` is an ordered sequence of constant declarations, definitions
and rewrite rules.  Conversion is beta-reduction plus rule rewriting plus
definition unfolding; ``infer_type`` is syntax-directed, with conversion
checks folded into the application rule.  Reduction is guarded by a step
budget (``Fuel``) because termination of user rule sets is not checked.

A typing context is a plain dict from names to types, one per
``infer_type`` call: binders add their names before the body and delete
them after it, so no context is copied.

Going under a binder opens it with a fresh free variable, named in one of
two reserved forms so that no scan of the body is needed:

* typing names the variable ``hint#k``, where ``k`` is the length of the
  context it extends.  The text after the last ``#`` is the depth, so the
  name is unique along the context; error messages print it (``A#0``).
* ``convertible`` names it ``%N`` from a process-wide counter.  Conversion
  only compares, so the variable never escapes; a counter rather than the
  depth, because conversion inside non-linear matching compares terms that
  already hold such variables.

Neither form can come from the ``.dk`` lexer (``[A-Za-z0-9_]+``) or from
``dkfile.mangle``; callers that build terms themselves must not use them
for free variables or context names.

The abstraction and product rules type a whole chain of one binder class
in one pass: they open the chain once, add all its binders to the context
at once and check each domain.  For ``x1 : A1 => ... => xn : An => b``
the abstraction rule infers ``b : B``, checks that ``B`` has a sort, and
binds ``B`` back into ``x1 : A1 -> ... -> B``.  A product's sort is its
body's and each domain is checked, so this is the product rule's
derivation without re-proving it at every level.  For
``x1 : A1 -> ... -> xn : An -> B`` the product rule returns ``B``'s sort.
Either way the work grows linearly with the chain's length.

The application rule likewise types a whole spine ``f a1 ... an`` in one
pass: it infers the head's type once and walks the arguments, opening
each domain with the arguments before it.  It reduces the type (``whnf``)
only where it is not already a product, and opens the codomain once at
the end, so the errors and their order are the one-argument rule's.

A definition's body is checked against its declared type, which has
already been shown to have a sort (Dunfield and Krishnaswami,
"Bidirectional Typing", 2021).  The body's leading abstractions are
opened together with the type's leading products while their domains are
equal; the product rule has checked those domains, so only the rest of
the body is inferred, in their context, and compared with the rest of the
type.  That is the abstraction rule's derivation with its premises taken
from the type, so the verdict is the infer-and-compare one's.  Translated
theorems bind in their proofs exactly what their statements quantify.

Each ``Signature`` memoizes ``whnf`` (Lean 4's kernel keeps such a cache:
de Moura and Ullrich, CADE 2021).  ``whnf`` depends on nothing but the
term and the signature, so an entry may be read back for any term, open
or closed; ``Signature.add`` clears the memo, so an entry is read back
only under the very signature that produced it, and no argument about
fresh names is needed.  Only terms that reduce are entered, never a
failure, and a hit spends no fuel, so fuel counts the reduction steps
actually taken.  Two equal terms may differ in their display hints, and
a reduct carries its term's hints into inferred types, which the
translator emits; so a hit by an equal but distinct term is taken only
if the hints agree too.

Conversion is lazy (Coquand, "An algorithm for testing conversion in type
theory", 1991).  Equal terms are convertible.  Otherwise both sides are
reduced to weak-head normal form and compared by shape: two application
spines need equal heads, equal arities and pairwise convertible arguments;
two abstractions or two products need convertible domains and bodies that
are convertible once opened with one shared ``%N``.  ``whnf`` reduces the
function part of an application first, so every prefix of a weak-head
spine is weak-head normal, and this decides exactly whether the two full
normal forms are equal without building them: a definition is unfolded
only where it stands at a head.  Pairs found convertible are remembered
for the rest of the call, so a subproblem met twice is settled once.
Where normalizing a side would diverge, the check can still answer: it
never reduces a subterm pair that is already equal, nor the arguments
under differing heads.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Optional, Sequence, Union

DEFAULT_FUEL = 10_000_000


class KernelError(Exception):
    """Base for all typing, reduction and signature errors.

    The arguments are the message's parts: text, the offending terms, and
    the error this one wraps.  ``str`` joins them and renders each term
    with ``dkfile``'s printer, cut to a fixed width, so this module holds
    no printer of its own.
    """

    def __str__(self) -> str:
        from .dkfile import fmt_message_term

        return "".join(fmt_message_term(a) if isinstance(a, Term) else str(a) for a in self.args)


class FuelExhausted(KernelError):
    """Reduction exceeded its step budget; the rule set likely diverges."""


class UnboundVariable(KernelError):
    pass


class UnboundConstant(KernelError):
    pass


class DomainMismatch(KernelError):
    """An actual type fails to convert to the expected one at an application."""


class NotAFunction(DomainMismatch):
    """Application head whose type exposes no product even after reduction.

    A special case of ``DomainMismatch`` so callers can treat every failure
    of the application rule uniformly.
    """


class IllegalSort(KernelError):
    pass


class DuplicateVariable(KernelError):
    pass


class NotAType(KernelError):
    pass


class DuplicateConstant(KernelError):
    pass


class IllTypedDeclaration(KernelError):
    pass


class RuleTypeMismatch(KernelError):
    pass


class NonPatternLhs(KernelError):
    pass


class UnboundRhsVariable(KernelError):
    pass


# ---------------------------------------------------------------------------
# Terms


class Term:
    """Base of the term classes; see the module docstring for the cached facts.

    Leaves hold the facts that never vary as class attributes.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    size: int
    bound: int
    has_var: bool

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


class _Named(Term):
    """A leaf identified by its class and name."""

    __slots__ = ("name",)
    _fields = ("name",)
    size, bound, has_var = 1, 0, False

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.name == self.name

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.name))


class Sort(_Named):
    __slots__ = ()  # name is "Type" or "Kind"

    def __repr__(self) -> str:
        return self.name


TYPE = Sort("Type")
KIND = Sort("Kind")


class Var(_Named):
    """A free (named) variable."""

    __slots__ = ()
    has_var = True


class Const(_Named):
    __slots__ = ()


class BVar(Term):
    """A bound variable as a de Bruijn index.  It carries no name: the
    emitter prints it by its binder's."""

    __slots__ = ("index", "bound")
    _fields = ("index",)
    size, has_var = 1, False

    def __init__(self, index: int):
        self.index = index
        self.bound = index + 1

    def __eq__(self, other: object) -> bool:
        return type(other) is BVar and other.index == self.index

    def __hash__(self) -> int:
        return hash(("BVar", self.index))


class Binder(Term):
    """An abstraction or a product: ``body`` binds index 0.  Equal binders
    have the same class; the hint, as everywhere, is display-only."""

    __slots__ = ("hint", "domain", "body", "size", "bound", "has_var", "_hash")
    _fields = ("hint", "domain", "body")

    def __init__(self, hint: str, domain: Term, body: Term):
        self.hint = hint
        self.domain = domain
        self.body = body
        self.size = domain.size + body.size + 1
        b, c = domain.bound, body.bound - 1
        self.bound = b if b > c else c
        self.has_var = domain.has_var or body.has_var
        self._hash: Optional[int] = None

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self) or other.size != self.size:
            return False
        h, g = self._hash, other._hash
        if h is not None and g is not None and h != g:
            return False
        return self.domain == other.domain and self.body == other.body

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((type(self).__name__, self.domain, self.body))
        return h


class Prod(Binder):
    """Dependent product; its body is the codomain."""

    __slots__ = ()


class Abs(Binder):
    """Abstraction."""

    __slots__ = ()


class App(Term):
    __slots__ = ("fn", "arg", "size", "bound", "has_var", "_hash")
    _fields = ("fn", "arg")

    def __init__(self, fn: Term, arg: Term):
        self.fn = fn
        self.arg = arg
        self.size = fn.size + arg.size + 1
        b, c = fn.bound, arg.bound
        self.bound = b if b > c else c
        self.has_var = fn.has_var or arg.has_var
        self._hash: Optional[int] = None

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not App or other.size != self.size:
            return False
        h, g = self._hash, other._hash
        if h is not None and g is not None and h != g:
            return False
        return self.fn == other.fn and self.arg == other.arg

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(("App", self.fn, self.arg))
        return h


def app(fn: Term, *args: Term) -> Term:
    for a in args:
        fn = App(fn, a)
    return fn


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Split ``t`` into its head and the application arguments, left to right."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def _close(t: Term, position: dict[str, int], level: int, memo: dict) -> Term:
    """Bind the free names of ``position`` in ``t`` under ``level + 1``
    binders: the name at position p becomes index ``level - p``.

    ``memo`` maps ``(id(node), level)`` to its result for one walk, so a node
    shared in ``t`` is closed once per level and stays shared in the result.
    """
    if not t.has_var:
        return t
    if isinstance(t, Var):
        p = position.get(t.name)
        return t if p is None else BVar(level - p)
    key = (id(t), level)
    out = memo.get(key)
    if out is None:
        if isinstance(t, App):
            out = App(_close(t.fn, position, level, memo), _close(t.arg, position, level, memo))
        else:
            out = type(t)(
                t.hint, _close(t.domain, position, level, memo), _close(t.body, position, level + 1, memo)
            )
        memo[key] = out
    return out


def open_term(t: Term, *values: Term) -> Term:
    """Fill the telescope ``values``, given outermost first, in one walk.

    The last value replaces index 0, the one before it index 1, and so on;
    the values must be locally closed.  Higher loose indices drop by
    ``len(values)``.
    """
    return _open(t, values, 0)


def _open(t: Term, values: tuple[Term, ...], depth: int) -> Term:
    if t.bound <= depth:
        return t
    if isinstance(t, BVar):
        k = len(values) - 1 - t.index + depth
        return values[k] if k >= 0 else BVar(t.index - len(values))
    if isinstance(t, App):
        return App(_open(t.fn, values, depth), _open(t.arg, values, depth))
    if isinstance(t, Binder):
        return type(t)(t.hint, _open(t.domain, values, depth), _open(t.body, values, depth + 1))
    return t


def bind(cls: type[Binder], binders: Sequence[tuple[str, str, Term]], body: Term) -> Term:
    """The chain of ``cls`` binders ``binders`` around ``body``.

    Each binder is a ``(name, hint, domain)`` triple, outermost first; its
    free variable ``name`` is bound in the later domains and in ``body``.
    Each domain and the body are walked once.
    """
    position: dict[str, int] = {}
    domains = []
    for i, (name, _, domain) in enumerate(binders):
        domains.append(_close(domain, position, i - 1, {}) if position else domain)
        position[name] = i
    out = _close(body, position, len(binders) - 1, {})
    for (_, hint, _), domain in zip(reversed(binders), reversed(domains)):
        out = cls(hint, domain, out)
    return out


def arrow(*types: Term) -> Term:
    """Right-associated non-dependent product chain."""
    if not types:
        raise ValueError("arrow needs at least one type")
    result = types[-1]
    for t in reversed(types[:-1]):
        result = Prod("_", t, result)
    return result


def free_names(t: Term) -> set[str]:
    return _leaf_names(t, Var)


def const_names(t: Term) -> set[str]:
    return _leaf_names(t, Const)


def _leaf_names(t: Term, cls: type[_Named]) -> set[str]:
    """The names of the ``cls`` leaves of ``t``, visiting each node once."""
    out: set[str] = set()
    seen: set[int] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if cls is Var and not u.has_var:
            continue
        if isinstance(u, cls):
            out.add(u.name)
        elif isinstance(u, (App, Binder)) and id(u) not in seen:
            seen.add(id(u))
            stack += (u.fn, u.arg) if isinstance(u, App) else (u.domain, u.body)
    return out


def substitute(t: Term, mapping: dict[str, Term]) -> Term:
    """Simultaneous substitution for free variables.

    Capture-avoidance is automatic in the locally nameless representation:
    binders bind indices, never names, so images can never be captured.
    A node shared in ``t`` is substituted once per call and stays shared in
    the result; a subterm the mapping does not change is returned as it is.
    """
    return _subst(t, mapping, {}) if mapping else t


def _subst(t: Term, mapping: dict[str, Term], memo: dict) -> Term:
    """``substitute``'s walk; ``memo`` maps ``id(node)`` to its result."""
    if not t.has_var:
        return t
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    out = memo.get(id(t))
    if out is None:
        if isinstance(t, App):
            fn, arg = _subst(t.fn, mapping, memo), _subst(t.arg, mapping, memo)
            out = t if fn is t.fn and arg is t.arg else App(fn, arg)
        else:
            domain, body = _subst(t.domain, mapping, memo), _subst(t.body, mapping, memo)
            out = t if domain is t.domain and body is t.body else type(t)(t.hint, domain, body)
        memo[id(t)] = out
    return out


def term_size(t: Term) -> int:
    return t.size


# ---------------------------------------------------------------------------
# Signatures


class Record:
    """A plain immutable record: built from the values of ``_fields`` in
    order, with equality, hash and repr over them, as a frozen dataclass
    gives them, without loading ``dataclasses``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} values, got {len(values)}")
        for name, value in zip(self._fields, values):
            setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return Term.__repr__(self)


class ConstDecl(Record):
    __slots__ = _fields = ("name", "type")


class Defn(Record):
    """A transparent definition: behaves as a constant that unfolds to its body."""

    __slots__ = _fields = ("name", "type", "body")


class RewriteRule(Record):
    """A typed rewrite rule; free variables of lhs/rhs live in the rule context."""

    __slots__ = _fields = ("context", "lhs", "rhs")


SigItem = Union[ConstDecl, Defn, RewriteRule]


class Signature:
    """Ordered declarations, definitions and rewrite rules.

    ``add`` grows a signature in place, so only its owner may call it: a
    signature that others hold, such as a cached base signature, is copied
    first with ``Signature(sig.items)``.  A rule is filed under its head
    constant with its pattern arguments, split once here; a rule whose lhs
    is not a pattern is not filed (``check_signature`` reports it).

    ``_whnf`` memoizes ``whnf``: a term that reduced maps to itself, whose
    hints a hit compares, and its weak-head normal form.  ``add`` clears it,
    so an entry is read back only under the very signature that produced it.
    """

    __slots__ = ("_items", "_consts", "_defs", "_rules", "_whnf")

    def __init__(self, items: Iterable[SigItem] = ()):
        self._items: list[SigItem] = []
        self._consts: dict[str, Term] = {}
        self._defs: dict[str, Term] = {}
        self._rules: dict[str, list[tuple[list[Term], RewriteRule]]] = {}
        self._whnf: dict[Term, tuple[Term, Term]] = {}
        for it in items:
            self.add(it)

    def add(self, it: SigItem) -> None:
        """Append one item (unchecked; ``check_signature`` validates)."""
        self._items.append(it)
        self._whnf.clear()
        if isinstance(it, ConstDecl):
            self._consts[it.name] = it.type
        elif isinstance(it, Defn):
            self._consts[it.name] = it.type
            self._defs[it.name] = it.body
        else:
            head, pats = spine(it.lhs)
            if isinstance(head, Const):
                self._rules.setdefault(head.name, []).append((pats, it))

    @property
    def items(self) -> tuple[SigItem, ...]:
        return tuple(self._items)

    @property
    def rules(self) -> list[RewriteRule]:
        return [it for it in self._items if isinstance(it, RewriteRule)]

    def const_type(self, name: str) -> Optional[Term]:
        return self._consts.get(name)

    def definition(self, name: str) -> Optional[Term]:
        return self._defs.get(name)

    def rules_for(self, head: str) -> list[tuple[list[Term], RewriteRule]]:
        """The rules headed by ``head``, each with its pattern arguments."""
        return self._rules.get(head, [])

    def __contains__(self, name: str) -> bool:
        return name in self._consts

    def __repr__(self) -> str:
        return f"Signature({len(self._items)} items, {len(self.rules)} rules)"


# ---------------------------------------------------------------------------
# Reduction


class Fuel:
    __slots__ = ("left",)

    def __init__(self, steps: int = DEFAULT_FUEL):
        self.left = steps

    def spend(self, n: int = 1) -> None:
        self.left -= n
        if self.left < 0:
            raise FuelExhausted("reduction step budget exceeded")


def _as_fuel(fuel: Union[int, Fuel, None]) -> Fuel:
    if isinstance(fuel, Fuel):
        return fuel
    return Fuel(DEFAULT_FUEL if fuel is None else fuel)


def _match_reducing(sig: "Signature", pat: Term, t: Term, bind: dict[str, Term], fuel: Fuel) -> bool:
    """First-order matching that weak-head-normalizes the subject on demand."""
    if isinstance(pat, Var):
        prev = bind.get(pat.name)
        if prev is None:
            bind[pat.name] = t
            return True
        return prev == t or convertible(sig, prev, t, fuel)
    if isinstance(pat, Const):
        return whnf(sig, t, fuel) == pat
    if isinstance(pat, App):
        u = whnf(sig, t, fuel)
        return (
            isinstance(u, App)
            and _match_reducing(sig, pat.fn, u.fn, bind, fuel)
            and _match_reducing(sig, pat.arg, u.arg, bind, fuel)
        )
    return False


def _rewrite_head(sig: Signature, t: Term, fuel: Fuel) -> Optional[Term]:
    """One rule or definition step at the root of ``t``, or None.

    The match may reduce proper subterms to expose rule patterns.  The root
    itself is destructured, never reduced, so this is safe to call from
    ``whnf``.
    """
    head, args = spine(t)
    if not isinstance(head, Const):
        return None
    for pats, rule in sig.rules_for(head.name):
        if len(pats) != len(args):
            continue
        bind: dict[str, Term] = {}
        for p, a in zip(pats, args):
            if not _match_reducing(sig, p, a, bind, fuel):
                break
        else:
            return substitute(rule.rhs, bind)
    body = sig.definition(head.name)
    if body is not None:
        return app(body, *args)
    return None


def whnf(sig: Signature, t: Term, fuel: Union[int, Fuel, None] = None) -> Term:
    """Weak head normal form under beta, the signature's rules, and unfolding.

    The result for a term that reduces is memoized in ``sig`` (see the
    module docstring); a hit spends no fuel, and a failure is never entered.
    A spine whose head is neither an abstraction nor a constant with rules
    or a definition cannot reduce, and is returned without a memo lookup.
    """
    head = t
    while isinstance(head, App):
        head = head.fn
    if isinstance(head, Const):
        if head.name not in sig._defs and head.name not in sig._rules:
            return t
    elif not isinstance(head, Abs) or head is t:
        return t
    memo = sig._whnf
    hit = memo.get(t)
    if hit is not None and (hit[0] is t or _same_hints(hit[0], t)):
        return hit[1]
    fuel = _as_fuel(fuel)
    u = t
    while True:
        if isinstance(u, App):
            fn = whnf(sig, u.fn, fuel)
            if isinstance(fn, Abs):
                fuel.spend()
                u = open_term(fn.body, u.arg)
                continue
            if fn is not u.fn:
                u = App(fn, u.arg)
        elif not isinstance(u, Const):
            break
        r = _rewrite_head(sig, u, fuel)
        if r is None:
            break
        fuel.spend()
        u = r
    if u is not t:
        memo[t] = (t, u)
    return u


def _same_hints(a: Term, b: Term) -> bool:
    """Whether two equal terms also agree in every binder's display hint,
    so that ``whnf`` builds the same result, hints and all, from either."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if isinstance(a, Binder):
            if a.hint != b.hint:
                return False
            stack += ((a.domain, b.domain), (a.body, b.body))
        elif isinstance(a, App):
            stack += ((a.fn, b.fn), (a.arg, b.arg))
    return True


_conv_names = itertools.count()


def convertible(sig: Signature, a: Term, b: Term, fuel: Union[int, Fuel, None] = None) -> bool:
    """Beta-rule conversion: whether ``a`` and ``b`` have the same normal form.

    Decided lazily (see the module docstring): only weak heads are reduced,
    and a subterm pair is dropped as soon as it is syntactically equal.
    """
    return _conv(sig, a, b, _as_fuel(fuel), set())


def _conv(sig: Signature, a: Term, b: Term, fuel: Fuel, proven: set) -> bool:
    """Lazy conversion; ``proven`` holds the pairs this call already settled.

    A failure ends the whole top-level call, so only successes are kept.
    """
    if a == b or (a, b) in proven:
        return True
    u, v = whnf(sig, a, fuel), whnf(sig, b, fuel)
    if not (u == v or _conv_whnf(sig, u, v, fuel, proven)):
        return False
    proven.add((a, b))
    return True


def _conv_whnf(sig: Signature, a: Term, b: Term, fuel: Fuel, proven: set) -> bool:
    """Conversion of two weak-head normal forms, by their outermost shape.

    Every prefix of a weak-head spine is itself weak-head normal, so two
    spines are convertible exactly when their heads and arguments are.
    """
    if isinstance(a, App):
        if not isinstance(b, App):
            return False
        head_a, args_a = spine(a)
        head_b, args_b = spine(b)
        return (
            len(args_a) == len(args_b)
            and (head_a == head_b or _conv_whnf(sig, head_a, head_b, fuel, proven))
            and all(_conv(sig, x, y, fuel, proven) for x, y in zip(args_a, args_b))
        )
    if isinstance(a, Binder):
        if type(b) is not type(a) or not _conv(sig, a.domain, b.domain, fuel, proven):
            return False
        x = Var(f"%{next(_conv_names)}")
        return _conv(sig, open_term(a.body, x), open_term(b.body, x), fuel, proven)
    return a == b


# ---------------------------------------------------------------------------
# Typing


def infer_type(
    sig: Signature,
    ctx: Mapping[str, Term],
    t: Term,
    fuel: Union[int, Fuel, None] = None,
) -> Term:
    """Infer the type of ``t`` in a copy of ``ctx``; raises a ``KernelError`` subclass on failure."""
    return _infer(sig, dict(ctx), t, _as_fuel(fuel))


def _infer(sig: Signature, ctx: dict[str, Term], t: Term, fuel: Fuel) -> Term:
    if not isinstance(t, App):
        if isinstance(t, Const):
            ty = sig.const_type(t.name)
            if ty is None:
                raise UnboundConstant(f"unbound constant {t.name}")
            return ty
        if isinstance(t, Var):
            ty = ctx.get(t.name)
            if ty is None:
                raise UnboundVariable(f"unbound variable {t.name}")
            return ty
        if isinstance(t, Binder):
            return _infer_chain(sig, ctx, t, fuel)
        if isinstance(t, BVar):
            raise KernelError(f"dangling bound variable #{t.index}")
        if t == TYPE:
            return KIND
        raise IllegalSort("Kind has no type")
    # The whole spine at once: the head's type is inferred once, and each
    # domain is opened with the arguments before it; the codomain is opened
    # only where it must be reduced to expose a product, and at the end.
    apps: list[App] = []
    head: Term = t
    while isinstance(head, App):
        apps.append(head)
        head = head.fn
    ty = _infer(sig, ctx, head, fuel)
    values: list[Term] = []
    for node in reversed(apps):
        if type(ty) is not Prod:
            if values:
                ty = open_term(ty, *values)
                values = []
            ty = whnf(sig, ty, fuel)
            if type(ty) is not Prod:
                raise NotAFunction("application head has no product type: ", node.fn, " : ", ty)
        arg_ty = _infer(sig, ctx, node.arg, fuel)
        domain = open_term(ty.domain, *values) if values and ty.domain.bound else ty.domain
        if arg_ty != domain and not convertible(sig, arg_ty, domain, fuel):
            raise DomainMismatch("argument type mismatch: expected ", domain, ", got ", arg_ty)
        values.append(node.arg)
        ty = ty.body
    return open_term(ty, *values)


def _infer_chain(sig: Signature, ctx: dict[str, Term], t: Binder, fuel: Fuel) -> Term:
    """The Abs or Prod rule, applied to a maximal chain of ``t``'s class at once.

    The chain's binders are added to ``ctx`` once and deleted once it is
    typed (a failure leaves them, but ``ctx`` is private to the call).
    Domain i can mention only the binders before it, so checking it in the
    whole chain's context gives the verdict its own prefix would.  A
    product chain's sort is its body's.  An abstraction chain's inferred
    product must itself be well-sorted, which rules out kind-level bodies.
    Only the innermost body's type needs its sort checked (see the module
    docstring); re-inferring the product at every level would repeat that
    check once per enclosing binder.
    """
    cls = type(t)
    binders: list[tuple[str, str, Term]] = []
    values: list[Term] = []
    body: Term = t
    while type(body) is cls:
        x = f"{body.hint}#{len(ctx) + len(values)}"
        # unpacking ``values`` for every domain would be quadratic
        domain = open_term(body.domain, *values) if body.domain.bound else body.domain
        binders.append((x, body.hint, domain))
        values.append(Var(x))
        body = body.body
    ctx.update((x, domain) for x, _, domain in binders)
    for _, _, domain in binders:
        _check_is_type(sig, ctx, domain, fuel)
    ty = _infer(sig, ctx, open_term(body, *values), fuel)
    s = whnf(sig, ty if cls is Prod else _infer(sig, ctx, ty, fuel), fuel)
    for x, _, _ in binders:
        del ctx[x]
    if cls is Prod and not isinstance(s, Sort):
        raise IllegalSort("product codomain is not a type or kind: ", t)
    if not isinstance(s, Sort):
        raise IllegalSort("abstraction body type is not well-sorted: ", ty)
    return s if cls is Prod else bind(Prod, binders, ty)


def _check_is_type(sig: Signature, ctx: dict[str, Term], a: Term, fuel: Fuel) -> None:
    s = whnf(sig, _infer(sig, ctx, a, fuel), fuel)
    if s != TYPE:
        raise IllegalSort("expected a type of sort Type: ", a, " has sort ", s)


def check_context(sig: Signature, bindings: Iterable[tuple[str, Term]], fuel: Union[int, Fuel, None] = None) -> None:
    """Validate each ``(name, type)`` binding against its prefix; raises on the first failure."""
    fuel = _as_fuel(fuel)
    prefix: dict[str, Term] = {}
    for name, ty in bindings:
        if name in prefix:
            raise DuplicateVariable(f"variable {name} bound twice")
        try:
            _check_is_type(sig, prefix, ty, fuel)
        except IllegalSort as e:
            raise NotAType(f"binding {name}: ", e) from e
        prefix[name] = ty


def _check_pattern(t: Term) -> None:
    head, args = spine(t)
    if not isinstance(head, Const):
        raise NonPatternLhs("rule head is not a constant: ", t)
    for a in args:
        _check_pattern_arg(a)


def _check_pattern_arg(t: Term) -> None:
    if isinstance(t, (Var, Const)):
        return
    if isinstance(t, App):
        head, args = spine(t)
        if not isinstance(head, Const):
            raise NonPatternLhs("pattern argument with non-constant head: ", t)
        for a in args:
            _check_pattern_arg(a)
        return
    raise NonPatternLhs("non-first-order pattern argument: ", t)


def check_signature(sig: Signature, fuel: Union[int, Fuel, None] = None) -> None:
    """Validate every item against its prefix; raises on the first failure,
    which names its item, a spent budget too."""
    check_extension(Signature(), sig.items, fuel)


def check_extension(sig: Signature, items: Iterable[SigItem], fuel: Union[int, Fuel, None] = None) -> None:
    """Validate each of ``items`` against ``sig`` and the items before it,
    adding each to ``sig`` in place once it has passed.

    ``sig`` must be checked already, so a checked prefix is extended and
    never checked again.  Raises on the first failure, which names its
    item, a spent budget too; ``sig`` then holds the items before it.
    """
    fuel = _as_fuel(fuel)
    for item in items:
        try:
            if isinstance(item, RewriteRule):
                _check_rule(sig, item, fuel)
            elif item.name in sig:
                raise DuplicateConstant(f"constant {item.name} declared twice")
            else:
                try:
                    s = whnf(sig, _infer(sig, {}, item.type, fuel), fuel)
                except FuelExhausted:
                    raise
                except KernelError as e:
                    raise IllTypedDeclaration(f"declaration {item.name}: ", e) from e
                if not isinstance(s, Sort):
                    raise IllTypedDeclaration(f"declaration {item.name}: type has no sort")
                if isinstance(item, Defn):
                    _check_definition(sig, item, fuel)
        except FuelExhausted as e:
            kind = "definition" if isinstance(item, Defn) else "declaration"
            where = ("rule ", item.lhs) if isinstance(item, RewriteRule) else (f"{kind} {item.name}",)
            raise FuelExhausted(*where, ": ", e) from e
        sig.add(item)


def _check_definition(sig: Signature, item: Defn, fuel: Fuel) -> None:
    """Check a definition's body against its declared type, already shown
    to be well-sorted.

    The body's leading abstractions are opened together with the type's
    leading products as long as their domains are equal; the product rule
    has checked those domains, so they are not checked again.  Only the
    rest of the body is inferred, and compared with the rest of the type.
    """
    ctx: dict[str, Term] = {}
    binders: list[tuple[str, str, Term]] = []
    values: list[Term] = []
    body, ty = item.body, item.type
    while type(body) is Abs and type(ty) is Prod and body.domain == ty.domain:
        x = f"{body.hint}#{len(values)}"
        domain = open_term(body.domain, *values) if body.domain.bound else body.domain
        binders.append((x, body.hint, domain))
        values.append(Var(x))
        ctx[x] = domain
        body, ty = body.body, ty.body
    try:
        body_ty = _infer(sig, ctx, open_term(body, *values), fuel)
    except FuelExhausted:
        raise
    except KernelError as e:
        raise IllTypedDeclaration(f"definition {item.name}: ", e) from e
    if not convertible(sig, body_ty, open_term(ty, *values), fuel):
        raise IllTypedDeclaration(
            f"definition {item.name}: body type ", bind(Prod, binders, body_ty), " does not match declared ", item.type
        )


def _check_rule(prefix: Signature, rule: RewriteRule, fuel: Fuel) -> None:
    _check_pattern(rule.lhs)
    extra = free_names(rule.rhs) - free_names(rule.lhs)
    if extra:
        raise UnboundRhsVariable(
            "rule ", rule.lhs, f": rhs variables not bound on the lhs: {', '.join(sorted(extra))}"
        )
    try:
        check_context(prefix, rule.context, fuel)
    except (DuplicateVariable, NotAType) as e:
        raise type(e)("rule ", rule.lhs, ": ", e) from e
    ctx = dict(rule.context)
    try:
        lhs_ty = _infer(prefix, ctx, rule.lhs, fuel)
        rhs_ty = _infer(prefix, ctx, rule.rhs, fuel)
    except FuelExhausted:
        raise
    except KernelError as e:
        raise RuleTypeMismatch("rule ", rule.lhs, ": ", e) from e
    if not convertible(prefix, lhs_ty, rhs_ty, fuel):
        raise RuleTypeMismatch("rule ", rule.lhs, ": sides disagree: lhs : ", lhs_ty, ", rhs : ", rhs_ty)
