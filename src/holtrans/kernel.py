"""The lambda-Pi calculus modulo rewriting.

Terms are locally nameless: bound variables are de Bruijn indices (``BVar``),
free variables carry names (``Var``).  Binder names survive only as display
hints and are ignored by equality and hashing, so ``==`` on terms is exactly
alpha-equivalence.  Abstractions and products share one shape, ``Binder``
(``hint``, ``domain``, ``body``), and differ only in their class.

A telescope is a chain of binders, outermost first.  ``close(t, *names)``
and ``open_term(t, *values)`` bind or fill a whole telescope in one walk
(Chargueraud, "The Locally Nameless Representation", 2012), and
``bind(cls, binders, body)`` builds a chain from ``(name, hint, domain)``
triples, each name bound in the later domains and the body.

Each node caches its size, its loose-index bound (``max(index + 1)`` over
its dangling indices; 0 means locally closed), whether a free ``Var``
occurs in it, and, once first asked for, its structural hash.  Equality
compares sizes and any cached hashes before walking the children.  The
operations use these facts to skip subterms they cannot change: opening
skips subterms whose bound is at most the depth, closing and substitution
skip subterms without free variables.  Terms are plain ``__slots__``
classes, immutable by convention: nothing assigns to a node once built.

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
from dataclasses import dataclass
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
    """A bound variable as a de Bruijn index; the hint is display-only."""

    __slots__ = ("index", "hint", "bound")
    _fields = ("index", "hint")
    size, has_var = 1, False

    def __init__(self, index: int, hint: str = "x"):
        self.index = index
        self.hint = hint
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


def close(t: Term, *names: str) -> Term:
    """Bind the telescope ``names``, given outermost first, in one walk.

    Free occurrences of the last name become index 0, of the one before it
    index 1, and so on; where a name repeats, the innermost binds.
    """
    return _close(t, {name: i for i, name in enumerate(names)}, len(names) - 1)


def _close(t: Term, position: dict[str, int], level: int) -> Term:
    """``close`` at ``level``: the binder at ``position`` p is index ``level - p``."""
    if not t.has_var:
        return t
    if isinstance(t, Var):
        p = position.get(t.name)
        return t if p is None else BVar(level - p, t.name)
    if isinstance(t, App):
        return App(_close(t.fn, position, level), _close(t.arg, position, level))
    if isinstance(t, Binder):
        return type(t)(t.hint, _close(t.domain, position, level), _close(t.body, position, level + 1))
    return t


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
        return values[k] if k >= 0 else BVar(t.index - len(values), t.hint)
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
        domains.append(_close(domain, position, i - 1))
        position[name] = i
    out = _close(body, position, len(binders) - 1)
    for (_, hint, _), domain in zip(reversed(binders), reversed(domains)):
        out = cls(hint, domain, out)
    return out


def lam(name: str, domain: Term, body: Term) -> Abs:
    """Abstraction binding the free variable ``name`` in ``body``."""
    return Abs(name, domain, close(body, name))


def pi(name: str, domain: Term, codomain: Term) -> Prod:
    """Product binding the free variable ``name`` in ``codomain``."""
    return Prod(name, domain, close(codomain, name))


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
    out: set[str] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if cls is Var and not u.has_var:
            continue
        if isinstance(u, cls):
            out.add(u.name)
        elif isinstance(u, App):
            stack += (u.fn, u.arg)
        elif isinstance(u, Binder):
            stack += (u.domain, u.body)
    return out


def substitute(t: Term, mapping: dict[str, Term]) -> Term:
    """Simultaneous substitution for free variables.

    Capture-avoidance is automatic in the locally nameless representation:
    binders bind indices, never names, so images can never be captured.
    """
    if not mapping or not t.has_var:
        return t
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, App):
        return App(substitute(t.fn, mapping), substitute(t.arg, mapping))
    if isinstance(t, Binder):
        return type(t)(t.hint, substitute(t.domain, mapping), substitute(t.body, mapping))
    return t


def term_size(t: Term) -> int:
    return t.size


# ---------------------------------------------------------------------------
# Signatures


@dataclass(frozen=True, slots=True)
class ConstDecl:
    name: str
    type: Term


@dataclass(frozen=True, slots=True)
class Defn:
    """A transparent definition: behaves as a constant that unfolds to its body."""

    name: str
    type: Term
    body: Term


@dataclass(frozen=True)
class RewriteRule:
    """A typed rewrite rule; free variables of lhs/rhs live in the rule context."""

    context: tuple[tuple[str, Term], ...]
    lhs: Term
    rhs: Term

    @property
    def arity(self) -> int:
        return len(spine(self.lhs)[1])

    @property
    def head(self) -> Optional[str]:
        """Head constant name, or None when the lhs is not a pattern
        (check_signature reports that case; such a rule never fires)."""
        h = spine(self.lhs)[0]
        return h.name if isinstance(h, Const) else None


SigItem = Union[ConstDecl, Defn, RewriteRule]


class Signature:
    """Ordered declarations, definitions and rewrite rules.

    ``add`` grows a signature in place, so only its owner may call it: a
    signature that others hold, such as a cached base signature, is copied
    first with ``Signature(sig.items)``.
    """

    __slots__ = ("_items", "_consts", "_defs", "_rules")

    def __init__(self, items: Iterable[SigItem] = ()):
        self._items: list[SigItem] = []
        self._consts: dict[str, Term] = {}
        self._defs: dict[str, Term] = {}
        self._rules: dict[str, list[RewriteRule]] = {}
        for it in items:
            self.add(it)

    def add(self, it: SigItem) -> None:
        """Append one item (unchecked; ``check_signature`` validates)."""
        self._items.append(it)
        if isinstance(it, ConstDecl):
            self._consts[it.name] = it.type
        elif isinstance(it, Defn):
            self._consts[it.name] = it.type
            self._defs[it.name] = it.body
        elif it.head is not None:
            self._rules.setdefault(it.head, []).append(it)

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

    def rules_for(self, head: str) -> list[RewriteRule]:
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
    for rule in sig.rules_for(head.name):
        if rule.arity != len(args):
            continue
        pats = spine(rule.lhs)[1]
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
    """Weak head normal form under beta, the signature's rules, and unfolding."""
    fuel = _as_fuel(fuel)
    while True:
        if isinstance(t, App):
            fn = whnf(sig, t.fn, fuel)
            if isinstance(fn, Abs):
                fuel.spend()
                t = open_term(fn.body, t.arg)
                continue
            t2 = t if fn is t.fn else App(fn, t.arg)
            r = _rewrite_head(sig, t2, fuel)
            if r is None:
                return t2
            fuel.spend()
            t = r
        elif isinstance(t, Const):
            r = _rewrite_head(sig, t, fuel)
            if r is None:
                return t
            fuel.spend()
            t = r
        else:
            return t


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
    if isinstance(t, Sort):
        if t == TYPE:
            return KIND
        raise IllegalSort("Kind has no type")
    if isinstance(t, Var):
        ty = ctx.get(t.name)
        if ty is None:
            raise UnboundVariable(f"unbound variable {t.name}")
        return ty
    if isinstance(t, BVar):
        raise KernelError(f"dangling bound variable #{t.index}")
    if isinstance(t, Const):
        ty = sig.const_type(t.name)
        if ty is None:
            raise UnboundConstant(f"unbound constant {t.name}")
        return ty
    if isinstance(t, Binder):
        return _infer_chain(sig, ctx, t, fuel)
    assert isinstance(t, App)
    fn_ty = whnf(sig, _infer(sig, ctx, t.fn, fuel), fuel)
    if not isinstance(fn_ty, Prod):
        raise NotAFunction("application head has no product type: ", t.fn, " : ", fn_ty)
    arg_ty = _infer(sig, ctx, t.arg, fuel)
    if arg_ty != fn_ty.domain and not convertible(sig, arg_ty, fn_ty.domain, fuel):
        raise DomainMismatch("argument type mismatch: expected ", fn_ty.domain, ", got ", arg_ty)
    return open_term(fn_ty.body, t.arg)


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
    fuel = _as_fuel(fuel)
    prefix = Signature()
    for item in sig.items:
        try:
            if isinstance(item, RewriteRule):
                _check_rule(prefix, item, fuel)
            elif item.name in prefix:
                raise DuplicateConstant(f"constant {item.name} declared twice")
            else:
                try:
                    s = whnf(prefix, _infer(prefix, {}, item.type, fuel), fuel)
                except FuelExhausted:
                    raise
                except KernelError as e:
                    raise IllTypedDeclaration(f"declaration {item.name}: ", e) from e
                if not isinstance(s, Sort):
                    raise IllTypedDeclaration(f"declaration {item.name}: type has no sort")
                if isinstance(item, Defn):
                    try:
                        body_ty = _infer(prefix, {}, item.body, fuel)
                    except FuelExhausted:
                        raise
                    except KernelError as e:
                        raise IllTypedDeclaration(f"definition {item.name}: ", e) from e
                    if not convertible(prefix, body_ty, item.type, fuel):
                        raise IllTypedDeclaration(
                            f"definition {item.name}: body type ", body_ty, " does not match declared ", item.type
                        )
        except FuelExhausted as e:
            kind = "definition" if isinstance(item, Defn) else "declaration"
            where = ("rule ", item.lhs) if isinstance(item, RewriteRule) else (f"{kind} {item.name}",)
            raise FuelExhausted(*where, ": ", e) from e
        prefix.add(item)


def _check_rule(prefix: Signature, rule: RewriteRule, fuel: Fuel) -> None:
    _check_pattern(rule.lhs)
    extra = free_names(rule.rhs) - free_names(rule.lhs)
    if extra:
        raise UnboundRhsVariable(
            f"rhs variables not bound on the lhs: {', '.join(sorted(extra))}"
        )
    check_context(prefix, rule.context, fuel)
    ctx = dict(rule.context)
    try:
        lhs_ty = _infer(prefix, ctx, rule.lhs, fuel)
        rhs_ty = _infer(prefix, ctx, rule.rhs, fuel)
    except FuelExhausted:
        raise
    except KernelError as e:
        raise RuleTypeMismatch("rule ", rule.lhs, ": ", e) from e
    if not convertible(prefix, lhs_ty, rhs_ty, fuel):
        raise RuleTypeMismatch("rule sides disagree: lhs : ", lhs_ty, ", rhs : ", rhs_ty)
