"""The reference type inference: the kernel's typing rules as first written.

The kernel types a chain of abstractions in one pass and names opened
binders by context depth (``hint#k``) or by a counter (``%N``).  This module
keeps the earlier rules as a test oracle:

* the abstraction rule re-infers the sort of the whole inferred product at
  every level, so a chain of ``n`` abstractions costs ``(n + 1) ** 2``
  inferences;
* every opened binder is named with ``fresh_name(hint, ctx.names() |
  free_names(body))``, which cannot capture anything by construction;
* contexts are persistent: each binder extends a copy of its context
  (``Context`` below), where the kernel extends one dict in place.

* ``whnf`` keeps no memo: every call reduces from scratch and spends its
  fuel, and rule matching splits each rule's left-hand side again;
* an application is typed one argument at a time, re-opening the whole
  codomain at each;
* a definition's body is inferred in full and its type compared with the
  declared one by normalizing both.

The kernel itself has no full normalizer: tests that need a normal form
call ``normalize`` here.  The signature prefix is rebuilt for every item,
as before.
"""

from holtrans.kernel import (
    KIND,
    TYPE,
    Abs,
    App,
    BVar,
    Const,
    ConstDecl,
    Defn,
    DomainMismatch,
    DuplicateConstant,
    DuplicateVariable,
    FuelExhausted,
    IllegalSort,
    IllTypedDeclaration,
    KernelError,
    NotAFunction,
    NotAType,
    Prod,
    RewriteRule,
    RuleTypeMismatch,
    Signature,
    Sort,
    Term,
    UnboundConstant,
    UnboundRhsVariable,
    UnboundVariable,
    Var,
    _as_fuel,
    _check_pattern,
    app,
    free_names,
    open_term,
    spine,
    substitute,
)

from conftest import close
from reference_reduction import fresh_name


def pretty(t: Term, _names: tuple[str, ...] = ()) -> str:
    """Readable rendering with raw names, for this module's messages only:
    the kernel's messages render through ``dkfile``, and the tests compare
    exception types, not messages."""

    def go(u: Term, names: tuple[str, ...], prec: int) -> str:
        # prec: 0 top, 1 arrow-left, 2 app-fn, 3 app-arg
        if isinstance(u, (Sort, Var, Const)):
            return u.name
        if isinstance(u, BVar):
            if u.index < len(names):
                return names[-1 - u.index]
            return f"#{u.index}"
        if isinstance(u, App):
            s = f"{go(u.fn, names, 2)} {go(u.arg, names, 3)}"
            return f"({s})" if prec >= 3 else s
        taken = set(names) | free_names(u)
        if isinstance(u, Abs):
            n = fresh_name(u.hint, taken)
            s = f"{n}: {go(u.domain, names, 1)} => {go(u.body, names + (n,), 0)}"
            return f"({s})" if prec >= 1 else s
        assert isinstance(u, Prod)
        if uses_index(u.body, 0):
            n = fresh_name(u.hint, taken)
            s = f"{n}: {go(u.domain, names, 1)} -> {go(u.body, names + (n,), 0)}"
        else:
            s = f"{go(u.domain, names, 1)} -> {go(open_term(u.body, Var('_')), names, 0)}"
        return f"({s})" if prec >= 1 else s

    return go(t, _names, 0)


def uses_index(t: Term, depth: int) -> bool:
    """Whether the index of the binder ``depth`` levels above ``t`` occurs in it."""
    if t.bound <= depth:
        return False
    if isinstance(t, BVar):
        return t.index == depth
    if isinstance(t, App):
        return uses_index(t.fn, depth) or uses_index(t.arg, depth)
    if isinstance(t, (Abs, Prod)):
        return uses_index(t.domain, depth) or uses_index(t.body, depth + 1)
    return False


class Context:
    """Ordered variable bindings; ``extended`` copies them."""

    def __init__(self, bindings=()):
        self._bindings = tuple(bindings)
        self._types = dict(self._bindings)

    def extended(self, name: str, ty: Term) -> "Context":
        return Context(self._bindings + ((name, ty),))

    def lookup(self, name: str):
        return self._types.get(name)

    def __iter__(self):
        return iter(self._bindings)


def _names(ctx: Context) -> set[str]:
    return {n for n, _ in ctx}


def match_reducing(sig, pat, t, bind, fuel) -> bool:
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
            and match_reducing(sig, pat.fn, u.fn, bind, fuel)
            and match_reducing(sig, pat.arg, u.arg, bind, fuel)
        )
    return False


def rewrite_head(sig, t, fuel):
    """One rule or definition step at the root of ``t``, or None."""
    head, args = spine(t)
    if not isinstance(head, Const):
        return None
    for _, rule in sig.rules_for(head.name):
        pats = spine(rule.lhs)[1]
        if len(pats) != len(args):
            continue
        bind = {}
        for p, a in zip(pats, args):
            if not match_reducing(sig, p, a, bind, fuel):
                break
        else:
            return substitute(rule.rhs, bind)
    body = sig.definition(head.name)
    if body is not None:
        return app(body, *args)
    return None


def whnf(sig, t, fuel=None) -> Term:
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
            r = rewrite_head(sig, t2, fuel)
            if r is None:
                return t2
            fuel.spend()
            t = r
        elif isinstance(t, Const):
            r = rewrite_head(sig, t, fuel)
            if r is None:
                return t
            fuel.spend()
            t = r
        else:
            return t


def nf(sig, t, fuel):
    t = whnf(sig, t, fuel)
    if isinstance(t, App):
        return App(nf(sig, t.fn, fuel), nf(sig, t.arg, fuel))
    if isinstance(t, Abs):
        x = fresh_name(t.hint, free_names(t.body))
        body = nf(sig, open_term(t.body, Var(x)), fuel)
        return Abs(t.hint, nf(sig, t.domain, fuel), close(body, x))
    if isinstance(t, Prod):
        x = fresh_name(t.hint, free_names(t.body))
        cod = nf(sig, open_term(t.body, Var(x)), fuel)
        return Prod(t.hint, nf(sig, t.domain, fuel), close(cod, x))
    return t


def normalize(sig, t, fuel=None) -> Term:
    """Full normal form under beta, the signature's rules, and unfolding.

    ``t`` must be locally closed: a dangling index would be captured by a
    binder that normalizing opens and closes again.
    """
    if t.bound > 0:
        raise KernelError(f"cannot normalize a term with a dangling bound variable: {pretty(t)}")
    return nf(sig, t, _as_fuel(fuel))


def convertible(sig, a, b, fuel=None) -> bool:
    if a == b:
        return True
    fuel = _as_fuel(fuel)
    return nf(sig, a, fuel) == nf(sig, b, fuel)


def infer_type(sig, ctx, t, fuel=None) -> Term:
    """``ctx`` maps names to types, as for the kernel's ``infer_type``."""
    return infer(sig, Context(ctx.items()), t, _as_fuel(fuel))


def infer(sig, ctx, t, fuel) -> Term:
    if isinstance(t, Sort):
        if t == TYPE:
            return KIND
        raise IllegalSort("Kind has no type")
    if isinstance(t, Var):
        ty = ctx.lookup(t.name)
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
    if isinstance(t, Prod):
        check_is_type(sig, ctx, t.domain, fuel)
        x = fresh_name(t.hint, _names(ctx) | free_names(t.body))
        s = whnf(sig, infer(sig, ctx.extended(x, t.domain), open_term(t.body, Var(x)), fuel), fuel)
        if not isinstance(s, Sort):
            raise IllegalSort(f"product codomain is not a type or kind: {pretty(t)}")
        return s
    if isinstance(t, Abs):
        check_is_type(sig, ctx, t.domain, fuel)
        x = fresh_name(t.hint, _names(ctx) | free_names(t.body))
        inner = ctx.extended(x, t.domain)
        body_ty = infer(sig, inner, open_term(t.body, Var(x)), fuel)
        # the inferred product must itself be well-sorted (rules out kind-level bodies)
        s = whnf(sig, infer(sig, inner, body_ty, fuel), fuel)
        if not isinstance(s, Sort):
            raise IllegalSort(f"abstraction body type is not well-sorted: {pretty(body_ty)}")
        return Prod(t.hint, t.domain, close(body_ty, x))
    assert isinstance(t, App)
    fn_ty = whnf(sig, infer(sig, ctx, t.fn, fuel), fuel)
    if not isinstance(fn_ty, Prod):
        raise NotAFunction(
            f"application head has no product type: {pretty(t.fn)} : {pretty(fn_ty)}"
        )
    arg_ty = infer(sig, ctx, t.arg, fuel)
    if arg_ty != fn_ty.domain and not convertible(sig, arg_ty, fn_ty.domain, fuel):
        nf_got = nf(sig, arg_ty, fuel)
        nf_want = nf(sig, fn_ty.domain, fuel)
        raise DomainMismatch(
            f"argument type mismatch: expected {pretty(nf_want)}, got {pretty(nf_got)}"
        )
    return open_term(fn_ty.body, t.arg)


def check_is_type(sig, ctx, a, fuel) -> None:
    s = whnf(sig, infer(sig, ctx, a, fuel), fuel)
    if s != TYPE:
        raise IllegalSort(f"expected a type of sort Type: {pretty(a)} has sort {pretty(s)}")


def check_context(sig, ctx, fuel=None) -> None:
    fuel = _as_fuel(fuel)
    seen: set[str] = set()
    prefix = Context()
    for name, ty in ctx:
        if name in seen:
            raise DuplicateVariable(f"variable {name} bound twice")
        try:
            check_is_type(sig, prefix, ty, fuel)
        except IllegalSort as e:
            raise NotAType(f"binding {name}: {e}") from e
        seen.add(name)
        prefix = prefix.extended(name, ty)


def check_signature(sig, fuel=None) -> None:
    fuel = _as_fuel(fuel)
    prefix = Signature()
    for item in sig.items:
        if isinstance(item, (ConstDecl, Defn)):
            if item.name in prefix:
                raise DuplicateConstant(f"constant {item.name} declared twice")
            try:
                s = whnf(prefix, infer(prefix, Context(), item.type, fuel), fuel)
            except KernelError as e:
                if isinstance(e, (DuplicateConstant, FuelExhausted)):
                    raise
                raise IllTypedDeclaration(f"declaration {item.name}: {e}") from e
            if not isinstance(s, Sort):
                raise IllTypedDeclaration(f"declaration {item.name}: type has no sort")
            if isinstance(item, Defn):
                try:
                    body_ty = infer(prefix, Context(), item.body, fuel)
                except KernelError as e:
                    if isinstance(e, FuelExhausted):
                        raise
                    raise IllTypedDeclaration(f"definition {item.name}: {e}") from e
                if not convertible(prefix, body_ty, item.type, fuel):
                    raise IllTypedDeclaration(
                        f"definition {item.name}: body type {pretty(body_ty)} "
                        f"does not match declared {pretty(item.type)}"
                    )
        else:
            check_rule(prefix, item, fuel)
        prefix = Signature(prefix.items + (item,))


def check_rule(prefix, rule: RewriteRule, fuel) -> None:
    _check_pattern(rule.lhs)
    extra = free_names(rule.rhs) - free_names(rule.lhs)
    if extra:
        raise UnboundRhsVariable(
            f"rhs variables not bound on the lhs: {', '.join(sorted(extra))}"
        )
    check_context(prefix, rule.context, fuel)
    ctx = Context(rule.context)
    try:
        lhs_ty = infer(prefix, ctx, rule.lhs, fuel)
        rhs_ty = infer(prefix, ctx, rule.rhs, fuel)
    except KernelError as e:
        if isinstance(e, FuelExhausted):
            raise
        raise RuleTypeMismatch(f"rule {pretty(rule.lhs)}: {e}") from e
    if not convertible(prefix, lhs_ty, rhs_ty, fuel):
        raise RuleTypeMismatch(
            f"rule sides disagree: lhs : {pretty(lhs_ty)}, rhs : {pretty(rhs_ty)}"
        )
