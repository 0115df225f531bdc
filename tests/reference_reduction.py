"""The reference step relation: one syntactic reduction step at a time.

The kernel reduces with ``whnf``/``normalize``, whose rule matching
weak-head-normalizes subterms on demand.  The tests compare it against this
plain one-step relation, where a rule fires only on a syntactic instance of
its left-hand side.
"""

from typing import Optional

from holtrans.kernel import (
    Abs,
    App,
    Const,
    Prod,
    Signature,
    Term,
    Var,
    app,
    free_names,
    open_term,
    spine,
    substitute,
)

from conftest import close


def fresh_name(hint: str, taken: set[str]) -> str:
    """``hint``, or ``hint'i`` with the least ``i`` that is not ``taken``."""
    base = hint or "x"
    if base not in taken:
        return base
    i = 1
    while f"{base}'{i}" in taken:
        i += 1
    return f"{base}'{i}"


def _match_syntactic(pat: Term, t: Term, bind: dict[str, Term]) -> bool:
    if isinstance(pat, Var):
        prev = bind.get(pat.name)
        if prev is None:
            bind[pat.name] = t
            return True
        return prev == t
    if isinstance(pat, Const):
        return t == pat
    if isinstance(pat, App):
        return (
            isinstance(t, App)
            and _match_syntactic(pat.fn, t.fn, bind)
            and _match_syntactic(pat.arg, t.arg, bind)
        )
    return False


def contract_root(sig: Signature, t: Term) -> Optional[Term]:
    """Contract a beta redex, rule redex or definition at the root, syntactically."""
    if isinstance(t, App) and isinstance(t.fn, Abs):
        return open_term(t.fn.body, t.arg)
    head, args = spine(t)
    if not isinstance(head, Const):
        return None
    for pats, rule in sig.rules_for(head.name):
        if len(pats) != len(args):
            continue
        bind: dict[str, Term] = {}
        if all(_match_syntactic(p, a, bind) for p, a in zip(pats, args)):
            return substitute(rule.rhs, bind)
    body = sig.definition(head.name)
    if body is not None:
        return app(body, *args)
    return None


def reduce_step(sig: Signature, t: Term) -> Optional[Term]:
    """One leftmost-outermost reduction step, or None if ``t`` is normal."""
    r = contract_root(sig, t)
    if r is not None:
        return r
    if isinstance(t, App):
        rf = reduce_step(sig, t.fn)
        if rf is not None:
            return App(rf, t.arg)
        ra = reduce_step(sig, t.arg)
        if ra is not None:
            return App(t.fn, ra)
        return None
    if isinstance(t, Abs):
        rd = reduce_step(sig, t.domain)
        if rd is not None:
            return Abs(t.hint, rd, t.body)
        x = fresh_name(t.hint, free_names(t.body))
        rb = reduce_step(sig, open_term(t.body, Var(x)))
        if rb is not None:
            return Abs(t.hint, t.domain, close(rb, x))
        return None
    if isinstance(t, Prod):
        rd = reduce_step(sig, t.domain)
        if rd is not None:
            return Prod(t.hint, rd, t.body)
        x = fresh_name(t.hint, free_names(t.body))
        rc = reduce_step(sig, open_term(t.body, Var(x)))
        if rc is not None:
            return Prod(t.hint, t.domain, close(rc, x))
        return None
    return None
