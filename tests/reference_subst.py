"""The reference substitution: the type part and the term part as two walks.

``hol.apply_subst`` applies a ``HolSubst`` in one walk with one capture
rule.  The tests compare it against these two walks, each with its own
renaming rule, applied one after the other: ``map_types`` instantiates the
type variables and renames a binder that two variables' images would make
one, and ``subst_vars`` then replaces the term variables in parallel and
renames a binder whose name is free in an image.
"""

from holtrans.hol import Abs, App, Const, HolSubst, HolTerm, HolType, Var, free_vars, type_subst


def map_types(theta: dict[str, HolType], t: HolTerm) -> HolTerm:
    """Instantiate type variables.  ``x:A`` and ``x:B`` become one under ``A := B``, so a
    binder whose image is that of another variable free in its body is renamed first,
    with primes.  Only images of two variables of ``t`` (one DAG walk) need the check."""
    if not theta:
        return t
    preimage: dict[Var, Var] = {}
    merged: set[Var] = set()
    seen: set[int] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if id(u) not in seen:
            seen.add(id(u))
            if isinstance(u, Var):
                image = Var(u.name, type_subst(theta, u.type))
                if preimage.setdefault(image, u) != u:
                    merged.add(image)
            elif not isinstance(u, Const):
                stack += (u.var, u.body) if isinstance(u, Abs) else (u.fn, u.arg)

    def go(u: HolTerm) -> HolTerm:
        if isinstance(u, (Var, Const)):
            return type(u)(u.name, type_subst(theta, u.type))
        if isinstance(u, App):
            return App(go(u.fn), go(u.arg))
        v, body = u.var, u.body
        image = Var(v.name, type_subst(theta, v.type))
        free = free_vars(body) if image in merged else ()
        if any(w != v and w.name == v.name and type_subst(theta, w.type) == image.type for w in free):
            new = v.name + "'"
            while any(w.name == new for w in free):
                new += "'"
            body, image = subst_vars({v: Var(new, v.type)}, body), Var(new, image.type)
        return Abs(image, go(body))

    out = go(t)
    del go
    return out


def _free_names(t: HolTerm) -> set[str]:
    return {v.name for v in free_vars(t)}


def subst_vars(mapping: dict[Var, HolTerm], t: HolTerm) -> HolTerm:
    """Simultaneous capture-avoiding substitution; binders renamed as needed."""
    if not mapping:
        return t
    if isinstance(t, Var):
        return mapping.get(t, t)
    if isinstance(t, Const):
        return t
    if isinstance(t, App):
        return App(subst_vars(mapping, t.fn), subst_vars(mapping, t.arg))
    assert isinstance(t, Abs)
    body_vars = free_vars(t.body)
    live = {k: v for k, v in mapping.items() if k != t.var and k in body_vars}
    if not live:
        return t
    image_names = set()
    for v in live.values():
        image_names |= _free_names(v)
    var = t.var
    body = t.body
    if var.name in image_names:
        taken = image_names | _free_names(body) | {k.name for k in live}
        new = var.name
        while new in taken:
            new += "'"
        fresh = Var(new, var.type)
        body = subst_vars({var: fresh}, body)
        var = fresh
    return Abs(var, subst_vars(live, body))


def apply_subst(s: HolSubst, t: HolTerm) -> HolTerm:
    """Type part applied once to the term, then the parallel term part."""
    out = map_types(dict(s.theta), t)
    return subst_vars(dict(s.sigma), out)
