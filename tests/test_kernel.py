import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holtrans import kernel as k
from holtrans import translate as tr

from conftest import close, env_signature, lam, make_env, pi, random_kernel_term
from reference_reduction import contract_root, fresh_name, reduce_step
from reference_typing import normalize


def example1_signature(with_rule=True):
    alpha, c, f = k.Const("alpha"), k.Const("c"), k.Const("f")
    fy = k.App(f, k.Var("y"))
    items = [
        k.ConstDecl("alpha", k.TYPE),
        k.ConstDecl("c", alpha),
        k.ConstDecl("f", k.arrow(alpha, k.TYPE)),
    ]
    if with_rule:
        items.append(k.RewriteRule((), k.App(f, c), pi("y", alpha, k.arrow(fy, fy))))
    return k.Signature(items)


ALPHA, C, F = k.Const("alpha"), k.Const("c"), k.Const("f")


# ---------------------------------------------------------------------------
# substitution


def test_substitute_base_case():
    assert k.substitute(k.Var("x"), {"x": C}) == C


def test_substitute_shadowing():
    t = lam("x", ALPHA, k.Var("x"))
    assert k.substitute(t, {"x": C}) == t


def test_substitute_bound_variable_untouched():
    fy = k.App(F, k.Var("y"))
    t = pi("y", ALPHA, k.arrow(fy, fy))
    assert k.substitute(t, {"y": C}) == t
    assert k.substitute(k.App(F, k.Var("y")), {"y": C}) == k.App(F, C)


# A naive named-term substituter serves as the independent reference: it
# renames binders explicitly instead of relying on the nameless encoding.


def _named_subst(t, name, image, image_free):
    kind = t[0]
    if kind == "var":
        return image if t[1] == name else t
    if kind in ("const", "sort"):
        return t
    if kind == "app":
        return ("app", _named_subst(t[1], name, image, image_free),
                _named_subst(t[2], name, image, image_free))
    _, binder, dom, body = t
    dom2 = _named_subst(dom, name, image, image_free)
    if binder == name:
        return (kind, binder, dom2, body)
    if binder in image_free and name in _named_free(body):
        fresh = binder
        while fresh in image_free or fresh in _named_free(body):
            fresh += "'"
        body = _named_subst(body, binder, ("var", fresh), {fresh})
        binder = fresh
    return (kind, binder, dom2, _named_subst(body, name, image, image_free))


def _named_free(t):
    kind = t[0]
    if kind == "var":
        return {t[1]}
    if kind in ("const", "sort"):
        return set()
    if kind == "app":
        return _named_free(t[1]) | _named_free(t[2])
    return _named_free(t[2]) | (_named_free(t[3]) - {t[1]})


def _to_kernel(t):
    kind = t[0]
    if kind == "var":
        return k.Var(t[1])
    if kind == "const":
        return k.Const(t[1])
    if kind == "sort":
        return k.TYPE
    if kind == "app":
        return k.App(_to_kernel(t[1]), _to_kernel(t[2]))
    if kind == "lam":
        return lam(t[1], _to_kernel(t[2]), _to_kernel(t[3]))
    return pi(t[1], _to_kernel(t[2]), _to_kernel(t[3]))


@pytest.mark.parametrize(
    "named,var,image",
    [
        (("pi", "y", ("const", "alpha"), ("app", ("const", "f"), ("var", "y"))), "y", ("const", "c")),
        (("lam", "y", ("const", "alpha"), ("app", ("var", "x"), ("var", "y"))), "x", ("var", "y")),
        (("lam", "x", ("const", "alpha"), ("var", "x")), "x", ("const", "c")),
        (("app", ("lam", "z", ("const", "alpha"), ("var", "x")), ("var", "x")), "x", ("app", ("const", "f"), ("var", "z"))),
    ],
)
def test_substitute_matches_reference(named, var, image):
    expected = _to_kernel(_named_subst(named, var, image, _named_free(image)))
    got = k.substitute(_to_kernel(named), {var: _to_kernel(image)})
    assert got == expected


# ---------------------------------------------------------------------------
# reduction


def test_reduce_step_beta():
    t = k.App(lam("x", ALPHA, k.Var("x")), C)
    assert reduce_step(example1_signature(), t) == C


def test_reduce_step_base_rule(q0):
    a, b = k.Var("a"), k.Var("b")
    t = k.app(k.Const("term"), k.app(k.Const("arrow"), a, b))
    got = reduce_step(q0, t)
    assert got == k.arrow(k.app(k.Const("term"), a), k.app(k.Const("term"), b))


def test_reduce_step_example1_rule():
    sig = example1_signature()
    fy = k.App(F, k.Var("y"))
    assert reduce_step(sig, k.App(F, C)) == pi("y", ALPHA, k.arrow(fy, fy))


def test_reduce_step_none_on_normal_form():
    sig = example1_signature()
    assert reduce_step(sig, C) is None
    assert reduce_step(sig, lam("x", ALPHA, k.Var("x"))) is None


def test_normalize_translated_identity_redex(q0):
    env = make_env()
    from holtrans import hol

    a = hol.TyVar("A")
    x = hol.Var("x", a)
    t = tr.trans_term(env, hol.App(hol.Abs(x, x), x))
    assert normalize(q0, t) == env.termvar(x)


def test_normalize_rejects_a_dangling_index():
    # normalizing opens the binder and closes it again, which would turn
    # the dangling #1 into the bound #0: the identity
    with pytest.raises(k.KernelError, match="dangling"):
        normalize(k.Signature(), k.Abs("x", ALPHA, k.BVar(1)))
    with pytest.raises(k.KernelError, match="dangling"):
        normalize(k.Signature(), k.BVar(0))


def test_normalize_constant_without_rule():
    assert normalize(example1_signature(), C) == C


def test_normalize_term_arrow_bool_bool(q0):
    term, bool_c = k.Const("term"), k.Const("bool")
    t = k.App(term, k.app(k.Const("arrow"), bool_c, bool_c))
    assert normalize(q0, t) == k.arrow(k.App(term, bool_c), k.App(term, bool_c))


def test_normalize_is_reduce_step_fixed_point(q0):
    for seed in range(20):
        t, _ = random_kernel_term(seed)
        n = normalize(q0, t)
        assert reduce_step(q0, n) is None


def test_errors_carry_their_terms_and_render_them_as_the_emitter_does():
    a_ty, a = k.Const("A"), k.Const("a")
    sig = k.Signature([k.ConstDecl("A", k.TYPE), k.ConstDecl("a", a_ty)])
    with pytest.raises(k.NotAFunction) as info:
        k.infer_type(sig, {}, k.App(a, a))
    assert info.value.args == ("application head has no product type: ", a, " : ", a_ty)
    assert str(info.value) == "application head has no product type: a : A"
    # a wrapping error renders the one it wraps
    with pytest.raises(k.IllTypedDeclaration) as info:
        k.check_signature(k.Signature([*sig.items, k.Defn("d", a_ty, k.App(a, a))]))
    assert str(info.value) == "definition d: application head has no product type: a : A"
    # products and abstractions print in the file syntax
    with pytest.raises(k.IllegalSort) as info:
        k.infer_type(sig, {}, pi("x", a_ty, k.App(lam("y", a_ty, k.Var("y")), k.Var("x"))))
    assert str(info.value) == "product codomain is not a type or kind: x : A -> (y : A => y) x"


def test_fuel_exhaustion_names_the_item():
    w = k.Const("w")
    sig = k.Signature([
        k.ConstDecl("w", k.TYPE),
        k.RewriteRule((), w, w),
        k.ConstDecl("v", w),
        k.ConstDecl("u", k.App(k.Const("v"), k.Const("v"))),  # typing v v reduces w, which rewrites to itself
    ])
    with pytest.raises(k.FuelExhausted) as info:
        k.check_signature(sig, fuel=1000)
    assert str(info.value) == "declaration u: reduction step budget exceeded"


def test_fuel_exhaustion_on_looping_rule():
    sig = k.Signature(
        [k.ConstDecl("w", k.TYPE), k.RewriteRule((), k.Const("w"), k.Const("w"))]
    )
    k.check_signature(sig)
    with pytest.raises(k.FuelExhausted):
        normalize(sig, k.Const("w"), fuel=50)


# ---------------------------------------------------------------------------
# conversion


def test_convertible_base_rule(q0):
    a, b = k.Var("a"), k.Var("b")
    lhs = k.App(k.Const("term"), k.app(k.Const("arrow"), a, b))
    rhs = k.arrow(k.App(k.Const("term"), a), k.App(k.Const("term"), b))
    assert k.convertible(q0, lhs, rhs)


def test_convertible_distinct_free_vars(q0):
    assert not k.convertible(q0, k.Var("x"), k.Var("y"))


def test_convertible_example1():
    sig = example1_signature()
    fy = k.App(F, k.Var("y"))
    assert k.convertible(sig, k.App(F, C), pi("y", ALPHA, k.arrow(fy, fy)))


# ---------------------------------------------------------------------------
# typing


def test_infer_example1():
    sig = example1_signature()
    t = lam("x", k.App(F, C), k.app(k.Var("x"), C, k.Var("x")))
    assert k.infer_type(sig, {}, t) == k.arrow(k.App(F, C), k.App(F, C))


def test_infer_example1_without_rule_fails():
    sig = example1_signature(with_rule=False)
    t = lam("x", k.App(F, C), k.app(k.Var("x"), C, k.Var("x")))
    with pytest.raises(k.DomainMismatch):
        k.infer_type(sig, {}, t)


def test_infer_example1_unfolded_annotation_is_domain_mismatch():
    # replacing the annotation by the rule's right-hand side fails at the
    # second application with a conversion error, not a head-shape error
    sig = example1_signature(with_rule=False)
    fy = k.App(F, k.Var("y"))
    t = lam("x", pi("y", ALPHA, k.arrow(fy, fy)), k.app(k.Var("x"), C, k.Var("x")))
    with pytest.raises(k.DomainMismatch) as exc:
        k.infer_type(sig, {}, t)
    assert not isinstance(exc.value, k.NotAFunction)


def test_infer_identity_under_context():
    ctx = {"A": k.TYPE}
    t = lam("x", k.Var("A"), k.Var("x"))
    assert k.infer_type(k.Signature(), ctx, t) == pi("x", k.Var("A"), k.Var("A"))


def test_infer_unbound_variable(q0):
    with pytest.raises(k.UnboundVariable):
        k.infer_type(q0, {}, k.Var("nope"))


def test_infer_unbound_constant():
    with pytest.raises(k.UnboundConstant):
        k.infer_type(k.Signature(), {}, k.Const("nope"))


def test_infer_kind_has_no_type(q0):
    assert k.infer_type(q0, {}, k.TYPE) == k.KIND
    with pytest.raises(k.IllegalSort):
        k.infer_type(q0, {}, k.KIND)


def test_infer_not_a_function(q0):
    t = k.App(k.Const("bool"), k.Const("bool"))
    with pytest.raises(k.NotAFunction):
        k.infer_type(q0, {}, t)


def test_abs_over_kind_forbidden(q0):
    t = k.Abs("x", k.TYPE, k.BVar(0))
    with pytest.raises(k.IllegalSort):
        k.infer_type(q0, {}, t)


# ---------------------------------------------------------------------------
# context and signature formation


def test_check_context_empty(q0):
    k.check_context(q0, [])


def test_check_context_type_then_term(q0):
    ctx = [("a", k.Const("type")), ("x", k.App(k.Const("term"), k.Var("a")))]
    k.check_context(q0, ctx)


def test_check_context_duplicate(q0):
    ctx = [("x", k.Const("type")), ("x", k.Const("type"))]
    with pytest.raises(k.DuplicateVariable):
        k.check_context(q0, ctx)


def test_check_context_not_a_type(q0):
    ctx = [("x", k.Const("bool"))]  # bool : type, not a Type-sorted type
    with pytest.raises(k.NotAType):
        k.check_context(q0, ctx)


def test_whnf_memo_hits_spend_no_fuel_and_add_clears_it(q0):
    sig = k.Signature(q0.items)
    bool_ = k.Const("bool")

    def code():  # a fresh object each time, so hits are by equality
        return k.App(k.Const("term"), k.app(k.Const("arrow"), bool_, bool_))

    def spent(t, budget=10):
        fuel = k.Fuel(budget)
        k.whnf(sig, t, fuel)
        return budget - fuel.left

    with pytest.raises(k.FuelExhausted):
        spent(code(), 0)
    assert spent(code()) == 1  # the failure was not remembered
    assert spent(code()) == 0
    sig.add(k.ConstDecl("c", code()))
    assert spent(code()) == 1


def test_whnf_memo_keeps_binder_hints(pts):
    """Two hypotheses whose statements differ only in a bound variable's
    name: the second application's type keeps its own name, although its
    ``proof (forall ...)`` equals one already reduced."""
    from holtrans import dkfile

    sig = k.Signature(pts.items)
    bool_ = k.Const("bool")

    def forall(hint):
        body = k.app(k.Const("eq"), bool_, k.BVar(0), k.BVar(0))
        return k.App(k.Const("proof"), k.app(k.Const("forall"), bool_, k.Abs(hint, k.App(k.Const("term"), bool_), body)))

    ctx = {"h1": forall("x"), "h2": forall("y"), "c": k.App(k.Const("term"), bool_)}
    for h, hint in (("h1", "x"), ("h2", "y")):
        ty = k.infer_type(sig, ctx, k.App(k.Var(h), k.Var("c")))
        assert dkfile.fmt_term(ty) == f"proof (({hint} : term bool => eq bool {hint} {hint}) c)"


def test_signature_items_are_plain_records():
    d = k.Defn("d", k.TYPE, k.Const("c"))
    assert d == k.Defn("d", k.TYPE, k.Const("c")) and hash(d) == hash(k.Defn("d", k.TYPE, k.Const("c")))
    assert d != k.Defn("d", k.TYPE, k.Const("e")) and d != k.ConstDecl("d", k.TYPE)
    assert repr(d) == "Defn(name='d', type=Type, body=Const(name='c'))"
    assert repr(k.RewriteRule((), k.Const("c"), k.Const("e"))) == "RewriteRule(context=(), lhs=Const(name='c'), rhs=Const(name='e'))"
    assert not hasattr(d, "__dict__")


def test_check_signature_base(q0):
    k.check_signature(q0)


def test_check_signature_empty():
    k.check_signature(k.Signature())


def test_check_signature_duplicate_constant():
    sig = k.Signature([k.ConstDecl("c", k.TYPE), k.ConstDecl("c", k.TYPE)])
    with pytest.raises(k.DuplicateConstant):
        k.check_signature(sig)


def test_check_signature_ill_typed_declaration():
    sig = k.Signature([k.ConstDecl("c", k.Const("missing"))])
    with pytest.raises(k.IllTypedDeclaration):
        k.check_signature(sig)


def test_check_signature_rule_type_mismatch():
    sig = k.Signature(
        [
            k.ConstDecl("alpha", k.TYPE),
            k.ConstDecl("c", k.Const("alpha")),
            k.RewriteRule((), k.Const("c"), k.Const("alpha")),
        ]
    )
    with pytest.raises(k.RuleTypeMismatch, match=r"^rule c: sides disagree: lhs : alpha, rhs : Type$"):
        k.check_signature(sig)


def test_check_signature_non_pattern_lhs():
    sig = k.Signature(
        [
            k.ConstDecl("alpha", k.TYPE),
            k.ConstDecl("c", k.Const("alpha")),
            k.RewriteRule(
                (("g", k.arrow(k.Const("alpha"), k.Const("alpha"))),),
                k.App(k.Var("g"), k.Const("c")),
                k.Const("c"),
            ),
        ]
    )
    with pytest.raises(k.NonPatternLhs):
        k.check_signature(sig)


def test_check_signature_unbound_rhs_variable():
    sig = k.Signature(
        [
            k.ConstDecl("alpha", k.TYPE),
            k.ConstDecl("c", k.Const("alpha")),
            k.ConstDecl("f", k.arrow(k.Const("alpha"), k.Const("alpha"))),
            k.RewriteRule(
                (("y", k.Const("alpha")),),
                k.App(k.Const("f"), k.Const("c")),
                k.Var("y"),
            ),
        ]
    )
    with pytest.raises(k.UnboundRhsVariable, match=r"^rule f c: rhs variables not bound on the lhs: y$"):
        k.check_signature(sig)


def test_rule_context_errors_name_their_rule():
    A, f, x = k.Const("A"), k.Const("f"), k.Var("x")
    base = [k.ConstDecl("A", k.TYPE), k.ConstDecl("f", k.arrow(A, A))]
    for context, error in (((("x", A), ("x", A)), k.DuplicateVariable), ((("x", k.TYPE),), k.NotAType)):
        with pytest.raises(error, match=r"^rule f x: "):
            k.check_signature(k.Signature([*base, k.RewriteRule(context, k.App(f, x), x)]))


def test_defn_body_must_match_declared_type():
    sig = k.Signature(
        [
            k.ConstDecl("alpha", k.TYPE),
            k.ConstDecl("c", k.Const("alpha")),
            k.Defn("d", k.TYPE, k.Const("c")),
        ]
    )
    with pytest.raises(k.IllTypedDeclaration):
        k.check_signature(sig)


# ---------------------------------------------------------------------------
# properties


def _ri_step(sig, t):
    """Rightmost-innermost: reduce inside arguments before heads and roots."""
    if isinstance(t, k.App):
        ra = _ri_step(sig, t.arg)
        if ra is not None:
            return k.App(t.fn, ra)
        rf = _ri_step(sig, t.fn)
        if rf is not None:
            return k.App(rf, t.arg)
    elif isinstance(t, k.Abs):
        x = fresh_name(t.hint, k.free_names(t.body))
        rb = _ri_step(sig, k.open_term(t.body, k.Var(x)))
        if rb is not None:
            return k.Abs(t.hint, t.domain, close(rb, x))
        rd = _ri_step(sig, t.domain)
        if rd is not None:
            return k.Abs(t.hint, rd, t.body)
    elif isinstance(t, k.Prod):
        x = fresh_name(t.hint, k.free_names(t.body))
        rc = _ri_step(sig, k.open_term(t.body, k.Var(x)))
        if rc is not None:
            return k.Prod(t.hint, t.domain, close(rc, x))
        rd = _ri_step(sig, t.domain)
        if rd is not None:
            return k.Prod(t.hint, rd, t.body)
    return contract_root(sig, t)


def _normalize_via(step, sig, t, max_steps=20_000):
    for _ in range(max_steps):
        r = step(sig, t)
        if r is None:
            return t
        t = r
    raise AssertionError("strategy did not terminate")


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000))
def test_subject_reduction(seed):
    env = make_env()
    t, hterm = random_kernel_term(seed, env)
    sig = env_signature(env)
    ctx = _kernel_context_for(env, hterm)
    ty = k.infer_type(sig, ctx, t)
    ty2 = k.infer_type(sig, ctx, normalize(sig, t))
    assert k.convertible(sig, ty, ty2)


def _kernel_context_for(env, hterm):
    from holtrans import hol

    ctx = {}
    for name in sorted(hol.term_tyvars(hterm)):
        ctx[tr.tyvar_name(name)] = k.Const("type")
    vs = sorted(hol.free_vars(hterm), key=lambda v: (v.name, repr(hol.type_key(v.type))))
    for v in vs:
        ctx[env.termvar_name(v)] = tr.trans_type_type(env, v.type)
    return ctx


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_confluence_of_strategies(seed):
    q0 = tr.base_signature("q0")
    t, _ = random_kernel_term(seed)
    lo = _normalize_via(reduce_step, q0, t)
    ri = _normalize_via(_ri_step, q0, t)
    assert lo == ri
    assert lo == normalize(q0, t)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_conversion_is_an_equivalence(seed_a, seed_b):
    q0 = tr.base_signature("q0")
    a, _ = random_kernel_term(seed_a)
    b, _ = random_kernel_term(seed_b)
    assert k.convertible(q0, a, a)
    ab = k.convertible(q0, a, b)
    assert ab == k.convertible(q0, b, a)
    na = normalize(q0, a)
    assert k.convertible(q0, a, na) and k.convertible(q0, na, a)
    if ab:
        assert k.convertible(q0, na, normalize(q0, b))


def test_conversion_congruence_under_app(q0):
    env = make_env()
    from holtrans import hol

    a = hol.TyVar("A")
    x = hol.Var("x", a)
    f = hol.Var("f", hol.fn(a, a))
    m1 = tr.trans_term(env, hol.App(hol.Abs(x, x), x))
    m2 = tr.trans_term(env, x)
    fk = tr.trans_term(env, f)
    assert k.convertible(q0, m1, m2)
    assert k.convertible(q0, k.App(fk, m1), k.App(fk, m2))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_substitute_commutes_with_normalization(seed):
    q0 = tr.base_signature("q0")
    t, _ = random_kernel_term(seed)
    # substituting an object type for a type variable keeps the term well
    # typed, so normalization stays terminating
    names = sorted(n for n in k.free_names(t) if n.startswith("'"))
    sub = {names[0]: k.Const("bool")} if names else {}
    lhs = normalize(q0, k.substitute(t, sub))
    rhs = normalize(q0, k.substitute(normalize(q0, t), sub))
    assert lhs == rhs


def test_infer_is_deterministic():
    env = make_env()
    t, hterm = random_kernel_term(7, env)
    sig = env_signature(env)
    ctx = _kernel_context_for(env, hterm)
    first = k.infer_type(sig, ctx, t)
    for _ in range(3):
        assert k.infer_type(sig, ctx, t) == first


# ---------------------------------------------------------------------------
# verdicts of single kernel checks, each on a small document


def _refusal(text):
    """The error ``check_signature`` raises on the items of ``text``, or None."""
    from holtrans import dkreader

    try:
        k.check_signature(k.Signature(dkreader.parse(text).items))
    except k.KernelError as e:
        return e
    return None


def test_non_linear_pattern_does_not_fire_on_distinct_arguments():
    """``f x x --> B`` rewrites ``f a a`` to ``B``, and not ``f a b``, so
    ``c : B`` has the first type and not the second."""
    base = "A : Type. B : Type. a : A. b : A. c : B. f : A -> A -> Type. [x : A] f x x --> B.\n"
    assert _refusal(base + "def d : f a a := c.") is None
    e = _refusal(base + "def d : f a b := c.")
    assert type(e) is k.IllTypedDeclaration and "does not match declared" in str(e), e


def test_product_codomain_without_a_sort_is_refused():
    """``a : A`` is a term, not a type, so ``A -> a`` has no sort."""
    e = _refusal("A : Type. a : A. c : A -> a.")
    assert type(e) is k.IllTypedDeclaration and type(e.__cause__) is k.IllegalSort, e
    assert "product codomain is not a type or kind" in str(e)


ABSTRACTION_ARGUMENTS = "A : Type. B : Type. a : A. b : B. g : (A -> A) -> A. E : Type. [] E --> A -> A. j : E -> A.\n"


@pytest.mark.parametrize("head", ["g", "j"])  # a product domain, and one that is a product after one step
def test_abstraction_argument_body_must_have_the_codomain_type(head):
    base = ABSTRACTION_ARGUMENTS
    assert _refusal(base + f"def d : A := {head} (x : A => x).") is None
    e = _refusal(base + f"def d : A := {head} (x : A => b).")
    assert type(e) is k.IllTypedDeclaration and type(e.__cause__) is k.DomainMismatch, e
    e = _refusal(base + f"def d : A := {head} (x : A => Type).")
    assert type(e) is k.IllTypedDeclaration and type(e.__cause__) is k.IllegalSort, e


def test_definition_body_must_have_the_declared_codomain_type():
    assert _refusal(ABSTRACTION_ARGUMENTS + "def d : A -> A := x : A => x.") is None
    e = _refusal(ABSTRACTION_ARGUMENTS + "def d : A -> A := x : A => b.")
    assert type(e) is k.IllTypedDeclaration and "does not match declared" in str(e), e


def test_abstraction_argument_with_a_merely_convertible_domain_has_it_checked():
    """``(z : a => A) a`` converts to ``A``, but ``z : a`` binds over a term:
    a domain that is not the expected one itself is checked as the
    abstraction rule checks it."""
    base = ABSTRACTION_ARGUMENTS
    assert _refusal(base + "def d : A := g (x : (z : A => A) a => x).") is None
    e = _refusal(base + "def d : A := g (x : (z : a => A) a => x).")
    assert type(e) is k.IllTypedDeclaration and type(e.__cause__) is k.IllegalSort, e
