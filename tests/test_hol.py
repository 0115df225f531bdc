import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holtrans import hol

import reference_subst
from conftest import HolGen, beta_normalize_tree, captured_by_instantiation

A = hol.TyVar("A")
B = hol.TyVar("B")


def reference_type(t):
    """Simple-type inference by structural recursion over the whole term."""
    if isinstance(t, (hol.Var, hol.Const)):
        return t.type
    if isinstance(t, hol.Abs):
        return hol.fn(t.var.type, reference_type(t.body))
    a, b = hol.dest_fn(reference_type(t.fn))
    if reference_type(t.arg) != a:
        raise hol.AppTypeMismatch("argument type does not match the domain")
    return b


def test_infer_equality_constant():
    eq = hol.eq_const(A)
    assert eq.type == hol.fn(A, hol.fn(A, hol.BOOL))


def test_infer_identity():
    x = hol.Var("x", A)
    assert hol.Abs(x, x).type == hol.fn(A, A)


def test_infer_select_generic():
    sel = hol.Const(hol.SELECT, hol.select_generic())
    assert sel.type == hol.fn(hol.fn(A, hol.BOOL), A)


def test_infer_app_mismatch():
    """An ill-typed application cannot be built."""
    f = hol.Var("f", hol.fn(hol.BOOL, hol.BOOL))
    x = hol.Var("x", hol.IND)
    with pytest.raises(hol.AppTypeMismatch):
        hol.App(f, x)
    with pytest.raises(hol.AppTypeMismatch):
        hol.App(x, x)


def test_type_is_not_part_of_term_identity():
    x = hol.Var("x", A)
    t = hol.Abs(x, x)
    assert t == hol.Abs(x, x) and hash(t) == hash(hol.Abs(x, x))
    assert repr(t) == f"Abs(var={x!r}, body={x!r})"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_stored_type_matches_recursive_inference(seed):
    gen = HolGen(seed)
    ty = gen.type()
    term = gen.term(ty, 4)
    assert term.type == reference_type(term) == ty
    stack = [term]
    while stack:
        u = stack.pop()
        assert u.type == reference_type(u)
        if isinstance(u, hol.App):
            stack += [u.fn, u.arg]
        elif isinstance(u, hol.Abs):
            stack.append(u.body)


def test_builtin_type_arity_enforced():
    with pytest.raises(hol.ArityMismatch):
        hol.TyOp("->", (hol.BOOL,))
    with pytest.raises(hol.ArityMismatch):
        hol.TyOp("bool", (hol.BOOL,))


# ---------------------------------------------------------------------------
# substitution


def test_apply_subst_rewrites_annotations():
    s = hol.HolSubst(theta=(("A", hol.BOOL),))
    out = hol.apply_subst(s, hol.Var("x", A))
    assert out == hol.Var("x", hol.BOOL)


def test_apply_subst_is_simultaneous():
    x, y = hol.Var("x", A), hol.Var("y", A)
    s = hol.HolSubst(sigma=((x, y), (y, x)))
    out = hol.apply_subst(s, hol.mk_eq(x, y))
    assert hol.alpha_equal(out, hol.mk_eq(y, x))
    # sequential application would collapse both sides to the same variable
    seq = hol.apply_subst(hol.HolSubst(sigma=((y, x),)),
                          hol.apply_subst(hol.HolSubst(sigma=((x, y),)), hol.mk_eq(x, y)))
    assert hol.alpha_equal(seq, hol.mk_eq(x, x))


def test_apply_subst_matches_parallel_redex():
    # M[M1/x1, M2/x2] agrees with beta-reducing (\x1 x2. M) M1 M2
    x1, x2 = hol.Var("x1", A), hol.Var("x2", hol.fn(A, A))
    m = hol.App(x2, x1)
    m1 = hol.Var("z", A)
    m2 = hol.Abs(hol.Var("w", A), hol.Var("w", A))
    s = hol.HolSubst(sigma=((x1, m1), (x2, m2)))
    redex = hol.App(hol.App(hol.Abs(x1, hol.Abs(x2, m)), m1), m2)
    assert hol.alpha_equal(beta_normalize_tree(hol.apply_subst(s, m)), beta_normalize_tree(redex))


def test_apply_subst_capture_avoiding():
    # substituting y for x under a binder named y must rename the binder
    x, y = hol.Var("x", A), hol.Var("y", A)
    t = hol.Abs(y, hol.App(hol.App(hol.eq_const(A), x), y))
    out = hol.apply_subst(hol.HolSubst(sigma=((x, y),)), t)
    assert isinstance(out, hol.Abs)
    assert out.var.name != "y"
    lhs, rhs = hol.dest_eq(out.body)
    assert lhs == y and rhs == out.var


def test_type_instantiation_renames_a_capturing_binder():
    xb, yb = hol.Var("x", B), hol.Var("y", B)
    redex = hol.App(hol.Abs(hol.Var("x'", B), xb), yb)
    assert captured_by_instantiation().sequent == hol.Sequent((), hol.mk_eq(redex, xb))


def reference_term_key(t, theta=None, bound=None, depth=0):
    """``hol.term_key`` as first written, copying its binder dict at every
    ``Abs``.  With ``theta``, the key of ``t`` with ``theta`` applied to
    every type and the binders kept as they are: the key that a
    capture-avoiding ``apply_subst`` of ``theta`` must have."""
    theta, bound = theta or {}, bound or {}
    if isinstance(t, hol.Var):
        k = (t.name, hol.type_key(t.type))
        if k in bound:
            return ("b", depth - bound[k] - 1)
        return ("f", t.name, hol.type_key(hol.type_subst(theta, t.type)))
    if isinstance(t, hol.Const):
        return ("c", t.name, hol.type_key(hol.type_subst(theta, t.type)))
    if isinstance(t, hol.Abs):
        inner = dict(bound)
        inner[(t.var.name, hol.type_key(t.var.type))] = depth
        return ("l", hol.type_key(hol.type_subst(theta, t.var.type)), reference_term_key(t.body, theta, inner, depth + 1))
    return ("a", reference_term_key(t.fn, theta, bound, depth), reference_term_key(t.arg, theta, bound, depth))


def all_named_x(t, env=None):
    """``t`` with every variable, free or bound, renamed to ``x`` at its own
    type: binders shadow each other and capture free variables."""
    env = env or {}
    if isinstance(t, hol.Var):
        return env.get(t, hol.Var("x", t.type))
    if isinstance(t, hol.Const):
        return t
    if isinstance(t, hol.App):
        return hol.App(all_named_x(t.fn, env), all_named_x(t.arg, env))
    v = hol.Var("x", t.var.type)
    return hol.Abs(v, all_named_x(t.body, {**env, t.var: v}))


_THETAS = [{"A": B}, {"B": A}, {"A": B, "B": A}, {"A": hol.BOOL}, {"A": hol.fn(B, B)}]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000), st.booleans(), st.sampled_from(_THETAS))
def test_term_key_and_type_instantiation_match_the_copying_key(seed, shadowed, theta):
    gen = HolGen(seed)
    t = gen.term(gen.type(), 4)
    if shadowed:
        t = all_named_x(t)
    assert hol.term_key(t) == reference_term_key(t)
    s = hol.HolSubst(theta=tuple(theta.items()))
    assert hol.term_key(hol.apply_subst(s, t)) == reference_term_key(t, theta)


def test_type_instantiation_keeps_nested_shadowing_binders_apart():
    """``\\x:A. \\x:B. x:A`` under ``A := B``: the inner binder is renamed."""
    xa, xb = hol.Var("x", A), hol.Var("x", B)
    t = hol.Abs(xa, hol.Abs(xb, xa))
    out = hol.apply_subst(hol.HolSubst(theta=(("A", B),)), t)
    assert out == hol.Abs(xb, hol.Abs(hol.Var("x'", B), xb))
    assert hol.apply_subst(hol.HolSubst(theta=(("B", A),)), t) == hol.Abs(xa, hol.Abs(hol.Var("x'", A), xa))


def _variables(t):
    """Every variable of ``t``, free or bound."""
    out, stack = set(), [t]
    while stack:
        u = stack.pop()
        if isinstance(u, hol.Var):
            out.add(u)
        elif isinstance(u, hol.Abs):
            stack += (u.var, u.body)
        elif isinstance(u, hol.App):
            stack += (u.fn, u.arg)
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 100_000), st.booleans(), st.sampled_from([{}, *_THETAS]))
def test_apply_subst_agrees_with_the_two_walks(seed, shadowed, theta):
    """One walk with one capture rule gives the alpha class that the type
    walk followed by the term walk gives.  The images are random terms, the
    term's own variables (free or bound there) and, where every variable of
    the term is named ``x``, terms whose variables are all ``x`` too."""
    gen = HolGen(seed)
    t = gen.term(gen.type(), 4)
    if shadowed:
        t = all_named_x(t)
    own = [hol.Var(w.name, hol.type_subst(theta, w.type)) for w in _variables(t)]
    sigma = []
    for v in sorted(hol.free_vars(t), key=lambda v: (v.name, repr(hol.type_key(v.type)))):
        key = hol.Var(v.name, hol.type_subst(theta, v.type))
        roll = gen.rng.random()
        if roll < 0.3:
            image = gen.term(key.type, 2)
            sigma.append((key, all_named_x(image) if shadowed else image))
        elif roll < 0.6:
            fits = [w for w in own if w.type == key.type]
            if fits:
                sigma.append((key, gen.rng.choice(fits)))
    s = hol.HolSubst(tuple(theta.items()), tuple(sigma))
    assert hol.term_key(hol.apply_subst(s, t)) is hol.term_key(reference_subst.apply_subst(s, t))


def test_type_instantiation_renames_past_free_primed_names():
    """Rule (a): ``\\x:A. x:B = x':B`` under ``A := B``; ``x'`` is free, so
    the binder becomes ``x''``."""
    xa, xb, x1 = hol.Var("x", A), hol.Var("x", B), hol.Var("x'", B)
    out = hol.apply_subst(hol.HolSubst(theta=(("A", B),)), hol.Abs(xa, hol.mk_eq(xb, x1)))
    assert out == hol.Abs(hol.Var("x''", B), hol.mk_eq(xb, x1))


def test_term_substitution_renames_a_capturing_binder_with_a_prime():
    """Rule (b): ``\\y. x = y`` and ``\\y. x = y'`` under ``x := y``."""
    x, y, y1, y2 = (hol.Var(n, A) for n in ("x", "y", "y'", "y''"))
    s = hol.HolSubst(sigma=((x, y),))
    assert hol.apply_subst(s, hol.Abs(y, hol.mk_eq(x, y))) == hol.Abs(y1, hol.mk_eq(y, y1))
    assert hol.apply_subst(s, hol.Abs(y, hol.mk_eq(x, y1))) == hol.Abs(y2, hol.mk_eq(y, y1))


def test_term_substitution_leaves_a_binder_of_another_type_alone():
    """``\\y:B. x`` under ``x := y:A``: the image's ``y`` is another
    variable than the binder, so nothing is captured and nothing renamed."""
    x, ya, yb = hol.Var("x", A), hol.Var("y", A), hol.Var("y", B)
    out = hol.apply_subst(hol.HolSubst(sigma=((x, ya),)), hol.Abs(yb, x))
    assert out == hol.Abs(yb, ya)


def test_a_binder_renamed_above_renames_the_binder_it_would_meet():
    """Rule (a) renames the outer ``x:A`` of ``\\x:A. \\x':A. f x:A x:B``
    to ``x'`` under ``A := B``; rule (b) then renames the inner ``x'``,
    which would capture it, to ``x''``."""
    xa, xb, x1a = hol.Var("x", A), hol.Var("x", B), hol.Var("x'", A)
    f = hol.Var("f", hol.fn(A, hol.fn(B, hol.BOOL)))
    t = hol.Abs(xa, hol.Abs(x1a, hol.App(hol.App(f, xa), xb)))
    out = hol.apply_subst(hol.HolSubst(theta=(("A", B),)), t)
    fb = hol.Var("f", hol.fn(B, hol.fn(B, hol.BOOL)))
    x1, x2 = hol.Var("x'", B), hol.Var("x''", B)
    assert out == hol.Abs(x1, hol.Abs(x2, hol.App(hol.App(fb, x1), xb)))


def test_both_capture_rules_at_one_binder_rename_it_once():
    """``\\x:A. x:B = z:B`` under ``A := B`` and ``z := x:B``: the binder's
    image is the free ``x:B``'s (a) and is free in ``z``'s image (b)."""
    xa, xb, z = hol.Var("x", A), hol.Var("x", B), hol.Var("z", B)
    s = hol.HolSubst(theta=(("A", B),), sigma=((z, xb),))
    out = hol.apply_subst(s, hol.Abs(xa, hol.mk_eq(xb, z)))
    assert out == hol.Abs(hol.Var("x'", B), hol.mk_eq(xb, xb))


# ---------------------------------------------------------------------------
# alpha equivalence


def test_alpha_equal_renamed_binder():
    x, y = hol.Var("x", A), hol.Var("y", A)
    assert hol.alpha_equal(hol.Abs(x, x), hol.Abs(y, y))


def test_alpha_unequal_annotations():
    x_a = hol.Var("x", A)
    x_b = hol.Var("x", hol.BOOL)
    assert not hol.alpha_equal(hol.Abs(x_a, x_a), hol.Abs(x_b, x_b))


def test_alpha_unequal_swapped_equation():
    x, y = hol.Var("x", A), hol.Var("y", A)
    assert not hol.alpha_equal(hol.mk_eq(x, y), hol.mk_eq(y, x))


# ---------------------------------------------------------------------------
# proof checking, rule by rule


def test_refl():
    x = hol.Var("x", A)
    seq = hol.check_proof(hol.Refl(x))
    assert seq.hyps == ()
    assert hol.alpha_equal(seq.concl, hol.mk_eq(x, x))


def test_assume():
    p = hol.Var("p", hol.BOOL)
    seq = hol.check_proof(hol.Assume(p))
    assert seq.hyps == (p,) and seq.concl == p


def test_assume_requires_bool():
    with pytest.raises(hol.RuleViolation):
        hol.check_proof(hol.Assume(hol.Var("x", hol.IND)))


def test_beta_special_form():
    x = hol.Var("x", A)
    m = hol.App(hol.Var("f", hol.fn(A, B)), x)
    seq = hol.check_proof(hol.Beta(x, m))
    redex = hol.App(hol.Abs(x, m), x)
    assert hol.alpha_equal(seq.concl, hol.mk_eq(redex, m))


def test_abs_thm():
    x = hol.Var("x", A)
    f = hol.Var("f", hol.fn(A, B))
    g = hol.Var("g", hol.fn(A, B))
    sub = hol.Assume(hol.mk_eq(hol.App(f, x), hol.App(g, x)))
    with pytest.raises(hol.RuleViolation):
        # x is free in the hypothesis
        hol.check_proof(hol.AbsThm(x, sub))
    sub2 = hol.Assume(hol.mk_eq(f, g))
    congr = hol.AppThm(sub2, hol.Refl(x))
    seq = hol.check_proof(hol.AbsThm(x, congr))
    lam_f = hol.Abs(x, hol.App(f, x))
    lam_g = hol.Abs(x, hol.App(g, x))
    assert hol.alpha_equal(seq.concl, hol.mk_eq(lam_f, lam_g))


def test_app_thm_type_mismatch():
    f = hol.Var("f", hol.fn(A, B))
    x = hol.Var("x", hol.BOOL)
    with pytest.raises(hol.RuleViolation):
        hol.check_proof(hol.AppThm(hol.Refl(f), hol.Refl(x)))


def test_app_thm_non_equality_premise():
    p = hol.Var("p", hol.BOOL)
    with pytest.raises(hol.RuleViolation):
        hol.check_proof(hol.AppThm(hol.Assume(p), hol.Refl(p)))


def test_eq_mp():
    p, q = hol.Var("p", hol.BOOL), hol.Var("q", hol.BOOL)
    eq = hol.Assume(hol.mk_eq(p, q))
    seq = hol.check_proof(hol.EqMp(eq, hol.Assume(p)))
    assert seq.concl == q
    assert len(seq.hyps) == 2


def test_eq_mp_mismatch():
    x, y = hol.Var("x", hol.BOOL), hol.Var("y", hol.BOOL)
    with pytest.raises(hol.RuleViolation):
        hol.check_proof(hol.EqMp(hol.Refl(x), hol.Assume(y)))


def test_deduct_antisym_set_algebra():
    p, q = hol.Var("p", hol.BOOL), hol.Var("q", hol.BOOL)
    seq = hol.check_proof(hol.DeductAntiSym(hol.Assume(p), hol.Assume(q)))
    assert {hol.term_key(h) for h in seq.hyps} == {hol.term_key(p), hol.term_key(q)}
    assert hol.alpha_equal(seq.concl, hol.mk_eq(p, q))


def test_subst_node():
    x = hol.Var("x", A)
    y_bool = hol.Var("y", hol.BOOL)
    s = hol.HolSubst(
        theta=(("A", hol.BOOL),),
        sigma=((hol.Var("x", hol.BOOL), y_bool),),
    )
    seq = hol.check_proof(hol.Subst(s, hol.Refl(x)))
    assert hol.alpha_equal(seq.concl, hol.mk_eq(y_bool, y_bool))


def test_subst_image_type_violation():
    x = hol.Var("x", hol.BOOL)
    s = hol.HolSubst(sigma=((x, hol.Var("y", hol.IND)),))
    with pytest.raises(hol.RuleViolation):
        hol.check_proof(hol.Subst(s, hol.Refl(x)))


def test_example2_transitivity():
    x, y, z = hol.Var("x", A), hol.Var("y", A), hol.Var("z", A)
    d1 = hol.Assume(hol.mk_eq(x, y))
    d2 = hol.Assume(hol.mk_eq(y, z))
    congr = hol.AppThm(hol.Refl(hol.App(hol.eq_const(A), x)), d2)
    seq = hol.check_proof(hol.EqMp(congr, d1))
    assert hol.alpha_equal(seq.concl, hol.mk_eq(x, z))
    assert {hol.term_key(h) for h in seq.hyps} == {
        hol.term_key(hol.mk_eq(x, y)),
        hol.term_key(hol.mk_eq(y, z)),
    }


def test_define_const():
    x = hol.Var("x", hol.BOOL)
    seq = hol.check_proof(hol.DefineConst("c0", hol.Abs(x, x)))
    lhs, rhs = hol.dest_eq(seq.concl)
    assert lhs == hol.Const("c0", hol.fn(hol.BOOL, hol.BOOL))
    assert rhs == hol.Abs(x, x)


def test_define_const_rejects_free_variables():
    with pytest.raises(hol.RuleViolation):
        hol.check_proof(hol.DefineConst("c1", hol.Var("x", hol.BOOL)))


def test_define_type_op_bijections():
    x = hol.Var("x", hol.BOOL)
    pred = hol.Abs(x, hol.mk_eq(x, x))
    witness = hol.mk_eq(hol.Abs(x, x), hol.Abs(x, x))
    sub = hol.Axiom((), hol.App(pred, witness))
    defn = hol.TypeOpDef("t0", "abs0", "rep0", (), sub)
    abs_seq = hol.check_proof(hol.AbsRepThm(defn))
    rep_seq = hol.check_proof(hol.RepAbsThm(defn))
    new_ty = hol.TyOp("t0", ())
    a = hol.Var("a", new_ty)
    abs_c = hol.Const("abs0", hol.fn(hol.BOOL, new_ty))
    rep_c = hol.Const("rep0", hol.fn(new_ty, hol.BOOL))
    want_abs = hol.mk_eq(hol.Abs(a, hol.App(abs_c, hol.App(rep_c, a))), hol.Abs(a, a))
    assert hol.alpha_equal(abs_seq.concl, want_abs)
    r = hol.Var("r", hol.BOOL)
    want_rep = hol.mk_eq(
        hol.Abs(r, hol.mk_eq(hol.App(rep_c, hol.App(abs_c, r)), r)),
        hol.Abs(r, hol.App(pred, r)),
    )
    assert hol.alpha_equal(rep_seq.concl, want_rep)


def test_define_type_op_tyvar_list_must_match():
    x = hol.Var("x", A)
    pred = hol.Abs(x, hol.mk_eq(x, x))
    sub = hol.Axiom((), hol.App(pred, hol.Var("w", A)))
    defn = hol.TypeOpDef("t1", "abs1", "rep1", (), sub)  # missing A
    with pytest.raises(hol.RuleViolation):
        hol.check_proof(hol.AbsRepThm(defn))


def test_eta_instance_recognizer():
    f = hol.Var("f", hol.fn(A, B))
    x = hol.Var("x", A)
    seq = hol.check_proof(hol.Axiom((), hol.mk_eq(hol.Abs(x, hol.App(f, x)), f)))
    got = hol.eta_instance(seq)
    assert got == (x, f)
    other = hol.check_proof(hol.Axiom((), hol.mk_eq(f, f)))
    assert hol.eta_instance(other) is None


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_generated_proofs_check(seed):
    gen = HolGen(seed)
    proof = gen.proof(3)
    hol.check_proof(proof)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_subst_commutes_with_check(seed):
    gen = HolGen(seed)
    sub = gen.proof(2)
    s = gen.subst_for(sub)
    seq = hol.check_proof(sub)
    got = hol.check_proof(hol.Subst(s, sub))
    assert hol.alpha_equal(got.concl, hol.apply_subst(s, seq.concl))
    want_hyps = {hol.term_key(hol.apply_subst(s, h)) for h in seq.hyps}
    assert {hol.term_key(h) for h in got.hyps} == want_hyps


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_infer_commutes_with_subst(seed):
    gen = HolGen(seed)
    ty = gen.type()
    term = gen.term(ty, 3)
    theta = {"A": gen.type(1), "B": gen.type(1)}
    s = hol.HolSubst(theta=tuple(theta.items()))
    assert hol.apply_subst(s, term).type == hol.type_subst(theta, term.type)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_deduct_antisym_hypothesis_algebra(seed):
    gen = HolGen(seed)
    d1, d2 = gen.proof(2), gen.proof(2)
    s1, s2 = hol.check_proof(d1), hol.check_proof(d2)
    got = hol.check_proof(hol.DeductAntiSym(d1, d2))
    minus1 = {hol.term_key(h) for h in s1.hyps} - {hol.term_key(s2.concl)}
    minus2 = {hol.term_key(h) for h in s2.hyps} - {hol.term_key(s1.concl)}
    assert {hol.term_key(h) for h in got.hyps} == minus1 | minus2


_P, _Q = hol.Var("p", hol.BOOL), hol.Var("q", hol.BOOL)
_X = hol.Var("x", A)
_F = hol.Var("f", hol.fn(A, B))
_PERTURBATIONS = [
    lambda: hol.EqMp(hol.Refl(_P), hol.Assume(_Q)),
    lambda: hol.AppThm(hol.Refl(_F), hol.Refl(_P)),
    lambda: hol.AbsThm(_X, hol.Assume(hol.mk_eq(_X, _X))),
]


@pytest.mark.parametrize("proof", _PERTURBATIONS, ids=[f"proof{i}" for i in range(len(_PERTURBATIONS))])
def test_perturbed_premises_rejected(proof):
    """A node whose rule does not apply to its premises cannot be built:
    each parameter builds one."""
    with pytest.raises(hol.RuleViolation):
        proof()


def test_node_stores_its_sequent_and_shared_premises_are_checked_once(monkeypatch):
    calls = [0]
    inner = hol._check

    def counting(proof):
        calls[0] += 1
        return inner(proof)

    monkeypatch.setattr(hol, "_check", counting)
    p, q = _P, _Q
    eq = hol.Assume(hol.mk_eq(p, q))
    node = hol.EqMp(eq, hol.Assume(p))
    for _ in range(5):
        node = hol.DeductAntiSym(node, node)
    assert calls[0] == 3 + 5
    assert hol.check_proof(node) is node.sequent
    assert calls[0] == 3 + 5
