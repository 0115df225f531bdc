import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holtrans import dkfile, dkreader, hol
from holtrans import kernel as k
from holtrans import translate as tr

from conftest import CORPUS, HolGen, close, completeness_context, count_calls, env_signature, make_env, pi, rule_by_rule
from reference_typing import normalize

A = hol.TyVar("A")
B = hol.TyVar("B")
TERM, PROOF, EQ = k.Const("term"), k.Const("proof"), k.Const("eq")
ARROW, BOOL = k.Const("arrow"), k.Const("bool")


# ---------------------------------------------------------------------------
# base signatures


def test_base_q0_checks_and_has_one_rule(q0):
    k.check_signature(q0)
    assert len(q0.rules) == 1


def test_base_pts_checks_and_has_three_rules(pts):
    k.check_signature(pts)
    assert len(pts.rules) == 3


@pytest.mark.parametrize("mode", ["q0", "pts"])
def test_base_file_is_the_header_then_the_source_text(mode):
    """The ``hol.dk`` that ``translate`` writes is, after its two header
    comments, the text ``dkreader`` declares, byte for byte, and the emitter
    prints what that text parses to as the same text."""
    header = f"(; module hol ;)\n(; base signature, mode {mode} ;)\n"
    text = dkreader.base_text(mode)
    assert text == header + dkreader.BASE_TEXT[mode]
    assert dkfile.emit(dkreader.parse(text)) == text


# ---------------------------------------------------------------------------
# types


def test_trans_type_bool():
    env = make_env()
    assert tr.trans_type_term(env, hol.BOOL) == BOOL


def test_trans_type_arrow():
    env = make_env()
    got = tr.trans_type_term(env, hol.fn(A, hol.BOOL))
    assert got == k.app(ARROW, tr.tyvar_ref("A"), BOOL)


def test_trans_type_operator_applied():
    env = make_env()
    from conftest import LIST_OP

    got = tr.trans_type_term(env, hol.TyOp(LIST_OP, (hol.BOOL,)))
    assert got == k.App(k.Const("ty_" + LIST_OP.replace(".", "_")), BOOL)


def test_trans_type_undeclared_operator():
    env = tr.TranslationEnv()
    with pytest.raises(tr.UndeclaredTypeOp):
        tr.trans_type_term(env, hol.TyOp("nope", ()))


def test_trans_type_as_type():
    env = make_env()
    assert tr.trans_type_type(env, hol.BOOL) == k.App(TERM, BOOL)
    assert tr.trans_type_type(env, hol.IND) == k.App(TERM, k.Const("ind"))


def test_trans_type_arrow_convertible_to_function_space(q0):
    env = make_env()
    got = tr.trans_type_type(env, hol.fn(A, B))
    fn_space = k.arrow(
        k.App(TERM, tr.tyvar_ref("A")), k.App(TERM, tr.tyvar_ref("B"))
    )
    assert k.convertible(q0, got, fn_space)


# ---------------------------------------------------------------------------
# terms


def test_trans_term_variable():
    env = make_env()
    x = hol.Var("x", A)
    assert tr.trans_term(env, x) == env.termvar(x)


def test_trans_term_equality_instance():
    env = make_env()
    eq_bool = hol.eq_const(hol.BOOL)
    assert tr.trans_term(env, eq_bool) == k.App(EQ, BOOL)


def test_trans_term_section4_example(q0):
    env = make_env()
    x = hol.Var("x", A)
    got = tr.trans_term(env, hol.App(hol.Abs(x, x), x))
    # the binder closes its own occurrence: body is the bound variable
    lam = k.Abs("x", k.App(TERM, tr.tyvar_ref("A")), k.BVar(0))
    assert got == k.App(lam, env.termvar(x))
    assert normalize(q0, got) == env.termvar(x)


def test_trans_term_undeclared_constant():
    env = make_env()
    with pytest.raises(tr.UndeclaredConstant):
        tr.trans_term(env, hol.Const("mystery", hol.BOOL))


def test_trans_term_instance_match_failure():
    env = make_env()
    # k.f is generic over A -> bool; an ind-codomain instance cannot match
    with pytest.raises(tr.InstanceMatchFailure):
        tr.trans_term(env, hol.Const("k.f", hol.fn(hol.BOOL, hol.IND)))


def _lambda_nest(names):
    """``\\x1 ... \\xn. x1`` over variables of type A named ``names``."""
    vs = [hol.Var(n, A) for n in names]
    t = vs[0]
    for v in reversed(vs):
        t = hol.Abs(v, t)
    return t


def test_lambda_nest_matches_per_binder_closing():
    """A repeated binder name binds at the innermost occurrence."""
    env = make_env()
    x, y = hol.Var("x", A), hol.Var("y", hol.fn(A, A))
    t = hol.Abs(x, hol.Abs(y, hol.Abs(x, hol.App(y, x))))
    dom_a = tr.trans_type_type(env, A)
    dom_y = tr.trans_type_type(env, y.type)
    body = k.App(k.BVar(1), k.BVar(0))
    assert tr.trans_term(env, t) == k.Abs("x", dom_a, k.Abs("y", dom_y, k.Abs("x", dom_a, body)))
    nest = _lambda_nest(["a", "b", "c"])
    want = env.termvar(nest.var)
    for v in reversed([nest.var, nest.body.var, nest.body.body.var]):
        want = k.Abs(v.name, dom_a, close(want, env.termvar_name(v)))
    assert tr.trans_term(env, nest) == want


def test_lambda_nest_is_bound_in_one_walk(monkeypatch):
    """``\\x1 ... \\xn. x1`` is closed once, not once per binder: the
    nodes ``close`` visits grow linearly with the nest's depth."""
    counts = {}
    for n in (250, 500, 1000):
        t = _lambda_nest([f"x{i}" for i in range(n)])
        env = make_env()
        counts[n] = count_calls(monkeypatch, k, "_close", lambda: tr.trans_term(env, t))
    assert counts[500] / counts[250] <= 2.2
    assert counts[1000] / counts[500] <= 2.2


def trans_context(env, props):
    """The hypotheses ``props`` as a context, in order."""
    return {env.hyp_name(prop): tr.trans_prop_type(env, prop) for prop in props}


def test_trans_prop_and_context():
    env = make_env()
    x, y = hol.Var("x", A), hol.Var("y", A)
    prop = hol.mk_eq(x, y)
    got = tr.trans_prop_type(env, prop)
    want = k.App(
        PROOF, k.app(EQ, tr.tyvar_ref("A"), env.termvar(x), env.termvar(y))
    )
    assert got == want
    assert len(trans_context(env, ())) == 0
    ctx = trans_context(env, (prop,))
    assert list(ctx.items()) == [(env.hyp_name(prop), got)]
    with pytest.raises(tr.NotAProposition):
        tr.trans_prop_type(env, x)


# ---------------------------------------------------------------------------
# declarations


def test_declare_type_op_shapes():
    env = tr.TranslationEnv()
    decl = tr.declare_type_op(env, "list", 1)
    assert decl.type == k.arrow(k.Const("type"), k.Const("type"))
    decl0 = tr.declare_type_op(env, "zeroary", 0)
    assert decl0.type == k.Const("type")
    with pytest.raises(tr.DuplicateDeclaration):
        tr.declare_type_op(env, "list", 1)


def test_declare_constant_generalizes():
    env = tr.TranslationEnv()
    decl = tr.declare_constant(env, "id", hol.fn(A, A))
    a = k.Var("'A")
    want = k.Prod(
        "A",
        k.Const("type"),
        close(k.App(TERM, k.app(ARROW, a, a)), "'A"),
    )
    assert decl.type == want
    with pytest.raises(tr.DuplicateDeclaration):
        tr.declare_constant(env, "id", hol.fn(A, A))


def _article_defining(names) -> str:
    """An article that defines each of ``names`` as ``λx. x`` on bool."""
    words = '6 version "bool" typeOp nil opType 0 def pop "x" 0 ref var 1 def pop 1 ref 1 ref varTerm absTerm 2 def pop'
    return "\n".join(words.split() + [w for n in names for w in (f'"{n}"', "2", "ref", "defineConst", "pop", "pop")]) + "\n"


def test_every_declared_name_is_prefixed(corpus_paths, workloads):
    """The name table hands out only prefixed names (``DkNamer``), and
    sharing names its definitions ``s<N>``, so no constant a module declares
    can be a base signature's name, whatever the article calls it."""
    from holtrans import opentheory as ot

    texts = [p.read_text() for p in corpus_paths]
    texts += [workloads.pinned_articles(family, 0)[0]["full"] for family in ("synth", "dag")]
    texts.append(_article_defining(["Type", "def", "bool", "eq", "Refl", "s0", "thm_0", "a.b", "a_b", "∀", "3rd"]))
    seen = set()
    for mode in ("q0", "pts"):
        base = tr.base_signature(mode)
        for text in texts:
            doc = tr.translate_state(ot.run_text(text), "m", mode=mode).document
            names = [it.name for it in dkfile.signature_items(doc)]
            assert all(re.fullmatch(r"(tm|ty|ax)_\w+|thm_\d+|s\d+", n) and n not in base for n in names), names
            seen.update(names)
    assert {"s0", "tm_Type", "tm_def", "tm_bool", "tm_s0", "tm_a_b", "tm_a_b_2"} <= seen


# ---------------------------------------------------------------------------
# proofs


def test_trans_refl_clause():
    env = make_env()
    x = hol.Var("x", A)
    got = tr.trans_proof(env, hol.Refl(x))
    assert got == k.app(k.Const("Refl"), tr.tyvar_ref("A"), env.termvar(x))


def test_trans_beta_clause():
    env = make_env()
    x = hol.Var("x", A)
    f = hol.Var("f", hol.fn(A, B))
    proof = hol.Beta(x, hol.App(f, x))
    got = tr.trans_proof(env, proof)
    want = k.app(
        k.Const("Refl"),
        tr.tyvar_ref("B"),
        k.App(env.termvar(f), env.termvar(x)),
    )
    assert got == want


def _example2():
    x, y, z = hol.Var("x", A), hol.Var("y", A), hol.Var("z", A)
    d1 = hol.Assume(hol.mk_eq(x, y))
    d2 = hol.Assume(hol.mk_eq(y, z))
    congr = hol.AppThm(hol.Refl(hol.App(hol.eq_const(A), x)), d2)
    return hol.EqMp(congr, d1), (x, y, z)


def test_example2_checks_at_translated_conclusion(q0):
    env = make_env()
    proof, (x, _, z) = _example2()
    ctx = completeness_context(env, proof)
    term = tr.trans_proof(env, proof)
    ty = k.infer_type(q0, ctx, term)
    assert k.convertible(q0, ty, tr.trans_prop_type(env, hol.mk_eq(x, z)))


def test_eta_axiom_discharged_via_funext(q0):
    env = make_env()
    f = hol.Var("f", hol.fn(A, B))
    x = hol.Var("x", A)
    ax = hol.Axiom((), hol.mk_eq(hol.Abs(x, hol.App(f, x)), f))
    term = tr.trans_proof(env, ax)
    head = k.spine(term)[0]
    assert head == k.Const("FunExt")
    assert not env.decls or all(
        not d.name.startswith("ax_") for d in env.decls if isinstance(d, k.ConstDecl)
    )
    ctx = completeness_context(env, ax)
    ty = k.infer_type(q0, ctx, term)
    want = tr.trans_prop_type(env, hol.check_proof(ax).concl)
    assert k.convertible(q0, ty, want)


def test_other_axioms_become_premised_constants(q0):
    env = make_env()
    p, q = hol.Var("p", hol.BOOL), hol.Var("q", hol.BOOL)
    ax = hol.Axiom((p,), q)
    term = tr.trans_proof(env, ax)
    head = k.spine(term)[0]
    assert isinstance(head, k.Const) and head.name.startswith("ax_")
    assert any(
        isinstance(d, k.ConstDecl) and d.name == head.name for d in env.decls
    )
    ctx = completeness_context(env, ax)
    ty = k.infer_type(env_signature(env), ctx, term)
    assert k.convertible(q0, ty, tr.trans_prop_type(env, q))


def test_an_axiom_is_declared_over_the_telescope_of_its_closed_theorem():
    """One telescope: an axiom's declared type is the statement that its
    theorem closes to (type variables, term variables, hypotheses), and a
    hypothesis binder, which nothing refers to, prints as an arrow."""
    x, y, p = hol.Var("x", A), hol.Var("y", A), hol.Var("p", hol.BOOL)
    ax = hol.Axiom((hol.mk_eq(x, y), p), hol.mk_eq(y, x))
    env = make_env()
    head = k.spine(tr.trans_proof(env, ax))[0]
    decl = next(d for d in env.decls if d.name == head.name)
    assert decl.type == tr.closed_theorem(env, ax)[0]
    assert dkfile.emit(dkfile.DkDocument("m", (decl,))).splitlines()[1] == (
        "ax_1ad141bd57a7 : A : type -> p : term bool -> x : term A -> y : term A -> "
        "proof (eq A x y) -> proof p -> proof (eq A y x)."
    )


def test_bind_keeps_its_first_domain():
    """The first domain is under no binder of the telescope: ``bind`` takes
    it as it is, even where it has a free variable that closing over an
    empty telescope would rebuild it around."""
    first = k.App(TERM, tr.tyvar_ref("A"))
    t = k.bind(k.Prod, [("$x", "x", first), ("$y", "y", first)], k.Var("$y"))
    assert t.domain is first and t.body.domain == first


def test_a_module_declares_only_the_type_definition_axioms_it_uses():
    """Each type-definition axiom is declared at its own first use: a module
    that exports only ``RepAbsThm`` declares ``rep_abs`` and not ``abs_rep``."""
    from holtrans import opentheory as ot

    state = ot.run_text((CORPUS / "10_definetypeop.art").read_text())
    state.theorems = [(seq, proof) for seq, proof in state.theorems if isinstance(proof, hol.RepAbsThm)]
    assert len(state.theorems) == 1
    doc = tr.translate_state(state, "m").document
    names = {d.name for d in doc.items if isinstance(d, k.ConstDecl)}
    assert "ty_u_t_rep_abs" in names and "ty_u_t_abs_rep" not in names
    tr.verify_document(doc)


def _typed_subst_instance():
    """``Subst(A := bool, x:bool := y:bool; Assume(x:A = x:A))``: not a
    conversion, so not collapsed."""
    x = hol.Var("x", A)
    s = hol.HolSubst(
        theta=(("A", hol.BOOL),),
        sigma=((hol.Var("x", hol.BOOL), hol.Var("y", hol.BOOL)),),
    )
    return hol.Subst(s, hol.Assume(hol.mk_eq(x, x)))


def test_subst_translation_instantiates_types_first(q0):
    """The assumption is used a second time, so the instance stays a redex."""
    env = make_env()
    proof = _typed_subst_instance()
    env.uses = tr.use_counts([proof, proof.sub])
    assert env.uses[id(proof.sub)] == 2
    term = tr.trans_proof(env, proof)
    # outermost application argument chain starts with the type image
    head, args = k.spine(term)
    assert isinstance(head, k.Abs)
    assert args[0] == BOOL
    ctx = completeness_context(env, proof)
    ty = k.infer_type(q0, ctx, term)
    y = hol.Var("y", hol.BOOL)
    assert k.convertible(q0, ty, tr.trans_prop_type(env, hol.mk_eq(y, y)))


def test_a_single_use_instance_of_an_assumption_is_its_hypothesis(q0):
    """Used once, the instance prints as its redex's reduct: the hypothesis
    variable of the instantiated assumption, typed by its own statement."""
    env = make_env()
    proof = _typed_subst_instance()
    env.uses = tr.use_counts([proof])
    y = hol.Var("y", hol.BOOL)
    assert tr.trans_proof(env, proof) == k.Var(env.hyp_name(hol.mk_eq(y, y)))
    ty = k.infer_type(q0, completeness_context(env, proof), tr.trans_proof(env, proof))
    assert ty == tr.trans_prop_type(env, hol.mk_eq(y, y))


def test_use_counts_count_paths_up_to_two():
    """A node has one use per path to it from the roots, counted up to 2: a
    premise of a node used twice is used twice even through one edge."""
    p = hol.Assume(hol.mk_eq(hol.Var("x", A), hol.Var("x", A)))
    q = hol.EqMp(hol.Refl(p.sequent.concl), p)
    once, twice = hol.DeductAntiSym(q, p), hol.DeductAntiSym(p, p)
    uses = tr.use_counts([once])
    assert (uses[id(once)], uses[id(q)], uses[id(q.eq)], uses[id(p)]) == (1, 1, 1, 2)
    uses = tr.use_counts([q, twice, twice])
    assert (uses[id(twice)], uses[id(q)], uses[id(q.eq)], uses[id(p)]) == (2, 1, 1, 2)
    uses = tr.use_counts([hol.DeductAntiSym(q, q)])
    assert (uses[id(q)], uses[id(q.eq)], uses[id(p)]) == (2, 2, 2)


def test_define_const_emits_declaration_and_axiom(q0):
    env = make_env()
    x = hol.Var("x", hol.BOOL)
    tr.declare_constant(env, "c.id", hol.fn(hol.BOOL, hol.BOOL))
    proof = hol.DefineConst("c.id", hol.Abs(x, x))
    term = tr.trans_proof(env, proof)
    names = {d.name for d in env.decls if isinstance(d, k.ConstDecl)}
    assert "tm_c_id" in names and "tm_c_id_def" in names
    ctx = completeness_context(env, proof)
    ty = k.infer_type(env_signature(env), ctx, term)
    want = tr.trans_prop_type(env, hol.check_proof(proof).concl)
    assert k.convertible(env_signature(env), ty, want)


# ---------------------------------------------------------------------------
# conversion-proof compression


def _conversion_tower():
    bb = hol.fn(hol.BOOL, hol.BOOL)
    f, g = hol.Var("f", bb), hol.Var("g", bb)
    x = hol.Var("x", hol.BOOL)
    beta = hol.Beta(x, x)
    inner = hol.AppThm(hol.Refl(g), beta)
    return hol.AppThm(hol.Refl(f), inner), (f, g, x)


def test_compression_collapses_conversion_tower(q0, monkeypatch):
    proof, (f, g, x) = _conversion_tower()
    assert len(_nodes(proof)) == 5
    # the tower translated rule by rule, and collapsed, both check at the
    # original statement
    env = make_env()
    with rule_by_rule(monkeypatch):
        ctx = completeness_context(env, proof)
        tower = tr.trans_proof(env, proof)
    packed_env = make_env()
    packed_ctx = completeness_context(packed_env, proof)
    packed = tr.trans_proof(packed_env, proof)
    for e, c, term in ((env, ctx, tower), (packed_env, packed_ctx, packed)):
        want_ty = tr.trans_prop_type(e, hol.check_proof(proof).concl)
        assert k.convertible(q0, k.infer_type(q0, c, term), want_ty)
    # the collapsed tower is one reflexivity step at the normal form, and
    # smaller than the tower
    want = hol.App(f, hol.App(g, x))
    assert packed == k.app(k.Const("Refl"), BOOL, tr.trans_term(packed_env, want))
    assert k.term_size(packed) < k.term_size(tower)


def _nodes(proof):
    out = [proof]
    if isinstance(proof, hol.AppThm):
        out += _nodes(proof.fun) + _nodes(proof.arg)
    elif isinstance(proof, hol.AbsThm):
        out += _nodes(proof.sub)
    elif isinstance(proof, hol.EqMp):
        out += _nodes(proof.eq) + _nodes(proof.prem)
    elif isinstance(proof, hol.DeductAntiSym):
        out += _nodes(proof.lhs) + _nodes(proof.rhs)
    elif isinstance(proof, hol.Subst):
        out += _nodes(proof.sub)
    return out


def test_compression_skips_non_conversion_children(q0):
    f, g = hol.Var("f", hol.fn(hol.BOOL, hol.BOOL)), hol.Var("g", hol.fn(hol.BOOL, hol.BOOL))
    x = hol.Var("x", hol.BOOL)
    fg = hol.mk_eq(f, g)
    fun = hol.EqMp(hol.Refl(fg), hol.Assume(fg))  # {f = g} |- f = g
    proof = hol.AppThm(fun, hol.Beta(x, x))  # {f = g} |- f ((\x. x) x) = g x
    env = make_env()
    ctx = completeness_context(env, proof)
    term = tr.trans_proof(env, proof)
    head, args = k.spine(term)
    # the conversion side is a reflexivity step, so the derived rule takes
    # its right side, x, in place of the proof
    assert head == k.Const("ApThm")
    assert args[:-1] == [BOOL, BOOL, env.termvar(f), env.termvar(g), env.termvar(x)]
    # an EqMp over a conversion is its premise's proof: here the hypothesis
    assert args[-1] == k.Var(env.hyp_name(fg))
    want_ty = tr.trans_prop_type(env, proof.sequent.concl)
    assert k.convertible(q0, k.infer_type(q0, ctx, term), want_ty)
    # an equality that carries a hypothesis keeps its EqMp
    p, q = hol.Var("p", hol.BOOL), hol.Var("q", hol.BOOL)
    pq = hol.mk_eq(p, q)
    proof = hol.EqMp(hol.Assume(pq), hol.Assume(p))  # {p = q, p} |- q
    ctx = completeness_context(env, proof)
    term = tr.trans_proof(env, proof)
    hyps = (k.Var(env.hyp_name(pq)), k.Var(env.hyp_name(p)))
    assert term == k.app(k.Const("EqMp"), env.termvar(p), env.termvar(q), *hyps)
    want_ty = tr.trans_prop_type(env, proof.sequent.concl)
    assert k.convertible(q0, k.infer_type(q0, ctx, term), want_ty)


@pytest.mark.parametrize("mode, sharing", [("q0", True), ("pts", False)])
def test_translation_reads_sequents_without_rechecking(monkeypatch, mode, sharing):
    """Every proof node checked its rule when the VM built it; translating
    the run reads the stored sequents and applies no rule again."""
    from holtrans import opentheory as ot

    proofs = [HolGen(seed).proof(3) for seed in range(40)]
    article = ot.serialize_article(ot.VMState(theorems=[(p.sequent, p) for p in proofs]))
    # the type definition's two axioms are declared from the nodes the VM built
    typedef = (CORPUS / "10_definetypeop.art").read_text()
    for state in (ot.run_text(article), ot.run_text(typedef)):
        run = lambda: tr.translate_state(state, "m", mode=mode, sharing=sharing)  # noqa: E731
        assert count_calls(monkeypatch, hol, "_check", run) == 0


# ---------------------------------------------------------------------------
# alternative mode


def test_pts_definitions_check_at_stated_types(pts):
    # Defn checking inside check_signature already enforces this; assert the
    # types directly as well
    p, q = k.Var("p"), k.Var("q")
    tb = k.App(TERM, BOOL)
    pf = lambda t: k.App(PROOF, t)
    imp_intro = next(it for it in pts.items if isinstance(it, k.Defn) and it.name == "imp_intro")
    want = pi("p", tb, pi("q", tb,
        k.arrow(k.arrow(pf(p), pf(q)), pf(k.app(k.Const("imp"), p, q)))))
    assert imp_intro.type == want
    got = k.infer_type(pts, {}, imp_intro.body)
    assert k.convertible(pts, got, want)
    imp_elim = next(it for it in pts.items if isinstance(it, k.Defn) and it.name == "imp_elim")
    want_elim = pi("p", tb, pi("q", tb,
        k.arrow(pf(k.app(k.Const("imp"), p, q)), pf(p), pf(q))))
    assert imp_elim.type == want_elim
    got = k.infer_type(pts, {}, imp_elim.body)
    assert k.convertible(pts, got, want_elim)


def test_pts_provability_rewrites(pts):
    p, q = k.Var("p"), k.Var("q")
    pf = lambda t: k.App(PROOF, t)
    got = normalize(pts, pf(k.app(k.Const("imp"), p, q)))
    assert got == k.arrow(pf(p), pf(q))
    got = normalize(pts, pf(k.app(k.Const("forall"), k.Var("a"), p)))
    want = pi("x", k.App(TERM, k.Var("a")), pf(k.App(p, k.Var("x"))))
    assert got == want


def test_unknown_mode_fails_without_sharing():
    from holtrans import opentheory as ot

    state = ot.run_text((CORPUS / "01_identity.art").read_bytes())
    for sharing in (True, False):
        with pytest.raises(tr.TranslateError, match="unknown mode 'q1'"):
            tr.translate_state(state, "m", mode="q1", sharing=sharing)


def test_mode_agreement_on_example2(pts):
    env = make_env()
    proof, (x, _, z) = _example2()
    ctx = completeness_context(env, proof)
    ty = k.infer_type(pts, ctx, tr.trans_proof(env, proof))
    assert k.convertible(pts, ty, tr.trans_prop_type(env, hol.mk_eq(x, z)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000))
def test_mode_agreement_on_random_proofs(seed):
    gen = HolGen(seed)
    proof = gen.proof(2)
    env = make_env()
    ctx = completeness_context(env, proof)
    term = tr.trans_proof(env, proof)
    sig = env_signature(env, "pts")
    ty = k.infer_type(sig, ctx, term, fuel=10**7)
    want = tr.trans_prop_type(env, hol.check_proof(proof).concl)
    assert k.convertible(sig, ty, want)


# ---------------------------------------------------------------------------
# sharing


TERM_BOOL = k.App(TERM, BOOL)


def _big_term_doc():
    # three definitions, each a large closed term of type ``term bool``
    c = k.Const("c")
    small = k.app(EQ, BOOL, c, c)  # 7 nodes, below min_size
    big = k.app(EQ, BOOL, small, small)
    decl = k.ConstDecl("c", TERM_BOOL)
    defs = tuple(k.Defn(f"t{i}", TERM_BOOL, big) for i in (1, 2, 3))
    return dkfile.DkDocument("m", (decl, *defs)), big


def test_share_hoists_repeated_subterm(q0):
    doc, big = _big_term_doc()
    report = tr.share_document(doc, q0, min_size=8)
    defs = [it for it in report.document.items if isinstance(it, k.Defn)]
    hoisted = [d for d in defs if d.name.startswith("s")]
    assert len(hoisted) == report.hoisted == 1
    assert report.replaced == 3
    assert hoisted[0].body == big and hoisted[0].type == TERM_BOOL
    # the hoisted definition appears before its first use
    names = [d.name for d in defs]
    assert names.index(hoisted[0].name) < names.index("t1")
    tr.verify_document(report.document)


def test_share_keeps_repeated_type_level_terms_inline(q0):
    """A type code or a type, hoisted, would have to unfold before ``term``
    or the checker could read it, so it is never a candidate."""
    code = k.app(ARROW, k.app(ARROW, BOOL, BOOL), k.app(ARROW, BOOL, BOOL))  # 11 nodes, a ``type``
    ty = k.App(TERM, code)  # a ``Type``
    prod = k.Prod("x", ty, ty)  # a product
    for t in (code, ty, prod):
        doc = dkfile.DkDocument("m", tuple(k.ConstDecl(f"c{i}", t) for i in range(4)))
        report = tr.share_document(doc, q0, min_size=8)
        assert (report.hoisted, report.replaced) == (0, 0)
        assert report.document == doc
    # a partial type code: ``arrow (arrow (arrow bool bool) bool)``, of 11
    # nodes and type ``type -> type``, heads four different codes
    partial = k.App(ARROW, k.app(ARROW, k.app(ARROW, BOOL, BOOL), BOOL))
    codes = (BOOL, k.Const("ind"), k.app(ARROW, BOOL, BOOL), k.app(ARROW, BOOL, k.Const("ind")))
    doc = dkfile.DkDocument("m", tuple(k.ConstDecl(f"c{i}", k.App(TERM, k.App(partial, x))) for i, x in enumerate(codes)))
    report = tr.share_document(doc, q0, min_size=8)
    assert (report.hoisted, report.replaced) == (0, 0)


def test_share_threshold_respected(q0):
    small = k.App(TERM, BOOL)  # 3 nodes, below the default threshold
    doc = dkfile.DkDocument("m", (k.Defn("t1", k.TYPE, small), k.Defn("t2", k.TYPE, small)))
    report = tr.share_document(doc, q0, min_size=8)
    assert report.hoisted == 0
    assert report.document == doc


def test_share_returns_unshared_subterms_as_they_are(q0):
    """The pass rebuilt every node of every item, shared or not."""
    doc, big = _big_term_doc()
    small = k.app(ARROW, BOOL, BOOL)  # below min_size, so never hoisted
    alone = k.app(k.Const("f"), small, small)  # a candidate, but it occurs once
    decl = k.ConstDecl("d", alone)
    report = tr.share_document(dkfile.DkDocument("m", (*doc.items, decl)), q0, min_size=8)
    assert report.hoisted == 1  # big; the smaller terms in it print once
    assert report.document.items[-1].type is alone


def test_share_hoists_only_where_it_pays(q0):
    """A definition must save half again its own body and type.  ``mid``
    has 9 nodes and type ``term bool``: twice it saves 2 * 8 nodes against
    1.5 * (9 + 3), three times it pays."""
    c, n = k.Const("c"), k.Const("n")
    mid = k.app(EQ, BOOL, k.App(n, c), c)
    decls = (k.ConstDecl("c", TERM_BOOL), k.ConstDecl("n", k.arrow(TERM_BOOL, TERM_BOOL)))
    for count, hoisted in ((2, 0), (3, 1)):
        defs = tuple(k.Defn(f"t{i}", TERM_BOOL, mid) for i in range(count))
        report = tr.share_document(dkfile.DkDocument("m", decls + defs), q0, min_size=8)
        assert (report.hoisted, report.replaced) == (hoisted, hoisted * count)


def test_share_counts_once_and_not_again_inside_a_repeat_that_does_not_pay(q0):
    """``outer = x : term D => big`` repeats twice, but its type is large
    and it does not pay.  The count is taken once, as if ``outer`` were
    hoisted, so ``big`` is counted at its first occurrence only: inline,
    ``outer`` prints ``big`` twice, and ``big`` stays inline too."""
    c = k.Const("c")
    small = k.app(EQ, BOOL, c, c)
    big = k.app(EQ, BOOL, small, small)
    domain = k.App(TERM, k.app(ARROW, k.app(ARROW, BOOL, BOOL), k.app(ARROW, BOOL, BOOL)))
    outer = k.Abs("x", domain, big)
    uses = k.arrow(k.arrow(domain, TERM_BOOL), TERM_BOOL)
    decls = (k.ConstDecl("c", TERM_BOOL), k.ConstDecl("f", uses), k.ConstDecl("g", uses))
    defs = (k.Defn("t1", TERM_BOOL, k.App(k.Const("f"), outer)), k.Defn("t2", TERM_BOOL, k.App(k.Const("g"), outer)))
    doc = dkfile.DkDocument("m", decls + defs)
    run = tr._Sharing(doc, q0, 8)
    assert run.shared == {outer: 2}
    report = tr.share_document(doc, q0, min_size=8)
    assert (report.hoisted, report.replaced) == (0, 0)
    assert report.document.items == doc.items


def test_share_types_a_definition_by_the_declarations_as_rewritten(q0):
    """``lam = h : D => i : D => j : D => g : term bool => ax`` is typed
    from ``ax``'s declaration.  That declaration prints ``proof s0`` once
    ``big`` is hoisted, and so does ``lam``'s definition."""
    c, ax = k.Const("c"), k.Const("ax")
    small = k.app(EQ, BOOL, c, c)
    big = k.app(EQ, BOOL, small, small)
    domain = k.App(TERM, k.app(ARROW, BOOL, k.app(ARROW, BOOL, BOOL)))
    lam = k.Abs("h", domain, k.Abs("i", domain, k.Abs("j", domain, k.Abs("g", TERM_BOOL, ax))))
    lam_type = k.Prod("h", domain, k.Prod("i", domain, k.Prod("j", domain, k.Prod("g", TERM_BOOL, k.App(PROOF, big)))))
    items = [k.ConstDecl("c", TERM_BOOL), k.ConstDecl("ax", k.App(PROOF, big)), k.ConstDecl("q", k.App(PROOF, big))]
    for i in range(4):
        items += [k.ConstDecl(f"f{i}", k.arrow(lam_type, TERM_BOOL)), k.Defn(f"t{i}", TERM_BOOL, k.App(k.Const(f"f{i}"), lam))]
    report = tr.share_document(dkfile.DkDocument("m", tuple(items)), q0, min_size=4)
    assert (report.hoisted, report.replaced) == (2, 10)
    s0, s1 = (it for it in report.document.items if it.name in ("s0", "s1"))
    assert s0.body == big and s1.body == lam
    codomain = s1.type
    while isinstance(codomain, k.Prod):
        codomain = codomain.body
    assert codomain == k.App(PROOF, k.Const("s0"))
    tr.verify_document(report.document)


def _cyclic_garbage(run, ours_only: bool = True) -> list:
    """What ``run()`` leaves in reference cycles, found by the collector
    with ``DEBUG_SAVEALL`` on; with ``ours_only``, only what this package
    made: its functions, instances of its classes (its exceptions too) and
    frames of its code."""
    import gc
    import types

    def module(obj) -> str:
        if isinstance(obj, types.FrameType):
            return obj.f_globals.get("__name__", "")
        if isinstance(obj, types.FunctionType):
            return obj.__module__ or ""
        return type(obj).__module__ or ""

    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return [repr(obj)[:120] for obj in gc.garbage if not ours_only or module(obj).startswith("holtrans")]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("mode, compress, sharing", [("q0", False, True), ("pts", True, False)])
def test_translation_leaves_no_cyclic_garbage(mode, compress, sharing):
    """A recursive inner function refers to itself through its closure, so
    each call's memo lived on until the cyclic collector ran.  With
    ``compress`` the proofs go through ``compress_conversions`` first."""
    import dataclasses

    from holtrans import opentheory as ot

    proofs = [HolGen(seed).proof(3) for seed in range(12)]
    article = ot.serialize_article(ot.VMState(theorems=[(p.sequent, p) for p in proofs]))

    def run():
        state = ot.run_text(article)
        if compress:
            state = dataclasses.replace(state, theorems=[(seq, tr.compress_conversions(p)) for seq, p in state.theorems])
        result = tr.translate_state(state, "m", mode=mode, sharing=sharing)
        tr.verify_document(result.document, mode=mode)

    assert _cyclic_garbage(run) == []


def test_commands_leave_no_cyclic_garbage(tmp_path, corpus_paths):
    """The command line's process runs without the cyclic collector, so a
    whole command, failing or not, must leave no cycles: neither its own
    nor the standard library's (the indenting JSON encoder left 33 cyclic
    objects per call).  One command first warms up what a process does
    once, such as its first imports."""
    from holtrans import cli

    def main(*argv):
        codes = []
        garbage = _cyclic_garbage(lambda: codes.append(cli.main([str(a) for a in argv])), ours_only=False)
        return codes[0], garbage

    cli.main(["translate", "-o", str(tmp_path / "warm"), str(corpus_paths[0])])
    out = tmp_path / "out"
    assert any(p.name == "11_axiom.art" for p in corpus_paths)
    assert main("translate", "-o", out, *corpus_paths) == (0, [])
    bad = tmp_path / "bad.art"
    bad.write_text("6\nversion\nrefl\n")
    assert main("translate", "-o", tmp_path / "stopped", corpus_paths[0], bad, corpus_paths[1]) == (1, [])
    assert main("check", *sorted(out.glob("*.dk"))) == (0, [])
    assert main("stats", "--json", out) == (0, [])
    tampered = tmp_path / "tampered"
    tampered.mkdir()
    (tampered / "hol.dk").write_bytes((out / "hol.dk").read_bytes())
    (tampered / "01_identity.dk").write_text((out / "01_identity.dk").read_text().replace("Refl", "Sym", 1))
    assert main("check", tampered / "01_identity.dk") == (1, [])


def test_share_unfolding_recovers_document(q0, corpus_paths):
    from holtrans import opentheory as ot

    path = next(p for p in corpus_paths if p.name == "07_sym_trans.art")
    state = ot.run_text(path.read_text())
    plain = tr.translate_state(state, "m", sharing=False).document
    shared = tr.share_document(plain, q0, 6).document
    tr.verify_document(shared)
    sig_plain = k.Signature(tuple(q0.items) + dkfile.signature_items(plain))
    sig_shared = k.Signature(tuple(q0.items) + dkfile.signature_items(shared))
    for item in plain.items:
        if isinstance(item, k.Defn):
            twin = next(
                it for it in shared.items if isinstance(it, k.Defn) and it.name == item.name
            )
            a = normalize(sig_plain, item.body, fuel=10**6)
            b = normalize(sig_shared, twin.body, fuel=10**6)
            assert a == b


# ---------------------------------------------------------------------------
# completeness and commutation properties


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000))
def test_completeness_contexts_are_well_formed(seed):
    gen = HolGen(seed)
    proof = gen.proof(2)
    env = make_env()
    ctx = completeness_context(env, proof)
    c = tr.closure_of(env, proof)
    binders = tr._telescope(env, c.tyvars, c.termvars, c.hyps)
    assert len(ctx) == len(binders)  # no name bound twice
    k.check_context(env_signature(env), ctx.items())


# the per-binder closure builders that kernel.bind replaced


def oracle_close_over(env, c, body):
    for prop in reversed(c.hyps):
        body = k.Abs("h", tr.trans_prop_type(env, prop), close(body, env.hyp_name(prop)))
    for v in reversed(c.termvars):
        body = k.Abs(v.name, tr.trans_type_type(env, v.type), close(body, env.termvar_name(v)))
    for n in reversed(c.tyvars):
        body = k.Abs(n, tr._T, close(body, tr.tyvar_name(n)))
    return body


def oracle_pi_over(env, c, ty):
    for prop in reversed(c.hyps):
        ty = k.Prod("h", tr.trans_prop_type(env, prop), close(ty, env.hyp_name(prop)))
    for v in reversed(c.termvars):
        ty = k.Prod(v.name, tr.trans_type_type(env, v.type), close(ty, env.termvar_name(v)))
    for n in reversed(c.tyvars):
        ty = k.Prod(n, tr._T, close(ty, tr.tyvar_name(n)))
    return ty


def oracle_completeness_context(env, proof):
    c = tr.closure_of(env, proof)
    ctx = {}
    for n in c.tyvars:
        ctx[tr.tyvar_name(n)] = tr._T
    for v in c.termvars:
        ctx[env.termvar_name(v)] = tr.trans_type_type(env, v.type)
    for prop in c.hyps:
        ctx[env.hyp_name(prop)] = tr.trans_prop_type(env, prop)
    return ctx


def oracle_trans_subst(env, proof):
    c = tr.closure_of(env, proof.sub)
    fn = oracle_close_over(env, c, c.core)
    theta = dict(proof.subst.theta)
    sigma = dict(proof.subst.sigma)
    args = [tr.trans_type_term(env, theta[n]) if n in theta else tr.tyvar_ref(n) for n in c.tyvars]
    for v in c.termvars:
        v_post = hol.Var(v.name, hol.type_subst(theta, v.type))
        args.append(tr.trans_term(env, sigma.get(v_post, v_post)))
    for prop in c.hyps:
        args.append(k.Var(env.hyp_name(hol.apply_subst(proof.subst, prop))))
    return k.app(fn, *args)


def oracle_redex(env, premise, binders, core, args):
    """``translate._redex`` built binder by binder: the redex, or its reduct
    by one beta step per argument where the reduct is the smaller and the
    premise has one use."""
    fn = core
    for name, hint, domain in reversed(binders):
        fn = k.Abs(hint, domain, close(fn, name))
    redex = k.app(fn, *args)
    if env.uses.get(id(premise)) == 1:
        for arg in args:
            fn = k.open_term(fn.body, arg)
        if fn.size < redex.size:
            return fn
    return redex


def oracle_trans_subst_changed(env, proof):
    """``oracle_trans_subst`` with each position whose argument is its
    binder's own variable left out, built binder by binder, and reduced as
    ``oracle_redex`` reduces it."""
    c = tr.closure_of(env, proof.sub)
    theta = dict(proof.subst.theta)
    sigma = dict(proof.subst.sigma)
    positions = []  # (kernel name, hint, domain, argument)
    for n in c.tyvars:
        arg = tr.trans_type_term(env, theta[n]) if n in theta else tr.tyvar_ref(n)
        positions.append((tr.tyvar_name(n), n, tr._T, arg))
    for v in c.termvars:
        v_post = hol.Var(v.name, hol.type_subst(theta, v.type))
        arg = tr.trans_term(env, sigma.get(v_post, v_post))
        positions.append((env.termvar_name(v), v.name, tr.trans_type_type(env, v.type), arg))
    for prop in c.hyps:
        arg = k.Var(env.hyp_name(hol.apply_subst(proof.subst, prop)))
        positions.append((env.hyp_name(prop), "h", tr.trans_prop_type(env, prop), arg))
    kept = [pos for pos in positions if pos[3] != k.Var(pos[0])]
    return oracle_redex(env, proof.sub, [pos[:3] for pos in kept], c.core, [pos[3] for pos in kept])


def _oracle_theorem(proof, trans_subst, reduce=False):
    """The closed statement, closed body and open context of ``proof``,
    built binder by binder with ``trans_subst`` translating its ``Subst``
    nodes, and the environment that named the context's variables.  With
    ``reduce``, the environment counts the proof's uses and ``oracle_redex``
    builds ``proveHyp``'s redex too."""
    env = make_env()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(tr, "_trans_subst", trans_subst)
        if reduce:
            env.uses = tr.use_counts([proof])
            m.setattr(tr, "_redex", oracle_redex)
        c = tr.closure_of(env, proof)
        ty = oracle_pi_over(env, c, tr.trans_prop_type(env, c.sequent.concl))
        return ty, oracle_close_over(env, c, c.core), oracle_completeness_context(env, proof), env


@pytest.mark.parametrize("mode", ["q0", "pts"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_closures_match_per_binder_oracle(mode, seed):
    """The statement and context are the full closures'; a substitution's
    redex binds only what it changes, and a redex over a premise used once
    is reduced where that makes it smaller, so the body is the full-closure
    oracle's with the identity positions and those redexes beta-reduced."""
    proof = HolGen(seed).proof(3)
    env = make_env()
    env.uses = tr.use_counts([proof])
    ty, body = tr.closed_theorem(env, proof)
    ctx = completeness_context(env, proof)
    old_ty, old_body, old_ctx, old_env = _oracle_theorem(proof, oracle_trans_subst)
    ref_ty, ref_body, ref_ctx, _ = _oracle_theorem(proof, oracle_trans_subst_changed, reduce=True)
    # printed, so that binder hints, which == ignores, are compared too
    fmt = dkfile.fmt_term
    assert ty == old_ty == ref_ty and fmt(ty) == fmt(old_ty) == fmt(ref_ty)
    assert [(n, fmt(t)) for n, t in ctx.items()] == [(n, fmt(t)) for n, t in ref_ctx.items()]
    # a redex translates fewer binder domains, so term variables may be
    # interned in another order: the full closure's context is the same up
    # to the names each environment gave the same HOL variable
    renamed = {n: k.Var(env._termvar_names[v]) for n, v in old_env._termvars.items() if v in env._termvar_names}
    assert [fmt(t) for t in ctx.values()] == [fmt(k.substitute(t, renamed)) for t in old_ctx.values()]
    assert body == ref_body and fmt(body) == fmt(ref_body)
    assert body.size <= old_body.size
    # the environment has no mode; the closed theorem checks in either base signature
    sig = env_signature(env, mode)
    assert k.convertible(sig, body, old_body)
    assert k.convertible(sig, k.infer_type(sig, {}, body), ty)


def test_a_lemma_instantiated_more_than_once_binds_only_what_each_redex_changes():
    """A five-variable lemma instantiated once at each of its variables.
    With sharing on or off, each redex binds only the variable it changes,
    and the module written with sharing on is ``share_document`` applied
    to the module written with it off."""
    from holtrans import opentheory as ot

    lemma = HolGen(24).proof(3)  # not a conversion, so each instance stays a redex
    vs = sorted(hol.sequent_free_vars(lemma.sequent), key=lambda v: v.name)
    assert len(vs) == 5
    instances = [hol.Subst(hol.HolSubst(sigma=((v, hol.Var(v.name + "_z", v.type)),)), lemma) for v in vs]
    state = ot.run_text(ot.serialize_article(ot.VMState(theorems=[(p.sequent, p) for p in instances])))
    assert len({id(p.sub) for _, p in state.theorems}) == 1  # the article keeps the lemma one node
    shared = tr.translate_state(state, "m")
    plain = tr.translate_state(state, "m", sharing=False)

    def redex_args(body):
        """The arguments of a closed theorem's redex."""
        while type(body) is k.Abs:
            body = body.body
        args = []
        while type(body) is k.App:
            body, args = body.fn, [body.arg, *args]
        return args

    for result in (shared, plain):
        theorems = [it for it in result.document.items if isinstance(it, k.Defn) and it.name.startswith("thm_")]
        assert [len(redex_args(t.body)) for t in theorems] == [1] * 5
    assert dkfile.emit(shared.document) == dkfile.emit(tr.share_document(plain.document, tr.base_signature()).document)
    assert len(dkfile.emit(shared.document)) <= len(dkfile.emit(plain.document))


def test_an_exported_lemma_and_its_instances_keep_their_redexes():
    """ROADMAP L's article: ``HolGen(0).proof(4)`` exported, and six
    ``Subst`` instances of it, each renaming one variable.  The lemma is
    reached seven times, so every instance stays a redex over its one
    translation, and the module is the one written before single-use
    redexes were reduced, byte for byte, with sharing on and off."""
    import hashlib

    from holtrans import opentheory as ot

    lemma = HolGen(0).proof(4)
    vs = sorted(hol.sequent_free_vars(lemma.sequent), key=lambda v: (v.name, repr(v.type)))
    instances = []
    for i in range(6):
        v = vs[i % len(vs)]
        instances.append(hol.Subst(hol.HolSubst(sigma=((v, hol.Var(f"{v.name}_{i}", v.type)),)), lemma))
    theorems = [(p.sequent, p) for p in (lemma, *instances)]
    state = ot.run_text(ot.serialize_article(ot.VMState(theorems=theorems)))
    assert {id(p.sub) for _, p in state.theorems[1:]} == {id(state.theorems[0][1])}
    want = {
        True: (12190, "db62730f5cf31a38439ba77e9ddde5710c16483589f4eabb6e9b31e0458c68a2"),
        False: (13274, "4936838d9139ed4b7b619bc98452b64fac492a879dfe2a14913316b01909c0af"),
    }
    for sharing, (size, digest) in want.items():
        text = dkfile.emit(tr.translate_state(state, "lemma", sharing=sharing).document).encode()
        assert (len(text), hashlib.sha256(text).hexdigest()) == (size, digest), sharing


def test_corpus_translates_in_pts_mode(pts, corpus_paths):
    from holtrans import opentheory as ot

    for path in corpus_paths:
        state = ot.run_text(path.read_text())
        result = tr.translate_state(state, path.stem, mode="pts")
        tr.verify_document(result.document, mode="pts")
        # the traced benchmark run compresses each proof first: it gets the proof back
        assert all(tr.compress_conversions(p) is p for _, p in state.theorems)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100_000))
def test_completeness_on_random_proofs(seed):
    gen = HolGen(seed)
    proof = gen.proof(3)
    env = make_env()
    ctx = completeness_context(env, proof)
    term = tr.trans_proof(env, proof)
    sig = env_signature(env)  # after translation: axiom constants are lazy
    ty = k.infer_type(sig, ctx, term, fuel=10**6)
    want = tr.trans_prop_type(env, hol.check_proof(proof).concl)
    assert k.convertible(sig, ty, want)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_translated_types_live_in_type(seed):
    gen = HolGen(seed)
    ty = gen.type()
    env = make_env()
    ctx = {}
    for name in sorted(hol.type_tyvars(ty)):
        ctx[tr.tyvar_name(name)] = k.Const("type")
    got = k.infer_type(env_signature(env), ctx, tr.trans_type_term(env, ty))
    assert got == k.Const("type")


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_translated_terms_live_in_translated_types(seed):
    gen = HolGen(seed)
    ty = gen.type()
    term = gen.term(ty, 3)
    env = make_env()
    sig = env_signature(env)
    kt = tr.trans_term(env, term)
    ctx = {}
    for name in sorted(hol.term_tyvars(term)):
        ctx[tr.tyvar_name(name)] = k.Const("type")
    vs = sorted(hol.free_vars(term), key=lambda v: (v.name, repr(hol.type_key(v.type))))
    for v in vs:
        ctx[env.termvar_name(v)] = tr.trans_type_type(env, v.type)
    got = k.infer_type(sig, ctx, kt, fuel=10**6)
    assert k.convertible(sig, got, tr.trans_type_type(env, ty))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100_000))
def test_translation_commutes_with_substitution(seed):
    gen = HolGen(seed)
    ty = gen.type()
    term = gen.term(ty, 3)
    theta = {"A": gen.type(1), "B": gen.type(1)}
    sigma_pairs = []
    for v in sorted(hol.free_vars(term), key=lambda v: v.name):
        if gen.rng.random() < 0.5:
            key = hol.Var(v.name, hol.type_subst(theta, v.type))
            sigma_pairs.append((key, gen.term(key.type, 1)))
    s = hol.HolSubst(tuple(theta.items()), tuple(sigma_pairs))
    env = make_env()
    sig = env_signature(env)
    lhs = tr.trans_term(env, hol.apply_subst(s, term))
    mapping = {tr.tyvar_name(n): tr.trans_type_term(env, t) for n, t in theta.items()}
    for v in hol.free_vars(term):
        v_post = hol.Var(v.name, hol.type_subst(theta, v.type))
        image = dict(sigma_pairs).get(v_post, v_post)
        mapping[env.termvar_name(v)] = tr.trans_term(env, image)
    rhs = k.substitute(tr.trans_term(env, term), mapping)
    assert k.convertible(sig, lhs, rhs, fuel=10**6)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100_000))
def test_reduction_preserved_on_beta_redexes(seed):
    gen = HolGen(seed)
    arg_ty = gen.type(1)
    body_ty = gen.type(1)
    v = hol.Var("x", arg_ty)
    body = gen.term(body_ty, 2, (v,))
    arg = gen.term(arg_ty, 2)
    redex = hol.App(hol.Abs(v, body), arg)
    reduct = hol.apply_subst(hol.HolSubst(sigma=((v, arg),)), body)
    env = make_env()
    sig = env_signature(env)
    a = normalize(sig, tr.trans_term(env, redex), fuel=10**6)
    b = normalize(sig, tr.trans_term(env, reduct), fuel=10**6)
    assert a == b
