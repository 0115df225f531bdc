"""The front half of the pipeline is linear in the distinct nodes of a DAG,
and the term printer is linear in its input, or bounded in messages.

Articles build terms as DAGs through ``def``/``ref``.  VM replay,
translation and sharing must each visit a shared node once, so the work on
``Refl(t_k)``, with ``t_(k+1) = (t_k = t_k)``, grows with ``k`` and not with
the tree size ``2^k``.  The tree-walking versions of the HOL walks that the
DAG-aware ones replaced stay here as oracles.
"""

import sys
from collections import Counter
from pathlib import Path

from hypothesis import given, settings, strategies as st

from conftest import HolGen, rule_by_rule
from holtrans import dkfile, hol, kernel, opentheory as ot, translate as tr

A = hol.TyVar("A")

# ---------------------------------------------------------------------------
# Oracles: the tree walks the DAG-aware functions replaced


def type_key_tree(ty):
    if isinstance(ty, hol.TyVar):
        return ("v", ty.name)
    return ("o", ty.op, tuple(type_key_tree(a) for a in ty.args))


def term_key_tree(t, bound=None, depth=0):
    """``hol.term_key`` before nodes kept their keys: one walk of the tree,
    each binder setting its entry in ``bound`` for its body."""
    bound = {} if bound is None else bound
    if isinstance(t, hol.Var):
        k = (t.name, type_key_tree(t.type))
        if k in bound:
            return ("b", depth - bound[k] - 1)
        return ("f", t.name, type_key_tree(t.type))
    if isinstance(t, hol.Const):
        return ("c", t.name, type_key_tree(t.type))
    if isinstance(t, hol.Abs):
        k = (t.var.name, type_key_tree(t.var.type))
        old = bound.get(k)
        bound[k] = depth
        out = ("l", k[1], term_key_tree(t.body, bound, depth + 1))
        if old is None:
            del bound[k]
        else:
            bound[k] = old
        return out
    return ("a", term_key_tree(t.fn, bound, depth), term_key_tree(t.arg, bound, depth))


def make_sequent_hyps_tree(hyps):
    """The hypotheses of ``hol.make_sequent``, deduplicated and ordered by
    the tree-walk key."""
    by_key = {}
    for h in hyps:
        by_key.setdefault(term_key_tree(h), h)
    return tuple(by_key[k] for k in sorted(by_key))


def alpha_equal_by_key(a, b):
    return term_key_tree(a) == term_key_tree(b)


def free_vars_tree(t, bound=frozenset()):
    if isinstance(t, hol.Var):
        return frozenset() if t in bound else frozenset((t,))
    if isinstance(t, hol.Const):
        return frozenset()
    if isinstance(t, hol.Abs):
        return free_vars_tree(t.body, bound | {t.var})
    return free_vars_tree(t.fn, bound) | free_vars_tree(t.arg, bound)


def term_tyvars_tree(t, out=None):
    if out is None:
        out = set()
    if isinstance(t, (hol.Var, hol.Const)):
        out |= hol.type_tyvars(t.type)
    elif isinstance(t, hol.Abs):
        out |= hol.type_tyvars(t.var.type)
        term_tyvars_tree(t.body, out)
    else:
        term_tyvars_tree(t.fn, out)
        term_tyvars_tree(t.arg, out)
    return out


# ---------------------------------------------------------------------------
# Random terms of type A that share subterm and Var objects, also under
# binders

B = hol.TyVar("B")
VARS = (hol.Var("x", A), hol.Var("y", A), hol.Var("z", A))
X_BOOL = hol.Var("x", hol.BOOL)
C = hol.Const("c", A)
F = hol.Const("f", hol.fn(A, hol.fn(A, A)))
G = hol.Const("g", hol.fn(hol.fn(A, A), A))
H = hol.Const("h", hol.fn(hol.fn(hol.BOOL, A), A))
K = hol.Const("k", hol.fn(B, A))


def _term(draw, depth, pool):
    """A term of type A; ``pool`` holds every term built so far, and
    reusing one of them makes the result a DAG."""
    kind = draw(st.integers(0, 6 if depth > 0 else 2))
    if kind == 0:
        t = draw(st.sampled_from(VARS))
    elif kind == 1:
        t = draw(st.sampled_from(pool)) if pool else C
    elif kind == 2:
        t = hol.App(K, hol.Var("w", B))
    elif kind in (3, 4):
        t = hol.App(hol.App(F, _term(draw, depth - 1, pool)), _term(draw, depth - 1, pool))
    elif kind == 5:
        t = hol.App(G, hol.Abs(draw(st.sampled_from(VARS)), _term(draw, depth - 1, pool)))
    else:
        t = hol.App(H, hol.Abs(X_BOOL, _term(draw, depth - 1, pool)))
    pool.append(t)
    return t


def rename_binders(t, perm, env=None):
    """Rebuild ``t`` with every binder ``v`` renamed to ``perm.get(v, v)``
    and its bound occurrences with it; may capture, which the oracle sees."""
    env = env or {}
    if isinstance(t, hol.Var):
        return env.get(t, t)
    if isinstance(t, hol.Const):
        return t
    if isinstance(t, hol.App):
        return hol.App(rename_binders(t.fn, perm, env), rename_binders(t.arg, perm, env))
    new = perm.get(t.var, t.var)
    return hol.Abs(new, rename_binders(t.body, perm, {**env, t.var: new}))


@st.composite
def term_pairs(draw):
    pool: list = []
    a = _term(draw, draw(st.integers(1, 5)), pool)
    how = draw(st.sampled_from(["fresh", "same", "copy", "renamed"]))
    if how == "fresh":
        b = _term(draw, draw(st.integers(1, 5)), pool)
    elif how == "same":
        b = a
    elif how == "copy":
        b = rename_binders(a, {})
    else:
        images = draw(st.permutations(VARS))
        b = rename_binders(a, dict(zip(VARS, images)))
    return a, b


@settings(max_examples=300, deadline=None)
@given(term_pairs())
def test_alpha_equal_matches_term_key(pair):
    a, b = pair
    want = alpha_equal_by_key(a, b)
    assert hol.alpha_equal(a, b) == want
    assert hol.alpha_equal(b, a) == want


def nodes(t):
    """The distinct compound nodes of ``t``."""
    out, stack = {}, [t]
    while stack:
        u = stack.pop()
        if id(u) not in out and isinstance(u, (hol.Abs, hol.App)):
            out[id(u)] = u
            stack += (u.var, u.body) if isinstance(u, hol.Abs) else (u.fn, u.arg)
    return list(out.values())


def assert_keys_match(t):
    assert hol.term_key(t) == term_key_tree(t)
    assert hol.type_key(t.type) == type_key_tree(t.type)


@settings(max_examples=300, deadline=None)
@given(term_pairs(), st.booleans())
def test_kept_keys_match_the_tree_walk(pair, top_first):
    """Every node of ``a`` is keyed at the top and under binders that bind
    its free variables, in either order (``b`` is a fresh copy to key in
    the other), and one node under two different binders.  A node and its
    fresh copy, alpha-equal, have one key object."""
    a, b = pair
    fresh = rename_binders(a, {})
    for t in (a, fresh) if top_first else (fresh, a):
        for u in nodes(t):
            assert_keys_match(u)
            copy = rename_binders(u, {})
            assert hol.term_key(u) is hol.term_key(copy)
            assert hol.type_key(u.type) is hol.type_key(copy.type)
            for v in sorted(hol.free_vars(u), key=term_key_tree):
                assert_keys_match(hol.Abs(v, u))
            x, y = VARS[0], VARS[1]
            if u.type == A:
                assert_keys_match(hol.App(hol.App(F, hol.App(G, hol.Abs(x, u))), hol.App(G, hol.Abs(y, u))))
            assert_keys_match(hol.Abs(x, hol.Abs(y, u)))
            assert_keys_match(hol.Abs(y, hol.Abs(x, u)))
    assert_keys_match(b)


@settings(max_examples=200, deadline=None)
@given(st.lists(term_pairs(), min_size=1, max_size=4))
def test_hypothesis_order_matches_the_tree_walk_key(pairs):
    """``make_sequent`` keeps the first of each alpha-class and orders the
    classes by key, as with the tree-walk key."""
    hyps = []
    for a, b in pairs:
        hyps += [hol.mk_eq(a, b), hol.mk_eq(b, a), hol.mk_eq(a, rename_binders(a, {}))]
    got = hol.make_sequent(hyps, hyps[0]).hyps
    want = make_sequent_hyps_tree(hyps)
    assert len(got) == len(want) and all(g is w for g, w in zip(got, want))


@settings(max_examples=100, deadline=None)
@given(term_pairs())
def test_free_vars_and_tyvars_match_tree_walks(pair):
    for t in pair:
        assert hol.free_vars(t) == free_vars_tree(t)
        assert hol.term_tyvars(t) == term_tyvars_tree(t)


def test_shared_var_under_differing_binders_is_not_identity():
    # the same x object is bound by the outer binder on one side and by the
    # inner one on the other
    x, y = VARS[0], VARS[1]
    left = hol.Abs(x, hol.Abs(y, x))
    right = hol.Abs(y, hol.Abs(x, x))
    assert not hol.alpha_equal(left, right)
    assert hol.alpha_equal(left, hol.Abs(y, hol.Abs(x, y)))
    # one shared body object under swapped binders
    body = hol.App(hol.App(F, x), y)
    assert not hol.alpha_equal(hol.Abs(x, hol.Abs(y, body)), hol.Abs(y, hol.Abs(x, body)))
    # a shared body under the same binders is equal at once
    assert hol.alpha_equal(hol.Abs(x, hol.Abs(y, body)), hol.Abs(x, hol.Abs(y, body)))


# ---------------------------------------------------------------------------
# Work counted on Refl(t_k)

SRC = Path(tr.__file__).parent
FRONT = {str(SRC / f) for f in ("hol.py", "opentheory.py", "translate.py")}


def dag(k, leaf):
    """``t_k``: ``t_0 = leaf`` and ``t_(j+1) = (t_j = t_j)``."""
    t = leaf
    for _ in range(k):
        t = hol.mk_eq(t, t)
    return t


def calls(run, files=FRONT):
    """Python function calls made by ``run()`` in ``files``, by function name."""
    counts: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in files:
            counts[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def stage_calls(k, leaf):
    """Calls made by VM replay and by translation of the ``Refl(t_k)``
    article, and by sharing its translation."""
    p = hol.Refl(dag(k, leaf))
    article = ot.serialize_article(ot.VMState(theorems=[(p.sequent, p)]))
    box = {}
    replay = calls(lambda: box.setdefault("state", ot.run_text(article)))
    translation = calls(lambda: box.setdefault("doc", tr.translate_state(box["state"], "m", sharing=False).document))
    sharing = calls(lambda: tr.share_document(box["doc"]), FRONT | {kernel.__file__})
    return replay, translation, sharing


LEAVES = {"constant": hol.Const("c", hol.BOOL), "variable": hol.Var("x", hol.BOOL)}


def test_front_half_work_grows_with_depth_not_tree_size():
    for leaf_kind, leaf in LEAVES.items():
        small = stage_calls(8, leaf)
        large = stage_calls(9, leaf)
        for stage, n, m in zip(("replay", "translation"), small, large):
            ratio = sum(m.values()) / sum(n.values())
            assert ratio <= 1.3, (leaf_kind, stage, ratio)
        replay, translation, _ = large
        assert replay["term_key"] > 0  # the thm command keyed its sequent
        assert 0 < translation["trans_term"] <= 1.3 * small[1]["trans_term"], leaf_kind
        for name in ("free_vars", "term_tyvars"):
            n, m = small[0][name] + small[1][name], replay[name] + translation[name]
            assert 0 < m <= 1.3 * n, (leaf_kind, name)
    # a closed DAG keeps its sharing in the kernel terms, so hoisting it
    # compares nodes by identity
    small, large = stage_calls(8, LEAVES["constant"])[2], stage_calls(9, LEAVES["constant"])[2]
    assert sum(large.values()) <= 1.3 * sum(small.values())


def assume_calls(k):
    """Calls made by VM replay and by translation of the ``Assume(t_k)``
    article (``t_0`` a constant), after one untimed run of both."""
    p = hol.Assume(dag(k, LEAVES["constant"]))
    article = ot.serialize_article(ot.VMState(theorems=[(p.sequent, p)]))
    tr.translate_state(ot.run_text(article), "m", sharing=False)
    box = {}
    replay = calls(lambda: box.setdefault("state", ot.run_text(article)))
    translation = calls(lambda: tr.translate_state(box["state"], "m", sharing=False))
    return replay, translation


def test_hypothesis_work_grows_with_depth_not_tree_size():
    """Every hypothesis is keyed (``make_sequent``, ``Sequent.alpha_eq``,
    ``TranslationEnv.hyp_name``); each node keeps its key, so the Python
    calls grow with ``k``.  When ``term_key`` walked the tree, replay made
    22,165 and 42,845 calls at k = 8 and 9.  A key is interned by the ids
    of its sub-keys and compared by identity, so no key tuple is hashed or
    compared as a tree either."""
    small, large = assume_calls(8), assume_calls(9)
    for stage, n, m in zip(("replay", "translation"), small, large):
        assert sum(m.values()) <= 1.3 * sum(n.values()), (stage, sum(n.values()), sum(m.values()))
    assert large[0]["term_key"] > 0 and large[1]["hyp_name"] > 0


def test_closed_dag_hoists_one_definition_per_level():
    """``t_(k+1) = eq bool t_k t_k``: each ``t_k`` of at least 8 nodes is
    one definition, and no partial application ``eq bool t_k`` is."""
    counts = []
    for k in (8, 9, 10, 11):
        p = hol.Refl(dag(k, LEAVES["constant"]))
        doc = tr.translate_state(ot.run_text(ot.serialize_article(ot.VMState(theorems=[(p.sequent, p)]))), "m").document
        hoisted = [it for it in doc.items if isinstance(it, kernel.Defn) and it.name.startswith("s")]
        assert all(kernel.spine(d.body)[1][1:] == [kernel.Const(prev.name)] * 2 for prev, d in zip(hoisted, hoisted[1:]))
        counts.append(len(hoisted))
    assert counts == [k - 1 for k in (8, 9, 10, 11)]


def test_alpha_walk_is_linear_on_separately_built_dags():
    x = VARS[0]
    for leaf in (C, x):
        walks = []
        for k in (10, 11):
            # two DAGs with no node in common, bare and under one binder
            pairs = [(dag(k, leaf), dag(k, leaf)), (hol.Abs(x, dag(k, leaf)), hol.Abs(x, dag(k, leaf)))]
            walks.append(sum(calls(lambda: all(hol.alpha_equal(a, b) for a, b in pairs)).values()))
        assert walks[1] <= 1.3 * walks[0], walks


def test_translation_keeps_the_hol_sharing():
    for leaf in LEAVES.values():
        env = tr.TranslationEnv()
        tr.declare_constant(env, "c", hol.BOOL)
        out = tr.trans_term(env, dag(7, leaf))
        assert isinstance(out, kernel.App) and isinstance(out.fn, kernel.App)
        assert out.fn.arg is out.arg


def module_cost(p):
    """Kernel fuel (the base signature's check included) and ``.dk`` bytes
    of the module exporting ``p``, replayed from its article and translated
    without sharing."""
    state = ot.run_text(ot.serialize_article(ot.VMState(theorems=[(p.sequent, p)])))
    doc = tr.translate_state(state, "m", sharing=False).document
    fuel = kernel.Fuel()
    tr.verify_document(doc, fuel=fuel)
    return kernel.DEFAULT_FUEL - fuel.left, len(dkfile.emit(doc).encode())


def test_collapsing_a_conversion_over_a_dag_grows_with_depth():
    """``AppThm(Refl(\\x:bool. x), Refl(t_k))`` is one reflexivity step at
    its right side, the redex ``(\\x. x) t_k``.  Translating it once
    normalized that redex by walking the tree, 4 times the time per two
    levels; the kernel settles it lazily, in 2 fuel at k = 8 and 9 besides
    the base signature's check."""
    x = hol.Var("x", hol.BOOL)
    for leaf in LEAVES.values():
        work, fuel = [], []
        for k in (8, 9):
            t = dag(k, leaf)
            p = hol.AppThm(hol.Refl(hol.Abs(x, x)), hol.Refl(t))
            env = tr.TranslationEnv()
            tr.declare_constant(env, "c", hol.BOOL)
            box = {}
            work.append(sum(calls(lambda: box.update(term=tr.trans_proof(env, p))).values()))
            rhs = tr.trans_term(env, hol.App(hol.Abs(x, x), t))
            assert box["term"] == kernel.app(kernel.Const("Refl"), kernel.Const("bool"), rhs)
            fuel.append(module_cost(p)[0])
        assert work[1] <= 1.3 * work[0], work
        assert fuel[1] <= 1.3 * fuel[0], fuel


def binder_nest(n, leaf):
    """``\\x0 ... \\x(n-1). leaf = leaf``."""
    t = hol.mk_eq(leaf, leaf)
    for i in range(n):
        t = hol.Abs(hol.Var(f"x{i}", hol.BOOL), t)
    return t


def test_substitution_under_nested_binders_grows_with_depth():
    """``apply_subst`` asks each binder's body for its free variables; when
    each asking walked the body, substituting under n binders made 43,815
    and 167,613 calls at n = 200 and 400."""
    y, z = hol.Var("y", hol.BOOL), hol.Var("z", hol.BOOL)
    s = hol.HolSubst(sigma=((y, z),))
    work = []
    for n in (200, 400):
        t = binder_nest(n, y)
        box = {}
        work.append(sum(calls(lambda: box.update(out=hol.apply_subst(s, t))).values()))
        assert box["out"] == binder_nest(n, z)
    assert work[1] <= 2.2 * work[0], work


def typed_nest(n, ty):
    """``\\x0 ... \\x(n-1). g x0 (g x1 (... (g x(n-1) f)))``, each ``xi : ty``."""
    g = hol.Var("g", hol.fn(ty, hol.fn(hol.BOOL, hol.BOOL)))
    t = hol.Var("f", hol.BOOL)
    for i in reversed(range(n)):
        t = hol.App(hol.App(g, hol.Var(f"x{i}", ty)), t)
    for i in reversed(range(n)):
        t = hol.Abs(hol.Var(f"x{i}", ty), t)
    return t


def test_type_instantiation_under_nested_binders_grows_with_depth():
    """Under a type part alone, a binder asks for its body's free variables
    only where another variable shares its image: each of those sets is
    O(n) here, and asking at every binder took 0.019, 0.066 and 0.226 s at
    n = 500, 1000 and 2000, against 0.009, 0.019 and 0.035 s (in-process,
    one machine).  That cost is in the sets, not in calls: the calls
    counted here guard the walk itself, one visit per node."""
    s = hol.HolSubst(theta=(("A", hol.TyVar("B")),))
    work = []
    for n in (200, 400):
        t = typed_nest(n, A)
        box = {}
        work.append(sum(calls(lambda: box.update(out=hol.apply_subst(s, t))).values()))
        assert box["out"] == typed_nest(n, hol.TyVar("B"))
    assert work[1] <= 2.2 * work[0], work


def redex_ladder(k):
    """``AppThm(Refl f, Refl r_k)`` with ``f = \\x:bool. x = x``, ``r_0 = y``
    and ``r_(i+1) = f r_i``: the normal form of ``f r_k`` doubles with each
    level, while its sides grow by a constant."""
    x, y = hol.Var("x", hol.BOOL), hol.Var("y", hol.BOOL)
    f = hol.Abs(x, hol.mk_eq(x, x))
    r = y
    for _ in range(k):
        r = hol.App(f, r)
    return hol.AppThm(hol.Refl(f), hol.Refl(r))


def test_conversion_whose_normal_form_outgrows_its_sides_is_kept(monkeypatch):
    """The conversion is kept as its right side, not its normal form: the
    module is no larger, and checks in no more fuel, than with each node
    translated by its own rule, and the translation's work grows with the
    depth.  Collapsing the tower to its normal form, with no size guard,
    took 0.24, 3.7 and 70.6 s at k = 8, 10 and 12."""

    def module(k):
        p = redex_ladder(k)
        state = ot.VMState(theorems=[(p.sequent, p)])
        box = {}
        n = sum(calls(lambda: box.update(doc=tr.translate_state(state, "m").document)).values())
        fuel = kernel.Fuel()
        tr.verify_document(box["doc"], fuel=fuel)
        return n, len(dkfile.emit(box["doc"])), fuel.left

    work = []
    for k in (8, 9, 10):
        n, size, left = module(k)
        with rule_by_rule(monkeypatch):
            _, tower_size, tower_left = module(k)
        assert size <= tower_size and left >= tower_left, k
        work.append(n)
    assert work[1] <= 1.3 * work[0] and work[2] <= 1.3 * work[1], work


def beta_tower(k):
    """``AppThm(Refl f, ·)`` applied ``k`` times over ``Beta(y, y)``, with
    ``f = \\x:bool. x = x``: the sides grow by a constant per level, and
    the right side's normal form doubles."""
    x, y = hol.Var("x", hol.BOOL), hol.Var("y", hol.BOOL)
    f = hol.Abs(x, hol.mk_eq(x, x))
    p = hol.Beta(y, y)
    for _ in range(k):
        p = hol.AppThm(hol.Refl(f), p)
    return p


def test_conversion_over_a_beta_tower_checks_in_fuel_growing_with_depth():
    """One reflexivity step at the right side leaves the whole beta-equality
    to one lazy conversion in the kernel; it costs no more per level than
    the tower's own steps.  Besides the base signature's check, fuel 19
    and 21, and 980 and 1,079 bytes, at k = 8 and 9; normal forms under a
    size guard, which kept the tower, gave fuel 11 and 11, and 3,020 and
    3,782 bytes."""
    (fuel8, bytes8), (fuel9, bytes9) = module_cost(beta_tower(8)), module_cost(beta_tower(9))
    assert fuel9 <= 1.3 * fuel8, (fuel8, fuel9)
    assert bytes9 <= 1.3 * bytes8, (bytes8, bytes9)


def prove_hyp_chain(k):
    """``p_0 = HolGen(0).proof(3)`` and ``p_(i+1) = proveHyp(p_i, Assume(c))``,
    ``c`` the conclusion of ``p_0``: each level uses the one below twice,
    as ``EqMp(DeductAntiSym(p_i, Assume c), p_i)``."""
    p = HolGen(0).proof(3)
    for _ in range(k):
        p = ot.prove_hyp_proof(p, hol.Assume(p.sequent.concl))
    return p


def test_prove_hyp_chain_prints_each_level_once():
    """``proveHyp`` translates to one redex, the proof of ``psi`` from
    ``phi`` applied to the proof of ``phi``, which the article's second use
    of ``p_i`` is.  Printed as ``EqMp`` over ``PropExt``, each level printed
    ``p_i`` twice: 76,658 and 153,298 bytes at k = 8 and 9; as redexes, 721
    and 762; now 680 and 721: the top level, whose ``b`` is the one
    derivation of the chain reached by one path, prints as its reduct."""
    sizes, work, fuel = [], [], []
    for k in (8, 9):
        p = prove_hyp_chain(k)
        state = ot.run_text(ot.serialize_article(ot.VMState(theorems=[(p.sequent, p)])))
        box = {}
        work.append(calls(lambda: box.update(doc=tr.translate_state(state, "m", sharing=False).document))["trans_proof"])
        sizes.append(len(dkfile.emit(box["doc"]).encode()))
        left = kernel.Fuel()
        tr.verify_document(box["doc"], fuel=left)
        fuel.append(kernel.DEFAULT_FUEL - left.left)
    assert sizes[1] <= 1.3 * sizes[0], sizes
    assert 0 < work[1] <= 1.3 * work[0], work
    assert fuel[1] == fuel[0], fuel


# ---------------------------------------------------------------------------
# Work counted in the term printer

PRINTER = {dkfile.__file__, kernel.__file__}


def dependent_chain(n):
    """``x0 : A -> ... -> x(n-1) : A -> P x0``: each body mentions the
    outermost binder, so asking "is this product dependent" by walking its
    body would walk the rest of the chain."""
    body = kernel.App(kernel.Const("P"), kernel.BVar(n - 1))
    for i in reversed(range(n)):
        body = kernel.Prod(f"x{i}", kernel.Const("A"), body)
    return body


def test_dependent_product_chain_prints_in_linear_calls():
    counts = []
    for n in (1000, 2000):
        t = dependent_chain(n)
        counts.append(sum(calls(lambda: dkfile.fmt_term(t), PRINTER).values()))
    assert counts[1] <= 2.2 * counts[0], counts


def deep_error(n):
    """What checking ``def d : A := (f (f ... a)) a``, with ``f`` nested
    ``n`` deep, raises: the head is applied to one argument too many."""
    a, f, ty = kernel.Const("a"), kernel.Const("f"), kernel.Const("A")
    head = a
    for _ in range(n):
        head = kernel.App(f, head)
    sig = kernel.Signature([
        kernel.ConstDecl("A", kernel.TYPE),
        kernel.ConstDecl("a", ty),
        kernel.ConstDecl("f", kernel.arrow(ty, ty)),
        kernel.Defn("d", ty, kernel.App(head, a)),
    ])
    try:
        kernel.check_signature(sig)
    except kernel.IllTypedDeclaration as e:
        assert isinstance(e.__cause__, kernel.NotAFunction)
        return e
    raise AssertionError("the definition checked")


def test_kernel_error_renders_in_calls_independent_of_term_size():
    errors = [deep_error(n) for n in (10_000, 20_000)]
    counts = [sum(calls(lambda: str(e), PRINTER).values()) for e in errors]
    assert counts[0] == counts[1], counts
    text = str(errors[1])
    assert len(text) < 1024
    assert text.startswith("definition d: application head has no product type: f (f (f ")
    assert text.endswith(" : A")


def dag_type(k):
    """``T_k``: ``T_0 = bool`` and ``T_(k+1) = T_k -> T_k``, ``k + 1`` nodes
    and a tree of ``2^(k+1) - 1``."""
    t = hol.BOOL
    for _ in range(k):
        t = hol.fn(t, t)
    return t


def type_error_messages(k):
    """Each failure whose message names ``T_k``, with the calls it made."""
    big = dag_type(k)
    x, v = hol.Var("x", hol.BOOL), hol.Var("v", big)
    state = ot.VMState()
    state.constants["c"] = hol.BOOL
    failures = [
        lambda: hol.App(hol.Var("f", hol.fn(big, hol.BOOL)), x),  # argument has type ...
        lambda: hol.App(hol.Var("g", hol.TyOp("list", (big,))), x),  # not a function type
        lambda: hol.Assume(v),  # not a proposition
        lambda: hol.dest_eq(v),  # not an equality
        lambda: ot._auto_const(state, "c", big, "constTerm"),  # not an instance
        lambda: tr._instance_args(None, hol.BOOL, (), big),
        lambda: tr.trans_prop_type(None, v),
    ]
    out = []
    for fail in failures:
        box = []

        def run():
            try:
                fail()
            except (hol.HolError, ot.ArticleError, tr.TranslateError) as e:
                box.append(str(e))

        n = sum(calls(run).values())
        (text,) = box
        out.append((n, text))
    return out


def test_type_in_a_message_prints_bounded():
    """A type shared through the article dictionary printed as a tree:
    12.6 MB for one message at k = 18."""
    small, large = type_error_messages(14), type_error_messages(18)
    assert [n for n, _ in small] == [n for n, _ in large]
    for _, text in large:
        assert len(text) < dkfile.MESSAGE_WIDTH and "TyOp(op='->', args=(TyOp(op='->', args=(" in text, text
    assert large[0][1].startswith("argument has type TyOp(op='bool', args=()), function expects TyOp(op='->'")
