"""Lazy conversion against the reference normalize-and-compare, and its work counts.

``reference_typing.convertible`` normalizes both sides fully and compares
the normal forms.  The kernel compares weak-head normal forms and recurses,
so it must give the same answer wherever the oracle finishes, and its fuel
must grow linearly on nested definitions that the oracle unfolds
exponentially.  All counts are fuel, never wall-clock time.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_typing as ref
from conftest import HolGen, env_signature, make_env, random_kernel_term, replace_at, subterms
from holtrans import dkfile
from holtrans import kernel as k
from holtrans import translate as tr

BOOL, EQ, REFL, PROOF = k.Const("bool"), k.Const("eq"), k.Const("Refl"), k.Const("proof")
TERM_BOOL = k.App(k.Const("term"), BOOL)
ORACLE_FUEL = 100_000


def _eq(x, y):
    return k.app(EQ, BOOL, x, y)


def _chain(name, depth):
    """``name0 := c`` and ``name(i+1) := eq bool name(i) name(i)``: tree size ``2^depth``."""
    items = [k.Defn(f"{name}0", TERM_BOOL, k.Const("c"))]
    for i in range(depth):
        s = k.Const(f"{name}{i}")
        items.append(k.Defn(f"{name}{i + 1}", TERM_BOOL, _eq(s, s)))
    return items


def _nested(depth, two_sided=False, statement=None):
    """The base signature, ``c : term bool``, the chain(s), and a theorem.

    One-sided: ``Refl bool s(d) : proof (eq bool (eq bool s(d-1) s(d-1)) s(d))``,
    where ``s(d)`` is written once unfolded.  Two-sided: ``Refl bool s(d) :
    proof (eq bool t(d) s(d))`` for a second, identical chain ``t``.
    """
    items = [*tr.base_signature("q0").items, k.ConstDecl("c", TERM_BOOL), *_chain("s", depth)]
    s, prev = k.Const(f"s{depth}"), k.Const(f"s{depth - 1}")
    if two_sided:
        items += _chain("t", depth)
        lhs = k.Const(f"t{depth}")
    else:
        lhs = _eq(prev, prev)
    if statement is None:
        statement = k.App(PROOF, _eq(lhs, s))
    items.append(k.Defn("thm", statement, k.app(REFL, BOOL, s)))
    return k.Signature(items)


def _fuel_spent(check, sig, budget=k.DEFAULT_FUEL):
    fuel = k.Fuel(budget)
    check(sig, fuel)
    return budget - fuel.left


@pytest.mark.parametrize("two_sided", [False, True])
def test_nested_definitions_check_in_linear_fuel(two_sided):
    # a budget, so that exponential work fails fast instead of running on
    spent = {d: _fuel_spent(k.check_signature, _nested(d, two_sided), 10_000) for d in (20, 30, 40)}
    assert spent[30] <= 1000
    assert spent[40] / spent[20] <= 2.2


@pytest.mark.parametrize("two_sided", [False, True])
def test_nested_definitions_cost_the_oracle_four_times_per_two_levels(two_sided):
    """The adversary is a real one: normalizing both sides doubles the work per level."""
    spent = {d: _fuel_spent(ref.check_signature, _nested(d, two_sided)) for d in (8, 10)}
    assert spent[10] / spent[8] >= 3.5


def test_nested_definitions_reject_a_wrong_statement_cheaply():
    """``Refl bool s(d)`` stated as ``s(d) = s(d-1)``: the comparison fails
    at the bottom of the chains, after one unfold per level."""
    d = 30
    wrong = k.App(PROOF, _eq(k.Const(f"s{d}"), k.Const(f"s{d - 1}")))
    fuel = k.Fuel(1000)
    with pytest.raises(k.IllTypedDeclaration, match="definition thm"):
        k.check_signature(_nested(d, statement=wrong), fuel)


def test_domain_mismatch_is_cheap_and_short():
    """``g : proof s(d) -> term bool`` applied to ``Refl bool s(d-2)``: the
    message prints the types as inferred, not their normal forms (``2^d``)."""
    d = 30
    items = [
        *tr.base_signature("q0").items,
        k.ConstDecl("c", TERM_BOOL),
        *_chain("s", d),
        k.ConstDecl("g", k.arrow(k.App(PROOF, k.Const(f"s{d}")), TERM_BOOL)),
        k.Defn("bad", TERM_BOOL, k.App(k.Const("g"), k.app(REFL, BOOL, k.Const(f"s{d - 2}")))),
    ]
    fuel = k.Fuel(1000)
    with pytest.raises(k.IllTypedDeclaration, match="argument type mismatch") as exc:
        k.check_signature(k.Signature(items), fuel)
    assert len(str(exc.value)) < 1024
    assert f"expected proof s{d}, got proof (eq bool s{d - 2} s{d - 2})" in str(exc.value)


def test_spines_need_equal_heads_and_arities(q0):
    f, x, y = k.Var("f"), k.Var("x"), k.Var("y")
    assert not k.convertible(q0, k.App(f, x), k.app(f, x, y))
    assert not k.convertible(q0, k.app(f, x, y), k.App(f, x))
    assert not k.convertible(q0, k.App(f, x), k.App(k.Var("g"), x))
    assert k.convertible(q0, k.App(k.Abs("z", BOOL, k.App(f, k.BVar(0))), x), k.App(f, x))


# ---------------------------------------------------------------------------
# Divergence


def _looping():
    """``w --> w``, plus two rigid heads ``f`` and ``g``."""
    A = k.Const("A")
    return k.Signature(
        [
            k.ConstDecl("A", k.TYPE),
            k.ConstDecl("c", A),
            k.ConstDecl("w", A),
            k.RewriteRule((), k.Const("w"), k.Const("w")),
            k.ConstDecl("f", k.arrow(A, A)),
            k.ConstDecl("g", k.arrow(A, A)),
        ]
    )


@pytest.mark.parametrize(
    "a, b",
    [
        (k.Const("w"), k.Const("c")),
        (k.Const("c"), k.Const("w")),
        (k.App(k.Const("f"), k.Const("w")), k.App(k.Const("f"), k.Const("c"))),
        (k.Abs("x", k.Const("A"), k.Const("w")), k.Abs("x", k.Const("A"), k.BVar(0))),
    ],
)
def test_looping_head_exhausts_fuel(a, b):
    sig = _looping()
    for convertible in (k.convertible, ref.convertible):
        with pytest.raises(k.FuelExhausted):
            convertible(sig, a, b, 50)


def test_divergent_argument_under_differing_rigid_heads_is_not_convertible():
    """The one intended difference from the oracle: ``f w`` and ``g w``
    differ at their heads, so the diverging argument is never reduced."""
    sig = _looping()
    a, b = k.App(k.Const("f"), k.Const("w")), k.App(k.Const("g"), k.Const("w"))
    assert not k.convertible(sig, a, b, 50)
    with pytest.raises(k.FuelExhausted):
        ref.convertible(sig, a, b, 50)


# ---------------------------------------------------------------------------
# Differential test against the oracle


def _mutants(t, rng):
    """Swapped arguments, a dropped argument and a replaced binder domain,
    where ``t`` has them.

    A subterm moved to another binder depth can leave an index dangling;
    such mutants are dropped, because conversion is defined on locally
    closed terms only (the oracle's ``close`` would capture the index).
    """
    subs = subterms(t)
    apps = [i for i, u in enumerate(subs) if isinstance(u, k.App)]
    binders = [i for i, u in enumerate(subs) if isinstance(u, (k.Abs, k.Prod))]
    out = []
    if len(apps) >= 2:
        i, j = rng.sample(apps, 2)
        out.append(replace_at(t, i, k.App(subs[i].fn, subs[j].arg)))
        out.append(replace_at(t, i, k.App(subs[i].arg, subs[i].fn)))
        out.append(replace_at(t, i, subs[i].fn))
    if binders:
        i = rng.choice(binders)
        u = subs[i]
        domain = rng.choice([subs[b].domain for b in binders] + [k.TYPE, tr._T, TERM_BOOL])
        second = u.body
        out.append(replace_at(t, i, type(u)(u.hint, domain, second)))
    return [m for m in out if m.bound == 0]


def _agree(sig, a, b):
    try:
        want = ref.convertible(sig, a, b, ORACLE_FUEL)
    except k.FuelExhausted:
        return
    assert k.convertible(sig, a, b, ORACLE_FUEL * 10) == want
    assert k.convertible(sig, b, a, ORACLE_FUEL * 10) == want


@pytest.mark.parametrize("mode", ["q0", "pts"])
@settings(max_examples=20, deadline=None)
@given(st.integers(0, 100_000))
def test_conversion_matches_oracle_on_theorems(mode, seed):
    """Statements against inferred types, against their mutants, and
    against the same statements after sharing hoisted their subterms."""
    rng = random.Random(seed)
    env = make_env()
    ty, body = tr.closed_theorem(env, HolGen(seed).proof(3))
    sig = env_signature(env, mode)
    inferred = k.infer_type(sig, {}, body)
    assert k.convertible(sig, inferred, ty) and ref.convertible(sig, inferred, ty)
    for bad in _mutants(ty, rng) + _mutants(inferred, rng):
        _agree(sig, inferred, bad)
        _agree(sig, ty, bad)

    doc = dkfile.DkDocument("m", (*env.decls, k.Defn("thm", ty, body)))
    shared = tr.share_document(doc, tr.base_signature(mode), min_size=4).document
    shared_sig = k.Signature(tuple(tr.base_signature(mode).items) + dkfile.signature_items(shared))
    shared_ty = next(it.type for it in shared.items if getattr(it, "name", None) == "thm")
    _agree(shared_sig, shared_ty, ty)
    _agree(shared_sig, shared_ty, inferred)
    for bad in _mutants(ty, rng):
        _agree(shared_sig, shared_ty, bad)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_conversion_matches_oracle_on_random_terms(seed_a, seed_b):
    rng = random.Random(seed_a * 10_007 + seed_b)
    env = make_env()
    a, _ = random_kernel_term(seed_a, env)
    b, _ = random_kernel_term(seed_b, env)
    sig = env_signature(env)
    _agree(sig, a, b)
    _agree(sig, a, ref.normalize(sig, a))
    for bad in _mutants(a, rng):
        _agree(sig, a, bad)
        _agree(sig, ref.normalize(sig, a), bad)
