"""The kernel's type inference against the reference rules, and its work counts.

``reference_typing`` keeps the earlier rules (the abstraction rule re-infers
the sort of the whole product at every level; binders get fresh names from
a scan of the body).  Verdicts must agree on translated theorems, on
mutated ones and on the corpus; the kernel's work must grow linearly.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_typing as ref
from conftest import HolGen, count_calls, env_signature, make_env, replace_at, subterms
from holtrans import dkfile, dkreader
from holtrans import kernel as k
from holtrans import opentheory as ot
from holtrans import translate as tr

FUEL = 10**6


def _outcome(infer, sig, t):
    """The inferred type, or the class of the error raised."""
    try:
        return infer(sig, {}, t, FUEL)
    except k.KernelError as e:
        return type(e)


def _mutants(t, rng):
    """A swapped argument and a replaced binder domain, where ``t`` has them."""
    subs = subterms(t)
    apps = [i for i, u in enumerate(subs) if isinstance(u, k.App)]
    binders = [i for i, u in enumerate(subs) if isinstance(u, k.Abs)]
    out = []
    if len(apps) >= 2:
        i, j = rng.sample(apps, 2)
        out.append(replace_at(t, i, k.App(subs[i].fn, subs[j].arg)))
    if binders:
        i = rng.choice(binders)
        domains = [subs[b].domain for b in binders] + [k.TYPE, tr._T]
        u = subs[i]
        out.append(replace_at(t, i, k.Abs(u.hint, rng.choice(domains), u.body)))
    return out


@pytest.mark.parametrize("mode", ["q0", "pts"])
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000))
def test_infer_type_matches_reference_on_theorems(mode, seed):
    env = make_env()
    ty, body = tr.closed_theorem(env, HolGen(seed).proof(3))
    sig = env_signature(env, mode)
    got = _outcome(k.infer_type, sig, body)
    assert isinstance(got, k.Term)
    assert got == _outcome(ref.infer_type, sig, body)
    assert k.convertible(sig, got, ty)
    assert _outcome(k.infer_type, sig, ty) == _outcome(ref.infer_type, sig, ty) == k.TYPE
    for bad in _mutants(body, random.Random(seed)):
        assert _outcome(k.infer_type, sig, bad) == _outcome(ref.infer_type, sig, bad)


def _verdict(check, sig):
    try:
        check(sig, FUEL * 10)
        return None
    except k.KernelError as e:
        return type(e)


@pytest.mark.parametrize("mode", ["q0", "pts"])
def test_check_signature_matches_reference_on_corpus(mode, corpus_paths):
    for path in corpus_paths:
        state = ot.run_text(path.read_bytes())
        doc = tr.translate_state(state, path.stem, mode=mode).document
        items = tuple(tr.base_signature(mode).items) + dkfile.signature_items(doc)
        assert _verdict(k.check_signature, k.Signature(items)) is None, path.name
        assert _verdict(ref.check_signature, k.Signature(items)) is None, path.name
        # the last theorem stated as the first one's statement, or as Type
        thms = [i for i, it in enumerate(items) if isinstance(it, k.Defn) and it.name.startswith("thm_")]
        last = items[thms[-1]]
        for ty in {items[thms[0]].type, k.TYPE} - {last.type}:
            bad = list(items)
            bad[thms[-1]] = k.Defn(last.name, ty, last.body)
            assert _verdict(k.check_signature, k.Signature(bad)) is k.IllTypedDeclaration, path.name
            assert _verdict(ref.check_signature, k.Signature(bad)) is k.IllTypedDeclaration, path.name


def _lambda_chain(n):
    """``x1 : A => ... => xn : A => x1``."""
    return k.bind(k.Abs, [(f"x{i}", f"x{i}", k.Const("A")) for i in range(1, n + 1)], k.Var("x1"))


def test_abstraction_chain_inference_grows_linearly(monkeypatch):
    sig = k.Signature([k.ConstDecl("A", k.TYPE)])
    kernel_calls, reference_calls = {}, {}
    for n in (20, 40):
        t = _lambda_chain(n)
        want = k.arrow(*[k.Const("A")] * (n + 1))
        assert k.infer_type(sig, {}, t) == want
        kernel_calls[n] = count_calls(monkeypatch, k, "_infer", lambda: k.infer_type(sig, {}, t))
        reference_calls[n] = count_calls(monkeypatch, ref, "infer", lambda: ref.infer_type(sig, {}, t))
    assert reference_calls == {20: 21**2, 40: 41**2}
    assert kernel_calls[40] / kernel_calls[20] <= 2.2


_NEST_SIG = k.Signature([
    k.ConstDecl("A", k.TYPE),
    k.ConstDecl("c", k.arrow(k.arrow(k.Const("A"), k.Const("A")), k.Const("A"))),
    k.ConstDecl("P", k.arrow(k.TYPE, k.TYPE)),
])


def _nested(cls, n):
    """``c (x1 : A => c (x2 : A => ... c (xn : A => xn)))`` for ``Abs``,
    ``P (x1 : A -> P (x2 : A -> ... P (xn : A -> A)))`` for ``Prod``: every
    binder is a chain of its own, separated from the next by an application."""
    head, t = (k.Const("c"), k.BVar(0)) if cls is k.Abs else (k.Const("P"), k.Const("A"))
    for i in range(n, 0, -1):
        t = k.App(head, cls(f"x{i}", k.Const("A"), t))
    return t


def test_one_context_per_call(monkeypatch):
    """A call hands one dict to every ``_infer``, however many chains it
    opens, and the caller's mapping is the same after it, on success and
    on failure alike."""
    seen = []
    inner = k._infer

    def recording(sig, ctx, t, fuel):
        seen.append(ctx)
        return inner(sig, ctx, t, fuel)

    monkeypatch.setattr(k, "_infer", recording)
    caller = {"a": k.Const("A")}
    for cls, want in ((k.Abs, k.Const("A")), (k.Prod, k.TYPE)):
        seen.clear()
        assert k.infer_type(_NEST_SIG, caller, _nested(cls, 50)) == want
        assert len(seen) > 100 and all(ctx is seen[0] for ctx in seen)
        assert seen[0] is not caller and seen[0] == caller
    # ``P a`` fails (``a : A`` is not a type) under two open chains
    c, A = k.Const("c"), k.Const("A")
    ill_typed = k.App(c, k.Abs("y", A, k.App(c, k.Abs("x", A, k.App(k.Const("P"), k.Var("a"))))))
    with pytest.raises(k.DomainMismatch):
        k.infer_type(_NEST_SIG, caller, ill_typed)
    assert caller == {"a": k.Const("A")}


@pytest.mark.parametrize("cls", [k.Abs, k.Prod])
def test_nested_chains_infer_linearly(monkeypatch, cls):
    """Chains nested under applications: the ``_infer`` calls grow
    linearly with the depth, and the result agrees with the reference."""
    calls = {}
    for n in (500, 1000, 2000):
        t = _nested(cls, n)
        calls[n] = count_calls(monkeypatch, k, "_infer", lambda: k.infer_type(_NEST_SIG, {}, t))
    assert calls[1000] / calls[500] <= 2.2
    assert calls[2000] / calls[1000] <= 2.2
    small = _nested(cls, 30)
    assert _outcome(k.infer_type, _NEST_SIG, small) == _outcome(ref.infer_type, _NEST_SIG, small)


_CHAIN_SIG = k.Signature([
    k.ConstDecl("A", k.TYPE),
    k.ConstDecl("P", k.arrow(k.Const("A"), k.TYPE)),
    k.ConstDecl("a", k.Const("A")),
])


@st.composite
def _chains(draw):
    """Binder chains over ``_CHAIN_SIG``, well- and ill-typed: domains and
    bodies mix types, kinds, terms and references to earlier binders."""
    n = draw(st.integers(1, 6))
    binders = []
    for depth in range(n):
        cls = draw(st.sampled_from([k.Prod, k.Prod, k.Prod, k.Abs]))
        atoms = [k.Const("A")] * 4 + [k.App(k.Const("P"), k.Const("a")), k.TYPE, k.Const("a")]
        atoms += [k.App(k.Const("P"), k.BVar(i)) for i in range(depth)]
        binders.append((cls, draw(st.sampled_from(atoms))))
    body_atoms = [k.Const("A")] * 3 + [k.TYPE] * 2 + [k.Const("a"), k.Const("P")]
    body_atoms += [k.BVar(i) for i in range(n)] + [k.App(k.Const("P"), k.BVar(i)) for i in range(n)]
    t = draw(st.sampled_from(body_atoms))
    for i, (cls, domain) in reversed(list(enumerate(binders))):
        t = cls(f"x{i}", domain, t)
    return t


@settings(max_examples=200, deadline=None)
@given(_chains())
def test_binder_chains_match_reference(t):
    """Product and abstraction chains, nested in each other, type as the
    reference's one-binder-at-a-time rules type them."""
    assert _outcome(k.infer_type, _CHAIN_SIG, t) == _outcome(ref.infer_type, _CHAIN_SIG, t)


def test_abstraction_body_type_must_have_a_sort():
    """``c : d`` with ``d : A`` a term, in a signature nobody checked: the
    body's type ``d`` has type ``A``, not a sort, at any binder depth."""
    A = k.Const("A")
    sig = k.Signature([k.ConstDecl("A", k.TYPE), k.ConstDecl("d", A), k.ConstDecl("c", k.Const("d"))])
    for t in (k.Abs("x", A, k.Const("c")), k.Abs("y", A, k.Abs("x", A, k.Const("c")))):
        for infer in (k.infer_type, ref.infer_type):
            with pytest.raises(k.IllegalSort, match="abstraction body type is not well-sorted: d"):
                infer(sig, {}, t)


def test_nested_normalization_does_not_capture_under_binders():
    """Non-linear matching converts arguments that contain binders while
    ``normalize`` is already under a binder with the same hint: the two
    opened variables must stay apart.

    ``F (x => outer x) (x => x)`` must not rewrite by ``F f f --> A``, so
    ``q : x : A -> F ...`` does not convert to ``A -> A``.  With arguments
    that merely convert (``x => (y => y) outer x``) it does.
    """
    A, F, g = k.Const("A"), k.Const("F"), k.Const("g")
    outer = k.Abs("x", A, k.BVar(1))
    base = [
        k.ConstDecl("A", k.TYPE),
        k.ConstDecl("F", k.arrow(k.arrow(A, A), k.arrow(A, A), k.TYPE)),
        k.RewriteRule((("f", k.arrow(A, A)),), k.app(F, k.Var("f"), k.Var("f")), A),
        k.ConstDecl("g", k.arrow(k.arrow(A, A), A)),
    ]

    def with_q(second):
        q_type = k.Prod("x", A, k.app(F, outer, second))
        use = k.Abs("z", A, k.App(g, k.Const("q")))
        return k.Signature([*base, k.ConstDecl("q", q_type), k.Defn("use", k.arrow(A, A), use)])

    identity = k.Abs("x", A, k.BVar(0))
    converting = k.Abs("x", A, k.App(k.Abs("x", A, k.BVar(0)), k.BVar(1)))
    for check in (k.check_signature, ref.check_signature):
        with pytest.raises(k.IllTypedDeclaration, match="definition use"):
            check(with_q(identity))
        check(with_q(converting))


def _decls(n):
    big = k.app(k.Const("term"), k.app(k.Const("arrow"), k.Const("bool"), k.app(k.Const("arrow"), k.Const("bool"), k.Const("bool"))))
    return [k.ConstDecl(f"c{i}", big) for i in range(n)]


def test_signature_prefix_grows_in_place(monkeypatch):
    """Every item enters a signature through ``Signature.add``; checking or
    sharing a document adds each item a bounded number of times."""
    base = tr.base_signature("q0")
    base_items = base.items
    counts = {}
    for n in (500, 1000):
        items = base_items + tuple(_decls(n))
        sig = k.Signature(items)
        checked = count_calls(monkeypatch, k.Signature, "add", lambda: k.check_signature(sig))
        doc = dkfile.DkDocument("m", tuple(_decls(n)))
        shared = count_calls(monkeypatch, k.Signature, "add", lambda: tr.share_document(doc, base))
        assert checked == len(items)
        assert shared <= len(items) + 2
        counts[n] = checked + shared
    assert counts[1000] / counts[500] <= 2.2
    assert base.items == base_items  # the cached base signature is never grown


# ---------------------------------------------------------------------------
# Definitions checked against their statements
#
# The kernel opens a definition body's leading abstractions together with
# its statement's leading products while their domains are equal, and
# infers only the rest; the reference infers the whole body and compares
# normal forms.  The verdicts (the error classes) must agree on theorems,
# and on theorems whose leading binders no longer match their statement.


def _theorems(mode, seed, n=3):
    """The items of a signature that defines ``thm_0`` ... ``thm_(n-1)``,
    generated theorems, and the index of the first of them."""
    env = make_env()
    thms = [tr.closed_theorem(env, HolGen(seed + i).proof(3)) for i in range(n)]
    items = [*tr.base_signature(mode).items, *env.decls]
    return items + [k.Defn(f"thm_{i}", ty, body) for i, (ty, body) in enumerate(thms)], len(items)


def _agreed_verdict(items):
    got = _verdict(k.check_signature, k.Signature(items))
    assert got == _verdict(ref.check_signature, k.Signature(items))
    return got


def _leading(cls, t):
    """``t``'s leading binders of class ``cls``, opened as ``(name, hint,
    domain)`` triples for ``k.bind``, and the opened rest of ``t``."""
    binders, values = [], []
    while type(t) is cls:
        x = f"v{len(binders)}"
        binders.append((x, t.hint, k.open_term(t.domain, *values)))
        values.append(k.Var(x))
        t = t.body
    return binders, k.open_term(t, *values)


@pytest.mark.parametrize("mode", ["q0", "pts"])
@settings(max_examples=15, deadline=None)
@given(st.integers(0, 100_000))
def test_definitions_match_reference_on_theorems(mode, seed):
    items, _ = _theorems(mode, seed)
    assert _agreed_verdict(items) is None


@pytest.mark.parametrize("mode", ["q0", "pts"])
@settings(max_examples=15, deadline=None)
@given(st.integers(0, 100_000), st.data())
def test_definitions_with_mismatched_binders_match_reference(mode, seed, data):
    """A leading binder's domain replaced; one binder too many in the body;
    one too many in the statement, so the body has one too few; one more in
    both, unused, with domains drawn apart."""
    items, first = _theorems(mode, seed, n=1)
    thm = items[first]
    binders, rest = _leading(k.Abs, thm.body)
    statement, claim = _leading(k.Prod, thm.type)
    domains = [d for _, _, d in binders] + [k.TYPE, tr._T, k.App(k.Const("term"), k.Const("bool"))]
    extra = ("z", "z", data.draw(st.sampled_from(domains)))
    other = ("z", "z", data.draw(st.sampled_from(domains)))
    at = data.draw(st.integers(0, min(len(binders), len(statement))))
    cases = [
        (thm.type, k.bind(k.Abs, binders[:at] + [extra] + binders[at:], rest)),
        (k.bind(k.Prod, statement[:at] + [extra] + statement[at:], claim), thm.body),
        (k.bind(k.Prod, statement[:at] + [other] + statement[at:], claim), k.bind(k.Abs, binders[:at] + [extra] + binders[at:], rest)),
    ]
    if binders:
        i = data.draw(st.integers(0, len(binders) - 1))
        mutated = list(binders)
        mutated[i] = (binders[i][0], binders[i][1], data.draw(st.sampled_from(domains)))
        cases.append((thm.type, k.bind(k.Abs, mutated, rest)))
    verdicts = [_agreed_verdict(items[:first] + [k.Defn(thm.name, ty, body)]) for ty, body in cases]
    assert verdicts[1] is not None


@pytest.mark.parametrize("mode", ["q0", "pts"])
@settings(max_examples=15, deadline=None)
@given(st.integers(0, 100_000), st.integers(1, 2))
def test_later_theorem_with_the_first_statement_matches_reference(mode, seed, later):
    items, first = _theorems(mode, seed)
    thm0, thm = items[first], items[first + later]
    items[first + later] = k.Defn(thm.name, thm0.type, thm.body)
    verdict = _agreed_verdict(items)
    assert verdict is (None if k.convertible(k.Signature(items[:first]), thm0.type, thm.type) else k.IllTypedDeclaration)


# ---------------------------------------------------------------------------
# Abstraction arguments checked against their domains
#
# The kernel checks an abstraction argument against its expected domain
# (a product, or one after ``whnf``) and infers it only to report a
# failure; the reference infers every argument and compares.  Verdicts and
# error classes must agree, ill-typed arguments included: a wrong domain, a
# wrong body type, an abstraction where no product is expected, and a body
# at the level of kinds.

_ARG_SIG_TEXT = """\
A : Type. P : A -> Type. a : A. p : P a.
E : Type. [] E --> A -> A.
g : (A -> A) -> A.
h : (x : A -> P x -> A) -> A.
j : E -> A.
m : A -> A.
"""


@st.composite
def _abstraction_arguments(draw):
    """``f (x1 : D1 => ... => b)`` for a head ``f`` of ``_ARG_SIG_TEXT``,
    well- and ill-typed, sometimes under a further ``m``."""
    n = draw(st.integers(1, 3))
    binders = []
    for depth in range(n):
        atoms = [k.Const("A")] * 4 + [k.App(k.Const("P"), k.Const("a")), k.Const("E"), k.TYPE, k.Const("a")]
        atoms += [k.App(k.Abs("z", k.Const("A"), k.Const("A")), k.Const("a"))]  # converts to A
        atoms += [k.App(k.Const("P"), k.BVar(i)) for i in range(depth)]
        binders.append(draw(st.sampled_from(atoms)))
    body_atoms = [k.Const("a")] * 2 + [k.Const("p"), k.TYPE, k.Const("A"), k.Const("m")]
    body_atoms += [k.BVar(i) for i in range(n)] + [k.App(k.Const("m"), k.BVar(i)) for i in range(n)]
    t = draw(st.sampled_from(body_atoms))
    for i, domain in reversed(list(enumerate(binders))):
        t = k.Abs(f"x{i}", domain, t)
    t = k.App(k.Const(draw(st.sampled_from("ghjm"))), t)
    return k.App(k.Const("m"), t) if draw(st.booleans()) else t


@settings(max_examples=300, deadline=None)
@given(_abstraction_arguments())
def test_abstraction_arguments_match_reference(t):
    sig = k.Signature(dkreader.parse(_ARG_SIG_TEXT).items)
    k.check_signature(sig)
    assert _outcome(k.infer_type, sig, t) == _outcome(ref.infer_type, sig, t)
    items = [*sig.items, k.Defn("d", k.Const("A"), t)]
    _agreed_verdict(items)


def _argument_positions(t, abstraction):
    """The preorder positions of ``t``'s application arguments that are
    (``abstraction``) or are not abstractions."""
    subs = subterms(t)
    return [i + 1 + u.fn.size for i, u in enumerate(subs)
            if isinstance(u, k.App) and isinstance(u.arg, k.Abs) is abstraction]


@pytest.mark.parametrize("mode", ["q0", "pts"])
@settings(max_examples=15, deadline=None)
@given(st.integers(0, 100_000), st.data())
def test_abstraction_arguments_of_theorems_match_reference(mode, seed, data):
    """Each theorem's abstraction arguments, as translated and mutated."""
    items, first = _theorems(mode, seed)
    sig = k.Signature(items[:first])
    pool = [k.TYPE, tr._T, k.App(k.Const("term"), k.Const("bool")), k.Const("bool")]
    for i in range(first, len(items)):
        thm = items[i]
        subs = subterms(thm.body)
        cases = [thm.body]
        for pos in _argument_positions(thm.body, True):
            u = subs[pos]
            other = data.draw(st.sampled_from(pool))
            cases += [
                replace_at(thm.body, pos, k.Abs(u.hint, other, u.body)),  # a wrong domain
                replace_at(thm.body, pos, k.Abs(u.hint, u.domain, other)),  # a wrong body type, or a kind-level one
            ]
        for pos in _argument_positions(thm.body, False)[:3]:
            u = subs[pos]
            body = u if u.bound == 0 else k.Const("bool")
            cases.append(replace_at(thm.body, pos, k.Abs("z", data.draw(st.sampled_from(pool)), body)))
        for body in cases:
            assert _outcome(k.infer_type, sig, body) == _outcome(ref.infer_type, sig, body)
            _agreed_verdict(items[:first] + [k.Defn(thm.name, thm.type, body)])
