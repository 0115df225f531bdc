"""Differential tests for the facts kernel terms cache about themselves.

The kernel's ``open_term``, ``_close`` (through ``conftest.close``),
``substitute``, ``free_names`` and ``term_size`` skip subterms using each
node's cached size, loose-index bound and free-variable flag, and the
sharing pass picks candidates by the same facts.  The oracles below are the plain full-traversal versions those
replaced; every test compares the kernel against them on random terms,
including terms with dangling indices and free variables.  ``close``,
``substitute`` and ``free_names`` visit a node shared in a DAG once per
call; the tree walks they replaced are kept here too, and compared with
them on DAGs.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holtrans import dkfile, dkreader, hol
from holtrans import kernel as k
from holtrans import opentheory as ot
from holtrans import translate as tr

from conftest import HolGen, close, count_calls

# ---------------------------------------------------------------------------
# oracles: full traversals that use no cached fact


def oracle_size(t):
    if isinstance(t, k.App):
        return 1 + oracle_size(t.fn) + oracle_size(t.arg)
    if isinstance(t, k.Abs):
        return 1 + oracle_size(t.domain) + oracle_size(t.body)
    if isinstance(t, k.Prod):
        return 1 + oracle_size(t.domain) + oracle_size(t.body)
    return 1


def oracle_escape_level(t):
    """Number of binder levels the term's dangling indices escape (0 = closed)."""
    if isinstance(t, k.BVar):
        return t.index + 1
    if isinstance(t, k.App):
        return max(oracle_escape_level(t.fn), oracle_escape_level(t.arg))
    if isinstance(t, k.Abs):
        return max(oracle_escape_level(t.domain), oracle_escape_level(t.body) - 1)
    if isinstance(t, k.Prod):
        return max(oracle_escape_level(t.domain), oracle_escape_level(t.body) - 1)
    return 0


def oracle_free_names(t):
    if isinstance(t, k.Var):
        return {t.name}
    if isinstance(t, k.App):
        return oracle_free_names(t.fn) | oracle_free_names(t.arg)
    if isinstance(t, k.Abs):
        return oracle_free_names(t.domain) | oracle_free_names(t.body)
    if isinstance(t, k.Prod):
        return oracle_free_names(t.domain) | oracle_free_names(t.body)
    return set()


def oracle_close(t, name, depth=0):
    if isinstance(t, k.Var):
        return k.BVar(depth) if t.name == name else t
    if isinstance(t, k.App):
        return k.App(oracle_close(t.fn, name, depth), oracle_close(t.arg, name, depth))
    if isinstance(t, k.Abs):
        return k.Abs(t.hint, oracle_close(t.domain, name, depth), oracle_close(t.body, name, depth + 1))
    if isinstance(t, k.Prod):
        return k.Prod(t.hint, oracle_close(t.domain, name, depth), oracle_close(t.body, name, depth + 1))
    return t


def oracle_open(t, value, depth=0):
    if isinstance(t, k.BVar):
        if t.index == depth:
            return value
        if t.index > depth:
            return k.BVar(t.index - 1)
        return t
    if isinstance(t, k.App):
        return k.App(oracle_open(t.fn, value, depth), oracle_open(t.arg, value, depth))
    if isinstance(t, k.Abs):
        return k.Abs(t.hint, oracle_open(t.domain, value, depth), oracle_open(t.body, value, depth + 1))
    if isinstance(t, k.Prod):
        return k.Prod(t.hint, oracle_open(t.domain, value, depth), oracle_open(t.body, value, depth + 1))
    return t


def oracle_substitute(t, mapping):
    if isinstance(t, k.Var):
        return mapping.get(t.name, t)
    if isinstance(t, k.App):
        return k.App(oracle_substitute(t.fn, mapping), oracle_substitute(t.arg, mapping))
    if isinstance(t, k.Abs):
        return k.Abs(t.hint, oracle_substitute(t.domain, mapping), oracle_substitute(t.body, mapping))
    if isinstance(t, k.Prod):
        return k.Prod(t.hint, oracle_substitute(t.domain, mapping), oracle_substitute(t.body, mapping))
    return t


def shape(t, hints=True):
    """The term as nested tuples; with ``hints`` the binder hints count too."""
    if isinstance(t, k.BVar):
        return ("bvar", t.index)
    if isinstance(t, (k.Sort, k.Var, k.Const)):
        return (type(t).__name__, t.name)
    if isinstance(t, k.App):
        return ("app", shape(t.fn, hints), shape(t.arg, hints))
    body = t.body
    return (type(t).__name__, t.hint if hints else None, shape(t.domain, hints), shape(body, hints))


def oracle_type_level(t, sig):
    """A product, or a spine whose head constant's declared type, with all
    its products taken off, is ``Type`` or ``type``."""
    if isinstance(t, k.Prod):
        return True
    head, _ = k.spine(t)
    ty = sig.const_type(head.name) if isinstance(head, k.Const) else None
    while isinstance(ty, k.Prod):
        ty = ty.body
    return ty in (k.TYPE, k.Const("type"))


def oracle_candidate(t, run):
    return (isinstance(t, (k.App, k.Abs, k.Prod)) and oracle_size(t) >= run.min_size
            and oracle_escape_level(t) == 0 and not oracle_free_names(t)
            and not oracle_type_level(t, run.sig))


def oracle_shared_terms(run):
    """The sharing pass's count of repeats, slowly: every root walked as a
    tree, and every occurrence of a candidate counted where it prints.  It
    prints unless it lies inside a later occurrence of a candidate's class:
    hoisted, that prints as a reference, and its body once, at the first.
    ``{shape: (count, an occurrence)}`` for the classes counted twice."""
    counts, first = {}, {}

    def walk(u):
        if oracle_candidate(u, run):
            cls = shape(u, hints=False)
            counts[cls] = counts.get(cls, 0) + 1
            first.setdefault(cls, u)
            if counts[cls] > 1:
                return
        if isinstance(u, k.App):
            walk(u.fn)
            walk(u.arg)
        elif isinstance(u, (k.Abs, k.Prod)):
            walk(u.domain)
            walk(u.body)

    for item in run.doc.items:
        if isinstance(item, (k.ConstDecl, k.Defn)):
            walk(item.type)
        if isinstance(item, k.Defn):
            walk(item.body)
    return {cls: (n, first[cls]) for cls, n in counts.items() if n >= 2}


def oracle_as_shared_terms(run):
    """``oracle_shared_terms`` in the form ``translate._shared_terms`` gives."""
    return {t: n for n, t in oracle_shared_terms(run).values()}


def subterms(t):
    out, stack = [], [t]
    while stack:
        u = stack.pop()
        out.append(u)
        if isinstance(u, k.App):
            stack += [u.fn, u.arg]
        elif isinstance(u, (k.Abs, k.Prod)):
            stack += [u.domain, u.body]
    return out


# ---------------------------------------------------------------------------
# random terms: few names, so equal subterms and name clashes are common

NAMES = st.sampled_from(["x", "y", "z"])
HINTS = st.sampled_from(["x", "y", "_", "h"])
LEAVES = st.one_of(
    st.just(k.TYPE),
    NAMES.map(k.Var),
    st.sampled_from(["c", "d"]).map(k.Const),
    st.builds(k.BVar, st.integers(0, 3)),
)


def terms(max_leaves=25):
    return st.recursive(
        LEAVES,
        lambda sub: st.one_of(
            st.builds(k.App, sub, sub),
            st.builds(k.Abs, HINTS, sub, sub),
            st.builds(k.Prod, HINTS, sub, sub),
        ),
        max_leaves=max_leaves,
    )


CLOSED = terms(8).filter(lambda t: oracle_escape_level(t) == 0)


def rehint(t, hint):
    """``t`` rebuilt from fresh nodes with every binder hint set to ``hint``."""
    if isinstance(t, k.BVar):
        return k.BVar(t.index)
    if isinstance(t, (k.Sort, k.Var, k.Const)):
        return type(t)(t.name)
    if isinstance(t, k.App):
        return k.App(rehint(t.fn, hint), rehint(t.arg, hint))
    body = t.body
    return type(t)(hint, rehint(t.domain, hint), rehint(body, hint))


# ---------------------------------------------------------------------------
# cached facts


@settings(max_examples=200, deadline=None)
@given(terms())
def test_cached_facts_match_oracles(t):
    for u in subterms(t):
        assert u.size == oracle_size(u) == k.term_size(u)
        assert u.bound == oracle_escape_level(u)
        assert u.has_var == bool(oracle_free_names(u))


@settings(max_examples=200, deadline=None)
@given(terms(), HINTS)
def test_equal_terms_hash_equal_whatever_the_hints(t, hint):
    twin = rehint(t, hint)
    assert twin == t and t == twin
    hash(t)  # one side cached, the other not
    assert twin == t and t == twin
    assert hash(twin) == hash(t)
    assert twin == t and t == twin


@settings(max_examples=300, deadline=None)
@given(terms(4), terms(4), st.sampled_from(["none", "left", "both"]))
def test_equality_is_structural_with_or_without_cached_hashes(a, b, cached):
    if cached != "none":
        hash(a)
    if cached == "both":
        hash(b)
    same = shape(a, hints=False) == shape(b, hints=False)
    assert (a == b) == same
    assert (a != b) == (not same)
    if a == b:
        assert hash(a) == hash(b)


# ---------------------------------------------------------------------------
# short-circuited operations


@settings(max_examples=200, deadline=None)
@given(terms(), st.lists(CLOSED, min_size=1, max_size=3))
def test_open_term_matches_oracle(t, values):
    # one value after another, innermost first; each single open shifts
    # the higher indices down by one, and binders inside ``t`` cover
    # depths above zero
    want = t
    for value in reversed(values):
        want = oracle_open(want, value)
    assert shape(k.open_term(t, *values)) == shape(want)


@settings(max_examples=200, deadline=None)
@given(terms(), st.lists(NAMES, min_size=1, max_size=3))
def test_close_matches_oracle(t, names):
    # the innermost name becomes index 0, the next one out index 1; a
    # repeated name is caught by its innermost occurrence
    want = t
    for depth, name in enumerate(reversed(names)):
        want = oracle_close(want, name, depth)
    assert shape(close(t, *names)) == shape(want)


def oracle_bind(cls, binders, body):
    """A binder chain built one binder at a time, closing the whole chain
    built so far at each step, as the translation once did."""
    for name, hint, domain in reversed(binders):
        body = cls(hint, domain, oracle_close(body, name))
    return body


BINDERS = st.lists(st.tuples(NAMES, HINTS, terms(6)), max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([k.Abs, k.Prod]), BINDERS, terms())
def test_bind_matches_per_binder_oracle(cls, binders, body):
    assert shape(k.bind(cls, binders, body)) == shape(oracle_bind(cls, binders, body))


def _telescope(n):
    binders = [(f"x{i}", "x", k.Const("A")) for i in range(n)]
    return binders, k.app(k.Const("f"), *(k.Var(f"x{i}") for i in range(n)))


def test_bind_closes_a_telescope_in_linear_visits(monkeypatch):
    this = sys.modules[__name__]
    visits, oracle_visits = {}, {}
    for n in (50, 100, 200):
        binders, body = _telescope(n)
        visits[n] = count_calls(monkeypatch, k, "_close", lambda: k.bind(k.Prod, binders, body))
        oracle_visits[n] = count_calls(
            monkeypatch, this, "oracle_close", lambda: oracle_bind(k.Prod, binders, body))
    for n in (50, 100):
        assert visits[2 * n] / visits[n] <= 2.2
        assert oracle_visits[2 * n] / oracle_visits[n] >= 3.5


@settings(max_examples=200, deadline=None)
@given(terms(), st.dictionaries(NAMES, CLOSED, max_size=3))
def test_substitute_matches_oracle(t, mapping):
    assert shape(k.substitute(t, mapping)) == shape(oracle_substitute(t, mapping))


@settings(max_examples=200, deadline=None)
@given(terms())
def test_free_names_matches_oracle(t):
    assert k.free_names(t) == oracle_free_names(t)


# ---------------------------------------------------------------------------
# the sharing pass


def _planted_doc(pool, extra, rnd):
    """Definitions of random terms with the closed ``pool`` planted several
    times, inside binders too, and a repeated open term holding the pool:
    no candidate itself, it prints the pool at each occurrence."""
    items = []
    for i, t in enumerate(extra):
        for _ in range(rnd.randint(0, 3)):
            p = rnd.choice(pool)
            t = rnd.choice([k.App(t, p), k.App(p, t), k.Abs("x", p, t), k.Prod("y", t, p)])
        items.append(k.Defn(f"d{i}", rnd.choice(pool), t))
    domain = rnd.choice(pool)
    shared = k.app(k.Const("f"), k.BVar(0), *pool)
    ty = k.Prod("x", domain, k.App(k.Const("P"), shared))
    body = k.Abs("x", domain, k.app(k.Const("g"), shared, k.Abs("z", domain, shared)))
    items.append(k.Defn("open", ty, body))
    return dkfile.DkDocument("m", tuple(items))


@settings(max_examples=150, deadline=None)
@given(st.lists(CLOSED, min_size=1, max_size=3), st.lists(terms(12), min_size=1, max_size=6),
       st.integers(2, 8), st.randoms(use_true_random=False))
def test_shared_terms_match_oracle_scan(pool, extra, min_size, rnd):
    # candidates occur once, twice and three or more times
    doc = _planted_doc(pool, extra, rnd)
    run = tr._Sharing(doc, tr.base_signature("q0"), min_size)
    slow = oracle_shared_terms(run)
    assert {shape(t, hints=False): n for t, n in run.shared.items()} == {c: n for c, (n, _) in slow.items()}


def _dag_article(depth, leaf=hol.Const("c", hol.BOOL)):
    terms_ = [leaf]
    while len(terms_) <= depth:
        terms_.append(hol.mk_eq(terms_[-1], terms_[-1]))
    thms = [hol.Refl(terms_[d]) for d in (depth - 1, depth)]
    return ot.serialize_article(ot.VMState(theorems=tuple((hol.check_proof(p), p) for p in thms)))


def _random_article(seed):
    proofs = [HolGen(seed * 7 + i).proof(3) for i in range(3)]
    return ot.serialize_article(ot.VMState(theorems=tuple((hol.check_proof(p), p) for p in proofs)))


def _share_both_ways(article, min_size):
    state = ot.run_text(article)
    doc = tr.translate_state(state, "m", sharing=False).document
    base = tr.base_signature("q0")
    fast = tr.share_document(doc, base, min_size)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(tr, "_shared_terms", oracle_as_shared_terms)
        slow = tr.share_document(doc, base, min_size)
    assert (fast.hoisted, fast.replaced) == (slow.hoisted, slow.replaced)
    assert dkfile.emit(fast.document) == dkfile.emit(slow.document)
    tr.verify_document(fast.document)
    return fast


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 12))
def test_share_document_hoists_like_oracle_scan(seed, min_size):
    _share_both_ways(_random_article(seed), min_size)


def test_share_document_hoists_like_oracle_scan_on_dag():
    # t_(k+1) = (t_k = t_k): every t_k occurs 2^(depth-k) times, so most
    # occurrences are skipped by the scan; with a variable leaf every t_k
    # is open, no candidate, and printed at each occurrence
    for leaf, hoists in ((hol.Const("c", hol.BOOL), True), (hol.Var("x", hol.BOOL), False)):
        report = _share_both_ways(_dag_article(7, leaf), 8)
        assert (report.hoisted > 0) == hoists


def _assert_every_definition_pays(article):
    """Every definition the pass adds pays in the module as written: with
    ``refs`` its references there and ``U`` its body's size with every
    ``s_M`` in it unfolded, ``refs * (U - 1)`` exceeds ``PROFIT`` times its
    body and type as printed, and ``refs`` is at least 2."""
    doc = tr.translate_state(ot.run_text(article), "m", sharing=False).document
    own = {item.name for item in doc.items if isinstance(item, (k.ConstDecl, k.Defn))}
    written = dkreader.parse(dkfile.emit(tr.share_document(doc).document))
    added = {item.name for item in written.items if isinstance(item, k.Defn) and item.name not in own}
    refs = dict.fromkeys(added, 0)
    unfolded = {}  # name -> size of its body with every added definition unfolded

    def walk(t):
        if isinstance(t, k.Const) and t.name in added:
            refs[t.name] += 1
            return unfolded[t.name]
        if isinstance(t, k.App):
            return 1 + walk(t.fn) + walk(t.arg)
        if isinstance(t, (k.Abs, k.Prod)):
            return 1 + walk(t.domain) + walk(t.body)
        return 1

    for item in written.items:
        if isinstance(item, (k.ConstDecl, k.Defn)):
            walk(item.type)
        if isinstance(item, k.Defn):
            size = walk(item.body)
            if item.name in added:
                unfolded[item.name] = size
    for item in written.items:
        if isinstance(item, k.Defn) and item.name in added:
            cost = oracle_size(item.body) + oracle_size(item.type)
            n = refs[item.name]
            assert n >= 2 and n * (unfolded[item.name] - 1) > tr.PROFIT * cost, (item.name, n, cost)
    return len(added)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_every_definition_pays_on_random_articles(seed):
    _assert_every_definition_pays(_random_article(seed))


def test_every_definition_pays_on_the_dag_and_the_corpus(corpus_paths):
    assert _assert_every_definition_pays(_dag_article(7)) > 0
    assert sum(_assert_every_definition_pays(path.read_bytes()) for path in corpus_paths) > 0


def test_every_definition_pays_on_the_synth_benchmark_article(workloads):
    # it holds a repeat that would pay at a margin of 1 but not at 1.5
    texts, _ = workloads.articles("synth", 0)
    _assert_every_definition_pays(texts["full"])


# ---------------------------------------------------------------------------
# the tree walks that closing and leaf names replaced, on DAGs


def tree_close(t, position, level):
    """``kernel._close`` before it kept a DAG's sharing."""
    if not t.has_var:
        return t
    if isinstance(t, k.Var):
        p = position.get(t.name)
        return t if p is None else k.BVar(level - p)
    if isinstance(t, k.App):
        return k.App(tree_close(t.fn, position, level), tree_close(t.arg, position, level))
    if isinstance(t, k.Binder):
        return type(t)(t.hint, tree_close(t.domain, position, level), tree_close(t.body, position, level + 1))
    return t


def tree_substitute(t, mapping):
    """``kernel.substitute`` before it kept a DAG's sharing."""
    if not mapping or not t.has_var:
        return t
    if isinstance(t, k.Var):
        return mapping.get(t.name, t)
    if isinstance(t, k.App):
        return k.App(tree_substitute(t.fn, mapping), tree_substitute(t.arg, mapping))
    if isinstance(t, k.Binder):
        return type(t)(t.hint, tree_substitute(t.domain, mapping), tree_substitute(t.body, mapping))
    return t


def tree_leaf_names(t, cls):
    """``kernel._leaf_names`` before it visited each node once."""
    out = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if cls is k.Var and not u.has_var:
            continue
        if isinstance(u, cls):
            out.add(u.name)
        elif isinstance(u, k.App):
            stack += (u.fn, u.arg)
        elif isinstance(u, k.Binder):
            stack += (u.domain, u.body)
    return out


@st.composite
def dags(draw, max_nodes=12):
    """A term whose nodes are drawn from the ones built before it, so that
    subterms, open ones and free variables among them, are shared."""
    pool = [draw(LEAVES) for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(1, max_nodes))):
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        node = draw(st.sampled_from([k.App, k.Abs, k.Prod]))
        pool.append(k.App(a, b) if node is k.App else node(draw(HINTS), a, b))
    return pool[-1]


def distinct_nodes(t):
    seen, stack = set(), [t]
    while stack:
        u = stack.pop()
        if id(u) not in seen:
            seen.add(id(u))
            stack += [u.fn, u.arg] if isinstance(u, k.App) else [u.domain, u.body] if isinstance(u, k.Binder) else []
    return len(seen)


@settings(max_examples=300, deadline=None)
@given(dags(), st.lists(NAMES, min_size=1, max_size=3))
def test_close_matches_tree_walk_and_keeps_the_dag(t, names):
    position = {name: i for i, name in enumerate(names)}
    out = close(t, *names)
    assert shape(out) == shape(tree_close(t, position, len(names) - 1))
    # one node per input node and level, and a fresh index per occurrence
    assert distinct_nodes(out) <= 2 * distinct_nodes(t) + oracle_size(t)


@settings(max_examples=300, deadline=None)
@given(dags(), st.dictionaries(NAMES, dags(4), max_size=3))
def test_substitute_matches_tree_walk_and_keeps_the_dag(t, mapping):
    out = k.substitute(t, mapping)
    assert shape(out) == shape(tree_substitute(t, mapping))
    # one node per input node, the images' nodes shared, not copied
    assert distinct_nodes(out) <= distinct_nodes(t) + sum(map(distinct_nodes, mapping.values()))


@settings(max_examples=300, deadline=None)
@given(dags())
def test_leaf_names_match_tree_walk(t):
    assert k.free_names(t) == tree_leaf_names(t, k.Var)
    assert k.const_names(t) == tree_leaf_names(t, k.Const)


def _var_dag(depth):
    t = k.Var("x")
    for _ in range(depth):
        t = k.app(k.Const("eq"), k.Const("bool"), t, t)
    return t


def profiled_calls(run, kind, file=None):
    """How many calls of ``kind`` ``run()`` makes, from code in ``file`` if
    given: ``"c_call"`` counts calls of built-in functions (a loop that
    calls none of the package's functions still calls ``isinstance``),
    ``"call"`` calls of Python functions."""
    count = [0]

    def profile(frame, event, arg):
        if event == kind and file in (None, frame.f_code.co_filename):
            count[0] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count[0]


def _self_app_dag(depth):
    """``d_0 = x`` and ``d_(j+1) = d_j d_j``: tree size ``2^(depth+1) - 1``."""
    t = k.Var("x")
    for _ in range(depth):
        t = k.App(t, t)
    return t


def test_substituting_into_a_dag_visits_each_node_once():
    """The tree walk makes 2^21 - 1 calls at depth 20."""
    work, box = {}, {}
    for depth in (10, 20):
        t = _self_app_dag(depth)
        work[depth] = profiled_calls(lambda: box.update(out=k.substitute(t, {"x": k.Const("c")})), "call", k.__file__)
    out = box["out"]
    assert work[20] <= 2.2 * work[10], work
    assert out.fn is out.arg and out.size == 2**21 - 1
    assert k.free_names(out) == set() and k.const_names(out) == {"c"}


def test_closing_a_dag_visits_each_node_once(monkeypatch):
    visits, names = {}, {}
    for depth in (10, 20):
        t = _var_dag(depth)
        visits[depth] = count_calls(monkeypatch, k, "_close", lambda: close(t, "x"))
        names[depth] = profiled_calls(lambda: k.free_names(t), "c_call")
        assert k.free_names(t) == {"x"}
    assert visits[20] <= 2.2 * visits[10]
    assert names[20] <= 2.2 * names[10]
    assert distinct_nodes(close(_var_dag(20), "x")) < 200  # the tree has 2^20 leaves
