import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holtrans import dkfile, dkreader
from holtrans import kernel as k
from holtrans import translate as tr

import reference_dkparse
from conftest import lam, mutate, pi
from reference_typing import uses_index


# ---------------------------------------------------------------------------
# mangling

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def is_identifier(name):
    return bool(_IDENT_RE.match(name)) and name not in dkfile.RESERVED


def test_mangle_namespaced():
    assert dkfile.mangle("Data.Bool.T") == "Data_Bool_T"


def test_mangle_unicode():
    assert dkfile.mangle("∀") == "_u2200_"


def test_mangle_leading_digit():
    out = dkfile.mangle("3rd")
    assert not out[0].isdigit()
    assert is_identifier(out)


def test_namer_injective_on_fuzz_corpus():
    rng = random.Random(42)
    alphabet = "ab.~∀αZ9_"
    names = set()
    while len(names) < 1000:
        names.add("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10))))
    namer = tr.DkNamer()
    idents = [namer.ident(n) for n in names]
    assert len(set(idents)) == len(idents)
    for ident in idents:
        assert is_identifier(ident)
    # idempotent per name
    for n in list(names)[:20]:
        assert namer.ident(n) == namer.ident(n)


def test_namer_resolves_collisions_with_suffix():
    namer = tr.DkNamer()
    a = namer.ident("a.b")
    b = namer.ident("a_b")
    assert a == "a_b" and b != a and b.startswith("a_b")
    assert namer.collisions


# ---------------------------------------------------------------------------
# emission


def test_emit_declaration_line():
    doc = dkfile.DkDocument("", (k.ConstDecl("bool", k.Const("type")),))
    assert dkfile.emit(doc) == "bool : type.\n"


def test_emit_base_rule_line(q0):
    rule = q0.rules[0]
    doc = dkfile.DkDocument("", (rule,))
    assert (
        dkfile.emit(doc)
        == "[a : type, b : type] term (arrow a b) --> term a -> term b.\n"
    )


def test_emit_definition_line():
    d = k.Defn("i", pi("x", k.Const("b"), k.Const("b")), lam("x", k.Const("b"), k.Var("x")))
    doc = dkfile.DkDocument("", (d,))
    # the product does not use its binder, so it prints as a plain arrow; the
    # abstraction takes its domain from the product, so it prints without it
    assert dkfile.emit(doc) == "def i : b -> b := x => x.\n"
    # a domain other than the product's prints, and so does every one after it
    other = k.Defn("i", k.arrow(k.Const("b"), k.Const("b"), k.Const("b")), lam("x", k.Const("c"), d.body))
    text = dkfile.emit(dkfile.DkDocument("", (other,)))
    assert text == "def i : b -> b -> b := x : c => x_2 : b => x_2.\n"
    assert dkfile.parse(text).items == (other,)
    dep = k.Defn("j", pi("x", k.Const("b"), k.App(k.Const("p"), k.Var("x"))), k.Const("c"))
    assert dkfile.emit(dkfile.DkDocument("", (dep,))) == "def j : x : b -> p x := c.\n"


def test_emit_freshens_shadowing_binders():
    inner = k.Abs("x", k.Const("b"), k.BVar(1))  # refers to the outer binder
    outer = k.Abs("x", k.Const("b"), inner)
    doc = dkfile.DkDocument("", (k.Defn("d", k.arrow(k.Const("b"), k.Const("b"), k.Const("b")), outer),))
    text = dkfile.emit(doc)
    parsed = dkfile.parse(text)
    assert parsed.items[0].body == outer


def test_base_roundtrip_both_modes():
    for mode in ("q0", "pts"):
        doc = dkfile.parse(dkreader.base_text(mode))
        assert dkfile.parse(dkfile.emit(doc)) == doc


def test_application_left_and_arrow_right_associate_without_parens():
    f, a, b, c = (k.Const(n) for n in "fabc")
    assert dkfile.fmt_term(k.app(f, a, b)) == "f a b"
    assert dkfile.fmt_term(k.arrow(a, b, c)) == "a -> b -> c"
    # and the other associations need the parentheses
    assert dkfile.fmt_term(k.App(f, k.App(a, b))) == "f (a b)"
    assert dkfile.fmt_term(k.arrow(k.arrow(a, b), c)) == "(a -> b) -> c"


def test_messages_print_what_emission_refuses():
    a = k.Const("A")
    dangling = k.Abs("x", a, k.App(k.BVar(0), k.BVar(2)))
    with pytest.raises(ValueError, match="dangling bound variable #2"):
        dkfile.fmt_term(dangling)
    with pytest.raises(ValueError, match="Kind"):
        dkfile.fmt_term(k.arrow(a, k.KIND))
    assert dkfile.fmt_message_term(dangling) == "x : A => x #2"
    assert dkfile.fmt_message_term(k.arrow(a, k.KIND)) == "A -> Kind"


def test_message_terms_are_cut_to_a_fixed_width():
    f, a = k.Const("f"), k.Const("a")
    assert dkfile.fmt_message_term(k.app(f, a, a)) == "f a a"
    # past the node budget, in preorder, one marker stands for each elided run
    n = dkfile._TERM_NODES // 2 - 1
    assert dkfile.fmt_message_term(k.app(f, *[a] * n)) == " ".join(["f"] + ["a"] * n)
    assert dkfile.fmt_message_term(k.app(f, *[a] * (n + 1))) == " ".join(["f"] + ["a"] * n + ["..."])
    assert dkfile.fmt_message_term(k.app(f, *[a] * 5000)) == "..."
    nest = a
    for _ in range(5000):
        nest = k.App(f, nest)
    half = dkfile._TERM_NODES // 2
    width = dkfile.MESSAGE_WIDTH // 3
    assert dkfile.fmt_message_term(nest) == dkfile.clip("f (" * (half - 1) + "f ..." + ")" * (half - 1), width)
    # past the width the text is cut
    long = k.app(f, *[k.Const("b" * 100)] * 3)
    assert dkfile.fmt_message_term(long) == dkfile.fmt_term(long)[: width - 3] + "..."


# ---------------------------------------------------------------------------
# parsing


def test_parse_error_position():
    with pytest.raises(dkfile.ParseError) as exc:
        dkfile.parse("c : .\n")
    assert exc.value.line == 1


# (text, line, column, expectation) as the token-object parser reported them
_PINNED_ERRORS = [
    ("c : Type.\nd : $.\n", 2, 5, "a token"),
    ("c : Type.\nd : c\0.\n", 2, 6, "a token"),
    ("c : Type.\n  \u00e9 : c.\n", 2, 3, "a token"),
    ("c : Type.\n(; never closed\nd : c.\n", 2, 2, "a token"),
    ("(;)", 1, 2, "a token"),
    ("(;" * 100_000, 1, 2, "a token"),  # read to the end once, not once per opener
    ("c : Type\nd : c.\n", 2, 3, "'.'"),
    ("d : x : c , c.", 1, 11, "'->' or '=>' after a binder"),
    ("c : Type.\ndef d : c -> c := x : c =>", 2, 27, "a term"),
    ("[x : c . ] x --> x.", 1, 8, "',' or ']'"),
    # a bad character anywhere is reported before an earlier syntax error
    ("d : c c\ne : $.\n", 2, 5, "a token"),
    # a comment is a token: it cannot sit inside an item
    ("d : c (; inner ;) c.\n", 1, 7, "'.'"),
]


@pytest.mark.parametrize("text,line,column,expectation", _PINNED_ERRORS)
def test_parse_error_positions_are_pinned(text, line, column, expectation):
    with pytest.raises(dkfile.ParseError) as exc:
        dkfile.parse(text)
    assert (exc.value.line, exc.value.column, exc.value.expectation) == (line, column, expectation)


@pytest.mark.parametrize("text,line,column,expectation", [
    ("Type : Type.\n", 1, 1, "an item"),
    ("def : Type.\n", 1, 5, "a definition name"),
    ("a : Type.\ndef def : Type := a.\n", 2, 5, "a definition name"),
    ("a : Type.\ndef Type : Type := a.\n", 2, 5, "a definition name"),
    ("a : Type.\n[def : a] def --> def.\n", 2, 2, "a rule variable"),
    ("a : Type.\n[x : a, Type : a] x --> x.\n", 2, 9, "a rule variable"),
    ("c : Type.\nd : def : c -> c.\n", 2, 5, "a bound name"),
    ("c : Type.\ndef d : c -> c := def => def.\n", 2, 19, "a bound name"),
])
def test_reserved_words_are_not_names(text, line, column, expectation):
    """``Type`` and ``def`` (``dkfile.RESERVED``) are never a declared,
    defined or bound name or a rule variable, as the emitter never writes
    one there; the token-object parser agrees."""
    with pytest.raises(dkfile.ParseError) as exc:
        dkfile.parse(text)
    assert (exc.value.line, exc.value.column, exc.value.expectation) == (line, column, expectation)
    assert _outcome(reference_dkparse.parse, text) == (line, column, expectation)


def test_parse_rejects_missing_dot():
    with pytest.raises(dkfile.ParseError):
        dkfile.parse("c : type")


def test_parse_shadowed_binders():
    doc = dkfile.parse("def d : Type := x : a => x : b => x.\n")
    body = doc.items[0].body
    assert body == k.Abs("x", k.Const("a"), k.Abs("x", k.Const("b"), k.BVar(0)))


def test_parse_anonymous_arrow_under_binder():
    doc = dkfile.parse("c : x : a -> b -> q x.\n")
    ty = doc.items[0].type
    want = k.Prod("x", k.Const("a"), k.Prod("_", k.Const("b"), k.App(k.Const("q"), k.BVar(1))))
    assert ty == want


# ---------------------------------------------------------------------------
# round-trip and re-checkability properties


def _random_closed_term(rng: random.Random, depth: int) -> k.Term:
    consts = [k.Const(n) for n in ("b", "c", "f", "g", "x")]  # x is also a rule variable
    if depth <= 0:
        return rng.choice(consts + [k.TYPE])
    roll = rng.random()
    if roll < 0.3:
        return k.App(_random_closed_term(rng, depth - 1), _random_closed_term(rng, depth - 1))
    if roll < 0.55:
        name = rng.choice("xyz")
        body = _random_closed_term(rng, depth - 1)
        if rng.random() < 0.5:
            body = k.Var(name)  # ensure some bound occurrences
        return lam(name, _random_closed_term(rng, depth - 1), body)
    if roll < 0.8:
        name = rng.choice("xyz")
        return pi(name, _random_closed_term(rng, depth - 1), _random_closed_term(rng, depth - 1))
    return rng.choice(consts)


def _random_document(seed):
    rng = random.Random(seed)
    items = []
    for i in range(rng.randint(1, 6)):
        roll = rng.random()
        if roll < 0.2:
            items.append(dkfile.Comment(f"note {i}"))
        elif roll < 0.55:
            items.append(k.ConstDecl(f"c{i}", _random_closed_term(rng, 3)))
        elif roll < 0.85:
            ty, body = _random_closed_term(rng, 3), _random_closed_term(rng, 3)
            for _ in range(rng.randint(0, 2)):  # binders whose domains the type gives
                name, dom = rng.choice("xyz"), _random_closed_term(rng, 2)
                ty = pi(rng.choice("xyz"), dom, ty)
                body = lam(name, dom, k.App(body, k.Var(name)) if rng.random() < 0.5 else body)
            items.append(k.Defn(f"d{i}", ty, body))
        else:
            ctx = (("x", _random_closed_term(rng, 2)),)
            lhs = k.App(k.Const(f"r{i}"), k.Var("x"))
            items.append(k.RewriteRule(ctx, lhs, k.Var("x")))
    return dkfile.DkDocument(f"m{seed % 7}", tuple(items))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_roundtrip_random_documents(seed):
    doc = _random_document(seed)
    assert dkfile.parse(dkfile.emit(doc)) == doc


# ---------------------------------------------------------------------------
# the reader against the token-object parser it replaced


def _outcome(parse, text):
    """The parsed document's repr (which shows term classes, hints and
    names), or the ``ParseError``'s position and expectation."""
    try:
        return repr(parse(text))
    except dkfile.ParseError as e:
        return (e.line, e.column, e.expectation)


_SNIPPETS = [
    "(", ")", ":", "->", "=>", "-->", ":=", ",", "[", "]", ".", "(;", ";)", "(;)",
    " ", "\n", "x", "Type", "def", "$", "\u00e9", "\0", "x : c => ", "x => ", "[x : c] ",
]


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 100_000), st.integers(0, 3))
@example(0, 0)
def test_reader_matches_the_token_object_parser(seed, mutations):
    text = dkfile.emit(_random_document(seed))
    rng = random.Random(seed)
    for _ in range(mutations):
        text = mutate(text, rng, _SNIPPETS)
    assert _outcome(dkfile.parse, text) == _outcome(reference_dkparse.parse, text)


def test_reader_matches_the_token_object_parser_on_base_documents():
    for mode in ("q0", "pts"):
        text = dkreader.base_text(mode)
        assert _outcome(dkfile.parse, text) == _outcome(reference_dkparse.parse, text)


def test_parsed_document_rechecks_like_in_memory(q0, corpus_paths):
    from holtrans import opentheory as ot

    state = ot.run_text(corpus_paths[0].read_text())
    doc = tr.translate_state(state, "m").document
    text = dkfile.emit(doc)
    parsed = dkfile.parse(text)
    items = tuple(q0.items) + dkfile.signature_items(parsed)
    k.check_signature(k.Signature(items))


def test_parsed_document_fails_like_in_memory(q0):
    bad = dkfile.parse("x : undeclared.\n")
    items = tuple(q0.items) + dkfile.signature_items(bad)
    with pytest.raises(k.IllTypedDeclaration):
        k.check_signature(k.Signature(items))


# ---------------------------------------------------------------------------
# binder names: the emitter against the per-binder scan it replaced


def _reference_fmt(t, env=(), prec=0):
    """The formatter that rescanned each binder's body for used identifiers."""

    def used(u):
        out, stack = set(), [u]
        while stack:
            v = stack.pop()
            if isinstance(v, (k.Const, k.Var)):
                out.add(v.name)
            elif isinstance(v, k.App):
                stack += [v.fn, v.arg]
            elif isinstance(v, (k.Abs, k.Prod)):
                stack += [v.domain, v.body]
        return out

    def display(hint, inner):
        base = dkfile.mangle(hint)
        taken = set(env) | used(inner) | set(dkfile.RESERVED)
        cand, i = base, 1
        while cand in taken:
            i += 1
            cand = f"{base}_{i}"
        return cand

    if isinstance(t, k.Sort):
        return "Type"
    if isinstance(t, (k.Const, k.Var)):
        return t.name
    if isinstance(t, k.BVar):
        if t.index >= len(env):
            raise ValueError(f"dangling bound variable #{t.index}")
        return env[-1 - t.index]
    if isinstance(t, k.App):
        s = f"{_reference_fmt(t.fn, env, 2)} {_reference_fmt(t.arg, env, 3)}"
        return f"({s})" if prec >= 3 else s
    if isinstance(t, k.Abs):
        name = display(t.hint, t.body)
        s = f"{name} : {_reference_fmt(t.domain, env, 1)} => {_reference_fmt(t.body, env + (name,), 0)}"
        return f"({s})" if prec >= 1 else s
    if uses_index(t.body, 0):
        name = display(t.hint, t.body)
        s = f"{name} : {_reference_fmt(t.domain, env, 1)} -> {_reference_fmt(t.body, env + (name,), 0)}"
    else:
        s = f"{_reference_fmt(t.domain, env, 1)} -> {_reference_fmt(t.body, env + ('_',), 0)}"
    return f"({s})" if prec >= 1 else s


# hints that clash with constants, variables, reserved words and the
# suffixed names the emitter itself picks
_HINTS = st.sampled_from(["x", "c", "x_2", "Type", "def", "_"])
_EMIT_TERMS = st.recursive(
    st.one_of(
        st.just(k.TYPE),
        st.sampled_from(["x", "x_2", "y"]).map(k.Var),
        st.sampled_from(["c", "x_3", "def_2"]).map(k.Const),
        st.builds(k.BVar, st.integers(0, 3)),
    ),
    lambda sub: st.one_of(
        st.builds(k.App, sub, sub),
        st.builds(k.Abs, _HINTS, sub, sub),
        st.builds(k.Prod, _HINTS, sub, sub),
    ),
    max_leaves=30,
)


def _rendered(fmt, t):
    try:
        return fmt(t)
    except ValueError as e:
        return str(e)


_C_ID = k.Abs("c", k.Const("A"), k.BVar(0))


@settings(max_examples=300, deadline=None)
@given(_EMIT_TERMS)
# the identifier just after, or just before, a binder's body
@example(k.App(_C_ID, k.Const("c")))
@example(k.App(k.Const("c"), _C_ID))
@example(k.Prod("c", k.Const("c"), k.Abs("c", k.Prod("c", k.Const("A"), k.BVar(0)), k.Const("c"))))
def test_binder_names_match_the_rescanning_emitter(t):
    assert _rendered(dkfile.fmt_term, t) == _rendered(_reference_fmt, t)


def test_binder_name_avoids_identifiers_of_its_body_only():
    a, c = k.Const("A"), k.Const("c")
    inner = k.Abs("c", a, k.BVar(0))  # no c inside: keeps its name
    t = k.Abs("c", a, k.app(c, k.BVar(0), inner))
    assert dkfile.fmt_term(t) == "c_2 : A => c c_2 (c : A => c)"


def test_same_hint_binders_take_the_smallest_free_suffix():
    """2000 nested binders all hinted ``x``: each takes the first suffix
    not in scope.  Testing a candidate against the scope is one dict
    lookup, so this is quick; a scan of the enclosing names made it cubic."""
    n = 2000
    a = k.Const("A")
    body = k.BVar(n - 1)  # the outermost binder
    ty = a
    for _ in range(n):
        body = k.Abs("x", a, body)
        ty = k.Prod("_", a, ty)
    doc = dkfile.DkDocument("m", (k.ConstDecl("A", k.TYPE), k.Defn("d", ty, body)))
    text = dkfile.emit(doc)
    names = re.findall(r"(\w+) =>", text)
    assert names == ["x"] + [f"x_{i}" for i in range(2, n + 1)]
    assert text.endswith("=> x.\n")
    assert dkfile.parse(text) == doc
