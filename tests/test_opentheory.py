import pytest
from hypothesis import given, settings, strategies as st

from holtrans import hol
from holtrans import opentheory as ot

from conftest import CORPUS, captured_by_instantiation, count_calls
from reference_article import parse_article as reference_parse


def run_lines(*lines):
    return ot.run_text("\n".join(lines) + "\n")


MINIMAL = ("6", "version")


# ---------------------------------------------------------------------------
# parsing


def test_parse_minimal_preamble():
    cmds = ot.parse_article("6\nversion\n")
    assert cmds == [6, ot.Keyword("version")]


def test_parse_string_literal():
    assert ot.parse_article('"bool"\n') == ["bool"]


def test_parse_comment_skipped():
    assert ot.parse_article("# comment\nnil\n") == [ot.Keyword("nil")]


def test_parse_escapes():
    cmds = ot.parse_article('"a\\"b\\\\c"\n')
    assert cmds == ['a"b\\c']


def test_parse_malformed_string():
    with pytest.raises(ot.MalformedString):
        ot.parse_article('"unterminated\n')


def test_parse_unknown_command():
    with pytest.raises(ot.UnknownCommand) as exc:
        ot.parse_article("6\nversion\nfrobnicate\n")
    assert "line 3" in str(exc.value)


def test_parse_negative_number():
    assert ot.parse_article("-3\n") == [-3]


def test_parse_byte_order_mark():
    assert ot.parse_article(b"\xef\xbb\xbf6\nversion\n") == [6, ot.Keyword("version")]


def parsed(parse, data):
    """What ``parse`` makes of ``data``: each command's class and value, and
    a keyword's line, or the class and message of what it raised."""
    try:
        return [(type(c).__name__, c.name, c.line) if type(c) is ot.Keyword else (type(c).__name__, c)
                for c in parse(data)]
    except ot.ArticleError as e:
        return type(e).__name__, str(e)


CORPUS_TEXTS = [p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.art"))]

# Lines that are blank, comments, numbers in odd spellings, strings with
# escapes, or near misses of a keyword or a number
ODD_LINES = (
    "", " ", "\t \t", "#", "# a comment", "#6", " 6", "6 ", " nil", "nil ", "Nil", "frobnicate",
    "-0", "+1", "00", "007", "-", "--1", "1.5", "1e3", "\u00b2", "\u0661", "\uff11",
    '"a\\"b\\\\c"', '"x\\y"', '"', '""', '"a"b"', '"\\"', "a\x0cb", "x\x85y",
)


def test_parser_matches_the_reference_on_whole_articles(workloads):
    texts = CORPUS_TEXTS + [workloads.pinned_articles(family, 0)[0]["full"] for family in ("synth", "dag")]
    for text in texts:
        want = parsed(reference_parse, text)
        assert isinstance(want, list) and want
        assert parsed(ot.parse_article, text) == want
        assert parsed(ot.parse_article, text.replace("\n", "\r\n").encode()) == want


def test_parser_matches_the_reference_on_each_odd_line():
    for line in ODD_LINES:
        for end in ("\n", "\r\n", "\r"):
            data = end.join(["6", "version", line, "nil"]) + end
            assert parsed(ot.parse_article, data) == parsed(reference_parse, data), repr(data)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(CORPUS_TEXTS),
    st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(ODD_LINES + ("<indent>",))), max_size=4),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.booleans(),
)
def test_parser_matches_the_reference_on_mutated_lines(text, edits, end, as_bytes):
    """Each edit inserts an odd line, or indents an existing one, at a
    position; the lines are joined with LF, CRLF or a lone CR."""
    lines = text.splitlines()
    for at, line in edits:
        at %= len(lines) + 1
        if line != "<indent>":
            lines.insert(at, line)
        elif at < len(lines):
            lines[at] = " " + lines[at]
    data = end.join(lines) + end
    if as_bytes:
        data = data.encode("utf-8")
    assert parsed(ot.parse_article, data) == parsed(reference_parse, data)


# ---------------------------------------------------------------------------
# single steps


def test_step_refl():
    state = run_lines(*MINIMAL, '"A"', "varType", '"x"', "1", "def", "pop", "0", "def")
    # stack now holds the type; build var and refl by further steps
    state = run_lines(
        *MINIMAL,
        '"A"', "varType", "0", "def", "pop",
        '"x"', "0", "ref", "var", "varTerm", "refl",
    )
    thm = state.stack[-1]
    assert isinstance(thm, hol.Refl)
    x = hol.Var("x", hol.TyVar("A"))
    assert thm.sequent.alpha_eq(hol.make_sequent((), hol.mk_eq(x, x)))


def test_step_eqmp_stack_order():
    # {p=q, p} |- q : the equality theorem is pushed first (deeper)
    state = run_lines(
        *MINIMAL,
        '"bool"', "typeOp", "nil", "opType", "0", "def", "pop",
        '"p"', "0", "ref", "var", "1", "def", "pop",
        '"q"', "0", "ref", "var", "2", "def", "pop",
        '"->"', "typeOp", "0", "ref", "0", "ref", "nil", "cons", "cons", "opType", "3", "def", "pop",
        '"->"', "typeOp", "0", "ref", "3", "ref", "nil", "cons", "cons", "opType", "4", "def", "pop",
        '"="', "const", "4", "ref", "constTerm", "5", "def", "pop",
        "5", "ref", "1", "ref", "varTerm", "appTerm", "2", "ref", "varTerm", "appTerm",
        "assume",
        "1", "ref", "varTerm", "assume",
        "eqMp",
    )
    thm = state.stack[-1]
    assert thm.sequent.concl == hol.Var("q", hol.BOOL)
    assert len(thm.sequent.hyps) == 2


def test_trans_desugars_to_congruence_composition():
    a = hol.TyVar("A")
    x, y, z = hol.Var("x", a), hol.Var("y", a), hol.Var("z", a)
    d1 = hol.Assume(hol.mk_eq(x, y))
    d2 = hol.Assume(hol.mk_eq(y, z))
    p = ot.trans_proof(d1, d2)
    assert isinstance(p, hol.EqMp)
    assert isinstance(p.eq, hol.AppThm)
    assert isinstance(p.eq.fun, hol.Refl)
    assert p.prem is d1
    seq = hol.check_proof(p)
    assert hol.alpha_equal(seq.concl, hol.mk_eq(x, z))


def test_sym_desugaring():
    a = hol.TyVar("A")
    x, y = hol.Var("x", a), hol.Var("y", a)
    d = hol.Assume(hol.mk_eq(x, y))
    p = ot.sym_proof(d)
    seq = hol.check_proof(p)
    assert hol.alpha_equal(seq.concl, hol.mk_eq(y, x))


def test_prove_hyp_desugaring():
    p, q = hol.Var("p", hol.BOOL), hol.Var("q", hol.BOOL)
    d_phi = hol.Assume(p)
    d_psi = hol.EqMp(hol.Assume(hol.mk_eq(p, q)), hol.Assume(p))
    out = hol.check_proof(ot.prove_hyp_proof(d_phi, d_psi))
    keys = {hol.term_key(h) for h in out.hyps}
    assert keys == {hol.term_key(p), hol.term_key(hol.mk_eq(p, q))}
    assert out.concl == q


# ---------------------------------------------------------------------------
# whole runs


def test_run_minimal():
    state = run_lines(*MINIMAL)
    assert state.theorems == []


def test_run_empty_fails():
    with pytest.raises(ot.UnsupportedVersion):
        ot.run([])


def test_run_refuses_an_article_of_literals_only():
    """No keyword asks for the version, so the end of the stream does."""
    with pytest.raises(ot.UnsupportedVersion) as exc:
        run_lines("6", '"x"')
    assert str(exc.value) == "article has no version command"


def test_run_requires_version_first():
    with pytest.raises(ot.UnsupportedVersion):
        run_lines("nil")


def test_run_rejects_other_versions():
    with pytest.raises(ot.UnsupportedVersion):
        run_lines("5", "version")


def test_run_rejects_duplicate_version():
    with pytest.raises(ot.UnsupportedVersion):
        run_lines("6", "version", "6", "version")


def test_run_rejects_a_keyword_before_the_version():
    with pytest.raises(ot.UnsupportedVersion) as exc:
        ot.run([ot.Keyword("nil", 3)])
    assert str(exc.value) == "nil: article must begin with a version"
    assert (exc.value.command_index, exc.value.command_line) == (0, 3)


def test_run_rejects_a_keyword_it_has_no_handler_for():
    """The parser makes no such keyword; one built by hand gets the same
    error class as an unknown line."""
    commands = ot.parse_article("6\nversion\n") + [ot.Keyword("frobnicate", 7)]
    with pytest.raises(ot.UnknownCommand) as exc:
        ot.run(commands)
    assert str(exc.value) == "unknown command frobnicate"
    assert (exc.value.command_index, exc.value.command_line) == (2, 7)


def test_run_text_reports_a_failing_command_before_a_later_malformed_line():
    """``run_text`` runs each line as it is parsed, so the first failure in
    the file is the one reported; parsing the whole article first reports
    the malformed line, wherever it stands."""
    text = "6\nversion\nnil\nsym\nfrobnicate\n"
    with pytest.raises(ot.TypeErrorOnStack) as exc:
        ot.run_text(text)
    assert (exc.value.command_index, exc.value.command_line) == (3, 4)
    with pytest.raises(ot.UnknownCommand, match="line 5"):
        ot.parse_article(text)


def test_run_pushes_a_literal_as_it_was_parsed():
    commands = ot.parse_article('6\nversion\n"x"\n5\n')
    stack = ot.run(commands).stack
    assert len(stack) == 2 and stack[0] is commands[2] and stack[1] is commands[3]
    assert stack == ["x", 5]


def test_identity_article(corpus_paths):
    path = next(p for p in corpus_paths if p.name == "01_identity.art")
    state = ot.run_text(path.read_text())
    assert len(state.theorems) == 1
    seq, proof = state.theorems[0]
    assert hol.check_proof(proof).alpha_eq(seq)


def test_remove_of_undefined_key_fails():
    with pytest.raises(ot.VMError) as exc:
        run_lines(*MINIMAL, "3", "remove")
    assert getattr(exc.value, "command_index", None) == 3


def test_dictionary_discipline():
    prefix = (*MINIMAL, '"bool"', "typeOp", "nil", "opType", "0", "def")
    stored = run_lines(*prefix).dictionary[0]
    # ref pushes the stored object
    assert run_lines(*prefix, "0", "ref").stack[-1] == stored
    # remove pushes the object and deletes the key
    state = run_lines(*prefix, "0", "remove")
    assert 0 not in state.dictionary
    with pytest.raises(ot.VMError):
        run_lines(*prefix, "0", "remove", "0", "ref")


def test_stack_underflow():
    with pytest.raises(ot.StackUnderflow):
        run_lines(*MINIMAL, "refl")


def test_type_error_on_stack():
    with pytest.raises(ot.TypeErrorOnStack):
        run_lines(*MINIMAL, "6", "refl")


# Each keyword command's operands, by the article format's kinds of stack
# object, bottom of the stack first; None takes any object.  Every command
# pops all of them, top first, before anything else.
OPERANDS = {
    "absTerm": ("var", "term"),
    "absThm": ("var", "thm"),
    "appTerm": ("term", "term"),
    "appThm": ("thm", "thm"),
    "assume": ("term",),
    "axiom": ("list", "term"),
    "betaConv": ("term",),
    "cons": (None, "list"),
    "const": ("name",),
    "constTerm": ("const", "type"),
    "deductAntisym": ("thm", "thm"),
    "def": ("number",),
    "defineConst": ("name", "term"),
    "defineTypeOp": ("name", "name", "name", "list", "thm"),
    "eqMp": ("thm", "thm"),
    "hdTl": ("list",),
    "opType": ("typeOp", "list"),
    "pop": (None,),
    "pragma": (None,),
    "proveHyp": ("thm", "thm"),
    "ref": ("number",),
    "refl": ("term",),
    "remove": ("number",),
    "subst": ("list", "thm"),
    "sym": ("thm",),
    "thm": ("thm", "list", "term"),
    "trans": ("thm", "thm"),
    "typeOp": ("name",),
    "var": ("name", "type"),
    "varTerm": ("var",),
    "varType": ("name",),
    "version": ("number",),
}

# The class that an error message names for each kind
KIND_CLASS = {
    "number": "int", "name": "str", "list": "tuple", "typeOp": "OTypeOp", "type": "HolType",
    "const": "OConst", "var": "OVar", "term": "HolTerm", "thm": "Proof",
}

# Objects of every kind, as the VM builds them, pushed in the order of
# SAMPLE_KINDS: a type variable and bool, a variable term and a constant
# term, the empty list and [0].
SAMPLE_ARTICLE = (
    *MINIMAL, "0", '"x"', "nil", '"bool"', "typeOp", '"A"', "varType",
    '"bool"', "typeOp", "nil", "opType", "0", "def", '"c"', "const",
    '"x"', "0", "ref", "var", "1", "def", "1", "ref", "varTerm", "2", "def",
    '"c"', "const", "0", "ref", "constTerm", "2", "ref", "refl", "0", "nil", "cons",
)
SAMPLE_KINDS = (
    "number", "name", "list", "typeOp", "type", "type", "const", "var", "term", "term", "thm", "list",
)


def stack_samples() -> list:
    """``(kind, object)`` for each object ``SAMPLE_ARTICLE`` leaves on the stack."""
    stack = run_lines(*SAMPLE_ARTICLE).stack
    assert len(stack) == len(SAMPLE_KINDS)
    return list(zip(SAMPLE_KINDS, stack))


def operand_stack(name: str, i: int) -> list:
    """Well-formed operands for those above operand ``i`` of ``name``."""
    first = {}
    for kind, obj in stack_samples():
        first.setdefault(kind, obj)
    return [first[kind or "number"] for kind in OPERANDS[name][i + 1:]]


def test_operand_table_covers_every_command():
    assert set(OPERANDS) | {"nil"} == set(ot._HANDLERS)


def test_stack_samples_are_the_objects_themselves():
    """A number, name or list is the ``int``, ``str`` or ``tuple`` itself, a
    type or term the HOL object; type operators, constants and variables
    are boxed."""
    x = hol.Var("x", hol.BOOL)
    assert [obj for _, obj in stack_samples()] == [
        0, "x", (), ot.OTypeOp("bool"), hol.TyVar("A"), hol.BOOL, ot.OConst("c"), ot.OVar(x), x,
        hol.Const("c", hol.BOOL), hol.Refl(x), (0,),
    ]


@pytest.mark.parametrize("name", sorted(OPERANDS))
def test_operand_errors_are_pinned(name):
    """Each operand in turn is missing, then of the wrong class, with every
    operand above it well-formed: the exact message names the command."""
    x = hol.Var("x", hol.BOOL)
    for i, kind in enumerate(OPERANDS[name]):
        above = operand_stack(name, i)
        state = ot.VMState(stack=list(above), versioned=True)
        with pytest.raises(ot.StackUnderflow) as exc:
            ot._HANDLERS[name](state)
        assert str(exc.value) == f"{name}: stack underflow"
        if kind is None:
            continue
        wrong, found = (x, "Var") if kind == "type" else (hol.BOOL, "TyOp")
        state = ot.VMState(stack=[wrong, *above], versioned=True)
        with pytest.raises(ot.TypeErrorOnStack) as exc:
            ot._HANDLERS[name](state)
        assert str(exc.value) == f"{name}: expected {KIND_CLASS[kind]}, found {found}"
    if name == "hdTl":  # and the list may not be empty
        state = ot.VMState(stack=[()], versioned=True)
        with pytest.raises(ot.TypeErrorOnStack) as exc:
            ot._HANDLERS[name](state)
        assert str(exc.value) == "hdTl: expected a non-empty list"


@pytest.mark.parametrize("name", sorted(OPERANDS))
def test_every_operand_refuses_every_other_kind(name):
    """Each operand in turn is offered each object of another kind, as the
    VM built it, with every operand above it well-formed: among them a
    variable term where a variable is expected, and a plain name where a
    constant or type operator is."""
    for i, kind in enumerate(OPERANDS[name]):
        if kind is None:
            continue
        above = operand_stack(name, i)
        for other, wrong in stack_samples():
            if other == kind:
                continue
            state = ot.VMState(stack=[wrong, *above], versioned=True)
            with pytest.raises(ot.TypeErrorOnStack) as exc:
                ot._HANDLERS[name](state)
            message = str(exc.value)
            assert message.startswith(f"{name}: expected ") and message.endswith(f", found {type(wrong).__name__}")


def test_hd_tl_pushes_the_head_then_the_tail():
    a, b, c = 1, "b", ()
    state = ot.VMState(stack=[(a, b, c)], versioned=True)
    ot._HANDLERS["hdTl"](state)
    assert state.stack == [a, (b, c)]


# |- x = x for x : A, where x is the head of the list [x, y]: hdTl pushes
# x, then [y], which is popped.
HD_TL_ARTICLE = (
    "6", "version", '"A"', "varType", "0", "def", "pop",
    '"x"', "0", "ref", "var", "1", "def", "pop",
    "1", "ref", "varTerm", "2", "def", "pop",
    "2", "ref", '"y"', "0", "ref", "var", "varTerm", "nil", "cons", "cons", "hdTl", "pop",
    "refl",
    '"bool"', "typeOp", "nil", "opType", "3", "def", "pop",
    '"->"', "typeOp", "0", "ref", "3", "ref", "nil", "cons", "cons", "opType", "4", "def", "pop",
    '"->"', "typeOp", "0", "ref", "4", "ref", "nil", "cons", "cons", "opType", "5", "def", "pop",
    '"="', "const", "5", "ref", "constTerm", "6", "def", "pop",
    "nil",
    "6", "ref", "2", "ref", "appTerm", "2", "ref", "appTerm",
    "thm",
)


def test_article_with_hd_tl_replays_translates_and_verifies():
    from holtrans import translate as tr

    state = run_lines(*HD_TL_ARTICLE)
    (stated, _), = state.theorems
    x = hol.Var("x", hol.TyVar("A"))
    assert stated == hol.Sequent((), hol.mk_eq(x, x))
    result = tr.translate_state(state, "hd_tl")
    tr.verify_document(result.document)


def test_thm_sequent_mismatch():
    # prove |- x = x but state |- y = y
    with pytest.raises(ot.SequentMismatch, match="^thm: the stated conclusion differs from the proved one$"):
        run_lines(
            *MINIMAL,
            '"A"', "varType", "0", "def", "pop",
            '"x"', "0", "ref", "var", "varTerm", "1", "def", "pop",
            '"y"', "0", "ref", "var", "varTerm", "2", "def", "pop",
            "1", "ref", "refl",
            "nil",
            '"bool"', "typeOp", "nil", "opType", "3", "def", "pop",
            '"->"', "typeOp", "0", "ref", "3", "ref", "nil", "cons", "cons", "opType", "4", "def", "pop",
            '"->"', "typeOp", "0", "ref", "4", "ref", "nil", "cons", "cons", "opType", "5", "def", "pop",
            '"="', "const", "5", "ref", "constTerm",
            "2", "ref", "appTerm", "2", "ref", "appTerm",
            "thm",
        )


def test_thm_names_the_differing_hypotheses_by_count():
    x = hol.Var("x", hol.BOOL)
    proof = hol.Assume(x)  # x |- x
    text = ot.serialize_article(ot.VMState(theorems=[(hol.Sequent((), x), proof)]))
    with pytest.raises(ot.SequentMismatch) as info:
        ot.run_text(text)
    assert str(info.value) == "thm: the stated hypotheses differ from the proved ones (0 stated, 1 proved)"


def test_thm_stating_a_captured_instantiation_is_rejected():
    """An article may not state the sequent that instantiating a type
    variable without renaming the binder would give: ``(\\x:B. x:B) y:B =
    x:B``, whose left side beta-reduces to ``y``."""
    proof = captured_by_instantiation()
    xb, yb = hol.Var("x", hol.TyVar("B")), hol.Var("y", hol.TyVar("B"))
    captured = hol.Sequent((), hol.mk_eq(hol.App(hol.Abs(xb, xb), yb), xb))
    text = ot.serialize_article(ot.VMState(theorems=[(captured, proof)]))
    with pytest.raises(ot.SequentMismatch):
        ot.run_text(text)
    assert ot.run_text(ot.serialize_article(ot.VMState(theorems=[(proof.sequent, proof)]))).theorems


def test_pragma_pops_and_ignores():
    state = run_lines(*MINIMAL, '"debug"', "pragma")
    assert state.stack == []


def test_define_const_registers_generic():
    state = run_lines(
        *MINIMAL,
        '"bool"', "typeOp", "nil", "opType", "0", "def", "pop",
        '"x"', "0", "ref", "var", "1", "def", "pop",
        '"c.new"', "1", "ref", "1", "ref", "varTerm", "absTerm", "defineConst",
    )
    assert state.constants["c.new"] == hol.fn(hol.BOOL, hol.BOOL)
    thm = state.stack[-1]
    assert isinstance(thm, hol.DefineConst)
    const_obj = state.stack[-2]
    assert const_obj == ot.OConst("c.new")


def test_define_type_op_stack_order(corpus_paths):
    # replay 10_definetypeop.art up to its defineTypeOp command
    path = next(p for p in corpus_paths if p.name == "10_definetypeop.art")
    lines = path.read_text().splitlines()
    state = run_lines(*lines[: lines.index("defineTypeOp") + 1])
    op, abs_c, rep_c, abs_thm, rep_thm = state.stack[-5:]
    assert op == ot.OTypeOp("u.t")
    assert abs_c == ot.OConst("u.abs") and rep_c == ot.OConst("u.rep")
    assert isinstance(abs_thm, hol.AbsRepThm)
    assert isinstance(rep_thm, hol.RepAbsThm)
    assert state.typeops["u.t"] == 0
    assert {"u.abs", "u.rep"} <= state.constants.keys()


def test_define_type_op_validates_its_witness_once(monkeypatch, corpus_paths):
    """``AbsRepThm`` validates the witness and keeps its pieces on the
    definition, which ``RepAbsThm`` and the command then read: one call of
    ``TypeOpDef.pieces`` per definition, where there were three."""
    path = next(p for p in corpus_paths if p.name == "10_definetypeop.art")
    assert path.read_text().split().count("defineTypeOp") == 1
    box = {}
    replay = lambda: box.update(state=ot.run_text(path.read_text()))  # noqa: E731
    assert count_calls(monkeypatch, hol.TypeOpDef, "pieces", replay) == 1
    (_, abs_thm), (_, rep_thm) = box["state"].theorems
    assert isinstance(abs_thm, hol.AbsRepThm) and isinstance(rep_thm, hol.RepAbsThm)
    assert abs_thm.defn is rep_thm.defn and abs_thm.defn.shape is not None
    carrier, new_ty = abs_thm.defn.shape[1:]
    assert box["state"].constants["u.abs"] == hol.fn(carrier, new_ty)
    assert box["state"].constants["u.rep"] == hol.fn(new_ty, carrier)


def test_duplicate_constant_definition_fails():
    with pytest.raises(ot.VMError):
        run_lines(
            *MINIMAL,
            '"bool"', "typeOp", "nil", "opType", "0", "def", "pop",
            '"x"', "0", "ref", "var", "1", "def", "pop",
            '"="', "1", "ref", "1", "ref", "varTerm", "absTerm", "defineConst",
        )


def test_auto_declared_constant_widens_to_generalization():
    # the first use fixes a provisional type; an incompatible second use
    # widens it so both instances match the final generic
    state = run_lines(
        *MINIMAL,
        '"bool"', "typeOp", "nil", "opType", "0", "def", "pop",
        '"ind"', "typeOp", "nil", "opType", "1", "def", "pop",
        '"mystery"', "const", "2", "def", "pop",
        "2", "ref", "0", "ref", "constTerm", "pop",
        "2", "ref", "1", "ref", "constTerm",
    )
    generic = state.externals["mystery"]
    assert isinstance(generic, hol.TyVar)
    assert hol.match_type(generic, hol.BOOL) is not None
    assert hol.match_type(generic, hol.IND) is not None


def test_builtin_constant_instance_checked_strictly():
    with pytest.raises(ot.TypeErrorOnStack):
        run_lines(
            *MINIMAL,
            '"bool"', "typeOp", "nil", "opType", "0", "def", "pop",
            '"="', "const", "0", "ref", "constTerm",
        )


def test_vm_soundness_on_corpus(corpus_paths):
    for path in corpus_paths:
        state = ot.run_text(path.read_text())
        for seq, proof in state.theorems:
            assert hol.check_proof(proof).alpha_eq(seq)


def test_run_is_deterministic(corpus_paths):
    text = corpus_paths[0].read_text()
    s1 = ot.run_text(text)
    s2 = ot.run_text(text)
    assert s1 == s2


def test_reserialization_roundtrip(corpus_paths):
    for path in corpus_paths:
        state = ot.run_text(path.read_text())
        regenerated = ot.serialize_article(state)
        state2 = ot.run_text(regenerated)
        assert len(state2.theorems) == len(state.theorems)
        for (s1, _), (s2, _) in zip(state.theorems, state2.theorems):
            assert s1.alpha_eq(s2)
