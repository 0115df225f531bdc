"""The HOL, article and translator records are plain ``__slots__`` classes
that behave as the frozen dataclasses they replaced: the same equality,
hash and repr.  A ``translate`` process builds no dataclass but
``opentheory.VMState``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from holtrans import dkfile, hol, kernel
from holtrans import opentheory as ot
from holtrans import translate as tr

from conftest import CORPUS

A = hol.TyVar("A")
x = hol.Var("x", hol.BOOL)
c = hol.Const("c", hol.BOOL)


def one_of_each():
    refl = hol.Refl(c)
    axiom = hol.Axiom((), c)
    defn = hol.TypeOpDef("t", "abs", "rep", (), hol.Axiom((), hol.App(hol.Abs(x, x), c)))
    doc = dkfile.DkDocument("m", ())
    return [
        A, hol.BOOL, x, c, hol.Abs(x, x), hol.App(hol.Abs(x, x), c),
        hol.HolSubst(theta=(("A", hol.BOOL),)), axiom.sequent,
        refl, hol.AbsThm(x, refl), hol.AppThm(hol.Refl(hol.Abs(x, x)), refl), hol.Beta(x, x),
        hol.Assume(c), hol.EqMp(refl, axiom), hol.DeductAntiSym(axiom, axiom),
        hol.Subst(hol.HolSubst(), refl), axiom, hol.DefineConst("d", c), defn,
        hol.AbsRepThm(defn), hol.RepAbsThm(defn),
        ot.Keyword("nil", 3), ot.OTypeOp("bool"), ot.OConst("c"), ot.OVar(x),
        tr.TypeOpInfo(1, "t"), tr.ConstInfo(A, ("A",), "k"),
        tr.Closure(["A"], [x], (), kernel.Const("k"), axiom.sequent),
        tr.ShareReport(doc, 1, 2), tr.TranslationResult(doc, 0, 0, 0),
    ]


# what the dataclasses printed for one_of_each()
B = "TyOp(op='bool', args=())"
X = f"Var(name='x', type={B})"
C = f"Const(name='c', type={B})"
DEFN = f"TypeOpDef(op='t', abs='abs', rep='rep', tyvars=(), sub=Axiom(hyps=(), concl=App(fn=Abs(var={X}, body={X}), arg={C})))"
DATACLASS_REPRS = [
    "TyVar(name='A')",
    B,
    X,
    C,
    f"Abs(var={X}, body={X})",
    f"App(fn=Abs(var={X}, body={X}), arg={C})",
    f"HolSubst(theta=(('A', {B}),), sigma=())",
    f"Sequent(hyps=(), concl={C})",
    f"Refl(term={C})",
    f"AbsThm(var={X}, sub=Refl(term={C}))",
    f"AppThm(fun=Refl(term=Abs(var={X}, body={X})), arg=Refl(term={C}))",
    f"Beta(var={X}, body={X})",
    f"Assume(prop={C})",
    f"EqMp(eq=Refl(term={C}), prem=Axiom(hyps=(), concl={C}))",
    f"DeductAntiSym(lhs=Axiom(hyps=(), concl={C}), rhs=Axiom(hyps=(), concl={C}))",
    f"Subst(subst=HolSubst(theta=(), sigma=()), sub=Refl(term={C}))",
    f"Axiom(hyps=(), concl={C})",
    f"DefineConst(name='d', body={C})",
    DEFN,
    f"AbsRepThm(defn={DEFN})",
    f"RepAbsThm(defn={DEFN})",
    "Keyword(name='nil', line=3)",
    "OTypeOp(name='bool')",
    "OConst(name='c')",
    f"OVar(var={X})",
    "TypeOpInfo(arity=1, kname='t')",
    "ConstInfo(generic=TyVar(name='A'), tyvars=('A',), kname='k')",
    f"Closure(tyvars=['A'], termvars=[{X}], hyps=(), core=Const(name='k'), sequent=Sequent(hyps=(), concl={C}))",
    "ShareReport(document=DkDocument(module='m', items=()), hoisted=1, replaced=2)",
    "TranslationResult(document=DkDocument(module='m', items=()), theorem_count=0, share_hits=0, share_defs=0)",
]


def record_classes():
    return {
        cls.__name__
        for mod in (hol, ot, tr)
        for cls in vars(mod).values()
        if isinstance(cls, type) and issubclass(cls, kernel.Record) and cls.__module__ == mod.__name__
        and not cls.__name__.startswith("_") and cls not in (hol.HolType, hol.HolTerm, hol.Proof)
    }


def test_repr_is_the_dataclass_repr():
    objs = one_of_each()
    assert {type(o).__name__ for o in objs} == record_classes()
    assert [repr(o) for o in objs] == DATACLASS_REPRS


def test_records_have_no_instance_dict():
    assert not any(hasattr(o, "__dict__") for o in one_of_each())


def test_equal_terms_built_apart_are_equal_and_hash_equal():
    def build():
        f = hol.Var("f", hol.fn(hol.TyVar("A"), hol.BOOL))
        y = hol.Var("y", hol.TyVar("A"))
        return hol.Abs(y, hol.mk_eq(hol.App(f, y), hol.Const("c", hol.BOOL)))

    s, t = build(), build()
    assert s is not t and s == t and hash(s) == hash(t)
    assert hash(s) == hash(t)  # once cached, still equal
    assert s.type == t.type and hash(s.type) == hash(t.type)
    assert s != hol.Abs(hol.Var("z", hol.TyVar("A")), s.body)
    for a, b in zip(one_of_each(), one_of_each()):
        assert a == b
        if not isinstance(a, tr.Closure):  # it holds lists
            assert hash(a) == hash(b)


def test_abs_and_app_equality_ignore_their_type():
    for make in (lambda: hol.Abs(x, x), lambda: hol.App(hol.Abs(x, x), c)):
        s, t = make(), make()
        object.__setattr__(t, "type", A)
        assert s == t and hash(s) == hash(t)


def test_terms_with_kept_hashes_stay_unequal():
    s, t = hol.App(hol.Abs(x, x), c), hol.App(hol.Abs(x, x), x)
    hash(s), hash(t)
    assert s != t and hol.Abs(x, s) != hol.Abs(x, t)


def test_tokens_compare_without_their_line():
    a, b = ot.Keyword("nil", 2), ot.Keyword("nil", 3)
    assert a == b and hash(a) == hash(b) and repr(a) != repr(b)
    assert ot.Keyword("nil") != "nil" and ot.Keyword("nil") != ot.OConst("nil") != ot.OTypeOp("nil")


def test_proof_equality_is_over_premises_not_the_sequent():
    assert hol.Refl(c) == hol.Refl(c) and hash(hol.Refl(c)) == hash(hol.Refl(c))
    assert hol.Refl(c) != hol.Assume(c) and hol.Refl(c) != hol.Refl(x)


def test_wrong_number_of_values_is_a_type_error():
    with pytest.raises(TypeError):
        hol.Refl(c, c)
    with pytest.raises(TypeError):
        tr.ShareReport(None, 1)
    with pytest.raises(hol.ArityMismatch):
        hol.TyOp("->", (hol.BOOL,))


def translate_probe(article: Path, out: Path) -> list:
    """``translate`` of ``article`` in a fresh process: its exit code,
    whether ``hashlib`` or ``_hashlib`` (OpenSSL) is loaded, and the
    package's dataclasses."""
    probe = (
        "import sys; from holtrans import cli; "
        "rc = cli.main(['translate', sys.argv[1], '-o', sys.argv[2]]); "
        "import dataclasses; "
        "print(rc, 'hashlib' in sys.modules, '_hashlib' in sys.modules, *sorted(f'{c.__module__}.{c.__name__}' "
        "for m, mod in list(sys.modules.items()) if m.startswith('holtrans') "
        "for c in vars(mod).values() if isinstance(c, type) and c.__module__ == m and dataclasses.is_dataclass(c)))"
    )
    src = str(Path(hol.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", probe, str(article), str(out)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_translate_without_axioms_loads_no_hashlib_and_builds_one_dataclass(tmp_path):
    """``VMState`` stays a dataclass: the benchmark's traced run calls
    ``dataclasses.replace`` on it."""
    article = CORPUS / "07_sym_trans.art"
    assert "axiom" not in article.read_text().split()
    assert translate_probe(article, tmp_path) == ["0", "False", "False", "holtrans.opentheory.VMState"]


def test_translate_names_axioms_without_loading_hashlib(tmp_path):
    """An axiom's constant is named by a SHA-1 digest, computed by CPython's
    own ``_sha1``: ``hashlib`` would load OpenSSL's libcrypto."""
    article = CORPUS / "11_axiom.art"
    assert "axiom" in article.read_text().split()
    assert translate_probe(article, tmp_path) == ["0", "False", "False", "holtrans.opentheory.VMState"]
    assert "\nax_" in (tmp_path / "11_axiom.dk").read_text()
