"""Acceptance criteria, one test per criterion, each printing a verdict line."""

import json
import os
import time
from pathlib import Path

import pytest

from holtrans import cli, dkfile, hol
from holtrans import kernel as k
from holtrans import opentheory as ot
from holtrans import translate as tr

from conftest import CORPUS, HolGen, completeness_context, env_signature, lam, make_env, pi, rule_by_rule
from reference_reduction import reduce_step
from reference_typing import normalize


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_base_signatures_well_formed():
    t0 = time.perf_counter()
    q0 = tr.base_signature("q0")
    pts = tr.base_signature("pts")
    k.check_signature(q0)
    k.check_signature(pts)
    assert len(q0.rules) == 1
    assert len(pts.rules) == 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, f"both base signatures check; pts has exactly 3 rules ({elapsed:.2f}s)")


def test_criterion_02_rewrite_dependent_typing():
    alpha, c, f = k.Const("alpha"), k.Const("c"), k.Const("f")
    fy = k.App(f, k.Var("y"))
    unfolded = pi("y", alpha, k.arrow(fy, fy))
    rule = k.RewriteRule((), k.App(f, c), unfolded)
    decls = [
        k.ConstDecl("alpha", k.TYPE),
        k.ConstDecl("c", alpha),
        k.ConstDecl("f", k.arrow(alpha, k.TYPE)),
    ]
    sig = k.Signature(decls + [rule])
    term = lam("x", k.App(f, c), k.app(k.Var("x"), c, k.Var("x")))
    assert k.infer_type(sig, {}, term) == k.arrow(k.App(f, c), k.App(f, c))
    without = k.Signature(decls)
    with pytest.raises(k.DomainMismatch):
        k.infer_type(without, {}, term)
    # replacing every occurrence of the redex type does not help either
    replaced = lam("x", unfolded, k.app(k.Var("x"), c, k.Var("x")))
    with pytest.raises(k.DomainMismatch) as exc:
        k.infer_type(without, {}, replaced)
    assert not isinstance(exc.value, k.NotAFunction)
    _report(2, "typing works with the rule and fails with DomainMismatch without it")


def test_criterion_03_term_translation_example(q0):
    env = make_env()
    a = hol.TyVar("A")
    x = hol.Var("x", a)
    got = tr.trans_term(env, hol.App(hol.Abs(x, x), x))
    lam = k.Abs("x", k.App(k.Const("term"), tr.tyvar_ref("A")), k.BVar(0))
    assert got == k.App(lam, env.termvar(x))
    assert normalize(q0, got) == env.termvar(x)
    _report(3, "identity redex translates syntactically and normalizes to the variable")


def test_criterion_04_completeness_500_proofs():
    t0 = time.perf_counter()
    for seed in range(500):
        gen = HolGen(seed)
        proof = gen.proof(4)
        env = make_env()
        ctx = completeness_context(env, proof)
        term = tr.trans_proof(env, proof)
        sig = env_signature(env)
        ty = k.infer_type(sig, ctx, term, fuel=10**7)
        want = tr.trans_prop_type(env, hol.check_proof(proof).concl)
        assert k.convertible(sig, ty, want), f"seed {seed}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(4, f"500/500 translated proofs type-check at their statements ({elapsed:.1f}s)")


def test_criterion_05_transitivity_article_end_to_end(q0):
    path = CORPUS / "07_sym_trans.art"
    state = ot.run_text(path.read_text())
    seq, proof = state.theorems[0]
    env = tr.TranslationEnv.from_vm(state)
    term = tr.trans_proof(env, proof)
    ctx = completeness_context(env, proof)
    ty = k.infer_type(q0, ctx, term)
    x, z = hol.Var("x", hol.TyVar("A")), hol.Var("z", hol.TyVar("A"))
    want = k.App(
        k.Const("proof"),
        k.app(k.Const("eq"), tr.tyvar_ref("A"), env.termvar(x), env.termvar(z)),
    )
    assert k.convertible(q0, ty, want)
    _report(5, "replayed transitivity proof checks at proof (eq A x z)")


def test_criterion_06_conversion_compression(q0, monkeypatch):
    bb = hol.fn(hol.BOOL, hol.BOOL)
    f, g = hol.Var("f", bb), hol.Var("g", bb)
    x = hol.Var("x", hol.BOOL)
    tower = hol.AppThm(hol.Refl(f), hol.AppThm(hol.Refl(g), hol.Beta(x, x)))
    env = make_env()
    with rule_by_rule(monkeypatch):  # the tower, one term per rule
        ctx = completeness_context(env, tower)
        plain_term = tr.trans_proof(env, tower)
    packed_env = make_env()
    packed_ctx = completeness_context(packed_env, tower)
    packed_term = tr.trans_proof(packed_env, tower)
    for e, c, t in ((env, ctx, plain_term), (packed_env, packed_ctx, packed_term)):
        want = tr.trans_prop_type(e, hol.check_proof(tower).concl)
        assert k.convertible(q0, k.infer_type(q0, c, t), want)
    # the compressed translation is literally one reflexivity application
    env2 = make_env()
    want_term = k.app(
        k.Const("Refl"),
        k.Const("bool"),
        k.App(env2.termvar(f), k.App(env2.termvar(g), env2.termvar(x))),
    )
    assert tr.trans_proof(env2, tower) == want_term
    assert tr.trans_proof(make_env(), tower) == want_term
    plain_text = dkfile.fmt_term(plain_term)
    packed_text = dkfile.fmt_term(packed_term)
    assert len(packed_text) < len(plain_text)
    _report(
        6,
        f"5-node tower compresses to one reflexivity step "
        f"({len(plain_text)} -> {len(packed_text)} bytes, same type)",
    )


def test_criterion_07_pts_mode(pts):
    tb = k.App(k.Const("term"), k.Const("bool"))
    pf = lambda t: k.App(k.Const("proof"), t)
    p, q = k.Var("p"), k.Var("q")
    imp_intro = next(i for i in pts.items if isinstance(i, k.Defn) and i.name == "imp_intro")
    want_intro = pi("p", tb, pi("q", tb,
        k.arrow(k.arrow(pf(p), pf(q)), pf(k.app(k.Const("imp"), p, q)))))
    assert imp_intro.type == want_intro
    assert k.convertible(pts, k.infer_type(pts, {}, imp_intro.body), want_intro)
    imp_elim = next(i for i in pts.items if isinstance(i, k.Defn) and i.name == "imp_elim")
    want_elim = pi("p", tb, pi("q", tb,
        k.arrow(pf(k.app(k.Const("imp"), p, q)), pf(p), pf(q))))
    assert imp_elim.type == want_elim
    assert k.convertible(pts, k.infer_type(pts, {}, imp_elim.body), want_elim)
    assert normalize(pts, pf(k.app(k.Const("imp"), p, q))) == k.arrow(pf(p), pf(q))
    want_forall = pi("x", k.App(k.Const("term"), k.Var("a")), pf(k.App(p, k.Var("x"))))
    assert normalize(pts, pf(k.app(k.Const("forall"), k.Var("a"), p))) == want_forall
    _report(7, "imp_intro/imp_elim check at the stated types; provability rules rewrite")


def test_criterion_08_confluence_and_normalization(q0):
    from conftest import random_kernel_term
    from test_kernel import _normalize_via, _ri_step

    for seed in range(100):
        t, _ = random_kernel_term(seed)
        lo = _normalize_via(reduce_step, q0, t)
        ri = _normalize_via(_ri_step, q0, t)
        assert lo == ri, f"seed {seed}"
        assert normalize(q0, t, fuel=10**7) == lo
    _report(8, "100/100 terms: both strategies agree and normalization terminates")


def test_criterion_09_substitution_commutation():
    checked = 0
    for seed in range(200):
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
        assert k.convertible(sig, lhs, rhs, fuel=10**6), f"seed {seed}"
        checked += 1
    _report(9, f"{checked}/200 substitution instances convert to substituted translations")


def _proof_nodes(proof, seen):
    seen.add(type(proof).__name__)
    for attr in ("sub", "fun", "arg", "eq", "prem", "lhs", "rhs"):
        child = getattr(proof, attr, None)
        if isinstance(child, hol.Proof):
            _proof_nodes(child, seen)
    defn = getattr(proof, "defn", None)
    if defn is not None:
        _proof_nodes(defn.sub, seen)
    return seen


def test_criterion_10_corpus_pipeline(tmp_path, corpus_paths):
    assert len(corpus_paths) >= 10
    # the corpus exercises every primitive rule, both definition commands
    # and the axiom command (the derived commands appear in the articles
    # themselves and desugar into these)
    seen = set()
    for path in corpus_paths:
        text = path.read_text()
        for cmd in ("sym", "trans", "proveHyp", "betaConv"):
            if f"\n{cmd}\n" in text:
                seen.add(cmd)
        for seq, proof in ot.run_text(text).theorems:
            _proof_nodes(proof, seen)
    required = {
        "Refl", "AbsThm", "AppThm", "Beta", "Assume", "EqMp", "DeductAntiSym",
        "Subst", "Axiom", "DefineConst", "AbsRepThm", "RepAbsThm",
        "sym", "trans", "proveHyp", "betaConv",
    }
    assert required <= seen, f"missing coverage: {required - seen}"
    on = tmp_path / "sharing"
    off = tmp_path / "plain"
    rc = cli.main(["translate", *map(str, corpus_paths), "-o", str(on)])
    assert rc == 0
    rc = cli.main(["translate", "--no-sharing", *map(str, corpus_paths), "-o", str(off)])
    assert rc == 0
    assert cli.main(["check", *map(str, sorted(on.glob("*.dk")))]) == 0
    assert cli.main(["check", *map(str, sorted(off.glob("*.dk")))]) == 0
    on_rows = json.loads((on / "stats.json").read_text())["articles"]
    off_rows = json.loads((off / "stats.json").read_text())["articles"]
    assert any(a["dk_bytes"] != b["dk_bytes"] for a, b in zip(on_rows, off_rows))
    _report(
        10,
        f"{len(corpus_paths)} articles translate and self-verify with exit 0; "
        "sharing changes bytes, not checkability",
    )


def _find_unit_article():
    env_dir = os.environ.get("HOLTRANS_OT_DIR")
    candidates = []
    if env_dir:
        candidates.append(Path(env_dir) / "unit.art")
    candidates.append(Path(__file__).parent / "data" / "unit.art")
    for c in candidates:
        if c.exists():
            return c
    return None


def test_criterion_11_standard_library_unit_package(tmp_path):
    path = _find_unit_article()
    if path is None:
        pytest.skip(
            "OpenTheory standard-library articles not bundled; set HOLTRANS_OT_DIR "
            "or place unit.art under tests/data/ to run this end-to-end check"
        )
    rc = cli.main(["translate", str(path), "-o", str(tmp_path)])
    assert rc == 0
    assert cli.main(["check", str(tmp_path / f"{path.stem}.dk")]) == 0
    rows = json.loads((tmp_path / "stats.json").read_text())["articles"]
    ratio = rows[0]["ratio_gz"]
    assert ratio > 0
    if ratio >= 10:
        print(f"note: gzip size ratio {ratio} exceeds the soft expectation of 10")
    _report(11, f"unit package translates and verifies; gzip size ratio {ratio}")
