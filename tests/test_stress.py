"""Scale checks: deep derivations and a synthetic many-theorem article."""

import time

from holtrans import dkfile, hol
from holtrans import kernel as k
from holtrans import opentheory as ot
from holtrans import translate as tr

from conftest import HolGen, completeness_context, env_signature, make_env


def test_deep_derivation_chain():
    p = hol.Var("p", hol.BOOL)
    taut = hol.Assume(hol.mk_eq(p, p))
    proof = hol.Assume(p)
    for _ in range(800):
        proof = hol.EqMp(taut, proof)
    seq = hol.check_proof(proof)
    assert seq.concl == p
    env = make_env()
    ctx = completeness_context(env, proof)
    term = tr.trans_proof(env, proof)
    sig = env_signature(env)
    ty = k.infer_type(sig, ctx, term, fuel=10**7)
    assert k.convertible(sig, ty, tr.trans_prop_type(env, p))


def test_synthetic_article_end_to_end():
    # many generated theorems exported through the re-serializer, then the
    # regenerated article is replayed and translated with sharing on
    theorems = []
    for seed in range(60):
        gen = HolGen(seed)
        proof = gen.proof(3)
        theorems.append((hol.check_proof(proof), proof))
    state = ot.VMState(theorems=tuple(theorems))
    text = ot.serialize_article(state)
    assert len(text.splitlines()) > 1000

    t0 = time.perf_counter()
    replayed = ot.run_text(text)
    assert len(replayed.theorems) == len(theorems)
    result = tr.translate_state(replayed, "synthetic", sharing=True)
    tr.verify_document(result.document)
    doc_text = dkfile.emit(result.document)
    parsed = dkfile.parse(doc_text)
    assert parsed == result.document
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"pipeline took {elapsed:.1f}s"
