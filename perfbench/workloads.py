"""Deterministic benchmark inputs, pinned by sha256.

Two families of OpenTheory articles are generated here, from the benchmark's
own copy of the random proof generator, so that nothing under ``tests/`` can
change them:

* ``synth``: theorems ``Gen(i).proof(3)`` for ``i < SYNTH_THEOREMS``, in an
  order shuffled by the variant, exported with
  ``opentheory.serialize_article``; the half-size article holds the theorems
  with ``i < SYNTH_THEOREMS // 2``, in the same order.  Every variant thus
  does the same work: which theorems a window of generator seeds picks
  changed translate and check times by up to 20%.
* ``dag``: ``Refl(t_10)`` and ``Refl(t_11)`` where ``t_0 = c : bool`` and
  ``t_(k+1) = (t_k = t_k)``; the writer's ``def``/``ref`` dictionary keeps
  each term a DAG whose tree size is ``2^k``.  The half-size article uses
  depths 9 and 10.

Each family also has a tampered article whose first exported statement is
altered, so the article VM must reject it.

The seed picks one of ``VARIANTS`` variants (``v = seed % VARIANTS``).  The
sha256 of every variant's articles is recorded in ``digests.json``; a run
whose generated articles differ from the record fails, because a change to
``hol`` or ``serialize_article`` would otherwise give the parent commit and
the change different workloads.  Regenerate the record only in a change that
edits the benchmark:

    PYTHONPATH=src python3 perfbench/workloads.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from holtrans import hol
from holtrans import opentheory as ot

VARIANTS = 8
SYNTH_THEOREMS = 40
DAG_DEPTHS = (10, 11)
DIGESTS = Path(__file__).resolve().parent / "digests.json"

LIST_OP = "k.list"
PROD_OP = "k.prod"
CONSTS = {
    "k.f": hol.fn(hol.TyVar("A"), hol.BOOL),
    "k.e": hol.IND,
    "k.g": hol.fn(hol.TyVar("A"), hol.TyOp(LIST_OP, (hol.TyVar("A"),))),
}


class Gen:
    """Random well-typed HOL proofs over two type operators and three
    constants; the same random draws as the test suite's generator."""

    def __init__(self, seed: int, max_type_depth: int = 2):
        self.rng = random.Random(seed)
        self.max_type_depth = max_type_depth
        self.fresh = 0

    def type(self, depth=None) -> hol.HolType:
        if depth is None:
            depth = self.max_type_depth
        atoms = [hol.BOOL, hol.IND, hol.TyVar("A"), hol.TyVar("B")]
        if depth <= 0:
            return self.rng.choice(atoms)
        roll = self.rng.random()
        if roll < 0.45:
            return self.rng.choice(atoms)
        if roll < 0.75:
            return hol.fn(self.type(depth - 1), self.type(depth - 1))
        if roll < 0.9:
            return hol.TyOp(LIST_OP, (self.type(depth - 1),))
        return hol.TyOp(PROD_OP, (self.type(depth - 1), self.type(depth - 1)))

    def _fresh_var(self, ty: hol.HolType) -> hol.Var:
        self.fresh += 1
        return hol.Var(f"v{self.fresh}", ty)

    def term(self, ty: hol.HolType, depth: int, scope: tuple = ()) -> hol.HolTerm:
        candidates = [v for v in scope if v.type == ty]
        if depth <= 0:
            if candidates and self.rng.random() < 0.7:
                return self.rng.choice(candidates)
            const = self._const_at(ty)
            if const is not None and self.rng.random() < 0.3:
                return const
            return self._fresh_var(ty)
        roll = self.rng.random()
        if roll < 0.2 and candidates:
            return self.rng.choice(candidates)
        if roll < 0.45 and isinstance(ty, hol.TyOp) and ty.op == "->":
            v = self._fresh_var(ty.args[0])
            return hol.Abs(v, self.term(ty.args[1], depth - 1, scope + (v,)))
        if roll < 0.6 and ty == hol.BOOL:
            arg_ty = self.type(1)
            lhs = self.term(arg_ty, depth - 1, scope)
            rhs = self.term(arg_ty, depth - 1, scope)
            return hol.mk_eq(lhs, rhs)
        if roll < 0.85:
            arg_ty = self.type(1)
            fn_term = self.term(hol.fn(arg_ty, ty), depth - 1, scope)
            arg = self.term(arg_ty, depth - 1, scope)
            return hol.App(fn_term, arg)
        return self.term(ty, 0, scope)

    def _const_at(self, ty: hol.HolType):
        opts = []
        for name, generic in CONSTS.items():
            if hol.match_type(generic, ty) is not None:
                opts.append(hol.Const(name, ty))
        if hol.match_type(hol.eq_generic(), ty) is not None:
            opts.append(hol.Const(hol.EQ, ty))
        if hol.match_type(hol.select_generic(), ty) is not None:
            opts.append(hol.Const(hol.SELECT, ty))
        return self.rng.choice(opts) if opts else None

    def prop(self, depth: int, scope: tuple = ()) -> hol.HolTerm:
        return self.term(hol.BOOL, depth, scope)

    def eq_proof(self, depth: int, ty=None) -> hol.Proof:
        if ty is None:
            ty = self.type(1)
        if depth <= 0:
            roll = self.rng.random()
            if roll < 0.4:
                return hol.Refl(self.term(ty, 1))
            if roll < 0.7:
                dom = self.type(1)
                v = self._fresh_var(dom)
                return hol.Beta(v, self.term(ty, 1, (v,)))
            return hol.Assume(hol.mk_eq(self.term(ty, 1), self.term(ty, 1)))
        roll = self.rng.random()
        if roll < 0.5:
            arg_ty = self.type(1)
            fun = self.eq_proof(depth - 1, hol.fn(arg_ty, ty))
            arg = self.eq_proof(depth - 1, arg_ty)
            return hol.AppThm(fun, arg)
        if roll < 0.75 and isinstance(ty, hol.TyOp) and ty.op == "->":
            sub = self.eq_proof(depth - 1, ty.args[1])
            hyps = hol.check_proof(sub).hyps
            v = self._fresh_var(ty.args[0])
            while any(v in hol.free_vars(h) for h in hyps):
                v = self._fresh_var(ty.args[0])
            return hol.AbsThm(v, sub)
        return self.eq_proof(0, ty)

    def subst_for(self, sub: hol.Proof) -> hol.HolSubst:
        seq = hol.check_proof(sub)
        theta = []
        for name in sorted(hol.sequent_tyvars(seq)):
            if self.rng.random() < 0.6:
                theta.append((name, self.type(1)))
        theta_d = dict(theta)
        sigma = []
        for v in sorted(hol.sequent_free_vars(seq), key=lambda v: v.name):
            if self.rng.random() < 0.5:
                key = hol.Var(v.name, hol.type_subst(theta_d, v.type))
                sigma.append((key, self.term(key.type, 1)))
        return hol.HolSubst(tuple(theta), tuple(sigma))

    def proof(self, depth: int) -> hol.Proof:
        p = self._proof(depth)
        hol.check_proof(p)
        return p

    def _proof(self, depth: int) -> hol.Proof:
        if depth <= 0:
            roll = self.rng.random()
            if roll < 0.5:
                return hol.Assume(self.prop(1))
            if roll < 0.8:
                return self.eq_proof(0)
            return hol.Axiom((self.prop(1),), self.prop(1))
        roll = self.rng.random()
        if roll < 0.35:
            return self.eq_proof(depth)
        if roll < 0.55:
            eq = self.eq_proof(depth - 1, hol.BOOL)
            phi = hol.dest_eq(hol.check_proof(eq).concl)[0]
            return hol.EqMp(eq, hol.Assume(phi))
        if roll < 0.75:
            return hol.DeductAntiSym(self._proof(depth - 1), self._proof(depth - 1))
        sub = self._proof(depth - 1)
        return hol.Subst(self.subst_for(sub), sub)


def _theorem(proof: hol.Proof) -> tuple:
    return (hol.check_proof(proof), proof)


def synth_order(v: int, n: int = SYNTH_THEOREMS) -> list:
    """Variant ``v``'s order of the generator seeds ``0 .. n-1``."""
    order = list(range(n))
    random.Random(v).shuffle(order)
    return order


def dag_theorems(v: int, depths: tuple = DAG_DEPTHS) -> list:
    terms = [hol.Const(f"dag.c{v}", hol.BOOL)]
    while len(terms) <= max(depths):
        terms.append(hol.mk_eq(terms[-1], terms[-1]))
    return [_theorem(hol.Refl(terms[d])) for d in depths]


def article(theorems: list) -> str:
    return ot.serialize_article(ot.VMState(theorems=tuple(theorems)))


def tampered(theorems: list) -> list:
    """The same proofs with the first stated conclusion ``c`` replaced by
    ``c = c``, which the VM's ``thm`` command must reject."""
    (seq, proof), *rest = theorems
    bad = hol.Sequent(seq.hyps, hol.mk_eq(seq.concl, seq.concl))
    return [(bad, proof), *rest]


def articles(family: str, v: int) -> tuple:
    """The full, half-size and tampered articles of one variant, by role,
    and the number of theorems the full article exports."""
    if family == "synth":
        theorems = [_theorem(Gen(i).proof(3)) for i in range(SYNTH_THEOREMS)]
        order = synth_order(v)
        full = [theorems[i] for i in order]
        half = [theorems[i] for i in order if i < SYNTH_THEOREMS // 2]
    elif family == "dag":
        full = dag_theorems(v)
        half = dag_theorems(v, tuple(d - 1 for d in DAG_DEPTHS))
    else:
        raise ValueError(f"unknown workload family {family!r}")
    texts = {"full": article(full), "half": article(half), "bad": article(tampered(full))}
    return texts, len(full)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pinned_articles(family: str, seed: int) -> tuple:
    """``articles`` for ``seed``; raises if any differs from its record."""
    v = seed % VARIANTS
    texts, n = articles(family, v)
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))[family][str(v)]
    for role, text in texts.items():
        if sha256(text) != want[role]:
            raise RuntimeError(
                f"{family} variant {v} ({role}): generated article differs from "
                "its pinned sha256 in digests.json"
            )
    return texts, n


def _write_digests() -> None:
    sys.setrecursionlimit(100_000)
    record = {
        family: {
            str(v): {role: sha256(text) for role, text in articles(family, v)[0].items()}
            for v in range(VARIANTS)
        }
        for family in ("synth", "dag")
    }
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    _write_digests()
