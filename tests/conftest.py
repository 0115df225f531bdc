import contextlib
import importlib.util
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.setrecursionlimit(100_000)

from holtrans import hol, kernel, translate  # noqa: E402

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def close(t: kernel.Term, *names: str) -> kernel.Term:
    """Bind the telescope ``names``, given outermost first, in one walk of
    ``kernel._close``.

    Free occurrences of the last name become index 0, of the one before it
    index 1, and so on; where a name repeats, the innermost binds.
    """
    return kernel._close(t, {name: i for i, name in enumerate(names)}, len(names) - 1, {})


def lam(name: str, domain: kernel.Term, body: kernel.Term) -> kernel.Abs:
    """Abstraction binding the free variable ``name`` in ``body``."""
    return kernel.Abs(name, domain, close(body, name))


def pi(name: str, domain: kernel.Term, codomain: kernel.Term) -> kernel.Prod:
    """Product binding the free variable ``name`` in ``codomain``."""
    return kernel.Prod(name, domain, close(codomain, name))


@pytest.fixture(scope="session")
def q0():
    return translate.base_signature("q0")


@pytest.fixture(scope="session")
def pts():
    return translate.base_signature("pts")


def _load_perfbench(name: str):
    """``perfbench/<name>.py`` as a module, registered for the dataclasses
    it defines."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave nothing behind in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's article generator, ``perfbench/workloads.py``."""
    return _load_perfbench("workloads")


@pytest.fixture(scope="session")
def bench_run():
    """The benchmark's driver, ``perfbench/run.py``."""
    return _load_perfbench("run")


@pytest.fixture(scope="session")
def corpus_paths():
    paths = sorted(CORPUS.glob("*.art"))
    assert len(paths) >= 10
    return paths


# ---------------------------------------------------------------------------
# Random well-typed HOL terms and proofs.
#
# The generator works over two type operators and three constants; every
# produced proof is validated with check_proof before it is returned, so a
# generator bug fails loudly rather than skewing the properties.

LIST_OP = "k.list"
PROD_OP = "k.prod"
CONSTS = {
    "k.f": hol.fn(hol.TyVar("A"), hol.BOOL),
    "k.e": hol.IND,
    "k.g": hol.fn(hol.TyVar("A"), hol.TyOp(LIST_OP, (hol.TyVar("A"),))),
}


@contextlib.contextmanager
def rule_by_rule(monkeypatch):
    """Within it, the translation gives every compound proof node its own
    rule's term, as it did before conversion compression: only a bare
    ``Refl`` or ``Beta`` node counts as a conversion, so no congruence
    subtree collapses to one reflexivity step, and an ``EqMp`` is dropped
    only over a bare ``Refl`` or ``Beta``."""
    with monkeypatch.context() as m:
        m.setattr(translate, "_pure_conversion", lambda proof, memo: isinstance(proof, (hol.Refl, hol.Beta)))
        yield


def make_env():
    env = translate.TranslationEnv()
    translate.declare_type_op(env, LIST_OP, 1)
    translate.declare_type_op(env, PROD_OP, 2)
    for name, generic in CONSTS.items():
        translate.declare_constant(env, name, generic)
    return env


def completeness_context(env, proof):
    """The open-form context of ``proof``: type variables, term variables,
    hypotheses, each name mapped to its translated type."""
    c = translate.closure_of(env, proof)
    return {name: ty for name, _, ty in translate._telescope(env, c.tyvars, c.termvars, c.hyps)}


def captured_by_instantiation():
    """``Beta(x:A, x:B)``, then ``x:A := y:A``, then ``A := B``: the last
    step turns the binder ``x:A`` into ``x:B``, which would capture the free
    ``x:B`` in its body and prove ``|- y = x`` up to beta."""
    a, b = hol.TyVar("A"), hol.TyVar("B")
    xa, xb, ya = hol.Var("x", a), hol.Var("x", b), hol.Var("y", a)
    renamed = hol.Subst(hol.HolSubst(sigma=((xa, ya),)), hol.Beta(xa, xb))
    return hol.Subst(hol.HolSubst(theta=(("A", b),)), renamed)


def env_signature(env, mode="q0"):
    """The base signature of ``mode`` extended with the environment's declarations."""
    return kernel.Signature(
        tuple(translate.base_signature(mode).items) + tuple(env.decls)
    )


class HolGen:
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

    # -- proofs ------------------------------------------------------------

    def eq_proof(self, depth: int, ty=None) -> hol.Proof:
        """A derivation concluding an equality at ``ty``."""
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
                image = self.term(key.type, 1)
                sigma.append((key, image))
        return hol.HolSubst(tuple(theta), tuple(sigma))

    def proof(self, depth: int) -> hol.Proof:
        p = self._proof(depth)
        hol.check_proof(p)  # generator invariant: everything produced checks
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


def random_hol_term(seed: int, depth: int = 3):
    gen = HolGen(seed)
    ty = gen.type()
    return gen.term(ty, depth), ty


def random_kernel_term(seed: int, env=None, depth: int = 3):
    """A well-typed kernel term over the base signature, via translation."""
    if env is None:
        env = make_env()
    term, _ = random_hol_term(seed, depth)
    return translate.trans_term(env, term), term


# ---------------------------------------------------------------------------
# Beta-normal forms of HOL terms, by tree walks: the tests' oracle


def beta_step_tree(t):
    """One leftmost-outermost contraction, or None in normal form."""
    if isinstance(t, hol.App):
        if isinstance(t.fn, hol.Abs):
            return hol.apply_subst(hol.HolSubst(sigma=((t.fn.var, t.arg),)), t.fn.body)
        rf = beta_step_tree(t.fn)
        if rf is not None:
            return hol.App(rf, t.arg)
        ra = beta_step_tree(t.arg)
        if ra is not None:
            return hol.App(t.fn, ra)
        return None
    if isinstance(t, hol.Abs):
        rb = beta_step_tree(t.body)
        if rb is not None:
            return hol.Abs(t.var, rb)
        return None
    return None


def beta_normalize_tree(t):
    """The beta-normal form of ``t``: contract leftmost-outermost until no
    redex is left, each step a walk of the whole tree."""
    while True:
        r = beta_step_tree(t)
        if r is None:
            return t
        t = r


# ---------------------------------------------------------------------------
# Positions in kernel terms, for mutation tests.


def subterms(t):
    """Every subterm, in preorder: a list index is a preorder position."""
    out, stack = [], [t]
    while stack:
        u = stack.pop()
        out.append(u)
        if isinstance(u, kernel.App):
            stack += [u.arg, u.fn]
        elif isinstance(u, (kernel.Abs, kernel.Prod)):
            stack += [u.body, u.domain]
    return out


def count_calls(monkeypatch, module, name, run):
    """How often ``run()`` calls ``module.name``, recursive calls included."""
    calls = [0]
    inner = getattr(module, name)

    def counting(*args):
        calls[0] += 1
        return inner(*args)

    with monkeypatch.context() as m:
        m.setattr(module, name, counting)
        run()
    return calls[0]


def replace_at(t, pos, new):
    """``t`` with the subterm at preorder position ``pos`` replaced by ``new``."""
    if pos == 0:
        return new
    pos -= 1
    if isinstance(t, kernel.App):
        if pos < t.fn.size:
            return kernel.App(replace_at(t.fn, pos, new), t.arg)
        return kernel.App(t.fn, replace_at(t.arg, pos - t.fn.size, new))
    first = t.domain
    second = t.body
    if pos < first.size:
        first = replace_at(first, pos, new)
    else:
        second = replace_at(second, pos - first.size, new)
    return type(t)(t.hint, first, second)


def mutate(data, rng, inserts):
    """``data`` (a str or bytes) with a short span deleted, duplicated or
    swapped with the span after it, or with one of ``inserts`` put in.
    Spans are about a token or two long, so that many mutants still parse."""
    i = rng.randrange(len(data) + 1)
    j = min(len(data), i + rng.randrange(1, 12))
    roll = rng.randrange(4)
    if roll == 0:
        return data[:i] + data[j:]
    if roll == 1:
        return data[:j] + data[i:j] + data[j:]
    if roll == 2:
        k = min(len(data), j + rng.randrange(1, 12))
        return data[:i] + data[j:k] + data[i:j] + data[k:]
    return data[:i] + rng.choice(inserts) + data[i:]
