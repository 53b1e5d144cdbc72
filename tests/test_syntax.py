"""Core syntax laws: occurrences against a naive oracle, erasure and
substitution commutation, abstraction/substitution inverses."""

import copy
import dataclasses
import gc
import pathlib
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from fintt import syntax
from fintt.errors import ArityMismatch, KernelError, UnboundIndex, VarInAnnotation
from fintt.instantiation import Instantiation, act
from fintt.judgements import plain
from fintt.parser import elaborate, parse_theory
from fintt.printer import print_expr
from fintt.syntax import (
    Abstr,
    Abstracted,
    AsmArg,
    AssumptionSet,
    BoundVar,
    Cls,
    Convert,
    DUMMY,
    DummyArg,
    EqTm,
    EqTmB,
    EqTy,
    EqTyB,
    ExprArg,
    FreeVar,
    IsTm,
    IsTmB,
    IsTy,
    IsTyB,
    MetaApp,
    MetaArity,
    MetaName,
    Signature,
    SymbolApp,
    SymbolArity,
    abstract_var,
    arity_check,
    asm,
    boundary_arity,
    bv,
    close_var,
    double_erase,
    erase,
    erased_equal,
    fv,
    fv0,
    fvt,
    mv,
    mv_shallow,
    rename_atoms,
    shift,
    subst_bound,
    subst_bound_many,
    subst_free,
    substitute,
)
from fintt.theory import _annotate

from .gen import ExprGen, corpus_signature

SIG = corpus_signature()
CORPUS = pathlib.Path(__file__).resolve().parent / "corpus"
BOOL = SymbolApp("bool", ())
NAT = SymbolApp("nat", ())


def succ(t):
    return SymbolApp("succ", (ExprArg(t),))


# ---------------------------------------------------------------------------
# An independent occurrence oracle: transliterates the defining equations
# one case at a time, with explicit depth bookkeeping and list accumulators.


def oracle_occurrences(x, depth=0):
    """Returns (fv0, bv, mv-shallow-heads-with-annotation-descent) as lists."""
    free, bound, metas = [], [], []

    def annot_of_meta(m):
        if m.annotation is not None:
            f, b, mm = oracle_occurrences(m.annotation, 0)
            return f, mm
        return [], []

    def go(x, depth):
        if isinstance(x, FreeVar):
            free.append(x)
        elif isinstance(x, BoundVar):
            if x.index >= depth:
                bound.append(x.index - depth)
        elif isinstance(x, SymbolApp):
            for a in x.args:
                go(a, depth)
        elif isinstance(x, MetaApp):
            metas.append(x.meta)
            for f, mm in [annot_of_meta(x.meta)]:
                for v in f:
                    pass  # the deep meta oracle handles annotations below
            for t in x.args:
                go(t, depth)
        elif isinstance(x, Convert):
            go(x.term, depth)
            go(x.assumptions, depth)
        elif isinstance(x, AssumptionSet):
            free.extend(x.free_vars)
            for i in x.bound_vars:
                if i >= depth:
                    bound.append(i - depth)
            metas.extend(x.metas)
        elif isinstance(x, ExprArg):
            go(x.expr, depth)
        elif isinstance(x, Abstr):
            go(x.body, depth + 1)
        elif isinstance(x, IsTy):
            go(x.ty, depth)
        elif isinstance(x, IsTm):
            go(x.term, depth)
            go(x.ty, depth)
        elif isinstance(x, EqTy):
            go(x.lhs, depth)
            go(x.rhs, depth)
            go(x.by, depth)
        elif isinstance(x, IsTmB):
            go(x.ty, depth)
        elif isinstance(x, (EqTyB, EqTmB)):
            go(x.lhs, depth)
            go(x.rhs, depth)
            go(getattr(x, "ty", None), depth)
        elif isinstance(x, EqTm):
            go(x.lhs, depth)
            go(x.rhs, depth)
            go(x.ty, depth)
            go(x.by, depth)
        elif isinstance(x, Abstracted):
            for i, ty in enumerate(x.prefix):
                go(ty, depth + i)
            go(x.body, depth + len(x.prefix))
        elif x is DUMMY or x is None or isinstance(x, IsTyB):
            pass
        else:
            raise TypeError(x)

    go(x, depth)
    return free, bound, metas


def oracle_fv(x):
    """All free variables including annotation closure, via worklist."""
    out = set()
    work = list(oracle_occurrences(x)[0])
    while work:
        v = work.pop()
        if v in out:
            continue
        out.add(v)
        if v.annotation is not None:
            work.extend(oracle_occurrences(v.annotation)[0])
    return out


def oracle_mv(x):
    out = set()
    work = list(oracle_occurrences(x)[2])
    for v in oracle_fv(x):
        if v.annotation is not None:
            work.extend(oracle_occurrences(v.annotation)[2])
    while work:
        m = work.pop()
        if m in out:
            continue
        out.add(m)
        if m.annotation is not None:
            f, _, mm = oracle_occurrences(m.annotation)
            work.extend(mm)
            for v in f:
                for u in oracle_fv(v):
                    if u.annotation is not None:
                        work.extend(oracle_occurrences(u.annotation)[2])
    return out


def assert_occurrences_match_oracle(e):
    f0, b, _ = oracle_occurrences(e)
    assert fv0(e) == frozenset(f0)
    assert bv(e) == frozenset(b)
    assert fv(e) == frozenset(oracle_fv(e))
    assert mv(e) == frozenset(oracle_mv(e))
    a = asm(e)
    assert a.free_vars == fv(e)
    assert a.bound_vars == bv(e)
    assert a.metas == mv(e)


def with_meta(e: Abstracted, m: MetaName) -> Abstracted:
    """``e`` under one more binder, whose type mentions ``m`` as an
    application, in an annotation and in an assumption set."""
    m_ty = MetaApp(m, ())
    c = FreeVar("c", m_ty)
    by_m = AssumptionSet(frozenset([c]), frozenset(), frozenset([m]))
    planted = SymbolApp("Id", (ExprArg(m_ty), ExprArg(c), ExprArg(Convert(c, by_m))))
    return Abstracted(e.prefix + (planted,), shift(e.body, 1))


@pytest.mark.parametrize("seed", range(40))
def test_occurrences_agree_with_oracle(seed):
    rng = random.Random(seed)
    g = ExprGen(rng, cf=True)
    m = MetaName("M", plain(IsTyB()))
    for _ in range(25):
        e = g.abstracted(depth=rng.randrange(7))
        assert_occurrences_match_oracle(e)
        # The outputs below are rebuilt around children whose occurrences
        # were already computed for their inputs.
        binders = len(e.prefix)
        s = g.tm(2, max(binders - 1, 0))
        y = with_meta(e, m)
        inst = Instantiation([(m, ExprArg(g.ty(2)))])
        for x in (s, y, inst[m]):
            asm(x)
        assert_occurrences_match_oracle(shift(e.body, 2, 1))
        assert_occurrences_match_oracle(subst_bound(e.body, s, 0))
        assert_occurrences_match_oracle(act(inst, y))


def succ_n(n, t):
    for _ in range(n):
        t = succ(t)
    return t


def same(got, want):
    assert got is want


def equal(got, want):
    assert got == want


X, Y = FreeVar("x", NAT), FreeVar("y", NAT)
M = MetaName("M", plain(IsTmB(NAT)))
# Each rewrite below is checked on a 2,000-deep input; ``t`` is succ^2000(x).
DEEP_REWRITES = {
    "shift": lambda t: same(shift(succ_n(2000, BoundVar(0)), 1), succ_n(2000, BoundVar(1))),
    "subst_bound": lambda t: same(subst_bound(succ_n(2000, BoundVar(0)), Y), succ_n(2000, Y)),
    "subst_bound_many": lambda t: same(
        subst_bound_many(succ_n(2000, BoundVar(1)), (Y, X)), succ_n(2000, Y)
    ),
    "close_var": lambda t: same(close_var(t, X), succ_n(2000, BoundVar(0))),
    "subst_free": lambda t: same(subst_free(t, X, Y), succ_n(2000, Y)),
    "rename_atoms": lambda t: same(rename_atoms(t, {X: Y}, {}), succ_n(2000, Y)),
    "act": lambda t: same(
        act(Instantiation([(M, ExprArg(t))]), succ_n(2000, MetaApp(M, ()))), succ_n(4000, X)
    ),
    "annotate": lambda t: same(
        _annotate(succ_n(2000, MetaApp(MetaName("M"), ())), {"M": M}),
        succ_n(2000, MetaApp(M, ())),
    ),
    "print_expr": lambda t: equal(print_expr(t), "succ(" * 2000 + "x^nat" + ")" * 2000),
}


@pytest.mark.parametrize(
    "walk",
    [
        hash,
        fv,
        bv,
        mv,
        asm,
        erase,
        double_erase,
        lambda t: t == succ_n(2000, FreeVar("x", NAT)),
        lambda t: arity_check(SIG, {}, t),
        *DEEP_REWRITES.values(),
    ],
    ids=["hash", "fv", "bv", "mv", "asm", "erase", "double_erase", "eq", "arity_check",
         *DEEP_REWRITES],
)
def test_walks_on_deep_terms_stay_off_the_call_stack(walk):
    x = FreeVar("x", NAT)
    t = succ_n(2000, x)
    walk(t)
    assert asm(t) == asm(x)


def test_deep_copies_are_one_node():
    t = succ_n(2000, FreeVar("x", NAT))
    u = succ_n(2000, FreeVar("x", NAT))
    assert t is u
    assert t == u
    assert erase(t) is t
    assert double_erase(t) is succ_n(2000, FreeVar("x"))


def test_threads_building_one_term_get_one_node():
    results = []

    def build():
        results.append([succ_n(300, FreeVar(f"t{i}", NAT)) for i in range(20)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    for terms in results[1:]:
        assert all(a is b for a, b in zip(terms, results[0]))


NODE_CLASSES = {c for c in vars(syntax).values() if isinstance(c, type) and hasattr(c, "_interned")}


def interned() -> int:
    return sum(len(c._interned) for c in NODE_CLASSES)


def test_the_shape_table_names_every_node_class():
    assert set(syntax._SHAPES) == NODE_CLASSES


def test_every_construction_path_returns_the_interned_node():
    assert len(NODE_CLASSES) == 20
    a = FreeVar("a", NAT)
    eq = EqTm(a, succ(a), NAT)
    assert hash(eq) == hash((a, succ(a), NAT, DUMMY))
    for x in (
        EqTm(a, succ(a), NAT, DUMMY),
        EqTm(lhs=a, rhs=succ(a), ty=NAT, by=DUMMY),
        EqTm(a, succ(a), ty=NAT),
        dataclasses.replace(eq),
        dataclasses.replace(EqTm(a, a, NAT), rhs=succ(a)),
        copy.copy(eq),
        copy.deepcopy(eq),
        pickle.loads(pickle.dumps(eq)),
    ):
        assert x is eq
    for x in (DummyArg(), copy.deepcopy(DUMMY), pickle.loads(pickle.dumps(DUMMY))):
        assert x is DUMMY
    asms = AssumptionSet(frozenset([a]))
    assert pickle.loads(pickle.dumps(asms)) is AssumptionSet(free_vars=frozenset([a]))
    # A node that an instantiation acted on holds its plan, which is not a
    # field: construction paths still return the node, and pickling drops it.
    acted = EqTm(a, succ(MetaApp(M, ())), NAT)
    pickled = pickle.dumps(acted)
    act(Instantiation([(M, ExprArg(a))]), acted)
    assert acted._plan is not None
    assert "_plan" not in {f.name for f in dataclasses.fields(acted)}
    for x in (
        dataclasses.replace(acted),
        copy.copy(acted),
        copy.deepcopy(acted),
        pickle.loads(pickle.dumps(acted)),
    ):
        assert x is acted
    assert pickle.dumps(acted) == pickled

    gc.collect()
    before = interned()
    junk = [succ(FreeVar(f"junk{i}", NAT)) for i in range(10_000)]
    assert interned() >= before + 30_000
    del junk
    gc.collect()
    assert interned() <= before


def test_an_acted_node_leaves_no_reference_cycle():
    """With the cycle collector off, an acted node and its plan die with
    their last reference and leave the intern tables, and so do the fresh
    atoms in it, a free variable and an annotated metavariable, whose
    occurrence summaries were computed."""
    gc.collect()
    gc.disable()
    try:
        before = interned()
        probe = FreeVar("cycle#probe", SymbolApp("cycle#ty", ()))
        meta = MetaName("cycle#M", plain(IsTmB(SymbolApp("cycle#ty", ()))))
        x = Abstr(
            ExprArg(
                SymbolApp(
                    "Id",
                    (
                        ExprArg(NAT),
                        ExprArg(succ_n(100, SymbolApp("cycle#probe", ()))),
                        ExprArg(succ(MetaApp(M, (BoundVar(0),)))),
                        ExprArg(succ(MetaApp(meta, ()))),
                    ),
                )
            )
        )
        inst = Instantiation([(M, Abstr(ExprArg(succ(BoundVar(0))))), (meta, ExprArg(probe))])
        first, second = act(inst, x), act(inst, x)
        assert first is second and x._plan is not None
        assert probe in fv(first) and fv(probe) == {probe} and meta in mv(x)
        assert interned() > before + 100
        del x, inst, first, second, probe, meta
        assert interned() <= before
    finally:
        gc.enable()


def test_an_atom_is_in_its_own_occurrences_but_not_in_its_cache():
    """The summary cached on an atom leaves the atom out; ``_occurrences``,
    which every reader goes through, puts it back.  Anything but a syntax
    node or ``None`` has no occurrences."""
    a = FreeVar("own#a", NAT)
    m = MetaName("own#M", plain(IsTmB(MetaApp(M, ()))))
    assert fv0(a) == fv(a) == {a} and mv(a) == frozenset()
    assert mv(m) == {m, M} and fv(m) == frozenset()
    assert a not in a._occ[syntax._FV0] and a not in a._occ[syntax._FV]
    assert m not in m._occ[syntax._MV]
    with pytest.raises(TypeError):
        fv("own#a")


def test_fv0_and_fvt_on_annotated_var():
    a_bool = FreeVar("a", BOOL)
    assert fv0(a_bool) == frozenset([a_bool])
    assert fvt(a_bool) == fv(BOOL) == frozenset()
    b_ann = FreeVar("b", SymbolApp("Id", (ExprArg(BOOL), ExprArg(a_bool), ExprArg(a_bool))))
    assert fv0(b_ann) == frozenset([b_ann])
    assert fvt(b_ann) == frozenset([a_bool])
    assert fv(b_ann) == frozenset([b_ann, a_bool])


def test_asm_of_convert():
    a_bool = FreeVar("a", BOOL)
    b_bool = FreeVar("b", BOOL)
    t = Convert(b_bool, AssumptionSet(frozenset([a_bool]), frozenset(), frozenset()))
    got = asm(t)
    assert got.free_vars == frozenset([a_bool, b_bool])
    assert got.bound_vars == frozenset()


def test_binder_removes_bound_variable():
    arg = Abstr(ExprArg(succ(BoundVar(0))))
    assert bv(arg) == frozenset()
    assert bv(succ(BoundVar(0))) == frozenset([0])


# ---------------------------------------------------------------------------
# Arity checking


def test_arity_check_examples():
    A = SymbolApp("bool", ())
    pi_ok = SymbolApp("Pi", (ExprArg(A), Abstr(ExprArg(A))))
    arity_check(SIG, {}, pi_ok)
    with pytest.raises(ArityMismatch):
        arity_check(SIG, {}, SymbolApp("Pi", (ExprArg(A),)))
    arity_check(SIG, {}, SymbolApp("bool", ()))
    with pytest.raises(ArityMismatch):
        arity_check(SIG, {}, SymbolApp("Pi", (ExprArg(A), ExprArg(A))))


def test_arity_check_unbound_index():
    with pytest.raises(UnboundIndex):
        arity_check(SIG, {}, succ(BoundVar(0)))
    arity_check(SIG, {}, Abstr(ExprArg(succ(BoundVar(0)))))


def test_arity_check_metas():
    m = MetaName("M")
    metas = {m: MetaArity(Cls.TM, 2)}
    ok = MetaApp(m, (FreeVar("a"), FreeVar("b")))
    arity_check(SIG, metas, ok)
    with pytest.raises(ArityMismatch):
        arity_check(SIG, metas, MetaApp(m, (FreeVar("a"),)))


# The oracle: ``arity_check`` as it was, one recursive walk per call and no
# record of passes.


def oracle_arity_check(sig, metas, x, depth=0):
    cls_of = syntax.ClsOf(sig, metas)

    def expect(e, c):
        if cls_of(e) != c:
            raise ArityMismatch(f"expected a {c.value} expression, found {cls_of(e).value}")

    def check(x, depth):
        match x:
            case FreeVar(_, ann):
                if ann is not None:
                    check(ann, 0)
            case BoundVar(index=i):
                if i < 0 or i >= depth:
                    raise UnboundIndex(f"index {i} under {depth} binders")
            case SymbolApp(symbol=s, args=args):
                arity = sig[s]
                if len(args) != len(arity.args):
                    raise ArityMismatch(f"{s} expects {len(arity.args)} arguments, got {len(args)}")
                for slot, arg in zip(arity.args, args):
                    check_arg(slot, arg, depth)
            case MetaApp(meta=m, args=args):
                ar = cls_of.meta_arity(m)
                if len(args) != ar.binders:
                    raise ArityMismatch(f"{m.name} expects {ar.binders} arguments, got {len(args)}")
                for t in args:
                    check(t, depth)
                    if cls_of(t) != Cls.TM:
                        raise ArityMismatch(f"argument of {m.name} must be a term")
                if m.annotation is not None:
                    check(m.annotation, 0)
            case Convert(term=t, assumptions=a):
                check(t, depth)
                if cls_of(t) != Cls.TM:
                    raise ArityMismatch("convert wraps term expressions only")
                check(a, depth)
            case AssumptionSet(free_vars=fvs, bound_vars=bvs, metas=ms):
                for v in fvs:
                    check(v, 0)
                for i in bvs:
                    if i < 0 or i >= depth:
                        raise UnboundIndex(f"index {i} under {depth} binders")
                for m in ms:
                    if m.annotation is not None:
                        check(m.annotation, 0)
                    else:
                        cls_of.meta_arity(m)
            case ExprArg(expr=e):
                check(e, depth)
            case DummyArg() | IsTyB():
                pass
            case AsmArg(assumptions=a):
                check(a, depth)
            case Abstr(body=b):
                check(b, depth + 1)
            case IsTy(ty=a) | IsTmB(ty=a):
                check(a, depth)
                expect(a, Cls.TY)
            case IsTm(term=t, ty=a):
                check(t, depth)
                check(a, depth)
                expect(t, Cls.TM)
                expect(a, Cls.TY)
            case EqTy(lhs=a, rhs=b, by=by):
                check(a, depth)
                check(b, depth)
                expect(a, Cls.TY)
                expect(b, Cls.TY)
                check(by, depth)
            case EqTm(lhs=u, rhs=t, ty=a, by=by):
                for e in (u, t, a):
                    check(e, depth)
                expect(u, Cls.TM)
                expect(t, Cls.TM)
                expect(a, Cls.TY)
                check(by, depth)
            case EqTyB(lhs=a, rhs=b):
                check(a, depth)
                check(b, depth)
                expect(a, Cls.TY)
                expect(b, Cls.TY)
            case EqTmB(lhs=u, rhs=t, ty=a):
                for e in (u, t, a):
                    check(e, depth)
                expect(u, Cls.TM)
                expect(t, Cls.TM)
                expect(a, Cls.TY)
            case Abstracted(prefix=pfx, body=body):
                for i, ty in enumerate(pfx):
                    check(ty, depth + i)
                    expect(ty, Cls.TY)
                check(body, depth + len(pfx))
            case _:
                raise TypeError(f"cannot arity-check {x!r}")

    def check_arg(slot, arg, depth):
        binders = 0
        inner = arg
        while isinstance(inner, Abstr):
            binders += 1
            inner = inner.body
        if binders != slot.binders:
            raise ArityMismatch(f"argument binds {binders} variables, expected {slot.binders}")
        match inner:
            case ExprArg(expr=e):
                check(e, depth + binders)
                if cls_of(e) != slot.cls:
                    raise ArityMismatch(f"argument class {cls_of(e)} does not fit slot {slot.cls}")
            case DummyArg():
                if not slot.cls.is_equality:
                    raise ArityMismatch("dummy argument in object-class slot")
            case AsmArg(assumptions=a):
                if not slot.cls.is_equality:
                    raise ArityMismatch("assumption-set argument in object-class slot")
                check(a, depth + binders)

    check(x, depth)


def arity_outcome(check, sig, metas, x, depth=0):
    try:
        check(sig, metas, x, depth)
    except (KernelError, TypeError) as exc:
        return type(exc), str(exc)
    return None


def rule_checks(theory):
    """Each (metavariable arities, value) that ``check_raw`` arity-checks
    in the rules of ``theory``: every premise boundary over the earlier
    premises, then the conclusion over all of them."""
    for r in theory.rules:
        seen = {}
        for m, b in r.rule.premises:
            yield dict(seen), b
            seen[m] = boundary_arity(b)
        yield dict(seen), plain(r.rule.conclusion)


EXPRS = (FreeVar, BoundVar, SymbolApp, MetaApp, Convert)


def expression_paths(x, path=()):
    """The paths (child indices in ``syntax._SHAPES``) to the expressions
    in ``x``, outside atoms' annotations."""
    if type(x) in EXPRS:
        yield path
    for i, c in enumerate(syntax._SHAPES[type(x)][0](x)):
        yield from expression_paths(c, (*path, i))


def replace_at(x, path, new):
    if not path:
        return new
    children, _, rebuild = syntax._SHAPES[type(x)]
    kids = list(children(x))
    kids[path[0]] = replace_at(kids[path[0]], path[1:], new)
    return rebuild(x, tuple(kids))


# Two defects each, put at two disjoint places of a checked value.
DEFECT_PAIRS = {
    "bad arity, unbound index": (SymbolApp("Pi", ()), BoundVar(7)),
    "unbound index, bad arity": (BoundVar(7), SymbolApp("Pi", ())),
    "wrong class, unknown symbol": (FreeVar("w"), SymbolApp("nosuch", ())),
    "unknown symbol, wrong class": (SymbolApp("nosuch", ()), FreeVar("w")),
    "wrong class, bad arity": (SymbolApp("zero", ()), SymbolApp("succ", ())),
}


def mutants(x, rng, n):
    paths = list(expression_paths(x))
    pairs = [
        (p, q) for p in paths for q in paths
        if p != q and p[: len(q)] != q and q[: len(p)] != p
    ]
    for p, q in rng.sample(pairs, min(n, len(pairs))):
        for first, second in DEFECT_PAIRS.values():
            yield replace_at(replace_at(x, p, first), q, second)


@pytest.mark.parametrize("flavor", ["cf", "tt"])
def test_arity_check_agrees_with_the_recursive_walk(flavor):
    """On the corpus rules, then on each with two defects at two places:
    the same error class and message, or a pass, before and after the
    originals' passes are recorded on the signature."""
    rng = random.Random(13)
    checked = mutated = 0
    for path in sorted(CORPUS.glob("*.ftt")):
        theory = elaborate(parse_theory(path.read_text()), flavor)
        cases = list(rule_checks(theory))
        for metas, x in cases:
            # Cold: a fresh copy of the signature records nothing yet.
            cold = Signature((s, theory.signature[s]) for s in theory.signature)
            want = arity_outcome(oracle_arity_check, cold, metas, x)
            assert arity_outcome(arity_check, cold, metas, x) == want
            assert arity_outcome(arity_check, theory.signature, metas, x) == want
            checked += 1
        for metas, x in cases:
            for bad in mutants(x, rng, 12):
                want = arity_outcome(oracle_arity_check, theory.signature, metas, bad)
                assert want is not None
                assert arity_outcome(arity_check, theory.signature, metas, bad) == want
                mutated += 1
    assert checked >= 20 and mutated >= 200


W, NOSUCH, ZERO = FreeVar("w"), SymbolApp("nosuch", ()), SymbolApp("zero", ())
M2 = MetaName("M2")
# Values with two failures, where the walk's order decides which comes first.
TWO_FAILURES = {
    "prefix type class, then a later prefix type": Abstracted((W, NOSUCH), IsTyB()),
    "argument class, then a later argument": MetaApp(M2, (NAT, NOSUCH)),
    "equation side class, then its assumption set": EqTy(
        W, NAT, AssumptionSet(bound_vars=frozenset([5]))
    ),
    "converted term class, then its assumption set": Convert(
        NAT, AssumptionSet(bound_vars=frozenset([3]))
    ),
    "slot class, then a later argument": SymbolApp(
        "Pi", (ExprArg(ZERO), Abstr(ExprArg(NOSUCH)))
    ),
    "judgement children, then their classes": IsTm(NAT, NOSUCH),
    "free variables, then bound indices": AssumptionSet(
        frozenset([FreeVar("v", NOSUCH)]), frozenset([4])
    ),
    "bound indices, then metavariables": AssumptionSet(
        bound_vars=frozenset([4]), metas=frozenset([MetaName("U")])
    ),
}


@pytest.mark.parametrize("x", TWO_FAILURES.values(), ids=TWO_FAILURES.keys())
def test_arity_check_reports_the_first_failure_of_the_recursive_walk(x):
    sig = Signature([*((s, SIG[s]) for s in SIG), ("zero", SymbolArity(Cls.TM, ()))])
    metas = {M2: MetaArity(Cls.TM, 2)}
    want = arity_outcome(oracle_arity_check, sig, metas, x)
    assert want is not None
    assert arity_outcome(arity_check, sig, metas, x) == want


def test_a_recorded_pass_needs_the_same_arities_and_enough_binders():
    """A subterm that passed is walked again where a metavariable it
    mentions has another arity, or where it sits under fewer binders."""
    sig = corpus_signature()
    a = MetaName("A")
    x = SymbolApp("Pi", (ExprArg(MetaApp(a, ())), Abstr(ExprArg(MetaApp(a, ())))))
    arity_check(sig, {a: MetaArity(Cls.TY, 0)}, x)
    for metas in ({a: MetaArity(Cls.TY, 1)}, {a: MetaArity(Cls.TM, 0)}, {}):
        want = arity_outcome(oracle_arity_check, sig, metas, x)
        assert want is not None
        assert arity_outcome(arity_check, sig, metas, x) == want
    under_one = succ(BoundVar(0))
    arity_check(sig, {}, under_one, 1)
    assert arity_outcome(arity_check, sig, {}, under_one, 0) == (
        UnboundIndex, "index 0 under 0 binders"
    )
    arity_check(sig, {}, under_one, 3)
    arity_check(sig, {}, under_one, 2)


# ---------------------------------------------------------------------------
# Abstraction and substitution


def test_abstract_var_basic():
    a_bool = FreeVar("a", BOOL)
    assert abstract_var(a_bool, a_bool) == Abstr(ExprArg(BoundVar(0)))
    b_ann = FreeVar("b", NAT)
    assert abstract_var(b_ann, a_bool) == Abstr(ExprArg(b_ann))


def test_abstract_var_in_assumption_set():
    a_bool = FreeVar("a", BOOL)
    alpha = AssumptionSet(frozenset([a_bool]), frozenset(), frozenset())
    out = abstract_var(AsmOf(alpha), a_bool)
    assert out == Abstr(AsmOf(AssumptionSet(frozenset(), frozenset([0]), frozenset())))


def AsmOf(alpha):
    from fintt.syntax import AsmArg

    return AsmArg(alpha)


def test_abstract_var_rejects_annotation_occurrence():
    a_bool = FreeVar("a", BOOL)
    b_at_a = FreeVar("b", SymbolApp("Id", (ExprArg(BOOL), ExprArg(a_bool), ExprArg(a_bool))))
    with pytest.raises(VarInAnnotation):
        abstract_var(b_at_a, a_bool)
    m_at_a = MetaName("M", plain(IsTmB(b_at_a.annotation)))
    with pytest.raises(VarInAnnotation):
        abstract_var(succ(MetaApp(m_at_a, ())), a_bool)


def test_substitute_identity():
    s = succ(FreeVar("a"))
    assert substitute(Abstr(ExprArg(BoundVar(0))), s) == ExprArg(s)


def test_substitution_into_assumption_set():
    a_bool = FreeVar("a", BOOL)
    m = MetaName("M")
    alpha = AssumptionSet(frozenset(), frozenset([0]), frozenset([m]))
    s = a_bool
    out = subst_bound(alpha, s, 0)
    assert out.free_vars == frozenset([a_bool])
    assert out.bound_vars == frozenset()
    assert out.metas == frozenset([m])


@pytest.mark.parametrize("seed", range(30))
def test_abstract_substitute_round_trip(seed):
    rng = random.Random(seed)
    g = ExprGen(rng, cf=True)
    fresh = FreeVar("zz", BOOL)
    bare = MetaName("M")
    annotated = MetaName("M", plain(IsTyB()))
    for _ in range(20):
        y = with_meta(g.abstracted(3), bare)
        for a, c in ((1, 0), (2, 1), (3, 2)):
            assert shift(shift(y, a, c), -a, c) is y
        var_map = {v: FreeVar(f"{v.name}#r", v.annotation) for v in fv0(y)}
        meta_map = {m: MetaName(f"{m.name}#r", m.annotation) for m in mv_shallow(y)}
        renamed = rename_atoms(y, var_map, meta_map)
        assert renamed is not y
        assert rename_atoms(renamed, _inverse(var_map), _inverse(meta_map)) is y
        once = _annotate(y, {"M": annotated})
        assert bare not in mv(once)
        assert _annotate(once, {"M": annotated}) is once
        e = g.tm(3)
        if fresh in fv(e):
            continue
        closed = abstract_var(e, fresh)
        assert substitute(closed, fresh) == ExprArg(e)
        # and the other way: substitute then abstract a fresh variable
        arg = Abstr(ExprArg(g.tm(2, binders=1)))
        opened = substitute(arg, fresh)
        if fresh in fvt(opened):
            continue
        assert abstract_var(opened.expr, fresh) == arg


def _inverse(renaming: dict) -> dict:
    return {new: old for old, new in renaming.items()}


# ---------------------------------------------------------------------------
# Erasure


def test_erase_examples():
    a_bool = FreeVar("a", BOOL)
    alpha = AssumptionSet(frozenset([a_bool]), frozenset(), frozenset())
    t = Convert(succ(a_bool), alpha)
    assert erase(t) == succ(a_bool)
    from fintt.syntax import AsmArg

    assert erase(AsmArg(alpha)) == DUMMY
    plain_arg = SymbolApp("succ", (ExprArg(a_bool),))
    assert erase(plain_arg) == plain_arg


def test_double_erase_examples():
    a_bool = FreeVar("a", BOOL)
    alpha = AssumptionSet(frozenset([a_bool]), frozenset(), frozenset())
    assert double_erase(a_bool) == FreeVar("a", None)
    assert double_erase(Convert(a_bool, alpha)) == FreeVar("a", None)


@pytest.mark.parametrize("seed", range(30))
def test_erase_commutes_with_substitution(seed):
    rng = random.Random(seed)
    g = ExprGen(rng, cf=True)
    for _ in range(20):
        body = g.tm(3, binders=1)
        s = g.tm(2)
        lhs = erase(subst_bound(body, s, 0))
        rhs = subst_bound(erase(body), erase(s), 0)
        assert lhs == rhs


def test_alpha_and_erased_equal():
    # {x} S(a, x) is equal to itself however the binder was displayed
    a = FreeVar("a")
    e1 = Abstr(ExprArg(SymbolApp("Id", (ExprArg(BOOL), ExprArg(a), ExprArg(BoundVar(0))))))
    e2 = Abstr(ExprArg(SymbolApp("Id", (ExprArg(BOOL), ExprArg(a), ExprArg(BoundVar(0))))))
    assert e1 == e2
    t = succ(a)
    assert erased_equal(Convert(t, AssumptionSet()), t)
    two = Abstr(Abstr(ExprArg(BoundVar(1))))
    other = Abstr(Abstr(ExprArg(BoundVar(0))))
    assert two != other


# ---------------------------------------------------------------------------
# Hypothesis property tests


def _ty_strategy(depth: int):
    base = st.sampled_from([BOOL, NAT])
    if depth == 0:
        return base
    sub = _ty_strategy(depth - 1)
    tm = _tm_strategy(depth - 1)
    return st.one_of(
        base,
        st.builds(lambda a, b: SymbolApp("Pi", (ExprArg(a), Abstr(ExprArg(b)))), sub, sub),
        st.builds(
            lambda a, s, t: SymbolApp("Id", (ExprArg(a), ExprArg(s), ExprArg(t))),
            sub,
            tm,
            tm,
        ),
    )


def _tm_strategy(depth: int):
    names = st.sampled_from(["a", "b", "c"])
    base = st.builds(FreeVar, names, _ty_strategy(0))
    if depth == 0:
        return base
    sub = _tm_strategy(depth - 1)
    return st.one_of(
        base,
        st.builds(succ, sub),
        st.builds(
            lambda t, vs: Convert(t, AssumptionSet(frozenset(vs), frozenset(), frozenset())),
            sub,
            st.lists(st.builds(FreeVar, names, _ty_strategy(0)), max_size=2),
        ),
    )


@given(_tm_strategy(3))
@settings(max_examples=200, deadline=None)
def test_hyp_asm_decomposition(e):
    a = asm(e)
    assert fv0(e) <= fv(e)
    assert a.free_vars == fv(e)
    assert a.bound_vars == bv(e)
    assert a.metas == mv(e)


@given(_tm_strategy(3), _tm_strategy(2))
@settings(max_examples=200, deadline=None)
def test_hyp_erase_substitute_commute(body, s):
    assert erase(subst_bound(body, s, 0)) == subst_bound(erase(body), erase(s), 0)


@given(_tm_strategy(2), _tm_strategy(2), _tm_strategy(2))
@settings(max_examples=100, deadline=None)
def test_hyp_equivalences(x, y, z):
    # alpha equality is an equivalence; erased equality a coarser one
    from fintt.syntax import alpha_equal

    assert alpha_equal(x, x)
    if alpha_equal(x, y):
        assert alpha_equal(y, x)
        assert erased_equal(x, y)
    if alpha_equal(x, y) and alpha_equal(y, z):
        assert alpha_equal(x, z)
    if erased_equal(x, y) and erased_equal(y, z):
        assert erased_equal(x, z)
    alpha = AssumptionSet(frozenset([FreeVar("q", BOOL)]), frozenset(), frozenset())
    assert erased_equal(Convert(x, alpha), x)


@given(_tm_strategy(3))
@settings(max_examples=200, deadline=None)
def test_hyp_abstract_substitute_inverse(e):
    fresh = FreeVar("zz", BOOL)
    if fresh in fv(e):
        return
    assert substitute(abstract_var(e, fresh), fresh) == ExprArg(e)
    body = close_var(e, FreeVar("a", BOOL))
    assert shift(shift(body, 2, 0), -2, 0) is body


# ---------------------------------------------------------------------------
# Hashes across processes, bounded reprs, the substituted assumption set


def test_bare_atoms_hash_alike_in_two_processes():
    """An atom without an annotation hashes no address: under one hash seed,
    two fresh interpreters give the same hashes, the same order of a set of
    bare atoms and the same hash of a derivation over them."""
    import os
    import subprocess

    code = (
        "from fintt.syntax import FreeVar, MetaName, SymbolApp\n"
        "from fintt.judgements import EMPTY_METAS, VarCtx\n"
        "from fintt.parser import elaborate, parse_theory\n"
        "from fintt import tt_engine as tt\n"
        "th = elaborate(parse_theory('rule nat: yields type'), 'tt')\n"
        "a = FreeVar('a')\n"
        "d = tt.tt_var(th, EMPTY_METAS, VarCtx([(a, SymbolApp('nat', ()))]), a)\n"
        "atoms = frozenset(FreeVar(n) for n in 'abcdefghijklmnop')\n"
        "print(hash(a), hash(MetaName('M')), [v.name for v in atoms], hash(d))\n"
    )
    src = str(pathlib.Path(syntax.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": src}
    runs = {
        subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60).stdout
        for _ in range(2)
    }
    assert len(runs) == 1 and runs != {""}


def test_a_deep_node_has_a_bounded_repr():
    """repr prints the node as a refusal shows syntax, cut, without
    recursing once per level."""
    from fintt.printer import SHOWN_LENGTH

    t = succ_n(2000, X)
    text = repr(t)
    assert text.startswith("SymbolApp(succ(succ(") and text.endswith("...)")
    assert len(text) == len("SymbolApp()") + SHOWN_LENGTH
    assert repr(X) == "FreeVar(x^nat)" and repr(M) == "MetaName(M^(nat))"
    assert repr(plain(IsTm(t, NAT))).startswith("Abstracted(succ(succ(")


def test_a_deep_certificate_and_derivation_have_bounded_reprs(corpus_cf, corpus_tt):
    """A certificate shows its payload and a derivation its rule and
    conclusion, each cut; neither follows its premises or record."""
    from fintt import cf_engine as cf
    from fintt import tt_engine as tt
    from fintt.derive import CFDeriver, TTDeriver
    from fintt.judgements import EMPTY_METAS, VarCtx

    cert = CFDeriver(corpus_cf).tm(X, NAT)
    x = FreeVar("x")
    vctx = VarCtx([(x, NAT)])
    d = TTDeriver(corpus_tt).tm(EMPTY_METAS, vctx, x, NAT)
    for i in range(2000):
        cert = cf.cf_apply_rule(corpus_cf, "succ", [cert])
        inst = Instantiation([(MetaName("n"), ExprArg(succ_n(i, x)))])
        d = tt.specific(corpus_tt, EMPTY_METAS, vctx, "succ", inst, [d])
    text = repr(cert)
    assert text.startswith("CertifiedJudgement(succ(succ(") and len(text) <= 250
    text = repr(d)
    assert text.startswith("Derivation(TT-Specific-Eco: ; x : nat |- succ(succ(")
    assert text.endswith("...; 1 premises)") and len(text) <= 250


def test_instantiations_contexts_and_signatures_repr_their_names():
    """These reprs name what the object binds and print no syntax."""
    from fintt.judgements import MetaCtx, VarCtx

    n, a = MetaName("N"), FreeVar("a")
    assert repr(Instantiation([(n, ExprArg(succ_n(50, a)))])) == "Instantiation(['N'])"
    assert repr(MetaCtx([(n, Abstracted((NAT,), IsTmB(NAT)))])) == "MetaCtx(['N'])"
    assert repr(VarCtx([(a, NAT), (FreeVar("b"), NAT)])) == "VarCtx(['a', 'b'])"
    sig = elaborate(parse_theory("rule nat: yields type\nrule zero: yields : nat"), "tt").signature
    assert repr(sig) == "Signature(['nat', 'zero'])"


def test_a_theory_reprs_its_rule_names_and_flavor():
    """A theory's repr names its rules and its flavor, and prints no syntax."""
    th = elaborate(parse_theory("rule nat: yields type\nrule zero: yields : nat"), "cf")
    assert repr(th) == "Theory(['nat', 'zero'], flavor='cf')"


def test_a_statement_prints_its_metavariable_context():
    from fintt import tt_engine as tt
    from fintt.judgements import MetaCtx, VarCtx
    from fintt.printer import print_statement

    n, a = MetaName("N"), FreeVar("a")
    mctx = MetaCtx([(n, Abstracted((NAT,), IsTmB(NAT))), (MetaName("P"), plain(IsTyB()))])
    vctx = VarCtx([(a, NAT)])
    jdg = tt.JdgTT(mctx, vctx, plain(IsTm(MetaApp(n, (a,)), NAT)))
    assert print_statement(jdg) == "N : {x : nat} nat, P : type; a : nat |- N(a) : nat"
    bdry = tt.BdryTT(mctx, vctx, plain(IsTmB(NAT)))
    assert print_statement(bdry) == "N : {x : nat} nat, P : type; a : nat |- nat (boundary)"


def test_substituting_a_variable_its_own_conversion_records():
    """convert(v, {v}) with v substituted: the term and the recorded set
    both take the substituted term's atoms."""
    v = FreeVar("v", NAT)
    t = succ(Y)
    out = subst_free(Convert(v, AssumptionSet(frozenset({v}))), v, t)
    assert out == Convert(t, asm(t))
    assert subst_free(Convert(X, AssumptionSet(frozenset({v}))), v, t) == Convert(X, asm(t))
