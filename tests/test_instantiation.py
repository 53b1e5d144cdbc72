"""Instantiation action and its interaction with filling and erasure."""

import dataclasses
import pathlib
import random

import pytest

from fintt.errors import ArityMismatch, IndexOutOfRange, UnknownMeta
from fintt.instantiation import Instantiation, act, erase_instantiation
from fintt.judgements import fill, fill_equation, plain, unfill
from fintt.parser import elaborate, parse_theory
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
    SymbolApp,
    asm,
    boundary_arity,
    erase,
    mv,
    shift,
    subst_bound_many,
)
from fintt.theory import (
    RawRule,
    congruence_premises_tt,
    generic_application,
    rule_instance_premises,
)

from .gen import ExprGen
from .test_lambda_theory import THEORY_TEXT as LAMBDA_THEORY

BOOL = SymbolApp("bool", ())
NAT = SymbolApp("nat", ())


def test_restrict():
    m1, m2, m3 = MetaName("M1"), MetaName("M2"), MetaName("M3")
    i = Instantiation([(m1, ExprArg(BOOL)), (m2, ExprArg(NAT)), (m3, ExprArg(BOOL))])
    assert len(i.restrict(1)) == 0
    assert i.restrict(len(i) + 1) == i
    assert [m for m, _ in i.restrict(3)] == [m1, m2]
    with pytest.raises(IndexOutOfRange):
        i.restrict(5)


def test_act_on_bound_and_convert():
    m = MetaName("M", plain(IsTyB()))
    i = Instantiation([(m, ExprArg(BOOL))])
    assert act(i, BoundVar(0)) == BoundVar(0)
    a_m = FreeVar("a", MetaApp(m, ()))
    alpha = AssumptionSet(frozenset([a_m]), frozenset(), frozenset())
    t = Convert(a_m, alpha)
    out = act(i, t)
    a_bool = FreeVar("a", BOOL)
    assert out == Convert(a_bool, AssumptionSet(frozenset([a_bool]), frozenset(), frozenset()))


def test_act_replaces_meta_by_substituted_argument():
    m = MetaName("M")
    body = SymbolApp("Id", (ExprArg(BOOL), ExprArg(BoundVar(1)), ExprArg(BoundVar(0))))
    i = Instantiation([(m, Abstr(Abstr(ExprArg(body))))])
    s, t = FreeVar("s"), FreeVar("t")
    out = act(i, MetaApp(m, (s, t)))
    assert out == SymbolApp("Id", (ExprArg(BOOL), ExprArg(s), ExprArg(t)))


def test_act_on_assumption_set_replaces_meta_entry():
    m = MetaName("M")
    a_bool = FreeVar("a", BOOL)
    i = Instantiation([(m, ExprArg(SymbolApp("succ", (ExprArg(a_bool),))))])
    alpha = AssumptionSet(frozenset(), frozenset(), frozenset([m]))
    out = act(i, alpha)
    assert out.free_vars == frozenset([a_bool])
    assert out.metas == frozenset()
    with pytest.raises(UnknownMeta):
        act(Instantiation([]), alpha)


def test_act_commutes_with_fill():
    rng = random.Random(7)
    g = ExprGen(rng, cf=True)
    m = MetaName("M")
    for _ in range(25):
        i = Instantiation([(m, ExprArg(g.ty(2)))])
        mapp = MetaApp(m, ())
        j = plain(IsTm(Convert(FreeVar("a", mapp), asm(mapp)), mapp))
        b, head = unfill(j)
        assert act(i, fill(b, head)) == fill(act(i, b), act(i, head))


def test_identity_shaped_instantiation_is_identity():
    rng = random.Random(11)
    g = ExprGen(rng, cf=False)
    m_ty = MetaName("A")
    m_tm = MetaName("F")
    metas = {m_ty: MetaArity(Cls.TY, 0), m_tm: MetaArity(Cls.TM, 2)}
    ident = Instantiation(
        [
            (m_ty, generic_application(m_ty, metas[m_ty], "tt")),
            (m_tm, generic_application(m_tm, metas[m_tm], "tt")),
        ]
    )
    for _ in range(25):
        e = SymbolApp(
            "Id",
            (
                ExprArg(MetaApp(m_ty, ())),
                ExprArg(MetaApp(m_tm, (g.tm(2), g.tm(2)))),
                ExprArg(g.tm(2)),
            ),
        )
        assert act(ident, e) == e


@pytest.mark.parametrize("seed", range(15))
def test_erase_commutes_with_act(seed):
    rng = random.Random(seed)
    g = ExprGen(rng, cf=True)
    m = MetaName("M", plain(IsTmB(BOOL)))
    for _ in range(10):
        arg = ExprArg(g.tm(2))
        i = Instantiation([(m, arg)])
        a_m = FreeVar("c", SymbolApp("Id", (ExprArg(BOOL), ExprArg(MetaApp(m, ())), ExprArg(MetaApp(m, ())))))
        x = plain(EqTy(BOOL, BOOL, asm(a_m)))
        assert erase(act(i, x)) == act(erase_instantiation(i), erase(x))
        generic = Instantiation([(m, generic_application(m, MetaArity(Cls.TM, 0), "cf"))])
        for y in (x, a_m, plain(IsTm(Convert(arg.expr, asm(a_m)), MetaApp(m, ())))):
            assert act(generic, y) is y


# ---------------------------------------------------------------------------
# act against a plain recursion


def oracle_act(inst: Instantiation, x, d: int = 0):
    """``act`` written as a plain recursion over node kinds: it visits every
    subterm, and keeps no plan.  ``d`` counts the binders between the root
    and ``x``."""
    match x:
        case None | BoundVar() | DummyArg() | IsTyB():
            return x
        case FreeVar(name=name, annotation=ann):
            return x if ann is None else FreeVar(name, oracle_act(inst, ann))
        case MetaApp(meta=m, args=args):
            terms = tuple(oracle_act(inst, t, d) for t in args)
            body = shift(inst[m], d)
            for _ in terms:
                body = body.body
            return subst_bound_many(body.expr, terms)
        case AssumptionSet(free_vars=fvs, bound_vars=bvs, metas=ms):
            out = AssumptionSet(frozenset(oracle_act(inst, v) for v in fvs), bvs)
            for m in ms:
                out = out.union(asm(shift(inst[m], d)))
            return out
        case Abstr(body=b):
            return Abstr(oracle_act(inst, b, d + 1))
        case Abstracted(prefix=pfx, body=b):
            return Abstracted(
                tuple(oracle_act(inst, t, d + i) for i, t in enumerate(pfx)),
                oracle_act(inst, b, d + len(pfx)),
            )
        case SymbolApp(symbol=s, args=args):
            return SymbolApp(s, tuple(oracle_act(inst, a, d) for a in args))
    # Every other node kind holds only nodes, none under a binder.
    return type(x)(*(oracle_act(inst, getattr(x, f.name), d) for f in dataclasses.fields(x)))


F = MetaName("F", Abstracted((NAT, NAT), IsTmB(NAT)))
A = MetaName("A", plain(IsTyB()))
E = MetaName("E", plain(EqTyB(BOOL, NAT)))


class MetaGen(ExprGen):
    """``ExprGen`` whose terms, types, atom annotations and assumption sets
    also mention the type metavariable A, the two-binder term family F and
    the equation E."""

    def ty(self, depth: int, binders: int = 0):
        if self.rng.random() < 0.2:
            return MetaApp(A, ())
        return super().ty(depth, binders)

    def tm(self, depth: int, binders: int = 0):
        if depth > 0 and self.rng.random() < 0.3:
            return MetaApp(F, (self.tm(depth - 1, binders), self.tm(depth - 1, binders)))
        return super().tm(depth, binders)

    def aset(self, depth: int, binders: int = 0) -> AssumptionSet:
        a = super().aset(depth, binders)
        metas = frozenset(m for m in (A, F, E) if self.rng.random() < 0.3)
        return AssumptionSet(a.free_vars, a.bound_vars, metas)


def meta_instantiation(g: ExprGen) -> Instantiation:
    """Arguments that may mention one bound index beyond their own binders,
    so that the action shifts them by the binders above each application."""
    return Instantiation(
        [
            (A, ExprArg(g.ty(2, binders=1))),
            (F, Abstr(Abstr(ExprArg(g.tm(2, binders=3))))),
            (E, AsmArg(g.aset(1, binders=1))),
        ]
    )


def outcome(f):
    """``f()``, or the class of the ``UnknownMeta`` it raises."""
    try:
        return f()
    except UnknownMeta:
        return UnknownMeta


@pytest.mark.parametrize("seed", range(12))
def test_act_agrees_with_a_plain_recursion(seed):
    """Terms under 0-3 binders, with conversions, assumption sets and
    annotated atoms, each acted on by two instantiations in turn: the first
    act records the plan, the second runs it."""
    rng = random.Random(seed)
    g = MetaGen(rng, cf=True)
    args = ExprGen(rng, cf=True)
    partial = Instantiation([(A, ExprArg(NAT))])
    for k in range(4):
        body = ExprArg(g.tm(3, k))
        for _ in range(k):
            body = Abstr(body)
        judgement = Abstracted(tuple(g.ty(2, i) for i in range(k)), g.thesis(2, k))
        for x in (body, judgement, g.aset(2, k)):
            for inst in (meta_instantiation(args), meta_instantiation(args), partial):
                assert outcome(lambda: act(inst, x)) is outcome(lambda: oracle_act(inst, x))
            assert (x._plan is None) == (not mv(x))


def test_the_first_successful_act_records_the_plan():
    x = SymbolApp(
        "Id",
        (ExprArg(MetaApp(A, ())), ExprArg(FreeVar("plan#probe", MetaApp(A, ()))), ExprArg(NAT)),
    )
    assert x._plan is None
    with pytest.raises(UnknownMeta):
        act(Instantiation([]), x)
    assert x._plan is None
    a_bool = FreeVar("plan#probe", BOOL)
    assert act(Instantiation([(A, ExprArg(BOOL))]), x) is SymbolApp(
        "Id", (ExprArg(BOOL), ExprArg(a_bool), ExprArg(NAT))
    )
    plan = x._plan
    assert plan is not None
    a_nat = FreeVar("plan#probe", NAT)
    assert act(Instantiation([(A, ExprArg(NAT))]), x) is SymbolApp(
        "Id", (ExprArg(NAT), ExprArg(a_nat), ExprArg(NAT))
    )
    assert x._plan is plan


# ---------------------------------------------------------------------------
# Closure rules of specific rules against the per-premise formula


def restricted_instance(rule: RawRule, inst: Instantiation):
    """The closure rule of ``rule`` under ``inst`` as the paper writes it:
    the i-th premise acted on by the initial segment of ``inst`` before it."""
    if len(inst) != len(rule.premises) or any(
        m != n for (m, _), (n, _) in zip(rule.premises, inst.entries)
    ):
        raise ArityMismatch("instantiation does not match the rule's premises")
    premises = [
        fill(act(inst.restrict(i), b), inst[m]) for i, (m, b) in enumerate(rule.premises, start=1)
    ]
    boundary, _ = unfill(plain(rule.conclusion))
    return premises, act(inst, boundary), act(inst, plain(rule.conclusion))


def restricted_congruence(rule: RawRule, left: Instantiation, right: Instantiation):
    """The tt congruence closure rule, premise by premise, as the paper
    writes it."""

    def fills(inst):
        return [
            fill(act(inst.restrict(i), b), inst[m])
            for i, (m, b) in enumerate(rule.premises, start=1)
        ]

    equations = {
        i: fill_equation(act(left.restrict(i), b), left[m], right[m], DUMMY)
        for i, (m, b) in enumerate(rule.premises, start=1)
        if boundary_arity(b).cls.is_object
    }
    premises = fills(left) + fills(right) + list(equations.values())
    if isinstance(rule.conclusion, IsTm):
        ty = rule.conclusion.ty
        premises.append(plain(EqTy(act(left, ty), act(right, ty), DUMMY)))
    boundary, head = unfill(plain(rule.conclusion))
    conclusion = fill_equation(act(left, boundary), act(left, head), act(right, head), DUMMY)
    return premises, conclusion


CORPUS = pathlib.Path(__file__).parent / "corpus"
THEORIES = {
    f"{name}-{flavor}": (text, flavor)
    for name, text in (("mltt", (CORPUS / "mltt.ftt").read_text()), ("lambda", LAMBDA_THEORY))
    for flavor in ("tt", "cf")
}


def random_instantiation(rule: RawRule, g: ExprGen, flavor: str) -> Instantiation:
    """Arguments of the right arity for each premise, with no regard to
    their types (the closure rules do not check them)."""
    entries = []
    for m, b in rule.premises:
        arity = boundary_arity(b)
        k = arity.binders
        if arity.cls is Cls.TY:
            head = ExprArg(g.ty(2, k))
        elif arity.cls is Cls.TM:
            head = ExprArg(g.tm(2, k))
        else:
            head = DUMMY if flavor == "tt" else AsmArg(g.aset(1, k))
        for _ in range(k):
            head = Abstr(head)
        entries.append((m, head))
    return Instantiation(entries)


@pytest.mark.parametrize("theory", THEORIES)
def test_rule_instances_agree_with_the_per_premise_formula(theory):
    text, flavor = THEORIES[theory]
    th = elaborate(parse_theory(text), flavor)
    g = ExprGen(random.Random(theory), cf=flavor == "cf")
    for r in th.rules:
        for _ in range(4):
            left = random_instantiation(r.rule, g, flavor)
            right = random_instantiation(r.rule, g, flavor)
            got = rule_instance_premises(r.rule, left)
            assert got == restricted_instance(r.rule, left)
            if flavor == "tt" and r.rule.is_object:
                got = congruence_premises_tt(r.rule, left, right)
                assert got == restricted_congruence(r.rule, left, right)


def test_a_rule_instance_checks_arity_before_premise_order():
    th = elaborate(parse_theory((CORPUS / "mltt.ftt").read_text()), "tt")
    (a, b_a), (b, b_b) = th.rule("Pi").rule.premises
    swapped = RawRule(((b, b_b), (a, b_a)), IsTy(SymbolApp("Pi", ())))
    in_rule_order = Instantiation([(b, Abstr(ExprArg(NAT))), (a, ExprArg(BOOL))])
    in_other_order = Instantiation([(a, ExprArg(BOOL)), (b, Abstr(ExprArg(NAT)))])
    for schema in (rule_instance_premises, restricted_instance):
        with pytest.raises(ArityMismatch):
            schema(swapped, in_other_order)
        with pytest.raises(ArityMismatch):
            schema(swapped, Instantiation([(b, Abstr(ExprArg(NAT)))]))
        with pytest.raises(UnknownMeta, match="A"):
            schema(swapped, in_rule_order)
    with_extra = Instantiation([*in_rule_order, (MetaName("Z"), ExprArg(NAT))])
    with pytest.raises(ArityMismatch):
        congruence_premises_tt(swapped, in_rule_order, in_other_order)
    with pytest.raises(ArityMismatch):
        congruence_premises_tt(swapped, with_extra, in_rule_order)
    with pytest.raises(UnknownMeta, match="A"):
        congruence_premises_tt(swapped, in_rule_order, in_rule_order)
