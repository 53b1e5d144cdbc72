"""Instantiation action and its interaction with filling and erasure."""

import random

import pytest

from fintt.errors import IndexOutOfRange, UnknownMeta
from fintt.instantiation import Instantiation, act, erase_instantiation
from fintt.judgements import fill, plain, unfill
from fintt.syntax import (
    Abstr,
    Abstracted,
    AsmArg,
    AssumptionSet,
    BoundVar,
    Cls,
    Convert,
    DUMMY,
    EqTy,
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
    erase,
)
from fintt.theory import generic_application

from .gen import ExprGen

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
