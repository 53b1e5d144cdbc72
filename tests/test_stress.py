"""Bulk randomized checks of the admissible operations and translations
beyond the pinned acceptance counts."""

import random

import pytest

from fintt import cf_engine as cf
from fintt import tt_engine as tt
from fintt import translate as tr
from fintt.derive import CFDeriver, TTDeriver
from fintt.errors import KernelError
from fintt.instantiation import Instantiation, act
from fintt.judgements import (
    EMPTY_METAS,
    EMPTY_VARS,
    MetaCtx,
    VarCtx,
    fill_equation,
    plain,
)
from fintt.syntax import (
    Abstracted,
    DUMMY,
    EqTy,
    ExprArg,
    FreeVar,
    IsTmB,
    IsTy,
    MetaApp,
    MetaName,
    SymbolApp,
    erase,
    erased_equal,
    fv,
    mv,
)

from .gen import CertGen

BOOL = SymbolApp("bool", ())
NAT = SymbolApp("nat", ())


def succ(t):
    return SymbolApp("succ", (ExprArg(t),))


def id_of(a, s, t):
    return SymbolApp("Id", (ExprArg(a), ExprArg(s), ExprArg(t)))


def test_admissible_instantiate_matches_action_oracle(corpus_tt):
    """Instantiation outputs conclude exactly act(I, J) on 150 random
    judgements over a one-binder metavariable context."""
    th = corpus_tt
    ttd = TTDeriver(th)
    rng = random.Random(31)
    n = MetaName("N")
    mctx = MetaCtx([(n, Abstracted((NAT,), IsTmB(NAT)))])
    b = FreeVar("b")
    vctx = VarCtx([(b, NAT)])
    done = 0
    for _ in range(150):
        arg_body = b
        for _ in range(rng.randrange(3)):
            arg_body = succ(arg_body)
        inner = rng.choice([b, succ(b), MetaApp(n, (succ(b),))])
        kind = rng.choice(["tm", "ty"])
        if kind == "tm":
            j = plain(
                EqTy(id_of(NAT, inner, inner), id_of(NAT, inner, inner), DUMMY)
            )
            d = tt.eqty_refl(th, ttd.ty(mctx, vctx, id_of(NAT, inner, inner)))
        else:
            j = plain(IsTy(id_of(NAT, MetaApp(n, (inner,)), MetaApp(n, (inner,)))))
            d = ttd.ty(mctx, vctx, j.body.ty)
        from fintt.syntax import Abstr

        inst = Instantiation([(n, Abstr(ExprArg(succ(Abstr_body()))))])
        arg_deriv = _arg_fill_deriv(th, ttd, vctx, n)
        out = tt.admissible_instantiate(
            th, inst, {n: arg_deriv}, d, EMPTY_METAS, vctx
        )
        assert out.conclusion.jdg == act(inst, d.conclusion.jdg)
        tt.check_derivation(th, out)
        done += 1
    assert done == 150


def Abstr_body():
    from fintt.syntax import BoundVar

    return BoundVar(0)


def _arg_fill_deriv(th, ttd, vctx, n):
    """Derivation of the fill  {x:nat} succ(x) : nat  for N's boundary."""
    from fintt.syntax import BoundVar

    a = FreeVar("arg")
    vctx2 = vctx.extend(a, NAT)
    body = ttd.tm(EMPTY_METAS, vctx2, succ(a), NAT)
    ty_d = ttd.ty(EMPTY_METAS, vctx, NAT)
    return tt.tt_abstr(th, ty_d, body, a)


def test_subst_eqty_with_distinct_sides(corpus_tt):
    """Equal substitution along an equality-reflection consequence produces
    the figure's conclusion with genuinely different sides."""
    th = corpus_tt
    ttd = TTDeriver(th)
    a, b, p = FreeVar("a"), FreeVar("b"), FreeVar("p")
    vctx = VarCtx([(a, NAT), (b, NAT), (p, id_of(NAT, a, b))])
    eq = tt.specific(
        th,
        EMPTY_METAS,
        vctx,
        "eq_reflect",
        Instantiation(
            [
                (MetaName("A"), ExprArg(NAT)),
                (MetaName("s"), ExprArg(a)),
                (MetaName("t"), ExprArg(b)),
                (MetaName("p"), ExprArg(p)),
            ]
        ),
        [
            ttd.ty(EMPTY_METAS, vctx, NAT),
            tt.tt_var(th, EMPTY_METAS, vctx, a),
            tt.tt_var(th, EMPTY_METAS, vctx, b),
            tt.tt_var(th, EMPTY_METAS, vctx, p),
        ],
    )
    # family {x:nat} Id(nat, x, x)
    fam = ttd.judgement(
        EMPTY_METAS,
        vctx,
        Abstracted((NAT,), IsTy(id_of(NAT, BoundVar0(), BoundVar0()))),
    )
    s_d = tt.tt_var(th, EMPTY_METAS, vctx, a)
    t_d = tt.tt_var(th, EMPTY_METAS, vctx, b)
    out = tt.eq_subst_n(th, fam, [s_d], [t_d], [eq])
    want = plain(EqTy(id_of(NAT, a, a), id_of(NAT, b, b), DUMMY))
    assert out.conclusion.jdg == want
    tt.check_derivation(th, out)
    # and the metavariable-congruence path through eq_subst_n
    m = MetaName("F")
    bdry_f = Abstracted((NAT,), IsTmB(NAT))
    mctx = MetaCtx([(m, bdry_f)])
    eq_m = tt.weaken_meta(th, eq, m, bdry_f)
    s_m = tt.weaken_meta(th, s_d, m, bdry_f)
    t_m = tt.weaken_meta(th, t_d, m, bdry_f)
    ty_eq = tt.eqty_refl(th, TTDeriver(th).ty(mctx, vctx, NAT))
    congr = tt.meta_congr(th, mctx, vctx, m, [a], [b], [s_m, t_m, eq_m, ty_eq])
    tt.check_derivation(th, congr)
    body = congr.conclusion.jdg.body
    assert body.lhs == MetaApp(m, (a,)) and body.rhs == MetaApp(m, (b,))


def BoundVar0():
    from fintt.syntax import BoundVar

    return BoundVar(0)


def test_bulk_translation_of_random_certificates(corpus_cf, corpus_tt):
    """cf -> tt reconstruction and the full round trip on 300 random
    certificates."""
    rng = random.Random(32)
    g = CertGen(rng, corpus_cf)
    done = 0
    while done < 300:
        try:
            cert = g.judgement_cert(rng.randrange(4))
        except KernelError:
            continue
        mctx, vctx, d = tr.cf_judgement_to_tt(corpus_cf, corpus_tt, cert)
        tt.check_derivation(corpus_tt, d)
        assert d.conclusion.jdg == erase(cert.payload)
        back = tr.round_trip_cf(corpus_cf, corpus_tt, cert)
        assert erased_equal(back.payload, cert.payload)
        done += 1
    assert done == 300


def test_bulk_tt_to_cf_of_derived_judgements(corpus_cf, corpus_tt):
    """tt -> cf elaboration on 150 derived contexted judgements."""
    from fintt.syntax import double_erase

    th = corpus_tt
    ttd = TTDeriver(th)
    rng = random.Random(33)
    a, b = FreeVar("a"), FreeVar("b")
    vctx = VarCtx([(a, NAT), (b, BOOL)])
    mctx_d = tt.mctx_empty(th)
    vctx_d = ttd.vctx_wf(EMPTY_METAS, vctx)
    done = 0
    for _ in range(150):
        t = a
        for _ in range(rng.randrange(4)):
            t = succ(t)
        kind = rng.choice(["tm", "ty", "eq", "refl"])
        if kind == "tm":
            d = ttd.tm(EMPTY_METAS, vctx, t, NAT)
        elif kind == "ty":
            d = ttd.ty(EMPTY_METAS, vctx, id_of(NAT, t, t))
        elif kind == "eq":
            d = tt.eqtm_refl(th, ttd.tm(EMPTY_METAS, vctx, t, NAT))
        else:
            d = tt.eqty_refl(th, ttd.ty(EMPTY_METAS, vctx, id_of(NAT, t, succ(t))))
        cert = tr.tt_to_cf(th, corpus_cf, d, mctx_d, vctx_d)
        assert double_erase(cert.payload) == d.conclusion.jdg
        done += 1
    assert done == 150
