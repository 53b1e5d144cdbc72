"""Translations between presentations: suitable contexts, theory erasure,
cf -> tt reconstruction, tt -> cf elaboration of every node kind, round
trips."""

import contextlib
import inspect
import pathlib
import random
import sys

import pytest

from fintt import cf_engine as cf
from fintt import tt_engine as tt
from fintt import translate as tr
from fintt.derive import CFDeriver, DeriveError, TTDeriver
from fintt.errors import KernelError, MissingContextEvidence, PremiseMismatch, TypeMismatch
from fintt.instantiation import Instantiation
from fintt.judgements import EMPTY_METAS, EMPTY_VARS, MetaCtx, VarCtx, plain, unfill
from fintt.syntax import (
    Abstr,
    Abstracted,
    AssumptionSet,
    BoundVar,
    Convert,
    DUMMY,
    EqTm,
    EqTmB,
    EqTy,
    ExprArg,
    FreeVar,
    IsTm,
    IsTmB,
    IsTy,
    IsTyB,
    MetaApp,
    MetaName,
    SymbolApp,
    asm,
    boundary_arity,
    double_erase,
    erase,
    erased_equal,
    fv,
    mv,
)
from fintt.parser import elaborate, parse_theory
from fintt.theory import check_finitary, check_standard, erase_theory

from .gen import CertGen
from .test_equational_premises import THEORY_TEXT as EQUATIONAL_THEORY
from .test_lambda_theory import THEORY_TEXT as LAMBDA_THEORY
from .test_theory import mltt_builder

CORPUS = pathlib.Path(__file__).parent / "corpus"

BOOL = SymbolApp("bool", ())
NAT = SymbolApp("nat", ())


def id_ty(a, s, t):
    return SymbolApp("Id", (ExprArg(a), ExprArg(s), ExprArg(t)))


def test_suitable_context_simple():
    a = FreeVar("a", BOOL)
    mctx, vctx = tr.suitable_context([], [a])
    assert list(vctx.entries) == [(a, BOOL)]
    assert len(mctx) == 0


def test_suitable_context_pulls_in_dependencies():
    a = FreeVar("a", BOOL)
    s = FreeVar("s", BOOL)
    b = FreeVar("b", id_ty(BOOL, a, s))
    mctx, vctx = tr.suitable_context([], [b])
    names = [v for v, _ in vctx.entries]
    assert set(names) == {a, s, b}
    # dependencies come first
    assert names.index(b) > names.index(a)
    assert names.index(b) > names.index(s)
    # no spurious entries: exactly the dependence closure
    assert set(names) == set(tr.dependence_closure([], [b])[1])


def test_a_metavariable_boundary_brings_its_variables_into_the_suitable_context():
    """``mv`` descends into a metavariable's boundary but ``fv`` does not, so
    the closure adds the boundary's variables, with their own dependencies."""
    s = FreeVar("s", BOOL)
    p = FreeVar("p", id_ty(BOOL, s, s))
    m = MetaName("M", Abstracted((), EqTmB(p, p, id_ty(BOOL, s, s))))
    assert tr.dependence_closure([m], []) == ([m], [s, p])
    mctx, vctx = tr.suitable_context([m], [])
    assert list(mctx.entries) == [(m, erase(m.annotation))]
    assert list(vctx.entries) == [(s, BOOL), (p, erase(id_ty(BOOL, s, s)))]


def test_cf_theory_to_tt_is_finitary(corpus_cf):
    t_tt = erase_theory(corpus_cf)
    check_finitary(t_tt)
    check_standard(t_tt)
    parsed = elaborate(parse_theory((CORPUS / "mltt.ftt").read_text()), "tt")
    assert t_tt.rules == parsed.rules
    assert [(s, t_tt.signature[s]) for s in t_tt.signature] == [
        (s, parsed.signature[s]) for s in parsed.signature
    ]


def test_cf_to_tt_var_case(corpus_cf, corpus_tt):
    d = CFDeriver(corpus_cf)
    ty_bool = d.ty(BOOL)
    a = FreeVar("a", BOOL)
    va = cf.cf_var(corpus_cf, a, ty_bool)
    mctx, vctx, deriv = tr.cf_judgement_to_tt(corpus_cf, corpus_tt, va)
    assert deriv.rule == "TT-Var"
    assert deriv.conclusion.jdg == plain(IsTm(a, BOOL))
    assert list(vctx.entries) == [(a, BOOL)]
    tt.check_derivation(corpus_tt, deriv)


def test_cf_to_tt_closed_pi(corpus_cf, corpus_tt):
    d = CFDeriver(corpus_cf)
    ty_bool = d.ty(BOOL)
    a = FreeVar("a", BOOL)
    fam = cf.cf_abstract_fwd(corpus_cf, ty_bool, ty_bool, a)
    pi = cf.cf_apply_rule(corpus_cf, "Pi", [ty_bool, fam])
    mctx, vctx, deriv = tr.cf_judgement_to_tt(corpus_cf, corpus_tt, pi)
    assert len(vctx) == 0 and len(mctx) == 0
    assert deriv.conclusion.jdg == erase(pi.payload)
    tt.check_derivation(corpus_tt, deriv)


@pytest.fixture()
def reflect_cert(corpus_cf):
    d = CFDeriver(corpus_cf)
    ty_bool = d.ty(BOOL)
    a, b = FreeVar("a", BOOL), FreeVar("b", BOOL)
    va, vb = cf.cf_var(corpus_cf, a, ty_bool), cf.cf_var(corpus_cf, b, ty_bool)
    idt = id_ty(BOOL, a, b)
    ty_id = d.ty(idt)
    p = FreeVar("p", idt)
    vp = cf.cf_var(corpus_cf, p, ty_id)
    return cf.cf_apply_rule(corpus_cf, "eq_reflect", [ty_bool, va, vb, vp])


def test_cf_to_tt_equality_reflection(reflect_cert, corpus_cf, corpus_tt):
    """The equation's proof term is recovered from the assumption set."""
    mctx, vctx, deriv = tr.cf_judgement_to_tt(corpus_cf, corpus_tt, reflect_cert)
    assert deriv.conclusion.jdg == erase(reflect_cert.payload)
    tt.check_derivation(corpus_tt, deriv)
    # the suitable context is exactly the dependence closure of the judgement
    ms, vs = tr.dependence_closure(
        list(mv(reflect_cert.payload)), list(fv(reflect_cert.payload))
    )
    assert [v for v, _ in vctx.entries] == vs
    # and the context evidence derivations check
    deriver = TTDeriver(corpus_tt)
    m_d, v_d = deriver.mctx_wf(mctx), deriver.vctx_wf(mctx, vctx)
    tt.check_derivation(corpus_tt, m_d)
    tt.check_derivation(corpus_tt, v_d)


def test_tt_to_cf_var(corpus_cf, corpus_tt):
    ttd = TTDeriver(corpus_tt)
    a = FreeVar("a")
    vctx = VarCtx([(a, BOOL)])
    d = tt.tt_var(corpus_tt, EMPTY_METAS, vctx, a)
    mctx_d = tt.mctx_empty(corpus_tt)
    vctx_d = ttd.vctx_wf(EMPTY_METAS, vctx)
    cert = tr.tt_to_cf(corpus_tt, corpus_cf, d, mctx_d, vctx_d)
    assert double_erase(cert.payload) == d.conclusion.jdg
    body = cert.payload.body
    assert body.term == FreeVar("a", BOOL)


def test_tt_to_cf_closed_pi(corpus_cf, corpus_tt):
    th = corpus_tt
    d_bool = tt.specific(th, EMPTY_METAS, EMPTY_VARS, "bool", Instantiation([]), [])
    a = FreeVar("a")
    d_bool_a = tt.specific(th, EMPTY_METAS, VarCtx([(a, BOOL)]), "bool", Instantiation([]), [])
    fam = tt.tt_abstr(th, d_bool, d_bool_a, a)
    inst = Instantiation([(MetaName("A"), ExprArg(BOOL)), (MetaName("B"), Abstr(ExprArg(BOOL)))])
    d = tt.specific(th, EMPTY_METAS, EMPTY_VARS, "Pi", inst, [d_bool, fam])
    mctx_d = tt.mctx_empty(th)
    vctx_d = tt.vctx_empty(th, EMPTY_METAS)
    cert = tr.tt_to_cf(th, corpus_cf, d, mctx_d, vctx_d)
    assert double_erase(cert.payload) == d.conclusion.jdg
    assert cert.payload == plain(IsTy(SymbolApp("Pi", (ExprArg(BOOL), Abstr(ExprArg(BOOL))))))


def test_tt_to_cf_equality_reflection(corpus_cf, corpus_tt):
    th = corpus_tt
    ttd = TTDeriver(th)
    a, b, p = FreeVar("a"), FreeVar("b"), FreeVar("p")
    idt = id_ty(BOOL, a, b)
    vctx = VarCtx([(a, BOOL), (b, BOOL), (p, idt)])
    d = tt.specific(
        th,
        EMPTY_METAS,
        vctx,
        "eq_reflect",
        Instantiation(
            [
                (MetaName("A"), ExprArg(BOOL)),
                (MetaName("s"), ExprArg(a)),
                (MetaName("t"), ExprArg(b)),
                (MetaName("p"), ExprArg(p)),
            ]
        ),
        [
            ttd.ty(EMPTY_METAS, vctx, BOOL),
            tt.tt_var(th, EMPTY_METAS, vctx, a),
            tt.tt_var(th, EMPTY_METAS, vctx, b),
            tt.tt_var(th, EMPTY_METAS, vctx, p),
        ],
    )
    mctx_d = tt.mctx_empty(th)
    vctx_d = ttd.vctx_wf(EMPTY_METAS, vctx)
    cert = tr.tt_to_cf(th, corpus_cf, d, mctx_d, vctx_d)
    assert double_erase(cert.payload) == d.conclusion.jdg
    body = cert.payload.body
    assert isinstance(body, EqTm)
    # the proof term is recorded
    assert any(v.name == "p" for v in body.by.free_vars)


# One derivation of each node kind TTtoCF translates, over the context
# F : {x:nat} type, T : type, N : {x:nat} □ : nat ; a : nat.
F, T, N = MetaName("F"), MetaName("T"), MetaName("N")
TABLE_METAS = MetaCtx(
    [(F, Abstracted((NAT,), IsTyB())), (T, plain(IsTyB())), (N, Abstracted((NAT,), IsTmB(NAT)))]
)
A = FreeVar("a")
TABLE_VARS = VarCtx([(A, NAT)])


def f_of(t):
    return MetaApp(F, (t,))


def node_kind_table(th):
    """Node kind -> a derivation whose root is of that kind."""
    ttd = TTDeriver(th)
    mctx, vctx = TABLE_METAS, TABLE_VARS
    x = FreeVar("x")
    nat_d = ttd.ty(mctx, vctx, NAT)
    a_d = tt.tt_var(th, mctx, vctx, A)
    refl_ty, refl_tm = tt.eqty_refl(th, nat_d), tt.eqtm_refl(th, a_d)
    fam = ttd.judgement(mctx, vctx, Abstracted((NAT,), IsTy(f_of(BoundVar(0)))))
    fam_eq = ttd.judgement(
        mctx, vctx, Abstracted((NAT,), EqTy(f_of(BoundVar(0)), f_of(BoundVar(0)), DUMMY))
    )
    succ_a = Instantiation([(MetaName("n"), ExprArg(A))])
    pi_f = Instantiation([(MetaName("A"), ExprArg(NAT)), (MetaName("B"), Abstr(ExprArg(f_of(BoundVar(0)))))])
    return {
        "TT-Var": a_d,
        "TT-Abstr": fam,
        "TT-Bdry-Abstr": tt.tt_abstr(th, nat_d, tt.bdry_ty(th, mctx, vctx.extend(x, NAT)), x),
        "TT-Meta": tt.tt_meta(th, mctx, vctx, N, [a_d], tt.bdry_tm(th, nat_d)),
        "TT-Meta-Eco": tt.tt_meta(th, mctx, vctx, N, [a_d]),
        "TT-Meta-Congr:term": tt.meta_congr(th, mctx, vctx, N, [A], [A], [a_d, a_d, refl_tm, refl_ty]),
        "TT-Meta-Congr:type": tt.meta_congr(th, mctx, vctx, F, [A], [A], [a_d, a_d, refl_tm]),
        "TT-Meta-Congr:nullary": tt.meta_congr(th, mctx, vctx, T, [], [], []),
        "TT-Specific": tt.specific(th, mctx, vctx, "succ", succ_a, [a_d], tt.bdry_tm(th, nat_d)),
        "TT-Specific-Eco": tt.specific(th, mctx, vctx, "succ", succ_a, [a_d]),
        "TT-Congr:term": tt.congruence(
            th, mctx, vctx, "succ", succ_a, succ_a, [a_d, a_d, refl_tm, refl_ty]
        ),
        "TT-Congr:type": tt.congruence(
            th, mctx, vctx, "Pi", pi_f, pi_f, [nat_d, fam, nat_d, fam, refl_ty, fam_eq]
        ),
        "TT-EqTy-Refl": refl_ty,
        "TT-EqTy-Sym": tt.eqty_sym(th, refl_ty),
        "TT-EqTy-Trans": tt.eqty_trans(th, refl_ty, refl_ty),
        "TT-EqTm-Refl": refl_tm,
        "TT-EqTm-Sym": tt.eqtm_sym(th, refl_tm),
        "TT-EqTm-Trans": tt.eqtm_trans(th, refl_tm, refl_tm),
        "TT-Conv-Tm": tt.conv_tm(th, a_d, refl_ty),
        "TT-Conv-EqTm": tt.conv_eqtm(th, refl_tm, refl_ty),
        "TT-Bdry-Ty": tt.bdry_ty(th, mctx, vctx),
        "TT-Bdry-Tm": tt.bdry_tm(th, nat_d),
        "TT-Bdry-EqTy": tt.bdry_eqty(th, nat_d, nat_d),
        "TT-Bdry-EqTm": tt.bdry_eqtm(th, nat_d, a_d, a_d),
    }


NODE_KINDS = [
    "TT-Var", "TT-Abstr", "TT-Bdry-Abstr", "TT-Meta", "TT-Meta-Eco", "TT-Meta-Congr:term",
    "TT-Meta-Congr:type", "TT-Meta-Congr:nullary", "TT-Specific", "TT-Specific-Eco",
    "TT-Congr:term", "TT-Congr:type", "TT-EqTy-Refl", "TT-EqTy-Sym", "TT-EqTy-Trans",
    "TT-EqTm-Refl", "TT-EqTm-Sym", "TT-EqTm-Trans", "TT-Conv-Tm", "TT-Conv-EqTm",
    "TT-Bdry-Ty", "TT-Bdry-Tm", "TT-Bdry-EqTy", "TT-Bdry-EqTm",
]


@pytest.mark.parametrize("kind", NODE_KINDS)
def test_tt_to_cf_translates_every_node_kind(corpus_cf, corpus_tt, kind):
    """Each kind, at the root, translates with context evidence to a
    certificate that double-erases to the node's conclusion."""
    d = node_kind_table(corpus_tt)[kind]
    assert d.rule == kind.split(":")[0]
    ttd = TTDeriver(corpus_tt)
    evidence = ttd.mctx_wf(TABLE_METAS), ttd.vctx_wf(TABLE_METAS, TABLE_VARS)
    cert = tr.tt_to_cf(corpus_tt, corpus_cf, d, *evidence)
    want = d.conclusion.jdg if hasattr(d.conclusion, "jdg") else d.conclusion.bdry
    assert double_erase(cert.payload) == double_erase(want)


@pytest.mark.parametrize("kind", [k for k in NODE_KINDS if not k.startswith("TT-Bdry")])
def test_presuppositions_of_every_judgement_node_kind(corpus_tt, kind):
    """Each judgement kind, at the root, has presuppositions concluding the
    boundary of its judgement."""
    d = node_kind_table(corpus_tt)[kind]
    ttd = TTDeriver(corpus_tt)
    evidence = ttd.mctx_wf(TABLE_METAS), ttd.vctx_wf(TABLE_METAS, TABLE_VARS)
    bd = tt.presuppositions(corpus_tt, d, *evidence)
    tt.check_derivation(corpus_tt, bd)
    assert bd.conclusion == tt.BdryTT(TABLE_METAS, TABLE_VARS, unfill(d.conclusion.jdg)[0])


def test_tt_to_cf_of_equal_substitution_into_a_type_metavariable(corpus_cf, corpus_tt):
    """Equal substitution of  a == a  into  {x:nat} F(x) type, and into
    {x:nat} N(x) : nat, gives a full metavariable congruence, which
    translates and has its presuppositions.  The term metavariable's node
    needs metavariable-context evidence for its type equation."""
    th = corpus_tt
    ttd = TTDeriver(th)
    a_d = tt.tt_var(th, TABLE_METAS, TABLE_VARS, A)
    mctx_d, vctx_d = ttd.mctx_wf(TABLE_METAS), ttd.vctx_wf(TABLE_METAS, TABLE_VARS)
    triple = [a_d], [a_d], [tt.eqtm_refl(th, a_d)]
    for meta in (F, N):
        m_x, m_a = MetaApp(meta, (BoundVar(0),)), MetaApp(meta, (A,))
        body = IsTy(m_x) if meta == F else IsTm(m_x, NAT)
        fam = ttd.judgement(TABLE_METAS, TABLE_VARS, Abstracted((NAT,), body))
        out = tt.eq_subst_n(th, fam, *triple, mctx_deriv=mctx_d)
        want = EqTy(m_a, m_a, DUMMY) if meta == F else EqTm(m_a, m_a, NAT, DUMMY)
        assert out.conclusion.jdg == plain(want)
        assert out.rule == "TT-Meta-Congr"
        tt.check_derivation(th, out)
        cert = tr.tt_to_cf(th, corpus_cf, out, mctx_d, vctx_d)
        assert double_erase(cert.payload) == out.conclusion.jdg
        bd = tt.presuppositions(th, out, mctx_d, vctx_d)
        assert bd.conclusion.bdry == unfill(out.conclusion.jdg)[0]
    with pytest.raises(MissingContextEvidence, match="N"):
        tt.eq_subst_n(th, fam, *triple)


def test_round_trip_cf_tt_cf(reflect_cert, corpus_cf, corpus_tt):
    back = tr.round_trip_cf(corpus_cf, corpus_tt, reflect_cert)
    assert back.payload == reflect_cert.payload


def test_round_trip_closed(corpus_cf, corpus_tt):
    d = CFDeriver(corpus_cf)
    ty_bool = d.ty(BOOL)
    a = FreeVar("a", BOOL)
    fam = cf.cf_abstract_fwd(corpus_cf, ty_bool, ty_bool, a)
    pi = cf.cf_apply_rule(corpus_cf, "Pi", [ty_bool, fam])
    back = tr.round_trip_cf(corpus_cf, corpus_tt, pi)
    assert back.payload == pi.payload


def test_round_trip_keeps_atoms_that_share_a_name(corpus_cf, corpus_tt):
    """Pi(Id(nat, x, x), {_} Id(bool, x, x)) with x^nat and x^bool comes back
    as itself: neither x is renamed."""
    d = CFDeriver(corpus_cf)
    ty_nat, ty_bool = d.ty(NAT), d.ty(BOOL)
    x_nat = cf.cf_var(corpus_cf, FreeVar("x", NAT), ty_nat)
    x_bool = cf.cf_var(corpus_cf, FreeVar("x", BOOL), ty_bool)
    id_nat = cf.cf_apply_rule(corpus_cf, "Id", [ty_nat, x_nat, x_nat])
    id_bool = cf.cf_apply_rule(corpus_cf, "Id", [ty_bool, x_bool, x_bool])
    fam = cf.cf_abstract_fwd(corpus_cf, id_nat, id_bool, FreeVar("y", id_nat.payload.body.ty))
    pi = cf.cf_apply_rule(corpus_cf, "Pi", [id_nat, fam])
    back = tr.round_trip_cf(corpus_cf, corpus_tt, pi)
    assert back.payload == pi.payload


@pytest.mark.parametrize("kind", ["ty", "tm", "eq", "reflect", "abs"])
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_round_trip_gives_back_the_payload(corpus_cf, corpus_tt, kind, depth):
    """cf -> tt replays the certificate's record, conversions included, so
    the round trip gives back the payload exactly, conversion terms too."""
    rng = random.Random(depth * 10 + len(kind))
    g = CertGen(rng, corpus_cf)
    done = 0
    while done < 8:
        try:
            cert = g.judgement_cert(depth, kind)
        except KernelError:
            continue
        back = tr.round_trip_cf(corpus_cf, corpus_tt, cert).payload
        assert back == cert.payload
        done += 1


# ---------------------------------------------------------------------------
# Transported congruence


def _pi_congruence_inputs(corpus_cf):
    d = CFDeriver(corpus_cf)
    ty_bool = d.ty(BOOL)
    ty_nat = d.ty(NAT)
    a = FreeVar("a", BOOL)
    p = FreeVar("p", id_ty(BOOL, a, a))
    # A1 = bool, A2 = Id(bool,a,a)-free equation? keep it honest: use an
    # equation derivable in the corpus: reflexivity on convertible types and
    # the equality-reflection consequence for the family position.
    eq_a = cf.cf_eqty_refl(corpus_cf, ty_bool, ty_bool)  # bool == bool by {}
    fam = cf.cf_abstract_fwd(corpus_cf, ty_bool, ty_nat, a)  # {x:bool} nat type
    b = FreeVar("b", BOOL)
    fam_eq = cf.cf_abstract_fwd(
        corpus_cf, ty_bool, cf.cf_eqty_refl(corpus_cf, ty_nat, ty_nat), b
    )  # {x:bool} nat == nat by {}
    return eq_a, fam_eq, fam


def test_transported_congruence_pi(corpus_cf, corpus_tt):
    eq_a, fam_eq, fam = _pi_congruence_inputs(corpus_cf)
    out = tr.transported_congruence(
        corpus_cf, corpus_tt, "Pi", [eq_a, fam_eq]
    )
    body = out.payload.body
    assert isinstance(body, EqTy)
    pi = SymbolApp("Pi", (ExprArg(BOOL), Abstr(ExprArg(NAT))))
    assert erased_equal(body.lhs, pi)
    assert erased_equal(body.rhs, pi)
    # beta is drawn from the inputs
    inputs = asm(eq_a.payload, fam_eq.payload)
    assert body.by.issubset(inputs)


def test_transported_congruence_matches_cf_congruence(corpus_cf, corpus_tt):
    """The transported instance agrees with the direct cf congruence rule up
    to erasure."""
    eq_a, fam_eq, fam = _pi_congruence_inputs(corpus_cf)
    d = CFDeriver(corpus_cf)
    ty_bool = d.ty(BOOL)
    direct = cf.cf_congruence(
        corpus_cf, "Pi", [ty_bool, fam], [ty_bool, fam], [eq_a, fam_eq]
    )
    out = tr.transported_congruence(corpus_cf, corpus_tt, "Pi", [eq_a, fam_eq])
    assert erased_equal(out.payload.body.lhs, direct.payload.body.lhs)
    assert erased_equal(out.payload.body.rhs, direct.payload.body.rhs)


@pytest.mark.parametrize("depth", [0, 1], ids=["a", "succ_a"])
def test_transported_congruence_term_rule(corpus_cf, corpus_tt, depth):
    """Congruence for the term rule succ over  s == t  (s = a or succ(a)),
    the equation obtained by reflection from  p : Id(nat, s, t)."""
    d = CFDeriver(corpus_cf)
    ty_nat = d.ty(NAT)
    s = cf.cf_var(corpus_cf, FreeVar("a", NAT), ty_nat)
    t = cf.cf_var(corpus_cf, FreeVar("b", NAT), ty_nat)
    for _ in range(depth):
        s = cf.cf_apply_rule(corpus_cf, "succ", [s])
        t = cf.cf_apply_rule(corpus_cf, "succ", [t])
    id_st = cf.cf_apply_rule(corpus_cf, "Id", [ty_nat, s, t])
    p = cf.cf_var(corpus_cf, FreeVar("p", id_st.payload.body.ty), id_st)
    eq = cf.cf_apply_rule(corpus_cf, "eq_reflect", [ty_nat, s, t, p])
    out = tr.transported_congruence(corpus_cf, corpus_tt, "succ", [eq])
    body = out.payload.body
    assert isinstance(body, EqTm)
    assert erased_equal(body.lhs, SymbolApp("succ", (ExprArg(s.payload.body.term),)))
    assert erased_equal(body.rhs, SymbolApp("succ", (ExprArg(t.payload.body.term),)))
    assert body.by.issubset(asm(eq.payload))


# ---------------------------------------------------------------------------
# tt -> cf where a premise's certificate is erasure-equal to, but not equal
# with, what the rule wants.  A term converted along reflexivity is
# convert(a, {}) in cf, so the cf translation of Id(nat, a, a) derived from
# it is Id(nat, convert(a, {}), a), which the variable p : Id(nat, a, a)
# does not live at.

P = FreeVar("p")
M2 = MetaName("M")
CONV_METAS = MetaCtx([(M2, Abstracted((NAT, id_ty(NAT, BoundVar(0), BoundVar(0))), IsTyB()))])
CONV_VARS = VarCtx([(A, NAT), (P, id_ty(NAT, A, A))])
A_CF = FreeVar("a", NAT)
P_CF = FreeVar("p", id_ty(NAT, A_CF, A_CF))
EMPTY = AssumptionSet()


def conversion_inputs(th):
    """The derivations over  M : {x:nat} {y:Id(nat,x,x)} type ; a : nat,
    p : Id(nat,a,a)  that the cases below are built from."""
    ttd = TTDeriver(th)
    mctx, vctx = CONV_METAS, CONV_VARS
    nat_d = ttd.ty(mctx, vctx, NAT)
    a_d = tt.tt_var(th, mctx, vctx, A)
    a_conv = tt.conv_tm(th, a_d, tt.eqty_refl(th, nat_d))
    inst = Instantiation([(MetaName(m), ExprArg(e)) for m, e in (("A", NAT), ("s", A), ("t", A))])
    id_plain = tt.specific(th, mctx, vctx, "Id", inst, [nat_d, a_d, a_d])
    id_conv = tt.specific(th, mctx, vctx, "Id", inst, [nat_d, a_conv, a_d])
    p_d = tt.tt_var(th, mctx, vctx, P)
    return ttd, a_d, id_plain, id_conv, p_d


def translated(corpus_cf, corpus_tt, d):
    """tt -> cf of ``d``, which re-checks, with context evidence: the
    certificate double-erases to the conclusion, and a judgement's goes back
    to a tt derivation of that conclusion that re-checks."""
    tt.check_derivation(corpus_tt, d)
    ttd = TTDeriver(corpus_tt)
    evidence = ttd.mctx_wf(CONV_METAS), ttd.vctx_wf(CONV_METAS, CONV_VARS)
    cert = tr.tt_to_cf(corpus_tt, corpus_cf, d, *evidence)
    want = d.conclusion.jdg if hasattr(d.conclusion, "jdg") else d.conclusion.bdry
    assert double_erase(cert.payload) == double_erase(want)
    if hasattr(d.conclusion, "jdg"):
        _, _, back = tr.cf_judgement_to_tt(corpus_cf, corpus_tt, cert)
        tt.check_derivation(corpus_tt, back)
        assert back.conclusion.jdg == erase(cert.payload)
    return cert


def test_tt_to_cf_retypes_a_term_to_an_erasure_equal_type(corpus_cf, corpus_tt):
    """TT-Bdry-EqTm over Id(nat, convert(a, {}), a) moves p onto that type."""
    *_, id_conv, p_d = conversion_inputs(corpus_tt)
    cert = translated(corpus_cf, corpus_tt, tt.bdry_eqtm(corpus_tt, id_conv, p_d, p_d))
    body = cert.payload.body
    assert body.ty == id_ty(NAT, Convert(A_CF, EMPTY), A_CF)
    assert isinstance(body.lhs, Convert) and body.lhs.term == P_CF


def test_tt_to_cf_rectifies_the_left_side_of_a_type_equation(corpus_cf, corpus_tt):
    """p converted along reflexivity of Id(nat, convert(a, {}), a): the
    equation's left side is rectified to p's type first."""
    *_, id_conv, p_d = conversion_inputs(corpus_tt)
    cert = translated(corpus_cf, corpus_tt, tt.conv_tm(corpus_tt, p_d, tt.eqty_refl(corpus_tt, id_conv)))
    body = cert.payload.body
    assert body.ty == id_ty(NAT, Convert(A_CF, EMPTY), A_CF)
    assert body.term == Convert(P_CF, EMPTY)


def test_tt_to_cf_retypes_a_term_equation_to_an_erasure_equal_type(corpus_cf, corpus_tt):
    """Transitivity of  p == p  and of p converted, whose cf equations live
    at Id(nat, a, a) and at Id(nat, convert(a, {}), a): the second moves to
    the first's type."""
    th = corpus_tt
    *_, id_conv, p_d = conversion_inputs(th)
    p_conv = tt.conv_tm(th, p_d, tt.eqty_refl(th, id_conv))
    d = tt.eqtm_trans(th, tt.eqtm_refl(th, p_d), tt.eqtm_refl(th, p_conv))
    body = translated(corpus_cf, th, d).payload.body
    assert body.ty == id_ty(NAT, A_CF, A_CF)
    assert body.lhs == P_CF and erased_equal(body.rhs, P_CF) and body.rhs != P_CF


def test_tt_to_cf_of_a_metavariable_binding_two_variables(corpus_cf, corpus_tt):
    """M(a, p): the second binder type, Id(nat, x, x), has the first argument
    substituted before p fills it."""
    th = corpus_tt
    _, a_d, _, _, p_d = conversion_inputs(th)
    cert = translated(corpus_cf, th, tt.tt_meta(th, CONV_METAS, CONV_VARS, M2, [a_d, p_d]))
    assert cert.payload == plain(IsTy(MetaApp(MetaName("M", CONV_METAS[M2]), (A_CF, P_CF))))


def test_tt_to_cf_moves_converted_arguments_onto_a_metavariable_s_binder_types(
    corpus_cf, corpus_tt, monkeypatch
):
    """M(a', p'), a converted along nat == nat and p along the reflexivity
    of Id(nat, convert(a, {}), a): each argument is moved onto its binder
    type, the second with a' substituted, and the result replays."""
    th = corpus_tt
    ttd, a_d, _, id_conv, p_d = conversion_inputs(th)
    a_conv = tt.conv_tm(th, a_d, tt.eqty_refl(th, ttd.ty(CONV_METAS, CONV_VARS, NAT)))
    p_conv = tt.conv_tm(th, p_d, tt.eqty_refl(th, id_conv))
    calls = []
    real = cf.binder_type_cert
    monkeypatch.setattr(cf, "binder_type_cert", lambda *a: calls.append(a[2]) or real(*a))
    cert = translated(corpus_cf, th, tt.tt_meta(th, CONV_METAS, CONV_VARS, M2, [a_conv, p_conv]))
    assert calls == [0, 1]
    a2 = Convert(A_CF, EMPTY)
    args = (a2, Convert(Convert(P_CF, EMPTY), EMPTY))
    assert cert.payload == plain(IsTy(MetaApp(MetaName("M", CONV_METAS[M2]), args)))


def test_tt_to_cf_converts_a_type_equation_onto_its_fills(corpus_cf, corpus_tt):
    """Congruence of Pi over Id(nat, a, a), whose domain equation is
    reflexivity of Id(nat, convert(a, {}), a): boundary conversion moves it
    onto the equation boundary of the domain's fills."""
    th = corpus_tt
    ttd, _, id_plain, id_conv, _ = conversion_inputs(th)
    idt = id_ty(NAT, A, A)
    fam = ttd.judgement(CONV_METAS, CONV_VARS, Abstracted((idt,), IsTy(NAT)))
    fam_eq = ttd.judgement(CONV_METAS, CONV_VARS, Abstracted((idt,), EqTy(NAT, NAT, DUMMY)))
    pi = Instantiation([(MetaName("A"), ExprArg(idt)), (MetaName("B"), Abstr(ExprArg(NAT)))])
    premises = [id_plain, fam, id_plain, fam, tt.eqty_refl(th, id_conv), fam_eq]
    cert = translated(corpus_cf, th, tt.congruence(th, CONV_METAS, CONV_VARS, "Pi", pi, pi, premises))
    pi_cf = SymbolApp("Pi", (ExprArg(id_ty(NAT, A_CF, A_CF)), Abstr(ExprArg(NAT))))
    assert cert.payload.body.lhs == cert.payload.body.rhs == pi_cf


def test_tt_to_cf_of_a_specific_node_certifies_no_presupposition(corpus_cf, corpus_tt, monkeypatch):
    """succ(a): the premise is moved onto the boundary it fills, read off its
    own judgement, so no presupposition is certified."""
    calls = []
    real = cf.presuppositions_cf
    monkeypatch.setattr(cf, "presuppositions_cf", lambda *args: calls.append(args) or real(*args))
    d = node_kind_table(corpus_tt)["TT-Specific-Eco"]
    ttd = TTDeriver(corpus_tt)
    evidence = ttd.mctx_wf(TABLE_METAS), ttd.vctx_wf(TABLE_METAS, TABLE_VARS)
    cert = tr.tt_to_cf(corpus_tt, corpus_cf, d, *evidence)
    assert cert.payload == plain(IsTm(SymbolApp("succ", (ExprArg(FreeVar("a", NAT)),)), NAT))
    assert calls == []


def test_labels_from_context_evidence_are_certificates_of_the_annotations(corpus_cf, corpus_tt):
    """Over F : {x:nat} type ; a : nat, b : F(a), each label is a
    certificate: of the entry's boundary for a metavariable, of ``IsTy`` of
    the entry's type for a variable."""
    ttd = TTDeriver(corpus_tt)
    mctx = MetaCtx([(F, Abstracted((NAT,), IsTyB()))])
    b = FreeVar("b")
    vctx = VarCtx([(A, NAT), (b, f_of(A))])
    tr_ = tr.TTtoCF(corpus_tt, corpus_cf)
    metas, variables = tr_.labelings_from_evidence(ttd.mctx_wf(mctx), ttd.vctx_wf(mctx, vctx))
    assert set(metas) == {F} and set(variables) == {A, b}
    for m, bdry in mctx:
        assert isinstance(metas[m], cf.CertifiedBoundary)
        assert double_erase(metas[m].payload) == bdry
    for v, ty in vctx:
        assert isinstance(variables[v], cf.CertifiedJudgement)
        assert double_erase(variables[v].payload) == plain(IsTy(ty))


def test_tt_to_cf_moves_a_premise_that_does_not_fill_its_boundary(corpus_cf, corpus_tt, monkeypatch):
    """The Pi congruence of ``test_tt_to_cf_converts_a_type_equation_onto_its_fills``:
    the domain equation lives at Id(nat, convert(a, {}), a), which erases to
    but is not the boundary of its fills, so boundary conversion really
    moves it, and the certificate re-checks."""
    moved = []
    real = cf.boundary_convert

    def spy(theory, cert_b, cert_j):
        if unfill(cert_j.payload)[0] != cert_b.payload:
            moved.append((unfill(cert_j.payload)[0], cert_b.payload))
        return real(theory, cert_b, cert_j)

    monkeypatch.setattr(cf, "boundary_convert", spy)
    th = corpus_tt
    ttd, _, id_plain, id_conv, _ = conversion_inputs(th)
    idt = id_ty(NAT, A, A)
    fam = ttd.judgement(CONV_METAS, CONV_VARS, Abstracted((idt,), IsTy(NAT)))
    fam_eq = ttd.judgement(CONV_METAS, CONV_VARS, Abstracted((idt,), EqTy(NAT, NAT, DUMMY)))
    pi = Instantiation([(MetaName("A"), ExprArg(idt)), (MetaName("B"), Abstr(ExprArg(NAT)))])
    premises = [id_plain, fam, id_plain, fam, tt.eqty_refl(th, id_conv), fam_eq]
    cert = translated(corpus_cf, th, tt.congruence(th, CONV_METAS, CONV_VARS, "Pi", pi, pi, premises))
    assert moved and all(erase(b1) == erase(b2) for b1, b2 in moved)
    pi_cf = SymbolApp("Pi", (ExprArg(id_ty(NAT, A_CF, A_CF)), Abstr(ExprArg(NAT))))
    assert cert.payload.body.lhs == cert.payload.body.rhs == pi_cf


# ---------------------------------------------------------------------------
# Kernel calls per tt -> cf node: a premise that already fills its rule's
# boundary goes to the constructor as it is.


def kernel_calls(monkeypatch, run) -> dict:
    """Runs ``run`` and counts the public ``cf_engine`` calls it makes
    ("all"), those the tt -> cf node steps make ("cf") and the node steps
    ("node"); a call made from inside another ``cf_engine`` call is not
    counted."""
    count = {"all": 0, "cf": 0, "node": 0}
    inside = {"cf": 0, "node": 0}

    def counted(f, key):
        def wrapper(*args, **kwargs):
            if key == "cf" and not inside["cf"]:
                count["all"] += 1
            if key == "node" or (inside["node"] and not inside["cf"]):
                count[key] += 1
            inside[key] += 1
            try:
                return f(*args, **kwargs)
            finally:
                inside[key] -= 1

        return wrapper

    for name, f in list(vars(cf).items()):
        if inspect.isfunction(f) and f.__module__ == cf.__name__ and not name.startswith("_"):
            monkeypatch.setattr(cf, name, counted(f, "cf"))
    for name in set(tr.TTtoCF._KINDS.values()):
        monkeypatch.setattr(tr.TTtoCF, name, counted(getattr(tr.TTtoCF, name), "node"))
    run()
    return count


def cf_calls_per_node(monkeypatch, run) -> float:
    """The public ``cf_engine`` calls of ``run``'s tt -> cf node steps, per
    node step."""
    count = kernel_calls(monkeypatch, run)
    assert count["node"] > 0
    return count["cf"] / count["node"]


def congruence_of_id(th):
    """Id(nat, s, u) == Id(nat, t, u) over  s == t  by reflection."""
    ty_nat = CFDeriver(th).ty(NAT)
    s, t, u = (cf.cf_var(th, FreeVar(x, NAT), ty_nat) for x in "stu")
    id_st = cf.cf_apply_rule(th, "Id", [ty_nat, s, t])
    p = cf.cf_var(th, FreeVar("p", id_st.payload.body.ty), id_st)
    eq = cf.cf_apply_rule(th, "eq_reflect", [ty_nat, s, t, p])
    return [cf.cf_eqty_refl(th, ty_nat, ty_nat), eq, cf.cf_eqtm_refl(th, u, u)]


def congruence_of_lam(th):
    """lam(bool, {x} bool, {x} b) over reflexivity in every premise."""
    ty_bool = CFDeriver(th).ty(BOOL)
    vb = cf.cf_var(th, FreeVar("b", BOOL), ty_bool)
    return [
        cf.cf_eqty_refl(th, ty_bool, ty_bool),
        cf.cf_abstract_fwd(th, ty_bool, cf.cf_eqty_refl(th, ty_bool, ty_bool), FreeVar("u", BOOL)),
        cf.cf_abstract_fwd(th, ty_bool, cf.cf_eqtm_refl(th, vb, vb), FreeVar("w", BOOL)),
    ]


def gated(text):
    """The cf and tt theories of ``text``, through both gates."""
    decl = parse_theory(text)
    out = elaborate(decl, "cf"), elaborate(decl, "tt")
    for th in out:
        check_finitary(th)
        check_standard(th)
    return out


@pytest.fixture(scope="module")
def lambda_theories():
    return gated(LAMBDA_THEORY)


@pytest.mark.parametrize("rule, most", [("Pi", 4), ("Id", 5), ("lam", 11)])
def test_transported_congruence_bounds_its_kernel_calls(
    corpus_cf, corpus_tt, lambda_theories, monkeypatch, rule, most
):
    """tt -> cf of the congruence derivation is handed each premise's own
    certificate for the premise's derivation, so its cf calls build only the
    congruence around them: at most 4, 5 and 11, where translating each
    premise and its fills back took 18, 15 and 36."""
    shape = "pi_inputs" if rule == "Pi" else rule
    t_cf, t_tt, _, eqs = congruence_shape(shape, corpus_cf, corpus_tt, lambda_theories)

    def run():
        tr.transported_congruence(t_cf, t_tt, rule, eqs)

    assert kernel_calls(monkeypatch, run)["all"] <= most


def test_tt_to_cf_of_derived_terms_makes_one_kernel_call_per_node(corpus_cf, corpus_tt, monkeypatch):
    """succ^k(a) for k = 0..4: each node goes to its constructor as it is."""
    ttd = TTDeriver(corpus_tt)
    evidence = ttd.mctx_wf(TABLE_METAS), ttd.vctx_wf(TABLE_METAS, TABLE_VARS)
    terms = [A]
    for _ in range(4):
        terms.append(SymbolApp("succ", (ExprArg(terms[-1]),)))
    derivations = [ttd.tm(TABLE_METAS, TABLE_VARS, t, NAT) for t in terms]

    def run():
        for d in derivations:
            tr.tt_to_cf(corpus_tt, corpus_cf, d, *evidence)

    assert cf_calls_per_node(monkeypatch, run) <= 1.1


def test_round_trips_make_one_kernel_call_per_node(corpus_cf, corpus_tt, monkeypatch):
    """cf -> tt -> cf of CertGen certificates of every kind."""
    g = CertGen(random.Random(24), corpus_cf)
    kinds = ["ty", "tm", "eq", "reflect", "abs"]
    certs = []
    while len(certs) < 10:
        try:
            certs.append(g.judgement_cert(len(certs) % 3, kinds[len(certs) % 5]))
        except KernelError:
            continue

    def run():
        for cert in certs:
            tr.round_trip_cf(corpus_cf, corpus_tt, cert)

    assert cf_calls_per_node(monkeypatch, run) <= 1.1


# ---------------------------------------------------------------------------
# Transported congruence at the cost of its premises: the congruence rule
# applied to the fills with no weakening of the rule's witness, no binder
# conversion along reflexivity, and t' moved only where its type equation's
# sides differ from the instances' types.


def forged_nodes(th):
    """Each premise of each ``node_kind_table`` kind replaced by each other
    table derivation, without ``node()``."""
    table = node_kind_table(th)
    return [
        tt.Derivation(d.rule, d.data, d.premises[:i] + (e,) + d.premises[i + 1 :], d.conclusion)
        for d in table.values()
        for i in range(len(d.premises))
        for e in table.values()
        if e is not d.premises[i]
    ]


def test_tt_to_cf_of_forged_nodes_refuses_with_kernel_errors(corpus_cf, corpus_tt):
    """tt -> cf translates each of the ``forged_nodes`` or refuses it with a
    ``KernelError``, and never reads a premise of the wrong shape as if it
    had the right one."""
    ttd = TTDeriver(corpus_tt)
    evidence = ttd.mctx_wf(TABLE_METAS), ttd.vctx_wf(TABLE_METAS, TABLE_VARS)
    forged = forged_nodes(corpus_tt)
    assert len(forged) == 1047
    refused = 0
    for f in forged:
        try:
            tr.tt_to_cf(corpus_tt, corpus_cf, f, *evidence)
        except KernelError:
            refused += 1
    assert refused > 900


def test_presuppositions_of_forged_nodes_refuses_with_kernel_errors(corpus_tt):
    """``presuppositions`` derives the boundary of each of the
    ``forged_nodes`` or refuses it with a ``KernelError``: the boundary of a
    premise is read only once it has the shape its rule reads."""
    ttd = TTDeriver(corpus_tt)
    evidence = ttd.mctx_wf(TABLE_METAS), ttd.vctx_wf(TABLE_METAS, TABLE_VARS)
    refused = 0
    for f in forged_nodes(corpus_tt):
        try:
            tt.presuppositions(corpus_tt, f, *evidence)
        except KernelError:
            refused += 1
    assert refused > 700


def test_tt_to_cf_rectifies_the_right_side_of_a_term_congruence_type_equation(
    corpus_cf, corpus_tt
):
    """The congruence of refl(nat, a) with itself whose right fill for a is
    converted along nat == nat: in cf the right instance lives at Id(nat, convert(a, {}),
    convert(a, {})), not at the right side Id(nat, a, a) of the conclusion's
    type equation, so that side is moved onto it before t' is formed."""
    th = corpus_tt
    ttd, a_d, id_plain, _, _ = conversion_inputs(th)
    nat_d = ttd.ty(CONV_METAS, CONV_VARS, NAT)
    a_conv = tt.conv_tm(th, a_d, tt.eqty_refl(th, nat_d))
    inst = Instantiation([(MetaName("A"), ExprArg(NAT)), (MetaName("a"), ExprArg(A))])
    premises = [
        nat_d, a_d, nat_d, a_conv, tt.eqty_refl(th, nat_d), tt.eqtm_refl(th, a_d),
        tt.eqty_refl(th, id_plain),
    ]
    d = tt.congruence(th, CONV_METAS, CONV_VARS, "refl", inst, inst, premises)
    cert = translated(corpus_cf, th, d)
    refl_of = lambda t: SymbolApp("refl", (ExprArg(NAT), ExprArg(t)))
    want = EqTm(refl_of(A_CF), Convert(refl_of(Convert(A_CF, EMPTY)), EMPTY), id_ty(NAT, A_CF, A_CF), EMPTY)
    assert cert.payload == plain(want)


PQ_THEORY = """\
rule P: yields type
rule Q: yields type
rule pq: yields P == Q
rule Pi: premise A : type; premise B : {x : A} type; yields type
"""
P_TY, Q_TY = SymbolApp("P", ()), SymbolApp("Q", ())


@pytest.fixture(scope="module")
def pq_theories():
    return gated(PQ_THEORY)


def pq_inputs(t_cf):
    """The premises of Pi's congruence along  P == Q  and  {x : P} P == P."""
    ty_p = CFDeriver(t_cf).ty(P_TY)
    fam_eq = cf.cf_abstract_fwd(t_cf, ty_p, cf.cf_eqty_refl(t_cf, ty_p, ty_p), FreeVar("x", P_TY))
    return [cf.cf_apply_rule(t_cf, "pq", []), fam_eq]


def test_transported_congruence_converts_a_binder_type_that_differs(pq_theories, monkeypatch):
    """Along  P == Q  the right fill of B is moved from  {x : P} P  to its own
    boundary  {x : Q} P  by one binder conversion, which re-checks."""
    t_cf, t_tt = pq_theories
    converted = []
    real = tt.conv_abstr

    def spy(*args):
        converted.append(real(*args))
        return converted[-1]

    monkeypatch.setattr(tt, "conv_abstr", spy)
    with contextlib.suppress(TypeMismatch):  # the refusal that follows: see the next test
        tr.transported_congruence(t_cf, t_tt, "Pi", pq_inputs(t_cf))
    (d,) = converted
    tt.check_derivation(t_tt, d)
    assert d.conclusion.jdg == Abstracted((Q_TY,), IsTy(P_TY))


@pytest.mark.xfail(strict=True, raises=TypeMismatch, reason=(
    "tt->cf moves the equation of B onto the boundary of its fills by opening"
    " both at one variable of type P, which the fill over Q does not take"
))
def test_transported_congruence_along_a_binder_type_equation_that_differs(pq_theories):
    """Pi(P, {x} P) == Pi(Q, {x} P)."""
    t_cf, t_tt = pq_theories
    out = tr.transported_congruence(t_cf, t_tt, "Pi", pq_inputs(t_cf))
    pi = lambda a: SymbolApp("Pi", (ExprArg(a), Abstr(ExprArg(P_TY))))
    assert isinstance(out.payload.body, EqTy)
    assert erased_equal(out.payload.body.lhs, pi(P_TY))
    assert erased_equal(out.payload.body.rhs, pi(Q_TY))


def pi_congruence_of(th, dom, cod):
    """Pi(dom, {x} cod) over reflexivity, as ``translate_mix`` draws it."""
    d = CFDeriver(th)
    ty_dom, ty_cod = d.ty(dom), d.ty(cod)
    x = FreeVar("x7", dom)
    fam_eq = cf.cf_abstract_fwd(th, ty_dom, cf.cf_eqty_refl(th, ty_cod, ty_cod), x)
    return [cf.cf_eqty_refl(th, ty_dom, ty_dom), fam_eq]


MIX_SHAPES = ["pi_inputs", "Pi-bool-bool", "Pi-bool-nat", "Pi-nat-bool", "Pi-nat-nat", "lam"]


def congruence_shape(shape, corpus_cf, corpus_tt, lambda_theories):
    """The theories, rule and premises of a transported congruence shaped as
    ``translate_mix`` draws it."""
    if shape == "lam":
        return (*lambda_theories, "lam", congruence_of_lam(lambda_theories[0]))
    if shape == "pi_inputs":
        return corpus_cf, corpus_tt, "Pi", list(_pi_congruence_inputs(corpus_cf)[:2])
    if shape == "Id":
        return corpus_cf, corpus_tt, "Id", congruence_of_id(corpus_cf)
    dom, cod = ({"bool": BOOL, "nat": NAT}[x] for x in shape.split("-")[1:])
    return corpus_cf, corpus_tt, "Pi", pi_congruence_of(corpus_cf, dom, cod)


@pytest.mark.parametrize("shape", MIX_SHAPES)
def test_transported_congruence_neither_weakens_nor_converts_along_reflexivity(
    corpus_cf, corpus_tt, lambda_theories, monkeypatch, shape
):
    """A term rule's conclusion type, as the rule's finitary witness derives
    it, goes to equal instantiation as it is, not weakened to the target
    context, and no fill is converted along a binder-type equation whose
    sides are equal."""
    t_cf, t_tt, rule, eqs = congruence_shape(shape, corpus_cf, corpus_tt, lambda_theories)
    calls = []
    for name in ("weaken_vars", "conv_abstr"):

        def spy(*args, _real=getattr(tt, name), _name=name):
            calls.append((_name, sys._getframe(1).f_globals["__name__"]))
            return _real(*args)

        monkeypatch.setattr(tt, name, spy)
    tr.transported_congruence(t_cf, t_tt, rule, eqs)
    assert ("weaken_vars", tr.__name__) not in calls
    assert not [c for c in calls if c[0] == "conv_abstr"]


# ---------------------------------------------------------------------------
# Transported congruence by the congruence closure rule: TT-Congr over the
# premises' fills and equations, with a term rule's type equation from equal
# instantiation of the conclusion type its finitary witness derives.


def refl2_premises(th):
    """bool, u, v and  e : u == v  reflected from  p : Id(bool, u, v)."""
    ty_bool = CFDeriver(th).ty(BOOL)
    u, v = (cf.cf_var(th, FreeVar(x, BOOL), ty_bool) for x in "uv")
    id_uv = cf.cf_apply_rule(th, "Id", [ty_bool, u, v])
    p = cf.cf_var(th, FreeVar("p", id_uv.payload.body.ty), id_uv)
    return ty_bool, u, v, cf.cf_apply_rule(th, "eq_reflect", [ty_bool, u, v, p])


def by_the_generic_conclusion(t_cf, t_tt, rule, certs):
    """Transported congruence by the older route: the rule's generic
    conclusion derived by the obligation search, instantiated equally with
    the premises' fills and equations, then tt -> cf with the same known
    premise certificates."""
    rule_tt = t_tt.rule(rule).rule
    ctx = mctx, vctx = tr._context_of(*(c.payload for c in certs))
    translator = tr.CfToTT(t_cf, t_tt)
    known = [(translator.judgement(c, ctx)[2], c) for c in certs]
    entries = []
    for i, ((m, b), (p, _)) in enumerate(zip(rule_tt.premises, known)):
        if boundary_arity(b).cls.is_object:
            i_d, jat_d = tr._fills_tt(t_tt, p, lambda: translator._evidence(ctx))
            entries.append(tt.EqInstEntry(m, i_d, tr._j_fill_tt(t_tt, rule_tt, i, jat_d, entries), jat_d, p))
        else:
            entries.append(tt.EqInstEntry(m, p, p, p, None))
    ttd = TTDeriver(t_tt)
    xi = MetaCtx(list(rule_tt.premises))
    generic = ttd.judgement(xi, EMPTY_VARS, plain(rule_tt.conclusion))
    _, _, d_eq = tt.eq_instantiate(t_tt, entries, generic, mctx, vctx, ttd.mctx_wf(xi))
    return tr.tt_to_cf(t_tt, t_cf, d_eq, labelings=tr._labelings_for(mctx, vctx, *certs), known=known)


@pytest.mark.parametrize("shape", [*MIX_SHAPES, "Id"])
def test_transported_congruence_gives_what_the_generic_conclusion_gave(
    corpus_cf, corpus_tt, lambda_theories, shape
):
    """The payload, certificate class and annotation cache keys are those of
    the route through the generic conclusion."""
    t_cf, t_tt, rule, eqs = congruence_shape(shape, corpus_cf, corpus_tt, lambda_theories)
    out = tr.transported_congruence(t_cf, t_tt, rule, eqs)
    ref = by_the_generic_conclusion(t_cf, t_tt, rule, eqs)
    assert out.payload == ref.payload
    assert type(out) is type(ref)
    assert set(out._annotations) == set(ref._annotations)


def test_transported_congruence_over_a_rule_with_an_equation_premise():
    """refl2 along reflexivity, with its equation premise e as it is: the
    obligation search does not derive the generic conclusion
    refl2(A, s, t, *) : Id(A, s, t), but the congruence rule gives
    r == convert(r, {}) : Id(bool, u, v)  for  r = refl2(bool, u, v, e)."""
    t_cf, t_tt = gated(EQUATIONAL_THEORY)
    ty_bool, u, v, e = refl2_premises(t_cf)
    eqs = [cf.cf_eqty_refl(t_cf, ty_bool, ty_bool), cf.cf_eqtm_refl(t_cf, u, u), cf.cf_eqtm_refl(t_cf, v, v), e]
    with pytest.raises(DeriveError):
        by_the_generic_conclusion(t_cf, t_tt, "refl2", eqs)
    out = tr.transported_congruence(t_cf, t_tt, "refl2", eqs)
    r = cf.cf_apply_rule(t_cf, "refl2", [ty_bool, u, v, e]).payload.body
    assert out.payload == plain(EqTm(r.term, Convert(r.term, EMPTY), r.ty, EMPTY))


def fresh_shape(shape):
    """The congruence ``shape`` over freshly elaborated and gated theories."""
    if shape == "lam":
        t_cf, t_tt = gated(LAMBDA_THEORY)
    else:
        t_cf, t_tt = (mltt_builder(flavor).theory() for flavor in ("cf", "tt"))
        for th in (t_cf, t_tt):
            check_finitary(th)
            check_standard(th)
    return congruence_shape(shape, t_cf, t_tt, (t_cf, t_tt))


@pytest.mark.parametrize("shape", [*MIX_SHAPES, "Id"])
def test_transported_congruence_searches_nothing(monkeypatch, shape):
    """No ``TTDeriver`` method runs, on theories no earlier call has
    touched."""
    t_cf, t_tt, rule, eqs = fresh_shape(shape)
    calls = []
    for name, f in inspect.getmembers(TTDeriver, inspect.isfunction):
        monkeypatch.setattr(TTDeriver, name, lambda *a, _f=f, _n=name, **k: calls.append(_n) or _f(*a, **k))
    tr.transported_congruence(t_cf, t_tt, rule, eqs)
    assert calls == []


@pytest.mark.parametrize("shape", [*MIX_SHAPES, "Id"])
def test_transported_congruence_instantiates_only_a_term_rules_type(
    corpus_cf, corpus_tt, lambda_theories, monkeypatch, shape
):
    """Equal instantiation runs once for lam, over its conclusion type, and
    never for the type rules Pi and Id."""
    t_cf, t_tt, rule, eqs = congruence_shape(shape, corpus_cf, corpus_tt, lambda_theories)
    calls = []
    real = tt.eq_instantiate
    monkeypatch.setattr(tt, "eq_instantiate", lambda *a: calls.append(a) or real(*a))
    tr.transported_congruence(t_cf, t_tt, rule, eqs)
    assert len(calls) == (rule == "lam")


def test_transported_congruence_of_a_term_rule_needs_the_gated_tt_theory():
    """lam over a tt theory that has not passed the finitary gate has no
    witness for its conclusion type, and is refused by name."""
    decl = parse_theory(LAMBDA_THEORY)
    t_cf, t_tt = elaborate(decl, "cf"), elaborate(decl, "tt")
    check_finitary(t_cf)
    check_standard(t_cf)
    with pytest.raises(MissingContextEvidence):
        tr.transported_congruence(t_cf, t_tt, "lam", congruence_of_lam(t_cf))


CAPTURE_THEORY = LAMBDA_THEORY + """\
rule Id: premise A : type; premise s : A; premise t : A; yields type
rule eq_reflect: premise A : type; premise s : A; premise t : A; premise p : Id(A, s, t); yields s == t : A
"""


def test_transported_congruence_keeps_a_proof_variable_named_like_the_generic_binder():
    """lam(bool, {x} bool, {x} s) == lam(bool, {x} bool, {x} t), whose body
    equation is reflected from a proof variable named ``x#0``, the binder
    name of the type derivation in lam's finitary witness, which equal
    instantiation walks for the type equation.  The proof variable is in the
    target context only through the equation's assumption set; the binder
    avoids its name, and the result assumes it."""
    t_cf, t_tt = gated(CAPTURE_THEORY)
    ty_bool = CFDeriver(t_cf).ty(BOOL)
    s, t = (cf.cf_var(t_cf, FreeVar(n, BOOL), ty_bool) for n in "st")
    id_st = cf.cf_apply_rule(t_cf, "Id", [ty_bool, s, t])
    p = FreeVar("x#0", id_st.payload.body.ty)
    eq = cf.cf_apply_rule(t_cf, "eq_reflect", [ty_bool, s, t, cf.cf_var(t_cf, p, id_st)])
    eqs = [
        cf.cf_eqty_refl(t_cf, ty_bool, ty_bool),
        cf.cf_abstract_fwd(t_cf, ty_bool, cf.cf_eqty_refl(t_cf, ty_bool, ty_bool), FreeVar("u", BOOL)),
        cf.cf_abstract_fwd(t_cf, ty_bool, eq, FreeVar("w", BOOL)),
    ]
    out = tr.transported_congruence(t_cf, t_tt, "lam", eqs)
    (binder,) = tt._binding_atoms(t_tt.finitary_witnesses["lam"]["boundary"].premises[0])
    assert binder.name == p.name
    fam = Abstr(ExprArg(BOOL))
    lam = lambda v: SymbolApp("lam", (ExprArg(BOOL), fam, Abstr(ExprArg(v.payload.body.term))))
    pi = SymbolApp("Pi", (ExprArg(BOOL), fam))
    assert out.payload == plain(EqTm(lam(s), Convert(lam(t), EMPTY), pi, AssumptionSet(frozenset({p}))))


# ---------------------------------------------------------------------------
# Transported congruence keeps what it holds: the fills of each premise
# equation are read off the equation's own tt derivation, and tt -> cf is
# handed the premise's certificate for that derivation.


@pytest.mark.parametrize("shape", [*MIX_SHAPES, "Id"])
def test_transported_congruence_splits_no_premise_in_cf(
    corpus_cf, corpus_tt, lambda_theories, monkeypatch, shape
):
    """No presupposition of a premise is certified and no boundary is split
    into its components in cf."""
    t_cf, t_tt, rule, eqs = congruence_shape(shape, corpus_cf, corpus_tt, lambda_theories)
    calls = []
    for name in ("presuppositions_cf", "boundary_components"):

        def spy(*args, _real=getattr(cf, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(cf, name, spy)
    tr.transported_congruence(t_cf, t_tt, rule, eqs)
    assert calls == []


@pytest.mark.parametrize("first", ["type", "equation"])
def test_transported_congruence_refuses_a_premise_that_is_not_an_equation(
    corpus_cf, corpus_tt, first
):
    """Pi over  [nat type, nat type]  or  [nat == nat, nat type]: an object
    premise that is not an equation is refused by name."""
    ty_nat = CFDeriver(corpus_cf).ty(NAT)
    head = ty_nat if first == "type" else cf.cf_eqty_refl(corpus_cf, ty_nat, ty_nat)
    with pytest.raises(PremiseMismatch):
        tr.transported_congruence(corpus_cf, corpus_tt, "Pi", [head, ty_nat])


def presuppositions_in_translate(monkeypatch) -> list:
    """The boundaries ``tt.presuppositions`` derives when ``translate`` calls
    it, collected as they are derived."""
    out = []
    real = tt.presuppositions

    def spy(*args):
        b = real(*args)
        if sys._getframe(1).f_globals["__name__"] == tr.__name__:
            out.append(b)
        return b

    monkeypatch.setattr(tt, "presuppositions", spy)
    return out


def test_transported_congruence_reads_the_fills_of_a_rule_equation_off_its_boundary(
    pq_theories, monkeypatch
):
    """pq concludes  P == Q  from no premise: the fills come from the
    presuppositions of its derivation, and the congruence goes on to the
    binder conversion and the refusal of the xfail above."""
    t_cf, t_tt = pq_theories
    boundaries = presuppositions_in_translate(monkeypatch)
    with pytest.raises(TypeMismatch):
        tr.transported_congruence(t_cf, t_tt, "Pi", pq_inputs(t_cf))
    (b,) = boundaries
    assert [f.conclusion.jdg for f in b.premises] == [plain(IsTy(P_TY)), plain(IsTy(Q_TY))]


def test_transported_congruence_along_a_flipped_reflection(corpus_cf, corpus_tt, monkeypatch):
    """Id(nat, t, u) == Id(nat, s, u) over  t == s, the symmetry of a
    reflection, whose derivation has no premise concluding a side: the fills
    come from its presuppositions, and the result assumes the proof
    variable."""
    refl_nat, eq, refl_u = congruence_of_id(corpus_cf)
    boundaries = presuppositions_in_translate(monkeypatch)
    flipped = cf.cf_eqtm_sym(corpus_cf, eq)
    out = tr.transported_congruence(corpus_cf, corpus_tt, "Id", [refl_nat, flipped, refl_u])
    assert len(boundaries) == 1
    s, t, u = (FreeVar(x, NAT) for x in "stu")
    p = FreeVar("p", id_ty(NAT, s, t))
    assert out.payload == plain(EqTy(id_ty(NAT, t, u), id_ty(NAT, s, u), AssumptionSet(frozenset({p}))))


ASSUMED_CONVERSION_THEORY = """\
rule P: yields type
rule Q: yields type
rule E: yields type
rule pq: premise e : E; yields P == Q
rule f: premise a : Q; yields : Q
rule G: premise a : Q; yields type
"""


@pytest.mark.parametrize("rule", ["f", "G"])
def test_transported_congruence_over_a_premise_converted_under_an_assumption(rule):
    """f and G over  convert(x, {e}) == convert(x, {e}) : Q, where x : P is
    converted along  P == Q  by pq(e): handed back its own certificate,
    tt -> cf concludes what translating the premise's derivation concluded."""
    t_cf, t_tt = gated(ASSUMED_CONVERSION_THEORY)
    d = CFDeriver(t_cf)
    e_ty = SymbolApp("E", ())
    e = FreeVar("e", e_ty)
    pq = cf.cf_apply_rule(t_cf, "pq", [cf.cf_var(t_cf, e, d.ty(e_ty))])
    x = cf.cf_conv_tm(t_cf, cf.cf_var(t_cf, FreeVar("x", P_TY), d.ty(P_TY)), pq)
    out = tr.transported_congruence(t_cf, t_tt, rule, [cf.cf_eqtm_refl(t_cf, x, x)])
    side = SymbolApp(rule, (ExprArg(Convert(FreeVar("x", P_TY), AssumptionSet(frozenset({e})))),))
    if rule == "G":
        assert out.payload == plain(EqTy(side, side, EMPTY))
    else:
        assert out.payload == plain(EqTm(side, Convert(side, EMPTY), Q_TY, EMPTY))
