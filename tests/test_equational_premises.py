"""Object rules with equational premises (the refl-with-equation shape) and
term-rule congruences, across both engines and the translations."""

import pytest

from fintt import cf_engine as cf
from fintt import tt_engine as tt
from fintt import translate as tr
from fintt.derive import CFDeriver, TTDeriver
from fintt.instantiation import Instantiation
from fintt.judgements import EMPTY_METAS, EMPTY_VARS, VarCtx, plain
from fintt.parser import elaborate, parse_script, parse_theory
from fintt.script import ScriptRunner, run_script
from fintt.syntax import (
    Abstr,
    AsmArg,
    DUMMY,
    EqTm,
    EqTmB,
    ExprArg,
    FreeVar,
    IsTm,
    IsTmB,
    IsTy,
    IsTyB,
    MetaName,
    SymbolApp,
    double_erase,
    erase,
    erased_equal,
)
from fintt.theory import check_finitary, check_standard

BOOL = SymbolApp("bool", ())

THEORY_TEXT = """\
rule bool: yields type
rule Id: premise A : type; premise s : A; premise t : A; yields type
rule eq_reflect: premise A : type; premise s : A; premise t : A; premise p : Id(A, s, t); yields s == t : A
rule refl2: premise A : type; premise s : A; premise t : A; premise e : s == t : A; yields : Id(A, s, t)
"""

SCRIPT_TEXT = """\
let tb = rule(bool);
var u : tb;
var v : tb;
let ti = rule(Id, tb, u, v);
var p : ti;
let e = rule(eq_reflect, tb, u, v, p);
let r2 = rule(refl2, tb, u, v, e);
return r2;
"""


LAMBDA_TEXT = THEORY_TEXT + """\
rule Pi: premise A : type; premise B : {x : A} type; yields type
rule lam: premise A : type; premise B : {x : A} type; premise body : {x : A} B(x); yields : Pi(A, {x} B(x))
"""

# lam(Id(bool, u, v), {p} Id(bool, u, v), {p} refl2(bool, u, v, e)), where e
# reflects on the bound p
BOUND_REFLECTION_SCRIPT = SCRIPT_TEXT.replace(
    "return r2;",
    "let fam = abstract(ti, ti, p);\nlet body = abstract(ti, r2, p);\n"
    "let l = rule(lam, ti, fam, body);\nreturn l;",
)


@pytest.fixture(scope="module")
def theories():
    decl = parse_theory(THEORY_TEXT)
    t_cf = elaborate(decl, "cf")
    t_tt = elaborate(decl, "tt")
    check_finitary(t_cf)
    check_finitary(t_tt)
    check_standard(t_cf)
    check_standard(t_tt)
    return t_cf, t_tt


def test_equational_premise_generic_application(theories):
    """The symbol rule's conclusion carries the equality metavariable's
    generic application: a dummy (tt) or the recording set (cf)."""
    t_cf, t_tt = theories
    concl_tt = t_tt.rule("refl2").rule.conclusion
    assert isinstance(concl_tt, IsTm)
    assert concl_tt.term.args[3] == DUMMY
    concl_cf = t_cf.rule("refl2").rule.conclusion
    arg = concl_cf.term.args[3]
    assert isinstance(arg, AsmArg)
    assert any(m.name == "e" for m in arg.assumptions.metas)


def test_script_with_equational_premise_both_engines(theories):
    t_cf, t_tt = theories
    script = parse_script(SCRIPT_TEXT)
    out_cf = run_script(t_cf, script, "cf")
    out_tt = run_script(t_tt, script, "tt")
    assert erase(out_cf.payload) == out_tt.conclusion.jdg
    body = out_cf.payload.body
    assert isinstance(body, IsTm)
    assert body.term.symbol == "refl2"
    # the equation's recording variable survives into the head's set argument
    set_arg = body.term.args[3]
    assert isinstance(set_arg, AsmArg)
    assert any(v.name == "p" for v in set_arg.assumptions.free_vars)


def test_translations_across_equational_premise(theories):
    t_cf, t_tt = theories
    script = parse_script(SCRIPT_TEXT)
    cert = run_script(t_cf, script, "cf")
    mctx, vctx, deriv = tr.cf_judgement_to_tt(t_cf, t_tt, cert)
    tt.check_derivation(t_tt, deriv)
    assert deriv.conclusion.jdg == erase(cert.payload)
    back = tr.round_trip_cf(t_cf, t_tt, cert)
    assert erased_equal(back.payload, cert.payload)
    d_tt = run_script(t_tt, parse_script(SCRIPT_TEXT), "tt", annotate_vars=False)
    ttd = TTDeriver(t_tt)
    m, v = tt._ctxs(d_tt.conclusion)
    cert2 = tr.tt_to_cf(
        t_tt, t_cf, d_tt, tt.mctx_empty(t_tt), ttd.vctx_wf(m, v)
    )
    assert double_erase(cert2.payload) == d_tt.conclusion.jdg


def test_translations_with_reflection_on_a_bound_variable():
    """cf->tt opens the binder of lam's body premise; the proof the
    reflection there needs is the atom it opened, which the judgement's
    assumption set names only as a bound variable.  Transported congruence
    over the abstracted premise equations translates the same premise."""
    decl = parse_theory(LAMBDA_TEXT)
    t_cf, t_tt = elaborate(decl, "cf"), elaborate(decl, "tt")
    check_finitary(t_cf)
    check_finitary(t_tt)
    script = parse_script(BOUND_REFLECTION_SCRIPT)
    cert = run_script(t_cf, script, "cf")
    _, _, deriv = tr.cf_judgement_to_tt(t_cf, t_tt, cert)
    tt.check_derivation(t_tt, deriv)
    assert deriv.conclusion.jdg == erase(cert.payload)

    runner = ScriptRunner(t_cf, "cf")
    runner.run(script)
    ti, r2 = runner.bindings["ti"], runner.bindings["r2"]
    p = runner.variables["p"]
    eqs = [
        cf.cf_eqty_refl(t_cf, ti, ti),
        cf.cf_abstract_fwd(t_cf, ti, cf.cf_eqty_refl(t_cf, ti, ti), p),
        cf.cf_abstract_fwd(t_cf, ti, cf.cf_eqtm_refl(t_cf, r2, r2), p),
    ]
    out = tr.transported_congruence(t_cf, t_tt, "lam", eqs)
    body = out.payload.body
    assert isinstance(body, EqTm)
    assert erased_equal(body.lhs, cert.payload.body.term)
    assert erased_equal(body.rhs, cert.payload.body.term)


def test_term_rule_congruence_tt_to_cf(corpus_cf, corpus_tt):
    """A full contexted congruence instance of a term rule translates to a
    context-free congruence certificate."""
    th = corpus_tt
    ttd = TTDeriver(th)
    NAT = SymbolApp("nat", ())
    a, b, p = FreeVar("a"), FreeVar("b"), FreeVar("p")
    idt = SymbolApp("Id", (ExprArg(NAT), ExprArg(a), ExprArg(b)))
    vctx = VarCtx([(a, NAT), (b, NAT), (p, idt)])
    eq = tt.specific(
        th, EMPTY_METAS, vctx, "eq_reflect",
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
    s_d = tt.tt_var(th, EMPTY_METAS, vctx, a)
    t_d = tt.tt_var(th, EMPTY_METAS, vctx, b)
    ty_eq = tt.eqty_refl(th, ttd.ty(EMPTY_METAS, vctx, NAT))
    inst_l = Instantiation([(MetaName("n"), ExprArg(a))])
    inst_r = Instantiation([(MetaName("n"), ExprArg(b))])
    congr = tt.congruence(
        th, EMPTY_METAS, vctx, "succ", inst_l, inst_r, [s_d, t_d, eq, ty_eq]
    )
    tt.check_derivation(th, congr)
    want = congr.conclusion.jdg.body
    assert isinstance(want, EqTm)
    assert want.lhs == SymbolApp("succ", (ExprArg(a),))
    assert want.rhs == SymbolApp("succ", (ExprArg(b),))
    # translate to a certificate
    cert = tr.tt_to_cf(
        th, corpus_cf, congr, tt.mctx_empty(th), ttd.vctx_wf(EMPTY_METAS, vctx)
    )
    assert double_erase(cert.payload) == congr.conclusion.jdg
    body = cert.payload.body
    assert any(v.name == "p" for v in body.by.free_vars)


def test_term_rule_congruence_cf_direct(corpus_cf):
    d = CFDeriver(corpus_cf)
    NAT = SymbolApp("nat", ())
    ty_nat = d.ty(NAT)
    a = FreeVar("a", NAT)
    b = FreeVar("b", NAT)
    va, vb = cf.cf_var(corpus_cf, a, ty_nat), cf.cf_var(corpus_cf, b, ty_nat)
    idt = SymbolApp("Id", (ExprArg(NAT), ExprArg(a), ExprArg(b)))
    p = FreeVar("p", idt)
    vp = cf.cf_var(corpus_cf, p, d.ty(idt))
    eq = cf.cf_apply_rule(corpus_cf, "eq_reflect", [ty_nat, va, vb, vp])
    # t' : succ(b) converted (trivially) to the left-instantiated type nat
    right_inst = cf.cf_apply_rule(corpus_cf, "succ", [vb])
    refl = cf.cf_eqty_refl(corpus_cf, ty_nat, ty_nat)
    t_prime = cf.cf_conv_tm(corpus_cf, right_inst, refl)
    out = cf.cf_congruence(
        corpus_cf, "succ", [va], [vb], [eq], t_prime_cert=t_prime
    )
    body = out.payload.body
    assert isinstance(body, EqTm)
    assert body.lhs == SymbolApp("succ", (ExprArg(a),))
    assert erased_equal(body.rhs, SymbolApp("succ", (ExprArg(b),)))
    from fintt.syntax import asm

    assert asm(out.payload) == asm(va.payload, vb.payload, eq.payload, t_prime.payload)


def test_equal_substitution_into_a_term_rule_translates(corpus_cf, corpus_tt):
    """Equal substitution of  a == b  into  {x:nat} succ(x) : nat  builds a
    full congruence node for succ, with its type equation, which the tt -> cf
    translation turns into a certificate."""
    from fintt.syntax import Abstracted, BoundVar

    th = corpus_tt
    ttd = TTDeriver(th)
    NAT = SymbolApp("nat", ())
    a, b, p = FreeVar("a"), FreeVar("b"), FreeVar("p")
    vctx = VarCtx([(a, NAT), (b, NAT), (p, SymbolApp("Id", (ExprArg(NAT), ExprArg(a), ExprArg(b))))])
    s_d, t_d, p_d = (tt.tt_var(th, EMPTY_METAS, vctx, v) for v in (a, b, p))
    inst = Instantiation(
        [(MetaName(m), ExprArg(e)) for m, e in (("A", NAT), ("s", a), ("t", b), ("p", p))]
    )
    eq = tt.specific(
        th, EMPTY_METAS, vctx, "eq_reflect", inst, [ttd.ty(EMPTY_METAS, vctx, NAT), s_d, t_d, p_d]
    )
    fam = ttd.judgement(
        EMPTY_METAS, vctx, Abstracted((NAT,), IsTm(SymbolApp("succ", (ExprArg(BoundVar(0)),)), NAT))
    )
    out = tt.eq_subst_n(th, fam, [s_d], [t_d], [eq])
    tt.check_derivation(th, out)
    body = out.conclusion.jdg.body
    assert isinstance(body, EqTm)
    assert (body.lhs, body.rhs) == (SymbolApp("succ", (ExprArg(a),)), SymbolApp("succ", (ExprArg(b),)))
    cert = tr.tt_to_cf(th, corpus_cf, out, tt.mctx_empty(th), ttd.vctx_wf(EMPTY_METAS, vctx))
    assert double_erase(cert.payload) == out.conclusion.jdg
    assert any(v.name == "p" for v in cert.payload.body.by.free_vars)
