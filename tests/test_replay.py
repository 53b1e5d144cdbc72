"""cf -> tt by replaying each certificate's record: every record kind the cf
engine writes, the two certificates the obligation search could not
translate, the search left for the kinds without a route, and a wrong
record refused."""

import pathlib
import random

import pytest

from fintt import cf_engine as cf
from fintt import cli
from fintt import translate as tr
from fintt import tt_engine as tt
from fintt.derive import CFDeriver
from fintt.errors import KernelError, UncheckableDerivation
from fintt.judgements import plain
from fintt.syntax import (
    Abstracted,
    ExprArg,
    FreeVar,
    IsTmB,
    IsTyB,
    MetaName,
    SymbolApp,
    erase,
)

from .gen import CertGen

CORPUS = pathlib.Path(__file__).parent / "corpus"
BOOL = SymbolApp("bool", ())
NAT = SymbolApp("nat", ())


def id_ty(a, s, t):
    return SymbolApp("Id", (ExprArg(a), ExprArg(s), ExprArg(t)))


def replayed(th_cf, th_tt, cert, searched=0):
    """cf -> tt of ``cert``, checked: the derivation re-checks and concludes
    the certificate's erasure, with ``searched`` records searched."""
    translator = tr.CfToTT(th_cf, th_tt)
    mctx, vctx, d = translator.judgement(cert)
    tt.check_derivation(th_tt, d)
    stmt = tt.JdgTT if isinstance(cert, cf.CertifiedJudgement) else tt.BdryTT
    assert d.conclusion == stmt(mctx, vctx, erase(cert.payload))
    assert translator.searched == searched
    return d


def reflected(th, ty, s, t):
    """s == t by equality reflection from a variable p : Id(A, s, t)."""
    id_st = cf.cf_apply_rule(th, "Id", [ty, s, t])
    p = cf.cf_var(th, FreeVar("p" + s.payload.body.term.name, id_st.payload.body.ty), id_st)
    return cf.cf_apply_rule(th, "eq_reflect", [ty, s, t, p])


def refl_along_congruence(th):
    """refl(bool, u) : Id(bool, u, u) converted to Id(bool, u, v) along the
    congruence of Id over  u == v  by equality reflection."""
    d = CFDeriver(th)
    ty_bool = d.ty(BOOL)
    vu, vv = (cf.cf_var(th, FreeVar(n, BOOL), ty_bool) for n in "uv")
    refl = cf.cf_apply_rule(th, "refl", [ty_bool, vu])
    eqs = [cf.cf_eqty_refl(th, ty_bool, ty_bool), cf.cf_eqtm_refl(th, vu, vu), reflected(th, ty_bool, vu, vv)]
    congr = cf.cf_congruence(th, "Id", [ty_bool, vu, vu], [ty_bool, vu, vv], eqs)
    return cf.cf_conv_tm(th, refl, congr)


def constructions(th):
    """Record kind -> certificates whose record is of that kind."""
    d = CFDeriver(th)
    ty_bool, ty_nat = d.ty(BOOL), d.ty(NAT)
    a, b, c = (FreeVar(n, NAT) for n in "abc")
    va, vb, vc = (cf.cf_var(th, v, ty_nat) for v in (a, b, c))
    refl_nat = cf.cf_eqty_refl(th, ty_nat, ty_nat)
    refl_b = cf.cf_eqtm_refl(th, vb, vb)
    succ_a, succ_b, succ_c = (cf.cf_apply_rule(th, "succ", [v]) for v in (va, vb, vc))
    fam = cf.cf_abstract_fwd(th, ty_nat, succ_a, a)  # {x : nat} succ(x) : nat
    conv_a = cf.cf_conv_tm(th, va, refl_nat)
    reflect_bc = reflected(th, ty_nat, vb, vc)
    # N : {x : nat} (□ : nat), F : {x : nat} type, M : □ : nat
    n = MetaName("N", Abstracted((NAT,), IsTmB(NAT)))
    f = MetaName("F", Abstracted((NAT,), IsTyB()))
    m = MetaName("M", plain(IsTmB(NAT)))
    ann_n, ann_f, ann_m = (d.boundary(x.annotation) for x in (n, f, m))
    succ_m = cf.cf_apply_rule(th, "succ", [cf.cf_meta(th, m, [], annotation_cert=ann_m)])
    presup_refl = cf.presuppositions_cf(th, cf.cf_eqtm_refl(th, va, va))
    # p : Id(nat, a, a) moved onto the boundary  □ : Id(nat, convert(a, {}), a)
    id_plain = cf.cf_apply_rule(th, "Id", [ty_nat, va, va])
    refl_a = cf.cf_apply_rule(th, "refl", [ty_nat, va])  # refl(nat, a) : Id(nat, a, a)
    conv_refl_a = cf.cf_conv_tm(th, refl_a, cf.cf_eqty_refl(th, id_plain, id_plain))
    vp = cf.cf_var(th, FreeVar("p", id_plain.payload.body.ty), id_plain)
    id_conv_ty = cf.cf_apply_rule(th, "Id", [ty_nat, conv_a, va])
    id_conv = cf.cf_bdry_tm(th, id_conv_ty)
    # {x : Id(nat, a, a)} b : nat moved onto {x : Id(nat, convert(a, {}), a)} □ : nat
    q1, q2 = FreeVar("q", id_plain.payload.body.ty), FreeVar("q", id_conv_ty.payload.body.ty)
    abs_q = cf.cf_abstract_fwd(th, id_plain, vb, q1)
    abs_conv_bdry = cf.cf_abstract_fwd(th, id_conv_ty, cf.cf_bdry_tm(th, ty_nat), q2)
    congr_id = refl_along_congruence(th).record[2]  # Id(bool, u, u) == Id(bool, u, v)
    return {
        "cf_var": [va],
        "cf_bdry_ty": [cf.cf_bdry_ty(th)],
        "cf_abstract_fwd": [
            fam,
            cf.cf_abstract_fwd(th, ty_nat, cf.cf_bdry_tm(th, ty_nat), a),
            cf.boundary_convert(th, abs_conv_bdry, abs_q),
        ],
        "cf_meta": [
            cf.cf_meta(th, n, [vb], annotation_cert=ann_n),
            cf.cf_meta(th, n, [vb], cf.cf_bdry_tm(th, ty_nat), annotation_cert=ann_n),
        ],
        "cf_meta_congr": [
            cf.cf_meta_congr(th, n, [vb], [vb], [refl_b], annotation_cert=ann_n),
            cf.cf_meta_congr(th, f, [vb], [vc], [reflect_bc], annotation_cert=ann_f),
        ],
        "cf_apply_rule": [succ_a, cf.cf_apply_rule(th, "succ", [va], cf.cf_bdry_tm(th, ty_nat))],
        "cf_congruence": [
            congr_id,
            cf.cf_congruence(th, "succ", [vb], [vc], [reflect_bc], succ_c),
            cf.cf_congruence(th, "succ", [vb], [vc], [reflect_bc], cf.cf_conv_tm(th, succ_c, refl_nat)),
        ],
        "cf_eqty_refl": [refl_nat],
        "cf_eqty_sym": [cf.cf_eqty_sym(th, refl_nat), cf.cf_eqty_sym(th, congr_id)],
        "cf_eqty_trans": [
            cf.cf_eqty_trans(th, refl_nat, refl_nat),
            cf.cf_eqty_trans(th, congr_id, cf.cf_eqty_sym(th, congr_id)),
        ],
        "cf_eqtm_refl": [refl_b],
        "cf_eqtm_sym": [cf.cf_eqtm_sym(th, reflect_bc)],
        "cf_eqtm_trans": [cf.cf_eqtm_trans(th, reflect_bc, cf.cf_eqtm_sym(th, reflect_bc))],
        "cf_conv_tm": [conv_a, refl_along_congruence(th)],
        "cf_conv_eqtm": [cf.cf_conv_eqtm(th, refl_b, refl_nat)],
        "cf_bdry_tm": [cf.cf_bdry_tm(th, ty_nat)],
        "cf_bdry_eqty": [cf.cf_bdry_eqty(th, ty_nat, ty_bool)],
        "cf_bdry_eqtm": [cf.cf_bdry_eqtm(th, ty_nat, va, vb)],
        "cf_substitute": [cf.cf_substitute(th, fam, vb)],
        "cf_subst_eq": [cf.cf_subst_eq(th, fam, [vb], [vc], [reflect_bc])],
        "cf_instantiate": [cf.cf_instantiate(th, [(m, vb)], succ_m)],
        "presuppositions_cf": [cf.presuppositions_cf(th, x) for x in (ty_nat, fam, refl_a)],
        "boundary_components": [*cf.boundary_components(th, presup_refl)[1:], *cf.boundary_components(th, id_conv)],
        "binder_type_cert": [cf.binder_type_cert(th, cf.presuppositions_cf(th, fam), 0)],
        "natural_type_eq": [cf.natural_type_eq(th, refl_a), cf.natural_type_eq(th, conv_refl_a)],
        "invert_cf": [cf.invert_cf(th, conv_a), cf.invert_cf(th, cf.cf_conv_tm(th, conv_a, refl_nat))],
        "strengthen": [cf.strengthen(th, cf.cf_abstract_fwd(th, ty_bool, ty_nat, FreeVar("z", BOOL)))],
    }


def test_the_constructions_cover_every_record_kind(corpus_cf):
    """Each kind has a route but those the search answers; each construction
    is of its kind."""
    built = constructions(corpus_cf)
    kinds = set(tr.CfToTT._TWINS) | set(tr.CfToTT._ROUTES) | {"strengthen"}
    assert set(built) == kinds
    for kind, certs in built.items():
        assert certs and all(c.record[0] == kind for c in certs), kind


KINDS = [
    "cf_var", "cf_bdry_ty", "cf_abstract_fwd", "cf_meta", "cf_meta_congr", "cf_apply_rule",
    "cf_congruence", "cf_eqty_refl", "cf_eqty_sym", "cf_eqty_trans", "cf_eqtm_refl", "cf_eqtm_sym",
    "cf_eqtm_trans", "cf_conv_tm", "cf_conv_eqtm", "cf_bdry_tm", "cf_bdry_eqty", "cf_bdry_eqtm",
    "cf_substitute", "cf_subst_eq", "cf_instantiate", "presuppositions_cf", "boundary_components",
    "binder_type_cert", "natural_type_eq", "invert_cf", "strengthen",
]


@pytest.mark.parametrize("kind", KINDS)
def test_every_record_kind_replays(corpus_cf, corpus_tt, kind):
    """Each construction translates by its record, to a derivation that
    re-checks; only a ``strengthen`` record is searched."""
    for cert in constructions(corpus_cf)[kind]:
        replayed(corpus_cf, corpus_tt, cert, searched=int(kind == "strengthen"))


def narrowed(th):
    """Certificates minted from one that mentions an atom they drop: the
    context of their erasure lacks it, and tt has no strengthening."""
    d = CFDeriver(th)
    ty_nat, ty_bool = d.ty(NAT), d.ty(BOOL)
    va, vb = (cf.cf_var(th, FreeVar(n, NAT), ty_nat) for n in "ab")
    refl_a = cf.cf_eqtm_refl(th, va, va)
    const = cf.cf_abstract_fwd(th, ty_nat, ty_bool, FreeVar("z", NAT))  # {x : nat} bool type
    fam = cf.cf_abstract_fwd(th, ty_nat, cf.cf_bdry_tm(th, cf.cf_apply_rule(th, "Id", [ty_nat, va, va])), FreeVar("y", NAT))
    return [
        cf.presuppositions_cf(th, cf.cf_apply_rule(th, "succ", [va])),  # □ : nat
        cf.boundary_components(th, cf.presuppositions_cf(th, refl_a))[0],  # nat type
        cf.binder_type_cert(th, fam, 0),  # nat type, from a boundary that mentions a
        cf.natural_type_eq(th, va),  # nat == nat
        cf.cf_substitute(th, const, vb),  # bool type
        cf.uniqueness_of_typing_cf(th, va, va),  # nat == nat, through natural_type_eq
    ]


@pytest.mark.parametrize("i", range(6))
def test_a_record_that_drops_an_atom_is_searched(corpus_cf, corpus_tt, i):
    """A record whose certificates mention an atom that its certificate's
    context lacks has no route, and its erasure is searched for."""
    replayed(corpus_cf, corpus_tt, narrowed(corpus_cf)[i], searched=1)


def test_an_abstraction_of_a_bound_atom_is_searched(corpus_tt):
    """app(bool, {x} bool, lam(bool, {x} bool, {x} v), v): the lambda's body
    abstracts v, which the application's argument leaves free, so the
    context binds it and the body's record cannot be replayed there; it is
    searched, and the rest replayed."""
    from fintt.parser import elaborate, parse_theory
    from fintt.theory import check_finitary

    from .test_lambda_theory import THEORY_TEXT

    decl = parse_theory(THEORY_TEXT)
    th_cf, th_tt = elaborate(decl, "cf"), elaborate(decl, "tt")
    for th in (th_cf, th_tt):
        check_finitary(th)
    ty_bool = CFDeriver(th_cf).ty(BOOL)
    v = FreeVar("v", BOOL)
    vv = cf.cf_var(th_cf, v, ty_bool)
    fam = cf.cf_abstract_fwd(th_cf, ty_bool, ty_bool, v)
    lam = cf.cf_apply_rule(th_cf, "lam", [ty_bool, fam, cf.cf_abstract_fwd(th_cf, ty_bool, vv, v)])
    cert = cf.cf_apply_rule(th_cf, "app", [ty_bool, fam, lam, vv])
    replayed(th_cf, th_tt, cert, searched=2)


def test_refl_converted_along_a_congruence_translates(corpus_cf, corpus_tt):
    """The search could not derive the type equation, which needs a
    congruence of Id; the replay builds its TT-Congr node, and the round trip
    gives the certificate back."""
    cert = refl_along_congruence(corpus_cf)
    d = replayed(corpus_cf, corpus_tt, cert)
    assert d.rule == "TT-Conv-Tm" and d.premises[1].rule == "TT-Congr"
    assert tr.round_trip_cf(corpus_cf, corpus_tt, cert).payload == cert.payload


TRANS_SCRIPT = """\
let tb = rule(bool);
var u : tb;
var v : tb;
var w : tb;
let tuv = rule(Id, tb, u, v);
var p : tuv;
let tvw = rule(Id, tb, v, w);
var q : tvw;
let e1 = rule(eq_reflect, tb, u, v, p);
let e2 = rule(eq_reflect, tb, v, w, q);
let e = trans_tm(e1, e2);
return e;
"""


def test_cli_translates_a_transitivity_whose_middle_term_is_erased(tmp_path, capsys):
    """u == w by transitivity through v: the conclusion names no v, and the
    search could not find it; the replay reads it off the record, and the CLI
    re-checks the derivation."""
    script = tmp_path / "trans.fttd"
    script.write_text(TRANS_SCRIPT)
    rc = cli.main(["translate", str(CORPUS / "mltt.ftt"), str(script), "--to", "tt"])
    out = capsys.readouterr()
    assert rc == 0 and out.err == ""
    assert out.out.splitlines()[-1] == "u^bool == w^bool : bool"


def test_transitivity_through_an_erased_term_replays(corpus_cf, corpus_tt):
    ty_bool = CFDeriver(corpus_cf).ty(BOOL)
    vu, vv, vw = (cf.cf_var(corpus_cf, FreeVar(n, BOOL), ty_bool) for n in "uvw")
    e1, e2 = reflected(corpus_cf, ty_bool, vu, vv), reflected(corpus_cf, ty_bool, vv, vw)
    cert = cf.cf_eqtm_trans(corpus_cf, e1, e2)
    d = replayed(corpus_cf, corpus_tt, cert)
    assert d.rule == "TT-EqTm-Trans"
    assert tr.round_trip_cf(corpus_cf, corpus_tt, cert).payload == cert.payload


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_no_certgen_record_is_searched(corpus_cf, corpus_tt, depth):
    """The fallback counter reads zero over CertGen certificates of every
    kind, translated by one translator."""
    g = CertGen(random.Random(290 + depth), corpus_cf)
    translator = tr.CfToTT(corpus_cf, corpus_tt)
    done = 0
    while done < 40:
        try:
            cert = g.judgement_cert(depth)
        except KernelError:
            continue
        _, _, d = translator.judgement(cert)
        tt.check_derivation(corpus_tt, d)
        done += 1
    assert translator.searched == 0


def test_a_wrong_record_is_refused(corpus_cf, corpus_tt):
    """A record that replays to another judgement gives a refusal, not a
    derivation of the other judgement."""
    ty_nat = CFDeriver(corpus_cf).ty(NAT)
    vb = cf.cf_var(corpus_cf, FreeVar("b", NAT), ty_nat)
    succ_b = cf.cf_apply_rule(corpus_cf, "succ", [vb])
    wrong = cf.cf_apply_rule(corpus_cf, "succ", [vb])
    wrong.record = ("cf_apply_rule", "succ", [succ_b], None)
    with pytest.raises(UncheckableDerivation, match="the record of cf_apply_rule replays to"):
        tr.cf_judgement_to_tt(corpus_cf, corpus_tt, wrong)


def test_a_shared_record_is_replayed_once(corpus_cf, corpus_tt, monkeypatch):
    """A translator replays each (payload, context) once: a certificate met
    again, in the same call or a later one, is answered from the walk's
    table."""
    ty_nat = CFDeriver(corpus_cf).ty(NAT)
    vb = cf.cf_var(corpus_cf, FreeVar("b", NAT), ty_nat)
    cert = cf.cf_bdry_eqtm(corpus_cf, ty_nat, vb, vb)
    built = []
    real = tt.node

    def counted(theory, rule, data, premises):
        built.append(rule)
        return real(theory, rule, data, premises)

    monkeypatch.setattr(tt, "node", counted)
    translator = tr.CfToTT(corpus_cf, corpus_tt)
    translator.judgement(cert)
    assert built == ["TT-Specific-Eco", "TT-Var", "TT-Bdry-EqTm"]
    translator.judgement(cert)
    translator.judgement(vb)
    assert len(built) == 3


def test_a_step_that_changes_no_payload_is_its_premise(corpus_cf, corpus_tt):
    """The symmetry of a reflexivity, and a transitivity with one, conclude
    their premise's payload: they replay to that premise's derivation, and
    the round trip still gives the payload back."""
    ty_nat = CFDeriver(corpus_cf).ty(NAT)
    vb = cf.cf_var(corpus_cf, FreeVar("b", NAT), ty_nat)
    refl = cf.cf_eqtm_refl(corpus_cf, vb, vb)
    for cert in (cf.cf_eqtm_sym(corpus_cf, refl), cf.cf_eqtm_trans(corpus_cf, refl, refl)):
        assert replayed(corpus_cf, corpus_tt, cert).rule == "TT-EqTm-Refl"
        assert tr.round_trip_cf(corpus_cf, corpus_tt, cert).payload == cert.payload


def test_records_are_not_followed_by_repr(corpus_cf):
    """A certificate's repr shows its payload, cut, and never its record."""
    cert = refl_along_congruence(corpus_cf)
    text = repr(cert)
    assert text.startswith("CertifiedJudgement(convert(refl(bool, u^bool)")
    assert "record" not in text and "Id(" in text
