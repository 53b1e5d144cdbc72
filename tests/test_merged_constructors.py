"""One constructor per structural rule, for judgements and boundaries alike:
a certificate's class follows its payload, abstraction, substitution,
instantiation and strengthening take either kind, equal substitution takes
type and term judgements, and natural types see through any number of
conversions."""

import pathlib
import random

import pytest

from fintt import cf_engine as cf
from fintt import cli
from fintt import script
from fintt import tt_engine as tt
from fintt.derive import CFDeriver, TTDeriver
from fintt.errors import ArityMismatch, KernelError, NotObjectJudgement, PremiseMismatch
from fintt.judgements import EMPTY_METAS, EMPTY_VARS, plain
from fintt.parser import parse_script
from fintt.script import ScriptRunner, run_script
from fintt.syntax import (
    Abstracted,
    BoundVar,
    EqTmB,
    EqTy,
    EqTyB,
    ExprArg,
    FreeVar,
    IsTm,
    IsTmB,
    IsTy,
    IsTyB,
    MetaName,
    SymbolApp,
)

from .gen import CertGen, ScriptGen

CORPUS = pathlib.Path(__file__).parent / "corpus"
BOOL = SymbolApp("bool", ())
NAT = SymbolApp("nat", ())
BOUNDARY_THESES = (IsTyB, IsTmB, EqTyB, EqTmB)


def id_ty(a, s, t):
    return SymbolApp("Id", (ExprArg(a), ExprArg(s), ExprArg(t)))


def assert_class_follows_payload(cert):
    boundary = isinstance(cert.payload.body, BOUNDARY_THESES)
    want = cf.CertifiedBoundary if boundary else cf.CertifiedJudgement
    assert type(cert) is want, cert


@pytest.fixture()
def env(corpus_cf):
    th = corpus_cf
    d = CFDeriver(th)
    ty_nat = d.ty(NAT)
    n = FreeVar("n", NAT)
    vn = cf.cf_var(th, n, ty_nat)
    fam = cf.cf_abstract_fwd(th, ty_nat, ty_nat, n)  # {x : nat} nat type
    fb = cf.presuppositions_cf(th, fam)  # {x : nat} □ type
    vm = cf.cf_var(th, FreeVar("m", NAT), ty_nat)
    return th, d, ty_nat, vn, fb, vm


def test_the_boundary_twins_are_gone():
    for name in ("cf_abstract_bdry_fwd", "cf_subst_bdry", "cf_instantiate_bdry", "cf_subst_eqty", "cf_subst_eqtm"):
        assert not hasattr(cf, name), name
    assert not hasattr(tt, "bdry_abstr")
    assert set(TTDeriver.STEPS) == set(CFDeriver.STEPS) and "bdry_abstract" not in TTDeriver.STEPS
    assert "subst_bdry" not in script.STEPS


def test_no_certificate_outside_the_engine(env):
    th = env[0]
    for cls in (cf.Certificate, cf.CertifiedJudgement, cf.CertifiedBoundary):
        with pytest.raises(PermissionError):
            cls(plain(IsTy(BOOL)), th, {})


def test_substitution_into_a_boundary_certifies_a_boundary(env):
    th, _, _, _, fb, vm = env
    out = cf.cf_substitute(th, fb, vm)
    assert type(out) is cf.CertifiedBoundary and out.payload == plain(IsTyB())


def test_abstraction_of_a_boundary_certifies_a_boundary(env):
    th, _, ty_nat, vn, _, _ = env
    b = cf.cf_bdry_eqtm(th, ty_nat, vn, vn)
    out = cf.cf_abstract_fwd(th, ty_nat, b, vn.payload.body.term)
    assert type(out) is cf.CertifiedBoundary
    assert out.payload == Abstracted((NAT,), EqTmB(BoundVar(0), BoundVar(0), NAT))
    # and a judgement stays one
    j = cf.cf_abstract_fwd(th, ty_nat, vn, vn.payload.body.term)
    assert type(j) is cf.CertifiedJudgement


def test_instantiation_of_a_boundary_certifies_a_boundary(env):
    th, d, ty_nat, vn, _, _ = env
    m = MetaName("M", plain(IsTmB(NAT)))
    mm = cf.cf_meta(th, m, [], annotation_cert=d.boundary(m.annotation))
    out = cf.cf_instantiate(th, [(m, vn)], cf.cf_bdry_eqtm(th, ty_nat, mm, mm))
    n = vn.payload.body.term
    assert type(out) is cf.CertifiedBoundary and out.payload == plain(EqTmB(n, n, NAT))


def test_strengthening_a_boundary_certifies_a_boundary(env):
    th, _, _, _, fb, _ = env
    out = cf.strengthen(th, fb)
    assert type(out) is cf.CertifiedBoundary and out.payload == plain(IsTyB())


def test_equal_substitution_into_a_type(env):
    th, _, ty_nat, vn, fb, vm = env
    n = vn.payload.body.term
    ty_id = cf.cf_apply_rule(th, "Id", [ty_nat, vn, vn])
    fam = cf.cf_abstract_fwd(th, ty_nat, ty_id, n)  # {x : nat} Id(nat, x, x) type
    eq = cf.cf_eqtm_refl(th, vm, vm)
    out = cf.cf_subst_eq(th, fam, [vm], [vm], [eq])
    m = vm.payload.body.term
    assert type(out) is cf.CertifiedJudgement
    assert out.payload.body.lhs == out.payload.body.rhs == id_ty(NAT, m, m)
    assert isinstance(out.payload.body, EqTy)
    with pytest.raises(NotObjectJudgement):
        cf.cf_subst_eq(th, fb, [vm], [vm], [eq])


def test_metavariable_congruence_checks_its_triples(env):
    th, d, ty_nat, vn, _, vm = env
    m = MetaName("M", Abstracted((NAT,), IsTmB(NAT)))
    ann = d.boundary(m.annotation)
    eq = cf.cf_eqtm_refl(th, vm, vm)
    for ss, ts, eqs in (([vm], [vm], []), ([], [], []), ([vm, vm], [vm, vm], [eq, eq])):
        with pytest.raises(ArityMismatch):
            cf.cf_meta_congr(th, m, ss, ts, eqs, annotation_cert=ann)
    with pytest.raises(PremiseMismatch, match="CF-Meta-Congr equation does not match"):
        cf.cf_meta_congr(th, m, [vn], [vm], [eq], annotation_cert=ann)


@pytest.mark.parametrize("seed", range(3))
def test_certgen_classes_follow_their_payloads(corpus_cf, seed):
    g = CertGen(random.Random(seed), corpus_cf)
    for depth in range(3):
        for kind in ("ty", "tm", "eq", "reflect", "abs"):
            cert = g.judgement_cert(depth, kind)
            bdry = cf.presuppositions_cf(corpus_cf, cert)
            for c in (cert, bdry, *(cf.boundary_components(corpus_cf, bdry) if not bdry.payload.prefix else ())):
                assert_class_follows_payload(c)


def test_script_bindings_follow_their_payloads(corpus_cf):
    runs = [parse_script(p.read_text()) for p in sorted(CORPUS.glob("*.fttd"))]
    gen = ScriptGen(random.Random(5))
    runs += [parse_script(gen.script()) for _ in range(400)]
    seen = 0
    for s in runs:
        runner = ScriptRunner(corpus_cf, "cf")
        try:
            runner.run(s)
        except KernelError:
            pass
        for cert in runner.bindings.values():
            assert_class_follows_payload(cert)
            seen += 1
    assert seen > 500


def test_tt_abstraction_of_a_boundary_is_the_boundary_rule(corpus_tt):
    th = corpus_tt
    d = TTDeriver(th).boundary(EMPTY_METAS, EMPTY_VARS, Abstracted((NAT,), IsTyB()))
    ty_d, body_d, atom = d.premises[0], d.premises[1], d.data[2]
    out = tt.tt_abstr(th, ty_d, body_d, atom)
    assert out is d is tt.node(th, "TT-Bdry-Abstr", (EMPTY_METAS, EMPTY_VARS, atom), [ty_d, body_d])
    assert out.rule == "TT-Bdry-Abstr"
    assert out.conclusion == tt.BdryTT(EMPTY_METAS, EMPTY_VARS, Abstracted((NAT,), IsTyB()))
    tt.check_derivation(th, out)


def deep_conversion_script(n: int, last: str) -> str:
    lines = ["let tb = rule(bool);", "var u : tb;", "let q = refl_ty(tb, tb);", "let c0 = conv(u, q);"]
    lines += [f"let c{i} = conv(c{i - 1}, q);" for i in range(1, n)]
    return "\n".join(lines + [f"let out = {last};", "return out;", ""])


@pytest.mark.parametrize("last", ["invert(c1999)", "uniqueness(c1999, c1999)"])
def test_natural_types_under_2000_conversions(corpus_cf, last, tmp_path, capsys):
    text = deep_conversion_script(2000, last)
    out = run_script(corpus_cf, parse_script(text), "cf")
    u = FreeVar("u", BOOL)
    if last.startswith("invert"):
        assert out.payload == plain(IsTm(u, BOOL))
    else:
        assert out.payload.body.lhs == out.payload.body.rhs == BOOL
    path = tmp_path / "deep.fttd"
    path.write_text(text)
    assert cli.main(["derive", str(CORPUS / "mltt.ftt"), str(path), "--engine", "cf"]) == 0
    assert capsys.readouterr().err == ""
