"""The context-free nucleus: constructors, suitability of emitted sets,
meta-operations, inversion, strengthening, boundary conversion."""

import random

import pytest

from fintt import cf_engine as cf
from fintt import translate as tr
from fintt import tt_engine as tt
from fintt.derive import CFDeriver
from fintt.errors import (
    AnnotationMismatch,
    BinderUsed,
    ErasureMismatch,
    KernelError,
    PremiseMismatch,
    TypeMismatch,
    VarInAnnotation,
)
from fintt.judgements import instantiate_prefix, plain, unfill
from fintt.syntax import (
    Abstr,
    Abstracted,
    AssumptionSet,
    BoundVar,
    Convert,
    EMPTY_ASSUMPTIONS,
    EqTm,
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
    conversion_residue,
    erase,
    erased_equal,
    strip_conversions,
)

from .test_acceptance import oracle_asm

BOOL = SymbolApp("bool", ())
NAT = SymbolApp("nat", ())


def succ(t):
    return SymbolApp("succ", (ExprArg(t),))


def id_ty(a, s, t):
    return SymbolApp("Id", (ExprArg(a), ExprArg(s), ExprArg(t)))


@pytest.fixture()
def env(corpus_cf):
    th = corpus_cf
    d = CFDeriver(th)
    ty_bool = d.ty(BOOL)
    ty_nat = d.ty(NAT)
    return th, d, ty_bool, ty_nat


def test_cf_var(env):
    th, d, ty_bool, _ = env
    a = FreeVar("a", BOOL)
    c = cf.cf_var(th, a, ty_bool)
    assert c.payload == plain(IsTm(a, BOOL))
    # distinct annotations give distinct variables
    b = FreeVar("a", NAT)
    c2 = cf.cf_var(th, b, d.ty(NAT))
    assert c.payload != c2.payload
    # rejecting an annotation certificate for a different type
    with pytest.raises(AnnotationMismatch):
        cf.cf_var(th, FreeVar("a", NAT), ty_bool)


def test_cf_abstract_and_strengthen_inverse(env):
    th, d, ty_bool, ty_nat = env
    a = FreeVar("a", BOOL)
    # abstract a^bool out of  a^bool : bool  ->  {x:bool} x : bool
    va = cf.cf_var(th, a, ty_bool)
    absd = cf.cf_abstract_fwd(th, ty_bool, va, a)
    assert absd.payload == Abstracted((BOOL,), IsTm(BoundVar(0), BOOL))
    # abstraction of an unused variable, then strengthening, is the identity
    absn = cf.cf_abstract_fwd(th, ty_bool, ty_nat, a)
    assert absn.payload == Abstracted((BOOL,), IsTy(NAT))
    back = cf.strengthen(th, absn)
    assert back.payload == ty_nat.payload
    with pytest.raises(BinderUsed):
        cf.strengthen(th, absd)


def test_cf_abstract_fvt_side_condition(env):
    th, d, ty_bool, _ = env
    a = FreeVar("a", BOOL)
    ta = d.ty(id_ty(BOOL, a, a))
    b = FreeVar("b", id_ty(BOOL, a, a))
    vb = cf.cf_var(th, b, ta)
    with pytest.raises(VarInAnnotation):
        cf.cf_abstract_fwd(th, ty_bool, vb, a)


def test_cf_apply_rule_pi(env):
    th, d, ty_bool, _ = env
    a = FreeVar("a", BOOL)
    fam = cf.cf_abstract_fwd(th, ty_bool, ty_bool, a)
    out = cf.cf_apply_rule(th, "Pi", [ty_bool, fam])
    pi = SymbolApp("Pi", (ExprArg(BOOL), Abstr(ExprArg(BOOL))))
    assert out.payload == plain(IsTy(pi))


def test_cf_eq_reflect_records_p(env):
    """CF-Eq-Reflect instance concludes  a == b : bool by {p}."""
    th, d, ty_bool, _ = env
    a, b = FreeVar("a", BOOL), FreeVar("b", BOOL)
    va, vb = cf.cf_var(th, a, ty_bool), cf.cf_var(th, b, ty_bool)
    idt = id_ty(BOOL, a, b)
    ty_id = d.ty(idt)
    p = FreeVar("p", idt)
    vp = cf.cf_var(th, p, ty_id)
    out = cf.cf_apply_rule(th, "eq_reflect", [ty_bool, va, vb, vp])
    body = out.payload.body
    assert isinstance(body, EqTm)
    assert body.lhs == a and body.rhs == b and body.ty == BOOL
    # the template's  by {p}  instantiates to asm(p), which is closed under
    # annotation dependencies
    assert body.by == asm(p)
    assert p in body.by.free_vars
    # strengthening may not drop the recording variable
    absd = cf.cf_abstract_fwd(th, ty_id, out, p)
    with pytest.raises(BinderUsed):
        cf.strengthen(th, absd)


def test_suitability_invariant(env):
    """Every emitted equation satisfies asm(premises) == asm(conclusion)."""
    th, d, ty_bool, ty_nat = env
    a, b = FreeVar("a", BOOL), FreeVar("b", BOOL)
    va, vb = cf.cf_var(th, a, ty_bool), cf.cf_var(th, b, ty_bool)
    idt = id_ty(BOOL, a, b)
    ty_id = d.ty(idt)
    p = FreeVar("p", idt)
    vp = cf.cf_var(th, p, ty_id)
    eq = cf.cf_apply_rule(th, "eq_reflect", [ty_bool, va, vb, vp])
    prem = asm(ty_bool.payload, va.payload, vb.payload, vp.payload)
    assert asm(eq.payload) == prem
    # transitivity keeps it suitable
    eq2 = cf.cf_eqtm_sym(th, eq)
    tr = cf.cf_eqtm_trans(th, eq, eq2)
    assert asm(tr.payload) == asm(eq.payload, eq2.payload)


def test_cf_refl_and_trans_sets(env):
    th, d, ty_bool, ty_nat = env
    r = cf.cf_eqty_refl(th, ty_bool, ty_bool)
    assert r.payload == plain(EqTy(BOOL, BOOL, EMPTY_ASSUMPTIONS))
    with pytest.raises(ErasureMismatch):
        cf.cf_eqty_refl(th, ty_bool, ty_nat)
    tr = cf.cf_eqty_trans(th, r, r)
    assert tr.payload.body.by == EMPTY_ASSUMPTIONS


def test_cf_conv_tm_wrapper_and_sets(env):
    th, d, ty_bool, _ = env
    a = FreeVar("a", BOOL)
    va = cf.cf_var(th, a, ty_bool)
    refl = cf.cf_eqty_refl(th, ty_bool, ty_bool)
    out = cf.cf_conv_tm(th, va, refl)
    body = out.payload.body
    assert body == IsTm(Convert(a, EMPTY_ASSUMPTIONS), BOOL)
    # the side-condition equation, recomputed independently
    assert asm(out.payload) == asm(va.payload, refl.payload)


def test_cf_meta_and_congruence(env):
    th, d, ty_bool, ty_nat = env
    m = MetaName("M", Abstracted((NAT,), IsTmB(NAT)))
    ann = d.boundary(m.annotation)
    b = FreeVar("b", NAT)
    vb = cf.cf_var(th, b, ty_nat)
    out = cf.cf_meta(th, m, [vb], annotation_cert=ann)
    assert out.payload == plain(IsTm(MetaApp(m, (b,)), NAT))
    # congruence with reflexive equations
    eq = cf.cf_eqtm_refl(th, vb, vb)
    cg = cf.cf_meta_congr(th, m, [vb], [vb], [eq], annotation_cert=ann)
    body = cg.payload.body
    assert isinstance(body, EqTm)
    assert body.lhs == MetaApp(m, (b,))
    assert erased_equal(body.rhs, MetaApp(m, (b,)))
    assert body.ty == NAT
    prem = asm(vb.payload, vb.payload, eq.payload, plain(IsTm(body.rhs, NAT)))
    assert asm(cg.payload) == prem


def test_nullary_meta(env):
    th, d, ty_bool, _ = env
    m = MetaName("T", plain(IsTyB()))
    ann = d.boundary(m.annotation)
    out = cf.cf_meta(th, m, [], annotation_cert=ann)
    assert out.payload == plain(IsTy(MetaApp(m, ())))


@pytest.mark.parametrize("case", ["unary", "nullary", "reflected"])
def test_meta_congruence_on_a_type_metavariable(env, case):
    """CF-Meta-Congr-Ty concludes  M(ss) == M(ts)  by what the premises and
    M(ts) assume beyond both sides, recomputed by the occurrence oracle, and
    the equation is suitable: it assumes exactly what they do."""
    th, d, _, ty_nat = env
    ss = ts = eqs = []
    if case == "nullary":
        m = MetaName("T", plain(IsTyB()))
    else:
        m = MetaName("F", Abstracted((NAT,), IsTyB()))
        vb = cf.cf_var(th, FreeVar("b", NAT), ty_nat)
        ss = ts = [vb]
        eqs = [cf.cf_eqtm_refl(th, vb, vb)]
        if case == "reflected":
            vc = cf.cf_var(th, FreeVar("c", NAT), ty_nat)
            id_bc = cf.cf_apply_rule(th, "Id", [ty_nat, vb, vc])
            p = cf.cf_var(th, FreeVar("p", id_bc.payload.body.ty), id_bc)
            ts = [vc]
            eqs = [cf.cf_apply_rule(th, "eq_reflect", [ty_nat, vb, vc, p])]
    out = cf.cf_meta_congr(th, m, ss, ts, eqs, annotation_cert=d.boundary(m.annotation))
    lhs = MetaApp(m, tuple(c.payload.body.term for c in ss))
    rhs = MetaApp(m, tuple(c.payload.body.term for c in ts))
    premises = EMPTY_ASSUMPTIONS
    for p in [c.payload for c in (*ss, *ts, *eqs)] + [plain(IsTy(rhs))]:
        premises = premises.union(oracle_asm(p))
    beta = premises.difference(oracle_asm(lhs).union(oracle_asm(rhs)))
    assert out.payload == plain(EqTy(lhs, rhs, beta))
    assert oracle_asm(out.payload) == premises
    if case == "reflected":
        assert {v.name for v in beta.free_vars} == {"p"}


def test_cf_substitute(env):
    th, d, ty_bool, ty_nat = env
    a = FreeVar("a", NAT)
    va = cf.cf_var(th, a, ty_nat)
    sn = cf.cf_apply_rule(th, "succ", [va])
    absd = cf.cf_abstract_fwd(th, ty_nat, sn, a)
    assert absd.payload == Abstracted((NAT,), IsTm(succ(BoundVar(0)), NAT))
    b = FreeVar("b", NAT)
    vb = cf.cf_var(th, b, ty_nat)
    out = cf.cf_substitute(th, absd, vb)
    assert out.payload == plain(IsTm(succ(b), NAT))
    with pytest.raises(TypeMismatch):
        cf.cf_substitute(th, absd, cf.cf_var(th, FreeVar("c", BOOL), ty_bool))


def test_cf_subst_eqtm_produces_convert(env):
    th, d, ty_bool, ty_nat = env
    a = FreeVar("a", NAT)
    va = cf.cf_var(th, a, ty_nat)
    sn = cf.cf_apply_rule(th, "succ", [va])
    absd = cf.cf_abstract_fwd(th, ty_nat, sn, a)
    b = FreeVar("b", NAT)
    vb = cf.cf_var(th, b, ty_nat)
    eq = cf.cf_eqtm_refl(th, vb, vb)
    out = cf.cf_subst_eq(th, absd, [vb], [vb], [eq])
    body = out.payload.body
    assert isinstance(body, EqTm)
    assert body.lhs == succ(b)
    assert isinstance(body.rhs, Convert)
    assert erased_equal(body.rhs, succ(b))
    assert body.by == body.rhs.assumptions
    assert asm(out.payload) == asm(vb.payload, vb.payload, eq.payload, absd.payload)


def test_cf_instantiate(env):
    th, d, ty_bool, ty_nat = env
    m = MetaName("M", plain(IsTmB(NAT)))
    ann = d.boundary(m.annotation)
    mm = cf.cf_meta(th, m, [], annotation_cert=ann)
    sm = cf.cf_apply_rule(th, "succ", [mm])
    b = FreeVar("b", NAT)
    vb = cf.cf_var(th, b, ty_nat)
    out = cf.cf_instantiate(th, [(m, vb)], sm)
    assert out.payload == plain(IsTm(succ(b), NAT))
    # empty instantiation is the identity
    out2 = cf.cf_instantiate(th, [], vb)
    assert out2.payload == vb.payload


def test_presuppositions_cf(env):
    th, d, ty_bool, ty_nat = env
    b = FreeVar("b", NAT)
    vb = cf.cf_var(th, b, ty_nat)
    sn = cf.cf_apply_rule(th, "succ", [vb])
    bd = cf.presuppositions_cf(th, sn)
    assert bd.payload == plain(IsTmB(NAT))
    comps = cf.boundary_components(th, bd)
    assert len(comps) == 1 and comps[0].payload == plain(IsTy(NAT))


def test_natural_type_strip_residue(env):
    th, d, ty_bool, ty_nat = env
    a = FreeVar("a", BOOL)
    assert cf.natural_type_cf(th, a) == BOOL
    alpha = AssumptionSet(frozenset([a]), frozenset(), frozenset())
    beta = AssumptionSet(frozenset([FreeVar("b", BOOL)]), frozenset(), frozenset())
    t = Convert(Convert(a, alpha), beta)
    assert strip_conversions(t) == a
    assert conversion_residue(t) == alpha.union(beta)
    assert cf.natural_type_cf(th, t) == BOOL
    assert erase(t) == erase(strip_conversions(t))
    assert asm(t) == asm(strip_conversions(t)).union(conversion_residue(t).union(asm(alpha), asm(beta)))


def test_invert_cf_round_trip(env):
    th, d, ty_bool, ty_nat = env
    a = FreeVar("a", BOOL)
    va = cf.cf_var(th, a, ty_bool)
    refl = cf.cf_eqty_refl(th, ty_bool, ty_bool)
    conv = cf.cf_conv_tm(th, va, refl)
    # the stated type equals the natural type, so inversion strips down to
    # the variable stump
    inv = cf.invert_cf(th, conv)
    assert inv.payload == plain(IsTm(a, BOOL))
    # conversion-free term at its natural type is returned unchanged
    assert cf.invert_cf(th, va) is va


def test_uniqueness_cf(env):
    th, d, ty_bool, ty_nat = env
    a = FreeVar("a", BOOL)
    va = cf.cf_var(th, a, ty_bool)
    refl = cf.cf_eqty_refl(th, ty_bool, ty_bool)
    conv = cf.cf_conv_tm(th, va, refl)
    eq = cf.uniqueness_of_typing_cf(th, va, cf.invert_cf(th, conv))
    body = eq.payload.body
    assert isinstance(body, EqTy)
    assert body.lhs == BOOL and body.rhs == BOOL
    assert body.by.issubset(asm(va.payload))


def test_strengthen_middle_binder(env):
    th, d, ty_bool, ty_nat = env
    a = FreeVar("a", BOOL)
    b = FreeVar("b", NAT)
    vb = cf.cf_var(th, b, ty_nat)
    sn = cf.cf_apply_rule(th, "succ", [vb])
    inner = cf.cf_abstract_fwd(th, ty_nat, sn, b)       # {y:nat} succ(y) : nat
    outer = cf.cf_abstract_fwd(th, ty_bool, inner, a)   # {x:bool}{y:nat} ...
    peeled = cf.strengthen(th, outer, position=0)
    assert peeled.payload == inner.payload


def test_boundary_convert_term_case(env):
    th, d, ty_bool, ty_nat = env
    a = FreeVar("a", NAT)
    va = cf.cf_var(th, a, ty_nat)
    b1 = cf.cf_bdry_tm(th, ty_nat)
    # an erasure-equal but distinct type: nat behind nothing vs itself; use
    # the same type to check identity first
    same = cf.boundary_convert(th, b1, va)
    assert same is va
    # now a genuinely different boundary: {}-conversion inserted
    idt = id_ty(NAT, a, a)
    ty_id = d.ty(idt)
    p = FreeVar("p", idt)
    vp = cf.cf_var(th, p, ty_id)
    b_id1 = cf.cf_bdry_tm(th, ty_id)
    conv_id = Convert(a, EMPTY_ASSUMPTIONS)
    idt2 = id_ty(NAT, conv_id, a)
    ty_id2 = d.ty(idt2)
    b_id2 = cf.cf_bdry_tm(th, ty_id2)
    out = cf.boundary_convert(th, b_id2, vp)
    got_b, _ = unfill(out.payload)
    assert got_b == b_id2.payload
    assert erased_equal(out.payload.body.term, vp.payload.body.term)
    assert asm(out.payload.body.term).issubset(asm(vp.payload))


def moved_inputs(th, d, ty_nat):
    """The type A1 = Id(nat, a, a) and the erasure-equal
    A2 = Id(nat, convert(a, {}), a), certified; and p, q : A1 with
    p == q : A1 by equality reflection from r : Id(A1, p, q)."""
    va = cf.cf_var(th, FreeVar("a", NAT), ty_nat)
    conv_a = cf.cf_conv_tm(th, va, cf.cf_eqty_refl(th, ty_nat, ty_nat))
    ty1 = cf.cf_apply_rule(th, "Id", [ty_nat, va, va])
    ty2 = cf.cf_apply_rule(th, "Id", [ty_nat, conv_a, va])
    a1 = ty1.payload.body.ty
    vp, vq = (cf.cf_var(th, FreeVar(n, a1), ty1) for n in "pq")
    id_pq = cf.cf_apply_rule(th, "Id", [ty1, vp, vq])
    vr = cf.cf_var(th, FreeVar("r", id_pq.payload.body.ty), id_pq)
    reflect = cf.cf_apply_rule(th, "eq_reflect", [ty1, vp, vq, vr])
    return ty1, ty2, vp, vq, reflect


def assert_replays(th_cf, th_tt, cert):
    """cf -> tt of ``cert`` re-checks, concludes its erasure and searches
    nothing."""
    translator = tr.CfToTT(th_cf, th_tt)
    mctx, vctx, deriv = translator.judgement(cert)
    tt.check_derivation(th_tt, deriv)
    assert deriv.conclusion == tt.JdgTT(mctx, vctx, erase(cert.payload))
    assert translator.searched == 0


def test_boundary_convert_moves_both_sides_of_a_type_equation(env, corpus_tt):
    """Id(A1, p, p) == Id(A1, p, q) by {r} onto Id(A2, p', p') == Id(A2, p', q'),
    where p' and q' are p and q converted to A2: both sides move, and the
    assumption set is what the equation's carries beyond the new sides."""
    th, d, ty_bool, ty_nat = env
    ty1, ty2, vp, vq, reflect = moved_inputs(th, d, ty_nat)
    eqs = [cf.cf_eqty_refl(th, ty1, ty1), cf.cf_eqtm_refl(th, vp, vp), reflect]
    eq = cf.cf_congruence(th, "Id", [ty1, vp, vp], [ty1, vp, vq], eqs)
    to_a2 = cf.cf_eqty_refl(th, ty1, ty2)
    p2, q2 = (cf.cf_conv_tm(th, v, to_a2) for v in (vp, vq))
    sides = [cf.cf_apply_rule(th, "Id", [ty2, p2, x]) for x in (p2, q2)]
    target = cf.cf_bdry_eqty(th, *sides)
    out = cf.boundary_convert(th, target, eq)
    a1, c1, by = eq.payload.body.lhs, eq.payload.body.rhs, eq.payload.body.by
    a2, c2 = (s.payload.body.ty for s in sides)
    assert a1 != a2 and c1 != c2 and by
    assert out.payload == plain(EqTy(a2, c2, asm(by, a1, c1).difference(asm(a2, c2))))
    assert type(out) is cf.CertifiedJudgement
    assert_replays(th, corpus_tt, out)


def test_boundary_convert_moves_the_type_and_one_side_of_a_term_equation(env, corpus_tt):
    """p == q : A1 by {r} onto  convert(convert(p, {}), {}) == convert(q, {}) : A2:
    the type moves, and the left side moves beyond the conversion the type
    brings, while the right side is that conversion."""
    th, d, ty_bool, ty_nat = env
    ty1, ty2, vp, vq, reflect = moved_inputs(th, d, ty_nat)
    to_a2 = cf.cf_eqty_refl(th, ty1, ty2)
    s2 = cf.cf_conv_tm(th, cf.cf_conv_tm(th, vp, cf.cf_eqty_refl(th, ty1, ty1)), to_a2)
    t2 = cf.cf_conv_tm(th, vq, to_a2)
    target = cf.cf_bdry_eqtm(th, ty2, s2, t2)
    out = cf.boundary_convert(th, target, reflect)
    eq = reflect.payload.body
    s2, t2, a2 = target.payload.body.lhs, target.payload.body.rhs, target.payload.body.ty
    assert eq.ty != a2 and eq.lhs != s2 and eq.by
    by = asm(eq.by, eq.lhs, eq.rhs, eq.ty).difference(asm(s2, t2, a2))
    assert out.payload == plain(EqTm(s2, t2, a2, by))
    assert type(out) is cf.CertifiedJudgement
    assert_replays(th, corpus_tt, out)


def test_boundary_convert_opens_two_binders(env, corpus_tt):
    """{x : A1}{y : Id(A1, x, x)} y onto {x : A2}{y : Id(A2, x, x)} □ : Id(A2, x, x):
    each binder is opened at the second boundary's type, so the body's
    variable comes back converted twice, once into the first boundary's type
    and once out of it."""
    th, d, ty_bool, ty_nat = env
    ty1, ty2, *_ = moved_inputs(th, d, ty_nat)

    def family(ty_a):
        """{x : A}{y : Id(A, x, x)} y : Id(A, x, x) and its boundary."""
        x = FreeVar("x", ty_a.payload.body.ty)
        vx = cf.cf_var(th, x, ty_a)
        ty_id = cf.cf_apply_rule(th, "Id", [ty_a, vx, vx])
        y = FreeVar("y", ty_id.payload.body.ty)
        body = cf.cf_abstract_fwd(th, ty_id, cf.cf_var(th, y, ty_id), y)
        bdry = cf.cf_abstract_fwd(th, ty_id, cf.cf_bdry_tm(th, ty_id), y)
        return (cf.cf_abstract_fwd(th, ty_a, c, x) for c in (body, bdry))

    cert_j, _ = family(ty1)
    _, target = family(ty2)
    out = cf.boundary_convert(th, target, cert_j)
    a2 = ty2.payload.body.ty
    y = Convert(Convert(BoundVar(0), EMPTY_ASSUMPTIONS), EMPTY_ASSUMPTIONS)
    prefix = (a2, id_ty(a2, BoundVar(0), BoundVar(0)))
    assert out.payload == Abstracted(prefix, IsTm(y, id_ty(a2, BoundVar(1), BoundVar(1))))
    assert type(out) is cf.CertifiedJudgement
    assert_replays(th, corpus_tt, out)


def test_boundary_convert_opens_each_binder_at_its_own_atom(env, corpus_tt):
    """{x : A1}{y : A1} y onto {x : A2}{y : A2} □ : A2: the body does not use
    the outer binder, and the inner level still opens at an atom other than
    the outer level's, so cf -> tt replays the result without a search."""
    th, d, ty_bool, ty_nat = env
    ty1, ty2, *_ = moved_inputs(th, d, ty_nat)

    def family(ty_a):
        """{x : A}{y : A} y : A and its boundary."""
        x, y = (FreeVar(n, ty_a.payload.body.ty) for n in "xy")
        body = cf.cf_abstract_fwd(th, ty_a, cf.cf_var(th, y, ty_a), y)
        bdry = cf.cf_abstract_fwd(th, ty_a, cf.cf_bdry_tm(th, ty_a), y)
        return (cf.cf_abstract_fwd(th, ty_a, c, x) for c in (body, bdry))

    cert_j, _ = family(ty1)
    _, target = family(ty2)
    out = cf.boundary_convert(th, target, cert_j)
    a2 = ty2.payload.body.ty
    y = Convert(Convert(BoundVar(0), EMPTY_ASSUMPTIONS), EMPTY_ASSUMPTIONS)
    assert out.payload == Abstracted((a2, a2), IsTm(y, a2))
    assert type(out) is cf.CertifiedJudgement
    assert_replays(th, corpus_tt, out)


def test_certificates_are_constructor_private(env):
    th, d, ty_bool, _ = env
    from fintt.judgements import plain
    from fintt.syntax import IsTy

    with pytest.raises(PermissionError):
        cf.CertifiedJudgement(plain(IsTy(BOOL)), th, {})
    with pytest.raises(PermissionError):
        cf.CertifiedBoundary(plain(IsTy(BOOL)), th, {})


def test_cf_meta_economic_reproduces_full(env):
    th, d, ty_bool, ty_nat = env
    from fintt.syntax import Abstracted, IsTmB, MetaApp

    m = MetaName("M", Abstracted((NAT,), IsTmB(NAT)))
    ann = d.boundary(m.annotation)
    b = FreeVar("b", NAT)
    vb = cf.cf_var(th, b, ty_nat)
    eco = cf.cf_meta(th, m, [vb], annotation_cert=ann)
    bdry = d.boundary(cf.presuppositions_cf(th, eco).payload)
    full = cf.cf_meta(th, m, [vb], cert_bdry=bdry, annotation_cert=ann)
    assert eco.payload == full.payload


def test_cf_apply_rule_economic_reproduces_full(env):
    th, d, ty_bool, _ = env
    bdry = cf.cf_bdry_ty(th)
    eco = cf.cf_apply_rule(th, "bool", [])
    full = cf.cf_apply_rule(th, "bool", [], cert_bdry=bdry)
    assert eco.payload == full.payload


def test_cf_constructors_reject_bad_premises(env):
    th, d, ty_bool, ty_nat = env
    a = FreeVar("a", BOOL)
    va = cf.cf_var(th, a, ty_bool)
    # conversion along an equation at the wrong type
    refl_nat = cf.cf_eqty_refl(th, ty_nat, ty_nat)
    with pytest.raises(TypeMismatch):
        cf.cf_conv_tm(th, va, refl_nat)
    # transitivity with erasure-distinct middles
    refl_bool = cf.cf_eqty_refl(th, ty_bool, ty_bool)
    with pytest.raises(ErasureMismatch):
        cf.cf_eqty_trans(th, refl_bool, refl_nat)
    # rule application with a premise at the wrong type
    with pytest.raises(PremiseMismatch):
        cf.cf_apply_rule(th, "succ", [va])
    # reflexivity needs erasure-equal sides
    with pytest.raises(ErasureMismatch):
        cf.cf_eqtm_refl(th, va, cf.cf_var(th, FreeVar("b", BOOL), ty_bool))


def test_cf_constructors_refuse_a_boundary_premise(env):
    th, d, ty_bool, ty_nat = env
    bdry = cf.cf_bdry_tm(th, ty_nat)  # the boundary `? : nat`, not a judgement
    vb = cf.cf_var(th, FreeVar("b", NAT), ty_nat)
    eq = cf.cf_eqtm_refl(th, vb, vb)
    m = MetaName("M", plain(IsTmB(NAT)))
    sm = cf.cf_apply_rule(th, "succ", [cf.cf_meta(th, m, [], annotation_cert=d.boundary(m.annotation))])
    calls = [
        lambda: cf.cf_apply_rule(th, "succ", [bdry]),
        lambda: cf.cf_congruence(th, "succ", [bdry], [vb], [eq], vb),
        lambda: cf.cf_instantiate(th, [(m, bdry)], sm),
    ]
    for call in calls:
        with pytest.raises(PremiseMismatch, match=r"expected a judgement, got a boundary \(IsTmB\)"):
            call()
