"""The contexted engine: derivation checking, admissible substitution and
instantiation against syntactic oracles, presuppositions, inversion."""

import pickle
import random

import pytest

from fintt import tt_engine as tt
from fintt.errors import BadNode, KernelError, PremiseMismatch, SideConditionFailed
from fintt.derive import TTDeriver
from fintt.instantiation import Instantiation, act
from fintt.judgements import (
    EMPTY_METAS,
    EMPTY_VARS,
    MetaCtx,
    VarCtx,
    instantiate_prefix,
    open_judgement,
    plain,
)
from fintt.syntax import (
    Abstr,
    Abstracted,
    BoundVar,
    DUMMY,
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
    fresh_name,
    subst_free,
)

BOOL = SymbolApp("bool", ())
NAT = SymbolApp("nat", ())


def succ(t):
    return SymbolApp("succ", (ExprArg(t),))


def pi(a, fam):
    return SymbolApp("Pi", (ExprArg(a), Abstr(ExprArg(fam))))


def rule_bool(th, mctx=EMPTY_METAS, vctx=EMPTY_VARS):
    return tt.specific(th, mctx, vctx, "bool", Instantiation([]), [])


def rule_nat(th, mctx=EMPTY_METAS, vctx=EMPTY_VARS):
    return tt.specific(th, mctx, vctx, "nat", Instantiation([]), [])


def test_pi_bool_bool_derivation(corpus_tt):
    """A nine-node derivation of  |- Pi(bool, {x} bool) type."""
    th = corpus_tt
    d_bool = rule_bool(th)
    a = FreeVar("a")
    d_bool_a = rule_bool(th, vctx=VarCtx([(a, BOOL)]))
    fam = tt.tt_abstr(th, d_bool, d_bool_a, a)
    assert fam.conclusion.jdg == Abstracted((BOOL,), IsTy(BOOL))
    A, B = MetaName("A"), MetaName("B")
    inst = Instantiation([(A, ExprArg(BOOL)), (B, Abstr(ExprArg(BOOL)))])
    d = tt.specific(th, EMPTY_METAS, EMPTY_VARS, "Pi", inst, [d_bool, fam])
    assert d.conclusion.jdg == plain(IsTy(pi(BOOL, BOOL)))
    tt.check_derivation(th, d)

    def count(d):
        return 1 + sum(count(p) for p in d.premises)

    assert count(d) == 5  # economic; the full form re-derives the boundary


def test_check_derivation_rejects_tampering(corpus_tt):
    th = corpus_tt
    d = rule_bool(th)
    bad = tt.Derivation(d.rule, d.data, d.premises, tt.JdgTT(EMPTY_METAS, EMPTY_VARS, plain(IsTy(NAT))))
    with pytest.raises(BadNode):
        tt.check_derivation(th, bad)


def test_tt_var_side_condition(corpus_tt):
    th = corpus_tt
    a = FreeVar("a")
    with pytest.raises(SideConditionFailed):
        tt.tt_var(th, EMPTY_METAS, EMPTY_VARS, a)
    d = tt.tt_var(th, EMPTY_METAS, VarCtx([(a, BOOL)]), a)
    assert d.conclusion.jdg == plain(IsTm(a, BOOL))


def test_abstraction_and_substitution_inverse(corpus_tt):
    th = corpus_tt
    a = FreeVar("a")
    vctx = VarCtx([(a, NAT)])
    d_nat = rule_nat(th)
    var_a = tt.tt_var(th, EMPTY_METAS, vctx, a)
    d_succ = tt.specific(
        th, EMPTY_METAS, vctx, "succ", Instantiation([(MetaName("n"), ExprArg(a))]), [var_a]
    )
    absd = tt.tt_abstr(th, d_nat, d_succ, a)
    assert absd.conclusion.jdg == Abstracted((NAT,), IsTm(succ(BoundVar(0)), NAT))
    # substitute a term back in
    b = FreeVar("b")
    vctx_b = VarCtx([(b, NAT)])
    var_b = tt.tt_var(th, EMPTY_METAS, vctx_b, b)
    absd_b = tt.weaken_var(th, tt.tt_abstr(th, d_nat, d_succ, a), b, NAT)
    # align contexts: abstract over empty context, weaken, then substitute
    out = tt.admissible_substitute(th, absd_b, var_b)
    assert out.conclusion.jdg == plain(IsTm(succ(b), NAT))
    tt.check_derivation(th, out)


def test_weakening_preserves_checkability(corpus_tt):
    th = corpus_tt
    d = rule_bool(th)
    w = tt.weaken_var(th, d, FreeVar("c"), NAT)
    tt.check_derivation(th, w)
    assert w.conclusion.vctx == VarCtx([(FreeVar("c"), NAT)])
    wm = tt.weaken_meta(th, d, MetaName("M"), plain(IsTyB()))
    tt.check_derivation(th, wm)


def test_weakening_by_several_entries_at_once(corpus_tt):
    """One pass inserts the entries in order, freshening a binder that
    shares a name with one of them; the result concludes what one-at-a-time
    weakening concludes."""
    th = corpus_tt
    x, y = FreeVar("x"), FreeVar("y")
    d = tt.tt_abstr(th, rule_bool(th), rule_nat(th, vctx=VarCtx([(x, BOOL)])), x)
    entries = [(x, NAT), (y, BOOL)]
    w = tt.weaken_vars(th, d, entries)
    tt.check_derivation(th, w)
    assert w.conclusion.vctx == VarCtx(entries)
    assert w.conclusion.jdg == d.conclusion.jdg
    one_at_a_time = tt.weaken_var(th, tt.weaken_var(th, d, x, NAT), y, BOOL)
    assert w.conclusion == one_at_a_time.conclusion


def test_renaming_invariance(corpus_tt):
    th = corpus_tt
    a, b = FreeVar("a"), FreeVar("b")
    vctx = VarCtx([(a, NAT)])
    var_a = tt.tt_var(th, EMPTY_METAS, vctx, a)
    ren = tt.rename_derivation(th, var_a, {a: b})
    tt.check_derivation(th, ren)
    assert ren.conclusion.jdg == plain(IsTm(b, NAT))


def _random_closed_term_derivs(th, rng, vctx_entries, depth):
    """Builds a random derivation of a term judgement over nat/bool vars."""
    deriver = TTDeriver(th)
    vctx = VarCtx(vctx_entries)
    candidates = [v for v, ty in vctx_entries if ty == NAT]
    t = rng.choice(candidates)
    for _ in range(rng.randrange(depth)):
        t = succ(t)
    return deriver.tm(EMPTY_METAS, vctx, t, NAT)


def test_admissible_substitute_matches_syntactic_oracle(corpus_tt):
    """Criterion 8 core: conclusions of admissible substitution equal the
    syntactic substitution of the payload, on 300 random instances."""
    th = corpus_tt
    rng = random.Random(42)
    a, b = FreeVar("a"), FreeVar("b")
    checked = 0
    for _ in range(300):
        d_nat = rule_nat(th)
        entries = [(b, NAT)]
        body = _random_closed_term_derivs(th, rng, entries + [(a, NAT)], 4)
        absd = tt.tt_abstr(th, tt.weaken_var(th, d_nat, b, NAT), body, a)
        t_deriv = _random_closed_term_derivs(th, rng, entries, 3)
        out = tt.admissible_substitute(th, absd, t_deriv)
        t = t_deriv.conclusion.jdg.body.term
        expected = instantiate_prefix(absd.conclusion.jdg, [t])
        assert out.conclusion.jdg == expected
        tt.check_derivation(th, out)
        checked += 1
    assert checked == 300


def test_subst_eqty_example(corpus_tt):
    """TT-Subst-EqTy on  {x:A} C type  with  s == t  yields C[s] == C[t]."""
    th = corpus_tt
    a = FreeVar("a")
    vctx = VarCtx([(a, BOOL)])
    deriver = TTDeriver(th)
    # family {x:nat} Id(nat, x, x) type
    fam = deriver.judgement(
        EMPTY_METAS,
        EMPTY_VARS,
        Abstracted(
            (NAT,),
            IsTy(SymbolApp("Id", (ExprArg(NAT), ExprArg(BoundVar(0)), ExprArg(BoundVar(0))))),
        ),
    )
    b, c = FreeVar("b"), FreeVar("c")
    vctx2 = VarCtx([(b, NAT), (c, NAT)])
    fam2 = tt.weaken_vars(th, fam, list(vctx2.entries))
    s_d = tt.tt_var(th, EMPTY_METAS, vctx2, b)
    t_d = tt.tt_var(th, EMPTY_METAS, vctx2, c)
    # s == t by reflexivity is impossible for distinct vars; use same var
    s2 = tt.tt_var(th, EMPTY_METAS, vctx2, b)
    eq = tt.eqtm_refl(th, s2)
    out = tt.eq_subst_n(th, fam2, [s_d], [s_d], [eq])
    want = EqTy(
        SymbolApp("Id", (ExprArg(NAT), ExprArg(b), ExprArg(b))),
        SymbolApp("Id", (ExprArg(NAT), ExprArg(b), ExprArg(b))),
        DUMMY,
    )
    assert out.conclusion.jdg == plain(want)
    tt.check_derivation(th, out)


def test_admissible_instantiate(corpus_tt):
    """Instantiating a metavariable judgement replays as substitutions."""
    th = corpus_tt
    n = MetaName("N")
    mctx = MetaCtx([(n, plain(IsTmB(NAT)))])
    deriver = TTDeriver(th)
    # N; . |- succ(N) : nat
    d = deriver.tm(mctx, EMPTY_VARS, succ(MetaApp(n, ())), NAT)
    assert d.conclusion.mctx == mctx
    # instantiate N := succ(b) over a context with b : nat
    b = FreeVar("b")
    vctx = VarCtx([(b, NAT)])
    d_w = _weaken_to(th, d, vctx)
    arg_deriv = deriver.tm(EMPTY_METAS, vctx, succ(b), NAT)
    inst = Instantiation([(n, ExprArg(succ(b)))])
    out = tt.admissible_instantiate(th, inst, {n: arg_deriv}, d_w, EMPTY_METAS, vctx)
    assert out.conclusion.jdg == plain(IsTm(succ(succ(b)), NAT))
    assert out.conclusion.mctx == EMPTY_METAS
    tt.check_derivation(th, out)
    # empty instantiation is the identity on metavariable-free judgements
    d2 = deriver.tm(EMPTY_METAS, vctx, succ(b), NAT)
    out2 = tt.admissible_instantiate(th, Instantiation([]), {}, d2, EMPTY_METAS, vctx)
    assert out2.conclusion == d2.conclusion


def _weaken_to(th, d, vctx):
    out = d
    for v, ty in vctx.entries:
        out = tt.weaken_var(th, out, v, ty)
    return out


def test_presuppositions_of_equation(corpus_tt):
    """Presuppositions of  s == t : A  are  A type, s : A, t : A."""
    th = corpus_tt
    deriver = TTDeriver(th)
    a, b, p = FreeVar("a"), FreeVar("b"), FreeVar("p")
    vctx = VarCtx([(a, BOOL), (b, BOOL), (p, SymbolApp("Id", (ExprArg(BOOL), ExprArg(a), ExprArg(b))))])
    mctx_d = tt.mctx_empty(th)
    vctx_d = deriver.vctx_wf(EMPTY_METAS, vctx)
    # the equality-reflection consequence a == b : bool
    A, S, T, P = (MetaName(x) for x in "AstP")
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
            rule_bool(th, vctx=vctx),
            tt.tt_var(th, EMPTY_METAS, vctx, a),
            tt.tt_var(th, EMPTY_METAS, vctx, b),
            tt.tt_var(th, EMPTY_METAS, vctx, p),
        ],
    )
    assert d.conclusion.jdg == plain(EqTm(a, b, BOOL, DUMMY))
    bd = tt.presuppositions(th, d, mctx_d, vctx_d)
    from fintt.syntax import EqTmB

    assert bd.conclusion.bdry == plain(EqTmB(a, b, BOOL))
    tt.check_derivation(th, bd)


def test_presupposition_of_term_judgement(corpus_tt):
    th = corpus_tt
    deriver = TTDeriver(th)
    b = FreeVar("b")
    vctx = VarCtx([(b, NAT)])
    d = deriver.tm(EMPTY_METAS, vctx, succ(b), NAT)
    mctx_d = tt.mctx_empty(th)
    vctx_d = deriver.vctx_wf(EMPTY_METAS, vctx)
    bd = tt.presuppositions(th, d, mctx_d, vctx_d)
    assert bd.conclusion.bdry == plain(IsTmB(NAT))
    tt.check_derivation(th, bd)


def test_natural_type(corpus_tt):
    th = corpus_tt
    a = FreeVar("a")
    vctx = VarCtx([(a, BOOL)])
    assert tt.natural_type(th, EMPTY_METAS, vctx, a) == BOOL
    n = MetaName("N")
    mctx = MetaCtx([(n, Abstracted((NAT,), IsTmB(NAT)))])
    got = tt.natural_type(th, mctx, EMPTY_VARS, MetaApp(n, (succ(succ_free(a)),)))
    assert got == NAT
    assert tt.natural_type(th, EMPTY_METAS, vctx, succ(succ_free(a))) == NAT


def succ_free(v):
    return v


def test_inversion_collapses_conversions(corpus_tt):
    th = corpus_tt
    deriver = TTDeriver(th)
    b = FreeVar("b")
    vctx = VarCtx([(b, BOOL)])
    # build b : nat via conversion along Bool-Eq-Nat... corpus lacks it, so
    # use stacked trivial conversions instead
    var_b = tt.tt_var(th, EMPTY_METAS, vctx, b)
    refl = tt.eqty_refl(th, rule_bool(th, vctx=vctx))
    c1 = tt.conv_tm(th, var_b, refl)
    c2 = tt.conv_tm(th, c1, refl)
    inv = tt.invert(th, c2)
    assert inv.rule == "TT-Var"
    assert inv.conclusion.jdg == plain(IsTm(b, BOOL))
    # conversion-free input returned unchanged
    assert tt.invert(th, var_b) is var_b
    tt.check_derivation(th, inv)


def test_a_derivation_pickles_without_its_stored_hash(corpus_tt):
    """succ(succ(a)) : nat, pickled and loaded back, is equal to the
    original and hashes alike."""
    vctx = VarCtx([(FreeVar("a"), NAT)])
    d = TTDeriver(corpus_tt).tm(EMPTY_METAS, vctx, succ(succ(FreeVar("a"))), NAT)
    back = pickle.loads(pickle.dumps(d))
    assert back is not d and back == d and hash(back) == hash(d)
    tt.check_derivation(corpus_tt, back)


def test_uniqueness_of_typing(corpus_tt):
    th = corpus_tt
    deriver = TTDeriver(th)
    b = FreeVar("b")
    vctx = VarCtx([(b, BOOL)])
    var_b = tt.tt_var(th, EMPTY_METAS, vctx, b)
    refl = tt.eqty_refl(th, rule_bool(th, vctx=vctx))
    c1 = tt.conv_tm(th, var_b, refl)
    mctx_d = tt.mctx_empty(th)
    vctx_d = deriver.vctx_wf(EMPTY_METAS, vctx)
    eq = tt.uniqueness_of_typing(th, var_b, c1, mctx_d, vctx_d)
    assert eq.conclusion.jdg == plain(EqTy(BOOL, BOOL, DUMMY))
    tt.check_derivation(th, eq)


def test_uniqueness_of_typing_refuses_a_subject_that_is_no_typing(corpus_tt):
    """A type judgement has no type to compare: refused as the cf twin
    refuses it, not by reading a premise the node does not have."""
    th = corpus_tt
    deriver = TTDeriver(th)
    nat_d = deriver.ty(EMPTY_METAS, EMPTY_VARS, NAT)
    mctx_d, vctx_d = tt.mctx_empty(th), deriver.vctx_wf(EMPTY_METAS, EMPTY_VARS)
    with pytest.raises(BadNode, match="IsTm"):
        tt.uniqueness_of_typing(th, nat_d, nat_d, mctx_d, vctx_d)
    a = FreeVar("a")
    vctx = VarCtx([(a, NAT)])
    var_a = tt.tt_var(th, EMPTY_METAS, vctx, a)
    refl = tt.eqty_refl(th, deriver.ty(EMPTY_METAS, vctx, NAT))
    with pytest.raises(BadNode):
        tt.uniqueness_of_typing(th, var_a, refl, mctx_d, deriver.vctx_wf(EMPTY_METAS, vctx))


def test_uniqueness_of_typing_refuses_two_terms(corpus_tt):
    th = corpus_tt
    deriver = TTDeriver(th)
    a, b = FreeVar("a"), FreeVar("b")
    vctx = VarCtx([(a, NAT), (b, NAT)])
    var_a = tt.tt_var(th, EMPTY_METAS, vctx, a)
    var_b = tt.tt_var(th, EMPTY_METAS, vctx, b)
    mctx_d, vctx_d = tt.mctx_empty(th), deriver.vctx_wf(EMPTY_METAS, vctx)
    with pytest.raises(PremiseMismatch, match="one term"):
        tt.uniqueness_of_typing(th, var_a, var_b, mctx_d, vctx_d)


def test_meta_congr_eco_agrees_with_full(corpus_tt):
    """Economic metavariable congruence, derived by equal substitution into
    {x:nat} N(x) : nat, is a full metavariable congruence node with the full
    rule's conclusion."""
    th = corpus_tt
    n = MetaName("N")
    bdry = Abstracted((NAT,), IsTmB(NAT))
    mctx = MetaCtx([(n, bdry)])
    deriver = TTDeriver(th)
    b = FreeVar("b")
    vctx = VarCtx([(b, NAT)])
    s_d = deriver.tm(mctx, vctx, b, NAT)
    eq_d = tt.eqtm_refl(th, s_d)
    full_prem, full_concl = _meta_congr_parts(th, mctx, vctx, n, b, deriver)
    fam = deriver.judgement(mctx, vctx, Abstracted((NAT,), IsTm(MetaApp(n, (BoundVar(0),)), NAT)))
    eco = tt.eq_subst_n(th, fam, [s_d], [s_d], [eq_d], mctx_deriv=deriver.mctx_wf(mctx))
    assert eco.rule == "TT-Meta-Congr"
    assert eco.conclusion.jdg == full_concl
    tt.check_derivation(th, eco)


def _meta_congr_parts(th, mctx, vctx, n, b, deriver):
    from fintt.theory import metavariable_congruence_instance

    prem, concl = metavariable_congruence_instance(n, mctx[n], [b], [b])
    return prem, concl


def test_nine_node_full_pi_derivation(corpus_tt):
    """The fully explicit (non-economic) derivation of |- Pi(bool, {x} bool)
    type has nine nodes and the checker accepts it."""
    th = corpus_tt
    empty = Instantiation([])

    def bool_full(vctx):
        bd = tt.bdry_ty(th, EMPTY_METAS, vctx)
        return tt.specific(th, EMPTY_METAS, vctx, "bool", empty, [], bd)

    d_bool = bool_full(EMPTY_VARS)
    a = FreeVar("a")
    fam = tt.tt_abstr(th, d_bool, bool_full(VarCtx([(a, BOOL)])), a)
    A, B = MetaName("A"), MetaName("B")
    inst = Instantiation([(A, ExprArg(BOOL)), (B, Abstr(ExprArg(BOOL)))])
    bdry = tt.bdry_ty(th, EMPTY_METAS, EMPTY_VARS)
    d = tt.specific(th, EMPTY_METAS, EMPTY_VARS, "Pi", inst, [d_bool, fam], bdry)
    tt.check_derivation(th, d)

    def count(node):
        return 1 + sum(count(p) for p in node.premises)

    assert count(d) == 9
    assert d.conclusion.jdg == plain(IsTy(pi(BOOL, BOOL)))


def test_specific_full_and_eco_agree(corpus_tt):
    th = corpus_tt
    empty = Instantiation([])
    bd = tt.bdry_ty(th, EMPTY_METAS, EMPTY_VARS)
    full = tt.specific(th, EMPTY_METAS, EMPTY_VARS, "bool", empty, [], bd)
    eco = tt.specific(th, EMPTY_METAS, EMPTY_VARS, "bool", empty, [])
    assert full.conclusion == eco.conclusion


def test_checker_rejects_malformed_nodes(corpus_tt):
    """Negative cases: wrong premise order, missing side conditions,
    mismatched conversion types."""
    th = corpus_tt
    a = FreeVar("a")
    vctx = VarCtx([(a, BOOL)])
    var_a = tt.tt_var(th, EMPTY_METAS, vctx, a)
    bool_d = rule_bool(th, vctx=vctx)
    nat_d = rule_nat(th)
    # conversion along an equation whose left side is not the term's type
    refl_nat = tt.eqty_refl(th, tt.weaken_var(th, nat_d, a, BOOL))
    with pytest.raises(BadNode):
        tt.conv_tm(th, var_a, refl_nat)
    # transitivity with non-chaining middles
    refl_bool = tt.eqty_refl(th, bool_d)
    with pytest.raises(BadNode):
        tt.eqty_trans(th, refl_bool, refl_nat)
    # specific rule applied to premises in the wrong order
    A, B = MetaName("A"), MetaName("B")
    fam = tt.tt_abstr(th, rule_bool(th), rule_bool(th, vctx=VarCtx([(a, BOOL)])), a)
    inst = Instantiation([(A, ExprArg(BOOL)), (B, Abstr(ExprArg(BOOL)))])
    with pytest.raises(BadNode):
        tt.specific(th, EMPTY_METAS, EMPTY_VARS, "Pi", inst, [fam, rule_bool(th)])
    # abstraction over an atom already in the context
    with pytest.raises(KernelError):
        tt.tt_abstr(th, bool_d, tt.weaken_var(th, var_a, FreeVar("c"), BOOL), a)


# ---------------------------------------------------------------------------
# The slot table and the walks built on it


def _nodes(d, out):
    if id(d) not in out:
        out[id(d)] = d
        for p in d.premises:
            _nodes(p, out)
    return out


def _sample_derivations(th):
    """Every derivation the corpus scripts bind, the deriver's derivations of
    generated judgements, context evidence, and the theory's finitary
    boundary witnesses."""
    from fintt.parser import parse_script
    from fintt.script import ScriptRunner

    from .gen import ExprGen
    from .test_surface import CORPUS

    out = []
    for path in sorted(CORPUS.glob("*.fttd")):
        runner = ScriptRunner(th, "tt")
        runner.run(parse_script(path.read_text()))
        out += [x for x in runner.bindings.values() if isinstance(x, tt.Derivation)]
    deriver = TTDeriver(th)
    vctx = VarCtx([(FreeVar(n), NAT) for n in "abcd"])
    for seed in range(60):
        rng = random.Random(seed)
        j = ExprGen(rng, cf=False).abstracted(rng.randrange(3))
        try:
            out.append(deriver.judgement(EMPTY_METAS, vctx, j))
        except KernelError:
            pass
    m = MetaName("M")
    mctx = MetaCtx([(m, Abstracted((NAT,), IsTmB(NAT)))])
    out += [deriver.mctx_wf(mctx), deriver.vctx_wf(mctx, vctx)]
    out += [w["boundary"] for w in th.finitary_witnesses.values()]
    # the closure rules the above leave out, from the public constructors
    a = FreeVar("a")
    nat_d, a_d = deriver.ty(mctx, vctx, NAT), tt.tt_var(th, mctx, vctx, a)
    refl_ty, refl_tm = tt.eqty_refl(th, nat_d), tt.eqtm_refl(th, a_d)
    inst = Instantiation([(MetaName("n"), ExprArg(a))])
    out += [
        tt.eqty_trans(th, tt.eqty_sym(th, refl_ty), refl_ty),
        tt.eqtm_trans(th, tt.eqtm_sym(th, refl_tm), refl_tm),
        tt.conv_tm(th, a_d, refl_ty),
        tt.conv_eqtm(th, refl_tm, refl_ty),
        tt.bdry_eqty(th, nat_d, nat_d),
        tt.specific(th, mctx, vctx, "succ", inst, [a_d], tt.bdry_tm(th, nat_d)),
        tt.congruence(th, mctx, vctx, "succ", inst, inst, [a_d, a_d, refl_tm, refl_ty]),
        tt.tt_meta(th, mctx, vctx, m, [a_d], tt.bdry_tm(th, nat_d)),
        tt.meta_congr(th, mctx, vctx, m, [a], [a], [a_d, a_d, refl_tm, refl_ty]),
    ]
    return out


def test_slot_table_describes_every_node(corpus_tt):
    """Every node's rule has a row with one kind per data slot, and
    rebuilding the data with identity maps gives it back."""
    identity = {k: (lambda x: x) for k in ("mctx", "vctx", "var", "binder", "meta", "expr")}
    rules = set()
    for d in _sample_derivations(corpus_tt):
        for n in _nodes(d, {}).values():
            rules.add(n.rule)
            assert len(tt._SLOTS[n.rule]) == len(n.data)
            assert tt._map_data(n.rule, n.data, identity) == n.data
            assert tt._map_data(n.rule, n.data, {}) == n.data
    assert rules == set(tt._SLOTS)


def test_renaming_there_and_back_is_the_identity(corpus_tt):
    """Renaming a context variable to an unused name and back gives the
    derivation itself."""
    th = corpus_tt
    checked = 0
    for d in _sample_derivations(th):
        vctx = tt._ctxs(d.conclusion)[1]
        if not len(vctx):
            continue
        x = vctx.entries[0][0]
        y = FreeVar(fresh_name("y", frozenset(tt._all_names(d))))
        there = tt.rename_derivation(th, d, {x: y})
        assert y in there.conclusion.vctx and x not in there.conclusion.vctx
        assert tt.rename_derivation(th, there, {y: x}) == d
        checked += 1
    assert checked >= 20


def test_renaming_onto_a_binder_name_is_refused(corpus_tt):
    """A renaming whose target a binder of the derivation takes would be
    captured by it; it is refused before any node is rebuilt."""
    th = corpus_tt
    a = FreeVar("a")
    d = TTDeriver(th).ty(EMPTY_METAS, VarCtx([(a, NAT)]), pi(BOOL, BOOL))
    (binder,) = tt._binding_atoms(d)
    with pytest.raises(KernelError, match=f"renaming onto {binder.name}"):
        tt.rename_derivation(th, d, {a: FreeVar(binder.name)})
    # a binder the renaming moves away takes no name
    c = FreeVar(fresh_name("c", frozenset(tt._all_names(d))))
    out = tt.rename_derivation(th, d, {a: FreeVar(binder.name), binder: c})
    tt.check_derivation(th, out)
    assert out.conclusion.vctx == VarCtx([(FreeVar(binder.name), NAT)])


def test_equal_instantiation_refuses_two_binder_metavariables(corpus_tt):
    """An object metavariable binding two variables is refused before any
    walking, whether or not the derivation applies it."""
    th = corpus_tt
    deriver = TTDeriver(th)
    g = MetaName("G")
    mctx = MetaCtx([(g, Abstracted((NAT, NAT), IsTmB(NAT)))])
    a = FreeVar("a")
    vctx = VarCtx([(a, NAT)])
    fill = deriver.judgement(EMPTY_METAS, vctx, Abstracted((NAT, NAT), IsTm(BoundVar(1), NAT)))
    eq = deriver.judgement(
        EMPTY_METAS, vctx, Abstracted((NAT, NAT), EqTm(BoundVar(1), BoundVar(1), NAT, DUMMY))
    )
    entries = [tt.EqInstEntry(g, fill, fill, fill, eq)]
    uses_g = deriver.tm(mctx, vctx, MetaApp(g, (a, succ(a))), NAT)
    ignores_g = deriver.ty(mctx, vctx, NAT)
    for d in (uses_g, ignores_g):
        with pytest.raises(BadNode, match="more than one variable"):
            tt.eq_instantiate(th, entries, d, EMPTY_METAS, vctx, deriver.mctx_wf(mctx))


def test_equal_instantiation_freshens_binders_of_a_binder_type(corpus_tt):
    """F binds a variable of type Pi(bool, {x} bool), whose derivation binds
    an atom.  F applied under a binder of the derivation walked needs that
    binder type's equation under the same binder, which the deriver names
    alike; the binder type's own binder must be renamed away from it."""
    th = corpus_tt
    deriver = TTDeriver(th)
    p = pi(BOOL, BOOL)
    f = MetaName("F")
    mctx = MetaCtx([(f, Abstracted((p,), IsTyB()))])
    h = FreeVar("h")
    vctx = VarCtx([(h, p)])
    fill = deriver.judgement(EMPTY_METAS, vctx, Abstracted((p,), IsTy(NAT)))
    eq = deriver.judgement(EMPTY_METAS, vctx, Abstracted((p,), EqTy(NAT, NAT, DUMMY)))
    d = deriver.ty(mctx, vctx, pi(BOOL, MetaApp(f, (h,))))
    mctx_d = deriver.mctx_wf(mctx)
    binder_type_d = tt.mctx_entry_boundary(th, mctx_d, f).premises[0]
    names = [{a.name for a in tt._binding_atoms(x)} for x in (d, binder_type_d)]
    assert names[0] == names[1]
    entries = [tt.EqInstEntry(f, fill, fill, fill, eq)]
    _, _, d_eq = tt.eq_instantiate(th, entries, d, EMPTY_METAS, vctx, mctx_d)
    tt.check_derivation(th, d_eq)
    assert d_eq.conclusion.jdg == Abstracted((), EqTy(pi(BOOL, NAT), pi(BOOL, NAT), DUMMY))


@pytest.mark.parametrize("kind", ["TT-EqTy-Refl", "TT-EqTm-Refl", "TT-Conv-Tm", "TT-Bdry-Tm", "TT-Abstr"])
def test_a_premise_that_concludes_no_statement_is_a_bad_node(corpus_tt, kind):
    """A node constructor given a premise whose stored conclusion is not a
    statement refuses it with ``BadNode`` naming the rule, as ``_ctxs`` reads
    the premise's contexts."""
    th = corpus_tt
    a = FreeVar("a")
    v = tt.tt_var(th, EMPTY_METAS, VarCtx([(a, BOOL)]), a)
    g = tt.Derivation(v.rule, v.data, v.premises, "garbage")
    build = {
        "TT-EqTy-Refl": lambda: tt.eqty_refl(th, g),
        "TT-EqTm-Refl": lambda: tt.eqtm_refl(th, g),
        "TT-Conv-Tm": lambda: tt.conv_tm(th, g, v),
        "TT-Bdry-Tm": lambda: tt.bdry_tm(th, g),
        "TT-Abstr": lambda: tt.tt_abstr(th, g, v, FreeVar("x")),
    }[kind]
    with pytest.raises(BadNode, match=f"^{kind}: got a str, not a statement$"):
        build()
