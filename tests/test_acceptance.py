"""The acceptance gate: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -s  to see the per-criterion
report.
"""

import pathlib
import random
import time

import pytest

from fintt import cf_engine as cf
from fintt import tt_engine as tt
from fintt import translate as tr
from fintt.derive import CFDeriver, TTDeriver
from fintt.errors import (
    BinderUsed,
    ConclusionNotDerivableOverPrefix,
    KernelError,
    MetaIntroducedTwice,
    MetaNotIntroduced,
    NotObjectRule,
)
from fintt.instantiation import Instantiation
from fintt.judgements import (
    EMPTY_METAS,
    EMPTY_VARS,
    VarCtx,
    fill,
    instantiate_prefix,
    plain,
    unfill,
)
from fintt.parser import elaborate, parse_script, parse_theory, parse_term
from fintt.printer import print_expr, print_theory_decl, print_script
from fintt.script import run_script
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
    IsTy,
    MetaName,
    SymbolApp,
    asm,
    erase,
    erased_equal,
    fv,
    mv,
    subst_bound,
)
from fintt.theory import check_finitary, check_standard

from .gen import CertGen, ExprGen
from .test_syntax import oracle_fv, oracle_mv, oracle_occurrences
from .test_theory import id_typo_builder, mltt_builder, pi_family_builder, succ_typo_builder

CORPUS = pathlib.Path(__file__).parent / "corpus"
BOOL = SymbolApp("bool", ())
NAT = SymbolApp("nat", ())


def report(n: int, text: str, elapsed: float | None = None) -> None:
    """Prints the criterion's line, and its wall time on a line of its own,
    so that two runs of the same code print the same CRITERION lines."""
    print(f"\nCRITERION {n}: PASS — {text}")
    if elapsed is not None:
        print(f"TIME {n}: {elapsed:.2f}s")


def oracle_asm(x) -> AssumptionSet:
    _, bound, _ = oracle_occurrences(x)
    return AssumptionSet(
        frozenset(oracle_fv(x)), frozenset(bound), frozenset(oracle_mv(x))
    )


# ---------------------------------------------------------------------------


def test_criterion_1_theory_gates():
    start = time.monotonic()
    th = pi_family_builder("tt", "long").theory()
    check_finitary(th)

    with pytest.raises(MetaNotIntroduced) as e1:
        check_finitary(pi_family_builder("tt", "short").theory())
    assert "fails to introduce" in str(e1.value)

    from fintt.theory import TheoryBuilder
    from fintt.syntax import IsTmB, IsTyB, DUMMY

    b = TheoryBuilder("tt")
    from .test_theory import M

    b.declare_explicit_rule(
        "Unique-Ty",
        [
            ("A", plain(IsTyB())),
            ("B", plain(IsTyB())),
            ("t", plain(IsTmB(M("A")))),
            ("t", plain(IsTmB(M("B")))),
        ],
        EqTy(M("A"), M("B"), DUMMY),
    )
    with pytest.raises(MetaIntroducedTwice):
        check_finitary(b.theory())

    with pytest.raises(ConclusionNotDerivableOverPrefix) as e2:
        check_finitary(succ_typo_builder("tt", False).theory())
    assert e2.value.rule_name == "Succ-Congr-Typo"
    check_finitary(succ_typo_builder("tt", True).theory())

    typo = id_typo_builder("tt").theory()
    check_finitary(typo)
    with pytest.raises(NotObjectRule):
        check_standard(typo)

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, "five-rule family gates reproduce exactly", elapsed)


def test_criterion_2_corpus_derivability(corpus_cf, corpus_tt):
    start = time.monotonic()
    results = {}
    for name in ("pi_bool.fttd", "refl_nat.fttd", "reflect.fttd"):
        script = parse_script((CORPUS / name).read_text())
        out_cf = run_script(corpus_cf, script, "cf")
        out_tt = run_script(corpus_tt, script, "tt")
        assert erase(out_cf.payload) == out_tt.conclusion.jdg
        tt.check_derivation(corpus_tt, out_tt)
        results[name] = (out_cf, out_tt)
    pi_cf, _ = results["pi_bool.fttd"]
    assert pi_cf.payload == plain(IsTy(SymbolApp("Pi", (ExprArg(BOOL), Abstr(ExprArg(BOOL))))))
    refl_cf, _ = results["refl_nat.fttd"]
    assert isinstance(refl_cf.payload.body, IsTm)
    assert refl_cf.payload.body.term.symbol == "refl"
    reflect_cf, _ = results["reflect.fttd"]
    assert isinstance(reflect_cf.payload.body, EqTm)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(2, "three corpus judgements derive in both engines, cf erases to tt", elapsed)
    test_criterion_2_corpus_derivability.results = results


def _generate_certs(theory, count, depth, seed=2024):
    rng = random.Random(seed)
    g = CertGen(rng, theory)
    certs = []
    while len(certs) < count:
        try:
            certs.append(g.judgement_cert(rng.randrange(depth + 1)))
        except KernelError:
            continue
    return g, certs


def test_criterion_3_presuppositivity(corpus_cf, corpus_tt):
    g, certs = _generate_certs(corpus_cf, 300, 5)
    deriver = CFDeriver(corpus_cf)
    failures = 0
    for c in certs:
        b = cf.presuppositions_cf(corpus_cf, c)
        try:
            deriver.boundary(b.payload)
        except KernelError:
            failures += 1
    assert failures == 0
    # tt analogue with explicit context evidence
    ttd = TTDeriver(corpus_tt)
    rng = random.Random(7)
    count = 0
    for _ in range(100):
        a, b_, c_ = FreeVar("a"), FreeVar("b"), FreeVar("c")
        vctx = VarCtx([(a, NAT), (b_, BOOL), (c_, NAT)])
        t = rng.choice([a, c_])
        for _ in range(rng.randrange(3)):
            t = SymbolApp("succ", (ExprArg(t),))
        kind = rng.choice(["tm", "eq", "ty"])
        if kind == "tm":
            d = ttd.tm(EMPTY_METAS, vctx, t, NAT)
        elif kind == "eq":
            d = tt.eqtm_refl(corpus_tt, ttd.tm(EMPTY_METAS, vctx, t, NAT))
        else:
            d = ttd.ty(
                EMPTY_METAS, vctx, SymbolApp("Id", (ExprArg(NAT), ExprArg(t), ExprArg(t)))
            )
        mctx_d = tt.mctx_empty(corpus_tt)
        vctx_d = ttd.vctx_wf(EMPTY_METAS, vctx)
        bd = tt.presuppositions(corpus_tt, d, mctx_d, vctx_d)
        tt.check_derivation(corpus_tt, bd)
        count += 1
    assert count == 100
    report(3, "presuppositions of 300 random cf certificates re-certify; tt analogue on 100")
    test_criterion_3_presuppositivity.gen = g


def test_criterion_4_suitability(corpus_cf):
    g, certs = _generate_certs(corpus_cf, 300, 5, seed=99)
    # include the corpus equational certificates
    script = parse_script((CORPUS / "reflect.fttd").read_text())
    run_script(corpus_cf, script, "cf")
    checked = 0
    for premises, concl in g.equation_log:
        lhs = oracle_asm(premises[0]) if premises else EMPTY_ASSUMPTIONS
        for p in premises[1:]:
            lhs = lhs.union(oracle_asm(p))
        assert lhs == oracle_asm(concl), "suitability violated"
        checked += 1
    assert checked > 0
    report(4, f"asm(premises) == asm(conclusion) on {checked} emitted equations (oracle-recomputed)")


def test_criterion_5_strengthening(corpus_cf):
    rng = random.Random(5)
    g = CertGen(rng, corpus_cf)
    done = 0
    while done < 200:
        try:
            ty = g.type_cert(rng.randrange(3))
            j = g.judgement_cert(rng.randrange(3))
        except KernelError:
            continue
        v = FreeVar(g._name("u"), ty.payload.body.ty)
        if v in fv(j.payload) or v in fv(ty.payload):
            continue
        absd = cf.cf_abstract_fwd(corpus_cf, ty, j, v)
        back = cf.strengthen(corpus_cf, absd, position=0)
        assert back.payload == j.payload
        done += 1
    assert done == 200
    # the reflection conclusion must refuse to strengthen away p
    reflect = g.reflect_equation(2)
    p_atom = next(
        v
        for v in reflect.payload.body.by.free_vars
        if isinstance(v.annotation, SymbolApp) and v.annotation.symbol == "Id"
    )
    ty_p = CFDeriver(corpus_cf).ty(p_atom.annotation)
    absd = cf.cf_abstract_fwd(corpus_cf, ty_p, reflect, p_atom)
    with pytest.raises(BinderUsed):
        cf.strengthen(corpus_cf, absd)
    report(5, "200 unused-binder strengthenings are identities; reflection refusal confirmed")


def test_criterion_6_natural_type_inversion_uniqueness(corpus_cf):
    rng = random.Random(6)
    g = CertGen(rng, corpus_cf)
    deriver = CFDeriver(corpus_cf)
    done = 0
    while done < 200:
        try:
            ty = g.type_cert(rng.randrange(3))
            t = g.term_cert(ty, rng.randrange(4))
        except KernelError:
            continue
        inv = cf.invert_cf(corpus_cf, t)
        deriver.judgement(inv.payload)  # the stump re-certifies
        done += 1
    assert done == 200

    def wobble(ty_cert):
        """An erased-equal but syntactically distinct certified type."""
        comp = cf.boundary_components(corpus_cf, cf.presuppositions_cf(corpus_cf, ty_cert))
        ty = ty_cert.payload.body.ty
        assert isinstance(ty, SymbolApp) and ty.symbol == "Id"
        t_cert = deriver.tm(ty.args[1].expr, ty.args[0].expr)
        refl = cf.cf_eqty_refl(
            corpus_cf, deriver.ty(ty.args[0].expr), deriver.ty(ty.args[0].expr)
        )
        conv = cf.cf_conv_tm(corpus_cf, t_cert, refl)
        return cf.cf_apply_rule(
            corpus_cf,
            "Id",
            [deriver.ty(ty.args[0].expr), conv, deriver.tm(ty.args[2].expr, ty.args[0].expr)],
        )

    pairs = 0
    while pairs < 50:
        try:
            base = g.type_cert(2)
            if not (isinstance(base.payload.body.ty, SymbolApp) and base.payload.body.ty.symbol == "Id"):
                continue
            w1 = wobble(base)
            v = g.var_cert(base)
            eq1 = cf.cf_eqty_refl(corpus_cf, base, base)
            eq2 = cf.cf_eqty_refl(corpus_cf, base, w1)
            t1 = cf.cf_conv_tm(corpus_cf, v, eq1)
            t2 = cf.cf_conv_tm(corpus_cf, v, eq2)
        except KernelError:
            continue
        if t1.payload.body.term != t2.payload.body.term:
            continue
        uq = cf.uniqueness_of_typing_cf(corpus_cf, t1, t2)
        body = uq.payload.body
        assert isinstance(body, EqTy)
        assert body.by.issubset(oracle_asm(t1.payload.body.term))
        pairs += 1
    assert pairs == 50
    report(6, "200 inverted stumps re-certify; 50 double-typings give A == B with a <= asm(t)")


def test_criterion_7_translation_round_trips(corpus_cf, corpus_tt):
    start = time.monotonic()
    cf_results = []
    tt_results = []
    for name in ("pi_bool.fttd", "refl_nat.fttd", "reflect.fttd"):
        script = parse_script((CORPUS / name).read_text())
        cf_results.append(run_script(corpus_cf, script, "cf"))
        tt_results.append(run_script(corpus_tt, script, "tt", annotate_vars=False))
    # cf -> tt: derivations check, in suitable contexts with exact closures
    for cert in cf_results:
        mctx, vctx, d = tr.cf_judgement_to_tt(corpus_cf, corpus_tt, cert)
        tt.check_derivation(corpus_tt, d)
        assert d.conclusion.jdg == erase(cert.payload)
        ms, vs = tr.dependence_closure(list(mv(cert.payload)), list(fv(cert.payload)))
        assert [m for m, _ in mctx.entries] == ms
        assert [v for v, _ in vctx.entries] == vs
    # tt -> cf: double erasure recovers the conclusion
    ttd = TTDeriver(corpus_tt)
    from fintt.syntax import double_erase

    for d in tt_results:
        mctx, vctx = tt._ctxs(d.conclusion)
        mctx_d = tt.mctx_empty(corpus_tt)
        vctx_d = ttd.vctx_wf(mctx, vctx)
        cert = tr.tt_to_cf(corpus_tt, corpus_cf, d, mctx_d, vctx_d)
        assert double_erase(cert.payload) == d.conclusion.jdg
    # cf -> tt -> cf is erased-equal to the identity
    for cert in cf_results:
        back = tr.round_trip_cf(corpus_cf, corpus_tt, cert)
        assert erased_equal(back.payload, cert.payload)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(7, "translation round trips on the corpus certificates, 0 failures", elapsed)


def test_criterion_8_substitution_and_economic_oracles(corpus_tt):
    th = corpus_tt
    ttd = TTDeriver(th)
    rng = random.Random(8)
    a, b = FreeVar("a"), FreeVar("b")

    def random_term(vctx_entries, depth):
        pool = [v for v, ty in vctx_entries if ty == NAT]
        t = rng.choice(pool)
        for _ in range(rng.randrange(depth)):
            t = SymbolApp("succ", (ExprArg(t),))
        return t

    done = 0
    for _ in range(300):
        entries = [(b, NAT)]
        vctx_inner = VarCtx(entries + [(a, NAT)])
        body_term = random_term(list(vctx_inner.entries), 4)
        kind = rng.choice(["tm", "ty", "eq"])
        if kind == "tm":
            body = ttd.tm(EMPTY_METAS, vctx_inner, body_term, NAT)
        elif kind == "ty":
            body = ttd.ty(
                EMPTY_METAS, vctx_inner,
                SymbolApp("Id", (ExprArg(NAT), ExprArg(body_term), ExprArg(body_term))),
            )
        else:
            body = tt.eqtm_refl(th, ttd.tm(EMPTY_METAS, vctx_inner, body_term, NAT))
        d_nat = tt.weaken_var(th, ttd.ty(EMPTY_METAS, EMPTY_VARS, NAT), b, NAT)
        absd = tt.tt_abstr(th, d_nat, body, a)
        t_deriv = ttd.tm(EMPTY_METAS, VarCtx(entries), random_term(entries, 3), NAT)
        out = tt.admissible_substitute(th, absd, t_deriv)
        expected = instantiate_prefix(
            absd.conclusion.jdg, [t_deriv.conclusion.jdg.body.term]
        )
        assert out.conclusion.jdg == expected
        done += 1
    assert done == 300

    # economic rules agree with the full rules
    agree = 0
    n_meta = MetaName("N")
    from fintt.judgements import MetaCtx
    from fintt.syntax import IsTmB

    mctx = MetaCtx([(n_meta, plain(IsTmB(NAT)))])
    for _ in range(200):
        entries = [(b, NAT)]
        vctx = VarCtx(entries)
        t = random_term(entries, 3)
        which = rng.choice(["meta", "specific", "congr"])
        if which == "meta":
            bdry = MetaCtx([(n_meta, Abstracted((NAT,), IsTmB(NAT)))])
            td = TTDeriver(th).tm(bdry, vctx, t, NAT)
            full_prem, _, full_concl = _meta_instance(bdry, n_meta, [t])
            eco = tt.tt_meta(th, bdry, vctx, n_meta, [td])
            assert eco.conclusion.jdg == full_concl
        elif which == "specific":
            td = ttd.tm(EMPTY_METAS, vctx, t, NAT)
            inst = Instantiation([(MetaName("n"), ExprArg(t))])
            eco = tt.specific(th, EMPTY_METAS, vctx, "succ", inst, [td])
            bdry_d = tt.bdry_tm(th, ttd.ty(EMPTY_METAS, vctx, NAT))
            full = tt.specific(th, EMPTY_METAS, vctx, "succ", inst, [td], bdry_d)
            assert eco.conclusion == full.conclusion
        else:
            td = ttd.tm(EMPTY_METAS, vctx, t, NAT)
            eq = tt.eqtm_refl(th, td)
            inst = Instantiation([(MetaName("n"), ExprArg(t))])
            # the economic rule, derived by equal substitution into {x} succ(x)
            x, nat_d = FreeVar("x"), ttd.ty(EMPTY_METAS, vctx, NAT)
            body = ttd.tm(EMPTY_METAS, vctx.extend(x, NAT), SymbolApp("succ", (ExprArg(x),)), NAT)
            eco = tt.eq_subst_n(th, tt.tt_abstr(th, nat_d, body, x), [td], [td], [eq])
            ty_eq = tt.eqty_refl(th, nat_d)
            full = tt.congruence(
                th, EMPTY_METAS, vctx, "succ", inst, inst, [td, td, eq, ty_eq]
            )
            assert eco.rule == full.rule
            tt.check_derivation(th, eco)
            assert eco.conclusion == full.conclusion
        agree += 1
    assert agree == 200
    report(8, "300 admissible substitutions match the syntactic oracle; 200 economic instances agree with full rules")


def _meta_instance(mctx, m, terms):
    from fintt.theory import metavariable_rule_instance

    return metavariable_rule_instance(m, mctx[m], terms)


def test_criterion_9_syntax_laws(corpus_cf):
    from fintt.judgements import fill as fill_b, unfill as unfill_b
    from fintt.syntax import bv, fv0

    rng = random.Random(9)
    g = ExprGen(rng, cf=True)
    # erasure/substitution commutation
    for _ in range(500):
        body = g.tm(3, binders=1)
        s = g.tm(2)
        assert erase(subst_bound(body, s, 0)) == subst_bound(erase(body), erase(s), 0)
    # fill/unfill inversion
    for _ in range(500):
        j = g.abstracted(3)
        bd, head = unfill_b(j)
        assert fill_b(bd, head) == j
    # occurrence oracle agreement
    for _ in range(500):
        e = g.abstracted(3)
        got = asm(e)
        want = oracle_asm(e)
        assert got == want
    # parse/print round trip
    from fintt.parser import parse_term as pt

    for _ in range(500):
        e = g.tm(3)
        text = print_expr(e)
        assert pt(text, corpus_cf) == e
    # and the corpus files round-trip byte-identically
    text = (CORPUS / "mltt.ftt").read_text()
    assert print_theory_decl(parse_theory(text)) == text
    for name in ("pi_bool.fttd", "refl_nat.fttd", "reflect.fttd"):
        stext = (CORPUS / name).read_text()
        assert print_script(parse_script(stext)) == stext
    report(9, "erase/subst, fill/unfill, occurrence oracle, parse/print: 500 instances each, 0 failures")
