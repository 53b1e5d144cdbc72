"""The walks over derivations on one driver, ``tt_engine.walk``: deep chains
that no walk recurses on, one step per distinct (node, binders), the same
Python frame depth at the leaf of a chain of n and of 2n nodes, and the
kernel refusals next to them: premise counts, instantiation of a
metavariable congruence, inversion of a long conversion chain, a forged
root over a long term."""

import sys
import time

import pytest

from fintt import cf_engine as cf
from fintt import translate as tr
from fintt import tt_engine as tt
from fintt.derive import TTDeriver
from fintt.errors import BadNode, KernelError, MissingContextEvidence
from fintt.instantiation import Instantiation
from fintt.judgements import EMPTY_METAS, MetaCtx, VarCtx, plain
from fintt.parser import parse_script
from fintt.printer import SHOWN_LENGTH
from fintt.script import run_script
from fintt.syntax import (
    Abstr,
    Abstracted,
    BoundVar,
    EqTm,
    EqTmB,
    ExprArg,
    FreeVar,
    IsTm,
    IsTmB,
    MetaApp,
    MetaName,
    SymbolApp,
)

from .test_derivation_sharing import K

NAT = SymbolApp("nat", ())
A, B = FreeVar("a"), FreeVar("b")
LONG = 2000


def chain(th, vctx, v, n):
    """eqtm_trans(... eqtm_trans(r, r) ..., r), n transitivity steps over the
    reflexivity  r  on the variable ``v``: n + 2 nodes, nested n deep."""
    r = tt.eqtm_refl(th, tt.tt_var(th, EMPTY_METAS, vctx, v))
    d = r
    for _ in range(n):
        d = tt.eqtm_trans(th, d, r)
    return d


def evidence(th, vctx):
    return tt.mctx_empty(th), TTDeriver(th).vctx_wf(EMPTY_METAS, vctx)


def subst_b_for_a(th, d):
    """Equal substitution of  b == b  for ``a`` in ``d`` over  b, a : nat."""
    b_d = tt.tt_var(th, EMPTY_METAS, VarCtx([(B, NAT)]), B)
    sub = tt.EqSubst(A, b_d, b_d, tt.eqtm_refl(th, b_d))
    return tt.prepare_subst_eq(th, d, [sub])


def _frames() -> int:
    f, n = sys._getframe(), 0
    while f is not None:
        f, n = f.f_back, n + 1
    return n


def deepest_call(monkeypatch, module, name, run) -> int:
    """The most Python frames below any call of ``module.name`` in ``run()``."""
    at = [0]
    real = getattr(module, name)

    def spy(*args, **kwargs):
        at[0] = max(at[0], _frames())
        return real(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(module, name, spy)
        run()
    return at[0]


def steps_of(monkeypatch, step_name, run) -> list:
    """The items the step function called ``step_name`` is given in
    ``run()``, through ``tt.walk``."""
    items = []
    real = tt.walk

    def spy(root, step, *args, **kwargs):
        if step.__name__ == step_name:
            inner = step

            def step(item):
                items.append(item)
                return inner(item)

        return real(root, step, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(tt, "walk", spy)
        run()
    return items


# ---------------------------------------------------------------------------
# No walk recurses


def test_presuppositions_of_a_two_thousand_step_chain(corpus_tt):
    vctx = VarCtx([(A, NAT)])
    d = chain(corpus_tt, vctx, A, LONG)
    bd = tt.presuppositions(corpus_tt, d, *evidence(corpus_tt, vctx))
    assert bd.conclusion == tt.BdryTT(EMPTY_METAS, vctx, plain(EqTmB(A, A, NAT)))
    tt.check_derivation(corpus_tt, bd)


def test_equal_substitution_into_a_two_thousand_step_chain(corpus_tt):
    d = chain(corpus_tt, VarCtx([(B, NAT), (A, NAT)]), A, LONG)
    d_s, d_t, d_eq = subst_b_for_a(corpus_tt, d)
    assert d_s is d_t and d_eq is None  # an equation is no object judgement
    assert d_s.conclusion.jdg == plain(EqTm(B, B, NAT))
    tt.check_derivation(corpus_tt, d_s)


def test_invert_a_two_thousand_step_conversion_chain(corpus_tt):
    vctx = VarCtx([(A, NAT)])
    ttd = TTDeriver(corpus_tt)
    a_d = tt.tt_var(corpus_tt, EMPTY_METAS, vctx, A)
    refl = tt.eqty_refl(corpus_tt, ttd.ty(EMPTY_METAS, vctx, NAT))
    d = a_d
    for _ in range(LONG):
        d = tt.conv_tm(corpus_tt, d, refl)
    assert tt.invert(corpus_tt, d) is a_d
    assert tt.invert(corpus_tt, a_d) is a_d


# ---------------------------------------------------------------------------
# One step per distinct (node, binders)


def test_equal_substitution_steps_each_node_of_the_tower_once(corpus_tt, monkeypatch):
    """d_{j+1} = eqtm_trans(d_j, d_j) over  b, a : nat: 2**K paths to the
    variable a, K + 2 distinct nodes."""
    th = corpus_tt
    d = tt.eqtm_refl(th, tt.tt_var(th, EMPTY_METAS, VarCtx([(B, NAT), (A, NAT)]), A))
    for _ in range(K):
        d = tt.eqtm_trans(th, d, d)
    start = time.perf_counter()
    items = steps_of(monkeypatch, "substituted_var", lambda: subst_b_for_a(th, d))
    assert time.perf_counter() - start < 0.5
    nodes = [id(x[0]) for x in items]
    assert len(nodes) == len(set(nodes)) == K + 2
    assert {len(x[1]) for x in items} == {0}


def test_equal_instantiation_steps_each_node_of_the_tower_at_most_once(corpus_tt, monkeypatch):
    """The tower over a term metavariable N, with N := a on both sides; the
    node concluding N's own generic judgement is answered by the entry."""
    th = corpus_tt
    n = MetaName("N")
    mctx, vctx = MetaCtx([(n, plain(IsTmB(NAT)))]), VarCtx([(A, NAT)])
    ttd = TTDeriver(th)
    d = tt.eqtm_refl(th, ttd.tm(mctx, vctx, MetaApp(n, ()), NAT))
    for _ in range(K):
        d = tt.eqtm_trans(th, d, d)
    a_d = tt.tt_var(th, EMPTY_METAS, vctx, A)
    entries = [tt.EqInstEntry(n, a_d, a_d, a_d, tt.eqtm_refl(th, a_d))]
    out = []
    start = time.perf_counter()
    items = steps_of(
        monkeypatch,
        "instantiated_meta",
        lambda: out.extend(tt.eq_instantiate(th, entries, d, EMPTY_METAS, vctx, ttd.mctx_wf(mctx))),
    )
    assert time.perf_counter() - start < 0.5
    nodes = [id(x[0]) for x in items]
    assert len(nodes) == len(set(nodes)) <= K + 2
    assert out[0].conclusion.jdg == plain(EqTm(A, A, NAT))
    tt.check_derivation(th, out[0])


# ---------------------------------------------------------------------------
# The same frame depth at the leaf for n and 2n


def test_presuppositions_reach_the_leaf_at_one_frame_depth(corpus_tt, monkeypatch):
    vctx = VarCtx([(A, NAT)])
    ev = evidence(corpus_tt, vctx)
    depth = [
        deepest_call(
            monkeypatch, tt, "vctx_entry_type",
            lambda n=n: tt.presuppositions(corpus_tt, chain(corpus_tt, vctx, A, n), *ev),
        )
        for n in (20, 40)
    ]
    assert depth[0] == depth[1] > 0


def test_equal_substitution_reaches_the_leaf_at_one_frame_depth(corpus_tt, monkeypatch):
    """The chain is over b, which the substitution keeps: its leaf is the
    variable case of the shared step, which builds the reflexivity."""
    vctx = VarCtx([(B, NAT), (A, NAT)])
    depth = [
        deepest_call(
            monkeypatch, tt, "eqtm_refl",
            lambda n=n: subst_b_for_a(corpus_tt, chain(corpus_tt, vctx, B, n)),
        )
        for n in (20, 40)
    ]
    assert depth[0] == depth[1] > 0


def test_tt_to_cf_reaches_the_leaf_at_one_frame_depth(corpus_cf, corpus_tt, monkeypatch):
    vctx = VarCtx([(A, NAT)])
    ev = evidence(corpus_tt, vctx)
    depth = [
        deepest_call(
            monkeypatch, cf, "cf_var",
            lambda n=n: tr.tt_to_cf(corpus_tt, corpus_cf, chain(corpus_tt, vctx, A, n), *ev),
        )
        for n in (20, 40)
    ]
    assert depth[0] == depth[1] > 0


# ---------------------------------------------------------------------------
# Kernel refusals


IN_CONTEXT = [
    (tt.eqty_refl, 1), (tt.eqty_sym, 1), (tt.eqty_trans, 2),
    (tt.eqtm_refl, 1), (tt.eqtm_sym, 1), (tt.eqtm_trans, 2),
    (tt.conv_tm, 2), (tt.conv_eqtm, 2),
    (tt.bdry_tm, 1), (tt.bdry_eqty, 2), (tt.bdry_eqtm, 3),
]


@pytest.mark.parametrize("ctor, count", IN_CONTEXT, ids=[f"{c.__name__}{n}" for c, n in IN_CONTEXT])
def test_a_wrong_premise_count_is_a_kernel_error(corpus_tt, ctor, count):
    vctx = VarCtx([(A, NAT)])
    x = tt.tt_var(corpus_tt, EMPTY_METAS, vctx, A)
    for n in (count - 1, count + 1):
        with pytest.raises(KernelError, match=f"expects {count} premises, got {n}"):
            ctor(corpus_tt, *[x] * n)


def test_instantiating_a_metavariable_congruence_takes_target_evidence(corpus_tt):
    """N := {x} M(x) in a full TT-Meta-Congr over N : {x:nat} □ : nat: the
    fill the deriver gives is an economic node of the term metavariable M,
    whose type equation needs evidence for the target metavariable
    context."""
    th = corpus_tt
    ttd = TTDeriver(th)
    n, m = MetaName("N"), MetaName("M")
    bdry = Abstracted((NAT,), IsTmB(NAT))
    src, target, vctx = MetaCtx([(n, bdry)]), MetaCtx([(m, bdry)]), VarCtx([(A, NAT)])
    a_d = tt.tt_var(th, src, vctx, A)
    fam = ttd.judgement(src, vctx, Abstracted((NAT,), IsTm(MetaApp(n, (BoundVar(0),)), NAT)))
    d = tt.eq_subst_n(th, fam, [a_d], [a_d], [tt.eqtm_refl(th, a_d)], mctx_deriv=ttd.mctx_wf(src))
    assert d.rule == "TT-Meta-Congr"
    inst = Instantiation([(n, Abstr(ExprArg(MetaApp(m, (BoundVar(0),)))))])
    fill = ttd.judgement(target, vctx, Abstracted((NAT,), IsTm(MetaApp(m, (BoundVar(0),)), NAT)))
    args = (th, inst, {n: fill}, d, target, vctx)
    with pytest.raises(MissingContextEvidence, match="M"):
        tt.admissible_instantiate(*args)
    with pytest.raises(MissingContextEvidence, match="does not match"):
        tt.admissible_instantiate(*args, mctx_deriv=ttd.mctx_wf(src))
    out = tt.admissible_instantiate(*args, mctx_deriv=ttd.mctx_wf(target))
    m_a = MetaApp(m, (A,))
    assert out.conclusion == tt.JdgTT(target, vctx, plain(EqTm(m_a, m_a, NAT)))
    tt.check_derivation(th, out)


def test_a_forged_root_over_a_two_thousand_step_term_is_refused_in_a_short_message(corpus_tt):
    """``check_derivation`` prints both statements with the printer, each cut
    as a premise refusal cuts its syntax, and where they first differ."""
    steps = ["let tn = rule(nat);", "var n : tn;", "let s0 = rule(succ, n);"]
    steps += [f"let s{i} = rule(succ, s{i - 1});" for i in range(1, LONG)]
    d = run_script(corpus_tt, parse_script("\n".join(steps + [f"return s{LONG - 1};"]) + "\n"), "tt")
    c = d.conclusion
    wrong = tt.JdgTT(c.mctx, c.vctx, plain(IsTm(c.jdg.body.term, SymbolApp("bool", ()))))
    with pytest.raises(BadNode) as refused:
        tt.check_derivation(corpus_tt, tt.Derivation(d.rule, d.data, d.premises, wrong))
    message = str(refused.value)
    assert message.startswith(f"node {d.rule} stores conclusion ; n^nat : nat |- succ(succ(")
    assert message.endswith("(first difference: bool against nat)")
    assert len(message) <= 3 * SHOWN_LENGTH
    with pytest.raises(BadNode, match="stores a str, not a statement"):
        tt.check_derivation(corpus_tt, tt.Derivation(d.rule, d.data, d.premises, "nat"))
