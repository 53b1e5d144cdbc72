"""The obligation derivers: the depth limit at its edge (cf -> tt
included) and the frames a level costs, bounded refusal messages, every
deriver's memo against the search without it, the finitary gate's memo
across prefixes (metavariable-context chains included), and the prefix
fast path of ``cf_engine._theory_extends``."""

import random
import sys
from collections import Counter

import pytest

from fintt import cf_engine as cf
from fintt import syntax
from fintt import translate as tr
from fintt import tt_engine as tt
from fintt.derive import (
    MAX_DEPTH,
    SHOWN_LENGTH,
    CFDeriver,
    DepthRefusal,
    Deriver,
    DeriveError,
    TTDeriver,
    check_finitary,
    match_expr,
    read_arguments,
)
from fintt.errors import AnnotationMismatch, KernelError, PremiseMismatch, UnknownRule
from fintt.instantiation import Instantiation
from fintt.judgements import (
    EMPTY_METAS,
    EMPTY_VARS,
    MetaCtx,
    VarCtx,
    boundary_of,
    plain,
    unfill,
)
from fintt.parser import elaborate, parse_script, parse_theory
from fintt.printer import print_expr, print_expr_cut
from fintt.script import run_script
from fintt.syntax import (
    DUMMY,
    Abstr,
    AsmArg,
    AssumptionSet,
    BoundVar,
    Convert,
    ExprArg,
    FreeVar,
    IsTm,
    IsTmB,
    IsTyB,
    Signature,
    SymbolApp,
    erase,
    erased_equal,
    fv,
    mv,
)
from fintt.theory import Theory, TheoryBuilder, check_raw, is_symbol_rule

from .gen import CertGen, ExprGen, generated_theory_texts
from .test_acceptance import CORPUS
from .test_lambda_theory import APPLY_SCRIPT as LAMBDA_APPLY_SCRIPT
from .test_lambda_theory import IDENTITY_SCRIPT as LAMBDA_IDENTITY_SCRIPT
from .test_lambda_theory import THEORY_TEXT as LAMBDA_TEXT
from .test_theory import BOOL, NAT, mltt_builder, pi_family_builder, succ_typo_builder


def succ(t):
    return SymbolApp("succ", (ExprArg(t),))


def chain(n, t):
    for _ in range(n):
        t = succ(t)
    return t


def gated(builder):
    th = builder.theory()
    check_finitary(th)
    return th


# ---------------------------------------------------------------------------
# MAX_DEPTH at its edge

# Each succ costs one level: its premise goes straight to the goal below.
# The cf variable's annotation type costs one more; the tt variable is read
# off the context.
CF_EDGE = MAX_DEPTH - 1
TT_EDGE = MAX_DEPTH
REFUSAL = "obligation recursion too deep"


def cf_succ(deriver, n):
    return deriver.tm(chain(n, FreeVar("a", NAT)), NAT)


def tt_succ(deriver, n):
    a = FreeVar("a")
    return deriver.tm(EMPTY_METAS, VarCtx([(a, NAT)]), chain(n, a), NAT)


@pytest.mark.parametrize(
    "make, derive, edge",
    [(CFDeriver, cf_succ, CF_EDGE), (TTDeriver, tt_succ, TT_EDGE)],
    ids=["cf", "tt"],
)
def test_depth_limit_edge(corpus_cf, corpus_tt, make, derive, edge):
    th = corpus_cf if make is CFDeriver else corpus_tt
    derive(make(th), edge)
    with pytest.raises(DepthRefusal) as err:
        derive(make(th), edge + 1)
    assert str(err.value) == REFUSAL
    with pytest.raises(DepthRefusal):
        derive(make(th), 1500)


@pytest.mark.parametrize(
    "make, derive, edge",
    [(CFDeriver, cf_succ, CF_EDGE), (TTDeriver, tt_succ, TT_EDGE)],
    ids=["cf", "tt"],
)
def test_memo_leaves_the_depth_limit_in_place(corpus_cf, corpus_tt, make, derive, edge):
    """Entries derived near the root are not taken deeper down, and a
    refusal is not remembered."""
    th = corpus_cf if make is CFDeriver else corpus_tt
    deriver = make(th)
    derive(deriver, 10)
    with pytest.raises(DepthRefusal):
        derive(deriver, edge + 1)
    derive(deriver, edge)
    with pytest.raises(DepthRefusal):
        derive(deriver, edge + 1)


def test_memo_keeps_the_deepest_derivation(corpus_tt, monkeypatch):
    """A goal derived again deeper down is remembered at the deeper depth,
    so a later request at any depth up to it is a hit."""
    deriver = TTDeriver(corpus_tt)
    a = FreeVar("a")
    vctx = VarCtx([(a, NAT)])
    deriver.tm(EMPTY_METAS, vctx, chain(5, a), NAT)
    deriver.tm(EMPTY_METAS, vctx, chain(8, a), NAT)
    applied = []
    real = TTDeriver._apply

    def spy(self, cx, name, *rest):
        applied.append(name)
        return real(self, cx, name, *rest)

    monkeypatch.setattr(TTDeriver, "_apply", spy)
    five = ExprArg(chain(5, a))
    deriver.ty(EMPTY_METAS, vctx, SymbolApp("Id", (ExprArg(NAT), five, five)))
    assert applied == ["Id", "nat"]


# ---------------------------------------------------------------------------
# Every deriver's memo against the search without it


def without_memo(monkeypatch, run):
    """``run()`` with every deriver remembering nothing: the search the memo
    must agree with."""
    with monkeypatch.context() as m:
        m.setattr(Deriver, "_remember", lambda self, key, depth, refused, out: out)
        return run()


def outcomes(goals) -> list:
    """What each goal gives, run in order: a certificate's payload or a
    derivation, or the refusal."""
    out = []
    for goal in goals:
        try:
            got = goal()
        except KernelError as exc:
            out.append((type(exc), str(exc)))
        else:
            out.append(getattr(got, "payload", got))
    return out


def certgen_goals(flavor, theory, certs) -> list:
    """The judgement and the boundary of each certificate, as goals for one
    deriver; tt derives their erasures in a suitable context, after the
    context's well-formedness."""
    goals = []
    if flavor == "cf":
        d = CFDeriver(theory)
        for c in certs:
            p = c.payload
            goals += [lambda p=p: d.judgement(p), lambda p=p: d.boundary(boundary_of(p))]
        return goals
    d = TTDeriver(theory)
    for c in certs:
        p = c.payload
        m, v = tr.suitable_context(
            sorted(mv(p), key=lambda n: n.name), sorted(fv(p), key=lambda n: n.name)
        )
        goals += [
            lambda m=m: d.mctx_wf(m),
            lambda m=m, v=v: d.vctx_wf(m, v),
            lambda m=m, v=v, p=p: d.judgement(m, v, erase(p)),
            lambda m=m, v=v, p=p: d.boundary(m, v, erase(boundary_of(p))),
        ]
    return goals


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("flavor", ["cf", "tt"])
def test_memo_agrees_with_the_search_without_it(corpus_cf, corpus_tt, monkeypatch, flavor, seed):
    g = CertGen(random.Random(seed), corpus_cf)
    certs = [g.judgement_cert(depth) for depth in (0, 1, 2) for _ in range(6)]
    theory = corpus_cf if flavor == "cf" else corpus_tt
    memoised = outcomes(certgen_goals(flavor, theory, certs))
    fresh = without_memo(monkeypatch, lambda: outcomes(certgen_goals(flavor, theory, certs)))
    assert memoised == fresh
    assert any(not isinstance(o, tuple) for o in memoised)


@pytest.mark.parametrize(
    "make, derive", [(CFDeriver, cf_succ), (TTDeriver, tt_succ)], ids=["cf", "tt"]
)
def test_memo_agrees_with_the_search_without_it_at_the_edge(
    corpus_cf, corpus_tt, monkeypatch, make, derive
):
    th = corpus_cf if make is CFDeriver else corpus_tt

    def goals():
        deriver = make(th)
        return [lambda n=n: derive(deriver, n) for n in (MAX_DEPTH - 3, MAX_DEPTH - 1, MAX_DEPTH)]

    memoised = outcomes(goals())
    assert memoised == without_memo(monkeypatch, lambda: outcomes(goals()))
    # The cf variable's annotation type costs one level more (CF_EDGE).
    assert [o == (DepthRefusal, REFUSAL) for o in memoised] == [False, False, make is CFDeriver]


# Two equality rules conclude P(succ^k(z)) == Q.  The first needs its
# premise one level deeper than the second, so near the depth limit only the
# second applies, and further up the first.
TWO_ROUTES_TEXT = """\
rule nat: yields type
rule z: yields : nat
rule succ: premise n : nat; yields : nat
rule P: premise n : nat; yields type
rule Q: yields type
rule c: premise n : nat; yields : P(n)
rule e1: premise n : nat; yields P(n) == Q
rule e2: premise m : nat; yields P(succ(m)) == Q
"""


@pytest.mark.parametrize("flavor", ["cf", "tt"])
def test_a_result_found_after_a_depth_refusal_is_not_remembered(monkeypatch, flavor):
    th = elaborate(parse_theory(TWO_ROUTES_TEXT), flavor)
    check_finitary(th)
    k = 20
    t = SymbolApp("c", (ExprArg(chain(k, SymbolApp("z", ()))),))
    q = SymbolApp("Q", ())
    cx = () if flavor == "cf" else (EMPTY_METAS, EMPTY_VARS)
    # c's premise reaches depth d + 1 + k, e1's d + 2 + k and e2's d + 1 + k.
    edge = MAX_DEPTH - k - 1

    def goals():
        d = (CFDeriver if flavor == "cf" else TTDeriver)(th)
        return [lambda depth=depth: d._tm(cx, t, q, depth) for depth in (edge, edge - 1)]

    memoised = outcomes(goals())
    assert memoised == without_memo(monkeypatch, lambda: outcomes(goals()))
    if flavor == "tt":
        assert [w.premises[1].data[2] for w in memoised] == ["e2", "e1"]


def count_applications(monkeypatch, run) -> int:
    applied = []
    real = Deriver._apply

    def spy(self, *args):
        applied.append(args[1])
        return real(self, *args)

    with monkeypatch.context() as m:
        m.setattr(Deriver, "_apply", spy)
        run()
    return len(applied)


def test_both_sides_of_a_reflexivity_are_derived_once(corpus_cf, monkeypatch):
    """On the depth-2 ``eq`` items of the cf_certify benchmark, reflexivity
    applies no more rules than deriving one of its sides, which are one
    goal; the search without the memo applies them at least twice."""
    g = CertGen(random.Random(2), corpus_cf)
    for item in [g.equation_cert(2) for _ in range(6)]:
        body = item.payload.body
        ty = getattr(body, "ty", None)

        def one_side():
            d = CFDeriver(corpus_cf)
            return d.ty(body.lhs) if ty is None else d.tm(body.lhs, ty)

        def reflexivity():
            d = CFDeriver(corpus_cf)
            return d.eqty(body.lhs, body.rhs) if ty is None else d.eqtm(body.lhs, body.rhs, ty)

        one = count_applications(monkeypatch, one_side)
        assert count_applications(monkeypatch, reflexivity) == one
        free = without_memo(monkeypatch, lambda: count_applications(monkeypatch, reflexivity))
        assert free >= 2 * one > 0


def _frames() -> int:
    f, n = sys._getframe(), 0
    while f is not None:
        f, n = f.f_back, n + 1
    return n


@pytest.mark.parametrize(
    "make, derive", [(CFDeriver, cf_succ), (TTDeriver, tt_succ)], ids=["cf", "tt"]
)
def test_each_level_costs_the_search_three_frames(corpus_cf, corpus_tt, monkeypatch, make, derive):
    th = corpus_cf if make is CFDeriver else corpus_tt
    at_var = []
    real = make._var

    def spy(self, cx, v, depth):
        at_var.append(_frames())
        return real(self, cx, v, depth)

    monkeypatch.setattr(make, "_var", spy)
    derive(make(th), 10)
    derive(make(th), 20)
    assert at_var[1] - at_var[0] <= 3 * 10


def count_step_work(monkeypatch, run) -> Counter:
    """The instantiations ``run`` constructs, the ``_annotation_entries``
    calls it makes and the assumption sets those calls build."""
    work: Counter = Counter()
    inside = []
    real_init, real_entries = Instantiation.__init__, cf._annotation_entries
    real_new = AssumptionSet.__new__

    def init(self, *args):
        work["instantiations"] += 1
        real_init(self, *args)

    def entries(*payloads):
        work["annotation_entries"] += 1
        inside.append(True)
        try:
            return real_entries(*payloads)
        finally:
            inside.pop()

    def new(cls, *args, **kwargs):
        work["assumption_sets"] += bool(inside)
        return real_new(cls, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(Instantiation, "__init__", init)
        m.setattr(cf, "_annotation_entries", entries)
        m.setattr(AssumptionSet, "__new__", new)
        run()
    return work


@pytest.mark.parametrize(
    "make, derive", [(CFDeriver, cf_succ), (TTDeriver, tt_succ)], ids=["cf", "tt"]
)
def test_each_level_builds_one_instantiation(corpus_cf, corpus_tt, monkeypatch, make, derive):
    """A level of succ^60 constructs one instantiation, the one its rule
    application is checked with, and the cf engine reads the annotations
    its conclusion demands without building an assumption set.  A
    certificate that lacks an annotation certificate is still refused."""
    th = corpus_cf if make is CFDeriver else corpus_tt
    short, long = (count_step_work(monkeypatch, lambda n=n: derive(make(th), n)) for n in (30, 60))
    assert long["instantiations"] - short["instantiations"] == 30
    assert long["instantiations"] <= 60 + 2
    assert long["assumption_sets"] == 0
    if make is CFDeriver:
        assert long["annotation_entries"] >= 60
        a = FreeVar("a", NAT)
        # Only the engine can make a certificate; its private maker forges
        # one whose annotation cache lacks the certificate of a's type.
        forged = cf._cert(th, plain(IsTm(a, NAT)), {})
        with pytest.raises(AnnotationMismatch):
            cf.cf_apply_rule(th, "succ", [forged])
        cf.cf_apply_rule(th, "succ", [cf.cf_var(th, a, CFDeriver(th).ty(NAT))])


def test_a_rule_application_acts_on_its_premise_boundaries_with_one_instantiation(corpus_cf, monkeypatch):
    """Re-certifying the boundaries of 100 depth-2 CertGen certificates, each
    rule application builds the instantiation ``cf_apply_rule`` checks and,
    when a premise boundary of its rule mentions a metavariable, one more to
    act on all such boundaries (not one per boundary: 303 for 220
    applications, where this counts 269)."""
    g = CertGen(random.Random(3), corpus_cf)
    bdrys = [cf.presuppositions_cf(corpus_cf, g.judgement_cert(2)).payload for _ in range(100)]
    applied: Counter = Counter()
    real = Deriver._apply

    def spy(self, cx, name, rule, sol, depth):
        applied["rules"] += 1
        applied["acting"] += any(syntax.mv(b) for _, b in rule.premises)
        return real(self, cx, name, rule, sol, depth)

    monkeypatch.setattr(Deriver, "_apply", spy)
    work = count_step_work(monkeypatch, lambda: [CFDeriver(corpus_cf).boundary(b) for b in bdrys])
    assert applied["rules"] == 220
    assert work["instantiations"] == applied["rules"] + applied["acting"] < 303


def test_each_level_costs_tt_to_cf_three_frames(corpus_cf, corpus_tt, monkeypatch):
    """The variable of succ^n(a) is translated n levels below the root."""
    at_var = []
    real = cf.cf_var

    def spy(*args, **kwargs):
        at_var.append(_frames())
        return real(*args, **kwargs)

    monkeypatch.setattr(cf, "cf_var", spy)
    deepest = []
    for n in (10, 20):
        at_var.clear()
        ttd = TTDeriver(corpus_tt)
        d = tt_succ(ttd, n)
        vctx_d = ttd.vctx_wf(EMPTY_METAS, VarCtx([(FreeVar("a"), NAT)]))
        tr.tt_to_cf(corpus_tt, corpus_cf, d, tt.mctx_empty(corpus_tt), vctx_d)
        deepest.append(max(at_var))
    assert deepest[1] - deepest[0] <= 3 * 10


# cf -> tt derives the certified judgement: the judgement costs one level
# and each succ one more; the variable is read off the suitable context.
CF_TO_TT_EDGE = MAX_DEPTH - 1


def test_cf_to_tt_depth_edge(corpus_cf, corpus_tt):
    cert = cf_succ(CFDeriver(corpus_cf), CF_TO_TT_EDGE)
    back = tr.round_trip_cf(corpus_cf, corpus_tt, cert)
    assert erased_equal(back.payload, cert.payload)
    deeper = cf.cf_apply_rule(corpus_cf, "succ", [cert])
    with pytest.raises(KernelError):
        tr.cf_judgement_to_tt(corpus_cf, corpus_tt, deeper)
    for _ in range(1500 - CF_TO_TT_EDGE - 1):
        deeper = cf.cf_apply_rule(corpus_cf, "succ", [deeper])
    with pytest.raises(KernelError):
        tr.cf_judgement_to_tt(corpus_cf, corpus_tt, deeper)


def test_the_tt_search_refuses_a_conversion_goal(corpus_tt):
    """A conversion term exists only in the context-free presentation."""
    a = FreeVar("a")
    with pytest.raises(DeriveError, match=r"cannot derive a typing for convert\(a, \{\}\)"):
        TTDeriver(corpus_tt).tm(EMPTY_METAS, VarCtx([(a, NAT)]), Convert(a, AssumptionSet()), NAT)


def test_refusal_messages_are_printed_and_bounded(corpus_cf, corpus_tt):
    deep = chain(150, FreeVar("a", NAT))
    with pytest.raises(DeriveError) as err:
        CFDeriver(corpus_cf).ty(deep)
    msg = str(err.value)
    assert msg.startswith("no specific rule concludes succ(succ(")
    assert len(msg) <= len("no specific rule concludes ") + SHOWN_LENGTH
    with pytest.raises(DeriveError) as err:
        CFDeriver(corpus_cf).eqty(SymbolApp("Id", (ExprArg(NAT), ExprArg(deep), ExprArg(deep))), BOOL)
    msg = str(err.value)
    assert msg.startswith("cannot derive Id(nat, succ(")
    assert msg.endswith(" == bool")
    assert len(msg) <= len("cannot derive  == bool") + SHOWN_LENGTH
    with pytest.raises(DeriveError) as err:
        TTDeriver(corpus_tt).ty(EMPTY_METAS, EMPTY_VARS, chain(150, FreeVar("a")))
    assert len(str(err.value)) <= len("no specific rule concludes ") + SHOWN_LENGTH


def test_refusal_of_a_very_deep_subject_is_printed(corpus_cf):
    """The printer recurses, but only as deep as the cut can show."""
    with pytest.raises(DeriveError) as err:
        CFDeriver(corpus_cf).ty(chain(3000, FreeVar("a", NAT)))
    msg = str(err.value)
    assert msg.startswith("no specific rule concludes succ(succ(") and msg.endswith("...")
    assert len(msg) == len("no specific rule concludes ") + SHOWN_LENGTH


@pytest.mark.parametrize("seed", range(40))
def test_print_expr_cut_is_the_full_print_cut(seed):
    rng = random.Random(seed)
    g = ExprGen(rng, cf=seed % 2 == 0)
    e = g.tm(rng.randrange(2, 7)) if seed % 3 else g.ty(rng.randrange(2, 7))
    full = print_expr(e)
    for limit in (8, 12, 20, 40, 80):
        want = full if len(full) <= limit else full[: limit - 3] + "..."
        assert print_expr_cut(e, limit) == want


# ---------------------------------------------------------------------------
# _theory_extends: prefixes of one theory, copies, flavours


def bool_cert(theory):
    return CFDeriver(theory).ty(BOOL)


def test_prefix_certificates_merge_into_longer_prefixes_only():
    th = gated(mltt_builder("cf"))
    n = len(th.rules)
    for i in range(1, n + 1):
        c = bool_cert(th.prefix(i))
        for j in range(n + 1):
            target = th.prefix(j)
            if i <= j:
                assert cf.cf_bdry_tm(target, c).theory is target
            else:
                with pytest.raises(PremiseMismatch):
                    cf.cf_bdry_tm(target, c)
        assert cf.cf_bdry_tm(th, c).theory is th


def test_a_prefix_is_the_theory_of_its_rules():
    """A prefix sets the fields a theory made from its rules sets, and finds
    exactly that theory's rules by name."""
    th = gated(mltt_builder("cf"))
    names = [r.name for r in th.rules] + ["no such rule"]
    for n in (0, 1, len(th.rules) // 2, len(th.rules), len(th.rules) + 3):
        prefix, fresh = th.prefix(n), Theory(th.signature, th.rules[:n], th.flavor)
        assert vars(prefix).keys() == vars(fresh).keys()
        assert prefix.rules == fresh.rules and prefix.finitary_witnesses is None
        assert prefix.origin == (th.origin[0], len(fresh.rules))
        assert prefix.prefix(1).origin[0] is th.origin[0]
        for name in names:
            assert (name in prefix) == (name in fresh)
            if name in fresh:
                assert prefix.rule(name) is fresh.rule(name)
            else:
                with pytest.raises(UnknownRule):
                    prefix.rule(name)


def test_separately_elaborated_copies_take_the_full_comparison():
    th, copy = gated(mltt_builder("cf")), gated(mltt_builder("cf"))
    n = len(th.rules)
    assert th.origin[0] is not copy.origin[0]
    for i in range(1, n + 1):
        c = bool_cert(th.prefix(i))
        cf.cf_bdry_tm(copy, c)
        for j in range(n + 1):
            if i <= j:
                cf.cf_bdry_tm(copy.prefix(j), c)
            else:
                with pytest.raises(PremiseMismatch):
                    cf.cf_bdry_tm(copy.prefix(j), c)


def test_other_flavour_and_other_signature_are_refused():
    th_cf = gated(mltt_builder("cf"))
    th_tt = mltt_builder("tt").theory()
    with pytest.raises(PremiseMismatch):
        cf.cf_bdry_tm(th_tt, bool_cert(th_cf))
    with pytest.raises(PremiseMismatch):
        cf.cf_bdry_tm(th_tt.prefix(len(th_tt.rules)), bool_cert(th_cf.prefix(1)))
    # the same rule tuple over a smaller signature is another theory
    bare = Theory(Signature(), th_cf.rules, "cf")
    with pytest.raises(PremiseMismatch):
        cf.cf_bdry_tm(bare, bool_cert(th_cf.prefix(1)))


# ---------------------------------------------------------------------------
# The memoised gate against fresh derivers per rule


def fresh_gate(theory):
    """The finitary gate with a fresh deriver over ``theory.prefix(i)`` for
    each rule: run ``without_memo``, the reference the shared memo must agree
    with."""
    from fintt.errors import ConclusionNotDerivableOverPrefix

    for r in theory.rules:
        check_raw(theory.signature, r.rule, theory.flavor)
    witnesses = {}
    for i, r in enumerate(theory.rules):
        prefix = theory.prefix(i)
        bdry_thesis, _ = unfill(plain(r.rule.conclusion))
        try:
            if theory.flavor == "tt":
                d = TTDeriver(prefix)
                mctx = MetaCtx(list(r.rule.premises))
                witnesses[r.name] = {
                    "mctx": d.mctx_wf(mctx),
                    "boundary": d.boundary(mctx, EMPTY_VARS, bdry_thesis),
                }
            else:
                d = CFDeriver(prefix)
                witnesses[r.name] = {
                    "premise_boundaries": [d.boundary(b) for _, b in r.rule.premises],
                    "boundary": d.boundary(bdry_thesis),
                }
        except KernelError as exc:
            raise ConclusionNotDerivableOverPrefix(r.name, str(exc)) from exc
    theory.finitary_witnesses = witnesses


def outcome(gate, theory):
    """The witnesses' payloads (cf) or derivations (tt), or the refusal."""
    try:
        gate(theory)
    except KernelError as exc:
        return type(exc), getattr(exc, "rule_name", None), getattr(exc, "obligation", str(exc))
    out = {}
    for name, w in theory.finitary_witnesses.items():
        if theory.flavor == "tt":
            out[name] = (w["mctx"], w["boundary"])
        else:
            out[name] = ([c.payload for c in w["premise_boundaries"]], w["boundary"].payload)
    return out


def lambda_theory(flavor):
    return elaborate(parse_theory(LAMBDA_TEXT), flavor)


CASES = {
    "mltt": lambda fl: mltt_builder(fl).theory(),
    "lambda": lambda_theory,
    "pi_short": lambda fl: pi_family_builder(fl, "short").theory(),
    "succ_typo": lambda fl: succ_typo_builder(fl, False).theory(),
    "succ_typo_fixed": lambda fl: succ_typo_builder(fl, True).theory(),
}


@pytest.mark.parametrize("flavor", ["cf", "tt"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_memoised_gate_agrees_with_fresh_derivers(monkeypatch, case, flavor):
    memoised = outcome(check_finitary, CASES[case](flavor))
    fresh = without_memo(monkeypatch, lambda: outcome(fresh_gate, CASES[case](flavor)))
    assert memoised == fresh
    if case in ("mltt", "lambda", "succ_typo_fixed"):
        assert isinstance(memoised, dict) and len(memoised) == len(CASES[case](flavor).rules)
    else:
        assert isinstance(memoised, tuple)


def shared_premise_theory(flavor, k):
    """T0, then k operations f_i(n) : T0 that all have the premise n : T0."""
    b = TheoryBuilder(flavor)
    b.declare_symbol_rule("T0", [], IsTyB())
    t0 = SymbolApp("T0", ())
    for i in range(k):
        b.declare_symbol_rule(f"f{i}", [("n", plain(IsTmB(t0)))], IsTmB(t0))
    return b.theory()


def count_t0_applications(monkeypatch, cls, gate, theory):
    calls = []
    original = cls._apply

    def counting(self, *args):
        name = args[-4]  # (..., name, rule, sol, depth)
        calls.append(name)
        return original(self, *args)

    monkeypatch.setattr(cls, "_apply", counting)
    gate(theory)
    monkeypatch.setattr(cls, "_apply", original)
    return calls.count("T0")


@pytest.mark.parametrize("flavor", ["cf", "tt"])
def test_shared_obligation_is_derived_once_per_pass(monkeypatch, flavor):
    cls = CFDeriver if flavor == "cf" else TTDeriver
    k = 6
    memoised = count_t0_applications(monkeypatch, cls, check_finitary, shared_premise_theory(flavor, k))
    fresh = count_t0_applications(monkeypatch, cls, fresh_gate, shared_premise_theory(flavor, k))
    # cf: one goal, T0 type.  tt: T0 type in the empty metavariable context
    # (the premise boundary) and in n : T0 (the conclusion boundary).
    assert memoised == (1 if flavor == "cf" else 2)
    assert fresh >= k
    assert count_t0_applications(monkeypatch, cls, check_finitary, shared_premise_theory(flavor, 1)) == memoised


def count_mctx_nodes(monkeypatch, theory):
    """The MCtx-Empty and MCtx-Extend nodes the finitary gate builds."""
    rules = []
    original = tt.node

    def counting(th, rule, *args):
        rules.append(rule)
        return original(th, rule, *args)

    monkeypatch.setattr(tt, "node", counting)
    check_finitary(theory)
    monkeypatch.setattr(tt, "node", original)
    return sum(rule in ("MCtx-Empty", "MCtx-Extend") for rule in rules)


def test_gate_builds_each_metavariable_context_chain_once(monkeypatch):
    """Rules with the same premises share one chain: k operations on n : T0
    cost the chain of (), then of (n : T0), whatever k is."""
    one, six = (count_mctx_nodes(monkeypatch, shared_premise_theory("tt", k)) for k in (1, 6))
    assert one == six == 2


# ---------------------------------------------------------------------------
# The fixed costs of the gate


def shared_big_premise_theory(flavor, k, height=30):
    """T0, a type former F, then k operations g_i(n) : T0 that all have the
    premise n : F^height(T0), a type of height + 1 symbol applications."""
    b = TheoryBuilder(flavor)
    b.declare_symbol_rule("T0", [], IsTyB())
    b.declare_symbol_rule("F", [("A", plain(IsTyB()))], IsTyB())
    big = t0 = SymbolApp("T0", ())
    for _ in range(height):
        big = SymbolApp("F", (ExprArg(big),))
    for i in range(k):
        b.declare_symbol_rule(f"g{i}", [("n", plain(IsTmB(big)))], IsTmB(t0))
    return b.theory()


def count_arity_visits(monkeypatch, theory):
    """The nodes ``arity_check`` walks in the raw check of every rule of
    ``theory``: each is one call of its kind's children in ``_SHAPES``."""
    visits = []
    for cls, (children, binders, rebuild) in list(syntax._SHAPES.items()):

        def counting(x, children=children):
            visits.append(x)
            return children(x)

        monkeypatch.setitem(syntax._SHAPES, cls, (counting, binders, rebuild))
    for r in theory.rules:
        check_raw(theory.signature, r.rule, theory.flavor)
    monkeypatch.undo()
    return len(visits)


@pytest.mark.parametrize("flavor", ["cf", "tt"])
def test_the_raw_check_walks_a_shared_premise_once_per_theory(monkeypatch, flavor):
    """58 more rules that share a premise of 31 symbol applications cost at
    most 6 more visits each (their new conclusions), not the premise again."""
    two, sixty = (
        count_arity_visits(monkeypatch, shared_big_premise_theory(flavor, k)) for k in (2, 60)
    )
    assert two > 31
    assert sixty - two <= 58 * 6


@pytest.mark.parametrize("flavor", ["cf", "tt"])
def test_the_gate_builds_no_theory_per_prefix(monkeypatch, flavor):
    """``check_finitary`` makes its prefix theories without running
    ``Theory.__init__``, whatever the number of rules."""
    for k in (2, 60):
        theory = shared_big_premise_theory(flavor, k, height=3)
        calls = []
        original = Theory.__init__

        def counting(self, *args, **kwargs):
            calls.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Theory, "__init__", counting)
        check_finitary(theory)
        monkeypatch.undo()
        assert len(calls) <= 1
        assert len(theory.finitary_witnesses) == k + 2


# ---------------------------------------------------------------------------
# Reading a symbol rule's instantiation off the arguments

# A symbol with a type-equation premise and one with an abstracted term
# equation: their cf heads hold an assumption set where the others hold an
# expression.
EQUATION_PREMISES_TEXT = """\
rule nat: yields type
rule coe: premise A : type; premise B : type; premise e : A == B; premise t : A; yields : B
rule pick: premise A : type; premise s : A; premise t : A; premise e : {x : A} s == t : A; yields : A
"""


def symbol_apps(x) -> list:
    """Every symbol application in ``x``, annotations and assumption sets
    included, once each."""
    out, todo, seen = [], [x], set()
    while todo:
        y = todo.pop()
        if y is None or y in seen or type(y) not in syntax._CHILDREN:
            continue
        seen.add(y)
        if type(y) is SymbolApp:
            out.append(y)
        todo += syntax._CHILDREN[type(y)](y)
    return out


def _binders(arg):
    k = 0
    while type(arg) is Abstr:
        arg, k = arg.body, k + 1
    return k, arg


def _wrap(arg, k):
    for _ in range(k):
        arg = Abstr(arg)
    return arg


def mutants(e: SymbolApp, symbols: list) -> dict:
    """``e`` broken in each way the argument reader must refuse, by kind."""
    out: dict = {"symbol": [], "arity": [], "binders": [], "escape": [], "equality": []}
    out["symbol"] += [SymbolApp(s, e.args) for s in symbols if s != e.symbol][:2]
    out["arity"].append(SymbolApp(e.symbol, e.args + (ExprArg(SymbolApp(e.symbol, ())),)))
    if e.args:
        out["arity"].append(SymbolApp(e.symbol, e.args[:-1]))
    for i, arg in enumerate(e.args):

        def put(new, i=i):
            return SymbolApp(e.symbol, e.args[:i] + (new,) + e.args[i + 1:])

        k, core = _binders(arg)
        out["binders"].append(put(Abstr(arg)))
        if k:
            out["binders"].append(put(arg.body))
        if type(core) is ExprArg:
            out["escape"].append(put(_wrap(ExprArg(BoundVar(k)), k)))
            out["escape"].append(put(_wrap(ExprArg(SymbolApp("succ", (ExprArg(BoundVar(k + 1)),))), k)))
        else:
            out["equality"] += [put(_wrap(AsmArg(AssumptionSet()), k)), put(_wrap(DUMMY, k))]
    return out


def oracle_theories():
    """(name, cf theory, tt theory) for the corpora, the equation-premise
    theory and the generated theories."""
    texts = [("mltt", (CORPUS / "mltt.ftt").read_text()), ("lambda", LAMBDA_TEXT)]
    texts.append(("equations", EQUATION_PREMISES_TEXT))
    texts += [(f"generated{i}", t) for i, t in enumerate(generated_theory_texts(sizes=(10, 40)))]
    for name, text in texts:
        decl = parse_theory(text)
        yield name, elaborate(decl, "cf"), elaborate(decl, "tt")


def oracle_roots(th_cf) -> list:
    """cf payloads to take subjects from: CertGen certificates over the
    corpus theory, the function scripts' over the lambda theory."""
    symbols = set(th_cf.signature)
    if "lam" in symbols:
        return [
            run_script(th_cf, parse_script(script), "cf").payload
            for script in (LAMBDA_IDENTITY_SCRIPT, LAMBDA_APPLY_SCRIPT)
        ]
    if {"nat", "succ", "Pi", "Id"} <= symbols:
        g = CertGen(random.Random(15), th_cf)
        return [g.judgement_cert(d).payload for d in (0, 1, 2) for _ in range(12)]
    return []


def oracle_subjects(theory, payloads) -> list:
    """The symbol applications of the theory's rules and of ``payloads``."""
    roots = list(payloads)
    for r in theory.rules:
        roots += [b for _, b in r.rule.premises] + [r.rule.conclusion]
    subjects = [e for x in roots for e in symbol_apps(x)]
    return list(dict.fromkeys(subjects))


def reader_against_match_expr(theory, payloads, tally: Counter) -> None:
    """Runs ``read_arguments`` and ``match_expr`` on every pair of a symbol
    rule of ``theory`` and a subject, and asserts that they agree."""
    subjects = oracle_subjects(theory, payloads)
    symbols = sorted(theory.signature)
    for e in list(subjects):
        for kind, broken in mutants(e, symbols).items():
            tally[kind] += len(broken)
            subjects += broken
    for r in theory.rules:
        parts = r.rule.parts
        if parts.generic is None:
            continue
        for e in subjects:
            sol: dict = {}
            want = sol if match_expr(parts.head.expr, e, r.rule.meta_arities(), sol) else None
            assert read_arguments(parts.head.expr, parts.generic, e) == want, (r.name, e)
            tally["refused" if want is None else "matched"] += 1


def test_the_argument_reader_is_match_expr_on_symbol_rules():
    """On every pair of a symbol rule and a subject, ``read_arguments``
    gives exactly ``match_expr``'s solution, and None where it fails.  The
    subjects are the symbol applications of the rules and of certificates,
    and each of them broken in every way ``mutants`` knows."""
    tally: Counter = Counter()
    for _, th_cf, th_tt in oracle_theories():
        payloads = oracle_roots(th_cf)
        reader_against_match_expr(th_cf, payloads, tally)
        reader_against_match_expr(th_tt, [erase(p) for p in payloads], tally)
    assert tally["matched"] > 1000 and tally["refused"] > tally["matched"]
    # Equality-class arguments: two per premise of coe and pick, per flavour.
    assert tally.pop("equality") == 8 and min(tally.values()) > 1000, tally


def test_every_symbol_rule_is_read_off_its_arguments():
    """Every rule the standard gate takes for a symbol rule has a reader."""
    for name, *theories in oracle_theories():
        for theory in theories:
            for r in theory.rules:
                if is_symbol_rule(theory.signature, r.rule, theory.flavor) is not None:
                    assert r.rule.parts.generic is not None, (name, r.name)
