"""Shared derivation work: the node table ``tt_engine.node`` keeps, its trust
conditions, walks that visit each distinct node once, and one cf -> tt
translation per distinct certificate in transported congruence."""

import gc
import time
import weakref

import pytest

from fintt import cf_engine as cf
from fintt import tt_engine as tt
from fintt import theory as theory_module
from fintt import translate as tr
from fintt.derive import CFDeriver, TTDeriver
from fintt.errors import BadNode, UnknownRule
from fintt.instantiation import Instantiation
from fintt.judgements import EMPTY_METAS, EMPTY_VARS, VarCtx, plain
from fintt.parser import elaborate, parse_script, parse_theory
from fintt.script import run_script
from fintt.syntax import ExprArg, FreeVar, IsTy, SymbolApp
from fintt.theory import INSTANCE_CAP, check_finitary, check_standard

from .test_lambda_theory import THEORY_TEXT as LAMBDA_THEORY
from .test_surface import CORPUS

NAT = SymbolApp("nat", ())
BOOL = SymbolApp("bool", ())
K = 30  # the tower's height: 2**30 paths to its leaf, K + 2 distinct nodes


def tower(th, k: int = K):
    """d_{j+1} = eqtm_trans(d_j, d_j) over  a : nat, from reflexivity on a."""
    a = FreeVar("a")
    vctx = VarCtx([(a, NAT)])
    d = tt.eqtm_refl(th, TTDeriver(th).tm(EMPTY_METAS, vctx, a, NAT))
    for _ in range(k):
        d = tt.eqtm_trans(th, d, d)
    return d, vctx


def distinct_nodes(d) -> int:
    seen, stack = set(), [d]
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen.add(id(n))
            stack.extend(n.premises)
    return len(seen)


def gated(text: str, flavor: str):
    th = elaborate(parse_theory(text), flavor)
    check_finitary(th)
    check_standard(th)
    return th


@pytest.fixture(scope="module")
def mltt():
    """The corpus theory in both flavours, elaborated from one declaration."""
    decl = parse_theory((CORPUS / "mltt.ftt").read_text())
    out = {flavor: elaborate(decl, flavor) for flavor in ("cf", "tt")}
    for th in out.values():
        check_finitary(th)
        check_standard(th)
    return out


def count_infer(monkeypatch, run) -> int:
    calls = [0]
    real = tt._infer

    def spy(*args):
        calls[0] += 1
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(tt, "_infer", spy)
        run()
    return calls[0]


# ---------------------------------------------------------------------------
# Hash and equality


def test_hash_and_equality_of_the_tower_visit_each_node_once(corpus_tt, mltt):
    d, _ = tower(corpus_tt)
    twin, _ = tower(mltt["tt"])  # another theory: no node is shared
    assert twin is not d
    start = time.perf_counter()
    assert hash(d) == hash(twin)
    assert d == twin
    assert d != tower(corpus_tt, K - 1)[0]
    assert time.perf_counter() - start < 0.5


def test_a_two_thousand_step_script_hashes_and_compares(corpus_tt, mltt):
    """Built twice over one theory the derivation is one object; built over
    another theory it is another object, equal, with the same hash; none of
    this, nor checking, weakening or renaming it, recurses."""
    steps = ["let tn = rule(nat);", "var n : tn;", "let s0 = rule(succ, n);"]
    steps += [f"let s{i} = rule(succ, s{i - 1});" for i in range(1, 2000)]
    script = parse_script("\n".join(steps + ["return s1999;"]) + "\n")
    d = run_script(corpus_tt, script, "tt")
    assert run_script(corpus_tt, script, "tt") is d
    other = run_script(mltt["tt"], script, "tt")
    assert other is not d
    assert other == d and hash(other) == hash(d)
    tt.check_derivation(corpus_tt, other)
    z = FreeVar("z")
    weakened = tt.weaken_vars(corpus_tt, d, [(z, NAT)])
    assert [v.name for v, _ in weakened.conclusion.vctx] == ["n", "z"]
    renamed = tt.rename_derivation(corpus_tt, weakened, {z: FreeVar("y")})
    assert [v.name for v, _ in renamed.conclusion.vctx] == ["n", "y"]


# ---------------------------------------------------------------------------
# The node table's trust conditions


def test_a_forged_derivation_is_never_returned_by_node(corpus_tt):
    wrong = tt.JdgTT(EMPTY_METAS, EMPTY_VARS, plain(IsTy(BOOL)))
    forged = tt.Derivation("TT-Specific-Eco", (EMPTY_METAS, EMPTY_VARS, "nat", Instantiation([])), (), wrong)
    built = tt.specific(corpus_tt, EMPTY_METAS, EMPTY_VARS, "nat", Instantiation([]), [])
    assert built is not forged and built.conclusion.jdg == plain(IsTy(NAT))
    # A forged node built after the real one does not replace it either.
    again = tt.Derivation(built.rule, built.data, built.premises, wrong)
    assert tt.node(corpus_tt, built.rule, built.data, built.premises) is built
    assert again is not built and again != built


def test_a_node_is_not_handed_to_a_prefix_without_its_rule(corpus_tt, mltt):
    k = next(i for i, r in enumerate(corpus_tt.rules) if r.name == "nat")
    vctx = VarCtx([(FreeVar("only_here"), BOOL)])  # no other test builds these nodes

    def nat(th):
        return tt.specific(th, EMPTY_METAS, vctx, "nat", Instantiation([]), [])

    full = nat(corpus_tt)
    assert nat(corpus_tt) is full
    with pytest.raises(UnknownRule):
        nat(corpus_tt.prefix(k))
    # Inferred anew over a shorter prefix that has the rule, the node then
    # serves that prefix and every longer one; another theory gets its own.
    narrow = nat(corpus_tt.prefix(k + 1))
    assert narrow is not full and narrow == full
    assert nat(corpus_tt) is narrow and nat(corpus_tt.prefix(k + 2)) is narrow
    other = nat(mltt["tt"])
    assert other is not narrow and other == narrow


def test_a_hit_skips_inference(corpus_tt, monkeypatch):
    d, _ = tower(corpus_tt, 3)
    assert count_infer(monkeypatch, lambda: tower(corpus_tt, 3)) == 0
    assert tower(corpus_tt, 3)[0] is d


# ---------------------------------------------------------------------------
# Walks visit each distinct node once


def test_walks_over_the_tower_infer_each_distinct_node_at_most_once(corpus_tt, corpus_cf, monkeypatch):
    d, vctx = tower(corpus_tt)
    n = distinct_nodes(d)
    assert n == K + 2
    mctx_d, vctx_d = tt.mctx_empty(corpus_tt), TTDeriver(corpus_tt).vctx_wf(EMPTY_METAS, vctx)
    walks = {
        "check_derivation": lambda: tt.check_derivation(corpus_tt, d),
        "weaken_vars": lambda: tt.weaken_vars(corpus_tt, d, [(FreeVar("z"), NAT)]),
        "presuppositions": lambda: tt.presuppositions(corpus_tt, d, mctx_d, vctx_d),
        "tt_to_cf": lambda: tr.tt_to_cf(corpus_tt, corpus_cf, d, mctx_d, vctx_d),
    }
    for name, walk in walks.items():
        start = time.perf_counter()
        calls = count_infer(monkeypatch, walk)
        assert time.perf_counter() - start < 0.5, name
        assert calls == n if name == "check_derivation" else calls <= n, (name, calls, n)


def test_check_derivation_still_compares_every_stored_conclusion(corpus_tt):
    d, _ = tower(corpus_tt, 4)
    inner = d.premises[0]
    wrong = tt.JdgTT(EMPTY_METAS, EMPTY_VARS, plain(IsTy(BOOL)))
    bad = tt.Derivation(inner.rule, inner.data, inner.premises, wrong)
    with pytest.raises(BadNode, match="stores conclusion"):
        tt.check_derivation(corpus_tt, tt.Derivation(d.rule, d.data, (inner, bad), d.conclusion))


# ---------------------------------------------------------------------------
# cf -> tt once per distinct certificate


def test_transported_congruence_translates_each_distinct_payload_once(monkeypatch):
    """cf -> tt is asked for each premise, once, and for nothing else: the
    fills of a premise equation are read off its own derivation.  Each
    premise is replayed from its record, with no search."""
    th_cf, th_tt = gated(LAMBDA_THEORY, "cf"), gated(LAMBDA_THEORY, "tt")
    ty_bool = CFDeriver(th_cf).ty(BOOL)
    b = FreeVar("b", BOOL)
    vb = cf.cf_var(th_cf, b, ty_bool)
    eqs = [
        cf.cf_eqty_refl(th_cf, ty_bool, ty_bool),
        cf.cf_abstract_fwd(th_cf, ty_bool, cf.cf_eqty_refl(th_cf, ty_bool, ty_bool), FreeVar("u", BOOL)),
        cf.cf_abstract_fwd(th_cf, ty_bool, cf.cf_eqtm_refl(th_cf, vb, vb), FreeVar("w", BOOL)),
    ]
    asked = []
    real_judgement = tr.CfToTT.judgement

    def judgement(self, cert, ctx=None):
        asked.append((cert.payload, ctx))
        return real_judgement(self, cert, ctx)

    def search(self, cert, cx):
        raise AssertionError(f"cf->tt searched for {cert!r}")

    monkeypatch.setattr(tr.CfToTT, "judgement", judgement)
    monkeypatch.setattr(tr.CfToTT, "_search", search)
    out = tr.transported_congruence(th_cf, th_tt, "lam", eqs)
    assert out.payload.body.lhs.symbol == "lam"
    assert [payload for payload, _ in asked] == [e.payload for e in eqs]


# ---------------------------------------------------------------------------
# A node's rule instance is kept on its instantiation


@pytest.mark.parametrize("how", ["search", "script"])
def test_check_derivation_computes_no_rule_instance_of_a_fresh_derivation(monkeypatch, how):
    """succ^130(a) found by the search and succ^600(n) run as a script, over a
    fresh theory, hold more specific-rule nodes than the shared instance
    cache does: re-inferring each node reuses the instance its inference
    kept, whatever the cache evicted."""
    th = gated((CORPUS / "mltt.ftt").read_text(), "tt")
    computed = [0]
    real = tt.rule_instance_premises

    def counted(*args):
        computed[0] += 1
        return real(*args)

    monkeypatch.setattr(tt, "rule_instance_premises", counted)
    if how == "search":
        a = t = FreeVar("a")
        for _ in range(130):
            t = SymbolApp("succ", (ExprArg(t),))
        d = TTDeriver(th).tm(EMPTY_METAS, VarCtx([(a, NAT)]), t, NAT)
    else:
        steps = ["let tn = rule(nat);", "var n : tn;", "let s0 = rule(succ, n);"]
        steps += [f"let s{i} = rule(succ, s{i - 1});" for i in range(1, 600)]
        d = run_script(th, parse_script("\n".join(steps + ["return s599;"]) + "\n"), "tt")
    assert computed[0] > 128
    computed[0] = 0
    tt.check_derivation(th, d)
    assert computed[0] == 0


# ---------------------------------------------------------------------------
# The rule instances of a theory family live in its table


def succ(t):
    return SymbolApp("succ", (ExprArg(t),))


def count_instances(monkeypatch, module) -> list:
    """A one-element list counting ``module``'s calls of
    ``rule_instance_premises``."""
    computed = [0]
    real = theory_module.rule_instance_premises

    def counted(*args):
        computed[0] += 1
        return real(*args)

    monkeypatch.setattr(module, "rule_instance_premises", counted)
    return computed


@pytest.mark.parametrize("flavor", ["tt", "cf"])
def test_a_chain_of_more_than_128_instances_is_held_whole(monkeypatch, flavor):
    """Two succ^90 chains, over two variables, ask for more than 128
    distinct rule instances and fewer than the table holds: fresh derivers
    over the same theory derive them again without computing an instance."""
    th = gated((CORPUS / "mltt.ftt").read_text(), flavor)
    computed = count_instances(monkeypatch, tt if flavor == "tt" else cf)

    def derive_chains():
        for name in ("a", "b"):
            t = FreeVar(name) if flavor == "tt" else FreeVar(name, NAT)
            for _ in range(90):
                t = succ(t)
            if flavor == "tt":
                TTDeriver(th).tm(EMPTY_METAS, VarCtx([(FreeVar(name), NAT)]), t, NAT)
            else:
                CFDeriver(th).tm(t, NAT)

    derive_chains()
    assert 128 < computed[0] < INSTANCE_CAP
    computed[0] = 0
    derive_chains()
    assert computed[0] == 0


def test_a_theory_and_its_prefixes_share_one_bounded_table():
    th = gated((CORPUS / "mltt.ftt").read_text(), "tt")
    table = th.origin[0].instance
    assert th.prefix(3).origin[0].instance is table
    rule = th.rule("succ").rule
    (m,) = rule.parts.metas
    t = FreeVar("a")
    for _ in range(INSTANCE_CAP + 50):
        t = succ(t)
        table(theory_module.rule_instance_premises, rule, Instantiation([(m, ExprArg(t))]))
    assert table.cache_info().currsize == INSTANCE_CAP


def test_two_theories_never_share_an_instance(monkeypatch):
    """Two elaborations of one text have equal rules and still compute each
    instance once apiece."""
    text = (CORPUS / "mltt.ftt").read_text()
    one, two = gated(text, "cf"), gated(text, "cf")
    assert one.origin[0].instance is not two.origin[0].instance
    computed = count_instances(monkeypatch, cf)
    t = FreeVar("a", NAT)
    for _ in range(5):
        t = succ(t)
    first = CFDeriver(one).tm(t, NAT)
    assert computed[0] == 6
    second = CFDeriver(two).tm(t, NAT)
    assert computed[0] == 12
    assert first.payload == second.payload


@pytest.mark.parametrize("flavor", ["tt", "cf"])
def test_a_theory_and_its_table_die_by_reference_counting(flavor):
    """With the collector off, dropping a theory that has derived a chain
    frees it: its table makes no reference cycle."""
    th = gated((CORPUS / "mltt.ftt").read_text(), flavor)
    gc.disable()
    try:
        t = FreeVar("a") if flavor == "tt" else FreeVar("a", NAT)
        for _ in range(20):
            t = succ(t)
        if flavor == "tt":
            d = TTDeriver(th).tm(EMPTY_METAS, VarCtx([(FreeVar("a"), NAT)]), t, NAT)
        else:
            d = CFDeriver(th).tm(t, NAT)
        assert th.origin[0].instance.cache_info().currsize > 0
        dead = weakref.ref(th)
        del th, d
        assert dead() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# A family's table grows to the instances that recur


def derive_chain(th, flavor: str, name: str, n: int) -> None:
    """succ^n(name) : nat, by a fresh deriver."""
    t = FreeVar(name) if flavor == "tt" else FreeVar(name, NAT)
    for _ in range(n):
        t = succ(t)
    if flavor == "tt":
        TTDeriver(th).tm(EMPTY_METAS, VarCtx([(FreeVar(name), NAT)]), t, NAT)
    else:
        CFDeriver(th).tm(t, NAT)


def table_size(th) -> int:
    return th.origin[0].instance.cache_info().maxsize


def derive_loop(th, flavor: str) -> None:
    """Four succ^90 chains: about 360 distinct instances, more than the
    table starts with, asked for in the same order on every pass."""
    for name in "abcd":
        derive_chain(th, flavor, name, 90)


@pytest.mark.parametrize("flavor", ["tt", "cf"])
def test_a_loop_over_more_instances_than_the_table_holds_grows_it(monkeypatch, flavor):
    """Each pass evicts what the next asks for first, so the family's
    misses recompute instances seen before: the table doubles, and once
    refilled a further pass computes no instance.  The sizing keeps hashes
    only, and a grown table still dies with its theory, the collector off."""
    th = gated((CORPUS / "mltt.ftt").read_text(), flavor)
    computed = count_instances(monkeypatch, tt if flavor == "tt" else cf)
    derive_loop(th, flavor)
    assert computed[0] > INSTANCE_CAP and table_size(th) == INSTANCE_CAP
    for _ in range(3):
        derive_loop(th, flavor)
    assert table_size(th) == 2 * INSTANCE_CAP
    computed[0] = 0
    derive_loop(th, flavor)
    assert computed[0] == 0

    table = th.origin[0].instance
    assert type(table).__name__ == "_lru_cache_wrapper"
    sizing = table.__wrapped__.__self__
    assert all(type(h) is int for h in sizing.recent | sizing.older)
    gc.disable()
    try:
        dead = weakref.ref(th)
        del th, table, sizing
        assert dead() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("flavor", ["tt", "cf"])
def test_a_stream_of_fresh_instances_never_grows_the_table(monkeypatch, flavor):
    """Chains over ever new variables miss on every instance of ``succ``,
    several tables' worth, and none of those misses recomputes an instance
    seen before: the table keeps its size."""
    th = gated((CORPUS / "mltt.ftt").read_text(), flavor)
    computed = count_instances(monkeypatch, tt if flavor == "tt" else cf)
    for i in range(300):
        derive_chain(th, flavor, f"v{i}", 4)
    assert computed[0] > 4 * INSTANCE_CAP
    assert table_size(th) == INSTANCE_CAP


def test_two_theories_size_their_tables_independently():
    text = (CORPUS / "mltt.ftt").read_text()
    one, two = gated(text, "cf"), gated(text, "cf")
    for _ in range(4):
        derive_loop(one, "cf")
        derive_chain(two, "cf", "a", 90)
    assert table_size(one) == 2 * INSTANCE_CAP
    assert table_size(two) == INSTANCE_CAP
    assert table_size(one.prefix(5)) == 2 * INSTANCE_CAP
