"""The one elaboration of a theory declaration: the cf theory is elaborated
once and kept with the declaration, and the tt theory is its rule-wise
erasure."""

import dataclasses
import gc
import pathlib
import random

import pytest

from fintt.errors import (
    KernelError,
    MetaNotIntroduced,
    NotEqualityBoundary,
    NotObjectBoundary,
    ParseError,
    SymbolExists,
)
from fintt.judgements import plain
from fintt.parser import MAX_NESTING, RuleDecl, elaborate, parse_theory
from fintt.syntax import (
    Abstr,
    Abstracted,
    AsmArg,
    AssumptionSet,
    BoundVar,
    DUMMY,
    EqTm,
    EqTyB,
    ExprArg,
    IsTm,
    IsTmB,
    IsTy,
    IsTyB,
    MetaApp,
    MetaName,
    SymbolApp,
)
from fintt.theory import (
    RawRule,
    TheoryBuilder,
    TheoryRule,
    check_finitary,
    check_raw,
    check_standard,
    is_symbol_rule,
)

from .gen import generated_theory_texts, theorygen
from .test_theory import BOOL, NAT, M, mltt_builder

CORPUS = pathlib.Path(__file__).parent / "corpus"


def app(symbol, *args):
    return SymbolApp(symbol, tuple(ExprArg(a) for a in args))


def tt_rule(name, premises, conclusion, symbol=None):
    return TheoryRule(name, RawRule(tuple((MetaName(m), b) for m, b in premises), conclusion), symbol)


A_TYPE = ("A", plain(IsTyB()))


def mltt_tt_by_hand():
    """The tt rules of ``mltt.ftt``, written out."""
    s_t = [("s", plain(IsTmB(M("A")))), ("t", plain(IsTmB(M("A"))))]
    return (
        tt_rule("bool", [], IsTy(BOOL), "bool"),
        tt_rule("nat", [], IsTy(NAT), "nat"),
        tt_rule("succ", [("n", plain(IsTmB(NAT)))], IsTm(app("succ", M("n")), NAT), "succ"),
        tt_rule(
            "Pi",
            [A_TYPE, ("B", Abstracted((M("A"),), IsTyB()))],
            IsTy(SymbolApp("Pi", (ExprArg(M("A")), Abstr(ExprArg(MetaApp(MetaName("B"), (BoundVar(0),))))))),
            "Pi",
        ),
        tt_rule("Id", [A_TYPE, *s_t], IsTy(app("Id", M("A"), M("s"), M("t"))), "Id"),
        tt_rule(
            "refl",
            [A_TYPE, ("a", plain(IsTmB(M("A"))))],
            IsTm(app("refl", M("A"), M("a")), app("Id", M("A"), M("a"), M("a"))),
            "refl",
        ),
        tt_rule(
            "eq_reflect",
            [A_TYPE, *s_t, ("p", plain(IsTmB(app("Id", M("A"), M("s"), M("t")))))],
            EqTm(M("s"), M("t"), M("A"), DUMMY),
        ),
    )


def pi_short_tt_by_hand():
    """The tt rule of ``pi_short.ftt``: not a symbol rule, since ``A`` is no
    premise."""
    return (
        tt_rule(
            "Ty-Pi-Short",
            [("B", Abstracted((M("A"),), IsTyB()))],
            IsTy(SymbolApp("Pi", (ExprArg(M("A")), Abstr(ExprArg(MetaApp(MetaName("B"), (BoundVar(0),))))))),
        ),
    )


@pytest.mark.parametrize(
    "name, expected", [("mltt.ftt", mltt_tt_by_hand), ("pi_short.ftt", pi_short_tt_by_hand)]
)
def test_corpus_tt_rules_are_the_erasure_written_out(name, expected):
    decl = parse_theory((CORPUS / name).read_text())
    tt = elaborate(decl, "tt")
    assert tt.flavor == "tt"
    assert tt.rules == expected()
    assert tt.signature is elaborate(decl, "cf").signature


def test_builder_tt_rules_are_the_erasure_written_out():
    assert mltt_builder("tt").theory().rules == mltt_tt_by_hand()


def syntax_nodes(x):
    """Every dataclass value inside ``x``, atom annotations included."""
    todo = [x]
    while todo:
        y = todo.pop()
        if isinstance(y, (tuple, frozenset)):
            todo.extend(y)
        elif dataclasses.is_dataclass(y):
            yield y
            todo.extend(getattr(y, f.name) for f in dataclasses.fields(y))


def erasure_texts():
    """The 48 generated texts, and more generator theories of every variant."""
    yield from generated_theory_texts()
    gen = theorygen()
    for seed in (1, 2):
        for variant in gen.VARIANTS:
            yield gen.TheoryGen(random.Random(seed), 60, variant).text


def test_erasure_invariants_on_generated_theories():
    """No tt metavariable carries an annotation, no tt rule holds an
    assumption set, and each rule's ``symbol_for`` is what the tt symbol
    rule test says."""
    rules = 0
    for text in erasure_texts():
        decl = parse_theory(text)
        cf, tt = elaborate(decl, "cf"), elaborate(decl, "tt")
        assert tt.signature is cf.signature
        assert [r.name for r in tt.rules] == [r.name for r in cf.rules]
        for r in tt.rules:
            for y in syntax_nodes(r.rule):
                assert not isinstance(y, (AsmArg, AssumptionSet))
                assert not (isinstance(y, MetaName) and y.annotation is not None)
            assert r.symbol_for == is_symbol_rule(tt.signature, r.rule, "tt")
            rules += 1
    assert rules > 3000


def count_declarations(monkeypatch):
    """Counts the calls of the builder's ``declare_*`` methods."""
    calls = []
    for kind in ("symbol", "equality", "explicit"):
        real = getattr(TheoryBuilder, f"declare_{kind}_rule")

        def counted(self, *args, _real=real, **kwargs):
            calls.append(args[0])
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(TheoryBuilder, f"declare_{kind}_rule", counted)
    return calls


def test_a_declaration_is_elaborated_once(monkeypatch):
    calls = count_declarations(monkeypatch)
    gen = theorygen()
    texts = [(CORPUS / "mltt.ftt").read_text()]
    texts += [gen.TheoryGen(random.Random(5), 40, v).text for v in gen.VARIANTS]
    kinds = set()
    for text in texts:
        decl = parse_theory(text)
        kinds |= {d.kind for d in decl.decls if isinstance(d, RuleDecl)}
        calls.clear()
        cf = elaborate(decl, "cf")
        elaborate(decl, "tt")
        assert elaborate(decl, "cf") is cf
        elaborate(decl, "tt")
        assert calls == [d.name for d in decl.decls if isinstance(d, RuleDecl)]
    assert kinds == {"symbol", "equality", "explicit"}


def test_tt_first_elaborates_the_cf_theory_once(monkeypatch):
    calls = count_declarations(monkeypatch)
    decl = parse_theory((CORPUS / "mltt.ftt").read_text())
    tt = elaborate(decl, "tt")
    assert elaborate(decl, "cf") is decl.cf_theory
    assert len(calls) == len(tt.rules) == 7


def test_a_parsed_declaration_cannot_change():
    decl = parse_theory((CORPUS / "mltt.ftt").read_text())
    assert isinstance(decl.decls, tuple)
    assert all(isinstance(d.premises, tuple) for d in decl.decls if isinstance(d, RuleDecl))
    with pytest.raises(dataclasses.FrozenInstanceError):
        decl.decls = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        decl.decls[0].premises = ()


def test_a_rule_at_the_nesting_limit_elaborates_in_both_flavours():
    deep = "succ(" * (MAX_NESTING - 1) + "n" + ")" * (MAX_NESTING - 1)
    text = (
        "rule nat: yields type\nrule succ: premise n : nat; yields : nat\n"
        f"rule deep: premise n : nat; yields {deep} : nat\n"
    )
    decl = parse_theory(text)
    for flavor in ("cf", "tt"):
        theory = elaborate(decl, flavor)
        rule = theory.rule("deep").rule
        check_raw(theory.signature, rule, flavor)
        metas = [y for y in syntax_nodes(rule) if isinstance(y, MetaName)]
        assert {m.name for m in metas} == {"n"}
        assert all(m.annotation is None for m in metas) == (flavor == "tt")


# The outcome of elaborating and gating each malformed declaration, the same
# in both flavours.
MALFORMED = {
    "unknown symbol in a premise": (
        "rule bool: yields type\nrule r: premise a : foo(bool); yields type\n",
        MetaNotIntroduced,
        "boundary of a fails to introduce the metavariable foo",
    ),
    "unknown symbol in a conclusion": (
        "rule bool: yields type\nrule r: yields foo(bool) type\n",
        MetaNotIntroduced,
        "conclusion fails to introduce the metavariable foo",
    ),
    "symbol rule declared twice": (
        "rule bool: yields type\nrule bool: yields type\n",
        SymbolExists,
        "bool",
    ),
    "symbol declared twice": ("symbol S : type\nsymbol S : type\n", ValueError, "duplicate symbol 'S'"),
    "rule for a declared symbol": ("symbol bool : type\nrule bool: yields type\n", SymbolExists, "bool"),
    "equation under yields type": (
        "rule bool: yields type\nrule r: yields bool == bool type\n",
        ParseError,
        "2:29: expected a declaration, found 'type'",
    ),
}


@pytest.mark.parametrize("flavor", ["cf", "tt"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_declarations_fail_alike_in_both_flavours(case, flavor):
    text, error, message = MALFORMED[case]
    with pytest.raises(error) as err:
        theory = elaborate(parse_theory(text), flavor)
        check_finitary(theory)
        check_standard(theory)
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize("flavor", ["cf", "tt"])
def test_builder_refuses_an_equation_for_a_symbol_alike_in_both_flavours(flavor):
    b = TheoryBuilder(flavor)
    with pytest.raises(NotObjectBoundary, match="^symbol rules arise from object rule-boundaries$"):
        b.declare_symbol_rule("r", [], EqTyB(BOOL, BOOL))
    with pytest.raises(NotEqualityBoundary, match="^equality rules arise from equality rule-boundaries$"):
        b.declare_equality_rule("r", [], IsTyB())
    assert b.theory().rules == ()


E_WITH_AN_EQUATION = "symbol E : type (type, eqtype)\nrule R: premise A : type; premise e : A == A; yields "


def test_a_cf_symbol_rule_written_out_erases_to_a_tt_symbol_rule():
    """The cf generic application of an equation premise, an assumption set,
    erases to the dummy value, so the tt rule is a symbol rule too."""
    decl = parse_theory(E_WITH_AN_EQUATION + "E(A, {e, e}) type\n")
    for flavor in ("cf", "tt"):
        theory = elaborate(decl, flavor)
        check_finitary(theory)
        check_standard(theory)
        assert theory.rule("R").symbol_for == "E"
    assert elaborate(decl, "tt").rule("R").rule.conclusion == IsTy(SymbolApp("E", (ExprArg(M("A")), DUMMY)))


def test_a_tt_symbol_rule_written_out_is_no_cf_symbol_rule():
    """With the dummy value for the equation premise the rule is the tt
    symbol rule of E, while its cf conclusion fails to mention ``e``."""
    decl = parse_theory(E_WITH_AN_EQUATION + "E(A, *) type\n")
    cf, tt = elaborate(decl, "cf"), elaborate(decl, "tt")
    assert (cf.rule("R").symbol_for, tt.rule("R").symbol_for) == (None, "E")
    with pytest.raises(MetaNotIntroduced, match="missing e$"):
        check_finitary(cf)
    check_finitary(tt)
    check_standard(tt)


@pytest.mark.parametrize("flavor", ["cf", "tt"])
def test_a_one_element_assumption_set_argument_is_not_a_binder(flavor):
    """``{e}`` closing an argument is the assumption set ``{e, e}``, not a
    binder waiting for its body."""
    one = elaborate(parse_theory(E_WITH_AN_EQUATION + "E(A, {e}) type\n"), flavor).rule("R")
    two = elaborate(parse_theory(E_WITH_AN_EQUATION + "E(A, {e, e}) type\n"), flavor).rule("R")
    assert (one.rule, one.symbol_for) == (two.rule, two.symbol_for)


def test_a_binder_argument_still_parses():
    decl = parse_theory(
        "rule bool: yields type\n"
        "rule F: premise M : {x : bool} type; yields type\n"
        "rule G: premise M : {x : bool} type; yields F({x} M(x)) type\n"
    )
    (x,) = elaborate(decl, "tt").rule("G").rule.conclusion.ty.args
    assert x == Abstr(ExprArg(MetaApp(MetaName("M"), (BoundVar(0),))))


def test_elaborating_and_gating_leaves_no_cyclic_garbage():
    """Elaborating and gating the corpus theories and a generated one frees
    all it drops by reference counting: with the collector off, it has
    nothing left to collect."""
    texts = [path.read_text() for path in sorted(CORPUS.glob("*.ftt"))]
    texts.append(next(generated_theory_texts(sizes=(40,), seeds=(11,))))
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            decl = parse_theory(text)
            for flavor in ("cf", "tt"):
                th = elaborate(decl, flavor)
                try:
                    check_finitary(th)
                    check_standard(th)
                except KernelError:
                    pass
        del decl, th
        assert gc.collect() == 0
    finally:
        gc.enable()
