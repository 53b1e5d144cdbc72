"""Rule generation and the raw/finitary/standard gates, including the
worked example family: Ty-Pi-Long / Ty-Pi-Short / Unique-Ty /
Succ-Congr-Typo / Ty-Id-Typo."""

import random

import pytest

from fintt.errors import (
    ConclusionNotDerivableOverPrefix,
    MetaIntroducedTwice,
    MetaNotIntroduced,
    NotObjectRule,
    UnknownMeta,
)
from fintt.instantiation import Instantiation
from fintt.judgements import fill, plain, unfill
from fintt.parser import elaborate, parse_theory
from fintt.syntax import (
    Abstr,
    Abstracted,
    AsmArg,
    AssumptionSet,
    BoundVar,
    Cls,
    DUMMY,
    EqTm,
    EqTmB,
    EqTy,
    EqTyB,
    ExprArg,
    IsTm,
    IsTmB,
    IsTy,
    IsTyB,
    MetaApp,
    MetaArity,
    MetaName,
    SymbolApp,
    SymbolArity,
    boundary_arity,
)
from fintt.theory import (
    RawRule,
    RuleBoundary,
    TheoryBuilder,
    check_finitary,
    check_raw,
    check_standard,
    congruence_premises_tt,
    equality_rule,
    generic_application,
    is_symbol_rule,
    rule_instance_premises,
    symbol_rule,
)

from .gen import generated_theory_texts

BOOL = SymbolApp("bool", ())
NAT = SymbolApp("nat", ())


def M(name):
    return MetaApp(MetaName(name), ())


def mltt_builder(flavor):
    """The corpus theory: Pi, Id, refl, bool, nat, succ, and equality
    reflection."""
    b = TheoryBuilder(flavor)
    b.declare_symbol_rule("bool", [], IsTyB())
    b.declare_symbol_rule("nat", [], IsTyB())
    b.declare_symbol_rule("succ", [("n", plain(IsTmB(NAT)))], IsTmB(NAT))
    b.declare_symbol_rule(
        "Pi",
        [("A", plain(IsTyB())), ("B", Abstracted((M("A"),), IsTyB()))],
        IsTyB(),
    )
    b.declare_symbol_rule(
        "Id",
        [
            ("A", plain(IsTyB())),
            ("s", plain(IsTmB(M("A")))),
            ("t", plain(IsTmB(M("A")))),
        ],
        IsTyB(),
    )
    b.declare_symbol_rule(
        "refl",
        [("A", plain(IsTyB())), ("a", plain(IsTmB(M("A"))))],
        IsTmB(SymbolApp("Id", (ExprArg(M("A")), ExprArg(M("a")), ExprArg(M("a"))))),
    )
    b.declare_equality_rule(
        "eq_reflect",
        [
            ("A", plain(IsTyB())),
            ("s", plain(IsTmB(M("A")))),
            ("t", plain(IsTmB(M("A")))),
            (
                "p",
                plain(
                    IsTmB(SymbolApp("Id", (ExprArg(M("A")), ExprArg(M("s")), ExprArg(M("t")))))
                ),
            ),
        ],
        EqTmB(M("s"), M("t"), M("A")),
    )
    return b


@pytest.fixture(scope="module")
def mltt_tt():
    th = mltt_builder("tt").theory()
    check_finitary(th)
    return th


@pytest.fixture(scope="module")
def mltt_cf():
    th = mltt_builder("cf").theory()
    check_finitary(th)
    return th


def test_generic_application_shapes():
    m = MetaName("M")
    assert generic_application(m, MetaArity(Cls.TY, 0), "tt") == ExprArg(MetaApp(m, ()))
    got = generic_application(m, MetaArity(Cls.TM, 2), "tt")
    assert got == Abstr(Abstr(ExprArg(MetaApp(m, (BoundVar(1), BoundVar(0))))))
    cf_eq = generic_application(m, MetaArity(Cls.EQTY, 1), "cf")
    assert cf_eq == Abstr(
        AsmArg(AssumptionSet(frozenset(), frozenset([0]), frozenset([m])))
    )
    assert generic_application(m, MetaArity(Cls.EQTY, 1), "tt") == Abstr(DUMMY)


def test_symbol_rule_for_pi(mltt_tt):
    pi = mltt_tt.rule("Pi")
    A, B = MetaName("A"), MetaName("B")
    want = IsTy(
        SymbolApp(
            "Pi",
            (ExprArg(MetaApp(A, ())), Abstr(ExprArg(MetaApp(B, (BoundVar(0),))))),
        )
    )
    assert pi.rule.conclusion == want
    assert pi.symbol_for == "Pi"
    check_raw(mltt_tt.signature, pi.rule, "tt")


def test_equality_rule_cf_records_dependence(mltt_cf):
    """The cf equality-reflection conclusion carries  by {p}."""
    r = mltt_cf.rule("eq_reflect").rule
    concl = r.conclusion
    assert isinstance(concl, EqTm)
    assert len(concl.by.metas) == 1
    (p,) = concl.by.metas
    assert p.name == "p"
    assert not concl.by.free_vars and not concl.by.bound_vars


def test_empty_premise_equality_rule_has_empty_set():
    b = TheoryBuilder("cf")
    b.declare_symbol_rule("bool", [], IsTyB())
    b.declare_equality_rule("triv", [], EqTyB(BOOL, BOOL))
    r = b.theory().rule("triv").rule
    assert r.conclusion.by == AssumptionSet()


def test_corpus_is_finitary_and_standard(mltt_tt, mltt_cf):
    check_standard(mltt_tt)
    check_standard(mltt_cf)


# ---------------------------------------------------------------------------
# The example family


def pi_family_builder(flavor, which):
    b = TheoryBuilder(flavor)
    b.add_symbol("Pi", SymbolArity(Cls.TY, (MetaArity(Cls.TY, 0), MetaArity(Cls.TY, 1))))
    pi_concl = IsTy(
        SymbolApp(
            "Pi",
            (
                ExprArg(M("A")),
                Abstr(ExprArg(MetaApp(MetaName("B"), (BoundVar(0),)))),
            ),
        )
    )
    if which == "long":
        b.declare_explicit_rule(
            "Ty-Pi-Long",
            [("A", plain(IsTyB())), ("B", Abstracted((M("A"),), IsTyB()))],
            pi_concl,
        )
    elif which == "short":
        b.declare_explicit_rule(
            "Ty-Pi-Short",
            [("B", Abstracted((M("A"),), IsTyB()))],
            pi_concl,
        )
    return b


def test_ty_pi_long_is_finitary():
    th = pi_family_builder("tt", "long").theory()
    check_finitary(th)
    # Ty-Pi-Long is finitary but not a symbol rule bijection with Pi... it is
    # in fact exactly the associated symbol rule, but declared explicitly.
    check_standard(th)


def test_ty_pi_short_is_not_raw():
    with pytest.raises(MetaNotIntroduced) as err:
        check_finitary(pi_family_builder("tt", "short").theory())
    assert "fails to introduce" in str(err.value)
    assert "A" in str(err.value)


def test_unique_ty_is_not_raw():
    b = TheoryBuilder("tt")
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


def succ_typo_builder(flavor, with_bool_eq_nat):
    b = TheoryBuilder(flavor)
    b.declare_symbol_rule("bool", [], IsTyB())
    b.declare_symbol_rule("nat", [], IsTyB())
    b.declare_symbol_rule("succ", [("n", plain(IsTmB(NAT)))], IsTmB(NAT))
    if with_bool_eq_nat:
        b.declare_equality_rule("Bool-Eq-Nat", [], EqTyB(BOOL, NAT))
    b.declare_equality_rule(
        "Succ-Congr-Typo",
        [
            ("m", plain(IsTmB(NAT))),
            ("n", plain(IsTmB(BOOL))),
            ("e", plain(EqTmB(M("m"), M("n"), NAT))),
        ],
        EqTmB(
            SymbolApp("succ", (ExprArg(M("m")),)),
            SymbolApp("succ", (ExprArg(M("n")),)),
            NAT,
        ),
    )
    return b


@pytest.mark.parametrize("flavor", ["tt", "cf"])
def test_succ_congr_typo_needs_bool_eq_nat(flavor):
    with pytest.raises(ConclusionNotDerivableOverPrefix) as err:
        check_finitary(succ_typo_builder(flavor, False).theory())
    assert err.value.rule_name == "Succ-Congr-Typo"
    check_finitary(succ_typo_builder(flavor, True).theory())


def id_typo_builder(flavor):
    b = TheoryBuilder(flavor)
    b.declare_symbol_rule(
        "Id",
        [
            ("A", plain(IsTyB())),
            ("s", plain(IsTmB(M("A")))),
            ("t", plain(IsTmB(M("A")))),
        ],
        IsTyB(),
        symbol="Id",
    )
    b.add_symbol(
        "Id2", SymbolArity(Cls.TY, (MetaArity(Cls.TY, 0), MetaArity(Cls.TM, 0), MetaArity(Cls.TM, 0)))
    )
    b.declare_explicit_rule(
        "Ty-Id-Typo",
        [
            ("A", plain(IsTyB())),
            ("s", plain(IsTmB(M("A")))),
            ("t", plain(IsTmB(M("A")))),
        ],
        IsTy(SymbolApp("Id2", (ExprArg(M("A")), ExprArg(M("s")), ExprArg(M("s"))))),
    )
    return b


def test_ty_id_typo_finitary_but_not_standard():
    th = id_typo_builder("tt").theory()
    check_finitary(th)
    with pytest.raises(NotObjectRule) as err:
        check_standard(th)
    assert "Ty-Id-Typo" in str(err.value)


def test_ty_id_typo_is_not_a_cf_raw_rule():
    """The conclusion drops the metavariable t, which cf raw rules forbid."""
    with pytest.raises(MetaNotIntroduced):
        check_finitary(id_typo_builder("cf").theory())


# ---------------------------------------------------------------------------
# Congruence schemas


def test_pi_congruence_shape(mltt_tt):
    rule = mltt_tt.rule("Pi").rule
    A, B = rule.premises[0][0], rule.premises[1][0]
    a1t = ExprArg(BOOL)
    a2t = ExprArg(NAT)
    fam1 = Abstr(ExprArg(BOOL))
    fam2 = Abstr(ExprArg(NAT))
    left = Instantiation([(A, a1t), (B, fam1)])
    right = Instantiation([(A, a2t), (B, fam2)])
    premises, conclusion = congruence_premises_tt(rule, left, right)
    assert premises[0] == plain(IsTy(BOOL))
    assert premises[1] == Abstracted((BOOL,), IsTy(BOOL))
    assert premises[2] == plain(IsTy(NAT))
    assert premises[3] == Abstracted((NAT,), IsTy(NAT))
    assert premises[4] == plain(EqTy(BOOL, NAT, DUMMY))
    assert premises[5] == Abstracted((BOOL,), EqTy(BOOL, NAT, DUMMY))
    pi_of = lambda a, fam: SymbolApp("Pi", (ExprArg(a), Abstr(ExprArg(fam))))
    assert conclusion == plain(EqTy(pi_of(BOOL, BOOL), pi_of(NAT, NAT), DUMMY))


def test_rule_instance_premises_fill_each_boundary(mltt_tt):
    rule = mltt_tt.rule("Pi").rule
    (A, _), (B, _) = rule.premises
    inst = Instantiation([(A, ExprArg(BOOL)), (B, Abstr(ExprArg(NAT)))])
    premises, _, _ = rule_instance_premises(rule, inst)
    assert premises == [plain(IsTy(BOOL)), Abstracted((BOOL,), IsTy(NAT))]


def test_rule_instance_premises_refuses_a_forward_reference(mltt_tt):
    """A premise boundary may mention only earlier premises' metavariables."""
    from fintt.theory import RawRule

    (A, b_a), (B, b_b) = mltt_tt.rule("Pi").rule.premises
    swapped = RawRule(((B, b_b), (A, b_a)), IsTy(SymbolApp("Pi", ())))
    inst = Instantiation([(B, Abstr(ExprArg(NAT))), (A, ExprArg(BOOL))])
    with pytest.raises(UnknownMeta, match="A"):
        rule_instance_premises(swapped, inst)


def test_monotonicity_of_finitary_check(mltt_tt):
    """Appending a rule with a derivable conclusion keeps the theory
    finitary (derivability is monotone)."""
    from fintt.theory import RawRule, Theory, TheoryRule

    extra = TheoryRule("bool-again", RawRule((), IsTy(BOOL)))
    bigger = Theory(
        mltt_tt.signature, list(mltt_tt.rules) + [extra], "tt"
    )
    check_finitary(bigger)


def test_symbol_rule_output_passes_check_raw(mltt_tt, mltt_cf):
    for th in (mltt_tt, mltt_cf):
        for r in th.rules:
            check_raw(th.signature, r.rule, th.flavor)
            if r.symbol_for is not None:
                from fintt.syntax import erase

                concl = r.rule.conclusion
                assert erase(concl) == concl or th.flavor == "cf"


# ---------------------------------------------------------------------------
# Symbol rules by their heads


def oracle_is_symbol_rule(sig, rule, flavor):
    """``is_symbol_rule`` as it was: rebuild the symbol rule of the rule's
    own premises and boundary, and compare whole conclusions."""
    if not rule.is_object:
        return None
    head = rule.conclusion.ty if isinstance(rule.conclusion, IsTy) else None
    if isinstance(rule.conclusion, IsTm):
        head = rule.conclusion.term
    if not isinstance(head, SymbolApp):
        return None
    symbol = head.symbol
    if symbol not in sig:
        return None
    rb = RuleBoundary(rule.premises, unfill(plain(rule.conclusion))[0].body)
    expected_head = SymbolApp(
        symbol,
        tuple(generic_application(m, boundary_arity(b), flavor) for m, b in rb.premises),
    )
    expected = fill(plain(rb.conclusion), ExprArg(expected_head)).body
    return symbol if expected == rule.conclusion else None


def with_head(rule, head):
    if isinstance(rule.conclusion, IsTy):
        return RawRule(rule.premises, IsTy(head))
    return RawRule(rule.premises, IsTm(head, rule.conclusion.ty))


def mutated_heads(sig, rule):
    """The rule with its head's arguments swapped, with one more and one
    fewer binder on an argument, and with another symbol at the head."""
    if not rule.is_object:
        return
    head = rule.conclusion.ty if isinstance(rule.conclusion, IsTy) else rule.conclusion.term
    if not isinstance(head, SymbolApp):
        return
    args = head.args
    if len(args) >= 2 and args[0] != args[1]:
        yield with_head(rule, SymbolApp(head.symbol, (args[1], args[0], *args[2:])))
    for i, a in enumerate(args):
        yield with_head(rule, SymbolApp(head.symbol, (*args[:i], Abstr(a), *args[i + 1:])))
        if isinstance(a, Abstr):
            yield with_head(rule, SymbolApp(head.symbol, (*args[:i], a.body, *args[i + 1:])))
    for other in sig:
        if other != head.symbol and len(sig[other].args) == len(args):
            yield with_head(rule, SymbolApp(other, args))
            break


@pytest.mark.parametrize("flavor", ["cf", "tt"])
def test_is_symbol_rule_agrees_with_the_rebuilt_conclusion(flavor):
    """On every rule of 48 generated theories, and on those rules with
    mutated heads."""
    answers = []
    for text in generated_theory_texts():
        theory = elaborate(parse_theory(text), flavor)
        sig = theory.signature
        for r in theory.rules:
            for rule in (r.rule, *mutated_heads(sig, r.rule)):
                got = is_symbol_rule(sig, rule, flavor)
                assert got == oracle_is_symbol_rule(sig, rule, flavor)
                answers.append(got)
    assert len(answers) > 5000
    assert answers.count(None) > 1000 and len(answers) - answers.count(None) > 1000
