"""Surface formats: parse/print round trips, script interpretation on both
engines, and CLI behaviour."""

import os
import pathlib
import random
import subprocess
import sys

import pytest

from fintt import cli, theory
from fintt.derive import SHOWN_LENGTH
from fintt.judgements import plain
from fintt.parser import MAX_NESTING, elaborate, parse_script, parse_term, parse_theory
from fintt.printer import print_abstracted, print_expr, print_theory_decl, print_script
from fintt.script import run_script
from fintt.syntax import (
    Abstr,
    ExprArg,
    FreeVar,
    IsTy,
    SymbolApp,
    erase,
    erased_equal,
)
from fintt.theory import check_finitary, check_standard
from fintt.translate import MAX_DEPTH

from .gen import ExprGen

CORPUS = pathlib.Path(__file__).parent / "corpus"
BOOL = SymbolApp("bool", ())
NAT = SymbolApp("nat", ())


@pytest.fixture(scope="module")
def corpus_text():
    return (CORPUS / "mltt.ftt").read_text()


@pytest.fixture(scope="module")
def theories(corpus_text):
    decl = parse_theory(corpus_text)
    t_cf = elaborate(decl, "cf")
    t_tt = elaborate(decl, "tt")
    check_finitary(t_cf)
    check_finitary(t_tt)
    check_standard(t_cf)
    check_standard(t_tt)
    return t_cf, t_tt


# A rule whose premise names an assumption set, which the printer prints
# from the parse tree.
CONVERT_RULE = "rule cv: premise A : type; premise a : A; premise e : a == convert(a, {a}) : A; yields A type\n"


def test_theory_round_trip_byte_identical(corpus_text):
    """The corpus theories, one with a symbol arity, and one with an
    assumption set, print back as they were written."""
    for text in (corpus_text, (CORPUS / "pi_short.ftt").read_text(), corpus_text + CONVERT_RULE):
        assert print_theory_decl(parse_theory(text)) == text


def test_script_round_trip_byte_identical():
    for name in ("pi_bool.fttd", "refl_nat.fttd", "reflect.fttd", "meta_subst.fttd"):
        text = (CORPUS / name).read_text()
        assert print_script(parse_script(text)) == text


def test_parsed_theory_matches_programmatic(theories, corpus_cf, corpus_tt):
    t_cf, t_tt = theories
    assert [r.name for r in t_tt.rules] == [r.name for r in corpus_tt.rules]
    for parsed, built in zip(t_tt.rules, corpus_tt.rules):
        assert parsed.rule == built.rule
    for parsed, built in zip(t_cf.rules, corpus_cf.rules):
        assert parsed.rule == built.rule


def test_rule_pi_parses_to_rule_boundary():
    decl = parse_theory("rule Pi: premise A : type; premise B : {x : A} type; yields type\n")
    th = elaborate(decl, "tt")
    r = th.rule("Pi")
    assert r.symbol_for == "Pi"
    assert len(r.rule.premises) == 2
    assert "Pi" in th.signature


def test_empty_file_is_empty_theory():
    th = elaborate(parse_theory(""), "tt")
    assert len(th.rules) == 0
    assert len(th.signature) == 0


@pytest.mark.parametrize("seed", range(25))
def test_expr_parse_print_round_trip(seed, theories):
    """print is deterministic and parse inverts it on generated values."""
    t_cf, _ = theories
    rng = random.Random(seed)
    g = ExprGen(rng, cf=True)
    for _ in range(20):
        e = g.tm(3)
        text = print_expr(e)
        back = parse_term(text, t_cf)
        assert back == e
        assert print_expr(back) == text


def test_scripts_agree_up_to_erasure(theories):
    """Criterion 2 core: the same script in both engines, cf erasing to tt."""
    t_cf, t_tt = theories
    for name, want_closed in (("pi_bool.fttd", True), ("refl_nat.fttd", False), ("reflect.fttd", False)):
        script = parse_script((CORPUS / name).read_text())
        out_cf = run_script(t_cf, script, "cf")
        out_tt = run_script(t_tt, script, "tt")
        assert erase(out_cf.payload) == out_tt.conclusion.jdg


def test_pi_script_conclusion(theories):
    t_cf, _ = theories
    script = parse_script((CORPUS / "pi_bool.fttd").read_text())
    out = run_script(t_cf, script, "cf")
    assert out.payload == plain(IsTy(SymbolApp("Pi", (ExprArg(BOOL), Abstr(ExprArg(BOOL))))))


# ---------------------------------------------------------------------------
# CLI


def test_cli_check_corpus_exits_zero(capsys):
    rc = cli.main(["check", str(CORPUS / "mltt.ftt")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "RULE Pi: standard" in out
    assert out.count("RULE") == 7


@pytest.mark.parametrize("flavor", ["tt", "cf"])
def test_cli_check_runs_check_raw_once_per_rule(flavor, monkeypatch, capsys):
    real = theory.check_raw
    rules = []

    def counted(sig, rule, flavor):
        rules.append(rule)
        return real(sig, rule, flavor)

    # Every module of the package that binds check_raw calls the counted one.
    for module in list(sys.modules.values()):
        if module.__name__.startswith("fintt") and getattr(module, "check_raw", None) is real:
            monkeypatch.setattr(module, "check_raw", counted)
    assert cli.main(["check", str(CORPUS / "mltt.ftt"), "--flavor", flavor]) == 0
    assert capsys.readouterr().out.count(": standard") == 7
    assert len(rules) == 7


def test_cli_check_pi_short_fails_with_diagnostic(capsys):
    rc = cli.main(["check", str(CORPUS / "pi_short.ftt")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "fails to introduce" in out
    assert "Ty-Pi-Short" in out


def test_cli_derive_both_engines(capsys):
    for engine in ("cf", "tt"):
        rc = cli.main(
            ["derive", str(CORPUS / "mltt.ftt"), str(CORPUS / "pi_bool.fttd"), "--engine", engine]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Pi(bool, {x} bool)" in out


def test_cli_derive_with_an_unknown_rule_fails_in_one_line(tmp_path, capsys):
    script = tmp_path / "Z.fttd"
    script.write_text("let s0 = rule(zero);\nreturn s0;\n")
    for engine in ("cf", "tt"):
        rc = cli.main(["derive", str(CORPUS / "mltt.ftt"), str(script), "--engine", engine])
        assert rc == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: no rule named 'zero'\n"


@pytest.mark.parametrize(
    "steps, what, cf_out",
    [
        ("let tn = rule(nat);\nvar n : tn;\nvar n : tn;\nreturn n;\n", "variable n", "n^nat : nat\n"),
        ("meta A : type;\nmeta A : type;\nreturn A;\n", "metavariable A", "type\n"),
    ],
    ids=["var", "meta"],
)
def test_cli_derive_refuses_a_name_declared_twice_in_tt(tmp_path, capsys, steps, what, cf_out):
    """A tt context takes a name once: the second declaration is refused
    in one line.  The cf engine has no context, and the later declaration
    shadows the earlier one."""
    script = tmp_path / "D.fttd"
    script.write_text(steps)
    assert cli.main(["derive", str(CORPUS / "mltt.ftt"), str(script), "--engine", "tt"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {what} is declared twice\n"
    assert cli.main(["derive", str(CORPUS / "mltt.ftt"), str(script), "--engine", "cf"]) == 0
    assert capsys.readouterr().out == cf_out


def test_cli_derive_gates_the_theory_first(tmp_path, capsys):
    """A tt presupposition needs the rules' finitary witnesses, which the gate
    leaves on the theory."""
    script = tmp_path / "P.fttd"
    script.write_text("let n = rule(nat);\nlet p = presup(n);\n")
    for engine in ("cf", "tt"):
        assert cli.main(["derive", str(CORPUS / "mltt.ftt"), str(script), "--engine", engine]) == 0
    assert capsys.readouterr().out == "type\n;  |- type (boundary)\n"


def test_cli_derive_and_erase_refuse_a_theory_the_gate_refuses(tmp_path, capsys):
    theory_file = tmp_path / "T.ftt"
    theory_file.write_text("symbol nat : type ()\nrule succ: premise n : nat; yields : nat\n")
    script = str(CORPUS / "pi_bool.fttd")
    runs = [["derive", str(theory_file), script, "--engine", e] for e in ("cf", "tt")]
    for argv in runs + [["erase", str(theory_file), script]]:
        assert cli.main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: rule succ: cannot derive no specific rule concludes nat\n"


def succ_script(tmp_path, n: int) -> str:
    """A script deriving succ^n(n)."""
    steps = ["let tn = rule(nat);", "var n : tn;", "let s0 = rule(succ, n);"]
    steps += [f"let s{i} = rule(succ, s{i - 1});" for i in range(1, n)]
    script = tmp_path / f"S{n}.fttd"
    script.write_text("\n".join(steps + [f"return s{n - 1};"]) + "\n")
    return str(script)


@pytest.fixture()
def deep_script(tmp_path):
    """A script deriving succ^1500(n)."""
    return succ_script(tmp_path, 1500)


def test_cli_derive_prints_a_deep_conclusion_on_both_engines(deep_script, capsys):
    for engine in ("cf", "tt"):
        rc = cli.main(["derive", str(CORPUS / "mltt.ftt"), deep_script, "--engine", engine])
        assert rc == 0
        assert "succ(" * 1500 in capsys.readouterr().out


def test_cli_translate_to_tt_refuses_a_deep_judgement_in_one_line(deep_script, capsys):
    rc = cli.main(["translate", str(CORPUS / "mltt.ftt"), deep_script, "--to", "tt"])
    assert rc == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: cf->tt: obligation recursion too deep\n"


def test_cli_translate_to_cf_refuses_a_deep_derivation_in_one_line(deep_script, capsys):
    rc = cli.main(["translate", str(CORPUS / "mltt.ftt"), deep_script, "--to", "cf"])
    assert rc == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: tt->cf: derivation nested deeper than {MAX_DEPTH}\n"


@pytest.mark.parametrize("engine", ["cf", "tt"])
def test_cli_derive_refuses_a_deep_premise_mismatch_in_one_line(tmp_path, capsys, engine):
    """rule(Id, tb, c, c) with c a 2,000-deep nat term: the refusal shows the
    mismatched premise through the printer, cut, not through repr."""
    steps = ["let tb = rule(bool);", "let tn = rule(nat);", "var n : tn;", "let c0 = rule(succ, n);"]
    steps += [f"let c{i} = rule(succ, c{i - 1});" for i in range(1, 2000)]
    script = tmp_path / "Deep.fttd"
    script.write_text("\n".join(steps + ["let out = rule(Id, tb, c1999, c1999);", "return out;", ""]))
    rc = cli.main(["derive", str(CORPUS / "mltt.ftt"), str(script), "--engine", engine])
    assert rc == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and out.err.count("\n") == 1
    assert "succ(succ(" in out.err and len(out.err) <= 2 * SHOWN_LENGTH + 100



@pytest.mark.parametrize("engine", ["cf", "tt"])
def test_cli_derive_premise_mismatch_shows_the_first_difference(tmp_path, capsys, engine):
    """rule(Id, tb, c, c) with c a 2,000-deep nat term: past the common
    succ(succ(... prefix, the refusal names the types that differ."""
    steps = ["let tb = rule(bool);", "let tn = rule(nat);", "var n : tn;", "let c0 = rule(succ, n);"]
    steps += [f"let c{i} = rule(succ, c{i - 1});" for i in range(1, 2000)]
    script = tmp_path / "Deep.fttd"
    script.write_text("\n".join(steps + ["let out = rule(Id, tb, c1999, c1999);", "return out;", ""]))
    rc = cli.main(["derive", str(CORPUS / "mltt.ftt"), str(script), "--engine", engine])
    assert rc == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert "first difference: bool against nat" in out.err
    assert len(out.err) <= 2 * SHOWN_LENGTH + 100


@pytest.mark.parametrize("flavor", ["tt", "cf"])
def test_cli_check_names_the_same_unintroduced_metavariable_in_every_process(tmp_path, flavor):
    """A bare atom's hash differs between interpreters even with the hash
    seed pinned, so the refusal names the least of the unintroduced
    metavariables, not the first of a set."""
    theory_file = tmp_path / "bad.ftt"
    theory_file.write_text(
        "rule nat: yields type\n"
        "rule P: premise a : nat; premise b : nat; yields type\n"
        "rule bad: premise x : P(u, v); yields type\n"
    )
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": src}
    command = [sys.executable, "-m", "fintt.cli", "check", str(theory_file), "--flavor", flavor]
    lines = set()
    for _ in range(6):
        run = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 1
        lines |= {line for line in run.stdout.splitlines() if line.startswith("RULE bad:")}
    assert lines == {"RULE bad: FAIL boundary of x fails to introduce the metavariable u"}


def test_cli_translate_to_cf_at_the_depth_limit(tmp_path, capsys):
    """The tt derivation of succ^n(n) nests its variable n levels below the
    root: n = MAX_DEPTH translates, one more is refused."""
    theory_file = str(CORPUS / "mltt.ftt")
    rc = cli.main(["translate", theory_file, succ_script(tmp_path, MAX_DEPTH), "--to", "cf"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("succ(" * MAX_DEPTH + "n^nat" + ")" * MAX_DEPTH)
    rc = cli.main(["translate", theory_file, succ_script(tmp_path, MAX_DEPTH + 1), "--to", "cf"])
    assert rc == 1
    assert "derivation nested deeper than" in capsys.readouterr().err


def test_cli_translate_both_ways(capsys):
    rc = cli.main(
        ["translate", str(CORPUS / "mltt.ftt"), str(CORPUS / "reflect.fttd"), "--to", "tt"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "u^bool == v^bool : bool" in out
    assert "var p^(Id(bool, u^bool, v^bool)) : Id(bool, u^bool, v^bool)" in out
    rc = cli.main(
        ["translate", str(CORPUS / "mltt.ftt"), str(CORPUS / "reflect.fttd"), "--to", "cf"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "by" in out


@pytest.mark.parametrize("to", ["tt", "cf"])
def test_cli_translate_elaborates_each_flavour_once(to, monkeypatch, capsys):
    real = cli.elaborate
    flavors = []

    def counted(decl, flavor):
        flavors.append(flavor)
        return real(decl, flavor)

    monkeypatch.setattr(cli, "elaborate", counted)
    argv = ["translate", str(CORPUS / "mltt.ftt"), str(CORPUS / "reflect.fttd"), "--to", to]
    assert cli.main(argv) == 0
    assert sorted(flavors) == ["cf", "tt"]


def test_cli_translate_to_tt_takes_a_bound_reflection_proof(tmp_path, capsys):
    """The proof of the reflected equation is the variable the judgement
    abstracts over, so the search must take it from the atom it opens."""
    text = (CORPUS / "reflect.fttd").read_text().replace(
        "return e;", "let a = abstract(ti, e, p);\nreturn a;"
    )
    script = tmp_path / "A.fttd"
    script.write_text(text)
    rc = cli.main(["translate", str(CORPUS / "mltt.ftt"), str(script), "--to", "tt"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "{x : Id(bool, u^bool, v^bool)} u^bool == v^bool : bool" in out


def test_cli_natural_type(capsys):
    rc = cli.main(["natural-type", str(CORPUS / "mltt.ftt"), "succ(succ(n^nat))"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "nat"


def _nested_succ(nesting: int) -> str:
    """A term whose expressions nest ``nesting`` deep: succ(...(n^nat)...)."""
    return "succ(" * (nesting - 1) + "n^nat" + ")" * (nesting - 1)


def test_cli_natural_type_at_the_nesting_limit(capsys):
    rc = cli.main(["natural-type", str(CORPUS / "mltt.ftt"), _nested_succ(MAX_NESTING)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "nat"


def test_cli_natural_type_past_the_nesting_limit(capsys):
    term = _nested_succ(MAX_NESTING + 1)
    rc = cli.main(["natural-type", str(CORPUS / "mltt.ftt"), term])
    assert rc == 2
    col = len("succ(") * MAX_NESTING + 1
    err = capsys.readouterr().err
    assert f"syntax error: 1:{col}: expressions nested deeper than {MAX_NESTING}" in err


def test_cli_erase(capsys):
    rc = cli.main(["erase", str(CORPUS / "mltt.ftt"), str(CORPUS / "reflect.fttd")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "==" in out and "by" not in out


def test_cli_usage_error():
    assert cli.main(["check"]) == 2
    assert cli.main(["derive", "nope.ftt", "nope.fttd"]) == 2


def test_script_with_metavariables_both_engines(theories):
    t_cf, t_tt = theories
    script = parse_script((CORPUS / "meta_subst.fttd").read_text())
    out_cf = run_script(t_cf, script, "cf")
    out_tt = run_script(t_tt, script, "tt")
    assert erase(out_cf.payload) == out_tt.conclusion.jdg
    body = out_cf.payload.body
    assert body.ty == NAT
    assert body.term.symbol == "succ"
    text = (CORPUS / "meta_subst.fttd").read_text()
    assert print_script(parse_script(text)) == text
