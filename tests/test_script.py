"""The script interpreter's step table: every step on both engines, its
argument count, and every failure of generated scripts a `KernelError`."""

import pathlib
import random

import pytest

from fintt import cf_engine as cf
from fintt import cli
from fintt import tt_engine as tt
from fintt.errors import KernelError
from fintt.judgements import plain
from fintt.parser import elaborate, parse_script, parse_theory
from fintt.script import STEPS, ScriptError, run_script
from fintt.syntax import IsTyB
from fintt.theory import check_finitary

from .gen import SCRIPT_OPS, ScriptGen

CORPUS = pathlib.Path(__file__).parent / "corpus"

# Bindings over the corpus theory that some step takes: types, variables, a
# metavariable, equations, an abstraction and its boundary.
PRELUDE = """\
let tb = rule(bool);
let tn = rule(nat);
meta M : {{x : nat}} nat;
var u : tb;
var v : tb;
let ti = rule(Id, tb, u, v);
var p : ti;
let e = rule(eq_reflect, tb, u, v, p);
let q = refl_ty({refl_ty});
let f = sym_tm(e);
let r = rule(refl, tb, u);
var n : tn;
let fam = abstract(tn, tn, n);
let fb = presup(fam);
var m : tn;
"""

# The arguments of each step that succeeds, as (cf, tt) where they differ.
ARGS = {
    "rule": ["succ", "m"],
    "apply": ["M", "m"],
    "abstract": ["tn", "tn", "m"],
    "refl_ty": (["tb", "tb"], ["tb"]),
    "refl_tm": (["u", "u"], ["u"]),
    "sym_ty": ["q"],
    "sym_tm": ["e"],
    "trans_ty": ["q", "q"],
    "trans_tm": ["e", "f"],
    "conv": ["u", "q"],
    "conv_eq": ["e", "q"],
    "subst": ["fam", "m"],
    "presup": ["u"],
    "bdry_ty": [],
    "bdry_tm": ["tb"],
    "bdry_eqty": ["tb", "tn"],
    "bdry_eqtm": ["tb", "u", "v"],
    "strengthen": ["fam"],
    "invert": ["r"],
    "uniqueness": ["u", "u"],
}


@pytest.fixture(scope="module")
def theories():
    decl = parse_theory((CORPUS / "mltt.ftt").read_text())
    out = {engine: elaborate(decl, engine) for engine in ("cf", "tt")}
    for th in out.values():
        check_finitary(th)
    return out


def script_text(engine: str, op: str, args: list) -> str:
    prelude = PRELUDE.format(refl_ty="tb, tb" if engine == "cf" else "tb")
    return prelude + f"let out = {op}({', '.join(args)});\nreturn out;\n"


def test_the_generator_draws_every_step():
    assert set(SCRIPT_OPS) == set(STEPS) == set(ARGS)


@pytest.mark.parametrize("engine", ["cf", "tt"])
@pytest.mark.parametrize("op", sorted(STEPS))
def test_every_step_counts_its_arguments(op, engine, theories, tmp_path, capsys):
    row = STEPS[op][engine == "tt"]
    args = ARGS[op] if isinstance(ARGS[op], list) else ARGS[op][engine == "tt"]
    th = theories[engine]

    def run(args):
        return run_script(th, parse_script(script_text(engine, op, args)), engine)

    if not isinstance(row, tuple):
        with pytest.raises(ScriptError) as exc:
            run(args)
        want = "unknown operation" if row is None else row
        assert want in str(exc.value)
        return
    run(args)
    wrong = [args + ["u"]] + ([args[:-1]] if args else [])
    for bad in wrong:
        with pytest.raises(ScriptError, match=f"takes {len(args)} arguments, got {len(bad)}"):
            run(bad)
        script = tmp_path / "bad.fttd"
        script.write_text(script_text(engine, op, bad))
        rc = cli.main(["derive", str(CORPUS / "mltt.ftt"), str(script), "--engine", engine])
        out = capsys.readouterr()
        assert rc == 1 and out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("engine", ["cf", "tt"])
def test_subst_takes_a_boundary(engine, theories):
    """``subst`` plugs a term into an abstracted boundary as into a
    judgement: ``fb`` is  {x : nat} □ type, and the result certifies or
    derives the boundary  □ type."""
    text = script_text(engine, "subst", ["fb", "m"])
    out = run_script(theories[engine], parse_script(text), engine)
    if engine == "cf":
        assert type(out) is cf.CertifiedBoundary and out.payload == plain(IsTyB())
    else:
        assert isinstance(out.conclusion, tt.BdryTT) and out.conclusion.bdry == plain(IsTyB())


@pytest.mark.parametrize("op", ["rule", "apply"])
def test_a_named_step_without_arguments_is_refused(op, theories):
    for engine in ("cf", "tt"):
        with pytest.raises(ScriptError, match="takes a name first"):
            run_script(theories[engine], parse_script(f"let x = {op}();"), engine)


@pytest.mark.parametrize("engine", ["cf", "tt"])
def test_a_boundary_where_a_judgement_is_wanted_is_refused(engine, theories):
    th = theories[engine]
    with pytest.raises(ScriptError, match="b is a boundary, not a judgement"):
        run_script(th, parse_script("let b = bdry_ty(); var x : b;"), engine)
    with pytest.raises(KernelError):  # cf_apply_rule refuses it in cf
        run_script(th, parse_script("let b = bdry_ty(); let s = rule(succ, b);"), engine)


def test_every_failure_of_a_generated_script_is_a_kernel_error(theories):
    gen = ScriptGen(random.Random(1))
    crashes, succeeded = [], {"cf": 0, "tt": 0}
    for _ in range(3000):
        text = gen.script()
        for engine, th in theories.items():
            try:
                run_script(th, parse_script(text), engine)
                succeeded[engine] += 1
            except KernelError:
                pass
            except Exception as exc:  # the failure this test looks for
                crashes.append(f"{engine}: {type(exc).__name__}: {exc}\n{text}")
    assert not crashes, f"{len(crashes)} crashes, the first:\n{crashes[0]}"
    assert all(succeeded.values()), succeeded
