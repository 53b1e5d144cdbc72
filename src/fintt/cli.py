"""Command-line interface.

Exit codes: 0 on success, 1 on a failed check or kernel error, 2 on usage
errors (including parse errors).
"""

from __future__ import annotations

import argparse
import sys

from . import cf_engine as cf
from . import tt_engine as tt
from . import translate
from .derive import TTDeriver
from .errors import (
    ConclusionNotDerivableOverPrefix,
    DuplicateSymbolRule,
    KernelError,
    NotObjectRule,
    ParseError,
)
from .parser import elaborate, parse_script, parse_term, parse_theory
from .printer import print_abstracted, print_expr, print_statement
from .script import run_script
from .syntax import erase
from .theory import check_finitary, check_raw_once, check_standard


def _load_theory(path: str, flavor: str):
    with open(path, encoding="utf-8") as fh:
        decl = parse_theory(fh.read())
    return decl, elaborate(decl, flavor)


def cmd_check(args) -> int:
    decl, theory = _load_theory(args.theory, args.flavor)
    statuses: dict[str, str] = {}
    failed = False
    for r in theory.rules:
        try:
            check_raw_once(theory, r)
            statuses[r.name] = "raw"
        except KernelError as exc:
            statuses[r.name] = f"FAIL {exc}"
            failed = True
    if not failed:
        try:
            check_finitary(theory)
            for r in theory.rules:
                statuses[r.name] = "finitary"
        except ConclusionNotDerivableOverPrefix as exc:
            failed = True
            for r in theory.rules:
                if r.name == exc.rule_name:
                    break
                statuses[r.name] = "finitary"
            statuses[exc.rule_name] = (
                f"FAIL not finitary over the preceding rules: {exc.obligation}"
            )
        except KernelError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if not failed:
        try:
            check_standard(theory)
            for r in theory.rules:
                statuses[r.name] = "standard"
        except (NotObjectRule, DuplicateSymbolRule):
            pass
    for r in theory.rules:
        print(f"RULE {r.name}: {statuses[r.name]}")
    return 1 if failed else 0


def cmd_derive(args) -> int:
    decl, theory = _load_theory(args.theory, args.engine)
    with open(args.script, encoding="utf-8") as fh:
        script = parse_script(fh.read())
    check_finitary(theory)
    runner_out = run_script(theory, script, args.engine)
    if args.engine == "cf":
        print(print_abstracted(runner_out.payload))
    else:
        print(print_statement(runner_out.conclusion))
    return 0


def cmd_translate(args) -> int:
    with open(args.judgement_file, encoding="utf-8") as fh:
        script = parse_script(fh.read())
    decl, theory_tt = _load_theory(args.theory, "tt")
    theory_cf = elaborate(decl, "cf")
    check_finitary(theory_cf)
    check_finitary(theory_tt)
    if args.to == "tt":
        cert = run_script(theory_cf, script, "cf")
        mctx, vctx, deriv = translate.cf_judgement_to_tt(theory_cf, theory_tt, cert)
        tt.check_derivation(theory_tt, deriv)
        for m, b in mctx:
            print(f"meta {m.name} : {print_abstracted(b)}")
        for v, ty in vctx:
            print(f"var {print_expr(v)} : {print_expr(ty)}")
        print(print_abstracted(deriv.conclusion.jdg))
        return 0
    deriv = run_script(theory_tt, script, "tt", annotate_vars=False)
    ttd = TTDeriver(theory_tt)
    mctx, vctx = tt._ctxs(deriv.conclusion)
    mctx_d = ttd.mctx_wf(mctx)
    vctx_d = ttd.vctx_wf(mctx, vctx)
    cert = translate.tt_to_cf(theory_tt, theory_cf, deriv, mctx_d, vctx_d)
    print(print_abstracted(cert.payload))
    return 0


def cmd_natural_type(args) -> int:
    decl, theory = _load_theory(args.theory, "cf")
    check_finitary(theory)
    check_standard(theory)
    term = parse_term(args.term, theory)
    print(print_expr(cf.natural_type_cf(theory, term)))
    return 0


def cmd_erase(args) -> int:
    decl, theory = _load_theory(args.theory, "cf")
    with open(args.judgement_file, encoding="utf-8") as fh:
        script = parse_script(fh.read())
    check_finitary(theory)
    cert = run_script(theory, script, "cf")
    print(print_abstracted(erase(cert.payload)))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="fintt",
        description="A nucleus for user-definable finitary dependent type theories.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check a theory: raw / finitary / standard, per rule")
    p.add_argument("theory")
    p.add_argument("--flavor", choices=["tt", "cf"], default="tt")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("derive", help="run a derivation script")
    p.add_argument("theory")
    p.add_argument("script")
    p.add_argument("--engine", choices=["cf", "tt"], default="cf")
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("translate", help="translate a scripted judgement between presentations")
    p.add_argument("theory")
    p.add_argument("judgement_file")
    p.add_argument("--to", choices=["tt", "cf"], required=True)
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("natural-type", help="the natural type of a term")
    p.add_argument("theory")
    p.add_argument("term")
    p.set_defaults(fn=cmd_natural_type)

    p = sub.add_parser("erase", help="erase a scripted cf judgement")
    p.add_argument("theory")
    p.add_argument("judgement_file")
    p.set_defaults(fn=cmd_erase)

    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
