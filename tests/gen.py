"""Seeded random generators for well-scoped expressions and judgements.

Kept deliberately naive and independent of the kernel's own recursion
schemes so they double as structural oracles in property tests.
"""

from __future__ import annotations

import importlib.util
import pathlib
import random

from fintt.syntax import (
    Abstr,
    Abstracted,
    AssumptionSet,
    BoundVar,
    Cls,
    Convert,
    DUMMY,
    EqTm,
    EqTmB,
    EqTy,
    EqTyB,
    ExprArg,
    FreeVar,
    IsTm,
    IsTmB,
    IsTy,
    IsTyB,
    MetaApp,
    MetaArity,
    MetaName,
    Signature,
    SymbolApp,
    SymbolArity,
)


def corpus_signature() -> Signature:
    return Signature(
        [
            ("bool", SymbolArity(Cls.TY, ())),
            ("nat", SymbolArity(Cls.TY, ())),
            ("succ", SymbolArity(Cls.TM, (MetaArity(Cls.TM, 0),))),
            ("Pi", SymbolArity(Cls.TY, (MetaArity(Cls.TY, 0), MetaArity(Cls.TY, 1)))),
            (
                "Id",
                SymbolArity(
                    Cls.TY, (MetaArity(Cls.TY, 0), MetaArity(Cls.TM, 0), MetaArity(Cls.TM, 0))
                ),
            ),
            ("refl", SymbolArity(Cls.TM, (MetaArity(Cls.TY, 0), MetaArity(Cls.TM, 0)))),
        ]
    )


class ExprGen:
    """Builds random well-scoped cf or tt expressions over the corpus
    signature.  ``depth`` bounds recursion; atoms come from a fixed pool."""

    def __init__(self, rng: random.Random, cf: bool = True, metas: dict | None = None):
        self.rng = rng
        self.cf = cf
        self.sig = corpus_signature()
        self.metas = metas or {}
        self.var_pool = ["a", "b", "c", "d"]

    def atom(self, depth: int) -> FreeVar:
        name = self.rng.choice(self.var_pool)
        if self.cf:
            return FreeVar(name, self.ty(max(depth - 2, 0)))
        return FreeVar(name, None)

    def ty(self, depth: int, binders: int = 0):
        choices = ["bool", "nat"]
        if depth > 0:
            choices += ["Pi", "Id"]
        s = self.rng.choice(choices)
        if s in ("bool", "nat"):
            return SymbolApp(s, ())
        if s == "Pi":
            return SymbolApp(
                "Pi",
                (
                    ExprArg(self.ty(depth - 1, binders)),
                    Abstr(ExprArg(self.ty(depth - 1, binders + 1))),
                ),
            )
        return SymbolApp(
            "Id",
            (
                ExprArg(self.ty(depth - 1, binders)),
                ExprArg(self.tm(depth - 1, binders)),
                ExprArg(self.tm(depth - 1, binders)),
            ),
        )

    def tm(self, depth: int, binders: int = 0):
        choices = ["var"]
        if binders > 0:
            choices.append("bound")
        if depth > 0:
            choices += ["succ", "refl"]
            if self.cf:
                choices.append("convert")
        s = self.rng.choice(choices)
        if s == "var":
            return self.atom(depth)
        if s == "bound":
            return BoundVar(self.rng.randrange(binders))
        if s == "succ":
            return SymbolApp("succ", (ExprArg(self.tm(depth - 1, binders)),))
        if s == "refl":
            return SymbolApp(
                "refl",
                (ExprArg(self.ty(depth - 1, binders)), ExprArg(self.tm(depth - 1, binders))),
            )
        return Convert(self.tm(depth - 1, binders), self.aset(depth - 1, binders))

    def aset(self, depth: int, binders: int = 0) -> AssumptionSet:
        fvs = frozenset(self.atom(depth) for _ in range(self.rng.randrange(3)))
        bvs = (
            frozenset(
                self.rng.randrange(binders) for _ in range(self.rng.randrange(2))
            )
            if binders
            else frozenset()
        )
        return AssumptionSet(fvs, bvs, frozenset())

    def thesis(self, depth: int, binders: int = 0):
        kind = self.rng.choice(["isty", "istm", "eqty", "eqtm"])
        by = self.aset(depth, binders) if self.cf else DUMMY
        if kind == "isty":
            return IsTy(self.ty(depth, binders))
        if kind == "istm":
            return IsTm(self.tm(depth, binders), self.ty(depth, binders))
        if kind == "eqty":
            return EqTy(self.ty(depth, binders), self.ty(depth, binders), by)
        return EqTm(self.tm(depth, binders), self.tm(depth, binders), self.ty(depth, binders), by)

    def abstracted(self, depth: int, max_binders: int = 2) -> Abstracted:
        n = self.rng.randrange(max_binders + 1)
        prefix = tuple(self.ty(depth, i) for i in range(n))
        return Abstracted(prefix, self.thesis(depth, n))


class CertGen:
    """Randomly builds certified cf judgements over the corpus theory,
    recording every equation-emitting step for the suitability criterion."""

    def __init__(self, rng: random.Random, theory):
        from fintt import cf_engine as cf
        from fintt.derive import CFDeriver

        self.rng = rng
        self.cf = cf
        self.theory = theory
        self.deriver = CFDeriver(theory)
        self.equation_log: list[tuple[list, object]] = []
        self.fresh = 0
        self.ty_bool = self.deriver.ty(SymbolApp("bool", ()))
        self.ty_nat = self.deriver.ty(SymbolApp("nat", ()))

    def _name(self, base="v"):
        self.fresh += 1
        return f"{base}{self.fresh}"

    def _log(self, premises, out):
        body = out.payload.body
        if isinstance(body, (EqTy, EqTm)):
            self.equation_log.append(([p.payload for p in premises], out.payload))
        return out

    def type_cert(self, depth: int):
        cf = self.cf
        choices = ["bool", "nat"]
        if depth > 0:
            choices += ["Pi", "Id", "Id"]
        match self.rng.choice(choices):
            case "bool":
                return self.ty_bool
            case "nat":
                return self.ty_nat
            case "Pi":
                dom = self.type_cert(depth - 1)
                v = FreeVar(self._name("a"), dom.payload.body.ty)
                cod = self.type_cert(depth - 1)
                fam = cf.cf_abstract_fwd(self.theory, dom, cod, v)
                return cf.cf_apply_rule(self.theory, "Pi", [dom, fam])
            case "Id":
                ty = self.type_cert(depth - 1)
                s = self.term_cert(ty, depth - 1)
                t = self.term_cert(ty, depth - 1)
                return cf.cf_apply_rule(self.theory, "Id", [ty, s, t])

    def var_cert(self, ty_cert):
        v = FreeVar(self._name("a"), ty_cert.payload.body.ty)
        return self.cf.cf_var(self.theory, v, ty_cert)

    def term_cert(self, ty_cert, depth: int):
        """A certified term at exactly the given type."""
        cf = self.cf
        ty = ty_cert.payload.body.ty
        choices = ["var"]
        if depth > 0:
            choices.append("convert")
            if ty == SymbolApp("nat", ()):
                choices.append("succ")
        match self.rng.choice(choices):
            case "var":
                return self.var_cert(ty_cert)
            case "succ":
                inner = self.term_cert(self.ty_nat, depth - 1)
                return cf.cf_apply_rule(self.theory, "succ", [inner])
            case "convert":
                t = self.term_cert(ty_cert, depth - 1)
                eq = self._log([ty_cert, ty_cert], cf.cf_eqty_refl(self.theory, ty_cert, ty_cert))
                return self.cf.cf_conv_tm(self.theory, t, eq)

    def equation_cert(self, depth: int):
        """A certified type or term equation."""
        cf = self.cf
        if self.rng.random() < 0.5:
            a = self.type_cert(depth)
            kind = self.rng.choice(["refl", "sym", "trans"])
            base = self._log([a, a], cf.cf_eqty_refl(self.theory, a, a))
            if kind == "refl":
                return base
            if kind == "sym":
                out = cf.cf_eqty_sym(self.theory, base)
                return out
            out = self._log([base, base], cf.cf_eqty_trans(self.theory, base, base))
            return out
        ty = self.type_cert(max(depth - 1, 0))
        t = self.term_cert(ty, max(depth - 1, 0))
        base = self._log([t, t], cf.cf_eqtm_refl(self.theory, t, t))
        if self.rng.random() < 0.3:
            return cf.cf_eqtm_sym(self.theory, base)
        if self.rng.random() < 0.3:
            return self._log([base, base], cf.cf_eqtm_trans(self.theory, base, base))
        return base

    def reflect_equation(self, depth: int):
        """An equality-reflection instance between two distinct variables."""
        cf = self.cf
        ty = self.type_cert(max(depth - 1, 0))
        s = self.var_cert(ty)
        t = self.var_cert(ty)
        id_ty = cf.cf_apply_rule(self.theory, "Id", [ty, s, t])
        p = self.var_cert(id_ty)
        out = cf.cf_apply_rule(self.theory, "eq_reflect", [ty, s, t, p])
        self._log([ty, s, t, p], out)
        return out

    def judgement_cert(self, depth: int, kind: str | None = None):
        """A certified judgement of the given kind, else of any kind,
        possibly abstracted."""
        cf = self.cf
        if kind is None:
            kind = self.rng.choice(["ty", "tm", "eq", "reflect", "abs"])
        if kind == "ty":
            return self.type_cert(depth)
        if kind == "tm":
            return self.term_cert(self.type_cert(depth - 1 if depth else 0), depth)
        if kind == "eq":
            return self.equation_cert(depth)
        if kind == "reflect":
            return self.reflect_equation(depth)
        ty = self.type_cert(max(depth - 2, 0))
        v = self.var_cert(ty)
        inner = self.rng.choice([self.type_cert(max(depth - 2, 0)), v])
        return cf.cf_abstract_fwd(self.theory, ty, inner, FreeVar(v.payload.body.term.name, ty.payload.body.ty))


def theorygen():
    """The benchmark's generator of seeded theory texts, ``bench/theorygen.py``,
    loaded from its file."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "theorygen.py"
    spec = importlib.util.spec_from_file_location("theorygen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def generated_theory_texts(sizes=(10, 40, 120), seeds=(3, 8, 11, 21)):
    """``bench/theorygen.py`` texts of every variant, for each seed and size."""
    gen = theorygen()
    for seed in seeds:
        for size in sizes:
            for variant in gen.VARIANTS:
                yield gen.TheoryGen(random.Random(seed), size, variant).text


SCRIPT_OPS = (
    "rule", "apply", "abstract", "refl_ty", "refl_tm", "sym_ty", "sym_tm",
    "trans_ty", "trans_tm", "conv", "conv_eq", "subst", "presup",
    "bdry_ty", "bdry_tm", "bdry_eqty", "bdry_eqtm", "strengthen", "invert",
    "uniqueness",
)
META_BOUNDARIES = ("type", "nat", "bool", "{x : nat} nat", "{x : bool} type", "nat == bool")


class ScriptGen:
    """Draws short `.fttd` scripts over the corpus theory (``mltt.ftt``).

    Each step is a ``var`` or ``meta`` declaration or one of the
    interpreter's operations (``SCRIPT_OPS``), with 0-3 arguments drawn from
    the live bindings.  A script opens with a type and a variable of it, and
    the first argument of ``rule`` and ``apply`` is mostly a rule name or a
    declared metavariable, so that many scripts get past their first steps;
    names are never reused."""

    RULES = ("bool", "nat", "succ", "Pi", "Id", "refl", "eq_reflect")

    def __init__(self, rng: random.Random):
        self.rng = rng

    def script(self, max_steps: int = 6) -> str:
        rng = self.rng
        live = ["t0", "v0"]
        metas: list[str] = []
        lines = [f"let t0 = rule({rng.choice(('bool', 'nat'))});", "var v0 : t0;"]
        for i in range(1, rng.randint(1, max_steps) + 1):
            kind = rng.choice(("var", "meta") + SCRIPT_OPS)
            if kind == "var":
                lines.append(f"var x{i} : {rng.choice(live)};")
            elif kind == "meta":
                lines.append(f"meta M{i} : {rng.choice(META_BOUNDARIES)};")
                metas.append(f"M{i}")
                live.append(f"M{i}")
                continue
            else:
                args = [rng.choice(live) for _ in range(rng.randrange(4))]
                heads = {"rule": self.RULES, "apply": metas}.get(kind)
                if heads and rng.random() < 0.8:
                    args[:1] = [rng.choice(heads)]
                lines.append(f"let x{i} = {kind}({', '.join(args)});")
            live.append(f"x{i}")
        return "\n".join(lines + [f"return {live[-1]};"]) + "\n"
