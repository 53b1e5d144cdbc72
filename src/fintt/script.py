"""The script interpreter: runs `.fttd` derivation-construction programs
against either engine.  Steps name kernel constructors one-to-one, so a
script doubles as a trace of the kernel API.

In tt mode the interpreter maintains the ambient contexts: `var` and `meta`
declarations extend them, and judgement arguments are weakened up to the
current context before a rule is applied (contexts only ever grow, so any
two bindings' contexts are prefix-ordered).
"""

from __future__ import annotations

from . import cf_engine as cf
from . import tt_engine as tt
from .derive import CFDeriver, TTDeriver
from .errors import KernelError
from .instantiation import Instantiation
from .judgements import EMPTY_METAS, EMPTY_VARS, head_of
from .parser import MetaDecl, Scope, Script, Step, VarDecl
from .syntax import FreeVar, IsTy, MetaName
from .theory import Theory


class ScriptError(KernelError):
    pass


NAMED = -1  # the count of a step taking a name, then a binding per premise or binder

# Each operation once: per engine, its argument count and its constructor, or
# None where the engine lacks it, or the reason the engine refuses it.  A
# kernel constructor takes the theory and the bindings its arguments name; a
# constructor named by a string is a method of the runner, which reads its
# own arguments.
STEPS = {
    #              cf                                   tt
    "rule":       ((NAMED, "_rule"),                    (NAMED, "_rule")),
    "apply":      ((NAMED, "_apply"),                   (NAMED, "_apply")),
    "abstract":   ((3, "_abstract"),                    (3, "_abstract")),
    "refl_ty":    ((2, cf.cf_eqty_refl),                (1, tt.eqty_refl)),
    "refl_tm":    ((2, cf.cf_eqtm_refl),                (1, tt.eqtm_refl)),
    "sym_ty":     ((1, cf.cf_eqty_sym),                 (1, tt.eqty_sym)),
    "sym_tm":     ((1, cf.cf_eqtm_sym),                 (1, tt.eqtm_sym)),
    "trans_ty":   ((2, cf.cf_eqty_trans),               (2, tt.eqty_trans)),
    "trans_tm":   ((2, cf.cf_eqtm_trans),               (2, tt.eqtm_trans)),
    "conv":       ((2, cf.cf_conv_tm),                  (2, tt.conv_tm)),
    "conv_eq":    ((2, cf.cf_conv_eqtm),                (2, tt.conv_eqtm)),
    "subst":      ((2, cf.cf_substitute),               (2, tt.admissible_substitute)),
    "presup":     ((1, cf.presuppositions_cf),          (1, "_tt_presup")),
    "bdry_ty":    ((0, cf.cf_bdry_ty),                  (0, "_tt_bdry_ty")),
    "bdry_tm":    ((1, cf.cf_bdry_tm),                  (1, tt.bdry_tm)),
    "bdry_eqty":  ((2, cf.cf_bdry_eqty),                (2, tt.bdry_eqty)),
    "bdry_eqtm":  ((3, cf.cf_bdry_eqtm),                (3, tt.bdry_eqtm)),
    "strengthen": ((1, cf.strengthen),                  "strengthening is not admissible with contexts"),
    "invert":     ((1, cf.invert_cf),                   (1, tt.invert)),
    "uniqueness": ((2, cf.uniqueness_of_typing_cf),     None),
}


class ScriptRunner:
    def __init__(self, theory: Theory, engine: str, annotate_vars: bool = True):
        if engine not in ("cf", "tt"):
            raise ScriptError("engine must be 'cf' or 'tt'")
        if theory.flavor != engine:
            raise ScriptError(f"theory flavour {theory.flavor!r} does not match engine {engine!r}")
        self.theory = theory
        self.engine = engine
        self.annotate_vars = annotate_vars
        self.bindings: dict[str, object] = {}
        self.variables: dict[str, FreeVar] = {}
        self.metas: dict[str, MetaName] = {}
        self.mctx = EMPTY_METAS
        self.vctx = EMPTY_VARS
        self._cf_deriver = CFDeriver(theory) if engine == "cf" else None

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _lookup(table: dict, name: str, what: str):
        if name not in table:
            raise ScriptError(f"unknown {what} {name!r}")
        return table[name]

    def _arg(self, name: str):
        """The binding ``name``, weakened up to the ambient contexts in tt mode."""
        d = self._lookup(self.bindings, name, "binding")
        return d if self.engine == "cf" else self._align(d)

    def _judgement(self, name: str, d):
        """The abstracted judgement that the binding ``d`` of ``name`` proves."""
        if self.engine == "cf":
            if isinstance(d, cf.CertifiedJudgement):
                return d.payload
        elif isinstance(d.conclusion, tt.JdgTT):
            return d.conclusion.jdg
        raise ScriptError(f"{name} is a boundary, not a judgement")

    def _align(self, d):
        """Weakens a tt derivation up to the ambient contexts."""
        ambient = ((self.mctx, tt.weaken_metas, "metavariable"), (self.vctx, tt.weaken_vars, "variable"))
        for i, (ctx, weaken, what) in enumerate(ambient):
            own = tt._ctxs(d.conclusion)[i].entries
            if own != ctx.entries[: len(own)]:
                raise ScriptError(f"{what} contexts diverge")
            d = weaken(self.theory, d, ctx.entries[len(own):])
        return d

    # -- running -------------------------------------------------------------

    def run(self, script: Script):
        last = None
        for step in script.steps:
            if isinstance(step, VarDecl):
                name, last = step.name, self._var(step)
            elif isinstance(step, MetaDecl):
                name, last = step.name, self._meta_decl(step)
            else:
                name, last = step.target, self._dispatch(step)
            self.bindings[name] = last
        if script.result is not None:
            return self._lookup(self.bindings, script.result, "binding")
        return last

    def _var(self, step: VarDecl):
        ty_j = self._arg(step.type_of)
        j = self._judgement(step.type_of, ty_j)
        if j.prefix or not isinstance(j.body, IsTy):
            raise ScriptError(f"{step.type_of} does not prove a type")
        if self.engine == "cf":
            v = FreeVar(step.name, j.body.ty)
            out = cf.cf_var(self.theory, v, ty_j)
        else:
            v = FreeVar(step.name, j.body.ty if self.annotate_vars else None)
            if v in self.vctx:
                raise ScriptError(f"variable {step.name} is declared twice")
            self.vctx = self.vctx.extend(v, j.body.ty)
            out = tt.tt_var(self.theory, self.mctx, self.vctx, v)
        self.variables[step.name] = v
        return out

    def _meta_decl(self, step: MetaDecl):
        scope = Scope(self.theory.signature, dict(self.metas), dict(self.variables))
        b = scope.resolve_boundary(step.boundary)
        if self.engine == "cf":
            m = MetaName(step.name, b)
            out = self._cf_deriver.boundary(b)
        else:
            m = MetaName(step.name, b if self.annotate_vars else None)
            if m in self.mctx:
                raise ScriptError(f"metavariable {step.name} is declared twice")
            self.mctx = self.mctx.extend(m, b)
            out = self._align(TTDeriver(self.theory).boundary(self.mctx, EMPTY_VARS, b))
        self.metas[step.name] = m
        return out

    def _dispatch(self, step: Step):
        rows = STEPS.get(step.op)
        row = rows and rows[self.engine == "tt"]
        if row is None:
            raise ScriptError(f"unknown operation {step.op!r} on the {self.engine} engine")
        if isinstance(row, str):
            raise ScriptError(row)
        count, make = row
        op, names = step.op, step.args
        if count == NAMED:
            if not names:
                raise ScriptError(f"{op} takes a name first, got no arguments")
            op, count = f"{op} {names[0]}", 1 + self._arity(op, names[0])
        if len(names) != count:
            raise ScriptError(f"{op} takes {count} arguments, got {len(names)}")
        if isinstance(make, str):
            return getattr(self, make)(*names)
        return make(self.theory, *[self._arg(n) for n in names])

    def _arity(self, op: str, name: str) -> int:
        """How many premises the rule ``name`` has, or how many binders the
        boundary of the metavariable ``name`` has."""
        if op == "rule":
            return len(self.theory.rule(name).rule.premises)
        m = self._lookup(self.metas, name, "metavariable")
        return len((m.annotation if self.engine == "cf" else self.mctx[m]).prefix)

    # -- the hand-written steps ----------------------------------------------

    def _rule(self, rule_name: str, *names: str):
        prems = [self._arg(n) for n in names]
        if self.engine == "cf":
            return cf.cf_apply_rule(self.theory, rule_name, prems)
        premises = self.theory.rule(rule_name).rule.premises
        heads = [head_of(self._judgement(n, d)) for n, d in zip(names, prems)]
        inst = Instantiation([(m, head) for (m, _), head in zip(premises, heads)])
        return tt.specific(self.theory, self.mctx, self.vctx, rule_name, inst, prems)

    def _apply(self, meta: str, *names: str):
        m = self._lookup(self.metas, meta, "metavariable")
        terms = [self._arg(n) for n in names]
        if self.engine == "cf":
            return cf.cf_meta(self.theory, m, terms, annotation_cert=self._arg(meta))
        return tt.tt_meta(self.theory, self.mctx, self.vctx, m, terms)

    def _abstract(self, ty: str, body: str, var: str):
        v = self._lookup(self.variables, var, "variable")
        if self.engine == "cf":
            return cf.cf_abstract_fwd(self.theory, self._arg(ty), self._arg(body), v)
        if not self.vctx.entries or self.vctx.entries[-1][0] != v:
            raise ScriptError("tt abstraction must abstract the most recent variable")
        j = self._arg(body)
        self.vctx = self.vctx.pop()
        return tt.tt_abstr(self.theory, self._arg(ty), j, v)

    def _tt_presup(self, name: str):
        j, deriver = self._arg(name), TTDeriver(self.theory)
        ctxs = deriver.mctx_wf(self.mctx), deriver.vctx_wf(self.mctx, self.vctx)
        return tt.presuppositions(self.theory, j, *ctxs)

    def _tt_bdry_ty(self):
        return tt.bdry_ty(self.theory, self.mctx, self.vctx)


def run_script(theory: Theory, script: Script, engine: str, annotate_vars: bool = True):
    return ScriptRunner(theory, engine, annotate_vars).run(script)
