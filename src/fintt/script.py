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
from .judgements import EMPTY_METAS, EMPTY_VARS, unfill
from .parser import MetaDecl, Scope, Script, Step, VarDecl
from .syntax import FreeVar, IsTy, MetaName
from .theory import Theory


class ScriptError(KernelError):
    pass


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

    def _get(self, name: str):
        if name not in self.bindings:
            raise ScriptError(f"unknown binding {name!r}")
        return self.bindings[name]

    def _getn(self, names, lo: int, hi: int | None = None):
        if hi is None:
            hi = lo
        if not (lo <= len(names) <= hi):
            raise ScriptError(f"expected {lo}..{hi} arguments, got {len(names)}")
        return [self._get(n) for n in names]

    def _align(self, d):
        """Weakens a tt derivation up to the ambient contexts."""
        mctx, vctx = tt._ctxs(d.conclusion)
        if len(mctx) < len(self.mctx):
            if list(self.mctx.entries[: len(mctx)]) != list(mctx.entries):
                raise ScriptError("metavariable contexts diverge")
            for m, b in self.mctx.entries[len(mctx):]:
                d = tt.weaken_meta(self.theory, d, m, b)
        elif mctx != self.mctx:
            raise ScriptError("metavariable contexts diverge")
        mctx, vctx = tt._ctxs(d.conclusion)
        if len(vctx) < len(self.vctx):
            if list(self.vctx.entries[: len(vctx)]) != list(vctx.entries):
                raise ScriptError("variable contexts diverge")
            for v, ty in self.vctx.entries[len(vctx):]:
                d = tt.weaken_var(self.theory, d, v, ty)
        elif vctx != self.vctx:
            raise ScriptError("variable contexts diverge")
        return d

    def _scope(self) -> Scope:
        return Scope(self.theory.signature, dict(self.metas), dict(self.variables))

    # -- running -------------------------------------------------------------

    def run(self, script: Script):
        last = None
        for step in script.steps:
            if isinstance(step, VarDecl):
                last = self._var(step)
            elif isinstance(step, MetaDecl):
                last = self._meta_decl(step)
            else:
                last = self._step(step)
        if script.result is not None:
            return self._get(script.result)
        return last

    def _var(self, step: VarDecl):
        ty_j = self._get(step.type_of)
        if self.engine == "cf":
            body = ty_j.payload.body
            if ty_j.payload.prefix or not isinstance(body, IsTy):
                raise ScriptError(f"{step.type_of} does not prove a type")
            v = FreeVar(step.name, body.ty)
            cert = cf.cf_var(self.theory, v, ty_j)
            self.variables[step.name] = v
            self.bindings[step.name] = cert
            return cert
        ty_j = self._align(ty_j)
        body = ty_j.conclusion.jdg.body
        if ty_j.conclusion.jdg.prefix or not isinstance(body, IsTy):
            raise ScriptError(f"{step.type_of} does not prove a type")
        v = FreeVar(step.name, body.ty if self.annotate_vars else None)
        self.vctx = self.vctx.extend(v, body.ty)
        d = tt.tt_var(self.theory, self.mctx, self.vctx, v)
        self.variables[step.name] = v
        self.bindings[step.name] = d
        return d

    def _meta_decl(self, step: MetaDecl):
        scope = self._scope()
        b = scope.resolve_boundary(step.boundary)
        if self.engine == "cf":
            m = MetaName(step.name, b)
            ann_cert = self._cf_deriver.boundary(b)
            self.metas[step.name] = m
            self.bindings[step.name] = ann_cert
            return ann_cert
        m = MetaName(step.name, b if self.annotate_vars else None)
        self.mctx = self.mctx.extend(m, b)
        self.metas[step.name] = m
        deriver = TTDeriver(self.theory)
        bd = deriver.boundary(self.mctx, EMPTY_VARS, b)
        bd = self._align_boundary(bd)
        self.bindings[step.name] = bd
        return bd

    def _align_boundary(self, d):
        return self._align(d)

    def _step(self, step: Step):
        out = self._dispatch(step)
        self.bindings[step.target] = out
        return out

    def _dispatch(self, step: Step):
        op = step.op
        names = step.args
        th = self.theory
        if self.engine == "cf":
            match op:
                case "rule":
                    rule_name, rest = names[0], self._getn(names[1:], 0, 99)
                    return cf.cf_apply_rule(th, rule_name, rest)
                case "apply":
                    m = self.metas.get(names[0])
                    if m is None:
                        raise ScriptError(f"unknown metavariable {names[0]!r}")
                    terms = self._getn(names[1:], 0, 99)
                    return cf.cf_meta(th, m, terms, annotation_cert=self._get(names[0]))
                case "abstract":
                    ja, j = self._getn(names[:2], 2)
                    v = self.variables.get(names[2])
                    if v is None:
                        raise ScriptError(f"unknown variable {names[2]!r}")
                    return cf.cf_abstract_fwd(th, ja, j, v)
                case "refl_ty":
                    a, b = self._getn(names, 2)
                    return cf.cf_eqty_refl(th, a, b)
                case "refl_tm":
                    s, t = self._getn(names, 2)
                    return cf.cf_eqtm_refl(th, s, t)
                case "sym_ty":
                    (j,) = self._getn(names, 1)
                    return cf.cf_eqty_sym(th, j)
                case "sym_tm":
                    (j,) = self._getn(names, 1)
                    return cf.cf_eqtm_sym(th, j)
                case "trans_ty":
                    a, b = self._getn(names, 2)
                    return cf.cf_eqty_trans(th, a, b)
                case "trans_tm":
                    a, b = self._getn(names, 2)
                    return cf.cf_eqtm_trans(th, a, b)
                case "conv":
                    t, eq = self._getn(names, 2)
                    return cf.cf_conv_tm(th, t, eq)
                case "conv_eq":
                    eq, tyeq = self._getn(names, 2)
                    return cf.cf_conv_eqtm(th, eq, tyeq)
                case "subst":
                    jabs, jt = self._getn(names, 2)
                    return cf.cf_substitute(th, jabs, jt)
                case "subst_bdry":
                    jabs, jt = self._getn(names, 2)
                    return cf.cf_subst_bdry(th, jabs, jt)
                case "presup":
                    (j,) = self._getn(names, 1)
                    return cf.presuppositions_cf(th, j)
                case "bdry_ty":
                    return cf.cf_bdry_ty(th)
                case "bdry_tm":
                    (a,) = self._getn(names, 1)
                    return cf.cf_bdry_tm(th, a)
                case "bdry_eqty":
                    a, b = self._getn(names, 2)
                    return cf.cf_bdry_eqty(th, a, b)
                case "bdry_eqtm":
                    a, s, t = self._getn(names, 3)
                    return cf.cf_bdry_eqtm(th, a, s, t)
                case "strengthen":
                    (j,) = self._getn(names, 1)
                    return cf.strengthen(th, j)
                case "invert":
                    (j,) = self._getn(names, 1)
                    return cf.invert_cf(th, j)
                case "uniqueness":
                    a, b = self._getn(names, 2)
                    return cf.uniqueness_of_typing_cf(th, a, b)
            raise ScriptError(f"unknown cf operation {op!r}")

        # tt engine
        match op:
            case "rule":
                rule_name = names[0]
                rest = [self._align(d) for d in self._getn(names[1:], 0, 99)]
                trule = th.rule(rule_name)
                entries = []
                for (m, _), d in zip(trule.rule.premises, rest):
                    entries.append((m, unfill(d.conclusion.jdg)[1]))
                return tt.specific(
                    th, self.mctx, self.vctx, rule_name, Instantiation(entries), rest
                )
            case "apply":
                m = self.metas.get(names[0])
                if m is None:
                    raise ScriptError(f"unknown metavariable {names[0]!r}")
                terms = [self._align(d) for d in self._getn(names[1:], 0, 99)]
                return tt.tt_meta(th, self.mctx, self.vctx, m, terms)
            case "abstract":
                v = self.variables.get(names[2])
                if v is None:
                    raise ScriptError(f"unknown variable {names[2]!r}")
                if not self.vctx.entries or self.vctx.entries[-1][0] != v:
                    raise ScriptError(
                        "tt abstraction must abstract the most recent variable"
                    )
                j = self._align(self._get(names[1]))
                self.vctx = self.vctx.pop()
                ja = self._align(self._get(names[0]))
                return tt.tt_abstr(th, ja, j, v)
            case "refl_ty":
                (a,) = [self._align(self._get(names[0]))]
                return tt.eqty_refl(th, a)
            case "refl_tm":
                (a,) = [self._align(self._get(names[0]))]
                return tt.eqtm_refl(th, a)
            case "sym_ty":
                return tt.eqty_sym(th, self._align(self._get(names[0])))
            case "sym_tm":
                return tt.eqtm_sym(th, self._align(self._get(names[0])))
            case "trans_ty":
                return tt.eqty_trans(
                    th, self._align(self._get(names[0])), self._align(self._get(names[1]))
                )
            case "trans_tm":
                return tt.eqtm_trans(
                    th, self._align(self._get(names[0])), self._align(self._get(names[1]))
                )
            case "conv":
                return tt.conv_tm(
                    th, self._align(self._get(names[0])), self._align(self._get(names[1]))
                )
            case "conv_eq":
                return tt.conv_eqtm(
                    th, self._align(self._get(names[0])), self._align(self._get(names[1]))
                )
            case "subst":
                return tt.admissible_substitute(
                    th, self._align(self._get(names[0])), self._align(self._get(names[1]))
                )
            case "presup":
                j = self._align(self._get(names[0]))
                deriver = TTDeriver(th)
                mctx_d = deriver.mctx_wf(self.mctx)
                vctx_d = deriver.vctx_wf(self.mctx, self.vctx)
                return tt.presuppositions(th, j, mctx_d, vctx_d)
            case "bdry_ty":
                return tt.bdry_ty(th, self.mctx, self.vctx)
            case "bdry_tm":
                return tt.bdry_tm(th, self._align(self._get(names[0])))
            case "bdry_eqty":
                return tt.bdry_eqty(
                    th, self._align(self._get(names[0])), self._align(self._get(names[1]))
                )
            case "bdry_eqtm":
                return tt.bdry_eqtm(
                    th,
                    self._align(self._get(names[0])),
                    self._align(self._get(names[1])),
                    self._align(self._get(names[2])),
                )
            case "invert":
                return tt.invert(th, self._align(self._get(names[0])))
            case "strengthen":
                raise ScriptError("strengthening is not admissible with contexts")
        raise ScriptError(f"unknown tt operation {op!r}")


def run_script(theory: Theory, script: Script, engine: str, annotate_vars: bool = True):
    return ScriptRunner(theory, engine, annotate_vars).run(script)
