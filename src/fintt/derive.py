"""Deterministic, bounded derivation of theory-checking obligations.

The finitary gate must derive each rule's premise boundaries and conclusion
boundary over the prefix theory.  This module builds those derivations (tt)
and certificates (cf) syntax-directedly: object goals follow natural types,
inserting a conversion when the stated type differs, and equational goals
are closed under reflexivity and matching of specific equality rules whose
object metavariables are fully determined by the conclusion.

This is obligation checking, not proof search: the recursion is bounded and
never backtracks across premise choices.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from operator import itemgetter
from typing import Optional

from . import cf_engine as cf
from . import tt_engine as tt
from .errors import ConclusionNotDerivableOverPrefix, KernelError
from .instantiation import Instantiation, act
from .judgements import (
    EMPTY_METAS,
    EMPTY_VARS,
    MetaCtx,
    VarCtx,
    fill,
    open_judgement,
    plain,
    unfill,
)
from .printer import print_expr_cut
from .syntax import (
    Abstr,
    Abstracted,
    BoundVar,
    Convert,
    EqTm,
    EqTmB,
    EqTy,
    EqTyB,
    Expr,
    ExprArg,
    FreeVar,
    IsTm,
    IsTmB,
    IsTy,
    IsTyB,
    MetaApp,
    MetaName,
    SymbolApp,
    atoms_in_use,
    boundary_arity,
    bv,
    dummy_head,
    erased_equal,
    fresh_name,
)
from .theory import RawRule, Theory, check_raw_once, metavariable_rule_instance


class DeriveError(KernelError):
    pass


MAX_DEPTH = 200


class DepthRefusal(DeriveError):
    """An obligation nested deeper than ``MAX_DEPTH``.  A goal whose every
    candidate rule failed raises this refusal again when one of the
    failures was one, rather than a "no rule" message about the goal."""

    def __init__(self):
        super().__init__("obligation recursion too deep")


SHOWN_LENGTH = 200


def _shown(e: Expr) -> str:
    """``e`` as the printer writes it, cut to ``SHOWN_LENGTH`` characters."""
    return print_expr_cut(e, SHOWN_LENGTH)


def _shown_equation(lhs: Expr, rhs: Expr, ty: Optional[Expr]) -> str:
    text = f"{_shown(lhs)} == {_shown(rhs)}"
    return text if ty is None else f"{text} : {_shown(ty)}"


def _refusal(too_deep: bool, message: str) -> DeriveError:
    """The error for a goal whose every candidate rule failed: the depth
    refusal when one of the failures was one, since it is the deepest
    failure there can be, else ``message``."""
    return DepthRefusal() if too_deep else DeriveError(message)


def _remembered(arity: int):
    """Refuses a goal nested deeper than ``MAX_DEPTH``, and, when the
    deriver has a memo, remembers its successful results for a goal: the
    method's first ``arity`` arguments, then an optional depth.

    A remembered result is taken again only at a depth no greater than the
    one it was derived at: deeper, the fresh search has less room below
    ``MAX_DEPTH`` and might be refused, so it runs again.  Failures are not
    remembered (see ``check_finitary``)."""

    def wrap(goal):
        kind = goal.__name__

        @functools.wraps(goal)
        def method(self, *args):
            depth = args[arity] if len(args) > arity else 0
            if depth > MAX_DEPTH:
                raise DepthRefusal()
            if self.memo is None:
                return goal(self, *args)
            key = (kind, *args[:arity])
            hit = self.memo.get(key)
            if hit is not None and depth <= hit[0]:
                return hit[1]
            out = goal(self, *args)
            if hit is None:
                self.memo[key] = (depth, out)
            return out

        return method

    return wrap


# ---------------------------------------------------------------------------
# First-order matching of rule conclusions


def _generic_spine(depth: int, k: int) -> tuple[Expr, ...]:
    return tuple(BoundVar(depth - 1 - i) for i in range(k))


def _close_solution(e: Expr, depth: int, k: int) -> Optional[object]:
    """Abstracts the innermost ``k`` binders of the match site out of ``e``;
    fails if ``e`` mentions binders outside that window."""
    esc = bv(e)
    if any(i >= k for i in esc):
        return None
    arg: object = ExprArg(e)
    for _ in range(k):
        arg = Abstr(arg)
    return arg


def match_expr(pattern: Expr, subject: Expr, unknowns: dict, sol: dict, depth: int = 0) -> bool:
    """First-order matching; metavariables may only be applied to the generic
    spine of locally bound variables (which rule conclusions always are)."""
    match pattern:
        case MetaApp(meta=m, args=args) if m in unknowns:
            k = len(args)
            if args != _generic_spine(depth, k):
                return False
            closed = _close_solution(subject, depth, k)
            if closed is None:
                return False
            if m in sol:
                return sol[m] == closed
            sol[m] = closed
            return True
        case MetaApp(meta=m, args=args):
            return (
                isinstance(subject, MetaApp)
                and subject.meta == m
                and len(subject.args) == len(args)
                and all(
                    match_expr(p, s, unknowns, sol, depth)
                    for p, s in zip(args, subject.args)
                )
            )
        case SymbolApp(symbol=sname, args=args):
            if not isinstance(subject, SymbolApp) or subject.symbol != sname:
                return False
            if len(subject.args) != len(args):
                return False
            return all(
                _match_arg(p, s, unknowns, sol, depth) for p, s in zip(args, subject.args)
            )
        case BoundVar() | FreeVar():
            return pattern == subject
        case Convert():
            return pattern == subject
    return False


def _match_arg(pattern, subject, unknowns, sol, depth) -> bool:
    while isinstance(pattern, Abstr):
        if not isinstance(subject, Abstr):
            return False
        pattern, subject, depth = pattern.body, subject.body, depth + 1
    if isinstance(subject, Abstr):
        return False
    match pattern, subject:
        case ExprArg(expr=p), ExprArg(expr=s):
            return match_expr(p, s, unknowns, sol, depth)
        case _:
            return pattern == subject


def match_equation(
    rule: RawRule, lhs, rhs, ty: Optional[Expr], unknowns: dict
) -> Optional[dict]:
    """Matches an equality rule's conclusion against a goal equation."""
    sol: dict = {}
    c = rule.conclusion
    if ty is None:
        if not isinstance(c, EqTy):
            return None
        if match_expr(c.lhs, lhs, unknowns, sol) and match_expr(c.rhs, rhs, unknowns, sol):
            return sol
        return None
    if not isinstance(c, EqTm):
        return None
    if (
        match_expr(c.lhs, lhs, unknowns, sol)
        and match_expr(c.rhs, rhs, unknowns, sol)
        and match_expr(c.ty, ty, unknowns, sol)
    ):
        return sol
    return None


_RULE_TABLE = "derive rule table"


def _rule_table(theory: Theory) -> dict:
    """The rules of ``theory`` by conclusion class (``IsTy``, ``IsTm``, or
    ``None`` for equality rules), in theory order, each as (index, name,
    rule, conclusion head or ``None``, unknowns); computed once per theory."""

    def table():
        out: dict = {IsTy: [], IsTm: [], None: []}
        for i, trule in enumerate(theory.rules):
            match trule.rule.conclusion:
                case IsTy(ty=head):
                    cls = IsTy
                case IsTm(term=head):
                    cls = IsTm
                case _:
                    cls = head = None
            out[cls].append((i, trule.name, trule.rule, head, trule.rule.meta_arities()))
        return out

    return theory.cached(_RULE_TABLE, table)


def _first_rules(table: dict, n: int) -> dict:
    """The entries of a rule table for the first ``n`` rules."""
    return {k: v[: bisect_left(v, n, key=itemgetter(0))] for k, v in table.items()}


def _match_eq_rule(rule: RawRule, lhs, rhs, ty, unknowns) -> Optional[dict]:
    """Matches an equality rule against a goal; a term equation may also be
    concluded at a convertible type."""
    sol = match_equation(rule, lhs, rhs, ty, unknowns)
    if sol is None and ty is not None:
        sol = {}
        c = rule.conclusion
        if not (
            isinstance(c, EqTm)
            and match_expr(c.lhs, lhs, unknowns, sol)
            and match_expr(c.rhs, rhs, unknowns, sol)
        ):
            sol = None
    return sol


# ---------------------------------------------------------------------------
# tt-side obligation derivation


class TTDeriver:
    """Derives tt obligations over ``theory``.

    ``memo``, when given, holds the successful results of ``ty``, ``tm``
    and ``boundary`` by goal; it may be shared with derivers over longer
    prefixes of the same theory (see ``check_finitary``).  Without one,
    nothing is remembered: hashing a fresh goal costs more than a one-off
    derivation saves."""

    def __init__(self, theory: Theory, memo: Optional[dict] = None):
        if theory.flavor != "tt":
            raise DeriveError("TTDeriver needs a tt theory")
        self.theory = theory
        self.memo = memo
        self._rules = _rule_table(theory)

    def _fresh(self, mctx, vctx, *stuff) -> FreeVar:
        avoid = set(atoms_in_use(*stuff))
        for v, ty in vctx:
            avoid.add(v.name)
            avoid.update(atoms_in_use(ty))
        return FreeVar(fresh_name("x", frozenset(avoid)))

    def judgement(self, mctx, vctx, j: Abstracted, depth: int = 0):
        if depth > MAX_DEPTH:
            raise DepthRefusal()
        if j.prefix:
            ty_d = self.ty(mctx, vctx, j.prefix[0], depth + 1)
            a = self._fresh(mctx, vctx, j)
            opened = open_judgement(j, a)
            body_d = self.judgement(mctx, vctx.extend(a, j.prefix[0]), opened, depth + 1)
            return tt.tt_abstr(self.theory, ty_d, body_d, a)
        match j.body:
            case IsTy(ty=a):
                return self.ty(mctx, vctx, a, depth + 1)
            case IsTm(term=t, ty=a):
                return self.tm(mctx, vctx, t, a, depth + 1)
            case EqTy(lhs=a, rhs=b):
                return self.eqty(mctx, vctx, a, b, depth + 1)
            case EqTm(lhs=s, rhs=t, ty=a):
                return self.eqtm(mctx, vctx, s, t, a, depth + 1)
        raise DeriveError(f"not a judgement: {j.body!r}")

    @_remembered(3)
    def boundary(self, mctx, vctx, b: Abstracted, depth: int = 0):
        if b.prefix:
            ty_d = self.ty(mctx, vctx, b.prefix[0], depth + 1)
            a = self._fresh(mctx, vctx, b)
            opened = open_judgement(b, a)
            body_d = self.boundary(mctx, vctx.extend(a, b.prefix[0]), opened, depth + 1)
            return tt.bdry_abstr(self.theory, ty_d, body_d, a)
        match b.body:
            case IsTyB():
                return tt.bdry_ty(self.theory, mctx, vctx)
            case IsTmB(ty=a):
                return tt.bdry_tm(self.theory, self.ty(mctx, vctx, a, depth + 1))
            case EqTyB(lhs=a, rhs=c):
                return tt.bdry_eqty(
                    self.theory,
                    self.ty(mctx, vctx, a, depth + 1),
                    self.ty(mctx, vctx, c, depth + 1),
                )
            case EqTmB(lhs=s, rhs=t, ty=a):
                return tt.bdry_eqtm(
                    self.theory,
                    self.ty(mctx, vctx, a, depth + 1),
                    self.tm(mctx, vctx, s, a, depth + 1),
                    self.tm(mctx, vctx, t, a, depth + 1),
                )
        raise DeriveError(f"not a boundary: {b.body!r}")

    @_remembered(3)
    def ty(self, mctx, vctx, a: Expr, depth: int = 0):
        match a:
            case MetaApp(meta=m, args=ts):
                if m not in mctx or not isinstance(mctx[m].body, IsTyB):
                    raise DeriveError(f"{m.name} is not a type metavariable here")
                return self._meta(mctx, vctx, m, list(ts), depth)
            case SymbolApp():
                d, got = self._object_by_rule(mctx, vctx, a, want_ty=True, depth=depth)
                return d
        raise DeriveError(f"cannot derive that {_shown(a)} is a type")

    @_remembered(4)
    def tm(self, mctx, vctx, t: Expr, a: Expr, depth: int = 0):
        match t:
            case FreeVar():
                if t not in vctx:
                    raise DeriveError(f"unknown variable {t.name}")
                d = tt.tt_var(self.theory, mctx, vctx, t)
                return self._convert_to(mctx, vctx, d, vctx[t], a, depth)
            case MetaApp(meta=m, args=ts):
                if m not in mctx or not isinstance(mctx[m].body, IsTmB):
                    raise DeriveError(f"{m.name} is not a term metavariable here")
                d = self._meta(mctx, vctx, m, list(ts), depth)
                got = d.conclusion.jdg.body.ty
                return self._convert_to(mctx, vctx, d, got, a, depth)
            case SymbolApp():
                d, got = self._object_by_rule(mctx, vctx, t, want_ty=False, depth=depth)
                return self._convert_to(mctx, vctx, d, got, a, depth)
        raise DeriveError(f"cannot derive a typing for {_shown(t)}")

    def _convert_to(self, mctx, vctx, d, got: Expr, want: Expr, depth: int):
        if got == want:
            return d
        eq = self.eqty(mctx, vctx, got, want, depth + 1)
        return tt.conv_tm(self.theory, d, eq)

    def _meta(self, mctx, vctx, m: MetaName, ts: list[Expr], depth: int):
        bdry = mctx[m]
        premises, _, _ = metavariable_rule_instance(m, bdry, ts)
        kids = [self.judgement(mctx, vctx, p, depth + 1) for p in premises]
        return tt.tt_meta(self.theory, mctx, vctx, m, kids)

    def _object_by_rule(self, mctx, vctx, e: Expr, want_ty: bool, depth: int):
        """Derives a symbol application via a matching specific object rule,
        returning the derivation and the type it concluded at (terms)."""
        too_deep = False
        for _, name, rule, head, unknowns in self._rules[IsTy if want_ty else IsTm]:
            sol: dict = {}
            if not match_expr(head, e, unknowns, sol):
                continue
            try:
                d = self._apply(mctx, vctx, name, rule, sol, depth)
            except DepthRefusal:
                too_deep = True
                continue
            except KernelError:
                continue
            got = None if want_ty else d.conclusion.jdg.body.ty
            return d, got
        raise _refusal(too_deep, f"no specific rule concludes {_shown(e)}")

    def _apply(self, mctx, vctx, name: str, rule: RawRule, sol: dict, depth: int):
        """Applies a specific rule economically, deriving each premise fill;
        unmatched equality metavariables are filled with dummies and their
        equations derived recursively."""
        entries = []
        kids = []
        for m, b in rule.premises:
            inst = Instantiation(entries)
            b_inst = act(inst, b)
            if m in sol:
                head = sol[m]
            elif boundary_arity(b).cls.is_equality:
                head = dummy_head(len(b.prefix))
            else:
                raise DeriveError(f"object metavariable {m.name} undetermined by matching")
            entries.append((m, head))
            kids.append(self.judgement(mctx, vctx, fill(b_inst, head), depth + 1))
        return tt.specific(self.theory, mctx, vctx, name, Instantiation(entries), kids)

    def eqty(self, mctx, vctx, a: Expr, b: Expr, depth: int = 0):
        if depth > MAX_DEPTH:
            raise DepthRefusal()
        if a == b:
            return tt.eqty_refl(self.theory, self.ty(mctx, vctx, a, depth + 1))
        return self._eq_by_rule(mctx, vctx, a, b, None, depth)

    def eqtm(self, mctx, vctx, s: Expr, t: Expr, a: Expr, depth: int = 0):
        if depth > MAX_DEPTH:
            raise DepthRefusal()
        if s == t:
            return tt.eqtm_refl(self.theory, self.tm(mctx, vctx, s, a, depth + 1))
        return self._eq_by_rule(mctx, vctx, s, t, a, depth)

    def _eq_by_rule(self, mctx, vctx, lhs, rhs, ty, depth):
        """Derives ``lhs == rhs`` (at ``ty`` for terms) by the first equality
        rule concluding it, or else ``rhs == lhs`` and symmetry."""
        too_deep = False
        for flipped, (l, r) in enumerate(((lhs, rhs), (rhs, lhs))):
            for _, name, rule, _, unknowns in self._rules[None]:
                sol = _match_eq_rule(rule, l, r, ty, unknowns)
                if sol is None:
                    continue
                try:
                    d = self._apply(mctx, vctx, name, rule, sol, depth)
                    got = d.conclusion.jdg.body
                    eq = None
                    if ty is not None and got.ty != ty:
                        eq = self.eqty(mctx, vctx, got.ty, ty, depth + 1)
                except DepthRefusal:
                    too_deep = True
                    continue
                except KernelError:
                    continue
                if eq is not None:
                    d = tt.conv_eqtm(self.theory, d, eq)
                if not flipped:
                    return d
                return tt.eqty_sym(self.theory, d) if ty is None else tt.eqtm_sym(self.theory, d)
        raise _refusal(too_deep, f"cannot derive {_shown_equation(lhs, rhs, ty)}")

    def mctx_wf(self, mctx: MetaCtx, depth: int = 0):
        d = tt.mctx_empty(self.theory)
        sofar = EMPTY_METAS
        for m, b in mctx:
            b_d = self.boundary(sofar, EMPTY_VARS, b, depth + 1)
            d = tt.mctx_extend(self.theory, d, b_d, m)
            sofar = sofar.extend(m, b)
        return d

    def vctx_wf(self, mctx: MetaCtx, vctx: VarCtx, depth: int = 0):
        d = tt.vctx_empty(self.theory, mctx)
        sofar = EMPTY_VARS
        for v, ty in vctx:
            ty_d = self.ty(mctx, sofar, ty, depth + 1)
            d = tt.vctx_extend(self.theory, d, ty_d, v)
            sofar = sofar.extend(v, ty)
        return d


# ---------------------------------------------------------------------------
# cf-side obligation derivation


class CFDeriver:
    """Certifies cf obligations over ``theory``; ``memo`` is as for
    ``TTDeriver``."""

    def __init__(self, theory: Theory, memo: Optional[dict] = None):
        if theory.flavor != "cf":
            raise DeriveError("CFDeriver needs a cf theory")
        self.theory = theory
        self.memo = memo
        self._rules = _rule_table(theory)

    def _fresh(self, *stuff) -> str:
        return fresh_name("x", atoms_in_use(*stuff))

    def judgement(self, j: Abstracted, depth: int = 0) -> cf.CertifiedJudgement:
        if depth > MAX_DEPTH:
            raise DepthRefusal()
        if j.prefix:
            ty_c = self.ty(j.prefix[0], depth + 1)
            v = FreeVar(self._fresh(j), j.prefix[0])
            opened = open_judgement(j, v)
            body_c = self.judgement(opened, depth + 1)
            return cf.cf_abstract_fwd(self.theory, ty_c, body_c, v)
        match j.body:
            case IsTy(ty=a):
                return self.ty(a, depth + 1)
            case IsTm(term=t, ty=a):
                return self.tm(t, a, depth + 1)
            case EqTy(lhs=a, rhs=b, by=by):
                d = self.eqty(a, b, depth + 1)
                if d.payload.body != j.body:
                    raise DeriveError("derived equation carries a different assumption set")
                return d
            case EqTm(lhs=s, rhs=t, ty=a, by=by):
                d = self.eqtm(s, t, a, depth + 1)
                if d.payload.body != j.body:
                    raise DeriveError("derived equation carries a different assumption set")
                return d
        raise DeriveError(f"not a judgement: {j.body!r}")

    @_remembered(1)
    def boundary(self, b: Abstracted, depth: int = 0) -> cf.CertifiedBoundary:
        if b.prefix:
            ty_c = self.ty(b.prefix[0], depth + 1)
            v = FreeVar(self._fresh(b), b.prefix[0])
            opened = open_judgement(b, v)
            body_c = self.boundary(opened, depth + 1)
            return cf.cf_abstract_bdry_fwd(self.theory, ty_c, body_c, v)
        match b.body:
            case IsTyB():
                return cf.cf_bdry_ty(self.theory)
            case IsTmB(ty=a):
                return cf.cf_bdry_tm(self.theory, self.ty(a, depth + 1))
            case EqTyB(lhs=a, rhs=c):
                return cf.cf_bdry_eqty(
                    self.theory, self.ty(a, depth + 1), self.ty(c, depth + 1)
                )
            case EqTmB(lhs=s, rhs=t, ty=a):
                return cf.cf_bdry_eqtm(
                    self.theory,
                    self.ty(a, depth + 1),
                    self.tm(s, a, depth + 1),
                    self.tm(t, a, depth + 1),
                )
        raise DeriveError(f"not a boundary: {b.body!r}")

    @_remembered(1)
    def ty(self, a: Expr, depth: int = 0) -> cf.CertifiedJudgement:
        match a:
            case MetaApp(meta=m, args=ts):
                if m.annotation is None or not isinstance(m.annotation.body, IsTyB):
                    raise DeriveError(f"{m.name} is not a type metavariable")
                return self._meta(m, list(ts), depth)
            case SymbolApp():
                c, _ = self._object_by_rule(a, want_ty=True, depth=depth)
                return c
        raise DeriveError(f"cannot derive that {_shown(a)} is a type")

    @_remembered(2)
    def tm(self, t: Expr, a: Expr, depth: int = 0) -> cf.CertifiedJudgement:
        match t:
            case FreeVar(annotation=ann):
                if ann is None:
                    raise DeriveError("bare variable in cf goal")
                ann_c = self.ty(ann, depth + 1)
                c = cf.cf_var(self.theory, t, ann_c)
                return self._convert_to(c, ann, a, depth)
            case MetaApp(meta=m, args=ts):
                if m.annotation is None or not isinstance(m.annotation.body, IsTmB):
                    raise DeriveError(f"{m.name} is not a term metavariable")
                c = self._meta(m, list(ts), depth)
                return self._convert_to(c, c.payload.body.ty, a, depth)
            case SymbolApp():
                c, got = self._object_by_rule(t, want_ty=False, depth=depth)
                return self._convert_to(c, got, a, depth)
            case Convert():
                inner = t.term
                nat = cf.natural_type_cf(self.theory, inner)
                c = self.tm(inner, nat, depth + 1)
                out = self._convert_to(c, nat, a, depth, force=True)
                if out.payload.body.term != t:
                    raise DeriveError("conversion goal carries a different assumption set")
                return out
        raise DeriveError(f"cannot derive a typing for {_shown(t)}")

    def _convert_to(self, c, got: Expr, want: Expr, depth: int, force: bool = False):
        if got == want and not force:
            return c
        eq = self.eqty(got, want, depth + 1)
        return cf.cf_conv_tm(self.theory, c, eq)

    def _meta(self, m: MetaName, ts: list[Expr], depth: int) -> cf.CertifiedJudgement:
        ann_cert = self.boundary(m.annotation, depth + 1)
        premises, _, _ = metavariable_rule_instance(m, m.annotation, ts)
        kids = [self.judgement(p, depth + 1) for p in premises]
        return cf.cf_meta(self.theory, m, kids, annotation_cert=ann_cert)

    def _object_by_rule(self, e: Expr, want_ty: bool, depth: int):
        too_deep = False
        for _, name, rule, head, unknowns in self._rules[IsTy if want_ty else IsTm]:
            sol: dict = {}
            if not match_expr(head, e, unknowns, sol):
                continue
            try:
                c = self._apply(name, rule, sol, depth)
            except DepthRefusal:
                too_deep = True
                continue
            except KernelError:
                continue
            got = None if want_ty else c.payload.body.ty
            return c, got
        raise _refusal(too_deep, f"no specific rule concludes {_shown(e)}")

    def _apply(self, name: str, rule: RawRule, sol: dict, depth: int):
        entries = []
        kids = []
        for m, b in rule.premises:
            inst = Instantiation(entries)
            b_inst = act(inst, b)
            if m in sol:
                head = sol[m]
                kids.append(self.judgement(fill(b_inst, head), depth + 1))
            elif boundary_arity(b).cls.is_equality:
                cert = self.judgement_for_equation_boundary(b_inst, depth + 1)
                kids.append(cert)
                _, head = unfill(cert.payload)
            else:
                raise DeriveError(f"object metavariable {m.name} undetermined by matching")
            entries.append((m, head))
        return cf.cf_apply_rule(self.theory, name, kids)

    def judgement_for_equation_boundary(self, b: Abstracted, depth: int) -> cf.CertifiedJudgement:
        """Derives some judgement filling an equational boundary."""
        if b.prefix:
            ty_c = self.ty(b.prefix[0], depth + 1)
            v = FreeVar(self._fresh(b), b.prefix[0])
            opened = open_judgement(b, v)
            inner = self.judgement_for_equation_boundary(opened, depth + 1)
            return cf.cf_abstract_fwd(self.theory, ty_c, inner, v)
        match b.body:
            case EqTyB(lhs=a, rhs=c):
                return self.eqty(a, c, depth + 1)
            case EqTmB(lhs=s, rhs=t, ty=a):
                return self.eqtm(s, t, a, depth + 1)
        raise DeriveError("expected an equational boundary")

    def eqty(self, a: Expr, b: Expr, depth: int = 0) -> cf.CertifiedJudgement:
        if depth > MAX_DEPTH:
            raise DepthRefusal()
        if erased_equal(a, b):
            return cf.cf_eqty_refl(
                self.theory, self.ty(a, depth + 1), self.ty(b, depth + 1)
            )
        return self._eq_by_rule(a, b, None, depth)

    def eqtm(self, s: Expr, t: Expr, a: Expr, depth: int = 0) -> cf.CertifiedJudgement:
        if depth > MAX_DEPTH:
            raise DepthRefusal()
        if erased_equal(s, t):
            return cf.cf_eqtm_refl(
                self.theory, self.tm(s, a, depth + 1), self.tm(t, a, depth + 1)
            )
        return self._eq_by_rule(s, t, a, depth)

    def _eq_by_rule(self, lhs, rhs, ty, depth):
        """Certifies ``lhs == rhs`` (at ``ty`` for terms) by the first
        equality rule concluding it, or else ``rhs == lhs`` and symmetry."""
        too_deep = False
        for flipped, (l, r) in enumerate(((lhs, rhs), (rhs, lhs))):
            for _, name, rule, _, unknowns in self._rules[None]:
                sol = _match_eq_rule(rule, l, r, ty, unknowns)
                if sol is None:
                    continue
                try:
                    cert = self._apply(name, rule, sol, depth)
                    got = cert.payload.body
                    eq = None
                    if ty is not None and got.ty != ty:
                        eq = self.eqty(got.ty, ty, depth + 1)
                except DepthRefusal:
                    too_deep = True
                    continue
                except KernelError:
                    continue
                if eq is not None:
                    cert = cf.cf_conv_eqtm(self.theory, cert, eq)
                if not flipped:
                    return cert
                return cf.cf_eqty_sym(self.theory, cert) if ty is None else cf.cf_eqtm_sym(self.theory, cert)
        raise _refusal(too_deep, f"cannot derive {_shown_equation(lhs, rhs, ty)}")


# ---------------------------------------------------------------------------
# The finitary gate


def check_finitary(theory: Theory) -> None:
    """Validates each rule over the prefix theory and caches the witnesses.

    tt theories get  |- mctx  and conclusion-boundary derivations; cf
    theories get premise-boundary and conclusion-boundary certificates.

    The derivers of all prefixes share one memo for the pass, so an
    obligation met over one prefix (``A type``, a metavariable's annotation
    boundary, ...) is not derived again for every later rule.  Reuse is
    sound because derivability only grows with the prefix: a derivation or
    certificate over the first i rules is one over the first j >= i rules,
    and ``cf_engine`` accepts certificates over a shorter prefix of the same
    theory in O(1).  Failures are not remembered, since a goal refused over
    one prefix may be met over a longer one.  The memo is dropped when the
    pass ends.
    """
    for r in theory.rules:
        check_raw_once(theory, r)
    witnesses: dict = {}
    memo: dict = {}
    table = _rule_table(theory)
    for i, r in enumerate(theory.rules):
        prefix = theory.prefix(i)
        prefix.finitary_witnesses = dict(witnesses)
        prefix.cached(_RULE_TABLE, lambda: _first_rules(table, i))
        if theory.flavor == "tt":
            deriver = TTDeriver(prefix, memo)
            mctx = MetaCtx(list(r.rule.premises))
            try:
                mctx_d = deriver.mctx_wf(mctx)
                bdry_thesis, _ = unfill(plain(r.rule.conclusion))
                bdry_d = deriver.boundary(mctx, EMPTY_VARS, bdry_thesis)
            except KernelError as exc:
                raise ConclusionNotDerivableOverPrefix(r.name, str(exc)) from exc
            witnesses[r.name] = {"mctx": mctx_d, "boundary": bdry_d}
        else:
            deriver = CFDeriver(prefix, memo)
            try:
                prem_certs = [deriver.boundary(b) for _, b in r.rule.premises]
                bdry_thesis, _ = unfill(plain(r.rule.conclusion))
                bdry_c = deriver.boundary(bdry_thesis)
            except KernelError as exc:
                raise ConclusionNotDerivableOverPrefix(r.name, str(exc)) from exc
            witnesses[r.name] = {"premise_boundaries": prem_certs, "boundary": bdry_c}
    theory.finitary_witnesses = witnesses
