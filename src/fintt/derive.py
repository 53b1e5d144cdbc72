"""Deterministic, bounded derivation of theory-checking obligations.

The finitary gate must derive each rule's premise boundaries and conclusion
boundary over the prefix theory, and the cf -> tt translation derives the
erasure of a certificate whose record it cannot replay.  One
syntax-directed search, ``Deriver``, does this for both presentations:
object goals follow natural types, inserting a conversion
when the stated type differs, and equational goals are closed under
reflexivity and matching of specific equality rules whose object
metavariables are fully determined by the conclusion.  A goal carries
the contexts it is derived in as one value ``cx``: the metavariable and the
variable context for tt, none for cf, whose atoms carry their types.  Two
step adapters build what the search decides: ``TTDeriver`` a tt derivation
node, ``CFDeriver`` a cf certificate.

This is obligation checking, not proof search: the recursion is bounded and
never backtracks across premise choices.  Each level of a goal costs one
unit of ``MAX_DEPTH``, and a term costs the search three Python frames per
level of nesting, so a refusal always comes before Python's recursion
limit.  A premise object metavariable that matching leaves open is refused.

Each deriver remembers the results of its ``ty``, ``tm`` and ``boundary``
goals, so a goal met twice in one call (both sides of a reflexivity, the
type of each annotated variable) is derived once.  The memo is exact: a hit
is what the search without it derives at that depth.  Within one pass of
the gate the derivers of all prefixes share a memo, and the tt deriver
extends the metavariable-context chain already built for the longest
remembered prefix of a rule's premises instead of rebuilding it.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Optional

from . import cf_engine as cf
from . import tt_engine as tt
from .errors import ConclusionNotDerivableOverPrefix, KernelError
from .instantiation import Instantiation, act
from .judgements import (
    EMPTY_VARS,
    MetaCtx,
    VarCtx,
    fill,
    head_of,
    open_judgement,
    plain,
    unfill,
)
from .printer import SHOWN_LENGTH, print_expr_cut
from .syntax import (
    Abstr,
    Abstracted,
    AsmArg,
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
    bv,
    dummy_head,
    erased_equal,
    fresh_name,
    mv,
)
from .theory import RawRule, Theory, check_raw_once, generic_application, metavariable_rule_instance


class DeriveError(KernelError):
    pass


MAX_DEPTH = 200


class DepthRefusal(DeriveError):
    """An obligation nested deeper than ``MAX_DEPTH``.  A goal whose every
    candidate rule failed raises this refusal again when one of the
    failures was one, rather than a "no rule" message about the goal."""

    def __init__(self):
        super().__init__("obligation recursion too deep")


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


def _limit(depth: int) -> None:
    """Refuses a goal nested deeper than ``MAX_DEPTH``."""
    if depth > MAX_DEPTH:
        raise DepthRefusal()


def _goal(search):
    """The public entry to the search goal ``search``.  Callers pass the
    deriver's contexts one by one (``CONTEXTS`` of them), then the goal's
    arguments; ``search`` gets the contexts as one value ``cx`` and starts at
    depth 0.  Within the search, goals call each other's private methods
    directly, so that each level of a term costs few Python frames."""

    def entry(self, *args):
        c = self.CONTEXTS
        return search(self, args[:c], *args[c:], 0)

    entry.__doc__ = search.__doc__
    return entry


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
        case BoundVar() | FreeVar() | Convert():
            return pattern == subject
    return False


def _match_arg(pattern, subject, unknowns, sol, depth) -> bool:
    whole_pattern, whole_subject = pattern, subject
    while isinstance(pattern, Abstr):
        if not isinstance(subject, Abstr):
            return False
        pattern, subject, depth = pattern.body, subject.body, depth + 1
    if isinstance(subject, Abstr):
        return False
    match pattern, subject:
        case ExprArg(expr=p), ExprArg(expr=s):
            return match_expr(p, s, unknowns, sol, depth)
        case AsmArg(assumptions=a), AsmArg() if pattern != subject and len(a.metas) == 1:
            return _solve_equation(whole_pattern, whole_subject, *a.metas, unknowns, sol)
        case _:
            return pattern == subject


def _solve_equation(pattern, subject, m: MetaName, unknowns: dict, sol: dict) -> bool:
    """An assumption set under the binders of ``pattern``, the generic head
    of the unknown equality metavariable ``m``, with no index escaping them,
    solves ``m`` to itself: the search then derives the equation it states."""
    if m not in unknowns or pattern != generic_application(m, unknowns[m], "cf") or bv(subject):
        return False
    if m in sol:
        return sol[m] == subject
    sol[m] = subject
    return True


def read_arguments(head: SymbolApp, generic: tuple, e: Expr) -> Optional[dict]:
    """What ``match_expr(head, e, ...)`` solves, for a rule whose head
    applies its symbol to the generic application of each premise
    (``generic`` is the rule's ``RuleParts.generic``), read straight off the
    arguments of ``e``; None where matching fails.  An object premise binding
    k variables is solved by its argument itself, which must be an
    expression under exactly k binders with no index escaping them.  An
    equality premise's argument that is its pattern solves nothing; any
    other is solved the same way, and must be of its pattern's class (an
    assumption set, as tt has only the pattern ``*``).  ``Deriver._apply``
    derives the equation that a solved equality premise states, so the rule
    is taken only where the derived head is the argument."""
    if type(e) is not SymbolApp or e.symbol != head.symbol or len(e.args) != len(generic):
        return None
    sol = {}
    for (m, k, is_object), pattern, arg in zip(generic, head.args, e.args):
        if arg is pattern and not is_object:
            continue
        core, want = arg, pattern
        for _ in range(k):
            if type(core) is not Abstr:
                return None
            core, want = core.body, want.body
        if type(core) is not type(want) or bv(arg):
            return None
        sol[m] = arg
    return sol


def match_equation(
    rule: RawRule, lhs, rhs, ty: Optional[Expr], unknowns: dict
) -> Optional[dict]:
    """Matches an equality rule's conclusion against a goal equation.  A term
    equation may also be concluded at a convertible type: if the rule's type
    does not match ``ty``, the solution is what the two sides determine."""
    sol: dict = {}
    c = rule.conclusion
    if not (
        isinstance(c, EqTy if ty is None else EqTm)
        and match_expr(c.lhs, lhs, unknowns, sol)
        and match_expr(c.rhs, rhs, unknowns, sol)
    ):
        return None
    if ty is None:
        return sol
    typed = dict(sol)
    return typed if match_expr(c.ty, ty, unknowns, typed) else sol


_RULE_TABLE = "derive rule table"


def rule_table(theory: Theory) -> dict:
    """The rules of ``theory`` by conclusion class (``IsTy``, ``IsTm``, or
    ``None`` for equality rules), in theory order, each as (index, name,
    rule, conclusion head or ``None``, unknowns, and ``RuleParts.generic``
    for object rules, else ``None``); computed once per theory."""

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
            rule = trule.rule
            generic = None if cls is None else rule.parts.generic
            out[cls].append((i, trule.name, rule, head, rule.meta_arities(), generic))
        return out

    return theory.cached(_RULE_TABLE, table)


def _first_rules(table: dict, n: int) -> dict:
    """The entries of a rule table for the first ``n`` rules."""
    return {k: v[: bisect_left(v, n, key=itemgetter(0))] for k, v in table.items()}


# ---------------------------------------------------------------------------
# The search, shared by both presentations

_KIND = {IsTyB: "type", IsTmB: "term"}
# The steps whose engine constructors take the same arguments in both.
_SAME_STEPS = ("bdry_ty", "bdry_tm", "bdry_eqty", "bdry_eqtm",
               "conv_tm", "conv_eqtm", "eqty_sym", "eqtm_sym")


class Deriver:
    """The obligation search over ``theory``.  A subclass adapts it to one
    engine: ``CONTEXTS`` is how many contexts a goal is derived in,
    ``STEPS`` names the engine's constructor for each step of ``_SAME_STEPS``
    and for abstraction, one step for judgements and boundaries alike, and
    the methods ``_bind``, ``_var``, ``_meta``, ``_rule``, ``_refl``,
    ``_body``, ``_head`` and ``_as_stated`` build or read the steps that
    differ.

    ``memo`` holds the successful results of ``ty``, ``tm`` and
    ``boundary`` by goal; a deriver makes its own unless it is given one to
    share with derivers over longer prefixes of the same theory (see
    ``check_finitary``).  The memo is exact: a result is remembered only if
    no search below it caught a depth refusal, and is taken again only at a
    depth no greater than its own, so a hit is what the search without the
    memo derives there."""

    FLAVOR: str
    CONTEXTS: int
    ENGINE: object
    STEPS: dict

    def __init__(self, theory: Theory, memo: Optional[dict] = None):
        if theory.flavor != self.FLAVOR:
            raise DeriveError(f"{type(self).__name__} needs a {self.FLAVOR} theory")
        self.theory = theory
        self.memo = {} if memo is None else memo
        self._refused = 0  # depth refusals caught so far
        self._rules = rule_table(theory)

    def _step(self, step: str, *args):
        """The engine's constructor for ``step``, looked up on the engine
        module at each call, so that a wrapper installed there sees it."""
        return getattr(self.ENGINE, self.STEPS[step])(self.theory, *args)

    def _recall(self, key: tuple, depth: int):
        """The result remembered for the goal ``key``, if it may be taken at
        ``depth``; else None.  A goal nested deeper than ``MAX_DEPTH`` is
        refused.  A remembered result is taken again only at a depth no
        greater than the one it was derived at: deeper, the fresh search has
        less room below ``MAX_DEPTH`` and might be refused, so it runs
        again."""
        _limit(depth)
        hit = self.memo.get(key)
        return hit[1] if hit is not None and depth <= hit[0] else None

    def _remember(self, key: tuple, depth: int, refused: int, out):
        """Remembers ``out`` for the goal ``key``, derived at ``depth`` after
        ``_recall`` found no entry at least as deep, unless the search caught
        a depth refusal since ``_refused`` read ``refused``: a shallower
        search might then succeed with an earlier candidate.  Failures are
        never remembered (see ``check_finitary``)."""
        if self._refused == refused:
            self.memo[key] = (depth, out)
        return out

    def _under_binder(self, cx, j: Abstracted, inner, depth: int):
        """``inner`` of ``j`` opened at a fresh atom, then abstracted."""
        ty_w = self._ty(cx, j.prefix[0], depth + 1)
        atom, inner_cx = self._bind(cx, j)
        body = inner(inner_cx, open_judgement(j, atom), depth + 1)
        return self._step("abstract", ty_w, body, atom)

    def _judgement(self, cx, j: Abstracted, depth: int):
        _limit(depth)
        if j.prefix:
            return self._under_binder(cx, j, self._judgement, depth)
        match j.body:
            case IsTy(ty=a):
                return self._ty(cx, a, depth + 1)
            case IsTm(term=t, ty=a):
                return self._tm(cx, t, a, depth + 1)
            case EqTy(lhs=a, rhs=b):
                return self._as_stated(self._eqty(cx, a, b, depth + 1), j.body)
            case EqTm(lhs=s, rhs=t, ty=a):
                return self._as_stated(self._eqtm(cx, s, t, a, depth + 1), j.body)
        raise DeriveError(f"not a judgement: {j.body!r}")

    def _boundary(self, cx, b: Abstracted, depth: int):
        key = ("boundary", cx, b)
        out = self._recall(key, depth)
        if out is not None:
            return out
        refused = self._refused
        if b.prefix:
            out = self._under_binder(cx, b, self._boundary, depth)
        else:
            match b.body:
                case IsTyB():
                    out = self._step("bdry_ty", *cx)
                case IsTmB(ty=a):
                    out = self._step("bdry_tm", self._ty(cx, a, depth + 1))
                case EqTyB(lhs=a, rhs=c):
                    out = self._step(
                        "bdry_eqty", self._ty(cx, a, depth + 1), self._ty(cx, c, depth + 1)
                    )
                case EqTmB(lhs=s, rhs=t, ty=a):
                    out = self._step(
                        "bdry_eqtm",
                        self._ty(cx, a, depth + 1),
                        self._tm(cx, s, a, depth + 1),
                        self._tm(cx, t, a, depth + 1),
                    )
                case _:
                    raise DeriveError(f"not a boundary: {b.body!r}")
        return self._remember(key, depth, refused, out)

    def _equation(self, cx, b: Abstracted, depth: int):
        """Derives some judgement filling the equational boundary ``b``."""
        _limit(depth)
        if b.prefix:
            return self._under_binder(cx, b, self._equation, depth)
        match b.body:
            case EqTyB(lhs=a, rhs=c):
                return self._eqty(cx, a, c, depth + 1)
            case EqTmB(lhs=s, rhs=t, ty=a):
                return self._eqtm(cx, s, t, a, depth + 1)
        raise DeriveError("expected an equational boundary")

    def _ty(self, cx, a: Expr, depth: int):
        key = ("ty", cx, a)
        out = self._recall(key, depth)
        if out is not None:
            return out
        refused = self._refused
        match a:
            case MetaApp():
                out = self._meta(cx, a, IsTyB, depth)
            case SymbolApp():
                out = self._object_by_rule(cx, a, IsTy, depth)[0]
            case _:
                raise DeriveError(f"cannot derive that {_shown(a)} is a type")
        return self._remember(key, depth, refused, out)

    def _tm(self, cx, t: Expr, a: Expr, depth: int):
        key = ("tm", cx, t, a)
        out = self._recall(key, depth)
        if out is not None:
            return out
        refused = self._refused
        match t:
            case FreeVar():
                w, got = self._var(cx, t, depth)
            case MetaApp():
                w = self._meta(cx, t, IsTmB, depth)
                got = self._body(w).ty
            case SymbolApp():
                w, got = self._object_by_rule(cx, t, IsTm, depth)
            case Convert():
                return self._remember(key, depth, refused, self._convert_goal(cx, t, a, depth))
            case _:
                raise DeriveError(f"cannot derive a typing for {_shown(t)}")
        return self._remember(key, depth, refused, self._convert_to(cx, w, got, a, depth))

    def _convert_goal(self, cx, t: Convert, a: Expr, depth: int):
        """A conversion term: only the context-free presentation has them."""
        raise DeriveError(f"cannot derive a typing for {_shown(t)}")

    def _convert_to(self, cx, w, got: Expr, want: Expr, depth: int):
        if got == want:
            return w
        return self._step("conv_tm", w, self._eqty(cx, got, want, depth + 1))

    def _meta_premises(self, cx, e: MetaApp, bdry: Abstracted, depth: int) -> list:
        premises, _, _ = metavariable_rule_instance(e.meta, bdry, list(e.args))
        return [self._tm(cx, p.body.term, p.body.ty, depth + 1) for p in premises]

    def _object_by_rule(self, cx, e: Expr, cls, depth: int):
        """Derives a symbol application via a matching specific object rule
        concluding ``cls``, returning the witness and the type it concluded
        at (terms).  A symbol rule's instantiation is read off the arguments
        of ``e`` (``read_arguments``), any other rule's is matched."""
        too_deep = False
        for _, name, rule, head, unknowns, generic in self._rules[cls]:
            if generic is not None:
                sol = read_arguments(head, generic, e)
            else:
                sol = {}
                if not match_expr(head, e, unknowns, sol):
                    sol = None
            if sol is None:
                continue
            try:
                w = self._apply(cx, name, rule, sol, depth)
            except DepthRefusal:
                too_deep = True
                self._refused += 1
                continue
            except KernelError:
                continue
            return w, (None if cls is IsTy else self._body(w).ty)
        raise _refusal(too_deep, f"no specific rule concludes {_shown(e)}")

    def _apply(self, cx, name: str, rule: RawRule, sol: dict, depth: int):
        """Applies a specific rule economically, deriving each premise fill
        one level down.  An equality metavariable left unmatched gets the
        fill of its boundary that the search derives; an object one is
        refused.  A binder-free object fill goes straight to
        its goal, so that a term costs the search three frames a level.  Only
        a premise boundary that mentions a metavariable is acted on, with one
        instantiation of the heads known so far and of the rest of ``sol``,
        built when first needed and again only after the search fills a
        premise; it is the one the constructor checks, if still whole."""
        entries = []
        kids = []
        inst = None
        for (m, b), is_object in zip(rule.premises, rule.parts.objects):
            if mv(b):
                if inst is None:
                    rest = rule.premises[len(entries):]
                    inst = Instantiation(entries + [(k, sol[k]) for k, _ in rest if k in sol])
                b_inst = act(inst, b)
            else:
                b_inst = b
            if m in sol:
                head = sol[m]
            elif not is_object:
                w = self._equation(cx, b_inst, depth + 1)
                kids.append(w)
                entries.append((m, self._head(w, b_inst)))
                inst = None
                continue
            else:
                raise DeriveError(f"object metavariable {m.name} undetermined by matching")
            match b_inst.prefix, b_inst.body, head:
                case (), IsTmB(ty=a), ExprArg(expr=t):
                    kids.append(self._tm(cx, t, a, depth + 1))
                case (), IsTyB(), ExprArg(expr=a):
                    kids.append(self._ty(cx, a, depth + 1))
                case _:
                    kids.append(self._judgement(cx, fill(b_inst, head), depth + 1))
            entries.append((m, head))
        return self._rule(cx, name, entries, inst, kids)

    def _eqty(self, cx, a: Expr, b: Expr, depth: int):
        _limit(depth)
        return self._equal(cx, a, b, None, depth)

    def _eqtm(self, cx, s: Expr, t: Expr, a: Expr, depth: int):
        _limit(depth)
        return self._equal(cx, s, t, a, depth)

    def _equal(self, cx, lhs, rhs, ty, depth):
        """Derives ``lhs == rhs`` (at ``ty`` for terms) by reflexivity, else
        by the first equality rule concluding it, or else ``rhs == lhs`` and
        symmetry."""
        w = self._refl(cx, lhs, rhs, ty, depth)
        if w is not None:
            return w
        too_deep = False
        for flipped, (l, r) in enumerate(((lhs, rhs), (rhs, lhs))):
            for _, name, rule, _, unknowns, _ in self._rules[None]:
                sol = match_equation(rule, l, r, ty, unknowns)
                if sol is None:
                    continue
                try:
                    w = self._apply(cx, name, rule, sol, depth)
                    got = self._body(w)
                    eq = None
                    if ty is not None and got.ty != ty:
                        eq = self._eqty(cx, got.ty, ty, depth + 1)
                except DepthRefusal:
                    too_deep = True
                    self._refused += 1
                    continue
                except KernelError:
                    continue
                if eq is not None:
                    w = self._step("conv_eqtm", w, eq)
                if flipped:
                    w = self._step("eqty_sym" if ty is None else "eqtm_sym", w)
                return w
        raise _refusal(too_deep, f"cannot derive {_shown_equation(lhs, rhs, ty)}")

    judgement = _goal(_judgement)
    boundary = _goal(_boundary)
    ty = _goal(_ty)
    tm = _goal(_tm)
    eqty = _goal(_eqty)
    eqtm = _goal(_eqtm)


# ---------------------------------------------------------------------------
# The step adapters


class TTDeriver(Deriver):
    """Derives tt obligations: a goal is derived in a metavariable context
    and a variable context, and each step is a derivation node."""

    FLAVOR = "tt"
    CONTEXTS = 2
    ENGINE = tt
    STEPS = {"abstract": "tt_abstr", **{s: s for s in _SAME_STEPS}}

    def _bind(self, cx, j: Abstracted):
        mctx, vctx = cx
        avoid = atoms_in_use(j, *(ty for _, ty in vctx)) | {v.name for v, _ in vctx}
        atom = FreeVar(fresh_name("x", avoid))
        return atom, (mctx, vctx.extend(atom, j.prefix[0]))

    def _var(self, cx, v: FreeVar, depth: int):
        mctx, vctx = cx
        if v not in vctx:
            raise DeriveError(f"unknown variable {v.name}")
        return tt.tt_var(self.theory, mctx, vctx, v), vctx[v]

    def _meta(self, cx, e: MetaApp, cls, depth: int):
        mctx, vctx = cx
        m = e.meta
        if m not in mctx or not isinstance(mctx[m].body, cls):
            raise DeriveError(f"{m.name} is not a {_KIND[cls]} metavariable here")
        kids = self._meta_premises(cx, e, mctx[m], depth)
        return tt.tt_meta(self.theory, mctx, vctx, m, kids)

    def _rule(self, cx, name: str, entries: list, inst: Optional[Instantiation], kids: list):
        """``inst``, when not None, is ``Instantiation(entries)``, built."""
        if inst is None:
            inst = Instantiation(entries)
        return tt.specific(self.theory, *cx, name, inst, kids)

    def _refl(self, cx, lhs: Expr, rhs: Expr, ty: Optional[Expr], depth: int):
        """Reflexivity, when the sides are equal; None otherwise."""
        if lhs != rhs:
            return None
        if ty is None:
            return tt.eqty_refl(self.theory, self._ty(cx, lhs, depth + 1))
        return tt.eqtm_refl(self.theory, self._tm(cx, lhs, ty, depth + 1))

    def _body(self, d):
        return d.conclusion.jdg.body

    def _head(self, d, b: Abstracted):
        return dummy_head(len(b.prefix))

    def _as_stated(self, d, body):
        return d

    def mctx_wf(self, mctx: MetaCtx):
        """``mctx`` is well formed.  This extends the chain remembered for
        the longest prefix of ``mctx`` and remembers the chain of each longer
        prefix, under the rules of ``_recall`` and ``_remember``."""
        entries, refused = mctx.entries, self._refused
        for k in range(len(entries), -1, -1):
            d = self._recall(("mctx_wf", entries[:k]), 0)
            if d is not None:
                break
        else:
            d = self._remember(("mctx_wf", ()), 0, refused, tt.mctx_empty(self.theory))
        sofar = MetaCtx(entries[:k])
        for m, b in entries[k:]:
            bd = self._boundary((sofar, EMPTY_VARS), b, 1)
            sofar = sofar.extend(m, b)
            d = tt.mctx_extend(self.theory, d, bd, m)
            d = self._remember(("mctx_wf", sofar.entries), 0, refused, d)
        return d

    def vctx_wf(self, mctx: MetaCtx, vctx: VarCtx):
        d = tt.vctx_empty(self.theory, mctx)
        sofar = EMPTY_VARS
        for v, ty in vctx:
            ty_d = self._ty((mctx, sofar), ty, 1)
            d = tt.vctx_extend(self.theory, d, ty_d, v)
            sofar = sofar.extend(v, ty)
        return d

    def witnesses(self, rule: RawRule) -> dict:
        """The well-formedness of ``rule``'s metavariable context, and its
        conclusion boundary derived in that context."""
        mctx = MetaCtx(list(rule.premises))
        mctx_d = self.mctx_wf(mctx)
        bdry_thesis = unfill(plain(rule.conclusion))[0]
        return {"mctx": mctx_d, "boundary": self.boundary(mctx, EMPTY_VARS, bdry_thesis)}


class CFDeriver(Deriver):
    """Certifies cf obligations: goals need no contexts, since every atom
    carries its type, and each step is a cf constructor call."""

    FLAVOR = "cf"
    CONTEXTS = 0
    ENGINE = cf
    STEPS = {"abstract": "cf_abstract_fwd", **{s: "cf_" + s for s in _SAME_STEPS}}

    def _bind(self, cx, j: Abstracted):
        return FreeVar(fresh_name("x", atoms_in_use(j)), j.prefix[0]), cx

    def _var(self, cx, v: FreeVar, depth: int):
        if v.annotation is None:
            raise DeriveError("bare variable in cf goal")
        return cf.cf_var(self.theory, v, self._ty(cx, v.annotation, depth + 1)), v.annotation

    def _meta(self, cx, e: MetaApp, cls, depth: int):
        m = e.meta
        if m.annotation is None or not isinstance(m.annotation.body, cls):
            raise DeriveError(f"{m.name} is not a {_KIND[cls]} metavariable")
        ann_cert = self._boundary(cx, m.annotation, depth + 1)
        kids = self._meta_premises(cx, e, m.annotation, depth)
        return cf.cf_meta(self.theory, m, kids, annotation_cert=ann_cert)

    def _rule(self, cx, name: str, entries: list, inst: Optional[Instantiation], kids: list):
        return cf.cf_apply_rule(self.theory, name, kids)

    def _refl(self, cx, lhs: Expr, rhs: Expr, ty: Optional[Expr], depth: int):
        """Reflexivity, when the sides are equal up to erasure (both are
        certified); None otherwise."""
        if not erased_equal(lhs, rhs):
            return None
        if ty is None:
            return cf.cf_eqty_refl(
                self.theory, self._ty(cx, lhs, depth + 1), self._ty(cx, rhs, depth + 1)
            )
        return cf.cf_eqtm_refl(
            self.theory, self._tm(cx, lhs, ty, depth + 1), self._tm(cx, rhs, ty, depth + 1)
        )

    def _body(self, c):
        return c.payload.body

    def _head(self, c, b: Abstracted):
        return head_of(c.payload)

    def _as_stated(self, c, body):
        if c.payload.body != body:
            raise DeriveError("derived equation carries a different assumption set")
        return c

    def _convert_goal(self, cx, t: Convert, a: Expr, depth: int):
        nat = cf.natural_type_cf(self.theory, t.term)
        c = self._tm(cx, t.term, nat, depth + 1)
        out = cf.cf_conv_tm(self.theory, c, self._eqty(cx, nat, a, depth + 1))
        if out.payload.body.term != t:
            raise DeriveError("conversion goal carries a different assumption set")
        return out

    def witnesses(self, rule: RawRule) -> dict:
        """Certificates of ``rule``'s premise boundaries and conclusion
        boundary."""
        prem_certs = [self.boundary(b) for _, b in rule.premises]
        bdry_thesis = unfill(plain(rule.conclusion))[0]
        return {"premise_boundaries": prem_certs, "boundary": self.boundary(bdry_thesis)}


# ---------------------------------------------------------------------------
# The finitary gate

_DERIVERS = {d.FLAVOR: d for d in (TTDeriver, CFDeriver)}


def check_finitary(theory: Theory) -> None:
    """Validates each rule over the prefix theory and caches the witnesses
    (``Deriver.witnesses``): for tt the metavariable context's
    well-formedness and the conclusion boundary's derivation, for cf the
    premise-boundary and conclusion-boundary certificates.

    The derivers of all prefixes share one memo for the pass, so an
    obligation met over one prefix (``A type``, a metavariable's annotation
    boundary, the metavariable context of shared premises, ...) is not
    derived again for every later rule.  Reuse is sound because
    derivability only grows with the prefix: a derivation or certificate
    over the first i rules is one over the first j >= i rules, and
    ``cf_engine`` accepts certificates over a shorter prefix of the same
    theory in O(1).  Failures are not remembered, since a goal refused over
    one prefix may be met over a longer one.  The memo is dropped when the
    pass ends.
    """
    for r in theory.rules:
        check_raw_once(theory, r)
    witnesses: dict = {}
    memo: dict = {}
    table = rule_table(theory)
    for i, r in enumerate(theory.rules):
        prefix = theory.prefix(i)
        prefix.cached(_RULE_TABLE, lambda: _first_rules(table, i))
        deriver = _DERIVERS[theory.flavor](prefix, memo)
        try:
            witnesses[r.name] = deriver.witnesses(r.rule)
        except KernelError as exc:
            raise ConclusionNotDerivableOverPrefix(r.name, str(exc)) from exc
    theory.finitary_witnesses = witnesses
