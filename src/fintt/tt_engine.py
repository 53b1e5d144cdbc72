"""The contexted deductive system: derivation trees, the closure-rule
checker, and the admissible operations (substitution, instantiation,
presuppositions, natural types, inversion).

Derivations are explicit trees that share subtrees.  Every node records the
contexts it works in and the side data of its closure rule; ``_infer``
recomputes the node's conclusion from its children, so the constructors and
``check_derivation`` cannot drift apart.  ``node`` keeps one live node per
(rule, data, premise objects) in a weak table shared by a theory's prefixes,
and hands it without a second inference to callers over its prefix or a
longer one; a node built directly is never in the table.
The walks that build a result from their premises' results (checking,
hashing, rebuilding, presuppositions, the equal-side walks, and tt -> cf in
``translate``) run on one driver, ``walk``: a node's step is a generator
that yields the items whose results it needs, so each walk keeps the shape
of a recursion, steps each distinct item once and uses no Python frame per
level.  The admissible operations are
derivation-to-derivation transformations mirroring the constructive
proofs, and always return trees the checker accepts.

The economic node kinds ``TT-Meta-Eco`` and ``TT-Specific-Eco`` omit the
boundary premise; they are sound in finitary theories, which are the only
ones the engine is run against.  Economic congruence is not a node kind: it
is admissible, and the equal-substitution and equal-instantiation walks
(``eq_subst_n`` and ``eq_instantiate``) derive it as full ``TT-Congr`` and
``TT-Meta-Congr`` nodes, carrying both sides' fills and, for term
conclusions, the type equation walked from the node's boundary derivation
(``_specific_boundary``, ``_meta_boundary``).

``_SLOTS`` gives the kind of each slot of a node's ``data`` for every
closure rule: contexts, atoms, metavariables, term tuples, rule names and
instantiations.  The walks that apply one change to every slot of a kind
(renaming, weakening, substitution, instantiation, the two equal-side walks,
collecting names) rebuild data with ``_map_data`` from that table and spell
out only the rules where they really differ; renaming, one name per atom
throughout, is one such pass.  A new closure rule adds a row to ``_SLOTS``
and a case to ``_infer``.
"""

from __future__ import annotations

import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterator, Optional, Sequence, Union

from .errors import (
    BadNode,
    DepthExceeded,
    MissingContextEvidence,
    NoSymbolRule,
    NotObjectJudgement,
    PremiseMismatch,
    SideConditionFailed,
    UnknownVar,
)
from .instantiation import Instantiation, act
from .judgements import (
    EMPTY_METAS,
    EMPTY_VARS,
    MetaCtx,
    VarCtx,
    abstract_judgement,
    fill,
    head_of,
    plain,
)
from .printer import (
    SHOWN_LENGTH,
    print_abstracted_cut,
    print_difference_cut,
    print_statement_cut,
    print_statement_difference_cut,
)
from .syntax import (
    AbstractedBoundary,
    AbstractedJudgement,
    DUMMY,
    EqTm,
    EqTy,
    EqTmB,
    EqTyB,
    Expr,
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
    flat_reduce,
    fresh_name,
    fv,
    rename_atoms,
    subst_bound_many,
    subst_free,
)
from .theory import (
    RawRule,
    Theory,
    congruence_premises_tt,
    generic_application,
    metavariable_congruence_instance,
    metavariable_rule_instance,
    rule_instance_premises,
)


# ---------------------------------------------------------------------------
# Statements


@dataclass(frozen=True)
class JdgTT:
    """Theta; Gamma |- J"""

    mctx: MetaCtx
    vctx: VarCtx
    jdg: AbstractedJudgement


@dataclass(frozen=True)
class BdryTT:
    """Theta; Gamma |- B"""

    mctx: MetaCtx
    vctx: VarCtx
    bdry: AbstractedBoundary


@dataclass(frozen=True)
class MctxWF:
    """|- mctx Theta"""

    mctx: MetaCtx


@dataclass(frozen=True)
class VctxWF:
    """Theta |- vctx Gamma"""

    mctx: MetaCtx
    vctx: VarCtx


Statement = Union[JdgTT, BdryTT, MctxWF, VctxWF]


def _statement_args(self) -> tuple:  # a statement pickles flat within a derivation
    return tuple(getattr(self, f.name) for f in fields(self))


JdgTT._flat_args = BdryTT._flat_args = MctxWF._flat_args = VctxWF._flat_args = _statement_args


@dataclass(frozen=True, eq=False)
class Derivation:
    """A node.  Its hash is computed once, on first use, from its rule, its
    data, its conclusion and its premises' hashes, which ``walk`` computes
    first; ``==`` compares two trees on an explicit stack, each pair of
    distinct nodes once."""

    rule: str
    data: tuple
    premises: tuple["Derivation", ...]
    conclusion: Statement
    _h = None  # not a field: the stored hash

    def __hash__(self) -> int:
        if self._h is None:
            walk(self, _hash_step)
        return self._h

    def __eq__(self, other) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        stack, seen = [(self, other)], set()
        while stack:
            a, b = stack.pop()
            if a is not b and (id(a), id(b)) not in seen:
                seen.add((id(a), id(b)))
                if (a.rule, a.data, len(a.premises), a.conclusion) != (b.rule, b.data, len(b.premises), b.conclusion):
                    return False
                stack += zip(a.premises, b.premises)
        return True

    def _flat_args(self) -> tuple:  # the stored hash is not pickled
        return self.rule, self.data, self.premises, self.conclusion

    __reduce__ = flat_reduce

    def __repr__(self) -> str:
        # The rule and the conclusion, printed and cut; never the premises.
        stmt = self.conclusion
        shown = print_statement_cut(stmt, SHOWN_LENGTH) if isinstance(stmt, Statement) else type(stmt).__name__
        return f"Derivation({self.rule}: {shown}; {len(self.premises)} premises)"


_hash_of = attrgetter("_h")


def _hash_step(d: Derivation):
    for p in d.premises:
        if p._h is None:
            yield p
    d.__dict__["_h"] = h = hash((d.rule, d.data, d.conclusion, *map(_hash_of, d.premises)))
    return h  # set once, here: the dataclass is frozen


# The kind of each ``Derivation.data`` slot, per closure rule: the
# metavariable and variable contexts the node works in ("mctx", "vctx"), a
# variable it mentions ("var") or binds ("binder"), a metavariable ("meta"),
# a tuple of terms ("terms"), a specific rule's name ("rule") and an
# instantiation ("inst").
_CTX = ("mctx", "vctx")
_SLOTS: dict[str, tuple[str, ...]] = {
    "TT-Var": (*_CTX, "var"),
    "TT-Meta": (*_CTX, "meta", "terms"),
    "TT-Meta-Eco": (*_CTX, "meta", "terms"),
    "TT-Meta-Congr": (*_CTX, "meta", "terms", "terms"),
    "TT-Abstr": (*_CTX, "binder"),
    "TT-EqTy-Refl": _CTX,
    "TT-EqTy-Sym": _CTX,
    "TT-EqTy-Trans": _CTX,
    "TT-EqTm-Refl": _CTX,
    "TT-EqTm-Sym": _CTX,
    "TT-EqTm-Trans": _CTX,
    "TT-Conv-Tm": _CTX,
    "TT-Conv-EqTm": _CTX,
    "TT-Bdry-Ty": _CTX,
    "TT-Bdry-Tm": _CTX,
    "TT-Bdry-EqTy": _CTX,
    "TT-Bdry-EqTm": _CTX,
    "TT-Bdry-Abstr": (*_CTX, "binder"),
    "MCtx-Empty": (),
    "MCtx-Extend": ("meta",),
    "VCtx-Empty": ("mctx",),
    "VCtx-Extend": ("binder",),
    "TT-Specific": (*_CTX, "rule", "inst"),
    "TT-Specific-Eco": (*_CTX, "rule", "inst"),
    "TT-Congr": (*_CTX, "rule", "inst", "inst"),
}
# Rules concluding context well-formedness; the judgement walks refuse them.
_CTX_RULES = frozenset({"MCtx-Empty", "MCtx-Extend", "VCtx-Empty", "VCtx-Extend"})
# The number of premises of each rule whose number is fixed.
_PREMISE_COUNT = {
    **dict.fromkeys(("TT-Var", "TT-Bdry-Ty", "MCtx-Empty", "VCtx-Empty"), 0),
    **dict.fromkeys(("TT-EqTy-Refl", "TT-EqTy-Sym", "TT-EqTm-Refl", "TT-EqTm-Sym", "TT-Bdry-Tm"), 1),
    **dict.fromkeys(("TT-Abstr", "TT-Bdry-Abstr", "TT-EqTy-Trans", "TT-EqTm-Trans", "TT-Conv-Tm"), 2),
    **dict.fromkeys(("TT-Conv-EqTm", "TT-Bdry-EqTy", "MCtx-Extend", "VCtx-Extend"), 2),
    "TT-Bdry-EqTm": 3,
}
_ABSTRACTIONS = ("TT-Abstr", "TT-Bdry-Abstr")


def _map_data(rule: str, data: tuple, maps: dict) -> tuple:
    """``data`` rebuilt slot by slot: ``maps[kind]`` is applied to each slot
    of that kind, and ``maps["expr"]`` to each term of a term tuple and each
    argument of an instantiation; slots of other kinds are kept."""
    expr = maps.get("expr")
    out = []
    for kind, x in zip(_SLOTS[rule], data):
        if kind == "terms":
            if expr is not None:
                x = tuple(expr(t) for t in x)
        elif kind == "inst":
            if expr is not None:
                x = Instantiation([(k, expr(a)) for k, a in x])
        elif kind in maps:
            x = maps[kind](x)
        out.append(x)
    return tuple(out)


def _ctxs(stmt: Statement, rule: str = "derivation") -> tuple[MetaCtx, VarCtx]:
    """The contexts of ``stmt``, a conclusion that ``rule`` reads."""
    match stmt:
        case JdgTT(mctx=m, vctx=v) | BdryTT(mctx=m, vctx=v) | VctxWF(mctx=m, vctx=v):
            return m, v
        case MctxWF(mctx=m):
            return m, EMPTY_VARS
    raise BadNode(f"{rule}: got a {type(stmt).__name__}, not a statement")


def _want_jdg(stmt: Statement, what: str) -> AbstractedJudgement:
    if not isinstance(stmt, JdgTT):
        raise BadNode(f"expected a judgement premise for {what}")
    return stmt.jdg


def _want_plain_thesis(stmt: Statement, kind, what: str):
    j = _want_jdg(stmt, what)
    if j.prefix or not isinstance(j.body, kind):
        raise BadNode(f"expected a non-abstracted {kind.__name__} premise for {what}")
    return j.body


def _same_ctx(mctx: MetaCtx, vctx: VarCtx, stmts: Sequence[Statement], what: str) -> None:
    for s in stmts:
        m, v = _ctxs(s, what)
        # Premises built in the same contexts hold the same context objects.
        if (m is not mctx and m != mctx) or (v is not vctx and v != vctx):
            raise BadNode(f"premise context mismatch in {what}")


def _fits(rule: str, mctx, vctx, kids, prem, bdry=None, rule_name: Optional[str] = None) -> None:
    """``kids``, in the node's contexts, are the judgements ``prem``, then ``bdry`` unless None."""
    want = len(prem) + (bdry is not None)
    if len(kids) != want:
        raise BadNode(f"{rule} expects {want} premises, got {len(kids)}")
    _same_ctx(mctx, vctx, kids, rule)
    for got, need in zip(kids, prem):
        j = _want_jdg(got, rule)
        if j != need:
            where = f" for rule {rule_name}" if rule_name else ""
            # Each piece of syntax is cut as in ``cf_engine._want``.
            cut = SHOWN_LENGTH // 2
            shown, diff = print_abstracted_cut(need, cut), print_difference_cut(need, j, cut)
            raise BadNode(f"{rule} premise mismatch{where}: wanted {shown} (first difference: {diff})")
    if bdry is not None and (not isinstance(kids[-1], BdryTT) or kids[-1].bdry != bdry):
        raise BadNode(f"{rule} boundary premise mismatch")


def _instance(
    theory: Theory, rule: RawRule, left: Instantiation, right: Optional[Instantiation] = None
):
    """The instance of a specific rule at ``left`` (``rule_instance_premises``)
    or of its congruence from ``left`` to ``right`` (``congruence_premises_tt``),
    from the table of ``theory``'s family and kept on ``left``, which a
    node's data holds: re-inferring the node, as ``check_derivation`` does,
    reuses it however many instances the table has evicted since."""
    kept = left.instance
    if kept is None or kept[0] is not rule or kept[1] is not right:
        instance = theory.origin[0].instance
        if right is None:
            out = instance(rule_instance_premises, rule, left)
        else:
            out = instance(congruence_premises_tt, rule, left, right)
        kept = left.instance = (rule, right, out)
    return kept[2]


def _infer(theory: Theory, rule: str, data: tuple, kids: Sequence[Statement]) -> Statement:
    """Computes the conclusion a node must have; raises on invalid nodes."""
    want = _PREMISE_COUNT.get(rule)
    if want is not None and len(kids) != want:
        raise BadNode(f"{rule} expects {want} premises, got {len(kids)}")
    if _SLOTS.get(rule) == _CTX:  # the rules whose premises share the node's contexts
        mctx, vctx = data
        _same_ctx(mctx, vctx, kids, rule)
    match rule:
        case "TT-Var":
            mctx, vctx, v = data
            if v not in vctx:
                raise SideConditionFailed(f"{v.name} not in the variable context")
            return JdgTT(mctx, vctx, plain(IsTm(v, vctx[v])))

        case "TT-Meta" | "TT-Meta-Eco":
            mctx, vctx, m, terms = data
            if m not in mctx:
                raise SideConditionFailed(f"{m.name} not in the metavariable context")
            prem, bdry, concl = metavariable_rule_instance(m, mctx[m], list(terms))
            _fits(rule, mctx, vctx, kids, prem, bdry if rule == "TT-Meta" else None)
            return JdgTT(mctx, vctx, concl)

        case "TT-Meta-Congr":
            mctx, vctx, m, ss, ts = data
            if m not in mctx:
                raise SideConditionFailed(f"{m.name} not in the metavariable context")
            prem, concl = metavariable_congruence_instance(m, mctx[m], list(ss), list(ts))
            _fits(rule, mctx, vctx, kids, prem)
            return JdgTT(mctx, vctx, concl)

        case "TT-Abstr" | "TT-Bdry-Abstr":
            mctx, vctx, atom = data
            ty = _want_plain_thesis(kids[0], IsTy, rule).ty
            km, kv = _ctxs(kids[0])
            if km != mctx or kv != vctx:
                raise BadNode(f"{rule} type premise context mismatch")
            if atom in vctx:
                raise SideConditionFailed(f"{atom.name} already in the variable context")
            body, kind = kids[1], JdgTT if rule == "TT-Abstr" else BdryTT
            if not isinstance(body, kind):
                raise BadNode(f"{rule} body premise must be a {'judgement' if kind is JdgTT else 'boundary'}")
            if body.mctx != mctx or body.vctx != vctx.extend(atom, ty):
                raise BadNode(f"{rule} body premise must extend the context by the atom")
            inner = body.jdg if kind is JdgTT else body.bdry
            return kind(mctx, vctx, abstract_judgement(inner, atom, ty))

        case "TT-EqTy-Refl":
            (k,) = kids
            a = _want_plain_thesis(k, IsTy, rule).ty
            return JdgTT(mctx, vctx, plain(EqTy(a, a, DUMMY)))

        case "TT-EqTy-Sym":
            (k,) = kids
            eq = _want_plain_thesis(k, EqTy, rule)
            return JdgTT(mctx, vctx, plain(EqTy(eq.rhs, eq.lhs, DUMMY)))

        case "TT-EqTy-Trans":
            k1, k2 = kids
            e1 = _want_plain_thesis(k1, EqTy, rule)
            e2 = _want_plain_thesis(k2, EqTy, rule)
            if e1.rhs != e2.lhs:
                raise BadNode("TT-EqTy-Trans middle types differ")
            return JdgTT(mctx, vctx, plain(EqTy(e1.lhs, e2.rhs, DUMMY)))

        case "TT-EqTm-Refl":
            (k,) = kids
            tm = _want_plain_thesis(k, IsTm, rule)
            return JdgTT(mctx, vctx, plain(EqTm(tm.term, tm.term, tm.ty, DUMMY)))

        case "TT-EqTm-Sym":
            (k,) = kids
            eq = _want_plain_thesis(k, EqTm, rule)
            return JdgTT(mctx, vctx, plain(EqTm(eq.rhs, eq.lhs, eq.ty, DUMMY)))

        case "TT-EqTm-Trans":
            k1, k2 = kids
            e1 = _want_plain_thesis(k1, EqTm, rule)
            e2 = _want_plain_thesis(k2, EqTm, rule)
            if e1.rhs != e2.lhs or e1.ty != e2.ty:
                raise BadNode("TT-EqTm-Trans premises do not chain")
            return JdgTT(mctx, vctx, plain(EqTm(e1.lhs, e2.rhs, e1.ty, DUMMY)))

        case "TT-Conv-Tm":
            k1, k2 = kids
            tm = _want_plain_thesis(k1, IsTm, rule)
            eq = _want_plain_thesis(k2, EqTy, rule)
            if tm.ty != eq.lhs:
                raise BadNode("TT-Conv-Tm premise types differ")
            return JdgTT(mctx, vctx, plain(IsTm(tm.term, eq.rhs)))

        case "TT-Conv-EqTm":
            k1, k2 = kids
            tmeq = _want_plain_thesis(k1, EqTm, rule)
            eq = _want_plain_thesis(k2, EqTy, rule)
            if tmeq.ty != eq.lhs:
                raise BadNode("TT-Conv-EqTm premise types differ")
            return JdgTT(mctx, vctx, plain(EqTm(tmeq.lhs, tmeq.rhs, eq.rhs, DUMMY)))

        case "TT-Bdry-Ty":
            return BdryTT(mctx, vctx, plain(IsTyB()))

        case "TT-Bdry-Tm":
            (k,) = kids
            a = _want_plain_thesis(k, IsTy, rule).ty
            return BdryTT(mctx, vctx, plain(IsTmB(a)))

        case "TT-Bdry-EqTy":
            k1, k2 = kids
            a = _want_plain_thesis(k1, IsTy, rule).ty
            b = _want_plain_thesis(k2, IsTy, rule).ty
            return BdryTT(mctx, vctx, plain(EqTyB(a, b)))

        case "TT-Bdry-EqTm":
            k1, k2, k3 = kids
            a = _want_plain_thesis(k1, IsTy, rule).ty
            s = _want_plain_thesis(k2, IsTm, rule)
            t = _want_plain_thesis(k3, IsTm, rule)
            if s.ty != a or t.ty != a:
                raise BadNode("TT-Bdry-EqTm sides must live at the stated type")
            return BdryTT(mctx, vctx, plain(EqTmB(s.term, t.term, a)))

        case "MCtx-Empty":
            if data:
                raise BadNode("MCtx-Empty has no data")
            return MctxWF(EMPTY_METAS)

        case "MCtx-Extend":
            (m,) = data
            k1, k2 = kids
            if not isinstance(k1, MctxWF):
                raise BadNode("MCtx-Extend first premise must be |- mctx")
            if not isinstance(k2, BdryTT):
                raise BadNode("MCtx-Extend second premise must be a boundary")
            if k2.mctx != k1.mctx or len(k2.vctx) != 0:
                raise BadNode("MCtx-Extend boundary premise context mismatch")
            if m in k1.mctx:
                raise SideConditionFailed(f"{m.name} already in the metavariable context")
            if fv(k2.bdry):
                raise SideConditionFailed("metavariable boundaries must be closed")
            return MctxWF(k1.mctx.extend(m, k2.bdry))

        case "VCtx-Empty":
            (mctx,) = data
            return VctxWF(mctx, EMPTY_VARS)

        case "VCtx-Extend":
            (v,) = data
            k1, k2 = kids
            if not isinstance(k1, VctxWF):
                raise BadNode("VCtx-Extend first premise must be |- vctx")
            ty = _want_plain_thesis(k2, IsTy, rule).ty
            m2, v2 = _ctxs(k2)
            if m2 != k1.mctx or v2 != k1.vctx:
                raise BadNode("VCtx-Extend type premise context mismatch")
            if v in k1.vctx:
                raise SideConditionFailed(f"{v.name} already in the variable context")
            return VctxWF(k1.mctx, k1.vctx.extend(v, ty))

        case "TT-Specific" | "TT-Specific-Eco":
            mctx, vctx, rule_name, inst = data
            trule = theory.rule(rule_name)
            prem, bdry, concl = _instance(theory, trule.rule, inst)
            _fits(rule, mctx, vctx, kids, prem, bdry if rule == "TT-Specific" else None, rule_name)
            return JdgTT(mctx, vctx, concl)

        case "TT-Congr":
            mctx, vctx, rule_name, left, right = data
            trule = theory.rule(rule_name)
            prem, concl = _instance(theory, trule.rule, left, right)
            _fits(rule, mctx, vctx, kids, prem)
            return JdgTT(mctx, vctx, concl)

    raise BadNode(f"unknown closure rule {rule!r}")


class _Entry(weakref.ref):
    """A weak entry of a node table that knows its key, its table and the
    number of rules of the theory its node was inferred over."""

    __slots__ = ("key", "table", "n")


def _drop(entry, remove=_remove_dead_weakref):
    remove(entry.table, entry.key)


def node(theory: Theory, rule: str, data: tuple, premises: Sequence[Derivation]) -> Derivation:
    """Builds a node, computing (and thereby validating) its conclusion, or
    returns the live node built by ``node`` from the same premise objects and
    equal data over a prefix of ``theory``: derivability only grows with the
    prefix.  The table of such nodes, shared by the prefixes of a theory
    (``Theory.origin``), is keyed by the rule and the premises' ids (a node
    holds its premises, so no id is reused while it lives), or for a leaf by
    its data: data is compared on a hit, not hashed for every node built."""
    premises = tuple(premises)
    key = (rule, *map(id, premises)) if premises else (rule, data)
    table, n = theory.origin[0].nodes, theory.origin[1]
    entry = table.get(key)
    d = entry() if entry is not None and entry.n <= n else None
    if d is not None and d.data == data:
        return d
    d = Derivation(rule, data, premises, _infer(theory, rule, data, [p.conclusion for p in premises]))
    entry = table[key] = _Entry(d, _drop)
    entry.key, entry.table, entry.n = key, table, n
    return d


def walk(root, step, key=id, done=None, bound=None):
    """``step``'s result for ``root``, each item below it stepped once per
    key, children first, on an explicit stack.

    ``step(x)`` returns a generator that yields each item whose result it
    needs, is sent that result and returns ``x``'s: a recursive walk with
    ``(yield y)`` in place of ``walk(y)``.  ``done`` maps the keys of the
    items already answered to their results; a caller may pre-seed it.  An
    item stepped is kept alive until the walk ends, so a key may name it by
    id.  With ``bound = (n, message)`` an item nested more than ``n`` items
    below the root is refused with ``DepthExceeded(message)``."""
    done = {} if done is None else done
    k = key(root)
    if k in done:
        return done[k]
    # The running step and its key; the steps waiting on a result, with theirs.
    g, out, stack, kept = step(root), None, [], [root]
    while True:
        try:
            x = g.send(out)
        except StopIteration as stop:
            done[k] = out = stop.value
            if not stack:
                return out
            g, k = stack.pop()
            continue
        kx = key(x)
        if kx in done:
            out = done[kx]
            continue
        if bound is not None and len(stack) >= bound[0]:
            raise DepthExceeded(bound[1])
        stack.append((g, k))
        kept.append(x)
        g, k, out = step(x), kx, None


def check_derivation(theory: Theory, d: Derivation) -> None:
    """Recomputes every distinct node of ``d`` once, premises first, and
    compares against what is stored."""

    def check(n: Derivation):
        for p in n.premises:
            yield p
        concl = _infer(theory, n.rule, n.data, [p.conclusion for p in n.premises])
        if concl != n.conclusion:
            if not isinstance(n.conclusion, Statement):
                raise BadNode(f"node {n.rule} stores a {type(n.conclusion).__name__}, not a statement")
            # Each piece of syntax is cut as in ``_fits``.
            cut = SHOWN_LENGTH // 2
            stored, inferred = (print_statement_cut(s, cut) for s in (n.conclusion, concl))
            diff = print_statement_difference_cut(n.conclusion, concl, cut)
            raise BadNode(
                f"node {n.rule} stores conclusion {stored} but infers {inferred} (first difference: {diff})"
            )

    walk(d, check)


# ---------------------------------------------------------------------------
# Public constructors


def tt_var(theory: Theory, mctx: MetaCtx, vctx: VarCtx, v: FreeVar) -> Derivation:
    return node(theory, "TT-Var", (mctx, vctx, v), [])


def tt_meta(
    theory: Theory,
    mctx: MetaCtx,
    vctx: VarCtx,
    m: MetaName,
    term_derivs: Sequence[Derivation],
    bdry_deriv: Optional[Derivation] = None,
) -> Derivation:
    terms = tuple(_head_term(d) for d in term_derivs)
    kids = list(term_derivs) + ([bdry_deriv] if bdry_deriv is not None else [])
    kind = "TT-Meta" if bdry_deriv is not None else "TT-Meta-Eco"
    return node(theory, kind, (mctx, vctx, m, terms), kids)


def _head_term(d: Derivation) -> Expr:
    j = _want_jdg(d.conclusion, "term premise")
    if j.prefix or not isinstance(j.body, IsTm):
        raise BadNode("expected a term judgement")
    return j.body.term


def tt_abstr(theory: Theory, ty_deriv: Derivation, body_deriv: Derivation, atom: FreeVar) -> Derivation:
    """TT-Abstr, or TT-Bdry-Abstr when the body concludes a boundary."""
    rule = "TT-Bdry-Abstr" if isinstance(body_deriv.conclusion, BdryTT) else "TT-Abstr"
    mctx, vctx = _ctxs(ty_deriv.conclusion, rule)
    return node(theory, rule, (mctx, vctx, atom), [ty_deriv, body_deriv])


def _in_context(kind: str):
    """The constructor of a rule whose data are its premises' contexts."""

    def ctor(theory: Theory, *premises: Derivation) -> Derivation:
        return node(theory, kind, _ctxs(premises[0].conclusion, kind) if premises else (), premises)

    return ctor


eqty_refl = _in_context("TT-EqTy-Refl")
eqty_sym = _in_context("TT-EqTy-Sym")
eqty_trans = _in_context("TT-EqTy-Trans")
eqtm_refl = _in_context("TT-EqTm-Refl")
eqtm_sym = _in_context("TT-EqTm-Sym")
eqtm_trans = _in_context("TT-EqTm-Trans")
conv_tm = _in_context("TT-Conv-Tm")
conv_eqtm = _in_context("TT-Conv-EqTm")
bdry_tm = _in_context("TT-Bdry-Tm")
bdry_eqty = _in_context("TT-Bdry-EqTy")
bdry_eqtm = _in_context("TT-Bdry-EqTm")


def bdry_ty(theory: Theory, mctx: MetaCtx, vctx: VarCtx) -> Derivation:
    return node(theory, "TT-Bdry-Ty", (mctx, vctx), [])


def mctx_empty(theory: Theory) -> Derivation:
    return node(theory, "MCtx-Empty", (), [])


def mctx_extend(theory: Theory, prev: Derivation, bdry_deriv: Derivation, m: MetaName) -> Derivation:
    return node(theory, "MCtx-Extend", (m,), [prev, bdry_deriv])


def vctx_empty(theory: Theory, mctx: MetaCtx) -> Derivation:
    return node(theory, "VCtx-Empty", (mctx,), [])


def vctx_extend(theory: Theory, prev: Derivation, ty_deriv: Derivation, v: FreeVar) -> Derivation:
    return node(theory, "VCtx-Extend", (v,), [prev, ty_deriv])


def specific(
    theory: Theory,
    mctx: MetaCtx,
    vctx: VarCtx,
    rule_name: str,
    inst: Instantiation,
    premise_derivs: Sequence[Derivation],
    bdry_deriv: Optional[Derivation] = None,
) -> Derivation:
    kids = list(premise_derivs) + ([bdry_deriv] if bdry_deriv is not None else [])
    kind = "TT-Specific" if bdry_deriv is not None else "TT-Specific-Eco"
    return node(theory, kind, (mctx, vctx, rule_name, inst), kids)


def congruence(
    theory: Theory,
    mctx: MetaCtx,
    vctx: VarCtx,
    rule_name: str,
    left: Instantiation,
    right: Instantiation,
    premise_derivs: Sequence[Derivation],
) -> Derivation:
    return node(theory, "TT-Congr", (mctx, vctx, rule_name, left, right), premise_derivs)


def _congruence_of_sides(
    theory: Theory,
    mctx: MetaCtx,
    vctx: VarCtx,
    rule_name: str,
    left: Instantiation,
    right: Instantiation,
    triples: Sequence[tuple],
    ty_eq: Optional[Derivation],
) -> Derivation:
    """TT-Congr for an object rule from one (left fill, right fill, equation)
    triple per premise, plus the conclusion's type equation for a term rule."""
    premises = theory.rule(rule_name).rule.premises
    n = len(premises)
    kids = (
        [x[0] for x in triples[:n]]
        + [x[1] for x in triples[:n]]
        + [triples[i][2] for i, (_, b) in enumerate(premises) if boundary_arity(b).cls.is_object]
    )
    if ty_eq is not None:
        kids.append(ty_eq)
    return congruence(theory, mctx, vctx, rule_name, left, right, kids)


def meta_congr(
    theory: Theory,
    mctx: MetaCtx,
    vctx: VarCtx,
    m: MetaName,
    left_terms: Sequence[Expr],
    right_terms: Sequence[Expr],
    premise_derivs: Sequence[Derivation],
) -> Derivation:
    data = (mctx, vctx, m, tuple(left_terms), tuple(right_terms))
    return node(theory, "TT-Meta-Congr", data, premise_derivs)


# ---------------------------------------------------------------------------
# Renaming and weakening


def _slots(d: Derivation, kinds: frozenset) -> Iterator[tuple[str, object]]:
    """(kind, value) of each slot of the given kinds in the nodes of ``d``,
    each node visited once."""
    stack, visited = [d], set()
    while stack:
        n = stack.pop()
        if id(n) in visited:
            continue
        visited.add(id(n))
        stack.extend(n.premises)
        for kind, x in zip(_SLOTS[n.rule], n.data):
            if kind in kinds:
                yield kind, x


def _binding_atoms(d: Derivation) -> set[FreeVar]:
    return {x for _, x in _slots(d, frozenset({"binder"}))}


_NAMED = frozenset({"mctx", "vctx", "var", "binder", "meta", "terms", "inst"})


def _all_names(d: Derivation) -> set[str]:
    """Names mentioned anywhere in a derivation (contexts + side data)."""
    out: set[str] = set()
    contexts: set[int] = set()  # contexts shared between nodes are read once
    for kind, x in _slots(d, _NAMED):
        if kind in _CTX:
            if id(x) not in contexts:
                contexts.add(id(x))
                for a, b in x:
                    out.add(a.name)
                    out.update(atoms_in_use(b))
        elif kind == "terms":
            out.update(atoms_in_use(*x))
        elif kind == "inst":
            out.update(atoms_in_use(*(a for _, a in x)))
        else:
            out.add(x.name)
    return out


def _map_derivation(theory: Theory, d: Derivation, maps: dict, special=None) -> Derivation:
    """``d`` rebuilt with ``_map_data(.., maps)``, each distinct node once.
    ``special(n, rebuild)``, when given, is the step of each node ``n``: it
    may refuse ``n`` by raising, hand it to ``rebuild``, or answer it,
    yielding the premises whose rebuilt derivations it needs."""

    def rebuild(n: Derivation):
        kids = []
        for p in n.premises:
            kids.append((yield p))
        return node(theory, n.rule, _map_data(n.rule, n.data, maps), kids)

    return walk(d, rebuild if special is None else lambda n: special(n, rebuild))


def rename_derivation(theory: Theory, d: Derivation, var_map: dict[FreeVar, FreeVar]) -> Derivation:
    """Applies an injective renaming of variables throughout a derivation in
    one pass, renaming each context object once.  A target name that a
    binder of ``d`` takes, and that the renaming leaves in place, is refused:
    the binder would capture it."""
    targets = {v.name for v in var_map.values()}
    clashes = sorted(a.name for a in _binding_atoms(d) if a.name in targets and a not in var_map)
    if clashes:
        raise BadNode(f"renaming onto {clashes[0]}, which a binder of the derivation takes")
    same = lambda v: var_map.get(v, v)
    expr = lambda e: rename_atoms(e, var_map, {})
    renamed: dict = {}  # a context's id -> (the context, kept alive; its renaming)

    def ren(c):
        if id(c) not in renamed:
            renamed[id(c)] = (c, type(c)([(same(k), expr(x)) for k, x in c]))
        return renamed[id(c)][1]

    return _map_derivation(theory, d, {"mctx": ren, "vctx": ren, "var": same, "binder": same, "expr": expr})


def _avoid_binding_clashes(theory: Theory, d: Derivation, names: set[str]) -> Derivation:
    clashes = {a for a in _binding_atoms(d) if a.name in names}
    if not clashes:
        return d
    taken = frozenset(_all_names(d) | names)
    vm: dict[FreeVar, FreeVar] = {}
    for a in sorted(clashes, key=lambda u: u.name):
        avoid = taken | frozenset(v.name for v in vm.values())
        vm[a] = FreeVar(fresh_name(a.name, avoid), a.annotation)
    return rename_derivation(theory, d, vm)


def weaken_vars(theory: Theory, d: Derivation, entries: Sequence[tuple[FreeVar, Expr]]) -> Derivation:
    """Inserts the entries, in order, after the root context of every node,
    in one pass (entries added by abstractions inside the derivation stay to
    the right of them)."""
    if not entries:
        return d
    entries = tuple(entries)
    d = _avoid_binding_clashes(theory, d, {v.name for v, _ in entries})
    position = len(_ctxs(d.conclusion)[1])

    def insert(vctx: VarCtx) -> VarCtx:
        old = vctx.entries
        return VarCtx(old[:position] + entries + old[position:])

    def refuse(d: Derivation, rebuild):
        if d.rule in _CTX_RULES:
            raise BadNode("cannot weaken a context derivation by a variable")
        return rebuild(d)

    return _map_derivation(theory, d, {"vctx": insert}, refuse)


def weaken_metas(theory: Theory, d: Derivation, entries: Sequence[tuple[MetaName, AbstractedBoundary]]) -> Derivation:
    """Appends the entries, in order, to the metavariable context of every
    node, in one pass."""
    if not entries:
        return d

    def refuse(d: Derivation, rebuild):
        if d.rule in ("MCtx-Empty", "MCtx-Extend"):
            raise BadNode("cannot weaken a metavariable-context derivation")
        return rebuild(d)

    return _map_derivation(theory, d, {"mctx": lambda mctx: MetaCtx((*mctx.entries, *entries))}, refuse)


# ---------------------------------------------------------------------------
# Context inversion


def mctx_entry_boundary(theory: Theory, mctx_deriv: Derivation, m: MetaName) -> Derivation:
    """From |- mctx Theta, a derivation of  Theta; . |- Theta(m)."""
    later, d = [], mctx_deriv
    while d.rule == "MCtx-Extend" and d.data[0] != m:
        later.append((d.data[0], d.premises[1].conclusion.bdry))
        d = d.premises[0]
    if d.rule != "MCtx-Extend":
        raise MissingContextEvidence(f"{m.name} not in the metavariable context")
    own = d.premises[1]
    return weaken_metas(theory, own, [(m, own.conclusion.bdry)] + later[::-1])


def vctx_entry_type(theory: Theory, vctx_deriv: Derivation, v: FreeVar) -> Derivation:
    """From Theta |- vctx Gamma, a derivation of  Theta; Gamma |- Gamma(v) type."""
    later, d = [], vctx_deriv
    while d.rule == "VCtx-Extend" and d.data[0] != v:
        later.append((d.data[0], _want_plain_thesis(d.premises[1].conclusion, IsTy, "VCtx-Extend").ty))
        d = d.premises[0]
    if d.rule != "VCtx-Extend":
        raise MissingContextEvidence(f"{v.name} not in the variable context")
    own = _want_plain_thesis(d.premises[1].conclusion, IsTy, "VCtx-Extend").ty
    return weaken_vars(theory, d.premises[1], [(v, own)] + later[::-1])


def _check_mctx_evidence(mctx_deriv: Derivation, mctx: MetaCtx) -> None:
    have = mctx_deriv.conclusion
    if not isinstance(have, MctxWF) or have.mctx != mctx:
        raise MissingContextEvidence("metavariable-context evidence does not match")


# ---------------------------------------------------------------------------
# Admissible substitution


def _split_vctx(vctx: VarCtx, v: FreeVar) -> tuple[list, list]:
    entries = list(vctx.entries)
    for i, (u, _) in enumerate(entries):
        if u == v:
            return entries[:i], entries[i + 1 :]
    raise MissingContextEvidence(f"{v.name} not in the variable context")


def admissible_substitute(theory: Theory, d_abs: Derivation, d_t: Derivation) -> Derivation:
    """TT-Subst / TT-Bdry-Subst: from  {x:A} J  and  t : A  derive  J[t/x].

    The head term of ``d_t`` (over Gamma) replaces the binder's context
    entry ``x : A`` throughout the opened derivation (over Gamma, x:A,
    Delta), which yields a derivation over Gamma, Delta[t/x]."""
    if d_abs.rule not in _ABSTRACTIONS:
        raise BadNode("expected a derivation ending with abstraction")
    (ty_deriv, opened), v = d_abs.premises, d_abs.data[2]
    want = _want_plain_thesis(d_t.conclusion, IsTm, "TT-Subst")
    have = _want_plain_thesis(ty_deriv.conclusion, IsTy, "TT-Subst")
    if want.ty != have.ty:
        raise BadNode("substituted term does not live at the binder type")
    t = want.term
    base_vctx = _ctxs(d_t.conclusion)[1]

    def sub_vctx(vctx: VarCtx) -> VarCtx:
        before, after = _split_vctx(vctx, v)
        return VarCtx(before + [(u, subst_free(ty, v, t)) for u, ty in after])

    def substituted_var(d: Derivation, rebuild):
        if d.rule in _CTX_RULES:
            raise BadNode("substitution applies to judgement derivations")
        if d.rule != "TT-Var" or d.data[2] != v:
            return (yield from rebuild(d))
        before, after = _split_vctx(d.data[1], v)
        # d_t may sit over a prefix of Gamma; first pad to Gamma
        pad = before[len(base_vctx.entries) :] + [(w, subst_free(ty, v, t)) for w, ty in after]
        return weaken_vars(theory, d_t, pad)

    opened = _avoid_binding_clashes(theory, opened, set(atoms_in_use(t)))
    maps = {"vctx": sub_vctx, "expr": lambda x: subst_free(x, v, t)}
    return _map_derivation(theory, opened, maps, substituted_var)


def conv_abstr(theory: Theory, d_abs: Derivation, d_b: Derivation, d_eq: Derivation) -> Derivation:
    """TT-Conv-Abstr: replace the outermost binder type along an equality."""
    jb = _want_plain_thesis(d_b.conclusion, IsTy, "TT-Conv-Abstr")
    eq = _want_plain_thesis(d_eq.conclusion, EqTy, "TT-Conv-Abstr")
    j_abs = _want_jdg(d_abs.conclusion, "TT-Conv-Abstr")
    if not j_abs.prefix or j_abs.prefix[0] != eq.lhs or jb.ty != eq.rhs:
        raise BadNode("TT-Conv-Abstr premises do not line up")
    mctx, vctx = _ctxs(d_abs.conclusion)
    taken = frozenset(_all_names(d_abs) | _all_names(d_b) | _all_names(d_eq))
    a = FreeVar(fresh_name("a", taken))
    w_abs = weaken_vars(theory, d_abs, [(a, eq.rhs)])
    var_a = tt_var(theory, mctx, vctx.extend(a, eq.rhs), a)
    eq_w = weaken_vars(theory, d_eq, [(a, eq.rhs)])
    conv_a = conv_tm(theory, var_a, eqty_sym(theory, eq_w))
    return tt_abstr(theory, d_b, admissible_substitute(theory, w_abs, conv_a), a)


# ---------------------------------------------------------------------------
# Simultaneous substitution along equalities


def _equal_sides(theory: Theory, what: str, names: set[str], ctx, sides, mctx_deriv=None):
    """The step shared by equal substitution and equal instantiation.

    Its item ``(d, delta, delta_eqs)`` is a subderivation ``d`` under the
    binders ``delta`` (atoms with their source types), and ``delta_eqs``
    maps the binders whose type differs between the sides to the type
    equation; its result is ``d``'s s-side, its t-side and, for object
    judgements, the equation between them.  The caller supplies
    ``ctx(d, delta)``, the contexts the sides live in, and ``sides``, the s-
    and t-maps on expressions, and wraps the step in its own for the nodes
    it treats itself; ``names`` are the atoms a walked boundary's binders
    must avoid; ``mctx_deriv``, evidence for the metavariable context,
    gives the boundary of a ``TT-Meta-Eco`` node of a term metavariable."""
    s_map, t_map = {"expr": sides[0]}, {"expr": sides[1]}

    def step(item):
        d, delta, delta_eqs = item
        rule, data = d.rule, d.data
        if rule in _CTX_RULES:
            raise BadNode(f"{what} does not handle {rule}")
        if rule in _ABSTRACTIONS:
            atom = data[2]
            ty_s, ty_t, ty_eq = yield d.premises[0], delta, delta_eqs
            src_ty = _want_plain_thesis(d.premises[0].conclusion, IsTy, "abstr").ty
            new_ty_s = _want_plain_thesis(ty_s.conclusion, IsTy, "abstr").ty
            new_ty_t = _want_plain_thesis(ty_t.conclusion, IsTy, "abstr").ty
            assert ty_eq is not None
            eqs2 = {u: weaken_vars(theory, e, [(atom, new_ty_s)]) for u, e in delta_eqs.items()}
            eqs2[atom] = weaken_vars(theory, ty_eq, [(atom, new_ty_s)])
            body_s, body_t, body_eq = yield d.premises[1], delta + [(atom, src_ty)], eqs2
            if rule == "TT-Bdry-Abstr":
                raise BadNode(f"{what} across an abstracted boundary is not supported")
            out_s = tt_abstr(theory, ty_s, body_s, atom)
            abs_t = tt_abstr(theory, ty_s, body_t, atom)
            out_t = conv_abstr(theory, abs_t, ty_t, ty_eq) if new_ty_t != new_ty_s else abs_t
            out_eq = tt_abstr(theory, ty_s, body_eq, atom) if body_eq is not None else None
            return out_s, out_t, out_eq
        mctx, vctx = ctx(d, delta)
        kids = []
        for p in d.premises:
            kids.append((yield p, delta, delta_eqs))
        d_s = node(theory, rule, (mctx, vctx) + _map_data(rule, data, s_map)[2:], [x[0] for x in kids])
        if rule == "TT-Var":
            u = data[2]
            d_t = conv_tm(theory, d_s, delta_eqs[u]) if u in delta_eqs else d_s
            return d_s, d_t, eqtm_refl(theory, d_s)
        d_t = node(theory, rule, (mctx, vctx) + _map_data(rule, data, t_map)[2:], [x[1] for x in kids])
        d_eq = None
        match rule:
            case "TT-Meta" | "TT-Meta-Eco" if boundary_arity(mctx[data[2]]).cls.is_object:
                triples = kids[: len(data[3])]
                ty_eq = []
                if isinstance(mctx[data[2]].body, IsTmB):
                    bd = _avoid_binding_clashes(theory, _meta_boundary(theory, d, mctx_deriv), names)
                    ty_eq.append((yield bd.premises[0], delta, delta_eqs)[2])
                d_eq = meta_congr(
                    theory, mctx, vctx, data[2], d_s.data[3], d_t.data[3],
                    [x[i] for i in range(3) for x in triples] + ty_eq,
                )
            case "TT-Specific" | "TT-Specific-Eco":
                trule = theory.rule(data[2]).rule
                if trule.is_object:
                    ty_eq = None
                    if isinstance(trule.conclusion, IsTm):
                        bd = _specific_boundary(theory, d, mctx_deriv)
                        bd = _avoid_binding_clashes(theory, bd, names)
                        ty_eq = (yield bd.premises[0], delta, delta_eqs)[2]
                    d_eq = _congruence_of_sides(
                        theory, mctx, vctx, data[2], d_s.data[3], d_t.data[3], kids, ty_eq
                    )
            case "TT-Conv-Tm":
                assert kids[0][2] is not None
                d_eq = conv_eqtm(theory, kids[0][2], kids[1][0])
            case "TT-Bdry-Tm":
                d_eq = kids[0][2]
        return d_s, d_t, d_eq

    return step


def _open_abstractions(d: Derivation) -> tuple[list[tuple[Derivation, FreeVar]], Derivation]:
    """Peels a chain of abstraction nodes: [(type derivation, atom)...], body."""
    chain = []
    while d.rule in _ABSTRACTIONS:
        chain.append((d.premises[0], d.data[2]))
        d = d.premises[1]
    return chain, d


def eq_subst_n(
    theory: Theory,
    d_abs: Derivation,
    s_derivs: Sequence[Derivation],
    t_derivs: Sequence[Derivation],
    eq_derivs: Sequence[Derivation],
    *,
    mctx_deriv: Optional[Derivation] = None,
) -> Derivation:
    """Iterated equal substitution into an abstracted object judgement
    (TT-Subst-EqTy / TT-Subst-EqTm): from  {xs:As} plug(B, e)  and, for the
    outermost binders, derivations of  s_i : A_i[s-prefix],
    t_i : A_i[t-prefix]  and  s_i == t_i : A_i[s-prefix]  over a prefix of
    its context, derive  plug(B[ss], e[ss] == e[ts]),  leaving any surplus
    abstraction in place; with no triples, reflexivity.  This is how
    economic congruence is derived: specific-rule nodes of object rules
    give full ``TT-Congr`` equations and object metavariables full
    ``TT-Meta-Congr`` equations, whose type equation  A[ss] == A[ts]  for a
    term comes from walking the node's boundary derivation.  A
    ``TT-Meta-Eco`` node of a term metavariable has its boundary from
    ``mctx_deriv``, evidence for the metavariable context, and is refused
    with ``MissingContextEvidence`` without it."""
    m = len(s_derivs)
    if not len(t_derivs) == len(eq_derivs) == m:
        raise BadNode("eq_subst_n needs as many t-sides and equations as s-sides")
    if m == 0:
        j = _want_jdg(d_abs.conclusion, "eq_subst_n")
        if j.prefix:
            raise BadNode("terms do not exhaust the abstraction")
        if isinstance(j.body, IsTy):
            return eqty_refl(theory, d_abs)
        if isinstance(j.body, IsTm):
            return eqtm_refl(theory, d_abs)
        raise NotObjectJudgement("eq_subst_n needs an object judgement")
    chain, body = _open_abstractions(d_abs)
    if len(chain) < m:
        raise BadNode("more terms than binders")
    for ty_d, atom in reversed(chain[m:]):
        body = tt_abstr(theory, ty_d, body, atom)
    by_var = {v: x for (_, v), *x in zip(chain, s_derivs, t_derivs, eq_derivs)}
    if mctx_deriv is not None:
        _check_mctx_evidence(mctx_deriv, _ctxs(body.conclusion)[0])
    base_len = len(_ctxs(s_derivs[0].conclusion)[1].entries)

    def sub_by(side: int):
        terms = [(v, _head_term(x[side])) for v, x in by_var.items()]

        def sub(x):
            for v, t in terms:
                x = subst_free(x, v, t)
            return x

        return sub, set(atoms_in_use(*(t for _, t in terms)))

    (sub_s, names_s), (sub_t, names_t) = sub_by(0), sub_by(1)
    names = names_s | names_t

    def ctx(d: Derivation, delta) -> tuple[MetaCtx, VarCtx]:
        mctx, vctx = _ctxs(d.conclusion)
        return mctx, VarCtx([(u, sub_s(ty)) for u, ty in vctx.entries if u not in by_var])

    def substituted_var(item):
        d, delta, _ = item
        if d.rule != "TT-Var" or d.data[2] not in by_var:
            return (yield from step(item))
        pad = ctx(d, delta)[1].entries[base_len:]
        return tuple(weaken_vars(theory, x, pad) for x in by_var[d.data[2]])

    body = _avoid_binding_clashes(theory, body, names)
    step = _equal_sides(theory, "equal substitution", names, ctx, (sub_s, sub_t), mctx_deriv)
    # A subderivation is walked once under each list of binders.
    d_eq = walk((body, [], {}), substituted_var, lambda x: (id(x[0]), tuple(x[1])))[2]
    if d_eq is None or isinstance(body.conclusion, BdryTT):
        raise NotObjectJudgement("eq_subst_n needs an object judgement")
    return d_eq


# ---------------------------------------------------------------------------
# Admissible instantiation


def admissible_instantiate(
    theory: Theory,
    inst: Instantiation,
    inst_derivs: dict[MetaName, Derivation],
    d: Derivation,
    target_mctx: MetaCtx,
    target_vctx: VarCtx,
    *,
    mctx_deriv: Optional[Derivation] = None,
) -> Derivation:
    """From a derivable instantiation of ``d``'s metavariable context over
    ``target_mctx; target_vctx`` and a derivation  Xi; Gamma |- J  (with the
    same Gamma), produce a derivation of  Theta; Gamma |- I*J.

    ``inst_derivs[m]`` must derive  plug(<I>_i B_i, I(m))  over the target
    context.  A ``TT-Meta-Congr`` node is instantiated by equal substitution
    into its metavariable's fill, which takes ``mctx_deriv``, evidence for
    ``target_mctx``, as ``eq_subst_n`` does.
    """
    if mctx_deriv is not None:
        _check_mctx_evidence(mctx_deriv, target_mctx)
    src_mctx, src_vctx = _ctxs(d.conclusion)
    if src_vctx != target_vctx:
        raise MissingContextEvidence("source and target variable contexts must agree")

    names: set[str] = set()
    for _, arg in inst:
        names |= set(atoms_in_use(arg))
    d = _avoid_binding_clashes(theory, d, names)
    # A node's context is Gamma followed by the binders above it.
    n = len(target_vctx)

    def act_vctx(vctx: VarCtx) -> VarCtx:
        return VarCtx(list(target_vctx.entries) + [(u, act(inst, ty)) for u, ty in vctx.entries[n:]])

    def instantiated_meta(d: Derivation, rebuild):
        rule = d.rule
        if rule in _CTX_RULES:
            raise BadNode("instantiation applies to judgement derivations")
        if rule not in ("TT-Meta", "TT-Meta-Eco", "TT-Meta-Congr"):
            return (yield from rebuild(d))
        m, k = d.data[2], len(d.data[3])
        kids = []
        for p in d.premises[: 3 * k if rule == "TT-Meta-Congr" else k]:
            kids.append((yield p))
        pad = [(u, act(inst, ty)) for u, ty in d.data[1].entries[n:]]
        base = weaken_vars(theory, inst_derivs[m], pad)
        if rule == "TT-Meta-Congr":
            return eq_subst_n(
                theory, base, kids[:k], kids[k : 2 * k], kids[2 * k :], mctx_deriv=mctx_deriv
            )
        for tk in kids:
            base = admissible_substitute(theory, base, tk)
        return base

    maps = {"mctx": lambda _: target_mctx, "vctx": act_vctx, "expr": lambda x: act(inst, x)}
    return _map_derivation(theory, d, maps, instantiated_meta)


# ---------------------------------------------------------------------------
# Presuppositions


def presuppositions(
    theory: Theory,
    d: Derivation,
    mctx_deriv: Derivation,
    vctx_deriv: Derivation,
) -> Derivation:
    """From a derivation of  plug(B, e)  and well-formedness evidence for its
    contexts, a derivation of the boundary  B."""

    mctx, vctx = _ctxs(d.conclusion)
    _check_mctx_evidence(mctx_deriv, mctx)
    have_v = vctx_deriv.conclusion
    if not isinstance(have_v, VctxWF) or have_v.vctx != vctx:
        raise MissingContextEvidence("variable-context evidence does not match")

    def step(item):
        d, vctx_ev = item
        match d.rule:
            case "TT-Var":
                v = d.data[2]
                return bdry_tm(theory, vctx_entry_type(theory, vctx_ev, v))
            case "TT-Meta" | "TT-Meta-Eco":
                return _meta_boundary(theory, d, mctx_deriv)
            case "TT-Meta-Congr":
                return _presup_meta_congr(d)
            case "TT-Abstr":
                ty_k, body_k, atom = d.premises[0], d.premises[1], d.data[2]
                inner = yield body_k, vctx_extend(theory, vctx_ev, ty_k, atom)
                return tt_abstr(theory, ty_k, inner, atom)
            case "TT-Specific" | "TT-Specific-Eco":
                return _specific_boundary(theory, d, mctx_deriv)
            case "TT-Congr":
                m_ctx, v_ctx, rn, li, ri = d.data
                trule = theory.rule(rn)
                n = len(trule.rule.premises)
                left = specific(theory, m_ctx, v_ctx, rn, li, d.premises[:n])
                right = specific(theory, m_ctx, v_ctx, rn, ri, d.premises[n : 2 * n])
                if isinstance(trule.rule.conclusion, IsTy):
                    return bdry_eqty(theory, left, right)
                type_eq = d.premises[-1]
                c_ty = _bdry_premises((yield type_eq, vctx_ev), "TT-Bdry-EqTy")[0]
                right_conv = conv_tm(theory, right, eqty_sym(theory, type_eq))
                return bdry_eqtm(theory, c_ty, left, right_conv)
            case "TT-EqTy-Refl":
                a = d.premises[0]
                return bdry_eqty(theory, a, a)
            case "TT-EqTy-Sym":
                lhs, rhs = _bdry_premises((yield d.premises[0], vctx_ev), "TT-Bdry-EqTy")
                return bdry_eqty(theory, rhs, lhs)
            case "TT-EqTy-Trans":
                b1 = _bdry_premises((yield d.premises[0], vctx_ev), "TT-Bdry-EqTy")
                b2 = _bdry_premises((yield d.premises[1], vctx_ev), "TT-Bdry-EqTy")
                return bdry_eqty(theory, b1[0], b2[1])
            case "TT-EqTm-Refl":
                t = d.premises[0]
                (ty,) = _bdry_premises((yield t, vctx_ev), "TT-Bdry-Tm")
                return bdry_eqtm(theory, ty, t, t)
            case "TT-EqTm-Sym":
                ty, lhs, rhs = _bdry_premises((yield d.premises[0], vctx_ev), "TT-Bdry-EqTm")
                return bdry_eqtm(theory, ty, rhs, lhs)
            case "TT-EqTm-Trans":
                b1 = _bdry_premises((yield d.premises[0], vctx_ev), "TT-Bdry-EqTm")
                b2 = _bdry_premises((yield d.premises[1], vctx_ev), "TT-Bdry-EqTm")
                return bdry_eqtm(theory, b1[0], b1[1], b2[2])
            case "TT-Conv-Tm":
                eq_b = _bdry_premises((yield d.premises[1], vctx_ev), "TT-Bdry-EqTy")
                return bdry_tm(theory, eq_b[1])
            case "TT-Conv-EqTm":
                _, s, t = _bdry_premises((yield d.premises[0], vctx_ev), "TT-Bdry-EqTm")
                ty_b = _bdry_premises((yield d.premises[1], vctx_ev), "TT-Bdry-EqTy")
                s_conv = conv_tm(theory, s, d.premises[1])
                t_conv = conv_tm(theory, t, d.premises[1])
                return bdry_eqtm(theory, ty_b[1], s_conv, t_conv)
        raise BadNode(f"presuppositions does not handle {d.rule}")

    def _presup_meta_congr(d: Derivation) -> Derivation:
        mctx, vctx, m = d.data[:3]
        k = len(d.data[3])

        def side(kids) -> Derivation:
            bdry = _meta_boundary(theory, tt_meta(theory, mctx, vctx, m, kids), mctx_deriv)
            return tt_meta(theory, mctx, vctx, m, kids, bdry)

        left, right = side(d.premises[:k]), side(d.premises[k : 2 * k])
        if isinstance(mctx[m].body, IsTyB):
            return bdry_eqty(theory, left, right)
        type_eq = d.premises[-1]  # C[ss] == C[ts]
        (ty,) = _bdry_premises(left.premises[-1], "TT-Bdry-Tm")
        right_conv = conv_tm(theory, right, eqty_sym(theory, type_eq))
        return bdry_eqtm(theory, ty, left, right_conv)

    # A shared node is walked once per context evidence.
    return walk((d, vctx_deriv), step, lambda x: (id(x[0]), id(x[1])))


def _bdry_premises(b: Derivation, rule: str) -> tuple[Derivation, ...]:
    """The premises of ``b``, a premise's boundary derivation, which ``rule``
    concludes: a forged node's premise may have another, refused unread."""
    if b.rule != rule:
        raise BadNode(f"expected a {rule} boundary, got {b.rule}")
    return b.premises


def _meta_boundary(theory: Theory, d: Derivation, mctx_deriv: Optional[Derivation]) -> Derivation:
    """The boundary derivation of a metavariable node: a TT-Meta node's last
    premise, or for TT-Meta-Eco the metavariable's boundary from the
    metavariable-context evidence ``mctx_deriv``, with the node's arguments
    substituted."""
    if d.rule == "TT-Meta":
        return d.premises[-1]
    m = d.data[2]
    if mctx_deriv is None:
        raise MissingContextEvidence(f"no metavariable-context evidence for {m.name}")
    out = mctx_entry_boundary(theory, mctx_deriv, m)
    out = weaken_vars(theory, out, list(_ctxs(d.conclusion)[1].entries))
    for tk in d.premises:
        out = admissible_substitute(theory, out, tk)
    return out


def _specific_boundary(theory: Theory, d: Derivation, mctx_deriv: Optional[Derivation]) -> Derivation:
    """The boundary derivation of a specific-rule node: a TT-Specific node's
    last premise, or for TT-Specific-Eco the rule's finitary boundary witness
    instantiated with the node's premises (``mctx_deriv`` as for
    ``admissible_instantiate``)."""
    if d.rule == "TT-Specific":
        return d.premises[-1]
    mctx, vctx = _ctxs(d.conclusion)
    rn, inst = d.data[2], d.data[3]
    premises = theory.rule(rn).rule.premises
    witness = _finitary_boundary_witness(theory, rn)
    witness = weaken_vars(theory, witness, list(vctx.entries))
    if mctx == _ctxs(witness.conclusion)[0] and all(
        a == generic_application(m, boundary_arity(b), theory.flavor)
        for (m, b), (_, a) in zip(premises, inst)
    ):
        return witness  # the rule's generic instance: the witness is its boundary
    inst_derivs = {m: p for (m, _), p in zip(premises, d.premises)}
    return admissible_instantiate(theory, inst, inst_derivs, witness, mctx, vctx, mctx_deriv=mctx_deriv)


def _finitary_boundary_witness(theory: Theory, rule_name: str) -> Derivation:
    if theory.finitary_witnesses is None:
        raise MissingContextEvidence("theory has not passed the finitary check")
    w = theory.finitary_witnesses.get(rule_name)
    if w is None:
        raise MissingContextEvidence(f"no finitary witness for rule {rule_name}")
    return w["boundary"]


# ---------------------------------------------------------------------------
# Natural types and inversion


def natural_type(theory: Theory, mctx: MetaCtx, vctx: VarCtx, t: Expr) -> Expr:
    """The type syntactically recoverable from a term's head."""
    match t:
        case FreeVar():
            if t not in vctx:
                raise UnknownVar(t.name)
            return vctx[t]
        case MetaApp(meta=m, args=args):
            if m in mctx:
                b = mctx[m]
            elif m.annotation is not None:
                b = m.annotation
            else:
                raise UnknownVar(m.name)
            if not isinstance(b.body, IsTmB):
                raise NotObjectJudgement(f"{m.name} is not a term metavariable")
            return subst_bound_many(b.body.ty, list(args))
        case SymbolApp(symbol=s, args=args):
            trule = theory.symbol_rule_for(s)
            concl = trule.rule.conclusion
            if not isinstance(concl, IsTm):
                raise NoSymbolRule(f"{s} is not a term symbol")
            inst = Instantiation([(m, a) for (m, _), a in zip(trule.rule.premises, args)])
            return act(inst, concl.ty)
    raise NotObjectJudgement(f"no natural type for {t!r}")


def invert(theory: Theory, d: Derivation) -> Derivation:
    """Returns a derivation of the same conclusion ending with TT-Var,
    TT-Meta, a symbol rule, TT-Abstr, or a single trailing conversion to the
    natural type."""
    j = _want_jdg(d.conclusion, "invert")
    if not j.prefix and not isinstance(j.body, (IsTy, IsTm)):
        raise NotObjectJudgement("inversion applies to object judgements")
    convs = []
    while d.rule == "TT-Conv-Tm":
        convs.append(d)
        d = d.premises[0]
    if not convs:
        return d
    # From the innermost conversion out: the equation from the type of the
    # stump ``d`` to the conversion's, None where the two types agree.
    nat, eq = _want_plain_thesis(d.conclusion, IsTm, "invert").ty, None
    for conv in reversed(convs):
        eq = conv.premises[1] if eq is None else eqty_trans(theory, eq, conv.premises[1])
        if nat == _want_plain_thesis(conv.conclusion, IsTm, "invert").ty:
            eq = None
    return d if eq is None else conv_tm(theory, d, eq)


def uniqueness_of_typing(
    theory: Theory,
    d1: Derivation,
    d2: Derivation,
    mctx_deriv: Derivation,
    vctx_deriv: Derivation,
) -> Derivation:
    """From two typings  t : A  and  t : B  derive  A == B.  Refuses a
    subject that is no plain term judgement, and typings of two terms."""
    t1 = _want_plain_thesis(d1.conclusion, IsTm, "uniqueness")
    t2 = _want_plain_thesis(d2.conclusion, IsTm, "uniqueness")
    if t1.term != t2.term:
        raise PremiseMismatch("uniqueness applies to two typings of one term")
    i1 = invert(theory, d1)
    i2 = invert(theory, d2)

    def eq_to_nat(inv: Derivation, orig: Derivation) -> Derivation:
        if inv.rule == "TT-Conv-Tm":
            return inv.premises[1]
        b = presuppositions(theory, orig, mctx_deriv, vctx_deriv)
        return eqty_refl(theory, b.premises[0])

    e1 = eq_to_nat(i1, d1)
    e2 = eq_to_nat(i2, d2)
    return eqty_trans(theory, eqty_sym(theory, e1), e2)


# ---------------------------------------------------------------------------
# Equal instantiations (admissibility of instantiation equality)


@dataclass
class EqInstEntry:
    """Per-metavariable data for equal instantiation: the two arguments'
    fills and the equation, plus the right argument refitted to the left
    instantiation's boundary."""

    meta: MetaName
    i_deriv: Derivation
    j_deriv: Derivation
    j_at_i_deriv: Derivation
    eq_deriv: Optional[Derivation]


def eq_instantiate(
    theory: Theory,
    entries: Sequence[EqInstEntry],
    d: Derivation,
    target_mctx: MetaCtx,
    target_vctx: VarCtx,
    source_mctx_deriv: Derivation,
) -> tuple[Derivation, Derivation, Optional[Derivation]]:
    """Admissibility of instantiation equality: given judgementally equal
    derivable instantiations I and J of ``d``'s metavariable context, produce
    derivations of  I*J,  J*J  and (object judgements)  (I==J)*J  over the
    target context.

    Only ``d``'s metavariable context is read: every variable context starts
    from ``target_vctx``, whose names ``d``'s binders avoid.

    Specific-rule nodes of object rules give full ``TT-Congr`` equations;
    for term rules the type equation  I*A == J*A  comes from walking the
    node's boundary derivation.  Object metavariables binding more than one
    variable are refused."""

    by_meta = {e.meta: e for e in entries}
    src_mctx = _ctxs(d.conclusion)[0]
    for m, b in src_mctx:
        if m in by_meta and boundary_arity(b).cls.is_object and len(b.prefix) > 1:
            raise BadNode(
                f"equal instantiation of {m.name}, which binds more than one variable, "
                "is not supported"
            )
    inst_i = Instantiation([(e.meta, _argument_of(e.i_deriv)) for e in entries])
    inst_j = Instantiation([(e.meta, _argument_of(e.j_deriv)) for e in entries])

    names: set[str] = {v.name for v, _ in target_vctx}
    for e in entries:
        names |= set(atoms_in_use(_argument_of(e.i_deriv))) | set(
            atoms_in_use(_argument_of(e.j_deriv))
        )
    d = _avoid_binding_clashes(theory, d, names)

    def binder_type(m: MetaName) -> Derivation:
        """The derivation of the type m binds, from the metavariable-context
        evidence, weakened to the target context."""
        b_deriv = mctx_entry_boundary(theory, source_mctx_deriv, m)
        return weaken_vars(theory, b_deriv, list(target_vctx.entries)).premises[0]

    def ctx(d: Derivation, delta: list) -> tuple[MetaCtx, VarCtx]:
        return target_mctx, VarCtx(
            list(target_vctx.entries) + [(u, act(inst_i, ty)) for u, ty in delta]
        )

    def instantiated_meta(item):
        d, delta, delta_eqs = item
        if d.rule == "TT-Meta-Congr":
            raise BadNode("equal instantiation across metavariable congruence is not supported")
        if d.rule not in ("TT-Meta", "TT-Meta-Eco"):
            return (yield from step(item))
        m, terms = d.data[2], d.data[3]
        e = by_meta[m]
        triples = []
        for p in d.premises[: len(terms)]:
            triples.append((yield p, delta, delta_eqs))
        pad = [(u, act(inst_i, ty)) for u, ty in delta]
        d_i = weaken_vars(theory, e.i_deriv, pad)
        d_j = weaken_vars(theory, e.j_deriv, pad)
        for tr_ in triples:
            d_i = admissible_substitute(theory, d_i, tr_[0])
            d_j = admissible_substitute(theory, d_j, tr_[1])
        if not boundary_arity(src_mctx[m]).cls.is_object:
            return d_i, d_j, None
        assert e.eq_deriv is not None
        eq_w = weaken_vars(theory, e.eq_deriv, pad)
        if not triples:
            return d_i, d_j, eq_w
        ((s_d, t_d, st_eq),) = triples  # one binder: more were refused above
        # left piece: (e_I == e_J)[I*t]
        left = admissible_substitute(theory, eq_w, s_d)
        # right piece: e_J[I*t] == e_J[J*t] by equal substitution, J*t
        # converted to the binder type under I
        ty_d = _avoid_binding_clashes(theory, binder_type(m), {u.name for u, _ in delta} | names)
        ty_eq = (yield ty_d, delta, delta_eqs)[2]
        conv_t = conv_tm(theory, t_d, eqty_sym(theory, ty_eq))
        base_jat = weaken_vars(theory, e.j_at_i_deriv, pad)
        right = eq_subst_n(theory, base_jat, [s_d], [conv_t], [st_eq])
        if isinstance(_want_jdg(left.conclusion, "chain").body, EqTy):
            return d_i, d_j, eqty_trans(theory, left, right)
        return d_i, d_j, eqtm_trans(theory, left, right)

    # The three results depend only on the judgement a subderivation
    # concludes and on the binders it is walked under, so a judgement that
    # recurs (a binder type, the premises repeated in a boundary) is walked
    # once.  The judgement filling an object metavariable's boundary with its
    # generic application is answered by the entry itself.
    done: dict = {}
    top_vctx = _ctxs(d.conclusion)[1]
    for e in entries:
        if e.eq_deriv is not None and e.meta in src_mctx:
            b = src_mctx[e.meta]
            own = fill(b, generic_application(e.meta, boundary_arity(b), theory.flavor))
            done[(JdgTT(src_mctx, top_vctx, own), ())] = (e.i_deriv, e.j_deriv, e.eq_deriv)

    sides = (lambda x: act(inst_i, x), lambda x: act(inst_j, x))
    step = _equal_sides(theory, "equal instantiation", names, ctx, sides)
    return walk((d, [], {}), instantiated_meta, lambda x: (x[0].conclusion, tuple(x[1])), done)


def _argument_of(d: Derivation) -> "object":
    return head_of(_want_jdg(d.conclusion, "instantiation entry"))
