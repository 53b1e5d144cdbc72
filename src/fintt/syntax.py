"""Raw abstract syntax shared by the contexted (tt) and context-free (cf)
presentations.

Binding is locally nameless: bound variables are de Bruijn indices counted
from the innermost enclosing binder, free variables are named atoms.  The cf
flavour annotates atoms with their types (free variables) or boundaries
(metavariables); the tt flavour leaves the annotation ``None``, or, for
syntax obtained by erasing cf syntax, keeps the annotation as an inert part
of the atom's identity.  Equality of atoms is always structural on the pair
(name, annotation).

The cf flavour additionally has conversion terms ``convert(t, alpha)`` and
assumption-set arguments; the tt flavour uses a single dummy argument for
every equality-class position.

Syntax nodes are hash-consed: the constructor returns the live node with
the same fields if there is one, so each term has one node and equality of
nodes is identity.  Construction, ``dataclasses.replace``, pickling,
``copy`` and ``deepcopy`` all intern; a node leaves its class's weak table
when it dies (see ``_node``).  Nodes are never mutated after construction,
so a node's hash is computed when it is made, and its occurrence sets and
erasures at most once, from its children's; all are cached on the node.
The caches are not dataclass fields: ``repr`` and pickling see the fields
only.
"""

from __future__ import annotations

import weakref
from _weakref import _remove_dead_weakref
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from functools import partial
from typing import Iterable, Iterator, Optional, Union

from .errors import (
    ArityMismatch,
    UnboundIndex,
    UnknownMeta,
    UnknownSymbol,
    VarInAnnotation,
)


class Cls(Enum):
    """Syntactic class of an expression, argument or boundary."""

    TY = "Ty"
    TM = "Tm"
    EQTY = "EqTy"
    EQTM = "EqTm"

    @property
    def is_object(self) -> bool:
        return self in (Cls.TY, Cls.TM)

    @property
    def is_equality(self) -> bool:
        return not self.is_object


@dataclass(frozen=True)
class MetaArity:
    """Class of a metavariable plus the number of term arguments it binds."""

    cls: Cls
    binders: int

    def __post_init__(self) -> None:
        if self.binders < 0:
            raise ValueError("binder count must be nonnegative")


@dataclass(frozen=True)
class SymbolArity:
    """Class of a symbol (object classes only) plus the arities of its slots."""

    cls: Cls
    args: tuple[MetaArity, ...]

    def __post_init__(self) -> None:
        if not self.cls.is_object:
            raise ValueError("symbol class must be Ty or Tm")


class Signature:
    """Ordered map from symbol names to their arities; names unique."""

    def __init__(self, entries: Iterable[tuple[str, SymbolArity]] = ()):
        self._entries: dict[str, SymbolArity] = {}
        for name, arity in entries:
            if name in self._entries:
                raise ValueError(f"duplicate symbol {name!r}")
            self._entries[name] = arity

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __getitem__(self, name: str) -> SymbolArity:
        if name not in self._entries:
            raise UnknownSymbol(name)
        return self._entries[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def extend(self, name: str, arity: SymbolArity) -> "Signature":
        if name in self._entries:
            raise ValueError(f"duplicate symbol {name!r}")
        return Signature(list(self._entries.items()) + [(name, arity)])

    def __repr__(self) -> str:
        return f"Signature({list(self._entries)})"


# ---------------------------------------------------------------------------
# Syntax nodes


def _node(cls):
    """Makes ``cls`` a syntax node: a frozen dataclass whose instances are
    hash-consed.

    Each node class keeps one weak-value intern table, ``_interned``, keyed
    by the tuple of field values after defaults are applied.  The
    constructor looks the key up before it allocates anything and returns
    the live node on a hit, so there is at most one live node per term, and
    equality is identity (``object.__eq__``).  Every construction path goes
    through ``__new__``: positional, keyword and defaulted calls,
    ``dataclasses.replace``, and pickling, ``copy`` and ``deepcopy``, whose
    ``__reduce__`` rebuilds the node from its fields.  The constructor is
    generated per class, as dataclasses generate ``__init__``, and inserts
    with one ``setdefault``, so threads that build the same term at once get
    one node.  A node leaves its table when it dies.

    A new node stores ``hash(key)`` as ``_h``: that is the field hash of a
    plain frozen dataclass, so hash values, and with them set iteration
    orders, are those of plain frozen dataclasses.  The caches ``_occ``,
    ``_erase`` and ``_double_erase`` read ``None`` until filled; they are not
    fields, so ``repr`` ignores them and pickling drops them.
    """
    cls = dataclass(frozen=True, eq=False, init=False)(cls)
    names = tuple(f.name for f in fields(cls))
    defaults = {f.name: f.default for f in fields(cls) if f.default is not MISSING}
    table: dict = {}

    def drop(entry, remove=_remove_dead_weakref):
        # Deletes the entry only while it is dead: a later node with the same
        # key may have replaced it.  (A default, not a global: nodes still
        # die while the interpreter clears the module at exit.)
        remove(table, entry.key)

    params = "".join(f", {n}=_default_{n}" if n in defaults else f", {n}" for n in names)
    stores = "".join(f"    fields[{n!r}] = {n}\n" for n in names)
    source = (
        f"def __new__(cls{params}):\n"
        f"    key = ({''.join(f'{n}, ' for n in names)})\n"
        "    entry = lookup(key)\n"
        "    if entry is not None:\n"
        "        x = entry()\n"
        "        if x is not None:\n"
        "            return x\n"
        "    x = allocate(cls)\n"
        "    fields = x.__dict__\n"
        f"{stores}"
        "    fields['_h'] = hash(key)\n"
        "    entry = Entry(x, drop)\n"
        "    entry.key = key\n"
        "    first = intern(key, entry)\n"
        "    if first is not entry:\n"
        "        # Another thread interned the term since the lookup.\n"
        "        y = first()\n"
        "        if y is not None:\n"
        "            return y\n"
        "        table[key] = entry\n"
        "    return x\n"
    )
    scope = {f"_default_{n}": v for n, v in defaults.items()}
    scope.update(
        lookup=table.get, intern=table.setdefault, allocate=object.__new__,
        table=table, Entry=_Entry, drop=drop,
    )
    exec(source, scope)
    cls.__new__ = scope["__new__"]
    cls.__new__.__qualname__ = f"{cls.__qualname__}.__new__"
    cls.__hash__ = _node_hash
    cls.__reduce__ = lambda self: (type(self), tuple(getattr(self, n) for n in names))
    cls._interned = table
    cls._occ = None
    cls._erase = None
    cls._double_erase = None
    return cls


class _Entry(weakref.ref):
    """An intern-table entry: a weak reference to a node that knows its key."""

    __slots__ = ("key",)


def _node_hash(self) -> int:
    return self._h


_READY = object()


def _fill(root, slot: str, compute, children=None) -> None:
    """Sets the cache ``slot`` to ``compute(x, kids)`` on ``root`` and on
    every node ``x`` below it that lacks it, children first; ``kids`` is
    ``children[type(x)](x)``, by default every syntax node ``x`` holds.  The
    walk keeps its own stack, so term depth is not bounded by the recursion
    limit."""
    children = children or _CHILDREN
    stack = [root]
    while stack:
        x = stack.pop()
        if x is _READY:
            # The pair below the marker is a node whose children are filled.
            x, kids = stack.pop()
        elif getattr(x, slot) is not None:
            continue
        else:
            kids = children[type(x)](x)
            # Children that are not syntax nodes have no slot to fill.
            todo = [c for c in kids if getattr(c, slot, 0) is None]
            if todo:
                stack += ((x, kids), _READY, *todo)
                continue
        object.__setattr__(x, slot, compute(x, kids))


# ---------------------------------------------------------------------------
# Expressions and arguments


@_node
class FreeVar:
    """A free variable atom; cf atoms carry their type as the annotation."""

    name: str
    annotation: Optional["Expr"] = None


@_node
class BoundVar:
    """De Bruijn index, 0 = innermost enclosing binder."""

    index: int


@_node
class MetaName:
    """A metavariable atom; cf atoms carry their boundary as the annotation."""

    name: str
    annotation: Optional["AbstractedBoundary"] = None


@_node
class SymbolApp:
    symbol: str
    args: tuple["Argument", ...] = ()


@_node
class MetaApp:
    meta: MetaName
    args: tuple["Expr", ...] = ()


@_node
class Convert:
    """cf-only conversion wrapper recording the assumptions of the equation."""

    term: "Expr"
    assumptions: "AssumptionSet"


Expr = Union[FreeVar, BoundVar, SymbolApp, MetaApp, Convert]


@_node
class AssumptionSet:
    """Finite set of annotated free variables, bound indices and metavariables."""

    free_vars: frozenset[FreeVar] = frozenset()
    bound_vars: frozenset[int] = frozenset()
    metas: frozenset[MetaName] = frozenset()

    def union(self, *others: "AssumptionSet") -> "AssumptionSet":
        fv, bv, mv = set(self.free_vars), set(self.bound_vars), set(self.metas)
        for o in others:
            fv |= o.free_vars
            bv |= o.bound_vars
            mv |= o.metas
        return AssumptionSet(frozenset(fv), frozenset(bv), frozenset(mv))

    def difference(self, other: "AssumptionSet") -> "AssumptionSet":
        return AssumptionSet(
            self.free_vars - other.free_vars,
            self.bound_vars - other.bound_vars,
            self.metas - other.metas,
        )

    def issubset(self, other: "AssumptionSet") -> bool:
        return (
            self.free_vars <= other.free_vars
            and self.bound_vars <= other.bound_vars
            and self.metas <= other.metas
        )

    def is_empty(self) -> bool:
        return not (self.free_vars or self.bound_vars or self.metas)

    def __len__(self) -> int:
        return len(self.free_vars) + len(self.bound_vars) + len(self.metas)


EMPTY_ASSUMPTIONS = AssumptionSet()


@_node
class ExprArg:
    expr: Expr


@_node
class DummyArg:
    """The tt stand-in for an equality-class argument."""


DUMMY = DummyArg()


@_node
class AsmArg:
    """A cf equality-class argument: an assumption set."""

    assumptions: AssumptionSet


@_node
class Abstr:
    """One binder wrapped around an argument."""

    body: "Argument"


Argument = Union[ExprArg, DummyArg, AsmArg, Abstr]


def dummy_head(binders: int) -> Argument:
    """The tt argument of an equality-class metavariable binding
    ``binders`` variables: ``DUMMY`` under that many binders."""
    head: Argument = DUMMY
    for _ in range(binders):
        head = Abstr(head)
    return head


# ---------------------------------------------------------------------------
# Judgement and boundary theses (defined here so annotations can mention
# boundaries; the operations on them live in fintt.judgements)


@_node
class IsTy:
    ty: Expr


@_node
class IsTm:
    term: Expr
    ty: Expr


@_node
class EqTy:
    lhs: Expr
    rhs: Expr
    by: Union[DummyArg, AssumptionSet] = DUMMY


@_node
class EqTm:
    lhs: Expr
    rhs: Expr
    ty: Expr
    by: Union[DummyArg, AssumptionSet] = DUMMY


Thesis = Union[IsTy, IsTm, EqTy, EqTm]


@_node
class IsTyB:
    pass


@_node
class IsTmB:
    ty: Expr


@_node
class EqTyB:
    lhs: Expr
    rhs: Expr


@_node
class EqTmB:
    lhs: Expr
    rhs: Expr
    ty: Expr


BoundaryThesis = Union[IsTyB, IsTmB, EqTyB, EqTmB]


@_node
class Abstracted:
    """An abstraction prefix over a thesis or boundary thesis.

    ``prefix[i]`` is scoped under binders ``0..i-1``; the body sits under all
    ``len(prefix)`` binders.  Abstractions are flat: the body is never itself
    an ``Abstracted``.
    """

    prefix: tuple[Expr, ...]
    body: Union[Thesis, BoundaryThesis]


AbstractedJudgement = Abstracted
AbstractedBoundary = Abstracted


def thesis_class(t: Union[Thesis, BoundaryThesis]) -> Cls:
    match t:
        case IsTy() | IsTyB():
            return Cls.TY
        case IsTm() | IsTmB():
            return Cls.TM
        case EqTy() | EqTyB():
            return Cls.EQTY
        case EqTm() | EqTmB():
            return Cls.EQTM
    raise TypeError(f"not a thesis: {t!r}")


def boundary_arity(b: Abstracted) -> MetaArity:
    """The metavariable arity associated to an abstracted boundary."""
    return MetaArity(thesis_class(b.body), len(b.prefix))


def argument_arity(arg: Argument, cls_of: "ClsOf") -> MetaArity:
    """The metavariable arity of an argument: innermost class, binder count."""
    binders = 0
    while isinstance(arg, Abstr):
        binders += 1
        arg = arg.body
    match arg:
        case ExprArg(e):
            return MetaArity(cls_of(e), binders)
        case DummyArg() | AsmArg():
            # Equality-class argument; the precise class is told by the slot.
            return MetaArity(Cls.EQTY, binders)
    raise TypeError(f"not an argument: {arg!r}")


# ---------------------------------------------------------------------------
# Syntactic classes and arity checking


class ClsOf:
    """Resolves the syntactic class of expressions against a signature and a
    metavariable arity map (cf metas resolve through their annotations)."""

    def __init__(self, sig: Signature, metas: Optional[dict[MetaName, MetaArity]] = None):
        self.sig = sig
        self.metas = metas or {}

    def meta_arity(self, m: MetaName) -> MetaArity:
        if m in self.metas:
            return self.metas[m]
        if m.annotation is not None:
            return boundary_arity(m.annotation)
        raise UnknownMeta(m.name)

    def __call__(self, e: Expr) -> Cls:
        match e:
            case FreeVar() | BoundVar() | Convert():
                return Cls.TM
            case SymbolApp(symbol=s):
                return self.sig[s].cls
            case MetaApp(meta=m):
                return self.meta_arity(m).cls
        raise TypeError(f"not an expression: {e!r}")


def _classes_match(slot: Cls, arg_cls: Cls, arg: Argument) -> bool:
    innermost = arg
    while isinstance(innermost, Abstr):
        innermost = innermost.body
    if isinstance(innermost, (DummyArg, AsmArg)):
        return slot.is_equality
    return slot == arg_cls


def arity_check(sig: Signature, metas: dict[MetaName, MetaArity], x, depth: int = 0) -> None:
    """Checks that every application in ``x`` respects its declared arity and
    that every bound index is captured by enough binders.

    Raises :class:`ArityMismatch`, :class:`UnboundIndex`,
    :class:`UnknownSymbol` or :class:`UnknownMeta` on failure.
    """
    cls_of = ClsOf(sig, metas)

    def check(x, depth: int) -> None:
        match x:
            case FreeVar(_, ann):
                if ann is not None:
                    check(ann, 0)
            case BoundVar(index=i):
                if i < 0 or i >= depth:
                    raise UnboundIndex(f"index {i} under {depth} binders")
            case SymbolApp(symbol=s, args=args):
                arity = sig[s]
                if len(args) != len(arity.args):
                    raise ArityMismatch(
                        f"{s} expects {len(arity.args)} arguments, got {len(args)}"
                    )
                for slot, arg in zip(arity.args, args):
                    check_arg(slot, arg, depth)
            case MetaApp(meta=m, args=args):
                ar = cls_of.meta_arity(m)
                if len(args) != ar.binders:
                    raise ArityMismatch(
                        f"{m.name} expects {ar.binders} arguments, got {len(args)}"
                    )
                for t in args:
                    check(t, depth)
                    if cls_of(t) != Cls.TM:
                        raise ArityMismatch(f"argument of {m.name} must be a term")
                if m.annotation is not None:
                    check(m.annotation, 0)
            case Convert(term=t, assumptions=a):
                check(t, depth)
                if cls_of(t) != Cls.TM:
                    raise ArityMismatch("convert wraps term expressions only")
                check(a, depth)
            case AssumptionSet(free_vars=fv, bound_vars=bv, metas=ms):
                for v in fv:
                    check(v, 0)
                for i in bv:
                    if i < 0 or i >= depth:
                        raise UnboundIndex(f"index {i} under {depth} binders")
                for m in ms:
                    if m.annotation is not None:
                        check(m.annotation, 0)
                    else:
                        cls_of.meta_arity(m)
            case ExprArg(expr=e):
                check(e, depth)
            case DummyArg():
                pass
            case AsmArg(assumptions=a):
                check(a, depth)
            case Abstr(body=b):
                check(b, depth + 1)
            case IsTy(ty=a):
                check(a, depth)
                _expect(cls_of, a, Cls.TY)
            case IsTm(term=t, ty=a):
                check(t, depth)
                check(a, depth)
                _expect(cls_of, t, Cls.TM)
                _expect(cls_of, a, Cls.TY)
            case EqTy(lhs=a, rhs=b, by=by):
                check(a, depth)
                check(b, depth)
                _expect(cls_of, a, Cls.TY)
                _expect(cls_of, b, Cls.TY)
                check(by, depth)
            case EqTm(lhs=s, rhs=t, ty=a, by=by):
                for e in (s, t, a):
                    check(e, depth)
                _expect(cls_of, s, Cls.TM)
                _expect(cls_of, t, Cls.TM)
                _expect(cls_of, a, Cls.TY)
                check(by, depth)
            case IsTyB():
                pass
            case IsTmB(ty=a):
                check(a, depth)
                _expect(cls_of, a, Cls.TY)
            case EqTyB(lhs=a, rhs=b):
                check(a, depth)
                check(b, depth)
                _expect(cls_of, a, Cls.TY)
                _expect(cls_of, b, Cls.TY)
            case EqTmB(lhs=s, rhs=t, ty=a):
                for e in (s, t, a):
                    check(e, depth)
                _expect(cls_of, s, Cls.TM)
                _expect(cls_of, t, Cls.TM)
                _expect(cls_of, a, Cls.TY)
            case Abstracted(prefix=pfx, body=body):
                for i, ty in enumerate(pfx):
                    check(ty, depth + i)
                    _expect(cls_of, ty, Cls.TY)
                check(body, depth + len(pfx))
            case _:
                raise TypeError(f"cannot arity-check {x!r}")

    def check_arg(slot: MetaArity, arg: Argument, depth: int) -> None:
        binders = 0
        inner = arg
        while isinstance(inner, Abstr):
            binders += 1
            inner = inner.body
        if binders != slot.binders:
            raise ArityMismatch(f"argument binds {binders} variables, expected {slot.binders}")
        match inner:
            case ExprArg(expr=e):
                check(e, depth + binders)
                if cls_of(e) != slot.cls:
                    raise ArityMismatch(f"argument class {cls_of(e)} does not fit slot {slot.cls}")
            case DummyArg():
                if not slot.cls.is_equality:
                    raise ArityMismatch("dummy argument in object-class slot")
            case AsmArg(assumptions=a):
                if not slot.cls.is_equality:
                    raise ArityMismatch("assumption-set argument in object-class slot")
                check(a, depth + binders)

    check(x, depth)


def _expect(cls_of: ClsOf, e: Expr, c: Cls) -> None:
    if cls_of(e) != c:
        raise ArityMismatch(f"expected a {c.value} expression, found {cls_of(e).value}")


# ---------------------------------------------------------------------------
# Occurrences


# The children of each node: every syntax node held in its fields, including
# annotations and the atoms of assumption sets.
_CHILDREN = {
    FreeVar: lambda x: () if x.annotation is None else (x.annotation,),
    BoundVar: lambda x: (),
    MetaName: lambda x: () if x.annotation is None else (x.annotation,),
    SymbolApp: lambda x: x.args,
    MetaApp: lambda x: (x.meta, *x.args),
    Convert: lambda x: (x.term, x.assumptions),
    AssumptionSet: lambda x: (*x.free_vars, *x.metas),
    ExprArg: lambda x: (x.expr,),
    DummyArg: lambda x: (),
    AsmArg: lambda x: (x.assumptions,),
    Abstr: lambda x: (x.body,),
    IsTy: lambda x: (x.ty,),
    IsTm: lambda x: (x.term, x.ty),
    EqTy: lambda x: (x.lhs, x.rhs, x.by),
    EqTm: lambda x: (x.lhs, x.rhs, x.ty, x.by),
    IsTyB: lambda x: (),
    IsTmB: lambda x: (x.ty,),
    EqTyB: lambda x: (x.lhs, x.rhs),
    EqTmB: lambda x: (x.lhs, x.rhs, x.ty),
    Abstracted: lambda x: (*x.prefix, x.body),
}

# A node's occurrence summary is the tuple (fv0, fv, bv, mv, mv_shallow) of
# the functions below.  A metavariable atom is not an occurrence context of
# its own; its summary carries only what an occurrence of it adds to mv: the
# atom and everything its boundary annotation mentions.
_E: frozenset = frozenset()
_NO_OCCURRENCES = (_E, _E, _E, _E, _E)


def _union(sets) -> frozenset:
    out = _E
    for s in sets:
        if s and not s <= out:
            out = s if not out else out | s
    return out


def _escaping(indices: frozenset, binders: int) -> frozenset:
    """The indices that escape ``binders`` binders, as seen from outside."""
    if not indices or (binders == 0 and min(indices) >= 0):
        return indices
    return frozenset(i - binders for i in indices if i >= binders)


def _join(parts: list) -> tuple:
    """Componentwise union of summaries."""
    if not parts:
        return _NO_OCCURRENCES
    first = parts[0]
    for p in parts:
        if p is not first:
            return tuple(map(_union, zip(*parts)))
    return first


def _under(occ: tuple, binders: int) -> tuple:
    """A child's summary as seen from outside ``binders`` binders."""
    if not binders or not occ[2]:
        return occ
    return (occ[0], occ[1], _escaping(occ[2], binders), occ[3], occ[4])


def _summary_free_var(x: FreeVar, kids) -> tuple:
    me = frozenset((x,))
    if x.annotation is None:
        return (me, me, _E, _E, _E)
    _, ann_fv, _, ann_mv, _ = x.annotation._occ
    return (me, _union((me, ann_fv)), _E, ann_mv, _E)


def _summary_meta_name(x: MetaName, kids) -> tuple:
    me = frozenset((x,))
    return (_E, _E, _E, me if x.annotation is None else _union((me, x.annotation._occ[3])), _E)


def _summary_meta_app(x: MetaApp, kids) -> tuple:
    f0, f, b, m, ms = _join([t._occ for t in x.args])
    return (f0, f, b, _union((m, x.meta._occ[3])), _union((ms, frozenset((x.meta,)))))


def _summary_assumptions(x: AssumptionSet, kids) -> tuple:
    atoms = [c._occ for c in kids]
    return (
        x.free_vars,
        _union([o[1] for o in atoms]),
        _escaping(x.bound_vars, 0),
        _union([o[3] for o in atoms]),
        x.metas,
    )


_SUMMARIES = {
    FreeVar: _summary_free_var,
    BoundVar: lambda x, kids: (_E, _E, _escaping(frozenset((x.index,)), 0), _E, _E),
    MetaName: _summary_meta_name,
    MetaApp: _summary_meta_app,
    AssumptionSet: _summary_assumptions,
    Abstr: lambda x, kids: _under(x.body._occ, 1),
    Abstracted: lambda x, kids: _join([_under(c._occ, i) for i, c in enumerate(kids)]),
}


def _summary(x, kids) -> tuple:
    """The occurrence summary of ``x``, built from its children's."""
    make = _SUMMARIES.get(type(x))
    if make is not None:
        return make(x, kids)
    return _join([c._occ for c in kids])


def _occurrences(x) -> tuple:
    if x is None:
        return _NO_OCCURRENCES
    if type(x) not in _CHILDREN or type(x) is MetaName:
        raise TypeError(f"no occurrences in {x!r}")
    occ = x._occ
    if occ is None:
        _fill(x, "_occ", _summary)
        occ = x._occ
    return occ


def fv0(x) -> frozenset[FreeVar]:
    """Free variables occurring outside all typing annotations."""
    return _occurrences(x)[0]


def fv(x) -> frozenset[FreeVar]:
    """All free variables, including those inside typing annotations."""
    return _occurrences(x)[1]


def fvt(x) -> frozenset[FreeVar]:
    """Free variables occurring only inside typing annotations."""
    return _union(fv(v.annotation) for v in fv0(x) if v.annotation is not None)


def bv(x) -> frozenset[int]:
    """Bound indices escaping the root of ``x``."""
    return _occurrences(x)[2]


def mv(x) -> frozenset[MetaName]:
    """All metavariables, descending into boundary and type annotations."""
    return _occurrences(x)[3]


def mv_shallow(x) -> frozenset[MetaName]:
    """Metavariable heads only, treating annotated atoms as opaque (tt view)."""
    return _occurrences(x)[4]


def asm(*xs) -> AssumptionSet:
    """The assumption set of one or more syntactic entities."""
    sets = [AssumptionSet(o[1], o[2], o[3]) for o in map(_occurrences, xs)]
    if not sets:
        return EMPTY_ASSUMPTIONS
    if len(sets) == 1:
        return sets[0]
    return sets[0].union(*sets[1:])


def atoms_in_use(*xs) -> frozenset[str]:
    """Bare names of all free variables and metavariables in the inputs,
    including annotation-closure; used to pick fresh names deterministically."""
    names: set[str] = set()
    for x in xs:
        if x is None:
            continue
        for v in fv(x):
            names.add(v.name)
        for m in mv(x):
            names.add(m.name)
    return frozenset(names)


def fresh_name(base: str, avoid: frozenset[str]) -> str:
    """Smallest-numbered name ``base#n`` absent from ``avoid``.

    The ``#`` cannot appear in parsed identifiers, so fresh atoms can never be
    forged from surface syntax.
    """
    if base not in avoid and "#" in base:
        return base
    n = 0
    while f"{base}#{n}" in avoid:
        n += 1
    return f"{base}#{n}"


# ---------------------------------------------------------------------------
# Shifting, substitution, abstraction


def _map_bound(x, depth: int, on_index, on_set):
    """Structure-preserving traversal rebuilding ``x``; bound indices at
    distance >= 0 from the root are rewritten by ``on_index(i, depth)`` and
    assumption sets by ``on_set(aset, depth)``."""

    def walk(x, depth: int):
        match x:
            case FreeVar(name=n, annotation=ann):
                if ann is None:
                    return x
                # Annotations are closed under binders: they never contain
                # exposed bound variables, so depth resets to 0.
                new_ann = walk(ann, 0)
                return x if new_ann is ann else FreeVar(n, new_ann)
            case BoundVar(index=i):
                return on_index(i, depth)
            case SymbolApp(symbol=s, args=args):
                return SymbolApp(s, tuple(walk(a, depth) for a in args))
            case MetaApp(meta=m, args=args):
                return MetaApp(walk_meta(m), tuple(walk(t, depth) for t in args))
            case Convert(term=t, assumptions=a):
                return Convert(walk(t, depth), walk(a, depth))
            case AssumptionSet():
                return on_set(x, depth, walk)
            case ExprArg(expr=e):
                return ExprArg(walk(e, depth))
            case DummyArg():
                return x
            case AsmArg(assumptions=a):
                return AsmArg(walk(a, depth))
            case Abstr(body=b):
                return Abstr(walk(b, depth + 1))
            case IsTy(ty=a):
                return IsTy(walk(a, depth))
            case IsTm(term=t, ty=a):
                return IsTm(walk(t, depth), walk(a, depth))
            case EqTy(lhs=a, rhs=b, by=by):
                return EqTy(walk(a, depth), walk(b, depth), walk(by, depth))
            case EqTm(lhs=s, rhs=t, ty=a, by=by):
                return EqTm(walk(s, depth), walk(t, depth), walk(a, depth), walk(by, depth))
            case IsTyB():
                return x
            case IsTmB(ty=a):
                return IsTmB(walk(a, depth))
            case EqTyB(lhs=a, rhs=b):
                return EqTyB(walk(a, depth), walk(b, depth))
            case EqTmB(lhs=s, rhs=t, ty=a):
                return EqTmB(walk(s, depth), walk(t, depth), walk(a, depth))
            case Abstracted(prefix=pfx, body=body):
                new_pfx = tuple(walk(ty, depth + i) for i, ty in enumerate(pfx))
                return Abstracted(new_pfx, walk(body, depth + len(pfx)))
            case _:
                raise TypeError(f"cannot traverse {x!r}")

    def walk_meta(m: MetaName) -> MetaName:
        if m.annotation is None:
            return m
        new_ann = walk(m.annotation, 0)
        return m if new_ann is m.annotation else MetaName(m.name, new_ann)

    return walk(x, depth)


def shift(x, amount: int, cutoff: int = 0):
    """Shifts escaping bound indices (>= cutoff from the root) by ``amount``."""
    if amount == 0:
        return x

    def on_index(i: int, depth: int):
        if i - depth >= cutoff:
            return BoundVar(i + amount)
        return BoundVar(i)

    def on_set(aset: AssumptionSet, depth: int, walk):
        new_fv = frozenset(walk(v, 0) for v in aset.free_vars)
        new_bv = frozenset(i + amount if i - depth >= cutoff else i for i in aset.bound_vars)
        return AssumptionSet(new_fv, new_bv, aset.metas)

    return _map_bound(x, 0, on_index, on_set)


def subst_bound(x, s: Expr, k: int = 0):
    """Substitutes ``s`` for the bound variable at distance ``k`` from the
    root of ``x``, removing that binder's slot (indices above it shift down).

    Inside assumption sets the substituted index is replaced by ``asm(s)``,
    per the context-free substitution equations.
    """

    def on_index(i: int, depth: int):
        if i == k + depth:
            return shift(s, depth)
        if i > k + depth:
            return BoundVar(i - 1)
        return BoundVar(i)

    def on_set(aset: AssumptionSet, depth: int, walk):
        new_fv = frozenset(walk(v, 0) for v in aset.free_vars)
        bvs = set()
        hit = False
        for i in aset.bound_vars:
            if i == k + depth:
                hit = True
            elif i > k + depth:
                bvs.add(i - 1)
            else:
                bvs.add(i)
        out = AssumptionSet(new_fv, frozenset(bvs), aset.metas)
        if hit:
            out = out.union(asm(shift(s, depth)))
        return out

    return _map_bound(x, 0, on_index, on_set)


def subst_bound_many(x, terms: Iterable[Expr]):
    """Simultaneously substitutes ``terms = (t_1, ..., t_k)`` for the ``k``
    outermost binder slots of ``x`` (t_1 for the outermost), in one pass."""
    ts = tuple(terms)
    k = len(ts)
    if k == 0:
        return x

    def on_index(i: int, depth: int):
        if depth <= i < depth + k:
            # distance i-depth = 0 is the innermost of the k slots = t_k
            return shift(ts[k - 1 - (i - depth)], depth)
        if i >= depth + k:
            return BoundVar(i - k)
        return BoundVar(i)

    def on_set(aset: AssumptionSet, depth: int, walk):
        new_fv = frozenset(walk(v, 0) for v in aset.free_vars)
        bvs = set()
        extra = []
        for i in aset.bound_vars:
            if depth <= i < depth + k:
                extra.append(asm(shift(ts[k - 1 - (i - depth)], depth)))
            elif i >= depth + k:
                bvs.add(i - k)
            else:
                bvs.add(i)
        out = AssumptionSet(new_fv, frozenset(bvs), aset.metas)
        if extra:
            out = out.union(*extra)
        return out

    return _map_bound(x, 0, on_index, on_set)


def close_var(x, v: FreeVar, k: int = 0):
    """Turns the free variable ``v`` into the bound index at distance ``k``
    from the root of ``x`` (the caller wraps the binder).

    Raises :class:`VarInAnnotation` if ``v`` occurs inside a typing
    annotation, where bound variables cannot appear.
    """

    def walk(x, depth: int):
        match x:
            case FreeVar(name=n, annotation=ann):
                if x == v:
                    return BoundVar(k + depth)
                if ann is not None and v in fv(ann):
                    raise VarInAnnotation(f"{v.name} occurs in the annotation of {n}")
                return x
            case BoundVar():
                return x
            case SymbolApp(symbol=s, args=args):
                return SymbolApp(s, tuple(walk(a, depth) for a in args))
            case MetaApp(meta=m, args=args):
                if m.annotation is not None and v in fv(m.annotation):
                    raise VarInAnnotation(f"{v.name} occurs in the annotation of {m.name}")
                return MetaApp(m, tuple(walk(t, depth) for t in args))
            case Convert(term=t, assumptions=a):
                return Convert(walk(t, depth), walk(a, depth))
            case AssumptionSet(free_vars=fvs, bound_vars=bvs, metas=ms):
                for u in fvs:
                    if u != v and u.annotation is not None and v in fv(u.annotation):
                        raise VarInAnnotation(
                            f"{v.name} occurs in the annotation of {u.name}"
                        )
                for m in ms:
                    if m.annotation is not None and v in fv(m.annotation):
                        raise VarInAnnotation(
                            f"{v.name} occurs in the annotation of {m.name}"
                        )
                if v in fvs:
                    return AssumptionSet(
                        fvs - {v}, bvs | {k + depth}, ms
                    )
                return x
            case ExprArg(expr=e):
                return ExprArg(walk(e, depth))
            case DummyArg():
                return x
            case AsmArg(assumptions=a):
                return AsmArg(walk(a, depth))
            case Abstr(body=b):
                return Abstr(walk(b, depth + 1))
            case IsTy(ty=a):
                return IsTy(walk(a, depth))
            case IsTm(term=t, ty=a):
                return IsTm(walk(t, depth), walk(a, depth))
            case EqTy(lhs=a, rhs=b, by=by):
                return EqTy(walk(a, depth), walk(b, depth), walk(by, depth))
            case EqTm(lhs=s, rhs=t, ty=a, by=by):
                return EqTm(walk(s, depth), walk(t, depth), walk(a, depth), walk(by, depth))
            case IsTyB():
                return x
            case IsTmB(ty=a):
                return IsTmB(walk(a, depth))
            case EqTyB(lhs=a, rhs=b):
                return EqTyB(walk(a, depth), walk(b, depth))
            case EqTmB(lhs=s, rhs=t, ty=a):
                return EqTmB(walk(s, depth), walk(t, depth), walk(a, depth))
            case Abstracted(prefix=pfx, body=body):
                new_pfx = tuple(walk(ty, depth + i) for i, ty in enumerate(pfx))
                return Abstracted(new_pfx, walk(body, depth + len(pfx)))
            case _:
                raise TypeError(f"cannot traverse {x!r}")

    return walk(x, 0)


def abstract_var(x, v: FreeVar) -> Argument:
    """Abstracts ``v`` out of an expression or argument, adding one binder."""
    if not isinstance(x, (ExprArg, DummyArg, AsmArg, Abstr)):
        x = ExprArg(x)
    return Abstr(close_var(x, v))


def substitute(arg, s: Expr):
    """Opens the outermost binder of an argument or abstracted judgement,
    substituting ``s`` for it."""
    match arg:
        case Abstr(body=b):
            return subst_bound(b, s, 0)
        case Abstracted(prefix=pfx, body=body):
            if not pfx:
                raise ValueError("no binder to substitute into")
            new_pfx = tuple(subst_bound(ty, s, i - 1) for i, ty in enumerate(pfx) if i > 0)
            return Abstracted(new_pfx, subst_bound(body, s, len(pfx) - 1))
    raise ValueError(f"expected at least one binder in {arg!r}")


def subst_free(x, v: FreeVar, s: Expr):
    """Replaces the atom ``v`` by ``s``, treating atoms as opaque units (the
    tt notion used by admissible substitution; annotations not descended)."""

    def on_index(i, depth):
        return BoundVar(i)

    def on_set(aset: AssumptionSet, depth: int, walk):
        if v in aset.free_vars:
            return AssumptionSet(
                aset.free_vars - {v}, aset.bound_vars, aset.metas
            ).union(asm(shift(s, depth)))
        return aset

    def walk(x, depth: int):
        match x:
            case FreeVar():
                return shift(s, depth) if x == v else x
            case _:
                return _map_bound_shallow(x, depth, walk, on_set)

    return walk(x, 0)


def _map_bound_shallow(x, depth, walk, on_set):
    """Helper for atom-level rewrites: like _map_bound but leaves FreeVar and
    MetaName annotations untouched and delegates leaves back to ``walk``."""
    match x:
        case BoundVar() | DummyArg() | IsTyB():
            return x
        case SymbolApp(symbol=s, args=args):
            return SymbolApp(s, tuple(walk(a, depth) for a in args))
        case MetaApp(meta=m, args=args):
            return MetaApp(m, tuple(walk(t, depth) for t in args))
        case Convert(term=t, assumptions=a):
            return Convert(walk(t, depth), walk(a, depth))
        case AssumptionSet():
            return on_set(x, depth, walk)
        case ExprArg(expr=e):
            return ExprArg(walk(e, depth))
        case AsmArg(assumptions=a):
            return AsmArg(walk(a, depth))
        case Abstr(body=b):
            return Abstr(walk(b, depth + 1))
        case IsTy(ty=a):
            return IsTy(walk(a, depth))
        case IsTm(term=t, ty=a):
            return IsTm(walk(t, depth), walk(a, depth))
        case EqTy(lhs=a, rhs=b, by=by):
            return EqTy(walk(a, depth), walk(b, depth), walk(by, depth))
        case EqTm(lhs=s2, rhs=t, ty=a, by=by):
            return EqTm(walk(s2, depth), walk(t, depth), walk(a, depth), walk(by, depth))
        case IsTmB(ty=a):
            return IsTmB(walk(a, depth))
        case EqTyB(lhs=a, rhs=b):
            return EqTyB(walk(a, depth), walk(b, depth))
        case EqTmB(lhs=s2, rhs=t, ty=a):
            return EqTmB(walk(s2, depth), walk(t, depth), walk(a, depth))
        case Abstracted(prefix=pfx, body=body):
            new_pfx = tuple(walk(ty, depth + i) for i, ty in enumerate(pfx))
            return Abstracted(new_pfx, walk(body, depth + len(pfx)))
        case _:
            raise TypeError(f"cannot traverse {x!r}")


def rename_atoms(x, var_map: dict[FreeVar, FreeVar], meta_map: dict[MetaName, MetaName]):
    """Injectively renames atoms as opaque units (tt renaming)."""

    def on_set(aset: AssumptionSet, depth: int, walk):
        return AssumptionSet(
            frozenset(var_map.get(v, v) for v in aset.free_vars),
            aset.bound_vars,
            frozenset(meta_map.get(m, m) for m in aset.metas),
        )

    def walk(x, depth: int):
        match x:
            case FreeVar():
                return var_map.get(x, x)
            case MetaApp(meta=m, args=args):
                return MetaApp(meta_map.get(m, m), tuple(walk(t, depth) for t in args))
            case _:
                return _map_bound_shallow(x, depth, walk, on_set)

    return walk(x, 0)


def rename_names(x, name_map: dict[str, str]):
    """Renames atoms by bare name, descending into annotations (cf renaming)."""

    def ren_var(v: FreeVar) -> FreeVar:
        ann = None if v.annotation is None else walk(v.annotation, 0)
        return FreeVar(name_map.get(v.name, v.name), ann)

    def ren_meta(m: MetaName) -> MetaName:
        ann = None if m.annotation is None else walk(m.annotation, 0)
        return MetaName(name_map.get(m.name, m.name), ann)

    def on_set(aset: AssumptionSet, depth: int, walk_):
        return AssumptionSet(
            frozenset(ren_var(v) for v in aset.free_vars),
            aset.bound_vars,
            frozenset(ren_meta(m) for m in aset.metas),
        )

    def walk(x, depth: int):
        match x:
            case FreeVar():
                return ren_var(x)
            case MetaApp(meta=m, args=args):
                return MetaApp(ren_meta(m), tuple(walk(t, depth) for t in args))
            case _:
                return _map_bound_shallow(x, depth, walk, on_set)

    return walk(x, 0)


# ---------------------------------------------------------------------------
# Erasure


# The children an erasure descends into.  Not annotations: an annotated
# atom is an atomic name, and double erasure drops the annotation whole.
# Not assumption sets either, which erase to the dummy value.
_ERASED_CHILDREN = {
    **_CHILDREN,
    FreeVar: lambda x: (),
    MetaApp: lambda x: x.args,
    Convert: lambda x: (x.term,),
    AssumptionSet: lambda x: (),
    AsmArg: lambda x: (),
    EqTy: lambda x: (x.lhs, x.rhs),
    EqTm: lambda x: (x.lhs, x.rhs, x.ty),
}

# Each node kind rebuilt around its children's erasures ``es``.
_ERASE_NODE = {
    FreeVar: lambda x, es: x,
    BoundVar: lambda x, es: x,
    SymbolApp: lambda x, es: SymbolApp(x.symbol, es),
    MetaApp: lambda x, es: MetaApp(x.meta, es),
    Convert: lambda x, es: es[0],
    AssumptionSet: lambda x, es: DUMMY,
    ExprArg: lambda x, es: ExprArg(*es),
    DummyArg: lambda x, es: x,
    AsmArg: lambda x, es: DUMMY,
    Abstr: lambda x, es: Abstr(*es),
    IsTy: lambda x, es: IsTy(*es),
    IsTm: lambda x, es: IsTm(*es),
    EqTy: lambda x, es: EqTy(*es, DUMMY),
    EqTm: lambda x, es: EqTm(*es, DUMMY),
    IsTyB: lambda x, es: x,
    IsTmB: lambda x, es: IsTmB(*es),
    EqTyB: lambda x, es: EqTyB(*es),
    EqTmB: lambda x, es: EqTmB(*es),
    Abstracted: lambda x, es: Abstracted(es[:-1], es[-1]),
}

_DOUBLE_ERASE_NODE = {
    **_ERASE_NODE,
    FreeVar: lambda x, es: FreeVar(x.name),
    MetaApp: lambda x, es: MetaApp(MetaName(x.meta.name), es),
}

# The cached erasure of a node that erases to itself, which the node cannot
# hold without a reference cycle.
_SELF = object()


def _erase_node(slot: str, rebuild, x, kids):
    es = []
    for c in kids:
        e = getattr(c, slot)
        es.append(c if e is _SELF else e)
    e = rebuild[type(x)](x, tuple(es))
    return _SELF if e is x else e


def _erasure(x, slot: str, rebuild):
    """Fills the erasure cache ``slot`` on ``x`` and below; returns the
    erasure of ``x``."""
    if x is None:
        return None
    if type(x) not in rebuild:
        raise TypeError(f"cannot erase {x!r}")
    _fill(x, slot, partial(_erase_node, slot, rebuild), _ERASED_CHILDREN)
    e = getattr(x, slot)
    return x if e is _SELF else e


def erase(x):
    """Deletes conversion terms and replaces assumption sets by the dummy
    value.  Annotations stay put: an annotated atom is an atomic name.  The
    result is cached on every node visited."""
    e = getattr(x, "_erase", None)
    if e is None:
        return _erasure(x, "_erase", _ERASE_NODE)
    return x if e is _SELF else e


def double_erase(x):
    """Erasure that additionally strips atom annotations: a^A -> a, M^B -> M.
    The result is cached on every node visited."""
    e = getattr(x, "_double_erase", None)
    if e is None:
        return _erasure(x, "_double_erase", _DOUBLE_ERASE_NODE)
    return x if e is _SELF else e


def alpha_equal(x, y) -> bool:
    """Syntactic equality; alpha-equivalence is structural on de Bruijn form,
    and nodes are interned, so it is identity."""
    return x is y


def erased_equal(x, y) -> bool:
    return erase(x) is erase(y)


def strip_conversions(t: Expr) -> Expr:
    """Peels all outermost conversion wrappers off a term."""
    while isinstance(t, Convert):
        t = t.term
    return t


def conversion_residue(t: Expr) -> AssumptionSet:
    """Union of the assumption sets peeled off by ``strip_conversions``."""
    out = EMPTY_ASSUMPTIONS
    while isinstance(t, Convert):
        out = out.union(t.assumptions)
        t = t.term
    return out
