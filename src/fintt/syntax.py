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
erasures at most once, from its children's; all are cached on the node,
and so is the plan that the action of instantiations records on its first
walk of a node.  The caches are not dataclass fields: pickling sees the
fields only, and ``repr`` prints the node, cut.

Each node kind's shape (its children, the binders each sits under, and its
rebuild) is written once, in ``_SHAPES``.  One driver, ``_rewrite``, walks
it for every syntactic action: shifting, substitution of bound indices,
abstraction, substitution of atoms and both renamings here, and the cf
annotation of metavariables elsewhere.  Each action gives only what it does
at atoms, assumption sets and metavariable applications, and the occurrence
caches let the driver skip every subterm the action cannot touch.  The
action of instantiations reads the same shapes but runs a plan recorded on
the node (see ``fintt.instantiation.act``).  Like hashing, equality,
occurrences and erasure, the driver and the plans keep their own stacks, so
no action is bounded by the recursion limit: each works on terms of any
depth.
"""

from __future__ import annotations

import weakref
from _weakref import _remove_dead_weakref
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from functools import partial
from operator import attrgetter
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
    """Ordered map from symbol names to their arities; names unique.

    A signature never changes after construction, so ``arity_check`` keeps
    the subterms that passed against it on it, in ``_arity_passes``."""

    def __init__(self, entries: Iterable[tuple[str, SymbolArity]] = ()):
        self._entries: dict[str, SymbolArity] = {}
        for name, arity in entries:
            if name in self._entries:
                raise ValueError(f"duplicate symbol {name!r}")
            self._entries[name] = arity
        self._arity_passes: dict = {}

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
        out = Signature()
        out._entries = {**self._entries, name: arity}
        return out

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
    orders, are those of plain frozen dataclasses, but for an atom without
    an annotation.  CPython before 3.12 hashes ``None`` by its address, so
    such an atom (a ``FreeVar`` or ``MetaName``) hashes a constant in its
    place, and its hash, and the order of a set of such atoms, are the same
    in every process under one ``PYTHONHASHSEED``.  The caches ``_occ``,
    ``_erase``, ``_double_erase`` and ``_plan`` (the steps of ``act``'s walk,
    see ``fintt.instantiation``) read ``None`` until filled; they are not
    fields, so pickling drops them.  ``repr`` prints the node, cut to
    ``printer.SHOWN_LENGTH`` characters, at any depth.  No cache
    refers to its own node, which would make a reference cycle and keep the
    node alive after its last use: a cached erasure that is the node itself
    reads ``_SELF``, and so does the node in its own plan, and the summary
    cached on an atom leaves the atom out (see ``_occurrences``).
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
    hashed = "(name, _NO_ANNOTATION) if annotation is None else key" if "annotation" in names else "key"
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
        f"    fields['_h'] = hash({hashed})\n"
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
        table=table, Entry=_Entry, drop=drop, _NO_ANNOTATION=_NO_ANNOTATION,
    )
    exec(source, scope)
    cls.__new__ = scope["__new__"]
    cls.__new__.__qualname__ = f"{cls.__qualname__}.__new__"
    cls.__hash__ = _node_hash
    cls.__repr__ = _node_repr
    cls.__reduce__ = lambda self: (type(self), tuple(getattr(self, n) for n in names))
    cls._interned = table
    cls._occ = None
    cls._erase = None
    cls._double_erase = None
    cls._plan = None
    return cls


# What an atom without an annotation hashes in its place.
_NO_ANNOTATION = 0


class _Entry(weakref.ref):
    """An intern-table entry: a weak reference to a node that knows its key."""

    __slots__ = ("key",)


def _node_hash(self) -> int:
    return self._h


def _node_repr(self) -> str:
    """The node's class and its text, printed and cut as a refusal shows
    syntax: bounded, and off the Python stack at any depth."""
    from .printer import SHOWN_LENGTH, print_syntax_cut  # the printer imports this module

    return f"{type(self).__name__}({print_syntax_cut(self, SHOWN_LENGTH)})"


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


_ARITIES: dict[tuple[Cls, int], MetaArity] = {}


def boundary_arity(b: Abstracted) -> MetaArity:
    """The metavariable arity associated to an abstracted boundary: one
    shared value per class and binder count, made on first use."""
    key = (thesis_class(b.body), len(b.prefix))
    arity = _ARITIES.get(key)
    if arity is None:
        arity = _ARITIES[key] = MetaArity(*key)
    return arity


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
        cls = type(e)
        if cls is SymbolApp:
            return self.sig[e.symbol].cls
        if cls is MetaApp:
            return self.meta_arity(e.meta).cls
        if cls is FreeVar or cls is BoundVar or cls is Convert:
            return Cls.TM
        raise TypeError(f"not an expression: {e!r}")


# The classes of the first children of a judgement or boundary node, checked
# once those children pass and before its other children (an equation's
# assumption set) are visited.
_CHILD_CLASSES = {
    IsTy: (Cls.TY,),
    IsTm: (Cls.TM, Cls.TY),
    EqTy: (Cls.TY, Cls.TY),
    EqTm: (Cls.TM, Cls.TM, Cls.TY),
    IsTmB: (Cls.TY,),
    EqTyB: (Cls.TY, Cls.TY),
    EqTmB: (Cls.TM, Cls.TM, Cls.TY),
}

# The steps of ``arity_check``'s walk, each a tuple ``(step, x, depth,
# extra)``: visit the node ``x``; record that the subterm keyed ``x``
# passed; check the class of the expression ``x`` (``depth`` is the class
# wanted, ``extra`` who wants it); check the argument ``x`` against the slot
# ``extra``; check the bound indices ``x`` of an assumption set; resolve the
# metavariable ``x``.
_VISIT, _PASS, _CLASS, _ARG, _BOUND, _META = range(6)
# Who wants a term in a ``_CLASS`` step, when not a judgement or boundary
# (``None``) and not a metavariable application (its metavariable).
_IN_CONVERT, _IN_SLOT = object(), object()


def _arity_codes(metas: dict) -> dict:
    """``metas`` with each arity as a plain tuple, which a ``_pass_key``
    hashes in C (a ``MetaArity`` hashes through two Python-level calls)."""
    return {m: (a.cls._value_, a.binders) for m, a in metas.items()}


def _pass_key(x, codes: dict):
    """The key under which ``arity_check`` records that ``x`` passed: ``x``
    with the arity ``codes`` gives each metavariable ``x`` mentions (``None``
    for one it leaves to the atom's annotation)."""
    heads = _occurrences(x)[_MV]
    return (x, tuple(map(codes.get, heads))) if heads else x


def arity_check(sig: Signature, metas: dict[MetaName, MetaArity], x, depth: int = 0) -> None:
    """Checks that every application in ``x`` respects its declared arity and
    that every bound index is captured by enough binders.

    Raises :class:`ArityMismatch`, :class:`UnboundIndex`,
    :class:`UnknownSymbol` or :class:`UnknownMeta` on failure: the first
    failure a left-to-right walk meets, children before the checks that
    read their classes.  The walk keeps its own stack, so term depth is not
    bounded by the recursion limit.

    Every subterm that passes is recorded on ``sig`` (``_arity_passes``)
    under its ``_pass_key``, with the fewest binders it passed under, and
    is not walked again where it sits under at least as many.  Such a hit
    is sound: what the walk finds below a subterm depends only on the
    signature, on the arities of the metavariables the subterm mentions
    (which the key holds; a cf atom missing from ``metas`` brings its own
    annotation), and on the binders around it, where more binders only
    capture more indices.  Class checks do not read the binders at all.  A
    signature never changes, and every prefix of a theory shares the
    theory's, so the gate walks each subterm of a theory's rules once, not
    once per rule or per occurrence.  Only passes are recorded."""
    passes = sig._arity_passes
    codes = _arity_codes(metas)
    if type(x) in _SHAPES and type(x) is not MetaName:
        if passes.get(_pass_key(x, codes), depth + 1) <= depth:
            return
    cls_of = ClsOf(sig, metas)
    todo: list = [(_VISIT, x, depth, None)]
    push = todo.append
    while todo:
        step, y, d, extra = todo.pop()
        if step:
            if step == _PASS:
                passes[y] = d
            elif step == _CLASS:
                found = cls_of(y)
                if found != d:
                    raise ArityMismatch(_class_message(found, d, extra))
            elif step == _ARG:
                _arity_check_arg(y, extra, d, todo)
            elif step == _BOUND:
                for i in y:
                    if i < 0 or i >= d:
                        raise UnboundIndex(f"index {i} under {d} binders")
            else:
                cls_of.meta_arity(y)
            continue
        cls = type(y)
        if cls is BoundVar:
            if y.index < 0 or y.index >= d:
                raise UnboundIndex(f"index {y.index} under {d} binders")
            continue
        shape = _SHAPES.get(cls)
        if shape is None or cls is MetaName:
            raise TypeError(f"cannot arity-check {y!r}")
        key = _pass_key(y, codes)
        if passes.get(key, d + 1) <= d:
            continue
        push((_PASS, key, d, None))
        # The steps below y, pushed last first.
        children, binders, _ = shape
        kids = children(y)
        if cls is SymbolApp:
            arity = sig[y.symbol]
            if len(kids) != len(arity.args):
                raise ArityMismatch(
                    f"{y.symbol} expects {len(arity.args)} arguments, got {len(kids)}"
                )
            for slot, arg in reversed(tuple(zip(arity.args, kids))):
                push((_ARG, arg, d, slot))
        elif cls is MetaApp:
            m = y.meta
            ar = cls_of.meta_arity(m)
            if len(kids) != ar.binders:
                raise ArityMismatch(f"{m.name} expects {ar.binders} arguments, got {len(kids)}")
            if m.annotation is not None:
                push((_VISIT, m.annotation, 0, None))
            for t in reversed(kids):
                push((_CLASS, t, Cls.TM, m))
                push((_VISIT, t, d, None))
        elif cls is FreeVar:
            if y.annotation is not None:
                push((_VISIT, y.annotation, 0, None))
        elif cls is AssumptionSet:
            for m in reversed(tuple(y.metas)):
                push((_META, m, 0, None) if m.annotation is None else (_VISIT, m.annotation, 0, None))
            push((_BOUND, y.bound_vars, d, None))
            for v in reversed(tuple(y.free_vars)):
                push((_VISIT, v, 0, None))
        elif cls is Convert:
            t, a = kids
            todo += ((_VISIT, a, d, None), (_CLASS, t, Cls.TM, _IN_CONVERT), (_VISIT, t, d, None))
        elif cls is Abstracted:
            prefix = y.prefix
            push((_VISIT, y.body, d + len(prefix), None))
            for i in reversed(range(len(prefix))):
                push((_CLASS, prefix[i], Cls.TY, None))
                push((_VISIT, prefix[i], d + i, None))
        else:
            classes = _CHILD_CLASSES.get(cls, ())
            k = len(classes)
            for c in reversed(kids[k:]):
                push((_VISIT, c, d + binders, None))
            for c, want in reversed(tuple(zip(kids, classes))):
                push((_CLASS, c, want, None))
            for c in reversed(kids[:k]):
                push((_VISIT, c, d + binders, None))


def _class_message(found: Cls, wanted: Cls, who) -> str:
    if who is None:
        return f"expected a {wanted.value} expression, found {found.value}"
    if who is _IN_SLOT:
        return f"argument class {found} does not fit slot {wanted}"
    if who is _IN_CONVERT:
        return "convert wraps term expressions only"
    return f"argument of {who.name} must be a term"


def _arity_check_arg(arg: Argument, slot: MetaArity, depth: int, todo: list) -> None:
    """The steps of ``arity_check`` for an argument in a symbol's slot: its
    binders are counted at once, its body is pushed onto ``todo``."""
    binders = 0
    inner = arg
    while isinstance(inner, Abstr):
        binders += 1
        inner = inner.body
    if binders != slot.binders:
        raise ArityMismatch(f"argument binds {binders} variables, expected {slot.binders}")
    match inner:
        case ExprArg(expr=e):
            todo += ((_CLASS, e, slot.cls, _IN_SLOT), (_VISIT, e, depth + binders, None))
        case DummyArg():
            if not slot.cls.is_equality:
                raise ArityMismatch("dummy argument in object-class slot")
        case AsmArg(assumptions=a):
            if not slot.cls.is_equality:
                raise ArityMismatch("assumption-set argument in object-class slot")
            todo.append((_VISIT, a, depth + binders, None))


# ---------------------------------------------------------------------------
# Occurrences


def _no_children(x) -> tuple:
    return ()


def _same(x, kids):
    return x


# The i-th child of a node whose binder count is _AT_INDEX sits under i
# binders (an abstraction prefix, then its body).
_AT_INDEX = -1

# Each node kind's shape, written once: ``(children, binders, rebuild)``.
# ``children(x)`` are the nodes a rewrite descends into, in field order;
# each sits under ``binders`` more binders than ``x``; ``rebuild(x, kids)``
# is ``x`` with those children replaced.  Atoms and assumption sets are
# leaves: what a rewrite does to them, annotations included, is its own
# business (see ``_rewrite``).  The tables for occurrences and erasure below
# override this one where they see other children.
_SHAPES = {
    FreeVar: (_no_children, 0, _same),
    BoundVar: (_no_children, 0, _same),
    MetaName: (_no_children, 0, _same),
    SymbolApp: (attrgetter("args"), 0, lambda x, k: SymbolApp(x.symbol, k)),
    MetaApp: (attrgetter("args"), 0, lambda x, k: MetaApp(x.meta, k)),
    Convert: (attrgetter("term", "assumptions"), 0, lambda x, k: Convert(*k)),
    AssumptionSet: (_no_children, 0, _same),
    ExprArg: (lambda x: (x.expr,), 0, lambda x, k: ExprArg(*k)),
    DummyArg: (_no_children, 0, _same),
    AsmArg: (lambda x: (x.assumptions,), 0, lambda x, k: AsmArg(*k)),
    Abstr: (lambda x: (x.body,), 1, lambda x, k: Abstr(*k)),
    IsTy: (lambda x: (x.ty,), 0, lambda x, k: IsTy(*k)),
    IsTm: (attrgetter("term", "ty"), 0, lambda x, k: IsTm(*k)),
    EqTy: (attrgetter("lhs", "rhs", "by"), 0, lambda x, k: EqTy(*k)),
    EqTm: (attrgetter("lhs", "rhs", "ty", "by"), 0, lambda x, k: EqTm(*k)),
    IsTyB: (_no_children, 0, _same),
    IsTmB: (lambda x: (x.ty,), 0, lambda x, k: IsTmB(*k)),
    EqTyB: (attrgetter("lhs", "rhs"), 0, lambda x, k: EqTyB(*k)),
    EqTmB: (attrgetter("lhs", "rhs", "ty"), 0, lambda x, k: EqTmB(*k)),
    Abstracted: (
        lambda x: (*x.prefix, x.body),
        _AT_INDEX,
        lambda x, k: Abstracted(k[:-1], k[-1]),
    ),
}

# The children whose occurrences make up a node's: every syntax node held
# in its fields, including annotations and the atoms of assumption sets.
_CHILDREN = {
    **{cls: children for cls, (children, _, _) in _SHAPES.items()},
    FreeVar: lambda x: () if x.annotation is None else (x.annotation,),
    MetaName: lambda x: () if x.annotation is None else (x.annotation,),
    MetaApp: lambda x: (x.meta, *x.args),
    AssumptionSet: lambda x: (*x.free_vars, *x.metas),
}

# A node's occurrence summary is the tuple (fv0, fv, bv, mv, mv_shallow) of
# the functions below.  A metavariable atom is not an occurrence context of
# its own; its summary carries only what an occurrence of it adds to mv: the
# atom and everything its boundary annotation mentions.  The summary cached
# on an atom leaves the atom itself out, since a cache that refers to its
# own node makes a reference cycle; ``_occurrences``, the one reader of the
# caches, puts it back.
_E: frozenset = frozenset()
_NO_OCCURRENCES = (_E, _E, _E, _E, _E)
_FV0, _FV, _BV, _MV, _MV_SHALLOW = range(5)


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
    _, ann_fv, _, ann_mv, _ = _occurrences(x.annotation)
    return (_E, ann_fv, _E, ann_mv, _E)


def _summary_meta_name(x: MetaName, kids) -> tuple:
    return (_E, _E, _E, _occurrences(x.annotation)[_MV], _E)


def _summary_meta_app(x: MetaApp, kids) -> tuple:
    f0, f, b, m, ms = _join([_occurrences(t) for t in x.args])
    meta = _occurrences(x.meta)[_MV]
    return (f0, f, b, _union((m, meta)), _union((ms, frozenset((x.meta,)))))


def _summary_assumptions(x: AssumptionSet, kids) -> tuple:
    atoms = [_occurrences(c) for c in kids]
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
    Abstr: lambda x, kids: _under(_occurrences(x.body), 1),
    Abstracted: lambda x, kids: _join([_under(_occurrences(c), i) for i, c in enumerate(kids)]),
}


def _summary(x, kids) -> tuple:
    """The occurrence summary of ``x``, built from its children's."""
    make = _SUMMARIES.get(type(x))
    if make is not None:
        return make(x, kids)
    return _join([_occurrences(c) for c in kids])


def _occurrences(x) -> tuple:
    """The occurrence summary of the syntax node ``x`` (of ``None``, the
    empty one), filled on demand.  Every read of the ``_occ`` caches goes
    through here: the cache of an atom leaves the atom out, and this puts it
    back."""
    if x is None:
        return _NO_OCCURRENCES
    try:
        occ = x._occ
    except AttributeError:
        raise TypeError(f"no occurrences in {x!r}") from None
    if occ is None:
        _fill(x, "_occ", _summary)
        occ = x._occ
    cls = type(x)
    if cls is FreeVar:
        me = frozenset((x,))
        return (me, _union((me, occ[_FV])), _E, occ[_MV], _E)
    if cls is MetaName:
        return (_E, _E, _E, _union((frozenset((x,)), occ[_MV])), _E)
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


def _rewrite(x, leaves: dict, slot: Optional[int] = None, hit=None):
    """``x`` rebuilt bottom-up by one transform, on its own stack, so term
    depth is not bounded by the recursion limit.

    ``leaves`` maps BoundVar, FreeVar and AssumptionSet to ``f(y, d)``, and
    MetaApp to ``f(y, args, d)``, where ``d`` is the number of binders
    between the root and ``y`` and ``args`` are the rewritten arguments of
    ``y``; every other node is rebuilt by its shape around its rewritten
    children.  A leaf's annotations are not visited: a transform that
    rewrites them calls ``_rewrite`` on them, from depth 0.

    A subterm is returned as it is, unvisited, when its occurrence set
    ``slot`` (an index into the summary ``(fv0, fv, bv, mv, mv_shallow)``)
    is empty, or when ``hit(summary, d)`` is false: the transform cannot
    touch it."""
    if x is None or type(x) not in _SHAPES:
        raise TypeError(f"cannot rewrite {x!r}")
    prune = slot is not None or hit is not None
    # A frame is a node being rebuilt: (node, its depth, its children still
    # to visit, their binder count, the results of those visited, its
    # rebuild, its MetaApp callback or None).  The bottom frame holds the
    # root as its one child.
    frames = [(None, 0, iter((x,)), 0, [], None, None)]
    while True:
        y, d, todo, binders, done, rebuild, post = frames[-1]
        for c in todo:
            cd = d + binders if binders >= 0 else d + len(done)
            if prune:
                o = _occurrences(c)
                if (slot is not None and not o[slot]) or (hit is not None and not hit(o, cd)):
                    done.append(c)
                    continue
            cls = type(c)
            f = leaves.get(cls)
            children, cbinders, crebuild = _SHAPES[cls]
            kids = children(c)
            if kids or cls is MetaApp:
                frames.append((c, cd, iter(kids), cbinders, [], crebuild, f))
                break
            done.append(crebuild(c, ()) if f is None else f(c, cd))
        else:
            frames.pop()
            if y is None:
                return done[0]
            new = tuple(done)
            frames[-1][4].append(rebuild(y, new) if post is None else post(y, new, d))


def _escaping_from(cutoff: int):
    """The ``hit`` of a rewrite that touches only bound indices at distance
    ``cutoff`` or more from its root."""
    return lambda o, d: max(o[_BV]) >= cutoff + d


def shift(x, amount: int, cutoff: int = 0):
    """Shifts escaping bound indices (>= cutoff from the root) by ``amount``."""
    if amount == 0:
        return x

    def index(y: BoundVar, d: int):
        return BoundVar(y.index + amount) if y.index - d >= cutoff else y

    def aset(y: AssumptionSet, d: int):
        bvs = frozenset(i + amount if i - d >= cutoff else i for i in y.bound_vars)
        return AssumptionSet(y.free_vars, bvs, y.metas)

    leaves = {BoundVar: index, AssumptionSet: aset}
    return _rewrite(x, leaves, _BV, _escaping_from(cutoff))


def _substitute_slots(x, terms: tuple, k: int):
    """Substitutes ``terms = (t_1, ..., t_n)`` for the binder slots at
    distance ``k .. k+n-1`` from the root of ``x`` (t_1 for the outermost,
    at ``k+n-1``), removing those slots: indices above them shift down by
    ``n``.  Inside assumption sets a substituted index is replaced by the
    assumption set of its term, per the context-free substitution
    equations."""
    n = len(terms)

    def index(y: BoundVar, d: int):
        j = y.index - d - k
        if j < 0:
            return y
        if j < n:
            return shift(terms[n - 1 - j], d)
        return BoundVar(y.index - n)

    def aset(y: AssumptionSet, d: int):
        bvs = set()
        hits = []
        for i in y.bound_vars:
            j = i - d - k
            if j < 0:
                bvs.add(i)
            elif j < n:
                hits.append(asm(shift(terms[n - 1 - j], d)))
            else:
                bvs.add(i - n)
        out = AssumptionSet(y.free_vars, frozenset(bvs), y.metas)
        return out.union(*hits) if hits else out

    leaves = {BoundVar: index, AssumptionSet: aset}
    return _rewrite(x, leaves, _BV, _escaping_from(k))


def subst_bound(x, s: Expr, k: int = 0):
    """Substitutes ``s`` for the bound variable at distance ``k`` from the
    root of ``x``, removing that binder's slot (indices above it shift down).

    Inside assumption sets the substituted index is replaced by ``asm(s)``,
    per the context-free substitution equations.
    """
    return _substitute_slots(x, (s,), k)


def subst_bound_many(x, terms: Iterable[Expr]):
    """Simultaneously substitutes ``terms = (t_1, ..., t_k)`` for the ``k``
    outermost binder slots of ``x`` (t_1 for the outermost), in one pass."""
    ts = tuple(terms)
    return _substitute_slots(x, ts, 0) if ts else x


def close_var(x, v: FreeVar, k: int = 0):
    """Turns the free variable ``v`` into the bound index at distance ``k``
    from the root of ``x`` (the caller wraps the binder).

    Raises :class:`VarInAnnotation` if ``v`` occurs inside a typing
    annotation, where bound variables cannot appear.
    """

    def check(atom) -> None:
        if atom.annotation is not None and v in fv(atom.annotation):
            raise VarInAnnotation(f"{v.name} occurs in the annotation of {atom.name}")

    def var(y: FreeVar, d: int):
        if y is v:
            return BoundVar(k + d)
        check(y)
        return y

    def meta(y: MetaApp, args: tuple, d: int):
        check(y.meta)
        return MetaApp(y.meta, args)

    def aset(y: AssumptionSet, d: int):
        for u in y.free_vars:
            if u is not v:
                check(u)
        for m in y.metas:
            check(m)
        if v in y.free_vars:
            return AssumptionSet(y.free_vars - {v}, y.bound_vars | {k + d}, y.metas)
        return y

    def hit(o, d) -> bool:
        # fv does not see into metavariable boundaries, which are checked too.
        return v in o[_FV] or any(
            m.annotation is not None and v in fv(m.annotation) for m in o[_MV_SHALLOW]
        )

    return _rewrite(x, {FreeVar: var, MetaApp: meta, AssumptionSet: aset}, None, hit)


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

    def var(y: FreeVar, d: int):
        return shift(s, d) if y is v else y

    def aset(y: AssumptionSet, d: int):
        if v in y.free_vars:
            rest = AssumptionSet(y.free_vars - {v}, y.bound_vars, y.metas)
            return rest.union(asm(shift(s, d)))
        return y

    leaves = {FreeVar: var, AssumptionSet: aset}
    return _rewrite(x, leaves, _FV0, lambda o, d: v in o[_FV0])


def rename_atoms(x, var_map: dict[FreeVar, FreeVar], meta_map: dict[MetaName, MetaName]):
    """Injectively renames atoms as opaque units (tt renaming)."""

    def var(y: FreeVar, d: int):
        return var_map.get(y, y)

    def meta(y: MetaApp, args: tuple, d: int):
        return MetaApp(meta_map.get(y.meta, y.meta), args)

    def aset(y: AssumptionSet, d: int):
        return AssumptionSet(
            frozenset(var_map.get(u, u) for u in y.free_vars),
            y.bound_vars,
            frozenset(meta_map.get(m, m) for m in y.metas),
        )

    def hit(o, d) -> bool:
        return not (var_map.keys().isdisjoint(o[_FV0]) and meta_map.keys().isdisjoint(o[_MV_SHALLOW]))

    return _rewrite(x, {FreeVar: var, MetaApp: meta, AssumptionSet: aset}, None, hit)


# ---------------------------------------------------------------------------
# Erasure


# The children an erasure descends into.  Not annotations: an annotated
# atom is an atomic name, and double erasure drops the annotation whole.
# Not assumption sets either, which erase to the dummy value.
_ERASED_CHILDREN = {
    **{cls: children for cls, (children, _, _) in _SHAPES.items()},
    Convert: lambda x: (x.term,),
    AsmArg: _no_children,
    EqTy: attrgetter("lhs", "rhs"),
    EqTm: attrgetter("lhs", "rhs", "ty"),
}

# Each node kind rebuilt around its children's erasures ``es``.  A
# metavariable atom is erased only as the head of its application.
_ERASE_NODE = {
    **{cls: rebuild for cls, (_, _, rebuild) in _SHAPES.items() if cls is not MetaName},
    Convert: lambda x, es: es[0],
    AssumptionSet: lambda x, es: DUMMY,
    AsmArg: lambda x, es: DUMMY,
    EqTy: lambda x, es: EqTy(*es, DUMMY),
    EqTm: lambda x, es: EqTm(*es, DUMMY),
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


def first_difference(x, y) -> Optional[tuple]:
    """The first pair of subterms, left to right, at which ``x`` and ``y``
    differ, or None when they are equal.  A pair differs at its root when
    the kinds differ, when the nodes are leaves, or when what they hold
    beside their children (a symbol, a metavariable, the prefix length)
    differs: rebuilding one around the other's children then does not give
    the other.  Equal subterms are identical nodes, so the walk, on an
    explicit stack, descends only along the difference."""
    todo = [(x, y)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        if type(a) is not type(b):
            return a, b
        children, _, rebuild = _SHAPES[type(a)]
        ka, kb = children(a), children(b)
        if not ka or len(ka) != len(kb) or rebuild(a, kb) is not b:
            return a, b
        todo.extend(reversed(tuple(zip(ka, kb))))
    return None


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
