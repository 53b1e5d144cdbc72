"""Judgement and boundary theses, abstraction prefixes, filling and
un-filling, and the two context kinds of the contexted presentation."""

from __future__ import annotations

from typing import Union

from .errors import ArityMismatch, NotObjectBoundary, PremiseMismatch
from .syntax import (
    Abstr,
    Abstracted,
    AbstractedBoundary,
    AbstractedJudgement,
    Argument,
    AsmArg,
    AssumptionSet,
    BoundaryThesis,
    DUMMY,
    DummyArg,
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
    Thesis,
    asm,
    close_var,
    substitute,
)


def plain(body: Union[Thesis, BoundaryThesis]) -> Abstracted:
    """An abstracted judgement or boundary with empty prefix."""
    return Abstracted((), body)


def _peel(arg: Argument, n: int) -> Argument:
    for _ in range(n):
        if not isinstance(arg, Abstr):
            raise ArityMismatch("head binds fewer variables than the boundary")
        arg = arg.body
    return arg


def fill(b: AbstractedBoundary, head: Argument) -> AbstractedJudgement:
    """Fills the placeholder of ``b`` with ``head``.

    Object boundaries take expression heads.  Equational boundaries take a
    dummy (tt) or, context-free, any argument: an assumption set records
    exactly that set, while other heads record their assumption set (the
    context-free reading; contexted callers always pass the dummy).
    """
    inner = _peel(head, len(b.prefix))
    if isinstance(inner, Abstr):
        raise ArityMismatch("head binds more variables than the boundary")
    match b.body, inner:
        case IsTyB(), ExprArg(expr=a):
            thesis: Thesis = IsTy(a)
        case IsTmB(ty=ty), ExprArg(expr=t):
            thesis = IsTm(t, ty)
        case (EqTyB() | EqTmB()), _:
            if isinstance(inner, DummyArg):
                by: object = DUMMY
            elif isinstance(inner, AsmArg):
                by = inner.assumptions
            else:
                by = asm(inner)
            if isinstance(b.body, EqTyB):
                thesis = EqTy(b.body.lhs, b.body.rhs, by)
            else:
                thesis = EqTm(b.body.lhs, b.body.rhs, b.body.ty, by)
        case _:
            raise ArityMismatch(
                f"cannot fill {type(b.body).__name__} with {type(inner).__name__}"
            )
    return Abstracted(b.prefix, thesis)


def fill_equation(
    b: AbstractedBoundary,
    lhs: Argument,
    rhs: Argument,
    by: Union[DummyArg, AssumptionSet] = DUMMY,
) -> AbstractedJudgement:
    """Fills an object boundary with an equation between two heads."""
    left = _peel(lhs, len(b.prefix))
    right = _peel(rhs, len(b.prefix))
    match b.body, left, right:
        case IsTyB(), ExprArg(expr=a1), ExprArg(expr=a2):
            thesis: Thesis = EqTy(a1, a2, by)
        case IsTmB(ty=ty), ExprArg(expr=t1), ExprArg(expr=t2):
            thesis = EqTm(t1, t2, ty, by)
        case _:
            raise NotObjectBoundary(
                f"cannot fill {type(b.body).__name__} with an equation"
            )
    return Abstracted(b.prefix, thesis)


def head_of(j: AbstractedJudgement) -> Argument:
    """The head of a judgement, as ``unfill`` splits it off, without
    building its boundary."""
    match j.body:
        case IsTy(ty=a):
            head: Argument = ExprArg(a)
        case IsTm(term=t):
            head = ExprArg(t)
        case EqTy(by=by) | EqTm(by=by):
            head = DUMMY if isinstance(by, DummyArg) else AsmArg(by)
        case _:
            raise PremiseMismatch(f"expected a judgement, got a boundary ({type(j.body).__name__})")
    for _ in range(len(j.prefix)):
        head = Abstr(head)
    return head


def unfill(j: AbstractedJudgement) -> tuple[AbstractedBoundary, Argument]:
    """Splits a judgement into its boundary and head; inverse of ``fill``."""
    head = head_of(j)
    match j.body:
        case IsTy():
            b: BoundaryThesis = IsTyB()
        case IsTm(ty=a):
            b = IsTmB(a)
        case EqTy(lhs=a, rhs=c):
            b = EqTyB(a, c)
        case EqTm(lhs=s, rhs=t, ty=a):
            b = EqTmB(s, t, a)
    return Abstracted(j.prefix, b), head


def boundary_of(j: AbstractedJudgement) -> AbstractedBoundary:
    return unfill(j)[0]


def abstract_judgement(j: Abstracted, v: FreeVar, ty: Expr) -> Abstracted:
    """Adds an outermost binder of type ``ty`` capturing the atom ``v``."""
    new_prefix = (ty,) + tuple(close_var(t, v, i) for i, t in enumerate(j.prefix))
    return Abstracted(new_prefix, close_var(j.body, v, len(j.prefix)))


def open_judgement(j: Abstracted, v: FreeVar) -> Abstracted:
    """Removes the outermost binder, substituting the atom ``v`` for it."""
    return substitute(j, v)


def instantiate_prefix(j: Abstracted, terms: list[Expr]) -> Abstracted:
    """Substitutes ``terms`` for the outermost ``len(terms)`` binders."""
    out = j
    for t in terms:
        out = substitute(out, t)
    return out


# ---------------------------------------------------------------------------
# Contexts of the contexted presentation


class _Context:
    """Finite list of declarations ``name : declared``, names distinct.
    Contexts of different kinds are never equal."""

    NAMES: str  # what the names are, for the error on a repeated one

    def __init__(self, entries=()):
        self.entries = tuple(entries)
        names = [n for n, _ in self.entries]
        if len(set(names)) != len(names):
            raise ValueError(f"{self.NAMES} names must be distinct")
        self._map = dict(self.entries)
        # The entries never change, so neither does the hash: a context is
        # part of every goal key of the tt obligation search.
        self._hash = hash(self.entries)

    def __contains__(self, name) -> bool:
        return name in self._map

    def __getitem__(self, name):
        return self._map[name]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.entries == other.entries

    def __hash__(self) -> int:
        return self._hash

    def extend(self, name, declared):
        return type(self)(self.entries + ((name, declared),))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({[n.name for n, _ in self.entries]})"


class MetaCtx(_Context):
    """Metavariable declarations M : B (``entries`` are (MetaName,
    AbstractedBoundary) pairs)."""

    NAMES = "metavariable"


class VarCtx(_Context):
    """Variable declarations a : A (``entries`` are (FreeVar, Expr) pairs)."""

    NAMES = "variable"

    def pop(self) -> "VarCtx":
        return VarCtx(list(self.entries[:-1]))


EMPTY_METAS = MetaCtx([])
EMPTY_VARS = VarCtx([])
