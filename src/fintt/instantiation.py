"""Metavariable instantiations and their action on all syntactic categories."""

from __future__ import annotations

from typing import Iterable

from .errors import ArityMismatch, IndexOutOfRange, UnknownMeta
from .syntax import (
    Abstr,
    Abstracted,
    Argument,
    AsmArg,
    AssumptionSet,
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
    MetaApp,
    MetaName,
    SymbolApp,
    asm,
    erase,
    mv,
    shift,
    subst_bound_many,
)


class Instantiation:
    """Ordered map from metavariables to arity-matching arguments."""

    def __init__(self, entries: Iterable[tuple[MetaName, Argument]] = ()):
        self.entries: tuple[tuple[MetaName, Argument], ...] = tuple(entries)
        names = [m for m, _ in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("instantiated metavariables must be distinct")
        self._map = dict(self.entries)

    def __contains__(self, m: MetaName) -> bool:
        return m in self._map

    def __getitem__(self, m: MetaName) -> Argument:
        if m not in self._map:
            raise UnknownMeta(m.name)
        return self._map[m]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, Instantiation) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def restrict(self, i: int) -> "Instantiation":
        """The first ``i - 1`` entries (1-based initial segment)."""
        if i < 0 or i > len(self.entries) + 1:
            raise IndexOutOfRange(f"restriction index {i} out of range")
        return Instantiation(self.entries[: max(i - 1, 0)])

    def __repr__(self) -> str:
        return f"Instantiation({[m.name for m, _ in self.entries]})"


def _apply_meta_argument(arg: Argument, terms: tuple[Expr, ...]) -> Expr:
    """Plugs the terms into an object-class argument {x1}...{xk} e."""
    body = arg
    binders = 0
    while isinstance(body, Abstr):
        binders += 1
        body = body.body
    if binders != len(terms):
        raise ArityMismatch(
            f"instantiating argument binds {binders} variables, got {len(terms)} terms"
        )
    if not isinstance(body, ExprArg):
        raise ArityMismatch("metavariable stands for an object argument")
    return subst_bound_many(body.expr, terms)


def act(inst: Instantiation, x):
    """Acts with the instantiation on any syntactic value.

    Metavariable applications are replaced by the instantiating argument with
    the (acted) terms simultaneously substituted; assumption-set entries for
    an instantiated metavariable are replaced by the assumption set of its
    argument; free-variable annotations are rewritten in place.  A subterm
    that mentions no metavariable is returned as it is.
    """

    def walk_set(aset: AssumptionSet, depth: int) -> AssumptionSet:
        if not mv(aset):
            return aset
        fv = frozenset(walk(v, 0) for v in aset.free_vars)
        out = AssumptionSet(fv, aset.bound_vars, frozenset())
        for m in aset.metas:
            if m in inst:
                out = out.union(asm(shift(inst[m], depth)))
            else:
                raise UnknownMeta(m.name)
        return out

    def walk(x, depth: int):
        if not mv(x):
            return x
        match x:
            case FreeVar(name=n, annotation=ann):
                return FreeVar(n, walk(ann, 0))
            case SymbolApp(symbol=s, args=args):
                return SymbolApp(s, tuple(walk(a, depth) for a in args))
            case MetaApp(meta=m, args=args):
                terms = tuple(walk(t, depth) for t in args)
                return _apply_meta_argument(shift(inst[m], depth), terms)
            case Convert(term=t, assumptions=a):
                return Convert(walk(t, depth), walk_set(a, depth))
            case AssumptionSet():
                return walk_set(x, depth)
            case ExprArg(expr=e):
                return ExprArg(walk(e, depth))
            case AsmArg(assumptions=a):
                return AsmArg(walk_set(a, depth))
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
                raise TypeError(f"cannot instantiate {x!r}")

    return walk(x, 0)


def erase_instantiation(inst: Instantiation) -> Instantiation:
    """Erases every instantiating argument (metavariable keys unchanged)."""
    return Instantiation([(m, erase(arg)) for m, arg in inst.entries])
