"""Metavariable instantiations and their action on all syntactic categories."""

from __future__ import annotations

from typing import Iterable

from .errors import ArityMismatch, IndexOutOfRange, UnknownMeta
from .syntax import (
    _MV,
    Abstr,
    Argument,
    AssumptionSet,
    Expr,
    ExprArg,
    FreeVar,
    MetaApp,
    MetaName,
    _rewrite,
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
    if not mv(x):
        return x

    def walk(y):
        return _rewrite(y, leaves, _MV)

    def var(y: FreeVar, d: int):
        return FreeVar(y.name, walk(y.annotation))

    def meta(y: MetaApp, args: tuple, d: int):
        return _apply_meta_argument(shift(inst[y.meta], d), args)

    def aset(y: AssumptionSet, d: int):
        out = AssumptionSet(frozenset(map(walk, y.free_vars)), y.bound_vars, frozenset())
        for m in y.metas:
            if m not in inst:
                raise UnknownMeta(m.name)
            out = out.union(asm(shift(inst[m], d)))
        return out

    leaves = {FreeVar: var, MetaApp: meta, AssumptionSet: aset}
    return walk(x)


def erase_instantiation(inst: Instantiation) -> Instantiation:
    """Erases every instantiating argument (metavariable keys unchanged)."""
    return Instantiation([(m, erase(arg)) for m, arg in inst.entries])
