"""Metavariable instantiations and their action on all syntactic categories."""

from __future__ import annotations

from typing import Iterable

from .errors import ArityMismatch, IndexOutOfRange, UnknownMeta
from .syntax import (
    _MV,
    _SELF,
    _SHAPES,
    _occurrences,
    Abstr,
    Argument,
    AssumptionSet,
    Expr,
    ExprArg,
    FreeVar,
    MetaApp,
    MetaName,
    asm,
    erase,
    flat_reduce,
    mv,
    shift,
    subst_bound_many,
)


class Instantiation:
    """Ordered map from metavariables to arity-matching arguments."""

    def __init__(self, entries: Iterable[tuple[MetaName, Argument]] = ()):
        self.entries: tuple[tuple[MetaName, Argument], ...] = tuple(entries)
        self._map = dict(self.entries)
        if len(self._map) != len(self.entries):
            raise ValueError("instantiated metavariables must be distinct")
        self.metas: tuple[MetaName, ...] = tuple(self._map)
        # The entries never change, so neither does the hash, computed on
        # the first ``__hash__``: it costs a Python-level ``__hash__`` call
        # per node in the entries, and most instantiations are never hashed.
        self._hash = None
        # The closure-rule instance a tt node holding this instantiation was
        # inferred with, with its rule (``tt_engine._instance``).
        self.instance = None

    def _flat_args(self) -> tuple:
        return (self.entries,)

    # Rebuilt on load, without the hash and the instance.
    __reduce__ = flat_reduce

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
        if self._hash is None:
            self._hash = hash(self.entries)
        return self._hash

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


# The steps of an action plan.  Each is a tuple ``(op, a, n, c)``:
#   _CONST    pushes the subterm ``a``, which mentions no metavariable;
#   _REBUILD  pops ``n`` values, pushes ``c(a, values)``: the node ``a``
#             (``_SELF`` for the planned node) rebuilt by its shape;
#   _META     pops the ``n`` acted arguments of the metavariable ``a``'s
#             application, which sits under ``c`` binders, and pushes its
#             instantiating argument with them substituted;
#   _ATOM     pops an acted annotation, pushes the free variable named ``a``
#             carrying it;
#   _ASET     pops ``n`` acted free variables and pushes the assumption set
#             whose free variables ``a`` lists, with ``_HOLE`` for each
#             popped one, and with ``c = (bound_vars, metas, depth)``.
_CONST, _REBUILD, _META, _ATOM, _ASET = range(5)
_HOLE = object()


def _recording(x):
    """Yields the steps of ``act``'s walk of ``x`` in postfix order, on its
    own stack, and stores them on ``x`` as its plan once the walk is done.
    The walk descends only into subterms that mention a metavariable, and
    into the annotation of an atom, from depth 0, where it does."""
    plan = []
    todo = [(x, 0)]
    while todo:
        step = todo.pop()
        if len(step) == 2:
            y, d = step
            # mv(x) filled the occurrence caches of every node below x.
            if not _occurrences(y)[_MV]:
                step = (_CONST, y, 0, None)
            else:
                cls = type(y)
                if cls is MetaApp:
                    todo.append((_META, y.meta, len(y.args), d))
                    todo += [(t, d) for t in reversed(y.args)]
                elif cls is FreeVar:
                    todo += [(_ATOM, y.name, 0, None), (y.annotation, 0)]
                elif cls is AssumptionSet:
                    atoms = tuple(_HOLE if _occurrences(v)[_MV] else v for v in y.free_vars)
                    acted = [(v, d) for v in y.free_vars if _occurrences(v)[_MV]]
                    todo.append((_ASET, atoms, len(acted), (y.bound_vars, tuple(y.metas), d)))
                    todo += reversed(acted)
                else:
                    children, binders, rebuild = _SHAPES[cls]
                    kids = children(y)
                    todo.append((_REBUILD, _SELF if y is x else y, len(kids), rebuild))
                    todo += [
                        (kids[i], d + (binders if binders >= 0 else i))
                        for i in reversed(range(len(kids)))
                    ]
                continue
        plan.append(step)
        yield step
    object.__setattr__(x, "_plan", tuple(plan))


def _run(plan, x, inst: Instantiation):
    """Runs the action plan ``plan`` of ``x`` with ``inst`` on a value stack."""
    vals: list = []
    push = vals.append
    for op, a, n, c in plan:
        if op == _CONST:
            push(a)
        elif op == _REBUILD:
            y = x if a is _SELF else a
            if n == 1:
                vals[-1] = c(y, (vals[-1],))
            else:
                kids = tuple(vals[-n:])
                del vals[-n:]
                push(c(y, kids))
        elif op == _META:
            args = ()
            if n:
                args = tuple(vals[-n:])
                del vals[-n:]
            arg = inst._map.get(a)
            if arg is None:
                raise UnknownMeta(a.name)
            push(_apply_meta_argument(shift(arg, c) if c else arg, args))
        elif op == _ATOM:
            vals[-1] = FreeVar(a, vals[-1])
        else:
            acted = iter(vals[len(vals) - n:])
            del vals[len(vals) - n:]
            bound_vars, metas, d = c
            free_vars = frozenset(next(acted) if v is _HOLE else v for v in a)
            out = AssumptionSet(free_vars, bound_vars, frozenset())
            for m in metas:
                if m not in inst:
                    raise UnknownMeta(m.name)
                out = out.union(asm(shift(inst[m], d)))
            push(out)
    return vals[-1]


def act(inst: Instantiation, x):
    """Acts with the instantiation on any syntactic value.

    Metavariable applications are replaced by the instantiating argument with
    the (acted) terms simultaneously substituted; assumption-set entries for
    an instantiated metavariable are replaced by the assumption set of its
    argument; free-variable annotations are rewritten in place.  A subterm
    that mentions no metavariable is returned as it is.

    The walk depends on ``x`` alone, so its first ``act`` records it on
    ``x`` as a plan of steps (see ``_recording``), and every later ``act``
    on ``x``, with any instantiation, runs the plan instead of walking.
    Both keep their own stacks, so term depth is not bounded by the
    recursion limit.
    """
    if not mv(x):
        return x
    plan = x._plan
    return _run(_recording(x) if plan is None else plan, x, inst)


def erase_instantiation(inst: Instantiation) -> Instantiation:
    """Erases every instantiating argument (metavariable keys unchanged)."""
    return Instantiation([(m, erase(arg)) for m, arg in inst.entries])
