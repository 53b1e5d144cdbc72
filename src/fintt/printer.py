"""Deterministic pretty-printer for syntax values, theories and scripts.

Binder names are canonical (x, y, z, w, x4, x5, ...) by depth, so printing
is a function of the de Bruijn representation alone; the corpus files are
written in this canonical form, making parse-then-print the identity on
them.
"""

from __future__ import annotations

from .syntax import (
    Abstr,
    Abstracted,
    AsmArg,
    AssumptionSet,
    BoundVar,
    Cls,
    Convert,
    DummyArg,
    EqTm,
    EqTmB,
    EqTy,
    EqTyB,
    ExprArg,
    FreeVar,
    IsTm,
    IsTmB,
    IsTy,
    IsTyB,
    MetaApp,
    MetaArity,
    MetaName,
    SymbolApp,
    SymbolArity,
    first_difference,
)

_CANON = ["x", "y", "z", "w"]


def binder_name(depth: int) -> str:
    return _CANON[depth] if depth < len(_CANON) else f"x{depth}"


def _is_atomic(e) -> bool:
    match e:
        case FreeVar(annotation=None) | BoundVar():
            return True
        case SymbolApp(args=args) | MetaApp(args=args):
            return not args
        case _:
            return False


def _expr(e, binders: tuple[str, ...]) -> list:
    match e:
        case FreeVar(name=n, annotation=None):
            return [n]
        case FreeVar(name=n, annotation=ann):
            if _is_atomic(ann):
                return [f"{n}^", (_expr, ann, ())]
            return [f"{n}^(", (_expr, ann, ()), ")"]
        case BoundVar(index=i):
            return [_index(i, binders)]
        case SymbolApp(symbol=s, args=args):
            if not args:
                return [s]
            return [f"{s}(", *_listed(_arg, args, binders), ")"]
        case MetaApp(meta=m, args=args):
            if not args:
                return [m.name]
            return [f"{m.name}(", *_listed(_expr, args, binders), ")"]
        case Convert(term=t, assumptions=a):
            return ["convert(", (_expr, t, binders), ", ", print_set(a, binders), ")"]
    raise TypeError(f"cannot print {e!r}")


def _arg(a, binders: tuple[str, ...]) -> list:
    names = []
    while isinstance(a, Abstr):
        names.append(binder_name(len(binders) + len(names)))
        a = a.body
    prefix = "".join(f"{{{n}}} " for n in names)
    inner_binders = binders + tuple(names)
    match a:
        case ExprArg(expr=e):
            return [prefix, (_expr, e, inner_binders)]
        case DummyArg():
            return [prefix + "*"]
        case AsmArg(assumptions=s):
            return [prefix + print_set(s, inner_binders)]
    raise TypeError(f"cannot print argument {a!r}")


def _index(i: int, binders: tuple[str, ...]) -> str:
    return f"?{i}" if i >= len(binders) else binders[len(binders) - 1 - i]


def _listed(step, xs, binders: tuple[str, ...]) -> list:
    """The steps printing each of ``xs``, separated by commas."""
    out = []
    for i, x in enumerate(xs):
        if i:
            out.append(", ")
        out.append((step, x, binders))
    return out


def _pieces(step, x, binders: tuple[str, ...]):
    """The text ``step`` prints for ``x``, piece by piece and in order.  A
    step returns strings and the steps still to print; they wait on an
    explicit stack, so term depth is not bounded by the recursion limit."""
    stack = [(step, x, binders)]
    while stack:
        top = stack.pop()
        if isinstance(top, str):
            yield top
        else:
            step, x, binders = top
            stack += reversed(step(x, binders))


def print_expr(e, binders: tuple[str, ...] = ()) -> str:
    return "".join(_pieces(_expr, e, binders))


def _cut(pieces, limit: int) -> str:
    """The text of ``pieces`` cut to at most ``limit`` characters, ending in
    "..." when cut.  Printing stops once the text is longer than ``limit``,
    so the work is bounded by ``limit``, not by the size of the syntax (an
    assumption set is printed whole: its variables are sorted by their
    text)."""
    taken, length = [], 0
    for piece in pieces:
        taken.append(piece)
        length += len(piece)
        if length > limit:
            return "".join(taken)[: limit - 3] + "..."
    return "".join(taken)


def print_expr_cut(e, limit: int) -> str:
    """``print_expr(e)`` cut to at most ``limit`` characters."""
    return _cut(_pieces(_expr, e, ()), limit)


def print_abstracted_cut(j: Abstracted, limit: int) -> str:
    """``print_abstracted(j)`` cut to at most ``limit`` characters."""
    return _cut(_pieces(_abstracted, j, ()), limit)


# The length to which a refusal cuts each piece of syntax it shows.
SHOWN_LENGTH = 200


def print_set(a: AssumptionSet, binders: tuple[str, ...] = ()) -> str:
    bound = [_index(i, binders) for i in sorted(a.bound_vars)]
    free = [text for _, text in sorted((v.name, print_expr(v)) for v in a.free_vars)]
    metas = sorted(m.name for m in a.metas)
    return "{" + ", ".join(bound + free + metas) + "}"


def _thesis(t, binders: tuple[str, ...]) -> list:
    def e(x):
        return (_expr, x, binders)

    match t:
        case IsTy(ty=a):
            return [e(a), " type"]
        case IsTm(term=tm, ty=a):
            return [e(tm), " : ", e(a)]
        case IsTyB():
            return ["type"]
        case IsTmB(ty=a):
            return [e(a)]
        case EqTy(lhs=a, rhs=b) | EqTyB(lhs=a, rhs=b):
            out = [e(a), " == ", e(b)]
        case EqTm(lhs=s, rhs=tm, ty=a) | EqTmB(lhs=s, rhs=tm, ty=a):
            out = [e(s), " == ", e(tm), " : ", e(a)]
        case _:
            raise TypeError(f"cannot print {type(t).__name__}")
    by = getattr(t, "by", None)
    return out + [f" by {print_set(by, binders)}"] if isinstance(by, AssumptionSet) else out


def _abstracted(j: Abstracted, binders: tuple[str, ...]) -> list:
    out = []
    for ty in j.prefix:
        name = binder_name(len(binders))
        out += [f"{{{name} : ", (_expr, ty, binders), "} "]
        binders += (name,)
    return out + _thesis(j.body, binders)


def print_abstracted(j: Abstracted) -> str:
    return "".join(_pieces(_abstracted, j, ()))


_THESES = (IsTy, IsTm, EqTy, EqTm, IsTyB, IsTmB, EqTyB, EqTmB)


def _syntax(x, binders: tuple[str, ...]) -> list:
    """The steps printing a syntax node of any kind."""
    if isinstance(x, MetaName):
        if x.annotation is None:
            return [x.name]
        return [f"{x.name}^(", (_abstracted, x.annotation, ()), ")"]
    if isinstance(x, Abstracted):
        return _abstracted(x, binders)
    if isinstance(x, _THESES):
        return _thesis(x, binders)
    if isinstance(x, (ExprArg, DummyArg, AsmArg, Abstr)):
        return _arg(x, binders)
    if isinstance(x, AssumptionSet):
        return [print_set(x, binders)]
    return _expr(x, binders)


def print_syntax_cut(x, limit: int) -> str:
    """A syntax node of any kind printed and cut to at most ``limit``
    characters."""
    return _cut(_pieces(_syntax, x, ()), limit)


def print_difference_cut(x, y, limit: int) -> str:
    """The text "A against B" of the first pair of subterms at which ``x``
    and ``y`` differ (see ``syntax.first_difference``), each printed and cut
    to at most ``limit`` characters."""
    a, b = first_difference(x, y)
    return " against ".join(_cut(_pieces(_syntax, z, ()), limit) for z in (a, b))


def _statement(stmt, binders: tuple[str, ...]) -> list:
    """The steps printing a tt statement on one line."""
    from .tt_engine import BdryTT, JdgTT, MctxWF, VctxWF

    def meta(e, bs):
        return [e[0].name, " : ", (_abstracted, e[1], bs)]

    def var(e, bs):
        return [(_expr, e[0], bs), " : ", (_expr, e[1], bs)]

    metas = _listed(meta, stmt.mctx, binders)
    variables = _listed(var, getattr(stmt, "vctx", ()), binders)
    match stmt:
        case JdgTT(jdg=j):
            return [*metas, "; ", *variables, " |- ", (_abstracted, j, binders)]
        case BdryTT(bdry=b):
            return [*metas, "; ", *variables, " |- ", (_abstracted, b, binders), " (boundary)"]
        case MctxWF(mctx=m):
            return [f"|- mctx {', '.join(mm.name for mm, _ in m)}"]
        case VctxWF(mctx=m):
            return [f"{', '.join(mm.name for mm, _ in m)} |- vctx ; ", *variables]
    raise TypeError(stmt)


def print_statement(stmt) -> str:
    """One-line rendering of a tt statement."""
    return "".join(_pieces(_statement, stmt, ()))


def print_statement_cut(stmt, limit: int) -> str:
    """``print_statement(stmt)`` cut to at most ``limit`` characters."""
    return _cut(_pieces(_statement, stmt, ()), limit)


def _statement_syntax(stmt) -> tuple:
    """The syntax of a tt statement in printing order, in three sections:
    its metavariable context (each metavariable, as its application to
    nothing, and its boundary), its variable context (each variable and its
    type) and its judgement or boundary."""
    return (
        tuple(x for m, b in stmt.mctx for x in (MetaApp(m, ()), b)),
        tuple(x for entry in getattr(stmt, "vctx", ()) for x in entry),
        tuple(getattr(stmt, f) for f in ("jdg", "bdry") if hasattr(stmt, f)),
    )


def print_statement_difference_cut(x, y, limit: int) -> str:
    """The first difference of two unequal tt statements, in printing
    order: their kinds, the first pair of syntax that differs, printed as by
    ``print_difference_cut``, or the lengths of a context that is longer."""
    if type(x) is not type(y):
        return f"{type(x).__name__} against {type(y).__name__}"
    for xs, ys in zip(_statement_syntax(x), _statement_syntax(y)):
        for a, b in zip(xs, ys):
            if a != b:
                return print_difference_cut(a, b, limit)
        if len(xs) != len(ys):
            return f"{len(xs) // 2} against {len(ys) // 2} context entries"
    raise ValueError("the statements are equal")


def print_arity(arity: SymbolArity) -> str:
    def slot(s: MetaArity) -> str:
        base = {"Ty": "type", "Tm": "term", "EqTy": "eqtype", "EqTm": "eqterm"}[s.cls.value]
        return f"{{{s.binders}}} {base}" if s.binders else base

    cls = "type" if arity.cls == Cls.TY else "term"
    if not arity.args:
        return cls
    return f"{cls} ({', '.join(slot(s) for s in arity.args)})"


# ---------------------------------------------------------------------------
# Declaration and script printing (parse-tree level, canonical layout)


def _print_node_expr(node) -> str:
    match node:
        case ("name", name, None, None, _):
            return name
        case ("name", name, ann, None, _):
            inner = _print_node_expr(ann)
            simple = isinstance(ann, tuple) and ann[0] == "name" and ann[3] is None
            return f"{name}^{inner}" if simple else f"{name}^({inner})"
        case ("name", name, None, args, _):
            return f"{name}({', '.join(_print_node_arg(a) for a in args)})"
        case ("convert", inner, aset):
            return f"convert({_print_node_expr(inner)}, {_print_node_set(aset)})"
    raise TypeError(f"cannot print node {node!r}")


def _print_node_arg(node) -> str:
    match node:
        case ("expr-arg", names, e):
            prefix = "".join(f"{{{n}}} " for n in names)
            return prefix + _print_node_expr(e)
        case ("dummy-arg", names):
            return "".join(f"{{{n}}} " for n in names) + "*"
        case ("asm-arg", names, aset):
            return "".join(f"{{{n}}} " for n in names) + _print_node_set(aset)
    raise TypeError(f"cannot print argument node {node!r}")


def _print_node_set(node) -> str:
    _, entries = node
    parts = []
    for _, name, ann, _ in entries:
        if ann is None:
            parts.append(name)
        else:
            inner = _print_node_expr(ann)
            simple = isinstance(ann, tuple) and ann[0] == "name" and ann[3] is None
            parts.append(f"{name}^{inner}" if simple else f"{name}^({inner})")
    return "{" + ", ".join(parts) + "}"


def _print_node_boundary(node) -> str:
    _, prefix, body = node
    parts = [f"{{{n} : {_print_node_expr(ty)}}}" for n, ty in prefix]
    match body:
        case ("ty",):
            parts.append("type")
        case ("tm", e):
            parts.append(_print_node_expr(e))
        case ("eqty", e1, e2):
            parts.append(f"{_print_node_expr(e1)} == {_print_node_expr(e2)}")
        case ("eqtm", e1, e2, ty):
            parts.append(
                f"{_print_node_expr(e1)} == {_print_node_expr(e2)} : {_print_node_expr(ty)}"
            )
    return " ".join(parts)


def print_theory_decl(decl) -> str:
    from .parser import RuleDecl, SymbolDecl

    lines = []
    for d in decl.decls:
        if isinstance(d, SymbolDecl):
            lines.append(f"symbol {d.name} : {print_arity(d.arity)}")
            continue
        parts = [f"rule {d.name}:"]
        for m, b in d.premises:
            parts.append(f" premise {m} : {_print_node_boundary(b)};")
        if d.kind == "symbol":
            match d.conclusion:
                case ("ty",):
                    parts.append(" yields type")
                case ("tm", e):
                    parts.append(f" yields : {_print_node_expr(e)}")
        elif d.kind == "equality":
            match d.conclusion:
                case ("eqty", e1, e2):
                    parts.append(
                        f" yields {_print_node_expr(e1)} == {_print_node_expr(e2)}"
                    )
                case ("eqtm", e1, e2, ty):
                    parts.append(
                        f" yields {_print_node_expr(e1)} == {_print_node_expr(e2)}"
                        f" : {_print_node_expr(ty)}"
                    )
        else:
            match d.conclusion:
                case ("isty", e):
                    parts.append(f" yields {_print_node_expr(e)} type")
                case ("istm", e, ty):
                    parts.append(
                        f" yields {_print_node_expr(e)} : {_print_node_expr(ty)}"
                    )
        lines.append("".join(parts))
    return "\n".join(lines) + "\n"


def print_script(script) -> str:
    from .parser import MetaDecl, Step, VarDecl

    lines = []
    for s in script.steps:
        if isinstance(s, VarDecl):
            lines.append(f"var {s.name} : {s.type_of};")
        elif isinstance(s, MetaDecl):
            lines.append(f"meta {s.name} : {_print_node_boundary(s.boundary)};")
        else:
            lines.append(f"let {s.target} = {s.op}({', '.join(s.args)});")
    if script.result is not None:
        lines.append(f"return {script.result};")
    return "\n".join(lines) + "\n"
