"""Parsers for the `.ftt` theory format, the `.fttd` script format, and
value literals (expressions, boundaries, assumption sets).

The theory format is line-oriented and diff-friendly:

    symbol S : type (type, {1} term)
    rule NAME: premise M : BOUNDARY; ...; yields CONCLUSION

Boundaries are written without the placeholder: `type` is a type boundary,
a lone expression is a term boundary at that type, and `a == b` or
`a == b : A` are equation boundaries, optionally under `{x : A}` binders.
After `yields`, the placeholder forms `type` and `: A` generate a symbol
rule named after the rule; `a == b (: A)` generates an equality rule; and a
full judgement (`A type` or `t : A`) declares the conclusion verbatim.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

from .errors import ParseError
from .syntax import (
    Abstr,
    Abstracted,
    AsmArg,
    AssumptionSet,
    BoundVar,
    Cls,
    Convert,
    DUMMY,
    EqTmB,
    EqTyB,
    Expr,
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
)
from .theory import Theory, TheoryBuilder, erase_theory

KEYWORDS = {
    "symbol",
    "rule",
    "premise",
    "yields",
    "type",
    "term",
    "eqtype",
    "eqterm",
    "by",
    "convert",
    "let",
    "var",
    "meta",
    "return",
}

# One match per token: the whitespace and comments before it, then the
# token, the end of the text, or an unexpected character.  The greedy skip
# never backtracks into a comment: it stops only before a character that is
# neither whitespace nor the start of ``--``, and there either a token or
# ``bad`` matches, or at the end of the text ``eof`` does.  (Without ``eof``,
# ``-- only`` at the end would give back its ``y`` as a name.)
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|--[^\n]*)*
    (?:
        (?P<name>[A-Za-z_][A-Za-z0-9_'-]*)
      | (?P<num>\d+)
      | (?P<op>==|[(){},;:^=*])
      | (?P<eof>\Z)
      | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)

# Deepest nesting of expressions (arguments, annotations, conversions) the
# parser accepts; anything deeper is a ParseError rather than a stack overflow.
MAX_NESTING = 256


@dataclass
class Token:
    kind: str  # name | num | op | eof
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, ending with an ``eof`` token, in one pass of
    ``_TOKEN_RE``.  A token's line and column are those of its first
    character, both from 1; the line number moves only where a match
    skipped a newline.  An unexpected character raises ``ParseError`` at its
    own position."""
    out = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        start = m.start(kind)
        skipped = m.start()
        if skipped != start:
            newlines = text.count("\n", skipped, start)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", skipped, start) + 1
        col = start - line_start + 1
        if kind == "eof":
            break
        if kind == "bad":
            raise ParseError(f"unexpected character {text[start]!r}", line, col)
        out.append(Token(kind, m.group(kind), line, col))
    out.append(Token("eof", "", line, col))
    return out


# ---------------------------------------------------------------------------
# Declaration ASTs (kept for printing)


@dataclass(frozen=True, eq=False)
class SymbolDecl:
    name: str
    arity: SymbolArity


@dataclass(frozen=True, eq=False)
class RuleDecl:
    name: str
    premises: tuple[tuple[str, object], ...]  # metavariable name, parsed boundary
    kind: str  # "symbol" | "equality" | "explicit"
    conclusion: object  # parsed boundary thesis or explicit thesis


@dataclass(frozen=True, eq=False)
class TheoryDecl:
    """The declarations of a theory file, in order.  They never change, so
    the theory elaborated from them is computed once and kept here."""

    decls: tuple[Union[SymbolDecl, RuleDecl], ...] = ()

    @cached_property
    def cf_theory(self) -> Theory:
        """The cf elaboration (``elaborate``), computed on first use."""
        return _elaborate_cf(self.decls)


@dataclass
class Step:
    target: str
    op: str
    args: list  # names, expressions, boundaries per op


@dataclass
class VarDecl:
    name: str
    type_of: str  # name of the judgement binding proving the type


@dataclass
class MetaDecl:
    name: str
    boundary: Abstracted


@dataclass
class Script:
    steps: list[Union[Step, VarDecl, MetaDecl]] = field(default_factory=list)
    result: Optional[str] = None


class Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0
        self.nesting = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def expect_name(self) -> Token:
        t = self.next()
        if t.kind != "name" or t.text in KEYWORDS:
            raise ParseError(f"expected a name, found {t.text!r}", t.line, t.col)
        return t

    def expect_word(self) -> Token:
        t = self.next()
        if t.kind != "name":
            raise ParseError(f"expected a word, found {t.text!r}", t.line, t.col)
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text

    # -- expressions ----------------------------------------------------------

    def expr(self, binders: list[str]) -> Expr:
        t = self.peek()
        if self.nesting == MAX_NESTING:
            raise ParseError(f"expressions nested deeper than {MAX_NESTING}", t.line, t.col)
        # A ParseError abandons the parser, so only the returns unwind this.
        self.nesting += 1
        if t.text == "convert":
            self.next()
            self.expect("(")
            inner = self.expr(binders)
            self.expect(",")
            aset = self.assumption_set(binders)
            self.expect(")")
            self.nesting -= 1
            return ("convert", inner, aset)
        if t.kind != "name":
            raise ParseError(f"expected an expression, found {t.text!r}", t.line, t.col)
        name = self.next().text
        annotation = None
        if self.at("^"):
            self.next()
            if self.at("("):
                self.next()
                annotation = self.expr([])
                self.expect(")")
            else:
                annotation = self.atomic_expr()
        args: Optional[list] = None
        if self.at("("):
            self.next()
            args = []
            if not self.at(")"):
                args.append(self.argument(binders))
                while self.at(","):
                    self.next()
                    args.append(self.argument(binders))
            self.expect(")")
        self.nesting -= 1
        return ("name", name, annotation, args, binders[:])  # resolved later

    def atomic_expr(self) -> Expr:
        t = self.expect_name()
        return ("name", t.text, None, None, [])

    def argument(self, binders: list[str]):
        names = []
        while self.at("{") and self._brace_is_binder():
            self.next()
            names.append(self.expect_name().text)
            self.expect("}")
        if self.at("{"):
            aset = self.assumption_set(binders + names)
            return ("asm-arg", names, aset)
        if self.at("*"):
            self.next()
            return ("dummy-arg", names)
        e = self.expr(binders + names)
        return ("expr-arg", names, e)

    def _brace_is_binder(self) -> bool:
        # `{x}` is a binder when the argument goes on after it; `{x, ...}`,
        # `{}`, `{x^...}` and an argument that is all `{x}` are sets
        j = self.i
        if self.toks[j].text != "{":
            return False
        if self.toks[j + 1].kind != "name":
            return False
        if self.toks[j + 2].text != "}" or self.toks[j + 1].text in KEYWORDS:
            return False
        return self.toks[j + 3].text not in (",", ")")

    def assumption_set(self, binders: list[str]):
        self.expect("{")
        entries = []
        if not self.at("}"):
            entries.append(self.set_entry(binders))
            while self.at(","):
                self.next()
                entries.append(self.set_entry(binders))
        self.expect("}")
        return ("set", entries)

    def set_entry(self, binders: list[str]):
        t = self.expect_name()
        annotation = None
        if self.at("^"):
            self.next()
            if self.at("("):
                self.next()
                annotation = self.expr([])
                self.expect(")")
            else:
                annotation = self.atomic_expr()
        return ("entry", t.text, annotation, binders[:])

    # -- boundaries and judgements ---------------------------------------------

    def abstraction_prefix(self, binders: list[str]) -> list[tuple[str, Expr]]:
        out = []
        while self.at("{") and self.toks[self.i + 2].text == ":":
            self.next()
            n = self.expect_name().text
            self.expect(":")
            ty = self.expr(binders + [x for x, _ in out])
            self.expect("}")
            out.append((n, ty))
        return out

    def boundary(self, binders: list[str]):
        prefix = self.abstraction_prefix(binders)
        inner = binders + [n for n, _ in prefix]
        if self.at("type"):
            self.next()
            return ("boundary", prefix, ("ty",))
        e1 = self.expr(inner)
        if self.at("=="):
            self.next()
            e2 = self.expr(inner)
            if self.at(":"):
                self.next()
                ty = self.expr(inner)
                return ("boundary", prefix, ("eqtm", e1, e2, ty))
            return ("boundary", prefix, ("eqty", e1, e2))
        return ("boundary", prefix, ("tm", e1))

    def conclusion(self):
        """After `yields`: a placeholder boundary, an equation boundary, or a
        full judgement."""
        if self.at("type"):
            self.next()
            return ("symbol", ("ty",))
        if self.at(":"):
            self.next()
            return ("symbol", ("tm", self.expr([])))
        e1 = self.expr([])
        if self.at("type"):
            self.next()
            return ("explicit", ("isty", e1))
        if self.at(":"):
            self.next()
            return ("explicit", ("istm", e1, self.expr([])))
        if self.at("=="):
            self.next()
            e2 = self.expr([])
            if self.at(":"):
                self.next()
                return ("equality", ("eqtm", e1, e2, self.expr([])))
            return ("equality", ("eqty", e1, e2))
        t = self.peek()
        raise ParseError("malformed conclusion", t.line, t.col)

    # -- theory files -----------------------------------------------------------

    def theory(self) -> TheoryDecl:
        decls = []
        while not self.at(""):
            if self.at("symbol"):
                decls.append(self.symbol_decl())
            elif self.at("rule"):
                decls.append(self.rule_decl())
            else:
                t = self.peek()
                raise ParseError(f"expected a declaration, found {t.text!r}", t.line, t.col)
        return TheoryDecl(tuple(decls))

    def symbol_decl(self) -> SymbolDecl:
        self.expect("symbol")
        name = self.expect_name().text
        self.expect(":")
        cls = self.cls_token()
        args = []
        if self.at("("):
            self.next()
            if not self.at(")"):
                args.append(self.arity_slot())
                while self.at(","):
                    self.next()
                    args.append(self.arity_slot())
            self.expect(")")
        return SymbolDecl(name, SymbolArity(cls, tuple(args)))

    def cls_token(self) -> Cls:
        t = self.next()
        mapping = {"type": Cls.TY, "term": Cls.TM, "eqtype": Cls.EQTY, "eqterm": Cls.EQTM}
        if t.text not in mapping:
            raise ParseError(f"expected a syntactic class, found {t.text!r}", t.line, t.col)
        return mapping[t.text]

    def arity_slot(self) -> MetaArity:
        binders = 0
        if self.at("{"):
            self.next()
            binders = int(self.next().text)
            self.expect("}")
        return MetaArity(self.cls_token(), binders)

    def rule_decl(self) -> RuleDecl:
        self.expect("rule")
        name = self.expect_name().text
        self.expect(":")
        premises = []
        while self.at("premise"):
            self.next()
            m = self.expect_name().text
            self.expect(":")
            premises.append((m, self.boundary([])))
            self.expect(";")
        self.expect("yields")
        kind, concl = self.conclusion()
        return RuleDecl(name, tuple(premises), kind, concl)

    # -- scripts -----------------------------------------------------------------

    def script(self) -> Script:
        s = Script()
        while not self.at(""):
            if self.at("var"):
                self.next()
                n = self.expect_name().text
                self.expect(":")
                ty_of = self.expect_name().text
                self.expect(";")
                s.steps.append(VarDecl(n, ty_of))
            elif self.at("meta"):
                self.next()
                n = self.expect_name().text
                self.expect(":")
                b = self.boundary([])
                self.expect(";")
                s.steps.append(MetaDecl(n, b))
            elif self.at("let"):
                self.next()
                target = self.expect_name().text
                self.expect("=")
                op = self.expect_word().text
                self.expect("(")
                args = []
                if not self.at(")"):
                    args.append(self.expect_name().text)
                    while self.at(","):
                        self.next()
                        args.append(self.expect_name().text)
                self.expect(")")
                self.expect(";")
                s.steps.append(Step(target, op, args))
            elif self.at("return"):
                self.next()
                s.result = self.expect_name().text
                self.expect(";")
            else:
                t = self.peek()
                raise ParseError(f"expected a script step, found {t.text!r}", t.line, t.col)
        return s


# ---------------------------------------------------------------------------
# Name resolution


# Each parsed boundary or conclusion form: the kind of rule it declares after
# ``yields``, and its thesis.  The symbol and equality forms are boundaries.
_THESES = {
    "ty": ("symbol", IsTyB),
    "tm": ("symbol", IsTmB),
    "eqty": ("equality", EqTyB),
    "eqtm": ("equality", EqTmB),
    "isty": ("explicit", IsTy),
    "istm": ("explicit", IsTm),
}


class Scope:
    """Resolves parsed name nodes against symbols, metavariables and atoms.

    With ``loose_metas`` (rule declarations), unknown names resolve to bare
    metavariables so that the rawness gate can report them; elsewhere they
    are errors.
    """

    def __init__(self, symbols, metas: dict, variables: dict, loose_metas: bool = False):
        self.symbols = symbols
        self.metas = metas  # name -> MetaName (annotated for cf)
        self.variables = variables  # name -> FreeVar
        self.loose_metas = loose_metas

    def resolve_expr(self, node, binders: tuple[str, ...]) -> Expr:
        match node:
            case ("name", name, annotation, args, _):
                if annotation is not None:
                    ann = self.resolve_expr(annotation, ())
                    v = FreeVar(name, ann)
                    if args is not None:
                        raise ParseError(f"variable {name} cannot take arguments")
                    return v
                if args is None and name in binders:
                    return BoundVar(_bound_index(binders, name))
                if name in self.metas:
                    m = self.metas[name]
                    ts = tuple(self._expr_args(args or [], binders))
                    return MetaApp(m, ts)
                if name in self.symbols:
                    resolved = []
                    # A loop, unlike a generator, adds no stack frame per nesting level.
                    for a in args or []:
                        resolved.append(self.resolve_arg(a, binders))
                    return SymbolApp(name, tuple(resolved))
                if name in self.variables:
                    if args is not None:
                        raise ParseError(f"variable {name} cannot take arguments")
                    return self.variables[name]
                if self.loose_metas:
                    ts = tuple(self._expr_args(args or [], binders))
                    return MetaApp(MetaName(name), ts)
                raise ParseError(f"unknown name {name!r}")
            case ("convert", inner, aset):
                return Convert(self.resolve_expr(inner, binders), self.resolve_set(aset, binders))
        raise ParseError(f"malformed expression {node!r}")

    def _expr_args(self, args, binders):
        out = []
        for a in args:
            r = self.resolve_arg(a, binders)
            if not isinstance(r, ExprArg):
                raise ParseError("metavariable arguments must be term expressions")
            out.append(r.expr)
        return out

    def resolve_arg(self, node, binders: tuple[str, ...]):
        match node:
            case ("expr-arg", names, e):
                inner = ExprArg(self.resolve_expr(e, binders + tuple(names)))
                for _ in names:
                    inner = Abstr(inner)
                return inner
            case ("dummy-arg", names):
                inner = DUMMY
                for _ in names:
                    inner = Abstr(inner)
                return inner
            case ("asm-arg", names, aset):
                inner = AsmArg(self.resolve_set(aset, binders + tuple(names)))
                for _ in names:
                    inner = Abstr(inner)
                return inner
        raise ParseError(f"malformed argument {node!r}")

    def resolve_set(self, node, binders: tuple[str, ...]) -> AssumptionSet:
        _, entries = node
        fvs, bvs, ms = set(), set(), set()
        for _, name, annotation, _ in entries:
            if annotation is not None:
                fvs.add(FreeVar(name, self.resolve_expr(annotation, ())))
            elif name in binders:
                bvs.add(_bound_index(binders, name))
            elif name in self.metas:
                ms.add(self.metas[name])
            elif name in self.variables:
                fvs.add(self.variables[name])
            else:
                raise ParseError(f"unknown assumption {name!r}")
        return AssumptionSet(frozenset(fvs), frozenset(bvs), frozenset(ms))

    def resolve_boundary(self, node, binders: tuple[str, ...] = ()) -> Abstracted:
        _, prefix, body = node
        tys = []
        names: tuple[str, ...] = binders
        for n, ty in prefix:
            tys.append(self.resolve_expr(ty, names))
            names = names + (n,)
        kind, thesis = _THESES.get(body[0], ("explicit", None))
        if kind == "explicit":
            raise ParseError(f"malformed boundary {body!r}")
        return Abstracted(tuple(tys), thesis(*[self.resolve_expr(e, names) for e in body[1:]]))


def _bound_index(binders, name: str) -> int:
    seq = list(binders)
    for i in range(len(seq) - 1, -1, -1):
        if seq[i] == name:
            return len(seq) - 1 - i
    raise ParseError(f"unbound variable {name!r}")


# ---------------------------------------------------------------------------
# Elaboration of theory declarations


def elaborate(decl: TheoryDecl, flavor: str) -> Theory:
    """The theory of the parsed declarations in the requested flavour.  The
    declarations are elaborated once, to the cf flavour, and the declaration
    keeps that theory (``TheoryDecl.cf_theory``); the tt theory is its
    rule-wise erasure (``theory.erase_theory``), as the paper translates a
    context-free theory into a contexted one."""
    if flavor not in ("tt", "cf"):
        raise ValueError("flavor must be 'tt' or 'cf'")
    theory = decl.cf_theory
    return theory if flavor == "cf" else erase_theory(theory)


def _elaborate_cf(decls: tuple[Union[SymbolDecl, RuleDecl], ...]) -> Theory:
    builder = TheoryBuilder("cf")
    declare = {
        "symbol": builder.declare_symbol_rule,
        "equality": builder.declare_equality_rule,
        "explicit": builder.declare_explicit_rule,
    }
    for d in decls:
        if isinstance(d, SymbolDecl):
            builder.add_symbol(d.name, d.arity)
            continue
        metas: dict[str, MetaName] = {}
        scope = Scope(builder.signature, metas, {}, loose_metas=True)
        premises = []
        for m_name, b_node in d.premises:
            premises.append((m_name, scope.resolve_boundary(b_node)))
            metas[m_name] = MetaName(m_name)
        tag, *exprs = d.conclusion
        kind, thesis = _THESES.get(tag, (None, None))
        if kind != d.kind:
            raise ParseError(f"malformed conclusion for rule {d.name}")
        declare[kind](d.name, premises, thesis(*[scope.resolve_expr(e, ()) for e in exprs]))
    return builder.theory()


def parse_theory(text: str) -> TheoryDecl:
    return Parser(text).theory()


def parse_script(text: str) -> Script:
    return Parser(text).script()


def parse_term(text: str, theory: Theory) -> Expr:
    """Parses a standalone (cf) term or type literal; variables must carry
    `^` annotations."""
    p = Parser(text)
    node = p.expr([])
    if not p.at(""):
        t = p.peek()
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    scope = Scope(theory.signature, {}, {})
    return scope.resolve_expr(node, ())
