"""Raw rules, rule-boundaries, generated symbol/equality rules, congruence
and metavariable closure-rule schemas, and the theory well-formedness gates."""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional, Union

from .errors import (
    ArityMismatch,
    DuplicateSymbolRule,
    FreeVarInRule,
    MetaIntroducedTwice,
    MetaNotIntroduced,
    NoSymbolRule,
    NotEqualityBoundary,
    NotObjectBoundary,
    NotObjectRule,
    SymbolExists,
    UnknownMeta,
    UnknownRule,
)
from .instantiation import Instantiation, act
from .judgements import fill, fill_equation, plain, unfill
from .syntax import (
    _MV,
    Abstr,
    Abstracted,
    AbstractedBoundary,
    AbstractedJudgement,
    Argument,
    AsmArg,
    AssumptionSet,
    BoundVar,
    BoundaryThesis,
    DUMMY,
    EqTm,
    EqTy,
    Expr,
    ExprArg,
    FreeVar,
    IsTm,
    IsTmB,
    IsTy,
    MetaApp,
    MetaArity,
    MetaName,
    Signature,
    SymbolApp,
    SymbolArity,
    Thesis,
    _rewrite,
    arity_check,
    asm,
    boundary_arity,
    double_erase,
    fv,
    mv,
    mv_shallow,
    subst_bound_many,
    thesis_class,
)

Flavor = str  # "tt" | "cf"


class RuleParts(NamedTuple):
    """What the closure rules of a specific rule, and the obligation search
    applying it, take from the rule alone."""

    metas: tuple[MetaName, ...]  # the premise metavariables, in order
    objects: tuple[bool, ...]  # whether each premise is of an object class
    # The first metavariable a premise boundary mentions before its own
    # premise introduces it, in premise order, or None.
    unintroduced: Optional[str]
    boundary: AbstractedBoundary  # the plain conclusion boundary
    head: Argument  # the conclusion's head
    conclusion: AbstractedJudgement  # the plain conclusion
    # When the head applies a symbol to the generic application of each
    # premise (``generic_application``, in either flavour), the (metavariable,
    # binder count, object class) of each premise; else None.
    generic: Optional[tuple[tuple[MetaName, int, bool], ...]]


@dataclass(frozen=True)
class RawRule:
    """Premises (a metavariable context) and a non-abstracted conclusion.

    In the cf flavour each premise metavariable is annotated with its own
    boundary, and the conclusion carries assumption sets.
    """

    premises: tuple[tuple[MetaName, AbstractedBoundary], ...]
    conclusion: Thesis

    @property
    def is_object(self) -> bool:
        return thesis_class(self.conclusion).is_object

    def meta_arities(self) -> dict[MetaName, MetaArity]:
        return {m: boundary_arity(b) for m, b in self.premises}

    @cached_property
    def _hash(self) -> int:
        return hash((self.premises, self.conclusion))

    def __hash__(self) -> int:
        # The fields never change, so neither does the hash, which every
        # lookup in a rule-instance table (``Origin.instance``) asks for:
        # each one costs a Python-level ``__hash__`` call per node in the
        # premises.
        return self._hash

    @cached_property
    def parts(self) -> RuleParts:
        """The rule's ``RuleParts``, computed on first use and kept on the
        rule (not a field: equality, hashing and ``repr`` ignore it)."""
        unintroduced = None
        earlier: set[MetaName] = set()
        for m, b in self.premises:
            late = [u.name for u in mv(b) if u not in earlier]
            if late and unintroduced is None:
                unintroduced = min(late)
            earlier.add(m)
        conclusion = plain(self.conclusion)
        boundary, head = unfill(conclusion)
        metas = tuple(m for m, _ in self.premises)
        arities = [boundary_arity(b) for _, b in self.premises]
        generic = None
        if (
            isinstance(head, ExprArg)
            and isinstance(head.expr, SymbolApp)
            and len(head.expr.args) == len(set(metas)) == len(metas)
            and all(
                a == generic_application(m, arity, "tt")
                or (arity.cls.is_equality and a == generic_application(m, arity, "cf"))
                for a, m, arity in zip(head.expr.args, metas, arities)
            )
        ):
            generic = tuple((m, arity.binders, arity.cls.is_object) for m, arity in zip(metas, arities))
        return RuleParts(
            metas,
            tuple(arity.cls.is_object for arity in arities),
            unintroduced,
            boundary,
            head,
            conclusion,
            generic,
        )


@dataclass(frozen=True)
class RuleBoundary:
    """Premises plus a conclusion boundary; generates symbol/equality rules."""

    premises: tuple[tuple[MetaName, AbstractedBoundary], ...]
    conclusion: BoundaryThesis

    @property
    def is_object(self) -> bool:
        return thesis_class(self.conclusion).is_object


def generic_application(m: MetaName, arity: MetaArity, flavor: Flavor) -> Argument:
    """The canonical head for building a symbol rule from a rule-boundary."""
    k = arity.binders
    if arity.cls.is_object:
        inner: Argument = ExprArg(MetaApp(m, tuple(BoundVar(k - 1 - i) for i in range(k))))
    elif flavor == "tt":
        inner = DUMMY
    else:
        inner = AsmArg(
            AssumptionSet(frozenset(), frozenset(range(k)), frozenset([m]))
        )
    for _ in range(k):
        inner = Abstr(inner)
    return inner


def symbol_rule(sig: Signature, rb: RuleBoundary, symbol: str) -> tuple[Signature, RawRule]:
    """Extends the signature with ``symbol`` and returns its associated (cf)
    rule."""
    if not rb.is_object:
        raise NotObjectBoundary("symbol rules arise from object rule-boundaries")
    if symbol in sig:
        raise SymbolExists(symbol)
    arity = SymbolArity(
        thesis_class(rb.conclusion), tuple(boundary_arity(b) for _, b in rb.premises)
    )
    new_sig = sig.extend(symbol, arity)
    head = SymbolApp(
        symbol,
        tuple(
            generic_application(m, boundary_arity(b), "cf") for m, b in rb.premises
        ),
    )
    conclusion = fill(plain(rb.conclusion), ExprArg(head)).body
    return new_sig, RawRule(rb.premises, conclusion)


def equality_rule(rb: RuleBoundary) -> RawRule:
    """The (cf) equality rule associated to an equality rule-boundary: its
    conclusion assumes the premise metavariables the boundary omits."""
    if rb.is_object:
        raise NotEqualityBoundary("equality rules arise from equality rule-boundaries")
    everything = AssumptionSet(frozenset(), frozenset(), frozenset(m for m, _ in rb.premises))
    head = AsmArg(everything.difference(asm(plain(rb.conclusion))))
    conclusion = fill(plain(rb.conclusion), head).body
    return RawRule(rb.premises, conclusion)


def is_symbol_rule(sig: Signature, rule: RawRule, flavor: Flavor) -> Optional[str]:
    """The symbol this rule is the associated symbol rule for, if any: the
    rule's conclusion is its boundary filled with a head, so it is the
    symbol rule of its own premises and boundary exactly when that head
    applies a symbol of ``sig`` to the generic application of each
    premise."""
    match rule.conclusion:
        case IsTy(ty=head) | IsTm(term=head):
            pass
        case _:
            return None
    if not isinstance(head, SymbolApp) or head.symbol not in sig:
        return None
    generic = tuple(
        generic_application(m, boundary_arity(b), flavor) for m, b in rule.premises
    )
    return head.symbol if head.args == generic else None


# ---------------------------------------------------------------------------
# Closure-rule schemas (shared between the two engines)


# The size a theory family's table of rule instances (``Origin.instance``)
# starts at: enough for the ~90 a succ^90 chain asks each deriver for, which
# later chains ask for again.  ``_Sizing`` doubles a family's table, up to
# ``INSTANCE_CEILING``, while its misses mostly recompute evicted instances;
# a family that keeps meeting new ones stays at this size.
INSTANCE_CAP = 256
INSTANCE_CEILING = 16 * INSTANCE_CAP


def instance_of(schema, *args):
    """A closure-rule schema below (``rule_instance_premises``,
    ``congruence_premises_tt``, ...) applied to a rule and instantiations,
    the premises as a tuple.  The engines call it through the table of
    their theory's family, ``Origin.instance``, which remembers the last
    ``INSTANCE_CAP`` distinct calls or more (``_Sizing``): they rebuild and
    re-check many nodes with an instantiation they have seen before."""
    prem, *rest = schema(*args)
    return (tuple(prem), *rest)


def _instance_parts(rule: RawRule, *insts: Instantiation) -> RuleParts:
    """The rule's parts, once each instantiation is checked to instantiate
    exactly the rule's premises, in order, and the rule to introduce every
    metavariable before a premise boundary mentions it.  Then a premise
    boundary is acted on by the whole instantiation as by the initial
    segment before its premise."""
    parts = rule.parts
    for inst in insts:
        if inst.metas != parts.metas:
            raise ArityMismatch("instantiation does not match the rule's premises")
    if parts.unintroduced is not None:
        raise UnknownMeta(parts.unintroduced)
    return parts


def rule_instance_premises(
    rule: RawRule, inst: Instantiation
) -> tuple[list[AbstractedJudgement], AbstractedBoundary, AbstractedJudgement]:
    """The closure rule of a specific rule under an instantiation: the filled
    premises, the instantiated conclusion boundary, and the conclusion."""
    parts = _instance_parts(rule, inst)
    premises = [fill(act(inst, b), inst[m]) for m, b in rule.premises]
    return premises, act(inst, parts.boundary), act(inst, parts.conclusion)


def congruence_premises_tt(
    rule: RawRule, left: Instantiation, right: Instantiation
) -> tuple[list[AbstractedJudgement], AbstractedJudgement]:
    """The tt congruence closure rule for an object rule: premise judgements
    (both instantiations, equations for object premises, and the type
    equation for term rules) and the equational conclusion."""
    if not rule.is_object:
        raise NotObjectRule("congruence rules attach to object rules")
    parts = _instance_parts(rule, left, right)
    left_bdry = [act(left, b) for _, b in rule.premises]
    premises = [fill(b, left[m]) for m, b in zip(parts.metas, left_bdry)]
    premises += [fill(act(right, b), right[m]) for m, b in rule.premises]
    premises += [
        fill_equation(b, left[m], right[m], DUMMY)
        for m, b, obj in zip(parts.metas, left_bdry, parts.objects)
        if obj
    ]
    if isinstance(rule.conclusion, IsTm):
        premises.append(
            plain(EqTy(act(left, rule.conclusion.ty), act(right, rule.conclusion.ty), DUMMY))
        )
    return premises, _congruence_conclusion(parts, left, right)


def _congruence_conclusion(
    parts: RuleParts, left: Instantiation, right: Instantiation
) -> AbstractedJudgement:
    return fill_equation(
        act(left, parts.boundary), act(left, parts.head), act(right, parts.head), DUMMY
    )


def metavariable_rule_instance(
    m: MetaName, boundary: AbstractedBoundary, terms: list[Expr]
) -> tuple[list[AbstractedJudgement], AbstractedBoundary, AbstractedJudgement]:
    """The metavariable closure rule: term premises at iteratively substituted
    binder types, the substituted boundary, and the conclusion."""
    if len(terms) != len(boundary.prefix):
        raise ArityMismatch(
            f"{m.name} takes {len(boundary.prefix)} arguments, got {len(terms)}"
        )
    premises = []
    for j, ty in enumerate(boundary.prefix):
        # type of the j-th binder with the first j terms substituted in
        opened = subst_bound_many(ty, terms[:j]) if j else ty
        premises.append(plain(IsTm(terms[j], opened)))
    bdry = Abstracted((), subst_bound_many(boundary.body, terms) if terms else boundary.body)
    conclusion = fill(bdry, ExprArg(MetaApp(m, tuple(terms))))
    return premises, bdry, conclusion


def metavariable_congruence_instance(
    m: MetaName,
    boundary: AbstractedBoundary,
    left_terms: list[Expr],
    right_terms: list[Expr],
) -> tuple[list[AbstractedJudgement], AbstractedJudgement]:
    """The tt metavariable congruence closure rule (object boundaries only)."""
    if not boundary_arity(boundary).cls.is_object:
        raise NotObjectBoundary("metavariable congruence needs an object boundary")
    if len(left_terms) != len(boundary.prefix) or len(right_terms) != len(boundary.prefix):
        raise ArityMismatch("term lists must match the binder count")
    premises = []
    for j, ty in enumerate(boundary.prefix):
        premises.append(plain(IsTm(left_terms[j], subst_bound_many(ty, left_terms[:j]))))
    for j, ty in enumerate(boundary.prefix):
        premises.append(plain(IsTm(right_terms[j], subst_bound_many(ty, right_terms[:j]))))
    for j, ty in enumerate(boundary.prefix):
        opened = subst_bound_many(ty, left_terms[:j])
        premises.append(plain(EqTm(left_terms[j], right_terms[j], opened, DUMMY)))
    body = boundary.body
    if isinstance(body, IsTmB):
        premises.append(
            plain(
                EqTy(
                    subst_bound_many(body.ty, left_terms),
                    subst_bound_many(body.ty, right_terms),
                    DUMMY,
                )
            )
        )
    bdry_left = Abstracted((), subst_bound_many(body, left_terms) if left_terms else body)
    conclusion = fill_equation(
        bdry_left,
        ExprArg(MetaApp(m, tuple(left_terms))),
        ExprArg(MetaApp(m, tuple(right_terms))),
        DUMMY,
    )
    return premises, conclusion


# ---------------------------------------------------------------------------
# Theories


@dataclass(frozen=True)
class TheoryRule:
    name: str
    rule: RawRule
    symbol_for: Optional[str] = None  # set when the rule was generated for a symbol


class _Sizing:
    """The size of one family's table (``Origin.instance``), chosen from its
    misses, after the ghost entries of Megiddo and Modha's ARC.  The table
    is an ``lru_cache`` over ``miss``, so a hit never runs Python code.  A
    miss records the hash of its call, never the call: a term the table
    evicted is not kept alive.  The hashes of the last two windows of
    ``size`` misses are kept, and a window in which more than half of the
    misses recomputed one of them has seen the table evict what its family
    asks for again: the table is replaced by one twice the size, up to
    ``INSTANCE_CEILING``, and the record starts afresh, so refilling the
    new table counts for nothing.  Otherwise the windows roll over.  The
    family is held through a weak reference, so no reference cycle forms."""

    __slots__ = ("origin", "size", "misses", "recurred", "recent", "older")

    def __init__(self, origin: "Origin"):
        self.origin = weakref.ref(origin)
        self.size = INSTANCE_CAP
        self.misses = self.recurred = 0
        self.recent: set = set()
        self.older: set = set()

    def table(self):
        return lru_cache(maxsize=self.size)(self.miss)

    def miss(self, *args):
        key = hash(args)
        if key in self.recent or key in self.older:
            self.recurred += 1
        self.recent.add(key)
        self.misses += 1
        if self.misses == self.size:
            origin = self.origin()
            if 2 * self.recurred > self.size and self.size < INSTANCE_CEILING and origin is not None:
                self.size *= 2
                origin.instance = self.table()
                self.older = set()
            else:
                self.older = self.recent
            self.recent = set()
            self.misses = self.recurred = 0
        return instance_of(*args)


class Origin:
    """The token a theory and all its prefixes share (``Theory.origin``),
    with what they share: the tt engine's table of live derivation nodes
    (``tt_engine.node``) and the table of rule instances, ``instance``, an
    LRU in front of ``instance_of`` that ``_Sizing`` sizes and that lives
    and dies with the family.  Callers read ``instance`` at each call, as
    growing replaces it."""

    __slots__ = ("nodes", "instance", "__weakref__")

    def __init__(self):
        self.nodes: dict = {}
        self.instance = _Sizing(self).table()


class Theory:
    """A signature together with an ordered list of named specific rules.

    The list order is the well-founded order of the finitary gate.  Theories
    are immutable after construction; the finitary/standard checks cache
    their witnesses on the instance.
    """

    def __init__(self, signature: Signature, rules: list[TheoryRule], flavor: Flavor):
        if flavor not in ("tt", "cf"):
            raise ValueError("flavor must be 'tt' or 'cf'")
        rules = tuple(rules)
        by_name = {r.name: (i, r) for i, r in enumerate(rules)}
        if len(by_name) != len(rules):
            raise ValueError("rule names must be distinct")
        self._init(signature, rules, flavor, by_name, Origin())

    def _init(self, signature: Signature, rules: tuple, flavor: Flavor, by_name: dict, token):
        """Sets every field; ``__init__`` and ``prefix`` both end here."""
        self.signature = signature
        self.rules: tuple[TheoryRule, ...] = rules
        self.flavor = flavor
        # name -> (position, rule).  Prefixes share it and read it only below
        # their length, ``origin[1]``.
        self._by_name = by_name
        self.finitary_witnesses: Optional[dict] = None
        self._cache: dict = {}
        # (token, n): this theory is the first n rules of the theory the
        # token was made for, itself unless made by ``prefix``.  A token and
        # not that theory: certificates held by the theory refer to its
        # prefixes, and the reference back would make a cycle.
        self.origin: tuple[Origin, int] = (token, len(rules))

    def cached(self, key, compute):
        """``compute()``, remembered on the theory under ``key``."""
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def __contains__(self, name: str) -> bool:
        entry = self._by_name.get(name)
        return entry is not None and entry[0] < self.origin[1]

    def rule(self, name: str) -> TheoryRule:
        entry = self._by_name.get(name)
        if entry is None or entry[0] >= self.origin[1]:
            raise UnknownRule(f"no rule named {name!r}")
        return entry[1]

    def prefix(self, n: int) -> "Theory":
        """The first ``n`` rules over the same signature, made without a
        Python loop over the rules: it shares this theory's signature and
        rule index, which it reads only below position ``n``, and slices
        the rule tuple.  It records whose prefix it is, so ``cf_engine``
        tells in O(1) that a longer prefix of the same theory extends it."""
        out = object.__new__(Theory)
        out._init(self.signature, self.rules[:n], self.flavor, self._by_name, self.origin[0])
        return out

    def symbol_rule_for(self, symbol: str) -> TheoryRule:
        for r in self.rules:
            if r.symbol_for == symbol:
                return r
        raise NoSymbolRule(symbol)

    def __repr__(self) -> str:
        return f"Theory({[r.name for r in self.rules]}, flavor={self.flavor!r})"


def check_raw(sig: Signature, rule: Union[RawRule, RuleBoundary], flavor: Flavor) -> None:
    """Validates the syntactic side conditions of a raw rule or rule-boundary.

    Premise boundaries and the conclusion must be closed, arities respected,
    each metavariable introduced exactly once before use, and (cf rules only)
    the conclusion must mention every premise metavariable.
    """
    seen: dict[MetaName, MetaArity] = {}
    names_seen: set[str] = set()
    for m, b in rule.premises:
        if m.name in names_seen:
            raise MetaIntroducedTwice(m.name)
        names_seen.add(m.name)
        if fv(b):
            raise FreeVarInRule(f"premise boundary of {m.name} mentions free variables")
        used = mv_shallow(b) if flavor == "tt" else mv(b)
        late = [u.name for u in used if u not in seen]
        if late:
            raise MetaNotIntroduced(
                f"boundary of {m.name} fails to introduce the metavariable {min(late)}"
            )
        arity_check(sig, seen, b)
        if flavor == "cf" and m.annotation != b:
            raise MetaNotIntroduced(
                f"cf premise {m.name} must be annotated with its own boundary"
            )
        seen[m] = boundary_arity(b)
    conclusion = plain(rule.conclusion)
    if fv(conclusion):
        raise FreeVarInRule("conclusion mentions free variables")
    used = mv_shallow(conclusion) if flavor == "tt" else mv(conclusion)
    late = [u.name for u in used if u not in seen]
    if late:
        raise MetaNotIntroduced(f"conclusion fails to introduce the metavariable {min(late)}")
    arity_check(sig, seen, conclusion)
    if flavor == "cf" and isinstance(rule, RawRule):
        if used != frozenset(seen):
            missing = sorted(m.name for m in set(seen) - set(used))
            raise MetaNotIntroduced(
                "cf conclusion must mention every premise metavariable; "
                f"missing {', '.join(missing)}"
            )


def check_raw_once(theory: Theory, r: TheoryRule) -> None:
    """``check_raw`` on the rule ``r`` of ``theory``; once the rule passes,
    the theory remembers it and later calls return at once."""
    theory.cached(("check_raw", r.name), lambda: check_raw(theory.signature, r.rule, theory.flavor))


def check_standard(theory: Theory) -> None:
    """Checks that the object rules are the symbol rules, one per symbol.

    Assumes ``check_finitary`` has already passed.  Raises
    :class:`NotObjectRule` for an object rule that is not a symbol rule, and
    :class:`DuplicateSymbolRule` for two rules of one symbol or for a symbol
    with no rule.
    """
    seen_symbols: set[str] = set()
    for r in theory.rules:
        if not r.rule.is_object:
            continue
        symbol = is_symbol_rule(theory.signature, r.rule, theory.flavor)
        if symbol is None:
            raise NotObjectRule(f"rule {r.name} is an object rule but not a symbol rule")
        if symbol in seen_symbols:
            raise DuplicateSymbolRule(symbol)
        seen_symbols.add(symbol)
    for symbol in theory.signature:
        if symbol not in seen_symbols:
            raise DuplicateSymbolRule(f"symbol {symbol} has no associated rule")


def check_finitary(theory: Theory) -> None:
    """Walks the rules in list order, deriving each premise boundary and the
    conclusion boundary over the prefix theory; caches the witnesses."""
    from . import derive

    derive.check_finitary(theory)


# ---------------------------------------------------------------------------
# Building theories from flavourless declarations


def _annotate(x, mapping: dict[str, MetaName]):
    """Rewrites bare metavariable heads to their annotated cf counterparts."""
    if not mv(x):
        return x

    def bare(m: MetaName) -> MetaName:
        return mapping.get(m.name, m) if m.annotation is None else m

    # An annotation is rewritten by a call of its own, not by a closure
    # over ``leaves``: that would be a reference cycle left to the collector.
    def var(y: FreeVar, d: int):
        return FreeVar(y.name, _annotate(y.annotation, mapping))

    def meta(y: MetaApp, args: tuple, d: int):
        return MetaApp(bare(y.meta), args)

    def aset(y: AssumptionSet, d: int):
        return AssumptionSet(
            frozenset(_annotate(v, mapping) for v in y.free_vars),
            y.bound_vars,
            frozenset(map(bare, y.metas)),
        )

    return _rewrite(x, {FreeVar: var, MetaApp: meta, AssumptionSet: aset}, _MV)


class TheoryBuilder:
    """Assembles a theory from declarations written with bare metavariable
    names.  It elaborates them to the cf flavour, annotating each premise
    metavariable with its own boundary as it goes; the flavour only chooses
    what ``theory()`` returns: that theory, or for tt its rule-wise erasure
    (``erase_theory``)."""

    def __init__(self, flavor: Flavor):
        if flavor not in ("tt", "cf"):
            raise ValueError("flavor must be 'tt' or 'cf'")
        self.flavor = flavor
        self.signature = Signature()
        self.rules: list[TheoryRule] = []

    def _elaborate(self, premises: list[tuple[str, AbstractedBoundary]], conclusion):
        """The premises, each metavariable annotated with its boundary, and
        the conclusion, with each earlier premise's name annotated."""
        out = []
        mapping: dict[str, MetaName] = {}
        for name, b in premises:
            b = _annotate(b, mapping)
            mapping[name] = m = MetaName(name, b)
            out.append((m, b))
        return tuple(out), _annotate(conclusion, mapping)

    def add_symbol(self, name: str, arity: SymbolArity) -> "TheoryBuilder":
        self.signature = self.signature.extend(name, arity)
        return self

    def declare_symbol_rule(
        self,
        rule_name: str,
        premises: list[tuple[str, AbstractedBoundary]],
        conclusion: BoundaryThesis,
        symbol: Optional[str] = None,
    ) -> "TheoryBuilder":
        symbol = symbol or rule_name
        rb = RuleBoundary(*self._elaborate(premises, conclusion))
        self.signature, rule = symbol_rule(self.signature, rb, symbol)
        self.rules.append(TheoryRule(rule_name, rule, symbol_for=symbol))
        return self

    def declare_equality_rule(
        self,
        rule_name: str,
        premises: list[tuple[str, AbstractedBoundary]],
        conclusion: BoundaryThesis,
    ) -> "TheoryBuilder":
        rule = equality_rule(RuleBoundary(*self._elaborate(premises, conclusion)))
        self.rules.append(TheoryRule(rule_name, rule))
        return self

    def declare_explicit_rule(
        self,
        rule_name: str,
        premises: list[tuple[str, AbstractedBoundary]],
        conclusion: Thesis,
    ) -> "TheoryBuilder":
        """A rule whose conclusion judgement is spelled out (object rules)."""
        rule = RawRule(*self._elaborate(premises, conclusion))
        self.rules.append(
            TheoryRule(rule_name, rule, symbol_for=is_symbol_rule(self.signature, rule, "cf"))
        )
        return self

    def theory(self) -> Theory:
        annotated = Theory(self.signature, self.rules, "cf")
        return erase_theory(annotated) if self.flavor == "tt" else annotated


def erase_theory(theory: Theory) -> Theory:
    """The rule-wise erasure of a cf theory, the tt theory of its
    declarations: bare premise metavariables, and ``double_erase`` of each
    premise boundary and conclusion.  It shares the cf theory's signature,
    so ``arity_check`` passes recorded by either gate serve both.  A rule
    that is no cf symbol rule may be a tt one: the tt generic application of
    an equation premise is the dummy value, which the text may write."""
    sig = theory.signature
    rules = []
    for r in theory.rules:
        rule = RawRule(
            tuple((MetaName(m.name), double_erase(b)) for m, b in r.rule.premises),
            double_erase(r.rule.conclusion),
        )
        rules.append(TheoryRule(r.name, rule, r.symbol_for or is_symbol_rule(sig, rule, "tt")))
    return Theory(sig, rules, "tt")
