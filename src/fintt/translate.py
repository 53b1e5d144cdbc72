"""Translations between the contexted and context-free presentations.

cf -> tt: erase the judgement, collect its annotated atoms into a suitable
context (closed under annotation dependence, as ``mv`` and ``fv`` read it
off), and derive the erasure there by induction on the certificate's
construction: each certificate keeps the call that made it, and replaying
that record gives the tt closure rule or admissible transform of each step
(``CfToTT``).  The record is not trusted: every node is re-inferred, each
step must conclude its certificate's erasure, and the depth limit is the
obligation search's.  The search of ``derive`` is left only for the records
that have no route with contexts.

tt -> cf: induction on the derivation, labelling each context entry with a
certificate whose payload is its cf annotation: the certificate of a
metavariable's boundary, or of a variable's type.  The step of a node
translates its premises and applies the context-free rule of its kind.  A
premise that does not already fill the boundary the rule instantiates with
the earlier premises is first moved onto it by boundary conversion, which
takes up the slack that erasure leaves.  A congruence's equation is held to
its left fill and its own right side, which the rule checks against the
right fill only up to erasure.  The induction runs on
``tt_engine.walk``, which keeps no Python frame per level; as a policy it
refuses a derivation nested deeper than ``MAX_DEPTH`` levels with
``DepthExceeded``.

A round trip cf -> tt -> cf labels each atom of the suitable context, which
the derivation keeps annotated, with the certificate of its own annotation
from the certificate's annotation cache.  The replayed derivation keeps each
conversion as a ``TT-Conv-*`` node, so the round trip gives back the
certificate's payload exactly.

Transported congruence goes cf -> tt once per premise, reads the fills of a
premise equation off its derivation, as the presuppositions of a derivable
judgement are derivable, applies the congruence closure rule to them, and
goes back tt -> cf with each premise's derivation answered by the premise's
own certificate, as the translations are mutually inverse on it.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Sequence

from . import cf_engine as cf
from . import tt_engine as tt
from .derive import MAX_DEPTH, DeriveError, TTDeriver
from .errors import (
    NonStandardTheory,
    PremiseMismatch,
    UncheckableDerivation,
    UnsuitableContext,
)
from .instantiation import Instantiation
from .judgements import MetaCtx, VarCtx, head_of, plain
from .printer import SHOWN_LENGTH, print_statement_cut
from .syntax import (
    Abstracted,
    EqTm,
    EqTy,
    ExprArg,
    FreeVar,
    IsTm,
    IsTmB,
    IsTy,
    MetaApp,
    MetaName,
    atoms_in_use,
    boundary_arity,
    double_erase,
    erase,
    fresh_name,
    fv,
    mv,
)
from .theory import Theory, metavariable_rule_instance, rule_instance_premises


# ---------------------------------------------------------------------------
# Suitable contexts


def _dependence_order(atoms, deps) -> list:
    """``atoms`` by (dependence depth, name).  The closed set ``deps(x)`` is
    smaller than that of each atom depending on ``x``, so stepping the atoms
    by its size meets every dependency first."""
    if len(atoms) < 2:
        return list(atoms)
    of = {x: deps(x) for x in atoms}
    depth: dict = {}
    for x in sorted(atoms, key=lambda x: len(of[x])):
        ds = of[x]
        depth[x] = 1 + max(map(depth.__getitem__, ds)) if ds else 0
    return sorted(atoms, key=lambda x: (depth[x], x.name))


def dependence_closure(
    metas: Sequence[MetaName], variables: Sequence[FreeVar]
) -> tuple[list[MetaName], list[FreeVar]]:
    """Closes the given atom sets under annotation dependence and returns
    them in a deterministic order extending the dependence order.  ``mv``
    and ``fv`` already descend into annotations; only the variables of the
    metavariables' boundaries are added."""
    ms = frozenset().union(*map(mv, metas), *map(mv, variables))
    vs = frozenset().union(*map(fv, variables), *(fv(m.annotation) for m in ms))
    return (
        _dependence_order(ms, lambda m: mv(m.annotation)),
        _dependence_order(vs, lambda v: fv(v.annotation)),
    )


def suitable_context(
    metas: Sequence[MetaName], variables: Sequence[FreeVar]
) -> tuple[MetaCtx, VarCtx]:
    """The suitable tt context for the given cf atoms: domains are the
    dependence closures, entries the erased annotations."""
    ms, vs = dependence_closure(metas, variables)
    for m in ms:
        if m.annotation is None:
            raise UnsuitableContext(f"{m.name} carries no boundary annotation")
    for v in vs:
        if v.annotation is None:
            raise UnsuitableContext(f"{v.name} carries no type annotation")
    mctx = MetaCtx([(m, erase(m.annotation)) for m in ms])
    vctx = VarCtx([(v, erase(v.annotation)) for v in vs])
    return mctx, vctx


# ---------------------------------------------------------------------------
# cf -> tt: judgement reconstruction


def _concludes(d, cert, mctx: MetaCtx, vctx: VarCtx) -> bool:
    """Whether ``d`` concludes the erasure of ``cert`` in ``mctx; vctx``."""
    stmt = d.conclusion
    if isinstance(cert, cf.CertifiedJudgement):
        ok = type(stmt) is tt.JdgTT and stmt.jdg is erase(cert.payload)
    else:
        ok = type(stmt) is tt.BdryTT and stmt.bdry is erase(cert.payload)
    return ok and (stmt.mctx is mctx or stmt.mctx == mctx) and (stmt.vctx is vctx or stmt.vctx == vctx)


def _covers(record: tuple, mctx: MetaCtx, vctx: VarCtx) -> bool:
    """Whether the contexts hold every atom of the certificates of ``record``."""
    for x in record:
        if isinstance(x, cf.Certificate):
            if not (all(v in vctx for v in fv(x.payload)) and all(m in mctx for m in mv(x.payload))):
                return False
    return True


# The record kinds whose route the context can block: an abstraction of an
# atom the context binds already, and the kinds whose certificate may drop an
# atom that theirs mention, when the context lacks one.
_BLOCKABLE = frozenset(
    {
        "cf_abstract_fwd", "cf_substitute", "presuppositions_cf", "boundary_components",
        "binder_type_cert", "natural_type_eq",
    }
)


def _blocked(record: tuple, mctx: MetaCtx, vctx: VarCtx) -> bool:
    """Whether the contexts block the route of ``record`` (``_BLOCKABLE``)."""
    kind = record[0]
    if kind == "cf_abstract_fwd":
        return record[3] in vctx
    return kind in _BLOCKABLE and not _covers(record, mctx, vctx)


# The rules that conclude a boundary without binders.
_BOUNDARY_RULES = frozenset({"TT-Bdry-Ty", "TT-Bdry-Tm", "TT-Bdry-EqTy", "TT-Bdry-EqTm"})


class CfToTT:
    """Derives the erasures of certified judgements over a suitable context
    by induction on their construction: each certificate's record, the
    constructor call that made it (``Certificate.record``), is replayed, its
    certificates first.  ``tt_theory`` is the contexted counterpart the
    derivations check against: the rule-wise erasure of the cf theory, which
    is what ``elaborate`` returns for tt.

    Each record kind goes to the tt closure rule of its constructor
    (``_TWINS``, or a method in ``_ROUTES``), or to the admissible transform
    the paper's proof of it uses: an abstraction's body is replayed in the
    context extended by its atom, substitution, equal substitution and
    instantiation go to ``admissible_substitute``, ``eq_subst_n`` and
    ``admissible_instantiate``, and the engine's meta-theorems, which make a
    judgement from another certificate (its presupposition, a component or
    binder type of a boundary, inversion, the natural-type equation), are
    read off that one's derivation, through ``tt_engine.presuppositions``
    and ``tt_engine.invert`` where they fit.  Boundary conversion and
    uniqueness of typing write no record of their own: they are built from
    constructor and meta-theorem calls, whose records are replayed.

    Searched kinds: ``strengthen``, ``cf_abstract_fwd``, ``cf_substitute``,
    ``presuppositions_cf``, ``boundary_components``, ``binder_type_cert``
    and ``natural_type_eq``.  Strengthening is not admissible with contexts,
    so a ``strengthen`` record has no route.  The others have one that the
    context can block (``_BLOCKABLE``): an abstraction of an atom that the
    context binds already, as where a lambda's bound atom is also its
    application's argument, and, for the kinds whose certificate may drop an
    atom that theirs mention (a substituted term where the binder is not
    used, the subject of a presupposition), a record whose certificates
    mention an atom that the context lacks.  The erasure of such a
    certificate is derived by the tt obligation search, in the context the
    replay has reached, and ``searched`` counts these derivations.

    A twin step whose certificate has the payload of one of its own
    certificates (the symmetry of a reflexive equation, a transitivity with
    a reflexivity) is answered by that one's derivation: the round trip
    gives the payload back all the same, with fewer nodes.

    A record is not trusted.  Every node is built by ``tt_engine.node``, and
    a result that does not conclude its certificate's erasure in its context
    is refused with ``UncheckableDerivation``: a wrong record gives a
    refusal, never a wrong derivation.  The replay runs on
    ``tt_engine.walk``, and a record nested deeper than the search may nest a
    goal is refused alike: a record ``n`` levels below the certificate is the
    search's goal at depth ``n + 1``.  A result depends only on the payload
    and the context, so the walk's table is kept across calls and each pair
    is derived once per translator."""

    # The record kinds whose tt twin takes the first ``n`` certificates of the
    # record, replayed in the same context: (the twin in ``tt_engine``, n).
    _TWINS = {
        "cf_eqty_refl": ("eqty_refl", 1),
        "cf_eqty_sym": ("eqty_sym", 1),
        "cf_eqty_trans": ("eqty_trans", 2),
        "cf_eqtm_refl": ("eqtm_refl", 1),
        "cf_eqtm_sym": ("eqtm_sym", 1),
        "cf_eqtm_trans": ("eqtm_trans", 2),
        "cf_conv_tm": ("conv_tm", 2),
        "cf_conv_eqtm": ("conv_eqtm", 2),
        "cf_bdry_tm": ("bdry_tm", 1),
        "cf_bdry_eqty": ("bdry_eqty", 2),
        "cf_bdry_eqtm": ("bdry_eqtm", 3),
    }
    # The other record kinds with a route: the method given the context and
    # the rest of the record.  A method that replays certificates is a
    # generator yielding each with the context to replay it in.
    _ROUTES = {
        "cf_var": "_var",
        "cf_bdry_ty": "_bdry_ty",
        "cf_abstract_fwd": "_abstract",
        "cf_meta": "_meta",
        "cf_meta_congr": "_meta_congr",
        "cf_apply_rule": "_specific",
        "cf_congruence": "_congruence",
        "cf_substitute": "_substitute",
        "cf_subst_eq": "_subst_eq",
        "cf_instantiate": "_instantiate",
        "presuppositions_cf": "_presuppositions",
        "boundary_components": "_component",
        "binder_type_cert": "_binder_type",
        "natural_type_eq": "_natural_type_eq",
        "invert_cf": "_invert",
    }

    def __init__(self, cf_theory: Theory, tt_theory: Theory):
        self.cf = cf_theory
        self.tt = tt_theory
        self.searched = 0
        self._table: dict = {}  # (payload, contexts) -> derivation
        self._evidence_of: dict = {}  # contexts -> their well-formedness

    def judgement(self, cert: cf.CertifiedJudgement, ctx=None):
        if ctx is None:
            ctx = _context_of(cert.payload)
        else:
            need_m, need_v = dependence_closure(list(mv(cert.payload)), list(fv(cert.payload)))
            if any(m not in ctx[0] for m in need_m) or any(v not in ctx[1] for v in need_v):
                raise UnsuitableContext("context does not cover the judgement")

        def step(item):
            c, cx = item
            kind = c.record[0]
            twin = self._TWINS.get(kind)
            if twin is not None:
                kids = []
                for k in c.record[1 : 1 + twin[1]]:
                    kids.append((yield k, cx))
                    if k.payload is c.payload:  # a symmetry or transitivity that changes nothing
                        d = kids[-1]
                        break
                else:
                    d = getattr(tt, twin[0])(self.tt, *kids)
            elif kind in self._ROUTES and not _blocked(c.record, *cx):
                d = getattr(self, self._ROUTES[kind])(cx, *c.record[1:])
                if isinstance(d, GeneratorType):
                    d = yield from d
            else:
                d = self._search(c, cx)
            if not _concludes(d, c, *cx):
                shown = print_statement_cut(d.conclusion, SHOWN_LENGTH)
                raise UncheckableDerivation(f"cf->tt: the record of {kind} replays to {shown}")
            return d

        too_deep = (MAX_DEPTH - 1, "cf->tt: obligation recursion too deep")
        key = lambda item: (item[0].payload, item[1])
        return (*ctx, tt.walk((cert, tuple(ctx)), step, key, self._table, too_deep))

    # -- the routes --------------------------------------------------------

    def _var(self, cx, v, cert_annotation):
        return tt.tt_var(self.tt, *cx, v)

    def _bdry_ty(self, cx):
        return tt.bdry_ty(self.tt, *cx)

    def _abstract(self, cx, cert_ty, cert_j, v):
        """The body replayed in the context extended by the atom."""
        ty = yield cert_ty, cx
        binder = tt._want_plain_thesis(ty.conclusion, IsTy, "abstraction").ty
        body = yield cert_j, (cx[0], cx[1].extend(v, binder))
        return tt.tt_abstr(self.tt, ty, body, v)

    def _premises(self, cx, certs):
        out = []
        for c in certs:
            out.append((yield c, cx))
        return out

    def _meta(self, cx, m, term_certs, cert_bdry, annotation_cert):
        terms = yield from self._premises(cx, term_certs)
        bdry = None if cert_bdry is None else (yield cert_bdry, cx)
        return tt.tt_meta(self.tt, *cx, m, terms, bdry)

    def _meta_congr(self, cx, m, s_certs, t_certs, eq_certs, annotation_cert):
        """TT-Meta-Congr; for a term metavariable the type equation
        C[ss] == C[ts] is equal substitution into the type C of its
        boundary, under the boundary's binders."""
        kids = yield from self._premises(cx, (*s_certs, *t_certs, *eq_certs))
        k = len(s_certs)
        if isinstance(m.annotation.body, IsTmB):
            ty = self._component_of((yield annotation_cert, cx), 0)
            eq = tt.eq_subst_n(
                self.tt, ty, kids[:k], kids[k : 2 * k], kids[2 * k :], mctx_deriv=self._mctx_evidence(cx)
            )
            kids.append(eq)
        sides = [[tt._head_term(d) for d in ds] for ds in (kids[:k], kids[k : 2 * k])]
        return tt.meta_congr(self.tt, *cx, m, *sides, kids)

    def _instantiation(self, rule_name: str, kids) -> Instantiation:
        """The tt rule's instantiation at the heads of the premises ``kids``."""
        premises = self.tt.rule(rule_name).rule.premises
        return Instantiation([(m, head_of(d.conclusion.jdg)) for (m, _), d in zip(premises, kids)])

    def _specific(self, cx, rule_name, premise_certs, cert_bdry):
        kids = yield from self._premises(cx, premise_certs)
        bdry = None if cert_bdry is None else (yield cert_bdry, cx)
        inst = self._instantiation(rule_name, kids)
        return tt.specific(self.tt, *cx, rule_name, inst, kids, bdry)

    def _congruence(self, cx, rule_name, left_certs, right_certs, eq_certs, t_prime_cert):
        """TT-Congr; for a term rule the type equation I*A == J*A is read off
        t' : I*A, which erases to J*t: inverted, it is J*t converted from its
        natural type J*A, else the two types are one."""
        left = yield from self._premises(cx, left_certs)
        right = yield from self._premises(cx, right_certs)
        kids = [*left, *right, *(yield from self._premises(cx, eq_certs))]
        if t_prime_cert is not None:
            t_prime = yield t_prime_cert, cx
            inv = tt.invert(self.tt, t_prime)
            if inv.rule == "TT-Conv-Tm":
                kids.append(tt.eqty_sym(self.tt, inv.premises[1]))
            else:
                kids.append(tt.eqty_refl(self.tt, self._type_of(cx, t_prime)))
        left_inst, right_inst = self._instantiation(rule_name, left), self._instantiation(rule_name, right)
        return tt.congruence(self.tt, *cx, rule_name, left_inst, right_inst, kids)

    def _substitute(self, cx, cert_abs, cert_t):
        d_abs = yield cert_abs, cx
        return tt.admissible_substitute(self.tt, d_abs, (yield cert_t, cx))

    def _subst_eq(self, cx, cert_abs, s_certs, t_certs, eq_certs):
        d_abs = yield cert_abs, cx
        triples = []
        for certs in (s_certs, t_certs, eq_certs):
            triples.append((yield from self._premises(cx, certs)))
        return tt.eq_subst_n(self.tt, d_abs, *triples, mctx_deriv=self._mctx_evidence(cx))

    def _instantiate(self, cx, entries, cert_j):
        """The judgement replayed over the metavariables it is instantiated
        at, with the context's variables; then instantiated."""
        mctx, vctx = cx
        source = MetaCtx([(m, erase(m.annotation)) for m, _ in entries])
        d = yield cert_j, (source, vctx)
        derivs = {}
        for m, c in entries:
            derivs[m] = yield c, cx
        inst = Instantiation([(m, head_of(e.conclusion.jdg)) for m, e in derivs.items()])
        mctx_deriv = self._mctx_evidence(cx)
        return tt.admissible_instantiate(self.tt, inst, derivs, d, mctx, vctx, mctx_deriv=mctx_deriv)

    def _presuppositions(self, cx, cert):
        return tt.presuppositions(self.tt, (yield cert, cx), *self._evidence(cx))

    def _component(self, cx, cert_b, i: int):
        return self._component_of((yield cert_b, cx), i)

    def _component_of(self, d, i: int):
        """The ``i``-th premise of the boundary rule that ends the boundary
        derivation ``d`` under its binders, abstracted back over them: as
        ``boundary_components`` reads a boundary, and an abstracted one too."""
        chain, body = tt._open_abstractions(d)
        if body.rule not in _BOUNDARY_RULES or i >= len(body.premises):
            raise UncheckableDerivation(f"cf->tt: no component {i} of a {body.rule} node")
        out = body.premises[i]
        for ty, atom in reversed(chain):
            out = tt.tt_abstr(self.tt, ty, out, atom)
        return out

    def _binder_type(self, cx, cert_b, j: int):
        """The type of the ``j``-th binder under the ones before it."""
        chain, _ = tt._open_abstractions((yield cert_b, cx))
        if j >= len(chain):
            raise UncheckableDerivation(f"cf->tt: no binder {j} of {len(chain)}")
        out = chain[j][0]
        for ty, atom in reversed(chain[:j]):
            out = tt.tt_abstr(self.tt, ty, out, atom)
        return out

    def _natural_type_eq(self, cx, cert):
        """nat(t) == A: the equation of t's inversion, else reflexivity."""
        d = yield cert, cx
        inv = tt.invert(self.tt, d)
        if inv.rule == "TT-Conv-Tm":
            return inv.premises[1]
        return tt.eqty_refl(self.tt, self._type_of(cx, d))

    def _invert(self, cx, cert):
        return tt.invert(self.tt, (yield cert, cx))

    # -- what the routes need besides replays --------------------------------

    def _type_of(self, cx, d):
        """The derivation of the type a term derivation ``d`` concludes at,
        from its presuppositions."""
        return tt._bdry_premises(tt.presuppositions(self.tt, d, *self._evidence(cx)), "TT-Bdry-Tm")[0]

    def _mctx_evidence(self, cx):
        """Evidence for the metavariable context of ``cx``, where the equal
        substitutions may need it: None for the empty one."""
        return self._evidence(cx)[0] if len(cx[0]) else None

    def _evidence(self, cx):
        """Well-formedness derivations of the contexts ``cx``, found by the tt
        obligation search once per translator."""
        if cx not in self._evidence_of:
            ttd = TTDeriver(self.tt)
            try:
                self._evidence_of[cx] = ttd.mctx_wf(cx[0]), ttd.vctx_wf(*cx)
            except DeriveError as exc:
                raise UncheckableDerivation(f"cf->tt: {exc}") from exc
        return self._evidence_of[cx]

    def _search(self, cert, cx):
        """The erasure of ``cert`` derived by the tt obligation search."""
        self.searched += 1
        ttd = TTDeriver(self.tt)
        goal = ttd.judgement if isinstance(cert, cf.CertifiedJudgement) else ttd.boundary
        try:
            return goal(*cx, erase(cert.payload))
        except DeriveError as exc:
            raise UncheckableDerivation(f"cf->tt: {exc}") from exc


def _context_of(*payloads) -> tuple[MetaCtx, VarCtx]:
    """The suitable context of the atoms of ``payloads``."""
    return suitable_context(frozenset().union(*map(mv, payloads)), frozenset().union(*map(fv, payloads)))


def cf_judgement_to_tt(cf_theory: Theory, tt_theory: Theory, cert: cf.CertifiedJudgement):
    """Translates a certificate to a contexted derivation of its erasure in
    a suitable context.  Returns (mctx, vctx, derivation)."""
    return CfToTT(cf_theory, tt_theory).judgement(cert)


# ---------------------------------------------------------------------------
# tt -> cf: derivation-directed elaboration


def _erased_conclusions(theory: Theory) -> dict:
    """Each rule's double-erased conclusion."""
    return theory.cached(
        "erased conclusions",
        lambda: {r.name: double_erase(plain(r.rule.conclusion)) for r in theory.rules},
    )


def _sides(j, what: str) -> list:
    """The two sides of the equation ``j`` as object judgements under its
    binders; ``what`` names ``j`` in the refusal of one that is no equation."""
    eq = j.body
    if not isinstance(eq, (EqTy, EqTm)):
        raise PremiseMismatch(f"{what} is a {type(eq).__name__}, not an equation")
    side = IsTy if isinstance(eq, EqTy) else lambda s: IsTm(s, eq.ty)
    return [Abstracted(j.prefix, side(s)) for s in (eq.lhs, eq.rhs)]


class TTtoCF:
    """Translates checked tt derivations into certificates, by induction on
    the derivation.  A context entry's label is a certificate whose payload
    is the atom's cf annotation: a metavariable's boundary or, as an
    ``IsTy`` judgement, a variable's type.

    ``translate`` runs the induction on ``tt_engine.walk``, and a node nested
    deeper than ``MAX_DEPTH`` is refused.  The step of a node translates the
    premises its case reads, an abstraction's body with the bound atom
    labelled, and hands their certificates to the plain method of the node's
    kind (``_KINDS``).  Every rule case then does the same: it moves a
    premise by boundary conversion onto the boundary it fills, which the rule
    instantiates with the earlier premises (``_fill``), or an equation onto
    that of its left fill and its own right side (``_equations``), unless it
    fills it already:

    - ``_meta``: TT-Meta, TT-Meta-Eco and TT-Meta-Congr, whose arguments fill
      the metavariable's binder types;
    - ``_specific``: TT-Specific, TT-Specific-Eco and TT-Congr, whose
      premises fill the rule's premise boundaries;
    - ``_abstraction``: TT-Abstr and TT-Bdry-Abstr;
    - ``_in_context``: variables, reflexivity, symmetry, transitivity and
      conversion of both equation kinds, and the boundary rules, whose
      premises are taken as they are.

    Every closure rule of the tt engine but the context rules has a case:
    congruence nodes are always full, so ``cf_congruence`` and
    ``cf_meta_congr`` get the right-hand fills and, for term conclusions,
    the type equation of the conclusion from the node's premises."""

    _KINDS = {
        **dict.fromkeys(("TT-Meta", "TT-Meta-Eco", "TT-Meta-Congr"), "_meta"),
        **dict.fromkeys(("TT-Specific", "TT-Specific-Eco", "TT-Congr"), "_specific"),
        **dict.fromkeys(("TT-Abstr", "TT-Bdry-Abstr"), "_abstraction"),
        **dict.fromkeys(
            (
                "TT-Var", "TT-EqTy-Refl", "TT-EqTy-Sym", "TT-EqTy-Trans", "TT-EqTm-Refl",
                "TT-EqTm-Sym", "TT-EqTm-Trans", "TT-Conv-Tm", "TT-Conv-EqTm",
                "TT-Bdry-Ty", "TT-Bdry-Tm", "TT-Bdry-EqTy", "TT-Bdry-EqTm",
            ),
            "_in_context",
        ),
    }
    # The nodes whose case reads only their first ``n * len(data[3])``
    # premises: a full node's boundary premise, and the type equation of a
    # term metavariable's congruence, are not translated.
    _READ = {"TT-Meta": 1, "TT-Specific": 1, "TT-Meta-Congr": 3}

    def __init__(self, tt_theory: Theory, cf_theory: Theory, known=()):
        self.tt = tt_theory
        self.cf = cf_theory
        self.known = list(known)  # (derivation, the caller's certificate of it)
        if cf_theory.finitary_witnesses is None:
            raise NonStandardTheory("cf theory must pass the finitary gate first")
        cf_erased = _erased_conclusions(cf_theory)
        for name, erased in _erased_conclusions(tt_theory).items():
            cf_theory.rule(name)
            if cf_erased[name] != erased:
                raise UncheckableDerivation(
                    f"cf rule {name} is not eligible for its tt counterpart"
                )

    # -- labelings (parts 2 and 3 of the theorem) ---------------------------

    def labelings_from_evidence(self, mctx_deriv, vctx_deriv):
        """The labels of a context's atoms, read off its well-formedness
        derivations in context order: a metavariable is labelled with the
        certificate of its boundary, a variable with that of its type."""
        metas: dict = {}
        variables: dict = {}
        for d, extend, labels in (
            (mctx_deriv, "MCtx-Extend", metas),
            (vctx_deriv, "VCtx-Extend", variables),
        ):
            chain = []
            while d.rule == extend:
                chain.append((d.data[0], d.premises[1]))
                d = d.premises[0]
            for atom, entry in reversed(chain):
                labels[atom] = self.translate(entry, metas, variables)
        return metas, variables

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _body(cert, what: str, *kinds):
        """``cert``'s body, one of ``kinds`` without binders: a forged node's
        premise may have another shape, and is refused before it is read."""
        if cert.payload.prefix or not isinstance(cert.payload.body, kinds):
            want = " or ".join(k.__name__ for k in kinds)
            raise UncheckableDerivation(f"tt->cf: {what} is not a {want} judgement without binders")
        return cert.payload.body

    def _components(self, cert):
        return cf.boundary_components(self.cf, cf.presuppositions_cf(self.cf, cert))

    def _retype(self, cert, of):
        """Moves a term or term equation onto the erasure-equal type of ``of``,
        a type or a term equation, via conversion along reflexivity; the
        wanted type is certified only where the two types differ."""
        want = self._body(of, "a type or term equation", IsTy, EqTm)
        term = isinstance(want, IsTy)
        if self._body(cert, *(("a term", IsTm) if term else ("a term equation", EqTm))).ty == want.ty:
            return cert
        have = self._components(cert)[0]
        refl = cf.cf_eqty_refl(self.cf, have, of if term else self._components(of)[0])
        return (cf.cf_conv_tm if term else cf.cf_conv_eqtm)(self.cf, cert, refl)

    def _rectify_eq(self, eq_cert, left, right=None):
        """Moves each side of a type equation that is not the type of ``left``,
        resp. ``right``, onto that erasure-equal type along reflexivity."""
        eq = self._body(eq_cert, "a type equation", EqTy)
        if eq.lhs != self._body(left, "a term", IsTm, EqTm).ty:
            r = cf.cf_eqty_refl(self.cf, self._components(left)[0], self._components(eq_cert)[0])
            eq_cert = cf.cf_eqty_trans(self.cf, r, eq_cert)
        if right is not None and eq.rhs != self._body(right, "a term", IsTm).ty:
            r = cf.cf_eqty_refl(self.cf, self._components(eq_cert)[1], self._components(right)[0])
            eq_cert = cf.cf_eqty_trans(self.cf, eq_cert, r)
        return eq_cert

    def _equation_boundary_cert(self, left, right):
        """The equation boundary of an object fill and a right side over
        erasure-equal binders: each binder of the fill is opened at a fresh
        variable, substituted into the fill, and into the right side
        converted onto its binder type where that differs, and the boundary
        is abstracted back over the variables."""
        opened = []
        while left.payload.prefix:
            j = left.payload
            ty_c = cf.binder_type_cert(self.cf, cf.presuppositions_cf(self.cf, left), 0)
            v = FreeVar(fresh_name("x", atoms_in_use(j, right.payload)), j.prefix[0])
            var_c = var_r = cf.cf_var(self.cf, v, ty_c)
            if right.payload.prefix[:1] != j.prefix[:1]:
                ty_r = cf.binder_type_cert(self.cf, cf.presuppositions_cf(self.cf, right), 0)
                var_r = cf.cf_conv_tm(self.cf, var_c, cf.cf_eqty_refl(self.cf, ty_c, ty_r))
            left, right = (cf.cf_substitute(self.cf, c, x) for c, x in ((left, var_c), (right, var_r)))
            opened.append((ty_c, v))
        if isinstance(left.payload.body, IsTy):
            out = cf.cf_bdry_eqty(self.cf, left, right)
        else:
            a_c = self._components(left)[0]
            out = cf.cf_bdry_eqtm(self.cf, a_c, left, self._retype(right, a_c))
        for ty_c, v in reversed(opened):
            out = cf.cf_abstract_fwd(self.cf, ty_c, out, v)
        return out

    def _fill(self, certs, boundary, demand):
        """Moves the i-th certificate onto ``boundary(i, fills)``, the
        boundary it fills after the earlier fills, unless each already is its
        premise in ``demand(heads)``, the constructor's premises at their heads."""
        if [c.payload for c in certs] == list(demand([head_of(c.payload) for c in certs])):
            return certs
        fills: list = []
        for c in certs:
            fills.append(cf.boundary_convert(self.cf, boundary(len(fills), fills), c))
        return fills

    def _equations(self, certs, lefts):
        """Moves each equation onto the equation boundary of its left fill and
        its own right side, unless its left side, under its binders and at
        its type, is that fill already: the congruence rules hold the right
        side to the right fill only up to erasure."""
        out = []
        for c, left in zip(certs, lefts):
            if _sides(c.payload, "a congruence's equation premise")[0] != left.payload:
                right = self._components(c)[-1]
                c = cf.boundary_convert(self.cf, self._equation_boundary_cert(left, right), c)
            out.append(c)
        return out

    # -- the main induction (parts 4 and 5) ---------------------------------

    def translate(self, d, metas, variables):
        """The certificate of ``d`` under the labels ``metas`` of its
        metavariables and ``variables`` of its variables, each a certificate
        whose payload is the atom's annotation; a subderivation shared
        between nodes is translated once per labelling of its variables."""

        def step(item):
            d, variables = item
            kind = self._KINDS.get(d.rule)
            if kind is None:
                raise UncheckableDerivation(f"tt->cf does not handle {d.rule}")
            n = self._READ.get(d.rule)
            c: list = []
            for p in d.premises if n is None else d.premises[: n * len(d.data[3])]:
                if c and kind == "_abstraction":  # the body, with the atom labelled
                    variables = {**variables, d.data[2]: c[0]}
                c.append((yield p, variables))
            return getattr(self, kind)(d, c, metas, variables)

        too_deep = (MAX_DEPTH, f"tt->cf: derivation nested deeper than {MAX_DEPTH}")
        # Each known derivation is answered by its certificate under the top-level
        # labels.  The keys name derivations by id; ``self.known`` keeps them alive.
        done = {(id(k), id(variables)): c for k, c in self.known}
        return tt.walk((d, variables), step, lambda x: (id(x[0]), id(x[1])), done, too_deep)

    def _meta(self, d, c, metas, variables):
        m, k = d.data[2], len(d.data[3])
        if m not in metas:
            raise UnsuitableContext(f"no labeling for {m.name}")
        label = metas[m]
        m_cf = MetaName(m.name, label.payload)

        def binder(j, fills):
            ty = cf.binder_type_cert(self.cf, label, j)
            for f in fills:
                ty = cf.cf_substitute(self.cf, ty, f)
            return cf.cf_bdry_tm(self.cf, ty)

        def demand(heads):
            terms = [h.expr for h in heads if isinstance(h, ExprArg)]  # else ArityMismatch
            return metavariable_rule_instance(m_cf, label.payload, terms)[0]

        ss = self._fill(c[:k], binder, demand)
        if d.rule != "TT-Meta-Congr":
            return cf.cf_meta(self.cf, m_cf, ss, annotation_cert=label)
        ts = self._fill(c[k : 2 * k], binder, demand)
        eqs = self._equations(c[2 * k :], ss)
        return cf.cf_meta_congr(self.cf, m_cf, ss, ts, eqs, annotation_cert=label)

    def _specific(self, d, c, metas, variables):
        name = d.data[2]
        rule_cf = self.cf.rule(name).rule
        n = len(rule_cf.premises)
        witnesses = self.cf.finitary_witnesses[name]["premise_boundaries"]

        def premise(i, fills):
            entries = [(m, f) for (m, _), f in zip(rule_cf.premises, fills)]
            return cf.cf_instantiate(self.cf, entries, witnesses[i])

        def demand(heads):
            inst = Instantiation(zip(rule_cf.parts.metas, heads))
            return self.cf.origin[0].instance(rule_instance_premises, rule_cf, inst)[0]

        fs = self._fill(c[:n], premise, demand)
        if d.rule != "TT-Congr":
            return cf.cf_apply_rule(self.cf, name, fs)
        gs = self._fill(c[n : 2 * n], premise, demand)
        lefts = [f for f, is_object in zip(fs, rule_cf.parts.objects) if is_object]
        eqs = self._equations(c[2 * n : 2 * n + len(lefts)], lefts)
        t_prime = None
        if isinstance(rule_cf.conclusion, IsTm):
            # t': the right instance converted along the conclusion's type
            # equation, with only the sides that differ moved onto the instances' types
            left_inst = cf.cf_apply_rule(self.cf, name, fs)
            right_inst = cf.cf_apply_rule(self.cf, name, gs)
            ceq = self._rectify_eq(c[-1], left_inst, right_inst)
            t_prime = cf.cf_conv_tm(self.cf, right_inst, cf.cf_eqty_sym(self.cf, ceq))
        return cf.cf_congruence(self.cf, name, fs, gs, eqs, t_prime_cert=t_prime)

    def _abstraction(self, d, c, metas, variables):
        ty_c, body_c = c
        ty = self._body(ty_c, "an abstraction's binder type", IsTy).ty
        return cf.cf_abstract_fwd(self.cf, ty_c, body_c, FreeVar(d.data[2].name, ty))

    def _in_context(self, d, c, metas, variables):
        match d.rule:
            case "TT-Var":
                v = d.data[2]
                if v not in variables:
                    raise UnsuitableContext(f"no labeling for {v.name}")
                label = variables[v]
                ty = self._body(label, "a variable's label", IsTy).ty
                return cf.cf_var(self.cf, FreeVar(v.name, ty), label)
            case "TT-EqTy-Refl":
                return cf.cf_eqty_refl(self.cf, c[0], c[0])
            case "TT-EqTm-Refl":
                return cf.cf_eqtm_refl(self.cf, c[0], c[0])
            case "TT-EqTy-Sym":
                return cf.cf_eqty_sym(self.cf, c[0])
            case "TT-EqTm-Sym":
                return cf.cf_eqtm_sym(self.cf, c[0])
            case "TT-EqTy-Trans":
                return cf.cf_eqty_trans(self.cf, c[0], c[1])
            case "TT-EqTm-Trans":
                return cf.cf_eqtm_trans(self.cf, c[0], self._retype(c[1], c[0]))
            case "TT-Conv-Tm" | "TT-Conv-EqTm":
                eq = self._rectify_eq(c[1], c[0])
                conv = cf.cf_conv_tm if d.rule == "TT-Conv-Tm" else cf.cf_conv_eqtm
                return conv(self.cf, c[0], eq)
            case "TT-Bdry-Ty":
                return cf.cf_bdry_ty(self.cf)
            case "TT-Bdry-Tm":
                return cf.cf_bdry_tm(self.cf, c[0])
            case "TT-Bdry-EqTy":
                return cf.cf_bdry_eqty(self.cf, c[0], c[1])
        a_c, s_c, t_c = c  # TT-Bdry-EqTm
        return cf.cf_bdry_eqtm(self.cf, a_c, self._retype(s_c, a_c), self._retype(t_c, a_c))


def tt_to_cf(
    tt_theory: Theory,
    cf_theory: Theory,
    d,
    mctx_deriv=None,
    vctx_deriv=None,
    labelings=None,
    known=(),
):
    """Elaborates a contexted derivation into a certificate whose double
    erasure is the derivation's conclusion judgement.

    The atoms are labelled from the context well-formedness derivations
    unless the labels are supplied directly as ``(metas, variables)``: maps
    from each metavariable to the certificate of its boundary and from each
    variable to the certificate of its type.  ``known`` pairs derivations
    with the caller's certificates of them under those labels.
    """
    tr = TTtoCF(tt_theory, cf_theory, known)
    if labelings is None:
        if mctx_deriv is None or vctx_deriv is None:
            raise UncheckableDerivation("labelings need context well-formedness evidence")
        labelings = tr.labelings_from_evidence(mctx_deriv, vctx_deriv)
    out = tr.translate(d, *labelings)
    want = d.conclusion.jdg if hasattr(d.conclusion, "jdg") else d.conclusion.bdry
    if double_erase(out.payload) != double_erase(want):
        raise UncheckableDerivation(
            "translated certificate does not double-erase to the conclusion"
        )
    return out


def _labelings_for(mctx: MetaCtx, vctx: VarCtx, *certs):
    """Labels each atom of a suitable context with the certificate of its
    own annotation, taken from the annotation cache of the last of ``certs``
    that holds one.  The atoms stay annotated: the translation reads only
    their names and labels, so no bare-atom copy of the derivation is
    needed."""

    def cached(atom, key):
        for c in reversed(certs):
            if key in c._annotations:
                return c._annotations[key]
        raise UnsuitableContext(f"no certified annotation for {atom.name}")

    return (
        {m: cached(m, m.annotation) for m, _ in mctx},
        {v: cached(v, plain(IsTy(v.annotation))) for v, _ in vctx},
    )


def round_trip_cf(cf_theory: Theory, tt_theory: Theory, cert: cf.CertifiedJudgement):
    """cf -> tt -> cf.  The derivation's atoms are the certificate's own, so
    each is labelled with its own annotation.  cf -> tt replays the
    certificate's record, each conversion as a ``TT-Conv-*`` node, which
    tt -> cf turns back into that conversion, so a replayed round trip gives
    the payload back exactly.  Where a step was searched for, its
    conversion terms may come back otherwise, erased-equal."""
    mctx, vctx, d = cf_judgement_to_tt(cf_theory, tt_theory, cert)
    return tt_to_cf(tt_theory, cf_theory, d, labelings=_labelings_for(mctx, vctx, cert))


# ---------------------------------------------------------------------------
# Transported congruence (judgementally equal instantiations, both ways)


def _fills_tt(tt_theory: Theory, eq_tt, evidence) -> list:
    """Derivations of the two object fills of the (possibly abstracted)
    equation ``eq_tt`` derives, read off ``eq_tt``: under its abstractions,
    the premises that conclude the two sides at the equation's type, as a
    reflexivity's premise or ``eq_reflect``'s ``s`` and ``t`` do, else the
    equation's presuppositions over the context evidence ``evidence()``."""
    opened, d = [], eq_tt
    while d.rule == "TT-Abstr":
        opened.append((d.premises[0], d.data[2]))
        d = d.premises[1]
    by_jdg = {p.conclusion.jdg: p for p in d.premises if isinstance(p.conclusion, tt.JdgTT)}
    fills = [by_jdg.get(s) for s in _sides(d.conclusion.jdg, "an object premise of congruence")]
    if None in fills:
        mctx_ev, vctx_ev = evidence()
        for ty_k, atom in opened:
            vctx_ev = tt.vctx_extend(tt_theory, vctx_ev, ty_k, atom)
        fills = tt.presuppositions(tt_theory, d, mctx_ev, vctx_ev).premises[-2:]
    for ty_k, atom in reversed(opened):
        fills = [tt.tt_abstr(tt_theory, ty_k, f, atom) for f in fills]
    return fills


def transported_congruence(
    cf_theory: Theory,
    tt_theory: Theory,
    rule_name: str,
    premise_certs: Sequence[cf.CertifiedJudgement],
):
    """Congruence for judgementally equal instantiations, transported through
    both translations.

    ``premise_certs[i]`` is, for the rule's i-th premise: an equation
    certificate  fill(<I>_i B_i, f_i == g'_i by a_i)  when the premise is an
    object premise, and the fill  fill(<I>_i B_i, f_i)  when it is an
    equality premise; an object premise that is no equation is refused with
    ``PremiseMismatch``.  Each premise is derived in tt once, and the fills
    f_i and g'_i are read off the equation's derivation (``_fills_tt``).
    The congruence is one ``TT-Congr`` node; a term rule's type equation
    I*A == J*A  is equal instantiation of the conclusion type that the tt
    rule's finitary witness derives, refused with ``MissingContextEvidence``
    over a tt theory that has not passed the finitary gate.
    tt -> cf takes each premise's certificate for its derivation as it is.
    The premises are derived in one suitable context, whose well-formedness,
    which a fill read off presuppositions needs, the same translator finds
    once (``CfToTT._evidence``).  The result is an equational certificate
    for the congruence conclusion, whose assumption set is drawn from the
    inputs.
    """
    rule_cf = cf_theory.rule(rule_name).rule
    rule_tt = tt_theory.rule(rule_name).rule
    if not rule_cf.is_object:
        raise NonStandardTheory(f"rule {rule_name} is not an object rule")
    if len(premise_certs) != len(rule_cf.premises):
        raise UncheckableDerivation("one certificate per rule premise required")

    ctx = mctx, vctx = _context_of(*(c.payload for c in premise_certs))
    translator = CfToTT(cf_theory, tt_theory)
    known = [(translator.judgement(c, ctx)[2], c) for c in premise_certs]
    entries: list = []
    for i, ((m, b), (p_tt, _)) in enumerate(zip(rule_tt.premises, known)):
        if boundary_arity(b).cls.is_object:
            i_tt, jat_tt = _fills_tt(tt_theory, p_tt, lambda: translator._evidence(ctx))
            j_tt = _j_fill_tt(tt_theory, rule_tt, i, jat_tt, entries)
            entries.append(tt.EqInstEntry(m, i_tt, j_tt, jat_tt, p_tt))
        else:
            entries.append(tt.EqInstEntry(m, p_tt, p_tt, p_tt, None))

    # TT-Congr over the fills and equations, and I*A == J*A for a term rule
    left, right = [e.i_deriv for e in entries], [e.j_deriv for e in entries]
    kids = [*left, *right, *(e.eq_deriv for e in entries if e.eq_deriv is not None)]
    if isinstance(rule_tt.conclusion, IsTm):
        (ty,) = tt._bdry_premises(tt._finitary_boundary_witness(tt_theory, rule_name), "TT-Bdry-Tm")
        xi_wf = tt_theory.finitary_witnesses[rule_name]["mctx"]
        kids.append(tt.eq_instantiate(tt_theory, entries, ty, mctx, vctx, xi_wf)[2])
    insts = translator._instantiation(rule_name, left), translator._instantiation(rule_name, right)
    d_eq = tt.congruence(tt_theory, mctx, vctx, rule_name, *insts, kids)

    # back to cf, each premise's certificate standing for its own derivation
    labelings = _labelings_for(mctx, vctx, *premise_certs)
    return tt_to_cf(tt_theory, cf_theory, d_eq, labelings=labelings, known=known)


def _j_fill_tt(tt_theory, rule_tt, idx, jat_tt, entries):
    """The right instantiation's fill at its own boundary: the fill at the left
    boundary with its binder type converted along the earlier premise's
    equation, which ``entries`` holds with its right fill.  It is converted
    only when the binder types differ: else it is at that boundary already."""
    _, b = rule_tt.premises[idx]
    if not b.prefix:
        return jat_tt
    if len(b.prefix) > 1:
        raise UncheckableDerivation(
            "transported congruence supports premises with at most one binder"
        )
    binder = b.prefix[0]
    if not isinstance(binder, MetaApp) or binder.args:
        raise UncheckableDerivation(
            "transported congruence supports metavariable binder types only"
        )
    k = next(
        i for i, (m, _) in enumerate(rule_tt.premises) if m == binder.meta
    )
    if entries[k].eq_deriv is None:
        raise UncheckableDerivation("binder type premise is not an object premise")
    eq = tt._want_plain_thesis(entries[k].eq_deriv.conclusion, EqTy, "TT-Conv-Abstr")
    if eq.lhs == eq.rhs:
        return jat_tt
    return tt.conv_abstr(tt_theory, jat_tt, entries[k].j_at_i_deriv, entries[k].eq_deriv)
