"""The context-free trusted nucleus: forward-chaining certified-judgement
constructors with no stored derivations, plus the context-free
meta-operations.

A :class:`Certificate` carries its payload and a theory tag; it can be
produced exclusively by the constructors in this module, each of which
validates the side conditions of one closure rule or implements one
admissible meta-operation as a judgement-level computation.  Every
constructor also maintains a monotone cache of certified annotation
judgements so that the well-typed-annotation discipline never has to be
re-established.  Beside the trusted payload a certificate keeps an
untrusted ``record`` of the call that made it: the name of the constructor
or meta-operation, then its certificates and data as passed.  Nothing here
reads a record; cf -> tt replays it (``translate.CfToTT``) and re-checks
every step, so a wrong record gives a refusal there, never a wrong
derivation.

Besides the closure-rule constructors (the ``cf_*`` functions), six named
meta-theorems make a certificate: ``presuppositions_cf``,
``boundary_components``, ``binder_type_cert``, ``natural_type_eq``,
``invert_cf`` and ``strengthen``, each recording the certificate it reads
its judgement off.  Together they are the trusted base of this
presentation.  Boundary conversion and uniqueness of typing make none of
their own: they are built from those.

As in the paper, a structural rule has one constructor for abstracted
judgements and boundaries alike: ``cf_abstract_fwd`` (CF-Abstr and
CF-Bdry-Abstr), ``cf_substitute`` and ``cf_instantiate``; and equal
substitution has one, ``cf_subst_eq``, for types and terms.  A certificate's
class follows its payload: one maker, ``_cert``, makes a
:class:`CertifiedBoundary` when the payload's body is a boundary thesis and a
:class:`CertifiedJudgement` otherwise.

Assumption sets emitted by the constructors are always the minimal suitable
ones.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import (
    AnnotationMismatch,
    ArityMismatch,
    BadNode,
    BinderUsed,
    BoundaryExceedsPremises,
    ErasureMismatch,
    NoSymbolRule,
    NonStandardTheory,
    NotObjectJudgement,
    PremiseMismatch,
    TypeMismatch,
    UnknownMeta,
    VarInAnnotation,
)
from .instantiation import Instantiation, act
from .judgements import (
    abstract_judgement,
    fill,
    fill_equation,
    head_of,
    instantiate_prefix,
    plain,
    unfill,
)
from .printer import SHOWN_LENGTH, print_abstracted_cut, print_difference_cut
from .syntax import (
    Abstr,
    Abstracted,
    AbstractedBoundary,
    AbstractedJudgement,
    Argument,
    AssumptionSet,
    Convert,
    EMPTY_ASSUMPTIONS,
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
    MetaApp,
    MetaName,
    SymbolApp,
    asm,
    atoms_in_use,
    bv,
    conversion_residue,
    erase,
    erased_equal,
    fresh_name,
    fv,
    fvt,
    mv,
    strip_conversions,
    subst_bound,
    subst_bound_many,
)
from .theory import Theory, metavariable_rule_instance, rule_instance_premises

_TOKEN = object()


class Certificate:
    """A payload certified by the nucleus over ``theory``, with the cache of
    certified annotation judgements.  Only this module holds the token that
    makes one, and it makes every one through ``_cert``."""

    __slots__ = ("payload", "theory", "_annotations", "record")

    def __init__(self, payload: Abstracted, theory: Theory, annotations, record=None, token=None):
        if token is not _TOKEN:
            raise PermissionError("certificates can only be made by the cf engine")
        self.payload = payload
        self.theory = theory
        self._annotations = annotations
        self.record = record

    def __repr__(self) -> str:
        # The payload, printed and cut; never the record, which may be deep.
        return f"{type(self).__name__}({print_abstracted_cut(self.payload, SHOWN_LENGTH)})"


class CertifiedJudgement(Certificate):
    """A context-free judgement certified by the nucleus."""

    __slots__ = ()


class CertifiedBoundary(Certificate):
    """A context-free boundary certified by the nucleus."""

    __slots__ = ()


_CLASS_OF = {
    **dict.fromkeys((IsTy, IsTm, EqTy, EqTm), CertifiedJudgement),
    **dict.fromkeys((IsTyB, IsTmB, EqTyB, EqTmB), CertifiedBoundary),
}


def _theory_extends(big: Theory, small: Theory) -> bool:
    """Whether every rule and symbol of ``small`` is in ``big``, unchanged:
    then a certificate over ``small`` is one over ``big`` too, since
    derivability only grows with the theory.

    Two prefixes of one base theory (``Theory.prefix``) are answered in
    O(1): the shorter or equal one is extended.  Any other pair, such as two
    separately elaborated copies of one theory, is compared rule by rule
    and symbol by symbol."""
    if big is small:
        return True
    if big.flavor != small.flavor:
        return False
    (big_token, big_n), (small_token, small_n) = big.origin, small.origin
    if big_token is small_token and small_n <= big_n:
        return True
    have = {r.name: r.rule for r in big.rules}
    for r in small.rules:
        if have.get(r.name) != r.rule:
            return False
    for s in small.signature:
        if s not in big.signature or big.signature[s] != small.signature[s]:
            return False
    return True


def _merge(theory: Theory, *certs: Certificate) -> dict:
    out: dict = {}
    for c in certs:
        if c is None:
            continue
        if not _theory_extends(theory, c.theory):
            raise PremiseMismatch("certificate belongs to a different theory")
        out.update(c._annotations)
    return out


def _cert(theory: Theory, payload: Abstracted, annotations, record=None) -> Certificate:
    """The one maker of certificates: a judgement or a boundary certificate as
    the payload's body is a judgement or a boundary thesis.  ``record`` is
    the call that made it, which each caller here writes out inline: the
    name of the constructor or meta-operation, then its certificates and
    data.  A certificate without one cannot be replayed."""
    return _CLASS_OF[type(payload.body)](payload, theory, annotations, record, _TOKEN)


def _want(cert: CertifiedJudgement, expected: AbstractedJudgement, what: str) -> None:
    if cert.payload != expected:
        # Four pieces of syntax share the room of two full cuts.
        cut = SHOWN_LENGTH // 2
        want, got = (print_abstracted_cut(j, cut) for j in (expected, cert.payload))
        diff = print_difference_cut(expected, cert.payload, cut)
        raise PremiseMismatch(f"{what}: expected {want}, got {got} (first difference: {diff})")


def _plain_body(cert: CertifiedJudgement, kind, what: str):
    if cert.payload.prefix or not isinstance(cert.payload.body, kind):
        raise PremiseMismatch(f"{what}: expected a non-abstracted {kind.__name__}")
    return cert.payload.body


def minimal_suitable(premises: Sequence, bdry: AbstractedBoundary) -> AssumptionSet:
    """The minimal suitable assumption set: asm(premises) minus asm(boundary).

    Raises :class:`BoundaryExceedsPremises` when the boundary mentions
    assumptions absent from the premises.
    """
    payloads = [p.payload if isinstance(p, Certificate) else p for p in premises]
    prem = asm(*payloads) if payloads else EMPTY_ASSUMPTIONS
    bd = asm(bdry)
    if not bd.issubset(prem):
        raise BoundaryExceedsPremises(
            "conclusion boundary mentions assumptions absent from the premises"
        )
    return prem.difference(bd)


def _annotation_entries(*payloads) -> set:
    """Annotation judgements demanded by the well-typed-annotation
    discipline, for the atoms of each payload's assumption set: its free
    variables ``fv`` and metavariables ``mv``, read without building it."""
    out = set()
    for p in payloads:
        for v in fv(p):
            if v.annotation is not None:
                out.add(plain(IsTy(v.annotation)))
        for m in mv(p):
            if m.annotation is not None:
                out.add(m.annotation)
    return out


def _require_annotations(theory: Theory, annotations: dict, *payloads) -> None:
    missing = [e for e in _annotation_entries(*payloads) if e not in annotations]
    if missing:
        raise AnnotationMismatch(
            f"annotations lack certificates: {missing[0]!r}"
        )


# ---------------------------------------------------------------------------
# Structural constructors


def cf_var(theory: Theory, v: FreeVar, cert_annotation: CertifiedJudgement) -> CertifiedJudgement:
    """CF-Var: from a certificate that the annotation is a type,  a^A : A."""
    if v.annotation is None:
        raise AnnotationMismatch("cf variables carry their type as annotation")
    got = _plain_body(cert_annotation, IsTy, "CF-Var")
    if got.ty != v.annotation:
        raise AnnotationMismatch(
            f"annotation certificate proves a different type for {v.name}"
        )
    ann = _merge(theory, cert_annotation)
    ann[cert_annotation.payload] = cert_annotation
    return _cert(theory, plain(IsTm(v, v.annotation)), ann, ("cf_var", v, cert_annotation))


def cf_abstract_fwd(
    theory: Theory,
    cert_ty: CertifiedJudgement,
    cert_j: Certificate,
    v: FreeVar,
) -> Certificate:
    """CF-Abstr-Fwd and CF-Bdry-Abstr: abstract the variable ``v`` out of a
    derived judgement or boundary."""
    ty = _plain_body(cert_ty, IsTy, "CF-Abstr").ty
    if v.annotation != ty:
        raise AnnotationMismatch("abstracted variable must be annotated with the binder type")
    if v in fvt(cert_j.payload):
        raise VarInAnnotation(f"{v.name} occurs in a typing annotation of the abstracted body")
    payload = abstract_judgement(cert_j.payload, v, ty)
    ann = _merge(theory, cert_ty, cert_j)
    return _cert(theory, payload, ann, ("cf_abstract_fwd", cert_ty, cert_j, v))


def _meta_annotations(theory: Theory, m: MetaName, certs: Sequence, annotation_cert) -> dict:
    """The merged annotation caches of a metavariable rule's premises
    ``certs``, which must hold a certificate of ``m``'s boundary annotation:
    ``annotation_cert``, or one already cached."""
    if m.annotation is None:
        raise AnnotationMismatch("cf metavariables carry their boundary as annotation")
    ann = _merge(theory, *certs, annotation_cert)
    if annotation_cert is not None:
        if annotation_cert.payload != m.annotation:
            raise AnnotationMismatch("annotation certificate proves a different boundary")
        ann[m.annotation] = annotation_cert
    if m.annotation not in ann:
        raise AnnotationMismatch(f"boundary of {m.name} has not been certified")
    return ann


def cf_meta(
    theory: Theory,
    m: MetaName,
    term_certs: Sequence[CertifiedJudgement],
    cert_bdry: Optional[CertifiedBoundary] = None,
    annotation_cert: Optional[CertifiedBoundary] = None,
) -> CertifiedJudgement:
    """CF-Meta, economic when the substituted boundary certificate is omitted.

    The metavariable's own boundary annotation must be certified, either by
    ``annotation_cert`` or through the premises' annotation caches.
    """
    ann = _meta_annotations(theory, m, [*term_certs, cert_bdry], annotation_cert)
    terms = [_plain_body(c, IsTm, "CF-Meta").term for c in term_certs]
    premises, bdry, conclusion = metavariable_rule_instance(m, m.annotation, terms)
    for c, need in zip(term_certs, premises):
        _want(c, need, "CF-Meta")
    if cert_bdry is not None and cert_bdry.payload != bdry:
        raise PremiseMismatch("CF-Meta boundary premise mismatch")
    _require_annotations(theory, ann, conclusion)
    return _cert(theory, conclusion, ann, ("cf_meta", m, term_certs, cert_bdry, annotation_cert))


def cf_meta_congr(
    theory: Theory,
    m: MetaName,
    s_certs: Sequence[CertifiedJudgement],
    t_certs: Sequence[CertifiedJudgement],
    eq_certs: Sequence[CertifiedJudgement],
    annotation_cert: Optional[CertifiedBoundary] = None,
) -> CertifiedJudgement:
    """CF-Meta-Congr-Ty / CF-Meta-Congr-Tm.

    The equations may carry primed right-hand sides (equal up to erasure to
    the ``t_certs`` terms).  In the term case the converted right side
    ``v = convert(M(ts), eps)`` is constructed here via equal substitution
    into the boundary type.
    """
    ann = _meta_annotations(theory, m, [*s_certs, *t_certs, *eq_certs], annotation_cert)
    bdry = m.annotation
    annotation_cert = ann[bdry]
    record = ("cf_meta_congr", m, s_certs, t_certs, eq_certs, annotation_cert)
    k = len(bdry.prefix)
    if len(s_certs) != k or len(t_certs) != k or len(eq_certs) != k:
        raise ArityMismatch(f"{m.name} takes {k} arguments")
    ss, ts = _check_subst_eq_premises(bdry.prefix, s_certs, t_certs, eq_certs, "CF-Meta-Congr")
    body = bdry.body
    if not isinstance(body, (IsTyB, IsTmB)):
        raise NotObjectJudgement("metavariable congruence needs an object boundary")
    lhs = MetaApp(m, tuple(ss))
    mt = cf_meta(theory, m, t_certs, annotation_cert=annotation_cert)
    if isinstance(body, IsTyB):
        rhs = MetaApp(m, tuple(ts))
        beta = minimal_suitable([*s_certs, *t_certs, *eq_certs, mt], plain(EqTyB(lhs, rhs)))
        return _cert(theory, plain(EqTy(lhs, rhs, beta)), ann, record)
    # construct v by converting M(ts) to the s-substituted boundary type
    ty_cert = boundary_components(theory, annotation_cert)[0]
    ty_eq = cf_subst_eq(theory, ty_cert, s_certs, t_certs, eq_certs)
    v_cert = cf_conv_tm(theory, mt, cf_eqty_sym(theory, ty_eq))
    v = _plain_body(v_cert, IsTm, "CF-Meta-Congr").term
    ty_s_full = subst_bound_many(body.ty, ss)
    bthesis = plain(EqTmB(lhs, v, ty_s_full))
    beta = minimal_suitable([*s_certs, *t_certs, *eq_certs, v_cert], bthesis)
    ann = _merge(theory, *s_certs, *t_certs, *eq_certs, v_cert)
    ann[bdry] = annotation_cert
    return _cert(theory, plain(EqTm(lhs, v, ty_s_full, beta)), ann, record)


# ---------------------------------------------------------------------------
# Equality constructors


def cf_eqty_refl(
    theory: Theory, cert_a1: CertifiedJudgement, cert_a2: CertifiedJudgement
) -> CertifiedJudgement:
    a1 = _plain_body(cert_a1, IsTy, "CF-EqTy-Refl").ty
    a2 = _plain_body(cert_a2, IsTy, "CF-EqTy-Refl").ty
    if not erased_equal(a1, a2):
        raise ErasureMismatch("CF-EqTy-Refl sides differ after erasure")
    return _cert(
        theory,
        plain(EqTy(a1, a2, EMPTY_ASSUMPTIONS)),
        _merge(theory, cert_a1, cert_a2),
        ("cf_eqty_refl", cert_a1, cert_a2),
    )


def cf_eqty_sym(theory: Theory, cert: CertifiedJudgement) -> CertifiedJudgement:
    eq = _plain_body(cert, EqTy, "CF-EqTy-Sym")
    return _cert(
        theory, plain(EqTy(eq.rhs, eq.lhs, eq.by)), _merge(theory, cert), ("cf_eqty_sym", cert)
    )


def cf_eqty_trans(
    theory: Theory, cert1: CertifiedJudgement, cert2: CertifiedJudgement
) -> CertifiedJudgement:
    e1 = _plain_body(cert1, EqTy, "CF-EqTy-Trans")
    e2 = _plain_body(cert2, EqTy, "CF-EqTy-Trans")
    if not erased_equal(e1.rhs, e2.lhs):
        raise ErasureMismatch("CF-EqTy-Trans middle types differ after erasure")
    bthesis = EqTyB(e1.lhs, e2.rhs)
    gamma = minimal_suitable([cert1, cert2], plain(bthesis))
    return _cert(
        theory,
        plain(EqTy(e1.lhs, e2.rhs, gamma)),
        _merge(theory, cert1, cert2),
        ("cf_eqty_trans", cert1, cert2),
    )


def cf_eqtm_refl(
    theory: Theory, cert_t1: CertifiedJudgement, cert_t2: CertifiedJudgement
) -> CertifiedJudgement:
    t1 = _plain_body(cert_t1, IsTm, "CF-EqTm-Refl")
    t2 = _plain_body(cert_t2, IsTm, "CF-EqTm-Refl")
    if t1.ty != t2.ty:
        raise TypeMismatch("CF-EqTm-Refl sides live at different types")
    if not erased_equal(t1.term, t2.term):
        raise ErasureMismatch("CF-EqTm-Refl sides differ after erasure")
    return _cert(
        theory,
        plain(EqTm(t1.term, t2.term, t1.ty, EMPTY_ASSUMPTIONS)),
        _merge(theory, cert_t1, cert_t2),
        ("cf_eqtm_refl", cert_t1, cert_t2),
    )


def cf_eqtm_sym(theory: Theory, cert: CertifiedJudgement) -> CertifiedJudgement:
    eq = _plain_body(cert, EqTm, "CF-EqTm-Sym")
    out = plain(EqTm(eq.rhs, eq.lhs, eq.ty, eq.by))
    return _cert(theory, out, _merge(theory, cert), ("cf_eqtm_sym", cert))


def cf_eqtm_trans(
    theory: Theory, cert1: CertifiedJudgement, cert2: CertifiedJudgement
) -> CertifiedJudgement:
    e1 = _plain_body(cert1, EqTm, "CF-EqTm-Trans")
    e2 = _plain_body(cert2, EqTm, "CF-EqTm-Trans")
    if e1.ty != e2.ty:
        raise TypeMismatch("CF-EqTm-Trans premises live at different types")
    if not erased_equal(e1.rhs, e2.lhs):
        raise ErasureMismatch("CF-EqTm-Trans middle terms differ after erasure")
    bthesis = EqTmB(e1.lhs, e2.rhs, e1.ty)
    gamma = minimal_suitable([cert1, cert2], plain(bthesis))
    return _cert(
        theory,
        plain(EqTm(e1.lhs, e2.rhs, e1.ty, gamma)),
        _merge(theory, cert1, cert2),
        ("cf_eqtm_trans", cert1, cert2),
    )


def cf_conv_tm(
    theory: Theory, cert_t: CertifiedJudgement, cert_eq: CertifiedJudgement
) -> CertifiedJudgement:
    """CF-Conv-Tm: wrap the term in a conversion recording the equation's
    assumptions; the recorded set is the minimal one satisfying the side
    condition  asm(t, A, B, alpha) = asm(t, B, beta)."""
    tm = _plain_body(cert_t, IsTm, "CF-Conv-Tm")
    eq = _plain_body(cert_eq, EqTy, "CF-Conv-Tm")
    if tm.ty != eq.lhs:
        raise TypeMismatch("CF-Conv-Tm premise types differ")
    everything = asm(tm.term, tm.ty, eq.rhs, eq.by)
    beta = everything.difference(asm(tm.term, eq.rhs))
    out = IsTm(Convert(tm.term, beta), eq.rhs)
    if asm(out) != everything:
        raise BadNode("conversion side condition failed")
    ann = _merge(theory, cert_t, cert_eq)
    return _cert(theory, plain(out), ann, ("cf_conv_tm", cert_t, cert_eq))


def cf_conv_eqtm(
    theory: Theory, cert_eq: CertifiedJudgement, cert_tyeq: CertifiedJudgement
) -> CertifiedJudgement:
    """CF-Conv-EqTm: convert both sides of a term equation along a type
    equation, recording the minimal sets on each side."""
    eq = _plain_body(cert_eq, EqTm, "CF-Conv-EqTm")
    tyeq = _plain_body(cert_tyeq, EqTy, "CF-Conv-EqTm")
    if eq.ty != tyeq.lhs:
        raise TypeMismatch("CF-Conv-EqTm premise types differ")
    gamma = asm(eq.lhs, eq.ty, tyeq.rhs, tyeq.by).difference(asm(eq.lhs, tyeq.rhs))
    delta = asm(eq.rhs, eq.ty, tyeq.rhs, tyeq.by).difference(asm(eq.rhs, tyeq.rhs))
    out = EqTm(Convert(eq.lhs, gamma), Convert(eq.rhs, delta), tyeq.rhs, eq.by)
    return _cert(
        theory, plain(out), _merge(theory, cert_eq, cert_tyeq), ("cf_conv_eqtm", cert_eq, cert_tyeq)
    )


# ---------------------------------------------------------------------------
# Boundary constructors


def cf_bdry_ty(theory: Theory) -> CertifiedBoundary:
    return _cert(theory, plain(IsTyB()), {}, ("cf_bdry_ty",))


def cf_bdry_tm(theory: Theory, cert_a: CertifiedJudgement) -> CertifiedBoundary:
    a = _plain_body(cert_a, IsTy, "CF-Bdry-Tm").ty
    return _cert(theory, plain(IsTmB(a)), _merge(theory, cert_a), ("cf_bdry_tm", cert_a))


def cf_bdry_eqty(
    theory: Theory, cert_a: CertifiedJudgement, cert_b: CertifiedJudgement
) -> CertifiedBoundary:
    a = _plain_body(cert_a, IsTy, "CF-Bdry-EqTy").ty
    b = _plain_body(cert_b, IsTy, "CF-Bdry-EqTy").ty
    return _cert(
        theory, plain(EqTyB(a, b)), _merge(theory, cert_a, cert_b), ("cf_bdry_eqty", cert_a, cert_b)
    )


def cf_bdry_eqtm(
    theory: Theory,
    cert_a: CertifiedJudgement,
    cert_s: CertifiedJudgement,
    cert_t: CertifiedJudgement,
) -> CertifiedBoundary:
    a = _plain_body(cert_a, IsTy, "CF-Bdry-EqTm").ty
    s = _plain_body(cert_s, IsTm, "CF-Bdry-EqTm")
    t = _plain_body(cert_t, IsTm, "CF-Bdry-EqTm")
    if s.ty != a or t.ty != a:
        raise TypeMismatch("CF-Bdry-EqTm sides must live at the stated type")
    return _cert(
        theory,
        plain(EqTmB(s.term, t.term, a)),
        _merge(theory, cert_a, cert_s, cert_t),
        ("cf_bdry_eqtm", cert_a, cert_s, cert_t),
    )


# ---------------------------------------------------------------------------
# Specific rules and congruence


def cf_apply_rule(
    theory: Theory,
    rule_name: str,
    premise_certs: Sequence[CertifiedJudgement],
    cert_bdry: Optional[CertifiedBoundary] = None,
) -> CertifiedJudgement:
    """Applies a specific rule; the instantiation is read off the premise
    certificates' heads.  Without a boundary certificate this is the economic
    variant (CF-Specific-Eco), valid because theories are finitary-checked."""
    trule = theory.rule(rule_name)
    rule = trule.rule
    if len(premise_certs) != len(rule.premises):
        raise PremiseMismatch(
            f"rule {rule_name} has {len(rule.premises)} premises, got {len(premise_certs)}"
        )
    inst = Instantiation(
        [(m, head_of(cert.payload)) for (m, _), cert in zip(rule.premises, premise_certs)]
    )
    premises, bdry, conclusion = theory.origin[0].instance(rule_instance_premises, rule, inst)
    for cert, need in zip(premise_certs, premises):
        _want(cert, need, f"rule {rule_name}")
    if cert_bdry is not None and cert_bdry.payload != bdry:
        raise PremiseMismatch(f"rule {rule_name}: boundary premise mismatch")
    ann = _merge(theory, *premise_certs, cert_bdry)
    _require_annotations(theory, ann, conclusion)
    return _cert(theory, conclusion, ann, ("cf_apply_rule", rule_name, premise_certs, cert_bdry))


def cf_congruence(
    theory: Theory,
    rule_name: str,
    left_certs: Sequence[CertifiedJudgement],
    right_certs: Sequence[CertifiedJudgement],
    eq_certs: Sequence[CertifiedJudgement],
    t_prime_cert: Optional[CertifiedJudgement] = None,
) -> CertifiedJudgement:
    """The context-free congruence closure rule of an object rule.

    ``eq_certs`` pair up with the rule's object premises in order; their
    right-hand sides may be any primed heads agreeing with the right
    instantiation up to erasure.  Term rules need ``t_prime_cert`` deriving
    ``t' : I*A`` with ``erase t' = erase J*t``.
    """
    trule = theory.rule(rule_name)
    rule = trule.rule
    if not rule.is_object:
        raise NotObjectJudgement(f"rule {rule_name} is not an object rule")
    n = len(rule.premises)
    if len(left_certs) != n or len(right_certs) != n:
        raise PremiseMismatch("congruence needs both instantiations in full")
    left = Instantiation(
        [(m, head_of(c.payload)) for (m, _), c in zip(rule.premises, left_certs)]
    )
    right = Instantiation(
        [(m, head_of(c.payload)) for (m, _), c in zip(rule.premises, right_certs)]
    )
    instance = theory.origin[0].instance
    lp, _, _ = instance(rule_instance_premises, rule, left)
    rp, _, _ = instance(rule_instance_premises, rule, right)
    for cert, need in zip(left_certs, lp):
        _want(cert, need, f"congruence {rule_name} (left)")
    for cert, need in zip(right_certs, rp):
        _want(cert, need, f"congruence {rule_name} (right)")
    object_idx = [i for i, is_object in enumerate(rule.parts.objects) if is_object]
    if len(eq_certs) != len(object_idx):
        raise PremiseMismatch("one equation per object premise required")
    # rule_instance_premises checked that a premise boundary mentions only
    # earlier premises, so the whole of ``left`` acts on it as its segment.
    for idx, eq_cert in zip(object_idx, eq_certs):
        m, b = rule.premises[idx]
        want_b = act(left, b)
        got = eq_cert.payload
        f_i = left[m]
        g_i = right[m]
        fe = fill_equation(want_b, f_i, _head_of_equation(got, want_b), got.body.by)
        if got != fe:
            raise PremiseMismatch(
                f"congruence {rule_name}: equation {idx + 1} does not fill the boundary"
            )
        if not erased_equal(_head_of_equation(got, want_b), g_i):
            raise ErasureMismatch(
                f"congruence {rule_name}: primed head differs from the right instance"
            )
    all_premises: list = list(left_certs) + list(right_certs) + list(eq_certs)
    record = ("cf_congruence", rule_name, left_certs, right_certs, eq_certs, t_prime_cert)
    if isinstance(rule.conclusion, IsTy):
        lhs = act(left, rule.conclusion.ty)
        rhs = act(right, rule.conclusion.ty)
        beta = minimal_suitable(all_premises, plain(EqTyB(lhs, rhs)))
        return _cert(theory, plain(EqTy(lhs, rhs, beta)), _merge(theory, *all_premises), record)
    lhs = act(left, rule.conclusion.term)
    ty_l = act(left, rule.conclusion.ty)
    if t_prime_cert is None:
        raise PremiseMismatch("term congruence needs the converted right side t'")
    tp = _plain_body(t_prime_cert, IsTm, "congruence t'")
    if tp.ty != ty_l:
        raise TypeMismatch("t' must live at the left-instantiated type")
    if not erased_equal(tp.term, act(right, rule.conclusion.term)):
        raise ErasureMismatch("t' differs from the right instance after erasure")
    all_premises.append(t_prime_cert)
    beta = minimal_suitable(all_premises, plain(EqTmB(lhs, tp.term, ty_l)))
    return _cert(
        theory, plain(EqTm(lhs, tp.term, ty_l, beta)), _merge(theory, *all_premises), record
    )


def _head_of_equation(j: AbstractedJudgement, b: AbstractedBoundary) -> Argument:
    """The right head of an equation filled into an object boundary."""
    body = j.body
    if isinstance(body, EqTy):
        inner: Argument = ExprArg(body.rhs)
    elif isinstance(body, EqTm):
        inner = ExprArg(body.rhs)
    else:
        raise PremiseMismatch("expected an equation")
    for _ in range(len(j.prefix)):
        inner = Abstr(inner)
    return inner


# ---------------------------------------------------------------------------
# Substitution and instantiation


def cf_substitute(theory: Theory, cert_abs: Certificate, cert_t: CertifiedJudgement) -> Certificate:
    """CF-Subst and CF-Bdry-Subst: plug a derived term into the outermost
    binder of an abstracted judgement or boundary."""
    j = cert_abs.payload
    if not j.prefix:
        raise PremiseMismatch("CF-Subst needs an abstraction")
    tm = _plain_body(cert_t, IsTm, "CF-Subst")
    if tm.ty != j.prefix[0]:
        raise TypeMismatch("substituted term does not live at the binder type")
    payload = instantiate_prefix(j, [tm.term])
    ann = _merge(theory, cert_abs, cert_t)
    return _cert(theory, payload, ann, ("cf_substitute", cert_abs, cert_t))


def _check_subst_eq_premises(
    prefix: tuple,
    s_certs: Sequence[CertifiedJudgement],
    t_certs: Sequence[CertifiedJudgement],
    eq_certs: Sequence[CertifiedJudgement],
    what: str,
) -> tuple[list[Expr], list[Expr]]:
    """The terms of the (s, t, equation) triples substituted for the first
    binders of ``prefix``: each s at its binder type under the earlier ss,
    each t under the earlier ts, each equation s == t' with t' erasing to t."""
    n = len(s_certs)
    if len(t_certs) != n or len(eq_certs) != n or n > len(prefix):
        raise PremiseMismatch("substitution triples do not match the abstraction")
    ss = [_plain_body(c, IsTm, what).term for c in s_certs]
    ts = [_plain_body(c, IsTm, what).term for c in t_certs]
    for i in range(n):
        ty_s = subst_bound_many(prefix[i], ss[:i])
        ty_t = subst_bound_many(prefix[i], ts[:i])
        _want(s_certs[i], plain(IsTm(ss[i], ty_s)), f"{what} s-premise")
        _want(t_certs[i], plain(IsTm(ts[i], ty_t)), f"{what} t-premise")
        eq = _plain_body(eq_certs[i], EqTm, f"{what} equation")
        if eq.lhs != ss[i] or eq.ty != ty_s:
            raise PremiseMismatch(f"{what} equation does not match the s-premise")
        if not erased_equal(eq.rhs, ts[i]):
            raise ErasureMismatch(f"{what} primed side differs after erasure")
    return ss, ts


def cf_subst_eq(
    theory: Theory,
    cert_abs: CertifiedJudgement,
    s_certs: Sequence[CertifiedJudgement],
    t_certs: Sequence[CertifiedJudgement],
    eq_certs: Sequence[CertifiedJudgement],
) -> CertifiedJudgement:
    """CF-Subst-EqTy / CF-Subst-EqTm: equal substitution into an abstracted
    type or term judgement.  In the term case the right-hand side is the
    t-substituted term wrapped in a conversion recording the suitable set."""
    j = cert_abs.payload
    ss, ts = _check_subst_eq_premises(j.prefix, s_certs, t_certs, eq_certs, "CF-Subst-Eq")
    left = instantiate_prefix(j, ss)
    right = instantiate_prefix(j, ts)
    prem = [*s_certs, *t_certs, *eq_certs, cert_abs]
    match left.body:
        case IsTy(ty=a):
            beta = minimal_suitable(prem, Abstracted(left.prefix, EqTyB(a, right.body.ty)))
            body = EqTy(a, right.body.ty, beta)
        case IsTm(term=s, ty=a):
            beta = minimal_suitable(prem, Abstracted(left.prefix, EqTmB(s, right.body.term, a)))
            body = EqTm(s, Convert(right.body.term, beta), a, beta)
        case _:
            raise NotObjectJudgement("CF-Subst-Eq applies to type and term judgements")
    record = ("cf_subst_eq", cert_abs, s_certs, t_certs, eq_certs)
    return _cert(theory, Abstracted(left.prefix, body), _merge(theory, *prem), record)


def binder_type_cert(theory: Theory, cert_b: CertifiedBoundary, j: int) -> CertifiedJudgement:
    """Inverts a certified abstracted boundary to the certified judgement
    that its ``j``-th binder type is a type (a premise of the abstraction
    rule that built it)."""
    b = cert_b.payload
    if j < 0 or j >= len(b.prefix):
        raise PremiseMismatch("no such binder")
    return _cert(
        theory,
        Abstracted(b.prefix[:j], IsTy(b.prefix[j])),
        dict(cert_b._annotations),
        ("binder_type_cert", cert_b, j),
    )


def cf_instantiate(
    theory: Theory,
    entries: Sequence[tuple[MetaName, CertifiedJudgement]],
    cert_j: Certificate,
) -> Certificate:
    """Context-free admissibility of instantiation, for judgements and
    boundaries alike: act on the payload after validating that each
    certificate fills its restricted boundary."""
    inst_entries = []
    for m, cert in entries:
        if m.annotation is None:
            raise AnnotationMismatch("cf metavariables carry boundary annotations")
        inst_entries.append((m, head_of(cert.payload)))
    inst = Instantiation(inst_entries)
    for i, (m, cert) in enumerate(entries, start=1):
        want = fill(act(inst.restrict(i), m.annotation), inst[m])
        _want(cert, want, "cf_instantiate")
    missing = [m for m in mv(cert_j.payload) if m not in inst]
    if missing:
        raise UnknownMeta(missing[0].name)
    payload = act(inst, cert_j.payload)
    ann = _merge(theory, cert_j, *[c for _, c in entries])
    _require_annotations(theory, ann, payload)
    return _cert(theory, payload, ann, ("cf_instantiate", entries, cert_j))


# ---------------------------------------------------------------------------
# Presuppositions, natural types, inversion, strengthening


def presuppositions_cf(theory: Theory, cert: CertifiedJudgement) -> CertifiedBoundary:
    """Context-free presuppositivity: the boundary of a certified judgement
    with well-typed annotations is itself derivable."""
    b, _ = unfill(cert.payload)
    return _cert(theory, b, dict(cert._annotations), ("presuppositions_cf", cert))


def boundary_components(theory: Theory, cert_b: CertifiedBoundary) -> tuple:
    """Inverts a certified boundary into certificates of its components (the
    premises of the boundary closure rule that built it), each abstracted
    over the boundary's binders (as the abstraction rules that built it
    abstract them)."""
    b = cert_b.payload
    match b.body:
        case IsTyB():
            parts: tuple = ()
        case IsTmB(ty=a):
            parts = (IsTy(a),)
        case EqTyB(lhs=a, rhs=c):
            parts = (IsTy(a), IsTy(c))
        case EqTmB(lhs=s, rhs=t, ty=a):
            parts = (IsTy(a), IsTm(s, a), IsTm(t, a))
        case _:
            raise PremiseMismatch(f"not a boundary: {b.body!r}")
    ann = dict(cert_b._annotations)
    return tuple(
        _cert(theory, Abstracted(b.prefix, p), ann, ("boundary_components", cert_b, i))
        for i, p in enumerate(parts)
    )


def natural_type_cf(theory: Theory, t: Expr) -> Expr:
    """The natural type of a term over a standard cf-theory: that of the
    term under its conversions."""
    while isinstance(t, Convert):
        t = t.term
    match t:
        case FreeVar(annotation=a):
            if a is None:
                raise AnnotationMismatch("cf variables carry annotations")
            return a
        case MetaApp(meta=m, args=args):
            if m.annotation is None or not isinstance(m.annotation.body, IsTmB):
                raise NotObjectJudgement(f"{m.name} is not a term metavariable")
            return subst_bound_many(m.annotation.body.ty, list(args))
        case SymbolApp(symbol=s, args=args):
            try:
                trule = theory.symbol_rule_for(s)
            except NoSymbolRule as exc:
                raise NonStandardTheory(str(exc)) from exc
            concl = trule.rule.conclusion
            if not isinstance(concl, IsTm):
                raise NonStandardTheory(f"{s} is not a term symbol")
            inst = Instantiation(
                [(m, a) for (m, _), a in zip(trule.rule.premises, args)]
            )
            return act(inst, concl.ty)
    raise NotObjectJudgement(f"no natural type for {t!r}")


def invert_cf(theory: Theory, cert: CertifiedJudgement) -> CertifiedJudgement:
    """Context-free inversion: recover the stump  strip(t) : nat(t), or the
    single conversion  convert(strip t, residue t) : A  when A differs."""
    tm = _plain_body(cert, IsTm, "invert")
    nat = natural_type_cf(theory, tm.term)
    stripped = strip_conversions(tm.term)
    res = conversion_residue(tm.term)
    ann = dict(cert._annotations)
    if tm.ty == nat and stripped == tm.term:
        return cert
    if tm.ty == nat:
        return _cert(theory, plain(IsTm(stripped, nat)), ann, ("invert_cf", cert))
    return _cert(theory, plain(IsTm(Convert(stripped, res), tm.ty)), ann, ("invert_cf", cert))


def natural_type_eq(theory: Theory, cert: CertifiedJudgement) -> CertifiedJudgement:
    """The equation  nat(t) == A by residue(t)  for a certified  t : A."""
    tm = _plain_body(cert, IsTm, "natural_type_eq")
    nat = natural_type_cf(theory, tm.term)
    res = conversion_residue(tm.term)
    ann = dict(cert._annotations)
    return _cert(theory, plain(EqTy(nat, tm.ty, res)), ann, ("natural_type_eq", cert))


def uniqueness_of_typing_cf(
    theory: Theory, cert1: CertifiedJudgement, cert2: CertifiedJudgement
) -> CertifiedJudgement:
    """From  t : A  and  t : B, the equation  A == B  with assumptions drawn
    from  t  alone."""
    t1 = _plain_body(cert1, IsTm, "uniqueness")
    t2 = _plain_body(cert2, IsTm, "uniqueness")
    if t1.term != t2.term:
        raise PremiseMismatch("uniqueness applies to two typings of one term")
    e1 = natural_type_eq(theory, cert1)
    e2 = natural_type_eq(theory, cert2)
    return cf_eqty_trans(theory, cf_eqty_sym(theory, e1), e2)


def strengthen(theory: Theory, cert: Certificate, position: Optional[int] = None) -> Certificate:
    """Removes the binder at ``position`` (default: the innermost) when the
    remainder of the judgement or boundary does not use it."""
    j = cert.payload
    if not j.prefix:
        raise PremiseMismatch("nothing to strengthen")
    pos = len(j.prefix) - 1 if position is None else position
    if pos < 0 or pos >= len(j.prefix):
        raise PremiseMismatch("no such binder")
    n = len(j.prefix)
    # The binder `pos` is referenced as index (i - 1 - pos) inside prefix[i]
    # for i > pos, and as (n - 1 - pos) inside the body.
    for i in range(pos + 1, n):
        if (i - 1 - pos) in bv(j.prefix[i]):
            raise BinderUsed(f"binder {pos} occurs in a later binder type")
    if (n - 1 - pos) in bv(j.body):
        raise BinderUsed(f"binder {pos} occurs in the judgement")
    marker = FreeVar("#strengthen", None)
    new_prefix = tuple(
        subst_bound(ty, marker, i - 1 - pos) if i > pos else ty
        for i, ty in enumerate(j.prefix)
        if i != pos
    )
    new_body = subst_bound(j.body, marker, n - 1 - pos)
    payload = Abstracted(new_prefix, new_body)
    return _cert(theory, payload, dict(cert._annotations), ("strengthen", cert, position))


def boundary_convert(
    theory: Theory,
    cert_b: CertifiedBoundary,
    cert_j: CertifiedJudgement,
    *,
    avoid: frozenset = frozenset(),
) -> CertifiedJudgement:
    """Boundary conversion: move the head of a judgement from the boundary it
    fills, its own presupposition, onto an erasure-equal boundary, inserting
    conversions as the constructive proof prescribes.  It is built from
    closure rules: a term is converted along the reflexivity of its two
    types; an equation is composed by transitivity with a reflexivity at each
    side that differs, after a term equation's type is converted; and each
    binder is opened at a variable of the second boundary's binder type,
    substituted converted into the judgement and plain into the boundary,
    and abstracted again.  That variable's name is fresh for every level
    opened so far, whose names the recursion passes down in ``avoid``, even
    where the judgement does not use an outer one."""
    j = cert_j.payload
    b1, b2 = unfill(j)[0], cert_b.payload
    if erase(b1) != erase(b2):
        raise ErasureMismatch("boundaries differ after erasure")
    if b1 == b2:
        return cert_j
    if b1.prefix:
        ty2 = binder_type_cert(theory, cert_b, 0)
        ty1 = binder_type_cert(theory, presuppositions_cf(theory, cert_j), 0)
        avoid = avoid | atoms_in_use(b1, b2, j)
        v = FreeVar(fresh_name("a", avoid), b2.prefix[0])
        var = cf_var(theory, v, ty2)
        conv_var = cf_conv_tm(theory, var, cf_eqty_refl(theory, ty2, ty1))
        inner_j = cf_substitute(theory, cert_j, conv_var)
        inner_b = cf_substitute(theory, cert_b, var)
        inner = boundary_convert(theory, inner_b, inner_j, avoid=avoid | {v.name})
        return cf_abstract_fwd(theory, ty2, inner, v)
    old = boundary_components(theory, presuppositions_cf(theory, cert_j))
    new = boundary_components(theory, cert_b)
    if isinstance(b2.body, IsTmB):
        return cf_conv_tm(theory, cert_j, cf_eqty_refl(theory, old[0], new[0]))
    if isinstance(b2.body, EqTyB):
        return _onto_sides(theory, cert_j, old, new, cf_eqty_refl, cf_eqty_trans)
    if old[0].payload != new[0].payload:
        cert_j = cf_conv_eqtm(theory, cert_j, cf_eqty_refl(theory, old[0], new[0]))
        old = boundary_components(theory, presuppositions_cf(theory, cert_j))
    return _onto_sides(theory, cert_j, old[1:], new[1:], cf_eqtm_refl, cf_eqtm_trans)


def _onto_sides(theory, cert_eq, old, new, refl, trans) -> CertifiedJudgement:
    """The equation ``cert_eq`` between the sides that ``old`` certifies
    moved onto the erasure-equal sides that ``new`` certifies, by
    transitivity with a reflexivity at each side that differs."""
    (l1, r1), (l2, r2) = old, new
    if l1.payload != l2.payload:
        cert_eq = trans(theory, refl(theory, l2, l1), cert_eq)
    if r1.payload != r2.payload:
        cert_eq = trans(theory, cert_eq, refl(theory, r1, r2))
    return cert_eq
