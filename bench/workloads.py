"""The four workloads: seeded inputs, the timed kernel calls of one item, and
checks of each output against an answer that does not come from the kernel.

A workload yields its inputs in strata cycles: each cycle holds every
stratum (depth, item kind, chain length or theory size) once, in a seeded
order, so every run sees the same mix whatever its seed, and a run's
throughput can be taken per whole cycle.

Every call into fintt goes through a module attribute (``cf.cf_var``,
``parser.parse_theory``, methods of ``CFDeriver``) so that the traced run
can wrap it.
"""

from __future__ import annotations

import dataclasses
import itertools
import pathlib
import random

from fintt import cf_engine as cf
from fintt import parser
from fintt import theory as thy
from fintt import translate as tr
from fintt import tt_engine as tt
from fintt.derive import CFDeriver, TTDeriver
from fintt.errors import KernelError, UncheckableDerivation
from fintt.judgements import EMPTY_METAS, VarCtx
from fintt.syntax import (
    Abstr,
    Abstracted,
    AssumptionSet,
    DUMMY,
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
    SymbolApp,
    double_erase,
    erase,
    erased_equal,
)
from tests.gen import CertGen

from theorygen import EXPECTED, VARIANTS, TheoryGen

ROOT = pathlib.Path(__file__).resolve().parent.parent
BOOL = SymbolApp("bool", ())
NAT = SymbolApp("nat", ())

# The λ-fragment of tests/test_lambda_theory.py.
LAMBDA_THEORY = """\
rule bool: yields type
rule Pi: premise A : type; premise B : {x : A} type; yields type
rule lam: premise A : type; premise B : {x : A} type; premise body : {x : A} B(x); yields : Pi(A, {x} B(x))
rule app: premise A : type; premise B : {x : A} type; premise f : Pi(A, {x} B(x)); premise arg : A; yields : B(arg)
"""

# One item in this many has its emitted equations re-checked by the
# syntactic suitability oracle of the test suite.
ORACLE_SAMPLE = 4


class CheckFailed(Exception):
    """An output differs from the answer known without the kernel."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def gate(text: str) -> dict:
    """parse_theory, elaborate in both flavours, and both gates."""
    decl = parser.parse_theory(text)
    out = {}
    for flavor in ("cf", "tt"):
        theory = parser.elaborate(decl, flavor)
        thy.check_finitary(theory)
        thy.check_standard(theory)
        out[flavor] = theory
    return out


def mltt_text() -> str:
    return (ROOT / "tests" / "corpus" / "mltt.ftt").read_text()


def succ(t):
    return SymbolApp("succ", (ExprArg(t),))


def id_of(a, s, t):
    return SymbolApp("Id", (ExprArg(a), ExprArg(s), ExprArg(t)))


def pi_of(a, b):
    return SymbolApp("Pi", (ExprArg(a), Abstr(ExprArg(b))))


def plain(body) -> Abstracted:
    """An unabstracted judgement, built here so that expected answers do not
    go through the kernel's own helpers."""
    return Abstracted((), body)


def boundary_of(j: Abstracted) -> Abstracted:
    """The boundary a judgement fills, read off its thesis."""
    match j.body:
        case IsTy():
            body = IsTyB()
        case IsTm(ty=a):
            body = IsTmB(a)
        case EqTy(lhs=a, rhs=b):
            body = EqTyB(a, b)
        case EqTm(lhs=s, rhs=t, ty=a):
            body = EqTmB(s, t, a)
    return Abstracted(j.prefix, body)


def term_nodes(x) -> int:
    """Number of syntax nodes in ``x``, annotations included."""
    if isinstance(x, (tuple, list, frozenset)):
        return sum(term_nodes(y) for y in x)
    if not dataclasses.is_dataclass(x):
        return 0
    return 1 + sum(term_nodes(getattr(x, f.name)) for f in dataclasses.fields(x))


def suitable(equation_log) -> None:
    """Criterion 4 of the acceptance suite: the assumptions of an emitted
    equation are exactly those of its premises, recomputed by the oracle."""
    from tests.test_acceptance import oracle_asm

    for premises, concl in equation_log:
        got = AssumptionSet()
        for p in premises:
            got = got.union(oracle_asm(p))
        expect(got == oracle_asm(concl), "emitted equation is not suitable")


def cycles(seed: int, strata: list):
    """Yields (cycle, stratum, item seed) forever: each cycle is every
    stratum once, shuffled."""
    rng = random.Random(seed)
    cycle = 0
    while True:
        order = list(strata)
        rng.shuffle(order)
        for s in order:
            yield cycle, s, rng.getrandbits(64)
        cycle += 1


class Workload:
    """``strata`` make one cycle. ``prepare`` turns a stratum and item seed
    into the item's inputs (untimed), ``run`` makes the timed kernel calls,
    ``check`` raises :class:`CheckFailed` on a wrong output, and
    ``known_failure`` names an exception the kernel is documented to raise
    today where the answer is success."""

    name = ""
    strata: list = []

    def setup(self) -> None:
        self.theories = [gate(text) for text in self.theory_texts()]

    @property
    def cycle_length(self) -> int:
        return len(self.strata)

    def items(self, seed: int):
        return cycles(seed, self.strata)

    def known_failure(self, args, exc: Exception) -> bool:
        return False

    def size(self, args, out) -> int:
        """Syntax nodes in the item's input; ``out`` is None if it failed."""
        raise NotImplementedError


class CfCertify(Workload):
    """Certificates from CertGen, their presuppositions, and the boundary
    re-certified from scratch by CFDeriver."""

    name = "cf_certify"
    KINDS = ("ty", "tm", "eq", "reflect", "abs")
    DEPTHS = range(3)
    strata = list(itertools.product(DEPTHS, KINDS))

    def theory_texts(self):
        return (mltt_text(),)

    def prepare(self, stratum, item_seed):
        depth, kind = stratum
        return depth, kind, item_seed

    def run(self, args):
        depth, kind, item_seed = args
        theory = self.theories[0]["cf"]
        g = CertGen(random.Random(item_seed), theory)
        cert = build(g, kind, depth)
        bdry = cf.presuppositions_cf(theory, cert)
        again = CFDeriver(theory).boundary(bdry.payload)
        return g, cert, bdry, again

    def check(self, args, out):
        g, cert, bdry, again = out
        expect(bdry.payload == boundary_of(cert.payload), "presupposition is not the boundary")
        expect(again.payload == bdry.payload, "re-certified boundary differs")
        if args[2] % ORACLE_SAMPLE == 0:
            suitable(g.equation_log)

    def size(self, args, out):
        # The certificate is the input, built inside the item.
        return term_nodes(out[1].payload) if out is not None else 0


def build(g: CertGen, kind: str, depth: int):
    """CertGen.judgement_cert with the kind fixed by the stratum."""
    match kind:
        case "ty":
            return g.type_cert(depth)
        case "tm":
            return g.term_cert(g.type_cert(depth - 1 if depth else 0), depth)
        case "eq":
            return g.equation_cert(depth)
        case "reflect":
            return g.reflect_equation(depth)
    ty = g.type_cert(max(depth - 2, 0))
    v = g.var_cert(ty)
    inner = g.rng.choice([g.type_cert(max(depth - 2, 0)), v])
    atom = FreeVar(v.payload.body.term.name, ty.payload.body.ty)
    return cf.cf_abstract_fwd(g.theory, ty, inner, atom)


class DeepChain(Workload):
    """succ^n(x) under a one-to-three-variable context, as a term, an Id type
    or a reflexivity equation: derived, checked, its presuppositions taken,
    and the annotated twin certified."""

    name = "deep_chain"
    # n is drawn within one of nine bins of 10..90, so that item times
    # spread evenly and the median does not jump between strata.
    LENGTHS = range(10, 91, 9)
    KINDS = ("tm", "id", "refl")
    strata = list(itertools.product(LENGTHS, KINDS))

    def theory_texts(self):
        return (mltt_text(),)

    def prepare(self, stratum, item_seed):
        low, kind = stratum
        rng = random.Random(item_seed)
        n = low + rng.randrange(9)
        names = rng.sample(["a", "b", "c", "d"], rng.randint(1, 3))
        types = [rng.choice([NAT, BOOL]) for _ in names]
        x = rng.randrange(len(names))
        types[x] = NAT
        vctx = VarCtx([(FreeVar(v), ty) for v, ty in zip(names, types)])
        t, twin = FreeVar(names[x]), FreeVar(names[x], NAT)
        for _ in range(n):
            t, twin = succ(t), succ(twin)
        if kind == "tm":
            jdg, bdry = IsTm(t, NAT), IsTmB(NAT)
        elif kind == "id":
            jdg, bdry = IsTy(id_of(NAT, t, t)), IsTyB()
        else:
            jdg, bdry = EqTm(t, t, NAT, DUMMY), EqTmB(t, t, NAT)
        want = (
            tt.JdgTT(EMPTY_METAS, vctx, plain(jdg)),
            tt.BdryTT(EMPTY_METAS, vctx, plain(bdry)),
            plain(IsTm(twin, NAT)),
        )
        return kind, vctx, t, twin, want

    def run(self, args):
        kind, vctx, t, twin, _ = args
        th_cf, th_tt = self.theories[0]["cf"], self.theories[0]["tt"]
        ttd = TTDeriver(th_tt)
        if kind == "tm":
            d = ttd.tm(EMPTY_METAS, vctx, t, NAT)
        elif kind == "id":
            d = ttd.ty(EMPTY_METAS, vctx, id_of(NAT, t, t))
        else:
            d = tt.eqtm_refl(th_tt, ttd.tm(EMPTY_METAS, vctx, t, NAT))
        tt.check_derivation(th_tt, d)
        bd = tt.presuppositions(th_tt, d, tt.mctx_empty(th_tt), ttd.vctx_wf(EMPTY_METAS, vctx))
        c = CFDeriver(th_cf).tm(twin, NAT)
        return d, bd, c

    def check(self, args, out):
        d, bd, c = out
        want_d, want_bd, want_c = args[4]
        expect(d.conclusion == want_d, "derivation concludes another judgement")
        expect(bd.conclusion == want_bd, "presuppositions conclude another boundary")
        expect(c.payload == want_c, "certificate of the twin differs")

    def size(self, args, out):
        return term_nodes(args[2]) + term_nodes(args[3])


class TranslateMix(Workload):
    """cf->tt->cf round trips of CertGen certificates, tt->cf of derived
    judgements, and transported congruence on Pi, Id and the λ-rule lam."""

    name = "translate_mix"
    strata = (
        [("cf", d) for d in range(3)]
        + [("tt", k) for k in ("tm", "ty", "eq", "refl")]
        + [("congr", r) for r in ("Pi", "Id", "lam")]
    )

    def theory_texts(self):
        return (mltt_text(), LAMBDA_THEORY)

    def items(self, seed):
        # The certificate kind turns with the cycle: every (depth, kind)
        # pair once in five cycles.
        for cycle, (kind, which), item_seed in cycles(seed, self.strata):
            if kind == "cf":
                which = (which, CfCertify.KINDS[(cycle + which) % len(CfCertify.KINDS)])
            yield cycle, (kind, which), item_seed

    def prepare(self, stratum, item_seed):
        kind, which = stratum
        rng = random.Random(item_seed)
        if kind == "cf":
            return kind, which, self._cf_input(rng, which) + (item_seed % ORACLE_SAMPLE == 0,)
        if kind == "tt":
            return kind, which, self._tt_input(rng, which)
        return kind, which, self._congr_input(rng, which)

    def _cf_input(self, rng, stratum):
        depth, kind = stratum
        g = CertGen(rng, self.theories[0]["cf"])
        while True:  # as the acceptance suite does, redraw on a refusal
            try:
                return g, build(g, kind, depth)
            except KernelError:
                continue

    def _tt_input(self, rng, kind):
        th = self.theories[0]["tt"]
        ttd = TTDeriver(th)
        a, b = FreeVar("a"), FreeVar("b")
        vctx = VarCtx([(a, NAT), (b, BOOL)])
        t = a
        for _ in range(rng.randrange(4)):
            t = succ(t)
        if kind == "tm":
            d, want = ttd.tm(EMPTY_METAS, vctx, t, NAT), IsTm(t, NAT)
        elif kind == "ty":
            d, want = ttd.ty(EMPTY_METAS, vctx, id_of(NAT, t, t)), IsTy(id_of(NAT, t, t))
        elif kind == "eq":
            d, want = tt.eqtm_refl(th, ttd.tm(EMPTY_METAS, vctx, t, NAT)), EqTm(t, t, NAT)
        else:
            ty = id_of(NAT, t, succ(t))
            d, want = tt.eqty_refl(th, ttd.ty(EMPTY_METAS, vctx, ty)), EqTy(ty, ty)
        evidence = (tt.mctx_empty(th), ttd.vctx_wf(EMPTY_METAS, vctx))
        return d, evidence, plain(want)

    def _congr_input(self, rng, rule):
        """Premise equations for the rule, and the two sides the congruence
        must conclude."""
        if rule == "lam":
            th = self.theories[1]["cf"]
            d = CFDeriver(th)
            ty_bool = d.ty(BOOL)
            b = FreeVar("b" + str(rng.randrange(100)), BOOL)
            vb = cf.cf_var(th, b, ty_bool)
            eqs = [
                cf.cf_eqty_refl(th, ty_bool, ty_bool),
                cf.cf_abstract_fwd(th, ty_bool, cf.cf_eqty_refl(th, ty_bool, ty_bool), FreeVar("u", BOOL)),
                cf.cf_abstract_fwd(th, ty_bool, cf.cf_eqtm_refl(th, vb, vb), FreeVar("w", BOOL)),
            ]
            lam = SymbolApp("lam", (ExprArg(BOOL), Abstr(ExprArg(BOOL)), Abstr(ExprArg(b))))
            return eqs, lam, lam
        th = self.theories[0]["cf"]
        d = CFDeriver(th)
        if rule == "Pi":
            dom, cod = rng.choice([BOOL, NAT]), rng.choice([BOOL, NAT])
            ty_dom, ty_cod = d.ty(dom), d.ty(cod)
            x = FreeVar("x" + str(rng.randrange(100)), dom)
            eqs = [
                cf.cf_eqty_refl(th, ty_dom, ty_dom),
                cf.cf_abstract_fwd(th, ty_dom, cf.cf_eqty_refl(th, ty_cod, ty_cod), x),
            ]
            return eqs, pi_of(dom, cod), pi_of(dom, cod)
        a = rng.choice([BOOL, NAT])
        ty_a = d.ty(a)
        s, t, u = (FreeVar(n + str(rng.randrange(100)), a) for n in "stu")
        vs, vt, vu = (cf.cf_var(th, v, ty_a) for v in (s, t, u))
        # s == t by equality reflection from a variable p : Id(A, s, t)
        id_st = cf.cf_apply_rule(th, "Id", [ty_a, vs, vt])
        p = cf.cf_var(th, FreeVar("p", id_st.payload.body.ty), id_st)
        eq_s = cf.cf_apply_rule(th, "eq_reflect", [ty_a, vs, vt, p])
        eqs = [cf.cf_eqty_refl(th, ty_a, ty_a), eq_s, cf.cf_eqtm_refl(th, vu, vu)]
        return eqs, id_of(a, s, u), id_of(a, t, u)

    def run(self, args):
        kind, which, inp = args
        mltt = self.theories[0]
        if kind == "cf":
            _, cert, _ = inp
            _, _, d = tr.cf_judgement_to_tt(mltt["cf"], mltt["tt"], cert)
            tt.check_derivation(mltt["tt"], d)
            return d, tr.round_trip_cf(mltt["cf"], mltt["tt"], cert)
        if kind == "tt":
            d, (mctx_d, vctx_d), _ = inp
            return tr.tt_to_cf(mltt["tt"], mltt["cf"], d, mctx_d, vctx_d)
        theories = self.theories[1] if which == "lam" else mltt
        return tr.transported_congruence(theories["cf"], theories["tt"], which, inp[0])

    def check(self, args, out):
        kind, _, inp = args
        if kind == "cf":
            g, cert, sampled = inp
            d, back = out
            expect(d.conclusion.jdg == erase(cert.payload), "cf->tt concludes another judgement")
            expect(erased_equal(back.payload, cert.payload), "round trip is not erased-equal")
            if sampled:
                suitable(g.equation_log)
        elif kind == "tt":
            d, _, want = inp
            expect(d.conclusion.jdg == want, "derived judgement differs")
            expect(double_erase(out.payload) == want, "tt->cf does not double-erase back")
        else:
            from tests.test_acceptance import oracle_asm

            eqs, lhs, rhs = inp
            body = out.payload.body
            expect(erased_equal(body.lhs, lhs) and erased_equal(body.rhs, rhs), "congruence sides differ")
            inputs = AssumptionSet()
            for e in eqs:
                inputs = inputs.union(oracle_asm(e.payload))
            expect(body.by.issubset(inputs), "congruence assumes more than its inputs")

    def known_failure(self, args, exc):
        # tt->cf has no case for economic congruence nodes yet.
        return (
            args[:2] == ("congr", "lam")
            and isinstance(exc, UncheckableDerivation)
            and "TT-Congr-Eco" in str(exc)
        )

    def size(self, args, out):
        kind, _, inp = args
        if kind == "cf":
            return term_nodes(inp[1].payload)
        if kind == "tt":
            return term_nodes(inp[2])
        return term_nodes([e.payload for e in inp[0]])


class TheoryCheck(Workload):
    """Generated theory texts through parse_theory, elaborate and both gates
    in both flavours; one in four carries a defect with a known verdict."""

    name = "theory_check"
    SIZES = range(10, 121, 10)
    strata = list(SIZES)

    def theory_texts(self):
        return (mltt_text(),)

    def items(self, seed):
        # Each cycle: every size once, and three of them, 40 rules apart,
        # carry one defect each. Those sizes turn with the cycle, so every
        # run weighs sizes and defects alike whatever its seed.
        rng = random.Random(seed)
        n = len(self.SIZES)
        cycle = 0
        while True:
            defects = {
                self.SIZES[(5 * cycle + 4 * k) % n]: variant
                for k, variant in enumerate(VARIANTS[1:])
            }
            sizes = list(self.SIZES)
            rng.shuffle(sizes)
            for size in sizes:
                yield cycle, (size, defects.get(size, "valid")), rng.getrandbits(64)
            cycle += 1

    def prepare(self, stratum, item_seed):
        size, variant = stratum
        g = TheoryGen(random.Random(item_seed), size, variant)
        return variant, g.text, g.nodes

    def run(self, args):
        _, text, _ = args
        decl = parser.parse_theory(text)
        verdict = {}
        for flavor in ("cf", "tt"):
            try:
                theory = parser.elaborate(decl, flavor)
                thy.check_finitary(theory)
                thy.check_standard(theory)
                verdict[flavor] = None
            except KernelError as exc:
                verdict[flavor] = type(exc).__name__
        return verdict

    def check(self, args, out):
        expect(out == EXPECTED[args[0]], f"verdict {out} for a {args[0]} theory")

    def size(self, args, out):
        return args[2]


WORKLOADS = {w.name: w for w in (CfCertify, DeepChain, TranslateMix, TheoryCheck)}
