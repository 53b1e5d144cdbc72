"""What the kernel outputs on fixed benchmark items, one SHA-256 per workload.

    python3 tests/pinned_outputs.py > tests/pinned_outputs.txt

Each workload of ``bench/workloads.py`` prepares and runs its first items at
seed 7, as the benchmark does.  A fifth line covers the fixed items of
``boundary_conversion``: tt -> cf of derivations whose premises are
erasure-equal to, but not equal with, what their rule wants, and
``cf_engine.boundary_convert`` onto erasure-equal boundaries, which no
benchmark item reaches.  Every output is printed in full with the printer,
never cut:

- a cf certificate as its class, its payload and the sorted payloads of its
  annotation cache;
- a tt derivation as its conclusion;
- a theory's verdict per flavour;
- a refusal as its error class and message.

The digest of a workload is the SHA-256 of those lines.  The output does not
depend on ``PYTHONHASHSEED``; ``tests/test_pinned_outputs.py`` checks the
digests against ``tests/pinned_outputs.txt`` under two hash seeds.  A change
that alters an output on purpose regenerates that file with the command above
and says which outputs changed and why.
"""

from __future__ import annotations

import hashlib
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
for path in (ROOT / "bench", ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from fintt import cf_engine as cf  # noqa: E402
from fintt import translate as tr  # noqa: E402
from fintt import tt_engine as tt  # noqa: E402
from fintt.cf_engine import Certificate  # noqa: E402
from fintt.derive import CFDeriver  # noqa: E402
from fintt.errors import KernelError  # noqa: E402
from fintt.instantiation import Instantiation  # noqa: E402
from fintt.printer import print_abstracted, print_statement  # noqa: E402
from fintt.syntax import DUMMY, Abstr, Abstracted, EqTy, ExprArg, FreeVar, IsTy, MetaName  # noqa: E402
from fintt.theory import check_finitary, check_standard  # noqa: E402
from fintt.tt_engine import Derivation  # noqa: E402
from tests.gen import CertGen  # noqa: E402
from tests.test_cf_engine import moved_inputs  # noqa: E402
from tests.test_theory import mltt_builder  # noqa: E402
from tests.test_translate import A, CONV_METAS, CONV_VARS, M2, NAT, conversion_inputs, id_ty  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
ITEMS = {"translate_mix": 1000, "cf_certify": 600, "deep_chain": 54, "theory_check": 48}


def printed(out) -> list[str]:
    """The lines of one item's output, in order."""
    if isinstance(out, Certificate):
        cache = sorted(print_abstracted(k) for k in out._annotations)
        return [f"{type(out).__name__} {print_abstracted(out.payload)}", *(f"  ann {a}" for a in cache)]
    if isinstance(out, Derivation):
        return [f"Derivation {print_statement(out.conclusion)}"]
    if isinstance(out, dict):
        return [f"verdict {flavor} {out[flavor]}" for flavor in sorted(out)]
    if isinstance(out, CertGen):  # the generator an item drew its input from
        return []
    if isinstance(out, tuple):
        return [line for x in out for line in printed(x)]
    raise TypeError(f"no printing for {type(out).__name__}")


def hashed(items) -> str:
    """The SHA-256 of the printed outputs of ``items``, (label, thunk) pairs."""
    h = hashlib.sha256()
    for index, (label, run) in enumerate(items):
        try:
            lines = printed(run())
        except KernelError as exc:
            lines = [f"refused {type(exc).__name__}: {exc}"]
        for line in (f"item {index} {label}", *lines):
            h.update(line.encode())
            h.update(b"\n")
    return h.hexdigest()


def workload_items(name: str, count: int):
    """(label, thunk) of the workload's first ``count`` items, each prepared
    when it is run, as the benchmark does."""
    w = WORKLOADS[name]()
    w.setup()
    for _, (_, stratum, item_seed) in zip(range(count), w.items(SEED)):
        yield repr(stratum), lambda: w.run(w.prepare(stratum, item_seed))


def corpus_theories():
    """The corpus theory of ``tests/test_theory.py``, cf and tt, gated."""
    out = mltt_builder("cf").theory(), mltt_builder("tt").theory()
    for th in out:
        check_finitary(th)
        check_standard(th)
    return out


def conversion_items():
    """(label, thunk) of each fixed item that moves a premise or a judgement
    onto an erasure-equal boundary."""
    t_cf, t_tt = corpus_theories()
    ttd, a_d, id_plain, id_conv, p_d = conversion_inputs(t_tt)
    evidence = ttd.mctx_wf(CONV_METAS), ttd.vctx_wf(CONV_METAS, CONV_VARS)
    nat_d = ttd.ty(CONV_METAS, CONV_VARS, NAT)
    a_conv = tt.conv_tm(t_tt, a_d, tt.eqty_refl(t_tt, nat_d))
    p_conv = tt.conv_tm(t_tt, p_d, tt.eqty_refl(t_tt, id_conv))
    idt = id_ty(NAT, A, A)
    fam = ttd.judgement(CONV_METAS, CONV_VARS, Abstracted((idt,), IsTy(NAT)))
    fam_eq = ttd.judgement(CONV_METAS, CONV_VARS, Abstracted((idt,), EqTy(NAT, NAT, DUMMY)))
    pi = Instantiation([(MetaName("A"), ExprArg(idt)), (MetaName("B"), Abstr(ExprArg(NAT)))])
    refl = Instantiation([(MetaName("A"), ExprArg(NAT)), (MetaName("a"), ExprArg(A))])
    derivations = {
        "retyped term": tt.bdry_eqtm(t_tt, id_conv, p_d, p_d),
        "one side retyped": tt.bdry_eqtm(t_tt, id_plain, p_d, p_conv),
        "rectified left side": p_conv,
        "retyped term equation": tt.eqtm_trans(t_tt, tt.eqtm_refl(t_tt, p_d), tt.eqtm_refl(t_tt, p_conv)),
        "metavariable of two binders": tt.tt_meta(t_tt, CONV_METAS, CONV_VARS, M2, [a_d, p_d]),
        "metavariable of two converted arguments": tt.tt_meta(t_tt, CONV_METAS, CONV_VARS, M2, [a_conv, p_conv]),
        "Pi congruence with a moved domain equation": tt.congruence(
            t_tt, CONV_METAS, CONV_VARS, "Pi", pi, pi,
            [id_plain, fam, id_plain, fam, tt.eqty_refl(t_tt, id_conv), fam_eq],
        ),
        "refl congruence with a rectified right side": tt.congruence(
            t_tt, CONV_METAS, CONV_VARS, "refl", refl, refl,
            [nat_d, a_d, nat_d, a_conv, tt.eqty_refl(t_tt, nat_d), tt.eqtm_refl(t_tt, a_d),
             tt.eqty_refl(t_tt, id_plain)],
        ),
    }
    for label, d in derivations.items():
        yield f"tt->cf {label}", lambda d=d: tr.tt_to_cf(t_tt, t_cf, d, *evidence)
    for label, move in boundary_moves(t_cf):
        yield f"boundary_convert {label}", move


def boundary_moves(th):
    """(label, thunk) of ``boundary_convert`` onto an erasure-equal boundary,
    the cases of ``tests/test_cf_engine.py``."""
    ty_nat = CFDeriver(th).ty(NAT)
    ty1, ty2, vp, vq, reflect = moved_inputs(th, None, ty_nat)

    def type_equation():
        eqs = [cf.cf_eqty_refl(th, ty1, ty1), cf.cf_eqtm_refl(th, vp, vp), reflect]
        eq = cf.cf_congruence(th, "Id", [ty1, vp, vp], [ty1, vp, vq], eqs)
        to_a2 = cf.cf_eqty_refl(th, ty1, ty2)
        p2, q2 = (cf.cf_conv_tm(th, v, to_a2) for v in (vp, vq))
        sides = [cf.cf_apply_rule(th, "Id", [ty2, p2, x]) for x in (p2, q2)]
        return cf.boundary_convert(th, cf.cf_bdry_eqty(th, *sides), eq)

    def term_equation():
        to_a2 = cf.cf_eqty_refl(th, ty1, ty2)
        s2 = cf.cf_conv_tm(th, cf.cf_conv_tm(th, vp, cf.cf_eqty_refl(th, ty1, ty1)), to_a2)
        t2 = cf.cf_conv_tm(th, vq, to_a2)
        return cf.boundary_convert(th, cf.cf_bdry_eqtm(th, ty2, s2, t2), reflect)

    def two_binders(dependent):
        def family(ty_a):
            x = FreeVar("x", ty_a.payload.body.ty)
            ty_y = cf.cf_apply_rule(th, "Id", [ty_a, *[cf.cf_var(th, x, ty_a)] * 2]) if dependent else ty_a
            y = FreeVar("y", ty_y.payload.body.ty)
            body = cf.cf_abstract_fwd(th, ty_y, cf.cf_var(th, y, ty_y), y)
            bdry = cf.cf_abstract_fwd(th, ty_y, cf.cf_bdry_tm(th, ty_y), y)
            return [cf.cf_abstract_fwd(th, ty_a, c, x) for c in (body, bdry)]

        return cf.boundary_convert(th, family(ty2)[1], family(ty1)[0])

    yield "term", lambda: cf.boundary_convert(th, cf.cf_bdry_tm(th, ty2), vp)
    yield "type equation", type_equation
    yield "term equation", term_equation
    yield "two dependent binders", lambda: two_binders(True)
    yield "two binders", lambda: two_binders(False)


def main() -> None:
    for name, count in ITEMS.items():
        print(f"{name} {count} items seed {SEED} {hashed(workload_items(name, count))}")
    items = list(conversion_items())
    print(f"boundary_conversion {len(items)} items {hashed(items)}")


if __name__ == "__main__":
    main()
