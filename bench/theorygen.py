"""Seeded `.ftt` theory texts with verdicts known by construction.

A valid theory grows a signature rule by rule, and every rule only mentions
symbols of earlier rules at the types they were declared with, so it passes
the finitary and standard gates in both flavours. A defective theory has one
known defect at a seeded place in its second half; the error class each
flavour must raise follows from the defect alone, never from running the
kernel.
"""

from __future__ import annotations

import random

VARIANTS = ("valid", "drop_meta", "congr_typo", "not_symbol")

# Expected error class name per flavour, for each defect.
EXPECTED = {
    "valid": {"cf": None, "tt": None},
    # The conclusion D(A, s, s) drops t: a cf raw rule must mention every
    # premise metavariable; in tt it is finitary but no symbol rule.
    "drop_meta": {"cf": "MetaNotIntroduced", "tt": "NotObjectRule"},
    # premise e : m == n : S with n : S2 and no S2 == S: not derivable.
    "congr_typo": {
        "cf": "ConclusionNotDerivableOverPrefix",
        "tt": "ConclusionNotDerivableOverPrefix",
    },
    # An object rule for E whose conclusion swaps its arguments.
    "not_symbol": {"cf": "NotObjectRule", "tt": "NotObjectRule"},
}


def _app(head: str, *args: str) -> str:
    return f"{head}({', '.join(args)})"


class TheoryGen:
    """One theory text of ``n_rules`` rules; ``nodes`` counts the symbol and
    metavariable occurrences written, the size of the input."""

    def __init__(self, rng: random.Random, n_rules: int, variant: str):
        self.rng = rng
        self.lines: list[str] = []
        self.nodes = 0
        self.base: list[str] = []  # nullary types
        self.ops: list[tuple[str, str, str]] = []  # (name, argument type, result type)
        self.formers: list[str] = []  # F(A) type
        self.pis: list[str] = []  # P(A, {x} B(x)) type
        self.ids: list[str] = []  # I(A, s, t) type
        self.rules = 0
        self._rule("T0", [], "yields type", 1)
        self.base.append("T0")
        self._rule("T1", [], "yields type", 1)
        self.base.append("T1")
        defect_at = rng.randrange(n_rules // 2, n_rules - 1) if variant != "valid" else -1
        while self.rules < n_rules:
            if self.rules == defect_at:
                getattr(self, "_" + variant)()
            else:
                self._grow()
        self.text = "\n".join(self.lines) + "\n"

    def _rule(self, name: str, premises: list[str], conclusion: str, nodes: int) -> None:
        body = "; ".join([f"premise {p}" for p in premises] + [conclusion])
        self.lines.append(f"rule {name}: {body}")
        self.nodes += nodes
        self.rules += 1

    def _grow(self) -> None:
        rng, k = self.rng, self.rules
        kinds = ["type", "op", "op", "former", "pi", "id", "const"]
        if self.ops:
            kinds += ["eq", "eq"]
        if self.formers:
            kinds.append("intro")
        if self.pis:
            kinds.append("lam")
        if self.ids:
            kinds += ["refl", "reflect"]
        match rng.choice(kinds):
            case "type":
                self._rule(f"T{k}", [], "yields type", 1)
                self.base.append(f"T{k}")
            case "const":
                self._rule(f"c{k}", [], f"yields : {rng.choice(self.base)}", 2)
            case "op":
                s, t = rng.choice(self.base), rng.choice(self.base)
                self._rule(f"f{k}", [f"n : {s}"], f"yields : {t}", 3)
                self.ops.append((f"f{k}", s, t))
            case "former":
                self._rule(f"F{k}", ["A : type"], "yields type", 2)
                self.formers.append(f"F{k}")
            case "pi":
                self._rule(f"P{k}", ["A : type", "B : {x : A} type"], "yields type", 4)
                self.pis.append(f"P{k}")
            case "id":
                self._rule(f"I{k}", ["A : type", "s : A", "t : A"], "yields type", 6)
                self.ids.append(f"I{k}")
            case "intro":
                f, a = rng.choice(self.formers), rng.choice(self.base)
                self._rule(f"i{k}", [f"a : {a}"], f"yields : {_app(f, a)}", 4)
            case "lam":
                p = rng.choice(self.pis)
                self._rule(
                    f"l{k}",
                    ["A : type", "B : {x : A} type", "b : {x : A} B(x)"],
                    f"yields : {p}(A, {{x}} B(x))",
                    10,
                )
            case "refl":
                i = rng.choice(self.ids)
                self._rule(f"r{k}", ["A : type", "a : A"], f"yields : {i}(A, a, a)", 7)
            case "reflect":
                i = rng.choice(self.ids)
                self._rule(
                    f"q{k}",
                    ["A : type", "s : A", "t : A", f"p : {i}(A, s, t)"],
                    "yields s == t : A",
                    12,
                )
            case "eq":
                f, s, t = rng.choice(self.ops)
                same = [g for g, s2, t2 in self.ops if (s2, t2) == (s, t)]
                rhs = _app(rng.choice(same), "n") if s != t or rng.random() < 0.5 else "n"
                self._rule(f"e{k}", [f"n : {s}"], f"yields {_app(f, 'n')} == {rhs} : {t}", 6)

    def _drop_meta(self) -> None:
        k = self.rules
        self.lines.append(f"symbol D{k} : type (type, term, term)")
        self._rule(
            f"bad{k}", ["A : type", "s : A", "t : A"], f"yields D{k}(A, s, s) type", 7
        )

    def _congr_typo(self) -> None:
        k = self.rules
        s, s2 = self.rng.sample(self.base, 2)
        t = self.rng.choice(self.base)
        self._rule(f"f{k}", [f"n : {s}"], f"yields : {t}", 3)
        self._rule(
            f"bad{k + 1}",
            [f"m : {s}", f"n : {s2}", f"e : m == n : {s}"],
            f"yields f{k}(m) == f{k}(n) : {t}",
            12,
        )

    def _not_symbol(self) -> None:
        k = self.rules
        self.lines.append(f"symbol E{k} : type (type, type)")
        self._rule(f"bad{k}", ["A : type", "B : type"], f"yields E{k}(B, A) type", 5)
