"""What the kernel outputs on fixed benchmark items, one SHA-256 per workload.

    python3 tests/pinned_outputs.py > tests/pinned_outputs.txt

Each workload of ``bench/workloads.py`` prepares and runs its first items at
seed 7, as the benchmark does, and every output is printed in full with the
printer, never cut:

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

from fintt.cf_engine import Certificate  # noqa: E402
from fintt.errors import KernelError  # noqa: E402
from fintt.printer import print_abstracted, print_statement  # noqa: E402
from fintt.tt_engine import Derivation  # noqa: E402
from tests.gen import CertGen  # noqa: E402
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


def digest(name: str, count: int) -> str:
    w = WORKLOADS[name]()
    w.setup()
    h = hashlib.sha256()
    for index, (_, stratum, item_seed) in zip(range(count), w.items(SEED)):
        args = w.prepare(stratum, item_seed)
        try:
            lines = printed(w.run(args))
        except KernelError as exc:
            lines = [f"refused {type(exc).__name__}: {exc}"]
        for line in (f"item {index} {stratum!r}", *lines):
            h.update(line.encode())
            h.update(b"\n")
    return h.hexdigest()


def main() -> None:
    for name, count in ITEMS.items():
        print(f"{name} {count} items seed {SEED} {digest(name, count)}")


if __name__ == "__main__":
    main()
