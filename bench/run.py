"""The fintt benchmark: one command per workload run.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Every process it starts runs with
PYTHONHASHSEED pinned, so a seed gives the same inputs and, traced, the
same per-layer counts. With --trace 0 it measures set-up in fresh
interpreters, then runs the workload as a closed loop (one caller, each
item starts when the last returned) for S seconds and prints the
end-to-end metrics. With --trace 1 it runs a fixed number of whole strata
cycles untraced and then traced, prints per-layer metrics and the tracing
overhead, and writes the spans to bench/out/. The last line of stdout is
one JSON object. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cf_certify", "deep_chain", "translate_mix", "theory_check")
HASH_SEED = "0"
SETUP_PROCESSES = 7
# A worker gets its run time plus this long before it is stopped.
GRACE_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_items_per_s", "items/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def fail(message: str) -> int:
    print(f"bench/run.py: {message}", file=sys.stderr)
    return 2


def worker(args: list[str], timeout: float) -> dict:
    """Runs bench/worker.py in a fresh interpreter; returns its JSON line."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in (ROOT / "src", ROOT, HERE))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    missing = [p for p in ("src/fintt/__init__.py", "tests/gen.py", "tests/corpus/mltt.ftt")
               if not (ROOT / p).is_file()]
    if missing:
        return fail(f"run from a fintt checkout; missing {', '.join(missing)}")

    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    timeout = args.seconds + GRACE_S
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  PYTHONHASHSEED {HASH_SEED}  closed loop, one caller")
    try:
        if args.trace:
            spans = HERE / "out" / f"spans-{args.workload}.jsonl.gz"
            r = worker([*common, "--trace", "1", "--spans", str(spans)], timeout)
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in r["metrics"].items()}
            for name, m in metrics.items():
                print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
            print(f"  {r['attempted']} items, {r['spans']} spans in {r['span_file']}; "
                  f"traced {r['traced_s']:.3f} s vs untraced {r['untraced_s']:.3f} s")
        else:
            setups = [worker([*common, "--setup-only"], timeout)["setup_s"]
                      for _ in range(SETUP_PROCESSES - 1)]
            r = worker(common, timeout)
            setups.append(r["setup_s"])
            r["setup_s"] = statistics.median(setups)
            metrics = {name: {"value": r[name], "unit": unit} for name, unit in END_TO_END}
            notes = {
                "setup_s": f"median, n={len(setups)} fresh interpreters",
                "throughput_items_per_s": f"median, n={r['cycles']} cycles "
                                          f"of {r['cycle_length']} items",
                "latency_p50_ms": f"n={r['verified']} verified items",
                "latency_p99_ms": f"p{r['p99_level']:.2f}, n={r['verified']} verified items",
                "peak_rss_mb": "ru_maxrss, n=1 worker process",
            }
            print(f"  machine speed {r['speed']:.3f} of nominal; times are scaled to nominal")
            print(f"  {r['full_collections']} full garbage collections, "
                  f"{r['full_collection_s']:.3f} s: in throughput, not in latency")
            for name, unit in END_TO_END:
                print(f"  {name:24s} {r[name]:>12.4f} {unit:8s} {notes[name]}")
            share = r["failed"] / r["attempted"]
            print(f"  {'failed_share':24s} {share:>12.4f} {'ratio':8s} "
                  f"{r['failed']} of n={r['attempted']} items, "
                  f"{r['known_failures']} of them known failures")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        return fail(str(exc))
    for problem in r["problems"]:
        print(f"unexpected failure: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": r["unexpected_failures"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
