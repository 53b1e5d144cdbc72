"""One benchmark process: set-up, then either the timed closed loop or the
traced pass. Prints one JSON object on its last line for bench/run.py.

    worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

Run it through bench/run.py, which pins PYTHONHASHSEED and PYTHONPATH.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import pathlib
import random
import resource
import statistics
import sys
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

START = perf_counter()  # a fresh interpreter: fintt is not imported yet

# Whole strata cycles traced per 10 s of --seconds: a few seconds of items,
# and a span file of a few MB.
TRACE_CYCLES = {"cf_certify": 10, "deep_chain": 1, "translate_mix": 8, "theory_check": 1}
WARMUP_S = 0.5

# The calibration task's median time on the machine the benchmark was
# defined on (2-vCPU Intel Xeon at 2.1 GHz, Python 3.11): times are reported
# at that speed.
CALIBRATION_NOMINAL_S = 0.0016
CALIBRATION_EVERY_S = 0.05
CALIBRATION_NEAREST = 5


@dataclass(frozen=True)
class _Node:
    head: str
    kids: tuple


def calibration() -> None:
    """A fixed pure-Python task shaped like the kernel's work (building,
    hashing and memoised walks of frozen trees) that uses no fintt code, so
    a change to fintt cannot change its time."""
    rng = random.Random(0)

    def tree(depth):
        if depth == 0:
            return _Node(rng.choice("abcd"), ())
        return _Node(rng.choice("fgh"), (tree(depth - 1), tree(depth - 1)))

    seen = {}

    def walk(t):
        if t not in seen:
            seen[t] = 1 + sum(walk(k) for k in t.kids)
        return seen[t]

    walk(tree(7))


class SpeedClock:
    """The machine's speed over time, from the calibration task run between
    items. A shared host speeds up and slows down by tens of percent over
    seconds; scaling each time by the calibration's nominal over its nearby
    measured time cancels that out."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        calibration()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def tick(self) -> None:
        if not self.starts or perf_counter() - self.starts[-1] >= CALIBRATION_EVERY_S:
            self.sample()

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` measured at ``start``, in nominal-speed seconds."""
        i = bisect.bisect_left(self.starts, start)
        lo = max(0, min(i - CALIBRATION_NEAREST // 2, len(self.starts) - CALIBRATION_NEAREST))
        near = self.durations[lo:lo + CALIBRATION_NEAREST]
        return seconds * CALIBRATION_NOMINAL_S / statistics.median(near)


class FullCollections:
    """Time spent in full (generation 2) garbage collections. A full
    collection pauses whichever item happens to allocate past the threshold,
    about one item in a hundred; its time counts in throughput but not in
    that item's latency."""

    def __init__(self):
        self.seconds = 0.0
        self.count = 0
        self._start = 0.0
        gc.callbacks.append(self._observe)

    def _observe(self, phase, info):
        if info["generation"] != 2:
            return
        if phase == "start":
            self._start = perf_counter()
        else:
            self.seconds += perf_counter() - self._start
            self.count += 1

    def close(self):
        gc.callbacks.remove(self._observe)


class Item:
    """The outcome of one item: ``status`` is ok, known (a documented
    failure), error (raised where success is the answer) or wrong (an
    output check failed)."""

    __slots__ = ("status", "start", "seconds", "detail", "out")

    def __init__(self, status, start, seconds, detail=None, out=None):
        self.status, self.start, self.seconds = status, start, seconds
        self.detail, self.out = detail, out


def run_item(w, args, tracer=None, index=0) -> Item:
    from workloads import CheckFailed

    t0 = perf_counter()
    try:
        if tracer is None:
            out = w.run(args)
        else:
            with tracer.item_span(index):
                out = w.run(args)
    except Exception as exc:  # an item that raises is counted, not fatal
        dt = perf_counter() - t0
        if w.known_failure(args, exc):
            return Item("known", t0, dt, f"{type(exc).__name__}: {exc}")
        return Item("error", t0, dt, traceback.format_exc(limit=-3))
    dt = perf_counter() - t0
    try:
        w.check(args, out)
    except CheckFailed as exc:
        return Item("wrong", t0, dt, str(exc), out)
    return Item("ok", t0, dt, out=out)


def tail_percentile(sorted_values: list) -> tuple[float, float]:
    """p99, or the highest percentile with at least 10 samples beyond it:
    returns (value, percentile used)."""
    n = len(sorted_values)
    k = min(math.ceil(0.99 * n), n - 10) if n > 10 else n
    return sorted_values[k - 1], 100.0 * k / n


def measure(w, seed: int, seconds: float) -> dict:
    clock = SpeedClock()
    warm = w.items(seed + 1_000_003)
    until = perf_counter() + WARMUP_S
    while perf_counter() < until:
        _, stratum, item_seed = next(warm)
        clock.tick()
        run_item(w, w.prepare(stratum, item_seed))

    # One entry per item, in flat arrays, so that the bookkeeping hardly
    # moves the process's peak memory.
    cycles, starts, times, gc_times = array("q"), array("d"), array("d"), array("d")
    statuses: list[str] = []
    problems: list[str] = []
    collections = FullCollections()
    deadline = perf_counter() + seconds
    for cycle, stratum, item_seed in w.items(seed):
        if perf_counter() >= deadline:
            break
        args = w.prepare(stratum, item_seed)
        clock.tick()
        before = collections.seconds
        item = run_item(w, args)
        cycles.append(cycle)
        starts.append(item.start)
        times.append(item.seconds)
        gc_times.append(collections.seconds - before)
        statuses.append(item.status)
        if item.status in ("error", "wrong") and len(problems) < 3:
            problems.append(item.detail)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    clock.sample()
    collections.close()

    # Only whole cycles count, so that every run weighs the strata alike.
    sizes = Counter(cycles)
    whole = [i for i, c in enumerate(cycles) if sizes[c] == w.cycle_length] or range(len(cycles))
    per_cycle = {}
    latencies = []
    for i in whole:
        ok = statuses[i] == "ok"
        if ok:  # a failed item has no latency, it failed
            latencies.append(clock.scale(starts[i], times[i] - gc_times[i]))
        c = per_cycle.setdefault(cycles[i], [0, 0.0])  # verified, seconds
        c[0] += ok
        c[1] += clock.scale(starts[i], times[i])
    if not latencies:
        sys.exit("no item was verified:\n" + "\n".join(problems))
    latencies.sort()
    p99, level = tail_percentile(latencies)
    return {
        **outcome([statuses[i] for i in whole], problems),
        "throughput_items_per_s": statistics.median(v / s for v, s in per_cycle.values()),
        "cycles": len(per_cycle),
        "cycle_length": w.cycle_length,
        "verified": len(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p99_ms": 1e3 * p99,
        "p99_level": level,
        "peak_rss_mb": peak_rss_mb,
        "speed": CALIBRATION_NOMINAL_S / statistics.median(clock.durations),
        "full_collections": collections.count,
        "full_collection_s": collections.seconds,
    }


def outcome(statuses: list, problems: list) -> dict:
    return {
        "attempted": len(statuses),
        "failed": len(statuses) - statuses.count("ok"),
        "known_failures": statuses.count("known"),
        "unexpected_failures": statuses.count("error") + statuses.count("wrong"),
        "problems": problems,
    }


def one_pass(w, inputs, tracer=None) -> tuple[float, list]:
    """Set-up plus the given items; returns kernel seconds and outcomes."""
    t0 = perf_counter()
    if tracer is None:
        w.setup()
    else:
        with tracer.item_span(0):
            w.setup()
    total = perf_counter() - t0
    items = []
    for index, (_, stratum, item_seed) in enumerate(inputs, start=1):
        args = w.prepare(stratum, item_seed)
        item = run_item(w, args, tracer, index)
        total += item.seconds
        items.append((args, item))
    return total, items


def trace(w, seed: int, seconds: float, span_path: pathlib.Path) -> dict:
    from tracer import COUNTED, FAILED, LAYERS, Tracer

    n_cycles = max(1, round(TRACE_CYCLES[w.name] * seconds / 10))
    stream = w.items(seed)
    inputs = [next(stream) for _ in range(n_cycles * w.cycle_length)]
    plain_s, _ = one_pass(w, inputs)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, items = one_pass(w, inputs, tracer)
    finally:
        tracer.uninstall()
    span_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(span_path)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (tracer.calls[layer], "count")
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer], "s")
    counts = tracer.counts
    for name in [*COUNTED, *FAILED.values()]:
        metrics[name] = (counts[name], "count")
    attempts = counts["derive.attempts"]
    success = (attempts - counts["derive.failed_attempts"]) / attempts if attempts else 1.0
    metrics["derive.success_ratio"] = (success, "ratio")
    metrics["input.term_nodes"] = (sum(w.size(args, item.out) for args, item in items), "count")
    metrics["trace.overhead"] = (traced_s / plain_s - 1.0, "ratio")
    return {
        **outcome(
            [item.status for _, item in items],
            [item.detail for _, item in items if item.status in ("error", "wrong")][:3],
        ),
        "metrics": metrics,
        "spans": len(tracer.spans),
        "span_file": str(span_path),
        "traced_s": traced_s,
        "untraced_s": plain_s,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=pathlib.Path)
    args = ap.parse_args(argv)

    import workloads

    w = workloads.WORKLOADS[args.workload]()
    w.setup()
    setup_s = perf_counter() - START
    clock = SpeedClock()
    for _ in range(CALIBRATION_NEAREST):
        clock.sample()
    setup_s = clock.scale(clock.starts[0], setup_s)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        result = trace(w, args.seed, args.seconds, args.spans)
    else:
        result = measure(w, args.seed, args.seconds)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
