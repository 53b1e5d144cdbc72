"""Per-layer tracing of fintt from outside: wraps the public functions of
each layer module, and the methods named in ``COUNTED``, without touching
the package's source.

A span opens when a call crosses into a layer from another layer (or from
the benchmark); calls within the layer run unwrapped in that span. A
layer's self time is its spans' durations minus the time covered by their
child spans. Dunder methods are not wrapped, so constructing, hashing and
comparing syntax nodes counts towards the layer that does it.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
from collections import Counter
from contextlib import contextmanager
from fnmatch import fnmatchcase
from time import perf_counter

from fintt.errors import KernelError

# The layers are fintt's modules; elaborate lives in parser.
LAYERS = (
    "syntax",
    "instantiation",
    "judgements",
    "theory",
    "cf_engine",
    "tt_engine",
    "derive",
    "translate",
    "parser",
)

# Work counters: counter name -> (layer, patterns of the qualified names it
# counts, matched with fnmatch).
COUNTED = {
    "cf_engine.constructor_calls": ("cf_engine", ("cf_*",)),
    "tt_engine.nodes_built": ("tt_engine", ("node",)),
    "tt_engine.nodes_checked": ("tt_engine", ("check_derivation",)),
    "derive.attempts": ("derive", ("*Deriver._apply",)),
    "theory.rule_instance_premises.calls": ("theory", ("rule_instance_premises",)),
    "translate.steps": ("translate", ("CfToTT.*", "TTtoCF.*")),
}
# For some counters, a second counter of the calls that raised a KernelError.
FAILED = {
    "cf_engine.constructor_calls": "cf_engine.refused",
    "derive.attempts": "derive.failed_attempts",
}


class Tracer:
    """Spans and counts for one traced pass. ``on`` gates recording, so that
    preparing inputs and checking outputs stay out of the trace."""

    def __init__(self):
        self.on = False
        self.item = 0
        self.spans: list[tuple] = []  # (id, parent, name, start, end, item)
        self.stack: list[list] = []  # [layer, span id, start, child time]
        self.opened = 0
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._patches: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def open(self, layer: str) -> list:
        self.opened += 1
        frame = [layer, self.opened, perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def close(self, frame: list, name: str) -> None:
        end = perf_counter()
        self.stack.pop()
        duration = end - frame[2]
        self.self_s[frame[0]] += duration - frame[3]
        self.calls[frame[0]] += 1
        parent = 0
        if self.stack:
            self.stack[-1][3] += duration
            parent = self.stack[-1][1]
        self.spans.append((frame[1], parent, name, frame[2], end, self.item))

    @contextmanager
    def item_span(self, item: int):
        """One item's root span, with tracing on."""
        self.item = item
        self.on = True
        frame = self.open("item")
        try:
            yield
        finally:
            self.close(frame, "item")
            self.on = False

    # -- wrapping --------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        counter = _counter_for(layer, name.split(".", 1)[1])
        failed = FAILED.get(counter)

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if counter:
                tracer.counts[counter] += 1
            crossing = not tracer.stack or tracer.stack[-1][0] != layer
            frame = tracer.open(layer) if crossing else None
            try:
                return fn(*args, **kwargs)
            except KernelError:
                if failed:
                    tracer.counts[failed] += 1
                raise
            finally:
                if frame is not None:
                    tracer.close(frame, name)

        return wrapper

    def install(self) -> None:
        """Wraps every layer's functions and rebinds each reference to them
        held by any fintt module."""
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module("fintt." + layer)
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    w = self._wrap(layer, f"{layer}.{attr}", obj)
                    replaced[id(obj)] = (obj, w)
                    self._patch(module, attr, w)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_methods(layer, obj)
        for name, module in list(sys.modules.items()):
            if not name.startswith("fintt") or module is None:
                continue
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None:
                    self._patch(module, attr, hit[1])

    def _wrap_methods(self, layer, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj) or attr.startswith("__"):
                continue
            qual = f"{cls.__name__}.{attr}"
            if attr.startswith("_") and _counter_for(layer, qual) is None:
                continue
            self._patch(cls, attr, self._wrap(layer, f"{layer}.{qual}", obj))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON object a line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, name, start, end, item in sorted(self.spans):
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "name": name,
                         "start": start, "end": end, "item": item}
                    )
                    + "\n"
                )


def _counter_for(layer: str, qual: str):
    for counter, (c_layer, patterns) in COUNTED.items():
        if c_layer == layer and any(fnmatchcase(qual, p) for p in patterns):
            return counter
    return None
