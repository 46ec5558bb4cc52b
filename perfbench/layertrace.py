"""Spans around the calls into each layer of `stabcover`, taken from outside.

`Tracer.install` wraps the public functions named in `LAYERS` and
replaces every reference to them in the loaded `stabcover` modules (the
defining module and every `from .x import f` site), so calls between
modules and within a module both pass through the wrapper. Spans are kept
in memory as (name, start, end, parent, flag) and summarised when the
traced pass ends. A span's self time is its duration minus the durations
of its direct children; calls are strictly nested in one thread, so the
self times of all spans add up to the root span's duration.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
import time

# layer metric prefix -> (module, attribute) pairs it wraps. A dotted
# attribute names a method or property of a class in that module.
LAYERS = {
    "groups.aut_g": [("groups", "automorphism_group_of_G")],
    "groups.holomorph": [("groups", "holomorph")],
    "graphs.build": [("graphs", "cayley_graph"), ("graphs", "double_cover")],
    "graphs.predicates": [("graphs", "is_connected"), ("graphs", "is_bipartite"),
                          ("graphs", "is_twin_free")],
    "graphs.bicoset": [("graphs", "verify_bicoset_isomorphism")],
    "autgrp.search": [("autgrp", "automorphism_group")],
    "perms.chain": [("perms", "PermutationGroup.order"), ("perms", "PermutationGroup.contains")],
    "perms.elements": [("perms", "PermutationGroup.elements")],
    "stability.classify": [("stability", "classify")],
    "stability.s3prime": [("stability", "s3prime_membership")],
    "stability.s4s5": [("stability", "s4_s5_membership")],
    "stability.factored": [("stability", "factored_orders")],
    "census": [("census", "exhaustive_census"), ("census", "monte_carlo_census")],
    "census.check_record": [("census", "check_record")],
    "cli": [("cli", "main")],
}


def _elements_capped(result, exc) -> bool:
    return exc is not None and type(exc).__name__ == "CapExceededError"


def _tri_indeterminate(values) -> bool:
    return any(getattr(v, "value", v) == "indeterminate" for v in values)


def _s4s5_indeterminate(result, exc) -> bool:
    return exc is None and _tri_indeterminate(result)


def _record_indeterminate(result, exc) -> bool:
    return exc is None and _tri_indeterminate((result.in_s3, result.in_s4, result.in_s5))


# layer -> predicate on (result, exception) whose share of calls is reported
FLAGS = {
    "perms.elements": ("capped_frac", _elements_capped),
    "stability.s4s5": ("indeterminate_frac", _s4s5_indeterminate),
    "stability.classify": ("indeterminate_frac", _record_indeterminate),
}


class Tracer:
    """Records nested spans for the wrapped layer functions."""

    def __init__(self):
        self.layers: list[str] = []  # span name id -> layer name
        self.spans: list = []  # (layer id, start ns, end ns, parent index, flag)
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, layer: str, fn, flag=None):
        lid = len(self.layers)
        self.layers.append(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (lid, start, end, parent, flag(result, exc) if flag else False)

        return traced

    def install(self) -> None:
        """Wrap every layer function at every site that refers to it."""
        mods = {k.split(".", 1)[1]: m for k, m in sys.modules.items()
                if k.startswith("stabcover.") and m is not None}
        for layer, targets in LAYERS.items():
            flag = FLAGS.get(layer, (None, None))[1]
            for modname, attr in targets:
                mod = mods.get(modname)
                owner_name, _, member = attr.rpartition(".")
                if owner_name:
                    owner = getattr(mod, owner_name, None)
                    raw = vars(owner).get(member) if owner is not None else None
                else:
                    raw = getattr(mod, member, None)
                if raw is None:
                    self.missing.append(f"{modname}.{attr}")
                elif isinstance(raw, property):
                    setattr(owner, member, property(self._wrap(layer, raw.fget, flag)))
                elif owner_name:
                    setattr(owner, member, self._wrap(layer, raw, flag))
                else:
                    wrapped = self._wrap(layer, raw, flag)
                    for m in mods.values():
                        for name, value in list(vars(m).items()):
                            if value is raw:
                                setattr(m, name, wrapped)
        verify = mods.get("verify")
        if verify is not None and hasattr(verify, "ALL_CHECKS"):
            verify.ALL_CHECKS = tuple(
                (name, self._wrap(f"verify.{name}", fn), *rest)
                for name, fn, *rest in verify.ALL_CHECKS
            )

    def summary(self) -> dict:
        """Per-layer calls and self seconds, flag shares, classify latency.

        `verify.<check>.s` is a check's whole duration, children included.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        metrics: dict = {}
        classify_ms = []
        for i, (lid, start, end, _, flagged) in enumerate(self.spans):
            layer = self.layers[lid]
            for key, value in ((".calls", 1), (".self_s", (end - start - child_ns[i]) / 1e9),
                               (".flagged", flagged)):
                metrics[layer + key] = metrics.get(layer + key, 0) + value
            if layer.startswith("verify."):
                metrics[layer + ".s"] = (end - start) / 1e9
            if layer == "stability.classify":
                classify_ms.append((end - start) / 1e6)
        for layer, (suffix, _) in FLAGS.items():
            calls = metrics.get(f"{layer}.calls", 0)
            metrics[f"{layer}.{suffix}"] = metrics.pop(f"{layer}.flagged", 0) / calls if calls else 0.0
        if len(classify_ms) >= 2:
            cuts = statistics.quantiles(classify_ms, n=100, method="inclusive")
            metrics["stability.classify_ms.p50"] = cuts[49]
            metrics["stability.classify_ms.p99"] = cuts[98]
        metrics["trace.spans"] = len(self.spans)
        return {k: v for k, v in metrics.items() if not k.endswith(".flagged")}

    def write_spans(self, path: str) -> None:
        """All spans as gzipped JSON lines: name, start and end in ns, parent index."""
        with gzip.open(path, "wt") as f:
            for lid, start, end, parent, flagged in self.spans:
                f.write(json.dumps([self.layers[lid], start, end, parent, flagged]) + "\n")
