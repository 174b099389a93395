"""Spans around packetlab's public functions, recorded from outside.

``Tracer.install`` replaces every public function of each layer module by
a wrapper, in the defining module and in every packetlab namespace that
imported it by name, so calls that resolve through module globals are
seen too. ``RandomStream.uniform`` and ``RandomStream.binomial`` are
wrapped on the class. Each wrapper appends a span (layer, name, start,
end, parent) to a list kept in memory, which ``summary`` reduces to the
per-layer metrics. ``uninstall`` puts every original back.

A layer's self time is its spans' durations minus the parts their child
spans cover. ``quantstat.occupancy`` runs thousands of times per pass, so
it is only counted, and its time stays in its caller's self time.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("numkit", "spincorr", "configspace", "actionprob", "wavepacket",
          "quantstat", "cli")
COUNT_ONLY = frozenset({"quantstat.occupancy"})
RNG_METHODS = ("uniform", "binomial")

# counter name and the work count it takes from a call's result
RESULT_COUNTS = {
    "spincorr.sample_pair_counts": ("spincorr.pairs", sum),
    "quantstat.count_distribution": ("quantstat.support_points",
                                     lambda dist: int(dist.w.size)),
}

# per-layer metrics and their units, in the order reported
METRICS = [(f"{layer}.{kind}", unit)
           for layer in LAYERS for kind, unit in (("self_s", "s"), ("calls", "count"))]
METRICS += [
    ("cli.out_bytes", "bytes"),
    ("cli.import_s", "s"),
    ("cli.import_scipy_stats_s", "s"),
    ("cli.shard_mismatches", "count"),
    ("numkit.rng_s", "s"),
    ("numkit.rng_variates", "count"),
    ("numkit.fourier_s", "s"),
    ("spincorr.sample_s", "s"),
    ("spincorr.pairs", "count"),
    ("wavepacket.coherence_s", "s"),
    ("quantstat.entropy_s", "s"),
    ("quantstat.occupancy_calls", "count"),
    ("quantstat.support_points", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
]


class Tracer:
    """Wraps the layers' public functions and keeps their spans in memory."""

    def __init__(self):
        self.spans = []  # [layer, name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._undo = []  # (owner, attribute, original)

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def install(self):
        import packetlab.cli  # noqa: F401  (loads every layer module)

        namespaces = [m for name, m in sys.modules.items()
                      if name == "packetlab" or name.startswith("packetlab.")]
        for layer in LAYERS:
            module = sys.modules[f"packetlab.{layer}"]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(layer, f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, key, wrapper)
        stream = sys.modules["packetlab.numkit"].RandomStream
        for method in RNG_METHODS:
            self._patch(stream, method,
                        self._wrap_rng(f"numkit.RandomStream.{method}",
                                       vars(stream)[method]))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _enter(self, layer, name):
        span = [layer, name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        return span

    def _exit(self, span):
        span[3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer, name, fn):
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        counter, measure = RESULT_COUNTS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if counter is not None:
                self.counts[counter] += measure(result)
            return result
        return traced

    def _wrap_rng(self, name, method):
        @functools.wraps(method)
        def traced(stream, *args, **kwargs):
            before = stream.position
            span = self._enter("numkit", name)
            try:
                return method(stream, *args, **kwargs)
            finally:
                self._exit(span)
                self.counts["numkit.rng_variates"] += stream.position - before
        return traced

    def summary(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        n = len(self.spans)
        child = [0.0] * n
        for layer, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        self_by_name = defaultdict(float)
        inclusive = defaultdict(float)
        calls = Counter()
        for i, (layer, name, start, end, parent) in enumerate(self.spans):
            own = end - start - child[i]
            self_s[layer] += own
            self_by_name[name] += own
            inclusive[name] += end - start
            calls[layer] += 1
        for name in COUNT_ONLY:
            calls[name.split(".")[0]] += self.counts[name]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.calls"] = calls[layer]
        out["numkit.rng_s"] = sum(inclusive[f"numkit.RandomStream.{m}"]
                                  for m in RNG_METHODS)
        out["numkit.rng_variates"] = self.counts["numkit.rng_variates"]
        out["numkit.fourier_s"] = inclusive["numkit.fourier_widths"]
        out["spincorr.sample_s"] = self_by_name["spincorr.sample_pair_counts"]
        out["spincorr.pairs"] = self.counts["spincorr.pairs"]
        out["wavepacket.coherence_s"] = inclusive["wavepacket.coherence_profile"]
        out["quantstat.entropy_s"] = inclusive["quantstat.entropy_and_derivatives"]
        out["quantstat.occupancy_calls"] = self.counts["quantstat.occupancy"]
        out["quantstat.support_points"] = self.counts["quantstat.support_points"]
        out["spans_self_s"] = sum(self_s.values())
        return out


def median_summary(summaries: list) -> dict:
    """Key-wise median of several pass summaries; counts stay whole."""
    return {key: (statistics.median_low if isinstance(value, int)
                  else statistics.median)(s[key] for s in summaries)
            for key, value in summaries[0].items()}
