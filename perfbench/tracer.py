"""Outside-in tracing of the sega layers, from the benchmark's own code.

The tracer replaces public functions with timing wrappers at the names the
calling modules look them up under (``sega.harness.generate_latent``,
``sega.cli.attend_rotary``, ...), so no file under ``src/`` changes. Spans
(name, start, end, parent) are kept in memory and written out at the end of
the run. A target that no longer exists is recorded as missing, not raised.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import logging
import os
import time
from collections import Counter

# A layer's metrics are reported per traced unit. "calls" and the other
# counts are exact; "self_s" is wall time inside the span minus its children.


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _attend_counts(tracer, args, kwargs, result):
    q, k = _arg(args, kwargs, 0, "q"), _arg(args, kwargs, 1, "k")
    nq, d = q.shape
    nk = k.shape[0]
    tracer.counts["attention.attend.flops_computed"] += 2 * nq * nk * d
    tracer.counts["attention.attend.bytes_computed"] += nq * nk * 8
    tracer.counts["attention.rows_in"] += nq


def _entropy_counts(tracer, args, kwargs, result):
    tracer.counts["attention.rows_used"] += len(result[0])


def _rotary_counts(tracer, args, kwargs, result):
    tracer.counts["rope.axial_rotary.bytes_computed"] += result.nbytes


def _analyze_distinct(tracer, args, kwargs, result):
    grid = _arg(args, kwargs, 0, "grid")
    tracer.distinct["spectral.analyze"].add(hashlib.blake2b(grid.values.tobytes(), digest_size=16).digest())


def _generate_distinct(tracer, args, kwargs, result):
    cfg, step = _arg(args, kwargs, 0, "cfg"), _arg(args, kwargs, 1, "step")
    tracer.distinct["tensorio.generate_latent"].add((repr(cfg), step))


def _read_bytes(tracer, args, kwargs, result):
    tracer.counts["tensorio.read_latent.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _written_bytes(tracer, args, kwargs, result):
    tracer.counts["fmtio.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _echoed_bytes(tracer, args, kwargs, result):
    tracer.counts["fmtio.bytes_written"] += len(result) + 1  # the CLI echoes it plus a newline


# (span name, module, attribute, counter). A name appears once per module
# that imports the function, because each import is its own binding.
TARGETS = (
    ("config.load_experiment_config", "sega.cli", "load_experiment_config", None),
    ("harness.entropy_trace", "sega.cli", "entropy_trace", None),
    ("harness.spectral_heatmap", "sega.cli", "spectral_heatmap", None),
    ("harness.run_trajectory", "sega.harness", "run_trajectory", None),
    ("tensorio.generate_latent", "sega.harness", "generate_latent", _generate_distinct),
    ("tensorio.token_features", "sega.harness", "token_features", None),
    ("tensorio.token_features", "sega.cli", "token_features", None),
    ("tensorio.read_latent", "sega.cli", "read_latent", _read_bytes),
    ("rope.make_schedule", "sega.harness", "make_schedule", None),
    ("rope.make_schedule", "sega.cli", "make_schedule", None),
    ("rope.axial_rotary", "sega.attention", "axial_rotary", _rotary_counts),
    ("spectral.analyze", "sega.spectral", "analyze", _analyze_distinct),
    ("spectral.modulate_detailed", "sega.spectral", "modulate_detailed", None),
    ("attention.attend_rotary", "sega.harness", "attend_rotary", None),
    ("attention.attend_rotary", "sega.cli", "attend_rotary", None),
    ("attention.attend", "sega.attention", "attend", _attend_counts),
    ("attention.attention_entropy", "sega.harness", "attention_entropy", _entropy_counts),
    ("attention.attention_entropy", "sega.cli", "attention_entropy", _entropy_counts),
    ("fmtio.write_csv", "sega.cli", "write_csv", _written_bytes),
    ("fmtio.write_json", "sega.cli", "write_json", _written_bytes),
    ("fmtio.csv_line", "sega.cli", "csv_line", _echoed_bytes),
    ("fmtio.csv_line", "sega.fmtio", "csv_line", None),
    ("fmtio.canonical_json", "sega.cli", "canonical_json", _echoed_bytes),
)

# Per-layer metrics in report order: (name, unit, kind, source).
#   calls / self_s: from spans of that name; count: an exact counter;
#   useful: distinct inputs over calls of that span name.
PER_LAYER = (
    ("attention.attend.calls", "count", "calls", "attention.attend"),
    ("attention.attend.self_s", "s", "self_s", "attention.attend"),
    ("attention.attend.flops_computed", "flop", "count", "attention.attend.flops_computed"),
    ("attention.attend.bytes_computed", "B", "count", "attention.attend.bytes_computed"),
    ("attention.attention_entropy.calls", "count", "calls", "attention.attention_entropy"),
    ("attention.attention_entropy.self_s", "s", "self_s", "attention.attention_entropy"),
    ("attention.rows_used_ratio", "ratio", "rows_used", None),
    ("rope.axial_rotary.calls", "count", "calls", "rope.axial_rotary"),
    ("rope.axial_rotary.self_s", "s", "self_s", "rope.axial_rotary"),
    ("rope.axial_rotary.bytes_computed", "B", "count", "rope.axial_rotary.bytes_computed"),
    ("rope.make_schedule.calls", "count", "calls", "rope.make_schedule"),
    ("rope.make_schedule.self_s", "s", "self_s", "rope.make_schedule"),
    ("spectral.analyze.calls", "count", "calls", "spectral.analyze"),
    ("spectral.analyze.self_s", "s", "self_s", "spectral.analyze"),
    ("spectral.analyze.useful_ratio", "ratio", "useful", "spectral.analyze"),
    ("spectral.modulate_detailed.calls", "count", "calls", "spectral.modulate_detailed"),
    ("spectral.modulate_detailed.self_s", "s", "self_s", "spectral.modulate_detailed"),
    ("spectral.floor_clamps", "count", "count", "spectral.floor_clamps"),
    ("tensorio.generate_latent.calls", "count", "calls", "tensorio.generate_latent"),
    ("tensorio.generate_latent.self_s", "s", "self_s", "tensorio.generate_latent"),
    ("tensorio.generate_latent.useful_ratio", "ratio", "useful", "tensorio.generate_latent"),
    ("tensorio.token_features.calls", "count", "calls", "tensorio.token_features"),
    ("tensorio.token_features.self_s", "s", "self_s", "tensorio.token_features"),
    ("tensorio.read_latent.calls", "count", "calls", "tensorio.read_latent"),
    ("tensorio.read_latent.self_s", "s", "self_s", "tensorio.read_latent"),
    ("tensorio.read_latent.bytes", "B", "count", "tensorio.read_latent.bytes"),
    ("harness.run_trajectory.self_s", "s", "self_s", "harness.run_trajectory"),
    ("harness.spectral_heatmap.self_s", "s", "self_s", "harness.spectral_heatmap"),
    ("fmtio.write_csv.calls", "count", "calls", "fmtio.write_csv"),
    ("fmtio.write_csv.self_s", "s", "self_s", "fmtio.write_csv"),
    ("fmtio.write_json.self_s", "s", "self_s", "fmtio.write_json"),
    ("fmtio.csv_line.calls", "count", "calls", "fmtio.csv_line"),
    ("fmtio.csv_line.self_s", "s", "self_s", "fmtio.csv_line"),
    ("fmtio.bytes_written", "B", "count", "fmtio.bytes_written"),
    ("config.load_experiment_config.self_s", "s", "self_s", "config.load_experiment_config"),
    ("cli.command.self_s", "s", "self_s", "cli.command"),
)


class ClampCounter(logging.Handler):
    """Counts modulator floor clamps logged by ``sega.spectral``.

    Attaching any handler also keeps the per-event warning off stderr, so the
    timed loop does not pay for terminal output.
    """

    def __init__(self):
        super().__init__()
        self.events = 0

    def emit(self, record):
        self.events += 1


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.distinct = {"spectral.analyze": set(), "tensorio.generate_latent": set()}
        self.distinct_total = Counter()
        self.missing = []
        self._stack = []
        self._patches = []

    def traced(self, name, fn, counter=None):
        """Return ``fn`` wrapped in a span; ``counter`` runs after the span closes."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                # Its own span, so that counting is not billed to the caller's self time.
                start = clock()
                counter(self, args, kwargs, result)
                spans.append(["trace.bookkeeping", start, clock(), span[3]])
            return result

        return wrapper

    def install(self):
        for name, module_name, attr, counter in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.traced(name, original, counter))
            self._patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def end_unit(self):
        """Close the per-unit distinct-input sets (useful_ratio is per unit)."""
        for name, seen in self.distinct.items():
            self.distinct_total[name] += len(seen)
            seen.clear()

    def self_times(self):
        calls, self_s = Counter(), Counter()
        for name, start, end, parent in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        return calls, self_s

    def metrics(self, units):
        """Per-unit layer metrics over ``units`` traced units."""
        calls, self_s = self.self_times()
        out = {}
        for name, unit, kind, source in PER_LAYER:
            if kind == "calls":
                value = calls[source] / units
            elif kind == "self_s":
                value = self_s[source] / units
            elif kind == "count":
                value = self.counts[source] / units
            elif kind == "useful":
                value = self.distinct_total[source] / calls[source] if calls[source] else 0.0
            else:  # rows_used
                rows_in = self.counts["attention.rows_in"]
                value = self.counts["attention.rows_used"] / rows_in if rows_in else 0.0
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path, extra):
        with open(path, "w") as fh:
            json.dump({**extra, "missing": self.missing, "spans": self.spans}, fh)
