"""Span recorders wrapped around the calls each ccsym module makes into the
layer below, installed from outside the package.

`Tracer.install()` replaces module attributes such as `ccsym.geometry.roots_in`
with a wrapper that records a span (name, start, end, parent, op) and returns
the wrapped function's result unchanged.  Patching the attribute in the
*calling* module is what places the span on a layer boundary: `from .poly
import roots_in` bound the name there.  Spans stay in memory; `dump()` writes
them out when the run ends.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter_ns

# (calling module, attribute, span name).  The span name is the layer that
# owns the function, so one name collects calls from every caller.
BOUNDARIES = (
    ("ccsym.parser", "parse_ring", "parser.parse_ring"),
    ("ccsym.parser", "parse_expression", "parser.parse_expression"),
    ("ccsym.cli", "parse_ring", "parser.parse_ring"),
    ("ccsym.cli", "parse_expression", "parser.parse_expression"),
    ("ccsym.reciprocity", "weil_check", "reciprocity.weil_check"),
    ("ccsym.reciprocity", "cc_check", "reciprocity.cc_check"),
    ("ccsym.reciprocity", "parshin_check", "reciprocity.parshin_check"),
    ("ccsym.cli", "weil_check", "reciprocity.weil_check"),
    ("ccsym.cli", "cc_check", "reciprocity.cc_check"),
    ("ccsym.cli", "parshin_check", "reciprocity.parshin_check"),
    ("ccsym.reciprocity", "support_places", "geometry.support_places"),
    ("ccsym.reciprocity", "local_expand", "geometry.local_expand"),
    ("ccsym.reciprocity", "flag_expand", "geometry.flag_expand"),
    ("ccsym.reciprocity", "relative_norm", "rings.relative_norm"),
    ("ccsym.reciprocity", "tame_symbol", "symbols.tame_symbol"),
    ("ccsym.reciprocity", "cc_symbol", "symbols.cc_symbol"),
    ("ccsym.symbols", "tame_symbol", "symbols.tame_symbol"),
    ("ccsym.symbols", "cc_symbol", "symbols.cc_symbol"),
    ("ccsym.symbols", "higher_symbol", "symbols.higher_symbol"),
    ("ccsym.symbols", "unit_decompose", "laurent.unit_decompose"),
    ("ccsym.cli", "tame_symbol", "symbols.tame_symbol"),
    ("ccsym.cli", "cc_symbol", "symbols.cc_symbol"),
    ("ccsym.geometry", "factor", "poly.factor"),
    ("ccsym.geometry", "roots_in", "poly.roots_in"),
    ("ccsym.geometry", "embed", "rings.embed"),
    ("ccsym.geometry", "laurent_inv", "laurent.laurent_inv"),
    ("ccsym.laurent", "laurent_inv", "laurent.laurent_inv"),
    ("ccsym.toeplitz", "joint_torsion", "toeplitz.joint_torsion"),
    ("ccsym.cli", "joint_torsion", "toeplitz.joint_torsion"),
    ("ccsym.toeplitz", "mat_mul", "toeplitz.mat_mul"),
    ("ccsym.toeplitz", "mat_inv", "toeplitz.mat_inv"),
    ("ccsym.toeplitz", "mat_det", "toeplitz.mat_det"),
)

# Deep poles are the J >= 25 nilpotent poles of the symbols workload.
DEEP_POLE = 25


def _tag(name, args, result, seen):
    """Split a span name by what the call did: first or repeated root search
    for a (polynomial, field) pair, shallow or deep `unit_decompose`."""
    if name == "poly.roots_in":
        f, field = args
        key = f.ring, f.encoding(), field
        if key in seen:
            return name + ".repeat"
        seen.add(key)
        return name + ".first"
    if name == "laurent.unit_decompose":
        return name + (".deep" if result.max_pole() >= DEEP_POLE else ".shallow")
    return name


class Tracer:
    def __init__(self):
        self.spans = []       # (name, start_ns, end_ns, parent index, op)
        self.op = -1          # current op number; -1 outside the workload
        self._stack = []
        self._seen = set()
        self._saved = []

    def wrap(self, name, fn):
        spans, stack, seen = self.spans, self._stack, self._seen
        tagged = name in ("poly.roots_in", "laurent.unit_decompose")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                span_name = _tag(name, args, result, seen) \
                    if tagged and result is not None else name
                spans[index] = (span_name, start, end, parent, self.op)
        return traced

    def install(self):
        for module_name, attr, name in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self, ops_only=False):
        """{span name: (calls, total self ns)}, over workload ops only if
        `ops_only`, otherwise over every span."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if ops_only and op < 0:
                continue
            calls, total = out.get(name, (0, 0))
            out[name] = (calls + 1, total + (end - start) - child_ns[i])
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
