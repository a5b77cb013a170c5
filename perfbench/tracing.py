"""Span tracing for the benchmark, kept entirely outside the package.

``Tracer.install`` replaces shiftk's public functions by wrappers in every
``shiftk`` module that holds them, so a call is caught wherever its caller
looks the name up (``shiftk.cli.build_chain`` as well as
``shiftk.partitions.build_chain``).  A wrapper records one span (id, parent,
operation, layer, name, start, end) and passes the arguments and the result
through unchanged.  Hooks that read sizes from a result run outside the
span clock, so they do not count as time of any layer.  Spans stay in memory
until ``write`` is called at the end of the run.  The span clock is the
program's CPU clock, like the benchmark's other times.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = ("presentations", "partitions", "intlinalg", "invariants",
          "transforms", "model", "cli")


def _bits(matrix) -> int:
    return max((abs(x).bit_length() for row in matrix.entries for x in row), default=0)


def _on_contexts(tracer, args, result):
    tracer.add("presentations.contexts_n", len(result))


def _on_chain(tracer, args, chain):
    st = chain.stabilization
    if st.stable:
        tracer.add("partitions.m_stable", chain.m(st.level))
        tracer.peak("partitions.stab_level", st.level)


def _on_snf(tracer, args, snf):
    m = args[0]
    tracer.add("intlinalg.snf_calls", 1)
    tracer.snf_inputs.add((m.rows, m.cols, m.entries))
    tracer.peak("intlinalg.snf_dim_max", max(m.rows, m.cols))
    # read from the returned U and V by the benchmark, not reported by the program
    tracer.peak("intlinalg.snf_transform_bits_max", max(_bits(snf.u), _bits(snf.v)))


def _on_checks(tracer, args, report):
    tracer.add("model.checks_n", report.checks)


# (module, attribute, layer, span name, hook); "Presentation.contexts" is the
# cached property that computes the context set of every presentation kind.
TARGETS = (
    ("presentations", "parse_presentation", "presentations", "parse", None),
    ("presentations", "Presentation.contexts", "presentations", "contexts", _on_contexts),
    ("partitions", "build_chain", "partitions", "build_chain", _on_chain),
    ("intlinalg", "smith_normal_form", "intlinalg", "snf", _on_snf),
    ("invariants", "k_groups", "invariants", "k_groups", None),
    ("invariants", "dimension_triple", "invariants", "dimension_triple", None),
    ("invariants", "compare_triples", "invariants", "compare", None),
    ("transforms", "higher_block", "transforms", "higher_block", None),
    ("model", "verify_representation", "model", "verify_representation", _on_checks),
    ("model", "verify_structure", "model", "verify_structure", _on_checks),
    ("model", "verify_composition_rules", "model", "verify_composition", _on_checks),
    ("cli", "main", "cli", "main", None),
)


def self_times(spans) -> dict[str, float]:
    """Per layer, the spans' durations minus the parts their child spans cover."""
    child_time: dict[int, float] = {}
    for sid, parent, op, layer, name, start, end in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = dict.fromkeys(LAYERS, 0.0)
    for sid, parent, op, layer, name, start, end in spans:
        out[layer] += (end - start) - child_time.get(sid, 0.0)
    return out


class Tracer:
    """Records spans and counters while installed; inert otherwise."""

    def __init__(self, clock=time.thread_time):
        self.program_clock = clock
        self.spans: list[tuple] = []   # (id, parent, op, layer, name, start, end)
        self.counters: dict[str, float] = {}
        self.snf_inputs: set = set()
        self.op = None                 # identifier of the benchmark operation running
        self._next_id = 0
        self._stack: list[int] = []
        self._excluded = 0.0           # time spent in hooks, hidden from every span
        self._undo: list = []

    def clock(self) -> float:
        return self.program_clock() - self._excluded

    def add(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def wrap(self, fn, layer: str, name: str, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans.append((sid, parent, self.op, layer, name, start, end))
            if hook is not None:
                h0 = self.program_clock()
                hook(self, args, result)
                self._excluded += self.program_clock() - h0
            return result
        return traced

    def install(self, lib) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "shiftk" or key.startswith("shiftk.")]
        for modname, attr, layer, name, hook in TARGETS:
            owner = getattr(lib, modname)
            if "." in attr:
                cls_name, prop_name = attr.split(".")
                prop = vars(getattr(owner, cls_name))[prop_name]
                self._undo.append((prop, "func", prop.func))
                prop.func = self.wrap(prop.func, layer, name, hook)
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(original, layer, name, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()

    def mark(self) -> int:
        """Start a pass: clear the per-pass counters, return the first span index."""
        self.counters = {}
        self.snf_inputs = set()
        return len(self.spans)

    def pass_metrics(self, first: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since ``mark`` returned ``first``."""
        spans = self.spans[first:]
        inclusive: dict[str, float] = {}
        for sid, parent, op, layer, name, start, end in spans:
            key = f"{layer}.{name}_s"
            inclusive[key] = inclusive.get(key, 0.0) + (end - start)

        out = {name: float(value) for name, value in self.counters.items()}
        calls = out.get("intlinalg.snf_calls", 0)
        out["intlinalg.snf_unique_frac"] = len(self.snf_inputs) / calls if calls else 0.0
        out.update(inclusive)
        for layer, seconds in self_times(spans).items():
            out[f"{layer}.self_s"] = seconds
        out["trace.spans_n"] = float(len(spans))
        return out

    def write(self, path, summary: dict) -> None:
        """Write every span as one JSON line, then the run summary."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, layer, name, start, end in self.spans:
                fh.write(json.dumps({"type": "span", "id": sid, "parent": parent,
                                     "op": op, "layer": layer, "name": name,
                                     "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"type": "summary", **summary}) + "\n")
