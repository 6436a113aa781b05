"""Spans around calls into patprob's public functions, recorded from outside.

No patprob source file knows about tracing. `Tracer.install` replaces each
traced function with a wrapper wherever a patprob module (or a module the
caller names) holds a reference to it: module attributes, module-level dicts
such as the CLI's table-builder map, and class attributes for methods. So
calls between patprob modules are traced too. `uninstall` puts every
original back.

A span is [name, start, end, parent index, op id]; spans stay in memory
until the caller writes them out. Self time is a span's duration minus the
durations of its direct children (the process is single-threaded, so
children never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

from patprob import markov, oracle, patterns, recursions

# Counters derived from a layer's result: (counter name, value of one call).
# They measure work done, so they repeat exactly for the same inputs.
_COUNTERS = {
    "patterns.census": [("patterns.census.words", lambda r: sum(c.count for c in r.values()))],
    "oracle.enum_counts": [
        ("oracle.enum_counts.words", lambda r: r.pattern.alphabet_size**r.k)
    ],
    "markov.reach_table": [("markov.reach_rows", lambda r: len(r.P))],
    "recursions.expected_wait_series": [
        ("recursions.expected_wait_series.terms", lambda r: r.upto + 1)
    ],
    "oracle.monte_carlo": [
        ("oracle.monte_carlo.trials", lambda r: r.config.trials),
        ("oracle.monte_carlo.symbols", lambda r: r.config.trials * r.config.k),
    ],
}

# Layers returning a ProbTable feed the largest numerator bit length.
_TABLE_LAYERS = {
    "recursions.p_table_long",
    "recursions.p_table_short",
    "recursions.P_table",
    "markov.chain_prob_table",
    "oracle.automaton_prob_table",
}

RENDER = "numerics.render"


def library_layers() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) of every traced patprob function.

    Rendering is the ProbTable JSON/CSV methods plus json.dumps, which is how
    both the CLI and the in-process workloads turn results into text.
    """
    return [
        (patterns, "census", "patterns.census"),
        (patterns, "bifix_indicator", "patterns.bifix_indicator"),
        (recursions, "p_table_long", "recursions.p_table_long"),
        (recursions, "p_table_short", "recursions.p_table_short"),
        (recursions, "P_table", "recursions.P_table"),
        (recursions, "expected_wait_series", "recursions.expected_wait_series"),
        (markov, "chain_prob_table", "markov.chain_prob_table"),
        (markov, "reach_table", "markov.reach_table"),
        (markov, "compare_chains", "markov.compare_chains"),
        (markov, "check_lemmas", "markov.check_lemmas"),
        (oracle, "automaton_prob_table", "oracle.automaton_prob_table"),
        (oracle, "automaton_counts", "oracle.automaton_counts"),
        (oracle, "enum_counts", "oracle.enum_counts"),
        (oracle, "monte_carlo", "oracle.monte_carlo"),
        (recursions.ProbTable, "to_json_dict", RENDER),
        (recursions.ProbTable, "to_csv", RENDER),
        (json, "dumps", RENDER),
    ]


class Tracer:
    """Records spans and work counters while installed; inert otherwise."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter[str] = Counter()
        self.max_num_bits = 0
        self.op: int | None = None
        self.paused = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    def wrap(self, name: str, fn):
        tracer = self
        counters = _COUNTERS.get(name, ())
        is_table = name in _TABLE_LAYERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else None, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            for counter, value in counters:
                tracer.counters[counter] += value(result)
            if is_table:
                bits = max(x.num.bit_length() for x in result.P + result.p)
                tracer.max_num_bits = max(tracer.max_num_bits, bits)
            return result

        return wrapper

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a span of its own, e.g. the CLI's main."""
        return self.wrap(name, fn)(*args)

    def install(self, layers, extra_modules=()) -> None:
        """Replace every reference to each layer function with its wrapper."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "patprob"]
        modules += list(extra_modules)
        for owner, attr, name in layers:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapped = self.wrap(name, original)
            self._patch(owner, attr, wrapped, is_dict=False)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        self._patch(module, key, wrapped, is_dict=False)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._patch(value, dkey, wrapped, is_dict=True)

    def _patch(self, container, key, new, is_dict: bool) -> None:
        if is_dict:
            self._patches.append((container, key, container[key], True))
            container[key] = new
        else:
            self._patches.append((container, key, getattr(container, key), False))
            setattr(container, key, new)

    def uninstall(self) -> None:
        while self._patches:
            container, key, old, is_dict = self._patches.pop()
            if is_dict:
                container[key] = old
            else:
                setattr(container, key, old)

    def summary(self) -> "LayerSummary":
        out = LayerSummary()
        out.add_dump(self.dump())
        return out

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "max_num_bits": self.max_num_bits,
        }


class LayerSummary:
    """Per-layer calls, busy and self time, summed over one or more span lists."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.busy_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counters: Counter[str] = Counter()
        self.max_num_bits = 0

    def add_spans(self, spans: list[list]) -> None:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _op in spans:
            if parent is not None:
                child_time[parent] += end - start
        for index, (name, start, end, parent, _op) in enumerate(spans):
            duration = end - start
            self.calls[name] += 1
            self.self_s[name] += duration - child_time[index]
            # busy time counts a layer once even when it calls itself
            # (json.dumps inside a render span, say)
            ancestor = parent
            while ancestor is not None and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor is None:
                self.busy_s[name] += duration

    def add_dump(self, dump: dict) -> None:
        self.add_spans(dump["spans"])
        self.counters.update(dump["counters"])
        self.max_num_bits = max(self.max_num_bits, dump["max_num_bits"])
