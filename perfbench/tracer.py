"""Span tracer that instruments hamilton_rla from outside the package.

The tracer replaces each public function of a layer module with a wrapper,
at every binding a caller can reach it through: the defining module's own
globals (intra-module calls) and every other package module that imported
the function by name.  ``viability`` imports ``count_piles`` and
``estimate_assertion_asn`` this way, so patching only ``tabulation`` and
``risk`` would miss the search's calls.

Most wrapped functions record a span: the op it belongs to, name, start,
end and the id of the span that was open when the call began.  Spans live in flat in-memory
arrays and are written out once, at the end of a run.  A layer's self time
is its span's duration minus the time its child spans cover.

A few per-ballot and per-assertion helpers run hundreds of thousands of
times per command; a span each would distort the timings they sit in, so
they are only counted (COUNT_ONLY) or left alone (UNWRAPPED), and their
time stays in the caller's self time.
Recording is on only inside ``active()``, so the benchmark's own
preparation and output checks never show up in the trace.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
from array import array
from collections import Counter, defaultdict
from time import perf_counter
from types import ModuleType
from typing import Callable, Iterable

# Layers are the package modules, in the order they are reported.
LAYERS = ("model", "tabulation", "viability", "delegates", "assertions", "risk", "cli")

# Per-ballot and per-assertion helpers that run hundreds of thousands of
# times per command: counted, never spanned.
COUNT_ONLY = {
    "assertions.assertion_key",
    "assertions.assorter_value",
    "risk.discrepancy",
    "risk._trial_draws",
    "viability.AuditContext.piles",
    "viability.AltOutcomeNode.__init__",
}

# Not wrapped, so their time stays in their caller's self time: helpers that
# run millions of times and that no metric needs (top_remaining once per
# distinct ranking in every count_piles), and model's serialization steps,
# which belong to the load or save that uses them.
UNWRAPPED = {
    "assertions.upper_bound",
    "assertions.describe",
    "risk.km_step",
    "risk.step_factor",
    "tabulation.top_remaining",
    "delegates.pairwise_diff_margin",
    "delegates.pair_offset",
    "model.parse_ranking_cell",
    "model.parse_proportion",
    "model.assertion_to_dict",
    "model.assertion_from_dict",
    "model.audit_spec_to_dict",
    "model.audit_spec_from_dict",
    "model.outcome_to_dict",
    "model.build_profile",
    "model.canonical_json",
    "model.write_json",
}

# Private functions that are worth a count of their own.
EXTRA = ("risk._trial_draws",)

# Classes whose methods are wrapped, as "module.Class.method".
METHODS = ("viability.AuditContext.piles", "viability.AltOutcomeNode.__init__")

# Bindings counted on their own, as "importer->function": the search's
# cache misses are the count_piles calls made through viability's binding.
BINDINGS = ("viability->count_piles",)


class Tracer:
    """Spans, self times and exact call counts for one benchmark process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op = 0  # the op (request) that spans recorded now belong to
        self.span_op = array("i")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: Counter[str] = Counter()
        self.work: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, seconds covered by child spans]
        self._on = False
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def active(self):
        self._on = True
        try:
            yield self
        finally:
            self._on = False

    def _name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def span_wrapper(self, name: str, fn: Callable, work: Callable | None = None) -> Callable:
        name_id = self._name_id(name)
        calls, self_s, stack = self.calls, self.self_s, self._stack
        ops, names, parents = self.span_op, self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._on:
                return fn(*args, **kwargs)
            calls[name] += 1
            if work is not None:
                work(self.work, args, kwargs)
            span_id = len(names)
            ops.append(self.op)
            names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            starts.append(start)
            ends.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                ends[span_id] = end
                duration = end - start
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return wrapper

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._on:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules: dict[str, ModuleType], work: dict[str, Callable]) -> None:
        """Wrap every public function of each layer at every binding in ``modules``,
        which maps each name in LAYERS to its imported module."""
        wrapped: dict[int, Callable] = {}
        for layer, module in modules.items():
            for attr, fn in _layer_functions(module, layer):
                name = f"{layer}.{_metric_name(layer, attr)}"
                if name in UNWRAPPED:
                    continue
                if name in COUNT_ONLY:
                    wrapped[id(fn)] = self.count_wrapper(name, fn)
                else:
                    wrapped[id(fn)] = self.span_wrapper(name, fn, work.get(name))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    self._set(module, attr, wrapped[id(value)])
        for path in METHODS:
            layer, cls_name, method = path.split(".")
            cls = getattr(modules[layer], cls_name)
            fn = getattr(cls, method)
            self._set(cls, method, self.count_wrapper(path, fn))
        for path in BINDINGS:
            importer, attr = path.split("->")
            module = modules[importer]
            self._set(module, attr, self.count_wrapper(path, getattr(module, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def snapshot(self) -> tuple[Counter, Counter, dict[str, float], int]:
        """Copies of the counters so far, for per-op differences."""
        return Counter(self.calls), Counter(self.work), dict(self.self_s), len(self.span_name)

    def write_spans(self, path) -> None:
        """One tab-separated line per span: op, id, parent id, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tid\tparent\tname\tstart\tend\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{self.span_op[i]}\t{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )


def _layer_functions(module: ModuleType, layer: str) -> Iterable[tuple[str, Callable]]:
    for attr, value in vars(module).items():
        if not inspect.isfunction(value) or value.__module__ != module.__name__:
            continue
        if attr.startswith("_") and f"{layer}.{attr}" not in EXTRA:
            continue
        yield attr, value


def _metric_name(layer: str, attr: str) -> str:
    # cli.cmd_audit_init -> cli.audit_init, matching the command it runs
    if layer == "cli" and attr.startswith("cmd_"):
        return attr[len("cmd_"):]
    return attr
