"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions, methods and cached properties of
the reeder modules with wrappers that take any signature, so a refactor that
changes an argument list does not break them; an entry point that no longer
exists is listed in ``missing`` and its metrics read 0.  ``uninstall`` puts
the originals back.

Two kinds of wrapper:

* span: records (name, start, end, parent) in memory, for the calls of which
  there are few per command;
* leaf: for functions called once per state or per matrix operation, adds
  (calls, ns) to the enclosing span instead of recording a span each.

A call that re-enters a layer already open (``det`` calling ``rank``,
``to_json`` calling ``to_json_obj``) is not recorded again.  Generator
functions are consumed inside their span, so their whole cost is measured.
A span's self time is its duration minus its child spans and leaf totals.
"""

from __future__ import annotations

import functools
import inspect
import resource
from collections import defaultdict
from time import perf_counter_ns

from reeder import _kernel, classifiers, diagram, f2, families, moves, sigma

# (owner, attribute, layer key)
SPANS = [
    (families, "construct", "families.construct"),
    (families, "check_representatives", "families.check_reps"),
    (moves, "enumerate_classes", "moves.enumerate"),
    (_kernel, "orbit_roots", "kernel.orbit"),
    (moves, "component_counts", "moves.components"),
    (moves.ClassPartition, "summaries", "moves.summaries"),
    (moves.ClassPartition, "members", "moves.members"),
    (moves.ClassPartition, "to_json", "moves.export"),
    (moves.ClassPartition, "to_json_obj", "moves.export"),
    (moves.ClassPartition, "to_csv", "moves.export"),
    (sigma, "orbit_bijection_check", "sigma.bijection"),
    (sigma, "duality_check", "sigma.duality_check"),
    (classifiers, "e6_tree_classify", "classifiers.e6_tree"),
    (diagram.Diagram, "fixed_labelings", "diagram.fixed_labelings"),
]
LEAVES = [
    (diagram.Diagram, "count_components", "diagram.count_components"),
    (moves, "apply_move", "moves.apply_move"),
] + [
    (f2.F2Matrix, name, "f2.elim")
    for name in ("rank", "det", "solve", "nullspace_basis", "__matmul__", "transpose")
]


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self):
        # span record: [name, start_ns, end_ns, parent, {leaf: [calls, ns]}, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._saved: list[tuple] = []
        self.missing: list[str] = []
        self.rss_growth_mb = 0.0

    # -- recording ----------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name; returns (result, record)."""
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, {}, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self._open.add(name)
        rec[1] = perf_counter_ns()
        try:
            return fn(*args, **kwargs), rec
        finally:
            rec[2] = perf_counter_ns()
            self._stack.pop()
            self._open.discard(name)

    def _span_wrapper(self, key: str, fn):
        after = _AFTER.get(key)
        if key == "kernel.orbit":
            fn = self._rss_tracked(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key in self._open:
                return fn(*args, **kwargs)
            result, rec = self.span(key, fn, *args, **kwargs)
            if after is not None:
                after(rec, result)
            return result

        return wrapper

    def _rss_tracked(self, fn):
        """Track the largest rise of the process's peak RSS across one call."""

        @functools.wraps(fn)
        def tracked(*args, **kwargs):
            before = maxrss_mb()
            try:
                return fn(*args, **kwargs)
            finally:
                self.rss_growth_mb = max(self.rss_growth_mb, maxrss_mb() - before)

        return tracked

    def _leaf_wrapper(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key in self._open or not self._stack:
                return fn(*args, **kwargs)
            self._open.add(key)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                self._open.discard(key)
                agg = self.spans[self._stack[-1]][4].setdefault(key, [0, 0])
                agg[0] += 1
                agg[1] += dt

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for kind, table in (("span", SPANS), ("leaf", LEAVES)):
            for owner, attr, key in table:
                raw = owner.__dict__.get(attr)
                if raw is None:
                    self.missing.append(f"{owner.__name__}.{attr}")
                    continue
                make = self._span_wrapper if kind == "span" else self._leaf_wrapper
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, _rewrap(raw, lambda fn: make(key, _consumed(fn)), attr))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------------

    def nesting_problems(self, first: int) -> list[str]:
        """Child spans must lie inside their parents and leave self time >= 0."""
        problems = []
        covered = defaultdict(int)
        for i in range(first, len(self.spans)):
            name, start, end, parent, leaves, _ = self.spans[i]
            covered[i] += sum(ns for _, ns in leaves.values())
            if parent >= 0:
                p = self.spans[parent]
                if not (p[1] <= start <= end <= p[2]):
                    problems.append(f"span {name} escapes its parent {p[0]}")
                covered[parent] += end - start
        for i, ns in covered.items():
            if ns > self.spans[i][2] - self.spans[i][1]:
                problems.append(f"children of {self.spans[i][0]} outlast it")
        return problems

    def layer_metrics(self, first: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since index ``first``."""
        incl = defaultdict(int)
        self_ns = defaultdict(int)
        child = defaultdict(int)
        leaf = defaultdict(lambda: [0, 0])
        attrs = defaultdict(int)
        for i in range(first, len(self.spans)):
            name, start, end, parent, leaves, extra = self.spans[i]
            if parent >= first:
                child[parent] += end - start
            for key, (calls, ns) in leaves.items():
                child[i] += ns
                leaf[key][0] += calls
                leaf[key][1] += ns
            for key, value in extra.items():
                attrs[key] += value
        for i in range(first, len(self.spans)):
            name, start, end = self.spans[i][:3]
            incl[name] += end - start
            self_ns[name] += end - start - child[i]
            if name.startswith("cli."):
                self_ns["cli"] += end - start - child[i]
        kernel_ns, states = incl["kernel.orbit"], attrs["states"]
        ms = 1e-6
        return {
            "kernel.orbit_ms": kernel_ns * ms,
            "kernel.calls": attrs["kernel_calls"],
            "kernel.states": states,
            "kernel.ns_per_state": kernel_ns / states if states else 0.0,
            "kernel.rss_growth_mb": self.rss_growth_mb,
            "moves.enumerate_ms": incl["moves.enumerate"] * ms,
            "moves.build_self_ms": self_ns["moves.enumerate"] * ms,
            "moves.summaries_ms": self_ns["moves.summaries"] * ms,
            "moves.components_ms": incl["moves.components"] * ms,
            "moves.export_ms": self_ns["moves.export"] * ms,
            "moves.members_ms": incl["moves.members"] * ms,
            "moves.classes": attrs["classes"],
            "diagram.count_components_calls": leaf["diagram.count_components"][0],
            "diagram.count_components_ms": leaf["diagram.count_components"][1] * ms,
            "families.check_reps_ms": incl["families.check_reps"] * ms,
            "cli.self_ms": self_ns["cli"] * ms,
            "families.construct_ms": incl["families.construct"] * ms,
            "sigma.bijection_self_ms": self_ns["sigma.bijection"] * ms,
            "sigma.duality_check_ms": incl["sigma.duality_check"] * ms,
            "classifiers.e6_tree_self_ms": self_ns["classifiers.e6_tree"] * ms,
            "classifiers.fallback_ratio": (
                attrs["fallbacks"] / attrs["predictions"] if attrs["predictions"] else 0.0
            ),
            "diagram.fixed_labelings_ms": incl["diagram.fixed_labelings"] * ms,
            "f2.elim_ms": leaf["f2.elim"][1] * ms,
            "moves.apply_move_calls": leaf["moves.apply_move"][0],
            "moves.apply_move_ms": leaf["moves.apply_move"][1] * ms,
        }

    def dump(self) -> list[list]:
        t0 = self.spans[0][1] if self.spans else 0
        return [[n, s - t0, e - t0, p, lv, at] for n, s, e, p, lv, at in self.spans]


def _consumed(fn):
    """Generator functions are drained inside the span and replayed."""
    if not inspect.isgeneratorfunction(fn):
        return fn

    @functools.wraps(fn)
    def drained(*args, **kwargs):
        return iter(list(fn(*args, **kwargs)))

    return drained


def _rewrap(raw, make, attr):
    """Wrap the function behind a plain function, classmethod, staticmethod
    or cached_property, keeping the descriptor kind."""
    if isinstance(raw, functools.cached_property):
        prop = functools.cached_property(make(raw.func))
        prop.__set_name__(None, attr)
        return prop
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(make(raw.__func__))
    return make(raw)


def _after_kernel(rec: list, roots) -> None:
    rec[5]["kernel_calls"] = 1
    rec[5]["states"] = len(roots)


def _after_enumerate(rec: list, partition) -> None:
    rec[5]["classes"] = partition.class_count


def _after_classify(rec: list, prediction) -> None:
    rec[5]["predictions"] = 1
    rec[5]["fallbacks"] = int(bool(prediction.fallback))


_AFTER = {
    "kernel.orbit": _after_kernel,
    "moves.enumerate": _after_enumerate,
    "classifiers.e6_tree": _after_classify,
}
