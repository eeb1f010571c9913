"""Per-layer tracing of dgnerve from outside the package.

:class:`Tracer` replaces each traced public function with a wrapper in every
namespace that binds it by name (the defining module, the package
``__init__``, every module that did ``from .x import f``, and the
benchmark's own workload module), and methods on their classes.  A wrapper
records a span -- name, start, end, parent span, op id -- and keeps per-name
call counts and self time (duration minus the time covered by child spans).
:meth:`Tracer.restore` puts every original back, so untraced runs measure
unpatched code.

Three kinds of wrapper keep the cost and the memory of a traced run bounded:

* spans, kept in memory and written out by :meth:`Tracer.write`;
* timed-only spans for ``DgCategory.compose`` and ``differential``, which run
  about a million times per axioms op: they are counted and their time is
  charged to the right layer, but no span record is kept;
* counters for the scalar ring operations, which run millions of times per
  op: timing them would swamp what they measure, so only calls are counted
  and their time stays in the enclosing span's self time.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

PACKAGE = "dgnerve"
# Benchmark modules that call into the package and so must see the wrappers.
CALLER_MODULES = ("workloads",)

_now = time.perf_counter


# -- what is traced ------------------------------------------------------------------

def _solve_cells(matrix, rhs, ring, *_, **__) -> int:
    """Rows x cols of the (m+1)-layer rational system solve_linear builds."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    layers = ring.ideal_rank + 1
    return layers * nrows * layers * ncols


def _argv_bytes(argv=None, *_, **__) -> int:
    """Bytes of the documents named on a cli.main command line."""
    return sum(os.path.getsize(arg) for arg in argv or ()
               if isinstance(arg, str) and os.path.isfile(arg))


# (layer metric name, module, function names); each becomes a kept span.
FUNCTION_SPANS = (
    ("dgcat.check_axioms", "dgcat", ("check_axioms",)),
    ("dgcat.witness", "dgcat", ("find_equivalence_witness",)),
    ("dgcat.opposite", "dgcat", ("opposite",)),
    ("glin.solve_linear", "glin", ("solve_linear",)),
    ("glin.nullspace", "glin", ("nullspace",)),
    ("mc.twist", "mc", ("twist",)),
    ("mc.base_change", "mc", ("tensor_with_ring", "reduce_category")),
    ("mc.check_mc", "mc", ("check_mc",)),
    ("mc.sample", "mc", ("random_mc_element",)),
    ("nerve.validate_simplex", "nerve", ("validate_simplex",)),
    ("nerve.validate_star", "nerve", ("validate_star",)),
    ("nerve.required_boundary", "nerve", ("required_boundary",)),
    ("nerve.cochain_differential", "nerve", ("cochain_differential",)),
    ("nerve.cochain_compose", "nerve", ("cochain_compose",)),
    ("horn.check_horn", "horn", ("check_horn",)),
    ("horn.compute_obstruction", "horn", ("compute_obstruction",)),
    ("horn.fill_horn", "horn", ("fill_horn",)),
    ("horn.lift_filler", "horn", ("lift_filler",)),
    ("horn.random_valid_simplex", "horn", ("random_valid_simplex",)),
    ("jsonio.parse", "jsonio", ("category_from_json", "simplex_from_json",
                                "horn_from_json", "filler_from_json",
                                "mc_from_json")),
    ("jsonio.dump", "jsonio", ("canonical_dumps", "category_to_json",
                               "simplex_to_json", "horn_to_json",
                               "filler_to_json", "mc_to_json")),
    ("cli.main", "cli", ("main",)),
)

# (layer metric name, module, class, method): timed, counted, not kept.
METHOD_SPANS = (
    ("dgcat.compose", "dgcat", "DgCategory", "compose"),
    ("dgcat.differential", "dgcat", "DgCategory", "differential"),
)

# (layer metric name, module, class, method): counted only.
METHOD_COUNTS = (
    ("rings.element", "rings", "SquareZeroRing", "element"),
    ("rings.add", "rings", "RingElement", "__add__"),
    ("rings.add", "rings", "RingElement", "__radd__"),
    ("rings.mul", "rings", "RingElement", "__mul__"),
    ("rings.mul", "rings", "RingElement", "__rmul__"),
)

# Extra counts taken at a span boundary: name -> (before-call hook adding to
# a counter, counter name).
BEFORE_HOOKS: dict[str, tuple[Callable[..., int], str]] = {
    "glin.solve_linear": (_solve_cells, "glin.solve_linear.cells"),
    "cli.main": (_argv_bytes, "jsonio.bytes_in"),
}


class Tracer:
    """In-memory spans and per-layer counters for one traced run."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple[int, str, float, float, int | None, Any]] = []
        self.op: Any = None
        self._stack: list[list] = []       # [span id, name, child seconds]
        self._next_id = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, start: float, end: float, keep: bool) -> None:
        self._stack.pop()
        duration = end - start
        name = frame[1]
        self.calls[name] += 1
        self.self_s[name] += duration - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if keep:
            self.spans.append((frame[0], name, start, end,
                               parent[0] if parent else None, self.op))

    def parent_name(self) -> str | None:
        """Name of the innermost open span, before the current call's own."""
        return self._stack[-2][1] if len(self._stack) > 1 else None

    def run_op(self, op_id: Any, kind: str, fn: Callable[[], Any]) -> Any:
        """Run one benchmark op as a root span tagged with ``op_id``."""
        self.op = op_id
        frame = self._enter("op." + kind)
        start = _now()
        try:
            return fn()
        finally:
            self._exit(frame, start, _now(), keep=True)
            self.op = None

    # -- wrappers ------------------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable, keep: bool) -> Callable:
        tracer = self
        hook = BEFORE_HOOKS.get(name)
        outcome = _OUTCOMES.get(name)

        def traced(*args, **kwargs):
            if hook is not None:
                tracer.counts[hook[1]] += hook[0](*args, **kwargs)
            frame = tracer._enter(name)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = _now()
                if outcome is not None:
                    outcome(tracer, None, exc)
                tracer._exit(frame, start, end, keep)
                raise
            end = _now()
            if outcome is not None:
                outcome(tracer, result, None)
            tracer._exit(frame, start, end, keep)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching ------------------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function in every namespace that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [module for name, module in sorted(sys.modules.items())
                      if module is not None
                      and (name == PACKAGE or name.startswith(PACKAGE + ".")
                           or name in CALLER_MODULES)]
        for name, module, functions in FUNCTION_SPANS:
            home = sys.modules[f"{PACKAGE}.{module}"]
            for function in functions:
                original = getattr(home, function)
                wrapper = self._span_wrapper(name, original, keep=True)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._set(namespace, attr, wrapper)
        for name, module, cls_name, method in METHOD_SPANS:
            cls = getattr(sys.modules[f"{PACKAGE}.{module}"], cls_name)
            self._set(cls, method, self._span_wrapper(
                name, cls.__dict__[method], keep=False))
        for name, module, cls_name, method in METHOD_COUNTS:
            cls = getattr(sys.modules[f"{PACKAGE}.{module}"], cls_name)
            self._set(cls, method, self._count_wrapper(name, cls.__dict__[method]))

    def restore(self) -> None:
        """Put every original function back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- output --------------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write spans and aggregates as one JSON document."""
        doc = {
            "span_fields": ["id", "name", "start_s", "end_s", "parent", "op"],
            "spans": self.spans,
            "calls": dict(sorted(self.calls.items())),
            "self_s": dict(sorted(self.self_s.items())),
            "counts": dict(sorted(self.counts.items())),
        }
        with open(path, "w") as handle:
            json.dump(doc, handle)


# -- outcome counters ----------------------------------------------------------------

def _useful(counter: str) -> Callable:
    def outcome(tracer: Tracer, result: Any, exc: BaseException | None) -> None:
        if exc is None:
            tracer.counts[counter] += 1
    return outcome


def _violations(tracer: Tracer, result: Any, exc: BaseException | None) -> None:
    if exc is None:
        tracer.counts["dgcat.check_axioms.violations"] += len(result)


def _mc_candidate(tracer: Tracer, result: Any, exc: BaseException | None) -> None:
    # random_mc_element tests each candidate with check_mc; an empty report
    # means the candidate was accepted.
    if tracer.parent_name() == "mc.sample":
        tracer.counts["mc.sample.candidates"] += 1
        if exc is None and not result:
            tracer.counts["mc.sample.accepted"] += 1


def _dumped_bytes(tracer: Tracer, result: Any,
                  exc: BaseException | None) -> None:
    if isinstance(result, str):
        tracer.counts["jsonio.bytes_out"] += len(result.encode())


def _cli_exit(tracer: Tracer, result: Any, exc: BaseException | None) -> None:
    if exc is not None:
        tracer.counts["cli.uncaught"] += 1
    else:
        tracer.counts[f"cli.exit_{result}"] += 1


_OUTCOMES: dict[str, Callable] = {
    "dgcat.check_axioms": _violations,
    "dgcat.witness": _useful("dgcat.witness.found"),
    "glin.solve_linear": _useful("glin.solve_linear.solved"),
    "horn.fill_horn": _useful("horn.fill.filled"),
    "mc.check_mc": _mc_candidate,
    "jsonio.dump": _dumped_bytes,
    "cli.main": _cli_exit,
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for name in ("rings.element", "rings.add", "rings.mul"):
        out[name + ".calls"] = (tracer.counts[name], "count")
    timed = [name for name, _, _ in FUNCTION_SPANS]
    timed += [name for name, _, _, _ in METHOD_SPANS]
    for name in timed:
        out[name + ".calls"] = (tracer.calls[name], "count")
        out[name + ".self_s"] = (tracer.self_s[name], "s")
    calls, counts = tracer.calls, tracer.counts
    out["dgcat.check_axioms.violations"] = (
        counts["dgcat.check_axioms.violations"], "count")
    out["dgcat.witness.useful_ratio"] = (
        _ratio(counts["dgcat.witness.found"], calls["dgcat.witness"]), "ratio")
    out["glin.solve_linear.cells"] = (counts["glin.solve_linear.cells"], "count")
    out["glin.solve_linear.useful_ratio"] = (
        _ratio(counts["glin.solve_linear.solved"], calls["glin.solve_linear"]),
        "ratio")
    out["mc.sample.candidates"] = (counts["mc.sample.candidates"], "count")
    out["mc.sample.useful_ratio"] = (
        _ratio(counts["mc.sample.accepted"], counts["mc.sample.candidates"]),
        "ratio")
    out["horn.fill.useful_ratio"] = (
        _ratio(counts["horn.fill.filled"], calls["horn.fill_horn"]), "ratio")
    out["jsonio.bytes_in"] = (counts["jsonio.bytes_in"], "B")
    out["jsonio.bytes_out"] = (counts["jsonio.bytes_out"], "B")
    for code in ("exit_0", "exit_1", "exit_2"):
        out["cli." + code] = (counts["cli." + code], "count")
    out["cli.uncaught"] = (counts["cli.uncaught"], "count")
    return out
