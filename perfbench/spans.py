"""Per-phase tracing from outside the program: spans around its public functions.

Each phase of the timer is timed by wrapping the public function that runs it,
at the place its caller looks it up (a module attribute, or a method on its
class).  Nothing inside ``src/`` changes; :meth:`Tracer.install` patches the
attributes and :meth:`Tracer.uninstall` puts the originals back.

A span records a phase name, start, end, its parent span and the timed op it
ran under.  Open spans live on a thread-local stack, because the serve daemon
handles requests on its own thread; a span opened on a thread with an empty
stack adopts :attr:`Tracer.adopt` (the client's open ``serve_http`` span) as its
parent, so server-side work nests under the round trip that caused it.  Spans
are held in memory and written out once, when the run ends.

Per-layer numbers are normalised per op: a phase's busy time under reads is
divided by the number of reads, its busy time under writes by the number of
writes, and the two are added — "the time the phase adds to one read plus one
write".  A phase that runs under one op kind only (most of them) is thus simply
seconds per op of that kind.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Every phase, in the order the metrics are listed.
PHASES = (
    "compile", "stage_solve", "table_lookup", "ceff", "admittance_moments",
    "admittance_fit", "far_end_kernel", "convolution", "merge", "dedupe",
    "scatter", "backward", "patch", "incremental_sweep", "incremental_required",
    "snapshot_clone", "report_build", "object_sweep", "serve_apply",
    "serve_codec", "serve_http",
)

#: Counters recorded at phase boundaries (summed, then normalised per op).
COUNTS = (
    "stage_solve.requests", "stage_solve.computed", "dedupe.events",
    "dedupe.unique_keys", "patch.patched_nets", "report_build.events_rebuilt",
    "object_sweep.retimed_nets",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, start: float, parent: "Optional[Span]",
                 op: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op


class Tracer:
    """Collects spans and counters while :attr:`op` names a timed op."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[Tuple[str, int], float] = defaultdict(float)
        #: index into :attr:`ops` of the op running now; None = not tracing
        self.op: Optional[int] = None
        #: (kind, start, end) of every traced op
        self.ops: List[Tuple[str, float, float]] = []
        #: parent for spans opened on a thread with no open span
        self.adopt: Optional[Span] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []

    # --- recording ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Optional[Span]:
        op = self.op
        if op is None:
            return None
        stack = self._stack()
        parent = stack[-1] if stack else self.adopt
        span = Span(name, time.perf_counter(), parent, op)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, value: float, op: int) -> None:
        with self._lock:
            self.counts[(name, op)] += value

    # --- patching ---------------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, phase: str,
             before: Optional[Callable[..., Any]] = None,
             after: Optional[Callable[..., Dict[str, float]]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args)`` runs ahead of the call; ``after(args, result, early)``
        returns counters to add, where ``early`` is what ``before`` returned.
        Class methods and classmethods are wrapped on the class itself.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.begin(phase)
            if span is None:
                return original(*args, **kwargs)
            early = before(args) if before is not None else None
            if phase == "serve_http":
                tracer.adopt = span
            try:
                result = original(*args, **kwargs)
            finally:
                if phase == "serve_http":
                    tracer.adopt = None
                tracer.end(span)
            if after is not None:
                for name, value in after(args, result, early).items():
                    tracer.count(name, value, span.op)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patched.append((owner, attr, raw))

    def install(self) -> None:
        """Wrap every phase's public function (imports the program's modules)."""
        from repro.api import report
        from repro.characterization import tables
        from repro.core import driver_model, far_end, stage_solver
        from repro.serve import client, registry, server
        from repro.sta import batch, compiled, incremental_compiled

        def solver_before(args):
            return args[0].stats.computed

        def solver_after(args, result, computed_before):
            return {"stage_solve.requests": len(args[1]),
                    "stage_solve.computed": args[0].stats.computed - computed_before}

        def rebuilt(args, result, early):
            return {"report_build.events_rebuilt":
                    result.meta.report_events_rebuilt or 0}

        def retimed(args, result, early):
            stats = result.incremental
            return {"object_sweep.retimed_nets":
                    stats.retimed_nets if stats is not None else 0}

        self.wrap(batch.GraphEngine, "compile", "compile")
        self.wrap(stage_solver.StageSolver, "solve_batch", "stage_solve",
                  before=solver_before, after=solver_after)
        self.wrap(tables.LookupTable2D, "lookup_many", "table_lookup")
        self.wrap(stage_solver, "model_driver_output_batch", "ceff")
        self.wrap(driver_model, "admittance_moments", "admittance_moments")
        self.wrap(driver_model, "fit_rational_admittance", "admittance_fit")
        self.wrap(far_end, "linear_source_kernel", "far_end_kernel")
        self.wrap(stage_solver, "far_end_response_batch", "convolution")
        self.wrap(batch, "merge_level", "merge")
        self.wrap(batch, "level_solve_keys", "dedupe", after=lambda args, result, _: {
            "dedupe.events": len(args[2]), "dedupe.unique_keys": len(result[0])})
        self.wrap(batch, "scatter_level_solutions", "scatter")
        self.wrap(batch, "backward_required", "backward")
        self.wrap(incremental_compiled, "backward_required", "backward")
        self.wrap(compiled.CompiledGraph, "patch", "patch",
                  after=lambda args, result, _: {"patch.patched_nets": result})
        self.wrap(incremental_compiled, "incremental_sweep", "incremental_sweep")
        self.wrap(incremental_compiled, "incremental_required",
                  "incremental_required")
        self.wrap(compiled.SweepState, "clone", "snapshot_clone")
        self.wrap(report.StreamingTimingReport, "from_compiled", "report_build",
                  after=rebuilt)
        self.wrap(report.TimingReport, "from_graph_report", "report_build",
                  after=rebuilt)
        self.wrap(batch.IncrementalEngine, "update", "object_sweep", after=retimed)
        self.wrap(registry.AttachedDesign, "apply_edits", "serve_apply")
        for name in ("summary_payload", "slack_payload", "events_payload",
                     "diff_payload"):
            self.wrap(server, name, "serve_codec")
        self.wrap(client.ServeClient, "request", "serve_http")

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    # --- accounting -------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Per-layer metrics of the traced ops (see the module docstring)."""
        n_by_kind: Dict[str, int] = defaultdict(int)
        wall = 0.0
        for kind, start, end in self.ops:
            n_by_kind[kind] += 1
            wall += end - start
        kind_of = [kind for kind, _, _ in self.ops]

        def per_op(totals: Dict[str, float]) -> float:
            return sum(value / n_by_kind[kind] for kind, value in totals.items())

        children: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                children[id(span.parent)] += span.end - span.start
        calls: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        busy: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        own: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        covered: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            kind = kind_of[span.op]
            duration = span.end - span.start
            calls[span.name][kind] += 1
            own[span.name][kind] += duration - children[id(span)]
            if not _nested_in_same_phase(span):
                busy[span.name][kind] += duration
            if span.parent is None:
                covered[kind] += duration
        metrics: Dict[str, float] = {}
        for phase in PHASES:
            metrics[f"{phase}.calls"] = per_op(calls[phase])
            metrics[f"{phase}.busy_s"] = per_op(busy[phase])
            metrics[f"{phase}.self_s"] = per_op(own[phase])
            metrics[f"{phase}.share"] = (sum(own[phase].values()) / wall
                                         if wall else 0.0)
        other = {kind: sum(end - start for k, start, end in self.ops if k == kind)
                 - covered[kind] for kind in n_by_kind}
        metrics["other.self_s"] = per_op(other)
        metrics["other.share"] = sum(other.values()) / wall if wall else 0.0
        by_count: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (name, op), value in self.counts.items():
            by_count[name][kind_of[op]] += value
        for name in COUNTS:
            metrics[name] = per_op(by_count[name])
        requests = sum(by_count["stage_solve.requests"].values())
        computed = sum(by_count["stage_solve.computed"].values())
        metrics["stage_solve.hit_rate"] = (1.0 - computed / requests
                                           if requests else 1.0)
        return metrics

    def dump(self) -> Dict[str, Any]:
        """Every span and op as plain data, for the run's trace file."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return {
            "ops": [{"kind": kind, "start": start, "end": end}
                    for kind, start, end in self.ops],
            "spans": [{"name": span.name, "start": span.start, "end": span.end,
                       "parent": (index.get(id(span.parent))
                                  if span.parent is not None else None),
                       "op": span.op} for span in self.spans],
        }


def _nested_in_same_phase(span: Span) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == span.name:
            return True
        parent = parent.parent
    return False
