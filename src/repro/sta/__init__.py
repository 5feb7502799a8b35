"""Gate-level static timing analysis built on the driver output model.

Layering, bottom up:

* :mod:`repro.core.stage_solver` — the memoized per-stage solve (the paper's full
  Ceff/two-ramp flow behind an LRU memo plus an optional persistent scalar store).
* :mod:`repro.sta.graph` — the timing-graph data model: :class:`GraphNet` DAGs
  with fanout, Kahn levelization, per-node rise/fall worst-arrival merging and
  critical-path traceback (:class:`GraphTimingReport`).
* :mod:`repro.sta.batch` — :class:`~.batch.GraphEngine`, the batched executor:
  each level's unique stage solves are answered from the memo or solved as one
  in-process array batch.  One traversal carries *both analysis planes* — late
  (setup) and early (hold) arrivals share every stage solve, so dual-mode
  analysis costs zero extra solves.
  Constrained graphs (``set_required`` / ``set_clock_period``, either mode)
  additionally get a backward required-time pass, so every event carries
  ``required`` / ``slack`` and ``hold_required`` / ``hold_slack``; and
  :class:`~.batch.IncrementalEngine` re-times only the dirty cone of in-place
  graph edits (``resize_driver``, ``set_line``, ``add_fanout``, ...), bit-identical
  to a from-scratch run.
* :mod:`repro.sta.compiled` — the 100k-net scale tier: :func:`compile_graph`
  freezes a :class:`TimingGraph` into a :class:`CompiledGraph` (struct-of-arrays
  CSR form), and :meth:`GraphEngine.analyze_compiled` runs the same forward and
  backward passes as whole-level numpy sweeps, bit-compatible with the object
  engine.

Every timing run is one serial, batched, memoized pass in the calling process.

The recommended front door to all of this is :class:`repro.api.TimingSession`,
which owns the cell library and the caches, accepts
:class:`TimingPath` and :class:`TimingGraph` designs alike, and returns the
unified, JSON-serializable :class:`repro.api.TimingReport`.  The classic entry
points — :class:`PathTimer` for linear paths and :class:`GraphTimer` for DAGs —
remain as thin deprecation shims over the same engine, so their results are
bit-identical to the session's.
"""

from .batch import GraphEngine, GraphTimer, IncrementalEngine
from .compiled import (TRANSITIONS, CompiledAnalysis, CompiledGraph,
                       SweepState, compile_graph)
from .engine import PathTimer, PathTimingReport, StageTiming
from .graph import (ANALYSIS_MODES, CHECK_MODES, GraphNet, GraphTimingReport,
                    IncrementalStats, NetEventTiming, PrimaryInput,
                    TimingGraph, chain_graph, check_mode, flip_transition)
from .stage import TimingPath, TimingStage
from .validation import PathReference, simulate_path_reference

__all__ = [
    "TimingStage",
    "TimingPath",
    "PathTimer",
    "PathTimingReport",
    "StageTiming",
    "GraphNet",
    "PrimaryInput",
    "TimingGraph",
    "chain_graph",
    "flip_transition",
    "check_mode",
    "ANALYSIS_MODES",
    "CHECK_MODES",
    "NetEventTiming",
    "GraphTimingReport",
    "IncrementalStats",
    "GraphEngine",
    "IncrementalEngine",
    "GraphTimer",
    "PathReference",
    "simulate_path_reference",
    "TRANSITIONS",
    "CompiledGraph",
    "CompiledAnalysis",
    "SweepState",
    "compile_graph",
]
