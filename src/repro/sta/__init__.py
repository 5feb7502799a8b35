"""Gate-level static timing analysis built on the driver output model.

Layering, bottom up:

* :mod:`repro.core.stage_solver` — the memoized per-stage solve (the paper's full
  Ceff/two-ramp flow behind an LRU memo plus an optional persistent scalar store),
  entered through one call, ``StageSolver.solve_batch``.
* :mod:`repro.sta.graph` — the timing-graph data model: :class:`GraphNet` DAGs
  with fanout, Kahn levelization, per-node rise/fall worst-arrival merging,
  endpoint constraints, in-place edits and transactions.
* :mod:`repro.sta.compiled` — the timing engine: :func:`compile_graph`
  freezes a :class:`TimingGraph` into a :class:`CompiledGraph` (struct-of-arrays
  CSR form), and :meth:`~.batch.GraphEngine.analyze_compiled` runs each level as
  whole-level numpy sweeps: merge, dedupe to unique stage keys, look them up
  in the graph's table of solved stages, solve only new keys as one batch,
  scatter.  One traversal
  carries *both analysis planes* — late (setup) and early (hold) arrivals share
  every stage solve, so dual-mode analysis costs zero extra solves.
  Constrained graphs (``set_required`` / ``set_clock_period``, either mode)
  additionally get a backward required-time pass, so every event carries
  ``required`` / ``slack`` and ``hold_required`` / ``hold_slack``.
* :mod:`repro.sta.incremental_compiled` — re-times only the dirty cone of
  in-place graph edits (``resize_driver``, ``set_line``, ``add_fanout``, ...)
  over the compiled planes, bit-identical to a from-scratch run.
* :mod:`repro.sta.batch` — :class:`~.batch.GraphEngine`, which owns the compile
  and compiled-sweep entry points, plus the per-object reference sweep
  (:meth:`~.batch.GraphEngine.analyze`) that the equivalence tests compare
  the compiled engine against; :class:`~.batch.IncrementalEngine` attaches it
  to one graph and re-times the whole graph on every update.  Both return
  an eager :class:`repro.api.TimingReport`.

Every timing run is one serial, batched, memoized pass in the calling process.

The front door to all of this is :class:`repro.api.TimingSession`, which owns
the cell library and the caches, times :class:`TimingPath` designs (as their
chain-shaped graphs) and :class:`TimingGraph` designs alike on the compiled
engine, and returns the unified, JSON-serializable
:class:`repro.api.TimingReport`.
"""

from .batch import GraphEngine, IncrementalEngine
from .compiled import (TRANSITIONS, CompiledAnalysis, CompiledGraph,
                       SweepState, compile_graph)
from .graph import (CHECK_MODES, GraphNet, IncrementalStats, PrimaryInput,
                    TimingGraph, chain_graph, check_mode, flip_transition)
from .stage import TimingPath, TimingStage
from .validation import PathReference, simulate_path_reference

__all__ = [
    "TimingStage",
    "TimingPath",
    "GraphNet",
    "PrimaryInput",
    "TimingGraph",
    "chain_graph",
    "flip_transition",
    "check_mode",
    "CHECK_MODES",
    "IncrementalStats",
    "GraphEngine",
    "IncrementalEngine",
    "PathReference",
    "simulate_path_reference",
    "TRANSITIONS",
    "CompiledGraph",
    "CompiledAnalysis",
    "SweepState",
    "compile_graph",
]
