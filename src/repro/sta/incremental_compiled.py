"""Dirty-cone incremental updates on the compiled struct-of-arrays engine.

The compiled tier makes *from-scratch* analysis fast at 100k nets (CSR
sweeps); this module makes *edits* fast.  After a parameter edit the
compiled snapshot is patched in place (:meth:`~.compiled.CompiledGraph.patch`)
and the sweep re-runs only where the edit can matter:

* :func:`incremental_sweep` walks the levels ascending, re-merging and
  re-solving just the *active* nets of each level — initially the dirty nets,
  then the fanout of every net whose outputs actually changed.  A net whose
  re-solved outputs (existence, late/early arrivals, delay, propagated slew)
  come out **bit-identical** to the previous state drops its fanout from the
  cone — the event-convergence early exit that keeps a resize whose effect
  dies after two stages from re-timing its whole transitive fanout.  It
  tracks the pending net ids themselves, so it touches only the levels that
  hold active nets and allocates nothing sized by the graph.
* :func:`incremental_required` mirrors it backward: required times are
  refreshed over the transitive *fanin* of the changed nets (their values
  depend only on seeds and on fanout-consumer delays, so everything outside
  that cone is provably unchanged).  It gathers the whole cone into one
  :class:`~.compiled.RequiredPlan` — consumers and level bounds, then
  delays and seeds — and runs only the dependent arithmetic per level, as
  the full backward pass does with the plan it keeps for the whole graph.

Both run in place on a spare copy of the prior :class:`~.compiled.SweepState`
and required planes — one of two plane buffers the engine alternates between,
brought up to date by copying only the events the previous update wrote, so
analyses already handed out (and the serve daemon's snapshot reads built on
them) keep describing the state they analyzed without an O(graph) copy per
update — and through the same solve step as the full sweep, on the same
:class:`~.compiled.SolutionTable` of the compiled graph.  Because one key
has one row, answering every sweep with one solution, and the merge
election is per-target independent, an incremental update is bit-identical
to a full compiled sweep of the edited graph on the same snapshot, in every
plane, ``sol_idx`` included.

:class:`CompiledIncrementalEngine` packages this as the timer's one
incremental engine: attached to one graph, consuming its dirty set,
producing a full :class:`~.compiled.CompiledAnalysis` per update whose
``incremental`` stats say how much of the graph was touched.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, FrozenSet, List, Optional, Set

import numpy as np

from ..errors import ModelingError
from .compiled import (CompiledAnalysis, CompiledGraph, RequiredPlan,
                       SweepState, _csr_rows, _interleave, _PlaneBuffer,
                       _unshared, backward_required, merge_nets,
                       required_seeds, seed_primary_inputs)
from .graph import IncrementalStats, TimingGraph

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from .batch import GraphEngine

__all__ = ["SweepDelta", "incremental_sweep", "incremental_required",
           "CompiledIncrementalEngine"]


@dataclass(eq=False)
class SweepDelta:
    """What one masked forward sweep actually did."""

    visited: np.ndarray  #: int64, net ids re-merged and re-solved (the cone)
    changed: np.ndarray  #: int64, visited nets whose outputs changed bitwise
    retimed_events: int  #: events re-solved across the visited nets
    converged_early: int  #: visited nets whose outputs converged bit-identical


def incremental_sweep(cg: CompiledGraph, graph: TimingGraph, state: SweepState,
                      dirty_ids: np.ndarray, solve_level) -> SweepDelta:
    """Re-run the forward sweep over the dirty fanout cone, in place.

    ``state`` must hold a complete prior sweep of the same (patched) compiled
    graph; ``dirty_ids`` the net ids the edits dirtied; ``solve_level`` the
    engine's dedupe/solve/scatter seam, called once per level with
    the level's re-merged event ids.  The sweep keeps the pending net ids
    sorted (net ids run in level order) and visits only the levels that
    hold any, so no step is sized by the graph.  Merge and solve rewrite
    every plane of each event that exists afterwards; an event that
    vanished (a re-stimulated root changing transition) is reset to its
    from-scratch values, so every plane of the result is bit-identical to
    a from-scratch sweep of the edited graph.
    """
    visited: List[np.ndarray] = []
    changed: List[np.ndarray] = []
    retimed_events = 0
    converged = 0
    outputs = (state.exists, state.out_arr, state.early_out, state.prop_slew,
               state.delay)
    pending = np.unique(dirty_ids)
    while pending.size:
        level = int(np.searchsorted(cg.level_ptr, pending[0], side="right")) - 1
        split = int(np.searchsorted(pending, cg.level_ptr[level + 1]))
        lvl, pending = pending[:split], pending[split:]
        visited.append(lvl)
        candidates = _interleave(lvl)
        prior = [plane[candidates] for plane in outputs]
        state.exists[candidates] = False
        if level == 0:  # primary inputs stimulate roots, and roots only
            seed_primary_inputs(cg, graph, state, lvl)
        merge_nets(cg, state, lvl)
        exists = state.exists[candidates]
        events = candidates[exists]
        if events.size:
            solve_level(events)
        retimed_events += int(events.size)
        vanished = candidates[prior[0] > exists]
        if vanished.size:
            for plane, fresh in zip(state.planes(),
                                    SweepState.empty(vanished.size).planes()):
                plane[vanished] = fresh
        # Event convergence: a net whose far-end outputs came out bitwise
        # identical cannot affect its consumers' merges (nor, delay included,
        # their required times) — drop its fanout from the cone.  Events
        # that exist neither before nor after hold from-scratch values.
        same = exists == prior[0]
        for old, plane in zip(prior[1:], outputs[1:]):
            same &= plane[candidates] == old
        same_net = same[0::2] & same[1::2]
        converged += int(np.count_nonzero(same_net))
        lvl_changed = lvl[~same_net]
        if lvl_changed.size:
            changed.append(lvl_changed)
            pending = np.union1d(pending, _csr_rows(
                cg.fo_indptr, cg.fo_indices, lvl_changed)[0])
    empty = np.empty(0, dtype=np.int64)
    return SweepDelta(visited=np.concatenate(visited) if visited else empty,
                      changed=np.concatenate(changed) if changed else empty,
                      retimed_events=retimed_events,
                      converged_early=converged)


def incremental_required(cg: CompiledGraph, state: SweepState,
                         changed_ids: np.ndarray,
                         setup_seeds: Optional[np.ndarray],
                         hold_seeds: Optional[np.ndarray],
                         required: np.ndarray,
                         hold_required: np.ndarray) -> np.ndarray:
    """Refresh required planes over the fanin cone of ``changed_ids``, in place.

    An event's required time depends only on its constraint seed and on its
    fanout consumers' required times and stage delays.  Outside the
    transitive fanin of the changed nets every consumer is itself outside the
    cone (the cone is fanin-closed), so those values are provably unchanged —
    the masked pass rewrites exactly the cone, reading unchanged consumer
    entries straight from the prior planes.  The whole cone is gathered into
    one :class:`~.compiled.RequiredPlan` (each seed looked up once), the
    cone's entries are set to NaN once — vanished events stay NaN, and an
    unconstrained plane stays all-NaN end to end — and the plan runs its
    level steps in descending order.  Returns the cone's net ids, ascending.
    """
    region: Set[int] = set()
    stack = changed_ids.tolist()
    while stack:
        net_id = stack.pop()
        if net_id not in region:
            region.add(net_id)
            stack.extend(cg.fi_indices[cg.fi_indptr[net_id]:
                                       cg.fi_indptr[net_id + 1]].tolist())
    cone = np.fromiter(sorted(region), dtype=np.int64, count=len(region))
    candidates = _interleave(cone)
    if setup_seeds is not None:
        required[candidates] = np.nan
    if hold_seeds is not None:
        hold_required[candidates] = np.nan
    events = candidates[state.exists[candidates]]
    if events.size:
        RequiredPlan(cg, events).run(state, setup_seeds, hold_seeds,
                                     required, hold_required)
    return cone


class CompiledIncrementalEngine:
    """Re-times a graph's edits on the compiled planes.

    Stays attached to one :class:`~.graph.TimingGraph`, consumes its dirty
    set, and re-times edits through masked compiled sweeps over persistent
    planes.  The caller (normally :meth:`repro.api.TimingSession.update`)
    owns the compiled snapshot's lifecycle — patch vs recompile — and passes
    the current snapshot into every :meth:`update`; a snapshot identity
    change (a recompile after topology edits) triggers a full re-analysis.

    Planes are double-buffered.  The *live* buffer backs the last published
    analysis and is never written again; the *spare* holds the state before
    it and differs from it only on the events the last update wrote.  An
    update copies just those events (every plane after a full or
    constraint-driven backward pass) from live into the spare, sweeps the
    spare in place and publishes it; the old live buffer becomes the spare.
    So no per-update copy is sized by the graph, at the cost of one retained
    spare.  The spare is written only while nothing outside the engine can
    read it (:func:`_unshared`); a held earlier report or an in-flight serve
    read makes the update clone the live planes instead, which is what keeps
    every issued analysis describing the state it analyzed.

    Every analysis indexes the compiled graph's append-only
    :class:`~.compiled.SolutionTable`, so earlier analyses' ``sol_idx``
    planes stay valid.  The engine is the single consumer of its graph's
    dirty set.  An update inside :meth:`TimingGraph.transaction` that rolls
    back drops the planes (the rollback restores edits and dirt they
    absorbed), so the next update re-times in full; a compiled snapshot
    patched inside the block no longer describes the graph, so the caller
    recompiles it.
    """

    def __init__(self, engine: "GraphEngine", graph: TimingGraph) -> None:
        if not isinstance(graph, TimingGraph):
            raise ModelingError("CompiledIncrementalEngine expects a TimingGraph")
        self.engine = engine
        self.graph = graph
        self._cg: Optional[CompiledGraph] = None
        self._live: Optional[_PlaneBuffer] = None
        self._spare: Optional[_PlaneBuffer] = None
        #: Event ids where the spare differs from the live buffer (None =
        #: potentially every event).
        self._written: Optional[np.ndarray] = None
        self._timed = False
        #: Nets the last update re-timed or re-required (None = potentially
        #: everything); report construction reuses events everywhere else.
        self.last_changed_nets: Optional[FrozenSet[str]] = None

    def invalidate(self) -> None:
        """Drop the cached planes; the next :meth:`update` re-times in full."""
        self._cg = None
        self._live = None
        self._spare = None
        self._written = None
        self._timed = False
        self.last_changed_nets = None

    def _rolled_back(self, graph: TimingGraph) -> None:
        """Rollback hook: the graph undid edits these planes absorbed."""
        self.invalidate()

    def _full_update(self, cg: CompiledGraph, *, patched_nets: int,
                     dirty_nets: int) -> CompiledAnalysis:
        analysis = self.engine.analyze_compiled(self.graph, compiled_graph=cg)
        cg.release_sweep_buffer(analysis.state)  # these planes are ours now
        spare = self._spare
        if spare is not None and spare.required.size != analysis.required.size:
            spare = None
        self._cg = cg
        self._live = _PlaneBuffer(analysis.state, analysis.required,
                                  analysis.hold_required)
        self._spare = spare
        self._written = None
        self._timed = True
        self.last_changed_nets = None
        n = len(self.graph)
        analysis.incremental = IncrementalStats(
            dirty_nets=dirty_nets, retimed_nets=n,
            retimed_events=analysis.n_events, required_nets=n,
            hold_required_nets=n if self.graph.hold_constrained else 0,
            patched_nets=patched_nets, cone_converged_early=0)
        return analysis

    def _writable(self) -> _PlaneBuffer:
        """A buffer equal to the live one that no issued analysis reads."""
        live, spare = self._live, self._spare
        self._spare = None
        if spare is None or not _unshared(spare):
            return live.clone()
        written = self._written
        for target, source in zip(spare.planes(), live.planes()):
            if written is None:
                np.copyto(target, source)
            else:
                target[written] = source[written]
        return spare

    def update(self, cg: CompiledGraph, *,
               patched_nets: int = 0) -> CompiledAnalysis:
        """Re-time what the edits since the last update actually dirtied.

        ``cg`` is the graph's *current* compiled snapshot (already patched or
        recompiled by the caller; its version must match the graph).  The
        first call, and any call after a recompile or :meth:`invalidate`,
        analyzes in full.
        """
        graph = self.graph
        if cg.version != graph.version:
            raise ModelingError(
                "compiled snapshot is stale; patch or recompile before an "
                "incremental update")
        graph.on_rollback(self._rolled_back)  # what follows absorbs the edits
        dirty = set(graph.dirty_nets)
        constraints_dirty = graph.constraints_dirty
        graph.clear_dirty()
        if not self._timed or cg is not self._cg:
            return self._full_update(cg, patched_nets=patched_nets,
                                     dirty_nets=len(dirty) or len(graph))

        started = time.perf_counter()
        solver = self.engine.solver
        before = solver.stats.snapshot()
        table = cg.solution_table(self.engine.options, solver)
        required_nets = 0
        delta = SweepDelta(visited=np.empty(0, dtype=np.int64),
                           changed=np.empty(0, dtype=np.int64),
                           retimed_events=0, converged_early=0)
        live = buffer = self._live
        try:
            changed_names: Set[str] = set()
            if dirty or constraints_dirty:
                buffer = self._writable()
                state = buffer.state
            written: Optional[np.ndarray] = None
            if dirty:
                dirty_ids = np.fromiter((cg.index[name] for name in dirty),
                                        dtype=np.int64, count=len(dirty))
                delta = incremental_sweep(
                    cg, graph, state, dirty_ids,
                    partial(self.engine._solve_compiled_level, cg, table, state))
                changed_names.update(cg.order[i]
                                     for i in delta.visited.tolist())
                written = _interleave(delta.visited)

            if constraints_dirty:
                # Constraint edits can move required times anywhere: re-seed
                # and re-run the full backward pass (pure arithmetic).
                buffer.required, buffer.hold_required = backward_required(
                    cg, state, *required_seeds(cg, graph))
                required_nets = len(graph)
                written = None
            elif delta.changed.size and graph.constrained:
                setup_seeds, hold_seeds = required_seeds(cg, graph)
                region = incremental_required(
                    cg, state, delta.changed, setup_seeds, hold_seeds,
                    buffer.required, buffer.hold_required)
                required_nets = int(region.size)
                # Nets whose required times moved rebuild their report
                # events too (NaN == NaN counts as unchanged).
                span = _interleave(region)
                moved = np.zeros(span.size, dtype=bool)
                for old, new in ((live.required, buffer.required),
                                 (live.hold_required, buffer.hold_required)):
                    a, b = old[span], new[span]
                    moved |= ~((a == b) | (np.isnan(a) & np.isnan(b)))
                moved_nets = region[moved[0::2] | moved[1::2]]
                changed_names.update(cg.order[i] for i in moved_nets.tolist())
                written = np.concatenate((written, span))
            if buffer is not live:
                # Publish: the old live buffer becomes the spare, differing
                # from the new live one exactly where this update wrote.
                self._live, self._spare = buffer, live
                self._written = written
            self.last_changed_nets = (None if constraints_dirty
                                      else frozenset(changed_names))
        except Exception:
            # The dirty set is consumed and the written buffer was never
            # published; drop every plane — the next update re-times in full.
            self.invalidate()
            raise

        analysis = CompiledAnalysis(
            graph=cg, state=buffer.state, required=buffer.required,
            hold_required=buffer.hold_required, solutions=table.solutions,
            stats=solver.stats.since(before),
            elapsed=time.perf_counter() - started)
        analysis.incremental = IncrementalStats(
            dirty_nets=len(dirty), retimed_nets=int(delta.visited.size),
            retimed_events=delta.retimed_events, required_nets=required_nets,
            hold_required_nets=required_nets if graph.hold_constrained else 0,
            patched_nets=patched_nets,
            cone_converged_early=delta.converged_early)
        return analysis
