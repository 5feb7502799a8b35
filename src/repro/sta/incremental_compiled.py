"""Dirty-cone incremental updates on the compiled struct-of-arrays engine.

After a parameter edit the compiled snapshot is patched in place
(:meth:`~.compiled.CompiledGraph.patch`), and one loop re-runs the sweep
only where the edit can matter, on the :class:`~.compiled.SweepPlan` the
full sweep runs:

* :func:`incremental_sweep` steps the levels ascending from the lowest
  dirty one, re-merging and re-solving the *active* nets — the dirty nets,
  then the fanout of every net whose outputs (existence, late/early
  arrivals, delay, propagated slew) changed bitwise; a net whose outputs
  came out identical drops its fanout from the cone.  A level with few
  inactive events runs its planned :class:`~.compiled.MergePlan` whole; any
  other level runs the plan restricted to its active nets.
* :func:`incremental_required` mirrors it backward over the transitive
  *fanin* of the changed nets, outside which no required time can move: the
  small levels at the bottom run the planned
  :class:`~.compiled.RequiredPlan` whole, the cone above them its restriction.

Both write a spare copy of the prior planes — one of two plane buffers the
engine alternates between, caught up by copying only the events the
previous update wrote, so issued analyses keep describing their state —
through the full sweep's level step and the compiled graph's one
:class:`~.compiled.SolutionTable`.  One key has one row and the merge
election is per target, so an update is bit-identical to a full compiled
sweep of the edited graph on the same snapshot, in every plane.
:class:`CompiledIncrementalEngine` is the timer's one incremental engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, FrozenSet, List, Optional

import numpy as np

from ..errors import ModelingError
from .compiled import (CompiledAnalysis, CompiledGraph, SweepPlan,
                       SweepState, _csr_rows, _interleave, _PlaneBuffer,
                       _unshared, backward_required, input_seeds,
                       required_seeds, seed_primary_inputs)
from .graph import IncrementalStats, TimingGraph

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from .batch import GraphEngine

__all__ = ["SweepDelta", "incremental_sweep", "incremental_required",
           "CompiledIncrementalEngine"]

#: A level runs whole when at most this many of its events are inactive; the
#: array calls that slice its plan would cost more (every level of a 1k
#: ``soc``, the root levels of a 10k one, none of a 100k cone's).
_WHOLE_LEVEL_SLACK = 512

_NO_NETS = np.empty(0, dtype=np.int64)


def _level_of(cg: CompiledGraph, net_id) -> int:
    return int(cg.level_ptr.searchsorted(net_id, side="right")) - 1


def _outputs(state: SweepState):
    """The planes a net's consumers and its required times read."""
    return (state.exists, state.out_arr, state.early_out, state.prop_slew,
            state.delay)


def _moved(pairs, span=slice(None)) -> np.ndarray:
    """Per net of ``span``: does any (old, new) plane pair differ bitwise?"""
    moved = False
    for old, new in pairs:
        a, b = old[span], new[span]
        if a.dtype == np.float64:  # bitwise, so NaN == NaN
            a, b = a.view(np.uint64), b.view(np.uint64)
        moved = moved | (a != b)
    return moved[0::2] | moved[1::2]


def _union(*ids: np.ndarray) -> np.ndarray:
    """The sorted union of int arrays: ``np.union1d`` without its hashing."""
    merged = np.concatenate(ids)
    merged.sort()
    first = np.empty(merged.size, dtype=bool)
    first[:1] = True
    np.not_equal(merged[1:], merged[:-1], out=first[1:])
    return merged[first]


def _reset(state: SweepState, events: np.ndarray) -> None:
    """Give vanished ``events`` their from-scratch values in every plane."""
    if events.size:
        for plane, fresh in zip(state.planes(),
                                SweepState.empty(events.size).planes()):
            plane[events] = fresh


@dataclass(eq=False)
class SweepDelta:
    """What one masked forward sweep actually did."""

    visited: np.ndarray  #: int64, net ids re-merged and re-solved (the cone)
    changed: np.ndarray  #: int64, visited nets whose outputs changed bitwise
    converged_early: int  #: visited nets whose outputs converged bit-identical


def incremental_sweep(cg: CompiledGraph, graph: TimingGraph, state: SweepState,
                      prior: SweepState, plan: SweepPlan, dirty_ids: np.ndarray,
                      sweep_level, install: bool) -> SweepDelta:
    """Re-run the forward sweep over the dirty fanout cone, in place.

    ``state`` holds a complete sweep of the (patched) compiled graph, equal
    to ``prior``, which stays untouched; ``plan`` is the sweep plan of the
    current root events, and ``install`` says the planes were swept with
    another (a root changed transition).  ``sweep_level`` is the engine's
    level step, called with each level's plan, whole or restricted.  Pending
    net ids stay sorted (net ids run in level order).  Whole levels in a row
    form a span whose changed nets one bitwise diff finds when it closes, so
    a run of small levels pays no per-level bookkeeping.  Vanished events
    are reset to their from-scratch values.  ``visited`` are the nets a cone
    reaches (the dirty ones and the fanout of changed ones), however their
    levels ran.
    """
    visited: List[np.ndarray] = []
    changed: List[np.ndarray] = []
    converged = 0
    bounds = cg.level_ptr.tolist()
    outputs, prior_outputs = _outputs(state), _outputs(prior)
    pending = _union(dirty_ids)

    def close(first: int, stop: int) -> np.ndarray:
        """Account for the whole levels ``first`` .. ``stop - 1``; the rest of ``pending``."""
        nonlocal converged
        span = slice(2 * bounds[first], 2 * bounds[stop])
        if install:
            _reset(state, span.start + np.flatnonzero(
                prior.exists[span] > state.exists[span]))
        skip = 0 if install else 1  # else no event appeared or vanished
        pairs = zip(prior_outputs[skip:], outputs[skip:])
        old, plane = next(pairs)
        moved = plane[span] != old[span]
        for old, plane in pairs:
            moved |= plane[span] != old[span]
        # Each net's two flags, viewed as one uint16: nonzero if either is.
        moved_nets = bounds[first] + np.flatnonzero(moved.view(np.uint16))
        reached = _union(pending, _csr_rows(
            cg.fo_indptr, cg.fo_indices, moved_nets)[0])
        split = int(reached.searchsorted(bounds[stop]))
        visited.append(reached[:split])
        changed.append(moved_nets)
        converged += split - moved_nets.size
        return reached[split:]

    start = None  # the first level of the open span of whole levels
    level = 0
    while level < cg.n_levels:
        if start is None:
            if not pending.size:
                break
            level = max(level, _level_of(cg, pending[0]))
        step = plan.levels[level]
        small = step.events.size <= _WHOLE_LEVEL_SLACK
        if not small and start is not None:
            pending, start = close(start, level), None
            continue
        split = 0 if small else int(pending.searchsorted(bounds[level + 1]))
        if small or step.events.size - split <= _WHOLE_LEVEL_SLACK:
            if install:
                state.exists[2 * bounds[level]:2 * bounds[level + 1]] = False
                step.install(state)
            if level == 0:  # primary inputs stimulate roots, and roots only
                seed_primary_inputs(cg, graph, state)
            sweep_level(step)
            start = level if start is None else start
            level += 1
            continue
        lvl, pending = pending[:split], pending[split:]
        visited.append(lvl)
        candidates = _interleave(lvl)
        step = step.restrict(lvl)
        state.exists[candidates] = False
        if level == 0:
            seed_primary_inputs(cg, graph, state, lvl)
        step.install(state)
        sweep_level(step)
        was = prior.exists[candidates]
        exists = state.exists[candidates]
        _reset(state, candidates[was > exists])
        # Event convergence: a net whose far-end outputs came out bitwise
        # identical cannot affect its consumers' merges (nor, delay included,
        # their required times) — drop its fanout from the cone.  Events
        # that exist neither before nor after hold from-scratch values.
        same = exists == was
        for old, plane in zip(prior_outputs[1:], outputs[1:]):
            same &= plane[candidates] == old[candidates]
        same_net = same[0::2] & same[1::2]
        converged += int(np.count_nonzero(same_net))
        lvl_changed = lvl[~same_net]
        if lvl_changed.size:
            changed.append(lvl_changed)
            pending = _union(pending, _csr_rows(
                cg.fo_indptr, cg.fo_indices, lvl_changed)[0])
        level += 1
    if start is not None:
        close(start, cg.n_levels)
    return SweepDelta(visited=np.concatenate(visited) if visited else _NO_NETS,
                      changed=np.concatenate(changed) if changed else _NO_NETS,
                      converged_early=converged)


def incremental_required(cg: CompiledGraph, state: SweepState, plan: SweepPlan,
                         changed_ids: np.ndarray,
                         setup_seeds: Optional[np.ndarray],
                         hold_seeds: Optional[np.ndarray],
                         required: np.ndarray,
                         hold_required: np.ndarray) -> np.ndarray:
    """Refresh required planes over the fanin cone of ``changed_ids``, in place.

    An event's required time depends only on its seed and on its fanout
    consumers' required times and delays, so outside the transitive fanin of
    the changed nets (ascending) nothing moves.  The levels at the bottom
    holding at most :data:`_WHOLE_LEVEL_SLACK` events, up to the deepest
    changed one, run whole; above them the cone runs the plan's
    :meth:`~.compiled.RequiredPlan.restrict`.  Refreshed entries are set to
    NaN first, so vanished events stay NaN.  Returns the refreshed net ids,
    ascending.
    """
    small = 0
    deepest = _level_of(cg, changed_ids[-1])
    while small <= deepest and plan.levels[small].events.size <= _WHOLE_LEVEL_SLACK:
        small += 1
    whole = int(cg.level_ptr[small])  # the nets below run whole
    region, cone = set(), _NO_NETS
    stack = changed_ids[changed_ids.searchsorted(whole):].tolist()
    while stack:
        net_id = stack.pop()
        if net_id not in region:
            region.add(net_id)
            stack.extend(source for source in cg.fi_indices[
                cg.fi_indptr[net_id]:cg.fi_indptr[net_id + 1]].tolist()
                if source >= whole)
    if region:
        cone = np.fromiter(sorted(region), dtype=np.int64, count=len(region))
        candidates = _interleave(cone)
        for plane, seeds in ((required, setup_seeds), (hold_required, hold_seeds)):
            if seeds is not None:
                plane[candidates] = np.nan
        plan.required.restrict(cg, candidates[state.exists[candidates]]).run(
            state, setup_seeds, hold_seeds, required, hold_required)
    if whole:
        for plane, seeds in ((required, setup_seeds), (hold_required, hold_seeds)):
            if seeds is not None:
                plane[:2 * whole] = np.nan
        plan.required.run(state, setup_seeds, hold_seeds, required, hold_required,
                          end=2 * whole if whole < cg.n_nets else None)
    return np.concatenate((np.arange(whole, dtype=np.int64), cone))


class CompiledIncrementalEngine:
    """Re-times a graph's edits on the compiled planes.

    Attached to one :class:`~.graph.TimingGraph`, it consumes the graph's
    dirty set and re-times the edits with :func:`incremental_sweep`.  The
    caller (normally :meth:`repro.api.TimingSession.update`) patches or
    recompiles the snapshot and passes it into every :meth:`update`; a new
    snapshot (a recompile after topology edits) re-analyzes in full.

    Planes are double-buffered.  The *live* buffer backs the last published
    analysis and is never written again; the *spare* differs from it only on
    the events the last update wrote.  An update copies those events into
    the spare, sweeps it in place and publishes it, so no per-update copy is
    sized by the graph.  The spare is written only while nothing outside the
    engine reads it (:func:`_unshared`); else the update clones the live
    planes.  A rolled-back :meth:`TimingGraph.transaction`, or an update that
    raises, drops the planes, so the next update re-times in full.
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
        self._plan: Optional[SweepPlan] = None  #: the plan the live planes swept
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
        self._plan = None
        self.last_changed_nets = None

    def _rolled_back(self, graph: TimingGraph) -> None:
        """Rollback hook: the graph undid edits these planes absorbed."""
        self.invalidate()

    def _full_update(self, cg: CompiledGraph, *, patched_nets: int,
                     dirty_nets: int) -> CompiledAnalysis:
        analysis = self.engine.analyze_compiled(self.graph, compiled_graph=cg)
        cg.release_sweep_buffer(analysis.state)  # these planes are ours now
        self._cg = cg
        self._live = _PlaneBuffer(analysis.state, analysis.required,
                                  analysis.hold_required)
        self._written = None  # the kept spare (nets are fixed) needs a full copy
        self._timed = True
        self._plan = cg.sweep_plan(input_seeds(cg, self.graph)[0])
        self.last_changed_nets = None
        n = len(self.graph)
        analysis.incremental = IncrementalStats(
            dirty_nets=dirty_nets, retimed_nets=n, required_nets=n,
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
        delta = SweepDelta(visited=_NO_NETS, changed=_NO_NETS, converged_early=0)
        live = buffer = self._live
        touched = _NO_NETS  #: nets whose planes this update may have moved
        try:
            if dirty or constraints_dirty:
                buffer = self._writable()
                state = buffer.state
            plan = cg.sweep_plan(input_seeds(cg, graph)[0])
            if dirty:
                dirty_ids = np.fromiter(map(cg.index.__getitem__, dirty),
                                        dtype=np.int64, count=len(dirty))
                delta = incremental_sweep(
                    cg, graph, state, live.state, plan, dirty_ids,
                    partial(self.engine._sweep_compiled_level, cg, table, state),
                    install=plan is not self._plan)
                touched = delta.visited
            if constraints_dirty:
                # Constraint edits can move required times anywhere: re-seed
                # and re-run the full backward pass (pure arithmetic).
                buffer.required, buffer.hold_required = backward_required(
                    cg, state, *required_seeds(cg, graph))
                required_nets = len(graph)
            elif delta.changed.size and graph.constrained:
                region = incremental_required(
                    cg, state, plan, delta.changed, *required_seeds(cg, graph),
                    buffer.required, buffer.hold_required)
                required_nets = int(region.size)
                # Nets whose required times moved rebuild their report events
                # too.  A region that starts with whole levels is a prefix.
                prefix = region[-1] == region.size - 1
                moved_nets = region[_moved(
                    ((live.required, buffer.required),
                     (live.hold_required, buffer.hold_required)),
                    slice(0, 2 * region.size) if prefix else _interleave(region))]
                touched = _union(touched, moved_nets)
            if buffer is not live:
                # Publish: the old live buffer becomes the spare, differing
                # from the new live one at most on the touched nets' events.
                self._live, self._spare = buffer, live
                self._written = None if constraints_dirty else _interleave(touched)
            self._plan = plan
            self.last_changed_nets = (None if constraints_dirty else frozenset(
                map(cg.order.__getitem__, touched.tolist())))
        except Exception:
            # The dirty set is consumed, and the planes may not describe the
            # graph; drop every plane — the next update re-times in full.
            self.invalidate()
            raise

        analysis = CompiledAnalysis(
            graph=cg, state=buffer.state, required=buffer.required,
            hold_required=buffer.hold_required, solutions=table.solutions,
            stats=solver.stats.since(before),
            elapsed=time.perf_counter() - started)
        analysis.incremental = IncrementalStats(
            dirty_nets=len(dirty), retimed_nets=int(delta.visited.size),
            required_nets=required_nets,
            hold_required_nets=required_nets if graph.hold_constrained else 0,
            patched_nets=patched_nets,
            cone_converged_early=delta.converged_early)
        return analysis
