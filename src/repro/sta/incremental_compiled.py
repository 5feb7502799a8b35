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
  dies after two stages from re-timing its whole transitive fanout.
* :func:`incremental_required` mirrors it backward: required times are
  refreshed over the transitive *fanin* of the changed nets (their values
  depend only on seeds and on fanout-consumer delays, so everything outside
  that cone is provably unchanged), reusing the per-level kernel
  :func:`~.compiled.required_level` of the full backward pass.

Both reuse the prior :class:`~.compiled.SweepState` planes — cloned first, so
analyses already handed out (and the serve daemon's snapshot reads built on
them) keep describing the state they analyzed — and the same
``level_solve_keys`` / ``scatter_level_solutions`` solve seam as the full
sweep.  Because the
solver memo answers identical fingerprints with identical solutions and the
merge election is per-target independent, an incremental update is
bit-identical to a from-scratch compiled sweep of the edited graph, in every
plane (``sol_idx`` aside, which indexes the engine's append-only solution
list rather than a per-analysis one).

:class:`CompiledIncrementalEngine` packages this as the compiled twin of
:class:`repro.sta.batch.IncrementalEngine`: attached to one graph, consuming
its dirty set, producing a full :class:`~.compiled.CompiledAnalysis` per
update whose ``incremental`` stats say how much of the graph was touched.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, FrozenSet, List, Optional, Set

import numpy as np

from ..core.stage_solver import (SolverStats, StageSolution,
                                 _options_fingerprint)
from ..errors import ModelingError
from .compiled import (TRANSITIONS, CompiledAnalysis, CompiledGraph,
                       SweepState, backward_required, constraint_seeds,
                       merge_nets, required_level)
from .graph import IncrementalStats, TimingGraph, check_mode, flip_transition

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


def _seed_roots(cg: CompiledGraph, graph: TimingGraph, state: SweepState,
                nets: np.ndarray) -> None:
    """Re-install live primary-input stimuli on the root nets of ``nets``."""
    primary_inputs = graph.primary_inputs
    for net_id in nets.tolist():
        primary = primary_inputs.get(cg.order[net_id])
        if primary is None:
            continue
        event = net_id * 2 + TRANSITIONS.index(primary.transition)
        state.exists[event] = True
        state.in_arr[event] = primary.arrival
        state.early_in[event] = primary.arrival
        state.in_slew[event] = primary.slew


def _interleave(nets: np.ndarray) -> np.ndarray:
    """Both event ids of every net: [n0*2, n0*2+1, n1*2, ...]."""
    events = np.empty(2 * nets.size, dtype=np.int64)
    events[0::2] = nets * 2
    events[1::2] = nets * 2 + 1
    return events


def _gather_targets(indptr: np.ndarray, indices: np.ndarray,
                    ids: np.ndarray) -> np.ndarray:
    """All CSR row entries of ``ids``, concatenated (duplicates possible)."""
    counts = indptr[ids + 1] - indptr[ids]
    total = int(counts.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    ptr = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    positions = (np.arange(total, dtype=np.int64)
                 - np.repeat(ptr[:-1], counts)
                 + np.repeat(indptr[ids], counts))
    return indices[positions]


def incremental_sweep(cg: CompiledGraph, graph: TimingGraph, state: SweepState,
                      dirty_ids: np.ndarray, solve_level) -> SweepDelta:
    """Re-run the forward sweep over the dirty fanout cone, in place.

    ``state`` must hold a complete prior sweep of the same (patched) compiled
    graph; ``dirty_ids`` the net ids the edits dirtied; ``solve_level`` the
    engine's dedupe/solve/scatter seam, called once per level with
    the level's re-merged event ids.  Visited slots are reset to their
    from-scratch zeros before re-merging, so vanished events (a re-stimulated
    root changing transition) leave no residue and every plane of the result
    is bit-identical to a from-scratch sweep of the edited graph.
    """
    n = cg.n_nets
    active = np.zeros(n, dtype=bool)
    active[dirty_ids] = True
    visited: List[np.ndarray] = []
    changed_mask = np.zeros(n, dtype=bool)
    retimed_events = 0
    converged = 0
    for level in range(cg.n_levels):
        net_lo, net_hi = int(cg.level_ptr[level]), int(cg.level_ptr[level + 1])
        lvl = np.flatnonzero(active[net_lo:net_hi]) + net_lo
        if not lvl.size:
            continue
        visited.append(lvl)
        candidates = _interleave(lvl)
        prior_exists = state.exists[candidates].copy()
        prior_planes = tuple(plane[candidates].copy() for plane in (
            state.out_arr, state.early_out, state.prop_slew, state.delay))
        # Reset the visited slots to their never-touched values: merge and
        # scatter only install winners, so a stale event would otherwise
        # survive its sources vanishing.
        state.exists[candidates] = False
        for plane in (state.in_arr, state.early_in, state.in_slew,
                      state.out_arr, state.early_out, state.delay,
                      state.prop_slew):
            plane[candidates] = 0.0
        state.src[candidates] = -1
        state.early_src[candidates] = -1
        state.sol_idx[candidates] = -1
        _seed_roots(cg, graph, state, lvl)
        events = merge_nets(cg, state, lvl)
        if events.size:
            solve_level(events)
        retimed_events += int(events.size)
        # Event convergence: a net whose far-end outputs came out bitwise
        # identical cannot affect its consumers' merges (nor, delay included,
        # their required times) — drop its fanout from the cone.
        new_exists = state.exists[candidates]
        same = new_exists == prior_exists
        for prior, plane in zip(prior_planes, (
                state.out_arr, state.early_out, state.prop_slew, state.delay)):
            same &= ~new_exists | (plane[candidates] == prior)
        same_net = same[0::2] & same[1::2]
        converged += int(np.count_nonzero(same_net))
        lvl_changed = lvl[~same_net]
        if lvl_changed.size:
            changed_mask[lvl_changed] = True
            active[_gather_targets(cg.fo_indptr, cg.fo_indices,
                                   lvl_changed)] = True
    visited_ids = (np.concatenate(visited) if visited
                   else np.empty(0, dtype=np.int64))
    return SweepDelta(visited=visited_ids,
                      changed=np.flatnonzero(changed_mask),
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
    entries straight from the prior planes.  Returns the cone's net ids.
    """
    region = np.zeros(cg.n_nets, dtype=bool)
    stack = changed_ids.tolist()
    while stack:
        net_id = stack.pop()
        if region[net_id]:
            continue
        region[net_id] = True
        stack.extend(cg.fi_indices[cg.fi_indptr[net_id]:
                                   cg.fi_indptr[net_id + 1]].tolist())
    for level in range(cg.n_levels - 1, -1, -1):
        net_lo, net_hi = int(cg.level_ptr[level]), int(cg.level_ptr[level + 1])
        lvl = np.flatnonzero(region[net_lo:net_hi]) + net_lo
        if not lvl.size:
            continue
        candidates = _interleave(lvl)
        # Vanished events must fall back to NaN; only enabled polarities are
        # rewritten (a disabled plane stays all-NaN end to end).
        if setup_seeds is not None:
            required[candidates] = np.nan
        if hold_seeds is not None:
            hold_required[candidates] = np.nan
        events = candidates[state.exists[candidates]]
        if events.size:
            required_level(cg, state, events, setup_seeds, hold_seeds,
                           required, hold_required)
    return np.flatnonzero(region)


class CompiledIncrementalEngine:
    """The compiled twin of :class:`repro.sta.batch.IncrementalEngine`.

    Stays attached to one :class:`~.graph.TimingGraph`, consumes its dirty
    set, and re-times edits through masked compiled sweeps over persistent
    planes.  The caller (normally :meth:`repro.api.TimingSession.update`)
    owns the compiled snapshot's lifecycle — patch vs recompile — and passes
    the current snapshot into every :meth:`update`; a snapshot identity
    change (a recompile after topology edits) triggers a full re-analysis.

    Solutions accumulate in one append-only list shared by every analysis
    this engine produced, so earlier analyses' ``sol_idx`` planes stay valid
    forever; states and required planes are cloned per update (snapshot
    isolation for streaming reports and serve reads).  Like the object
    engine, this engine is the single consumer of its graph's dirty set.
    """

    def __init__(self, engine: "GraphEngine", graph: TimingGraph, *,
                 mode: str = "both") -> None:
        if not isinstance(graph, TimingGraph):
            raise ModelingError("CompiledIncrementalEngine expects a TimingGraph")
        check_mode(mode, allow_both=True)
        self.engine = engine
        self.graph = graph
        self.mode = mode
        self._cg: Optional[CompiledGraph] = None
        self._state: Optional[SweepState] = None
        self._required: Optional[np.ndarray] = None
        self._hold_required: Optional[np.ndarray] = None
        self._solutions: List[StageSolution] = []
        self._timed = False
        #: Nets the last update re-timed or re-required (None = potentially
        #: everything); report construction reuses events everywhere else.
        self.last_changed_nets: Optional[FrozenSet[str]] = None

    def invalidate(self) -> None:
        """Drop the cached planes; the next :meth:`update` re-times in full."""
        self._cg = None
        self._state = None
        self._required = None
        self._hold_required = None
        self._solutions = []
        self._timed = False
        self.last_changed_nets = None

    def _full_update(self, cg: CompiledGraph, *, patched_nets: int,
                     dirty_nets: int) -> CompiledAnalysis:
        analysis = self.engine.analyze_compiled(
            self.graph, compiled_graph=cg, mode=self.mode)
        self._cg = cg
        self._state = analysis.state
        self._required = analysis.required
        self._hold_required = analysis.hold_required
        self._solutions = analysis.solutions
        self._timed = True
        self.last_changed_nets = None
        n = len(self.graph)
        analysis.incremental = IncrementalStats(
            dirty_nets=dirty_nets, retimed_nets=n,
            retimed_events=analysis.n_events, required_nets=n,
            hold_required_nets=n if self.graph.hold_constrained else 0,
            patched_nets=patched_nets, cone_nets=n, cone_converged_early=0)
        return analysis

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
        dirty = set(graph.dirty_nets)
        constraints_dirty = graph.constraints_dirty
        graph.clear_dirty()
        if not self._timed or cg is not self._cg:
            return self._full_update(cg, patched_nets=patched_nets,
                                     dirty_nets=len(dirty) or len(graph))

        started = time.perf_counter()
        solver = self.engine.solver
        before = solver.stats.snapshot()
        try:
            state = self._state
            required, hold_required = self._required, self._hold_required
            delta = SweepDelta(visited=np.empty(0, dtype=np.int64),
                               changed=np.empty(0, dtype=np.int64),
                               retimed_events=0, converged_early=0)
            changed_names: Set[str] = set()
            if dirty:
                state = state.clone()
                base_options = self.engine.options
                options_pair = {
                    t: replace(base_options,
                               transition=flip_transition(TRANSITIONS[t]),
                               reference_time=0.0)
                    for t in (0, 1)}
                fp_cache = cg.fingerprints.setdefault(
                    _options_fingerprint(base_options), {})
                solutions = self._solutions

                def solve_level(events: np.ndarray) -> None:
                    self.engine._solve_compiled_level(
                        cg, state, events, options_pair, fp_cache, solutions)

                dirty_ids = np.fromiter((cg.index[name] for name in dirty),
                                        dtype=np.int64, count=len(dirty))
                delta = incremental_sweep(cg, graph, state, dirty_ids,
                                          solve_level)
                changed_names.update(cg.order[i]
                                     for i in delta.visited.tolist())

            do_setup = (self.mode in ("setup", "both")
                        and graph.setup_constrained)
            do_hold = self.mode in ("hold", "both") and graph.hold_constrained
            required_nets = 0
            if constraints_dirty:
                # Constraint edits can move required times anywhere: re-seed
                # and re-run the full backward pass (pure arithmetic).
                required, hold_required = backward_required(
                    cg, state,
                    constraint_seeds(cg, graph, "setup") if do_setup else None,
                    constraint_seeds(cg, graph, "hold") if do_hold else None)
                required_nets = len(graph)
            elif delta.changed.size and (do_setup or do_hold):
                required = required.copy()
                hold_required = hold_required.copy()
                region = incremental_required(
                    cg, state, delta.changed,
                    constraint_seeds(cg, graph, "setup") if do_setup else None,
                    constraint_seeds(cg, graph, "hold") if do_hold else None,
                    required, hold_required)
                required_nets = int(region.size)
                # Nets whose required times moved rebuild their report
                # events too (NaN == NaN counts as unchanged).
                span = _interleave(region)
                moved = np.zeros(span.size, dtype=bool)
                for old, new in ((self._required, required),
                                 (self._hold_required, hold_required)):
                    a, b = old[span], new[span]
                    moved |= ~((a == b) | (np.isnan(a) & np.isnan(b)))
                moved_nets = region[moved[0::2] | moved[1::2]]
                changed_names.update(cg.order[i] for i in moved_nets.tolist())
            self._state = state
            self._required, self._hold_required = required, hold_required
            self.last_changed_nets = (None if constraints_dirty
                                      else frozenset(changed_names))
        except Exception:
            # The dirty set is consumed and the planes may be half-rewritten;
            # never serve them — the next update re-times in full.
            self.invalidate()
            raise

        after = solver.stats
        stats = SolverStats(
            memo_hits=after.memo_hits - before.memo_hits,
            persistent_hits=after.persistent_hits - before.persistent_hits,
            computed=after.computed - before.computed,
            batched_solves=after.batched_solves - before.batched_solves)
        analysis = CompiledAnalysis(
            graph=cg, state=state, required=required,
            hold_required=hold_required, solutions=self._solutions,
            stats=stats, elapsed=time.perf_counter() - started,
            mode=self.mode)
        analysis.incremental = IncrementalStats(
            dirty_nets=len(dirty), retimed_nets=int(delta.visited.size),
            retimed_events=delta.retimed_events, required_nets=required_nets,
            hold_required_nets=required_nets if do_hold else 0,
            patched_nets=patched_nets, cone_nets=int(delta.visited.size),
            cone_converged_early=delta.converged_early)
        return analysis
