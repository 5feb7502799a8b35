"""Batched, memoized timing-graph analysis.

:class:`GraphEngine` drives a :class:`~.graph.TimingGraph` level by level.  Within a
level every net is independent (all fanin arrivals are final), so the level is the
natural unit of batching:

1. the pending (net, input-transition) events of the level are collected,
2. events whose stage fingerprint is already memoized are answered instantly,
3. the remaining *unique* fingerprints are solved as **one batched array
   computation** through :meth:`StageSolver.solve_batch` (vectorized table
   lookups, array charge matching, masked fixed points and kernel-convolution
   far ends), and
4. far-end arrivals and slews are merged into the fanout nets' pending states
   in *both event planes*: the late plane takes the worst arrival (ties take
   the larger slew), the early plane the best arrival (ties take the smaller
   slew) — one traversal carries setup and hold analysis together.

Every solution lands in the solver's memo, so later levels (and later analyses)
reuse it.

Stage solves are mode-independent: each (net, transition) event is solved once,
at its late-merged slew, and the early plane rides along as pure arithmetic —
dual-mode analysis performs **zero additional stage solves** over late-only.

After the forward pass, every analysis computes each polarity the graph
constrains (clock period / hold margin or explicit ``set_required`` pins): a
backward pass propagates required times from the endpoints against the arrival
flow — per rise/fall, the minimum required over a net's fanout consumers for
setup and the maximum for hold, mirroring how the forward merge takes the
extreme arrival — and every event gains ``required`` / ``slack`` plus
``hold_required`` / ``hold_slack``.  The backward pass is pure arithmetic over
already-solved stage delays, so it costs microseconds even on 1k-net graphs.

:class:`IncrementalEngine` adds what-if speed on top: it stays attached to one
(now mutable) :class:`TimingGraph` and, on :meth:`IncrementalEngine.update`,
re-times only the *dirty cone* of the edits made since the last update — the
dirty nets' transitive fanout for arrivals, and the transitive fanin of the
affected nets for required times — reusing the cached events everywhere else.
Because stage solves are memoized by content fingerprint, an incremental update
is bit-identical to a from-scratch analysis, just proportional to the size of
the edit instead of the size of the graph.

Production timing (:class:`repro.api.TimingSession`) runs on the compiled
engine: :meth:`GraphEngine.compile` plus :meth:`GraphEngine.analyze_compiled`,
and :class:`repro.sta.incremental_compiled.CompiledIncrementalEngine` for
edits.  The object sweep (:meth:`GraphEngine.analyze`, :class:`IncrementalEngine`)
is the reference the equivalence tests compare against; every level it times
is one :meth:`StageSolver.solve_batch` call on the engine's solver, so a
benchmark gets the naive per-stage baseline by injecting a solver that solves
each request on its own.  Every analysis runs in the calling process; the
engine holds no resources beyond its solver's caches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..characterization.cell import CellCharacterization
from ..characterization.library import CellLibrary, default_library
from ..core.driver_model import ModelingOptions
from ..core.stage_solver import (StageRequest, StageSolution, StageSolver,
                                 _options_fingerprint)
from ..errors import ModelingError
from ..tech.technology import Technology, generic_180nm
from .compiled import (TRANSITIONS, CompiledAnalysis, CompiledGraph,
                       SweepState, backward_required, compile_graph,
                       level_solve_keys, merge_level, required_seeds,
                       scatter_level_solutions, seed_primary_inputs)
from .graph import (GraphNet, GraphTimingReport, IncrementalStats,
                    NetEventTiming, TimingGraph, flip_transition)

__all__ = ["GraphEngine", "IncrementalEngine"]

#: (arrival, slew, source) triple: one event plane of a pending input state.
_PlaneState = Tuple[float, float, Optional[Tuple[str, str]]]

#: (late, early) plane pair tracked per pending (net, transition) state.
_PendingState = Tuple[_PlaneState, _PlaneState]


@dataclass(frozen=True)
class _WorkItem:
    """One pending (net, input-transition) event of the current level.

    ``input_arrival`` / ``source`` describe the late (setup) plane the stage is
    solved at; ``early_arrival`` / ``early_source`` ride along for the hold
    plane and never influence the solve.
    """

    net: GraphNet
    cell: CellCharacterization
    load: float
    input_transition: str
    input_arrival: float
    input_slew: float
    options: ModelingOptions
    fingerprint: str
    source: Optional[Tuple[str, str]]
    early_arrival: float
    early_source: Optional[Tuple[str, str]]


class GraphEngine:
    """Times whole graphs level by level with the memoized, batched stage solver.

    Takes a library, technology and modeling options, plus an optional shared
    :class:`StageSolver` (which also owns the slew thresholds) so several
    engines can pool one memo.
    """

    def __init__(self, *, library: Optional[CellLibrary] = None,
                 tech: Optional[Technology] = None,
                 options: Optional[ModelingOptions] = None,
                 solver: Optional[StageSolver] = None) -> None:
        self.library = library if library is not None else default_library()
        self.tech = tech if tech is not None else generic_180nm()
        self.options = options if options is not None else ModelingOptions()
        self.solver = solver if solver is not None else StageSolver()

    # --- helpers ---------------------------------------------------------------------
    def net_load(self, graph: TimingGraph, net: GraphNet) -> float:
        """Far-end gate load of ``net``: fanout drivers + terminal receiver + extra."""
        load = net.extra_load
        for target in net.fanout:
            load += self.tech.inverter_input_capacitance(
                graph.nets[target].driver_size)
        if net.receiver_size is not None:
            load += self.tech.inverter_input_capacitance(net.receiver_size)
        return load

    def _event_options(self, input_transition: str,
                       base: Optional[ModelingOptions] = None) -> ModelingOptions:
        base = base if base is not None else self.options
        return replace(base, transition=flip_transition(input_transition),
                       reference_time=0.0)

    @staticmethod
    def _merge(pending: Dict[str, Dict[str, _PendingState]], name: str,
               transition: str, arrival: float, early_arrival: float,
               slew: float, source: Tuple[str, str]) -> None:
        """Merge one propagated event into a pending input state, both planes.

        The late plane takes the maximum (arrival, slew, source) triple — worst
        arrival wins, ties take the larger slew — and the early plane the
        minimum of (early arrival, slew, source) — best arrival wins, ties take
        the smaller slew.  Both tie-breaks fall through to the source name,
        making the merge independent of the order fanins are visited in — a
        full analysis and an incremental cone re-seed must elect the same
        winners bit-for-bit.
        """
        states = pending.setdefault(name, {})
        current = states.get(transition)
        late = (arrival, slew, source)
        early = (early_arrival, slew, source)
        if current is None:
            states[transition] = (late, early)
            return
        states[transition] = (max(late, current[0]), min(early, current[1]))

    # --- analysis ----------------------------------------------------------------------
    def _time_levels(self, graph: TimingGraph, levels: List[List[str]],
                     pending: Dict[str, Dict[str, _PendingState]],
                     events: Dict[str, Dict[str, NetEventTiming]], *,
                     options: Optional[ModelingOptions] = None) -> None:
        """Forward pass over ``levels``: solve, record into ``events``, propagate.

        The shared core of full analysis (all levels, pending seeded from the
        primary inputs) and incremental updates (cone levels, pending seeded
        from the cached fanin events).  Mutates ``events`` and ``pending`` in
        place.  Each level's events go to the solver as one
        :meth:`~repro.core.stage_solver.StageSolver.solve_batch` call: memo
        layers answer per event, the unique misses are solved as one
        vectorized pass.
        """
        for level in levels:
            items: List[_WorkItem] = []
            for name in level:
                net = graph.nets[name]
                load = self.net_load(graph, net)
                for transition, state in sorted(pending.get(name, {}).items()):
                    (arrival, slew, source), (early, _, early_source) = state
                    event_options = self._event_options(transition, options)
                    cell = self.library.get(net.driver_size)
                    # The late-plane slew is the one the stage is solved at
                    # (worst-slew propagation): the early plane shares the
                    # solution, which is what keeps dual-mode at zero extra
                    # stage solves.
                    items.append(_WorkItem(
                        net=net, cell=cell, load=load,
                        input_transition=transition, input_arrival=arrival,
                        input_slew=slew, options=event_options,
                        fingerprint=self.solver.fingerprint_for(
                            cell, slew, net.line, load, event_options),
                        source=source, early_arrival=early,
                        early_source=early_source))
            if not items:
                continue
            solved = self.solver.solve_batch([
                StageRequest(cell=item.cell, input_slew=item.input_slew,
                             line=item.net.line, load_capacitance=item.load,
                             options=item.options, fingerprint=item.fingerprint)
                for item in items])

            for item, solution in zip(items, solved):
                event = NetEventTiming(
                    net=item.net, input_transition=item.input_transition,
                    output_transition=solution.transition,
                    input_arrival=item.input_arrival,
                    input_slew=item.input_slew, solution=solution,
                    source=item.source,
                    early_input_arrival=item.early_arrival,
                    early_source=item.early_source)
                events.setdefault(item.net.name, {})[item.input_transition] = event
                for target in item.net.fanout:
                    self._merge(pending, target, solution.transition,
                                event.output_arrival,
                                event.early_output_arrival,
                                solution.propagated_slew,
                                (item.net.name, item.input_transition))

    @staticmethod
    def _apply_required(graph: TimingGraph,
                        events: Dict[str, Dict[str, NetEventTiming]],
                        targets: Optional[set] = None) -> int:
        """Backward pass: propagate required times, rewrite events in place.

        Mirrors the forward merge against the arrival flow, per polarity the
        graph constrains: an event's *setup* required far-end time is the
        minimum of its constraint seed and, per consumer in its fanout, that
        consumer's required time minus the consumer's stage delay (the
        consumer event keyed by this event's output transition — min-required
        wins per rise/fall); its *hold* required time is the exact mirror with
        the maximum (the early arrival must clear every downstream minimum).
        An unconstrained polarity's required times are ``None``.  ``targets``
        restricts the rewrite to a net subset (the incremental backward
        region); consumers outside it contribute their cached required times.
        Pure arithmetic — no stage is ever re-solved here.  Returns the number
        of nets visited.
        """
        do_setup = graph.setup_constrained
        do_hold = graph.hold_constrained
        if not do_setup and not do_hold and targets is None:
            # Nothing seeds a required time (the constraints were removed
            # since the events were timed); strip any stale ones cheaply.
            for name, per_net in events.items():
                for transition, event in per_net.items():
                    if event.required is not None \
                            or event.hold_required is not None:
                        per_net[transition] = replace(
                            event, required=None, hold_required=None)
            return 0
        visited = 0
        for level in reversed(graph.levels):
            for name in level:
                if targets is not None and name not in targets:
                    continue
                per_net = events.get(name)
                if not per_net:
                    continue
                visited += 1
                for transition, event in per_net.items():
                    required = None
                    if do_setup:
                        required = graph.required_for(
                            name, event.output_transition)
                    hold_required = None
                    if do_hold:
                        hold_required = graph.required_for(
                            name, event.output_transition, mode="hold")
                    for target in event.net.fanout:
                        consumer = events.get(target, {}).get(
                            event.output_transition)
                        if consumer is None:
                            continue
                        if do_setup and consumer.required is not None:
                            candidate = (consumer.required
                                         - consumer.solution.stage_delay)
                            if required is None or candidate < required:
                                required = candidate
                        if do_hold and consumer.hold_required is not None:
                            candidate = (consumer.hold_required
                                         - consumer.solution.stage_delay)
                            if hold_required is None \
                                    or candidate > hold_required:
                                hold_required = candidate
                    if required != event.required \
                            or hold_required != event.hold_required:
                        per_net[transition] = replace(
                            event, required=required,
                            hold_required=hold_required)
        return visited

    def analyze(self, graph: TimingGraph, *,
                options: Optional[ModelingOptions] = None) -> GraphTimingReport:
        """Time every (net, transition) event of ``graph`` (the object sweep).

        ``options`` overrides the engine's modeling options for this analysis
        only (the corner axis — every corner shares the engine's memoized
        solver, and the per-corner option fields are part of every memo
        fingerprint, so corners never collide in the cache).  Both event
        planes are carried forward and every polarity the graph constrains
        gets its required times, at no extra stage solve.
        """
        if not isinstance(graph, TimingGraph):
            raise ModelingError("analyze() expects a TimingGraph")
        started = time.perf_counter()
        before = self.solver.stats.snapshot()

        pending: Dict[str, Dict[str, _PendingState]] = {}
        for name, primary in graph.primary_inputs.items():
            plane = (primary.arrival, primary.slew, None)
            pending[name] = {primary.transition: (plane, plane)}

        events: Dict[str, Dict[str, NetEventTiming]] = {}
        self._time_levels(graph, graph.levels, pending, events,
                          options=options)
        self._apply_required(graph, events)
        return GraphTimingReport(graph=graph, events=events, levels=graph.levels,
                                 stats=self.solver.stats.since(before),
                                 elapsed=time.perf_counter() - started)

    # --- compiled (struct-of-arrays) analysis ----------------------------------------
    def compile(self, graph: TimingGraph) -> CompiledGraph:
        """Freeze ``graph`` into struct-of-arrays form for :meth:`analyze_compiled`.

        The snapshot captures structure only (adjacency, levels, loads, stage
        configurations); constraints and primary inputs are read live at
        analysis time, so a compiled graph survives constraint and stimulus
        edits and only goes stale on structural ones (checked via
        :attr:`TimingGraph.version`).
        """
        return compile_graph(graph, library=self.library, tech=self.tech)

    def _solve_compiled_level(self, cg: CompiledGraph, state: SweepState,
                              events: np.ndarray,
                              options_pair: Dict[int, ModelingOptions],
                              fp_cache: Dict[Tuple[int, int, float], str],
                              solutions: List[StageSolution]) -> None:
        """Solve one level's events: dedupe, one batch, scatter back.

        The object engine hands the solver one request *per event* and lets
        the memo dedupe by re-hashing every fingerprint; here the level first
        collapses to unique ``(stage config, transition, slew)``
        keys (:func:`~.compiled.level_solve_keys`) — so fingerprints
        are computed (or fetched from the compiled graph's cache) only per
        unique key.  That per-event sha256 hashing is exactly the warm-path
        bottleneck ``BENCH_incremental`` flags, which is where most of the
        compiled path's warm speedup comes from.  ``solve_batch`` results are
        composition-sensitive at the ~1 ULP level, so a level's unique keys
        are always solved as one batch, in ``level_solve_keys`` order.
        """
        unique, inverse = level_solve_keys(cg, state, events)
        requests: List[StageRequest] = []
        for config_key, t_key, slew in unique.tolist():
            config, t = int(config_key), int(t_key)
            cache_key = (config, t, slew)
            cell = cg.config_cell[config]
            line = cg.config_line[config]
            load = float(cg.config_load[config])
            options = options_pair[t]
            fingerprint = fp_cache.get(cache_key)
            if fingerprint is None:
                fingerprint = self.solver.fingerprint_for(
                    cell, slew, line, load, options)
                fp_cache[cache_key] = fingerprint
            requests.append(StageRequest(
                cell=cell, input_slew=slew, line=line, load_capacitance=load,
                options=options, fingerprint=fingerprint))
        solved = self.solver.solve_batch(requests)
        base = len(solutions)
        solutions.extend(solved)
        delays = np.fromiter((s.stage_delay for s in solved),
                             dtype=np.float64, count=len(solved))
        prop_slews = np.fromiter((s.propagated_slew for s in solved),
                                 dtype=np.float64, count=len(solved))
        scatter_level_solutions(state, events, base + inverse, delays[inverse],
                                prop_slews[inverse])

    def _level_solver(self, cg: CompiledGraph, state: SweepState,
                      solutions: List[StageSolution],
                      options: Optional[ModelingOptions] = None
                      ) -> Callable[[np.ndarray], None]:
        """One compiled sweep's per-level solve step, bound to its planes.

        Derives the per-transition event options from ``options`` (default:
        the engine's) and fetches ``cg``'s fingerprint cache for them once,
        then returns ``solve_level(events)``: :meth:`_solve_compiled_level`
        into ``state``, appending to ``solutions``.
        """
        base = options if options is not None else self.options
        options_pair = {t: self._event_options(TRANSITIONS[t], base)
                        for t in (0, 1)}
        fp_cache = cg.fingerprints.setdefault(_options_fingerprint(base), {})

        def solve_level(events: np.ndarray) -> None:
            self._solve_compiled_level(cg, state, events, options_pair,
                                       fp_cache, solutions)
        return solve_level

    def analyze_compiled(self, graph: TimingGraph, *,
                         compiled_graph: Optional[CompiledGraph] = None,
                         options: Optional[ModelingOptions] = None
                         ) -> CompiledAnalysis:
        """Time ``graph`` through the struct-of-arrays path.

        Equivalent to :meth:`analyze` — same merges, same stage solves through
        the same memoized solver, same backward pass — but each level runs as
        numpy reductions over event-id arrays instead of per-object Python,
        and the result is a :class:`~.compiled.CompiledAnalysis` whose event
        records materialize lazily.  ``compiled_graph`` reuses a prior
        :meth:`compile` snapshot (it must match the graph's current
        :attr:`~.graph.TimingGraph.version`).
        """
        if not isinstance(graph, TimingGraph):
            raise ModelingError("analyze_compiled() expects a TimingGraph")
        cg = compiled_graph if compiled_graph is not None else self.compile(graph)
        if cg.version != graph.version:
            raise ModelingError(
                "compiled graph is stale (the graph was structurally edited "
                "after compile()); recompile before analyzing")
        started = time.perf_counter()
        before = self.solver.stats.snapshot()
        solutions: List[StageSolution] = []
        state = SweepState.empty(2 * cg.n_nets)
        solve_level = self._level_solver(cg, state, solutions, options)
        seed_primary_inputs(cg, graph, state)
        for level in range(cg.n_levels):
            net_lo = int(cg.level_ptr[level])
            net_hi = int(cg.level_ptr[level + 1])
            events = merge_level(cg, state, net_lo, net_hi)
            if events.size:
                solve_level(events)
        required, hold_required = backward_required(
            cg, state, *required_seeds(cg, graph))
        return CompiledAnalysis(
            graph=cg, state=state, required=required,
            hold_required=hold_required, solutions=solutions,
            stats=self.solver.stats.since(before),
            elapsed=time.perf_counter() - started)


class IncrementalEngine(GraphEngine):
    """A :class:`GraphEngine` that stays attached to one graph and re-times edits.

    The first :meth:`update` is a full analysis; afterwards the engine keeps the
    solved events and, on every later update, consumes the graph's dirty set
    (see the edit operations on :class:`~.graph.TimingGraph`):

    * **arrivals** — the dirty nets' transitive fanout cone is re-levelized (the
      graph's current levels filtered to the cone) and re-timed in both event
      planes (late and early ride on the same stage solves), seeded with the
      cached events of the cone's unchanged fanins; everything outside the cone
      is reused untouched.
    * **required times** — setup and hold requirements recomputed in one
      backward sweep over the transitive fanin of the cone (or the whole graph
      when constraints themselves changed), again reusing cached values at the
      region boundary.

    Updates are bit-identical to a from-scratch :meth:`GraphEngine.analyze` of
    the same graph state: the same memoized solver answers the same fingerprints,
    and the merge tie-break is order-independent.  The engine is the single
    consumer of its graph's dirty set — attach one engine per graph.
    """

    def __init__(self, graph: TimingGraph, **kwargs) -> None:
        if not isinstance(graph, TimingGraph):
            raise ModelingError("IncrementalEngine expects a TimingGraph")
        super().__init__(**kwargs)
        self.graph = graph
        self._events: Dict[str, Dict[str, NetEventTiming]] = {}
        self._timed = False

    def _snapshot(self) -> Dict[str, Dict[str, NetEventTiming]]:
        """A report-safe copy of the cached events (updates must not mutate it)."""
        return {name: dict(per_net) for name, per_net in self._events.items()}

    def update(self) -> GraphTimingReport:
        """Re-time what the edits since the last update actually dirtied.

        The first call (and any call after :meth:`invalidate`) times the whole
        graph.  Later calls clear the graph's dirty state and return a report
        whose :attr:`~.graph.GraphTimingReport.incremental` stats say how much
        of the graph was touched.
        """
        graph = self.graph
        dirty = set(graph.dirty_nets)
        constraints_dirty = graph.constraints_dirty
        graph.clear_dirty()

        if not self._timed:
            report = self.analyze(graph)
            self._events = {name: dict(per_net)
                            for name, per_net in report.events.items()}
            self._timed = True
            return replace(report, incremental=IncrementalStats(
                dirty_nets=len(graph), retimed_nets=len(graph),
                retimed_events=report.n_events, required_nets=len(graph),
                hold_required_nets=len(graph) if graph.hold_constrained
                else 0))

        started = time.perf_counter()
        before = self.solver.stats.snapshot()
        try:
            cone = graph.fanout_cone(dirty) if dirty else set()

            # Seed the cone's pending states from primary inputs and from the
            # cached events of fanins outside the cone (in-cone fanins
            # contribute while the cone itself is re-timed, exactly as in a
            # full analysis).
            pending: Dict[str, Dict[str, _PendingState]] = {}
            for name in cone:
                primary = graph.primary_inputs.get(name)
                if primary is not None:
                    plane = (primary.arrival, primary.slew, None)
                    pending[name] = {primary.transition: (plane, plane)}
                for fanin in sorted(graph.fanin(name)):
                    if fanin in cone:
                        continue
                    for transition, event in sorted(
                            self._events[fanin].items()):
                        self._merge(pending, name, event.output_transition,
                                    event.output_arrival,
                                    event.early_output_arrival,
                                    event.propagated_slew,
                                    (fanin, transition))
            for name in cone:
                self._events.pop(name, None)

            retimed_events = 0
            if cone:
                levels = [[name for name in level if name in cone]
                          for level in graph.levels]
                levels = [level for level in levels if level]
                self._time_levels(graph, levels, pending, self._events)
                retimed_events = sum(len(self._events.get(name, {}))
                                     for name in cone)

            # Required times change where a stage delay changed (the cone),
            # where an event appeared/disappeared (also the cone), or
            # everywhere when the constraints themselves moved.  Setup and
            # hold share one backward sweep over the same fanin region.
            if constraints_dirty:
                required_targets = None
            else:
                required_targets = graph.fanin_cone(cone) if cone else set()
            required_nets = 0
            if required_targets is None or required_targets:
                required_nets = self._apply_required(graph, self._events,
                                                     required_targets)
            hold_required_nets = (required_nets if graph.hold_constrained
                                  else 0)
        except Exception:
            # The dirty set was already consumed and the cone's cached events
            # may be partially rebuilt; a half-updated cache must never serve
            # later queries, so drop it — the next update re-times in full.
            self.invalidate()
            raise

        return GraphTimingReport(
            graph=graph, events=self._snapshot(), levels=graph.levels,
            stats=self.solver.stats.since(before),
            elapsed=time.perf_counter() - started,
            incremental=IncrementalStats(
                dirty_nets=len(dirty), retimed_nets=len(cone),
                retimed_events=retimed_events, required_nets=required_nets,
                hold_required_nets=hold_required_nets))

    def invalidate(self) -> None:
        """Drop the cached events; the next :meth:`update` re-times everything."""
        self._events = {}
        self._timed = False
