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

Every solution lands in the solver's memo.  Stage solves are
mode-independent: each event is solved once, at its late-merged slew, and
the early plane rides along as arithmetic (**zero additional stage solves**
for hold).  A backward pass then propagates the required times of each
polarity the graph constrains against the arrival flow — per rise/fall, the
minimum over a net's fanout consumers for setup and the maximum for hold.

Production timing (:class:`repro.api.TimingSession`) runs on the compiled
engine: :meth:`GraphEngine.compile` plus :meth:`GraphEngine.analyze_compiled`,
and :class:`repro.sta.incremental_compiled.CompiledIncrementalEngine` for
edits, both through :meth:`GraphEngine._sweep_compiled_level`; only stage
keys new to the compiled graph's :class:`~.compiled.SolutionTable` reach the
solver.  The object sweep (:meth:`GraphEngine.analyze`) is the reference the
equivalence tests compare against (one :meth:`StageSolver.solve_batch` per
level, so a benchmark injects a per-request solver for the naive baseline);
:class:`IncrementalEngine` re-times its attached graph through it in full.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..characterization.library import CellLibrary, default_library
from ..core.driver_model import ModelingOptions
from ..core.stage_solver import StageRequest, StageSolution, StageSolver
from ..errors import ModelingError
from ..tech.technology import Technology, generic_180nm
from .compiled import (CompiledAnalysis, CompiledGraph, MergePlan,
                       SolutionTable, SweepState, backward_required, compile_graph,
                       input_seeds, level_solve_keys, merge_level,
                       required_seeds, scatter_level_solutions,
                       seed_primary_inputs)
from .graph import GraphNet, TimingGraph, event_options

if TYPE_CHECKING:
    from ..api.report import TimingEvent, TimingReport

__all__ = ["GraphEngine", "IncrementalEngine"]

#: (arrival, slew, source) triple: one event plane of a pending input state.
_PlaneState = Tuple[float, float, Optional[Tuple[str, str]]]

#: (late, early) plane pair tracked per pending (net, transition) state.
_PendingState = Tuple[_PlaneState, _PlaneState]

#: A solved event of the object sweep: its merged input state and solution.
_Solved = Tuple[_PendingState, StageSolution]


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

    @staticmethod
    def _merge(pending: Dict[str, Dict[str, _PendingState]], name: str,
               transition: str, arrival: float, early_arrival: float,
               slew: float, source: Tuple[str, str]) -> None:
        """Merge one propagated event into a pending input state, both planes.

        The late plane takes the maximum (arrival, slew, source) triple — worst
        arrival wins, ties take the larger slew — and the early plane the
        minimum of (early arrival, slew, source) — best arrival wins, ties take
        the smaller slew.  Both tie-breaks fall through to the source name,
        making the merge independent of the order fanins are visited in, as
        the compiled sweep's election is.
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
    @staticmethod
    def _backward_events(graph: TimingGraph, solved: Dict[str, Dict[str, _Solved]]
                         ) -> Dict[str, Dict[str, TimingEvent]]:
        """Backward pass: every solved event's record, required times included.

        Mirrors the forward merge against the arrival flow, per polarity the
        graph constrains: an event's *setup* required far-end time is the
        minimum of its constraint seed and, per consumer in its fanout, that
        consumer's required time minus the consumer's stage delay (the
        consumer event keyed by this event's output transition — min-required
        wins per rise/fall); its *hold* required time is the exact mirror with
        the maximum (the early arrival must clear every downstream minimum).
        An unconstrained polarity's required times stay ``None``.  Pure
        arithmetic — no stage is ever re-solved here.  Levels are visited in
        reverse, so every consumer's record exists before its drivers'.
        """
        # Imported here: repro.api.report imports repro.sta at the top.
        from ..api.report import TimingEvent

        do_setup = graph.setup_constrained
        do_hold = graph.hold_constrained
        events: Dict[str, Dict[str, TimingEvent]] = {}
        for level in reversed(graph.levels):
            for name in level:
                net = graph.nets[name]
                for transition, (state, solution) in solved.get(name, {}).items():
                    out = solution.transition
                    required = graph.required_for(name, out) if do_setup else None
                    hold_required = (graph.required_for(name, out, mode="hold")
                                     if do_hold else None)
                    for target in net.fanout:
                        consumer = events.get(target, {}).get(out)
                        if consumer is None:
                            continue
                        if consumer.required is not None:
                            candidate = consumer.required - consumer.stage_delay
                            if required is None or candidate < required:
                                required = candidate
                        if consumer.hold_required is not None:
                            candidate = consumer.hold_required - consumer.stage_delay
                            if hold_required is None or candidate > hold_required:
                                hold_required = candidate
                    (arrival, slew, source), (early, _, early_source) = state
                    events.setdefault(name, {})[transition] = TimingEvent.from_solution(
                        name, transition, solution, input_slew=slew,
                        arrivals=(arrival, early), sources=(source, early_source),
                        endpoint=net.is_endpoint, required=(required, hold_required))
        return events

    @staticmethod
    def _critical_path(graph: TimingGraph,
                       events: Dict[str, Dict[str, TimingEvent]]
                       ) -> List[Tuple[str, str]]:
        """Keys from a primary input to the latest sink event, in arrival order.

        The sink event with the largest far-end arrival wins (the first one
        in level order on exact ties, as the compiled engine's ``argmax``
        does); the path follows each event's late-plane ``source`` back.
        """
        sinks = [event for level in graph.levels for name in level
                 if not graph.nets[name].fanout
                 for event in events.get(name, {}).values()]
        if not sinks:
            raise ModelingError("graph analysis produced no sink events")
        cursor = max(sinks, key=lambda event: event.output_arrival)
        path = [(cursor.net, cursor.input_transition)]
        while cursor.source is not None:
            cursor = events[cursor.source[0]][cursor.source[1]]
            path.append((cursor.net, cursor.input_transition))
        return path[::-1]

    def analyze(self, graph: TimingGraph, *,
                options: Optional[ModelingOptions] = None) -> TimingReport:
        """Time every (net, transition) event of ``graph`` (the object sweep).

        ``options`` overrides the engine's modeling options for this analysis
        only (the corner axis — every corner shares the engine's memoized
        solver, and the per-corner option fields are part of every memo
        fingerprint, so corners never collide in the cache).  Both event
        planes are carried forward and every polarity the graph constrains
        gets its required times, at no extra stage solve.  Each level's
        events go to the solver as one
        :meth:`~repro.core.stage_solver.StageSolver.solve_batch` call: memo
        layers answer per event, the unique misses are solved as one
        vectorized pass.

        Returns an eager :class:`repro.api.TimingReport` labelled
        ``"graph"``: events sorted by net and transition, the critical path
        as keys, and the solver counters of this analysis in ``meta``
        (:meth:`~repro.api.TimingReport.from_graph_report` relabels it).
        """
        from ..api.report import RunInfo, TimingReport

        if not isinstance(graph, TimingGraph):
            raise ModelingError("analyze() expects a TimingGraph")
        started = time.perf_counter()
        before = self.solver.stats.snapshot()
        base = options if options is not None else self.options

        pending: Dict[str, Dict[str, _PendingState]] = {}
        for name, primary in graph.primary_inputs.items():
            plane = (primary.arrival, primary.slew, None)
            pending[name] = {primary.transition: (plane, plane)}

        solved: Dict[str, Dict[str, _Solved]] = {}
        for level in graph.levels:
            items: List[Tuple[GraphNet, str, _PendingState]] = []
            requests: List[StageRequest] = []
            for name in level:
                net = graph.nets[name]
                load = self.net_load(graph, net)
                for transition, state in sorted(pending.get(name, {}).items()):
                    # The late-plane slew is the one the stage is solved at
                    # (worst-slew propagation): the early plane shares the
                    # solution, which is what keeps dual-mode at zero extra
                    # stage solves.
                    slew = state[0][1]
                    stage_options = event_options(base, transition)
                    cell = self.library.get(net.driver_size)
                    items.append((net, transition, state))
                    requests.append(StageRequest(
                        cell=cell, input_slew=slew, line=net.line,
                        load_capacitance=load, options=stage_options,
                        fingerprint=self.solver.fingerprint_for(
                            cell, slew, net.line, load, stage_options)))
            if not items:
                continue
            for (net, transition, state), solution in zip(
                    items, self.solver.solve_batch(requests)):
                solved.setdefault(net.name, {})[transition] = (state, solution)
                delay = solution.stage_delay
                for target in net.fanout:
                    self._merge(pending, target, solution.transition,
                                state[0][0] + delay, state[1][0] + delay,
                                solution.propagated_slew, (net.name, transition))

        events = self._backward_events(graph, solved)
        return TimingReport(
            design="graph", kind="graph",
            events={name: dict(sorted(per_net.items()))
                    for name, per_net in sorted(events.items())},
            levels=graph.levels,
            critical_path=self._critical_path(graph, events),
            meta=RunInfo.from_stats(self.solver.stats.since(before),
                                    elapsed=time.perf_counter() - started))

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

    def _solve_compiled_level(self, cg: CompiledGraph, table: SolutionTable,
                              state: SweepState, events: np.ndarray) -> None:
        """Solve one level's events through ``table``: dedupe, look up, scatter.

        The level collapses to unique ``(stage config, transition, slew)``
        keys (:func:`~.compiled.level_solve_keys`).  A key the graph solved
        before is a row of ``table`` and counts as a memo hit; only the
        misses get a fingerprint and a :class:`StageRequest`.
        ``solve_batch`` results are composition-sensitive at the ~1 ULP
        level, so a level's misses are always solved as one batch, in
        ``level_solve_keys`` order.
        """
        unique, inverse = level_solve_keys(cg, state, events)
        keys = list(map(tuple, unique.tolist()))
        found = table.rows.get
        rows = [found(key, -1) for key in keys]
        missing = [i for i, row in enumerate(rows) if row < 0]
        rows = np.array(rows, dtype=np.int64)
        solver = self.solver
        solver.stats.memo_hits += len(keys) - len(missing)
        if missing:
            misses = [keys[i] for i in missing]
            requests = []
            for config, t, slew in misses:
                config = int(config)
                cell, line = cg.config_cell[config], cg.config_line[config]
                load, options = float(cg.config_load[config]), table.options[int(t)]
                requests.append(StageRequest(
                    cell=cell, input_slew=slew, line=line, load_capacitance=load,
                    options=options, fingerprint=solver.fingerprint_for(
                        cell, slew, line, load, options)))
            rows[missing] = table.append(misses, solver.solve_batch(requests))
        sol_ids = rows[inverse]
        scatter_level_solutions(state, events, sol_ids, table.delay[sol_ids],
                                table.prop_slew[sol_ids])

    def _sweep_compiled_level(self, cg: CompiledGraph, table: SolutionTable,
                              state: SweepState, plan: MergePlan) -> np.ndarray:
        """Merge one level's (or part of one level's) plan and solve its events.

        The one level step of every compiled sweep: the full sweep runs each
        level's :class:`~.compiled.MergePlan` whole, the incremental one
        whole or :meth:`~.compiled.MergePlan.restrict`-ed to its active
        nets.  Returns the merged event ids, ascending.
        """
        events = merge_level(plan, state)
        if events.size:
            self._solve_compiled_level(cg, table, state, events)
        return events

    def analyze_compiled(self, graph: TimingGraph, *,
                         compiled_graph: Optional[CompiledGraph] = None,
                         options: Optional[ModelingOptions] = None
                         ) -> CompiledAnalysis:
        """Time ``graph`` through the struct-of-arrays path.

        Equivalent to :meth:`analyze` — same merges, stage solves and
        backward pass — as numpy reductions over event-id arrays, returning a
        :class:`~.compiled.CompiledAnalysis` whose records materialize
        lazily.  ``compiled_graph`` reuses a prior :meth:`compile` snapshot
        (it must match the graph's :attr:`~.graph.TimingGraph.version`) and
        what it keeps for its sweeps: the :class:`~.compiled.SweepPlan` of
        the roots' events, the seed arrays, the last plane buffer (written
        again once nothing reads it) and the :class:`~.compiled.SolutionTable`,
        so a warm re-time only moves arrivals, elects, looks keys up and
        does arithmetic.
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
        table = cg.solution_table(options if options is not None
                                  else self.options, self.solver)
        plan = cg.sweep_plan(input_seeds(cg, graph)[0])
        setup_seeds, hold_seeds = required_seeds(cg, graph)
        buffer = cg.sweep_buffer(plan, (setup_seeds is not None,
                                        hold_seeds is not None))
        state = buffer.state
        seed_primary_inputs(cg, graph, state)
        for level in plan.levels:
            self._sweep_compiled_level(cg, table, state, level)
        required, hold_required = backward_required(
            cg, state, setup_seeds, hold_seeds,
            out=(buffer.required, buffer.hold_required))
        return CompiledAnalysis(
            graph=cg, state=state, required=required,
            hold_required=hold_required, solutions=table.solutions,
            stats=self.solver.stats.since(before),
            elapsed=time.perf_counter() - started)


class IncrementalEngine(GraphEngine):
    """A :class:`GraphEngine` attached to one graph that re-times it in full.

    :meth:`update` consumes the graph's dirty set and returns a from-scratch
    :meth:`GraphEngine.analyze` of the graph's current state, with
    whole-graph cone counts on its ``meta``.  Edit-proportional
    re-timing is :class:`~.incremental_compiled.CompiledIncrementalEngine`'s
    job; this engine caches nothing, so a rolled-back transaction or a failed
    update leaves it nothing to drop.
    """

    def __init__(self, graph: TimingGraph, **kwargs) -> None:
        if not isinstance(graph, TimingGraph):
            raise ModelingError("IncrementalEngine expects a TimingGraph")
        super().__init__(**kwargs)
        self.graph = graph

    def update(self) -> TimingReport:
        """Time the whole graph and mark its current state as timed."""
        graph = self.graph
        dirty_nets = len(graph.dirty_nets)
        report = self.analyze(graph)
        graph.clear_dirty()
        n = len(graph)
        return replace(report, meta=replace(
            report.meta, dirty_nets=dirty_nets, retimed_nets=n, required_nets=n,
            hold_required_nets=n if graph.hold_constrained else 0))
