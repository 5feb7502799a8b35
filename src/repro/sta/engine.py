"""Miniature gate-level static timing engine built on the two-ramp driver model.

For every stage the engine runs the paper's modeling flow (Ceff, breakpoint,
one-or-two ramps), replaces the driver with the modeled PWL source to obtain the
far-end waveform, and propagates the far-end transition time as the next stage's
input slew — exactly the role the model plays inside a production STA tool.  Per the
paper, the far-end waveform does not show the plateau effect, so a single saturated
ramp is an adequate stimulus for the next stage and no re-characterization of the
cells is required.

Since the graph refactor, :class:`PathTimer` is a thin adapter over the timing-graph
subsystem: :meth:`PathTimer.analyze` builds the chain-shaped
:class:`~.graph.TimingGraph` equivalent to the path and runs it through the shared
memoized :class:`~repro.core.stage_solver.StageSolver` (so repeated stage
configurations across paths hit cache); :meth:`PathTimer.analyze_serial` keeps the
original cache-free per-stage loop as the naive baseline the benchmarks and
equivalence tests compare against.  Arbitrary DAGs (fanout trees, reconvergence,
mixed rise/fall arrivals) go through :class:`~.batch.GraphEngine` — and both
views are served, with a unified serializable report, by the recommended front
door :class:`repro.api.TimingSession`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from ..characterization.library import CellLibrary, default_library
from ..constants import SLEW_HIGH_THRESHOLD, SLEW_LOW_THRESHOLD
from ..core.driver_model import DriverOutputModel, ModelingOptions
from ..core.far_end import FarEndResponse
from ..core.stage_solver import StageSolver
from ..errors import ModelingError
from ..tech.technology import Technology, generic_180nm
from ..units import to_ps
from ._deprecation import warn_deprecated_once
from .batch import GraphEngine
from .graph import chain_graph
from .stage import TimingPath, TimingStage

__all__ = ["StageTiming", "PathTimingReport", "PathTimer"]


@dataclass(frozen=True)
class StageTiming:
    """Timing results of one stage."""

    stage: TimingStage
    input_slew: float  #: slew presented at this stage's driver input [s]
    model: DriverOutputModel
    far_end: FarEndResponse
    gate_delay: float  #: input 50% to driver-output 50% [s]
    interconnect_delay: float  #: driver-output 50% to far-end 50% [s]
    output_slew: float  #: far-end transition time (threshold-to-threshold) [s]

    @property
    def stage_delay(self) -> float:
        """Total stage delay: input 50% to far-end 50% [s]."""
        return self.gate_delay + self.interconnect_delay

    def describe(self) -> str:
        """Single-line summary in ps."""
        kind = self.model.kind if self.model is not None else "?"
        return (f"{self.stage.name}: {kind:11s} gate {to_ps(self.gate_delay):6.1f} ps"
                f" + wire {to_ps(self.interconnect_delay):6.1f} ps = "
                f"{to_ps(self.stage_delay):6.1f} ps  (far slew {to_ps(self.output_slew):6.1f} ps)")


@dataclass(frozen=True)
class PathTimingReport:
    """Stage-by-stage and cumulative timing of one path."""

    path: TimingPath
    stages: List[StageTiming]

    @property
    def total_delay(self) -> float:
        """Sum of all stage delays [s]."""
        return sum(stage.stage_delay for stage in self.stages)

    @property
    def output_slew(self) -> float:
        """Far-end transition time of the final stage [s]."""
        if not self.stages:
            raise ModelingError(
                f"timing report of path {self.path.name!r} has no stages, "
                "so it has no output slew")
        return self.stages[-1].output_slew

    def stage_delays(self) -> List[float]:
        """Per-stage delays [s]."""
        return [stage.stage_delay for stage in self.stages]

    def format_report(self) -> str:
        """Multi-line human-readable timing report."""
        lines = [f"Timing path {self.path.name!r} "
                 f"(input slew {to_ps(self.path.input_slew):.0f} ps)"]
        if not self.stages:
            lines.append("  (no stages timed)")
            return "\n".join(lines)
        lines.extend(f"  {stage.describe()}" for stage in self.stages)
        lines.append(f"  total path delay: {to_ps(self.total_delay):.1f} ps")
        return "\n".join(lines)


class PathTimer:
    """Analyzes timing paths with the effective-capacitance driver model.

    .. deprecated::
        Construct a :class:`repro.api.TimingSession` and call
        ``session.time(path)`` instead; the session owns the library and caches
        for the whole solver stack and produces the unified
        :class:`repro.api.TimingReport`.  This shim runs the exact same
        :class:`~.batch.GraphEngine`, so its results stay bit-identical.

    ``solver`` lets several timers (or a timer and a :class:`GraphEngine`) share
    one memoized stage solver; by default each timer owns a private one whose slew
    thresholds match the timer's.
    """

    def __init__(self, *, library: Optional[CellLibrary] = None,
                 tech: Optional[Technology] = None,
                 options: Optional[ModelingOptions] = None,
                 slew_low: float = SLEW_LOW_THRESHOLD,
                 slew_high: float = SLEW_HIGH_THRESHOLD,
                 solver: Optional[StageSolver] = None) -> None:
        warn_deprecated_once(
            "PathTimer",
            "PathTimer is deprecated; use repro.api.TimingSession "
            "(session.time(path)) instead")
        self.library = library if library is not None else default_library()
        self.tech = tech if tech is not None else generic_180nm()
        self.options = options if options is not None else ModelingOptions()
        self.slew_low = slew_low
        self.slew_high = slew_high
        self.solver = solver if solver is not None else StageSolver(
            slew_low=slew_low, slew_high=slew_high)
        self._graph_timer = GraphEngine(
            library=self.library, tech=self.tech, options=self.options,
            slew_low=self.slew_low, slew_high=self.slew_high, solver=self.solver)

    # --- helpers ---------------------------------------------------------------------
    def _stage_load(self, stage: TimingStage) -> float:
        load = stage.extra_load
        if stage.receiver_size is not None:
            load += self.tech.inverter_input_capacitance(stage.receiver_size)
        return load

    def _stage_transition(self, index: int) -> str:
        """Signal direction at the driver output of stage ``index``.

        The primary input is taken as a rising edge, so the first inverter output
        falls, the second rises, and so on.
        """
        base = self.options.transition
        if index % 2 == 0:
            return "fall" if base == "rise" else "rise"
        return base

    # --- analysis ----------------------------------------------------------------------
    def analyze_stage(self, stage: TimingStage, input_slew: float, *,
                      transition: str, memoize: bool = True) -> StageTiming:
        """Time a single stage for a given input slew and output transition direction."""
        cell = self.library.get(stage.driver_size)
        load = self._stage_load(stage)
        options = replace(self.options, transition=transition, reference_time=0.0)
        solution = self.solver.solve(cell, input_slew, stage.line, load,
                                     options=options, need_waveforms=True,
                                     memoize=memoize)
        return StageTiming(stage=stage, input_slew=solution.input_slew,
                           model=solution.model, far_end=solution.far_end,
                           gate_delay=solution.gate_delay,
                           interconnect_delay=solution.interconnect_delay,
                           output_slew=solution.far_slew)

    def analyze(self, path: TimingPath) -> PathTimingReport:
        """Time every stage of ``path``, propagating slews from stage to stage.

        Implemented as a chain-shaped graph analysis so paths share the graph
        subsystem's stage memo: a stage configuration solved anywhere (this path,
        another path, a full graph run) is never solved twice.
        """
        if not isinstance(path, TimingPath):
            raise ModelingError("analyze() expects a TimingPath")
        graph, names = chain_graph(path, input_transition=self.options.transition)
        report = self._graph_timer.analyze(graph, need_waveforms=True)
        results: List[StageTiming] = []
        for stage, name in zip(path.stage_list, names):
            per_net = report.events[name]
            (event,) = per_net.values()  # a chain carries exactly one event per net
            solution = event.solution
            results.append(StageTiming(
                stage=stage, input_slew=event.input_slew, model=solution.model,
                far_end=solution.far_end, gate_delay=solution.gate_delay,
                interconnect_delay=solution.interconnect_delay,
                output_slew=solution.far_slew))
        return PathTimingReport(path=path, stages=results)

    def analyze_serial(self, path: TimingPath, *,
                       memoize: bool = False) -> PathTimingReport:
        """The original one-stage-at-a-time loop (no graph, no memo by default).

        Kept as the naive baseline: benchmarks measure the graph subsystem's
        speedup against it, and the equivalence tests assert that graph-mode chain
        analysis reproduces it bit-for-bit.
        """
        if not isinstance(path, TimingPath):
            raise ModelingError("analyze() expects a TimingPath")
        results: List[StageTiming] = []
        slew = path.input_slew
        for index, stage in enumerate(path.stage_list):
            transition = self._stage_transition(index)
            timing = self.analyze_stage(stage, slew, transition=transition,
                                        memoize=memoize)
            results.append(timing)
            # The far-end waveform is propagated to the next gate as a saturated ramp
            # with the same threshold-to-threshold transition time.
            slew = timing.output_slew / (self.slew_high - self.slew_low)
        return PathTimingReport(path=path, stages=results)
