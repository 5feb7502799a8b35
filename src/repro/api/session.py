"""The session layer: one object that owns the whole solver stack.

:class:`TimingSession` is the package's front door.  It builds — from one
validated :class:`~.config.SessionConfig` — the cell library, the persistent
characterization cache, the memoized stage solver (optionally persistent), and
the batched graph engine, then exposes the two things callers actually want
to do:

* :meth:`TimingSession.time` — time a design (a :class:`~repro.sta.TimingPath`,
  a :class:`~repro.sta.TimingGraph`, or a :class:`~.builder.DesignBuilder`) and
  get back a unified, serializable :class:`~.report.StreamingTimingReport`,
* :meth:`TimingSession.update` — re-time the dirty cone of an attached graph
  after in-place edits, and
* :meth:`TimingSession.characterize` — characterize driver cells through the
  session's cache and worker pool.

Every ``time`` and every ``update`` runs on one engine, the compiled
struct-of-arrays sweep (:meth:`~repro.sta.batch.GraphEngine.analyze_compiled`
and :class:`~repro.sta.incremental_compiled.CompiledIncrementalEngine`), and
returns a :class:`~.report.StreamingTimingReport`; a path is timed as its
chain-shaped graph.  Timing always runs serially in the calling process;
``config.jobs`` fans out characterization only.  Sessions are context
managers; leaving the ``with`` block closes the characterization worker pool,
if one was started.

::

    from repro.api import TimingSession

    with TimingSession() as session:
        report = session.time(graph)
        print(report.format_report())
        report.save("timing.json")
"""

from __future__ import annotations

import weakref
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

from .._version import __version__
from ..characterization.cache import CharacterizationCache, cached_characterize_inverter
from ..characterization.cell import CellCharacterization
from ..characterization.characterize import CharacterizationGrid
from ..characterization.library import CellLibrary, default_library, shipped_data_directory
from ..characterization.parallel import (
    CharacterizationRunner,
    characterize_inverter_parallel,
)
from ..core.driver_model import ModelingOptions
from ..core.stage_solver import SolverStats, StageSolver
from ..errors import ModelingError
from ..sta.batch import GraphEngine
from ..sta.graph import TimingGraph, chain_graph
from ..sta.incremental_compiled import CompiledIncrementalEngine
from ..sta.stage import TimingPath
from ..tech.inverter import InverterSpec
from ..sta.compiled import CompiledGraph
from .builder import DesignBuilder
from .config import SessionConfig
from .report import StreamingTimingReport

__all__ = ["TimingSession"]

#: Anything :meth:`TimingSession.time` accepts.
Design = Union[TimingPath, TimingGraph, DesignBuilder]


class TimingSession:
    """Facade over characterization, stage solving and graph timing.

    Construct with a :class:`SessionConfig`, keyword overrides of one, or
    nothing at all::

        TimingSession()                      # defaults: shipped library, serial
        TimingSession(persistent_stages=True)  # override one knob
        TimingSession(SessionConfig.from_env())  # env-var layer, explicit

    The session owns its resources: the stage-solution memo is shared by every
    analysis (so repeated designs hit cache), and the characterization worker
    pool is created lazily and closed by :meth:`close` / the ``with`` block.
    """

    def __init__(self, config: Optional[SessionConfig] = None, **overrides) -> None:
        base = config if config is not None else SessionConfig()
        self.config = base.replace(**overrides) if overrides else base
        cfg = self.config

        cache: Optional[CharacterizationCache] = None
        if cfg.use_characterization_cache:
            cache = CharacterizationCache(cfg.cache_dir)
        self._characterization_cache = cache

        if cfg.library_dir is None and cfg.cache_dir is None and cache is not None:
            # Default resources: share the process-wide library so sessions in
            # one process load the shipped cell data exactly once.
            self.library = default_library()
        else:
            directory = (
                cfg.library_dir if cfg.library_dir is not None else shipped_data_directory()
            )
            self.library = CellLibrary.from_directory(directory, cache=cache)

        persistent: "bool | Path" = False
        if cfg.persistent_stages:
            persistent = cfg.cache_dir / "stages" if cfg.cache_dir is not None else True
        self.solver = StageSolver(
            persistent=persistent, slew_low=cfg.slew_low, slew_high=cfg.slew_high
        )

        self._engine = GraphEngine(
            library=self.library,
            tech=self.library.tech,
            options=cfg.options,
            solver=self.solver,
        )
        self._incremental: Optional[CompiledIncrementalEngine] = None
        self._runner: Optional[CharacterizationRunner] = None
        self._managed = False
        self._closed = False
        # Single-slot compiled-graph cache: (graph weakref, compiled).  The
        # weak reference keeps the slot from pinning a graph (and its CSR
        # arrays) alive after the session moves on to a different one.
        self._compiled_cache: Optional[tuple] = None
        # The previous update()'s report, for warm event reuse.
        self._update_report: Optional[StreamingTimingReport] = None

    # --- lifecycle --------------------------------------------------------------------
    def __enter__(self) -> "TimingSession":
        # Inside a ``with`` block the characterization pool persists across
        # calls and is closed on exit.  Outside one, every characterization
        # cleans up its own pool, so an un-close()d session never leaks
        # worker processes.
        self._managed = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._managed = False
        self.close()

    def close(self) -> None:
        """Shut down the characterization worker pool, if any (idempotent).

        The session stays queryable after closing — the pool is recreated on
        demand if it is used again.
        """
        if self._runner is not None:
            self._runner.close()
            self._runner = None
        self._closed = True

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run (pool released)."""
        return self._closed

    # --- resources --------------------------------------------------------------------
    @property
    def tech(self):
        """The technology the session's library was characterized for."""
        return self.library.tech

    @property
    def characterization_cache(self) -> Optional[CharacterizationCache]:
        """The persistent cell cache the session reads/writes (None = disabled)."""
        return self._characterization_cache

    @property
    def stats(self) -> SolverStats:
        """Cumulative stage-solver counters over the session's lifetime."""
        return self.solver.stats

    def _characterization_runner(self) -> Optional[CharacterizationRunner]:
        """The shared characterization pool, when one should persist.

        Only managed (``with``-block) sessions keep a pool across calls; serial
        and unmanaged sessions return None, making each characterization clean
        up its own one-shot pool.
        """
        if self.config.jobs == 1 or not self._managed:
            return None
        if self._runner is None:
            self._runner = CharacterizationRunner(jobs=self.config.jobs)
        return self._runner

    # --- timing -----------------------------------------------------------------------
    def corner_options(self, corner: Optional[str]) -> ModelingOptions:
        """The :class:`ModelingOptions` a named corner times with.

        ``None`` is the implicit default corner (``config.options``); any other
        name must exist in ``config.corners``.
        """
        if corner is None:
            return self.config.options
        corners = self.config.corners or {}
        if corner not in corners:
            raise ModelingError(
                f"unknown corner {corner!r}; configured corners: "
                f"{sorted(corners) if corners else 'none'}"
            )
        return corners[corner]

    def time(
        self,
        design: Design,
        *,
        name: Optional[str] = None,
        corner: Optional[str] = None,
    ) -> StreamingTimingReport:
        """Time ``design`` and return its :class:`StreamingTimingReport`.

        Accepts a :class:`TimingPath` (timed as its chain-shaped graph, report
        ``kind="path"``), a :class:`TimingGraph`, or a :class:`DesignBuilder`
        (built first).  Every analysis is one serial, batched pass in this
        process on the compiled engine: the graph is frozen into a
        :class:`~repro.sta.compiled.CompiledGraph` (for a :class:`TimingGraph`,
        cached across calls and patched in place after parameter edits; only a
        topology edit recompiles) and swept level by level as arrays.  The
        result is a :class:`~repro.api.report.StreamingTimingReport` whose
        events materialize on demand.

        ``name`` overrides the report's design label; ``corner`` times the
        design under that configured corner's modeling options (all corners
        share the session's one stage-solution memo — option fields are part
        of every fingerprint, so corners never alias each other's entries).
        Every analysis computes each polarity the graph constrains: one
        traversal carries both arrival planes, and the hold checks add zero
        stage solves.
        """
        self._closed = False
        options = self.corner_options(corner)
        kind = "graph"
        if isinstance(design, DesignBuilder):
            graph, label = design.build(), design.name
        elif isinstance(design, TimingPath):
            graph, _ = chain_graph(design, input_transition=options.transition)
            kind, label = "path", design.name
        elif isinstance(design, TimingGraph):
            graph, label = design, "graph"
        else:
            raise ModelingError(
                "time() expects a TimingPath, TimingGraph or DesignBuilder, "
                f"got {type(design).__name__}"
            )
        if graph is design:
            compiled_graph, fresh, patched = self._compiled_for(graph)
        else:
            # Built and path graphs are new objects on every call: compile
            # them without evicting the cached twin of a long-lived graph.
            compiled_graph, fresh, patched = self._engine.compile(graph), True, 0
        analysis = self._engine.analyze_compiled(
            graph, compiled_graph=compiled_graph, options=options
        )
        return StreamingTimingReport.from_compiled(
            analysis,
            design=name if name is not None else label,
            kind=kind,
            version=__version__,
            compile_seconds=compiled_graph.compile_seconds if fresh else 0.0,
            patched_nets=patched,
        )

    def _compiled_for(self, graph: TimingGraph) -> "tuple[CompiledGraph, bool, int]":
        """The cached compiled twin of ``graph``, patched or recompiled as needed.

        Returns ``(compiled, fresh, patched)`` where ``fresh`` says a full
        compile actually ran and ``patched`` counts nets rewritten in place.
        The single-slot cache is keyed on graph identity (held weakly, so the
        slot never pins an abandoned graph alive):

        * constraint and primary-input changes are read live at analyze time
          and never invalidate it,
        * parameter edits (``resize_driver`` / ``set_line`` /
          ``set_extra_load`` / ``set_receiver``) are caught up in O(edits) by
          :meth:`~repro.sta.compiled.CompiledGraph.patch`,
        * only topology edits (``add_fanout`` / ``remove_fanout``) or a new
          graph force a recompile.
        """
        graph.on_rollback(self._forget)  # what follows absorbs edits a rollback undoes
        cached = self._compiled_cache
        if cached is not None and cached[0]() is graph:
            compiled_graph = cached[1]
            if compiled_graph.version == graph.version:
                return compiled_graph, False, 0
            if compiled_graph.topology_version == graph.topology_version:
                patched = compiled_graph.patch(
                    graph, library=self.library, tech=self.library.tech)
                return compiled_graph, False, patched
        compiled_graph = self._engine.compile(graph)
        self._compiled_cache = (weakref.ref(graph), compiled_graph)
        return compiled_graph, True, 0

    def _forget(self, graph: TimingGraph) -> None:
        """Drop ``graph``'s compiled snapshot, planes and last report (not the memo)."""
        if self._compiled_cache is not None and self._compiled_cache[0]() is graph:
            self._compiled_cache = None
        if self._incremental is not None and self._incremental.graph is graph:
            self._incremental.invalidate()  # the next update re-times in full
            self._update_report = None

    def time_corners(
        self,
        design: Design,
        *,
        name: Optional[str] = None,
    ) -> "dict[str, StreamingTimingReport]":
        """Time ``design`` under every configured corner: name -> report.

        All corners run through the session's single memoized solver; within
        each corner, repeated stage configurations still hit the memo, while the
        per-corner option fields keep the corners' entries apart.
        """
        corners = self.config.corners
        if not corners:
            raise ModelingError(
                "no corners configured; set SessionConfig.corners (a mapping "
                "of corner name -> ModelingOptions)"
            )
        return {
            corner: self.time(
                design,
                corner=corner,
                name=f"{name}@{corner}" if name else None,
            )
            for corner in sorted(corners)
        }

    def update(
        self,
        design: Optional[TimingGraph] = None,
        *,
        name: Optional[str] = None,
    ) -> StreamingTimingReport:
        """Incrementally re-time a graph after in-place edits.

        The first call for a graph performs (and caches) a full analysis;
        afterwards the session stays attached to it, and each call re-times the
        edits made through the graph's edit operations (``resize_driver``,
        ``set_line``, ``add_fanout``, ``set_required``, ...) — see
        :class:`repro.sta.incremental_compiled.CompiledIncrementalEngine`.
        Parameter edits patch the compiled snapshot in place
        (``meta.compile_seconds == 0``).  A masked sweep then re-times only the
        dirty cone over the persistent array planes — or, where a count of
        levels and events says it is cheaper (small graphs), one planned full
        sweep re-times the graph — and event records of nets the update left
        unchanged are carried over from the previous report.  ``design`` defaults
        to the graph of the previous :meth:`update`; passing a different graph
        re-attaches the session (dropping the old incremental state).  Results
        are bit-identical to ``session.time(graph)`` on the same state; the
        report's ``meta.dirty_nets`` / ``meta.retimed_nets`` say how much work
        the update actually did.

        Incremental updates always time the default corner — re-time other
        corners in full with ``time(design, corner=...)``.  Builders build a
        *fresh* graph per ``build()``; call update on the built
        :class:`TimingGraph` itself.
        """
        self._closed = False
        engine = self._incremental
        if design is None:
            if engine is None:
                raise ModelingError(
                    "update() without a design needs a previously attached "
                    "graph; call update(graph) first"
                )
        elif isinstance(design, TimingGraph):
            if engine is None or engine.graph is not design:
                # The dirty set has exactly one consumer per graph.
                engine = CompiledIncrementalEngine(self._engine, design)
                self._incremental = engine
                self._update_report = None  # stale: belongs to the old graph
        elif isinstance(design, DesignBuilder):
            raise ModelingError(
                "update() needs the TimingGraph itself — a DesignBuilder "
                "builds a fresh graph on every build(); keep the built graph, "
                "edit it in place, and pass it here"
            )
        else:
            raise ModelingError(
                f"update() expects a TimingGraph, got {type(design).__name__}"
            )
        compiled_graph, fresh, patched = self._compiled_for(engine.graph)
        analysis = engine.update(compiled_graph, patched_nets=patched)
        report = StreamingTimingReport.from_compiled(
            analysis,
            design=name if name is not None else "graph",
            version=__version__,
            compile_seconds=compiled_graph.compile_seconds if fresh else 0.0,
            patched_nets=patched,
            reuse=self._update_report,
            changed_nets=engine.last_changed_nets,
        )
        self._update_report = report
        return report

    # --- characterization -------------------------------------------------------------
    def characterize(
        self,
        sizes: "float | Sequence[float]",
        *,
        grid: Optional[CharacterizationGrid] = None,
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> List[CellCharacterization]:
        """Characterize driver cells through the session's cache and pool.

        ``sizes`` is one driver size or a sequence; ``grid`` overrides the
        characterization grid (None = the full shipped grid).  Each cell is
        served from the persistent characterization cache when possible and
        persisted to it otherwise.  Sizes new to the session's library and
        characterized on the standard full grid are registered in it;
        custom-grid cells are only returned, so a coarse characterization never
        enters a library other code may be timing against (with the default
        config the session's library is the process-shared ``default_library``).
        """
        self._closed = False
        if isinstance(sizes, (int, float)):
            sizes = [sizes]
        standard_grid = grid is None or grid == CharacterizationGrid.default()
        runner = self._characterization_runner()
        cells: List[CellCharacterization] = []
        for size in sizes:
            spec = InverterSpec(tech=self.library.tech, size=float(size))
            if self._characterization_cache is not None:
                cell, _ = cached_characterize_inverter(
                    spec,
                    grid=grid,
                    cache=self._characterization_cache,
                    jobs=self.config.jobs,
                    runner=runner,
                    progress=progress,
                )
            else:
                cell = characterize_inverter_parallel(
                    spec, grid=grid, jobs=self.config.jobs, runner=runner, progress=progress
                )
            if standard_grid and float(size) not in self.library:
                self.library.add(cell)
            cells.append(cell)
        return cells

    # --- presentation -----------------------------------------------------------------
    def describe(self) -> str:
        """Multi-line summary of the session's resources and cache behaviour."""
        stats = self.stats
        lines = [
            f"timing session (repro {__version__})",
            f"  {self.config.describe()}",
            f"  library: {len(self.library)} cells, sizes {self.library.sizes}",
            f"  solver: {stats.requests} requests, "
            f"{stats.computed} unique solves, "
            f"hit rate {100 * stats.hit_rate:.1f}%",
        ]
        return "\n".join(lines)
