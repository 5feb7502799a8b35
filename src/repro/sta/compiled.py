"""Struct-of-arrays timing graphs: the timing engine, from 3 nets to 1M.

:class:`~.graph.TimingGraph` is one Python object and one dict entry per net,
and its reference sweep builds one :class:`repro.api.report.TimingEvent` per
event up front — comfortable at 1k nets, but at SoC scale (100k-1M nets)
the per-object bookkeeping (attribute walks, dict churn, per-event hashing)
dominates wall clock and peak RSS long before any timing math runs.  This
module freezes a graph into a columnar twin:

* :func:`compile_graph` produces a :class:`CompiledGraph` — CSR fanin/fanout
  adjacency, level boundaries, per-net loads, deduplicated stage
  configurations (cell, line, load) and endpoint masks, all as contiguous
  numpy arrays indexed by *net id* (the position in the level-flattened
  topological order).  Once each net's fields are pulled into arrays, every
  O(nets + edges) step of the compile is a numpy pass over all nets at once;
  library and fingerprint calls run once per distinct driver size and line
  object.
* A timing event is an integer: ``event = net_id * 2 + transition`` with
  ``transition`` 0 = ``"fall"``, 1 = ``"rise"`` (the sorted transition order,
  so array order matches the object engine's per-net iteration order).  All
  per-event planes — late/early arrivals, slews, stage delays, winning
  sources, required times — are flat float64/int64 arrays of length
  ``2 * n_nets``, held by :class:`SweepState` / :class:`CompiledAnalysis`.
* The per-level merge (:func:`merge_level`) and the backward required pass
  (:func:`backward_required`) are pure array reductions whose vectorized
  tie-breaks reproduce the object engine's tuple comparisons *exactly*:
  the late plane elects ``max((arrival, slew, source))`` and the early plane
  ``min((early_arrival, slew, source))`` via ``np.lexsort`` with a
  name-rank ordinal standing in for the source tuple, and required times
  reduce per fanout segment with the NaN-skipping ``np.fmin`` / ``np.fmax``,
  NaN standing in for None.  Since
  float comparisons carry no rounding, the compiled engine is bit-identical
  to the object engine whenever both are answered by the same stage-solution
  memo (and ≤1e-9 relative otherwise, asserted by the scale benchmark).
* A level's stage solves collapse to unique ``(config, transition, input
  slew)`` keys (:func:`level_solve_keys`); each key the graph solved is a
  row of its :class:`SolutionTable`, which every later sweep looks up.
* Their index work depends only on the topology and on which events exist,
  itself fixed by the topology and the primary inputs' transitions, so a
  :class:`SweepPlan` resolves it once per set of seeded root events
  (:meth:`CompiledGraph.sweep_plan`) and every warm full sweep reuses it.
  The sweep also reuses the plane buffer it published last once nothing
  reads it (:meth:`CompiledGraph.sweep_buffer`), and the seed arrays of the
  current stimuli and constraints (:func:`input_seeds`,
  :func:`required_seeds`), so a warm re-time only moves values.

The driving loop lives in :meth:`repro.sta.batch.GraphEngine.analyze_compiled`
(it owns the :class:`~repro.core.stage_solver.StageSolver`); this module holds
the frozen structure, the array kernels and the :class:`CompiledAnalysis`
result — which materializes :class:`repro.api.report.TimingEvent` records
*on demand*, so a 100k-net analysis never flattens O(graph) Python objects
unless a caller iterates them all.  Every memoized
:meth:`repro.api.TimingSession.time` / ``update`` runs here, whatever the
design's size.

Constraints and primary inputs are deliberately *not* compiled: they are read
live from the :class:`~.graph.TimingGraph` at analysis time (vectorized into
seed arrays), so clock/required edits and ``set_input`` never invalidate the
compiled structure.  Parameter edits (driver sizes, line swaps, extra loads,
receivers) are absorbed by :meth:`CompiledGraph.patch`, which rewrites only
the affected struct-of-arrays entries in place; only *topology* edits
(``add_fanout`` / ``remove_fanout``, tracked by
:attr:`TimingGraph.topology_version`) force a full :func:`compile_graph`.
On top of the patched arrays,
:class:`repro.sta.incremental_compiled.CompiledIncrementalEngine` re-times
just the dirty fanout cone (and re-requires the dirty fanin cone) instead of
re-sweeping the graph.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field, fields
from itertools import chain
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..characterization.cell import CellCharacterization
from ..characterization.library import CellLibrary
from ..core.driver_model import ModelingOptions
from ..core.stage_solver import StageSolution, StageSolver, _options_fingerprint
from ..errors import ModelingError
from ..interconnect.rlc_line import RLCLine
from ..tech.technology import Technology
from .graph import TimingGraph, check_mode, event_options

__all__ = ["TRANSITIONS", "CompiledGraph", "ConfigInterner", "compile_graph",
           "SolutionTable", "SweepState", "CompiledAnalysis", "input_seeds",
           "seed_primary_inputs", "merge_level", "merge_nets", "MergePlan",
           "constraint_seeds", "required_seeds", "backward_required",
           "RequiredPlan", "SweepPlan"]

#: Input-transition axis of the event encoding, in sorted order — index 0 is
#: ``"fall"``, index 1 is ``"rise"``, so event ids enumerate transitions the
#: same way the object engine's ``sorted(per_net.items())`` does.
TRANSITIONS: Tuple[str, str] = ("fall", "rise")


@dataclass(eq=False)
class ConfigInterner:
    """Append-only stage-configuration interning tables behind :meth:`CompiledGraph.patch`.

    Exactly the tables :func:`compile_graph` builds while deduplicating
    (cell, line, load) configurations, kept on the snapshot so a patch can
    intern *new* configurations (a resized driver, a re-routed line, a changed
    load) consistently with the originals: existing config ids never change
    meaning, new ones append.  Lines are deduplicated by content fingerprint
    only — the ``id()`` memo :func:`compile_graph` layers on top is safe within
    one compile pass but not across calls (ids are reused after collection).
    """

    cells: Dict[float, Tuple[int, CellCharacterization]]  #: size -> (idx, cell)
    lines: List[RLCLine]  #: line idx -> line
    line_keys: Dict[str, int]  #: line fingerprint -> line idx
    configs: Dict[Tuple[int, int, float], int]  #: (cell, line, load) -> config


@dataclass(eq=False)
class CompiledGraph:
    """One :class:`~.graph.TimingGraph` frozen into struct-of-arrays form.

    Net ids index the level-flattened topological order (:attr:`order`); the
    arrays below are all indexed by net id unless noted.  The object is a
    *snapshot*: :attr:`version` records the source graph's structural edit
    counter at compile time, and the engine refuses to analyze with a stale
    snapshot.  Besides what a patch rewrites, only :attr:`solution_tables`
    changes: it grows across analyses.
    """

    order: List[str]  #: net names in level order (net id -> name)
    index: Dict[str, int]  #: name -> net id
    level_ptr: np.ndarray  #: int64[n_levels+1], net-id boundaries per level
    name_rank: np.ndarray  #: int64[n], rank of each net's name in sorted order
    fo_indptr: np.ndarray  #: int64[n+1], CSR fanout row pointers
    fo_indices: np.ndarray  #: int64[E], fanout targets, in declaration order
    fi_indptr: np.ndarray  #: int64[n+1], CSR fanin row pointers
    fi_indices: np.ndarray  #: int64[E], fanin sources
    load: np.ndarray  #: float64[n], far-end gate load (same float-add order as net_load)
    config_id: np.ndarray  #: int64[n], stage-configuration id per net
    config_cell: List[CellCharacterization]  #: config id -> characterized cell
    config_line: List[RLCLine]  #: config id -> RLC line
    config_load: np.ndarray  #: float64[n_configs], load per config
    is_endpoint: np.ndarray  #: bool[n], data-consuming nets (receiver / no fanout)
    is_sink: np.ndarray  #: bool[n], fanout-less nets (worst-arrival domain)
    version: int  #: source graph's structural version at compile (or last patch)
    topology_version: int  #: source graph's connectivity version at compile time
    compile_seconds: float  #: wall clock :func:`compile_graph` spent
    interner: Optional[ConfigInterner] = field(default=None, repr=False)
    #: (options fingerprint, slew_low, slew_high) -> the stages solved under
    #: that setting; persistent across analyses of this compiled graph.
    solution_tables: Dict[Tuple[str, float, float], "SolutionTable"] = field(
        default_factory=dict, repr=False)

    @property
    def n_nets(self) -> int:
        return len(self.order)

    @property
    def n_levels(self) -> int:
        return len(self.level_ptr) - 1

    @property
    def n_configs(self) -> int:
        """Distinct (cell, line, load) stage configurations in the graph."""
        return len(self.config_cell)

    @property
    def nbytes(self) -> int:
        """Bytes held by the structure's numpy arrays (the columnar footprint).

        Includes the :class:`SweepPlan` and the cached seed arrays once a
        sweep has built them (not the sweep's plane buffer).
        """
        total = sum(array.nbytes for array in (
            self.level_ptr, self.name_rank, self.fo_indptr, self.fo_indices,
            self.fi_indptr, self.fi_indices, self.load, self.config_id,
            self.config_load, self.is_endpoint, self.is_sink))
        plan = getattr(self, "_sweep_plan_cache", None)
        if plan is not None:
            total += plan.nbytes
        inputs = getattr(self, "_input_seeds_cache", None)
        if inputs is not None:
            total += sum(array.nbytes for array in inputs[1])
        constraints = getattr(self, "_required_seeds_cache", None)
        if constraints is not None:
            total += sum(seeds.nbytes for seeds in constraints[2]
                         if seeds is not None)
        return total

    def level_names(self) -> List[List[str]]:
        """The levelization as name lists (the report's ``levels`` field).

        Memoized: the levelization cannot change without a recompile (patching
        is parameter-only), and per-report reslicing would cost O(nets) on
        every warm incremental update.
        """
        cached = getattr(self, "_level_names_cache", None)
        if cached is None:
            cached = [self.order[self.level_ptr[i]:self.level_ptr[i + 1]]
                      for i in range(self.n_levels)]
            self._level_names_cache = cached
        return cached

    def describe(self) -> str:
        return (f"compiled graph: {self.n_nets} nets in {self.n_levels} levels,"
                f" {len(self.fo_indices)} edges, {self.n_configs} stage"
                f" configs, {self.nbytes / 1024:.0f} KiB columnar")

    def sink_event_ids(self) -> np.ndarray:
        """Both event ids of every sink net, ascending (the worst-arrival domain).

        Memoized like :meth:`level_names`: sinks are fanout-less nets, which
        only a recompile can change, and the worst-sink search then reduces
        over the sinks' events instead of all ``2 * n_nets``.
        """
        cached = getattr(self, "_sink_events_cache", None)
        if cached is None:
            cached = _interleave(np.flatnonzero(self.is_sink))
            self._sink_events_cache = cached
        return cached

    def solution_table(self, options: ModelingOptions,
                       solver: StageSolver) -> "SolutionTable":
        """The :class:`SolutionTable` of ``options`` and ``solver``'s slew
        thresholds: all a solution depends on beyond its key."""
        key = (_options_fingerprint(options), solver.slew_low, solver.slew_high)
        table = self.solution_tables.get(key)
        if table is None:
            table = self.solution_tables[key] = SolutionTable(options)
        return table

    def sweep_plan(self, roots: np.ndarray) -> "SweepPlan":
        """The :class:`SweepPlan` of the seeded root events ``roots`` (memoized).

        One slot, rebuilt only when a sweep seeds different root events (a
        primary input that changed transition): a warm full sweep of this
        snapshot, patched or not, reuses one plan.
        """
        cached = getattr(self, "_sweep_plan_cache", None)
        if cached is None or not (cached.roots is roots
                                  or np.array_equal(cached.roots, roots)):
            cached = SweepPlan(self, roots)
            self._sweep_plan_cache = cached
        return cached

    def sweep_buffer(self, plan: "SweepPlan",
                     constrained: Tuple[bool, bool]) -> "_PlaneBuffer":
        """Planes for a full sweep of ``plan``, setup / hold ``constrained``.

        The buffer this returned last, when it was built for the same plan
        and nothing outside it still reads its planes (:func:`_unshared`: the
        analysis it backed and every report on it are gone), else a new one
        from :meth:`SweepPlan.allocate`.  A reused buffer needs no fill: the
        sweep rewrites every entry of the events that exist, and the others
        kept their from-scratch values.  Only a required plane whose
        polarity was constrained and no longer is goes back to all-NaN.
        """
        published = getattr(self, "_sweep_buffer_cache", None)
        if (published is not None and published[0] is plan
                and _unshared(published[1])):
            buffer = published[1]
            for plane, was, now in zip((buffer.required, buffer.hold_required),
                                       published[2], constrained):
                if was and not now:
                    plane.fill(np.nan)
        else:
            buffer = plan.allocate(2 * self.n_nets)
        self._sweep_buffer_cache = (plan, buffer, constrained)
        return buffer

    def release_sweep_buffer(self, state: "SweepState") -> None:
        """Stop reusing the buffer behind ``state``: its new owner writes it."""
        published = getattr(self, "_sweep_buffer_cache", None)
        if published is not None and published[1].state is state:
            self._sweep_buffer_cache = None

    def lend_sweep_buffer(self, buffer: "_PlaneBuffer") -> None:
        """Have the next sweep of the last plan reuse ``buffer``, a sweep of that plan."""
        plan = getattr(self, "_sweep_plan_cache", None)
        self._sweep_buffer_cache = (plan, buffer, (True, True))

    def patch(self, graph: TimingGraph, *, library: CellLibrary,
              tech: Technology) -> int:
        """Catch the snapshot up with ``graph``'s parameter edits in place.

        Rewrites only the struct-of-arrays entries the edits since
        :attr:`version` touched — per-net loads, config ids and endpoint
        flags, interning any *new* (cell, line, load) stage configuration
        through the compile-time :class:`ConfigInterner` — and syncs
        :attr:`version`, so the snapshot is indistinguishable from a fresh
        :func:`compile_graph` at a fraction of the cost.  O(edited nets), not
        O(graph).  Returns the number of nets rewritten.

        Only *parameter* edits (``resize_driver`` / ``set_line`` /
        ``set_extra_load`` / ``set_receiver``) are patchable; a topology edit
        (``add_fanout`` / ``remove_fanout``) changes adjacency, levels and
        loads at once and raises :class:`~repro.errors.ModelingError` — the
        caller must recompile.

        The patch is atomic: every edited net's load and cell are resolved
        before anything is written, so a failure (an uncharacterized driver
        size) leaves the snapshot exactly as it was.  :attr:`load` and
        :attr:`config_id` are then written in place: only the sweep that
        consumes the snapshot reads them, never a finished analysis.
        :attr:`is_endpoint`, which every :class:`CompiledAnalysis` captures,
        is replaced (never written) and only when a flag actually flips;
        config tables grow append-only.
        """
        if graph.topology_version != self.topology_version:
            raise ModelingError(
                "cannot patch across topology edits (add_fanout / "
                "remove_fanout change adjacency and levels); recompile")
        if self.interner is None:
            raise ModelingError(
                "compiled graph carries no interning tables; recompile")
        edited = sorted(graph.param_edits_since(self.version))
        unknown = [name for name in edited if name not in self.index]
        if unknown:
            raise ModelingError(
                f"cannot patch: net(s) {unknown} unknown to the compiled "
                "graph (was it compiled from a different graph?)")
        if not edited:
            self.version = graph.version
            return 0
        nets = graph.nets
        cap = _input_caps(tech)
        tables = self.interner
        # Resolve first: the library lookup of a new size is the step that
        # can fail, and nothing has been written yet when it does.
        new_cells: Dict[float, CellCharacterization] = {}
        resolved = []
        for name in edited:
            net = nets[name]
            # The load contract of _input_caps, one net at a time.
            net_load = net.extra_load
            for target in net.fanout:
                net_load += cap(nets[target].driver_size)
            if net.receiver_size is not None:
                net_load += cap(net.receiver_size)
            size = net.driver_size
            if size not in tables.cells and size not in new_cells:
                new_cells[size] = library.get(size)
            resolved.append((self.index[name], net, net_load))
        flipped = []
        for net_id, net, net_load in resolved:
            cell_entry = tables.cells.get(net.driver_size)
            if cell_entry is None:
                cell_entry = (len(tables.cells), new_cells[net.driver_size])
                tables.cells[net.driver_size] = cell_entry
            key = net.line.fingerprint()
            line_idx = tables.line_keys.get(key)
            if line_idx is None:
                line_idx = len(tables.lines)
                tables.lines.append(net.line)
                tables.line_keys[key] = line_idx
            config_key = (cell_entry[0], line_idx, float(net_load))
            config = tables.configs.get(config_key)
            if config is None:
                config = len(self.config_cell)
                tables.configs[config_key] = config
                self.config_cell.append(cell_entry[1])
                self.config_line.append(tables.lines[line_idx])
                self.config_load = np.append(self.config_load,
                                             float(net_load))
            self.load[net_id] = net_load
            self.config_id[net_id] = config
            if self.is_endpoint[net_id] != net.is_endpoint:
                flipped.append(net_id)
        if flipped:
            is_endpoint = self.is_endpoint.copy()
            is_endpoint[flipped] = ~is_endpoint[flipped]
            self.is_endpoint = is_endpoint
        self.version = graph.version
        return len(edited)


def _input_caps(tech: Technology) -> Callable[[float], float]:
    """A per-size memo of ``tech.inverter_input_capacitance``: the load contract.

    A net's far-end load is its ``extra_load``, plus the input capacitance of
    each fanout driver in declaration order, plus the terminal receiver's,
    added left to right — the float-add order of ``GraphEngine.net_load``.  A
    pairwise reduction would associate differently, so :func:`compile_graph`
    adds the caps one fanout column at a time over all nets and
    :meth:`CompiledGraph.patch` one net at a time; both make the same IEEE
    adds in the same order, and both compiled loads equal the object
    engine's bit for bit.  Input caps are pure functions of the size, so one
    evaluation per distinct size serves every net.
    """
    caps: Dict[float, float] = {}

    def cap(size: float) -> float:
        value = caps.get(size)
        if value is None:
            value = tech.inverter_input_capacitance(size)
            caps[size] = value
        return value

    return cap


def _first_appearance(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Renumber equal ``values`` by first appearance.

    Returns ``(first, inverse)``: ``first[k]`` is the position where the
    k-th distinct value first occurs (ascending), and ``inverse[i]`` is the
    number of ``values[i]`` — the numbering a dict filled in order assigns.
    """
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    renumber = np.empty_like(by_first)
    renumber[by_first] = np.arange(by_first.size)
    return first[by_first], renumber[inverse]


def compile_graph(graph: TimingGraph, *, library: CellLibrary,
                  tech: Technology) -> CompiledGraph:
    """Freeze ``graph`` into a :class:`CompiledGraph` snapshot.

    O(nets + edges), as array passes: comprehensions pull the net objects'
    fields into arrays, and the CSR adjacency, loads, stage configurations
    and endpoint masks are numpy operations over those.  ``library.get``
    runs once per distinct driver size and ``fingerprint()`` once per line
    object, each in first-appearance order, so errors surface in net order
    and the :class:`ConfigInterner` tables number cells, lines and (cell,
    line, load) configurations exactly as a net-by-net dict fill would.
    Loads follow the contract of :func:`_input_caps`.  Cells are fetched
    through ``library`` here; analysis never touches the library again.
    """
    if not isinstance(graph, TimingGraph):
        raise ModelingError("compile_graph() expects a TimingGraph")
    started = time.perf_counter()
    levels = graph.levels
    order = [name for level in levels for name in level]
    index = dict(zip(order, range(len(order))))
    n = len(order)

    level_ptr = np.zeros(len(levels) + 1, dtype=np.int64)
    np.cumsum([len(level) for level in levels], out=level_ptr[1:])

    by_name = np.fromiter(sorted(range(n), key=order.__getitem__),
                          dtype=np.int64, count=n)
    name_rank = np.empty(n, dtype=np.int64)
    name_rank[by_name] = np.arange(n, dtype=np.int64)

    nets = list(map(graph.nets.__getitem__, order))
    fanouts = [net.fanout for net in nets]
    fo_counts = np.fromiter(map(len, fanouts), dtype=np.int64, count=n)
    fo_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(fo_counts, out=fo_indptr[1:])
    n_edges = int(fo_indptr[-1])
    fo_indices = np.fromiter(map(index.__getitem__, chain.from_iterable(fanouts)),
                             dtype=np.int64, count=n_edges)
    del fanouts
    fi_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(fo_indices, minlength=n), out=fi_indptr[1:])
    # A stable sort by target keeps each target's sources in net-id order.
    fi_indices = np.repeat(np.arange(n, dtype=np.int64), fo_counts)[
        np.argsort(fo_indices, kind="stable")]

    # Loads: extra load, then fanout column j (the j-th fanout's input cap)
    # for every net with more than j fanouts, then the receiver.
    cap = _input_caps(tech)
    sizes = np.fromiter((net.driver_size for net in nets), dtype=np.float64,
                        count=n)
    size_first, size_of = _first_appearance(sizes)
    size_cap = np.array([cap(nets[i].driver_size) for i in size_first.tolist()],
                        dtype=np.float64)
    edge_cap = size_cap[size_of[fo_indices]]
    loads = np.fromiter((net.extra_load for net in nets), dtype=np.float64,
                        count=n)
    by_fanout = np.argsort(-fo_counts, kind="stable")
    descending = -fo_counts[by_fanout]
    for column in range(int(fo_counts.max(initial=0))):
        wide = by_fanout[:np.searchsorted(descending, -column)]
        loads[wide] += edge_cap[fo_indptr[wide] + column]
    receivers = [(i, net.receiver_size) for i, net in enumerate(nets)
                 if net.receiver_size is not None]
    with_receiver = np.fromiter((i for i, _ in receivers), dtype=np.int64,
                                count=len(receivers))
    loads[with_receiver] += np.fromiter((cap(size) for _, size in receivers),
                                        dtype=np.float64, count=len(receivers))
    del receivers
    has_receiver = np.zeros(n, dtype=bool)
    has_receiver[with_receiver] = True

    # Stage configurations: cells, then lines (an id() memo in front of the
    # content fingerprint), then one packed int64 key per (cell, line, load).
    cells: Dict[float, Tuple[int, CellCharacterization]] = {}
    for i in size_first.tolist():
        size = nets[i].driver_size
        cells[size] = (len(cells), library.get(size))
    line_first, line_of = _first_appearance(
        np.fromiter((id(net.line) for net in nets), dtype=np.int64, count=n))
    line_keys: Dict[str, int] = {}
    lines: List[RLCLine] = []
    line_index = np.empty(line_first.size, dtype=np.int64)
    for k, i in enumerate(line_first.tolist()):
        # Distinct-but-equal line objects fingerprint (and therefore solve)
        # identically, so dedupe by content behind the id memo.
        line = nets[i].line
        key = line.fingerprint()
        if key not in line_keys:
            line_keys[key] = len(lines)
            lines.append(line)
        line_index[k] = line_keys[key]
    line_of = line_index[line_of]
    del nets
    # size_of is the cell index (cells was filled in size_first order).  The
    # packed key is below len(library) * n**2: int64 holds any graph that
    # fits in memory.
    _, load_of = np.unique(loads, return_inverse=True)
    config_first, config_id = _first_appearance(
        (size_of * len(lines) + line_of) * (int(load_of.max(initial=0)) + 1)
        + load_of)
    config_load = loads[config_first]
    config_cells = size_of[config_first].tolist()
    config_lines = line_of[config_first].tolist()
    cell_table = [cell for _, cell in cells.values()]
    configs = {key: config for config, key in enumerate(
        zip(config_cells, config_lines, config_load.tolist()))}
    is_sink = fo_counts == 0

    return CompiledGraph(
        order=order, index=index, level_ptr=level_ptr, name_rank=name_rank,
        fo_indptr=fo_indptr, fo_indices=fo_indices,
        fi_indptr=fi_indptr, fi_indices=fi_indices,
        load=loads, config_id=config_id,
        config_cell=[cell_table[c] for c in config_cells],
        config_line=[lines[line] for line in config_lines],
        config_load=config_load,
        is_endpoint=has_receiver | is_sink, is_sink=is_sink,
        version=graph.version,
        topology_version=graph.topology_version,
        compile_seconds=time.perf_counter() - started,
        interner=ConfigInterner(cells=cells, lines=lines,
                                line_keys=line_keys, configs=configs))


class SolutionTable:
    """The stages one compiled graph solved under one solver setting.

    One append-only row per distinct ``(config, transition, input slew)``
    key of :func:`level_solve_keys`: the solver's scalar-only solution in
    :attr:`solutions`, its stage delay and propagated slew in :attr:`delay`
    / :attr:`prop_slew`.  Rows never change and config ids keep their meaning across patches, so
    every analysis of the graph points its ``sol_idx`` at the same rows.
    """

    __slots__ = ("options", "rows", "solutions", "delay", "prop_slew")

    def __init__(self, options: ModelingOptions) -> None:
        #: The options a stage of each input transition solves with.
        self.options = tuple(event_options(options, t) for t in TRANSITIONS)
        self.rows: Dict[Tuple[float, float, float], int] = {}  #: key -> row
        self.solutions: List[StageSolution] = []
        self.delay = self.prop_slew = np.empty(0)

    def append(self, keys: List[Tuple[float, float, float]],
               solutions: List[StageSolution]) -> np.ndarray:
        """Add the rows of new ``keys``, solved as ``solutions``; return them."""
        rows = np.arange(len(self.solutions), len(self.solutions) + len(keys))
        self.rows.update(zip(keys, rows.tolist()))
        self.solutions.extend(solutions)
        self.delay = np.append(self.delay, [s.stage_delay for s in solutions])
        self.prop_slew = np.append(self.prop_slew,
                                   [s.propagated_slew for s in solutions])
        return rows


@dataclass(eq=False)
class SweepState:
    """Per-event planes of one forward sweep, all indexed by event id.

    ``src`` / ``early_src`` hold winning-fanin *event ids* (-1 = primary-input
    seed); ``in_slew`` is the late-plane winner's slew, which the stage is
    solved at.  ``sol_idx`` is the event's row in the graph's
    :class:`SolutionTable` (-1 = unsolved).
    """

    exists: np.ndarray  #: bool[2n]
    in_arr: np.ndarray  #: float64[2n], late merged input arrival
    early_in: np.ndarray  #: float64[2n], early merged input arrival
    in_slew: np.ndarray  #: float64[2n], late-winner slew the stage solves at
    src: np.ndarray  #: int64[2n], late winning fanin event (-1 = PI)
    early_src: np.ndarray  #: int64[2n], early winning fanin event (-1 = PI)
    out_arr: np.ndarray  #: float64[2n], late far-end arrival
    early_out: np.ndarray  #: float64[2n], early far-end arrival
    delay: np.ndarray  #: float64[2n], stage delay (gate + interconnect)
    prop_slew: np.ndarray  #: float64[2n], propagated full-swing slew
    sol_idx: np.ndarray  #: int64[2n], row in the solution table

    @classmethod
    def empty(cls, n_events: int) -> "SweepState":
        return cls(
            exists=np.zeros(n_events, dtype=bool),
            in_arr=np.zeros(n_events, dtype=np.float64),
            early_in=np.zeros(n_events, dtype=np.float64),
            in_slew=np.zeros(n_events, dtype=np.float64),
            src=np.full(n_events, -1, dtype=np.int64),
            early_src=np.full(n_events, -1, dtype=np.int64),
            out_arr=np.zeros(n_events, dtype=np.float64),
            early_out=np.zeros(n_events, dtype=np.float64),
            delay=np.zeros(n_events, dtype=np.float64),
            prop_slew=np.zeros(n_events, dtype=np.float64),
            sol_idx=np.full(n_events, -1, dtype=np.int64))

    def planes(self) -> Tuple[np.ndarray, ...]:
        """Every per-event array, for whole-span copies between states."""
        return (self.exists, self.in_arr, self.early_in, self.in_slew,
                self.src, self.early_src, self.out_arr, self.early_out,
                self.delay, self.prop_slew, self.sol_idx)

    def clone(self) -> "SweepState":
        """A deep per-plane copy (snapshot isolation for incremental updates).

        A masked incremental sweep mutates its planes in place; sweeping a
        copy keeps every previously issued :class:`CompiledAnalysis` (and the
        streaming reports / serve snapshots built on it) describing the state
        it analyzed.  11 allocations and memcpys, ~16 MB and ~1.9 ms at 100k
        nets — so the incremental engine only clones when its spare plane
        buffer is still read from outside.
        """
        return SweepState(*(plane.copy() for plane in self.planes()))

    @property
    def nbytes(self) -> int:
        return sum(plane.nbytes for plane in self.planes())


class _PlaneBuffer:
    """One set of per-event planes: a sweep state plus both required planes."""

    __slots__ = ("state", "required", "hold_required")

    def __init__(self, state: SweepState, required: np.ndarray,
                 hold_required: np.ndarray) -> None:
        self.state = state
        self.required = required
        self.hold_required = hold_required

    def planes(self) -> Tuple[np.ndarray, ...]:
        return self.state.planes() + (self.required, self.hold_required)

    def clone(self) -> "_PlaneBuffer":
        return _PlaneBuffer(self.state.clone(), self.required.copy(),
                            self.hold_required.copy())


def _owned_refcount() -> int:
    """``sys.getrefcount(owner.attribute)`` of an object only that attribute holds.

    2 on CPython (the attribute and the call's argument), measured rather
    than assumed so interpreter-specific temporaries cancel out.
    """
    probe = SimpleNamespace(array=np.empty(0))
    return sys.getrefcount(probe.array)


_OWNED_REFCOUNT = _owned_refcount()
_STATE_PLANES = tuple(f.name for f in fields(SweepState))
_TimingEvent = None  #: repro.api.report.TimingEvent, bound on first use


def _unshared(buffer: _PlaneBuffer) -> bool:
    """True when nothing outside ``buffer`` can still read its planes.

    The rule numpy applies in ``ndarray.resize(refcheck=True)``: a live
    :class:`CompiledAnalysis` (and every report built on it) references the
    buffer's state and required planes, and a view references its base
    plane through ``base``, so any outside reader raises some reference
    count above what the buffer's own attribute accounts for.  Both the
    full sweep (:meth:`CompiledGraph.sweep_buffer`) and the incremental
    engine write a buffer in place only when this holds.
    """
    if sys.getrefcount(buffer.state) > _OWNED_REFCOUNT:
        return False
    return (all(sys.getrefcount(getattr(buffer.state, name)) <= _OWNED_REFCOUNT
                for name in _STATE_PLANES)
            and sys.getrefcount(buffer.required) <= _OWNED_REFCOUNT
            and sys.getrefcount(buffer.hold_required) <= _OWNED_REFCOUNT)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def input_seeds(cg: CompiledGraph, graph: TimingGraph
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The primary inputs' ``(events, arrivals, slews)``, events ascending.

    Memoized on ``cg`` for the graph's
    :attr:`~.graph.TimingGraph.stimulus_version`, so only a sweep after a
    :meth:`~.graph.TimingGraph.set_input` pays the Python pass over the
    stimuli.  The arrays are read-only.
    """
    cached = getattr(cg, "_input_seeds_cache", None)
    if cached is None or cached[0] != graph.stimulus_version:
        cached = (graph.stimulus_version, _primary_input_arrays(cg, graph))
        cg._input_seeds_cache = cached
    return cached[1]


def _primary_input_arrays(cg: CompiledGraph, graph: TimingGraph
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What :func:`input_seeds` memoizes: one Python pass over the stimuli."""
    primary_inputs = graph.primary_inputs
    count = len(primary_inputs)
    index = cg.index
    events = np.fromiter(
        (index[name] * 2 + TRANSITIONS.index(primary.transition)
         for name, primary in primary_inputs.items()),
        dtype=np.int64, count=count)
    arrivals = np.fromiter((primary.arrival for primary in primary_inputs.values()),
                           dtype=np.float64, count=count)
    slews = np.fromiter((primary.slew for primary in primary_inputs.values()),
                        dtype=np.float64, count=count)
    order = np.argsort(events)
    return (_read_only(events[order]), _read_only(arrivals[order]),
            _read_only(slews[order]))


def seed_primary_inputs(cg: CompiledGraph, graph: TimingGraph,
                        state: SweepState,
                        nets: Optional[np.ndarray] = None) -> None:
    """Install the live primary-input stimuli as pending root events.

    ``nets`` (ascending) restricts the seeding to the roots among those net
    ids (an incremental sweep's level); None seeds every primary input.
    The seeds come from :func:`input_seeds`.
    """
    events, arrivals, slews = input_seeds(cg, graph)
    if nets is not None and events.size:
        roots = events >> 1  # ascending: one seeded event per root net
        at = np.minimum(np.searchsorted(roots, nets), roots.size - 1)
        at = at[roots[at] == nets]
        events, arrivals, slews = events[at], arrivals[at], slews[at]
    state.exists[events] = True
    state.in_arr[events] = arrivals
    state.early_in[events] = arrivals
    state.in_slew[events] = slews


_LANES = np.array([0, 1], dtype=np.int64)
_NO_EVENTS = np.empty(0, dtype=np.int64)


def _interleave(nets: np.ndarray) -> np.ndarray:
    """Both event ids of every net: [n0*2, n0*2+1, n1*2, ...]."""
    return (nets[:, None] * 2 + _LANES).ravel()


def _csr_rows(indptr: np.ndarray, indices: np.ndarray,
              rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The CSR entries of ``rows``, concatenated, and each row's entry count."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    positions = (np.arange(total, dtype=np.int64)
                 + np.repeat(starts - ends + counts, counts))
    return indices[positions], counts


def _install(state: SweepState, targets: np.ndarray, sources: np.ndarray, *,
             late: bool = True, early: bool = True) -> None:
    """Install source events ``sources`` as the merge winners of ``targets``."""
    if late:
        state.exists[targets] = True
        state.in_arr[targets] = state.out_arr[sources]
        state.in_slew[targets] = state.prop_slew[sources]
        state.src[targets] = sources
    if early:
        state.early_in[targets] = state.early_out[sources]
        state.early_src[targets] = sources


class MergePlan:
    """The merge of fanin events into a set of nets, resolved against ``exists``.

    A fanin source event feeds target event ``target * 2 + (1 - source
    transition)`` (the inverter flips the edge), so which target events
    exist follows from which source events do.  The plan keeps only the
    candidates whose source exists in ``exists``.  A net with exactly one
    fanin net gives each of its events at most one candidate, which wins
    both planes: the plan holds those nets' (93% of ``soc``) ``(source
    event, target event)`` pairs, :attr:`lone_sev` / :attr:`lone_tev`,
    ascending by target.  The rest are *contested*: each candidate pair,
    :attr:`sev` / :attr:`tev`, stored in ascending order of the source
    ordinal ``name_rank * 2 + transition`` — the order of the object
    engine's ``(name, transition)`` tuple comparison.  :attr:`events` are
    the nets' events that exist after the merge, ascending: the targets,
    plus the events ``exists`` marks on fanin-less nets (primary-input
    roots, seeded before the merge).

    :meth:`install` writes what existence alone fixes — the events'
    ``exists`` flags and the lone targets' sources — and :meth:`run` the
    rest: lone targets copy their source's outputs, and contested ones are
    elected with one stable ``np.lexsort`` per plane — last-in-group for the
    late plane (``max`` of (arrival, slew, ordinal)), first-in-group for the
    early plane (``min`` of (early arrival, slew, ordinal)).  The candidates
    are already in ordinal order, so the stable sort breaks (arrival, slew)
    ties by ordinal without an ordinal key, and the election is independent
    of edge order, bit for bit.  The election only compares candidates
    sharing a target event, so any set of nets gives the winners a full
    level would.
    """

    __slots__ = ("lone_sev", "lone_tev", "sev", "tev", "events")

    def __init__(self, cg: CompiledGraph, nets: np.ndarray,
                 exists: np.ndarray) -> None:
        counts = cg.fi_indptr[nets + 1] - cg.fi_indptr[nets]
        lone = nets[counts == 1]
        lone_sev = _interleave(cg.fi_indices[cg.fi_indptr[lone]]) ^ 1
        keep = exists[lone_sev]
        self.lone_sev, self.lone_tev = lone_sev[keep], _interleave(lone)[keep]
        self.sev = self.tev = _NO_EVENTS
        targets = [self.lone_tev]
        contested = nets[counts > 1]
        if contested.size:
            source_net, fanins = _csr_rows(cg.fi_indptr, cg.fi_indices, contested)
            sev = _interleave(source_net)
            keep = exists[sev]
            sev = sev[keep]
            tev = (_interleave(np.repeat(contested, fanins)) ^ 1)[keep]
            by_ordinal = np.argsort(cg.name_rank[sev >> 1] * 2 + (sev & 1),
                                    kind="stable")
            self.sev, self.tev = sev[by_ordinal], tev[by_ordinal]
            targets.append(np.unique(self.tev))
        roots = _interleave(nets[counts == 0])
        if roots.size:
            targets.append(roots[exists[roots]])
        self.events = (targets[0] if len(targets) == 1
                       else np.sort(np.concatenate(targets)))

    @property
    def nbytes(self) -> int:
        return (self.lone_sev.nbytes + self.lone_tev.nbytes + self.sev.nbytes
                + self.tev.nbytes
                + (0 if self.events is self.lone_tev else self.events.nbytes))

    def install(self, state: SweepState) -> None:
        """Write what existence fixes: the events' flags, the lone targets' sources."""
        state.exists[self.events] = True
        state.src[self.lone_tev] = self.lone_sev
        state.early_src[self.lone_tev] = self.lone_sev

    def run(self, state: SweepState) -> None:
        """Install the merge winners' arrivals, slews and elected sources."""
        tev, sev = self.lone_tev, self.lone_sev
        if tev.size:
            state.in_arr[tev] = state.out_arr[sev]
            state.in_slew[tev] = state.prop_slew[sev]
            state.early_in[tev] = state.early_out[sev]
        sev, tev = self.sev, self.tev
        if not sev.size:
            return
        slew = state.prop_slew[sev]
        late = np.lexsort((slew, state.out_arr[sev], tev))
        grouped = tev[late]
        last = np.empty(grouped.size, dtype=bool)
        last[-1] = True
        np.not_equal(grouped[1:], grouped[:-1], out=last[:-1])
        _install(state, grouped[last], sev[late[last]], early=False)
        first = np.lexsort((slew, state.early_out[sev], tev))
        grouped = tev[first]
        head = np.empty(grouped.size, dtype=bool)
        head[0] = True
        np.not_equal(grouped[1:], grouped[:-1], out=head[1:])
        _install(state, grouped[head], sev[first[head]], late=False)


def merge_nets(cg: CompiledGraph, state: SweepState, nets: np.ndarray) -> None:
    """Merge fanin events into the (arbitrary) net ids ``nets`` of one level.

    Vectorized twin of ``GraphEngine._merge``: resolves the nets'
    :class:`MergePlan` against ``state.exists`` and installs and runs it —
    the code :func:`merge_level` runs from a :class:`SweepPlan`.  The
    election is per target event, so the masked incremental sweep merges
    any set of nets bit-identically.  Merge only installs winners, it never
    erases a stale event: the caller marks the nets' events non-existent
    first (and seeds the roots among them).
    """
    plan = MergePlan(cg, nets, state.exists)
    plan.install(state)
    plan.run(state)


def merge_level(plan: MergePlan, state: SweepState) -> np.ndarray:
    """Run one level's :class:`MergePlan` of a :class:`SweepPlan`; return its events.

    ``state`` is a buffer :meth:`SweepPlan.allocate` built (the events'
    flags and the lone sources are installed once per buffer), seeded by
    :func:`seed_primary_inputs`, so the merge only moves arrivals and slews
    and elects the contested winners.  The returned event ids, ascending,
    include the primary-input seeds of a root level (roots have no fanin,
    so they never compete in a merge).
    """
    plan.run(state)
    return plan.events


def level_solve_keys(cg: CompiledGraph, state: SweepState, events: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse a level's events to unique (config, transition, slew) keys.

    Returns ``(unique, inverse)``: ``unique`` is a (k, 3) float64 matrix of
    the distinct keys in lexicographic (config, transition, slew) order and
    ``inverse`` maps each event to its row — exactly the rows, order and
    inverse of ``np.unique`` over the key rows.  ``solve_batch`` results
    depend on request order at the ~1 ULP level, so the order is part of
    the contract.

    A merged event's slew is its winning source's propagated slew, fixed by
    the source's solution: its key is fixed by the small integer code
    (``config * 2 + transition``, ``sol_idx[src]``).  On a wide level whose
    events all have a solved source (every level but the roots'),
    :func:`_coded_solve_keys` marks those codes in a dense table and sorts
    only the few present ones; otherwise one stable ``np.lexsort`` over
    (``config * 2 + transition``, slew) and its run boundaries give the
    same result.
    """
    group = cg.config_id[events >> 1] * 2 + (events & 1)
    if events.size >= _CODED_MIN_EVENTS:
        src = state.src[events]
        if src.min() >= 0:
            keys = _coded_solve_keys(state, events, group, state.sol_idx[src])
            if keys is not None:
                return keys
    slews = state.in_slew[events]
    order = np.lexsort((slews, group))
    group_sorted, slews_sorted = group[order], slews[order]
    run_start = np.empty(events.size, dtype=bool)
    run_start[0] = True
    np.not_equal(group_sorted[1:], group_sorted[:-1], out=run_start[1:])
    run_start[1:] |= slews_sorted[1:] != slews_sorted[:-1]
    first = order[run_start]
    inverse = np.empty(events.size, dtype=np.int64)
    inverse[order] = np.cumsum(run_start) - 1
    return _key_rows(group[first], slews[first]), inverse


#: Levels below this many events sort them: the dense table's fixed cost of a
#: dozen array calls is only repaid on wide levels (a full sweep's, not an
#: incremental cone's).
_CODED_MIN_EVENTS = 512


def _key_rows(group: np.ndarray, slews: np.ndarray) -> np.ndarray:
    """(config, transition, slew) rows of sorted unique ``group`` / slew keys."""
    unique = np.empty((group.size, 3), dtype=np.float64)
    unique[:, 0] = group >> 1
    unique[:, 1] = group & 1
    unique[:, 2] = slews
    return unique


def _coded_solve_keys(state: SweepState, events: np.ndarray, group: np.ndarray,
                      source_sol: np.ndarray
                      ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """:func:`level_solve_keys` of events keyed by their source's solution.

    Events sharing (``group``, ``source_sol``) share their slew, so each
    such code stands for one key row: the codes present are marked in a
    dense table (any event of a code represents it), only those are sorted
    by (group, slew), and codes with equal group and slew merge into one
    row.  None when the table would outgrow the level (sources spread over
    many more solution rows than the level has events), where sorting the
    events is cheaper.
    """
    if source_sol.min() < 0:
        return None
    sol_lo = int(source_sol.min())
    span = int(source_sol.max()) - sol_lo + 1
    size = (int(group.max()) + 1) * span
    if size > 4 * events.size + 256:
        return None
    codes = group * span + (source_sol - sol_lo)
    representative = np.full(size, events.size, dtype=np.int64)
    representative[codes] = np.arange(events.size, dtype=np.int64)
    present = np.flatnonzero(representative < events.size)
    first = representative[present]
    present_group = group[first]
    slews = state.in_slew[events[first]]
    order = np.lexsort((slews, present_group))
    group_sorted, slews_sorted = present_group[order], slews[order]
    run_start = np.empty(order.size, dtype=bool)
    run_start[0] = True
    np.not_equal(group_sorted[1:], group_sorted[:-1], out=run_start[1:])
    run_start[1:] |= slews_sorted[1:] != slews_sorted[:-1]
    row = np.empty(size, dtype=np.int64)
    row[present[order]] = np.cumsum(run_start) - 1
    return _key_rows(group_sorted[run_start], slews_sorted[run_start]), row[codes]


def scatter_level_solutions(state: SweepState, events: np.ndarray,
                            sol_ids: np.ndarray, delays: np.ndarray,
                            prop_slews: np.ndarray) -> None:
    """Scatter per-event solution results back into the sweep planes.

    ``sol_ids`` / ``delays`` / ``prop_slews`` are already expanded per event
    (the caller indexes its solved uniques by the inverse map).  Output
    arrivals are computed here so the full and the incremental sweeps share
    one float-add order.
    """
    state.sol_idx[events] = sol_ids
    state.delay[events] = delays
    state.prop_slew[events] = prop_slews
    state.out_arr[events] = state.in_arr[events] + delays
    state.early_out[events] = state.early_in[events] + delays


def constraint_seeds(cg: CompiledGraph, graph: TimingGraph,
                     mode: str) -> np.ndarray:
    """Per-event constraint seeds of ``mode``, read live from ``graph``.

    NaN = unconstrained.  The clock period (setup) / hold margin (hold)
    lands on every endpoint event; explicit ``set_required`` pins overwrite it
    afterwards — pins win, exactly as in :meth:`TimingGraph.required_for`.
    Constraints are keyed by the *output* transition, so a pin on far-end
    transition ``t`` seeds event ``net * 2 + (1 - t)``.
    """
    check_mode(mode)
    seeds = np.full(2 * cg.n_nets, np.nan)
    default = graph.clock_period if mode == "setup" else graph.hold_margin
    if default is not None:
        endpoint = np.flatnonzero(cg.is_endpoint)
        seeds[endpoint * 2] = default
        seeds[endpoint * 2 + 1] = default
    for name, per_net in graph.required_pins(mode).items():
        net_id = cg.index.get(name)
        if net_id is None:
            raise ModelingError(
                f"constraint on net {name!r} unknown to the compiled graph; "
                "recompile after structural edits")
        for out_transition, value in per_net.items():
            seeds[net_id * 2 + 1 - TRANSITIONS.index(out_transition)] = value
    return seeds


def required_seeds(cg: CompiledGraph, graph: TimingGraph
                   ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Dense (setup, hold) :func:`constraint_seeds` of ``graph``, read-only.

    A polarity the graph leaves unconstrained is None, so its required plane
    stays all-NaN.  Memoized on ``cg``: seeds depend on the constraints and
    on the endpoint mask only, so they are rebuilt when the graph's
    :attr:`~.graph.TimingGraph.constraint_version` moves or a patch replaced
    :attr:`CompiledGraph.is_endpoint`.
    """
    cached = getattr(cg, "_required_seeds_cache", None)
    if (cached is None or cached[0] != graph.constraint_version
            or cached[1] is not cg.is_endpoint):
        seeds = tuple(
            _read_only(constraint_seeds(cg, graph, mode)) if constrained else None
            for mode, constrained in (("setup", graph.setup_constrained),
                                      ("hold", graph.hold_constrained)))
        cached = (graph.constraint_version, cg.is_endpoint, seeds)
        cg._required_seeds_cache = cached
    return cached[2]


def backward_required(cg: CompiledGraph, state: SweepState,
                      setup_seeds: Optional[np.ndarray],
                      hold_seeds: Optional[np.ndarray], *,
                      out: Optional[Tuple[np.ndarray, np.ndarray]] = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Array backward pass: (required, hold_required) planes, NaN = None.

    Level-by-level against the arrival flow, the exact mirror of
    ``GraphEngine._apply_required``: an event's setup required time is the
    minimum of its seed and, per fanout consumer (the consumer event keyed by
    this event's *output* transition), the consumer's required minus the
    consumer's stage delay; hold is the mirror with the maximum.  None rides
    as NaN, which ``np.fmin`` / ``np.fmax`` skip — min/max are exact on
    floats, so the result is bit-identical to the object pass.  An
    unconstrained polarity (seeds None) stays all-NaN.

    ``state`` is a complete sweep of ``cg``: its events are those of the
    :class:`SweepPlan` of its root events, whose :class:`RequiredPlan` the
    pass runs.  The planes are new, or ``out``: planes that hold NaN
    wherever the pass does not write (every event that does not exist, and
    every event of an unconstrained polarity).
    """
    if out is None:
        n_events = 2 * cg.n_nets
        out = (np.full(n_events, np.nan), np.full(n_events, np.nan))
    required, hold_required = out
    if setup_seeds is None and hold_seeds is None:
        return required, hold_required
    roots = np.flatnonzero(state.exists[:2 * int(cg.level_ptr[1])])
    cg.sweep_plan(roots).required.run(state, setup_seeds, hold_seeds,
                                      required, hold_required)
    return required, hold_required


class RequiredPlan:
    """The index work of the backward pass over a set of events, done once.

    ``events`` — existing, ascending (so grouped by level), any subset of
    any levels — split into *leaves*, fanout-less, whose required time is
    their seed, and the rest.  For the rest the plan holds their fanout
    consumers (the consumer event keyed by the event's *output* transition),
    segmented per event and cut per level by ``searchsorted`` on
    ``level_ptr``.  :meth:`run` gathers the consumers' stage delays and the
    events' seeds, then does only the dependent arithmetic, level by level
    in descending order: an event's value depends on its consumers' entries,
    which sit on later levels, never on its level peers.  The plan depends
    only on the topology and on which events exist, so the full pass keeps
    it in the :class:`SweepPlan`.  Required times reduce with ``np.fmin`` /
    ``np.fmax``, which skip NaN: a consumer that is unconstrained, or does
    not exist (it holds NaN in both required planes: the full pass writes
    existing events only, and the cone pass resets its cone before
    running), drops out of the reduction, and an event none of whose seed
    and consumers is constrained stays NaN.  Seeds are finite or NaN and
    are read by event id, so any store that indexes like a dense seed plane
    serves.
    """

    __slots__ = ("consumer", "events", "leaves", "steps")

    def __init__(self, cg: CompiledGraph, events: np.ndarray) -> None:
        consumer, counts = _csr_rows(cg.fo_indptr, cg.fo_indices, events >> 1)
        self.consumer = consumer * 2 + np.repeat(1 - (events & 1), counts)
        inner = counts > 0
        self.events, self.leaves = events[inner], events[~inner]
        ends = np.cumsum(counts[inner])
        starts = ends - counts[inner]
        nets = self.events >> 1
        cuts = [0, nets.size]
        if nets.size:  # the level boundaries inside the events' level span
            first, last = np.searchsorted(cg.level_ptr, nets[[0, -1]], side="right")
            cuts[1:1] = np.searchsorted(nets, cg.level_ptr[first:last]).tolist()
        #: (event slice, consumer slice, segment starts) per level, descending.
        self.steps = [(slice(a, b), slice(int(starts[a]), int(ends[b - 1])),
                       starts[a:b] - starts[a])
                      for a, b in reversed(list(zip(cuts, cuts[1:]))) if a < b]

    @property
    def nbytes(self) -> int:
        return (self.consumer.nbytes + self.events.nbytes + self.leaves.nbytes
                + sum(starts.nbytes for _, _, starts in self.steps))

    def run(self, state: SweepState, setup_seeds: Optional[np.ndarray],
            hold_seeds: Optional[np.ndarray], required: np.ndarray,
            hold_required: np.ndarray) -> None:
        """Write the plan's events into the ``required`` / ``hold_required`` planes."""
        delay = state.delay[self.consumer]
        #: (plane, NaN-skipping reduction, inner seeds) per constrained polarity.
        polarities = []
        for plane, seeds, ufunc in ((required, setup_seeds, np.fmin),
                                    (hold_required, hold_seeds, np.fmax)):
            if seeds is not None:
                plane[self.leaves] = seeds[self.leaves]
                polarities.append((plane, ufunc, seeds[self.events]))
        for events, consumers, starts in self.steps:
            targets, consumer = self.events[events], self.consumer[consumers]
            for plane, ufunc, seeds in polarities:
                upstream = plane[consumer] - delay[consumers]
                plane[targets] = ufunc(seeds[events],
                                       ufunc.reduceat(upstream, starts))


class SweepPlan:
    """The index work of a full compiled sweep, resolved against its stimulus.

    Which events exist is a pure function of the topology and of the root
    events the primary inputs seed (their transitions): ``roots``, the
    plan's key.  Resolving the sweep against them once leaves it only the
    work whose result can change: one :class:`MergePlan` per level in
    :attr:`levels` (just the candidates whose source exists, and the
    level's events) and the :class:`RequiredPlan` of every existing event
    in :attr:`required`.  :meth:`CompiledGraph.sweep_plan` keeps the plan
    of the last root events it was asked for — one key and one rebuild rule
    for the forward and the backward plans — and a patch keeps it (a
    parameter edit never changes which events exist).
    """

    __slots__ = ("roots", "levels", "required")

    def __init__(self, cg: CompiledGraph, roots: np.ndarray) -> None:
        exists = np.zeros(2 * cg.n_nets, dtype=bool)
        exists[roots] = True
        bounds = cg.level_ptr.tolist()
        self.roots = roots
        self.levels: List[MergePlan] = []
        for lo, hi in zip(bounds, bounds[1:]):
            plan = MergePlan(cg, np.arange(lo, hi, dtype=np.int64), exists)
            exists[plan.events] = True
            self.levels.append(plan)
        self.required = RequiredPlan(cg, np.flatnonzero(exists))

    @property
    def nbytes(self) -> int:
        return (self.roots.nbytes + self.required.nbytes
                + sum(plan.nbytes for plan in self.levels))

    def allocate(self, n_events: int) -> _PlaneBuffer:
        """New planes for this plan's sweeps: from-scratch values, existence installed.

        A sweep of the plan writes every plane of every event that exists,
        so a buffer can serve sweep after sweep of the same plan with no
        fill: the entries of the events that never exist keep these values.
        """
        state = SweepState.empty(n_events)
        for plan in self.levels:
            plan.install(state)
        return _PlaneBuffer(state, np.full(n_events, np.nan),
                            np.full(n_events, np.nan))


class CompiledAnalysis:
    """One compiled-path analysis result: array planes + lazy event records.

    Scalar queries (WNS/WHS, worst sink, endpoint ids, slack planes) are
    array reductions; :meth:`timing_event` materializes a single
    :class:`repro.api.report.TimingEvent`-compatible record on demand, which
    is what :class:`repro.api.report.StreamingTimingReport` builds its lazy
    event mapping from.  ``solutions`` is the graph's append-only
    :attr:`SolutionTable.solutions`, which ``state.sol_idx`` indexes (one
    :class:`~repro.core.stage_solver.StageSolution` per *unique* stage key).
    """

    def __init__(self, *, graph: CompiledGraph, state: SweepState,
                 required: np.ndarray, hold_required: np.ndarray,
                 solutions: List[StageSolution], stats, elapsed: float) -> None:
        self.graph = graph
        self.state = state
        self.required = required
        self.hold_required = hold_required
        self.solutions = solutions
        self.stats = stats
        self.elapsed = elapsed
        #: Endpoint mask at analysis time.  patch() replaces the compiled
        #: graph's mask (never writes it) when a flag flips, so capturing the
        #: reference keeps this result describing the state it analyzed.
        self.is_endpoint = graph.is_endpoint
        #: Set by the incremental compiled engine on cone updates.
        self.incremental = None

    # --- event enumeration --------------------------------------------------------
    @property
    def n_events(self) -> int:
        return int(np.count_nonzero(self.state.exists))

    def event_ids(self) -> np.ndarray:
        """Existing event ids, ascending (level order, fall before rise)."""
        return np.flatnonzero(self.state.exists)

    def key_of(self, event: int) -> Tuple[str, str]:
        """(net name, input transition) of an event id."""
        return self.graph.order[event >> 1], TRANSITIONS[event & 1]

    def events_of(self, name: str) -> Dict[str, "object"]:
        """Materialized events of one net, keyed by input transition."""
        net_id = self.graph.index[name]
        per_net = {}
        for t in (0, 1):
            event = net_id * 2 + t
            if self.state.exists[event]:
                per_net[TRANSITIONS[t]] = self.timing_event(event)
        return per_net

    def net_names_with_events(self) -> List[str]:
        """Names of nets carrying at least one event, in level order."""
        return [self.graph.order[i] for i in np.flatnonzero(self._nets_with_events())]

    def n_nets_with_events(self) -> int:
        """How many nets carry at least one event (no name list built)."""
        return int(np.count_nonzero(self._nets_with_events()))

    def _nets_with_events(self) -> np.ndarray:
        exists = self.state.exists
        return exists[0::2] | exists[1::2]

    def timing_event(self, event: int):
        """One event as a :class:`repro.api.report.TimingEvent` record."""
        global _TimingEvent
        if _TimingEvent is None:  # that module imports this one at the top
            from ..api.report import TimingEvent as _TimingEvent
        state = self.state
        if not state.exists[event]:
            raise ModelingError(f"event {event} was not timed")
        net_id, t = event >> 1, event & 1
        required = float(self.required[event])
        hold = float(self.hold_required[event])
        return _TimingEvent.from_solution(
            self.graph.order[net_id], TRANSITIONS[t],
            self.solutions[state.sol_idx[event]],
            input_slew=float(state.in_slew[event]),
            arrivals=(float(state.in_arr[event]), float(state.early_in[event])),
            sources=(self._source_key(state.src[event]),
                     self._source_key(state.early_src[event])),
            endpoint=bool(self.is_endpoint[net_id]),
            required=(None if np.isnan(required) else required,
                      None if np.isnan(hold) else hold))

    def _source_key(self, source: int) -> Optional[Tuple[str, str]]:
        if source < 0:
            return None
        return self.graph.order[source >> 1], TRANSITIONS[source & 1]

    # --- scalar queries -----------------------------------------------------------
    def worst_sink_event_id(self) -> int:
        """The sink event with the largest late arrival (first on exact ties).

        Event-id order equals the object engine's event insertion order, so
        ``argmax`` (first maximum) over the ascending sink events elects the
        same event ``max()`` does.  O(sink events), not O(graph).
        """
        sinks = self.graph.sink_event_ids()
        sinks = sinks[self.state.exists[sinks]]
        if not sinks.size:
            raise ModelingError("timed graph has no sink events")
        return int(sinks[np.argmax(self.state.out_arr[sinks])])

    def critical_path_ids(self) -> List[int]:
        """Event ids from a primary-input seed to the worst sink event."""
        path = [self.worst_sink_event_id()]
        while True:
            source = int(self.state.src[path[-1]])
            if source < 0:
                break
            path.append(source)
        path.reverse()
        return path

    def endpoint_event_ids(self, mode: str = "setup") -> np.ndarray:
        """Existing endpoint events carrying a ``mode`` required time."""
        check_mode(mode)
        plane = self.required if mode == "setup" else self.hold_required
        mask = (np.repeat(self.is_endpoint, 2) & self.state.exists
                & ~np.isnan(plane))
        return np.flatnonzero(mask)

    def slack_plane(self, mode: str = "setup") -> np.ndarray:
        """Per-event ``mode`` slack, NaN where unconstrained or untimed."""
        check_mode(mode)
        if mode == "setup":
            return self.required - np.where(self.state.exists,
                                            self.state.out_arr, np.nan)
        return np.where(self.state.exists, self.state.early_out,
                        np.nan) - self.hold_required

    def slacks_of(self, events: np.ndarray, mode: str = "setup") -> np.ndarray:
        """``mode`` slack of existing ``events``: :meth:`slack_plane` at those ids."""
        check_mode(mode)
        if mode == "setup":
            return self.required[events] - self.state.out_arr[events]
        return self.state.early_out[events] - self.hold_required[events]

    def worst_endpoint_slack(self, mode: str = "setup") -> Optional[float]:
        """Minimum ``mode`` slack over constrained endpoint events (None = none)."""
        events = self.endpoint_event_ids(mode)
        if not events.size:
            return None
        return float(np.min(self.slacks_of(events, mode)))

    def constrained(self, mode: str = "setup") -> bool:
        """True when any event carries a ``mode`` required time."""
        check_mode(mode)
        plane = self.required if mode == "setup" else self.hold_required
        return bool(np.any(~np.isnan(plane)))
