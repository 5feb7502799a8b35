"""Struct-of-arrays timing graphs: the 100k-net scale tier.

:class:`~.graph.TimingGraph` is one Python object, one dict entry and one
:class:`~.graph.NetEventTiming` per net — comfortable at 1k nets, but at SoC
scale (100k-1M nets) the per-object bookkeeping (attribute walks, dict churn,
per-event hashing) dominates wall clock and peak RSS long before any timing
math runs.  This module freezes a graph into a columnar twin:

* :func:`compile_graph` produces a :class:`CompiledGraph` — CSR fanin/fanout
  adjacency, level boundaries, per-net loads, deduplicated stage
  configurations (cell, line, load) and endpoint masks, all as contiguous
  numpy arrays indexed by *net id* (the position in the level-flattened
  topological order).
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
  min/max-reduce per fanout segment with ±inf standing in for None.  Since
  float comparisons carry no rounding, the compiled engine is bit-identical
  to the object engine whenever both are answered by the same stage-solution
  memo (and ≤1e-9 relative otherwise, asserted by the scale benchmark).

The driving loop lives in :meth:`repro.sta.batch.GraphEngine.analyze_compiled`
(it owns the :class:`~repro.core.stage_solver.StageSolver`); this module holds
the frozen structure, the array kernels and the :class:`CompiledAnalysis`
result — which materializes :class:`repro.api.report.TimingEvent` records
*on demand*, so a 100k-net analysis never flattens O(graph) Python objects
unless a caller iterates them all.

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

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..characterization.cell import CellCharacterization
from ..characterization.library import CellLibrary
from ..core.stage_solver import StageSolution
from ..errors import ModelingError
from ..interconnect.rlc_line import RLCLine
from ..tech.technology import Technology
from .graph import TimingGraph, check_mode

__all__ = ["TRANSITIONS", "CompiledGraph", "ConfigInterner", "compile_graph",
           "SweepState", "CompiledAnalysis", "merge_level", "merge_nets",
           "constraint_seeds", "backward_required", "required_level"]

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
    snapshot.  The only mutable member is :attr:`fingerprints` — a cache of
    stage-solution memo keys that grows across analyses (keyed first by the
    modeling-options fingerprint, so per-corner analyses never collide).
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
    #: options-fingerprint -> (config id, transition, quantized slew) -> stage
    #: fingerprint; persistent across analyses of this compiled graph.
    fingerprints: Dict[str, Dict[Tuple[int, int, float], str]] = field(
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
        """Bytes held by the structure's numpy arrays (the columnar footprint)."""
        return sum(array.nbytes for array in (
            self.level_ptr, self.name_rank, self.fo_indptr, self.fo_indices,
            self.fi_indptr, self.fi_indices, self.load, self.config_id,
            self.config_load, self.is_endpoint, self.is_sink))

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
        caller must recompile.  Mutated planes (:attr:`load`,
        :attr:`config_id`, :attr:`is_endpoint`) are replaced copy-on-write and
        config tables grow append-only, so analyses holding the pre-patch
        arrays stay valid.
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
        caps: Dict[float, float] = {}

        def cap(size: float) -> float:
            value = caps.get(size)
            if value is None:
                value = tech.inverter_input_capacitance(size)
                caps[size] = value
            return value

        tables = self.interner
        load = self.load.copy()
        config_id = self.config_id.copy()
        is_endpoint = self.is_endpoint.copy()
        for name in edited:
            net_id = self.index[name]
            net = nets[name]
            # Same float-add order as _net_loads: extra load, fanout caps in
            # declaration order, terminal receiver — bit-identical loads.
            net_load = net.extra_load
            for target in net.fanout:
                net_load += cap(nets[target].driver_size)
            if net.receiver_size is not None:
                net_load += cap(net.receiver_size)
            cell_entry = tables.cells.get(net.driver_size)
            if cell_entry is None:
                cell_entry = (len(tables.cells), library.get(net.driver_size))
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
            load[net_id] = net_load
            config_id[net_id] = config
            is_endpoint[net_id] = net.is_endpoint
        self.load = load
        self.config_id = config_id
        self.is_endpoint = is_endpoint
        self.version = graph.version
        return len(edited)


def _net_loads(graph: TimingGraph, order: List[str], tech: Technology) -> np.ndarray:
    """Per-net far-end loads, replicating ``GraphEngine.net_load`` bit-for-bit.

    The float additions run in the exact object-engine order (extra load, then
    fanout driver input caps in declaration order, then the terminal
    receiver), via a plain Python loop — a pairwise numpy reduction would sum
    in a different association order and break bit-compatibility.  Input
    capacitances are memoized per driver size (they are pure functions of it).
    """
    caps: Dict[float, float] = {}

    def cap(size: float) -> float:
        value = caps.get(size)
        if value is None:
            value = tech.inverter_input_capacitance(size)
            caps[size] = value
        return value

    nets = graph.nets
    loads = np.empty(len(order), dtype=np.float64)
    for i, name in enumerate(order):
        net = nets[name]
        load = net.extra_load
        for target in net.fanout:
            load += cap(nets[target].driver_size)
        if net.receiver_size is not None:
            load += cap(net.receiver_size)
        loads[i] = load
    return loads


def compile_graph(graph: TimingGraph, *, library: CellLibrary,
                  tech: Technology) -> CompiledGraph:
    """Freeze ``graph`` into a :class:`CompiledGraph` snapshot.

    O(nets + edges): one pass builds the order/index, one the CSR adjacency,
    one the loads and deduplicated stage configurations.  Cells are fetched
    (and, for never-seen driver sizes, characterized) through ``library`` here
    — analysis never touches the library again.
    """
    if not isinstance(graph, TimingGraph):
        raise ModelingError("compile_graph() expects a TimingGraph")
    started = time.perf_counter()
    levels = graph.levels
    order = [name for level in levels for name in level]
    index = {name: i for i, name in enumerate(order)}
    n = len(order)

    level_ptr = np.zeros(len(levels) + 1, dtype=np.int64)
    np.cumsum([len(level) for level in levels], out=level_ptr[1:])

    name_rank = np.empty(n, dtype=np.int64)
    for rank, net_id in enumerate(sorted(range(n), key=order.__getitem__)):
        name_rank[net_id] = rank

    nets = graph.nets
    fo_counts = np.fromiter((len(nets[name].fanout) for name in order),
                            dtype=np.int64, count=n)
    fo_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(fo_counts, out=fo_indptr[1:])
    n_edges = int(fo_indptr[-1])
    fo_indices = np.empty(n_edges, dtype=np.int64)
    fi_counts = np.zeros(n, dtype=np.int64)
    position = 0
    for name in order:
        for target in nets[name].fanout:
            target_id = index[target]
            fo_indices[position] = target_id
            fi_counts[target_id] += 1
            position += 1
    fi_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(fi_counts, out=fi_indptr[1:])
    fi_fill = fi_indptr[:-1].copy()
    fi_indices = np.empty(n_edges, dtype=np.int64)
    for source_id in range(n):
        for target_id in fo_indices[fo_indptr[source_id]:fo_indptr[source_id + 1]]:
            fi_indices[fi_fill[target_id]] = source_id
            fi_fill[target_id] += 1

    loads = _net_loads(graph, order, tech)

    cells: Dict[float, Tuple[int, CellCharacterization]] = {}
    line_ids: Dict[int, int] = {}
    line_keys: Dict[str, int] = {}
    lines: List[RLCLine] = []
    configs: Dict[Tuple[int, int, float], int] = {}
    config_cell: List[CellCharacterization] = []
    config_line: List[RLCLine] = []
    config_load: List[float] = []
    config_id = np.empty(n, dtype=np.int64)
    for i, name in enumerate(order):
        net = nets[name]
        cell_entry = cells.get(net.driver_size)
        if cell_entry is None:
            cell_entry = (len(cells), library.get(net.driver_size))
            cells[net.driver_size] = cell_entry
        line_idx = line_ids.get(id(net.line))
        if line_idx is None:
            # Distinct-but-equal line objects fingerprint (and therefore
            # solve) identically, so dedupe by content behind the id memo.
            key = net.line.fingerprint()
            line_idx = line_keys.get(key)
            if line_idx is None:
                line_idx = len(lines)
                lines.append(net.line)
                line_keys[key] = line_idx
            line_ids[id(net.line)] = line_idx
        config_key = (cell_entry[0], line_idx, float(loads[i]))
        config = configs.get(config_key)
        if config is None:
            config = len(config_cell)
            configs[config_key] = config
            config_cell.append(cell_entry[1])
            config_line.append(lines[line_idx])
            config_load.append(float(loads[i]))
        config_id[i] = config

    is_endpoint = np.fromiter((nets[name].is_endpoint for name in order),
                              dtype=bool, count=n)
    is_sink = fo_counts == 0

    return CompiledGraph(
        order=order, index=index, level_ptr=level_ptr, name_rank=name_rank,
        fo_indptr=fo_indptr, fo_indices=fo_indices,
        fi_indptr=fi_indptr, fi_indices=fi_indices,
        load=loads, config_id=config_id, config_cell=config_cell,
        config_line=config_line,
        config_load=np.array(config_load, dtype=np.float64),
        is_endpoint=is_endpoint, is_sink=is_sink,
        version=graph.version,
        topology_version=graph.topology_version,
        compile_seconds=time.perf_counter() - started,
        interner=ConfigInterner(cells=cells, lines=lines,
                                line_keys=line_keys, configs=configs))


@dataclass(eq=False)
class SweepState:
    """Per-event planes of one forward sweep, all indexed by event id.

    ``src`` / ``early_src`` hold winning-fanin *event ids* (-1 = primary-input
    seed); ``merged_slew`` is the raw late-plane winner (tie-breaks compare
    raw slews, exactly like the object engine's pending tuples) while
    ``in_slew`` is its quantized form the stage was actually solved at.
    ``sol_idx`` points into the analysis's solution list (-1 = unsolved).
    """

    exists: np.ndarray  #: bool[2n]
    in_arr: np.ndarray  #: float64[2n], late merged input arrival
    early_in: np.ndarray  #: float64[2n], early merged input arrival
    merged_slew: np.ndarray  #: float64[2n], raw late-winner slew
    in_slew: np.ndarray  #: float64[2n], quantized solve slew
    src: np.ndarray  #: int64[2n], late winning fanin event (-1 = PI)
    early_src: np.ndarray  #: int64[2n], early winning fanin event (-1 = PI)
    out_arr: np.ndarray  #: float64[2n], late far-end arrival
    early_out: np.ndarray  #: float64[2n], early far-end arrival
    delay: np.ndarray  #: float64[2n], stage delay (gate + interconnect)
    prop_slew: np.ndarray  #: float64[2n], propagated full-swing slew
    sol_idx: np.ndarray  #: int64[2n], index into the solution list

    @classmethod
    def empty(cls, n_events: int) -> "SweepState":
        return cls(
            exists=np.zeros(n_events, dtype=bool),
            in_arr=np.zeros(n_events, dtype=np.float64),
            early_in=np.zeros(n_events, dtype=np.float64),
            merged_slew=np.zeros(n_events, dtype=np.float64),
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
        return (self.exists, self.in_arr, self.early_in, self.merged_slew,
                self.in_slew, self.src, self.early_src, self.out_arr,
                self.early_out, self.delay, self.prop_slew, self.sol_idx)

    def clone(self) -> "SweepState":
        """A deep per-plane copy (snapshot isolation for incremental updates).

        A masked incremental sweep mutates its planes in place; cloning first
        keeps every previously issued :class:`CompiledAnalysis` (and the
        streaming reports / serve snapshots built on it) describing the state
        it analyzed.  ~12 memcpys — microseconds at 100k nets.
        """
        return SweepState(*(plane.copy() for plane in self.planes()))

    @property
    def nbytes(self) -> int:
        return sum(plane.nbytes for plane in self.planes())


def merge_level(cg: CompiledGraph, state: SweepState,
                net_lo: int, net_hi: int) -> np.ndarray:
    """Merge fanin events into nets ``[net_lo, net_hi)``; return the level's events.

    Vectorized twin of ``GraphEngine._merge`` over one whole level: every
    fanin edge contributes its two possible source events, the target event is
    ``target * 2 + (1 - source_transition)`` (the inverter flips the edge),
    and one ``np.lexsort`` per plane elects the winners — last-in-group for
    the late plane (``max`` of (arrival, slew, ordinal)), first-in-group for
    the early plane (``min`` of (early arrival, slew, ordinal)).  The ordinal
    ``name_rank * 2 + transition`` orders source events exactly like the
    object engine's ``(name, transition)`` tuple comparison, which is what
    makes the election independent of edge order, bit-for-bit.

    Returns the event ids existing in the level span *after* the merge —
    including primary-input seeds installed by the caller (roots have no
    fanin, so they never compete in a merge).
    """
    lo_ptr, hi_ptr = int(cg.fi_indptr[net_lo]), int(cg.fi_indptr[net_hi])
    if hi_ptr > lo_ptr:
        source_net = cg.fi_indices[lo_ptr:hi_ptr]
        counts = np.diff(cg.fi_indptr[net_lo:net_hi + 1])
        target_net = np.repeat(np.arange(net_lo, net_hi, dtype=np.int64), counts)
        _elect_merges(cg, state, source_net, target_net)
    span = state.exists[net_lo * 2:net_hi * 2]
    return np.flatnonzero(span) + net_lo * 2


def _elect_merges(cg: CompiledGraph, state: SweepState,
                  source_net: np.ndarray, target_net: np.ndarray) -> None:
    """Run the two-plane merge election over (source, target) edge pairs.

    The per-target election only compares candidates sharing a target event,
    so running it over any edge subset that is *complete per target* (every
    fanin edge of every target present) gives the same winners as the full
    level — which is what lets the masked incremental sweep merge an
    arbitrary set of nets bit-identically.
    """
    # Expand each edge into its two candidate source events.
    sev = np.repeat(source_net * 2, 2)
    sev[1::2] += 1
    tnet = np.repeat(target_net, 2)
    keep = state.exists[sev]
    sev, tnet = sev[keep], tnet[keep]
    if not sev.size:
        return
    tev = tnet * 2 + 1 - (sev & 1)
    arrival = state.out_arr[sev]
    early = state.early_out[sev]
    slew = state.prop_slew[sev]
    ordinal = cg.name_rank[sev >> 1] * 2 + (sev & 1)
    late = np.lexsort((ordinal, slew, arrival, tev))
    grouped = tev[late]
    is_last = np.empty(grouped.size, dtype=bool)
    is_last[:-1] = grouped[1:] != grouped[:-1]
    is_last[-1] = True
    winner = late[is_last]
    targets = tev[winner]
    state.exists[targets] = True
    state.in_arr[targets] = arrival[winner]
    state.merged_slew[targets] = slew[winner]
    state.src[targets] = sev[winner]
    first = np.lexsort((ordinal, slew, early, tev))
    grouped = tev[first]
    is_first = np.empty(grouped.size, dtype=bool)
    is_first[0] = True
    is_first[1:] = grouped[1:] != grouped[:-1]
    winner = first[is_first]
    state.early_in[tev[winner]] = early[winner]
    state.early_src[tev[winner]] = sev[winner]


def merge_nets(cg: CompiledGraph, state: SweepState,
               nets: np.ndarray) -> np.ndarray:
    """Merge fanin events into the (arbitrary) net ids ``nets``; return their events.

    The masked twin of :func:`merge_level`: gathers the complete fanin slice
    of each listed net from the CSR rows and runs the same two-plane election
    (:func:`_elect_merges`), so the result is bit-identical to what a full
    level merge writes into those nets.  ``nets`` must live in one level (the
    caller iterates levels) and their event slots must be cleared first —
    merge only installs winners, it never erases a stale event.
    """
    counts = cg.fi_indptr[nets + 1] - cg.fi_indptr[nets]
    total = int(counts.sum())
    if total:
        ptr = np.zeros(nets.size + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        positions = (np.arange(total, dtype=np.int64)
                     - np.repeat(ptr[:-1], counts)
                     + np.repeat(cg.fi_indptr[nets], counts))
        source_net = cg.fi_indices[positions]
        target_net = np.repeat(nets, counts)
        _elect_merges(cg, state, source_net, target_net)
    candidates = np.empty(2 * nets.size, dtype=np.int64)
    candidates[0::2] = nets * 2
    candidates[1::2] = nets * 2 + 1
    return candidates[state.exists[candidates]]


def level_solve_keys(cg: CompiledGraph, state: SweepState, events: np.ndarray,
                     quantum: Optional[float]
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse a level's events to unique (config, transition, slew) keys.

    Quantizes the merged slews onto the solver grid (bit-identical to
    ``quantize_slew()``: ``round()`` and ``np.rint`` are both half-even),
    records them in ``state.in_slew``, and returns ``(unique, inverse)``:
    ``unique`` is a (k, 3) float64 matrix of the distinct keys in
    lexicographic (config, transition, slew) order and ``inverse`` maps each
    event to its row.  Each key packs into one int64 — slews by their rank
    among the level's distinct slews — which preserves that order, so the
    dedupe costs two 1-D sorts.  ``solve_batch`` results depend on request
    order at the ~1 ULP level, so the order is part of the contract.
    """
    slews = state.merged_slew[events]
    if quantum is not None:
        slews = np.maximum(np.rint(slews / quantum), 1.0) * quantum
    state.in_slew[events] = slews
    distinct_slews, slew_rank = np.unique(slews, return_inverse=True)
    config = cg.config_id[events >> 1]
    transition = events & 1
    packed = (config * 2 + transition) * distinct_slews.size + slew_rank
    _, first, inverse = np.unique(packed, return_index=True,
                                  return_inverse=True)
    unique = np.empty((first.size, 3), dtype=np.float64)
    unique[:, 0] = config[first]
    unique[:, 1] = transition[first]
    unique[:, 2] = slews[first]
    return unique, inverse


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


def _segment_reduce(values: np.ndarray, ptr: np.ndarray, ufunc,
                    identity: float) -> np.ndarray:
    """Per-segment ``ufunc`` reduction with empty segments -> ``identity``.

    ``np.ufunc.reduceat`` misbehaves on empty segments (it returns the
    element *at* the start index), so reduce only the non-empty starts and
    scatter back.
    """
    n_segments = len(ptr) - 1
    out = np.full(n_segments, identity)
    counts = np.diff(ptr)
    non_empty = counts > 0
    if values.size and non_empty.any():
        out[non_empty] = ufunc.reduceat(values, ptr[:-1][non_empty])
    return out


def backward_required(cg: CompiledGraph, state: SweepState,
                      setup_seeds: Optional[np.ndarray],
                      hold_seeds: Optional[np.ndarray]
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Array backward pass: (required, hold_required) planes, NaN = None.

    Level-by-level against the arrival flow, the exact mirror of
    ``GraphEngine._apply_required``: an event's setup required time is the
    minimum of its seed and, per fanout consumer (the consumer event keyed by
    this event's *output* transition), the consumer's required minus the
    consumer's stage delay; hold is the mirror with the maximum.  None rides
    as NaN at the boundary and as ±inf inside the reduction — min/max are
    exact on floats, so the result is bit-identical to the object pass.
    A disabled polarity (seeds None) stays all-NaN, mirroring mode stripping.
    """
    n_events = 2 * cg.n_nets
    required = np.full(n_events, np.nan)
    hold_required = np.full(n_events, np.nan)
    if setup_seeds is None and hold_seeds is None:
        return required, hold_required
    for level in range(cg.n_levels - 1, -1, -1):
        net_lo, net_hi = int(cg.level_ptr[level]), int(cg.level_ptr[level + 1])
        events = np.flatnonzero(state.exists[net_lo * 2:net_hi * 2]) + net_lo * 2
        if not events.size:
            continue
        required_level(cg, state, events, setup_seeds, hold_seeds,
                       required, hold_required)
    return required, hold_required


def required_level(cg: CompiledGraph, state: SweepState, events: np.ndarray,
                   setup_seeds: Optional[np.ndarray],
                   hold_seeds: Optional[np.ndarray],
                   required: np.ndarray, hold_required: np.ndarray) -> None:
    """One backward-pass step: refresh ``events``'s required times in place.

    ``events`` may be any subset of one level's existing events — each
    event's value depends only on its seed and its fanout consumers' (already
    final) entries in ``required`` / ``hold_required``, never on its level
    peers, which is what lets the masked incremental backward pass refresh a
    fanin cone bit-identically to the full sweep.
    """
    net = events >> 1
    counts = cg.fo_indptr[net + 1] - cg.fo_indptr[net]
    ptr = np.zeros(events.size + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    total = int(ptr[-1])
    if total:
        # Gather each event's fanout slice: global CSR positions.
        positions = (np.arange(total, dtype=np.int64)
                     - np.repeat(ptr[:-1], counts)
                     + np.repeat(cg.fo_indptr[net], counts))
        consumer_net = cg.fo_indices[positions]
        # The consumer event's input transition is this event's output
        # transition: 1 - (event & 1).
        consumer = consumer_net * 2 + np.repeat(1 - (events & 1), counts)
        consumer_ok = state.exists[consumer]
        delay = state.delay[consumer]
    if setup_seeds is not None:
        base = setup_seeds[events]
        base = np.where(np.isnan(base), np.inf, base)
        if total:
            upstream = required[consumer] - delay
            upstream = np.where(consumer_ok & ~np.isnan(upstream),
                                upstream, np.inf)
            base = np.minimum(base, _segment_reduce(
                upstream, ptr, np.minimum, np.inf))
        required[events] = np.where(np.isinf(base), np.nan, base)
    if hold_seeds is not None:
        base = hold_seeds[events]
        base = np.where(np.isnan(base), -np.inf, base)
        if total:
            upstream = hold_required[consumer] - delay
            upstream = np.where(consumer_ok & ~np.isnan(upstream),
                                upstream, -np.inf)
            base = np.maximum(base, _segment_reduce(
                upstream, ptr, np.maximum, -np.inf))
        hold_required[events] = np.where(np.isinf(base), np.nan, base)


class CompiledAnalysis:
    """One compiled-path analysis result: array planes + lazy event records.

    Scalar queries (WNS/WHS, worst sink, endpoint ids, slack planes) are
    array reductions; :meth:`timing_event` materializes a single
    :class:`repro.api.report.TimingEvent`-compatible record on demand, which
    is what :class:`repro.api.report.StreamingTimingReport` builds its lazy
    event mapping from.  ``solutions`` maps ``state.sol_idx`` to the shared
    :class:`~repro.core.stage_solver.StageSolution` objects (one per *unique*
    stage configuration actually solved, not per event).
    """

    def __init__(self, *, graph: CompiledGraph, state: SweepState,
                 required: np.ndarray, hold_required: np.ndarray,
                 solutions: List[StageSolution], stats, elapsed: float,
                 mode: str) -> None:
        self.graph = graph
        self.state = state
        self.required = required
        self.hold_required = hold_required
        self.solutions = solutions
        self.stats = stats
        self.elapsed = elapsed
        self.mode = mode
        #: Endpoint mask at analysis time.  patch() replaces the compiled
        #: graph's mask copy-on-write, so capturing the reference keeps this
        #: result describing the state it analyzed.
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
        exists = self.state.exists
        mask = exists[0::2] | exists[1::2]
        return [self.graph.order[i] for i in np.flatnonzero(mask)]

    def timing_event(self, event: int):
        """One event as a :class:`repro.api.report.TimingEvent` record."""
        # Imported here: repro.api.report imports this module at the top.
        from ..api.report import TimingEvent

        state = self.state
        if not state.exists[event]:
            raise ModelingError(f"event {event} was not timed")
        solution = self.solutions[state.sol_idx[event]]
        net_id, t = event >> 1, event & 1
        required = float(self.required[event])
        required_value = None if np.isnan(required) else required
        hold = float(self.hold_required[event])
        hold_value = None if np.isnan(hold) else hold
        output_arrival = float(state.out_arr[event])
        early_output = float(state.early_out[event])
        return TimingEvent(
            net=self.graph.order[net_id],
            input_transition=TRANSITIONS[t],
            output_transition=solution.transition,
            input_arrival=float(state.in_arr[event]),
            output_arrival=output_arrival,
            input_slew=float(state.in_slew[event]),
            gate_delay=solution.gate_delay,
            interconnect_delay=solution.interconnect_delay,
            far_slew=solution.far_slew,
            propagated_slew=solution.propagated_slew,
            kind=solution.kind,
            cell_name=solution.cell_name,
            load_capacitance=solution.load_capacitance,
            ceff1=solution.ceff1,
            tr1=solution.tr1,
            ceff2=solution.ceff2,
            tr2_effective=solution.tr2_effective,
            fingerprint=solution.fingerprint,
            source=self._source_key(state.src[event]),
            required=required_value,
            slack=(None if required_value is None
                   else required_value - output_arrival),
            endpoint=bool(self.is_endpoint[net_id]),
            early_arrival=early_output,
            early_source=self._source_key(state.early_src[event]),
            hold_required=hold_value,
            hold_slack=(None if hold_value is None
                        else early_output - hold_value))

    def _source_key(self, source: int) -> Optional[Tuple[str, str]]:
        if source < 0:
            return None
        return self.graph.order[source >> 1], TRANSITIONS[source & 1]

    # --- scalar queries -----------------------------------------------------------
    def worst_sink_event_id(self) -> int:
        """The sink event with the largest late arrival (first on exact ties).

        Event-id order equals the object engine's event insertion order, so
        ``argmax`` (first maximum) elects the same event ``max()`` does.
        """
        sink_events = np.repeat(self.graph.is_sink, 2) & self.state.exists
        if not sink_events.any():
            raise ModelingError("timed graph has no sink events")
        arrivals = np.where(sink_events, self.state.out_arr, -np.inf)
        return int(np.argmax(arrivals))

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

    def worst_endpoint_slack(self, mode: str = "setup") -> Optional[float]:
        """Minimum ``mode`` slack over constrained endpoint events (None = none)."""
        events = self.endpoint_event_ids(mode)
        if not events.size:
            return None
        return float(np.min(self.slack_plane(mode)[events]))

    def constrained(self, mode: str = "setup") -> bool:
        """True when any event carries a ``mode`` required time."""
        check_mode(mode)
        plane = self.required if mode == "setup" else self.hold_required
        return bool(np.any(~np.isnan(plane)))
