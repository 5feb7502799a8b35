"""The compiled (struct-of-arrays) scale tier vs the object engine.

The contract under test, layer by layer:

* ``compile_graph``'s array passes build exactly the arrays, config tables
  and object identities of the per-element compile they replaced (kept below
  as ``reference_compile_graph``), on the SoC template, every golden design,
  random DAGs and adversarial shapes;
* ``compile_graph`` + ``GraphEngine.analyze_compiled`` produce events that are
  **exactly equal** (not just within tolerance) to the object engine's, on
  random DAGs, in every analysis mode, including merge tie-breaks, sources,
  required times and slacks — the array sweeps are a reimplementation of the
  same semantics, so nothing short of equality is acceptable;
* results are independent of net declaration order (the vectorized lexsort
  tie-break mirrors the object engine's ``max()`` over (arrival, slew, source)
  tuples);
* the level dedupe (``level_solve_keys``) gives exactly the keys, order and
  inverse map of the ``np.unique(axis=0)`` row sort it replaced, and a
  level's planned merge, whole or restricted to some of its nets
  (``MergePlan.restrict``), which installs one-fanin targets directly,
  elects exactly the winners of the all-lexsort election it replaced; the dedupe of
  events keyed by their source's solution gives the same rows;
* the planned full sweep (merge and backward-pass plans resolved against
  the stimulus, a reused plane buffer and cached seeds, all kept on the
  compiled graph) equals, in every plane, the per-sweep kernels it replaced
  (kept below) on from-scratch planes: cold and warm, after resizes, a root
  transition flip, an endpoint flip and a dropped polarity, and after
  rolled-back stimulus and constraint edits; held reports keep their
  planes; a counter gate pins what a warm re-time builds and allocates; an
  update and a re-time index the same rows of the snapshot's solution
  table, and engines with other slew thresholds keep rows of their own;
* :class:`StreamingTimingReport` answers every report query like the eager
  report and serializes to the identical payload;
* the session times every design (paths, graphs, builders) on the compiled
  engine, each unique stage solution within 1e-9 of the scalar
  ``solve_stage`` oracle, and caches a graph's compiled twin until a
  structural edit bumps the graph version;
* warm :meth:`TimingSession.update` calls rebuild only the dirty cone's event
  records (``meta.report_events_rebuilt``), sharing the rest with the previous
  report by identity.
"""

import dataclasses
import random
import time
import weakref
from types import SimpleNamespace
from typing import Dict, List, Tuple

import numpy as np
import pytest
from golden_cases import golden_designs
from test_batch_solving import assert_matches_scalar_oracle
from test_sta_dual_mode import random_dag

from repro.api import (
    DesignBuilder,
    SessionConfig,
    StreamingTimingReport,
    TimingReport,
    TimingSession,
    compare_reports,
)
from repro.core import StageSolver, solve_stage
from repro.errors import CharacterizationError, ModelingError
from repro.experiments import soc_graph
from repro.interconnect import RLCLine
from repro.sta import (
    GraphEngine,
    GraphNet,
    PrimaryInput,
    SweepState,
    TimingGraph,
    TimingPath,
    TimingStage,
    chain_graph,
    compile_graph,
)
from repro.sta import batch, compiled
from repro.sta.compiled import (TRANSITIONS, CompiledGraph, ConfigInterner,
                                MergePlan, SweepPlan, _coded_solve_keys,
                                _csr_rows, _install, _interleave,
                                constraint_seeds, input_seeds, level_solve_keys,
                                merge_level)
from repro.sta.graph import event_options
from repro.units import fF, mm, nH, pF, ps


@pytest.fixture(scope="module")
def lines():
    """Two cheap-to-solve line flavors (short wires keep the test quick)."""
    return [RLCLine(resistance=20.0, inductance=nH(1.05), capacitance=pF(0.22),
                    length=mm(1)),
            RLCLine(resistance=38.0, inductance=nH(2.1), capacitance=pF(0.42),
                    length=mm(2))]


@pytest.fixture(scope="module")
def solver():
    """One memo shared by every engine in this module (results are memo-safe)."""
    return StageSolver()


@pytest.fixture(scope="module")
def engine(library, solver):
    return GraphEngine(library=library, solver=solver)


def shared_session(solver, **config) -> TimingSession:
    """A session on the shipped (process-shared) library and this module's memo."""
    session = TimingSession(SessionConfig(**config)) if config else TimingSession()
    session.solver = solver
    session._engine.solver = solver
    return session


def assert_equivalent(engine, graph):
    """Object-engine and compiled analyses of ``graph`` are exactly equal."""
    report = engine.analyze(graph)
    compiled = engine.compile(graph)
    analysis = engine.analyze_compiled(graph, compiled_graph=compiled)
    assert analysis.n_events == report.n_events
    for name, per_net in report.events.items():
        assert analysis.events_of(name) == per_net  # whole records, every field
    assert report.critical_path == [analysis.key_of(e)
                                    for e in analysis.critical_path_ids()]
    return analysis


def row_sort_level_solve_keys(cg, state, events):
    """Reference dedupe: ``np.unique(axis=0)`` over (config, transition, slew) rows."""
    slews = state.in_slew[events]
    keys = np.empty((events.size, 3), dtype=np.float64)
    keys[:, 0] = cg.config_id[events >> 1]
    keys[:, 1] = events & 1
    keys[:, 2] = slews
    return np.unique(keys, axis=0, return_inverse=True)


def constrain_randomly(rng, graph):
    """A random dual-mode constraint landscape (clock, margin, pins)."""
    if rng.random() < 0.8:
        graph.set_clock_period(ps(700),
                               hold_margin=rng.choice([None, 0.0, ps(40)]))
    for name in rng.sample(sorted(graph.nets), k=min(2, len(graph.nets))):
        graph.set_required(name, rng.choice([ps(300), ps(650)]),
                           transition=rng.choice([None, "rise", "fall"]))
    for name in rng.sample(sorted(graph.nets), k=min(2, len(graph.nets))):
        graph.set_required(name, rng.choice([ps(30), ps(90)]),
                           transition=rng.choice([None, "rise", "fall"]),
                           mode="hold")


def drop_constraints(graph, mode):
    """Remove every ``mode`` constraint: the clock period or margin, and pins."""
    if mode == "setup":
        graph.set_clock_period(None, hold_margin=graph.hold_margin)
    else:
        graph.set_clock_period(graph.clock_period)
    for name, per_net in graph.required_pins(mode).items():
        for transition in per_net:
            graph.set_required(name, None, transition=transition, mode=mode)


def reference_compile_graph(graph, *, library, tech):
    """The per-element compile the array passes replaced, kept as their oracle.

    Loops over nets and edges in Python, writing numpy scalars one at a time:
    fanout CSR in declaration order, fanin CSR by a fill loop over sources,
    loads by the object engine's float-add order, and stage configurations
    interned net by net through dicts.
    """
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

    caps: Dict[float, float] = {}

    def cap(size):
        value = caps.get(size)
        if value is None:
            value = tech.inverter_input_capacitance(size)
            caps[size] = value
        return value

    loads = np.empty(n, dtype=np.float64)
    for i, name in enumerate(order):
        net = nets[name]
        load = net.extra_load
        for target in net.fanout:
            load += cap(nets[target].driver_size)
        if net.receiver_size is not None:
            load += cap(net.receiver_size)
        loads[i] = load

    cells: Dict[float, Tuple[int, object]] = {}
    line_ids: Dict[int, int] = {}
    line_keys: Dict[str, int] = {}
    lines: List[RLCLine] = []
    configs: Dict[Tuple[int, int, float], int] = {}
    config_cell, config_line, config_load = [], [], []
    config_id = np.empty(n, dtype=np.int64)
    for i, name in enumerate(order):
        net = nets[name]
        cell_entry = cells.get(net.driver_size)
        if cell_entry is None:
            cell_entry = (len(cells), library.get(net.driver_size))
            cells[net.driver_size] = cell_entry
        line_idx = line_ids.get(id(net.line))
        if line_idx is None:
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


#: Every numpy array a compiled graph holds.
COMPILED_ARRAYS = ("level_ptr", "name_rank", "fo_indptr", "fo_indices",
                   "fi_indptr", "fi_indices", "load", "config_id",
                   "config_load", "is_endpoint", "is_sink")


def exact_key(value):
    """A dict key with its type and float bits: ``75`` != ``75.0``, ``-0.0`` != ``0.0``."""
    if isinstance(value, tuple):
        return tuple(exact_key(item) for item in value)
    if isinstance(value, float):
        return (float, value.hex())
    return (type(value), value)


def assert_compiled_identical(ours, reference):
    """Two compiled graphs hold the same bytes, objects and interning tables."""
    for name in COMPILED_ARRAYS:
        mine, theirs = getattr(ours, name), getattr(reference, name)
        assert mine.dtype == theirs.dtype, name
        assert mine.shape == theirs.shape, name
        assert mine.tobytes() == theirs.tobytes(), name
    assert ours.order == reference.order
    assert list(ours.index.items()) == list(reference.index.items())
    assert [id(cell) for cell in ours.config_cell] == \
        [id(cell) for cell in reference.config_cell]
    assert [id(line) for line in ours.config_line] == \
        [id(line) for line in reference.config_line]
    mine, theirs = ours.interner, reference.interner
    assert [(exact_key(size), exact_key(idx), id(cell))
            for size, (idx, cell) in mine.cells.items()] == \
        [(exact_key(size), exact_key(idx), id(cell))
         for size, (idx, cell) in theirs.cells.items()]
    assert [id(line) for line in mine.lines] == [id(line) for line in theirs.lines]
    assert list(mine.line_keys.items()) == list(theirs.line_keys.items())
    assert [(exact_key(key), exact_key(config))
            for key, config in mine.configs.items()] == \
        [(exact_key(key), exact_key(config))
         for key, config in theirs.configs.items()]
    assert (ours.version, ours.topology_version) == \
        (reference.version, reference.topology_version)


def wide_fanout_graph(lines) -> TimingGraph:
    """Adversarial compile shapes in one graph.

    A hub drives 300 leaves of mixed driver sizes (``75`` next to ``75.0``)
    and also carries a receiver; the leaves share a line object with a
    distinct-but-equal twin; some leaves have both fanout and a receiver; and
    loads of ``-0.0`` and ``0.0`` meet in one configuration.
    """
    twin = RLCLine(resistance=lines[0].resistance, inductance=lines[0].inductance,
                   capacitance=lines[0].capacitance, length=lines[0].length)
    sizes = (25.0, 50, 75, 75.0, 100.0, 125)
    leaves = [f"leaf{i}" for i in range(300)]
    nets = [GraphNet("hub", 100.0, lines[1], fanout=tuple(leaves),
                     receiver_size=50, extra_load=-0.0)]
    for i, leaf in enumerate(leaves):
        fanout = (f"sink{i}",) if i < 20 else ()
        nets.append(GraphNet(
            leaf, sizes[i % len(sizes)], (lines[0], twin, lines[1])[i % 3],
            fanout=fanout,
            receiver_size=(75, 75.0)[i % 2] if i % 4 == 0 else None,
            extra_load=(-0.0, fF(2), 0.0)[i % 3]))
        if fanout:
            nets.append(GraphNet(fanout[0], (75, 75.0, 50.0)[i % 3], twin,
                                 receiver_size=25, extra_load=-0.0))
    return TimingGraph(nets, {"hub": PrimaryInput(slew=ps(80))})


def as_graph(design) -> TimingGraph:
    if isinstance(design, TimingPath):
        return chain_graph(design)[0]
    return design


class TestCompileMatchesReference:
    """The array-pass compile equals the per-element reference, bit for bit."""

    @pytest.mark.parametrize("n_nets", [1000, 4000])
    def test_soc_graph(self, library, tech, n_nets):
        graph = soc_graph(n_nets)
        assert_compiled_identical(
            compile_graph(graph, library=library, tech=tech),
            reference_compile_graph(graph, library=library, tech=tech))

    @pytest.mark.parametrize("design", [
        pytest.param(design, id=key) for key, design in golden_designs()])
    def test_golden_designs(self, library, tech, design):
        graph = as_graph(design())
        assert_compiled_identical(
            compile_graph(graph, library=library, tech=tech),
            reference_compile_graph(graph, library=library, tech=tech))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_dags(self, library, tech, lines, seed):
        rng = random.Random(seed)
        graph = random_dag(rng, lines, n_nets=rng.choice([1, 5, 40, 200]),
                           n_roots=rng.choice([1, 3]))
        assert_compiled_identical(
            compile_graph(graph, library=library, tech=tech),
            reference_compile_graph(graph, library=library, tech=tech))

    def test_adversarial_shapes(self, library, tech, lines):
        graph = wide_fanout_graph(lines)
        ours = compile_graph(graph, library=library, tech=tech)
        assert_compiled_identical(
            ours, reference_compile_graph(graph, library=library, tech=tech))
        # The shapes really are adversarial: 75 and 75.0 share a cell entry
        # keyed by the first one seen, equal lines share one line index, and
        # -0.0 and 0.0 loads share configurations.
        assert len(ours.interner.cells) == 5
        assert len(ours.interner.lines) == 2
        assert np.signbit(ours.load).any() and (ours.load == 0.0).sum() > 1
        assert int(np.diff(ours.fo_indptr).max()) == 300

    def test_unknown_size_raises_like_the_reference(self, library, tech, lines):
        graph = TimingGraph(
            [GraphNet("a", 75.0, lines[0], fanout=("b", "c")),
             GraphNet("b", 33.0, lines[0], receiver_size=25.0),
             GraphNet("c", 34.0, lines[0], receiver_size=25.0)],
            {"a": PrimaryInput(slew=ps(80))})
        messages = []
        for compile_ in (compile_graph, reference_compile_graph):
            with pytest.raises(CharacterizationError) as raised:
                compile_(graph, library=library, tech=tech)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        assert "33.0" in messages[0]  # the first unknown size, in net order


class TestLevelSolveKeys:
    @pytest.mark.parametrize("grid", [None, ps(5.0)], ids=["exact", "quantized"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_row_sort_reference(self, seed, grid):
        rng = np.random.default_rng(seed)
        n_nets = int(rng.integers(1, 400))
        cg = SimpleNamespace(config_id=rng.integers(0, 7, size=n_nets))
        events = np.flatnonzero(rng.random(2 * n_nets) < 0.7)
        if not events.size:
            events = np.array([0])
        # Slews from a small pool (exact ties) mixed with unique draws.
        pool = rng.uniform(ps(20), ps(300), size=5)
        fresh = rng.uniform(ps(20), ps(300), size=2 * n_nets)
        slews = np.where(rng.random(2 * n_nets) < 0.6,
                         rng.choice(pool, size=2 * n_nets), fresh)
        if grid is not None:  # slews on a coarse grid: mostly exact ties
            slews = np.maximum(np.rint(slews / grid), 1.0) * grid
        assert_dedupe_matches_row_sort(cg, slews, events)

    @pytest.mark.parametrize("shape", ["single_event", "all_equal_slews",
                                       "equal_slews_across_configs"])
    def test_degenerate_levels_match_the_row_sort_reference(self, shape):
        rng = np.random.default_rng(7)
        n_nets = 40
        config_id = rng.integers(0, 5, size=n_nets)
        slews = rng.uniform(ps(20), ps(300), size=2 * n_nets)
        events = np.flatnonzero(rng.random(2 * n_nets) < 0.7)
        if shape == "single_event":
            events = np.array([13])
        elif shape == "all_equal_slews":
            slews[:] = ps(80)
        else:  # two slews, each shared by events of every config and transition
            slews = np.where(np.arange(2 * n_nets) % 3 == 0, ps(80), ps(140))
            assert len({(config_id[e >> 1], e & 1)
                        for e in events.tolist() if slews[e] == ps(80)}) > 3
        assert_dedupe_matches_row_sort(SimpleNamespace(config_id=config_id),
                                       slews, events)


class TestCodedSolveKeys:
    """Events keyed by their source's solution dedupe like the row sort."""

    @pytest.mark.parametrize("sol_span", [12, 100_000], ids=["dense", "sorted"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_row_sort_reference(self, seed, sol_span):
        rng = np.random.default_rng(seed)
        n_sources, n_targets = 60, int(rng.integers(400, 1200))
        n_events = 2 * (n_sources + n_targets)
        cg = SimpleNamespace(config_id=rng.integers(0, 6, size=n_events // 2))
        state = SweepState.empty(n_events)
        # Solutions share slews from a small pool: distinct solutions, equal keys.
        sol_slew = rng.choice(rng.uniform(ps(20), ps(300), size=4), size=sol_span)
        sources = np.arange(2 * n_sources)
        state.sol_idx[sources] = rng.integers(0, sol_span, size=sources.size)
        state.prop_slew[sources] = sol_slew[state.sol_idx[sources]]
        events = 2 * n_sources + np.flatnonzero(rng.random(2 * n_targets) < 0.7)
        if not events.size:
            events = np.array([2 * n_sources])
        state.src[events] = rng.choice(sources, size=events.size)
        state.in_slew[events] = state.prop_slew[state.src[events]]
        coded = _coded_solve_keys(state, events,
                                  cg.config_id[events >> 1] * 2 + (events & 1),
                                  state.sol_idx[state.src[events]])
        assert (coded is None) == (sol_span > 4 * events.size + 256)
        if coded is not None:
            expected, expected_inverse = row_sort_level_solve_keys(cg, state, events)
            assert np.array_equal(coded[0], expected)
            assert np.array_equal(coded[1], expected_inverse.reshape(-1))
        assert_dedupe_matches_row_sort(cg, state.in_slew, events, state=state)


def assert_dedupe_matches_row_sort(cg, slews, events, state=None):
    """``level_solve_keys`` gives the reference's rows, order and inverse."""
    if state is None:
        state = SweepState.empty(slews.size)
        state.in_slew[:] = slews
    states = [state.clone(), state.clone()]
    unique, inverse = level_solve_keys(cg, states[0], events)
    expected, expected_inverse = row_sort_level_solve_keys(cg, states[1], events)
    assert unique.dtype == expected.dtype and unique.shape == expected.shape
    assert np.array_equal(unique, expected)
    assert np.array_equal(inverse, expected_inverse.reshape(-1))
    assert np.array_equal(states[0].in_slew, slews)  # read, never written


def lexsort_merge_level(cg, state, net_lo, net_hi):
    """Reference merge: the two-plane lexsort election over every fanin edge.

    The election the merge ran before one-fanin targets installed
    their lone candidate directly: every candidate, of every target, goes
    through both lexsorts.
    """
    counts = np.diff(cg.fi_indptr[net_lo:net_hi + 1])
    source_net = cg.fi_indices[cg.fi_indptr[net_lo]:cg.fi_indptr[net_hi]]
    target_net = np.repeat(np.arange(net_lo, net_hi, dtype=np.int64), counts)
    sev = np.repeat(source_net * 2, 2)
    sev[1::2] += 1
    tnet = np.repeat(target_net, 2)
    keep = state.exists[sev]
    sev, tnet = sev[keep], tnet[keep]
    tev = tnet * 2 + 1 - (sev & 1)
    arrival, early = state.out_arr[sev], state.early_out[sev]
    slew = state.prop_slew[sev]
    ordinal = cg.name_rank[sev >> 1] * 2 + (sev & 1)
    late = np.lexsort((ordinal, slew, arrival, tev))
    is_last = np.append(tev[late][1:] != tev[late][:-1], True)
    winner = late[is_last]
    state.exists[tev[winner]] = True
    state.in_arr[tev[winner]] = arrival[winner]
    state.in_slew[tev[winner]] = slew[winner]
    state.src[tev[winner]] = sev[winner]
    first = np.lexsort((ordinal, slew, early, tev))
    is_first = np.insert(tev[first][1:] != tev[first][:-1], 0, True)
    winner = first[is_first]
    state.early_in[tev[winner]] = early[winner]
    state.early_src[tev[winner]] = sev[winner]


def assert_merges_match_reference(cg, state, net_lo, net_hi):
    """A level's planned merge, whole and restricted, equals the reference.

    On copies of ``state``: the level's :class:`MergePlan` restricted to all
    its nets, to every other one and to the rest, installed and run, writes
    the reference's values into those nets' events, plane by plane, and
    nothing anywhere else; its events are the nets' existing events.
    """
    nets = np.arange(net_lo, net_hi, dtype=np.int64)
    theirs = state.clone()
    lexsort_merge_level(cg, theirs, net_lo, net_hi)
    for active in (nets, nets[::2], nets[1::2]):
        ours = state.clone()
        plan = MergePlan(cg, nets, ours.exists).restrict(active)
        plan.install(ours)
        events = merge_level(plan, ours)
        inside = np.zeros(ours.exists.size, dtype=bool)
        inside[_interleave(active)] = True
        for name, mine, reference, before in zip(
                [f.name for f in dataclasses.fields(SweepState)],
                ours.planes(), theirs.planes(), state.planes()):
            assert mine[inside].tobytes() == reference[inside].tobytes(), (
                f"plane {name} diverged")
            assert mine[~inside].tobytes() == before[~inside].tobytes(), (
                f"plane {name} written outside the nets")
        assert np.array_equal(events, np.flatnonzero(inside & theirs.exists))


class TestMergeElection:
    def test_one_fanin_installs_match_the_lexsort_election(self, engine, lines):
        # Level 1: x merges both roots (both events), y only p (one event).
        # Level 2 mixes one-fanin targets (u on x, w on y) with two-fanin
        # ones (v on x + y, z on q + y).
        short = lines[0]
        graph = TimingGraph(
            [GraphNet("p", 75.0, short, fanout=("x", "y")),
             GraphNet("q", 50.0, short, fanout=("x", "z")),
             GraphNet("x", 100.0, short, fanout=("u", "v")),
             GraphNet("y", 100.0, short, fanout=("v", "w", "z")),
             *(GraphNet(name, 75.0, short, receiver_size=25.0)
               for name in ("u", "v", "w", "z"))],
            {"p": PrimaryInput(slew=ps(80), transition="rise"),
             "q": PrimaryInput(slew=ps(120), transition="fall")})
        cg = engine.compile(graph)
        state = engine.analyze_compiled(graph, compiled_graph=cg).state
        net_lo, net_hi = int(cg.level_ptr[2]), int(cg.level_ptr[3])
        fanins = np.diff(cg.fi_indptr[net_lo:net_hi + 1])
        assert sorted(fanins.tolist()) == [1, 1, 2, 2]
        events_of = {name: int(np.count_nonzero(
            state.exists[cg.index[name] * 2:cg.index[name] * 2 + 2]))
            for name in ("x", "y")}
        assert events_of == {"x": 2, "y": 1}
        level = slice(net_lo * 2, net_hi * 2)
        state.exists[level] = False  # the level as the sweep meets it
        for plane in (state.in_arr, state.early_in, state.in_slew):
            plane[level] = 0.0
        state.src[level] = state.early_src[level] = -1
        assert_merges_match_reference(cg, state, net_lo, net_hi)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_levels_with_ties_match_the_lexsort_election(self, seed):
        rng = np.random.default_rng(seed)
        n_sources, n_targets = 12, 40
        fanins = [rng.choice(n_sources, size=rng.choice([1, 1, 1, 2, 3]),
                           replace=False) for _ in range(n_targets)]
        fi_indptr = np.zeros(n_sources + n_targets + 1, dtype=np.int64)
        fi_indptr[n_sources + 1:] = np.cumsum([f.size for f in fanins])
        cg = SimpleNamespace(
            fi_indptr=fi_indptr, fi_indices=np.concatenate(fanins),
            name_rank=rng.permutation(n_sources + n_targets))
        state = SweepState.empty(2 * (n_sources + n_targets))
        sources = slice(0, 2 * n_sources)
        state.exists[sources] = rng.random(2 * n_sources) < 0.7
        # Small value pools: arrival and slew ties reach the ordinal.
        state.out_arr[sources] = rng.choice([ps(100), ps(120)], 2 * n_sources)
        state.early_out[sources] = rng.choice([ps(90), ps(95)], 2 * n_sources)
        state.prop_slew[sources] = rng.choice([ps(40), ps(60)], 2 * n_sources)
        assert_merges_match_reference(cg, state, n_sources,
                                      n_sources + n_targets)


# --- the full sweep's kernels before its index work was planned -------------------
def per_sweep_seed_primary_inputs(cg, graph, state, nets=None):
    """Reference seeding: one Python step per primary input."""
    assert nets is None
    for name, primary in graph.primary_inputs.items():
        event = cg.index[name] * 2 + TRANSITIONS.index(primary.transition)
        state.exists[event] = True
        state.in_arr[event] = primary.arrival
        state.early_in[event] = primary.arrival
        state.in_slew[event] = primary.slew


def per_sweep_merge_level(cg, state, net_lo, net_hi):
    """Reference merge: every index array rebuilt from the CSR on each call.

    Lone-fanin targets install their one candidate; the rest go through
    the two-plane lexsort election with an explicit ordinal key.
    """
    nets = np.arange(net_lo, net_hi, dtype=np.int64)
    counts = cg.fi_indptr[nets + 1] - cg.fi_indptr[nets]
    lone = nets[counts == 1]
    if lone.size:
        sev = _interleave(cg.fi_indices[cg.fi_indptr[lone]])
        keep = state.exists[sev]
        _install(state, (_interleave(lone) ^ 1)[keep], sev[keep])
    contested = nets[counts > 1]
    if contested.size:
        source_net, counts = _csr_rows(cg.fi_indptr, cg.fi_indices, contested)
        sev = _interleave(source_net)
        tev = _interleave(np.repeat(contested, counts)) ^ 1
        keep = state.exists[sev]
        sev, tev = sev[keep], tev[keep]
        if sev.size:
            ordinal = cg.name_rank[sev >> 1] * 2 + (sev & 1)
            slew = state.prop_slew[sev]
            late = np.lexsort((ordinal, slew, state.out_arr[sev], tev))
            grouped = tev[late]
            last = np.append(grouped[1:] != grouped[:-1], True)
            _install(state, grouped[last], sev[late[last]], early=False)
            first = np.lexsort((ordinal, slew, state.early_out[sev], tev))
            grouped = tev[first]
            head = np.insert(grouped[1:] != grouped[:-1], 0, True)
            _install(state, grouped[head], sev[first[head]], late=False)
    return np.flatnonzero(state.exists[net_lo * 2:net_hi * 2]) + net_lo * 2


def per_sweep_level_solve_keys(cg, state, events):
    """Reference dedupe: one stable lexsort over every event of the level."""
    slews = state.in_slew[events]
    group = cg.config_id[events >> 1] * 2 + (events & 1)
    order = np.lexsort((slews, group))
    group_sorted, slews_sorted = group[order], slews[order]
    run_start = np.empty(events.size, dtype=bool)
    run_start[0] = True
    np.not_equal(group_sorted[1:], group_sorted[:-1], out=run_start[1:])
    run_start[1:] |= slews_sorted[1:] != slews_sorted[:-1]
    first = order[run_start]
    inverse = np.empty(events.size, dtype=np.int64)
    inverse[order] = np.cumsum(run_start) - 1
    unique = np.empty((first.size, 3), dtype=np.float64)
    unique[:, 0] = group[first] >> 1
    unique[:, 1] = group[first] & 1
    unique[:, 2] = slews[first]
    return unique, inverse


def per_sweep_backward_required(cg, state, setup_seeds, hold_seeds):
    """Reference backward pass: consumers, delays and seeds gathered per level."""
    required = np.full(2 * cg.n_nets, np.nan)
    hold_required = np.full(2 * cg.n_nets, np.nan)
    polarities = [(plane, seeds, ufunc, identity) for plane, seeds, ufunc, identity in (
        (required, setup_seeds, np.minimum, np.inf),
        (hold_required, hold_seeds, np.maximum, -np.inf)) if seeds is not None]
    for level in range(cg.n_levels - 1, -1, -1):
        net_lo, net_hi = int(cg.level_ptr[level]), int(cg.level_ptr[level + 1])
        events = np.flatnonzero(state.exists[net_lo * 2:net_hi * 2]) + net_lo * 2
        if not events.size:
            continue
        consumer, counts = _csr_rows(cg.fo_indptr, cg.fo_indices, events >> 1)
        consumer = consumer * 2 + np.repeat(1 - (events & 1), counts)
        delay = state.delay[consumer]
        inner = counts > 0
        starts = np.cumsum(counts[inner]) - counts[inner]
        for plane, seeds, ufunc, identity in polarities:
            seed = seeds[events]
            plane[events[~inner]] = seed[~inner]
            if not starts.size:
                continue
            upstream = plane[consumer] - delay
            upstream[np.isnan(upstream)] = identity
            value = ufunc(np.where(np.isnan(seed[inner]), identity, seed[inner]),
                          ufunc.reduceat(upstream, starts))
            value[np.isinf(value)] = np.nan
            plane[events[inner]] = value
    return required, hold_required


def per_sweep_analysis(engine, graph, cg):
    """A full sweep of ``cg`` by the reference kernels, on from-scratch planes.

    Nothing of what the compiled graph keeps for its sweeps is read — no
    plan, no cached seeds, no reused buffer — but its solution table: every
    sweep of a graph solves through that one table, so ``sol_idx`` compares
    bit for bit like every other plane.
    """
    state = SweepState.empty(2 * cg.n_nets)
    table = cg.solution_table(engine.options, engine.solver)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batch, "level_solve_keys", per_sweep_level_solve_keys)
        per_sweep_seed_primary_inputs(cg, graph, state)
        for level in range(cg.n_levels):
            events = per_sweep_merge_level(cg, state, int(cg.level_ptr[level]),
                                           int(cg.level_ptr[level + 1]))
            if events.size:
                engine._solve_compiled_level(cg, table, state, events)
    required, hold_required = per_sweep_backward_required(cg, state, *(
        constraint_seeds(cg, graph, mode) if constrained else None
        for mode, constrained in (("setup", graph.setup_constrained),
                                  ("hold", graph.hold_constrained))))
    return SimpleNamespace(state=state, required=required,
                           hold_required=hold_required, solutions=table.solutions)


def current_plan(cg, graph):
    """The :class:`SweepPlan` a sweep of ``graph``'s current stimuli runs."""
    return cg.sweep_plan(input_seeds(cg, graph)[0])


def plane_bytes(analysis):
    """Every plane of ``analysis``, as bytes (a frozen capture)."""
    captured = {f.name: getattr(analysis.state, f.name).tobytes()
                for f in dataclasses.fields(SweepState)}
    captured["required"] = analysis.required.tobytes()
    captured["hold_required"] = analysis.hold_required.tobytes()
    return captured


def content_planes(analysis):
    """:func:`plane_bytes`, with ``sol_idx`` as the fingerprints it points at.

    A solution table numbers its rows in the order its snapshot solved
    them, so analyses of different snapshots compare solutions by content.
    """
    captured = plane_bytes(analysis)
    captured["sol_idx"] = [analysis.solutions[row].fingerprint if row >= 0 else None
                           for row in analysis.state.sol_idx.tolist()]
    return captured


def flip_root(graph, root):
    primary = graph.primary_inputs[root]
    graph.set_input(root, dataclasses.replace(
        primary, transition="rise" if primary.transition == "fall" else "fall"))


def assert_sweeps_identical(ours, reference):
    """Every plane of two full sweeps of one snapshot, ``sol_idx`` too, bit for bit."""
    for name, mine, theirs in zip([f.name for f in dataclasses.fields(SweepState)],
                                  ours.state.planes(), reference.state.planes()):
        assert mine.tobytes() == theirs.tobytes(), f"plane {name} diverged"
    assert ours.required.tobytes() == reference.required.tobytes()
    assert ours.hold_required.tobytes() == reference.hold_required.tobytes()
    assert ours.solutions is reference.solutions  # the snapshot's one table


def mixed_inputs_graph(lines) -> TimingGraph:
    """A random DAG whose roots carry distinct slews, arrivals and both edges."""
    rng = random.Random(61)
    graph = random_dag(rng, lines, n_nets=18, n_roots=4)
    for i, name in enumerate(sorted(graph.primary_inputs)):
        graph.set_input(name, PrimaryInput(
            slew=ps(45 + 17 * i), arrival=ps(3 * i),
            transition="rise" if i % 2 else "fall"))
    assert {p.transition for p in graph.primary_inputs.values()} == {"rise", "fall"}
    constrain_randomly(rng, graph)
    return graph


def planned_sweep_design(name, lines) -> TimingGraph:
    if name.startswith("soc"):  # soc10k's wide levels take the coded dedupe
        graph = soc_graph(int(name[3:-1]) * 1000)
        graph.set_clock_period(ps(1500), hold_margin=0.0)
        return graph
    if name == "mixed_inputs":
        return mixed_inputs_graph(lines)
    return dict(golden_designs())[name]()


class TestPlannedSweep:
    """The planned full sweep equals the per-sweep kernels it replaced, bit for bit."""

    @pytest.mark.parametrize("constrained", ["setup", "hold", "both"])
    @pytest.mark.parametrize("design", [
        "soc1k", "soc10k", "random5", "random29", "random41", "random53", "diamond@clock",
        "race@clock", "tree@clock", "mixed_inputs"])
    def test_every_plane_matches_the_per_sweep_kernels(
            self, engine, lines, design, constrained):
        graph = planned_sweep_design(design, lines)
        for mode in ("setup", "hold"):
            if constrained not in (mode, "both"):
                drop_constraints(graph, mode)
        assert graph.setup_constrained == (constrained != "hold")
        assert graph.hold_constrained == (constrained != "setup")
        cg = engine.compile(graph)
        cold = engine.analyze_compiled(graph, compiled_graph=cg)
        plan = current_plan(cg, graph)
        warm = engine.analyze_compiled(graph, compiled_graph=cg)
        assert current_plan(cg, graph) is plan
        reference = per_sweep_analysis(engine, graph, cg)
        assert_sweeps_identical(cold, reference)
        assert_sweeps_identical(warm, reference)

    def test_retime_after_a_resize_reuses_the_patched_plan(self, solver):
        graph = planned_sweep_design("soc10k", None)
        session = shared_session(solver)
        cg = session.time(graph).analysis.graph
        plan = current_plan(cg, graph)
        graph.resize_driver("k3c2s1", 125.0)
        graph.resize_driver("k5m1", 75.0)
        analysis = session.time(graph).analysis
        assert analysis.graph is cg and current_plan(cg, graph) is plan
        assert_sweeps_identical(analysis,
                                per_sweep_analysis(session._engine, graph, cg))

    def test_consecutive_retimes_write_one_buffer_in_place(self, solver):
        # Each report is dropped before the next re-time, so every sweep
        # after the first writes the same planes again, with no fill; the
        # resizes between them move arrivals and delays everywhere downstream.
        graph = planned_sweep_design("soc10k", None)
        session = shared_session(solver)
        buffer = weakref.ref(session.time(graph).analysis.state)
        for site in ("k3c2s1", "k5m1", "k3c2s1", "k5m1"):
            graph.resize_driver(site, 125.0 if graph.nets[site].driver_size != 125.0
                                else 100.0)
            analysis = session.time(graph).analysis
            assert analysis.state is buffer()
            assert_sweeps_identical(analysis, per_sweep_analysis(
                session._engine, graph, analysis.graph))
            del analysis

    def test_root_transition_flip_rebuilds_the_plan(self, solver):
        graph = planned_sweep_design("soc10k", None)
        session = shared_session(solver)
        before = session.time(graph).analysis
        cg = before.graph
        plan = current_plan(cg, graph)
        exists = before.state.exists.copy()
        del before
        root = sorted(graph.primary_inputs)[3]
        flip_root(graph, root)
        analysis = session.time(graph).analysis
        assert not np.array_equal(analysis.state.exists, exists)
        flipped = current_plan(cg, graph)
        assert flipped is not plan
        assert_sweeps_identical(analysis,
                                per_sweep_analysis(session._engine, graph, cg))
        del analysis
        flip_root(graph, root)  # back: a third plan, same events as the first
        analysis = session.time(graph).analysis
        assert current_plan(cg, graph) not in (plan, flipped)
        assert np.array_equal(analysis.state.exists, exists)
        assert_sweeps_identical(analysis,
                                per_sweep_analysis(session._engine, graph, cg))

    def test_an_endpoint_flip_rebuilds_the_constraint_seeds(self, solver):
        # No constraint edit: the receiver makes k2c4s2 an endpoint, so the
        # clock period now seeds it, and the patch replaces the endpoint mask.
        graph = planned_sweep_design("soc10k", None)
        session = shared_session(solver)
        assert not graph.nets["k2c4s2"].is_endpoint
        session.time(graph)
        graph.set_receiver("k2c4s2", 50.0)
        analysis = session.time(graph).analysis
        assert analysis.is_endpoint[analysis.graph.index["k2c4s2"]]
        assert_sweeps_identical(analysis, per_sweep_analysis(
            session._engine, graph, analysis.graph))

    @pytest.mark.parametrize("dropped", ["setup", "hold"])
    def test_an_unconstrained_polarity_resets_its_reused_plane(
            self, solver, dropped):
        graph = planned_sweep_design("soc10k", None)
        session = shared_session(solver)
        constrained = session.time(graph).analysis
        assert constrained.constrained("setup") and constrained.constrained("hold")
        buffer = weakref.ref(constrained.state)
        del constrained
        drop_constraints(graph, dropped)
        analysis = session.time(graph).analysis
        assert analysis.state is buffer()
        plane = analysis.required if dropped == "setup" else analysis.hold_required
        assert np.isnan(plane).all()
        assert not analysis.constrained(dropped)
        assert_sweeps_identical(analysis, per_sweep_analysis(
            session._engine, graph, analysis.graph))

    def test_held_reports_keep_their_planes(self, solver, level_step):
        graph = planned_sweep_design("soc10k", None)
        session = shared_session(solver)
        session.update(graph)
        timed = session.time(graph)
        graph.resize_driver("k3c2s1", 125.0)
        updated = session.update(graph)
        captured = plane_bytes(timed.analysis), plane_bytes(updated.analysis)
        for site, size in (("k5m1", 75.0), ("k3c2s1", 100.0)):
            graph.resize_driver(site, size)
            retimed = session.time(graph).analysis
            assert retimed.state is not timed.analysis.state
            assert_sweeps_identical(retimed, per_sweep_analysis(
                session._engine, graph, retimed.graph))
            del retimed
        assert (plane_bytes(timed.analysis),
                plane_bytes(updated.analysis)) == captured


    def test_updates_and_retimes_match_in_every_plane(self, solver, level_step):
        # An update and a full re-time of the same state solve through the
        # snapshot's one solution table: sol_idx is bitwise equal as well.
        graph = planned_sweep_design("soc1k", None)
        session = shared_session(solver)
        session.update(graph)
        for site, size in (("k3c2s1", 125.0), ("k5m1", 75.0), ("k3c2s1", 100.0)):
            graph.resize_driver(site, size)
            updated = session.update(graph).analysis
            assert updated.incremental.retimed_nets < len(graph)
            retimed = session.time(graph).analysis
            assert retimed.solutions is updated.solutions
            assert plane_bytes(updated) == plane_bytes(retimed)
            del updated, retimed


class TestInputCachesAfterRollback:
    """A rolled-back stimulus or constraint edit leaves no seeds for a later one.

    The compiled graph's cached seeds are keyed on the graph's stimulus and
    constraint versions.  A rollback keeps the compiled graph (constraints
    and inputs are not part of :attr:`TimingGraph.version`), so a version
    that went back to, or stayed at, a value whose seeds describe an undone
    state would hand those seeds to the next sweep.
    """

    EDITS = {
        "clock": (lambda graph: graph.set_clock_period(ps(900), hold_margin=ps(5)),
                  lambda graph: graph.set_clock_period(ps(1100), hold_margin=ps(2))),
        "input": (lambda graph: flip_root(graph, sorted(graph.primary_inputs)[3]),
                  lambda graph: flip_root(graph, sorted(graph.primary_inputs)[5])),
    }

    @pytest.mark.parametrize("then", ["nothing", "different_edit"])
    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_engine_sweeps_of_one_snapshot(self, engine, solver, edit, then):
        rolled_back, different = self.EDITS[edit]
        graph = planned_sweep_design("soc1k", None)
        cg = engine.compile(graph)
        engine.analyze_compiled(graph, compiled_graph=cg)
        with pytest.raises(RuntimeError):
            with graph.transaction():
                rolled_back(graph)
                engine.analyze_compiled(graph, compiled_graph=cg)
                raise RuntimeError("reject the block")
        assert cg.version == graph.version  # the snapshot stays current
        if then == "different_edit":
            different(graph)
        ours = engine.analyze_compiled(graph, compiled_graph=cg)
        fresh = shared_session(solver).time(graph).analysis
        assert content_planes(ours) == content_planes(fresh)

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_session_retimes(self, solver, edit):
        rolled_back, different = self.EDITS[edit]
        graph = planned_sweep_design("soc1k", None)
        session = shared_session(solver)
        session.time(graph)
        with pytest.raises(RuntimeError):
            with graph.transaction():
                rolled_back(graph)
                session.time(graph)
                raise RuntimeError("reject the block")
        different(graph)
        assert (content_planes(session.time(graph).analysis)
                == content_planes(shared_session(solver).time(graph).analysis))


class TestSweepPlanReuse:
    """Host-independent counters of the work a warm full sweep pays.

    Counts :class:`SweepPlan` builds (every level's resolved merge plan and
    the backward plan), plane-buffer allocations (:meth:`SweepPlan.allocate`)
    and the builds of both seed kinds (the primary-input arrays, and the
    constraint seeds of each constrained polarity): a warm re-time whose
    previous report was dropped builds and allocates nothing, a held report
    makes the next re-time allocate, a root transition flip rebuilds the
    plan, a constraint edit the constraint seeds, and only a topology edit
    (a recompile) builds everything again.  The stages solved are kept per
    snapshot too, one table per solver setting.
    """

    def test_warm_retimes_rebuild_nothing(self, solver, monkeypatch):
        graph = soc_graph(10_000)
        graph.set_clock_period(ps(1500), hold_margin=0.0)
        session = shared_session(solver)
        counts = {"plan": 0, "buffer": 0, "inputs": 0, "constraints": 0}

        def counting(key, function):
            def counted(*args):
                counts[key] += 1
                return function(*args)
            return counted

        monkeypatch.setattr(SweepPlan, "__init__",
                            counting("plan", SweepPlan.__init__))
        monkeypatch.setattr(SweepPlan, "allocate",
                            counting("buffer", SweepPlan.allocate))
        monkeypatch.setattr(compiled, "_primary_input_arrays",
                            counting("inputs", compiled._primary_input_arrays))
        monkeypatch.setattr(compiled, "constraint_seeds",
                            counting("constraints", compiled.constraint_seeds))

        def counted_after(step):
            before = dict(counts)
            step()
            return {key: counts[key] - before[key] for key in counts}

        def retimes(count):
            for _ in range(count):
                session.time(graph)

        assert counted_after(lambda: retimes(10)) == {
            "plan": 1, "buffer": 1, "inputs": 1, "constraints": 2}
        held = [session.time(graph)]  # reuses the dropped report's buffer
        assert counted_after(lambda: held.extend(
            session.time(graph) for _ in range(3))) == {
            "plan": 0, "buffer": 3, "inputs": 0, "constraints": 0}
        del held
        root = sorted(graph.primary_inputs)[3]
        assert counted_after(lambda: (flip_root(graph, root), retimes(3))) == {
            "plan": 1, "buffer": 1, "inputs": 1, "constraints": 0}
        assert counted_after(lambda: (
            graph.set_clock_period(ps(1400), hold_margin=0.0), retimes(3))) == {
            "plan": 0, "buffer": 0, "inputs": 0, "constraints": 2}
        assert counted_after(lambda: (
            graph.resize_driver("k7c3s2", 125.0), retimes(3))) == {
            "plan": 0, "buffer": 0, "inputs": 0, "constraints": 0}
        assert counted_after(lambda: (  # a new endpoint: new endpoint mask
            graph.set_receiver("k2c4s2", 50.0), retimes(3))) == {
            "plan": 0, "buffer": 0, "inputs": 0, "constraints": 2}
        # A topology edit recompiles: a new snapshot builds everything once.
        assert counted_after(lambda: (
            graph.add_fanout("k2m1", "k9c4s5"), retimes(3))) == {
            "plan": 1, "buffer": 1, "inputs": 1, "constraints": 2}
        cg = session.time(graph).analysis.graph
        plan_bytes = current_plan(cg, graph).nbytes
        assert 0 < plan_bytes <= 64 * cg.n_nets
        assert cg.nbytes >= plan_bytes


    def test_engines_with_other_slew_thresholds_keep_their_own_rows(
            self, library, solver):
        # A solution depends on the solver's slew thresholds: two engines
        # sharing one snapshot each solve and index their own rows, under
        # their own fingerprints, as if each had compiled the graph itself.
        graph = soc_graph(1000)
        graph.set_clock_period(ps(1500), hold_margin=0.0)
        engines = [GraphEngine(library=library, solver=solver),
                   GraphEngine(library=library, solver=StageSolver(
                       slew_low=0.2, slew_high=0.8))]
        cg = engines[0].compile(graph)
        for engine in engines:
            shared = engine.analyze_compiled(graph, compiled_graph=cg)
            state = shared.state
            for event in shared.event_ids().tolist():
                config = int(cg.config_id[event >> 1])
                assert shared.solutions[state.sol_idx[event]].fingerprint == (
                    engine.solver.fingerprint_for(
                        cg.config_cell[config], float(state.in_slew[event]),
                        cg.config_line[config], float(cg.config_load[config]),
                        event_options(engine.options, TRANSITIONS[event & 1])))
            fresh = engine.analyze_compiled(
                graph, compiled_graph=engine.compile(graph))
            assert content_planes(shared) == content_planes(fresh)
        assert len(cg.solution_tables) == 2


class TestCompiledEquivalence:
    @pytest.mark.parametrize("seed", [3, 14, 23])
    def test_random_dags_match_object_engine(self, engine, lines, seed):
        rng = random.Random(seed)
        graph = random_dag(rng, lines, n_nets=rng.choice([12, 16, 20]))
        constrain_randomly(rng, graph)
        assert_equivalent(engine, graph)

    @pytest.mark.parametrize("mode", ["setup", "hold", "both"])
    def test_every_mode_matches(self, engine, lines, mode):
        # ``mode`` names the polarities left constrained: both engines
        # compute exactly those and leave the other required plane empty.
        rng = random.Random(101)
        graph = random_dag(rng, lines, n_nets=14)
        constrain_randomly(rng, graph)
        if mode != "both":
            drop_constraints(graph, "hold" if mode == "setup" else "setup")
        analysis = assert_equivalent(engine, graph)
        assert analysis.constrained("setup") == (mode != "hold")
        assert analysis.constrained("hold") == (mode != "setup")

    def test_declaration_order_independence(self, engine, lines):
        """Shuffling net declaration order changes nothing (tie-break parity)."""
        rng = random.Random(53)
        graph = random_dag(rng, lines, n_nets=18)
        graph.set_clock_period(ps(700), hold_margin=0.0)
        baseline = assert_equivalent(engine, graph)
        shuffled_nets = list(graph.nets.values())
        rng.shuffle(shuffled_nets)
        shuffled = TimingGraph(shuffled_nets, dict(graph.primary_inputs))
        shuffled.set_clock_period(ps(700), hold_margin=0.0)
        analysis = assert_equivalent(engine, shuffled)
        for name in graph.nets:
            assert baseline.events_of(name) == analysis.events_of(name)

    def test_soc_graph_shape_and_equivalence(self, engine):
        graph = soc_graph(125)
        assert len(graph) == 125
        graph.set_clock_period(ps(1500), hold_margin=0.0)
        analysis = assert_equivalent(engine, graph)
        assert analysis.worst_endpoint_slack("setup") is not None
        assert analysis.worst_endpoint_slack("hold") is not None

    def test_stale_compiled_graph_is_rejected(self, engine, lines):
        graph = soc_graph(125)
        compiled = engine.compile(graph)
        engine.analyze_compiled(graph, compiled_graph=compiled)  # fine while fresh
        graph.resize_driver("k0c0s3", 125.0)  # structural edit bumps version
        with pytest.raises(ModelingError):
            engine.analyze_compiled(graph, compiled_graph=compiled)

    def test_constraints_do_not_stale_the_compiled_graph(self, engine):
        graph = soc_graph(125)
        compiled = engine.compile(graph)
        graph.set_clock_period(ps(900))  # constraints are read live
        analysis = engine.analyze_compiled(graph, compiled_graph=compiled)
        assert analysis.constrained("setup")


class TestStreamingReport:
    @pytest.fixture(scope="class")
    def reports(self, solver, engine):
        session = shared_session(solver)
        graph = soc_graph(125)
        graph.set_clock_period(ps(1500), hold_margin=0.0)
        streaming = session.time(graph, name="soc")
        plain = TimingReport.from_graph_report(engine.analyze(graph), design="soc")
        return streaming, plain

    def test_routing_types(self, reports):
        streaming, plain = reports
        assert isinstance(streaming, StreamingTimingReport)
        assert isinstance(plain, TimingReport)
        assert not isinstance(plain, StreamingTimingReport)

    def test_queries_match_plain_report(self, reports):
        streaming, plain = reports
        assert streaming.n_events == plain.n_events
        assert streaming.constrained and streaming.hold_constrained
        assert streaming.wns == plain.wns
        assert streaming.whs == plain.whs
        assert streaming.worst_slack == plain.worst_slack
        assert streaming.worst_hold_slack == plain.worst_hold_slack
        assert streaming.event_keys() == plain.event_keys()
        assert streaming.endpoint_keys() == plain.endpoint_keys()
        assert streaming.critical_path == plain.critical_path
        assert streaming.worst_event() == plain.worst_event()
        for mode in ("setup", "hold"):
            assert (streaming.endpoint_slacks(mode=mode)
                    == plain.endpoint_slacks(mode=mode))
            assert (streaming.format_slack_table(mode=mode)
                    == plain.format_slack_table(mode=mode))
        name = plain.critical_path[-1][0]
        assert streaming.slack(name) == plain.slack(name)
        assert streaming.arrival(name) == plain.arrival(name)
        assert streaming.early_arrival(name) == plain.early_arrival(name)

    def test_serialization_matches_plain_report(self, reports):
        streaming, plain = reports
        eager, full = streaming.to_dict(), plain.to_dict()
        eager.pop("meta"), full.pop("meta")
        assert eager == full
        # A saved streaming report loads back as a plain (eager) report.
        loaded = TimingReport.from_json(streaming.to_json())
        assert loaded.event_keys() == plain.event_keys()
        assert loaded.wns == plain.wns

    def test_compile_metadata(self, reports):
        streaming, _ = reports
        assert streaming.meta.compile_seconds is not None
        assert streaming.meta.peak_rss_bytes is None or (
            streaming.meta.peak_rss_bytes > 0)

    def test_diff_streaming_vs_plain(self, reports):
        streaming, plain = reports
        diff = compare_reports(plain, streaming)
        assert not diff.regressed
        assert not diff.changed_endpoints and not diff.changed_hold_endpoints
        assert diff.added_events == diff.removed_events == 0


class TestSessionRouting:
    def test_every_design_routes_compiled(self, solver, lines):
        session = shared_session(solver)
        graph = random_dag(random.Random(7), lines, n_nets=6)
        builder = DesignBuilder("b").chain("c", sizes=(75, 100), line=lines[0],
                                           input_slew=ps(100), receiver_size=50)
        path = TimingPath("p", [TimingStage("s", 75, lines[0], receiver_size=50)],
                          input_slew=ps(100))
        for design, kind in ((graph, "graph"), (builder, "graph"), (path, "path")):
            report = session.time(design)
            assert isinstance(report, StreamingTimingReport)
            assert report.kind == kind
            # Each unique stage solution equals the scalar solve_stage of
            # its stage (the naive baseline's per-event step) to 1e-9.
            analysis = report.analysis
            cg, state = analysis.graph, analysis.state
            seen = set()
            for event in np.flatnonzero(state.exists).tolist():
                solution = analysis.solutions[state.sol_idx[event]]
                if solution.fingerprint in seen:
                    continue
                seen.add(solution.fingerprint)
                config = int(cg.config_id[event >> 1])
                oracle = solve_stage(
                    cg.config_cell[config], float(state.in_slew[event]),
                    cg.config_line[config], float(cg.config_load[config]),
                    options=event_options(session._engine.options,
                                          TRANSITIONS[event & 1]))
                assert_matches_scalar_oracle(solution, oracle)
            assert seen

    def test_compiled_cache_tracks_graph_version(self, solver):
        session = shared_session(solver)
        graph = soc_graph(125)
        graph.set_clock_period(ps(1500))
        first = session.time(graph)
        assert first.meta.compile_seconds > 0.0  # fresh compile
        second = session.time(graph)
        assert second.meta.compile_seconds == 0.0  # cache hit
        graph.set_clock_period(ps(900))
        third = session.time(graph)  # constraint edits keep the cache warm
        assert third.meta.compile_seconds == 0.0
        assert third.worst_slack < first.worst_slack  # new constraints apply
        graph.resize_driver("k0c0s3", 125.0)
        fourth = session.time(graph)  # parameter edit patches in place
        assert fourth.meta.compile_seconds == 0.0
        assert fourth.meta.patched_nets == 2  # the net and its fanin driver
        arrivals = lambda report: {t: e.output_arrival  # noqa: E731
                                   for t, e in report.events["k0c0s4"].items()}
        assert arrivals(fourth) != arrivals(third)  # the resize took effect
        graph.add_fanout("k0c0s3", "k0e0")
        fifth = session.time(graph)  # topology edit forces a recompile
        assert fifth.meta.compile_seconds > 0.0
        assert not fifth.meta.patched_nets


class TestIncrementalReportReuse:
    """Small designs update on the compiled engine and reuse event records."""

    def test_warm_update_rebuilds_only_the_cone(self, solver, engine, lines):
        rng = random.Random(82)
        graph = random_dag(rng, lines, n_nets=20)
        graph.set_clock_period(ps(900))
        session = shared_session(solver)
        first = session.update(graph)
        assert first.meta.report_events_rebuilt is None  # full build
        first_events = {name: first.events[name] for name in first.events}
        target = sorted(graph.nets)[10]
        graph.resize_driver(target, 125.0)
        second = session.update(graph)
        rebuilt = second.meta.report_events_rebuilt
        assert rebuilt is not None and 0 < rebuilt < second.n_events
        # Untouched nets share their event records with the previous report.
        changed = session._incremental.last_changed_nets
        assert changed and target in changed
        for name in second.events:
            if name not in changed:
                assert second.events[name] is first_events[name]
        # And the reused report is still exactly the reference sweep.
        full = TimingReport.from_graph_report(engine.analyze(graph), design="graph")
        warm_payload, full_payload = second.to_dict(), full.to_dict()
        warm_payload.pop("meta"), full_payload.pop("meta")
        assert warm_payload == full_payload

    def test_constraint_only_update_reuses_events(self, solver, engine, lines):
        rng = random.Random(13)
        graph = random_dag(rng, lines, n_nets=16)
        graph.set_clock_period(ps(900))
        session = shared_session(solver)
        first = session.update(graph)
        graph.set_clock_period(ps(800))
        second = session.update(graph)
        assert second.meta.computed == 0  # required times only: no solves
        full = TimingReport.from_graph_report(engine.analyze(graph), design="graph")
        warm_payload, full_payload = second.to_dict(), full.to_dict()
        warm_payload.pop("meta"), full_payload.pop("meta")
        assert warm_payload == full_payload
        assert first.meta.report_events_rebuilt is None
