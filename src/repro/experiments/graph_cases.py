"""Deterministic graph-shaped test cases for the STA subsystem.

The paper's evaluation stops at single driver/line stages; these builders
synthesize the graph-scale workloads a production timing tool faces — sizes the
single-path engine could never touch — while staying inside the shipped cell
library (25X-125X) and the paper's parasitic regime:

* :func:`parallel_chains` — many independent repeatered routes (a bus): the
  levelized batch sweet spot, with heavy stage-configuration repetition,
* :func:`fanout_tree` — a buffered distribution tree (clock-tree shaped),
* :func:`reconvergent_graph` — a diamond whose branch parities differ, so the
  reconvergence sink legitimately sees both rising and falling events,
* :func:`race_graph` — two same-parity branches of different speed into one
  sink: the minimal min-delay (hold/race) workload, where the sink's early and
  late arrival planes split apart, and
* :func:`benchmark_graph` — the ≥1k-net mixed workload the throughput benchmark
  times (parallel chains cycling through a handful of line flavors), and
* :func:`soc_graph` — the SoC-shaped scale workload: replicated 125-net
  clusters mixing distribution trees, repeatered chains and pairwise
  reconvergence with a realistic fanout distribution, parameterized by target
  net count (the 10k/100k tiers ``BENCH_scale`` times through the compiled
  struct-of-arrays path).

Construction is O(nets + edges): chains are emitted through one shared
:func:`_chain_nets` helper (name lists built once, next-stage links by index),
:func:`soc_graph` stamps out copies of one prebuilt cluster, and
:class:`~repro.sta.graph.TimingGraph` validates in a single pass.  Every
builder runs with the cyclic garbage collector paused (the nets it creates
are all kept, so the collector's passes could free nothing), and pays one
collection at the end if its allocations passed the young threshold.  A
100k-net ``soc_graph`` builds in ~0.35-0.45 s on a 2-CPU container (the
spread is the shared host's load).

Everything is deterministic (no randomness), so two builds of the same case are
identical and stage-solution memo keys repeat across runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ModelingError
from ..interconnect.rlc_line import RLCLine
from ..sta.graph import GraphNet, PrimaryInput, TimingGraph, _collector_paused
from ..sta.stage import TimingPath, TimingStage
from ..units import mm, nH, pF, ps

__all__ = ["standard_lines", "global_route_path", "parallel_chains",
           "fanout_tree", "reconvergent_graph", "race_graph",
           "benchmark_graph", "soc_graph", "case_graph", "BUILTIN_CASES"]

#: The named built-in designs shared by ``python -m repro time --case`` and
#: the serve daemon's attach-by-case path (:func:`case_graph`).
BUILTIN_CASES: Tuple[str, ...] = ("chain3", "diamond", "race", "tree", "bench",
                                  "soc")

#: Driver sizes shipped with the repository's cell library.
LIBRARY_SIZES: Tuple[float, ...] = (25.0, 50.0, 75.0, 100.0, 125.0)


def standard_lines() -> List[RLCLine]:
    """Four line flavors spanning the paper's regime (1-5 mm global wires)."""
    return [
        RLCLine(resistance=20.0, inductance=nH(1.05), capacitance=pF(0.22),
                length=mm(1)),
        RLCLine(resistance=38.0, inductance=nH(2.1), capacitance=pF(0.42),
                length=mm(2)),
        RLCLine(resistance=56.3, inductance=nH(3.2), capacitance=pF(0.597),
                length=mm(3)),
        RLCLine(resistance=72.44, inductance=nH(5.14), capacitance=pF(1.10),
                length=mm(5)),
    ]


def global_route_path(*, input_slew: float = ps(100.0)) -> TimingPath:
    """The repository's canonical 3-stage repeatered global route.

    75X -> 100X -> 75X inverters separated by 3/5/3 mm wires with the paper's
    printed parasitics, terminated by a 50X receiver.  This is the single case
    shared by ``examples/timing_path_sta.py``, the STA path benchmark and the
    CLI's ``time --case chain3``, so the three never diverge.
    """
    net1 = RLCLine(resistance=56.3, inductance=nH(3.2), capacitance=pF(0.597),
                   length=mm(3))
    net2 = RLCLine(resistance=72.44, inductance=nH(5.14), capacitance=pF(1.10),
                   length=mm(5))
    net3 = RLCLine(resistance=43.5, inductance=nH(3.1), capacitance=pF(0.66),
                   length=mm(3))
    return TimingPath(
        name="global_route",
        stages=[
            TimingStage("stage1", driver_size=75, line=net1, receiver_size=100),
            TimingStage("stage2", driver_size=100, line=net2, receiver_size=75),
            TimingStage("stage3", driver_size=75, line=net3, receiver_size=50),
        ],
        input_slew=input_slew,
    )


def _chain_nets(names: Sequence[str], *, lines: Sequence[RLCLine],
                sizes: Sequence[float],
                tail_fanout: Tuple[str, ...] = (),
                tail_receiver: Optional[float] = None) -> List[GraphNet]:
    """One repeatered chain as a net list, O(len(names)).

    Stage ``s`` is named ``names[s]``, drives ``names[s + 1]`` (links are by
    index — no name lookups), uses driver size ``sizes[s % len(sizes)]`` and
    line flavor ``lines[s % len(lines)]``.  The last stage drives
    ``tail_fanout`` (edges into other nets) and/or carries ``tail_receiver``
    as a terminal load.  Shared by every chain-shaped generator so the bus
    benchmark and the SoC clusters emit identical chain structure.
    """
    last = len(names) - 1
    return [GraphNet(
        name=name,
        driver_size=sizes[s % len(sizes)],
        line=lines[s % len(lines)],
        fanout=tail_fanout if s == last else (names[s + 1],),
        receiver_size=tail_receiver if s == last else None)
        for s, name in enumerate(names)]


@_collector_paused()
def parallel_chains(n_chains: int, chain_length: int, *,
                    lines: Sequence[RLCLine] = (),
                    sizes: Sequence[float] = (75.0, 100.0),
                    terminal_size: float = 50.0,
                    input_slew: float = ps(100.0)) -> TimingGraph:
    """``n_chains`` independent repeatered routes of ``chain_length`` stages each.

    Chain ``c`` uses line flavor ``lines[c % len(lines)]`` for every stage and
    driver sizes cycling through ``sizes`` along the chain, so the number of
    *unique* stage configurations is ``len(lines) * chain_length`` regardless of
    ``n_chains`` — exactly the repetition profile that makes memoized solving pay.
    """
    if n_chains < 1 or chain_length < 1:
        raise ModelingError("need at least one chain with at least one stage")
    lines = list(lines) if lines else standard_lines()
    nets: List[GraphNet] = []
    inputs: Dict[str, PrimaryInput] = {}
    for c in range(n_chains):
        names = [f"c{c}s{s}" for s in range(chain_length)]
        nets.extend(_chain_nets(names, lines=(lines[c % len(lines)],),
                                sizes=sizes, tail_receiver=terminal_size))
        inputs[names[0]] = PrimaryInput(slew=input_slew)
    return TimingGraph(nets, inputs)


@_collector_paused()
def fanout_tree(depth: int, fanout: int = 2, *,
                line: RLCLine = None,
                sizes: Sequence[float] = (125.0, 100.0, 75.0, 50.0, 25.0),
                leaf_size: float = 25.0,
                input_slew: float = ps(80.0)) -> TimingGraph:
    """A buffered distribution tree: one root, ``fanout`` branches per level.

    Level ``d`` uses driver size ``sizes[min(d, len(sizes) - 1)]`` (tapering down
    the tree the way clock buffers do).  The tree has
    ``(fanout**(depth+1) - 1) / (fanout - 1)`` nets.
    """
    if depth < 0:
        raise ModelingError("tree depth must be non-negative")
    if fanout < 1:
        raise ModelingError("tree fanout must be at least 1")
    line = line if line is not None else standard_lines()[1]
    nets: List[GraphNet] = []

    def build(name: str, level: int) -> None:
        size = sizes[min(level, len(sizes) - 1)]
        if level == depth:
            nets.append(GraphNet(name=name, driver_size=size, line=line,
                                 receiver_size=leaf_size))
            return
        children = tuple(f"{name}.{i}" for i in range(fanout))
        nets.append(GraphNet(name=name, driver_size=size, line=line,
                             fanout=children))
        for child in children:
            build(child, level + 1)

    build("t", 0)
    return TimingGraph(nets, {"t": PrimaryInput(slew=input_slew)})


@_collector_paused()
def reconvergent_graph(*, line: RLCLine = None,
                       input_slew: float = ps(100.0)) -> TimingGraph:
    """A diamond whose branches have different inverter parity.

    The short branch reaches the sink through one stage, the long branch through
    two, so the sink's driver input sees a rising event from one side and a
    falling event from the other — the mixed rise/fall arrival case a per-node
    merge has to handle.
    """
    line = line if line is not None else standard_lines()[2]
    nets = [
        GraphNet("root", 100.0, line, fanout=("short", "long_a")),
        GraphNet("short", 75.0, line, fanout=("sink",)),
        GraphNet("long_a", 75.0, line, fanout=("long_b",)),
        GraphNet("long_b", 75.0, line, fanout=("sink",)),
        GraphNet("sink", 50.0, line, receiver_size=25.0),
    ]
    return TimingGraph(nets, {"root": PrimaryInput(slew=input_slew)})


@_collector_paused()
def race_graph(*, line: RLCLine = None,
               input_slew: float = ps(100.0)) -> TimingGraph:
    """Two same-parity branches of different speed reconverging on one sink.

    Both branches are one stage long, so the sink's driver input sees two
    events of the *same* edge direction: the late (setup) plane keeps the slow
    25X branch, the early (hold) plane the fast 125X one.  This is the minimal
    min-delay workload — the gap between the sink's early and late arrivals is
    exactly the branch-delay mismatch a race check has to catch, so a hold
    margin between the two arrival planes produces a violation on the fast
    branch while setup stays clean.
    """
    line = line if line is not None else standard_lines()[0]
    nets = [
        GraphNet("root", 100.0, line, fanout=("fast", "slow")),
        GraphNet("fast", 125.0, line, fanout=("sink",)),
        GraphNet("slow", 25.0, line, fanout=("sink",)),
        GraphNet("sink", 50.0, line, receiver_size=25.0),
    ]
    return TimingGraph(nets, {"root": PrimaryInput(slew=input_slew)})


def benchmark_graph(n_nets: int = 1024, *, chain_length: int = 16,
                    input_slew: float = ps(100.0)) -> TimingGraph:
    """The throughput-benchmark workload: ≥ ``n_nets`` nets of repeated routes.

    Parallel chains over the four standard line flavors, sized so the graph holds
    at least ``n_nets`` nets; unique stage configurations stay at
    ``4 * chain_length``, so both cache layers and level batching have work to do.
    """
    if n_nets < 1:
        raise ModelingError("need at least one net")
    n_chains = -(-n_nets // chain_length)  # ceil division
    return parallel_chains(n_chains, chain_length, input_slew=input_slew)


def _soc_cluster(lines: Sequence[RLCLine]) -> List[GraphNet]:
    """The 125-net cluster :func:`soc_graph` replicates, rooted at net ``t``."""
    tree_line = lines[1]
    mids = tuple(f"m{i}" for i in range(4))
    nets = [GraphNet("t", 125.0, tree_line, fanout=mids)]
    leaves: List[str] = []
    for i, mid in enumerate(mids):
        branch = tuple(f"l{4 * i + b}" for b in range(4))
        nets.append(GraphNet(mid, 100.0, tree_line, fanout=branch))
        leaves.extend(branch)
    for j, leaf in enumerate(leaves):
        chain = [f"c{j}s{s}" for s in range(6)]
        nets.append(GraphNet(leaf, 75.0, lines[j % 4], fanout=(chain[0],)))
        nets.extend(_chain_nets(
            chain,
            lines=[lines[(j + s) % 4] for s in range(6)],
            sizes=(100.0, 75.0),
            tail_fanout=(f"e{j // 2}",)))
    for m in range(8):
        # Short lines only: a 50X driver cannot swing the 3mm/5mm flavors.
        nets.append(GraphNet(f"e{m}", 50.0, lines[m % 2], receiver_size=25.0))
    return nets


@_collector_paused()
def soc_graph(n_nets: int = 100_000, *,
              input_slew: float = ps(100.0)) -> TimingGraph:
    """An SoC-shaped scale workload of at least ``n_nets`` nets.

    The graph replicates a deterministic 125-net cluster until the target net
    count is reached (``ceil(n_nets / 125)`` clusters), each mixing the
    structures real designs are made of:

    * a buffered **distribution tree** — one 125X root (the cluster's primary
      input) fans out to four 100X intermediates, each fanning out to four 75X
      leaves (fanout 4, depth 2),
    * sixteen 6-stage **repeatered chains** (100X/75X alternating, line flavor
      rotating per stage) hanging off the leaves, and
    * pairwise **reconvergence**: chain tails merge two-by-two into eight 50X
      receiver-terminated endpoint nets, so merge nets legitimately elect
      worst/best arrivals from competing fanins in both planes.

    The fanout distribution is realistic for synthesized logic — mostly
    fanout-1 with a fanout-4 spine and ~6% endpoints — and the cluster repeats
    *exactly*, so unique stage configurations stay bounded (~34) at any size:
    a 100k-net build performs the same few dozen stage solves as a 1k-net one,
    which is what lets ``BENCH_scale`` measure graph bookkeeping instead of
    timing math.  Since ``125 | 1000``, round targets (1k/10k/100k) are met
    exactly.
    """
    if n_nets < 1:
        raise ModelingError("need at least one net")
    n_clusters = -(-n_nets // 125)  # ceil division
    template = [(net.name, net.driver_size, net.line, net.fanout,
                 net.receiver_size, net.extra_load)
                for net in _soc_cluster(standard_lines())]
    nets: List[GraphNet] = []
    append = nets.append
    for k in range(n_clusters):
        # Cluster k is the template with every net and fanout name prefixed.
        prefix = f"k{k}"
        add = prefix.__add__
        for name, size, line, fanout, receiver, extra in template:
            append(GraphNet(add(name), size, line, tuple(map(add, fanout)),
                            receiver, extra))
    root_input = PrimaryInput(slew=input_slew)
    return TimingGraph(nets, {f"k{k}t": root_input for k in range(n_clusters)})


def case_graph(case: str, *, input_slew: float = ps(100.0), depth: int = 3,
               nets: int = 128) -> TimingGraph:
    """The named built-in design as a :class:`TimingGraph` (one shared table).

    This is the case registry behind the CLI's ``time --case`` *and* the serve
    daemon's ``POST /designs`` attach-by-case path, so the two front doors can
    never drift apart.  ``depth`` parameterizes ``tree``; ``nets`` sizes
    ``bench`` and ``soc``.  ``chain3`` is materialized as the chain-shaped
    graph of :func:`global_route_path` (needed because attached designs are
    edited and re-timed in place, which is a graph-only contract).
    """
    from ..sta.graph import chain_graph

    if case == "chain3":
        graph, _ = chain_graph(global_route_path(input_slew=input_slew))
        return graph
    if case == "diamond":
        return reconvergent_graph(input_slew=input_slew)
    if case == "race":
        return race_graph(input_slew=input_slew)
    if case == "tree":
        return fanout_tree(depth, input_slew=input_slew)
    if case == "bench":
        return benchmark_graph(nets, input_slew=input_slew)
    if case == "soc":
        return soc_graph(nets, input_slew=input_slew)
    raise ModelingError(
        f"unknown case {case!r}; built-in cases: {', '.join(BUILTIN_CASES)}")
