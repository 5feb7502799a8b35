"""Benchmark: incremental re-timing cost vs dirty-region size.

The claim the incremental kernel has to earn: after a local edit,
``TimingSession.update()`` must cost proportionally to the *dirty cone* of the
edit, not to the graph — and stay bit-identical to a full re-analysis of the
same state.  On the ≥1k-net benchmark graph a single-net edit touches a
two-net cone (the edited net plus the fanin whose load changed), so the update
must stay under a fixed per-edit ceiling (``UPDATE_CEILING_SECONDS``); its
speedup over ``session.time(graph)`` is recorded next to it.  The tail,
mid-chain and chain-root rows sweep cones of 2, 9 and 16 nets
(``retimed_nets``); this graph's 64-event levels are small enough that
``update()`` runs each level it visits whole, and its required-time pass
refreshes every level up to the deepest changed one (``setup_cone_nets``).

Protocol (everything runs inside one session, sharing one memoized solver):

1. attach the graph (full analysis; its solves warm the memo),
2. per edit site, *warm* both toggle states — the stage solves an edit
   introduces are paid identically by the full and the incremental path, so
   warming isolates the quantity this benchmark tracks: the re-timing
   machinery's cost as a function of cone size,
3. per repetition: toggle the driver size, measure a full re-analysis, measure
   the incremental update of the same state, and assert the two reports carry
   bit-identical events.

After the late-only protocol, a *dual-mode* phase turns on the hold plane
(``set_clock_period(..., hold_margin=...)``) and tracks the second polarity's
cost model: a dual-mode full analysis must issue exactly the solver traffic of
the late-only one (the ``dual_mode_extra_solves`` counter, asserted zero — the
acceptance criterion of the min/max refactor), and a single-net dual-mode edit
reports its hold cone (the backward region whose hold requirements were
refreshed) alongside the setup cone.

A final *compiled* phase takes the same claim to the scale tier, in a fresh
subprocess: on the 100k-net SoC graph (``update()`` runs
:class:`~repro.sta.incremental_compiled.CompiledIncrementalEngine` at every
size) it drives ``COMPILED_EDIT_CYCLES`` sequential
``resize_driver`` + ``update()`` cycles and gates five facts — parameter
edits never recompile (``compile_seconds`` sums to exactly zero across every
cycle), the cone stays a vanishing fraction of the graph, no update falls back
to cloning its planes (``full_plane_copies``, the ``SweepState.clone`` calls
of the loop, is zero: every update sweeps the engine's spare plane buffer),
the mean per-edit update stays under ``COMPILED_UPDATE_CEILING_SECONDS``, and
the same edit sites cost about the same on the ``SCALING_NETS`` graph as on
the 100k one (median per-edit ratio at most ``SCALING_RATIO_CEILING``: the
update is O(cone), not O(graph)).  It then checks the final incremental
state against a from-scratch compiled analysis plane by plane, exactly
(``sol_idx`` included: both index the compiled graph's one solution table).

Results land in the run's report directory (``benchmarks/reports`` under
``REPRO_BENCH_WRITE=1``, see ``conftest.py``) as ``incremental.txt`` and
``BENCH_incremental.json``.  The JSON is split into a
``tracked`` section (machine-independent: graph shape, cone sizes, the
update ceilings, the dual-mode counters — compared against
the committed file by CI) and a ``machine`` section (wall times and measured
speedups, which vary run to run).
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.api import TimingSession
from repro.experiments import benchmark_graph
from repro.units import ps

SRC_DIRECTORY = Path(__file__).resolve().parents[1] / "src"

#: Ceiling on a single-net-edit update of the 1k-net graph [s]: the object
#: engine's measured update (4.8 ms on a 2-CPU container) before every design
#: moved to the compiled engine.  It replaced a ">= 5x over a full re-time"
#: floor: the compiled full re-time of the 1k graph fell from ~150 ms to
#: ~3 ms, so the ratio no longer has 5x of room; the ratio is still recorded
#: under ``machine``.
UPDATE_CEILING_SECONDS = 0.005

#: The compiled phase's workload size and edit-loop length.
COMPILED_NETS = 100_000
COMPILED_EDIT_CYCLES = 200

#: Ceiling on the mean compiled incremental update at 100k nets [s].  A
#: 2-CPU container measures ~2.2 ms per update now that the cone's kernels
#: make few array calls per level (~3 ms with one required-time kernel call
#: per level, O(graph) level scans and an all-lexsort merge), against ~7.5 ms
#: while every update cloned its O(graph) planes (and ~9 ms for those clones
#: without perfbench's pinned malloc), so this ceiling fails on a regression
#: to the clone path.
COMPILED_UPDATE_CEILING_SECONDS = 0.006

#: The smaller graph of the scaling check, and the ceiling on the ratio of
#: the median per-edit update at ``COMPILED_NETS`` to the one at this size.
#: The edit sites sit in clusters below 80, which both graphs contain, so the
#: cones are the same; an O(cone) update costs about the same at both sizes
#: (measured ~1.1 with the two sizes timed in turn), while cloning the
#: planes made the 100k update ~2.9x the 10k one.
SCALING_NETS = 10_000
SCALING_RATIO_CEILING = 1.5

#: Runs in a fresh interpreter (the scale-tier pattern: a hermetic process,
#: exactly how CI runs it).  Times the same edit loop on every graph size in
#: ``sizes``, one edit per size in turn, so both sizes see the same machine
#: load; prints one JSON object per size on stdout, keyed by net count.
_COMPILED_SUBPROCESS_SCRIPT = """
import json, time
import numpy as np
from repro.api import TimingSession
from repro.experiments import soc_graph
from repro.sta.compiled import SweepState
from repro.units import ps

clones = [0]
clone = SweepState.clone


def counting_clone(state):
    clones[0] += 1
    return clone(state)


SweepState.clone = counting_clone
sizes, cycles = {sizes}, {cycles}
# Edit sites in distinct clusters, each toggling its chain-stage driver; the
# SoC template repeats the same stage configurations everywhere, so one warm
# lap per site memoizes every stage solve both toggle states can request.
# Every cluster is below 80, so every graph size has the same sites.
sites = ["k0c0s2", "k40c3s2", "k19c7s2", "k79c11s2"]
loops = {{}}
for nets in sizes:
    graph = soc_graph(nets)
    graph.set_clock_period(ps(1500), hold_margin=0.0)
    session = TimingSession()
    attach = session.update(graph)
    assert attach.meta.compile_seconds > 0.0  # the one and only compile
    assert attach.meta.retimed_nets == nets
    originals = {{net: graph.nets[net].driver_size for net in sites}}
    # Toggle upward: chain stages prove 75X/125X on every line flavor, while
    # a 50X driver cannot swing the long interconnect flavors at all.
    toggles = {{net: 125.0 if originals[net] != 125.0 else 75.0
               for net in sites}}
    for net in sites:  # warm both toggle states of every site
        for size in (toggles[net], originals[net]):
            graph.resize_driver(net, size)
            session.update(graph)
    laps = []
    for _ in range(3):  # warm full compiled re-sweep: the baseline
        started = time.perf_counter()
        session.time(graph)
        laps.append(time.perf_counter() - started)
    loops[nets] = dict(graph=graph, session=session, originals=originals,
                       toggles=toggles, full_seconds=min(laps), per_edit=[],
                       compile_seconds=0.0, clones=0)
for cycle in range(cycles):
    net = sites[cycle % len(sites)]
    for nets in sizes:
        loop = loops[nets]
        graph = loop["graph"]
        states = (loop["toggles"] if (cycle // len(sites)) % 2 == 0
                  else loop["originals"])
        graph.resize_driver(net, states[net])
        before = clones[0]
        started = time.perf_counter()
        loop["report"] = loop["session"].update(graph)
        loop["per_edit"].append(time.perf_counter() - started)
        loop["clones"] += clones[0] - before
        loop["compile_seconds"] += loop["report"].meta.compile_seconds
planes = ("exists", "in_arr", "early_in", "in_slew", "src", "early_src",
          "out_arr", "early_out", "delay", "prop_slew", "sol_idx")
results = {{}}
for nets in sizes:
    loop = loops[nets]
    report, graph = loop["report"], loop["graph"]
    meta = report.meta
    last = report.analysis
    scratch = loop["session"].time(graph).analysis  # same engine: bit-identity
    equivalence_exact = bool(
        all(np.array_equal(getattr(last.state, p), getattr(scratch.state, p))
            for p in planes)
        and np.array_equal(last.required, scratch.required, equal_nan=True)
        and np.array_equal(last.hold_required, scratch.hold_required,
                           equal_nan=True))
    results[nets] = {{
        "nets": len(graph),
        "edit_cycles": cycles,
        "patch_compile_seconds": loop["compile_seconds"],
        "patched_nets": meta.patched_nets,
        "dirty_nets": meta.dirty_nets,
        "retimed_nets": meta.retimed_nets,
        "required_nets": meta.required_nets,
        "report_events_rebuilt": meta.report_events_rebuilt,
        "equivalence_exact": equivalence_exact,
        "full_seconds": loop["full_seconds"],
        "incremental_seconds": float(np.mean(loop["per_edit"])),
        "median_edit_seconds": float(np.median(loop["per_edit"])),
        "full_plane_copies": loop["clones"],
    }}
print(json.dumps(results))
"""

#: Edit sites on the 64x16-chain benchmark graph, shallowest cone first.
#: (label, net, toggle size) — the net's driver toggles between its original
#: size and the toggle size, so after one warm-up lap every stage solve of
#: both states is memoized.
EDIT_SITES = [
    ("tail_net", "c0s15", 50.0),     # chain tail: cone = net + loaded fanin
    ("mid_chain", "c0s8", 50.0),     # mid chain: a 9-net cone
    ("chain_root", "c0s0", 50.0),    # chain head: a 16-net cone
]


def assert_events_identical(incremental, full):
    for name, per_net in full.events.items():
        ours = incremental.events[name]
        for transition, event in per_net.items():
            other = ours[transition]
            assert other.output_arrival == event.output_arrival
            assert other.input_slew == event.input_slew
            assert other.required == event.required
            assert other.source == event.source
            assert other.early_arrival == event.early_arrival
            assert other.early_source == event.early_source
            assert other.hold_required == event.hold_required


def test_incremental_retime_vs_full_reanalysis(library, report_writer):
    graph = benchmark_graph(1024)
    assert len(graph) >= 1000
    graph.set_clock_period(ps(2500))  # met everywhere: slack is maintained too
    reps = 3

    rows = []
    with TimingSession() as session:
        attach = session.update(graph, name="bench")
        assert attach.meta.retimed_nets == len(graph)

        for label, net, toggle in EDIT_SITES:
            original = graph.nets[net].driver_size
            # Warm both toggle states: the edit-induced stage solves happen
            # once here, so the measured laps compare re-timing machinery only.
            for size in (toggle, original):
                graph.resize_driver(net, size)
                session.update(graph)

            full_seconds, incr_seconds = [], []
            dirty = retimed = rebuilt = 0
            for rep in range(reps):
                size = toggle if rep % 2 == 0 else original
                graph.resize_driver(net, size)
                started = time.perf_counter()
                full = session.time(graph, name="full")
                full_seconds.append(time.perf_counter() - started)
                started = time.perf_counter()
                incremental = session.update(graph, name="incremental")
                incr_seconds.append(time.perf_counter() - started)
                assert_events_identical(incremental, full)
                dirty = incremental.meta.dirty_nets
                retimed = incremental.meta.retimed_nets
                rebuilt = incremental.meta.report_events_rebuilt
                # Report reuse: a warm update re-flattens only the edit's
                # forward cone plus the upstream events whose required times
                # moved — for a chain edit that is (at most) one 16-net chain,
                # never the 1024-net graph.
                assert rebuilt is not None
                assert rebuilt <= 2 * 16
                assert rebuilt < incremental.n_events // 8
            # Leave the graph in its original state for the next edit site.
            if graph.nets[net].driver_size != original:
                graph.resize_driver(net, original)
                session.update(graph)
            full_avg = statistics.mean(full_seconds)
            incr_avg = statistics.mean(incr_seconds)
            rows.append({
                "label": label, "net": net, "dirty_nets": dirty,
                "retimed_nets": retimed,
                "report_events_rebuilt": rebuilt,
                "full_seconds": round(full_avg, 5),
                "incremental_seconds": round(incr_avg, 5),
                "speedup": round(full_avg / incr_avg, 2),
            })

        # --- dual-mode phase: turn on the hold plane, count the cost ---------
        # A dual-mode full analysis must issue exactly the late-only solver
        # traffic: delay/slew solves are mode-independent, only the merges and
        # the backward pass differ.  Both runs below are fully warm, so equal
        # request counts mean equal solves (and equal memo traffic).
        late_full = session.time(graph, name="late_only")
        graph.set_clock_period(ps(2500), hold_margin=ps(100))
        dual_full = session.time(graph, name="dual")
        extra_solves = dual_full.meta.requests - late_full.meta.requests
        assert extra_solves == 0, \
            "dual-mode analysis issued additional stage solves"
        assert dual_full.meta.computed == late_full.meta.computed
        assert dual_full.whs is not None  # the hold plane is really on

        session.update(graph)  # absorb the constraint flip (arithmetic only)
        label, net, toggle = EDIT_SITES[0]
        graph.resize_driver(net, toggle)
        started = time.perf_counter()
        dual_incr = session.update(graph, name="dual_incremental")
        dual_incr_seconds = time.perf_counter() - started
        assert_events_identical(dual_incr, session.time(graph, name="full"))
        hold_edit = {
            "label": label, "net": net,
            "dirty_nets": dual_incr.meta.dirty_nets,
            "retimed_nets": dual_incr.meta.retimed_nets,
            "setup_cone_nets": dual_incr.meta.required_nets,
            "hold_cone_nets": dual_incr.meta.hold_required_nets,
        }

    # --- compiled phase: the scale tier, in a hermetic subprocess ------------
    # At 100k nets the CSR incremental engine must still patch parameter edits
    # into the compiled arrays in place (never recompile) and re-time only the
    # dirty cone, at the cost of the cone: the same edits on a 10k-net graph
    # cost about the same.
    script = _COMPILED_SUBPROCESS_SCRIPT.format(
        sizes=(SCALING_NETS, COMPILED_NETS), cycles=COMPILED_EDIT_CYCLES)
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC_DIRECTORY) + os.pathsep + env.get(
        "PYTHONPATH", "")
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, env=env,
                            timeout=600)
    assert result.returncode == 0, result.stderr
    loops = json.loads(result.stdout.strip().splitlines()[-1])
    scaling, compiled = loops[str(SCALING_NETS)], loops[str(COMPILED_NETS)]
    compiled_speedup = round(
        compiled["full_seconds"] / compiled["incremental_seconds"], 2)
    scaling_ratio = round(compiled["median_edit_seconds"]
                          / scaling["median_edit_seconds"], 3)

    assert scaling["nets"] == SCALING_NETS
    assert scaling["equivalence_exact"]
    assert scaling["full_plane_copies"] == 0
    assert compiled["nets"] == COMPILED_NETS
    # Parameter edits must never recompile: exactly zero compile seconds
    # across all edit cycles (patching bumps no clock).
    assert compiled["patch_compile_seconds"] == 0.0
    # The cone stays vanishing: a chain-stage resize re-times its cluster's
    # downstream slice, never a meaningful fraction of the graph.
    assert 0 < compiled["retimed_nets"] < COMPILED_NETS // 100
    assert 0 < compiled["report_events_rebuilt"] < COMPILED_NETS // 50
    # The incremental planes are the full re-sweep's planes, exactly.
    assert compiled["equivalence_exact"]
    # Every warm update sweeps the spare plane buffer; none clones.
    assert compiled["full_plane_copies"] == 0

    single = rows[0]
    payload = {
        "benchmark": "incremental",
        "tracked": {
            "nets": len(graph),
            "levels": graph.n_levels,
            "events": attach.n_events,
            "clock_ps": 2500,
            "update_ceiling_seconds": UPDATE_CEILING_SECONDS,
            "edits": [{"label": row["label"], "net": row["net"],
                       "dirty_nets": row["dirty_nets"],
                       "retimed_nets": row["retimed_nets"],
                       "report_events_rebuilt": row["report_events_rebuilt"]}
                      for row in rows],
            "hold": {
                "hold_margin_ps": 100,
                "dual_mode_extra_solves": extra_solves,
                "single_edit": hold_edit,
            },
            "compiled": {
                "nets": compiled["nets"],
                "edit_cycles": compiled["edit_cycles"],
                "update_ceiling_seconds": COMPILED_UPDATE_CEILING_SECONDS,
                "scaling_nets": SCALING_NETS,
                "scaling_ratio_ceiling": SCALING_RATIO_CEILING,
                "full_plane_copies": compiled["full_plane_copies"],
                "patch_compile_seconds": compiled["patch_compile_seconds"],
                "patched_nets": compiled["patched_nets"],
                "dirty_nets": compiled["dirty_nets"],
                "retimed_nets": compiled["retimed_nets"],
                "required_nets": compiled["required_nets"],
                "report_events_rebuilt": compiled["report_events_rebuilt"],
                "equivalence_exact": compiled["equivalence_exact"],
            },
        },
        "machine": {
            "repetitions": reps,
            "edits": [{"label": row["label"],
                       "full_seconds": row["full_seconds"],
                       "incremental_seconds": row["incremental_seconds"],
                       "speedup": row["speedup"]} for row in rows],
            "single_net_edit_speedup": single["speedup"],
            "dual_incremental_seconds": round(dual_incr_seconds, 5),
            "compiled": {
                "full_seconds": round(compiled["full_seconds"], 5),
                "incremental_seconds": round(
                    compiled["incremental_seconds"], 5),
                "speedup": compiled_speedup,
                "median_edit_seconds": round(
                    compiled["median_edit_seconds"], 5),
                "scaling_median_edit_seconds": round(
                    scaling["median_edit_seconds"], 5),
                "scaling_ratio": scaling_ratio,
            },
        },
    }
    json_path = report_writer.json("BENCH_incremental.json", payload)

    lines = [
        "incremental re-time vs full re-analysis (warm caches, bit-identical)",
        f"  {graph.describe()}",
        f"  {'edit site':12s} {'cone':>5s}  {'full':>9s}  {'incremental':>11s}"
        f"  {'speedup':>8s}",
    ]
    lines.extend(
        f"  {row['label']:12s} {row['retimed_nets']:5d}  "
        f"{row['full_seconds'] * 1e3:7.1f} ms  "
        f"{row['incremental_seconds'] * 1e3:9.1f} ms  {row['speedup']:7.1f}x"
        for row in rows)
    lines.append(f"  dual-mode (hold margin 100 ps): +{extra_solves} stage "
                 f"solves over late-only; single-net edit cone "
                 f"{hold_edit['retimed_nets']} fwd / "
                 f"{hold_edit['hold_cone_nets']} hold "
                 f"({dual_incr_seconds * 1e3:.1f} ms)")
    lines.append(
        f"  compiled tier ({compiled['nets']} nets, "
        f"{compiled['edit_cycles']} resize+update cycles): "
        f"cone {compiled['retimed_nets']} nets, "
        f"{compiled['full_seconds'] * 1e3:.0f} ms full vs "
        f"{compiled['incremental_seconds'] * 1e3:.1f} ms/edit "
        f"({compiled_speedup:.1f}x, 0.0 s recompiled, "
        f"{compiled['full_plane_copies']} plane clones, exact)")
    lines.append(
        f"  O(cone) scaling: median edit "
        f"{scaling['median_edit_seconds'] * 1e3:.2f} ms at "
        f"{SCALING_NETS} nets vs "
        f"{compiled['median_edit_seconds'] * 1e3:.2f} ms at "
        f"{COMPILED_NETS} nets ({scaling_ratio:.2f}x)")
    lines.append(f"  machine-readable     : {json_path.name}")
    report_writer("incremental", "\n".join(lines))

    # The acceptance bar: a single-net edit (a 2-of-1024-net cone) stays under
    # a fixed per-edit ceiling.
    assert single["incremental_seconds"] <= UPDATE_CEILING_SECONDS
    # And at the scale tier: patched parameter edits stay under a fixed
    # per-update ceiling, with exact plane equivalence...
    assert compiled["incremental_seconds"] <= COMPILED_UPDATE_CEILING_SECONDS
    # ...and cost what their cone costs, not what the graph costs.
    assert scaling_ratio <= SCALING_RATIO_CEILING

