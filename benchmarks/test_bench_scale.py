"""Benchmark: the 100k-net scale tier of the compiled struct-of-arrays engine.

The object engine (``GraphEngine.analyze``) costs ~1 ms of Python bookkeeping
per net, which is fine at 1k nets and hopeless at 100k.  The compiled engine
(:mod:`repro.sta.compiled` + ``GraphEngine.analyze_compiled``) freezes a
:class:`~repro.sta.graph.TimingGraph` into CSR struct-of-arrays form once and
then times whole levels as numpy sweeps, so a warm re-analysis is O(levels)
vectorized passes over contiguous planes.  This benchmark is the tier's
acceptance gate, in three phases (one shared session, one memoized solver):

1. **1k equivalence** — the compiled engine must agree with the object engine
   on every event field to within 1e-9 relative (in practice the agreement is
   exact; the unit suite asserts bit-equality, this gate keeps the benchmark
   self-contained).
2. **10k warm speedup** — with every stage solve memoized (the synthetic SoC
   reuses the same 32 stage configurations at every size), a compiled warm
   re-analysis must beat the object engine by >= ``SPEEDUP_FLOOR_10K``.
3. **100k cold, fresh subprocess** — build + compile + analyze 100k nets in a
   child interpreter (peak RSS is a process-lifetime high-water mark, so the
   memory gate needs a process that has never held a bigger allocation).
   Gates: warm throughput >= ``NETS_PER_SECOND_FLOOR`` nets/s, cold compile
   throughput >= ``COMPILE_NETS_PER_SECOND_FLOOR`` nets/s, design build
   throughput >= ``BUILD_NETS_PER_SECOND_FLOOR`` nets/s (best of
   ``BUILD_LAPS`` fresh interpreters), and peak-RSS growth over the
   post-import baseline <= ``BYTES_PER_NET_CEILING`` per net (and above zero:
   :func:`repro.perf.peak_rss_bytes` reads the child's own ``VmHWM``, so a
   measurement that inherited the parent's peak cannot pass).  The build's
   garbage collections, by generation, are tracked as
   ``build_collections_100k``: the build pauses the cyclic collector, so it
   runs at most one (a generation-1 pass as it ends).
4. **1M nets, ``REPRO_FULL=1`` only** — the same build, cold and warm
   re-times plus a resize + ``update()`` loop on ``soc_graph(1_000_000)`` in
   a fresh interpreter, recorded in ``machine`` (shape, build nets/s and
   collections, bytes per net, cold / warm / update seconds).  Ungated: it
   takes about a minute and ~1.2 GB, so tier-1 skips it.

Results land in the run's report directory (``benchmarks/reports`` under
``REPRO_BENCH_WRITE=1``, see ``conftest.py``) as ``scale.txt`` and
``BENCH_scale.json``.  The JSON ``tracked`` section pins
the machine-independent facts (graph shape, solve dedup, the gate constants;
``compile_fraction`` is tracked-but-volatile: CI requires its presence, not
its value) and ``machine`` holds the wall times.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.api import StreamingTimingReport, TimingReport, TimingSession
from repro.experiments import soc_graph
from repro.sta import GraphEngine
from repro.units import ps

SRC_DIRECTORY = Path(__file__).resolve().parents[1] / "src"

#: The scale tier's headline size, and the sizes of the cheaper phases.
NETS_FULL = 100_000
NETS_WARM = 10_000
NETS_EQUIV = 1_000

#: Relative tolerance of the compiled-vs-object equivalence gate.
EQUIVALENCE_RTOL = 1e-9

#: Required warm-analysis speedup of the compiled engine over the object
#: engine at 10k nets (measured ~65x on the reference machine).
SPEEDUP_FLOOR_10K = 10.0

#: Required warm compiled throughput at 100k nets (measured ~700k nets/s).
NETS_PER_SECOND_FLOOR = 50_000

#: Required throughput of the one cold compile at 100k nets (measured ~280k
#: nets/s on a 2-CPU container; the per-element loops it replaced managed
#: ~113k nets/s there, so the floor fails against them).
COMPILE_NETS_PER_SECOND_FLOOR = 150_000

#: Required throughput of the 100k design build (``soc_graph`` + clock) in a
#: fresh interpreter, best of ``BUILD_LAPS``.  The floor was set when the
#: build still ran two full collections (and hundreds of young ones) on a
#: 2-CPU container whose speed drifts by ~1.5x with its neighbours' load:
#: that build measured ~113k-197k nets/s there.  The build now pauses the
#: collector and runs at most one generation-1 pass; ``tests/test_sta_graph.py``
#: gates that deterministically through ``gc.callbacks``, and
#: ``build_collections_100k`` tracks it here.
BUILD_NETS_PER_SECOND_FLOOR = 90_000

#: Fresh interpreters the build gate takes the best of: the full lap below,
#: plus ``BUILD_LAPS - 1`` that only build.
BUILD_LAPS = 5

#: Allowed peak-RSS growth per net while building + compiling + analyzing the
#: 100k graph (measured ~1.1 kB/net; the ceiling leaves ~1.8x headroom for
#: allocator and platform variance).
BYTES_PER_NET_CEILING = 2048

#: The ``REPRO_FULL=1`` point, and the resize + update cycles timed there.
NETS_MILLION = 1_000_000
MILLION_UPDATES = 6

#: Wall-clock limit of one fresh-interpreter lap [s]: a 100k lap takes well
#: under a minute, the 1M lap about a minute on a quiet host.
LAP_TIMEOUT_S = 600
MILLION_LAP_TIMEOUT_S = 1800

#: Clock constraint applied at every size (met on the critical path, so both
#: planes carry finite slacks).
CLOCK_PS = 1500.0

_EVENT_FIELDS = (
    "output_arrival",
    "input_slew",
    "required",
    "early_arrival",
    "hold_required",
)

#: The timed design build, as a fresh interpreter's first work.  A full
#: collection first empties the young generations, so the collections the
#: build runs (``collections``, by generation) do not depend on what the
#: imports left behind.
_BUILD_SCRIPT = """
import gc, json, time
from repro.api import TimingSession
from repro.experiments import soc_graph
from repro.perf import peak_rss_bytes
from repro.units import ps

collections = [0, 0, 0]

def count_collection(phase, info):
    if phase == "start":
        collections[info["generation"]] += 1

gc.collect()
baseline = peak_rss_bytes()
gc.callbacks.append(count_collection)
started = time.perf_counter()
graph = soc_graph({nets})
graph.set_clock_period(ps({clock_ps}), hold_margin=0.0)
build_seconds = time.perf_counter() - started
gc.callbacks.remove(count_collection)
"""

#: Runs in a fresh interpreter: the 100k build/compile/analyze lap with a
#: clean peak-RSS high-water mark.  Prints one JSON object on stdout.
_SUBPROCESS_SCRIPT = _BUILD_SCRIPT + """
with TimingSession() as session:
    started = time.perf_counter()
    cold = session.time(graph)
    cold_seconds = time.perf_counter() - started
    unique_solves, compile_seconds = cold.meta.computed, cold.meta.compile_seconds
    del cold  # a dropped report frees its planes for the next re-time
    laps = []
    for _ in range(3):  # best-of-3: the throughput gate measures the engine,
        # not transient scheduler noise.  Each lap drops the last report
        # first, as a re-time loop that keeps one report does, so the sweep
        # writes the planes of the dropped one again.
        warm = None
        started = time.perf_counter()
        warm = session.time(graph)
        laps.append(time.perf_counter() - started)
        assert warm.meta.compile_seconds == 0.0  # cache hit: same version
    warm_seconds = min(laps)
    print(json.dumps({{
        "nets": len(graph),
        "levels": graph.n_levels,
        "events": warm.n_events,
        "endpoints": len(warm.endpoint_keys()),
        "unique_solves": unique_solves,
        "build_seconds": build_seconds,
        "build_collections": collections,
        "cold_seconds": cold_seconds,
        "compile_seconds": compile_seconds,
        "warm_seconds": warm_seconds,
        "worst_slack_ps": warm.worst_slack * 1e12,
        "baseline_rss_bytes": baseline,
        "peak_rss_bytes": peak_rss_bytes(),
    }}))
"""

#: ``REPRO_FULL=1`` only: the 1M-net point in a fresh interpreter (~1.2 GB
#: peak, about a minute).  Build, cold and best-of-3 warm re-times, then the
#: ECO loop: attach with ``update()`` and time ``MILLION_UPDATES`` resize +
#: update cycles of one net.  Prints one JSON object on stdout.
_MILLION_SCRIPT = _BUILD_SCRIPT + """
with TimingSession() as session:
    started = time.perf_counter()
    cold = session.time(graph)
    cold_seconds = time.perf_counter() - started
    del cold
    laps = []
    for _ in range(3):
        warm = None
        started = time.perf_counter()
        warm = session.time(graph)
        laps.append(time.perf_counter() - started)
    shape = {{"nets": len(graph), "levels": graph.n_levels,
             "events": warm.n_events,
             "endpoints": len(warm.endpoint_keys())}}
    del warm
    session.update(graph)
    updates = []
    for size in (125.0, 100.0) * {updates}:
        graph.resize_driver("k7c3s2", size)
        started = time.perf_counter()
        session.update(graph)
        updates.append(time.perf_counter() - started)
    print(json.dumps({{
        **shape,
        "build_seconds": build_seconds,
        "build_collections": collections,
        "cold_seconds": cold_seconds,
        "warm_seconds": min(laps),
        "update_seconds": sorted(updates)[len(updates) // 2],
        "baseline_rss_bytes": baseline,
        "peak_rss_bytes": peak_rss_bytes(),
    }}))
"""

def relative_difference(a, b):
    if a is None or b is None:
        assert a is None and b is None
        return 0.0
    scale = max(abs(a), abs(b), 1e-30)
    return abs(a - b) / scale


def run_fresh(script, nets=NETS_FULL, timeout=LAP_TIMEOUT_S):
    """Run ``script`` (formatted for a lap of ``nets`` nets) in a new
    interpreter, allowed ``timeout`` seconds; returns the JSON object on its
    last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIRECTORY) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", script.format(nets=nets, clock_ps=CLOCK_PS,
                                             updates=MILLION_UPDATES // 2)],
        capture_output=True, text=True, env=env, timeout=timeout)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_scale_tier(library, report_writer, full_sweep):
    # --- phase 1: 1k equivalence, compiled vs object ------------------------
    # The session times on the compiled engine; the object reference sweep
    # shares its memoized solver.
    with TimingSession() as session:
        reference = GraphEngine(library=session.library, tech=session.tech,
                                solver=session.solver)
        equiv = soc_graph(NETS_EQUIV)
        equiv.set_clock_period(ps(CLOCK_PS), hold_margin=0.0)
        plain = TimingReport.from_graph_report(reference.analyze(equiv),
                                               design="graph")
        streaming = session.time(equiv)
        assert isinstance(streaming, StreamingTimingReport)
        worst_rel = 0.0
        for name, per_net in plain.events.items():
            for transition, event in per_net.items():
                other = streaming.events[name][transition]
                for field in _EVENT_FIELDS:
                    rel = relative_difference(
                        getattr(event, field), getattr(other, field))
                    worst_rel = max(worst_rel, rel)
        assert worst_rel <= EQUIVALENCE_RTOL, \
            f"compiled engine diverged from object engine: {worst_rel:.3e}"
        assert streaming.n_events == plain.n_events
        assert streaming.critical_path == plain.critical_path

        # --- phase 2: 10k warm speedup --------------------------------------
        # The SoC template repeats the same 32 stage configurations at every
        # size, so after phase 1 the solver memo is fully warm: both laps
        # below measure pure per-net machinery, which is exactly the cost the
        # compiled engine exists to crush.
        warm_graph = soc_graph(NETS_WARM)
        warm_graph.set_clock_period(ps(CLOCK_PS), hold_margin=0.0)
        started = time.perf_counter()
        TimingReport.from_graph_report(reference.analyze(warm_graph),
                                       design="graph")
        object_seconds = time.perf_counter() - started
        first = session.time(warm_graph)  # pays the compile
        started = time.perf_counter()
        session.time(warm_graph)
        compiled_seconds = time.perf_counter() - started
        speedup_10k = object_seconds / compiled_seconds

    # --- phase 3: 100k in a fresh subprocess --------------------------------
    full = run_fresh(_SUBPROCESS_SCRIPT)
    assert full["nets"] == NETS_FULL
    build_only = _BUILD_SCRIPT + 'print(json.dumps({{"build_seconds": build_seconds}}))'
    build_seconds = min([full["build_seconds"]] + [
        run_fresh(build_only)["build_seconds"] for _ in range(BUILD_LAPS - 1)])
    build_nets_per_second = full["nets"] / build_seconds
    nets_per_second = full["nets"] / full["warm_seconds"]
    compile_nets_per_second = full["nets"] / full["compile_seconds"]
    rss_delta = full["peak_rss_bytes"] - full["baseline_rss_bytes"]
    bytes_per_net = rss_delta / full["nets"]
    compile_fraction = full["compile_seconds"] / full["cold_seconds"]

    payload = {
        "benchmark": "scale",
        "tracked": {
            "nets": full["nets"],
            "levels": full["levels"],
            "events": full["events"],
            "endpoints": full["endpoints"],
            "unique_solves": full["unique_solves"],
            "equivalence_rtol": EQUIVALENCE_RTOL,
            "speedup_floor_10k": SPEEDUP_FLOOR_10K,
            "nets_per_second_floor": NETS_PER_SECOND_FLOOR,
            "compile_nets_per_second_floor": COMPILE_NETS_PER_SECOND_FLOOR,
            "build_nets_per_second_floor": BUILD_NETS_PER_SECOND_FLOOR,
            "bytes_per_net_ceiling": BYTES_PER_NET_CEILING,
            # The build pauses the cyclic collector: at most one collection
            # (through generation 1) as it ends, where an unpaused build
            # runs hundreds (scripts/compare_bench_reports.py requires it).
            "build_collections_100k": dict(zip(
                ("gen0", "gen1", "gen2"), full["build_collections"])),
            # Volatile: compared for presence, not value (see
            # scripts/compare_bench_reports.py VOLATILE_TRACKED).
            "compile_fraction": round(compile_fraction, 3),
        },
        "machine": {
            "equivalence_nets": NETS_EQUIV,
            "worst_equivalence_rel": worst_rel,
            "warm_nets": NETS_WARM,
            "object_seconds_10k": round(object_seconds, 4),
            "compiled_seconds_10k": round(compiled_seconds, 4),
            "compile_seconds_10k": round(first.meta.compile_seconds, 4),
            "speedup_10k": round(speedup_10k, 1),
            "build_seconds_100k": round(build_seconds, 3),
            "build_nets_per_second_100k": round(build_nets_per_second),
            "cold_seconds_100k": round(full["cold_seconds"], 3),
            "compile_seconds_100k": round(full["compile_seconds"], 3),
            "warm_seconds_100k": round(full["warm_seconds"], 4),
            "nets_per_second_100k": round(nets_per_second),
            "compile_nets_per_second_100k": round(compile_nets_per_second),
            "bytes_per_net_100k": round(bytes_per_net),
            "worst_slack_ps_100k": round(full["worst_slack_ps"], 3),
        },
    }
    if full_sweep:
        million = run_fresh(_MILLION_SCRIPT, nets=NETS_MILLION,
                            timeout=MILLION_LAP_TIMEOUT_S)
        assert million["nets"] == NETS_MILLION
        payload["machine"].update({
            "nets_1m": million["nets"],
            "levels_1m": million["levels"],
            "events_1m": million["events"],
            "endpoints_1m": million["endpoints"],
            "build_seconds_1m": round(million["build_seconds"], 3),
            "build_nets_per_second_1m": round(
                million["nets"] / million["build_seconds"]),
            "build_collections_1m": dict(zip(
                ("gen0", "gen1", "gen2"), million["build_collections"])),
            "bytes_per_net_1m": round(
                (million["peak_rss_bytes"] - million["baseline_rss_bytes"])
                / million["nets"]),
            "cold_seconds_1m": round(million["cold_seconds"], 3),
            "warm_seconds_1m": round(million["warm_seconds"], 4),
            "resize_update_seconds_1m": round(million["update_seconds"], 5),
        })
    json_path = report_writer.json("BENCH_scale.json", payload)

    lines = [
        "compiled struct-of-arrays engine: the 100k-net scale tier",
        f"  equivalence ({NETS_EQUIV} nets): worst relative diff "
        f"{worst_rel:.2e} (gate {EQUIVALENCE_RTOL:.0e})",
        f"  warm speedup ({NETS_WARM} nets): object "
        f"{object_seconds * 1e3:.0f} ms vs compiled "
        f"{compiled_seconds * 1e3:.1f} ms = {speedup_10k:.0f}x "
        f"(floor {SPEEDUP_FLOOR_10K:.0f}x)",
        f"  100k nets (fresh process): build {build_seconds:.2f} s, "
        f"compile {full['compile_seconds']:.2f} s, "
        f"cold analyze {full['cold_seconds']:.2f} s, "
        f"warm analyze {full['warm_seconds'] * 1e3:.0f} ms",
        f"  100k throughput      : {nets_per_second:,.0f} nets/s "
        f"(floor {NETS_PER_SECOND_FLOOR:,})",
        f"  100k compile         : {compile_nets_per_second:,.0f} nets/s "
        f"(floor {COMPILE_NETS_PER_SECOND_FLOOR:,})",
        f"  100k design build    : {build_nets_per_second:,.0f} nets/s "
        f"(floor {BUILD_NETS_PER_SECOND_FLOOR:,}, best of {BUILD_LAPS} "
        "fresh processes)",
        f"  100k peak RSS growth : {rss_delta / 1e6:.1f} MB = "
        f"{bytes_per_net:.0f} bytes/net (ceiling {BYTES_PER_NET_CEILING})",
        f"  100k build collections by generation: "
        f"{full['build_collections']}",
    ]
    if full_sweep:
        machine = payload["machine"]
        lines.append(
            f"  1M nets (fresh process): build {machine['build_seconds_1m']:.2f} s "
            f"({machine['build_nets_per_second_1m']:,} nets/s, collections "
            f"{million['build_collections']}), cold analyze "
            f"{machine['cold_seconds_1m']:.2f} s, warm analyze "
            f"{machine['warm_seconds_1m'] * 1e3:.0f} ms, resize update "
            f"{machine['resize_update_seconds_1m'] * 1e3:.1f} ms, "
            f"{machine['bytes_per_net_1m']} bytes/net")
    lines.append(f"  machine-readable     : {json_path.name}")
    report_writer("scale", "\n".join(lines))

    # The acceptance gates of the scale tier.
    assert speedup_10k >= SPEEDUP_FLOOR_10K
    assert nets_per_second >= NETS_PER_SECOND_FLOOR
    assert compile_nets_per_second >= COMPILE_NETS_PER_SECOND_FLOOR
    assert build_nets_per_second >= BUILD_NETS_PER_SECOND_FLOOR
    assert 0 < bytes_per_net <= BYTES_PER_NET_CEILING
    assert sum(full["build_collections"]) <= 1
