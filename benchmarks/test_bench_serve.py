"""Benchmark: the serve daemon's cost model — attach once, query for free.

The claim the daemon has to earn: holding a design resident makes timing
queries *lookups*, not analyses.  Three phases over the ≥1k-net benchmark
graph, all through real HTTP round-trips (loopback TCP, keep-alive):

1. **cold attach** — ``POST /designs`` pays one full analysis (every net
   re-timed), the price of residency,
2. **warm queries** — a mixed ``GET /wns`` / ``GET /slack`` stream must not
   re-run any analysis (the tracked gate: zero analyses, zero re-timed nets
   across the whole phase) and must sustain at least ``QPS_FLOOR``
   queries/second — conservative, since snapshot reads are lock-free,
3. **edit round-trip** — ``POST /edits`` (one driver resize) + ``GET /wns``
   must hit the incremental path: the re-timed cone is the edit's two-net
   dirty region (the same pinned cone as ``BENCH_incremental``'s tail-net
   site), never the graph.

A fourth phase, **scale edit**, runs in-process (``DesignRegistry``, no HTTP):
it attaches the ``soc`` design at 100k nets and times single-resize batches
through ``AttachedDesign.apply_edits`` — the re-time, the snapshot and its
report diff.  The median must stay under ``SCALE_APPLY_CEILING_MS``: on a
2-CPU container a write that diffs by per-event key sets costs ~350 ms there,
one that stays on the cone and the event planes ~5-7 ms.

Results land in the run's report directory (``benchmarks/reports`` under
``REPRO_BENCH_WRITE=1``, see ``conftest.py``) as ``serve.txt`` and
``BENCH_serve.json`` (``tracked`` = machine-independent
gates compared by CI, ``machine`` = wall times and measured throughput).
"""

import statistics
import time

from repro.serve import (AttachRequest, DesignRegistry, EditRequest, ServeClient,
                         TimingServer)


NETS = 1024
CLOCK_PS = 2500.0
WARM_QUERIES = 200
ROUND_TRIPS = 20
EDIT_NET = "c0s15"  # chain tail: dirty cone = the net + its loaded fanin
TOGGLE_SIZE = 50.0

#: Sustained warm-query floor [queries/s].  Deliberately conservative: a
#: loopback round-trip against an in-memory snapshot is orders of magnitude
#: faster; the gate exists to catch accidental re-analysis on the read path.
QPS_FLOOR = 50.0

SCALE_NETS = 100_000
SCALE_CLOCK_PS = 1500.0
SCALE_BATCHES = 20
#: soc edit sites in four clusters, toggled between 100X and 75X.
SCALE_SITES = ("k17c6s2", "k402m1", "k555l9", "k790c2s4")
#: Median apply_edits ceiling at 100k nets [ms].
SCALE_APPLY_CEILING_MS = 60.0


def measure_scale_edits():
    """Median wall time of one single-resize batch on the 100k-net soc [ms]."""
    registry = DesignRegistry()
    try:
        design = registry.attach(AttachRequest(
            name="soc", case="soc", nets=SCALE_NETS, clock_ps=SCALE_CLOCK_PS,
            hold_margin_ps=0.0))
        nets = len(design.graph)

        def resize(site):
            size = {100.0: 75.0, 75.0: 100.0}[design.graph.nets[site].driver_size]
            return design.apply_edits(EditRequest.from_payload({"edits": [
                {"op": "resize_driver", "net": site, "driver_size": size}]}))

        # Warm both toggle states: the timed batches solve no new stages.
        for _ in range(2):
            for site in SCALE_SITES:
                resize(site)
        seconds = []
        for batch in range(SCALE_BATCHES):
            started = time.perf_counter()
            snapshot = resize(SCALE_SITES[batch % len(SCALE_SITES)])
            seconds.append(time.perf_counter() - started)
            assert snapshot.diff is not None
            assert snapshot.diff.added_events == snapshot.diff.removed_events == 0
    finally:
        registry.close()
    return nets, statistics.median(seconds) * 1e3


def test_serve_attach_query_edit_cost_model(library, report_writer):
    with TimingServer(port=0) as server:
        with ServeClient(port=server.port) as client:
            # --- phase 1: cold attach (one full analysis) --------------------
            started = time.perf_counter()
            attach = client.attach("bench", case="bench", nets=NETS,
                                   clock_ps=CLOCK_PS)
            attach_seconds = time.perf_counter() - started
            nets = attach["nets"]
            assert nets >= 1000
            stats = client.design_stats("bench")
            attach_retimed = stats["last_run"]["retimed_nets"]
            assert attach_retimed == nets  # cold attach pays for everything

            # --- phase 2: warm queries (must be pure snapshot reads) ---------
            before = client.design_stats("bench")
            started = time.perf_counter()
            for index in range(WARM_QUERIES):
                if index % 2 == 0:
                    summary = client.wns("bench")
                    assert summary["seq"] == attach["seq"]
                else:
                    client.slack("bench", limit=10)
            warm_seconds = time.perf_counter() - started
            after = client.design_stats("bench")
            warm_analyses = after["analyses"] - before["analyses"]
            warm_retimed = (after["retimed_nets_total"]
                            - before["retimed_nets_total"])
            warm_qps = WARM_QUERIES / warm_seconds
            assert warm_analyses == 0, "a warm query re-ran analysis"
            assert warm_retimed == 0, "a warm query re-timed nets"
            assert warm_qps >= QPS_FLOOR

            # --- phase 3: edit -> update -> query round-trip -----------------
            # Warm both toggle states so the measured laps compare the serve +
            # incremental machinery, not one-off stage characterizations.
            original = 75.0
            for size in (TOGGLE_SIZE, original):
                client.resize("bench", EDIT_NET, size)

            round_trip_seconds = []
            retimed = dirty = 0
            for rep in range(ROUND_TRIPS):
                size = TOGGLE_SIZE if rep % 2 == 0 else original
                started = time.perf_counter()
                response = client.resize("bench", EDIT_NET, size)
                summary = client.wns("bench")
                round_trip_seconds.append(time.perf_counter() - started)
                assert summary["seq"] == response["seq"]
                run = client.design_stats("bench")["last_run"]
                retimed, dirty = run["retimed_nets"], run["dirty_nets"]
                # The incremental gate: the cone, never the graph.
                assert retimed == 2
                assert dirty == 2
            round_trip_avg = sum(round_trip_seconds) / len(round_trip_seconds)

            final = client.design_stats("bench")

    # --- phase 4: scale edit (in-process, 100k nets) ---------------------------
    scale_nets, scale_apply_ms = measure_scale_edits()
    assert scale_nets == SCALE_NETS
    assert scale_apply_ms <= SCALE_APPLY_CEILING_MS, (
        f"a 100k-net edit batch took {scale_apply_ms:.1f} ms (median)")

    payload = {
        "benchmark": "serve",
        "tracked": {
            "nets": nets,
            "clock_ps": CLOCK_PS,
            "attach_retimed_nets": attach_retimed,
            "warm_queries": WARM_QUERIES,
            "warm_query_analyses": warm_analyses,
            "warm_query_retimed_nets": warm_retimed,
            "warm_qps_floor": QPS_FLOOR,
            "round_trip": {
                "net": EDIT_NET,
                "repetitions": ROUND_TRIPS,
                "dirty_nets": dirty,
                "retimed_nets": retimed,
            },
            "scale_edit": {
                "nets": scale_nets,
                "batches": SCALE_BATCHES,
                "apply_ceiling_ms": SCALE_APPLY_CEILING_MS,
            },
        },
        "machine": {
            "attach_seconds": round(attach_seconds, 5),
            "warm_seconds": round(warm_seconds, 5),
            "warm_qps": round(warm_qps, 1),
            "round_trip_avg_ms": round(round_trip_avg * 1e3, 3),
            "scale_edit_apply_ms_p50": round(scale_apply_ms, 3),
            "edit_batches": final["edit_batches"],
            "queries": final["queries"],
        },
    }
    json_path = report_writer.json("BENCH_serve.json", payload)

    lines = [
        "serve daemon cost model (loopback HTTP, keep-alive)",
        f"  design               : {nets} nets, clock {CLOCK_PS:.0f} ps",
        f"  cold attach          : {attach_seconds * 1e3:8.1f} ms "
        f"({attach_retimed} nets re-timed — the price of residency)",
        f"  warm queries         : {warm_qps:8.1f} qps over {WARM_QUERIES} "
        f"mixed wns/slack (0 analyses, floor {QPS_FLOOR:.0f})",
        f"  edit round-trip      : {round_trip_avg * 1e3:8.1f} ms "
        f"(resize + incremental update + query; cone {retimed}/{nets} nets)",
        f"  scale edit           : {scale_apply_ms:8.1f} ms median apply_edits "
        f"at {scale_nets} nets (in-process, ceiling {SCALE_APPLY_CEILING_MS:.0f})",
        f"  machine-readable     : {json_path.name}",
    ]
    report_writer("serve", "\n".join(lines))
