#!/usr/bin/env python
"""Compare the ``tracked`` sections of benchmark reports against a baseline.

Benchmark JSONs under ``benchmarks/reports/BENCH_*.json`` are split into two
sections: ``tracked`` holds machine-independent facts (workload shape, unique
solve counts, cache hit rates, asserted floors) and ``machine`` holds wall
times and measured speedups.  Only ``tracked`` is meaningful to diff across
runs — this script compares it field by field and exits nonzero on any drift,
so CI can run the benchmarks on whatever runner it gets and still catch real
changes (a workload that silently shrank, a cache hit rate that moved, a floor
that was relaxed) without chasing wall-clock noise.

Beyond the baseline diff, a few tracked fields are *required outright*
(:data:`REQUIRED_TRACKED`): the dual-mode counters of the incremental
benchmark — the zero-extra-solve guarantee and the hold-cone sizes — and the
naive-subset facts and uncached-speedup floor of the throughput benchmark,
the 100k-net workload plus throughput/compile/memory gates and the build's
collection count of the scale benchmark, and the serve daemon's read-path
gates (warm queries re-run nothing; edit round-trips re-time only the dirty
cone) and the per-case Table 1 errors of the accuracy benchmark must be
present in every fresh report (with the pinned value, where one is given),
so dual-mode, array-batching and scale-tier coverage cannot silently
disappear even if the committed baseline is
regenerated.  A few tracked fields are *volatile* (:data:`VOLATILE_TRACKED`):
required-present but skipped by the equality diff.

Usage::

    python scripts/compare_bench_reports.py BASELINE_DIR CURRENT_DIR

BASELINE_DIR is typically a snapshot of the committed ``benchmarks/reports``
taken before the benchmarks ran; CURRENT_DIR the directory they wrote into.
Baseline files missing from CURRENT_DIR fail the comparison; extra BENCH files
in CURRENT_DIR (a newly added benchmark) are reported but do not fail.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Tracked fields every fresh report must carry: ``path`` -> pinned value
#: (``...`` means "present, any value").  These guard workload coverage that
#: the plain baseline diff cannot — a regenerated baseline could silently
#: drop them, a required field cannot be dropped.
REQUIRED_TRACKED = {
    "BENCH_incremental.json": {
        # A single-net edit of the 1k-net graph stays under a fixed ceiling.
        "update_ceiling_seconds": 0.005,
        "hold.dual_mode_extra_solves": 0,  # dual-mode adds zero stage solves
        "hold.single_edit.hold_cone_nets": ...,
        "hold.single_edit.setup_cone_nets": ...,
        # Report reuse: warm updates must re-flatten a cone's worth of
        # events, and the count must stay tracked.
        "edits[0].report_events_rebuilt": ...,
        # Compiled scale tier: parameter edits patch the CSR arrays in
        # place — never a recompile — and the final incremental planes
        # equal a from-scratch compiled analysis bit for bit.
        "compiled.nets": 100000,
        "compiled.edit_cycles": 200,
        # The ceiling fails on a regression to per-update plane clones; no
        # warm update clones; and an edit costs about the same at 10k nets
        # as at 100k (the update is O(cone)).
        "compiled.update_ceiling_seconds": 0.006,
        "compiled.full_plane_copies": 0,
        "compiled.scaling_nets": 10000,
        "compiled.scaling_ratio_ceiling": 1.5,
        "compiled.patch_compile_seconds": 0.0,
        "compiled.equivalence_exact": True,
        "compiled.retimed_nets": ...,
        "compiled.report_events_rebuilt": ...,
    },
    "BENCH_scale.json": {
        "nets": 100000,  # the scale tier really runs at 100k nets
        "nets_per_second_floor": ...,
        # The cold 100k compile runs as array passes; its floor stays gated.
        "compile_nets_per_second_floor": 150000,
        # The design build (soc_graph) has its own floor, and pauses the
        # cyclic collector: one generation-1 pass as it ends, none inside.
        "build_nets_per_second_floor": 90000,
        "build_collections_100k.gen0": 0,
        "build_collections_100k.gen1": 1,
        "build_collections_100k.gen2": 0,
        "bytes_per_net_ceiling": ...,
        "compile_fraction": ...,
    },
    "BENCH_serve.json": {
        # Warm queries are snapshot reads: zero analyses, zero re-timed nets.
        "warm_query_analyses": 0,
        "warm_query_retimed_nets": 0,
        "warm_qps_floor": 50.0,
        # A cold attach pays one full analysis of the whole workload...
        "attach_retimed_nets": 1024,
        # ...while an edit round-trip re-times only the edit's dirty cone.
        "round_trip.retimed_nets": 2,
        "round_trip.dirty_nets": 2,
        # An edit batch on a resident 100k-net design stays under a ceiling
        # only an O(cone) write (re-time, snapshot and plane diff) can meet.
        "scale_edit.nets": 100000,
        "scale_edit.apply_ceiling_ms": 60.0,
    },
    "BENCH_accuracy.json": {
        # The paper's Table 1: all 15 cases, each with its two-ramp and
        # one-ramp delay and slew error, rounded to 9 significant digits.
        "cases": 15,
        "significant_digits": 9,
        "errors_pct[0].two_ramp_delay": ...,
        "errors_pct[0].two_ramp_slew": ...,
        "errors_pct[0].one_ramp_delay": ...,
        "errors_pct[0].one_ramp_slew": ...,
        "errors_pct[14].case": ...,
    },
    "BENCH_graph_throughput.json": {
        "naive_subset_events": ...,  # the naive baseline is measured, not skipped
        "speedup_floor": 2.0,
        # Array-batched solving: the >= 3x uncached-throughput gate must stay
        # asserted — memoization alone cannot satisfy it.
        "uncached_speedup_floor": 3.0,
    },
}

#: Tracked fields whose *presence* is pinned (via :data:`REQUIRED_TRACKED`)
#: but whose value legitimately varies run to run — measured ratios that are
#: worth recording next to their workload, yet would make the equality diff
#: flaky.  They are skipped when comparing against the baseline.
VOLATILE_TRACKED = {
    "BENCH_scale.json": {"compile_fraction"},
}


def flatten(value, prefix=""):
    """(path, leaf) pairs of a nested JSON structure, deterministically ordered."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from flatten(value[key], f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from flatten(item, f"{prefix}[{index}]")
    else:
        yield prefix, value


def check_required(name: str, current: dict) -> list:
    """Mismatch lines for :data:`REQUIRED_TRACKED` fields of one report."""
    problems = []
    tracked = dict(flatten(current.get("tracked", {})))
    for path, expected in REQUIRED_TRACKED.get(name, {}).items():
        if path not in tracked:
            problems.append(f"{name}: required tracked.{path} is missing")
        elif expected is not ... and tracked[path] != expected:
            problems.append(f"{name}: tracked.{path} must be {expected!r}, "
                            f"got {tracked[path]!r}")
    return problems


def compare_tracked(name: str, baseline: dict, current: dict) -> list:
    """Human-readable mismatch lines between two reports' tracked sections."""
    problems = []
    for payload, label in ((baseline, "baseline"), (current, "current")):
        if "tracked" not in payload:
            problems.append(f"{name}: {label} report has no 'tracked' section")
    if problems:
        return problems
    old = dict(flatten(baseline["tracked"]))
    new = dict(flatten(current["tracked"]))
    volatile = VOLATILE_TRACKED.get(name, set())
    for path in sorted(old.keys() | new.keys()):
        if path in volatile:
            continue
        if path not in new:
            problems.append(f"{name}: tracked.{path} disappeared "
                            f"(baseline: {old[path]!r})")
        elif path not in old:
            problems.append(f"{name}: tracked.{path} appeared "
                            f"(current: {new[path]!r})")
        elif old[path] != new[path]:
            problems.append(f"{name}: tracked.{path} changed "
                            f"{old[path]!r} -> {new[path]!r}")
    return problems


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[0])
        print("usage: python scripts/compare_bench_reports.py "
              "BASELINE_DIR CURRENT_DIR", file=sys.stderr)
        return 2
    baseline_dir, current_dir = Path(argv[1]), Path(argv[2])
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"error: no BENCH_*.json baselines in {baseline_dir}",
              file=sys.stderr)
        return 2
    problems = []
    compared = 0
    for path in baselines:
        current_path = current_dir / path.name
        if not current_path.is_file():
            problems.append(f"{path.name}: benchmark did not produce a report")
            continue
        baseline = json.loads(path.read_text())
        current = json.loads(current_path.read_text())
        problems.extend(compare_tracked(path.name, baseline, current))
        problems.extend(check_required(path.name, current))
        compared += 1
    for path in sorted(current_dir.glob("BENCH_*.json")):
        if not (baseline_dir / path.name).is_file():
            print(f"note: {path.name} has no committed baseline yet")
    if problems:
        print(f"tracked benchmark fields drifted ({len(problems)} problem(s)):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"tracked benchmark fields match the baseline "
          f"({compared} report(s) compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
