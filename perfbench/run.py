"""Benchmark of the repro timer: one workload per run, checked on every op.

    python3 perfbench/run.py --workload cold_soc100k --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout (the timer is imported from ``src/``).
With ``--trace 0`` the last line of standard output is one JSON object holding
the end-to-end metrics; with ``--trace 1`` the first half of the run is
untraced and the second half traced, and the object holds the per-layer
metrics plus the tracing overhead (traced minus untraced) of each end-to-end
metric.  Metric names and units come from ``BENCHMARK.json``.  Timings are
scaled to a reference host speed (``hostspeed.py``).  Details, unscaled
figures and the spans of a traced run are written to ``perfbench/out/``.  See
``perfbench/WORKLOADS.md`` for the workloads and metrics.

The benchmark re-executes itself once with glibc's malloc thresholds pinned
(``MALLOC_TUNABLES``).  By default glibc moves its mmap and trim thresholds as
large blocks are freed, so whether a freed 1.6 MB timing plane goes back to
the OS, and must be page-faulted in again by the next update, depends on the
allocation history of the process: the same edit loop then ran anywhere from
6 to 13 ms per update in different sessions.  Pinned, freed planes are always
reused.
"""

import os
import sys

#: glibc malloc policy of a run: blocks up to 32 MiB come from the heap, and
#: the heap is never trimmed.  Other C libraries ignore the variable.
MALLOC_TUNABLES = ("glibc.malloc.mmap_threshold=33554432:"
                   "glibc.malloc.trim_threshold=4294967296")

if __name__ == "__main__" and os.environ.get("GLIBC_TUNABLES") != MALLOC_TUNABLES:
    os.execve(sys.executable, [sys.executable, *sys.argv],
              {**os.environ, "GLIBC_TUNABLES": MALLOC_TUNABLES})

import time  # noqa: E402

STARTED = time.perf_counter()

import argparse  # noqa: E402  (the clock starts before any other import)
import json  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402
from memory import check_child_below_parent, peak_rss_bytes  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-ups per run; ``setup_s`` reports their median (plus the one-time imports).
SETUPS = 3
#: Failure messages printed per run.
SHOWN_PROBLEMS = 5
#: End-to-end metrics whose tracing overhead the traced run reports.
OVERHEAD_OF = ("read_ms_p50", "read_ms_p90", "write_ms_p50", "write_ms_p90",
               "ops_per_s", "peak_rss_mb")


class Run:
    """Samples and failures of the timed ops of one measurement window."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.speed = HostSpeed()
        self.samples = {"read": [], "write": []}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def timed(self, kind, fn):
        """Time one op; returns its result, or None when it raised."""
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.op = len(tracer.ops)
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result = None
            self.fail([f"{kind} op raised {type(exc).__name__}: {exc}"])
        end = time.perf_counter()
        if tracer is not None:
            tracer.op = None
            tracer.ops.append((kind, start, end))
        if result is not None:
            self.samples[kind].append((start, end))
        self.speed.after(end - start)
        return result

    def judge(self, problems) -> None:
        """Count the op just timed as failed when its checks found problems."""
        if problems:
            self.fail(problems)

    def fail(self, problems) -> None:
        self.failed += 1
        self.problems.extend(problems)

    def metrics(self, peak_mb, scaled=True):
        """End-to-end metrics; ``scaled`` scales each op to the reference host."""
        values = {}
        busy = count = 0.0
        for kind in ("read", "write"):
            ms = sorted((end - start) * 1e3
                        * (self.speed.scale_near(start, end) if scaled else 1.0)
                        for start, end in self.samples[kind])
            values[f"{kind}_ms_p50"] = statistics.median(ms) if ms else None
            values[f"{kind}_ms_p90"] = _percentile(ms, 0.9) if ms else None
            busy += sum(ms) / 1e3
            count += len(ms)
        values["ops_per_s"] = count / busy if busy else None
        values["peak_rss_mb"] = peak_mb
        return values


def _percentile(ordered, q):
    """Linear-interpolated percentile of an ascending list."""
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def measure(workload, run, seconds):
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        workload.step(run)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print("no timer sources under src/repro: run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # Characterization-cache reads and writes stay inside the checkout.
    os.environ["REPRO_CACHE_DIR"] = str(OUT / "cache")
    sys.path.insert(0, str(ROOT / "src"))

    import workloads
    from repro.characterization.library import default_library

    default_library()
    import_s = time.perf_counter() - STARTED

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if workload.one_cpu and hasattr(os, "sched_setaffinity"):
        # The client and server threads hand off on one CPU, not across two.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    setup_speed = HostSpeed()
    setup_speed.after(import_s)
    windows = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        workload.setup()
        windows.append((started, time.perf_counter()))
        setup_speed.after(windows[-1][1] - started)
    setups = [end - start for start, end in windows]
    setup_s = (import_s * setup_speed.scale_near(STARTED, STARTED + import_s)
               + statistics.median((end - start) * setup_speed.scale_near(start, end)
                                   for start, end in windows))

    runs = []
    tracer = None
    try:
        if args.trace:
            untraced = Run()
            measure(workload, untraced, args.seconds / 2)
            untraced_peak = peak_rss_bytes() / 2**20
            tracer = spans.Tracer()
            tracer.install()
            traced = Run(tracer)
            try:
                measure(workload, traced, args.seconds / 2)
            finally:
                tracer.uninstall()
            traced_peak = peak_rss_bytes() / 2**20
            runs = [untraced, traced]
        else:
            run = Run()
            measure(workload, run, args.seconds)
            runs = [run]
        peak_mb = peak_rss_bytes() / 2**20
        final = Run()
        final.judge(workload.setup_problems)
        final.judge(workload.finish())
        final.judge([] if check_child_below_parent()
                    else ["a child process reported its parent's peak memory"])
    finally:
        workload.close()

    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs + [final])
    problems = [p for run in runs + [final] for p in run.problems]

    if args.trace:
        before = untraced.metrics(untraced_peak)
        after = traced.metrics(traced_peak)
        values = {name: value * traced.speed.scale() if name.endswith("_s") else value
                  for name, value in tracer.summary().items()}
        for name in OVERHEAD_OF:
            if before[name] is not None and after[name] is not None:
                values[f"overhead.{name}"] = after[name] - before[name]
        declared_metrics = declared["per_layer"]
    else:
        values = runs[0].metrics(peak_mb)
        values["setup_s"] = setup_s
        declared_metrics = declared["end_to_end"]

    units = {m["name"]: m["unit"] for m in declared_metrics}
    missing = sorted(name for name in units if values.get(name) is None)
    extra = sorted(set(values) - set(units))
    if missing or extra:
        problems.append(f"metrics missing {missing}, undeclared {extra}")
        failed += 1
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if values.get(name) is not None}

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setups_s": setups, "import_s": import_s,
        "samples": {kind: sum(len(run.samples[kind]) for run in runs)
                    for kind in ("read", "write")},
        "op_times": [run.samples for run in runs],
        "probe_seconds": [list(zip(run.speed.times, run.speed.samples))
                          for run in runs],
        "unscaled": [run.metrics(peak_mb, scaled=False) for run in runs],
        "problems": problems, "metrics": values,
    }
    if tracer is not None:
        detail["trace"] = tracer.dump()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail))

    print(f"{args.workload}: seed {args.seed}, {detail['samples']['read']} reads, "
          f"{detail['samples']['write']} writes, set-ups {setups}, host-speed scale "
          f"{[round(run.speed.scale(), 3) for run in runs]}")
    for problem in problems[:SHOWN_PROBLEMS]:
        print(f"check failed: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
