"""Benchmark: reproduce the paper's Table 1 (15 inductive cases).

For every printed case the reference transistor-level simulation, the two-ramp
model, and the one-ramp single-Ceff baseline are compared at the driver output.
Expected shape (matching the paper): two-ramp errors in the single digits, one-ramp
delay errors large and positive, one-ramp slew errors large and negative, both
growing with line width.

The per-case errors are deterministic, so besides the human-readable
``table1.txt`` the benchmark writes ``BENCH_accuracy.json``: its ``tracked``
section holds every case's two-ramp and one-ramp delay and slew error (percent,
rounded to :data:`SIGNIFICANT_DIGITS` significant digits), which
``scripts/compare_bench_reports.py`` diffs against the committed baseline so any
numeric drift in the model layers shows up in review.
"""

import time

from repro.experiments import run_table1

#: Significant digits the tracked per-case errors are rounded to.
SIGNIFICANT_DIGITS = 9


def _tracked_error(value: float) -> float:
    return float(f"{value:.{SIGNIFICANT_DIGITS}g}")


def write_accuracy_report(result, seconds: float, report_writer) -> None:
    """Write ``BENCH_accuracy.json`` for one Table 1 run."""
    payload = {
        "benchmark": "accuracy",
        "tracked": {
            "cases": len(result.comparisons),
            "significant_digits": SIGNIFICANT_DIGITS,
            "errors_pct": [
                {"case": c.case.name,
                 "two_ramp_delay": _tracked_error(c.two_ramp_delay_error),
                 "two_ramp_slew": _tracked_error(c.two_ramp_slew_error),
                 "one_ramp_delay": _tracked_error(c.one_ramp_delay_error),
                 "one_ramp_slew": _tracked_error(c.one_ramp_slew_error)}
                for c in result.comparisons],
        },
        "machine": {"seconds": round(seconds, 3)},
    }
    report_writer.json("BENCH_accuracy.json", payload)


def test_table1_reproduction(benchmark, library, simulator, report_writer):
    start = time.perf_counter()
    result = benchmark.pedantic(
        lambda: run_table1(library=library, simulator=simulator),
        rounds=1, iterations=1)
    seconds = time.perf_counter() - start

    report_writer("table1", result.format_report())
    write_accuracy_report(result, seconds, report_writer)

    two_ramp_delay = result.two_ramp_delay_summary
    two_ramp_slew = result.two_ramp_slew_summary
    one_ramp_delay = result.one_ramp_delay_summary
    one_ramp_slew = result.one_ramp_slew_summary

    # Paper: two-ramp average errors 6% (delay) / 11.1% (slew) over its sweep; on the
    # Table 1 cases the reproduced model must stay in the same regime.
    assert two_ramp_delay.mean_abs_error < 12.0
    assert two_ramp_slew.mean_abs_error < 15.0
    # Paper: one-ramp delay errors +27% .. +129%, slew errors -17% .. -73%.
    assert one_ramp_delay.mean_abs_error > 25.0
    assert one_ramp_slew.mean_abs_error > 20.0
    # Signs of the baseline failure match the paper.
    assert all(c.one_ramp_delay_error > 0 for c in result.comparisons)
    assert all(c.one_ramp_slew_error < 0 for c in result.comparisons)
