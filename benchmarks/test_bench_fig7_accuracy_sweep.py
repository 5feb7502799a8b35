"""Benchmark: reproduce Figure 7 (model-vs-reference scatter over the inductive sweep).

The paper sweeps length (1-7 mm), width (0.8-3.5 um), driver (25X-125X) and input
slew (50-200 ps), keeps the 165 inductive combinations, and reports average errors
of 6% (delay) and 11.1% (slew) with 48%/83% of cases below 5%/10% delay error and
31%/61% below 5%/10% slew error.

By default a representative subset of the sweep runs (a few dozen reference
simulations); set ``REPRO_FULL=1`` to run the full grid as in the paper.
"""

from repro.experiments import run_accuracy_sweep


def test_figure7_accuracy_sweep(benchmark, library, simulator, report_writer,
                                full_sweep):
    result = benchmark.pedantic(
        lambda: run_accuracy_sweep(full=full_sweep, library=library, simulator=simulator),
        rounds=1, iterations=1)

    name = "figure7_full" if full_sweep else "figure7_subset"
    report_writer(name, result.format_report())

    delay = result.delay_summary
    slew = result.slew_summary

    # Enough inductive cases survive the screening to make the statistics meaningful.
    assert delay.count >= (100 if full_sweep else 15)
    # Same accuracy regime as the paper (6% / 11.1% average errors).
    assert delay.mean_abs_error < 10.0
    assert slew.mean_abs_error < 15.0
    # Most cases sit below the 10% error line, as in the paper's histogramming.
    assert delay.fraction_under_10pct > 0.6
    assert slew.fraction_under_10pct > 0.4
    # And the one-ramp baseline is dramatically worse on the same population.
    assert result.one_ramp_delay_summary.mean_abs_error > 3.0 * delay.mean_abs_error
