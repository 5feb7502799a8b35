#!/usr/bin/env python
"""Graph-scale static timing through the session front door.

The single-path view (``examples/timing_path_sta.py``) walks one route at a
time.  This example drives whole DAGs through one ``repro.api.TimingSession``:

* a buffered fanout tree (clock-tree shaped) is levelized and timed level by
  level, with every repeated (cell, slew, line, load) stage configuration served
  from the session's in-process memo after its first solve,
* a reconvergent diamond shows per-node rise/fall merging: its two branches have
  different inverter parity, so the sink legitimately sees both a rising and a
  falling event and both are timed,
* a design assembled fluently with ``DesignBuilder`` — no ``GraphNet`` tuples or
  fanout lists by hand — rides through the same ``session.time()`` call,
* the same design is then constrained (a clock period on every endpoint),
  edited in place (a driver resize) and *incrementally* re-timed with
  ``session.update()`` — only the edit's dirty cone is re-solved, and the
  report carries per-endpoint slack and WNS, and
* the session statistics show what graph-scale batching buys: far fewer unique
  stage solves than timed events.

Each level's unique stage solves run as one in-process array batch.  Run with
``python examples/graph_sta.py``.
"""

from __future__ import annotations

import argparse

from repro.api import DesignBuilder, TimingSession
from repro.experiments import fanout_tree, reconvergent_graph, standard_lines
from repro.units import ps, to_ps


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--depth", type=int, default=5,
                        help="fanout-tree depth (default: 5 -> 63 nets)")
    args = parser.parse_args()

    with TimingSession() as session:
        tree = fanout_tree(args.depth)
        print(f"== fanout tree (depth {args.depth}) ==")
        report = session.time(tree, name="fanout_tree")
        print(report.format_report())

        print("\n== reconvergent diamond (mixed rise/fall arrivals) ==")
        report = session.time(reconvergent_graph(), name="diamond")
        print(report.format_report())
        for transition, event in sorted(report.events["sink"].items()):
            print(f"  sink {transition:4s} input event: arrives "
                  f"{to_ps(event.output_arrival):7.1f} ps at the far end "
                  f"(via {event.source[0]})")

        print("\n== fluent DesignBuilder: bus + tap, no graph internals ==")
        line = standard_lines()[1]
        design = (DesignBuilder("bus_with_tap")
                  .chain("bus", sizes=(75, 100, 75), line=line,
                         input_slew=ps(100), receiver_size=50)
                  .net("tap", driver_size=50, line=line, receiver_size=25)
                  .connect("bus_s1", "tap"))
        report = session.time(design)
        print(report.format_report())

        print("\n== slack + incremental what-if on the same design ==")
        graph = design.clock(ps(450)).build()  # constrain every endpoint
        report = session.update(graph, name="bus_with_tap")  # attach: full
        print(report.format_slack_table())
        graph.resize_driver("bus_s1", 125.0)  # what-if: upsize the mid buffer
        report = session.update(name="bus_with_tap (125X mid)")
        print(f"after resize: re-timed {report.meta.retimed_nets} of "
              f"{len(graph)} nets (dirty: {report.meta.dirty_nets}), "
              f"WNS {to_ps(report.wns):.1f} ps")
        print(report.format_slack_table())

        stats = session.stats
        print(f"\nsession totals: {stats.requests} stage requests, "
              f"{stats.computed} unique solves, "
              f"cache hit rate {100 * stats.hit_rate:.1f}%")


if __name__ == "__main__":
    main()
