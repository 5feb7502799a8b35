"""``python -m repro`` — the command-line front door over :class:`TimingSession`.

Four subcommands cover the stack end to end::

    python -m repro time --case chain3            # time a built-in design
    python -m repro time --chain 75,100,75 --json timing.json
    python -m repro time --case bench --clock 800 --slack   # slack table + WNS
    python -m repro time --case bench --clock 800 --hold-margin 30 --hold
    python -m repro characterize --sizes 50 75 --coarse
    python -m repro report timing.json            # pretty-print a saved report
    python -m repro report timing.json --hold     # per-endpoint hold slacks
    python -m repro report --diff old.json new.json  # exit 1 on WNS/WHS regression
    python -m repro serve --port 8400 --case chain3  # resident timing daemon

Every subcommand builds one :class:`~.session.TimingSession` from the documented
environment layer (``REPRO_CACHE_DIR``, ``REPRO_JOBS``,
``REPRO_PERSISTENT_STAGES``) plus its own flags, so CLI runs and library runs
resolve configuration identically.  ``report --diff`` is CI-gate friendly: its
exit code is nonzero exactly when the new report's worst negative setup slack
(WNS) or hold slack (WHS) is worse than the old one's.
"""

from __future__ import annotations

import argparse
import sys
import time as time_module
from pathlib import Path
from typing import Optional, Sequence

from ..errors import ReproError
from ..experiments.graph_cases import (
    BUILTIN_CASES,
    LIBRARY_SIZES,
    case_graph,
    global_route_path,
    standard_lines,
)
from ..units import ps
from .builder import DesignBuilder
from .config import SessionConfig
from .report import TimingReport
from .session import TimingSession

__all__ = ["main"]


def _session_config(args: argparse.Namespace) -> SessionConfig:
    """The session config for one CLI invocation: env layer + explicit flags."""
    overrides = {}
    if getattr(args, "jobs", None) is not None:
        overrides["jobs"] = args.jobs
    if getattr(args, "cache_dir", None) is not None:
        overrides["cache_dir"] = args.cache_dir
    if getattr(args, "no_cache", False):
        overrides["use_characterization_cache"] = False
    return SessionConfig.from_env(**overrides)


def _build_design(args: argparse.Namespace):
    """The design a ``time`` invocation asks for (path, builder or graph).

    ``--case chain3`` is the canonical route as a :class:`~repro.sta.TimingPath`
    (its report has ``kind == "path"``); every other case comes from the case
    registry, :func:`~repro.experiments.graph_cases.case_graph`.
    """
    input_slew = ps(args.input_slew)
    if args.chain:
        try:
            sizes = [float(token) for token in args.chain.split(",") if token]
        except ValueError:
            raise ReproError(
                f"--chain expects comma-separated driver sizes, got {args.chain!r}"
            )
        if not sizes:
            raise ReproError("--chain needs at least one driver size")
        return DesignBuilder("cli_chain").chain(
            "chain", sizes=sizes, line=standard_lines(), input_slew=input_slew
        )
    if args.case == "chain3":
        return global_route_path(input_slew=input_slew)
    return case_graph(args.case, input_slew=input_slew, depth=args.depth, nets=args.nets)


def _cmd_time(args: argparse.Namespace) -> int:
    design = _build_design(args)
    name = None
    hold_margin = args.hold_margin
    if hold_margin is None and args.hold:
        # --hold alone runs the conventional "no earlier than the clock edge"
        # race check: a zero margin still propagates hold required times.
        hold_margin = 0.0
    if args.clock is not None:
        if args.clock <= 0:
            raise ReproError("--clock expects a positive period in ps")
        if hold_margin is not None and hold_margin < 0:
            raise ReproError("--hold-margin expects a non-negative margin in ps")
        # Constraints live on the graph, so materialize one: builders build,
        # paths become their chain-shaped graph equivalent.  The design label
        # rides along — materializing must not rename the report.
        from ..sta.graph import TimingGraph, chain_graph
        from ..sta.stage import TimingPath

        if isinstance(design, DesignBuilder):
            design, name = design.build(), design.name
        elif isinstance(design, TimingPath):
            name = design.name
            design, _ = chain_graph(design)
        assert isinstance(design, TimingGraph)
        design.set_clock_period(
            ps(args.clock), hold_margin=ps(hold_margin) if hold_margin is not None else None
        )
    elif args.slack:
        raise ReproError("--slack needs a constraint; add --clock PS")
    elif hold_margin is not None:
        raise ReproError("hold analysis needs a constraint; add --clock PS")
    with TimingSession(_session_config(args)) as session:
        report = session.time(design, name=name)
    print(report.format_report(limit=args.limit))
    if args.slack:
        print(report.format_slack_table(limit=args.limit))
    if args.hold:
        print(report.format_slack_table(limit=args.limit, mode="hold"))
    if args.json is not None:
        path = report.save(args.json)
        print(f"report written to {path}")
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from ..characterization.characterize import CharacterizationGrid

    grid = CharacterizationGrid.coarse() if args.coarse else CharacterizationGrid.default()
    points = len(grid.input_slews) * len(grid.loads) * 2
    config = _session_config(args)
    with TimingSession(config) as session:
        cache = session.characterization_cache
        print(
            f"characterizing {len(args.sizes)} cells ({points} simulations "
            f"each, {config.jobs} worker{'s' if config.jobs != 1 else ''}, "
            f"cache: {cache.directory if cache is not None else 'disabled'})",
            flush=True,
        )
        total_start = time_module.time()
        cells = []
        for size in args.sizes:
            start = time_module.time()
            hits_before = cache.hits if cache is not None else 0
            print(f"characterizing {size:g}X ...", flush=True)

            def show_progress(done: int, total: int) -> None:
                if done == total or done % 25 == 0:
                    print(f"  {done}/{total} points", flush=True)

            (cell,) = session.characterize(size, grid=grid, progress=show_progress)
            cells.append(cell)
            was_cached = cache is not None and cache.hits > hits_before
            source = "cache hit" if was_cached else f"{time_module.time() - start:.1f} s"
            print(
                f"  done ({source}; Rs_rise @ max load = "
                f"{cell.driver_resistance(cell.input_slews[2], cell.max_load):.1f}"
                " ohm)",
                flush=True,
            )
        if args.output is not None:
            args.output.mkdir(parents=True, exist_ok=True)
            for cell in cells:
                cell.save(args.output / f"{cell.cell_name}.json")
            print(
                f"wrote {len(cells)} cells to {args.output} "
                f"in {time_module.time() - total_start:.1f} s total"
            )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..serve.codec import AttachRequest
    from ..serve.server import TimingServer

    if args.hold_margin is not None and args.clock is None:
        raise ReproError("--hold-margin requires --clock")
    log = None
    if args.verbose:
        log = lambda line: print(line, file=sys.stderr)  # noqa: E731
    server = TimingServer(
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        config=_session_config(args),
        log=log,
    )
    for case in args.case or ():
        design = server.registry.attach(
            AttachRequest(
                name=case,
                case=case,
                input_slew_ps=args.input_slew,
                depth=args.depth,
                nets=args.nets,
                clock_ps=args.clock,
                hold_margin_ps=args.hold_margin,
            )
        )
        print(
            f"attached {case!r}: {len(design.graph)} nets "
            f"({design.snapshot.report.meta.elapsed * 1e3:.0f} ms)",
            file=sys.stderr,
        )
    print(f"serving on {server.describe()}", flush=True)
    server.serve_forever()
    return 0


def _load_report(path: Path) -> TimingReport:
    try:
        return TimingReport.load(path)
    except OSError as exc:
        raise ReproError(f"cannot read report {path}: {exc}") from exc


def _cmd_report(args: argparse.Namespace) -> int:
    if args.diff is not None:
        if args.path is not None:
            raise ReproError("give either a report file or --diff, not both")
        from .report import compare_reports

        old_path, new_path = args.diff
        diff = compare_reports(_load_report(old_path), _load_report(new_path))
        print(diff.describe(limit=args.limit))
        # The CI gate: nonzero exactly when worst negative slack worsened.
        return 1 if diff.regressed else 0
    if args.path is None:
        raise ReproError("report needs a report file (or --diff OLD NEW)")
    report = _load_report(args.path)
    print(report.format_report(limit=args.limit))
    if args.slack:
        print(report.format_slack_table(limit=args.limit))
    if args.hold:
        print(report.format_slack_table(limit=args.limit, mode="hold"))
    if args.events:
        print("all events:")
        for name in report.nets:
            for _, event in sorted(report.events.get(name, {}).items()):
                print(f"  {event.describe()}")
    meta = report.meta
    print(f"produced by repro {meta.version or '?'} in {meta.elapsed:.3f} s")
    return 0


def _add_session_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="persistent cache root (default: $REPRO_CACHE_DIR or ~/.cache/repro/cells)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Effective-capacitance two-ramp timing (DAC'03 "
        "reproduction): one CLI over the characterization, "
        "stage-solving and graph-timing stack.",
    )
    from .._version import __version__

    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    timer = commands.add_parser(
        "time", help="time a design and print/serialize its TimingReport"
    )
    case = timer.add_mutually_exclusive_group()
    case.add_argument(
        "--case",
        choices=BUILTIN_CASES,
        default="chain3",
        help="built-in design (default: the 3-stage example route)",
    )
    case.add_argument(
        "--chain",
        default=None,
        metavar="SIZES",
        help="custom chain: comma-separated driver sizes, e.g. "
        "75,100,75 (cycles the standard line flavors)",
    )
    timer.add_argument(
        "--input-slew",
        type=float,
        default=100.0,
        metavar="PS",
        help="primary-input slew in ps (default: 100)",
    )
    timer.add_argument(
        "--depth",
        type=int,
        default=3,
        help="fanout-tree depth for --case tree (default: 3)",
    )
    timer.add_argument(
        "--nets",
        type=int,
        default=128,
        help="net count for --case bench / --case soc (default: 128)",
    )
    timer.add_argument(
        "--limit", type=int, default=20, help="critical-path lines to print (default: 20)"
    )
    timer.add_argument(
        "--clock",
        type=float,
        default=None,
        metavar="PS",
        help="constrain every endpoint to this clock period "
        "(ps); enables required-time/slack propagation",
    )
    timer.add_argument(
        "--slack",
        action="store_true",
        help="print the per-endpoint slack table and WNS (requires --clock)",
    )
    timer.add_argument(
        "--hold-margin",
        type=float,
        default=None,
        metavar="PS",
        help="also require every endpoint's early arrival to "
        "clear this margin (ps); enables hold/min-delay "
        "analysis (requires --clock)",
    )
    timer.add_argument(
        "--hold",
        action="store_true",
        help="print the per-endpoint hold slack table and WHS "
        "(requires --clock; implies --hold-margin 0)",
    )
    timer.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write the TimingReport as JSON",
    )
    _add_session_flags(timer)
    timer.set_defaults(func=_cmd_time)

    char = commands.add_parser(
        "characterize",
        help="characterize driver cells through the session cache and worker pool",
    )
    char.add_argument(
        "--sizes",
        type=float,
        nargs="+",
        default=list(LIBRARY_SIZES),
        help="driver sizes (X) to characterize",
    )
    char.add_argument(
        "--coarse",
        action="store_true",
        help="use the small test grid instead of the full grid",
    )
    char.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore the persistent cache and re-simulate",
    )
    char.add_argument(
        "--output",
        type=Path,
        default=None,
        metavar="DIR",
        help="write the characterized cells as JSON files here",
    )
    char.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes per grid (default: $REPRO_JOBS or 1)",
    )
    _add_session_flags(char)
    char.set_defaults(func=_cmd_characterize)

    shower = commands.add_parser(
        "report",
        help="pretty-print a TimingReport JSON file, or diff two "
        "(exit 1 on WNS regression)",
    )
    shower.add_argument(
        "path",
        type=Path,
        nargs="?",
        default=None,
        help="report file written by `time --json` / report.save()",
    )
    shower.add_argument(
        "--diff",
        type=Path,
        nargs=2,
        default=None,
        metavar=("OLD", "NEW"),
        help="compare two saved reports; exit code 1 when the "
        "new report's WNS or WHS is worse (CI gate)",
    )
    shower.add_argument(
        "--limit", type=int, default=20, help="critical-path lines to print (default: 20)"
    )
    shower.add_argument(
        "--slack", action="store_true", help="also print the per-endpoint slack table"
    )
    shower.add_argument(
        "--hold", action="store_true", help="also print the per-endpoint hold slack table"
    )
    shower.add_argument(
        "--events",
        action="store_true",
        help="also list every solved (net, transition) event",
    )
    shower.set_defaults(func=_cmd_report)

    server = commands.add_parser(
        "serve",
        help="run the resident timing daemon (JSON over local HTTP)",
    )
    bind = server.add_mutually_exclusive_group()
    bind.add_argument(
        "--port",
        type=int,
        default=8400,
        help="TCP port on --host to serve on; 0 picks a free port (default: 8400)",
    )
    bind.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="serve on a unix domain socket at PATH instead of TCP",
    )
    server.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    server.add_argument(
        "--case",
        action="append",
        choices=BUILTIN_CASES,
        default=None,
        metavar="NAME",
        help="pre-attach a built-in design under its case name (repeatable); "
        f"one of: {', '.join(BUILTIN_CASES)}",
    )
    server.add_argument(
        "--input-slew",
        type=float,
        default=100.0,
        metavar="PS",
        help="pre-attached cases: primary-input slew in ps (default: 100)",
    )
    server.add_argument(
        "--depth", type=int, default=3, help="case 'tree': depth (default: 3)"
    )
    server.add_argument(
        "--nets",
        type=int,
        default=128,
        help="cases 'bench'/'soc': net count (default: 128)",
    )
    server.add_argument(
        "--clock",
        type=float,
        default=None,
        metavar="PS",
        help="pre-attached cases: clock period in ps",
    )
    server.add_argument(
        "--hold-margin",
        type=float,
        default=None,
        metavar="PS",
        help="pre-attached cases: hold margin in ps (requires --clock)",
    )
    server.add_argument("--verbose", action="store_true", help="log each request to stderr")
    _add_session_flags(server)
    server.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # A foreground daemon dies by Ctrl-C; exit like a signal-terminated
        # process (128 + SIGINT) instead of dumping a traceback.
        print("interrupted", file=sys.stderr)
        return 130
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
