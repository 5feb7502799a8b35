"""The unified timing-result model: one schema for paths and graphs.

A :class:`TimingReport` holds per-net rise/fall :class:`TimingEvent` records
(scalar, so the whole report pickles and JSONs), the critical path as event
references, topological levels, and run metadata (:class:`RunInfo`).  A timed
:class:`~repro.sta.TimingPath` is a chain-shaped graph, reported with
``kind="path"``.

Serialization is lossless and stable: ``from_dict(to_dict(r)) == r`` exactly
(floats survive because JSON encodes them via ``repr``, which round-trips), and
two analyses of the same design produce byte-identical payloads apart from the
wall-clock fields in ``meta``.  Constrained analyses additionally carry, per
event, ``required`` / ``slack`` (setup), the early-plane arrival and
``hold_required`` / ``hold_slack`` (hold), plus the endpoint flag, so saved
reports answer WNS/WHS and per-endpoint slack queries offline in either mode —
and two saved reports can be compared with :func:`compare_reports` (the
``python -m repro report --diff`` backend, whose exit code gates CI on both WNS
and WHS regressions).  Payloads written before the dual-mode fields existed
still load: the new fields default to None/absent.

Every :meth:`~repro.api.TimingSession.time` / ``update`` returns a
:class:`StreamingTimingReport`: the same report contract, but backed by a
:class:`~repro.sta.compiled.CompiledAnalysis` whose events materialize per net
on first access.  Summary queries (WNS/WHS, ``n_events``, the slack table) run
as array reductions over endpoint events only (WNS/WHS once per report), so
none of them flatten O(graph) event records; serialization (``to_dict`` /
``save``) still does, on purpose, producing plain payloads.
:func:`compare_reports` diffs two streaming reports over one compiled net order
(every ``update()`` pair and serve edit) on their event planes, building a row
only per changed endpoint slack; any other pair goes through event-key sets,
which materialize the shared endpoint events.  The reference sweep
(:meth:`repro.sta.batch.GraphEngine.analyze`) returns an eager
:class:`TimingReport` directly; :meth:`TimingReport.from_graph_report` only
relabels it with a design name, kind and version.
"""

from __future__ import annotations

import json
import math
from collections import abc
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..core.stage_solver import SolverStats, StageSolution
from ..errors import ModelingError
from ..perf import peak_rss_bytes as _peak_rss_bytes
from ..sta.graph import IncrementalStats, check_mode
from ..units import to_ps

__all__ = [
    "TimingEvent",
    "RunInfo",
    "TimingReport",
    "StreamingTimingReport",
    "ReportDiff",
    "compare_reports",
]

#: Bump when the report schema changes incompatibly.
REPORT_FORMAT_VERSION = 1


def _check_kind(kind: str) -> None:
    if kind not in ("path", "graph"):
        raise ModelingError(f"report kind must be 'path' or 'graph', got {kind!r}")


@dataclass(frozen=True)
class TimingEvent:
    """One solved (net, input-transition) event, scalars only.

    A :class:`~repro.core.stage_solver.StageSolution` flattened together with
    the event's arrivals, fanin sources and required times, so the event is
    self-contained and serializable.
    """

    net: str
    input_transition: str  #: edge direction at the driver input
    output_transition: str  #: edge direction at the far end (inverted)
    input_arrival: float  #: merged worst-case 50% arrival at the driver input [s]
    output_arrival: float  #: 50% arrival at the far end [s]
    input_slew: float  #: full-swing input ramp time the stage was solved at [s]
    gate_delay: float  #: input 50% to modeled driver-output 50% [s]
    interconnect_delay: float  #: driver-output 50% to far-end 50% [s]
    far_slew: float  #: far-end threshold-to-threshold transition time [s]
    propagated_slew: float  #: far_slew rescaled to a full-swing ramp time [s]
    kind: str  #: "two-ramp" or "single-ramp"
    cell_name: str
    load_capacitance: float  #: far-end lumped gate load [F]
    ceff1: float
    tr1: float
    ceff2: Optional[float]
    tr2_effective: Optional[float]
    fingerprint: str  #: stage-solution memo key (content fingerprint)
    source: Optional[Tuple[str, str]] = None  #: winning fanin (net, transition)
    required: Optional[float] = None  #: latest admissible far-end arrival [s]
    slack: Optional[float] = None  #: required - output_arrival [s]
    endpoint: bool = False  #: True when the net consumes data (receiver / no fanout)
    early_arrival: Optional[float] = None  #: best-case 50% arrival at the far end [s]
    early_source: Optional[Tuple[str, str]] = None  #: winning fanin of the early plane
    hold_required: Optional[float] = None  #: earliest admissible far-end arrival [s]
    hold_slack: Optional[float] = None  #: early_arrival - hold_required [s]

    @property
    def stage_delay(self) -> float:
        """Total stage delay: input 50% to far-end 50% [s]."""
        return self.gate_delay + self.interconnect_delay

    def slack_for(self, mode: str) -> Optional[float]:
        """The ``mode`` slack of this event (:attr:`slack` / :attr:`hold_slack`)."""
        check_mode(mode)
        return self.slack if mode == "setup" else self.hold_slack

    @classmethod
    def from_solution(
        cls,
        net: str,
        input_transition: str,
        solution: StageSolution,
        *,
        input_slew: float,
        arrivals: Tuple[float, float],
        sources: Tuple[Optional[Tuple[str, str]], Optional[Tuple[str, str]]],
        endpoint: bool,
        required: Tuple[Optional[float], Optional[float]] = (None, None),
    ) -> "TimingEvent":
        """One solved event's record from its stage solution and event planes.

        ``arrivals`` are the (late, early) input arrivals, ``sources`` their winning
        fanins and ``required`` the (setup, hold) required far-end times (None =
        unconstrained); far-end arrivals add the stage delay and the slacks follow.
        """
        input_arrival, early_input_arrival = arrivals
        setup, hold = required
        delay = solution.stage_delay
        output_arrival = input_arrival + delay
        early_arrival = early_input_arrival + delay
        return cls(
            net=net,
            input_transition=input_transition,
            output_transition=solution.transition,
            input_arrival=input_arrival,
            output_arrival=output_arrival,
            input_slew=input_slew,
            gate_delay=solution.gate_delay,
            interconnect_delay=solution.interconnect_delay,
            far_slew=solution.far_slew,
            propagated_slew=solution.propagated_slew,
            kind=solution.kind,
            cell_name=solution.cell_name,
            load_capacitance=solution.load_capacitance,
            ceff1=solution.ceff1,
            tr1=solution.tr1,
            ceff2=solution.ceff2,
            tr2_effective=solution.tr2_effective,
            fingerprint=solution.fingerprint,
            source=sources[0],
            required=setup,
            slack=None if setup is None else setup - output_arrival,
            endpoint=endpoint,
            early_arrival=early_arrival,
            early_source=sources[1],
            hold_required=hold,
            hold_slack=None if hold is None else early_arrival - hold,
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation (inverse of :meth:`from_dict`)."""
        return {
            "net": self.net,
            "input_transition": self.input_transition,
            "output_transition": self.output_transition,
            "input_arrival": self.input_arrival,
            "output_arrival": self.output_arrival,
            "input_slew": self.input_slew,
            "gate_delay": self.gate_delay,
            "interconnect_delay": self.interconnect_delay,
            "far_slew": self.far_slew,
            "propagated_slew": self.propagated_slew,
            "kind": self.kind,
            "cell_name": self.cell_name,
            "load_capacitance": self.load_capacitance,
            "ceff1": self.ceff1,
            "tr1": self.tr1,
            "ceff2": self.ceff2,
            "tr2_effective": self.tr2_effective,
            "fingerprint": self.fingerprint,
            "source": list(self.source) if self.source is not None else None,
            "required": self.required,
            "slack": self.slack,
            "endpoint": self.endpoint,
            "early_arrival": self.early_arrival,
            "early_source": list(self.early_source)
            if self.early_source is not None
            else None,
            "hold_required": self.hold_required,
            "hold_slack": self.hold_slack,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TimingEvent":
        """Rebuild an event from :meth:`to_dict` output.

        Payloads written before the dual-mode fields existed (no
        ``early_arrival`` / ``hold_*`` keys) load fine: the fields default to
        None.
        """
        data = dict(payload)
        for key in ("source", "early_source"):
            ref = data.get(key)
            if ref is not None:
                data[key] = (ref[0], ref[1])
        return cls(**data)

    def describe(self) -> str:
        """Single-line summary in ps."""
        suffix = "" if self.slack is None else f", slack {to_ps(self.slack):7.1f} ps"
        if self.hold_slack is not None:
            suffix += f", hold {to_ps(self.hold_slack):7.1f} ps"
        return (
            f"{self.net}[{self.input_transition}->{self.output_transition}]"
            f": {self.kind:11s} in {to_ps(self.input_arrival):7.1f} ps"
            f" -> out {to_ps(self.output_arrival):7.1f} ps"
            f" (slew {to_ps(self.far_slew):6.1f} ps{suffix})"
        )


#: RunInfo keys older report payloads carry for fields that no longer exist.
_RETIRED_RUNINFO_KEYS = frozenset(
    {"jobs", "installed", "shards", "boundary_events_exchanged", "parallel_sweep",
     "mode", "batched_solves", "cone_nets"}
)

#: IncrementalStats fields every incremental run records in its RunInfo.
_CONE_FIELDS = ("dirty_nets", "retimed_nets", "required_nets", "hold_required_nets")

#: ...and the ones only the compiled engine fills in.
_COMPILED_CONE_FIELDS = ("patched_nets", "cone_converged_early")


@dataclass(frozen=True)
class RunInfo:
    """How one analysis ran: wall clock and solver cache behaviour."""

    elapsed: float  #: wall-clock analysis time [s]
    memo_hits: int = 0
    persistent_hits: int = 0
    computed: int = 0
    version: str = ""  #: repro package version that produced the report
    dirty_nets: Optional[int] = None  #: incremental runs: nets the edits dirtied
    retimed_nets: Optional[int] = None  #: incremental runs: forward-cone size
    required_nets: Optional[int] = None  #: incremental runs: backward-region size
    hold_required_nets: Optional[int] = None  #: incremental runs: hold-cone size
    report_events_rebuilt: Optional[int] = None  #: warm updates: events re-flattened
    compile_seconds: Optional[float] = None  #: compiled runs: graph freeze time [s]
    peak_rss_bytes: Optional[int] = None  #: process peak RSS at report build [bytes]
    #: compiled runs: nets whose struct-of-arrays entries were patched in place
    patched_nets: Optional[int] = None
    #: compiled incremental: cone nets whose outputs converged bit-identical
    cone_converged_early: Optional[int] = None

    @property
    def requests(self) -> int:
        return self.memo_hits + self.persistent_hits + self.computed

    @property
    def hit_rate(self) -> float:
        """Fraction of stage-solve requests served from a cache layer."""
        total = self.requests
        return (self.memo_hits + self.persistent_hits) / total if total else 0.0

    @property
    def incremental(self) -> bool:
        """True when the producing run re-timed a dirty cone, not the whole graph."""
        return self.dirty_nets is not None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "elapsed": self.elapsed,
            "memo_hits": self.memo_hits,
            "persistent_hits": self.persistent_hits,
            "computed": self.computed,
            "version": self.version,
            "dirty_nets": self.dirty_nets,
            "retimed_nets": self.retimed_nets,
            "required_nets": self.required_nets,
            "hold_required_nets": self.hold_required_nets,
            "report_events_rebuilt": self.report_events_rebuilt,
            "compile_seconds": self.compile_seconds,
            "peak_rss_bytes": self.peak_rss_bytes,
            "patched_nets": self.patched_nets,
            "cone_converged_early": self.cone_converged_early,
        }

    @classmethod
    def from_stats(
        cls,
        stats: SolverStats,
        incremental: Optional[IncrementalStats] = None,
        **fields: Any,
    ) -> "RunInfo":
        """A run's metadata from its solver counters and incremental stats.

        Copies the cache counters of ``stats`` and, for an incremental run,
        the cone sizes every engine reports (:data:`_CONE_FIELDS`);
        ``fields`` sets the rest (``elapsed``, ``version``, compiled-run
        fields) and wins over a copied value.
        """
        if incremental is not None:
            fields = {name: getattr(incremental, name) for name in _CONE_FIELDS} | fields
        return cls(
            memo_hits=stats.memo_hits,
            persistent_hits=stats.persistent_hits,
            computed=stats.computed,
            **fields,
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunInfo":
        """Rebuild from :meth:`to_dict`; keys of retired fields are ignored."""
        fields = {k: v for k, v in payload.items() if k not in _RETIRED_RUNINFO_KEYS}
        return cls(**fields)


@dataclass(frozen=True)
class TimingReport:
    """Unified result of timing one design (a path or a graph).

    ``events`` maps net name -> input transition -> :class:`TimingEvent`;
    ``critical_path`` references events as ``(net, transition)`` pairs from a
    primary input to the worst sink; ``levels`` is the topological levelization
    the engine batched over (for a path: one net per level, in stage order).
    """

    design: str  #: design name (path name, or a caller-supplied graph label)
    kind: str  #: "path" or "graph"
    events: Dict[str, Dict[str, TimingEvent]]
    levels: List[List[str]]
    critical_path: List[Tuple[str, str]] = field(default_factory=list)
    meta: RunInfo = field(default_factory=lambda: RunInfo(elapsed=0.0))

    # --- construction -----------------------------------------------------------------
    @classmethod
    def from_graph_report(
        cls,
        report: "TimingReport",
        *,
        design: str,
        kind: str = "graph",
        version: str = "",
    ) -> "TimingReport":
        """Relabel a reference-sweep report with its design, kind and version."""
        _check_kind(kind)
        return replace(
            report, design=design, kind=kind, meta=replace(report.meta, version=version)
        )

    # --- queries ----------------------------------------------------------------------
    @property
    def n_events(self) -> int:
        """Number of solved (net, transition) events."""
        return sum(len(per_net) for per_net in self.events.values())

    @property
    def nets(self) -> List[str]:
        """Net names in topological (level) order."""
        return [name for level in self.levels for name in level]

    def event_keys(self) -> Set[Tuple[str, str]]:
        """Every solved ``(net, input transition)`` key."""
        return {
            (name, transition)
            for name, per_net in self.events.items()
            for transition in per_net
        }

    def endpoint_keys(self) -> Set[Tuple[str, str]]:
        """The ``(net, input transition)`` keys of endpoint events."""
        return {
            (name, transition)
            for name, per_net in self.events.items()
            for transition, event in per_net.items()
            if event.endpoint
        }

    def iter_events(self) -> Iterator[TimingEvent]:
        """All events, net by net (streaming reports materialize lazily)."""
        for per_net in self.events.values():
            yield from per_net.values()

    def event(self, name: str, transition: Optional[str] = None) -> TimingEvent:
        """The event of net ``name`` (worst output arrival when ambiguous)."""
        per_net = self.events.get(name)
        if not per_net:
            raise ModelingError(f"net {name!r} has no timed event")
        if transition is not None:
            if transition not in per_net:
                raise ModelingError(f"net {name!r} has no {transition!r} input event")
            return per_net[transition]
        return max(per_net.values(), key=lambda e: e.output_arrival)

    def arrival(self, name: str, transition: Optional[str] = None) -> float:
        """Worst-case far-end arrival of net ``name`` [s]."""
        return self.event(name, transition).output_arrival

    def worst_event(self) -> TimingEvent:
        """The critical-path endpoint (the worst sink event)."""
        if not self.critical_path:
            raise ModelingError(f"timing report of {self.design!r} has no critical path")
        name, transition = self.critical_path[-1]
        return self.events[name][transition]

    def critical_events(self) -> List[TimingEvent]:
        """The critical path as resolved events, in arrival order."""
        return [self.events[name][transition] for name, transition in self.critical_path]

    @property
    def total_delay(self) -> float:
        """Worst sink arrival [s] (for a path: the total path delay)."""
        return self.worst_event().output_arrival

    @property
    def output_slew(self) -> float:
        """Far-end threshold-to-threshold slew of the worst sink event [s]."""
        return self.worst_event().far_slew

    def stage_delays(self) -> List[float]:
        """Per-event stage delays along the critical path [s]."""
        return [event.stage_delay for event in self.critical_events()]

    # --- slack ------------------------------------------------------------------------
    @property
    def constrained(self) -> bool:
        """True when the producing analysis carried setup constraints."""
        return any(
            event.slack is not None
            for per_net in self.events.values()
            for event in per_net.values()
        )

    @property
    def hold_constrained(self) -> bool:
        """True when the producing analysis carried hold (min-delay) constraints."""
        return any(
            event.hold_slack is not None
            for per_net in self.events.values()
            for event in per_net.values()
        )

    def early_arrival(self, name: str, transition: Optional[str] = None) -> Optional[float]:
        """Best-case (early) far-end arrival of net ``name`` [s].

        Without a ``transition``, the minimum over the net's events — the
        mirror of :meth:`arrival`, which takes the worst late arrival.  None
        when the report predates early-plane tracking (old payloads).
        """
        if transition is not None:
            return self.event(name, transition).early_arrival
        self.event(name)  # raises ModelingError on unknown/un-timed nets
        arrivals = [
            event.early_arrival
            for event in self.events[name].values()
            if event.early_arrival is not None
        ]
        return min(arrivals) if arrivals else None

    def slack(
        self, name: str, transition: Optional[str] = None, *, mode: str = "setup"
    ) -> Optional[float]:
        """``mode`` slack of net ``name`` [s]: minimum over its constrained events.

        With an explicit ``transition`` (the input edge direction), the slack of
        exactly that event; None when the queried events are unconstrained in
        ``mode``.
        """
        check_mode(mode)
        if transition is not None:
            return self.event(name, transition).slack_for(mode)
        slacks = [
            event.slack_for(mode)
            for event in self.events.get(name, {}).values()
            if event.slack_for(mode) is not None
        ]
        if not slacks:
            self.event(name)  # raises ModelingError on unknown/un-timed nets
            return None
        return min(slacks)

    def _worst_endpoint_slack(self, mode: str) -> Optional[float]:
        slacks = [
            event.slack_for(mode)
            for per_net in self.events.values()
            for event in per_net.values()
            if event.endpoint and event.slack_for(mode) is not None
        ]
        return min(slacks) if slacks else None

    @property
    def worst_slack(self) -> Optional[float]:
        """Worst (most negative) setup slack over every endpoint, None if unconstrained.

        Defined over endpoint events (the conventional WNS domain), so the
        summary always agrees with :meth:`endpoint_slacks`.
        """
        return self._worst_endpoint_slack("setup")

    @property
    def worst_hold_slack(self) -> Optional[float]:
        """Worst (most negative) hold slack over every endpoint, None if unconstrained."""
        return self._worst_endpoint_slack("hold")

    @property
    def wns(self) -> Optional[float]:
        """Worst negative setup slack [s]: 0.0 when every constraint is met."""
        worst = self.worst_slack
        if worst is None:
            return None
        return min(worst, 0.0)

    @property
    def whs(self) -> Optional[float]:
        """Worst negative hold slack [s]: 0.0 when every hold check is met."""
        worst = self.worst_hold_slack
        if worst is None:
            return None
        return min(worst, 0.0)

    def endpoint_slacks(self, *, mode: str = "setup") -> List[TimingEvent]:
        """``mode``-constrained endpoint events, worst (smallest) slack first."""
        check_mode(mode)
        events = [
            event
            for per_net in self.events.values()
            for event in per_net.values()
            if event.endpoint and event.slack_for(mode) is not None
        ]
        return sorted(events, key=lambda e: (e.slack_for(mode), e.net, e.input_transition))

    def hold_slacks(self) -> List[TimingEvent]:
        """Hold-constrained endpoint events, worst (smallest) hold slack first."""
        return self.endpoint_slacks(mode="hold")

    def worst_slack_event(self, *, mode: str = "setup") -> TimingEvent:
        """The constrained endpoint event with the smallest ``mode`` slack."""
        table = self.endpoint_slacks(mode=mode)
        if not table:
            raise ModelingError(
                f"timing report of {self.design!r} has no {mode}-constrained "
                "endpoints; set a required time or a clock period before "
                "querying slack"
            )
        return table[0]

    def format_slack_table(self, *, limit: int = 20, mode: str = "setup") -> str:
        """Per-endpoint ``mode`` slack table (worst first), or a hint when unconstrained."""
        check_mode(mode)
        table = self.endpoint_slacks(mode=mode)
        if not table:
            if mode == "hold":
                return (
                    "no hold-constrained endpoints (set a hold margin or "
                    "a hold required time to get hold slack)"
                )
            return (
                "no constrained endpoints (set a clock period or a "
                "required time to get slack)"
            )
        if mode == "hold":
            lines = [
                f"endpoint hold slacks ({len(table)} constrained "
                f"endpoint event(s), WHS {to_ps(self.whs):.1f} ps):",
                f"  {'endpoint':24s} {'edge':12s} {'early':>10s} "
                f"{'required':>10s} {'slack':>10s}",
            ]
        else:
            lines = [
                f"endpoint slacks ({len(table)} constrained endpoint "
                f"event(s), WNS {to_ps(self.wns):.1f} ps):",
                f"  {'endpoint':24s} {'edge':12s} {'arrival':>10s} "
                f"{'required':>10s} {'slack':>10s}",
            ]
        shown = table if len(table) <= limit else table[:limit]
        for event in shown:
            edge = f"{event.input_transition}->{event.output_transition}"
            if mode == "hold":
                arrival = event.early_arrival
                required, slack = event.hold_required, event.hold_slack
            else:
                arrival = event.output_arrival
                required, slack = event.required, event.slack
            lines.append(
                f"  {event.net:24s} {edge:12s} "
                f"{to_ps(arrival):8.1f} ps "
                f"{to_ps(required):7.1f} ps {to_ps(slack):7.1f} ps"
            )
        if len(table) > limit:
            lines.append(f"  ... ({len(table) - limit} more endpoints)")
        return "\n".join(lines)

    # --- serialization ----------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation (inverse of :meth:`from_dict`).

        Nets and transitions are emitted sorted, so two analyses of the same
        design serialize identically apart from the wall clock in ``meta``.
        """
        return {
            "format": REPORT_FORMAT_VERSION,
            "design": self.design,
            "kind": self.kind,
            "events": {
                name: {
                    transition: event.to_dict()
                    for transition, event in sorted(per_net.items())
                }
                for name, per_net in sorted(self.events.items())
            },
            "levels": [list(level) for level in self.levels],
            "critical_path": [list(ref) for ref in self.critical_path],
            "meta": self.meta.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TimingReport":
        """Rebuild a report from :meth:`to_dict` output.

        Raises :class:`~repro.errors.ModelingError` on any malformed payload
        (wrong format tag, missing/extra keys), never a bare ``TypeError``.
        """
        if payload.get("format") != REPORT_FORMAT_VERSION:
            raise ModelingError(
                f"timing report format {payload.get('format')!r} is not supported"
            )
        try:
            events = {
                name: {
                    transition: TimingEvent.from_dict(event)
                    for transition, event in per_net.items()
                }
                for name, per_net in payload["events"].items()
            }
            return cls(
                design=payload["design"],
                kind=payload["kind"],
                events=events,
                levels=[list(level) for level in payload["levels"]],
                critical_path=[(ref[0], ref[1]) for ref in payload["critical_path"]],
                meta=RunInfo.from_dict(payload["meta"]),
            )
        except (TypeError, KeyError, IndexError, AttributeError) as exc:
            raise ModelingError(f"malformed timing report payload: {exc!r}") from exc

    def to_json(self, *, indent: Optional[int] = 1) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "TimingReport":
        """Inverse of :meth:`to_json`; raises ModelingError on invalid JSON."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ModelingError(f"timing report is not valid JSON: {exc}") from exc
        if not isinstance(payload, Mapping):
            raise ModelingError("timing report JSON must be an object")
        return cls.from_dict(payload)

    def save(self, path: "str | Path") -> Path:
        """Write the report to ``path`` as JSON; returns the path."""
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: "str | Path") -> "TimingReport":
        """Read a report previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text())

    # --- presentation -----------------------------------------------------------------
    def format_report(self, *, limit: int = 20) -> str:
        """Multi-line human-readable summary (critical path + totals)."""
        meta = self.meta
        lines = [
            f"{self.kind} {self.design!r}: {len(self.events)} nets in "
            f"{len(self.levels)} levels, {self.n_events} events",
            f"  solved in {meta.elapsed:.3f} s (cache hit rate {100 * meta.hit_rate:.1f}%)",
        ]
        if meta.incremental:
            lines.append(
                f"  incremental: {meta.dirty_nets} dirty net(s) -> "
                f"{meta.retimed_nets} retimed"
            )
        if not self.critical_path:
            lines.append("  (no events: nothing to time)")
            return "\n".join(lines)
        worst = self.worst_event()
        lines.append(
            f"  worst sink arrival: {worst.net} "
            f"{to_ps(worst.output_arrival):.1f} ps "
            f"(far slew {to_ps(worst.far_slew):.1f} ps)"
        )
        if self.worst_slack is not None:
            lines.append(
                f"  worst slack: {to_ps(self.worst_slack):.1f} ps "
                f"(WNS {to_ps(self.wns):.1f} ps)"
            )
        if self.worst_hold_slack is not None:
            lines.append(
                f"  worst hold slack: {to_ps(self.worst_hold_slack):.1f} ps "
                f"(WHS {to_ps(self.whs):.1f} ps)"
            )
        lines.append("  critical path:")
        path = self.critical_events()
        shown = path if len(path) <= limit else path[:limit]
        lines.extend(f"    {event.describe()}" for event in shown)
        if len(path) > limit:
            lines.append(f"    ... ({len(path) - limit} more events)")
        return "\n".join(lines)


class _LazyEvents(abc.Mapping):
    """The ``events`` mapping of a streaming report, materialized per net.

    Looks exactly like the eager ``Dict[str, Dict[str, TimingEvent]]`` — same
    keys, same per-net dicts — but each net's records are built from the
    backing :class:`~repro.sta.compiled.CompiledAnalysis` arrays only when
    first accessed (then cached).  Whole-mapping iteration (``items()``,
    ``to_dict``) still works and materializes everything, which is the point:
    queries that *can* stay columnar go through the report's array-backed
    overrides instead of this mapping.
    """

    def __init__(self, analysis: Any) -> None:
        self._analysis = analysis
        self._cache: Dict[str, Dict[str, TimingEvent]] = {}
        self._names: Optional[List[str]] = None

    def _net_names(self) -> List[str]:
        if self._names is None:
            self._names = self._analysis.net_names_with_events()
        return self._names

    def __getitem__(self, name: str) -> Dict[str, TimingEvent]:
        per_net = self._cache.get(name)
        if per_net is None:
            try:
                per_net = self._analysis.events_of(name)
            except KeyError:
                raise KeyError(name) from None
            if not per_net:
                raise KeyError(name)
            self._cache[name] = per_net
        return per_net

    def __iter__(self) -> Iterator[str]:
        return iter(self._net_names())

    def __len__(self) -> int:
        return self._analysis.n_nets_with_events()


@dataclass(frozen=True)
class StreamingTimingReport(TimingReport):
    """A :class:`TimingReport` over compiled-analysis arrays, events on demand.

    Construction is O(critical path): no per-event records are built up
    front.  Summary queries (``n_events``, ``constrained``, WNS/WHS) run as
    array reductions; per-net queries materialize just that net;
    ``endpoint_slacks`` / ``format_slack_table`` materialize endpoint events
    only.  Full materialization happens exactly where it must — ``to_dict`` /
    ``save`` — so saved payloads are plain reports, loadable anywhere.
    """

    analysis: Optional[Any] = None  #: the backing CompiledAnalysis

    @classmethod
    def from_compiled(
        cls,
        analysis: Any,
        *,
        design: str,
        kind: str = "graph",
        version: str = "",
        compile_seconds: Optional[float] = None,
        patched_nets: Optional[int] = None,
        reuse: Optional["StreamingTimingReport"] = None,
        changed_nets: Optional[FrozenSet[str]] = None,
    ) -> "StreamingTimingReport":
        """Wrap one :meth:`GraphEngine.analyze_compiled` result.

        ``reuse`` with ``changed_nets`` enables the warm incremental path:
        event records the previous report already materialized are carried
        over for every net *outside* ``changed_nets`` (their planes are
        bitwise unchanged, so the records are identical), and
        ``meta.report_events_rebuilt`` counts the events on changed nets —
        the rebuild work bounded by the cone, not the graph.
        ``changed_nets=None`` means "potentially everything changed" and
        disables the carry-over.  ``kind`` is ``"path"`` for a timed
        :class:`~repro.sta.TimingPath` (its chain graph), else ``"graph"``.
        """
        _check_kind(kind)
        critical = (
            [analysis.key_of(event) for event in analysis.critical_path_ids()]
            if analysis.n_events
            else []
        )
        events = _LazyEvents(analysis)
        rebuilt: Optional[int] = None
        if reuse is not None and changed_nets is not None:
            cached = getattr(reuse.events, "_cache", None)
            if cached is not None:
                for net, per_net in cached.items():
                    if net not in changed_nets:
                        events._cache[net] = per_net
            index = analysis.graph.index
            ids = [index[net] for net in changed_nets if net in index]
            exists = analysis.state.exists
            rebuilt = int(sum(
                int(exists[i * 2]) + int(exists[i * 2 + 1]) for i in ids))
        incremental = analysis.incremental
        compiled = {}
        if incremental is not None:
            compiled = {name: getattr(incremental, name) for name in _COMPILED_CONE_FIELDS}
        if patched_nets is not None:
            compiled["patched_nets"] = patched_nets
        meta = RunInfo.from_stats(
            analysis.stats,
            incremental,
            elapsed=analysis.elapsed,
            version=version,
            compile_seconds=compile_seconds,
            peak_rss_bytes=_peak_rss_bytes(),
            report_events_rebuilt=rebuilt,
            **compiled,
        )
        return cls(
            design=design,
            kind=kind,
            events=events,
            levels=analysis.graph.level_names(),
            critical_path=critical,
            meta=meta,
            analysis=analysis,
        )

    # --- array-backed overrides (no event materialization) ----------------------------
    @property
    def n_events(self) -> int:
        return self.analysis.n_events

    def event_keys(self) -> Set[Tuple[str, str]]:
        return {self.analysis.key_of(int(e)) for e in self.analysis.event_ids()}

    def endpoint_keys(self) -> Set[Tuple[str, str]]:
        analysis = self.analysis
        import numpy as np  # local: keep report import light for plain loads

        mask = np.repeat(analysis.is_endpoint, 2) & analysis.state.exists
        return {analysis.key_of(int(e)) for e in np.flatnonzero(mask)}

    @property
    def constrained(self) -> bool:
        return self.analysis.constrained("setup")

    @property
    def hold_constrained(self) -> bool:
        return self.analysis.constrained("hold")

    # A live report pins its analysis, whose planes the incremental engine then
    # never writes again, so each O(graph) reduction runs once per report.
    @cached_property
    def worst_slack(self) -> Optional[float]:
        return self.analysis.worst_endpoint_slack("setup")

    @cached_property
    def worst_hold_slack(self) -> Optional[float]:
        return self.analysis.worst_endpoint_slack("hold")

    def endpoint_slacks(self, *, mode: str = "setup") -> List[TimingEvent]:
        """``mode``-constrained endpoint events, worst (smallest) slack first.

        Materializes endpoint events only, through the lazy :attr:`events`
        cache, so repeated queries build nothing twice and the table never
        touches the O(graph) interior.
        """
        check_mode(mode)
        analysis = self.analysis
        keys = map(analysis.key_of, analysis.endpoint_event_ids(mode).tolist())
        events = [self.events[net][transition] for net, transition in keys]
        return sorted(events, key=lambda e: (e.slack_for(mode), e.net, e.input_transition))


#: (net, input transition, old slack, new slack) rows of a slack-change table.
_SlackChange = Tuple[str, str, Optional[float], Optional[float]]


def _mode_regressed(old_worst: Optional[float], new_worst: Optional[float]) -> bool:
    """One polarity's gate: worst negative slack worsened or coverage vanished."""
    if new_worst is None:
        # Constraints vanished: gate on the coverage loss, not silence.
        return old_worst is not None
    if old_worst is None:
        return new_worst < 0.0
    return new_worst < old_worst


@dataclass(frozen=True)
class ReportDiff:
    """What changed between two timing reports of (nominally) the same design.

    ``regressed`` is the CI gate, applied to *both* polarities: True when the
    new report's worst negative setup slack (WNS) or worst negative hold slack
    (WHS) is worse than the old one's — both constrained and the figure
    dropped, or the new report introduces a violation the old one could not
    have had — and also when the old report carried constraints of a mode the
    new one lost: losing slack coverage must fail the gate rather than
    silently stop gating.  Arrival-only changes (no constraints on either
    side) never regress.
    """

    old_design: str
    new_design: str
    old_total_delay: Optional[float]
    new_total_delay: Optional[float]
    old_wns: Optional[float]
    new_wns: Optional[float]
    changed_endpoints: List[_SlackChange]
    #: (net, input transition, old slack, new slack), worst new slack first
    added_events: int
    removed_events: int
    old_whs: Optional[float] = None
    new_whs: Optional[float] = None
    changed_hold_endpoints: List[_SlackChange] = field(default_factory=list)
    #: the hold-plane mirror of ``changed_endpoints``

    @property
    def setup_regressed(self) -> bool:
        """True when WNS worsened (or setup coverage was lost)."""
        return _mode_regressed(self.old_wns, self.new_wns)

    @property
    def hold_regressed(self) -> bool:
        """True when WHS worsened (or hold coverage was lost)."""
        return _mode_regressed(self.old_whs, self.new_whs)

    @property
    def regressed(self) -> bool:
        """True when either polarity worsened (the nonzero-exit condition)."""
        return self.setup_regressed or self.hold_regressed

    def describe(self, *, limit: int = 10) -> str:
        """Multi-line human-readable summary of the differences."""

        def fmt(value: Optional[float]) -> str:
            return "-" if value is None else f"{to_ps(value):.1f} ps"

        lines = [
            f"report diff: {self.old_design!r} -> {self.new_design!r}",
            f"  total delay: {fmt(self.old_total_delay)} -> {fmt(self.new_total_delay)}",
            f"  WNS: {fmt(self.old_wns)} -> {fmt(self.new_wns)}",
        ]
        if self.old_whs is not None or self.new_whs is not None:
            lines.append(f"  WHS: {fmt(self.old_whs)} -> {fmt(self.new_whs)}")
        if self.added_events or self.removed_events:
            lines.append(f"  events: +{self.added_events} / -{self.removed_events}")
        for label, changes in (
            ("endpoint slack changes", self.changed_endpoints),
            ("endpoint hold slack changes", self.changed_hold_endpoints),
        ):
            if not changes:
                continue
            lines.append(f"  {label} ({len(changes)}):")
            for net, transition, old, new in changes[:limit]:
                lines.append(f"    {net}[{transition}]: {fmt(old)} -> {fmt(new)}")
            if len(changes) > limit:
                lines.append(f"    ... ({len(changes) - limit} more)")
        if self.regressed:
            if self.setup_regressed and self.new_wns is None:
                lines.append(
                    "  RESULT: slack coverage lost (old report was "
                    "constrained, new one is not)"
                )
            elif self.setup_regressed:
                lines.append("  RESULT: WNS regression")
            if self.hold_regressed and self.new_whs is None:
                lines.append(
                    "  RESULT: hold coverage lost (old report had "
                    "hold constraints, new one does not)"
                )
            elif self.hold_regressed:
                lines.append("  RESULT: WHS regression")
        else:
            lines.append("  RESULT: no slack regression")
        return "\n".join(lines)


#: (added events, removed events, setup rows, hold rows) of one comparison.
_Changes = Tuple[int, int, List[_SlackChange], List[_SlackChange]]


def _order_changes(changes: List[_SlackChange]) -> List[_SlackChange]:
    """Rows given in (net, transition) order, stably re-sorted worst new slack first."""
    return sorted(
        changes,
        key=lambda entry: (entry[3] is None, entry[3] if entry[3] is not None else 0.0),
    )


def _key_set_changes(old: TimingReport, new: TimingReport) -> _Changes:
    """Compare any two reports through their event-key sets and endpoint events."""
    old_keys, new_keys = old.event_keys(), new.event_keys()
    shared = old_keys & new_keys
    endpoint_shared = sorted((old.endpoint_keys() | new.endpoint_keys()) & shared)

    def changed_slacks(mode: str) -> List[_SlackChange]:
        changed: List[_SlackChange] = []
        for name, transition in endpoint_shared:
            old_slack = old.events[name][transition].slack_for(mode)
            new_slack = new.events[name][transition].slack_for(mode)
            if old_slack != new_slack:
                changed.append((name, transition, old_slack, new_slack))
        return _order_changes(changed)

    return (
        len(new_keys - old_keys),
        len(old_keys - new_keys),
        changed_slacks("setup"),
        changed_slacks("hold"),
    )


def _nan_to_none(value: float) -> Optional[float]:
    return None if math.isnan(value) else value


def _same_net_order(old: TimingReport, new: TimingReport) -> bool:
    """True when both reports stream over one compiled net order.

    Event ids are ``net id * 2 + transition`` over that order, so the two
    reports' planes then index the same events.
    """
    streaming = StreamingTimingReport
    if not (isinstance(old, streaming) and isinstance(new, streaming)):
        return False
    old_order, new_order = old.analysis.graph.order, new.analysis.graph.order
    return old_order is new_order or old_order == new_order


def _plane_changes(old: Any, new: Any) -> _Changes:
    """:func:`_key_set_changes` of two analyses over one net order, on their planes.

    Counts and masks run over the ``exists`` / endpoint planes; a row tuple is
    built only for a shared endpoint event whose slack changed (NaN, i.e.
    unconstrained, on both sides counts as unchanged), so the cost is a few
    O(graph) array passes plus O(changed rows) Python.
    """
    import numpy as np  # local: keep report import light for plain loads

    old_exists, new_exists = old.state.exists, new.state.exists
    added = int(np.count_nonzero(new_exists & ~old_exists))
    removed = int(np.count_nonzero(old_exists & ~new_exists))
    endpoint = np.repeat(old.is_endpoint | new.is_endpoint, 2)
    shared = np.flatnonzero(endpoint & old_exists & new_exists)
    name_rank = new.graph.name_rank

    def changed_slacks(mode: str) -> List[_SlackChange]:
        old_slack, new_slack = old.slacks_of(shared, mode), new.slacks_of(shared, mode)
        differs = (old_slack != new_slack) & ~(np.isnan(old_slack) & np.isnan(new_slack))
        rows = np.flatnonzero(differs)
        events = shared[rows]
        rows = rows[np.lexsort((events & 1, name_rank[events >> 1]))]
        changed = zip(
            shared[rows].tolist(), old_slack[rows].tolist(), new_slack[rows].tolist()
        )
        return _order_changes(
            [
                (*new.key_of(event), _nan_to_none(old_value), _nan_to_none(new_value))
                for event, old_value, new_value in changed
            ]
        )

    return added, removed, changed_slacks("setup"), changed_slacks("hold")


def compare_reports(old: TimingReport, new: TimingReport) -> ReportDiff:
    """Structured comparison of two reports (the ``report --diff`` backend).

    Two streaming reports over one compiled net order — every serve edit and
    every ``update()`` pair — are compared on their event planes: array passes
    plus one row tuple per changed endpoint slack, no event records.  Any other
    pair (eager or JSON-loaded reports, a mixed pair, or a topology edit that
    reordered the nets) is compared through its event-key sets, which
    materializes the shared endpoint events.  Both paths return the same diff.
    """
    if _same_net_order(old, new):
        changes = _plane_changes(old.analysis, new.analysis)
    else:
        changes = _key_set_changes(old, new)
    added, removed, setup_rows, hold_rows = changes

    def total(report: TimingReport) -> Optional[float]:
        return report.total_delay if report.critical_path else None

    return ReportDiff(
        old_design=old.design,
        new_design=new.design,
        old_total_delay=total(old),
        new_total_delay=total(new),
        old_wns=old.wns,
        new_wns=new.wns,
        changed_endpoints=setup_rows,
        added_events=added,
        removed_events=removed,
        old_whs=old.whs,
        new_whs=new.whs,
        changed_hold_endpoints=hold_rows,
    )
