"""Typed request/response schemas for the serve daemon's JSON wire protocol.

Every request body the daemon accepts parses into a frozen dataclass here, and
every malformed payload raises :class:`ValidationError` with a message naming
the offending field — the HTTP layer maps those to 400 responses, while
:class:`~repro.errors.ReproError` raised later (an unknown net, a cycle, a
solver failure) maps to 422: the request was well-formed, the engine rejected
it.  Responses are plain dicts built by the ``*_payload`` helpers, reusing the
existing lossless :meth:`~repro.api.report.TimingReport.to_dict` schema where a
full report is asked for and *never* flattening O(graph) events for summary
queries (WNS/slack/diff run on the report's array-backed/endpoint-only paths).

Wire units are explicit in the field names: times end in ``_ps`` (picoseconds,
matching the CLI's ``--clock PS`` convention), parasitics are SI — ohms,
henries, farads, meters — matching :class:`~repro.interconnect.RLCLine` and
``GraphNet.extra_load`` exactly.  Report payloads stay in seconds (they *are*
the report schema); summary payloads carry both ``wns`` [s] and ``wns_ps``.

Edit verbs mirror :class:`~repro.sta.graph.TimingGraph`'s in-place edit
operations one to one; each verb only knows how to :meth:`~EditVerb.apply`
itself.  Atomicity is not the verbs' job: the registry applies a batch inside
one :meth:`~repro.sta.graph.TimingGraph.transaction`, which undoes every verb
if any of them (or the re-time after them) fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Mapping, Optional, Tuple, Type

from ..api.builder import DesignBuilder
from ..api.report import ReportDiff, TimingReport
from ..errors import ReproError
from ..experiments.graph_cases import BUILTIN_CASES, case_graph
from ..interconnect.rlc_line import RLCLine
from ..sta.graph import TimingGraph, check_mode, flip_transition
from ..units import ps, to_ps

__all__ = [
    "ValidationError",
    "LineSpec",
    "NetSpec",
    "InputSpec",
    "RequireSpec",
    "DesignSpec",
    "AttachRequest",
    "EditVerb",
    "EditRequest",
    "EDIT_VERBS",
    "summary_payload",
    "slack_payload",
    "events_payload",
    "diff_payload",
]


class ValidationError(ReproError):
    """A request payload failed schema validation (mapped to HTTP 400)."""


# --- parsing primitives ---------------------------------------------------------------
def _require_mapping(payload: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(payload, Mapping):
        raise ValidationError(f"{what} must be a JSON object, got {type(payload).__name__}")
    return payload


def _reject_unknown(payload: Mapping[str, Any], known: Tuple[str, ...], what: str) -> None:
    unknown = set(payload) - set(known)
    if unknown:
        raise ValidationError(f"unknown {what} field(s): {sorted(unknown)}")


def _get_str(payload: Mapping[str, Any], key: str, what: str) -> str:
    value = payload.get(key)
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{what}.{key} must be a non-empty string")
    return value


def _get_number(
    payload: Mapping[str, Any],
    key: str,
    what: str,
    *,
    optional: bool = False,
    default: Optional[float] = None,
) -> Optional[float]:
    if key not in payload or payload[key] is None:
        if optional:
            return default
        raise ValidationError(f"{what}.{key} is required and must be a number")
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what}.{key} must be a number, got {value!r}")
    # Python's json parses NaN and Infinity; no field means either.
    if not math.isfinite(value):
        raise ValidationError(f"{what}.{key} must be a finite number, got {value!r}")
    return float(value)


def _check_mode(mode: Any) -> str:
    try:
        return check_mode(mode)
    except ReproError as exc:
        raise ValidationError(str(exc)) from None


def _get_transition(payload: Mapping[str, Any], what: str) -> Optional[str]:
    transition = payload.get("transition")
    if transition is None:
        return None
    if not isinstance(transition, str):
        raise ValidationError(f"{what}.transition must be 'rise' or 'fall'")
    try:
        flip_transition(transition)  # validates the direction name
    except ReproError as exc:
        raise ValidationError(str(exc)) from None
    return transition


# --- design specification (the POST /designs body) ------------------------------------
@dataclass(frozen=True)
class LineSpec:
    """One RLC line on the wire (SI units, mirroring :class:`RLCLine`)."""

    resistance: float  #: total series resistance [ohm]
    inductance: float  #: total series inductance [H]
    capacitance: float  #: total shunt capacitance [F]
    length: Optional[float] = None  #: physical length [m], when known

    FIELDS: ClassVar[Tuple[str, ...]] = ("resistance", "inductance", "capacitance",
                                         "length")

    @classmethod
    def from_payload(cls, payload: Any, what: str = "line") -> "LineSpec":
        payload = _require_mapping(payload, what)
        _reject_unknown(payload, cls.FIELDS, what)
        spec = cls(
            resistance=_get_number(payload, "resistance", what),
            inductance=_get_number(payload, "inductance", what),
            capacitance=_get_number(payload, "capacitance", what),
            length=_get_number(payload, "length", what, optional=True),
        )
        if min(spec.resistance, spec.inductance, spec.capacitance) <= 0:
            raise ValidationError(f"{what}: R, L and C must all be positive")
        if spec.length is not None and spec.length <= 0:
            raise ValidationError(f"{what}.length must be positive when given")
        return spec

    def to_line(self) -> RLCLine:
        return RLCLine(resistance=self.resistance, inductance=self.inductance,
                       capacitance=self.capacitance, length=self.length)


@dataclass(frozen=True)
class NetSpec:
    """One driver + line net of a design spec."""

    name: str
    driver_size: float
    line: LineSpec
    fanout: Tuple[str, ...] = ()
    receiver_size: Optional[float] = None
    extra_load: float = 0.0  #: additional lumped far-end load [F]

    FIELDS: ClassVar[Tuple[str, ...]] = ("name", "driver_size", "line", "fanout",
                                         "receiver_size", "extra_load")

    @classmethod
    def from_payload(cls, payload: Any) -> "NetSpec":
        payload = _require_mapping(payload, "net")
        name = _get_str(payload, "name", "net")
        what = f"net {name!r}"
        _reject_unknown(payload, cls.FIELDS, what)
        fanout = payload.get("fanout", ())
        if not isinstance(fanout, (list, tuple)) or not all(
            isinstance(sink, str) and sink for sink in fanout
        ):
            raise ValidationError(f"{what}.fanout must be a list of net names")
        return cls(
            name=name,
            driver_size=_get_number(payload, "driver_size", what),
            line=LineSpec.from_payload(payload.get("line"), f"{what}.line"),
            fanout=tuple(fanout),
            receiver_size=_get_number(payload, "receiver_size", what, optional=True),
            extra_load=_get_number(payload, "extra_load", what, optional=True,
                                   default=0.0),
        )


@dataclass(frozen=True)
class InputSpec:
    """One primary-input stimulus of a design spec."""

    net: str
    slew_ps: float
    transition: str = "rise"
    arrival_ps: float = 0.0

    FIELDS: ClassVar[Tuple[str, ...]] = ("net", "slew_ps", "transition", "arrival_ps")

    @classmethod
    def from_payload(cls, payload: Any) -> "InputSpec":
        payload = _require_mapping(payload, "input")
        net = _get_str(payload, "net", "input")
        what = f"input {net!r}"
        _reject_unknown(payload, cls.FIELDS, what)
        slew_ps = _get_number(payload, "slew_ps", what)
        if slew_ps <= 0:
            raise ValidationError(f"{what}.slew_ps must be positive")
        transition = _get_transition(payload, what) or "rise"
        return cls(
            net=net,
            slew_ps=slew_ps,
            transition=transition,
            arrival_ps=_get_number(payload, "arrival_ps", what, optional=True,
                                   default=0.0),
        )


@dataclass(frozen=True)
class RequireSpec:
    """One pinned required time of a design spec."""

    net: str
    required_ps: float
    transition: Optional[str] = None
    mode: str = "setup"

    FIELDS: ClassVar[Tuple[str, ...]] = ("net", "required_ps", "transition", "mode")

    @classmethod
    def from_payload(cls, payload: Any) -> "RequireSpec":
        payload = _require_mapping(payload, "require")
        net = _get_str(payload, "net", "require")
        what = f"require {net!r}"
        _reject_unknown(payload, cls.FIELDS, what)
        mode = _check_mode(payload.get("mode", "setup"))
        return cls(
            net=net,
            required_ps=_get_number(payload, "required_ps", what),
            transition=_get_transition(payload, what),
            mode=mode,
        )


@dataclass(frozen=True)
class DesignSpec:
    """A full design described in JSON, materialized via :class:`DesignBuilder`."""

    nets: Tuple[NetSpec, ...]
    inputs: Tuple[InputSpec, ...]
    requires: Tuple[RequireSpec, ...] = ()

    FIELDS: ClassVar[Tuple[str, ...]] = ("nets", "inputs", "requires")

    @classmethod
    def from_payload(cls, payload: Any) -> "DesignSpec":
        payload = _require_mapping(payload, "spec")
        _reject_unknown(payload, cls.FIELDS, "spec")
        nets = payload.get("nets")
        if not isinstance(nets, (list, tuple)) or not nets:
            raise ValidationError("spec.nets must be a non-empty list of net objects")
        inputs = payload.get("inputs")
        if not isinstance(inputs, (list, tuple)) or not inputs:
            raise ValidationError("spec.inputs must be a non-empty list of stimuli")
        requires = payload.get("requires", ())
        if not isinstance(requires, (list, tuple)):
            raise ValidationError("spec.requires must be a list of require objects")
        return cls(
            nets=tuple(NetSpec.from_payload(net) for net in nets),
            inputs=tuple(InputSpec.from_payload(stimulus) for stimulus in inputs),
            requires=tuple(RequireSpec.from_payload(pin) for pin in requires),
        )

    def to_builder(self, name: str) -> DesignBuilder:
        """The accumulated spec as a ready-to-build :class:`DesignBuilder`.

        Structural problems the schema cannot see (duplicate nets, unknown
        fanout targets, cycles, roots without stimuli) surface at ``build()``
        as :class:`~repro.errors.ModelingError` — an engine rejection (422),
        not a schema violation (400).
        """
        builder = DesignBuilder(name)
        for net in self.nets:
            builder.net(
                net.name,
                driver_size=net.driver_size,
                line=net.line.to_line(),
                fanout=net.fanout,
                receiver_size=net.receiver_size,
                extra_load=net.extra_load,
            )
        for stimulus in self.inputs:
            builder.input(
                stimulus.net,
                ps(stimulus.slew_ps),
                transition=stimulus.transition,
                arrival=ps(stimulus.arrival_ps),
            )
        for pin in self.requires:
            builder.require(
                pin.net,
                ps(pin.required_ps),
                transition=pin.transition,
                mode=pin.mode,
            )
        return builder


@dataclass(frozen=True)
class AttachRequest:
    """The ``POST /designs`` body: attach a named design from a spec or a case."""

    name: str
    case: Optional[str] = None
    spec: Optional[DesignSpec] = None
    input_slew_ps: float = 100.0  #: case designs: primary-input slew
    depth: int = 3  #: case 'tree': distribution-tree depth
    nets: int = 128  #: cases 'bench' / 'soc': target net count
    clock_ps: Optional[float] = None
    hold_margin_ps: Optional[float] = None

    FIELDS: ClassVar[Tuple[str, ...]] = ("name", "case", "spec", "input_slew_ps",
                                         "depth", "nets", "clock_ps",
                                         "hold_margin_ps")

    @classmethod
    def from_payload(cls, payload: Any) -> "AttachRequest":
        payload = _require_mapping(payload, "attach request")
        _reject_unknown(payload, cls.FIELDS, "attach request")
        name = _get_str(payload, "name", "attach request")
        case = payload.get("case")
        spec_payload = payload.get("spec")
        if (case is None) == (spec_payload is None):
            raise ValidationError(
                "attach request needs exactly one of 'case' (a built-in design "
                "name) or 'spec' (a design object)"
            )
        if case is not None and case not in BUILTIN_CASES:
            raise ValidationError(
                f"unknown case {case!r}; built-in cases: {', '.join(BUILTIN_CASES)}"
            )
        depth = payload.get("depth", 3)
        nets = payload.get("nets", 128)
        for label, value in (("depth", depth), ("nets", nets)):
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValidationError(f"attach request.{label} must be a positive integer")
        input_slew_ps = _get_number(payload, "input_slew_ps", "attach request",
                                    optional=True, default=100.0)
        if input_slew_ps <= 0:
            raise ValidationError("attach request.input_slew_ps must be positive")
        clock_ps = _get_number(payload, "clock_ps", "attach request", optional=True)
        hold_margin_ps = _get_number(payload, "hold_margin_ps", "attach request",
                                     optional=True)
        if clock_ps is not None and clock_ps <= 0:
            raise ValidationError("attach request.clock_ps must be positive")
        if hold_margin_ps is not None:
            if hold_margin_ps < 0:
                raise ValidationError("attach request.hold_margin_ps must be >= 0")
            if clock_ps is None:
                raise ValidationError(
                    "attach request.hold_margin_ps needs clock_ps (hold checks "
                    "are seeded by the clock constraint)"
                )
        return cls(
            name=name,
            case=case,
            spec=DesignSpec.from_payload(spec_payload) if spec_payload is not None
            else None,
            input_slew_ps=input_slew_ps,
            depth=depth,
            nets=nets,
            clock_ps=clock_ps,
            hold_margin_ps=hold_margin_ps,
        )

    def build_graph(self) -> TimingGraph:
        """Materialize the requested design (constraints applied, dirt cleared)."""
        if self.case is not None:
            graph = case_graph(self.case, input_slew=ps(self.input_slew_ps),
                               depth=self.depth, nets=self.nets)
        else:
            assert self.spec is not None
            graph = self.spec.to_builder(self.name).build()
        if self.clock_ps is not None:
            graph.set_clock_period(
                ps(self.clock_ps),
                hold_margin=ps(self.hold_margin_ps)
                if self.hold_margin_ps is not None
                else None,
            )
        graph.clear_dirty()  # the attach analysis times the whole graph anyway
        return graph


# --- edit verbs (the POST /designs/{name}/edits body) ---------------------------------
@dataclass(frozen=True)
class EditVerb:
    """One in-place graph edit.  Subclasses mirror TimingGraph's edit ops.

    :meth:`apply` calls the matching :class:`~repro.sta.graph.TimingGraph`
    operation, which raises :class:`~repro.errors.ReproError` on engine
    rejection (unknown net, cycle, orphaned sink ...).
    """

    op: ClassVar[str] = ""
    FIELDS: ClassVar[Tuple[str, ...]] = ()

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "EditVerb":
        raise NotImplementedError

    def apply(self, graph: TimingGraph) -> None:
        raise NotImplementedError


def _verb_payload(payload: Any) -> Tuple[str, Mapping[str, Any]]:
    payload = _require_mapping(payload, "edit")
    op = payload.get("op")
    if not isinstance(op, str) or op not in EDIT_VERBS:
        raise ValidationError(
            f"edit.op must be one of {sorted(EDIT_VERBS)}, got {op!r}"
        )
    _reject_unknown(payload, ("op",) + EDIT_VERBS[op].FIELDS, f"edit[{op}]")
    return op, payload


@dataclass(frozen=True)
class ResizeDriver(EditVerb):
    net: str = ""
    driver_size: float = 0.0

    op: ClassVar[str] = "resize_driver"
    FIELDS: ClassVar[Tuple[str, ...]] = ("net", "driver_size")

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ResizeDriver":
        what = f"edit[{cls.op}]"
        size = _get_number(payload, "driver_size", what)
        if size <= 0:
            raise ValidationError(f"{what}.driver_size must be positive")
        return cls(net=_get_str(payload, "net", what), driver_size=size)

    def apply(self, graph: TimingGraph) -> None:
        graph.resize_driver(self.net, self.driver_size)

    def describe(self) -> str:
        return f"resize_driver {self.net} -> {self.driver_size:g}X"


@dataclass(frozen=True)
class SetLine(EditVerb):
    net: str = ""
    line: Optional[RLCLine] = None  #: parsed eagerly from the wire LineSpec

    op: ClassVar[str] = "set_line"
    FIELDS: ClassVar[Tuple[str, ...]] = ("net", "line")

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SetLine":
        what = f"edit[{cls.op}]"
        net = _get_str(payload, "net", what)
        spec = LineSpec.from_payload(payload.get("line"), f"{what}.line")
        return cls(net=net, line=spec.to_line())

    def apply(self, graph: TimingGraph) -> None:
        graph.set_line(self.net, self.line)


@dataclass(frozen=True)
class SetExtraLoad(EditVerb):
    net: str = ""
    extra_load: float = 0.0  #: [F]

    op: ClassVar[str] = "set_extra_load"
    FIELDS: ClassVar[Tuple[str, ...]] = ("net", "extra_load")

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SetExtraLoad":
        what = f"edit[{cls.op}]"
        load = _get_number(payload, "extra_load", what)
        if load < 0:
            raise ValidationError(f"{what}.extra_load must be >= 0 farads")
        return cls(net=_get_str(payload, "net", what), extra_load=load)

    def apply(self, graph: TimingGraph) -> None:
        graph.set_extra_load(self.net, self.extra_load)


@dataclass(frozen=True)
class SetReceiver(EditVerb):
    net: str = ""
    receiver_size: Optional[float] = None  #: None removes the terminal receiver

    op: ClassVar[str] = "set_receiver"
    FIELDS: ClassVar[Tuple[str, ...]] = ("net", "receiver_size")

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SetReceiver":
        what = f"edit[{cls.op}]"
        size = _get_number(payload, "receiver_size", what, optional=True)
        if size is not None and size <= 0:
            raise ValidationError(f"{what}.receiver_size must be positive or null")
        return cls(net=_get_str(payload, "net", what), receiver_size=size)

    def apply(self, graph: TimingGraph) -> None:
        graph.set_receiver(self.net, self.receiver_size)


@dataclass(frozen=True)
class AddFanout(EditVerb):
    driver: str = ""
    sink: str = ""

    op: ClassVar[str] = "add_fanout"
    FIELDS: ClassVar[Tuple[str, ...]] = ("driver", "sink")

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "AddFanout":
        what = f"edit[{cls.op}]"
        return cls(driver=_get_str(payload, "driver", what),
                   sink=_get_str(payload, "sink", what))

    def apply(self, graph: TimingGraph) -> None:
        graph.add_fanout(self.driver, self.sink)


@dataclass(frozen=True)
class RemoveFanout(AddFanout):
    op: ClassVar[str] = "remove_fanout"

    def apply(self, graph: TimingGraph) -> None:
        graph.remove_fanout(self.driver, self.sink)


@dataclass(frozen=True)
class SetRequired(EditVerb):
    net: str = ""
    required: Optional[float] = None  #: [s] internally; None removes the pin
    transition: Optional[str] = None
    mode: str = "setup"

    op: ClassVar[str] = "set_required"
    FIELDS: ClassVar[Tuple[str, ...]] = ("net", "required_ps", "transition", "mode")

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SetRequired":
        what = f"edit[{cls.op}]"
        mode = _check_mode(payload.get("mode", "setup"))
        required_ps = _get_number(payload, "required_ps", what, optional=True)
        return cls(
            net=_get_str(payload, "net", what),
            required=ps(required_ps) if required_ps is not None else None,
            transition=_get_transition(payload, what),
            mode=mode,
        )

    def apply(self, graph: TimingGraph) -> None:
        graph.set_required(self.net, self.required, transition=self.transition,
                           mode=self.mode)


@dataclass(frozen=True)
class SetClock(EditVerb):
    period: Optional[float] = None  #: [s] internally; None removes the clock
    hold_margin: Optional[float] = None  #: [s] internally

    op: ClassVar[str] = "set_clock"
    FIELDS: ClassVar[Tuple[str, ...]] = ("period_ps", "hold_margin_ps")

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SetClock":
        what = f"edit[{cls.op}]"
        period_ps = _get_number(payload, "period_ps", what, optional=True)
        hold_margin_ps = _get_number(payload, "hold_margin_ps", what, optional=True)
        if period_ps is not None and period_ps <= 0:
            raise ValidationError(f"{what}.period_ps must be positive or null")
        if hold_margin_ps is not None and hold_margin_ps < 0:
            raise ValidationError(f"{what}.hold_margin_ps must be >= 0")
        return cls(
            period=ps(period_ps) if period_ps is not None else None,
            hold_margin=ps(hold_margin_ps) if hold_margin_ps is not None else None,
        )

    def apply(self, graph: TimingGraph) -> None:
        graph.set_clock_period(self.period, hold_margin=self.hold_margin)


#: Wire op name -> verb class (the codec's dispatch table).
EDIT_VERBS: Dict[str, Type[EditVerb]] = {
    verb.op: verb
    for verb in (ResizeDriver, SetLine, SetExtraLoad, SetReceiver, AddFanout,
                 RemoveFanout, SetRequired, SetClock)
}


@dataclass(frozen=True)
class EditRequest:
    """The ``POST /designs/{name}/edits`` body: one atomic batch of edit verbs."""

    edits: Tuple[EditVerb, ...] = field(default_factory=tuple)

    @classmethod
    def from_payload(cls, payload: Any) -> "EditRequest":
        payload = _require_mapping(payload, "edit request")
        _reject_unknown(payload, ("edits",), "edit request")
        edits = payload.get("edits")
        if not isinstance(edits, (list, tuple)) or not edits:
            raise ValidationError(
                "edit request.edits must be a non-empty list of edit objects"
            )
        parsed = []
        for index, entry in enumerate(edits):
            try:
                op, entry = _verb_payload(entry)
                parsed.append(EDIT_VERBS[op].from_payload(entry))
            except ValidationError as exc:
                raise ValidationError(f"edits[{index}]: {exc}") from None
        return cls(edits=tuple(parsed))


# --- response payloads ----------------------------------------------------------------
def _ps_or_none(seconds: Optional[float]) -> Optional[float]:
    return to_ps(seconds) if seconds is not None else None


def summary_payload(name: str, seq: int, report: TimingReport) -> Dict[str, Any]:
    """The WNS/WHS summary of one snapshot — array reductions only, no flatten."""
    has_events = bool(report.critical_path)
    total_delay = report.total_delay if has_events else None
    return {
        "design": name,
        "seq": seq,
        "nets": len(report.events),
        "events": report.n_events,
        "total_delay": total_delay,
        "total_delay_ps": _ps_or_none(total_delay),
        "wns": report.wns,
        "wns_ps": _ps_or_none(report.wns),
        "worst_slack": report.worst_slack,
        "whs": report.whs,
        "whs_ps": _ps_or_none(report.whs),
        "worst_hold_slack": report.worst_hold_slack,
    }


def slack_payload(
    name: str, seq: int, report: TimingReport, *, mode: str = "setup", limit: int = 20
) -> Dict[str, Any]:
    """The per-endpoint slack table of one snapshot (endpoint events only)."""
    _check_mode(mode)
    if not isinstance(limit, int) or limit < 1:
        raise ValidationError(f"limit must be a positive integer, got {limit!r}")
    table = report.endpoint_slacks(mode=mode)
    worst = report.wns if mode == "setup" else report.whs
    rows = [
        {
            "net": event.net,
            "transition": event.input_transition,
            "arrival": event.output_arrival if mode == "setup" else event.early_arrival,
            "required": event.required if mode == "setup" else event.hold_required,
            "slack": event.slack_for(mode),
            "slack_ps": _ps_or_none(event.slack_for(mode)),
        }
        for event in table[:limit]
    ]
    return {
        "design": name,
        "seq": seq,
        "mode": mode,
        "constrained_endpoints": len(table),
        "worst": worst,
        "worst_ps": _ps_or_none(worst),
        "endpoints": rows,
    }


def events_payload(name: str, seq: int, report: TimingReport, net: str) -> Dict[str, Any]:
    """One net's solved events (materializes exactly that net)."""
    try:
        per_net = report.events[net]
    except KeyError:
        raise KeyError(net) from None
    return {
        "design": name,
        "seq": seq,
        "net": net,
        "events": {transition: event.to_dict()
                   for transition, event in sorted(per_net.items())},
    }


def diff_payload(diff: ReportDiff, *, old_seq: int, new_seq: int,
                 limit: int = 20) -> Dict[str, Any]:
    """A :class:`ReportDiff` as JSON (the edit response's ``diff`` section)."""

    def rows(changes) -> List[Dict[str, Any]]:
        return [
            {"net": net, "transition": transition, "old": old, "new": new}
            for net, transition, old, new in changes[:limit]
        ]

    return {
        "old_seq": old_seq,
        "new_seq": new_seq,
        "old_wns": diff.old_wns,
        "new_wns": diff.new_wns,
        "old_whs": diff.old_whs,
        "new_whs": diff.new_whs,
        "old_total_delay": diff.old_total_delay,
        "new_total_delay": diff.new_total_delay,
        "setup_regressed": diff.setup_regressed,
        "hold_regressed": diff.hold_regressed,
        "regressed": diff.regressed,
        "added_events": diff.added_events,
        "removed_events": diff.removed_events,
        "changed_endpoints": rows(diff.changed_endpoints),
        "changed_hold_endpoints": rows(diff.changed_hold_endpoints),
        "n_changed_endpoints": len(diff.changed_endpoints),
        "n_changed_hold_endpoints": len(diff.changed_hold_endpoints),
    }
