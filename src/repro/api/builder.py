"""Fluent construction of timing designs without touching graph internals.

:class:`DesignBuilder` accumulates nets, stimuli and connectivity through a
chainable interface and materializes a validated
:class:`~repro.sta.graph.TimingGraph` on :meth:`~DesignBuilder.build` — callers
never assemble :class:`~repro.sta.graph.GraphNet` tuples or fanout lists by
hand::

    graph = (DesignBuilder("bus")
             .chain("a", sizes=(75, 100), line=line, input_slew=ps(100))
             .net("tap", driver_size=50, line=line, receiver_size=25)
             .connect("a_s1", "tap")
             .build())

Because fanout is resolved only at build time, nets can be declared in any order
and edges added after the fact with :meth:`~DesignBuilder.connect`.

Beyond declaration, the builder carries *edit verbs* mirroring the in-place
edit operations of :class:`~repro.sta.graph.TimingGraph` —
:meth:`~DesignBuilder.resize`, :meth:`~DesignBuilder.set_line`,
:meth:`~DesignBuilder.set_load`, :meth:`~DesignBuilder.set_receiver`,
:meth:`~DesignBuilder.disconnect` — plus endpoint constraints of both analysis
modes (:meth:`~DesignBuilder.require`, :meth:`~DesignBuilder.clock`), so a
what-if variant of a design is a few chained calls and a re-``build()``.  For
*incremental* what-ifs, edit the built :class:`TimingGraph` itself and hand it
to :meth:`repro.api.TimingSession.update`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ModelingError
from ..interconnect.rlc_line import RLCLine
from ..sta.graph import (
    GraphNet,
    PrimaryInput,
    TimingGraph,
    _collector_paused,
    check_mode,
    flip_transition,
)

__all__ = ["DesignBuilder"]


class _NetSpec:
    """Mutable accumulator for one net (fanout grows until build)."""

    __slots__ = ("driver_size", "line", "fanout", "receiver_size", "extra_load")

    def __init__(
        self,
        driver_size: float,
        line: RLCLine,
        fanout: List[str],
        receiver_size: Optional[float],
        extra_load: float,
    ) -> None:
        self.driver_size = driver_size
        self.line = line
        self.fanout = fanout
        self.receiver_size = receiver_size
        self.extra_load = extra_load


class DesignBuilder:
    """Chainable builder for :class:`~repro.sta.graph.TimingGraph` designs."""

    def __init__(self, name: str = "design") -> None:
        if not name:
            raise ModelingError("a design needs a non-empty name")
        self.name = name
        self._nets: Dict[str, _NetSpec] = {}
        self._inputs: Dict[str, PrimaryInput] = {}
        self._required: List[Tuple[str, float, Optional[str], str]] = []
        self._clock_period: Optional[float] = None
        self._hold_margin: Optional[float] = None

    # --- declaration ------------------------------------------------------------------
    def net(
        self,
        name: str,
        *,
        driver_size: float,
        line: RLCLine,
        fanout: Sequence[str] = (),
        receiver_size: Optional[float] = None,
        extra_load: float = 0.0,
    ) -> "DesignBuilder":
        """Declare one driver + RLC net cell (chainable)."""
        if name in self._nets:
            raise ModelingError(f"design {self.name!r} already has a net {name!r}")
        self._nets[name] = _NetSpec(
            driver_size=driver_size,
            line=line,
            fanout=list(fanout),
            receiver_size=receiver_size,
            extra_load=extra_load,
        )
        return self

    def input(
        self, name: str, slew: float, *, transition: str = "rise", arrival: float = 0.0
    ) -> "DesignBuilder":
        """Attach a primary-input stimulus to net ``name`` (chainable)."""
        if name in self._inputs:
            raise ModelingError(f"design {self.name!r} already stimulates net {name!r}")
        self._inputs[name] = PrimaryInput(slew=slew, transition=transition, arrival=arrival)
        return self

    def connect(self, driver: str, *sinks: str) -> "DesignBuilder":
        """Add fanout edges from ``driver`` to each sink net (chainable).

        The driver must already be declared; sinks may be declared later (build
        validates the final shape).
        """
        if not sinks:
            raise ModelingError("connect() needs at least one sink net")
        try:
            spec = self._nets[driver]
        except KeyError:
            raise ModelingError(
                f"design {self.name!r} has no net {driver!r} to connect from; "
                "declare it with net() or chain() first"
            ) from None
        for sink in sinks:
            if sink not in spec.fanout:
                spec.fanout.append(sink)
        return self

    def chain(
        self,
        prefix: str,
        *,
        sizes: Sequence[float],
        line: "RLCLine | Sequence[RLCLine]",
        input_slew: float,
        receiver_size: Optional[float] = None,
        transition: str = "rise",
        arrival: float = 0.0,
    ) -> "DesignBuilder":
        """Declare a linear repeatered route plus its stimulus (chainable).

        Stage ``i`` is named ``{prefix}_s{i}``, drives with ``sizes[i]`` over
        ``line`` (a single flavor, or a sequence cycled along the chain), and
        feeds the next stage; the last stage optionally drives a terminal
        ``receiver_size``.  The first stage gets a :class:`PrimaryInput` with
        ``input_slew`` / ``transition`` / ``arrival``.
        """
        sizes = list(sizes)
        if not sizes:
            raise ModelingError("a chain needs at least one driver size")
        lines = [line] if isinstance(line, RLCLine) else list(line)
        if not lines:
            raise ModelingError("a chain needs at least one line flavor")
        names = [f"{prefix}_s{index}" for index in range(len(sizes))]
        for index, (name, size) in enumerate(zip(names, sizes)):
            last = index == len(sizes) - 1
            self.net(
                name,
                driver_size=size,
                line=lines[index % len(lines)],
                fanout=() if last else (names[index + 1],),
                receiver_size=receiver_size if last else None,
            )
        return self.input(names[0], input_slew, transition=transition, arrival=arrival)

    # --- constraints ------------------------------------------------------------------
    def require(
        self,
        name: str,
        required: float,
        *,
        transition: Optional[str] = None,
        mode: str = "setup",
    ) -> "DesignBuilder":
        """Pin a required far-end arrival on net ``name`` [s] (chainable).

        ``transition`` is the far-end edge direction the constraint applies to
        (None = both); ``mode`` the polarity — a ``"setup"`` pin bounds the
        late arrival from above, a ``"hold"`` pin bounds the early arrival from
        below.  The pin is applied to the graph at build time via
        :meth:`TimingGraph.set_required`.
        """
        if transition is not None:
            flip_transition(transition)  # validates the direction name
        check_mode(mode)
        self._required.append((name, required, transition, mode))
        return self

    def clock(
        self, period: float, *, hold_margin: Optional[float] = None
    ) -> "DesignBuilder":
        """Constrain every endpoint to arrive within ``period`` [s] (chainable).

        ``hold_margin`` additionally requires every endpoint's *early* arrival
        to clear that margin [s] — the min-delay (hold/race) check.
        """
        if period <= 0:
            raise ModelingError("clock period must be positive")
        if hold_margin is not None and hold_margin < 0:
            raise ModelingError("hold margin must be non-negative when given")
        self._clock_period = period
        self._hold_margin = hold_margin
        return self

    # --- edit verbs -------------------------------------------------------------------
    def _spec(self, name: str, action: str) -> _NetSpec:
        try:
            return self._nets[name]
        except KeyError:
            raise ModelingError(
                f"design {self.name!r} has no net {name!r} to {action}; "
                "declare it with net() or chain() first"
            ) from None

    def resize(self, name: str, driver_size: float) -> "DesignBuilder":
        """Change a declared net's driver strength [X] (chainable)."""
        self._spec(name, "resize").driver_size = driver_size
        return self

    def set_line(self, name: str, line: RLCLine) -> "DesignBuilder":
        """Swap a declared net's RLC line (chainable)."""
        if not isinstance(line, RLCLine):
            raise ModelingError("set_line() expects an RLCLine")
        self._spec(name, "re-route").line = line
        return self

    def set_load(self, name: str, extra_load: float) -> "DesignBuilder":
        """Change a declared net's additional lumped load [F] (chainable)."""
        self._spec(name, "re-load").extra_load = extra_load
        return self

    def set_receiver(self, name: str, receiver_size: Optional[float]) -> "DesignBuilder":
        """Change (or with None remove) a declared net's terminal receiver."""
        self._spec(name, "re-terminate").receiver_size = receiver_size
        return self

    def disconnect(self, driver: str, *sinks: str) -> "DesignBuilder":
        """Remove fanout edges from ``driver`` to each sink (chainable)."""
        if not sinks:
            raise ModelingError("disconnect() needs at least one sink net")
        spec = self._spec(driver, "disconnect from")
        for sink in sinks:
            if sink not in spec.fanout:
                raise ModelingError(
                    f"design {self.name!r}: net {driver!r} does not drive {sink!r}"
                )
            spec.fanout.remove(sink)
        return self

    # --- introspection ----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nets)

    def __contains__(self, name: str) -> bool:
        return name in self._nets

    @property
    def net_names(self) -> Tuple[str, ...]:
        """Declared net names, in declaration order."""
        return tuple(self._nets)

    # --- materialization --------------------------------------------------------------
    @_collector_paused()
    def build(self) -> TimingGraph:
        """Materialize the accumulated design as a validated timing graph.

        The builder stays usable afterwards (build again after more edits);
        structural problems — unknown fanout targets, cycles, roots without
        stimuli — surface here as :class:`~repro.errors.ModelingError`.
        The build runs with the cyclic garbage collector paused, as
        :class:`TimingGraph` construction does: every net it creates is
        kept, so collections during it could free nothing.  If it allocated
        past the young threshold, one collection follows as it ends; a
        small design (a 1k-net serve attach) runs none.
        """
        nets = [
            GraphNet(
                name=name,
                driver_size=spec.driver_size,
                line=spec.line,
                fanout=tuple(spec.fanout),
                receiver_size=spec.receiver_size,
                extra_load=spec.extra_load,
            )
            for name, spec in self._nets.items()
        ]
        graph = TimingGraph(nets, dict(self._inputs), clock_period=self._clock_period)
        if self._hold_margin is not None:
            graph.set_clock_period(self._clock_period, hold_margin=self._hold_margin)
        for name, required, transition, mode in self._required:
            graph.set_required(name, required, transition=transition, mode=mode)
        graph.clear_dirty()  # a fresh build has no stale timing to invalidate
        return graph
