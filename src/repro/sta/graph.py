"""Timing-graph data structures: nets with fanout, levelization, arrival merging.

Designs are DAGs: a driver's far end feeds several downstream gates, paths
reconverge, and a node can see both rising and falling events (paths of different
inverter parity).  :class:`TimingGraph` captures that shape:

* a :class:`GraphNet` is one driver + RLC net + its fanout (the nets whose drivers
  load this net's far end),
* :class:`PrimaryInput` attaches an input slew / transition / arrival to each root,
* :meth:`TimingGraph.levels` topologically levelizes the DAG so every net's fanin
  arrivals are final before the net is solved — the unit of batching for
  :mod:`repro.sta.batch`, and
* per-node rise/fall states are merged with worst-arrival semantics (the slew of
  the latest-arriving fanin wins; ties take the larger slew).

Timing is analyzed in *two event planes* over the same solved stages:

* the **late** plane answers setup questions — worst (maximum) arrival wins the
  per-node merge, ties take the larger slew — and
* the **early** plane answers hold/min-delay questions — best (minimum) arrival
  wins, ties take the *smaller* slew, mirroring the late merge.

Stage delays and slews are mode-independent (a stage is solved once, at the
late-merged slew), so carrying the early plane costs arithmetic only: dual-mode
analysis performs zero additional stage solves.

Beyond the static shape, a graph carries two kinds of mutable state that make
incremental, slack-aware analysis possible:

* **endpoint constraints** — :meth:`TimingGraph.set_required` pins a required
  time on an endpoint's far-end event (per rise/fall, or both, in either
  analysis mode), and :meth:`TimingGraph.set_clock_period` constrains every
  endpoint at once (its ``hold_margin`` seeds the min-delay checks).  The
  backward pass in :mod:`repro.sta.batch` propagates required times against the
  arrival flow (min-required wins per transition for setup, max-required for
  hold), which is where per-event ``required`` / ``slack`` and
  ``hold_required`` / ``hold_slack`` come from.
* **edit operations** — :meth:`resize_driver`, :meth:`set_line`,
  :meth:`set_extra_load`, :meth:`set_receiver`, :meth:`add_fanout`,
  :meth:`remove_fanout` and :meth:`set_input` mutate the design *in place* while
  keeping every construction-time invariant (edits that would break the graph
  raise and leave it untouched).  Instead of invalidating previous analyses,
  each edit marks the affected nets dirty; the incremental engine
  (``repro.sta.incremental_compiled.CompiledIncrementalEngine``) consumes
  :attr:`TimingGraph.dirty_nets` to re-time only the dirty cone.
* **transactions** — ``with graph.transaction():`` is a savepoint: if the
  block raises, every edit made in it is undone before the exception
  propagates, so a batch of edits plus its re-time is all-or-nothing.

The chain-shaped special case is produced by :func:`chain_graph`, which is how
:meth:`repro.api.TimingSession.time` times a :class:`TimingPath`.

Timing results are not modelled here: both the compiled engine and the object
reference sweep (:meth:`repro.sta.batch.GraphEngine.analyze`) report through
:class:`repro.api.TimingReport` and its :class:`repro.api.TimingEvent` records.
"""

from __future__ import annotations

import gc
import itertools
import math
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import (Any, Callable, Dict, FrozenSet, Iterator, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from ..core.driver_model import ModelingOptions
from ..errors import ModelingError
from ..interconnect.rlc_line import RLCLine
from .stage import TimingPath, TimingStage

__all__ = ["GraphNet", "PrimaryInput", "TimingGraph", "chain_graph",
           "IncrementalStats", "flip_transition", "event_options", "check_mode",
           "CHECK_MODES"]

#: Constraint polarities: "setup" checks late arrivals, "hold" checks early ones.
CHECK_MODES = ("setup", "hold")


#: ``slots=True`` where the running Python supports it (3.10+): a slotted net
#: stores its six fields and nothing else, ~48 bytes per net less than an
#: instance with attribute storage, and never a ``__dict__`` for the garbage
#: collector to track.
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}

#: The values of every graph's :attr:`~TimingGraph.stimulus_version` and
#: :attr:`~TimingGraph.constraint_version`: one process-wide sequence, so a
#: value names one state of one graph and a cache keyed on it never mistakes
#: one graph for another.
_INPUT_STAMPS = itertools.count(1)

#: Sources a fan-in tuple takes by copy during construction; the rest of a
#: wider fan-in is gathered in a list and joined once (see
#: :class:`TimingGraph`).  Copying is the cheaper way up to two sources
#: (~170 ns for one, ~280 ns for two, against ~240 / ~400 ns through a list
#: and ``tuple()``) and the dearer one from three, and almost every fan-in
#: of a generated design has one or two sources: in-process, assembling
#: ``soc_graph(100_000)``'s fan-ins took 42 ms this way and 72 ms with a
#: list for every net (best of 15, 2-CPU container, CPython 3.11).
_WIDE_FANIN = 2

#: Open :func:`_collector_paused` scopes of all threads, and whether the
#: outermost one found the collector enabled (and so re-enables it).
_PAUSE_LOCK = threading.Lock()
_pause_depth = 0
_pause_resumes = False


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector while a design is built in bulk.

    A 100k-net build allocates every net, fan-out tuple and index entry it
    keeps, so the collector's allocation counter trips hundreds of young
    passes and a couple of full ones, each walking all the survivors so far:
    about a quarter of the build.  None of it can be garbage, as the build
    keeps everything it makes.  Inside the scope no collection runs.  The
    outermost exit restores the collector; if the young generation passed
    its threshold meanwhile, one collection through generation 1 follows,
    so the build pays for its own survivors in the call that made them
    rather than leaving a backlog that a later read trips over.  Full
    collections stay the interpreter's to schedule.  A small build stays
    under the threshold and runs none.

    Re-entrant and thread-safe: a depth count under a lock keeps nested and
    concurrent builds from re-enabling the collector early.  If the caller
    had disabled the collector it stays disabled, and no collection runs.
    Usable as a decorator.
    """
    global _pause_depth, _pause_resumes
    with _PAUSE_LOCK:
        if not _pause_depth:
            _pause_resumes = gc.isenabled()
            gc.disable()
        _pause_depth += 1
    try:
        yield
    finally:
        with _PAUSE_LOCK:
            _pause_depth -= 1
            young_due = False
            if not _pause_depth and _pause_resumes:
                # Read before re-enabling: once enabled, any allocation
                # past the threshold starts an automatic collection.
                young_due = 0 < gc.get_threshold()[0] < gc.get_count()[0]
                gc.enable()
        if young_due:
            gc.collect(1)


def check_mode(mode: str) -> str:
    """Validate a constraint-polarity name; returns it unchanged."""
    if mode not in CHECK_MODES:
        raise ModelingError(
            f"analysis mode must be one of {CHECK_MODES}, got {mode!r}")
    return mode


def flip_transition(transition: str) -> str:
    """The opposite edge direction (an inverting stage flips every event)."""
    if transition == "rise":
        return "fall"
    if transition == "fall":
        return "rise"
    raise ModelingError(f"transition must be 'rise' or 'fall', got {transition!r}")


def event_options(base: ModelingOptions, input_transition: str) -> ModelingOptions:
    """The options a stage driven by an ``input_transition`` edge solves with."""
    return replace(base, transition=flip_transition(input_transition),
                   reference_time=0.0)


@dataclass(frozen=True, **_SLOTS)
class GraphNet:
    """One driver -> RLC net cell of a timing graph.

    ``fanout`` names the nets whose drivers sit at this net's far end (their input
    capacitances are this net's gate load); ``receiver_size`` adds a terminal
    receiver that is not itself part of the graph (a flop, an output pad), and
    ``extra_load`` any additional lumped capacitance.
    """

    name: str
    driver_size: float  #: driver strength in X units (must exist in the cell library)
    line: RLCLine  #: the net connecting the driver output to its receivers
    fanout: Tuple[str, ...] = ()  #: names of the nets this net's far end drives
    receiver_size: Optional[float] = None  #: terminal receiver size; None = none
    extra_load: float = 0.0  #: additional lumped far-end load [F]

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelingError("a graph net needs a non-empty name")
        # NaN compares false both ways, so finiteness is checked explicitly.
        if not (math.isfinite(self.driver_size) and self.driver_size > 0):
            raise ModelingError(
                f"net {self.name!r}: driver size must be positive and finite")
        if self.receiver_size is not None and not (
                math.isfinite(self.receiver_size) and self.receiver_size > 0):
            raise ModelingError(
                f"net {self.name!r}: receiver size must be positive and finite "
                "when given")
        if not (math.isfinite(self.extra_load) and self.extra_load >= 0):
            raise ModelingError(
                f"net {self.name!r}: extra load must be non-negative and finite")
        fanout = self.fanout
        if type(fanout) is not tuple:
            fanout = tuple(fanout)
            object.__setattr__(self, "fanout", fanout)
        if len(fanout) > 1 and len(set(fanout)) != len(fanout):
            raise ModelingError(f"net {self.name!r} lists a fanout twice")

    @property
    def is_endpoint(self) -> bool:
        """True when data is consumed here: a terminal receiver, or no fanout."""
        return self.receiver_size is not None or not self.fanout


@dataclass(frozen=True)
class PrimaryInput:
    """The stimulus presented at a root net's driver input."""

    slew: float  #: transition time of the primary-input ramp [s]
    transition: str = "rise"  #: edge direction at the driver *input*
    arrival: float = 0.0  #: absolute time of the input's 50% crossing [s]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.slew) and self.slew > 0):
            raise ModelingError("a primary input needs a positive, finite slew")
        if not math.isfinite(self.arrival):
            raise ModelingError("a primary input needs a finite arrival")
        flip_transition(self.transition)  # validates the direction name


#: A dict entry that does not exist: writing it deletes the key.
_MISSING: Any = object()


def _check_clock_period(period: Optional[float]) -> None:
    # NaN compares false both ways, so finiteness is checked explicitly.
    if period is not None and not (math.isfinite(period) and period > 0):
        raise ModelingError("clock period must be positive and finite when given")


class TimingGraph:
    """A levelized DAG of :class:`GraphNet` objects plus its primary inputs.

    Construction validates the shape once — unknown fanout targets, duplicate
    names, inputs attached to non-root nets, roots without inputs, and cycles all
    raise :class:`ModelingError` — so analysis code can trust the structure.  The
    edit operations preserve those invariants: an edit that would break the graph
    raises and leaves it unchanged, so a graph is *always* analyzable.

    Construction runs with the cyclic garbage collector paused (see
    :func:`_collector_paused`): a graph holds only what it was built from,
    so the collector's passes over a 100k-net build found nothing to free
    and cost about a quarter of the build.  The bulk builders that create
    the nets first (:func:`chain_graph`, the ``repro.experiments`` cases,
    ``DesignBuilder.build``) take the same pause around their whole work.
    """

    @_collector_paused()
    def __init__(self, nets: Sequence[GraphNet],
                 primary_inputs: Mapping[str, PrimaryInput], *,
                 clock_period: Optional[float] = None) -> None:
        if not nets:
            raise ModelingError("a timing graph needs at least one net")
        self.nets: Dict[str, GraphNet] = {net.name: net for net in nets}
        if len(self.nets) != len(nets):
            seen: Set[str] = set()
            for net in nets:
                if net.name in seen:
                    raise ModelingError(f"duplicate net name {net.name!r}")
                seen.add(net.name)
        # Fan-ins are tuples of names, not lists: the garbage collector
        # untracks a tuple that holds only strings, so a full collection
        # does not walk one container per net for as long as the graph lives.
        # A tuple grows by copy up to _WIDE_FANIN sources; the rest of a
        # wider fan-in is listed aside and joined once, so assembly stays
        # linear in the edges however many sources share one sink.
        fanin: Dict[str, Tuple[str, ...]] = dict.fromkeys(self.nets, ())
        wide: Dict[str, List[str]] = {}
        for net in self.nets.values():
            name = net.name
            for target in net.fanout:
                sources = fanin.get(target)
                if sources is None:
                    raise ModelingError(
                        f"net {name!r} drives unknown net {target!r}")
                if target == name:
                    raise ModelingError(f"net {name!r} drives itself")
                if len(sources) < _WIDE_FANIN:
                    fanin[target] = sources + (name,)
                else:
                    wide.setdefault(target, []).append(name)
        for target, extra in wide.items():
            fanin[target] += tuple(extra)
        self._fanin = fanin

        self.primary_inputs: Dict[str, PrimaryInput] = dict(primary_inputs)
        for name in self.primary_inputs:
            if name not in self.nets:
                raise ModelingError(f"primary input attached to unknown net {name!r}")
            if fanin[name]:
                raise ModelingError(
                    f"primary input attached to non-root net {name!r}")
        missing = [name for name, sources in fanin.items()
                   if not sources and name not in self.primary_inputs]
        if missing:
            raise ModelingError(
                f"root nets without a primary input: {sorted(missing)}")
        self._levels = self._levelize()
        # --- constraint + dirty state (consumed by the attached engine) -----------
        _check_clock_period(clock_period)
        self._clock_period: Optional[float] = clock_period
        self._hold_margin: Optional[float] = None
        #: mode -> net -> far-end transition -> pinned required time [s]
        self._required: Dict[str, Dict[str, Dict[str, float]]] = {
            mode: {} for mode in CHECK_MODES}
        self._dirty: Dict[str, bool] = {}  #: dirty net names (a dict to journal)
        self._constraints_dirty = False
        self._version = 0
        self._topology_version = 0
        self._stimulus_version = next(_INPUT_STAMPS)
        self._constraint_version = next(_INPUT_STAMPS)
        #: net name -> version at which its parameters (driver, line, load,
        #: receiver) last changed — the delta a compiled snapshot patches from.
        self._param_edits: Dict[str, int] = {}
        #: open transactions' (entries, rollback callbacks), outermost first
        self._savepoints: List[Tuple[dict, list]] = []

    @property
    def version(self) -> int:
        """Structural edit counter: bumps whenever a net is replaced in place.

        Constraints and primary inputs are *not* part of the version — they are
        read live at analysis time, so a compiled snapshot of the structure
        (:func:`repro.sta.compiled.compile_graph`) stays valid across
        :meth:`set_clock_period` / :meth:`set_required` / :meth:`set_input` and
        only goes stale on edits that change drivers, lines, loads or topology.
        """
        return self._version

    @property
    def topology_version(self) -> int:
        """Connectivity edit counter: bumps only on :meth:`add_fanout` /
        :meth:`remove_fanout`.

        Parameter edits (driver sizes, lines, loads, receivers) bump
        :attr:`version` but not this — a compiled snapshot whose topology
        version still matches can be *patched* in place
        (:meth:`repro.sta.compiled.CompiledGraph.patch`) instead of recompiled.
        """
        return self._topology_version

    @property
    def stimulus_version(self) -> int:
        """Primary-input edit counter: a new value on every :meth:`set_input`.

        Like :attr:`constraint_version` it only moves forward — a
        :meth:`transaction` that rolls back a :meth:`set_input` draws it a
        new value instead of restoring the old one — and its values are
        unique across all graphs of the process: caches of what the stimuli
        derive (the compiled sweep's seed arrays) key on it, and an equal
        value always means the same stimuli of the same graph.
        """
        return self._stimulus_version

    @property
    def constraint_version(self) -> int:
        """Constraint edit counter: a new value on every :meth:`set_clock_period`
        and :meth:`set_required` (monotonic and process-unique, see
        :attr:`stimulus_version`)."""
        return self._constraint_version

    def param_edits_since(self, version: int) -> Set[str]:
        """Names whose parameters changed after graph version ``version``.

        The set a compiled snapshot taken at ``version`` must re-intern to
        catch up; bounded by the net count (one entry per net, however many
        times it was edited).  Topology edits are *not* reported here — check
        :attr:`topology_version` first.
        """
        return {name for name, edited in self._param_edits.items()
                if edited > version}

    def _mark_param_edit(self, *names: str) -> None:
        for name in names:
            self._put(self._param_edits, name, self._version)

    # --- transactions -------------------------------------------------------------
    @contextmanager
    def transaction(self) -> Iterator[None]:
        """A savepoint: if the block raises, undo all it changed and re-raise.

        Scalars (versions, levels, clock defaults, dirty flag) are saved as
        the block opens, and each dict entry (net, fan-in, parameter-edit
        mark, input, pin, dirty net) at the block's first write to it, so the
        cost is what the block touches.  Transactions nest.  The stimulus
        and constraint versions are never restored: a rollback that undoes
        an input or constraint edit draws them a new value, so nothing
        cached under the block's values, or under the values before it, is
        taken for the restored state.
        """
        scalars = (self._version, self._topology_version, self._constraints_dirty,
                   self._levels, self._clock_period, self._hold_margin)
        stamps = (self._stimulus_version, self._constraint_version)
        entries: Dict[Tuple[int, str], Tuple[dict, str, Any]] = {}
        callbacks: List[Callable[["TimingGraph"], None]] = []
        self._savepoints.append((entries, callbacks))
        try:
            yield
        except BaseException:
            for store, key, value in entries.values():  # all journaled: no new entry
                self._put(store, key, value)
            (self._version, self._topology_version, self._constraints_dirty,
             self._levels, self._clock_period, self._hold_margin) = scalars
            # What was cached under the block's stamps describes undone
            # edits, and the stamps from before may have been replaced too.
            if self._stimulus_version != stamps[0]:
                self._stimulus_version = next(_INPUT_STAMPS)
            if self._constraint_version != stamps[1]:
                self._constraint_version = next(_INPUT_STAMPS)
            for callback in callbacks:
                callback(self)
            raise
        finally:
            self._savepoints.pop()

    def on_rollback(self, callback: Callable[["TimingGraph"], None]) -> None:
        """Call ``callback(graph)`` if an open transaction rolls back (for
        state derived from the block's edits); a no-op outside one."""
        for _, callbacks in self._savepoints:
            if callback not in callbacks:
                callbacks.append(callback)

    def _put(self, store: dict, key: str, value: Any) -> None:
        """``store[key] = value`` (``_MISSING`` deletes), journaled."""
        for entries, _ in self._savepoints:
            if (id(store), key) not in entries:
                entries[id(store), key] = (store, key, store.get(key, _MISSING))
        if value is _MISSING:
            store.pop(key, None)
        else:
            store[key] = value

    def _mark_dirty(self, *names: str) -> None:
        for name in names:
            self._put(self._dirty, name, True)

    # --- structure ----------------------------------------------------------------
    def _levelize(self) -> List[List[str]]:
        """Kahn topological levelization; raises on cycles."""
        nets = self.nets
        remaining = {name: len(fanin) for name, fanin in self._fanin.items()}
        current = [name for name, count in remaining.items() if count == 0]
        current.sort()
        levels: List[List[str]] = []
        placed = 0
        while current:
            levels.append(current)
            placed += len(current)
            ready: List[str] = []
            append = ready.append
            for name in current:
                for target in nets[name].fanout:
                    count = remaining[target] - 1
                    remaining[target] = count
                    if not count:
                        append(target)
            ready.sort()
            current = ready
        if placed != len(nets):
            cyclic = sorted(name for name, count in remaining.items() if count > 0)
            raise ModelingError(f"timing graph contains a cycle through {cyclic}")
        return levels

    @property
    def levels(self) -> List[List[str]]:
        """Topological levels: every net's fanins live in strictly earlier levels."""
        return [list(level) for level in self._levels]

    @property
    def n_levels(self) -> int:
        return len(self._levels)

    def fanin(self, name: str) -> List[str]:
        """Names of the nets driving ``name``'s driver input."""
        return list(self._fanin[name])

    @property
    def roots(self) -> List[str]:
        """Nets with no fanin (stimulated by primary inputs)."""
        return [name for name, fanin in self._fanin.items() if not fanin]

    @property
    def sinks(self) -> List[str]:
        """Nets with no fanout (the endpoints arrival queries care about)."""
        return [name for name, net in self.nets.items() if not net.fanout]

    @property
    def endpoints(self) -> List[str]:
        """Nets where data is consumed: terminal receivers and fanout-less sinks.

        These are the nets required-time constraints attach to (a clock period
        constrains all of them); a net can be both an endpoint and a
        through-point when it carries a terminal receiver *and* fanout.
        """
        return [name for name, net in self.nets.items() if net.is_endpoint]

    def __len__(self) -> int:
        return len(self.nets)

    def __contains__(self, name: str) -> bool:
        return name in self.nets

    def describe(self) -> str:
        """Single-line structural summary."""
        return (f"timing graph: {len(self.nets)} nets in {self.n_levels} levels, "
                f"{len(self.roots)} roots, {len(self.sinks)} sinks")

    # --- endpoint constraints -----------------------------------------------------
    @property
    def clock_period(self) -> Optional[float]:
        """The default setup required time applied to every endpoint (None = none)."""
        return self._clock_period

    @property
    def hold_margin(self) -> Optional[float]:
        """The default hold requirement applied to every endpoint (None = none)."""
        return self._hold_margin

    def set_clock_period(self, period: Optional[float], *,
                         hold_margin: Optional[float] = None) -> None:
        """Constrain every endpoint's far-end event to arrive by ``period`` [s].

        An explicit :meth:`set_required` on an endpoint overrides the period for
        that event (the tighter of the two wins during propagation).  ``None``
        removes the constraint.

        ``hold_margin`` additionally seeds the min-delay (hold) check at every
        endpoint: each endpoint's *early* arrival must be at least
        ``hold_margin`` [s] (0.0 is the conventional "no earlier than the clock
        edge" check).  Every call replaces both defaults — ``hold_margin=None``
        removes any previous margin.
        """
        _check_clock_period(period)
        if hold_margin is not None and not (math.isfinite(hold_margin)
                                            and hold_margin >= 0):
            raise ModelingError(
                "hold margin must be non-negative and finite when given")
        self._clock_period = period
        self._hold_margin = hold_margin
        self._constraints_dirty = True
        self._constraint_version = next(_INPUT_STAMPS)

    def set_required(self, name: str, required: Optional[float], *,
                     transition: Optional[str] = None,
                     mode: str = "setup") -> None:
        """Pin a required time on net ``name``'s far-end event [s].

        ``transition`` is the *far-end* (output) edge direction the constraint
        applies to; ``None`` constrains both directions.  ``required=None``
        removes the constraint.  ``mode`` selects the polarity: a ``"setup"``
        pin bounds the event's late arrival from above, a ``"hold"`` pin bounds
        its early arrival from below.  Constraints are usually placed on
        :attr:`endpoints`, but any net accepts one (it acts as an intermediate
        check point: propagation takes the tighter of the pin and the fanout-
        derived required time — the minimum for setup, the maximum for hold).
        """
        if name not in self.nets:
            raise ModelingError(f"cannot constrain unknown net {name!r}")
        check_mode(mode)
        directions = ([transition] if transition is not None
                      else ["rise", "fall"])
        for direction in directions:
            flip_transition(direction)  # validates the direction name
        if required is not None and not math.isfinite(required):
            raise ModelingError(f"required time of net {name!r} must be finite")
        pins = self._required[mode]
        per_net = dict(pins.get(name, ()))
        for direction in directions:
            if required is None:
                per_net.pop(direction, None)
            else:
                per_net[direction] = required
        self._put(pins, name, per_net if per_net else _MISSING)
        self._constraints_dirty = True
        self._constraint_version = next(_INPUT_STAMPS)

    def required_for(self, name: str, transition: str,
                     mode: str = "setup") -> Optional[float]:
        """The ``mode`` constraint seed of net ``name``'s ``transition`` event.

        Explicit pins win; otherwise endpoints inherit the clock period (setup)
        or the hold margin (hold); other nets are unconstrained (None).
        Propagated required times from fanout are layered on top of this seed
        by the engine's backward pass.
        """
        check_mode(mode)
        pinned = self._required[mode].get(name, {}).get(transition)
        if pinned is not None:
            return pinned
        default = self._clock_period if mode == "setup" else self._hold_margin
        if default is not None and self.nets[name].is_endpoint:
            return default
        return None

    def required_pins(self, mode: str = "setup") -> Dict[str, Dict[str, float]]:
        """All explicit :meth:`set_required` pins of ``mode``, as a copy.

        Maps net name -> far-end transition -> pinned required time [s].  The
        array engine uses this to seed its vectorized backward pass (pins win
        over the clock-period / hold-margin default, exactly as in
        :meth:`required_for`); the copy keeps callers from mutating constraint
        state behind the dirty tracking.
        """
        check_mode(mode)
        return {name: dict(per_net)
                for name, per_net in self._required[mode].items()}

    @property
    def setup_constrained(self) -> bool:
        """True when any setup (max-delay) constraint is in force."""
        return self._clock_period is not None or bool(self._required["setup"])

    @property
    def hold_constrained(self) -> bool:
        """True when any hold (min-delay) constraint is in force."""
        return self._hold_margin is not None or bool(self._required["hold"])

    @property
    def constrained(self) -> bool:
        """True when any required-time constraint (either mode) is in force."""
        return self.setup_constrained or self.hold_constrained

    # --- dirty tracking -----------------------------------------------------------
    @property
    def dirty_nets(self) -> FrozenSet[str]:
        """Nets whose timing is stale since the last :meth:`clear_dirty`."""
        return frozenset(self._dirty)

    @property
    def constraints_dirty(self) -> bool:
        """True when constraints changed since the last :meth:`clear_dirty`."""
        return self._constraints_dirty

    def clear_dirty(self) -> None:
        """Mark the current state as timed (one incremental consumer's ack)."""
        if self._savepoints:
            for name in list(self._dirty):
                self._put(self._dirty, name, _MISSING)
        self._dirty.clear()
        self._constraints_dirty = False

    # --- edits ----------------------------------------------------------------------
    def _replace_net(self, name: str, **changes) -> GraphNet:
        net = replace(self.nets[name], **changes)
        self._put(self.nets, name, net)
        self._version += 1
        return net

    def resize_driver(self, name: str, driver_size: float) -> None:
        """Change net ``name``'s driver strength [X].

        Dirties the net itself *and* its fanin nets — the resized driver's input
        capacitance is part of every fanin net's far-end load.
        """
        if name not in self.nets:
            raise ModelingError(f"cannot resize unknown net {name!r}")
        self._replace_net(name, driver_size=driver_size)  # GraphNet validates
        self._mark_param_edit(name, *self._fanin[name])
        self._mark_dirty(name, *self._fanin[name])

    def set_line(self, name: str, line: RLCLine) -> None:
        """Swap net ``name``'s RLC line (a re-route); dirties the net."""
        if name not in self.nets:
            raise ModelingError(f"cannot re-route unknown net {name!r}")
        if not isinstance(line, RLCLine):
            raise ModelingError("set_line() expects an RLCLine")
        self._replace_net(name, line=line)
        self._mark_param_edit(name)
        self._mark_dirty(name)

    def set_extra_load(self, name: str, extra_load: float) -> None:
        """Change net ``name``'s additional lumped far-end load [F]."""
        if name not in self.nets:
            raise ModelingError(f"cannot re-load unknown net {name!r}")
        self._replace_net(name, extra_load=extra_load)
        self._mark_param_edit(name)
        self._mark_dirty(name)

    def set_receiver(self, name: str, receiver_size: Optional[float]) -> None:
        """Change (or with None remove) net ``name``'s terminal receiver."""
        if name not in self.nets:
            raise ModelingError(f"cannot re-terminate unknown net {name!r}")
        net = self.nets[name]
        if receiver_size is None and not net.fanout:
            raise ModelingError(
                f"net {name!r} has no fanout; removing its receiver would leave "
                "a floating sink")
        self._replace_net(name, receiver_size=receiver_size)
        self._mark_param_edit(name)
        self._mark_dirty(name)

    def set_input(self, name: str, primary_input: PrimaryInput) -> None:
        """Replace the stimulus of root net ``name``."""
        if name not in self.primary_inputs:
            raise ModelingError(
                f"net {name!r} has no primary input to replace")
        if not isinstance(primary_input, PrimaryInput):
            raise ModelingError("set_input() expects a PrimaryInput")
        self._put(self.primary_inputs, name, primary_input)
        self._mark_dirty(name)
        self._stimulus_version = next(_INPUT_STAMPS)

    def add_fanout(self, driver: str, sink: str) -> None:
        """Connect ``driver``'s far end to ``sink``'s driver input.

        Rejects edits that would break the graph: unknown nets, self loops,
        duplicate edges, edges into a stimulated root (a primary input may only
        sit on a root), and cycles (detected by re-levelizing; the edge is
        reverted).  Dirties both nets — the driver's load changed and the sink
        gained an arrival source.
        """
        if driver not in self.nets:
            raise ModelingError(f"cannot connect from unknown net {driver!r}")
        if sink not in self.nets:
            raise ModelingError(f"cannot connect to unknown net {sink!r}")
        if driver == sink:
            raise ModelingError(f"net {driver!r} cannot drive itself")
        old = self.nets[driver]
        if sink in old.fanout:
            raise ModelingError(f"net {driver!r} already drives {sink!r}")
        if sink in self.primary_inputs:
            raise ModelingError(
                f"net {sink!r} is stimulated by a primary input; it cannot also "
                "be driven by another net")
        with self.transaction():
            self._replace_net(driver, fanout=old.fanout + (sink,))
            self._put(self._fanin, sink, self._fanin[sink] + (driver,))
            self._levels = self._levelize()
        self._topology_version += 1
        self._mark_dirty(driver, sink)

    def remove_fanout(self, driver: str, sink: str) -> None:
        """Disconnect ``driver``'s far end from ``sink``'s driver input.

        Raises (leaving the graph unchanged) when the edge does not exist or
        when removing it would orphan ``sink`` — a root must carry a primary
        input, so attach one with :meth:`set_input` only after re-rooting is
        made valid by other structure.
        """
        if driver not in self.nets:
            raise ModelingError(f"cannot disconnect unknown net {driver!r}")
        old = self.nets[driver]
        if sink not in old.fanout:
            raise ModelingError(f"net {driver!r} does not drive {sink!r}")
        if len(self._fanin[sink]) == 1 and sink not in self.primary_inputs:
            raise ModelingError(
                f"removing {driver!r} -> {sink!r} would leave {sink!r} a root "
                "without a primary input")
        self._replace_net(
            driver, fanout=tuple(n for n in old.fanout if n != sink))
        self._put(self._fanin, sink,
                  tuple(n for n in self._fanin[sink] if n != driver))
        self._levels = self._levelize()
        self._topology_version += 1
        self._mark_dirty(driver, sink)


@_collector_paused()
def chain_graph(path: TimingPath, *, input_transition: str = "rise"
                ) -> Tuple[TimingGraph, List[str]]:
    """The chain-shaped graph equivalent to ``path``.

    Returns the graph plus the net name of each stage in path order (names are
    uniquified when stages share names).  Intermediate receivers become fanout
    edges — :class:`TimingPath` validates each stage's receiver against the next
    stage's driver to within 1e-12X, and the gate load keys off the fanout driver
    size — and the last stage's receiver stays a terminal load, so per-stage gate
    loads equal the stage's own load (extra load plus receiver input
    capacitance) bit-for-bit whenever the sizes are exactly equal (the
    overwhelmingly common case).
    """
    stages: List[TimingStage] = path.stage_list
    names: List[str] = []
    used: set = set()
    for stage in stages:
        name = stage.name
        suffix = 1
        while name in used:  # uniquify against every name, literal '#k' included
            name = f"{stage.name}#{suffix}"
            suffix += 1
        used.add(name)
        names.append(name)
    nets = []
    for index, stage in enumerate(stages):
        last = index == len(stages) - 1
        nets.append(GraphNet(
            name=names[index], driver_size=stage.driver_size, line=stage.line,
            fanout=() if last else (names[index + 1],),
            receiver_size=stage.receiver_size if last else None,
            extra_load=stage.extra_load))
    inputs = {names[0]: PrimaryInput(slew=path.input_slew,
                                     transition=input_transition)}
    return TimingGraph(nets, inputs), names


@dataclass(frozen=True)
class IncrementalStats:
    """How much of the graph one incremental update actually touched."""

    dirty_nets: int  #: nets the edits marked dirty
    retimed_nets: int  #: forward cone: nets whose arrivals were recomputed
    retimed_events: int  #: (net, transition) events re-solved or re-merged
    required_nets: int  #: backward region: nets whose required times were refreshed
    hold_required_nets: int = 0  #: hold cone: nets whose hold requirements were refreshed
    patched_nets: int = 0  #: compiled entries rewritten in place (no recompile)
    cone_converged_early: int = 0  #: cone nets whose outputs converged bit-identical
