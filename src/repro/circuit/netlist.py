"""Circuit (netlist) container.

A :class:`Circuit` is an ordered collection of elements referencing nodes by name.
Nodes are implicit: they come into existence when an element references them.  The
ground node is named ``"0"`` by default and is the MNA reference.

The class offers convenience builders (``circuit.resistor(...)``,
``circuit.capacitor(...)``, ...) that auto-generate unique names, which keeps
programmatic construction of ladder networks and gate netlists terse.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type, TypeVar

from ..errors import CircuitError
from .elements import (Capacitor, CurrentSource, Element, Inductor, Resistor,
                       VoltageSource)
from .mosfet import Mosfet, MosfetParameters

__all__ = ["Circuit", "GROUND"]

#: Default name of the reference (ground) node.
GROUND = "0"

E = TypeVar("E", bound=Element)


class Circuit:
    """A flat netlist of circuit elements."""

    def __init__(self, name: str = "circuit", *, ground: str = GROUND) -> None:
        self.name = name
        self.ground = ground
        self._elements: Dict[str, Element] = {}
        self._node_order: List[str] = []
        self._node_set: set = set()
        self._auto_counters: Dict[str, int] = {}

    # --- element management -----------------------------------------------------
    def add(self, element: Element) -> Element:
        """Add a pre-constructed element, registering its nodes."""
        if element.name in self._elements:
            raise CircuitError(f"duplicate element name {element.name!r}")
        self._elements[element.name] = element
        for node in element.nodes:
            self._register_node(node)
        return element

    def _register_node(self, node: str) -> None:
        if not node:
            raise CircuitError("node names must be non-empty strings")
        if node not in self._node_set:
            self._node_set.add(node)
            if node != self.ground:
                self._node_order.append(node)

    def _auto_name(self, prefix: str) -> str:
        count = self._auto_counters.get(prefix, 0) + 1
        self._auto_counters[prefix] = count
        name = f"{prefix}{count}"
        while name in self._elements:
            count += 1
            self._auto_counters[prefix] = count
            name = f"{prefix}{count}"
        return name

    # --- convenience builders ------------------------------------------------------
    def resistor(self, node_pos: str, node_neg: str, resistance: float,
                 name: Optional[str] = None) -> Resistor:
        """Add a resistor and return it."""
        return self.add(Resistor(name or self._auto_name("R"), node_pos, node_neg,
                                 resistance))

    def capacitor(self, node_pos: str, node_neg: str, capacitance: float,
                  name: Optional[str] = None, *, initial_voltage: float = 0.0) -> Capacitor:
        """Add a capacitor and return it."""
        return self.add(Capacitor(name or self._auto_name("C"), node_pos, node_neg,
                                  capacitance, initial_voltage=initial_voltage))

    def inductor(self, node_pos: str, node_neg: str, inductance: float,
                 name: Optional[str] = None, *, initial_current: float = 0.0) -> Inductor:
        """Add an inductor and return it."""
        return self.add(Inductor(name or self._auto_name("L"), node_pos, node_neg,
                                 inductance, initial_current=initial_current))

    def voltage_source(self, node_pos: str, node_neg: str, source,
                       name: Optional[str] = None) -> VoltageSource:
        """Add an independent voltage source (a number or a SourceFunction)."""
        return self.add(VoltageSource(name or self._auto_name("V"), node_pos, node_neg,
                                      source))

    def current_source(self, node_pos: str, node_neg: str, source,
                       name: Optional[str] = None) -> CurrentSource:
        """Add an independent current source (a number or a SourceFunction)."""
        return self.add(CurrentSource(name or self._auto_name("I"), node_pos, node_neg,
                                      source))

    def mosfet(self, drain: str, gate: str, source: str, params: MosfetParameters,
               width: float, name: Optional[str] = None) -> Mosfet:
        """Add a MOSFET and return it."""
        return self.add(Mosfet(name or self._auto_name("M"), drain, gate, source,
                               params, width))

    # --- queries ----------------------------------------------------------------------
    @property
    def elements(self) -> Tuple[Element, ...]:
        """All elements in insertion order."""
        return tuple(self._elements.values())

    def element(self, name: str) -> Element:
        """Look up an element by name."""
        try:
            return self._elements[name]
        except KeyError:
            raise CircuitError(f"no element named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def elements_of_type(self, element_type: Type[E]) -> Tuple[E, ...]:
        """All elements that are instances of ``element_type``."""
        return tuple(e for e in self._elements.values() if isinstance(e, element_type))

    @property
    def node_names(self) -> Tuple[str, ...]:
        """Non-ground node names in first-reference order."""
        return tuple(self._node_order)

    def has_node(self, node: str) -> bool:
        """True if any element references ``node`` (including ground)."""
        return node in self._node_set

    @property
    def is_linear(self) -> bool:
        """True when the circuit contains no nonlinear elements."""
        return not any(e.is_nonlinear for e in self._elements.values())

    def connected_elements(self, node: str) -> Tuple[Element, ...]:
        """All elements with a terminal on ``node``."""
        return tuple(e for e in self._elements.values() if node in e.nodes)

    def validate(self) -> None:
        """Basic sanity checks: ground referenced, every node reachable from an element.

        Raises :class:`CircuitError` on failure.  This is intentionally light-weight;
        the MNA solve will report singular systems for truly ill-formed circuits.
        """
        if not self._elements:
            raise CircuitError("circuit has no elements")
        if self.ground not in self._node_set:
            raise CircuitError(
                f"circuit does not reference the ground node {self.ground!r}"
            )

    # --- export ------------------------------------------------------------------------
    def summary(self) -> str:
        """A short human-readable description (element and node counts by type)."""
        counts: Dict[str, int] = {}
        for element in self._elements.values():
            counts[type(element).__name__] = counts.get(type(element).__name__, 0) + 1
        parts = ", ".join(f"{n} {t}" for t, n in sorted(counts.items()))
        return (f"Circuit {self.name!r}: {len(self._elements)} elements "
                f"({parts}), {len(self._node_order)} nodes + ground")

    def __repr__(self) -> str:
        return f"<Circuit {self.name!r} elements={len(self._elements)}>"

