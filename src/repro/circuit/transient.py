"""Transient (time-domain) analysis.

The engine integrates the circuit equations with a fixed time step using either the
trapezoidal rule (default, second-order, A-stable — appropriate for lightly damped
RLC ladders) or backward Euler.  Reactive elements are replaced by their companion
models at each step; nonlinear devices (MOSFETs) are resolved with Newton-Raphson
iterations per time point.

Performance notes
-----------------
* The linear portion of the MNA matrix depends only on the time step, so it is
  assembled and LU-factorized once.  Circuits without MOSFETs (for example a
  two-ramp voltage source driving an RLC ladder) reuse that factorization for every
  time point.
* MOSFET stamps only touch the handful of matrix entries between their terminal
  nodes.  The Newton solve therefore uses the pre-factorized linear matrix plus a
  low-rank Woodbury correction instead of re-factorizing the full matrix at every
  iteration.  A full re-factorization path exists as a fallback.
* History terms for the (typically many) capacitors and inductors of ladder
  networks are computed with vectorized numpy operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy.sparse import linalg as spla

from ..analysis.waveform import Waveform
from ..constants import NEWTON_ITOL, NEWTON_MAX_ITERATIONS, NEWTON_VTOL
from ..errors import ConvergenceError, SimulationError
from .elements import Capacitor, CurrentSource, Inductor, Resistor, VoltageSource
from .mna import MnaIndex, StampAccumulator
from .mosfet import Mosfet
from .netlist import Circuit

__all__ = ["SourceKernel", "TransientOptions", "TransientResult",
           "linear_source_kernel", "run_transient"]


@dataclass(frozen=True)
class TransientOptions:
    """Settings for :func:`run_transient`."""

    dt: float  #: fixed integration step [s]
    method: str = "trap"  #: "trap" (trapezoidal) or "be" (backward Euler)
    newton_vtol: float = NEWTON_VTOL  #: Newton voltage convergence tolerance [V]
    newton_itol: float = NEWTON_ITOL  #: Newton branch-current tolerance [A]
    max_newton_iterations: int = NEWTON_MAX_ITERATIONS
    voltage_step_limit: float = 1.0  #: Newton damping: max node-voltage update per iteration [V]
    use_dc_operating_point: bool = True  #: start from the DC solution at t = 0
    initial_node_voltages: Optional[Dict[str, float]] = None  #: overrides DC start
    store_branch_currents: bool = True

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise SimulationError("transient time step must be positive")
        if self.method not in ("trap", "be"):
            raise SimulationError(f"unknown integration method {self.method!r}")


class TransientResult:
    """Time-domain solution: node voltages and branch currents versus time."""

    def __init__(self, index: MnaIndex, times: np.ndarray, voltages: np.ndarray,
                 branch_currents: Optional[np.ndarray]) -> None:
        self._index = index
        self.times = times
        self._voltages = voltages
        self._branch_currents = branch_currents

    @property
    def node_names(self) -> Sequence[str]:
        """Names of the non-ground nodes in column order."""
        return self._index.node_names

    def voltage(self, node: str) -> np.ndarray:
        """Voltage samples of ``node`` (zeros for the ground node)."""
        idx = self._index.node(node)
        if idx is None:
            return np.zeros_like(self.times)
        return self._voltages[:, idx]

    def waveform(self, node: str) -> Waveform:
        """Voltage of ``node`` as a :class:`~repro.analysis.waveform.Waveform`."""
        return Waveform(self.times, self.voltage(node))

    def differential_waveform(self, node_pos: str, node_neg: str) -> Waveform:
        """Waveform of ``v(node_pos) - v(node_neg)``."""
        return Waveform(self.times, self.voltage(node_pos) - self.voltage(node_neg))

    def branch_current(self, element_name: str) -> np.ndarray:
        """Branch current samples of a voltage source or inductor."""
        if self._branch_currents is None:
            raise SimulationError("branch currents were not stored for this run")
        idx = self._index.branch(element_name) - self._index.n_nodes
        return self._branch_currents[:, idx]

    def source_delivered_current(self, source_name: str) -> np.ndarray:
        """Current delivered by a voltage source into the circuit (out of its + terminal)."""
        return -self.branch_current(source_name)

    def final_voltages(self) -> Dict[str, float]:
        """Node voltages at the final time point."""
        return {name: float(self._voltages[-1, i])
                for i, name in enumerate(self._index.node_names)}


class _TransientEngine:
    """Internal: prepares static stamps and integrates the circuit in time."""

    def __init__(self, circuit: Circuit, options: TransientOptions) -> None:
        self.circuit = circuit
        self.options = options
        self.index = MnaIndex(circuit)
        self.size = self.index.size

        self.resistors = circuit.elements_of_type(Resistor)
        self.capacitors = circuit.elements_of_type(Capacitor)
        self.inductors = circuit.elements_of_type(Inductor)
        self.vsources = circuit.elements_of_type(VoltageSource)
        self.isources = circuit.elements_of_type(CurrentSource)
        self.mosfets = circuit.elements_of_type(Mosfet)

        self._prepare_index_arrays()
        self._build_static_matrix()
        self._prepare_mosfet_maps()

    # --- preparation ------------------------------------------------------------
    def _node_idx(self, name: str) -> int:
        """Node index with ground mapped to -1 (last slot of the augmented vector)."""
        idx = self.index.node(name)
        return -1 if idx is None else idx

    def _prepare_index_arrays(self) -> None:
        index = self.index
        self.cap_pos = np.array([self._node_idx(c.node_pos) for c in self.capacitors],
                                dtype=int)
        self.cap_neg = np.array([self._node_idx(c.node_neg) for c in self.capacitors],
                                dtype=int)
        self.cap_value = np.array([c.capacitance for c in self.capacitors], dtype=float)
        self.ind_pos = np.array([self._node_idx(l.node_pos) for l in self.inductors],
                                dtype=int)
        self.ind_neg = np.array([self._node_idx(l.node_neg) for l in self.inductors],
                                dtype=int)
        self.ind_value = np.array([l.inductance for l in self.inductors], dtype=float)
        self.ind_branch = np.array([index.branch(l) for l in self.inductors], dtype=int)
        self.vsrc_branch = np.array([index.branch(v) for v in self.vsources], dtype=int)

    def _build_static_matrix(self) -> None:
        """Assemble the solution-independent part of the MNA matrix for this dt."""
        dt = self.options.dt
        trap = self.options.method == "trap"
        acc = StampAccumulator(self.size)
        index = self.index

        for resistor in self.resistors:
            acc.add_conductance(index.node(resistor.node_pos),
                                index.node(resistor.node_neg), resistor.conductance)

        self.cap_geq = (2.0 if trap else 1.0) * self.cap_value / dt
        for cap, geq in zip(self.capacitors, self.cap_geq):
            acc.add_conductance(index.node(cap.node_pos), index.node(cap.node_neg),
                                float(geq))

        self.ind_req = (2.0 if trap else 1.0) * self.ind_value / dt
        for inductor, req in zip(self.inductors, self.ind_req):
            pos = index.node(inductor.node_pos)
            neg = index.node(inductor.node_neg)
            branch = index.branch(inductor)
            acc.add_entry(pos, branch, 1.0)
            acc.add_entry(neg, branch, -1.0)
            acc.add_entry(branch, pos, 1.0)
            acc.add_entry(branch, neg, -1.0)
            acc.add_entry(branch, branch, -float(req))

        for vsource in self.vsources:
            pos = index.node(vsource.node_pos)
            neg = index.node(vsource.node_neg)
            branch = index.branch(vsource)
            acc.add_entry(pos, branch, 1.0)
            acc.add_entry(neg, branch, -1.0)
            acc.add_entry(branch, pos, 1.0)
            acc.add_entry(branch, neg, -1.0)

        self.a_static = acc.matrix()
        try:
            self._static_lu = spla.splu(self.a_static)
        except RuntimeError:
            self._static_lu = None
        if self._static_lu is None and not self.mosfets:
            raise SimulationError(
                "the linear MNA matrix is singular; check for floating nodes")

    def _prepare_mosfet_maps(self) -> None:
        """Index bookkeeping for the low-rank MOSFET Newton correction."""
        self._mos_terms: List[tuple] = []
        if not self.mosfets:
            self._woodbury_ready = False
            return
        row_nodes: List[int] = []
        col_nodes: List[int] = []
        for mosfet in self.mosfets:
            d = self.index.node(mosfet.drain)
            g = self.index.node(mosfet.gate)
            s = self.index.node(mosfet.source)
            self._mos_terms.append((mosfet, d, g, s))
            for node in (d, s):
                if node is not None and node not in row_nodes:
                    row_nodes.append(node)
            for node in (d, g, s):
                if node is not None and node not in col_nodes:
                    col_nodes.append(node)
        self.mos_row_nodes = np.array(sorted(row_nodes), dtype=int)
        self.mos_col_nodes = np.array(sorted(col_nodes), dtype=int)
        self._mos_row_pos = {n: i for i, n in enumerate(self.mos_row_nodes)}
        self._mos_col_pos = {n: i for i, n in enumerate(self.mos_col_nodes)}
        self._woodbury_ready = self._static_lu is not None and len(self.mos_row_nodes) > 0
        if self._woodbury_ready:
            # Z = A0^{-1} P_R : one prefactored solve per MOSFET row node.
            z_columns = []
            for node in self.mos_row_nodes:
                unit = np.zeros(self.size)
                unit[node] = 1.0
                z_columns.append(self._static_lu.solve(unit))
            self._z = np.column_stack(z_columns)

    # --- initial conditions -----------------------------------------------------------
    def _initial_state(self) -> np.ndarray:
        """Initial MNA solution vector at t = 0."""
        options = self.options
        x0 = np.zeros(self.size)
        if options.initial_node_voltages is not None:
            for node, value in options.initial_node_voltages.items():
                idx = self.index.node(node)
                if idx is not None:
                    x0[idx] = value
            return x0
        if options.use_dc_operating_point:
            from .dc import dc_operating_point  # local import to avoid a cycle
            op = dc_operating_point(self.circuit, time=0.0)
            for i, name in enumerate(self.index.node_names):
                x0[i] = op.node_voltages[name]
            for element_name in self.index.branch_names:
                x0[self.index.branch(element_name)] = op.branch_currents.get(
                    element_name, 0.0)
        return x0

    # --- per-step right-hand side -------------------------------------------------------
    def _history_rhs(self, time: float, cap_ieq: np.ndarray, ind_i: np.ndarray,
                     ind_v: np.ndarray) -> np.ndarray:
        """RHS contributions of sources and reactive-element history at ``time``."""
        trap = self.options.method == "trap"
        rhs_aug = np.zeros(self.size + 1)  # last slot collects ground contributions

        if len(self.capacitors):
            np.add.at(rhs_aug, self.cap_pos, cap_ieq)
            np.add.at(rhs_aug, self.cap_neg, -cap_ieq)

        if len(self.inductors):
            hist = -self.ind_req * ind_i - (ind_v if trap else 0.0)
            np.add.at(rhs_aug, self.ind_branch, hist)

        rhs = rhs_aug[:-1]
        for vsource, branch in zip(self.vsources, self.vsrc_branch):
            rhs[branch] += vsource.value(time)
        for isource in self.isources:
            value = isource.value(time)
            pos = self.index.node(isource.node_pos)
            neg = self.index.node(isource.node_neg)
            if pos is not None:
                rhs[pos] -= value
            if neg is not None:
                rhs[neg] += value
        return rhs

    # --- nonlinear solve -----------------------------------------------------------------
    def _mosfet_linearization(self, x: np.ndarray):
        """Small Jacobian block M (rows x cols) and RHS vector r at solution ``x``."""
        n_rows = len(self.mos_row_nodes)
        n_cols = len(self.mos_col_nodes)
        jac = np.zeros((n_rows, n_cols))
        rhs = np.zeros(n_rows)
        for mosfet, d, g, s in self._mos_terms:
            vd = 0.0 if d is None else x[d]
            vg = 0.0 if g is None else x[g]
            vs = 0.0 if s is None else x[s]
            op = mosfet.evaluate(vd, vg, vs)
            rhs_const = op.ids - op.di_dvd * vd - op.di_dvg * vg - op.di_dvs * vs
            for row_node, sign in ((d, 1.0), (s, -1.0)):
                if row_node is None:
                    continue
                row = self._mos_row_pos[row_node]
                rhs[row] += -sign * rhs_const
                for col_node, deriv in ((d, op.di_dvd), (g, op.di_dvg), (s, op.di_dvs)):
                    if col_node is None:
                        continue
                    jac[row, self._mos_col_pos[col_node]] += sign * deriv
        return jac, rhs

    def _mosfet_full_stamps(self, x: np.ndarray) -> StampAccumulator:
        """Full-matrix Newton companion stamps (fallback path)."""
        acc = StampAccumulator(self.size)
        for mosfet, d, g, s in self._mos_terms:
            vd = 0.0 if d is None else x[d]
            vg = 0.0 if g is None else x[g]
            vs = 0.0 if s is None else x[s]
            op = mosfet.evaluate(vd, vg, vs)
            rhs_const = op.ids - op.di_dvd * vd - op.di_dvg * vg - op.di_dvs * vs
            acc.add_entry(d, d, op.di_dvd)
            acc.add_entry(d, g, op.di_dvg)
            acc.add_entry(d, s, op.di_dvs)
            acc.add_entry(s, d, -op.di_dvd)
            acc.add_entry(s, g, -op.di_dvg)
            acc.add_entry(s, s, -op.di_dvs)
            acc.add_rhs(d, -rhs_const)
            acc.add_rhs(s, rhs_const)
        return acc

    def _newton_step(self, rhs: np.ndarray, x: np.ndarray) -> np.ndarray:
        """One Newton update of the MNA solution, linearized at ``x``."""
        if self._woodbury_ready:
            jac, mos_rhs = self._mosfet_linearization(x)
            b_full = rhs.copy()
            b_full[self.mos_row_nodes] += mos_rhs
            y0 = self._static_lu.solve(b_full)
            zw = self._z @ jac  # (size x n_cols)
            small = np.eye(len(self.mos_col_nodes)) + zw[self.mos_col_nodes, :]
            try:
                correction = np.linalg.solve(small, y0[self.mos_col_nodes])
            except np.linalg.LinAlgError:
                return self._newton_step_full(rhs, x)
            return y0 - zw @ correction
        return self._newton_step_full(rhs, x)

    def _newton_step_full(self, rhs: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Fallback Newton update with a full sparse factorization."""
        mos = self._mosfet_full_stamps(x)
        matrix = (self.a_static + mos.matrix()).tocsc()
        try:
            return spla.splu(matrix).solve(rhs + mos.rhs)
        except RuntimeError as exc:
            raise SimulationError(f"singular MNA matrix during Newton: {exc}") from exc

    def _solve_point(self, rhs: np.ndarray, x_guess: np.ndarray) -> np.ndarray:
        """Solve one time point, using Newton iterations when MOSFETs are present."""
        options = self.options
        if not self.mosfets:
            return self._static_lu.solve(rhs)

        x = x_guess.copy()
        n_nodes = self.index.n_nodes
        for _ in range(options.max_newton_iterations):
            x_new = self._newton_step(rhs, x)
            delta = x_new - x
            dv_max = float(np.max(np.abs(delta[:n_nodes]))) if n_nodes else 0.0
            di_max = float(np.max(np.abs(delta[n_nodes:]))) if self.index.n_branches else 0.0
            limit = options.voltage_step_limit
            if dv_max > limit:
                x = x + delta * (limit / dv_max)
                continue
            x = x_new
            if dv_max < options.newton_vtol and di_max < options.newton_itol:
                return x
        raise ConvergenceError(
            "Newton iteration did not converge at a transient time point",
            iterations=options.max_newton_iterations)

    # --- main loop ---------------------------------------------------------------------
    def run(self, t_stop: float) -> TransientResult:
        options = self.options
        if t_stop <= 0:
            raise SimulationError("t_stop must be positive")
        n_steps = int(round(t_stop / options.dt))
        if n_steps < 1:
            raise SimulationError("t_stop is shorter than one time step")
        times = np.arange(n_steps + 1) * options.dt

        x = self._initial_state()
        n_nodes = self.index.n_nodes
        voltages = np.zeros((n_steps + 1, n_nodes))
        voltages[0] = x[:n_nodes]
        branch_store = None
        if options.store_branch_currents and self.index.n_branches:
            branch_store = np.zeros((n_steps + 1, self.index.n_branches))
            branch_store[0] = x[n_nodes:]

        x_aug = np.append(x, 0.0)  # ground slot
        cap_v = (x_aug[self.cap_pos] - x_aug[self.cap_neg]) if len(self.capacitors) \
            else np.zeros(0)
        cap_i = np.zeros(len(self.capacitors))
        ind_i = x[self.ind_branch] if len(self.inductors) else np.zeros(0)
        # At a true DC operating point the inductor voltage is zero; start from that.
        ind_v = np.zeros(len(self.inductors))

        trap = options.method == "trap"
        for step in range(1, n_steps + 1):
            time = times[step]
            cap_ieq = self.cap_geq * cap_v + (cap_i if trap else 0.0)
            rhs = self._history_rhs(time, cap_ieq, ind_i, ind_v)
            x = self._solve_point(rhs, x)
            x_aug = np.append(x, 0.0)

            if len(self.capacitors):
                new_cap_v = x_aug[self.cap_pos] - x_aug[self.cap_neg]
                cap_i = self.cap_geq * new_cap_v - cap_ieq if trap \
                    else self.cap_geq * (new_cap_v - cap_v)
                cap_v = new_cap_v
            if len(self.inductors):
                ind_i = x[self.ind_branch]
                ind_v = x_aug[self.ind_pos] - x_aug[self.ind_neg]

            voltages[step] = x[:n_nodes]
            if branch_store is not None:
                branch_store[step] = x[n_nodes:]

        return TransientResult(self.index, times, voltages, branch_store)


class SourceKernel:
    """Impulse kernel of one node to one voltage source, extended in place.

    ``values[t]`` is the ``output_node`` voltage ``t`` steps after a one-step
    unit excitation of ``source_name``'s branch equation (see
    :func:`linear_source_kernel`).  The circuit is assembled on the first
    :func:`linear_source_kernel` call; the MNA matrix and the companion state
    then stay with the kernel, so a later call for more steps continues the same
    recurrence.  The first ``n`` values are therefore the same bits whether the
    kernel was stepped ``n`` or ``m > n`` times.

    Each stepping call factorizes the matrix afresh (SuperLU is deterministic, so
    every factorization is the same) and drops the factors before it returns: scipy
    frees a SuperLU object's factors only in the thread that created it, and a
    cached kernel may outlive that thread (``repro serve`` solves in request
    threads).
    """

    def __init__(self, circuit: Circuit, source_name: str, *,
                 options: TransientOptions, output_node: str) -> None:
        self._circuit: Optional[Circuit] = circuit
        self.source_name = source_name
        self.options = options
        self.output_node = output_node
        self.values = np.zeros(1)

    @property
    def n_steps(self) -> int:
        """Number of steps computed so far."""
        return self.values.size - 1

    def _start(self):
        """Validate and assemble the circuit, zero the companion state.

        Returns the factorization the assembly made.
        """
        engine = _TransientEngine(self._circuit, self.options)
        if engine.mosfets or engine.isources:
            raise SimulationError(
                "linear_source_kernel requires a circuit of R/L/C elements and "
                "voltage sources only")
        source = next((v for v in engine.vsources if v.name == self.source_name),
                      None)
        if source is None:
            raise SimulationError(f"unknown voltage source {self.source_name!r}")
        self._branch = engine.index.branch(source)
        self._out = engine.index.node(self.output_node)
        if self._out is None:
            raise SimulationError(f"unknown output node {self.output_node!r}")
        self._circuit = None
        self._matrix = engine.a_static
        size = engine.size
        n_caps, n_inds = len(engine.capacitors), len(engine.inductors)
        self._cap_geq, self._cap_pos, self._cap_neg = \
            engine.cap_geq, engine.cap_pos, engine.cap_neg
        self._neg_ind_req = -engine.ind_req
        self._ind_branch, self._ind_pos, self._ind_neg = \
            engine.ind_branch, engine.ind_pos, engine.ind_neg
        # One step's right-hand side is a single scatter of the weights
        # [cap_ieq, -cap_ieq, inductor history] onto these rows, in this order;
        # ground (-1) lands in the trailing slot.
        rows = np.concatenate((self._cap_pos, self._cap_neg, self._ind_branch))
        self._rows = np.where(rows < 0, size, rows)
        self._weights = np.zeros(2 * n_caps + n_inds)
        self._x_aug = np.zeros(size + 1)
        # Companion state after the last step: cap_v, cap_i, ind_i, ind_v.
        self._state = (np.zeros(n_caps), np.zeros(n_caps), np.zeros(n_inds),
                       np.zeros(n_inds))
        return engine._static_lu

    def _extend(self, n_steps: int) -> None:
        """Continue the recurrence until ``values`` holds ``n_steps`` steps."""
        first = self.n_steps + 1
        lu = self._start() if first == 1 else spla.splu(self._matrix)
        values = np.empty(n_steps + 1)
        values[:first] = self.values
        trap = self.options.method == "trap"
        rows, branch, out = self._rows, self._branch, self._out
        cap_geq, cap_pos, cap_neg = self._cap_geq, self._cap_pos, self._cap_neg
        neg_ind_req, ind_branch = self._neg_ind_req, self._ind_branch
        ind_pos, ind_neg = self._ind_pos, self._ind_neg
        weights, x_aug = self._weights, self._x_aug
        n_slots = x_aug.size
        n_caps = cap_geq.size
        cap_ieq = weights[:n_caps]
        neg_cap_ieq = weights[n_caps:2 * n_caps]
        ind_hist = weights[2 * n_caps:]
        cap_v, cap_i, ind_i, ind_v = self._state
        for step in range(first, n_steps + 1):
            np.multiply(cap_geq, cap_v, out=cap_ieq)
            np.multiply(neg_ind_req, ind_i, out=ind_hist)
            if trap:
                cap_ieq += cap_i
                ind_hist -= ind_v
            np.negative(cap_ieq, out=neg_cap_ieq)
            rhs = np.bincount(rows, weights, n_slots)[:-1]
            if step == 1:
                rhs[branch] += 1.0
            x = lu.solve(rhs)
            x_aug[:-1] = x
            new_cap_v = x_aug[cap_pos] - x_aug[cap_neg]
            cap_i = cap_geq * new_cap_v - cap_ieq if trap \
                else cap_geq * (new_cap_v - cap_v)
            cap_v = new_cap_v
            ind_i = x[ind_branch]
            ind_v = x_aug[ind_pos] - x_aug[ind_neg]
            values[step] = x[out]
        self._state = (cap_v, cap_i, ind_i, ind_v)
        self.values = values


def linear_source_kernel(kernel: SourceKernel, n_steps: int) -> np.ndarray:
    """The first ``n_steps + 1`` values of ``kernel``, stepping it as needed.

    For a MOSFET-free circuit the fixed-step companion-model recurrence is exactly
    linear and time-invariant: the solution at step ``t`` is a superposition of the
    per-step source values.  This returns the kernel ``g`` of that superposition —
    ``g[t]`` is the output node's voltage ``t`` steps after a one-step unit
    excitation of the source's branch equation, starting from an all-zero state —
    using the same static LU factorization and companion updates as
    :func:`run_transient`, so convolving ``g`` with a source's sample deltas
    reproduces the stepped solve to roundoff.  ``g[0]`` is 0 (the excitation lands
    on step 1, matching how :func:`run_transient` applies sources).  A kernel that
    already holds ``n_steps`` steps is returned without stepping; a shorter one is
    extended from where it stopped.
    """
    if n_steps < 1:
        raise SimulationError("t_stop is shorter than one time step")
    if kernel.n_steps < n_steps:
        kernel._extend(n_steps)
    return kernel.values[:n_steps + 1]


def run_transient(circuit: Circuit, t_stop: float, dt: Optional[float] = None, *,
                  options: Optional[TransientOptions] = None,
                  **option_overrides) -> TransientResult:
    """Run a transient analysis of ``circuit`` from 0 to ``t_stop`` seconds.

    Either pass a fully built :class:`TransientOptions` via ``options`` or a time
    step ``dt`` plus keyword overrides (``method=...``, ``use_dc_operating_point=...``).
    """
    if options is None:
        if dt is None:
            raise SimulationError("either dt or options must be provided")
        options = TransientOptions(dt=dt, **option_overrides)
    elif dt is not None or option_overrides:
        raise SimulationError("pass either options or dt/keyword overrides, not both")
    engine = _TransientEngine(circuit, options)
    return engine.run(t_stop)
