"""Far-end response from a modeled driver output (paper Section 3, step 5).

Once the driver output is modeled as a (one- or two-) ramp waveform, the driver is
replaced by an ideal piecewise-linear voltage source and the interconnect is solved
as a purely linear network to obtain the far-end (receiver) waveform.  Because the
network is linear, the transient engine factorizes a single matrix and the solve is
cheap, mirroring how a timing tool would propagate the modeled waveform into the
next stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, MutableMapping, Optional, Sequence, Tuple

import numpy as np

from ..analysis.waveform import Waveform
from ..circuit.netlist import Circuit
from ..circuit.sources import DCSource, PWLSource, SourceFunction
from ..circuit.transient import (SourceKernel, TransientOptions, linear_source_kernel,
                                 run_transient)
from ..constants import SLEW_HIGH_THRESHOLD, SLEW_LOW_THRESHOLD
from ..errors import ModelingError, SimulationError
from ..interconnect.ladder import add_line_ladder
from ..interconnect.rlc_line import RLCLine
from ..units import ps
from .driver_model import DriverOutputModel

try:
    from scipy.signal import fftconvolve as _fftconvolve
except ImportError:  # pragma: no cover - scipy is a hard dependency elsewhere
    _fftconvolve = None

__all__ = ["FarEndResponse", "simulate_source_through_line", "far_end_response",
           "far_end_response_batch"]


@dataclass(frozen=True)
class FarEndResponse:
    """Near- and far-end waveforms of a line driven by an ideal source."""

    near: Waveform
    far: Waveform
    vdd: float
    reference_time: float
    rising: bool

    def far_delay(self) -> float:
        """50% delay from the reference time to the far-end crossing [s]."""
        return self.far.delay(self.vdd, reference_time=self.reference_time,
                              rising=self.rising) \
            if self.rising else \
            self.far.delay(self.vdd, reference_time=self.reference_time, rising=False)

    def far_slew(self, *, low: float = SLEW_LOW_THRESHOLD,
                 high: float = SLEW_HIGH_THRESHOLD) -> float:
        """Far-end transition time [s]."""
        return self.far.slew(self.vdd, low=low, high=high, rising=self.rising)

    def interconnect_delay(self) -> float:
        """50% crossing of the far end minus 50% crossing of the near end [s]."""
        near_cross = self.near.time_at_level(0.5 * self.vdd, rising=self.rising)
        far_cross = self.far.time_at_level(0.5 * self.vdd, rising=self.rising)
        return far_cross - near_cross


def simulate_source_through_line(source: SourceFunction, line: RLCLine,
                                 load_capacitance: float, *, vdd: float,
                                 t_stop: float, dt: Optional[float] = None,
                                 n_segments: Optional[int] = None,
                                 reference_time: float = 0.0,
                                 rising: bool = True) -> FarEndResponse:
    """Drive ``line`` (plus a far-end load) with an ideal voltage source and simulate."""
    if load_capacitance < 0:
        raise ModelingError("load capacitance must be non-negative")
    if t_stop <= 0:
        raise ModelingError("t_stop must be positive")
    segments = n_segments if n_segments is not None else line.recommended_segments()
    step = dt if dt is not None else min(ps(0.2), line.time_of_flight / max(segments, 1))
    circuit = Circuit("far_end_validation")
    circuit.voltage_source("near", "0", source, name="Vdrv")
    add_line_ladder(circuit, line, "near", "far", n_segments=segments)
    if load_capacitance > 0:
        circuit.capacitor("far", "0", load_capacitance, name="Cload")
    result = run_transient(circuit, t_stop,
                           options=TransientOptions(dt=step, store_branch_currents=False))
    return FarEndResponse(near=result.waveform("near"), far=result.waveform("far"),
                          vdd=vdd, reference_time=reference_time, rising=rising)


def _causal_convolve(deltas: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """First ``deltas.shape[1]`` samples of the row-wise convolution with ``kernel``."""
    n = deltas.shape[1]
    if _fftconvolve is not None:
        return _fftconvolve(deltas, kernel[np.newaxis, :], axes=1)[:, :n]
    return np.stack([np.convolve(row, kernel)[:n] for row in deltas])


def _far_end_kernel(line: RLCLine, load_capacitance: float, segments: int,
                    dt: float) -> SourceKernel:
    """Impulse kernel of the far node for one (line, load, segments, dt) circuit."""
    circuit = Circuit("far_end_kernel")
    circuit.voltage_source("near", "0", DCSource(0.0), name="Vdrv")
    add_line_ladder(circuit, line, "near", "far", n_segments=segments)
    if load_capacitance > 0:
        circuit.capacitor("far", "0", load_capacitance, name="Cload")
    return SourceKernel(circuit, "Vdrv",
                        options=TransientOptions(dt=dt, store_branch_currents=False),
                        output_node="far")


def far_end_response_batch(models: Sequence[DriverOutputModel], *,
                           kernel_cache: Optional[MutableMapping] = None
                           ) -> List[FarEndResponse]:
    """Far-end responses of many modeled drivers in one batched computation.

    The fixed-step transient of a source-driven RLC ladder is linear and
    time-invariant, so instead of stepping each lane's circuit separately the
    batch computes one impulse kernel per unique (line, load, segments, dt)
    circuit (see :func:`~repro.circuit.transient.linear_source_kernel`) and
    obtains every lane's far-end waveform by convolving the kernel with that
    lane's source samples — superposed around the lane's initial source level, so
    rising and falling edges share a kernel.  ``kernel_cache`` maps each circuit
    to its :class:`~repro.circuit.transient.SourceKernel` across batches: a kernel
    is built once and extended in place when a later batch needs more steps.
    Agrees with the per-lane :func:`far_end_response` to solver roundoff (well
    inside 1e-9 relative on delays and slews); the scalar path remains the
    reference oracle.
    """
    responses: List[Optional[FarEndResponse]] = [None] * len(models)
    groups: Dict[Tuple, List[Tuple]] = {}
    for idx, model in enumerate(models):
        if model.load_capacitance < 0:
            raise ModelingError("load capacitance must be non-negative")
        two_ramp = model.two_ramp()
        end = two_ramp.end_time + 6.0 * model.time_of_flight
        if end <= 0:
            raise ModelingError("t_stop must be positive")
        segments = model.line.recommended_segments()
        dt = min(ps(0.2), model.line.time_of_flight / max(segments, 1))
        n_steps = int(round(end / dt))
        if n_steps < 1:
            raise SimulationError("t_stop is shorter than one time step")
        key = (model.line.fingerprint(), float(model.load_capacitance).hex(),
               segments, float(dt).hex())
        groups.setdefault(key, []).append((idx, model, two_ramp, end, n_steps, dt))

    for key, members in groups.items():
        _, first_model, _, _, _, dt = members[0]
        max_steps = max(member[4] for member in members)
        source_kernel = kernel_cache.get(key) if kernel_cache is not None else None
        if source_kernel is None:
            source_kernel = _far_end_kernel(first_model.line,
                                            first_model.load_capacitance,
                                            key[2], dt)
            if kernel_cache is not None:
                kernel_cache[key] = source_kernel
        if source_kernel.n_steps < max_steps:
            linear_source_kernel(source_kernel, max_steps)
        kernel = source_kernel.values

        deltas = np.zeros((len(members), max_steps))
        sampled = []
        for row, (idx, model, two_ramp, end, n_steps, dt) in enumerate(members):
            points = two_ramp.pwl_points(end)
            times = np.arange(n_steps + 1) * dt
            # Identical to PWLSource.value() evaluated at every step time.
            u = np.interp(times, np.array([p[0] for p in points]),
                          np.array([p[1] for p in points]))
            deltas[row, :n_steps] = u[1:] - u[0]
            sampled.append((idx, model, times, u, n_steps))

        convolved = _causal_convolve(deltas, kernel[1:max_steps + 1])
        for row, (idx, model, times, u, n_steps) in enumerate(sampled):
            far_values = np.empty(n_steps + 1)
            far_values[0] = u[0]
            far_values[1:] = u[0] + convolved[row, :n_steps]
            responses[idx] = FarEndResponse(
                near=Waveform(times, u), far=Waveform(times, far_values),
                vdd=model.vdd, reference_time=model.reference_time,
                rising=model.transition == "rise")
    return responses


def far_end_response(model: DriverOutputModel, *, t_stop: Optional[float] = None,
                     dt: Optional[float] = None,
                     n_segments: Optional[int] = None) -> FarEndResponse:
    """Far-end response of the modeled driver output applied to its own line and load."""
    two_ramp = model.two_ramp()
    end = t_stop if t_stop is not None else two_ramp.end_time + 6.0 * model.time_of_flight
    source = PWLSource(two_ramp.pwl_points(end))
    return simulate_source_through_line(
        source, model.line, model.load_capacitance, vdd=model.vdd, t_stop=end, dt=dt,
        n_segments=n_segments, reference_time=model.reference_time,
        rising=model.transition == "rise")
