"""repro — Effective-capacitance two-ramp driver output model for on-chip RLC interconnects.

A library-compatible reproduction of Agarwal, Sylvester & Blaauw, "An Effective
Capacitance Based Driver Output Model for On-Chip RLC Interconnects", DAC 2003.

Main entry points
-----------------
* :mod:`repro.api` — **the front door**: :class:`~repro.api.TimingSession` owns
  the library and caches; :class:`~repro.api.DesignBuilder` builds
  chains and DAGs; :class:`~repro.api.TimingReport` is the unified serializable
  result; ``python -m repro`` is the CLI over all of it.
* :func:`repro.core.model_driver_output` — the paper's modeling flow: rational
  driving-point admittance from moments, breakpoint voltage, Ceff1/Ceff2 iteration,
  inductance screening, plateau correction, two-ramp (or single-ramp) waveform.
* :mod:`repro.circuit` — the SPICE-like reference simulator used to characterize
  drivers and to produce "golden" waveforms for validation.
* :mod:`repro.characterization` — NLDM-style cell characterization and the shipped
  pre-characterized inverter library.
* :mod:`repro.experiments` — the paper's Table 1 / Figures 1-7 reproductions.
* :mod:`repro.sta` — the gate-level timing-graph subsystem built on the model.
"""

from . import units
from ._version import __version__
from .analysis import Waveform
from .characterization import CellCharacterization, CellLibrary, default_library
from .core import (DriverOutputModel, ModelingOptions, TwoRampWaveform,
                   far_end_response, model_driver_output, voltage_breakpoint)
from .interconnect import RLCLine, WireGeometry
from .tech import InverterSpec, Technology, generic_180nm
from . import api
from .api import DesignBuilder, SessionConfig, TimingReport, TimingSession

__all__ = [
    "__version__",
    "api",
    "SessionConfig",
    "TimingSession",
    "DesignBuilder",
    "TimingReport",
    "units",
    "Waveform",
    "RLCLine",
    "WireGeometry",
    "Technology",
    "generic_180nm",
    "InverterSpec",
    "CellCharacterization",
    "CellLibrary",
    "default_library",
    "TwoRampWaveform",
    "voltage_breakpoint",
    "ModelingOptions",
    "DriverOutputModel",
    "model_driver_output",
    "far_end_response",
]
