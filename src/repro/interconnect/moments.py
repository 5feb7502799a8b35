"""Driving-point admittance and voltage-transfer moments of RLC lines.

The paper's effective-capacitance equations operate directly on the moments of the
driving-point admittance ``Y(s)`` of the loaded interconnect (its Taylor expansion
around ``s = 0``).  This module computes those moments by walking a pi-segment
ladder from the far end towards the driver with truncated power-series arithmetic
on coefficient arrays:

* :func:`admittance_series` — ``Y(s)`` seen by the driver (paper Eq. 3 inputs),
* :func:`transfer_series` — ``H(s) = V_far / V_near`` for far-end delay estimates,
* :func:`elmore_delay` — the first transfer moment.

Using a very large segment count converges to the distributed line; passing the
same segment count used for a simulated ladder reproduces that ladder's moments
exactly, which the unit tests exploit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ModelingError
from .rlc_line import RLCLine
from .series import PowerSeries, reciprocal_coefficients

__all__ = [
    "admittance_series",
    "admittance_moments",
    "transfer_series",
    "transfer_moments",
    "elmore_delay",
]

#: Segment count used to approximate the distributed (exact) line when the caller
#: does not specify one.  The admittance moments converge quickly with segment
#: count; 600 pi-segments is indistinguishable from the continuum for the first
#: half-dozen moments.
DISTRIBUTED_SEGMENTS = 600


def _resolve_segments(line: RLCLine, n_segments: Optional[int]) -> int:
    if n_segments is None:
        return DISTRIBUTED_SEGMENTS
    if n_segments < 1:
        raise ModelingError("segment count must be at least 1")
    return n_segments


def _walk_ladder(line: RLCLine, load_capacitance: float, order: int,
                 n_segments: int, *, transfer: bool) -> tuple:
    """Walk the pi-segment ladder far-to-near on coefficient arrays.

    Returns ``(Y, H)``: the coefficients of the driving-point admittance at the
    near end and, when ``transfer`` is set, of the far/near voltage transfer
    (``None`` otherwise).  Each segment inverts its denominator once and
    multiplies with ``np.convolve``, the same arithmetic in the same order as
    :class:`PowerSeries`, so the results equal a series-object walk bit for bit.
    """
    if order < 2:
        raise ModelingError("moment order must be at least 2")
    if load_capacitance < 0:
        raise ModelingError("load capacitance must be non-negative")
    r_seg, l_seg, c_seg = line.segment_values(n_segments)
    s = PowerSeries.variable(order).coefficients
    one = PowerSeries.constant(1.0, order).coefficients

    admittance = s * load_capacitance
    voltage_transfer = one if transfer else None
    half_cap = s * (c_seg / 2.0)
    series_impedance = s * l_seg + PowerSeries.constant(r_seg, order).coefficients
    for _ in range(n_segments):
        admittance = admittance + half_cap
        denominator = one + np.convolve(series_impedance, admittance)[:order]
        inverse = reciprocal_coefficients(denominator.tolist())
        if transfer:
            voltage_transfer = np.convolve(voltage_transfer, inverse)[:order]
        admittance = np.convolve(admittance, inverse)[:order] + half_cap
    return admittance, voltage_transfer


def admittance_series(line: RLCLine, load_capacitance: float = 0.0, *, order: int = 8,
                      n_segments: Optional[int] = None) -> PowerSeries:
    """Driving-point admittance ``Y(s)`` of the loaded line as a truncated series."""
    return PowerSeries(admittance_moments(line, load_capacitance, order=order,
                                          n_segments=n_segments))


def admittance_moments(line: RLCLine, load_capacitance: float = 0.0, *, order: int = 8,
                       n_segments: Optional[int] = None) -> np.ndarray:
    """Admittance moments ``[m0, m1, ..., m_{order-1}]`` (m0 is 0 for capacitive loads)."""
    admittance, _ = _walk_ladder(line, load_capacitance, order,
                                 _resolve_segments(line, n_segments), transfer=False)
    return admittance


def transfer_series(line: RLCLine, load_capacitance: float = 0.0, *, order: int = 8,
                    n_segments: Optional[int] = None) -> PowerSeries:
    """Voltage transfer ``H(s) = V_far / V_near`` of the loaded line."""
    return PowerSeries(transfer_moments(line, load_capacitance, order=order,
                                        n_segments=n_segments))


def transfer_moments(line: RLCLine, load_capacitance: float = 0.0, *, order: int = 8,
                     n_segments: Optional[int] = None) -> np.ndarray:
    """Transfer-function moments ``[1, -T_elmore, ...]``."""
    _, voltage_transfer = _walk_ladder(line, load_capacitance, order,
                                       _resolve_segments(line, n_segments),
                                       transfer=True)
    return voltage_transfer


def elmore_delay(line: RLCLine, load_capacitance: float = 0.0, *,
                 n_segments: Optional[int] = None) -> float:
    """Elmore delay of the loaded line (first transfer moment, sign-flipped).

    For a uniform RC line with a lumped load this equals ``R*(C/2 + C_L)``.
    Inductance does not contribute to the first moment, so this is a useful
    RC-baseline quantity rather than an accurate RLC delay.
    """
    moments = transfer_moments(line, load_capacitance, order=3, n_segments=n_segments)
    return float(-moments[1])
