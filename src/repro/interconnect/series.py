"""Truncated power-series (Taylor-series-in-``s``) arithmetic.

Moment computations expand network functions around ``s = 0``.  This module
implements a tiny fixed-order polynomial arithmetic — addition, multiplication,
reciprocal, division — which is all that is needed to propagate driving-point
admittance and voltage-transfer moments through ladder networks without symbolic
algebra.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from ..errors import ModelingError

__all__ = ["PowerSeries", "reciprocal_coefficients"]

Number = Union[int, float]


def reciprocal_coefficients(coefficients: Sequence[float]) -> List[float]:
    """Coefficients of ``1 / c(s)`` truncated to ``len(coefficients)`` terms.

    ``c(s)`` needs a non-zero constant term.  Works on plain floats: this is the
    inner loop of every moment walk.
    """
    c0 = coefficients[0]
    if c0 == 0.0:
        raise ModelingError("cannot invert a power series with zero constant term")
    inv = [1.0 / c0]
    for k in range(1, len(coefficients)):
        acc = 0.0
        for j in range(1, k + 1):
            acc += coefficients[j] * inv[k - j]
        inv.append(-acc / c0)
    return inv


class PowerSeries:
    """A truncated power series ``c0 + c1*s + c2*s^2 + ... + c_{n-1}*s^{n-1}``."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence[float], order: int | None = None) -> None:
        coeffs = np.asarray(coefficients, dtype=float).copy()
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ModelingError("a power series needs a one-dimensional coefficient list")
        if order is not None:
            if order < 1:
                raise ModelingError("series order must be at least 1")
            if coeffs.size < order:
                coeffs = np.concatenate([coeffs, np.zeros(order - coeffs.size)])
            else:
                coeffs = coeffs[:order]
        self.coefficients = coeffs

    # --- constructors ---------------------------------------------------------------
    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        """The zero series of the given order."""
        return cls(np.zeros(order))

    @classmethod
    def constant(cls, value: float, order: int) -> "PowerSeries":
        """A constant series."""
        coeffs = np.zeros(order)
        coeffs[0] = value
        return cls(coeffs)

    @classmethod
    def variable(cls, order: int) -> "PowerSeries":
        """The series representing ``s`` itself."""
        if order < 2:
            raise ModelingError("order must be at least 2 to represent s")
        coeffs = np.zeros(order)
        coeffs[1] = 1.0
        return cls(coeffs)

    # --- helpers -----------------------------------------------------------------------
    @property
    def order(self) -> int:
        """Number of retained coefficients."""
        return int(self.coefficients.size)

    def coefficient(self, k: int) -> float:
        """The coefficient of ``s^k`` (0.0 beyond the truncation order)."""
        if k < 0:
            raise ModelingError("coefficient index must be non-negative")
        if k >= self.order:
            return 0.0
        return float(self.coefficients[k])

    def _coerce(self, other) -> "PowerSeries":
        if isinstance(other, PowerSeries):
            if other.order != self.order:
                raise ModelingError("power series orders do not match")
            return other
        if isinstance(other, (int, float)):
            return PowerSeries.constant(float(other), self.order)
        raise TypeError(f"cannot combine PowerSeries with {type(other).__name__}")

    # --- arithmetic ----------------------------------------------------------------------
    def __add__(self, other) -> "PowerSeries":
        other = self._coerce(other)
        return PowerSeries(self.coefficients + other.coefficients)

    __radd__ = __add__

    def __sub__(self, other) -> "PowerSeries":
        other = self._coerce(other)
        return PowerSeries(self.coefficients - other.coefficients)

    def __rsub__(self, other) -> "PowerSeries":
        other = self._coerce(other)
        return PowerSeries(other.coefficients - self.coefficients)

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(-self.coefficients)

    def __mul__(self, other) -> "PowerSeries":
        if isinstance(other, (int, float)):
            return PowerSeries(self.coefficients * float(other))
        other = self._coerce(other)
        n = self.order
        full = np.convolve(self.coefficients, other.coefficients)[:n]
        return PowerSeries(full, order=n)

    __rmul__ = __mul__

    def reciprocal(self) -> "PowerSeries":
        """The series ``1 / self``; requires a non-zero constant term."""
        return PowerSeries(reciprocal_coefficients(self.coefficients.tolist()))

    def __truediv__(self, other) -> "PowerSeries":
        if isinstance(other, (int, float)):
            if other == 0:
                raise ZeroDivisionError("division of a power series by zero")
            return PowerSeries(self.coefficients / float(other))
        other = self._coerce(other)
        return self * other.reciprocal()

    def __rtruediv__(self, other) -> "PowerSeries":
        return self._coerce(other) * self.reciprocal()

    # --- evaluation / comparison ------------------------------------------------------------
    def evaluate(self, s: complex) -> complex:
        """Evaluate the truncated series at a (complex) value of ``s``."""
        result = 0.0 + 0.0j
        for coeff in reversed(self.coefficients):
            result = result * s + coeff
        return result

    def isclose(self, other: "PowerSeries", *, rtol: float = 1e-9, atol: float = 0.0) -> bool:
        """Element-wise closeness of the coefficient vectors."""
        other = self._coerce(other)
        return bool(np.allclose(self.coefficients, other.coefficients, rtol=rtol, atol=atol))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PowerSeries({self.coefficients.tolist()!r})"
