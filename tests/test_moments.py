"""Driving-point admittance and transfer-function moments."""

import numpy as np
import pytest

from repro.errors import ModelingError
from repro.interconnect import (PowerSeries, RLCLine, admittance_moments,
                                admittance_series, elmore_delay, transfer_moments,
                                transfer_series)
from repro.units import mm, nH, pF


@pytest.fixture(scope="module")
def line():
    return RLCLine(resistance=72.44, inductance=nH(5.14), capacitance=pF(1.10),
                   length=mm(5))


def _reference_reciprocal(series):
    """``1 / series`` with numpy-scalar arithmetic, one term at a time."""
    c = series.coefficients
    n = series.order
    inv = np.zeros(n)
    inv[0] = 1.0 / c[0]
    for k in range(1, n):
        acc = 0.0
        for j in range(1, k + 1):
            acc += c[j] * inv[k - j]
        inv[k] = -acc / c[0]
    return PowerSeries(inv)


def _reference_walk(line, load_capacitance, order, n_segments):
    """The far-to-near pi-ladder walk written on PowerSeries objects."""
    r_seg, l_seg, c_seg = line.segment_values(n_segments)
    s = PowerSeries.variable(order)
    one = PowerSeries.constant(1.0, order)
    admittance = s * load_capacitance
    transfer = one
    half_cap = s * (c_seg / 2.0)
    series_impedance = s * l_seg + r_seg
    for _ in range(n_segments):
        admittance = admittance + half_cap
        denominator = one + series_impedance * admittance
        transfer = transfer * _reference_reciprocal(denominator)
        admittance = admittance * _reference_reciprocal(denominator)
        admittance = admittance + half_cap
    return admittance.coefficients, transfer.coefficients


def _seeded_lines(count=4):
    rng = np.random.default_rng(2024)
    for _ in range(count):
        line = RLCLine(resistance=rng.uniform(10.0, 300.0),
                       inductance=nH(rng.uniform(0.5, 8.0)),
                       capacitance=pF(rng.uniform(0.2, 2.0)),
                       length=mm(rng.uniform(1.0, 8.0)))
        yield line, float(rng.uniform(1e-15, 5e-13))


class TestArrayWalkBitIdentity:
    @pytest.mark.parametrize("n_segments", [1, 7, 600])
    @pytest.mark.parametrize("order", [2, 3, 8])
    def test_moments_equal_series_walk_bitwise(self, n_segments, order):
        for line, load in _seeded_lines():
            for load_capacitance in (0.0, load):
                admittance, transfer = _reference_walk(line, load_capacitance, order,
                                                       n_segments)
                kwargs = dict(order=order, n_segments=n_segments)
                assert admittance_moments(line, load_capacitance, **kwargs).tobytes() \
                    == admittance.tobytes()
                assert transfer_moments(line, load_capacitance, **kwargs).tobytes() \
                    == transfer.tobytes()
                assert admittance_series(line, load_capacitance, **kwargs) \
                    .coefficients.tobytes() == admittance.tobytes()
                assert transfer_series(line, load_capacitance, **kwargs) \
                    .coefficients.tobytes() == transfer.tobytes()

    def test_reciprocal_equals_reference_bitwise(self):
        rng = np.random.default_rng(11)
        for order in (1, 2, 5, 8):
            series = PowerSeries(rng.normal(size=order) + np.eye(1, order)[0] * 3.0)
            assert series.reciprocal().coefficients.tobytes() \
                == _reference_reciprocal(series).coefficients.tobytes()


class TestAdmittanceMoments:
    def test_m0_is_zero_for_capacitive_load(self, line):
        moments = admittance_moments(line, 0.0)
        assert moments[0] == pytest.approx(0.0, abs=1e-20)

    def test_m1_is_total_downstream_capacitance(self, line):
        load = 50e-15
        moments = admittance_moments(line, load)
        assert moments[1] == pytest.approx(line.capacitance + load, rel=1e-6)

    def test_m2_matches_uniform_rc_closed_form(self):
        """For an RC line with load CL: m2 = -(R*C^2/3 + R*C*CL + R*CL^2... )

        Exact distributed result for a uniform RC line with far-end load CL:
            m2 = -R * (C^2/3 + C*CL + CL^2) ... with CL = 0: m2 = -R*C^2/3.
        """
        resistance, capacitance = 100.0, 1e-12
        rc_line = RLCLine(resistance=resistance, inductance=1e-15,
                          capacitance=capacitance, length=mm(5))
        moments = admittance_moments(rc_line, 0.0)
        assert moments[2] == pytest.approx(-resistance * capacitance ** 2 / 3.0, rel=1e-3)

    def test_m2_with_load_matches_closed_form(self):
        resistance, capacitance, load = 100.0, 1e-12, 0.3e-12
        rc_line = RLCLine(resistance=resistance, inductance=1e-15,
                          capacitance=capacitance, length=mm(5))
        moments = admittance_moments(rc_line, load)
        expected = -resistance * (capacitance ** 2 / 3.0 + capacitance * load + load ** 2)
        assert moments[2] == pytest.approx(expected, rel=1e-3)

    def test_inductance_enters_third_moment(self, line):
        rc_only = RLCLine(resistance=line.resistance, inductance=1e-15,
                          capacitance=line.capacitance, length=line.length)
        with_l = admittance_moments(line, 0.0)
        without_l = admittance_moments(rc_only, 0.0)
        assert with_l[1] == pytest.approx(without_l[1], rel=1e-9)
        assert with_l[2] == pytest.approx(without_l[2], rel=1e-6)
        # The third moment picks up the L*C^2-like term, so it must differ by far
        # more than the numerical noise floor (compare with a zero abs tolerance).
        assert not np.isclose(with_l[3], without_l[3], rtol=1e-3, atol=0.0)

    def test_segment_count_convergence(self, line):
        coarse = admittance_moments(line, 0.0, n_segments=100)
        fine = admittance_moments(line, 0.0, n_segments=1200)
        assert fine[1:5] == pytest.approx(coarse[1:5], rel=0.02)

    def test_moments_match_explicit_ladder(self, line):
        """With the same segment count, the series expansion is exact for the ladder."""
        single = admittance_moments(line, 0.0, n_segments=1)
        # One pi segment: Y = sC/2 + (sC/2) / (1 + (R + sL) sC/2)  -- expand manually.
        r, l, c = line.resistance, line.inductance, line.capacitance
        m1 = c
        m2 = -r * (c / 2) ** 2
        assert single[1] == pytest.approx(m1, rel=1e-12)
        assert single[2] == pytest.approx(m2, rel=1e-12)

    def test_invalid_arguments(self, line):
        with pytest.raises(ModelingError):
            admittance_series(line, -1e-15)
        with pytest.raises(ModelingError):
            admittance_series(line, 0.0, order=1)
        with pytest.raises(ModelingError):
            admittance_series(line, 0.0, n_segments=0)


class TestTransferMoments:
    def test_transfer_is_unity_at_dc(self, line):
        moments = transfer_moments(line, 10e-15)
        assert moments[0] == pytest.approx(1.0, rel=1e-12)

    def test_elmore_delay_of_uniform_rc_line(self):
        """Distributed RC line with far-end load: T_elmore = R*(C/2 + CL)."""
        resistance, capacitance, load = 200.0, 1e-12, 0.2e-12
        rc_line = RLCLine(resistance=resistance, inductance=1e-15,
                          capacitance=capacitance, length=mm(4))
        delay = elmore_delay(rc_line, load)
        assert delay == pytest.approx(resistance * (capacitance / 2.0 + load), rel=1e-3)

    def test_inductance_does_not_change_elmore_delay(self, line):
        rc_only = RLCLine(resistance=line.resistance, inductance=1e-15,
                          capacitance=line.capacitance, length=line.length)
        assert elmore_delay(line, 0.0) == pytest.approx(elmore_delay(rc_only, 0.0),
                                                        rel=1e-6)

    def test_transfer_series_second_moment_sign(self, line):
        series = transfer_series(line, 0.0, order=4)
        # H(s) = 1 - s*T_D + s^2*(...) : the first moment must be negative.
        assert series.coefficient(1) < 0.0
