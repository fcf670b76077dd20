"""Lane-change maneuver kinematics tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import LANE_WIDTH_M
from repro.errors import ConfigurationError
from repro.vehicle.lateral import LaneChangeManeuver, plan_lane_change
from repro.vehicle.simulator import _maneuver_rates


class TestManeuverValidation:
    def test_bad_direction(self):
        with pytest.raises(ConfigurationError):
            LaneChangeManeuver(0, 2.0, 1.0, 2.0, 0.1)

    def test_bad_durations(self):
        with pytest.raises(ConfigurationError):
            LaneChangeManeuver(1, 0.0, 1.0, 2.0, 0.1)
        with pytest.raises(ConfigurationError):
            LaneChangeManeuver(1, 2.0, -0.5, 2.0, 0.1)

    def test_bad_peak(self):
        with pytest.raises(ConfigurationError):
            LaneChangeManeuver(1, 2.0, 1.0, 2.0, 0.0)


class TestSteeringShape:
    def test_left_change_positive_then_negative(self):
        m = plan_lane_change(11.0, +1, duration=5.0)
        t = np.linspace(0.0, m.duration, 400)
        w = m.steering_rate(t)
        first_peak = np.argmax(np.abs(w[: len(w) // 2]))
        assert w[first_peak] > 0.0
        assert w[np.argmin(w)] < 0.0
        assert np.argmin(w) > first_peak

    def test_right_change_negative_then_positive(self):
        m = plan_lane_change(11.0, -1, duration=5.0)
        t = np.linspace(0.0, m.duration, 400)
        w = m.steering_rate(t)
        assert w[np.argmax(np.abs(w[:100]))] < 0.0

    def test_zero_outside_maneuver(self):
        m = plan_lane_change(11.0, +1)
        assert m.steering_rate(-1.0) == 0.0
        assert m.steering_rate(m.duration + 1.0) == 0.0

    def test_hold_phase_zero(self):
        m = LaneChangeManeuver(1, 1.5, 2.0, 1.5, 0.1)
        assert m.steering_rate(1.5 + 1.0) == 0.0

    def test_counter_peak_balances_area(self):
        m = LaneChangeManeuver(1, 2.0, 1.0, 1.0, 0.1)
        # Equal shapes: A2 T2 = A1 T1.
        assert m.peak_rate_second == pytest.approx(0.2)


class TestHeadingAndDisplacement:
    def test_heading_returns_to_zero(self):
        m = plan_lane_change(11.0, +1, duration=5.0)
        assert abs(m.heading(m.duration)) < 5e-3

    def test_heading_peak_sign(self):
        m = plan_lane_change(11.0, -1, duration=5.0)
        t = np.linspace(0.0, m.duration, 300)
        assert np.min(m.heading(t)) < -0.02

    @given(st.floats(3.0, 20.0), st.sampled_from([-1, 1]))
    @settings(max_examples=30, deadline=None)
    def test_displacement_calibrated_across_speeds(self, v, direction):
        m = plan_lane_change(v, direction, duration=5.0)
        w = m.lateral_displacement(v)
        assert abs(w) == pytest.approx(LANE_WIDTH_M, rel=0.02)
        assert np.sign(w) == direction

    def test_custom_lateral_offset(self):
        m = plan_lane_change(10.0, +1, lateral_offset=7.3)
        assert m.lateral_displacement(10.0) == pytest.approx(7.3, rel=0.02)

    def test_slower_speed_needs_sharper_steering(self):
        slow = plan_lane_change(5.0, +1, duration=5.0)
        fast = plan_lane_change(18.0, +1, duration=5.0)
        assert slow.peak_rate_first > fast.peak_rate_first


class TestPlanValidation:
    def test_zero_speed_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_lane_change(0.0, +1)

    def test_bad_offset(self):
        with pytest.raises(ConfigurationError):
            plan_lane_change(10.0, +1, lateral_offset=0.0)

    def test_bad_asymmetry(self):
        with pytest.raises(ConfigurationError):
            plan_lane_change(10.0, +1, asymmetry=0.0)

    def test_bad_hold_fraction(self):
        with pytest.raises(ConfigurationError):
            plan_lane_change(10.0, +1, hold_fraction=0.95)


class TestManeuverClock:
    """The simulator evaluates a maneuver's rates once, on its whole clock."""

    @pytest.mark.parametrize("direction", [+1, -1])
    @pytest.mark.parametrize("asymmetry", [0.75, 1.0, 1.25])
    @pytest.mark.parametrize("shape_exponent", [0.35, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("dt", [1.0 / 50.0, 1.0 / 100.0, 1.0 / 25.0])
    def test_clock_array_matches_scalar_calls(self, direction, asymmetry, shape_exponent, dt):
        m = plan_lane_change(
            9.5, direction, duration=4.7, asymmetry=asymmetry, shape_exponent=shape_exponent
        )
        clock, times = 0.0, []
        while True:  # the per-tick clock: advance by dt until >= duration
            times.append(clock)
            clock += dt
            if clock >= m.duration:
                break
        scalar = np.array([m.steering_rate(tk) for tk in times]).tobytes()
        assert np.array(_maneuver_rates(m, dt)).tobytes() == scalar
        assert m.steering_rate(np.array(times)).tobytes() == scalar
