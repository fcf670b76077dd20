"""Trip simulator integration tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.roads import SectionSpec, build_profile
from repro.vehicle import DriverProfile, SimulationConfig, simulate_trip


class TestCompletion:
    def test_trip_covers_route(self, hill_trace, hill_profile):
        assert hill_trace.distance == pytest.approx(hill_profile.length, abs=2.0)

    def test_time_monotonic_uniform(self, hill_trace):
        dts = np.diff(hill_trace.t)
        assert np.allclose(dts, hill_trace.dt)

    def test_s_monotonic(self, hill_trace):
        assert np.all(np.diff(hill_trace.s) >= 0.0)

    def test_deterministic_given_seed(self, hill_profile):
        a = simulate_trip(hill_profile, seed=42)
        b = simulate_trip(hill_profile, seed=42)
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.steer_rate, b.steer_rate)

    def test_different_seeds_differ(self, hill_profile):
        a = simulate_trip(hill_profile, seed=1)
        b = simulate_trip(hill_profile, seed=2)
        assert not np.array_equal(a.steer_rate, b.steer_rate)


class TestKinematicConsistency:
    def test_ds_equals_v_cos_alpha_dt(self, hill_trace):
        ds = np.diff(hill_trace.s)
        expected = (hill_trace.v * np.cos(hill_trace.alpha) * hill_trace.dt)[:-1]
        assert np.allclose(ds, expected, rtol=1e-6, atol=1e-9)

    def test_dv_equals_a_dt(self, hill_trace):
        dv = np.diff(hill_trace.v)
        expected = (hill_trace.a * hill_trace.dt)[:-1]
        assert np.allclose(dv, expected, atol=1e-9)

    def test_recorded_grade_matches_profile(self, hill_trace, hill_profile):
        expected = hill_profile.grade_at(hill_trace.s)
        assert np.allclose(hill_trace.grade, expected, atol=1e-6)

    def test_recorded_elevation_matches_profile(self, hill_trace, hill_profile):
        expected = hill_profile.elevation_at(hill_trace.s)
        assert np.allclose(hill_trace.z, expected, atol=1e-3)

    def test_yaw_rate_decomposition(self, hill_trace):
        assert np.allclose(
            hill_trace.yaw_rate,
            hill_trace.road_turn_rate + hill_trace.steer_rate,
            atol=1e-9,
        )

    def test_speeds_in_plausible_band(self, hill_trace):
        assert hill_trace.v.min() > 1.0
        assert hill_trace.v.max() < 25.0

    def test_torque_supports_motion(self, hill_trace):
        # Uphill at constant-ish speed requires positive driving torque.
        uphill = hill_trace.grade > np.radians(2.5)
        assert np.mean(hill_trace.torque[uphill] > 0) > 0.9


class TestLaneChanges:
    def test_lane_changes_happen_with_high_rate(self, hill_trace):
        assert len(hill_trace.lane_change_intervals()) >= 1

    def test_lane_changes_only_on_multilane(self, hill_trace, hill_profile):
        for start, end, _ in hill_trace.lane_change_intervals():
            s_span = hill_trace.s[start:end]
            lanes = hill_profile.lane_count_at(s_span)
            assert np.all(np.asarray(lanes) >= 2)

    def test_lane_index_consistent(self, hill_trace, hill_profile):
        lanes_here = hill_profile.lane_count_at(hill_trace.s)
        assert np.all(hill_trace.lane >= 0)
        assert np.all(hill_trace.lane < np.asarray(lanes_here))

    def test_no_lane_changes_when_disabled(self, hill_profile):
        trace = simulate_trip(
            hill_profile,
            driver=DriverProfile(lane_changes_per_km=5.0),
            config=SimulationConfig(allow_lane_changes=False),
            seed=3,
        )
        assert trace.lane_change_intervals() == []

    def test_no_lane_changes_on_single_lane(self, flat_profile):
        trace = simulate_trip(
            flat_profile, driver=DriverProfile(lane_changes_per_km=50.0), seed=3
        )
        assert trace.lane_change_intervals() == []

    def test_lateral_offset_bounded(self, hill_trace):
        assert np.max(np.abs(hill_trace.lateral_offset)) < 2.0 * 3.65


class TestGPSFlag:
    def test_outage_reflected(self):
        prof = build_profile(
            [SectionSpec(600.0)], gps_outages=[(200.0, 400.0)]
        )
        trace = simulate_trip(prof, seed=1)
        inside = (trace.s > 210.0) & (trace.s < 390.0)
        outside = trace.s < 190.0
        assert not np.any(trace.gps_available[inside])
        assert np.all(trace.gps_available[outside])


class TestConfig:
    def test_bad_sample_rate(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(sample_rate=0.0)

    def test_bad_modulation(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(traffic_modulation=1.5)

    @pytest.mark.parametrize("budget", [0.0, -1.0])
    def test_nonpositive_max_duration(self, budget):
        with pytest.raises(ConfigurationError, match="max_duration_s"):
            SimulationConfig(max_duration_s=budget)

    def test_exhausted_duration_fails_closed(self, flat_profile):
        with pytest.raises(ConfigurationError, match=r"after \d+\.\d m of the 800\.0 m route"):
            simulate_trip(flat_profile, config=SimulationConfig(max_duration_s=5.0), seed=1)

    def test_initial_speed_respected(self, flat_profile):
        trace = simulate_trip(
            flat_profile, config=SimulationConfig(initial_speed=5.0), seed=1
        )
        assert trace.v[0] == pytest.approx(5.0)

    def test_speed_limit_enforced(self, flat_profile):
        trace = simulate_trip(
            flat_profile,
            config=SimulationConfig(
                speed_limit=6.0, traffic_modulation=0.0, initial_speed=5.0
            ),
            seed=1,
        )
        assert trace.v.max() < 7.0
