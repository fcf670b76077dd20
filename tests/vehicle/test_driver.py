"""Driver model tests."""

import numpy as np
import pytest

from repro.constants import KMH, LANE_WIDTH_M
from repro.errors import ConfigurationError
from repro.vehicle.driver import DriverModel, DriverProfile, make_driver_cohort


class TestDriverProfile:
    def test_defaults_valid(self):
        p = DriverProfile()
        assert p.cruise_speed == pytest.approx(40.0 * KMH)

    def test_with_speed(self):
        p = DriverProfile().with_speed(20.0)
        assert p.cruise_speed == 20.0

    def test_rejects_bad_speed(self):
        with pytest.raises(ConfigurationError):
            DriverProfile(cruise_speed=0.0)

    def test_rejects_instant_lane_change(self):
        with pytest.raises(ConfigurationError):
            DriverProfile(lane_change_duration=0.2)

    def test_rejects_negative_rate(self):
        with pytest.raises(ConfigurationError):
            DriverProfile(lane_changes_per_km=-1.0)


class TestCohort:
    def test_size_and_names(self):
        cohort = make_driver_cohort(10, seed=1)
        assert len(cohort) == 10
        assert len({d.name for d in cohort}) == 10

    def test_deterministic(self):
        a = make_driver_cohort(5, seed=3)
        b = make_driver_cohort(5, seed=3)
        assert [d.lane_change_duration for d in a] == [d.lane_change_duration for d in b]

    def test_styles_vary(self):
        cohort = make_driver_cohort(10, seed=1)
        durations = [d.lane_change_duration for d in cohort]
        assert max(durations) - min(durations) > 0.5

    def test_durations_in_study_range(self):
        cohort = make_driver_cohort(10, seed=1)
        assert all(4.0 <= d.lane_change_duration <= 6.5 for d in cohort)

    def test_needs_at_least_one(self):
        with pytest.raises(ConfigurationError):
            make_driver_cohort(0)


class TestDriverModel:
    def test_target_speed_straight(self):
        model = DriverModel(DriverProfile(), seed=0)
        assert model.target_speed(0.0) == pytest.approx(40.0 * KMH)

    def test_target_speed_limited_by_curvature(self):
        model = DriverModel(DriverProfile(), seed=0)
        tight = model.target_speed(0.05)  # 20 m radius corner
        assert tight < model.target_speed(0.0)
        assert tight == pytest.approx(np.sqrt(2.0 / 0.05), rel=0.01)

    def test_target_speed_respects_limit(self):
        model = DriverModel(DriverProfile(), seed=0)
        assert model.target_speed(0.0, speed_limit=8.0) == 8.0

    def test_target_speed_floor(self):
        model = DriverModel(DriverProfile(), seed=0)
        assert model.target_speed(10.0) >= 2.0

    def test_accel_clipped_to_comfort(self):
        profile = DriverProfile(comfort_accel=1.5, comfort_decel=2.0)
        model = DriverModel(profile, seed=0)
        assert model.longitudinal_accel(0.0, 100.0) == 1.5
        assert model.longitudinal_accel(100.0, 0.0) == -2.0

    def test_accel_proportional_in_band(self):
        model = DriverModel(DriverProfile(speed_tracking_gain=0.5), seed=0)
        assert model.longitudinal_accel(10.0, 11.0) == pytest.approx(0.5)

    def test_lane_change_probability_scales(self):
        profile = DriverProfile(lane_changes_per_km=500.0)
        model = DriverModel(profile, rng=np.random.default_rng(0))
        draws = [model.wants_lane_change(1.0) for _ in range(2000)]
        assert np.mean(draws) == pytest.approx(0.5, abs=0.05)

    def test_zero_rate_never_changes(self):
        model = DriverModel(DriverProfile(lane_changes_per_km=0.0), seed=0)
        assert not any(model.wants_lane_change(10.0) for _ in range(100))

    def test_plan_maneuver_hits_lane_width(self):
        model = DriverModel(DriverProfile(), rng=np.random.default_rng(4))
        m = model.plan_maneuver(12.0, +1)
        assert abs(m.lateral_displacement(12.0)) == pytest.approx(
            LANE_WIDTH_M, rel=0.03
        )

    def test_steering_jitter_scale(self):
        profile = DriverProfile(steering_noise_std=0.01)
        model = DriverModel(profile, rng=np.random.default_rng(5))
        samples = np.array([model.steering_jitter() for _ in range(2000)])
        assert np.std(samples) == pytest.approx(0.01, rel=0.1)


class TestPerTickDraws:
    def test_draws_match_numpy_distribution_calls(self):
        # The per-tick draws take numpy's cheaper spellings; the stream and
        # the values must be exactly those of ``normal``/``uniform``.
        profile = DriverProfile(steering_noise_std=0.01, lane_changes_per_km=100.0)
        model = DriverModel(profile, seed=5)
        ref = np.random.default_rng(5)
        for _ in range(2000):
            assert model.steering_jitter() == float(ref.normal(0.0, 0.01))
            assert model.wants_lane_change(5.0) == bool(ref.uniform() < 0.5)
