"""End-to-end OPS pipeline integration tests."""

import numpy as np
import pytest

from repro.core.pipeline import (
    GradientEstimationSystem,
    GradientSystemConfig,
    fuse_estimates,
)
from repro.core.lane_change.detector import LaneChangeDetectorConfig
from repro.core.lane_change.features import LaneChangeThresholds
from repro.errors import ConfigurationError, EstimationError

TH = LaneChangeThresholds(delta=0.05, duration=0.5)


@pytest.fixture(scope="module")
def system_and_result(hill_profile, hill_recording):
    cfg = GradientSystemConfig(detector=LaneChangeDetectorConfig(thresholds=TH))
    system = GradientEstimationSystem(hill_profile, config=cfg)
    return system, system.estimate(hill_recording)


class TestEstimate:
    def test_result_structure(self, system_and_result):
        _, result = system_and_result
        assert set(result.tracks) == {"gps", "speedometer", "accelerometer", "canbus"}
        assert len(result.fused) == len(result.s_grid)

    def test_fused_accuracy(self, system_and_result, hill_profile):
        _, result = system_and_result
        truth = hill_profile.grade_at(result.s_grid)
        err = np.abs(result.fused.theta - truth)
        # Skip the EKF warm-up.
        assert np.degrees(np.mean(err[20:])) < 0.8

    def test_gradient_at(self, system_and_result, hill_profile):
        _, result = system_and_result
        mid = result.s_grid[len(result.s_grid) // 2]
        assert result.gradient_at(float(mid)) == pytest.approx(
            np.interp(mid, result.fused.s, result.fused.theta)
        )

    def test_gradient_at_scalar_vs_array_paths(self, system_and_result):
        _, result = system_and_result
        mid = float(result.s_grid[len(result.s_grid) // 2])
        scalar = result.gradient_at(mid)
        assert isinstance(scalar, float)
        arr = result.gradient_at(np.array([mid, mid + 5.0]))
        assert isinstance(arr, np.ndarray)
        assert arr.shape == (2,)
        assert arr[0] == pytest.approx(scalar)
        # A length-1 array stays an array, never collapses to a scalar.
        one = result.gradient_at(np.array([mid]))
        assert isinstance(one, np.ndarray)
        assert one.shape == (1,)
        assert float(one[0]) == pytest.approx(scalar)

    def test_gradient_at_clamps_outside_grid(self, system_and_result):
        _, result = system_and_result
        lo, hi = float(result.fused.s[0]), float(result.fused.s[-1])
        # np.interp clamps to the edge values beyond the covered grid.
        assert result.gradient_at(lo - 500.0) == pytest.approx(result.fused.theta[0])
        assert result.gradient_at(hi + 500.0) == pytest.approx(result.fused.theta[-1])
        both = result.gradient_at(np.array([lo - 500.0, hi + 500.0]))
        assert both[0] == pytest.approx(result.fused.theta[0])
        assert both[1] == pytest.approx(result.fused.theta[-1])

    def test_lane_changes_detected(self, system_and_result, hill_recording):
        _, result = system_and_result
        truth_events = hill_recording.truth.lane_change_intervals()
        assert result.n_lane_changes >= max(1, len(truth_events) - 2)

    def test_grid_within_route(self, system_and_result, hill_profile):
        _, result = system_and_result
        assert result.s_grid[0] >= 0.0
        assert result.s_grid[-1] <= hill_profile.length


class TestConfig:
    def test_velocity_source_subset(self, hill_profile, hill_recording):
        cfg = GradientSystemConfig(
            detector=LaneChangeDetectorConfig(thresholds=TH),
            velocity_sources=("speedometer",),
        )
        result = GradientEstimationSystem(hill_profile, config=cfg).estimate(
            hill_recording
        )
        assert set(result.tracks) == {"speedometer"}

    def test_unknown_source_rejected(self):
        with pytest.raises(EstimationError):
            GradientSystemConfig(velocity_sources=("odometer",))

    def test_unknown_source_message_lists_options(self):
        # The error must name the offender AND the valid choices, so a
        # config typo is fixable from the message alone.
        with pytest.raises(EstimationError, match="odometer") as excinfo:
            GradientSystemConfig(velocity_sources=("odometer", "gps"))
        message = str(excinfo.value)
        for valid in ("gps", "speedometer", "accelerometer", "canbus"):
            assert valid in message
        assert "valid options" in message

    def test_empty_sources_rejected(self):
        with pytest.raises(EstimationError, match="valid options"):
            GradientSystemConfig(velocity_sources=())

    def test_unknown_engine_rejected(self):
        # There is one EKF engine; a spec still naming one is rejected
        # loudly instead of being silently ignored.
        for engine in ("batch", "scalar", "gpu"):
            with pytest.raises(ConfigurationError, match="ekf_engine"):
                GradientSystemConfig.from_dict({"ekf_engine": engine})

    def test_cache_geometry_wraps_road_map(self, hill_profile):
        from repro.roads import CachedRoadProfile

        on = GradientEstimationSystem(hill_profile)
        assert isinstance(on.road_map, CachedRoadProfile)
        # Idempotent: an already-cached profile is not double-wrapped.
        rewrapped = GradientEstimationSystem(on.road_map)
        assert rewrapped.road_map is on.road_map
        off = GradientEstimationSystem(
            hill_profile, config=GradientSystemConfig(cache_geometry=False)
        )
        assert off.road_map is hill_profile

    def test_duplicate_sources_rejected(self):
        with pytest.raises(EstimationError, match="duplicate.*gps"):
            GradientSystemConfig(velocity_sources=("gps", "speedometer", "gps"))

    def test_bad_grid_spacing(self):
        with pytest.raises(EstimationError):
            GradientSystemConfig(fusion_grid_spacing=0.0)

    def test_correction_flag_changes_inputs(self, hill_profile, hill_recording):
        on = GradientSystemConfig(detector=LaneChangeDetectorConfig(thresholds=TH))
        off = GradientSystemConfig(
            detector=LaneChangeDetectorConfig(thresholds=TH),
            apply_lane_change_correction=False,
        )
        res_on = GradientEstimationSystem(hill_profile, config=on).estimate(hill_recording)
        res_off = GradientEstimationSystem(hill_profile, config=off).estimate(hill_recording)
        if res_on.events:
            assert not np.array_equal(
                res_on.tracks["speedometer"].theta, res_off.tracks["speedometer"].theta
            )


class TestCloudFusion:
    def test_fuse_multiple_trips(self, hill_profile):
        from repro.sensors import Smartphone
        from repro.vehicle import DriverProfile, simulate_trip

        cfg = GradientSystemConfig(detector=LaneChangeDetectorConfig(thresholds=TH))
        system = GradientEstimationSystem(hill_profile, config=cfg)
        results = []
        for seed in (21, 22, 23):
            trace = simulate_trip(
                hill_profile, DriverProfile(lane_changes_per_km=1.0), seed=seed
            )
            rec = Smartphone().record(trace, np.random.default_rng(seed + 100))
            results.append(system.estimate(rec))
        fused = fuse_estimates(results)
        truth = hill_profile.grade_at(fused.s)
        err_fused = np.degrees(np.mean(np.abs(fused.theta - truth)[20:]))
        single_truth = hill_profile.grade_at(results[0].fused.s)
        err_single = np.degrees(
            np.mean(np.abs(results[0].fused.theta - single_truth)[20:])
        )
        assert err_fused < err_single * 1.2  # fusion never much worse

    def test_fuse_empty_rejected(self):
        with pytest.raises(EstimationError):
            fuse_estimates([])


def _fake_result(s_grid):
    """An EstimationResult with a synthetic fused track covering s_grid."""
    from repro.core.pipeline import EstimationResult
    from repro.core.track import GradientTrack

    s_grid = np.asarray(s_grid, dtype=float)
    lo = float(np.min(s_grid)) if s_grid.size else 0.0
    hi = float(np.max(s_grid)) if s_grid.size else 1.0
    s = np.linspace(lo, max(hi, lo + 1.0), 50)
    track = GradientTrack(
        name="fake",
        t=np.linspace(0.0, 10.0, 50),
        s=s,
        theta=0.02 * np.ones(50),
        variance=1e-4 * np.ones(50),
        v=10.0 * np.ones(50),
    )
    return EstimationResult(
        fused=track, tracks={"fake": track}, events=[], aligned=None, s_grid=s_grid
    )


class TestCloudFusionGrid:
    """The fuse_estimates grid-construction contract (validated inputs,
    min-spacing union grid for mixed uploads)."""

    def test_degenerate_single_point_grid_rejected(self):
        good = _fake_result(np.arange(0.0, 100.0, 5.0))
        bad = _fake_result(np.array([40.0]))
        with pytest.raises(EstimationError, match="degenerate s_grid") as excinfo:
            fuse_estimates([good, bad])
        assert "result 1" in str(excinfo.value)

    def test_non_increasing_grid_rejected(self):
        bad = _fake_result(np.array([10.0, 10.0, 10.0]))
        with pytest.raises(EstimationError, match="non-increasing s_grid"):
            fuse_estimates([bad])

    def test_mixed_spacings_take_finest(self):
        from repro.obs import Telemetry

        coarse = _fake_result(np.arange(0.0, 101.0, 5.0))
        fine = _fake_result(np.arange(0.0, 101.0, 2.0))
        tel = Telemetry("cloud-fusion-test")
        fused = fuse_estimates([coarse, fine], telemetry=tel)
        # The union grid steps by the finest uploaded spacing (2 m), so the
        # fine trip is not aliased down onto the coarse grid.
        assert np.allclose(np.diff(fused.s), 2.0)
        counters = tel.metrics.snapshot()["counters"]
        assert counters.get("pipeline.cloud_fusion_spacing_mismatch", 0) == 1

    def test_equal_spacings_do_not_flag_mismatch(self):
        from repro.obs import Telemetry

        a = _fake_result(np.arange(0.0, 101.0, 5.0))
        b = _fake_result(np.arange(0.0, 101.0, 5.0))
        tel = Telemetry("cloud-fusion-equal")
        fused = fuse_estimates([a, b], telemetry=tel)
        assert np.allclose(np.diff(fused.s), 5.0)
        counters = tel.metrics.snapshot()["counters"]
        assert counters.get("pipeline.cloud_fusion_spacing_mismatch", 0) == 0

    def test_explicit_grid_bypasses_validation(self):
        # Caller-supplied grids are trusted; even a degenerate per-trip grid
        # does not matter when the fusion grid is given explicitly.
        bad = _fake_result(np.array([40.0]))
        grid = np.arange(0.0, 41.0, 5.0)
        fused = fuse_estimates([bad], s_grid=grid)
        assert np.array_equal(fused.s, grid)

    def test_union_grid_spans_all_trips(self):
        early = _fake_result(np.arange(0.0, 51.0, 5.0))
        late = _fake_result(np.arange(30.0, 121.0, 5.0))
        fused = fuse_estimates([early, late])
        assert fused.s[0] == 0.0
        assert fused.s[-1] >= 115.0
