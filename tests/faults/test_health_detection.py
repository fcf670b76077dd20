"""Health monitoring vs the fault taxonomy: detection without false alarms.

The acceptance contract for the monitors:

* clean simulated drives produce zero flags on **both** EKF loops
  (per-track and vectorized);
* every fault kind at high severity produces at least one flagged
  verdict somewhere in the report;
* monitoring is purely passive — estimates are bit-identical with the
  monitors on or off.
"""

import numpy as np
import pytest

from repro.core.lane_change.detector import LaneChangeDetectorConfig
from repro.core.pipeline import GradientEstimationSystem, GradientSystemConfig
from repro.core.stages import ROBUST_STAGES
from repro.eval.resilience import fault_suite_for
from repro.faults.suite import FAULT_KINDS, apply_fault_suite
from repro.obs.health import HealthConfig


def _config(red_thresholds, **kwargs):
    return GradientSystemConfig(
        detector=LaneChangeDetectorConfig(thresholds=red_thresholds), **kwargs
    )


@pytest.fixture(scope="module")
def faulted_recordings(red_recording):
    """Each fault kind applied at high severity to the clean recording."""
    out = {}
    for kind in sorted(FAULT_KINDS):
        suite = fault_suite_for(kind, 4.0, channel="accel_long", seed=0)
        out[kind] = apply_fault_suite(red_recording, suite, trip_index=0)
    return out


class TestCleanRuns:
    def test_clean_drive_is_unflagged(
        self, red_profile, red_recording, red_thresholds, ekf_loop
    ):
        system = GradientEstimationSystem(
            red_profile, config=_config(red_thresholds)
        )
        result = system.estimate(red_recording)
        assert result.health is not None
        assert result.health.verdict == "ok"
        assert result.health.n_flags == 0
        assert set(result.health.tracks) == set(result.tracks)

    def test_monitoring_disabled_attaches_no_report(
        self, red_profile, red_recording, red_thresholds
    ):
        system = GradientEstimationSystem(
            red_profile,
            config=_config(red_thresholds, health=HealthConfig(enabled=False)),
        )
        assert system.estimate(red_recording).health is None


class TestDetection:
    @pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
    def test_each_fault_kind_flags_at_high_severity(
        self, red_profile, red_thresholds, faulted_recordings, kind
    ):
        # The resilience matrix runs with the sanitize stage; the monitors
        # must still see the fault (the input screen reads the raw
        # recording before sanitization).
        system = GradientEstimationSystem(
            red_profile, config=_config(red_thresholds, stages=ROBUST_STAGES)
        )
        result = system.estimate(faulted_recordings[kind])
        assert result.health is not None
        assert result.health.verdict in ("suspect", "diverged")
        assert result.health.n_flags >= 1

    def test_flag_kinds_name_the_failure(
        self, red_profile, red_thresholds, faulted_recordings
    ):
        system = GradientEstimationSystem(
            red_profile, config=_config(red_thresholds, stages=ROBUST_STAGES)
        )
        expected = {
            "gps_dropout": "input_gps_gap",
            "stuck": "input_stuck",
            "jitter": "input_jitter",
            "baro_drift": "input_baro_step",
            "nan_burst": "input_nonfinite",
        }
        for fault_kind, flag_kind in expected.items():
            result = system.estimate(faulted_recordings[fault_kind])
            assert flag_kind in result.health.flag_kinds(), fault_kind


class TestPassivity:
    def test_outputs_bit_identical_with_monitoring_off(
        self, red_profile, red_recording, red_thresholds, ekf_loop
    ):
        on = GradientEstimationSystem(
            red_profile, config=_config(red_thresholds)
        ).estimate(red_recording)
        off = GradientEstimationSystem(
            red_profile,
            config=_config(red_thresholds, health=HealthConfig(enabled=False)),
        ).estimate(red_recording)
        assert np.array_equal(on.fused.theta, off.fused.theta)
        assert np.array_equal(on.fused.variance, off.fused.variance)
        for source in on.tracks:
            assert np.array_equal(
                on.tracks[source].theta, off.tracks[source].theta
            )
            assert np.array_equal(
                on.tracks[source].variance, off.tracks[source].variance
            )

    def test_faulted_outputs_bit_identical_too(
        self, red_profile, red_thresholds, faulted_recordings
    ):
        rec = faulted_recordings["baro_drift"]
        on = GradientEstimationSystem(
            red_profile, config=_config(red_thresholds, stages=ROBUST_STAGES)
        ).estimate(rec)
        off = GradientEstimationSystem(
            red_profile,
            config=_config(
                red_thresholds,
                stages=ROBUST_STAGES,
                health=HealthConfig(enabled=False),
            ),
        ).estimate(rec)
        assert np.array_equal(on.fused.theta, off.fused.theta)


class TestGating:
    def test_gate_fusion_rejects_diverged_tracks_only_when_asked(
        self, red_profile, red_recording, red_thresholds
    ):
        # A speedometer stuck for 10 s blows that track's windowed NIS
        # orders of magnitude past the bound — and only that track's, so
        # with gate_fusion it must not enter fusion while the fused
        # estimate survives on the healthy tracks.
        suite = fault_suite_for("stuck", 10.0, channel="speedometer", seed=0)
        rec = apply_fault_suite(red_recording, suite, trip_index=0)
        passive = GradientEstimationSystem(
            red_profile, config=_config(red_thresholds)
        ).estimate(rec)
        gated = GradientEstimationSystem(
            red_profile,
            config=_config(red_thresholds, health=HealthConfig(gate_fusion=True)),
        ).estimate(rec)
        assert passive.health.tracks["speedometer"].verdict == "diverged"
        assert gated.fused.theta.size > 0
        assert np.all(np.isfinite(gated.fused.theta))
        # Gating really changed the fusion input set.
        assert not np.array_equal(passive.fused.theta, gated.fused.theta)


class TestStreamingDetection:
    def test_streaming_monitor_flags_nan_input(self):
        from repro.core.online import StreamingGradientEstimator

        est = StreamingGradientEstimator(
            dt=0.02, v0=10.0, health=HealthConfig()
        )
        for _ in range(50):
            est.push(0.1, 10.0)
        assert est.health.verdict == "ok"
        for _ in range(100):
            est.push(float("nan"), 10.0)
        assert est.health.verdict == "diverged"

    def test_streaming_clean_run_unflagged(self):
        from repro.core.online import StreamingGradientEstimator

        rng = np.random.default_rng(2)
        est = StreamingGradientEstimator(
            dt=0.02, v0=12.0, measurement_std=0.2, health=HealthConfig()
        )
        v = 12.0
        for _ in range(3000):
            est.push(float(rng.normal(0.0, 0.05)), float(v + rng.normal(0.0, 0.05)))
        assert est.health.verdict == "ok"
        assert est.health.flags == []

    def test_streaming_health_off_by_default_and_passive(self):
        from repro.core.online import StreamingGradientEstimator

        rng = np.random.default_rng(4)
        accel = rng.normal(0.0, 0.05, 2000)
        v_meas = 12.0 + rng.normal(0.0, 0.05, 2000)
        plain = StreamingGradientEstimator(dt=0.02, v0=12.0)
        monitored = StreamingGradientEstimator(
            dt=0.02, v0=12.0, health=HealthConfig()
        )
        assert plain.health is None
        theta_a = plain.run(accel, v_meas)
        theta_b = monitored.run(accel, v_meas)
        assert np.array_equal(theta_a, theta_b)
