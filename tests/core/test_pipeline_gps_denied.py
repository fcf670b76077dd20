"""GPS-denied through the offline filter and the full pipeline.

Pins three contracts: the offline ``estimate_track`` fuses prior-map
gradients and inflates at reacquisition (with counters and meta to show
for it); ``estimate_tracks_batch`` runs GPS-denied tracks through its
per-track loop even when the batch is wide enough to vectorize, so
per-trip ``estimate`` and batched ``estimate_batch`` agree exactly; and a
disabled ``GPSDeniedConfig`` leaves pipeline outputs bit-identical to a
config that never mentions it.
"""

import numpy as np
import pytest

from repro.constants import GRAVITY
from repro.core import batch as ekf_batch
from repro.core.batch import _VECTORIZE_MIN_TRACKS, _vectorized_tracks
from repro.core.dead_reckoning import GPSDeniedConfig
from repro.core.gradient_ekf import GradientEKFConfig, estimate_track
from repro.core.pipeline import GradientEstimationSystem, GradientSystemConfig
from repro.core.lane_change.detector import LaneChangeDetectorConfig
from repro.core.lane_change.features import LaneChangeThresholds
from repro.core.stages import PipelineContext
from repro.core.trip_batch import BatchPipelineContext, TripBatch
from repro.faults import FaultSpec, FaultSuiteConfig, apply_fault_suite
from repro.obs import Telemetry
from repro.roads import SectionSpec, build_profile
from repro.roads.prior_map import PriorGradeMap
from repro.sensors import Smartphone
from repro.sensors.base import SampledSignal
from repro.vehicle import DEFAULT_VEHICLE, DriverProfile, simulate_trip

TH = LaneChangeThresholds(delta=0.05, duration=0.5)

#: Thresholds scaled so a 10 s hole in a short synthetic trip is an outage.
GD = GPSDeniedConfig(
    enabled=True,
    outage_enter_ticks=100,
    dead_reckoning_after_ticks=150,
    map_update_interval_ticks=25,
)


def offline_inputs(n=4000, dt=0.02, theta=0.04, seed=1, hole=(1000, 2500)):
    rng = np.random.default_rng(seed)
    t = np.arange(n) * dt
    accel = SampledSignal(
        t=t, values=GRAVITY * np.sin(theta) + rng.normal(0.0, 0.05, n), name="accel"
    )
    values = 12.0 + rng.normal(0.0, 0.1, n)
    z = np.full(n, np.nan)
    z[::50] = values[::50]
    z[hole[0] : hole[1]] = np.nan
    velocity = SampledSignal(t=t, values=z, name="gps-speed")
    return accel, velocity, 12.0 * t


def constant_map(theta=0.04, length=2000.0):
    s = np.linspace(0.0, length, 41)
    return PriorGradeMap(s=s, theta=np.full(41, theta), variance=np.full(41, 1e-5))


class TestOfflineEngine:
    def test_map_updates_and_reacquisition_recorded(self):
        accel, velocity, s = offline_inputs()
        tel = Telemetry("gd-offline")
        track = estimate_track(
            accel,
            velocity,
            s,
            telemetry=tel,
            gps_denied=GD,
            prior_map=constant_map(length=s[-1] + 100.0),
        )
        meta = track.meta["gps_denied"]
        assert meta["map_updates"] > 0
        assert meta["reacquisitions"] == 1
        assert tel.metrics.counter("ekf.map_updates").value == meta["map_updates"]
        assert tel.metrics.counter("ekf.covariance_reset").value == 1

    def test_map_keeps_outage_theta_on_grade(self):
        accel, velocity, s = offline_inputs(theta=0.04)
        kwargs = dict(config=GradientEKFConfig(smooth=False))
        plain = estimate_track(accel, velocity, s, **kwargs)
        aided = estimate_track(
            accel,
            velocity,
            s,
            gps_denied=GD,
            prior_map=constant_map(length=s[-1] + 100.0),
            **kwargs,
        )
        window = slice(1500, 2500)  # deep in the outage
        err_plain = np.abs(plain.theta[window] - 0.04).max()
        err_aided = np.abs(aided.theta[window] - 0.04).max()
        assert err_aided <= err_plain + 1e-12

    def test_disabled_config_is_bit_identical(self):
        accel, velocity, s = offline_inputs()
        plain = estimate_track(accel, velocity, s)
        gated = estimate_track(
            accel, velocity, s, gps_denied=GPSDeniedConfig(enabled=False)
        )
        assert np.array_equal(plain.theta, gated.theta)
        assert np.array_equal(plain.variance, gated.variance)
        assert "gps_denied" not in gated.meta

    def test_short_gaps_are_not_outages(self):
        # Sparse 1 Hz measurements (49-tick gaps) sit below the 100-tick
        # threshold: no plan, no inflation, bit-identical output.
        accel, velocity, s = offline_inputs(hole=(0, 0))
        plain = estimate_track(accel, velocity, s)
        gated = estimate_track(
            accel, velocity, s, gps_denied=GD, prior_map=constant_map()
        )
        assert np.array_equal(plain.theta, gated.theta)
        assert "gps_denied" not in gated.meta


class TestPipelineRouting:
    @pytest.fixture(scope="class")
    def trip(self):
        profile = build_profile(
            [
                SectionSpec.from_degrees(900.0, 2.0, 2),
                SectionSpec.from_degrees(700.0, -1.5, 2, turn_deg=30.0),
            ],
            gps_outages=[(400.0, 700.0)],
            name="gd-pipeline-route",
        )
        trace = simulate_trip(profile, DriverProfile(lane_changes_per_km=0.0), seed=9)
        rec = Smartphone().record(trace, np.random.default_rng(10))
        return profile, rec

    def make_cfg(self, gd):
        return GradientSystemConfig(
            detector=LaneChangeDetectorConfig(thresholds=TH), gps_denied=gd
        )

    def test_batch_engine_routes_to_scalar_when_enabled(self, trip, monkeypatch):
        # Even with the vectorize threshold at one track, GPS-denied tracks
        # run the per-track loop: each pipeline track equals estimate_track
        # with the outage plan on the same corrected signal, and differs
        # from the vectorized loop (which has no plan) on that signal.
        profile, rec = trip
        monkeypatch.setattr(ekf_batch, "_VECTORIZE_MIN_TRACKS", 1)
        cfg = self.make_cfg(GD)
        system = GradientEstimationSystem(profile, config=cfg)
        tel = Telemetry("gd-routing")
        ctx = PipelineContext(
            recording=rec,
            config=cfg,
            road_map=system.road_map,
            vehicle=system.vehicle,
            telemetry=tel,
        )
        bctx = BatchPipelineContext(
            batch=TripBatch([rec]),
            contexts=[ctx],
            config=cfg,
            road_map=system.road_map,
            vehicle=system.vehicle,
            telemetry=tel,
        )
        for stage in system.stages:
            stage.run_batch(bctx)
        assert bctx.failed == {}
        signals = list(ctx.signals.values())
        n = len(signals)
        vectorized = _vectorized_tracks(
            [rec.accel_long] * n,
            signals,
            [ctx.aligned.s] * n,
            DEFAULT_VEHICLE,
            cfg.ekf,
            list(ctx.signals),
            [None] * n,
            [None] * n,
        )
        planned = 0
        for (name, signal), plain in zip(ctx.signals.items(), vectorized):
            got = ctx.tracks[name]
            want = estimate_track(
                rec.accel_long, signal, ctx.aligned.s, name=name, gps_denied=GD
            )
            assert got.meta["loop"] == "per_track"
            assert np.array_equal(got.theta, want.theta)
            assert np.array_equal(got.variance, want.variance)
            assert np.array_equal(got.v, want.v)
            assert got.meta.get("gps_denied") == want.meta.get("gps_denied")
            if "gps_denied" in got.meta:
                planned += 1
                assert not np.array_equal(got.variance, plain.variance)
        assert planned > 0
        fallback = ctx.telemetry.metrics.counter(
            "ekf.scalar_fallback", {"reason": "gps_denied"}
        )
        assert fallback.value == n

    def test_disabled_config_is_bit_identical(self, trip, ekf_loop):
        profile, rec = trip
        base = GradientEstimationSystem(
            profile,
            config=GradientSystemConfig(
                detector=LaneChangeDetectorConfig(thresholds=TH)
            ),
        ).estimate(rec)
        gated = GradientEstimationSystem(
            profile, config=self.make_cfg(GPSDeniedConfig(enabled=False))
        ).estimate(rec)
        assert np.array_equal(base.fused.theta, gated.fused.theta)

    def test_gps_denied_config_serializes_through_system_config(self):
        cfg = self.make_cfg(GD)
        rebuilt = GradientSystemConfig.from_dict(cfg.to_dict())
        assert rebuilt.gps_denied == GD


class TestBatchedGPSDenied:
    """``estimate_batch`` over a fleet of dropout trips wide enough that the
    flattened batch would vectorize, with a prior map: identical to
    per-trip ``estimate``."""

    N_TRIPS = -(-_VECTORIZE_MIN_TRACKS // 4)  # 4 sources per trip

    @pytest.fixture(scope="class")
    def fleet(self):
        profile = build_profile(
            [
                SectionSpec.from_degrees(500.0, 2.5, 2),
                SectionSpec.from_degrees(400.0, -1.5, 2, turn_deg=20.0),
            ],
            name="gd-fleet-route",
        )
        dropout = FaultSuiteConfig(
            faults=(FaultSpec(kind="gps_dropout", start_s=15.0, duration_s=20.0),)
        )
        recs = []
        for i in range(self.N_TRIPS):
            trace = simulate_trip(
                profile, DriverProfile(lane_changes_per_km=1.0), seed=40 + i
            )
            rec = Smartphone().record(trace, np.random.default_rng(80 + i))
            recs.append(apply_fault_suite(rec, dropout, i))
        prior = PriorGradeMap(
            s=profile.s, theta=profile.grade, variance=np.full(len(profile.s), 1e-5)
        )
        return profile, recs, prior

    def test_estimate_batch_matches_estimate(self, fleet):
        profile, recs, prior = fleet
        cfg = GradientSystemConfig(
            detector=LaneChangeDetectorConfig(thresholds=TH),
            gps_denied=GPSDeniedConfig(enabled=True, prior_map=prior.to_config()),
        )
        serial_tels = [Telemetry(f"serial-{i}") for i in range(len(recs))]
        serial = [
            GradientEstimationSystem(profile, config=cfg, telemetry=tel).estimate(rec)
            for rec, tel in zip(recs, serial_tels)
        ]
        batch_tels = [Telemetry(f"batch-{i}") for i in range(len(recs))]
        batched = GradientEstimationSystem(profile, config=cfg).estimate_batch(
            recs, telemetries=batch_tels
        )
        assert batched.errors == {}
        assert sum(len(r.tracks) for r in serial) >= _VECTORIZE_MIN_TRACKS

        map_updates = 0
        for want, got, tel_s, tel_b in zip(
            serial, batched.results, serial_tels, batch_tels
        ):
            assert np.array_equal(got.fused.theta, want.fused.theta)
            assert np.array_equal(got.fused.variance, want.fused.variance)
            assert list(got.tracks) == list(want.tracks)
            for name, track in want.tracks.items():
                assert np.array_equal(got.tracks[name].theta, track.theta)
                assert np.array_equal(got.tracks[name].variance, track.variance)
                assert got.tracks[name].meta.get("gps_denied") == track.meta.get(
                    "gps_denied"
                )
                assert got.tracks[name].meta["loop"] == "per_track"
            updates = tel_s.metrics.counter("ekf.map_updates").value
            assert tel_b.metrics.counter("ekf.map_updates").value == updates
            map_updates += updates
            # The wide batch ran per track because of the outage plan.
            fallback = tel_b.metrics.counter(
                "ekf.scalar_fallback", {"reason": "gps_denied"}
            )
            assert fallback.value == len(got.tracks)
        assert map_updates > 0
