"""Batched EKF engine equivalence: both loops == looped scalar, bit for bit.

:func:`repro.core.batch.estimate_tracks_batch` runs narrow batches track by
track through :func:`repro.core.gradient_ekf.estimate_track` and wide ones
through a vectorized tick loop that evaluates the scalar core's expressions
in the same order. This suite pins the contract that the two loops are
bit-identical: states, covariances and innovation-driven outputs are
``np.array_equal`` across a width sweep around the crossover and a routes x
noise-seeds x lane-change-densities matrix, including the total-GPS-outage
fixture, at both the direct-API and full-pipeline level.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.constants import GRAVITY
from repro.core.batch import (
    _VECTORIZE_MIN_TRACKS,
    _vectorized_tracks,
    estimate_tracks_batch,
)
from repro.core.gradient_ekf import GradientEKFConfig, estimate_track
from repro.core.lane_change.detector import LaneChangeDetectorConfig
from repro.core.lane_change.features import LaneChangeThresholds
from repro.core.pipeline import GradientEstimationSystem, GradientSystemConfig
from repro.errors import EstimationError
from repro.obs import Telemetry
from repro.roads import SectionSpec, build_profile
from repro.sensors import Smartphone
from repro.sensors.base import SampledSignal
from repro.sensors.phone import VELOCITY_SOURCES
from repro.vehicle import DEFAULT_VEHICLE, DriverProfile, simulate_trip

TH = LaneChangeThresholds(delta=0.05, duration=0.5)

# -- direct engine API -------------------------------------------------------


def _synthetic_track(
    n: int,
    dt: float,
    seed: int,
    source: str = "speedometer",
    meas_stride: int = 1,
    theta: float = 0.03,
) -> tuple[SampledSignal, SampledSignal, np.ndarray]:
    """One (accel, velocity, arc_length) input triple for the engines."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) * dt
    accel = SampledSignal(
        t=t,
        values=GRAVITY * np.sin(theta) + rng.normal(0.0, 0.08, n),
        name="accel-long",
    )
    values = 12.0 + rng.normal(0.0, 0.1, n)
    if meas_stride > 1:
        sparse = np.full(n, np.nan)
        sparse[::meas_stride] = values[::meas_stride]
        values = sparse
    velocity = SampledSignal(t=t, values=values, name=source)
    return accel, velocity, 12.0 * t


def _mixed_batch(seed: int):
    """Four tracks with mixed lengths, sources and measurement sparsity."""
    specs = [
        ("gps-speed", 1400, 50),  # GPS-like: one fix per second
        ("speedometer", 1500, 1),
        ("canbus", 1200, 5),
        ("accelerometer-velocity", 900, 1),
    ]
    accels, velocities, arcs = [], [], []
    for j, (source, n, stride) in enumerate(specs):
        a, v, s = _synthetic_track(
            n, 0.02, seed * 37 + j, source=source, meas_stride=stride
        )
        accels.append(a)
        velocities.append(v)
        arcs.append(s)
    return accels, velocities, arcs


def _sweep_batch(width: int, seed: int):
    """``width`` tracks of mixed length, source and measurement sparsity;
    every fifth track also loses its measurements for a long stretch."""
    sources = list(VELOCITY_SOURCES)
    accels, velocities, arcs = [], [], []
    for k in range(width):
        n = 300 + (k * 37) % 250
        a, v, s = _synthetic_track(
            n,
            0.02,
            seed * 101 + k,
            source=sources[k % len(sources)],
            meas_stride=(1, 5, 50)[k % 3],
            theta=0.01 * (k % 7 - 3),
        )
        if k % 5 == 4:
            v.values[n // 4 : 3 * n // 4] = np.nan
        accels.append(a)
        velocities.append(v)
        arcs.append(s)
    return accels, velocities, arcs


def _vectorized(accels, velocities, arcs, config=None, telemetry=None):
    """The vectorized loop at any width, bypassing the width dispatch."""
    n = len(accels)
    return _vectorized_tracks(
        accels,
        velocities,
        arcs,
        DEFAULT_VEHICLE,
        config or GradientEKFConfig(),
        None,
        [telemetry] * n,
        [None] * n,
    )


def _assert_tracks_equal(batch_tracks, scalar_tracks):
    assert len(batch_tracks) == len(scalar_tracks)
    for got, want in zip(batch_tracks, scalar_tracks):
        assert np.array_equal(got.t, want.t)
        assert np.array_equal(got.s, want.s)
        assert np.array_equal(got.theta, want.theta)
        assert np.array_equal(got.v, want.v)
        assert np.array_equal(got.variance, want.variance)


class TestDirectEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("process", ["specific_force", "accelerometer"])
    def test_mixed_batch_matches_scalar(self, seed, process):
        accels, velocities, arcs = _mixed_batch(seed)
        cfg = GradientEKFConfig(process=process)
        batch = estimate_tracks_batch(accels, velocities, arcs, config=cfg)
        scalar = [
            estimate_track(a, v, s, config=cfg)
            for a, v, s in zip(accels, velocities, arcs)
        ]
        _assert_tracks_equal(batch, scalar)

    def test_single_track_batch(self):
        a, v, s = _synthetic_track(800, 0.02, seed=5)
        batch = estimate_tracks_batch([a], [v], [s])
        scalar = estimate_track(a, v, s)
        _assert_tracks_equal(batch, [scalar])

    def test_innovations_and_counters_match_scalar(self):
        accels, velocities, arcs = _mixed_batch(9)
        tel_b, tel_s = Telemetry("batch"), Telemetry("scalar")
        estimate_tracks_batch(accels, velocities, arcs, telemetry=tel_b)
        for a, v, s in zip(accels, velocities, arcs):
            estimate_track(a, v, s, telemetry=tel_s)
        snap_b = tel_b.metrics.snapshot()
        snap_s = tel_s.metrics.snapshot()
        assert snap_b["counters"] == snap_s["counters"]
        hist_b = snap_b["histograms"]["ekf_innovation_abs"]
        hist_s = snap_s["histograms"]["ekf_innovation_abs"]
        assert hist_b["count"] == hist_s["count"]
        for stat in ("sum", "mean", "min", "max"):
            assert hist_b[stat] == hist_s[stat]

    def test_smooth_falls_back_bit_identical(self):
        accels, velocities, arcs = _mixed_batch(3)
        cfg = GradientEKFConfig(smooth=True)
        batch = estimate_tracks_batch(accels, velocities, arcs, config=cfg)
        scalar = [
            estimate_track(a, v, s, config=cfg)
            for a, v, s in zip(accels, velocities, arcs)
        ]
        for got, want in zip(batch, scalar):
            assert np.array_equal(got.theta, want.theta)
            assert np.array_equal(got.variance, want.variance)

    def test_bootstrap_without_finite_measurements_matches(self):
        # A velocity source that never reports forces the accel-based v0
        # bootstrap path; estimate_track raises in that case and so must
        # the batch engine.
        a, v, s = _synthetic_track(400, 0.02, seed=11)
        v.values[:] = np.nan
        v.valid[:] = False
        with pytest.raises(EstimationError):
            estimate_track(a, v, s)
        with pytest.raises(EstimationError):
            estimate_tracks_batch([a], [v], [s])

    def test_length_mismatch_rejected(self):
        a, v, s = _synthetic_track(400, 0.02, seed=0)
        with pytest.raises(EstimationError):
            estimate_tracks_batch([a], [v, v], [s])
        with pytest.raises(EstimationError):
            estimate_tracks_batch([], [], [])
        with pytest.raises(EstimationError):
            estimate_tracks_batch([a], [v], [s], names=["x", "y"])

    def test_track_names_and_meta(self):
        accels, velocities, arcs = _mixed_batch(1)
        named = estimate_tracks_batch(
            accels, velocities, arcs, names=["a", "b", "c", "d"]
        )
        assert [t.name for t in named] == ["a", "b", "c", "d"]
        assert all(t.meta["engine"] == "batch" for t in named)
        default = estimate_tracks_batch(accels, velocities, arcs)
        assert [t.name for t in default] == [v.name for v in velocities]

    @pytest.mark.parametrize(
        "width, smooth, loop",
        [
            (4, False, "per_track"),
            (_VECTORIZE_MIN_TRACKS - 1, False, "per_track"),
            (_VECTORIZE_MIN_TRACKS, False, "vectorized"),
            (_VECTORIZE_MIN_TRACKS, True, "per_track"),
        ],
    )
    def test_meta_records_the_loop(self, width, smooth, loop):
        accels, velocities, arcs = _sweep_batch(width, seed=4)
        cfg = GradientEKFConfig(smooth=smooth)
        tracks = estimate_tracks_batch(accels, velocities, arcs, config=cfg)
        assert all(t.meta["engine"] == "batch" for t in tracks)
        assert all(t.meta["loop"] == loop for t in tracks)
        want = [
            estimate_track(a, v, s, config=cfg)
            for a, v, s in zip(accels, velocities, arcs)
        ]
        for got, ref in zip(tracks, want):
            assert got.meta["measurement_std"] == ref.meta["measurement_std"]


SWEEP_WIDTHS = sorted(
    {1, 2, 4, _VECTORIZE_MIN_TRACKS - 1, _VECTORIZE_MIN_TRACKS,
     _VECTORIZE_MIN_TRACKS + 1, 64}
)


class TestLoopsBitIdentical:
    """The vectorized loop and per-track estimate_track agree bit for bit."""

    @pytest.mark.parametrize("width", SWEEP_WIDTHS)
    @pytest.mark.parametrize("process", ["specific_force", "accelerometer"])
    def test_width_sweep(self, width, process):
        accels, velocities, arcs = _sweep_batch(width, seed=width)
        cfg = GradientEKFConfig(process=process)
        per_track = [
            estimate_track(a, v, s, config=cfg)
            for a, v, s in zip(accels, velocities, arcs)
        ]
        _assert_tracks_equal(
            _vectorized(accels, velocities, arcs, config=cfg), per_track
        )
        _assert_tracks_equal(
            estimate_tracks_batch(accels, velocities, arcs, config=cfg), per_track
        )

    def test_vectorized_telemetry_matches_per_track(self):
        accels, velocities, arcs = _mixed_batch(9)
        tel_b, tel_s = Telemetry("vectorized"), Telemetry("per-track")
        _vectorized(accels, velocities, arcs, telemetry=tel_b)
        for a, v, s in zip(accels, velocities, arcs):
            estimate_track(a, v, s, telemetry=tel_s)
        assert tel_b.metrics.snapshot() == tel_s.metrics.snapshot()

    @pytest.mark.parametrize("process", ["specific_force", "accelerometer"])
    def test_total_outage_fixture(self, process):
        # The sources the pipeline keeps when GPS never fixes, from the
        # recordings of two seeds, so the batch mixes track lengths.
        accels, velocities, arcs = [], [], []
        for seed in (17, 99):
            _, rec = _route_recording("outage", seed, 3.0)
            for source in ROUTES["outage"]["sources"]:
                accels.append(rec.accel_long)
                velocities.append(rec.velocity_source(source))
                arcs.append(np.zeros_like(rec.accel_long.t))
        cfg = GradientEKFConfig(process=process)
        per_track = [
            estimate_track(a, v, s, config=cfg)
            for a, v, s in zip(accels, velocities, arcs)
        ]
        _assert_tracks_equal(
            _vectorized(accels, velocities, arcs, config=cfg), per_track
        )


# -- full pipeline: ekf_engine="batch" vs "scalar" ---------------------------

ROUTES = {
    "rolling": dict(
        specs=[
            SectionSpec.from_degrees(350.0, 2.0, 2, 5.0),
            SectionSpec.from_degrees(350.0, -1.5, 2, -6.0),
        ],
        gps_outages=None,
        sources=VELOCITY_SOURCES,
    ),
    # The total-GPS-outage fixture: no fix anywhere, GPS track unusable.
    "outage": dict(
        specs=[
            SectionSpec.from_degrees(400.0, 2.0),
            SectionSpec.from_degrees(300.0, -2.0),
        ],
        gps_outages=[(0.0, 800.0)],
        sources=("speedometer", "accelerometer", "canbus"),
    ),
}


@functools.lru_cache(maxsize=None)
def _route_recording(route: str, seed: int, density: float):
    spec = ROUTES[route]
    profile = build_profile(
        spec["specs"], gps_outages=spec["gps_outages"], name=route
    )
    trace = simulate_trip(
        profile, DriverProfile(lane_changes_per_km=density), seed=seed
    )
    rec = Smartphone().record(trace, np.random.default_rng(seed + 1000))
    return profile, rec


def _run_engine(route: str, seed: int, density: float, engine: str):
    profile, rec = _route_recording(route, seed, density)
    cfg = GradientSystemConfig(
        detector=LaneChangeDetectorConfig(thresholds=TH),
        velocity_sources=ROUTES[route]["sources"],
        ekf_engine=engine,
    )
    return GradientEstimationSystem(profile, config=cfg).estimate(rec)


class TestPipelineEquivalence:
    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("seed", [17, 99])
    @pytest.mark.parametrize("density", [0.0, 3.0])
    def test_engines_agree(self, route, seed, density):
        res_b = _run_engine(route, seed, density, "batch")
        res_s = _run_engine(route, seed, density, "scalar")
        assert np.array_equal(res_b.s_grid, res_s.s_grid)
        assert res_b.n_lane_changes == res_s.n_lane_changes
        assert set(res_b.tracks) == set(res_s.tracks)
        for source in res_b.tracks:
            got, want = res_b.tracks[source], res_s.tracks[source]
            assert np.array_equal(got.theta, want.theta)
            assert np.array_equal(got.variance, want.variance)
            assert np.array_equal(got.v, want.v)
        assert np.array_equal(res_b.fused.theta, res_s.fused.theta)

    def test_outage_recording_has_no_fix(self):
        _, rec = _route_recording("outage", 17, 0.0)
        assert rec.gps.availability == 0.0

    def test_batch_engine_telemetry_matches_scalar(self):
        profile, rec = _route_recording("rolling", 17, 3.0)
        snaps = {}
        for engine in ("batch", "scalar"):
            tel = Telemetry(engine)
            cfg = GradientSystemConfig(
                detector=LaneChangeDetectorConfig(thresholds=TH),
                ekf_engine=engine,
            )
            GradientEstimationSystem(profile, config=cfg, telemetry=tel).estimate(rec)
            snaps[engine] = tel.metrics.snapshot()
        assert snaps["batch"]["counters"] == snaps["scalar"]["counters"]
        hist_b = snaps["batch"]["histograms"]["ekf_innovation_abs"]
        hist_s = snaps["scalar"]["histograms"]["ekf_innovation_abs"]
        assert hist_b["count"] == hist_s["count"]
        assert hist_b["sum"] == hist_s["sum"]
