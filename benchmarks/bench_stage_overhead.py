"""Stage-dispatch overhead of the composable pipeline runner.

The refactor that turned ``GradientEstimationSystem.estimate`` into a
runner over stage objects must stay free: per estimate it adds only a
handful of attribute writes and (with telemetry off) no-op span context
managers. This benchmark pins that — the stage runner is timed against a
hand-inlined loop that calls the same stage bodies directly, and the two
must produce identical outputs at statistically indistinguishable cost.

A generous 1.30x ceiling keeps CI timing-stable while still catching a
regression that puts real work (allocation, validation, deep copies) on
the per-stage dispatch path.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import print_block
from repro.core.pipeline import GradientEstimationSystem, GradientSystemConfig
from repro.core.lane_change.detector import LaneChangeDetectorConfig
from repro.core.lane_change.features import LaneChangeThresholds
from repro.core.stages import PipelineContext
from repro.core.trip_batch import BatchPipelineContext, TripBatch
from repro.datasets.charlottesville import red_route
from repro.sensors import Smartphone
from repro.vehicle import DriverProfile, SimulationConfig, simulate_trip

REPEATS = 5


def _setup():
    profile = red_route()
    trace = simulate_trip(
        profile,
        driver=DriverProfile(lane_changes_per_km=2.0),
        config=SimulationConfig(sample_rate=50.0),
        seed=13,
    )
    recording = Smartphone().record(trace, np.random.default_rng(113))
    cfg = GradientSystemConfig(
        detector=LaneChangeDetectorConfig(
            thresholds=LaneChangeThresholds(delta=0.05, duration=0.5)
        )
    )
    return GradientEstimationSystem(profile, config=cfg), recording


def _run_direct(system, recording):
    """The stage bodies without the runner: no spans, no runner checks."""
    ctx = PipelineContext(
        recording=recording,
        config=system.config,
        road_map=system.road_map,
        vehicle=system.vehicle,
        telemetry=system.telemetry,
    )
    bctx = BatchPipelineContext(
        batch=TripBatch([recording]),
        contexts=[ctx],
        config=system.config,
        road_map=system.road_map,
        vehicle=system.vehicle,
        telemetry=system.telemetry,
    )
    for stage in system.stages:
        stage.run_batch(bctx)
    return ctx


def test_stage_runner_overhead(bench_telemetry):
    system, recording = _setup()

    # Identical outputs first — overhead numbers mean nothing otherwise.
    via_runner = system.estimate(recording)
    direct = _run_direct(system, recording)
    assert np.array_equal(via_runner.fused.theta, direct.fused.theta)
    assert np.array_equal(via_runner.s_grid, direct.s_grid)
    assert via_runner.events == direct.events

    best_runner = best_direct = float("inf")
    with bench_telemetry.span("stage_overhead_bench", repeats=REPEATS):
        # Interleave the arms so CPU frequency drift hits both equally.
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            system.estimate(recording)
            best_runner = min(best_runner, time.perf_counter() - t0)
            t0 = time.perf_counter()
            _run_direct(system, recording)
            best_direct = min(best_direct, time.perf_counter() - t0)

    ratio = best_runner / best_direct
    bench_telemetry.metrics.gauge("stage_overhead.ratio").set(ratio)
    print_block(
        "Stage runner dispatch overhead (red route, 4 stages)\n"
        f"  direct stage calls : {best_direct * 1e3:8.2f} ms\n"
        f"  stage runner       : {best_runner * 1e3:8.2f} ms\n"
        f"  ratio              : {ratio:8.3f}x  (ceiling 1.30x)"
    )
    assert ratio < 1.30


def test_ablated_pipeline_scales_down(bench_telemetry):
    """Dropping stages must drop their cost — the runner does no hidden
    work for stages that are not configured."""
    system, recording = _setup()
    ablated_cfg = GradientSystemConfig(
        detector=system.config.detector,
        stages=("alignment", "ekf_tracks", "fusion"),
    )
    ablated = GradientEstimationSystem(
        system.road_map, config=ablated_cfg, vehicle=system.vehicle
    )

    best_full = best_ablated = float("inf")
    with bench_telemetry.span("ablation_bench", repeats=REPEATS):
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            system.estimate(recording)
            best_full = min(best_full, time.perf_counter() - t0)
            t0 = time.perf_counter()
            ablated.estimate(recording)
            best_ablated = min(best_ablated, time.perf_counter() - t0)

    print_block(
        "Ablated pipeline (no lane-change stage)\n"
        f"  full 4-stage  : {best_full * 1e3:8.2f} ms\n"
        f"  3-stage       : {best_ablated * 1e3:8.2f} ms"
    )
    # The 3-stage run skips detection entirely; it must never cost more
    # than the full pipeline plus noise.
    assert best_ablated < best_full * 1.10
