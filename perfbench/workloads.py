"""The four benchmark workloads: inputs from a seed, set-up, timed loop.

Every workload is a closed loop with one client in this process: the next
request is sent when the previous one has returned. A workload's set-up
makes its inputs from ``--seed`` alone (the program sees only the
generated recordings), and its timed loop runs for at least the requested
number of seconds and at least one pass over its distinct inputs, so the
accuracy score and the output checks always cover every input.

``fleet``   crowd-map builder: one ``estimate_batch`` over a memory-mapped
            :class:`~repro.sensors.recording_io.TripStore` plus cloud fusion.
``upload``  one clean trip per ``estimate()`` call, paper stages.
``outage``  one trip with a 30 s GPS dropout per ``estimate()`` call, with
            the GPS-denied mode and a prior grade map.
``stream``  trips replayed sample by sample through
            ``StreamingGradientEstimator.push`` with a 30 s GPS outage.

All trips drive the same fixed ~1.4 km route at 50 Hz. Driver speed and
lane-change style are jittered per trip from the seed, so trip lengths
differ and a batch carries real padding.
"""

from __future__ import annotations

import os
import shutil
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro import (
    DriverProfile,
    FaultSpec,
    FaultSuiteConfig,
    Smartphone,
    apply_fault_suite,
    simulate_trip,
)
from repro.core.dead_reckoning import GPSDeniedConfig
from repro.core.gradient_ekf import GradientEKFConfig, measurements_on_timebase
from repro.core.online import StreamingGradientEstimator
from repro.core.pipeline import GradientEstimationSystem, fuse_estimates
from repro.core.stages import ROBUST_STAGES
from repro.eval.runner import RunnerConfig, system_config
from repro.roads.builder import SectionSpec, build_profile
from repro.roads.prior_map import PriorGradeMap
from repro.roads.reference import survey_reference_profile
from repro.sensors.recording_io import TripStore
from repro.vehicle.simulator import SimulationConfig

from .histogram import LogHistogram
from .speed import SpeedProbe
from .tracer import timed_stages

__all__ = ["SIZES", "TINY", "WORKLOADS", "Outcome", "Sizes"]

#: The fixed route: ~1.4 km, mixed grades, two gentle curves. Same geometry
#: as ``benchmarks/bench_pipeline_batch.py``, copied so the benchmark does not
#: depend on another bench script.
ROUTE = (
    SectionSpec.from_degrees(400.0, 2.0, lanes=2),
    SectionSpec.from_degrees(300.0, -1.5, lanes=2, turn_deg=25.0),
    SectionSpec.from_degrees(400.0, 3.0, lanes=2),
    SectionSpec.from_degrees(300.0, 0.0, lanes=2, turn_deg=-20.0),
)
SAMPLE_RATE_HZ = 50.0
#: GPS outage carved into ``fleet`` (every fourth trip), ``outage`` and
#: ``stream`` trips: 30 s starting 60 s into the trip.
OUTAGE_START_S = 60.0
OUTAGE_S = 30.0
#: Scoring: the accuracy grid trims the route ends (the filter converges
#: from a flat-road prior), and streamed theta is scored after settling.
GRID_TRIM_M = 80.0
GRID_SPACING_M = 5.0
REFERENCE_SMOOTH_M = 15.0
STREAM_SETTLE_S = 10.0
STREAM_MEASUREMENT_STD = 0.30
#: Clean earlier drives fused into the prior grade map (``outage``, ``stream``).
PRIOR_TRIPS = 4


@dataclass(frozen=True)
class Sizes:
    """How much input each workload builds.

    ``fleet_trips`` sets the fleet batch width (four tracks per trip); the
    other counts are the distinct trips each workload cycles through, and
    ``setup_repeats`` how often set-up runs, ``setup_s`` being the median.
    Accuracy is scored on those distinct trips, so their number sets how
    much ``grade_rmse_deg`` moves from seed to seed: per-trip RMSE through
    an outage ranges 0.5-1.15 deg, and 16 trips keep the seed-to-seed
    quartile spread of ``outage`` near 9% where 8 left it at 22%.
    """

    fleet_trips: int = 16
    upload_trips: int = 8
    outage_trips: int = 16
    stream_trips: int = 12
    setup_repeats: int = 3


SIZES = Sizes()
#: Smoke-test size: every code path, a few seconds per workload.
TINY = Sizes(fleet_trips=4, upload_trips=2, outage_trips=2, stream_trips=1, setup_repeats=1)


@dataclass
class Outcome:
    """What one timed phase did, measured from outside the program.

    ``latency`` and ``busy_s`` (summed request time) are at reference
    speed (:mod:`perfbench.speed`); ``raw_latency`` and ``wall_s`` are as
    measured.
    """

    wall_s: float
    busy_s: float
    latency: LogHistogram
    raw_latency: LogHistogram
    trips: int
    ticks: int
    attempted: int
    failed: int
    rmse_deg: float
    #: First-pass output arrays by key; the traced run must reproduce them.
    outputs: dict[str, np.ndarray]
    problems: list[str] = field(default_factory=list)
    #: Facts the per-layer metrics need (track-ticks, pad ratio, ...).
    facts: dict = field(default_factory=dict)


def bench_profile():
    return build_profile(list(ROUTE), name="perfbench-route")


def _driver(seed: int, index: int) -> DriverProfile:
    rng = np.random.default_rng([seed, index, 0])
    base = DriverProfile(lane_changes_per_km=3.0)
    return replace(
        base,
        name=f"bench-driver-{index}",
        cruise_speed=base.cruise_speed * float(rng.uniform(0.9, 1.1)),
        lane_change_duration=float(rng.uniform(4.2, 6.2)),
        lane_change_asymmetry=float(rng.uniform(0.8, 1.2)),
    )


def make_trip(profile, seed: int, index: int, tracer):
    """Simulate and record trip ``index``; deterministic in ``(seed, index)``."""
    sim_seed = int(np.random.SeedSequence([seed, index, 1]).generate_state(1)[0])
    with tracer.span("simulate_trip", trip=index) as sp:
        trace = simulate_trip(
            profile,
            driver=_driver(seed, index),
            config=SimulationConfig(sample_rate=SAMPLE_RATE_HZ),
            seed=sim_seed,
        )
    if tracer.active:
        sp.attrs["ticks"] = len(trace.t)
    with tracer.span("Smartphone.record", trip=index):
        rec = Smartphone().record(trace, np.random.default_rng([seed, index, 2]))
    return trace, rec


_DROPOUT = FaultSuiteConfig(
    faults=(FaultSpec(kind="gps_dropout", start_s=OUTAGE_START_S, duration_s=OUTAGE_S),)
)


def with_dropout(rec, index: int, tracer):
    with tracer.span("apply_fault_suite", trip=index):
        return apply_fault_suite(rec, _DROPOUT, index)


def reference_grid(profile):
    """Scoring grid and the surveyed reference gradient on it [rad]."""
    grid = np.arange(GRID_TRIM_M, profile.length - GRID_TRIM_M + 1e-9, GRID_SPACING_M)
    ref = survey_reference_profile(profile).smoothed(REFERENCE_SMOOTH_M)
    return grid, np.asarray(ref.gradient_at(grid), dtype=float)


def rmse_deg(theta: np.ndarray, truth: np.ndarray) -> float:
    return float(np.degrees(np.sqrt(np.mean((theta - truth) ** 2))))


def _make_system(profile, tracer, **runner_fields) -> GradientEstimationSystem:
    with tracer.span("system.construct"):
        return GradientEstimationSystem(
            profile, config=system_config(RunnerConfig(**runner_fields))
        )


def _prior_map(profile, seed: int, first: int, tracer) -> PriorGradeMap:
    """The banked crowd map: ``PRIOR_TRIPS`` earlier clean drives, each
    estimated offline, fused in the cloud. One drive alone gives a map whose
    quality swings from seed to seed, and every outage trip inherits it."""
    recs = [make_trip(profile, seed, first + j, tracer)[1] for j in range(PRIOR_TRIPS)]
    system = _make_system(profile, tracer)
    with tracer.span("estimate_batch", n_trips=len(recs)):
        results = system.estimate_batch(recs).results
    survivors = [r for r in results if r is not None]
    with tracer.span("fuse_estimates", n_trips=len(survivors)):
        cloud = fuse_estimates(survivors)
    with tracer.span("prior_map.build"):
        return PriorGradeMap.from_track(cloud)


def _track_ticks(result) -> tuple[int, int]:
    """(tracks, track-ticks) of one estimation result."""
    lengths = [len(track.theta) for track in result.tracks.values()]
    return len(lengths), int(sum(lengths))


def _request_latencies(probe: SpeedProbe, marks: list[int], lat_ns: list[int]):
    """Histograms of scaled and raw request latencies, and the scaled sum [s]."""
    raw = np.asarray(lat_ns, dtype=float)
    scaled = raw * np.array([probe.factor_at(m) for m in marks])
    latency, raw_latency = LogHistogram(), LogHistogram()
    latency.add(scaled)
    raw_latency.add(raw)
    return latency, raw_latency, float(scaled.sum()) / 1e9


def _cache_hits(system) -> tuple[int, int]:
    info = system.road_map.cache_info()
    return int(info["hits"]), int(info["misses"])


# -- fleet ---------------------------------------------------------------------


def setup_fleet(seed: int, sizes: Sizes, tracer, workdir: Path) -> dict:
    profile = bench_profile()
    recs = []
    for i in range(sizes.fleet_trips):
        _, rec = make_trip(profile, seed, i, tracer)
        recs.append(with_dropout(rec, i, tracer) if i % 4 == 0 else rec)
    store_dir = workdir / "store"
    shutil.rmtree(store_dir, ignore_errors=True)
    with tracer.span("TripStore.write", n_trips=len(recs)):
        TripStore.write(store_dir, recs)
    if tracer.active:
        tracer.by_name("TripStore.write")[-1].attrs["bytes"] = sum(
            p.stat().st_size for p in store_dir.rglob("*") if p.is_file()
        )
    system = _make_system(profile, tracer, stages=ROBUST_STAGES)
    with tracer.span("warmup"):
        system.estimate_batch(recs[:2])
    return {"profile": profile, "system": system, "store_dir": store_dir,
            "n": len(recs), "grid": reference_grid(profile)}


def run_fleet(state: dict, seconds: float, tracer, probe: SpeedProbe) -> Outcome:
    system, n = state["system"], state["n"]
    grid, truth = state["grid"]
    timed_stages(system, tracer)
    hits0 = _cache_hits(system)
    lat: list[int] = []
    marks: list[int] = []
    problems: list[str] = []
    outputs: dict[str, np.ndarray] = {}
    failed = ticks = track_ticks = tracks = 0
    pad_ratio = 0.0
    start = time.perf_counter()
    while True:
        marks.append(probe.sample())
        t0 = time.perf_counter_ns()
        with tracer.span("fleet.pass", trip="fleet"):
            with tracer.span("TripStore.open"):
                store = TripStore.open(state["store_dir"])
            with tracer.span("TripStore.batch"):
                batch = store.batch()
            with tracer.span("estimate_batch", n_trips=len(batch)):
                est = system.estimate_batch(batch)
            survivors = [r for r in est.results if r is not None]
            with tracer.span("fuse_estimates", n_trips=len(survivors)):
                cloud = fuse_estimates(survivors)
        lat.append(time.perf_counter_ns() - t0)
        if len(est.results) != n:
            problems.append(f"fleet pass returned {len(est.results)} trips, corpus has {n}")
        failed += len(est.errors)
        mask = batch.sample_mask
        ticks += int(mask.sum())
        for pos, res in enumerate(est.results):
            if res is None:
                continue
            if not np.all(np.isfinite(res.fused.theta)):
                problems.append(f"fleet trip {pos} has non-finite fused theta")
            k, tt = _track_ticks(res)
            tracks += k
            track_ticks += tt
            if len(lat) == 1:
                outputs[f"trip{pos}"] = res.fused.theta
        if len(lat) == 1:
            outputs["cloud"] = cloud.theta
            pad_ratio = float(mask.mean())
            rmse = rmse_deg(np.interp(grid, cloud.s, cloud.theta), truth)
        del store, batch, est, survivors
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    hits1 = _cache_hits(system)
    latency, raw_latency, busy_s = _request_latencies(probe, marks, lat)
    return Outcome(
        wall_s=wall, busy_s=busy_s, latency=latency, raw_latency=raw_latency,
        trips=n * len(lat), ticks=ticks, attempted=n * len(lat), failed=failed,
        rmse_deg=rmse, outputs=outputs, problems=problems,
        facts={"tracks": tracks, "track_ticks": track_ticks, "pad_ratio": pad_ratio,
               "cache": (hits1[0] - hits0[0], hits1[1] - hits0[1]),
               "distinct_trips": n},
    )


# -- upload and outage: one estimate() per trip ----------------------------------


def setup_upload(seed: int, sizes: Sizes, tracer, workdir: Path) -> dict:
    profile = bench_profile()
    recs = [make_trip(profile, seed, i, tracer)[1] for i in range(sizes.upload_trips)]
    system = _make_system(profile, tracer)
    with tracer.span("warmup"):
        system.estimate(recs[0])
    return {"system": system, "recs": recs, "grid": reference_grid(profile)}


def setup_outage(seed: int, sizes: Sizes, tracer, workdir: Path) -> dict:
    profile = bench_profile()
    recs = []
    for i in range(sizes.outage_trips):
        _, rec = make_trip(profile, seed, i, tracer)
        recs.append(with_dropout(rec, i, tracer))
    prior = _prior_map(profile, seed, sizes.outage_trips, tracer)
    gps_denied = GPSDeniedConfig(enabled=True, prior_map=prior.to_config())
    system = _make_system(profile, tracer, stages=ROBUST_STAGES, gps_denied=gps_denied)
    with tracer.span("warmup"):
        system.estimate(recs[0])
    return {"system": system, "recs": recs, "grid": reference_grid(profile)}


def run_per_trip(state: dict, seconds: float, tracer, probe: SpeedProbe) -> Outcome:
    system, recs = state["system"], state["recs"]
    grid, truth = state["grid"]
    timed_stages(system, tracer)
    hits0 = _cache_hits(system)
    lat: list[int] = []
    marks: list[int] = []
    problems: list[str] = []
    outputs: dict[str, np.ndarray] = {}
    rmses: list[float] = []
    failed = ticks = track_ticks = tracks = 0
    start = time.perf_counter()
    i = 0
    while i < len(recs) or time.perf_counter() - start < seconds:
        k = i % len(recs)
        rec = recs[k]
        marks.append(probe.sample())
        t0 = time.perf_counter_ns()
        try:
            with tracer.span("estimate", trip=k):
                res = system.estimate(rec)
        except Exception as exc:  # noqa: BLE001 - a raising trip is a failed trip
            failed += 1
            problems.append(f"trip {k} raised {type(exc).__name__}: {exc}")
            res = None
        lat.append(time.perf_counter_ns() - t0)
        i += 1
        if res is None:
            continue
        ticks += len(rec.t)
        n_tracks, tt = _track_ticks(res)
        tracks += n_tracks
        track_ticks += tt
        if not np.all(np.isfinite(res.fused.theta)):
            problems.append(f"trip {k} has non-finite fused theta")
        if i <= len(recs):
            outputs[f"trip{k}"] = res.fused.theta
            rmses.append(rmse_deg(res.gradient_at(grid), truth))
    wall = time.perf_counter() - start
    hits1 = _cache_hits(system)
    latency, raw_latency, busy_s = _request_latencies(probe, marks, lat)
    return Outcome(
        wall_s=wall, busy_s=busy_s, latency=latency, raw_latency=raw_latency,
        trips=i - failed, ticks=ticks, attempted=i, failed=failed,
        rmse_deg=float(np.mean(rmses)) if rmses else float("nan"),
        outputs=outputs, problems=problems,
        facts={"tracks": tracks, "track_ticks": track_ticks, "pad_ratio": 1.0,
               "cache": (hits1[0] - hits0[0], hits1[1] - hits0[1]),
               "distinct_trips": len(recs)},
    )


# -- stream --------------------------------------------------------------------


def setup_stream(seed: int, sizes: Sizes, tracer, workdir: Path) -> dict:
    profile = bench_profile()
    trips = []
    for i in range(sizes.stream_trips):
        trace, rec = make_trip(profile, seed, i, tracer)
        t = rec.accel_long.t
        z = measurements_on_timebase(t, rec.gps.speed_signal())
        z[(t >= t[0] + OUTAGE_START_S) & (t < t[0] + OUTAGE_START_S + OUTAGE_S)] = np.nan
        trips.append({
            "dt": float(np.median(np.diff(t))),
            "accel": rec.accel_long.values.tolist(),
            "z": z.tolist(),
            "gyro": rec.gyro.values.tolist(),
            "grade": trace.grade,
            "scored": trace.t >= trace.t[0] + STREAM_SETTLE_S,
        })
    prior = _prior_map(profile, seed, sizes.stream_trips, tracer)
    return {"profile": profile, "prior": prior, "trips": trips}


def run_stream(state: dict, seconds: float, tracer, probe: SpeedProbe) -> Outcome:
    profile, prior, trips = state["profile"], state["prior"], state["trips"]
    ekf = GradientEKFConfig(process=RunnerConfig().process)
    gps_denied = GPSDeniedConfig(enabled=True)
    perf = time.perf_counter_ns
    latency, raw_latency = LogHistogram(), LogHistogram()
    mode_latency: dict[str, LogHistogram] = {}
    busy_s = 0.0
    # Replays wait here until the speed samples around them are taken.
    pending: deque = deque()

    def settle(final: bool) -> None:
        nonlocal busy_s
        while pending and (final or probe.settled(pending[0][0])):
            mark, lat, modes, replay_ns = pending.popleft()
            factor = probe.factor_at(mark)
            latency.add(lat * factor)
            raw_latency.add(lat)
            busy_s += replay_ns * factor / 1e9
            if modes is not None:
                for mode in np.unique(modes):
                    mode_latency.setdefault(mode, LogHistogram()).add(
                        lat[modes == mode] * factor
                    )

    outputs: dict[str, np.ndarray] = {}
    problems: list[str] = []
    rmses: list[float] = []
    counts: dict[str, int] = {}
    failed = ticks = 0
    start = time.perf_counter()
    i = 0
    while i < len(trips) or time.perf_counter() - start < seconds:
        k = i % len(trips)
        trip = trips[k]
        lat: list[int] = []
        theta: list[float] = []
        modes: list[str] = []
        mark = probe.sample()
        t_replay = perf()
        with tracer.span("stream.replay", trip=k, n_push=len(trip["accel"])):
            est = StreamingGradientEstimator(
                trip["dt"], config=ekf, measurement_std=STREAM_MEASUREMENT_STD,
                gps_denied=gps_denied, prior_map=prior, road=profile,
            )
            push = est.push
            # Two copies of the loop, so the untraced one pays nothing for
            # recording each push's mode.
            if tracer.active:
                for a, z, g in zip(trip["accel"], trip["z"], trip["gyro"]):
                    t0 = perf()
                    st = push(a, z, g)
                    lat.append(perf() - t0)
                    theta.append(st.theta)
                    modes.append(st.mode)
            else:
                for a, z, g in zip(trip["accel"], trip["z"], trip["gyro"]):
                    t0 = perf()
                    st = push(a, z, g)
                    lat.append(perf() - t0)
                    theta.append(st.theta)
        replay_ns = perf() - t_replay
        i += 1
        pending.append((mark, np.asarray(lat, dtype=float),
                        np.asarray(modes) if tracer.active else None, replay_ns))
        settle(final=False)
        th = np.asarray(theta)
        bad = int(np.count_nonzero(~np.isfinite(th)))
        failed += bad
        ticks += len(th)
        if bad:
            problems.append(f"stream trip {k}: {bad} pushes gave non-finite theta")
        if i <= len(trips):
            outputs[f"trip{k}"] = th
            err = th[trip["scored"]] - trip["grade"][trip["scored"]]
            rmses.append(float(np.degrees(np.sqrt(np.mean(err**2)))))
            counts["map_updates"] = counts.get("map_updates", 0) + est.map_updates
            counts["mode_transitions"] = (
                counts.get("mode_transitions", 0) + est.mode_transitions
            )
            for mode in set(modes):
                key = f"ticks.{mode}"
                counts[key] = counts.get(key, 0) + modes.count(mode)
    wall = time.perf_counter() - start
    settle(final=True)
    return Outcome(
        wall_s=wall, busy_s=busy_s, latency=latency, raw_latency=raw_latency,
        trips=i, ticks=ticks, attempted=ticks, failed=failed,
        rmse_deg=float(np.mean(rmses)), outputs=outputs, problems=problems,
        facts={"distinct_trips": len(trips), "track_ticks": ticks,
               "stream_counts": counts, "mode_latency": mode_latency},
    )


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    #: A fixed accuracy ceiling [deg]: a grade RMSE above it fails the run.
    #: The route's own RMS grade is ~2 deg, so an estimator that returned a
    #: flat road would score about that; healthy per-trip scores sit at
    #: 0.3-0.5 deg (paper stages) and 0.5-1.15 deg (through an outage).
    rmse_ceiling_deg: float


WORKLOADS = {
    "fleet": Workload(setup_fleet, run_fleet, rmse_ceiling_deg=0.7),
    "upload": Workload(setup_upload, run_per_trip, rmse_ceiling_deg=0.7),
    "outage": Workload(setup_outage, run_per_trip, rmse_ceiling_deg=1.4),
    "stream": Workload(setup_stream, run_stream, rmse_ceiling_deg=1.4),
}


def workdir_for(root: Path) -> Path:
    return root / ".perfbench_out" / f"work-{os.getpid()}"
