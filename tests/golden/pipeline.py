"""Golden pipeline outputs: the cases, and the script that freezes them.

Each case is one recording and one system config. The frozen outputs were
written by ``GradientEstimationSystem.estimate`` while each stage still had
a per-trip ``run`` body next to ``run_batch``, so they pin the batch-only
pipeline to that reference as data rather than to a live twin.
``tests/core/test_pipeline_golden.py`` compares every array below with
``np.array_equal``:

* fused θ, fused variance and ``s_grid``;
* every track's θ, variance and v (``track.<source>.<field>``);
* the lane-change events (one ``(t_start, t_end, direction,
  displacement, i_start, i_end)`` row each);
* ``aligned.s`` and ``aligned.w_steer``.

The cases cover the paper's four stages on a clean trip, the sanitize
stage under a gyro NaN burst, under timestamp jitter (private channel
timebases, so the per-trip alignment path) and under a GPS dropout, and
GPS-denied estimation with a prior grade map through a dropout. The
GPS-denied case drives a different trip, so a batch over every case's
recording is padded.

Regenerate (only when a change is *meant* to alter the estimates, and
record it in CHANGES.md)::

    make golden
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.dead_reckoning import GPSDeniedConfig
from repro.core.lane_change.detector import LaneChangeDetectorConfig
from repro.core.lane_change.features import LaneChangeThresholds
from repro.core.pipeline import (
    ROBUST_STAGES,
    EstimationResult,
    GradientEstimationSystem,
    GradientSystemConfig,
)
from repro.faults import FaultSpec, FaultSuiteConfig, apply_fault_suite
from repro.roads import SectionSpec, build_profile
from repro.roads.prior_map import PriorGradeMap
from repro.roads.profile import RoadProfile
from repro.sensors import Smartphone
from repro.sensors.phone import PhoneRecording
from repro.vehicle import DriverProfile, SimulationConfig, simulate_trip

GOLDEN_DIR = Path(__file__).resolve().parent

#: Columns of the frozen ``events`` array, in order.
EVENT_FIELDS = ("t_start", "t_end", "direction", "displacement", "i_start", "i_end")

_DETECTOR = LaneChangeDetectorConfig(
    thresholds=LaneChangeThresholds(delta=0.05, duration=0.5)
)


def hill_profile() -> RoadProfile:
    """The 1.2 km hill route of ``tests/conftest.py``."""
    specs = [
        SectionSpec.from_degrees(400.0, 2.0, 1, 5.0, name="up"),
        SectionSpec.from_degrees(400.0, -1.5, 2, -8.0, name="down"),
        SectionSpec.from_degrees(400.0, 3.0, 2, 4.0, name="steep"),
    ]
    return build_profile(specs, name="hill")


def _record(profile: RoadProfile, seed: int, phone_seed: int) -> PhoneRecording:
    trace = simulate_trip(
        profile,
        driver=DriverProfile(lane_changes_per_km=2.5),
        config=SimulationConfig(sample_rate=50.0),
        seed=seed,
    )
    return Smartphone().record(trace, np.random.default_rng(phone_seed))


def _faulted(rec: PhoneRecording, *faults: FaultSpec) -> PhoneRecording:
    return apply_fault_suite(rec, FaultSuiteConfig(faults=faults, seed=4))


def _hill_recording(profile: RoadProfile) -> PhoneRecording:
    """The ``hill_recording`` fixture of ``tests/conftest.py``."""
    return _record(profile, seed=7, phone_seed=17)


def _gyro_nan_burst(profile: RoadProfile) -> PhoneRecording:
    return _faulted(
        _hill_recording(profile),
        FaultSpec(kind="nan_burst", channel="gyro", start_s=20.0, duration_s=1.0),
    )


def _jitter(profile: RoadProfile) -> PhoneRecording:
    return _faulted(_hill_recording(profile), FaultSpec(kind="jitter", severity=0.5))


def _gps_dropout(profile: RoadProfile) -> PhoneRecording:
    return _faulted(
        _hill_recording(profile),
        FaultSpec(kind="gps_dropout", start_s=25.0, duration_s=15.0),
    )


def _outage_trip(profile: RoadProfile) -> PhoneRecording:
    """A second, differently long trip with a 20 s GPS dropout."""
    return _faulted(
        _record(profile, seed=8, phone_seed=18),
        FaultSpec(kind="gps_dropout", start_s=20.0, duration_s=20.0),
    )


def default_config(profile: RoadProfile) -> GradientSystemConfig:
    return GradientSystemConfig(detector=_DETECTOR)


def robust_config(profile: RoadProfile) -> GradientSystemConfig:
    return GradientSystemConfig(detector=_DETECTOR, stages=ROBUST_STAGES)


def gps_denied_config(profile: RoadProfile) -> GradientSystemConfig:
    prior = PriorGradeMap.from_profile(profile)
    return GradientSystemConfig(
        detector=_DETECTOR,
        stages=ROBUST_STAGES,
        gps_denied=GPSDeniedConfig(
            enabled=True,
            outage_enter_ticks=100,
            dead_reckoning_after_ticks=150,
            map_update_interval_ticks=25,
            prior_map=prior.to_config(),
        ),
    )


Case = tuple[
    Callable[[RoadProfile], PhoneRecording],
    Callable[[RoadProfile], GradientSystemConfig],
]

#: Case name -> (recording, config) it freezes (file ``pipeline_<name>.npz``).
CASES: dict[str, Case] = {
    "hill_default": (_hill_recording, default_config),
    "robust_gyro_nan_burst": (_gyro_nan_burst, robust_config),
    "robust_jitter": (_jitter, robust_config),
    "robust_gps_dropout": (_gps_dropout, robust_config),
    "gps_denied_prior_map": (_outage_trip, gps_denied_config),
}


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"pipeline_{name}.npz"


def result_arrays(result: EstimationResult) -> dict[str, np.ndarray]:
    """Every frozen array of one estimate, keyed as in the ``.npz``."""
    arrays = {
        "fused.theta": result.fused.theta,
        "fused.variance": result.fused.variance,
        "s_grid": result.s_grid,
        "aligned.s": result.aligned.s,
        "aligned.w_steer": result.aligned.w_steer,
        "events": np.array(
            [[getattr(e, f) for f in EVENT_FIELDS] for e in result.events],
            dtype=float,
        ).reshape(-1, len(EVENT_FIELDS)),
    }
    for source, track in result.tracks.items():
        for key in ("theta", "variance", "v"):
            arrays[f"track.{source}.{key}"] = getattr(track, key)
    return arrays


def main() -> None:
    profile = hill_profile()
    for name, (make_recording, make_config) in CASES.items():
        path = golden_path(name)
        system = GradientEstimationSystem(profile, config=make_config(profile))
        result = system.estimate(make_recording(profile))
        np.savez_compressed(path, **result_arrays(result))
        print(
            f"{path.name}: {len(result.aligned.s)} samples, "
            f"{len(result.tracks)} tracks, {len(result.events)} events, "
            f"{path.stat().st_size / 1e3:.0f} KB"
        )


if __name__ == "__main__":
    main()
