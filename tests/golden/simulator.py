"""Golden simulator traces: the cases, and the script that freezes them.

Every case is a short route (<= 300 m) driven to the end, so the frozen
trace covers the whole tick loop: lane changes in both directions, stops,
speed zones, a non-uniform profile grid with GPS outages, and a standstill
start. ``tests/vehicle/test_simulator_golden.py`` compares all
``TruthTrace`` array fields with ``np.array_equal``. The traces go through
libm and numpy transcendentals (``sin``, ``cos``, ``pow``), so a platform
that rounds those differently fails the test with no simulator change.

Regenerate (only when a simulator change is *meant* to alter the traces,
and record it in CHANGES.md)::

    make golden
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.roads import SectionSpec, build_profile, s_curve_specs
from repro.roads.profile import RoadProfile
from repro.vehicle import DriverProfile, SimulationConfig, TruthTrace, simulate_trip

GOLDEN_DIR = Path(__file__).resolve().parent

#: Every per-tick array a ``TruthTrace`` carries.
TRACE_FIELDS = (
    "t", "s", "v", "a", "grade", "z", "x", "y", "vehicle_heading",
    "road_heading", "yaw_rate", "steer_rate", "road_turn_rate", "alpha",
    "lateral_offset", "torque", "lane", "lane_change", "gps_available",
)


def _lane_changes() -> TruthTrace:
    """Two- and three-lane stretches at a high lane-change rate."""
    profile = build_profile(
        [
            SectionSpec.from_degrees(100.0, 1.5, lanes=2, turn_deg=10.0),
            SectionSpec.from_degrees(90.0, -2.0, lanes=3),
            SectionSpec.from_degrees(60.0, 0.5, lanes=2, turn_deg=-8.0),
        ],
        name="golden-lanes",
    )
    driver = DriverProfile(lane_changes_per_km=60.0, lane_change_duration=3.0)
    return simulate_trip(profile, driver=driver, seed=5)


def _s_curve_stops_zones() -> TruthTrace:
    """A short S-curve route with a stop, two speed zones and a limit."""
    profile = build_profile(
        [
            SectionSpec.from_degrees(60.0, 1.2, lanes=2, name="straight-2lane"),
            *s_curve_specs(120.0, 40.0, lanes=1, grade_deg=1.2),
            SectionSpec.from_degrees(40.0, -1.2, name="tail"),
        ],
        smooth_m=20.0,
        name="golden-s-curve",
    )
    config = SimulationConfig(
        speed_limit=11.0,
        stops=((50.0, 1.5),),
        speed_zones=((80.0, 140.0, 7.0), (170.0, 200.0, 9.0)),
    )
    driver = DriverProfile(lane_changes_per_km=20.0)
    return simulate_trip(profile, driver=driver, config=config, seed=11)


def _non_uniform_outages() -> TruthTrace:
    """A profile on a non-uniform grid, with two GPS outages, at 25 Hz."""
    base = build_profile(
        [
            SectionSpec.from_degrees(130.0, 2.5, lanes=2, turn_deg=15.0),
            SectionSpec.from_degrees(110.0, -1.0, lanes=2),
        ],
        spacing=0.5,
    )
    rng = np.random.default_rng(3)
    s = np.concatenate([[0.0], np.cumsum(rng.uniform(0.4, 3.0, 400))])
    s = s[s < base.length]
    s = np.append(s, base.length)
    profile = RoadProfile(
        s=s,
        xy=np.stack([np.interp(s, base.s, base.xy[:, 0]), np.interp(s, base.s, base.xy[:, 1])], 1),
        z=np.interp(s, base.s, base.z),
        grade=np.interp(s, base.s, base.grade),
        heading=np.interp(s, base.s, base.heading),
        curvature=np.interp(s, base.s, base.curvature),
        lanes=np.interp(s, base.s, base.lanes).round().astype(int),
        name="golden-non-uniform",
        gps_outages=[(40.0, 90.0), (180.0, 210.0)],
    )
    driver = DriverProfile(lane_changes_per_km=15.0)
    config = SimulationConfig(sample_rate=25.0)
    return simulate_trip(profile, driver=driver, config=config, seed=23)


def _standstill_start() -> TruthTrace:
    """Start from rest with no traffic modulation."""
    profile = build_profile(
        [SectionSpec.from_degrees(160.0, 3.0, lanes=2, turn_deg=5.0)],
        name="golden-standstill",
    )
    config = SimulationConfig(initial_speed=0.0, traffic_modulation=0.0)
    driver = DriverProfile(lane_changes_per_km=10.0)
    return simulate_trip(profile, driver=driver, config=config, seed=31)


#: Case name -> the simulation it freezes (file ``sim_<name>.npz``).
CASES = {
    "lane_changes": _lane_changes,
    "s_curve_stops_zones": _s_curve_stops_zones,
    "non_uniform_outages": _non_uniform_outages,
    "standstill_start": _standstill_start,
}


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"sim_{name}.npz"


def trace_arrays(trace: TruthTrace) -> dict[str, np.ndarray]:
    return {key: getattr(trace, key) for key in TRACE_FIELDS}


def main() -> None:
    for name, make in CASES.items():
        path = golden_path(name)
        trace = make()
        np.savez_compressed(path, **trace_arrays(trace))
        print(f"{path.name}: {len(trace)} ticks, {path.stat().st_size / 1e3:.0f} KB")


if __name__ == "__main__":
    main()
