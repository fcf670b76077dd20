"""Trip simulator: drive a road profile and record the ground truth.

The simulator integrates the longitudinal force balance (Eq 3's forward
form) and a kinematic lateral model at the smartphone sampling rate. Lane
changes are initiated by the driver model on multi-lane stretches and
executed as calibrated steering-rate doublets; between maneuvers a gentle
lane-keeping controller plus road-roughness jitter keeps the steering-rate
signal realistic (the paper's bump detector must reject this background).

A run has two parts:

* **The tick loop** carries only what feeds back into the dynamics or the
  random stream: speed, position, heading deviation, lane and maneuver
  state, and the driver's draws (traffic phase, steering jitter, lane-change
  decisions and plans, in that order). Each tick looks up its road cell
  once and interpolates grade and curvature from it; a maneuver's steering
  rates are evaluated once, on its whole clock, when it starts.
* **The post-pass** derives every field that depends only on the recorded
  states -- elevation, road heading, planar position, vehicle heading, yaw
  rate and GPS availability -- vectorized over the trip from the recorded
  road cells, with the same per-element expressions a tick would use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..constants import LANE_WIDTH_M, PHONE_SAMPLE_RATE_HZ
from ..errors import ConfigurationError
from ..roads.profile import RoadProfile
from .driver import DriverModel, DriverProfile
from .lateral import LaneChangeManeuver
from .longitudinal import acceleration, required_traction_force
from .params import DEFAULT_VEHICLE, VehicleParams
from .trip import TruthTrace

__all__ = ["SimulationConfig", "TripSimulator", "simulate_trip"]


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of the trip simulation.

    Attributes
    ----------
    sample_rate:
        Smartphone sampling frequency f_sample [Hz].
    initial_speed:
        Speed at the route start [m/s]; None starts at the driver's cruise
        speed (trips through a network rarely start from standstill).
    speed_limit:
        Optional posted limit [m/s] applied on top of the driver's cruise
        speed.
    traffic_modulation:
        Amplitude in [0, 1) of a slow sinusoidal target-speed modulation
        emulating surrounding traffic; keeps accelerations realistic.
    lane_keeping_gain / lane_centering_gain:
        Gains of the background steering controller.
    allow_lane_changes:
        Master switch (the steering-study generator disables scheduling and
        injects maneuvers explicitly instead).
    stops:
        ``(position_m, duration_s)`` stop events (traffic lights, stop
        signs): the driver brakes to a standstill at each position and
        holds for the duration. Exercises the v ~ 0 regime the estimators
        must survive.
    speed_zones:
        ``(s_start_m, s_end_m, limit_m_s)`` posted-limit zones (residential
        / main-road / highway stretches of a trip plan). Inside a zone the
        zone limit applies on top of ``speed_limit`` (the tighter of the
        two wins); outside every zone only ``speed_limit`` applies. The
        empty default changes nothing — the scenario layer's off-switch.
    max_duration_s:
        Time budget [s] for reaching the route end; running out raises
        :class:`ConfigurationError` rather than returning a truncated trace.
    """

    sample_rate: float = PHONE_SAMPLE_RATE_HZ
    initial_speed: float | None = None
    speed_limit: float | None = None
    traffic_modulation: float = 0.22
    traffic_period_s: float = 55.0
    lane_keeping_gain: float = 0.6
    lane_centering_gain: float = 0.02
    allow_lane_changes: bool = True
    stops: tuple[tuple[float, float], ...] = ()
    speed_zones: tuple[tuple[float, float, float], ...] = ()
    max_duration_s: float = 3600.0 * 6

    def __post_init__(self) -> None:
        if self.sample_rate <= 0.0:
            raise ConfigurationError("sample rate must be positive")
        if not (0.0 <= self.traffic_modulation < 1.0):
            raise ConfigurationError("traffic modulation must be in [0, 1)")
        if self.max_duration_s <= 0.0:
            raise ConfigurationError("max_duration_s must be positive")
        for position, duration in self.stops:
            if position < 0.0 or duration < 0.0:
                raise ConfigurationError("stops need non-negative position/duration")
        for lo, hi, limit in self.speed_zones:
            if hi <= lo or lo < 0.0:
                raise ConfigurationError("speed zones need 0 <= s_start < s_end")
            if limit <= 0.0:
                raise ConfigurationError("speed-zone limits must be positive")

    def speed_limit_at(self, s: float) -> float | None:
        """The posted limit in force at arc length ``s`` (``None`` = open)."""
        limit = self.speed_limit
        for lo, hi, zone_limit in self.speed_zones:
            if lo <= s < hi:
                limit = zone_limit if limit is None else min(limit, zone_limit)
                break
        return limit


class _UniformSampler:
    """O(1) grid-cell lookup on the profile's (near-)uniform grid."""

    def __init__(self, profile: RoadProfile) -> None:
        ds = np.diff(profile.s)
        self.uniform = bool(np.allclose(ds, ds[0], rtol=1e-6, atol=1e-9))
        self.ds = float(ds[0])
        self.s0 = float(profile.s[0])
        self.n = len(profile.s)
        self.lanes = profile.lanes
        self.s_grid = profile.s

    def locate(self, s: float) -> tuple[int, float]:
        """Cell index ``i`` and fraction ``f`` in [0, 1] with ``s`` in cell i."""
        if self.uniform:
            pos = (s - self.s0) / self.ds
            idx = int(pos)
            if idx < 0:
                return 0, 0.0
            if idx >= self.n - 1:
                return self.n - 2, 1.0
            return idx, pos - idx
        idx = int(np.searchsorted(self.s_grid, s, side="right")) - 1
        idx = min(max(idx, 0), self.n - 2)
        frac = (s - self.s_grid[idx]) / (self.s_grid[idx + 1] - self.s_grid[idx])
        return idx, float(min(max(frac, 0.0), 1.0))

    def lane_count(self, s: float) -> int:
        idx, _ = self.locate(s)
        return int(self.lanes[idx])

    def min_lanes_ahead(self, s: float, horizon: float) -> int:
        """Minimum lane count over [s, s + horizon] (maneuver feasibility)."""
        i0, _ = self.locate(s)
        i1, _ = self.locate(min(s + horizon, self.s_grid[-1]))
        return int(np.min(self.lanes[i0 : i1 + 2]))


def _lerp(table: np.ndarray, idx: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """``table`` at the recorded cells, by the tick loop's interpolation."""
    return table[idx] + frac * (table[idx + 1] - table[idx])


def _maneuver_rates(maneuver: LaneChangeManeuver, dt: float) -> list[float]:
    """The maneuver's steering rate on every tick it lasts.

    The clock advances as the tick loop advances it (``+= dt`` until
    ``>= duration``), so element k is the rate a per-tick call at the k-th
    maneuver tick returns.
    """
    duration = maneuver.duration
    times = [0.0]
    clock = dt
    while clock < duration:
        times.append(clock)
        clock += dt
    return maneuver.steering_rate(np.array(times)).tolist()


class TripSimulator:
    """Drives one vehicle with one driver over one road profile."""

    def __init__(
        self,
        profile: RoadProfile,
        driver: DriverProfile | None = None,
        vehicle: VehicleParams | None = None,
        config: SimulationConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.profile = profile
        self.vehicle = vehicle or DEFAULT_VEHICLE
        self.config = config or SimulationConfig()
        self.rng = rng or np.random.default_rng(0)
        self.driver_profile = driver or DriverProfile()
        self.driver = DriverModel(self.driver_profile, rng=self.rng)
        self._sampler = _UniformSampler(profile)

    def run(self) -> TruthTrace:
        """Simulate the whole route and return the ground-truth trace.

        Raises :class:`ConfigurationError` when ``max_duration_s`` runs out
        before the vehicle reaches the end of the route.
        """
        cfg = self.config
        dt = 1.0 / cfg.sample_rate
        locate = self._sampler.locate
        prof = self.profile
        veh = self.vehicle
        grade_table = prof.grade.tolist()
        curvature_table = prof.curvature.tolist()

        v = cfg.initial_speed if cfg.initial_speed is not None else self.driver_profile.cruise_speed
        v = max(float(v), 0.5)
        s = 0.0
        t = 0.0
        alpha = 0.0
        lateral = 0.0
        lane = 0
        maneuver_rates: list[float] = []
        maneuver_tick = 0
        maneuver_dir = 0
        traffic_phase = float(self.rng.uniform(0.0, 2.0 * math.pi))
        pending_stops = sorted(cfg.stops)
        next_stop = 0
        stop_until: float | None = None

        # One row per tick: the dynamic state plus the road cell it sat in.
        rows: list[tuple] = []
        record = rows.append

        length = prof.length
        max_steps = int(cfg.max_duration_s / dt)

        for _ in range(max_steps):
            if s >= length:
                break
            idx, frac = locate(s)
            g0 = grade_table[idx]
            grade = g0 + frac * (grade_table[idx + 1] - g0)
            c0 = curvature_table[idx]
            curvature = c0 + frac * (curvature_table[idx + 1] - c0)

            # --- longitudinal control -------------------------------------
            modulation = 1.0 + cfg.traffic_modulation * math.sin(
                2.0 * math.pi * t / cfg.traffic_period_s + traffic_phase
            )
            v_target = self.driver.target_speed(curvature, cfg.speed_limit_at(s)) * modulation

            # --- stop events (traffic lights / stop signs) -----------------
            brake_cmd: float | None = None
            if stop_until is not None:
                if t < stop_until:
                    v_target = 0.0
                    brake_cmd = -self.driver_profile.comfort_decel
                else:
                    stop_until = None
            elif next_stop < len(pending_stops):
                stop_pos, stop_dur = pending_stops[next_stop]
                dist = stop_pos - s
                if dist <= 2.5 and v <= 0.8:
                    stop_until = t + stop_dur
                    next_stop += 1
                    v_target = 0.0
                    brake_cmd = -self.driver_profile.comfort_decel
                elif dist <= 0.0:
                    next_stop += 1  # overshot at speed; skip the stale stop
                else:
                    # Hold the speed below the comfortable stopping envelope
                    # and brake explicitly once inside it (a P speed
                    # controller is too sluggish to hit a point target).
                    decel = 0.7 * self.driver_profile.comfort_decel
                    v_target = min(
                        v_target, math.sqrt(2.0 * decel * max(dist - 1.0, 0.0))
                    )
                    required = v * v / (2.0 * max(dist - 1.0, 0.3))
                    if required > 0.45 * self.driver_profile.comfort_decel:
                        brake_cmd = -min(
                            required, 2.0 * self.driver_profile.comfort_decel
                        )

            a_cmd = self.driver.longitudinal_accel(v, v_target)
            if brake_cmd is not None:
                a_cmd = min(a_cmd, brake_cmd)
                if v + a_cmd * dt < 0.0:
                    a_cmd = -v / dt  # do not reverse
            # min/max is np.clip's exact semantics on finite scalars and
            # skips the ufunc dispatch the tick loop cannot afford.
            force = min(
                max(
                    float(required_traction_force(veh, a_cmd, v, grade)),
                    -veh.max_brake_force,
                ),
                veh.max_drive_force,
            )
            a = float(acceleration(veh, force, v, grade))
            torque = force * veh.wheel_radius

            # --- lateral control -------------------------------------------
            jitter = self.driver.steering_jitter()
            if maneuver_dir:
                w_steer = maneuver_rates[maneuver_tick] + jitter
                maneuver_tick += 1
                if maneuver_tick == len(maneuver_rates):
                    lane += maneuver_dir
                    lateral -= maneuver_dir * LANE_WIDTH_M
                    maneuver_dir = 0
            else:
                w_steer = (
                    jitter
                    - cfg.lane_keeping_gain * alpha
                    - cfg.lane_centering_gain * lateral / max(v, 1.0)
                )
                if cfg.allow_lane_changes and self.driver.wants_lane_change(v * dt):
                    planned = self._try_start_lane_change(s, v, lane)
                    if planned is not None:
                        maneuver, maneuver_dir = planned
                        maneuver_rates = _maneuver_rates(maneuver, dt)
                        maneuver_tick = 0

            cos_alpha = math.cos(alpha)
            w_road = curvature * v * cos_alpha
            record((
                t, s, v, a, grade, w_steer, w_road, alpha, lateral, torque,
                lane, maneuver_dir, idx, frac,
            ))

            # --- integrate (explicit Euler with the recorded state) --------
            s += v * cos_alpha * dt
            lateral += v * math.sin(alpha) * dt
            alpha += w_steer * dt
            v = max(v + a * dt, 0.0)
            t += dt

        if s < length:
            raise ConfigurationError(
                f"max_duration_s={cfg.max_duration_s:g} ran out after "
                f"{s:.1f} m of the {length:.1f} m route"
            )
        table = np.array(rows)
        del rows, record  # free the per-tick tuples before the post-pass
        return self._trace(table, dt)

    def _trace(self, table: np.ndarray, dt: float) -> TruthTrace:
        """Assemble the trace; route-only fields are derived here, vectorized."""
        prof = self.profile
        # One contiguous array per field, so a kept field does not pin the
        # whole per-tick table.
        (t, s, v, a, grade, steer_rate, road_turn_rate, alpha, lateral,
         torque, lane, lane_change, idx, frac) = (np.ascontiguousarray(col) for col in table.T)
        lane = lane.astype(int)
        idx = idx.astype(np.intp)

        z = _lerp(prof.z, idx, frac)
        road_heading = _lerp(prof.heading, idx, frac)
        normal_x = -np.sin(road_heading)
        normal_y = np.cos(road_heading)
        lane_offset = (lane + 0.5 - prof.lanes[idx] / 2.0) * LANE_WIDTH_M
        gps_available = np.ones(len(s), dtype=bool)
        for lo, hi in prof.gps_outages:
            gps_available &= ~((lo <= s) & (s <= hi))
        return TruthTrace(
            t=t,
            s=s,
            v=v,
            a=a,
            grade=grade,
            z=z,
            x=_lerp(prof.xy[:, 0], idx, frac) + (lateral + lane_offset) * normal_x,
            y=_lerp(prof.xy[:, 1], idx, frac) + (lateral + lane_offset) * normal_y,
            vehicle_heading=road_heading + alpha,
            road_heading=road_heading,
            yaw_rate=road_turn_rate + steer_rate,
            steer_rate=steer_rate,
            road_turn_rate=road_turn_rate,
            alpha=alpha,
            lateral_offset=lateral,
            torque=torque,
            lane=lane,
            lane_change=lane_change.astype(int),
            gps_available=gps_available,
            dt=dt,
            profile=prof,
            driver_name=self.driver_profile.name,
        )

    def _try_start_lane_change(
        self, s: float, v: float, lane: int
    ) -> tuple[LaneChangeManeuver, int] | None:
        """Start a maneuver if road geometry permits one here."""
        lanes_here = self._sampler.lane_count(s)
        if lanes_here < 2 or v < 3.0:
            return None
        if lane <= 0:
            direction = +1  # rightmost lane: move left
        elif lane >= lanes_here - 1:
            direction = -1  # leftmost lane: move right
        else:
            direction = int(self.rng.choice([-1, +1]))
        maneuver = self.driver.plan_maneuver(v, direction)
        horizon = v * maneuver.duration * 1.3 + 10.0
        if self._sampler.min_lanes_ahead(s, horizon) < 2:
            return None
        return maneuver, direction


def simulate_trip(
    profile: RoadProfile,
    driver: DriverProfile | None = None,
    vehicle: VehicleParams | None = None,
    config: SimulationConfig | None = None,
    seed: int = 0,
) -> TruthTrace:
    """Convenience wrapper: simulate one trip with a seeded RNG."""
    sim = TripSimulator(
        profile,
        driver=driver,
        vehicle=vehicle,
        config=config,
        rng=np.random.default_rng(seed),
    )
    return sim.run()
