"""Driver behaviour model: speed tracking, stops, lane-change habits.

The paper's measurements come from human drivers; what matters to the
estimator is (a) a realistic speed/acceleration envelope, (b) lane changes
at a realistic rate (~0.36 per mile on average, higher in urban areas,
Sec III-B) with per-driver style differences, and (c) small steering jitter
from road roughness. :class:`DriverProfile` captures a driver's style and
:class:`DriverModel` converts it into accelerations and maneuver decisions
the simulator executes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..constants import KMH
from ..errors import ConfigurationError
from .lateral import LaneChangeManeuver, plan_lane_change

__all__ = ["DriverProfile", "DriverModel", "make_driver_cohort"]


@dataclass(frozen=True)
class DriverProfile:
    """Per-driver style parameters.

    Attributes
    ----------
    name:
        Identifier used in the steering-study tables.
    cruise_speed:
        Preferred speed on an open urban road [m/s].
    comfort_accel / comfort_decel:
        Acceleration/deceleration the driver is willing to use [m/s^2].
    max_lateral_accel:
        Comfort bound for cornering [m/s^2]; limits speed in curves.
    lane_change_duration:
        Mean total maneuver time [s].
    lane_change_asymmetry:
        T1/T2 ratio of the steering doublet phases.
    lane_changes_per_km:
        Poisson rate of lane-change attempts on multi-lane stretches.
    steering_noise_std:
        RMS of the road-roughness steering jitter [rad/s].
    speed_tracking_gain:
        P-gain [1/s] of the speed controller.
    limit_utilization:
        Fraction of a posted speed limit the driver actually targets
        (1.05 = habitually 5% over). Only consulted where a limit is in
        force, so the 1.0 default changes nothing on open roads.
    """

    name: str = "driver"
    cruise_speed: float = 40.0 * KMH
    comfort_accel: float = 1.6
    comfort_decel: float = 2.2
    max_lateral_accel: float = 2.0
    lane_change_duration: float = 5.0
    lane_change_asymmetry: float = 0.95
    lane_changes_per_km: float = 0.5
    steering_noise_std: float = 0.006
    speed_tracking_gain: float = 0.35
    limit_utilization: float = 1.0

    def __post_init__(self) -> None:
        if self.cruise_speed <= 0.0:
            raise ConfigurationError("cruise speed must be positive")
        if self.limit_utilization <= 0.0:
            raise ConfigurationError("limit utilization must be positive")
        if self.comfort_accel <= 0.0 or self.comfort_decel <= 0.0:
            raise ConfigurationError("comfort accelerations must be positive")
        if self.lane_change_duration <= 0.5:
            raise ConfigurationError("lane changes take longer than half a second")
        if self.lane_changes_per_km < 0.0:
            raise ConfigurationError("lane-change rate cannot be negative")

    def with_speed(self, v: float) -> "DriverProfile":
        """A copy of this profile cruising at speed ``v`` [m/s]."""
        return replace(self, cruise_speed=v)


def make_driver_cohort(
    n: int = 10, seed: int = 11, base: DriverProfile | None = None
) -> list[DriverProfile]:
    """The synthetic counterpart of the paper's 10-driver steering study.

    Styles vary smoothly around the base profile: maneuver durations span
    roughly 4-6.5 s and asymmetries 0.75-1.25, which is what produces the
    spread of bump features in Table I.
    """
    if n < 1:
        raise ConfigurationError("cohort needs at least one driver")
    rng = np.random.default_rng(seed)
    base = base or DriverProfile()
    cohort = []
    for i in range(n):
        cohort.append(
            replace(
                base,
                name=f"driver-{i + 1:02d}",
                cruise_speed=base.cruise_speed * rng.uniform(0.85, 1.15),
                comfort_accel=base.comfort_accel * rng.uniform(0.8, 1.25),
                comfort_decel=base.comfort_decel * rng.uniform(0.8, 1.25),
                lane_change_duration=rng.uniform(4.0, 6.5),
                lane_change_asymmetry=rng.uniform(0.75, 1.25),
                lane_changes_per_km=base.lane_changes_per_km * rng.uniform(0.6, 1.6),
                steering_noise_std=base.steering_noise_std * rng.uniform(0.7, 1.4),
            )
        )
    return cohort


class DriverModel:
    """Turns a :class:`DriverProfile` into control decisions.

    The model is deliberately simple — a speed target from road geometry, a
    proportional speed controller with comfort saturation, and Poisson
    lane-change attempts — because the estimator only observes the resulting
    kinematics, not the controller internals.
    """

    def __init__(
        self,
        profile: DriverProfile,
        rng: np.random.Generator | None = None,
        *,
        seed: int | None = None,
    ) -> None:
        if rng is None and seed is None:
            raise ConfigurationError(
                "DriverModel needs an explicit rng or seed=; an implicit "
                "default would give every driver the identical random stream"
            )
        if rng is not None and seed is not None:
            raise ConfigurationError("pass either rng or seed=, not both")
        self.profile = profile
        self.rng = rng if rng is not None else np.random.default_rng(seed)

    def target_speed(self, curvature: float, speed_limit: float | None = None) -> float:
        """Preferred speed [m/s] given local curvature and an optional limit."""
        v = self.profile.cruise_speed if speed_limit is None else min(
            self.profile.cruise_speed,
            speed_limit * self.profile.limit_utilization,
        )
        kappa = abs(curvature)
        if kappa > 1e-6:
            v = min(v, math.sqrt(self.profile.max_lateral_accel / kappa))
        return max(v, 2.0)

    def longitudinal_accel(self, v: float, v_target: float) -> float:
        """Commanded acceleration [m/s^2], clipped to the comfort envelope."""
        a = self.profile.speed_tracking_gain * (v_target - v)
        # min/max matches np.clip bit for bit on finite floats without the
        # per-tick ufunc dispatch cost.
        return float(min(max(a, -self.profile.comfort_decel), self.profile.comfort_accel))

    def wants_lane_change(self, distance_step: float) -> bool:
        """Bernoulli draw approximating a Poisson process over distance."""
        p = self.profile.lane_changes_per_km * distance_step / 1000.0
        # ``random()`` is the draw ``uniform()`` makes (0 + 1 * u, the same
        # bits) at a third of the per-call cost.
        return self.rng.random() < p

    def plan_maneuver(self, v: float, direction: int) -> LaneChangeManeuver:
        """Plan a lane change at speed ``v`` with this driver's style."""
        duration = self.profile.lane_change_duration * float(self.rng.uniform(0.9, 1.1))
        return plan_lane_change(
            v=v,
            direction=direction,
            duration=duration,
            asymmetry=self.profile.lane_change_asymmetry * float(self.rng.uniform(0.92, 1.08)),
            hold_fraction=float(self.rng.uniform(0.22, 0.38)),
        )

    def steering_jitter(self) -> float:
        """Road-roughness steering-rate noise sample [rad/s]."""
        # ``normal(loc, scale)`` is ``loc + scale * standard_normal()``;
        # spelled out, it is the same draw and value without the argument
        # broadcasting the per-tick call cannot afford.
        return 0.0 + self.profile.steering_noise_std * self.rng.standard_normal()
