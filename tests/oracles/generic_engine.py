"""The ``[v, theta]`` gradient EKF through the generic matrix EKF.

:func:`estimate_track_generic` runs the paper's per-track filter
(Sec III-C2) through :class:`~tests.oracles.ekf.ExtendedKalmanFilter` over
:class:`~tests.oracles.state_space.GradientStateSpace`. It shares no
arithmetic with :class:`repro.core.gradient_ekf.GradientFilterCore`, so
agreement between the two checks the hand-specialized filter algebra.
"""

from __future__ import annotations

import numpy as np

from repro.core.gradient_ekf import GradientEKFConfig, measurements_on_timebase
from repro.core.track import GradientTrack
from repro.errors import EstimationError
from repro.sensors.base import SampledSignal
from repro.vehicle.params import DEFAULT_VEHICLE, VehicleParams

from .ekf import EKFModel, ExtendedKalmanFilter
from .state_space import GradientStateSpace

__all__ = ["estimate_track_generic"]


def estimate_track_generic(
    accel: SampledSignal,
    velocity: SampledSignal,
    s: np.ndarray,
    vehicle: VehicleParams | None = None,
    config: GradientEKFConfig | None = None,
    name: str | None = None,
) -> GradientTrack:
    """Reference engine: the same model through the generic EKF class."""
    vehicle = vehicle or DEFAULT_VEHICLE
    cfg = config or GradientEKFConfig()
    t = accel.t
    n = len(t)
    if n < 2:
        raise EstimationError("gradient estimation needs at least two samples")
    dt = float(np.median(np.diff(t)))
    model_space = GradientStateSpace(vehicle=vehicle, dt=dt, process=cfg.process)
    r = np.array([[cfg.std_for(velocity.name) ** 2]])
    q = np.diag([(cfg.accel_noise_std * dt) ** 2, cfg.grade_rate_std**2 * dt])
    model = EKFModel(
        f=model_space.f,
        f_jacobian=model_space.f_jacobian,
        h=model_space.h,
        h_jacobian=model_space.h_jacobian,
        q=q,
        r=r,
    )
    z = measurements_on_timebase(t, velocity)
    first = np.flatnonzero(np.isfinite(z))
    ekf = ExtendedKalmanFilter(
        model,
        x0=np.array([float(z[first[0]]), 0.0]),
        p0=np.diag([cfg.initial_speed_std**2, cfg.initial_grade_std**2]),
    )
    theta_out = np.empty(n)
    var_out = np.empty(n)
    v_out = np.empty(n)
    for i in range(n):
        zi = z[i]
        ekf.step(None if not np.isfinite(zi) else zi, u=np.array([accel.values[i]]))
        v_out[i], theta_out[i] = ekf.x
        var_out[i] = ekf.variance_of(1)
    return GradientTrack(
        name=name or velocity.name,
        t=t.copy(),
        s=np.asarray(s, dtype=float).copy(),
        theta=theta_out,
        variance=var_out,
        v=v_out,
        meta={"process": cfg.process, "engine": "generic"},
    )
