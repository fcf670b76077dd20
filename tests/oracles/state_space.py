"""Vehicle state-space model over ``x = [v, theta]`` (paper Eqs 3-5), test oracle.

The model written out as matrix maps and Jacobians for
:class:`tests.oracles.ekf.ExtendedKalmanFilter`; the library runs the same
model through :class:`repro.core.gradient_ekf.GradientFilterCore`.

Two process-model variants are provided (see DESIGN.md §1):

* ``"specific_force"`` (default): the accelerometer input is treated as
  what a phone accelerometer physically measures on a gradient — specific
  force ``a + g sin(theta)`` — so the velocity prediction is
  ``v' = v + (a_meas - g sin(theta)) dt``. The velocity innovation then
  carries direct information about theta, which is what makes the filter
  converge quickly.
* ``"paper"``: the literal Eq 5 ``v' = v + a_meas dt`` (the measured
  acceleration is assumed gravity-free). Theta is then only observable
  through Eq 4's drift term, which is weak; the process-model ablation
  quantifies the difference.

Both variants keep Eq 4's gradient dynamics
``theta' = theta + rho A_f C_d v a / (m g cos(theta)) dt``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import GRAVITY
from repro.core.gradient_ekf import PROCESS_MODELS
from repro.errors import ConfigurationError
from repro.vehicle.params import VehicleParams

__all__ = ["GradientStateSpace"]

#: Gradient magnitudes beyond this are clamped to keep cos(theta) healthy.
_THETA_CLAMP = np.pi / 3.0


@dataclass
class GradientStateSpace:
    """Discrete-time model ``[v, theta]`` with accelerometer input.

    Parameters
    ----------
    vehicle:
        Vehicle constants (rho, A_f, C_d, m enter Eq 4's drift term).
    dt:
        Discretization step [s] (the phone sampling period).
    process:
        ``"specific_force"`` or ``"paper"`` (see module docstring).
    """

    vehicle: VehicleParams
    dt: float
    process: str = "specific_force"

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ConfigurationError("dt must be positive")
        if self.process not in PROCESS_MODELS:
            raise ConfigurationError(
                f"unknown process model {self.process!r}; choose from {PROCESS_MODELS}"
            )

    @property
    def _drift_coeff(self) -> float:
        """``rho A_f C_d / (m g)`` — Eq 4's coefficient."""
        return self.vehicle.drag_term / self.vehicle.weight

    def f(self, x: np.ndarray, u: np.ndarray | None) -> np.ndarray:
        """Process map: one Euler step of Eq 5."""
        v, theta = float(x[0]), float(np.clip(x[1], -_THETA_CLAMP, _THETA_CLAMP))
        a_meas = 0.0 if u is None else float(np.atleast_1d(u)[0])
        if self.process == "specific_force":
            a_long = a_meas - GRAVITY * np.sin(theta)
        else:
            a_long = a_meas
        v_next = max(v + a_long * self.dt, 0.0)
        drift = self._drift_coeff * v * a_long / max(np.cos(theta), 1e-6)
        theta_next = theta + drift * self.dt
        return np.array([v_next, float(np.clip(theta_next, -_THETA_CLAMP, _THETA_CLAMP))])

    def f_jacobian(self, x: np.ndarray, u: np.ndarray | None) -> np.ndarray:
        """dF/dx of :meth:`f` at (x, u)."""
        v, theta = float(x[0]), float(np.clip(x[1], -_THETA_CLAMP, _THETA_CLAMP))
        a_meas = 0.0 if u is None else float(np.atleast_1d(u)[0])
        c = self._drift_coeff
        cos_t = max(np.cos(theta), 1e-6)
        sin_t = np.sin(theta)
        if self.process == "specific_force":
            a_long = a_meas - GRAVITY * sin_t
            dv_dtheta = -GRAVITY * cos_t * self.dt
            # d/dtheta of [c v (a_meas - g sin t) / cos t]
            ddrift_dtheta = c * v * (
                -GRAVITY * cos_t / cos_t + a_long * sin_t / cos_t**2
            )
        else:
            a_long = a_meas
            dv_dtheta = 0.0
            ddrift_dtheta = c * v * a_long * sin_t / cos_t**2
        ddrift_dv = c * a_long / cos_t
        return np.array(
            [
                [1.0, dv_dtheta],
                [ddrift_dv * self.dt, 1.0 + ddrift_dtheta * self.dt],
            ]
        )

    @staticmethod
    def h(x: np.ndarray) -> np.ndarray:
        """Measurement map: the measured longitudinal velocity."""
        return np.array([x[0]])

    @staticmethod
    def h_jacobian(x: np.ndarray) -> np.ndarray:
        """dh/dx = [1, 0]."""
        return np.array([[1.0, 0.0]])

    def default_q(self, accel_noise_std: float = 0.18, grade_rate_std: float = 0.012) -> np.ndarray:
        """A reasonable process-noise covariance.

        ``accel_noise_std`` propagates accelerometer white noise into the
        velocity prediction; ``grade_rate_std`` [rad/sqrt(s)] models the road
        gradient as a random walk in time (roads change slope over tens of
        metres).
        """
        q_v = (accel_noise_std * self.dt) ** 2
        q_theta = grade_rate_std**2 * self.dt
        return np.diag([q_v, q_theta])
