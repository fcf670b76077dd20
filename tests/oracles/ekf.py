"""A small, general Extended Kalman Filter (test oracle).

A textbook matrix EKF [22], kept as an independent reference for the
hand-specialized ``[v, theta]`` filter of :mod:`repro.core.gradient_ekf`
(see :mod:`tests.oracles.generic_engine`). The update step uses the
Joseph-form covariance update, which stays positive semi-definite under
roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import EstimationError

__all__ = ["EKFModel", "ExtendedKalmanFilter"]


@dataclass
class EKFModel:
    """The two nonlinear maps and their Jacobians defining a filter.

    Attributes
    ----------
    f:
        Process model ``f(x, u) -> x_next``.
    f_jacobian:
        ``F(x, u) -> dF/dx`` evaluated at (x, u).
    h:
        Measurement model ``h(x) -> z_pred``.
    h_jacobian:
        ``H(x) -> dh/dx``.
    q:
        Process noise covariance (n x n), or a callable ``q(x, u)``.
    r:
        Measurement noise covariance (m x m), or a callable ``r(x)``.
    """

    f: Callable[[np.ndarray, np.ndarray | None], np.ndarray]
    f_jacobian: Callable[[np.ndarray, np.ndarray | None], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]
    h_jacobian: Callable[[np.ndarray], np.ndarray]
    q: np.ndarray | Callable[[np.ndarray, np.ndarray | None], np.ndarray]
    r: np.ndarray | Callable[[np.ndarray], np.ndarray]


class ExtendedKalmanFilter:
    """EKF over an :class:`EKFModel` with explicit state/covariance access."""

    def __init__(self, model: EKFModel, x0: np.ndarray, p0: np.ndarray) -> None:
        self.model = model
        self.x = np.asarray(x0, dtype=float).copy()
        self.p = np.asarray(p0, dtype=float).copy()
        n = len(self.x)
        if self.p.shape != (n, n):
            raise EstimationError(f"P0 must be ({n}, {n}), got {self.p.shape}")
        self._eye = np.eye(n)

    # -- core steps ---------------------------------------------------------

    def predict(self, u: np.ndarray | None = None) -> None:
        """Propagate state and covariance through the process model."""
        model = self.model
        f_jac = np.asarray(model.f_jacobian(self.x, u), dtype=float)
        self.x = np.asarray(model.f(self.x, u), dtype=float)
        q = model.q(self.x, u) if callable(model.q) else model.q
        self.p = f_jac @ self.p @ f_jac.T + np.asarray(q, dtype=float)

    def update(self, z: np.ndarray | float) -> np.ndarray:
        """Fuse a measurement; returns the innovation (z - h(x))."""
        model = self.model
        z_arr = np.atleast_1d(np.asarray(z, dtype=float))
        h_jac = np.atleast_2d(np.asarray(model.h_jacobian(self.x), dtype=float))
        z_pred = np.atleast_1d(np.asarray(model.h(self.x), dtype=float))
        r = model.r(self.x) if callable(model.r) else model.r
        r = np.atleast_2d(np.asarray(r, dtype=float))

        innovation = z_arr - z_pred
        s = h_jac @ self.p @ h_jac.T + r
        try:
            gain = np.linalg.solve(s.T, (self.p @ h_jac.T).T).T
        except np.linalg.LinAlgError as exc:
            raise EstimationError("singular innovation covariance") from exc

        self.x = self.x + gain @ innovation
        ikh = self._eye - gain @ h_jac
        # Joseph form: numerically symmetric and PSD.
        self.p = ikh @ self.p @ ikh.T + gain @ r @ gain.T
        return innovation

    def step(self, z: np.ndarray | float | None, u: np.ndarray | None = None) -> None:
        """One predict(+update) cycle; pass ``z=None`` to skip the update.

        Skipping the update is how the estimators ride out GPS outages:
        predictions continue, covariance grows, and the next measurement
        pulls the state back.
        """
        self.predict(u)
        if z is not None:
            self.update(z)

    # -- introspection --------------------------------------------------------

    @property
    def state(self) -> np.ndarray:
        """Current state estimate (copy)."""
        return self.x.copy()

    @property
    def covariance(self) -> np.ndarray:
        """Current error covariance (copy)."""
        return self.p.copy()

    def variance_of(self, index: int) -> float:
        """Marginal variance of one state component."""
        return float(self.p[index, index])
