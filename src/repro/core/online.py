"""Streaming gradient estimation — the on-phone deployment API.

The batch pipeline (:class:`GradientEstimationSystem`) processes whole
recordings; a phone app instead consumes samples as they arrive. This
module wraps the shared single-step filter core
(:class:`~repro.core.gradient_ekf.GradientFilterCore`) in an incremental
API:

    est = StreamingGradientEstimator(dt=0.02)
    for each tick:
        state = est.push(accel_sample, v_meas_or_None)
        state.theta        # current gradient estimate [rad]

Because the predict/update math lives only in ``GradientFilterCore`` —
the same object :func:`repro.core.gradient_ekf.estimate_track` drives
offline — the streaming path is bit-identical to the offline per-track
loop by construction; a unit test still pins the two to identical
outputs on real recordings.

GPS-denied operation
--------------------
With a :class:`~repro.core.dead_reckoning.GPSDeniedConfig` enabled, the
estimator runs an explicit outage-mode state machine::

    nominal -> coasting -> dead_reckoning -> reacquiring -> nominal

``nominal`` fuses fixes as usual; a sustained dry spell
(``outage_enter_ticks``) enters ``coasting`` (predict-only); a longer one
engages the :class:`~repro.core.dead_reckoning.DeadReckoner` (gyro-z
integrated heading, road-heading matches) so the along-track position
stays usable and — when a :class:`~repro.roads.prior_map.PriorGradeMap`
is attached — the map's gradient is fused as an extra EKF update with
quality-weighted noise. The first good-quality fix flips to
``reacquiring``: the covariance is inflated once per outage episode
(soft reconvergence instead of the old hard coast) and a streak of good
fixes completes the return to ``nominal``. Quality hysteresis
(``fix_quality_good`` / ``fix_quality_bad``) keeps marginal, possibly
multipath-biased fixes from being fused mid-outage or flapping the mode.
Each mode ticks a ``stream.mode.*`` counter. With the config disabled
(the default) none of this machinery runs and outputs are bit-identical
to the historical estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import EstimationError
from ..obs import Telemetry
from ..vehicle.params import VehicleParams
from .dead_reckoning import DeadReckoner, GPSDeniedConfig
from .gradient_ekf import GradientEKFConfig, GradientFilterCore

__all__ = ["MODE_NAMES", "StreamState", "StreamingGradientEstimator"]

#: Outage-mode indices and their public names, in escalation order.
_NOMINAL, _COASTING, _DEAD_RECKONING, _REACQUIRING = range(4)
MODE_NAMES = ("nominal", "coasting", "dead_reckoning", "reacquiring")


@dataclass(frozen=True, slots=True)
class StreamState:
    """Snapshot of the streaming filter after one tick."""

    t: float
    v: float
    theta: float
    theta_variance: float
    updated: bool  # whether a velocity measurement was fused this tick
    mode: str = "nominal"  # outage mode (always "nominal" when disabled)


class StreamingGradientEstimator:
    """Incremental [v, theta] gradient EKF fed one sample at a time."""

    def __init__(
        self,
        dt: float,
        vehicle: VehicleParams | None = None,
        config: GradientEKFConfig | None = None,
        measurement_std: float = 0.2,
        v0: float | None = None,
        telemetry: Telemetry | None = None,
        health=None,
        gps_denied: GPSDeniedConfig | None = None,
        prior_map=None,
        road=None,
        s0: float = 0.0,
        heading0: float = 0.0,
    ) -> None:
        if dt <= 0.0:
            raise EstimationError("dt must be positive")
        cfg = config or GradientEKFConfig()
        if cfg.smooth:
            raise EstimationError("streaming estimation cannot smooth backward")
        self.dt = dt
        self._core = GradientFilterCore(
            dt,
            vehicle=vehicle,
            config=cfg,
            measurement_std=measurement_std,
            v0=0.0 if v0 is None else float(v0),
        )
        self._need_init = v0 is None
        self._t = 0.0
        self._ticks = 0

        # Divergence recovery: remember the last finite state and the
        # initial covariance so a non-finite tick (NaN accel burst, Inf
        # measurement) can be rolled back instead of poisoning every
        # subsequent estimate. Always on — a phone deployment cannot afford
        # a filter that never comes back.
        self._ok_v = self._core.v
        self._ok_theta = 0.0
        self._p0_11 = self._core.p11
        self._p0_22 = self._core.p22
        self._recoveries = 0

        # Telemetry: counter objects are resolved once here so the per-tick
        # cost is one attribute increment; with telemetry disabled the push
        # path pays only a single `is None` check.
        obs = telemetry if telemetry is not None and telemetry.active else None
        self._obs = obs
        self._diverged = False

        # GPS-denied operating mode: everything below is gated on
        # `self._gd is not None`, so with the config absent or disabled the
        # hot loop pays one `is None` check per tick and the filter floats
        # are bit-identical to the historical estimator.
        gd = gps_denied if gps_denied is not None and gps_denied.enabled else None
        self._gd = gd
        self._mode = _NOMINAL
        if gd is not None:
            pm = prior_map
            if pm is None and gd.prior_map is not None:
                pm = gd.prior_map.build()
            self._map = pm if gd.use_prior_map else None
            self._road = road
            self._dr: DeadReckoner | None = None
            self._s_est = float(s0)
            self._heading0 = float(heading0)
            self._dry_ticks = 0
            self._good_streak = 0
            self._outage_inflated = False
            self._transitions = 0
            self._map_update_count = 0

        # Optional streaming health monitor (a HealthConfig enables it).
        # Purely passive — it reads the core's state but never writes, so
        # estimates are bit-identical with health on or off.
        self._health = None
        if health is not None and getattr(health, "enabled", True):
            from ..obs.health import StreamingHealthMonitor

            self._health = StreamingHealthMonitor(
                health, p22_initial=self._p0_22, dt=dt
            )
        if obs is not None:
            self._c_ticks = obs.metrics.counter("stream.ticks")
            self._c_updates = obs.metrics.counter("stream.updates")
            self._c_clamped = obs.metrics.counter("stream.clamped_ticks")
            self._c_nonfinite = obs.metrics.counter("stream.nonfinite_guard")
            self._c_cov_reset = obs.metrics.counter("ekf.covariance_reset")
        if obs is not None and gd is not None:
            self._c_mode = (
                obs.metrics.counter("stream.mode.nominal"),
                obs.metrics.counter("stream.mode.coasting"),
                obs.metrics.counter("stream.mode.dead_reckoning"),
                obs.metrics.counter("stream.mode.reacquiring"),
            )
            self._c_mode_trans = obs.metrics.counter("stream.mode.transitions")
            self._c_map_updates = obs.metrics.counter("stream.map_updates")

    @property
    def ticks(self) -> int:
        """Samples processed so far."""
        return self._ticks

    @property
    def recoveries(self) -> int:
        """Covariance resets performed after non-finite ticks."""
        return self._recoveries

    @property
    def health(self):
        """The :class:`~repro.obs.health.StreamingHealthMonitor`, or None."""
        return self._health

    @property
    def mode(self) -> str:
        """Current outage mode ("nominal" whenever GPS-denied is disabled)."""
        return MODE_NAMES[self._mode]

    @property
    def mode_transitions(self) -> int:
        """Outage-mode transitions so far (0 when GPS-denied is disabled)."""
        return self._transitions if self._gd is not None else 0

    @property
    def map_updates(self) -> int:
        """Prior-map gradient updates fused so far."""
        return self._map_update_count if self._gd is not None else 0

    @property
    def s_estimate(self) -> float:
        """Dead-reckoned along-track distance [m] (GPS-denied mode only)."""
        if self._gd is None:
            raise EstimationError(
                "along-track tracking needs an enabled GPSDeniedConfig"
            )
        return self._s_est

    @property
    def dead_reckoner(self) -> DeadReckoner | None:
        """The engaged :class:`DeadReckoner`, or None outside that mode."""
        return self._dr if self._gd is not None else None

    @property
    def state(self) -> StreamState:
        """The latest snapshot."""
        core = self._core
        return StreamState(
            t=self._t,
            v=core.v,
            theta=core.theta,
            theta_variance=core.p22,
            updated=False,
            mode=MODE_NAMES[self._mode],
        )

    def push(
        self,
        accel: float,
        v_meas: float | None = None,
        gyro: float = 0.0,
        fix_quality: float | None = None,
    ) -> StreamState:
        """Advance one tick with an accelerometer sample and, when a
        velocity measurement arrived this tick, fuse it.

        ``gyro`` (yaw rate [rad/s]) and ``fix_quality`` (0..1, ``None`` =
        nominal quality) only matter in GPS-denied operation: the gyro
        feeds the dead reckoner's heading and the quality drives the mode
        machine's hysteresis.

        Degraded input is survivable: a non-finite ``v_meas`` is treated as
        "no measurement this tick" (predict-only), and a tick whose state
        goes non-finite (NaN/Inf accelerometer) is counted by the guard and
        then *recovered* — the last finite state is restored with the
        covariance reset to its initial (uncertain) value, so estimates
        converge again once the input heals.
        """
        core = self._core
        updated = self._tick(accel, v_meas, gyro, fix_quality)
        return StreamState(
            t=self._t,
            v=core.v,
            theta=core.theta,
            theta_variance=core.p22,
            updated=updated,
            mode=MODE_NAMES[self._mode],
        )

    def _tick(
        self,
        accel: float,
        v_meas: float | None,
        gyro: float = 0.0,
        fix_quality: float | None = None,
    ) -> bool:
        """One filter tick without building a snapshot (the hot inner loop).

        All per-tick state lives on the estimator and the filter core, so a
        caller that reads the core directly (:meth:`run`) pays zero heap
        allocations per sample.
        """
        core = self._core
        if v_meas is not None and v_meas != v_meas:  # NaN: no measurement
            v_meas = None
        if self._gd is not None:
            v_meas = self._gd_gate(v_meas, fix_quality)
        if self._need_init:
            # Bootstrap the velocity state from the first measurement.
            if v_meas is not None:
                core.v = float(v_meas)
                self._need_init = False

        core.predict(accel)
        updated = False
        if v_meas is not None and not self._need_init:
            if self._health is not None:
                s = core.innovation_variance()
                inno = core.update(float(v_meas))
                self._health.record_update(inno, s)
            else:
                core.update(float(v_meas))
            updated = True

        if self._gd is not None:
            self._gd_track(gyro)

        self._t += self.dt
        self._ticks += 1
        if self._obs is not None:
            self._record_tick(updated)
        if self._health is not None:
            # Observe the raw post-tick state, before any recovery masks it.
            self._health.record_tick(core, updated)
        if math.isfinite(core.theta) and math.isfinite(core.v):
            self._ok_v = core.v
            self._ok_theta = core.theta
        else:
            self._recover()
        return updated

    def _gd_gate(self, v_meas: float | None, fix_quality: float | None):
        """Pre-predict mode machine: gate the fix, drive transitions.

        Returns the possibly-suppressed measurement. Runs before the
        filter predict so a reacquisition inflation precedes the first
        post-outage update (matching the offline engine), and so outage
        modes can refuse to fuse marginal fixes at all.
        """
        gd = self._gd
        usable = good = False
        if v_meas is not None:
            if fix_quality is None or fix_quality != fix_quality:
                quality = 1.0
            else:
                quality = fix_quality
            usable = quality > gd.fix_quality_bad
            good = quality >= gd.fix_quality_good
            if not usable:
                v_meas = None
        if v_meas is None:
            self._dry_ticks += 1
        else:
            self._dry_ticks = 0

        mode = self._mode
        if mode == _NOMINAL:
            if self._dry_ticks >= gd.outage_enter_ticks:
                self._set_mode(_COASTING)
        elif mode == _COASTING:
            if good:
                self._enter_reacquiring()
            elif v_meas is not None:
                v_meas = None  # marginal fix mid-outage: never fused
            elif (
                gd.use_dead_reckoning
                and self._dry_ticks >= gd.dead_reckoning_after_ticks
            ):
                self._set_mode(_DEAD_RECKONING)
                self._engage_dead_reckoning()
        elif mode == _DEAD_RECKONING:
            if good:
                self._dr = None
                self._enter_reacquiring()
            elif v_meas is not None:
                v_meas = None  # marginal fix mid-outage: never fused
        else:  # _REACQUIRING
            if good:
                self._good_streak += 1
                if self._good_streak >= gd.reacquire_good_ticks:
                    self._set_mode(_NOMINAL)
                    self._good_streak = 0
                    self._outage_inflated = False
            elif v_meas is not None:
                self._good_streak = 0  # marginal fix: fused, streak broken
            elif self._dry_ticks >= gd.outage_enter_ticks:
                self._good_streak = 0
                self._set_mode(_COASTING)
        return v_meas

    def _gd_track(self, gyro: float) -> None:
        """Post-update along-track tracking, DR stepping, map fusion."""
        gd = self._gd
        core = self._core
        dr = self._dr
        if dr is not None and self._mode == _DEAD_RECKONING:
            if gyro != gyro:  # NaN gyro sample: hold heading this tick
                gyro = 0.0
            dr.predict(core.v, gyro)
            self._s_est = dr.s
            dry = self._dry_ticks
            if (
                self._road is not None
                and dry % gd.dead_reckoning.match_interval_ticks == 0
            ):
                dr.match_road(self._road)
                self._s_est = dr.s
            if self._map is not None and dry % gd.map_update_interval_ticks == 0:
                theta_map, r_eff = self._map.measurement(dr.s, dr.p_ss)
                core.update_theta(theta_map, r_eff)
                self._map_update_count += 1
                if self._obs is not None:
                    self._c_map_updates.inc()
        else:
            # Outside dead reckoning the filter speed is the best odometer;
            # pure bookkeeping, never touches the filter state.
            self._s_est += core.v * self.dt
        if self._obs is not None:
            self._c_mode[self._mode].inc()

    def _set_mode(self, mode: int) -> None:
        previous = self._mode
        self._mode = mode
        self._transitions += 1
        if self._obs is not None:
            self._c_mode_trans.inc()
            self._obs.event(
                "stream.mode_transition",
                previous=MODE_NAMES[previous],
                mode=MODE_NAMES[mode],
                tick=self._ticks,
            )

    def _enter_reacquiring(self) -> None:
        """A good fix arrived mid-outage: inflate once, start the streak."""
        gd = self._gd
        self._set_mode(_REACQUIRING)
        if not self._outage_inflated:
            # Soft reconvergence: the covariance coasted through the outage
            # without ever seeing the drift, so widen it before fusing the
            # fresh fixes instead of fighting them with false confidence.
            self._core.inflate(gd.reacquire_inflation)
            self._outage_inflated = True
            if self._obs is not None:
                self._c_cov_reset.inc()
        self._good_streak = 1
        if self._good_streak >= gd.reacquire_good_ticks:
            self._set_mode(_NOMINAL)
            self._good_streak = 0
            self._outage_inflated = False

    def _engage_dead_reckoning(self) -> None:
        """Build the dead reckoner at the current along-track estimate."""
        gd = self._gd
        if self._road is not None:
            psi0 = float(self._road.heading_at(self._s_est))
        else:
            psi0 = self._heading0
        dr = DeadReckoner(
            self.dt, gd.dead_reckoning, s0=self._s_est, psi0=psi0
        )
        # Seed the position uncertainty with the drift already accumulated
        # while coasting (speed integrated open-loop since the last fix).
        dr.p_ss = gd.dead_reckoning.position_rate_std**2 * self._dry_ticks * self.dt
        self._dr = dr

    def _recover(self) -> None:
        """Roll back to the last finite state with the covariance reset."""
        core = self._core
        core.v = self._ok_v
        core.theta = self._ok_theta
        core.p11 = self._p0_11
        core.p12 = 0.0
        core.p22 = self._p0_22
        self._recoveries += 1
        if self._obs is not None:
            self._c_cov_reset.inc()

    def _record_tick(self, updated: bool) -> None:
        """Per-tick counters plus a one-shot divergence/NaN guard event."""
        self._c_ticks.inc()
        if updated:
            self._c_updates.inc()
        core = self._core
        theta = core.theta
        v = core.v
        if not (math.isfinite(theta) and math.isfinite(v)):
            self._c_nonfinite.inc()
            if not self._diverged:
                self._diverged = True
                self._obs.event(
                    "stream.divergence",
                    reason="nonfinite",
                    tick=self._ticks,
                    theta=theta,
                    v=v,
                )
        elif abs(theta) >= core.theta_clamp:
            self._c_clamped.inc()
            if not self._diverged:
                self._diverged = True
                self._obs.event(
                    "stream.divergence",
                    reason="clamp",
                    tick=self._ticks,
                    theta=theta,
                    v=v,
                )

    def run(
        self,
        accel: np.ndarray,
        v_meas: np.ndarray,
        gyro: np.ndarray | None = None,
        fix_quality: np.ndarray | None = None,
    ) -> np.ndarray:
        """Convenience: push whole arrays (NaN in ``v_meas`` = no update).

        ``gyro`` and ``fix_quality`` are optional parallel arrays for
        GPS-denied operation (NaN quality = nominal). Returns the theta
        series. Per tick this allocates nothing: the inputs are unboxed to
        plain floats once up front, each tick runs through :meth:`_tick`
        (no :class:`StreamState` snapshots), and thetas are written
        straight into the preallocated output array — bit-identical to an
        equivalent :meth:`push` loop, which a unit test pins.
        """
        accel = np.asarray(accel, dtype=float)
        v_meas = np.asarray(v_meas, dtype=float)
        if accel.shape != v_meas.shape:
            raise EstimationError("accel and v_meas must match")
        if gyro is not None:
            gyro = np.asarray(gyro, dtype=float)
            if gyro.shape != accel.shape:
                raise EstimationError("gyro must match the accel timebase")
        if fix_quality is not None:
            fix_quality = np.asarray(fix_quality, dtype=float)
            if fix_quality.shape != accel.shape:
                raise EstimationError("fix_quality must match the accel timebase")
        out = np.empty(len(accel))
        core = self._core
        tick = self._tick
        i = 0
        # tolist() unboxes to Python floats in one pass; NaN measurements
        # are mapped to None inside _tick itself.
        if gyro is None and fix_quality is None:
            for a, z in zip(accel.tolist(), v_meas.tolist()):
                tick(a, z)
                out[i] = core.theta
                i += 1
            return out
        g_list = gyro.tolist() if gyro is not None else [0.0] * len(accel)
        q_list = (
            fix_quality.tolist() if fix_quality is not None else [None] * len(accel)
        )
        for a, z, g, q in zip(accel.tolist(), v_meas.tolist(), g_list, q_list):
            tick(a, z, g, q)
            out[i] = core.theta
            i += 1
        return out
