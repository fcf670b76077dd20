"""Per-track gradient estimation: state-space model + EKF (Sec III-C2).

``estimate_track`` runs an EKF over ``x = [v, theta]`` driven by the
accelerometer at the phone rate and corrected by one velocity source; the
output is a :class:`~repro.core.track.GradientTrack`. The library reaches
it through :func:`~repro.core.batch.estimate_tracks_batch`, the one
offline entry point, whose per-track loop calls it for narrow batches,
``smooth=True`` and GPS-denied handling.

The single-tick predict/update arithmetic lives in one place —
:class:`GradientFilterCore` — shared by the offline per-track loop here and
the on-phone streaming path
(:class:`~repro.core.online.StreamingGradientEstimator`), so the two can
never drift apart numerically. The vectorized tick loop of
:func:`~repro.core.batch.estimate_tracks_batch` evaluates the core's
expressions in the same order, so a track is bit-identical whichever loop
ran it. The core runs on plain Python floats: :func:`estimate_track`
unboxes its input arrays once per track, because numpy-scalar arithmetic
costs several times as much.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import SerializableConfig
from ..constants import GRAVITY
from ..errors import ConfigurationError, DegradedInputError, EstimationError
from ..obs import Telemetry
from ..sensors.base import SampledSignal
from ..vehicle.params import DEFAULT_VEHICLE, VehicleParams
from .track import GradientTrack

__all__ = [
    "PROCESS_MODELS",
    "GradientEKFConfig",
    "GradientFilterCore",
    "estimate_track",
    "measurements_on_timebase",
    "track_timebase",
]

#: Velocity process models (``GradientEKFConfig.process``):
#:
#: * ``"specific_force"`` (default): the accelerometer reads what a phone
#:   physically measures on a gradient, specific force ``a + g sin(theta)``,
#:   so ``v' = v + (a_meas - g sin(theta)) dt`` and the velocity innovation
#:   carries direct information about theta;
#: * ``"paper"``: the literal Eq 5 ``v' = v + a_meas dt``; theta is then
#:   only observable through Eq 4's weak drift term.
#:
#: Both keep Eq 4's gradient dynamics
#: ``theta' = theta + rho A_f C_d v a / (m g cos(theta)) dt``.
PROCESS_MODELS = ("specific_force", "paper")

#: Default measurement noise std [m/s] per velocity source.
_DEFAULT_MEASUREMENT_STD = {
    "gps-speed": 0.30,
    "speedometer": 0.20,
    "canbus": 0.12,
    "accelerometer-velocity": 0.90,
}
_FALLBACK_MEASUREMENT_STD = 0.5


@dataclass
class GradientEKFConfig(SerializableConfig):
    """Tuning of the per-track gradient EKF.

    ``smooth=True`` runs a Rauch-Tung-Striebel backward pass after the
    forward filter — an **extension** over the paper's online estimator
    that fits the cloud use-case (Sec III-C3), where tracks are processed
    after the trip anyway. The smoothed track removes the filter's
    convergence lag at grade transitions.
    """

    process: str = "specific_force"
    accel_noise_std: float = 0.18
    grade_rate_std: float = 0.012
    initial_speed_std: float = 1.5
    initial_grade_std: float = math.radians(3.0)
    smooth: bool = False
    measurement_std: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.process not in PROCESS_MODELS:
            raise ConfigurationError(
                f"unknown process model {self.process!r}; "
                f"valid options are {list(PROCESS_MODELS)}"
            )
        # Dict input is the ergonomic form ({"gps": 0.4}); normalize to
        # sorted (name, std) pairs so the stored config is immutable data
        # and two specs with the same overrides compare equal.
        if isinstance(self.measurement_std, dict):
            pairs = sorted(self.measurement_std.items())
        else:
            pairs = list(self.measurement_std)
        self.measurement_std = tuple((str(k), float(v)) for k, v in pairs)

    def std_for(self, source_name: str) -> float:
        """Measurement noise std for a velocity source by signal name."""
        for name, std in self.measurement_std:
            if name == source_name:
                return std
        return _DEFAULT_MEASUREMENT_STD.get(source_name, _FALLBACK_MEASUREMENT_STD)


class GradientFilterCore:
    """Single-tick predict/update of the ``[v, theta]`` gradient EKF.

    This is the *one* implementation of the paper's per-track filter math
    (Eq 4/5 prediction, H = [1, 0] velocity update). The offline
    per-track loop (:func:`estimate_track`) drives it tick by tick over a
    whole recording; the streaming estimator
    (:class:`~repro.core.online.StreamingGradientEstimator`) drives it one
    sample at a time on the phone. Both therefore produce bit-identical
    state sequences by construction.

    After :meth:`predict`, the attributes ``v``/``theta``/``p11``/``p12``/
    ``p22`` hold the predicted state and covariance and ``b``/``c``/``d``
    hold this tick's Jacobian entries (``F = [[1, b], [c, d]]``) — exactly
    the history the RTS backward pass needs. :meth:`update` folds in one
    velocity measurement and returns the innovation.
    """

    __slots__ = (
        "dt", "specific_force", "neg_g_dt", "cdt", "q_v", "q_t", "r", "theta_clamp",
        "v", "theta", "p11", "p12", "p22", "b", "c", "d",
    )

    def __init__(
        self,
        dt: float,
        vehicle: VehicleParams | None = None,
        config: GradientEKFConfig | None = None,
        measurement_std: float | None = None,
        v0: float = 0.0,
    ) -> None:
        if dt <= 0.0:
            raise EstimationError("dt must be positive")
        vehicle = vehicle or DEFAULT_VEHICLE
        cfg = config or GradientEKFConfig()
        self.dt = float(dt)
        self.specific_force = cfg.process == "specific_force"
        # Per-filter constants, hoisted exactly as the vectorized loop in
        # repro.core.batch hoists them, so both loops round identically.
        self.neg_g_dt = -GRAVITY * self.dt
        self.cdt = vehicle.drag_term / vehicle.weight * self.dt
        sigma_a_dt = cfg.accel_noise_std * self.dt
        self.q_v = sigma_a_dt * sigma_a_dt
        self.q_t = cfg.grade_rate_std**2 * self.dt
        std = _FALLBACK_MEASUREMENT_STD if measurement_std is None else measurement_std
        self.r = std**2
        self.theta_clamp = math.pi / 3.0
        self.v = float(v0)
        self.theta = 0.0
        self.p11 = cfg.initial_speed_std**2
        self.p12 = 0.0
        self.p22 = cfg.initial_grade_std**2
        self.b = 0.0
        self.c = 0.0
        self.d = 1.0

    def predict(self, a_meas: float) -> None:
        """Advance one tick on an accelerometer sample (Eq 5 + Eq 4 drift).

        Every expression is evaluated in the same order as the vectorized
        tick loop of :func:`~repro.core.batch.estimate_tracks_batch`, so a
        track comes out bit-identical from either loop. Keep the two in
        step when editing either.
        """
        v = self.v
        theta = self.theta
        g = GRAVITY
        sin_t = math.sin(theta)
        cos_t = math.cos(theta)
        if cos_t < 1e-6:
            cos_t = 1e-6

        # Jacobian F = [[1, b], [c, d]]; slope * cdt * v = d(drift)/dtheta * dt.
        if self.specific_force:
            a_long = a_meas - sin_t * g
            b = self.neg_g_dt * cos_t
            slope = a_long * sin_t / (cos_t * cos_t) - g
        else:
            a_long = a_meas
            b = 0.0
            slope = a_long * sin_t / (cos_t * cos_t)
        cdt = self.cdt
        cdt_v = cdt * v
        d = cdt_v * slope + 1.0
        c = cdt * a_long / cos_t

        # State prediction.
        v = v + a_long * self.dt
        if v < 0.0:
            v = 0.0
        theta = theta + cdt_v * a_long / cos_t
        clamp = self.theta_clamp
        if theta > clamp:
            theta = clamp
        elif theta < -clamp:
            theta = -clamp

        # Covariance prediction P = F P F^T + Q.
        p11, p12, p22 = self.p11, self.p12, self.p22
        self.p11 = p11 + b * p12 + (p12 + b * p22) * b + self.q_v
        self.p12 = c * p11 + (b * c + d) * p12 + b * d * p22
        self.p22 = c * (c * p11) + c * d * p12 * 2.0 + d * d * p22 + self.q_t

        self.v = v
        self.theta = theta
        self.b = b
        self.c = c
        self.d = d

    def innovation_variance(self) -> float:
        """Predicted innovation variance ``S = H P H^T + R`` for this tick.

        Read-only; health monitors call it just before :meth:`update` to
        normalize the innovation without touching the filter state.
        """
        return self.p11 + self.r

    def update(self, z: float) -> float:
        """Fuse one velocity measurement (H = [1, 0]); returns the innovation."""
        p11, p12 = self.p11, self.p12
        s_inno = p11 + self.r
        k1 = p11 / s_inno
        k2 = p12 / s_inno
        inno = z - self.v
        self.v += k1 * inno
        self.theta += k2 * inno
        one_m = 1.0 - k1
        self.p22 = self.p22 - k2 * p12
        self.p12 = one_m * p12
        self.p11 = one_m * p11
        return inno

    def update_theta(self, z: float, r: float) -> float:
        """Fuse one *gradient* measurement (H = [0, 1]) with noise ``r``.

        This is the prior-grade-map update used in GPS-denied operation:
        ``z`` is the map gradient at the estimated arc length [rad] and
        ``r`` its quality-weighted variance [rad^2]
        (:meth:`~repro.roads.prior_map.PriorGradeMap.measurement`). Returns
        the innovation.
        """
        p12, p22 = self.p12, self.p22
        s_inno = p22 + r
        k1 = p12 / s_inno
        k2 = p22 / s_inno
        inno = z - self.theta
        self.v += k1 * inno
        self.theta += k2 * inno
        one_m = 1.0 - k2
        self.p11 = self.p11 - k1 * p12
        self.p12 = one_m * p12
        self.p22 = one_m * p22
        return inno

    def inflate(self, factor: float) -> None:
        """Scale the whole covariance by ``factor`` (>= 1).

        The reacquisition policy after a GPS outage: instead of trusting a
        coasted covariance that never saw the drift, the filter admits
        extra uncertainty so fresh measurements reconverge it quickly. A
        uniform scaling keeps the matrix positive semi-definite.
        """
        self.p11 *= factor
        self.p12 *= factor
        self.p22 *= factor

    def step(self, a_meas: float, z: float | None = None) -> float | None:
        """Predict, then update when a measurement arrived this tick.

        Returns the innovation, or ``None`` on a prediction-only tick.
        """
        self.predict(a_meas)
        if z is None or z != z:  # None or NaN: no measurement this tick
            return None
        return self.update(z)


def measurements_on_timebase(
    t: np.ndarray, velocity: SampledSignal
) -> np.ndarray:
    """Place velocity measurements on the phone timebase.

    Each valid measurement is assigned to the nearest phone tick (one
    update per measurement, as in a real pipeline); ticks without a fresh
    measurement hold NaN and the filter only predicts there.
    """
    z = np.full(len(t), np.nan)
    ok = velocity.valid & np.isfinite(velocity.values)
    if not np.any(ok):
        raise DegradedInputError(
            f"velocity source {velocity.name!r} has no valid samples"
        )
    t_meas = velocity.t[ok]
    v_meas = velocity.values[ok]
    idx = np.searchsorted(t, t_meas)
    idx = np.clip(idx, 0, len(t) - 1)
    left = np.clip(idx - 1, 0, len(t) - 1)
    pick_left = np.abs(t_meas - t[left]) < np.abs(t_meas - t[idx])
    idx = np.where(pick_left, left, idx)
    z[idx] = v_meas  # later measurements on one tick win
    return z


def track_timebase(accel: SampledSignal, s: np.ndarray) -> tuple[np.ndarray, float]:
    """Validate one track's timebase; returns its arc length and median tick.

    Raises :class:`~repro.errors.EstimationError` for fewer than two
    samples, an arc length off the accel timebase, or a non-positive tick.
    """
    t = accel.t
    if len(t) < 2:
        raise EstimationError("gradient estimation needs at least two samples")
    s = np.asarray(s, dtype=float)
    if s.shape != t.shape:
        raise EstimationError("arc-length array must match the accel timebase")
    dt = float(np.median(np.diff(t)))
    if dt <= 0.0:
        raise EstimationError("dt must be positive")
    return s, dt


def _gps_denied_plan(
    z: np.ndarray,
    dt: float,
    s: np.ndarray,
    gps_denied,
    prior_map,
) -> dict[int, tuple] | None:
    """Per-tick GPS-denied actions for the offline filter, or ``None``.

    Measurement outages longer than ``outage_enter_ticks`` get (a)
    prior-map gradient updates every ``map_update_interval_ticks`` once
    the dead-reckoning threshold passes — fused with noise widened by the
    position drift a streaming deployment would have accumulated by then —
    and (b) one covariance inflation at the reacquisition tick (the first
    measurement after the outage). Returns ``{tick: ("map", theta, r)}``
    and ``{tick: ("inflate",)}`` entries; ``None`` when nothing applies.
    """
    fuse_map = gps_denied.use_prior_map and prior_map is not None
    bad = ~np.isfinite(z)
    plan: dict[int, tuple] = {}
    edges = np.flatnonzero(
        np.diff(np.concatenate(([False], bad, [False])).astype(int))
    )
    q_s = gps_denied.dead_reckoning.position_rate_std**2
    for start, end in zip(edges[0::2], edges[1::2]):
        if end - start < gps_denied.outage_enter_ticks:
            continue  # an ordinary sparse-measurement gap, not an outage
        if fuse_map:
            first = start + gps_denied.dead_reckoning_after_ticks
            for i in range(first, end, gps_denied.map_update_interval_ticks):
                # Offline the arc length is known from the alignment, but a
                # deployment localizes by dead reckoning; model its drift
                # so the map update's trust matches the streaming path.
                s_var = q_s * (i - start) * dt
                plan[i] = ("map", *prior_map.measurement(float(s[i]), s_var))
        if end < len(z):
            plan[end] = ("inflate",)
    return plan or None


def estimate_track(
    accel: SampledSignal,
    velocity: SampledSignal,
    s: np.ndarray,
    vehicle: VehicleParams | None = None,
    config: GradientEKFConfig | None = None,
    name: str | None = None,
    telemetry: Telemetry | None = None,
    monitor=None,
    gps_denied=None,
    prior_map=None,
) -> GradientTrack:
    """Run the gradient EKF against one velocity source.

    Parameters
    ----------
    accel:
        Longitudinal accelerometer signal on the phone timebase (specific
        force, unless the paper-literal process model is selected).
    velocity:
        One of the four velocity sources.
    s:
        Estimated arc length on the phone timebase (from the alignment).
    monitor:
        Optional :class:`~repro.obs.health.HealthMonitor`; receives the
        track's innovation record via ``check_track``. Purely passive —
        outputs are bit-identical with or without it.
    gps_denied:
        Optional :class:`~repro.core.dead_reckoning.GPSDeniedConfig`; when
        enabled, long measurement outages fuse prior-map gradient updates
        and reacquisition inflates the covariance (see
        :func:`_gps_denied_plan`). ``None`` or disabled leaves the filter
        bit-identical to the historical behaviour.
    prior_map:
        Optional :class:`~repro.roads.prior_map.PriorGradeMap` fused during
        outages. ``gps_denied.prior_map`` is not read here:
        :func:`~repro.core.batch.estimate_tracks_batch` builds it once per
        call and passes it in.
    """
    vehicle = vehicle or DEFAULT_VEHICLE
    cfg = config or GradientEKFConfig()
    s, dt = track_timebase(accel, s)
    t = accel.t
    n = len(t)
    z = measurements_on_timebase(t, velocity)
    tel = telemetry if telemetry is not None and telemetry.active else None
    if tel is not None:
        dropped = int(np.count_nonzero(~(velocity.valid & np.isfinite(velocity.values))))
        tel.count("samples_dropped", dropped)
        tel.count("ekf_ticks", n)
        tel.count("ekf_updates", int(np.count_nonzero(np.isfinite(z))))
    innovations: list[float] = []
    mon = monitor
    if mon is not None:
        mon_inno: list[float] = []
        mon_s: list[float] = []
        mon_ticks: list[int] = []
    r_std = cfg.std_for(velocity.name)

    # Initial state: first available measurement (measurements_on_timebase
    # guarantees one), flat road prior.
    v0 = float(z[np.flatnonzero(np.isfinite(z))[0]])
    core = GradientFilterCore(
        dt, vehicle=vehicle, config=cfg, measurement_std=r_std, v0=v0
    )

    gd_plan = None
    n_map_updates = 0
    n_inflations = 0
    if gps_denied is not None and gps_denied.enabled:
        gd_plan = _gps_denied_plan(z, dt, s, gps_denied, prior_map)
        inflation = gps_denied.reacquire_inflation

    # Unbox to Python floats once: indexing the arrays per tick would hand
    # the core np.float64 scalars, and numpy-scalar arithmetic costs
    # several times as much per operation.
    a_in = accel.values.tolist()
    z_in = z.tolist()
    theta_list = [0.0] * n
    var_list = [0.0] * n
    v_list = [0.0] * n

    do_smooth = cfg.smooth
    if do_smooth:
        # Forward-pass history for the RTS backward sweep, one tuple per
        # tick: predicted (v, theta, p11, p12, p22, b, c, d) with the
        # Jacobian F = [[1, b], [c, d]], and filtered (v, theta, p11, p12, p22).
        hist_pred: list[tuple[float, ...]] = [()] * n
        hist_filt: list[tuple[float, ...]] = [()] * n

    for i in range(n):
        gd_act = gd_plan.get(i) if gd_plan is not None else None
        if gd_act is not None and gd_act[0] == "inflate":
            # Reacquisition: inflate *before* this tick's predict so the
            # first post-outage update sees an honestly uncertain prior.
            core.inflate(inflation)
            n_inflations += 1

        core.predict(a_in[i])

        if do_smooth:
            hist_pred[i] = (
                core.v, core.theta, core.p11, core.p12, core.p22,
                core.b, core.c, core.d,
            )

        zi = z_in[i]
        if zi == zi:  # not NaN
            if mon is not None:
                mon_s.append(core.innovation_variance())
            inno = core.update(zi)
            if tel is not None:
                innovations.append(abs(inno))
            if mon is not None:
                mon_inno.append(inno)
                mon_ticks.append(i)
        elif gd_act is not None and gd_act[0] == "map":
            # GPS-denied: fuse the prior-map gradient at this tick's
            # estimated arc length (the tick itself has no velocity
            # measurement, so the two updates never collide).
            core.update_theta(gd_act[1], gd_act[2])
            n_map_updates += 1

        theta_list[i] = core.theta
        var_list[i] = core.p22
        v_list[i] = core.v
        if do_smooth:
            hist_filt[i] = (core.v, core.theta, core.p11, core.p12, core.p22)

    if do_smooth:
        _rts_backward(hist_pred, hist_filt, theta_list, var_list, v_list)
    theta_out = np.array(theta_list)
    var_out = np.array(var_list)
    v_out = np.array(v_list)

    if tel is not None:
        if innovations:
            tel.observe_many("ekf_innovation_abs", innovations)
        tel.gauge("ekf.final_theta_variance", float(var_out[-1]))
        if n_map_updates:
            tel.count("ekf.map_updates", n_map_updates)
        if n_inflations:
            tel.count("ekf.covariance_reset", n_inflations)

    track_name = name or velocity.name
    if mon is not None:
        mon.check_track(
            track_name,
            theta_out,
            var_out,
            innovations=np.asarray(mon_inno),
            s=np.asarray(mon_s),
            update_ticks=np.asarray(mon_ticks, dtype=int),
            dt=dt,
            n_ticks=n,
            final_cov=(core.p11, core.p12, core.p22),
        )

    meta = {
        "process": cfg.process,
        "measurement_std": r_std,
        "smoothed": cfg.smooth,
    }
    if gd_plan is not None:
        meta["gps_denied"] = {
            "map_updates": n_map_updates,
            "reacquisitions": n_inflations,
        }
    return GradientTrack(
        name=track_name,
        t=t.copy(),
        s=s.copy(),
        theta=theta_out,
        variance=var_out,
        v=v_out,
        meta=meta,
    )


def _rts_backward(
    pred: list[tuple[float, ...]],
    filt: list[tuple[float, ...]],
    theta_out: list[float],
    var_out: list[float],
    v_out: list[float],
) -> None:
    """Rauch-Tung-Striebel backward pass for the scalar 2-state filter.

    ``pred[k]`` is ``(v, theta, p11, p12, p22, b, c, d)`` after tick k's
    predict and ``filt[k]`` is ``(v, theta, p11, p12, p22)`` after its
    update. Overwrites the output lists in place with the smoothed
    estimates. ``C_k = P_k^f F_{k+1}^T (P_{k+1}^pred)^{-1}``; the 2x2
    inverse is done in closed form.
    """
    n = len(theta_out)
    xs_v, xs_t, ps11, ps12, ps22 = filt[n - 1]
    v_out[n - 1], theta_out[n - 1] = xs_v, xs_t
    var_out[n - 1] = max(ps22, 1e-14)
    for k in range(n - 2, -1, -1):
        xp_v, xp_t, pp11, pp12, pp22, b, c, d = pred[k + 1]
        xf_v, xf_t, pf11, pf12, pf22 = filt[k]
        det = pp11 * pp22 - pp12 * pp12
        if det <= 1e-18:
            v_out[k], theta_out[k] = xf_v, xf_t
            var_out[k] = max(pf22, 1e-14)
            xs_v, xs_t = xf_v, xf_t
            ps11, ps12, ps22 = pf11, pf12, pf22
            continue
        i11 = pp22 / det
        i12 = -pp12 / det
        i22 = pp11 / det
        # A = P_f F^T, with F = [[1, b], [c, d]] so F^T = [[1, c], [b, d]].
        a11 = pf11 + pf12 * b
        a12 = pf11 * c + pf12 * d
        a21 = pf12 + pf22 * b
        a22 = pf12 * c + pf22 * d
        # C = A * inv(P_pred).
        c11 = a11 * i11 + a12 * i12
        c12 = a11 * i12 + a12 * i22
        c21 = a21 * i11 + a22 * i12
        c22 = a21 * i12 + a22 * i22
        dv = xs_v - xp_v
        dt_ = xs_t - xp_t
        xs_v = xf_v + c11 * dv + c12 * dt_
        xs_t = xf_t + c21 * dv + c22 * dt_
        # P_s = P_f + C (P_s' - P_pred) C^T.
        d11 = ps11 - pp11
        d12 = ps12 - pp12
        d22 = ps22 - pp22
        t11 = c11 * d11 + c12 * d12
        t12 = c11 * d12 + c12 * d22
        t21 = c21 * d11 + c22 * d12
        t22 = c21 * d12 + c22 * d22
        ps11 = pf11 + t11 * c11 + t12 * c12
        ps12 = pf12 + t11 * c21 + t12 * c22
        ps22 = pf22 + t21 * c21 + t22 * c22
        v_out[k] = xs_v
        theta_out[k] = xs_t
        var_out[k] = max(ps22, 1e-14)

