"""The offline gradient EKF: N tracks through one call, loop chosen by width.

:func:`estimate_tracks_batch` is the one offline entry point to the
paper's per-track ``[v, theta]`` filter (Sec III-C2): per-trip estimation
calls it with one trip's velocity-source tracks, and batched estimation
with the flattened tracks of a whole fleet, which is what the cloud side
of the paper (Sec III-C3) and crowd-sourced grade maps fuse per road
segment. It runs one of two loops:

* the **vectorized** loop stacks the N tracks into ``(tick, track)``
  arrays and advances them all per tick with numpy, so the per-tick
  interpreter cost is paid once instead of N times;
* the **per-track** loop runs :func:`~repro.core.gradient_ekf.estimate_track`
  on each track. Below ``_VECTORIZE_MIN_TRACKS`` tracks the per-tick
  numpy dispatch costs more than N plain-float ticks, so a narrow batch
  runs this loop; so does every batch with ``config.smooth=True`` (the RTS
  backward pass is not vectorized) or with GPS-denied handling enabled
  (the outage plan and prior-map updates are per track). A wide batch
  forced onto it counts ``ekf.scalar_fallback`` with the reason.

Each returned track's ``meta["loop"]`` says which loop ran (``"per_track"``
or ``"vectorized"``).

Equivalence contract
--------------------
The two loops are bit-identical: the vectorized loop evaluates every
expression of :class:`~repro.core.gradient_ekf.GradientFilterCore` in the
same order, with the same per-track constants hoisted (``-g * dt``,
``drift_coeff * dt``), the same clamps and the same update gating, and
``np.sin``/``np.cos`` agree with ``math.sin``/``math.cos`` on float64.
``tests/core/test_batch_equivalence.py`` pins ``np.array_equal`` states,
covariances and innovations across a width sweep around the crossover and
a route x seed x lane-change matrix.

Tracks may differ in length, timebase and velocity source; shorter tracks
are padded internally (zero accel, no measurements) and the padding never
reaches the output.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..constants import GRAVITY
from ..errors import EstimationError
from ..obs import Telemetry
from ..sensors.base import SampledSignal
from ..vehicle.params import DEFAULT_VEHICLE, VehicleParams
from .gradient_ekf import (
    GradientEKFConfig,
    estimate_track,
    measurements_on_timebase,
    track_timebase,
)
from .track import GradientTrack

__all__ = ["estimate_tracks_batch"]

#: Narrowest batch that runs the vectorized loop; narrower batches (and
#: every smoothed or GPS-denied batch) run the per-track loop. The
#: vectorized loop pays numpy dispatch once per tick, so its cost per
#: track-tick falls with width while the per-track loop's stays flat.
#: Measured on 3 000-4 000-tick tracks, 2-core x86-64 VM, numpy 2.4,
#: Python 3.11 (the host drifts, so each figure spans several runs):
#:
#:   loop        width   ns per track-tick
#:   per-track   any     1 400 - 2 400
#:   vectorized  4       9 800 - 17 000
#:   vectorized  16      3 100 - 4 100
#:   vectorized  32      2 000 - 2 200
#:   vectorized  64      1 100 - 1 200
#:
#: Timed back to back on the same tracks, vectorized / per-track is ~1.5
#: at width 16, ~1.0 at 28 and ~0.55 at 64.
_VECTORIZE_MIN_TRACKS = 28


def estimate_tracks_batch(
    accels: Sequence[SampledSignal],
    velocities: Sequence[SampledSignal],
    arc_lengths: Sequence[np.ndarray],
    vehicle: VehicleParams | None = None,
    config: GradientEKFConfig | None = None,
    names: Sequence[str | None] | None = None,
    telemetries: Sequence[Telemetry | None] | None = None,
    monitors: Sequence | None = None,
    gps_denied=None,
) -> list[GradientTrack]:
    """Run the gradient EKF over N tracks.

    Parameters
    ----------
    accels / velocities / arc_lengths:
        Per-track inputs, exactly as :func:`estimate_track` takes them.
        The k-th track is ``(accels[k], velocities[k], arc_lengths[k])``.
    names:
        Optional per-track names (default: each velocity source's name).
    telemetries / monitors:
        Optional per-track sinks: track ``k`` reports its counters to
        ``telemetries[k]`` and its innovation record to ``monitors[k]``
        (a :class:`~repro.obs.health.HealthMonitor`, via ``check_track``).
        Tracks flattened from several trips pass each trip's own sinks.
        Monitoring is purely passive — outputs are bit-identical with or
        without it.
    gps_denied:
        Optional :class:`~repro.core.dead_reckoning.GPSDeniedConfig`. When
        enabled, the prior map embedded in ``gps_denied.prior_map`` (if
        any) is built once for the call and every track runs the per-track
        loop with it.

    Returns
    -------
    One :class:`GradientTrack` per input track, in order.
    """
    n_tracks = len(accels)
    if not (n_tracks == len(velocities) == len(arc_lengths)):
        raise EstimationError("batch inputs must have matching lengths")
    if names is not None and len(names) != n_tracks:
        raise EstimationError("names must match the number of tracks")
    if telemetries is not None and len(telemetries) != n_tracks:
        raise EstimationError("telemetries must match the number of tracks")
    if monitors is not None and len(monitors) != n_tracks:
        raise EstimationError("monitors must match the number of tracks")
    if n_tracks == 0:
        raise EstimationError("batch estimation needs at least one track")
    vehicle = vehicle or DEFAULT_VEHICLE
    cfg = config or GradientEKFConfig()
    tels: list[Telemetry | None] = (
        list(telemetries) if telemetries is not None else [None] * n_tracks
    )
    mons: list = list(monitors) if monitors is not None else [None] * n_tracks
    gd = gps_denied if gps_denied is not None and gps_denied.enabled else None

    wide = n_tracks >= _VECTORIZE_MIN_TRACKS
    if wide and gd is None and not cfg.smooth:
        return _vectorized_tracks(
            accels, velocities, arc_lengths, vehicle, cfg, names, tels, mons
        )

    # The per-track loop: bit-identical to the vectorized one, and cheaper
    # for a narrow batch. A wide batch lands here only because the RTS
    # pass and the outage plan are not vectorized, so count that.
    fallback = None
    if wide:
        fallback = "gps_denied" if gd is not None else "smooth"
    pm = gd.prior_map.build() if gd is not None and gd.prior_map is not None else None
    tracks: list[GradientTrack] = []
    for k in range(n_tracks):
        track = estimate_track(
            accels[k],
            velocities[k],
            arc_lengths[k],
            vehicle=vehicle,
            config=cfg,
            name=names[k] if names is not None else None,
            telemetry=tels[k],
            monitor=mons[k],
            gps_denied=gd,
            prior_map=pm,
        )
        track.meta["loop"] = "per_track"
        tel_k = tels[k]
        if fallback is not None and tel_k is not None and tel_k.active:
            tel_k.count("ekf.scalar_fallback", labels={"reason": fallback})
        tracks.append(track)
    return tracks


def _vectorized_tracks(
    accels: Sequence[SampledSignal],
    velocities: Sequence[SampledSignal],
    arc_lengths: Sequence[np.ndarray],
    vehicle: VehicleParams,
    cfg: GradientEKFConfig,
    names: Sequence[str | None] | None,
    tel_sinks: Sequence[Telemetry | None],
    mons: Sequence,
) -> list[GradientTrack]:
    """The vectorized tick loop over N tracks (inputs already validated)."""
    n_tracks = len(accels)
    tels: list[Telemetry | None] = [
        t if t is not None and t.active else None for t in tel_sinks
    ]
    any_tel = any(t is not None for t in tels)
    any_mon = any(m is not None for m in mons)

    # -- per-track setup (cold path, mirrors estimate_track exactly) -------
    ts: list[np.ndarray] = []
    ss: list[np.ndarray] = []
    lengths = np.empty(n_tracks, dtype=int)
    dt = np.empty(n_tracks)
    stds: list[float] = []
    r = np.empty(n_tracks)
    v = np.empty(n_tracks)
    for k in range(n_tracks):
        s_k, dt[k] = track_timebase(accels[k], arc_lengths[k])
        ts.append(accels[k].t)
        ss.append(s_k)
        lengths[k] = len(s_k)
        stds.append(cfg.std_for(velocities[k].name))
        r[k] = stds[k] ** 2

    n_max = int(lengths.max())
    a_in = np.zeros((n_max, n_tracks))
    z_in = np.full((n_max, n_tracks), np.nan)
    for k in range(n_tracks):
        n_k = lengths[k]
        a_in[:n_k, k] = accels[k].values
        z_k = measurements_on_timebase(ts[k], velocities[k])
        z_in[:n_k, k] = z_k
        # measurements_on_timebase guarantees a first measurement.
        v[k] = float(z_k[np.flatnonzero(np.isfinite(z_k))[0]])
        tel_k = tels[k]
        if tel_k is not None:
            vel = velocities[k]
            dropped = int(np.count_nonzero(~(vel.valid & np.isfinite(vel.values))))
            tel_k.count("samples_dropped", dropped)
            tel_k.count("ekf_ticks", int(n_k))
            tel_k.count("ekf_updates", int(np.count_nonzero(np.isfinite(z_k))))

    sigma_a_dt = cfg.accel_noise_std * dt
    q_v = sigma_a_dt * sigma_a_dt
    q_t = cfg.grade_rate_std**2 * dt

    specific_force = cfg.process == "specific_force"
    drift_coeff = vehicle.drag_term / vehicle.weight
    g = GRAVITY
    theta_clamp = math.pi / 3.0
    neg_g_dt = -g * dt  # per-track; b = (-g * dt) * cos(theta)
    cdt = drift_coeff * dt  # per-track; folds dt into the drift terms

    theta = np.zeros(n_tracks)
    p11 = np.full(n_tracks, cfg.initial_speed_std**2)
    p12 = np.zeros(n_tracks)
    p22 = np.full(n_tracks, cfg.initial_grade_std**2)

    theta_out = np.empty((n_max, n_tracks))
    var_out = np.empty((n_max, n_tracks))
    v_out = np.empty((n_max, n_tracks))
    inno_out = (
        np.full((n_max, n_tracks), np.nan) if any_tel or any_mon else None
    )
    s_out = np.full((n_max, n_tracks), np.nan) if any_mon else None

    # Measurement gating, hoisted out of the loop: which tracks update at
    # which tick, plus fast per-tick any/all flags.
    update_mask = np.isfinite(z_in)
    holds = ~update_mask
    row_any = update_mask.any(axis=1).tolist()
    row_all = update_mask.all(axis=1).tolist()

    # The loop is numpy-dispatch-bound at small N, so every operation runs
    # in a preallocated scratch buffer (`out=`) and state rows are written
    # in place into the output arrays; no per-tick allocation happens.
    # Each operation mirrors GradientFilterCore.predict/update operand for
    # operand, which keeps the two loops bit-identical; edit them together.
    sin_t = np.empty(n_tracks)
    cos_t = np.empty(n_tracks)
    a_long = np.empty(n_tracks)
    b = np.zeros(n_tracks)
    c = np.empty(n_tracks)
    d = np.empty(n_tracks)
    drift = np.empty(n_tracks)
    np11 = np.empty(n_tracks)
    np12 = np.empty(n_tracks)
    t1 = np.empty(n_tracks)
    t2 = np.empty(n_tracks)
    t3 = np.empty(n_tracks)
    t4 = np.empty(n_tracks)
    t5 = np.empty(n_tracks)
    s_inno = np.empty(n_tracks)
    k1 = np.empty(n_tracks)
    k2 = np.empty(n_tracks)
    inno = np.empty(n_tracks)
    one_m = np.empty(n_tracks)

    mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
    for i in range(n_max):
        a_meas = a_in[i]
        np.sin(theta, out=sin_t)
        np.cos(theta, out=cos_t)
        np.maximum(cos_t, 1e-6, out=cos_t)
        if specific_force:
            mul(sin_t, g, out=t1)
            sub(a_meas, t1, out=a_long)  # a_long = a - g sin
            mul(neg_g_dt, cos_t, out=b)  # b = -g cos dt
            # ddrift/dtheta * dt = (cdt * v) * (a_long sin / cos^2 - g)
            mul(a_long, sin_t, out=t2)
            mul(cos_t, cos_t, out=t3)
            div(t2, t3, out=t2)
            sub(t2, g, out=t2)
        else:
            a_long = a_meas
            # b stays 0; ddrift/dtheta * dt = (cdt * v) * (a_long sin / cos^2)
            mul(a_long, sin_t, out=t2)
            mul(cos_t, cos_t, out=t3)
            div(t2, t3, out=t2)
        mul(cdt, v, out=t4)  # cdt v, shared by d and the drift term
        mul(t4, t2, out=d)
        add(d, 1.0, out=d)  # d = 1 + ddrift dt
        mul(cdt, a_long, out=c)
        div(c, cos_t, out=c)  # c = cdt a_long / cos
        mul(t4, a_long, out=drift)
        div(drift, cos_t, out=drift)  # drift dt = cdt v a_long / cos

        # State prediction, written straight into this tick's output rows.
        v_row = v_out[i]
        mul(a_long, dt, out=t5)
        add(v, t5, out=v_row)
        np.maximum(v_row, 0.0, out=v_row)
        theta_row = theta_out[i]
        add(theta, drift, out=theta_row)
        np.maximum(theta_row, -theta_clamp, out=theta_row)
        np.minimum(theta_row, theta_clamp, out=theta_row)
        v = v_row
        theta = theta_row

        # Covariance prediction P = F P F^T + Q with F = [[1, b], [c, d]].
        mul(b, p12, out=t1)  # b p12
        mul(b, p22, out=t2)  # b p22
        add(p12, t2, out=t3)
        mul(t3, b, out=t3)  # b (p12 + b p22)
        add(p11, t1, out=np11)
        add(np11, t3, out=np11)
        add(np11, q_v, out=np11)  # p11'
        mul(c, p11, out=t4)  # c p11
        mul(c, t4, out=t5)  # c^2 p11
        mul(b, c, out=t1)
        add(t1, d, out=t1)
        mul(t1, p12, out=t1)  # (d + b c) p12
        mul(b, d, out=t2)
        mul(t2, p22, out=t2)  # b d p22
        add(t4, t1, out=np12)
        add(np12, t2, out=np12)  # p12'
        p22_row = var_out[i]
        mul(c, d, out=t1)
        mul(t1, p12, out=t1)
        mul(t1, 2.0, out=t1)  # 2 c d p12
        mul(d, d, out=t2)
        mul(t2, p22, out=t2)  # d^2 p22
        add(t5, t1, out=p22_row)
        add(p22_row, t2, out=p22_row)
        add(p22_row, q_t, out=p22_row)  # p22'
        p11, np11 = np11, p11
        p12, np12 = np12, p12
        p22 = p22_row

        # Measurement update with H = [1, 0]. Tracks without a fresh
        # measurement get a neutralized update (gain terms zeroed, Joseph
        # factor forced to 1) so one vector pass serves every tick shape.
        if row_any[i]:
            add(p11, r, out=s_inno)
            if s_out is not None:
                s_out[i] = s_inno
            div(p11, s_inno, out=k1)
            div(p12, s_inno, out=k2)
            sub(z_in[i], v, out=inno)
            if inno_out is not None:
                inno_out[i] = inno
            sub(1.0, k1, out=one_m)
            mul(k1, inno, out=t1)  # dv
            mul(k2, inno, out=t2)  # dtheta
            mul(k2, p12, out=t3)  # dp22
            if not row_all[i]:
                hold = holds[i]
                t1[hold] = 0.0
                t2[hold] = 0.0
                t3[hold] = 0.0
                one_m[hold] = 1.0
            add(v, t1, out=v)
            add(theta, t2, out=theta)
            sub(p22, t3, out=p22)
            mul(p12, one_m, out=p12)
            mul(p11, one_m, out=p11)

    # -- unpack per track ---------------------------------------------------
    tracks: list[GradientTrack] = []
    for k in range(n_tracks):
        n_k = lengths[k]
        tel_k = tels[k]
        if tel_k is not None:
            inno_k = inno_out[:n_k, k]
            finite = np.isfinite(inno_k)
            if np.any(finite):
                tel_k.observe_many("ekf_innovation_abs", np.abs(inno_k[finite]))
            tel_k.gauge("ekf.final_theta_variance", float(var_out[n_k - 1, k]))
        name_k = names[k] if names is not None else None
        mon_k = mons[k]
        if mon_k is not None:
            ticks_k = np.flatnonzero(update_mask[:n_k, k])
            mon_k.check_track(
                name_k or velocities[k].name,
                theta_out[:n_k, k],
                var_out[:n_k, k],
                innovations=inno_out[ticks_k, k],
                s=s_out[ticks_k, k],
                update_ticks=ticks_k,
                dt=float(dt[k]),
                n_ticks=int(n_k),
                # Padding ticks keep advancing the covariance of shorter
                # tracks past their real end, so the final P is only
                # meaningful for full-length tracks.
                final_cov=(
                    (float(p11[k]), float(p12[k]), float(p22[k]))
                    if n_k == n_max
                    else None
                ),
            )
        tracks.append(
            GradientTrack(
                name=name_k or velocities[k].name,
                t=ts[k].copy(),
                s=ss[k].copy(),
                theta=theta_out[:n_k, k].copy(),
                variance=var_out[:n_k, k].copy(),
                v=v_out[:n_k, k].copy(),
                meta={
                    "process": cfg.process,
                    "measurement_std": stds[k],
                    "smoothed": cfg.smooth,
                    "loop": "vectorized",
                },
            )
        )
    return tracks
