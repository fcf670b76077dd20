"""Metric computation, run context and the fail-closed output checks."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import re
import subprocess
from pathlib import Path

import numpy as np

from .speed import REFERENCE_KERNEL_MS

__all__ = [
    "NAME_RE",
    "check_metrics",
    "end_to_end_metrics",
    "load_spec",
    "per_layer_metrics",
    "run_context",
]

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: End-to-end timing metrics whose tracing overhead the traced run reports.
TIMING_METRICS = ("setup_s", "trips_per_s", "ticks_per_s", "latency_ms_p50", "latency_ms_p75")
STAGES = ("sanitize", "alignment", "lane_change", "ekf_tracks", "fusion")
STREAM_MODES = ("nominal", "coasting", "dead_reckoning", "reacquiring")


def load_spec(root: Path) -> dict:
    """The declared metrics, ``{"end_to_end": {name: unit}, "per_layer": ...}``."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def end_to_end_metrics(setup_times_s, outcome, peak_rss_mb: float) -> dict[str, tuple]:
    """``name -> (value, unit)`` for one run's end-to-end metrics."""
    latency = outcome.latency
    return {
        "setup_s": (float(np.median(setup_times_s)), "s"),
        "trips_per_s": (outcome.trips / outcome.busy_s, "trips/s"),
        "ticks_per_s": (outcome.ticks / outcome.busy_s, "ticks/s"),
        "latency_ms_p50": (latency.quantile(0.50) / 1e6, "ms"),
        "latency_ms_p75": (latency.quantile(0.75) / 1e6, "ms"),
        "grade_rmse_deg": (outcome.rmse_deg, "deg"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer_metrics(tracer, outcome, factor: float, untraced: dict,
                      traced: dict) -> dict[str, tuple]:
    """``name -> (value, unit)`` from the traced run's spans and facts.

    Set-up layers are read from spans under the ``setup`` span, the rest
    from spans under ``timed``; a layer the workload never calls there
    reads 0. Layer numbers are self time, a span's duration minus its
    child spans, scaled to reference speed by ``factor`` (the traced run's
    :meth:`~perfbench.speed.SpeedProbe.overall_factor`).
    """
    self_ns = tracer.self_times_ns()

    def _self_ms(name: str, under: str) -> tuple[float, list]:
        spans = tracer.by_name(name, under)
        return sum(self_ns[sp.id] for sp in spans) * factor / 1e6, spans

    facts = outcome.facts
    out: dict[str, tuple] = {}

    sim_ms, sims = _self_ms("simulate_trip", "setup")
    sim_ticks = sum(sp.attrs["ticks"] for sp in sims)
    out["vehicle.sim_ticks_per_s"] = (sim_ticks / (sim_ms / 1e3) if sim_ms else 0.0, "ticks/s")
    rec_ms, recs = _self_ms("Smartphone.record", "setup")
    out["sensors.record_ms_per_trip"] = (rec_ms / len(recs) if recs else 0.0, "ms")
    write_ms, writes = _self_ms("TripStore.write", "setup")
    write_mb = sum(sp.attrs["bytes"] for sp in writes) / 1e6
    out["trip_store.write_mb_per_s"] = (write_mb / (write_ms / 1e3) if write_ms else 0.0, "MB/s")
    open_ms, opens = _self_ms("TripStore.open", "timed")
    batch_ms, _ = _self_ms("TripStore.batch", "timed")
    out["trip_store.open_batch_ms"] = ((open_ms + batch_ms) / len(opens) if opens else 0.0, "ms")
    out["trip_batch.pad_ratio"] = (facts.get("pad_ratio", 1.0), "ratio")

    stage_calls: dict[str, int] = {}
    for stage in STAGES:
        ms, spans = _self_ms(f"stage.{stage}", "timed")
        trips = sum(sp.attrs["n_trips"] for sp in spans)
        stage_calls[stage] = len(spans)
        out[f"stage.{stage}.us_per_trip"] = (ms * 1e3 / trips if trips else 0.0, "us")
    ekf_ms, _ = _self_ms("stage.ekf_tracks", "timed")
    track_ticks = facts.get("track_ticks", 0)
    out["ekf.ns_per_track_tick"] = (ekf_ms * 1e6 / track_ticks if track_ticks else 0.0, "ns")
    calls = stage_calls["ekf_tracks"]
    out["ekf.width"] = (facts.get("tracks", 0) / calls if calls else 0.0, "count")
    hits, misses = facts.get("cache", (0, 0))
    out["road_cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    fuse_ms, fuses = _self_ms("fuse_estimates", "timed")
    out["cloud_fusion.ms"] = (fuse_ms / len(fuses) if fuses else 0.0, "ms")
    prior_ms, priors = _self_ms("prior_map.build", "setup")
    out["prior_map.build_ms"] = (prior_ms / len(priors) if priors else 0.0, "ms")

    mode_latency = facts.get("mode_latency", {})
    counts = facts.get("stream_counts", {})
    for mode in STREAM_MODES:
        hist = mode_latency.get(mode)
        out[f"stream.push_us_p50.{mode}"] = (hist.quantile(0.5) / 1e3 if hist else 0.0, "us")
        out[f"stream.ticks.{mode}"] = (counts.get(f"ticks.{mode}", 0), "count")
    p99 = outcome.latency.quantile(0.99) / 1e3 if mode_latency else 0.0
    out["stream.push_us_p99"] = (p99, "us")
    out["stream.map_updates"] = (counts.get("map_updates", 0), "count")
    out["stream.mode_transitions"] = (counts.get("mode_transitions", 0), "count")

    for name in TIMING_METRICS:
        base, unit = untraced[name]
        out[f"trace_overhead.{name}"] = (traced[name][0] - base, unit)
        out[f"trace_base.{name}"] = (base, unit)
    return out


def check_metrics(metrics: dict[str, tuple], declared: dict[str, str], positive: bool) -> list[str]:
    """Problems with a metric set: missing, undeclared, misnamed, wrong unit,
    non-finite, or (``positive``) not above zero."""
    problems = []
    for name in sorted(declared.keys() - metrics.keys()):
        problems.append(f"metric {name} is missing")
    for name in sorted(metrics.keys() - declared.keys()):
        problems.append(f"metric {name} is not declared in BENCHMARK.json")
    for name, (value, unit) in sorted(metrics.items()):
        if not NAME_RE.fullmatch(name):
            problems.append(f"metric name {name!r} has characters outside [A-Za-z0-9_.-]")
        if name in declared and unit != declared[name]:
            problems.append(f"metric {name} has unit {unit}, declared {declared[name]}")
        if not np.isfinite(value):
            problems.append(f"metric {name} is not finite: {value}")
        elif positive and value <= 0:
            problems.append(f"metric {name} is not above zero: {value}")
    return problems


def _git_revision(root: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _source_digest(root: Path) -> str:
    """sha256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_context(root: Path, workload: str, seed: int, seconds: float, sizes, outcome,
                raw_setup_s, probe) -> dict:
    """Everything needed to re-run and compare a result on a fresh seed,
    plus the raw (unscaled) timings behind the end-to-end metrics."""
    facts = outcome.facts
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "sizes": dataclasses.asdict(sizes),
        "distinct_trips": facts.get("distinct_trips"),
        "trips": outcome.trips,
        "samples": outcome.ticks,
        "track_ticks": facts.get("track_ticks"),
        "pad_ratio": facts.get("pad_ratio"),
        "requests": outcome.latency.total,
        "raw": {
            "setup_s": list(raw_setup_s),
            "wall_s": outcome.wall_s,
            "trips_per_s": outcome.trips / outcome.wall_s,
            "latency_ms_p50": outcome.raw_latency.quantile(0.50) / 1e6,
            "latency_ms_p75": outcome.raw_latency.quantile(0.75) / 1e6,
        },
        "slowness_p50": float(np.median(probe.samples)),
        "reference_kernel_ms": REFERENCE_KERNEL_MS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": _git_revision(root),
        "source_sha256": _source_digest(root),
    }
