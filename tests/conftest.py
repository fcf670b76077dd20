"""Shared fixtures: small deterministic roads, trips and recordings.

Session-scoped where construction is expensive; tests must not mutate the
shared objects (copy first when needed).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import batch as ekf_batch
from repro.roads import SectionSpec, build_profile
from repro.sensors import Smartphone
from repro.vehicle import DriverProfile, SimulationConfig, simulate_trip


@pytest.fixture(scope="session")
def hill_profile():
    """A 1.2 km three-section route: up, down, steeper up; 2 lanes middle."""
    specs = [
        SectionSpec.from_degrees(400.0, 2.0, 1, 5.0, name="up"),
        SectionSpec.from_degrees(400.0, -1.5, 2, -8.0, name="down"),
        SectionSpec.from_degrees(400.0, 3.0, 2, 4.0, name="steep"),
    ]
    return build_profile(specs, name="hill")


@pytest.fixture(scope="session")
def flat_profile():
    """A dead-flat, dead-straight 800 m single-lane road."""
    return build_profile([SectionSpec(800.0, 0.0, 1, 0.0, name="flat")], name="flat")


@pytest.fixture(scope="session")
def hill_trace(hill_profile):
    """One deterministic trip over the hill profile (lane changes enabled)."""
    return simulate_trip(
        hill_profile,
        driver=DriverProfile(lane_changes_per_km=2.5),
        config=SimulationConfig(sample_rate=50.0),
        seed=7,
    )


@pytest.fixture(scope="session")
def hill_recording(hill_trace):
    """The hill trip recorded by a default phone."""
    return Smartphone().record(hill_trace, np.random.default_rng(17))


@pytest.fixture()
def rng():
    """A fresh seeded generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture(params=["batch", "scalar"])
def ekf_loop(request, monkeypatch):
    """Which loop of ``estimate_tracks_batch`` runs the test's tracks.

    ``"scalar"`` keeps the width dispatch, under which one trip's handful
    of tracks run the per-track loop (``GradientFilterCore`` on Python
    floats). ``"batch"`` lowers the vectorize threshold to one track, so
    the same tracks run the vectorized numpy loop. Smoothed and GPS-denied
    tracks run per track either way. Results must not depend on the loop.
    """
    if request.param == "batch":
        monkeypatch.setattr(ekf_batch, "_VECTORIZE_MIN_TRACKS", 1)
    return request.param
