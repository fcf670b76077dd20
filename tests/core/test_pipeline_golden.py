"""The pipeline reproduces its frozen golden outputs bit for bit.

``estimate()`` runs each case on its own; one padded ``estimate_batch``
per config runs every case's recording together and must reproduce the
rows of the cases that use that config. Both run under ``ekf_loop``, so
the per-track and the vectorized EKF loops are each held to the same
frozen data.
"""

import numpy as np
import pytest

from repro.core.pipeline import GradientEstimationSystem
from tests.golden.pipeline import CASES, golden_path, hill_profile, result_arrays


@pytest.fixture(scope="module")
def profile():
    return hill_profile()


@pytest.fixture(scope="module")
def recordings(profile):
    return {name: make(profile) for name, (make, _) in CASES.items()}


def _assert_matches_golden(name, result):
    got = result_arrays(result)
    with np.load(golden_path(name)) as frozen:
        assert sorted(got) == sorted(frozen.files), name
        for key in frozen.files:
            assert got[key].shape == frozen[key].shape, (name, key)
            assert np.array_equal(got[key], frozen[key]), (name, key)


@pytest.mark.parametrize("name", sorted(CASES))
def test_estimate_matches_golden(name, profile, recordings, ekf_loop):
    config = CASES[name][1](profile)
    result = GradientEstimationSystem(profile, config=config).estimate(
        recordings[name]
    )
    _assert_matches_golden(name, result)


def test_padded_estimate_batch_matches_golden(profile, recordings, ekf_loop):
    names = list(CASES)
    lengths = {len(recordings[name].t) for name in names}
    assert len(lengths) > 1  # the batch really pads
    by_config: dict = {}
    for name in names:
        by_config.setdefault(CASES[name][1], []).append(name)
    for make_config, cased in by_config.items():
        system = GradientEstimationSystem(profile, config=make_config(profile))
        batched = system.estimate_batch([recordings[name] for name in names])
        for name in cased:
            pos = names.index(name)
            assert pos not in batched.errors, (name, batched.errors.get(pos))
            _assert_matches_golden(name, batched.results[pos])
