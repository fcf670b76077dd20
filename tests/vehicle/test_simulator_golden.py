"""The simulator reproduces its frozen golden traces bit for bit."""

import numpy as np
import pytest

from tests.golden.simulator import CASES, TRACE_FIELDS, golden_path, trace_arrays


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_golden(name):
    with np.load(golden_path(name)) as frozen:
        assert sorted(frozen.files) == sorted(TRACE_FIELDS)
        got = trace_arrays(CASES[name]())
        for key in TRACE_FIELDS:
            assert got[key].dtype == frozen[key].dtype, key
            assert np.array_equal(got[key], frozen[key]), key
