"""Accuracy-grid behaviour: resilience equivalence and golden cells.

Two anchors keep the grid honest: its default × legacy column must
reproduce the resilience matrix exactly (the grid is a superset, not a
parallel implementation), and every driver style's clean cell must stay
within the golden RMSE bound on both EKF engines.
"""

import json

import numpy as np
import pytest

from repro.core import batch as ekf_batch
from repro.core.lane_change.detector import LaneChangeDetectorConfig
from repro.core.pipeline import GradientEstimationSystem, GradientSystemConfig
from repro.datasets.steering_study import calibrated_thresholds
from repro.eval.grid import ScenarioGridConfig, run_scenario_grid
from repro.eval.metrics import root_mean_square_error
from repro.eval.parallel import ParallelConfig
from repro.eval.resilience import ResilienceConfig, run_resilience_matrix
from repro.eval.runner import RunnerConfig, simulate_recording
from repro.scenarios import ScenarioConfig

KINDS = ("gps_dropout", "nan_burst")

#: Single-trip clean-accuracy ceiling per driver style on the red route.
GOLDEN_RMSE_DEG = 1.5


class TestGridReproducesResilience:
    def test_default_legacy_column_matches_the_matrix(self, red_profile):
        """Grid cells on the default scenario == resilience matrix cells.

        Same base config, same fault suites, same pipeline — the grid's
        scenario machinery must add exactly nothing on the no-op path.
        """
        base = RunnerConfig(n_trips=1, seed=3)
        serial = ParallelConfig(backend="serial")

        matrix = run_resilience_matrix(
            red_profile,
            base_cfg=base,
            config=ResilienceConfig(fault_kinds=KINDS, severities=(1.0,)),
            parallel=serial,
        )
        grid = run_scenario_grid(
            red_profile,
            base_cfg=base,
            config=ScenarioGridConfig(
                scenarios=("default",),
                drivers=("legacy",),
                fault_kinds=KINDS,
                severities=(1.0,),
            ),
            parallel=serial,
        )

        (baseline,) = grid["baselines"]
        assert baseline["ok"]
        assert baseline["rmse_deg"] == matrix["clean_rmse_deg"]
        assert baseline["health"] == matrix["clean_health"]

        by_cell = {(s["kind"], s["severity"]): s for s in matrix["scenarios"]}
        assert len(grid["cells"]) == len(by_cell)
        for cell in grid["cells"]:
            want = by_cell[(cell["kind"], cell["severity"])]
            assert cell["ok"] == want["ok"]
            assert cell["rmse_deg"] == want["rmse_deg"]
            assert cell["rmse_ratio"] == want["rmse_ratio"]

        json.dumps(grid)  # the artifact must stay strict JSON

    def test_grid_is_deterministic_in_seed(self, red_profile):
        cfg = ScenarioGridConfig(
            scenarios=("default",),
            drivers=("normal",),
            fault_kinds=("nan_burst",),
            severities=(1.0,),
        )
        base = RunnerConfig(n_trips=1, seed=3)
        serial = ParallelConfig(backend="serial")
        a = run_scenario_grid(red_profile, base, cfg, parallel=serial)
        b = run_scenario_grid(red_profile, base, cfg, parallel=serial)
        assert a == b


class TestGoldenCells:
    @pytest.mark.parametrize("style", ["safe", "normal", "aggressive"])
    def test_clean_rmse_per_style_on_both_engines(
        self, red_profile, style, monkeypatch
    ):
        """Each driver style's clean cell holds on the vectorized ("batch")
        AND the per-track ("scalar") EKF loop."""
        runner = RunnerConfig(seed=3, scenario=ScenarioConfig().with_driver(style))
        _, rec = simulate_recording(red_profile, runner, 0)
        sys_cfg = GradientSystemConfig(
            detector=LaneChangeDetectorConfig(thresholds=calibrated_thresholds())
        )

        rmse, loops = {}, {}
        for loop, min_tracks in (("batch", 1), ("scalar", None)):
            with monkeypatch.context() as mp:
                if min_tracks is not None:
                    mp.setattr(ekf_batch, "_VECTORIZE_MIN_TRACKS", min_tracks)
                res = GradientEstimationSystem(red_profile, config=sys_cfg).estimate(
                    rec
                )
            loops[loop] = {t.meta["loop"] for t in res.tracks.values()}
            # Score on the trimmed interior, like the evaluation runner.
            mask = (res.s_grid >= runner.trim_m) & (
                res.s_grid <= red_profile.length - runner.trim_m
            )
            truth = np.interp(res.s_grid[mask], red_profile.s, red_profile.grade)
            rmse[loop] = root_mean_square_error(
                res.fused.theta[mask], truth, degrees=True
            )
            assert rmse[loop] < GOLDEN_RMSE_DEG, (style, loop, rmse[loop])

        assert loops == {"batch": {"vectorized"}, "scalar": {"per_track"}}
        # The loops are two implementations of one filter.
        assert rmse["batch"] == rmse["scalar"]
