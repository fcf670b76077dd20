"""Tests of the benchmark harness itself (run: ``python -m pytest perfbench/tests``).

The smoke tests run every workload at :data:`~perfbench.workloads.TINY`
size with tracing on, which exercises set-up, the untraced phase, the
traced phase and every output check in a few seconds per workload.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench.harness import run_workload
from perfbench.histogram import LogHistogram
from perfbench.report import NAME_RE, check_metrics, load_spec
from perfbench.tracer import TimedStage, Tracer
from perfbench.workloads import TINY, WORKLOADS
from repro.core.stages import run_stage_batch

ROOT = Path(__file__).resolve().parents[2]
DECLARED = load_spec(ROOT)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def tiny_run(request):
    return run_workload(ROOT, DECLARED, request.param, seed=7, seconds=0.01,
                        trace=True, sizes=TINY)


def test_tiny_run_passes_every_check(tiny_run):
    assert tiny_run.problems == []
    assert tiny_run.correct
    assert tiny_run.attempted >= 1
    assert tiny_run.failed == 0


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_every_declared_metric_appears_with_its_unit(tiny_run, kind):
    metrics = getattr(tiny_run, kind)
    assert {name: unit for name, (_, unit) in metrics.items()} == DECLARED[kind]


def test_harness_runs_exactly_the_declared_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(WORKLOADS) == sorted(w["name"] for w in spec["workloads"])


def test_metric_names_are_well_formed():
    for kind in ("end_to_end", "per_layer"):
        for name in DECLARED[kind]:
            assert NAME_RE.fullmatch(name), name


def test_summary_prints_the_mode_metrics(tiny_run):
    summary = tiny_run.summary()
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert set(summary["metrics"]) == set(DECLARED["per_layer"])
    json.dumps(summary)


def test_run_context_records_how_to_rerun(tiny_run):
    ctx = tiny_run.context
    for key in ("seed", "trips", "samples", "track_ticks", "pad_ratio", "nproc",
                "python", "numpy", "git_revision", "source_sha256"):
        assert key in ctx
    assert ctx["seed"] == 7


def _e2e_sample() -> dict:
    return {name: (1.0, unit) for name, unit in DECLARED["end_to_end"].items()}


def test_dropping_a_metric_fails_the_check():
    metrics = _e2e_sample()
    assert check_metrics(metrics, DECLARED["end_to_end"], positive=True) == []
    dropped = sorted(metrics)[0]
    del metrics[dropped]
    problems = check_metrics(metrics, DECLARED["end_to_end"], positive=True)
    assert problems == [f"metric {dropped} is missing"]


@pytest.mark.parametrize(
    "change",
    [
        lambda m: m.update({"extra_metric": (1.0, "s")}),
        lambda m: m.update({"setup_s": (1.0, "ms")}),
        lambda m: m.update({"setup_s": (float("nan"), "s")}),
        lambda m: m.update({"setup_s": (0.0, "s")}),
    ],
    ids=["undeclared", "wrong-unit", "non-finite", "zero"],
)
def test_malformed_metrics_fail_the_check(change):
    metrics = _e2e_sample()
    change(metrics)
    assert check_metrics(metrics, DECLARED["end_to_end"], positive=True)


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    with tracer.span("outer", trip=3) as outer:
        with tracer.span("inner") as inner:
            pass
    self_ns = tracer.self_times_ns()
    assert inner.trip == 3
    assert self_ns[inner.id] == inner.duration_ns
    assert self_ns[outer.id] == outer.duration_ns - inner.duration_ns


class _RunOnly:
    name = "run_only"

    def run(self, ctx):
        ctx.seen = True
        return ctx


class _Ctx:
    seen = False


class _Bctx:
    def __init__(self, n):
        self.contexts = [_Ctx() for _ in range(n)]
        self.failed = {}

    def live_items(self):
        return list(enumerate(self.contexts))

    @property
    def n_live(self):
        return len(self.contexts)


def test_stage_proxy_keeps_the_run_batch_fallback():
    tracer = Tracer()
    proxy = TimedStage(_RunOnly(), tracer)
    assert getattr(proxy, "run_batch", None) is None
    bctx = _Bctx(3)
    run_stage_batch(proxy, bctx)
    assert all(ctx.seen for ctx in bctx.contexts)
    spans = tracer.by_name("stage.run_only")
    assert [sp.attrs["n_trips"] for sp in spans] == [1, 1, 1]


def test_stage_proxy_times_run_batch_when_the_stage_has_it():
    calls = []

    class _Batched(_RunOnly):
        name = "batched"

        def run_batch(self, bctx):
            calls.append(bctx.n_live)

    tracer = Tracer()
    proxy = TimedStage(_Batched(), tracer)
    assert getattr(proxy, "run_batch", None) is not None
    run_stage_batch(proxy, _Bctx(4))
    assert calls == [4]
    assert [sp.attrs["n_trips"] for sp in tracer.by_name("stage.batched")] == [4]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "upload", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_histogram_quantiles_match_exact_ones():
    rng = np.random.default_rng(0)
    values = rng.lognormal(mean=8.0, sigma=0.6, size=5000)
    hist = LogHistogram()
    hist.add(values[:2000])
    hist.add(values[2000:])
    assert hist.total == len(values)
    for q in (0.5, 0.75, 0.99):
        assert hist.quantile(q) == pytest.approx(np.quantile(values, q), rel=2e-3)
