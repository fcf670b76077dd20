"""One benchmark run: repeated set-up, untraced timed phase, traced phase.

Every timing is reported at reference speed (:mod:`perfbench.speed`).
End-to-end metrics always come from the untraced phase. With ``trace`` on,
the run then sets up once more and repeats the timed phase under the span
recorder; the per-layer metrics, the tracing overhead (traced minus
untraced) and the span file come from that second phase, whose outputs
must equal the untraced ones bit for bit.
"""

from __future__ import annotations

import resource
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .report import check_metrics, end_to_end_metrics, per_layer_metrics, run_context
from .speed import SpeedProbe
from .tracer import NULL_TRACER, Tracer
from .workloads import SIZES, WORKLOADS, Sizes, workdir_for

__all__ = ["RunResult", "run_workload"]


@dataclass
class RunResult:
    end_to_end: dict[str, tuple]
    #: Set by a traced run only.
    per_layer: dict[str, tuple] | None
    attempted: int
    failed: int
    problems: list[str]
    context: dict

    @property
    def correct(self) -> bool:
        return not self.problems

    def summary(self) -> dict:
        """The result object the benchmark prints as its last line: the
        per-layer metrics of a traced run, else the end-to-end ones."""
        metrics = self.end_to_end if self.per_layer is None else self.per_layer
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _same_outputs(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> list[str]:
    if a.keys() != b.keys():
        return [f"traced outputs {sorted(b)} differ from untraced {sorted(a)}"]
    return [
        f"traced output {key} is not bit-identical to the untraced run"
        for key in sorted(a)
        if not np.array_equal(a[key], b[key])
    ]


def run_workload(
    root: Path,
    declared: dict,
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Sizes = SIZES,
    spans_path: Path | None = None,
) -> RunResult:
    """Run workload ``name`` and check it; ``declared`` is the metric spec
    from ``BENCHMARK.json`` (:func:`perfbench.report.load_spec`)."""
    workload = WORKLOADS[name]
    workdir = workdir_for(root)
    try:
        probe = SpeedProbe()
        raw_setup: list[float] = []
        marks: list[int] = []
        state = None
        for _ in range(sizes.setup_repeats):
            state = None  # release the previous corpus before building the next
            probe.sample()
            t0 = time.perf_counter()
            state = workload.setup(seed, sizes, NULL_TRACER, workdir)
            raw_setup.append(time.perf_counter() - t0)
            marks.append(probe.sample())
        outcome = workload.run(state, seconds, NULL_TRACER, probe)
        state = None
        setup_times = [raw * probe.factor_at(m) for raw, m in zip(raw_setup, marks)]
        e2e = end_to_end_metrics(setup_times, outcome, _peak_rss_mb())

        problems = list(outcome.problems)
        if outcome.rmse_deg > workload.rmse_ceiling_deg:
            problems.append(
                f"grade_rmse_deg {outcome.rmse_deg:.4f} exceeds the {name} "
                f"ceiling {workload.rmse_ceiling_deg}"
            )
        problems += check_metrics(e2e, declared["end_to_end"], positive=True)
        per_layer = None

        if trace:
            tracer = Tracer()
            traced_probe = SpeedProbe()
            traced_probe.sample()
            t0 = time.perf_counter()
            with tracer.span("setup"):
                state = workload.setup(seed, sizes, tracer, workdir)
            raw_traced_setup = time.perf_counter() - t0
            mark = traced_probe.sample()
            with tracer.span("timed"):
                traced = workload.run(state, seconds, tracer, traced_probe)
            state = None
            traced_setup = raw_traced_setup * traced_probe.factor_at(mark)
            problems += traced.problems
            problems += _same_outputs(outcome.outputs, traced.outputs)
            traced_e2e = end_to_end_metrics([traced_setup], traced, _peak_rss_mb())
            per_layer = per_layer_metrics(
                tracer, traced, traced_probe.overall_factor(), e2e, traced_e2e
            )
            problems += check_metrics(per_layer, declared["per_layer"], positive=False)
            if spans_path is not None:
                tracer.write(spans_path)

        context = run_context(root, name, seed, seconds, sizes, outcome, raw_setup, probe)
        return RunResult(
            end_to_end=e2e,
            per_layer=per_layer,
            attempted=outcome.attempted,
            failed=outcome.failed,
            problems=problems,
            context=context,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
