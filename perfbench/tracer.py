"""In-memory span recorder used by the traced benchmark run.

Spans are recorded from the benchmark's own code, around its calls into
the library's public entry points; the library itself is not instrumented.
Each span keeps its name, start and end (``perf_counter_ns``), its parent
and a trip id that children inherit, so the spans of one request share an
identifier. Spans stay in memory until :meth:`Tracer.write` dumps them as
JSON lines at the end of the run.

The untraced run uses :data:`NULL_TRACER`, whose ``span`` hands back one
shared no-op context manager, so the end-to-end numbers pay nothing for
the hooks.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

__all__ = ["NULL_TRACER", "NullTracer", "Span", "TimedStage", "Tracer", "timed_stages"]


class Span:
    """One recorded call: ``[start_ns, end_ns)`` under ``parent``."""

    __slots__ = ("attrs", "end_ns", "id", "name", "parent", "root", "start_ns", "trip")

    def __init__(self, sid: int, parent: "Span | None", name: str, trip, attrs: dict) -> None:
        self.id = sid
        self.parent = parent.id if parent else None
        self.root = parent.root if parent else sid
        self.name = name
        self.trip = trip
        self.attrs = attrs
        self.start_ns = 0
        self.end_ns = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_dict(self) -> dict:
        out = {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "trip": self.trip,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class Tracer:
    """Records nested spans; single-threaded, like the benchmark loop."""

    active = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, trip=None, **attrs):
        parent = self._stack[-1] if self._stack else None
        if trip is None and parent is not None:
            trip = parent.trip
        sp = Span(len(self.spans), parent, name, trip, attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start_ns = time.perf_counter_ns()
        try:
            yield sp
        finally:
            sp.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def self_times_ns(self) -> dict[int, int]:
        """Span id -> duration minus the time its direct children cover.

        Spans nest strictly (one thread, context managers), so the children
        of a span never overlap and their durations simply add up.
        """
        child_ns: dict[int, int] = defaultdict(int)
        for sp in self.spans:
            if sp.parent is not None:
                child_ns[sp.parent] += sp.duration_ns
        return {sp.id: sp.duration_ns - child_ns[sp.id] for sp in self.spans}

    def by_name(self, name: str, under: str | None = None) -> list[Span]:
        """Spans called ``name``; with ``under``, only those whose top-level
        ancestor is called ``under`` (the harness's ``setup`` / ``timed``)."""
        return [
            sp for sp in self.spans
            if sp.name == name and (under is None or self.spans[sp.root].name == under)
        ]

    def write(self, path: Path) -> None:
        """Dump every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.to_dict()) + "\n")


class NullTracer:
    """Tracing off: every span is the same inert context manager."""

    active = False
    _NULL = contextlib.nullcontext()

    def span(self, name: str, trip=None, **attrs):
        return self._NULL


NULL_TRACER = NullTracer()


class TimedStage:
    """A pipeline stage seen through a span around ``run`` and ``run_batch``.

    ``run_batch`` is resolved through ``__getattr__`` and exists exactly when
    the wrapped stage has it, so ``getattr(stage, "run_batch", None)`` — the
    test :func:`repro.core.stages.run_stage_batch` uses to choose between the
    batch entry point and its per-trip ``run`` loop — answers as it would for
    the bare stage.
    """

    def __init__(self, stage, tracer: Tracer) -> None:
        self._stage = stage
        self._tracer = tracer
        self.name = stage.name

    def run(self, ctx):
        with self._tracer.span(f"stage.{self.name}", n_trips=1):
            return self._stage.run(ctx)

    def __getattr__(self, attr: str):
        if attr.startswith("_"):
            raise AttributeError(attr)
        if attr == "run_batch":
            inner = self._stage.run_batch  # AttributeError when absent
            tracer = self._tracer
            span_name = f"stage.{self.name}"

            def run_batch(bctx):
                with tracer.span(span_name, n_trips=bctx.n_live):
                    return inner(bctx)

            return run_batch
        return getattr(self._stage, attr)


def timed_stages(system, tracer) -> None:
    """Swap each of ``system.stages`` for its :class:`TimedStage` proxy."""
    if tracer.active:
        system.stages = [TimedStage(stage, tracer) for stage in system.stages]
