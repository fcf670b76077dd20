"""RL003 fixture: registered stages whose keys match — nothing to flag."""

from typing import Protocol

from repro.core.stages import register_stage


class Stage(Protocol):
    """The protocol itself (no literal name) is not a concrete stage."""

    name: str

    def run_batch(self, bctx):
        ...


class ResampleStage:
    """A third-party stage with only the per-trip run()."""

    name = "resample"

    def __init__(self, factor: int) -> None:
        self.factor = factor

    def run(self, ctx):
        return ctx


class DebiasStage:
    name = "debias"

    def run(self, ctx):
        return ctx


class BatchOnlyStage:
    """run_batch() alone is a complete stage, as every built-in stage is."""

    name = "batch_only"

    def run_batch(self, bctx):
        return None


class ColumnarStage:
    """Defining both entry points is fine too."""

    name = "columnar"

    def run(self, ctx):
        return ctx

    def run_batch(self, bctx):
        return None


register_stage("resample", lambda system: ResampleStage(2))
register_stage("debias", lambda system: DebiasStage())
register_stage("batch_only", lambda system: BatchOnlyStage())
register_stage("columnar", lambda system: ColumnarStage())
