"""RL003 fixture: stage classes that break the registry contract."""

from repro.core.stages import register_stage


class OrphanStage:
    """Has the Stage shape but is never registered: unreachable from configs."""

    name = "orphan"

    def run_batch(self, bctx):
        return None


class MislabeledStage:
    """Registered under a key that differs from its name attribute."""

    name = "mislabeled"

    def run(self, ctx):
        return ctx


class BodilessStage:
    """Registered, but defines neither run_batch() nor run()."""

    name = "bodiless"


register_stage("wrong_key", lambda system: MislabeledStage())
register_stage("bodiless", lambda system: BodilessStage())
