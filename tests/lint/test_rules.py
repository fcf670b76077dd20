"""Fixture-driven self-tests: each rule fires on its bad fixture and stays
quiet on its good one — the contract the ISSUE's acceptance criteria pin."""

from pathlib import Path

import pytest

from repro.lint import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"


def run_rule(code: str, target: str) -> list:
    report = lint_paths([FIXTURES / target], select=[code], force_library=True)
    return report.findings


class TestRL001NoNondeterminism:
    def test_bad_fixture_flags_every_clock_and_rng(self):
        findings = run_rule("RL001", "rl001_bad.py")
        assert len(findings) == 7
        messages = " | ".join(f.message for f in findings)
        assert "time.time()" in messages
        assert "time.time_ns()" in messages
        assert "datetime.now()" in messages
        assert "np.random.seed" in messages
        assert "np.random.rand" in messages
        assert "default_rng() without a seed" in messages

    def test_good_fixture_is_clean(self):
        assert run_rule("RL001", "rl001_good.py") == []

    def test_test_code_is_exempt(self):
        # Without force_library the fixtures path marks files as non-library.
        report = lint_paths([FIXTURES / "rl001_bad.py"], select=["RL001"])
        assert report.findings == []


class TestRL002ConfigSerializable:
    def test_bad_fixture_flags_each_field(self):
        findings = run_rule("RL002", "rl002_bad.py")
        flagged = {f.message.split(":")[0] for f in findings}
        assert flagged == {
            "MutableDefaultConfig.overrides",
            "MutableDefaultConfig.weights",
            "UnannotatedFieldConfig.window",
            "UnserializableTypeConfig.scale",
            "UnserializableTypeConfig.hook",
            "UnserializableTypeConfig.samples",
            "UnserializableTypeConfig.tags",
        }

    def test_good_fixture_is_clean(self):
        assert run_rule("RL002", "rl002_good.py") == []


class TestRL003StageContract:
    def test_bad_fixture_flags_orphan_mismatch_and_bodiless(self):
        findings = run_rule("RL003", "rl003_bad.py")
        assert len(findings) == 3
        messages = " | ".join(sorted(f.message for f in findings))
        assert "never registered" in messages
        assert "OrphanStage" in messages
        assert "registered under ['wrong_key']" in messages
        assert "MislabeledStage" in messages
        assert "BodilessStage" in messages
        assert "defines neither run_batch() nor run()" in messages

    def test_good_fixture_is_clean(self):
        assert run_rule("RL003", "rl003_good.py") == []


class TestRL004MetricNames:
    def test_bad_fixture_flags_grammar_and_registry(self):
        findings = run_rule("RL004", "rl004_bad")
        grammar = [f for f in findings if "grammar" in f.message]
        registry = [f for f in findings if "not declared" in f.message]
        assert len(grammar) == 3
        assert len(registry) == 1
        assert "pipeline.unregistered_latency" in registry[0].message

    def test_good_fixture_is_clean(self):
        assert run_rule("RL004", "rl004_good") == []

    def test_grammar_only_without_registry_module(self):
        # Linting a single file (no metric_names.py in the scan set) checks
        # the grammar but skips registry membership.
        findings = run_rule("RL004", "rl004_bad/emit.py")
        assert len(findings) == 3
        assert all("grammar" in f.message for f in findings)


class TestRL005FloatEquality:
    def test_bad_fixture_flags_each_comparison(self):
        findings = run_rule("RL005", "rl005_bad.py")
        assert len(findings) == 4

    def test_good_fixture_is_clean(self):
        assert run_rule("RL005", "rl005_good.py") == []


class TestRL006SilentExcept:
    def test_bad_fixture_flags_each_handler(self):
        findings = run_rule("RL006", "rl006_bad.py")
        assert len(findings) == 3
        assert any("bare `except:`" in f.message for f in findings)
        assert any("swallows" in f.message for f in findings)

    def test_good_fixture_is_clean(self):
        assert run_rule("RL006", "rl006_good.py") == []


class TestRL007UnjustifiedSuppression:
    def test_unjustified_suppression_is_flagged(self):
        findings = run_rule("RL007", "unjustified.py")
        assert len(findings) == 1
        assert "RL001" in findings[0].message

    def test_justified_suppressions_are_clean_and_silence_their_rules(self):
        report = lint_paths(
            [FIXTURES / "suppressed.py"],
            select=["RL001", "RL005", "RL007"],
            force_library=True,
        )
        assert report.findings == []
        assert len(report.suppressed) == 2


@pytest.mark.parametrize(
    "code", ["RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007"]
)
def test_every_rule_is_registered_with_metadata(code):
    from repro.lint import RULE_REGISTRY

    rule = RULE_REGISTRY[code]
    assert rule.code == code
    assert rule.name
    assert rule.description
