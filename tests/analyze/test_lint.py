"""Static linter tests: golden fixtures, suppression, repo self-lint."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analyze.lint import RULES, lint_file, lint_paths, lint_source

FIXTURES = Path(__file__).parent / "fixtures"
REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Fixture file -> (rule, expected finding count).
GOLDEN = {
    "bad_rpr001.py": ("RPR001", 3),
    "bad_rpr002.py": ("RPR002", 1),
    "bad_rpr003.py": ("RPR003", 4),
    "bad_rpr004.py": ("RPR004", 1),
    "bad_rpr005.py": ("RPR005", 2),
    "bad_rpr006.py": ("RPR006", 1),
    "bad_rpr007.py": ("RPR007", 2),
}


class TestGoldenFixtures:
    @pytest.mark.parametrize("filename, expected", GOLDEN.items())
    def test_each_rule_fires_on_its_fixture(self, filename, expected):
        rule, count = expected
        findings = lint_file(FIXTURES / filename, respect_scope=False)
        assert [f.rule for f in findings] == [rule] * count

    def test_fixture_lines_match_docstrings(self):
        findings = lint_file(FIXTURES / "bad_rpr001.py", respect_scope=False)
        assert [f.line for f in findings] == [7, 8, 9]
        findings = lint_file(FIXTURES / "bad_rpr005.py", respect_scope=False)
        assert [f.line for f in findings] == [5, 7]
        findings = lint_file(FIXTURES / "bad_rpr007.py", respect_scope=False)
        assert [f.line for f in findings] == [8, 9]

    def test_good_halves_are_clean(self):
        # Delete the bad_* function from each fixture: zero findings.
        for filename in (
            "bad_rpr001.py",
            "bad_rpr003.py",
            "bad_rpr005.py",
            "bad_rpr007.py",
        ):
            source = (FIXTURES / filename).read_text()
            head, _, tail = source.partition("def good_")
            trimmed = "\n".join(
                line
                for line in head.splitlines()
                if not line.startswith(("def bad_", "    "))
            )
            cleaned = trimmed + "\ndef good_" + tail
            assert lint_source(cleaned, respect_scope=False) == []


class TestSuppression:
    def test_noqa_with_code_suppresses(self):
        src = (
            "import numpy as np\n"
            "x = np.einsum('bi,bi->b', a, b)  # noqa: RPR001 -- test\n"
        )
        assert lint_source(src, path="kernels/device/k.py") == []

    def test_bare_noqa_suppresses_everything(self):
        src = "y = x == 1.0  # noqa\n"
        assert lint_source(src, respect_scope=False) == []

    def test_wrong_code_does_not_suppress(self):
        # The wrong code neither silences RPR005 nor survives the
        # unused-suppression audit.
        src = "y = x == 1.0  # noqa: RPR001\n"
        findings = lint_source(src, respect_scope=False)
        assert sorted(f.rule for f in findings) == ["RPR005", "RPR006"]


class TestUnusedNoqa:
    def test_used_suppression_is_not_flagged(self):
        src = (
            "import numpy as np\n"
            "x = np.einsum('bi,bi->b', a, b)  # noqa: RPR001 -- used\n"
        )
        assert lint_source(src, path="kernels/device/k.py") == []

    def test_unused_suppression_is_flagged(self):
        src = "x = a + b  # noqa: RPR001 -- nothing here\n"
        findings = lint_source(src, path="kernels/device/k.py")
        assert [f.rule for f in findings] == ["RPR006"]
        assert "RPR001" in findings[0].message

    def test_scope_skipped_rule_is_not_audited(self):
        # RPR001 does not run outside kernel dirs, so the linter cannot
        # prove the suppression stale and must leave it alone.
        src = "x = a + b  # noqa: RPR001 -- out of scope\n"
        assert lint_source(src, path="model/cpu_model.py") == []

    def test_foreign_codes_are_ignored(self):
        src = "x = a + b  # noqa: BLE001 -- ruff's business\n"
        assert lint_source(src, path="kernels/device/k.py") == []

    def test_bare_noqa_is_exempt(self):
        src = "x = a + b  # noqa\n"
        assert lint_source(src, path="kernels/device/k.py") == []

    def test_rule_subset_limits_the_audit(self):
        # RPR006 alone cannot audit RPR001 suppressions: the rule that
        # would prove them stale never ran.
        src = "x = a + b  # noqa: RPR001 -- unaudited\n"
        findings = lint_source(
            src, path="kernels/device/k.py", rules=["RPR006"]
        )
        assert findings == []
        findings = lint_source(
            src, path="kernels/device/k.py", rules=["RPR001", "RPR006"]
        )
        assert [f.rule for f in findings] == ["RPR006"]

    def test_rpr006_can_be_suppressed_itself(self):
        src = "x = a + b  # noqa: RPR001, RPR006 -- keep for symmetry\n"
        assert lint_source(src, path="kernels/device/k.py") == []


class TestScope:
    def test_rules_respect_path_scope(self):
        src = "import numpy as np\nx = np.einsum('bi,bi->b', a, b)\n"
        assert lint_source(src, path="model/cpu_model.py") == []
        hits = lint_source(src, path="kernels/batched/qr.py")
        assert [f.rule for f in hits] == ["RPR001"]

    def test_rpr005_skips_tests(self):
        src = "assert x == 1.0\n"
        assert lint_source(src, path="tests/test_model.py") == []
        assert lint_source(src, path="model/calib.py")

    def test_rpr007_flags_hand_written_events_in_runtime_code(self):
        src = (
            "from repro.observe.log import log_event\n"
            "log_event('runtime.launch', mode='serial')\n"
            "tracer.instant('runtime.launch', 'runtime')\n"
        )
        for path in ("runtime/executor.py", "resilience/supervisor.py"):
            hits = lint_source(src, path=path)
            assert [(f.rule, f.line) for f in hits] == [
                ("RPR007", 2),
                ("RPR007", 3),
            ]

    def test_rpr007_allows_emit_and_other_packages(self):
        routed = "emit('runtime.launch', mode='serial')\n"
        assert lint_source(routed, path="runtime/executor.py") == []
        direct = "tracer.instant('calibrate.cache_hit', 'microbench')\n"
        assert lint_source(direct, path="microbench/calibrate.py") == []
        assert lint_source(direct, path="tests/runtime/test_executor.py") == []

    def test_syntax_error_is_reported_not_raised(self):
        findings = lint_source("def broken(:\n", path="x.py")
        assert [f.rule for f in findings] == ["RPR000"]


class TestSelfLint:
    def test_repo_source_tree_is_clean(self):
        findings = lint_paths([REPO_SRC])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_every_rule_is_exercised_by_a_fixture(self):
        assert set(GOLDEN[f][0] for f in GOLDEN) == set(RULES)


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.analyze", *args],
            capture_output=True,
            text=True,
            cwd=str(REPO_SRC.parents[1]),
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )

    def test_lint_strict_fails_on_fixture(self):
        proc = self._run(
            "lint", "--strict", "--json", str(FIXTURES / "bad_rpr004.py")
        )
        assert proc.returncode == 1
        findings = json.loads(proc.stdout)
        assert [f["rule"] for f in findings] == ["RPR004"]

    def test_lint_strict_passes_on_repo(self):
        proc = self._run("lint", "--strict")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_unknown_rule_is_an_error(self):
        proc = self._run("lint", "--rules", "RPR999")
        assert proc.returncode == 2
