"""Tests for the ``python -m repro.analysis`` command-line interface.

The commands run in process through ``main(argv)``; one test spawns
``python -m repro.analysis`` to cover the module entry point itself.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from typing import NamedTuple

import pytest

from repro.analysis.__main__ import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

CLEAN = textwrap.dedent(
    """\
    from repro.core import ppm_function

    @ppm_function
    def kernel(ctx, X):
        yield ctx.global_phase
        X[0] = 1.0

    def main(ppm):
        X = ppm.global_shared("x", 10)
        ppm.do(ppm.cores_per_node, kernel, X)
    """
)

BUGGY = textwrap.dedent(
    """\
    from repro.core import ppm_function

    @ppm_function
    def kernel(ctx, X):
        yield ctx.global_phase
        X[0] += 1.0

    def main(ppm):
        X = ppm.global_shared("x", 10)
        ppm.do(ppm.cores_per_node, kernel, X)
    """
)

WARN_ONLY = textwrap.dedent(
    """\
    from repro.core import ppm_function

    @ppm_function
    def kernel(ctx, X):
        yield ctx.global_phase
        X[0] = 1.0

    def main(ppm):
        X = ppm.global_shared("x", 10)
        ppm.do(8, kernel, X)
    """
)


class CliResult(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


@pytest.fixture
def run_cli(capsys, monkeypatch):
    """``main(argv)`` from the repo root: its exit status (argparse's
    usage errors included) and what it printed."""
    monkeypatch.chdir(REPO_ROOT)

    def run(*args: str) -> CliResult:
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return CliResult(code, out, err)

    return run


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, run_cli):
        path = tmp_path / "clean.py"
        path.write_text(CLEAN)
        proc = run_cli(str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean: no findings" in proc.stdout

    def test_error_finding_exits_one(self, tmp_path):
        """The one spawned run: ``python -m repro.analysis`` carries
        ``main``'s status out as the process's exit code."""
        path = tmp_path / "buggy.py"
        path.write_text(BUGGY)
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(path)],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 1
        assert "PPM103" in proc.stdout
        assert "1 error(s)" in proc.stdout

    def test_warning_only_passes_unless_strict(self, tmp_path, run_cli):
        path = tmp_path / "warn.py"
        path.write_text(WARN_ONLY)
        assert run_cli(str(path)).returncode == 0
        proc = run_cli("--strict", str(path))
        assert proc.returncode == 1
        assert "PPM105" in proc.stdout

    def test_directory_recursion(self, tmp_path, run_cli):
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / "a.py").write_text(CLEAN)
        (sub / "b.py").write_text(BUGGY)
        proc = run_cli(str(tmp_path))
        assert proc.returncode == 1
        assert "b.py" in proc.stdout and "a.py" not in proc.stdout

    def test_json_output(self, tmp_path, run_cli):
        path = tmp_path / "buggy.py"
        path.write_text(BUGGY)
        proc = run_cli("--json", str(path))
        findings = json.loads(proc.stdout)
        assert len(findings) == 1
        assert findings[0]["rule"] == "PPM103"
        assert findings[0]["path"] == str(path)
        assert findings[0]["line"] == 6

    def test_list_rules(self, run_cli):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in ("PPM101", "PPM102", "PPM103", "PPM104", "PPM105"):
            assert rule_id in proc.stdout

    def test_verify_list_rules_covers_all_dataflow_codes(self, run_cli):
        """No hard-coded rule tuple: every registered PPM4xx code is
        listed, including the bounds/liveness family."""
        from repro.analysis.diagnostics import ALL_CODES

        proc = run_cli("verify", "--list-rules")
        assert proc.returncode == 0
        for code in (c for c in ALL_CODES if c.startswith("PPM4")):
            assert code in proc.stdout

    def test_list_codes_prints_every_registered_code(self, run_cli):
        from repro.analysis.diagnostics import ALL_CODES

        proc = run_cli("--list-codes")
        assert proc.returncode == 0
        for code, summary in ALL_CODES.items():
            assert code in proc.stdout
            assert summary in proc.stdout

    def test_no_paths_is_usage_error(self, run_cli):
        proc = run_cli()
        assert proc.returncode == 2

    def test_missing_path_is_usage_error(self, tmp_path, run_cli):
        proc = run_cli(str(tmp_path / "nope.txt"))
        assert proc.returncode == 2

    def test_repo_gate_passes(self, run_cli):
        """The CI lint gate: the shipped examples and apps are clean."""
        proc = run_cli("examples", os.path.join("src", "repro", "apps"))
        assert proc.returncode == 0, proc.stdout + proc.stderr


CONFLICTING = textwrap.dedent(
    """\
    from repro.core import ppm_function

    @ppm_function
    def kernel(ctx, X):
        yield ctx.global_phase
        X[0] = float(ctx.global_rank)

    def main(ppm):
        X = ppm.global_shared("x", 10)
        ppm.do(ppm.cores_per_node, kernel, X)
    """
)

CERTIFIABLE = textwrap.dedent(
    """\
    from repro.core import ppm_function

    @ppm_function
    def kernel(ctx, X):
        yield ctx.global_phase
        X[ctx.global_rank] = 1.0

    def main(ppm):
        X = ppm.global_shared("x", 10)
        ppm.do(ppm.cores_per_node, kernel, X)
    """
)


class TestExplain:
    def test_known_code_prints_docs_section(self, run_cli):
        proc = run_cli("--explain", "PPM401")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.startswith("### PPM401")
        assert "write" in proc.stdout.lower()

    def test_lowercase_code_accepted(self, run_cli):
        proc = run_cli("--explain", "ppm201")
        assert proc.returncode == 0
        assert proc.stdout.startswith("### PPM201")

    def test_unknown_code_is_usage_error(self, run_cli):
        proc = run_cli("--explain", "PPM999")
        assert proc.returncode == 2
        assert "PPM999" in proc.stderr

    def test_every_registered_code_has_a_docs_anchor(self):
        """Satellite guarantee: ``--explain`` never falls back to the
        one-liner for a shipped rule — every code in the registry has
        a ``### PPMxxx`` section in docs/DIAGNOSTICS.md."""
        from repro.analysis.diagnostics import ALL_CODES

        doc = open(
            os.path.join(REPO_ROOT, "docs", "DIAGNOSTICS.md"),
            encoding="utf-8",
        ).read()
        missing = [c for c in ALL_CODES if f"### {c}" not in doc]
        assert missing == []


class TestVerifyCli:
    def test_conflicting_file_flagged_without_execution(self, tmp_path, run_cli):
        path = tmp_path / "bad.py"
        path.write_text(CONFLICTING)
        proc = run_cli("verify", str(path))
        assert proc.returncode == 1
        assert "PPM401" in proc.stdout
        assert "0/1 phases certified" in proc.stdout

    def test_certifiable_file_reports_certificate(self, tmp_path, run_cli):
        path = tmp_path / "good.py"
        path.write_text(CERTIFIABLE)
        proc = run_cli("verify", str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "kernel: certified conflict-free" in proc.stdout
        assert "clean: no findings" in proc.stdout

    def test_json_output_includes_kernels_and_edges(self, tmp_path, run_cli):
        path = tmp_path / "good.py"
        path.write_text(CERTIFIABLE)
        proc = run_cli("verify", "--json", str(path))
        doc = json.loads(proc.stdout)
        assert doc["findings"] == []
        [kernel] = doc["kernels"]
        assert kernel["certified"] is True
        assert kernel["phases"][0]["kind"] == "global"
        assert "dependence_edges" in kernel

    def test_sarif_written_even_on_findings(self, tmp_path, run_cli):
        path = tmp_path / "bad.py"
        path.write_text(CONFLICTING)
        sarif = tmp_path / "out.sarif"
        proc = run_cli("verify", "--sarif", str(sarif), str(path))
        assert proc.returncode == 1
        doc = json.loads(sarif.read_text())
        assert doc["version"] == "2.1.0"
        assert any(
            r["ruleId"] == "PPM401" for r in doc["runs"][0]["results"]
        )

    def test_baseline_suppression_round_trip(self, tmp_path, run_cli):
        path = tmp_path / "bad.py"
        path.write_text(CONFLICTING)
        baseline = tmp_path / "baseline.json"
        wrote = run_cli(
            "verify", "--write-baseline", str(baseline), str(path)
        )
        assert wrote.returncode == 1  # still failing on first run
        proc = run_cli("verify", "--baseline", str(baseline), str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "suppressed by baseline" in proc.stdout

    def test_verify_no_paths_is_usage_error(self, run_cli):
        proc = run_cli("verify")
        assert proc.returncode == 2

    def test_json_and_sarif_are_mutually_exclusive(self, tmp_path, run_cli):
        path = tmp_path / "good.py"
        path.write_text(CERTIFIABLE)
        proc = run_cli(
            "verify",
            "--json",
            "--sarif",
            str(tmp_path / "out.sarif"),
            str(path),
        )
        assert proc.returncode == 2
        assert "not allowed with" in proc.stderr

    def test_written_baseline_is_version_2(self, tmp_path, run_cli):
        path = tmp_path / "bad.py"
        path.write_text(CONFLICTING)
        baseline = tmp_path / "baseline.json"
        run_cli("verify", "--write-baseline", str(baseline), str(path))
        doc = json.loads(baseline.read_text())
        assert doc["version"] == 2
        # Content fingerprints, not rule:path:line positional ones.
        assert doc["suppressions"]
        assert not any(
            str(path) in s for s in doc["suppressions"]
        )

    def test_repo_verify_gate_passes(self, run_cli):
        """The CI verify gate: all six shipped apps certify clean."""
        proc = run_cli(
            "verify", "--strict", os.path.join("src", "repro", "apps")
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.count("certified conflict-free") >= 6
