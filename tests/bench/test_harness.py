"""Tests for the experiment harness: sweeps, reports, code counting,
and the CLI."""

from __future__ import annotations

import functools
import os

import pytest

from repro.bench.codesize import PAPER_TABLE1, TABLE1_FILES, count_loc, table1_codesize
from repro.bench.harness import SweepResult, run_sweep
from repro.bench.report import format_table, save_result


class TestRunSweep:
    def test_collects_rows_in_order(self):
        result = run_sweep("demo", "x", [1, 2, 3], lambda x: {"y": x * x})
        assert result.columns == ["x", "y"]
        assert [r["x"] for r in result.rows] == [1, 2, 3]
        assert result.series("y") == [1, 4, 9]

    def test_ragged_columns_supported(self):
        def runner(x):
            return {"y": x} if x < 2 else {"y": x, "z": -x}

        result = run_sweep("demo", "x", [1, 2], runner)
        assert result.columns == ["x", "y", "z"]
        assert result.rows[0].get("z") is None

    def test_series_unknown_column(self):
        result = run_sweep("demo", "x", [1], lambda x: {"y": x})
        with pytest.raises(KeyError):
            result.series("nope")

    def test_notes_attached(self):
        result = run_sweep("demo", "x", [], lambda x: {}, notes="hello")
        assert result.notes == "hello"


class TestFormatting:
    def test_format_table_contains_everything(self):
        result = SweepResult(
            name="t", columns=["a", "b"], rows=[{"a": 1, "b": 0.5}], notes="n"
        )
        text = format_table(result)
        assert "== t ==" in text
        assert "n" in text
        assert "0.5" in text

    def test_float_formatting(self):
        result = SweepResult(
            name="t",
            columns=["v"],
            rows=[{"v": 0.000123}, {"v": 123456.0}, {"v": 0.0}],
        )
        text = format_table(result)
        assert "0.000123" in text
        assert "0" in text

    def test_save_result_writes_file(self, tmp_path, monkeypatch):
        import repro.bench.report as report

        monkeypatch.setattr(report, "RESULTS_DIR", str(tmp_path))
        result = SweepResult(name="demo", columns=["a"], rows=[{"a": 1}])
        text = save_result(result)
        assert (tmp_path / "demo.txt").read_text().strip() == text.strip()


class TestCodeSize:
    def test_count_loc_ignores_comments_and_docstrings(self, tmp_path):
        src = tmp_path / "sample.py"
        src.write_text(
            '"""Module docstring\nspanning lines."""\n'
            "# a comment\n"
            "\n"
            "def f(x):\n"
            '    """Doc."""\n'
            "    # inner comment\n"
            "    return x + 1\n"
        )
        assert count_loc(str(src)) == 2  # def line + return line

    def test_count_loc_counts_multiline_statements(self, tmp_path):
        src = tmp_path / "sample.py"
        src.write_text("x = [\n    1,\n    2,\n]\n")
        assert count_loc(str(src)) == 4

    def test_table1_structure(self):
        result = table1_codesize()
        assert {r["application"] for r in result.rows} == set(PAPER_TABLE1)
        for row in result.rows:
            assert row["ppm_loc"] > 0
            assert row["mpi_loc"] > 0

    def test_listed_files_exist(self):
        import repro.apps as apps

        base = os.path.dirname(apps.__file__)
        for ppm_files, mpi_files in TABLE1_FILES.values():
            for rel in ppm_files + mpi_files:
                assert os.path.exists(os.path.join(base, rel)), rel


class TestCli:
    def test_list(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "table1" in out

    def test_unknown_experiment(self, capsys):
        from repro.bench.__main__ import main

        assert main(["nope"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_runs_table1(self, capsys, tmp_path, monkeypatch):
        import repro.bench.report as report

        monkeypatch.setattr(report, "RESULTS_DIR", str(tmp_path))
        from repro.bench.__main__ import main

        assert main(["table1"]) == 0
        assert "Conjugate Gradient" in capsys.readouterr().out
        assert (tmp_path / "table1_codesize.txt").exists()


#: Sizes at which tier-1 runs each experiment: the cheap ones as the
#: CLI runs them, the rest reduced.  Every claim a builder evaluates
#: at these sizes must hold (Figure 3's full-size claim is skipped by
#: the builder's own guard).
REDUCED = {
    "fig1": dict(node_counts=(1, 8, 64), nx=8, iters=8),
    "fig2": dict(node_counts=(1, 4, 16), levels=7),
    "fig3": dict(node_counts=(1, 2, 4, 16), n_particles=512, steps=1),
    "table1": {},
    "manycore": dict(cores_sweep=(4, 16), total_cores=64, nx=8, iters=4),
    "bundling": dict(node_counts=(2, 4), n_particles=256),
    "overlap": dict(node_counts=(4, 16), nx=6, iters=4),
    "smartmap": {},
    "loadbalance": {},
    "ext_bfs": {},
    "ext_trsv": {},
    "ext_multigrid": dict(node_counts=(1, 8), levels=5, cycles=1),
    "obs_cg": dict(node_counts=(2, 8), nx=6, iters=4),
    "resilience": dict(nodes=4, nx=6, iters=12, json_path=None),
    "analyzer": {},
}


@functools.lru_cache(maxsize=None)
def reduced(name: str) -> SweepResult:
    from repro.bench.__main__ import EXPERIMENTS

    return EXPERIMENTS[name](**REDUCED[name])


class TestClaims:
    def test_every_experiment_has_sizes_here(self):
        from repro.bench.__main__ import EXPERIMENTS

        assert set(REDUCED) == set(EXPERIMENTS)

    @pytest.mark.parametrize("name", REDUCED)
    def test_experiment_carries_claims_that_hold(self, name):
        claims = reduced(name).claims
        assert claims, f"{name} evaluates no claim"
        assert [text for text, holds in claims if not holds] == []

    def test_failed_claim_fails_the_command(self, capsys, tmp_path, monkeypatch):
        import repro.bench.codesize as codesize
        import repro.bench.report as report
        from repro.bench.__main__ import main

        # Every source the same size: Table 1's "MPI needs more code"
        # claims are violated, the table is regenerated all the same.
        monkeypatch.setattr(codesize, "count_loc", lambda path: 10)
        monkeypatch.setattr(report, "RESULTS_DIR", str(tmp_path))
        assert main(["table1"]) == 1
        out = capsys.readouterr().out
        assert "claim FAILED: Conjugate Gradient: MPI needs substantially more code" in out
        assert "claim holds: every implementation is counted" in out
        assert "Barnes Hut" in (tmp_path / "table1_codesize.txt").read_text()

    def test_analyzer_table_is_deterministic(self):
        from repro.bench.analyzer import analyzer_verdicts

        first = format_table(analyzer_verdicts())
        assert first == format_table(analyzer_verdicts())
        assert "_ms" not in first and "certified" in first


class TestFigureBuildersSmoke:
    """Reduced-size smoke runs of the figure builders (the real sizes
    run under ``python -m repro.bench``, CI's paper-claims job)."""

    def test_fig1_smoke(self):
        # Paper §4.5: PPM starts much slower on one node and catches up.
        result = reduced("fig1")
        assert all(r["ppm_s"] > 0 and r["mpi_s"] > 0 for r in result.rows)
        ratios = result.series("ppm/mpi")  # 3.27 / 0.92 / 0.85 here
        assert ratios[0] > 2.0
        assert ratios[-1] < 1.1
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_fig2_smoke(self):
        # PPM at least competitive everywhere, the gap widening.
        result = reduced("fig2")
        assert all(r["ppm_s"] > 0 for r in result.rows)
        ratios = result.series("ppm/mpi")  # 0.96 / 0.69 / 0.43 here
        assert max(ratios) < 1.25
        assert ratios[-1] < 0.5
        assert ratios[-1] < ratios[0]

    def test_fig3_smoke(self):
        # "Scales well as the number of nodes increases."
        result = reduced("fig3")
        times = result.series("ppm_s")
        assert all(t > 0 for t in times)
        assert all(b < a for a, b in zip(times, times[1:]))

    def test_ext_smoke(self):
        from repro.bench.figures import ext_bfs, ext_trsv

        assert ext_bfs(node_counts=(1,), n_vertices=200).rows[0]["ppm_s"] > 0
        assert ext_trsv(node_counts=(1,), nx=4).rows[0]["ppm_s"] > 0


class TestRenderChart:
    def _result(self):
        return SweepResult(
            name="demo",
            columns=["nodes", "ppm_s", "mpi_s", "ratio"],
            rows=[
                {"nodes": 1, "ppm_s": 0.01, "mpi_s": 0.002, "ratio": 5.0},
                {"nodes": 2, "ppm_s": 0.005, "mpi_s": 0.003, "ratio": 1.7},
            ],
        )

    def test_renders_time_series_only(self):
        from repro.bench.report import render_chart

        text = render_chart(self._result())
        assert "ppm_s" in text and "mpi_s" in text
        assert "ratio" not in text

    def test_bars_scale_with_values(self):
        from repro.bench.report import render_chart

        lines = render_chart(self._result()).splitlines()[1:]  # skip header
        big = next(l for l in lines if l.endswith("0.01"))
        small = next(l for l in lines if l.endswith("0.002"))
        assert big.count("#") > small.count("#")

    def test_missing_values_marked(self):
        from repro.bench.report import render_chart

        r = SweepResult(
            name="demo",
            columns=["nodes", "a_s"],
            rows=[{"nodes": 1, "a_s": 0.1}, {"nodes": 2}],
        )
        assert "(n/a)" in render_chart(r)

    def test_no_time_columns_gives_empty(self):
        from repro.bench.report import render_chart

        r = SweepResult(name="demo", columns=["x", "y"], rows=[{"x": 1, "y": 2}])
        assert render_chart(r) == ""
