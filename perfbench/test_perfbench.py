"""Checks of the benchmark itself.

Run with ``python -m pytest perfbench`` (tier-1's ``testpaths`` does
not collect this directory).  The smoke run exercises every workload,
untraced and traced, at tiny sizes.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from metrics import PER_LAYER  # noqa: E402
from spans import ROOT as ROOT_SPAN, Collector  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(*argv: str) -> tuple[subprocess.CompletedProcess, float]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        cwd=ROOT, text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170,
    )
    return proc, time.perf_counter() - t0


# ----------------------------------------------------------------------
# BENCHMARK.json and the catalog
# ----------------------------------------------------------------------
def test_spec_is_within_the_contract(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    budget = (4 + 22 * len(spec["workloads"])) * (spec["run_seconds"] + 8)
    assert budget <= 3420, "the driver's runs would not fit its time limit"


def test_spec_lists_the_code_s_workloads_and_metrics(spec):
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
    assert [m["name"] for m in spec["end_to_end"]] == [
        "host_s", "work_per_s", "cpu_s", "setup_s", "peak_rss_mb"
    ]


def test_every_layer_metric_says_what_it_should_move(spec):
    e2e = {m["name"] for m in spec["end_to_end"]}
    for m in PER_LAYER:
        assert bool(m.moves) != bool(m.fixed), m.name
        for metric, workload in m.moves:
            assert metric in e2e and workload in WORKLOADS, m.name


def test_golden_configurations_of_one_problem_agree():
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        golden = json.load(fh)
    for sizes in ("full", "smoke"):
        entries = golden[sizes]
        assert set(entries) == set(WORKLOADS)
        assert entries["cg_process"] == entries["cg_sweep"] == entries["cg_observed"]


# ----------------------------------------------------------------------
# Span accounting
# ----------------------------------------------------------------------
def test_self_times_add_up_to_the_pass():
    col = Collector()

    def spin(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    inner = col.leaf("inner", spin)

    def outer_fn():
        spin(0.002)
        inner(0.003)

    outer = col.span("outer", outer_fn)
    with col.one_pass():
        outer()
        spin(0.001)
    rows = col.by_name()
    assert rows["outer"][0] == rows["inner"][0] == 1
    assert rows["outer"][1] == pytest.approx(0.005, abs=0.002)
    assert rows["outer"][2] == pytest.approx(0.002, abs=0.0015)
    assert sum(r[2] for r in rows.values()) == pytest.approx(col.pass_walls[0], rel=1e-9)
    assert rows[ROOT_SPAN][2] == pytest.approx(0.001, abs=0.0015)
    trace = col.to_json()
    by_id = {s["id"]: s for s in trace["spans"]}
    outer_span = next(s for s in trace["spans"] if s["name"] == "outer")
    assert by_id[outer_span["parent"]]["name"] == ROOT_SPAN
    assert trace["folded"] == [
        {"name": "inner", "parent": "outer", "count": 1,
         "total_s": rows["inner"][1], "self_s": rows["inner"][2]}
    ]


def test_wrappers_are_removed_after_a_traced_run():
    from repro.core.runtime import PpmRuntime
    from repro.core.shared import GlobalShared

    before = (PpmRuntime.do, GlobalShared.__getitem__)
    with Collector().installed(inline=True):
        assert (PpmRuntime.do, GlobalShared.__getitem__) != before
    assert (PpmRuntime.do, GlobalShared.__getitem__) == before


# ----------------------------------------------------------------------
# The command
# ----------------------------------------------------------------------
def test_smoke_run_reports_every_metric(spec):
    busy = os.getloadavg()[0] > (os.cpu_count() or 1)
    proc, elapsed = run_bench("--smoke")
    assert proc.returncode == 0, proc.stderr
    if not busy:
        assert elapsed < 20, f"smoke run took {elapsed:.1f} s"
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert set(last["metrics"]) == {w["name"] for w in spec["workloads"]}
    for name, metrics in last["metrics"].items():
        assert {k: v["unit"] for k, v in metrics.items()} == wanted, name
        assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
        for m in spec["end_to_end"]:
            assert metrics[m["name"]]["value"] > 0
        assert metrics["perfbench.unattributed_share"]["value"] <= 0.10, name

    with open(HERE / "out" / "results.json", encoding="utf-8") as fh:
        results = json.load(fh)
    assert {"nproc", "affinity_cores", "cpu_model", "python", "numpy", "git_rev", "seed",
            "loadavg_1min", "oversubscribed"} <= set(results["host"])
    for name in WORKLOADS:
        with open(HERE / "out" / f"trace-{name}.json", encoding="utf-8") as fh:
            trace = json.load(fh)
        assert trace["passes"] >= 2
        assert all({"id", "parent", "name", "pass", "start", "end"} <= set(s) for s in trace["spans"])
        assert {s["pass"] for s in trace["spans"]} == set(range(trace["passes"]))


def test_driver_form_on_another_seed(spec):
    """``--workload X --seed N --seconds S --trace 0``: a flat object
    of exactly the end-to-end metrics; a seed without a golden is
    checked against the serial reference alone."""
    proc, _ = run_bench(
        "--smoke", "--workload", "bfs_scatter", "--seed", "12345", "--seconds", "0", "--trace", "0"
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert list(last["metrics"]) == [m["name"] for m in spec["end_to_end"]]


def test_wrong_golden_fails_the_run(tmp_path, monkeypatch):
    import run

    with open(HERE / "golden.json", encoding="utf-8") as fh:
        golden = json.load(fh)
    golden["smoke"]["analyze_apps"]["certified"] += 1
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps(golden))
    monkeypatch.setattr(run, "GOLDEN", bad)
    monkeypatch.setattr(run, "OUT", tmp_path)
    spec = {"workload": "analyze_apps", "seed": 7, "sizes": "smoke", "mode": "untraced",
            "seconds": 0.0, "min_passes": 2, "verify": True, "spawned_at": time.time()}
    result = run.child_untraced(spec)
    assert [p["ok"] for p in result["passes"]] == [False, False]
    assert any("certified" in e for e in result["errors"])
