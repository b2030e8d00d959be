"""Exporter tests: trace-file round-trip, schema validation, Chrome
trace_event structure, and report rendering."""

from __future__ import annotations

import json

import pytest

from repro.config import testing as mkconfig
from repro.core import run_ppm
from repro.machine import Cluster
from repro.obs.events import PhaseTrace
from repro.obs.export import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    chrome_trace,
    format_report,
    load_trace,
    report_to_dict,
    save_chrome_trace,
    save_trace,
    trace_to_dict,
)
from repro.obs.metrics import RunReport


@pytest.fixture(scope="module")
def traced():
    trace = PhaseTrace()

    def main(ppm):
        A = ppm.global_shared("A", 32)

        def kernel(ctx, A):
            yield ctx.global_phase
            _ = A[[(ctx.global_rank * 7) % 32]]
            ctx.work(20)
            yield ctx.global_phase
            A[[(ctx.global_rank * 3) % 32]] = [2.0]

        ppm.do(8, kernel, A)

    run_ppm(main, Cluster(mkconfig(n_nodes=2, cores_per_node=2)), trace=trace)
    return trace


class TestTraceFiles:
    def test_roundtrip_lossless(self, traced, tmp_path):
        path = tmp_path / "run.trace.json"
        save_trace(traced, str(path))
        loaded = load_trace(str(path))
        assert list(loaded) == list(traced)
        assert loaded.phase == max(e.phase for e in traced)

    def test_schema_header(self, traced):
        payload = trace_to_dict(traced)
        assert payload["schema"] == SCHEMA_NAME
        assert payload["version"] == SCHEMA_VERSION
        assert all("event" in d for d in payload["events"])

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other", "version": 1}))
        with pytest.raises(ValueError, match="not a ppm-trace"):
            load_trace(str(path))

    def test_rejects_wrong_version(self, tmp_path):
        # Version 2 dropped the two event kinds of the message-fault
        # layer, so a version-1 file is refused like a future one.
        path = tmp_path / "bad.json"
        for version in (1, 99):
            path.write_text(
                json.dumps({"schema": SCHEMA_NAME, "version": version, "events": []})
            )
            with pytest.raises(
                ValueError,
                match=rf"bad\.json: unsupported trace version {version} "
                r"\(this reader understands 2\)",
            ):
                load_trace(str(path))

    @pytest.mark.parametrize(
        "damage, complaint",
        [
            (lambda d: d.pop("cost"), r"missing field\(s\) \['cost'\]"),
            (lambda d: d.update(colour="red"), r"missing field\(s\) \[\], unexpected field\(s\) \['colour'\]"),
        ],
        ids=["missing", "unexpected"],
    )
    def test_damaged_event_names_file_index_kind_and_field(
        self, traced, tmp_path, damage, complaint
    ):
        payload = trace_to_dict(traced)
        at = next(
            i for i, d in enumerate(payload["events"]) if d["event"] == "vp_scheduled"
        )
        damage(payload["events"][at])
        path = tmp_path / "damaged.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(
            ValueError, match=rf"damaged\.json: event {at}: vp_scheduled event: {complaint}"
        ):
            load_trace(str(path))


class TestChromeTrace:
    def test_structure(self, traced):
        payload = chrome_trace(traced)
        events = payload["traceEvents"]
        names = {e["args"].get("name") for e in events if e["ph"] == "M"}
        assert "cluster" in names
        assert {"node 0", "node 1"} <= names
        slices = [e for e in events if e["ph"] == "X"]
        assert slices and all(e["dur"] >= 0 for e in slices)
        counters = [e for e in events if e["ph"] == "C"]
        assert counters, "cluster counter track missing"
        instants = [e for e in events if e["ph"] == "i"]
        assert instants, "wire transfers should appear as instants"
        # instants get their phase's commit timestamp
        ends = {
            e.phase: e.t_end * 1e6
            for e in traced
            if e.kind == "phase_commit"
        }
        for inst in instants:
            assert inst["ts"] == ends[inst["args"]["phase"]]

    def test_file_is_json_loadable(self, traced, tmp_path):
        path = tmp_path / "run.chrome.json"
        save_chrome_trace(traced, str(path))
        payload = json.loads(path.read_text())
        assert payload["traceEvents"]


class TestReportRendering:
    def test_format_report_contains_phases_and_totals(self, traced):
        report = RunReport.from_trace(traced)
        text = format_report(report)
        assert "== ppm run report ==" in text
        assert "bundled" in text
        for p in report.phases:
            assert f"\n{str(p.phase).rjust(5)}  " in text

    def test_report_to_dict_is_json_ready(self, traced):
        report = RunReport.from_trace(traced)
        payload = report_to_dict(report)
        json.dumps(payload)  # must not raise
        assert len(payload["phases"]) == len(report.phases)
        assert payload["totals"]["messages"] == report.total_messages
