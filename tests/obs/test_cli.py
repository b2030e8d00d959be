"""CLI tests for ``python -m repro.obs``: golden-file report output,
chrome conversion, demo run, and usage errors."""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.__main__ import main

GOLDEN = Path(__file__).parent / "golden"


class TestReportCommand:
    def test_report_matches_golden(self, capsys):
        rc = main(["report", str(GOLDEN / "sample.trace.json")])
        assert rc == 0
        out = capsys.readouterr().out
        expected = (GOLDEN / "sample.report.txt").read_text()
        assert out == expected

    def test_report_json(self, capsys):
        rc = main(["report", str(GOLDEN / "sample.trace.json"), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["totals"]["messages"] == 3
        assert payload["phases"][0]["bundling_ratio"] == 40.0

    def test_unreadable_trace_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        rc = main(["report", str(missing)])
        assert rc == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_damaged_event_exits_2_without_a_traceback(self, tmp_path, capsys):
        payload = json.loads((GOLDEN / "sample.trace.json").read_text())
        at = next(
            i for i, d in enumerate(payload["events"]) if d["event"] == "vp_scheduled"
        )
        del payload["events"][at]["cost"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        rc = main(["report", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"event {at}: vp_scheduled event: missing field(s) ['cost']" in err


class TestChromeCommand:
    def test_chrome_conversion(self, tmp_path, capsys):
        out_path = tmp_path / "out.chrome.json"
        rc = main(["chrome", str(GOLDEN / "sample.trace.json"), "-o", str(out_path)])
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert payload["traceEvents"]


class TestDemoCommand:
    def test_demo_writes_trace_and_chrome(self, tmp_path, capsys):
        trace_path = tmp_path / "cg.trace.json"
        chrome_path = tmp_path / "cg.chrome.json"
        rc = main(
            [
                "demo",
                "--nodes", "2",
                "--nx", "4",
                "--iters", "2",
                "--out", str(trace_path),
                "--chrome", str(chrome_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "== ppm run report ==" in out
        saved = json.loads(trace_path.read_text())
        assert saved["schema"] == "ppm-trace"
        assert json.loads(chrome_path.read_text())["traceEvents"]
        # the saved trace feeds straight back into the report command
        assert main(["report", str(trace_path)]) == 0


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2
