"""Tests for SARIF 2.1.0 export and baseline suppression."""

from __future__ import annotations

import json

import pytest

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.sarif import (
    BASELINE_VERSION,
    SARIF_VERSION,
    apply_baseline,
    fingerprint,
    fingerprint_v1,
    load_baseline,
    to_sarif,
    write_baseline,
    write_sarif,
)


def diag(rule="PPM401", severity="error", path="app.py", line=12, **kw):
    kw.setdefault("expr", "X[ctx.global_rank]")
    kw.setdefault("kernel", "kernel")
    return Diagnostic(
        tool="dataflow",
        rule=rule,
        severity=severity,
        message=f"{rule} finding",
        path=path,
        line=line,
        phase_index=0,
        phase_kind="global",
        variable="X",
        **kw,
    )


class TestSarifDocument:
    def test_structure_and_rule_metadata(self):
        doc = to_sarif([diag(), diag(rule="PPM404", severity="note")])
        assert doc["version"] == SARIF_VERSION == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        [run] = doc["runs"]
        rules = {r["id"]: r for r in run["tool"]["driver"]["rules"]}
        assert set(rules) == {"PPM401", "PPM404"}
        assert rules["PPM401"]["helpUri"].endswith(
            "docs/DIAGNOSTICS.md#ppm401"
        )
        results = run["results"]
        assert len(results) == 2
        assert results[0]["ruleId"] == "PPM401"
        assert results[0]["level"] == "error"
        loc = results[0]["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "app.py"
        assert loc["region"]["startLine"] == 12
        prints = results[0]["partialFingerprints"]
        assert prints["ppmFingerprint/v1"] == fingerprint_v1(diag())
        assert prints["ppmFingerprint/v2"] == fingerprint(diag())

    def test_write_sarif_round_trips_as_json(self, tmp_path):
        out = tmp_path / "out.sarif"
        write_sarif([diag()], str(out))
        doc = json.loads(out.read_text())
        assert doc["runs"][0]["results"][0]["ruleId"] == "PPM401"

    def test_suppressed_results_are_marked(self):
        d = diag()
        doc = to_sarif([d], suppressed={fingerprint(d)})
        [res] = doc["runs"][0]["results"]
        assert res["suppressions"][0]["kind"] == "external"

    def test_v1_fingerprint_also_suppresses(self):
        d = diag()
        doc = to_sarif([d], suppressed={fingerprint_v1(d)})
        [res] = doc["runs"][0]["results"]
        assert res["suppressions"][0]["kind"] == "external"


class TestFingerprints:
    def test_v1_fingerprint_is_rule_path_line(self):
        assert fingerprint_v1(diag()) == "PPM401:app.py:12"

    def test_content_fingerprint_ignores_position(self):
        """The v2 fingerprint survives edits that shift lines or move
        the kernel to another file."""
        a = diag(line=12, path="app.py")
        b = diag(line=250, path="moved/app.py")
        assert fingerprint(a) == fingerprint(b)
        assert fingerprint_v1(a) != fingerprint_v1(b)

    def test_content_fingerprint_keys_on_rule_kernel_phase_expr(self):
        base = diag()
        assert fingerprint(diag(rule="PPM406")) != fingerprint(base)
        assert fingerprint(diag(kernel="other")) != fingerprint(base)
        assert fingerprint(diag(expr="X[r + 1]")) != fingerprint(base)

    def test_expression_is_whitespace_normalized(self):
        a = diag(expr="X[ i +  1 ]")
        b = diag(expr="X[ i + 1 ]")
        assert fingerprint(a) == fingerprint(b)

    def test_falls_back_to_message_without_expr(self):
        d = diag(expr=None)
        assert "PPM401 finding" in fingerprint(d)


class TestBaseline:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        findings = [diag(), diag(rule="PPM402", severity="warning", line=30)]
        write_baseline(findings, str(path))
        assert load_baseline(str(path)) == {
            fingerprint(d) for d in findings
        }

    def test_written_baseline_is_versioned(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline([diag()], str(path))
        doc = json.loads(path.read_text())
        assert doc["version"] == BASELINE_VERSION == 2
        assert doc["suppressions"] == [fingerprint(diag())]

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "nope.json")) == set()

    def test_apply_baseline_splits(self):
        old = diag()
        new = diag(rule="PPM403", line=40)
        active, suppressed = apply_baseline(
            [old, new], {fingerprint(old)}
        )
        assert active == [new]
        assert suppressed == [old]

    def test_legacy_v1_baseline_still_suppresses(self, tmp_path):
        """A version-1 file (rule:path:line strings, no version key)
        keeps suppressing via the legacy fingerprint."""
        d = diag()
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"suppressions": [fingerprint_v1(d)]}))
        active, suppressed = apply_baseline([d], load_baseline(str(path)))
        assert active == []
        assert suppressed == [d]

    def test_v1_to_v2_migration(self, tmp_path):
        """Loading a v1 baseline and rewriting it produces a v2 file
        whose content fingerprints survive a line shift."""
        d = diag()
        old = tmp_path / "old.json"
        old.write_text(json.dumps([fingerprint_v1(d)]))
        _, suppressed = apply_baseline([d], load_baseline(str(old)))
        write_baseline(suppressed, str(old))
        doc = json.loads(old.read_text())
        assert doc["version"] == 2
        moved = diag(line=99)
        active, quiet = apply_baseline([moved], load_baseline(str(old)))
        assert active == [] and quiet == [moved]


# ----------------------------------------------------------------------
# SARIF 2.1.0 schema validation
# ----------------------------------------------------------------------
# Faithful subset of the OASIS sarif-schema-2.1.0.json covering every
# property this exporter emits.  ``additionalProperties: false`` on the
# objects we produce keeps the exporter honest: an unknown key fails
# validation here exactly as it would against the full schema.
SARIF_SUBSET_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "$schema": {"type": "string", "format": "uri"},
        "version": {"enum": ["2.1.0"]},
        "runs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["tool"],
                "additionalProperties": False,
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "additionalProperties": False,
                                "properties": {
                                    "name": {"type": "string"},
                                    "informationUri": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "additionalProperties": False,
                                            "properties": {
                                                "id": {"type": "string"},
                                                "name": {"type": "string"},
                                                "shortDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                    "properties": {
                                                        "text": {
                                                            "type": "string"
                                                        }
                                                    },
                                                },
                                                "helpUri": {
                                                    "type": "string"
                                                },
                                            },
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "additionalProperties": False,
                            "properties": {
                                "ruleId": {"type": "string"},
                                "level": {
                                    "enum": [
                                        "none",
                                        "note",
                                        "warning",
                                        "error",
                                    ]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                    "properties": {
                                        "text": {"type": "string"}
                                    },
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "properties": {
                                                            "uri": {
                                                                "type": (
                                                                    "string"
                                                                )
                                                            }
                                                        },
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": (
                                                                    "integer"
                                                                ),
                                                                "minimum": 1,
                                                            }
                                                        },
                                                    },
                                                },
                                            }
                                        },
                                    },
                                },
                                "partialFingerprints": {
                                    "type": "object",
                                    "additionalProperties": {
                                        "type": "string"
                                    },
                                },
                                "properties": {"type": "object"},
                                "suppressions": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "required": ["kind"],
                                        "properties": {
                                            "kind": {
                                                "enum": [
                                                    "inSource",
                                                    "external",
                                                ]
                                            },
                                            "justification": {
                                                "type": "string"
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


class TestSarifSchema:
    @pytest.fixture(autouse=True)
    def _validator(self):
        jsonschema = pytest.importorskip("jsonschema")
        self.validate = lambda doc: jsonschema.validate(
            doc, SARIF_SUBSET_SCHEMA
        )

    def test_empty_run_validates(self):
        self.validate(to_sarif([]))

    def test_all_bounds_and_liveness_rules_validate(self):
        findings = [
            diag(rule="PPM406", expr="X[ctx.global_rank + n]"),
            diag(rule="PPM407", severity="warning", expr="X[hi]"),
            diag(rule="PPM408", expr="X[i] = Y[i]"),
            diag(rule="PPM409", severity="warning", expr="X[lo:hi]"),
        ]
        doc = to_sarif(findings)
        self.validate(doc)
        rules = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
        assert rules == {"PPM406", "PPM407", "PPM408", "PPM409"}

    def test_baseline_suppressed_results_validate(self):
        old, new = diag(), diag(rule="PPM406", line=40)
        doc = to_sarif([old, new], suppressed={fingerprint(old)})
        self.validate(doc)
        marked = [
            r
            for r in doc["runs"][0]["results"]
            if "suppressions" in r
        ]
        assert len(marked) == 1

    def test_diag_without_location_validates(self):
        self.validate(to_sarif([diag(path=None, line=None)]))

    def test_invalid_document_rejected(self):
        """The subset schema has teeth: a malformed level fails."""
        jsonschema = pytest.importorskip("jsonschema")
        doc = to_sarif([diag()])
        doc["runs"][0]["results"][0]["level"] = "fatal"
        with pytest.raises(jsonschema.ValidationError):
            self.validate(doc)
