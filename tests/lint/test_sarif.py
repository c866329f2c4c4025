"""SARIF 2.1.0 reporter: structure, ordering, and schema validation.

The full OASIS schema is ~120 KB; validating against it would mean
vendoring it wholesale, so a trimmed schema below captures the
structural requirements GitHub code scanning actually enforces
(version/runs shape, driver name, result message/location layout).
"""

from __future__ import annotations

import json

import pytest

jsonschema = pytest.importorskip("jsonschema")

from repro.lint.engine import Violation
from repro.lint.rules import all_rules
from repro.lint.sarif import SARIF_SCHEMA_URI, SARIF_VERSION, render_sarif

TRIMMED_SARIF_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "$schema": {"type": "string"},
        "version": {"const": "2.1.0"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "version": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                                "shortDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                },
                                                "fullDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
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
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {"type": "integer", "minimum": 0},
                                "level": {
                                    "enum": ["none", "note", "warning", "error"]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                    "properties": {"text": {"type": "string"}},
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
                                                            "uri": {"type": "string"}
                                                        },
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            }
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


def sample_violations():
    return [
        Violation(
            path="src/repro/core/exact.py",
            line=12,
            col=4,
            rule_id="R001",
            message="wall clock",
        ),
        Violation(
            path="src/repro/core/approx.py",
            line=3,
            col=0,
            rule_id="R103",
            message="nested loops",
        ),
    ]


def test_document_validates_against_trimmed_schema():
    document = json.loads(render_sarif(sample_violations(), files_checked=2))
    jsonschema.validate(document, TRIMMED_SARIF_SCHEMA)


def test_version_and_schema_constants():
    assert SARIF_VERSION == "2.1.0"
    document = json.loads(render_sarif([], files_checked=0))
    assert document["$schema"] == SARIF_SCHEMA_URI
    assert document["version"] == SARIF_VERSION


def test_rule_catalogue_covers_registry_and_rule_index_links():
    document = json.loads(render_sarif(sample_violations(), files_checked=2))
    run = document["runs"][0]
    rules = run["tool"]["driver"]["rules"]
    assert [rule["id"] for rule in rules] == [r.rule_id for r in all_rules()]
    for result in run["results"]:
        assert rules[result["ruleIndex"]]["id"] == result["ruleId"]


def test_results_sorted_and_columns_one_based():
    document = json.loads(render_sarif(sample_violations(), files_checked=2))
    results = document["runs"][0]["results"]
    uris = [
        r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
        for r in results
    ]
    assert uris == sorted(uris)
    region = results[0]["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 3 and region["startColumn"] == 1


def test_empty_run_has_empty_results():
    document = json.loads(render_sarif([], files_checked=5))
    assert document["runs"][0]["results"] == []


def test_per_rule_help_uris_anchor_into_the_catalogue_doc():
    document = json.loads(render_sarif([], files_checked=0))
    rules = document["runs"][0]["tool"]["driver"]["rules"]
    by_id = {rule["id"]: rule for rule in rules}
    registry = {r.rule_id: r for r in all_rules()}
    for rule_id, descriptor in by_id.items():
        # Each rule links to its own heading, not the generic doc root.
        anchor = f"#{rule_id.lower()}--{registry[rule_id].name}"
        assert descriptor["helpUri"].endswith(f"static_analysis.md{anchor}")
        assert descriptor["shortDescription"]["text"]
    # The newest family carries per-rule anchors like everything else.
    assert by_id["R205"]["helpUri"].endswith(f"#r205--{registry['R205'].name}")
