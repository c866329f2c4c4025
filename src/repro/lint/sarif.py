"""SARIF 2.1.0 reporter — the GitHub code-scanning interchange format.

One ``run`` with the full rule catalogue in ``tool.driver.rules`` and
one ``result`` per violation; ``ruleIndex`` links results back to their
rule so the code-scanning UI shows the catalogue description alongside
each finding.  Only fields the 2.1.0 schema marks required (plus the
handful GitHub's ingestion wants) are emitted, keeping the document
small and schema-valid.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.lint.baseline import normalize_path
from repro.lint.rules import all_rules

__all__ = ["render_sarif", "SARIF_VERSION", "SARIF_SCHEMA_URI"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_TOOL_NAME = "repro-lint"
_TOOL_VERSION = "1.0.0"  # tracks the repro package version in pyproject.toml
_INFO_URI = "https://example.invalid/repro/docs/static_analysis.md"


def _rule_anchor(rule) -> str:
    """GitHub heading anchor for the rule's catalogue entry.

    ``docs/static_analysis.md`` titles every rule ``### R202 —
    `lock-order-inversion```; GitHub slugs that to ``r202--lock-order-inversion``
    (lowercase, punctuation dropped, spaces to dashes).
    """
    return f"{rule.rule_id.lower()}--{rule.name}"


def _rule_descriptor(rule) -> dict:
    return {
        "id": rule.rule_id,
        "name": rule.name,
        "shortDescription": {"text": rule.name.replace("-", " ")},
        "fullDescription": {"text": rule.description},
        "defaultConfiguration": {"level": "error"},
        "helpUri": f"{_INFO_URI}#{_rule_anchor(rule)}",
    }


def render_sarif(violations: Sequence, files_checked: int) -> str:
    """The SARIF 2.1.0 document for one lint run, as a JSON string."""
    rules = all_rules()
    rule_index: Dict[str, int] = {rule.rule_id: i for i, rule in enumerate(rules)}
    results: List[dict] = []
    for violation in sorted(
        violations, key=lambda v: (v.path, v.line, v.col, v.rule_id)
    ):
        result = {
            "ruleId": violation.rule_id,
            "level": "error",
            "message": {"text": violation.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": normalize_path(violation.path),
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": max(violation.line, 1),
                            # SARIF columns are 1-based; ast's are 0-based.
                            "startColumn": violation.col + 1,
                        },
                    }
                }
            ],
        }
        if violation.rule_id in rule_index:
            result["ruleIndex"] = rule_index[violation.rule_id]
        results.append(result)
    document = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": _TOOL_NAME,
                        "version": _TOOL_VERSION,
                        "informationUri": _INFO_URI,
                        "rules": [_rule_descriptor(rule) for rule in rules],
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)
