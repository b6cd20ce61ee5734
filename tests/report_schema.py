"""The JSON report schema check that the command line tests share."""

from __future__ import annotations

from latgauge.claims import SCHEMA_VERSION


def validate_report(report: dict) -> None:
    """Raise ValueError unless report has the versioned schema of latgauge.cli's reports."""
    if report.get("schema_version") != SCHEMA_VERSION:
        raise ValueError("unknown schema version")
    for key in ("command", "config", "checks", "passed"):
        if key not in report:
            raise ValueError(f"missing report key {key!r}")
    if not isinstance(report["checks"], list):
        raise ValueError("checks must be a list")
    for chk in report["checks"]:
        if "name" not in chk or chk.get("status") not in ("passed", "failed", "skipped"):
            raise ValueError("each check needs a name and a status of passed, failed or skipped")
        if chk.get("passed") is not (chk["status"] == "passed"):
            raise ValueError(f"check {chk['name']!r}: passed must be true exactly when the status is passed")
    if report["passed"] is not all(c["status"] != "failed" for c in report["checks"]):
        raise ValueError("a report passes exactly when no check failed")
