"""Verification report containers with lossless JSON round-tripping.

Reports are deterministic for fixed inputs: the wall-clock duration is
carried for information but excluded from equality comparisons, and no
timestamps enter the checked payload. Serialized floats use Python's repr,
which round-trips IEEE doubles exactly.

Reading a report trusts nothing: a missing, unknown or mistyped field, and a
top-level ``passed`` that disagrees with the checks, are refused with a
ValueError naming the field. Infinite errors are legal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

SCHEMA_VERSION = 1

# the type of each field of a report and of a check; a bool is no number
_REPORT_FIELDS = {"schema": int, "suite": str, "params": dict, "passed": bool,
                  "checks": list, "warnings": list, "duration_s": (int, float)}
_CHECK_FIELDS = {"name": str, "error": (int, float), "tolerance": (int, float), "passed": bool}


@dataclass(frozen=True)
class CheckResult:
    """One named check: the measured error, the tolerance it was held to,
    and whether it passed (callers may use a non-"error <= tolerance" rule,
    e.g. for ablations that must exceed a floor)."""

    name: str
    error: float
    tolerance: float
    passed: bool


@dataclass
class VerificationReport:
    suite: str
    params: dict
    checks: list[CheckResult]
    warnings: list[str] = field(default_factory=list)
    duration_s: float = field(default=0.0, compare=False)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "params": self.params,
            "passed": self.passed,
            # each check's fields as they are: ``dataclasses.asdict`` would
            # deep-copy every one
            "checks": [{"name": c.name, "error": c.error, "tolerance": c.tolerance,
                        "passed": c.passed} for c in self.checks],
            "warnings": list(self.warnings),
            "duration_s": self.duration_s,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "VerificationReport":
        if not isinstance(payload, dict):
            raise ValueError(f"a report must be an object, got {payload!r}")
        if payload.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"unsupported report schema: {payload.get('schema')!r}")
        require_fields(payload, _REPORT_FIELDS, "report", ("passed", "warnings", "duration_s"))
        for i, check in enumerate(payload["checks"]):
            require_fields(check, _CHECK_FIELDS, f"check {i}")
        if not all(isinstance(text, str) for text in payload.get("warnings", [])):
            raise ValueError("report field 'warnings' must hold strings only")
        report = cls(
            suite=payload["suite"],
            params=payload["params"],
            checks=[CheckResult(**c) for c in payload["checks"]],
            warnings=list(payload.get("warnings", [])),
            duration_s=payload.get("duration_s", 0.0),
        )
        if payload.get("passed", report.passed) != report.passed:
            raise ValueError(f"report field 'passed' is {payload['passed']}, not {report.passed}")
        return report

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        return cls.from_dict(json.loads(text))


def require_fields(payload, kinds: dict, where: str, optional=()) -> None:
    """Refuse ``payload`` unless it is an object whose fields are all in
    ``kinds``, each present (or in ``optional``) and of its type there."""
    if not isinstance(payload, dict):
        raise ValueError(f"{where} must be an object, got {payload!r}")
    unknown = [key for key in payload if key not in kinds]
    if unknown:
        raise ValueError(f"{where} has unknown field(s) {', '.join(map(repr, unknown))}")
    for key, kind in kinds.items():
        if key not in payload:
            if key in optional:
                continue
            raise ValueError(f"{where} field {key!r} is missing")
        value = payload[key]
        if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
            raise ValueError(f"{where} field {key!r} has the wrong type: {value!r}")
