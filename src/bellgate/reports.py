"""Verification report containers with lossless JSON round-tripping.

Reports are deterministic for fixed inputs: the wall-clock duration is
carried for information but excluded from equality comparisons, and no
timestamps enter the checked payload. Serialized floats use Python's repr,
which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

SCHEMA_VERSION = 1


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
            "checks": [asdict(c) for c in self.checks],
            "warnings": list(self.warnings),
            "duration_s": self.duration_s,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "VerificationReport":
        if payload.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"unsupported report schema: {payload.get('schema')!r}")
        return cls(
            suite=payload["suite"],
            params=payload["params"],
            checks=[CheckResult(**c) for c in payload["checks"]],
            warnings=list(payload.get("warnings", [])),
            duration_s=payload.get("duration_s", 0.0),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        return cls.from_dict(json.loads(text))
