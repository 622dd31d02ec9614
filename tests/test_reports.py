"""Report container round-trips and pass semantics."""

import json

import pytest

from bellgate.reports import CheckResult, VerificationReport


def _sample_report(duration=1.5):
    return VerificationReport(
        suite="qudit",
        params={"d_min": 2, "d_max": 4, "tol": None},
        checks=[
            CheckResult("d=2:bell_map", 1.2e-15, 1e-11, True),
            CheckResult("d=3:bell_map", 3.4e-15, 1e-11, True),
        ],
        warnings=["example warning"],
        duration_s=duration,
    )


def test_passed_iff_every_check_passes():
    report = _sample_report()
    assert report.passed
    report.checks.append(CheckResult("d=4:bell_map", 1.0, 1e-11, False))
    assert not report.passed


def test_json_round_trip_lossless():
    report = _sample_report()
    restored = VerificationReport.from_json(report.to_json())
    assert restored == report
    assert restored.checks == report.checks
    assert restored.warnings == report.warnings
    assert restored.duration_s == report.duration_s
    assert restored.params == report.params


def test_duration_excluded_from_equality():
    assert _sample_report(duration=1.0) == _sample_report(duration=99.0)


def test_float_payload_round_trips_exactly():
    error = 0.1 + 0.2  # not representable prettily; repr must round-trip
    report = VerificationReport(
        suite="cv", params={}, checks=[CheckResult("x", error, 1e-3, True)]
    )
    restored = VerificationReport.from_json(report.to_json())
    assert restored.checks[0].error == error


def test_schema_guard():
    with pytest.raises(ValueError, match="schema"):
        VerificationReport.from_dict({"schema": 99, "suite": "x", "params": {}, "checks": []})


def test_key_order():
    payload = json.loads(_sample_report().to_json())
    assert list(payload) == [
        "schema", "suite", "params", "passed", "checks", "warnings", "duration_s",
    ]
    assert [list(check) for check in payload["checks"]] == [
        ["name", "error", "tolerance", "passed"]
    ] * 2
