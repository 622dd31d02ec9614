"""Report container round-trips and pass semantics."""

import json
from dataclasses import asdict

import pytest

from bellgate.reports import SCHEMA_VERSION, CheckResult, VerificationReport


def _sample_report(duration=1.5):
    return VerificationReport(
        suite="qudit",
        params={"d_min": 2, "d_max": 4},
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


def test_json_equals_the_asdict_form():
    # ``to_dict`` writes each check's fields itself; the text is the one the
    # ``dataclasses.asdict`` form of every check gives
    report = _sample_report()
    report.checks.append(CheckResult("inf", float("inf"), 0.0, False))
    expected = {
        "schema": SCHEMA_VERSION, "suite": report.suite, "params": report.params,
        "passed": report.passed, "checks": [asdict(c) for c in report.checks],
        "warnings": report.warnings, "duration_s": report.duration_s,
    }
    assert report.to_json() == json.dumps(expected, indent=2)


def test_infinite_error_round_trips():
    # a check that finds no bound reports an infinite error
    report = VerificationReport(
        suite="qudit", params={}, checks=[CheckResult("x", float("inf"), 1e-11, False)]
    )
    assert VerificationReport.from_json(report.to_json()) == report


_DROP = object()


def _edit(path, value=_DROP):
    """A payload edit that sets the field at ``path`` (keys and list indices)
    to ``value``, or drops it."""
    def edit(payload):
        *parents, last = path
        for key in parents:
            payload = payload[key]
        if value is _DROP:
            del payload[last]
        else:
            payload[last] = value
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_edit(("checks", 0, "passed"), "no"), "check 0 field 'passed' has the wrong type: 'no'"),
        (_edit(("checks", 1, "error"), "zz"), "check 1 field 'error' has the wrong type: 'zz'"),
        (_edit(("checks", 0, "tolerance"), True),
         "check 0 field 'tolerance' has the wrong type: True"),
        (_edit(("checks", 0, "name"), 7), "check 0 field 'name' has the wrong type: 7"),
        (_edit(("checks", 0, "unit"), "s"), "check 0 has unknown field\\(s\\) 'unit'"),
        (_edit(("checks", 1, "tolerance")), "check 1 field 'tolerance' is missing"),
        (_edit(("checks", 0), ["x", 0.0, 1.0, True]), "check 0 must be an object"),
        (_edit(("suite",)), "report field 'suite' is missing"),
        (_edit(("checks",)), "report field 'checks' is missing"),
        (_edit(("params",), []), "report field 'params' has the wrong type: \\[\\]"),
        (_edit(("warnings", 0), 3), "report field 'warnings' must hold strings only"),
        (_edit(("duration_s",), "1.5"), "report field 'duration_s' has the wrong type: '1.5'"),
        (_edit(("extra",), 1), "report has unknown field\\(s\\) 'extra'"),
        (_edit(("passed",), False), "report field 'passed' is False, not True"),
        (_edit(("checks", 0, "passed"), False), "report field 'passed' is True, not False"),
    ],
)
def test_untrusted_payload_refused(edit, message):
    payload = json.loads(_sample_report().to_json())
    edit(payload)
    with pytest.raises(ValueError, match=f"^{message}"):
        VerificationReport.from_dict(payload)


def test_non_object_payload_refused():
    with pytest.raises(ValueError, match="a report must be an object"):
        VerificationReport.from_json("[]")
