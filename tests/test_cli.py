"""End-to-end tests of the command-line front end."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from support import refused_peak, traced_peak

from bellgate import cli, fock, qudit
from bellgate.reports import VerificationReport

REPO = Path(__file__).resolve().parents[1]


def src_env() -> dict[str, str]:
    """This process's environment with the checkout's ``src/`` first on the path."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    )}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQuditVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, err = run_cli(capsys, "qudit", "verify", "--d", "2..4")
        assert code == 0
        report = VerificationReport.from_json(out)
        assert report.passed
        assert report.params["d_min"] == 2 and report.params["d_max"] == 4

    def test_cnot_check_present_at_d2(self, capsys):
        code, out, _ = run_cli(capsys, "qudit", "verify", "--d", "2")
        report = VerificationReport.from_json(out)
        cnot_rows = [c for c in report.checks if c.name == "V==CNOT"]
        assert len(cnot_rows) == 1 and cnot_rows[0].passed

    def test_failing_row_fails_with_nonzero_exit(self, capsys, monkeypatch):
        # an infinite error fails its row at any tolerance
        monkeypatch.setattr(qudit, "bell_map_max_error", lambda gs: np.inf)
        code, out, _ = run_cli(capsys, "qudit", "verify", "--d", "3")
        assert code == 1
        report = VerificationReport.from_json(out)
        assert not report.passed
        assert [c.name for c in report.checks if not c.passed] == ["d=3:bell_map"]

    def test_d_below_two_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["qudit", "verify", "--d", "1"])
        assert exc.value.code == 2

    def test_malformed_range_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["qudit", "verify", "--d", "two..four"])
        assert exc.value.code == 2

    def test_reversed_range_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["qudit", "verify", "--d", "5..3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("d_min,d_max", [(1, 3), (5, 3), (2.5, 3), ("2", 3)])
    def test_library_rejects_bad_range(self, d_min, d_max):
        with pytest.raises(ValueError, match=f"dimension range {d_min!r}..3"):
            cli.run_qudit_verify(d_min, d_max)

    def test_numpy_integer_range_accepted(self):
        # the bounds are kept as Python ints, so the report can be written
        report = cli.run_qudit_verify(np.int64(2), np.int64(3))
        assert report.params == {"d_min": 2, "d_max": 3}
        assert all(type(bound) is int for bound in report.params.values())
        assert VerificationReport.from_json(report.to_json()) == report

    def test_oversized_dimension_refused_before_any_check(self, capsys):
        # seven d x d complex arrays at d = 10^4 would take 11.2 GB
        needs = "d = 10000 needs 11200000000 bytes"
        assert refused_peak(lambda: cli.run_qudit_verify(2, 10_000), needs) < 2**20
        with pytest.raises(SystemExit) as exc:
            cli.main(["qudit", "verify", "--d", "2..10000"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "d = 10000 needs 11200000000 bytes" in err
        assert "[pass]" not in err and "[FAIL]" not in err

    @pytest.mark.parametrize("d", [128, 256])
    def test_peak_within_the_guarded_bytes(self, monkeypatch, d):
        requested = []
        monkeypatch.setattr(qudit, "require_memory", lambda label, nbytes: requested.append(nbytes))
        peak = traced_peak(lambda: cli.run_qudit_verify(d, d))
        assert peak <= max(requested) + 2**20

    def test_report_written_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "qudit", "verify", "--d", "2..3", "--out", str(out_path)
        )
        assert code == 0
        assert VerificationReport.from_json(out_path.read_text()) == \
            VerificationReport.from_json(out)

    def test_checks_and_tolerances_are_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "qudit", "verify", "--d", "2..3")
        assert code == 0
        # the report's shape: no check may be renamed, reordered or loosened
        assert [(c.name, c.tolerance) for c in VerificationReport.from_json(out).checks] == [
            ("d=2:bell_map", 1e-11),
            ("d=2:construction_equivalence", 1e-12),
            ("d=2:bell_gram", 1e-12),
            ("V==CNOT", 1e-14),
            ("d=3:bell_map", 1e-11),
            ("d=3:construction_equivalence", 1e-12),
            ("d=3:bell_gram", 1e-12),
        ]

    def test_deterministic_reports(self):
        first = cli.run_qudit_verify(2, 4)
        second = cli.run_qudit_verify(2, 4)
        assert first == second  # durations differ; equality ignores them

    def test_large_dimension_without_dense_arrays(self):
        # dense V alone would be 85 MB at d = 48
        reports = []
        assert traced_peak(lambda: reports.append(cli.run_qudit_verify(48, 48))) < 5 * 2**20
        assert reports[0].passed

    def test_each_traced_layer_called_once_per_dimension(self, monkeypatch):
        # the benchmark's qudit spans wrap these names; bell_vector is counted
        calls = {}
        for name in ("make_gateset", "bell_map_max_error", "v_from_bell_basis",
                     "orthonormality_max_error", "bell_vector"):
            calls[name] = 0

            def counting(*args, _name=name, _original=getattr(qudit, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(qudit, name, counting)
        cli.run_qudit_verify(2, 4)
        assert calls == {"make_gateset": 3, "bell_map_max_error": 3, "v_from_bell_basis": 3,
                         "orthonormality_max_error": 3, "bell_vector": 0}

    def test_full_default_range_passes(self, capsys):
        code, out, _ = run_cli(capsys, "qudit", "verify", "--d", "2..16")
        assert code == 0
        assert VerificationReport.from_json(out).passed


def bad_payloads() -> dict:
    """Payloads that ``gateset_from_payload`` refuses as a whole, each with
    the start of its refusal."""
    payload = cli.synth_payload(qudit.make_gateset(3))

    def without(key):
        return {k: v for k, v in payload.items() if k != key}

    # the schema-1 layout: a dense V among the matrices, and the Bell vectors
    schema_1 = {"schema": 1, "d": 3, "matrices": {**payload["matrices"], "V": []},
                "bell_vectors": []}
    return {
        "schema_1": (schema_1, "payload field 'schema' is 1: only schema 2 is read"),
        "schema_99": ({**payload, "schema": 99}, "payload field 'schema' is 99"),
        "schema_float": ({**payload, "schema": 2.0}, "payload field 'schema' has the wrong"),
        "schema_missing": (without("schema"), "payload field 'schema' is missing"),
        "empty": ({}, "payload field 'schema' is missing"),
        "list": ([], "payload must be an object, got []"),
        "unknown_field": ({**payload, "extra": 0}, "payload has unknown field(s) 'extra'"),
        "no_matrices": (without("matrices"), "payload field 'matrices' is missing"),
        "no_v_perm": (without("v_perm"), "payload field 'v_perm' is missing"),
        "matrices_list": ({**payload, "matrices": []}, "payload field 'matrices' has the wrong"),
        "unknown_matrix": ({**payload, "matrices": {**payload["matrices"], "V": []}},
                           "payload matrices has unknown field(s) 'V'"),
    }


BAD_PAYLOADS = bad_payloads()


class TestQuditSynth:
    def test_json_contains_cnot(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "qudit", "synth", "--d", "2")
        assert code == 0
        written = json.loads(out)["written"]
        payload = json.loads((tmp_path / written[0]).read_text())
        # exactly the schema-2 fields: V is its permutation, CNOT swapping |10>, |11>
        assert list(payload) == ["schema", "d", "matrices", "v_perm"]
        assert list(payload["matrices"]) == ["Z", "W", "F"]
        assert (payload["schema"], payload["d"], payload["v_perm"]) == (2, 2, [0, 1, 3, 2])

    @pytest.mark.parametrize("d", range(2, 17))
    def test_round_trip_reload_verifies(self, capsys, tmp_path, d):
        out_path = tmp_path / "gates.json"
        run_cli(capsys, "qudit", "synth", "--d", str(d), "--out", str(out_path))
        loaded = cli.gateset_from_payload(json.loads(out_path.read_text()))
        built = qudit.make_gateset(d)
        for name in ("Z", "W", "F", "v_perm"):
            assert (getattr(loaded, name) == getattr(built, name)).all(), name

        def errors(gs):
            return (qudit.bell_map_max_error(gs),
                    np.abs(qudit.v_from_bell_basis(gs) - np.eye(d)).max(),
                    qudit.orthonormality_max_error(gs))

        assert errors(loaded) == errors(built)
        assert errors(loaded)[0] <= cli.TOL_BELL_MAP

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("d",), 3.7, "field 'd' has the wrong type: 3.7"),
            (("d",), "3", "field 'd' has the wrong type: '3'"),
            (("d",), True, "field 'd' has the wrong type: True"),
            (("d",), 1, "field 'd' must be at least 2, got 1"),
            (("matrices", "F"), [[[0.5, 0.0]]] * 3, "F is not a 3 x 3 matrix"),
            (("matrices", "Z"), [[[1.0, 0.0]] * 4] * 4, "Z is not a 3 x 3 matrix"),
            (("matrices", "W", 2), [[0.0, 0.0]], "W is not a 3 x 3 matrix"),
            (("matrices", "W", 1, 0), [1.0], "W is not a 3 x 3 matrix"),
            (("v_perm",), list(range(8)), "field 'v_perm' has 8 entries, not d^2 = 9"),
            (("v_perm", 0), 1, "field 'v_perm' is not a permutation of range(9)"),
            (("v_perm", 8), 9, "field 'v_perm' is not a permutation of range(9)"),
            (("v_perm", 0), -1, "field 'v_perm' is not a permutation of range(9)"),
            (("v_perm", 0), 0.0, "field 'v_perm' is not a permutation of range(9)"),
            (("v_perm", 1), True, "field 'v_perm' is not a permutation of range(9)"),
            (("v_perm",), {}, "field 'v_perm' has the wrong type: {}"),
            (("matrices", "F", 1, 2), [float("nan"), 0.0], "F has a non-finite entry"),
            (("matrices", "Z", 0, 0), [float("inf"), 0.0], "Z has a non-finite entry"),
            (("matrices", "W", 1, 0), [1.0, float("nan")], "W has a non-finite entry"),
        ],
        ids=["d_fractional", "d_text", "d_bool", "d_below_two", "F_one_column", "Z_too_large",
             "W_ragged", "W_entry_without_imaginary_part", "v_perm_short", "v_perm_duplicate",
             "v_perm_out_of_range", "v_perm_negative", "v_perm_float", "v_perm_bool",
             "v_perm_object", "F_nan", "Z_infinite", "W_nan_imaginary"],
    )
    def test_bad_payload_refused_naming_the_field(self, path, value, message):
        # unrefused, d = 3.7 would load as d = 3, an F of shape (3, 1) would
        # broadcast to a bell_map error of 1.41, and a True in v_perm would
        # pass for the index 1; a NaN in F, which json reads, scored a Bell-map
        # error of 0.0
        payload = cli.synth_payload(qudit.make_gateset(3))
        *parents, last = path
        target = payload
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(ValueError, match=f"^{re.escape('payload ' + message)}$"):
            cli.gateset_from_payload(payload)

    @pytest.mark.parametrize("case", BAD_PAYLOADS)
    def test_bad_payload_refused_as_a_whole(self, case):
        payload, message = BAD_PAYLOADS[case]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            cli.gateset_from_payload(payload)

    def test_short_v_perm_refused_before_allocating(self):
        # a v_perm of d^2 = 10^12 entries is never built to find it short
        payload = {**cli.synth_payload(qudit.make_gateset(3)), "d": 10**6}
        needs = r"'v_perm' has 9 entries, not d\^2 = 1000000000000"
        assert refused_peak(lambda: cli.gateset_from_payload(payload), needs) < 2**20

    @pytest.mark.parametrize(
        "edits",
        [
            [("Z", 1, 1, [5.0, 0.0]), ("W", 0, 0, [7.0, 0.0])],
            [("Z", 1, 1, [5.0, 0.0])],
            [("Z", 0, 1, [0.5, 0.0])],
            [("W", 0, 0, [7.0, 0.0])],
        ],
        ids=["clock_and_shift", "clock_phase", "clock_off_diagonal", "shift"],
    )
    def test_wrong_clock_or_shift_fails_bell_map(self, monkeypatch, edits):
        d = 3
        payload = cli.synth_payload(qudit.make_gateset(d))
        for name, row, col, value in edits:
            payload["matrices"][name][row][col] = value
        gs = cli.gateset_from_payload(payload)
        monkeypatch.setattr(qudit, "make_gateset", lambda _: gs)
        report = cli.run_qudit_verify(d, d)
        assert not next(c for c in report.checks if c.name == f"d={d}:bell_map").passed

    def test_oversized_export_refused_before_allocating(self, tmp_path):
        out_path = tmp_path / "big.json"
        needs = r"d = 1449 \(8398404 entries\) needs 1074995712"
        assert refused_peak(
            lambda: cli.run_qudit_synth(1449, "json", str(out_path)), needs
        ) < 2**20
        assert not out_path.exists()
        cli._require_synth_fits(1448)  # the largest export that fits

    def test_oversized_export_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["qudit", "synth", "--d", "1449", "--format", "csv",
                      "--out", str(tmp_path / "csv")])
        assert exc.value.code == 2
        assert "qudit synth at d = 1449 (8398404 entries) needs" in capsys.readouterr().err
        assert not (tmp_path / "csv").exists()

    def test_peak_within_the_guarded_bytes(self, monkeypatch, tmp_path):
        # the JSON export, the larger of the two
        requested = []
        monkeypatch.setattr(fock, "require_memory", lambda label, nbytes: requested.append(nbytes))
        peak = traced_peak(lambda: cli.run_qudit_synth(96, "json", str(tmp_path / "d96.json")))
        assert peak <= requested[0]

    def test_json_export_peak(self, tmp_path):
        # 50.9 MiB when the export held a dense V and d^2 Bell vectors
        peak = traced_peak(lambda: cli.run_qudit_synth(16, "json", str(tmp_path / "d16.json")))
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_export_builds_no_dense_v_or_bell_vector(self, monkeypatch, tmp_path, fmt):
        calls = {"dense_v": 0, "bell_vector": 0}
        for name in calls:
            def counting(*args, _name=name, _original=getattr(qudit, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(qudit, name, counting)
        cli.run_qudit_synth(4, fmt, str(tmp_path / "out"))
        assert calls == {"dense_v": 0, "bell_vector": 0}

    def test_csv_row_counts(self, capsys, tmp_path):
        d = 3
        outdir = tmp_path / "csv"
        run_cli(capsys, "qudit", "synth", "--d", str(d), "--format", "csv",
                "--out", str(outdir))
        assert sorted(p.name for p in outdir.iterdir()) == ["F.csv", "V.csv", "W.csv", "Z.csv"]
        z_rows = (outdir / "Z.csv").read_text().strip().splitlines()
        assert len(z_rows) - 1 == d * d  # header plus one row per entry
        v_rows = (outdir / "V.csv").read_text().strip().splitlines()
        # header plus one col,row pair per column of V
        assert v_rows[0] == "col,row" and len(v_rows) - 1 == d * d
        v_perm = qudit.make_gateset(d).v_perm
        assert v_rows[1:] == [f"{k},{v_perm[k]}" for k in range(d * d)]

    def test_small_d_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["qudit", "synth", "--d", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("d", ["3", 3.0, True, 1])
    def test_library_refuses_a_non_integer_d_before_writing(self, tmp_path, d):
        message = f"dimension must be an integer >= 2, got {d!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cli.run_qudit_synth(d, "json", str(tmp_path / "out.json"))
        assert list(tmp_path.iterdir()) == []

    def test_unknown_format_refused_before_writing(self, tmp_path):
        with pytest.raises(ValueError, match="^unknown synth format 'xml': expected 'json' or 'csv'$"):
            cli.run_qudit_synth(2, "xml", str(tmp_path / "out"))
        assert list(tmp_path.iterdir()) == []


class TestUnwritableOut:
    @pytest.mark.parametrize(
        "argv, make",
        [
            (["qudit", "synth", "--d", "3"], "dir"),
            (["qudit", "synth", "--d", "3", "--format", "csv"], "file"),
            (["qudit", "verify", "--d", "2..3"], "dir"),
            (["cv", "verify", "--cutoffs", "12"], "dir"),
        ],
        ids=["synth_json_to_dir", "synth_csv_to_file", "verify_to_dir", "cv_verify_to_dir"],
    )
    def test_usage_error_naming_the_path(self, capsys, tmp_path, argv, make):
        target = tmp_path / "taken"
        if make == "dir":
            target.mkdir()
        else:
            target.write_text("keep")
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(target)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        last = captured.err.strip().splitlines()[-1]
        assert last.startswith("bellgate: error: ") and str(target) in last
        assert "Traceback" not in captured.err and captured.out == ""
        # a verify command refuses the path before its first check
        assert "[pass]" not in captured.err and "[FAIL]" not in captured.err
        assert target.is_dir() if make == "dir" else target.read_text() == "keep"

    @pytest.mark.parametrize(
        "argv", [["qudit", "verify", "--d", "2..3"], ["cv", "verify", "--cutoffs", "12"]],
        ids=["qudit", "cv"],
    )
    def test_missing_directory_refused_before_any_check(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "report.json"
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(target)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert str(target) in err.strip().splitlines()[-1]
        assert "[pass]" not in err and "[FAIL]" not in err
        assert not target.parent.exists()


class TestCvVerify:
    def test_small_cutoffs_pass(self, capsys):
        code, out, _ = run_cli(capsys, "cv", "verify", "--cutoffs", "12,16")
        assert code == 0
        report = VerificationReport.from_json(out)
        assert report.passed
        names = [c.name for c in report.checks]
        assert "su11_pauli_identity" in names
        assert "symplectic_decomposition_vs_target" in names
        assert "sum_gate_convergence_monotone" in names
        # the s-sweep fidelity rows are present for each cutoff
        assert any(name.startswith("N=12:entbs_fidelity_s=") for name in names)
        assert any("negative" in w for w in report.warnings)

    def test_default_cutoffs_pass_at_strict_tolerances(self, capsys):
        code, out, _ = run_cli(capsys, "cv", "verify", "--cutoffs", "20,30,40")
        assert code == 0
        report = VerificationReport.from_json(out)
        assert report.passed
        symplectic_rows = [
            c for c in report.checks if c.name == "symplectic_decomposition_vs_target"
        ]
        assert len(symplectic_rows) == 1 and symplectic_rows[0].error <= 1e-12
        distances = [
            c.error for c in report.checks if c.name.endswith("sum_gate_block_distance")
        ]
        assert distances == sorted(distances, reverse=True)
        # the report's shape: no check may be renamed, reordered or loosened
        assert [(c.name, c.tolerance) for c in report.checks] == [
            ("su11_pauli_identity", 1e-14),
            ("symplectic_decomposition_vs_target", 1e-12),
            ("symplectic_ablation_drop_opa_exceeds_floor", 0.1),
            ("symplectic_ablation_swap_squeezers_exceeds_floor", 0.1),
            ("tau1_matches_mixing_angle", 1e-05),
            ("N=20:sum_gate_unitarity_block", 1e-06),
            ("N=20:sum_gate_block_distance", 1.0),
            ("N=20:entbs_origin_fidelity", 0.001),
            ("N=20:entbs_fidelity_s=0.6_at_(1,-0.5)", 1.0),
            ("N=20:entbs_fidelity_s=0.5_at_(1,-0.5)", 1.0),
            ("N=20:entbs_fidelity_s=0.4_at_(1,-0.5)", 1.0),
            ("N=20:entbs_sharpening_trend", 0.0),
            ("N=20:heterodyne_closed_form_lam0.5", 1.0),
            ("N=20:heterodyne_monotone_lam0.5_to_0.8", 0.0),
            ("N=20:heterodyne_z_independence", 1.0),
            ("N=30:sum_gate_unitarity_block", 1e-06),
            ("N=30:sum_gate_block_distance", 1.0),
            ("N=30:entbs_origin_fidelity", 0.001),
            ("N=30:entbs_fidelity_s=0.6_at_(1,-0.5)", 1.0),
            ("N=30:entbs_fidelity_s=0.5_at_(1,-0.5)", 1.0),
            ("N=30:entbs_fidelity_s=0.4_at_(1,-0.5)", 1.0),
            ("N=30:entbs_fidelity_s=0.3_at_(1,-0.5)", 1.0),
            ("N=30:entbs_sharpening_trend", 0.0),
            ("N=30:heterodyne_closed_form_lam0.5", 1.0),
            ("N=30:heterodyne_monotone_lam0.5_to_0.8", 0.0),
            ("N=30:heterodyne_z_independence", 1.0),
            ("N=40:sum_gate_unitarity_block", 1e-06),
            ("N=40:sum_gate_block_distance", 1e-11),
            ("N=40:entbs_origin_fidelity", 0.001),
            ("N=40:entbs_fidelity_s=0.6_at_(1,-0.5)", 1.0),
            ("N=40:entbs_fidelity_s=0.5_at_(1,-0.5)", 1.0),
            ("N=40:entbs_fidelity_s=0.4_at_(1,-0.5)", 1.0),
            ("N=40:entbs_fidelity_s=0.3_at_(1,-0.5)", 1.0),
            ("N=40:entbs_sharpening_trend", 0.0),
            ("N=40:heterodyne_closed_form_lam0.5", 1e-09),
            ("N=40:heterodyne_monotone_lam0.5_to_0.8", 0.0),
            ("N=40:heterodyne_z_independence", 1e-08),
            ("sum_gate_convergence_monotone", 0.0),
        ]

    def test_cold_report_equals_warm_report(self):
        # from an empty memo every table and eigenbasis is built inside the
        # run, one real eigenbasis per cutoff; report equality ignores
        # duration_s
        fock._SECTOR_TABLES.clear()
        cold = cli.run_cv_verify([20, 30, 40])
        bases = {key: entry for key, entry in fock._SECTOR_TABLES.items() if key[1] == "quadrature"}
        assert sorted(key[0] for key in bases) == [20, 30, 40]
        for (values, vectors), nbytes in bases.values():
            assert values.dtype == vectors.dtype == np.float64
            assert nbytes == values.nbytes + vectors.nbytes
        assert cli.run_cv_verify([20, 30, 40]) == cold

    def test_origin_row_may_round_below_zero(self):
        # 1 - F is reported as computed: at N = 80 the origin fidelity
        # rounds above 1, and the row passes with its negative error
        row = cli.entbs_rows(80)[0]
        assert row.name == "N=80:entbs_origin_fidelity"
        assert row.error == 1.0 - fock.entbs_fidelity(80, 0.0, 0.0, 0.5) < 0
        assert row.passed

    def test_single_cutoff_skips_convergence_row(self, capsys):
        code, out, _ = run_cli(capsys, "cv", "verify", "--cutoffs", "14")
        assert code == 0
        report = VerificationReport.from_json(out)
        assert all(c.name != "sum_gate_convergence_monotone" for c in report.checks)

    def test_empty_cutoffs_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cv", "verify", "--cutoffs", ""])
        assert exc.value.code == 2

    def test_tiny_cutoffs_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cv", "verify", "--cutoffs", "4,8"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("text", ["16,12", "12,12", "12.5", ",", "12,,16", "12,16,"])
    def test_unordered_repeated_or_fractional_cutoffs_usage_error(self, text):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cv", "verify", "--cutoffs", text])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "cutoffs,message",
        [
            ([], "empty"),
            ([12.5], "integers"),
            ([20, "30"], "integers"),
            ([8, 20], "below 12"),
            ([16, 12], "strictly increasing"),
            ([12, 12], "strictly increasing"),
            ([True], "integers"),
        ],
    )
    def test_library_rejects_bad_cutoffs(self, cutoffs, message):
        with pytest.raises(ValueError, match=message):
            cli.run_cv_verify(cutoffs)

    def test_numpy_integer_cutoffs_accepted(self):
        report = cli.run_cv_verify([np.int64(12)])
        assert report.params["cutoffs"] == [12] and type(report.params["cutoffs"][0]) is int
        assert VerificationReport.from_json(report.to_json()) == report

    @pytest.mark.parametrize("make", [np.array, lambda cutoffs: (n for n in cutoffs)],
                             ids=["array", "generator"])
    def test_cutoffs_read_once_as_a_list(self, make):
        # an array has no single truth value, and a generator is spent by
        # its first reading
        assert cli.run_cv_verify(make([12, 14])) == cli.run_cv_verify([12, 14])

    def test_oversized_cutoff_refused_before_allocating(self):
        # the total <= 10 block's 66 columns of length 351^2, four arrays each,
        # three sector tables, two basis-sized arrays and a phase table would take
        # 1153169784 bytes
        needs = "cutoff 350 needs 1153169784 bytes"
        assert refused_peak(lambda: cli.run_cv_verify([350]), needs) < 10 * 2**20

    def test_largest_accepted_cutoff(self):
        # 66 block columns at cutoff 340 fit with the three sector tables,
        # the two basis-sized arrays and the phase table; at 341 they take 1077948432
        # bytes, and the refusal allocates nothing
        assert cli.validate_cutoffs([20, 340]) == ([20, 340], 10)
        needs = "cutoff 341 needs 1077948432 bytes"
        assert refused_peak(lambda: cli.validate_cutoffs([20, 341]), needs) < 2**20

    def test_oversized_cutoff_refused_before_any_check(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cv", "verify", "--cutoffs", "20,30,40,350"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "cutoff 350 needs 1153169784 bytes" in err
        assert "[pass]" not in err and "[FAIL]" not in err

    def test_oversized_cutoff_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cv", "verify", "--cutoffs", "350"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "cutoff 350 needs 1153169784 bytes" in err
        assert "Traceback" not in err


class TestNoToleranceOverride:
    @pytest.mark.parametrize(
        "argv", [["qudit", "verify", "--d", "2"], ["cv", "verify", "--cutoffs", "12"]],
        ids=["qudit", "cv"],
    )
    def test_tol_option_is_a_usage_error(self, capsys, argv):
        # each row holds the module constant it names; no option changes it
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--tol", "1e-3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --tol 1e-3" in err
        assert "[pass]" not in err and "[FAIL]" not in err

    def test_reports_carry_no_tolerance_parameter(self):
        assert cli.run_qudit_verify(2, 2).params == {"d_min": 2, "d_max": 2}
        assert list(cli.run_cv_verify([12]).params) == ["cutoffs", "block_photons"]


class TestRising:
    def test_tie_fails(self):
        row = cli._rising("tie", [0.5, 0.5])
        assert (row.error, row.tolerance, row.passed) == (0.0, 0.0, False)

    def test_rise_passes_with_error_zero(self):
        row = cli._rising("rise", [0.25, 0.5, 2.0])
        assert (row.error, row.tolerance, row.passed) == (0.0, 0.0, True)

    def test_error_is_the_largest_fall(self):
        row = cli._rising("falls", [1.0, 0.75, 2.0, 0.5])
        assert (row.error, row.tolerance, row.passed) == (1.5, 0.0, False)

    def test_nan_fall_is_the_error(self):
        # Python's max(0.0, nan) is 0.0: the row failed with error 0.0
        row = cli._rising("nan", [1.0, np.nan, 2.0])
        assert np.isnan(row.error) and not row.passed


class TestHeterodyneRows:
    @pytest.mark.parametrize("n", [1, 8])
    def test_cutoff_that_holds_no_lambda_refused(self, n):
        # unrefused, a bare StopIteration with no message escaped
        with pytest.raises(ValueError, match=re.escape(
                f"cutoff {n} holds no lambda of HETERODYNE_LAMBDAS {cli.HETERODYNE_LAMBDAS}")):
            cli.heterodyne_lambda(n)

    def test_smallest_cutoff_that_holds_a_lambda(self):
        assert cli.heterodyne_lambda(9) == cli.HETERODYNE_LAMBDAS[-1]

    def test_nan_residual_spreads_into_the_z_independence_row(self, monkeypatch):
        # a NaN residual at the last z: Python's max over the spreads dropped
        # it, and the row passed with the spread of the other points
        residual = fock.heterodyne_eigen_residual
        monkeypatch.setattr(fock, "heterodyne_eigen_residual", lambda n, lam, z: (
            np.nan if z == 2j else residual(n, lam, z)
        ))
        row = next(r for r in cli.heterodyne_rows(40) if r.name == "N=40:heterodyne_z_independence")
        assert np.isnan(row.error) and not row.passed


class TestParams:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "params")
        assert code == 0
        assert "-0.52359877559829" in out  # beta = -pi/6
        assert "WARNING" in out and "negative" in out

    def test_json_matches_text(self, capsys):
        _, text_out, _ = run_cli(capsys, "params")
        _, json_out, _ = run_cli(capsys, "params", "--json")
        payload = json.loads(json_out)
        beta_line = next(l for l in text_out.splitlines() if l.startswith("beta"))
        assert float(beta_line.split("=")[1].split()[0]) == payload["beta"]
        assert payload["beta"] == pytest.approx(-np.pi / 6, abs=1e-14)
        assert payload["g"] < 0


class TestRuntime:
    def test_verify_commands_run_on_numpy_alone(self):
        # the tests import scipy for their references, so only a fresh
        # process shows what the commands themselves import
        code = (
            "import json, sys\n"
            "from bellgate import cli\n"
            "codes = [cli.main(['qudit', 'verify', '--d', '2..3']),"
            " cli.main(['cv', 'verify', '--cutoffs', '12'])]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.'))]))\n"
        )
        result = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=src_env(),
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == [[0, 0], []]
