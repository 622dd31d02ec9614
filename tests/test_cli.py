"""End-to-end tests of the command-line front end."""

import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from support import refused_peak, traced_peak

from bellgate import cli, qudit
from bellgate.reports import VerificationReport

REPO = Path(__file__).resolve().parents[1]

CNOT_ROWS = [
    [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
    [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
]


# NaN, both infinities and a negative value
BAD_TOLERANCES = ["nan", "inf", "-inf", "-0.5"]


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

    def test_impossible_tolerance_fails_with_nonzero_exit(self, capsys):
        code, out, _ = run_cli(capsys, "qudit", "verify", "--d", "3", "--tol", "1e-20")
        assert code == 1
        assert not VerificationReport.from_json(out).passed

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
        code, out, _ = run_cli(capsys, "qudit", "verify", "--d", "2..16", "--tol", "1e-11")
        assert code == 0
        assert VerificationReport.from_json(out).passed


class TestQuditSynth:
    def test_json_contains_cnot(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "qudit", "synth", "--d", "2")
        assert code == 0
        written = json.loads(out)["written"]
        payload = json.loads((tmp_path / written[0]).read_text())
        assert payload["d"] == 2
        assert payload["matrices"]["V"] == CNOT_ROWS

    def test_round_trip_reload_verifies(self, capsys, tmp_path):
        out_path = tmp_path / "d5.json"
        run_cli(capsys, "qudit", "synth", "--d", "5", "--out", str(out_path))
        payload = json.loads(out_path.read_text())
        gs = cli.gateset_from_payload(payload)
        assert qudit.bell_map_max_error(gs) <= 1e-11
        assert np.abs(qudit.v_from_bell_basis(gs) - np.eye(gs.d)).max() <= 1e-12
        np.testing.assert_array_equal(gs.v_perm, qudit.make_gateset(5).v_perm)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("matrices", "V", 0, 0), [0.5, 0.0], "V is not a 9 x 9 permutation matrix"),
            (("matrices", "V", 0, 1), [1.0, 0.0], "V is not a 9 x 9 permutation matrix"),
            (("d",), 3.7, "d must be an integer >= 2, got 3.7"),
            (("d",), "3", "d must be an integer >= 2, got '3'"),
            (("d",), True, "d must be an integer >= 2, got True"),
            (("matrices", "F"), [[[0.5, 0.0]]] * 3, "F is not a 3 x 3 matrix"),
            (("matrices", "Z"), [[[1.0, 0.0]] * 4] * 4, "Z is not a 3 x 3 matrix"),
            (("matrices", "W", 2), [[0.0, 0.0]], "W is not a 3 x 3 matrix"),
            (("matrices", "W", 1, 0), [1.0], "W is not a 3 x 3 matrix"),
        ],
        ids=["not_0_or_1", "two_ones_in_a_row", "d_fractional", "d_text", "d_bool",
             "F_one_column", "Z_too_large", "W_ragged", "W_entry_without_imaginary_part"],
    )
    def test_bad_payload_refused_naming_the_field(self, path, value, message):
        # unrefused, d = 3.7 would load as d = 3, and an F of shape (3, 1)
        # would broadcast to a bell_map error of 1.41
        payload = cli.synth_payload(qudit.make_gateset(3))
        *parents, last = path
        target = payload
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(ValueError, match=f"^{re.escape('payload ' + message)}$"):
            cli.gateset_from_payload(payload)

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
        out_path = tmp_path / "d33.json"
        needs = r"d = 33 \(2375109 entries\) needs 1092550140"
        assert refused_peak(lambda: cli.run_qudit_synth(33, "json", str(out_path)), needs) < 2**20
        assert not out_path.exists()
        cli._require_synth_fits(32)  # the largest export that fits

    def test_oversized_export_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["qudit", "synth", "--d", "33", "--format", "csv",
                      "--out", str(tmp_path / "csv")])
        assert exc.value.code == 2
        assert "qudit synth at d = 33 (2375109 entries) needs" in capsys.readouterr().err
        assert not (tmp_path / "csv").exists()

    def test_csv_row_counts(self, capsys, tmp_path):
        d = 3
        outdir = tmp_path / "csv"
        run_cli(capsys, "qudit", "synth", "--d", str(d), "--format", "csv",
                "--out", str(outdir))
        z_rows = (outdir / "Z.csv").read_text().strip().splitlines()
        assert len(z_rows) - 1 == d * d  # header plus one row per entry
        v_rows = (outdir / "V.csv").read_text().strip().splitlines()
        assert len(v_rows) - 1 == d ** 4

    def test_small_d_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["qudit", "synth", "--d", "1"])
        assert exc.value.code == 2


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

    def test_oversized_cutoff_refused_before_allocating(self):
        # the total <= 100 block's 5151 columns of length 201^2, three arrays
        # each, and three sector tables would take 10248928896 bytes
        needs = "cutoff 200 needs 10248928896 bytes"
        assert refused_peak(lambda: cli.run_cv_verify([200]), needs) < 10 * 2**20

    def test_oversized_cutoff_refused_before_any_check(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cv", "verify", "--cutoffs", "20,30,40,200"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "cutoff 200 needs 10248928896 bytes" in err
        assert "[pass]" not in err and "[FAIL]" not in err

    def test_oversized_cutoff_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cv", "verify", "--cutoffs", "200"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "cutoff 200 needs 10248928896 bytes" in err
        assert "Traceback" not in err

    def test_convergence_script_runs(self, monkeypatch):
        script = str(REPO / "scripts" / "cv_convergence.py")
        # cv verify's rules refuse "8" and "12,x": status 1 with their messages
        # (run in this process)
        for arg, message in [("8", "cutoffs below 12 are"),
                             ("12,x", "invalid --cutoffs list: '12,x'$")]:
            monkeypatch.setattr(sys, "argv", [script, arg])
            with pytest.raises(SystemExit, match=f"^cv_convergence.py: error: {message}"):
                runpy.run_path(script, run_name="__main__")
        result = subprocess.run([sys.executable, script, "12,16"], cwd=REPO, env=src_env(),
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        # the het(sharp) column uses cv verify's lambda, and the note names
        # the limits of the base lambda and of the lambdas the column used
        rows = [line.split() for line in result.stdout.splitlines()[3:5]]
        assert [(int(row[0]), row[-1]) for row in rows] == [
            (n, f"@{cli.heterodyne_lambda(n)}") for n in (12, 16)
        ]
        assert "(sharp limits sqrt((1-lam)/(1+lam)): 0.577350 at lam=0.5," \
            " 0.420084 at lam=0.7)" in result.stdout.splitlines()


class TestBadTolerance:
    # a bool and a string are no tolerance either
    @pytest.mark.parametrize("tol", [*map(float, BAD_TOLERANCES), True, "1e-3"])
    def test_library_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
            cli.run_qudit_verify(2, 3, tol)
        with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
            cli.run_cv_verify([12], tol)

    @pytest.mark.parametrize("text", BAD_TOLERANCES)
    @pytest.mark.parametrize(
        "argv", [["qudit", "verify", "--d", "2..3"], ["cv", "verify", "--cutoffs", "12"]],
        ids=["qudit", "cv"],
    )
    def test_bad_tolerance_usage_error(self, capsys, argv, text):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, f"--tol={text}"])
        assert exc.value.code == 2
        assert "tolerance must be finite and non-negative" in capsys.readouterr().err


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
