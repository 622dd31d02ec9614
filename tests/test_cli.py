"""End-to-end tests of the command-line front end."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

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

    @pytest.mark.parametrize("d_min,d_max", [(1, 3), (5, 3)])
    def test_library_rejects_bad_range(self, d_min, d_max):
        with pytest.raises(ValueError, match="dimension range"):
            cli.run_qudit_verify(d_min, d_max)

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
        assert np.abs(qudit.v_from_bell_basis(gs) - gs.V).max() <= 1e-12

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
        ],
    )
    def test_library_rejects_bad_cutoffs(self, cutoffs, message):
        with pytest.raises(ValueError, match=message):
            cli.run_cv_verify(cutoffs)

    def test_oversized_cutoff_refused_before_allocating(self):
        # the total <= 100 block's 5151 image columns of length 201^2 would
        # take 3329688816 bytes
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cutoff 200 needs 3329688816 bytes"):
                cli.run_cv_verify([200])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_oversized_cutoff_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cv", "verify", "--cutoffs", "200"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "cutoff 200 needs 3329688816 bytes" in err
        assert "Traceback" not in err

    def test_convergence_script_runs(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
        )}
        result = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "cv_convergence.py"), "12,16"],
            cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr


class TestBadTolerance:
    @pytest.mark.parametrize("text", BAD_TOLERANCES)
    def test_library_rejects_bad_tolerance(self, text):
        with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
            cli.run_qudit_verify(2, 3, float(text))
        with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
            cli.run_cv_verify([12], float(text))

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
