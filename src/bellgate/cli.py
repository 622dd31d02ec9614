"""Command-line verification front end.

Subcommands:

    bellgate qudit verify --d 2..16 [--tol X] [--out report.json]
    bellgate qudit synth  --d 4 --format json|csv [--out PATH]
    bellgate cv verify    --cutoffs 20,30,40 [--tol X] [--out report.json]
    bellgate params [--json]

Progress and per-check lines go to stderr; machine-readable output (the JSON
report, or the synth file list) goes to stdout. The exit code is 0 iff every
invoked check passed. When ``--tol`` is given it overrides the per-check
default tolerances listed in the module constants.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import fock, gaussian, qudit
from .reports import CheckResult, VerificationReport

# Default per-check tolerances (overridden globally by --tol).
TOL_BELL_MAP = 1e-11
TOL_EQUIVALENCE = 1e-12
TOL_GRAM = 1e-12
TOL_CNOT = 1e-14
TOL_SU11 = 1e-14
TOL_SYMPLECTIC = 1e-12
ABLATION_FLOOR = 0.1
TOL_TAU1 = 1e-5
TOL_UNITARITY_BLOCK = 1e-6
TOL_FINAL_DISTANCE = 1e-11   # applies once the largest cutoff reaches 40
TOL_ENTBS_ORIGIN = 1e-3
TOL_HETERODYNE_CLOSED = 1e-9
TOL_Z_INDEPENDENCE = 1e-8

_ENTBS_S_CANDIDATES = (0.6, 0.5, 0.4, 0.3)
_HETERODYNE_LAMBDAS = (0.9, 0.8, 0.7, 0.6)
_HETERODYNE_Z_SET = (0.0, 1.0, 1.0 - 0.5j, 2.0j)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _validate_tol(tol: float | None) -> None:
    if tol is not None and not 0.0 <= tol < np.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")


def _tol(tol: float | None, default: float) -> float:
    """The ``--tol`` override when one is given, else the check's default."""
    return default if tol is None else tol


def _check(name: str, error: float, tol: float, passed=None) -> CheckResult:
    if passed is None:
        passed = error <= tol
    result = CheckResult(name=name, error=float(error), tolerance=float(tol), passed=bool(passed))
    _log(f"  [{'pass' if result.passed else 'FAIL'}] {name}: error={error:.3e} tol={tol:.3e}")
    return result


# ---------------------------------------------------------------------------
# qudit verify
# ---------------------------------------------------------------------------

def _validate_d_range(d_min: int, d_max: int) -> None:
    if d_min < 2 or d_min > d_max:
        raise ValueError(f"invalid dimension range {d_min}..{d_max}: need 2 <= d_min <= d_max")


def run_qudit_verify(d_min: int, d_max: int, tol: float | None = None) -> VerificationReport:
    _validate_d_range(d_min, d_max)
    _validate_tol(tol)
    t0 = time.perf_counter()
    checks: list[CheckResult] = []
    for d in range(d_min, d_max + 1):
        gs = qudit.make_gateset(d)
        checks.append(_check(
            f"d={d}:bell_map", qudit.bell_map_max_error(gs), _tol(tol, TOL_BELL_MAP)
        ))
        checks.append(_check(
            f"d={d}:construction_equivalence",
            float(np.abs(qudit.v_from_bell_basis(gs) - gs.V).max()),
            _tol(tol, TOL_EQUIVALENCE),
        ))
        checks.append(_check(
            f"d={d}:bell_gram", qudit.orthonormality_max_error(gs) / d, _tol(tol, TOL_GRAM)
        ))
        if d == 2:
            cnot = np.eye(4)[[0, 1, 3, 2]]
            checks.append(_check(
                "V==CNOT", float(np.abs(gs.V - cnot).max()), _tol(tol, TOL_CNOT)
            ))
    return VerificationReport(
        suite="qudit",
        params={"d_min": d_min, "d_max": d_max, "tol": tol},
        checks=checks,
        duration_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# cv verify
# ---------------------------------------------------------------------------

def _validate_cutoffs(cutoffs: list[int]) -> None:
    if not cutoffs:
        raise ValueError("cutoff list must not be empty")
    if not all(isinstance(n, int) for n in cutoffs):
        raise ValueError(f"cutoffs must be integers, got {cutoffs!r}")
    if min(cutoffs) < 12:
        raise ValueError("cutoffs below 12 are too small for the verification sweeps")
    if any(lo >= hi for lo, hi in zip(cutoffs, cutoffs[1:])):
        raise ValueError(f"cutoffs must be strictly increasing, got {cutoffs!r}")


def run_cv_verify(cutoffs: list[int], tol: float | None = None) -> VerificationReport:
    _validate_cutoffs(cutoffs)
    _validate_tol(tol)
    t0 = time.perf_counter()
    checks: list[CheckResult] = []
    warnings: list[str] = []
    params = gaussian.decomposition_params()

    _log("exact symplectic layer:")
    checks.append(_check(
        "su11_pauli_identity", gaussian.su11_pauli_defect(params), _tol(tol, TOL_SU11)
    ))
    checks.append(_check(
        "symplectic_decomposition_vs_target",
        gaussian.circuit_vs_target_error(params),
        _tol(tol, TOL_SYMPLECTIC),
    ))
    # opa_symplectic(0) is exactly the identity, so alpha = 0 drops the OPA
    ablations = (
        ("drop_opa", dataclasses.replace(params, alpha=0.0)),
        ("swap_squeezers", dataclasses.replace(params, r1=params.r2, r2=params.r1)),
    )
    for label, variant in ablations:
        err = gaussian.circuit_vs_target_error(variant)
        checks.append(_check(
            f"symplectic_ablation_{label}_exceeds_floor", err, ABLATION_FLOOR,
            passed=err > ABLATION_FLOOR,
        ))
    checks.append(_check(
        "tau1_matches_mixing_angle",
        abs(params.tau1 - float(np.cos(params.beta / 2) ** 2)),
        _tol(tol, TOL_TAU1),
    ))
    warnings.extend(gaussian.consistency_notes(params))

    block = min(10, min(cutoffs) // 2)
    distances = []
    for n in cutoffs:
        _log(f"cutoff N={n}:")
        gram_defect, dist, chain_warnings = fock.sum_gate_block_checks(n, block)
        warnings.extend(chain_warnings)
        checks.append(_check(
            f"N={n}:sum_gate_unitarity_block", gram_defect, _tol(tol, TOL_UNITARITY_BLOCK)
        ))
        distances.append(dist)
        checks.append(_check(
            f"N={n}:sum_gate_block_distance", dist,
            _tol(tol, TOL_FINAL_DISTANCE) if n >= 40 else 1.0,
        ))

        fid0 = fock.entbs_fidelity(n, 0.0, 0.0, 0.5)
        checks.append(_check(
            f"N={n}:entbs_origin_fidelity", 1.0 - fid0, _tol(tol, TOL_ENTBS_ORIGIN)
        ))
        # sharpness values whose matched lambda survives the tail guard
        svals = [
            s for s in _ENTBS_S_CANDIDATES if fock.lambda_fits(n, fock.matched_lambda(s))
        ]
        fids = []
        for s in svals:
            f = fock.entbs_fidelity(n, 1.0, -0.5, s)
            fids.append(f)
            checks.append(_check(
                f"N={n}:entbs_fidelity_s={s}_at_(1,-0.5)", 1.0 - f, 1.0
            ))
        if len(fids) >= 2:
            # candidates are ordered by decreasing s, so fidelities must increase
            violation = max(
                0.0, max(fids[i] - fids[i + 1] for i in range(len(fids) - 1))
            )
            checks.append(_check(
                f"N={n}:entbs_sharpening_trend", violation, 0.0,
                passed=all(fids[i] < fids[i + 1] for i in range(len(fids) - 1)),
            ))

        # rows limited purely by truncation get their acceptance-grade
        # tolerance once the cutoff reaches 40; below that they are reported
        # for the convergence picture without failing the run
        grade = n >= 40
        # the lambda = 0.5 residual at each z, computed once for all three rows
        residuals = {z: fock.heterodyne_eigen_residual(n, 0.5, z) for z in _HETERODYNE_Z_SET}
        res_half = residuals[0.0]
        closed = np.sqrt((1 - 0.5) / (1 + 0.5))
        checks.append(_check(
            f"N={n}:heterodyne_closed_form_lam0.5",
            abs(res_half - closed),
            _tol(tol, TOL_HETERODYNE_CLOSED) if grade else 1.0,
        ))
        lam_hi = next(lam for lam in _HETERODYNE_LAMBDAS if fock.lambda_fits(n, lam))
        res_lo = residuals[1.0]
        res_hi = fock.heterodyne_eigen_residual(n, lam_hi, 1.0)
        checks.append(_check(
            f"N={n}:heterodyne_monotone_lam0.5_to_{lam_hi}",
            max(0.0, res_hi - res_lo), 0.0,
            passed=res_hi < res_lo,
        ))
        spread = max(abs(res - res_half) for res in residuals.values())
        checks.append(_check(
            f"N={n}:heterodyne_z_independence", spread,
            _tol(tol, TOL_Z_INDEPENDENCE) if grade else 1.0,
        ))

    if len(distances) >= 2:
        violation = max(
            0.0,
            max(distances[i + 1] - distances[i] for i in range(len(distances) - 1)),
        )
        checks.append(_check(
            "sum_gate_convergence_monotone", violation, 0.0,
            passed=all(
                distances[i + 1] < distances[i] for i in range(len(distances) - 1)
            ),
        ))

    return VerificationReport(
        suite="cv",
        params={"cutoffs": list(cutoffs), "tol": tol, "block_photons": block},
        checks=checks,
        warnings=sorted(set(warnings)),
        duration_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# qudit synth
# ---------------------------------------------------------------------------

def _matrix_payload(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def synth_payload(gs: qudit.QuditGateSet) -> dict:
    bell = [
        [[float(v.real), float(v.imag)] for v in qudit.bell_vector(gs, m, n).amplitudes]
        for m in range(gs.d) for n in range(gs.d)
    ]
    return {
        "schema": 1,
        "d": gs.d,
        "matrices": {
            "Z": _matrix_payload(gs.Z),
            "W": _matrix_payload(gs.W),
            "F": _matrix_payload(gs.F),
            "V": _matrix_payload(gs.V),
        },
        "bell_vectors": bell,
    }


def gateset_from_payload(payload: dict) -> qudit.QuditGateSet:
    def to_matrix(rows) -> np.ndarray:
        return np.array([[complex(re, im) for re, im in row] for row in rows])

    mats = payload["matrices"]
    return qudit.QuditGateSet(
        d=int(payload["d"]),
        Z=to_matrix(mats["Z"]),
        W=to_matrix(mats["W"]),
        F=to_matrix(mats["F"]),
        V=to_matrix(mats["V"]),
    )


def _write_csv_matrix(path: Path, m: np.ndarray) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col", "re", "im"])
        for i, row in enumerate(m):
            for j, v in enumerate(row):
                writer.writerow([i, j, f"{v.real:.17g}", f"{v.imag:.17g}"])


def run_qudit_synth(d: int, fmt: str, out: str | None) -> list[Path]:
    gs = qudit.make_gateset(d)
    written: list[Path] = []
    if fmt == "json":
        path = Path(out) if out else Path(f"qudit_d{d}.json")
        path.write_text(json.dumps(synth_payload(gs), indent=2))
        written.append(path)
    else:
        outdir = Path(out) if out else Path(f"qudit_d{d}_csv")
        outdir.mkdir(parents=True, exist_ok=True)
        for name, m in (("Z", gs.Z), ("W", gs.W), ("F", gs.F), ("V", gs.V)):
            path = outdir / f"{name}.csv"
            _write_csv_matrix(path, m)
            written.append(path)
        bell_path = outdir / "bell_vectors.csv"
        with bell_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m", "n", "component", "re", "im"])
            for m_idx in range(d):
                for n_idx in range(d):
                    amps = qudit.bell_vector(gs, m_idx, n_idx).amplitudes
                    for k, v in enumerate(amps):
                        writer.writerow(
                            [m_idx, n_idx, k, f"{v.real:.17g}", f"{v.imag:.17g}"]
                        )
        written.append(bell_path)
    for p in written:
        _log(f"wrote {p}")
    return written


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------

def params_payload() -> dict:
    p = gaussian.decomposition_params()
    return {
        "schema": 1,
        **dataclasses.asdict(p),
        "consistency_notes": list(gaussian.consistency_notes(p)),
    }


def format_params_text() -> str:
    payload = params_payload()
    lines = [
        f"alpha = {payload['alpha']:.17g}   (-2 atanh(2 - sqrt3))",
        f"beta  = {payload['beta']:.17g}   (-2 atan(2 - sqrt3) = -pi/6)",
        f"gamma = {payload['gamma']:.17g}   (log(sqrt3/2))",
        f"r1    = {payload['r1']:.17g}   (2^(-1/2))",
        f"r2    = {payload['r2']:.17g}   ((3/4)^(-1/4))",
        f"tau1  = {payload['tau1']:.17g}   ({{4(2 - sqrt3)}}^(-1))",
        f"g     = {payload['g']:.17g}   ({{2(3 - 2 sqrt3)}}^(-1))",
        "consistency:",
    ]
    for note in payload["consistency_notes"]:
        prefix = "WARNING: " if "negative" in note else ""
        lines.append(f"  - {prefix}{note}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _parse_d_range(parser: argparse.ArgumentParser, text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            d_min, d_max = int(lo), int(hi)
        else:
            d_min = d_max = int(text)
    except ValueError:
        parser.error(f"invalid --d range: {text!r} (expected A..B or a single integer)")
    return d_min, d_max


def _parse_cutoffs(parser: argparse.ArgumentParser, text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        parser.error(f"invalid --cutoffs list: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellgate",
        description="Verify controlled-unitary realizations of Bell observables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    qudit_cmd = sub.add_parser("qudit", help="finite-dimensional suite")
    qsub = qudit_cmd.add_subparsers(dest="subcommand", required=True)
    qv = qsub.add_parser("verify", help="run the Bell-map verification sweep")
    qv.add_argument("--d", default="2..16", metavar="A..B", help="dimension range")
    qv.add_argument("--tol", type=float, default=None, help="override all tolerances")
    qv.add_argument("--out", default=None, help="also write the JSON report here")
    qs = qsub.add_parser("synth", help="export gate matrices and Bell vectors")
    qs.add_argument("--d", type=int, required=True)
    qs.add_argument("--format", choices=("json", "csv"), default="json")
    qs.add_argument("--out", default=None, help="output file (json) or directory (csv)")

    cv_cmd = sub.add_parser("cv", help="continuous-variable suite")
    csub = cv_cmd.add_subparsers(dest="subcommand", required=True)
    cvv = csub.add_parser("verify", help="run the symplectic and Fock sweeps")
    cvv.add_argument("--cutoffs", default="20,30,40", metavar="N1,N2,...")
    cvv.add_argument("--tol", type=float, default=None, help="override all tolerances")
    cvv.add_argument("--out", default=None, help="also write the JSON report here")

    params_cmd = sub.add_parser("params", help="print the decomposition constants")
    params_cmd.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _emit_report(report: VerificationReport, out: str | None) -> int:
    text = report.to_json()
    print(text)
    if out:
        Path(out).write_text(text)
        _log(f"wrote {out}")
    _log(f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'}"
         f" ({len(report.checks)} checks, {report.duration_s:.2f}s)")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "params":
        if args.as_json:
            print(json.dumps(params_payload(), indent=2))
        else:
            print(format_params_text())
        return 0
    if args.subcommand == "synth":
        if args.d < 2:
            parser.error(f"--d must be >= 2, got {args.d}")
        written = run_qudit_synth(args.d, args.format, args.out)
        print(json.dumps({"written": [str(p) for p in written]}))
        return 0
    # qudit verify or cv verify: each suite raises ValueError for input it
    # refuses, a cutoff whose arrays would not fit in memory included
    try:
        if args.command == "qudit":
            report = run_qudit_verify(*_parse_d_range(parser, args.d), args.tol)
        else:
            report = run_cv_verify(_parse_cutoffs(parser, args.cutoffs), args.tol)
    except ValueError as exc:
        parser.error(str(exc))
    return _emit_report(report, args.out)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
