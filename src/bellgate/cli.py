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

The sweep policy of ``cv verify`` is public, and ``scripts/cv_convergence.py``
reads it too: ``ENTBS_SHARPNESS`` and ``HETERODYNE_LAMBDAS`` list the
candidate sharpness and damping values, ``HETERODYNE_BASE_LAMBDA`` the damping
of the closed-form row, and ``entbs_sharpness(N)`` and ``heterodyne_lambda(N)``
keep the candidates whose states the cutoff holds (``fock.lambda_fits``).
``validate_cutoffs`` is the rule both apply to a cutoff list.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import numbers
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
TOL_FINAL_DISTANCE = 1e-11   # held by each distance row at N >= 40 (see _graded)
TOL_ENTBS_ORIGIN = 1e-3
TOL_HETERODYNE_CLOSED = 1e-9
TOL_Z_INDEPENDENCE = 1e-8

# sweep candidates, ordered so that the fidelities and the residual sharpen
ENTBS_SHARPNESS = (0.6, 0.5, 0.4, 0.3)
HETERODYNE_LAMBDAS = (0.9, 0.8, 0.7, 0.6)
HETERODYNE_BASE_LAMBDA = 0.5
_HETERODYNE_Z_SET = (0.0, 1.0, 1.0 - 0.5j, 2.0j)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _validate_tol(tol: float | None) -> float | None:
    """The tolerance override as a float, refused unless it is a finite,
    non-negative real number (a bool is not one)."""
    if tol is None:
        return None
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0.0 <= tol < np.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")
    return float(tol)


def _tol(tol: float | None, default: float) -> float:
    """The ``--tol`` override when one is given, else the check's default."""
    return default if tol is None else tol


def _check(name: str, error: float, tol: float, passed=None) -> CheckResult:
    if passed is None:
        passed = error <= tol
    result = CheckResult(name=name, error=float(error), tolerance=float(tol), passed=bool(passed))
    _log(f"  [{'pass' if result.passed else 'FAIL'}] {name}: error={error:.3e} tol={tol:.3e}")
    return result


def _rising(name: str, values: list[float]) -> CheckResult:
    """The row for values that must rise strictly: its error is the largest
    fall between neighbours, floored at 0, and it passes only if every fall
    is negative, a strict rise."""
    falls = [a - b for a, b in zip(values, values[1:])]
    return _check(name, max(0.0, max(falls)), 0.0, passed=all(fall < 0 for fall in falls))


def _graded(tol: float | None, strict: float, cutoff: int) -> float:
    """A truncation-limited row's tolerance: its strict one (or ``--tol``) at
    each cutoff from 40 on, and 1.0 below, where it informs without failing."""
    return _tol(tol, strict) if cutoff >= 40 else 1.0


# ---------------------------------------------------------------------------
# qudit verify
# ---------------------------------------------------------------------------

def _validate_d_range(d_min: int, d_max: int) -> None:
    """Refuse a bad range, and a d_max whose checks would not fit in memory,
    before the first check runs."""
    if not (fock.is_integer(d_min) and fock.is_integer(d_max) and 2 <= d_min <= d_max):
        raise ValueError(
            f"invalid dimension range {d_min!r}..{d_max!r}: need integers 2 <= d_min <= d_max"
        )
    qudit.require_checks_fit(d_max)


def run_qudit_verify(d_min: int, d_max: int, tol: float | None = None) -> VerificationReport:
    _validate_d_range(d_min, d_max)
    tol = _validate_tol(tol)
    t0 = time.perf_counter()
    checks: list[CheckResult] = []
    for d in range(d_min, d_max + 1):
        gs = qudit.make_gateset(d)
        checks.append(_check(
            f"d={d}:bell_map", qudit.bell_map_max_error(gs), _tol(tol, TOL_BELL_MAP)
        ))
        checks.append(_check(
            f"d={d}:construction_equivalence",
            float(np.abs(qudit.v_from_bell_basis(gs) - np.eye(d)).max()),
            _tol(tol, TOL_EQUIVALENCE),
        ))
        checks.append(_check(
            f"d={d}:bell_gram", qudit.orthonormality_max_error(gs) / d, _tol(tol, TOL_GRAM)
        ))
        if d == 2:
            cnot = np.eye(4)[[0, 1, 3, 2]]
            checks.append(_check(
                "V==CNOT", float(np.abs(qudit.dense_v(gs) - cnot).max()), _tol(tol, TOL_CNOT)
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

def validate_cutoffs(cutoffs: list[int]) -> tuple[list[int], int]:
    """Refuse a bad cutoff list, and any cutoff whose SUM-gate checks would
    not fit in memory, before the first check runs; returns the cutoffs as
    Python ints and the photon number of the SUM-gate block."""
    if not cutoffs:
        raise ValueError("cutoff list must not be empty")
    if not all(fock.is_integer(n) for n in cutoffs):
        raise ValueError(f"cutoffs must be integers, got {cutoffs!r}")
    cutoffs = [int(n) for n in cutoffs]
    if min(cutoffs) < 12:
        raise ValueError("cutoffs below 12 are too small for the verification sweeps")
    if any(lo >= hi for lo, hi in zip(cutoffs, cutoffs[1:])):
        raise ValueError(f"cutoffs must be strictly increasing, got {cutoffs!r}")
    block = min(10, min(cutoffs) // 2)
    for n in cutoffs:
        fock.require_block_checks_fit(n, block)
    return cutoffs, block


def entbs_sharpness(cutoff: int) -> list[float]:
    """The values of ENTBS_SHARPNESS whose matched lambda the cutoff holds."""
    return [s for s in ENTBS_SHARPNESS if fock.lambda_fits(cutoff, fock.matched_lambda(s))]


def heterodyne_lambda(cutoff: int) -> float:
    """The first, sharpest, value of HETERODYNE_LAMBDAS that the cutoff holds;
    every cutoff from 12 on holds the last."""
    return next(lam for lam in HETERODYNE_LAMBDAS if fock.lambda_fits(cutoff, lam))


def run_cv_verify(cutoffs: list[int], tol: float | None = None) -> VerificationReport:
    cutoffs, block = validate_cutoffs(cutoffs)
    tol = _validate_tol(tol)
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

    distances = []
    for n in cutoffs:
        _log(f"cutoff N={n}:")
        gram_defect, dist = fock.sum_gate_block_checks(n, block)
        checks.append(_check(
            f"N={n}:sum_gate_unitarity_block", gram_defect, _tol(tol, TOL_UNITARITY_BLOCK)
        ))
        distances.append(dist)
        checks.append(_check(
            f"N={n}:sum_gate_block_distance", dist, _graded(tol, TOL_FINAL_DISTANCE, n)
        ))

        fid0 = fock.entbs_fidelity(n, 0.0, 0.0, 0.5)
        checks.append(_check(
            f"N={n}:entbs_origin_fidelity", 1.0 - fid0, _tol(tol, TOL_ENTBS_ORIGIN)
        ))
        fids = []
        for s in entbs_sharpness(n):
            f = fock.entbs_fidelity(n, 1.0, -0.5, s)
            fids.append(f)
            checks.append(_check(
                f"N={n}:entbs_fidelity_s={s}_at_(1,-0.5)", 1.0 - f, 1.0
            ))
        if len(fids) >= 2:
            checks.append(_rising(f"N={n}:entbs_sharpening_trend", fids))

        # the base-lambda residual at each z, computed once for all three rows
        lam = HETERODYNE_BASE_LAMBDA
        residuals = {z: fock.heterodyne_eigen_residual(n, lam, z) for z in _HETERODYNE_Z_SET}
        res_base = residuals[0.0]
        checks.append(_check(
            f"N={n}:heterodyne_closed_form_lam{lam}",
            abs(res_base - np.sqrt((1 - lam) / (1 + lam))),
            _graded(tol, TOL_HETERODYNE_CLOSED, n),
        ))
        lam_hi = heterodyne_lambda(n)
        res_hi = fock.heterodyne_eigen_residual(n, lam_hi, 1.0)
        checks.append(_rising(
            f"N={n}:heterodyne_monotone_lam{lam}_to_{lam_hi}", [res_hi, residuals[1.0]]
        ))
        spread = max(abs(res - res_base) for res in residuals.values())
        checks.append(_check(
            f"N={n}:heterodyne_z_independence", spread, _graded(tol, TOL_Z_INDEPENDENCE, n)
        ))

    if len(distances) >= 2:
        # negation is exact, so the row's error is the largest rise of the distances
        checks.append(_rising("sum_gate_convergence_monotone", [-d for d in distances]))

    return VerificationReport(
        suite="cv",
        params={"cutoffs": cutoffs, "tol": tol, "block_photons": block},
        checks=checks,
        warnings=sorted(set(warnings)),
        duration_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# qudit synth
# ---------------------------------------------------------------------------

# Peak bytes that ``qudit synth`` allocates per exported entry (one complex
# number of Z, W, F, V or a Bell vector), from tracemalloc at d = 3..16: the
# JSON export, which holds the whole payload and its text, peaks at 405 to 460
# bytes per entry, the CSV export, which writes row by row, at less.
SYNTH_BYTES_PER_ENTRY = 460


def _require_synth_fits(d: int) -> None:
    """Refuse, before building anything, an export whose 3 d^2 + 2 d^4
    entries would take more than DENSE_BYTES_LIMIT (from d = 33 on)."""
    entries = 3 * d * d + 2 * d**4
    fock.require_memory(
        f"qudit synth at d = {d} ({entries} entries)", SYNTH_BYTES_PER_ENTRY * entries
    )


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
            "V": _matrix_payload(qudit.dense_v(gs)),
        },
        "bell_vectors": bell,
    }


def gateset_from_payload(payload: dict) -> qudit.QuditGateSet:
    """The gate set of a ``qudit synth`` JSON payload. A ``d`` that is not an
    integer >= 2, a Z, W or F that is not d x d and a V that is not a
    d^2 x d^2 permutation are refused with a ValueError naming the field."""
    d = payload["d"]
    if not fock.is_integer(d) or d < 2:
        raise ValueError(f"payload d must be an integer >= 2, got {d!r}")
    mats = payload["matrices"]

    def matrix(name: str, size: int) -> np.ndarray:
        refusal = ValueError(f"payload {name} is not a {size} x {size} matrix")
        try:
            m = np.array([[complex(re, im) for re, im in row] for row in mats[name]])
        except (TypeError, ValueError) as exc:
            raise refusal from exc
        if m.shape != (size, size):
            raise refusal
        return m

    v = matrix("V", d * d)
    if (not ((v == 0) | (v == 1)).all()
            or not (v.sum(axis=0) == 1).all() or not (v.sum(axis=1) == 1).all()):
        raise ValueError(f"payload V is not a {d * d} x {d * d} permutation matrix")
    return qudit.QuditGateSet(
        d=d, Z=matrix("Z", d), W=matrix("W", d), F=matrix("F", d),
        v_perm=np.argmax(v.real, axis=0),
    )


def _write_csv_matrix(path: Path, m: np.ndarray) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col", "re", "im"])
        for i, row in enumerate(m):
            for j, v in enumerate(row):
                writer.writerow([i, j, f"{v.real:.17g}", f"{v.imag:.17g}"])


def run_qudit_synth(d: int, fmt: str, out: str | None) -> list[Path]:
    _require_synth_fits(d)
    gs = qudit.make_gateset(d)
    written: list[Path] = []
    if fmt == "json":
        path = Path(out) if out else Path(f"qudit_d{d}.json")
        path.write_text(json.dumps(synth_payload(gs), indent=2))
        written.append(path)
    else:
        outdir = Path(out) if out else Path(f"qudit_d{d}_csv")
        outdir.mkdir(parents=True, exist_ok=True)
        for name, m in (("Z", gs.Z), ("W", gs.W), ("F", gs.F), ("V", qudit.dense_v(gs))):
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

def _parse_d_range(text: str) -> tuple[int, int]:
    lo, dots, hi = text.partition("..")
    try:
        return int(lo), int(hi if dots else lo)
    except ValueError:
        raise ValueError(
            f"invalid --d range: {text!r} (expected A..B or a single integer)"
        ) from None


def _parse_cutoffs(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"invalid --cutoffs list: {text!r}") from None


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
    # each command raises ValueError for input it refuses, a size whose
    # arrays would not fit in memory included
    try:
        if args.subcommand == "synth":
            written = run_qudit_synth(args.d, args.format, args.out)
            print(json.dumps({"written": [str(p) for p in written]}))
            return 0
        if args.command == "qudit":
            report = run_qudit_verify(*_parse_d_range(args.d), args.tol)
        else:
            report = run_cv_verify(_parse_cutoffs(args.cutoffs), args.tol)
    except ValueError as exc:
        parser.error(str(exc))
    return _emit_report(report, args.out)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
