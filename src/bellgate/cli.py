"""Command-line verification front end.

Subcommands:

    bellgate qudit verify --d 2..16 [--out report.json]
    bellgate qudit synth  --d 4 --format json|csv [--out PATH]
    bellgate cv verify    --cutoffs 20,30,40 [--out report.json]
    bellgate params [--json]

Progress and per-check lines go to stderr; machine-readable output (the JSON
report, or the synth file list) goes to stdout. The exit code is 0 iff every
invoked check passed. Each row holds the module constant it names; no option
changes a tolerance.

Each cutoff of ``cv verify`` adds the rows of ``entbs_rows(N)`` and
``heterodyne_rows(N)``, which the acceptance suite reads at N = 60. The
sweep policy of ``cv verify``: ``ENTBS_SHARPNESS`` and
``HETERODYNE_LAMBDAS`` list the candidate sharpness and damping values,
``HETERODYNE_BASE_LAMBDA`` the damping of the closed-form row, and
``entbs_sharpness(N)`` and ``heterodyne_lambda(N)`` keep the candidates whose
states the cutoff holds (``fock.lambda_fits``). ``validate_cutoffs`` is the
rule it applies to a cutoff list.
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
from .reports import CheckResult, VerificationReport, require_fields

# Per-check tolerances.
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


def _check(name: str, error: float, tol: float, passed=None) -> CheckResult:
    if passed is None:
        passed = error <= tol
    result = CheckResult(name=name, error=float(error), tolerance=float(tol), passed=bool(passed))
    _log(f"  [{'pass' if result.passed else 'FAIL'}] {name}: error={error:.3e} tol={tol:.3e}")
    return result


def _rising(name: str, values: list[float]) -> CheckResult:
    """The row for values that must rise strictly: its error is the largest
    fall between neighbours, floored at 0 (NaN if a fall is), and it passes
    only if every fall is negative, a strict rise."""
    falls = [a - b for a, b in zip(values, values[1:])]
    return _check(name, np.max([0.0, *falls]), 0.0, passed=all(fall < 0 for fall in falls))


def _graded(strict: float, cutoff: int) -> float:
    """A truncation-limited row's tolerance: its strict one at each cutoff
    from 40 on, and 1.0 below, where it informs without failing."""
    return strict if cutoff >= 40 else 1.0


# ---------------------------------------------------------------------------
# qudit verify
# ---------------------------------------------------------------------------

def _validate_d_range(d_min: int, d_max: int) -> tuple[int, int]:
    """Refuse a bad range, and a d_max whose checks would not fit in memory,
    before the first check runs; returns the bounds as Python ints."""
    if not (fock.is_integer(d_min) and fock.is_integer(d_max) and 2 <= d_min <= d_max):
        raise ValueError(
            f"invalid dimension range {d_min!r}..{d_max!r}: need integers 2 <= d_min <= d_max"
        )
    qudit.require_checks_fit(d_max)
    return int(d_min), int(d_max)


def run_qudit_verify(d_min: int, d_max: int) -> VerificationReport:
    d_min, d_max = _validate_d_range(d_min, d_max)
    t0 = time.perf_counter()
    checks: list[CheckResult] = []
    for d in range(d_min, d_max + 1):
        gs = qudit.make_gateset(d)
        checks.append(_check(f"d={d}:bell_map", qudit.bell_map_max_error(gs), TOL_BELL_MAP))
        checks.append(_check(
            f"d={d}:construction_equivalence",
            float(np.abs(qudit.v_from_bell_basis(gs) - np.eye(d)).max()), TOL_EQUIVALENCE,
        ))
        checks.append(_check(f"d={d}:bell_gram", qudit.orthonormality_max_error(gs) / d, TOL_GRAM))
        if d == 2:
            cnot_error = np.abs(qudit.dense_v(gs) - np.eye(4)[[0, 1, 3, 2]]).max()
            checks.append(_check("V==CNOT", float(cnot_error), TOL_CNOT))
    return VerificationReport(
        suite="qudit",
        params={"d_min": d_min, "d_max": d_max},
        checks=checks,
        duration_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# cv verify
# ---------------------------------------------------------------------------

def validate_cutoffs(cutoffs: list[int]) -> tuple[list[int], int]:
    """Refuse a bad cutoff list, and any cutoff whose SUM-gate checks would
    not fit in memory, before the first check runs; returns the cutoffs as
    Python ints and the photon number of the SUM-gate block. It reads an
    array or a generator once, as the list of its items."""
    cutoffs = list(cutoffs)
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
    every cutoff from 9 on holds the last, and a cutoff that holds none is
    refused."""
    lam = next((lam for lam in HETERODYNE_LAMBDAS if fock.lambda_fits(cutoff, lam)), None)
    if lam is None:
        raise ValueError(f"cutoff {cutoff} holds no lambda of"
                         f" HETERODYNE_LAMBDAS {HETERODYNE_LAMBDAS}")
    return lam


def entbs_rows(cutoff: int) -> list[CheckResult]:
    """The beam-splitter rows at one cutoff: the fidelity at the origin, the
    fidelity at (1, -0.5) for each sharpness the cutoff holds, from one
    ``fock.entbs_fidelities`` pass, and, for two or more of them, their rise
    as the states sharpen. Each fidelity row reports 1 - F as computed, so
    the origin row's error can round below 0 (-4.4e-16 at N = 80), and such
    a row passes."""
    n = cutoff
    rows = [_check(
        f"N={n}:entbs_origin_fidelity", 1.0 - fock.entbs_fidelity(n, 0.0, 0.0, 0.5),
        TOL_ENTBS_ORIGIN,
    )]
    sharpness = entbs_sharpness(n)
    fids = fock.entbs_fidelities(n, 1.0, -0.5, sharpness)
    for s, f in zip(sharpness, fids):
        rows.append(_check(f"N={n}:entbs_fidelity_s={s}_at_(1,-0.5)", 1.0 - f, 1.0))
    if len(fids) >= 2:
        rows.append(_rising(f"N={n}:entbs_sharpening_trend", fids))
    return rows


def heterodyne_rows(cutoff: int) -> list[CheckResult]:
    """The heterodyne rows at one cutoff: the base-lambda residual at z = 0
    against its closed form, its fall from the base lambda to
    ``heterodyne_lambda(N)`` at z = 1, and its spread over the z set."""
    n, lam = cutoff, HETERODYNE_BASE_LAMBDA
    lam_hi = heterodyne_lambda(n)
    # the base-lambda residual at each z, computed once for all three rows
    residuals = {z: fock.heterodyne_eigen_residual(n, lam, z) for z in _HETERODYNE_Z_SET}
    res_hi = fock.heterodyne_eigen_residual(n, lam_hi, 1.0)
    res_base = residuals[0.0]
    spread = np.max([abs(res - res_base) for res in residuals.values()])
    return [
        _check(f"N={n}:heterodyne_closed_form_lam{lam}",
               abs(res_base - np.sqrt((1 - lam) / (1 + lam))), _graded(TOL_HETERODYNE_CLOSED, n)),
        _rising(f"N={n}:heterodyne_monotone_lam{lam}_to_{lam_hi}", [res_hi, residuals[1.0]]),
        _check(f"N={n}:heterodyne_z_independence", spread, _graded(TOL_Z_INDEPENDENCE, n)),
    ]


def run_cv_verify(cutoffs: list[int]) -> VerificationReport:
    cutoffs, block = validate_cutoffs(cutoffs)
    t0 = time.perf_counter()
    checks: list[CheckResult] = []
    params = gaussian.decomposition_params()

    _log("exact symplectic layer:")
    checks.append(_check("su11_pauli_identity", gaussian.su11_pauli_defect(params), TOL_SU11))
    checks.append(_check("symplectic_decomposition_vs_target",
                         gaussian.circuit_vs_target_error(params), TOL_SYMPLECTIC))
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
    tau_error = abs(params.tau1 - float(np.cos(params.beta / 2) ** 2))
    checks.append(_check("tau1_matches_mixing_angle", tau_error, TOL_TAU1))

    distances = []
    for n in cutoffs:
        _log(f"cutoff N={n}:")
        gram_defect, dist = fock.sum_gate_block_checks(n, block)
        checks.append(_check(f"N={n}:sum_gate_unitarity_block", gram_defect, TOL_UNITARITY_BLOCK))
        distances.append(dist)
        distance_tol = _graded(TOL_FINAL_DISTANCE, n)
        checks.append(_check(f"N={n}:sum_gate_block_distance", dist, distance_tol))
        checks.extend(entbs_rows(n))
        checks.extend(heterodyne_rows(n))

    if len(distances) >= 2:
        # negation is exact, so the row's error is the largest rise of the distances
        checks.append(_rising("sum_gate_convergence_monotone", [-d for d in distances]))

    return VerificationReport(
        suite="cv",
        params={"cutoffs": cutoffs, "block_photons": block},
        checks=checks,
        warnings=sorted(set(gaussian.consistency_notes(params))),
        duration_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# qudit synth
# ---------------------------------------------------------------------------

# Peak bytes that ``qudit synth`` allocates per exported entry (one complex
# number of Z, W or F, or one entry of v_perm), from tracemalloc at d = 64 to
# 1024: the JSON export, which holds the payload and streams its text, peaks
# at 120 to 125 bytes per entry, the CSV export, which writes row by row, at
# 24 to 37.
SYNTH_BYTES_PER_ENTRY = 128
SYNTH_SCHEMA = 2
SYNTH_FORMATS = ("json", "csv")

_SYNTH_FIELDS = {"schema": int, "d": numbers.Integral, "matrices": dict, "v_perm": list}
_SYNTH_MATRICES = {"Z": list, "W": list, "F": list}


def _require_synth_fits(d: int) -> None:
    """Refuse, before building anything, a d that is not an integer >= 2, and
    an export whose 4 d^2 entries would take more than DENSE_BYTES_LIMIT (the
    README states the first refused d)."""
    qudit.require_dimension(d)
    entries = 4 * d * d
    fock.require_memory(
        f"qudit synth at d = {d} ({entries} entries)", SYNTH_BYTES_PER_ENTRY * entries
    )


def _matrix_payload(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def synth_payload(gs: qudit.QuditGateSet) -> dict:
    """The gate set as the library holds it: Z, W and F as ``[re, im]``
    pairs, and V as its permutation, V|k> = |v_perm[k]>."""
    return {
        "schema": SYNTH_SCHEMA,
        "d": gs.d,
        "matrices": {name: _matrix_payload(getattr(gs, name)) for name in _SYNTH_MATRICES},
        "v_perm": gs.v_perm.tolist(),
    }


def gateset_from_payload(payload: dict) -> qudit.QuditGateSet:
    """The gate set of a ``qudit synth`` JSON payload of schema 2. A payload
    of another schema, a missing, unknown or mistyped field, a ``d`` below 2,
    a Z, W or F that is not d x d or holds a non-finite entry (``json`` reads
    NaN and Infinity) and a ``v_perm`` that is not a permutation of
    range(d^2) are refused with a ValueError naming the field. The length
    of ``v_perm`` is checked before anything of size d^2 is built."""
    if isinstance(payload, dict) and payload.get("schema", SYNTH_SCHEMA) != SYNTH_SCHEMA:
        raise ValueError(f"payload field 'schema' is {payload['schema']!r}: only schema"
                         f" {SYNTH_SCHEMA} is read; `bellgate qudit synth --d <d>` writes it")
    require_fields(payload, _SYNTH_FIELDS, "payload")
    d, mats, perm = payload["d"], payload["matrices"], payload["v_perm"]
    require_fields(mats, _SYNTH_MATRICES, "payload matrices")
    if d < 2:
        raise ValueError(f"payload field 'd' must be at least 2, got {d!r}")
    dim = d * d
    if len(perm) != dim:
        raise ValueError(f"payload field 'v_perm' has {len(perm)} entries, not d^2 = {dim}")

    def matrix(name: str) -> np.ndarray:
        refusal = ValueError(f"payload {name} is not a {d} x {d} matrix")
        try:
            m = np.array([[complex(re, im) for re, im in row] for row in mats[name]])
        except (TypeError, ValueError) as exc:
            raise refusal from exc
        if m.shape != (d, d):
            raise refusal
        if not np.isfinite(m).all():
            raise ValueError(f"payload {name} has a non-finite entry")
        return m

    z, w, f = (matrix(name) for name in _SYNTH_MATRICES)
    if not all(map(fock.is_integer, perm)) or sorted(perm) != list(range(dim)):
        raise ValueError(f"payload field 'v_perm' is not a permutation of range({dim})")
    return qudit.QuditGateSet(d=d, Z=z, W=w, F=f, v_perm=np.array(perm, dtype=np.int64))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run_qudit_synth(d: int, fmt: str, out: str | None) -> list[Path]:
    """Write the gate set of dimension d as one JSON payload (``synth_payload``)
    or as Z.csv, W.csv and F.csv (``row,col,re,im``) and V.csv (``col,row``,
    the 1 of each column of V) in one directory. Any other ``fmt`` is refused
    before anything is built or written."""
    if fmt not in SYNTH_FORMATS:
        raise ValueError(f"unknown synth format {fmt!r}: expected 'json' or 'csv'")
    _require_synth_fits(d)
    gs = qudit.make_gateset(d)
    if fmt == "json":
        path = Path(out) if out else Path(f"qudit_d{d}.json")
        with path.open("w") as fh:
            json.dump(synth_payload(gs), fh, indent=2)
        written = [path]
    else:
        outdir = Path(out) if out else Path(f"qudit_d{d}_csv")
        outdir.mkdir(parents=True, exist_ok=True)
        written = [outdir / f"{name}.csv" for name in (*_SYNTH_MATRICES, "V")]
        for path, name in zip(written, _SYNTH_MATRICES):
            rows = ((i, j, f"{v.real:.17g}", f"{v.imag:.17g}")
                    for (i, j), v in np.ndenumerate(getattr(gs, name)))
            _write_csv(path, ["row", "col", "re", "im"], rows)
        _write_csv(written[-1], ["col", "row"], enumerate(gs.v_perm.tolist()))
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
    qv.add_argument("--out", default=None, help="also write the JSON report here")
    qs = qsub.add_parser("synth", help="export Z, W, F and the permutation of V")
    qs.add_argument("--d", type=int, required=True)
    qs.add_argument("--format", choices=SYNTH_FORMATS, default="json")
    qs.add_argument("--out", default=None, help="output file (json) or directory (csv)")

    cv_cmd = sub.add_parser("cv", help="continuous-variable suite")
    csub = cv_cmd.add_subparsers(dest="subcommand", required=True)
    cvv = csub.add_parser("verify", help="run the symplectic and Fock sweeps")
    cvv.add_argument("--cutoffs", default="20,30,40", metavar="N1,N2,...")
    cvv.add_argument("--out", default=None, help="also write the JSON report here")

    params_cmd = sub.add_parser("params", help="print the decomposition constants")
    params_cmd.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _emit_report(report: VerificationReport, out: str | None) -> int:
    text = report.to_json()
    if out:
        Path(out).write_text(text)
        _log(f"wrote {out}")
    print(text)
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
    # arrays would not fit in memory included, and OSError, naming the path,
    # for an --out it cannot write
    try:
        if args.subcommand == "synth":
            written = run_qudit_synth(args.d, args.format, args.out)
            print(json.dumps({"written": [str(p) for p in written]}))
            return 0
        if args.out and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
            # refused before the sweep runs, not after it
            raise ValueError(f"cannot write the report to {args.out}: it is a directory"
                             " or its directory does not exist")
        if args.command == "qudit":
            report = run_qudit_verify(*_parse_d_range(args.d))
        else:
            report = run_cv_verify(_parse_cutoffs(args.cutoffs))
        return _emit_report(report, args.out)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
