"""The three benchmark workloads: one operation each, with its output check.

Importing this module imports bellgate, so the caller times the import as
part of set-up. Each workload has

* ``warm_up()``: a small call of the same entry point, paid once in set-up so
  lazy imports and the BLAS thread pool are ready before the first timed
  operation;
* ``operation(rng, tracer)``: one timed call of the entry point. It returns
  the list of failed output checks (empty when every output is correct).

The problem sizes are fixed by the workload; only ``bs_factorization_n60``
has inputs that vary, and it draws them from the seeded ``rng``.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import os

from bellgate import cli, fock
from bellgate.reports import VerificationReport

QUDIT_RANGE = (2, 32)
CV_CUTOFFS = (20, 30, 40)
BS_CUTOFF = 60
BS_SHARPNESS = (0.6, 0.5, 0.4, 0.3)
BS_LAMBDAS = (0.5, 0.9)
BS_Z_RADIUS = 1.2
BS_HETERODYNE_POINTS = 4

# Displaced-point fidelity against exp(-s^2 |z|^2 / 2), per sharpness s. At
# N=60 and |z| <= 1.2 the measured gap is rounding for s >= 0.5 (<= 1.2e-13),
# and truncation for s = 0.4 (<= 4.5e-9) and s = 0.3 (<= 1.8e-5), where the
# matched lambda nears 1; each tolerance leaves a margin of about ten.
TOL_BS_DISPLACED = {0.6: 1e-12, 0.5: 1e-12, 0.4: 5e-8, 0.3: 2e-4}
TOL_BS_ORIGIN = 1e-3
TOL_HETERODYNE_CLOSED = 1e-9
TOL_HETERODYNE_SPREAD = 1e-8

# The acceptance check test_08 holds this point to a 0.999 floor that the
# one-sided regularized reference cannot reach; the benchmark prints it as a
# known failure and does not count it against any operation.
KNOWN_FAILURE_POINT = (1.0, -0.5, 0.5)
KNOWN_FAILURE_FLOOR = 0.999


def _expected_cv_checks() -> list[str]:
    names = [
        "su11_pauli_identity",
        "symplectic_decomposition_vs_target",
        "symplectic_ablation_drop_opa_exceeds_floor",
        "symplectic_ablation_swap_squeezers_exceeds_floor",
        "tau1_matches_mixing_angle",
    ]
    # sharpness values that survive the tail guard at each cutoff
    sharpness = {20: (0.6, 0.5, 0.4), 30: BS_SHARPNESS, 40: BS_SHARPNESS}
    for n in CV_CUTOFFS:
        names += [
            f"N={n}:sum_gate_unitarity_block",
            f"N={n}:sum_gate_block_distance",
            f"N={n}:entbs_origin_fidelity",
            *(f"N={n}:entbs_fidelity_s={s}_at_(1,-0.5)" for s in sharpness[n]),
            f"N={n}:entbs_sharpening_trend",
            f"N={n}:heterodyne_closed_form_lam0.5",
            f"N={n}:heterodyne_monotone_lam0.5_to_0.8",
            f"N={n}:heterodyne_z_independence",
        ]
    return names + ["sum_gate_convergence_monotone"]


def _expected_qudit_checks() -> list[str]:
    names = []
    for d in range(QUDIT_RANGE[0], QUDIT_RANGE[1] + 1):
        names += [f"d={d}:bell_map", f"d={d}:construction_equivalence", f"d={d}:bell_gram"]
        if d == 2:
            names.append("V==CNOT")
    return names


EXPECTED_CHECKS = {"qudit_sweep": _expected_qudit_checks(), "cv_verify": _expected_cv_checks()}


@contextlib.contextmanager
def _quiet():
    """Silence the per-check progress lines the verify commands write to stderr."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
        yield


def _report_failures(workload: str, report: VerificationReport, tracer) -> list[str]:
    """Round-trip the report through JSON, as the command does, and check it."""
    with tracer.span("reports.serialize") if tracer else contextlib.nullcontext():
        back = VerificationReport.from_json(report.to_json())
    failures = [f"check failed: {c.name}" for c in report.checks if not c.passed]
    if [c.name for c in report.checks] != EXPECTED_CHECKS[workload]:
        failures.append("check names differ from the expected list")
    if report.params.get("tol") is not None:
        failures.append("tolerances were overridden")
    if back != report:
        failures.append("report does not survive the JSON round trip")
    return failures


def _draw_point(rng) -> complex:
    """A point uniform in the disc |z| <= BS_Z_RADIUS."""
    return cmath.rect(BS_Z_RADIUS * math.sqrt(rng.random()), 2 * math.pi * rng.random())


class QuditSweep:
    name = "qudit_sweep"
    size = {"d_min": QUDIT_RANGE[0], "d_max": QUDIT_RANGE[1]}

    def warm_up(self) -> None:
        with _quiet():
            cli.run_qudit_verify(2, 8)

    def operation(self, rng, tracer=None) -> list[str]:
        with _quiet():
            report = cli.run_qudit_verify(*QUDIT_RANGE)
        return _report_failures(self.name, report, tracer)


class CvVerify:
    name = "cv_verify"
    size = {"cutoffs": list(CV_CUTOFFS)}

    def warm_up(self) -> None:
        with _quiet():
            cli.run_cv_verify([12])

    def operation(self, rng, tracer=None) -> list[str]:
        with _quiet():
            report = cli.run_cv_verify(list(CV_CUTOFFS))
        return _report_failures(self.name, report, tracer)


class BsFactorization:
    """The fock calls behind acceptance checks 08 and 09, on state vectors."""

    name = "bs_factorization_n60"
    size = {
        "cutoff": BS_CUTOFF, "sharpness": list(BS_SHARPNESS),
        "lambdas": list(BS_LAMBDAS), "z_radius": BS_Z_RADIUS,
        "heterodyne_points": BS_HETERODYNE_POINTS,
    }

    def warm_up(self) -> None:
        fock.entbs_fidelity(20, 0.5, 0.5, 0.5)
        fock.heterodyne_eigen_residual(20, 0.5, 0.5)

    def operation(self, rng, tracer=None) -> list[str]:
        z = _draw_point(rng)
        zs = [_draw_point(rng) for _ in range(BS_HETERODYNE_POINTS)]
        n = BS_CUTOFF
        origin = fock.entbs_fidelity(n, 0.0, 0.0, 0.5)
        displaced = {s: fock.entbs_fidelity(n, z.real, z.imag, s) for s in BS_SHARPNESS}
        residual = {
            lam: [fock.heterodyne_eigen_residual(n, lam, w) for w in zs] for lam in BS_LAMBDAS
        }

        failures = []
        if abs(1.0 - origin) > TOL_BS_ORIGIN:
            failures.append(f"origin fidelity {origin!r}")
        for s, fid in displaced.items():
            closed = math.exp(-s * s * abs(z) ** 2 / 2)
            if not abs(fid - closed) <= TOL_BS_DISPLACED[s]:
                failures.append(f"fidelity at s={s}, z={z}: {fid!r} vs {closed!r}")
        closed = math.sqrt((1 - 0.5) / (1 + 0.5))
        half = residual[0.5]
        if not max(abs(r - closed) for r in half) <= TOL_HETERODYNE_CLOSED:
            failures.append(f"heterodyne residuals {half} vs {closed!r}")
        if not max(half) - min(half) <= TOL_HETERODYNE_SPREAD:
            failures.append(f"heterodyne z-spread {max(half) - min(half)!r}")
        if not all(hi < lo for hi, lo in zip(residual[0.9], half)):
            failures.append("heterodyne residual does not fall from lambda 0.5 to 0.9")
        return failures

    @staticmethod
    def known_failure() -> tuple[str, bool]:
        """test_08's displaced point: a line to print, and whether the fidelity
        matches its closed form (it cannot reach the test's floor)."""
        x, y, s = KNOWN_FAILURE_POINT
        fid = fock.entbs_fidelity(BS_CUTOFF, x, y, s)
        closed = math.exp(-s * s * (x * x + y * y) / 2)
        line = (f"known failure (test_08): fidelity at s={s}, z={complex(x, y)} = {fid:.6f},"
                f" closed form {closed:.6f}, below the floor {KNOWN_FAILURE_FLOOR}"
                f" that the one-sided reference cannot reach; not counted")
        return line, abs(fid - closed) <= TOL_BS_DISPLACED[s]

WORKLOADS = {w.name: w for w in (QuditSweep(), CvVerify(), BsFactorization())}
