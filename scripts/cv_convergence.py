#!/usr/bin/env python3
"""Convergence study for the continuous-variable side.

Tabulates, per cutoff: the low-block distance between the optical chain and
the direct SUM-gate exponential, the OPA truncation defect, the heterodyne
residual against its sharp limit, and the beam-splitter factorization
fidelity over a sharpness sweep (with the damping-parameter scan that
confirms the matched value).

Usage: python scripts/cv_convergence.py [N1,N2,...]
"""

import sys

import numpy as np

from bellgate import fock, gaussian


def main() -> None:
    cutoffs = (
        [int(tok) for tok in sys.argv[1].split(",")] if len(sys.argv) > 1
        else [20, 30, 40]
    )
    params = gaussian.decomposition_params()
    print("exact layer: su(1,1) identity defect =",
          f"{gaussian.su11_pauli_defect(params):.3e},",
          "chain vs target =", f"{gaussian.circuit_vs_target_error(params):.3e}")
    print()

    print(f"{'N':>4} {'chain_dist':>12} {'opa_defect':>12} {'het(0.5)':>10} {'het(sharp)':>16}")
    for n in cutoffs:
        _, dist, _ = fock.sum_gate_block_checks(n, 10)
        opa_defect = fock.cutoff_convergence_defect(
            lambda m: fock.opa(m, params.alpha), n
        )
        het_lo = fock.heterodyne_eigen_residual(n, 0.5, 1.0)
        lam_hi = next(lam for lam in (0.9, 0.8, 0.7, 0.6) if fock.lambda_fits(n, lam))
        het_hi = fock.heterodyne_eigen_residual(n, lam_hi, 1.0)
        print(f"{n:>4} {dist:>12.3e} {opa_defect:>12.3e} {het_lo:>10.6f}"
              f" {het_hi:>8.6f} @{lam_hi}")
    print("(sharp limits sqrt((1-lam)/(1+lam)): 0.577350 at lam=0.5,"
          " 0.420084 at 0.7, 0.229416 at 0.9)")
    print()

    n = max(cutoffs)
    lam_cap = np.exp(np.log(fock.TAIL_ERROR_TOL) / (2 * (n + 1))) - 1e-9
    print(f"beam-splitter factorization at N={n}:")
    print(f"{'s':>5} {'lam_matched':>12} {'fid(0,0)':>10} {'origin_scan_max':>16}"
          f" {'fid(1,-0.5)':>12}")
    for s in (0.6, 0.5, 0.4, 0.3):
        lam = fock.matched_lambda(s)
        if not fock.lambda_fits(n, lam):
            print(f"{s:>5} {lam:>12.4f}   (matched damping needs a larger cutoff)")
            continue
        fid0 = fock.entbs_fidelity(n, 0.0, 0.0, s)
        lo = max(0.05, lam - 0.15)
        hi = min(lam_cap, lam + 0.15)
        grid = np.linspace(lo, hi, 31)
        fids = fock.entbs_fidelity_scan(n, 0.0, 0.0, s, grid)
        fid_disp = fock.entbs_fidelity(n, 1.0, -0.5, s)
        print(f"{s:>5} {lam:>12.4f} {fid0:>10.6f} {grid[np.argmax(fids)]:>16.4f}"
              f" {fid_disp:>12.6f}")
    print("(the origin scan maximum confirms the matched damping value;"
          " displaced-point fidelity is equal to exp(-s^2 |z|^2 / 2))")


if __name__ == "__main__":
    main()
