#!/usr/bin/env python3
"""Convergence study for the continuous-variable side.

Tabulates, per cutoff: the low-block distance between the optical chain and
the direct SUM-gate exponential, the OPA truncation defect, the heterodyne
residual against its sharp limit, and the beam-splitter factorization
fidelity over a sharpness sweep (with the damping-parameter scan that
confirms the matched value). The sharpness and damping values are the ones
``bellgate cv verify`` uses, read from ``bellgate.cli``.

Usage: python scripts/cv_convergence.py [N1,N2,...]
"""

import sys

import numpy as np

from bellgate import cli, fock, gaussian


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

    lam_base = cli.HETERODYNE_BASE_LAMBDA
    print(f"{'N':>4} {'chain_dist':>12} {'opa_defect':>12} {f'het({lam_base})':>10}"
          f" {'het(sharp)':>16}")
    sharp_lams = set()
    for n in cutoffs:
        _, dist, _ = fock.sum_gate_block_checks(n, 10)
        opa_defect = fock.cutoff_convergence_defect(
            lambda m: fock.opa(m, params.alpha), n
        )
        het_lo = fock.heterodyne_eigen_residual(n, lam_base, 1.0)
        lam_hi = cli.heterodyne_lambda(n)
        sharp_lams.add(lam_hi)
        het_hi = fock.heterodyne_eigen_residual(n, lam_hi, 1.0)
        print(f"{n:>4} {dist:>12.3e} {opa_defect:>12.3e} {het_lo:>10.6f}"
              f" {het_hi:>8.6f} @{lam_hi}")
    limits = ", ".join(
        f"{np.sqrt((1 - lam) / (1 + lam)):.6f} at lam={lam}"
        for lam in [lam_base, *sorted(sharp_lams)]
    )
    print(f"(sharp limits sqrt((1-lam)/(1+lam)): {limits})")
    print()

    n = max(cutoffs)
    lam_cap = np.exp(np.log(fock.TAIL_ERROR_TOL) / (2 * (n + 1))) - 1e-9
    print(f"beam-splitter factorization at N={n}:")
    print(f"{'s':>5} {'lam_matched':>12} {'fid(0,0)':>10} {'origin_scan_max':>16}"
          f" {'fid(1,-0.5)':>12}")
    held = cli.entbs_sharpness(n)
    for s in cli.ENTBS_SHARPNESS:
        lam = fock.matched_lambda(s)
        if s not in held:
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
