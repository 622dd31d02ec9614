"""Acceptance suite: every headline claim at its pinned tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or on
failure). Measured constants that are artifacts of the truncation, not of
the theory, are frozen here with a note of the observed value.
"""

from dataclasses import replace

import numpy as np
import pytest

from bellgate import dket, fock, gaussian, qudit


def _report(label: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return ok


def _random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


@pytest.fixture(scope="module")
def gatesets():
    return {d: qudit.make_gateset(d) for d in range(2, 17)}


@pytest.fixture(scope="module")
def params():
    return gaussian.decomposition_params()


def test_01_qudit_bell_map(gatesets):
    worst = max(qudit.bell_map_max_error(gs) for gs in gatesets.values())
    ok = _report(
        "qudit Bell map V(F|m> kron |n>) = vec(U(m,n))/sqrt(d), d=2..16",
        worst <= 1e-11,
        f"max error {worst:.3e} (tol 1e-11)",
    )
    assert ok


def test_02_construction_equivalence(gatesets):
    # the basis sum is V (G kron I) for the factor G, and V only moves entries
    worst = max(
        np.abs(qudit.v_from_bell_basis(gs) - np.eye(gs.d)).max() for gs in gatesets.values()
    )
    cnot_err = np.abs(qudit.dense_v(gatesets[2]) - np.eye(4)[[0, 1, 3, 2]]).max()
    ok = _report(
        "controlled-shift V equals basis-sum V, d=2..16; V(2) = CNOT",
        worst <= 1e-12 and cnot_err <= 1e-14,
        f"max equivalence error {worst:.3e} (tol 1e-12), CNOT error {cnot_err:.3e} (tol 1e-14)",
    )
    assert ok


def test_03_bell_basis_orthonormal(gatesets):
    worst = max(
        qudit.orthonormality_max_error(gs) / gs.d for gs in gatesets.values()
    )
    ok = _report(
        "Gram matrix of the d^2 Bell vectors equals identity, d=2..16",
        worst <= 1e-12,
        f"max Gram deviation {worst:.3e} (tol 1e-12)",
    )
    assert ok


def test_04_double_ket_identities():
    worst = 0.0
    for d in range(2, 9):
        rng = np.random.default_rng(1000 + d)
        for _ in range(100):
            a, b, c = (_random_complex(rng, d, d) for _ in range(3))
            sandwich = np.einsum("im,jn,mn->ij", a, b, c).reshape(-1)
            worst = max(worst, np.abs(
                dket.apply_sandwich(a, b, c).amplitudes - sandwich
            ).max())
            outer = np.outer(a.reshape(-1), b.reshape(-1).conj()).reshape(d, d, d, d)
            worst = max(worst, np.abs(
                dket.ptrace_first(a, b) - np.einsum("anam->nm", outer)
            ).max())
            worst = max(worst, np.abs(
                dket.ptrace_second(a, b) - np.einsum("ijkj->ik", outer)
            ).max())
    ok = _report(
        "double-ket sandwich and partial-trace identities vs index sums,"
        " 100 random triples per d=2..8",
        worst <= 1e-13,
        f"max entrywise error {worst:.3e} (tol 1e-13)",
    )
    assert ok


def test_05_su11_pauli_identity(params):
    lhs, _ = gaussian.su11_pauli_sides(params)
    lhs_err = np.abs(lhs - np.array([[1, 0], [0.5, 1]])).max()
    defect = gaussian.su11_pauli_defect(params)
    ok = _report(
        "su(1,1) Pauli-realization identity, 2x2 closed form",
        defect <= 1e-14 and lhs_err <= 1e-14,
        f"sides differ by {defect:.3e} (tol 1e-14); LHS is [[1,0],[1/2,1]] to {lhs_err:.1e}",
    )
    assert ok


def test_06_symplectic_decomposition(params):
    err = gaussian.circuit_vs_target_error(params)
    abl_opa = gaussian.circuit_vs_target_error(replace(params, alpha=0.0))
    abl_swap = gaussian.circuit_vs_target_error(replace(params, r1=params.r2, r2=params.r1))
    ok = _report(
        "exact symplectic verification of the five-factor chain",
        err <= 1e-12 and abl_opa > 0.1 and abl_swap > 0.1,
        f"chain vs target {err:.3e} (tol 1e-12);"
        f" ablations: drop OPA {abl_opa:.3f}, swap squeezers {abl_swap:.3f} (floor 0.1)",
    )
    assert ok


def test_07_fock_convergence_of_sum_gate():
    distances = [fock.sum_gate_block_checks(n, 10)[1] for n in (20, 30, 40)]
    monotone = distances[0] > distances[1] > distances[2]
    # measured 9.6e-14 at N=40; frozen threshold leaves two decades of margin
    final_ok = distances[2] <= 1e-11
    ok = _report(
        "Fock-space convergence of the optical chain to the SUM gate,"
        " N=20/30/40 on the 10-photon block",
        monotone and final_ok,
        f"distances {distances[0]:.3e} > {distances[1]:.3e} > {distances[2]:.3e},"
        f" final tol 1e-11",
    )
    assert ok


def test_08_beam_splitter_factorization():
    n = 60
    z = 1.0 - 0.5j
    sharpness = (0.6, 0.5, 0.4, 0.3)
    fid_origin = fock.entbs_fidelity(n, 0.0, 0.0, 0.5)
    sweep = [fock.entbs_fidelity(n, z.real, z.imag, s) for s in sharpness]
    increasing = all(sweep[i] < sweep[i + 1] for i in range(len(sweep) - 1))
    # Against the one-sided reference (D(z) kron I)|lam>> the fidelity is
    # exactly exp(-s^2 |z|^2 / 2) at every cutoff that holds the states (see
    # fock.entbs_fidelity); measured gaps 1e-16, 6.7e-14, 3.5e-9, 1.6e-5 at
    # N=60, the last from truncation.
    closed = [np.exp(-s * s * abs(z) ** 2 / 2) for s in sharpness]
    tols = (1e-12, 1e-12, 5e-8, 2e-4)
    gaps = [abs(f - c) for f, c in zip(sweep, closed)]
    closed_ok = all(g <= t for g, t in zip(gaps, tols))
    # The image itself is (D(z/2) kron D(-conj(z)/2))|lam>>, which tends to the
    # same |D(z)>> in the ideal limit; its amplitude matrix is A M B^T.
    lam = fock.matched_lambda(0.5)
    base = fock.identity_doubleket(n, lam).amplitudes.reshape(n + 1, n + 1)
    split = (
        fock.displacement(n, z / 2).matrix
        @ base
        @ fock.displacement(n, -np.conj(z) / 2).matrix.T
    ).reshape(-1)
    image = fock.entbs_output(n, z.real, z.imag, 0.5).amplitudes
    fid_displaced = abs(np.vdot(split, image)) ** 2 / np.vdot(split, split).real
    ok = _report(
        "beam-splitter image vs matched regularized displaced double-ket, N=60",
        fid_origin > 0.999 and fid_displaced > 0.999 and increasing and closed_ok,
        f"fidelity at origin {fid_origin:.6f} (floor 0.999);"
        f" at (1,-0.5) vs split-displaced image {fid_displaced:.15f} (floor 0.999);"
        f" s-sweep 0.6..0.3 {['%.6f' % f for f in sweep]} increasing={increasing};"
        f" gaps to exp(-s^2|z|^2/2) {['%.1e' % g for g in gaps]}"
        f" (tols {['%.0e' % t for t in tols]})",
    )
    assert ok


def test_09_heterodyne_eigenvector_relation():
    n = 60
    closed = np.sqrt((1 - 0.5) / (1 + 0.5))
    res_base = fock.heterodyne_eigen_residual(n, 0.5, 0.0)
    closed_err = abs(res_base - closed)
    res_lo = fock.heterodyne_eigen_residual(n, 0.5, 1.0)
    res_hi = fock.heterodyne_eigen_residual(n, 0.9, 1.0)
    # z-independence is certified in the converged lam = 0.5 regime that also
    # anchors the closed form; at lam = 0.9 the state's own tail mass above
    # the cutoff (about 3e-6) makes the spread a truncation readout, reported
    # for the record rather than bounded
    spread = max(
        abs(fock.heterodyne_eigen_residual(n, 0.5, z) - res_base)
        for z in (1.0, 1.0 - 0.5j, 2.0j)
    )
    spread_heavy = max(
        abs(fock.heterodyne_eigen_residual(n, 0.9, z)
            - fock.heterodyne_eigen_residual(n, 0.9, 0.0))
        for z in (1.0, 1.0 - 0.5j, 2.0j)
    )
    ok = _report(
        "heterodyne photocurrent eigen-relation on the regularized"
        " displaced double-ket, N=60",
        closed_err <= 1e-9 and res_hi < res_lo and spread <= 1e-8,
        f"closed-form error {closed_err:.3e} (tol 1e-9);"
        f" residual {res_lo:.4f} (lam 0.5) -> {res_hi:.4f} (lam 0.9);"
        f" z-spread {spread:.3e} (tol 1e-8; at lam 0.9 measured {spread_heavy:.1e})",
    )
    assert ok


def test_10_su11_commutator_in_fock_space():
    n = 40
    kx, ky, kz = fock.su11_generators(n)
    mask = fock.block_mask(n, n - 2)
    sel = np.outer(mask, mask)
    comm_err = np.abs((1j * (kx @ ky - ky @ kx) - kz) * sel).max()
    x = fock.quadrature(n, 0.0).matrix
    gen_err = np.abs(
        (-1j * np.kron(x, x) - (-0.5j) * (kx - 1j * ky)) * sel
    ).max()
    ok = _report(
        "su(1,1) commutator and quadrature-product generator identity,"
        " N=40 projected block",
        comm_err <= 1e-12 and gen_err <= 1e-12,
        f"commutator error {comm_err:.3e}, generator error {gen_err:.3e} (tol 1e-12)",
    )
    assert ok
