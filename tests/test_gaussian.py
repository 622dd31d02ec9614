"""Tests for the exact symplectic layer, cross-checked against the Fock space.

The Fock oracle conjugates truncated quadrature matrices with the truncated
unitary of each element and compares against the claimed 4x4 action on a
low-total-photon block, pinning every sign convention numerically.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from bellgate import fock, gaussian


@pytest.fixture(scope="module")
def params():
    return gaussian.decomposition_params()


def fock_block_error(unitary: np.ndarray, m: np.ndarray, cutoff: int, kmax: int = 6) -> float:
    """Max deviation of U^dag r_i U from sum_j M_ij r_j on total photons <= kmax."""
    x = fock.quadrature(cutoff, 0.0).matrix
    p = fock.quadrature(cutoff, np.pi / 2).matrix
    eye = np.eye(cutoff + 1)
    quads = [np.kron(x, eye), np.kron(p, eye), np.kron(eye, x), np.kron(eye, p)]
    sel = np.outer(fock.block_mask(cutoff, kmax), fock.block_mask(cutoff, kmax))
    err = 0.0
    for i in range(4):
        lhs = unitary.conj().T @ quads[i] @ unitary
        rhs = sum(m[i, j] * quads[j] for j in range(4))
        err = max(err, np.abs((lhs - rhs) * sel).max())
    return err


class TestDecompositionParams:
    def test_closed_form_values(self, params):
        assert params.alpha == pytest.approx(-0.5493061443340549, abs=1e-12)
        assert params.alpha == pytest.approx(-np.log(3.0) / 2.0, abs=1e-14)
        assert params.beta == pytest.approx(-np.pi / 6.0, abs=1e-14)
        assert params.gamma == pytest.approx(-0.14384103622589045, abs=1e-12)
        assert params.r1 == pytest.approx(2.0 ** -0.5, abs=1e-15)
        assert params.r2 == pytest.approx((3.0 / 4.0) ** -0.25, abs=1e-15)

    def test_hardware_values(self, params):
        assert params.tau1 == pytest.approx((2.0 + np.sqrt(3.0)) / 4.0, abs=1e-14)
        assert params.g == pytest.approx(-1.0773502691896257, abs=1e-12)
        assert params.g < 0


class TestSu11PauliIdentity:
    def test_lhs_is_unit_lower_triangular(self, params):
        lhs, _ = gaussian.su11_pauli_sides(params)
        np.testing.assert_array_equal(lhs, [[1, 0], [0.5, 1]])

    def test_identity_holds(self, params):
        assert gaussian.su11_pauli_defect(params) <= 1e-14

    def test_closed_form_matches_expm_route(self, params):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)
        kx, ky, kz = 0.5j * sx, 0.5j * sy, 0.5 * sz
        lhs = scipy.linalg.expm(-0.5j * (kx - 1j * ky))
        rhs = (
            scipy.linalg.expm(1j * params.alpha * kx)
            @ scipy.linalg.expm(params.beta * ky)
            @ scipy.linalg.expm(params.gamma * kz)
        )
        lhs_cf, rhs_cf = gaussian.su11_pauli_sides(params)
        np.testing.assert_allclose(lhs, lhs_cf, atol=1e-14)
        np.testing.assert_allclose(rhs, rhs_cf, atol=1e-14)

    def test_sensitive_to_alpha(self, params):
        perturbed = gaussian.DecompositionParams(
            alpha=params.alpha + 1e-3, beta=params.beta, gamma=params.gamma,
            r1=params.r1, r2=params.r2, tau1=params.tau1, g=params.g,
        )
        assert gaussian.su11_pauli_defect(perturbed) > 1e-4


class TestElementSymplectics:
    def test_squeezer_action(self):
        np.testing.assert_allclose(
            gaussian.squeezer_symplectic(1.3, mode=0),
            np.diag([1.3, 1 / 1.3, 1.0, 1.0]),
        )

    def test_phase_shift_quarter_turn(self):
        m = gaussian.phase_shift_symplectic(np.pi / 2, mode=1)
        expected = np.eye(4)
        expected[2:, 2:] = [[0, 1], [-1, 0]]
        np.testing.assert_allclose(m, expected, atol=1e-15)

    @pytest.mark.parametrize(
        "kind,kw",
        [
            ("squeezer", {"r": 0.7, "mode": 0}),
            ("squeezer", {"r": 1.4, "mode": 1}),
            ("beam_splitter", {}),
            ("beam_splitter", {"theta": -np.pi / 12}),
            ("phase_shift", {"theta": np.pi / 2, "mode": 1}),
            ("opa", {"alpha": -0.5}),
            ("sum_gate", {}),
        ],
    )
    def test_symplectic_invariant(self, kind, kw):
        m = getattr(gaussian, f"{kind}_symplectic")(**kw)
        assert gaussian.symplectic_defect(m) <= 1e-13

    @pytest.mark.parametrize(
        "kind,kw,build",
        [
            ("squeezer", {"r": 1.3, "mode": 0},
             lambda n: np.kron(fock.squeezer(n, 1.3).matrix, np.eye(n + 1))),
            ("phase_shift", {"theta": np.pi / 2, "mode": 1},
             lambda n: np.kron(np.eye(n + 1), fock.phase_shift(n, np.pi / 2).matrix)),
            ("beam_splitter", {},
             lambda n: fock.mode_mixer(n, np.pi / 4).matrix),
            ("opa", {"alpha": 0.7},
             lambda n: fock.opa(n, 0.7).matrix),
        ],
    )
    def test_fock_oracle_confirms_elements(self, kind, kw, build):
        cutoff = 30
        m = getattr(gaussian, f"{kind}_symplectic")(**kw)
        assert fock_block_error(build(cutoff), m, cutoff) <= 1e-6

    def test_composition_homomorphism_via_fock(self):
        cutoff = 30
        u1 = fock.opa(cutoff, 0.4).matrix
        u2 = fock.mode_mixer(cutoff, np.pi / 4).matrix
        m1 = gaussian.opa_symplectic(0.4)
        m2 = gaussian.beam_splitter_symplectic()
        assert fock_block_error(u1 @ u2, m1 @ m2, cutoff) <= 1e-6


class TestSumGateTarget:
    def test_frozen_shear(self):
        np.testing.assert_array_equal(
            gaussian.sum_gate_symplectic(),
            [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, -1, 0, 1]],
        )

    def test_shear_is_symplectic(self):
        assert gaussian.symplectic_defect(gaussian.sum_gate_symplectic()) == 0.0

    def test_fock_oracle_confirms_target_signs(self):
        cutoff = 40
        every_state = np.arange((cutoff + 1) ** 2)
        err = fock_block_error(
            fock.sum_gate(cutoff, every_state), gaussian.sum_gate_symplectic(), cutoff
        )
        assert err <= 1e-6


class TestDecompositionVsTarget:
    def test_chain_composes_to_shear(self, params):
        assert gaussian.circuit_vs_target_error(params) <= 1e-12

    def test_chain_is_symplectic(self, params):
        assert gaussian.symplectic_defect(gaussian.circuit_symplectic(params)) <= 1e-13

    def test_dropping_opa_breaks_identity(self, params):
        without = (
            gaussian.beam_splitter_symplectic()
            @ gaussian.squeezer_symplectic(params.r1, 0)
            @ gaussian.squeezer_symplectic(1 / params.r1, 1)
            @ gaussian.beam_splitter_symplectic(params.beta / 2)
            @ gaussian.squeezer_symplectic(1 / params.r2, 0)
            @ gaussian.squeezer_symplectic(params.r2, 1)
        )
        assert np.abs(without - gaussian.sum_gate_symplectic()).max() > 0.1
        # opa_symplectic(0) is exactly the identity, so alpha = 0 drops the OPA
        assert np.array_equal(without, gaussian.circuit_symplectic(replace(params, alpha=0.0)))

    def test_swapping_squeezers_breaks_identity(self, params):
        swapped = replace(params, r1=params.r2, r2=params.r1)
        assert gaussian.circuit_vs_target_error(swapped) > 0.1

    def test_both_identities_share_one_params_instance(self, params):
        assert gaussian.su11_pauli_defect(params) <= 1e-14
        assert gaussian.circuit_vs_target_error(params) <= 1e-12


class TestHardwareParams:
    def test_tau1_value_and_angle_consistency(self, params):
        assert params.tau1 == pytest.approx(0.93301, abs=1e-5)
        assert abs(params.tau1 - np.cos(params.beta / 2) ** 2) <= 1e-5

    def test_negative_gain_is_flagged(self, params):
        assert params.g == pytest.approx(-1.0774, abs=1e-4)
        assert any("negative" in note for note in gaussian.consistency_notes(params))
