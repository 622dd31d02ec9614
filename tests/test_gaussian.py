"""Tests for the exact symplectic layer, cross-checked against the Fock space.

The Fock oracle conjugates truncated quadratures with the truncated unitary
of each element and compares against the claimed 4x4 action on a
low-total-photon block, pinning every sign convention numerically. It reads
the unitary only through the images of that block's basis columns.
"""

import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from support import every_state, kron_apply, term_block

from bellgate import fock, gaussian


@pytest.fixture(scope="module")
def params():
    return gaussian.decomposition_params()


def phase_shift_symplectic(theta: float, mode: int = 0) -> np.ndarray:
    """Quadrature rotation of exp(-i theta n): x -> x cos + p sin, p -> -x sin + p cos."""
    c, s = np.cos(theta), np.sin(theta)
    m = np.eye(4)
    m[2 * mode:2 * mode + 2, 2 * mode:2 * mode + 2] = [[c, s], [-s, c]]
    return m


def symplectic_defect(m: np.ndarray) -> float:
    """Entrywise max of M Omega M^T - Omega (zero for exact symplectic matrices)."""
    return float(np.abs(m @ gaussian.OMEGA @ m.T - gaussian.OMEGA).max())


SYMPLECTICS = {
    "squeezer": gaussian.squeezer_symplectic,
    "phase_shift": phase_shift_symplectic,
    "beam_splitter": gaussian.beam_splitter_symplectic,
    "opa": gaussian.opa_symplectic,
    "sum_gate": gaussian.sum_gate_symplectic,
}


def fock_block_error(images, m: np.ndarray, cutoff: int, kmax: int = 6) -> float:
    """Max deviation of U^dag r_i U from sum_j M_ij r_j on total photons <= kmax.

    ``images(block)`` returns C = U[:, block], the images of the block's basis
    columns; the block of U^dag r_i U is C^dag (r_i C), r_i a Kronecker factor.
    """
    block = np.flatnonzero(fock.block_mask(cutoff, kmax))
    c = images(block)
    x = fock.quadrature(cutoff, 0.0)
    p = fock.quadrature(cutoff, np.pi / 2)
    eye = np.eye(cutoff + 1)
    quads = [(x, eye), (p, eye), (eye, x), (eye, p)]
    on_block = [term_block([(1.0, a, b)], cutoff, block, block) for a, b in quads]
    lhs = [c.conj().T @ kron_apply(a, b, c) for a, b in quads]
    rhs = [sum(m[i, j] * on_block[j] for j in range(4)) for i in range(4)]
    return max(np.abs(left - right).max() for left, right in zip(lhs, rhs))


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
        m = phase_shift_symplectic(np.pi / 2, mode=1)
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
        assert symplectic_defect(SYMPLECTICS[kind](**kw)) <= 1e-13

    # each build maps (cutoff, block) to the images of the block's columns
    @pytest.mark.parametrize(
        "kind,kw,build",
        [
            ("squeezer", {"r": 1.3, "mode": 0},
             lambda n, block: term_block(
                 [(1.0, fock.squeezer(n, 1.3), np.eye(n + 1))], n, every_state(n), block)),
            ("phase_shift", {"theta": np.pi / 2, "mode": 1},
             lambda n, block: term_block(
                 [(1.0, np.eye(n + 1), fock.phase_shift(n, np.pi / 2))], n, every_state(n),
                 block)),
            ("beam_splitter", {},
             lambda n, block: fock.mode_mixer(n, np.pi / 4)[:, block]),
            ("opa", {"alpha": 0.7},
             lambda n, block: fock.opa(n, 0.7)[:, block]),
        ],
    )
    def test_fock_oracle_confirms_elements(self, kind, kw, build):
        cutoff = 30
        m = SYMPLECTICS[kind](**kw)
        assert fock_block_error(lambda block: build(cutoff, block), m, cutoff) <= 1e-6

    def test_composition_homomorphism_via_fock(self):
        cutoff = 30
        u1 = fock.opa(cutoff, 0.4)
        u2 = fock.mode_mixer(cutoff, np.pi / 4)
        m1 = gaussian.opa_symplectic(0.4)
        m2 = gaussian.beam_splitter_symplectic()
        assert fock_block_error(lambda block: u1 @ u2[:, block], m1 @ m2, cutoff) <= 1e-6


    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, -np.inf, 0.5j], ids=["nan", "inf", "-inf", "0.5j"]
    )
    @pytest.mark.parametrize(
        "kind, name", [("squeezer", "r"), ("beam_splitter", "theta"), ("opa", "alpha")]
    )
    def test_non_finite_parameter_refused_naming_it(self, kind, name, value):
        # unrefused, squeezer_symplectic(nan) returned a NaN matrix, and
        # beam_splitter_symplectic(0.5j) one with symplectic defect 0.136
        reason = "real" if isinstance(value, complex) else "finite"
        with pytest.raises(
            ValueError, match=f"^{name} must be {reason}, got {re.escape(repr(value))}$"
        ):
            SYMPLECTICS[kind](value)

    def test_non_positive_squeezing_refused_naming_it(self):
        with pytest.raises(ValueError, match=r"^squeezing parameter must be positive, got -0.5$"):
            gaussian.squeezer_symplectic(-0.5)


class TestSumGateTarget:
    def test_frozen_shear(self):
        np.testing.assert_array_equal(
            gaussian.sum_gate_symplectic(),
            [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, -1, 0, 1]],
        )

    def test_shear_is_symplectic(self):
        assert symplectic_defect(gaussian.sum_gate_symplectic()) == 0.0

    def test_fock_oracle_confirms_target_signs(self):
        cutoff = 40
        err = fock_block_error(
            lambda block: fock.sum_gate(cutoff, block), gaussian.sum_gate_symplectic(),
            cutoff,
        )
        assert err <= 1e-6


class TestDecompositionVsTarget:
    def test_chain_composes_to_shear(self, params):
        assert gaussian.circuit_vs_target_error(params) <= 1e-12

    @pytest.mark.parametrize("field", ["alpha", "beta", "r1", "r2"])
    def test_non_finite_parameter_refused(self, params, field):
        # unrefused, alpha = nan gave an error of nan, which fails no "<=" test
        with pytest.raises(ValueError, match="must be finite, got nan$"):
            gaussian.circuit_vs_target_error(replace(params, **{field: np.nan}))

    def test_chain_is_symplectic(self, params):
        assert symplectic_defect(gaussian.circuit_symplectic(params)) <= 1e-13

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
