"""Tests for the truncated Fock-space operators and regularized states."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from bellgate import fock, gaussian

# cutoffs at which the chain exponentials are pinned to dense Pade expm:
# the one- and two-state edge cases, an odd cutoff and a large one
CHAIN_CUTOFFS = [1, 2, 13, 40]


def every_state(n: int) -> np.ndarray:
    """Indices of all (N+1)^2 two-mode basis states."""
    return np.arange((n + 1) ** 2)


# built at import, so the memory the guard tests trace holds none of it
EVERY_STATE_400 = every_state(400)


def dense_sum_gate_chain(n: int, params: gaussian.DecompositionParams) -> np.ndarray:
    """The optical five-factor chain multiplied out from dense Pade exponentials
    of its generators, independent of the sector and chain builders."""
    a = fock._ladder(n)
    ad = a.conj().T

    def squeeze(r):
        return scipy.linalg.expm(0.5 * np.log(r) * (ad @ ad - a @ a))

    def mix(theta):
        return scipy.linalg.expm(theta * (np.kron(ad, a) - np.kron(a, ad)))

    s1, s2 = squeeze(params.r1), squeeze(params.r2)
    amp = scipy.linalg.expm(-(params.alpha / 2) * (np.kron(ad, ad) - np.kron(a, a)))
    return (
        mix(np.pi / 4)
        @ np.kron(s1, s1.conj().T)
        @ amp
        @ mix(params.beta / 2)
        @ np.kron(s2.conj().T, s2)
    )


def vacuum_expectation(op: np.ndarray) -> complex:
    return op[0, 0]


@pytest.fixture
def empty_memo():
    """Start from an empty memo of sector tables, and leave none of the
    test's tables behind."""
    fock._SECTOR_TABLES.clear()
    yield fock._SECTOR_TABLES
    fock._SECTOR_TABLES.clear()


class TestLadderOps:
    def test_annihilation_on_one(self):
        a, _ = fock.mode_ops(5)
        np.testing.assert_allclose(a.matrix @ fock.basis_state(5, 1), fock.basis_state(5, 0))

    def test_creation_on_vacuum(self):
        _, adag = fock.mode_ops(5)
        np.testing.assert_allclose(adag.matrix @ fock.basis_state(5, 0), fock.basis_state(5, 1))

    def test_commutator_identity_below_cutoff(self):
        n = 9
        a, adag = fock.mode_ops(n)
        comm = a.matrix @ adag.matrix - adag.matrix @ a.matrix
        # sqrt(n)^2 rounds at machine epsilon, so "exact" means to eps here
        np.testing.assert_allclose(comm[:n, :n], np.eye(n + 1)[:n, :n], atol=1e-14)

    def test_bad_cutoff(self):
        with pytest.raises(ValueError):
            fock.mode_ops(0)


class TestQuadratures:
    def test_position_real_symmetric(self):
        x = fock.quadrature(8, 0.0).matrix
        assert np.abs(x.imag).max() == 0.0
        np.testing.assert_array_equal(x, x.T)

    def test_canonical_commutator(self):
        n = 10
        x = fock.quadrature(n, 0.0).matrix
        p = fock.quadrature(n, np.pi / 2).matrix
        comm = x @ p - p @ x
        block = slice(0, n - 1)
        np.testing.assert_allclose(
            comm[block, block], 0.5j * np.eye(n + 1)[block, block], atol=1e-14
        )

    def test_vacuum_variance(self):
        x = fock.quadrature(10, 0.0).matrix
        assert vacuum_expectation(x @ x).real == pytest.approx(0.25, abs=1e-14)


class TestDisplacement:
    def test_zero_is_identity(self):
        np.testing.assert_array_equal(fock.displacement(6, 0.0).matrix, np.eye(7))

    def test_coherent_vacuum_overlap(self):
        alpha = 1 + 1j
        d = fock.displacement(40, alpha)
        assert abs(d.matrix[0, 0]) == pytest.approx(
            np.exp(-abs(alpha) ** 2 / 2), abs=1e-8
        )

    def test_inverse_composition(self):
        d_plus = fock.displacement(40, 1.0)
        d_minus = fock.displacement(40, -1.0)
        np.testing.assert_allclose(
            d_plus.matrix @ d_minus.matrix, np.eye(41), atol=1e-8
        )

    def test_unitary_to_rounding(self):
        assert fock.unitarity_defect(fock.displacement(30, 1 + 1j)) <= 1e-12

    @pytest.mark.parametrize("cutoff", CHAIN_CUTOFFS)
    @pytest.mark.parametrize("alpha", [0.8, 0.6j, 1 - 0.5j])
    def test_chain_route_matches_dense_expm(self, cutoff, alpha):
        a = fock._ladder(cutoff)
        gen = alpha * a.conj().T - np.conj(alpha) * a
        np.testing.assert_allclose(
            fock.displacement(cutoff, alpha).matrix, scipy.linalg.expm(gen), rtol=0, atol=1e-12
        )


class TestSqueezer:
    def test_unit_parameter_is_identity(self):
        np.testing.assert_array_equal(fock.squeezer(6, 1.0).matrix, np.eye(7))

    def test_inverse_composition(self):
        s = fock.squeezer(40, 1.3)
        s_inv = fock.squeezer(40, 1 / 1.3)
        np.testing.assert_allclose(s.matrix @ s_inv.matrix, np.eye(41), atol=1e-8)

    def test_invalid_parameter(self):
        with pytest.raises(ValueError):
            fock.squeezer(6, -0.5)

    @pytest.mark.parametrize("cutoff", CHAIN_CUTOFFS)
    @pytest.mark.parametrize("r", [0.6, 1.3])
    def test_chain_route_matches_dense_expm(self, cutoff, r):
        a = fock._ladder(cutoff)
        ad = a.conj().T
        gen = 0.5 * np.log(r) * (ad @ ad - a @ a)
        np.testing.assert_allclose(
            fock.squeezer(cutoff, r).matrix, scipy.linalg.expm(gen), rtol=0, atol=1e-12
        )


class TestPhaseShift:
    def test_zero_angle(self):
        np.testing.assert_array_equal(fock.phase_shift(5, 0.0).matrix, np.eye(6))

    def test_quarter_turns_compose(self):
        quarter = fock.phase_shift(5, np.pi / 2).matrix
        np.testing.assert_allclose(
            quarter @ quarter, fock.phase_shift(5, np.pi).matrix, atol=1e-14
        )

    def test_conjugation_inverts_squeezer(self):
        n, r = 40, 1.2
        quarter = fock.phase_shift(n, np.pi / 2).matrix
        conjugated = quarter @ fock.squeezer(n, r).matrix @ quarter.conj().T
        np.testing.assert_allclose(
            conjugated, fock.squeezer(n, 1 / r).matrix, atol=1e-9
        )


class TestBeamSplitter:
    def test_vacuum_invariant(self):
        v = fock.mode_mixer(8, np.pi / 4).matrix
        np.testing.assert_allclose(
            v @ fock.basis_state(8, 0, 0), fock.basis_state(8, 0, 0), atol=1e-14
        )

    def test_single_photon_splits_evenly(self):
        v = fock.mode_mixer(8, np.pi / 4).matrix
        out = v @ fock.basis_state(8, 1, 0)
        p10 = abs(np.vdot(fock.basis_state(8, 1, 0), out)) ** 2
        p01 = abs(np.vdot(fock.basis_state(8, 0, 1), out)) ** 2
        assert p10 == pytest.approx(0.5, abs=1e-10)
        assert p01 == pytest.approx(0.5, abs=1e-10)
        assert p10 + p01 == pytest.approx(1.0, abs=1e-12)

    def test_unitary(self):
        assert fock.unitarity_defect(fock.mode_mixer(12, np.pi / 4)) <= 1e-10

    def test_number_conservation(self):
        n_tot = np.diag(fock.total_photon_numbers(10).astype(complex))
        v = fock.mode_mixer(10, np.pi / 4).matrix
        assert np.abs(v @ n_tot - n_tot @ v).max() <= 1e-12
        rot = np.kron(np.eye(11), fock.phase_shift(10, np.pi / 2).matrix)
        assert np.abs(rot @ n_tot - n_tot @ rot).max() <= 1e-12

    def test_sector_route_matches_dense_expm(self):
        n = 10
        a = fock._ladder(n)
        gen = (np.pi / 4) * (np.kron(a.conj().T, a) - np.kron(a, a.conj().T))
        np.testing.assert_allclose(
            fock.mode_mixer(n, np.pi / 4).matrix, scipy.linalg.expm(gen), rtol=0, atol=1e-12
        )

    def test_zero_angle_mixer_is_identity(self):
        np.testing.assert_array_equal(fock.mode_mixer(6, 0.0).matrix, np.eye(49))


class TestOpa:
    def test_zero_gain_is_identity(self):
        np.testing.assert_array_equal(fock.opa(6, 0.0).matrix, np.eye(49))

    def test_pair_creation_structure(self):
        out = fock.opa(10, 0.7).matrix @ fock.basis_state(10, 0, 0)
        nonzero = np.flatnonzero(np.abs(out) > 1e-12)
        pairs = np.arange(11) * 12  # indices of |n, n>
        assert set(nonzero) <= set(pairs)

    def test_sector_route_matches_dense_expm(self):
        n, alpha = 10, -0.5493061443340549
        a = fock._ladder(n)
        ad = a.conj().T
        gen = -(alpha / 2) * (np.kron(ad, ad) - np.kron(a, a))
        np.testing.assert_allclose(
            fock.opa(n, alpha).matrix, scipy.linalg.expm(gen), rtol=0, atol=1e-12
        )

    def test_truncation_defect_decreases_with_cutoff(self):
        alpha = -0.5493061443340549
        defects = [
            fock.cutoff_convergence_defect(lambda n: fock.opa(n, alpha), n)
            for n in (20, 30, 40)
        ]
        assert defects[0] > defects[1] > defects[2]


class TestIdentityDoubleKet:
    def test_small_lambda_limit_is_vacuum(self):
        state = fock.identity_doubleket(6, 1e-6)
        assert abs(state.amplitudes[0]) == pytest.approx(1.0, abs=1e-11)

    def test_reduced_state_geometric_ratio(self):
        lam = 0.4
        state = fock.identity_doubleket(12, lam)
        m = state.amplitudes.reshape(13, 13)
        rho = m @ m.conj().T
        off_diag = rho - np.diag(np.diag(rho))
        assert np.abs(off_diag).max() <= 1e-14
        pops = np.diag(rho).real
        ratios = pops[1:6] / pops[:5]
        np.testing.assert_allclose(ratios, lam ** 2, atol=1e-12)

    def test_two_mode_squeezed_vacuum_relation(self):
        lam, n = 0.5, 20
        state = fock.identity_doubleket(n, lam)
        a = fock._ladder(n)
        m = state.amplitudes.reshape(n + 1, n + 1)
        # (a kron I - lam I kron b^dag) annihilates the state
        resid = a @ m - lam * (m @ a)
        assert np.linalg.norm(resid) <= 1e-9

    def test_normalized(self):
        state = fock.identity_doubleket(30, 0.7)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_lambda_too_large_for_cutoff(self):
        with pytest.raises(ValueError, match="too close"):
            fock.identity_doubleket(10, 0.9)

    def test_heavy_tail_warns_but_builds(self):
        state = fock.identity_doubleket(60, 0.9)
        assert any("tail" in w for w in state.warnings)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            fock.identity_doubleket(10, 0.0)
        with pytest.raises(ValueError):
            fock.identity_doubleket(10, 1.0)


class TestHeterodyneResidual:
    def test_closed_form_at_half(self):
        residual = fock.heterodyne_eigen_residual(40, 0.5, 0.0)
        assert residual == pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-9)

    def test_residual_equals_scaled_creation_norm(self):
        # at z = 0 the defect reduces to (1 - lam) * || b^dag |state>> ||
        n, lam = 40, 0.5
        state = fock.identity_doubleket(n, lam)
        m = state.amplitudes.reshape(n + 1, n + 1)
        bdag_norm = np.linalg.norm(m @ fock._ladder(n))
        assert fock.heterodyne_eigen_residual(n, lam, 0.0) == pytest.approx(
            (1 - lam) * bdag_norm, abs=1e-9
        )

    def test_sharper_regularization_shrinks_residual(self):
        res_05 = fock.heterodyne_eigen_residual(60, 0.5, 1.0)
        res_09 = fock.heterodyne_eigen_residual(60, 0.9, 1.0)
        assert res_09 < res_05

    @pytest.mark.parametrize("z", [1.0, 1.0 - 0.5j, 2.0j])
    def test_displacement_independence(self, z):
        base = fock.heterodyne_eigen_residual(60, 0.5, 0.0)
        assert abs(fock.heterodyne_eigen_residual(60, 0.5, z) - base) <= 1e-8

    def test_reshape_route_matches_kron_route(self):
        n, lam, z = 12, 0.4, 0.3 + 0.2j
        state = fock.displaced_identity_doubleket(n, lam, z)
        a = fock._ladder(n)
        eye = np.eye(n + 1)
        zop = np.kron(a, eye) - np.kron(eye, a.conj().T) - z * np.eye((n + 1) ** 2)
        expected = np.linalg.norm(zop @ state.amplitudes)
        assert fock.heterodyne_eigen_residual(n, lam, z) == pytest.approx(
            expected, abs=1e-12
        )


class TestQuadEigenstate:
    def test_unsqueezed_origin_is_vacuum(self):
        state = fock.quad_eigenstate_approx(10, 0.0, 0.0, 1.0)
        np.testing.assert_allclose(state.amplitudes, fock.basis_state(10, 0), atol=1e-14)

    def test_mean_position(self):
        n = 120
        state = fock.quad_eigenstate_approx(n, 0.7, 0.0, 0.3)
        x = fock.quadrature(n, 0.0).matrix
        mean = np.vdot(state.amplitudes, x @ state.amplitudes).real
        assert mean == pytest.approx(0.7, abs=1e-8)

    def test_rotated_mean_follows_quadrature(self):
        n = 120
        state = fock.quad_eigenstate_approx(n, 0.7, np.pi / 2, 0.3)
        p = fock.quadrature(n, np.pi / 2).matrix
        mean = np.vdot(state.amplitudes, p @ state.amplitudes).real
        assert mean == pytest.approx(0.7, abs=1e-8)

    def test_variance_set_by_sharpness(self):
        n, s = 120, 0.3
        state = fock.quad_eigenstate_approx(n, 0.0, 0.0, s)
        x = fock.quadrature(n, 0.0).matrix
        var = np.vdot(state.amplitudes, x @ x @ state.amplitudes).real
        assert var == pytest.approx(s ** 2 / 4.0, abs=1e-6)

    def test_heavy_tail_warns(self):
        state = fock.quad_eigenstate_approx(60, 0.7, 0.0, 0.3)
        assert any("tail" in w for w in state.warnings)

    def test_sharpness_validation(self):
        with pytest.raises(ValueError):
            fock.quad_eigenstate_approx(10, 0.0, 0.0, 0.0)


class TestSumGate:
    def test_spectral_route_matches_dense_expm(self):
        n = 12
        p = fock.quadrature(n, np.pi / 2).matrix
        x = fock.quadrature(n, 0.0).matrix
        dense = scipy.linalg.expm(-2j * np.kron(p, x))
        np.testing.assert_allclose(
            fock.sum_gate(n, every_state(n)), dense, rtol=0, atol=1e-12
        )

    def test_circuit_unitary_on_inner_block(self):
        # the Gram defect of the images of the total <= N/2 basis columns
        gram_defect, _, _ = fock.sum_gate_block_checks(20, 10)
        assert gram_defect <= 1e-6

    def test_block_distance_shrinks_with_cutoff(self):
        _, d20, _ = fock.sum_gate_block_checks(20, 10)
        _, d30, _ = fock.sum_gate_block_checks(30, 10)
        assert d30 < d20

    @pytest.mark.parametrize("n", [12, 20, 30])
    def test_block_distance_matches_direct_block_route(self, n):
        # the 10-photon block holds more than the total <= N/2 block at N=12,
        # the same at N=20 and less at N=30
        block = np.flatnonzero(fock.block_mask(n, 10))
        direct = fock.phase_aligned_block_distance(
            fock.sum_gate(n, block), fock.sum_gate_circuit(n, block).matrix[block],
            np.ones(block.size, dtype=bool),
        )
        _, distance, _ = fock.sum_gate_block_checks(n, 10)
        assert distance == pytest.approx(direct, rel=0, abs=1e-15)

    def test_vacuum_image_agreement(self):
        n = 30
        target = fock.sum_gate(n, every_state(n))[:, 0]
        circuit = fock.sum_gate_circuit(n, [0]).matrix[:, 0]
        phase = np.vdot(circuit, target)
        phase /= abs(phase)
        assert np.linalg.norm(target - phase * circuit) <= 1e-4


class TestSumGateColumns:
    @pytest.fixture(scope="class", params=[12, 20])
    def dense_chain(self, request):
        n = request.param
        return n, dense_sum_gate_chain(n, gaussian.decomposition_params())

    @staticmethod
    def column_set(n: int, which: str) -> np.ndarray:
        dim = (n + 1) ** 2
        return {
            "half_block": np.flatnonzero(fock.block_mask(n, n // 2)),
            # unsorted, from the top corner |N, N> down to the vacuum
            "scattered": np.array([dim - 1, 3 * (n + 1) + 5, 0, n, 7 * (n + 1)]),
            "all": np.arange(dim),
        }[which]

    @pytest.mark.parametrize("which", ["half_block", "scattered", "all"])
    def test_column_images_match_dense_chain(self, dense_chain, which):
        n, dense = dense_chain
        columns = self.column_set(n, which)
        out = fock.sum_gate_circuit(n, columns=columns)
        np.testing.assert_array_equal(out.columns, columns)
        np.testing.assert_allclose(out.matrix, dense[:, columns], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [12, 20])
    @pytest.mark.parametrize("which", ["half_block", "scattered"])
    def test_sum_gate_block_matches_dense(self, n, which):
        block = self.column_set(n, which)
        np.testing.assert_allclose(
            fock.sum_gate(n, block), fock.sum_gate(n, every_state(n))[np.ix_(block, block)],
            rtol=0, atol=1e-13,
        )

    def test_warnings_match_dense_factors(self, monkeypatch):
        # every defect exceeds a negative threshold, so each factor warns
        monkeypatch.setattr(fock, "UNITARITY_WARN_TOL", -1.0)
        n, params = 12, gaussian.decomposition_params()
        expected = (
            fock.squeezer(n, params.r1).warnings
            + fock.squeezer(n, params.r2).warnings
            + fock.opa(n, params.alpha).warnings
        )
        assert len(expected) == 3
        assert fock.sum_gate_circuit(n, columns=[0, 5, 40]).warnings == expected
        assert fock.sum_gate_block_checks(n, 6)[2] == expected

    def test_half_block_builds_no_two_mode_matrix(self):
        # the dense route held 1681^2 complex factors: a 172.6 MB peak at N=40
        n = 40
        half = np.flatnonzero(fock.block_mask(n, n // 2))
        tracemalloc.start()
        try:
            fock.sum_gate_circuit(n, columns=half)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    @pytest.mark.parametrize(
        "columns", [[], [[0, 1]], [0, 169], [-1], np.ones(169, dtype=bool), [0.0, 1.0]]
    )
    def test_bad_indices_rejected(self, columns):
        with pytest.raises(ValueError, match="basis indices"):
            fock.sum_gate_circuit(12, columns=columns)
        with pytest.raises(ValueError, match="basis indices"):
            fock.sum_gate(12, columns)


class TestDenseGuard:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: fock.mode_mixer(400, np.pi / 4),
            lambda: fock.opa(400, 0.5),
            lambda: fock.sum_gate_circuit(400, EVERY_STATE_400),
            lambda: fock.sum_gate(400, EVERY_STATE_400),
            lambda: fock.su11_generators(400),
        ],
    )
    def test_oversized_two_mode_operator_refused_before_allocating(self, build):
        # 401^4 complex entries are 413711385616 bytes, far above the limit: a
        # dense operator, or every basis state's image column or eigenbasis row
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cutoff 400 needs 413711385616 bytes"):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_column_route_runs_beyond_the_dense_limit(self):
        # 91^4 complex entries are 1097199376 bytes: cutoff 90 is the first refused
        with pytest.raises(ValueError, match="cutoff 90 needs 1097199376 bytes"):
            fock.sum_gate_circuit(90, every_state(90))
        assert fock.sum_gate_circuit(90, columns=[0]).matrix.shape == (91 ** 2, 1)

    def test_opa_sector_blocks_refused_before_allocating(self):
        # sum_d (1001 - |d|)^2 = 668669001 complex entries in the OPA's sector
        # blocks at cutoff 1000, though a single column's image is 16 MB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cutoff 1000 needs 10698704016 bytes"):
                fock.sum_gate_circuit(1000, columns=[0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("cutoff, max_total", [(4, 0), (4, 3), (4, 4), (4, 5), (4, 7),
                                                   (4, 8), (4, 9), (13, 6), (13, 20)])
    def test_state_count_matches_block_mask(self, cutoff, max_total):
        count = fock.block_mask(cutoff, max_total).sum()
        assert fock._states_up_to(cutoff, max_total) == count

    def test_block_checks_refused_before_the_mask(self):
        # cutoff 150 is the largest whose columns of total <= 75 fit; at
        # cutoff 10^5 even the (N+1)^2 block mask would take 10 GB
        assert fock.require_block_checks_fit(150, 10) == 75
        with pytest.raises(ValueError, match="cutoff 151 needs 1081636864 bytes"):
            fock.require_block_checks_fit(151, 10)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cutoff 100000 needs"):
                fock.sum_gate_block_checks(10**5, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestEntbs:
    def test_matched_lambda_closed_form(self):
        assert fock.matched_lambda(0.5) == pytest.approx(0.6, abs=1e-15)
        assert fock.matched_lambda(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_origin_fidelity_high(self):
        assert fock.entbs_fidelity(40, 0.0, 0.0, 0.5) >= 0.999

    def test_scan_peaks_at_matched_lambda(self):
        lams = np.arange(0.40, 0.81, 0.05)
        fids = fock.entbs_fidelity_scan(40, 0.0, 0.0, 0.5, lams)
        assert lams[np.argmax(fids)] == pytest.approx(fock.matched_lambda(0.5), abs=0.051)

    def test_output_normalized(self):
        out = fock.entbs_output(30, 0.5, -0.3, 0.5)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-10)

    def test_sector_route_matches_dense_beam_splitter(self):
        n, x, y, s = 30, 0.5, -0.3, 0.5
        in_a = fock.quad_eigenstate_approx(n, x / np.sqrt(2.0), 0.0, s)
        in_b = fock.quad_eigenstate_approx(n, y / np.sqrt(2.0), np.pi / 2.0, s)
        dense = fock.mode_mixer(n, np.pi / 4).matrix @ np.kron(in_a.amplitudes, in_b.amplitudes)
        np.testing.assert_allclose(
            fock.entbs_output(n, x, y, s).amplitudes, dense, rtol=0, atol=1e-13
        )

    def test_output_builds_no_two_mode_matrix(self, empty_memo):
        # a dense N=60 two-mode matrix alone is 3721^2 complex entries, 221 MB;
        # the bound also covers building the 2.3 MB table of splitter blocks
        tracemalloc.start()
        try:
            fock.entbs_output(60, 1.0, -0.5, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


@pytest.mark.usefixtures("empty_memo")
class TestSectorMemo:
    @pytest.mark.parametrize(
        "build, attr",
        [
            (lambda: fock.entbs_output(60, 1, -0.5, 0.5), "amplitudes"),
            (lambda: fock.sum_gate_circuit(20, np.flatnonzero(fock.block_mask(20, 10))), "matrix"),
            (lambda: fock.mode_mixer(12, np.pi / 4), "matrix"),
            (lambda: fock.opa(10, 0.7), "matrix"),
        ],
        ids=["entbs_output", "sum_gate_circuit", "mode_mixer", "opa"],
    )
    def test_warm_call_equals_cold_call(self, monkeypatch, build, attr):
        # every unitarity defect exceeds a negative threshold, so the OPA
        # warning, taken from its table, is part of what must repeat
        monkeypatch.setattr(fock, "UNITARITY_WARN_TOL", -1.0)
        cold = build()
        built = dict(fock._SECTOR_TABLES)
        warm = build()
        assert built and all(fock._SECTOR_TABLES[key] is table for key, table in built.items())
        assert np.array_equal(getattr(cold, attr), getattr(warm, attr))
        assert cold.warnings == warm.warnings

    def test_cached_indices_and_blocks_are_read_only(self):
        fock.mode_mixer(6, 0.3)
        fock.opa(6, 0.3)
        assert len(fock._SECTOR_TABLES) == 2
        for table in fock._SECTOR_TABLES.values():
            for idx, block in table.blocks:
                with pytest.raises(ValueError):
                    idx[0] = 0
                with pytest.raises(ValueError):
                    block[0, 0] = 7

    def test_table_size_is_the_closed_form(self):
        for n in (1, 2, 13):
            for conserved in ("total", "difference"):
                table = fock._sector_table(n, conserved, 0.3)
                assert sum(block.nbytes for _, block in table.blocks) == table.nbytes
                assert table.nbytes == fock._sector_table_bytes(n)

    def test_least_recently_used_table_goes_first(self, monkeypatch):
        # tables of 98896, 317936 and 735376 bytes at N = 20, 30 and 40: the
        # three exceed 1 MiB together, and 20 and 40 fit without 30
        monkeypatch.setattr(fock, "DENSE_BYTES_LIMIT", 2**20)
        for n in (20, 30, 20, 40):
            fock._sector_table(n, "total", 0.3)
            assert sum(t.nbytes for t in fock._SECTOR_TABLES.values()) <= 2**20
        assert [key[0] for key in fock._SECTOR_TABLES] == [20, 40]

    def test_threads_share_the_memo_within_its_bound(self, monkeypatch):
        # more threads than cores, each cycling through more tables than fit
        monkeypatch.setattr(fock, "DENSE_BYTES_LIMIT", 2**16)
        errors, held = [], []

        def work(seed):
            try:
                for i in range(40):
                    n = 4 + (seed + i) % 9
                    fock._sector_table(n, "total", 0.1 * (i % 3))
                    held.append(sum(t.nbytes for t in list(fock._SECTOR_TABLES.values())))
            except Exception as exc:  # noqa: BLE001 - reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(held) == 240 and max(held) <= 2**16

    def test_tables_are_kept_apart_by_scale(self):
        n, theta = 12, 0.3
        fock.mode_mixer(n, np.pi / 4)
        a = fock._ladder(n)
        dense = scipy.linalg.expm(theta * (np.kron(a.conj().T, a) - np.kron(a, a.conj().T)))
        np.testing.assert_allclose(fock.mode_mixer(n, theta).matrix, dense, rtol=0, atol=1e-13)
        assert len(fock._SECTOR_TABLES) == 2

    @pytest.mark.parametrize(
        "build",
        [
            lambda: fock.entbs_output(465, 0.0, 0.0, 0.5),
            lambda: fock.entbs_fidelity(465, 0.0, 0.0, 0.5),
            lambda: fock.entbs_fidelity_scan(465, 0.0, 0.0, 0.5, [0.6]),
        ],
        ids=["entbs_output", "entbs_fidelity", "entbs_fidelity_scan"],
    )
    def test_oversized_splitter_refused_before_the_states(self, build):
        # the N=465 splitter blocks hold 67463286 complex entries; the
        # quadrature states alone would trace more than 1 MiB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cutoff 465 needs 1079412576 bytes"):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert not fock._SECTOR_TABLES
        fock._require_sectors_fit(464)  # the largest table that fits


class TestSu11Generators:
    def test_commutator_on_inner_block(self):
        n = 20
        kx, ky, kz = fock.su11_generators(n)
        mask = fock.block_mask(n, n - 2)
        sel = np.outer(mask, mask)
        resid = (1j * (kx @ ky - ky @ kx) - kz) * sel
        assert np.abs(resid).max() <= 1e-12

    def test_quadrature_product_generator_identity(self):
        n = 14
        kx, ky, _ = fock.su11_generators(n)
        x = fock.quadrature(n, 0.0).matrix
        xx = np.kron(x, x)
        np.testing.assert_allclose(xx, 0.5 * (kx - 1j * ky), atol=1e-13)


class TestTruncationDiagnostics:
    @pytest.mark.parametrize(
        "build",
        [
            lambda n: fock.displacement(n, 1 + 1j),
            lambda n: fock.squeezer(n, 1.3),
        ],
    )
    def test_single_mode_convergence(self, build):
        d_small = fock.cutoff_convergence_defect(build, 20)
        d_large = fock.cutoff_convergence_defect(build, 32)
        assert d_large < d_small

    def test_block_distance_rejects_zero_pivot(self):
        mask = fock.block_mask(4, 2)
        with pytest.raises(ValueError, match="vanishes"):
            fock.phase_aligned_block_distance(np.eye(25), np.zeros((25, 25)), mask)

    def test_validation(self):
        with pytest.raises(ValueError):
            fock.FockOperator(3, 2, np.eye(4))
        with pytest.raises(ValueError):
            fock.RegularizedState(3, 1, np.zeros(3))
        with pytest.raises(ValueError):
            fock.basis_state(4, 5)


class TestLibraryBoundary:
    @pytest.mark.parametrize(
        "builder, name",
        [("displacement", "alpha"), ("squeezer", "r"), ("mode_mixer", "theta"), ("opa", "alpha_param")],
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, builder, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            getattr(fock, builder)(8, value)

    def test_stored_arrays_are_read_only(self):
        op = fock.displacement(4, 0.5)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 7
        state = fock.identity_doubleket(4, 0.3)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1
        requested = np.array([0, 3])
        images = fock.sum_gate_circuit(4, columns=requested)
        with pytest.raises(ValueError):
            images.matrix[0, 0] = 7
        with pytest.raises(ValueError):
            images.columns[0] = 1
        requested[0] = 1  # the caller's array is copied, not frozen
