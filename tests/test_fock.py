"""Tests for the truncated Fock-space operators and regularized states."""

import functools
import inspect
import os
import pathlib
import re
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from support import (
    compose, every_state, full_height_block_checks, full_height_chain, gather_scatter, kron_apply,
    ladder, padded_doubleket_tail, refused_peak, sector_indices, su11_terms, term_block,
    traced_peak, truncation_defect, two_basis_displacement, two_basis_sum_gate,
)

from bellgate import cli, fock, gaussian

# cutoffs at which the chain exponentials are pinned to dense Pade expm:
# the one- and two-state edge cases, an odd cutoff and a large one
CHAIN_CUTOFFS = [1, 2, 13, 40]


# built at import, so the memory the guard tests trace holds none of it
EVERY_STATE_400 = every_state(400)

# the displaced double-kets whose tails are held to the full padded build:
# every point of the grid whose matched lambda fits its cutoff (45 of 60)
TAIL_GRID = [(n, s, z) for n in (12, 20, 40, 60) for s in (0.6, 0.4, 0.3)
             for z in (0, 0.3, 1 - 0.5j, 2j, 3) if fock.lambda_fits(n, fock.matched_lambda(s))]


def basis_state(cutoff: int, *ns: int) -> np.ndarray:
    """Number state |n> or |n_a, n_b> as a dense vector."""
    dims = (cutoff + 1,) * len(ns)
    return np.eye(np.prod(dims), dtype=complex)[np.ravel_multi_index(ns, dims)]


@functools.cache
def dense_sum_gate(n: int) -> np.ndarray:
    """exp(-2i X_{pi/2} kron X_0) as a dense Pade exponential, read-only."""
    p, x = fock.quadrature(n, np.pi / 2), fock.quadrature(n, 0.0)
    dense = scipy.linalg.expm(-2j * np.kron(p, x))
    dense.setflags(write=False)
    return dense


@functools.cache
def dense_sum_gate_chain(n: int, params: gaussian.DecompositionParams) -> np.ndarray:
    """The factors of ``gaussian.circuit_factors`` as dense Pade exponentials
    of their generators, multiplied in operator order, independent of the
    sector and chain builders; read-only."""
    a = ladder(n)
    ad = a.conj().T

    def squeezers(r, mode):
        s = scipy.linalg.expm(0.5 * np.log(r) * (ad @ ad - a @ a))
        return np.kron(s, s.conj().T) if mode == 0 else np.kron(s.conj().T, s)

    dense = {
        "mixer": lambda theta: scipy.linalg.expm(theta * (np.kron(ad, a) - np.kron(a, ad))),
        "opa": lambda alpha: scipy.linalg.expm(-(alpha / 2) * (np.kron(ad, ad) - np.kron(a, a))),
        "squeezers": squeezers,
    }
    chain = functools.reduce(np.matmul, (
        dense[kind](*args) for kind, *args in gaussian.circuit_factors(params)))
    chain.setflags(write=False)
    return chain


def mass_outside_box(amps: np.ndarray, cutoff: int) -> float:
    """Share of a state's mass outside the first N+1 levels of each mode;
    ``amps`` has one axis per mode."""
    mass = np.abs(amps) ** 2
    return float(1.0 - mass[(slice(0, cutoff + 1),) * amps.ndim].sum() / mass.sum())


def tail_in_warning(warnings: tuple[str, ...], label: str) -> float:
    """The tail mass that the warning on ``label`` reports."""
    (tail,) = [float(w.split("tail mass ")[1].split()[0]) for w in warnings if label in w]
    return tail


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
    """The ladder matrix that the tests' generators and references are built from."""

    def test_annihilation_on_one(self):
        np.testing.assert_allclose(ladder(5) @ basis_state(5, 1), basis_state(5, 0))

    def test_creation_on_vacuum(self):
        adag = ladder(5).conj().T
        np.testing.assert_allclose(adag @ basis_state(5, 0), basis_state(5, 1))

    def test_commutator_identity_below_cutoff(self):
        n = 9
        a = ladder(n)
        adag = a.conj().T
        comm = a @ adag - adag @ a
        # sqrt(n)^2 rounds at machine epsilon, so "exact" means to eps here
        np.testing.assert_allclose(comm[:n, :n], np.eye(n + 1)[:n, :n], atol=1e-14)


class TestQuadratures:
    def test_position_real_symmetric(self):
        x = fock.quadrature(8, 0.0)
        assert np.abs(x.imag).max() == 0.0
        np.testing.assert_array_equal(x, x.T)

    def test_canonical_commutator(self):
        n = 10
        x = fock.quadrature(n, 0.0)
        p = fock.quadrature(n, np.pi / 2)
        comm = x @ p - p @ x
        block = slice(0, n - 1)
        np.testing.assert_allclose(
            comm[block, block], 0.5j * np.eye(n + 1)[block, block], atol=1e-14
        )

    def test_vacuum_variance(self):
        x = fock.quadrature(10, 0.0)
        assert vacuum_expectation(x @ x).real == pytest.approx(0.25, abs=1e-14)

    @pytest.mark.parametrize("phi", [0.0, np.pi / 2, 0.3])
    @pytest.mark.parametrize("n", [1, 12, 40, 200])
    def test_off_diagonals_equal_the_ladder_form(self, n, phi):
        # bit for bit, so every eigenbasis read off it is unchanged
        a = ladder(n)
        expected = 0.5 * (np.exp(1j * phi) * a.conj().T + np.exp(-1j * phi) * a)
        assert np.array_equal(fock.quadrature(n, phi), expected)

    def test_quadrature_traces_about_its_own_bytes(self, empty_memo):
        # only the matrix, 1.01 times an eigenbasis's bytes at N = 510 here;
        # built from a complex ladder, its adjoint and two phased copies it
        # traced 3.06
        peak = traced_peak(lambda: fock.quadrature(510, np.pi / 2))
        assert peak <= 1.2 * fock._eigenbasis_bytes(510)

    def test_quadrature_basis_traces_below_its_count(self, empty_memo):
        # the complex X_0 and the real eigenbasis the memo keeps, 1.50 times
        # the count of a complex basis at N = 510; the complex eigh of
        # X_{pi/2} the memo once kept traced 2.00
        peak = traced_peak(lambda: fock._quadrature_basis(510))
        assert peak <= 1.6 * fock._eigenbasis_bytes(510)


# a chain link: complex, of modulus up to 4, and often exactly 0
CHAIN_LINKS = st.one_of(st.just(0j), st.complex_numbers(max_magnitude=4))
# the same up to modulus 1e6, beyond any link a constructor forms at the
# cutoffs the checks use
LARGE_CHAIN_LINKS = st.one_of(st.just(0j), st.complex_numbers(max_magnitude=1e6))
# a real link, the only kind the library's tables are built from
REAL_CHAIN_LINKS = st.one_of(st.just(0.0), st.floats(-4, 4))


class TestChainExpm:
    """The exponential every factor is built from, against dense Pade expm."""

    # n sites take n - 1 links: odd n makes X one row taller, even n square;
    # the examples are 5 sites and 90 sites, each with zero links inside
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 90).flatmap(
        lambda n: st.lists(CHAIN_LINKS, min_size=n - 1, max_size=n - 1)))
    @example([1.0, -2j, 0.0, 3.5 + 1j])
    @example([0.0 if k % 7 == 3 else 4 * np.exp(0.3j * k) for k in range(89)])
    def test_matches_dense_expm(self, links):
        sub = np.array(links, dtype=complex)
        gen = np.diag(sub, -1) - np.diag(sub.conj(), 1)
        np.testing.assert_allclose(
            fock._chain_expm(sub), scipy.linalg.expm(gen), rtol=0, atol=1e-12
        )

    # n sites take n - 1 links, cycled from a short drawn pattern so that a
    # 300-site chain costs no more to draw than a short one
    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 300), st.lists(LARGE_CHAIN_LINKS, min_size=1, max_size=40))
    @example(300, [1e6])
    @example(299, [0.0, 1e6 * np.exp(0.7j), 3e-3, -1e6])
    def test_unitary_to_rounding_at_any_link_modulus(self, n, pattern):
        # the premise of carrying no unitarity warning: the truncated
        # generator is exactly anti-Hermitian, so only rounding is left
        sub = np.resize(np.array(pattern, dtype=complex), n - 1)
        assert fock.unitarity_defect(fock._chain_expm(sub)) <= 1e-12

    def test_zero_chain_is_exact_identity(self):
        for n in (1, 2, 7, 8):
            np.testing.assert_array_equal(fock._chain_expm(np.zeros(n - 1)), np.eye(n))

    # the real generator is real antisymmetric, so its exponential is real
    # orthogonal and read off a real SVD
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 90).flatmap(
        lambda n: st.lists(REAL_CHAIN_LINKS, min_size=n - 1, max_size=n - 1)))
    @example([1.0, -2.0, 0.0, 3.5])
    @example([0.0 if k % 7 == 3 else 4 * np.cos(0.3 * k) for k in range(89)])
    def test_real_links_give_a_real_exponential(self, links):
        sub = np.array(links, dtype=float)
        out = fock._chain_expm(sub)
        assert out.dtype == np.float64
        gen = np.diag(sub, -1) - np.diag(sub, 1)
        np.testing.assert_allclose(out, scipy.linalg.expm(gen), rtol=0, atol=1e-12)


class TestDisplacement:
    def test_zero_is_identity(self):
        np.testing.assert_array_equal(fock.displacement(6, 0.0), np.eye(7))

    def test_coherent_vacuum_overlap(self):
        alpha = 1 + 1j
        d = fock.displacement(40, alpha)
        assert abs(d[0, 0]) == pytest.approx(
            np.exp(-abs(alpha) ** 2 / 2), abs=1e-8
        )

    def test_inverse_composition(self):
        d_plus = fock.displacement(40, 1.0)
        d_minus = fock.displacement(40, -1.0)
        np.testing.assert_allclose(
            d_plus @ d_minus, np.eye(41), atol=1e-8
        )

    def test_unitary_to_rounding(self):
        assert fock.unitarity_defect(fock.displacement(30, 1 + 1j)) <= 1e-12

    # 60 and 72 are the cutoffs of the N=60 states and of their padded builds
    @pytest.mark.parametrize("cutoff", CHAIN_CUTOFFS + [60, 72])
    @pytest.mark.parametrize("alpha", [0.8, 0.6j, 1 - 0.5j, 1.7, 1.2j])
    def test_chain_route_matches_dense_expm(self, cutoff, alpha):
        a = ladder(cutoff)
        gen = alpha * a.conj().T - np.conj(alpha) * a
        np.testing.assert_allclose(
            fock.displacement(cutoff, alpha), scipy.linalg.expm(gen), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("cutoff", [12, 20, 40, 80, 150])
    @pytest.mark.parametrize("alpha", [0.3, 1 - 0.5j, -0.7j])
    def test_real_basis_route_matches_the_complex_eigh_route(self, cutoff, alpha):
        # the memo's real basis of X_0, turned by diag(i^n), against a
        # complex eigh of X_{pi/2}: 1.0e-14 apart at most here
        np.testing.assert_allclose(fock.displacement(cutoff, alpha),
                                   two_basis_displacement(cutoff, alpha), rtol=0, atol=1e-13)


class TestSqueezer:
    def test_unit_parameter_is_identity(self):
        np.testing.assert_array_equal(fock.squeezer(6, 1.0), np.eye(7))

    def test_inverse_composition(self):
        s = fock.squeezer(40, 1.3)
        s_inv = fock.squeezer(40, 1 / 1.3)
        np.testing.assert_allclose(s @ s_inv, np.eye(41), atol=1e-8)

    def test_invalid_parameter(self):
        with pytest.raises(ValueError):
            fock.squeezer(6, -0.5)

    @pytest.mark.parametrize("cutoff", CHAIN_CUTOFFS)
    @pytest.mark.parametrize("r", [0.6, 1.3])
    def test_chain_route_matches_dense_expm(self, cutoff, r):
        a = ladder(cutoff)
        ad = a.conj().T
        gen = 0.5 * np.log(r) * (ad @ ad - a @ a)
        np.testing.assert_allclose(
            fock.squeezer(cutoff, r), scipy.linalg.expm(gen), rtol=0, atol=1e-12
        )


class TestPhaseShift:
    def test_zero_angle(self):
        np.testing.assert_array_equal(fock.phase_shift(5, 0.0), np.eye(6))

    def test_quarter_turns_compose(self):
        quarter = fock.phase_shift(5, np.pi / 2)
        np.testing.assert_allclose(
            quarter @ quarter, fock.phase_shift(5, np.pi), atol=1e-14
        )

    def test_conjugation_inverts_squeezer(self):
        n, r = 40, 1.2
        quarter = fock.phase_shift(n, np.pi / 2)
        conjugated = quarter @ fock.squeezer(n, r) @ quarter.conj().T
        np.testing.assert_allclose(
            conjugated, fock.squeezer(n, 1 / r), atol=1e-9
        )


class TestBeamSplitter:
    def test_vacuum_invariant(self):
        v = fock.mode_mixer(8, np.pi / 4)
        np.testing.assert_allclose(
            v @ basis_state(8, 0, 0), basis_state(8, 0, 0), atol=1e-14
        )

    def test_single_photon_splits_evenly(self):
        v = fock.mode_mixer(8, np.pi / 4)
        out = v @ basis_state(8, 1, 0)
        p10 = abs(np.vdot(basis_state(8, 1, 0), out)) ** 2
        p01 = abs(np.vdot(basis_state(8, 0, 1), out)) ** 2
        assert p10 == pytest.approx(0.5, abs=1e-10)
        assert p01 == pytest.approx(0.5, abs=1e-10)
        assert p10 + p01 == pytest.approx(1.0, abs=1e-12)

    def test_unitary(self):
        assert fock.unitarity_defect(fock.mode_mixer(12, np.pi / 4)) <= 1e-10

    def test_number_conservation(self):
        n_tot = np.diag(fock.total_photon_numbers(10).astype(complex))
        v = fock.mode_mixer(10, np.pi / 4)
        assert np.abs(v @ n_tot - n_tot @ v).max() <= 1e-12
        rot = np.kron(np.eye(11), fock.phase_shift(10, np.pi / 2))
        assert np.abs(rot @ n_tot - n_tot @ rot).max() <= 1e-12

    def test_sector_route_matches_dense_expm(self):
        n = 10
        a = ladder(n)
        gen = (np.pi / 4) * (np.kron(a.conj().T, a) - np.kron(a, a.conj().T))
        np.testing.assert_allclose(
            fock.mode_mixer(n, np.pi / 4), scipy.linalg.expm(gen), rtol=0, atol=1e-12
        )

    def test_zero_angle_mixer_is_identity(self):
        np.testing.assert_array_equal(fock.mode_mixer(6, 0.0), np.eye(49))


class TestOpa:
    def test_zero_gain_is_identity(self):
        np.testing.assert_array_equal(fock.opa(6, 0.0), np.eye(49))

    def test_pair_creation_structure(self):
        out = fock.opa(10, 0.7) @ basis_state(10, 0, 0)
        nonzero = np.flatnonzero(np.abs(out) > 1e-12)
        pairs = np.arange(11) * 12  # indices of |n, n>
        assert set(nonzero) <= set(pairs)

    def test_sector_route_matches_dense_expm(self):
        n, alpha = 10, -0.5493061443340549
        a = ladder(n)
        ad = a.conj().T
        gen = -(alpha / 2) * (np.kron(ad, ad) - np.kron(a, a))
        np.testing.assert_allclose(
            fock.opa(n, alpha), scipy.linalg.expm(gen), rtol=0, atol=1e-12
        )

    def test_truncation_defect_decreases_with_cutoff(self):
        alpha = -0.5493061443340549

        def images(n, columns):
            # the sector blocks on the source columns, never the dense OPA
            vectors = np.zeros(((n + 1) ** 2, len(columns)), dtype=complex)
            vectors[columns, np.arange(len(columns))] = 1.0
            return fock._apply_sectors(
                vectors, fock._sector_table(n, "difference", -alpha / 2)
            )

        defects = [truncation_defect(images, n, 2) for n in (20, 30, 40)]
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
        a = ladder(n)
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

    @pytest.mark.parametrize("lam", [-0.5, 0.0, 1.0, 1.5])
    def test_lambda_fits_refuses_lambda_outside_the_unit_interval(self, lam):
        # unrefused, lambda_fits(10, -0.5) and lambda_fits(10, 0.0) were True
        with pytest.raises(ValueError, match=rf"^lam must lie in \(0, 1\), got {lam}$"):
            fock.lambda_fits(10, lam)


class TestHeterodyneResidual:
    def test_closed_form_at_half(self):
        residual = fock.heterodyne_eigen_residual(40, 0.5, 0.0)
        assert residual == pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-9)

    def test_residual_equals_scaled_creation_norm(self):
        # at z = 0 the defect reduces to (1 - lam) * || b^dag |state>> ||
        n, lam = 40, 0.5
        state = fock.identity_doubleket(n, lam)
        m = state.amplitudes.reshape(n + 1, n + 1)
        bdag_norm = np.linalg.norm(m @ ladder(n))
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

    @pytest.mark.parametrize(
        "n, pinned",
        [(20, ("0x1.279a7ccc52745p-1", "0x1.9487f3b5290f7p-2")),
         (30, ("0x1.279a745910331p-1", "0x1.57fc50e2746acp-2")),
         (40, ("0x1.279a74590331bp-1", "0x1.556a1938fa7d6p-2")),
         (60, ("0x1.279a745903319p-1", "0x1.dfdd860953df1p-3"))],
        ids=["20", "30", "40", "60"],
    )
    def test_z1_residuals_equal_their_pinned_bits(self, n, pinned):
        # the pair ``cli.heterodyne_rows`` reads at z = 1, the base lambda and
        # the sharpest one the cutoff holds, as a batched route that shared
        # one D(1) between them gave them at one and at two BLAS threads
        lams = [cli.HETERODYNE_BASE_LAMBDA, cli.heterodyne_lambda(n)]
        assert ([fock.heterodyne_eigen_residual(n, lam, 1.0) for lam in lams]
                == [float.fromhex(value) for value in pinned])

    @pytest.mark.parametrize("bad", [0.0, 1.0, 0.99, np.nan])
    def test_residuals_refuse_a_bad_lambda_before_any_build(self, empty_memo, bad):
        # 0.99 is too close to 1 for cutoff 20
        with pytest.raises(ValueError, match="^lam"):
            fock.heterodyne_eigen_residual(20, bad, 1.0)
        assert not empty_memo

    def test_reshape_route_matches_kron_route(self):
        n, lam, z = 12, 0.4, 0.3 + 0.2j
        state = fock.displaced_identity_doubleket(n, lam, z)
        a = ladder(n)
        eye = np.eye(n + 1)
        zop = np.kron(a, eye) - np.kron(eye, a.conj().T) - z * np.eye((n + 1) ** 2)
        expected = np.linalg.norm(zop @ state.amplitudes)
        assert fock.heterodyne_eigen_residual(n, lam, z) == pytest.approx(
            expected, abs=1e-12
        )


class TestQuadEigenstate:
    def test_unsqueezed_origin_is_vacuum(self):
        state = fock.quad_eigenstate_approx(10, 0.0, 0.0, 1.0)
        np.testing.assert_allclose(state.amplitudes, basis_state(10, 0), atol=1e-14)

    def test_mean_position(self):
        n = 120
        state = fock.quad_eigenstate_approx(n, 0.7, 0.0, 0.3)
        x = fock.quadrature(n, 0.0)
        mean = np.vdot(state.amplitudes, x @ state.amplitudes).real
        assert mean == pytest.approx(0.7, abs=1e-8)

    def test_rotated_mean_follows_quadrature(self):
        n = 120
        state = fock.quad_eigenstate_approx(n, 0.7, np.pi / 2, 0.3)
        p = fock.quadrature(n, np.pi / 2)
        mean = np.vdot(state.amplitudes, p @ state.amplitudes).real
        assert mean == pytest.approx(0.7, abs=1e-8)

    def test_variance_set_by_sharpness(self):
        n, s = 120, 0.3
        state = fock.quad_eigenstate_approx(n, 0.0, 0.0, s)
        x = fock.quadrature(n, 0.0)
        var = np.vdot(state.amplitudes, x @ x @ state.amplitudes).real
        assert var == pytest.approx(s ** 2 / 4.0, abs=1e-6)

    def test_heavy_tail_warns(self):
        state = fock.quad_eigenstate_approx(60, 0.7, 0.0, 0.3)
        assert any("tail" in w for w in state.warnings)

    def test_sharpness_validation(self):
        with pytest.raises(ValueError):
            fock.quad_eigenstate_approx(10, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "name, value",
        [pytest.param("x", np.nan, id="x"), pytest.param("phi", np.nan, id="phi"),
         # unrefused, x = 1j gave <X_0> = 0 and <X_pi/2> = 1 while recording x = 1j
         pytest.param("x", 1j, id="x-complex"), pytest.param("phi", 0.5j, id="phi-complex"),
         pytest.param("s", 0.5j, id="s-complex")],
    )
    def test_non_finite_position_or_angle_rejected(self, name, value):
        args = {"x": 0.0, "phi": 0.0, "s": 0.5, name: value}
        reason = "real" if isinstance(value, complex) else "finite"
        with pytest.raises(ValueError, match=f"^{name} must be {reason}"):
            fock.quad_eigenstate_approx(10, **args)


class TestPaddedTail:
    """The tail mass in a state's warning against an independent dense build
    at cutoff N + 40, Pade exponentials of the truncated generators."""

    def test_quadrature_state_tail(self):
        n, big, x, s = 20, 60, 1 / np.sqrt(2.0), 0.4
        state = fock.quad_eigenstate_approx(n, x, 0.0, s)
        a = ladder(big)
        ad = a.conj().T
        amps = (
            scipy.linalg.expm(x * (ad - a))
            @ scipy.linalg.expm(0.5 * np.log(s) * (ad @ ad - a @ a))[:, 0]
        )
        tail = tail_in_warning(state.warnings, "quadrature eigenstate")
        assert tail == pytest.approx(2.32e-4, rel=1e-9)
        # the padded build holds no mass above N + 12, so the estimate is low:
        # 2.323e-4 against 2.359e-4 here, 1.5%
        assert mass_outside_box(amps, n) * 0.98 <= tail <= mass_outside_box(amps, n)

    def test_displaced_double_ket_tail(self):
        n, big, lam, z = 20, 60, fock.matched_lambda(0.4), 1 - 0.5j
        state = fock.displaced_identity_doubleket(n, lam, z)
        a = ladder(big)
        gen = z * a.conj().T - np.conj(z) * a
        amps = scipy.linalg.expm(gen) @ np.diag(lam ** np.arange(big + 1))
        tail = tail_in_warning(state.warnings, "displaced double-ket")
        assert tail == pytest.approx(9.37e-5, rel=1e-9)
        assert tail == pytest.approx(mass_outside_box(amps, n), rel=0.01)

    @pytest.mark.parametrize("n, s, z", TAIL_GRID, ids=lambda value: str(value))
    def test_displaced_double_ket_tail_matches_the_full_padded_build(self, n, s, z):
        # the tail read off the padded displacement's rows m > N against the
        # whole state built at N + 12; they agree to 7.1e-16 here, from tails
        # of 1e-40 to 0.19, and print the same warning
        lam = fock.matched_lambda(s)
        reference = padded_doubleket_tail(n, lam, z)
        (tail,) = fock._displaced_doubleket_tails(n, [lam], z)
        assert tail == pytest.approx(reference, rel=4e-15)
        expected = fock.identity_doubleket(n, lam).warnings + fock._truncation_warning(
            "displaced double-ket", reference, f"lambda = {lam}, z = {z}, cutoff {n}")
        assert fock.displaced_identity_doubleket(n, lam, z).warnings == expected


class TestBareFloatRoutes:
    """The routes that return bare floats build no tail: no state 12 levels
    above the cutoff and no padded rows of the displacement. Their values
    equal the same quantities read off the state constructors, which keep
    their tail warnings (``TestPaddedTail``)."""

    BUILDS = {
        "entbs_fidelity": lambda: fock.entbs_fidelity(60, 1, -0.5, 0.5),
        "entbs_fidelities": lambda: fock.entbs_fidelities(60, 1, -0.5, [0.6, 0.5, 0.4, 0.3]),
        "heterodyne_eigen_residual": lambda: fock.heterodyne_eigen_residual(60, 0.5, 1 - 0.5j),
    }

    @pytest.mark.parametrize("name", sorted(BUILDS))
    def test_nothing_built_above_the_cutoff(self, monkeypatch, empty_memo, name):
        def refuse(*args):
            raise AssertionError("the padded rows of a displacement were built")

        monkeypatch.setattr(fock, "_displaced_doubleket_tails", refuse)
        self.BUILDS[name]()
        assert empty_memo and {key[0] for key in empty_memo} == {60}

    def test_fidelity_equals_the_constructors_overlap(self):
        out = fock.entbs_output(60, 1, -0.5, 0.5).amplitudes
        ref = fock.displaced_identity_doubleket(60, fock.matched_lambda(0.5), 1 - 0.5j).amplitudes
        assert fock.entbs_fidelity(60, 1, -0.5, 0.5) == float(abs(np.vdot(ref, out)) ** 2)

    def test_fidelities_equal_the_overlaps_of_their_batches(self):
        # a batch of four moves from its one-column cases at rounding
        # (TestEntbs), so it is held to the overlaps of the same batches
        sharpness = [0.6, 0.5, 0.4, 0.3]
        lams = [fock.matched_lambda(s) for s in sharpness]
        out = fock._entbs_outputs(60, 1, -0.5, sharpness)
        refs = fock._displaced_doublekets(60, lams, 1 - 0.5j)
        expected = [float(abs(np.vdot(ref, out[:, j].copy())) ** 2) for j, ref in enumerate(refs)]
        assert fock.entbs_fidelities(60, 1, -0.5, sharpness) == expected

    def test_fidelities_read_a_one_shot_sharpness_once(self):
        # a generator can be read only once
        sharpness = [0.6, 0.5, 0.4]
        assert (fock.entbs_fidelities(20, 1, -0.5, (s for s in sharpness))
                == fock.entbs_fidelities(20, 1, -0.5, sharpness))

    def test_residual_equals_the_constructors_residual(self):
        n, z = 60, 1 - 0.5j
        m = fock.displaced_identity_doubleket(n, 0.5, z).amplitudes.reshape(n + 1, n + 1)
        root = np.sqrt(np.arange(1, n + 1))
        r = np.zeros_like(m)
        r[:-1] = root[:, None] * m[1:]
        r[:, 1:] -= m[:, :-1] * root
        r -= z * m
        assert fock.heterodyne_eigen_residual(n, 0.5, z) == float(np.linalg.norm(r))

    def test_entbs_output_keeps_its_inputs_tail_warnings(self):
        # the tails of 2.32e-4 and 2.04e-4 that the fidelity rows do not report
        n, x, y, s = 20, 1.0, -0.5, 0.4
        warns = fock.entbs_output(n, x, y, s).warnings
        assert warns == (fock.quad_eigenstate_approx(n, x / np.sqrt(2.0), 0.0, s).warnings
                         + fock.quad_eigenstate_approx(n, y / np.sqrt(2.0), np.pi / 2, s).warnings)
        assert [tail_in_warning((w,), "quadrature eigenstate") for w in warns] == [2.32e-4, 2.04e-4]


def _random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestSectorSlices:
    """Each sector of a table is a basic slice of the basis: step 2 for a
    parity sector, N for a total-photon one and N + 2 for a difference one."""

    @pytest.mark.parametrize("conserved", ["parity", "total", "difference"])
    @pytest.mark.parametrize("n", [1, 2, 12, 13, 20])
    def test_slices_partition_the_basis(self, n, conserved):
        table = fock._sector_table(n, conserved, 0.3)
        dim = (n + 1) ** (1 if conserved == "parity" else 2)
        states = [np.arange(dim)[sl] for sl, _ in table]
        assert all(type(sl) is slice for sl, _ in table)
        assert [len(idx) for idx in states] == [len(block) for _, block in table]
        for idx, expected in zip(states, sector_indices(n, conserved), strict=True):
            np.testing.assert_array_equal(idx, expected)
        np.testing.assert_array_equal(np.sort(np.concatenate(states)), np.arange(dim))

    @pytest.mark.parametrize(
        "conserved, parity",
        [("parity", None), ("total", None), ("total", 0), ("total", 1),
         ("difference", None), ("difference", 0), ("difference", 1)],
    )
    @pytest.mark.parametrize("n", [12, 20, 40, 60])
    def test_views_equal_gather_scatter(self, n, conserved, parity):
        # the strided views against index gathers and scatters, bit for bit,
        # on one vector and on a batch of 33 columns; a parity half of a
        # two-mode table selects its sectors by the total of their states
        table = fock._sector_table(n, conserved, 0.37)
        pairs = [(idx, block) for idx, (_, block)
                 in zip(sector_indices(n, conserved), table, strict=True)]
        if parity is not None:
            table = fock._parity_sectors(table, n, parity)
            pairs = [(idx, block) for idx, block in pairs
                     if sum(divmod(int(idx[0]), n + 1)) % 2 == parity]
        dim = (n + 1) ** (1 if conserved == "parity" else 2)
        rng = np.random.default_rng(n)
        for shape in ((dim,), (dim, 33)):
            vectors = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            assert np.array_equal(fock._apply_sectors(vectors, table),
                                  gather_scatter(vectors, pairs))


class TestRealFactors:
    """Every optical factor has a real generator with a real parameter, so its
    sector blocks, the chain's images and the dense builders are real."""

    @pytest.mark.parametrize("n", [1, 2, 12, 13, 20, 60])
    def test_tables_are_real_orthogonal(self, n):
        # the tables of the chain's five factors: the splitter, both
        # squeezers, the OPA and the mixer
        for kind, param, *_ in gaussian.circuit_factors(gaussian.decomposition_params()):
            for _, block in fock._element_table(n, kind, param):
                assert block.dtype == np.float64
                assert np.abs(block.T @ block - np.eye(len(block))).max() <= 1e-13

    @pytest.mark.parametrize(
        "build",
        [lambda: fock.squeezer(12, 0.7), lambda: fock.mode_mixer(6, 0.3),
         lambda: fock.opa(6, 0.3)],
        ids=["squeezer", "mode_mixer", "opa"],
    )
    def test_dense_builders_are_real(self, build):
        assert build().dtype == np.float64

    @pytest.mark.parametrize("n", [20, 40, 60])
    def test_entbs_pair_view_matches_complex_blocks(self, n):
        # the real splitter blocks on the (re, im) pairs of the complex
        # product state against the blocks cast to complex, gathered and
        # scattered
        x, y, s = 1.0, -0.5, 0.5
        in_a = fock.quad_eigenstate_approx(n, x / np.sqrt(2.0), 0.0, s)
        in_b = fock.quad_eigenstate_approx(n, y / np.sqrt(2.0), np.pi / 2.0, s)
        product = np.kron(in_a.amplitudes, in_b.amplitudes)
        pairs = [(idx, block.astype(complex)) for idx, (_, block) in zip(
            sector_indices(n, "total"), fock._sector_table(n, "total", np.pi / 4), strict=True)]
        out = fock.entbs_output(n, x, y, s).amplitudes
        assert out.dtype == np.complex128
        np.testing.assert_allclose(out, gather_scatter(product, pairs), rtol=0, atol=1e-15)


class TestApplyKron:
    """The double-ket layout the Fock kernels write: a two-mode vector is the
    row-major reshape of its amplitude matrix M, and kron(a, b) acts as a M b^T,
    on the tests' ``kron_apply`` and on the chain's ``_apply_kron_on_parity``."""

    def test_identity_factors_leave_vectors(self):
        c = np.array([[1, 2], [3, 4]], dtype=complex)
        out = kron_apply(np.eye(2), np.eye(2), c.reshape(-1, 1))[:, 0]
        np.testing.assert_array_equal(out, c.reshape(-1))

    def test_left_factor_acts_on_rows(self):
        # kron(X, I)|I>> = |X>>
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        out = kron_apply(sx, np.eye(2), np.eye(2).reshape(-1, 1))[:, 0]
        np.testing.assert_array_equal(out, sx.reshape(-1))

    def test_right_factor_acts_transposed(self):
        # kron(I, B)|I>> = |B^T>>
        b = np.array([[1, 2], [3, 4]], dtype=complex)
        out = kron_apply(np.eye(2), b, np.eye(2).reshape(-1, 1))[:, 0]
        np.testing.assert_array_equal(out, b.T.reshape(-1))

    @pytest.mark.parametrize("seed", range(5))
    def test_kron_and_index_sum_routes_agree(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (_random_complex(rng, 4, 4) for _ in range(3))
        out = kron_apply(a, b, c.reshape(-1, 1))[:, 0]
        np.testing.assert_allclose(out, np.kron(a, b) @ c.reshape(-1), rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            out, np.einsum("im,jn,mn->ij", a, b, c).reshape(-1), rtol=0, atol=1e-13
        )

    @pytest.mark.parametrize("rows_a, rows_b", [(1, 5), (3, 2), (5, 5)])
    def test_row_slices_give_those_rows(self, rows_a, rows_b):
        rng = np.random.default_rng(10 * rows_a + rows_b)
        a, b = _random_complex(rng, 5, 5), _random_complex(rng, 5, 5)
        vectors = _random_complex(rng, 25, 3)
        rows = (np.arange(rows_a)[:, None] * 5 + np.arange(rows_b)).reshape(-1)
        np.testing.assert_allclose(
            kron_apply(a[:rows_a], b[:rows_b], vectors),
            (np.kron(a, b) @ vectors)[rows], rtol=0, atol=1e-12,
        )

    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("n1", [5, 6])
    def test_parity_route_matches_full_route(self, n1, parity):
        # single-mode factors that conserve the parity of n, on columns that
        # hold only states of one total-photon parity
        rng = np.random.default_rng(n1 + parity)
        n = np.arange(n1)
        conserving = (n[:, None] - n) % 2 == 0
        a, b = (_random_complex(rng, n1, n1) * conserving for _ in range(2))
        in_parity = (np.add.outer(n, n).reshape(-1) % 2 == parity)[:, None]
        vectors = _random_complex(rng, n1 * n1, 3) * in_parity
        np.testing.assert_allclose(
            fock._apply_kron_on_parity(a, b, vectors, parity),
            kron_apply(a, b, vectors), rtol=0, atol=1e-12,
        )

    def test_regularized_state_holds_the_row_major_layout(self):
        # |a, b> sits at index a (N + 1) + b, the entry M[a, b]
        m = np.arange(9).reshape(3, 3)
        state = fock.RegularizedState(2, 2, m)
        np.testing.assert_array_equal(state.amplitudes, m.reshape(-1))
        assert state.amplitudes @ basis_state(2, 1, 2) == m[1, 2]


class TestSumGate:
    def test_spectral_route_matches_dense_expm(self):
        n = 12
        out = fock.sum_gate(n, every_state(n))
        np.testing.assert_allclose(out, dense_sum_gate(n), rtol=0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 13 ** 2 - 1), min_size=1, max_size=30))
    def test_spectral_route_matches_dense_expm_on_drawn_columns(self, columns):
        # unsorted, and repeats allowed: each image is its column of the gate
        out = fock.sum_gate(12, columns)
        np.testing.assert_allclose(out, dense_sum_gate(12)[:, columns], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [12, 20, 40, 80, 150])
    def test_one_basis_route_matches_the_two_eigh_route(self, n):
        # up = diag(i^n) ux from the memo's one real basis, against complex
        # eighs of both quadratures, on the total <= 10 columns and three
        # more: 9.6e-17 apart at most here
        cols = np.append(np.flatnonzero(fock.block_mask(n, 10)), [n + 3, n * n, (n + 1) ** 2 - 1])
        np.testing.assert_allclose(fock.sum_gate(n, cols), two_basis_sum_gate(n, cols),
                                   rtol=0, atol=1e-13)

    def test_circuit_unitary_on_inner_block(self):
        # the Gram defect of the chain's images of the total <= 10 basis columns
        gram_defect, _ = fock.sum_gate_block_checks(20, 10)
        assert gram_defect <= 1e-6

    def test_block_distance_shrinks_with_cutoff(self):
        _, d20 = fock.sum_gate_block_checks(20, 10)
        _, d30 = fock.sum_gate_block_checks(30, 10)
        assert d30 < d20

    def test_block_distance_matches_dense_expm_routes(self):
        # the same distance from dense Pade exponentials of the five chain
        # generators and of -2i X_{pi/2} kron X_0, neither built by the
        # library's sector, chain or spectral routes: 1.06e-3 both ways at
        # N=20, apart by 1.9e-16
        n = 20
        block = np.ix_(*[np.flatnonzero(fock.block_mask(n, 10))] * 2)
        chain = dense_sum_gate_chain(n, gaussian.decomposition_params())
        dense = fock.phase_aligned_block_distance(dense_sum_gate(n)[block], chain[block])
        _, distance = fock.sum_gate_block_checks(n, 10)
        assert distance == pytest.approx(dense, rel=0, abs=1e-14)

    def test_direct_gate_built_only_on_the_compared_block(self, monkeypatch):
        # the distance compares the 66 states of total <= 10 at N=40: only
        # their columns are built, on the rows a, b <= 10
        calls = []
        direct = fock._direct_images

        def counted(cutoff, cols, rows):
            calls.append((len(cols), rows))
            return direct(cutoff, cols, rows)

        monkeypatch.setattr(fock, "_direct_images", counted)
        fock.sum_gate_block_checks(40, 10)
        assert calls == [(66, 11)]

    @pytest.mark.parametrize("n", [12, 20, 40])
    def test_block_rows_equal_the_direct_gate_on_the_block(self, n):
        # the rows a, b <= block that the block checks build are the rows of
        # the full-height images, bit for bit
        block = np.flatnonzero(fock.block_mask(n, 10))
        a, b = np.divmod(block, n + 1)
        rows = fock._direct_images(n, block, 11)[a * 11 + b]
        assert np.array_equal(rows, fock.sum_gate(n, block)[block])

    def test_chain_run_once_on_the_compared_block(self, monkeypatch):
        # one pass of the chain's halves at N=40, over the 66 columns the
        # distance compares; the Gram defect reads the same images
        calls = []
        chain = fock._chain_halves

        def counted(cutoff, cols):
            calls.append(np.array(cols))
            return chain(cutoff, cols)

        monkeypatch.setattr(fock, "_chain_halves", counted)
        fock.sum_gate_block_checks(40, 10)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], np.flatnonzero(fock.block_mask(40, 10)))

    def test_gram_defect_read_once_per_parity_half(self, monkeypatch):
        # the 66 columns of total <= 10 at N=40: the 36 of even total on the
        # 841 rows of even total, the 30 of odd total on the other 840
        shapes = []
        defect = fock.unitarity_defect

        def counted(u):
            shapes.append(u.shape)
            return defect(u)

        monkeypatch.setattr(fock, "unitarity_defect", counted)
        fock.sum_gate_block_checks(40, 10)
        assert shapes == [(841, 36), (840, 30)]

    @pytest.mark.parametrize("defects", [(0.0, np.nan), (np.nan, 0.0)], ids=["odd", "even"])
    def test_gram_defect_keeps_a_nan_of_either_half(self, monkeypatch, defects):
        # Python's max(0.0, nan) is 0.0: the odd half's NaN would pass the row
        halves = iter(defects)
        monkeypatch.setattr(fock, "unitarity_defect", lambda u: next(halves))
        assert np.isnan(fock.sum_gate_block_checks(20, 10)[0])

    def test_gram_defect_catches_a_broken_exponential(self, monkeypatch, empty_memo):
        # every factor and sector block 1e-5 off unitary; empty_memo keeps the
        # tables built from it out of every other test
        exact = fock._chain_expm
        monkeypatch.setattr(fock, "_chain_expm", lambda sub: (1 + 1e-5) * exact(sub))
        assert fock.sum_gate_block_checks(12, 6)[0] > cli.TOL_UNITARITY_BLOCK
        report = cli.run_cv_verify([12])
        row = next(c for c in report.checks if c.name == "N=12:sum_gate_unitarity_block")
        assert row.error > row.tolerance == cli.TOL_UNITARITY_BLOCK
        assert not row.passed

    @pytest.mark.parametrize(
        "index", [0, 3, 2, 1, 4], ids=["splitter", "mixer", "opa", "r1", "r2"]
    )
    def test_gram_defect_catches_each_factor_off_unitary(self, monkeypatch, empty_memo, index):
        # one factor of ``gaussian.circuit_factors`` 1e-5 off unitary and the
        # others exact: its sector table in the memo, or the squeezer of its
        # parameter, which acts on both modes
        n, off = 12, 1 + 1e-5
        kind, param, *_ = gaussian.circuit_factors(gaussian.decomposition_params())[index]
        if kind == "squeezers":
            squeezer = fock.squeezer
            monkeypatch.setattr(fock, "squeezer", lambda cutoff, r: (
                (off if r == param else 1.0) * squeezer(cutoff, r)
            ))
        else:
            fock._element_table(n, kind, param)
            ((key, (exact, nbytes)),) = empty_memo.items()
            empty_memo[key] = (tuple((idx, off * block) for idx, block in exact), nbytes)
        report = cli.run_cv_verify([n])
        row = next(c for c in report.checks if c.name == "N=12:sum_gate_unitarity_block")
        assert row.error > row.tolerance == cli.TOL_UNITARITY_BLOCK
        assert not row.passed

    @pytest.mark.parametrize(
        "ablate",
        [lambda p: replace(p, alpha=0.0), lambda p: replace(p, r1=p.r2, r2=p.r1)],
        ids=["drop_opa", "swap_squeezers"],
    )
    def test_ablated_chain_misses_the_direct_gate(self, monkeypatch, empty_memo, ablate):
        # the Fock twins of the symplectic ablation rows: the chain reads
        # decomposition_params at call time. Its block distance clears the
        # floor and does not move with N: 0.44146 and 0.74514 at N = 30 and
        # 40 here, apart by 2e-13 and 5e-15 (the 4x4 route gives 0.30969 and
        # 0.65470)
        params = ablate(gaussian.decomposition_params())
        monkeypatch.setattr(gaussian, "decomposition_params", lambda: params)
        _, d30 = fock.sum_gate_block_checks(30, 10)
        _, d40 = fock.sum_gate_block_checks(40, 10)
        assert d30 > cli.ABLATION_FLOOR and d40 > cli.ABLATION_FLOOR
        assert d30 == pytest.approx(d40, rel=0, abs=1e-10)

    @pytest.mark.parametrize("n", [12, 20, 30, 40, 60, 80, 150])
    def test_block_checks_equal_the_full_height_route(self, n):
        # the halves read where they are made give the numbers of the
        # full-height images and their gathers, bit for bit
        assert fock.sum_gate_block_checks(n, 10) == full_height_block_checks(n, 10)

    def test_vacuum_image_agreement(self):
        n = 30
        target = fock.sum_gate(n, [0])[:, 0]
        circuit = fock.sum_gate_circuit(n, [0])[:, 0]
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

    def test_dense_chain_conserves_total_parity(self, dense_chain):
        # every factor conserves the parity of n_a + n_b, so the image of a
        # basis state is exactly zero on the rows of the other parity
        n, dense = dense_chain
        parity = fock.total_photon_numbers(n) % 2
        assert not dense[np.not_equal.outer(parity, parity)].any()

    @pytest.mark.parametrize("which", ["half_block", "scattered", "all"])
    def test_column_images_match_dense_chain(self, dense_chain, which):
        n, dense = dense_chain
        columns = self.column_set(n, which)
        out = fock.sum_gate_circuit(n, columns=columns)
        np.testing.assert_allclose(out, dense[:, columns], rtol=0, atol=1e-13)
        # real, and exactly zero off each column's parity, as the dense chain is
        assert out.dtype == np.float64
        parity = fock.total_photon_numbers(n) % 2
        assert not out[np.not_equal.outer(parity, parity[columns])].any()

    @pytest.mark.parametrize("n", [12, 20])
    @pytest.mark.parametrize("which", ["half_block", "scattered"])
    def test_sum_gate_block_matches_dense(self, n, which):
        block = self.column_set(n, which)
        np.testing.assert_allclose(
            fock.sum_gate(n, block), fock.sum_gate(n, every_state(n))[:, block],
            rtol=0, atol=1e-13,
        )

    @pytest.mark.parametrize("n", [12, 20, 40, 80])
    @pytest.mark.parametrize("order", ["block", "shuffled"])
    def test_images_bytes_equal_the_full_height_route(self, n, order):
        # the halves run through two reused buffers; the full-height route
        # writes a fresh array per factor. Their bytes agree, so the rows
        # off a column's parity hold +0.0 and never -0.0
        columns = np.flatnonzero(fock.block_mask(n, 10))
        if order == "shuffled":
            columns = np.random.default_rng(n).permutation(columns)
        images = fock.sum_gate_circuit(n, columns)
        assert images.tobytes() == full_height_chain(n, columns).tobytes()
        assert not np.signbit(images[images == 0]).any()

    def test_half_block_builds_no_two_mode_matrix(self):
        # the dense route held 1681^2 complex factors: a 172.6 MB peak at N=40
        n = 40
        half = np.flatnonzero(fock.block_mask(n, n // 2))
        peak = traced_peak(lambda: fock.sum_gate_circuit(n, columns=half))
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
        "build, needs",
        [
            # 401^4 real entries, 8 bytes each
            (lambda: fock.mode_mixer(400, np.pi / 4), 206855692808),
            (lambda: fock.opa(400, 0.5), 206855692808),
            # three real image-sized arrays per column, the chain's peak, and
            # its three sector tables of 343900808 bytes of real blocks each
            (lambda: fock.sum_gate_circuit(400, EVERY_STATE_400),
             3 * 206855692808 + 3 * 343900808),
            # three complex image-sized arrays per column, the direct gate's
            # peak, two basis-sized arrays, the real basis and up (with 401
            # eigenvalues each), and its phase table
            (lambda: fock.sum_gate(400, EVERY_STATE_400),
             3 * 413711385616 + 3 * 2572816 + 2 * 8 * 401),
            # the block checks' 66 columns of total <= 10, three complex arrays
            # each and the chain's real images, the chain's tables, the two
            # basis-sized arrays and the phase table
            (lambda: fock.sum_gate_block_checks(400, 10),
             66 * (3 * 2572816 + 1286408) + 3 * 343900808 + 3 * 2572816 + 2 * 8 * 401),
        ],
        # the ids the cases had while only ``build`` was parametrized
        ids=[f"<lambda>{i}" for i in range(5)],
    )
    def test_oversized_two_mode_operator_refused_before_allocating(self, build, needs):
        # 401^4 entries are 206855692808 bytes real and 413711385616 complex,
        # far above the limit: a dense operator, or every basis state's image
        # column under either route
        assert refused_peak(build, f"cutoff 400 needs {needs} bytes,") < 2**20

    def test_column_route_runs_beyond_the_dense_limit(self):
        # a dense two-mode operator is refused from cutoff 107; every state's
        # column at cutoff 110: three arrays of 111^4 real entries, and three
        # sector tables of 7294328 bytes
        with pytest.raises(ValueError, match="cutoff 110 needs 3665251968 bytes"):
            fock.sum_gate_circuit(110, every_state(110))
        assert fock.sum_gate_circuit(110, columns=[0]).shape == (111 ** 2, 1)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_displacement_refused_at_every_alpha(self, monkeypatch, empty_memo, alpha):
        # W's 401^2 complex vectors and 401 values, counted before the exact
        # identity of alpha = 0 is formed
        monkeypatch.setattr(fock, "DENSE_BYTES_LIMIT", 2**20)
        needs = "^cutoff 400 needs 2576024 bytes,"
        assert refused_peak(lambda: fock.displacement(400, alpha), needs) < 2**20
        assert not empty_memo

    def test_displacement_basis_refused_before_the_memo(self, empty_memo):
        # the basis the memo would hold, 8192^2 complex vectors and 8192
        # values; the largest basis that fits is at cutoff 8190
        needs = "cutoff 8191 needs 1073807360 bytes"
        assert refused_peak(lambda: fock.displacement(8191, 1.0), needs) < 2**20
        assert not empty_memo
        assert fock._eigenbasis_bytes(8190) <= fock.DENSE_BYTES_LIMIT

    @pytest.mark.parametrize(
        "build, needs",
        [(lambda: fock.squeezer(1100, 0.7), 9697608),
         # a state counts its eigenbasis 12 levels up, 1113^2 complex entries
         (lambda: fock.quad_eigenstate_approx(1100, 0.0, 0.0, 0.5), 19829208),
         (lambda: fock.quad_eigenstate_approx(1100, 0.5, 0.0, 0.5), 19829208)],
        ids=["squeezer", "quad_eigenstate_origin", "quad_eigenstate_displaced"],
    )
    def test_squeezer_refused_before_its_table(self, monkeypatch, empty_memo, build, needs):
        # 1101^2 real entries exceed the patched limit, though the parity
        # table alone (4.8 MB) fits it; the states, at x = 0 and at x = 0.5,
        # are refused by the count of their padded build before either build
        monkeypatch.setattr(fock, "DENSE_BYTES_LIMIT", 2**23)
        assert refused_peak(build, f"cutoff 1100 needs {needs} bytes") < 2**20
        assert not empty_memo

    @pytest.mark.parametrize(
        "build, needs",
        [(lambda: fock.squeezer(11585, 0.7), "cutoff 11585 needs 1073883168 bytes"),
         # the eigenbasis 12 levels up, 8192^2 complex entries: a state is
         # refused from cutoff 8179 on
         (lambda: fock.quad_eigenstate_approx(8179, 0.0, 0.0, 0.5),
          "cutoff 8179 needs 1073807360 bytes")],
        ids=["squeezer", "quad_eigenstate"],
    )
    def test_squeezer_refused_from_cutoff_11585(self, empty_memo, build, needs):
        # 11586^2 real entries; the two-mode tables' closed form would have
        # refused the parity table from cutoff 586
        assert refused_peak(build, needs) < 2**20
        assert not empty_memo
        assert fock._sector_table_bytes(11585, "parity") <= fock.DENSE_BYTES_LIMIT
        assert fock.squeezer(586, 0.7).shape == (587, 587)

    def test_opa_sector_blocks_refused_before_allocating(self):
        # sum_d (1001 - |d|)^2 = 668669001 real entries in each of the
        # OPA's, the mixer's and the splitter's tables at cutoff 1000, though
        # a single column's image is 8 MB
        needs = "cutoff 1000 needs 16072104048 bytes"
        assert refused_peak(lambda: fock.sum_gate_circuit(1000, columns=[0]), needs) < 2**20

    @pytest.mark.parametrize("cutoff, max_total", [(4, 0), (4, 3), (4, 4), (4, 5), (4, 7),
                                                   (4, 8), (4, 9), (13, 6), (13, 20)])
    def test_state_count_matches_block_mask(self, cutoff, max_total):
        count = fock.block_mask(cutoff, max_total).sum()
        assert fock._states_up_to(cutoff, max_total) == count

    def test_chain_counts_its_three_tables_with_its_columns(self, monkeypatch):
        # one column's three arrays and the splitter, mixer and OPA tables fit at cutoff
        # 404, not 405 (one table alone fits up to 585); raising stops the chain there
        requested = []

        def record(label, nbytes):
            requested.append((label, nbytes))
            raise LookupError

        monkeypatch.setattr(fock, "require_memory", record)
        for n in (404, 405):
            with pytest.raises(LookupError):
                fock.sum_gate_circuit(n, [0])
        assert requested == [("cutoff 404", 1066821840), ("cutoff 405", 1074733968)]
        assert requested[0][1] <= fock.DENSE_BYTES_LIMIT < requested[1][1]
        monkeypatch.undo()
        needs = "cutoff 405 needs 1074733968 bytes,"
        assert refused_peak(lambda: fock.sum_gate_circuit(405, [0]), needs) < 2**20

    def test_block_checks_refused_before_the_mask(self):
        # cutoff 340 is the largest whose 66 columns of total <= 10, four
        # arrays each, three sector tables, two basis-sized arrays and a phase table
        # fit; at cutoff 10^5 even the (N+1)^2 block mask would take 10 GB
        fock.require_block_checks_fit(340, 10)
        with pytest.raises(ValueError, match="cutoff 341 needs 1077948432 bytes"):
            fock.require_block_checks_fit(341, 10)
        needs = "cutoff 100000 needs"
        assert refused_peak(lambda: fock.sum_gate_block_checks(10**5, 10), needs) < 2**20

    @pytest.mark.parametrize(
        "which, n",
        [("one_column", 20), ("one_column", 30), ("one_column", 40), ("one_column", 400),
         ("half_block", 20), ("half_block", 30), ("half_block", 40)],
        ids=lambda value: str(value),
    )
    def test_direct_gate_peak_within_the_guarded_bytes(self, monkeypatch, empty_memo, which, n):
        # three image-sized arrays per column, the real basis, up and the
        # phase table bound the direct gate's peak; at N=400 one column's 7.7
        # MB of arrays are the smaller part of its 9.0 MB peak
        columns = [0] if which == "one_column" else np.flatnonzero(fock.block_mask(n, n // 2))
        requested = []
        monkeypatch.setattr(fock, "require_memory", lambda label, nbytes: requested.append(nbytes))
        peak = traced_peak(lambda: fock.sum_gate(n, columns))
        assert requested == [fock._direct_bytes(n, len(columns))]
        assert peak <= requested[0] + 2**20

    @pytest.mark.parametrize("n", [20, 30, 40, 60, 150])
    def test_block_checks_peak_within_the_guarded_bytes(self, monkeypatch, empty_memo, n):
        # the count is the largest request, the one of require_block_checks_fit:
        # the direct gate's arrays and one more real array per column; the
        # sector tables and the eigenbasis are built inside the traced call. The
        # peak stays below the count, by about 0.9 to 54 MiB at n = 20 to 150
        requested = []
        monkeypatch.setattr(fock, "require_memory", lambda label, nbytes: requested.append(nbytes))
        peak = traced_peak(lambda: fock.sum_gate_block_checks(n, 10))
        assert peak <= max(requested) + 2**20


class TestStateGuards:
    """The guard contract of the regularized-state routes, and of the
    single-mode factors and the fidelities they are built from, under a
    4 MiB limit. The identity double-ket counts its (N+1)^2 entries; a
    displaced state counts its padded build's complex basis W, (N+13)^2
    entries and the largest array it holds, so its peak is a stated multiple
    of that count: at z != 0 the real eigenbasis at N and at N + 12, W and
    W^dag at N and the product, and at x != 0 the bases and W alone, which
    is applied to the state's columns; the heterodyne residual builds no
    tail and holds one array of the state's size after the state is built.
    A batch of k states (``_padded_bytes``) also counts the amplitudes of
    its k - 1 further columns; a batched core builds no tail, only a state
    constructor does. The squeezer counts its dense real matrix and also
    holds its parity table; the displacement counts W and also holds the
    real basis, W^dag and the product; the fidelities count the splitter's
    sector table, the first they fetch, and also hold the states."""

    LIMIT = 2**22

    @pytest.mark.parametrize(
        "build, count, largest, factor",
        [(lambda n: fock.identity_doubleket(n, 0.5), lambda n: 16 * (n + 1) ** 2, 511, 1.01),
         (lambda n: fock.displaced_identity_doubleket(n, 0.5, 1 - 0.5j),
          lambda n: fock._eigenbasis_bytes(n + 12), 498, 4.35),
         (lambda n: fock.heterodyne_eigen_residual(n, 0.5, 1 - 0.5j),
          lambda n: fock._eigenbasis_bytes(n + 12), 498, 3.7),
         (lambda n: fock.quad_eigenstate_approx(n, 0.0, 0.3, 0.5),
          lambda n: fock._eigenbasis_bytes(n + 12), 498, 1.25),
         (lambda n: fock.quad_eigenstate_approx(n, 0.5, 0.3, 0.5),
          lambda n: fock._eigenbasis_bytes(n + 12), 498, 2.0),
         # a batch of four columns counts the three beyond the first
         (lambda n: fock._displaced_doublekets(n, [0.4, 0.5, 0.6, 0.7], 1 - 0.5j),
          lambda n: fock._padded_bytes(n, 2, 4), 251, 1.24),
         (lambda n: fock._quad_states(n, 0.5, 0.3, [0.6, 0.5, 0.4, 0.3]),
          lambda n: fock._padded_bytes(n, 1, 4), 497, 2.15),
         (lambda n: fock.squeezer(n, 0.7), lambda n: 8 * (n + 1) ** 2, 723, 2),
         (lambda n: fock.displacement(n, 1 - 0.5j), fock._eigenbasis_bytes, 510, 3.85),
         (lambda n: fock.entbs_fidelities(n, 1.0, -0.5, [0.6, 0.5, 0.4, 0.3]),
          fock._sector_table_bytes, 91, 1.45)],
        ids=["identity_doubleket", "displaced_identity_doubleket", "heterodyne_eigen_residual",
             "quad_eigenstate_origin", "quad_eigenstate_displaced", "displaced_doublekets_4",
             "quad_states_4", "squeezer", "displacement", "entbs_fidelities"],
    )
    def test_peak_bounded_and_first_refusal_before_the_build(
            self, monkeypatch, empty_memo, build, count, largest, factor):
        # the largest accepted cutoff traces at most ``factor`` times the
        # count (4.0 for a displaced double-ket, 3.4 for the heterodyne
        # residual, 1.2 and 1.8 for a quadrature state at x = 0 and x = 0.5,
        # 1.1 and 2.0 for the batches of four here, 1.8 for the squeezer, 3.5
        # for the displacement and 1.3 for the fidelities); the next is
        # refused before anything is built, naming the cutoff the caller
        # asked for
        monkeypatch.setattr(fock, "DENSE_BYTES_LIMIT", self.LIMIT)
        assert count(largest) <= self.LIMIT < count(largest + 1)
        assert traced_peak(lambda: build(largest)) <= factor * count(largest)
        empty_memo.clear()
        needs = f"^cutoff {largest + 1} needs {count(largest + 1)} bytes,"
        assert refused_peak(lambda: build(largest + 1), needs) < 2**20
        assert not empty_memo

    @pytest.mark.parametrize(
        "build",
        [lambda n: fock.displaced_identity_doubleket(n, 0.5, 1 - 0.5j),
         lambda n: fock.quad_eigenstate_approx(n, 0.5, 0.0, 0.5)],
        ids=["displaced_identity_doubleket", "quad_eigenstate"],
    )
    def test_padded_states_refused_from_cutoff_8179(self, monkeypatch, empty_memo, build):
        # the first count is the padded build's eigenbasis, 8192^2 vectors
        # and 8192 values at 8179 + 12; the recorder raises at the first
        # count, so no route allocates here even if it counted after a build
        requested = []

        def record(label, nbytes):
            requested.append((label, nbytes))
            raise LookupError

        monkeypatch.setattr(fock, "require_memory", record)
        for n in (8178, 8179):
            with pytest.raises(LookupError):
                build(n)
        assert requested == [("cutoff 8178", fock._eigenbasis_bytes(8190)),
                             ("cutoff 8179", fock._eigenbasis_bytes(8191))]
        assert requested[0][1] <= fock.DENSE_BYTES_LIMIT < requested[1][1]
        assert not empty_memo


class TestEntbs:
    def test_matched_lambda_closed_form(self):
        assert fock.matched_lambda(0.5) == pytest.approx(0.6, abs=1e-15)
        assert fock.matched_lambda(0.2) == pytest.approx(12 / 13, abs=1e-15)

    @pytest.mark.parametrize(
        "s, message",
        [(np.nan, "s must be finite"), (np.inf, "s must be finite"),
         (0.5j, "s must be real"),
         # unrefused, s = 1 gave lambda = 0 and s = 1.5 a negative lambda
         (0.0, "s must lie in (0, 1), got 0.0"), (1.0, "s must lie in (0, 1), got 1.0"),
         (-0.5, "s must lie in (0, 1), got -0.5"), (1.5, "s must lie in (0, 1), got 1.5")],
        ids=["nan", "inf", "complex", "zero", "one", "negative", "above_one"],
    )
    def test_matched_lambda_refuses_bad_sharpness(self, s, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            fock.matched_lambda(s)

    def test_fidelity_refuses_unmatched_sharpness_before_the_states(self, empty_memo):
        # s = 1 passes the quadrature states' s <= 1; unrefused here, the
        # double-ket then refused a lambda the caller never passed
        with pytest.raises(ValueError, match=r"^s must lie in \(0, 1\), got 1.0$"):
            fock.entbs_fidelity(20, 0.3, 0.1, 1.0)
        assert not empty_memo

    def test_origin_fidelity_high(self):
        assert fock.entbs_fidelity(40, 0.0, 0.0, 0.5) >= 0.999

    @pytest.mark.parametrize("n", [20, 40, 60])
    def test_fidelities_equal_their_one_column_cases(self, n):
        # the sweep of ``cli.entbs_rows``: one pass over every sharpness the
        # cutoff holds, each entry against its own one-column pass
        sharpness = cli.entbs_sharpness(n)
        fids = fock.entbs_fidelities(n, 1.0, -0.5, sharpness)
        assert len(fids) == len(sharpness)
        for fid, s in zip(fids, sharpness):
            assert abs(fid - fock.entbs_fidelity(n, 1.0, -0.5, s)) <= 1e-14

    def test_fidelities_hold_the_closed_form_at_60(self):
        # the gaps to exp(-s^2 |z|^2 / 2) within the bs workload's tolerances
        tols = {0.6: 1e-12, 0.5: 1e-12, 0.4: 5e-8, 0.3: 2e-4}
        fids = fock.entbs_fidelities(60, 1.0, -0.5, list(tols))
        for fid, (s, tol) in zip(fids, tols.items(), strict=True):
            assert abs(fid - np.exp(-s * s * 1.25 / 2)) <= tol

    def test_empty_sharpness_builds_nothing(self, monkeypatch, empty_memo):
        requested = []
        monkeypatch.setattr(fock, "require_memory", lambda label, nbytes: requested.append(nbytes))
        assert fock.entbs_fidelities(60, 1.0, -0.5, []) == []
        assert requested == [] and not empty_memo

    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, np.nan])
    def test_fidelities_refuse_a_bad_sharpness_before_any_build(self, empty_memo, bad):
        # the bad value is last, after one that would build
        with pytest.raises(ValueError, match="^s must "):
            fock.entbs_fidelities(20, 1.0, -0.5, [0.5, bad])
        assert not empty_memo

    def test_scan_peaks_at_matched_lambda(self):
        # at z = 0 only; at z = 1 - 0.5i, s = 0.5 the one-sided reference
        # peaks at 0.8605 near lambda = 0.65, not at the matched 0.6
        lams = np.arange(0.40, 0.81, 0.05)
        out = fock.entbs_output(40, 0.0, 0.0, 0.5).amplitudes
        fids = [abs(np.vdot(fock.displaced_identity_doubleket(40, lam, 0.0).amplitudes, out)) ** 2
                for lam in lams]
        assert lams[np.argmax(fids)] == pytest.approx(fock.matched_lambda(0.5), abs=0.051)

    def test_output_normalized(self):
        out = fock.entbs_output(30, 0.5, -0.3, 0.5)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-10)

    def test_sector_route_matches_dense_beam_splitter(self):
        n, x, y, s = 30, 0.5, -0.3, 0.5
        in_a = fock.quad_eigenstate_approx(n, x / np.sqrt(2.0), 0.0, s)
        in_b = fock.quad_eigenstate_approx(n, y / np.sqrt(2.0), np.pi / 2.0, s)
        dense = fock.mode_mixer(n, np.pi / 4) @ np.kron(in_a.amplitudes, in_b.amplitudes)
        np.testing.assert_allclose(
            fock.entbs_output(n, x, y, s).amplitudes, dense, rtol=0, atol=1e-13
        )

    def test_output_builds_no_two_mode_matrix(self, empty_memo):
        # a dense N=60 two-mode matrix alone is 3721^2 complex entries, 221 MB;
        # the bound also covers building the 1.2 MB table of splitter blocks
        peak = traced_peak(lambda: fock.entbs_output(60, 1.0, -0.5, 0.5))
        assert peak < 20 * 2**20


@pytest.mark.usefixtures("empty_memo")
class TestSectorMemo:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: fock.entbs_output(60, 1, -0.5, 0.5).amplitudes,
            lambda: fock.sum_gate_circuit(20, np.flatnonzero(fock.block_mask(20, 10))),
            lambda: fock.mode_mixer(12, np.pi / 4),
            lambda: fock.opa(10, 0.7),
            lambda: fock.displaced_identity_doubleket(60, 0.5, 1 - 0.5j).amplitudes,
            lambda: fock.quad_eigenstate_approx(60, 0.7, np.pi / 2, 0.4).amplitudes,
            lambda: np.array(fock.heterodyne_eigen_residual(60, 0.9, 0.4 + 0.3j)),
            lambda: fock.squeezer(40, 0.7),
        ],
        ids=["entbs_output", "sum_gate_circuit", "mode_mixer", "opa",
             "displaced_identity_doubleket", "quad_eigenstate_approx",
             "heterodyne_eigen_residual", "squeezer"],
    )
    def test_warm_call_equals_cold_call(self, build):
        cold = build()
        built = dict(fock._SECTOR_TABLES)
        warm = build()
        assert built and all(fock._SECTOR_TABLES[key] is table for key, table in built.items())
        assert np.array_equal(cold, warm)

    @pytest.mark.parametrize(
        "build",
        [lambda: fock.entbs_fidelity(60, 1, -0.5, 0.5),
         lambda: fock.sum_gate_circuit(40, [0, 1, 5]),
         lambda: fock.entbs_fidelities(60, 1, -0.5, [0.6, 0.5, 0.4, 0.3])],
        ids=["entbs_fidelity", "sum_gate_circuit", "entbs_fidelities"],
    )
    def test_warm_call_builds_no_chain(self, monkeypatch, build):
        # the squeezers, the states' squeezed vacua and the two-mode factors
        # are all read from the memo on the second call
        build()
        calls = []
        exact = fock._chain_expm

        def counted(sub):
            calls.append(sub)
            return exact(sub)

        monkeypatch.setattr(fock, "_chain_expm", counted)
        build()
        assert calls == []

    def test_squeezer_and_states_read_one_parity_table(self):
        n, r = 12, 0.7
        squeezer = fock.squeezer(n, r)
        key = (n, "parity", 0.5 * np.log(r))
        assert list(fock._SECTOR_TABLES) == [key]
        (evens, even), (odds, odd) = fock._SECTOR_TABLES[key][0]
        assert (evens, odds) == (slice(0, n + 1, 2), slice(1, n + 1, 2))
        assert np.array_equal(squeezer[evens, evens], even)
        assert np.array_equal(squeezer[odds, odds], odd)
        # a state at x = 0 reads the squeezer at its cutoff and 12 levels up
        fock.quad_eigenstate_approx(n, 0.0, 0.0, r)
        assert list(fock._SECTOR_TABLES) == [key, (n + 12, "parity", 0.5 * np.log(r))]

    def test_parity_table_size_is_the_closed_form(self):
        for n in (1, 2, 13, 20):
            table = fock._sector_table(n, "parity", 0.3)
            held = sum(block.nbytes for _, block in table)
            closed = 8 * (((n + 2) // 2) ** 2 + ((n + 1) // 2) ** 2)
            assert held == fock._SECTOR_TABLES[(n, "parity", 0.3)][1] == closed
            assert fock._sector_table_bytes(n, "parity") == closed
            for sl, block in table:
                assert type(sl) is slice
                with pytest.raises(ValueError):
                    block[0, 0] = 7

    def test_memoized_quadrature_bases_are_read_only(self):
        # one real basis of X_0 per cutoff, which the displacements and both
        # quadratures of the direct gate read; the state's tail reads it at
        # 12 levels up
        fock.displacement(8, 0.5)
        fock.sum_gate(8, [0])
        fock.quad_eigenstate_approx(8, 0.5, np.pi / 2, 0.5)
        bases = sorted(key for key in fock._SECTOR_TABLES if key[1] == "quadrature")
        assert bases == [(8, "quadrature", 0.0), (20, "quadrature", 0.0)]
        for key in bases:
            (values, vectors), nbytes = fock._SECTOR_TABLES[key]
            assert values.dtype == vectors.dtype == np.float64
            assert nbytes == values.nbytes + vectors.nbytes == 8 * (key[0] + 1) * (key[0] + 2)
            with pytest.raises(ValueError):
                values[0] = 7
            with pytest.raises(ValueError):
                vectors[0, 0] = 7

    def test_sum_gate_equals_its_inline_eigh_route(self):
        # the basis the memo holds is the output of one real eigh of X_0, and
        # X_{pi/2}'s is up = diag(i^n) ux from an exact table: L_c P over the
        # distinct c, gathered per column, scaled by the real ux[d] and
        # multiplied by ux^T
        n, n1 = 20, 21
        cols = np.flatnonzero(fock.block_mask(n, 10))
        x, ux = np.linalg.eigh(fock.quadrature(n, 0.0).real)
        up = np.array([1, 1j, -1, -1j])[np.arange(n1) % 4, None] * ux
        firsts, which = np.unique(cols // n1, return_inverse=True)
        left = (up * up[firsts].conj()[:, None, :]).reshape(-1, n1) @ np.exp(-2j * np.outer(x, x))
        images = left.reshape(firsts.size, n1, n1)[which] * ux[cols % n1][:, None, :]
        inline = (images.reshape(-1, n1) @ ux.T).reshape(cols.size, -1).T
        for _ in ("cold", "warm"):
            assert np.array_equal(fock.sum_gate(n, cols), inline)
        fock._SECTOR_TABLES.clear()
        fock.displacement(n, 0.3)  # the displacement builds the basis first
        assert np.array_equal(fock.sum_gate(n, cols), inline)

    def test_import_builds_nothing(self):
        code = "import bellgate.cli; from bellgate import fock; assert not fock._SECTOR_TABLES"
        paths = [str(pathlib.Path(fock.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    def test_cached_indices_and_blocks_are_read_only(self):
        fock.mode_mixer(6, 0.3)
        fock.opa(6, 0.3)
        assert len(fock._SECTOR_TABLES) == 2
        for table, _ in fock._SECTOR_TABLES.values():
            for sl, block in table:
                # a slice is immutable: the table holds no index array to write
                assert type(sl) is slice
                with pytest.raises(ValueError):
                    block[0, 0] = 7

    def test_table_size_is_the_closed_form(self):
        for n in (1, 2, 13):
            for conserved in ("total", "difference"):
                table = fock._sector_table(n, conserved, 0.3)
                held = sum(block.nbytes for _, block in table)
                nbytes = fock._SECTOR_TABLES[(n, conserved, 0.3)][1]
                assert held == nbytes == fock._sector_table_bytes(n)

    def test_least_recently_used_table_goes_first(self, monkeypatch):
        # tables of 49448, 158968 and 367688 bytes at N = 20, 30 and 40: the
        # three exceed 512 KiB together, and 20 and 40 fit without 30
        monkeypatch.setattr(fock, "DENSE_BYTES_LIMIT", 2**19)
        for n in (20, 30, 20, 40):
            fock._sector_table(n, "total", 0.3)
            assert sum(size for _, size in fock._SECTOR_TABLES.values()) <= 2**19
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
                    fock._quadrature_basis(n)
                    held.append(sum(size for _, size in list(fock._SECTOR_TABLES.values())))
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
        a = ladder(n)
        dense = scipy.linalg.expm(theta * (np.kron(a.conj().T, a) - np.kron(a, a.conj().T)))
        np.testing.assert_allclose(fock.mode_mixer(n, theta), dense, rtol=0, atol=1e-13)
        assert len(fock._SECTOR_TABLES) == 2

    @pytest.mark.parametrize(
        "build",
        [
            lambda: fock.entbs_output(586, 0.0, 0.0, 0.5),
            lambda: fock.entbs_fidelity(586, 0.0, 0.0, 0.5),
            lambda: fock.entbs_fidelities(586, 1.0, -0.5, [0.6, 0.5, 0.4, 0.3]),
        ],
        ids=["entbs_output", "entbs_fidelity", "entbs_fidelities"],
    )
    def test_oversized_splitter_refused_before_the_states(self, build):
        # the N=586 splitter blocks hold 134841531 real entries; the
        # quadrature states alone would trace more than 1 MiB
        assert refused_peak(build, "cutoff 586 needs 1078732248 bytes") < 2**20
        assert not fock._SECTOR_TABLES
        # the largest table that fits
        assert fock._sector_table_bytes(585) <= fock.DENSE_BYTES_LIMIT


class TestSu11Generators:
    def test_commutator_on_inner_block(self):
        n = 20
        kx, ky, kz = su11_terms(n).values()
        block = np.flatnonzero(fock.block_mask(n, n - 2))

        def on_block(terms):
            return term_block(terms, n, block, block)

        resid = 1j * (on_block(compose(kx, ky)) - on_block(compose(ky, kx))) - on_block(kz)
        assert np.abs(resid).max() <= 1e-12

    def test_quadrature_product_generator_identity(self):
        n = 14
        kx, ky, _ = su11_terms(n).values()
        x = fock.quadrature(n, 0.0)
        every = every_state(n)
        np.testing.assert_allclose(
            term_block([(1.0, x, x)], n, every, every),
            0.5 * (term_block(kx, n, every, every) - 1j * term_block(ky, n, every, every)),
            atol=1e-13,
        )


class TestTruncationDiagnostics:
    @pytest.mark.parametrize(
        "build",
        [
            lambda n: fock.displacement(n, 1 + 1j),
            lambda n: fock.squeezer(n, 1.3),
        ],
    )
    def test_single_mode_convergence(self, build):
        def images(n, columns):
            return build(n)[:, columns]

        assert truncation_defect(images, 32, 1) < truncation_defect(images, 20, 1)

    def test_block_distance_rejects_zero_pivot(self):
        with pytest.raises(ValueError, match="vanishes"):
            fock.phase_aligned_block_distance(np.eye(6), np.zeros((6, 6)))

    def test_block_distance_rejects_blocks_of_different_shapes(self):
        # broadcasting would compare every column of a with the one of b
        with pytest.raises(ValueError, match=r"shapes \(6, 6\) and \(6, 1\) differ"):
            fock.phase_aligned_block_distance(np.eye(6), np.ones((6, 1)))

    @pytest.mark.parametrize(
        "build, texts",
        [
            (lambda: fock.identity_doubleket(10, 0.5),
             ["identity double-ket tail mass 2.38e-07 at lambda = 0.5, cutoff 10"]),
            (lambda: fock.quad_eigenstate_approx(10, 0.7, 0.3, 0.5),
             ["quadrature eigenstate tail mass 1.36e-03 at x = 0.7, phi = 0.3, s = 0.5,"
              " cutoff 10"]),
            (lambda: fock.displaced_identity_doubleket(10, 0.5, 1 - 0.5j),
             ["identity double-ket tail mass 2.38e-07 at lambda = 0.5, cutoff 10",
              "displaced double-ket tail mass 3.25e-04 at lambda = 0.5, z = (1-0.5j),"
              " cutoff 10"]),
        ],
        ids=["identity_doubleket", "quad_eigenstate_approx", "displaced_identity_doubleket"],
    )
    def test_warning_texts(self, monkeypatch, build, texts):
        # every tail warns with the threshold below zero
        monkeypatch.setattr(fock, "TAIL_WARN_TOL", -1.0)
        assert build().warnings == tuple(f"truncation: {text}" for text in texts)

    def test_validation(self):
        with pytest.raises(ValueError):
            fock.RegularizedState(3, 1, np.zeros(3))


# every public constructor and check that takes a cutoff, and the memo lookup
CUTOFF_BUILDERS = {
    "quadrature": lambda n: fock.quadrature(n, 0.0),
    "displacement": lambda n: fock.displacement(n, 0.1),
    "displacement_identity": lambda n: fock.displacement(n, 0.0),
    "squeezer": lambda n: fock.squeezer(n, 0.8),
    "phase_shift": lambda n: fock.phase_shift(n, 0.3),
    "mode_mixer": lambda n: fock.mode_mixer(n, 0.3),
    "opa": lambda n: fock.opa(n, 0.2),
    "total_photon_numbers": fock.total_photon_numbers,
    "block_mask": lambda n: fock.block_mask(n, 1),
    "identity_doubleket": lambda n: fock.identity_doubleket(n, 1e-3),
    "displaced_identity_doubleket": lambda n: fock.displaced_identity_doubleket(n, 1e-3, 0.1),
    "quad_eigenstate_approx": lambda n: fock.quad_eigenstate_approx(n, 0.1, 0.0, 0.5),
    "heterodyne_eigen_residual": lambda n: fock.heterodyne_eigen_residual(n, 1e-3, 0.1),
    "sum_gate": lambda n: fock.sum_gate(n, [0]),
    "sum_gate_circuit": lambda n: fock.sum_gate_circuit(n, [0]),
    "require_block_checks_fit": lambda n: fock.require_block_checks_fit(n, 1),
    "sum_gate_block_checks": lambda n: fock.sum_gate_block_checks(n, 1),
    "entbs_output": lambda n: fock.entbs_output(n, 0.1, 0.1, 0.5),
    "entbs_fidelity": lambda n: fock.entbs_fidelity(n, 0.1, 0.1, 0.5),
    "entbs_fidelities": lambda n: fock.entbs_fidelities(n, 0.1, 0.1, [0.6, 0.5]),
    "lambda_fits": lambda n: fock.lambda_fits(n, 0.5),
    "_sector_table": lambda n: fock._sector_table(n, "total", 0.3),
}


# the builders of CUTOFF_BUILDERS that return an operator as a plain array
OPERATOR_BUILDERS = ("quadrature", "displacement", "squeezer", "phase_shift", "mode_mixer", "opa",
                     "displacement_identity")


# the arguments besides the one under test, by builder
OTHER_ARGS = {
    "displaced_identity_doubleket": {"lam": 0.5},
    "heterodyne_eigen_residual": {"lam": 0.5},
    "entbs_fidelity": {"x": 0.1, "y": 0.1, "s": 0.5},
    "entbs_fidelities": {"x": 0.1, "y": 0.1, "sharpness": [0.5]},
}


class TestLibraryBoundary:
    @pytest.mark.parametrize(
        "builder, name",
        [("displacement", "alpha"), ("squeezer", "r"), ("mode_mixer", "theta"), ("opa", "alpha_param"),
         ("phase_shift", "theta"), ("quadrature", "phi"),
         ("displaced_identity_doubleket", "z"), ("heterodyne_eigen_residual", "z"),
         ("identity_doubleket", "lam"), ("lambda_fits", "lam"),
         ("entbs_fidelity", "x"), ("entbs_fidelity", "y"), ("entbs_fidelity", "s"),
         ("entbs_fidelities", "x"), ("entbs_fidelities", "y")],
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.5j])
    def test_non_finite_parameter_rejected(self, builder, name, value):
        args = {**OTHER_ARGS.get(builder, {}), name: value}
        build = functools.partial(getattr(fock, builder), 8, **args)
        if isinstance(value, complex) and name in ("alpha", "z"):
            build()  # the displacement amplitudes are complex
            return
        # unrefused, quadrature(4, 0.5j) was not Hermitian, phase_shift(4, 0.5j)
        # not unitary, and a NaN y of entbs_fidelity was refused as x
        reason = "real" if isinstance(value, complex) else "finite"
        with pytest.raises(ValueError, match=f"^{name} must be {reason}"):
            build()

    @pytest.mark.parametrize("block_photons", [2.5, True, -1])
    @pytest.mark.parametrize("check", [fock.require_block_checks_fit, fock.sum_gate_block_checks])
    def test_bad_block_photons_rejected(self, check, block_photons):
        with pytest.raises(
            ValueError, match=f"^block_photons must be an integer >= 0, got {block_photons}$"
        ):
            check(12, block_photons)

    def test_numpy_and_zero_block_photons_accepted(self):
        # the zero-photon block is the vacuum column alone
        fock.require_block_checks_fit(12, np.int64(0))
        gram_defect, _ = fock.sum_gate_block_checks(12, np.int64(0))
        assert gram_defect <= cli.TOL_UNITARITY_BLOCK

    @pytest.mark.parametrize("cutoff", [-1000, -1, 0, 2.5, True])
    @pytest.mark.parametrize("build", sorted(CUTOFF_BUILDERS))
    def test_bad_cutoff_rejected_before_the_memo(self, empty_memo, build, cutoff):
        fock._sector_table(4, "total", 0.3)
        before = dict(empty_memo)
        with pytest.raises(ValueError, match=f"^cutoff must be an integer >= 1, got {cutoff}$"):
            CUTOFF_BUILDERS[build](cutoff)
        assert empty_memo.keys() == before.keys()
        assert all(empty_memo[key] is table for key, table in before.items())

    # lambda_fits allocates nothing, so it has nothing to refuse
    @pytest.mark.parametrize("build", sorted(CUTOFF_BUILDERS.keys() - {"lambda_fits"}))
    def test_refused_before_allocating_at_cutoff_400(self, monkeypatch, empty_memo, build):
        # under a 1 MiB limit every builder's arrays at cutoff 400 exceed it,
        # and each is refused, naming the cutoff, before it allocates them or
        # touches the memo
        monkeypatch.setattr(fock, "DENSE_BYTES_LIMIT", 2**20)
        assert refused_peak(lambda: CUTOFF_BUILDERS[build](400), "^cutoff 400 needs") < 2**20
        assert not empty_memo

    def test_every_public_cutoff_function_is_in_the_table(self):
        public = {name for name, value in vars(fock).items()
                  if inspect.isfunction(value) and value.__module__ == fock.__name__
                  and not name.startswith("_")
                  and next(iter(inspect.signature(value).parameters), None) == "cutoff"}
        assert public <= CUTOFF_BUILDERS.keys()

    @pytest.mark.parametrize("build", sorted(CUTOFF_BUILDERS))
    def test_memo_stays_within_its_limit(self, monkeypatch, empty_memo, build):
        # under a 64 KiB limit, at cutoff 63, whose complex basis W's 64^2
        # entries alone reach the limit, at 51, whose padded states reach it 12
        # levels up, and at 20, where the tables and bases of one call
        # evict each other; each call is built or refused, and the memo
        # never holds more than the limit
        monkeypatch.setattr(fock, "DENSE_BYTES_LIMIT", 2**16)
        for n in (20, 51, 63):
            try:
                CUTOFF_BUILDERS[build](n)
            except ValueError as exc:
                assert f"cutoff {n} needs" in str(exc)
            assert sum(size for _, size in empty_memo.values()) <= 2**16

    @pytest.mark.parametrize("build", OPERATOR_BUILDERS)
    def test_builder_arrays_are_read_only(self, build):
        op = CUTOFF_BUILDERS[build](4)
        assert type(op) is np.ndarray and op.shape in ((5, 5), (25, 25))
        with pytest.raises(ValueError):
            op[0, 0] = 7

    def test_stored_arrays_are_read_only(self):
        state = fock.identity_doubleket(4, 0.3)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1
        requested = np.array([0, 3])
        for images in (fock.sum_gate_circuit(4, columns=requested), fock.sum_gate(4, requested)):
            with pytest.raises(ValueError):
                images[0, 0] = 7
        requested[0] = 1  # the caller's array is not frozen
