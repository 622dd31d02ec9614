"""Tests for the qudit gate sets, Bell bases and the controlled-shift map."""

import cmath
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import refused_peak

from bellgate import cli, qudit

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
# two units in the last place of a unit-modulus entry
PHASE_TOL = 2 * np.finfo(float).eps


def shift_multiply_elements(d, m, n):
    """Closed-form matrix elements w^(im) delta_{j, i+n mod d}: the oracle."""
    u = np.zeros((d, d), dtype=complex)
    for i in range(d):
        u[i, (i + n) % d] = cmath.rect(1.0, 2 * cmath.pi * ((i * m) % d) / d)
    return u


# ---------------------------------------------------------------------------
# The dense route the structured checks replace, kept as their reference: V
# and the Bell matrix as d^2 x d^2 arrays, built with matrix powers of the
# gate set's W and Z as the defining formulas read.
# ---------------------------------------------------------------------------

def dense_controlled_shift(gs):
    """V = sum_i |i><i| kron W^i, block by block."""
    d = gs.d
    v = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        v[i * d:(i + 1) * d, i * d:(i + 1) * d] = np.linalg.matrix_power(gs.W, i)
    return v


def dense_bell_matrix(gs):
    """Column m*d + n is vec(Z^m (W^T)^n) / sqrt(d)."""
    d = gs.d
    cols = np.empty((d * d, d * d), dtype=complex)
    for m in range(d):
        for n in range(d):
            u = np.linalg.matrix_power(gs.Z, m) @ np.linalg.matrix_power(gs.W.T, n)
            cols[:, m * d + n] = u.reshape(-1) / np.sqrt(d)
    return cols


def dense_errors(gs):
    """The bell_map, construction_equivalence and bell_gram errors of the
    dense route, as ``qudit verify`` reports them, for the gate set's V."""
    v, b = qudit.dense_v(gs), dense_bell_matrix(gs)
    local = np.kron(gs.F, np.eye(gs.d))
    return (
        float(np.linalg.norm(v @ local - b, axis=0).max()),
        float(np.abs(b @ local.conj().T - v).max()),
        float(np.abs(b.conj().T @ b - np.eye(gs.d ** 2)).max()),
    )


def structured_errors(gs):
    return (
        qudit.bell_map_max_error(gs),
        float(np.abs(qudit.v_from_bell_basis(gs) - np.eye(gs.d)).max()),
        qudit.orthonormality_max_error(gs) / gs.d,
    )


class TestGateSet:
    def test_qubit_case(self):
        gs = qudit.make_gateset(2)
        np.testing.assert_allclose(gs.Z, np.diag([1, -1]), atol=1e-15)
        np.testing.assert_array_equal(gs.W, [[0, 1], [1, 0]])
        np.testing.assert_allclose(qudit.dense_v(gs), CNOT, atol=1e-15)

    def test_qutrit_shift_cycles_upward(self):
        gs = qudit.make_gateset(3)
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1.0
            target = np.zeros(3)
            target[(j + 1) % 3] = 1.0
            np.testing.assert_array_equal(gs.W @ e, target)

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 9])
    def test_fourier_unitary(self, d):
        gs = qudit.make_gateset(d)
        np.testing.assert_allclose(
            gs.F.conj().T @ gs.F, np.eye(d), atol=1e-12
        )

    @pytest.mark.parametrize("d", [2, 5, 12])
    def test_clock_and_shift_orders(self, d):
        gs = qudit.make_gateset(d)
        assert np.abs(np.linalg.matrix_power(gs.Z, d) - np.eye(d)).max() <= 1e-12
        assert np.abs(np.linalg.matrix_power(gs.W, d) - np.eye(d)).max() <= 1e-12
        assert np.abs(gs.Z - np.diag(np.diag(gs.Z))).max() == 0.0
        # shift is a permutation matrix
        assert set(np.unique(gs.W.real)) <= {0.0, 1.0}
        assert np.abs(gs.W.imag).max() == 0.0

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            qudit.make_gateset(1)
        with pytest.raises(ValueError, match="must be an integer >= 2, got 2.5"):
            qudit.make_gateset(2.5)

    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_v_is_permutation(self, d):
        gs = qudit.make_gateset(d)
        v = qudit.dense_v(gs)
        assert np.abs(v * (1 - v)).max() <= 1e-13
        np.testing.assert_allclose(v.sum(axis=0), np.ones(d * d), atol=1e-13)
        # the permutation is the controlled shift of the defining formula
        np.testing.assert_array_equal(v, dense_controlled_shift(gs))

    def test_dense_v_refused_before_allocating(self):
        # a gate set of d = 91 needs only its d^2 permutation to be refused
        gs = dataclasses.replace(
            qudit.make_gateset(2), d=91, v_perm=np.arange(91 * 91)
        )
        with pytest.raises(ValueError, match="dense V at d = 91 needs 1097199376 bytes"):
            qudit.dense_v(gs)

    def test_gateset_refused_before_allocating(self):
        # seven d x d complex arrays, the peak of a gate set and its checks
        needs = "d = 10000 needs 11200000000 bytes"
        assert refused_peak(lambda: qudit.make_gateset(10_000), needs) < 2**20
        qudit.require_checks_fit(3096)  # the largest dimension that fits
        with pytest.raises(ValueError, match="d = 3097 needs 1074237808 bytes"):
            qudit.require_checks_fit(3097)


class TestShiftMultiply:
    def test_identity_at_origin(self):
        gs = qudit.make_gateset(4)
        np.testing.assert_allclose(qudit.shift_multiply(gs, 0, 0), np.eye(4), atol=1e-15)

    def test_qubit_y_ray(self):
        gs = qudit.make_gateset(2)
        np.testing.assert_allclose(
            qudit.shift_multiply(gs, 1, 1), [[0, 1], [-1, 0]], atol=1e-15
        )

    def test_elements_match_closed_form_d5(self):
        gs = qudit.make_gateset(5)
        for m in range(5):
            for n in range(5):
                np.testing.assert_allclose(
                    qudit.shift_multiply(gs, m, n),
                    shift_multiply_elements(5, m, n),
                    atol=1e-13,
                )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 64).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(0, d - 1), st.integers(0, d - 1))
    ))
    def test_entries_equal_closed_form_oracle(self, dmn):
        # exact phases: the error does not grow with the exponent i*m
        d, m, n = dmn
        gs = qudit.make_gateset(d)
        oracle = shift_multiply_elements(d, m, n)
        u = qudit.shift_multiply(gs, m, n)
        np.testing.assert_array_equal(u != 0, oracle != 0)
        assert np.abs(u - oracle).max() <= PHASE_TOL
        amps = qudit.bell_vector(gs, m, n)
        assert np.abs(amps - oracle.reshape(-1) / np.sqrt(d)).max() <= PHASE_TOL

    def test_index_out_of_range(self):
        gs = qudit.make_gateset(3)
        with pytest.raises(ValueError):
            qudit.shift_multiply(gs, 3, 0)
        with pytest.raises(ValueError):
            qudit.bell_vector(gs, 0, -1)
        # a fractional index would build a clock that is no power of w
        with pytest.raises(ValueError, match="must be integers"):
            qudit.shift_multiply(gs, 1.5, 0)
        with pytest.raises(ValueError, match="must be integers"):
            qudit.bell_vector(gs, 1.5, 0)

    @pytest.mark.parametrize("d", [2, 3, 5, 6])
    def test_projective_group_law(self, d):
        gs = qudit.make_gateset(d)
        rng = np.random.default_rng(d)
        for _ in range(10):
            m1, n1, m2, n2 = rng.integers(0, d, size=4)
            prod = qudit.shift_multiply(gs, m1, n1) @ qudit.shift_multiply(gs, m2, n2)
            rep = qudit.shift_multiply(gs, (m1 + m2) % d, (n1 + n2) % d)
            phase = np.vdot(rep, prod) / d
            assert abs(abs(phase) - 1.0) <= 1e-13
            assert np.abs(prod - phase * rep).max() <= 1e-13


class TestBellBasis:
    def test_qubit_origin_vector(self):
        gs = qudit.make_gateset(2)
        np.testing.assert_allclose(
            qudit.bell_vector(gs, 0, 0),
            np.array([1, 0, 0, 1]) / np.sqrt(2),
            atol=1e-15,
        )

    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_normalized_and_maximally_entangled(self, d):
        gs = qudit.make_gateset(d)
        for m in range(d):
            for n in range(d):
                v = qudit.bell_vector(gs, m, n)
                assert abs(np.linalg.norm(v) - 1.0) <= 1e-13
                # both reduced states of |U>> / sqrt(d), U U^dag and U^T conj(U), are I/d
                u = v.reshape(d, d)
                for rho in (u @ u.conj().T, u.T @ u.conj()):
                    assert np.linalg.norm(rho - np.eye(d) / d) <= 1e-10

    @pytest.mark.parametrize(
        "m, n, expected",
        [(0, 0, [1, 0, 0, 1]), (1, 0, [1, 0, 0, -1]), (0, 1, [0, 1, 1, 0]), (1, 1, [0, 1, -1, 0])],
        ids=["identity", "clock", "shift", "clock_shift"],
    )
    def test_qubit_vectors_are_row_major(self, m, n, expected):
        # |U>> = sum_ij U_ij |i>|j>: the amplitudes read U row by row
        gs = qudit.make_gateset(2)
        np.testing.assert_allclose(
            qudit.bell_vector(gs, m, n), np.array(expected) / np.sqrt(2), rtol=0, atol=1e-15
        )

    @pytest.mark.parametrize("d", range(2, 9))
    def test_reduced_states_by_index_sum(self, d):
        # the partial traces of |v><v| as index sums on the 1-D amplitudes
        gs = qudit.make_gateset(d)
        for m in range(d):
            for n in range(d):
                v = qudit.bell_vector(gs, m, n)
                outer = np.outer(v, v.conj()).reshape(d, d, d, d)
                for reduced in (np.einsum("anam->nm", outer), np.einsum("ijkj->ik", outer)):
                    assert np.abs(reduced - np.eye(d) / d).max() <= 1e-13

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_inner_products_are_hilbert_schmidt(self, d):
        # <<A|B>> = tr(A^dag B), so the Bell vectors' Gram matrix is
        # tr(U(m, n)^dag U(m', n')) / d
        gs = qudit.make_gateset(d)
        pairs = [(m, n) for m in range(d) for n in range(d)]
        for m1, n1 in pairs:
            u1 = qudit.shift_multiply(gs, m1, n1)
            for m2, n2 in pairs:
                u2 = qudit.shift_multiply(gs, m2, n2)
                inner = np.vdot(qudit.bell_vector(gs, m1, n1), qudit.bell_vector(gs, m2, n2))
                assert abs(inner - np.trace(u1.conj().T @ u2) / d) <= 1e-13

    @pytest.mark.parametrize("m, n", [(3, 0), (0, 3), (-1, 0), (0, 1.5)])
    def test_bell_vector_refuses_index_naming_it(self, m, n):
        gs = qudit.make_gateset(3)
        message = f"indices (m, n) = ({m!r}, {n!r}) must be integers in [0, 3)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            qudit.bell_vector(gs, m, n)

    @pytest.mark.parametrize("d,tol", [(2, 1e-12), (3, 1e-12), (16, 1e-11)])
    def test_bell_map(self, d, tol):
        assert qudit.bell_map_max_error(qudit.make_gateset(d)) <= tol

    @pytest.mark.parametrize("d,tol", [(2, 1e-13), (7, 1e-12), (12, 1e-12)])
    def test_orthonormality(self, d, tol):
        assert qudit.orthonormality_max_error(qudit.make_gateset(d)) <= tol

    @pytest.mark.parametrize("d", [2, 3, 16, 64])
    def test_defining_gate_set_maps_exactly(self, d):
        # Z, F and the Bell values share one phase formula, W and V are exact
        assert qudit.bell_map_max_error(qudit.make_gateset(d)) == 0.0

    @pytest.mark.parametrize("d", [3, 4, 7])
    def test_reversed_controlled_shift_fails_bell_map(self, d):
        # |i, j> -> |i, j - i>, the n -> -n relabeling; equal to V at d = 2
        gs = qudit.make_gateset(d)
        k = np.arange(d)[:, None]
        wrong = dataclasses.replace(gs, v_perm=(k * d + (np.arange(d) - k) % d).reshape(-1))
        assert qudit.bell_map_max_error(wrong) > cli.TOL_BELL_MAP
        assert dense_errors(wrong)[0] > cli.TOL_BELL_MAP

    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_nan_in_f_fails_bell_map(self, d):
        # Python's max(clock, nan) is clock: unpropagated, the NaN scored 0.0
        gs = qudit.make_gateset(d)
        f = np.array(gs.F)
        f[d - 1, 0] = np.nan
        assert np.isnan(qudit.bell_map_max_error(dataclasses.replace(gs, F=f)))

    def test_colliding_supports_fail_gram(self, monkeypatch):
        # vectors of n = 1 on the rows of n = 0: no longer orthogonal
        supports = qudit._bell_supports
        monkeypatch.setattr(
            qudit, "_bell_supports", lambda d: supports(d)[:, [0, 0, *range(2, d)]]
        )
        gram = next(c for c in cli.run_qudit_verify(3, 3).checks if c.name == "d=3:bell_gram")
        assert not gram.passed

    def test_bell_vectors_are_the_support_and_value_tables(self):
        d = 5
        gs = qudit.make_gateset(d)
        rows, values = qudit._bell_supports(d), qudit._phase_table(d)
        for m in range(d):
            for n in range(d):
                expected = np.zeros(d * d, dtype=complex)
                expected[rows[:, n]] = values[:, m]
                np.testing.assert_array_equal(qudit.bell_vector(gs, m, n), expected)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_structured_checks_match_dense_route(self, d):
        gs = qudit.make_gateset(d)
        np.testing.assert_allclose(structured_errors(gs), dense_errors(gs), rtol=0, atol=1e-13)


class TestConstructionEquivalence:
    def test_qubit_reduces_to_cnot(self):
        gs = qudit.make_gateset(2)
        basis_sum = qudit.dense_v(gs) @ np.kron(qudit.v_from_bell_basis(gs), np.eye(2))
        np.testing.assert_allclose(basis_sum, CNOT, atol=1e-13)

    @pytest.mark.parametrize("d", [3, 8])
    def test_basis_sum_equals_controlled_shift(self, d):
        gs = qudit.make_gateset(d)
        basis_sum = dense_bell_matrix(gs) @ np.kron(gs.F, np.eye(d)).conj().T
        assert np.abs(basis_sum - qudit.dense_v(gs)).max() <= 1e-12
        # the dense basis sum is V (G kron I) for the structured factor G
        factored = qudit.dense_v(gs) @ np.kron(qudit.v_from_bell_basis(gs), np.eye(d))
        assert np.abs(basis_sum - factored).max() <= 1e-13

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_v_unitary(self, d):
        v = qudit.dense_v(qudit.make_gateset(d))
        np.testing.assert_allclose(v.conj().T @ v, np.eye(d * d), atol=1e-12)
