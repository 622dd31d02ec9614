"""Double-ket calculus tests against brute-force index-summation oracles."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellgate import dket

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _random_unitary(rng, d):
    q, r = np.linalg.qr(_random_complex(rng, d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# Brute-force oracles, written directly from the index sums they implement.

def sandwich_oracle(a, b, c):
    return np.einsum("im,jn,mn->ij", a, b, c).reshape(-1)


def ptrace_first_oracle(a, b):
    outer = np.outer(a.reshape(-1), b.reshape(-1).conj())
    d = a.shape[0]
    return np.einsum("anam->nm", outer.reshape(d, d, d, d))


def ptrace_second_oracle(a, b):
    outer = np.outer(a.reshape(-1), b.reshape(-1).conj())
    d = a.shape[0]
    return np.einsum("ijkj->ik", outer.reshape(d, d, d, d))


class TestVecUnvec:
    def test_vec_row_major(self):
        v = dket.vec(np.array([[1, 2], [3, 4]]))
        np.testing.assert_array_equal(v.amplitudes, [1, 2, 3, 4])

    def test_vec_identity(self):
        np.testing.assert_array_equal(dket.vec(np.eye(2)).amplitudes, [1, 0, 0, 1])

    def test_vec_sigma_y(self):
        np.testing.assert_array_equal(dket.vec(SY).amplitudes, [0, -1j, 1j, 0])

    def test_unvec_identity(self):
        np.testing.assert_array_equal(
            dket.unvec(dket.DoubleKet(2, 2, np.array([1, 0, 0, 1]))), np.eye(2)
        )

    def test_unvec_basis_outer(self):
        m = dket.unvec(dket.DoubleKet(2, 2, np.array([0, 1, 0, 0])))
        np.testing.assert_array_equal(m, [[0, 1], [0, 0]])

    def test_rectangular_round_trip_exact(self):
        rng = np.random.default_rng(7)
        a = _random_complex(rng, 5, 3)
        np.testing.assert_array_equal(dket.unvec(dket.vec(a)), a)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6), st.integers(1, 6))
    def test_round_trip_property(self, seed, rows, cols):
        a = _random_complex(np.random.default_rng(seed), rows, cols)
        np.testing.assert_array_equal(dket.unvec(dket.vec(a)), a)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            dket.DoubleKet(2, 2, np.zeros(3))

    @pytest.mark.parametrize(
        "dim_a, dim_b", [(1.5, 2), (2, 3.0), (True, 3), ("3", 1), (0, 3)],
        ids=["fractional", "float", "bool", "text", "zero"],
    )
    def test_non_integer_dims_refused_naming_them(self, dim_a, dim_b):
        # unrefused, DoubleKet(1.5, 2, ones(3)) was built: 1.5 * 2 entries
        message = f"subsystem dimensions must be integers >= 1, got {dim_a!r} and {dim_b!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dket.DoubleKet(dim_a, dim_b, np.ones(3))


class TestHSInner:
    def test_pauli_norm(self):
        assert dket.hs_inner(SX, SX) == pytest.approx(2.0)

    def test_pauli_orthogonality(self):
        assert dket.hs_inner(SX, SZ) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("seed", range(3))
    def test_trace_and_vec_routes_agree(self, seed):
        rng = np.random.default_rng(seed)
        a, b = _random_complex(rng, 4, 4), _random_complex(rng, 4, 4)
        trace_route = np.trace(a.conj().T @ b)
        vec_route = np.vdot(dket.vec(a).amplitudes, dket.vec(b).amplitudes)
        assert dket.hs_inner(a, b) == pytest.approx(trace_route, abs=1e-13)
        assert dket.hs_inner(a, b) == pytest.approx(vec_route, abs=1e-13)

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dket.hs_inner(np.eye(2), np.eye(3))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_self_inner_is_squared_norm(self, seed):
        a = _random_complex(np.random.default_rng(seed), 4, 4)
        val = dket.hs_inner(a, a)
        assert abs(val.imag) <= 1e-13
        assert val.real == pytest.approx(np.linalg.norm(a) ** 2, abs=1e-13)


class TestSandwich:
    def test_identity_sandwich(self):
        c = np.array([[1, 2], [3, 4]], dtype=complex)
        np.testing.assert_array_equal(
            dket.apply_sandwich(np.eye(2), np.eye(2), c).amplitudes,
            dket.vec(c).amplitudes,
        )

    def test_left_action(self):
        np.testing.assert_allclose(
            dket.apply_sandwich(SX, np.eye(2), np.eye(2)).amplitudes,
            dket.vec(SX).amplitudes,
            atol=1e-15,
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_kron_route_agrees(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (_random_complex(rng, 4, 4) for _ in range(3))
        kron_route = np.kron(a, b) @ dket.vec(c).amplitudes
        np.testing.assert_allclose(
            dket.apply_sandwich(a, b, c).amplitudes, kron_route, atol=1e-13
        )

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dket.apply_sandwich(np.eye(2), np.eye(3), np.eye(2))


class TestPartialTraces:
    @pytest.mark.parametrize("d", [2, 5])
    def test_identity_pair(self, d):
        np.testing.assert_allclose(dket.ptrace_first(np.eye(d), np.eye(d)), np.eye(d))
        np.testing.assert_allclose(dket.ptrace_second(np.eye(d), np.eye(d)), np.eye(d))

    def test_sigma_x_pair(self):
        np.testing.assert_allclose(dket.ptrace_first(SX, SX), np.eye(2), atol=1e-15)

    def test_unitary_pair_gives_identity(self):
        u = _random_unitary(np.random.default_rng(3), 6)
        np.testing.assert_allclose(dket.ptrace_second(u, u), np.eye(6), atol=1e-13)

    @pytest.mark.parametrize("seed", range(5))
    def test_against_index_sum_oracles(self, seed):
        rng = np.random.default_rng(seed)
        a, b = _random_complex(rng, 5, 5), _random_complex(rng, 5, 5)
        np.testing.assert_allclose(
            dket.ptrace_first(a, b), ptrace_first_oracle(a, b), atol=1e-13
        )
        np.testing.assert_allclose(
            dket.ptrace_second(a, b), ptrace_second_oracle(a, b), atol=1e-13
        )


class TestMaximalEntanglement:
    def test_vectorized_identity(self):
        v = dket.DoubleKet(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert dket.is_maximally_entangled(v, 1e-10)

    def test_product_state(self):
        v = dket.DoubleKet(2, 2, np.array([1, 0, 0, 0], dtype=complex))
        assert not dket.is_maximally_entangled(v, 1e-10)

    def test_vectorized_random_unitary(self):
        u = _random_unitary(np.random.default_rng(11), 5)
        assert dket.is_maximally_entangled(dket.vec(u / np.sqrt(5)), 1e-10)

    def test_unnormalized_rejected(self):
        v = dket.DoubleKet(2, 2, np.array([1, 0, 0, 1], dtype=complex))
        with pytest.raises(ValueError, match="normalized"):
            dket.is_maximally_entangled(v, 1e-10)

    def test_rectangular_rejected(self):
        v = dket.DoubleKet(2, 3, np.ones(6) / np.sqrt(6))
        with pytest.raises(ValueError, match="equal"):
            dket.is_maximally_entangled(v, 1e-10)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_scaled_unitaries_across_dimensions(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(100):
            u = _random_unitary(rng, d)
            assert dket.is_maximally_entangled(dket.vec(u / np.sqrt(d)), 1e-9)
