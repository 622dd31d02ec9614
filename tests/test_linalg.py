"""Unit tests for the Frobenius norm used by the d-ket checks."""

import numpy as np
import pytest

from bellgate.dket import frobenius_norm, hs_inner

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def _random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestFrobeniusNorm:
    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_identity(self, d):
        assert frobenius_norm(np.eye(d)) == pytest.approx(np.sqrt(d), abs=1e-14)

    def test_pauli(self):
        assert frobenius_norm(SX) == pytest.approx(np.sqrt(2), abs=1e-14)

    @pytest.mark.parametrize("seed", range(3))
    def test_consistent_with_hs_inner(self, seed):
        rng = np.random.default_rng(seed)
        a = _random_complex(rng, 5, 5)
        assert frobenius_norm(a) == pytest.approx(
            np.sqrt(hs_inner(a, a).real), abs=1e-13
        )
