"""Operator/vector (double-ket) calculus.

An operator A on a d_a-dimensional space, written A = sum_{mn} A_mn |m><n|,
corresponds to the vector |A>> = sum_{mn} A_mn |m>|n> in the tensor product
of a d_a- and a d_b-dimensional space. With numpy's row-major layout, the
amplitudes of |A>> are exactly ``A.reshape(-1)`` (m is the slow index).

Useful identities, all taken in the computational basis:

    <<A|B>>            = Tr[A^dag B]
    (A kron B) |C>>    = |A C B^T>>
    Tr_1 |A>><<B|      = A^T conj(B)
    Tr_2 |A>><<B|      = A B^dag

Transpose and conjugate always refer to the computational basis; no basis
parameter is exposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import is_integer


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D complex128 array, validating the shape."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {np.shape(a)}")
    return m


def frobenius_norm(a) -> float:
    """sqrt of the sum of squared moduli of the entries."""
    return float(np.linalg.norm(as_matrix(a)))


@dataclass(frozen=True, eq=False)
class DoubleKet:
    """Vector in a bipartite space tagged with the two subsystem dimensions."""

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if not all(is_integer(dim) and dim >= 1 for dim in (self.dim_a, self.dim_b)):
            raise ValueError("subsystem dimensions must be integers >= 1,"
                             f" got {self.dim_a!r} and {self.dim_b!r}")
        if amps.size != self.dim_a * self.dim_b:
            raise ValueError(
                f"amplitude count {amps.size} != dim_a*dim_b = {self.dim_a * self.dim_b}"
            )
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def vec(a) -> DoubleKet:
    """Row-major vectorization: vec(A)[m*cols + n] = A[m, n]."""
    a = as_matrix(a)
    return DoubleKet(a.shape[0], a.shape[1], a.reshape(-1))


def unvec(v: DoubleKet) -> np.ndarray:
    """Exact inverse of :func:`vec`."""
    return v.amplitudes.reshape(v.dim_a, v.dim_b).copy()


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product Tr[A^dag B] of two same-shaped matrices."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def apply_sandwich(a, b, c) -> DoubleKet:
    """(A kron B) |C>> computed as |A C B^T>>."""
    a, b, c = as_matrix(a), as_matrix(b), as_matrix(c)
    if a.shape[1] != c.shape[0] or b.shape[1] != c.shape[1]:
        raise ValueError(
            f"dimension mismatch: A{a.shape} C{c.shape} B^T{b.T.shape}"
        )
    return vec(a @ c @ b.T)


def ptrace_first(a, b) -> np.ndarray:
    """Partial trace over the first factor of |A>><<B|, equal to A^T conj(B)."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a.T @ b.conj()


def ptrace_second(a, b) -> np.ndarray:
    """Partial trace over the second factor of |A>><<B|, equal to A B^dag."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b.conj().T


def is_maximally_entangled(v: DoubleKet, tol: float) -> bool:
    """True iff both reduced states of the (normalized) vector are I/d within tol.

    Requires dim_a == dim_b. Raises if the input is not normalized within tol;
    the only pure states passing this test are vectorized unitaries scaled by
    1/sqrt(d).
    """
    if v.dim_a != v.dim_b:
        raise ValueError("maximal entanglement test requires equal subsystem dims")
    if abs(v.norm - 1.0) > tol:
        raise ValueError(f"input not normalized: |norm - 1| = {abs(v.norm - 1.0):.3e}")
    d = v.dim_a
    m = unvec(v)
    target = np.eye(d) / d
    rho_b = ptrace_first(m, m)
    rho_a = ptrace_second(m, m)
    return (
        frobenius_norm(rho_a - target) <= tol
        and frobenius_norm(rho_b - target) <= tol
    )
