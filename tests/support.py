"""Helpers shared by the test files: the memory a call traces, and the
two-mode references of the Fock oracles.

The references are sums of Kronecker terms. A list of terms (w, A, B) stands
for the sum of w kron(A, B): its entry between |a, b> and |c, d> is the sum
of w A[a, c] B[b, d], and a term acts on a column's (N+1) x (N+1) amplitude
matrix M as A M B^T. So no two-mode matrix is formed.
"""

import tracemalloc

import numpy as np
import pytest

from bellgate import fock


def traced_peak(call) -> int:
    """The peak bytes that tracemalloc records while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def refused_peak(call, match: str) -> int:
    """The peak bytes traced while ``call()`` is refused with a ValueError matching ``match``."""
    def refuse():
        with pytest.raises(ValueError, match=match):
            call()
    return traced_peak(refuse)


def every_state(n: int) -> np.ndarray:
    """Indices of all (N+1)^2 two-mode basis states."""
    return np.arange((n + 1) ** 2)


def kron_apply(a: np.ndarray, b: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """kron(a, b) applied to two-mode column vectors."""
    m = vectors.reshape(len(a), len(b), -1)
    return np.einsum("ij,jkc,lk->ilc", a, m, b, optimize=True).reshape(vectors.shape)


def term_block(terms, cutoff: int, rows, columns) -> np.ndarray:
    """The entries of a term sum between the basis states ``rows`` and ``columns``."""
    (ra, rb), (ca, cb) = np.divmod(rows, cutoff + 1), np.divmod(columns, cutoff + 1)
    return sum(w * a[np.ix_(ra, ca)] * b[np.ix_(rb, cb)] for w, a, b in terms)


def compose(left, right) -> list:
    """The terms of the product of two term sums, ``left`` applied last."""
    return [(w1 * w2, a1 @ a2, b1 @ b2) for w1, a1, b1 in left for w2, a2, b2 in right]


def su11_terms(cutoff: int) -> dict[str, list]:
    """The su(1,1) generators as terms of the ladder: Kx = (a^dag b^dag + a b)/2,
    Ky = i(a b^dag + a^dag b)/2 and Kz = (a^dag^2 - a^2 + b^dag^2 - b^2)/4. Away
    from the cutoff Kz = i [Kx, Ky], and X_0 kron X_0 = (Kx - i Ky)/2."""
    a = fock._ladder(cutoff)
    ad, eye = a.conj().T, np.eye(cutoff + 1)
    sq_gen = ad @ ad - a @ a
    return {
        "kx": [(0.5, ad, ad), (0.5, a, a)],
        "ky": [(0.5j, a, ad), (0.5j, ad, a)],
        "kz": [(0.25, sq_gen, eye), (0.25, eye, sq_gen)],
    }
