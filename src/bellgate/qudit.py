"""Shift-and-multiply Bell bases for qudits and the controlled-shift gate.

For dimension d, the clock and shift operators are

    Z = sum_j w^j |j><j|,      W = sum_j |j+1 mod d><j|,      w = exp(2 pi i / d),

and F is the discrete Fourier matrix F[n, j] = w^(nj) / sqrt(d). The gate

    V = sum_i |i><i| kron W^i

(the controlled-NOT for d = 2) maps the product basis F|m> kron |n> onto the
maximally entangled basis vec(U(m, n)) / sqrt(d). Here vec(A) is the
double-ket |A>> = sum_ij A_ij |i>|j>, whose amplitudes in numpy's row-major
layout are exactly ``A.reshape(-1)``, and the shift-and-multiply operators
are indexed so that

    U(m, n)[i, j] = w^(i m) delta_{j, i+n mod d},

i.e. the clock power Z^m composed with n steps of the inverse cyclic shift,
U(m, n) = Z^m (W^T)^n. This labeling is the one V actually transports onto
the Bell basis; relabeling n -> -n recovers the plain product Z^m W^n. The
d^2 operators are trace-orthogonal, so the vectors form an orthonormal,
maximally entangled basis.

Every operator here is monomial, a permutation times phases, and the module
keeps it so:

* a phase w^k is always exp(2 pi i (k mod d) / d), the exponent reduced in
  integers, so no entry drifts with k;
* V is held as its permutation, |i, j> -> |i, i+j mod d> on the row-major
  index i*d + j; ``dense_v`` builds the d^2 x d^2 matrix only on request,
  and refuses one above ``fock.DENSE_BYTES_LIMIT``;
* ``make_gateset`` refuses, before it allocates, a dimension whose gate set
  and checks would exceed that limit (``require_checks_fit``; the README
  states the first d each guard refuses);
* the d^2 Bell vectors are two d x d tables: vector (m, n) sits on the rows
  i*d + (i+n mod d) and holds w^(i m) / sqrt(d) there, the same values for
  every n. ``_tables`` builds them and the roots w^k once per d, read-only;
  the gate set's F, v_perm and Z and the three checks all read that one
  set, and only the last d's set is kept.

The three checks compare these tables, support rows as integers and values
as d x d arrays, so none of them builds a d^2 x d^2 array. The Bell map
check also holds the gate set's Z and W to their definitions, in O(d^2).
The dense routes they replace (V @ kron(F, I), the dense Bell matrix and
the dense basis-sum V) are kept in tests/test_qudit.py as references up to
d = 16.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fock import is_integer, require_memory


@dataclass(frozen=True, eq=False)
class QuditGateSet:
    """Clock, shift and Fourier matrices for one dimension, and the
    controlled shift as its permutation: V|k> = |v_perm[k]>."""

    d: int
    Z: np.ndarray
    W: np.ndarray
    F: np.ndarray
    v_perm: np.ndarray


def _roots(d: int, k) -> np.ndarray:
    """w^k = exp(2 pi i (k mod d) / d) for integer exponents k, gathered
    from the d values the reduced exponent takes."""
    return np.exp(1j * (2 * np.pi * np.arange(d) / d))[np.asarray(k) % d]


@functools.lru_cache(maxsize=1)
def _tables(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Bell tables of dimension d, built once and read-only: the roots
    w^k, the phase table w^(i m) / sqrt(d) at [i, m] and the support table
    i*d + (i+n mod d) at [i, n]. The gate set and the three checks read
    them; only the last d asked for is kept, so a sweep holds one set."""
    k = np.arange(d)
    roots = _roots(d, k)
    phases = roots[np.outer(k, k) % d] / np.sqrt(d)
    supports = k[:, None] * d + (k[:, None] + k) % d
    for table in (roots, phases, supports):
        table.setflags(write=False)
    return roots, phases, supports


def _phase_table(d: int) -> np.ndarray:
    """w^(i m) / sqrt(d) at [i, m]: the entries of F, and the values of the
    Bell vector (m, n) on its support rows, for every n."""
    return _tables(d)[1]


def _bell_supports(d: int) -> np.ndarray:
    """Row of U(m, n)[i, i+n] in vec(U(m, n)), at [i, n]: i*d + (i+n mod d)."""
    return _tables(d)[2]


def require_checks_fit(d: int) -> None:
    """Refuse, before allocating, a dimension whose gate set and checks would
    exceed ``fock.DENSE_BYTES_LIMIT``. By tracemalloc at d = 128 to 1024,
    with the tables of d not yet built, ``make_gateset`` alone peaks at 3.50
    d x d complex arrays, and with the three checks of ``qudit verify`` at
    5.50 to 5.53. A range peaks higher, at 6.99 for d - 1..d:
    d - 1's gate set is held while d's tables and gate set are built."""
    require_memory(f"qudit gate set at d = {d}", 7 * 16 * d * d)


def require_dimension(d: int) -> None:
    """Refuse a dimension that is not an integer >= 2."""
    if not is_integer(d) or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")


def make_gateset(d: int) -> QuditGateSet:
    """Build the gate set for an integer dimension d >= 2 from the defining
    formulas, refused before allocating when ``require_checks_fit`` refuses d."""
    require_dimension(d)
    require_checks_fit(d)
    roots, phases, supports = _tables(d)
    k = np.arange(d)
    W = np.zeros((d, d), dtype=complex)
    W[(k + 1) % d, k] = 1.0
    # the block |i><i| kron W^i sends |i, j> to |i, j+i mod d>, the support
    # table's entry [i, j]
    return QuditGateSet(d=d, Z=np.diag(roots), W=W, F=phases, v_perm=supports.reshape(-1))


def dense_v(gs: QuditGateSet) -> np.ndarray:
    """V as a dense d^2 x d^2 matrix, refused before allocating when its
    16 d^4 bytes would exceed ``fock.DENSE_BYTES_LIMIT``."""
    dim = gs.d ** 2
    require_memory(f"dense V at d = {gs.d}", 16 * dim * dim)
    v = np.zeros((dim, dim), dtype=complex)
    v[gs.v_perm, np.arange(dim)] = 1.0
    return v


def shift_multiply(gs: QuditGateSet, m: int, n: int) -> np.ndarray:
    """The operator U(m, n) = Z^m (W^T)^n, with elements w^(im) delta_{j, i+n mod d}."""
    _check_index(gs, m, n)
    i = np.arange(gs.d)
    u = np.zeros((gs.d, gs.d), dtype=complex)
    u[i, (i + n) % gs.d] = _roots(gs.d, i * m)
    return u


def bell_vector(gs: QuditGateSet, m: int, n: int) -> np.ndarray:
    """Normalized Bell-basis vector vec(U(m, n)) / sqrt(d), as the d^2
    amplitudes ``U(m, n).reshape(-1) / sqrt(d)``. The checks read the
    support and value tables instead; this builds one vector on request."""
    return shift_multiply(gs, m, n).reshape(-1) / np.sqrt(gs.d)


def bell_map_max_error(gs: QuditGateSet) -> float:
    """Max over (m, n) of || V (F|m> kron |n>) - vec(U(m, n))/sqrt(d) ||.

    Column (m, n) of F kron I holds F[i, m] on the rows i*d + n, and V moves
    row i*d + n to v_perm[i*d + n] without changing the value. So the image
    and the Bell vector are compared in two parts: their support rows, as
    integer arrays that must be equal (else the error is inf), and their
    values, whose difference F[i, m] - w^(i m)/sqrt(d) is the same for every n.

    The Bell vectors are built from the defining Z and W, so the gate set's
    own Z and W are held to them too: the error is inf unless W is exactly
    the cyclic shift and Z is diagonal, and it is at least max_k
    |Z[k, k] - w^k|. A NaN in Z or F gives NaN, which passes no tolerance.
    """
    d = gs.d
    k = np.arange(d)
    z, w = np.asarray(gs.Z), np.asarray(gs.W)
    if (w.shape != (d, d) or np.count_nonzero(w) != d or not (w[(k + 1) % d, k] == 1).all()
            or z.shape != (d, d) or np.count_nonzero(z) != np.count_nonzero(np.diagonal(z))
            or not np.array_equal(gs.v_perm.reshape(d, d), _bell_supports(d))):
        return float("inf")
    roots, phases, _ = _tables(d)
    clock = np.abs(np.diagonal(z) - roots).max()
    return float(np.max([clock, np.linalg.norm(gs.F - phases, axis=0).max()]))


def orthonormality_max_error(gs: QuditGateSet) -> float:
    """Max deviation of <<U(m,n)|U(m',n')>> from d * delta_mm' delta_nn'.

    Two Bell vectors overlap only on shared support rows. When all d^2
    support rows are distinct (checked in integers, else the error is inf),
    vectors of different n are orthogonal and the Gram matrix is
    block-diagonal in n; every block is B^dag B for the value table B.
    """
    d = gs.d
    rows = _bell_supports(d).reshape(-1)
    if np.bincount(rows, minlength=d * d).max() != 1:
        return float("inf")
    b = _phase_table(d)
    return float(d * np.abs(b.conj().T @ b - np.eye(d)).max())


def v_from_bell_basis(gs: QuditGateSet) -> np.ndarray:
    """Independent construction of V as sum_mn of |Bell(m,n)><(F|m>)(|n>)|,
    returned as its d x d factor G = B F^dag, B[i, m] = w^(i m)/sqrt(d).

    The Bell vector (m, n) is V applied to sum_i B[i, m] |i, n> once the
    support rows agree, which :func:`bell_map_max_error` checks. The basis
    sum is then V (B kron I)(F kron I)^dag = V (G kron I), and since V only
    moves entries, its entrywise distance to the controlled-shift V is
    max |G - I|.
    """
    return _phase_table(gs.d) @ gs.F.conj().T


def _check_index(gs: QuditGateSet, m: int, n: int) -> None:
    if not (is_integer(m) and is_integer(n) and 0 <= m < gs.d and 0 <= n < gs.d):
        raise ValueError(f"indices (m, n) = ({m!r}, {n!r}) must be integers in [0, {gs.d})")
