"""Helpers shared by the test files: the memory a call traces, the
two-mode photon totals, the truncation defect of a Fock operator, the ladder
matrix and the phase shift, kron(A, B) applied to double-kets, the two-mode
references of the Fock oracles, and references for the sector tables, the
state tails, the SUM-gate chain's full-height route and the two-eigenbasis
routes of the displacement and the direct gate.

The references are sums of Kronecker terms. A list of terms (w, A, B) stands
for the sum of w kron(A, B): its entry between |a, b> and |c, d> is the sum
of w A[a, c] B[b, d], and a term acts on a column's (N+1) x (N+1) amplitude
matrix M as A M B^T. So no two-mode matrix is formed.
"""

import tracemalloc

import numpy as np
import pytest

from bellgate import fock, gaussian


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


def photon_totals(cutoff: int) -> np.ndarray:
    """Total photon number n_a + n_b of each two-mode basis state, in vector order."""
    levels = np.arange(cutoff + 1)
    return np.add.outer(levels, levels).reshape(-1)


def truncation_defect(images, cutoff: int, modes: int) -> float:
    """The truncation error of an operator at ``cutoff``: the worst norm of
    the difference between its images of the source states, those of (total)
    photon number <= N/4, at N and at N + 8, the latter restricted to the
    first N+1 levels of each mode. ``images(n, columns)`` returns the images
    of the basis states ``columns`` at cutoff n, as columns; only they are
    built."""
    n1, big = cutoff + 1, cutoff + 9
    levels = np.arange(n1)
    if modes == 1:
        src = levels[: cutoff // 4 + 1]
        small, large = images(cutoff, src), images(cutoff + 8, src)[:n1]
    else:
        a, b = np.divmod(np.flatnonzero(photon_totals(cutoff) <= cutoff // 4), n1)
        small = images(cutoff, a * n1 + b)
        large = images(cutoff + 8, a * big + b)[(levels[:, None] * big + levels).reshape(-1)]
    return float(np.linalg.norm(small - large, axis=0).max())


def ladder(cutoff: int) -> np.ndarray:
    """The truncated annihilation operator: a[n-1, n] = sqrt(n), complex."""
    a = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    ns = np.arange(1, cutoff + 1)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def phase_shift(cutoff: int, theta: float) -> np.ndarray:
    """The phase rotation exp(-i theta n) as a dense diagonal, from the
    library's phases ``fock._phases``."""
    return np.diag(fock._phases(cutoff, theta))


def kron_apply(a: np.ndarray, b: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """kron(a, b) applied to a batch of two-mode column vectors: on each column
    reshaped to its amplitude matrix M it acts as a M b^T. ``a`` and ``b``
    may be row slices of the factors, which give only those rows."""
    t = (a @ vectors.reshape(a.shape[1], -1)).reshape(len(a), b.shape[1], -1)
    return np.matmul(b, t).reshape(len(a) * len(b), -1)


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
    a = ladder(cutoff)
    ad, eye = a.conj().T, np.eye(cutoff + 1)
    sq_gen = ad @ ad - a @ a
    return {
        "kx": [(0.5, ad, ad), (0.5, a, a)],
        "ky": [(0.5j, a, ad), (0.5j, ad, a)],
        "kz": [(0.25, sq_gen, eye), (0.25, eye, sq_gen)],
    }


def padded_doubleket_tail(cutoff: int, lam: float, z: complex) -> float:
    """The displaced double-ket's tail by its full padded build: the mass of
    (D(z) kron I)|lambda>> built at N + 12 outside the first N+1 levels of
    each mode."""
    big = cutoff + fock._TAIL_PAD
    base = fock.identity_doubleket(big, lam)
    mass = np.abs(fock.displacement(big, z) * base.amplitudes[:: big + 2]) ** 2
    return float(mass[cutoff + 1:].sum()) + float(mass[: cutoff + 1, cutoff + 1:].sum())


def sector_indices(cutoff: int, conserved: str) -> list[np.ndarray]:
    """The basis states of each sector of ``conserved`` as index arrays, read
    off the photon numbers, by the conserved value rising: the parity of n
    on one mode, or n_a + n_b or n_a - n_b on two."""
    levels = np.arange(cutoff + 1)
    if conserved == "parity":
        values = levels % 2
    else:
        a, b = np.divmod(np.arange((cutoff + 1) ** 2), cutoff + 1)
        values = a + b if conserved == "total" else a - b
    return [np.flatnonzero(values == v) for v in np.unique(values)]


def gather_scatter(vectors: np.ndarray, sectors) -> np.ndarray:
    """(indices, block) pairs applied to the rows of ``vectors`` by a gather
    of each sector's rows and a scatter of its image."""
    out = np.zeros_like(vectors)
    for idx, block in sectors:
        out[idx] = block @ vectors.take(idx, axis=0)
    return out


def full_height_chain(cutoff: int, columns) -> np.ndarray:
    """``fock.sum_gate_circuit`` by the full-height route: each parity half
    of ``columns`` starts from the whole outer product of the first squeezer
    pair, every factor writes a fresh zero array, and the half is scattered
    into one array of (N+1)^2 rows."""
    n1, cols = cutoff + 1, np.asarray(columns)
    *later, (_, (first_a, first_b)) = [
        (kind, fock._squeezer_pair(cutoff, *args) if kind == "squeezers"
         else fock._element_table(cutoff, kind, *args))
        for kind, *args in gaussian.circuit_factors(gaussian.decomposition_params())]
    c, d = np.divmod(cols, n1)
    out = np.empty((n1 * n1, cols.size))
    for parity in (0, 1):
        half = np.flatnonzero((c + d) % 2 == parity)
        images = np.multiply(first_a[:, c[half]][:, None, :], first_b[:, d[half]][None, :, :],
                             order="C").reshape(n1 * n1, -1)
        for kind, operand in reversed(later):
            if kind == "squeezers":
                images = fock._apply_kron_on_parity(*operand, images, parity,
                                                    np.zeros_like(images))
            else:
                images = fock._apply_sectors(images, fock._parity_sectors(operand, cutoff, parity),
                                             np.zeros_like(images))
        out[:, half] = images
    return out


def two_basis_displacement(cutoff: int, alpha: complex) -> np.ndarray:
    """``fock.displacement`` read off a complex eigh of X_{pi/2}, (p, U):
    W = diag(e^{i theta n}) U for alpha = r e^{i theta}, and D = W
    diag(e^{-2i r p}) W^dag."""
    p, u = np.linalg.eigh(fock.quadrature(cutoff, np.pi / 2))
    w = np.exp(1j * np.angle(alpha) * np.arange(cutoff + 1))[:, None] * u
    return (w * np.exp(-2j * abs(alpha) * p)) @ w.conj().T


def two_basis_sum_gate(cutoff: int, columns) -> np.ndarray:
    """``fock.sum_gate`` read off two complex eighs, of X_{pi/2}, (p, up),
    and of X_0, (x, ux): the image of |c, d> is L_c P R_d, with L_c = up
    diag(conj up[c]), P = e^{-2i p x^T} and R_d = diag(conj ux[d]) ux^T."""
    n1, cols = cutoff + 1, np.asarray(columns)
    p, up = np.linalg.eigh(fock.quadrature(cutoff, np.pi / 2))
    x, ux = np.linalg.eigh(fock.quadrature(cutoff, 0.0))
    firsts, which = np.unique(cols // n1, return_inverse=True)
    left = (up * up[firsts].conj()[:, None, :]).reshape(-1, n1) @ np.exp(-2j * np.outer(p, x))
    images = left.reshape(firsts.size, n1, n1)[which] * ux[cols % n1].conj()[:, None, :]
    return (images.reshape(-1, n1) @ ux.T).reshape(cols.size, -1).T


def full_height_block_checks(cutoff: int, block_photons: int) -> tuple[float, float]:
    """``fock.sum_gate_block_checks`` read off the full-height images: the
    block's rows by a row gather, and each parity half's Gram input by a
    gather of its rows and columns."""
    totals = photon_totals(cutoff)
    block = np.flatnonzero(totals <= block_photons)
    images = full_height_chain(cutoff, block)
    rows = min(block_photons, cutoff) + 1
    a, b = np.divmod(block, cutoff + 1)
    direct = fock._direct_images(cutoff, block, rows)[a * rows + b]
    distance = fock.phase_aligned_block_distance(direct, images[block])
    rows_parity, columns_parity = totals % 2, (a + b) % 2
    gram_defect = float(np.max([
        fock.unitarity_defect(images[np.ix_(rows_parity == parity, columns_parity == parity)])
        for parity in (0, 1) if (columns_parity == parity).any()
    ]))
    return gram_defect, distance
