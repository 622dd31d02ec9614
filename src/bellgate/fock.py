"""Truncated Fock-space realization of the bosonic objects.

Single-mode operators live on the first N+1 number states; two-mode operators
on the Kronecker product with mode a as the slow (row-major) factor, matching
the double-ket layout. The quadrature convention is X_phi =
(e^{i phi} a^dag + e^{-i phi} a) / 2, so X_0 and X_{pi/2} have commutator i/2
and the vacuum variance is 1/4.

Every Gaussian unitary is the exponential of its generator truncated to the
cutoff. The displacement's truncated generator r e^{i theta} a^dag - h.c. is
-2i r X_0 rotated by diag(e^{i (theta + pi/2) n}), so every displacement at
a cutoff is read off one real eigenbasis of X_0, which the direct SUM gate
reads too. Every other truncated generator is block-diagonal in a conserved
photon-number quantity, and inside a block it is a tridiagonal chain with
zero diagonal: the squeezer has two (even and odd n, its "parity"
sectors), the beam splitter and mode mixer one per sector of total photon
number, and the optical parametric amplifier one per sector of
photon-number difference. A chain links only sites of opposite parity, so
``_chain_expm``, the one exponential of every sector table, reads exp(G)
off one SVD of its even-to-odd block X: cos and sin of the singular values
give the four parity blocks, and a zero chain gives exactly the identity.

Each of those generators is real with a real parameter: a^dag^2 - a^2,
a^dag b - a b^dag and a^dag b^dag - a b. So their chains have real links,
every sector block is real orthogonal and is built by a real SVD, and
every table, dense factor (``squeezer``, ``mode_mixer``, ``opa``) and
image of the chain is float64. Only the displacement, the direct SUM gate
and the states are complex; ``entbs_output`` applies the real splitter
blocks to the (re, im) pairs of its complex state.

The truncated generator is exactly anti-Hermitian, so every factor and every
sector block is unitary to rounding at any cutoff: the max entry of
U^dag U - I (``unitarity_defect``) measures rounding, not truncation, and no
operator carries a warning. The truncation shows instead as a deviation
from the untruncated operator near the cutoff, which two diagnostics see:
the SUM gate's block distance in ``sum_gate_block_checks``, and the tail
masses of the states.

Dirac-like states are only ever represented in regularized form: the
identity double-ket as a two-mode squeezed vacuum with weight lambda^n, and
quadrature eigenvectors as rotated displaced squeezed vacua with sharpness
s. The double-ket's weights lambda^n/||lambda^n||, its refusal of a lambda
so large that the tail lambda^(2(N+1)) exceeds 1e-4 and its tail warning are
one helper's, ``_doubleket_weights``. Three cores build k displaced states
at once, share their factors and return only the normalized amplitudes:
``_quad_states`` over sharpness values, ``_displaced_doublekets`` over
lambdas and ``_entbs_outputs``, the splitter's images of pairs of quadrature
states. Each core refuses ``_padded_bytes`` before it builds. The state
constructors, ``quad_eigenstate_approx``, ``displaced_identity_doubleket``
and ``entbs_output``, are their one-column cases and attach their own
warnings: the padded tail, the mass the state built at N + ``_TAIL_PAD``
holds outside the first N+1 levels of each mode, which above 1e-8 warns, and
the double-ket's own. The routes that return bare floats,
``entbs_fidelities`` with its one-column case and
``heterodyne_eigen_residual``, read the cores alone, so they build nothing
above the cutoff. The quadrature states' squeezed vacua S(s)|0>, each
column 0 of ``squeezer``, are the columns of one block, and the
displacement is two products of the block with the displacement's basis
W, turned from X_0's (``_quad_amplitudes``); a tail is the same build at
N + 12 (``_quad_tail_warning``). The double-ket's amplitude matrix is
diag(c), so the displaced one is D diag(c): D = W diag(phases) W^dag,
which ``displacement`` returns too, is formed once (``_displacement``) and
scaled by each lambda's c. Its tail is read off the padded displacement's
rows m > N alone, formed once for every lambda
(``_displaced_doubleket_tails``): no second state is built. The beam
splitter acts on two-mode states sector by sector, and ``entbs_fidelities``
runs it once over every sharpness, so no state path builds a dense
two-mode matrix.

Both SUM-gate routes return the read-only full-height images of the basis
columns a caller reads. The chain (``sum_gate_circuit``) folds the factor
list of ``gaussian.circuit_factors``, as the 4x4 route does. Every factor
conserves the parity of n_a + n_b: a squeezer pair moves each mode by an
even number of photons, the mixer and the splitter conserve n_a + n_b, and
the OPA's sector of difference k holds only totals of the parity of k. So
one kernel, ``_chain_halves``, runs the columns of each parity through the
sector blocks of that parity only, in two buffers reused by every factor,
and its images are exactly zero off their parity's rows;
``sum_gate_circuit`` assembles the halves. The direct ``sum_gate`` writes
the image of |c, d> as L_c P R_d, from X_0's eigenbasis (x, ux), X_{pi/2}'s
up = diag(i^n) ux and their phase table P: L_c = up diag(conj up[c]) and
R_d = diag(ux[d]) ux^T. So it is one product over the distinct c, a
gather and one product with ux^T (``_direct_images``).
``sum_gate_block_checks`` runs each route once, on the states of total
photon number <= block, and the direct gate only on the rows a, b <= block.
It reads each chain half where the kernel makes it: the block's rows for the
distance against the direct images, and the half's own parity rows for its
Gram defect (``unitarity_defect``), so no full-height array is built.

The sector blocks of each factor form one table per cutoff, conserved
quantity and generator scale: the key ``_TABLE_KEYS`` gives each element
kind of the factor list, which every caller reads (``_element_table``). A
table is built once, kept read-only in a module-level memo and shared by
every later call. Every dense factor is assembled from its table by
``_assemble``, which refuses the dense matrix before the table is fetched.
The same memo keeps one real eigenbasis of X_0 per cutoff, (N+1)^2 + N+1
entries of 8 bytes, which ``sum_gate`` and the displacements read. The memo
holds at most ``DENSE_BYTES_LIMIT`` bytes of entries; a new entry first
drops the least recently used ones. A table pairs each block with its
sector's states as a slice of the row-major basis, which holds no array:
step 2 in a parity sector, N in a total-photon one and N + 2 in a
difference one, so ``_apply_sectors`` reads and writes each sector as a
strided view. A two-mode table holds (N+1)(2N^2+4N+3)/3 real entries of 8
bytes, a parity table ceil((N+1)/2)^2 + floor((N+1)/2)^2; a table that
alone exceeds the limit is refused before anything is built, and with a
two-mode one ``entbs_output`` and the fidelities built on it.

One guard, ``require_memory``, refuses a route whose arrays would exceed
``DENSE_BYTES_LIMIT`` before it allocates them: here a real dense matrix (a
squeezer's), a complex one (``quadrature``, ``phase_shift``), the photon
totals (``total_photon_numbers``, ``block_mask``), a displacement's basis W
at every alpha, the identity double-ket, a batch of displaced states (W at
N + 12, which a tail holds, and the amplitudes of each column beyond the
first, ``_padded_bytes``, counted by each core), the SUM-gate column images
and a sector table's blocks, and also the qudit layer's gate set, its dense
V and the ``qudit synth`` export. Each count is of what the route holds: 8
bytes an entry for the real tables, dense factors, chain images and int64
totals (9 with a mask), 16 for the complex matrices, bases W and up
(``_eigenbasis_bytes``), states and direct images. The column routes count
three image-sized arrays per column, their peak; ``_direct_bytes`` adds the
real basis, up and the phase table, ``_chain_bytes`` the chain's three
sector tables, held at once, and ``require_block_checks_fit``, which refuses
a cutoff list up front, counts the direct gate, the tables and one more real
array per block column. The README's guard paragraph states the first size
each guard refuses.

Every public constructor refuses a cutoff that is not an integer >= 1
(``is_integer``: a Python or numpy integer, not a bool), and the memo
refuses one before it is touched. Stored and returned arrays are
read-only: the builders' operators, the SUM-gate images, the amplitudes of
the frozen state dataclass, and the memo's blocks and eigenbasis.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import gaussian
from .gaussian import require_finite

TAIL_WARN_TOL = 1e-8
TAIL_ERROR_TOL = 1e-4
_TAIL_PAD = 12
# most bytes of arrays one route may allocate; the README states the first
# size each guard refuses
DENSE_BYTES_LIMIT = 2**30


@dataclass(frozen=True, eq=False)
class RegularizedState:
    """A normalized state vector with the truncation warnings of its build."""

    cutoff: int
    modes: int
    amplitudes: np.ndarray
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        dim = (self.cutoff + 1) ** self.modes
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != dim:
            raise ValueError("amplitude count inconsistent with cutoff and modes")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


# ---------------------------------------------------------------------------
# Elementary operators
# ---------------------------------------------------------------------------

def is_integer(value) -> bool:
    """The library's integer rule for cutoffs, dimensions and indices: a
    Python or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_cutoff(cutoff: int) -> None:
    """Refuse, before anything is built, a cutoff that is not an integer >= 1."""
    if not is_integer(cutoff) or cutoff < 1:
        raise ValueError(f"cutoff must be an integer >= 1, got {cutoff!r}")


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only in place."""
    array.setflags(write=False)
    return array


def _quadrature(cutoff: int, phi: float) -> np.ndarray:
    """``quadrature``'s matrix, writable and unguarded: its off-diagonals
    x[k+1, k] = e^{i phi} sqrt(k+1) / 2 and their conjugates."""
    k = np.arange(cutoff)
    root = np.sqrt(k + 1)
    x = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    x[k + 1, k] = 0.5 * np.exp(1j * phi) * root
    x[k, k + 1] = 0.5 * np.exp(-1j * phi) * root
    return x


def quadrature(cutoff: int, phi: float) -> np.ndarray:
    """Hermitian quadrature (e^{i phi} a^dag + e^{-i phi} a) / 2 (``_quadrature``)."""
    _require_cutoff(cutoff)
    require_finite("phi", phi)
    require_memory(f"cutoff {cutoff}", 16 * (cutoff + 1) ** 2)
    return _read_only(_quadrature(cutoff, phi))


def unitarity_defect(u: np.ndarray) -> float:
    """Max entry of U^dag U - I over the columns of U: for a square U its
    unitarity defect, for a block of its columns their Gram defect."""
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[1])).max())


def _chain_expm(sub: np.ndarray) -> np.ndarray:
    """expm(G) for the anti-Hermitian tridiagonal G with zero diagonal,
    G[i+1, i] = sub[i] and G[i, i+1] = -conj(sub[i]).

    G only links sites of opposite parity, so in even-then-odd order it is
    [[0, X], [-X^H, 0]] with X[k, k] = -conj(sub[2k]) and X[k+1, k] =
    sub[2k+1]. With X = U S V^H (full U), expm(G) has the blocks U cos S U^H,
    U sin S V^H, -V sin S U^H and V cos S V^H; an even site beyond the rank of
    X takes cos 0 = 1. An all-zero chain gives exactly the identity. Real
    links give a real orthogonal exp(G), in float64 from a real SVD; complex
    links a complex unitary one.
    """
    sub = np.asarray(sub)
    dtype = np.result_type(sub, float)
    n = sub.size + 1
    if not sub.any():
        return np.eye(n, dtype=dtype)
    x = np.zeros(((n + 1) // 2, n // 2), dtype=dtype)
    k = np.arange(n // 2)
    x[k, k] = -sub[0::2].conj()
    j = np.arange(sub[1::2].size)
    x[j + 1, j] = sub[1::2]
    u, s, vh = np.linalg.svd(x)
    cos = np.ones(u.shape[0])
    cos[: s.size] = np.cos(s)
    out = np.empty((n, n), dtype=dtype)
    out[0::2, 0::2] = (u * cos) @ u.conj().T
    out[0::2, 1::2] = (u[:, : s.size] * np.sin(s)) @ vh
    out[1::2, 0::2] = -out[0::2, 1::2].conj().T
    out[1::2, 1::2] = (vh.conj().T * cos[: s.size]) @ vh
    return out


def require_memory(label: str, requested: int) -> None:
    """Refuse, before allocating, ``requested`` bytes above DENSE_BYTES_LIMIT;
    ``label`` names the size in the message."""
    if requested > DENSE_BYTES_LIMIT:
        raise ValueError(
            f"{label} needs {requested} bytes,"
            f" more than the limit of {DENSE_BYTES_LIMIT} bytes"
        )


def _columns_bytes(cutoff: int, columns: int, arrays: int = 3, itemsize: int = 16) -> int:
    """Bytes of ``arrays`` arrays of ``columns`` two-mode columns, (N+1)^2
    entries of ``itemsize`` bytes each: 16 for the complex images of
    ``sum_gate``, 8 for the real ones of the chain. Three is the peak of
    either SUM-gate route: in ``sum_gate`` the products L_c P over the
    distinct c, their gather per column and the images; in the chain the
    images and a parity half's input and output of a factor."""
    return arrays * itemsize * (cutoff + 1) ** 2 * columns


def _sector_table_bytes(cutoff: int, conserved: str = "total") -> int:
    """Bytes of the real blocks of one sector table, 8 per entry; each
    sector's states are a slice, which holds no array. The parity chains of
    one mode hold ceil((N+1)/2)^2 + floor((N+1)/2)^2 entries. Either
    two-mode quantity has sectors of N + 1 - |k| states for k = -N..N, so its
    blocks hold sum_k (N + 1 - |k|)^2 = (N + 1)(2N^2 + 4N + 3)/3 entries."""
    n1 = cutoff + 1
    if conserved == "parity":
        return 8 * (((n1 + 1) // 2) ** 2 + (n1 // 2) ** 2)
    return 8 * (n1 * (2 * cutoff**2 + 4 * cutoff + 3) // 3)


def _eigenbasis_bytes(cutoff: int) -> int:
    """Bytes of the complex copy W or up a route forms of the quadrature
    eigenbasis, (N+1)^2 entries, and its N+1 values: the largest array it holds."""
    return 16 * (cutoff + 1) ** 2 + 8 * (cutoff + 1)


def _direct_bytes(cutoff: int, columns: int) -> int:
    """Peak bytes of ``sum_gate`` over ``columns`` basis columns: three
    image-sized arrays per column, two basis-sized arrays (the real basis of
    X_0 and up, X_{pi/2}'s) and the (N+1)^2 table of their phases."""
    return _columns_bytes(cutoff, columns) + 2 * _eigenbasis_bytes(cutoff) + 16 * (cutoff + 1) ** 2


def _chain_bytes(cutoff: int, columns: int) -> int:
    """Peak bytes of ``sum_gate_circuit`` over ``columns`` basis columns: their
    real images, 8 bytes per entry, and the splitter, mixer and OPA tables
    the chain holds at once."""
    return _columns_bytes(cutoff, columns, itemsize=8) + 3 * _sector_table_bytes(cutoff)


def _assemble(cutoff: int, kind: str, param: float) -> np.ndarray:
    """The read-only real dense matrix of the element ``kind`` at ``param``,
    on one mode for the squeezer and on two otherwise, from the blocks of
    ``_element_table``. Its 8-byte entries are refused above
    DENSE_BYTES_LIMIT before the table is fetched."""
    dim = (cutoff + 1) ** (1 if kind == "squeezers" else 2)
    require_memory(f"cutoff {cutoff}", 8 * dim**2)
    out = np.zeros((dim, dim))
    for sl, block in _element_table(cutoff, kind, param):
        out[sl, sl] = block
    return _read_only(out)


def _truncation_warning(label: str, tail: float, where: str) -> tuple[str, ...]:
    """The warning "truncation: <label> tail mass <tail> at <where>" when the
    tail mass a regularized state drops exceeds TAIL_WARN_TOL, else none.
    It is the only warning the module attaches: the operators are unitary
    to rounding at every cutoff, so their truncation shows only in states
    and in the SUM gate's block distance."""
    if tail > TAIL_WARN_TOL:
        return (f"truncation: {label} tail mass {tail:.2e} at {where}",)
    return ()


def _displacement_basis(cutoff: int, alpha: complex) -> tuple[np.ndarray, np.ndarray]:
    """(W, phases) with D(alpha) = W diag(phases) W^dag, for alpha = r e^{i theta}.

    The truncated generator r e^{i theta} a^dag - r e^{-i theta} a is
    R r(a^dag - a) R^dag with R = diag(e^{i theta n}), and r(a^dag - a) =
    -2i r X_{pi/2} = -2i r Q X_0 Q^dag with Q = diag(i^n). So W = diag(e^{i
    (theta + pi/2) n}) U and phases = e^{-2i r x}, read off the memoized
    real eigenbasis (x, U) of X_0. Every caller has counted W
    (``_eigenbasis_bytes``) before it asks.
    """
    values, vectors = _quadrature_basis(cutoff)
    w = _phases(cutoff, -np.angle(alpha) - np.pi / 2)[:, None] * vectors
    return w, np.exp(-2j * abs(alpha) * values)


def _displacement(cutoff: int, alpha: complex) -> np.ndarray:
    """The writable D(alpha) = W diag(phases) W^dag of ``_displacement_basis``,
    with W scaled in place; alpha = 0 gives exactly the identity."""
    if alpha == 0:
        return np.eye(cutoff + 1, dtype=complex)
    w, phases = _displacement_basis(cutoff, alpha)
    right = w.conj().T
    w *= phases
    return w @ right


def displacement(cutoff: int, alpha: complex) -> np.ndarray:
    """exp(alpha a^dag - conj(alpha) a) at the given cutoff (``_displacement``).
    At every alpha, 0 included, its basis W is refused above
    DENSE_BYTES_LIMIT before the memo is touched (``_eigenbasis_bytes``)."""
    _require_cutoff(cutoff)
    require_finite("alpha", alpha, complex_ok=True)
    require_memory(f"cutoff {cutoff}", _eigenbasis_bytes(cutoff))
    return _read_only(_displacement(cutoff, alpha))


def squeezer(cutoff: int, r: float) -> np.ndarray:
    """exp(log(r)(a^dag^2 - a^2)/2); maps x -> r x, p -> p / r in the Heisenberg picture.

    The truncated generator couples n to n + 2 only, so it is two chains, over
    even and over odd n: the memoized table of a squeezer pair of ``r``.
    """
    _require_cutoff(cutoff)
    require_finite("r", r)
    if r <= 0:
        raise ValueError("squeezing parameter must be positive")
    return _assemble(cutoff, "squeezers", r)


def _phases(cutoff: int, theta: float) -> np.ndarray:
    """The diagonal exp(-i theta n) of ``phase_shift``."""
    return np.exp(-1j * theta * np.arange(cutoff + 1))


def phase_shift(cutoff: int, theta: float) -> np.ndarray:
    """Diagonal phase rotation exp(-i theta n)."""
    _require_cutoff(cutoff)
    require_finite("theta", theta)
    require_memory(f"cutoff {cutoff}", 16 * (cutoff + 1) ** 2)
    return _read_only(np.diag(_phases(cutoff, theta)))


# (entry, nbytes) pairs, least recently used first: the sector tables of the
# squeezer and the two-mode factors by (cutoff, conserved, scale) and
# the real eigenbasis of X_0 by (cutoff, "quadrature", 0.0), never more than
# DENSE_BYTES_LIMIT bytes in all. The lock makes each lookup, eviction
# and insertion one step for callers on several threads.
_SECTOR_TABLES: dict[tuple[int, str, float], tuple[tuple, int]] = {}
_SECTOR_TABLES_LOCK = threading.Lock()


def _memoized(key: tuple[int, str, float], nbytes: int, build: Callable[[], object]):
    """The memo's entry for ``key``, built by ``build()`` on the first request.

    ``nbytes`` is the entry's size; the caller has refused one above
    DENSE_BYTES_LIMIT. To make room for a new entry, the least recently used
    ones are dropped.
    """
    with _SECTOR_TABLES_LOCK:
        held = _SECTOR_TABLES.pop(key, None)
        if held is None:
            while _SECTOR_TABLES and (
                sum(size for _, size in _SECTOR_TABLES.values()) + nbytes > DENSE_BYTES_LIMIT
            ):
                del _SECTOR_TABLES[next(iter(_SECTOR_TABLES))]
            held = (build(), nbytes)
        _SECTOR_TABLES[key] = held
        return held[0]


def _quadrature_basis(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of the real X_0 = ``quadrature(cutoff, 0)``: values
    x and vectors U as columns, float64, read-only and built once per cutoff.
    X_{pi/2} = Q X_0 Q^dag with Q = diag(i^n) has the basis (x, Q U), which
    its readers form and guard (``_eigenbasis_bytes``)."""
    _require_cutoff(cutoff)
    return _memoized((cutoff, "quadrature", 0.0), 8 * (cutoff + 1) * (cutoff + 2),
                     lambda: tuple(map(_read_only, np.linalg.eigh(_quadrature(cutoff, 0.0).real))))


def _build_sector_table(cutoff: int, conserved: str, scale: float) -> tuple:
    """The (states, block) pairs of each sector of a conserved quantity: the
    states are the slice of the basis the sector holds, and the read-only
    block is the ``_chain_expm`` of the chain with links scale sqrt(link).

    ``conserved`` is "parity" for the one-mode generator scale
    (a^dag^2 - a^2), whose sectors are the even and the odd n, linked from n
    to n + 2 by (n + 1)(n + 2). It is "total" for the two-mode generator
    scale (a^dag b - a b^dag), which conserves n_a + n_b, or "difference"
    for scale (a^dag b^dag - a b), which conserves n_a - n_b. Ordered by
    rising n_a, a two-mode sector is a chain whose link from n_a to n_a + 1
    moves n_b between m and m' and is (n_a + 1) max(m, m'). In the row-major
    two-mode basis the step from n_a to n_a + 1 is N in a total sector, where
    n_b falls by one, and N + 2 in a difference sector, where it rises by one.
    """
    n1 = cutoff + 1
    ks = np.arange(n1)
    if conserved == "parity":
        sectors = [(slice(p, n1, 2), (ns[:-1] + 1) * (ns[:-1] + 2))
                   for p, ns in ((0, ks[0::2]), (1, ks[1::2]))]
    else:
        if conserved == "total":
            mode_b, step = [tot - ks for tot in range(2 * cutoff + 1)], cutoff
        else:
            mode_b, step = [ks - diff for diff in range(-cutoff, cutoff + 1)], cutoff + 2
        sectors = []
        for ms in mode_b:
            inside = (ms >= 0) & (ms <= cutoff)
            k, m = ks[inside], ms[inside]
            first = int(k[0] * n1 + m[0])
            sectors.append((slice(first, first + step * (k.size - 1) + 1, step),
                            (k[:-1] + 1) * np.maximum(m[:-1], m[1:])))
    return tuple((sl, _read_only(_chain_expm(scale * np.sqrt(links)))) for sl, links in sectors)


def _sector_table(cutoff: int, conserved: str, scale: float) -> tuple:
    """The sector table of ``_build_sector_table``, built once per key.

    A table larger than DENSE_BYTES_LIMIT is refused before it is built. To
    make room for a new one, the least recently used tables are dropped.
    """
    _require_cutoff(cutoff)
    nbytes = _sector_table_bytes(cutoff, conserved)
    require_memory(f"cutoff {cutoff}", nbytes)
    return _memoized((cutoff, conserved, float(scale)), nbytes,
                     lambda: _build_sector_table(cutoff, conserved, scale))


# element kind of ``gaussian.circuit_factors`` -> its sector table's key at a
# parameter: the quantity the generator conserves and the generator's scale
_TABLE_KEYS = {
    "squeezers": lambda r: ("parity", 0.5 * np.log(r)),
    "mixer": lambda theta: ("total", theta),
    "opa": lambda alpha: ("difference", -alpha / 2.0),
}


def _element_table(cutoff: int, kind: str, param: float) -> tuple:
    """The sector table of the element ``kind`` of ``gaussian.circuit_factors`` at ``param``."""
    return _sector_table(cutoff, *_TABLE_KEYS[kind](param))


def _apply_sectors(vectors: np.ndarray, blocks, out: np.ndarray | None = None) -> np.ndarray:
    """Apply (states, block) pairs of distinct sectors to the rows of
    ``vectors``, a two-mode vector or a batch of them as columns, into
    ``out`` (a fresh zero array by default), whose other rows are kept. Each
    sector's rows are a strided view, read and written in place."""
    out = np.zeros_like(vectors) if out is None else out
    for sl, block in blocks:
        np.matmul(block, vectors[sl], out=out[sl])
    return out


def _parity_sectors(table: tuple, cutoff: int, parity: int) -> tuple:
    """The sectors of ``table`` whose states have total photon number of the
    given parity. A total sector has one total, and a difference sector k
    only totals of the parity of k; the table lists its sectors by a
    conserved value rising in steps of one, so their parities alternate."""
    a, b = divmod(table[0][0].start, cutoff + 1)
    return table[(a + b + parity) % 2::2]


def _apply_kron_on_parity(a: np.ndarray, b: np.ndarray, vectors: np.ndarray,
                          parity: int, out: np.ndarray | None = None) -> np.ndarray:
    """kron(a, b) for single-mode factors that conserve the parity of n,
    applied to two-mode columns that hold only states of total photon
    number of the given parity, into ``out`` (a fresh zero array by
    default). An amplitude matrix M of such a column has two nonzero parity
    blocks, M_rq with q = parity - r (mod 2), each mapped to a_rr M_rq
    b_qq^T; ``out``'s other two blocks are kept."""
    n1 = len(a)
    m = vectors.reshape(n1, n1, -1)
    out = np.zeros_like(vectors) if out is None else out
    for r in (0, 1):
        q = (parity - r) % 2
        block = m[r::2, q::2]
        t = (a[r::2, r::2] @ block.reshape(len(block), -1)).reshape(block.shape)
        np.matmul(b[q::2, q::2], t, out=out.reshape(n1, n1, -1)[r::2, q::2])
    return out


def _mixing_expm(cutoff: int, theta: float) -> np.ndarray:
    """expm of theta (a^dag b - a b^dag), assembled from its total-photon sectors."""
    return _assemble(cutoff, "mixer", theta)


def mode_mixer(cutoff: int, theta: float) -> np.ndarray:
    """exp(theta (a^dag b - a b^dag)); theta = pi/4 is the 50-50 beam splitter."""
    _require_cutoff(cutoff)
    require_finite("theta", theta)
    return _mixing_expm(cutoff, theta)


def opa(cutoff: int, alpha_param: float) -> np.ndarray:
    """exp(-(alpha/2)(a^dag b^dag - a b)), assembled from its photon-number-difference sectors."""
    _require_cutoff(cutoff)
    require_finite("alpha_param", alpha_param)
    return _assemble(cutoff, "opa", alpha_param)


# ---------------------------------------------------------------------------
# Basis helpers
# ---------------------------------------------------------------------------

def total_photon_numbers(cutoff: int) -> np.ndarray:
    """Total photon number of each two-mode basis state, in vector order."""
    _require_cutoff(cutoff)
    require_memory(f"cutoff {cutoff}", 8 * (cutoff + 1) ** 2)
    n = np.arange(cutoff + 1)
    return np.add.outer(n, n).reshape(-1)


def block_mask(cutoff: int, max_total: int) -> np.ndarray:
    """Boolean mask selecting two-mode basis states with total photons <= max_total."""
    _require_cutoff(cutoff)
    require_memory(f"cutoff {cutoff}", 9 * (cutoff + 1) ** 2)
    return total_photon_numbers(cutoff) <= max_total


# ---------------------------------------------------------------------------
# Regularized Dirac states
# ---------------------------------------------------------------------------

def lambda_fits(cutoff: int, lam: float) -> bool:
    """True iff the tail mass lambda^(2(N+1)) that the cutoff drops from
    sum_n lambda^n |n, n> is at most ``TAIL_ERROR_TOL``. A complex or
    non-finite lambda, or one outside (0, 1), is refused."""
    _require_cutoff(cutoff)
    require_finite("lam", lam)
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must lie in (0, 1), got {lam!r}")
    return lam ** (2 * (cutoff + 1)) <= TAIL_ERROR_TOL


def _doubleket_weights(cutoff: int, lams) -> tuple[np.ndarray, list[tuple[str, ...]]]:
    """The identity double-ket's weights lambda^n / ||lambda^n|| over n <= N,
    one row per lambda of ``lams``, and the tail warning of each. Every
    lambda is refused, through ``lambda_fits``, before any row is formed:
    one outside (0, 1), and one whose truncated tail mass lambda^(2(N+1))
    exceeds 1e-4; tails above 1e-8 warn."""
    warns = []
    for lam in lams:
        fits = lambda_fits(cutoff, lam)
        tail = lam ** (2 * (cutoff + 1))
        if not fits:
            raise ValueError(
                f"lambda = {lam} too close to 1 for cutoff {cutoff}:"
                f" tail mass {tail:.2e}"
            )
        warns.append(_truncation_warning("identity double-ket", tail,
                                         f"lambda = {lam}, cutoff {cutoff}"))
    weights = np.array(lams, dtype=float)[:, None] ** np.arange(cutoff + 1)
    for row in weights:
        row /= np.linalg.norm(row)
    return weights, warns


def identity_doubleket(cutoff: int, lam: float) -> RegularizedState:
    """Normalized two-mode squeezed vacuum sum_n lambda^n |n, n>.

    The sharp limit lambda -> 1 recovers the (non-normalizable) identity
    double-ket. Its (N+1)^2 entries are refused above DENSE_BYTES_LIMIT
    before anything is allocated; then ``_doubleket_weights`` refuses a
    lambda outside (0, 1) and one whose truncated tail mass lambda^(2(N+1))
    exceeds 1e-4, and gives the weights on the diagonal and the warning of
    a tail above 1e-8.
    """
    _require_cutoff(cutoff)
    n1 = cutoff + 1
    require_memory(f"cutoff {cutoff}", 16 * n1 * n1)
    (weights,), (warns,) = _doubleket_weights(cutoff, [lam])
    amps = np.zeros(n1 * n1, dtype=complex)
    amps[:: n1 + 1] = weights
    return RegularizedState(cutoff, 2, amps, warns)


def _padded_bytes(cutoff: int, modes: int, columns: int) -> int:
    """Bytes every route of ``columns`` displaced states of ``modes`` modes
    counts before it builds: W at N + ``_TAIL_PAD``, the largest array a
    state constructor's tail holds (``_eigenbasis_bytes``), and the
    (N+1)^modes complex amplitudes of each further column.
    The cores count it although they build no tail, so every route of a
    state refuses the same first cutoff."""
    return _eigenbasis_bytes(cutoff + _TAIL_PAD) + 16 * (cutoff + 1) ** modes * (columns - 1)


def _displaced_doubleket_tails(cutoff: int, lams, z: complex) -> np.ndarray:
    """Mass of D_P(z) diag(lambda^n)/sqrt(Lambda) outside the first N+1 levels
    of each mode, for each lambda of ``lams``, at the padded cutoff P = N +
    ``_TAIL_PAD``, with Lambda = sum_{n<=P} lambda^(2n) its squared norm.

    D_P is unitary to rounding, so each column n > N keeps its whole weight
    c_n^2 = lambda^(2n)/Lambda, and a column n <= N loses its rows m > N. The
    mass is sum_{n>N} c_n^2 + sum_{n<=N} c_n^2 sum_{m>N} |D_P[m, n]|^2, and
    those rows of D_P are W[N+1:] diag(phases) W[:N+1]^dag, read off the
    memoized eigenbasis (``_displacement_basis``) once for every lambda; at
    z = 0 they are 0.
    """
    weights, _ = _doubleket_weights(cutoff + _TAIL_PAD, lams)
    weights **= 2
    tails = weights[:, cutoff + 1:].sum(axis=1)
    if z != 0:
        w, phases = _displacement_basis(cutoff + _TAIL_PAD, z)
        rows = (w[cutoff + 1:] * phases) @ w[: cutoff + 1].conj().T
        tails += (np.abs(rows) ** 2 @ weights[:, : cutoff + 1].T).sum(axis=0)
    return tails


def _displaced_doublekets(cutoff: int, lams, z: complex) -> list[np.ndarray]:
    """The amplitude matrices of ``displaced_identity_doubleket`` at each
    lambda of ``lams`` and one z, each (N+1) x (N+1) and normalized in place.

    ``_padded_bytes`` is refused before any lambda
    (``_doubleket_weights``). The double-ket's amplitude matrix is diag(c),
    with c the weights of ``_doubleket_weights``, so the state's is D
    diag(c): D (``_displacement``) is formed once and scaled by each
    lambda's c, the last in place. No (N+1)^2 double-ket is filled, and the
    k matrices are a list, not one stacked array, so that the last is D itself.
    """
    require_finite("z", z, complex_ok=True)
    _require_cutoff(cutoff)
    require_memory(f"cutoff {cutoff}", _padded_bytes(cutoff, 2, len(lams)))
    weights, _ = _doubleket_weights(cutoff, lams)
    d = _displacement(cutoff, z)
    *first, last = weights
    states = [d * c for c in first] + [np.multiply(d, last, out=d)]
    for state in states:
        state /= np.linalg.norm(state)
    return states


def displaced_identity_doubleket(cutoff: int, lam: float, z: complex) -> RegularizedState:
    """(D(z) kron I) applied to the regularized identity double-ket, normalized.

    This is the one-sided regularization of |D(z)>>. The two-sided form
    (D(z/2) kron D(-conj(z)/2))|lambda>> tends to the same |D(z)>> as
    lambda -> 1, because (I kron B)|I>> = (B^T kron I)|I>> and
    D(w)^T = D(-conj(w)); at lambda < 1 the two differ by a mean offset, so
    their overlap is exp(-s^2 |z|^2 / 2) at the matched lambda (see
    ``entbs_fidelity``). Its amplitudes are the one-column case of
    ``_displaced_doublekets``; its warnings are the identity double-ket's
    and the padded tail of ``_displaced_doubleket_tails``.
    """
    (amps,) = _displaced_doublekets(cutoff, [lam], z)
    (warns,) = _doubleket_weights(cutoff, [lam])[1]
    (tail,) = _displaced_doubleket_tails(cutoff, [lam], z)
    return RegularizedState(cutoff, 2, amps, warns + _truncation_warning(
        "displaced double-ket", tail, f"lambda = {lam}, z = {z}, cutoff {cutoff}"))


def heterodyne_eigen_residual(cutoff: int, lam: float, z: complex) -> float:
    """Norm of (a - b^dag - z) applied to the regularized displaced double-ket.

    Converges to zero as lambda -> 1 at adequate cutoff, certifying the state
    as a generalized eigenvector of the heterodyne photocurrent a - b^dag; the
    value is independent of z because the displacement commutes through. It
    reads the state's amplitude matrix (``_displaced_doublekets``) without
    its tail, as no warning is returned, so it builds nothing above the cutoff.
    """
    (m,) = _displaced_doublekets(cutoff, [lam], z)
    # (a kron I) v = vec(a m) and (I kron b^dag) v = vec(m a) for the ladder a:
    # a m moves row n+1 of m to row n, m a moves column n to n+1, each times
    # sqrt(n+1), both formed in the residual's one array
    root = np.sqrt(np.arange(1, cutoff + 1))
    r = np.zeros_like(m)
    r[:-1] = root[:, None] * m[1:]
    r[:, 1:] -= m[:, :-1] * root
    r -= z * m
    return float(np.linalg.norm(r))


def _quad_amplitudes(n: int, x: float, phi: float, sharpness) -> np.ndarray:
    """exp(i phi n) D(x) S(s)|0> at cutoff ``n`` for each s of ``sharpness``,
    unnormalized: the columns of one (n+1) x k array. The squeezed vacua
    S(s)|0>, column 0 of each ``squeezer``, are the columns of one block, so
    the displacement is two products of its eigenbasis with the block."""
    amps = np.empty((n + 1, len(sharpness)))
    for j, s in enumerate(sharpness):
        amps[:, j] = squeezer(n, s)[:, 0]  # S(s)|0>
    if x != 0:  # D(0) is exactly the identity, as in ``displacement``
        w, phases = _displacement_basis(n, x)
        # amps is real, so W^dag amps = conj(amps^T W)^T, without a copy of W^dag
        amps = w @ (phases[:, None] * (amps.T @ w).conj().T)
    return _phases(n, -phi)[:, None] * amps


def _quad_states(cutoff: int, x: float, phi: float, sharpness) -> np.ndarray:
    """The amplitudes of ``quad_eigenstate_approx`` at one x and phi and each
    sharpness of ``sharpness``: the columns of one (N+1) x k array
    (``_quad_amplitudes`` at N), each normalized in place. Every parameter
    is refused first, then ``_padded_bytes``."""
    require_finite("x", x)
    require_finite("phi", phi)
    for s in sharpness:
        require_finite("s", s)
        if not 0.0 < s <= 1.0:
            raise ValueError("sharpness s must lie in (0, 1]")
    _require_cutoff(cutoff)
    require_memory(f"cutoff {cutoff}", _padded_bytes(cutoff, 1, len(sharpness)))
    amps = _quad_amplitudes(cutoff, x, phi, sharpness)
    for column in amps.T:
        column /= np.linalg.norm(column)
    return amps


def _quad_tail_warning(cutoff: int, x: float, phi: float, s: float) -> tuple[str, ...]:
    """The tail warning of ``quad_eigenstate_approx``: the mass the state
    built at N + ``_TAIL_PAD`` (``_quad_amplitudes``) holds above level N."""
    padded = _quad_amplitudes(cutoff + _TAIL_PAD, x, phi, [s])
    (tail,) = (np.abs(padded[cutoff + 1:]) ** 2).sum(axis=0)
    return _truncation_warning("quadrature eigenstate", tail,
                               f"x = {x}, phi = {phi}, s = {s}, cutoff {cutoff}")


def quad_eigenstate_approx(cutoff: int, x: float, phi: float, s: float) -> RegularizedState:
    """Normalizable stand-in for the quadrature eigenvector |x>_phi.

    Built as exp(i phi n) D(x) S(s) |0>: a squeezed vacuum of X_0 variance
    s^2/4, displaced to mean x, then rotated so the sharp axis lies along
    X_phi with mean <X_phi> = x. Smaller s means a sharper approximation.
    Its amplitudes are the one-column case of ``_quad_states``, and its
    warning is that of ``_quad_tail_warning``.
    """
    amps = _quad_states(cutoff, x, phi, [s])
    return RegularizedState(cutoff, 1, amps[:, 0], _quad_tail_warning(cutoff, x, phi, s))


# ---------------------------------------------------------------------------
# The SUM gate: direct exponential and the optical five-factor chain
# ---------------------------------------------------------------------------

def _basis_indices(cutoff: int, indices, nbytes: Callable[[int, int], int]) -> np.ndarray:
    """Validated non-empty 1-D array of two-mode basis indices, once the memory
    guard has passed ``nbytes(cutoff, count)`` for ``count`` indices."""
    _require_cutoff(cutoff)
    dim = (cutoff + 1) ** 2
    idx = np.asarray(indices)
    if (idx.ndim != 1 or idx.size == 0 or not np.issubdtype(idx.dtype, np.integer)
            or idx.min() < 0 or idx.max() >= dim):
        raise ValueError(
            f"basis indices must be a non-empty 1-D integer array within [0, {dim})"
        )
    require_memory(f"cutoff {cutoff}", nbytes(cutoff, idx.size))
    return idx


def _direct_images(cutoff: int, cols: np.ndarray, rows: int) -> np.ndarray:
    """Rows a, b < ``rows`` of the direct SUM gate's images of the basis states
    ``cols``, row a * rows + b holding |a, b>.

    Both quadratures are Hermitian, so the exponential of the Kronecker product
    factorizes over their eigenbases kron(up, ux): ux is X_0's real basis
    (``_quadrature_basis``), and X_{pi/2} has the same values x and up =
    diag(i^n) ux, from an exact table of i^n. On the rows a, b < ``rows`` the
    amplitude matrix of the image of |c, d> is L_c P R_d, with L_c = up[:rows]
    diag(conj up[c]), the phase table P = e^{-2i x x^T} and R_d = diag(ux[d])
    ux[:rows]^T. So L_c P is one product over the distinct c, gathered per
    column and scaled in place by the real ux[d], and one product with
    ux[:rows]^T finishes every column: no two-mode matrix and no coefficient
    array is built. The callers guard the arrays (``_direct_bytes``).
    """
    n1 = cutoff + 1
    x, ux = _quadrature_basis(cutoff)
    up = np.array([1, 1j, -1, -1j])[np.arange(n1) % 4, None] * ux
    firsts, which = np.unique(cols // n1, return_inverse=True)
    left = (up[:rows] * up[firsts].conj()[:, None, :]).reshape(-1, n1)
    del up
    left = (left @ np.exp(-2j * np.outer(x, x))).reshape(firsts.size, rows, n1)
    images = left[which]
    del left  # the gather holds every column's rows
    images *= ux[cols % n1][:, None, :]
    return (images.reshape(-1, n1) @ ux[:rows].T).reshape(cols.size, -1).T


def sum_gate(cutoff: int, columns) -> np.ndarray:
    """exp(-2i X_{pi/2} kron X_0), evaluated spectrally (``_direct_images``
    on every row) and applied to the basis states ``columns`` (an array of
    two-mode indices): the read-only images, column j that of ``columns[j]``.
    This is exact and avoids a dense two-mode Pade exponential."""
    cols = _basis_indices(cutoff, columns, _direct_bytes)
    return _read_only(_direct_images(cutoff, cols, cutoff + 1))


def _squeezer_pair(cutoff: int, r: float, mode: int) -> tuple[np.ndarray, np.ndarray]:
    """Mode a's and b's factor of ("squeezers", r, mode): S(r) on ``mode``, S(r)^T on the other."""
    s = squeezer(cutoff, r)
    return (s, s.T) if mode == 0 else (s.T, s)


def _chain_halves(cutoff: int, cols: np.ndarray):
    """Yield ``(parity, half, images)`` for each total parity that a basis
    state of ``cols`` has: ``half`` indexes those states in ``cols`` and
    ``images`` holds their full-height images under the chain. A caller
    drops ``images`` before the next half, so its buffers are freed first.

    In a half the factors act rightmost first: that squeezer pair kron(A,
    B) on the unit columns as the outer products A[:, c] B[:, d]^T, a
    two-mode element as its sector blocks of the half's parity, and the
    other squeezer pair by ``_apply_kron_on_parity``. Each factor reads one
    of two zeroed buffers and writes only the two parity blocks of each
    amplitude matrix in the other, so the rows off the parity stay +0.0.
    """
    n1 = cutoff + 1
    *later, (_, (first_a, first_b)) = [
        (kind, _squeezer_pair(cutoff, *args) if kind == "squeezers"
         else _element_table(cutoff, kind, *args))
        for kind, *args in gaussian.circuit_factors(gaussian.decomposition_params())]
    c, d = np.divmod(cols, n1)
    for parity in (0, 1):
        half = np.flatnonzero((c + d) % 2 == parity)
        if half.size == 0:
            continue
        images, spare = np.zeros((2, n1 * n1, half.size))
        for r in (0, 1):
            q = (parity - r) % 2
            np.multiply(first_a[r::2, c[half]][:, None, :], first_b[q::2, d[half]][None, :, :],
                        out=images.reshape(n1, n1, -1)[r::2, q::2])
        for kind, operand in reversed(later):
            if kind == "squeezers":
                _apply_kron_on_parity(*operand, images, parity, out=spare)
            else:
                _apply_sectors(images, _parity_sectors(operand, cutoff, parity), out=spare)
            images, spare = spare, images
        yield parity, half, images
        del images, spare


def sum_gate_circuit(cutoff: int, columns) -> np.ndarray:
    """The optical realization of the SUM gate, ``gaussian.circuit_factors``
    at ``gaussian.decomposition_params()``, applied to the basis states
    ``columns`` (an array of two-mode indices): the read-only images, column
    j that of ``columns[j]``.

    Every factor conserves the parity of n_a + n_b, so the image of |c, d>
    lives on the rows of parity c + d: ``_chain_halves`` runs the columns
    in two halves by that parity, and this assembles them. No factor is
    built as a two-mode matrix. Every factor is real and unitary to
    rounding at any cutoff, so the images are float64 and carry no warning:
    their truncation shows in the block distance of ``sum_gate_block_checks``.
    """
    cols = _basis_indices(cutoff, columns, _chain_bytes)
    out = np.empty(((cutoff + 1) ** 2, cols.size))
    for _, half, images in _chain_halves(cutoff, cols):
        out[:, half] = images
        del images
    return _read_only(out)


def phase_aligned_block_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Entrywise max of a - e^{i theta} b, for a and b the same basis block of
    two operators, theta chosen so the largest-modulus element of b matches a
    (global phases are unobservable). Blocks of different shapes are refused."""
    if a.shape != b.shape:
        raise ValueError(f"blocks of shapes {a.shape} and {b.shape} differ")
    i, j = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if b[i, j] == 0:
        raise ValueError("b vanishes on the block: no entry to align the phase to")
    phase = a[i, j] / b[i, j]
    phase /= abs(phase)
    return float(np.abs(a - phase * b).max())


def _states_up_to(cutoff: int, max_total: int) -> int:
    """Number of two-mode basis states with total photon number <= max_total."""
    def triangle(k: int) -> int:
        return (k + 1) * (k + 2) // 2 if k >= 0 else 0

    if max_total <= cutoff:
        return triangle(max_total)
    # the complement, a + b > max_total, mirrors to (N-a) + (N-b) < 2N - max_total
    return (cutoff + 1) ** 2 - triangle(2 * cutoff - max_total - 1)


def require_block_checks_fit(cutoff: int, block_photons: int) -> None:
    """Refuse, before anything is allocated, a cutoff whose
    :func:`sum_gate_block_checks` arrays would exceed DENSE_BYTES_LIMIT: the
    chain's three sector tables (splitter, mixer, OPA), four image-sized
    arrays per block column (the direct gate's three complex ones and a real
    one, more than the chain's halves hold) and the direct gate's two
    basis-sized arrays and its (N+1)^2 phase table. The column count is
    computed, not masked, so that a huge cutoff is refused without an
    (N+1)^2 mask. A ``block_photons`` that is not an integer >= 0 is refused.
    """
    _require_cutoff(cutoff)
    if not is_integer(block_photons) or block_photons < 0:
        raise ValueError(f"block_photons must be an integer >= 0, got {block_photons!r}")
    columns = _states_up_to(cutoff, block_photons)
    require_memory(f"cutoff {cutoff}",
                   _direct_bytes(cutoff, columns) + _columns_bytes(cutoff, columns, 1, 8)
                   + 3 * _sector_table_bytes(cutoff))


def sum_gate_block_checks(cutoff: int, block_photons: int) -> tuple[float, float]:
    """Both SUM-gate checks at one cutoff, from one pass of the optical chain
    and one of the direct gate over the block: the basis columns of total
    photon number <= ``block_photons``.

    Returns ``(gram_defect, distance)``. The Gram defect is the max entry of
    C^dag C - I for the chain's images C of the block: every factor is
    unitary to rounding, so it reads rounding (about 1e-14 at N = 20 to 80)
    and cannot see truncation. Images of columns of different total parity
    have disjoint rows, so their cross products are exactly zero, and the
    defect is the larger of the two parity halves' own, or NaN if either is.
    The distance, phase-aligned, is between the two routes' images on the
    block's rows; it is where the truncation shows. The direct gate builds only the rows a,
    b <= ``block_photons`` (``_direct_images``), which hold the block's.
    """
    require_block_checks_fit(cutoff, block_photons)
    block = np.flatnonzero(block_mask(cutoff, block_photons))
    rows_parity = total_photon_numbers(cutoff) % 2
    chain, defects = np.empty((block.size, block.size)), []
    for parity, half, images in _chain_halves(cutoff, block):
        chain[:, half] = images[block]
        defects.append(unitarity_defect(images[rows_parity == parity]))
        del images
    rows = min(block_photons, cutoff) + 1
    a, b = np.divmod(block, cutoff + 1)
    direct = _direct_images(cutoff, block, rows)[a * rows + b]
    return float(np.max(defects)), phase_aligned_block_distance(direct, chain)


# ---------------------------------------------------------------------------
# Beam-splitter factorization of the heterodyne eigenvectors
# ---------------------------------------------------------------------------

def matched_lambda(s: float) -> float:
    """Damping parameter of the two-mode squeezed vacuum produced by feeding a
    50-50 beam splitter with orthogonally squeezed inputs of sharpness s.
    An s outside (0, 1), whose lambda would lie outside (0, 1), is refused."""
    require_finite("s", s)
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s!r}")
    return (1.0 - s * s) / (1.0 + s * s)


def _entbs_outputs(cutoff: int, x: float, y: float, sharpness) -> np.ndarray:
    """The amplitudes of ``entbs_output`` at one (x, y) and each sharpness of
    ``sharpness``: the columns of one (N+1)^2 x k array. The splitter's
    table is fetched first, the inputs of every s are the columns of one
    block per mode (``_quad_states``), and the splitter makes one pass over
    the (re, im) pairs of every column."""
    require_finite("x", x)
    require_finite("y", y)
    splitter = _element_table(cutoff, "mixer", np.pi / 4)
    in_a = _quad_states(cutoff, x / np.sqrt(2.0), 0.0, sharpness)
    in_b = _quad_states(cutoff, y / np.sqrt(2.0), np.pi / 2.0, sharpness)
    # column j is kron(in_a[:, j], in_b[:, j])
    product = (in_a[:, None, :] * in_b[None, :, :]).reshape(-1, len(sharpness))
    # the real blocks act on the (re, im) pairs of the complex columns
    return _apply_sectors(product.view(np.float64), splitter).view(complex)


def entbs_output(cutoff: int, x: float, y: float, s: float) -> RegularizedState:
    """Beam-splitter image of |x/sqrt2>_0 kron |y/sqrt2>_{pi/2} at sharpness s.

    The 50-50 splitter is applied sector by sector to the product vector, so
    no dense two-mode matrix is built; ``mode_mixer(cutoff, pi/4)`` assembles
    the same blocks. The splitter's table is requested first, so a cutoff
    whose table is refused builds no state. Its amplitudes are the
    one-column case of ``_entbs_outputs``; its warnings are the tail
    warnings of its two inputs (``_quad_tail_warning``), mode a's first.
    """
    out = _entbs_outputs(cutoff, x, y, [s])
    warns = (_quad_tail_warning(cutoff, x / np.sqrt(2.0), 0.0, s)
             + _quad_tail_warning(cutoff, y / np.sqrt(2.0), np.pi / 2.0, s))
    return RegularizedState(cutoff, 2, out[:, 0], warns)


def entbs_fidelities(cutoff: int, x: float, y: float, sharpness) -> list[float]:
    """``entbs_fidelity`` at one (x, y) for each sharpness of ``sharpness``,
    read once, from one pass: the inputs of every s are the columns of one
    block, the splitter runs once over them (``_entbs_outputs``), and the
    references share one D(x + iy) (``_displaced_doublekets``). No tail is
    built, as no warning is returned. Every s is refused before anything is
    built, and an empty ``sharpness`` builds nothing."""
    sharpness = list(sharpness)
    lams = [matched_lambda(s) for s in sharpness]
    require_finite("x", x)
    require_finite("y", y)
    _require_cutoff(cutoff)
    if not lams:
        return []
    out = _entbs_outputs(cutoff, x, y, sharpness)
    refs = _displaced_doublekets(cutoff, lams, x + 1j * y)
    # each column copied whole: ``np.vdot`` sums a strided one without the
    # blocked sums it gives a contiguous one, which moved the N = 150
    # fidelities by 1.5e-14
    return [float(abs(np.vdot(ref, out[:, j].copy())) ** 2) for j, ref in enumerate(refs)]


def entbs_fidelity(cutoff: int, x: float, y: float, s: float) -> float:
    """Squared overlap of the beam-splitter image with the regularized
    displaced double-ket |D(x+iy)>> at the matched lambda.

    The reference is the one-sided ``displaced_identity_doubleket``, and the
    overlap has the closed form exp(-s^2 |z|^2 / 2), z = x + iy, at every
    cutoff that holds both states:

    * the inputs have means <a> = x/sqrt2 and <b> = iy/sqrt2, and the beam
      splitter sends a -> (a+b)/sqrt2, b -> (b-a)/sqrt2, so the image is
      exactly D_a(z/2) D_b(-conj(z)/2)|lambda_s>>, the split-displaced
      double-ket at lambda_s = ``matched_lambda(s)``;
    * image and reference share one covariance and differ in mean by
      (z/2, conj(z)/2), which lies along the commuting EPR quadratures
      X_a + X_b and Y_a - Y_b, each of variance e^{2r}/2 with tanh r =
      lambda_s, i.e. e^{-2r} = s^2;
    * the pure-state Gaussian fidelity exp(-d^T V^{-1} d / 4) is then
      exp(-s^2 |z|^2 / 2) (Weedbrook et al., RMP 84, 621 (2012)).

    Only the truncation moves the Fock value off the closed form. An s with
    no matched lambda is refused before any state is built. It is the
    one-column case of ``entbs_fidelities``.
    """
    return entbs_fidelities(cutoff, x, y, [s])[0]
