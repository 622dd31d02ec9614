"""Truncated Fock-space realization of the bosonic objects.

Single-mode operators live on the first N+1 number states; two-mode operators
on the Kronecker product with mode a as the slow (row-major) factor, matching
the double-ket layout. The quadrature convention is X_phi =
(e^{i phi} a^dag + e^{-i phi} a) / 2, so X_0 and X_{pi/2} have commutator i/2
and the vacuum variance is 1/4.

Every Gaussian unitary is the exponential of its generator truncated to the
cutoff. The displacement's truncated generator r e^{i theta} a^dag - h.c. is
-2i r X_{pi/2} rotated by diag(e^{i theta n}), so every displacement at a
cutoff is read off one eigenbasis of X_{pi/2}, the same one the direct SUM
gate uses. Every other truncated generator is block-diagonal in a conserved
photon-number quantity, and inside a block it is a tridiagonal chain with
zero diagonal: the squeezer has two (even and odd n), the beam splitter and
mode mixer one per sector of total photon number, and the optical parametric
amplifier one per sector of photon-number difference. A chain links only
sites of opposite parity, so ``_chain_expm`` reads exp(G) off one SVD of its
even-to-odd block X: cos and sin of the singular values give the four parity
blocks, and a zero chain gives exactly the identity.

The truncated generator is exactly anti-Hermitian, so every factor and every
sector block is unitary to rounding at any cutoff: the max entry of
U^dag U - I (``unitarity_defect``) measures rounding, not truncation, and no
operator carries a warning. The truncation shows instead as a deviation
from the untruncated operator near the cutoff, which two diagnostics see:
the SUM gate's block distance in ``sum_gate_block_checks``, and the tail
masses of the states.

Dirac-like states are only ever represented in regularized form: the identity
double-ket as a two-mode squeezed vacuum with weight lambda^n, and quadrature
eigenvectors as rotated displaced squeezed vacua with sharpness s. Each
regularized constructor records its parameters and the tail mass it drops
above the cutoff; tails above 1e-8 attach a warning, and the identity
double-ket refuses lambda so large that the tail exceeds 1e-4. The two
displaced states take that tail from one helper, ``_padded_state``: it builds
the state at cutoff N and at N + ``_TAIL_PAD``, sums the padded build's mass
outside the first N+1 levels of each mode, normalizes the cutoff-N build and
keeps the tail warning of the identity double-ket it is built from. A
quadrature state applies its displacement as two products of a vector with
the displacement's eigenbasis, and the double-ket, whose amplitude matrix is
diagonal, as a column scaling of D. The beam splitter acts on two-mode
states sector by sector, so no state path builds a dense two-mode matrix.

Both SUM-gate routes return the full-height images of the basis columns a
caller reads (``FockColumns``). Every factor of the chain
(``sum_gate_circuit``) conserves the parity of n_a + n_b: a squeezer pair
moves each mode by an even number of photons, the mixer and the splitter
conserve n_a + n_b, and the OPA's sector of difference k holds only totals
of the parity of k. So the chain runs the columns of each parity through
the sector blocks of that parity only, and its images are exactly zero off
their parity's rows. The direct ``sum_gate`` applies kron(up, ux) of the
quadratures' eigenbases as up M ux^T on each column's amplitude matrix M,
around its phases (``_direct_images``). ``sum_gate_block_checks`` runs each
route once, on the states of total photon number <= block, and the direct
gate only on the rows a, b <= block: the distance compares the two sets of
images on the block's rows, and the Gram defect reads the chain's images,
one parity half at a time.

The sector blocks of each two-mode factor form one table per cutoff,
conserved quantity and generator scale. It is built once, kept read-only in
a module-level memo and shared by every later call: the 50-50 splitter of
``entbs_output``, ``mode_mixer`` and the chain, the chain's mode mixer, and
the OPA of ``opa`` and the chain. The same memo keeps the eigenbases of X_0
and X_{pi/2} per cutoff, which ``sum_gate`` reads, and the displacements
with it. The memo holds at most ``DENSE_BYTES_LIMIT`` bytes of entries; a
new entry first drops the least recently used ones. Each table holds
(N+1)(2N^2+4N+3)/3 complex entries and (N+1)^2 int64 indices; a table
that alone exceeds the limit is refused before anything is built, and with
it ``entbs_output`` and the fidelities built on it. An eigenbasis holds
(N+1)^2 complex entries and N+1 eigenvalues.

One guard, ``require_memory``, refuses a route whose arrays would exceed
``DENSE_BYTES_LIMIT`` before it allocates them: here a dense matrix, a
displacement's eigenbasis, the SUM-gate column images and a sector table
(its blocks and their indices), and also the qudit layer's gate set, its
dense V and the ``qudit synth`` export. The column routes count three
image-sized arrays per column, their peak; ``_direct_bytes`` adds the direct
gate's two eigenbases and phase table, ``_chain_bytes`` the chain's three
sector tables, held at once, and ``require_block_checks_fit``, which refuses
a cutoff list up front, counts the direct gate, the tables and one more
array per block column: the chain's images, held while the direct gate
runs. The README's guard paragraph states the first size each guard
refuses.

Every public constructor refuses a cutoff that is not an integer >= 1
(``is_integer``: a Python or numpy integer, not a bool), and the memo
refuses one before it is touched. Stored arrays are read-only: the
dataclasses are frozen, and so are their matrices and amplitudes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import gaussian
from .gaussian import require_finite

TAIL_WARN_TOL = 1e-8
TAIL_ERROR_TOL = 1e-4
_TAIL_PAD = 12
# most bytes of complex arrays one route may allocate; the README states the
# first size each guard refuses
DENSE_BYTES_LIMIT = 2**30


@dataclass(frozen=True, eq=False)
class FockOperator:
    """A dense operator together with its photon-number cutoff and mode count."""

    cutoff: int
    modes: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.modes not in (1, 2):
            raise ValueError("modes must be 1 or 2")
        dim = (self.cutoff + 1) ** self.modes
        if self.matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} inconsistent with cutoff"
                f" {self.cutoff} and {self.modes} mode(s)"
            )
        self.matrix.setflags(write=False)


@dataclass(frozen=True, eq=False)
class FockColumns:
    """Images of selected two-mode basis states under an operator: column j of
    ``matrix`` is the image of basis state ``columns[j]``."""

    cutoff: int
    columns: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        shape = ((self.cutoff + 1) ** 2, len(self.columns))
        if self.matrix.shape != shape:
            raise ValueError(
                f"matrix shape {self.matrix.shape} inconsistent with cutoff"
                f" {self.cutoff} and {len(self.columns)} column(s)"
            )
        self.columns.setflags(write=False)
        self.matrix.setflags(write=False)


@dataclass(frozen=True, eq=False)
class RegularizedState:
    """A normalized state vector with its regularization parameters."""

    cutoff: int
    modes: int
    amplitudes: np.ndarray
    params: dict[str, float] = field(default_factory=dict)
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


def _ladder(cutoff: int) -> np.ndarray:
    a = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    ns = np.arange(1, cutoff + 1)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def quadrature(cutoff: int, phi: float) -> FockOperator:
    """Hermitian quadrature (e^{i phi} a^dag + e^{-i phi} a) / 2."""
    _require_cutoff(cutoff)
    require_finite("phi", phi)
    a = _ladder(cutoff)
    x = 0.5 * (np.exp(1j * phi) * a.conj().T + np.exp(-1j * phi) * a)
    return FockOperator(cutoff, 1, x)


def _gram_defect(u: np.ndarray) -> float:
    """Max entry of U^dag U - I over the columns of U."""
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[1])).max())


def unitarity_defect(op: FockOperator) -> float:
    """Max entry of U^dag U - I."""
    return _gram_defect(op.matrix)


def _chain_expm(sub: np.ndarray) -> np.ndarray:
    """expm(G) for the anti-Hermitian tridiagonal G with zero diagonal,
    G[i+1, i] = sub[i] and G[i, i+1] = -conj(sub[i]).

    G only links sites of opposite parity, so in even-then-odd order it is
    [[0, X], [-X^H, 0]] with X[k, k] = -conj(sub[2k]) and X[k+1, k] =
    sub[2k+1]. With X = U S V^H (full U), expm(G) has the blocks U cos S U^H,
    U sin S V^H, -V sin S U^H and V cos S V^H; an even site beyond the rank of
    X takes cos 0 = 1. An all-zero chain gives exactly the identity.
    """
    sub = np.asarray(sub, dtype=complex)
    n = sub.size + 1
    if not sub.any():
        return np.eye(n, dtype=complex)
    x = np.zeros(((n + 1) // 2, n // 2), dtype=complex)
    k = np.arange(n // 2)
    x[k, k] = -sub[0::2].conj()
    j = np.arange(sub[1::2].size)
    x[j + 1, j] = sub[1::2]
    u, s, vh = np.linalg.svd(x)
    cos = np.ones(u.shape[0])
    cos[: s.size] = np.cos(s)
    out = np.empty((n, n), dtype=complex)
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


def _require_fits(cutoff: int, entries: int) -> None:
    """Refuse complex arrays of ``entries`` entries in all, 16 bytes each."""
    require_memory(f"cutoff {cutoff}", 16 * entries)


def _columns_bytes(cutoff: int, columns: int, arrays: int = 3) -> int:
    """Bytes of ``arrays`` complex arrays of ``columns`` two-mode columns,
    (N+1)^2 entries each. Three is the peak of either SUM-gate route: in
    ``sum_gate`` the phased eigenbasis coefficients, the product with one
    eigenbasis and the images; in the chain a parity half's input and output
    of a factor, with the other half's images held."""
    return arrays * 16 * (cutoff + 1) ** 2 * columns


def _sector_table_bytes(cutoff: int) -> int:
    """Bytes of one table of sector blocks. Either conserved quantity has
    sectors of N + 1 - |k| states for k = -N..N, so the blocks hold
    sum_k (N + 1 - |k|)^2 = (N + 1)(2N^2 + 4N + 3)/3 complex entries, and
    their int64 indices one entry per basis state, (N+1)^2 in all."""
    return 16 * ((cutoff + 1) * (2 * cutoff**2 + 4 * cutoff + 3) // 3) + 8 * (cutoff + 1) ** 2


def _eigenbasis_bytes(cutoff: int) -> int:
    """Bytes of one quadrature eigenbasis: (N+1)^2 complex vectors, N+1 real values."""
    return 16 * (cutoff + 1) ** 2 + 8 * (cutoff + 1)


def _direct_bytes(cutoff: int, columns: int) -> int:
    """Peak bytes of ``sum_gate`` over ``columns`` basis columns: three
    image-sized arrays per column, the eigenbases of X_{pi/2} and X_0 and the
    (N+1)^2 table of their phases."""
    return _columns_bytes(cutoff, columns) + 2 * _eigenbasis_bytes(cutoff) + 16 * (cutoff + 1) ** 2


def _chain_bytes(cutoff: int, columns: int) -> int:
    """Peak bytes of ``sum_gate_circuit`` over ``columns`` basis columns: their
    images, and the splitter, mixer and OPA tables the chain holds at once."""
    return _columns_bytes(cutoff, columns) + 3 * _sector_table_bytes(cutoff)


def _assemble(cutoff: int, modes: int, blocks) -> np.ndarray:
    """Dense matrix from (indices, block) pairs that partition the basis."""
    _require_fits(cutoff, (cutoff + 1) ** (2 * modes))
    dim = (cutoff + 1) ** modes
    out = np.zeros((dim, dim), dtype=complex)
    for idx, block in blocks:
        out[np.ix_(idx, idx)] = block
    return out


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
    -2i r X_{pi/2}. So W = R U and phases = e^{-2i r p}, read off the
    memoized eigenbasis (p, U) of X_{pi/2}, which does not depend on alpha.
    Refuses an (N+1)^2 basis above DENSE_BYTES_LIMIT before the memo is
    touched.
    """
    _require_fits(cutoff, (cutoff + 1) ** 2)
    basis = _quadrature_basis(cutoff, np.pi / 2)
    w = _phases(cutoff, -np.angle(alpha))[:, None] * basis.vectors
    return w, np.exp(-2j * abs(alpha) * basis.values)


def displacement(cutoff: int, alpha: complex) -> FockOperator:
    """exp(alpha a^dag - conj(alpha) a) at the given cutoff, from the
    eigenbasis of ``_displacement_basis``; alpha = 0 gives exactly the identity."""
    _require_cutoff(cutoff)
    require_finite("alpha", alpha, complex_ok=True)
    if alpha == 0:
        return FockOperator(cutoff, 1, np.eye(cutoff + 1, dtype=complex))
    w, phases = _displacement_basis(cutoff, alpha)
    return FockOperator(cutoff, 1, (w * phases) @ w.conj().T)


def _squeezer_chain(cutoff: int, r: float, first: int) -> tuple[np.ndarray, np.ndarray]:
    """The levels n = first, first + 2, ... <= N and the squeezer's block on
    them: the ``_chain_expm`` of subdiagonal log(r) sqrt((n+1)(n+2)) / 2."""
    ns = np.arange(first, cutoff + 1, 2)
    sub = 0.5 * np.log(r) * np.sqrt((ns[:-1] + 1) * (ns[:-1] + 2))
    return ns, _chain_expm(sub)


def squeezer(cutoff: int, r: float) -> FockOperator:
    """exp(log(r)(a^dag^2 - a^2)/2); maps x -> r x, p -> p / r in the Heisenberg picture.

    The truncated generator couples n to n + 2 only, so it is two chains, over
    even and over odd n (``_squeezer_chain``).
    """
    _require_cutoff(cutoff)
    require_finite("r", r)
    if r <= 0:
        raise ValueError("squeezing parameter must be positive")
    chains = [_squeezer_chain(cutoff, r, first) for first in (0, 1)]
    return FockOperator(cutoff, 1, _assemble(cutoff, 1, chains))


def _phases(cutoff: int, theta: float) -> np.ndarray:
    """The diagonal exp(-i theta n) of ``phase_shift``."""
    return np.exp(-1j * theta * np.arange(cutoff + 1))


def phase_shift(cutoff: int, theta: float) -> FockOperator:
    """Diagonal phase rotation exp(-i theta n)."""
    _require_cutoff(cutoff)
    require_finite("theta", theta)
    return FockOperator(cutoff, 1, np.diag(_phases(cutoff, theta)))


@dataclass(frozen=True, eq=False)
class _SectorTable:
    """The (indices, block) pairs of every sector of one conserved quantity,
    at one cutoff and generator scale; indices and blocks are read-only."""

    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    nbytes: int


@dataclass(frozen=True, eq=False)
class _Eigenbasis:
    """``np.linalg.eigh`` of one quadrature at one cutoff: the eigenvalues and
    the eigenvectors as columns, both read-only."""

    values: np.ndarray
    vectors: np.ndarray
    nbytes: int


# Sector tables by (cutoff, conserved, scale) and quadrature eigenbases by
# (cutoff, "quadrature", phi), least recently used first; the entries held
# here never exceed DENSE_BYTES_LIMIT bytes in all. The lock makes each
# lookup, eviction and insertion one step for callers on several threads.
_SECTOR_TABLES: dict[tuple[int, str, float], _SectorTable | _Eigenbasis] = {}
_SECTOR_TABLES_LOCK = threading.Lock()


def _memoized(key: tuple[int, str, float], nbytes: int, build: Callable[[], object]):
    """The memo's entry for ``key``, built by ``build()`` on the first request.

    ``nbytes`` is the entry's size; the caller has refused one above
    DENSE_BYTES_LIMIT. To make room for a new entry, the least recently used
    ones are dropped.
    """
    with _SECTOR_TABLES_LOCK:
        entry = _SECTOR_TABLES.pop(key, None)
        if entry is None:
            while _SECTOR_TABLES and (
                sum(e.nbytes for e in _SECTOR_TABLES.values()) + nbytes > DENSE_BYTES_LIMIT
            ):
                del _SECTOR_TABLES[next(iter(_SECTOR_TABLES))]
            entry = build()
        _SECTOR_TABLES[key] = entry
        return entry


def _quadrature_basis(cutoff: int, phi: float) -> _Eigenbasis:
    """The eigenbasis of ``quadrature(cutoff, phi)``, built once per cutoff
    and angle. Its (N+1)^2 + (N+1) entries are guarded by its callers: the
    displacement's own guard, and ``_direct_bytes`` and
    ``require_block_checks_fit``, which count both eigenbases."""

    def build() -> _Eigenbasis:
        values, vectors = np.linalg.eigh(quadrature(cutoff, phi).matrix)
        for array in (values, vectors):
            array.setflags(write=False)
        return _Eigenbasis(values, vectors, values.nbytes + vectors.nbytes)

    _require_cutoff(cutoff)
    return _memoized((cutoff, "quadrature", float(phi)), _eigenbasis_bytes(cutoff), build)


def _build_sector_table(cutoff: int, conserved: str, scale: float) -> _SectorTable:
    """The blocks of each sector of a conserved two-mode quantity.

    ``conserved`` is "total" for the generator scale (a^dag b - a b^dag),
    which conserves n_a + n_b, or "difference" for scale (a^dag b^dag - a b),
    which conserves n_a - n_b. Ordered by rising n_a, a sector is a chain
    whose link from n_a to n_a + 1 moves n_b between m and m' with matrix
    element scale sqrt((n_a + 1) max(m, m')); the block is its
    ``_chain_expm``, and the indices are the sector's two-mode basis states.
    """
    n1 = cutoff + 1
    ks = np.arange(n1)
    if conserved == "total":
        mode_b = [tot - ks for tot in range(2 * cutoff + 1)]
    else:
        mode_b = [ks - diff for diff in range(-cutoff, cutoff + 1)]
    blocks = []
    for ms in mode_b:
        inside = (ms >= 0) & (ms <= cutoff)
        k, m = ks[inside], ms[inside]
        sub = scale * np.sqrt((k[:-1] + 1) * np.maximum(m[:-1], m[1:]))
        pair = (k * n1 + m, _chain_expm(sub))
        for array in pair:
            array.setflags(write=False)
        blocks.append(pair)
    return _SectorTable(tuple(blocks), _sector_table_bytes(cutoff))


def _sector_table(cutoff: int, conserved: str, scale: float) -> _SectorTable:
    """The sector table of ``_build_sector_table``, built once per key.

    A table larger than DENSE_BYTES_LIMIT is refused before it is built. To
    make room for a new one, the least recently used tables are dropped.
    """
    _require_cutoff(cutoff)
    nbytes = _sector_table_bytes(cutoff)
    require_memory(f"cutoff {cutoff}", nbytes)
    return _memoized((cutoff, conserved, float(scale)), nbytes,
                     lambda: _build_sector_table(cutoff, conserved, scale))


def _apply_sectors(vectors: np.ndarray, blocks) -> np.ndarray:
    """Apply (indices, block) pairs of distinct sectors to the rows of
    ``vectors``, a two-mode vector or a batch of them as columns; rows that
    no sector holds are zero in the result."""
    out = np.zeros_like(vectors)
    for idx, block in blocks:
        out[idx] = block @ vectors.take(idx, axis=0)
    return out


def _parity_sectors(table: _SectorTable, cutoff: int, parity: int) -> tuple:
    """The sectors of ``table`` whose states have total photon number of the
    given parity. A total sector has one total, and a difference sector k
    only totals of the parity of k; the table lists its sectors by a
    conserved value rising in steps of one, so their parities alternate."""
    a, b = divmod(int(table.blocks[0][0][0]), cutoff + 1)
    return table.blocks[(a + b + parity) % 2::2]


def _apply_kron(a: np.ndarray, b: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """kron(a, b) applied to a batch of two-mode column vectors: on each column
    reshaped to its amplitude matrix M it acts as a M b^T. ``a`` and ``b``
    may be row slices of the factors, which give only those rows."""
    t = (a @ vectors.reshape(a.shape[1], -1)).reshape(len(a), b.shape[1], -1)
    return np.matmul(b, t).reshape(len(a) * len(b), -1)


def _apply_kron_on_parity(a: np.ndarray, b: np.ndarray, vectors: np.ndarray,
                          parity: int) -> np.ndarray:
    """kron(a, b) for single-mode factors that conserve the parity of n,
    applied to two-mode columns that hold only states of total photon
    number of the given parity. An amplitude matrix M of such a column has
    two nonzero parity blocks, M_rq with q = parity - r (mod 2), and each
    maps to a_rr M_rq b_qq^T; the other two blocks of the result are zero."""
    n1 = len(a)
    m = vectors.reshape(n1, n1, -1)
    out = np.zeros_like(m)
    for r in (0, 1):
        q = (parity - r) % 2
        block = m[r::2, q::2]
        t = (a[r::2, r::2] @ block.reshape(len(block), -1)).reshape(block.shape)
        out[r::2, q::2] = np.matmul(b[q::2, q::2], t)
    return out.reshape(n1 * n1, -1)


def _mixing_expm(cutoff: int, theta: float) -> np.ndarray:
    """expm of theta (a^dag b - a b^dag), assembled from its total-photon sectors."""
    _require_fits(cutoff, (cutoff + 1) ** 4)
    return _assemble(cutoff, 2, _sector_table(cutoff, "total", theta).blocks)


def mode_mixer(cutoff: int, theta: float) -> FockOperator:
    """exp(theta (a^dag b - a b^dag)); theta = pi/4 is the 50-50 beam splitter."""
    _require_cutoff(cutoff)
    require_finite("theta", theta)
    return FockOperator(cutoff, 2, _mixing_expm(cutoff, theta))


def opa(cutoff: int, alpha_param: float) -> FockOperator:
    """exp(-(alpha/2)(a^dag b^dag - a b)), assembled from its photon-number-difference sectors."""
    _require_cutoff(cutoff)
    require_finite("alpha_param", alpha_param)
    _require_fits(cutoff, (cutoff + 1) ** 4)
    blocks = _sector_table(cutoff, "difference", -alpha_param / 2.0).blocks
    return FockOperator(cutoff, 2, _assemble(cutoff, 2, blocks))


# ---------------------------------------------------------------------------
# Basis helpers
# ---------------------------------------------------------------------------

def total_photon_numbers(cutoff: int) -> np.ndarray:
    """Total photon number of each two-mode basis state, in vector order."""
    _require_cutoff(cutoff)
    n = np.arange(cutoff + 1)
    return np.add.outer(n, n).reshape(-1)


def block_mask(cutoff: int, max_total: int) -> np.ndarray:
    """Boolean mask selecting two-mode basis states with total photons <= max_total."""
    return total_photon_numbers(cutoff) <= max_total


# ---------------------------------------------------------------------------
# Regularized Dirac states
# ---------------------------------------------------------------------------

def lambda_fits(cutoff: int, lam: float) -> bool:
    """True iff the tail mass lambda^(2(N+1)) that the cutoff drops from
    sum_n lambda^n |n, n> is at most ``TAIL_ERROR_TOL``."""
    _require_cutoff(cutoff)
    return lam ** (2 * (cutoff + 1)) <= TAIL_ERROR_TOL


def identity_doubleket(cutoff: int, lam: float) -> RegularizedState:
    """Normalized two-mode squeezed vacuum sum_n lambda^n |n, n>.

    The sharp limit lambda -> 1 recovers the (non-normalizable) identity
    double-ket. Refuses lambda whose truncated tail mass lambda^(2(N+1))
    exceeds 1e-4; tails above 1e-8 attach a warning.
    """
    _require_cutoff(cutoff)
    require_finite("lam", lam)
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    tail = lam ** (2 * (cutoff + 1))
    if not lambda_fits(cutoff, lam):
        raise ValueError(
            f"lambda = {lam} too close to 1 for cutoff {cutoff}:"
            f" tail mass {tail:.2e}"
        )
    warns = _truncation_warning("identity double-ket", tail, f"lambda = {lam}, cutoff {cutoff}")
    n1 = cutoff + 1
    amps = np.zeros(n1 * n1, dtype=complex)
    amps[np.arange(n1) * n1 + np.arange(n1)] = lam ** np.arange(n1)
    amps /= np.linalg.norm(amps)
    return RegularizedState(cutoff, 2, amps, {"lam": lam}, warns)


def _padded_state(
    cutoff: int, build: Callable[[int], tuple[np.ndarray, tuple[str, ...]]],
    params: dict[str, float], label: str, where: str,
) -> RegularizedState:
    """The state ``build(cutoff)``, normalized. ``build(n)`` returns the
    unnormalized amplitudes at cutoff n, one axis per mode, and the tail
    warnings of the states they are built from. The tail, the mass of
    ``build(N + _TAIL_PAD)`` outside the first N+1 levels of each mode, is
    added to them above ``TAIL_WARN_TOL``."""
    _require_cutoff(cutoff)
    amps, warns = build(cutoff)
    amps /= np.linalg.norm(amps)
    mass = np.abs(build(cutoff + _TAIL_PAD)[0]) ** 2
    tail = float(mass[cutoff + 1:].sum())
    if mass.ndim == 2:
        tail += float(mass[: cutoff + 1, cutoff + 1:].sum())
    warns += _truncation_warning(label, tail, f"{where}, cutoff {cutoff}")
    return RegularizedState(cutoff, amps.ndim, amps, params, warns)


def displaced_identity_doubleket(cutoff: int, lam: float, z: complex) -> RegularizedState:
    """(D(z) kron I) applied to the regularized identity double-ket, normalized.

    This is the one-sided regularization of |D(z)>>. The two-sided form
    (D(z/2) kron D(-conj(z)/2))|lambda>> tends to the same |D(z)>> as
    lambda -> 1, because (I kron B)|I>> = (B^T kron I)|I>> and
    D(w)^T = D(-conj(w)); at lambda < 1 the two differ by a mean offset, so
    their overlap is exp(-s^2 |z|^2 / 2) at the matched lambda (see
    ``entbs_fidelity``).
    """
    require_finite("z", z, complex_ok=True)

    def build(n: int) -> tuple[np.ndarray, tuple[str, ...]]:
        # the double-ket's amplitude matrix is diagonal, so D acts by scaling its columns
        base = identity_doubleket(n, lam)
        return displacement(n, z).matrix * base.amplitudes[:: n + 2], base.warnings

    return _padded_state(
        cutoff, build,
        {"lam": lam, "z_re": float(np.real(z)), "z_im": float(np.imag(z))},
        "displaced double-ket", f"lambda = {lam}, z = {z}",
    )


def heterodyne_eigen_residual(cutoff: int, lam: float, z: complex) -> float:
    """Norm of (a - b^dag - z) applied to the regularized displaced double-ket.

    Converges to zero as lambda -> 1 at adequate cutoff, certifying the state
    as a generalized eigenvector of the heterodyne photocurrent a - b^dag; the
    value is independent of z because the displacement commutes through.
    """
    state = displaced_identity_doubleket(cutoff, lam, z)
    m = state.amplitudes.reshape(cutoff + 1, cutoff + 1)
    # (a kron I) v = vec(a m) and (I kron b^dag) v = vec(m a) for the ladder a:
    # a m moves row n+1 of m to row n, m a moves column n to n+1, each times sqrt(n+1)
    root = np.sqrt(np.arange(1, cutoff + 1))
    am, ma = np.zeros_like(m), np.zeros_like(m)
    am[:-1] = root[:, None] * m[1:]
    ma[:, 1:] = m[:, :-1] * root
    return float(np.linalg.norm(am - ma - z * m))


def quad_eigenstate_approx(cutoff: int, x: float, phi: float, s: float) -> RegularizedState:
    """Normalizable stand-in for the quadrature eigenvector |x>_phi.

    Built as exp(i phi n) D(x) S(s) |0>: a squeezed vacuum of X_0 variance
    s^2/4, displaced to mean x, then rotated so the sharp axis lies along
    X_phi with mean <X_phi> = x. Smaller s means a sharper approximation.
    """
    require_finite("x", x)
    require_finite("phi", phi)
    require_finite("s", s)
    if not 0.0 < s <= 1.0:
        raise ValueError("sharpness s must lie in (0, 1]")

    def build(n: int) -> tuple[np.ndarray, tuple[str, ...]]:
        # S(s)|0> is column 0 of the squeezer's even chain
        evens, chain = _squeezer_chain(n, s, 0)
        amps = np.zeros(n + 1, dtype=complex)
        amps[evens] = chain[:, 0]
        if x != 0:  # D(0) is exactly the identity, as in ``displacement``
            w, phases = _displacement_basis(n, x)
            amps = w @ (phases * (w.conj().T @ amps))
        return _phases(n, -phi) * amps, ()

    return _padded_state(
        cutoff, build, {"x": x, "phi": phi, "s": s},
        "quadrature eigenstate", f"x = {x}, phi = {phi}, s = {s}",
    )


# ---------------------------------------------------------------------------
# The SUM gate: direct exponential and the optical five-factor chain
# ---------------------------------------------------------------------------

def _basis_indices(cutoff: int, indices, nbytes: Callable[[int, int], int]) -> np.ndarray:
    """Validated non-empty 1-D array of two-mode basis indices, copied only after
    the memory guard has passed ``nbytes(cutoff, count)`` for ``count`` indices."""
    _require_cutoff(cutoff)
    dim = (cutoff + 1) ** 2
    idx = np.asarray(indices)
    if (idx.ndim != 1 or idx.size == 0 or not np.issubdtype(idx.dtype, np.integer)
            or idx.min() < 0 or idx.max() >= dim):
        raise ValueError(
            f"basis indices must be a non-empty 1-D integer array within [0, {dim})"
        )
    require_memory(f"cutoff {cutoff}", nbytes(cutoff, idx.size))
    return idx.copy()


def _direct_images(cutoff: int, cols: np.ndarray, rows: int) -> np.ndarray:
    """Rows a, b < ``rows`` of the direct SUM gate's images of the basis states
    ``cols``, row a * rows + b holding |a, b>.

    Both quadratures are Hermitian, so the exponential of the Kronecker
    product factorizes over their eigenbases: U = W diag(e^{-2i p x}) W^dag
    with W = kron(up, ux). The image of |c, d> is W applied to its
    coefficients conj(up[c, :]) conj(ux[d, :]) times the phases, and the
    rows a, b < ``rows`` of W act as up[:rows] M ux[:rows]^T on each
    column's amplitude matrix M, so no two-mode matrix is built. Both
    eigenbases come from the memo (``_quadrature_basis``). The callers guard
    the arrays (``_direct_bytes``).
    """
    n1 = cutoff + 1
    p_basis, x_basis = _quadrature_basis(cutoff, np.pi / 2), _quadrature_basis(cutoff, 0.0)
    dp, up = p_basis.values, p_basis.vectors
    dx, ux = x_basis.values, x_basis.vectors
    # W^dag |c, d> as an (N+1) x (N+1) x columns array, phased in place
    coeffs = up[cols // n1].conj().T[:, None, :] * ux[cols % n1].conj().T[None, :, :]
    coeffs *= np.exp(-2j * np.outer(dp, dx))[:, :, None]
    return _apply_kron(up[:rows], ux[:rows], coeffs.reshape(n1 * n1, -1))


def sum_gate(cutoff: int, columns) -> FockColumns:
    """exp(-2i X_{pi/2} kron X_0), evaluated spectrally (``_direct_images``
    on every row) and applied to the basis states ``columns`` (an array of
    two-mode indices). This is exact and avoids a dense two-mode Pade
    exponential."""
    cols = _basis_indices(cutoff, columns, _direct_bytes)
    return FockColumns(cutoff, cols, _direct_images(cutoff, cols, cutoff + 1))


def sum_gate_circuit(cutoff: int, columns) -> FockColumns:
    """The optical realization of the SUM gate as a five-factor product,
    applied to the basis states ``columns`` (an array of two-mode indices).

    50-50 beam splitter, squeezer pair (r1, r1^dag), two-mode squeezer of
    exponent alpha, mode mixer of angle beta/2, squeezer pair (r2^dag, r2),
    in operator order, with ``gaussian.decomposition_params()``. Every factor
    conserves the parity of n_a + n_b, so the image of |c, d> lives on the
    rows of parity c + d, and the columns run in two halves by that parity.
    In a half the factors act one at a time, rightmost first: the squeezer
    pair on the unit columns as the outer products s2^dag[:, c] s2[:, d]^T,
    the mixer, the OPA and the beam splitter as their sector blocks of the
    half's parity, and the other squeezer pair on the two nonzero parity
    blocks of each amplitude matrix (``_apply_kron_on_parity``), so no factor
    is built as a two-mode matrix. Each factor is unitary to rounding at any
    cutoff, so the images carry no warning: their truncation shows in the
    block distance of ``sum_gate_block_checks``.
    """
    params = gaussian.decomposition_params()
    n1 = cutoff + 1
    cols = _basis_indices(cutoff, columns, _chain_bytes)
    tables = [_sector_table(cutoff, "total", params.beta / 2.0),
              _sector_table(cutoff, "difference", -params.alpha / 2.0),
              _sector_table(cutoff, "total", np.pi / 4)]
    s1 = squeezer(cutoff, params.r1).matrix
    s2 = squeezer(cutoff, params.r2).matrix
    c, d = np.divmod(cols, n1)
    halves = []
    for parity in (0, 1):
        half = np.flatnonzero((c + d) % 2 == parity)
        if half.size == 0:
            continue
        mixer, amplifier, splitter = (_parity_sectors(t, cutoff, parity) for t in tables)
        # in C order, as every later factor reads rows and amplitude blocks
        images = np.multiply(s2[c[half]].conj().T[:, None, :], s2[:, d[half]][None, :, :],
                             order="C")
        images = _apply_sectors(images.reshape(n1 * n1, -1), mixer)
        images = _apply_sectors(images, amplifier)
        images = _apply_kron_on_parity(s1, s1.conj().T, images, parity)
        halves.append((half, _apply_sectors(images, splitter)))
    out = np.empty((n1 * n1, cols.size), dtype=complex)
    for half, images in halves:
        out[:, half] = images
    return FockColumns(cutoff, cols, out)


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
    chain's three sector tables (splitter, mixer, OPA) and four image-sized
    arrays per block column, the chain's images held while the direct gate
    holds its three, and the direct gate's two quadrature eigenbases and its
    (N+1)^2 phase table. The column count is computed, not masked, so that a
    huge cutoff is refused without an (N+1)^2 mask. A ``block_photons`` that
    is not an integer >= 0 is refused.
    """
    _require_cutoff(cutoff)
    if not is_integer(block_photons) or block_photons < 0:
        raise ValueError(f"block_photons must be an integer >= 0, got {block_photons!r}")
    columns = _states_up_to(cutoff, block_photons)
    require_memory(f"cutoff {cutoff}",
                   _direct_bytes(cutoff, columns) + _columns_bytes(cutoff, columns, 1)
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
    defect is the larger of the two parity halves' own. The distance,
    phase-aligned, is between the two routes' images on the block's rows; it
    is where the truncation shows. The direct gate builds only the rows a,
    b <= ``block_photons`` (``_direct_images``), which hold the block's.
    """
    require_block_checks_fit(cutoff, block_photons)
    block = np.flatnonzero(block_mask(cutoff, block_photons))
    images = sum_gate_circuit(cutoff, block).matrix
    rows = min(block_photons, cutoff) + 1
    a, b = np.divmod(block, cutoff + 1)
    direct = _direct_images(cutoff, block, rows)[a * rows + b]
    distance = phase_aligned_block_distance(direct, images[block])
    rows_parity, columns_parity = total_photon_numbers(cutoff) % 2, (a + b) % 2
    gram_defect = max(
        _gram_defect(images[np.ix_(rows_parity == parity, columns_parity == parity)])
        for parity in (0, 1) if (columns_parity == parity).any()
    )
    return gram_defect, distance


# ---------------------------------------------------------------------------
# Beam-splitter factorization of the heterodyne eigenvectors
# ---------------------------------------------------------------------------

def matched_lambda(s: float) -> float:
    """Damping parameter of the two-mode squeezed vacuum produced by feeding a
    50-50 beam splitter with orthogonally squeezed inputs of sharpness s."""
    return (1.0 - s * s) / (1.0 + s * s)


def entbs_output(cutoff: int, x: float, y: float, s: float) -> RegularizedState:
    """Beam-splitter image of |x/sqrt2>_0 kron |y/sqrt2>_{pi/2} at sharpness s.

    The 50-50 splitter is applied sector by sector to the product vector, so
    no dense two-mode matrix is built; ``mode_mixer(cutoff, pi/4)`` assembles
    the same blocks. The splitter's table is requested first, so a cutoff
    whose table is refused builds no state.
    """
    require_finite("x", x)
    require_finite("y", y)
    splitter = _sector_table(cutoff, "total", np.pi / 4)
    in_a = quad_eigenstate_approx(cutoff, x / np.sqrt(2.0), 0.0, s)
    in_b = quad_eigenstate_approx(cutoff, y / np.sqrt(2.0), np.pi / 2.0, s)
    product = np.kron(in_a.amplitudes, in_b.amplitudes)
    out = _apply_sectors(product, splitter.blocks)
    return RegularizedState(
        cutoff, 2, out, {"x": x, "y": y, "s": s},
        in_a.warnings + in_b.warnings,
    )


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

    Only the truncation moves the Fock value off the closed form.
    """
    out = entbs_output(cutoff, x, y, s)
    ref = displaced_identity_doubleket(cutoff, matched_lambda(s), x + 1j * y)
    return float(abs(np.vdot(ref.amplitudes, out.amplitudes)) ** 2)
