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

Dirac-like states are only ever represented in regularized form: the identity
double-ket as a two-mode squeezed vacuum with weight lambda^n, and quadrature
eigenvectors as rotated displaced squeezed vacua with sharpness s. Each
regularized constructor records the tail mass it drops above the cutoff;
tails above 1e-8 attach a warning, and the identity double-ket refuses
lambda so large that the tail exceeds 1e-4. The two
displaced states share one helper, ``_padded_state``: it normalizes the
cutoff-N build, keeps the tail warning of the identity double-ket it is
built from, and adds the tail, the mass the state built at N + ``_TAIL_PAD``
holds outside the first N+1 levels of each mode. A quadrature state reads
its squeezed vacuum S(s)|0> as column 0 of ``squeezer``, applies its
displacement as two products of a vector with the displacement's
eigenbasis, and takes its tail from a second build at N + 12. The
double-ket's amplitude matrix is diag(c), so the displaced one, D diag(c),
is read off the same eigenbasis as W diag(phases) (W^dag diag(c)) without
forming D. It reads its tail off the padded displacement's rows m > N
alone (``_displaced_doubleket_tail``): it builds no second state. The beam
splitter acts on two-mode states sector by sector, so no state path builds
a dense two-mode matrix.

Both SUM-gate routes return the read-only full-height images of the basis
columns a caller reads. The chain (``sum_gate_circuit``) folds the factor
list of ``gaussian.circuit_factors``, as the 4x4 route does. Every factor
conserves the parity of n_a + n_b: a squeezer pair
moves each mode by an even number of photons, the mixer and the splitter
conserve n_a + n_b, and the OPA's sector of difference k holds only totals
of the parity of k. So the chain runs the columns of each parity through
the sector blocks of that parity only, and its images are exactly zero off
their parity's rows. The direct ``sum_gate`` applies kron(up, ux) of the
quadratures' eigenbases as up M ux^T on each column's amplitude matrix M,
around its phases (``_direct_images``). ``sum_gate_block_checks`` runs each
route once, on the states of total photon number <= block, and the direct
gate only on the rows a, b <= block: the distance compares the two sets of
images on the block's rows, and the Gram defect (``unitarity_defect``)
reads the chain's images, one parity half at a time.

The sector blocks of each factor form one table per cutoff, conserved
quantity and generator scale: the key ``_TABLE_KEYS`` gives each element
kind of the factor list, which every caller reads (``_element_table``). A
table is built once, kept read-only in a module-level memo and shared by
every later call. Every dense factor is assembled from its table by
``_assemble``, which refuses the dense matrix before the table is fetched.
The same memo keeps the eigenbases of X_0 and X_{pi/2} per cutoff, which
``sum_gate`` reads, and the displacements with it. The memo holds at most
``DENSE_BYTES_LIMIT`` bytes of entries; a new entry first drops the least
recently used ones. A table pairs each block with its sector's states as a slice of the
row-major basis, which holds no array: step 2 in a parity sector, N in a
total-photon one and N + 2 in a difference one, so ``_apply_sectors`` reads
and writes each sector as a strided view. A two-mode table holds
(N+1)(2N^2+4N+3)/3 real entries of 8 bytes, a parity table ceil((N+1)/2)^2 +
floor((N+1)/2)^2; a table that alone exceeds the limit is refused before
anything is built, and with a two-mode one ``entbs_output`` and the
fidelities built on it. An eigenbasis holds (N+1)^2 complex entries and
N+1 eigenvalues.

One guard, ``require_memory``, refuses a route whose arrays would exceed
``DENSE_BYTES_LIMIT`` before it allocates them: here a real dense matrix
(a squeezer's), a displacement's eigenbasis, the identity double-ket, the
padded build of a displaced state (its eigenbasis at N + 12, counted
before the cutoff-N build), the SUM-gate column images and a sector
table's blocks, and also the qudit layer's gate set, its dense V and the
``qudit synth`` export. Each count is of what the route holds: 8 bytes an
entry for the real tables, dense factors and chain images, 16 for the
complex eigenbases, states and direct images. The column routes count
three image-sized arrays per column, their peak; ``_direct_bytes`` adds
the direct gate's two eigenbases and phase table, ``_chain_bytes`` the
chain's three sector tables, held at once, and
``require_block_checks_fit``, which refuses a cutoff list up front, counts
the direct gate, the tables and one more array per block column: the
chain's images, held while the direct gate runs. The README's guard
paragraph states the first size each guard refuses.

Every public constructor refuses a cutoff that is not an integer >= 1
(``is_integer``: a Python or numpy integer, not a bool), and the memo
refuses one before it is touched. Stored and returned arrays are
read-only: the builders' operators, the SUM-gate images, the amplitudes of
the frozen state dataclass, and the memo's blocks and eigenbases.
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


def quadrature(cutoff: int, phi: float) -> np.ndarray:
    """Hermitian quadrature (e^{i phi} a^dag + e^{-i phi} a) / 2, written as
    its off-diagonals x[k+1, k] = e^{i phi} sqrt(k+1) / 2 and their conjugates."""
    _require_cutoff(cutoff)
    require_finite("phi", phi)
    k = np.arange(cutoff)
    root = np.sqrt(k + 1)
    x = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    x[k + 1, k] = 0.5 * np.exp(1j * phi) * root
    x[k, k + 1] = 0.5 * np.exp(-1j * phi) * root
    return _read_only(x)


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
    either SUM-gate route: in ``sum_gate`` the phased eigenbasis
    coefficients, the product with one eigenbasis and the images; in the
    chain the images and a parity half's input and output of a factor."""
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
    """Bytes of one quadrature eigenbasis: (N+1)^2 complex vectors, N+1 real values."""
    return 16 * (cutoff + 1) ** 2 + 8 * (cutoff + 1)


def _direct_bytes(cutoff: int, columns: int) -> int:
    """Peak bytes of ``sum_gate`` over ``columns`` basis columns: three
    image-sized arrays per column, the eigenbases of X_{pi/2} and X_0 and the
    (N+1)^2 table of their phases."""
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
    -2i r X_{pi/2}. So W = R U and phases = e^{-2i r p}, read off the
    memoized eigenbasis (p, U) of X_{pi/2}, which does not depend on alpha.
    Refuses the basis the memo would hold, its (N+1)^2 vectors and N+1
    values, above DENSE_BYTES_LIMIT before the memo is touched.
    """
    require_memory(f"cutoff {cutoff}", _eigenbasis_bytes(cutoff))
    values, vectors = _quadrature_basis(cutoff, np.pi / 2)
    w = _phases(cutoff, -np.angle(alpha))[:, None] * vectors
    return w, np.exp(-2j * abs(alpha) * values)


def displacement(cutoff: int, alpha: complex) -> np.ndarray:
    """exp(alpha a^dag - conj(alpha) a) at the given cutoff, from the
    eigenbasis of ``_displacement_basis``; alpha = 0 gives exactly the identity."""
    _require_cutoff(cutoff)
    require_finite("alpha", alpha, complex_ok=True)
    if alpha == 0:
        return _read_only(np.eye(cutoff + 1, dtype=complex))
    w, phases = _displacement_basis(cutoff, alpha)
    return _read_only((w * phases) @ w.conj().T)


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
    return _read_only(np.diag(_phases(cutoff, theta)))


# (entry, nbytes) pairs, least recently used first: the sector tables of the
# squeezer and the two-mode factors by (cutoff, conserved, scale) and
# eigenbases by (cutoff, "quadrature", phi), never more than
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


def _quadrature_basis(cutoff: int, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(quadrature(cutoff, phi))``, the eigenvalues and the
    eigenvectors as columns, read-only and built once per cutoff and angle.
    Its (N+1)^2 + (N+1) entries are guarded by its callers: the
    displacement's own guard, and ``_direct_bytes`` and
    ``require_block_checks_fit``, which count both eigenbases."""

    def build() -> tuple[np.ndarray, np.ndarray]:
        return tuple(map(_read_only, np.linalg.eigh(quadrature(cutoff, phi))))

    _require_cutoff(cutoff)
    return _memoized((cutoff, "quadrature", float(phi)), _eigenbasis_bytes(cutoff), build)


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


def _apply_sectors(vectors: np.ndarray, blocks) -> np.ndarray:
    """Apply (states, block) pairs of distinct sectors to the rows of
    ``vectors``, a two-mode vector or a batch of them as columns; rows that
    no sector holds are zero in the result. Each sector's rows are a strided
    view, read and written in place."""
    out = np.zeros_like(vectors)
    for sl, block in blocks:
        out[sl] = block @ vectors[sl]
    return out


def _parity_sectors(table: tuple, cutoff: int, parity: int) -> tuple:
    """The sectors of ``table`` whose states have total photon number of the
    given parity. A total sector has one total, and a difference sector k
    only totals of the parity of k; the table lists its sectors by a
    conserved value rising in steps of one, so their parities alternate."""
    a, b = divmod(table[0][0].start, cutoff + 1)
    return table[(a + b + parity) % 2::2]


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
    sum_n lambda^n |n, n> is at most ``TAIL_ERROR_TOL``. A complex or
    non-finite lambda, or one outside (0, 1), is refused."""
    _require_cutoff(cutoff)
    require_finite("lam", lam)
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must lie in (0, 1), got {lam!r}")
    return lam ** (2 * (cutoff + 1)) <= TAIL_ERROR_TOL


def identity_doubleket(cutoff: int, lam: float) -> RegularizedState:
    """Normalized two-mode squeezed vacuum sum_n lambda^n |n, n>.

    The sharp limit lambda -> 1 recovers the (non-normalizable) identity
    double-ket. Refuses, through ``lambda_fits``, a lambda outside (0, 1)
    and one whose truncated tail mass lambda^(2(N+1)) exceeds 1e-4; tails
    above 1e-8 attach a warning. Its (N+1)^2 entries are refused above
    DENSE_BYTES_LIMIT before they are allocated.
    """
    fits = lambda_fits(cutoff, lam)
    tail = lam ** (2 * (cutoff + 1))
    if not fits:
        raise ValueError(
            f"lambda = {lam} too close to 1 for cutoff {cutoff}:"
            f" tail mass {tail:.2e}"
        )
    warns = _truncation_warning("identity double-ket", tail, f"lambda = {lam}, cutoff {cutoff}")
    n1 = cutoff + 1
    require_memory(f"cutoff {cutoff}", 16 * n1 * n1)
    amps = np.zeros(n1 * n1, dtype=complex)
    amps[np.arange(n1) * n1 + np.arange(n1)] = lam ** np.arange(n1)
    amps /= np.linalg.norm(amps)
    return RegularizedState(cutoff, 2, amps, warns)


def _padded_state(
    cutoff: int, build: Callable[[int], tuple[np.ndarray, tuple[str, ...]]],
    tail: Callable[[], float], label: str, where: str,
) -> RegularizedState:
    """The state ``build(cutoff)``, normalized. ``build(n)`` returns the
    unnormalized amplitudes at cutoff n, one axis per mode, and the tail
    warnings of the states they are built from. ``tail()``, the mass the
    state built at N + ``_TAIL_PAD`` holds outside the first N+1 levels of
    each mode, is added to them above ``TAIL_WARN_TOL``. The padded
    cutoff's eigenbasis, whose (N+13)^2 vectors are the largest array
    either route holds, is refused above DENSE_BYTES_LIMIT with its N+13
    values, naming ``cutoff``, before either runs."""
    _require_cutoff(cutoff)
    require_memory(f"cutoff {cutoff}", _eigenbasis_bytes(cutoff + _TAIL_PAD))
    amps, warns = build(cutoff)
    amps /= np.linalg.norm(amps)
    warns += _truncation_warning(label, tail(), f"{where}, cutoff {cutoff}")
    return RegularizedState(cutoff, amps.ndim, amps, warns)


def _displaced_doubleket_tail(cutoff: int, lam: float, z: complex) -> float:
    """Mass of D_P(z) diag(lambda^n)/sqrt(Lambda) outside the first N+1 levels
    of each mode, at the padded cutoff P = N + ``_TAIL_PAD``, with Lambda =
    sum_{n<=P} lambda^(2n) its squared norm.

    D_P is unitary to rounding, so each column n > N keeps its whole weight
    c_n^2 = lambda^(2n)/Lambda, and a column n <= N loses its rows m > N. The
    mass is sum_{n>N} c_n^2 + sum_{n<=N} c_n^2 sum_{m>N} |D_P[m, n]|^2, and
    those rows of D_P are W[N+1:] diag(phases) W[:N+1]^dag, read off the
    memoized eigenbasis (``_displacement_basis``); at z = 0 they are 0.
    """
    weights = lam ** np.arange(cutoff + _TAIL_PAD + 1)
    weights = (weights / np.linalg.norm(weights)) ** 2
    tail = float(weights[cutoff + 1:].sum())
    if z != 0:
        w, phases = _displacement_basis(cutoff + _TAIL_PAD, z)
        rows = (w[cutoff + 1:] * phases) @ w[: cutoff + 1].conj().T
        tail += float((np.abs(rows) ** 2 @ weights[: cutoff + 1]).sum())
    return tail


def displaced_identity_doubleket(cutoff: int, lam: float, z: complex) -> RegularizedState:
    """(D(z) kron I) applied to the regularized identity double-ket, normalized.

    This is the one-sided regularization of |D(z)>>. The two-sided form
    (D(z/2) kron D(-conj(z)/2))|lambda>> tends to the same |D(z)>> as
    lambda -> 1, because (I kron B)|I>> = (B^T kron I)|I>> and
    D(w)^T = D(-conj(w)); at lambda < 1 the two differ by a mean offset, so
    their overlap is exp(-s^2 |z|^2 / 2) at the matched lambda (see
    ``entbs_fidelity``). The tail is ``_displaced_doubleket_tail``'s.
    """
    require_finite("z", z, complex_ok=True)

    def build(n: int) -> tuple[np.ndarray, tuple[str, ...]]:
        # the double-ket's amplitude matrix is diag(c), so the state's is
        # D diag(c) = W diag(phases) (W^dag diag(c)), and no D is formed
        base = identity_doubleket(n, lam)
        c, warns = base.amplitudes[:: n + 2].copy(), base.warnings
        del base  # its (N+1)^2 entries are not held through the product
        if z == 0:  # D(0) is exactly the identity, as in ``displacement``
            return np.diag(c), warns
        w, phases = _displacement_basis(n, z)
        right = w.conj().T * c
        w *= phases
        return w @ right, warns

    return _padded_state(cutoff, build, lambda: _displaced_doubleket_tail(cutoff, lam, z),
                         "displaced double-ket", f"lambda = {lam}, z = {z}")


def heterodyne_eigen_residual(cutoff: int, lam: float, z: complex) -> float:
    """Norm of (a - b^dag - z) applied to the regularized displaced double-ket.

    Converges to zero as lambda -> 1 at adequate cutoff, certifying the state
    as a generalized eigenvector of the heterodyne photocurrent a - b^dag; the
    value is independent of z because the displacement commutes through.
    """
    state = displaced_identity_doubleket(cutoff, lam, z)
    m = state.amplitudes.reshape(cutoff + 1, cutoff + 1)
    # (a kron I) v = vec(a m) and (I kron b^dag) v = vec(m a) for the ladder a:
    # a m moves row n+1 of m to row n, m a moves column n to n+1, each times
    # sqrt(n+1), both formed in the residual's one array
    root = np.sqrt(np.arange(1, cutoff + 1))
    r = np.zeros_like(m)
    r[:-1] = root[:, None] * m[1:]
    r[:, 1:] -= m[:, :-1] * root
    r -= z * m
    return float(np.linalg.norm(r))


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
        amps = squeezer(n, s)[:, 0]  # S(s)|0>
        if x != 0:  # D(0) is exactly the identity, as in ``displacement``
            w, phases = _displacement_basis(n, x)
            amps = w @ (phases * (w.conj().T @ amps))
        return _phases(n, -phi) * amps, ()

    def tail() -> float:
        return float((np.abs(build(cutoff + _TAIL_PAD)[0][cutoff + 1:]) ** 2).sum())

    return _padded_state(
        cutoff, build, tail, "quadrature eigenstate", f"x = {x}, phi = {phi}, s = {s}",
    )


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
    (dp, up), (dx, ux) = _quadrature_basis(cutoff, np.pi / 2), _quadrature_basis(cutoff, 0.0)
    # W^dag |c, d> as an (N+1) x (N+1) x columns array, phased in place
    coeffs = up[cols // n1].conj().T[:, None, :] * ux[cols % n1].conj().T[None, :, :]
    coeffs *= np.exp(-2j * np.outer(dp, dx))[:, :, None]
    return _apply_kron(up[:rows], ux[:rows], coeffs.reshape(n1 * n1, -1))


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


def sum_gate_circuit(cutoff: int, columns) -> np.ndarray:
    """The optical realization of the SUM gate, ``gaussian.circuit_factors``
    at ``gaussian.decomposition_params()``, applied to the basis states
    ``columns`` (an array of two-mode indices): the read-only images, column
    j that of ``columns[j]``.

    Every factor conserves the parity of n_a + n_b, so the image of |c, d>
    lives on the rows of parity c + d, and the columns run in two halves by
    that parity. In a half the factors act rightmost first: that squeezer
    pair kron(A, B) on the unit columns as the outer products A[:, c]
    B[:, d]^T, a two-mode element as its sector blocks of the half's parity,
    and the other squeezer pair on the two nonzero parity blocks of each
    amplitude matrix (``_apply_kron_on_parity``), so no factor is built as a
    two-mode matrix. Every factor is real and unitary to rounding at any
    cutoff, so the images are float64 and carry no warning: their
    truncation shows in the block distance of ``sum_gate_block_checks``.
    """
    n1 = cutoff + 1
    cols = _basis_indices(cutoff, columns, _chain_bytes)
    *later, (_, (first_a, first_b)) = [
        (kind, _squeezer_pair(cutoff, *args) if kind == "squeezers"
         else _element_table(cutoff, kind, *args))
        for kind, *args in gaussian.circuit_factors(gaussian.decomposition_params())]
    c, d = np.divmod(cols, n1)
    out = np.empty((n1 * n1, cols.size))
    for parity in (0, 1):
        half = np.flatnonzero((c + d) % 2 == parity)
        if half.size == 0:
            continue
        # in C order, as every later factor reads rows and amplitude blocks
        images = np.multiply(first_a[:, c[half]][:, None, :], first_b[:, d[half]][None, :, :],
                             order="C").reshape(n1 * n1, -1)
        for kind, operand in reversed(later):
            if kind == "squeezers":
                images = _apply_kron_on_parity(*operand, images, parity)
            else:
                images = _apply_sectors(images, _parity_sectors(operand, cutoff, parity))
        out[:, half] = images
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
    chain's three sector tables (splitter, mixer, OPA) and four image-sized
    arrays per block column, the chain's real images held while the direct
    gate holds its three complex ones, and the direct gate's two quadrature
    eigenbases and its (N+1)^2 phase table. The column count is computed,
    not masked, so that a huge cutoff is refused without an (N+1)^2 mask. A
    ``block_photons`` that is not an integer >= 0 is refused.
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
    images = sum_gate_circuit(cutoff, block)
    rows = min(block_photons, cutoff) + 1
    a, b = np.divmod(block, cutoff + 1)
    direct = _direct_images(cutoff, block, rows)[a * rows + b]
    distance = phase_aligned_block_distance(direct, images[block])
    rows_parity, columns_parity = total_photon_numbers(cutoff) % 2, (a + b) % 2
    gram_defect = float(np.max([
        unitarity_defect(images[np.ix_(rows_parity == parity, columns_parity == parity)])
        for parity in (0, 1) if (columns_parity == parity).any()
    ]))
    return gram_defect, distance


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


def entbs_output(cutoff: int, x: float, y: float, s: float) -> RegularizedState:
    """Beam-splitter image of |x/sqrt2>_0 kron |y/sqrt2>_{pi/2} at sharpness s.

    The 50-50 splitter is applied sector by sector to the product vector, so
    no dense two-mode matrix is built; ``mode_mixer(cutoff, pi/4)`` assembles
    the same blocks. The splitter's table is requested first, so a cutoff
    whose table is refused builds no state.
    """
    require_finite("x", x)
    require_finite("y", y)
    splitter = _element_table(cutoff, "mixer", np.pi / 4)
    in_a = quad_eigenstate_approx(cutoff, x / np.sqrt(2.0), 0.0, s)
    in_b = quad_eigenstate_approx(cutoff, y / np.sqrt(2.0), np.pi / 2.0, s)
    product = np.kron(in_a.amplitudes, in_b.amplitudes)
    # the real blocks act on the (re, im) pairs of the complex state
    out = _apply_sectors(product.view(np.float64).reshape(-1, 2), splitter)
    return RegularizedState(cutoff, 2, out.view(complex), in_a.warnings + in_b.warnings)


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
    no matched lambda is refused before any state is built.
    """
    lam = matched_lambda(s)
    out = entbs_output(cutoff, x, y, s)
    ref = displaced_identity_doubleket(cutoff, lam, x + 1j * y)
    return float(abs(np.vdot(ref.amplitudes, out.amplitudes)) ** 2)
