"""Exact 4x4 symplectic layer for the two-mode Gaussian decomposition.

The quadrature convention is x = (a + a^dag)/2, p = i(a^dag - a)/2, so
[x, p] = i/2 and the vacuum variance is 1/4. Symplectic matrices act in the
Heisenberg picture on the column (x_a, p_a, x_b, p_b): U^dag r U = M r, and
a product of unitaries composes as the product of their matrices in the same
order. Every matrix here satisfies M Omega M^T = Omega with Omega carrying
+-1/2 on the antidiagonal of each mode block.

The target gate is the continuous-variable SUM interaction exp(-2i P_a X_b);
its Heisenberg action is the shear x_a -> x_a + x_b, p_b -> p_b - p_a. The
five-factor optical chain (50-50 beam splitter, a squeezer pair r1, a
two-mode squeezer of exponent alpha, a mode mixer of angle beta/2, and a
second squeezer pair r2), listed once by ``circuit_factors``, reproduces
that shear exactly for

    alpha = -2 atanh(2 - sqrt 3),  beta = -2 atan(2 - sqrt 3),
    gamma = log(sqrt 3 / 2),       r1 = 2^(-1/2),  r2 = (3/4)^(-1/4).

The same alpha, beta, gamma satisfy a closed 2x2 identity in the Pauli
realization of su(1,1), checked independently of the 4x4 route.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

OMEGA = 0.5 * np.array(
    [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float
)

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


@dataclass(frozen=True)
class DecompositionParams:
    """Closed-form constants of the optical decomposition and its hardware caption."""

    alpha: float
    beta: float
    gamma: float
    r1: float
    r2: float
    tau1: float
    g: float


def decomposition_params() -> DecompositionParams:
    t = 2.0 - np.sqrt(3.0)
    return DecompositionParams(
        alpha=float(-2.0 * np.arctanh(t)),
        beta=float(-2.0 * np.arctan(t)),
        gamma=float(np.log(np.sqrt(3.0) / 2.0)),
        r1=2.0 ** -0.5,
        r2=(3.0 / 4.0) ** -0.25,
        tau1=float(1.0 / (4.0 * t)),
        g=float(1.0 / (2.0 * (3.0 - 2.0 * np.sqrt(3.0)))),
    )


# ---------------------------------------------------------------------------
# su(1,1) identity in the 2x2 Pauli realization
# ---------------------------------------------------------------------------

def su11_pauli_sides(params: DecompositionParams) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of exp(sigma_minus / 2) = exp(i a Kx) exp(b Ky) exp(c Kz).

    In the realization Kx = (i/2) sigma_x, Ky = (i/2) sigma_y, Kz = sigma_z / 2
    the left side is the nilpotent exponential [[1, 0], [1/2, 1]]; the right
    side is assembled from closed-form 2x2 exponentials.
    """
    lhs = np.array([[1.0, 0.0], [0.5, 1.0]], dtype=complex)
    a, b, c = params.alpha, params.beta, params.gamma
    ex = np.cosh(a / 2) * np.eye(2) - np.sinh(a / 2) * _SIGMA_X
    ey = np.cos(b / 2) * np.eye(2) + 1j * np.sin(b / 2) * _SIGMA_Y
    ez = np.diag([np.exp(c / 2), np.exp(-c / 2)]).astype(complex)
    return lhs, ex @ ey @ ez


def su11_pauli_defect(params: DecompositionParams) -> float:
    """Entrywise max difference between the two sides of the 2x2 identity."""
    lhs, rhs = su11_pauli_sides(params)
    return float(np.abs(lhs - rhs).max())


# ---------------------------------------------------------------------------
# Symplectic matrices of the individual Gaussian elements
# ---------------------------------------------------------------------------

def require_finite(name: str, value: float, complex_ok: bool = False) -> None:
    """Refuse a NaN or infinite parameter, and a complex one unless
    ``complex_ok``, naming it and its value."""
    if not complex_ok and np.iscomplexobj(value):
        raise ValueError(f"{name} must be real, got {value!r}")
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def squeezer_symplectic(r: float, mode: int = 0) -> np.ndarray:
    """x -> r x, p -> p / r on one mode (generator log(r)(a^dag^2 - a^2)/2)."""
    require_finite("r", r)
    if r <= 0:
        raise ValueError(f"squeezing parameter must be positive, got {r!r}")
    if mode not in (0, 1):
        raise ValueError(f"mode must be 0 or 1, got {mode}")
    return np.diag(np.roll([r, 1.0 / r, 1.0, 1.0], 2 * mode))


def beam_splitter_symplectic(theta: float = np.pi / 4) -> np.ndarray:
    """Mode-space rotation of exp(theta(a^dag b - a b^dag)); theta = pi/4 is 50-50."""
    require_finite("theta", theta)
    c, s = np.cos(theta), np.sin(theta)
    return np.array(
        [[c, 0, s, 0], [0, c, 0, s], [-s, 0, c, 0], [0, -s, 0, c]], dtype=float
    )


def opa_symplectic(alpha: float) -> np.ndarray:
    """Hyperbolic mixing of exp(-(alpha/2)(a^dag b^dag - a b))."""
    require_finite("alpha", alpha)
    c, s = np.cosh(alpha / 2.0), np.sinh(alpha / 2.0)
    return np.array(
        [[c, 0, -s, 0], [0, c, 0, s], [-s, 0, c, 0], [0, s, 0, c]], dtype=float
    )


def sum_gate_symplectic() -> np.ndarray:
    """Heisenberg action of exp(-2i P_a X_b): the shear confirmed by the Fock oracle."""
    return np.array(
        [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, -1, 0, 1]], dtype=float
    )


# ---------------------------------------------------------------------------
# The five-factor decomposition, verified exactly
# ---------------------------------------------------------------------------

def circuit_factors(params: DecompositionParams) -> tuple[tuple, ...]:
    """The optical chain's elements in operator order, applied right to left:
    BS(pi/4) (S(r1) kron S(r1)^dag) OPA(alpha) MIX(beta/2) (S(r2)^dag kron S(r2)).
    ("mixer", theta) and ("opa", alpha) are the elements of
    ``beam_splitter_symplectic`` and ``opa_symplectic``; ("squeezers", r, m)
    is S(r) on mode m and S(r)^dag = S(r)^T = S(1/r) on the other."""
    return (("mixer", np.pi / 4), ("squeezers", params.r1, 0), ("opa", params.alpha),
            ("mixer", params.beta / 2.0), ("squeezers", params.r2, 1))


# each element kind of ``circuit_factors`` -> its symplectic matrix
_ELEMENT_SYMPLECTICS = {
    "mixer": beam_splitter_symplectic,
    "opa": opa_symplectic,
    "squeezers": lambda r, m: squeezer_symplectic(r, m) @ squeezer_symplectic(1.0 / r, 1 - m),
}


def circuit_symplectic(params: DecompositionParams) -> np.ndarray:
    """The optical chain's symplectic matrix: ``circuit_factors`` multiplied in operator order."""
    return functools.reduce(np.matmul, (
        _ELEMENT_SYMPLECTICS[kind](*args) for kind, *args in circuit_factors(params)))


def circuit_vs_target_error(params: DecompositionParams) -> float:
    """Entrywise max difference between the composed chain and the SUM-gate
    shear; a non-finite alpha, beta, r1 or r2 is refused by its element."""
    return float(np.abs(circuit_symplectic(params) - sum_gate_symplectic()).max())


def consistency_notes(params: DecompositionParams) -> tuple[str, ...]:
    """Cross-checks of the quoted beam-splitter transmissivity and OPA gain.

    tau1 is cross-checked against the mixing angle (tau = cos^2(beta/2)); the
    quoted gain g is negative as defined and its modulus equals cosh^2(alpha/2)
    rather than the amplitude gain cosh(alpha/2). Discrepancies are reported,
    not raised.
    """
    tau_from_angle = float(np.cos(params.beta / 2.0) ** 2)
    amp_gain = float(np.cosh(params.alpha / 2.0))
    notes = [
        f"tau1 = {params.tau1:.15g} vs cos^2(beta/2) = {tau_from_angle:.15g}"
        f" (|diff| = {abs(params.tau1 - tau_from_angle):.2e})",
    ]
    if params.g < 0:
        notes.append(
            f"g = {params.g:.15g} is negative as defined; modulus check:"
            f" |g| = {abs(params.g):.15g}, cosh^2(alpha/2) = {amp_gain ** 2:.15g}"
            f" (|diff| = {abs(abs(params.g) - amp_gain ** 2):.2e}),"
            f" amplitude gain cosh(alpha/2) = {amp_gain:.15g}"
        )
    return tuple(notes)
