"""bellgate: Bell-observable realizations via controlled-unitary transformations.

Finite dimension: clock/shift gate sets, shift-and-multiply Bell bases and the
controlled-shift gate that maps a local Fourier-product basis onto them.
Continuous variables: a truncated Fock-space realization of the optical SUM
gate decomposition (squeezers, a two-mode squeezer, beam splitters) cross
checked against its exact 4x4 symplectic representation.
"""

from .fock import (
    RegularizedState,
    displacement,
    displaced_identity_doubleket,
    entbs_fidelity,
    heterodyne_eigen_residual,
    identity_doubleket,
    matched_lambda,
    mode_mixer,
    opa,
    phase_shift,
    quad_eigenstate_approx,
    quadrature,
    squeezer,
    sum_gate,
    sum_gate_block_checks,
    sum_gate_circuit,
)
from .gaussian import (
    DecompositionParams,
    circuit_factors,
    circuit_symplectic,
    circuit_vs_target_error,
    consistency_notes,
    decomposition_params,
    su11_pauli_defect,
    sum_gate_symplectic,
)
from .qudit import (
    QuditGateSet,
    bell_map_max_error,
    bell_vector,
    dense_v,
    make_gateset,
    orthonormality_max_error,
    shift_multiply,
    v_from_bell_basis,
)
from .reports import CheckResult, VerificationReport

__version__ = "0.1.0"
