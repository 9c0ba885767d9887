"""Entanglement-swapping perfect correlations and their local-model refutation.

The package simulates the four-photon two-singlet source exactly, predicts
the correlations seen after Bell-state analysis, compiles the resulting
certainties into +-1 parity constraints for a deterministic local model, and
decides those constraint systems with two independent solvers that emit
machine-checkable certificates.
"""

from .correlations import (
    bell_polarization_distribution,
    classify_zeta,
    f_value_of,
    joint_bell_probabilities,
    kappa_of,
    perfect_correlation_report,
    sample_events,
    violating_outcomes,
    zeta,
)
from .lhv import (
    apply_factorization,
    compile_bell_polarization,
    compile_double_bell,
    compile_factored,
    contradiction_instance,
    contradiction_settings,
)
from .proof import ConstraintSet, ParityConstraint, SolveResult, SolveStatus, verify_certificate
from .quantum import (
    BELL_ORDER,
    BellOutcome,
    Polarization,
    apply_all_rotations,
    bell_bell_amplitudes_closed_form,
    bell_bell_amplitudes_numeric,
    bell_bell_coefficients,
    bell_bell_coefficients_closed_form,
    compute_phases,
    make_vw_state,
    rotate_photon,
)
from .solver import enumerate_solve, gf2_solve

__version__ = "0.1.0"

__all__ = [
    "BellOutcome",
    "BELL_ORDER",
    "ConstraintSet",
    "ParityConstraint",
    "Polarization",
    "SolveResult",
    "SolveStatus",
    "apply_all_rotations",
    "apply_factorization",
    "bell_bell_amplitudes_closed_form",
    "bell_bell_amplitudes_numeric",
    "bell_bell_coefficients",
    "bell_bell_coefficients_closed_form",
    "bell_polarization_distribution",
    "classify_zeta",
    "compile_bell_polarization",
    "compile_double_bell",
    "compile_factored",
    "compute_phases",
    "contradiction_instance",
    "contradiction_settings",
    "enumerate_solve",
    "f_value_of",
    "gf2_solve",
    "joint_bell_probabilities",
    "kappa_of",
    "make_vw_state",
    "perfect_correlation_report",
    "rotate_photon",
    "sample_events",
    "verify_certificate",
    "violating_outcomes",
    "zeta",
]
