"""Per-setting reference for the batched double Bell kernel and the sweep.

A copy of the earlier one-setting-at-a-time path: four tensordot rotations of
the two-singlet tensor, one einsum projection onto the Bell vectors (read at
call time), and the verify-qm loop that checked each setting in turn.  Tests
compare the batched code against it; it is not used by the package.
"""

import math

import numpy as np

from bellswap.correlations import CERTAINTY_TOL, kappa_of, perfect_correlation_report
from bellswap.quantum import (
    BELL_ORDER,
    BELL_VECTORS,
    AngleSettings,
    bell_bell_coefficients_closed_form,
    make_vw_state,
)
from bellswap.verification import CLOSED_FORM_TOL, special_family_settings


def reference_coefficients(angles):
    """Numeric double Bell coefficients C of the rotated state, one setting."""
    tensor = make_vw_state().reshape(2, 2, 2, 2)
    for photon, phi in enumerate(angles.as_tuple()):
        c, s = math.cos(phi), math.sin(phi)
        rotation = np.array([[c, -s], [s, c]], dtype=complex)
        tensor = np.moveaxis(np.tensordot(rotation, tensor, axes=([1], [photon])), 0, photon)
    bra = np.stack([BELL_VECTORS[bell] for bell in BELL_ORDER]).conj()
    return np.einsum("xbc,yad,abcd->xy", bra, bra, tensor)


def reference_qm_verification(grid, tol, seed, closed_form=None):
    """The per-setting verify-qm loop; ``closed_form(angles)`` gives the 4x4
    closed-form coefficients (default: the package's)."""
    if closed_form is None:
        closed_form = lambda angles: bell_bell_coefficients_closed_form(  # noqa: E731
            [angles.as_tuple()]
        )[0]
    rng = np.random.default_rng(seed)
    random_settings = [
        AngleSettings(*rng.uniform(0.0, 2.0 * math.pi, size=4)) for _ in range(grid**4)
    ]
    family_settings = special_family_settings(rng, 20)
    checks = {
        "closed_form_vs_numeric": {"max_value": 0.0, "threshold": CLOSED_FORM_TOL},
        "double_bell_completeness": {"max_value": 0.0, "threshold": 1e-12},
        "kappa_mismatch_probability": {"max_value": 0.0, "threshold": 1e-12},
        "distribution_normalization": {"max_value": 0.0, "threshold": 1e-12},
        "perfect_correlations": {"max_value": 0.0, "threshold": CERTAINTY_TOL},
    }
    violations = []

    def record(check, value, angles, detail=""):
        entry = checks[check]
        entry["max_value"] = max(entry["max_value"], value)
        if value >= entry["threshold"]:
            violations.append(
                {
                    "check": check,
                    "angles": list(angles.as_tuple()),
                    "value": value,
                    "detail": detail,
                }
            )

    mismatch = np.array(
        [[kappa_of(bc) != kappa_of(ad) for ad in BELL_ORDER] for bc in BELL_ORDER]
    )
    ket = np.stack([BELL_VECTORS[bell] for bell in BELL_ORDER])
    for angles in random_settings + [setting for _, setting in family_settings]:
        numeric = reference_coefficients(angles)
        probs = np.abs(numeric) ** 2
        outcome_probs = np.abs(np.einsum("xy,yad->xad", numeric, ket)) ** 2
        deviation = float(np.max(np.abs(numeric - closed_form(angles))))
        record("closed_form_vs_numeric", deviation, angles)
        record("double_bell_completeness", abs(float(np.sum(probs)) - 1.0), angles)
        record("kappa_mismatch_probability", float(probs[mismatch].sum()), angles)
        record("distribution_normalization", abs(float(outcome_probs.sum()) - 1.0), angles)
    for family, angles in family_settings:
        for sector in perfect_correlation_report(angles, tol=tol).sectors:
            if sector.predicted_product is None:
                continue
            worst = max(sector.violation_probability, sector.pairing_violation_probability)
            record(
                "perfect_correlations",
                worst,
                angles,
                detail=f"family {family}, kappa {sector.kappa:+d}",
            )
    for entry in checks.values():
        entry["passed"] = entry["max_value"] < entry["threshold"]
    return {"checks": checks, "violations": violations, "passed": not violations}
