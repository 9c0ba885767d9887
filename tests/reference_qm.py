"""Per-setting reference for the batched double Bell kernel and the sweep.

A copy of the earlier one-setting-at-a-time path: four tensordot rotations of
the two-singlet tensor, one einsum projection onto the Bell vectors (read at
call time), the per-pair draw of the special-family settings, the
perfect-correlation check of one setting (phase classes, violation masks,
Bell pairing and sums), and the verify-qm loop that checked each setting in
turn.  It also keeps the batched kernels' earlier dense complex einsums,
reference_project and reference_outcome_probabilities, whose real parts the
sparse real sums must give bit for bit.  Tests compare the package against
it; it is not used by the package.
"""

import math

import numpy as np

from bellswap import verification
from bellswap.correlations import CERTAINTY_TOL, OUTCOME_ORDER, f_value_of, kappa_of
from bellswap.quantum import (
    BELL_INDEX,
    BELL_ORDER,
    BELL_VECTORS,
    bell_bell_coefficients,
    bell_bell_coefficients_closed_form,
    make_vw_state,
)
from bellswap.verification import CLOSED_FORM_TOL


def reference_coefficients(angles):
    """Numeric double Bell coefficients C of the rotated state, one setting."""
    tensor = make_vw_state().reshape(2, 2, 2, 2)
    for photon, phi in enumerate(angles):
        c, s = math.cos(phi), math.sin(phi)
        rotation = np.array([[c, -s], [s, c]], dtype=complex)
        tensor = np.moveaxis(np.tensordot(rotation, tensor, axes=([1], [photon])), 0, photon)
    bra = np.stack([BELL_VECTORS[bell] for bell in BELL_ORDER]).conj()
    return np.einsum("xbc,yad,abcd->xy", bra, bra, tensor)


def reference_project(amplitudes):
    """(N, 16) amplitudes projected onto every |X_bc> x |Y_ad> by one dense
    complex einsum: (N, 4, 4), complex whatever the input."""
    bra = np.stack([BELL_VECTORS[bell] for bell in BELL_ORDER]).astype(complex).conj()
    projector = np.einsum("xbc,yad->xyabcd", bra, bra).reshape(16, 16)
    return np.einsum("nk,jk->nj", amplitudes, projector).reshape(-1, 4, 4)


def reference_outcome_amplitudes(coeffs):
    """Row X of C (or of a stack of them) expanded in the (a, d) Bell
    vectors by one dense complex einsum: (..., bell, pol_a, pol_d)."""
    ket = np.array([BELL_VECTORS[bell] for bell in BELL_ORDER], dtype=complex)
    return np.einsum("...xy,yad->...xad", coeffs, ket)


def reference_outcome_probabilities(coeffs):
    """|reference_outcome_amplitudes(coeffs)|^2."""
    return np.abs(reference_outcome_amplitudes(coeffs)) ** 2


def reference_family_settings(rng, per_family):
    """The special-family settings, one (alpha, beta) draw per setting, from
    the families in ``verification._FAMILIES`` at call time."""
    out = []
    for name, build in verification._FAMILIES:
        for _ in range(per_family):
            alpha, beta = rng.uniform(0.0, 2.0 * math.pi, size=2)
            out.append((name, build(alpha, beta)))
    return out


def reference_predicted_product(angles, kappa, tol):
    """+1 if zeta_kappa is 0 or pi modulo 2 pi within tol, -1 if it is
    +-pi/2, else None."""
    phi1, phi2, phi3, phi4 = angles
    residue = ((phi1 - phi2) + kappa * (phi3 - phi4)) % math.pi
    if residue < tol or math.pi - residue < tol:
        return +1
    if abs(residue - math.pi / 2) < tol:
        return -1
    return None


def reference_sector_violations(angles, coeffs, tol):
    """(kappa, worst violation) of each sector with a certain product at one
    setting with coefficients C: the larger of the probability of a product
    a*F*d against the prediction and that of a double Bell outcome off the
    sector's Bell pairing (identity at 0 or pi, swapped at +-pi/2)."""
    ket = np.stack([BELL_VECTORS[bell] for bell in BELL_ORDER])
    dist = np.abs(np.einsum("...xy,yad->...xad", coeffs, ket)) ** 2
    bell_probs = np.abs(coeffs) ** 2
    row_kappa = np.array([kappa_of(bell) for bell in BELL_ORDER])
    outcome_kappa = np.array([kappa_of(bell) for bell, _, _ in OUTCOME_ORDER])
    outcome_product = np.array([f_value_of(bell) * a.sign * d.sign for bell, a, d in OUTCOME_ORDER])
    predicted = {kappa: reference_predicted_product(angles, kappa, tol) for kappa in (+1, -1)}
    violating = np.zeros(len(OUTCOME_ORDER), dtype=bool)
    for kappa, sign in predicted.items():
        if sign is not None:
            violating |= (outcome_kappa == kappa) & (outcome_product != sign)
    violating = violating.reshape(dist.shape)
    out = []
    for kappa, sign in predicted.items():
        if sign is None:
            continue
        rows = row_kappa == kappa
        violation = float(dist[rows][violating[rows]].sum())
        first, second = (bell for bell in BELL_ORDER if kappa_of(bell) == kappa)
        pairing = {first: first, second: second} if sign == +1 else {first: second, second: first}
        unpaired = np.ones((4, 4), dtype=bool)
        for bc, ad in pairing.items():
            unpaired[BELL_INDEX[bc], BELL_INDEX[ad]] = False
        pairing_violation = float(bell_probs[rows][unpaired[rows]].sum())
        out.append((kappa, max(violation, pairing_violation)))
    return out


def reference_qm_verification(grid, tol, seed, closed_form=None):
    """The per-setting verify-qm loop; ``closed_form(angles)`` gives the 4x4
    closed-form coefficients (default: the package's)."""
    if closed_form is None:
        closed_form = lambda angles: bell_bell_coefficients_closed_form([angles])[0]  # noqa: E731
    rng = np.random.default_rng(seed)
    random_settings = [
        tuple(rng.uniform(0.0, 2.0 * math.pi, size=4).tolist()) for _ in range(grid**4)
    ]
    family_settings = reference_family_settings(rng, 20)
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
                    "angles": [float(phi) for phi in angles],
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
    # the family check reads the package kernel's C (test_quantum holds it to
    # reference_coefficients), so its values can be compared bit for bit
    for family, angles in family_settings:
        coeffs = bell_bell_coefficients([angles])[0]
        for kappa, worst in reference_sector_violations(angles, coeffs, tol):
            detail = f"family {family}, kappa {kappa:+d}"
            record("perfect_correlations", worst, angles, detail=detail)
    for entry in checks.values():
        entry["passed"] = entry["max_value"] < entry["threshold"]
    return {"checks": checks, "violations": violations, "passed": not violations}
