"""Sweep-style verification that the exact predictions all hold.

Runs the closed form against the brute-force decomposition, checks sector
conservation and normalization on random settings, and checks every claimed
certainty on the special-phase angle families.  Used by the verify-qm
command; any violation is reported with the offending setting.

The sweep is batched: the settings form one (N, 4) array that is decomposed
and checked in fixed-size chunks (quantum.bell_bell_coefficients and its
closed form), so each per-setting check is an array reduction and memory
stays bounded at large grids.  Each special-family report is built from that
setting's row of C, without decomposing the state again.
"""

from __future__ import annotations

import math

import numpy as np

from .correlations import (
    CERTAINTY_TOL,
    DEFAULT_ANGLE_TOL,
    _correlation_report,
    _outcome_probabilities,
    kappa_of,
)
from .quantum import (
    BELL_ORDER,
    AngleSettings,
    bell_bell_coefficients,
    bell_bell_coefficients_closed_form,
)

__all__ = ["CLOSED_FORM_TOL", "special_family_settings", "run_qm_verification"]

#: Allowed closed-form vs numeric entry-wise deviation.
CLOSED_FORM_TOL = 1e-10

#: Random instantiations of each special-phase family in a sweep.
_PER_FAMILY = 20

#: (family name, builder) pairs; each builder maps random (alpha, beta) to a
#: setting whose sector phases land on the named special values.
_FAMILIES = (
    ("zeta=(0,0)", lambda a, b: AngleSettings(a, a, b, b)),
    ("zeta=(pi,pi)", lambda a, b: AngleSettings(a + math.pi, a, b, b)),
    ("zeta=(-pi/2,0)", lambda a, b: AngleSettings(a, a + math.pi / 4, b, b + math.pi / 4)),
    ("zeta=(0,-pi/2)", lambda a, b: AngleSettings(a, a + math.pi / 4, b + math.pi / 4, b)),
    ("zeta=(pi,0)", lambda a, b: AngleSettings(a + math.pi / 2, a, b + math.pi / 2, b)),
)


def special_family_settings(
    rng: np.random.Generator, per_family: int
) -> list[tuple[str, AngleSettings]]:
    """Random instantiations of each special-phase family."""
    out = []
    for name, build in _FAMILIES:
        for _ in range(per_family):
            alpha, beta = rng.uniform(0.0, 2.0 * math.pi, size=2)
            out.append((name, build(alpha, beta)))
    return out


#: Double Bell outcomes (bc, ad) whose sector parities differ.
_KAPPA_MISMATCH = np.array(
    [[kappa_of(bc) != kappa_of(ad) for ad in BELL_ORDER] for bc in BELL_ORDER]
)

#: Settings decomposed and checked per batch of the sweep: bounds the sweep's
#: arrays at about 1 MB each whatever the grid, and amortises numpy's per-call
#: cost over thousands of settings.
_CHUNK = 4096

#: The checks every swept setting gets, in the order they are reported.
_SWEEP_CHECKS = (
    "closed_form_vs_numeric",
    "double_bell_completeness",
    "kappa_mismatch_probability",
    "distribution_normalization",
)


def _sweep_values(numeric: np.ndarray, closed: np.ndarray) -> np.ndarray:
    """Per-setting values of _SWEEP_CHECKS for a batch of C: shape (N, 4)."""
    probs = np.abs(numeric) ** 2
    return np.stack(
        [
            np.abs(numeric - closed).max(axis=(1, 2)),
            np.abs(probs.sum(axis=(1, 2)) - 1.0),
            probs[:, _KAPPA_MISMATCH].sum(axis=1),
            np.abs(_outcome_probabilities(numeric).sum(axis=(1, 2, 3)) - 1.0),
        ],
        axis=1,
    )


def run_qm_verification(
    grid: int = 4,
    tol: float = DEFAULT_ANGLE_TOL,
    seed: int = 12345,
) -> dict:
    """Run every analytic check; returns a JSON-ready report.

    ``grid`` controls the random sweep size (grid**4 settings).  The report's
    ``passed`` field is True iff no check produced a violation.  Violations
    are listed setting by setting, random settings first, then the special
    families' perfect-correlation checks.
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    rng = np.random.default_rng(seed)
    random_settings = rng.uniform(0.0, 2.0 * math.pi, size=(grid**4, 4))
    family_settings = special_family_settings(rng, _PER_FAMILY)
    settings = np.concatenate(
        [random_settings, [setting.as_tuple() for _, setting in family_settings]]
    )

    checks = {
        "closed_form_vs_numeric": {"max_value": 0.0, "threshold": CLOSED_FORM_TOL},
        "double_bell_completeness": {"max_value": 0.0, "threshold": 1e-12},
        "kappa_mismatch_probability": {"max_value": 0.0, "threshold": 1e-12},
        "distribution_normalization": {"max_value": 0.0, "threshold": 1e-12},
        "perfect_correlations": {"max_value": 0.0, "threshold": CERTAINTY_TOL},
    }
    violations: list[dict] = []

    def record(check: str, value: float, angles: AngleSettings, detail: str = "") -> None:
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

    thresholds = np.array([checks[check]["threshold"] for check in _SWEEP_CHECKS])
    family_coeffs = []
    for start in range(0, len(settings), _CHUNK):
        batch = settings[start : start + _CHUNK]
        numeric = bell_bell_coefficients(batch)
        values = _sweep_values(numeric, bell_bell_coefficients_closed_form(batch))
        for check, worst in zip(_SWEEP_CHECKS, values.max(axis=0).tolist()):
            checks[check]["max_value"] = max(checks[check]["max_value"], worst)
        for row, column in zip(*np.nonzero(values >= thresholds)):
            record(_SWEEP_CHECKS[column], float(values[row, column]), AngleSettings(*batch[row]))
        # the family settings come last; keep their rows for the reports
        family_coeffs.extend(numeric[max(0, len(random_settings) - start) :])

    for (family, angles), coeffs in zip(family_settings, family_coeffs):
        report = _correlation_report(angles, coeffs, tol)
        for sector in report.sectors:
            if sector.predicted_product is None:
                continue
            worst = max(sector.violation_probability, sector.pairing_violation_probability)
            record(
                "perfect_correlations",
                worst,
                angles,
                detail=f"family {family}, kappa {sector.kappa:+d}",
            )

    passed = not violations
    for entry in checks.values():
        entry["passed"] = entry["max_value"] < entry["threshold"]
    return {
        "format_version": 1,
        "command": "verify-qm",
        "grid": grid,
        "tol": tol,
        "seed": seed,
        "random_settings": len(random_settings),
        "family_settings": len(family_settings),
        "checks": checks,
        "violations": violations,
        "passed": passed,
    }
