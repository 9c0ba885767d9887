"""Sweep-style verification that the exact predictions all hold.

Runs the closed form against the brute-force decomposition, checks sector
conservation and normalization on random settings, and checks every claimed
certainty on the special-phase angle families.  The report lists any violation
with its setting; ``cli`` puts verify-qm's document envelope in front of it.

The sweep is batched: random settings are drawn from one stream a chunk at a
time, and each chunk is decomposed and checked as an (N, 4) array, so memory
stays bounded at any grid.  The special-family builders give their settings
as rows of 4 Python floats, which ride in the last chunk as its last rows;
all their reports are one array pass over their rows of C, without
decomposing again.
"""

from __future__ import annotations

import math

import numpy as np

from .correlations import (
    CERTAINTY_TOL,
    DEFAULT_ANGLE_TOL,
    MAX_ANGLE_TOL,
    _SECTORS,
    _outcome_probabilities,
    _sector_arrays,
    kappa_of,
)
from .quantum import BELL_ORDER, bell_bell_coefficients, bell_bell_coefficients_closed_form

__all__ = ["CLOSED_FORM_TOL", "special_family_settings", "run_qm_verification"]

#: Allowed closed-form vs numeric entry-wise deviation.
CLOSED_FORM_TOL = 1e-10

#: Random instantiations of each special-phase family in a sweep.
_PER_FAMILY = 20

#: (family name, builder) pairs; each builder maps random (alpha, beta) to a
#: setting, a row (phi1, phi2, phi3, phi4), whose sector phases land on the
#: named special values.
_FAMILIES = (
    ("zeta=(0,0)", lambda a, b: (a, a, b, b)),
    ("zeta=(pi,pi)", lambda a, b: (a + math.pi, a, b, b)),
    ("zeta=(-pi/2,0)", lambda a, b: (a, a + math.pi / 4, b, b + math.pi / 4)),
    ("zeta=(0,-pi/2)", lambda a, b: (a, a + math.pi / 4, b + math.pi / 4, b)),
    ("zeta=(pi,0)", lambda a, b: (a + math.pi / 2, a, b + math.pi / 2, b)),
)


def special_family_settings(
    rng: np.random.Generator, per_family: int
) -> list[tuple[str, tuple[float, float, float, float]]]:
    """Random instantiations of each special-phase family, from one draw of
    their (alpha, beta) pairs: (family name, row of 4 Python floats) pairs."""
    pairs = rng.uniform(0.0, 2.0 * math.pi, size=(len(_FAMILIES), per_family, 2)).tolist()
    return [(name, build(*pair)) for (name, build), row in zip(_FAMILIES, pairs) for pair in row]


#: Double Bell outcomes (bc, ad) whose sector parities differ.
_KAPPA_MISMATCH = np.array(
    [[kappa_of(bc) != kappa_of(ad) for ad in BELL_ORDER] for bc in BELL_ORDER]
)

#: Settings decomposed and checked per batch of the sweep: bounds the sweep's
#: arrays at about 1 MB each whatever the grid, and amortises numpy's per-call
#: cost over thousands of settings.
_CHUNK = 4096

#: Every check's threshold, in the order the checks are reported; each
#: swept setting gets all but the last, the special families' check.
_THRESHOLDS = {
    "closed_form_vs_numeric": CLOSED_FORM_TOL,
    "double_bell_completeness": 1e-12,
    "kappa_mismatch_probability": 1e-12,
    "distribution_normalization": 1e-12,
    "perfect_correlations": CERTAINTY_TOL,
}
_SWEEP_CHECKS = tuple(_THRESHOLDS)[:-1]


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
    """Run every analytic check; returns the JSON-ready report body.

    ``grid`` controls the random sweep size (grid**4 settings).  The report's
    ``passed`` field is True iff no check produced a violation.  Violations
    are listed setting by setting, random settings first, then the special
    families' perfect-correlation checks.
    """
    if grid < 1 or not 0 < tol < MAX_ANGLE_TOL:  # before the sweep, not after it
        raise ValueError(f"need grid >= 1 and 0 < tol < pi/4, got grid {grid}, tol {tol}")
    rng = np.random.default_rng(seed)
    n_random = grid**4

    checks = {
        name: {"max_value": 0.0, "threshold": threshold} for name, threshold in _THRESHOLDS.items()
    }
    violations: list[dict] = []

    def record(names, values: np.ndarray, settings: np.ndarray, detail=lambda row, col: ""):
        """Fold the (N, k) values of the checks ``names`` at N settings in."""
        for name, worst in zip(names, values.max(axis=0).tolist()):
            checks[name]["max_value"] = max(checks[name]["max_value"], worst)
        thresholds = [checks[name]["threshold"] for name in names]
        for row, col in zip(*np.nonzero(values >= thresholds)):
            violations.append(
                {
                    "check": names[col],
                    "angles": settings[row].tolist(),
                    "value": values[row, col].item(),
                    "detail": detail(row, col),
                }
            )

    for start in range(0, n_random, _CHUNK):
        # one stream, drawn a chunk at a time; the family settings are drawn
        # after every random one and ride in the last chunk
        batch = rng.uniform(0.0, 2.0 * math.pi, size=(min(_CHUNK, n_random - start), 4))
        if start + _CHUNK >= n_random:
            family_settings = special_family_settings(rng, _PER_FAMILY)
            batch = np.concatenate([batch, [angles for _, angles in family_settings]])
        numeric = bell_bell_coefficients(batch)
        values = _sweep_values(numeric, bell_bell_coefficients_closed_form(batch))
        record(_SWEEP_CHECKS, values, batch)

    # every family report at once; every family sector is special by
    # construction, so one that claims nothing (a tol too tight) violates
    family = slice(len(batch) - len(family_settings), None)
    _, predicted, _, violation, pairing = _sector_arrays(batch[family], numeric[family], tol)
    record(
        ("perfect_correlations",) * 2,
        np.where(predicted != 0, np.maximum(violation, pairing), 1.0),
        batch[family],
        lambda row, col: f"family {family_settings[row][0]}, kappa {_SECTORS[col]:+d}",
    )

    passed = not violations
    for entry in checks.values():
        entry["passed"] = entry["max_value"] < entry["threshold"]
    return {
        "grid": grid,
        "tol": tol,
        "seed": seed,
        "random_settings": n_random,
        "family_settings": len(family_settings),
        "checks": checks,
        "violations": violations,
        "passed": passed,
    }
