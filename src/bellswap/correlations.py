"""Experiment predictions for the swapped state.

Two detector arrangements are covered:

- double Bell: both pairs (b, c) and (a, d) meet a Bell-state analyzer;
  predictions are a 4x4 joint probability matrix.
- Bell/polarization: only (b, c) meets the analyzer while a and d go to
  polarizers; predictions are 16 joint probabilities over
  (Bell outcome, pol_a, pol_d).

The sector parity kappa is +1 on {phi+, psi-} and -1 on {phi-, psi+}; it is
perfectly correlated between the two pairs at every angle setting.  Within a
sector the relevant phase is zeta_kappa = (phi1 - phi2) + kappa*(phi3 - phi4);
at zeta = 0 or +-pi the product a * F * d of the outer polarizations with the
analyzer's polarization product F is +1 with certainty, and at zeta = +-pi/2
it is -1 with certainty.

Every prediction for a setting derives from one numeric decomposition: the
rotated state is brute-force projected onto the double Bell basis, giving
the 4x4 coefficient matrix C (quantum.bell_bell_coefficients, which does a
whole batch of settings in one pass).  The double Bell probabilities are
|C|^2; row X of C, expanded in the Bell vectors, gives the (a, d) amplitudes
of Bell outcome X and so the Bell/polarization distribution.  The sector
reports read both in one array pass over a batch of settings and their C; one
report is a batch of one.  One rule classifies zeta, as a float or an array.

A sampled event is an index into OUTCOME_ORDER: each of the 16 outcomes fixes
the Bell state, both polarizations and so kappa, F, a, d and the product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .quantum import (
    BELL_INDEX,
    BELL_ORDER,
    BELL_VECTORS,
    AngleSettings,
    BellOutcome,
    Polarization,
    _read_only,
    apply_all_rotations,
    bell_bell_coefficients,
    make_vw_state,
)

__all__ = [
    "DEFAULT_ANGLE_TOL",
    "MAX_ANGLE_TOL",
    "CERTAINTY_TOL",
    "PhaseClass",
    "SectorReport",
    "PerfectCorrelationReport",
    "OUTCOME_ORDER",
    "kappa_of",
    "f_value_of",
    "zeta",
    "classify_zeta",
    "rotated_vw_state",
    "joint_bell_probabilities",
    "bell_polarization_distribution",
    "perfect_correlation_report",
    "violating_outcomes",
    "sample_events",
]

#: Default tolerance (radians) for recognizing the special phase values.
DEFAULT_ANGLE_TOL = 1e-9

#: Exclusive upper bound on that tolerance: from pi/4 on, the zero-or-pi and
#: half-pi windows overlap and a generic phase would get a false certainty.
MAX_ANGLE_TOL = math.pi / 4

#: Probability residual below which a correlation counts as certain.
CERTAINTY_TOL = 1e-12

_KAPPA = {
    BellOutcome.PHI_PLUS: +1,
    BellOutcome.PSI_MINUS: +1,
    BellOutcome.PHI_MINUS: -1,
    BellOutcome.PSI_PLUS: -1,
}

_F_VALUE = {
    BellOutcome.PHI_PLUS: +1,
    BellOutcome.PHI_MINUS: +1,
    BellOutcome.PSI_PLUS: -1,
    BellOutcome.PSI_MINUS: -1,
}

#: Bell outcomes of each parity sector, in BELL_ORDER.
SECTOR_OUTCOMES = {
    +1: (BellOutcome.PHI_PLUS, BellOutcome.PSI_MINUS),
    -1: (BellOutcome.PHI_MINUS, BellOutcome.PSI_PLUS),
}

#: Fixed sampling order of the 16 Bell/polarization outcomes.
OUTCOME_ORDER: tuple[tuple[BellOutcome, Polarization, Polarization], ...] = tuple(
    (bell, pol_a, pol_d)
    for bell in BELL_ORDER
    for pol_a in (Polarization.H, Polarization.V)
    for pol_d in (Polarization.H, Polarization.V)
)

#: Product a*F*d of each outcome in OUTCOME_ORDER.
_OUTCOME_PRODUCT = [_F_VALUE[bell] * a.sign * d.sign for bell, a, d in OUTCOME_ORDER]

#: The sectors, in the column order of the batched sector arrays, and the
#: sign with which phi3 - phi4 enters each one's zeta.
_SECTORS = (+1, -1)
_SECTOR_SIGNS = np.array(_SECTORS, dtype=float)
_SECTOR_ROWS = np.arange(len(_SECTORS))

#: Bell-to-Bell pairing that a sector's certain product implies, by (kappa,
#: product): identity at zeta in {0, +-pi}, swapped at +-pi/2.
_PAIRING = {
    (k, c): dict(zip(SECTOR_OUTCOMES[k], SECTOR_OUTCOMES[k][::c])) for k in (1, -1) for c in (1, -1)
}


def _summed_cells(kappa: int, claim: int) -> list[int]:
    """The cells of a setting's 32 probabilities (16 outcomes, then |C|^2
    flattened) that sector kappa sums under a claimed product: its 8
    outcomes, the 4 of them whose product contradicts the claim, and the 6
    double Bell cells of its rows off the claim's pairing.  Each group
    ascends, as a one-setting numpy sum reads it."""
    outcomes = [i for i, (bell, _, _) in enumerate(OUTCOME_ORDER) if _KAPPA[bell] == kappa]
    violating = [i for i in outcomes if _OUTCOME_PRODUCT[i] != claim]
    pairing = _PAIRING[kappa, claim]
    paired = {4 * BELL_INDEX[bc] + BELL_INDEX[ad] for bc, ad in pairing.items()}
    unpaired = [16 + c for c in range(16) if BELL_ORDER[c // 4] in pairing and c not in paired]
    return outcomes + violating + unpaired


#: _summed_cells per sector, indexed by the sector's predicted product itself:
#: entry 1 for +1, entry -1 for -1, and a placeholder at 0 (generic).
_SUMMED_CELLS = np.array([[_summed_cells(k, c or +1) for c in (0, +1, -1)] for k in _SECTORS])
_SUMS = (slice(0, 8), slice(8, 12), slice(12, 18))


def kappa_of(outcome: BellOutcome) -> int:
    """Sector parity: +1 for phi+/psi-, -1 for phi-/psi+."""
    return _KAPPA[outcome]


def f_value_of(outcome: BellOutcome) -> int:
    """Polarization product of a Bell state: +1 for HH/VV, -1 for HV/VH."""
    return _F_VALUE[outcome]


def zeta(angles: AngleSettings, kappa: int) -> float:
    """Sector phase (phi1 - phi2) + kappa * (phi3 - phi4)."""
    if kappa not in (-1, +1):
        raise ValueError(f"kappa must be +1 or -1, got {kappa}")
    return (angles.phi1 - angles.phi2) + kappa * (angles.phi3 - angles.phi4)


class PhaseClass(Enum):
    """Where a sector phase falls modulo 2*pi."""

    ZERO_OR_PI = "zero-or-pi"
    HALF_PI = "half-pi"
    GENERIC = "generic"

    @property
    def predicted_product(self) -> int | None:
        """Certain value of a*F*d in the sector, if any."""
        if self is PhaseClass.ZERO_OR_PI:
            return +1
        if self is PhaseClass.HALF_PI:
            return -1
        return None


def _predicted_product(zeta_value, tol: float):
    """The certain value of a*F*d at sector phase zeta (a float, or an array
    of them): +1 at zeta in {0, +-pi}, -1 at +-pi/2, 0 if generic.

    Reduction modulo pi folds 0, +-pi onto 0 and +-pi/2 onto pi/2, so the
    comparison needs only two distances; below pi/4 they never both hold.
    """
    if not 0 < tol < MAX_ANGLE_TOL:
        raise ValueError(f"tol must be > 0 and < pi/4, got {tol}")
    residue = zeta_value % math.pi
    zero_or_pi = (residue < tol) | (math.pi - residue < tol)
    half_pi = abs(residue - math.pi / 2) < tol
    return 1 * zero_or_pi - half_pi


_PHASE_CLASS = {+1: PhaseClass.ZERO_OR_PI, -1: PhaseClass.HALF_PI, 0: PhaseClass.GENERIC}


def classify_zeta(angles: AngleSettings, kappa: int, tol: float = DEFAULT_ANGLE_TOL) -> PhaseClass:
    """Classify zeta_kappa modulo 2*pi."""
    return _PHASE_CLASS[_predicted_product(zeta(angles, kappa), tol)]


def rotated_vw_state(angles: AngleSettings) -> np.ndarray:
    """The 16 amplitudes of the two-singlet source after all four rotations."""
    return apply_all_rotations(make_vw_state(), angles)


def _decompose(angles: AngleSettings) -> np.ndarray:
    """The numeric double Bell coefficients C of the rotated state, 4x4:
    the one-setting case of quantum.bell_bell_coefficients."""
    return bell_bell_coefficients([angles.as_tuple()])[0]


def _outcome_probabilities(coeffs: np.ndarray) -> np.ndarray:
    """Bell/polarization probabilities from C (or a stack of them), shaped
    (..., bell, pol_a, pol_d) in OUTCOME_ORDER: row X of C expanded in the
    (a, d) Bell vectors."""
    ket = np.array([BELL_VECTORS[bell] for bell in BELL_ORDER])
    return np.abs(np.einsum("...xy,yad->...xad", coeffs, ket)) ** 2


def joint_bell_probabilities(angles: AngleSettings) -> np.ndarray:
    """4x4 joint outcome probabilities of the double Bell arrangement.

    Rows index the (b, c) outcome and columns the (a, d) outcome, both in
    BELL_ORDER.  Computed from the numerically decomposed state, not the
    closed form, so cross-sector entries vanish as a prediction rather
    than by construction.
    """
    return np.abs(_decompose(angles)) ** 2


def bell_polarization_distribution(
    angles: AngleSettings,
) -> dict[tuple[BellOutcome, Polarization, Polarization], float]:
    """Joint probabilities of the Bell/polarization arrangement (16 entries)."""
    probs = _outcome_probabilities(_decompose(angles))
    return dict(zip(OUTCOME_ORDER, probs.ravel().tolist()))


def violating_outcomes(angles: AngleSettings, tol: float = DEFAULT_ANGLE_TOL) -> np.ndarray:
    """Mask over OUTCOME_ORDER of the outcomes whose product a*F*d contradicts
    the certain value of their sector at this setting.  A generic sector
    claims no value, so none of its outcomes violate."""
    mask = np.zeros(len(OUTCOME_ORDER), dtype=bool)
    for sector, kappa in enumerate(_SECTORS):
        claim = _predicted_product(zeta(angles, kappa), tol)
        if claim:
            mask[_SUMMED_CELLS[sector, claim, _SUMS[1]]] = True
    return mask


@lru_cache(maxsize=1)
def _outcome_cdf(angles: AngleSettings) -> np.ndarray:
    """Cumulative probabilities over OUTCOME_ORDER.  simulate samples one
    setting a chunk at a time, so the last setting's CDF is kept.  The cache
    is module state: in one process, later draws at the same setting reuse
    it too (a benchmark that repeats one setting skips its decomposition
    after the first command), while a one-command process computes it once
    either way."""
    return _read_only(np.cumsum(_outcome_probabilities(_decompose(angles))))


def sample_events(angles: AngleSettings, n: int, seed: int | np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. events from the Bell/polarization distribution.

    Each event is an index into OUTCOME_ORDER.  Sampling is inverse-CDF over
    that order with numpy's seeded generator, so a given (angles, n, seed)
    always yields the same array.  A Generator passed as ``seed`` is drawn
    from as it stands, so draws of n1 and then n2 events from one Generator
    concatenate to the draw of n1 + n2 events from its seed.
    """
    if n < 0:
        raise ValueError("event count must be >= 0")
    cdf = _outcome_cdf(angles)
    rng = np.random.default_rng(seed)
    draws = np.searchsorted(cdf, rng.random(n), side="right")
    return np.minimum(draws, len(OUTCOME_ORDER) - 1)


@dataclass(frozen=True)
class SectorReport:
    """Perfect-correlation verdict for one parity sector at one setting."""

    kappa: int
    zeta: float
    phase_class: PhaseClass
    predicted_product: int | None
    sector_probability: float
    violation_probability: float | None
    product_certain: bool | None
    bell_pairing: dict[BellOutcome, BellOutcome] | None
    pairing_violation_probability: float | None
    pairing_certain: bool | None

    def to_dict(self) -> dict:
        return {
            "kappa": self.kappa,
            "zeta": self.zeta,
            "phase_class": self.phase_class.value,
            "predicted_product": self.predicted_product,
            "sector_probability": self.sector_probability,
            "violation_probability": self.violation_probability,
            "product_certain": self.product_certain,
            "bell_pairing": (
                None
                if self.bell_pairing is None
                else {bc.value: ad.value for bc, ad in self.bell_pairing.items()}
            ),
            "pairing_violation_probability": self.pairing_violation_probability,
            "pairing_certain": self.pairing_certain,
        }


@dataclass(frozen=True)
class PerfectCorrelationReport:
    """Per-sector certainty verdicts for one angle setting."""

    angles: AngleSettings
    sectors: tuple[SectorReport, SectorReport]

    @property
    def holds(self) -> bool:
        """True unless some claimed certainty fails; generic sectors don't claim."""
        for sector in self.sectors:
            if sector.product_certain is False or sector.pairing_certain is False:
                return False
        return True

    def to_dict(self) -> dict:
        return {
            "angles": list(self.angles.as_tuple()),
            "sectors": [sector.to_dict() for sector in self.sectors],
            "holds": self.holds,
        }


def perfect_correlation_report(
    angles: AngleSettings, tol: float = DEFAULT_ANGLE_TOL
) -> PerfectCorrelationReport:
    """Check every certainty the state predicts at this setting.

    For each sector whose zeta classifies as zero-or-pi or half-pi the
    report verifies, from the Bell/polarization distribution, that the
    conditional product a*F*d equals the predicted sign up to a residual
    probability below CERTAINTY_TOL, and from the double Bell
    probabilities that the sector's exact Bell-to-Bell pairing holds.
    Generic sectors carry no claim.
    """
    return _correlation_report(angles, _decompose(angles), tol)


def _sector_arrays(settings: np.ndarray, coeffs: np.ndarray, tol: float) -> tuple:
    """Both sectors' values for an (N, 4) batch of settings and their (N, 4, 4)
    coefficients C, in one array pass: zeta, predicted product (0 if generic,
    whose violations mean nothing), sector probability, product violation and
    pairing violation, each (N, 2) with columns kappa +1 and -1.  A sum reads
    the cells in a one-setting sum's order, so it does not depend on the batch."""
    left, right = (settings[:, ::2] - settings[:, 1::2]).T
    zetas = left[:, None] + right[:, None] * _SECTOR_SIGNS
    predicted = _predicted_product(zetas, tol)
    outcomes = _outcome_probabilities(coeffs).reshape(-1, 16)
    probs = np.concatenate([outcomes, (np.abs(coeffs) ** 2).reshape(-1, 16)], axis=1)
    # row n, sector s reads the cells _SUMMED_CELLS[s, predicted[n, s]] of probs[n]
    picked = probs[np.arange(len(probs))[:, None, None], _SUMMED_CELLS[_SECTOR_ROWS, predicted]]
    return (zetas, predicted, *(picked[..., cells].sum(axis=2) for cells in _SUMS))


def _correlation_report(
    angles: AngleSettings, coeffs: np.ndarray, tol: float
) -> PerfectCorrelationReport:
    """perfect_correlation_report from the setting's numeric coefficients C:
    the one-setting case of _sector_arrays."""
    values = _sector_arrays(np.array([angles.as_tuple()]), coeffs[None], tol)
    sectors = []
    for kappa, zeta_value, claim, probability, violation, pairing_violation in zip(
        _SECTORS, *(array[0].tolist() for array in values)
    ):
        if not claim:  # a generic sector claims nothing
            violation = pairing_violation = None
        sectors.append(
            SectorReport(
                kappa=kappa,
                zeta=zeta_value,
                phase_class=_PHASE_CLASS[claim],
                predicted_product=claim or None,
                sector_probability=probability,
                violation_probability=violation,
                product_certain=None if violation is None else violation < CERTAINTY_TOL,
                bell_pairing=dict(_PAIRING[kappa, claim]) if claim else None,
                pairing_violation_probability=pairing_violation,
                pairing_certain=None if violation is None else pairing_violation < CERTAINTY_TOL,
            )
        )
    return PerfectCorrelationReport(angles=angles, sectors=tuple(sectors))
