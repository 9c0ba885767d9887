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
of Bell outcome X and so the Bell/polarization distribution; the sector
reports read both, so a caller holding C for a setting (the verify-qm sweep)
builds the report without decomposing again.

A sampled event is an index into OUTCOME_ORDER: each of the 16 outcomes fixes
the Bell state, both polarizations and so kappa, F, a, d and the product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .quantum import (
    BELL_INDEX,
    BELL_ORDER,
    BELL_VECTORS,
    AngleSettings,
    BellOutcome,
    Polarization,
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

#: Sector parity of each row of C; sector parity and product a*F*d of each
#: outcome in OUTCOME_ORDER.
_ROW_KAPPA = np.array([_KAPPA[bell] for bell in BELL_ORDER])
_OUTCOME_KAPPA = np.array([_KAPPA[bell] for bell, _, _ in OUTCOME_ORDER])
_OUTCOME_PRODUCT = np.array(
    [_F_VALUE[bell] * pol_a.sign * pol_d.sign for bell, pol_a, pol_d in OUTCOME_ORDER]
)


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


def classify_zeta(angles: AngleSettings, kappa: int, tol: float = DEFAULT_ANGLE_TOL) -> PhaseClass:
    """Classify zeta_kappa modulo 2*pi.

    Reduction modulo pi folds 0, +-pi onto 0 and +-pi/2 onto pi/2, so the
    comparison needs only two distances.
    """
    if not 0 < tol < MAX_ANGLE_TOL:
        raise ValueError(f"tol must be > 0 and < pi/4, got {tol}")
    residue = zeta(angles, kappa) % math.pi
    if residue < tol or math.pi - residue < tol:
        return PhaseClass.ZERO_OR_PI
    if abs(residue - math.pi / 2) < tol:
        return PhaseClass.HALF_PI
    return PhaseClass.GENERIC


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
    ket = np.stack([BELL_VECTORS[bell] for bell in BELL_ORDER])
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


def _classify_sectors(angles: AngleSettings, tol: float) -> dict[int, PhaseClass]:
    return {kappa: classify_zeta(angles, kappa, tol) for kappa in (+1, -1)}


def _violation_mask(classes: dict[int, PhaseClass]) -> np.ndarray:
    mask = np.zeros(len(OUTCOME_ORDER), dtype=bool)
    for kappa, phase_class in classes.items():
        predicted = phase_class.predicted_product
        if predicted is not None:
            mask |= (_OUTCOME_KAPPA == kappa) & (_OUTCOME_PRODUCT != predicted)
    return mask


def violating_outcomes(angles: AngleSettings, tol: float = DEFAULT_ANGLE_TOL) -> np.ndarray:
    """Mask over OUTCOME_ORDER of the outcomes whose product a*F*d contradicts
    the certain value of their sector at this setting.  A generic sector
    claims no value, so none of its outcomes violate."""
    return _violation_mask(_classify_sectors(angles, tol))


def sample_events(angles: AngleSettings, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. events from the Bell/polarization distribution.

    Each event is an index into OUTCOME_ORDER.  Sampling is inverse-CDF over
    that order with numpy's seeded generator, so a given (angles, n, seed)
    always yields the same array.
    """
    if n < 0:
        raise ValueError("event count must be >= 0")
    cdf = np.cumsum(_outcome_probabilities(_decompose(angles)))
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


def _sector_pairing(kappa: int, phase_class: PhaseClass) -> dict[BellOutcome, BellOutcome]:
    first, second = SECTOR_OUTCOMES[kappa]
    if phase_class is PhaseClass.ZERO_OR_PI:
        return {first: first, second: second}
    return {first: second, second: first}


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


def _correlation_report(
    angles: AngleSettings, coeffs: np.ndarray, tol: float
) -> PerfectCorrelationReport:
    """perfect_correlation_report from the setting's numeric coefficients C."""
    dist = _outcome_probabilities(coeffs)
    bell_probs = np.abs(coeffs) ** 2
    classes = _classify_sectors(angles, tol)
    violating = _violation_mask(classes).reshape(dist.shape)
    sectors = []
    for kappa, phase_class in classes.items():
        predicted = phase_class.predicted_product
        rows = _ROW_KAPPA == kappa
        violation = pairing = pairing_violation = None
        if predicted is not None:
            violation = float(dist[rows][violating[rows]].sum())
            pairing = _sector_pairing(kappa, phase_class)
            unpaired = np.ones((4, 4), dtype=bool)
            for bc, ad in pairing.items():
                unpaired[BELL_INDEX[bc], BELL_INDEX[ad]] = False
            pairing_violation = float(bell_probs[rows][unpaired[rows]].sum())
        sectors.append(
            SectorReport(
                kappa=kappa,
                zeta=zeta(angles, kappa),
                phase_class=phase_class,
                predicted_product=predicted,
                sector_probability=float(dist[rows].sum()),
                violation_probability=violation,
                product_certain=None if violation is None else violation < CERTAINTY_TOL,
                bell_pairing=pairing,
                pairing_violation_probability=pairing_violation,
                pairing_certain=None if pairing is None else pairing_violation < CERTAINTY_TOL,
            )
        )
    return PerfectCorrelationReport(angles=angles, sectors=tuple(sectors))
