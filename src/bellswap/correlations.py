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

A setting is a row of four angles, a (4,) array-like, and a batch of them
an (N, 4) one; a public function checks its settings once, through
quantum._angle_row or _angle_rows, and the private ones take the checked
arrays.  Every sector phase comes from quantum._zetas.  Every prediction for
a setting derives from one numeric decomposition: the rotated state is
brute-force projected onto the double Bell basis, giving the 4x4 coefficient
matrix C (quantum.bell_bell_coefficients, which does a whole batch of
settings in one pass).  The double Bell probabilities are |C|^2; row X of C, expanded in the
Bell vectors, gives the (a, d) amplitudes of Bell outcome X and so the
Bell/polarization distribution.  The sector reports read both in one array
pass over a batch of settings and their C; one report is a batch of one.
One rule classifies zeta, as a float or an array, and a phase class is the
certain product it gives: +1 at zero-or-pi, -1 at half-pi, 0 if generic;
only the JSON report shows a class by name.  A perfect-correlation report is
the JSON-ready dict that ``decompose`` prints.

A sampled event is an index into OUTCOME_ORDER: each of the 16 outcomes fixes
the Bell state, both polarizations and so kappa, F, a, d and the product.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .proof import _kappa
from .quantum import (
    BELL_INDEX,
    BELL_ORDER,
    BellOutcome,
    Polarization,
    _angle_row,
    _bell_sum,
    _coefficients,
    _read_only,
    _zetas,
    apply_all_rotations,
    make_vw_state,
)

__all__ = [
    "DEFAULT_ANGLE_TOL",
    "MAX_ANGLE_TOL",
    "CERTAINTY_TOL",
    "MAX_COMPILE_TOL",
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

#: Inclusive upper bound on the phase tolerance of a compiled constraint, a
#: claim of certainty: a setting d away from a special phase has violation
#: probability sin(d)**2 / 2 in its sector, which must stay below CERTAINTY_TOL.
MAX_COMPILE_TOL = math.asin(math.sqrt(2 * CERTAINTY_TOL))

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
SECTOR_OUTCOMES = {k: tuple(b for b in BELL_ORDER if _KAPPA[b] == k) for k in (+1, -1)}

#: Fixed sampling order of the 16 Bell/polarization outcomes.
OUTCOME_ORDER: tuple[tuple[BellOutcome, Polarization, Polarization], ...] = tuple(
    (bell, pol_a, pol_d)
    for bell in BELL_ORDER
    for pol_a in (Polarization.H, Polarization.V)
    for pol_d in (Polarization.H, Polarization.V)
)

#: Product a*F*d of each outcome in OUTCOME_ORDER.
_OUTCOME_PRODUCT = [_F_VALUE[bell] * a.sign * d.sign for bell, a, d in OUTCOME_ORDER]

#: The sectors, in the column order of the batched sector arrays.
_SECTORS = (+1, -1)
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


def zeta(angles, kappa: int) -> float:
    """Sector phase (phi1 - phi2) + kappa * (phi3 - phi4) of one setting."""
    return _zetas(_angle_row(angles)[None], (_kappa(kappa),)).item()


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


#: The JSON name of each phase class, by the certain product it gives.
_CLASS_NAME = {+1: "zero-or-pi", -1: "half-pi", 0: "generic"}


def classify_zeta(angles, kappa: int, tol: float = DEFAULT_ANGLE_TOL) -> int:
    """Classify zeta_kappa modulo 2*pi by the certain product a*F*d it gives:
    +1 at zero-or-pi, -1 at half-pi, 0 if generic."""
    return _predicted_product(zeta(angles, kappa), tol)


def rotated_vw_state(angles) -> np.ndarray:
    """The 16 amplitudes of the two-singlet source after all four rotations."""
    return apply_all_rotations(make_vw_state(), angles)


def _ket(vectors: np.ndarray) -> np.ndarray:
    """The (a, d) amplitudes of a (4, 2, 2) stack of Bell vectors as a
    (4, 4) matrix: row 2*pol_a + pol_d, column the Bell vector."""
    return vectors.reshape(4, 4).T


def _outcome_probabilities(coeffs: np.ndarray) -> np.ndarray:
    """Bell/polarization probabilities from C (or a stack of them), shaped
    (..., bell, pol_a, pol_d) in OUTCOME_ORDER: row X of C expanded in the
    (a, d) Bell vectors, two nonzero terms per amplitude, summed in a fixed
    order by quantum._bell_sum."""
    return np.abs(_bell_sum(coeffs, _ket).reshape(coeffs.shape[:-1] + (2, 2))) ** 2


def joint_bell_probabilities(angles) -> np.ndarray:
    """4x4 joint outcome probabilities of the double Bell arrangement.

    Rows index the (b, c) outcome and columns the (a, d) outcome, both in
    BELL_ORDER.  Computed from the numerically decomposed state, not the
    closed form, so cross-sector entries vanish as a prediction rather
    than by construction.
    """
    return np.abs(_coefficients(_angle_row(angles)[None])[0]) ** 2


def bell_polarization_distribution(
    angles,
) -> dict[tuple[BellOutcome, Polarization, Polarization], float]:
    """Joint probabilities of the Bell/polarization arrangement (16 entries)."""
    probs = _outcome_probabilities(_coefficients(_angle_row(angles)[None]))
    return dict(zip(OUTCOME_ORDER, probs.ravel().tolist()))


def violating_outcomes(angles, tol: float = DEFAULT_ANGLE_TOL) -> np.ndarray:
    """Mask over OUTCOME_ORDER of the outcomes whose product a*F*d contradicts
    the certain value of their sector at this setting.  A generic sector
    claims no value, so none of its outcomes violate."""
    mask = np.zeros(len(OUTCOME_ORDER), dtype=bool)
    claims = _predicted_product(_zetas(_angle_row(angles)[None], _SECTORS)[:, 0], tol).tolist()
    for sector, claim in enumerate(claims):
        if claim:
            mask[_SUMMED_CELLS[sector, claim, _SUMS[1]]] = True
    return mask


#: Equal bins of [0, 1) in a sampler lookup: a power of two, so that
#: u * _BINS and b / _BINS are exact for every float u and bin b.
_BINS = 4096


def _cdf_lookup(cdf: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Guide table for inverse-CDF sampling over a non-decreasing CDF (Chen
    and Asau, 1974): the CDF; for each of the _BINS equal bins b of [0, 1),
    the count of CDF values <= b / _BINS, clamped to the last outcome; and
    for each bin, whether a CDF value lies strictly inside it."""
    edges = np.arange(_BINS + 1) / _BINS
    counts = np.searchsorted(cdf, edges[:-1], side="right")
    inside = np.searchsorted(cdf, edges[1:], side="left") > counts
    return (
        _read_only(cdf),
        _read_only(np.minimum(counts, len(cdf) - 1)),
        _read_only(inside),
    )


@lru_cache(maxsize=1)
def _outcome_lookup(
    angles: tuple[float, float, float, float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_cdf_lookup of the cumulative probabilities over OUTCOME_ORDER at a
    setting, given as a tuple of Python floats to be a cache key.  simulate
    samples one setting a chunk at a time, so the last setting's lookup is
    kept.  The cache is module state: in one process, later draws at the
    same setting reuse it too (a benchmark that repeats one setting skips
    its decomposition after the first command), while a one-command process
    builds it once either way.  Rounding can end the CDF a few ulps below 1,
    and a draw above its end would land on the last outcome even at
    probability 0, so the entries from min(end, 1) up are set to 1."""
    cdf = np.cumsum(_outcome_probabilities(_coefficients(np.array([angles]))))
    cdf[cdf >= min(cdf[-1], 1.0)] = 1.0
    return _cdf_lookup(cdf)


def _inverse_cdf(lookup: tuple[np.ndarray, np.ndarray, np.ndarray], u: np.ndarray) -> np.ndarray:
    """For each draw u in [0, 1), the count of CDF values <= u, clamped to
    the last outcome, from a _cdf_lookup.  A draw u in bin b = floor(u *
    _BINS) is at least the bin's left edge and below its right one, so if
    no CDF value lies inside the bin, exactly the values <= b / _BINS are
    <= u and the bin's count is the answer.  Only draws in the other bins,
    at most len(cdf) of them, are searched.  _BINS is a power of two, so
    u * _BINS and b / _BINS are exact and the result equals
    ``np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)`` for
    every u: a bin test only picks which of two exact computations runs."""
    cdf, counts, inside = lookup
    bins = (u * _BINS).astype(np.intp)
    draws = counts[bins]
    searched = np.flatnonzero(inside[bins])
    draws[searched] = np.minimum(np.searchsorted(cdf, u[searched], side="right"), len(cdf) - 1)
    return draws


def sample_events(angles, n: int, seed: int | np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. events from the Bell/polarization distribution.

    Each event is an index into OUTCOME_ORDER.  Sampling is inverse-CDF over
    that order with numpy's seeded generator, so a given (angles, n, seed)
    always yields the same array.  A Generator passed as ``seed`` is drawn
    from as it stands, so draws of n1 and then n2 events from one Generator
    concatenate to the draw of n1 + n2 events from its seed.  A draw reads
    the setting's lookup (_outcome_lookup): a binary search over the CDF
    gives the same events, but costs a search per event.
    """
    if n < 0:
        raise ValueError("event count must be >= 0")
    lookup = _outcome_lookup(tuple(_angle_row(angles).tolist()))
    return _inverse_cdf(lookup, np.random.default_rng(seed).random(n))


def perfect_correlation_report(angles, tol: float = DEFAULT_ANGLE_TOL) -> dict:
    """Check every certainty the state predicts at this setting.

    For each sector whose zeta classifies as zero-or-pi or half-pi the
    report verifies, from the Bell/polarization distribution, that the
    conditional product a*F*d equals the predicted sign up to a residual
    probability below CERTAINTY_TOL, and from the double Bell
    probabilities that the sector's exact Bell-to-Bell pairing holds.
    Generic sectors carry no claim.  The report is a JSON-ready dict:
    ``angles``, one dict per sector (kappa +1, then -1) and ``holds``, true
    unless some claimed certainty fails.
    """
    row = _angle_row(angles)
    return _correlation_report(row, _coefficients(row[None])[0], tol)


def _sector_arrays(rows: np.ndarray, coeffs: np.ndarray, tol: float) -> tuple:
    """Both sectors' values for a checked (N, 4) batch of settings and their
    (N, 4, 4) coefficients C, in one array pass: zeta, predicted product (0
    if generic, whose violations mean nothing), sector probability, product
    violation and pairing violation, each (N, 2) with columns kappa +1 and
    -1.  A sum reads the cells in a one-setting sum's order, so it does not
    depend on the batch."""
    zetas = _zetas(rows, _SECTORS).T
    predicted = _predicted_product(zetas, tol)
    outcomes = _outcome_probabilities(coeffs).reshape(-1, 16)
    probs = np.concatenate([outcomes, (np.abs(coeffs) ** 2).reshape(-1, 16)], axis=1)
    # row n, sector s reads the cells _SUMMED_CELLS[s, predicted[n, s]] of probs[n]
    picked = probs[np.arange(len(probs))[:, None, None], _SUMMED_CELLS[_SECTOR_ROWS, predicted]]
    return (zetas, predicted, *(picked[..., cells].sum(axis=2) for cells in _SUMS))


def _correlation_report(row: np.ndarray, coeffs: np.ndarray, tol: float) -> dict:
    """perfect_correlation_report from a checked (4,) row and its numeric
    coefficients C: the one-setting case of _sector_arrays."""
    values = _sector_arrays(row[None], coeffs[None], tol)
    sectors = []
    for kappa, zeta_value, claim, probability, violation, pairing_violation in zip(
        _SECTORS, *(array[0].tolist() for array in values)
    ):
        if claim:
            pairing = {bc.value: ad.value for bc, ad in _PAIRING[kappa, claim].items()}
        else:  # a generic sector claims nothing
            violation = pairing_violation = pairing = None
        sectors.append(
            {
                "kappa": kappa,
                "zeta": zeta_value,
                "phase_class": _CLASS_NAME[claim],
                "predicted_product": claim or None,
                "sector_probability": probability,
                "violation_probability": violation,
                "product_certain": None if violation is None else violation < CERTAINTY_TOL,
                "bell_pairing": pairing,
                "pairing_violation_probability": pairing_violation,
                "pairing_certain": None if violation is None else pairing_violation < CERTAINTY_TOL,
            }
        )
    # generic sectors' None claims neither holds nor fails
    claims = [sector[key] for sector in sectors for key in ("product_certain", "pairing_certain")]
    return {"angles": row.tolist(), "sectors": sectors, "holds": False not in claims}
