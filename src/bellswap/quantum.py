"""Exact statevector machinery for four polarization-encoded photons.

Conventions
-----------
- Photons are labelled a, b, c, d. A pure state is a vector of 16 complex
  amplitudes over the product basis |p_a p_b p_c p_d> with H = 0, V = 1 and
  flat index ``8*a + 4*b + 2*c + d``.
- The two-photon Bell basis is
      phi+ = (HH + VV)/sqrt(2),   phi- = (HH - VV)/sqrt(2),
      psi+ = (HV + VH)/sqrt(2),   psi- = (HV - VH)/sqrt(2),
  with the first listed photon of a pair as slot 1.  The double Bell
  decomposition pairs (b, c) against (a, d).
- A polarization rotation acts as R(phi)|H> = cos(phi)|H> + sin(phi)|V> and
  R(phi)|V> = cos(phi)|V> - sin(phi)|H>.
- Everything is phase-deterministic: states and coefficient matrices are
  compared amplitude-wise, never "up to a global phase".

The double Bell decomposition is batched: bell_bell_coefficients (numeric,
brute force) and bell_bell_coefficients_closed_form map an (N, 4) array of
settings to (N, 4, 4) coefficients, and the one-setting functions
(apply_all_rotations, bell_bell_amplitudes_numeric and _closed_form) are
their N = 1 case, giving the same floats as a row of any batch.

All functions are pure; states are immutable once built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Polarization",
    "BellOutcome",
    "BELL_ORDER",
    "BELL_VECTORS",
    "AngleSettings",
    "CorrelationPhase",
    "FourPhotonState",
    "BellBellAmplitudes",
    "basis_index",
    "make_vw_state",
    "rotation_matrix",
    "rotate_photon",
    "apply_all_rotations",
    "compute_phases",
    "bell_bell_amplitudes_numeric",
    "bell_bell_amplitudes_closed_form",
    "bell_bell_coefficients",
    "bell_bell_coefficients_closed_form",
]


class Polarization(Enum):
    """Linear polarization of a single photon; H codes +1, V codes -1."""

    H = "H"
    V = "V"

    @property
    def index(self) -> int:
        return 0 if self is Polarization.H else 1

    @property
    def sign(self) -> int:
        """Numeric outcome coding used by the correlation products."""
        return +1 if self is Polarization.H else -1


class BellOutcome(Enum):
    """The four maximally entangled two-photon states."""

    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"


#: Fixed row/column order of every 4x4 Bell-indexed matrix in this package.
BELL_ORDER: tuple[BellOutcome, ...] = (
    BellOutcome.PHI_PLUS,
    BellOutcome.PHI_MINUS,
    BellOutcome.PSI_PLUS,
    BellOutcome.PSI_MINUS,
)

BELL_INDEX: dict[BellOutcome, int] = {b: i for i, b in enumerate(BELL_ORDER)}


def _bell_vector(hh: complex, hv: complex, vh: complex, vv: complex) -> np.ndarray:
    vec = np.array([[hh, hv], [vh, vv]], dtype=complex) / math.sqrt(2.0)
    vec.flags.writeable = False
    return vec


#: Two-photon Bell vectors as (2, 2) arrays indexed (p1, p2).
BELL_VECTORS: dict[BellOutcome, np.ndarray] = {
    BellOutcome.PHI_PLUS: _bell_vector(1, 0, 0, 1),
    BellOutcome.PHI_MINUS: _bell_vector(1, 0, 0, -1),
    BellOutcome.PSI_PLUS: _bell_vector(0, 1, 1, 0),
    BellOutcome.PSI_MINUS: _bell_vector(0, 1, -1, 0),
}


def basis_index(a: int, b: int, c: int, d: int) -> int:
    """Flat index of the product basis state |p_a p_b p_c p_d>, H=0 / V=1."""
    return 8 * a + 4 * b + 2 * c + d


@dataclass(frozen=True)
class AngleSettings:
    """Polarization rotation angles, in radians, applied to photons a..d.

    Angles are carried raw; periodicity is handled where it matters
    (phase classification), never by normalizing here.
    """

    phi1: float
    phi2: float
    phi3: float
    phi4: float

    def __post_init__(self) -> None:
        for name in ("phi1", "phi2", "phi3", "phi4"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite real, got {value!r}")
            object.__setattr__(self, name, value)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.phi1, self.phi2, self.phi3, self.phi4)

    @classmethod
    def from_iterable(cls, angles) -> "AngleSettings":
        p1, p2, p3, p4 = (float(x) for x in angles)
        return cls(p1, p2, p3, p4)


@dataclass(frozen=True)
class CorrelationPhase:
    """The two angle combinations that govern the swapped correlations:
    xi = (phi1 - phi2) + (phi3 - phi4), eta = (phi1 - phi2) - (phi3 - phi4)."""

    xi: float
    eta: float


def compute_phases(angles: AngleSettings) -> CorrelationPhase:
    """Exact arithmetic; no wrapping applied."""
    left = angles.phi1 - angles.phi2
    right = angles.phi3 - angles.phi4
    return CorrelationPhase(xi=left + right, eta=left - right)


@dataclass(frozen=True)
class FourPhotonState:
    """16 complex amplitudes over the a,b,c,d product basis."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(16).copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def amplitude(self, a: int, b: int, c: int, d: int) -> complex:
        return complex(self.amplitudes[basis_index(a, b, c, d)])

    def as_tensor(self) -> np.ndarray:
        """View shaped (2, 2, 2, 2), axes = photons a, b, c, d."""
        return self.amplitudes.reshape(2, 2, 2, 2)


def make_vw_state() -> FourPhotonState:
    """Product of two singlets: (H_a V_b - V_a H_b)(H_c V_d - V_c H_d) / 2."""
    amps = np.zeros(16, dtype=complex)
    amps[basis_index(0, 1, 0, 1)] = 0.5
    amps[basis_index(0, 1, 1, 0)] = -0.5
    amps[basis_index(1, 0, 0, 1)] = -0.5
    amps[basis_index(1, 0, 1, 0)] = 0.5
    return FourPhotonState(amps)


def rotation_matrix(phi: float) -> np.ndarray:
    """2x2 polarization rotation in the (H, V) basis."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rotate_photon(state: FourPhotonState, photon: int, phi: float) -> FourPhotonState:
    """Rotate one tensor factor; norm-preserving."""
    if photon not in (0, 1, 2, 3):
        raise IndexError(f"photon index must be 0..3, got {photon}")
    rotated = np.tensordot(rotation_matrix(phi), state.as_tensor(), axes=([1], [photon]))
    rotated = np.moveaxis(rotated, 0, photon)
    return FourPhotonState(rotated.reshape(16))


def _angle_rows(angles) -> np.ndarray:
    """The settings of a batch as an (N, 4) float array."""
    rows = np.asarray(angles, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise ValueError(f"angles must have shape (N, 4), got {rows.shape}")
    return rows


def _rotate_all(amplitudes: np.ndarray, angles) -> np.ndarray:
    """The 16 amplitudes rotated by every setting of an (N, 4) batch: (N, 16).

    The state is a 4x4 matrix over (ab, cd), so the rotation of a and b acts
    from the left as the Kronecker product R(phi1) x R(phi2), and that of c
    and d from the right as R(phi3) x R(phi4), transposed.
    """
    rows = _angle_rows(angles)
    cos, sin = np.cos(rows), np.sin(rows)
    rot = np.stack([cos, -sin, sin, cos], axis=-1).reshape(-1, 4, 2, 2)
    left = np.einsum("nai,nbj->nabij", rot[:, 0], rot[:, 1]).reshape(-1, 4, 4)
    right = np.einsum("nck,ndl->nklcd", rot[:, 2], rot[:, 3]).reshape(-1, 4, 4)
    return (left @ amplitudes.reshape(4, 4) @ right).reshape(-1, 16)


def _project(amplitudes: np.ndarray) -> np.ndarray:
    """Brute-force basis change of (N, 16) amplitudes onto every
    |X_bc> x |Y_ad>: the (N, 4, 4) double Bell coefficients.

    BELL_VECTORS is read on every call, so this stays independent of the
    closed form even when the vectors are replaced.
    """
    bra = np.stack([BELL_VECTORS[bell] for bell in BELL_ORDER]).conj()
    projector = np.einsum("xbc,yad->xyabcd", bra, bra).reshape(16, 16)
    # einsum, not matmul: BLAS sums a lone row in another order than a block
    # of rows, and a setting's coefficients must not depend on its batch.
    return np.einsum("nk,jk->nj", amplitudes, projector).reshape(-1, 4, 4)


def bell_bell_coefficients(angles) -> np.ndarray:
    """Numeric double Bell coefficients of the rotated two-singlet state for
    an (N, 4) batch of settings: (N, 4, 4), rows (b, c), columns (a, d).

    Builds the N rotations, applies them to the two-singlet amplitudes and
    projects onto the Bell vectors; nothing is taken from the closed form.
    """
    return _project(_rotate_all(make_vw_state().amplitudes, angles))


def bell_bell_coefficients_closed_form(angles) -> np.ndarray:
    """Closed form of bell_bell_coefficients for an (N, 4) batch of settings.

    Only eight entries are nonzero: the kappa = +1 block {phi+, psi-} is
    governed by xi, the kappa = -1 block {phi-, psi+} by eta, each a 2x2
    rotation-like pattern times 1/2.
    """
    rows = _angle_rows(angles)
    left = rows[:, 0] - rows[:, 1]
    right = rows[:, 2] - rows[:, 3]
    cos_xi, sin_xi = np.cos(left + right) / 2, np.sin(left + right) / 2
    cos_eta, sin_eta = np.cos(left - right) / 2, np.sin(left - right) / 2
    pp, pm, sp, sm = (BELL_INDEX[bell] for bell in BELL_ORDER)
    coeffs = np.zeros((len(rows), 4, 4))
    coeffs[:, pp, pp] = -cos_xi
    coeffs[:, pp, sm] = +sin_xi
    coeffs[:, sm, sm] = -cos_xi
    coeffs[:, sm, pp] = -sin_xi
    coeffs[:, pm, pm] = +cos_eta
    coeffs[:, pm, sp] = +sin_eta
    coeffs[:, sp, sp] = +cos_eta
    coeffs[:, sp, pm] = -sin_eta
    return coeffs


def apply_all_rotations(state: FourPhotonState, angles: AngleSettings) -> FourPhotonState:
    """Rotate a by phi1, b by phi2, c by phi3, d by phi4.

    The four rotations act on disjoint factors, so the application order
    is irrelevant.
    """
    return FourPhotonState(_rotate_all(state.amplitudes, [angles.as_tuple()])[0])


@dataclass(frozen=True)
class BellBellAmplitudes:
    """Coefficients of a state in the double Bell basis.

    rows = Bell outcome of the (b, c) pair, columns = Bell outcome of the
    (a, d) pair, both in BELL_ORDER.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.coeffs, dtype=complex).reshape(4, 4).copy()
        mat.flags.writeable = False
        object.__setattr__(self, "coeffs", mat)

    def coeff(self, bc: BellOutcome, ad: BellOutcome) -> complex:
        return complex(self.coeffs[BELL_INDEX[bc], BELL_INDEX[ad]])

    def probabilities(self) -> np.ndarray:
        return np.abs(self.coeffs) ** 2

    def total_weight(self) -> float:
        """Sum of squared magnitudes; 1 for a normalized state."""
        return float(np.sum(np.abs(self.coeffs) ** 2))


def bell_bell_amplitudes_numeric(state: FourPhotonState) -> BellBellAmplitudes:
    """Brute-force basis change: project onto every |X_bc> x |Y_ad>."""
    return BellBellAmplitudes(_project(state.amplitudes[np.newaxis])[0])


def bell_bell_amplitudes_closed_form(angles: AngleSettings) -> BellBellAmplitudes:
    """Closed form of the rotated two-singlet state in the double Bell basis."""
    return BellBellAmplitudes(bell_bell_coefficients_closed_form([angles.as_tuple()])[0])
