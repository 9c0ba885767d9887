"""Exact statevector machinery for four polarization-encoded photons.

Conventions
-----------
- Photons are labelled a, b, c, d. A pure state is a (16,) numpy array of
  amplitudes over the product basis |p_a p_b p_c p_d> with H = 0, V = 1 and
  flat index ``8*a + 4*b + 2*c + d``.
- The two-singlet source state, every rotation matrix, the Bell vectors of
  BELL_VECTORS and the double Bell coefficients C are real float64 arrays.
  Both changes of basis (onto the double Bell basis, and of a row of C
  onto the (a, d) polarizations) go through one kernel, _bell_sum: each
  output is the sum of its nonzero terms in increasing column order,
  started from +0.0, the order of a dense einsum over the whole matrix,
  so the coefficients that decompose, verify-qm and simulate print keep
  their last bits.  A complex state or vector a caller passes runs
  through the same sums in complex arithmetic.
- The two-photon Bell basis is
      phi+ = (HH + VV)/sqrt(2),   phi- = (HH - VV)/sqrt(2),
      psi+ = (HV + VH)/sqrt(2),   psi- = (HV - VH)/sqrt(2),
  with the first listed photon of a pair as slot 1.  The double Bell
  decomposition pairs (b, c) against (a, d).
- A polarization rotation acts as R(phi)|H> = cos(phi)|H> + sin(phi)|V> and
  R(phi)|V> = cos(phi)|V> - sin(phi)|H>.
- Everything is phase-deterministic: states and coefficient matrices are
  compared amplitude-wise, never "up to a global phase".

A setting is a row of four rotation angles (phi1, phi2, phi3, phi4), in
radians, applied to photons a..d; angles are carried raw, never normalized.
A batch of settings is an (N, 4) array-like, checked by _angle_rows, and one
setting a (4,) one, checked by _angle_row: any other shape, a dtype other
than integer or float, or an angle that is not finite is rejected.  The
private kernels take arrays their callers checked.  The sector phases
zeta_kappa = (phi1 - phi2) + kappa * (phi3 - phi4) of a batch are computed
in one place, _zetas.

The double Bell coefficients of a setting form a (4, 4) array C: rows index
the Bell outcome of the (b, c) pair, columns that of the (a, d) pair, both
in BELL_ORDER.  bell_bell_coefficients (numeric, brute force) and
bell_bell_coefficients_closed_form map an (N, 4) array of settings to the
(N, 4, 4) stack of them.

All functions are pure; the arrays they return for one setting are
read-only.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from enum import Enum
from functools import lru_cache

import numpy as np

__all__ = [
    "Polarization",
    "BellOutcome",
    "BELL_ORDER",
    "BELL_VECTORS",
    "make_vw_state",
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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _bell_vector(hh: int, hv: int, vh: int, vv: int) -> np.ndarray:
    return _read_only(np.array([[hh, hv], [vh, vv]]) / math.sqrt(2.0))


#: Two-photon Bell vectors as (2, 2) arrays indexed (p1, p2).
BELL_VECTORS: dict[BellOutcome, np.ndarray] = {
    BellOutcome.PHI_PLUS: _bell_vector(1, 0, 0, 1),
    BellOutcome.PHI_MINUS: _bell_vector(1, 0, 0, -1),
    BellOutcome.PSI_PLUS: _bell_vector(0, 1, 1, 0),
    BellOutcome.PSI_MINUS: _bell_vector(0, 1, -1, 0),
}


def _angle_rows(angles) -> np.ndarray:
    """The settings of a batch as an (N, 4) float array of finite angles; an
    empty sequence is the empty batch.  Only integer and float dtypes are
    angles, so a string fails but a bool among numbers reads as an int."""
    if (rows := np.asarray(angles)).dtype.kind not in "iuf":
        raise ValueError(f"angles must be real numbers, got dtype {rows.dtype}")
    rows = rows.astype(float, copy=False)
    if rows.shape == (0,):
        rows = rows.reshape(0, 4)
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise ValueError(f"angles must have shape (N, 4), got {rows.shape}")
    finite = np.isfinite(rows)
    if not finite.all():
        row, col = np.argwhere(~finite)[0].tolist()
        raise ValueError(f"phi{col + 1} must be a finite real, got {rows[row, col].item()!r}")
    return rows


def _angle_row(angles) -> np.ndarray:
    """One setting as a (4,) float array, checked as _angle_rows checks one."""
    if (row := np.asarray(angles)).shape != (4,):
        raise ValueError(f"angles must have shape (4,), got {row.shape}")
    return _angle_rows(row[None])[0]


def _zetas(rows: np.ndarray, kappas) -> np.ndarray:
    """Sector phases (phi1 - phi2) + kappa * (phi3 - phi4) of each row of an
    (N, 4) angle array, one contiguous row per kappa: (len(kappas), N).
    Multiplying by kappa = +-1 is exact, so the -1 row is
    (phi1 - phi2) - (phi3 - phi4) to the last bit."""
    left, right = (rows[:, ::2] - rows[:, 1::2]).T
    return left + right * np.asarray(kappas, dtype=float)[:, None]


def compute_phases(angles) -> tuple[float, float]:
    """(xi, eta) = ((phi1 - phi2) + (phi3 - phi4), (phi1 - phi2) - (phi3 - phi4))
    of one setting, the phases that govern the swapped correlations; exact,
    no wrapping."""
    return tuple(_zetas(_angle_row(angles)[None], (+1, -1))[:, 0].tolist())


_SINGLET = np.array([0, 1, -1, 0])  # over (HH, HV, VH, VV)
_VW_STATE = _read_only((np.outer(_SINGLET, _SINGLET) / 2).reshape(16))


def make_vw_state() -> np.ndarray:
    """Product of two singlets, (H_a V_b - V_a H_b)(H_c V_d - V_c H_d) / 2:
    16 read-only real float64 amplitudes, exactly +-0.5 where nonzero, so the
    rotations applied to it run in real arithmetic.  Every call returns the
    same array, built once when the module loads."""
    return _VW_STATE


def _rotate_all(amplitudes: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The 16 amplitudes rotated by every setting of a checked (N, 4) batch:
    (N, 16).

    The state is a 4x4 matrix over (ab, cd), so the rotation of a and b acts
    from the left as the Kronecker product R(phi1) x R(phi2), and that of c
    and d from the right as R(phi3) x R(phi4), transposed.
    """
    cos, sin = np.cos(rows), np.sin(rows)
    rot = np.stack([cos, -sin, sin, cos], axis=-1).reshape(-1, 4, 2, 2)
    left = np.einsum("nai,nbj->nabij", rot[:, 0], rot[:, 1]).reshape(-1, 4, 4)
    right = np.einsum("nck,ndl->nklcd", rot[:, 2], rot[:, 3]).reshape(-1, 4, 4)
    return (left @ np.reshape(amplitudes, (4, 4)) @ right).reshape(-1, 16)


def _projector(vectors: np.ndarray) -> np.ndarray:
    """The (16, 16) basis change onto every |X_bc> x |Y_ad> of a (4, 2, 2)
    stack of Bell vectors: row 4*X + Y, column the flat product index."""
    bra = vectors.conj()
    return np.einsum("xbc,yad->xyabcd", bra, bra).reshape(16, 16)


@lru_cache(maxsize=8)
def _terms(
    matrix_of: Callable[[np.ndarray], np.ndarray], dtype: str, shape: tuple, raw: bytes
) -> tuple:
    """The terms of matrix_of(vectors), the vectors given by their bytes, as
    (columns, weights) pairs of (rows,) arrays: pair t holds each row's t-th
    nonzero entry in increasing column order, and rows with fewer nonzero
    entries (at least one pair, so a sum is always an array) are padded with
    their zero ones."""
    matrix = matrix_of(np.frombuffer(raw, dtype).reshape(shape))
    width = (matrix != 0).sum(axis=1).max(initial=1)
    # a stable sort puts each row's nonzero columns first, in increasing order
    columns = np.argsort(matrix == 0, axis=1, kind="stable")[:, :width]
    weights = np.take_along_axis(matrix, columns, axis=1)
    return tuple(zip(_read_only(columns.T.copy()), _read_only(weights.T.copy())))


def _bell_sum(values: np.ndarray, matrix_of: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """values (..., K) times matrix_of(vectors).T, vectors the (4, 2, 2)
    stack of BELL_VECTORS in BELL_ORDER: (..., J), C-contiguous.

    BELL_VECTORS is read on every call; the terms of the matrix are kept by
    the vectors' bytes.  Each output is the sum of its row's nonzero terms
    in increasing column order, started from +0.0, one (..., J) step per
    term: the order, and so the bits, of an einsum over the dense matrix,
    whose zero terms change no sum that starts from +0.0.  Real values and
    weights stay real.
    """
    vectors = np.array([BELL_VECTORS[bell] for bell in BELL_ORDER])
    out = 0.0
    for column, weight in _terms(matrix_of, vectors.dtype.str, vectors.shape, vectors.tobytes()):
        out = out + values[..., column] * weight
    # the gathers put the output axis outermost in memory; a strided C would
    # change the order, and so the bits, of sums over its cells
    return np.ascontiguousarray(out)


def _project(amplitudes: np.ndarray) -> np.ndarray:
    """Brute-force basis change of (N, 16) amplitudes onto every
    |X_bc> x |Y_ad>: the (N, 4, 4) double Bell coefficients, real when the
    amplitudes and BELL_VECTORS are.

    The projector follows BELL_VECTORS as they are at the call, so this
    stays independent of the closed form even when the vectors are
    replaced.  Its rows have four nonzero entries each, summed by _bell_sum
    in a fixed order, so a setting's coefficients do not depend on its
    batch.
    """
    return _bell_sum(amplitudes, _projector).reshape(-1, 4, 4)


def bell_bell_coefficients(angles) -> np.ndarray:
    """Numeric double Bell coefficients of the rotated two-singlet state for
    an (N, 4) batch of settings: (N, 4, 4), rows (b, c), columns (a, d).

    Builds the N rotations, applies them to the two-singlet amplitudes and
    projects onto the Bell vectors; nothing is taken from the closed form.
    """
    return _coefficients(_angle_rows(angles))


def _coefficients(rows: np.ndarray) -> np.ndarray:
    """bell_bell_coefficients of a checked (N, 4) float array."""
    return _project(_rotate_all(make_vw_state(), rows))


def bell_bell_coefficients_closed_form(angles) -> np.ndarray:
    """Closed form of bell_bell_coefficients for an (N, 4) batch of settings.

    Only eight entries are nonzero: the kappa = +1 block {phi+, psi-} is
    governed by xi, the kappa = -1 block {phi-, psi+} by eta, each a 2x2
    rotation-like pattern times 1/2.
    """
    return _closed_form(_angle_rows(angles))


def _closed_form(rows: np.ndarray) -> np.ndarray:
    """bell_bell_coefficients_closed_form of a checked (N, 4) float array."""
    xi, eta = _zetas(rows, (+1, -1))
    cos_xi, sin_xi = np.cos(xi) / 2, np.sin(xi) / 2
    cos_eta, sin_eta = np.cos(eta) / 2, np.sin(eta) / 2
    pp, pm, sp, sm = (BELL_INDEX[bell] for bell in BELL_ORDER)
    coeffs = np.zeros((len(xi), 4, 4))
    coeffs[:, pp, pp] = -cos_xi
    coeffs[:, pp, sm] = +sin_xi
    coeffs[:, sm, sm] = -cos_xi
    coeffs[:, sm, pp] = -sin_xi
    coeffs[:, pm, pm] = +cos_eta
    coeffs[:, pm, sp] = +sin_eta
    coeffs[:, sp, sp] = +cos_eta
    coeffs[:, sp, pm] = -sin_eta
    return coeffs


def rotate_photon(state: np.ndarray, photon: int, phi: float) -> np.ndarray:
    """16 amplitudes with one photon rotated by phi; norm-preserving."""
    if photon not in (0, 1, 2, 3):
        raise IndexError(f"photon index must be 0..3, got {photon}")
    # phi is checked alone: among float zeros numpy would read a bool as 1.0
    row = np.zeros((1, 4))
    row[0, photon] = _angle_row([phi] * 4)[0]
    return _read_only(_rotate_all(state, row)[0])


def apply_all_rotations(state: np.ndarray, angles) -> np.ndarray:
    """16 amplitudes with a rotated by phi1, b by phi2, c by phi3, d by phi4.

    The four rotations act on disjoint factors, so the application order
    is irrelevant.
    """
    return _read_only(_rotate_all(state, _angle_row(angles)[None])[0])


def bell_bell_amplitudes_numeric(state: np.ndarray) -> np.ndarray:
    """Brute-force basis change of 16 amplitudes: the (4, 4) coefficients on
    every |X_bc> x |Y_ad>."""
    return _read_only(_project(np.reshape(state, (1, 16)))[0])


def bell_bell_amplitudes_closed_form(angles) -> np.ndarray:
    """Closed form of the rotated two-singlet state's (4, 4) coefficients at
    one setting."""
    return _read_only(_closed_form(_angle_row(angles)[None])[0])
