"""Exact invariances of the two-singlet source, checked on the kernel.

Swapping phi3 and phi4 swaps the two parity sectors: zeta_+1 of the swapped
setting is zeta_-1 of the setting and back, so each per-sector value that
correlations._sector_arrays gives trades columns.

Each singlet is invariant under equal rotations of its two photons, so
settings moved by (t, t, s, s) have the same coefficients C and the same
sector phases: every value of _sector_arrays and the violating_outcomes mask
stay as they are, up to the rounding of the shifted angles.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bellswap.correlations import _sector_arrays, violating_outcomes
from bellswap.quantum import _zetas, bell_bell_coefficients
from bellswap.verification import _FAMILIES


def swap_settings() -> np.ndarray:
    """1000 seeded random settings, then 200 of each special family."""
    rng = np.random.default_rng(12)
    random = rng.uniform(-2 * math.pi, 2 * math.pi, size=(1000, 4))
    pairs = rng.uniform(0.0, 2 * math.pi, size=(len(_FAMILIES), 200, 2)).tolist()
    families = [build(*pair) for (_, build), row in zip(_FAMILIES, pairs) for pair in row]
    return np.concatenate([random, families])


@pytest.mark.parametrize("tol", [1e-9, 1e-3, 0.3])
def test_swapping_phi3_and_phi4_swaps_the_sectors(tol):
    settings = swap_settings()
    swapped = settings[:, [0, 1, 3, 2]]
    zetas, predicted, *probabilities = _sector_arrays(
        settings, bell_bell_coefficients(settings), tol
    )
    swapped_zetas, swapped_predicted, *swapped_probabilities = _sector_arrays(
        swapped, bell_bell_coefficients(swapped), tol
    )
    assert {-1, 0, +1} <= set(predicted.ravel().tolist())
    assert np.array_equal(swapped_zetas, zetas[:, ::-1])
    assert np.array_equal(swapped_predicted, predicted[:, ::-1])
    # sector, product violation and pairing violation probabilities
    for swapped_values, values in zip(swapped_probabilities, probabilities, strict=True):
        assert np.max(np.abs(swapped_values - values[:, ::-1])) <= 1e-15


#: Rounding the shifted angles (|t|, |s| <= 7) moves a sector phase by a few
#: 1e-15, which may rightly move a phase this close to a window's edge across
#: it; such draws are skipped.
EDGE_MARGIN = 1e-12

ANGLES = st.floats(-2 * math.pi, 2 * math.pi)
SHIFTS = st.floats(-7.0, 7.0)
TOLS = st.sampled_from([1e-9, 1e-3, 0.3])


@st.composite
def shift_settings(draw) -> np.ndarray:
    """1 to 8 settings, each random or one of the special families."""
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            rows.append([draw(ANGLES) for _ in range(4)])
        else:
            _, build = draw(st.sampled_from(_FAMILIES))
            rows.append(build(draw(ANGLES), draw(ANGLES)))
    return np.array(rows)


def near_an_edge(zetas: np.ndarray, tol: float) -> bool:
    """Whether a sector phase sits within EDGE_MARGIN of an edge of the
    zero-or-pi or half-pi window."""
    residue = zetas % math.pi
    edges = (residue - tol, math.pi - residue - tol, abs(residue - math.pi / 2) - tol)
    return bool(np.any(np.abs(edges) < EDGE_MARGIN))


def sector_values(rows: np.ndarray, tol: float) -> tuple:
    return _sector_arrays(rows, bell_bell_coefficients(rows), tol)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=shift_settings(), tol=TOLS)
def test_swap_of_any_draw_swaps_the_sectors(rows, tol):
    # negating phi3 - phi4 is exact, so no draw needs the edge skip
    zetas, predicted, *probabilities = sector_values(rows, tol)
    swapped_zetas, swapped_predicted, *swapped_probabilities = sector_values(
        rows[:, [0, 1, 3, 2]], tol
    )
    assert np.array_equal(swapped_zetas, zetas[:, ::-1])
    assert np.array_equal(swapped_predicted, predicted[:, ::-1])
    for swapped_values, values in zip(swapped_probabilities, probabilities, strict=True):
        assert np.max(np.abs(swapped_values - values[:, ::-1])) <= 1e-15


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=shift_settings(), t=SHIFTS, s=SHIFTS, tol=TOLS)
def test_pairwise_shift_keeps_the_sector_values(rows, t, s, tol):
    shifted = rows + [t, t, s, s]
    zetas, predicted, *probabilities = sector_values(rows, tol)
    shifted_zetas, shifted_predicted, *shifted_probabilities = sector_values(shifted, tol)
    assume(not near_an_edge(zetas, tol) and not near_an_edge(shifted_zetas, tol))
    assert np.max(np.abs(shifted_zetas - zetas)) <= 1e-13
    assert np.array_equal(shifted_predicted, predicted)
    # sector, product violation and pairing violation probabilities
    for shifted_values, values in zip(shifted_probabilities, probabilities, strict=True):
        assert np.max(np.abs(shifted_values - values)) <= 1e-14


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=shift_settings(), t=SHIFTS, s=SHIFTS, tol=TOLS)
def test_pairwise_shift_keeps_the_violating_outcomes(rows, t, s, tol):
    shifted = rows + [t, t, s, s]
    assume(not near_an_edge(_zetas(rows, (+1, -1)), tol))
    assume(not near_an_edge(_zetas(shifted, (+1, -1)), tol))
    for row, shifted_row in zip(rows, shifted):
        assert np.array_equal(violating_outcomes(shifted_row, tol), violating_outcomes(row, tol))


def test_crossed_shift_is_no_symmetry():
    # the control: moving (t, s, t, s) rotates the photons of each singlet
    # apart, so the same comparisons see the change
    rows = np.array([build(0.4, 1.3) for _, build in _FAMILIES])
    zetas, predicted, *probabilities = sector_values(rows, 1e-9)
    crossed = sector_values(rows + [0.7, 1.9, 0.7, 1.9], 1e-9)
    assert not np.array_equal(crossed[1], predicted)
    assert max(np.max(np.abs(a - b)) for a, b in zip(crossed[2:], probabilities)) > 0.1
