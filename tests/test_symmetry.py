"""Exact invariances of the two-singlet source, checked on the kernel.

Swapping phi3 and phi4 swaps the two parity sectors: zeta_+1 of the swapped
setting is zeta_-1 of the setting and back, so each per-sector value that
correlations._sector_arrays gives trades columns.  (The shift relation,
settings moved by (t, t, s, s), is test_quantum's
test_pairwise_shift_invariance.)
"""

import math

import numpy as np
import pytest

from bellswap.correlations import _sector_arrays
from bellswap.quantum import bell_bell_coefficients
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
