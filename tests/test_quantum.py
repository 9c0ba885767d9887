import math

import numpy as np
import pytest
from reference_qm import reference_coefficients

from bellswap.quantum import (
    BELL_ORDER,
    AngleSettings,
    BellOutcome,
    FourPhotonState,
    apply_all_rotations,
    basis_index,
    bell_bell_amplitudes_closed_form,
    bell_bell_amplitudes_numeric,
    bell_bell_coefficients,
    bell_bell_coefficients_closed_form,
    compute_phases,
    make_vw_state,
    rotate_photon,
    rotation_matrix,
)
from bellswap.verification import _FAMILIES

PI = math.pi


def random_state(rng) -> FourPhotonState:
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    return FourPhotonState(amps / np.linalg.norm(amps))


class TestVwState:
    def test_expanded_amplitudes(self):
        state = make_vw_state()
        assert state.amplitude(0, 1, 0, 1) == pytest.approx(0.5)
        assert state.amplitude(0, 1, 1, 0) == pytest.approx(-0.5)
        assert state.amplitude(1, 0, 0, 1) == pytest.approx(-0.5)
        assert state.amplitude(1, 0, 1, 0) == pytest.approx(0.5)

    def test_absent_terms_vanish(self):
        state = make_vw_state()
        assert state.amplitude(0, 0, 0, 0) == 0
        present = {
            basis_index(0, 1, 0, 1),
            basis_index(0, 1, 1, 0),
            basis_index(1, 0, 0, 1),
            basis_index(1, 0, 1, 0),
        }
        for i in range(16):
            if i not in present:
                assert state.amplitudes[i] == 0

    def test_normalized(self):
        assert make_vw_state().norm() == pytest.approx(1.0, abs=1e-12)

    def test_amplitudes_immutable(self):
        state = make_vw_state()
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0


class TestRotation:
    def test_zero_angle_is_identity(self):
        state = make_vw_state()
        rotated = rotate_photon(state, 2, 0.0)
        np.testing.assert_array_equal(rotated.amplitudes, state.amplitudes)

    def test_quarter_turn_sends_h_to_v(self):
        r = rotation_matrix(PI / 2)
        h, v = np.array([1, 0]), np.array([0, 1])
        np.testing.assert_allclose(r @ h, v, atol=1e-15)
        np.testing.assert_allclose(r @ v, -h, atol=1e-15)

    def test_quarter_turn_on_state(self):
        # photon b in H everywhere it appears: use |H H H H>
        amps = np.zeros(16)
        amps[basis_index(0, 0, 0, 0)] = 1.0
        rotated = rotate_photon(FourPhotonState(amps), 1, PI / 2)
        assert rotated.amplitude(0, 1, 0, 0) == pytest.approx(1.0)
        assert abs(rotated.amplitude(0, 0, 0, 0)) < 1e-15

    def test_norm_preserved_on_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            state = random_state(rng)
            photon = int(rng.integers(4))
            phi = float(rng.uniform(-10, 10))
            assert rotate_photon(state, photon, phi).norm() == pytest.approx(
                state.norm(), abs=1e-12
            )

    def test_bad_photon_index(self):
        with pytest.raises(IndexError):
            rotate_photon(make_vw_state(), 4, 0.1)


class TestApplyAllRotations:
    def test_zeros_leave_state_unchanged(self):
        state = make_vw_state()
        out = apply_all_rotations(state, AngleSettings(0, 0, 0, 0))
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_order_independent(self):
        rng = np.random.default_rng(3)
        angles = AngleSettings(*rng.uniform(-5, 5, size=4))
        state = make_vw_state()
        forward = apply_all_rotations(state, angles)
        backward = state
        for photon, phi in reversed(list(enumerate(angles.as_tuple()))):
            backward = rotate_photon(backward, photon, phi)
        assert np.max(np.abs(forward.amplitudes - backward.amplitudes)) < 1e-14

    def test_pairwise_shift_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            base = AngleSettings(*rng.uniform(0, 2 * PI, size=4))
            delta, delta2 = rng.uniform(-PI, PI, size=2)
            shifted = AngleSettings(
                base.phi1 + delta, base.phi2 + delta, base.phi3 + delta2, base.phi4 + delta2
            )
            a = bell_bell_amplitudes_numeric(apply_all_rotations(make_vw_state(), base))
            b = bell_bell_amplitudes_numeric(apply_all_rotations(make_vw_state(), shifted))
            assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12


class TestPhases:
    def test_quarter_wave_plates(self):
        phases = compute_phases(AngleSettings(0, PI / 4, 0, PI / 4))
        assert phases.xi == pytest.approx(-PI / 2)
        assert phases.eta == pytest.approx(0.0)

    def test_zeros(self):
        phases = compute_phases(AngleSettings(0, 0, 0, 0))
        assert phases.xi == 0.0
        assert phases.eta == 0.0

    def test_equal_pairs_cancel_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a, b = rng.uniform(-10, 10, size=2)
            phases = compute_phases(AngleSettings(a, a, b, b))
            assert phases.xi == 0.0
            assert phases.eta == 0.0

    def test_angles_must_be_finite(self):
        with pytest.raises(ValueError):
            AngleSettings(0.0, math.nan, 0.0, 0.0)
        with pytest.raises(ValueError):
            AngleSettings(math.inf, 0.0, 0.0, 0.0)


class TestDoubleBellDecomposition:
    def test_zero_angles_numeric(self):
        coeffs = bell_bell_amplitudes_numeric(make_vw_state())
        assert coeffs.coeff(BellOutcome.PHI_PLUS, BellOutcome.PHI_PLUS) == pytest.approx(-0.5)
        assert coeffs.coeff(BellOutcome.PHI_MINUS, BellOutcome.PHI_MINUS) == pytest.approx(0.5)
        assert coeffs.coeff(BellOutcome.PSI_PLUS, BellOutcome.PSI_PLUS) == pytest.approx(0.5)
        assert coeffs.coeff(BellOutcome.PSI_MINUS, BellOutcome.PSI_MINUS) == pytest.approx(-0.5)
        off_diagonal = coeffs.coeffs[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off_diagonal)) < 1e-15

    def test_zero_angles_closed_form_matches_numeric(self):
        closed = bell_bell_amplitudes_closed_form(AngleSettings(0, 0, 0, 0))
        numeric = bell_bell_amplitudes_numeric(make_vw_state())
        assert np.max(np.abs(closed.coeffs - numeric.coeffs)) < 1e-10

    def test_quarter_wave_swaps_kappa_plus_block(self):
        closed = bell_bell_amplitudes_closed_form(AngleSettings(0, PI / 4, 0, PI / 4))
        assert closed.coeff(BellOutcome.PHI_PLUS, BellOutcome.PHI_PLUS) == pytest.approx(
            0.0, abs=1e-15
        )
        assert closed.coeff(BellOutcome.PHI_PLUS, BellOutcome.PSI_MINUS) == pytest.approx(-0.5)

    def test_closed_form_matches_numeric_on_random_settings(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            angles = AngleSettings(*rng.uniform(-2 * PI, 2 * PI, size=4))
            closed = bell_bell_amplitudes_closed_form(angles)
            numeric = bell_bell_amplitudes_numeric(
                apply_all_rotations(make_vw_state(), angles)
            )
            assert np.max(np.abs(closed.coeffs - numeric.coeffs)) < 1e-10

    def test_basis_is_complete(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            angles = AngleSettings(*rng.uniform(0, 2 * PI, size=4))
            numeric = bell_bell_amplitudes_numeric(
                apply_all_rotations(make_vw_state(), angles)
            )
            assert numeric.total_weight() == pytest.approx(1.0, abs=1e-12)

    def test_bell_order_is_pinned(self):
        assert [b.value for b in BELL_ORDER] == ["phi+", "phi-", "psi+", "psi-"]


class TestBatchedKernel:
    def settings(self):
        rng = np.random.default_rng(41)
        rows = [AngleSettings(*rng.uniform(-2 * PI, 2 * PI, size=4)) for _ in range(500)]
        for _, build in _FAMILIES:
            rows += [build(*rng.uniform(0, 2 * PI, size=2)) for _ in range(10)]
        return rows

    def test_matches_per_setting_reference(self):
        settings = self.settings()
        batch = np.array([angles.as_tuple() for angles in settings])
        reference = np.array([reference_coefficients(angles) for angles in settings])
        assert np.max(np.abs(bell_bell_coefficients(batch) - reference)) < 1e-14
        assert np.max(np.abs(bell_bell_coefficients_closed_form(batch) - reference)) < 1e-14

    def test_empty_batch(self):
        empty = np.zeros((0, 4))
        assert bell_bell_coefficients(empty).shape == (0, 4, 4)
        assert bell_bell_coefficients_closed_form(empty).shape == (0, 4, 4)

    def test_one_setting_functions_give_the_rows_of_a_batch(self):
        settings = self.settings()[::7]
        batch = np.array([angles.as_tuple() for angles in settings])
        numeric, closed = bell_bell_coefficients(batch), bell_bell_coefficients_closed_form(batch)
        for i, angles in enumerate(settings):
            state = apply_all_rotations(make_vw_state(), angles)
            assert np.array_equal(bell_bell_amplitudes_numeric(state).coeffs, numeric[i])
            assert np.array_equal(bell_bell_amplitudes_closed_form(angles).coeffs, closed[i])

    @pytest.mark.parametrize("shape", [(4,), (3, 3), (2, 4, 1)])
    def test_rejects_other_shapes(self, shape):
        for kernel in (bell_bell_coefficients, bell_bell_coefficients_closed_form):
            with pytest.raises(ValueError):
                kernel(np.zeros(shape))
