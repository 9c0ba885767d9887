import itertools
import math

import numpy as np
import pytest
from reference_qm import (
    reference_coefficients,
    reference_outcome_amplitudes,
    reference_outcome_probabilities,
    reference_project,
)

from bellswap import quantum
from bellswap.correlations import _outcome_probabilities
from bellswap.quantum import (
    BELL_INDEX,
    BELL_ORDER,
    BellOutcome,
    _project,
    _rotate_all,
    apply_all_rotations,
    bell_bell_amplitudes_closed_form,
    bell_bell_amplitudes_numeric,
    bell_bell_coefficients,
    bell_bell_coefficients_closed_form,
    compute_phases,
    make_vw_state,
    rotate_photon,
)
from bellswap.verification import _FAMILIES

PI = math.pi


def random_state(rng) -> np.ndarray:
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    return amps / np.linalg.norm(amps)


def amplitude(state: np.ndarray, a: int, b: int, c: int, d: int) -> complex:
    """Amplitude of |p_a p_b p_c p_d>, H = 0 and V = 1."""
    return complex(state.reshape(2, 2, 2, 2)[a, b, c, d])


def basis_state(a: int, b: int, c: int, d: int) -> np.ndarray:
    state = np.zeros((2, 2, 2, 2), dtype=complex)
    state[a, b, c, d] = 1.0
    return state.reshape(16)


def coeff(coeffs: np.ndarray, bc: BellOutcome, ad: BellOutcome) -> complex:
    return complex(coeffs[BELL_INDEX[bc], BELL_INDEX[ad]])


class TestVwState:
    def test_expanded_amplitudes(self):
        # exact: a rounded +-0.5 would change the printed decompose digits
        state = make_vw_state()
        assert state.shape == (16,)
        assert amplitude(state, 0, 1, 0, 1) == 0.5
        assert amplitude(state, 0, 1, 1, 0) == -0.5
        assert amplitude(state, 1, 0, 0, 1) == -0.5
        assert amplitude(state, 1, 0, 1, 0) == 0.5

    def test_absent_terms_vanish(self):
        state = make_vw_state()
        assert amplitude(state, 0, 0, 0, 0) == 0
        present = {(0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0)}
        for index in np.ndindex(2, 2, 2, 2):
            if index not in present:
                assert amplitude(state, *index) == 0

    def test_normalized(self):
        assert np.linalg.norm(make_vw_state()) == pytest.approx(1.0, abs=1e-12)

    def test_amplitudes_immutable(self):
        state = make_vw_state()
        with pytest.raises(ValueError):
            state[0] = 1.0

    def test_state_and_its_rotations_are_real(self):
        angles = (0.3, -1.1, 2.5, 4.0)
        assert make_vw_state().dtype == np.float64
        assert apply_all_rotations(make_vw_state(), angles).dtype == np.float64
        assert rotate_photon(make_vw_state(), 2, 0.7).dtype == np.float64
        complex_state = make_vw_state().astype(complex)
        assert apply_all_rotations(complex_state, angles).dtype == complex


class TestRotation:
    def test_zero_angle_is_identity(self):
        state = make_vw_state()
        rotated = rotate_photon(state, 2, 0.0)
        np.testing.assert_array_equal(rotated, state)

    def test_quarter_turn_sends_h_to_v(self):
        # R(pi/2)|H> = |V> and R(pi/2)|V> = -|H> on each photon in turn
        for photon in range(4):
            h, v = [0, 0, 0, 0], [0, 0, 0, 0]
            v[photon] = 1
            rotated_h = rotate_photon(basis_state(*h), photon, PI / 2)
            rotated_v = rotate_photon(basis_state(*v), photon, PI / 2)
            np.testing.assert_allclose(rotated_h, basis_state(*v), atol=1e-15)
            np.testing.assert_allclose(rotated_v, -basis_state(*h), atol=1e-15)

    def test_quarter_turn_on_state(self):
        # photon b in H everywhere it appears: use |H H H H>
        rotated = rotate_photon(basis_state(0, 0, 0, 0), 1, PI / 2)
        assert amplitude(rotated, 0, 1, 0, 0) == pytest.approx(1.0)
        assert abs(amplitude(rotated, 0, 0, 0, 0)) < 1e-15

    def test_norm_preserved_on_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            state = random_state(rng)
            photon = int(rng.integers(4))
            phi = float(rng.uniform(-10, 10))
            assert np.linalg.norm(rotate_photon(state, photon, phi)) == pytest.approx(
                np.linalg.norm(state), abs=1e-12
            )

    @pytest.mark.parametrize("photon", range(4))
    def test_phi_is_checked_alone(self, photon):
        # a bool alone is no angle, though numpy reads it as 1.0 among float zeros
        with pytest.raises(ValueError, match=r"^angles must be real numbers, got dtype bool$"):
            rotate_photon(make_vw_state(), photon, True)
        with pytest.raises(ValueError, match=r"^phi1 must be a finite real, got nan$"):
            rotate_photon(make_vw_state(), photon, math.nan)
        as_int = rotate_photon(make_vw_state(), photon, 1)
        np.testing.assert_array_equal(as_int, rotate_photon(make_vw_state(), photon, 1.0))
        assert as_int.dtype == np.float64

    def test_bad_photon_index(self):
        with pytest.raises(IndexError):
            rotate_photon(make_vw_state(), 4, 0.1)


class TestApplyAllRotations:
    def test_zeros_leave_state_unchanged(self):
        state = make_vw_state()
        out = apply_all_rotations(state, (0, 0, 0, 0))
        np.testing.assert_allclose(out, state, atol=1e-15)

    def test_order_independent(self):
        rng = np.random.default_rng(3)
        angles = rng.uniform(-5, 5, size=4)
        state = make_vw_state()
        forward = apply_all_rotations(state, angles)
        backward = state
        for photon, phi in reversed(list(enumerate(angles))):
            backward = rotate_photon(backward, photon, phi)
        assert np.max(np.abs(forward - backward)) < 1e-14

    def test_pairwise_shift_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            base = rng.uniform(0, 2 * PI, size=4)
            delta, delta2 = rng.uniform(-PI, PI, size=2)
            shifted = base + [delta, delta, delta2, delta2]
            a = bell_bell_amplitudes_numeric(apply_all_rotations(make_vw_state(), base))
            b = bell_bell_amplitudes_numeric(apply_all_rotations(make_vw_state(), shifted))
            assert np.max(np.abs(a - b)) < 1e-12


class TestPhases:
    def test_quarter_wave_plates(self):
        xi, eta = compute_phases((0, PI / 4, 0, PI / 4))
        assert xi == pytest.approx(-PI / 2)
        assert eta == pytest.approx(0.0)

    def test_zeros(self):
        assert compute_phases((0, 0, 0, 0)) == (0.0, 0.0)

    def test_equal_pairs_cancel_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a, b = rng.uniform(-10, 10, size=2)
            assert compute_phases((a, a, b, b)) == (0.0, 0.0)

    def test_phases_are_python_floats(self):
        phases = compute_phases(np.array([0.1, 0.2, 0.3, 0.4]))
        assert [type(phase) for phase in phases] == [float, float]

    @pytest.mark.parametrize(
        "call",
        [
            compute_phases,
            lambda angles: bell_bell_coefficients([angles]),
            lambda angles: bell_bell_coefficients_closed_form(np.array([[0.0] * 4, angles])),
        ],
        ids=["one-setting", "batch", "batch-with-a-good-row"],
    )
    def test_angles_must_be_finite(self, call):
        with pytest.raises(ValueError, match=r"^phi2 must be a finite real, got nan$"):
            call((0.0, math.nan, 0.0, 0.0))
        with pytest.raises(ValueError, match=r"^phi1 must be a finite real, got inf$"):
            call((math.inf, 0.0, 0.0, 0.0))
        # numpy reads a row with a string as strings, which are no angles
        with pytest.raises(ValueError, match=r"^angles must be real numbers, got dtype <U"):
            call(("0.5", True, 0.0, 0.0))


class TestDoubleBellDecomposition:
    def test_zero_angles_numeric(self):
        coeffs = bell_bell_amplitudes_numeric(make_vw_state())
        assert coeffs.shape == (4, 4)
        assert coeff(coeffs, BellOutcome.PHI_PLUS, BellOutcome.PHI_PLUS) == pytest.approx(-0.5)
        assert coeff(coeffs, BellOutcome.PHI_MINUS, BellOutcome.PHI_MINUS) == pytest.approx(0.5)
        assert coeff(coeffs, BellOutcome.PSI_PLUS, BellOutcome.PSI_PLUS) == pytest.approx(0.5)
        assert coeff(coeffs, BellOutcome.PSI_MINUS, BellOutcome.PSI_MINUS) == pytest.approx(-0.5)
        off_diagonal = coeffs[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off_diagonal)) < 1e-15

    def test_zero_angles_closed_form_matches_numeric(self):
        closed = bell_bell_amplitudes_closed_form((0, 0, 0, 0))
        numeric = bell_bell_amplitudes_numeric(make_vw_state())
        assert np.max(np.abs(closed - numeric)) < 1e-10

    def test_quarter_wave_swaps_kappa_plus_block(self):
        closed = bell_bell_amplitudes_closed_form((0, PI / 4, 0, PI / 4))
        assert coeff(closed, BellOutcome.PHI_PLUS, BellOutcome.PHI_PLUS) == pytest.approx(
            0.0, abs=1e-15
        )
        assert coeff(closed, BellOutcome.PHI_PLUS, BellOutcome.PSI_MINUS) == pytest.approx(-0.5)

    def test_closed_form_matches_numeric_on_random_settings(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            angles = rng.uniform(-2 * PI, 2 * PI, size=4)
            closed = bell_bell_amplitudes_closed_form(angles)
            numeric = bell_bell_amplitudes_numeric(
                apply_all_rotations(make_vw_state(), angles)
            )
            assert np.max(np.abs(closed - numeric)) < 1e-10

    def test_basis_is_complete(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            angles = rng.uniform(0, 2 * PI, size=4)
            numeric = bell_bell_amplitudes_numeric(
                apply_all_rotations(make_vw_state(), angles)
            )
            assert np.sum(np.abs(numeric) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_bell_order_is_pinned(self):
        assert [b.value for b in BELL_ORDER] == ["phi+", "phi-", "psi+", "psi-"]


class TestBatchedKernel:
    def settings(self):
        rng = np.random.default_rng(41)
        rows = list(rng.uniform(-2 * PI, 2 * PI, size=(500, 4)))
        for _, build in _FAMILIES:
            rows += [build(*rng.uniform(0, 2 * PI, size=2)) for _ in range(10)]
        return rows

    def test_matches_per_setting_reference(self):
        settings = self.settings()
        batch = np.array(settings)
        reference = np.array([reference_coefficients(angles) for angles in settings])
        assert np.max(np.abs(bell_bell_coefficients(batch) - reference)) < 1e-14
        assert np.max(np.abs(bell_bell_coefficients_closed_form(batch) - reference)) < 1e-14

    def test_empty_batch(self):
        empty = np.zeros((0, 4))
        assert bell_bell_coefficients(empty).shape == (0, 4, 4)
        assert bell_bell_coefficients_closed_form(empty).shape == (0, 4, 4)

    def test_one_setting_functions_give_the_rows_of_a_batch(self):
        settings = self.settings()[::7]
        batch = np.array(settings)
        numeric, closed = bell_bell_coefficients(batch), bell_bell_coefficients_closed_form(batch)
        for i, angles in enumerate(settings):
            state = apply_all_rotations(make_vw_state(), angles)
            assert np.array_equal(bell_bell_amplitudes_numeric(state), numeric[i])
            assert np.array_equal(bell_bell_amplitudes_closed_form(angles), closed[i])

    def test_one_setting_results_are_read_only(self):
        angles = (0.1, 0.2, 0.3, 0.4)
        state = apply_all_rotations(make_vw_state(), angles)
        results = (
            make_vw_state(),
            rotate_photon(make_vw_state(), 0, 0.1),
            state,
            bell_bell_amplitudes_numeric(state),
            bell_bell_amplitudes_closed_form(angles),
        )
        for result in results:
            with pytest.raises(ValueError):
                result[0] = 1.0

    @pytest.mark.parametrize("shape", [(4,), (3, 3), (2, 4, 1)])
    def test_rejects_other_shapes(self, shape):
        for kernel in (bell_bell_coefficients, bell_bell_coefficients_closed_form):
            with pytest.raises(ValueError):
                kernel(np.zeros(shape))


def complex_state_oracle(batch) -> np.ndarray:
    """The frozen dense complex projection of the source state rotated as a
    complex state: the coefficients the package printed when C was complex."""
    return reference_project(_rotate_all(make_vw_state().astype(complex), batch))


def assert_real_part_bits(result: np.ndarray, oracle: np.ndarray) -> None:
    """result is real and C-contiguous, holds the bytes of the oracle's real
    part, and every oracle imaginary part is +0.0, so nothing was dropped."""
    assert result.dtype == np.float64
    assert result.flags.c_contiguous
    assert result.tobytes() == oracle.real.tobytes()
    assert oracle.imag.tobytes() == bytes(oracle.imag.nbytes)


def awkward_batch(rows: int) -> np.ndarray:
    """Settings from 1e-3 to 1e6 rad, a quarter of them on multiples of
    pi/4 and a tenth of them signed zeros."""
    rng = np.random.default_rng(rows)
    magnitude = 10.0 ** rng.uniform(-3, 6, size=(rows, 1))
    batch = rng.uniform(-1, 1, size=(rows, 4)) * magnitude
    quarter = rng.random(rows) < 0.25
    batch[quarter] = rng.integers(-16, 17, size=(quarter.sum(), 4)) * (PI / 4)
    zero = rng.random(rows) < 0.1
    batch[zero] = rng.choice([0.0, -0.0], size=(zero.sum(), 4))
    return batch


def zeros_and_quarter_turns() -> np.ndarray:
    signed_zeros = list(itertools.product([0.0, -0.0], repeat=4))
    quarter_turns = np.random.default_rng(5).integers(-8, 9, size=(200, 4)) * (PI / 4)
    return np.concatenate([signed_zeros, quarter_turns])


class TestRealRotation:
    """The real rotation and the sparse real projection must give, bit for
    bit, the real parts of the coefficients that the complex state and the
    dense complex einsum gave (tests/reference_qm.py keeps that einsum),
    with every imaginary part +0.0 there."""

    @pytest.mark.parametrize("rows", [1, 2, 7, 100, 725, 2000])
    def test_random_batches(self, rows):
        batch = awkward_batch(rows)
        assert_real_part_bits(bell_bell_coefficients(batch), complex_state_oracle(batch))

    def test_zeros_and_quarter_turns(self):
        batch = zeros_and_quarter_turns()
        oracle = complex_state_oracle(batch)
        assert_real_part_bits(bell_bell_coefficients(batch), oracle)
        # each row alone: a setting's bits do not depend on its batch
        rows = b"".join(bell_bell_coefficients(row[None]).tobytes() for row in batch)
        assert rows == oracle.real.tobytes()

    def test_signed_zero_amplitudes(self):
        # every sum starts from +0.0, so four -0.0 terms give +0.0 as the
        # einsum did; the first row is the zero state, all -0.0
        choices = [0.0, -0.0, 0.5, -0.5, 1e-300]
        amplitudes = np.random.default_rng(9).choice(choices, size=(500, 16))
        amplitudes[0] = -0.0
        assert_real_part_bits(_project(amplitudes), reference_project(amplitudes))

    def test_complex_amplitudes_give_the_einsum_bits(self):
        state = random_state(np.random.default_rng(8))
        amplitudes = _rotate_all(state, awkward_batch(300))
        result = _project(amplitudes)
        assert result.dtype == complex
        assert result.tobytes() == reference_project(amplitudes).tobytes()
        assert bell_bell_amplitudes_numeric(state).tobytes() == (
            reference_project(state[None])[0].tobytes()
        )

    @pytest.mark.parametrize("phase", [1j, -1j, (1 + 1j) / math.sqrt(2)])
    def test_complex_bell_vectors_give_the_einsum_bits(self, monkeypatch, phase):
        # a complex vector runs through the same kernel, with complex weights
        vector = quantum.BELL_VECTORS[BellOutcome.PSI_MINUS] * phase
        monkeypatch.setitem(quantum.BELL_VECTORS, BellOutcome.PSI_MINUS, vector)
        amplitudes = _rotate_all(make_vw_state(), awkward_batch(300))
        result = _project(amplitudes)
        assert result.dtype == complex
        assert result.tobytes() == reference_project(amplitudes).tobytes()


class TestOutcomeProbabilities:
    """The Bell/polarization probabilities of a real C must be the bytes the
    dense complex einsum gave, whose imaginary parts were all +0.0."""

    @pytest.mark.parametrize("batch", [awkward_batch(725), zeros_and_quarter_turns()])
    def test_equal_the_einsum_bits(self, batch):
        coeffs = bell_bell_coefficients(batch)
        result = _outcome_probabilities(coeffs)
        assert result.dtype == np.float64
        assert result.flags.c_contiguous
        assert result.shape == (len(batch), 4, 2, 2)
        assert result.tobytes() == reference_outcome_probabilities(coeffs).tobytes()
        amplitudes = reference_outcome_amplitudes(coeffs)
        assert amplitudes.imag.tobytes() == bytes(amplitudes.imag.nbytes)
        # each row alone, and one (4, 4) C without a batch axis
        rows = b"".join(_outcome_probabilities(c[None]).tobytes() for c in coeffs)
        assert rows == result.tobytes()
        assert _outcome_probabilities(coeffs[0]).tobytes() == result[0].tobytes()

    def test_complex_coefficients_give_the_einsum_bits(self):
        coeffs = complex_state_oracle(awkward_batch(100)) * np.exp(0.3j)
        assert _outcome_probabilities(coeffs).tobytes() == (
            reference_outcome_probabilities(coeffs).tobytes()
        )
