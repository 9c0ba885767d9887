import io
import json
import math
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellswap import correlations, quantum
from bellswap.cli import main
from bellswap.correlations import (
    OUTCOME_ORDER,
    SECTOR_OUTCOMES,
    bell_polarization_distribution,
    classify_zeta,
    f_value_of,
    joint_bell_probabilities,
    kappa_of,
    perfect_correlation_report,
    rotated_vw_state,
    sample_events,
    violating_outcomes,
    zeta,
)
from bellswap.quantum import (
    BELL_ORDER,
    BELL_VECTORS,
    BellOutcome,
    Polarization,
    apply_all_rotations,
    bell_bell_amplitudes_closed_form,
    compute_phases,
    make_vw_state,
    rotate_photon,
)
from bellswap.serialize import write_events_csv
from bellswap.verification import _FAMILIES, run_qm_verification

PI = math.pi
ZEROS = (0, 0, 0, 0)
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

#: Every public function of one setting, called with only that setting.
ONE_SETTING = {
    "zeta": lambda angles: zeta(angles, 1),
    "classify_zeta": lambda angles: classify_zeta(angles, 1),
    "violating_outcomes": violating_outcomes,
    "sample_events": lambda angles: sample_events(angles, 3, 1),
    "perfect_correlation_report": perfect_correlation_report,
    "joint_bell_probabilities": joint_bell_probabilities,
    "bell_polarization_distribution": bell_polarization_distribution,
    "rotated_vw_state": rotated_vw_state,
    "write_events_csv": lambda angles: write_events_csv(io.StringIO(), angles, [[0]]),
    "compute_phases": compute_phases,
    "apply_all_rotations": lambda angles: apply_all_rotations(make_vw_state(), angles),
    "bell_bell_amplitudes_closed_form": bell_bell_amplitudes_closed_form,
}


class TestOutcomeCodings:
    @pytest.mark.parametrize(
        "outcome,expected",
        [
            (BellOutcome.PHI_PLUS, +1),
            (BellOutcome.PSI_MINUS, +1),
            (BellOutcome.PHI_MINUS, -1),
            (BellOutcome.PSI_PLUS, -1),
        ],
    )
    def test_kappa(self, outcome, expected):
        assert kappa_of(outcome) == expected

    @pytest.mark.parametrize(
        "outcome,expected",
        [
            (BellOutcome.PHI_PLUS, +1),
            (BellOutcome.PHI_MINUS, +1),
            (BellOutcome.PSI_PLUS, -1),
            (BellOutcome.PSI_MINUS, -1),
        ],
    )
    def test_polarization_product(self, outcome, expected):
        assert f_value_of(outcome) == expected

    def test_codings_jointly_separate_all_outcomes(self):
        pairs = {(kappa_of(b), f_value_of(b)) for b in BellOutcome}
        assert len(pairs) == 4

    def test_polarization_signs(self):
        assert Polarization.H.sign == +1
        assert Polarization.V.sign == -1

    def test_sector_outcomes(self):
        assert SECTOR_OUTCOMES == {
            +1: (BellOutcome.PHI_PLUS, BellOutcome.PSI_MINUS),
            -1: (BellOutcome.PHI_MINUS, BellOutcome.PSI_PLUS),
        }

    def test_predicted_product_of_each_phase_class(self):
        # a phase class is its certain product; the report names it in JSON
        products = {
            sector["phase_class"]: sector["predicted_product"]
            for angles in (ZEROS, (0, PI / 4, PI / 4, 0), (0, 0.3, 0, 0))
            for sector in perfect_correlation_report(angles)["sectors"]
        }
        assert products == {"zero-or-pi": +1, "half-pi": -1, "generic": None}


class TestJointBellProbabilities:
    def test_zero_angles_diagonal_quarters(self):
        probs = joint_bell_probabilities(ZEROS)
        np.testing.assert_allclose(probs, np.eye(4) * 0.25, atol=1e-15)

    def test_kappa_never_mismatches(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            probs = joint_bell_probabilities(rng.uniform(0, 2 * PI, size=4))
            mismatch = sum(
                probs[i, j]
                for i, bc in enumerate(BELL_ORDER)
                for j, ad in enumerate(BELL_ORDER)
                if kappa_of(bc) != kappa_of(ad)
            )
            assert mismatch < 1e-12

    def test_marginals_are_uniform(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            probs = joint_bell_probabilities(rng.uniform(0, 2 * PI, size=4))
            np.testing.assert_allclose(probs.sum(axis=0), 0.25, atol=1e-12)
            np.testing.assert_allclose(probs.sum(axis=1), 0.25, atol=1e-12)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def projected_distribution(angles):
    """Reference: project the rotated state onto each (b, c) Bell vector."""
    tensor = apply_all_rotations(make_vw_state(), angles).reshape(2, 2, 2, 2)
    dist = {}
    for bell in BELL_ORDER:
        amp_ad = np.einsum("bc,abcd->ad", BELL_VECTORS[bell].conj(), tensor)
        for pol_a in (Polarization.H, Polarization.V):
            for pol_d in (Polarization.H, Polarization.V):
                dist[(bell, pol_a, pol_d)] = float(abs(amp_ad[pol_a.index, pol_d.index]) ** 2)
    return dist


class TestBellPolarizationDistribution:
    def test_matches_per_pair_projection(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            angles = rng.uniform(0, 2 * PI, size=4)
            dist = bell_polarization_distribution(angles)
            reference = projected_distribution(angles)
            assert list(dist) == list(OUTCOME_ORDER)
            for key in OUTCOME_ORDER:
                assert dist[key] == pytest.approx(reference[key], abs=1e-14)

    def test_has_16_entries_summing_to_one(self):
        dist = bell_polarization_distribution(ZEROS)
        assert len(dist) == 16
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_zero_angles_polarization_marginal(self):
        dist = bell_polarization_distribution(ZEROS)
        p_a_h = sum(p for (_, pol_a, _), p in dist.items() if pol_a is Polarization.H)
        assert p_a_h == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("kappa", [+1, -1])
    def test_zero_angles_wrong_products_are_impossible(self, kappa):
        dist = bell_polarization_distribution(ZEROS)
        bad = sum(
            p
            for (bell, pol_a, pol_d), p in dist.items()
            if kappa_of(bell) == kappa
            and pol_a.sign * f_value_of(bell) * pol_d.sign == -1
        )
        assert bad < 1e-12


@pytest.fixture
def rotation_batches(monkeypatch):
    """Sizes of the batches rotated through quantum._rotate_all, which every
    state build goes through."""
    batches = []
    original = quantum._rotate_all

    def counting(amplitudes, angles):
        batches.append(len(angles))
        return original(amplitudes, angles)

    monkeypatch.setattr(quantum, "_rotate_all", counting)
    return batches


class TestSinglePass:
    def test_report_rotates_the_state_once(self, rotation_batches):
        perfect_correlation_report((0, PI / 4, PI / 4, 0))
        assert rotation_batches == [1]

    def test_verify_qm_decomposes_in_one_batched_pass(self, rotation_batches):
        # the sweep rotates its 1 random + 100 family settings in one call,
        # the reports none
        report = run_qm_verification(grid=1)
        assert (report["random_settings"], report["family_settings"]) == (1, 100)
        assert rotation_batches == [101]

    def test_decompose_decomposes_once(self, rotation_batches, capsys):
        # the tables and the perfect-correlation report share one C
        assert main(["decompose", "--phi2", str(PI / 4), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["perfect_correlations"]["holds"]
        assert rotation_batches == [1]

    def test_report_classifies_each_sector_once(self, monkeypatch):
        # one call of the shared phase rule covers both sectors of a report
        calls = []
        original = correlations._predicted_product

        def counting(zeta_value, tol):
            calls.append(np.shape(zeta_value))
            return original(zeta_value, tol)

        monkeypatch.setattr(correlations, "_predicted_product", counting)
        perfect_correlation_report((0, PI / 4, PI / 4, 0))
        assert calls == [(1, 2)]

    @pytest.mark.parametrize("tol", [1e-9, 1e-3, 0.3])
    def test_batched_classes_are_those_of_classify_zeta(self, tol):
        # phases at and just off each window's edge, for every special value
        # (phi3 = phi4 puts both sectors' zeta on phi1), then random settings
        rng = np.random.default_rng(4)
        offsets = tol * np.array([-1.0, -0.999999, 0.0, 0.999999, 1.0])
        edges = (np.array([0.0, PI / 2, PI, -PI / 2, 3 * PI])[:, None] + offsets).ravel()
        pairs = np.repeat(rng.uniform(-7, 7, len(edges)), 2).reshape(-1, 2)
        on_edges = np.column_stack([edges, np.zeros_like(edges), pairs])
        settings = np.concatenate([on_edges, rng.uniform(-7, 7, (200, 4))])
        coeffs = quantum.bell_bell_coefficients(settings)
        zetas, predicted, *_ = correlations._sector_arrays(settings, coeffs, tol)
        expected = [[classify_zeta(row, kappa, tol) for kappa in (+1, -1)] for row in settings]
        assert predicted.tolist() == expected
        assert {0, 1, -1} <= set(predicted[: len(edges)].ravel().tolist())
        assert zetas.tolist() == [[zeta(row, k) for k in (+1, -1)] for row in settings]


class TestClassifyZeta:
    def test_half_pi(self):
        assert classify_zeta((0, PI / 4, 0, PI / 4), +1) == -1

    def test_zero_for_other_sector(self):
        assert classify_zeta((0, PI / 4, 0, PI / 4), -1) == +1

    def test_generic(self):
        assert classify_zeta((0, 0.3, 0, 0), +1) == 0

    def test_periodicity(self):
        assert classify_zeta((6 * PI, 0, 0, 0), +1) == +1
        assert classify_zeta((2 * PI + PI / 2, 0, 0, 0), +1) == -1
        assert classify_zeta((-PI, 0, 0, 0), +1) == +1

    def test_tolerance_is_respected(self):
        nudged = (1e-6, 0, 0, 0)
        assert classify_zeta(nudged, +1, tol=1e-9) == 0
        assert classify_zeta(nudged, +1, tol=1e-3) == +1

    def test_class_is_a_python_int(self):
        for angles, kappa, product in (
            ((0, PI / 4, 0, PI / 4), -1, +1),
            ((0, PI / 4, 0, PI / 4), +1, -1),
            ((0, 0.3, 0, 0), +1, 0),
        ):
            phase_class = classify_zeta(angles, kappa)
            assert type(phase_class) is int and phase_class == product

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            classify_zeta(ZEROS, 0)
        for tol in (0.0, -1.0, PI / 4, 1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                classify_zeta(ZEROS, +1, tol=tol)

    def test_takes_any_four_angle_row(self):
        # a tuple of ints, a list and an array row give the same Python values
        for angles in ((0, 0, 0, 0), [0.0, 0.0, 0.0, 0.0], np.zeros(4)):
            value = zeta(angles, 1)
            assert type(value) is float and value == 0.0
            phase_class = classify_zeta(angles, -1)
            assert type(phase_class) is int and phase_class == +1

    @pytest.mark.parametrize("call", ONE_SETTING.values(), ids=ONE_SETTING.keys())
    def test_rejects_a_batch_or_a_short_row(self, call):
        # each one-setting function names the shape of one setting
        for angles, shape in ((np.zeros((2, 4)), "(2, 4)"), ((0.0, 0.0, 0.0), "(3,)")):
            message = f"angles must have shape (4,), got {shape}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(angles)

    @pytest.mark.parametrize(
        "call",
        [
            *(partial(call, ("0.5", True, 0, 0)) for call in ONE_SETTING.values()),
            partial(rotate_photon, make_vw_state(), 0, "0.5"),
        ],
        ids=[*ONE_SETTING, "rotate_photon"],
    )
    def test_rejects_a_string_angle(self, call):
        with pytest.raises(ValueError, match=r"^angles must be real numbers, got dtype <U"):
            call()

    def test_zeta_values(self):
        angles = (0.1, 0.5, 1.0, 0.25)
        assert zeta(angles, +1) == pytest.approx((0.1 - 0.5) + (1.0 - 0.25))
        assert zeta(angles, -1) == pytest.approx((0.1 - 0.5) - (1.0 - 0.25))


class TestPerfectCorrelationReport:
    def test_zero_angles_both_sectors_certain(self):
        report = perfect_correlation_report(ZEROS)
        assert report["holds"]
        for sector in report["sectors"]:
            assert sector["phase_class"] == "zero-or-pi"
            assert sector["predicted_product"] == +1
            assert sector["sector_probability"] == pytest.approx(0.5, abs=1e-12)
            assert sector["violation_probability"] < 1e-12
            assert sector["product_certain"]
            assert sector["pairing_certain"]
            # identity pairing at zeta = 0
            assert all(bc == ad for bc, ad in sector["bell_pairing"].items())

    def test_mixed_sector_classes(self):
        report = perfect_correlation_report((0, PI / 4, PI / 4, 0))
        plus, minus = report["sectors"]
        assert plus["kappa"] == +1
        assert plus["phase_class"] == "zero-or-pi"
        assert plus["predicted_product"] == +1
        assert plus["product_certain"]
        assert minus["kappa"] == -1
        assert minus["phase_class"] == "half-pi"
        assert minus["predicted_product"] == -1
        assert minus["product_certain"]
        # swapped pairing at zeta = -pi/2
        assert minus["bell_pairing"][BellOutcome.PHI_MINUS.value] == BellOutcome.PSI_PLUS.value
        assert minus["pairing_certain"]

    def test_generic_setting_makes_no_claims(self):
        report = perfect_correlation_report((0, 0.3, 0.7, 0.1))
        assert report["holds"]
        for sector in report["sectors"]:
            assert sector["phase_class"] == "generic"
            assert sector["predicted_product"] is None
            assert sector["violation_probability"] is None
            assert sector["product_certain"] is None
            assert sector["bell_pairing"] is None

    @pytest.mark.parametrize("tol", [1e-9, 0.3])
    def test_report_is_what_decompose_prints(self, capsys, tol):
        # one setting of each special family plus a generic one, key order included
        rng = np.random.default_rng(20)
        settings = [build(*rng.uniform(0, 2 * PI, size=2)) for _, build in _FAMILIES]
        settings.append((0.3, 1.1, -2.5, 4.0))
        for angles in settings:
            flags = [f"--phi{k}={float(phi)!r}" for k, phi in enumerate(angles, start=1)]
            main(["decompose", "--json", f"--tol={tol}", *flags])
            printed = json.loads(capsys.readouterr().out)["perfect_correlations"]
            report = perfect_correlation_report(angles, tol)
            assert report == printed
            assert json.dumps(report) == json.dumps(printed)

    def test_int_and_array_rows_report_python_floats(self):
        # the angles print as decompose prints them, never as ints or numpy scalars
        for angles in ((0, 0, 0, 0), np.zeros(4)):
            report = perfect_correlation_report(angles)
            assert json.dumps(report["angles"]) == "[0.0, 0.0, 0.0, 0.0]"
            assert all(type(phi) is float for phi in report["angles"])

    def test_report_round_trips_through_json(self):
        doc = perfect_correlation_report((0, PI / 4, PI / 4, 0))
        assert json.loads(json.dumps(doc)) == doc


class TestSampler:
    def test_zero_count_gives_empty_list(self):
        assert len(sample_events(ZEROS, 0, 1)) == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            sample_events(ZEROS, -1, 1)

    def test_outcome_order_is_pinned(self):
        assert len(OUTCOME_ORDER) == 16
        assert OUTCOME_ORDER[0] == (BellOutcome.PHI_PLUS, Polarization.H, Polarization.H)
        assert OUTCOME_ORDER[-1] == (BellOutcome.PSI_MINUS, Polarization.V, Polarization.V)

    def test_deterministic_for_fixed_seed(self):
        first = sample_events(ZEROS, 500, seed=42)
        second = sample_events(ZEROS, 500, seed=42)
        assert np.array_equal(first, second)
        different = sample_events(ZEROS, 500, seed=43)
        assert not np.array_equal(first, different)

    def test_an_array_row_draws_what_its_tuple_draws(self):
        assert np.array_equal(sample_events(np.zeros(4), 3, 1), sample_events((0, 0, 0, 0), 3, 1))
        angles = (0.3, 1.1, 0.2, 2.0)
        assert np.array_equal(
            sample_events(np.array(angles), 500, 9), sample_events(list(angles), 500, 9)
        )

    def test_derived_fields_are_consistent(self):
        # every column of a CSV row after the angles follows from its outcome
        angles = (0.3, 1.1, 0.2, 2.0)
        outcomes = sample_events(angles, 200, seed=9)
        assert len(outcomes) == 200
        assert all(0 <= k < len(OUTCOME_ORDER) for k in outcomes)
        buffer = io.StringIO()
        write_events_csv(buffer, angles, [outcomes])
        for row, k in zip(buffer.getvalue().splitlines()[1:], outcomes):
            bell, pol_a, pol_d, *values = row.split(",")[5:]
            bell, pol_a, pol_d = BellOutcome(bell), Polarization(pol_a), Polarization(pol_d)
            kappa, f_value, a_value, d_value, product = map(int, values)
            assert (bell, pol_a, pol_d) == OUTCOME_ORDER[k]
            assert kappa == kappa_of(bell)
            assert f_value == f_value_of(bell)
            assert a_value == pol_a.sign
            assert d_value == pol_d.sign
            assert product == a_value * f_value * d_value

    def test_zero_angles_products_never_violate(self):
        events = sample_events(ZEROS, 20_000, seed=42)
        product = [f_value_of(bell) * a.sign * d.sign for bell, a, d in OUTCOME_ORDER]
        assert all(product[k] == +1 for k in events)

    def test_bell_marginals_at_zero_angles(self):
        n = 100_000
        events = sample_events(ZEROS, n, seed=5)
        for bell in BELL_ORDER:
            count = sum(1 for k in events if OUTCOME_ORDER[k][0] is bell)
            # binomial: p = 1/4, five standard errors
            sigma = math.sqrt(0.25 * 0.75 * n)
            assert abs(count - 0.25 * n) < 5 * sigma

    @pytest.mark.parametrize("angles", [ZEROS, (0.8, 0.15, 2.4, 1.05)], ids=["zeros", "generic"])
    def test_all_outcome_frequencies_within_five_sigma(self, angles):
        n = 100_000
        dist = bell_polarization_distribution(angles)
        events = sample_events(angles, n, seed=77)
        counts = {key: 0 for key in OUTCOME_ORDER}
        for k in events:
            counts[OUTCOME_ORDER[k]] += 1
        for key, p in dist.items():
            if p < 1e-15:
                assert counts[key] == 0
                continue
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(counts[key] - n * p) < 5 * sigma + 1

    # the sampler's lookup against the binary search it stands in for

    @staticmethod
    def searched(cdf, u):
        """The draws u by one binary search each over the whole CDF: the reference."""
        return np.minimum(np.searchsorted(cdf, u, side="right"), 15)

    @staticmethod
    def edge_draws(cdf):
        """The draws where the lookup could go wrong: each CDF value, each bin
        edge, 0.0 and the largest float below 1, and the floats next to them,
        as far as they lie in [0, 1)."""
        edges = np.arange(correlations._BINS) / correlations._BINS
        points = np.concatenate([cdf, edges, [0.0, np.nextafter(1.0, 0.0)]])
        u = np.concatenate([points, np.nextafter(points, -1.0), np.nextafter(points, 2.0)])
        return u[(0.0 <= u) & (u < 1.0)]

    def assert_lookup_is_the_search(self, cdf, u):
        draws = correlations._inverse_cdf(correlations._cdf_lookup(cdf), u)
        expected = self.searched(cdf, u)
        assert draws.dtype == expected.dtype
        bad = np.flatnonzero(draws != expected)
        assert not bad.size, f"u = {u[bad[0]]!r}: {draws[bad[0]]} != {expected[bad[0]]}"

    def test_lookup_draws_equal_the_search_at_every_setting_kind(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCHMARKS))
        from workloads import SPECIAL_FAMILIES  # the events workload's settings

        rng = np.random.default_rng(32)
        builders = [build for _, build in _FAMILIES] + list(SPECIAL_FAMILIES)
        settings = [tuple(rng.uniform(-2 * PI, 2 * PI, 4)) for _ in range(20)]
        settings += [build(*rng.uniform(0, 2 * PI, 2)) for build in builders for _ in range(4)]
        settings += [ZEROS, (PI / 4, 0, 0, 0)]
        for angles in settings:
            cdf = np.cumsum(list(bell_polarization_distribution(angles).values()))
            u = np.concatenate([self.edge_draws(cdf), rng.random(2000)])
            self.assert_lookup_is_the_search(cdf, u)
            seed = int(rng.integers(2**32))
            expected = self.searched(cdf, np.random.default_rng(seed).random(3000))
            assert np.array_equal(sample_events(angles, 3000, seed), expected)

    def test_no_draw_lands_on_an_outcome_of_probability_zero(self, monkeypatch):
        # rounding ends the CDF a few ulps below 1 at most settings, as at
        # (0.3, 0.3, 1.1, 1.1), whose last outcome (psi-, V, V) is impossible;
        # it can also start the CDF at 9.25e-32, as at the last setting, whose
        # first outcome (phi+, H, H) is impossible and would take u = 0.0
        monkeypatch.syspath_prepend(str(BENCHMARKS))
        from workloads import SPECIAL_FAMILIES  # the events workload's settings

        rng = np.random.default_rng(36)
        builders = [build for _, build in _FAMILIES] + list(SPECIAL_FAMILIES)
        pairs = [(0.3, 1.1)] + rng.uniform(0, 2 * PI, (8, 2)).tolist()
        settings = [build(*pair) for build in builders for pair in pairs]
        settings.append(
            (1.9096899838877246, 2.6950881472851727, 3.580711272943551, 4.366109436340999)
        )
        for angles in settings:
            probabilities = np.array(list(bell_polarization_distribution(angles).values()))
            u = self.edge_draws(np.cumsum(probabilities))
            assert u.min() == 0.0 and u.max() == np.nextafter(1.0, 0.0)
            draws = correlations._inverse_cdf(correlations._outcome_lookup(angles), u)
            assert not violating_outcomes(angles)[draws].any(), angles

    @pytest.mark.parametrize(
        "probabilities",
        [
            # ties: zero-probability outcomes, also first and last
            [0.0, 0.25, 0.0, 0.0, 0.25, 0.0, 0.0, 0.0, 0.25, 0.0, 0.0, 0.0, 0.0, 0.25, 0.0, 0.0],
            [1.0] + [0.0] * 15,
            [0.0] * 15 + [1.0],
            # a first probability of 1e-32, far inside the first bin
            [1e-32] + [1 / 15] * 15,
            # a CDF that ends at 0.5: the draws above it clamp to the last outcome
            [1 / 32] * 16,
        ],
        ids=["ties", "all-first", "all-last", "tiny-first", "short"],
    )
    def test_lookup_draws_equal_the_search_on_crafted_cdfs(self, probabilities):
        cdf = np.cumsum(probabilities)
        self.assert_lookup_is_the_search(cdf, self.edge_draws(cdf))

    @pytest.mark.parametrize(
        "last", [1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)], ids=["1", "1-ulp", "1+ulp"]
    )
    @pytest.mark.parametrize("bins", [(1, 2, 3, 2048, 4095), (0, 7, 1000, 4000, 4094)], ids=repr)
    def test_lookup_draws_equal_the_search_on_bin_edges(self, bins, last):
        # CDF values exactly on k / 4096 and one ulp either side of it
        edges = np.array(bins) / 4096
        values = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)])
        cdf = np.append(np.sort(np.maximum(values, 0.0)), last)
        assert len(cdf) == 16
        self.assert_lookup_is_the_search(cdf, self.edge_draws(cdf))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 1e-3)),
            min_size=16,
            max_size=16,
        ).filter(any),
        st.integers(0, 2**32 - 1),
    )
    def test_lookup_draws_equal_the_search_on_any_cdf(self, weights, seed):
        cdf = np.cumsum(weights) / sum(weights)
        u = np.concatenate([self.edge_draws(cdf), np.random.default_rng(seed).random(500)])
        self.assert_lookup_is_the_search(cdf, u)
