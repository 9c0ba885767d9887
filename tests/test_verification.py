import math

import numpy as np
import pytest
from reference_qm import reference_family_settings, reference_qm_verification

from bellswap import quantum, verification
from bellswap.correlations import classify_zeta
from bellswap.quantum import BellOutcome
from bellswap.verification import run_qm_verification, special_family_settings


def assert_same_report(report, reference, tol=1e-15):
    """Same verdicts and violations (check, angles, detail, order); the
    round-off floats may differ by ``tol``."""
    assert report["passed"] == reference["passed"]
    assert list(report["checks"]) == list(reference["checks"])
    for name, entry in reference["checks"].items():
        assert report["checks"][name]["passed"] == entry["passed"], name
        assert report["checks"][name]["max_value"] == pytest.approx(entry["max_value"], abs=tol)
    strip = lambda v: {key: v[key] for key in ("check", "angles", "detail")}  # noqa: E731
    assert [strip(v) for v in report["violations"]] == [strip(v) for v in reference["violations"]]
    for ours, theirs in zip(report["violations"], reference["violations"]):
        assert ours["value"] == pytest.approx(theirs["value"], abs=tol)


def corrupt_psi_minus(monkeypatch, how):
    """Replace the psi- vector: ``flip`` its sign, or ``mix`` in phi- so the
    basis is no longer orthonormal and every check can fail."""
    vectors = quantum.BELL_VECTORS
    if how == "flip":
        vector = -vectors[BellOutcome.PSI_MINUS]
    else:
        vector = (vectors[BellOutcome.PSI_MINUS] + vectors[BellOutcome.PHI_MINUS]) / math.sqrt(2)
    monkeypatch.setitem(vectors, BellOutcome.PSI_MINUS, vector)


def xi_eta_swapped(angles):
    """A wrong closed form: xi and eta trade places (phi3 and phi4 swapped)."""
    return quantum.bell_bell_coefficients_closed_form(np.asarray(angles)[:, [0, 1, 3, 2]])


def phi3_moved_off_phase(monkeypatch, offset):
    """Move phi3 of every special-family setting by ``offset`` rad."""

    def moved(build):
        def build_moved(alpha, beta):
            phi1, phi2, phi3, phi4 = build(alpha, beta)
            return (phi1, phi2, phi3 + offset, phi4)

        return build_moved

    families = tuple((name, moved(build)) for name, build in verification._FAMILIES)
    monkeypatch.setattr(verification, "_FAMILIES", families)


class TestSweepMatchesPerSettingLoop:
    @pytest.mark.parametrize(
        "grid,seed,tol",
        [
            pytest.param(1, 12345, 1e-9, id="1-12345"),
            pytest.param(2, 3, 1e-9, id="2-3"),
            pytest.param(3, 301, 1e-9, id="3-301"),
            (2, 3, 1e-3),
            (3, 301, 0.3),
        ],
    )
    def test_intact_state(self, grid, seed, tol):
        report = run_qm_verification(grid=grid, tol=tol, seed=seed)
        assert report["passed"] is True
        assert_same_report(report, reference_qm_verification(grid, tol, seed))

    @pytest.mark.parametrize("grid,seed", [(1, 5), (2, 301)])
    def test_families_off_their_phase(self, monkeypatch, grid, seed):
        # 0.05 rad off, within tol = 0.1: every family sector still claims a
        # certain product and fails, each with its own round-off
        phi3_moved_off_phase(monkeypatch, 0.05)
        report = run_qm_verification(grid=grid, tol=0.1, seed=seed)
        reference = reference_qm_verification(grid, 0.1, seed)
        values = [v["value"] for v in report["violations"]]
        assert len(values) == 200 and len(set(values)) > 1
        assert all(1e-3 < value < 2e-3 for value in values)
        assert report["violations"] == reference["violations"]
        assert report["checks"]["perfect_correlations"] == (
            reference["checks"]["perfect_correlations"]
        )

    # the mixed vector makes values of order 1, whose round-off is a few ulps
    @pytest.mark.parametrize("how,failing,tol", [("flip", 1, 1e-15), ("mix", 5, 4e-15)])
    @pytest.mark.parametrize("grid,seed", [(1, 3), (2, 99), (3, 7)])
    def test_corrupted_bell_vector(self, monkeypatch, how, failing, tol, grid, seed):
        corrupt_psi_minus(monkeypatch, how)
        report = run_qm_verification(grid=grid, seed=seed)
        reference = reference_qm_verification(grid, 1e-9, seed)
        assert len({v["check"] for v in reference["violations"]}) == failing
        assert_same_report(report, reference, tol)

    @pytest.mark.parametrize("grid,seed", [(1, 5), (3, 12345)])
    def test_corrupted_closed_form(self, monkeypatch, grid, seed):
        monkeypatch.setattr(verification, "bell_bell_coefficients_closed_form", xi_eta_swapped)
        report = run_qm_verification(grid=grid, seed=seed)
        reference = reference_qm_verification(
            grid, 1e-9, seed, closed_form=lambda angles: xi_eta_swapped([angles])[0]
        )
        checks = [v["check"] for v in reference["violations"]]
        # settings with xi = eta (mod 2 pi) pass, the others fail
        assert 0 < checks.count("closed_form_vs_numeric") < grid**4 + 100
        assert_same_report(report, reference)

    def test_random_settings_are_one_draw_of_the_same_stream(self):
        per_setting = np.random.default_rng(8)
        one_draw = np.random.default_rng(8)
        rows = [per_setting.uniform(0.0, 2.0 * math.pi, size=4) for _ in range(81)]
        assert np.array_equal(one_draw.uniform(0.0, 2.0 * math.pi, size=(81, 4)), rows)
        assert per_setting.uniform() == one_draw.uniform()

    def test_family_settings_are_one_draw_of_the_same_stream(self):
        per_pair, one_draw = np.random.default_rng(8), np.random.default_rng(8)
        assert special_family_settings(one_draw) == reference_family_settings(per_pair, 20)
        assert per_pair.uniform() == one_draw.uniform()

    @pytest.mark.parametrize("seed", [3, 7, 99, 301])
    def test_family_sector_without_a_claim_is_a_violation(self, seed):
        # family sectors are special by construction; below the round-off of
        # their phases some classify as generic, and each such sector fails
        # instead of going unchecked
        tol = 1e-300
        rng = np.random.default_rng(seed)
        rng.uniform(0.0, 2.0 * math.pi, size=(1, 4))  # the grid-1 sweep's setting
        dropped = [
            (list(angles), f"family {name}, kappa {kappa:+d}")
            for name, angles in special_family_settings(rng)
            for kappa in (+1, -1)
            if classify_zeta(angles, kappa, tol) == 0
        ]
        assert 0 < len(dropped) < 200
        report = run_qm_verification(grid=1, tol=tol, seed=seed)
        assert report["passed"] is False
        assert report["checks"]["perfect_correlations"]["passed"] is False
        assert [(v["angles"], v["detail"]) for v in report["violations"]] == dropped
        assert {(v["check"], v["value"]) for v in report["violations"]} == {
            ("perfect_correlations", 1.0)
        }
        assert run_qm_verification(grid=1, tol=1e-15, seed=seed)["passed"] is True

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.pi / 4, 1.0, math.nan, math.inf])
    def test_rejects_a_tolerance_outside_the_open_range(self, monkeypatch, tol):
        batches = []
        decompose = verification.bell_bell_coefficients
        monkeypatch.setattr(
            verification, "bell_bell_coefficients", lambda s: batches.append(s) or decompose(s)
        )
        with pytest.raises(ValueError, match="tol"):
            run_qm_verification(grid=16, tol=tol)
        assert batches == []  # rejected before the first draw, not after the sweep


class TestChunking:
    @pytest.mark.parametrize("how", [None, "flip", "mix"])
    def test_chunk_size_does_not_change_the_report(self, monkeypatch, how):
        if how is not None:
            corrupt_psi_minus(monkeypatch, how)
        default = run_qm_verification(grid=2, seed=11)
        monkeypatch.setattr(verification, "_CHUNK", 7)
        assert run_qm_verification(grid=2, seed=11) == default

    @pytest.mark.parametrize("grid", [2, 3])
    def test_chunked_draws_give_the_default_report(self, monkeypatch, grid):
        default = run_qm_verification(grid=grid, seed=23)
        batches = []
        rotate = quantum._rotate_all
        monkeypatch.setattr(
            quantum, "_rotate_all", lambda s, a: batches.append(len(a)) or rotate(s, a)
        )
        monkeypatch.setattr(verification, "_CHUNK", 7)
        assert run_qm_verification(grid=grid, seed=23) == default
        # random settings drawn 7 at a time, the 100 family rows in the last chunk
        assert batches == [7] * (grid**4 // 7) + [grid**4 % 7 + 100]
