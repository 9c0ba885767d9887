"""Acceptance suite: one test per exit criterion, one printed verdict each.

Every tolerance is pinned here; nothing is deferred to calibration.  The
PASS/FAIL lines print straight to the terminal even without -s.
"""

import math
from contextlib import contextmanager

import numpy as np
from instance_gen import random_compiled_instance

from bellswap.cli import main
from bellswap.correlations import (
    OUTCOME_ORDER,
    classify_zeta,
    f_value_of,
    joint_bell_probabilities,
    kappa_of,
    perfect_correlation_report,
    sample_events,
)
from bellswap.lhv import (
    apply_factorization,
    compile_bell_polarization,
    compile_double_bell,
    contradiction_instance,
    contradiction_settings,
)
from bellswap.quantum import (
    BELL_ORDER,
    bell_bell_coefficients,
    bell_bell_coefficients_closed_form,
)
from bellswap.solver import SolveResult, SolveStatus, enumerate_solve, gf2_solve, verify_certificate

PI = math.pi

CLOSED_FORM_TOL = 1e-10
CERTAINTY_TOL = 1e-12
KAPPA_TOL = 1e-12


@contextmanager
def criterion(capsys, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL  {label}", flush=True)
        raise
    else:
        with capsys.disabled():
            print(f"PASS  {label}", flush=True)


def test_criterion_1_closed_form_fidelity(capsys):
    with criterion(capsys, "criterion 1: closed form matches numeric decomposition (1000 settings, 1e-10)"):
        rng = np.random.default_rng(1001)
        settings = np.array([rng.uniform(-2 * PI, 2 * PI, size=4) for _ in range(1000)])
        closed = bell_bell_coefficients_closed_form(settings)
        numeric = bell_bell_coefficients(settings)
        worst = float(np.max(np.abs(closed - numeric)))
        assert worst < CLOSED_FORM_TOL


def test_criterion_2_kappa_conservation(capsys):
    with criterion(capsys, "criterion 2: sector parity conserved (100 settings, 1e-12)"):
        rng = np.random.default_rng(1002)
        worst = 0.0
        for _ in range(100):
            probs = joint_bell_probabilities(rng.uniform(0, 2 * PI, size=4))
            mismatch = sum(
                float(probs[i, j])
                for i, bc in enumerate(BELL_ORDER)
                for j, ad in enumerate(BELL_ORDER)
                if kappa_of(bc) != kappa_of(ad)
            )
            worst = max(worst, mismatch)
        assert worst < KAPPA_TOL


# family name -> (builder, {kappa: expected class, by its JSON name})
_FAMILIES = {
    "zeta=0 both sectors": (
        lambda a, b: (a, a, b, b),
        {+1: "zero-or-pi", -1: "zero-or-pi"},
    ),
    "zeta=pi both sectors": (
        lambda a, b: (a + PI, a, b, b),
        {+1: "zero-or-pi", -1: "zero-or-pi"},
    ),
    "zeta=+pi in plus sector": (
        lambda a, b: (a + PI / 2, a, b + PI / 2, b),
        {+1: "zero-or-pi", -1: "zero-or-pi"},
    ),
    "zeta=-pi/2 in plus sector": (
        lambda a, b: (a, a + PI / 4, b, b + PI / 4),
        {+1: "half-pi", -1: "zero-or-pi"},
    ),
    "zeta=-pi/2 in minus sector": (
        lambda a, b: (a, a + PI / 4, b + PI / 4, b),
        {+1: "zero-or-pi", -1: "half-pi"},
    ),
}


def test_criterion_3_perfect_correlations(capsys):
    with criterion(
        capsys,
        "criterion 3: conditional products certain on special families (1e-12)"
        " and 1e5-event runs show zero violations",
    ):
        rng = np.random.default_rng(1003)
        for family, (build, expected_classes) in _FAMILIES.items():
            for _ in range(20):
                alpha, beta = rng.uniform(0, 2 * PI, size=2)
                angles = build(alpha, beta)
                report = perfect_correlation_report(angles)
                for sector in report["sectors"]:
                    kappa = sector["kappa"]
                    assert sector["phase_class"] == expected_classes[kappa], (family, kappa)
                    conditional_violation = (
                        sector["violation_probability"] / sector["sector_probability"]
                    )
                    assert conditional_violation < CERTAINTY_TOL, (family, kappa)
                    assert sector["product_certain"]

        # Monte Carlo confirmation, fixed seed, n = 1e5 per arrangement
        for angles in (
            (0, 0, 0, 0),
            (0.4, 0.4 + PI / 4, 1.3 + PI / 4, 1.3),
        ):
            predicted = {kappa: classify_zeta(angles, kappa) or None for kappa in (+1, -1)}
            # kappa and a*F*d of each outcome index, from its Bell state and polarizations
            kappa = [kappa_of(bell) for bell, _, _ in OUTCOME_ORDER]
            product = [f_value_of(bell) * a.sign * d.sign for bell, a, d in OUTCOME_ORDER]
            events = sample_events(angles, 100_000, seed=42)
            violations = sum(
                1
                for k in events
                if predicted[kappa[k]] is not None and product[k] != predicted[kappa[k]]
            )
            assert violations == 0


def _mutate_certificate(rng, cs, result) -> SolveResult:
    original = sorted(result.certificate)
    cert = list(result.certificate)
    op = int(rng.integers(0, 3))
    if op == 0:
        cert.pop(int(rng.integers(len(cert))))
    elif op == 1:
        cert.append(int(rng.integers(len(cs.constraints))))
    else:
        cert[int(rng.integers(len(cert)))] = int(rng.integers(len(cs.constraints)))
    if sorted(cert) == original:
        cert.pop(0)
    return SolveResult(SolveStatus.UNSAT, certificate=tuple(cert))


def test_criterion_4_the_theorem(capsys):
    with criterion(
        capsys,
        "criterion 4: contradiction instances UNSAT for 25 random (alpha, beta) x both"
        " sectors x both solvers, 2-line certificates verified, mutations rejected",
    ):
        rng = np.random.default_rng(1004)
        mutations_rejected = 0
        mutations_total = 0
        for _ in range(25):
            alpha, beta = rng.uniform(-2 * PI, 2 * PI, size=2)
            for kappa in (+1, -1):
                cs = contradiction_instance(alpha, beta, kappa)
                for solve in (enumerate_solve, gf2_solve):
                    result = solve(cs)
                    assert result.status is SolveStatus.UNSAT
                    assert len(result.certificate) == 2
                    assert verify_certificate(cs, result)
                    mutated = _mutate_certificate(rng, cs, result)
                    mutations_total += 1
                    if not verify_certificate(cs, mutated):
                        mutations_rejected += 1
        assert mutations_rejected == mutations_total


def test_criterion_5_factorization_is_the_crux(capsys):
    with criterion(
        capsys,
        "criterion 5: two settings satisfiable unfactored (double Bell) but"
        " unsatisfiable once F factorizes through A*D",
    ):
        rng = np.random.default_rng(1005)
        for _ in range(5):
            alpha, beta = rng.uniform(0, 2 * PI, size=2)
            for kappa in (+1, -1):
                settings = list(contradiction_settings(alpha, beta, kappa))

                unfactored = compile_double_bell(settings, kappa)
                sat_result = enumerate_solve(unfactored)
                assert sat_result.status is SolveStatus.SAT
                assert verify_certificate(unfactored, sat_result)

                factored = apply_factorization(compile_bell_polarization(settings, kappa))
                unsat_result = enumerate_solve(factored)
                assert unsat_result.status is SolveStatus.UNSAT
                assert verify_certificate(factored, unsat_result)


def test_criterion_6_solver_equivalence(capsys):
    with criterion(
        capsys,
        "criterion 6: enumeration and elimination agree on 500 random instances (<= 16 vars)",
    ):
        rng = np.random.default_rng(1006)
        disagreements = 0
        for _ in range(500):
            cs = random_compiled_instance(rng, max_variables=16)
            if enumerate_solve(cs).status is not gf2_solve(cs).status:
                disagreements += 1
        assert disagreements == 0


def test_criterion_7_determinism(capsys, tmp_path):
    with criterion(
        capsys,
        "criterion 7: simulate is byte-deterministic and the default verify-qm run exits 0",
    ):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--phi2", "0.785398", "--events", "100000", "--seed", "42"]
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

        assert main(["verify-qm"]) == 0
