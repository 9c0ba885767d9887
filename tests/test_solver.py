import math
import re

import numpy as np
import pytest
from instance_gen import grid_settings, random_compiled_instance, system_document

from bellswap.lhv import (
    RULE_BELL_POLARIZATION,
    RULE_FACTORIZATION,
    ConstraintSet,
    apply_factorization,
    compile_bell_polarization,
    compile_double_bell,
    contradiction_instance,
    contradiction_settings,
)
from bellswap import solver
from bellswap.serialize import constraint_set_from_dict, constraint_set_to_dict
from bellswap.solver import (
    SolveResult,
    SolveStatus,
    enumerate_solve,
    gf2_solve,
    verify_certificate,
)

PI = math.pi
PROV = ((0.0, 0.0, 0.0, 0.0), 0.0, "test")


def a_unknowns(n: int) -> list:
    return [("A", (0.001 * i,)) for i in range(n)]


def chain_set(signs: list[int]) -> ConstraintSet:
    """x_i * x_{i+1} = sign_i over len(signs)+1 variables."""
    rows = [((i, i + 1), sign, PROV) for i, sign in enumerate(signs)]
    return constraint_set_from_dict(system_document(+1, a_unknowns(len(signs) + 1), rows))


def triangle_set() -> ConstraintSet:
    """x*y = +1, y*z = +1, x*z = -1: unsatisfiable, certificate is all three."""
    rows = [((0, 1), +1, PROV), ((1, 2), +1, PROV), ((0, 2), -1, PROV)]
    return constraint_set_from_dict(system_document(+1, a_unknowns(3), rows))


def subset(cs: ConstraintSet, cids) -> ConstraintSet:
    """Constraints cids of cs, in that order and numbered from 0, over the
    same variables."""
    doc = constraint_set_to_dict(cs)
    rows = doc["constraints"]
    doc["constraints"] = [{**rows[cid], "id": i} for i, cid in enumerate(cids)]
    return constraint_set_from_dict(doc)


def dense_gauss_jordan(cs: ConstraintSet) -> SolveResult:
    """Reference: full Gauss-Jordan elimination, columns in variable-id order,
    the first eligible row as pivot, every row carrying its pedigree."""
    n = cs.n_variables
    rows = []
    for i, constraint in enumerate(cs.constraints):
        mask = 0
        for vid in constraint.var_ids:
            mask ^= 1 << vid
        rows.append([mask, 0 if constraint.required_sign == +1 else 1, 1 << i])
    pivot_row = 0
    for col in range(n):
        pivot = None
        for r in range(pivot_row, len(rows)):
            if (rows[r][0] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        for r in range(len(rows)):
            if r != pivot_row and ((rows[r][0] >> col) & 1):
                rows[r][0] ^= rows[pivot_row][0]
                rows[r][1] ^= rows[pivot_row][1]
                rows[r][2] ^= rows[pivot_row][2]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    for mask, rhs, pedigree in rows:
        if mask == 0 and rhs == 1:
            certificate = tuple(i for i in range(len(cs.constraints)) if (pedigree >> i) & 1)
            return SolveResult(SolveStatus.UNSAT, certificate=certificate)
    assignment = 0
    for mask, rhs, _ in rows:
        if mask == 0:
            continue
        pivot_col = (mask & -mask).bit_length() - 1
        if rhs:
            assignment |= 1 << pivot_col
    model = tuple(+1 if ((assignment >> i) & 1) == 0 else -1 for i in range(n))
    return SolveResult(SolveStatus.SAT, model=model)


class TestEnumerateSolve:
    def test_empty_set_is_sat_with_empty_model(self):
        result = enumerate_solve(ConstraintSet(+1))
        assert result.status is SolveStatus.SAT
        assert result.model == ()

    def test_contradiction_instance_certificate_is_both_constraints(self):
        cs = contradiction_instance(0.0, 0.0, +1)
        result = enumerate_solve(cs)
        assert result.status is SolveStatus.UNSAT
        assert result.certificate == (0, 1)
        assert verify_certificate(cs, result)

    def test_triangle_certificate_is_all_three(self):
        cs = triangle_set()
        result = enumerate_solve(cs)
        assert result.status is SolveStatus.UNSAT
        assert result.certificate == (0, 1, 2)
        assert verify_certificate(cs, result)

    def test_lowest_assignment_wins(self):
        cs = chain_set([-1])
        result = enumerate_solve(cs)
        # assignment index 1 flips variable 0 first
        assert result.model == (-1, +1)

    def test_variable_guard(self):
        cs = constraint_set_from_dict(system_document(+1, a_unknowns(25), []))
        with pytest.raises(ValueError, match="guard"):
            enumerate_solve(cs)

    def test_satisfiable_chain_model_verifies(self):
        cs = chain_set([+1, -1, +1, -1])
        result = enumerate_solve(cs)
        assert result.status is SolveStatus.SAT
        assert verify_certificate(cs, result)


def unsat_instances() -> list[ConstraintSet]:
    """The contradiction instance in both sectors, then the first 25 UNSAT
    systems of a seeded random_compiled_instance stream."""
    instances = [contradiction_instance(0.3, 0.9, kappa) for kappa in (+1, -1)]
    rng = np.random.default_rng(67)
    while len(instances) < 27:
        cs = random_compiled_instance(rng)
        if gf2_solve(cs).status is SolveStatus.UNSAT:
            instances.append(cs)
    return instances


class TestDeletionCertificate:
    """enumerate_solve's fallback when the smallest-subset search runs out of
    its combination budget: a deletion-minimal unsatisfiable subset."""

    def test_budget_exit_falls_back_to_an_irreducible_certificate(self, monkeypatch):
        smallest = [enumerate_solve(cs).certificate for cs in unsat_instances()]
        monkeypatch.setattr(solver, "_SUBSET_BUDGET", 0)
        for cs, best in zip(unsat_instances(), smallest, strict=True):
            rows = solver._parity_rows(cs)
            assert solver._subset_certificate(rows) is None
            result = enumerate_solve(cs)
            assert result.status is SolveStatus.UNSAT
            assert verify_certificate(cs, result)
            assert len(result.certificate) >= len(best)
            # irreducible: without any one of its constraints the rest is satisfiable
            for dropped in result.certificate:
                kept = [rows[cid] for cid in result.certificate if cid != dropped]
                assert solver._scan_assignments(kept, cs.n_variables) is not None


class TestCertificateCircuits:
    """Every UNSAT certificate is a circuit: an unsatisfiable set whose
    proper subsets are all satisfiable.  So no assignment satisfies all k of
    its constraints, one assignment fails just one of them, and the local
    bound of Σ s_i·Π x_v over them (ROADMAP item 11) is k - 2, attained."""

    def test_certificates_of_drawn_systems(self):
        fig1 = {RULE_BELL_POLARIZATION, RULE_FACTORIZATION}
        unsat = all_fig1 = 0
        for seed in range(400):
            cs = random_compiled_instance(np.random.default_rng(seed))
            if gf2_solve(cs).status is SolveStatus.SAT:
                continue
            unsat += 1
            n = cs.n_variables
            # row j is an assignment: bit v of j set means x_v = -1
            models = 1 - 2 * ((np.arange(2**n)[:, None] >> np.arange(n)) & 1)
            for result in (gf2_solve(cs), enumerate_solve(cs)):
                certificate, k = result.certificate, len(result.certificate)
                assert result.status is SolveStatus.UNSAT
                for dropped in certificate:
                    kept = subset(cs, [cid for cid in certificate if cid != dropped])
                    assert enumerate_solve(kept).status is SolveStatus.SAT
                scores = sum(
                    cs.required_signs[cid] * models[:, cs.var_ids[cid]].prod(axis=1)
                    for cid in certificate
                )
                assert scores.max() == k - 2
                if {cs.equations[cid] for cid in certificate} <= fig1:
                    assert k % 2 == 0 and k >= 4
                    all_fig1 += 1
        assert unsat >= 20 and all_fig1 >= 10


class TestGf2Solve:
    def test_contradiction_instances_for_random_angles(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            alpha, beta = rng.uniform(-PI, PI, size=2)
            for kappa in (-1, +1):
                cs = contradiction_instance(alpha, beta, kappa)
                result = gf2_solve(cs)
                assert result.status is SolveStatus.UNSAT
                assert len(result.certificate) == 2
                assert verify_certificate(cs, result)

    def test_double_bell_two_setting_instance_is_sat(self):
        settings_list = [
            (0.5, 0.5 + PI / 4, 2.2 + PI / 4, 2.2),
            (0.5, 0.5 + PI / 4, 2.2, 2.2 + PI / 4),
        ]
        cs = compile_double_bell(settings_list, +1)
        result = gf2_solve(cs)
        assert result.status is SolveStatus.SAT
        assert verify_certificate(cs, result)
        assert enumerate_solve(cs).status is SolveStatus.SAT

    def test_thousand_variable_chain(self):
        cs = chain_set([+1] * 999)
        result = gf2_solve(cs)
        assert result.status is SolveStatus.SAT
        assert set(result.model) == {+1}
        assert verify_certificate(cs, result)

    def test_triangle(self):
        cs = triangle_set()
        result = gf2_solve(cs)
        assert result.status is SolveStatus.UNSAT
        assert verify_certificate(cs, result)

    def test_deterministic(self):
        cs = contradiction_instance(1.0, 2.0, -1)
        assert gf2_solve(cs) == gf2_solve(cs)


class TestSolverAgreement:
    def test_statuses_agree_on_random_compiled_instances(self):
        rng = np.random.default_rng(61)
        statuses = {SolveStatus.SAT: 0, SolveStatus.UNSAT: 0}
        for _ in range(500):
            cs = random_compiled_instance(rng)
            by_enum = enumerate_solve(cs)
            by_gf2 = gf2_solve(cs)
            assert by_enum.status is by_gf2.status
            assert verify_certificate(cs, by_enum)
            assert verify_certificate(cs, by_gf2)
            statuses[by_enum.status] += 1
        # the generator must exercise both answers
        assert statuses[SolveStatus.SAT] > 100
        assert statuses[SolveStatus.UNSAT] > 10


class TestGf2Contracts:
    """The canonical model and certificate that gf2_solve promises."""

    def test_model_is_enumerations_lowest_assignment(self):
        rng = np.random.default_rng(83)
        checked = 0
        for _ in range(300):
            cs = random_compiled_instance(rng)
            result = gf2_solve(cs)
            if result.status is SolveStatus.SAT:
                assert result.model == enumerate_solve(cs).model
                checked += 1
        assert checked > 200

    def test_certificate_ends_at_first_unsat_prefix(self):
        rng = np.random.default_rng(89)
        checked = 0
        while checked < 40:
            cs = random_compiled_instance(rng)
            result = gf2_solve(cs)
            if result.status is SolveStatus.SAT:
                continue
            last = max(result.certificate)
            assert enumerate_solve(subset(cs, range(last + 1))).status is SolveStatus.UNSAT
            assert enumerate_solve(subset(cs, range(last))).status is SolveStatus.SAT
            checked += 1

    @pytest.mark.parametrize(
        "fig,factorize", [(1, True), (2, False), (1, False)], ids=["1", "2", "1-unfactorized"]
    )
    def test_same_result_as_dense_gauss_jordan_on_grid(self, fig, factorize):
        settings = grid_settings(np.random.default_rng(97), 4)
        assert len(settings) == 784
        if fig == 2:
            cs = compile_double_bell(settings, -1)
            expected = SolveStatus.SAT
        elif factorize:
            cs = apply_factorization(compile_bell_polarization(settings, +1))
            expected = SolveStatus.UNSAT
        else:
            cs = compile_bell_polarization(settings, +1)
            expected = SolveStatus.SAT
            # pass 1 inserts its basis rows out of pivot order, so pass 2's
            # top-down feed is not the insertion order: the model must not care
            rows = solver._parity_rows(cs)
            basis, _ = solver._eliminate(rows, solver._highest_variable, pedigrees=False)
            assert list(basis) != sorted(basis, reverse=True)
        result = gf2_solve(cs)
        assert result.status is expected
        assert result == dense_gauss_jordan(cs)

    def test_twenty_thousand_variable_chain(self):
        signs = [int(s) for s in np.random.default_rng(101).choice([-1, 1], size=19_999)]
        cs = chain_set(signs)
        assert cs.n_variables == 20_000
        result = gf2_solve(cs)
        assert result.status is SolveStatus.SAT
        assert result.model[0] == +1
        assert verify_certificate(cs, result)

    def test_large_factorized_grid_is_refuted(self):
        settings = grid_settings(np.random.default_rng(103), 18)
        cs = apply_factorization(compile_bell_polarization(settings, +1))
        assert cs.n_variables >= 4000
        result = gf2_solve(cs)
        assert result.status is SolveStatus.UNSAT
        assert verify_certificate(cs, result)


class TestVerifyCertificate:
    def test_flipped_model_sign_rejected(self):
        cs = chain_set([+1, +1])
        result = enumerate_solve(cs)
        assert verify_certificate(cs, result)
        bad_model = (-result.model[0], *result.model[1:])
        assert not verify_certificate(cs, SolveResult(SolveStatus.SAT, model=bad_model))

    def test_incomplete_model_rejected(self):
        cs = chain_set([+1])
        result = enumerate_solve(cs)
        partial = result.model[1:]
        assert not verify_certificate(cs, SolveResult(SolveStatus.SAT, model=partial))
        # a value for an unknown cs does not have
        extra = result.model + (+1,)
        assert not verify_certificate(cs, SolveResult(SolveStatus.SAT, model=extra))

    def test_sat_result_without_a_model_rejected(self):
        assert not verify_certificate(chain_set([+1]), SolveResult(SolveStatus.SAT))

    @pytest.mark.parametrize("value", [0, 2, -2, 0.5])
    def test_model_value_other_than_a_sign_rejected(self, value):
        cs = chain_set([+1])
        model = (value, value)
        assert not verify_certificate(cs, SolveResult(SolveStatus.SAT, model=model))

    @pytest.mark.parametrize(
        "model",
        [(1.0, 1.0, -1.0, 1.0), (True, True, -1, True), [1, 1, -1, 1], (1, 1, np.int64(-1), 1)],
        ids=["floats", "bools", "list", "numpy-int"],
    )
    def test_model_values_equal_to_signs_rejected(self, model):
        """A model read from JSON can hold true or 1.0, which equal +1 but
        are not the int sign a solver returns."""
        cs = compile_double_bell(contradiction_settings(0, 0, +1), +1)
        assert verify_certificate(cs, SolveResult(SolveStatus.SAT, model=(1, 1, -1, 1)))
        assert not verify_certificate(cs, SolveResult(SolveStatus.SAT, model=model))

    @pytest.mark.parametrize(
        "certificate",
        [(0.0, 1.0), (0, 1.0), (False, True), (0, np.float64(1.0)), (0, "1")],
        ids=["floats", "one-float", "bools", "numpy-float", "string"],
    )
    def test_non_integer_ids_raise(self, certificate):
        cs = contradiction_instance(0, 0, +1)
        bad = next(cid for cid in certificate if type(cid) is not int)
        message = f"certificate references unknown constraint id {bad}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_certificate(cs, SolveResult(SolveStatus.UNSAT, certificate=certificate))

    def test_numpy_int_ids_accepted(self):
        cs = contradiction_instance(0, 0, +1)
        certificate = (np.int64(0), np.int32(1))
        assert verify_certificate(cs, SolveResult(SolveStatus.UNSAT, certificate=certificate))

    def test_dropped_certificate_constraint_rejected(self):
        cs = contradiction_instance(0.3, 0.9, +1)
        result = enumerate_solve(cs)
        for removed in range(2):
            mutated = tuple(c for c in result.certificate if c != removed)
            assert not verify_certificate(
                cs, SolveResult(SolveStatus.UNSAT, certificate=mutated)
            )

    def test_empty_certificate_rejected(self):
        cs = contradiction_instance(0.0, 0.0, -1)
        assert not verify_certificate(cs, SolveResult(SolveStatus.UNSAT, certificate=()))

    def test_unknown_ids_raise(self):
        cs = chain_set([+1])
        with pytest.raises(ValueError):
            verify_certificate(cs, SolveResult(SolveStatus.UNSAT, certificate=(5,)))

    def test_random_certificate_mutations_rejected(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            alpha, beta = rng.uniform(0, 2 * PI, size=2)
            kappa = int(rng.choice([-1, 1]))
            cs = contradiction_instance(alpha, beta, kappa)
            result = enumerate_solve(cs)
            assert verify_certificate(cs, result)
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
            mutated = SolveResult(SolveStatus.UNSAT, certificate=tuple(cert))
            assert not verify_certificate(cs, mutated)
