import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellswap.correlations import PhaseClass, classify_zeta, zeta
from bellswap.lhv import (
    RULE_BELL_POLARIZATION,
    RULE_DOUBLE_BELL,
    RULE_FACTORIZATION,
    ConstraintSet,
    FunctionTag,
    HiddenContext,
    Provenance,
    apply_factorization,
    compile_bell_polarization,
    compile_double_bell,
    compile_factored,
    contradiction_instance,
    contradiction_settings,
)
from bellswap.quantum import AngleSettings
from bellswap.serialize import dump_constraint_set
from bellswap.solver import SolveStatus, enumerate_solve

PI = math.pi
CTX_PLUS = HiddenContext(kappa=+1)
CTX_MINUS = HiddenContext(kappa=-1)


def tags_of(cs: ConstraintSet, constraint_index: int) -> list[FunctionTag]:
    return [cs.variables[vid].tag for vid in cs.constraints[constraint_index].var_ids]


class TestCompileBellPolarization:
    def test_equal_pairs_emit_one_positive_constraint(self):
        alpha, beta = 0.37, 1.91
        cs = compile_bell_polarization([AngleSettings(alpha, alpha, beta, beta)], CTX_PLUS)
        assert len(cs.constraints) == 1
        constraint = cs.constraints[0]
        assert constraint.required_sign == +1
        assert tags_of(cs, 0) == [FunctionTag.A, FunctionTag.F, FunctionTag.D]
        a_var, f_var, d_var = (cs.variables[v] for v in constraint.var_ids)
        assert a_var.angles[0] == pytest.approx(alpha, abs=1e-9)
        assert f_var.angles == pytest.approx((alpha, beta), abs=1e-9)
        assert d_var.angles[0] == pytest.approx(beta, abs=1e-9)

    def test_generic_setting_emits_nothing(self):
        cs = compile_bell_polarization([AngleSettings(0, 0.3, 0.7, 0.1)], CTX_PLUS)
        assert cs.constraints == []
        assert cs.variables == []

    def test_zero_and_half_pi_signs(self):
        settings_list = [
            AngleSettings(0, PI / 4, PI / 4, 0),
            AngleSettings(0, PI / 4, 0, PI / 4),
        ]
        cs = compile_bell_polarization(settings_list, CTX_PLUS)
        assert [c.required_sign for c in cs.constraints] == [+1, -1]

    def test_variable_dedup_on_repeated_settings(self):
        setting = AngleSettings(0.2, 0.2, 0.9, 0.9)
        cs = compile_bell_polarization([setting, setting], CTX_PLUS)
        assert len(cs.constraints) == 2
        assert cs.n_variables == 3
        assert cs.constraints[0].var_ids == cs.constraints[1].var_ids

    def test_kappa_flips_the_rule(self):
        setting = AngleSettings(0, PI / 4, 0, PI / 4)
        plus = compile_bell_polarization([setting], CTX_PLUS)
        minus = compile_bell_polarization([setting], CTX_MINUS)
        assert plus.constraints[0].required_sign == -1
        assert minus.constraints[0].required_sign == +1

    @settings(max_examples=60, deadline=None)
    @given(
        phis=st.tuples(*(st.floats(-10, 10, allow_nan=False) for _ in range(4))),
        kappa=st.sampled_from([-1, +1]),
    )
    def test_emitted_constraints_match_their_provenance(self, phis, kappa):
        setting = AngleSettings(*phis)
        context = HiddenContext(kappa=kappa)
        cs = compile_bell_polarization([setting], context)
        phase_class = classify_zeta(setting, kappa)
        if phase_class is PhaseClass.GENERIC:
            assert cs.constraints == []
        else:
            (constraint,) = cs.constraints
            assert constraint.required_sign == phase_class.predicted_product
            replayed = classify_zeta(
                AngleSettings(*constraint.provenance.angles), kappa
            )
            assert replayed is phase_class


def grid_settings(rng: np.random.Generator, bases: int) -> list[AngleSettings]:
    """The refute_grid benchmark's settings: random base angles per side, and
    every arm pair of every left base with every arm pair of every right base,
    an arm pair being the base twice or the base and the base plus k*pi/4
    (k = 1, 2, 3) either way round."""

    def arm_pairs(base: float) -> list[tuple[float, float]]:
        out = [(base, base)]
        for offset in (PI / 4, PI / 2, 3 * PI / 4):
            out += [(base, base + offset), (base + offset, base)]
        return out

    alphas, betas = rng.uniform(0.0, 2 * PI, size=(2, bases)).tolist()
    return [
        AngleSettings(*left, *right)
        for alpha in alphas
        for beta in betas
        for left in arm_pairs(alpha)
        for right in arm_pairs(beta)
    ]


#: Unknowns of each rule, by function tag and angle positions, as the paper
#: states them: A(phi1) F(phi2, phi3) D(phi4) and F(phi2, phi3) G(phi1, phi4).
REPLAY_TERMS = {
    RULE_BELL_POLARIZATION: ((FunctionTag.A, (0,)), (FunctionTag.F, (1, 2)), (FunctionTag.D, (3,))),
    RULE_DOUBLE_BELL: ((FunctionTag.F, (1, 2)), (FunctionTag.G, (0, 3))),
}


def replay_compile(rule, settings_list, context, tol):
    """The compiler one setting at a time: one classify_zeta call each."""
    cs = ConstraintSet(context=context)
    for setting in settings_list:
        sign = classify_zeta(setting, context.kappa, tol).predicted_product
        if sign is None:
            continue
        angles = setting.as_tuple()
        var_ids = tuple(
            cs.variable_id(tag, [angles[i] for i in slots]) for tag, slots in REPLAY_TERMS[rule]
        )
        cs.add_constraint(var_ids, sign, Provenance(angles, zeta(setting, context.kappa), rule))
    return cs


def replay_factorization(cs):
    """apply_factorization through the angles of each F unknown."""
    out = cs.copy()
    for var in list(out.variables):
        if var.tag is FunctionTag.F:
            x, y = var.angles
            var_ids = (
                out.variable_id(FunctionTag.F, (x, y)),
                out.variable_id(FunctionTag.A, (x,)),
                out.variable_id(FunctionTag.D, (y,)),
            )
            out.add_constraint(var_ids, +1, Provenance((x, x, y, y), 0.0, RULE_FACTORIZATION))
    return out


def file_text(cs):
    buffer = io.StringIO()
    dump_constraint_set(cs, buffer)
    return buffer.getvalue()


class TestArrayPassCompiler:
    """The compiler classifies all settings in one array pass; on the
    refute_grid settings it must write what the per-setting replay writes."""

    GRID = grid_settings(np.random.default_rng(303), 9)

    @pytest.mark.parametrize("tol", [1e-9, 0.2])
    @pytest.mark.parametrize("kappa", [+1, -1])
    @pytest.mark.parametrize("fig", [1, 2])
    def test_matches_per_setting_replay(self, fig, kappa, tol):
        context = HiddenContext(kappa=kappa, label="grid")
        if fig == 1:
            compiled = apply_factorization(compile_bell_polarization(self.GRID, context, tol))
            replayed = replay_factorization(
                replay_compile(RULE_BELL_POLARIZATION, self.GRID, context, tol)
            )
        else:
            compiled = compile_double_bell(self.GRID, context, tol)
            replayed = replay_compile(RULE_DOUBLE_BELL, self.GRID, context, tol)
        assert compiled.constraints  # the grid has special settings in every case
        assert compiled.n_variables == replayed.n_variables
        assert len(compiled.constraints) == len(replayed.constraints)
        assert file_text(compiled) == file_text(replayed)
        for constraint in compiled.constraints:
            assert type(constraint.required_sign) is int
            assert type(constraint.provenance.zeta) is float

    def test_empty_settings(self):
        cs = compile_double_bell([], CTX_MINUS)
        assert cs.variables == [] and cs.constraints == []


class TestCompileDoubleBell:
    def test_zero_phase_setting(self):
        alpha, beta = 0.5, 2.2
        cs = compile_double_bell(
            [AngleSettings(alpha, alpha + PI / 4, beta + PI / 4, beta)], CTX_PLUS
        )
        (constraint,) = cs.constraints
        assert constraint.required_sign == +1
        assert tags_of(cs, 0) == [FunctionTag.F, FunctionTag.G]
        f_var, g_var = (cs.variables[v] for v in constraint.var_ids)
        assert f_var.angles == pytest.approx((alpha + PI / 4, beta + PI / 4), abs=1e-9)
        assert g_var.angles == pytest.approx((alpha, beta), abs=1e-9)

    def test_half_pi_setting(self):
        alpha, beta = 0.5, 2.2
        cs = compile_double_bell(
            [AngleSettings(alpha, alpha + PI / 4, beta, beta + PI / 4)], CTX_PLUS
        )
        (constraint,) = cs.constraints
        assert constraint.required_sign == -1

    def test_contradiction_settings_are_jointly_satisfiable_here(self):
        alpha, beta = 0.5, 2.2
        cs = compile_double_bell(list(contradiction_settings(alpha, beta, +1)), CTX_PLUS)
        assert cs.n_variables == 4
        result = enumerate_solve(cs)
        assert result.status is SolveStatus.SAT

    def test_never_emits_a_or_d(self):
        rng = np.random.default_rng(2)
        settings_list = [
            AngleSettings(a, a, b, b) for a, b in rng.uniform(0, 2 * PI, size=(10, 2))
        ]
        cs = compile_double_bell(settings_list, CTX_MINUS)
        assert all(v.tag in (FunctionTag.F, FunctionTag.G) for v in cs.variables)


class TestFactorization:
    def test_adds_definition_per_f_variable(self):
        alpha, beta = 0.4, 1.0
        cs = compile_bell_polarization(
            [AngleSettings(alpha, alpha + PI / 4, beta, beta + PI / 4)], CTX_MINUS
        )
        out = apply_factorization(cs)
        assert len(cs.constraints) == 1  # input untouched
        assert len(out.constraints) == 2
        definition = out.constraints[1]
        assert definition.required_sign == +1
        assert definition.provenance.equation == RULE_FACTORIZATION
        f_var, a_var, d_var = (out.variables[v] for v in definition.var_ids)
        assert f_var.tag is FunctionTag.F
        assert a_var.tag is FunctionTag.A
        assert d_var.tag is FunctionTag.D
        assert a_var.angles[0] == pytest.approx(f_var.angles[0])
        assert d_var.angles[0] == pytest.approx(f_var.angles[1])

    def test_no_f_variables_is_a_fixed_point(self):
        cs = compile_factored([AngleSettings(0.1, 0.1, 0.2, 0.2)], CTX_PLUS)
        assert apply_factorization(cs) == cs

    def test_factorized_system_is_equisatisfiable_with_factored_one(self):
        rng = np.random.default_rng(13)
        offsets = [0.0, PI / 4, PI / 2, PI]
        for _ in range(25):
            alphas = rng.uniform(0, 2 * PI, size=2)
            betas = rng.uniform(0, 2 * PI, size=2)
            settings_list = []
            for _ in range(int(rng.integers(1, 4))):
                a = float(rng.choice(alphas))
                b = float(rng.choice(betas))
                settings_list.append(
                    AngleSettings(
                        a, a + float(rng.choice(offsets)), b + float(rng.choice(offsets)), b
                    )
                )
            kappa = int(rng.choice([-1, 1]))
            context = HiddenContext(kappa=kappa)
            factorized = apply_factorization(compile_bell_polarization(settings_list, context))
            direct = compile_factored(settings_list, context)
            assert enumerate_solve(factorized).status is enumerate_solve(direct).status


class TestContradictionInstance:
    def test_shape_at_origin(self):
        cs = contradiction_instance(0.0, 0.0, +1)
        assert cs.n_variables == 4
        assert len(cs.constraints) == 2
        labels = {v.label for v in cs.variables}
        assert labels == {"A(0.0)", "A(0.7853981630000001)", "D(0.0)", "D(0.7853981630000001)"}
        first, second = cs.constraints
        assert sorted(first.var_ids) == sorted(second.var_ids)
        assert {first.required_sign, second.required_sign} == {+1, -1}

    @pytest.mark.parametrize("kappa", [+1, -1])
    def test_zeta_values_in_provenance(self, kappa):
        cs = contradiction_instance(0.17, 1.2, kappa)
        assert cs.constraints[0].provenance.zeta == pytest.approx(0.0, abs=1e-12)
        assert cs.constraints[1].provenance.zeta == pytest.approx(-PI / 2, abs=1e-12)

    def test_unsat_for_any_angles(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            alpha, beta = rng.uniform(-2 * PI, 2 * PI, size=2)
            for kappa in (+1, -1):
                result = enumerate_solve(contradiction_instance(alpha, beta, kappa))
                assert result.status is SolveStatus.UNSAT

    def test_kappa_validated(self):
        with pytest.raises(ValueError):
            contradiction_instance(0.0, 0.0, 0)


class TestConstraintSetInvariants:
    def test_constraints_must_reference_registered_variables(self):
        cs = ConstraintSet(context=CTX_PLUS)
        with pytest.raises(ValueError):
            cs.add_constraint((0,), +1, None)  # no variables registered yet

    def test_context_kappa_validated(self):
        with pytest.raises(ValueError):
            HiddenContext(kappa=2)

    def test_equality_compares_context_variables_and_constraints(self):
        cs = contradiction_instance(0.0, 0.0, +1)
        assert cs == contradiction_instance(0.0, 0.0, +1)
        assert cs == cs.copy()
        flipped = cs.copy()
        first = flipped.constraints[0]
        flipped.constraints[0] = replace(first, required_sign=-first.required_sign)
        assert cs != flipped
        other_kappa = replace(cs.copy(), context=CTX_MINUS)
        assert cs != other_kappa
        assert cs != contradiction_instance(0.0, 0.1, +1)
