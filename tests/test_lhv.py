import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from instance_gen import grid_settings, system_document

from bellswap.correlations import (
    CERTAINTY_TOL,
    MAX_COMPILE_TOL,
    classify_zeta,
    perfect_correlation_report,
    zeta,
)
from bellswap.lhv import (
    ANGLE_QUANTUM,
    RULE_BELL_POLARIZATION,
    RULE_DOUBLE_BELL,
    RULE_FACTORIZATION,
    _MAX_NUMBER,
    ConstraintSet,
    ParityConstraint,
    apply_factorization,
    compile_bell_polarization,
    compile_double_bell,
    compile_factored,
    contradiction_instance,
    contradiction_settings,
    quantize_angle,
)
from bellswap.serialize import _labels, dump_constraint_set
from bellswap.solver import SolveResult, SolveStatus, enumerate_solve, verify_certificate

PI = math.pi


def tags_of(cs: ConstraintSet, constraint_index: int) -> list[str]:
    return [cs.unknowns[vid][0] for vid in cs.var_ids[constraint_index]]


def angles_of(cs: ConstraintSet, vid: int) -> tuple[float, ...]:
    return cs.unknowns[vid][1]


class TestCompileBellPolarization:
    def test_equal_pairs_emit_one_positive_constraint(self):
        alpha, beta = 0.37, 1.91
        cs = compile_bell_polarization([(alpha, alpha, beta, beta)], +1)
        assert len(cs.constraints) == 1
        constraint = cs.constraints[0]
        assert constraint.required_sign == +1
        assert tags_of(cs, 0) == ["A", "F", "D"]
        a_angles, f_angles, d_angles = (angles_of(cs, v) for v in constraint.var_ids)
        assert a_angles[0] == pytest.approx(alpha, abs=1e-9)
        assert f_angles == pytest.approx((alpha, beta), abs=1e-9)
        assert d_angles[0] == pytest.approx(beta, abs=1e-9)

    def test_generic_setting_emits_nothing(self):
        cs = compile_bell_polarization([(0, 0.3, 0.7, 0.1)], +1)
        assert cs.constraints == []
        assert cs.unknowns == []

    def test_zero_and_half_pi_signs(self):
        settings_list = [
            (0, PI / 4, PI / 4, 0),
            (0, PI / 4, 0, PI / 4),
        ]
        cs = compile_bell_polarization(settings_list, +1)
        assert [c.required_sign for c in cs.constraints] == [+1, -1]

    def test_variable_dedup_on_repeated_settings(self):
        setting = (0.2, 0.2, 0.9, 0.9)
        cs = compile_bell_polarization([setting, setting], +1)
        assert len(cs.constraints) == 2
        assert cs.n_variables == 3
        assert cs.constraints[0].var_ids == cs.constraints[1].var_ids

    def test_kappa_flips_the_rule(self):
        setting = (0, PI / 4, 0, PI / 4)
        plus = compile_bell_polarization([setting], +1)
        minus = compile_bell_polarization([setting], -1)
        assert plus.constraints[0].required_sign == -1
        assert minus.constraints[0].required_sign == +1

    @settings(max_examples=60, deadline=None)
    @given(
        phis=st.tuples(*(st.floats(-10, 10, allow_nan=False) for _ in range(4))),
        kappa=st.sampled_from([-1, +1]),
    )
    def test_emitted_constraints_match_their_provenance(self, phis, kappa):
        cs = compile_bell_polarization([phis], kappa)
        phase_class = classify_zeta(phis, kappa)
        if phase_class == 0:
            assert cs.constraints == []
        else:
            (constraint,) = cs.constraints
            assert constraint.required_sign == phase_class
            replayed = classify_zeta(cs.angles[0], kappa)
            assert replayed == phase_class


#: Unknowns of each rule, by function tag and angle positions, as the paper
#: states them: A(phi1) F(phi2, phi3) D(phi4) and F(phi2, phi3) G(phi1, phi4).
REPLAY_TERMS = {
    RULE_BELL_POLARIZATION: (("A", (0,)), ("F", (1, 2)), ("D", (3,))),
    RULE_DOUBLE_BELL: (("F", (1, 2)), ("G", (0, 3))),
}


class Replay:
    """The rows of a system built one at a time, as a reference for the
    compiler: each angle keyed by its own round(), each unknown registered
    on first use."""

    def __init__(self, kappa, label):
        self.kappa, self.label = kappa, label
        self.ids, self.variables, self.constraints = {}, [], []

    def unknown(self, tag, angles):
        keys = tuple(round(phi / ANGLE_QUANTUM) for phi in angles)
        if (tag, keys) not in self.ids:
            self.ids[tag, keys] = len(self.variables)
            self.variables.append((tag, [key * ANGLE_QUANTUM for key in keys]))
        return self.ids[tag, keys]

    def text(self):
        """The file the rows describe, as json.dumps writes it."""
        doc = system_document(self.kappa, self.variables, self.constraints, self.label)
        return json.dumps(doc, indent=2) + "\n"


def replay_compile(rule, settings_list, kappa, tol, label=""):
    """The compiler one setting at a time: one classify_zeta call each."""
    replay = Replay(kappa, label)
    for setting in settings_list:
        sign = classify_zeta(setting, kappa, tol)
        if sign == 0:
            continue
        angles = tuple(map(float, setting))
        terms = REPLAY_TERMS[rule]
        var_ids = [replay.unknown(tag, [angles[i] for i in slots]) for tag, slots in terms]
        replay.constraints.append((var_ids, sign, (angles, zeta(setting, kappa), rule)))
    return replay


def replay_factorization(replay):
    """apply_factorization through the angles of each F unknown."""
    for _, (x, y) in [var for var in replay.variables if var[0] == "F"]:
        var_ids = [
            replay.unknown("F", (x, y)),
            replay.unknown("A", (x,)),
            replay.unknown("D", (y,)),
        ]
        replay.constraints.append((var_ids, +1, ((x, x, y, y), 0.0, RULE_FACTORIZATION)))
    return replay


def file_text(cs):
    buffer = io.StringIO()
    dump_constraint_set(cs, buffer)
    return buffer.getvalue()


class TestArrayPassCompiler:
    """The compiler classifies all settings in one array pass; on the
    refute_grid settings it must write what the per-setting replay writes."""

    GRID = grid_settings(np.random.default_rng(303), 9)
    # every seventh setting again, 5e-7 rad off its phase: special only within
    # the wider tolerance, so the two tolerances compile different systems
    GRID += [(phi1 + 5e-7, phi2, phi3, phi4) for phi1, phi2, phi3, phi4 in GRID[::7]]

    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    @pytest.mark.parametrize("kappa", [+1, -1])
    @pytest.mark.parametrize("fig", [1, 2])
    def test_matches_per_setting_replay(self, fig, kappa, tol):
        if fig == 1:
            compiled = apply_factorization(
                compile_bell_polarization(self.GRID, kappa, tol, label="grid")
            )
            replayed = replay_factorization(
                replay_compile(RULE_BELL_POLARIZATION, self.GRID, kappa, tol, "grid")
            )
        else:
            compiled = compile_double_bell(self.GRID, kappa, tol, label="grid")
            replayed = replay_compile(RULE_DOUBLE_BELL, self.GRID, kappa, tol, "grid")
        assert compiled.constraints  # the grid has special settings in every case
        assert compiled.n_variables == len(replayed.variables)
        assert len(compiled.constraints) == len(replayed.constraints)
        # bytes, not ==: -0.0 == 0.0, but the two print differently
        assert file_text(compiled) == replayed.text()
        for constraint in compiled.constraints:
            assert type(constraint.required_sign) is int
        assert {type(zeta_value) for zeta_value in compiled.zetas} == {float}

    def test_empty_settings(self):
        cs = compile_double_bell([], -1)
        assert cs.unknowns == [] and cs.constraints == []

    @pytest.mark.parametrize("shape", [(4, 3), (8,), (2, 2, 4)])
    @pytest.mark.parametrize(
        "compile_fig", [compile_bell_polarization, compile_double_bell, compile_factored]
    )
    def test_misshaped_array_is_rejected(self, compile_fig, shape):
        # reshaping would compile settings that nobody gave
        message = f"angles must have shape (N, 4), got {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            compile_fig(np.zeros(shape), +1)

    @pytest.mark.parametrize("settings_arg", [np.zeros((0, 4)), []], ids=["array", "list"])
    def test_no_settings_compile_to_no_constraints(self, settings_arg):
        cs = compile_bell_polarization(settings_arg, +1)
        assert cs.unknowns == [] and cs.var_ids == []


class TestSettingsInput:
    """compile_* take any (N, 4) array-like of settings through one check."""

    COMPILERS = [compile_bell_polarization, compile_double_bell, compile_factored]

    @pytest.mark.parametrize(
        "rows",
        [
            [[0.0, 0.0, 0.0, 0.0]],
            [
                (0.1, 0.1 + PI / 4, 0.2 + PI / 4, 0.2),
                (0.1, 0.1 + PI / 4, 0.2, 0.2 + PI / 4),
                (0.3, 0.5, 0.7, 1.1),
                (0, 0, 1, 1),
            ],
        ],
        ids=["nested-list", "tuples"],
    )
    @pytest.mark.parametrize("compile_fig", COMPILERS)
    def test_plain_rows_compile_as_their_array(self, compile_fig, rows):
        from_rows = compile_fig(rows, +1)
        assert from_rows.var_ids  # each input has a special setting
        assert file_text(from_rows) == file_text(compile_fig(np.array(rows, dtype=float), +1))

    @pytest.mark.parametrize("compile_fig", COMPILERS)
    def test_non_finite_angles_are_rejected(self, compile_fig):
        # the two bad rows are not dropped: the whole input is refused
        settings = np.array([[0, math.nan, 0, 0], [math.inf, 0, 0, 0], [0, 0, 0, 0]])
        with pytest.raises(ValueError, match=r"^phi2 must be a finite real, got nan$"):
            compile_fig(settings, +1)
        with pytest.raises(ValueError, match=r"^phi1 must be a finite real, got -inf$"):
            compile_fig([(0.0, 0.0, 0.0, 0.0), (-math.inf, 0.0, 0.0, 0.0)], +1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("compile_fig", COMPILERS)
    def test_kept_angles_beyond_the_file_bound_are_rejected(self, compile_fig):
        # the loaders' message, raised before numpy divides and overflows
        message = r"^angle must be a number within \+-1\.8e\+299, got 1e\+300$"
        with pytest.raises(ValueError, match=message):
            compile_fig([[1e300, 1e300, 0, 0]], +1)

    @pytest.mark.parametrize("kappa", [0, 2, -2])
    def test_contradiction_settings_need_a_sector(self, kappa):
        with pytest.raises(ValueError, match=rf"^kappa must be \+1 or -1, got {kappa}$"):
            contradiction_settings(0.0, 0.0, kappa)

    def test_contradiction_settings_are_two_rows(self):
        settings = contradiction_settings(0.5, 1.5, -1)
        assert settings.shape == (2, 4) and settings.dtype == np.float64
        assert [classify_zeta(row, -1) for row in settings] == [+1, -1]
        assert contradiction_settings(0, 0, +1).tolist()[0] == [0.0, PI / 4, PI / 4, 0.0]


#: Angles where the array quantizer can part from round(): signed zeros,
#: tiny negatives (np.rint gives -0.0 where round() gives 0), halfway points
#: between keys, magnitudes past 2**53 keys (about 9e6 rad) and the largest
#: angles the loaders accept.
AWKWARD_ANGLES = st.one_of(
    st.sampled_from([-0.0, 0.0, -1e-10, -4.9e-10, -5e-10, 5e-10, 1e7, -1e7, 1.7e299, -1.7e299]),
    st.builds(lambda k: (k + 0.5) * 1e-9, st.integers(-(10**6), 10**6)),
    st.builds(lambda k: k * 2.0**-30 + 2.0**53 * 1e-9, st.integers(0, 2**20)),
    st.floats(-1e-8, 1e-8),
)


@st.composite
def awkward_settings(draw):
    """Settings built from at most three drawn base angles plus offsets of
    0, pi/4 or pi/2 on either arm, so that many sit at a special phase."""
    bases = draw(st.lists(AWKWARD_ANGLES, min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        a, b = draw(st.sampled_from(bases)), draw(st.sampled_from(bases))
        da, db = draw(st.sampled_from([0.0, PI / 4, PI / 2])), draw(st.sampled_from([0.0, PI / 4]))
        left = (a, a + da) if draw(st.booleans()) else (a + da, a)
        right = (b + db, b) if draw(st.booleans()) else (b, b + db)
        rows.append((*left, *right))
    return rows


class TestArrayQuantizer:
    """The compiler keys all angles with one np.rint; replay_compile keys
    them one round() at a time.  Both must write the same file."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        rows=awkward_settings(),
        kappa=st.sampled_from([+1, -1]),
        fig=st.sampled_from([1, 2]),
        factorize=st.booleans(),
    )
    def test_matches_round(self, rows, kappa, fig, factorize):
        rule = RULE_BELL_POLARIZATION if fig == 1 else RULE_DOUBLE_BELL
        compile_fig = compile_bell_polarization if fig == 1 else compile_double_bell
        compiled = compile_fig(np.array(rows, dtype=float).reshape(-1, 4), kappa, 1e-9)
        replayed = replay_compile(rule, rows, kappa, 1e-9)
        if factorize:
            compiled, replayed = apply_factorization(compiled), replay_factorization(replayed)
        assert file_text(compiled) == replayed.text()

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        phi=st.one_of(
            AWKWARD_ANGLES,
            st.sampled_from([_MAX_NUMBER, -_MAX_NUMBER, float(np.nextafter(_MAX_NUMBER, 0))]),
            st.floats(-1e30, 1e30),
            st.floats(-_MAX_NUMBER, _MAX_NUMBER),
        )
    )
    def test_grid_angle_is_its_own_grid_angle(self, phi):
        # apply_factorization compiles F(x, y) at the F unknown's grid angles,
        # so those must quantize back to themselves.  Angles are drawn, not
        # grid angles: a set only holds grid angles that quantize_angle made.
        grid = quantize_angle(phi)
        assert quantize_angle(grid) == grid
        # and two angles share a grid angle exactly when they share a step
        # count, so the grid tells apart every step that round() tells apart
        steps = np.rint(np.divide(phi, ANGLE_QUANTUM)) + 0.0
        assert np.rint(grid / ANGLE_QUANTUM) + 0.0 == steps

    def test_tiny_negative_angle_prints_as_zero(self):
        cs = compile_double_bell(np.array([[-1e-10, -1e-10, -4e-10, -4e-10]]), +1)
        assert _labels(cs, range(cs.n_variables)) == ["F(0.0, 0.0)", "G(0.0, 0.0)"]


class TestCompileTolerance:
    """A compiled constraint claims certainty, so its phase window may only
    admit settings whose violation probability sin(d)**2 / 2 stays below
    CERTAINTY_TOL."""

    def test_bound_is_the_widest_window_below_certainty_tol(self):
        assert 0.5 * math.sin(MAX_COMPILE_TOL) ** 2 < CERTAINTY_TOL
        assert 0.5 * math.sin(np.nextafter(MAX_COMPILE_TOL, 1)) ** 2 >= CERTAINTY_TOL

    @pytest.mark.parametrize("kappa", [+1, -1])
    def test_setting_at_the_window_edge_is_certain(self, kappa):
        edge = float(np.nextafter(MAX_COMPILE_TOL, 0))  # the window is open
        setting = (edge, 0.0, 0.0, 0.0)
        cs = compile_bell_polarization([setting], kappa, MAX_COMPILE_TOL)
        assert cs.required_signs == [+1]
        report = perfect_correlation_report(setting, MAX_COMPILE_TOL)
        sector = next(sector for sector in report["sectors"] if sector["kappa"] == kappa)
        assert sector["product_certain"] is True

    @pytest.mark.parametrize(
        "tol",
        [float(np.nextafter(MAX_COMPILE_TOL, 1)), 1.5e-6, 1e-3, 0.2, PI / 4, 0.0, -1e-9, math.nan],
    )
    @pytest.mark.parametrize(
        "compile_fig", [compile_bell_polarization, compile_double_bell, compile_factored]
    )
    def test_wider_tolerance_is_rejected(self, compile_fig, tol):
        with pytest.raises(ValueError, match="the widest phase window whose constraints stay"):
            compile_fig(contradiction_settings(0.1, 0.2, 1), +1, tol)


class TestCompileDoubleBell:
    def test_zero_phase_setting(self):
        alpha, beta = 0.5, 2.2
        cs = compile_double_bell([(alpha, alpha + PI / 4, beta + PI / 4, beta)], +1)
        (constraint,) = cs.constraints
        assert constraint.required_sign == +1
        assert tags_of(cs, 0) == ["F", "G"]
        f_angles, g_angles = (angles_of(cs, v) for v in constraint.var_ids)
        assert f_angles == pytest.approx((alpha + PI / 4, beta + PI / 4), abs=1e-9)
        assert g_angles == pytest.approx((alpha, beta), abs=1e-9)

    def test_half_pi_setting(self):
        alpha, beta = 0.5, 2.2
        cs = compile_double_bell([(alpha, alpha + PI / 4, beta, beta + PI / 4)], +1)
        (constraint,) = cs.constraints
        assert constraint.required_sign == -1

    def test_contradiction_settings_are_jointly_satisfiable_here(self):
        alpha, beta = 0.5, 2.2
        cs = compile_double_bell(contradiction_settings(alpha, beta, +1), +1)
        assert cs.n_variables == 4
        result = enumerate_solve(cs)
        assert result.status is SolveStatus.SAT

    def test_never_emits_a_or_d(self):
        rng = np.random.default_rng(2)
        settings_list = [(a, a, b, b) for a, b in rng.uniform(0, 2 * PI, size=(10, 2))]
        cs = compile_double_bell(settings_list, -1)
        assert all(tag in ("F", "G") for tag, _ in cs.unknowns)


def pi_lattice(n: int) -> np.ndarray:
    """Every setting whose four angles are k*pi/n, 0 <= k < n."""
    grid = np.meshgrid(*[np.arange(n) * PI / n] * 4, indexing="ij")
    return np.stack(grid, axis=-1).reshape(-1, 4)


def local_model_holds(settings, kappa: int, c: float) -> bool:
    """Whether the local model h(x - kappa*y, c) of every unknown (tag, (x, y))
    satisfies compile_double_bell(settings, kappa), where h(t, c) = +1 when
    (t - c + pi/4) mod pi < pi/2 and -1 otherwise.

    zeta = (phi1 - kappa*phi4) - (phi2 - kappa*phi3) is the difference of the
    arguments of G and F, and h takes equal values at arguments a multiple of
    pi apart and opposite ones an odd multiple of pi/2 apart, so the model
    meets every F*G certainty whose arguments stay off h's boundaries."""
    cs = compile_double_bell(settings, kappa)
    assert cs.constraints
    model = tuple(
        1 if (x - kappa * y - c + PI / 4) % PI < PI / 2 else -1 for _, (x, y) in cs.unknowns
    )
    return verify_certificate(cs, SolveResult(SolveStatus.SAT, model=model))


class TestDoubleBellLocalModel:
    """Fig 2 alone never refutes: an explicit local model satisfies every
    double Bell system, which is why ``refute --fig2`` expects sat."""

    @pytest.mark.parametrize("kappa", [1, -1])
    @pytest.mark.parametrize("seed", [301, 302, 303, 1, 7])
    def test_model_satisfies_the_benchmark_grids(self, seed, kappa):
        for bases in (1, 2, 3, 9):
            settings = grid_settings(np.random.default_rng(seed), bases)
            assert local_model_holds(settings, kappa, 0.0), bases

    @pytest.mark.parametrize("kappa", [1, -1])
    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_shifted_model_satisfies_the_pi_over_n_lattice(self, n, kappa):
        assert local_model_holds(pi_lattice(n), kappa, PI / (4 * n))

    @pytest.mark.parametrize("kappa", [1, -1])
    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_unshifted_model_fails_on_the_pi_over_n_lattice(self, n, kappa):
        # the lattice's arguments sit on h's boundaries at c = 0
        assert not local_model_holds(pi_lattice(n), kappa, 0.0)


class TestFactorization:
    def test_adds_definition_per_f_variable(self):
        alpha, beta = 0.4, 1.0
        cs = compile_bell_polarization([(alpha, alpha + PI / 4, beta, beta + PI / 4)], -1)
        out = apply_factorization(cs)
        assert len(cs.constraints) == 1  # input untouched
        assert len(out.constraints) == 2
        definition = out.constraints[1]
        assert definition.required_sign == +1
        assert out.equations[1] == RULE_FACTORIZATION
        assert tags_of(out, 1) == ["F", "A", "D"]
        f_angles, a_angles, d_angles = (angles_of(out, v) for v in definition.var_ids)
        assert a_angles[0] == pytest.approx(f_angles[0])
        assert d_angles[0] == pytest.approx(f_angles[1])

    @pytest.mark.parametrize("kappa", [+1, -1])
    def test_huge_f_angles_register_no_new_f_unknown(self, kappa):
        points = [(1e7 + 0.3, 1.7e299), (-1.7e299, -1e7 - 0.7), (1.7e299, 1e7 + 0.3)]
        cs = compile_double_bell([(x, x, y, y) for x, y in points], kappa)
        f_ids = [vid for vid, (tag, _) in enumerate(cs.unknowns) if tag == "F"]
        out = apply_factorization(cs)
        assert len(f_ids) == 3
        assert [unknown for unknown in out.unknowns if unknown[0] == "F"] == [
            cs.unknowns[vid] for vid in f_ids
        ]
        assert [row[0] for row in out.var_ids[len(cs.var_ids) :]] == f_ids
        assert out.n_variables == cs.n_variables + 6  # A(x) and D(y) per point

    def test_no_f_variables_is_a_fixed_point(self):
        cs = compile_factored([(0.1, 0.1, 0.2, 0.2)], +1)
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
                    (a, a + float(rng.choice(offsets)), b + float(rng.choice(offsets)), b)
                )
            kappa = int(rng.choice([-1, 1]))
            factorized = apply_factorization(compile_bell_polarization(settings_list, kappa))
            direct = compile_factored(settings_list, kappa)
            assert enumerate_solve(factorized).status is enumerate_solve(direct).status


class TestContradictionInstance:
    def test_shape_at_origin(self):
        cs = contradiction_instance(0.0, 0.0, +1)
        assert cs.n_variables == 4
        assert len(cs.constraints) == 2
        labels = set(_labels(cs, range(cs.n_variables)))
        assert labels == {"A(0.0)", "A(0.7853981630000001)", "D(0.0)", "D(0.7853981630000001)"}
        first, second = cs.constraints
        assert sorted(first.var_ids) == sorted(second.var_ids)
        assert {first.required_sign, second.required_sign} == {+1, -1}

    @pytest.mark.parametrize("kappa", [+1, -1])
    def test_zeta_values_in_provenance(self, kappa):
        cs = contradiction_instance(0.17, 1.2, kappa)
        assert cs.zetas[0] == pytest.approx(0.0, abs=1e-12)
        assert cs.zetas[1] == pytest.approx(-PI / 2, abs=1e-12)

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

    @pytest.mark.parametrize("kappa", [+1, -1])
    @pytest.mark.parametrize("alpha,beta", [(1e8, 0.5), (0.5, 1e8), (1e300, 1e300)])
    def test_angles_that_lose_the_offsets_raise(self, alpha, beta, kappa):
        # rounding moves a phase off 0 or -pi/2: no system, not an empty SAT one
        message = (
            f"at alpha={alpha!r}, beta={beta!r} rad the contradiction settings"
            " lose their pi/4 offsets in rounding; use angles of smaller magnitude"
        )
        for make in (contradiction_settings, contradiction_instance):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                make(alpha, beta, kappa)

    @pytest.mark.parametrize("kappa", [+1, -1])
    def test_large_angles_that_keep_the_offsets_still_refute(self, kappa):
        settings = contradiction_settings(1e7, 0.5, kappa)
        assert [classify_zeta(row, kappa) for row in settings] == [+1, -1]
        cs = contradiction_instance(1e7, 0.5, kappa)
        assert len(cs.var_ids) == 2
        assert enumerate_solve(cs).status is SolveStatus.UNSAT


def nudged(settings: np.ndarray) -> np.ndarray:
    """The settings with phi1 of the second one moved by -1e-13."""
    moved = np.array(settings)
    moved[1, 0] -= 1e-13
    return moved


def status_and_size(settings) -> tuple[SolveStatus, int]:
    cs = compile_factored(settings, +1)
    return enumerate_solve(cs).status, cs.n_variables


#: The open angle-canonicalization defect: an unknown holds its angles rounded
#: to the 1e-9 grid one angle at a time, so two angles 1e-13 apart that
#: straddle a grid boundary become two unknowns and the refutation is lost.
ROUNDING_DEFECT = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="angles are canonicalized one at a time: SAT over 5 unknowns",
)


class TestAngleCanonicalization:
    """Settings equal within far less than the angle grid compile to the same
    unknowns and status.  The strict xfails pin today's defect: once each
    compile canonicalizes its angles as a whole, they pass and so fail the
    suite until their marks come off."""

    def test_contradiction_near_a_grid_boundary_is_unsat(self):
        settings = contradiction_settings(1.5e-9, 0.0, +1)
        assert status_and_size(settings) == (SolveStatus.UNSAT, 4)

    @ROUNDING_DEFECT
    def test_a_move_across_the_boundary_keeps_it_unsat(self):
        settings = nudged(contradiction_settings(1.5e-9, 0.0, +1))
        assert status_and_size(settings) == (SolveStatus.UNSAT, 4)

    def test_moved_contradiction_off_the_boundary_is_unsat(self):
        settings = nudged(contradiction_settings(1.2e-9, 0.0, +1))
        assert status_and_size(settings) == (SolveStatus.UNSAT, 4)

    @ROUNDING_DEFECT
    def test_a_state_preserving_shift_keeps_it_unsat(self):
        # shifting phi1 and phi2 together leaves both sector phases unchanged
        settings = nudged(contradiction_settings(1.2e-9, 0.0, +1)) + [3e-10, 3e-10, 0.0, 0.0]
        assert status_and_size(settings) == (SolveStatus.UNSAT, 4)


#: Every maker of a system from a kappa and a label: the compilers get no settings.
MAKERS = {
    "ConstraintSet": ConstraintSet,
    "compile_bell_polarization": lambda k, label="": compile_bell_polarization([], k, label=label),
    "compile_double_bell": lambda k, label="": compile_double_bell([], k, label=label),
    "compile_factored": lambda k, label="": compile_factored([], k, label=label),
}


class TestConstraintSetInvariants:
    def test_context_kappa_validated(self):
        for kappa in (2, 0, True, 1.0):  # a file holds only the int +1 or -1
            with pytest.raises(ValueError):
                ConstraintSet(kappa)

    @pytest.mark.parametrize("kappa", [True, 1.0, np.int64(1)], ids=["bool", "float", "int64"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda kappa: zeta((0, 0, 0, 0), kappa),
            lambda kappa: classify_zeta((0, 0, 0, 0), kappa),
            lambda kappa: contradiction_settings(0.0, 0.0, kappa),
            *MAKERS.values(),
        ],
        ids=["zeta", "classify_zeta", "contradiction_settings", *MAKERS],
    )
    def test_every_kappa_is_an_exact_int(self, call, kappa):
        # one rule, the system's: a kappa that is not the int +1 or -1 fails
        message = f"kappa must be +1 or -1, got {kappa!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(kappa)

    @pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS)
    def test_context_label_validated(self, make):
        for label in (5, None, b"x"):  # a file holds only a string label
            message = f"label must be a string, got {label!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                make(+1, label)

    def test_constraints_are_rows_of_the_columns(self):
        settings_list = grid_settings(np.random.default_rng(7), 2)
        cs = apply_factorization(compile_bell_polarization(settings_list, +1))
        rows = [
            ParityConstraint(var_ids, sign) for var_ids, sign in zip(cs.var_ids, cs.required_signs)
        ]
        assert type(cs.constraints) is list and cs.constraints == rows
        assert len(rows) == len(cs.var_ids) > 0
        assert ConstraintSet(+1).constraints == []

    def test_equality_compares_context_variables_and_constraints(self):
        cs = contradiction_instance(0.0, 0.0, +1)
        assert cs == contradiction_instance(0.0, 0.0, +1)
        assert cs == cs.copy()
        flipped, other_kappa, other_label = cs.copy(), cs.copy(), cs.copy()
        flipped.required_signs[0] = -flipped.required_signs[0]
        other_kappa.kappa = -1
        other_label.label = "x"
        assert cs != flipped and cs != other_kappa and cs != other_label
        assert cs == contradiction_instance(0.0, 0.0, +1)  # the copies' edits left cs as it was
        assert cs != contradiction_instance(0.0, 0.1, +1)
