import copy
import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellswap.correlations import OUTCOME_ORDER, f_value_of, kappa_of, sample_events
from bellswap.lhv import (
    ANGLE_QUANTUM,
    ConstraintSet,
    FunctionTag,
    HiddenContext,
    Provenance,
    SignVariable,
    apply_factorization,
    compile_bell_polarization,
    compile_double_bell,
    compile_factored,
    contradiction_instance,
    float_reprs,
)
from bellswap.quantum import AngleSettings
from bellswap.serialize import (
    EVENT_CHUNK,
    EVENT_CSV_COLUMNS,
    FORMAT_VERSION,
    constraint_set_from_dict,
    constraint_set_to_dict,
    dump_constraint_set,
    load_constraint_set,
    load_settings,
    solve_result_to_dict,
    write_events_csv,
)
from bellswap.cli import main
from bellswap.solver import enumerate_solve

PI = math.pi

#: The exact bytes of the file written for contradiction_instance(0.0, 0.0, +1).
GOLDEN_INSTANCE_JSON = """\
{
  "format_version": 1,
  "context": {
    "kappa": 1,
    "label": "contradiction(alpha=0.0, beta=0.0)"
  },
  "variables": [
    {
      "id": 0,
      "tag": "A",
      "angles": [
        0.0
      ]
    },
    {
      "id": 1,
      "tag": "A",
      "angles": [
        0.7853981630000001
      ]
    },
    {
      "id": 2,
      "tag": "D",
      "angles": [
        0.7853981630000001
      ]
    },
    {
      "id": 3,
      "tag": "D",
      "angles": [
        0.0
      ]
    }
  ],
  "constraints": [
    {
      "id": 0,
      "vars": [
        0,
        1,
        2,
        3
      ],
      "required_sign": 1,
      "provenance": {
        "angles": [
          0.0,
          0.7853981633974483,
          0.7853981633974483,
          0.0
        ],
        "zeta": 0.0,
        "equation": "aadd-perfect-correlation"
      }
    },
    {
      "id": 1,
      "vars": [
        0,
        1,
        3,
        2
      ],
      "required_sign": -1,
      "provenance": {
        "angles": [
          0.0,
          0.7853981633974483,
          0.0,
          0.7853981633974483
        ],
        "zeta": -1.5707963267948966,
        "equation": "aadd-perfect-correlation"
      }
    }
  ]
}
"""

GOLDEN_CSV = (
    "event_id,phi1,phi2,phi3,phi4,bc_outcome,pol_a,pol_d,kappa,f,a,d,product\n"
    "0,0.0,0.0,0.0,0.0,psi-,H,V,1,-1,1,-1,1\n"
    "1,0.0,0.0,0.0,0.0,phi-,V,V,-1,1,-1,-1,1\n"
    "2,0.0,0.0,0.0,0.0,psi-,H,V,1,-1,1,-1,1\n"
    "3,0.0,0.0,0.0,0.0,psi+,V,H,-1,-1,-1,1,1\n"
    "4,0.0,0.0,0.0,0.0,phi+,H,H,1,1,1,1,1\n"
)


class TestConstraintSetJson:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            settings_list = [
                AngleSettings(a, a + PI / 4, b, b + PI / 4)
                for a, b in rng.uniform(0, 2 * PI, size=(3, 2))
            ]
            for compiled in (
                apply_factorization(
                    compile_bell_polarization(settings_list, HiddenContext(kappa=+1))
                ),
                compile_double_bell(settings_list, HiddenContext(kappa=-1, label="x")),
            ):
                assert constraint_set_from_dict(constraint_set_to_dict(compiled)) == compiled

    def test_round_trip_through_text(self):
        cs = contradiction_instance(1.1, -0.4, -1)
        buffer = io.StringIO()
        dump_constraint_set(cs, buffer)
        buffer.seek(0)
        assert load_constraint_set(buffer) == cs

    def test_golden_document(self):
        doc = constraint_set_to_dict(contradiction_instance(0.0, 0.0, +1))
        assert doc == json.loads(GOLDEN_INSTANCE_JSON)

    def test_golden_bytes(self):
        buffer = io.StringIO()
        dump_constraint_set(contradiction_instance(0.0, 0.0, +1), buffer)
        assert buffer.getvalue() == GOLDEN_INSTANCE_JSON

    def test_golden_parses_to_working_instance(self):
        cs = constraint_set_from_dict(json.loads(GOLDEN_INSTANCE_JSON))
        result = enumerate_solve(cs)
        assert result.certificate == (0, 1)

    def test_unknown_format_version_rejected(self):
        doc = constraint_set_to_dict(contradiction_instance(0.0, 0.0, +1))
        doc["format_version"] = 99
        with pytest.raises(ValueError, match="format_version"):
            constraint_set_from_dict(doc)

    def test_out_of_order_ids_rejected(self):
        doc = constraint_set_to_dict(contradiction_instance(0.0, 0.0, +1))
        doc["variables"][0]["id"] = 3
        with pytest.raises(ValueError):
            constraint_set_from_dict(doc)


#: Numbers at the edges of what the writer formats: signed zeros, the
#: smallest subnormal and magnitudes near the loaders' limit of about 1.8e299.
EDGE_NUMBERS = (-0.0, 0.0, 5e-324, -5e-324, 1.7e299, -1.7e299)
NUMBERS = st.floats(-7.0, 7.0) | st.sampled_from(EDGE_NUMBERS)
#: Free text, and strings json.dumps must escape: a quote, a backslash,
#: non-ASCII characters and control characters.
AWKWARD_TEXT = st.text(max_size=8) | st.sampled_from(
    ['"', "\\", "\u00e9 \u2211 \U0001f0a1", "\x00\x1f\n\t\x7f", '\u2028"\\']
)
KAPPAS = st.sampled_from([+1, -1])
ARITIES = {FunctionTag.A: 1, FunctionTag.D: 1, FunctionTag.F: 2, FunctionTag.G: 2}


@st.composite
def compiled_systems(draw):
    """A system compiled for either figure, factorized or not.  Each angle is
    one of at most two drawn bases plus a multiple of pi/4, so many settings
    sit at a special phase."""
    bases = draw(st.lists(NUMBERS, min_size=1, max_size=2))

    def angle():
        base, step = draw(st.sampled_from(bases)), draw(st.integers(0, 3))
        return base + step * PI / 4 if step else base

    settings_list = [
        AngleSettings(*(angle() for _ in range(4))) for _ in range(draw(st.integers(0, 10)))
    ]
    context = HiddenContext(draw(KAPPAS), draw(AWKWARD_TEXT))
    compile_fig = draw(
        st.sampled_from([compile_bell_polarization, compile_double_bell, compile_factored])
    )
    cs = compile_fig(settings_list, context)
    return apply_factorization(cs) if draw(st.booleans()) else cs


@st.composite
def hand_built_systems(draw):
    """A registry and constraints built directly, so that every provenance
    field, the list of angles included, can take any value."""
    cs = ConstraintSet(HiddenContext(draw(KAPPAS), draw(AWKWARD_TEXT)))
    for tag in draw(st.lists(st.sampled_from(list(FunctionTag)), min_size=1, max_size=4)):
        cs.variable_id(tag, draw(st.lists(NUMBERS, min_size=ARITIES[tag], max_size=ARITIES[tag])))
    for _ in range(draw(st.integers(0, 4))):
        var_ids = draw(st.lists(st.integers(0, cs.n_variables - 1), min_size=1, max_size=4))
        angles = tuple(draw(st.lists(NUMBERS, max_size=5)))
        provenance = Provenance(angles, draw(NUMBERS), draw(AWKWARD_TEXT))
        cs.add_constraint(tuple(var_ids), draw(KAPPAS), provenance)
    return cs


def dumped(cs: ConstraintSet) -> str:
    buffer = io.StringIO()
    dump_constraint_set(cs, buffer)
    return buffer.getvalue()


class TestWriter:
    """dump_constraint_set writes the bytes json.dumps(..., indent=2) would."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        compiled_systems()
        | hand_built_systems()
        | st.builds(ConstraintSet, st.builds(HiddenContext, KAPPAS, AWKWARD_TEXT))
    )
    def test_bytes_match_the_json_module(self, cs):
        assert dumped(cs) == json.dumps(constraint_set_to_dict(cs), indent=2) + "\n"

    @pytest.mark.parametrize("label", ['"', "\\", "\u00e9\u2211", "\x00\x1f\n", "\u2028"])
    def test_edge_numbers_and_labels(self, label):
        cs = ConstraintSet(HiddenContext(+1, label))
        vid = cs.variable_id(FunctionTag.F, EDGE_NUMBERS[-2:])
        for value in EDGE_NUMBERS:
            cs.add_constraint((vid,), -1, Provenance((value, -0.0, 5e-324, 1.7e299), value, label))
        text = dumped(cs)
        assert text == json.dumps(constraint_set_to_dict(cs), indent=2) + "\n"
        assert load_constraint_set(io.StringIO(text)) == cs
        assert '"zeta": -0.0,' in text and '"zeta": 5e-324,' in text


#: Any JSON scalar, with integers beyond the float range among the numbers.
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.floats()
    | st.integers()
    | st.sampled_from([10**400, -(2**1024)])
    | st.text(max_size=3)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
VALID_DOCUMENT = constraint_set_to_dict(contradiction_instance(0.0, 0.0, +1))
MISSING = object()  # a replacement that deletes the field


def field_paths(node, path=()):
    """The key path of every field below ``node``."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        yield (*path, key)
        if isinstance(child, (dict, list)):
            yield from field_paths(child, (*path, key))


def with_field(path, value):
    """VALID_DOCUMENT with the field at ``path`` replaced by ``value``."""
    doc = copy.deepcopy(VALID_DOCUMENT)
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is MISSING:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return doc


def loads_or_raises_value_error(load, value):
    try:
        load(value)
    except ValueError as exc:
        assert "\n" not in str(exc)


class TestLoaderFuzz:
    """Every input either loads or raises ValueError with a one-line message:
    anything else would be a bug in the loader, not malformed input."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.one_of(
            JSON_VALUES,
            st.builds(
                with_field,
                st.sampled_from(list(field_paths(VALID_DOCUMENT))),
                JSON_VALUES | st.just(MISSING),
            ),
        )
    )
    def test_constraint_loader(self, doc):
        loads_or_raises_value_error(constraint_set_from_dict, doc)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.one_of(
            JSON_VALUES,
            st.lists(st.lists(JSON_SCALARS, min_size=3, max_size=5), max_size=3),
            st.fixed_dictionaries({"settings": JSON_VALUES}),
        ),
        st.booleans(),
    )
    def test_settings_loader(self, doc, degrees):
        text = json.dumps(doc)
        loads_or_raises_value_error(lambda fp: load_settings(fp, degrees), io.StringIO(text))


def edited(*edits):
    """VALID_DOCUMENT with each (path, value) edit applied in turn."""
    doc = copy.deepcopy(VALID_DOCUMENT)
    for path, value in edits:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return doc


NUMBER_LIMIT = "must be a number within +-1.8e+299, got"

#: The largest integer the loaders take as a number.  The next integer rounds
#: to it as a float, so only an exact comparison refuses that one.
LARGEST_INT = int(sys.float_info.max * ANGLE_QUANTUM)

#: Malformed settings documents and the exact one-line message of each.
MALFORMED_SETTINGS = {
    "bool-angle": ([[0, True, 0, 0]], f"angle {NUMBER_LIMIT} True"),
    "nan-angle": ({"settings": [[0, 0, math.nan, 0]]}, f"angle {NUMBER_LIMIT} nan"),
    "huge-int-angle": ([[0, 0, 0, 10**400]], f"angle {NUMBER_LIMIT} {10**400}"),
    "int-just-past-limit": (
        [[0, -LARGEST_INT - 1, 0, 0]],
        f"angle {NUMBER_LIMIT} {-LARGEST_INT - 1}",
    ),
    "three-angles": ([[0, 0, 0]], "each setting needs 4 angles, got [0, 0, 0]"),
    "not-a-list": (
        {"settings": {"a": 1}},
        "settings must be a list of 4-angle lists, got {'a': 1}",
    ),
    # the first offending entry wins, whichever check it fails
    "angle-before-shape": ([[0, 0, 0, "x"], [0]], f"angle {NUMBER_LIMIT} 'x'"),
    "shape-before-angle": ([[0], [0, 0, 0, "x"]], "each setting needs 4 angles, got [0]"),
    "first-of-two-angles": ([[0, 0, math.inf, -math.inf]], f"angle {NUMBER_LIMIT} inf"),
}

#: Malformed constraint-system documents and the exact one-line message of each.
MALFORMED_SYSTEMS = {
    "kappa-zero": (edited((["context", "kappa"], 0)), "kappa must be +1 or -1, got 0"),
    "string-kappa": (edited((["context", "kappa"], "1")), "kappa must be an integer, got '1'"),
    "variable-not-object": (
        edited((["variables", 1], [0.0])),
        "variable 1 must be an object with an angles list",
    ),
    "bool-variable-id": (
        edited((["variables", 0, "id"], False)),
        "variable id must be an integer, got False",
    ),
    "variable-ids-out-of-order": (
        edited((["variables", 1, "id"], 2), (["variables", 2, "id"], 1)),
        "variable ids must be 0..n-1 in order",
    ),
    "bool-variable-angle": (
        edited((["variables", 2, "angles", 0], True)),
        f"angle {NUMBER_LIMIT} True",
    ),
    "unknown-tag": (edited((["variables", 3, "tag"], "B")), "'B' is not a valid FunctionTag"),
    "list-tag": (edited((["variables", 0, "tag"], ["A"])), "['A'] is not a valid FunctionTag"),
    "f-with-one-angle": (edited((["variables", 1, "tag"], "F")), "F takes 2 angle(s)"),
    "a-with-two-angles": (edited((["variables", 0, "angles"], [0.0, 0.0])), "A takes 1 angle(s)"),
    "duplicate-unknowns": (
        edited((["variables", 1, "angles"], [0.0])),
        "duplicate variables in registry",
    ),
    "constraint-not-object": (
        edited((["constraints", 1], None)),
        "constraint 1 must be an object with vars and provenance",
    ),
    "constraint-ids-out-of-order": (
        edited((["constraints", 0, "id"], 1)),
        "constraint ids must be 0..n-1 in order",
    ),
    "float-constraint-id": (
        edited((["constraints", 1, "id"], 1.0)),
        "constraint id must be an integer, got 1.0",
    ),
    "three-provenance-angles": (
        edited((["constraints", 0, "provenance", "angles"], [0.0, 0.0, 0.0])),
        "constraint 0 provenance needs 4 angles and an equation string",
    ),
    "non-string-equation": (
        edited((["constraints", 1, "provenance", "equation"], ["aadd"])),
        "constraint 1 provenance needs 4 angles and an equation string",
    ),
    "string-provenance-angle": (
        edited((["constraints", 1, "provenance", "angles", 3], "0")),
        f"provenance angle {NUMBER_LIMIT} '0'",
    ),
    "int-angle-just-past-limit": (
        edited((["variables", 1, "angles", 0], LARGEST_INT + 1)),
        f"angle {NUMBER_LIMIT} {LARGEST_INT + 1}",
    ),
    "int-zeta-just-past-limit": (
        edited((["constraints", 1, "provenance", "zeta"], LARGEST_INT + 1)),
        f"zeta {NUMBER_LIMIT} {LARGEST_INT + 1}",
    ),
    "huge-zeta": (
        edited((["constraints", 0, "provenance", "zeta"], -1e300)),
        f"zeta {NUMBER_LIMIT} -1e+300",
    ),
    "float-variable-reference": (
        edited((["constraints", 1, "vars", 2], 3.0)),
        "constraint variable must be an integer, got 3.0",
    ),
    "bool-required-sign": (
        edited((["constraints", 0, "required_sign"], True)),
        "required_sign must be an integer, got True",
    ),
    "list-required-sign": (
        edited((["constraints", 1, "required_sign"], [1])),
        "required_sign must be an integer, got [1]",
    ),
    "zero-required-sign": (
        edited((["constraints", 1, "required_sign"], 0)),
        "required_sign must be +1 or -1, got 0",
    ),
    "no-variables-in-constraint": (
        edited((["constraints", 0, "vars"], [])),
        "a constraint needs at least one variable",
    ),
    "variable-id-out-of-range": (
        edited((["constraints", 1, "vars", 1], 7), (["constraints", 1, "vars", 2], -1)),
        "constraint references unregistered variable id 7",
    ),
    # in one entry the checks keep their order
    "angle-before-tag": (
        edited((["variables", 0, "tag"], "B"), (["variables", 0, "angles", 0], "x")),
        f"angle {NUMBER_LIMIT} 'x'",
    ),
    "zeta-before-sign": (
        edited(
            (["constraints", 1, "required_sign"], 0),
            (["constraints", 1, "provenance", "zeta"], True),
        ),
        f"zeta {NUMBER_LIMIT} True",
    ),
    # the first offending entry wins, whichever check it fails
    "id-before-later-object": (
        edited((["variables", 0, "id"], "0"), (["variables", 1], None)),
        "variable id must be an integer, got '0'",
    ),
    "object-before-later-angle": (
        edited((["variables", 0], None), (["variables", 1, "angles", 0], "x")),
        "variable 0 must be an object with an angles list",
    ),
    "zeta-before-later-object": (
        edited((["constraints", 0, "provenance", "zeta"], None), (["constraints", 1], [])),
        f"zeta {NUMBER_LIMIT} None",
    ),
    "sign-before-later-angle": (
        edited(
            (["constraints", 0, "required_sign"], 2),
            (["constraints", 1, "provenance", "angles", 0], None),
        ),
        "required_sign must be +1 or -1, got 2",
    ),
    "variable-error-before-constraint-error": (
        edited((["variables", 3, "tag"], "G"), (["constraints", 0], None)),
        "G takes 2 angle(s)",
    ),
    "constraint-error-before-duplicate": (
        edited((["variables", 1, "angles"], [0.0]), (["constraints", 1, "vars"], [])),
        "a constraint needs at least one variable",
    ),
    "duplicate-before-range": (
        edited((["variables", 1, "angles"], [0.0]), (["constraints", 1, "vars", 0], 9)),
        "duplicate variables in registry",
    ),
}


class TestLoaderMessages:
    """Each malformed document fails with the exact one-line message the
    loaders gave when they checked one field at a time: the first offending
    entry, and in it the first failing check, names the error."""

    @pytest.mark.parametrize("degrees", [False, True])
    @pytest.mark.parametrize("doc,message", MALFORMED_SETTINGS.values(), ids=MALFORMED_SETTINGS)
    def test_settings(self, doc, message, degrees):
        with pytest.raises(ValueError) as excinfo:
            load_settings(io.StringIO(json.dumps(doc)), degrees)
        assert str(excinfo.value) == message

    def test_largest_int_is_a_number(self):
        phis = load_settings(io.StringIO(json.dumps([[LARGEST_INT, 0, 0, -LARGEST_INT]])), False)
        assert phis.tolist() == [[float(LARGEST_INT), 0.0, 0.0, -float(LARGEST_INT)]]

    @pytest.mark.parametrize("doc,message", MALFORMED_SYSTEMS.values(), ids=MALFORMED_SYSTEMS)
    def test_constraint_systems(self, doc, message):
        with pytest.raises(ValueError) as excinfo:
            constraint_set_from_dict(doc)
        assert str(excinfo.value) == message
        with pytest.raises(ValueError) as excinfo:
            load_constraint_set(io.StringIO(json.dumps(doc)))
        assert str(excinfo.value) == message


class TestSolveResultJson:
    def test_unsat_document_names_experiments(self):
        cs = contradiction_instance(0.0, 0.0, +1)
        result = enumerate_solve(cs)
        doc = solve_result_to_dict(cs, result, verified=True)
        assert doc["status"] == "unsat"
        assert doc["model"] is None
        assert [entry["id"] for entry in doc["certificate"]] == [0, 1]
        assert doc["certificate"][0]["variables"][0] == "A(0.0)"
        assert doc["certificate"][0]["provenance"]["equation"] == "aadd-perfect-correlation"
        signs = [entry["required_sign"] for entry in doc["certificate"]]
        assert sorted(signs) == [-1, 1]

    def test_sat_document_lists_model(self):
        cs = compile_double_bell(
            [AngleSettings(0.1, 0.1 + PI / 4, 0.2 + PI / 4, 0.2)], HiddenContext(kappa=+1)
        )
        result = enumerate_solve(cs)
        doc = solve_result_to_dict(cs, result, verified=True)
        assert doc["status"] == "sat"
        assert doc["certificate"] is None
        assert set(doc["model"].values()) <= {-1, 1}
        assert json.loads(json.dumps(doc)) == doc


class TestNegativeZero:
    """-0.0 prints as -0.0, as json prints it, next to 0.0 in the same file:
    a table of reprs keyed by float value would merge the two."""

    @pytest.mark.parametrize("n", [3, 40])  # distinct values, and each repeated
    def test_repr_table(self, n):
        values = [(-0.0, 0.0, 2.5, -2.5, 5e-324, -0.0)[i % 6] for i in range(n)]
        assert float_reprs(values) == list(map(repr, values)) == list(map(json.dumps, values))

    @pytest.mark.parametrize("copies", [1, 4])  # 14 and 44 numbers in the file
    def test_constraint_file(self, capsys, tmp_path, copies):
        settings, system = tmp_path / "settings.json", tmp_path / "system.json"
        # zeta = (-0.0 - 0.0) + (-0.0 - 0.0) is -0.0; the second setting's is 0.0
        settings.write_text(json.dumps([[-0.0, 0.0, -0.0, 0.0], [0.0, 0.0, 0.0, 0.0]] * copies))
        argv = ["compile", "--settings", str(settings), "--kappa", "1", "--out", str(system)]
        assert main(argv) == 0
        text = system.read_text()
        cs = load_constraint_set(io.StringIO(text))
        assert cs.zetas == [-0.0, 0.0] * copies and math.copysign(1.0, cs.zetas[0]) == -1.0
        assert text == json.dumps(constraint_set_to_dict(cs), indent=2) + "\n"
        assert '"zeta": -0.0,' in text and '"zeta": 0.0,' in text
        assert text.count("-0.0") == 3 * copies  # two provenance angles and one zeta

    def test_solve_labels(self):
        variables = [
            SignVariable(FunctionTag.A, (-0.0,)),
            SignVariable(FunctionTag.D, (0.0,)),
            SignVariable(FunctionTag.F, (-0.0, 0.0)),
        ]
        cs = ConstraintSet(HiddenContext(+1), variables)
        provenance = Provenance((-0.0, 0.0, -0.0, 0.0), -0.0, "hand-built")
        cs.add_constraint((0, 1, 2), +1, provenance)
        labels = [f"A({json.dumps(-0.0)})", f"D({json.dumps(0.0)})", "F(-0.0, 0.0)"]
        assert cs.labels(range(3)) == [var.label for var in cs.variables] == labels
        assert cs.labels([0, 1, 2] * 11) == labels * 11  # through the repr table
        doc = solve_result_to_dict(cs, enumerate_solve(cs), verified=True)
        assert list(doc["model"]) == labels
        cs.add_constraint((0, 1, 2), -1, provenance)
        doc = solve_result_to_dict(cs, enumerate_solve(cs), verified=True)
        assert [line["variables"] for line in doc["certificate"]] == [labels, labels]
        assert json.dumps(doc["certificate"][0]["provenance"]["zeta"]) == "-0.0"
        assert dumped(cs) == json.dumps(constraint_set_to_dict(cs), indent=2) + "\n"


class TestEventCsv:
    def test_columns_are_pinned(self):
        assert EVENT_CSV_COLUMNS == (
            "event_id",
            "phi1",
            "phi2",
            "phi3",
            "phi4",
            "bc_outcome",
            "pol_a",
            "pol_d",
            "kappa",
            "f",
            "a",
            "d",
            "product",
        )

    def test_golden_bytes(self):
        angles = AngleSettings(0, 0, 0, 0)
        events = sample_events(angles, 5, seed=42)
        buffer = io.StringIO()
        assert write_events_csv(buffer, angles, events) == 5
        assert buffer.getvalue() == GOLDEN_CSV

    def test_empty_event_list_writes_header_only(self):
        buffer = io.StringIO()
        assert write_events_csv(buffer, AngleSettings(0, 0, 0, 0), []) == 0
        assert buffer.getvalue() == ",".join(EVENT_CSV_COLUMNS) + "\n"

    def test_every_outcome_row_follows_from_the_outcome(self):
        angles = AngleSettings(0.1, PI / 4, -2.5, 1e-9)
        buffer = io.StringIO()
        assert write_events_csv(buffer, angles, range(16)) == 16
        rows = buffer.getvalue().splitlines()[1:]
        assert len(rows) == len(OUTCOME_ORDER) == 16
        for k, (row, (bell, pol_a, pol_d)) in enumerate(zip(rows, OUTCOME_ORDER)):
            kappa, f, a, d = kappa_of(bell), f_value_of(bell), pol_a.sign, pol_d.sign
            assert row == (
                f"{k},0.1,{PI / 4!r},-2.5,1e-09,{bell.value},{pol_a.value},{pol_d.value},"
                f"{kappa},{f},{a},{d},{a * f * d}"
            )

    def test_one_call_writes_a_chunk_at_a_time(self):
        # memory is bounded for every caller: each write holds at most one
        # chunk of rows, and the ids continue from start across the chunks
        angles, n, start = AngleSettings(0.1, PI / 4, -2.5, 1e-9), 2 * EVENT_CHUNK + 3, 7
        outcomes = [k % 16 for k in range(n)]
        writes = []
        buffer = io.StringIO()
        buffer.write = lambda text: writes.append(text) or len(text)
        assert write_events_csv(buffer, angles, outcomes, start) == n
        assert [text.count("\n") for text in writes] == [EVENT_CHUNK, EVENT_CHUNK, 3]
        table = io.StringIO()
        write_events_csv(table, angles, range(16))
        tails = [row.split(",", 1)[1] for row in table.getvalue().splitlines()[1:]]
        expected = [f"{start + i},{tails[k]}" for i, k in enumerate(outcomes)]
        assert "".join(writes).splitlines() == expected
        array = io.StringIO()
        write_events_csv(array, angles, np.array(outcomes), start)
        assert array.getvalue() == "".join(writes)

    def test_angles_round_trip_through_repr(self):
        angles = AngleSettings(0.1, PI / 4, -2.5, 1e-9)
        events = sample_events(angles, 3, seed=0)
        buffer = io.StringIO()
        write_events_csv(buffer, angles, events)
        lines = buffer.getvalue().splitlines()
        _, phi1, phi2, phi3, phi4, *_ = lines[1].split(",")
        assert (float(phi1), float(phi2), float(phi3), float(phi4)) == angles.as_tuple()

    def test_format_version_constant(self):
        assert FORMAT_VERSION == 1
