import copy
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellswap.correlations import OUTCOME_ORDER, f_value_of, kappa_of, sample_events
from bellswap.lhv import (
    ConstraintSet,
    FunctionTag,
    HiddenContext,
    Provenance,
    apply_factorization,
    compile_bell_polarization,
    compile_double_bell,
    compile_factored,
    contradiction_instance,
)
from bellswap.quantum import AngleSettings
from bellswap.serialize import (
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
