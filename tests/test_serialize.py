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
    HiddenContext,
    apply_factorization,
    compile_bell_polarization,
    compile_double_bell,
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

GOLDEN_INSTANCE_JSON = """\
{
  "format_version": 1,
  "context": {
    "kappa": 1,
    "label": "contradiction(alpha=0.0, beta=0.0)"
  },
  "variables": [
    {"id": 0, "tag": "A", "angles": [0.0]},
    {"id": 1, "tag": "A", "angles": [0.7853981630000001]},
    {"id": 2, "tag": "D", "angles": [0.7853981630000001]},
    {"id": 3, "tag": "D", "angles": [0.0]}
  ],
  "constraints": [
    {
      "id": 0,
      "vars": [0, 1, 2, 3],
      "required_sign": 1,
      "provenance": {
        "angles": [0.0, 0.7853981633974483, 0.7853981633974483, 0.0],
        "zeta": 0.0,
        "equation": "aadd-perfect-correlation"
      }
    },
    {
      "id": 1,
      "vars": [0, 1, 3, 2],
      "required_sign": -1,
      "provenance": {
        "angles": [0.0, 0.7853981633974483, 0.0, 0.7853981633974483],
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
