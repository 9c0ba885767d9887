"""Stable on-disk formats: settings JSON, constraint-set JSON and event CSV.

This is the one module that decides what a valid input is: both JSON loaders
check each field's exact JSON type and raise only ValueError, with a one-line
message.  Floats are written in Python's shortest round-trip repr, so
parse(serialize(x)) == x exactly.  The CSV schema is versioned by its pinned
header row; its columns, vocabulary and LF line endings are golden-tested.
"""

from __future__ import annotations

import json
import math
import sys
from typing import IO, Sequence

from .correlations import OUTCOME_ORDER, f_value_of, kappa_of
from .lhv import (
    ANGLE_QUANTUM,
    ConstraintSet,
    FunctionTag,
    HiddenContext,
    ParityConstraint,
    Provenance,
    SignVariable,
    quantize_angle,
)
from .quantum import AngleSettings
from .solver import SolveResult, SolveStatus

__all__ = [
    "FORMAT_VERSION",
    "EVENT_CSV_COLUMNS",
    "constraint_set_to_dict",
    "constraint_set_from_dict",
    "dump_constraint_set",
    "load_constraint_set",
    "load_settings",
    "solve_result_to_dict",
    "write_events_csv",
]

FORMAT_VERSION = 1

EVENT_CSV_COLUMNS = (
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


def _provenance_to_dict(provenance: Provenance) -> dict:
    return {
        "angles": list(provenance.angles),
        "zeta": provenance.zeta,
        "equation": provenance.equation,
    }


def constraint_set_to_dict(cs: ConstraintSet) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "context": {"kappa": cs.context.kappa, "label": cs.context.label},
        "variables": [
            {"id": i, "tag": var.tag.value, "angles": list(var.angles)}
            for i, var in enumerate(cs.variables)
        ],
        "constraints": [
            {
                "id": i,
                "vars": list(constraint.var_ids),
                "required_sign": constraint.required_sign,
                "provenance": _provenance_to_dict(constraint.provenance),
            }
            for i, constraint in enumerate(cs.constraints)
        ],
    }


def _integer(value, name: str) -> int:
    """A JSON integer, by exact type: int() truncates floats, and bool is an int."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


#: Largest magnitude whose angle key (lhv.quantize_angle) is a finite float.
_MAX_NUMBER = sys.float_info.max * ANGLE_QUANTUM


def _number(value, name: str) -> float:
    """A JSON number up to _MAX_NUMBER, by exact type: float() reads true as 1.0
    and "0.5" as 0.5, json reads NaN and Infinity, and an int may overflow float()."""
    if type(value) not in (int, float) or not abs(value) <= _MAX_NUMBER:
        raise ValueError(f"{name} must be a number within +-{_MAX_NUMBER:.2g}, got {value!r}")
    return float(value)


def load_settings(fp: IO[str], degrees: bool) -> list[AngleSettings]:
    """Read ``{"settings": [[phi1, phi2, phi3, phi4], ...]}`` or the bare list."""
    doc = json.load(fp)
    raw = doc.get("settings") if type(doc) is dict else doc
    if type(raw) is not list:
        raise ValueError(f"settings must be a list of 4-angle lists, got {raw!r}")
    settings = []
    for entry in raw:
        if type(entry) is not list or len(entry) != 4:
            raise ValueError(f"each setting needs 4 angles, got {entry!r}")
        values = [_number(a, "angle") for a in entry]
        settings.append(AngleSettings(*(map(math.radians, values) if degrees else values)))
    return settings


def constraint_set_from_dict(doc) -> ConstraintSet:
    version = doc.get("format_version") if type(doc) is dict else None
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"need an object of format_version {FORMAT_VERSION}, got {version!r}")
    ctx, var_list, con_list = doc.get("context"), doc.get("variables"), doc.get("constraints")
    label = ctx.get("label", "") if type(ctx) is dict else None
    if type(label) is not str or type(var_list) is not list or type(con_list) is not list:
        raise ValueError("need a context with a string label, and variables and constraints lists")
    context = HiddenContext(_integer(ctx.get("kappa"), "kappa"), label)
    variables: list[SignVariable] = []
    for i, entry in enumerate(var_list):
        if type(entry) is not dict or type(entry.get("angles")) is not list:
            raise ValueError(f"variable {i} must be an object with an angles list")
        if _integer(entry.get("id"), "variable id") != i:
            raise ValueError("variable ids must be 0..n-1 in order")
        keys = tuple(quantize_angle(_number(a, "angle")) for a in entry["angles"])
        variables.append(SignVariable(FunctionTag(entry.get("tag")), keys))
    constraints: list[ParityConstraint] = []
    for i, entry in enumerate(con_list):
        prov = entry.get("provenance") if type(entry) is dict else None
        if type(prov) is not dict or type(entry.get("vars")) is not list:
            raise ValueError(f"constraint {i} must be an object with vars and provenance")
        if _integer(entry.get("id"), "constraint id") != i:
            raise ValueError("constraint ids must be 0..n-1 in order")
        equation, angles = prov.get("equation"), prov.get("angles")
        if type(equation) is not str or type(angles) is not list or len(angles) != 4:
            raise ValueError(f"constraint {i} provenance needs 4 angles and an equation string")
        angles = tuple(_number(a, "provenance angle") for a in angles)
        provenance = Provenance(angles, _number(prov.get("zeta"), "zeta"), equation)
        var_ids = tuple(_integer(v, "constraint variable") for v in entry["vars"])
        sign = _integer(entry.get("required_sign"), "required_sign")
        constraints.append(ParityConstraint(var_ids, sign, provenance))
    return ConstraintSet(context=context, variables=variables, constraints=constraints)


def dump_constraint_set(cs: ConstraintSet, fp: IO[str]) -> None:
    json.dump(constraint_set_to_dict(cs), fp, indent=2)
    fp.write("\n")


def load_constraint_set(fp: IO[str]) -> ConstraintSet:
    return constraint_set_from_dict(json.load(fp))


def solve_result_to_dict(cs: ConstraintSet, result: SolveResult, verified: bool) -> dict:
    """Result document with human-readable variable labels and, on UNSAT,
    the full provenance of every certificate line."""
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "status": result.status.value,
        "verified": verified,
    }
    if result.status is SolveStatus.SAT:
        doc["model"] = {cs.variables[vid].label: value for vid, value in sorted(result.model.items())}
        doc["certificate"] = None
    else:
        doc["model"] = None
        doc["certificate"] = [
            {
                "id": cid,
                "variables": [cs.variables[vid].label for vid in cs.constraints[cid].var_ids],
                "required_sign": cs.constraints[cid].required_sign,
                "provenance": _provenance_to_dict(cs.constraints[cid].provenance),
            }
            for cid in result.certificate
        ]
    return doc


def write_events_csv(fp: IO[str], angles: AngleSettings, outcomes: Sequence[int]) -> int:
    """Write the pinned event schema; returns the number of rows written.

    ``outcomes`` are indices into OUTCOME_ORDER, as drawn by sample_events.
    Angles use shortest round-trip repr and rows get LF endings, so equal
    inputs serialize to identical bytes.
    """
    phis = ",".join(repr(phi) for phi in angles.as_tuple())
    suffixes = []
    for bell, pol_a, pol_d in OUTCOME_ORDER:
        f, a, d = f_value_of(bell), pol_a.sign, pol_d.sign
        suffixes.append(
            f"{phis},{bell.value},{pol_a.value},{pol_d.value},"
            f"{kappa_of(bell)},{f},{a},{d},{a * f * d}\n"
        )
    fp.write(",".join(EVENT_CSV_COLUMNS) + "\n")
    fp.writelines(f"{i},{suffixes[k]}" for i, k in enumerate(outcomes))
    return len(outcomes)
