"""Stable on-disk formats: constraint-set JSON and event CSV.

All JSON documents carry a ``format_version`` field.  Floats are written
with Python's shortest round-trip repr, so parse(serialize(x)) == x exactly.
The CSV schema is versioned by its pinned header row; columns, value
vocabulary, and LF line endings are fixed and golden-tested.  Every column
after the angles follows from the event's outcome, so an event row is its
index plus one of 16 fixed suffixes.
"""

from __future__ import annotations

import json
import math
from typing import IO, Sequence

from .correlations import OUTCOME_ORDER, f_value_of, kappa_of
from .lhv import (
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


def _number(value, name: str) -> float:
    """A finite JSON number, by exact type: float() reads true as 1.0 and "0.5"
    as 0.5, and json reads NaN and Infinity."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def constraint_set_from_dict(doc: dict) -> ConstraintSet:
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}")
    context = HiddenContext(
        kappa=_integer(doc["context"]["kappa"], "kappa"),
        label=str(doc["context"].get("label", "")),
    )
    variables: list[SignVariable] = []
    for i, entry in enumerate(doc["variables"]):
        if _integer(entry["id"], "variable id") != i:
            raise ValueError("variable ids must be 0..n-1 in order")
        variables.append(
            SignVariable(
                tag=FunctionTag(entry["tag"]),
                keys=tuple(quantize_angle(_number(a, "angle")) for a in entry["angles"]),
            )
        )
    constraints: list[ParityConstraint] = []
    for i, entry in enumerate(doc["constraints"]):
        if _integer(entry["id"], "constraint id") != i:
            raise ValueError("constraint ids must be 0..n-1 in order")
        prov = entry["provenance"]
        angles = tuple(_number(a, "provenance angle") for a in prov["angles"])
        if len(angles) != 4:
            raise ValueError("provenance angles must have 4 entries")
        constraints.append(
            ParityConstraint(
                var_ids=tuple(_integer(v, "constraint variable") for v in entry["vars"]),
                required_sign=_integer(entry["required_sign"], "required_sign"),
                provenance=Provenance(angles, _number(prov["zeta"], "zeta"), str(prov["equation"])),
            )
        )
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
