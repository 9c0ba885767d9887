"""Stable on-disk formats: settings JSON, constraint-set JSON and event CSV.

This is the one module that decides what a valid input is: both JSON loaders
check each field's exact JSON type and raise only ValueError, with a one-line
message, also on input nested too deeply to parse.  They check and fill one
column at a time: load_settings returns the (N, 4) angle array the compiler
takes, and constraint_set_from_dict fills the columns of a ConstraintSet
(see lhv) without building a row object.  Each still raises the error a
field-by-field check would raise first.  Floats are written in Python's
shortest round-trip repr, so parse(serialize(x)) == x exactly.  The
constraint-system file is pinned byte for byte: it is what json.dumps with
indent=2 prints for constraint_set_to_dict, written instead from one layout
per row shape, with one % call per chunk of rows; each distinct float is
formatted once (lhv.float_reprs, which keeps -0.0 apart from 0.0).  The
event CSV is written by write_events_csv in chunks of EVENT_CHUNK events:
each chunk's rows are formatted by one % call over (event id, row text)
pairs, the header precedes event 0 and the ids continue from the call's
start, so a file can be written in several calls.  The CSV schema is
versioned by its pinned header row; its columns, vocabulary and LF line
endings are golden-tested.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Callable, Iterator
from contextlib import suppress
from functools import cache
from itertools import chain, islice, repeat
from typing import IO, Sequence

import numpy as np

from .correlations import OUTCOME_ORDER, f_value_of, kappa_of
from .lhv import (
    ANGLE_QUANTUM,
    TAG_ARITY,
    ConstraintSet,
    HiddenContext,
    float_reprs,
    quantize_angle,
)
from .quantum import AngleSettings
from .solver import SolveResult, SolveStatus

__all__ = [
    "FORMAT_VERSION",
    "EVENT_CSV_COLUMNS",
    "EVENT_CHUNK",
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


def _provenance_to_dict(angles, zeta: float, equation: str) -> dict:
    return {"angles": list(angles), "zeta": zeta, "equation": equation}


def constraint_set_to_dict(cs: ConstraintSet) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "context": {"kappa": cs.context.kappa, "label": cs.context.label},
        "variables": [
            {"id": i, "tag": tag, "angles": [key * ANGLE_QUANTUM for key in keys]}
            for i, (tag, keys) in enumerate(cs.unknowns)
        ],
        "constraints": [
            {
                "id": i,
                "vars": list(var_ids),
                "required_sign": sign,
                "provenance": _provenance_to_dict(angles, zeta, equation),
            }
            for i, (var_ids, sign, angles, zeta, equation) in enumerate(
                zip(cs.var_ids, cs.required_signs, cs.angles, cs.zetas, cs.equations)
            )
        ],
    }


#: Largest magnitude whose angle key (lhv.quantize_angle) is a finite float.
_MAX_NUMBER = sys.float_info.max * ANGLE_QUANTUM


def _parse(fp: IO[str]):
    """json.load, raising ValueError also on input nested too deeply to parse."""
    try:
        return json.load(fp)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _types(values: list) -> set:
    return set(map(type, values))


def _field(entries: list[dict], key: str) -> list:
    return list(map(dict.get, entries, repeat(key)))


def _integers(values: list, name: str) -> None:
    """Exact JSON integers: int() truncates floats, and bool is an int."""
    if not _types(values) <= {int}:
        bad = next(value for value in values if type(value) is not int)
        raise ValueError(f"{name} must be an integer, got {bad!r}")


def _check_ids(entries: list[dict], start: int, kind: str) -> None:
    """Entry i of the list has the integer id start + i."""
    ids = _field(entries, "id")
    _integers(ids, f"{kind} id")
    if ids != list(range(start, start + len(ids))):
        raise ValueError(f"{kind} ids must be 0..n-1 in order")


def _numbers(values: list, name: str) -> np.ndarray:
    """Exact JSON numbers up to _MAX_NUMBER, as one float array: float()
    reads true as 1.0 and "0.5" as 0.5, json reads NaN and Infinity, and an
    int may overflow a float."""
    if _types(values) <= {int, float}:
        with suppress(OverflowError):  # an int beyond the float range
            array = np.array(values, dtype=float)
            peak = np.abs(array).max(initial=0.0)  # NaN fails both tests below
            # an int just past _MAX_NUMBER rounds to it: compare as Python numbers
            exact = peak < _MAX_NUMBER or all(abs(v) <= _MAX_NUMBER for v in values)
            if peak <= _MAX_NUMBER and exact:
                return array
    bad = next(v for v in values if type(v) not in (int, float) or not abs(v) <= _MAX_NUMBER)
    raise ValueError(f"{name} must be a number within +-{_MAX_NUMBER:.2g}, got {bad!r}")


def _checked(columns: Callable[[list, int], object], entries: list):
    """``columns(entries, 0)``: the columns of a JSON list, each checked in
    one pass, in the order the checks apply to one entry.  If a check fails,
    the entries are checked one at a time as ``columns([entry], index)``, so
    the error raised is the one an entry-by-entry check gives first, and
    ``columns`` need only word its messages right for a one-entry list."""
    try:
        return columns(entries, 0)
    except ValueError:
        for index, entry in enumerate(entries):
            columns([entry], index)
        raise


def _setting_columns(entries: list, start: int) -> np.ndarray:
    if not _types(entries) <= {list} or not set(map(len, entries)) <= {4}:
        raise ValueError(f"each setting needs 4 angles, got {entries[0]!r}")
    return _numbers(list(chain.from_iterable(entries)), "angle").reshape(-1, 4)


def load_settings(fp: IO[str], degrees: bool) -> np.ndarray:
    """Read ``{"settings": [[phi1, phi2, phi3, phi4], ...]}`` or the bare list
    as the (N, 4) array of radians that lhv's compile_* functions take."""
    doc = _parse(fp)
    raw = doc.get("settings") if type(doc) is dict else doc
    if type(raw) is not list:
        raise ValueError(f"settings must be a list of 4-angle lists, got {raw!r}")
    phis = _checked(_setting_columns, raw)
    return np.radians(phis) if degrees else phis


def _variable_columns(entries: list, start: int) -> list[tuple[str, tuple]]:
    """The (tag code, angle keys) pair of each variable entry."""
    if not _types(entries) <= {dict} or not _types(angles := _field(entries, "angles")) <= {list}:
        raise ValueError(f"variable {start} must be an object with an angles list")
    _check_ids(entries, start, "variable")
    keys = iter(quantize_angle(_numbers(list(chain.from_iterable(angles)), "angle")).tolist())
    tags = _field(entries, "tag")
    if not _types(tags) <= {str} or not set(tags) <= TAG_ARITY.keys():
        raise ValueError(f"{tags[0]!r} is not a valid FunctionTag")
    arities = list(map(TAG_ARITY.get, tags))
    if list(map(len, angles)) != arities:
        raise ValueError(f"{tags[0]} takes {arities[0]} angle(s)")
    return [(tag, tuple(islice(keys, arity))) for tag, arity in zip(tags, arities)]


def _constraint_columns(entries: list, start: int) -> tuple[list, ...]:
    """The var_ids, required_signs, angles, zetas and equations columns of
    the constraint entries."""
    if (
        not _types(entries) <= {dict}
        or not _types(provenances := _field(entries, "provenance")) <= {dict}
        or not _types(var_ids := _field(entries, "vars")) <= {list}
    ):
        raise ValueError(f"constraint {start} must be an object with vars and provenance")
    _check_ids(entries, start, "constraint")
    equations, angles = _field(provenances, "equation"), _field(provenances, "angles")
    if (
        not _types(equations) <= {str}
        or not _types(angles) <= {list}
        or not set(map(len, angles)) <= {4}
    ):
        raise ValueError(f"constraint {start} provenance needs 4 angles and an equation string")
    angles = _numbers(list(chain.from_iterable(angles)), "provenance angle").tolist()
    zetas = _numbers(_field(provenances, "zeta"), "zeta").tolist()
    _integers(list(chain.from_iterable(var_ids)), "constraint variable")
    signs = _field(entries, "required_sign")
    _integers(signs, "required_sign")
    if not set(signs) <= {1, -1}:
        raise ValueError(f"required_sign must be +1 or -1, got {signs[0]}")
    if not all(var_ids):
        raise ValueError("a constraint needs at least one variable")
    return list(map(tuple, var_ids)), signs, list(zip(*[iter(angles)] * 4)), zetas, equations


def constraint_set_from_dict(doc) -> ConstraintSet:
    """The ConstraintSet a constraint-system document describes, checked and
    stored one column at a time."""
    version = doc.get("format_version") if type(doc) is dict else None
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"need an object of format_version {FORMAT_VERSION}, got {version!r}")
    ctx, var_list, con_list = doc.get("context"), doc.get("variables"), doc.get("constraints")
    label = ctx.get("label", "") if type(ctx) is dict else None
    if type(label) is not str or type(var_list) is not list or type(con_list) is not list:
        raise ValueError("need a context with a string label, and variables and constraints lists")
    _integers([ctx.get("kappa")], "kappa")
    cs = ConstraintSet(HiddenContext(ctx["kappa"], label))
    unknowns = _checked(_variable_columns, var_list)
    columns = _checked(_constraint_columns, con_list)
    cs._register(unknowns)
    if cs.n_variables != len(unknowns):
        raise ValueError("duplicate variables in registry")
    var_ids, n = list(chain.from_iterable(columns[0])), cs.n_variables
    if var_ids and not 0 <= min(var_ids) <= max(var_ids) < n:
        bad = next(vid for vid in var_ids if not 0 <= vid < n)
        raise ValueError(f"constraint references unregistered variable id {bad}")
    cs._extend(*columns)
    return cs


#: Objects per % call of dump_constraint_set, so that the text held at once
#: stays small.
_CHUNK = 128

#: Events per % call of write_events_csv, and per draw of simulate, so that
#: neither holds more than one chunk of events at once.
EVENT_CHUNK = 4096


@cache
def _array_layout(n: int, slot: str, indent: str) -> str:
    """A JSON array of n items, each the % slot ``slot``, laid out as
    json.dumps with indent=2 lays it out when its opening bracket sits at
    ``indent``."""
    inner = ",\n  " + indent
    return f"[\n  {indent}{inner.join([slot] * n)}\n{indent}]" if n else "[]"


# Object layouts with the arrays left open: %% is a slot of the final layout.
_VARIABLE = """{
      "id": %%d,
      "tag": "%%s",
      "angles": %s
    }"""

_CONSTRAINT = """{
      "id": %%d,
      "vars": %s,
      "required_sign": %%d,
      "provenance": {
        "angles": %s,
        "zeta": %%s,
        "equation": %%s
      }
    }"""


@cache
def _variable_layout(arity: int) -> str:
    return _VARIABLE % _array_layout(arity, "%s", "      ")


@cache
def _constraint_layout(n_vars: int, n_angles: int) -> str:
    vars_ = _array_layout(n_vars, "%d", "      ")
    return _CONSTRAINT % (vars_, _array_layout(n_angles, "%s", "        "))


def _write_array(fp: IO[str], layouts: Iterator[str], cells: Iterator) -> None:
    """Write a JSON array of objects at indent 2: ``layouts`` gives each
    object's text with % slots, ``cells`` the values of all slots in order.
    Each chunk of _CHUNK objects is formatted by one % call."""
    opening = "[\n    "
    while chunk := ",\n    ".join(islice(layouts, _CHUNK)):
        fp.write(opening)
        # (*...,) sizes the tuple from a list: tuple() of an iterator resizes
        # the tuple it fills, and CPython keeps up to 2000 freed small tuples
        # of each size, so a resized one per call fills those caches
        fp.write(chunk % (*islice(cells, chunk.count("%")),))
        opening = ",\n    "
    fp.write("\n  ]" if opening.startswith(",") else "[]")


def dump_constraint_set(cs: ConstraintSet, fp: IO[str]) -> None:
    """Write cs in exactly the bytes of
    ``json.dumps(constraint_set_to_dict(cs), indent=2) + "\n"``, but from
    fixed layouts, one % call per chunk of rows: json's indenting encoder is
    pure Python and makes one write per token.  Numbers print as json prints
    them (float.__repr__, formatted once per distinct value, and %d), the
    two free strings through json.dumps."""
    text = float_reprs(
        [
            *(key * ANGLE_QUANTUM for _, keys in cs.unknowns for key in keys),
            *chain.from_iterable(cs.angles),
            *cs.zetas,
        ]
    )
    angles = iter(text)  # the variables' angles, then the settings' angles
    zetas = islice(text, len(text) - len(cs.zetas), None)
    quoted = {equation: json.dumps(equation) for equation in set(cs.equations)}
    fp.write(
        f'{{\n  "format_version": {FORMAT_VERSION},\n  "context": {{\n'
        f'    "kappa": {cs.context.kappa},\n    "label": {json.dumps(cs.context.label)}\n  }},\n'
        '  "variables": '
    )
    _write_array(
        fp,
        (_variable_layout(len(keys)) for _, keys in cs.unknowns),
        chain.from_iterable(
            (i, tag, *islice(angles, len(keys))) for i, (tag, keys) in enumerate(cs.unknowns)
        ),
    )
    fp.write(',\n  "constraints": ')
    rows = zip(cs.var_ids, cs.required_signs, cs.angles, zetas, cs.equations)
    _write_array(
        fp,
        map(_constraint_layout, map(len, cs.var_ids), map(len, cs.angles)),
        chain.from_iterable(
            (i, *var_ids, sign, *islice(angles, len(setting)), zeta, quoted[equation])
            for i, (var_ids, sign, setting, zeta, equation) in enumerate(rows)
        ),
    )
    fp.write("\n}\n")


def load_constraint_set(fp: IO[str]) -> ConstraintSet:
    return constraint_set_from_dict(_parse(fp))


def solve_result_to_dict(cs: ConstraintSet, result: SolveResult, verified: bool) -> dict:
    """Result document with human-readable variable labels and, on UNSAT,
    the full provenance of every certificate line."""
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "status": result.status.value,
        "verified": verified,
    }
    if result.status is SolveStatus.SAT:
        labels = cs.labels(range(cs.n_variables))
        doc["model"] = {labels[vid]: value for vid, value in sorted(result.model.items())}
        doc["certificate"] = None
    else:
        doc["model"] = None
        lines = [cs.var_ids[cid] for cid in result.certificate]
        labels = iter(cs.labels(chain.from_iterable(lines)))
        doc["certificate"] = [
            {
                "id": cid,
                "variables": list(islice(labels, len(var_ids))),
                "required_sign": cs.required_signs[cid],
                "provenance": _provenance_to_dict(cs.angles[cid], cs.zetas[cid], cs.equations[cid]),
            }
            for cid, var_ids in zip(result.certificate, lines)
        ]
    return doc


def _outcome_cells(bell, pol_a, pol_d) -> str:
    f, a, d = f_value_of(bell), pol_a.sign, pol_d.sign
    return f"{bell.value},{pol_a.value},{pol_d.value},{kappa_of(bell)},{f},{a},{d},{a * f * d}\n"


#: The cells after the angles of an event row, for each outcome of OUTCOME_ORDER.
_OUTCOME_CELLS = [_outcome_cells(*outcome) for outcome in OUTCOME_ORDER]


def write_events_csv(
    fp: IO[str], angles: AngleSettings, outcomes: Sequence[int], start: int = 0
) -> int:
    """Write the rows of events start, start + 1, ... in the pinned event
    schema, after the header row when start is 0; returns the number of rows.

    ``outcomes`` are indices into OUTCOME_ORDER, as drawn by sample_events.
    Angles use shortest round-trip repr and rows get LF endings, so equal
    inputs serialize to identical bytes.  Successive calls with the next
    start continue one file.  Rows are formatted EVENT_CHUNK at a time, one
    % call per chunk, so the text held at once does not grow with the
    number of events.
    """
    phis = ",".join(map(repr, angles.as_tuple()))
    rows = [f"{phis},{cells}" for cells in _OUTCOME_CELLS]
    if start == 0:
        fp.write(",".join(EVENT_CSV_COLUMNS) + "\n")
    for first in range(0, len(outcomes), EVENT_CHUNK):
        keys = np.asarray(outcomes[first : first + EVENT_CHUNK], dtype=np.intp).tolist()
        ids = range(start + first, start + first + len(keys))
        cells = chain.from_iterable(zip(ids, map(rows.__getitem__, keys)))
        fp.write(("%d,%s" * len(keys)) % (*cells,))  # not tuple(): see _write_array
    return len(outcomes)
