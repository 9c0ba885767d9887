"""Stable on-disk formats: settings JSON, constraint-set JSON and event CSV.

This is the one module that decides what a valid input is and how a number
or an unknown prints: both JSON loaders check each field's exact JSON type
and raise only ValueError, with a one-line message, also on input nested too
deeply to parse.  They check and fill one column at a time: load_settings
returns the (N, 4) array of the file's numbers, and constraint_set_from_dict
fills the columns that are a ConstraintSet (see proof), each raising the error
a field-by-field check would raise first.  That loader and lhv's compiler
alone make a ConstraintSet, and floats print in Python's shortest round-trip
repr, so every set writes a file that loads back to the same bytes: what
json.dumps with indent=2 prints for constraint_set_to_dict, pinned byte for
byte, but one f-string per variable and constraint, a chunk per write.  Each
distinct float is formatted once (_float_reprs keeps -0.0 apart from 0.0),
also in the labels, such as ``F(0.1, 0.2)``, of a result document (_labels),
and a load decodes each distinct number text once (_parse).  The event CSV
is written by write_events_csv in chunks of EVENT_CHUNK events, each one
str.join over text made before the chunk: per event, the last three digits
of its id (from _ID_DIGITS), then its row's tail, which ends in the text of
the next id's thousands.  The two pieces of each event sit in one Python
list that every write of a call refills.  The ids of a chunk run in order,
so their pieces come as a slice and a gather, not per event: the last
digits as one slice of a repeating table, the tails from a table of the 16
outcomes' tails per thousands block of the chunk.  No int is converted to
text per event.  One call writes a whole file, the header and then the
rows of its chunks, ids from 0.  The CSV schema is versioned by its pinned
header row; its columns, vocabulary and LF line endings are golden-tested.
Every JSON document the CLI prints is the text of _json_text, this module's
indenting writer: exactly json.dumps(doc, indent=2), but with each leaf's
text looked up by its type, and a call only per container.
"""

from __future__ import annotations

import json
import math
import struct
from collections.abc import Callable, Iterable, Iterator
from contextlib import suppress
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from typing import IO, Sequence

import numpy as np

from .correlations import OUTCOME_ORDER, f_value_of, kappa_of
from .proof import TAG_ARITY, _MAX_NUMBER, ConstraintSet, SolveResult, SolveStatus, quantize_angle
from .quantum import _angle_row

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
        "context": {"kappa": cs.kappa, "label": cs.label},
        "variables": [
            {"id": i, "tag": tag, "angles": list(angles)}
            for i, (tag, angles) in enumerate(cs.unknowns)
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


class _FloatMemo(dict):
    """float(text) of each distinct number text; text keys keep -0.0 apart from 0.0."""

    def __missing__(self, text: str) -> float:
        return self.setdefault(text, float(text))


def _parse(fp: IO[str]):
    """json.load, raising ValueError also on input nested too deeply to
    parse, that decodes each distinct number text once per load (the mirror
    of _float_reprs)."""
    try:
        return json.load(fp, parse_float=_FloatMemo().__getitem__)
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
    """Exact JSON numbers up to proof._MAX_NUMBER, whose grid angles are finite,
    as one float array: float() reads true as 1.0 and "0.5" as 0.5, json
    reads NaN and Infinity, and an int may overflow a float."""
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


def load_settings(fp: IO[str]) -> np.ndarray:
    """Read ``{"settings": [[phi1, phi2, phi3, phi4], ...]}`` or the bare list
    as the (N, 4) array of its numbers, in the file's unit."""
    doc = _parse(fp)
    raw = doc.get("settings") if type(doc) is dict else doc
    if type(raw) is not list:
        raise ValueError(f"settings must be a list of 4-angle lists, got {raw!r}")
    return _checked(_setting_columns, raw)


def _variable_columns(entries: list, start: int) -> list[tuple[str, tuple]]:
    """The (tag code, grid angles) pair of each variable entry: its angles
    through proof.quantize_angle, which leaves the grid angles that every
    written file holds as they are."""
    if not _types(entries) <= {dict} or not _types(angles := _field(entries, "angles")) <= {list}:
        raise ValueError(f"variable {start} must be an object with an angles list")
    _check_ids(entries, start, "variable")
    grid = iter(quantize_angle(_numbers(list(chain.from_iterable(angles)), "angle")).tolist())
    tags = _field(entries, "tag")
    if not _types(tags) <= {str} or not set(tags) <= TAG_ARITY.keys():
        # pinned byte for byte: it is the CLI's exit-2 stderr
        raise ValueError(f"{tags[0]!r} is not a valid FunctionTag")
    arities = list(map(TAG_ARITY.get, tags))
    if list(map(len, angles)) != arities:
        raise ValueError(f"{tags[0]} takes {arities[0]} angle(s)")
    return [(tag, tuple(islice(grid, arity))) for tag, arity in zip(tags, arities)]


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
    cs = ConstraintSet(ctx["kappa"], label)
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


#: Objects per fp.write of dump_constraint_set, so that the text held at
#: once stays small.
_CHUNK = 128

#: Events per write of write_events_csv, and per draw of simulate, so that
#: neither holds more than one chunk of events at once.
EVENT_CHUNK = 4096


def _float_reprs(values: Sequence[float]) -> list[str]:
    """float.__repr__ of each value, computed once per distinct value: most
    numbers of a compiled system repeat.  Values are told apart by bit
    pattern, so -0.0 keeps its own repr (a float key would merge it with 0.0)."""
    bits = struct.unpack(f"{len(values)}q", struct.pack(f"{len(values)}d", *values))
    distinct = dict(zip(bits, values))
    table = dict(zip(distinct, map(float.__repr__, distinct.values())))
    return list(map(table.__getitem__, bits))


def _labels(cs: ConstraintSet, vids: Iterable[int]) -> list[str]:
    """The labels, such as ``F(0.1, 0.2)``, of the unknowns of cs with these ids."""
    rows = [cs.unknowns[vid] for vid in vids]
    text = iter(_float_reprs([phi for _, angles in rows for phi in angles]))
    return [f"{tag}({', '.join(islice(text, len(angles)))})" for tag, angles in rows]


def _array(items: Iterable[str]) -> str:
    """A JSON array of the rendered ``items``, laid out as json.dumps with
    indent=2 lays out a list field of a variable or of a constraint."""
    text = ",\n        ".join(items)
    return f"[\n        {text}\n      ]" if text else "[]"


def _write_objects(fp: IO[str], objects: Iterator[str]) -> None:
    """Write a JSON array of rendered objects at indent 2, _CHUNK objects
    per write."""
    opening = "[\n    "
    while chunk := ",\n    ".join(islice(objects, _CHUNK)):
        fp.write(opening)
        fp.write(chunk)
        opening = ",\n    "
    fp.write("\n  ]" if opening.startswith(",") else "[]")


def dump_constraint_set(cs: ConstraintSet, fp: IO[str]) -> None:
    """Write cs in exactly the bytes of
    ``json.dumps(constraint_set_to_dict(cs), indent=2) + "\n"``, but one
    f-string per variable and per constraint: json's indenting encoder is
    pure Python and makes one write per token.  Numbers print as json prints
    them: float.__repr__, formatted once per distinct value, and the ids
    from one table of their str, ``ints``.  The two free strings go through
    json.dumps."""
    variables = chain.from_iterable(grid for _, grid in cs.unknowns)
    text = _float_reprs([*variables, *chain.from_iterable(cs.angles), *cs.zetas])
    angles = iter(text)  # the variables' angles, then the settings' angles
    zetas = islice(text, len(text) - len(cs.zetas), None)
    quoted = {equation: json.dumps(equation) for equation in set(cs.equations)}
    ints = list(map(str, range(max(cs.n_variables, len(cs.var_ids)))))  # every id
    fp.write(
        f'{{\n  "format_version": {FORMAT_VERSION},\n  "context": {{\n'
        f'    "kappa": {cs.kappa},\n    "label": {json.dumps(cs.label)}\n  }},\n'
        '  "variables": '
    )
    _write_objects(
        fp,
        (
            f'{{\n      "id": {i},\n      "tag": "{tag}",\n'
            f'      "angles": {_array(islice(angles, len(grid)))}\n    }}'
            for i, (tag, grid) in zip(ints, cs.unknowns)
        ),
    )
    fp.write(',\n  "constraints": ')
    rows = zip(ints, cs.var_ids, cs.required_signs, zip(*[angles] * 4), zetas, cs.equations)
    _write_objects(
        fp,
        (
            f'{{\n      "id": {i},\n      "vars": {_array(map(ints.__getitem__, var_ids))},\n'
            f'      "required_sign": {sign},\n      "provenance": {{\n'
            f'        "angles": [\n          {a},\n          {b},\n          {c},\n'
            f'          {d}\n        ],\n        "zeta": {zeta},\n'
            f'        "equation": {quoted[equation]}\n      }}\n    }}'
            for i, var_ids, sign, (a, b, c, d), zeta, equation in rows
        ),
    )
    fp.write("\n}\n")


def load_constraint_set(fp: IO[str]) -> ConstraintSet:
    return constraint_set_from_dict(_parse(fp))


def solve_result_to_dict(cs: ConstraintSet, result: SolveResult, verified: bool) -> dict:
    """The body of a result document: status, verified, the model with
    human-readable variable labels and, on UNSAT, the full provenance of
    every certificate line.  cli puts the envelope (format_version, command
    and the solve's inputs) in front."""
    doc: dict = {
        "status": result.status.value,
        "verified": verified,
    }
    if result.status is SolveStatus.SAT:
        doc["model"] = dict(zip(_labels(cs, range(cs.n_variables)), result.model))
        doc["certificate"] = None
    else:
        doc["model"] = None
        lines = [cs.var_ids[cid] for cid in result.certificate]
        labels = iter(_labels(cs, chain.from_iterable(lines)))
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


def _float_text(value: float) -> str:
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


#: The text of a leaf of each exact type, as json.dumps prints it.
_LEAF_TEXT: dict[type, Callable] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _json_text(obj, indent: str = "\n") -> str:
    """Exactly ``json.dumps(obj, indent=2)`` for a tree of dicts with str
    keys, lists and tuples over str, int, float, bool and None leaves: the
    text of every document the CLI prints.  json's indenting encoder is pure
    Python and calls a function per value; this one looks each leaf's text
    up by its type and calls itself only for a container, with ``indent``,
    the newline and spaces that begin the line of its closing bracket.  A
    non-str key raises TypeError (json.dumps would print it as a string)."""
    if text := _LEAF_TEXT.get(type(obj)):
        return text(obj)
    is_dict = isinstance(obj, dict)
    if not is_dict and not isinstance(obj, (list, tuple)):
        return json.dumps(obj)  # a subclass of a leaf type, or the TypeError of any other
    if not obj:
        return "{}" if is_dict else "[]"
    inner, leaf = indent + "  ", _LEAF_TEXT.get
    texts = [
        render(value) if (render := leaf(type(value))) else _json_text(value, inner)
        for value in (obj.values() if is_dict else obj)
    ]
    if is_dict:
        texts = [f"{encode_basestring_ascii(key)}: {value}" for key, value in zip(obj, texts)]
        return f"{{{inner}{(',' + inner).join(texts)}{indent}}}"
    return f"[{inner}{(',' + inner).join(texts)}{indent}]"


def _outcome_cells(bell, pol_a, pol_d) -> str:
    f, a, d = f_value_of(bell), pol_a.sign, pol_d.sign
    return f"{bell.value},{pol_a.value},{pol_d.value},{kappa_of(bell)},{f},{a},{d},{a * f * d}\n"


#: The cells after the angles of an event row, for each outcome of OUTCOME_ORDER.
_OUTCOME_CELLS = [_outcome_cells(*outcome) for outcome in OUTCOME_ORDER]


#: The last three digits of an event id, f"{n:03d}" at index n, then the
#: ids n below 100, which print fewer digits, str(n) at index 1000 + n.
_ID_DIGITS = [*(f"{n:03d}" for n in range(1000)), *map(str, range(100))]

#: _ID_DIGITS[:1000] repeated to at least EVENT_CHUNK + 999 entries: the
#: last three digits of a chunk of consecutive ids from i on are the chunk's
#: slice of it from i % 1000.
_ID_CYCLE = _ID_DIGITS[:1000] * (EVENT_CHUNK // 1000 + 2)

#: The offset of event j's row in the table of tails of a write from id i,
#: 16 tails per thousands block from i's on, as the row's tail ends in the
#: thousands of id i + j + 1: 16 * ((k + 1) // 1000) at k = i % 1000 + j.
_NEXT_BLOCK = np.repeat(16 * np.arange(EVENT_CHUNK // 1000 + 2), 1000)[1 : EVENT_CHUNK + 1000]

#: The error of a chunk that is not a 1-D sequence of outcome indices.
_NOT_OUTCOMES = "outcomes must be integers in 0..15, indices into OUTCOME_ORDER"


def _thousands(block: int) -> str:
    """The text of an event id before its last three digits."""
    return str(block) if block else ""


def write_events_csv(fp: IO[str], angles, chunks: Iterable[Sequence[int]]) -> int:
    """Write a whole event file, the header row and then a row per event of
    ``chunks`` in order, ids from 0; returns the number of rows.

    A chunk is a 1-D sequence of indices into OUTCOME_ORDER, as drawn by
    sample_events; anything else raises ValueError before its rows, so a bad
    first chunk writes nothing, not even the header.  Angles use shortest
    round-trip repr and rows get LF endings, so equal inputs serialize to
    identical bytes.  Rows are written EVENT_CHUNK at a time, one join and
    one write each, as the chunks are drawn, so the text held at once does
    not grow with the number of events.  A write joins one list of two
    pieces per event, kept across the writes of a call (a new one only when
    a write's length differs, as the last one's may) and refilled by
    extended-slice assignment: the last three digits of its id, one slice of
    _ID_CYCLE, and the tail of its row, which ends in the thousands of the
    next id, one gather from ``ends``, the 16 tails per thousands block of
    the write.  The first write's first piece carries the header row.
    """
    phis = ",".join(map(repr, _angle_row(angles).tolist()))
    tails = [f",{phis},{cells}" for cells in _OUTCOME_CELLS]
    head, low = ",".join(EVENT_CSV_COLUMNS) + "\n", 0  # low: the next id, a Python int
    ends = np.empty(16 * (EVENT_CHUNK // 1000 + 2), dtype=object)  # a write's table
    pieces: list[str] = []  # every slot is refilled for each write
    for outcomes in map(np.asarray, chunks):
        if outcomes.ndim != 1:
            raise ValueError(_NOT_OUTCOMES)
        for first in range(0, len(outcomes), EVENT_CHUNK):
            keys = outcomes[first : first + EVENT_CHUNK]
            if keys.dtype.kind not in "iu" or not 0 <= keys.min() <= keys.max() < 16:
                raise ValueError(_NOT_OUTCOMES)
            n = len(keys)
            if len(pieces) != 2 * n:
                pieces = [""] * (2 * n)
            blocks = range(low // 1000, (low + n - 1) // 1000 + 1)  # of the write's ids
            ends[: 16 * len(blocks)] = [tail + _thousands(b) for b in blocks for tail in tails]
            pieces[0::2] = _ID_CYCLE[low % 1000 : low % 1000 + n]
            short = _ID_DIGITS[1000 + low : 1100][:n]  # the ids below 100
            pieces[0 : 2 * len(short) : 2] = short
            # in intp, as numpy sums uint64 and int64 to float64
            rows = np.add(keys, _NEXT_BLOCK[low % 1000 : low % 1000 + n], dtype=np.intp)
            pieces[1::2] = ends[rows].tolist()
            pieces[-1] = tails[keys[-1]]  # the next id's thousands starts the next write
            pieces[0] = head + _thousands(blocks[0]) + pieces[0]
            fp.write("".join(pieces))
            head, low = "", low + n
    if head:
        fp.write(head)
    return low
