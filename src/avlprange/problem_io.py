"""Problem files: a single JSON document with interval data.

The document is an object with keys "A", "b", "c", "D".  Each value is
itself an object in one of two forms, ``{"inf": ..., "sup": ...}`` or
``{"mid": ..., "rad": ...}``, holding nested lists of numbers (lists
of rows for the matrices, flat lists for the vectors).  Optional
"name" and "description" strings are carried along untouched.  Any
other key, at the top level or inside an interval object, is rejected,
as ``docs/problem_schema.json`` rejects it.  Serialization always emits
the inf/sup form, so an inf/sup file round-trips losslessly.
"""

from __future__ import annotations

import json
from numbers import Real
from pathlib import Path

import numpy as np

from .errors import AvlpRangeError, InputError
from .intervals import IntervalMatrix, IntervalVector
from .ranges import AvlpProblem

_FIELDS = (("A", 2), ("b", 1), ("c", 1), ("D", 2))


def _check_numbers(value, key: str, part: str) -> None:
    """Reject every leaf of the nested lists that is not a number.

    ``np.array(..., dtype=float)`` would read the strings "1" and
    "inf" and the booleans as numbers, and a dtype check misses a
    boolean mixed into a list of integers, so each leaf is checked.
    """
    if isinstance(value, (list, tuple, np.ndarray)):
        for item in value:
            _check_numbers(item, key, part)
    elif isinstance(value, bool) or not isinstance(value, Real):
        raise InputError(
            f'in field "{key}": "{part}" holds {json.dumps(value, default=repr)}, '
            f"which is not a number"
        )


def _read_interval(document: dict, key: str, ndim: int):
    if key not in document:
        raise InputError(f'problem document is missing key "{key}"')
    entry = document[key]
    if not isinstance(entry, dict):
        raise InputError(
            f'"{key}" must be an object with "inf"/"sup" or "mid"/"rad" arrays'
        )
    endpoint_form = "inf" in entry and "sup" in entry
    midrad_form = "mid" in entry and "rad" in entry
    if endpoint_form == midrad_form:
        raise InputError(
            f'"{key}" must use exactly one of the forms "inf"/"sup" or "mid"/"rad"'
        )
    parts = ("inf", "sup") if endpoint_form else ("mid", "rad")
    extra = sorted(entry.keys() - set(parts), key=str)
    if extra:
        raise InputError(
            f'in field "{key}": unknown key "{extra[0]}" beside "{parts[0]}"/"{parts[1]}"'
        )
    for part in parts:
        _check_numbers(entry[part], key, part)
    cls = IntervalMatrix if ndim == 2 else IntervalVector
    try:
        if endpoint_form:
            return cls(
                np.array(entry["inf"], dtype=float),
                np.array(entry["sup"], dtype=float),
            )
        return cls.from_midrad(
            np.array(entry["mid"], dtype=float),
            np.array(entry["rad"], dtype=float),
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f'field "{key}" is not a numeric array: {exc}') from exc
    except AvlpRangeError as exc:
        raise type(exc)(f'in field "{key}": {exc}') from exc


def problem_from_dict(document: dict) -> AvlpProblem:
    """Build a validated problem from an already-parsed document."""
    if not isinstance(document, dict):
        raise InputError("problem document must be a JSON object")
    known = {"name", "description"} | {key for key, _ in _FIELDS}
    extra = sorted(document.keys() - known, key=str)
    if extra:
        raise InputError(f'problem document has unknown key "{extra[0]}"')
    for key in ("name", "description"):
        if not isinstance(document.get(key, ""), str):
            raise InputError(
                f'"{key}" must be a string, got {json.dumps(document[key], default=repr)}'
            )
    parts = {key: _read_interval(document, key, ndim) for key, ndim in _FIELDS}
    return AvlpProblem(A=parts["A"], b=parts["b"], c=parts["c"], D=parts["D"])


def _decode_document(raw: bytes, path):
    """Parse the bytes of a problem file as UTF-8 JSON."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"problem file {path} is not valid JSON: {exc}") from exc


def parse_problem(path) -> AvlpProblem:
    """Read and validate a problem file."""
    return problem_from_dict(_decode_document(Path(path).read_bytes(), path))


def serialize_problem(
    problem: AvlpProblem,
    name: str | None = None,
    description: str | None = None,
) -> dict:
    """Represent a problem as a JSON-ready dict in inf/sup form."""
    document: dict = {}
    if name is not None:
        document["name"] = name
    if description is not None:
        document["description"] = description
    for key in ("A", "b", "c", "D"):
        part = getattr(problem, key)
        document[key] = {"inf": part.inf.tolist(), "sup": part.sup.tolist()}
    return document


def write_problem(
    problem: AvlpProblem,
    path,
    name: str | None = None,
    description: str | None = None,
) -> None:
    """Write a problem file in inf/sup form."""
    document = serialize_problem(problem, name=name, description=description)
    Path(path).write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


__all__ = [
    "problem_from_dict",
    "parse_problem",
    "serialize_problem",
    "write_problem",
]
