"""JSON wire formats for fields, codes and construction results.

Field: {"p": int, "e": int, "modulus": [ints, ascending degree]}.
Code:  {"field": {...}, "a": [int], "v": [int], "k": int, "extended": bool}
with elements in the canonical integer encoding.  The parsers take only
JSON integers where int is written and only a JSON boolean for
"extended"; a float, string or boolean in place of an integer is a
FormatError, never truncated or coerced.  A construction result
additionally carries the generator matrix (row-major), the quantum
parameters, a provenance tag and the multiplier witnesses; a code file
that carries the generator, the quantum parameters or the provenance tag
must carry the ones its code fields give, and witnesses must pass
construct.witness_error, the check verify_construction makes in process.

The modulus and the generator choice are both deterministic functions of
(p, e), so a parsed field is checked against the canonical modulus: a
mismatch would silently re-interpret every element encoding.
"""

from __future__ import annotations

import json
from typing import IO, Union

from .construct import ConstructionResult, QuantumParams, design_of, witness_error
from .field import DEFAULT_ELEMENT_BOUND, FieldTower, make_field
from .grs import GRSCode, generator_matrix


class FormatError(ValueError):
    """A file or object does not match the expected schema."""


def _int(obj: dict, key: str) -> int:
    x = obj[key]
    if type(x) is not int:  # bool is a subclass of int
        raise FormatError(f"{key!r} must be an integer, not {type(x).__name__}")
    return x


def _ints(obj: dict, key: str) -> list:
    xs = obj[key]
    if type(xs) is not list or any(type(x) is not int for x in xs):
        raise FormatError(f"{key!r} must be a list of integers")
    return xs


def field_from_obj(obj: dict, element_bound: int = DEFAULT_ELEMENT_BOUND) -> FieldTower:
    if not isinstance(obj, dict):
        raise FormatError("field description must be an object")
    try:
        p, e, modulus = _int(obj, "p"), _int(obj, "e"), _ints(obj, "modulus")
    except KeyError as exc:
        raise FormatError(f"malformed field description: missing key {exc}") from exc
    try:
        field = make_field(p, e, element_bound)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    if list(field.modulus) != modulus:
        raise FormatError(
            f"modulus {modulus} does not match the canonical modulus "
            f"{list(field.modulus)} for p={p}, e={e}"
        )
    return field


def code_to_obj(code: GRSCode) -> dict:
    return {
        "field": code.field.as_dict(),
        "a": list(code.a),
        "v": list(code.v),
        "k": code.k,
        "extended": code.extended,
    }


def code_from_obj(obj: dict, element_bound: int = DEFAULT_ELEMENT_BOUND) -> GRSCode:
    if not isinstance(obj, dict):
        raise FormatError("code description must be an object")
    for key in ("field", "a", "v", "k"):
        if key not in obj:
            raise FormatError(f"missing key {key!r} in code description")
    field = field_from_obj(obj["field"], element_bound)
    a, v, k = tuple(_ints(obj, "a")), tuple(_ints(obj, "v")), _int(obj, "k")
    extended = obj.get("extended", False)
    if type(extended) is not bool:
        raise FormatError(f"'extended' must be a boolean, not {type(extended).__name__}")
    try:
        return GRSCode(field, a, v, k, extended)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def result_to_obj(result: ConstructionResult) -> dict:
    obj = code_to_obj(result.code)
    obj["generator"] = [list(r) for r in generator_matrix(result.code)]
    obj["quantum"] = result.quantum.as_dict()
    obj["provenance"] = design_of(result.code)[1]
    obj["witnesses"] = {key: list(val) for key, val in result.witnesses.items()}
    return obj


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _check_shipped(obj: dict, code: GRSCode) -> None:
    """The generator, quantum and provenance keys of a code file are
    optional, but when present must be exactly what its code fields give."""
    qp = QuantumParams.from_classical(code.length, code.k, code.field.q)
    for key, expected in (("generator", generator_matrix(code)), ("quantum", qp.as_dict())):
        if key not in obj:
            continue
        shipped = obj[key]
        if type(shipped) is not type(expected):
            raise FormatError(f"{key!r} must be a {type(expected).__name__}")
        if key == "generator":
            shipped, expected = dict(enumerate(shipped)), dict(enumerate(expected))
        # compared as JSON text, so that true or 1.0 is not taken for 1
        for part in [*expected, *(part for part in shipped if part not in expected)]:
            if json.dumps(shipped.get(part)) != json.dumps(expected.get(part)):
                raise FormatError(f"{key!r} entry {part!r} is not the one the code fields give")
    _, provenance = design_of(code)
    if obj.get("provenance", provenance) != provenance:
        raise FormatError(f"'provenance' is not {provenance!r}, the one the code fields give")


def load_code(path: str, element_bound: int = DEFAULT_ELEMENT_BOUND) -> GRSCode:
    """Parse and check a code file; raises FormatError for schema or
    invariant violations and OSError for filesystem problems."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.loads(fh.read())
        except (ValueError, RecursionError) as exc:  # bad UTF-8, JSON or integer literal
            raise FormatError(f"malformed JSON: {exc}") from exc
    code = code_from_obj(obj, element_bound)
    _check_shipped(obj, code)
    message = witness_error(code, obj["witnesses"]) if "witnesses" in obj else None
    if message:
        raise FormatError(message)
    return code


def write_payload(payload: str, destination: Union[str, IO[str]]) -> None:
    """Write text to an open stream, or to the file at a path."""
    if hasattr(destination, "write"):
        destination.write(payload)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)


def save(obj: dict, destination: Union[str, IO[str]]) -> None:
    write_payload(dumps(obj), destination)
