"""JSON report envelope: serialization of package values, the run
manifest, the text view of a report, and a small structural validator
for the shipped schema.

Exact rationals serialize as ``{"num": "...", "den": "..."}`` with string
payloads; the integers involved overflow the range JSON readers can be
trusted with.  Vertex sets are 0-indexed arrays, in the text view too.

``write_json`` writes the bytes of ``json.dumps(obj, indent=2,
sort_keys=True)`` and a newline.  It spells exact str, int, bool, None,
lists and str-keyed dicts itself and hands every other value to the
stdlib encoder.  It writes to the file between the items of a list
whose items are containers, so such a list (the per-clique rows) is
streamed; any other value's text is built whole before it is written.

``hashlib`` (which loads OpenSSL's libcrypto), ``datetime`` and
``importlib.resources`` are imported at first use, in ``make_manifest``
and ``load_schema``: every CLI process imports this module, and only
``--out`` and schema checks need them.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from typing import Any

SCHEMA_VERSION = "1"


def fraction_json(x: Fraction) -> dict[str, str]:
    return {"num": str(x.numerator), "den": str(x.denominator)}


_SCALARS = frozenset({str, int, bool, float, type(None)})


def to_jsonable(obj: Any) -> Any:
    """The JSON data of a package value: rationals as ``fraction_json``,
    dataclasses as objects of their public fields, tuples as lists and
    dict keys as strings.  Items of exact scalar types are taken without
    a call."""
    if obj is None or isinstance(obj, (int, str, float)):
        return obj
    if isinstance(obj, dict):
        return {str(k): v if type(v) in _SCALARS else to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [x if type(x) in _SCALARS else to_jsonable(x) for x in obj]
    if isinstance(obj, Fraction):
        return fraction_json(obj)
    if dataclasses.is_dataclass(obj):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if not f.name.startswith("_")
        }
    raise TypeError(f"cannot serialize {type(obj)!r}")


def text_lines(data: Any) -> list[str]:
    """The text view of a report's JSON data, in the data's key order:
    one aligned ``key  value`` line per field, and an aligned table with
    one header row for a non-empty list of objects, under its key.  The
    data of ``bounds`` and ``verify`` is such a list, shown as a table
    alone."""
    if isinstance(data, list):
        return _table(data)
    width = max(map(len, data), default=0)
    lines = []
    for key, value in data.items():
        if value and isinstance(value, list) and all(isinstance(r, dict) for r in value):
            lines += [key] + ["  " + row for row in _table(value)]
        else:
            lines.append(f"{key:<{width}}  {_cell(value)}")
    return lines


def _table(rows: list[dict]) -> list[str]:
    keys = list(rows[0])
    grid = [keys] + [[_cell(r.get(k)) for k in keys] for r in rows]
    widths = [max(map(len, column)) for column in zip(*grid)]
    return ["  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() for line in grid]


def _cell(x: Any) -> str:
    """One value on one line: ``p/q`` (or ``p``) for a rational, ``[a, b]``
    for a list, ``k=v, ...`` for an object, ``-`` for null."""
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, dict):
        if x.keys() == {"num", "den"}:
            return x["num"] if x["den"] == "1" else f"{x['num']}/{x['den']}"
        return ", ".join(f"{k}={_cell(v)}" for k, v in x.items())
    if isinstance(x, list):
        return "[" + ", ".join(map(_cell, x)) + "]"
    return str(x)


def make_manifest(command: list[str], parameters: dict, inputs: dict[str, str]) -> dict:
    """Run manifest: replaying the same command reproduces byte-identical
    JSON apart from the timestamp field."""
    import datetime
    import hashlib

    from . import __version__

    hashes = {}
    for name, path in inputs.items():
        with open(path, "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return {
        "command": command,
        "parameters": to_jsonable(parameters),
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "input_hashes": hashes,
    }


def envelope(kind: str, data: Any) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "data": to_jsonable(data)}


# json.dumps(obj, indent=2, sort_keys=True) builds its text with this
# encoder; write_json hands it every value it does not spell itself
_STDLIB = json.JSONEncoder(indent=2, sort_keys=True)
_ENCODE = json.encoder.encode_basestring_ascii
# the spelling of each scalar type json.encoder spells itself, by exact type
_SPELL = {
    str: _ENCODE,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}
_FLUSH = 4096  # pieces held before a write


def write_json(obj: Any, fh) -> None:
    """Write ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` to the
    text file ``fh``.  Pieces are written once more than ``_FLUSH`` are
    held, checked only between the container items of a list."""
    out: list[str] = []
    _write(obj, "\n", out, fh)
    out.append("\n")
    fh.write("".join(out))


def _write(obj: Any, indent: str, out: list[str], fh) -> None:
    """Append the pieces of ``obj`` at the line prefix ``indent`` (a
    newline and the spaces of its depth) to ``out``, writing them to
    ``fh`` between the items of a list once ``_FLUSH`` are held.  The
    scalars of ``_SPELL``, lists, tuples and dicts with str keys are
    spelled here as ``json.encoder`` spells them; any other value,
    subclasses and floats among them, is the stdlib encoder's text with
    its lines indented to ``indent``."""
    kind = type(obj)
    if kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        head = "[" + inner
        for item in obj:
            spell = _SPELL.get(type(item))
            if spell:
                out.append(head + spell(item))
            else:
                out.append(head)
                _write(item, inner, out, fh)
                if len(out) > _FLUSH:
                    fh.write("".join(out))
                    out.clear()
            head = "," + inner
        out.append(indent + "]")
        return
    if kind is dict:
        if not obj:
            out.append("{}")
            return
        keys = sorted(obj)  # raises, as json.dumps does, on keys that do not compare
        # no other key type that json accepts compares with str, so all keys are str
        if isinstance(keys[0], str):
            inner = indent + "  "
            head = "{" + inner
            for key in keys:
                value = obj[key]
                spell = _SPELL.get(type(value))
                if spell:
                    out.append(head + _ENCODE(key) + ": " + spell(value))
                else:
                    out.append(head + _ENCODE(key) + ": ")
                    _write(value, inner, out, fh)
                head = "," + inner
            out.append(indent + "}")
            return
    spell = _SPELL.get(kind)
    out.append(spell(obj) if spell else _STDLIB.encode(obj).replace("\n", indent))


def load_schema() -> dict:
    from importlib import resources

    with resources.files("gturan.schemas").joinpath("report.schema.json").open() as fh:
        return json.load(fh)


def validate_schema(doc: Any, schema: dict | None = None, _path: str = "$") -> list[str]:
    """Minimal structural validator (type / required / properties / items /
    enum); returns a list of problems, empty when the document conforms."""
    if schema is None:
        schema = load_schema()
    problems: list[str] = []

    def check(node: Any, sch: dict, path: str) -> None:
        typ = sch.get("type")
        if typ:
            ok = {
                "object": lambda v: isinstance(v, dict),
                "array": lambda v: isinstance(v, list),
                "string": lambda v: isinstance(v, str),
                "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
                "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
                "boolean": lambda v: isinstance(v, bool),
                "null": lambda v: v is None,
            }
            kinds = typ if isinstance(typ, list) else [typ]
            if not any(ok[k](node) for k in kinds):
                problems.append(f"{path}: expected {typ}, got {type(node).__name__}")
                return
        if "enum" in sch and node not in sch["enum"]:
            problems.append(f"{path}: {node!r} not in {sch['enum']}")
        if isinstance(node, dict):
            for req in sch.get("required", []):
                if req not in node:
                    problems.append(f"{path}: missing required key {req!r}")
            for key, sub in sch.get("properties", {}).items():
                if key in node:
                    check(node[key], sub, f"{path}.{key}")
        if isinstance(node, list) and "items" in sch:
            for i, item in enumerate(node):
                check(item, sch["items"], f"{path}[{i}]")

    check(doc, schema, _path)
    return problems
