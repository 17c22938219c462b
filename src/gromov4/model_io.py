"""Loading manifold models from JSON files.

A model file is a single JSON object:

    {
      "name": "custom",
      "basis": ["L", "E1"],
      "gram": [[1, 0], [0, -1]],
      "K": [-3, 1],
      "area": ["3", "1"],
      "b2plus": 1,
      "exceptional": ["E1"],
      "minimal": false,
      "gr0_table": [{"class": "3L", "value": 1}],
      "torus_table": [{"class": "3L-E1", "label": "+0", "cover": 1}],
      "sphere_table": [{"class": "L", "count": 1}]
    }

`K` is an integer coordinate vector in the declared basis; `area` entries
are exact rationals, each an integer or a "p/q" string.  Classes elsewhere
are expressions over the basis symbols.

This module only maps JSON to constructor arguments: it checks the syntax,
the field names, the JSON type of each field and table entry, parses class
expressions, and groups torus entries by class.  Every rule a model must
satisfy is checked once, by IntersectionLattice and ManifoldModel, whose
errors already carry the document path ("$.gram[1][0]"); only a torus
entry's path is mapped back from its group to its place in the file.  The
first violation aborts loading.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .errors import ClassParseError, ModelFileError
from .lattice import HClass, IntersectionLattice, ManifoldModel, parse_class

_FIELDS = {"name", "basis", "gram", "K", "area", "b2plus", "exceptional", "minimal"}
# table: the fields of each entry besides "class"
_TABLES = {"gr0_table": ("value",), "torus_table": ("label", "cover"), "sphere_table": ("count",)}
_TORUS_PATH = re.compile(r"\$\.torus_table\[(\d+)\](?:\.tori\[(\d+)\])?\.(\w+)")


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ModelFileError(path, message)


def _list(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    _expect(isinstance(value, list), f"$.{key}", "expected a list")
    return value


def _class_at(lattice: IntersectionLattice, value, path: str) -> HClass:
    _expect(isinstance(value, str), path, "expected a class expression string")
    try:
        return parse_class(lattice, value)
    except ClassParseError as exc:
        raise ModelFileError(path, str(exc)) from None


def load_model(source: str | Path) -> ManifoldModel:
    """Read a manifold model file; any violation raises ModelFileError."""
    try:
        doc = json.loads(Path(source).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelFileError(
            "$", f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError, OSError) as exc:
        # not UTF-8, an integer past int()'s digit limit, nesting past the
        # recursion limit, or a path that cannot be read (a directory, no permission)
        raise ModelFileError("$", str(exc)) from None
    _expect(isinstance(doc, dict), "$", "top level must be an object")
    for key in doc:
        _expect(key in _FIELDS or key in _TABLES, f"$.{key}", "unknown field")
    for key in ("name", "basis", "gram", "K", "area"):
        _expect(key in doc, f"$.{key}", "required field is missing")
    _expect(isinstance(doc["name"], str) and doc["name"], "$.name", "expected a nonempty string")
    lattice = IntersectionLattice(
        name=doc["name"],
        basis=tuple(_list(doc, "basis")),
        gram=tuple(_list(doc, "gram")),
        canonical=tuple(_list(doc, "K")),
        area=tuple(_list(doc, "area")),
        b2plus_override=doc.get("b2plus"),
    )
    exceptional = tuple(
        _class_at(lattice, expr, f"$.exceptional[{i}]")
        for i, expr in enumerate(_list(doc, "exceptional"))
    )
    minimal = doc.get("minimal", False)
    _expect(isinstance(minimal, bool), "$.minimal", "expected true or false")

    tables = {}
    rows: dict[HClass, list[int]] = {}  # file indices of each torus_table class
    for table, fields in _TABLES.items():
        tables[table] = entries = {}
        names = ("class",) + fields
        shape = ", ".join(names[:-1]) + " and " + names[-1]
        for i, entry in enumerate(_list(doc, table)):
            path = f"$.{table}[{i}]"
            _expect(isinstance(entry, dict), path, "expected an object {" + ", ".join(names) + "}")
            _expect(all(f in entry for f in names), path, f"needs fields {shape}")
            A = _class_at(lattice, entry["class"], f"{path}.class")
            if table == "torus_table":
                entries.setdefault(A, []).append((entry["label"], entry["cover"]))
                rows.setdefault(A, []).append(i)
            else:
                _expect(A not in entries, f"{path}.class", f"duplicate entry for class {A}")
                entries[A] = entry[fields[0]]
    try:
        return ManifoldModel(lattice, exceptional, minimal, **tables)
    except ModelFileError as exc:
        # The model indexes torus entries by class group; the file, by line.
        m = _TORUS_PATH.fullmatch(exc.path)
        if m is None:
            raise
        group = list(rows.values())[int(m[1])]
        index = group[int(m[2] or 0)]
        raise ModelFileError(f"$.torus_table[{index}].{m[3]}", exc.message) from None
