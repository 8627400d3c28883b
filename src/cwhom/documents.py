"""JSON documents for complexes and chain maps.

Two complex forms are accepted: the explicit form with cell counts and
row-major boundary matrices keyed by dimension ("1", "2", ...), and a
low-dimensional presentation form with vertices, edges and attaching
words.  Serialization always emits the explicit form with sorted keys,
so documents have one canonical byte representation and loading then
dumping is the identity on it.
"""

from __future__ import annotations

import json
import math
import sys

from .complexes import CwComplex, EdgePresentation, from_presentation, require_valid
from .chainmaps import ChainMap, require_valid_map
from .intmat import IntMatrix

__all__ = [
    "SchemaError",
    "complex_to_doc",
    "complex_from_doc",
    "map_to_doc",
    "map_from_doc",
    "dumps",
    "loads_complex",
    "loads_map",
]


class SchemaError(ValueError):
    """Malformed document; the message names the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise SchemaError(path, message)


def _int_at(doc, key, path, default=None):
    if key not in doc:
        _expect(default is not None, f"{path}.{key}", "missing required field")
        return default
    v = doc[key]
    _expect(isinstance(v, int) and not isinstance(v, bool), f"{path}.{key}", "expected an integer")
    return v


def _matrix(value, rows: int, cols: int, path: str) -> IntMatrix:
    _expect(isinstance(value, list), path, "expected a list of rows")
    _expect(len(value) == rows, path, f"expected {rows} rows, found {len(value)}")
    flat = []
    for i, row in enumerate(value):
        # JSON yields no int subclass but bool, so a parsed row passes this
        # one test at C speed; the checks below only run to accept an int
        # subclass from a Python caller or to name what is wrong
        if not (isinstance(row, list) and len(row) == cols and {*map(type, row)} <= {int}):
            _expect(isinstance(row, list), f"{path}[{i}]", "expected a list")
            _expect(len(row) == cols, f"{path}[{i}]", f"expected {cols} entries, found {len(row)}")
            for j, v in enumerate(row):
                _expect(
                    isinstance(v, int) and not isinstance(v, bool),
                    f"{path}[{i}][{j}]",
                    "expected an integer",
                )
        flat.extend(row)
    return IntMatrix(rows, cols, tuple(flat))


def _dimension_keys(raw: dict, dims: range, path: str):
    """Every key must be the canonical decimal str(n) of some n in dims,
    the form the loaders look matrices up by."""
    allowed = {str(n) for n in dims}
    for key in raw:
        _expect(
            key in allowed,
            f"{path}[{key!r}]",
            f"dimension key must be in {dims.start}..{dims.stop - 1}",
        )


def complex_to_doc(x: CwComplex) -> dict:
    doc = {
        "cells": list(x.cells),
        "boundaries": {
            str(n): x.boundary(n).to_rows() for n in range(1, x.dim + 1)
        },
        "basepoint": x.basepoint,
    }
    if x.name:
        doc["name"] = x.name
    return doc


# the largest cell count for which every dense block the engine builds,
# rows x cols of two counts, can still be indexed on this platform
_MAX_CELLS = math.isqrt(sys.maxsize)


def _complex_from_explicit(doc: dict, path: str) -> CwComplex:
    cells = doc["cells"]
    _expect(isinstance(cells, list) and cells, f"{path}.cells", "expected a nonempty list")
    for i, c in enumerate(cells):
        _expect(
            isinstance(c, int) and not isinstance(c, bool) and c >= 0,
            f"{path}.cells[{i}]",
            "expected a nonnegative integer",
        )
        _expect(c <= _MAX_CELLS, f"{path}.cells[{i}]", f"expected at most {_MAX_CELLS} cells")
    dim = len(cells) - 1
    raw = doc.get("boundaries", {})
    _expect(isinstance(raw, dict), f"{path}.boundaries", "expected an object")
    _dimension_keys(raw, range(1, dim + 1), f"{path}.boundaries")
    bnds = []
    for n in range(1, dim + 1):
        key = str(n)
        bpath = f"{path}.boundaries.{key}"
        if key in raw:
            bnds.append(_matrix(raw[key], cells[n - 1], cells[n], bpath))
        else:
            bnds.append(IntMatrix.zeros(cells[n - 1], cells[n]))
    basepoint = _int_at(doc, "basepoint", path, default=0)
    name = doc.get("name", "")
    _expect(isinstance(name, str), f"{path}.name", "expected a string")
    return CwComplex(tuple(cells), tuple(bnds), basepoint, name)


def _complex_from_presentation(doc: dict, path: str) -> CwComplex:
    nv = _int_at(doc, "vertices", path)
    _expect(nv <= _MAX_CELLS, f"{path}.vertices", f"expected at most {_MAX_CELLS} vertices")
    raw_edges = doc.get("edges", [])
    _expect(isinstance(raw_edges, list), f"{path}.edges", "expected a list")
    edges = []
    for i, e in enumerate(raw_edges):
        _expect(
            isinstance(e, list) and len(e) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in e),
            f"{path}.edges[{i}]",
            "expected a [source, target] vertex pair",
        )
        edges.append(tuple(e))
    raw_faces = doc.get("faces", [])
    _expect(isinstance(raw_faces, list), f"{path}.faces", "expected a list")
    faces = []
    for i, w in enumerate(raw_faces):
        _expect(
            isinstance(w, list)
            and all(isinstance(v, int) and not isinstance(v, bool) for v in w),
            f"{path}.faces[{i}]",
            "expected a list of signed edge indices",
        )
        faces.append(tuple(w))
    basepoint = _int_at(doc, "basepoint", path, default=0)
    name = doc.get("name", "")
    _expect(isinstance(name, str), f"{path}.name", "expected a string")
    p = EdgePresentation(nv, tuple(edges), tuple(faces), basepoint)
    try:
        x = from_presentation(p)
    except ValueError as e:
        raise SchemaError(path, str(e))
    return x.with_name(name) if name else x


def complex_from_doc(doc, path: str = "$") -> CwComplex:
    _expect(isinstance(doc, dict), path, "expected an object")
    if "cells" in doc:
        return _complex_from_explicit(doc, path)
    if "vertices" in doc:
        return _complex_from_presentation(doc, path)
    raise SchemaError(path, "expected either 'cells' or 'vertices'")


def map_to_doc(f: ChainMap) -> dict:
    return {
        "source": complex_to_doc(f.source),
        "target": complex_to_doc(f.target),
        "maps": {str(n): f.maps[n].to_rows() for n in range(f.top + 1)},
        **({"name": f.name} if f.name else {}),
    }


def map_from_doc(doc, path: str = "$") -> ChainMap:
    _expect(isinstance(doc, dict), path, "expected an object")
    for key in ("source", "target", "maps"):
        _expect(key in doc, f"{path}.{key}", "missing required field")
    src = complex_from_doc(doc["source"], f"{path}.source")
    tgt = complex_from_doc(doc["target"], f"{path}.target")
    raw = doc["maps"]
    _expect(isinstance(raw, dict), f"{path}.maps", "expected an object")
    top = max(src.dim, tgt.dim)
    _dimension_keys(raw, range(top + 1), f"{path}.maps")
    maps = []
    for n in range(top + 1):
        key = str(n)
        mpath = f"{path}.maps.{key}"
        if key in raw:
            maps.append(_matrix(raw[key], tgt.cells_at(n), src.cells_at(n), mpath))
        else:
            maps.append(IntMatrix.zeros(tgt.cells_at(n), src.cells_at(n)))
    name = doc.get("name", "")
    _expect(isinstance(name, str), f"{path}.name", "expected a string")
    return ChainMap(src, tgt, tuple(maps), name)


def dumps(doc: dict) -> str:
    """Canonical serialization: sorted keys, no trailing whitespace; the
    bytes of ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``."""
    try:
        return _dump(doc, "\n") + "\n"
    except RecursionError:
        # a value that holds itself, or nests too deeply: json reports it as
        # it always has
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _dump(v, nl: str) -> str:
    """v as ``json.dumps(v, sort_keys=True, indent=2)`` writes it on a line
    that ``nl`` starts.  json never uses its C encoder under ``indent``, so
    objects, lists and lists of ints are joined here, at C speed for the
    ints; anything else (bools, strings, an int subclass) goes to json,
    whose escaped output holds no raw newline to indent."""
    inner = nl + "  "
    if type(v) is list and v:
        if {*map(type, v)} == {int}:
            return "[" + inner + ("," + inner).join(map(str, v)) + nl + "]"
        return "[" + inner + ("," + inner).join([_dump(w, inner) for w in v]) + nl + "]"
    if type(v) is dict and v and {*map(type, v)} == {str}:
        items = [f"{json.dumps(k)}: {_dump(v[k], inner)}" for k in sorted(v)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    return json.dumps(v, sort_keys=True, indent=2).replace("\n", nl)


def _parse(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError("$", f"not valid JSON ({e.msg} at line {e.lineno})")
    except RecursionError:
        raise SchemaError("$", "not valid JSON (nested too deeply)") from None
    except ValueError:  # an integer literal past Python's int-string limit
        raise SchemaError("$", "not valid JSON (integer literal has too many digits)") from None


def loads_complex(text: str, validate: bool = True) -> CwComplex:
    x = complex_from_doc(_parse(text))
    return require_valid(x) if validate else x


def loads_map(text: str, validate: bool = True) -> ChainMap:
    f = map_from_doc(_parse(text))
    return require_valid_map(f) if validate else f
