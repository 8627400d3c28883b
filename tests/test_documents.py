import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwhom.chainmaps import sphere_self_map
from cwhom.complexes import zoo
from cwhom.documents import (
    SchemaError,
    complex_from_doc,
    complex_to_doc,
    dumps,
    loads_complex,
    loads_map,
    map_from_doc,
    map_to_doc,
)
from cwhom.intmat import IntMatrix
from cwhom.verify import standard_corpus


def test_round_trip_corpus():
    for x in standard_corpus():
        text = dumps(complex_to_doc(x))
        again = loads_complex(text)
        assert again.cells == x.cells
        assert again.boundaries == x.boundaries
        assert again.basepoint == x.basepoint
        # byte stability: serialize -> parse -> serialize is the identity
        assert dumps(complex_to_doc(again)) == text


def test_map_round_trip():
    f = sphere_self_map(2, 7)
    text = dumps(map_to_doc(f))
    g = loads_map(text)
    assert g.maps == f.maps
    assert dumps(map_to_doc(g)) == text


def test_canonical_key_order():
    text = dumps(complex_to_doc(zoo("torus")))
    doc = json.loads(text)
    assert list(doc) == sorted(doc)


def test_presentation_form():
    doc = {
        "vertices": 1,
        "edges": [[0, 0], [0, 0]],
        "faces": [[1, 2, -1, -2]],
        "name": "T",
    }
    x = complex_from_doc(doc)
    assert x.cells == (1, 2, 1)
    assert x.name == "T"


def test_missing_boundaries_default_to_zero():
    x = complex_from_doc({"cells": [1, 0, 1]})
    assert x.boundary(2).is_zero()


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ({}, "$"),
        ({"cells": []}, "$.cells"),
        ({"cells": [1, "x"]}, "$.cells[1]"),
        ({"cells": [1, 1], "boundaries": {"3": []}}, "boundaries"),
        ({"cells": [2, 1], "boundaries": {"1": [[1], [1.5]]}}, "$.boundaries.1"),
        ({"cells": [2, 1], "boundaries": {"1": [[1]]}}, "$.boundaries.1"),
        ({"cells": [1], "basepoint": "a"}, "$.basepoint"),
        ({"vertices": 2, "edges": [[0]]}, "$.edges[0]"),
        ({"vertices": 1, "edges": [[0, 0]], "faces": [[2]]}, "$"),
    ],
)
def test_schema_errors_carry_paths(doc, fragment):
    with pytest.raises(SchemaError) as exc:
        complex_from_doc(doc)
    assert fragment in str(exc.value)


def test_map_schema_errors():
    with pytest.raises(SchemaError) as exc:
        map_from_doc({"source": {"cells": [1]}, "target": {"cells": [1]}})
    assert "$.maps" in str(exc.value)
    with pytest.raises(SchemaError):
        map_from_doc({
            "source": {"cells": [1]},
            "target": {"cells": [1]},
            "maps": {"0": [[1, 1]]},
        })


def test_loads_rejects_non_json():
    with pytest.raises(SchemaError):
        loads_complex("not json at all")


def test_loads_validates_by_default():
    from cwhom.complexes import InvalidComplex
    bad = dumps({"cells": [2, 1], "boundaries": {"1": [[1], [1]]}})
    with pytest.raises(InvalidComplex):
        loads_complex(bad)
    assert loads_complex(bad, validate=False).cells == (2, 1)


@pytest.mark.parametrize("key", ["02", "٢", "²"])
def test_complex_dimension_keys_are_canonical(key):
    # only str(n) is looked up, so any other spelling would be dropped
    with pytest.raises(SchemaError) as exc:
        complex_from_doc({"cells": [1, 1, 1], "boundaries": {key: [[2]]}})
    assert f"$.boundaries[{key!r}]" in str(exc.value)


@pytest.mark.parametrize("key", ["00", "٠", "⁰"])
def test_map_dimension_keys_are_canonical(key):
    with pytest.raises(SchemaError) as exc:
        map_from_doc({
            "source": {"cells": [1, 1]},
            "target": {"cells": [1, 1]},
            "maps": {key: [[1]]},
        })
    assert f"$.maps[{key!r}]" in str(exc.value)


# one digit past Python's default int-string limit of 4300 digits
HUGE = "9" * 4301


def test_complex_huge_integer_is_schema_error():
    text = '{"cells": [1, 1], "boundaries": {"1": [[' + HUGE + ']]}}'
    with pytest.raises(SchemaError) as exc:
        loads_complex(text)
    assert exc.value.path == "$"
    assert "not valid JSON" in str(exc.value)


def test_map_huge_integer_is_schema_error():
    text = ('{"source": {"cells": [1]}, "target": {"cells": [1]}, '
            '"maps": {"0": [[' + HUGE + ']]}}')
    with pytest.raises(SchemaError) as exc:
        loads_map(text)
    assert exc.value.path == "$"


def _matrix_by_entries(value, rows, cols, path):
    """The parser's matrix check as a walk over every entry: the reference
    the bulk-checked parse must agree with, error for error."""
    if not isinstance(value, list):
        raise SchemaError(path, "expected a list of rows")
    if len(value) != rows:
        raise SchemaError(path, f"expected {rows} rows, found {len(value)}")
    flat = []
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise SchemaError(f"{path}[{i}]", "expected a list")
        if len(row) != cols:
            raise SchemaError(f"{path}[{i}]", f"expected {cols} entries, found {len(row)}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool):
                raise SchemaError(f"{path}[{i}][{j}]", "expected an integer")
        flat.extend(row)
    return IntMatrix(rows, cols, tuple(flat))


class _Int(int):
    """An int subclass, as a Python caller may pass; JSON never yields one."""


_BAD_ENTRIES = st.one_of(
    st.booleans(), st.floats(allow_nan=False), st.text(max_size=2), st.none(),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=1), st.integers(), max_size=1),
)
_ODD_ENTRIES = st.one_of(_BAD_ENTRIES, st.builds(_Int, st.integers(-3, 3)))
_BAD_ROWS = st.one_of(st.integers(), st.none(), st.text(max_size=2), st.tuples(st.integers()),
                      st.dictionaries(st.text(max_size=1), st.integers(), max_size=1))


@st.composite
def matrix_documents(draw):
    """(value, rows, cols): a rows x cols integer matrix, then entries,
    rows and row lengths spoiled at random positions."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    value = [[draw(st.integers(-5, 5)) for _ in range(cols)] for _ in range(rows)]
    for _ in range(draw(st.integers(0, 3))):
        if not value:
            break
        i = draw(st.integers(0, len(value) - 1))
        kind = draw(st.sampled_from(["entry", "entry", "row", "length"]))
        if kind == "row":
            value[i] = draw(_BAD_ROWS)
        elif not isinstance(value[i], list):
            continue
        elif kind == "length":
            value[i] = value[i][:-1] if value[i] and draw(st.booleans()) else value[i] + [0]
        elif value[i]:
            value[i][draw(st.integers(0, len(value[i]) - 1))] = draw(_ODD_ENTRIES)
    if draw(st.integers(0, 9)) == 0:
        value = value[:-1] if value and draw(st.booleans()) else value + [[0] * cols]
    if draw(st.integers(0, 19)) == 0:
        value = draw(_BAD_ROWS)
    return value, rows, cols


def _outcome(parse, value, rows, cols):
    try:
        m = parse(value, rows, cols, "$.boundaries.1")
    except SchemaError as e:
        return "error", e.path, str(e)
    return "ok", m, [type(v) for v in m.entries]


@settings(max_examples=300, deadline=None)
@given(matrix_documents())
def test_matrix_parse_matches_entry_walk(doc):
    from cwhom.documents import _matrix
    value, rows, cols = doc
    assert _outcome(_matrix, value, rows, cols) == _outcome(_matrix_by_entries, value, rows, cols)
    # the same error reaches the loaders' callers
    if isinstance(value, list) and len(value) == rows and rows:
        want = _outcome(_matrix_by_entries, value, rows, cols)
        try:
            complex_from_doc({"cells": [rows, cols], "boundaries": {"1": value}})
        except SchemaError as e:
            assert ("error", e.path, str(e)) == want
        else:
            assert want[0] == "ok"


def grid_torus_doc(k):
    """The k x k square-grid torus in the explicit form, cells
    (k^2, 2k^2, k^2): edge 2v runs from v = (i, j) to (i + 1, j), edge
    2v + 1 from (i, j) to (i, j + 1), and face v is bounded by
    h(i, j) + e(i + 1, j) - h(i, j + 1) - e(i, j)."""
    def v(i, j):
        return (i % k) * k + j % k
    b1 = [[0] * (2 * k * k) for _ in range(k * k)]
    b2 = [[0] * (k * k) for _ in range(2 * k * k)]
    for i in range(k):
        for j in range(k):
            h, e = 2 * v(i, j), 2 * v(i, j) + 1
            b1[v(i + 1, j)][h] += 1
            b1[v(i, j)][h] -= 1
            b1[v(i, j + 1)][e] += 1
            b1[v(i, j)][e] -= 1
            b2[h][v(i, j)] += 1
            b2[2 * v(i + 1, j) + 1][v(i, j)] += 1
            b2[2 * v(i, j + 1)][v(i, j)] -= 1
            b2[e][v(i, j)] -= 1
    return {"cells": [k * k, 2 * k * k, k * k], "boundaries": {"1": b1, "2": b2}}


def test_matrix_checks_grow_with_rows_not_entries(monkeypatch):
    import cwhom.documents as documents
    calls = 0
    real = documents._expect

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(documents, "_expect", counting)
    x = loads_complex(dumps(grid_torus_doc(8)))
    assert x.cells == (64, 128, 64)
    rows = sum(b.rows for b in x.boundaries)
    entries = sum(len(b.entries) for b in x.boundaries)
    # two checks per row plus a few per document; a walk over the
    # entries would make at least 16 384
    assert calls <= 2 * rows + 20 < entries


# a cell count no dense block can be indexed with on any platform
OVERSIZED = 10**30


@pytest.mark.parametrize("cells, at", [([1, 2, OVERSIZED], 2), ([OVERSIZED], 0)])
def test_complex_oversized_cell_count_is_schema_error(cells, at):
    with pytest.raises(SchemaError) as exc:
        loads_complex(json.dumps({"cells": cells, "basepoint": 0}))
    assert exc.value.path == f"$.cells[{at}]"
    assert "at most" in str(exc.value)


def test_cell_count_limit_is_the_platform_index_root():
    import math
    import sys
    limit = math.isqrt(sys.maxsize)
    assert complex_from_doc({"cells": [limit]}).cells == (limit,)
    with pytest.raises(SchemaError):
        complex_from_doc({"cells": [limit + 1]})


def test_map_oversized_source_count_is_schema_error():
    doc = {"source": {"cells": [1, OVERSIZED]}, "target": {"cells": [1]}, "maps": {}}
    with pytest.raises(SchemaError) as exc:
        loads_map(json.dumps(doc))
    assert exc.value.path == "$.source.cells[1]"


def test_presentation_oversized_vertex_count_is_schema_error():
    with pytest.raises(SchemaError) as exc:
        loads_complex(json.dumps({"vertices": OVERSIZED}))
    assert exc.value.path == "$.vertices"
