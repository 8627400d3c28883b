import json

import pytest

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
