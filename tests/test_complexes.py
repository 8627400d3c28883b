import pytest

from cwhom.complexes import (
    CwComplex,
    EdgePresentation,
    InvalidComplex,
    MalformedWord,
    ZOO_NAMES,
    add_disjoint_basepoint,
    euler_characteristic,
    from_presentation,
    quotient_by_skeleton,
    require_valid,
    skeleton,
    suspension,
    validate,
    wedge,
    zoo,
)
from cwhom.intmat import IntMatrix


def test_validate_accepts_zoo():
    for name in ZOO_NAMES:
        params = {"sphere": (2,), "rp": (3,), "cp": (2,), "moore": (3, 1),
                  "surface": (2,), "lens": (5,)}.get(name, ())
        assert validate(zoo(name, *params)) == []


def test_validate_reports_bad_column_sum():
    x = CwComplex((2, 1), (IntMatrix.from_rows([[1], [1]]),))
    msgs = validate(x)
    assert any("sum" in m for m in msgs)
    with pytest.raises(InvalidComplex):
        require_valid(x)


def test_validate_reports_chain_condition():
    b1 = IntMatrix.from_rows([[1], [-1]])
    b2 = IntMatrix.from_rows([[1]])
    msgs = validate(CwComplex((2, 1, 1), (b1, b2)))
    assert any("chain condition" in m for m in msgs)


def test_validate_reports_shape_mismatch():
    msgs = validate(CwComplex((1, 2), (IntMatrix.zeros(1, 3),)))
    assert msgs and "shape" in msgs[0]


def test_needs_a_vertex():
    assert validate(CwComplex((0,), ())) != []


def test_presentation_torus():
    t = from_presentation(EdgePresentation(1, ((0, 0), (0, 0)), ((1, 2, -1, -2),)))
    assert t.cells == (1, 2, 1)
    assert t.boundary(2).is_zero()


def test_presentation_klein_exponent_sum():
    k = from_presentation(EdgePresentation(1, ((0, 0), (0, 0)), ((1, 2, 1, -2),)))
    assert k.boundary(2).col(0) == (2, 0)


def test_presentation_interval():
    i = from_presentation(EdgePresentation(2, ((0, 1),)))
    assert i.boundary(1).col(0) == (1, -1)


def test_presentation_rejects_open_word():
    with pytest.raises(MalformedWord):
        from_presentation(EdgePresentation(2, ((0, 1),), ((1,),)))


def test_presentation_rejects_noncomposable():
    with pytest.raises(MalformedWord):
        from_presentation(EdgePresentation(3, ((0, 1), (2, 0)), ((1, 2),)))


def test_presentation_rejects_bad_index():
    with pytest.raises(MalformedWord):
        from_presentation(EdgePresentation(1, ((0, 0),), ((2,),)))


def test_euler():
    assert euler_characteristic(zoo("torus")) == 0
    assert euler_characteristic(zoo("sphere", 2)) == 2
    assert euler_characteristic(zoo("rp", 2)) == 1
    assert euler_characteristic(zoo("surface", 2)) == -2
    assert euler_characteristic(zoo("cp", 2)) == 3


def test_skeleton_and_quotient():
    t = zoo("torus")
    sk = skeleton(t, 1)
    assert sk.cells == (1, 2)
    q = quotient_by_skeleton(t, 1)
    assert q.cells == (1, 0, 1)
    assert q.boundary(2).is_zero()
    with pytest.raises(ValueError):
        skeleton(t, 5)
    with pytest.raises(ValueError):
        quotient_by_skeleton(t, 2)


def test_suspension_of_sphere():
    s1 = zoo("sphere", 1)
    s2 = suspension(s1)
    assert s2.cells == (1, 0, 1)
    # suspending S0 gives a circle-shaped complex
    c = suspension(zoo("sphere", 0))
    assert c.cells == (1, 1)


def test_suspension_with_many_vertices():
    # two points, no basepoint merge issues: susp has one loop
    x = require_valid(CwComplex((3, 2), (IntMatrix.from_rows(
        [[1, 0], [-1, 1], [0, -1]]),)))
    s = suspension(x)
    assert s.cells == (1, 2, 2)
    require_valid(s)


def test_disjoint_basepoint():
    t = zoo("torus")
    tp = add_disjoint_basepoint(t)
    assert tp.cells == (2, 2, 1)
    assert tp.basepoint == 1
    require_valid(tp)


def test_wedge_cells():
    w = wedge([zoo("sphere", 1), zoo("sphere", 2)])
    assert w.cells == (1, 1, 1)
    require_valid(w)
    w3 = wedge([zoo("sphere", 0), zoo("sphere", 0), zoo("sphere", 0)])
    assert w3.cells == (4,)


def test_wedge_folds_basepoint_rows():
    # wedging two intervals at endpoint 0 gives a path with 3 vertices
    i = from_presentation(EdgePresentation(2, ((0, 1),)))
    w = wedge([i, i])
    assert w.cells == (3, 2)
    assert sum(w.boundary(1).col(0)) == 0
    require_valid(w)


def test_zoo_parameter_errors():
    for bad in [("sphere", -1), ("moore", 1, 1), ("moore", 2, 0),
                ("surface", 0), ("lens", 1), ("rp", 0), ("torus", 3)]:
        with pytest.raises(ValueError):
            zoo(*bad)
    with pytest.raises(ValueError):
        zoo("dodecahedron")


def test_zoo_boundary_values():
    assert zoo("rp", 3).boundary(2).entry(0, 0) == 2
    assert zoo("rp", 3).boundary(3).entry(0, 0) == 0
    assert zoo("moore", 5, 2).boundary(3).entry(0, 0) == 5
    assert zoo("lens", 7).boundary(2).entry(0, 0) == 7


def test_constructions_are_valid_on_corpus():
    # these constructions skip validating their output, so check it here
    from cwhom.verify import standard_corpus
    for x in standard_corpus():
        assert validate(suspension(x)) == [], x.name
        assert validate(add_disjoint_basepoint(x)) == [], x.name
        for n in range(x.dim + 1):
            assert validate(skeleton(x, n)) == [], (x.name, n)
        for m in range(x.dim):
            assert validate(quotient_by_skeleton(x, m)) == [], (x.name, m)


def test_battery_wedges_are_valid():
    pairs = [
        (zoo("sphere", 1), zoo("sphere", 2)),
        (zoo("torus"), zoo("rp", 2)),
        (zoo("moore", 2, 1), zoo("sphere", 1)),
    ]
    for a, b in pairs:
        assert validate(wedge([a, b])) == []


def test_quotient_by_skeleton_checks_its_input():
    # B_1 B_2 != 0 below the collapsed skeleton: the quotient alone would
    # look valid, so the input has to be checked
    b1 = IntMatrix.from_rows([[1], [-1]])
    b2 = IntMatrix.from_rows([[1]])
    x = CwComplex((2, 1, 1), (b1, b2))
    with pytest.raises(InvalidComplex):
        quotient_by_skeleton(x, 1)


def test_validity_is_computed_once_per_object(monkeypatch):
    import cwhom.complexes as complexes
    calls = []
    real = complexes.validate
    monkeypatch.setattr(complexes, "validate", lambda x: calls.append(x) or real(x))
    good = CwComplex((1, 1), (IntMatrix.zeros(1, 1),))
    for _ in range(3):
        require_valid(good)
    bad = CwComplex((2, 1), (IntMatrix.from_rows([[1], [1]]),))
    for _ in range(3):
        with pytest.raises(InvalidComplex) as exc:
            require_valid(bad)
        assert "entry sum 2" in str(exc.value)
    assert calls == [good, bad]


@pytest.mark.parametrize("args, message", [
    (("sphere", 10**5 + 1), "sphere dimension must be <= 100000"),
    (("rp", 10**30), "rp dimension must be <= 100000"),
    (("cp", 10**30), "cp dimension must be <= 100000"),
    (("surface", 10**30), "surface genus must be <= 100000"),
    (("moore", 2, 10**30), "moore dimension must be <= 100000"),
])
def test_zoo_refuses_sizes_above_the_ceiling(args, message):
    # refused before any cell list is built: 10**30 would overflow or
    # never finish
    with pytest.raises(ValueError) as exc:
        zoo(*args)
    assert str(exc.value) == message


def test_zoo_ceiling_itself_is_allowed():
    assert zoo("sphere", 10**5).cells[-1] == 1


def test_copies_and_skeleta_of_invalid_complexes_stay_invalid():
    # with_name takes over its original's report, and a skeleton of an
    # invalid complex computes its own, so neither is born valid
    bad = CwComplex((2, 1, 1), (IntMatrix.from_rows([[1], [-1]]), IntMatrix.from_rows([[1]])))
    for x in (bad.with_name("bad"), skeleton(bad, 2), bad.with_name("bad").with_name("")):
        with pytest.raises(InvalidComplex, match="chain condition"):
            require_valid(x)
    # below the faulty dimension the skeleton is a valid complex
    assert require_valid(skeleton(bad, 1)).cells == (2, 1)
    unsummed = CwComplex((2, 1), (IntMatrix.from_rows([[1], [1]]),))
    with pytest.raises(InvalidComplex, match="entry sum 2"):
        require_valid(skeleton(unsummed, 1).with_name("s"))


def test_complex_hash_is_kept_on_the_instance():
    # every homology cache is keyed by the complex: its boundaries are
    # hashed once, not on every lookup
    x = zoo("rp", 3)
    assert "_hash" not in x.__dict__
    h = hash(x)
    assert x.__dict__["_hash"] == h == hash((x.cells, x.boundaries, x.basepoint)) == hash(x)
    y = x.with_name("other")
    assert y is not x and y.name == "other"
    assert hash(y) == h and y == x
    assert {x: "hit"}.get(y) == "hit"
