from cwhom.abgroups import FgAbGroup, parse_group
from cwhom.chainmaps import identity_map, inclusion_map, sphere_self_map
from cwhom.complexes import skeleton, zoo
from cwhom.intmat import IntMatrix
from cwhom.verify import (
    CheckReport,
    check_dimension,
    check_les_exactness,
    check_skeletal_reformulation,
    check_suspension,
    check_wedge,
    equal_up_to_generator_signs,
    run_battery,
    standard_coefficients,
    standard_corpus,
)

Z = FgAbGroup.free(1)


def test_report_render():
    rep = CheckReport("suspension", "torus", Z, range(0, 4))
    assert rep.passed
    assert rep.render() == "PASS suspension torus G=Z dims=0..3"
    rep.witnesses.append("dimension 2: boom")
    out = rep.render().splitlines()
    assert out[0].startswith("FAIL suspension torus")
    assert out[1] == "    dimension 2: boom"


def test_dimension_axiom():
    for g in standard_coefficients():
        assert check_dimension(g).passed


def test_suspension_axiom_sample():
    for x in (zoo("klein"), zoo("rp", 3), zoo("sphere", 0), zoo("moore", 4, 1)):
        for g in (Z, parse_group("Z/6"), parse_group("Z + Z/2")):
            rep = check_suspension(x, g)
            assert rep.passed, rep.render()


def test_wedge_axiom_sample():
    rep = check_wedge([zoo("rp", 2), zoo("torus"), zoo("sphere", 3)], parse_group("Z/4"))
    assert rep.passed, rep.render()


def test_les_exactness_sample():
    t = zoo("torus")
    for f in (sphere_self_map(1, 4), inclusion_map(skeleton(t, 1), t), identity_map(t)):
        for g in (Z, parse_group("Z/2")):
            rep = check_les_exactness(f, g)
            assert rep.passed, rep.render()


def test_skeletal_reformulation_sample():
    for x in (zoo("klein"), zoo("cp", 2), zoo("lens", 3), zoo("sphere", 4)):
        for g in (Z, parse_group("Z/2"), parse_group("Z + Z/2")):
            rep = check_skeletal_reformulation(x, g)
            assert rep.passed, rep.render()


class TestSignComparison:
    def test_plain_equal(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert equal_up_to_generator_signs([(0, m, m, (0, 0))]) is None

    def test_column_flip(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        n = IntMatrix.from_rows([[-1, 2], [-3, 4]])
        assert equal_up_to_generator_signs([(0, m, n, (0, 0))]) is None

    def test_inconsistent_flip(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        n = IntMatrix.from_rows([[-1, 2], [3, 4]])
        assert equal_up_to_generator_signs([(0, m, n, (0, 0))]) is not None

    def test_wrong_value(self):
        m = IntMatrix.from_rows([[5]])
        n = IntMatrix.from_rows([[3]])
        assert equal_up_to_generator_signs([(0, m, n, (0,))]) is not None

    def test_torsion_rows_mod_order(self):
        # 1 and -1 agree mod 2, so either sign works
        m = IntMatrix.from_rows([[1, 1]])
        n = IntMatrix.from_rows([[1, -1]])
        assert equal_up_to_generator_signs([(0, m, n, (2,))]) is None

    def test_cross_level_consistency(self):
        # level 0 forces generator (1,0) to flip; level 1 then forces
        # a contradiction on the same generator
        a = IntMatrix.from_rows([[1]])
        na = IntMatrix.from_rows([[-1]])
        b = IntMatrix.from_rows([[1]])
        pairs = [(0, a, na, (0,)), (1, b, b, (0,))]
        assert equal_up_to_generator_signs(pairs) is None
        # but demanding both a flip at the interface and equality through
        # a chained second level cannot be satisfied
        pairs = [
            (0, IntMatrix.from_rows([[1], [1]]), IntMatrix.from_rows([[-1], [1]]), (0, 0)),
            (1, IntMatrix.from_rows([[1, 1]]), IntMatrix.from_rows([[1, 1]]), (0,)),
        ]
        assert equal_up_to_generator_signs(pairs) is not None

    def test_shape_mismatch(self):
        m = IntMatrix.from_rows([[1]])
        n = IntMatrix.from_rows([[1, 0]])
        assert "shape" in equal_up_to_generator_signs([(0, m, n, (0,))])


def test_corpus_contents():
    names = [x.name for x in standard_corpus()]
    assert "torus" in names and "RP4" in names and "S0" in names
    assert len(names) == len(set(names))


def test_battery_suite_filter():
    reports = run_battery(
        complexes=[zoo("rp", 2)], coefficients=[Z], suites={"suspension"}
    )
    assert all(r.check == "suspension" for r in reports)
    assert all(r.passed for r in reports)


def test_full_battery():
    reports = run_battery()
    bad = [r.render() for r in reports if not r.passed]
    assert not bad, "\n".join(bad)


def test_skeletal_steps_are_valid():
    # the inclusions and collapse comparisons of the skeletal check are
    # built without validation, so check them here
    from cwhom.chainmaps import mapping_cone, validate_map
    from cwhom.verify import _collapse_comparison, _double_quotient, _filtration_quotient
    for x in standard_corpus():
        for k in range(x.dim):
            j = inclusion_map(_filtration_quotient(x, k), _double_quotient(x, k))
            assert validate_map(j) == [], (x.name, k)
            cone = mapping_cone(j)
            collapse = _collapse_comparison(cone, _filtration_quotient(x, k + 1))
            assert validate_map(collapse) == [], (x.name, k)


def test_wedge_inclusions_are_valid():
    from cwhom.chainmaps import validate_map
    from cwhom.verify import _wedge_inclusions
    groups = [
        [zoo("sphere", 1), zoo("sphere", 2)],
        [zoo("torus"), zoo("rp", 2)],
        [zoo("moore", 2, 1), zoo("sphere", 1)],
        [zoo("rp", 2), zoo("torus"), zoo("sphere", 3)],
        [zoo("sphere", 0), zoo("sphere", 0), zoo("klein")],
    ]
    for xs in groups:
        for inc in _wedge_inclusions(xs):
            assert validate_map(inc) == []


def test_sign_solver_long_chain():
    from cwhom.verify import _SignSolver
    solver = _SignSolver()
    n = 5000
    for i in range(n):
        # consecutive generators have opposite signs
        assert solver.relate(i, i + 1, 1)
    assert solver.relate(0, n, n % 2)
    assert not solver.relate(n, 0, 1 - n % 2)
    assert solver.relate(1, n - 1, 0)


def test_coefficient_free_inputs_are_shared_and_nameless():
    # equal complexes share one cached tower and one suspension, which
    # carry no name, so reports name the complex they were asked about
    from cwhom.chainmaps import _suspended, validate_map
    from cwhom.complexes import validate
    from cwhom.verify import _skeletal_tower
    t = zoo("torus")
    other = t.with_name("other")
    assert _skeletal_tower(t) is _skeletal_tower(other)
    assert _suspended(t) is _suspended(other)
    assert _suspended(t).name == ""
    quotients, levels = _skeletal_tower(t)
    assert [q.name for q in quotients] == [""] * 3
    for k, (j, cone, collapse) in enumerate(levels):
        assert (j.source, j.target) == (quotients[k], cone.inclusion.source)
        assert (collapse.source, collapse.target) == (cone.cone, quotients[k + 1])
        assert validate_map(j) == [] and validate(cone.cone) == [] and validate_map(collapse) == []
    assert check_skeletal_reformulation(other, Z).render() == "PASS skeletal other G=Z dims=0..2"
    assert check_suspension(other, Z).render() == "PASS suspension other G=Z dims=0..3"
    assert _skeletal_tower.cache_info().maxsize and _suspended.cache_info().maxsize


def test_les_cone_built_once_per_map_and_nameless(monkeypatch):
    # every coefficient group of the LES check reads one cached cone, built
    # from a nameless copy, so a report names the map it was asked about
    import cwhom.chainmaps as chainmaps
    built = []
    real = chainmaps.mapping_cone

    def counting(f):
        built.append(f)
        return real(f)

    monkeypatch.setattr(chainmaps, "mapping_cone", counting)
    chainmaps._cone.cache_clear()
    s1 = zoo("sphere", 1).with_name("circle")
    f = chainmaps.ChainMap(s1, s1, sphere_self_map(1, 3).maps, "triple")
    g = chainmaps.ChainMap(s1.with_name("loop"), s1.with_name("loop"), f.maps)
    reports = [check_les_exactness(h, coeff) for h in (f, g) for coeff in standard_coefficients()]
    assert len(built) == 1
    assert [r.render().split()[2] for r in reports] == ["triple"] * 5 + ["loop->loop"] * 5
    assert all(r.passed for r in reports)
    cone = chainmaps._cone(g)
    assert (cone.map.name, cone.cone.name, cone.inclusion.source.name) == ("", "cone", "")
    assert (cone.map.source.name, cone.map.target.name) == ("", "")
    assert chainmaps._cone.cache_info().maxsize
